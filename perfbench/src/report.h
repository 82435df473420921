// Benchmark-side measurement: a span log recorded around the benchmark's
// own calls into the library, sample sets with the percentile rule the
// metrics use, and the result object every run prints as its last line.
//
// Spans are kept in memory and written out when the run ends. Recording is
// a single branch when the log is disabled, which is how the untraced
// (end-to-end) runs use it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// RAII span: open on construction, closed on destruction. Spans nest by
  /// lexical scope on the recording thread; the enclosing open span is the
  /// parent. A disabled log records nothing.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int32_t index_{-1};
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Switch recording on or off between operations (open spans still close).
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Start a new operation: later spans carry this operation id.
  void begin_op() noexcept { ++op_; }

  /// Append another log's spans (recorded on another thread) as roots of
  /// this one's operations.
  void append(const SpanLog& other);

  /// Durations (ms) of every closed span called `name`, in order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Self time per layer (ms): each span's duration minus the part of it
  /// its child spans cover, summed by layer (the span name up to its
  /// first '.').
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Write every span as JSON; false on I/O failure.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int32_t parent;
    std::uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_{-1};
  std::uint64_t op_{0};
};

/// Linear-interpolated percentile (0..100) of `xs`; 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> xs, double pct);
[[nodiscard]] double median(std::vector<double> xs);

/// The metrics of one run, keyed by name, each with its unit.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
};

/// Shortest exact decimal form of a double for JSON ("null" if not finite).
[[nodiscard]] std::string json_number(double v);
/// JSON string literal with the required escapes.
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace perfbench
