#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(&log) {
  if (!log.enabled_) return;
  index_ = static_cast<std::int32_t>(log.spans_.size());
  log.spans_.push_back(
      Span{name, log.open_, log.op_, Clock::now(), Clock::time_point{}});
  log.open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = log_->spans_[static_cast<std::size_t>(index_)];
  span.end = Clock::now();
  log_->open_ = span.parent;
}

void SpanLog::append(const SpanLog& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  const std::uint64_t op_offset = op_;
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    s.op += op_offset;
    spans_.push_back(s);
  }
  op_ += other.op_;
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(ms_between(s.start, s.end));
  return out;
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name = spans_[i].name;
    const std::string layer(name.substr(0, name.find('.')));
    out[layer] += ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  f << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
      << ", \"name\": " << json_string(s.name) << ", \"parent\": " << s.parent
      << ", \"op\": " << s.op
      << ", \"start_ms\": " << json_number(ms_between(origin, s.start))
      << ", \"end_ms\": " << json_number(ms_between(origin, s.end)) << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = pct / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

std::string Report::result_json(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(v.value) +
           ", \"unit\": " + json_string(v.unit) + "}";
  }
  out += "}}";
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
