// vmat_perfbench — one benchmark run of one workload.
//
//   vmat_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE] [--git-sha SHA] [--small]
//
// Prints a run-record line ({"run_record": {...}}: environment, sizes,
// sample counts) and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 emits the
// end-to-end metrics; --trace 1 the per-layer metrics, and writes the
// spans to --spans. --small shrinks every workload to a seconds-long
// configuration for the self-test.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "crypto/mac_batch.h"
#include "util/parallel.h"
#include "workloads.h"

namespace {

using perfbench::json_number;
using perfbench::json_string;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: vmat_perfbench --workload oneshot-large|theorem7-streak|"
               "vmatd-openloop|campaign-fork --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--git-sha SHA] [--small]\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') usage();
  return v;
}

const char* impl_name(vmat::MacBatch::Impl impl) {
  switch (impl) {
    case vmat::MacBatch::Impl::kAuto: return "auto";
    case vmat::MacBatch::Impl::kScalar: return "scalar";
    case vmat::MacBatch::Impl::kShaNiX2: return "sha-ni-x2";
    case vmat::MacBatch::Impl::kAvx2X8: return "avx2-x8";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string spans_path;
  std::string git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--workload") opt.workload = value();
    else if (flag == "--seed") { opt.seed = parse_u64(value()); have_seed = true; }
    else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(value()));
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage();
      opt.trace = v == "1";
      have_trace = true;
    } else if (flag == "--spans") spans_path = value();
    else if (flag == "--git-sha") git_sha = value();
    else if (flag == "--small") opt.small = true;
    else usage();
  }
  if (!have_seed || !have_seconds || !have_trace || opt.seconds < 1) usage();

  using Workload = void (*)(const perfbench::RunOptions&, perfbench::SpanLog&,
                            perfbench::Run&);
  Workload workload = nullptr;
  if (opt.workload == "oneshot-large") workload = perfbench::run_oneshot_large;
  else if (opt.workload == "theorem7-streak") workload = perfbench::run_theorem7_streak;
  else if (opt.workload == "vmatd-openloop") workload = perfbench::run_vmatd_openloop;
  else if (opt.workload == "campaign-fork") workload = perfbench::run_campaign_fork;
  else usage();

  // Thread plan: load comes from this one process and its threads stay
  // within nproc. Executions run serially (the intra-execution pool pinned
  // to 1): on a shared 4-core host a 4-thread oneshot-large execution
  // swung between 67 and 366 ms from run to run, as every phase barrier
  // waited for its slowest descheduled shard, while one thread held
  // 130-220 ms. theorem7-streak runs its three streaks on three threads;
  // vmatd runs the daemon's server thread beside this client thread.
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t nproc = online > 0 ? static_cast<std::size_t>(online) : 1;
  const std::size_t intra = 1;
  std::size_t total_threads = 1;
  if (opt.workload == "theorem7-streak") total_threads = 3;
  if (opt.workload == "vmatd-openloop") total_threads = 2;
  // The shared pool sizes itself from VMAT_THREADS on first use.
  ::setenv("VMAT_THREADS", std::to_string(intra).c_str(), 1);
  vmat::set_intra_execution_threads(intra);

  perfbench::SpanLog spans(opt.trace);
  perfbench::Run run;
  try {
    workload(opt, spans, run);
    if (opt.trace) {
      perfbench::SpanLog::Scope span(spans, "crypto.mac_ceiling");
      run.mac_ceiling_per_s = perfbench::mac_ceiling_per_s();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vmat_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.trace && !spans_path.empty() && !spans.write_json(spans_path)) {
    std::fprintf(stderr, "vmat_perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  perfbench::Report report;
  perfbench::emit_metrics(run, spans, opt.trace, report);

  const char* snapshot_env = std::getenv("VMAT_SNAPSHOT");
  std::string rec = "{\"run_record\": {";
  auto field = [&rec](const std::string& key, const std::string& json) {
    if (rec.back() != '{') rec += ", ";
    rec += json_string(key) + ": " + json;
  };
  field("workload", json_string(opt.workload));
  field("seed", std::to_string(opt.seed));
  field("seconds", json_number(opt.seconds));
  field("trace", opt.trace ? "1" : "0");
  field("small", opt.small ? "true" : "false");
  field("nproc", std::to_string(nproc));
  field("intra_execution_threads", std::to_string(intra));
  field("total_threads", std::to_string(total_threads));
  field("mac_impl", json_string(impl_name(vmat::MacBatch::active_impl())));
  field("vmat_snapshot", json_string(snapshot_env ? snapshot_env : "default"));
  field("build_type", json_string(PERFBENCH_BUILD_TYPE));
  field("git_sha", json_string(git_sha));
  field("setup_samples", std::to_string(run.setup_s.size()));
  field("exec_samples", std::to_string(run.exec_ms.size()));
  char digest[20];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(run.input_digest));
  field("input_digest", json_string(digest));
  field("clean_executions", std::to_string(run.exec.clean_ms.size()));
  field("disrupted_executions", std::to_string(run.exec.disrupted_ms.size()));
  for (std::size_t k = 0; k < perfbench::kFailureKinds; ++k)
    field(std::string("failures.") +
              perfbench::to_string(static_cast<perfbench::Failure>(k)),
          std::to_string(run.checks.by_kind[k]));
  for (const auto& [key, json] : run.record) field(key, json);
  rec += "}}";
  std::printf("%s\n", rec.c_str());

  if (run.checks.attempted == 0) {
    std::fprintf(stderr, "vmat_perfbench: no operation was checked\n");
    return 1;
  }
  std::printf("%s\n", report.result_json(run.checks.outputs_correct(),
                                         run.checks.attempted,
                                         run.checks.failed)
                          .c_str());
  return 0;
}
