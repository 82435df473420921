// MICRO — google-benchmark microbenchmarks for the crypto substrate and
// the per-step protocol primitives (infrastructure, not a paper figure).
// Also emits BENCH_micro_crypto.json with the MacBatch lanes-vs-oneshot
// comparison through the shared bench harness.
#include <benchmark/benchmark.h>

#include <chrono>

#include "broadcast/auth_broadcast.h"
#include "core/audit.h"
#include "core/synopsis.h"
#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/mac.h"
#include "crypto/mac_batch.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "keys/key_ring.h"
#include "trial_runner.h"

namespace {

using namespace vmat;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(Sha256::hash(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(16, 0x11);
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x22);
  for (auto _ : state) benchmark::DoNotOptimize(hmac_sha256(key, msg));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(256);

void BM_MacComputeVerify(benchmark::State& state) {
  const SymmetricKey key = derive_key("bench", 1, 2);
  const Bytes msg(48, 0x33);
  const Mac tag = compute_mac(key, msg);
  for (auto _ : state) benchmark::DoNotOptimize(verify_mac(key, msg, tag));
}
BENCHMARK(BM_MacComputeVerify);

// One-shot vs cached-key-schedule MAC throughput. The one-shot path pays
// the HMAC key schedule (ipad/opad compressions) on every call; the cached
// path pays it once per key and resumes the midstates per message.
void BM_MacOneShot(benchmark::State& state) {
  const SymmetricKey key = derive_key("bench", 5, 6);
  const Bytes msg(48, 0x44);
  for (auto _ : state) benchmark::DoNotOptimize(compute_mac(key, msg));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacOneShot);

void BM_MacCachedSchedule(benchmark::State& state) {
  const SymmetricKey key = derive_key("bench", 5, 6);
  const MacContext ctx(key);
  const Bytes msg(48, 0x44);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.compute(msg));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacCachedSchedule);

void BM_PrfExponential(benchmark::State& state) {
  const SymmetricKey key = derive_key("bench", 3, 4);
  std::uint32_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(prf_exponential(key, 7, 9, ++i, 5));
}
BENCHMARK(BM_PrfExponential);

void BM_SynopsisValue(benchmark::State& state) {
  const SynopsisCodec codec(99);
  std::uint32_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(codec.value_for(NodeId{42}, ++i, 17));
}
BENCHMARK(BM_SynopsisValue);

void BM_HashChainVerify(benchmark::State& state) {
  const HashChain chain(1, 128);
  const auto distance = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        HashChain::verify(chain.element(distance), distance, chain.anchor(), 0));
}
BENCHMARK(BM_HashChainVerify)->Arg(1)->Arg(32)->Arg(127);

// Broadcaster construction at the coordinator's capacity: hashes the top
// chain only; lower chains are built on first use inside sign().
void BM_AuthBroadcasterBuild(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const AuthBroadcaster bs(++seed, kMaxBroadcasts);
    benchmark::DoNotOptimize(bs.anchor());
  }
}
BENCHMARK(BM_AuthBroadcasterBuild);

// One sign plus one receiver verify/advance, as authenticated_broadcast()
// pays per announcement. Includes the amortized lower-chain build (one per
// kSegmentLength signs); the cursor rewinds untimed at capacity.
void BM_AuthBroadcastSignVerify(benchmark::State& state) {
  AuthBroadcaster bs(1, kMaxBroadcasts);
  AuthReceiver rx(bs.anchor());
  const Bytes payload(35, 0x5a);  // a query announcement's size
  for (auto _ : state) {
    if (bs.next_epoch() > kMaxBroadcasts) {
      state.PauseTiming();
      bs.restore_next_epoch(1);
      rx = AuthReceiver(bs.anchor());
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(rx.accept(bs.sign(payload)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuthBroadcastSignVerify);

void BM_RingOverlap(benchmark::State& state) {
  const KeyRing a(1, 250, 100000);
  const KeyRing b(2, 250, 100000);
  for (auto _ : state) benchmark::DoNotOptimize(a.overlap(b));
}
BENCHMARK(BM_RingOverlap);

void BM_RingSample(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const KeyRing ring(++seed, 250, 100000);
    benchmark::DoNotOptimize(ring.size());
  }
}
BENCHMARK(BM_RingSample);

// contains() on both sides of KeyRing::kBitmapPoolLimit (1 << 20): the
// paper-scale pool (bitmap: one bit test) and a pool past the limit
// (binary search over the sorted ring). Half the probes hit, half miss,
// ids striding the pool so the branch predictor sees the hot-path mix.
void BM_RingContains(benchmark::State& state) {
  const auto pool = static_cast<std::uint32_t>(state.range(0));
  const KeyRing ring(1, 250, pool);
  const auto hits = ring.indices();
  std::uint32_t i = 0;
  for (auto _ : state) {
    const KeyIndex probe = (i & 1) != 0
                               ? hits[(i >> 1) % hits.size()]
                               : KeyIndex{(i * 2654435761u) % pool};
    benchmark::DoNotOptimize(ring.contains(probe));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingContains)
    ->Arg(100000)      // bitmap side (paper's evaluation pool)
    ->Arg(1 << 20)     // bitmap side, at the limit
    ->Arg(4 << 20);    // past the limit: binary-search fallback

void BM_EvaluatePredicate(benchmark::State& state) {
  AuditLog audit(8);
  audit.begin_aggregation(1);
  audit.set_level(NodeId{5}, 3);
  for (int i = 0; i < 8; ++i) {
    ForwardRecord f;
    f.msg.origin = NodeId{static_cast<std::uint32_t>(i)};
    f.msg.value = 100 + i;
    f.out_edge = KeyIndex{static_cast<std::uint32_t>(40 + i)};
    audit.add_forwarded(0, NodeId{5}, f);
  }
  Predicate p;
  p.kind = PredicateKind::kAggForwardedValue;
  p.v_max = 104;
  p.level = 3;
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  p.z_lo = KeyIndex{0};
  p.z_hi = KeyIndex{60};
  for (auto _ : state)
    benchmark::DoNotOptimize(evaluate_predicate(p, NodeId{5}, audit));
}
BENCHMARK(BM_EvaluatePredicate);

// Multi-buffer MAC throughput by batch width. Frame-sized messages (48 B:
// a typical encoded veto/agg payload) under one cached key schedule, so
// the delta over BM_MacCachedSchedule is pure lane parallelism.
void BM_MacBatchLanes(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const MacContext ctx(derive_key("bench", 7, 8));
  const std::vector<Bytes> msgs(lanes, Bytes(48, 0x55));
  MacBatch batch;
  for (auto _ : state) {
    batch.clear();
    for (const auto& m : msgs) (void)batch.add(ctx, m);
    batch.compute();
    benchmark::DoNotOptimize(batch.macs().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_MacBatchLanes)->Arg(1)->Arg(2)->Arg(8)->Arg(16)->Arg(64);

/// The lanes-vs-oneshot report: BENCH_micro_crypto.json gets ns/MAC for
/// the one-shot path, the cached-schedule path, and MacBatch at widening
/// lane counts, plus the headline batch-vs-oneshot speedup.
void write_mac_batch_report() {
  using clock = std::chrono::steady_clock;
  constexpr std::size_t kMsgLen = 48;
  const std::size_t macs_per_rep = bench::smoke() ? 256 : 4096;
  const std::size_t reps = bench::trials(16);
  const SymmetricKey key = derive_key("bench", 7, 8);
  const MacContext ctx(key);

  bench::BenchReport report("micro_crypto");
  report.config("message_bytes", static_cast<std::int64_t>(kMsgLen));
  report.config("macs_per_rep", static_cast<std::int64_t>(macs_per_rep));
  report.config("reps", static_cast<std::int64_t>(reps));
  const char* impl = "scalar";
  switch (MacBatch::active_impl()) {
    case MacBatch::Impl::kShaNiX2: impl = "sha-ni-x2"; break;
    case MacBatch::Impl::kAvx2X8: impl = "avx2-x8"; break;
    default: break;
  }
  report.config("mac_batch_impl", impl);

  // Best-of-reps ns/MAC for one timed body.
  const auto measure = [&](const auto& body) {
    double best_ms = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto t0 = clock::now();
      body();
      const auto t1 = clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (ms < best_ms) best_ms = ms;
    }
    return best_ms * 1e6 / static_cast<double>(macs_per_rep);
  };

  const Bytes msg(kMsgLen, 0x55);
  const double oneshot_ns = measure([&] {
    for (std::size_t i = 0; i < macs_per_rep; ++i)
      benchmark::DoNotOptimize(compute_mac(key, msg));
  });
  report.group("mac_oneshot").metric("ns_per_mac", oneshot_ns);
  const double cached_ns = measure([&] {
    for (std::size_t i = 0; i < macs_per_rep; ++i)
      benchmark::DoNotOptimize(ctx.compute(msg));
  });
  report.group("mac_cached_schedule").metric("ns_per_mac", cached_ns);

  double widest_batch_ns = cached_ns;
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{8},
                                  std::size_t{16}, std::size_t{64}}) {
    const std::vector<Bytes> msgs(lanes, msg);
    MacBatch batch;
    const double ns = measure([&] {
      for (std::size_t done = 0; done < macs_per_rep; done += lanes) {
        batch.clear();
        for (const auto& m : msgs) (void)batch.add(ctx, m);
        batch.compute();
        benchmark::DoNotOptimize(batch.macs().data());
      }
    });
    report.group("mac_batch_lanes=" + std::to_string(lanes))
        .metric("ns_per_mac", ns);
    widest_batch_ns = ns;
  }
  report.result("batch_speedup_vs_oneshot", oneshot_ns / widest_batch_ns);
  report.result("batch_speedup_vs_cached", cached_ns / widest_batch_ns);

  // Ring-membership rows: contains() cost on both sides of
  // KeyRing::kBitmapPoolLimit, so the bitmap-vs-binary-search tradeoff the
  // limit encodes stays a measured number (see key_ring.h).
  for (const std::uint32_t pool : {100000u, 1u << 20, 4u << 20}) {
    const KeyRing ring(1, 250, pool);
    const auto hits = ring.indices();
    std::uint32_t i = 0;
    const double ns = measure([&] {
      for (std::size_t probe_i = 0; probe_i < macs_per_rep; ++probe_i) {
        const KeyIndex probe = (i & 1) != 0
                                   ? hits[(i >> 1) % hits.size()]
                                   : KeyIndex{(i * 2654435761u) % pool};
        benchmark::DoNotOptimize(ring.contains(probe));
        ++i;
      }
    });
    report.group("ring_contains_pool=" + std::to_string(pool))
        .metric("ns_per_lookup", ns);
  }
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  write_mac_batch_report();
  benchmark::Shutdown();
  return 0;
}
