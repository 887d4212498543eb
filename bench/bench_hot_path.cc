// Per-run hot-path cost of the campaign engine: heap allocations and
// nanoseconds per logical unit-test run in the native regime, where PR 6's
// in-process thread pool removed the fork/IPC cost class and the bottleneck
// moved into our own bookkeeping (cache keys, plan fingerprints, result
// copies, journal syncs).
//
// The binary overrides the global operator new/delete with a counting
// interposer (this binary only — nothing links against it), runs the full
// corpus through the sequential and thread-pool engines, and reports
// allocations per logical run plus ns per run. "Logical runs" is
// CampaignReport::total_unit_test_runs — cache hits included — so the
// denominator is identical whatever fraction of runs the cache serves, and
// the allocations-per-run series is comparable across cache configurations.
//
// Three "legacy shape" micro arms reproduce per-op costs the hash-keyed
// refactor removes, so the artifact keeps the before/after visible the same
// way bench_conf_micro's materialized-name arm does:
//   legacy_string_keys    — building the four string cache keys
//                           (exact/wildcard/canonical/trace) per lookup,
//   fingerprint_recompute — TestPlan::Fingerprint() re-serialized per
//                           comparison (the plan_equiv sort comparator shape),
//   result_deep_copy      — TestResult copied out of the cache per hit.
//
// `--ci-gate` is the fast regression gate: the thread-pool engine, with and
// without the run cache, bitwise-identical to the sequential campaign
// through the report serializer (it runs the same canonical fold), plus
// ceilings on allocations per logical run in the cached and the uncached
// sequential engine. Exits nonzero on the first violation.
//
// Results land in BENCH_hotpath.json next to BENCH_parallel.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/report_io.h"
#include "src/core/thread_pool_scheduler.h"
#include "src/testkit/test_execution.h"

// ---------------------------------------------------------------------------
// Counting interposer. The replaceable allocation functions must have
// external linkage, so they live at global scope; the counters are
// file-local. Relaxed atomics: we want totals, not ordering.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                     size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* ptr = CountedAlloc(size)) {
    return ptr;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* ptr = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return ptr;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace zebra {
namespace {

// Allocations per logical run the cached sequential engine (run cache and
// equivalence layer on) must stay under. A cached heterogeneous run records
// only its trace (its unit's read surface is installed), the cache entry
// keeps that trace as the one joined string, and the insert reuses the key
// digests its lookup derived, measuring about 158 (about 637 before the
// cache keys were hashed, 304 after, 192 before cached runs recorded only
// what the cache reads). Recording every cached run whole and keeping its
// session in the entry again reads about 183, so it trips this ceiling.
constexpr double kAllocsPerRunCeiling = 165.0;

// Allocations per logical run the uncached sequential engine must stay
// under. Its heterogeneous runs keep only their verdict (no ConfAgent read
// map or trace), serve plan values by reference through the agent's flat
// read memo, and execute only the 1,555 of 2,894 logical runs whose outcome
// the verifier does not already hold, measuring about 106. Re-executing
// bisection's failing one-instance runs reads about 111, re-executing the
// later trials of deterministic plans about 167, a per-session hash-map memo
// that copies each override value more, and recording every run more still,
// so each of those regressions trips this ceiling.
constexpr double kUncachedAllocsPerRunCeiling = 110.0;

// The PR 8 pre-refactor measurement (cached sequential engine, this corpus),
// recorded so the artifact carries its own baseline for the reduction claim.
constexpr double kPr8BaselineAllocsPerRun = 636.8;

uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
uint64_t AllocBytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

int HardwareCores() {
  unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : static_cast<int>(cores);
}

enum class Engine { kSequential, kThreadPool };

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kSequential:
      return "sequential";
    case Engine::kThreadPool:
      return "threadpool";
  }
  return "?";
}

CampaignReport RunEngine(Engine engine, bool cached, int workers) {
  CampaignOptions options;  // all apps
  options.enable_run_cache = cached;
  options.enable_equiv_cache = cached;
  switch (engine) {
    case Engine::kSequential: {
      Campaign campaign(FullSchema(), FullCorpus(), options);
      return campaign.Run();
    }
    case Engine::kThreadPool:
      return RunThreadPoolCampaign(FullSchema(), FullCorpus(), options,
                                   workers);
  }
  return CampaignReport{};
}

struct CampaignSample {
  int64_t runs = 0;           // logical runs (cache hits included)
  double allocs_per_run = 0;  // in-process heap allocations / logical run
  double bytes_per_run = 0;
  double ns_per_run = 0;  // best-of-R wall clock / logical run
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  size_t findings = 0;
};

// Allocation counts come from the first (cold-cache-identical) run; the
// ns/run figure is best-of-`repetitions`, since allocator and scheduler
// jitter at this scale make the minimum the honest per-run cost.
CampaignSample MeasureCampaign(Engine engine, bool cached, int workers,
                               int repetitions) {
  CampaignSample sample;
  double best_seconds = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    uint64_t count_before = AllocCount();
    uint64_t bytes_before = AllocBytes();
    auto start = std::chrono::steady_clock::now();
    CampaignReport report = RunEngine(engine, cached, workers);
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    uint64_t count_delta = AllocCount() - count_before;
    uint64_t bytes_delta = AllocBytes() - bytes_before;
    if (rep == 0) {
      sample.runs = report.total_unit_test_runs;
      sample.cache_hits = report.cache_hits;
      sample.cache_misses = report.cache_misses;
      sample.findings = report.findings.size();
      if (sample.runs > 0) {
        sample.allocs_per_run =
            static_cast<double>(count_delta) / static_cast<double>(sample.runs);
        sample.bytes_per_run =
            static_cast<double>(bytes_delta) / static_cast<double>(sample.runs);
      }
      best_seconds = seconds;
    } else if (seconds < best_seconds) {
      best_seconds = seconds;
    }
  }
  if (sample.runs > 0) {
    sample.ns_per_run = best_seconds * 1e9 / static_cast<double>(sample.runs);
  }
  return sample;
}

// ---------------------------------------------------------------------------
// Legacy-shape micro arms: per-op ns and allocations for the cost classes
// the hash-keyed refactor removes from the hot path.
// ---------------------------------------------------------------------------

struct MicroSample {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

template <typename Body>
MicroSample MeasureMicro(Body&& body, int iterations = 200000,
                         int repetitions = 5) {
  MicroSample sample;
  for (int rep = 0; rep < repetitions; ++rep) {
    uint64_t count_before = AllocCount();
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      body();
    }
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count() /
                iterations;
    double allocs = static_cast<double>(AllocCount() - count_before) /
                    static_cast<double>(iterations);
    if (rep == 0 || ns < sample.ns_per_op) {
      sample.ns_per_op = ns;
      sample.allocs_per_op = allocs;
    }
  }
  return sample;
}

// A pooled plan of realistic size: three dotted HDFS-style parameters, one
// carrying a dependency override — the shape bisection re-probes all day.
TestPlan RepresentativePlan() {
  TestPlan plan;
  ParamPlan first;
  first.param = "dfs.namenode.replication.considerLoad.factor";
  first.assigner = ValueAssigner::UniformGroup("DataNode", "3.5", "2.0");
  plan.Add(first);
  ParamPlan second;
  second.param = "dfs.datanode.handler.count";
  second.assigner = ValueAssigner::RoundRobinGroup("DataNode", "10", "3");
  second.extra_overrides.emplace_back("dfs.datanode.max.transfer.threads",
                                      "4096");
  plan.Add(second);
  ParamPlan third;
  third.param = "dfs.client.socket-timeout";
  third.assigner = ValueAssigner::Homogeneous("60000");
  plan.Add(third);
  return plan;
}

struct MicroArms {
  MicroSample legacy_keys;
  MicroSample fingerprint;
  MicroSample result_copy;
};

MicroArms MeasureMicroArms() {
  MicroArms arms;

  const std::string test_id = "minidfs.TestReplicationPolicy";
  const TestPlan plan = RepresentativePlan();
  const std::string plan_fp = plan.Fingerprint();
  const uint64_t trial = 2;
  // A read trace of realistic size: one '\x1e'-joined element per observed
  // (entity, param, value) triple.
  std::string trace;
  for (int i = 0; i < 12; ++i) {
    if (!trace.empty()) {
      trace += '\x1e';
    }
    trace += "DataNode#" + std::to_string(i % 3) +
             "|dfs.namenode.replication.considerLoad.factor=3.5";
  }

  // The pre-PR 8 RunCache call shape: four string keys concatenated per
  // logical lookup/insert cycle.
  arms.legacy_keys = MeasureMicro([&] {
    std::string exact = test_id;
    exact += '\x1f';
    exact += plan_fp;
    exact += '\x1f';
    exact += std::to_string(trial);
    std::string wildcard = test_id;
    wildcard += '\x1f';
    wildcard += plan_fp;
    wildcard += "\x1f*";
    std::string canonical = "C\x1f";
    canonical += test_id;
    canonical += '\x1f';
    canonical += plan_fp;
    canonical += "\x1f*";
    std::string trace_key = "T\x1f";
    trace_key += test_id;
    trace_key += '\x1f';
    trace_key += trace;
    trace_key += "\x1f*";
    benchmark::DoNotOptimize(exact);
    benchmark::DoNotOptimize(wildcard);
    benchmark::DoNotOptimize(canonical);
    benchmark::DoNotOptimize(trace_key);
  });

  // The pre-PR 8 plan_equiv comparator shape: the plan fingerprint
  // re-serialized from its entries on every comparison. (TestPlan::
  // Fingerprint() itself is memoized now, so the legacy cost is reproduced
  // by rebuilding the concatenation the old implementation produced.)
  arms.fingerprint = MeasureMicro(
      [&] {
        std::string text;
        for (size_t i = 0; i < plan.params().size(); ++i) {
          if (i > 0) {
            text += ", ";
          }
          text += plan.params()[i].Fingerprint();
        }
        benchmark::DoNotOptimize(text);
      },
      /*iterations=*/100000);

  // The pre-PR 8 Lookup copy-out shape: a cached TestResult deep-copied per
  // hit, under the cache mutex.
  TestResult representative;
  {
    const UnitTestRegistry& corpus = FullCorpus();
    const UnitTestDef* test = nullptr;
    for (const auto& candidate : corpus.tests()) {
      if (candidate.app == "minidfs") {
        test = &candidate;
        break;
      }
    }
    if (test == nullptr && !corpus.tests().empty()) {
      test = &corpus.tests().front();
    }
    if (test != nullptr) {
      representative = RunUnitTest(*test, plan, /*trial=*/0);
    }
  }
  arms.result_copy = MeasureMicro([&] {
    TestResult copy = representative;
    benchmark::DoNotOptimize(copy);
  });

  return arms;
}

// ---------------------------------------------------------------------------
// Report + artifact
// ---------------------------------------------------------------------------

void PrintSample(const char* label, const CampaignSample& sample) {
  std::printf("%-24s %8s runs  %8.1f allocs/run  %9.1f B/run  %10.0f ns/run",
              label, WithCommas(sample.runs).c_str(), sample.allocs_per_run,
              sample.bytes_per_run, sample.ns_per_run);
  if (sample.cache_hits + sample.cache_misses > 0) {
    std::printf("  cache %lld/%lld", static_cast<long long>(sample.cache_hits),
                static_cast<long long>(sample.cache_misses));
  }
  std::printf("\n");
}

void JsonSample(JsonWriter& json, const char* key,
                const CampaignSample& sample) {
  json.BeginObject(key);
  json.Field("logical_runs", sample.runs);
  json.Field("allocs_per_run", sample.allocs_per_run, 2);
  json.Field("bytes_per_run", sample.bytes_per_run, 1);
  json.Field("ns_per_run", sample.ns_per_run, 1);
  json.Field("cache_hits", sample.cache_hits);
  json.Field("cache_misses", sample.cache_misses);
  json.Field("findings", static_cast<uint64_t>(sample.findings));
  json.EndObject();
}

void JsonMicro(JsonWriter& json, const char* key, const MicroSample& sample) {
  json.BeginObject(key);
  json.Field("ns_per_op", sample.ns_per_op, 2);
  json.Field("allocs_per_op", sample.allocs_per_op, 3);
  json.EndObject();
}

void PrintHotPath() {
  PrintHeader("campaign hot path: allocations and ns per logical run");
  const int cores = HardwareCores();
  const int pool_workers = std::clamp(cores, 2, 6);

  // Warm the schema/corpus singletons so their one-time construction does
  // not pollute the first sample.
  (void)FullSchema();
  (void)FullCorpus();

  CampaignSample seq_plain =
      MeasureCampaign(Engine::kSequential, /*cached=*/false, 1, 3);
  CampaignSample seq_cached =
      MeasureCampaign(Engine::kSequential, /*cached=*/true, 1, 3);
  CampaignSample pool_cached =
      MeasureCampaign(Engine::kThreadPool, /*cached=*/true, pool_workers, 3);

  PrintSample("sequential", seq_plain);
  PrintSample("sequential+cache", seq_cached);
  char pool_label[48];
  std::snprintf(pool_label, sizeof(pool_label), "threadpool+cache@%d",
                pool_workers);
  PrintSample(pool_label, pool_cached);

  MicroArms arms = MeasureMicroArms();
  std::printf(
      "\nlegacy shapes (per op): string keys %.0f ns / %.1f allocs, "
      "fingerprint %.0f ns / %.1f allocs, result copy %.0f ns / %.1f "
      "allocs\n",
      arms.legacy_keys.ns_per_op, arms.legacy_keys.allocs_per_op,
      arms.fingerprint.ns_per_op, arms.fingerprint.allocs_per_op,
      arms.result_copy.ns_per_op, arms.result_copy.allocs_per_op);
  std::printf(
      "ceilings: %.0f allocs/run cached sequential (pre-refactor baseline "
      "%.0f), %.0f uncached\n\n",
      kAllocsPerRunCeiling, kPr8BaselineAllocsPerRun,
      kUncachedAllocsPerRunCeiling);

  WriteBenchJson("BENCH_hotpath.json", [&](JsonWriter& json) {
    json.Field("hardware_cores", cores);
    json.Field("pool_workers", pool_workers);
    json.Field("allocs_per_run_ceiling", kAllocsPerRunCeiling, 1);
    json.Field("uncached_allocs_per_run_ceiling", kUncachedAllocsPerRunCeiling,
               1);
    json.Field("pr8_baseline_allocs_per_run", kPr8BaselineAllocsPerRun, 1);
    JsonSample(json, "sequential", seq_plain);
    JsonSample(json, "sequential_cached", seq_cached);
    JsonSample(json, "threadpool_cached", pool_cached);
    json.BeginObject("legacy_shapes");
    JsonMicro(json, "legacy_string_keys", arms.legacy_keys);
    JsonMicro(json, "fingerprint_recompute", arms.fingerprint);
    JsonMicro(json, "result_deep_copy", arms.result_copy);
    json.EndObject();
  });
}

// Fast CI gate: the thread pool serializes bitwise-identically to the
// sequential campaign (scheduling-dependent accounting zeroed out, as in
// bench_parallel_scaling's gate), and the sequential engine, cached and
// uncached, stays under its allocations-per-run ceiling. Exits nonzero on
// the first violation.
int RunCiGate() {
  PrintHeader("hot-path CI gate: engine identity + allocs/run ceilings");
  (void)FullSchema();
  (void)FullCorpus();

  CampaignReport sequential = RunEngine(Engine::kSequential, false, 1);
  const std::string expected = SerializeReport(sequential);

  const int workers = 3;
  const Engine engine = Engine::kThreadPool;
  for (bool cached : {false, true}) {
    CampaignReport report = RunEngine(engine, cached, workers);
    // Scheduling- and cache-dependent accounting differs legitimately;
    // align it so the comparison covers findings, stage counts, and
    // detection order.
    report.wall_seconds = sequential.wall_seconds;
    report.cache_hits = sequential.cache_hits;
    report.cache_misses = sequential.cache_misses;
    report.equiv_hits = sequential.equiv_hits;
    report.canonicalized_plans = sequential.canonicalized_plans;
    report.mispredictions = sequential.mispredictions;
    report.cache_evictions = sequential.cache_evictions;
    report.run_durations_seconds = sequential.run_durations_seconds;
    const std::string actual = SerializeReport(report);
    if (actual != expected) {
      std::fprintf(stderr,
                   "FAIL: %s%s at %d workers is not bitwise-identical to "
                   "the sequential campaign\n",
                   EngineName(engine), cached ? "+cache" : "", workers);
      // Point at the first divergent line so the failure is debuggable
      // from CI logs alone.
      size_t offset = 0;
      while (offset < expected.size() && offset < actual.size() &&
             expected[offset] == actual[offset]) {
        ++offset;
      }
      size_t line_start = expected.rfind('\n', offset);
      line_start = line_start == std::string::npos ? 0 : line_start + 1;
      auto line_at = [line_start](const std::string& text) {
        size_t end = text.find('\n', line_start);
        return text.substr(line_start, end == std::string::npos
                                           ? std::string::npos
                                           : end - line_start);
      };
      std::fprintf(stderr, "  expected: %s\n  actual:   %s\n",
                   line_at(expected).c_str(), line_at(actual).c_str());
      return 1;
    }
    std::printf("identity: %s%s at %d workers OK\n", EngineName(engine),
                cached ? "+cache" : "", workers);
  }

  for (bool cached : {true, false}) {
    const double ceiling =
        cached ? kAllocsPerRunCeiling : kUncachedAllocsPerRunCeiling;
    CampaignSample sample =
        MeasureCampaign(Engine::kSequential, cached, 1, 1);
    std::printf("allocations: %.1f per logical run, sequential%s (ceiling %.1f)\n",
                sample.allocs_per_run, cached ? "+cache" : "", ceiling);
    if (sample.allocs_per_run > ceiling) {
      std::fprintf(stderr,
                   "FAIL: %.1f allocations per logical run (sequential%s) "
                   "exceeds the %.1f ceiling\n",
                   sample.allocs_per_run, cached ? "+cache" : "", ceiling);
      return 1;
    }
  }
  std::printf("hot-path CI gate passed\n");
  return 0;
}

}  // namespace
}  // namespace zebra

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci-gate") == 0) {
      return zebra::RunCiGate();
    }
  }
  zebra::PrintHotPath();
  return 0;
}
