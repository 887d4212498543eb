// "Test in parallel" (§4): test instances are independent, so the paper runs
// them across 100 machines x 20 containers. This bench compares the two
// parallel transports over the shared FoldCoordinator on the full campaign:
//
//   threadpool — in-process worker threads (thread_pool_scheduler.h) pulling
//               (app, unit-test) units dynamically, capped by the largest
//               unit; results travel by pointer, not by pipe,
//   threadpool+cache — same, with one shared internally synchronized run
//               cache across all workers serving repeated bisection probes
//               and homogeneous controls without executing.
//   distributed(+cache) — the TCP campaign fabric (distributed_campaign.h):
//               N forked agent processes x 1 thread each over the framed
//               wire protocol (v2: pipelined leases, batched dispatch/result
//               frames, snapshot deltas). The delta against threadpool at
//               the same worker count is the whole fabric tax; divided by
//               the v1-equivalent frame count (2 x folded units — kept as
//               the denominator across PRs so the per-frame series stays
//               comparable) it is emitted as the per-frame fabric overhead,
//               and divided into the folded unit count it is emitted as
//               distributed_units_per_sec.
//
// Two cost regimes are measured:
//
//   native     — runs cost microseconds of pure CPU. At this scale the
//                fabric's fork/TCP overhead is visible next to the thread
//                pool's zero transport cost. True CPU parallelism
//                requires real cores — `hardware_cores` is emitted alongside
//                the numbers, and the CI gate scales its expectation by it
//                (a single-core box cannot speed up CPU-bound work, no
//                matter the scheduler).
//   paper-cost — each real execution carries the configured synthetic harness
//                latency (SetSyntheticRunLatencyUs), restoring the paper's
//                cost shape where runs are wait-dominated, seconds-long
//                JUnit invocations. Workers overlap waits even on one CPU —
//                exactly how the paper's containers overlap I/O-bound runs —
//                so this regime shows scheduling quality on any hardware.
//
// Every row yields bitwise-identical findings (enforced by
// tests/thread_pool_scheduler_test.cc and tests/distributed_campaign_test.cc);
// only wall-clock differs. Results are printed and emitted machine-readable
// to BENCH_parallel.json.
//
// `--ci-gate` runs a fast subset and exits nonzero unless (a) the thread
// pool's findings serialize bitwise-identically to sequential and (b) its
// native-regime speedup clears min(4.0, 0.75*cores) (0.5 on one core). The
// speedup leg runs at clamp(cores, 2, 6) workers: oversubscribing CPU-bound threads
// measures the kernel scheduler plus speculation re-runs, not the engine, so
// the gate matches thread count to the hardware — 4x at 6 workers on the
// ≥6-core hardware the engine targets, degrading to a "within 2x of
// sequential" sanity bound on a single-core box, where the pool pays
// speculation re-runs with no parallelism to recoup them.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim between timed runs
#endif

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/distributed_campaign.h"
#include "src/core/fleet_model.h"
#include "src/core/report_io.h"
#include "src/core/thread_pool_scheduler.h"
#include "src/testkit/test_execution.h"

namespace zebra {
namespace {

constexpr int64_t kPaperCostLatencyUs = 500;

enum class Mode {
  kSequential,
  kThreadPool,
  kThreadPoolCache,
  kDistributed,
  kDistributedCache,
};

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kSequential:
      return "sequential";
    case Mode::kThreadPool:
      return "threadpool";
    case Mode::kThreadPoolCache:
      return "threadpool+cache";
    case Mode::kDistributed:
      return "distributed";
    case Mode::kDistributedCache:
      return "distributed+cache";
  }
  return "?";
}

int HardwareCores() {
  unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : static_cast<int>(cores);
}

// The native-regime speedup the thread pool must clear: the 4x design
// target on the ≥6-core hardware the engine is built for, scaling down with
// the core count. On a single core no scheduler can make CPU-bound work
// parallel and speculative dispatch still pays its re-runs, so the floor
// bottoms out at a "within 2x of sequential" sanity bound there.
double CoreScaledSpeedupFloor(int cores) {
  if (cores <= 1) {
    return 0.5;
  }
  return std::min(4.0, 0.75 * cores);
}

double TimeRun(Mode mode, int workers, CampaignReport* out) {
  CampaignOptions options;  // all apps
  options.enable_run_cache =
      mode == Mode::kThreadPoolCache || mode == Mode::kDistributedCache;
  auto start = std::chrono::steady_clock::now();
  CampaignReport report;
  switch (mode) {
    case Mode::kSequential: {
      Campaign campaign(FullSchema(), FullCorpus(), options);
      report = campaign.Run();
      break;
    }
    case Mode::kThreadPool:
    case Mode::kThreadPoolCache:
      report =
          RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, workers);
      break;
    case Mode::kDistributed:
    case Mode::kDistributedCache: {
      // agents = workers, one thread each: same concurrency as the other
      // rows, so the delta is pure fabric cost (fork + TCP framing + leases).
      DistributedCampaignOptions fabric;
      fabric.agents = workers;
      fabric.agent_threads = 1;
      report = RunDistributedCampaign(FullSchema(), FullCorpus(), options,
                                      fabric);
      break;
    }
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (out != nullptr) {
    *out = std::move(report);
  }
  return seconds;
}

// Best-of-N wall-clock: fork jitter at this miniature scale is comparable to
// the work itself, so the minimum is the honest capacity number.
double BestOf(int repetitions, Mode mode, int workers, CampaignReport* out) {
  double best = 0;
  for (int i = 0; i < repetitions; ++i) {
#if defined(__GLIBC__)
    // Release freed heap pages before each timed run. By the fabric rows
    // this process has run dozens of campaigns; without the trim every
    // forked agent pays a copy-on-write fault for each reused dirty page —
    // a tax levied by the bench harness's own allocation history, not by
    // the engine under measurement.
    ::malloc_trim(0);
#endif
    double seconds = TimeRun(mode, workers, i == 0 ? out : nullptr);
    if (i == 0 || seconds < best) {
      best = seconds;
    }
  }
  return best;
}

struct Row {
  const char* regime;
  Mode mode;
  int workers;
  double seconds;
  double speedup_vs_sequential;
  size_t findings;
  int64_t cache_hits;
  int64_t cache_misses;
};

// One regime (native or paper-cost): sequential baseline plus every strategy
// across worker counts. Records each strategy's six-worker wall-clock in
// `at_6` for the headline comparisons.
void RunRegime(const char* regime, int repetitions, std::vector<Row>* rows,
               std::map<Mode, double>* at_6, double* sequential_out) {
  CampaignReport sequential_report;
  double sequential_seconds =
      BestOf(repetitions, Mode::kSequential, 1, &sequential_report);
  *sequential_out = sequential_seconds;
  rows->push_back(Row{regime, Mode::kSequential, 1, sequential_seconds, 1.0,
                      sequential_report.findings.size(), 0, 0});
  std::printf("%s regime — sequential baseline: %.3f s, %zu findings\n\n",
              regime, sequential_seconds, sequential_report.findings.size());

  std::printf("%16s %8s %12s %9s %9s %12s\n", "mode", "workers", "wall-clock",
              "speedup", "findings", "cache h/m");
  PrintRule('-', 72);
  for (Mode mode : {Mode::kThreadPool, Mode::kThreadPoolCache,
                    Mode::kDistributed, Mode::kDistributedCache}) {
    for (int workers : {1, 2, 3, 6}) {
      CampaignReport report;
      double seconds = BestOf(repetitions, mode, workers, &report);
      double speedup = seconds > 0 ? sequential_seconds / seconds : 0.0;
      rows->push_back(Row{regime, mode, workers, seconds, speedup,
                          report.findings.size(), report.cache_hits,
                          report.cache_misses});
      char cache[32] = "-";
      if (report.cache_hits + report.cache_misses > 0) {
        std::snprintf(cache, sizeof(cache), "%lld/%lld",
                      static_cast<long long>(report.cache_hits),
                      static_cast<long long>(report.cache_misses));
      }
      std::printf("%16s %8d %10.3f s %8.2fx %9zu %12s\n", ModeName(mode),
                  workers, seconds, speedup, report.findings.size(), cache);
      if (workers == 6) {
        (*at_6)[mode] = seconds;
      }
    }
    PrintRule('-', 72);
  }
  std::printf("\n");
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

void WriteJson(const std::vector<Row>& rows,
               const std::map<Mode, double>& native_at_6,
               const std::map<Mode, double>& paper_at_6,
               double native_sequential, double paper_sequential,
               int64_t fabric_frames) {
  const int cores = HardwareCores();
  WriteBenchJson("BENCH_parallel.json", [&](JsonWriter& json) {
    json.Field("paper_cost_latency_us", kPaperCostLatencyUs);
    // True thread parallelism needs real cores; readers of the native-regime
    // numbers must interpret them against this, and the CI gate does.
    json.Field("hardware_cores", cores);
    json.Field("ci_gate_workers", std::clamp(cores, 2, 6));
    json.Field("native_threadpool_speedup_floor",
               CoreScaledSpeedupFloor(cores));
    json.Field("native_threadpool_speedup_at_6_workers",
               Ratio(native_sequential, native_at_6.at(Mode::kThreadPool)));
    json.Field("paper_cost_threadpool_speedup_at_6_workers",
               Ratio(paper_sequential, paper_at_6.at(Mode::kThreadPool)));
    json.Field(
        "paper_cost_threadpool_cache_speedup_at_6_workers",
        Ratio(paper_sequential, paper_at_6.at(Mode::kThreadPoolCache)));
    json.Field("paper_cost_distributed_speedup_at_6_agents",
               Ratio(paper_sequential, paper_at_6.at(Mode::kDistributed)));
    json.Field(
        "paper_cost_distributed_cache_speedup_at_6_agents",
        Ratio(paper_sequential, paper_at_6.at(Mode::kDistributedCache)));
    // Fabric tax per wire frame: the native-regime delta against the thread
    // pool at the same concurrency (same dispatch, zero transport cost),
    // spread over the 2-frames-per-folded-unit cost of the v1 protocol. The
    // v2 data plane batches many units per frame, so far fewer frames
    // actually cross the wire — the v1 denominator is kept deliberately so
    // the series stays comparable across PRs (it normalizes the whole
    // fabric tax, fork/exit and lease bookkeeping included, per unit of
    // useful work rather than per literal frame).
    json.Field("native_fabric_frames", fabric_frames);
    json.Field(
        "native_fabric_per_frame_overhead_us",
        fabric_frames > 0
            ? 1e6 *
                  (native_at_6.at(Mode::kDistributed) -
                   native_at_6.at(Mode::kThreadPool)) /
                  static_cast<double>(fabric_frames)
            : 0.0);
    // Absolute fabric throughput: folded units per second of native-regime
    // wall clock at 6 agents. Unlike the per-frame delta this includes the
    // work itself, so it is the number to watch when the question is "how
    // fast does the fleet drain a campaign", not "what does the wire cost".
    json.Field("distributed_units_per_sec",
               Ratio(static_cast<double>(fabric_frames) / 2.0,
                     native_at_6.at(Mode::kDistributed)));
    json.BeginArray("rows");
    for (const Row& row : rows) {
      json.BeginObject();
      json.Field("regime", row.regime);
      json.Field("mode", ModeName(row.mode));
      json.Field("workers", row.workers);
      json.Field("seconds", row.seconds, 6);
      json.Field("speedup_vs_sequential", row.speedup_vs_sequential);
      json.Field("findings", static_cast<uint64_t>(row.findings));
      json.Field("cache_hits", row.cache_hits);
      json.Field("cache_misses", row.cache_misses);
      json.EndObject();
    }
    json.EndArray();
  });
}

void PrintScaling() {
  PrintHeader(
      "§4 — Test in parallel: thread pool vs distributed fabric");

  std::vector<Row> rows;
  std::map<Mode, double> native_at_6;
  double native_sequential = 0;
  // Five repetitions in the native regime: the headline fabric metric is a
  // *difference* of two best-of-N minima, so its noise is the sum of both
  // arms' sampling error — three samples per arm was visibly not enough on
  // a busy single-core box.
  RunRegime("native", /*repetitions=*/5, &rows, &native_at_6,
            &native_sequential);

  SetSyntheticRunLatencyUs(kPaperCostLatencyUs);
  std::map<Mode, double> paper_at_6;
  double paper_sequential = 0;
  RunRegime("paper-cost", /*repetitions=*/2, &rows, &paper_at_6,
            &paper_sequential);
  SetSyntheticRunLatencyUs(0);

  const int cores = HardwareCores();
  std::printf(
      "paper-cost regime at 6 workers, vs sequential:\n"
      "  thread pool:              %.2fx\n"
      "  thread pool + cache:      %.2fx   <- the full in-process engine\n"
      "  distributed fabric:       %.2fx\n"
      "  distributed + cache:      %.2fx\n"
      "Dynamic dispatch is bounded by the largest single (app, unit-test)\n"
      "unit. Exactness costs re-runs: frequent-failure threshold crossings\n"
      "spread across the whole canonical order, so speculatively dispatched\n"
      "units re-run to match the sequential globally-unsafe set bit-for-bit;\n"
      "the run cache recoups exactly that duplicated work. In the native\n"
      "regime thread parallelism is bounded by physical cores (this box:\n"
      "%d). Findings are bitwise-identical in every row\n"
      "(tests/thread_pool_scheduler_test.cc,\n"
      "tests/distributed_campaign_test.cc).\n\n",
      Ratio(paper_sequential, paper_at_6[Mode::kThreadPool]),
      Ratio(paper_sequential, paper_at_6[Mode::kThreadPoolCache]),
      Ratio(paper_sequential, paper_at_6[Mode::kDistributed]),
      Ratio(paper_sequential, paper_at_6[Mode::kDistributedCache]), cores);

  CampaignReport sequential_report;
  TimeRun(Mode::kSequential, 1, &sequential_report);

  // v1 charged every folded unit one kDispatch and one kResult frame; v2
  // batches both directions, but the 2x denominator is kept so the
  // per-frame overhead series stays comparable across PRs.
  int64_t fabric_units = 0;
  for (const auto& [app, counts] : sequential_report.per_app) {
    fabric_units += counts.tests_total;
  }
  const int64_t fabric_frames = 2 * fabric_units;
  std::printf(
      "Fabric overhead: distributed vs threadpool at 6 workers (native) is\n"
      "%.3f s across %lld v1-equivalent dispatch/result frames — %.1f us per\n"
      "frame (v2 batches units per frame; the v1 denominator normalizes the\n"
      "whole fabric tax per unit of useful work), %.1f units/s end to end.\n\n",
      native_at_6[Mode::kDistributed] - native_at_6[Mode::kThreadPool],
      static_cast<long long>(fabric_frames),
      fabric_frames > 0 ? 1e6 *
                              (native_at_6[Mode::kDistributed] -
                               native_at_6[Mode::kThreadPool]) /
                              static_cast<double>(fabric_frames)
                        : 0.0,
      Ratio(static_cast<double>(fabric_units),
            native_at_6[Mode::kDistributed]));

  FleetEstimate fleet =
      EstimateFleet(sequential_report.run_durations_seconds, 100, 20);
  std::printf(
      "Fleet extrapolation: the paper's workload is ~10^8x larger with the\n"
      "same structure; the per-run fleet model puts our %s measured runs\n"
      "(%.3f CPU-seconds) at a %.4f s makespan on the paper's 100x20 fleet.\n\n",
      WithCommas(fleet.runs).c_str(), fleet.total_cpu_seconds,
      fleet.makespan_seconds);

  WriteJson(rows, native_at_6, paper_at_6, native_sequential,
            paper_sequential, fabric_frames);
}

// Fast CI gate (no google-benchmark pass, no JSON): bitwise identity between
// sequential and the thread pool at several thread counts, plus the
// core-scaled native-regime speedup floor at 6 workers. Exits nonzero on the
// first violation so the determinism contract breaks the build, not just a
// dashboard.
int RunCiGate() {
  PrintHeader("thread-pool CI gate: bitwise identity + core-scaled speedup");
  CampaignReport sequential;
  double sequential_seconds = BestOf(3, Mode::kSequential, 1, &sequential);
  const std::string expected = SerializeReport(sequential);

  for (int workers : {2, 6}) {
    for (Mode mode : {Mode::kThreadPool, Mode::kThreadPoolCache}) {
      CampaignReport report;
      BestOf(1, mode, workers, &report);
      // Scheduling-dependent accounting differs legitimately; zero it out so
      // the comparison covers findings, stage counts, and detection order.
      report.wall_seconds = sequential.wall_seconds;
      report.cache_hits = sequential.cache_hits;
      report.cache_misses = sequential.cache_misses;
      report.cache_evictions = sequential.cache_evictions;
      report.run_durations_seconds = sequential.run_durations_seconds;
      if (SerializeReport(report) != expected) {
        std::fprintf(stderr,
                     "FAIL: %s at %d workers is not bitwise-identical to the "
                     "sequential campaign\n",
                     ModeName(mode), workers);
        return 1;
      }
      std::printf("identity: %s at %d workers OK\n", ModeName(mode), workers);
    }
  }

  // More threads than cores measures timeslicing plus speculation re-runs,
  // not the engine: match the gate's thread count to the hardware.
  const int cores = HardwareCores();
  const int gate_workers = std::clamp(cores, 2, 6);
  const double floor = CoreScaledSpeedupFloor(cores);
  double pool_seconds = BestOf(3, Mode::kThreadPool, gate_workers, nullptr);
  double speedup = Ratio(sequential_seconds, pool_seconds);
  std::printf(
      "native speedup at %d workers: %.2fx (floor %.2fx on %d cores)\n",
      gate_workers, speedup, floor, cores);
  if (speedup < floor) {
    std::fprintf(stderr,
                 "FAIL: native thread-pool speedup %.2fx at %d workers below "
                 "the core-scaled floor %.2fx\n",
                 speedup, gate_workers, floor);
    return 1;
  }
  std::printf("thread-pool CI gate passed\n");
  return 0;
}

void BM_ThreadPoolCampaign(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    CampaignOptions options;
    CampaignReport report =
        RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, workers);
    benchmark::DoNotOptimize(report.findings.size());
  }
}
BENCHMARK(BM_ThreadPoolCampaign)
    ->Arg(1)
    ->Arg(3)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_ThreadPoolCampaignCached(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    CampaignOptions options;
    options.enable_run_cache = true;
    CampaignReport report =
        RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, workers);
    benchmark::DoNotOptimize(report.findings.size());
  }
}
BENCHMARK(BM_ThreadPoolCampaignCached)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace zebra

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci-gate") == 0) {
      return zebra::RunCiGate();
    }
  }
  zebra::PrintScaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
