// Observational-equivalence run deduplication (plan_equiv.h + run_cache.h),
// measured on top of the 6-thread pool with its shared run cache.
//
// Two campaign regimes are compared, both in the paper-cost regime
// (SetSyntheticRunLatencyUs: every real execution carries the wait-dominated
// harness latency of a JUnit invocation, so removed executions translate
// into wall-clock):
//
//   pruned    — the default pipeline: the generator already drops (param,
//               entity) targets the pre-run proved unread, so almost every
//               surviving plan is observationally distinct. The equivalence
//               layer can only collapse the residue (homogeneous baselines,
//               early-failing bisection probes) — the honest small number.
//   unpruned  — generation without pre-run read pruning
//               (CampaignOptions.prune_unread_instances = false): the
//               paper's premise regime, where a user without pre-run
//               knowledge targets every started node group for every
//               parameter. Most generated plans differ only in override
//               entries no targeted conf ever reads; the equivalence cache
//               recovers the pruning dynamically, collapsing them onto the
//               homogeneous baseline or onto each other. This is where the
//               layer must pay: >= 25% fewer executed runs than the exact
//               cache alone.
//
// Findings are asserted identical between the exact-cache and equiv-cache
// arms of each regime (the cache layers never change results — the CI
// determinism gate proves the same bitwise). Results are printed and emitted
// machine-readable to BENCH_equiv.json through the shared deterministic
// writer in bench_common.h.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/thread_pool_scheduler.h"
#include "src/testkit/test_execution.h"

namespace zebra {
namespace {

constexpr int kWorkers = 6;
constexpr int kRepetitions = 3;
// Deeper than bench_parallel_scaling's 500us: that bench stresses the
// scheduler, this one measures run dedup, whose value is precisely the
// regime where per-run cost dominates (the paper's JUnit invocations take
// seconds to minutes — 5ms is still conservative by three orders of
// magnitude, while keeping the bench under a minute).
constexpr int64_t kPaperCostLatencyUs = 5000;

struct Arm {
  const char* regime;       // "pruned" | "unpruned"
  bool equiv;               // exact cache only vs + equivalence layer
  double seconds = 0;       // best-of-N wall-clock
  int64_t executed = 0;     // real executions = total runs - all cache serves
  int64_t cache_hits = 0;
  int64_t equiv_hits = 0;
  int64_t mispredictions = 0;
  size_t findings = 0;
};

CampaignReport RunArm(bool prune, bool equiv, double* best_seconds) {
  CampaignOptions options;  // all apps
  options.prune_unread_instances = prune;
  options.enable_run_cache = true;
  options.enable_equiv_cache = equiv;
  CampaignReport report;
  for (int i = 0; i < kRepetitions; ++i) {
    auto start = std::chrono::steady_clock::now();
    CampaignReport run =
        RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, kWorkers);
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (i == 0 || seconds < *best_seconds) {
      *best_seconds = seconds;
    }
    if (i == 0) {
      report = std::move(run);
    }
  }
  return report;
}

bool SameFindings(const CampaignReport& a, const CampaignReport& b) {
  if (a.findings.size() != b.findings.size()) {
    return false;
  }
  for (const auto& [param, finding] : a.findings) {
    auto it = b.findings.find(param);
    if (it == b.findings.end() ||
        it->second.witness_tests != finding.witness_tests) {
      return false;
    }
  }
  return true;
}

void RunComparison() {
  PrintHeader(
      "Observational-equivalence dedup on 6-thread pool+cache "
      "(paper-cost regime)");
  SetSyntheticRunLatencyUs(kPaperCostLatencyUs);

  std::vector<Arm> arms;
  bool findings_identical = true;
  double unpruned_reduction_pct = 0;
  double unpruned_speedup = 0;

  for (bool prune : {true, false}) {
    const char* regime = prune ? "pruned" : "unpruned";
    CampaignReport reports[2];
    for (bool equiv : {false, true}) {
      Arm arm;
      arm.regime = regime;
      arm.equiv = equiv;
      CampaignReport report = RunArm(prune, equiv, &arm.seconds);
      arm.executed =
          report.total_unit_test_runs - report.cache_hits - report.equiv_hits;
      arm.cache_hits = report.cache_hits;
      arm.equiv_hits = report.equiv_hits;
      arm.mispredictions = report.mispredictions;
      arm.findings = report.findings.size();
      reports[equiv ? 1 : 0] = std::move(report);
      arms.push_back(arm);
    }
    findings_identical &= SameFindings(reports[0], reports[1]);

    const Arm& exact = arms[arms.size() - 2];
    const Arm& equiv = arms[arms.size() - 1];
    double reduction =
        exact.executed > 0
            ? 100.0 * static_cast<double>(exact.executed - equiv.executed) /
                  static_cast<double>(exact.executed)
            : 0.0;
    double speedup = equiv.seconds > 0 ? exact.seconds / equiv.seconds : 0.0;
    if (!prune) {
      unpruned_reduction_pct = reduction;
      unpruned_speedup = speedup;
    }

    std::printf("\n%s generation regime:\n", regime);
    std::printf("%18s %10s %10s %10s %12s %10s\n", "arm", "executed",
                "exact-h", "equiv-h", "mispredict", "wall");
    PrintRule('-', 76);
    for (const Arm* arm : {&exact, &equiv}) {
      std::printf("%18s %10s %10s %10s %12s %8.3f s\n",
                  arm->equiv ? "threadpool+equiv" : "threadpool+cache",
                  WithCommas(arm->executed).c_str(),
                  WithCommas(arm->cache_hits).c_str(),
                  WithCommas(arm->equiv_hits).c_str(),
                  WithCommas(arm->mispredictions).c_str(), arm->seconds);
    }
    std::printf(
        "  -> %.1f%% fewer executed runs, %.2fx wall-clock, findings %s\n",
        reduction, speedup,
        SameFindings(reports[0], reports[1]) ? "identical" : "DIFFER");
  }
  SetSyntheticRunLatencyUs(0);

  std::printf(
      "\nheadline: unpruned regime collapses %.1f%% of executions the exact "
      "cache\nmust run (acceptance floor: 25%%), findings %s across all "
      "arms.\n",
      unpruned_reduction_pct, findings_identical ? "identical" : "DIFFER");

  WriteBenchJson("BENCH_equiv.json", [&](JsonWriter& json) {
    json.Field("workers", kWorkers);
    json.Field("paper_cost_latency_us", kPaperCostLatencyUs);
    json.Field("unpruned_executed_run_reduction_pct", unpruned_reduction_pct,
               1);
    json.Field("unpruned_wall_clock_speedup", unpruned_speedup, 2);
    json.Field("findings_identical", findings_identical);
    json.BeginArray("arms");
    for (const Arm& arm : arms) {
      json.BeginObject();
      json.Field("regime", arm.regime);
      json.Field("mode", arm.equiv ? "threadpool+equiv" : "threadpool+cache");
      json.Field("executed_runs", arm.executed);
      json.Field("cache_hits", arm.cache_hits);
      json.Field("equiv_hits", arm.equiv_hits);
      json.Field("mispredictions", arm.mispredictions);
      json.Field("findings", static_cast<uint64_t>(arm.findings));
      json.Field("seconds", arm.seconds, 6);
      json.EndObject();
    }
    json.EndArray();
  });
}

// Microbenchmark: one sequential equiv-cache campaign over the smallest app,
// native cost — tracks the overhead of trace prediction + restriction
// matching when there is almost nothing to collapse (the worst case for the
// layer).
void BM_EquivCacheCampaign(benchmark::State& state) {
  for (auto _ : state) {
    CampaignOptions options;
    options.apps = {"apptools"};
    options.enable_equiv_cache = true;
    Campaign campaign(FullSchema(), FullCorpus(), options);
    CampaignReport report = campaign.Run();
    benchmark::DoNotOptimize(report.findings.size());
  }
}
BENCHMARK(BM_EquivCacheCampaign)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace zebra

int main(int argc, char** argv) {
  zebra::RunComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
