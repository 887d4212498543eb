// Regenerates Table 3 — the heterogeneous-unsafe configuration parameters
// found — by running the full ZebraConf pipeline over all six applications,
// then scoring the report against the seeded ground truth.
//
// The paper reports 57 parameters of which manual analysis confirmed 41 true
// problems; our seeded ground truth mirrors those 41 one-for-one, so the
// pipeline is expected to rediscover all of them plus the seeded
// false-positive sources.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/fleet_model.h"
#include "src/testkit/ground_truth.h"

namespace zebra {
namespace {

void PrintTable3() {
  CampaignReport report = RunFullCampaign();

  PrintHeader("Table 3 — Heterogeneous-unsafe configuration parameters found");
  std::printf("%-62s %s\n", "Parameter", "Why (ground truth / witness)");
  PrintRule();

  int true_positives = 0;
  int false_positives = 0;
  std::string current_app;
  for (const char* app : {"ministream", "appcommon", "minikv", "minidfs",
                          "minimr", "miniyarn"}) {
    bool printed_app = false;
    for (const auto& [param, finding] : report.findings) {
      if (finding.owning_app != app) {
        continue;
      }
      if (!printed_app) {
        std::printf("-- %s\n", PaperName(app).c_str());
        printed_app = true;
      }
      auto truth = ExpectedUnsafeParams().find(param);
      auto probabilistic = ProbabilisticUnsafeParams().find(param);
      if (truth != ExpectedUnsafeParams().end()) {
        ++true_positives;
        std::printf("%-62s %s\n", param.c_str(), truth->second.c_str());
      } else if (probabilistic != ProbabilisticUnsafeParams().end()) {
        std::printf("%-62s EXTENSION (probabilistic): %s\n", param.c_str(),
                    probabilistic->second.c_str());
      } else {
        ++false_positives;
        auto fp = KnownFalsePositiveSources().find(param);
        std::printf("%-62s FALSE POSITIVE: %s\n", param.c_str(),
                    fp != KnownFalsePositiveSources().end() ? fp->second.c_str()
                                                            : finding.example_failure.c_str());
      }
    }
  }
  PrintRule();

  int false_negatives = 0;
  for (const auto& [param, why] : ExpectedUnsafeParams()) {
    if (report.findings.count(param) == 0) {
      ++false_negatives;
      std::printf("MISSED (false negative): %-50s %s\n", param.c_str(), why.c_str());
    }
  }

  std::printf("\nSummary\n");
  std::printf("  reported parameters:          %zu   (paper: 57 reported)\n",
              report.findings.size());
  std::printf("  true heterogeneous-unsafe:    %d   (paper: 41 true problems)\n",
              true_positives);
  std::printf("  false positives:              %d   (paper: 16, from unrealistic\n"
              "                                     settings / shared objects /\n"
              "                                     overly strict assertions)\n",
              false_positives);
  std::printf("  false negatives:              %d   (seeded-unsafe parameters the\n"
              "                                     pipeline failed to rediscover)\n",
              false_negatives);
  // Logical runs count every trial the verdicts rest on; the verifier
  // executes only those whose outcome it does not already hold.
  std::printf("  unit-test runs:               %s logical, %s executed\n",
              WithCommas(report.total_unit_test_runs).c_str(),
              WithCommas(static_cast<int64_t>(report.run_durations_seconds.size()))
                  .c_str());
  std::printf("  wall-clock time:              %.2f s (single machine, sequential)\n",
              report.wall_seconds);

  // Fleet cost model: what this campaign would cost on the paper's testbed
  // (up to 100 machines x 20 Docker containers; paper: 4,652 machine-hours).
  FleetEstimate fleet = EstimateFleet(report.run_durations_seconds, 100, 20);
  std::printf("  fleet model (100 x 20 slots): makespan %.4f s, %.2f machine-seconds,\n"
              "                                utilization %.1f%% — the instances are\n"
              "                                embarrassingly parallel, as in the paper\n\n",
              fleet.makespan_seconds, fleet.machine_seconds,
              100.0 * fleet.utilization);

  std::printf("Witness examples (one per category):\n");
  int shown = 0;
  for (const auto& [param, finding] : report.findings) {
    if (shown >= 6) {
      break;
    }
    std::printf("  %s\n      test: %s\n      failure: %.120s\n", param.c_str(),
                finding.witness_tests.begin()->c_str(),
                finding.example_failure.c_str());
    ++shown;
  }
  std::printf("\n");
}

void BM_FullCampaign(benchmark::State& state) {
  for (auto _ : state) {
    CampaignReport report = RunFullCampaign();
    benchmark::DoNotOptimize(report.findings.size());
    state.counters["unit_test_runs"] =
        static_cast<double>(report.total_unit_test_runs);
    state.counters["findings"] = static_cast<double>(report.findings.size());
  }
}
BENCHMARK(BM_FullCampaign)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace zebra

int main(int argc, char** argv) {
  zebra::PrintTable3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
