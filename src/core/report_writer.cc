#include "src/core/report_writer.h"

#include <cstdio>
#include <sstream>

#include "src/common/strings.h"
#include "src/core/fleet_model.h"
#include "src/testkit/ground_truth.h"

namespace zebra {

namespace {

std::string Scientific(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2e", value);
  return buffer;
}

const char* Classify(const std::string& param) {
  if (ExpectedUnsafeParams().count(param) > 0) {
    return "true-unsafe";
  }
  if (ProbabilisticUnsafeParams().count(param) > 0) {
    return "true-unsafe (probabilistic)";
  }
  if (KnownFalsePositiveSources().count(param) > 0) {
    return "false-positive source";
  }
  return "unclassified";
}

}  // namespace

std::string RenderMarkdownReport(const CampaignReport& report,
                                 const ReportWriterOptions& options) {
  std::ostringstream out;
  out << "# ZebraConf campaign report\n\n";

  out << "## Test-instance stages\n\n";
  out << "| application | original | after pre-run | after uncertainty | executed "
         "runs |\n";
  out << "|---|---|---|---|---|\n";
  for (const auto& [app, counts] : report.per_app) {
    out << "| " << app << " | " << counts.original << " | " << counts.after_prerun
        << " | " << counts.after_uncertainty << " | " << counts.executed_runs
        << " |\n";
  }
  out << "| **total** | " << report.TotalOriginal() << " | "
      << report.TotalAfterPrerun() << " | " << report.TotalAfterUncertainty()
      << " | " << report.TotalExecuted() << " |\n\n";

  out << "## Heterogeneous-unsafe parameters (" << report.findings.size() << ")\n\n";
  for (const auto& [param, finding] : report.findings) {
    out << "### `" << param << "`\n\n";
    out << "* owning application: " << finding.owning_app << "\n";
    out << "* best p-value: " << Scientific(finding.best_p_value) << "\n";
    if (options.annotate_ground_truth) {
      out << "* ground truth: " << Classify(param) << "\n";
    }
    out << "* witness tests:";
    for (const std::string& test : finding.witness_tests) {
      out << " `" << test << "`";
    }
    out << "\n* example failure: " << finding.example_failure << "\n\n";
  }

  out << "## Nondeterminism filtering\n\n";
  out << "* first-trial candidates: " << report.first_trial_candidates << "\n";
  out << "* filtered by hypothesis testing: " << report.filtered_by_hypothesis
      << "\n\n";

  out << "## Cost\n\n";
  out << "* unit-test executions: " << report.total_unit_test_runs << "\n";
  out << "* sequential wall-clock: " << report.wall_seconds << " s\n";
  if (report.runs_to_first_detection > 0) {
    out << "* runs to first detection: " << report.runs_to_first_detection
        << " (`" << report.first_detection_param << "`)\n";
  }
  if (report.cache_hits > 0 || report.cache_misses > 0) {
    double hit_rate = 100.0 * static_cast<double>(report.cache_hits) /
                      static_cast<double>(report.cache_hits + report.cache_misses);
    out << "* run cache: " << report.cache_hits << " hits / "
        << report.cache_misses << " misses ("
        << static_cast<int>(hit_rate) << "% hit rate)\n";
  }
  if (report.equiv_hits > 0 || report.mispredictions > 0) {
    out << "* observational equivalence: " << report.equiv_hits
        << " cross-plan hits, " << report.mispredictions
        << " mispredictions (fell back to execution)\n";
  }
  if (report.cache_evictions > 0) {
    out << "* run-cache evictions (LRU budget): " << report.cache_evictions << "\n";
  }
  if (report.hung_workers > 0 || report.requeued_units > 0 ||
      report.resumed_units > 0) {
    out << "* fault tolerance: " << report.hung_workers
        << " workers SIGKILLed by watchdog, " << report.requeued_units
        << " units re-queued after worker failure, " << report.resumed_units
        << " units replayed from journal\n";
  }
  if (report.agent_disconnects > 0 || report.expired_leases > 0 ||
      report.duplicate_results > 0) {
    out << "* distributed fabric: " << report.agent_disconnects
        << " agents retired, " << report.expired_leases
        << " leases expired and re-queued, " << report.duplicate_results
        << " duplicate results dropped idempotently\n";
  }
  if (report.cache_load_failures > 0) {
    out << "* run-cache load failures (corrupt file, started cold): "
        << report.cache_load_failures << "\n";
  }
  if (report.journal_append_failures > 0) {
    out << "* journal append failures (journaling disabled mid-campaign; "
           "resume coverage ends at the last synced record): "
        << report.journal_append_failures << "\n";
  }
  if (!report.poisoned_units.empty()) {
    out << "* poisoned units (hit the attempt limit; contributed no runs): "
        << StrJoin(report.poisoned_units, ", ") << "\n";
  }
  if (options.fleet_machines > 0 && options.fleet_containers > 0 &&
      !report.run_durations_seconds.empty()) {
    FleetEstimate fleet = EstimateFleet(report.run_durations_seconds,
                                        options.fleet_machines,
                                        options.fleet_containers);
    out << "* fleet (" << fleet.machines << " x " << fleet.containers_per_machine
        << " slots): makespan " << fleet.makespan_seconds << " s, "
        << fleet.machine_seconds << " machine-seconds, utilization "
        << static_cast<int>(100.0 * fleet.utilization) << "%\n";
  }
  return out.str();
}

}  // namespace zebra
