#include "perfbench/src/oracle.h"

#include "src/core/report_io.h"
#include "src/testkit/ground_truth.h"

namespace perfbench {

using zebra::CampaignReport;

std::string ScoreAgainstGroundTruth(const CampaignReport& report,
                                    bool full_corpus) {
  if (!report.poisoned_units.empty()) {
    return "poisoned unit " + report.poisoned_units.front();
  }
  for (const auto& [param, finding] : report.findings) {
    if (zebra::ExpectedUnsafeParams().count(param) == 0 &&
        zebra::ProbabilisticUnsafeParams().count(param) == 0 &&
        zebra::KnownFalsePositiveSources().count(param) == 0) {
      return "unexplained finding " + param;
    }
  }
  if (full_corpus) {
    for (const auto& [param, why] : zebra::ExpectedUnsafeParams()) {
      if (report.findings.count(param) == 0) {
        return "missed seeded unsafe parameter " + param;
      }
    }
  }
  return "";
}

std::string IdentityText(CampaignReport report) {
  report.wall_seconds = 0.0;
  report.run_durations_seconds.clear();
  report.cache_hits = 0;
  report.cache_misses = 0;
  report.equiv_hits = 0;
  report.canonicalized_plans = 0;
  report.mispredictions = 0;
  report.cache_evictions = 0;
  report.hung_workers = 0;
  report.requeued_units = 0;
  report.resumed_units = 0;
  report.cache_load_failures = 0;
  report.journal_append_failures = 0;
  report.agent_disconnects = 0;
  report.expired_leases = 0;
  report.duplicate_results = 0;
  return zebra::SerializeReport(report);
}

std::string OracleSelfTest(const CampaignReport& passing) {
  if (!ScoreAgainstGroundTruth(passing, /*full_corpus=*/true).empty()) {
    return "self-test needs a passing report";
  }
  CampaignReport dropped = passing;
  dropped.findings.erase(zebra::ExpectedUnsafeParams().begin()->first);
  if (ScoreAgainstGroundTruth(dropped, true).empty()) {
    return "oracle accepted a report with a dropped finding";
  }
  CampaignReport invented = passing;
  invented.findings["perfbench.invented.param"].param = "perfbench.invented.param";
  if (ScoreAgainstGroundTruth(invented, true).empty()) {
    return "oracle accepted a report with an invented finding";
  }
  return "";
}

}  // namespace perfbench
