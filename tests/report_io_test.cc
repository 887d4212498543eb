// Tests for report serialization.

#include "src/core/report_io.h"

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/common/strings.h"
#include "src/conf/conf_file.h"

namespace zebra {
namespace {

CampaignReport SampleReport(const std::string& app) {
  CampaignReport report;
  AppStageCounts counts;
  counts.original = 5000;
  counts.after_prerun = 400;
  counts.after_uncertainty = 390;
  counts.executed_runs = 120;
  counts.tests_total = 9;
  counts.tests_with_nodes = 7;
  report.per_app[app] = counts;

  ParamFinding finding;
  finding.param = app + ".some.param";
  finding.owning_app = app;
  finding.best_p_value = 5.4e-5;
  finding.witness_tests = {app + ".TestA", app + ".TestB"};
  finding.example_failure = "line one\nline two = with equals";
  report.findings[finding.param] = finding;

  report.first_trial_candidates = 7;
  report.filtered_by_hypothesis = 2;
  report.total_unit_test_runs = 121;
  report.wall_seconds = 0.25;
  report.run_durations_seconds.assign(121, 0.002);
  return report;
}

TEST(ReportIoTest, RoundTripPreservesEverything) {
  CampaignReport original = SampleReport("minikv");
  CampaignReport restored = DeserializeReport(SerializeReport(original));

  const AppStageCounts& counts = restored.per_app.at("minikv");
  EXPECT_EQ(counts.original, 5000);
  EXPECT_EQ(counts.after_prerun, 400);
  EXPECT_EQ(counts.after_uncertainty, 390);
  EXPECT_EQ(counts.executed_runs, 120);
  EXPECT_EQ(counts.tests_total, 9);
  EXPECT_EQ(counts.tests_with_nodes, 7);

  const ParamFinding& finding = restored.findings.at("minikv.some.param");
  EXPECT_EQ(finding.owning_app, "minikv");
  EXPECT_NEAR(finding.best_p_value, 5.4e-5, 1e-9);
  EXPECT_EQ(finding.witness_tests.size(), 2u);
  EXPECT_EQ(finding.example_failure, "line one\nline two = with equals")
      << "newlines and equals signs survive escaping";

  EXPECT_EQ(restored.first_trial_candidates, 7);
  EXPECT_EQ(restored.filtered_by_hypothesis, 2);
  EXPECT_EQ(restored.total_unit_test_runs, 121);
  EXPECT_EQ(restored.run_durations_seconds.size(), 121u);
}

TEST(ReportIoTest, EmptyReportRoundTrips) {
  CampaignReport restored = DeserializeReport(SerializeReport(CampaignReport{}));
  EXPECT_TRUE(restored.per_app.empty());
  EXPECT_TRUE(restored.findings.empty());
  EXPECT_EQ(restored.total_unit_test_runs, 0);
}

TEST(ReportIoTest, MalformedTextRejected) {
  EXPECT_THROW(DeserializeReport("apps = minikv\n"), Error)
      << "announced app without its counts";
  EXPECT_THROW(DeserializeReport("not properties at all"), Error);
}

TEST(ReportIoTest, RoundTripPreservesSharingCacheAndDetectionStats) {
  CampaignReport original = SampleReport("minikv");
  original.per_app.at("minikv").after_static = 4200;
  SharingStats sharing;
  sharing.tests_with_conf_usage = 8;
  sharing.tests_with_sharing = 3;
  original.sharing["minikv"] = sharing;
  original.cache_hits = 17;
  original.cache_misses = 104;
  original.runs_to_first_detection = 33;
  original.first_detection_param = "minikv.some.param";

  CampaignReport restored = DeserializeReport(SerializeReport(original));
  EXPECT_EQ(restored.per_app.at("minikv").after_static, 4200);
  EXPECT_EQ(restored.sharing.at("minikv").tests_with_conf_usage, 8);
  EXPECT_EQ(restored.sharing.at("minikv").tests_with_sharing, 3);
  EXPECT_EQ(restored.cache_hits, 17);
  EXPECT_EQ(restored.cache_misses, 104);
  EXPECT_EQ(restored.runs_to_first_detection, 33);
  EXPECT_EQ(restored.first_detection_param, "minikv.some.param");
}

TEST(ReportIoTest, OldSerializationsDefaultAfterStaticToOriginal) {
  // Pre-zebralint serializations carry no after_static key.
  CampaignReport original = SampleReport("minikv");
  std::string text = SerializeReport(original);
  std::string filtered;
  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.find("after_static") == std::string::npos) {
      filtered += line + "\n";
    }
  }
  CampaignReport restored = DeserializeReport(filtered);
  EXPECT_EQ(restored.per_app.at("minikv").after_static, 5000);
}

TEST(ReportIoTest, UnitResultWithRetiredCacheKeysParsesAndDropsThem) {
  // Unit results (journal and fabric result records) used to carry six
  // per-unit cache counters, always 0: only the cache's owner knows its
  // totals. A journal written then still resumes: the keys parse as unknown
  // ones and do not survive re-serialization.
  UnitWorkResult unit;
  unit.app = "minikv";
  unit.test_id = "minikv.TestA";
  unit.prerun_executions = 1;
  unit.after_prerun = 4;
  unit.after_uncertainty = 3;
  unit.executed_runs = 12;
  unit.runs_to_first_confirmation = 5;
  unit.params_tested = {"minikv.some.param"};
  unit.confirmations.push_back(UnitConfirmation{"minikv.some.param", 5.4e-5, "boom"});
  unit.run_durations = {0.001, 0.002};
  const std::string current = SerializeUnitResult(3, unit);

  const char* const kRetiredKeys[] = {"cache_hits",          "cache_misses",
                                      "equiv_hits",          "canonicalized_plans",
                                      "mispredictions",      "cache_evictions"};
  std::map<std::string, std::string> properties = ParseProperties(current);
  for (const char* key : kRetiredKeys) {
    properties.emplace(key, "0");
  }
  size_t index = 0;
  UnitWorkResult parsed;
  ASSERT_TRUE(ParseUnitResult(RenderProperties(properties), &index, &parsed));
  EXPECT_EQ(index, 3u);
  const std::string again = SerializeUnitResult(index, parsed);
  EXPECT_EQ(again, current);
  for (const char* key : kRetiredKeys) {
    EXPECT_EQ(again.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace zebra
