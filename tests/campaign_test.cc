// End-to-end tests of the ZebraConf campaign on the smaller applications.
// (The full five-application run is the Table 3 bench.)

#include "src/core/campaign.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/testkit/full_schema.h"
#include "src/testkit/ground_truth.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

CampaignReport RunFor(const std::vector<std::string>& apps, bool pooling = true) {
  CampaignOptions options;
  options.apps = apps;
  options.enable_pooling = pooling;
  Campaign campaign(FullSchema(), FullCorpus(), options);
  return campaign.Run();
}

TEST(CampaignTest, FindsBothThriftParamsInMiniKv) {
  CampaignReport report = RunFor({"minikv"});
  EXPECT_TRUE(report.findings.count("hbase.regionserver.thrift.compact") > 0);
  EXPECT_TRUE(report.findings.count("hbase.regionserver.thrift.framed") > 0);
}

TEST(CampaignTest, FindsAllThreeStreamParams) {
  CampaignReport report = RunFor({"ministream"});
  EXPECT_TRUE(report.findings.count("akka.ssl.enabled") > 0);
  EXPECT_TRUE(report.findings.count("taskmanager.data.ssl.enabled") > 0);
  EXPECT_TRUE(report.findings.count("taskmanager.numberOfTaskSlots") > 0);
}

TEST(CampaignTest, NeverReportsGenuinelySafeLocalParams) {
  CampaignReport report = RunFor({"minikv", "ministream"});
  for (const auto& [param, finding] : report.findings) {
    bool expected = IsExpectedUnsafe(param) || ProbabilisticUnsafeParams().count(param) > 0;
    bool known_fp = KnownFalsePositiveSources().count(param) > 0;
    EXPECT_TRUE(expected || known_fp)
        << param << " reported but neither seeded-unsafe nor a known FP source "
        << "(witness: " << finding.example_failure << ")";
  }
}

TEST(CampaignTest, StageCountsAreMonotone) {
  CampaignReport report = RunFor({"minidfs"});
  const AppStageCounts& counts = report.per_app.at("minidfs");
  EXPECT_GT(counts.original, 10 * counts.after_prerun)
      << "pre-running must cut the instance count by at least 10x";
  EXPECT_GT(counts.after_prerun, counts.after_uncertainty)
      << "the lazy-conf corpus test must lose some instances to uncertainty";
  EXPECT_GT(counts.after_uncertainty, 0);
  EXPECT_LT(2 * counts.executed_runs, counts.after_uncertainty)
      << "pooling must execute fewer runs than verifying every instance";
  EXPECT_GT(counts.executed_runs, 0);
}

TEST(CampaignTest, MiniDfsFindsAllTwentyOneTableThreeParams) {
  CampaignReport report = RunFor({"minidfs"});
  int found_expected = 0;
  for (const auto& [param, why] : ExpectedUnsafeParams()) {
    if (param.rfind("dfs.", 0) == 0) {
      EXPECT_TRUE(report.findings.count(param) > 0) << "missed " << param;
      found_expected += report.findings.count(param) > 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(found_expected, 21);
}

TEST(CampaignTest, FindingsCarryWitnessesAndOwningApp) {
  CampaignReport report = RunFor({"minikv"});
  const ParamFinding& finding =
      report.findings.at("hbase.regionserver.thrift.compact");
  EXPECT_EQ(finding.owning_app, "minikv");
  EXPECT_FALSE(finding.witness_tests.empty());
  EXPECT_FALSE(finding.example_failure.empty());
  EXPECT_LT(finding.best_p_value, 1e-4);
}

TEST(CampaignTest, HypothesisTestingStatsAreTracked) {
  CampaignReport report = RunFor({"minikv", "ministream"});
  EXPECT_GT(report.first_trial_candidates, 0);
  EXPECT_GE(report.first_trial_candidates, report.filtered_by_hypothesis);
}

TEST(CampaignTest, SharingStatsMatchTheCorpus) {
  CampaignReport report = RunFor({"ministream"});
  const SharingStats& sharing = report.sharing.at("ministream");
  EXPECT_GT(sharing.tests_with_conf_usage, 0);
  EXPECT_GT(sharing.tests_with_sharing, 0);
  EXPECT_LE(sharing.tests_with_sharing, sharing.tests_with_conf_usage);
}

TEST(CampaignTest, DisablingPoolingFindsTheSameParams) {
  CampaignReport pooled = RunFor({"ministream"});
  CampaignReport individual = RunFor({"ministream"}, /*pooling=*/false);

  for (const auto& [param, finding] : pooled.findings) {
    if (IsExpectedUnsafe(param)) {
      EXPECT_TRUE(individual.findings.count(param) > 0)
          << param << " lost without pooling";
    }
  }
  EXPECT_GT(individual.per_app.at("ministream").executed_runs,
            pooled.per_app.at("ministream").executed_runs)
      << "pooling must reduce the number of executed runs";
}

TEST(CampaignTest, OnlyParamsFocusesTheCampaign) {
  CampaignOptions options;
  options.apps = {"minikv"};
  options.only_params = {"hbase.regionserver.thrift.framed"};
  Campaign campaign(FullSchema(), FullCorpus(), options);
  CampaignReport report = campaign.Run();
  EXPECT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings.count("hbase.regionserver.thrift.framed") > 0);
  // Focused runs are much cheaper than the full per-app campaign.
  EXPECT_LT(report.per_app.at("minikv").executed_runs, 80);
}

TEST(CampaignTest, ExcludeParamsSkipsTriagedFindings) {
  CampaignOptions options;
  options.apps = {"minikv"};
  options.exclude_params = {"ipc.ping.interval", "ipc.client.connect.max.retries"};
  Campaign campaign(FullSchema(), FullCorpus(), options);
  CampaignReport report = campaign.Run();
  EXPECT_EQ(report.findings.count("ipc.ping.interval"), 0u)
      << "triaged false positives stay out of the report";
  EXPECT_TRUE(report.findings.count("hbase.regionserver.thrift.compact") > 0)
      << "everything else is still tested";
}

// ---------------------------------------------------------------------------
// CampaignFolder: projected snapshots and the fold-point check
// ---------------------------------------------------------------------------

UnitWorkResult Confirming(const std::string& test_id,
                          const std::vector<std::string>& params) {
  UnitWorkResult unit;
  unit.app = "synthetic";
  unit.test_id = test_id;
  for (const std::string& param : params) {
    unit.confirmations.push_back(UnitConfirmation{param, 1e-6, "fails"});
  }
  return unit;
}

CampaignFolder FolderWithThreshold(int threshold) {
  CampaignOptions options;
  options.frequent_failure_threshold = threshold;
  return CampaignFolder(FullSchema(), options);
}

TEST(CampaignFolderTest, ProjectionCountsFoldedAndPendingConfirmationsTogether) {
  CampaignFolder folder = FolderWithThreshold(3);
  folder.Fold(Confirming("t0", {"p"}));
  folder.Fold(Confirming("t1", {"p", "q"}));
  ASSERT_TRUE(folder.globally_unsafe().empty());

  std::map<size_t, CampaignFolder::PendingUnit> pending;
  pending[2] = {"t2", {"p"}};
  pending[3] = {"t3", {"q"}};
  // Unit 4 sees p reach three tests (two folded, one pending); q has only
  // two (one folded, one pending).
  EXPECT_EQ(folder.ProjectGloballyUnsafe(pending, 4), std::set<std::string>{"p"});
  // The projection is exactly the set the fold reaches.
  folder.Fold(Confirming("t2", {"p"}));
  folder.Fold(Confirming("t3", {"q"}));
  EXPECT_EQ(folder.globally_unsafe(), std::set<std::string>{"p"});
}

TEST(CampaignFolderTest, ProjectionIgnoresConfirmationsFromLaterUnits) {
  CampaignFolder folder = FolderWithThreshold(2);
  folder.Fold(Confirming("t0", {"p"}));

  std::map<size_t, CampaignFolder::PendingUnit> pending;
  pending[3] = {"t3", {"p"}};
  // Unit 3's own confirmations and those after it are not in its snapshot.
  EXPECT_TRUE(folder.ProjectGloballyUnsafe(pending, 2).empty());
  EXPECT_TRUE(folder.ProjectGloballyUnsafe(pending, 3).empty());
  EXPECT_EQ(folder.ProjectGloballyUnsafe(pending, 4), std::set<std::string>{"p"});
}

TEST(CampaignFolderTest, ProjectionCountsDuplicateConfirmationsFromOneTestOnce) {
  CampaignFolder folder = FolderWithThreshold(2);
  folder.Fold(Confirming("t0", {"p"}));

  std::map<size_t, CampaignFolder::PendingUnit> pending;
  pending[1] = {"t0", {"p"}};  // a test already folded for p
  pending[2] = {"t2", {"q", "q"}};
  pending[3] = {"t2", {"q"}};
  EXPECT_TRUE(folder.ProjectGloballyUnsafe(pending, 4).empty());

  pending[3] = {"t3", {"q"}};
  EXPECT_EQ(folder.ProjectGloballyUnsafe(pending, 4), std::set<std::string>{"q"});
}

TEST(CampaignFolderTest, WithdrawnConfirmationsStopCounting) {
  CampaignFolder folder = FolderWithThreshold(2);
  folder.Fold(Confirming("t0", {"p"}));

  std::map<size_t, CampaignFolder::PendingUnit> pending;
  pending[1] = {"t1", {"p"}};
  ASSERT_EQ(folder.ProjectGloballyUnsafe(pending, 2), std::set<std::string>{"p"});
  pending.erase(1);  // the attempt failed or its result was discarded
  EXPECT_TRUE(folder.ProjectGloballyUnsafe(pending, 2).empty());
}

TEST(CampaignFolderTest, SnapshotCheckComparesTestedParametersBothWays) {
  CampaignFolder folder = FolderWithThreshold(1);
  folder.Fold(Confirming("t0", {"p"}));
  ASSERT_EQ(folder.globally_unsafe(), std::set<std::string>{"p"});

  UnitWorkResult unit;
  unit.params_tested = {"p", "q"};
  using Check = CampaignFolder::SnapshotCheck;
  EXPECT_EQ(folder.CheckSnapshot(unit, {"p"}), Check::kAgrees);
  EXPECT_EQ(folder.CheckSnapshot(unit, {}), Check::kUnderProjected);
  EXPECT_EQ(folder.CheckSnapshot(unit, {"p", "q"}), Check::kOverProjected);
  // A snapshot parameter the unit never tested cannot have changed it.
  EXPECT_EQ(folder.CheckSnapshot(unit, {"p", "r"}), Check::kAgrees);
  // Under-projection wins: it is final before the fold point.
  EXPECT_EQ(folder.CheckSnapshot(unit, {"q"}), Check::kUnderProjected);
}

TEST(CampaignTest, EmptyAppsDefaultsToWholeCorpus) {
  CampaignOptions options;
  options.apps = {"minikv"};  // keep the test fast; just check defaulting logic
  Campaign campaign(FullSchema(), FullCorpus(), options);
  CampaignReport report = campaign.Run();
  EXPECT_EQ(report.per_app.size(), 1u);
  EXPECT_EQ(report.total_unit_test_runs, report.TotalExecuted());
}

}  // namespace
}  // namespace zebra
