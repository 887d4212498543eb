// End-to-end regression: the full campaign over all six applications must
// rediscover the paper's 41 Table 3 parameters exactly, with every extra
// report attributable to a seeded false-positive source or the probabilistic
// extension parameter.

#include <gtest/gtest.h>

#include "src/core/campaign.h"
#include "src/core/fleet_model.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/ground_truth.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

class PipelineE2eTest : public ::testing::Test {
 protected:
  static const CampaignReport& Report() {
    static const CampaignReport* report = [] {
      CampaignOptions options;  // all apps
      Campaign campaign(FullSchema(), FullCorpus(), options);
      return new CampaignReport(campaign.Run());
    }();
    return *report;
  }
};

TEST_F(PipelineE2eTest, FindsAllFortyOneTableThreeParameters) {
  int found = 0;
  for (const auto& [param, why] : ExpectedUnsafeParams()) {
    EXPECT_TRUE(Report().findings.count(param) > 0) << "missed: " << param;
    found += Report().findings.count(param) > 0 ? 1 : 0;
  }
  EXPECT_EQ(found, 41);
}

TEST_F(PipelineE2eTest, EveryExtraReportIsAttributable) {
  for (const auto& [param, finding] : Report().findings) {
    bool expected = IsExpectedUnsafe(param);
    bool known_fp = KnownFalsePositiveSources().count(param) > 0;
    bool probabilistic = ProbabilisticUnsafeParams().count(param) > 0;
    EXPECT_TRUE(expected || known_fp || probabilistic)
        << param << " (witness failure: " << finding.example_failure << ")";
  }
}

TEST_F(PipelineE2eTest, AllSeededFalsePositiveSourcesAreReported) {
  // The FP sources were seeded precisely so the tool reports them (the paper
  // then rejects them by manual analysis); a silent FP source would mean the
  // corpus pattern stopped firing.
  for (const auto& [param, mechanism] : KnownFalsePositiveSources()) {
    EXPECT_TRUE(Report().findings.count(param) > 0)
        << "FP source " << param << " no longer triggers (" << mechanism << ")";
  }
}

TEST_F(PipelineE2eTest, StagedReductionHolsAcrossTheCorpus) {
  EXPECT_GT(Report().TotalOriginal(), 10 * Report().TotalAfterPrerun());
  EXPECT_GT(Report().TotalAfterPrerun(), Report().TotalAfterUncertainty());
  EXPECT_GT(Report().TotalAfterUncertainty(), Report().TotalExecuted());
}

TEST_F(PipelineE2eTest, HypothesisTestingFiltersSomething) {
  EXPECT_GT(Report().filtered_by_hypothesis, 0)
      << "the flaky corpus tests must produce filtered candidates";
  EXPECT_LT(Report().filtered_by_hypothesis, Report().first_trial_candidates);
}

TEST_F(PipelineE2eTest, EveryFindingHasAWitnessAndSignificance) {
  for (const auto& [param, finding] : Report().findings) {
    EXPECT_FALSE(finding.witness_tests.empty()) << param;
    EXPECT_FALSE(finding.example_failure.empty()) << param;
    EXPECT_LT(finding.best_p_value, 1e-4) << param;
    EXPECT_FALSE(finding.owning_app.empty()) << param;
  }
}

TEST_F(PipelineE2eTest, RunDurationsFeedTheFleetModel) {
  // One duration per real execution. The verifier answers later trials of
  // deterministic plans, and bisection's failing one-instance run, from
  // results it already holds, so 1,555 of the 2,894 logical runs execute.
  EXPECT_EQ(Report().total_unit_test_runs, 2894);
  ASSERT_EQ(Report().run_durations_seconds.size(), 1555u);
  FleetEstimate fleet = EstimateFleet(Report().run_durations_seconds, 100, 20);
  EXPECT_EQ(fleet.runs, static_cast<int64_t>(Report().run_durations_seconds.size()));
  EXPECT_GT(fleet.total_cpu_seconds, 0.0);
  EXPECT_LE(fleet.makespan_seconds, fleet.total_cpu_seconds);
}

TEST_F(PipelineE2eTest, WitnessesPointAtTheRightSubsystems) {
  const auto& findings = Report().findings;
  ASSERT_TRUE(findings.count("dfs.datanode.balance.max.concurrent.moves") > 0);
  EXPECT_TRUE(findings.at("dfs.datanode.balance.max.concurrent.moves")
                  .witness_tests.count("minidfs.TestBalancerCongestion") > 0);
  ASSERT_TRUE(findings.count("mapreduce.shuffle.ssl.enabled") > 0);
  for (const std::string& witness :
       findings.at("mapreduce.shuffle.ssl.enabled").witness_tests) {
    EXPECT_EQ(witness.rfind("minimr.", 0), 0u) << witness;
  }
}

}  // namespace
}  // namespace zebra
