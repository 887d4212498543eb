// Tests for the unit-test corpus itself: every test must pass under its
// original (homogeneous) configuration, flaky tests must actually be flaky,
// and the pre-run reports must expose the structure the generator relies on.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/conf/plan_equiv.h"
#include "src/core/test_generator.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/ground_truth.h"
#include "src/testkit/run_cache.h"
#include "src/testkit/test_execution.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

bool IsFlakyTest(const std::string& id) {
  return id.find("Flaky") != std::string::npos;
}

TEST(CorpusTest, RegistryCoversSixApps) {
  auto counts = FullCorpus().CountsByApp();
  EXPECT_EQ(counts.size(), 6u);
  EXPECT_GT(counts.at("minidfs"), 20);
  EXPECT_GT(counts.at("minimr"), 8);
  EXPECT_GT(counts.at("miniyarn"), 7);
  EXPECT_GT(counts.at("ministream"), 5);
  EXPECT_GT(counts.at("minikv"), 5);
  EXPECT_GT(counts.at("apptools"), 3);
}

TEST(CorpusTest, IdsAreUniqueAndPrefixed) {
  std::set<std::string> ids;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    EXPECT_TRUE(ids.insert(test.id).second) << "duplicate id " << test.id;
    EXPECT_EQ(test.id.rfind(test.app + ".", 0), 0u) << test.id;
  }
}

// Every deterministic corpus test passes with its original configuration.
class CorpusPassesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusPassesTest, PassesWithOriginalConfiguration) {
  const UnitTestDef* test = FullCorpus().Find(GetParam());
  ASSERT_NE(test, nullptr);
  if (IsFlakyTest(test->id)) {
    GTEST_SKIP() << "flaky by design; covered by FlakyTestsAreFlaky";
  }
  TestResult result = RunUnitTest(*test, TestPlan{}, /*trial=*/0);
  EXPECT_TRUE(result.passed) << result.failure;
}

std::vector<std::string> AllCorpusIds() {
  std::vector<std::string> ids;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    ids.push_back(test.id);
  }
  return ids;
}

INSTANTIATE_TEST_SUITE_P(AllTests, CorpusPassesTest, ::testing::ValuesIn(AllCorpusIds()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(CorpusTest, FlakyTestsAreFlaky) {
  for (const UnitTestDef& test : FullCorpus().tests()) {
    if (!IsFlakyTest(test.id)) {
      continue;
    }
    int failures = 0;
    for (uint64_t trial = 0; trial < 40; ++trial) {
      if (!RunUnitTest(test, TestPlan{}, trial).passed) {
        ++failures;
      }
    }
    EXPECT_GT(failures, 0) << test.id << " never failed in 40 trials";
    EXPECT_LT(failures, 40) << test.id << " always failed in 40 trials";
  }
}

TEST(CorpusTest, SameTrialIsDeterministic) {
  for (const UnitTestDef& test : FullCorpus().tests()) {
    if (!IsFlakyTest(test.id)) {
      continue;
    }
    TestResult a = RunUnitTest(test, TestPlan{}, 7);
    TestResult b = RunUnitTest(test, TestPlan{}, 7);
    EXPECT_EQ(a.passed, b.passed) << test.id;
  }
}

// The empty plan, then one heterogeneous plan for `test` when it has any:
// its first generated instance that fails, else its first instance.
std::vector<TestPlan> EmptyAndOneHeterogeneousPlan(const TestGenerator& generator,
                                                   const UnitTestDef& test) {
  std::vector<TestPlan> plans(1);  // the empty plan
  int64_t prerun_executions = 0;
  int64_t before_uncertainty = 0;
  const std::vector<GeneratedInstance> instances = generator.Generate(
      generator.PreRunTest(test, &prerun_executions), &before_uncertainty);
  for (const GeneratedInstance& instance : instances) {
    TestPlan plan;
    plan.Add(instance.plan);
    const bool fails = !RunUnitTestShared(test, plan, /*trial=*/0)->passed;
    if (fails || plans.size() == 1) {
      plans.resize(1);
      plans.push_back(std::move(plan));
    }
    if (fails) {
      break;
    }
  }
  return plans;
}

// The premise TestRunner and the run cache's trial-wildcard key rest on: all
// nondeterminism flows through the per-trial RNG, so a run that reports
// itself trial-insensitive has the same outcome at every trial. Checked for
// every corpus test under the empty plan and under one heterogeneous plan.
// The seeded-flaky tests always draw under the empty plan; a heterogeneous
// plan may fail them before the draw, which makes that run trial-insensitive.
TEST(CorpusTest, TrialInsensitiveRunsHaveOneOutcomeAtEveryTrial) {
  TestGenerator generator(FullSchema(), FullCorpus());
  int insensitive_runs = 0;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    for (const TestPlan& plan : EmptyAndOneHeterogeneousPlan(generator, test)) {
      std::shared_ptr<const TestResult> first = RunUnitTestShared(test, plan, 0);
      if (IsFlakyTest(test.id) && plan.empty()) {
        EXPECT_TRUE(first->trial_sensitive)
            << test.id << " draws from the per-trial RNG";
      }
      if (first->trial_sensitive) {
        continue;
      }
      ++insensitive_runs;
      for (uint64_t trial = 1; trial <= 3; ++trial) {
        std::shared_ptr<const TestResult> again = RunUnitTestShared(test, plan, trial);
        EXPECT_EQ(again->passed, first->passed)
            << test.id << " [" << plan.Describe() << "] trial " << trial;
        EXPECT_EQ(again->failure, first->failure)
            << test.id << " [" << plan.Describe() << "] trial " << trial;
        EXPECT_FALSE(again->trial_sensitive) << test.id;
      }
    }
  }
  EXPECT_GT(insensitive_runs, 100) << "most corpus runs never consult their trial";
}

TEST(CorpusTest, NoNodeTestsReportNoNodes) {
  for (const UnitTestDef& test : FullCorpus().tests()) {
    TestResult result = RunUnitTest(test, TestPlan{}, 0);
    bool expects_nodes = test.id.find("NoNodes") == std::string::npos;
    EXPECT_EQ(result.report.StartedAnyNode(), expects_nodes) << test.id;
  }
}

TEST(CorpusTest, NodeTestsShareConfigurationObjects) {
  // §6.1: sharing occurs in the overwhelming majority of tests that involve
  // configuration usage and start nodes.
  int with_nodes = 0;
  int with_sharing = 0;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    TestResult result = RunUnitTest(test, TestPlan{}, 0);
    if (result.report.StartedAnyNode()) {
      ++with_nodes;
      if (result.report.conf_sharing_detected) {
        ++with_sharing;
      }
    }
  }
  EXPECT_GT(with_nodes, 0);
  EXPECT_GE(with_sharing * 100, with_nodes * 85)
      << "at least ~85% of node tests share conf objects (paper: 88.5-100%)";
}

TEST(CorpusTest, DfsClusterTestRecordsExpectedStructure) {
  const UnitTestDef* test = FullCorpus().Find("minidfs.TestWriteReadSmallFile");
  ASSERT_NE(test, nullptr);
  TestResult result = RunUnitTest(*test, TestPlan{}, 0);
  ASSERT_TRUE(result.passed) << result.failure;
  EXPECT_EQ(result.report.node_counts.at("NameNode"), 1);
  EXPECT_EQ(result.report.node_counts.at("DataNode"), 2);
  // The data-path parameters are read by both the client and the DataNodes.
  EXPECT_TRUE(result.report.ParamsReadBy("DataNode").count("dfs.checksum.type") > 0);
  EXPECT_TRUE(result.report.ParamsReadBy("Client").count("dfs.checksum.type") > 0);
  // The NameNode reads its liveness parameters.
  EXPECT_TRUE(result.report.ParamsReadBy("NameNode")
                  .count("dfs.namenode.heartbeat.recheck-interval") > 0);
  EXPECT_TRUE(result.report.conf_sharing_detected);
}

TEST(CorpusTest, FlinkStyleInlineInitStillMapsTaskManagers) {
  const UnitTestDef* test = FullCorpus().Find("ministream.TestDataExchange");
  ASSERT_NE(test, nullptr);
  TestResult result = RunUnitTest(*test, TestPlan{}, 0);
  ASSERT_TRUE(result.passed) << result.failure;
  EXPECT_EQ(result.report.node_counts.at("TaskManager"), 2);
  EXPECT_TRUE(result.report.ParamsReadBy("TaskManager")
                  .count("taskmanager.data.ssl.enabled") > 0);
}

TEST(CorpusTest, GroundTruthParamsAreReadSomewhere) {
  // Every seeded-unsafe parameter must be read by at least one entity in at
  // least one corpus test — otherwise the pipeline could never find it.
  std::set<std::string> read_params;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    TestResult result = RunUnitTest(test, TestPlan{}, 0);
    for (const std::string& param : result.report.AllParamsRead()) {
      read_params.insert(param);
    }
  }
  for (const auto& [param, why] : ExpectedUnsafeParams()) {
    EXPECT_TRUE(read_params.count(param) > 0) << "never read: " << param;
  }
}

// The recording contract (test_execution.h): RunUnitTest always records;
// RunUnitTestShared records the empty-plan pre-run whole, only the trace of
// a cached run a read surface can match, and otherwise just the verdict.
bool Recorded(const TestResult& result) {
  return !result.report.reads.empty() && !result.report.trace_elements.empty();
}

TEST(CorpusTest, SharedRunsRecordOnlyWhereRead) {
  const UnitTestDef* test = FullCorpus().Find("minidfs.TestWriteReadSmallFile");
  ASSERT_NE(test, nullptr);
  TestPlan hetero;
  ParamPlan checksum;
  checksum.param = "dfs.checksum.type";
  checksum.assigner = ValueAssigner::UniformGroup("DataNode", "CRC32", "CRC32C");
  hetero.Add(checksum);

  // No cache, non-empty plan: verdict only, and the same verdict.
  const TestResult recorded = RunUnitTest(*test, hetero, /*trial=*/0);
  ASSERT_TRUE(Recorded(recorded));
  EXPECT_FALSE(recorded.passed) << "heterogeneous checksum types must fail";
  std::shared_ptr<const TestResult> verdict =
      RunUnitTestShared(*test, hetero, /*trial=*/0);
  EXPECT_EQ(verdict->passed, recorded.passed);
  EXPECT_EQ(verdict->failure, recorded.failure);
  EXPECT_TRUE(verdict->report.reads.empty());
  EXPECT_TRUE(verdict->report.uncertain_params.empty());
  EXPECT_TRUE(verdict->report.trace_elements.empty());
  // Counters and flags are kept either way.
  EXPECT_EQ(verdict->report.override_hits, recorded.report.override_hits);
  EXPECT_EQ(verdict->report.node_counts, recorded.report.node_counts);
  EXPECT_EQ(verdict->report.any_conf_usage, recorded.report.any_conf_usage);
  EXPECT_EQ(verdict->report.conf_sharing_detected,
            recorded.report.conf_sharing_detected);

  // The empty plan is the pre-run: both entry points record it.
  const TestResult prerun = RunUnitTest(*test, TestPlan{}, /*trial=*/0);
  EXPECT_TRUE(Recorded(prerun));
  std::shared_ptr<const TestResult> shared_prerun =
      RunUnitTestShared(*test, TestPlan{}, /*trial=*/0);
  EXPECT_TRUE(Recorded(*shared_prerun));
  EXPECT_EQ(shared_prerun->report.reads, prerun.report.reads);
  EXPECT_EQ(shared_prerun->report.trace_elements, prerun.report.trace_elements);

  // Under a cache a heterogeneous run records only what a lookup reads. With
  // no read surface installed no lookup can match its trace, so it keeps
  // just its verdict and the cache holds no trace alias for it.
  {
    RunCache cache;
    ScopedRunCache scoped(&cache);
    std::shared_ptr<const TestResult> cached =
        RunUnitTestShared(*test, hetero, /*trial=*/0);
    ASSERT_FALSE(cached->trial_sensitive);
    EXPECT_EQ(cached->passed, recorded.passed);
    EXPECT_EQ(cached->failure, recorded.failure);
    EXPECT_TRUE(cached->report.reads.empty());
    EXPECT_TRUE(cached->report.trace_elements.empty());
    EXPECT_EQ(cached->report.override_hits, recorded.report.override_hits);
    EXPECT_EQ(cache.stats().entries, 2) << "exact and wildcard keys only";

    // RunUnitTest still returns the full read map: it executes and records
    // a non-empty plan itself instead of asking the cache.
    std::vector<double> executions;
    SetRunDurationCollector(&executions);
    const TestResult full = RunUnitTest(*test, hetero, /*trial=*/0);
    SetRunDurationCollector(nullptr);
    EXPECT_EQ(executions.size(), 1u);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 1);
    EXPECT_EQ(full.report.reads, recorded.report.reads);
    EXPECT_EQ(full.report.uncertain_params, recorded.report.uncertain_params);
    EXPECT_EQ(full.report.trace_elements, recorded.report.trace_elements);
  }

  // With the pre-run's usable read surface installed the run records its
  // trace alone, which the cache keeps only as the joined text it indexes
  // (TraceOnlySessionsRecordExactlyTheFullTrace): the served payload carries
  // no read map and no trace set.
  const ReadSurface surface(prerun.report);
  ASSERT_TRUE(surface.usable());
  ScopedReadSurface scoped_surface(&surface);
  RunCache cache;
  ScopedRunCache scoped(&cache);
  std::shared_ptr<const TestResult> traced =
      RunUnitTestShared(*test, hetero, /*trial=*/0);
  EXPECT_EQ(traced->passed, recorded.passed);
  EXPECT_EQ(traced->failure, recorded.failure);
  EXPECT_TRUE(traced->report.reads.empty());
  EXPECT_TRUE(traced->report.trace_elements.empty());
}

// One execution of `test` under `plan` in the given recording mode, outside
// any cache (seeded as RunUnitTest seeds trial 0): what its session recorded.
SessionReport RecordSession(const UnitTestDef& test, const TestPlan& plan,
                            SessionRecording recording) {
  ConfAgentSession session(&plan, recording);
  TestContext context(test.id, HashCombine(0, plan.DescribeSeed()));
  try {
    test.body(context);
  } catch (const std::exception&) {
    // A failing run has recorded the observations it made before failing.
  }
  return session.End();
}

// The premise trace-only runs rest on: the run cache indexes and validates
// a heterogeneous run by the trace it recorded, so a trace-only session must
// record exactly the trace elements a full one records, and nothing of the
// read map. Checked for every corpus test under the empty plan and one
// heterogeneous plan.
TEST(CorpusTest, TraceOnlySessionsRecordExactlyTheFullTrace) {
  TestGenerator generator(FullSchema(), FullCorpus());
  int traced_runs = 0;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    for (const TestPlan& plan : EmptyAndOneHeterogeneousPlan(generator, test)) {
      const SessionReport full = RecordSession(test, plan, SessionRecording::kFull);
      const SessionReport trace =
          RecordSession(test, plan, SessionRecording::kTraceOnly);
      EXPECT_EQ(trace.trace_elements, full.trace_elements)
          << test.id << " [" << plan.Describe() << "]";
      EXPECT_TRUE(trace.reads.empty()) << test.id << " [" << plan.Describe() << "]";
      EXPECT_TRUE(trace.uncertain_params.empty()) << test.id;
      EXPECT_EQ(trace.override_hits, full.override_hits) << test.id;
      EXPECT_EQ(trace.node_counts, full.node_counts) << test.id;
      if (!full.trace_elements.empty()) {
        ++traced_runs;
      }
    }
  }
  EXPECT_GT(traced_runs, 100) << "the sweep recorded real traces";
}

}  // namespace
}  // namespace zebra
