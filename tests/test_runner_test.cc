// Tests for TestRunner: candidate detection, homogeneous controls, and the
// hypothesis-testing filter for nondeterministic failures.

#include "src/core/test_runner.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/testkit/full_schema.h"
#include "src/testkit/test_execution.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

GeneratedInstance MakeInstance(const std::string& test_id, const std::string& param,
                               ValueAssigner assigner) {
  GeneratedInstance instance;
  instance.test = FullCorpus().Find(test_id);
  EXPECT_NE(instance.test, nullptr) << test_id;
  instance.plan.param = param;
  instance.plan.assigner = std::move(assigner);
  return instance;
}

TEST(TestRunnerTest, ConfirmsThriftProtocolMismatch) {
  GeneratedInstance instance = MakeInstance(
      "minikv.TestThriftAdminCreateTable", "hbase.regionserver.thrift.compact",
      ValueAssigner::UniformGroup("ThriftServer", "true", "false"));
  TestRunner runner;
  int64_t executions = 0;
  Verdict verdict = runner.Verify(instance, &executions);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kConfirmedUnsafe);
  EXPECT_LT(verdict.p_value, 1e-4);
  EXPECT_FALSE(verdict.witness_failure.empty());
  EXPECT_GT(executions, 3);
  EXPECT_EQ(verdict.hetero_failures, verdict.hetero_trials);
  EXPECT_EQ(verdict.homo_failures, 0);
}

TEST(TestRunnerTest, ConfirmsSlotMismatch) {
  GeneratedInstance instance = MakeInstance(
      "ministream.TestJobSubmissionSlots", "taskmanager.numberOfTaskSlots",
      ValueAssigner::UniformGroup("JobManager", "4", "1"));
  TestRunner runner;
  int64_t executions = 0;
  Verdict verdict = runner.Verify(instance, &executions);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kConfirmedUnsafe);
}

TEST(TestRunnerTest, SafeParamIsNotACandidate) {
  GeneratedInstance instance = MakeInstance(
      "minikv.TestPutGet", "hbase.client.retries.number",
      ValueAssigner::UniformGroup("HRegionServer", "1", "35"));
  TestRunner runner;
  int64_t executions = 0;
  Verdict verdict = runner.Verify(instance, &executions);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kNotCandidate);
  EXPECT_EQ(executions, 1) << "a passing hetero run needs no homogeneous controls";
}

TEST(TestRunnerTest, BenignPolarityOfUnsafeParamIsNotACandidate) {
  // JobManager assuming *fewer* slots than TaskManagers offer is merely
  // conservative; this polarity passes and must not be reported.
  GeneratedInstance instance = MakeInstance(
      "ministream.TestJobSubmissionSlots", "taskmanager.numberOfTaskSlots",
      ValueAssigner::UniformGroup("JobManager", "1", "4"));
  TestRunner runner;
  int64_t executions = 0;
  Verdict verdict = runner.Verify(instance, &executions);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kNotCandidate);
}

TEST(TestRunnerTest, FlakyTestIsNeverConfirmed) {
  // The flaky corpus tests fail ~30% of trials regardless of configuration;
  // whatever the first trial shows, hypothesis testing must not confirm.
  for (const char* test_id :
       {"minidfs.TestFlakyReplicationMonitor", "minikv.TestFlakyMasterFailover",
        "ministream.TestFlakyCheckpointBarrier"}) {
    GeneratedInstance instance =
        MakeInstance(test_id, "hbase.client.retries.number",
                     ValueAssigner::UniformGroup("Client", "1", "35"));
    TestRunner runner;
    int64_t executions = 0;
    Verdict verdict = runner.Verify(instance, &executions);
    EXPECT_NE(verdict.kind, Verdict::Kind::kConfirmedUnsafe) << test_id;
  }
}

TEST(TestRunnerTest, HomogeneousControlFailureBlocksAttribution) {
  // parallelism.default=2 breaks this test even homogeneously (1 TM with one
  // slot); a candidate must not arise because the homo control fails too.
  GeneratedInstance instance = MakeInstance(
      "ministream.TestParallelismDefaults", "parallelism.default",
      ValueAssigner::UniformGroup("Client", "2", "1"));
  TestRunner runner;
  int64_t executions = 0;
  Verdict verdict = runner.Verify(instance, &executions);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kNotCandidate);
  EXPECT_GT(verdict.homo_failures, 0);
}

TEST(TestRunnerTest, ExtraFirstTrialsCatchProbabilisticFailures) {
  // The §5 mitigation: the work-preserving-recovery parameter fails
  // heterogeneously in only ~60% of runs. Across its generated assignments,
  // more first trials can only improve detection, and with three trials the
  // miss probability (0.4^3) is gone for every assignment we generate.
  std::vector<GeneratedInstance> instances;
  for (const char* group : {"ResourceManager", "NodeManager"}) {
    for (bool polarity : {true, false}) {
      instances.push_back(MakeInstance(
          "miniyarn.TestRmWorkPreservingRecovery",
          "yarn.resourcemanager.work-preserving-recovery.enabled",
          ValueAssigner::UniformGroup(group, polarity ? "true" : "false",
                                      polarity ? "false" : "true")));
    }
  }

  int detected_single = 0;
  int detected_triple = 0;
  for (const GeneratedInstance& instance : instances) {
    int64_t executions = 0;
    if (TestRunner(1e-4, 1).Verify(instance, &executions).kind ==
        Verdict::Kind::kConfirmedUnsafe) {
      ++detected_single;
    }
    executions = 0;
    if (TestRunner(1e-4, 3).Verify(instance, &executions).kind ==
        Verdict::Kind::kConfirmedUnsafe) {
      ++detected_triple;
    }
  }
  EXPECT_GE(detected_triple, detected_single);
  EXPECT_EQ(detected_triple, static_cast<int>(instances.size()))
      << "three first trials must catch the ~60% failure on every assignment";
}

TEST(TestRunnerTest, ExecutionCountingIsExact) {
  GeneratedInstance instance = MakeInstance(
      "minikv.TestThriftAdminCreateTable", "hbase.regionserver.thrift.framed",
      ValueAssigner::UniformGroup("ThriftServer", "true", "false"));
  TestRunner runner;
  int64_t executions = 0;
  Verdict verdict = runner.Verify(instance, &executions);
  ASSERT_EQ(verdict.kind, Verdict::Kind::kConfirmedUnsafe);
  EXPECT_EQ(executions, verdict.hetero_trials + verdict.homo_trials);
}

// Counts real executions (the duration collector sees only those) while in
// scope; Verify's `executions` counts logical runs.
class ExecutionCounter {
 public:
  ExecutionCounter() { SetRunDurationCollector(&durations_); }
  ~ExecutionCounter() { SetRunDurationCollector(nullptr); }
  ExecutionCounter(const ExecutionCounter&) = delete;
  ExecutionCounter& operator=(const ExecutionCounter&) = delete;
  int64_t count() const { return static_cast<int64_t>(durations_.size()); }

 private:
  std::vector<double> durations_;
};

std::shared_ptr<const TestResult> RunHeteroTrialZero(const GeneratedInstance& instance) {
  TestPlan plan;
  plan.Add(instance.plan);
  return RunUnitTestShared(*instance.test, plan, /*trial=*/0);
}

void ExpectSameVerdict(const Verdict& actual, const Verdict& expected) {
  EXPECT_EQ(actual.kind, expected.kind);
  EXPECT_EQ(actual.p_value, expected.p_value);
  EXPECT_EQ(actual.hetero_failures, expected.hetero_failures);
  EXPECT_EQ(actual.hetero_trials, expected.hetero_trials);
  EXPECT_EQ(actual.homo_failures, expected.homo_failures);
  EXPECT_EQ(actual.homo_trials, expected.homo_trials);
  EXPECT_EQ(actual.witness_failure, expected.witness_failure);
}

TEST(TestRunnerTest, DeterministicCandidateExecutesEachPlanOnce) {
  // The protocol mismatch never draws from the per-trial RNG, so each of its
  // three plans (heterogeneous, homogeneous "true", homogeneous "false") has
  // one outcome at every trial: each executes once, and the remaining trials
  // are answered from that result. The logical accounting is unchanged.
  GeneratedInstance instance = MakeInstance(
      "minikv.TestThriftAdminCreateTable", "hbase.regionserver.thrift.compact",
      ValueAssigner::UniformGroup("ThriftServer", "true", "false"));
  int64_t executions = 0;
  ExecutionCounter counter;
  Verdict verdict = TestRunner().Verify(instance, &executions);
  ASSERT_EQ(verdict.kind, Verdict::Kind::kConfirmedUnsafe);
  EXPECT_EQ(verdict.hetero_trials, 6);
  EXPECT_EQ(verdict.hetero_failures, 6);
  EXPECT_EQ(verdict.homo_trials, 12);
  EXPECT_EQ(verdict.homo_failures, 0);
  EXPECT_EQ(executions, 18);
  EXPECT_EQ(counter.count(), 3) << "one heterogeneous run and one per control";
}

// The first value pair of `param` under which the verdict of `test_id` enters
// hypothesis testing (first-trial candidate), so that every kind of trial runs.
GeneratedInstance FirstCandidate(const std::string& test_id, const std::string& group,
                                 const std::string& param) {
  const char* values[] = {"1", "2", "3", "5", "8", "13", "21", "35", "55", "89"};
  for (const char* a : values) {
    for (const char* b : values) {
      if (std::string(a) == b) {
        continue;
      }
      GeneratedInstance instance =
          MakeInstance(test_id, param, ValueAssigner::UniformGroup(group, a, b));
      int64_t executions = 0;
      if (TestRunner().Verify(instance, &executions).kind !=
          Verdict::Kind::kNotCandidate) {
        return instance;
      }
    }
  }
  ADD_FAILURE() << "no first-trial candidate for " << test_id;
  return MakeInstance(test_id, param, ValueAssigner::UniformGroup(group, "1", "2"));
}

TEST(TestRunnerTest, SeededFlakyTestsExecuteEveryLogicalRun) {
  // The seeded-flaky tests draw from the per-trial RNG, so no result of
  // theirs stands for another trial: every logical run executes, except the
  // trial-0 heterogeneous run when the caller hands it in.
  for (const char* test_id :
       {"minidfs.TestFlakyReplicationMonitor", "minikv.TestFlakyMasterFailover",
        "ministream.TestFlakyCheckpointBarrier"}) {
    GeneratedInstance instance =
        FirstCandidate(test_id, "Client", "hbase.client.retries.number");
    int64_t executions = 0;
    Verdict verdict;
    {
      ExecutionCounter counter;
      verdict = TestRunner().Verify(instance, &executions);
      EXPECT_EQ(counter.count(), executions) << test_id;
    }
    EXPECT_GT(executions, 3) << test_id << " must reach hypothesis testing";

    std::shared_ptr<const TestResult> first = RunHeteroTrialZero(instance);
    ASSERT_TRUE(first->trial_sensitive) << test_id;
    int64_t handed_executions = 0;
    ExecutionCounter counter;
    ExpectSameVerdict(TestRunner().Verify(instance, &handed_executions, first), verdict);
    EXPECT_EQ(handed_executions, executions) << test_id;
    EXPECT_EQ(counter.count(), executions - 1) << test_id;
  }
}

TEST(TestRunnerTest, HandedTrialZeroResultSavesExactlyOneExecution) {
  // Bisection's failing one-instance pool is the verifier's trial-0
  // heterogeneous run: handing it in answers that trial and nothing else.
  GeneratedInstance instance = MakeInstance(
      "minikv.TestThriftAdminCreateTable", "hbase.regionserver.thrift.compact",
      ValueAssigner::UniformGroup("ThriftServer", "true", "false"));
  int64_t executions = 0;
  int64_t executed = 0;
  Verdict verdict;
  {
    ExecutionCounter counter;
    verdict = TestRunner().Verify(instance, &executions);
    executed = counter.count();
  }
  std::shared_ptr<const TestResult> first = RunHeteroTrialZero(instance);
  ASSERT_FALSE(first->passed);
  ASSERT_FALSE(first->trial_sensitive);

  int64_t handed_executions = 0;
  ExecutionCounter counter;
  ExpectSameVerdict(TestRunner().Verify(instance, &handed_executions, first), verdict);
  EXPECT_EQ(handed_executions, executions);
  EXPECT_EQ(counter.count(), executed - 1);
}

}  // namespace
}  // namespace zebra
