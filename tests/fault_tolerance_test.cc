// Tests for the fault-tolerant campaign machinery: deterministic fault
// injection (crash / hang / garbled-frame / slow-worker), the watchdog
// deadline, poisoned-unit quarantine, and crash-safe journal/resume. The
// faults are real process faults: they fire inside the distributed fabric's
// spawned agents, which crash with _Exit, hang in pause() until the lease
// watchdog SIGKILLs them, or write a corrupt frame. The invariant under test
// everywhere: faults change how often units re-run and how long the campaign
// takes — never findings, Table-5 stage counts, or runs_to_first_detection,
// which must stay bitwise-identical to the uninterrupted sequential campaign
// (CI-gated via the *BitwiseIdentical* filter).
//
// Note on agent budgets: the fleet is fixed — a crash, garble, or watchdog
// SIGKILL permanently retires one agent (the coordinator throws only when
// none remain) — so each test provisions one more agent than the faults it
// injects.

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/common/error.h"
#include "src/core/campaign_journal.h"
#include "src/core/fault_injection.h"
#include "src/core/distributed_campaign.h"
#include "src/core/watchdog.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

// Full structural equality against the sequential reference (same contract
// as thread_pool_scheduler_test.cc). Durations, wall-clock, and the
// fault-tolerance counters themselves are accounting, not results.
void ExpectIdenticalResults(const CampaignReport& actual,
                            const CampaignReport& expected,
                            const std::string& label) {
  SCOPED_TRACE(label);

  ASSERT_EQ(actual.per_app.size(), expected.per_app.size());
  for (const auto& [app, counts] : expected.per_app) {
    ASSERT_TRUE(actual.per_app.count(app) > 0) << app;
    const AppStageCounts& got = actual.per_app.at(app);
    EXPECT_EQ(got.original, counts.original) << app;
    EXPECT_EQ(got.after_static, counts.after_static) << app;
    EXPECT_EQ(got.after_prerun, counts.after_prerun) << app;
    EXPECT_EQ(got.after_uncertainty, counts.after_uncertainty) << app;
    EXPECT_EQ(got.executed_runs, counts.executed_runs) << app;
    EXPECT_EQ(got.tests_total, counts.tests_total) << app;
    EXPECT_EQ(got.tests_with_nodes, counts.tests_with_nodes) << app;
  }

  ASSERT_EQ(actual.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(actual.findings.count(param) > 0) << param;
    const ParamFinding& got = actual.findings.at(param);
    EXPECT_EQ(got.owning_app, finding.owning_app) << param;
    EXPECT_EQ(got.witness_tests, finding.witness_tests) << param;
    EXPECT_EQ(got.example_failure, finding.example_failure) << param;
    EXPECT_EQ(got.best_p_value, finding.best_p_value) << param;
  }

  EXPECT_EQ(actual.first_trial_candidates, expected.first_trial_candidates);
  EXPECT_EQ(actual.filtered_by_hypothesis, expected.filtered_by_hypothesis);
  EXPECT_EQ(actual.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(actual.runs_to_first_detection, expected.runs_to_first_detection);
  EXPECT_EQ(actual.first_detection_param, expected.first_detection_param);
}

CampaignOptions SmallCampaign() {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  return options;
}

CampaignReport SequentialReference(const CampaignOptions& options) {
  Campaign sequential(FullSchema(), FullCorpus(), options);
  return sequential.Run();
}

TEST(FaultPlanTest, DecisionsAreSeedDeterministicAndWorkerIndependent) {
  FaultPlan plan;
  plan.seed = 42;
  plan.crash_rate = 0.5;
  plan.garble_rate = 0.25;

  FaultSpec first;
  FaultSpec second;
  int fired = 0;
  for (int unit = 0; unit < 64; ++unit) {
    std::string test_id = "app.Test" + std::to_string(unit);
    bool a = plan.Decide(/*worker=*/0, test_id, /*attempt=*/0, &first);
    bool b = plan.Decide(/*worker=*/7, test_id, /*attempt=*/0, &second);
    // Replayable under any unit-to-worker assignment: the worker index must
    // not influence the decision.
    ASSERT_EQ(a, b) << test_id;
    if (a) {
      EXPECT_EQ(first.kind, second.kind) << test_id;
      ++fired;
    }
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);

  // A different seed produces a different firing pattern.
  FaultPlan other = plan;
  other.seed = 43;
  int differences = 0;
  for (int unit = 0; unit < 64; ++unit) {
    std::string test_id = "app.Test" + std::to_string(unit);
    FaultSpec unused;
    if (plan.Decide(0, test_id, 0, &unused) !=
        other.Decide(0, test_id, 0, &unused)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultPlanTest, ExplicitSpecsMatchWildcards) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kHang;
  spec.test_id = "minikv.TestPutGet";
  spec.worker = -1;   // any worker
  spec.attempt = -1;  // any attempt
  plan.specs.push_back(spec);

  FaultSpec out;
  EXPECT_TRUE(plan.Decide(0, "minikv.TestPutGet", 0, &out));
  EXPECT_TRUE(plan.Decide(5, "minikv.TestPutGet", 3, &out));
  EXPECT_EQ(out.kind, FaultKind::kHang);
  EXPECT_FALSE(plan.Decide(0, "minikv.TestOther", 0, &out));
}

TEST(WatchdogTest, DeadlineFormula) {
  // Disabled floor disables the watchdog outright.
  EXPECT_EQ(WatchdogDeadlineSeconds(0.0, 8.0, {1.0, 2.0}), 0.0);
  EXPECT_EQ(WatchdogDeadlineSeconds(-1.0, 8.0, {1.0}), 0.0);
  // No samples yet: the floor alone covers the cold start.
  EXPECT_EQ(WatchdogDeadlineSeconds(60.0, 8.0, {}), 60.0);
  // floor + multiplier * p95.
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(static_cast<double>(i));  // p95 = 95
  }
  EXPECT_DOUBLE_EQ(WatchdogDeadlineSeconds(10.0, 2.0, samples), 10.0 + 2.0 * 95.0);
  EXPECT_DOUBLE_EQ(WatchdogDeadlineSeconds(1.0, 4.0, {0.5}), 1.0 + 4.0 * 0.5);
}

TEST(WatchdogTest, Percentile95ZeroSamplesFallsBackToFloor) {
  // The zero-samples regression: p95 of an empty window must be 0.0 — not a
  // read past the end, not NaN — so the deadline degrades to exactly the
  // structural floor until the first completion lands.
  EXPECT_EQ(Percentile95({}), 0.0);
  EXPECT_DOUBLE_EQ(WatchdogDeadlineSeconds(60.0, 8.0, {}), 60.0);
  EXPECT_DOUBLE_EQ(WatchdogDeadlineSeconds(0.25, 100.0, {}), 0.25);
}

TEST(WatchdogTest, Percentile95RankSelection) {
  // One sample is its own p95.
  EXPECT_DOUBLE_EQ(Percentile95({3.5}), 3.5);
  // Order-independent: the rank statistic sorts internally.
  EXPECT_DOUBLE_EQ(Percentile95({5.0, 1.0, 3.0}), 5.0);
  // 1..100 -> rank 95 exactly; 1..20 -> ceil(20 * 0.95) = rank 19.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(Percentile95(hundred), 95.0);
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) {
    twenty.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(Percentile95(twenty), 19.0);
}

TEST(FaultToleranceTest, CrashPlanBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  ASSERT_GT(expected.findings.size(), 0u);

  // Three first-attempt crashes on three different units, three agents
  // lost; the fourth finishes the campaign.
  DistributedCampaignOptions fabric;
  fabric.agents = 4;
  for (const char* test_id :
       {"minikv.TestPutGet", "ministream.TestDataExchange",
        "minikv.TestRestStatus"}) {
    FaultSpec spec;
    spec.kind = FaultKind::kCrash;
    spec.test_id = test_id;
    spec.attempt = 0;
    fabric.faults.specs.push_back(spec);
  }

  CampaignReport report =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, fabric);
  ExpectIdenticalResults(report, expected, "crash plan");
  EXPECT_GE(report.requeued_units, 1);
  EXPECT_TRUE(report.poisoned_units.empty());
}

TEST(FaultToleranceTest, HangWatchdogBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // The very first unit hangs on its first attempt. The watchdog (tight
  // floor so the test stays fast) SIGKILLs the stuck agent; the survivor
  // re-runs the unit and the campaign must not notice.
  CampaignOptions tuned = options;
  tuned.watchdog_floor_seconds = 0.25;
  tuned.watchdog_multiplier = 4.0;

  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  FaultSpec hang;
  hang.kind = FaultKind::kHang;
  hang.test_id = "minikv.TestPutGet";
  hang.attempt = 0;
  fabric.faults.specs.push_back(hang);

  CampaignReport report =
      RunDistributedCampaign(FullSchema(), FullCorpus(), tuned, fabric);
  ExpectIdenticalResults(report, expected, "hang + watchdog");
  EXPECT_EQ(report.hung_workers, 1);
  EXPECT_GE(report.requeued_units, 1);
  EXPECT_TRUE(report.poisoned_units.empty());
}

TEST(FaultToleranceTest, GarbledFrameBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  FaultSpec garble;
  garble.kind = FaultKind::kGarbledFrame;
  garble.test_id = "ministream.TestDataExchange";
  garble.attempt = 0;
  fabric.faults.specs.push_back(garble);

  CampaignReport report =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, fabric);
  ExpectIdenticalResults(report, expected, "garbled frame");
  EXPECT_GE(report.requeued_units, 1);
}

TEST(FaultToleranceTest, SlowWorkerBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // A slow worker must ride out the default watchdog untouched: slowness is
  // not a fault, just load.
  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  FaultSpec slow;
  slow.kind = FaultKind::kSlowWorker;
  slow.test_id = "minikv.TestPutGet";
  slow.attempt = -1;
  slow.slow_seconds = 0.05;
  fabric.faults.specs.push_back(slow);

  CampaignReport report =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, fabric);
  ExpectIdenticalResults(report, expected, "slow worker");
  EXPECT_EQ(report.hung_workers, 0);
  EXPECT_EQ(report.requeued_units, 0);
}

TEST(FaultToleranceTest, PoisonedUnitQuarantinedAndCampaignCompletes) {
  CampaignOptions options = SmallCampaign();
  options.watchdog_floor_seconds = 0.2;
  options.watchdog_multiplier = 4.0;
  options.unit_attempt_limit = 2;

  // This unit hangs on EVERY attempt: without quarantine the scheduler
  // would burn agents on it forever. After two watchdog kills it must be
  // poisoned, folded as an empty stub, and the rest of the campaign must
  // still complete with the one surviving agent. Each hung agent also held
  // a healthy unit queued behind the hang (pipeline depth 2, pinned here
  // because the default is 1); that unit was never running, so it goes back
  // uncharged and is not poisoned.
  DistributedCampaignOptions fabric;
  fabric.agents = 3;
  fabric.pipeline_depth = 2;
  FaultSpec hang;
  hang.kind = FaultKind::kHang;
  hang.test_id = "minikv.TestPutGet";
  hang.attempt = -1;
  fabric.faults.specs.push_back(hang);

  CampaignReport report =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, fabric);
  ASSERT_EQ(report.poisoned_units.size(), 1u);
  EXPECT_EQ(report.poisoned_units[0], "minikv.TestPutGet");
  EXPECT_EQ(report.hung_workers, 2);
  // Both apps still ran to completion around the quarantined unit.
  EXPECT_EQ(report.per_app.size(), 2u);
  EXPECT_GT(report.total_unit_test_runs, 0);
}

TEST(FaultToleranceTest, JournalResumeBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fault_resume.zj";
  std::remove(path.c_str());

  // First invocation "crashes" (abort hook) after three folds; the journal
  // holds exactly those three unit results.
  DistributedCampaignOptions first;
  first.agents = 2;
  first.journal_path = path;
  first.abort_after_folds = 3;
  CampaignReport partial =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, first);
  EXPECT_LT(partial.total_unit_test_runs, expected.total_unit_test_runs);

  // The resumed campaign replays the journal prefix and runs only the rest —
  // and must be bitwise-identical to the uninterrupted reference.
  DistributedCampaignOptions second;
  second.agents = 2;
  second.journal_path = path;
  second.resume = true;
  CampaignReport resumed =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, second);
  ExpectIdenticalResults(resumed, expected, "journal resume");
  EXPECT_EQ(resumed.resumed_units, 3);
  std::remove(path.c_str());
}

TEST(FaultToleranceTest, GroupCommitJournalResumeBitwiseIdentical) {
  // Same crash/resume contract as JournalResumeBitwiseIdentical, but under
  // the batched sync policy: records ride several-per-fdatasync, the abort
  // lands mid-batch, and the resumed campaign must still be
  // bitwise-identical to the uninterrupted reference.
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fault_batch_resume.zj";
  std::remove(path.c_str());

  DistributedCampaignOptions first;
  first.agents = 2;
  first.journal_path = path;
  first.journal_sync_batch = 4;
  first.abort_after_folds = 3;  // mid-batch: 3 folded, none past a boundary
  CampaignReport partial =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, first);
  EXPECT_LT(partial.total_unit_test_runs, expected.total_unit_test_runs);

  DistributedCampaignOptions second;
  second.agents = 2;
  second.journal_path = path;
  second.journal_sync_batch = 4;
  second.resume = true;
  CampaignReport resumed =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, second);
  ExpectIdenticalResults(resumed, expected, "group-commit journal resume");
  EXPECT_EQ(resumed.resumed_units, 3);
  EXPECT_EQ(resumed.journal_append_failures, 0);
  std::remove(path.c_str());
}

TEST(FaultToleranceTest, TornJournalTailResumeBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fault_torn_resume.zj";
  std::remove(path.c_str());

  DistributedCampaignOptions first;
  first.agents = 2;
  first.journal_path = path;
  first.abort_after_folds = 5;
  RunDistributedCampaign(FullSchema(), FullCorpus(), options, first);

  // Smear garbage over the tail of the last record, as a crash mid-append
  // would: the checksum rejects the record, resume keeps the 4-record
  // prefix, re-runs the rest, and the result is still bitwise-identical.
  struct stat info {};
  ASSERT_EQ(::stat(path.c_str(), &info), 0);
  ASSERT_GT(info.st_size, 16);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(info.st_size - 8);
    file.write("ZZZZZZZZ", 8);
  }

  DistributedCampaignOptions second;
  second.agents = 2;
  second.journal_path = path;
  second.resume = true;
  CampaignReport resumed =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, second);
  ExpectIdenticalResults(resumed, expected, "torn journal resume");
  EXPECT_EQ(resumed.resumed_units, 4);
  std::remove(path.c_str());
}

TEST(FaultToleranceTest, ResumeWithDifferentCampaignThrows) {
  CampaignOptions options = SmallCampaign();
  const std::string path = ::testing::TempDir() + "/fault_mismatch.zj";
  std::remove(path.c_str());

  DistributedCampaignOptions first;
  first.agents = 1;
  first.journal_path = path;
  first.abort_after_folds = 2;
  RunDistributedCampaign(FullSchema(), FullCorpus(), options, first);

  // Resuming with result-affecting options changed must refuse, not
  // silently mix two campaigns' results.
  CampaignOptions different = options;
  different.enable_pooling = false;
  DistributedCampaignOptions second;
  second.agents = 1;
  second.journal_path = path;
  second.resume = true;
  EXPECT_THROW(
      RunDistributedCampaign(FullSchema(), FullCorpus(), different, second),
      Error);
  std::remove(path.c_str());
}

TEST(FaultToleranceTest, FaultsUnderJournalResumeBitwiseIdentical) {
  // Compose the layers: a crash fault during the first (aborted) run AND a
  // crash during the resumed run, with the journal carrying state across.
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fault_compose.zj";
  std::remove(path.c_str());

  DistributedCampaignOptions first;
  first.agents = 3;
  first.journal_path = path;
  first.abort_after_folds = 4;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.test_id = "minikv.TestPutGet";
  crash.attempt = 0;
  first.faults.specs.push_back(crash);
  RunDistributedCampaign(FullSchema(), FullCorpus(), options, first);

  DistributedCampaignOptions second;
  second.agents = 3;
  second.journal_path = path;
  second.resume = true;
  FaultSpec crash_later;
  crash_later.kind = FaultKind::kCrash;
  crash_later.test_id = "ministream.TestDataExchange";
  crash_later.attempt = 0;
  second.faults.specs.push_back(crash_later);
  CampaignReport resumed =
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, second);
  ExpectIdenticalResults(resumed, expected, "faults + journal resume");
  EXPECT_EQ(resumed.resumed_units, 4);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zebra
