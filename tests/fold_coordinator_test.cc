// Tests for the FoldCoordinator on synthetic unit results: journal replay,
// the attempt/backoff/quarantine policy, the fold-point check and the
// condemned wave, projection from recorded confirmations, and the abort
// hook. No unit test executes here; the
// coordinator is driven the way a transport drives it.

#include "src/core/fold_coordinator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/campaign_journal.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

CampaignOptions MinikvOptions() {
  CampaignOptions options;
  options.apps = {"minikv"};
  return options;
}

// A synthetic result for canonical unit `index`: it tested `tested`,
// confirmed `confirmed`, and executed `runs` dynamic-phase runs.
UnitWorkResult Result(const FoldCoordinator& coordinator, size_t index,
                      std::vector<std::string> tested = {},
                      std::vector<std::string> confirmed = {}, int64_t runs = 1) {
  UnitWorkResult unit;
  unit.app = "minikv";
  unit.test_id = coordinator.units()[index].test->id;
  unit.executed_runs = runs;
  unit.params_tested = std::move(tested);
  for (const std::string& param : confirmed) {
    UnitConfirmation confirmation;
    confirmation.param = param;
    confirmation.p_value = 0.01;
    unit.confirmations.push_back(confirmation);
  }
  return unit;
}

// Takes every queued unit, in order.
std::vector<size_t> Drain(FoldCoordinator& coordinator) {
  std::vector<size_t> taken;
  size_t unit = 0;
  while (coordinator.TakeNext(&unit)) {
    taken.push_back(unit);
  }
  return taken;
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(FoldCoordinatorTest, ReplaysValidPrefixAndStopsAtOutOfOrderRecord) {
  const CampaignOptions options = MinikvOptions();
  const std::string path = TempPath("fold_replay.zj");
  std::vector<std::string> ids;
  for (const UnitTestDef* test : FullCorpus().ForApp("minikv")) {
    ids.push_back(test->id);
  }
  ASSERT_GE(ids.size(), 4u);
  {
    CampaignJournal journal(path, CampaignJournal::Fingerprint(options, FullCorpus()),
                            /*resume=*/false);
    for (size_t index : {0, 1, 3}) {  // record 3 skips canonical unit 2
      UnitWorkResult unit;
      unit.app = "minikv";
      unit.test_id = ids[index];
      unit.executed_runs = 10 + static_cast<int64_t>(index);
      ASSERT_TRUE(journal.Append(index, unit));
    }
  }

  FoldOptions fold;
  fold.journal_path = path;
  fold.resume = true;
  FoldCoordinator coordinator(FullSchema(), FullCorpus(), options, fold, "test");
  EXPECT_EQ(coordinator.cursor(), 2u);
  EXPECT_EQ(coordinator.remaining(), ids.size() - 2);
  std::vector<size_t> queued = Drain(coordinator);
  ASSERT_FALSE(queued.empty());
  EXPECT_EQ(queued.front(), 2u);  // the out-of-order record is re-run

  CampaignReport report = coordinator.Finish();
  EXPECT_EQ(report.resumed_units, 2);
  EXPECT_EQ(report.per_app.at("minikv").executed_runs, 10 + 11);
  std::remove(path.c_str());
}

TEST(FoldCoordinatorTest, ChargesBackOffThenQuarantineIntoJournaledStub) {
  CampaignOptions options = MinikvOptions();
  options.unit_attempt_limit = 3;
  options.requeue_backoff_seconds = 0.05;
  options.requeue_backoff_cap_seconds = 0.08;
  const std::string path = TempPath("fold_quarantine.zj");
  FoldOptions fold;
  fold.journal_path = path;
  FoldCoordinator coordinator(FullSchema(), FullCorpus(), options, fold, "test");
  Drain(coordinator);

  // The k-th charge holds the unit for min(cap, base * 2^(k-1)): 0.05, then
  // 0.08 (0.1 capped). A held unit is skipped until its release time.
  for (double expected_backoff : {0.05, 0.08}) {
    const double before = SteadySeconds();
    coordinator.Requeue({0}, /*charge=*/true);
    const double after = SteadySeconds();
    size_t unit = 99;
    double release = 0.0;
    if (!coordinator.TakeNext(&unit, &release)) {
      EXPECT_GE(release, before + expected_backoff);
      EXPECT_LE(release, after + expected_backoff);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(release - SteadySeconds() + 0.001));
      ASSERT_TRUE(coordinator.TakeNext(&unit));
    } else {
      EXPECT_GE(SteadySeconds(), before + expected_backoff);  // a stalled host
    }
    EXPECT_EQ(unit, 0u);
  }
  EXPECT_EQ(coordinator.attempt(0), 2);

  // The third failure reaches the limit: quarantined, not queued.
  coordinator.Requeue({0}, /*charge=*/true);
  size_t unit = 0;
  double release = 0.0;
  EXPECT_FALSE(coordinator.TakeNext(&unit, &release));
  EXPECT_LT(release, 0.0);  // the queue is empty

  // At the cursor it folds as an empty stub, journaled like any fold.
  coordinator.Advance();
  EXPECT_EQ(coordinator.cursor(), 1u);
  const std::string id = coordinator.units()[0].test->id;
  CampaignReport report = coordinator.Finish();
  EXPECT_EQ(report.poisoned_units, std::vector<std::string>{id});
  EXPECT_EQ(report.requeued_units, 2);
  EXPECT_EQ(report.journal_append_failures, 0);

  CampaignJournal journal(path, CampaignJournal::Fingerprint(options, FullCorpus()),
                          /*resume=*/true);
  ASSERT_EQ(journal.recovered().size(), 1u);
  EXPECT_EQ(journal.recovered()[0].first, 0u);
  EXPECT_EQ(journal.recovered()[0].second.test_id, id);
  EXPECT_EQ(journal.recovered()[0].second.executed_runs, 0);
  EXPECT_TRUE(journal.recovered()[0].second.confirmations.empty());
  std::remove(path.c_str());
}

TEST(FoldCoordinatorTest, UnchargedRequeueSkipsBackoffAndAttempt) {
  CampaignOptions options = MinikvOptions();
  options.requeue_backoff_seconds = 100.0;
  FoldCoordinator coordinator(FullSchema(), FullCorpus(), options, FoldOptions{},
                              "test");
  Drain(coordinator);
  coordinator.Requeue({2, 1}, /*charge=*/false);
  EXPECT_EQ(Drain(coordinator), (std::vector<size_t>{1, 2}));  // canonical order
  EXPECT_EQ(coordinator.attempt(1), 0);
  EXPECT_EQ(coordinator.Finish().requeued_units, 2);
}

TEST(FoldCoordinatorTest, CondemnsUnderProjectionAnywhereOverProjectionAtCursor) {
  CampaignOptions options = MinikvOptions();
  options.frequent_failure_threshold = 1;  // one confirmation makes it unsafe
  FoldCoordinator coordinator(FullSchema(), FullCorpus(), options, FoldOptions{},
                              "test");
  ASSERT_GE(coordinator.units().size(), 4u);
  Drain(coordinator);

  // Unit 0 confirms p.a; from then on the fold holds p.a unsafe.
  coordinator.Buffer(0, Result(coordinator, 0, {"p.a"}, {"p.a"}), {});
  // Unit 2 tested p.a without knowing: under-projected.
  coordinator.Buffer(2, Result(coordinator, 2, {"p.a"}), {});
  // Unit 3 assumed p.b unsafe, which nothing confirmed: over-projected.
  coordinator.Buffer(3, Result(coordinator, 3, {"p.b"}), {"p.b"});
  coordinator.Advance();  // folds unit 0, then waits on unit 1
  EXPECT_EQ(coordinator.cursor(), 1u);
  EXPECT_EQ(coordinator.folder().globally_unsafe(), std::set<std::string>{"p.a"});

  using Wave = std::vector<std::pair<size_t, const char*>>;
  Wave wave = coordinator.Condemned();
  ASSERT_EQ(wave.size(), 1u);  // unit 3 may still be confirmed in time
  EXPECT_EQ(wave[0].first, 2u);

  // At the cursor an over-projected result is condemned too, and Advance
  // stops on it.
  coordinator.Buffer(1, Result(coordinator, 1, {"p.c"}), {"p.a", "p.c"});
  coordinator.Advance();
  EXPECT_EQ(coordinator.cursor(), 1u);
  wave = coordinator.Condemned();
  ASSERT_EQ(wave.size(), 2u);
  EXPECT_EQ(wave[0].first, 1u);
  EXPECT_EQ(wave[1].first, 2u);

  // The remedy re-queues the wave at the head, in canonical order, at no
  // attempt cost; the re-run under the exact set folds.
  coordinator.Rerun(wave);
  EXPECT_EQ(Drain(coordinator), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(coordinator.attempt(1), 0);
  coordinator.Buffer(1, Result(coordinator, 1, {"p.a", "p.c"}),
                     coordinator.folder().globally_unsafe());
  coordinator.Advance();
  EXPECT_EQ(coordinator.cursor(), 2u);
  EXPECT_EQ(coordinator.Finish().requeued_units, 0);  // re-runs are not requeues
}

TEST(FoldCoordinatorTest, ProjectionCountsLowerUnitsUntilWithdrawnFoldedOrRerun) {
  CampaignOptions options = MinikvOptions();
  options.frequent_failure_threshold = 2;
  FoldCoordinator coordinator(FullSchema(), FullCorpus(), options, FoldOptions{},
                              "test");
  ASSERT_GE(coordinator.units().size(), 5u);
  Drain(coordinator);
  using Set = std::set<std::string>;

  // One test confirming p.a twice is one test: below the threshold.
  coordinator.Confirm(1, "p.a");
  coordinator.Confirm(1, "p.a");
  EXPECT_EQ(coordinator.Project(4), Set{});

  // A second test reaches it, but only for the units after both.
  coordinator.Confirm(3, "p.a");
  EXPECT_EQ(coordinator.Project(0), Set{});
  EXPECT_EQ(coordinator.Project(3), Set{});
  EXPECT_EQ(coordinator.Project(4), Set{"p.a"});

  // A withdrawn attempt's confirmations drop out.
  coordinator.Withdraw(3);
  EXPECT_EQ(coordinator.Project(4), Set{});

  // Advance drops what was recorded for every unit it folds: unit 1 folds
  // with a result that confirmed nothing, so its recorded p.a stops counting.
  coordinator.Confirm(2, "p.a");
  EXPECT_EQ(coordinator.Project(3), Set{"p.a"});
  coordinator.Buffer(0, Result(coordinator, 0), {});
  coordinator.Buffer(1, Result(coordinator, 1), {});
  coordinator.Advance();
  ASSERT_EQ(coordinator.cursor(), 2u);
  EXPECT_EQ(coordinator.Project(3), Set{});
  EXPECT_EQ(coordinator.Project(2), coordinator.folder().globally_unsafe());

  // Rerun withdraws a condemned result's confirmations: unit 2's result is
  // over-projected at the cursor, so only unit 3's p.a is left.
  coordinator.Confirm(3, "p.a");
  EXPECT_EQ(coordinator.Project(4), Set{"p.a"});
  coordinator.Buffer(2, Result(coordinator, 2, {"p.z"}, {"p.a"}), {"p.z"});
  coordinator.Advance();
  EXPECT_EQ(coordinator.cursor(), 2u);
  std::vector<std::pair<size_t, const char*>> wave = coordinator.Condemned();
  ASSERT_EQ(wave.size(), 1u);
  coordinator.Rerun(wave);
  EXPECT_EQ(coordinator.Project(4), Set{});
  EXPECT_EQ(Drain(coordinator), std::vector<size_t>{2});
}

TEST(FoldCoordinatorTest, AbortAfterFoldsCountsLiveFoldsOnly) {
  CampaignOptions options = MinikvOptions();
  options.unit_attempt_limit = 1;
  const std::string path = TempPath("fold_abort.zj");
  {
    // A journaled prefix of one unit.
    FoldOptions first;
    first.journal_path = path;
    FoldCoordinator coordinator(FullSchema(), FullCorpus(), options, first, "test");
    coordinator.Buffer(0, Result(coordinator, 0), {});
    coordinator.Advance();
    coordinator.Finish();
  }

  FoldOptions fold;
  fold.journal_path = path;
  fold.resume = true;
  fold.abort_after_folds = 2;
  FoldCoordinator coordinator(FullSchema(), FullCorpus(), options, fold, "test");
  ASSERT_GE(coordinator.units().size(), 5u);
  EXPECT_EQ(coordinator.cursor(), 1u);
  Drain(coordinator);
  coordinator.Requeue({1}, /*charge=*/true);  // quarantined at once
  for (size_t index : {2, 3, 4}) {
    coordinator.Buffer(index, Result(coordinator, index), {});
  }
  EXPECT_TRUE(coordinator.Active());
  coordinator.Advance();
  // Replayed unit 0 and the stub for unit 1 do not count; units 2 and 3 do.
  EXPECT_EQ(coordinator.cursor(), 4u);
  EXPECT_FALSE(coordinator.Active());
  CampaignReport report = coordinator.Finish();
  EXPECT_EQ(report.resumed_units, 1);
  EXPECT_EQ(report.per_app.at("minikv").executed_runs, 3);  // units 0, 2, 3
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zebra
