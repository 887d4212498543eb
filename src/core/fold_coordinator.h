// FoldCoordinator: the canonical fold every parallel transport shares.
//
// The paper tests in parallel (§4) because test instances are independent.
// The one coupling between (app, unit test) work units is the
// frequent-failure rule, so a parallel campaign runs units speculatively,
// each under a snapshot of the globally-unsafe set, and folds their results
// with CampaignFolder in the canonical unit order (options.apps order, then
// corpus registration order) that Campaign::Run executes them in. The thread
// pool (thread_pool_scheduler.h) and the distributed fabric
// (distributed_campaign.h) are transports: each moves a unit to a worker and
// its result back. Everything around the fold lives here, once:
//
//   * the canonical unit list and the per-app enumeration counts (BeginApp);
//   * the crash-safe journal (campaign_journal.h): a resumed campaign replays
//     the valid prefix through the fold, and every later fold is appended;
//   * the results buffered ahead of the cursor, each with its snapshot;
//   * the confirmations of units not yet folded, and the snapshot each
//     dispatch projects from them;
//   * the fold-point check (CampaignFolder::CheckSnapshot);
//   * the dispatch queue: attempts, capped exponential backoff, quarantine,
//     and the empty stub a quarantined unit folds as;
//   * the abort hook and the cancel flag;
//   * report finalization.
//
// Staleness. A snapshot can be wrong two ways on a parameter the unit
// tested. It can miss a parameter the fold holds unsafe at the unit's turn
// (under-projected), or hold one the fold does not (over-projected). Either
// way the result is not the sequential campaign's and must not fold. At the
// unit's own fold point globally_unsafe() is exactly the set a sequential
// campaign hands the unit, so a result whose snapshot agrees with it on
// every tested parameter is bitwise the sequential result.
//   * Under-projection is final as soon as it shows. The folded set only
//     grows (Fold only inserts) and a result's snapshot is frozen, so a
//     result under-projected now is under-projected at its own turn; it can
//     be condemned wherever it sits in the buffer.
//   * Over-projection is final only at the cursor: a fold still to come may
//     confirm the extra parameter before the cursor gets there.
// A wrong snapshot therefore costs a re-run, never a finding.
//
// Projection. Both transports dispatch a unit under Project(unit): the
// folded set plus what the confirmations of earlier units not yet folded
// push to the threshold. Transports record each confirmation as a running
// attempt makes it (Confirm) and drop an attempt's confirmations when it
// ends without a result (Withdraw); Advance drops them once their unit
// folds and Rerun once its result is condemned. A projection counts
// confirmations that may still be withdrawn, so it can be over-projected;
// it can miss confirmations not yet reported, so it can be under-projected.
// At the cursor it is the exact folded set. Project(i) never holds more
// than Project(j) for i < j, so a set projected for the smallest of several
// units is safe for all of them (the fabric sends one set per agent).
//
// The transport keeps how a unit travels and its own counters. The remedy
// for a condemned result is the same for both: Condemned + Rerun put the
// unit back at the head of the queue, and a cursor unit re-dispatched from
// there runs under the exact set and folds.
//
// The coordinator is not internally synchronized. A transport that calls it
// from several threads serializes, under one lock, every call that reads or
// changes the queue, the attempts, the recorded confirmations or the folded
// set (TakeNext, attempt, Requeue, Confirm, Withdraw, Project, Rerun,
// Advance, folder()). Buffered results and the journal are touched only by
// the thread that folds.

#ifndef SRC_CORE_FOLD_COORDINATOR_H_
#define SRC_CORE_FOLD_COORDINATOR_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/campaign_journal.h"
#include "src/testkit/run_cache.h"

namespace zebra {

// One (app, unit test) work unit; its index in FoldCoordinator::units() is
// its canonical position.
struct WorkUnit {
  size_t app_index = 0;
  const UnitTestDef* test = nullptr;
};

// Fold-side controls every transport accepts.
struct FoldOptions {
  // Crash-safe journal (campaign_journal.h). Non-empty: append every folded
  // unit result to this file. With resume=true an existing journal's valid
  // prefix is replayed instead of re-executed; a fingerprint mismatch
  // (different apps, corpus or result-affecting options) throws.
  std::string journal_path;
  bool resume = false;

  // Journal durability: records per fdatasync (group commit). 1 syncs every
  // append (the default and the safest); N trades at most the last N-1
  // unsynced records of resume coverage for fewer disk barriers. Never
  // affects findings.
  int journal_sync_batch = 1;

  // Test hook simulating a coordinator crash: stop and return after this
  // many live folds (journal replay and quarantine stubs do not count).
  // 0 = disabled. The report is partial; the journal holds the fold prefix.
  int abort_after_folds = 0;
};

// Monotonic clock in seconds: dispatch backoff, lease and heartbeat times.
double SteadySeconds();

class FoldCoordinator {
 public:
  // Resolves `options` the way Campaign's constructor does, lists the units,
  // opens and replays the journal, and queues every unit left to run. `name`
  // prefixes log lines. Throws Error when the journal cannot be opened or
  // belongs to another campaign.
  FoldCoordinator(const ConfSchema& schema, const UnitTestRegistry& corpus,
                  CampaignOptions options, const FoldOptions& fold,
                  std::string name);
  // Worker threads hold references to the coordinator.
  FoldCoordinator(const FoldCoordinator&) = delete;
  FoldCoordinator& operator=(const FoldCoordinator&) = delete;

  const CampaignOptions& options() const { return engine_.options(); }
  const std::vector<WorkUnit>& units() const { return units_; }
  const CampaignFolder& folder() const { return folder_; }
  size_t cursor() const { return cursor_; }
  size_t remaining() const { return units_.size() - cursor_; }

  // The in-progress report, for the transport's own counters.
  CampaignReport& report() { return folder_.report(); }

  // False once every unit is folded, the abort hook fired, or the campaign's
  // cancel_flag is raised (logged once).
  bool Active();

  // ---- Dispatch queue ------------------------------------------------------

  // Pops the first queued unit whose backoff has elapsed, keeping queue
  // order. Returns false when none can go; *release (if given) is then the
  // earliest time a held unit can, or negative when the queue is empty.
  bool TakeNext(size_t* unit, double* release = nullptr);

  // Failed attempts charged to `unit` so far: the attempt number of its next
  // dispatch.
  int attempt(size_t unit) const { return attempts_[unit]; }

  // Puts units whose attempt was lost back at the head of the queue, in
  // canonical order (the fold waits on the smallest index), and counts them
  // in requeued_units. With `charge` each costs an attempt: a unit reaching
  // unit_attempt_limit is quarantined (it folds as an empty stub and is
  // listed in poisoned_units); the rest wait
  // min(requeue_backoff_cap_seconds, requeue_backoff_seconds * 2^(k-1))
  // after their k-th failure. Without `charge` they may go at once.
  void Requeue(std::vector<size_t> units, bool charge);

  // ---- Projection ----------------------------------------------------------

  // Records that the current attempt of `unit`, which the fold has not
  // reached, confirmed `param`.
  void Confirm(size_t unit, const std::string& param);

  // Drops every confirmation recorded for `unit`: its attempt ended without
  // a result.
  void Withdraw(size_t unit);

  // The globally-unsafe set to dispatch `unit` under
  // (CampaignFolder::ProjectGloballyUnsafe over the recorded confirmations).
  std::set<std::string> Project(size_t unit) const;

  // ---- Fold ----------------------------------------------------------------

  // Buffers a unit's result with the globally-unsafe set it ran under.
  void Buffer(size_t unit, UnitWorkResult result,
              std::set<std::string> snapshot);

  // Folds at the cursor while it can: quarantined units as stubs, buffered
  // results whose snapshot agrees with the fold-point set. Stops at a
  // buffered result that disagrees, which stays buffered. Drops the
  // confirmations of every unit it folded.
  void Advance();

  // Buffered results that can never fold as they are, with the reason:
  // under-projected ones anywhere, an over-projected one at the cursor.
  std::vector<std::pair<size_t, const char*>> Condemned() const;

  // Drops each condemned result (in the ascending order Condemned lists
  // them) with its confirmations and puts its unit back at the head of the
  // queue, in canonical order, at no attempt cost.
  void Rerun(const std::vector<std::pair<size_t, const char*>>& condemned);

  // Appends to the journal every fold made since the last call. Advance only
  // queues the records, so a transport can fold under its lock and write
  // outside it.
  void FlushJournal();

  // Finalizes the report: apps still unseen (unless stopped early),
  // requeued/resumed/poisoned units, journal failures and wall time. Given
  // `cache_totals`, the report's cache counters come from them. The
  // coordinator is spent afterwards.
  CampaignReport Finish(const RunCache::Stats* cache_totals = nullptr);

 private:
  void BeginAppsThrough(size_t app_index_exclusive);
  void FoldAtCursor(UnitWorkResult unit);

  struct BufferedResult {
    UnitWorkResult unit;
    std::set<std::string> snapshot;
  };

  const std::string name_;
  const double start_seconds_;
  const int abort_after_folds_;
  // Coordinator-side engine: resolves the options and supplies the
  // enumeration-stage counts. It executes nothing.
  Campaign engine_;
  std::vector<WorkUnit> units_;
  std::vector<int> units_per_app_;
  CampaignFolder folder_;
  size_t apps_begun_ = 0;
  size_t cursor_ = 0;
  int live_folds_ = 0;
  bool stopped_ = false;

  std::unique_ptr<CampaignJournal> journal_;
  std::vector<std::pair<size_t, UnitWorkResult>> unjournaled_;

  std::map<size_t, BufferedResult> buffered_;
  // Confirmations of units the fold has not reached, by unit index.
  std::map<size_t, CampaignFolder::PendingUnit> pending_;

  std::deque<size_t> queue_;
  std::vector<int> attempts_;
  std::vector<double> not_before_;
  std::set<size_t> poisoned_;

  int64_t requeued_units_ = 0;
  int64_t resumed_units_ = 0;
};

}  // namespace zebra

#endif  // SRC_CORE_FOLD_COORDINATOR_H_
