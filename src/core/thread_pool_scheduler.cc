#include "src/core/thread_pool_scheduler.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/common/logging.h"
#include "src/core/campaign_journal.h"

namespace zebra {

namespace {

struct WorkUnit {
  size_t app_index = 0;
  const UnitTestDef* test = nullptr;
};

// One pre-sized slot per unit: the lock-free delivery channel. A unit is
// in flight on at most one worker at a time (the queue hands it out once,
// and a requeue happens only after the coordinator consumed the previous
// delivery), so a plain-write-then-release-store publication is race-free:
// the worker writes the payload fields, then stores `ready`; the coordinator
// observes `ready` with an acquire load before touching the payload.
struct ResultSlot {
  UnitWorkResult unit;
  std::set<std::string> snapshot;  // globally-unsafe set the unit ran under
  bool failed = false;             // injected fault or escaped exception
  bool hang = false;               // kHang specifically (hung_workers count)
  std::atomic<bool> ready{false};
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CampaignReport RunThreadPoolCampaign(const ConfSchema& schema,
                                     const UnitTestRegistry& corpus,
                                     CampaignOptions options, int workers) {
  ThreadPoolCampaignOptions pool;
  pool.workers = workers;
  return RunThreadPoolCampaign(schema, corpus, std::move(options), pool);
}

CampaignReport RunThreadPoolCampaign(const ConfSchema& schema,
                                     const UnitTestRegistry& corpus,
                                     CampaignOptions options,
                                     const ThreadPoolCampaignOptions& pool) {
  if (pool.workers < 1) {
    throw Error("thread-pool campaign requires at least one worker");
  }
  auto start = std::chrono::steady_clock::now();

  // Coordinator-side engine: resolves the canonical app order and supplies
  // enumeration-stage counts, exactly as the forked schedulers' parent does.
  // No unit-test executions happen on the coordinator thread.
  Campaign coordinator_engine(schema, corpus, std::move(options));
  const std::vector<std::string>& apps = coordinator_engine.options().apps;
  const CampaignOptions& resolved = coordinator_engine.options();

  std::vector<WorkUnit> units;
  std::vector<int> units_per_app(apps.size(), 0);
  for (size_t app_index = 0; app_index < apps.size(); ++app_index) {
    for (const UnitTestDef* test : corpus.ForApp(apps[app_index])) {
      units.push_back(WorkUnit{app_index, test});
      ++units_per_app[app_index];
    }
  }

  CampaignFolder folder(schema, resolved);
  size_t apps_begun = 0;
  auto begin_apps_through = [&](size_t app_index_exclusive) {
    while (apps_begun < app_index_exclusive) {
      const std::string& app = apps[apps_begun];
      folder.BeginApp(app,
                      coordinator_engine.generator().OriginalInstanceCount(app),
                      coordinator_engine.generator().StaticPrunedInstanceCount(app),
                      units_per_app[apps_begun]);
      ++apps_begun;
    }
  };

  size_t cursor = 0;
  int64_t hung_workers = 0;
  int64_t requeued_units = 0;
  int64_t resumed_units = 0;

  // Journal replay before any worker starts, so the remaining dispatch is
  // exactly the uninterrupted campaign's suffix (same code shape as the
  // forked scheduler — replay and live results go through one fold).
  std::unique_ptr<CampaignJournal> journal;
  if (!pool.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(
        pool.journal_path, CampaignJournal::Fingerprint(resolved, corpus),
        pool.resume, CampaignJournal::SyncPolicy{pool.journal_sync_batch});
    for (const auto& [index, unit] : journal->recovered()) {
      if (index != cursor || cursor >= units.size()) {
        ZLOG_WARN << "campaign journal: record out of canonical order; "
                     "ignoring the rest of the recovered prefix";
        break;
      }
      begin_apps_through(units[cursor].app_index + 1);
      folder.Fold(unit);
      ++cursor;
      ++resumed_units;
    }
    if (resumed_units > 0) {
      ZLOG_INFO << "campaign journal: resumed " << resumed_units << " of "
                << units.size() << " units from " << pool.journal_path;
    }
  }

  size_t remaining = units.size() - cursor;
  int worker_count =
      std::min<int>(pool.workers, std::max<size_t>(remaining, 1));

  // The shared cross-worker cache. Workers route executions through it via
  // Campaign::UseSharedRunCache; RunCache is internally synchronized.
  std::unique_ptr<RunCache> shared_cache;
  if (resolved.enable_run_cache && pool.share_run_cache) {
    shared_cache = std::make_unique<RunCache>(
        RunCache::Limits{resolved.cache_max_entries, resolved.cache_max_bytes});
  }

  // ---- Shared dispatch state (guarded by queue_mutex) -----------------------
  std::mutex queue_mutex;
  std::condition_variable queue_cv;  // workers wait here for work / stop
  std::deque<size_t> queue;
  std::vector<int> attempts(units.size(), 0);
  std::vector<double> not_before(units.size(), 0.0);
  // Confirmations of units the fold has not reached, by unit index. A running
  // attempt reports each one as it confirms it; delivery replaces the list
  // with the delivered one; the critical section that folds, discards or
  // fails the attempt erases it. Each dispatch projects its snapshot from
  // these plus the folder's state (CampaignFolder::ProjectGloballyUnsafe), so
  // every Fold also runs under queue_mutex: a confirmation is always either
  // pending or folded when a dispatch looks.
  std::map<size_t, CampaignFolder::PendingUnit> pending;
  bool stop = false;

  for (size_t i = cursor; i < units.size(); ++i) {
    queue.push_back(i);
  }

  // ---- Result delivery (lock-free slots + a wakeup cv) ----------------------
  std::vector<ResultSlot> slots(units.size());
  std::mutex results_mutex;
  std::condition_variable results_cv;  // coordinator waits here
  int ready_count = 0;                 // guarded by results_mutex

  std::atomic<int> alive_workers{worker_count};

  const FaultPlan& faults = pool.faults;

  // Worker body. Everything session-scoped lives on this thread: a private
  // ConfAgent (installed as Current() for the whole lifetime), a private
  // Campaign engine, and thread-local installation windows for the run cache
  // and duration collector inside RunUnit.
  auto worker_main = [&](int worker_index) {
    ScopedThreadConfAgent agent_scope;
    Campaign engine(schema, corpus, resolved);
    if (shared_cache != nullptr) {
      engine.UseSharedRunCache(shared_cache.get());
    }

    for (;;) {
      size_t unit_index = 0;
      int attempt = 0;
      std::set<std::string> snapshot;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        for (;;) {
          if (stop) {
            return;
          }
          // First dispatchable unit: queue order preserved, backoff-held
          // units skipped (the forked scheduler's dispatch rule).
          double now = NowSeconds();
          double earliest_release = -1.0;
          auto it = queue.begin();
          while (it != queue.end() && not_before[*it] > now) {
            earliest_release = earliest_release < 0
                                   ? not_before[*it]
                                   : std::min(earliest_release, not_before[*it]);
            ++it;
          }
          if (it != queue.end()) {
            unit_index = *it;
            queue.erase(it);
            break;
          }
          if (earliest_release < 0) {
            queue_cv.wait(lock);  // empty queue: wait for requeue or stop
          } else {
            // Every queued unit is backing off: sleep until the earliest
            // release (or an earlier requeue/stop notification).
            queue_cv.wait_for(lock, std::chrono::duration<double>(
                                        earliest_release - now));
          }
        }
        attempt = attempts[unit_index];
        snapshot = folder.ProjectGloballyUnsafe(pending, unit_index);
      }

      const WorkUnit& work = units[unit_index];
      ResultSlot& slot = slots[unit_index];
      // Adds to this unit's pending confirmations; caller holds queue_mutex.
      auto record_pending = [&](const std::string& param) {
        auto [entry, inserted] = pending.try_emplace(unit_index);
        if (inserted) {
          entry->second.test_id = work.test->id;
        }
        entry->second.confirmed.push_back(param);
      };
      slot.failed = false;
      slot.hang = false;

      bool skip_execution = false;
      bool die_after_publish = false;
      FaultSpec fault;
      if (!faults.empty() &&
          faults.Decide(worker_index, work.test->id, attempt, &fault)) {
        switch (fault.kind) {
          case FaultKind::kCrash:
            // Thread analog of a dead worker process: report the failed
            // attempt, then this worker exits for good.
            slot.failed = true;
            skip_execution = true;
            die_after_publish = true;
            break;
          case FaultKind::kHang:
            // No watchdog in-process (a thread cannot be SIGKILLed), so a
            // hang injects as an immediately-detected failed attempt; the
            // forked schedulers remain the real-hang testbed.
            slot.failed = true;
            slot.hang = true;
            skip_execution = true;
            break;
          case FaultKind::kGarbledFrame:
            // Typed in-process delivery has no frame to garble; the injected
            // effect (a worker's result is unusable) maps to a failed
            // attempt.
            slot.failed = true;
            skip_execution = true;
            break;
          case FaultKind::kSlowWorker: {
            struct timespec delay;
            delay.tv_sec = static_cast<time_t>(fault.slow_seconds);
            delay.tv_nsec = static_cast<long>(
                (fault.slow_seconds - static_cast<double>(delay.tv_sec)) * 1e9);
            ::nanosleep(&delay, nullptr);
            break;  // then execute normally
          }
        }
      }

      if (!skip_execution) {
        try {
          slot.unit = engine.RunUnit(
              *work.test, snapshot, [&](const UnitConfirmation& confirmation) {
                std::lock_guard<std::mutex> lock(queue_mutex);
                record_pending(confirmation.param);
              });
          slot.snapshot = std::move(snapshot);
        } catch (const std::exception& e) {
          // An exception escaping RunUnit is the in-process analog of a
          // worker dying mid-unit: the attempt failed, the worker survives.
          ZLOG_WARN << "thread-pool campaign: unit " << work.test->id
                    << " attempt failed (" << e.what() << ")";
          slot.failed = true;
        }
      }

      // Hand the confirmations from running to delivered before publishing,
      // so the coordinator cannot fold or discard the result first. The
      // delivered list replaces the reported one; a failed attempt withdraws
      // what it reported.
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        pending.erase(unit_index);
        if (!slot.failed) {
          for (const UnitConfirmation& confirmation : slot.unit.confirmations) {
            record_pending(confirmation.param);
          }
        }
      }

      // Publish: payload writes above happen-before the release store;
      // the coordinator pairs it with an acquire load.
      slot.ready.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(results_mutex);
        ++ready_count;
      }
      results_cv.notify_one();

      if (die_after_publish) {
        alive_workers.fetch_sub(1, std::memory_order_acq_rel);
        results_cv.notify_one();  // wake the coordinator to observe the death
        return;
      }
    }
  };

  // RAII shutdown: every exit path (including exceptions) stops and joins
  // the pool, so no worker thread outlives this frame.
  std::vector<std::thread> threads;
  struct PoolJoiner {
    std::vector<std::thread>& threads;
    std::mutex& queue_mutex;
    std::condition_variable& queue_cv;
    bool& stop;
    ~PoolJoiner() {
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        stop = true;
      }
      queue_cv.notify_all();
      for (std::thread& thread : threads) {
        if (thread.joinable()) {
          thread.join();
        }
      }
    }
  } joiner{threads, queue_mutex, queue_cv, stop};

  threads.reserve(static_cast<size_t>(worker_count));
  if (remaining > 0) {
    for (int i = 0; i < worker_count; ++i) {
      threads.emplace_back(worker_main, i);
    }
  }

  // ---- Coordinator: consume deliveries, fold canonically --------------------

  struct BufferedResult {
    UnitWorkResult unit;
    std::set<std::string> snapshot;
  };
  std::map<size_t, BufferedResult> buffered;
  std::set<size_t> poisoned;
  int live_folds = 0;
  bool stopped = false;  // abort_after_folds hook or cancel_flag

  // Shared requeue path for every failed attempt (injected crash/hang/garble,
  // escaped exception): quarantine after unit_attempt_limit attempts,
  // otherwise re-queue at the head behind a capped exponential backoff —
  // identical policy to the forked scheduler.
  auto handle_failed_attempt = [&](size_t unit_index) {
    ++attempts[unit_index];
    if (attempts[unit_index] >= resolved.unit_attempt_limit) {
      ZLOG_WARN << "thread-pool campaign: unit " << units[unit_index].test->id
                << " failed " << attempts[unit_index]
                << " attempts; quarantining as poisoned";
      poisoned.insert(unit_index);
      return;
    }
    double backoff = std::min(resolved.requeue_backoff_cap_seconds,
                              resolved.requeue_backoff_seconds *
                                  std::pow(2.0, attempts[unit_index] - 1));
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      not_before[unit_index] = NowSeconds() + std::max(0.0, backoff);
      queue.push_front(unit_index);
      ++requeued_units;
    }
    queue_cv.notify_one();
  };

  // Folds a unit and retires its pending confirmations in one critical
  // section, then journals it outside the lock.
  auto fold_at_cursor = [&](const UnitWorkResult& unit) {
    begin_apps_through(units[cursor].app_index + 1);
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      folder.Fold(unit);
      pending.erase(cursor);
    }
    if (journal) {
      journal->Append(cursor, unit);
    }
    ++cursor;
  };

  // Folds every buffered result the canonical order allows: one whose
  // snapshot agrees with the exact fold-point set on every tested parameter.
  // Poisoned units fold as empty stubs. Then re-runs every result the fold
  // has condemned. An under-projected snapshot is condemned wherever it sits
  // (it can only get worse as the set grows — see the forked scheduler for
  // the full argument), so the whole doomed wave re-runs in parallel. An
  // over-projected one is condemned only at the cursor: a later unit may
  // still confirm the extra parameter before the fold gets there.
  auto advance_fold = [&]() {
    while (cursor < units.size()) {
      if (poisoned.count(cursor) > 0) {
        UnitWorkResult stub;
        stub.app = apps[units[cursor].app_index];
        stub.test_id = units[cursor].test->id;
        fold_at_cursor(stub);
        continue;
      }
      auto it = buffered.find(cursor);
      if (it == buffered.end() ||
          folder.CheckSnapshot(it->second.unit, it->second.snapshot) !=
              CampaignFolder::SnapshotCheck::kAgrees) {
        break;
      }
      fold_at_cursor(it->second.unit);
      buffered.erase(it);
      ++live_folds;
      if (pool.abort_after_folds > 0 && live_folds >= pool.abort_after_folds) {
        stopped = true;  // simulated coordinator crash (test hook)
        break;
      }
    }
    std::vector<std::pair<size_t, const char*>> reruns;  // (unit, reason)
    for (const auto& [index, result] : buffered) {
      CampaignFolder::SnapshotCheck check =
          folder.CheckSnapshot(result.unit, result.snapshot);
      if (check == CampaignFolder::SnapshotCheck::kUnderProjected) {
        reruns.emplace_back(index, "stale globally-unsafe snapshot");
      } else if (check == CampaignFolder::SnapshotCheck::kOverProjected &&
                 index == cursor) {
        reruns.emplace_back(index, "over-projected globally-unsafe snapshot");
      }
    }
    if (reruns.empty()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      // push_front in descending order keeps the re-queued wave in canonical
      // order at the head (the fold is waiting on the smallest index).
      for (auto it = reruns.rbegin(); it != reruns.rend(); ++it) {
        const auto& [index, reason] = *it;
        ZLOG_INFO << "thread-pool campaign: re-running unit "
                  << units[index].test->id << " (" << reason << ")";
        buffered.erase(index);
        pending.erase(index);
        slots[index].ready.store(false, std::memory_order_relaxed);
        queue.push_front(index);
      }
    }
    queue_cv.notify_all();
  };

  while (cursor < units.size() && !stopped) {
    if (resolved.cancel_flag != nullptr && *resolved.cancel_flag != 0) {
      ZLOG_WARN << "thread-pool campaign: cancellation requested; stopping "
                   "after "
                << cursor << " of " << units.size() << " units";
      stopped = true;
      break;
    }
    if (alive_workers.load(std::memory_order_acquire) == 0) {
      // Drain any deliveries the dying workers published first; if the fold
      // still cannot complete, the campaign is stuck.
      bool drained;
      {
        std::lock_guard<std::mutex> lock(results_mutex);
        drained = ready_count == 0;
      }
      if (drained) {
        throw Error("thread-pool campaign: all workers died");
      }
    }

    // Sleep until a delivery arrives. The bounded wait keeps the cancel flag
    // responsive even when every worker is grinding on a long unit.
    {
      std::unique_lock<std::mutex> lock(results_mutex);
      results_cv.wait_for(lock, std::chrono::milliseconds(100),
                          [&] { return ready_count > 0; });
      if (ready_count == 0) {
        continue;
      }
    }

    // Consume every published slot. The acquire load pairs with the worker's
    // release store; consuming resets the flag before any possible requeue.
    for (size_t i = cursor; i < units.size(); ++i) {
      if (!slots[i].ready.load(std::memory_order_acquire)) {
        continue;
      }
      ResultSlot& slot = slots[i];
      slot.ready.store(false, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(results_mutex);
        --ready_count;
      }
      if (slot.failed) {
        if (slot.hang) {
          ++hung_workers;
        }
        handle_failed_attempt(i);
      } else {
        buffered[i] =
            BufferedResult{std::move(slot.unit), std::move(slot.snapshot)};
      }
    }

    advance_fold();
  }

  if (!stopped) {
    // Apps with zero units (or nothing at all to run) still appear in the
    // report with their enumeration-stage counts, as in the sequential run.
    begin_apps_through(apps.size());
  }

  folder.report().hung_workers = hung_workers;
  folder.report().requeued_units = requeued_units;
  folder.report().resumed_units = resumed_units;
  if (journal) {
    // Flush any batched records before reading the failure counter so a
    // clean exit never leaves an unsynced tail and a sync error here is
    // still accounted.
    journal->Flush();
    folder.report().journal_append_failures = journal->append_failures();
  }
  for (size_t unit_index : poisoned) {
    folder.report().poisoned_units.push_back(units[unit_index].test->id);
  }
  if (shared_cache != nullptr) {
    // Under a shared cache the per-unit deltas are skipped (see
    // Campaign::RunUnit), so the folded counters are zero; fill the totals
    // once from the one cache all workers used. Like the forked schedulers'
    // per-worker counters these are accounting, not part of the determinism
    // contract — hit/miss splits depend on scheduling.
    RunCache::Stats stats = shared_cache->stats();
    folder.report().cache_hits = stats.hits;
    folder.report().cache_misses = stats.misses;
    folder.report().equiv_hits = stats.equiv_hits;
    folder.report().canonicalized_plans = stats.canonicalized_plans;
    folder.report().mispredictions = stats.mispredictions;
    folder.report().cache_evictions = stats.evictions;
    folder.report().cache_load_failures = stats.load_failures;
  }
  folder.report().wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return folder.Finish();
}

}  // namespace zebra
