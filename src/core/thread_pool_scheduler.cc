#include "src/core/thread_pool_scheduler.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/common/logging.h"

namespace zebra {

namespace {

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
  FoldCoordinator coordinator(schema, corpus, std::move(options), pool,
                              "thread-pool campaign");
  const CampaignOptions& resolved = coordinator.options();
  const std::vector<WorkUnit>& units = coordinator.units();
  const size_t remaining = coordinator.remaining();
  const int worker_count =
      std::min<int>(pool.workers, std::max<size_t>(remaining, 1));

  // The shared cross-worker cache. Workers route executions through it via
  // Campaign::UseSharedRunCache; RunCache is internally synchronized.
  std::unique_ptr<RunCache> shared_cache;
  if (resolved.enable_run_cache) {
    shared_cache = std::make_unique<RunCache>(
        RunCache::Limits{resolved.cache_max_entries, resolved.cache_max_bytes});
  }

  // ---- Shared dispatch state (guarded by queue_mutex) -----------------------
  std::mutex queue_mutex;
  std::condition_variable queue_cv;  // workers wait here for work / stop
  // A running attempt records each confirmation with the coordinator as it
  // makes it, and each dispatch projects its snapshot from them
  // (FoldCoordinator::Project). Both run under queue_mutex, as does every
  // Advance and Rerun that drops them, so a confirmation is always either
  // recorded or folded when a dispatch looks.
  bool stop = false;

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
          double release = -1.0;
          if (coordinator.TakeNext(&unit_index, &release)) {
            break;
          }
          if (release < 0) {
            queue_cv.wait(lock);  // empty queue: wait for requeue or stop
          } else {
            // Every queued unit is backing off: sleep until the earliest
            // release (or an earlier requeue/stop notification).
            queue_cv.wait_for(lock, std::chrono::duration<double>(
                                        release - SteadySeconds()));
          }
        }
        attempt = coordinator.attempt(unit_index);
        snapshot = coordinator.Project(unit_index);
      }

      const WorkUnit& work = units[unit_index];
      ResultSlot& slot = slots[unit_index];
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
            // fabric's agents remain the real-hang testbed.
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
                coordinator.Confirm(unit_index, confirmation.param);
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

      // A delivered result's confirmations are already recorded, one by one
      // as they were made. A failed attempt withdraws what it recorded before
      // publishing, so the coordinator cannot re-queue the unit first.
      if (slot.failed) {
        std::lock_guard<std::mutex> lock(queue_mutex);
        coordinator.Withdraw(unit_index);
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

  // ---- Coordinator thread: consume deliveries, fold canonically -------------
  int64_t hung_workers = 0;
  while (coordinator.Active()) {
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

    // Consume every published slot. The acquire load pairs with the
    // worker's release store; consuming resets the flag before any possible
    // requeue. Buffered results and the fold's own state are the coordinator
    // thread's alone, so only what workers read — the queue and the folded
    // set — is touched under queue_mutex.
    bool requeued = false;
    for (size_t i = coordinator.cursor(); i < units.size(); ++i) {
      ResultSlot& slot = slots[i];
      if (!slot.ready.load(std::memory_order_acquire)) {
        continue;
      }
      slot.ready.store(false, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(results_mutex);
        --ready_count;
      }
      if (slot.failed) {
        hung_workers += slot.hang ? 1 : 0;
        std::lock_guard<std::mutex> lock(queue_mutex);
        coordinator.Requeue({i}, /*charge=*/true);
        requeued = true;
      } else {
        coordinator.Buffer(i, std::move(slot.unit), std::move(slot.snapshot));
      }
    }

    // Fold, then re-queue every result the fold condemned; the journal is
    // written after both.
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      coordinator.Advance();
    }
    std::vector<std::pair<size_t, const char*>> condemned = coordinator.Condemned();
    if (!condemned.empty()) {
      std::lock_guard<std::mutex> lock(queue_mutex);
      coordinator.Rerun(condemned);
      requeued = true;
    }
    if (requeued) {
      queue_cv.notify_all();
    }
    coordinator.FlushJournal();
  }

  coordinator.report().hung_workers = hung_workers;
  if (shared_cache == nullptr) {
    return coordinator.Finish();
  }
  const RunCache::Stats cache_totals = shared_cache->stats();
  return coordinator.Finish(&cache_totals);
}

}  // namespace zebra
