// In-process thread-pool campaign scheduler: worker threads pulling (app,
// unit-test) work units from one FoldCoordinator (fold_coordinator.h).
//
// Isolation without processes. Everything a worker needs private is
// per-thread:
//
//   * ConfAgent — each worker installs a ScopedThreadConfAgent, so
//     ConfAgent::Current() resolves to a private agent (own sessions, own
//     intern arena, own conf registry) for the whole worker lifetime.
//   * Campaign engine — each worker owns a private Campaign (generator,
//     runner, options copy); RunUnit never touches another worker's engine.
//   * Harness globals — the run-cache installation pointer, the pre-run
//     ReadSurface pointer, and the duration collector are thread_local, so a
//     worker's installation windows never leak across threads.
//   * SimClock/Cluster — already per-TestContext; nothing to do.
//
// What *is* shared is chosen, not accidental: when the campaign enables the
// run cache, one internally synchronized RunCache serves all workers, so a
// result computed by one worker is a hit for every other.
//
// Projected snapshots. A dispatch's globally-unsafe snapshot is the folded
// set plus every parameter that reaches the frequent-failure threshold once
// the confirmations already seen from earlier units are counted — those
// delivered but not yet folded, and those a still-running unit has reported
// as it confirmed them (FoldCoordinator::Project). The
// projection can miss a parameter (a confirmation not seen yet) or hold an
// extra one (a confirmation from an attempt later withdrawn), so it is
// neither a subset nor a superset of the exact set. The coordinator's
// fold-point check settles it; the remedy for a condemned result, shared
// with the fabric, is to re-queue it, and the whole condemned wave re-runs
// in parallel. A re-run
// at the fold cursor projects exactly the folded set. Findings, Table-5
// stage counts, and runs_to_first_detection are bitwise-identical to
// Campaign(...).Run() at every thread count.
//
// Result delivery is lock-free: one pre-sized slot per unit; a worker writes
// the result into its unit's slot and publishes with a release store on the
// slot's ready flag. The only mutexes are the dispatch lock (queue_mutex,
// which guards what workers read of the FoldCoordinator — the queue and the
// folded set: workers take units and report confirmations under it, the
// coordinator thread folds and re-queues under it) and the coordinator
// thread's wakeup condition variable. Each is held only for short
// bookkeeping, never across a unit-test execution or a journal write.
//
// Fault tolerance. The fault-injection vocabulary (fault_injection.h) maps to
// threads as follows: kCrash terminates the worker *thread* after reporting a
// failed attempt (remaining workers absorb the queue; all workers dead
// throws); kGarbledFrame reports a failed attempt (typed in-process delivery
// has no frame to garble); kHang reports a failed attempt immediately and is
// counted in hung_workers. There is no watchdog: a thread cannot be
// SIGKILLed without taking down the process, so a *real* runaway unit is the
// distributed fabric's territory — its spawned agents are the process-fault
// testbed (docs/ROBUSTNESS.md). Failed attempts go through the coordinator's
// attempt/backoff/quarantine policy.

#ifndef SRC_CORE_THREAD_POOL_SCHEDULER_H_
#define SRC_CORE_THREAD_POOL_SCHEDULER_H_

#include <string>

#include "src/core/campaign.h"
#include "src/core/fault_injection.h"
#include "src/core/fold_coordinator.h"

namespace zebra {

// Journal/resume and the abort hook come from FoldOptions.
struct ThreadPoolCampaignOptions : FoldOptions {
  // Worker threads to spawn (clamped to the unit count).
  int workers = 1;

  // Deterministic fault-injection plan evaluated at (worker, test id,
  // attempt) coordinates — see fault_injection.h and the thread mapping
  // above. Empty = no injected faults.
  FaultPlan faults;
};

// Runs the campaign over `workers` in-process threads pulling (app,
// unit-test) work units dynamically. Findings, stage counts, and
// runs_to_first_detection are bitwise-identical to Campaign(...).Run() for
// every thread count. Throws Error on invalid worker counts or when every
// worker thread has died (injected crashes).
CampaignReport RunThreadPoolCampaign(const ConfSchema& schema,
                                     const UnitTestRegistry& corpus,
                                     CampaignOptions options, int workers);

// Full-control variant (fault injection, journal/resume, abort hooks).
CampaignReport RunThreadPoolCampaign(const ConfSchema& schema,
                                     const UnitTestRegistry& corpus,
                                     CampaignOptions options,
                                     const ThreadPoolCampaignOptions& pool);

}  // namespace zebra

#endif  // SRC_CORE_THREAD_POOL_SCHEDULER_H_
