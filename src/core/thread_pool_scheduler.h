// In-process thread-pool campaign scheduler: the work-stealing campaign
// without the forks.
//
// The forked schedulers (sharded_campaign.h, parallel_scheduler.h) buy
// isolation with address-space copies: every worker process gets its own
// ConfAgent singleton, its own run cache, its own everything — at the cost of
// a fork per worker, a pipe round-trip per unit, and a full serialize/parse
// of every UnitWorkResult. On the native corpus (~53us per unit-test run)
// that overhead is comparable to the work itself, which is the native-regime
// performance gap this runner closes.
//
// Isolation without processes. Everything a forked worker relied on the
// address-space copy for is now per-thread:
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
// What *is* shared is chosen, not accidental: one internally synchronized
// RunCache serves all workers (share_run_cache), so a result computed by one
// worker is a hit for every other — strictly better than the forked
// schedulers' per-process caches, which recompute each other's entries.
//
// Determinism comes from the work-stealing design: workers run units
// speculatively under a snapshot of the globally-unsafe set, and a
// coordinator folds results with CampaignFolder in canonical unit order.
// Unlike the forked schedulers, a dispatch's snapshot is *projected*, not
// just the folded prefix: the folded set plus every parameter that reaches
// the frequent-failure threshold once the confirmations already seen from
// earlier units are counted — those delivered but not yet folded, and those
// a still-running unit has reported as it confirmed them
// (CampaignFolder::ProjectGloballyUnsafe). The projection can miss a
// parameter (a confirmation not seen yet) or hold an extra one (a
// confirmation from an attempt later withdrawn or discarded), so it is
// neither a subset nor a superset of the exact set. Exactness comes from the
// fold: a result folds only if its snapshot agrees with the exact fold-point
// set on every parameter the unit tested, in both directions
// (CampaignFolder::CheckSnapshot); otherwise it is discarded and re-run, and
// a re-run at the fold cursor projects exactly the folded set. A wrong
// projection costs a re-run, never a finding. Findings, Table-5 stage
// counts, and runs_to_first_detection are bitwise-identical to
// Campaign(...).Run() at every thread count.
//
// Result delivery is lock-free: one pre-sized slot per unit; a worker writes
// the result into its unit's slot and publishes with a release store on the
// slot's ready flag. The only mutexes are the dispatch queue (workers pull
// units and report confirmations, the coordinator folds and pushes
// requeues) and the coordinator's wakeup condition variable — each held
// only for short bookkeeping, never across a unit-test execution.
//
// Fault tolerance. The fault-injection vocabulary (fault_injection.h) maps to
// threads as follows: kCrash terminates the worker *thread* after reporting a
// failed attempt (the thread analog of a dead process — remaining workers
// absorb the queue; all workers dead throws, as in the forked scheduler);
// kGarbledFrame reports a failed attempt (there is no frame to garble — the
// delivery path is typed, which is precisely what the forked runner's parse
// failures defended against); kHang reports a failed attempt immediately and
// is counted in hung_workers. There is no watchdog: a thread cannot be
// SIGKILLed without taking down the process, so a *real* runaway unit is the
// forked schedulers' territory — they remain the process-fault testbed
// (docs/ROBUSTNESS.md). Failed attempts feed the same requeue/backoff/
// quarantine machinery: a unit failing unit_attempt_limit attempts is
// quarantined into poisoned_units and folds as an empty stub.
//
// Crash safety: the journal/resume contract is identical to the forked
// scheduler's (campaign_journal.h) — every folded result is appended at fold
// time, resume replays the valid prefix through the same fold.

#ifndef SRC_CORE_THREAD_POOL_SCHEDULER_H_
#define SRC_CORE_THREAD_POOL_SCHEDULER_H_

#include <string>

#include "src/core/campaign.h"
#include "src/core/fault_injection.h"

namespace zebra {

struct ThreadPoolCampaignOptions {
  // Worker threads to spawn (clamped to the unit count).
  int workers = 1;

  // Deterministic fault-injection plan evaluated at (worker, test id,
  // attempt) coordinates — see fault_injection.h and the thread mapping
  // above. Empty = no injected faults.
  FaultPlan faults;

  // Crash-safe journal (campaign_journal.h), same contract as the forked
  // scheduler: non-empty appends every folded unit result; resume=true
  // replays an existing journal's valid prefix instead of re-executing.
  std::string journal_path;
  bool resume = false;

  // Journal durability: records per fdatasync (group commit), same contract
  // as the forked scheduler. 1 = sync every append (default).
  int journal_sync_batch = 1;

  // Test hook simulating a coordinator crash: stop dispatching and return
  // after this many *live* folds (journal replay does not count).
  int abort_after_folds = 0;

  // When the campaign options enable a run cache, share one internally
  // synchronized cache across all workers instead of one cache per worker
  // engine. Cross-worker sharing can only add hits (a served result is
  // bitwise what a re-execution would produce), never change findings.
  bool share_run_cache = true;
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
