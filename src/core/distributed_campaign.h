// Distributed campaign coordinator: the fabric's folding, leasing, healing
// brain (docs/ROBUSTNESS.md, fabric section).
//
// Topology. One coordinator owns the canonical fold; A agents
// (campaign_agent.h), each running K worker threads, own the execution.
// Single-box operation forks the agents locally (spawn_agents, the
// full_campaign --engine=distributed default); real hosts run
// `full_campaign --connect` against a coordinator started with --listen.
// Either way the transport is the same checksummed, versioned TCP framing
// (fabric_wire.h), so every robustness path below is exercised identically
// in tests and production.
//
// Leases. A dispatched unit is a *lease*: (unit, attempt, snapshot epoch,
// dispatch time, watchdog deadline) owned by one agent. An agent holds at
// most `pipeline_depth x threads` leases — the prefetch window that keeps
// its workers from idling between frames. While a lease runs, its agent
// streams each confirmation as a kConfirm frame; one matching a live lease
// is recorded for projection (FoldCoordinator::Confirm), any other is
// ignored. A lease ends exactly one of these ways:
//   * a kResultBatch record with the matching (unit, attempt): the result
//     is buffered for canonical folding. Its confirmations streamed ahead of
//     it and are already recorded.
//   * a kSnapshotNack record with the matching (unit, attempt): the agent
//     refused to run it (epoch mismatch — it could not prove its
//     globally-unsafe set current). The unit re-enters the queue through
//     the same requeue/backoff policy and the agent is marked for a full
//     snapshot resend.
//   * Its agent is retired — EOF, garbled frame, malformed confirmation,
//     write failure, heartbeat silence past heartbeat_timeout_seconds, or
//     any lease past its watchdog deadline (a hung unit on a live,
//     heartbeating host). Every lease the agent held expires
//     (++expired_leases) and re-enters the queue. A watchdog retirement charges an attempt (backoff, quarantine at
//     unit_attempt_limit) only to the agent's first `threads` leases in
//     dispatch order: the agent runs its queue in FIFO order and reports each
//     result as soon as it finishes, so only those can be running; the rest
//     go back uncharged. Any other retirement charges every lease, since the
//     coordinator cannot tell which one brought the host down.
//   * A result record that matches no live lease — the duplicate a
//     reassigned or re-sent unit can produce — is dropped idempotently
//     (++duplicate_results). Folding is driven only by live leases, so a
//     unit can never fold twice no matter how the network replays.
// A lease that ends without a result withdraws its streamed confirmations.
// Agent retirement is all-or-nothing (a host is healthy or it is not);
// per-lease surgical recovery on a half-broken connection is exactly the
// "partially trusted peer" state the wire protocol refuses to have.
//
// Determinism. The fold is the shared FoldCoordinator (fold_coordinator.h):
// the same CampaignFolder in the same canonical order with the same
// fold-point check and journal/resume contract as the thread pool. A result
// runs under the snapshot of the epoch its agent held at execution start.
// Each dispatch batch carries a projection (FoldCoordinator::Project) for
// the smallest unit among the batch and the agent's live leases, so like
// the pool's it can be under- or over-projected. The remedy is the pool's
// too: Condemned + Rerun send a condemned result back to the agents, and a
// cursor unit re-dispatched from there runs under the exact folded set. The
// coordinator process executes no unit. Findings, Table-5 stats, and
// runs_to_first_detection are
// bitwise-identical to `Campaign(...).Run()` at every fleet shape, under
// every injected network fault, and across a coordinator restart
// (CI-gated).

#ifndef SRC_CORE_DISTRIBUTED_CAMPAIGN_H_
#define SRC_CORE_DISTRIBUTED_CAMPAIGN_H_

#include <cstdint>
#include <string>

#include "src/core/campaign.h"
#include "src/core/fault_injection.h"
#include "src/core/fold_coordinator.h"

namespace zebra {

// Journal/resume and the abort hook come from FoldOptions.
struct DistributedCampaignOptions : FoldOptions {
  // Fleet shape: agents x agent_threads concurrent units.
  int agents = 1;
  int agent_threads = 1;

  // Lease pipelining: the coordinator keeps up to depth x agent_threads
  // leases in flight per agent, so a worker thread finishing a unit finds
  // the next one already queued locally instead of stalling a network round
  // trip. The default is 1: a queued lease starts before its predecessor's
  // confirmations can reach any projection, so at paper cost deeper
  // pipelines re-run more stale units than the round trip costs. Watchdog
  // deadlines scale by the same factor (a dispatched unit may legitimately
  // wait behind depth-1 queued units per thread before it starts).
  int pipeline_depth = 1;

  // Fork local agent processes (single-box mode). When false the coordinator
  // only listens and waits for `agents` remote `full_campaign --connect`
  // processes to arrive within handshake_timeout_seconds.
  bool spawn_agents = true;

  // Endpoint to listen on, "host:port" ("" = loopback on an ephemeral port,
  // right for spawn mode; ":9009" = INADDR_ANY for real hosts).
  std::string listen_address;

  // Handshake patience: how long to wait for the full fleet to connect and
  // agree on protocol/schema before giving up.
  double handshake_timeout_seconds = 30.0;

  // Liveness cadence: agents heartbeat every interval (told to them in the
  // kWelcome); an agent silent past the timeout is retired and its leases
  // requeued. The timeout must comfortably exceed the interval — results do
  // not substitute for heartbeats, so a slow unit never trips this.
  double heartbeat_interval_seconds = 0.2;
  double heartbeat_timeout_seconds = 5.0;

  // Deterministic fault planes, forwarded to every spawned agent (connect-
  // mode agents carry their own via CLI). The FaultPlan's worker coordinate
  // is the agent index.
  FaultPlan faults;
  NetFaultPlan net_faults;

  // Directory for per-agent persistent run caches ("" = none), forwarded to
  // spawned agents (connect-mode agents pass --agent-cache-dir themselves).
  // Requires CampaignOptions::enable_run_cache; repeat campaigns over the
  // same schema/corpus then start warm (campaign_agent.h, "Warm starts").
  std::string agent_cache_dir;
};

// Runs the campaign over the fabric. Throws Error when the fleet cannot be
// assembled (listen/handshake failure) or when every agent has died with
// undone work remaining. Findings, stage counts, and runs_to_first_detection
// are bitwise-identical to Campaign(...).Run() for every fleet shape.
CampaignReport RunDistributedCampaign(const ConfSchema& schema,
                                      const UnitTestRegistry& corpus,
                                      CampaignOptions options,
                                      const DistributedCampaignOptions& fabric);

}  // namespace zebra

#endif  // SRC_CORE_DISTRIBUTED_CAMPAIGN_H_
