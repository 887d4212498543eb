// Campaign agent: the per-host worker process of the distributed fabric.
//
// One agent owns one machine's share of the fleet: it connects to the
// coordinator (distributed_campaign.h) over the fabric wire protocol
// (fabric_wire.h), proves compatibility in a handshake, and then runs the
// PR 6 thread pool locally — `threads` worker threads, each with a private
// ConfAgent and Campaign engine, sharing one internally synchronized run
// cache — so a fleet of A agents x K threads executes A*K units
// concurrently while the coordinator folds canonically.
//
// Handshake. The agent opens with kHello carrying its schema hash
// (FabricSchemaHash — a digest of the campaign-journal fingerprint, i.e. the
// resolved app list, canonical unit order, and every result-affecting
// option), its thread count, and its agent index. The coordinator admits it
// with kWelcome (echoed index + heartbeat interval) or refuses with kReject:
// an agent built from a different corpus or options would return results
// that *parse* but silently corrupt the fold, so mismatches must die at the
// door. The protocol version rides in every frame header and is checked
// before the payload is even trusted.
//
// Steady state (wire v3). The main thread reads kDispatchBatch frames — a
// snapshot section carrying the globally-unsafe set as an epoch-numbered
// full send or a delta against the agent's acknowledged epoch, followed by
// any number of "<unit> <attempt>" records — into a local queue; worker
// threads pull, execute Campaign::RunUnit under the freshest snapshot the
// agent holds, send a kConfirm frame for each confirmation the moment it is
// made, and push "<unit> <attempt> <epoch>\n" + SerializeUnitResult records
// into a shared outbox that one worker at a time drains into kResultBatch
// frames (socket writes serialized by a mutex), so a burst of completions
// costs one frame, not one frame each. A unit's confirmations always precede
// its result on the connection. A delta against an epoch the agent does not hold is
// *refused*: the units are returned in a kSnapshotNack (never executed
// under a set the agent cannot prove current) and the coordinator falls
// back to a full snapshot resend. A heartbeat thread sends an empty
// kHeartbeat frame every interval the coordinator chose; heartbeats are the
// agent's liveness proof, separate from results, so a long-running unit
// does not look like a dead host. On kShutdown the agent drains its
// workers, persists the run cache (when cache_dir is set), answers kStats,
// and exits 0.
//
// Warm starts. With cache_dir set and the run cache enabled, the agent
// loads `<cache_dir>/fabric-<schema hash>-agent<index>.zc` before taking
// work and saves it back on clean shutdown, so a repeat campaign over the
// same schema/corpus starts warm. The file rides the RunCache v2 checksummed
// format: corruption degrades to a cold start and shows up in the farewell's
// cache_load_failures. The farewell's other counters are *per-campaign
// deltas* against the post-load baseline — a warm start must not re-report
// last campaign's hits.
//
// Fault injection. Both fault planes run *inside* the agent, decided
// deterministically at (agent, unit, attempt):
//   * FaultPlan (process faults, fault_injection.h) with the agent index as
//     the worker coordinate: kCrash/_Exit, kHang/pause() (the worker thread
//     blocks; heartbeats continue — exactly the shape the coordinator's
//     lease watchdog exists for), kGarbledFrame (junk bytes then exit),
//     kSlowWorker (sleep then run).
//   * NetFaultPlan (network faults): kAgentCrash exits before executing;
//     kConnectionDrop executes the unit then exits without sending the
//     result (work done but lost — the lease expiry must recover it);
//     kGarbledFrame writes junk where a frame belongs; kDelayedHeartbeat
//     suppresses heartbeats for delay_seconds; kStaleDuplicateResult sends
//     the result record twice (the coordinator must drop the second copy
//     idempotently); kEpochDesync discards the acknowledged snapshot epoch
//     at dispatch receipt and nacks the unit, forcing the coordinator
//     through the full-resend recovery path.
// Every plan must leave the folded report bitwise-identical to sequential
// (tests/distributed_campaign_test.cc).

#ifndef SRC_CORE_CAMPAIGN_AGENT_H_
#define SRC_CORE_CAMPAIGN_AGENT_H_

#include <cstdint>
#include <string>

#include "src/core/campaign.h"
#include "src/core/fault_injection.h"

namespace zebra {

struct CampaignAgentOptions {
  // Coordinator endpoint. ConnectTcp retries until connect_timeout_seconds
  // (the agent may race the coordinator's listen).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  double connect_timeout_seconds = 10.0;

  // This agent's stable identity in the fleet (fault-plan coordinate and
  // log label). Spawned agents get it from the coordinator's fork loop;
  // real hosts pass --agent-index.
  int agent_index = 0;

  // Local worker threads (the PR 6 thread pool); the coordinator keeps this
  // many leases in flight on this agent.
  int threads = 1;

  // Deterministic fault planes, evaluated in-agent. Empty = undisturbed.
  FaultPlan faults;
  NetFaultPlan net_faults;

  // Directory for the persistent run cache ("" = no persistence). Only
  // meaningful with CampaignOptions::enable_run_cache; the file is keyed by
  // schema hash and agent index, so agents never race on one file and a
  // different campaign shape never poisons a warm start.
  std::string cache_dir;
};

// Identity both ends must agree on before any unit is dispatched: a hex
// digest of CampaignJournal::Fingerprint over the *resolved* options and the
// corpus. `options` are resolved through a Campaign engine internally, so
// callers pass the same CampaignOptions they would hand any executor.
std::string FabricSchemaHash(const ConfSchema& schema,
                             const UnitTestRegistry& corpus,
                             const CampaignOptions& options);

// Runs one agent to completion. Returns the process exit code: 0 after a
// clean kShutdown, nonzero when the coordinator vanished or refused the
// handshake. Blocks until shutdown; spawned agents call this straight from
// the forked child and _Exit with its return value.
int RunCampaignAgent(const ConfSchema& schema, const UnitTestRegistry& corpus,
                     CampaignOptions options,
                     const CampaignAgentOptions& agent);

}  // namespace zebra

#endif  // SRC_CORE_CAMPAIGN_AGENT_H_
