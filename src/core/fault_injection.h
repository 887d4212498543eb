// Deterministic fault-injection harness for the campaign runners.
//
// The paper's real campaigns survive on container-level isolation: a test
// that crashes, hangs, or corrupts its output takes down one container, not
// the campaign (§4, §7). The distributed fabric reproduces that with process
// isolation — and this header is how the recovery paths are *tested* rather
// than trusted on inspection. A FaultPlan injects faults at chosen (worker,
// unit, attempt) coordinates inside fabric agents (the worker coordinate is
// the agent index):
//
//   kCrash        the agent _Exits instead of executing the unit
//   kHang         a worker thread blocks forever (exercises the watchdog)
//   kGarbledFrame the agent writes a corrupt frame, then exits
//   kSlowWorker   the worker sleeps `slow_seconds` before executing normally
//
// The thread pool maps each kind onto worker threads instead (see
// thread_pool_scheduler.h).
//
// Plans are deterministic two ways: explicit specs pin exact coordinates, and
// the seeded random mode derives each coin flip from a stable hash of
// (seed, kind, test id, attempt) — deliberately *not* the worker index, so a
// random plan replays identically regardless of how units land on workers.
//
// Every fault plan must leave findings, Table-5 stage counts, and
// runs_to_first_detection bitwise-identical to the uninterrupted sequential
// campaign (CI-gated; see tests/fault_tolerance_test.cc): faults change how
// often units re-run, never what the campaign concludes.

#ifndef SRC_CORE_FAULT_INJECTION_H_
#define SRC_CORE_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace zebra {

enum class FaultKind {
  kCrash,
  kHang,
  kGarbledFrame,
  kSlowWorker,
};

// One injection site. Wildcards widen the match: an empty test_id matches
// every unit, worker = -1 every worker, attempt = -1 every dispatch attempt.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  std::string test_id;        // unit-test id, empty = any
  int worker = -1;            // worker thread or agent index, -1 = any
  int attempt = 0;            // 0-based dispatch attempt, -1 = any
  double slow_seconds = 0.1;  // kSlowWorker only: pre-execution sleep
};

struct FaultPlan {
  std::vector<FaultSpec> specs;

  // Seeded random mode: independently of `specs`, each (kind, test id,
  // attempt) coordinate fires with the matching rate, decided by a stable
  // hash folded from `seed`. 0 disables a kind.
  uint64_t seed = 0;
  double crash_rate = 0.0;
  double hang_rate = 0.0;
  double garble_rate = 0.0;

  bool empty() const {
    return specs.empty() && crash_rate == 0.0 && hang_rate == 0.0 &&
           garble_rate == 0.0;
  }

  // Returns true — filling *out — when a fault of any kind fires at this
  // coordinate. Explicit specs win over random mode; the first matching spec
  // decides, so order plans from most to least specific.
  bool Decide(int worker, const std::string& test_id, int attempt,
              FaultSpec* out) const;

  // Decide() restricted to one kind.
  bool DecideKind(FaultKind kind, int worker, const std::string& test_id,
                  int attempt, FaultSpec* out) const;
};

// --- Network fault plane (distributed fabric) -------------------------------
//
// The distributed backend (distributed_campaign.h / campaign_agent.h) adds a
// transport between the scheduler and its workers, and with it a new class of
// failures the single-box runners cannot see. NetFaultPlan injects those at
// (agent, unit, attempt) coordinates inside the agent process:
//
//   kAgentCrash           agent process _Exits before executing the unit
//   kConnectionDrop       agent executes the unit, then severs the connection
//                         without sending the result (lease expires, requeue)
//   kGarbledFrame         agent writes junk bytes instead of a frame, then
//                         exits (coordinator sees FabricRead::kGarbled)
//   kDelayedHeartbeat     agent suppresses heartbeats for delay_seconds
//                         (exercises the lease heartbeat timeout)
//   kStaleDuplicateResult agent sends the result frame twice (the second copy
//                         must be idempotently dropped by the coordinator)
//   kEpochDesync          agent discards its acknowledged snapshot epoch and
//                         refuses the dispatched unit with kSnapshotNack, as
//                         if a delta arrived against an epoch it never applied
//                         (coordinator must requeue the unit and fall back to
//                         a full snapshot resend)
//
// Same determinism contract as FaultPlan: explicit specs pin coordinates, and
// the seeded random mode hashes (seed, kind, test id, attempt) — not the
// agent index — so a random plan replays identically at any fleet shape.
// Every net fault plan must leave the folded report bitwise-identical to the
// uninterrupted sequential campaign (tests/distributed_campaign_test.cc).

enum class NetFaultKind {
  kAgentCrash,
  kConnectionDrop,
  kGarbledFrame,
  kDelayedHeartbeat,
  kStaleDuplicateResult,
  kEpochDesync,
};

// One network injection site. Wildcards as in FaultSpec: empty test_id
// matches every unit, agent = -1 every agent, attempt = -1 every attempt.
struct NetFaultSpec {
  NetFaultKind kind = NetFaultKind::kAgentCrash;
  std::string test_id;         // unit-test id, empty = any
  int agent = -1;              // agent index, -1 = any
  int attempt = 0;             // 0-based dispatch attempt, -1 = any
  double delay_seconds = 0.5;  // kDelayedHeartbeat only: suppression window
};

struct NetFaultPlan {
  std::vector<NetFaultSpec> specs;

  // Seeded random mode, mirroring FaultPlan: each (kind, test id, attempt)
  // coordinate fires with the matching rate. 0 disables a kind. Heartbeat
  // delay, duplicate-result, and epoch desync have no random mode — their
  // interesting coordinates are timing- or state-specific, so pin them with
  // explicit specs.
  uint64_t seed = 0;
  double agent_crash_rate = 0.0;
  double connection_drop_rate = 0.0;
  double garble_rate = 0.0;
  double duplicate_rate = 0.0;

  bool empty() const {
    return specs.empty() && agent_crash_rate == 0.0 &&
           connection_drop_rate == 0.0 && garble_rate == 0.0 &&
           duplicate_rate == 0.0;
  }

  // Returns true — filling *out — when a network fault fires at this
  // coordinate. Explicit specs win over random mode, in plan order.
  bool Decide(int agent, const std::string& test_id, int attempt,
              NetFaultSpec* out) const;
};

}  // namespace zebra

#endif  // SRC_CORE_FAULT_INJECTION_H_
