#include "src/core/distributed_campaign.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim before forking the fleet
#endif

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/core/campaign_agent.h"
#include "src/core/fabric_wire.h"
#include "src/core/report_io.h"
#include "src/core/watchdog.h"
#include "src/core/worker_ipc.h"

namespace zebra {

namespace {

// One unit of in-flight ownership. The lease — not the connection, not the
// agent — is what folding waits on; everything the requeue path needs to
// redo the work travels with it.
struct Lease {
  int attempt = 0;
  uint64_t sequence = 0;  // dispatch order across the whole campaign
  int64_t epoch = 0;      // snapshot epoch its dispatch batch installed
  double dispatch_seconds = 0.0;
  double deadline_seconds = 0.0;  // watchdog budget (0 = no deadline)
};

struct AgentConn {
  int fd = -1;
  pid_t pid = -1;  // spawned agents only; -1 for remote --connect agents
  int index = -1;
  int threads = 1;  // from the agent's kHello; capacity = threads x depth
  double last_heartbeat = 0.0;
  bool alive = false;
  std::map<size_t, Lease> leases;

  // Snapshot-delta bookkeeping: the epoch (and set) this agent holds, as
  // far as the coordinator knows. -1 = holds nothing provable (fresh
  // connection, or a nack said so) — the next dispatch is a full send.
  // Updated optimistically after a successful batch write; a wrong guess is
  // harmless because the agent nacks anything it cannot apply.
  int64_t snap_epoch = -1;
  std::set<std::string> snap_set;
};

// RAII over the whole fleet: every exit path (including exceptions mid-
// handshake) closes every fd and kills + reaps every spawned agent still
// owned here. Graceful shutdown hands pids over (sets them -1) before this
// runs, so the destructor is a no-op on the happy path.
struct Fleet {
  int listen_fd = -1;
  std::vector<pid_t> spawned;  // not yet adopted into an AgentConn
  std::vector<AgentConn> agents;

  ~Fleet() {
    if (listen_fd >= 0) {
      ::close(listen_fd);
    }
    std::vector<pid_t> pending;
    for (AgentConn& agent : agents) {
      if (agent.fd >= 0) {
        ::close(agent.fd);
      }
      if (agent.pid > 0) {
        ::kill(agent.pid, SIGKILL);
        pending.push_back(agent.pid);
      }
    }
    for (pid_t pid : spawned) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        pending.push_back(pid);
      }
    }
    ReapAll(pending);  // best effort; exit status no longer matters here
  }
};

}  // namespace

CampaignReport RunDistributedCampaign(
    const ConfSchema& schema, const UnitTestRegistry& corpus,
    CampaignOptions options, const DistributedCampaignOptions& fabric) {
  if (fabric.agents < 1 || fabric.agent_threads < 1) {
    throw Error("distributed campaign requires agents >= 1 and threads >= 1");
  }
  if (fabric.pipeline_depth < 1) {
    throw Error("distributed campaign requires pipeline_depth >= 1");
  }
  FoldCoordinator coordinator(schema, corpus, std::move(options), fabric,
                              "distributed campaign");
  const CampaignOptions& resolved = coordinator.options();
  const std::vector<WorkUnit>& units = coordinator.units();
  const std::string schema_hash = FabricSchemaHash(schema, corpus, resolved);
  const size_t remaining = coordinator.remaining();

  int64_t hung_workers = 0;
  int64_t agent_disconnects = 0;
  int64_t expired_leases = 0;
  int64_t duplicate_results = 0;
  // Cache totals summed from the agents' kStats farewells.
  RunCache::Stats cache_totals;

  ScopedIgnoreSigPipe sigpipe_guard;
  Fleet fleet;

  if (remaining > 0) {
    int agent_count =
        std::min<int>(fabric.agents, static_cast<int>(remaining));

    std::string listen_host = "127.0.0.1";
    uint16_t listen_port = 0;
    if (!fabric.listen_address.empty() &&
        !ParseHostPort(fabric.listen_address, &listen_host, &listen_port)) {
      throw Error("distributed campaign: malformed --listen address '" +
                  fabric.listen_address + "'");
    }
    uint16_t bound_port = 0;
    fleet.listen_fd = ListenTcp(listen_host, listen_port, &bound_port);
    if (fleet.listen_fd < 0) {
      throw Error("distributed campaign: cannot listen on " + listen_host +
                  ":" + Int64ToString(listen_port));
    }

    if (fabric.spawn_agents) {
#if defined(__GLIBC__)
      // Return free heap pages to the OS before forking. A long-lived
      // coordinator process accumulates freed-but-dirty allocator pages;
      // every agent child that reuses them pays a copy-on-write fault per
      // page, a per-agent tax that scales with the parent's heap history,
      // not with the campaign. Trimming makes the fork cost depend only on
      // live state.
      ::malloc_trim(0);
#endif
      // Fork before any coordinator thread or poll state exists; each child
      // becomes a full agent process and never returns here.
      fleet.spawned.assign(static_cast<size_t>(agent_count), -1);
      for (int i = 0; i < agent_count; ++i) {
        pid_t pid = ::fork();
        if (pid < 0) {
          throw Error("distributed campaign: fork() failed");
        }
        if (pid == 0) {
          ::close(fleet.listen_fd);
          fleet.listen_fd = -1;
          fleet.spawned.clear();  // the child owns no siblings
          CampaignAgentOptions agent_options;
          agent_options.host = "127.0.0.1";
          agent_options.port = bound_port;
          agent_options.agent_index = i;
          agent_options.threads = fabric.agent_threads;
          agent_options.faults = fabric.faults;
          agent_options.net_faults = fabric.net_faults;
          agent_options.cache_dir = fabric.agent_cache_dir;
          std::_Exit(
              RunCampaignAgent(schema, corpus, resolved, agent_options));
        }
        fleet.spawned[static_cast<size_t>(i)] = pid;
      }
    }

    // ---- Handshake: assemble the fleet --------------------------------------
    double handshake_deadline = SteadySeconds() + fabric.handshake_timeout_seconds;
    std::set<int> seen_indices;
    while (static_cast<int>(fleet.agents.size()) < agent_count) {
      double left = handshake_deadline - SteadySeconds();
      if (left <= 0) {
        throw Error("distributed campaign: only " +
                    Int64ToString(static_cast<int64_t>(fleet.agents.size())) +
                    " of " + Int64ToString(agent_count) +
                    " agents completed the handshake in time");
      }
      struct pollfd listen_poll = {fleet.listen_fd, POLLIN, 0};
      int ready;
      do {
        ready = ::poll(&listen_poll, 1,
                       static_cast<int>(std::ceil(left * 1000.0)));
      } while (ready < 0 && errno == EINTR);
      if (ready <= 0) {
        continue;  // loop re-checks the deadline
      }
      int fd = AcceptTcp(fleet.listen_fd);
      if (fd < 0) {
        continue;
      }
      // One frame of patience for the hello; a connector that stalls or
      // garbles it is dropped, not waited on.
      struct pollfd hello_poll = {fd, POLLIN, 0};
      do {
        ready = ::poll(&hello_poll, 1, 5000);
      } while (ready < 0 && errno == EINTR);
      FabricMsg type;
      std::string payload;
      FabricRead hello_status =
          ready <= 0 ? FabricRead::kError
                     : ReadFabricFrame(fd, &type, &payload);
      if (hello_status == FabricRead::kVersionMismatch) {
        // An intact frame from another protocol era — refuse it by name. An
        // older peer cannot parse a v3 reject frame, but it does see the
        // close and gives up; a future peer reads the reason verbatim.
        ZLOG_WARN << "distributed campaign: connector speaks a different "
                     "wire protocol version; rejecting";
        WriteFabricFrame(fd, FabricMsg::kReject, "protocol version mismatch");
        ::close(fd);
        continue;
      }
      if (hello_status != FabricRead::kOk || type != FabricMsg::kHello) {
        ::close(fd);
        continue;
      }
      std::vector<std::string> hello = StrSplit(payload, '\n');
      int64_t threads = 0;
      int64_t index = -1;
      if (hello.size() < 3 || !ParseInt64(hello[1], &threads) ||
          !ParseInt64(hello[2], &index) || threads < 1 || index < 0) {
        WriteFabricFrame(fd, FabricMsg::kReject, "malformed hello");
        ::close(fd);
        continue;
      }
      if (hello[0] != schema_hash) {
        // An agent over a different corpus/options would return results that
        // parse but corrupt the fold — refuse at the door.
        ZLOG_WARN << "distributed campaign: agent " << index
                  << " schema hash mismatch; rejecting";
        WriteFabricFrame(fd, FabricMsg::kReject, "schema hash mismatch");
        ::close(fd);
        continue;
      }
      if (!seen_indices.insert(static_cast<int>(index)).second) {
        WriteFabricFrame(fd, FabricMsg::kReject, "duplicate agent index");
        ::close(fd);
        continue;
      }
      if (!WriteFabricFrame(fd, FabricMsg::kWelcome,
                            Int64ToString(index) + "\n" +
                                DoubleToString(
                                    fabric.heartbeat_interval_seconds))) {
        ::close(fd);
        continue;
      }
      AgentConn conn;
      conn.fd = fd;
      conn.index = static_cast<int>(index);
      conn.threads = static_cast<int>(threads);
      conn.last_heartbeat = SteadySeconds();
      conn.alive = true;
      if (fabric.spawn_agents && index >= 0 &&
          static_cast<size_t>(index) < fleet.spawned.size()) {
        conn.pid = fleet.spawned[static_cast<size_t>(index)];
        fleet.spawned[static_cast<size_t>(index)] = -1;  // adopted
      }
      fleet.agents.push_back(conn);
    }
    ZLOG_INFO << "distributed campaign: fleet assembled — " << agent_count
              << " agents x " << fabric.agent_threads << " threads on port "
              << bound_port;

    // ---- Dispatch / fold loop -----------------------------------------------

    // Snapshot epochs. Each dispatch batch carries the projection of the
    // smallest unit its agent will hold: the batch's units and the agent's
    // live leases. A projection never holds more for a smaller unit, so the
    // set is no larger than any of those units' own projections, and a
    // re-dispatched cursor unit runs under exactly the folded set. A set that
    // differs from what the agent holds gets a new epoch and travels as a
    // delta against the agent's acknowledged one. Every result arrives
    // stamped with the epoch it actually ran under (the agent reads the
    // freshest set it holds at execution start, never older than its
    // lease's), and is buffered with that epoch's set from epoch_sets.
    // Epochs below every live lease's and every live agent's current one can
    // never be named again (a K section reuses the agent's current epoch),
    // so they are dropped after each dispatch pass.
    int64_t last_epoch = 0;
    std::map<int64_t, std::set<std::string>> epoch_sets;
    std::vector<double> completion_seconds;
    uint64_t next_sequence = 0;

    auto alive_agents = [&]() {
      int alive = 0;
      for (const AgentConn& agent : fleet.agents) {
        alive += agent.alive ? 1 : 0;
      }
      return alive;
    };

    // Ends leases without a result: their confirmations are withdrawn and
    // their units re-queued.
    auto expire_leases = [&](std::vector<size_t> units, bool charge) {
      for (size_t unit_index : units) {
        coordinator.Withdraw(unit_index);
      }
      expired_leases += static_cast<int64_t>(units.size());
      coordinator.Requeue(std::move(units), charge);
    };

    // Retiring an agent is all-or-nothing: every lease it held expires, the
    // connection closes, and a spawned process is SIGKILLed (it may be
    // merely silent, not dead — a kill on an already-dead pid is free) and
    // reaped so nothing zombies. `hung` (a watchdog retirement) charges only
    // the leases that can be running: the agent's first `threads` in
    // dispatch order, since it runs its queue FIFO and reports each result
    // as it finishes. Any other cause charges them all.
    auto retire_agent = [&](AgentConn& agent, const char* reason,
                            bool hung = false) {
      ++agent_disconnects;
      std::vector<std::pair<uint64_t, size_t>> held;  // (sequence, unit)
      for (const auto& [unit_index, lease] : agent.leases) {
        held.emplace_back(lease.sequence, unit_index);
      }
      agent.leases.clear();
      std::sort(held.begin(), held.end());
      const size_t charged =
          hung ? std::min(held.size(), static_cast<size_t>(agent.threads))
               : held.size();
      std::vector<size_t> running;
      std::vector<size_t> waiting;
      for (size_t i = 0; i < held.size(); ++i) {
        (i < charged ? running : waiting).push_back(held[i].second);
      }
      expire_leases(std::move(waiting), /*charge=*/false);
      expire_leases(std::move(running), /*charge=*/true);
      if (agent.fd >= 0) {
        ::close(agent.fd);
        agent.fd = -1;
      }
      if (agent.pid > 0) {
        ::kill(agent.pid, SIGKILL);
        ReapAll({agent.pid});
        agent.pid = -1;
      }
      agent.alive = false;
      ZLOG_INFO << "distributed campaign: agent " << agent.index << " "
                << reason << ", " << alive_agents() << " remaining";
    };

    while (coordinator.Active()) {
      if (alive_agents() == 0) {
        throw Error("distributed campaign: all agents died");
      }

      // Dispatch: fill every agent up to its pipelined lease capacity
      // (pipeline_depth x threads — the prefetch window that keeps workers
      // busy while results fly back) with the first dispatchable units
      // (queue order preserved, backoff-held units skipped) — all in ONE
      // kDispatchBatch frame per agent: a snapshot section (full, delta, or
      // keep against the agent's last applied epoch), then the unit records.
      for (AgentConn& agent : fleet.agents) {
        if (!agent.alive) {
          continue;
        }
        const int capacity = agent.threads * fabric.pipeline_depth;
        std::vector<size_t> picked;
        size_t next = 0;
        while (static_cast<int>(agent.leases.size() + picked.size()) <
                   capacity &&
               coordinator.TakeNext(&next)) {
          picked.push_back(next);
        }
        // Leases past the agent's first `threads` wait in its queue; only
        // they can still start under a newer set.
        const bool holds_queued =
            agent.leases.size() > static_cast<size_t>(agent.threads);
        if (picked.empty() && !holds_queued) {
          continue;
        }
        size_t lowest = units.size();
        for (size_t unit_index : picked) {
          lowest = std::min(lowest, unit_index);
        }
        if (!agent.leases.empty()) {
          lowest = std::min(lowest, agent.leases.begin()->first);
        }
        std::set<std::string> projected = coordinator.Project(lowest);
        const bool keep = agent.snap_epoch >= 0 && projected == agent.snap_set;
        if (picked.empty() && keep) {
          continue;  // the queued leases already hold this set
        }
        // picked may be empty here: a unit-less broadcast batch, so the
        // leases queued on the agent start under the newer set.
        std::string snapshot_record;
        int64_t epoch = agent.snap_epoch;
        if (keep) {
          snapshot_record =
              Int64ToString(epoch) + " " + Int64ToString(epoch) + " K\n";
        } else {
          epoch = ++last_epoch;
          epoch_sets[epoch] = projected;
          if (agent.snap_epoch < 0) {
            // Fresh connection (or a nack voided its state): full send.
            snapshot_record =
                "-1 " + Int64ToString(epoch) + " F\n" +
                StrJoin(std::vector<std::string>(projected.begin(),
                                                 projected.end()),
                        ",");
          } else {
            std::vector<std::string> delta;
            for (const std::string& param : projected) {
              if (agent.snap_set.count(param) == 0) {
                delta.push_back("+" + param);
              }
            }
            for (const std::string& param : agent.snap_set) {
              if (projected.count(param) == 0) {
                delta.push_back("-" + param);
              }
            }
            snapshot_record = Int64ToString(agent.snap_epoch) + " " +
                              Int64ToString(epoch) + " D\n" +
                              StrJoin(delta, ",");
          }
        }
        std::string batch;
        AppendBatchRecord(&batch, snapshot_record);
        double t = SteadySeconds();
        double deadline = WatchdogDeadlineSeconds(
            resolved.watchdog_floor_seconds, resolved.watchdog_multiplier,
            completion_seconds);
        // A pipelined unit legitimately waits behind up to depth-1 queued
        // units per thread before it starts; its watchdog budget scales to
        // match. (Completion samples include that wait, so the p95 term is
        // self-correcting; the scale protects the floor-dominated regime.)
        deadline *= fabric.pipeline_depth;
        for (size_t unit_index : picked) {
          Lease lease;
          lease.attempt = coordinator.attempt(unit_index);
          lease.sequence = next_sequence++;
          lease.epoch = epoch;
          lease.dispatch_seconds = t;
          lease.deadline_seconds = deadline;
          agent.leases[unit_index] = lease;
          AppendBatchRecord(
              &batch, Int64ToString(static_cast<int64_t>(unit_index)) + " " +
                          Int64ToString(lease.attempt));
        }
        if (!WriteFabricFrame(agent.fd, FabricMsg::kDispatchBatch, batch)) {
          // None of the leases took effect; retirement expires every one of
          // them into the requeue path.
          retire_agent(agent, "died at dispatch");
          continue;
        }
        agent.snap_epoch = epoch;
        agent.snap_set = std::move(projected);
      }
      if (alive_agents() == 0) {
        continue;  // top of loop throws with the precise error
      }
      int64_t oldest_epoch = last_epoch;
      for (const AgentConn& agent : fleet.agents) {
        if (!agent.alive) {
          continue;
        }
        if (agent.snap_epoch >= 0) {
          oldest_epoch = std::min(oldest_epoch, agent.snap_epoch);
        }
        for (const auto& [unit_index, lease] : agent.leases) {
          oldest_epoch = std::min(oldest_epoch, lease.epoch);
        }
      }
      epoch_sets.erase(epoch_sets.begin(), epoch_sets.lower_bound(oldest_epoch));

      // Bounded poll keeps the cancel flag, watchdog, and heartbeat checks
      // responsive even when no frame arrives.
      std::vector<struct pollfd> poll_fds;
      std::vector<size_t> poll_agents;
      for (size_t i = 0; i < fleet.agents.size(); ++i) {
        if (fleet.agents[i].alive) {
          poll_fds.push_back({fleet.agents[i].fd, POLLIN, 0});
          poll_agents.push_back(i);
        }
      }
      int ready;
      do {
        ready = ::poll(poll_fds.data(), poll_fds.size(), 100);
      } while (ready < 0 && errno == EINTR);
      if (ready < 0) {
        throw Error("distributed campaign: poll() failed");
      }

      for (size_t i = 0; i < poll_fds.size(); ++i) {
        if (poll_fds[i].revents == 0) {
          continue;
        }
        AgentConn& agent = fleet.agents[poll_agents[i]];
        if (!agent.alive) {
          continue;  // retired earlier in this very pass
        }
        FabricMsg type;
        std::string payload;
        FabricRead status = ReadFabricFrame(agent.fd, &type, &payload);
        if (status == FabricRead::kEof) {
          retire_agent(agent, "disconnected");
          continue;
        }
        if (status != FabricRead::kOk) {
          retire_agent(agent, "sent a garbled frame");
          continue;
        }
        if (type == FabricMsg::kHeartbeat) {
          agent.last_heartbeat = SteadySeconds();
          continue;
        }
        if (type == FabricMsg::kConfirm) {
          // Counted by the next projection. Matching is by live lease, so a
          // confirmation from an attempt already ended is as idempotent as a
          // stale result.
          size_t unit_index = 0;
          int attempt = 0;
          std::string param;
          if (!DecodeConfirm(payload, &unit_index, &attempt, &param)) {
            retire_agent(agent, "sent a malformed confirmation");
            continue;
          }
          auto lease_it = agent.leases.find(unit_index);
          if (lease_it != agent.leases.end() &&
              lease_it->second.attempt == attempt) {
            coordinator.Confirm(unit_index, param);
          }
          continue;
        }
        if (type == FabricMsg::kSnapshotNack) {
          // The agent refused units it could not prove a current snapshot
          // for (epoch mismatch — injected or real). Each refused lease
          // re-enters the queue through the requeue/backoff policy (the
          // bump-an-attempt economics every fault path shares), and the
          // agent's snapshot state is voided so its next dispatch is a full
          // resend — after which deltas resume. Line 0 is the agent's
          // epoch (log flavor only); matching is by live lease, so a stale
          // nack is as idempotent as a stale result.
          std::vector<std::string> lines = StrSplit(payload, '\n');
          std::vector<size_t> refused;
          for (size_t line = 1; line < lines.size(); ++line) {
            std::vector<std::string> head = StrSplit(lines[line], ' ');
            int64_t unit_index = -1;
            int64_t attempt = -1;
            if (head.size() < 2 || !ParseInt64(head[0], &unit_index) ||
                !ParseInt64(head[1], &attempt) || unit_index < 0) {
              continue;
            }
            auto lease_it = agent.leases.find(static_cast<size_t>(unit_index));
            if (lease_it == agent.leases.end() ||
                lease_it->second.attempt != static_cast<int>(attempt)) {
              continue;
            }
            agent.leases.erase(lease_it);
            refused.push_back(static_cast<size_t>(unit_index));
          }
          agent.snap_epoch = -1;
          expire_leases(std::move(refused), /*charge=*/true);
          continue;
        }
        if (type != FabricMsg::kResultBatch) {
          continue;  // stats before shutdown etc. — ignore
        }
        std::vector<std::string> batch_records;
        if (!DecodeBatchRecords(payload, &batch_records)) {
          retire_agent(agent, "sent a malformed result batch");
          continue;
        }
        for (const std::string& record : batch_records) {
          size_t newline = record.find('\n');
          std::vector<std::string> head =
              StrSplit(record.substr(0, newline), ' ');
          int64_t unit_index = -1;
          int64_t attempt = -1;
          int64_t result_epoch = -1;
          if (head.size() < 3 || !ParseInt64(head[0], &unit_index) ||
              !ParseInt64(head[1], &attempt) ||
              !ParseInt64(head[2], &result_epoch) ||
              newline == std::string::npos) {
            // Retirement clears the lease map; break so the remaining
            // records of this batch cannot miscount as duplicates.
            retire_agent(agent, "sent a malformed result");
            break;
          }
          auto lease_it = agent.leases.find(static_cast<size_t>(unit_index));
          if (lease_it == agent.leases.end() ||
              lease_it->second.attempt != static_cast<int>(attempt)) {
            // No live lease behind this completion: the stale duplicate a
            // re-sent or reassigned unit produces. Folding is driven only by
            // live leases, so dropping it here is what makes completion
            // idempotent.
            ++duplicate_results;
            continue;
          }
          size_t parsed_index = 0;
          UnitWorkResult unit;
          if (!ParseUnitResult(record.substr(newline + 1), &parsed_index,
                               &unit) ||
              parsed_index != static_cast<size_t>(unit_index)) {
            retire_agent(agent, "sent an unparseable result");
            break;
          }
          if (epoch_sets.count(result_epoch) == 0) {
            // An epoch this coordinator never issued, or one older than
            // every live lease's (dropped after the dispatch pass), cannot
            // name the snapshot the unit ran under — the peer is provably
            // broken, not merely stale.
            retire_agent(agent, "reported an unknown snapshot epoch");
            break;
          }
          // The result's confirmations are already recorded: its agent
          // streamed each one before the result.
          completion_seconds.push_back(SteadySeconds() -
                                       lease_it->second.dispatch_seconds);
          coordinator.Buffer(parsed_index, std::move(unit),
                             epoch_sets.at(result_epoch));
          agent.leases.erase(lease_it);
        }
      }

      // Watchdog: any lease past its deadline means a unit is stuck on a
      // live, heartbeating host (an in-agent hang blocks one worker thread,
      // not the heartbeat thread) — the whole agent is SIGKILLed and
      // retired.
      double now = SteadySeconds();
      for (AgentConn& agent : fleet.agents) {
        if (!agent.alive) {
          continue;
        }
        bool hung = false;
        for (const auto& [unit_index, lease] : agent.leases) {
          if (lease.deadline_seconds > 0 &&
              now - lease.dispatch_seconds >= lease.deadline_seconds) {
            ZLOG_WARN << "distributed campaign: watchdog — agent "
                      << agent.index << " exceeded "
                      << DoubleToString(lease.deadline_seconds)
                      << "s deadline on unit " << units[unit_index].test->id;
            hung = true;
            break;
          }
        }
        if (hung) {
          ++hung_workers;
          retire_agent(agent, "hung (watchdog)", /*hung=*/true);
          continue;
        }
        if (fabric.heartbeat_timeout_seconds > 0 &&
            now - agent.last_heartbeat > fabric.heartbeat_timeout_seconds) {
          retire_agent(agent, "went silent (heartbeat timeout)");
        }
      }

      // Fold, then send every condemned result back to the agents: the
      // re-queued units go to the head of the queue, and the cursor unit
      // among them is dispatched under the exact folded set.
      coordinator.Advance();
      coordinator.Rerun(coordinator.Condemned());
      coordinator.FlushJournal();
    }

    // ---- Graceful shutdown --------------------------------------------------
    for (AgentConn& agent : fleet.agents) {
      if (agent.alive) {
        WriteFabricFrame(agent.fd, FabricMsg::kShutdown, std::string());
      }
    }
    // Drain each surviving agent to its kStats farewell (skipping any
    // results its workers finished after the stop) and reap it cleanly.
    for (AgentConn& agent : fleet.agents) {
      if (!agent.alive) {
        continue;
      }
      bool got_farewell = false;
      double drain_deadline = SteadySeconds() + 10.0;
      while (SteadySeconds() < drain_deadline) {
        struct pollfd pfd = {agent.fd, POLLIN, 0};
        int ready;
        do {
          ready = ::poll(&pfd, 1, 200);
        } while (ready < 0 && errno == EINTR);
        if (ready <= 0) {
          continue;
        }
        FabricMsg type;
        std::string payload;
        if (ReadFabricFrame(agent.fd, &type, &payload) != FabricRead::kOk) {
          break;
        }
        if (type != FabricMsg::kStats) {
          continue;
        }
        AddCacheStats(payload, &cache_totals);
        got_farewell = true;
        break;
      }
      ::close(agent.fd);
      agent.fd = -1;
      if (agent.pid > 0) {
        if (!got_farewell) {
          // The agent never said goodbye (a wedged worker thread blocks its
          // clean exit); reaping an immortal child would block forever.
          ::kill(agent.pid, SIGKILL);
        }
        ReapAll({agent.pid});
        agent.pid = -1;
      }
      agent.alive = false;
    }
  }

  coordinator.report().hung_workers = hung_workers;
  coordinator.report().agent_disconnects = agent_disconnects;
  coordinator.report().expired_leases = expired_leases;
  coordinator.report().duplicate_results = duplicate_results;
  // Agents that died before shutdown never said goodbye: their cache
  // activity is missing from the totals, which are accounting only.
  return coordinator.Finish(resolved.enable_run_cache ? &cache_totals
                                                      : nullptr);
}

}  // namespace zebra
