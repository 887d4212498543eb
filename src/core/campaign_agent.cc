#include "src/core/campaign_agent.h"

#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/conf/conf_agent.h"
#include "src/core/campaign_journal.h"
#include "src/core/fabric_wire.h"
#include "src/core/report_io.h"
#include "src/core/worker_ipc.h"

namespace zebra {

namespace {

struct AgentWorkItem {
  size_t unit_index = 0;
  int attempt = 0;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepSeconds(double seconds) {
  struct timespec delay;
  delay.tv_sec = static_cast<time_t>(seconds);
  delay.tv_nsec =
      static_cast<long>((seconds - static_cast<double>(delay.tv_sec)) * 1e9);
  ::nanosleep(&delay, nullptr);
}

// True when an explicit kEpochDesync spec fires at this coordinate. Decided
// in the reader thread at dispatch receipt — the fault models the *snapshot
// bookkeeping* going wrong, not the execution — and kept kind-filtered so a
// mixed plan's crash/drop specs still reach the worker untouched.
bool EpochDesyncFires(const NetFaultPlan& plan, int agent_index,
                      const std::string& test_id, int attempt) {
  for (const NetFaultSpec& spec : plan.specs) {
    if (spec.kind != NetFaultKind::kEpochDesync) {
      continue;
    }
    if ((spec.test_id.empty() || spec.test_id == test_id) &&
        (spec.agent == -1 || spec.agent == agent_index) &&
        (spec.attempt == -1 || spec.attempt == attempt)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string FabricSchemaHash(const ConfSchema& schema,
                             const UnitTestRegistry& corpus,
                             const CampaignOptions& options) {
  // Resolve the options exactly as any executor would (apps expanded and
  // sorted) so both ends hash the same fingerprint regardless of whether the
  // caller passed an explicit app list.
  Campaign engine(schema, corpus, options);
  return HashToHex(
      HashFnv64(CampaignJournal::Fingerprint(engine.options(), corpus)));
}

int RunCampaignAgent(const ConfSchema& schema, const UnitTestRegistry& corpus,
                     CampaignOptions options,
                     const CampaignAgentOptions& agent) {
  if (agent.threads < 1) {
    ZLOG_WARN << "campaign agent " << agent.agent_index
              << ": threads must be >= 1";
    return 2;
  }
  ScopedIgnoreSigPipe sigpipe_guard;

  // Resolve options and the canonical unit order; the coordinator's dispatch
  // indices refer to exactly this vector (schema-hash agreement below proves
  // both sides built the same one).
  Campaign resolver(schema, corpus, std::move(options));
  const CampaignOptions& resolved = resolver.options();
  std::vector<const UnitTestDef*> units;
  for (const std::string& app : resolved.apps) {
    for (const UnitTestDef* test : corpus.ForApp(app)) {
      units.push_back(test);
    }
  }

  int fd = ConnectTcp(agent.host, agent.port, agent.connect_timeout_seconds);
  if (fd < 0) {
    ZLOG_WARN << "campaign agent " << agent.agent_index
              << ": cannot reach coordinator at " << agent.host << ":"
              << agent.port;
    return 3;
  }

  // Handshake. The protocol version travels in the frame header; the payload
  // carries what the header cannot: schema hash, capacity, identity.
  const std::string schema_hash =
      HashToHex(HashFnv64(CampaignJournal::Fingerprint(resolved, corpus)));
  std::string hello = schema_hash + "\n" + Int64ToString(agent.threads) +
                      "\n" + Int64ToString(agent.agent_index);
  FabricMsg type;
  std::string payload;
  if (!WriteFabricFrame(fd, FabricMsg::kHello, hello) ||
      ReadFabricFrame(fd, &type, &payload) != FabricRead::kOk ||
      type != FabricMsg::kWelcome) {
    ZLOG_WARN << "campaign agent " << agent.agent_index
              << ": handshake refused"
              << (type == FabricMsg::kReject ? " (" + payload + ")" : "");
    ::close(fd);
    return 4;
  }
  std::vector<std::string> welcome = StrSplit(payload, '\n');
  double heartbeat_interval = 0.2;
  if (welcome.size() >= 2) {
    ParseDouble(welcome[1], &heartbeat_interval);
  }

  // ---- Local thread pool ----------------------------------------------------

  std::unique_ptr<RunCache> shared_cache;
  std::string cache_path;
  RunCache::Stats cache_baseline;
  if (resolved.enable_run_cache) {
    shared_cache = std::make_unique<RunCache>(
        RunCache::Limits{resolved.cache_max_entries, resolved.cache_max_bytes});
    if (!agent.cache_dir.empty()) {
      // Keyed by schema hash (a stale campaign shape must never warm-start
      // this one) and agent index (SaveToFile is a plain rewrite, so spawned
      // siblings sharing one path would race at shutdown).
      cache_path = agent.cache_dir + "/fabric-" + schema_hash + "-agent" +
                   Int64ToString(agent.agent_index) + ".zc";
      if (shared_cache->LoadFromFile(cache_path)) {
        ZLOG_INFO << "campaign agent " << agent.agent_index
                  << ": warm run cache from " << cache_path;
      }
      // Corrupt files degrade to a cold start inside LoadFromFile (v2
      // fail-closed path) and leave Stats::load_failures set — reported in
      // the farewell below, absolute, so the coordinator surfaces it.
    }
    cache_baseline = shared_cache->stats();
  }

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<AgentWorkItem> queue;
  bool stop = false;

  // Globally-unsafe snapshot, shared under queue_mutex. The reader applies
  // every received snapshot section here; a worker copies the set at the
  // moment it *starts* a unit — not when the batch arrived — so a pipelined
  // unit that waited behind depth-1 peers runs under the freshest set this
  // agent has ever been told about, exactly as a thread-pool worker reads
  // the live set at execution start. Two epochs track it: the wire epoch is
  // the delta-validation ack (-1 = cannot prove currency, forces the nack /
  // full-resend path) and the run epoch names the held set itself (it
  // survives a desync, because the set does). Every result is stamped with
  // the run epoch it executed under; the coordinator judges staleness
  // against that epoch's set. Epoch 0 = the empty set both sides start from.
  int64_t snap_epoch_wire = -1;
  int64_t snap_epoch_run = 0;
  std::set<std::string> snap_unsafe;

  // All socket writes (confirmations, result batches, heartbeats, nacks,
  // injected junk) serialize here so frames never interleave mid-stream.
  std::mutex write_mutex;

  // Completed-result outbox. A worker finishing a unit appends its record
  // here; whichever worker finds no sender active becomes the sender and
  // drains everything queued — under way, concurrent finishers just append
  // and return. A burst of completions thus leaves as one kResultBatch
  // frame, and no worker ever blocks on a peer's socket write.
  std::mutex outbox_mutex;
  std::vector<std::string> outbox;
  bool sender_active = false;

  auto flush_results = [&](std::vector<std::string> first) {
    std::vector<std::string> pending = std::move(first);
    for (;;) {
      std::string batch;
      for (const std::string& record : pending) {
        AppendBatchRecord(&batch, record);
      }
      {
        std::lock_guard<std::mutex> lock(write_mutex);
        if (!WriteFabricFrame(fd, FabricMsg::kResultBatch, batch)) {
          std::_Exit(5);  // coordinator went away; nothing left to report to
        }
      }
      std::lock_guard<std::mutex> lock(outbox_mutex);
      if (outbox.empty()) {
        sender_active = false;
        return;
      }
      pending.clear();
      pending.swap(outbox);
    }
  };

  // kDelayedHeartbeat: monotonic time before which the heartbeat thread
  // stays silent. Stored as a bit-cast-free integer of milliseconds to keep
  // it a plain atomic.
  std::atomic<int64_t> heartbeat_mute_until_ms{0};

  auto worker_main = [&]() {
    ScopedThreadConfAgent agent_scope;
    Campaign engine(schema, corpus, resolved);
    if (shared_cache != nullptr) {
      engine.UseSharedRunCache(shared_cache.get());
    }
    for (;;) {
      AgentWorkItem item;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return stop || !queue.empty(); });
        if (stop && queue.empty()) {
          return;
        }
        item = std::move(queue.front());
        queue.pop_front();
      }
      if (item.unit_index >= units.size()) {
        continue;  // corrupt dispatch survived checksums; drop it
      }
      const UnitTestDef& test = *units[item.unit_index];

      // Network faults first (they model the transport, which wraps the
      // execution), then process faults (they model the worker itself).
      NetFaultSpec net_fault;
      bool net_fires = !agent.net_faults.empty() &&
                       agent.net_faults.Decide(agent.agent_index, test.id,
                                               item.attempt, &net_fault);
      if (net_fires) {
        switch (net_fault.kind) {
          case NetFaultKind::kAgentCrash:
            std::_Exit(13);  // whole-host loss before any work happened
          case NetFaultKind::kGarbledFrame: {
            std::lock_guard<std::mutex> lock(write_mutex);
            WriteAll(fd, "!!!NOT-A-FABRIC-FRAME!!!", 24);
            std::_Exit(6);
          }
          case NetFaultKind::kDelayedHeartbeat: {
            int64_t until_ms = static_cast<int64_t>(
                (NowSeconds() + net_fault.delay_seconds) * 1000.0);
            heartbeat_mute_until_ms.store(until_ms, std::memory_order_relaxed);
            break;  // then execute and report normally
          }
          case NetFaultKind::kEpochDesync:
            // Decided (and acted on) in the reader thread at dispatch
            // receipt; a unit that reached the queue anyway runs normally.
            break;
          case NetFaultKind::kConnectionDrop:
          case NetFaultKind::kStaleDuplicateResult:
            break;  // both fire after execution
        }
      }
      FaultSpec fault;
      if (!agent.faults.empty() &&
          agent.faults.Decide(agent.agent_index, test.id, item.attempt,
                              &fault)) {
        switch (fault.kind) {
          case FaultKind::kCrash:
            std::_Exit(13);
          case FaultKind::kHang:
            // Block this worker thread forever. Heartbeats keep flowing from
            // their own thread, so only the coordinator's per-lease watchdog
            // can recognize the unit as stuck — which is the point.
            for (;;) {
              ::pause();
            }
          case FaultKind::kGarbledFrame: {
            std::lock_guard<std::mutex> lock(write_mutex);
            WriteAll(fd, "!GARBLED-FRAME!!", 16);
            std::_Exit(6);
          }
          case FaultKind::kSlowWorker:
            SleepSeconds(fault.slow_seconds);
            break;  // then execute normally
        }
      }

      // Execution-start snapshot read: whatever the reader has applied by
      // now, even if it landed after this unit's own dispatch batch.
      std::set<std::string> unsafe;
      int64_t run_epoch = 0;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        unsafe = snap_unsafe;
        run_epoch = snap_epoch_run;
      }
      // Each confirmation goes out the moment it is made, so the
      // coordinator's projections count it before the result arrives. It
      // precedes the result record on the one connection.
      auto stream_confirmation = [&](const UnitConfirmation& confirmation) {
        const std::string frame =
            EncodeConfirm(item.unit_index, item.attempt, confirmation.param);
        std::lock_guard<std::mutex> lock(write_mutex);
        if (!WriteFabricFrame(fd, FabricMsg::kConfirm, frame)) {
          std::_Exit(5);  // coordinator went away; nothing left to report to
        }
      };
      UnitWorkResult unit;
      try {
        unit = engine.RunUnit(test, unsafe, stream_confirmation);
      } catch (const std::exception& e) {
        // An escaped exception takes the whole agent down so the
        // coordinator's requeue path recovers the lease.
        ZLOG_WARN << "campaign agent " << agent.agent_index << ": unit "
                  << test.id << " failed (" << e.what() << ")";
        std::_Exit(14);
      }

      if (net_fires && net_fault.kind == NetFaultKind::kConnectionDrop) {
        // The unit ran to completion, then the host dropped off the network
        // before the result got out — the lease must expire and the work
        // must be redone elsewhere.
        std::_Exit(7);
      }

      std::string record =
          Int64ToString(static_cast<int64_t>(item.unit_index)) + " " +
          Int64ToString(item.attempt) + " " + Int64ToString(run_epoch) +
          "\n" + SerializeUnitResult(item.unit_index, unit);
      int copies =
          net_fires && net_fault.kind == NetFaultKind::kStaleDuplicateResult
              ? 2
              : 1;
      std::vector<std::string> to_send;
      {
        std::lock_guard<std::mutex> lock(outbox_mutex);
        for (int i = 0; i < copies; ++i) {
          outbox.push_back(record);
        }
        if (sender_active) {
          continue;  // the active sender drains the outbox, this record with it
        }
        sender_active = true;
        to_send.swap(outbox);
      }
      flush_results(std::move(to_send));
    }
  };

  std::atomic<bool> heartbeat_stop{false};
  std::mutex heartbeat_mutex;
  std::condition_variable heartbeat_cv;
  auto heartbeat_main = [&]() {
    // Tick at a fraction of the interval so un-muting is noticed promptly;
    // the condition variable lets shutdown interrupt the wait immediately
    // instead of draining the tail of a sleep (that tail used to dominate
    // the fleet's farewell latency).
    double last_sent = 0.0;
    std::unique_lock<std::mutex> wait_lock(heartbeat_mutex);
    while (!heartbeat_stop.load(std::memory_order_relaxed)) {
      double now = NowSeconds();
      bool muted = static_cast<int64_t>(now * 1000.0) <
                   heartbeat_mute_until_ms.load(std::memory_order_relaxed);
      if (!muted && now - last_sent >= heartbeat_interval) {
        std::lock_guard<std::mutex> lock(write_mutex);
        // A failed heartbeat means the coordinator is gone; the reader loop
        // will see EOF and wind the agent down — no need to act here.
        WriteFabricFrame(fd, FabricMsg::kHeartbeat, std::string());
        last_sent = now;
      }
      heartbeat_cv.wait_for(
          wait_lock,
          std::chrono::duration<double>(std::min(0.05, heartbeat_interval / 2.0)),
          [&]() { return heartbeat_stop.load(std::memory_order_relaxed); });
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(agent.threads));
  for (int i = 0; i < agent.threads; ++i) {
    workers.emplace_back(worker_main);
  }
  std::thread heartbeat_thread(heartbeat_main);

  // RAII teardown for every exit path below: stop and join the pool before
  // the lambdas' captures go out of scope.
  auto shutdown_pool = [&]() {
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      stop = true;
      queue.clear();  // undelivered dispatches die with the connection
    }
    queue_cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(heartbeat_mutex);
      heartbeat_stop.store(true, std::memory_order_relaxed);
    }
    heartbeat_cv.notify_all();
    for (std::thread& worker : workers) {
      if (worker.joinable()) {
        worker.join();
      }
    }
    if (heartbeat_thread.joinable()) {
      heartbeat_thread.join();
    }
  };

  // ---- Reader loop ----------------------------------------------------------

  // The wire epoch is the agent's acknowledgement: a delta whose base is
  // anything else is refused with a nack, because executing under a set the
  // agent cannot prove current would silently break the staleness contract.

  int exit_code = 0;
  for (;;) {
    FabricRead status = ReadFabricFrame(fd, &type, &payload);
    if (status != FabricRead::kOk) {
      ZLOG_WARN << "campaign agent " << agent.agent_index
                << ": coordinator connection lost";
      exit_code = 8;
      break;
    }
    if (type == FabricMsg::kShutdown) {
      break;
    }
    if (type != FabricMsg::kDispatchBatch) {
      continue;  // heartbeat echoes etc. — nothing for an agent to do
    }
    std::vector<std::string> records;
    if (!DecodeBatchRecords(payload, &records) || records.empty()) {
      // Checksum-valid but structurally broken: a coordinator bug, not line
      // noise. The connection is not trustworthy; wind down like a loss.
      ZLOG_WARN << "campaign agent " << agent.agent_index
                << ": malformed dispatch batch";
      exit_code = 8;
      break;
    }

    // Record 0: the snapshot section. "<base_epoch> <new_epoch> <mode>" then
    // a CSV line — the full set for F(ull), "+param"/"-param" deltas against
    // base_epoch for D(elta), empty for K(eep, no change since base).
    bool snapshot_ok = false;
    {
      size_t newline = records[0].find('\n');
      std::vector<std::string> head =
          StrSplit(records[0].substr(0, newline), ' ');
      int64_t base = -1, next = -1;
      if (head.size() >= 3 && ParseInt64(head[0], &base) &&
          ParseInt64(head[1], &next)) {
        std::vector<std::string> entries;
        if (newline != std::string::npos) {
          entries = StrSplit(records[0].substr(newline + 1), ',');
        }
        std::lock_guard<std::mutex> lock(queue_mutex);
        if (head[2] == "F") {
          snap_unsafe.clear();
          for (const std::string& param : entries) {
            if (!param.empty()) {
              snap_unsafe.insert(param);
            }
          }
          snap_epoch_wire = next;
          snap_epoch_run = next;
          snapshot_ok = true;
        } else if (head[2] == "D" && snap_epoch_wire == base) {
          for (const std::string& entry : entries) {
            if (entry.size() < 2) {
              continue;
            }
            if (entry[0] == '+') {
              snap_unsafe.insert(entry.substr(1));
            } else if (entry[0] == '-') {
              snap_unsafe.erase(entry.substr(1));
            }
          }
          snap_epoch_wire = next;
          snap_epoch_run = next;
          snapshot_ok = true;
        } else if (head[2] == "K" && snap_epoch_wire == base) {
          snapshot_ok = true;
        }
      }
    }

    // Records 1..n: "<unit> <attempt>". An unappliable snapshot refuses the
    // whole batch; an injected epoch desync refuses one unit and forgets the
    // epoch, so the *next* delta mismatches and forces the full-resend path.
    std::vector<std::string> nacked;
    std::vector<AgentWorkItem> accepted;
    for (size_t r = 1; r < records.size(); ++r) {
      std::vector<std::string> head = StrSplit(records[r], ' ');
      int64_t unit_index = -1;
      int64_t attempt = 0;
      if (head.size() < 2 || !ParseInt64(head[0], &unit_index) ||
          !ParseInt64(head[1], &attempt) || unit_index < 0 ||
          static_cast<size_t>(unit_index) >= units.size()) {
        ZLOG_WARN << "campaign agent " << agent.agent_index
                  << ": malformed dispatch record; ignoring";
        continue;
      }
      if (!snapshot_ok) {
        nacked.push_back(records[r]);
        continue;
      }
      if (EpochDesyncFires(agent.net_faults, agent.agent_index,
                           units[static_cast<size_t>(unit_index)]->id,
                           static_cast<int>(attempt))) {
        nacked.push_back(records[r]);
        // The set survives (so does its run epoch); the proof of currency
        // does not.
        std::lock_guard<std::mutex> lock(queue_mutex);
        snap_epoch_wire = -1;
        continue;
      }
      AgentWorkItem item;
      item.unit_index = static_cast<size_t>(unit_index);
      item.attempt = static_cast<int>(attempt);
      accepted.push_back(std::move(item));
    }
    // A failed snapshot on a unit-less batch (a pure broadcast) still nacks
    // — zero refused units, but the coordinator must learn its optimistic
    // epoch bookkeeping is wrong and fall back to a full resend.
    if (!nacked.empty() || !snapshot_ok) {
      int64_t nack_epoch;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        if (!snapshot_ok) {
          ZLOG_WARN << "campaign agent " << agent.agent_index
                    << ": snapshot epoch mismatch; nacking "
                    << nacked.size() << " units for redispatch";
          snap_epoch_wire = -1;
        }
        nack_epoch = snap_epoch_wire;
      }
      std::string nack = Int64ToString(nack_epoch);
      for (const std::string& line : nacked) {
        nack += "\n" + line;
      }
      std::lock_guard<std::mutex> lock(write_mutex);
      WriteFabricFrame(fd, FabricMsg::kSnapshotNack, nack);
    }
    if (!accepted.empty()) {
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        for (AgentWorkItem& item : accepted) {
          queue.push_back(std::move(item));
        }
      }
      queue_cv.notify_all();
    }
  }

  shutdown_pool();

  if (exit_code == 0 && !cache_path.empty() && shared_cache != nullptr) {
    // Persist before the farewell so a coordinator that reaps promptly never
    // races a half-written file into the next campaign.
    if (!shared_cache->SaveToFile(cache_path)) {
      ZLOG_WARN << "campaign agent " << agent.agent_index
                << ": cannot persist run cache to " << cache_path;
    }
  }

  if (exit_code == 0) {
    // Farewell stats (fabric_wire.h): per-campaign deltas against the
    // post-load baseline, load failures absolute.
    std::string stats;
    if (shared_cache != nullptr) {
      stats = EncodeCacheStats(shared_cache->stats(), cache_baseline);
    }
    std::lock_guard<std::mutex> lock(write_mutex);
    WriteFabricFrame(fd, FabricMsg::kStats, stats);
  }
  ::close(fd);
  return exit_code;
}

}  // namespace zebra
