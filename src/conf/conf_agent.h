// ConfAgent — the bottom layer of ZebraConf (paper §6).
//
// ConfAgent runs a given unit test with a given (possibly heterogeneous)
// configuration. Its task is to map every Configuration object created during
// the test to the entity that owns it — a node, the unit test itself, or
// "uncertain" — and to intercept get/set so that different nodes observe
// different values for the parameters under test.
//
// The implementation follows §6.2/§6.3 exactly:
//
//   Rule 1.1  A configuration object created on a thread that is currently
//             executing a node initialization function belongs to that node.
//   Rule 1.2  A configuration object created before any node has initialized
//             belongs to the unit test.
//   Rule 2    refToCloneConf: the clone belongs to the node whose init
//             function is executing; the original belongs to the unit test.
//   Rule 3    A clone belongs to the same entity as its original.
//
// Data structures mirror the paper: nodeTable, unitTestConfIDs,
// uncertainConfIDs, parentToChild, threadContext.
//
// Agent routing. The Configuration constructors must reach an agent without
// being handed one, so resolution is ambient: ConfAgent::Current() returns
// the agent installed on the calling thread (ScopedThreadConfAgent), falling
// back to the process-wide singleton. Each thread-pool worker (in the
// campaign process or in a fabric agent) installs its own agent, giving
// every worker the isolation a separate process would — sessions on
// different workers never share tables.
// Outside an active session every hook is a no-op, so the mini-applications
// remain usable as ordinary libraries.
//
// Hot path. InterceptGet is called for every configuration read a unit test
// makes — millions per campaign. The agent keeps two tables that live as
// long as it does: an arena-backed intern table (common/intern_arena.h) and
// a flat read memo (ReadMemo) keyed by (conf object, parameter name). The
// first read of a (conf, param) pair interns the name, resolves ownership,
// records the read and its trace element, and stores a pointer to the plan's
// value (or none) in the memo. Every later read hashes the conf id and the
// caller's name pointer and length, probes the memo, and compares the name
// bytes with the slot's interned copy — no byte hash, no intern lookup, no
// tree walk, no copy. New confs and clones get fresh ids, so they leave
// every memoized decision valid; only the start of a session and a
// promotion (Rule 2 back-propagation changes how an existing conf resolves)
// clear the memo, in O(1).
//
// Recording. Two readers need what a session observed. The empty-plan
// pre-run's reads drive test generation (§6) and its trace builds the
// equivalence layer's read surface; that run records everything (kFull:
// `reads`, `uncertain_params` and `trace_elements`, each string built once).
// The run cache indexes a heterogeneous run by its observed trace, which an
// equivalence lookup can only match when a read surface is installed; such a
// run records its trace alone (kTraceOnly: `trace_elements` byte-identical
// to kFull's, no `reads` or `uncertain_params`). Every other heterogeneous
// run is judged on pass/fail alone (§5) and keeps just its verdict
// (kVerdictOnly: ownership, the memo, plan lookups and the values they
// serve, counters and flags — no recorded strings at all).
// RunUnitTestShared (testkit/test_execution.h) picks the mode per run.

#ifndef SRC_CONF_CONF_AGENT_H_
#define SRC_CONF_CONF_AGENT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/intern_arena.h"
#include "src/conf/test_plan.h"

namespace zebra {

class Configuration;

// What one ConfAgent session observed. TestGenerator's pre-run consumes this
// to decide which (test, parameter, node type) combinations are effective.
// `reads` and `uncertain_params` are filled only by a full recording
// (SessionRecording::kFull: the pre-run and the runs that inspect their read
// map), `trace_elements` by a full or a trace-only one (kTraceOnly: runs the
// run cache indexes by observed trace). A verdict-only session leaves all
// three empty. Every mode fills every other field alike.
struct SessionReport {
  // Node type -> number of node instances that ran startInit.
  std::map<std::string, int> node_counts;

  // Entity key ("DataNode", "Client", ...) -> parameters read through
  // configuration objects belonging to that entity.
  std::map<std::string, std::set<std::string>> reads;

  // Parameters read through configuration objects that could not be mapped to
  // any entity. Test instances combining this unit test with these parameters
  // must be excluded (Observation 3).
  std::set<std::string> uncertain_params;

  int conf_objects_created = 0;
  int clones = 0;
  int ref_to_clones = 0;
  int uncertain_conf_count = 0;

  // A unit-test-owned configuration object was handed to at least one node
  // initialization function (the paper's "configuration object sharing").
  bool conf_sharing_detected = false;

  // Any parameter read happened at all ("tests that involve configuration
  // usage" in §6.1).
  bool any_conf_usage = false;

  // How many interceptGet calls returned a plan-assigned value.
  int override_hits = 0;

  // Canonical encoding of every observation this session made (see
  // plan_equiv.h for the element grammar). Sorted + deduplicated by the set;
  // ObservedTraceText() joins them into the cross-plan cache key. Purely
  // additive: nothing in test generation or verification reads these.
  std::set<std::string> trace_elements;

  bool StartedAnyNode() const { return !node_counts.empty(); }
  int TotalNodes() const;
  std::set<std::string> ParamsReadBy(const std::string& entity) const;
  std::set<std::string> AllParamsRead() const;
};

// Which strings of its observations a session records (see the header
// comment's "Recording").
enum class SessionRecording {
  kFull,         // reads, uncertain_params and trace_elements
  kTraceOnly,    // trace_elements only, byte-identical to kFull's
  kVerdictOnly,  // counters and flags only; the caller reads pass/fail
};

class ConfAgent {
 public:
  // The process-wide default agent (what Current() resolves to on threads
  // with no scoped agent installed).
  static ConfAgent& Instance();

  // The agent ambient on this thread: the ScopedThreadConfAgent installed
  // here, else Instance(). All Configuration hooks route through this.
  static ConfAgent& Current();

  // Instantiable for per-worker isolation (see ScopedThreadConfAgent). Most
  // code should use Current()/Instance() rather than constructing agents.
  ConfAgent() = default;

  ConfAgent(const ConfAgent&) = delete;
  ConfAgent& operator=(const ConfAgent&) = delete;

  // ---- Session control (harness side) --------------------------------------

  // Starts a recording session. `plan` may be empty (pre-run / record-only).
  // Only one session may be active at a time; test executions are serialized.
  void BeginSession(TestPlan plan);

  // Starts a session that *borrows* `plan` — the caller keeps ownership and
  // must keep the plan alive (and unmutated) until EndSession. This is the
  // hot-path entry: RunUnitTest already holds the plan for the whole
  // execution, so copying it into the session only to read Lookup() from it
  // was pure allocation traffic.
  void BeginSessionBorrowed(const TestPlan* plan, SessionRecording recording);

  // Ends the session and returns everything it observed.
  SessionReport EndSession();

  bool InSession() const { return in_session_.load(std::memory_order_acquire); }

  // ---- Annotation API (application side, paper §6.3) ------------------------

  // Brackets a node initialization function. `node_ptr` identifies the node
  // object (its address), `node_type` is e.g. "DataNode".
  void StartInit(uint64_t node_ptr, const std::string& node_type);
  void StopInit();

  // Configuration-class hooks.
  void NewConf(uint64_t conf_id);
  void CloneConf(uint64_t orig_id, uint64_t clone_id);
  // Returns the node id the clone was attached to (0 if none).
  void RefToCloneConf(uint64_t orig_id, uint64_t clone_id);

  // Interception of Configuration::Get: returns the value the plan assigns
  // to the conf's owning entity for `name`, or nullptr when the read sees the
  // conf's own value (no session, no plan entry, or an unmapped conf). The
  // pointer is into the session's plan and stays valid until the session
  // ends; the caller copies or parses it in place. Takes a string_view so the
  // caller never materializes a std::string for the name; the agent keeps a
  // single interned copy per parameter for its recording structures.
  const std::string* InterceptGet(uint64_t conf_id, std::string_view name);

  // Interception of Configuration::Has: records the presence check in the
  // session trace (a plan override never changes what Has() returns, but the
  // equivalence layer must still see that the parameter was observed).
  // Deliberately does not touch `reads`/`uncertain_params`/`any_conf_usage`,
  // so test generation is unchanged by presence checks. Recording the trace
  // is all it does, so a verdict-only session returns at once.
  void InterceptHas(uint64_t conf_id, std::string_view name);

  // Interception of Configuration::Set: propagates the write to the parent
  // configuration object when the conf belongs to a node that was initialized
  // from a unit-test conf (paper: interceptSet parent write-back).
  void InterceptSet(uint64_t conf_id, const std::string& name, const std::string& value);

  // ---- Configuration-object registry ----------------------------------------

  // Configuration registers/unregisters itself so interceptSet can write back
  // into parent objects. Safe to call outside a session.
  void RegisterConfObject(uint64_t conf_id, Configuration* conf);
  void UnregisterConfObject(uint64_t conf_id);

  // Allocates a process-unique configuration-object id. Process-wide (not
  // per-agent) so ids never collide across worker agents, whichever agent a
  // conf object later reaches.
  static uint64_t NextConfId();

  // ---- Introspection (used by tests and the reporting layer) ----------------

  // Entity key the conf currently maps to: node type, kClientEntity,
  // "@uncertain", or nullopt if unknown. Only valid during a session.
  std::optional<std::string> EntityOf(uint64_t conf_id) const;

  // Node index of the node owning this conf (-1 if not node-owned).
  int NodeIndexOf(uint64_t conf_id) const;

 private:
  struct NodeInfo {
    uint64_t node_id = 0;  // hashCode analog: the node object's address
    std::string node_type;
    int node_index = 0;  // i-th node of this type in this session
    std::vector<uint64_t> conf_ids;
    uint64_t parent_conf_id = 0;  // conf passed into the init function, if any
  };

  // The read memo: (conf id, parameter name) -> what a read of that pair
  // decided, as one flat open-addressing table with linear probing. A slot is
  // live only while its generation equals the table's, so Clear() is one
  // increment. A probe starts at a hash of the conf id and the caller's name
  // pointer and length, and a hit requires the name bytes to equal the slot's
  // interned copy: a caller that rewrites one buffer in place to another
  // name reaches the old slot, fails the byte check and misses. A miss is
  // always safe — the caller resolves the read again and recording is
  // idempotent — so a table that must grow drops its contents instead of
  // rehashing, and one at its size cap clears.
  class ReadMemo {
   public:
    struct Slot {
      uint64_t conf_id = 0;
      std::string_view name;               // the interned copy
      const std::string* value = nullptr;  // the plan's value; nullptr: none
      uint32_t generation = 0;             // live iff equal to the table's
    };

    // The live slot for (conf_id, name), or nullptr.
    const Slot* Find(uint64_t conf_id, std::string_view name) const;

    // Memoizes `value` for (conf_id, interned) where a probe with the
    // caller's view `name` (same bytes as `interned`) will look first.
    void Insert(uint64_t conf_id, std::string_view name,
                std::string_view interned, const std::string* value);

    // Drops every slot in O(1).
    void Clear();

   private:
    // A unit test memoizes a few dozen pairs per session, well under half of
    // the initial table. The cap bounds a session that reads through
    // thousands of confs; past it the table clears rather than grows.
    static constexpr size_t kInitialSlots = 256;
    static constexpr size_t kMaxSlots = 4096;

    size_t Home(uint64_t conf_id, std::string_view name) const;

    std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
    uint32_t generation_ = 1;  // never 0, the generation of an unused slot
    size_t live_ = 0;
  };

  struct Session {
    // The plan in force: `plan` points at either a caller-owned plan
    // (BeginSessionBorrowed) or `owned_plan` (BeginSession). Never null while
    // the session is active.
    TestPlan owned_plan;
    const TestPlan* plan = nullptr;
    bool record_reads = true;  // kFull: reads and uncertain_params
    bool record_trace = true;  // kFull or kTraceOnly: trace_elements
    std::map<uint64_t, NodeInfo> node_table;           // node_id -> info
    std::map<uint64_t, uint64_t> conf_to_node;         // conf_id -> node_id
    std::set<uint64_t> unit_test_conf_ids;
    std::set<uint64_t> uncertain_conf_ids;
    std::map<uint64_t, uint64_t> child_to_parent;      // clone -> original
    std::map<std::thread::id, std::vector<uint64_t>> thread_context;
    std::map<std::string, int> type_counts;            // node_type -> next index

    SessionReport report;
  };

  // Interns `name` in the agent-lifetime arena (no per-session re-interning;
  // the vocabulary is shared by every session this agent runs). Caller holds
  // mutex.
  std::string_view InternLocked(std::string_view name);

  // Inserts a copy of record_buffer_ into `set` unless it is already there,
  // so a repeated observation builds no string. Caller holds mutex.
  void RecordBufferLocked(std::set<std::string>* set);

  // Resolves a conf id to its entity key; records nothing. The view points at
  // a node-table entry or a constant, so it stays valid for the session.
  // Caller holds mutex.
  std::optional<std::string_view> ResolveEntityLocked(uint64_t conf_id,
                                                      int* node_index) const;

  // Moves `conf_id` and its transitive parents from uncertain to unit-test
  // ownership (used by Rule 2 + Rule 3 back-propagation). Caller holds mutex.
  void PromoteToUnitTestLocked(uint64_t conf_id);

  // Clears both memos: at session start (slots point into the previous
  // session's plan) and on promotion. Caller holds mutex.
  void ClearMemosLocked();

  mutable std::mutex mutex_;
  std::unique_ptr<Session> session_;
  std::atomic<bool> in_session_{false};
  InternArena intern_;  // agent-lifetime; views outlive every session
  // Both memos are guarded by mutex_ (every thread of a session reads and
  // fills them) and valid for the current session until a promotion. Reads
  // memoize their plan value; presence checks (trace-recording sessions
  // only) use a slot just to mark their trace element recorded.
  ReadMemo get_memo_;
  ReadMemo has_memo_;
  std::string record_buffer_;  // scratch for RecordBufferLocked; keeps capacity
  std::map<uint64_t, Configuration*> conf_registry_;
};

// RAII session guard used by the harness. Binds to the thread-current agent
// at construction so Begin and End always address the same agent, even if
// the body migrates work across threads.
class ConfAgentSession {
 public:
  explicit ConfAgentSession(TestPlan plan) : agent_(&ConfAgent::Current()) {
    agent_->BeginSession(std::move(plan));
  }
  // Borrowing form: `plan` must outlive the session (RunUnitTest owns the
  // plan for the whole execution, so the session need not copy it).
  ConfAgentSession(const TestPlan* plan, SessionRecording recording)
      : agent_(&ConfAgent::Current()) {
    agent_->BeginSessionBorrowed(plan, recording);
  }
  ~ConfAgentSession() {
    if (!ended_) {
      agent_->EndSession();
    }
  }
  ConfAgentSession(const ConfAgentSession&) = delete;
  ConfAgentSession& operator=(const ConfAgentSession&) = delete;

  SessionReport End() {
    ended_ = true;
    return agent_->EndSession();
  }

 private:
  ConfAgent* agent_;
  bool ended_ = false;
};

// Installs a fresh agent as this thread's Current() for the scope — the
// thread-pool scheduler's per-worker isolation (the in-process analog of a
// separate address space). Nesting restores the
// previous agent on destruction. The agent must outlive every Configuration
// object registered with it; worker threads guarantee this by construction
// (all conf objects are created and destroyed inside unit-test bodies that
// run within the scope).
class ScopedThreadConfAgent {
 public:
  ScopedThreadConfAgent();
  ~ScopedThreadConfAgent();
  ScopedThreadConfAgent(const ScopedThreadConfAgent&) = delete;
  ScopedThreadConfAgent& operator=(const ScopedThreadConfAgent&) = delete;

  ConfAgent& agent() { return agent_; }

 private:
  ConfAgent agent_;
  ConfAgent* previous_;
};

}  // namespace zebra

#endif  // SRC_CONF_CONF_AGENT_H_
