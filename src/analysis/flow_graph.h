// zebralint's config-flow graph: the interprocedural layer between the
// per-TU extractor and the StaticPriorReport.
//
// Nodes are configuration parameters, the locals/fields assigned from them,
// functions, and *typed* sink statements; edges are assignments, calls, and
// summary-propagated flows. The graph is built in two stages:
//
//   1. BuildProgramFacts — per-statement facts (reads, callees, sink signals,
//      assignment targets) recomputed from each function's retained token
//      range. Facts depend only on the function's tokens plus the merged
//      program tables (param constants, var/return types, node classes), so
//      they are summary-cacheable per TU: the summary cache stores them
//      keyed by (content hash, table hash) and unchanged TUs skip lexing and
//      fact recomputation entirely (see summary_cache.h).
//   2. BuildFlowGraph — the program-wide fixpoint over those facts: function
//      sink summaries, protocol-surface closure, taint propagation through
//      locals and helpers. It classifies every parameter with at least one
//      read site as WIRE-TAINTED (its value can influence bytes, tokens,
//      timing, or errors observed by another node) or NODE-LOCAL (it only
//      shapes state private to the reading node) — the static realization
//      of ZebraConf's core observation that a heterogeneous-unsafe parameter
//      must have a read site whose value escapes the node through a protocol
//      surface. A parameter is wire-tainted when one of these rules fires:
//
//        R1 (statement co-occurrence) — a statement that reads a parameter
//           (or uses a local previously assigned from one) and also
//             a. calls a wire primitive (EncodeFrame, WireToken, RpcGate, ...),
//             b. calls a method on a node-class-typed receiver (a cross-node
//                call in the simulator's object model),
//             c. calls a function whose own body reaches a wire sink
//                (summary-propagated),
//             d. calls a function whose name matches a protocol pattern
//                (heartbeat/handshake/liveness/stale/token/wire), or
//             e. throws a protocol-visible error (RpcError, HandshakeError, ...)
//           taints that parameter. Because statements are split on ';' at
//           paren depth 0, an `if (x > limit) { throw LimitError(...); }`
//           keeps the guard and the throw together — a cheap
//           control-dependence edge.
//        R2 (protocol surface) — every parameter read inside a function that
//           is itself a protocol surface (called cross-node, or
//           name-matching, or transitively invoked from one) is tainted: its
//           value shapes the behavior a *remote* caller observes.
//        R3 (helper propagation) — when a sink statement calls a locally
//           defined helper, the parameters that helper reads directly are
//           tainted (the DfsDataWireConfig pattern: a struct-builder whose
//           fields feed the wire).
//
//      Everything else stays node-local. Each verdict carries human-readable
//      reasons with file:line so `zebralint` reports are auditable. The
//      graph *refines* the binary verdict with
//
//        * sink typing  — every sink a parameter reaches is classified
//          (wire-encode, cross-node call, protocol error, comparison guard,
//          persistence, timer/deadline), turning the binary wire/local
//          verdict into a priority spectrum (a parameter guarding a deadline
//          outranks one merely copied into a frame);
//        * coupling     — parameters that reach the same sink statement, or
//          whose reads live in the same protocol surface (the same wire
//          path), form coupling sets that seed pairwise combination plans in
//          TestGenerator.
//
// Everything is deterministic: functions are processed in (TU, definition)
// order, reasons and coupling sets are emitted in sorted order, and no
// container is keyed by pointer value — byte-identical inputs produce
// byte-identical reports (the golden-file self-scan test locks this in).

#ifndef SRC_ANALYSIS_FLOW_GRAPH_H_
#define SRC_ANALYSIS_FLOW_GRAPH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/read_site_extractor.h"

namespace zebra {
namespace analysis {

// Typed sinks, as a bitmask so per-function summaries union cheaply in the
// fixpoint and serialize as one integer in the summary cache.
enum SinkType : uint8_t {
  kSinkWireEncode = 1 << 0,     // wire primitive call (EncodeFrame, ...)
  kSinkCrossNode = 1 << 1,      // method call on a node-class receiver
  kSinkProtocolError = 1 << 2,  // throw of a protocol-visible error
  kSinkGuard = 1 << 3,          // comparison guarding observable behavior
  kSinkPersistence = 1 << 4,    // persistence-flavored callee
  kSinkTimerDeadline = 1 << 5,  // timer/deadline/heartbeat-flavored flow
};
using SinkMask = uint8_t;

// Stable short names ("wire-encode", "timer-deadline", ...) for reports.
std::vector<std::string> SinkMaskNames(SinkMask mask);

// True when `name` matches a protocol-surface name pattern (send/recv/
// handle/...). Exposed so the extractor can stamp FunctionModel::
// name_is_protocol once at extraction time instead of every graph build.
bool MatchesProtocolName(const std::string& name);

// Per-statement facts, recomputed from the retained token range (or loaded
// from the summary cache). `used_locals` is `idents` filtered to the
// enclosing function's assignment-target set — the only identifiers the
// local-taint propagation can ever look up — which keeps cached facts small
// without changing any verdict.
//
// The string collections are sorted, deduplicated vectors rather than sets:
// after fact construction they are only ever iterated, and a warm (fully
// cached) analysis walks every statement's collections on every run — vector
// locality there is worth the one-time sort at build time.
struct StmtFacts {
  std::vector<std::string> direct_params;  // params read in this statement
  int first_line = 0;
  std::vector<std::string> callees;
  std::vector<std::string> cross_node_methods;  // methods called on node objs
  bool has_wire_primitive = false;
  bool has_protocol_throw = false;
  bool has_comparison = false;   // relational/equality operator present
  bool has_persistence = false;  // persistence-flavored callee
  bool has_timer = false;        // timer/deadline-flavored callee
  std::string assign_target;     // lhs of the first top-level '='
  std::vector<std::string> used_locals;  // idents ∩ fn assignment targets

  // Pattern-derived callee classification, precomputed here because the name
  // patterns are static: the fixpoint seed and rule R1d would otherwise
  // re-match every callee name on every analysis, which dominates a warm
  // (fully cached) graph build.
  SinkMask protocol_callee_mask = 0;   // union over protocol-named callees
  std::string first_protocol_callee;   // first (set order) such callee
  bool first_protocol_is_timer = false;
};

// One function's facts: a borrowed FunctionModel plus its statement facts,
// tagged with the deterministic (tu, fn) position used for all iteration.
// `stmts` points either at `computed` (freshly built) or into the summary
// cache (borrowed, no copy) — consumers read through the pointer.
struct FnFacts {
  const FunctionModel* fn = nullptr;
  size_t tu_index = 0;
  size_t fn_index = 0;
  const std::vector<StmtFacts>* stmts = nullptr;
  std::vector<StmtFacts> computed;  // backing storage when recomputed
};

// The whole program's facts, in deterministic order.
struct ProgramFacts {
  const ProgramModel* program = nullptr;
  std::vector<FnFacts> functions;  // (tu_index, fn_index) ascending
  // FNV-1a over the merged program tables (param constants, node classes,
  // var/return types). Summary-cached facts are only valid under the table
  // hash they were computed with: a new param constant can resolve a read in
  // an untouched TU, so a table change invalidates every cached summary.
  uint64_t table_hash = 0;
};

// Computes per-statement facts for one function against the merged tables.
// Exposed so the summary cache can recompute facts for just the changed TUs.
std::vector<StmtFacts> BuildFnFacts(const ProgramModel& program,
                                    const FunctionModel& fn);

// Hash of the merged program tables (see ProgramFacts::table_hash).
uint64_t ProgramTableHash(const ProgramModel& program);

// Builds facts for every function. `cached_tus`, when non-null, is aligned
// with program.tus: entry t (if non-null) holds per-function statement facts
// for that TU straight from the summary cache — those functions borrow the
// cached facts and skip recomputation. `facts_computed`/`facts_cached`
// (optional) count how each function was obtained. `table_hash`, when
// non-null, is a precomputed ProgramTableHash(program) — callers that already
// hashed the tables (the summary-cache gate) pass it to avoid a second full
// walk of the merged maps.
ProgramFacts BuildProgramFacts(
    const ProgramModel& program,
    const std::vector<const std::vector<std::vector<StmtFacts>>*>* cached_tus =
        nullptr,
    int* facts_computed = nullptr, int* facts_cached = nullptr,
    const uint64_t* table_hash = nullptr);

// One parameter's flow summary.
struct ParamFlow {
  std::string param;
  bool wire_tainted = false;
  std::vector<std::string> reasons;  // deterministic order, capped at 8
  SinkMask sink_mask = 0;            // union of all sink types reached
  // Sink statements reached ("file:line"), for coupling and reports.
  std::set<std::string> sink_keys;
  // Protocol surfaces whose bodies read this parameter (wire paths).
  std::set<std::string> wire_paths;
};

struct FlowGraph {
  // Keyed lookups only (taint is a hash hit per edge); consumers that need
  // order copy into the sorted report map, so determinism is preserved.
  std::unordered_map<std::string, ParamFlow> params;
  std::set<std::string> protocol_surfaces;  // qualified function names

  // Parameters that reach the same sink statement or the same wire path,
  // deduplicated, each set sorted, the list of sets sorted. Only sets of
  // 2..kMaxCouplingSetSize parameters are kept: singletons carry no pairwise
  // signal and huge sets (every param read in one surface) are too coarse to
  // seed combination plans.
  std::vector<std::vector<std::string>> coupling_sets;
  int coupling_sets_dropped = 0;  // sets over the size cap

  // Graph shape, for reports and the bench.
  int64_t node_count = 0;
  int64_t edge_count = 0;
};

inline constexpr int kMaxCouplingSetSize = 8;

// Runs the program-wide fixpoint over the facts.
FlowGraph BuildFlowGraph(const ProgramFacts& facts);

}  // namespace analysis
}  // namespace zebra

#endif  // SRC_ANALYSIS_FLOW_GRAPH_H_
