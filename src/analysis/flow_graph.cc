#include "src/analysis/flow_graph.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <unordered_map>
#include <unordered_set>

#include "src/common/strings.h"

namespace zebra {
namespace analysis {

namespace {

const char* const kWirePrimitives[] = {
    "EncodeFrame",     "DecodeFrame",      "EncryptPayload",
    "DecryptPayload",  "CompressPayload",  "DecompressPayload",
    "ComputeChecksum", "WireToken",        "RequireMatchingTokens",
    "SimulatePacedWait", "RpcGate",        "RpcLongOperation",
};

const char* const kProtocolErrors[] = {
    "RpcError",      "HandshakeError", "TimeoutError",
    "DecodeError",   "ChecksumError",  "LimitError",
};

// Lower-case substrings that mark a function name as protocol-flavored.
const char* const kProtocolNamePatterns[] = {
    "heartbeat", "handshake", "liveness", "stale", "token",
};

// Timer/deadline flavor: a subset of the protocol patterns plus explicit
// timing vocabulary. Purely a sink-type annotation — never a taint source.
const char* const kTimerNamePatterns[] = {
    "heartbeat", "liveness", "stale",  "timeout", "deadline",
    "interval",  "timer",    "expiry", "pacedwait",
};

// Persistence flavor (journal/edit-log/snapshot writes). Annotation only.
const char* const kPersistenceNamePatterns[] = {
    "persist", "journal", "fsync", "flush", "checkpoint", "snapshot",
    "editlog", "writetodisk",
};

bool IsWirePrimitive(const std::string& name) {
  for (const char* p : kWirePrimitives) {
    if (name == p) return true;
  }
  return false;
}

bool IsProtocolError(const std::string& name) {
  for (const char* p : kProtocolErrors) {
    if (name == p) return true;
  }
  return false;
}

bool MatchesAny(const std::string& name, const char* const* patterns,
                size_t count) {
  // Lowercase into a stack buffer — this runs for every call token during
  // fact building and for every function name in the surface seed, where a
  // heap-allocating Lower() copy is measurable. Identifiers longer than the
  // buffer are truncated for matching; C++ identifiers that long do not
  // occur, and the patterns are all far shorter than the buffer.
  char low[96];
  size_t n = std::min(name.size(), sizeof(low) - 1);
  for (size_t i = 0; i < n; ++i) {
    low[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(name[i])));
  }
  low[n] = '\0';
  std::string_view low_view(low, n);
  for (size_t i = 0; i < count; ++i) {
    if (low_view.find(patterns[i]) != std::string_view::npos) return true;
  }
  return false;
}


bool MatchesTimerName(const std::string& name) {
  return MatchesAny(name, kTimerNamePatterns, std::size(kTimerNamePatterns));
}

bool MatchesPersistenceName(const std::string& name) {
  return MatchesAny(name, kPersistenceNamePatterns,
                    std::size(kPersistenceNamePatterns));
}

std::string Loc(const FunctionModel& fn, int line) {
  return fn.file + ":" + std::to_string(line);
}

bool IsGetMethod(const std::string& s) {
  return s == "Get" || s == "GetBool" || s == "GetInt" || s == "GetDouble";
}

// Config accessor names must never resolve through the bare-name function
// index: `conf().GetInt(...)` would otherwise alias KvStore::Get and friends.
bool ResolvableCallee(const std::string& s) { return !IsGetMethod(s); }

bool IsComparisonPunct(const Token& tk) {
  return tk.Is("<") || tk.Is(">") || tk.Is("<=") || tk.Is(">=") ||
         tk.Is("==") || tk.Is("!=");
}

// Analyzes one statement's token range. `idents` collects every identifier
// used; the caller filters it down to StmtFacts::used_locals once the
// function's assignment-target set is known.
StmtFacts AnalyzeStatement(const ProgramModel& program,
                           const FunctionModel& fn, size_t begin, size_t end,
                           std::set<std::string>* idents) {
  StmtFacts facts;
  const auto& toks = fn.tokens;
  bool saw_throw = false;
  int depth = 0;
  for (size_t k = begin; k < end && k < toks.size(); ++k) {
    const Token& tk = toks[k];
    if (facts.first_line == 0 && tk.line > 0) facts.first_line = tk.line;

    if (tk.kind == TokenKind::kPunct) {
      if (tk.Is("(") || tk.Is("[")) ++depth;
      if (tk.Is(")") || tk.Is("]")) --depth;
      if (IsComparisonPunct(tk)) facts.has_comparison = true;
      // First top-level assignment: the token to the left is the target.
      if (tk.Is("=") && depth == 0 && facts.assign_target.empty() &&
          k > begin && toks[k - 1].IsIdent()) {
        facts.assign_target = toks[k - 1].text;
      }
      continue;
    }
    if (!tk.IsIdent()) continue;
    idents->insert(tk.text);

    if (tk.Is("throw")) saw_throw = true;
    if (saw_throw && IsProtocolError(tk.text)) facts.has_protocol_throw = true;

    bool is_call = k + 1 < toks.size() && toks[k + 1].Is("(");
    if (!is_call) continue;

    if (IsWirePrimitive(tk.text)) facts.has_wire_primitive = true;
    if (MatchesTimerName(tk.text)) facts.has_timer = true;
    if (MatchesPersistenceName(tk.text)) facts.has_persistence = true;
    facts.callees.push_back(tk.text);

    // Member-init-list shape `member_(expr)` at depth 0 acts as an
    // assignment into `member_`.
    if (depth == 0 && facts.assign_target.empty() && k == begin &&
        (k + 1 >= toks.size() || !toks[k].Is("if"))) {
      // Only treat it as init-list assignment when the statement IS the
      // call (ctor init entries); ordinary calls are still recorded above.
      if (!fn.statements.empty() && tk.text.back() == '_') {
        facts.assign_target = tk.text;
      }
    }

    // Read site: [.|->] Get*( ARG ...
    if (IsGetMethod(tk.text) && k > begin &&
        (toks[k - 1].Is(".") || toks[k - 1].Is("->")) &&
        k + 2 < toks.size()) {
      const Token& arg = toks[k + 2];
      if (arg.kind == TokenKind::kString) {
        facts.direct_params.push_back(arg.text);
      } else if (arg.IsIdent()) {
        const std::string_view* constant =
            program.param_constants.Find(arg.text);
        if (constant != nullptr) {
          facts.direct_params.emplace_back(*constant);
        }
      }
    }

    // Cross-node call: receiver typed as a node class (or a chained call
    // returning one). `this->Foo()` is node-local by construction.
    if (k > begin && (toks[k - 1].Is("->") || toks[k - 1].Is("."))) {
      std::string receiver_type;
      if (k >= 2) {
        const Token& recv = toks[k - 2];
        if (recv.IsIdent() && !recv.Is("this")) {
          const std::string_view* type = program.var_types.Find(recv.text);
          if (type != nullptr) receiver_type = std::string(*type);
        } else if (recv.Is(")")) {
          // Chained: CALLEE(...)->Method(). Walk back to the matching '('.
          int d = 0;
          for (size_t q = k - 2;; --q) {
            if (toks[q].Is(")")) ++d;
            if (toks[q].Is("(") && --d == 0) {
              if (q > 0 && toks[q - 1].IsIdent()) {
                const std::string_view* ret =
                    program.fn_return_types.Find(toks[q - 1].text);
                if (ret != nullptr) {
                  receiver_type = std::string(*ret);
                }
              }
              break;
            }
            if (q == 0) break;
          }
        }
      }
      if (!receiver_type.empty() && program.node_classes.count(receiver_type)) {
        facts.cross_node_methods.push_back(tk.text);
      }
    }
  }
  // Normalize the collections: sorted + deduplicated, the order every
  // consumer observes (and the summary cache persists).
  auto canon = [](std::vector<std::string>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  canon(&facts.direct_params);
  canon(&facts.callees);
  // Classify callees against the static name patterns once, at fact-build
  // time (sorted order, matching the loops that consume these fields).
  for (const std::string& callee : facts.callees) {
    if (!ResolvableCallee(callee)) continue;
    if (!MatchesProtocolName(callee)) continue;
    bool timer = MatchesTimerName(callee);
    facts.protocol_callee_mask |=
        timer ? kSinkTimerDeadline : kSinkCrossNode;
    if (facts.first_protocol_callee.empty()) {
      facts.first_protocol_callee = callee;
      facts.first_protocol_is_timer = timer;
    }
  }
  return facts;
}

// (first char, length) pre-filter over a name set. Callee lists are full of
// names that no rule can match (std:: helpers, container methods); rejecting
// them with two array ops avoids hashing the string at all. Conservative:
// MayContain can report false positives, never false negatives.
struct NameFilter {
  std::array<uint64_t, 256> mask{};

  void Add(const std::string& s) {
    if (s.empty()) return;
    mask[static_cast<unsigned char>(s[0])] |=
        1ull << std::min<size_t>(s.size(), 63);
  }
  bool MayContain(const std::string& s) const {
    if (s.empty()) return false;
    return (mask[static_cast<unsigned char>(s[0])] &
            (1ull << std::min<size_t>(s.size(), 63))) != 0;
  }
};

// Index of defined functions by bare and qualified name, in (tu, fn) order.
// Unordered on purpose: the index is lookup-only (never iterated), and the
// two fixpoints plus R1c/R3 hit it once per (statement, callee) pair.
struct FunctionIndex {
  std::unordered_map<std::string, std::vector<size_t>> by_name;

  explicit FunctionIndex(const ProgramFacts& facts) {
    for (size_t i = 0; i < facts.functions.size(); ++i) {
      const FunctionModel* fn = facts.functions[i].fn;
      by_name[fn->name].push_back(i);
      by_name[fn->qualified].push_back(i);
    }
  }

  const std::vector<size_t>* Lookup(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : &it->second;
  }
};

void HashString(uint64_t* h, std::string_view s) {
  *h = HashFnv64(s, *h);
  *h = HashFnv64(std::string_view("\x1f", 1), *h);
}

}  // namespace

bool MatchesProtocolName(const std::string& name) {
  return MatchesAny(name, kProtocolNamePatterns,
                    std::size(kProtocolNamePatterns));
}

std::vector<std::string> SinkMaskNames(SinkMask mask) {
  std::vector<std::string> names;
  if (mask & kSinkWireEncode) names.push_back("wire-encode");
  if (mask & kSinkCrossNode) names.push_back("cross-node");
  if (mask & kSinkProtocolError) names.push_back("protocol-error");
  if (mask & kSinkGuard) names.push_back("guard");
  if (mask & kSinkPersistence) names.push_back("persistence");
  if (mask & kSinkTimerDeadline) names.push_back("timer-deadline");
  return names;
}

std::vector<StmtFacts> BuildFnFacts(const ProgramModel& program,
                                    const FunctionModel& fn) {
  std::vector<StmtFacts> stmts;
  stmts.reserve(fn.statements.size());
  std::vector<std::set<std::string>> idents_per_stmt;
  idents_per_stmt.reserve(fn.statements.size());
  std::set<std::string> assign_targets;
  for (const auto& [b, e] : fn.statements) {
    std::set<std::string> idents;
    stmts.push_back(AnalyzeStatement(program, fn, b, e, &idents));
    idents_per_stmt.push_back(std::move(idents));
    if (!stmts.back().assign_target.empty()) {
      assign_targets.insert(stmts.back().assign_target);
    }
  }
  // Keep only the identifiers local-taint propagation can look up: the
  // function's own assignment targets.
  for (size_t s = 0; s < stmts.size(); ++s) {
    for (const std::string& ident : idents_per_stmt[s]) {
      if (assign_targets.count(ident)) stmts[s].used_locals.push_back(ident);
    }
  }
  return stmts;
}

uint64_t ProgramTableHash(const ProgramModel& program) {
  uint64_t h = kFnv64Seed;
  for (const auto& [name, value] : program.param_constants.entries()) {
    HashString(&h, name);
    HashString(&h, value);
  }
  for (std::string_view cls : program.node_classes.keys()) HashString(&h, cls);
  for (const auto& [name, type] : program.var_types.entries()) {
    HashString(&h, name);
    HashString(&h, type);
  }
  for (const auto& [name, type] : program.fn_return_types.entries()) {
    HashString(&h, name);
    HashString(&h, type);
  }
  for (std::string_view cls : program.classes_with_scope_member.keys()) {
    HashString(&h, cls);
  }
  return h;
}

ProgramFacts BuildProgramFacts(
    const ProgramModel& program,
    const std::vector<const std::vector<std::vector<StmtFacts>>*>* cached_tus,
    int* facts_computed, int* facts_cached, const uint64_t* table_hash) {
  ProgramFacts facts;
  facts.program = &program;
  facts.table_hash =
      table_hash != nullptr ? *table_hash : ProgramTableHash(program);
  for (size_t t = 0; t < program.tus.size(); ++t) {
    const TuModel& tu = *program.tus[t];
    const std::vector<std::vector<StmtFacts>>* tu_cache =
        cached_tus != nullptr && t < cached_tus->size() ? (*cached_tus)[t]
                                                        : nullptr;
    for (size_t f = 0; f < tu.functions.size(); ++f) {
      const FunctionModel& fn = tu.functions[f];
      FnFacts entry;
      entry.fn = &fn;
      entry.tu_index = t;
      entry.fn_index = f;
      if (tu_cache != nullptr && f < tu_cache->size()) {
        // Borrow straight from the summary cache — stable storage, no copy.
        entry.stmts = &(*tu_cache)[f];
        if (facts_cached != nullptr) ++*facts_cached;
      } else {
        entry.computed = BuildFnFacts(program, fn);
        if (facts_computed != nullptr) ++*facts_computed;
      }
      facts.functions.push_back(std::move(entry));
    }
  }
  // Point recomputed entries at their own storage only after the vector has
  // stopped reallocating (a push_back would invalidate earlier pointers).
  for (FnFacts& entry : facts.functions) {
    if (entry.stmts == nullptr) entry.stmts = &entry.computed;
  }
  return facts;
}

FlowGraph BuildFlowGraph(const ProgramFacts& facts) {
  FlowGraph graph;
  const ProgramModel& program = *facts.program;
  const size_t fn_count = facts.functions.size();
  FunctionIndex index(facts);
  NameFilter index_filter;
  for (const auto& [name, defs] : index.by_name) index_filter.Add(name);

  // Resolve every function's callee list to definition indices once: the two
  // fixpoints below revisit these edges every iteration, and repeated map
  // lookups dominate the graph build on a warm (fully cached) analysis.
  // Flat CSR layout: one shared data vector plus per-function [begin, end)
  // offsets — the fixpoints sweep these edges repeatedly, and per-function
  // heap vectors cost both allocation and locality.
  std::vector<size_t> callee_defs_data;
  callee_defs_data.reserve(fn_count * 4);
  std::vector<std::pair<uint32_t, uint32_t>> callee_defs(fn_count);
  for (size_t i = 0; i < fn_count; ++i) {
    const uint32_t begin = static_cast<uint32_t>(callee_defs_data.size());
    for (const std::string& callee : facts.functions[i].fn->callees) {
      if (!index_filter.MayContain(callee) || !ResolvableCallee(callee)) {
        continue;
      }
      const auto* defs = index.Lookup(callee);
      if (!defs) continue;
      callee_defs_data.insert(callee_defs_data.end(), defs->begin(),
                              defs->end());
    }
    callee_defs[i] = {begin, static_cast<uint32_t>(callee_defs_data.size())};
  }
  auto callee_defs_of = [&](size_t i) {
    struct Span {
      const size_t* b;
      const size_t* e;
      const size_t* begin() const { return b; }
      const size_t* end() const { return e; }
    };
    const size_t* base = callee_defs_data.data();
    return Span{base + callee_defs[i].first, base + callee_defs[i].second};
  };

  // Seed a flow node for every resolved read site so node-local parameters
  // appear in the report with an empty reason list. The site list is walked
  // once and reused for the edge count below.
  const std::vector<const ReadSite*> all_sites = program.AllReadSites();
  graph.params.reserve(all_sites.size());
  for (const ReadSite* site : all_sites) {
    graph.params[site->param].param = site->param;
  }

  // Direct reads per function, and the program-wide set of methods observed
  // being called on node-class objects.
  // Sorted unique pointers into each function's own ReadSite storage — a
  // warm analysis rebuilds this for every function on every run, so no
  // string copies.
  std::vector<std::vector<const std::string*>> direct_reads(fn_count);
  std::unordered_set<std::string> cross_node_called;  // membership only
  int64_t call_edges = 0;
  for (size_t i = 0; i < fn_count; ++i) {
    const FnFacts& ff = facts.functions[i];
    for (const StmtFacts& st : *ff.stmts) {
      for (const std::string& method : st.cross_node_methods) {
        cross_node_called.insert(method);
      }
      call_edges += static_cast<int64_t>(st.callees.size());
    }
    std::vector<const std::string*>& reads = direct_reads[i];
    for (const ReadSite& site : ff.fn->read_sites) {
      if (!site.param.empty()) reads.push_back(&site.param);
    }
    std::sort(reads.begin(), reads.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    reads.erase(std::unique(reads.begin(), reads.end(),
                            [](const std::string* a, const std::string* b) {
                              return *a == *b;
                            }),
                reads.end());
  }

  // R3 helper-read index: name -> (param, defining function) pairs, in
  // (definition, read) order. Most callees define no direct reads, so R3's
  // per-statement scan becomes one lookup instead of a definitions walk.
  std::unordered_map<std::string,
                     std::vector<std::pair<const std::string*, size_t>>>
      name_r3;
  for (const auto& [name, defs] : index.by_name) {
    for (size_t def : defs) {
      for (const std::string* p : direct_reads[def]) {
        name_r3[name].emplace_back(p, def);
      }
    }
  }

  // Function sink summaries (fixpoint): which *taint-relevant* sink types
  // does the body reach? The mask is nonzero exactly when the old boolean
  // pass said "reaches a wire sink" — guard/persistence/timer annotations
  // never enter the seed, so wire-taint verdicts are unchanged; the mask
  // merely types what is reached for the priority spectrum.
  std::vector<SinkMask> reach_mask(fn_count, 0);
  for (size_t i = 0; i < fn_count; ++i) {
    const FnFacts& ff = facts.functions[i];
    SinkMask m = 0;
    for (const StmtFacts& st : *ff.stmts) {
      if (st.has_wire_primitive) m |= kSinkWireEncode;
      if (!st.cross_node_methods.empty()) m |= kSinkCrossNode;
      if (st.has_protocol_throw) m |= kSinkProtocolError;
      m |= st.protocol_callee_mask;  // precomputed at fact-build time
    }
    reach_mask[i] = m;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < fn_count; ++i) {
      for (size_t def : callee_defs_of(i)) {
        SinkMask merged = reach_mask[i] | reach_mask[def];
        if (merged != reach_mask[i]) {
          reach_mask[i] = merged;
          changed = true;
        }
      }
    }
  }

  // Per-name R1c verdict: the reach mask of the first sink-reaching
  // definition under that name, if any. Collapses R1c's per-statement inner
  // definition loop to a single lookup.
  std::unordered_map<std::string, SinkMask> first_sink_reach;
  first_sink_reach.reserve(index.by_name.size());
  for (const auto& [name, defs] : index.by_name) {
    for (size_t def : defs) {
      if (reach_mask[def] != 0) {
        first_sink_reach.emplace(name, reach_mask[def]);
        break;
      }
    }
  }

  // Protocol surfaces: node-class methods called cross-node, name-pattern
  // functions, plus everything they transitively invoke (within the corpus).
  std::vector<char> is_surface(fn_count, 0);
  for (size_t i = 0; i < fn_count; ++i) {
    const FunctionModel* fn = facts.functions[i].fn;
    if (!fn->cls.empty() && program.node_classes.count(fn->cls) &&
        !fn->is_constructor && cross_node_called.count(fn->name)) {
      is_surface[i] = 1;
    }
    if (fn->name_is_protocol) is_surface[i] = 1;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < fn_count; ++i) {
      if (!is_surface[i]) continue;
      for (size_t def : callee_defs_of(i)) {
        if (facts.functions[def].fn->is_constructor) continue;
        if (!is_surface[def]) {
          is_surface[def] = 1;
          changed = true;
        }
      }
    }
  }
  for (size_t i = 0; i < fn_count; ++i) {
    if (is_surface[i]) {
      graph.protocol_surfaces.insert(facts.functions[i].fn->qualified);
    }
  }

  int64_t taint_edges = 0;
  // `make_reason` is only invoked when the reason will actually be stored:
  // popular parameters hit the 8-reason cap early, and building the (multi-
  // concatenation) strings for discarded reasons is pure waste on warm runs.
  const std::string no_sink_key;
  auto taint = [&graph, &taint_edges](const std::string& param, SinkMask mask,
                                      const std::string& sink_key,
                                      auto&& make_reason) {
    auto it = graph.params.find(param);
    if (it == graph.params.end()) return;
    it->second.wire_tainted = true;
    it->second.sink_mask |= mask;
    if (!sink_key.empty()) it->second.sink_keys.insert(sink_key);
    ++taint_edges;
    if (it->second.reasons.size() < 8) {
      it->second.reasons.push_back(make_reason());
    }
  };

  // Coupling accumulators: params reaching the same sink statement, and
  // params read within the same protocol surface (the same wire path).
  std::map<std::string, std::set<std::string>> sink_groups;
  std::set<std::string> sink_keys_seen;

  // R2: every read inside a protocol surface is wire-tainted. Deterministic
  // (tu, fn) iteration — never over a pointer-keyed container.
  for (size_t i = 0; i < fn_count; ++i) {
    if (!is_surface[i]) continue;
    const FunctionModel* fn = facts.functions[i].fn;
    for (const std::string* param : direct_reads[i]) {
      taint(*param, kSinkCrossNode | reach_mask[i], no_sink_key, [&] {
        return "R2 read inside protocol surface " + fn->qualified + " (" +
               Loc(*fn, fn->line) + ")";
      });
      graph.params[*param].wire_paths.insert(fn->qualified);
    }
    if (direct_reads[i].size() >= 2) {
      auto& group = sink_groups["surface " + fn->qualified];
      for (const std::string* param : direct_reads[i]) group.insert(*param);
    }
  }

  // R1 + R3: statement-level co-occurrence with local-taint propagation.
  //
  // The statement parameter set is a small sorted vector of pointers into the
  // facts' stable string storage (direct_params, local-taint slots, read-site
  // params all outlive the loop): a warm analysis runs this loop over every
  // statement on every invocation, and per-statement std::set/std::map
  // construction with string copies used to dominate it. Each entry remembers
  // *how* the parameter arrived (direct read / tainted local / R3 helper) so
  // origin strings are only materialized for actual sink statements.
  struct StmtParam {
    const std::string* param;
    uint8_t kind;  // 0 = read here, 1 = via local, 2 = via helper (R3)
    const std::string* local = nullptr;  // kind 1: the local's name
    size_t helper_def = 0;               // kind 2: defining function index
  };
  std::vector<StmtParam> stmt_params;  // reused across statements
  // Keeps the vector sorted by parameter name, first occurrence winning —
  // the same order and origin-priority the old set/map pair produced.
  auto add_param = [&stmt_params](const std::string& p, uint8_t kind,
                                  const std::string* local, size_t def) {
    size_t lo = 0;
    while (lo < stmt_params.size() && *stmt_params[lo].param < p) ++lo;
    if (lo < stmt_params.size() && *stmt_params[lo].param == p) return;
    stmt_params.insert(stmt_params.begin() + lo,
                       StmtParam{&p, kind, local, def});
  };
  for (size_t i = 0; i < fn_count; ++i) {
    const FnFacts& ff = facts.functions[i];
    const FunctionModel* fn = ff.fn;
    // Tainted locals: name -> sorted unique params (pointers into stable
    // facts storage, see above).
    std::map<std::string, std::vector<const std::string*>> local_taint;
    for (const StmtFacts& st : *ff.stmts) {
      // Sink classification first — it needs only the statement facts. The
      // per-statement parameter set (and the origin strings that explain it)
      // is built lazily below: most statements have no sink, no assignment
      // target, and no persistence flavor, and building those maps anyway
      // used to dominate the warm graph build. The reason string keeps the
      // historical one-sink-per-statement form; the mask records every type.
      const char* sink_rule = nullptr;  // reason prefix, built lazily
      const std::string* sink_arg = nullptr;  // appended verbatim if set
      SinkMask mask = 0;
      if (st.has_wire_primitive) {
        sink_rule = "R1a wire primitive";
        mask |= kSinkWireEncode;
      }
      if (!st.cross_node_methods.empty()) {
        if (sink_rule == nullptr) {
          sink_rule = "R1b cross-node call ";
          sink_arg = &st.cross_node_methods.front();
        }
        mask |= kSinkCrossNode;
      }
      if (st.has_protocol_throw) {
        if (sink_rule == nullptr) sink_rule = "R1e protocol error throw";
        mask |= kSinkProtocolError;
      }
      if (sink_rule == nullptr) {
        for (const std::string& callee : st.callees) {
          if (!ResolvableCallee(callee)) continue;
          if (index_filter.MayContain(callee)) {
            auto reach_it = first_sink_reach.find(callee);
            if (reach_it != first_sink_reach.end()) {
              sink_rule = "R1c sink-reaching callee ";
              sink_arg = &callee;
              mask |= reach_it->second;
              break;
            }
          }
          // R1d via the facts' precomputed classification: the first
          // protocol-named callee wins unless an earlier callee (set order)
          // already matched R1c above — callees past it are never examined,
          // exactly like the original per-callee pattern matching.
          if (callee == st.first_protocol_callee) {
            sink_rule = "R1d protocol-named callee ";
            sink_arg = &callee;
            mask |= st.first_protocol_is_timer ? kSinkTimerDeadline
                                               : kSinkCrossNode;
            break;
          }
        }
      }

      const bool want_params =
          (sink_rule != nullptr || !st.assign_target.empty() ||
           st.has_persistence) &&
          !(st.direct_params.empty() && st.used_locals.empty() &&
            st.callees.empty());
      stmt_params.clear();
      if (want_params) {
        // Statement parameter set: direct reads, tainted locals used, and
        // the direct reads of locally defined callees (R3's generalization —
        // the DfsDataWireConfig helper pattern).
        for (const std::string& p : st.direct_params) {
          add_param(p, 0, nullptr, 0);
        }
        for (const std::string& ident : st.used_locals) {
          auto it = local_taint.find(ident);
          if (it == local_taint.end()) continue;
          for (const std::string* p : it->second) {
            add_param(*p, 1, &ident, 0);
          }
        }
        for (const std::string& callee : st.callees) {
          if (!index_filter.MayContain(callee) || !ResolvableCallee(callee)) {
            continue;
          }
          auto r3_it = name_r3.find(callee);
          if (r3_it == name_r3.end()) continue;
          for (const auto& [p, def] : r3_it->second) {
            add_param(*p, 2, nullptr, def);
          }
        }
      }

      if (sink_rule != nullptr) {
        // Annotation types: never part of the taint decision, but they type
        // the sink for the priority spectrum.
        if (st.has_timer) mask |= kSinkTimerDeadline;
        if (st.has_comparison) mask |= kSinkGuard;
        if (st.has_persistence) mask |= kSinkPersistence;
        std::string sink_key =
            fn->file + ":" + std::to_string(st.first_line);
        sink_keys_seen.insert(sink_key);
        for (const StmtParam& sp : stmt_params) {
          taint(*sp.param, mask, sink_key, [&] {
            std::string reason(sink_rule);
            if (sink_arg != nullptr) reason += *sink_arg;
            reason += ", ";
            switch (sp.kind) {
              case 0: reason += "read here"; break;
              case 1: reason += "via local `" + *sp.local + "`"; break;
              default:
                reason += "via helper " +
                          facts.functions[sp.helper_def].fn->qualified +
                          " (R3)";
            }
            reason += " in " + fn->qualified + " (" + sink_key + ")";
            return reason;
          });
        }
        if (stmt_params.size() >= 2) {
          auto& group = sink_groups[sink_key];
          for (const StmtParam& sp : stmt_params) group.insert(*sp.param);
        }
      } else if (st.has_persistence) {
        // Persistence-flavored statements annotate their parameters without
        // ever tainting them: a param flushed into a local journal is more
        // interesting than an unused one, but it is not wire-visible.
        for (const StmtParam& sp : stmt_params) {
          auto it = graph.params.find(*sp.param);
          if (it != graph.params.end()) it->second.sink_mask |= kSinkPersistence;
        }
      }

      // Propagate into the assignment target (or init-list member): merge
      // the statement's params (already sorted unique) into the slot.
      if (!st.assign_target.empty() && !stmt_params.empty()) {
        auto& slot = local_taint[st.assign_target];
        for (const StmtParam& sp : stmt_params) {
          auto pos = slot.begin();
          while (pos != slot.end() && **pos < *sp.param) ++pos;
          if (pos == slot.end() || **pos != *sp.param) {
            slot.insert(pos, sp.param);
          }
        }
      }
    }
  }

  // Normalize coupling sets: sorted members, deduplicated, size-capped,
  // the final list sorted — byte-stable across runs.
  std::set<std::vector<std::string>> canonical;
  for (const auto& [key, members] : sink_groups) {
    if (members.size() < 2) continue;
    if (members.size() > static_cast<size_t>(kMaxCouplingSetSize)) {
      ++graph.coupling_sets_dropped;
      continue;
    }
    canonical.insert(
        std::vector<std::string>(members.begin(), members.end()));
  }
  graph.coupling_sets.assign(canonical.begin(), canonical.end());

  graph.node_count = static_cast<int64_t>(graph.params.size()) +
                     static_cast<int64_t>(fn_count) +
                     static_cast<int64_t>(sink_keys_seen.size());
  graph.edge_count =
      static_cast<int64_t>(all_sites.size()) + call_edges +
      taint_edges;
  return graph;
}

}  // namespace analysis
}  // namespace zebra
