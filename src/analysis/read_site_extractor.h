// zebralint's structural layer: turns one translation unit's token stream into
// a model of function definitions, configuration read sites, call sites, and
// annotation brackets.
//
// The extractor is deliberately lexical (no type checking, no template
// instantiation): the properties ZebraConf's static prior needs — "which
// parameter constants does this function read", "which node-class object does
// this statement call into", "is this constructor bracketed with
// NodeInitScope" — are all recoverable from token shapes in the coding style
// this repository (and Hadoop-style C++ in general) uses. Everything the
// later passes consume is recorded with file:line provenance so reports stay
// clickable.

#ifndef SRC_ANALYSIS_READ_SITE_EXTRACTOR_H_
#define SRC_ANALYSIS_READ_SITE_EXTRACTOR_H_

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/source_lexer.h"

namespace zebra {
namespace analysis {

// One Configuration::Get* call site.
struct ReadSite {
  // The raw first argument: an identifier (a parameter-name constant such as
  // kDfsHeartbeatInterval) or a string literal. Resolution against the
  // program-wide constant table happens in ProgramModel::Resolve().
  std::string arg_token;
  bool arg_is_literal = false;

  std::string param;     // resolved parameter name ("" if unresolvable)
  std::string accessor;  // receiver expression's final identifier ("conf_")
  std::string method;    // Get / GetBool / GetInt / GetDouble

  std::string file;
  int line = 0;
  std::string function;         // qualified enclosing function
  std::string enclosing_class;  // "" for free functions
};

// A function (or constructor) definition with its body tokens retained for
// the flow graph's per-statement facts (flow_graph.h).
struct FunctionModel {
  std::string cls;        // "" for free functions
  std::string name;       // unqualified
  std::string qualified;  // "Class::Name" or "Name"
  std::string return_type;
  bool is_constructor = false;

  std::string file;
  int line = 0;

  // Body tokens: the constructor member-init list (if any) followed by the
  // brace-enclosed body, braces included.
  std::vector<Token> tokens;
  // Half-open token ranges forming statements: split on ';' at parenthesis
  // depth zero (so a whole call expression — lambdas included — stays in one
  // statement) and on top-level ',' inside the member-init list.
  std::vector<std::pair<size_t, size_t>> statements;

  std::vector<ReadSite> read_sites;
  // Every name that appears as NAME( in the body — sorted, deduplicated
  // (canonicalized when the function is finalized by the extractor).
  std::vector<std::string> callees;
  bool has_init_bracket = false;  // NodeInitScope / init_scope_ / ZC_ANNOTATION_SITE
  bool uses_ref_to_clone = false;
  // Name matches a protocol-surface pattern (MatchesProtocolName). Stamped
  // at extraction and carried through the summary cache so warm analyses
  // never re-run the pattern matcher over every function name.
  bool name_is_protocol = false;
};

// Everything extracted from one file.
struct TuModel {
  std::string file;
  std::vector<FunctionModel> functions;

  // `inline constexpr char kFoo[] = "the.param.name";` declarations.
  std::map<std::string, std::string> param_constants;

  // Node-type names harvested from NodeInitScope brackets: the string literal
  // argument, plus the enclosing class of the bracket.
  std::set<std::string> node_classes;

  // Best-effort identifier -> class-type map from declarations of the form
  // `Type* name`, `Type& name`, `Type name` (Type upper-case initial). Covers
  // members, locals, and parameters alike.
  std::map<std::string, std::string> var_types;

  // Function name (bare and qualified) -> return type identifier, for
  // resolving chained receivers like ResolveDataNode(id)->DeleteBlock(...).
  std::map<std::string, std::string> fn_return_types;

  // Classes declaring a NodeInitScope member in this file.
  std::set<std::string> classes_with_scope_member;

  std::vector<LintMarker> markers;

  // Get* calls whose first argument was neither an identifier nor a literal
  // (dynamic parameter names); counted so reports can surface blind spots.
  int unresolved_reads = 0;
};

// Extracts the model of one file. `file` is used for provenance only.
TuModel ExtractTu(std::string file, std::string_view source);

// A merged program-wide key/value table: string_views into the per-TU
// models' own map storage (kept alive by ProgramModel::tus), flattened and
// sorted on first lookup. Merging a TU is then a cheap append — no per-entry
// tree insert, no string copy — which matters on warm incremental runs where
// every table is re-merged from (mostly cached) TUs on every analysis.
// Duplicate keys keep the first appended occurrence, matching the old
// std::map::emplace merge semantics, and iteration is sorted by key, so the
// program table hash sees the exact entry sequence the std::map produced.
class MergedTable {
 public:
  using Entry = std::pair<std::string_view, std::string_view>;

  // Appends every entry of one TU's table (views — the map must stay alive).
  void AppendFrom(const std::map<std::string, std::string>& tu_table) {
    for (const auto& [k, v] : tu_table) entries_.emplace_back(k, v);
    sealed_ = false;
  }
  // Inserts one entry not backed by a TU model; the strings are copied into
  // owned storage so callers may pass temporaries.
  void InsertOwned(std::string_view key, std::string_view value) {
    pool_.emplace_back(key);
    const std::string& k = pool_.back();
    pool_.emplace_back(value);
    entries_.emplace_back(k, pool_.back());
    sealed_ = false;
  }

  // Pointer to the value for `key`, or nullptr. O(log n).
  const std::string_view* Find(std::string_view key) const {
    Seal();
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, std::string_view k) { return e.first < k; });
    if (it == entries_.end() || it->first != key) return nullptr;
    return &it->second;
  }
  size_t count(std::string_view key) const { return Find(key) ? 1 : 0; }
  std::string_view at(std::string_view key) const {
    const std::string_view* v = Find(key);
    if (v == nullptr) throw std::out_of_range("MergedTable::at");
    return *v;
  }
  size_t size() const {
    Seal();
    return entries_.size();
  }
  // Sorted unique entries, for deterministic iteration (the table hash).
  const std::vector<Entry>& entries() const {
    Seal();
    return entries_;
  }

 private:
  void Seal() const;
  mutable std::vector<Entry> entries_;
  mutable bool sealed_ = true;        // empty table is trivially sealed
  std::deque<std::string> pool_;      // stable backing for InsertOwned
};

// Set flavor of MergedTable: same flattened-view merge, keys only.
class MergedSet {
 public:
  void AppendFrom(const std::set<std::string>& tu_set) {
    for (const std::string& k : tu_set) keys_.emplace_back(k);
    sealed_ = false;
  }
  void InsertOwned(std::string_view key) {
    pool_.emplace_back(key);
    keys_.emplace_back(pool_.back());
    sealed_ = false;
  }
  size_t count(std::string_view key) const {
    Seal();
    return std::binary_search(keys_.begin(), keys_.end(), key) ? 1 : 0;
  }
  size_t size() const {
    Seal();
    return keys_.size();
  }
  const std::vector<std::string_view>& keys() const {
    Seal();
    return keys_;
  }

 private:
  void Seal() const;
  mutable std::vector<std::string_view> keys_;
  mutable bool sealed_ = true;
  std::deque<std::string> pool_;
};

// The merged program-wide model over all scanned files. TUs are held by
// shared pointer so summary-cache hits can be *borrowed* instead of copied —
// on a large tree, copying every unchanged TU back into the program is most
// of an incremental run's cost.
struct ProgramModel {
  std::vector<std::shared_ptr<TuModel>> tus;

  MergedTable param_constants;
  MergedSet node_classes;
  MergedTable var_types;
  MergedTable fn_return_types;
  MergedSet classes_with_scope_member;
  std::vector<LintMarker> markers;
  int unresolved_reads = 0;

  void Merge(TuModel tu);

  // Shares a TU owned elsewhere (the summary cache). The caller guarantees
  // Resolve() will be a no-op on it: cached TUs are served only when the
  // merged table hash equals the one they were stored under, so every site
  // resolvable now was already resolved at store time (see summary_cache.h).
  void MergeShared(std::shared_ptr<TuModel> tu);

  // Fills ReadSite::param across all TUs from the merged constant table.
  // Call once after every file has been merged.
  void Resolve();

  // All read sites across the program (valid after Resolve()).
  std::vector<const ReadSite*> AllReadSites() const;

  // Classes suppressed via `zebralint(external-init): <Class> ...` markers.
  std::set<std::string> ExternallyInitializedClasses() const;
};

}  // namespace analysis
}  // namespace zebra

#endif  // SRC_ANALYSIS_READ_SITE_EXTRACTOR_H_
