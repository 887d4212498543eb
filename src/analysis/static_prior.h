// zebralint's top layer: runs the extractor and config-flow graph over a
// source tree (or in-memory fixtures), cross-checks the result against
// ConfSchema, and packages everything as a StaticPriorReport — the static
// signal the dynamic campaign consumes.
//
// The report plays three roles, mirroring ZebraConf §8's "static analysis can
// shrink the dynamic search space" remark:
//   * pruning  — schema parameters with zero read sites cannot influence any
//     behavior, so TestGenerator drops them before enumeration (a Table-5
//     style stage with its own instance count);
//   * ranking  — wire-tainted parameters are tested first, ordered by the
//     sink-type spectrum (a parameter guarding a deadline outranks one merely
//     copied into a frame), so true detections surface earlier;
//   * coupling — parameters reaching the same sink statement or wire path
//     seed pairwise combination plans in TestGenerator.
//
// It also carries the lint findings proper (schema/annotation drift) for the
// `zebralint --check` CI gate, and — via EnableSummaryCache — supports
// incremental re-analysis: unchanged TUs are served from a checksummed
// summary cache so touching one file re-parses only that file.
//
// Serialization is deterministic: params, sites, reasons, sink types, and
// coupling sets are all emitted in stable sorted order, so byte-identical
// trees produce byte-identical reports (golden-file tested).

#ifndef SRC_ANALYSIS_STATIC_PRIOR_H_
#define SRC_ANALYSIS_STATIC_PRIOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analysis/flow_graph.h"
#include "src/analysis/summary_cache.h"
#include "src/conf/conf_schema.h"

namespace zebra {
namespace analysis {

// Priority bands used by TestGenerator. Larger runs earlier. Sink typing
// refines the wire band into a spectrum: kPriorityWire is the wire-tainted
// *floor*, with per-sink-type bonuses stacked on top (timer/deadline flows
// highest — a misaligned deadline guard is the classic het-unsafe failure),
// bounded below kPriorityWireCeiling. Node-local parameters sit at
// kPriorityLocal, with a small bump when they feed persistence sinks.
inline constexpr double kPriorityWire = 2.0;
inline constexpr double kPriorityLocal = 1.0;
inline constexpr double kPriorityNeverRead = 0.0;
inline constexpr double kPriorityWireCeiling = 3.0;

// The spectrum refinement for a parameter with the given verdict.
double SpectrumPriority(bool wire_tainted, SinkMask sink_mask);

struct SiteRef {
  std::string file;
  int line = 0;
  std::string function;
  std::string enclosing_class;
};

struct ParamProfile {
  std::string param;
  std::vector<SiteRef> read_sites;  // sorted by (file, line, function)
  bool in_schema = false;
  bool wire_tainted = false;
  std::vector<std::string> taint_reasons;
  double priority = kPriorityLocal;

  // Flow-graph refinements.
  SinkMask sink_mask = 0;               // union of sink types reached
  std::set<std::string> wire_paths;     // protocol surfaces reading this param
  // FNV-1a over the sorted "file:line:function" read sites — the read
  // surface fingerprint `zebralint --diff` compares across revisions.
  uint64_t surface_hash = 0;
};

enum class DriftKind {
  kReadNotInSchema,   // a read site names a parameter the schema lacks
  kAnnotationDrift,   // a constructor reads config without an init bracket
};

struct DriftFinding {
  DriftKind kind;
  std::string subject;  // parameter name or Class::Class
  std::string message;
  std::string file;
  int line = 0;
};

// How the inputs were obtained — the incremental-analysis accounting the
// bench and the summary-cache tests assert on.
struct AnalyzeStats {
  int tus_total = 0;
  int tus_parsed = 0;       // full lex + extract
  int tus_from_cache = 0;   // served by the summary cache
  int facts_computed = 0;   // functions whose statement facts were recomputed
  int facts_from_cache = 0;
  // The merged table hash differed from the cache's: every summary was
  // discarded and the analysis ran cold (correctness over speed).
  bool table_hash_invalidated = false;
  // Corrupt/truncated summary-cache files rejected at load (mirrors
  // RunCache's cache_load_failures discipline).
  int64_t summary_load_failures = 0;
};

struct StaticPriorReport {
  // Every parameter that is in the schema or has a resolved read site.
  std::map<std::string, ParamProfile> params;

  // Hard findings: `zebralint --check` fails when non-empty.
  std::vector<DriftFinding> errors;

  // Schema parameters with zero read sites — the static prune set. A
  // warning, not an error: unread parameters are legitimate (and are exactly
  // what pruning removes).
  std::vector<std::string> never_read;

  std::set<std::string> protocol_surfaces;
  std::map<std::string, int> read_sites_per_app;  // "minidfs" -> count

  // Parameters reaching the same sink statement or wire path: each set
  // sorted, the list sorted, sizes in [2, kMaxCouplingSetSize]. Seeds
  // TestGenerator's pairwise combination plans.
  std::vector<std::vector<std::string>> coupling_sets;
  int coupling_sets_dropped = 0;

  int files_scanned = 0;
  int unresolved_reads = 0;
  int64_t graph_nodes = 0;
  int64_t graph_edges = 0;
  uint64_t table_hash = 0;

  bool HasErrors() const { return !errors.empty(); }

  const ParamProfile* Find(const std::string& param) const;
  bool IsWireTainted(const std::string& param) const;
  bool IsNeverRead(const std::string& param) const;
  // kPriorityLocal for parameters the analysis has never heard of, so a
  // missing profile never prunes anything.
  double PriorityOf(const std::string& param) const;

  std::vector<std::string> WireTaintedParams() const;

  // Coupling sets restricted to parameters of `params` (those a given app
  // actually read in its pre-run), preserving report order.
  std::vector<std::vector<std::string>> CouplingSetsAmong(
      const std::set<std::string>& params) const;
};

// Front end. Feed sources (from disk or as fixture strings), then Analyze.
class StaticAnalyzer {
 public:
  StaticAnalyzer();
  ~StaticAnalyzer();

  // Registers an in-memory source (tests use this with synthetic paths like
  // "src/apps/minidfs/data_node.cc" — app attribution comes from the path).
  void AddSource(const std::string& path, std::string_view content);

  // Scans `root`/src/apps and `root`/src/conf recursively for .h/.cc files.
  // Returns the number of files read.
  int AddTree(const std::string& root);

  // Incremental mode: load per-TU summaries from `path` (if present), serve
  // unchanged TUs from them during Analyze, and rewrite the file afterwards.
  // A corrupt file degrades to a cold analysis (AnalyzeStats counts it).
  // Returns true when an existing valid cache was loaded.
  bool EnableSummaryCache(const std::string& path);

  // Incremental mode without persistence: share an external in-memory cache
  // (bench and tests). The caller keeps ownership.
  void UseSummaryCache(SummaryCache* cache);

  // Runs extraction + flow graph + schema cross-checks. `schema` may be null
  // (analysis-only mode: no prune set, no read-not-in-schema findings).
  StaticPriorReport Analyze(const ConfSchema* schema) const;

  // Accounting for the most recent Analyze call.
  const AnalyzeStats& stats() const { return stats_; }

 private:
  std::vector<std::pair<std::string, std::string>> sources_;  // path, content
  SummaryCache* external_cache_ = nullptr;
  std::unique_ptr<SummaryCache> owned_cache_;
  std::string cache_path_;
  mutable AnalyzeStats stats_;
};

// Report serialization for the zebralint CLI. Byte-stable: the same report
// always serializes to the same bytes.
std::string ReportToJson(const StaticPriorReport& report);
std::string ReportToText(const StaticPriorReport& report);

}  // namespace analysis
}  // namespace zebra

#endif  // SRC_ANALYSIS_STATIC_PRIOR_H_
