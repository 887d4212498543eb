// Observational-equivalence layer over test plans (run-dedup beyond exact
// matching; the run-reduction spirit of the paper's Table 5 carried one level
// deeper than the exact-match run cache).
//
// A unit-test execution observes a plan *only* through ConfAgent::InterceptGet:
// the plan's sole effect is the override value (or lack of one) served at each
// configuration read. Two plans whose served values agree at every read the
// test performs are therefore observationally identical — they provably
// produce the same TestResult. The pre-run (empty plan) records exactly which
// (entity, node index, parameter) triples the test reads, so most
// heterogeneous plans that differ only in override entries for parameters the
// targeted confs never read collapse into one equivalence class.
//
// Three pieces implement this:
//
//  * Trace elements: a canonical one-line encoding of each observation a
//    session makes ("E#i:p=v" for an overridden read, "E#i:p!" for a read
//    served the stored value, "@h:E#i:p…" for a Has() presence check, "@u:p"
//    for a read through an unmappable conf). ConfAgent records them into
//    SessionReport::trace_elements; the formatting helpers live here so the
//    recorder and the predictor cannot drift.
//  * ReadSurface: built from the pre-run's trace elements. Canonicalize()
//    rewrites a plan to its canonical fingerprint (sorted entries, override
//    entries no targeted conf ever reads dropped — a plan whose flipped
//    parameter is never read collapses to the homogeneous baseline).
//    PredictTrace() computes the exact trace a plan would produce *if* the
//    test reads what the pre-run promised.
//  * Validation contract (enforced by RunCache callers): a predicted trace is
//    never trusted on its own. A cached result is served only when its
//    *actually observed* trace is byte-identical to the prediction — which
//    proves by induction over the read sequence that the cached execution is
//    the one this plan would have produced. Mispredictions (the promise was
//    broken: a value-gated read appeared, a read vanished) fall back to real
//    execution and are counted, never served.
//
// Soundness boundaries, all conservative:
//  * Trial-sensitive executions (the body drew from the per-trial RNG or read
//    trial()) are never collapsed: the RNG seed folds in the plan text, so
//    different descriptions legitimately diverge.
//  * Presence checks (Has()) observe the configuration without going through
//    value interception. A plan that targets a presence-checked parameter is
//    declared unpredictable rather than collapsed.
//  * Reads through unmappable ("uncertain") confs never receive overrides, so
//    they are plan-invariant and appear in traces as bare markers.

#ifndef SRC_CONF_PLAN_EQUIV_H_
#define SRC_CONF_PLAN_EQUIV_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/conf/test_plan.h"

namespace zebra {

struct SessionReport;

// ---- Trace-element formatting (shared by ConfAgent and ReadSurface) --------

// An intercepted value read: "E#i:p=v" when the plan served `assigned`,
// "E#i:p!" when the stored value was served.
std::string TraceReadElement(std::string_view entity, int node_index,
                             std::string_view param, const std::string* assigned);

// A Has() presence check, same shape under the "@h:" prefix. Recorded with
// the value the active plan assigns so plans that target a presence-checked
// parameter never alias plans that assign it differently.
std::string TraceHasElement(std::string_view entity, int node_index,
                            std::string_view param, const std::string* assigned);

// A read through an unmappable conf: "@u:p" (never overridden, plan-invariant).
std::string TraceUncertainElement(std::string_view param);

// The same three elements written into *out, replacing its contents, so a
// recorder can reuse one buffer and copy an element only when it is new.
void TraceReadElement(std::string* out, std::string_view entity, int node_index,
                      std::string_view param, const std::string* assigned);
void TraceHasElement(std::string* out, std::string_view entity, int node_index,
                     std::string_view param, const std::string* assigned);
void TraceUncertainElement(std::string* out, std::string_view param);

// True when `plan` would produce exactly `element` for the observation it
// encodes (re-derives the element under this plan's assignments and compares
// byte-identically). Unparseable elements never match.
bool PlanMatchesElement(const TestPlan& plan, std::string_view element);

// True when `plan` would reproduce the execution that observed
// `observed_trace`: every observed element re-derives byte-identically under
// this plan's assignments. This is the core soundness check, and it is
// sufficient even for executions that stopped early (a failing run observes
// a prefix of its promise): by induction over the read sequence, an
// execution that agrees on every value actually served follows the stored
// one step for step — through the same failure, if there was one. Only valid
// against trial-insensitive executions (the stored run must not have
// consumed the per-trial RNG); note that RNG consumption is itself
// path-dependent, so a plan reproducing a trial-insensitive execution is
// provably trial-insensitive too.
//
// Both traces are '\x1e'-joined sorted element lists, the run cache's stored
// encoding. Elements of `observed_trace` found verbatim in `predicted_trace`
// — the plan's own full promise — are accepted by a linear merge scan; only
// elements outside the promise (value-gated reads another plan provoked)
// fall back to PlanMatchesElement.
bool PlanReproducesObservedTrace(const TestPlan& plan,
                                 std::string_view observed_trace,
                                 std::string_view predicted_trace);

// The full observed trace of a finished session: its trace elements joined
// with '\x1e' (already sorted and deduplicated by the set). This is the
// cross-plan cache key a real execution is indexed under.
std::string ObservedTraceText(const SessionReport& report);

// ---- Canonicalization + prediction -----------------------------------------

struct CanonicalPlan {
  // Canonical cache fingerprint: param plans sorted by name, entries and
  // override pairs no targeted conf ever reads dropped. Empty when every
  // entry dropped — the homogeneous-baseline (empty-plan) fingerprint.
  std::string fingerprint;
  bool changed = false;        // differs from the plan's own fingerprint
  int dropped_entries = 0;     // whole ParamPlans removed
  int dropped_overrides = 0;   // extra_override pairs removed
};

class ReadSurface {
 public:
  // Builds the surface from a pre-run session report (empty-plan baseline).
  explicit ReadSurface(const SessionReport& prerun);

  // True when the pre-run observed at least one read (an all-blind surface
  // collapses everything to the baseline, which is still sound, but a test
  // that reads nothing is not worth indexing).
  bool usable() const { return usable_; }

  CanonicalPlan Canonicalize(const TestPlan& plan) const;

  // Fills `*trace` with the trace this plan produces if the test reads
  // exactly what the pre-run promised. Returns false when no sound
  // prediction exists (the plan targets a presence-checked parameter).
  bool PredictTrace(const TestPlan& plan, std::string* trace) const;

 private:
  struct Observation {
    enum class Kind { kRead, kHas, kUncertain } kind = Kind::kRead;
    std::string entity;
    int node_index = 0;
    std::string param;
    // The plan-independent part of the element ("@h:E#i:p", "E#i:p", or the
    // whole "@u:p" marker); PredictTrace appends only the plan's tail.
    std::string head;
  };

  bool ParamObserved(const std::string& param) const {
    return observed_params_.count(param) > 0;
  }

  std::vector<Observation> observations_;   // in trace-element sort order
  size_t head_bytes_ = 0;                   // sum of observations_' heads
  std::set<std::string> observed_params_;   // params any observation touches
  std::set<std::string> presence_params_;   // params observed via Has()
  bool usable_ = false;
};

// ---- Scoped per-unit installation (consulted by RunUnitTest) ---------------

// The surface outlives the installation window; the installer retains
// ownership. nullptr (the default) disables the equivalence layer. Like the
// run cache and the duration collector, this is per-thread state: each
// worker thread installs the surface of the unit it is executing.
void SetGlobalReadSurface(const ReadSurface* surface);
const ReadSurface* GlobalReadSurface();

class ScopedReadSurface {
 public:
  explicit ScopedReadSurface(const ReadSurface* surface)
      : previous_(GlobalReadSurface()) {
    SetGlobalReadSurface(surface);
  }
  ~ScopedReadSurface() { SetGlobalReadSurface(previous_); }
  ScopedReadSurface(const ScopedReadSurface&) = delete;
  ScopedReadSurface& operator=(const ScopedReadSurface&) = delete;

 private:
  const ReadSurface* previous_;
};

}  // namespace zebra

#endif  // SRC_CONF_PLAN_EQUIV_H_
