// Campaign: the end-to-end ZebraConf pipeline (Figure 1).
//
//   TestGenerator  ->  pooled testing  ->  TestRunner  ->  report
//
// Pooled testing (§4): all surviving parameters of a unit test are tested
// together; a failing pool is bisected recursively until the failing
// parameters are isolated, which then go through TestRunner verification.
// Parameters that keep failing across tests are marked unsafe early and
// excluded from further pools (the paper's frequent-failure rule).
//
// The campaign is structured as a fold over independent *work units* — one
// (app, unit test) pair each. Campaign::RunUnit executes a single unit given
// the set of globally-unsafe parameters a sequential campaign would know at
// that point; CampaignFolder merges unit results in the canonical order
// (options.apps order, then corpus registration order) and owns all
// cross-unit state (findings, the frequent-failure rule, Table-5 counters,
// runs_to_first_detection). Campaign::Run is the sequential fold; the thread
// pool and the distributed fabric run the same fold through one
// FoldCoordinator (core/fold_coordinator.h) — which is why their results are
// bitwise-identical to the sequential run at every worker count.

#ifndef SRC_CORE_CAMPAIGN_H_
#define SRC_CORE_CAMPAIGN_H_

#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/test_generator.h"
#include "src/core/test_runner.h"
#include "src/testkit/run_cache.h"

namespace zebra {

struct CampaignOptions {
  // Applications to test; empty = every application in the corpus.
  std::vector<std::string> apps;

  double significance = 1e-4;

  // How many times each heterogeneous instance is tried before being
  // dismissed as passing (§5 false-negative mitigation; 1 = the paper's
  // time-saving mode).
  int first_trials = 1;

  // A parameter confirmed unsafe in this many distinct unit tests is marked
  // unsafe globally and removed from future pools.
  int frequent_failure_threshold = 3;

  // Pooled testing on/off (off = verify every instance individually; used by
  // the ablation bench).
  bool enable_pooling = true;

  // §4's round-robin-within-group assignment strategy on/off (ablation).
  bool enable_round_robin = true;

  // Pre-run read-set instance pruning on/off (see GeneratorOptions). Off
  // models a user without pre-run knowledge; with the equivalence cache the
  // unread-target instances are recovered at the cache layer instead
  // (bench_equiv_dedup's regime).
  bool prune_unread_instances = true;

  // Memoized execution cache (testkit/run_cache.h): serve bitwise-identical
  // re-runs from cache instead of executing — runs of re-dispatched units,
  // repeated campaigns, and homogeneous controls shared by verifications of
  // one parameter. (Later trials of a deterministic plan and bisection's
  // failing one-instance run never reach the cache: TestRunner answers them.)
  // Findings and every stage counter are unchanged — only wall-clock and the
  // run-duration profile shrink. Hit/miss totals surface in CampaignReport.
  bool enable_run_cache = false;

  // Observational-equivalence layer on top of the run cache (plan_equiv.h):
  // each unit's dynamic phase installs the pre-run ReadSurface, so plans
  // that differ only in override entries no targeted conf ever reads — or
  // whose predicted read trace matches a stored execution — are served
  // without executing. Implies enable_run_cache. Findings, Table-5 stage
  // counts, and runs_to_first_detection are provably unchanged (CI-gated);
  // only executed runs and wall-clock shrink.
  bool enable_equiv_cache = false;

  // Run-cache growth budget, enforced by LRU eviction (0 = unbounded).
  // Eviction can only re-execute, never change a served result.
  int64_t cache_max_entries = 0;
  int64_t cache_max_bytes = 0;

  // When non-empty, only these parameters are tested (focused re-testing,
  // e.g. re-verifying a parameter after an application upgrade). Parameters
  // listed in `exclude_params` are skipped (e.g. already-triaged false
  // positives).
  std::set<std::string> only_params;
  std::set<std::string> exclude_params;

  // zebralint static prior: prunes never-read parameters before enumeration
  // and tests wire-tainted parameters first (see docs/ZEBRALINT.md). Not
  // owned; may be null (prior-less campaign, the paper's baseline).
  const analysis::StaticPriorReport* static_prior = nullptr;

  // Coupling add-on phase (flow-graph layer): after a unit's enumerative
  // phase, pairwise plans over the prior's coupling sets probe failures that
  // only manifest when two coupled parameters are heterogeneous at once.
  // Requires static_prior. The add-on runs strictly after — and never alters
  // — the enumerative phase, so it can only ADD findings (superset gate,
  // CI-enforced), and runs_to_first_detection is untouched by it. Ablatable
  // via full_campaign --no-coupling-plans.
  bool enable_coupling_plans = true;
  int max_coupling_plans_per_test = 8;

  // Impacted-only re-testing (`zebralint --diff` -> `full_campaign
  // --impacted-only`): when non-empty, a unit whose pre-run read set does not
  // intersect this set skips its dynamic phase entirely (the code change
  // cannot have altered its behavior through configuration). Pre-runs still
  // execute — they are the read-trace probes. Findings are identical to a
  // full campaign restricted to the impacted tests (CI-gated).
  std::set<std::string> impacted_params;

  // When non-empty, only these unit-test ids run a dynamic phase (pre-runs
  // still execute). The impacted-only identity gate uses this as its
  // reference restriction.
  std::set<std::string> only_tests;

  // Nonzero: deterministically shuffle the per-test parameter order with
  // this seed. Used by benchmarks as the honest "unprioritized" baseline
  // (plain map order is alphabetical, which happens to front-load several
  // unsafe dfs.* parameters).
  uint64_t shuffle_order_seed = 0;

  // --- Fault tolerance (docs/ROBUSTNESS.md) ---

  // Watchdog deadline for one in-flight work unit (or shard):
  //   deadline = watchdog_floor_seconds
  //            + watchdog_multiplier * p95(observed completion times)
  // A worker past its deadline is SIGKILLed, reaped, and its unit re-queued
  // to the survivors. The floor alone applies until the parent has observed
  // completions, so keep it comfortably above the slowest legitimate unit;
  // a floor <= 0 disables the watchdog entirely.
  double watchdog_floor_seconds = 60.0;
  double watchdog_multiplier = 8.0;

  // Dispatch attempts per unit before the scheduler stops re-queuing it and
  // records it in CampaignReport.poisoned_units instead (a unit that kills
  // every worker it touches must not loop forever).
  int unit_attempt_limit = 3;

  // Re-queue backoff after a worker death/hang: base * 2^(attempt-1), capped.
  double requeue_backoff_seconds = 0.05;
  double requeue_backoff_cap_seconds = 2.0;

  // When non-null, the campaign stops cleanly at the next unit boundary once
  // *cancel_flag becomes nonzero (set it from a SIGINT/SIGTERM handler): the
  // partial report is returned, caches can be saved, and a journaled
  // campaign resumes from where it stopped. Not owned.
  const volatile std::sig_atomic_t* cancel_flag = nullptr;
};

struct AppStageCounts {
  int64_t original = 0;           // Table 5 row 1
  int64_t after_static = 0;       // after zebralint pruning (== original
                                  // when no static prior is configured)
  int64_t after_prerun = 0;       // Table 5 row 2
  int64_t after_uncertainty = 0;  // Table 5 row 3
  int64_t executed_runs = 0;      // Table 5 row 4 (logical unit-test runs; the
                                  // verifier and the run cache answer some
                                  // without executing them)
  int tests_total = 0;
  int tests_with_nodes = 0;
};

struct ParamFinding {
  std::string param;
  std::string owning_app;
  std::set<std::string> witness_tests;
  std::string example_failure;
  double best_p_value = 1.0;
};

struct SharingStats {
  int tests_with_conf_usage = 0;
  int tests_with_sharing = 0;
};

struct CampaignReport {
  std::map<std::string, AppStageCounts> per_app;
  std::map<std::string, ParamFinding> findings;  // reported unsafe parameters
  std::map<std::string, SharingStats> sharing;   // per app (§6.1 prevalence)
  int first_trial_candidates = 0;                // §7.2 hypothesis-testing stats
  int filtered_by_hypothesis = 0;
  int64_t total_unit_test_runs = 0;
  double wall_seconds = 0.0;

  // Run-cache accounting (0/0 when the cache is disabled). Hits are logical
  // unit-test runs served without execution; executed_runs counters include
  // them, the run-duration profile does not. Runs TestRunner answers from a
  // result it holds are counted in executed_runs but never looked up.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  // Observational-equivalence accounting (all 0 when the layer is off).
  // equiv_hits are serves through the read-trace index; mispredictions
  // counts executions whose observed trace broke the pre-run's promise;
  // cache_evictions counts LRU evictions under the configured budget. Like
  // cache_hits these depend on scheduling (the pool's workers race for one
  // cache, the fabric's agents each own one), so they are accounting, not
  // part of the bitwise determinism contract.
  int64_t equiv_hits = 0;
  int64_t mispredictions = 0;
  int64_t cache_evictions = 0;

  // Always 0. The canonical-fingerprint index that filled it is gone; the
  // field stays only because the benchmark's oracle (perfbench/src/oracle.cc)
  // still assigns it by name.
  int64_t canonicalized_plans = 0;

  // Coupling add-on accounting (0/0 when the phase is off or no prior is
  // configured). coupling_runs counts pairwise plans plus their blame-
  // isolation and homogeneous-control executions; they are included in the
  // executed_runs totals but never in runs_to_first_detection (the add-on
  // must not perturb the enumerative prioritization metric).
  int64_t coupling_runs = 0;
  int64_t coupling_confirmations = 0;

  // Units whose dynamic phase was skipped by impacted-only / only-tests
  // restriction (their pre-runs still executed).
  int64_t units_skipped = 0;

  // Fault-tolerance accounting (all 0 on an undisturbed run; see
  // docs/ROBUSTNESS.md). Like the cache counters these depend on scheduling
  // and fault timing, so they are accounting, not part of the bitwise
  // determinism contract.
  int64_t hung_workers = 0;        // workers SIGKILLed past a watchdog deadline
  int64_t requeued_units = 0;      // units re-dispatched after a worker died
  int64_t resumed_units = 0;       // units replayed from a journal on --resume
  int64_t cache_load_failures = 0; // corrupt cache files degraded to empty
  int64_t journal_append_failures = 0;  // journal write/fdatasync failures
                                        // (journaling disables itself after
                                        // the first, the campaign continues)

  // Distributed-fabric accounting (all 0 outside --engine=distributed; see
  // docs/ROBUSTNESS.md fabric section). Scheduling/fault-timing dependent,
  // so accounting only — never part of the bitwise determinism contract.
  int64_t agent_disconnects = 0;   // agent connections retired (EOF, garbled
                                   // frame, write failure, heartbeat timeout)
  int64_t expired_leases = 0;      // unit leases revoked and requeued after
                                   // their agent crashed, hung, or vanished
  int64_t duplicate_results = 0;   // completion frames dropped idempotently
                                   // (stale lease: unit already reassigned
                                   // or already folded)

  // Units that exceeded CampaignOptions.unit_attempt_limit and were skipped
  // (their canonical slot folds an empty result). Non-empty means findings
  // are incomplete — a side note for triage, never silently dropped.
  std::vector<std::string> poisoned_units;

  // Unit-test executions (pre-runs included) up to and including the run
  // that confirmed the first unsafe parameter; 0 when nothing was detected.
  // The static-prior prioritization exists to shrink this number. Derived
  // from the canonical unit order, so it is identical however the campaign
  // was actually scheduled.
  int64_t runs_to_first_detection = 0;
  std::string first_detection_param;

  // Wall-clock duration of every unit-test execution, in canonical order —
  // the input to the fleet cost model (core/fleet_model.h). Cache hits and
  // trials TestRunner answers from a known result do not appear here
  // (nothing was executed).
  std::vector<double> run_durations_seconds;

  int64_t TotalOriginal() const;
  int64_t TotalAfterStatic() const;
  int64_t TotalAfterPrerun() const;
  int64_t TotalAfterUncertainty() const;
  int64_t TotalExecuted() const;
};

// Copies a run cache's counters into the report: the one mapping from
// RunCache::Stats to report fields, used by every engine once its campaign
// is over (only the cache's owner knows its totals).
void ReportCacheStats(const RunCache::Stats& stats, CampaignReport* report);

// One parameter confirmed heterogeneous-unsafe within one work unit.
struct UnitConfirmation {
  std::string param;
  double p_value = 1.0;
  std::string witness_failure;
};

// Told about each confirmation as Campaign::RunUnit appends it to
// UnitWorkResult::confirmations, before the unit finishes. The thread pool
// uses it to project later dispatches' globally-unsafe snapshots.
using ConfirmationObserver = std::function<void(const UnitConfirmation&)>;

// Everything one (app, unit test) work unit contributes to the campaign
// report. Produced by Campaign::RunUnit (in-process or in a scheduler
// worker), consumed by CampaignFolder in canonical order.
struct UnitWorkResult {
  std::string app;
  std::string test_id;

  int64_t prerun_executions = 0;  // pre-run baselines executed (normally 1)
  int64_t after_prerun = 0;       // Table 5 row 2 contribution
  int64_t after_uncertainty = 0;  // Table 5 row 3 contribution
  int64_t executed_runs = 0;      // dynamic-phase executions (pre-run excluded)

  // Dynamic-phase executions up to and including the run that confirmed this
  // unit's first unsafe parameter (0 = unit confirmed nothing).
  int64_t runs_to_first_confirmation = 0;

  bool any_conf_usage = false;
  bool conf_sharing_detected = false;
  bool started_any_node = false;

  int first_trial_candidates = 0;
  int filtered_by_hypothesis = 0;

  // Parameters this unit pooled/verified (post only/exclude filtering). The
  // scheduler uses this to decide whether a stale globally-unsafe snapshot
  // could have influenced the unit (and must therefore be re-run).
  std::vector<std::string> params_tested;

  // In confirmation order (the order VerifyInstance confirmed them).
  std::vector<UnitConfirmation> confirmations;

  // Coupling add-on (see CampaignReport). Confirmations found by the add-on
  // are appended after the enumerative ones, so confirmations.front() is
  // still the enumerative first when runs_to_first_confirmation > 0.
  int64_t coupling_runs = 0;
  int64_t coupling_confirmations = 0;

  // The dynamic phase was skipped (impacted-only / only-tests restriction).
  bool dynamic_phase_skipped = false;

  // Durations of this unit's real executions: pre-run first, then dynamic.
  std::vector<double> run_durations;
};

// Merges UnitWorkResults into a CampaignReport. Folding must happen in the
// canonical unit order — apps in options.apps order, units in corpus
// registration order — with BeginApp called before an app's first unit. The
// folder owns all cross-unit campaign state: findings, the frequent-failure
// set (globally_unsafe), hypothesis-testing counters, and the canonical
// runs_to_first_detection accounting (an app's pre-runs all precede its
// dynamic runs, exactly as the sequential campaign executes them).
class CampaignFolder {
 public:
  CampaignFolder(const ConfSchema& schema, const CampaignOptions& options);

  void BeginApp(const std::string& app, int64_t original_count,
                int64_t after_static_count, int tests_total);
  void Fold(const UnitWorkResult& unit);

  // Parameters the frequent-failure rule has excluded from future pools,
  // given everything folded so far. This is exactly the set a sequential
  // campaign would know when starting the next canonical unit.
  const std::set<std::string>& globally_unsafe() const { return globally_unsafe_; }

  // Confirmations seen from one unit the fold has not reached yet: those a
  // running attempt has reported so far, or a delivered result's list.
  struct PendingUnit {
    std::string test_id;
    std::vector<std::string> confirmed;  // parameters, repeats allowed
  };

  // The globally-unsafe set the fold will hold when it reaches canonical unit
  // `unit_index`: globally_unsafe() plus every parameter whose confirming
  // tests reach the threshold once the `pending` units (keyed by canonical
  // index) before `unit_index` are counted. Tests are counted distinctly, as
  // Fold counts them. Exact when every earlier unit is folded or pending
  // with its final list; otherwise a guess that CheckSnapshot settles.
  std::set<std::string> ProjectGloballyUnsafe(
      const std::map<size_t, PendingUnit>& pending, size_t unit_index) const;

  enum class SnapshotCheck {
    kAgrees,          // snapshot and folded set agree on every tested param
    kUnderProjected,  // a tested param is folded unsafe, not in the snapshot
    kOverProjected,   // the snapshot holds a tested param the fold lacks
  };

  // Compares the globally-unsafe snapshot `unit` ran under with
  // globally_unsafe() on every parameter the unit tested; a snapshot
  // parameter the unit never tested cannot have changed its result.
  // kUnderProjected wins when both apply. It is final as soon as it shows:
  // the folded set only grows. kAgrees and kOverProjected are final only at
  // the unit's own fold point, where globally_unsafe() is the exact set and
  // an agreeing result is bitwise the sequential campaign's.
  SnapshotCheck CheckSnapshot(const UnitWorkResult& unit,
                              const std::set<std::string>& snapshot) const;

  // The in-progress report (e.g. to install a run-duration collector).
  CampaignReport& report() { return report_; }

  // Finalizes totals and returns the report. The folder is spent afterwards.
  CampaignReport Finish();

 private:
  const ConfSchema& schema_;
  int frequent_failure_threshold_;
  CampaignReport report_;
  int64_t executed_before_ = 0;  // canonical executions before the next unit
  std::map<std::string, std::set<std::string>> confirmed_tests_per_param_;
  std::set<std::string> globally_unsafe_;
};

class Campaign {
 public:
  Campaign(const ConfSchema& schema, const UnitTestRegistry& corpus,
           CampaignOptions options);

  CampaignReport Run();

  // Executes one (app, unit test) work unit: pre-run, instance generation,
  // pooled testing / bisection / verification. `globally_unsafe` must be the
  // frequent-failure set a sequential campaign would know when reaching this
  // unit (any other set yields a result the scheduler detects and re-runs).
  // `on_confirmation`, when set, is called with each confirmation as it is
  // made. Installs this campaign's active cache and a unit-local duration
  // collector for the duration of the call; the result carries no cache
  // counters (the cache's owner reports them, see ReportCacheStats). Used by
  // the thread pool's workers and the fabric's agents.
  UnitWorkResult RunUnit(const UnitTestDef& test,
                         const std::set<std::string>& globally_unsafe,
                         const ConfirmationObserver& on_confirmation = {});

  // Options with `apps` resolved (empty -> every corpus app, sorted).
  const CampaignOptions& options() const { return options_; }
  const TestGenerator& generator() const { return generator_; }

  // The campaign's run cache (null unless a cache option is enabled). Exposed
  // for persistence: the CLI warm-starts it via LoadFromFile before Run() and
  // saves it after.
  RunCache* run_cache() { return run_cache_.get(); }

  // Routes this engine's executions through an externally owned, internally
  // synchronized cache instead of the campaign-owned one. The thread-pool
  // scheduler hands every worker engine the same cache, so any worker's
  // result is served to all; the scheduler reports the shared cache's
  // counters once, at the end. Pass nullptr to restore the owned cache. The
  // caller keeps ownership and must outlive every RunUnit call.
  void UseSharedRunCache(RunCache* cache) { shared_run_cache_ = cache; }

  // The cache executions actually go through: shared if installed, else the
  // campaign-owned one (possibly null).
  RunCache* active_cache() const {
    return shared_run_cache_ != nullptr ? shared_run_cache_ : run_cache_.get();
  }

 private:
  // Per-test dynamic phase over one pre-run record. Fills everything in the
  // result except prerun_executions and run_durations (owned by the
  // callers, who know what else ran).
  UnitWorkResult RunUnitDynamic(const PreRunRecord& record,
                                const std::set<std::string>& globally_unsafe,
                                const ConfirmationObserver& on_confirmation) const;

  // Per-test pooled phase over this test's instances, grouped by parameter.
  void RunPooledForTest(const UnitTestDef& test,
                        std::map<std::string, std::vector<GeneratedInstance>> by_param,
                        const std::set<std::string>& globally_unsafe,
                        const ConfirmationObserver& on_confirmation,
                        UnitWorkResult* unit) const;

  // Recursive bisection of a failing pool (one instance per parameter);
  // `failing` is the pool's own failing trial-0 run.
  void BisectPool(const UnitTestDef& test, std::vector<GeneratedInstance> pool,
                  std::shared_ptr<const TestResult> failing,
                  const ConfirmationObserver& on_confirmation, UnitWorkResult* unit,
                  std::set<std::string>* confirmed_in_test) const;

  // Coupling add-on: runs each pairwise coupled plan once; a failing pair
  // whose members pass alone and whose homogeneous controls pass confirms
  // the (previously unconfirmed) members. Runs strictly after the
  // enumerative phase and only ever appends confirmations.
  void RunCouplingForTest(const UnitTestDef& test,
                          const std::vector<CoupledInstance>& coupled,
                          const std::set<std::string>& globally_unsafe,
                          const ConfirmationObserver& on_confirmation,
                          UnitWorkResult* unit) const;

  // Verifies one instance through TestRunner and folds the verdict into the
  // unit result. Returns true if the parameter was confirmed unsafe.
  // `first_hetero` is the instance's trial-0 heterogeneous result when the
  // caller already holds it (see TestRunner::Verify).
  bool VerifyInstance(const GeneratedInstance& instance,
                      const ConfirmationObserver& on_confirmation, UnitWorkResult* unit,
                      std::set<std::string>* confirmed_in_test,
                      std::shared_ptr<const TestResult> first_hetero = nullptr) const;

  // Parameter visit order for one test: descending static priority
  // (wire-tainted first), name for ties; shuffled when the options ask for
  // the unprioritized baseline.
  std::vector<std::string> ParamOrder(
      const std::map<std::string, std::vector<GeneratedInstance>>& by_param) const;

  const ConfSchema& schema_;
  const UnitTestRegistry& corpus_;
  CampaignOptions options_;
  TestGenerator generator_;
  TestRunner runner_;
  std::unique_ptr<RunCache> run_cache_;  // null unless options.enable_run_cache
  RunCache* shared_run_cache_ = nullptr;  // not owned; see UseSharedRunCache
};

}  // namespace zebra

#endif  // SRC_CORE_CAMPAIGN_H_
