#include "src/core/campaign.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <random>

#include "src/common/logging.h"
#include "src/conf/plan_equiv.h"

namespace zebra {

namespace {

int64_t SumField(const std::map<std::string, AppStageCounts>& per_app,
                 int64_t AppStageCounts::*field) {
  int64_t total = 0;
  for (const auto& [app, counts] : per_app) {
    total += counts.*field;
  }
  return total;
}

// RAII duration-collector installation (exception-safe around a work unit).
class ScopedDurationCollector {
 public:
  explicit ScopedDurationCollector(std::vector<double>* collector) {
    SetRunDurationCollector(collector);
  }
  ~ScopedDurationCollector() { SetRunDurationCollector(nullptr); }
  ScopedDurationCollector(const ScopedDurationCollector&) = delete;
  ScopedDurationCollector& operator=(const ScopedDurationCollector&) = delete;
};

void AddConfirmation(UnitConfirmation confirmation,
                     const ConfirmationObserver& on_confirmation, UnitWorkResult* unit) {
  unit->confirmations.push_back(std::move(confirmation));
  if (on_confirmation) {
    on_confirmation(unit->confirmations.back());
  }
}

}  // namespace

int64_t CampaignReport::TotalOriginal() const {
  return SumField(per_app, &AppStageCounts::original);
}
int64_t CampaignReport::TotalAfterStatic() const {
  return SumField(per_app, &AppStageCounts::after_static);
}
int64_t CampaignReport::TotalAfterPrerun() const {
  return SumField(per_app, &AppStageCounts::after_prerun);
}
int64_t CampaignReport::TotalAfterUncertainty() const {
  return SumField(per_app, &AppStageCounts::after_uncertainty);
}
int64_t CampaignReport::TotalExecuted() const {
  return SumField(per_app, &AppStageCounts::executed_runs);
}

void ReportCacheStats(const RunCache::Stats& stats, CampaignReport* report) {
  report->cache_hits = stats.hits;
  report->cache_misses = stats.misses;
  report->equiv_hits = stats.equiv_hits;
  report->mispredictions = stats.mispredictions;
  report->cache_evictions = stats.evictions;
  report->cache_load_failures = stats.load_failures;
}

// ---------------------------------------------------------------------------
// CampaignFolder: canonical-order merge of unit results.
// ---------------------------------------------------------------------------

CampaignFolder::CampaignFolder(const ConfSchema& schema, const CampaignOptions& options)
    : schema_(schema),
      frequent_failure_threshold_(options.frequent_failure_threshold) {}

void CampaignFolder::BeginApp(const std::string& app, int64_t original_count,
                              int64_t after_static_count, int tests_total) {
  AppStageCounts& counts = report_.per_app[app];
  counts.original = original_count;
  counts.after_static = after_static_count;
  counts.tests_total = tests_total;
  report_.sharing[app];  // the app appears in sharing stats even when all-zero

  // Canonical execution order runs every pre-run of an app before any of its
  // dynamic phases (exactly what the sequential campaign does), so all
  // pre-runs count toward runs_to_first_detection of any unit in this app.
  executed_before_ += tests_total;
}

void CampaignFolder::Fold(const UnitWorkResult& unit) {
  AppStageCounts& counts = report_.per_app[unit.app];
  counts.after_prerun += unit.after_prerun;
  counts.after_uncertainty += unit.after_uncertainty;
  counts.executed_runs +=
      unit.prerun_executions + unit.executed_runs + unit.coupling_runs;
  if (unit.started_any_node) {
    ++counts.tests_with_nodes;
  }

  SharingStats& sharing = report_.sharing[unit.app];
  if (unit.any_conf_usage) {
    ++sharing.tests_with_conf_usage;
    if (unit.conf_sharing_detected) {
      ++sharing.tests_with_sharing;
    }
  }

  report_.first_trial_candidates += unit.first_trial_candidates;
  report_.filtered_by_hypothesis += unit.filtered_by_hypothesis;
  report_.coupling_runs += unit.coupling_runs;
  report_.coupling_confirmations += unit.coupling_confirmations;
  if (unit.dynamic_phase_skipped) {
    ++report_.units_skipped;
  }

  if (report_.runs_to_first_detection == 0 && unit.runs_to_first_confirmation > 0) {
    report_.runs_to_first_detection =
        executed_before_ + unit.runs_to_first_confirmation;
    report_.first_detection_param = unit.confirmations.front().param;
  }
  // Coupling add-on runs are deliberately excluded: runs_to_first_detection
  // measures the enumerative phase the prioritization optimizes, and must be
  // identical with the add-on on or off.
  executed_before_ += unit.executed_runs;

  for (const UnitConfirmation& confirmation : unit.confirmations) {
    ParamFinding& finding = report_.findings[confirmation.param];
    if (finding.param.empty()) {
      finding.param = confirmation.param;
      const ParamSpec* spec = schema_.Find(confirmation.param);
      finding.owning_app = spec != nullptr ? spec->app : "unknown";
    }
    finding.witness_tests.insert(unit.test_id);
    if (finding.example_failure.empty()) {
      finding.example_failure = confirmation.witness_failure;
    }
    finding.best_p_value = std::min(finding.best_p_value, confirmation.p_value);

    confirmed_tests_per_param_[confirmation.param].insert(unit.test_id);
    if (static_cast<int>(confirmed_tests_per_param_[confirmation.param].size()) >=
        frequent_failure_threshold_) {
      globally_unsafe_.insert(confirmation.param);
    }
  }

  report_.run_durations_seconds.insert(report_.run_durations_seconds.end(),
                                       unit.run_durations.begin(),
                                       unit.run_durations.end());
}

std::set<std::string> CampaignFolder::ProjectGloballyUnsafe(
    const std::map<size_t, PendingUnit>& pending, size_t unit_index) const {
  std::set<std::string> projected = globally_unsafe_;
  // Per parameter, the pending tests not already among its folded ones.
  std::map<std::string, std::set<std::string>> pending_tests;
  for (auto it = pending.begin(); it != pending.end() && it->first < unit_index; ++it) {
    const PendingUnit& unit = it->second;
    for (const std::string& param : unit.confirmed) {
      if (projected.count(param) > 0) {
        continue;
      }
      size_t folded_tests = 0;
      auto folded = confirmed_tests_per_param_.find(param);
      if (folded != confirmed_tests_per_param_.end()) {
        if (folded->second.count(unit.test_id) > 0) {
          continue;
        }
        folded_tests = folded->second.size();
      }
      std::set<std::string>& tests = pending_tests[param];
      tests.insert(unit.test_id);
      if (static_cast<int>(folded_tests + tests.size()) >= frequent_failure_threshold_) {
        projected.insert(param);
      }
    }
  }
  return projected;
}

CampaignFolder::SnapshotCheck CampaignFolder::CheckSnapshot(
    const UnitWorkResult& unit, const std::set<std::string>& snapshot) const {
  SnapshotCheck check = SnapshotCheck::kAgrees;
  for (const std::string& param : unit.params_tested) {
    const bool folded = globally_unsafe_.count(param) > 0;
    const bool assumed = snapshot.count(param) > 0;
    if (folded && !assumed) {
      return SnapshotCheck::kUnderProjected;
    }
    if (assumed && !folded) {
      check = SnapshotCheck::kOverProjected;
    }
  }
  return check;
}

CampaignReport CampaignFolder::Finish() {
  report_.total_unit_test_runs = report_.TotalExecuted();
  return std::move(report_);
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

Campaign::Campaign(const ConfSchema& schema, const UnitTestRegistry& corpus,
                   CampaignOptions options)
    : schema_(schema),
      corpus_(corpus),
      options_(std::move(options)),
      generator_(schema, corpus,
                 GeneratorOptions{options_.enable_round_robin,
                                  options_.prune_unread_instances,
                                  options_.static_prior,
                                  options_.enable_coupling_plans,
                                  options_.max_coupling_plans_per_test}),
      runner_(options_.significance, options_.first_trials) {
  if (options_.apps.empty()) {
    std::set<std::string> apps;
    for (const UnitTestDef& test : corpus_.tests()) {
      apps.insert(test.app);
    }
    options_.apps.assign(apps.begin(), apps.end());
  }
  if (options_.enable_equiv_cache) {
    options_.enable_run_cache = true;  // the equiv layer rides on the cache
  }
  if (options_.enable_run_cache) {
    run_cache_ = std::make_unique<RunCache>(
        RunCache::Limits{options_.cache_max_entries, options_.cache_max_bytes});
  }
}

bool Campaign::VerifyInstance(const GeneratedInstance& instance,
                              const ConfirmationObserver& on_confirmation,
                              UnitWorkResult* unit,
                              std::set<std::string>* confirmed_in_test,
                              std::shared_ptr<const TestResult> first_hetero) const {
  Verdict verdict =
      runner_.Verify(instance, &unit->executed_runs, std::move(first_hetero));
  if (verdict.kind == Verdict::Kind::kNotCandidate) {
    return false;
  }
  ++unit->first_trial_candidates;
  if (verdict.kind == Verdict::Kind::kFilteredFlaky) {
    ++unit->filtered_by_hypothesis;
    return false;
  }

  // Confirmed unsafe.
  if (unit->runs_to_first_confirmation == 0) {
    unit->runs_to_first_confirmation = unit->executed_runs;
  }
  confirmed_in_test->insert(instance.plan.param);
  AddConfirmation(UnitConfirmation{instance.plan.param, verdict.p_value,
                                   verdict.witness_failure},
                  on_confirmation, unit);
  return true;
}

void Campaign::BisectPool(const UnitTestDef& test, std::vector<GeneratedInstance> pool,
                          std::shared_ptr<const TestResult> failing,
                          const ConfirmationObserver& on_confirmation,
                          UnitWorkResult* unit,
                          std::set<std::string>* confirmed_in_test) const {
  if (pool.empty()) {
    return;
  }
  if (pool.size() == 1) {
    // A one-instance pool's plan is the instance's heterogeneous plan, so its
    // failing trial-0 run is the verifier's first heterogeneous trial.
    VerifyInstance(pool.front(), on_confirmation, unit, confirmed_in_test,
                   std::move(failing));
    return;
  }
  size_t half = pool.size() / 2;
  std::vector<GeneratedInstance> left(pool.begin(), pool.begin() + half);
  std::vector<GeneratedInstance> right(pool.begin() + half, pool.end());
  for (auto* side : {&left, &right}) {
    TestPlan plan;
    for (const GeneratedInstance& instance : *side) {
      plan.Add(instance.plan);
    }
    ++unit->executed_runs;
    std::shared_ptr<const TestResult> result =
        RunUnitTestShared(test, plan, /*trial=*/0);
    if (!result->passed) {
      BisectPool(test, std::move(*side), std::move(result), on_confirmation, unit,
                 confirmed_in_test);
    }
  }
}

void Campaign::RunCouplingForTest(const UnitTestDef& test,
                                  const std::vector<CoupledInstance>& coupled,
                                  const std::set<std::string>& globally_unsafe,
                                  const ConfirmationObserver& on_confirmation,
                                  UnitWorkResult* unit) const {
  if (coupled.empty()) {
    return;
  }
  std::set<std::string> confirmed_in_test;
  for (const UnitConfirmation& confirmation : unit->confirmations) {
    confirmed_in_test.insert(confirmation.param);
  }
  for (const CoupledInstance& pair : coupled) {
    // A pair with an already-confirmed member cannot be attributed cleanly
    // (the known-unsafe member would explain any failure), so skip it.
    bool any_settled = false;
    for (const std::string& param : pair.params) {
      if (globally_unsafe.count(param) > 0 || confirmed_in_test.count(param) > 0) {
        any_settled = true;
      }
    }
    if (any_settled) {
      continue;
    }

    ++unit->coupling_runs;
    std::shared_ptr<const TestResult> hetero =
        RunUnitTestShared(test, pair.plan, /*trial=*/0);
    if (hetero->passed) {
      continue;
    }

    // Blame isolation: a member that fails heterogeneous on its own is the
    // enumerative phase's business, not a coupling.
    bool member_fails_alone = false;
    for (const ParamPlan& member : pair.plan.params()) {
      TestPlan solo;
      solo.Add(member);
      ++unit->coupling_runs;
      if (!RunUnitTestShared(test, solo, /*trial=*/0)->passed) {
        member_fails_alone = true;
        break;
      }
    }
    if (member_fails_alone) {
      continue;
    }

    // Definition 3.1 lifted to pairs: confirm only when every homogeneous
    // control of the pair passes.
    bool controls_pass = true;
    for (int side = 0; side < 2 && controls_pass; ++side) {
      TestPlan homo;
      for (const ParamPlan& member : pair.plan.params()) {
        ParamPlan control = member;
        control.assigner = ValueAssigner::Homogeneous(
            side == 0 ? member.assigner.group_value : member.assigner.other_value);
        homo.Add(std::move(control));
      }
      ++unit->coupling_runs;
      controls_pass = RunUnitTestShared(test, homo, /*trial=*/0)->passed;
    }
    if (!controls_pass) {
      continue;
    }

    for (const std::string& param : pair.params) {
      confirmed_in_test.insert(param);
      ++unit->coupling_confirmations;
      AddConfirmation(UnitConfirmation{param, options_.significance,
                                       "coupled failure: " + hetero->failure},
                      on_confirmation, unit);
    }
  }
}

std::vector<std::string> Campaign::ParamOrder(
    const std::map<std::string, std::vector<GeneratedInstance>>& by_param) const {
  std::vector<std::string> order;
  order.reserve(by_param.size());
  for (const auto& [param, instances] : by_param) {
    order.push_back(param);
  }
  // Map iteration is name-sorted; a stable sort on priority keeps name order
  // within each band.
  std::stable_sort(order.begin(), order.end(),
                   [&](const std::string& a, const std::string& b) {
                     return by_param.at(a).front().plan.static_priority >
                            by_param.at(b).front().plan.static_priority;
                   });
  if (options_.shuffle_order_seed != 0) {
    std::mt19937_64 rng(options_.shuffle_order_seed);
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

void Campaign::RunPooledForTest(
    const UnitTestDef& test,
    std::map<std::string, std::vector<GeneratedInstance>> by_param,
    const std::set<std::string>& globally_unsafe,
    const ConfirmationObserver& on_confirmation, UnitWorkResult* unit) const {
  std::set<std::string> confirmed_in_test;
  std::vector<std::string> order = ParamOrder(by_param);
  size_t max_rounds = 0;
  for (const auto& [param, instances] : by_param) {
    max_rounds = std::max(max_rounds, instances.size());
  }

  for (size_t round = 0; round < max_rounds; ++round) {
    // Pool the round-th instance of every parameter that still has one and
    // is not already settled. Pool order follows the static prior, so
    // bisection descends into the wire-tainted half first.
    std::vector<GeneratedInstance> pool;
    for (const std::string& param : order) {
      const std::vector<GeneratedInstance>& instances = by_param.at(param);
      if (round >= instances.size() || globally_unsafe.count(param) > 0 ||
          confirmed_in_test.count(param) > 0) {
        continue;
      }
      pool.push_back(instances[round]);
    }
    if (pool.empty()) {
      continue;
    }
    TestPlan plan;
    for (const GeneratedInstance& instance : pool) {
      plan.Add(instance.plan);
    }
    ++unit->executed_runs;
    std::shared_ptr<const TestResult> result =
        RunUnitTestShared(test, plan, /*trial=*/0);
    if (result->passed) {
      continue;  // every pooled parameter assumed safe for this instance
    }
    BisectPool(test, std::move(pool), std::move(result), on_confirmation, unit,
               &confirmed_in_test);
  }
}

UnitWorkResult Campaign::RunUnitDynamic(
    const PreRunRecord& record, const std::set<std::string>& globally_unsafe,
    const ConfirmationObserver& on_confirmation) const {
  UnitWorkResult unit;
  unit.app = record.test->app;
  unit.test_id = record.test->id;

  const SessionReport& session = record.result.report;
  unit.any_conf_usage = session.any_conf_usage;
  unit.conf_sharing_detected = session.conf_sharing_detected;
  unit.started_any_node = session.StartedAnyNode();

  // Impacted-only / only-tests restrictions: the pre-run (our read-trace
  // probe) already ran; the dynamic phase is what gets skipped.
  if (!options_.only_tests.empty() &&
      options_.only_tests.count(unit.test_id) == 0) {
    unit.dynamic_phase_skipped = true;
    return unit;
  }
  if (!options_.impacted_params.empty()) {
    bool intersects = false;
    for (const std::string& param : session.AllParamsRead()) {
      if (options_.impacted_params.count(param) > 0) {
        intersects = true;
        break;
      }
    }
    if (!intersects) {
      unit.dynamic_phase_skipped = true;
      return unit;
    }
  }

  int64_t before_uncertainty = 0;
  std::vector<GeneratedInstance> instances =
      generator_.Generate(record, &before_uncertainty);
  unit.after_prerun = before_uncertainty;
  unit.after_uncertainty = static_cast<int64_t>(instances.size());
  if (instances.empty()) {
    return unit;
  }

  // Observational-equivalence layer: the pre-run's read surface
  // trace-predicts every plan this unit's dynamic phase executes (see
  // plan_equiv.h). Installed for this unit only — the surface is the promise
  // of *this* test's pre-run (thread-scoped state, like the cache).
  // Built only when the layer is on: nothing else reads the surface.
  std::optional<ReadSurface> surface;
  if (options_.enable_equiv_cache) {
    surface.emplace(session);
  }
  ScopedReadSurface scoped_surface(
      surface.has_value() && surface->usable() ? &*surface : nullptr);

  // Coupled plans are derived from the generated instances before they are
  // regrouped below; pairs with a filtered-out member are dropped.
  std::vector<CoupledInstance> coupled =
      generator_.GenerateCoupled(record, instances);
  coupled.erase(
      std::remove_if(coupled.begin(), coupled.end(),
                     [this](const CoupledInstance& pair) {
                       for (const std::string& param : pair.params) {
                         if (!options_.only_params.empty() &&
                             options_.only_params.count(param) == 0) {
                           return true;
                         }
                         if (options_.exclude_params.count(param) > 0) {
                           return true;
                         }
                       }
                       return false;
                     }),
      coupled.end());

  std::map<std::string, std::vector<GeneratedInstance>> by_param;
  for (GeneratedInstance& instance : instances) {
    const std::string& param = instance.plan.param;
    if (!options_.only_params.empty() && options_.only_params.count(param) == 0) {
      continue;
    }
    if (options_.exclude_params.count(param) > 0) {
      continue;
    }
    by_param[param].push_back(std::move(instance));
  }
  for (const auto& [param, param_instances] : by_param) {
    unit.params_tested.push_back(param);
  }

  if (options_.enable_pooling) {
    RunPooledForTest(*record.test, std::move(by_param), globally_unsafe,
                     on_confirmation, &unit);
  } else {
    // Ablation: verify every instance individually (stop per parameter once
    // confirmed in this test).
    std::set<std::string> confirmed_in_test;
    for (const std::string& param : ParamOrder(by_param)) {
      const std::vector<GeneratedInstance>& param_instances = by_param.at(param);
      for (const GeneratedInstance& instance : param_instances) {
        if (globally_unsafe.count(param) > 0 || confirmed_in_test.count(param) > 0) {
          break;
        }
        VerifyInstance(instance, on_confirmation, &unit, &confirmed_in_test);
      }
    }
  }

  // Coupling add-on: strictly after the enumerative phase, so that phase's
  // results (and runs_to_first accounting) are untouched whether or not the
  // add-on runs.
  RunCouplingForTest(*record.test, coupled, globally_unsafe, on_confirmation, &unit);
  return unit;
}

UnitWorkResult Campaign::RunUnit(const UnitTestDef& test,
                                 const std::set<std::string>& globally_unsafe,
                                 const ConfirmationObserver& on_confirmation) {
  ScopedRunCache scoped_cache(active_cache());
  std::vector<double> durations;
  UnitWorkResult unit;
  {
    ScopedDurationCollector scoped_collector(&durations);
    int64_t prerun_executions = 0;
    PreRunRecord record = generator_.PreRunTest(test, &prerun_executions);
    unit = RunUnitDynamic(record, globally_unsafe, on_confirmation);
    unit.prerun_executions = prerun_executions;
  }
  unit.run_durations = std::move(durations);
  return unit;
}

CampaignReport Campaign::Run() {
  CampaignFolder folder(schema_, options_);
  ScopedRunCache scoped_cache(run_cache_.get());
  ScopedDurationCollector scoped_collector(&folder.report().run_durations_seconds);
  auto start = std::chrono::steady_clock::now();

  // Cancellation (SIGINT/SIGTERM via options_.cancel_flag) is honored at
  // unit boundaries only: the report stays a valid fold prefix, and callers
  // holding a run cache get the chance to persist it before exiting.
  auto cancelled = [this]() {
    return options_.cancel_flag != nullptr && *options_.cancel_flag != 0;
  };

  for (const std::string& app : options_.apps) {
    if (cancelled()) {
      break;
    }
    std::vector<PreRunRecord> records = generator_.PreRunApp(app, nullptr);
    folder.BeginApp(app, generator_.OriginalInstanceCount(app),
                    generator_.StaticPrunedInstanceCount(app),
                    static_cast<int>(records.size()));

    for (const PreRunRecord& record : records) {
      if (cancelled()) {
        ZLOG_WARN << "campaign: cancellation requested; stopping app " << app
                  << " early";
        break;
      }
      UnitWorkResult unit =
          RunUnitDynamic(record, folder.globally_unsafe(), /*on_confirmation=*/{});
      unit.prerun_executions = 1;  // the PreRunApp baseline for this record
      folder.Fold(unit);
    }

    ZLOG_INFO << "campaign: app " << app << " done, runs so far "
              << folder.report().TotalExecuted();
  }

  auto end = std::chrono::steady_clock::now();
  if (run_cache_ != nullptr) {
    ReportCacheStats(run_cache_->stats(), &folder.report());
  }
  folder.report().wall_seconds = std::chrono::duration<double>(end - start).count();
  return folder.Finish();
}

}  // namespace zebra
