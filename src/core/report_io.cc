#include "src/core/report_io.h"

#include <cstdio>

#include "src/common/error.h"
#include "src/common/strings.h"
#include "src/conf/conf_file.h"

namespace zebra {

std::string EscapeReportText(const std::string& text) {
  std::string escaped;
  for (char c : text) {
    if (c == '\n') {
      escaped += "\\n";
    } else if (c == '\\') {
      escaped += "\\\\";
    } else {
      escaped += c;
    }
  }
  return escaped;
}

std::string UnescapeReportText(const std::string& text) {
  std::string plain;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      ++i;
      plain += text[i] == 'n' ? '\n' : text[i];
    } else {
      plain += text[i];
    }
  }
  return plain;
}

namespace {

int64_t RequireInt(const std::map<std::string, std::string>& properties,
                   const std::string& key) {
  auto it = properties.find(key);
  int64_t value = 0;
  if (it == properties.end() || !ParseInt64(it->second, &value)) {
    throw Error("report deserialization: missing or malformed key " + key);
  }
  return value;
}

std::string GetOr(const std::map<std::string, std::string>& properties,
                  const std::string& key, const std::string& fallback) {
  auto it = properties.find(key);
  return it == properties.end() ? fallback : it->second;
}

std::string Double17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string SerializeUnitResult(size_t unit_index, const UnitWorkResult& unit) {
  std::map<std::string, std::string> properties;
  properties["unit"] = Int64ToString(static_cast<int64_t>(unit_index));
  properties["app"] = unit.app;
  properties["test_id"] = unit.test_id;
  properties["prerun_executions"] = Int64ToString(unit.prerun_executions);
  properties["after_prerun"] = Int64ToString(unit.after_prerun);
  properties["after_uncertainty"] = Int64ToString(unit.after_uncertainty);
  properties["executed_runs"] = Int64ToString(unit.executed_runs);
  properties["runs_to_first_confirmation"] =
      Int64ToString(unit.runs_to_first_confirmation);
  properties["any_conf_usage"] = unit.any_conf_usage ? "1" : "0";
  properties["conf_sharing_detected"] = unit.conf_sharing_detected ? "1" : "0";
  properties["started_any_node"] = unit.started_any_node ? "1" : "0";
  properties["first_trial_candidates"] = Int64ToString(unit.first_trial_candidates);
  properties["filtered_by_hypothesis"] = Int64ToString(unit.filtered_by_hypothesis);
  properties["cache_hits"] = Int64ToString(unit.cache_hits);
  properties["cache_misses"] = Int64ToString(unit.cache_misses);
  properties["equiv_hits"] = Int64ToString(unit.equiv_hits);
  properties["canonicalized_plans"] = Int64ToString(unit.canonicalized_plans);
  properties["mispredictions"] = Int64ToString(unit.mispredictions);
  properties["cache_evictions"] = Int64ToString(unit.cache_evictions);
  properties["coupling_runs"] = Int64ToString(unit.coupling_runs);
  properties["coupling_confirmations"] =
      Int64ToString(unit.coupling_confirmations);
  properties["dynamic_phase_skipped"] = unit.dynamic_phase_skipped ? "1" : "0";
  properties["params_tested"] = StrJoin(unit.params_tested, ",");

  properties["confirmations"] =
      Int64ToString(static_cast<int64_t>(unit.confirmations.size()));
  for (size_t i = 0; i < unit.confirmations.size(); ++i) {
    const UnitConfirmation& confirmation = unit.confirmations[i];
    std::string prefix = "confirmation." + std::to_string(i) + ".";
    properties[prefix + "param"] = confirmation.param;
    properties[prefix + "p_value"] = Double17(confirmation.p_value);
    properties[prefix + "failure"] = EscapeReportText(confirmation.witness_failure);
  }

  std::vector<std::string> durations;
  durations.reserve(unit.run_durations.size());
  for (double duration : unit.run_durations) {
    durations.push_back(Double17(duration));
  }
  properties["durations"] = StrJoin(durations, ",");
  return RenderProperties(properties);
}

bool ParseUnitResult(const std::string& text, size_t* unit_index,
                     UnitWorkResult* unit) {
  std::map<std::string, std::string> properties;
  try {
    properties = ParseProperties(text);
  } catch (const Error&) {
    return false;
  }
  auto get = [&](const std::string& key) -> const std::string& {
    static const std::string kEmpty;
    auto it = properties.find(key);
    return it == properties.end() ? kEmpty : it->second;
  };
  auto get_int = [&](const std::string& key, int64_t* out) {
    return ParseInt64(get(key), out);
  };

  int64_t index = -1;
  if (!get_int("unit", &index) || index < 0) {
    return false;
  }
  *unit_index = static_cast<size_t>(index);
  unit->app = get("app");
  unit->test_id = get("test_id");
  int64_t candidates = 0;
  int64_t filtered = 0;
  if (!get_int("prerun_executions", &unit->prerun_executions) ||
      !get_int("after_prerun", &unit->after_prerun) ||
      !get_int("after_uncertainty", &unit->after_uncertainty) ||
      !get_int("executed_runs", &unit->executed_runs) ||
      !get_int("runs_to_first_confirmation", &unit->runs_to_first_confirmation) ||
      !get_int("first_trial_candidates", &candidates) ||
      !get_int("filtered_by_hypothesis", &filtered) ||
      !get_int("cache_hits", &unit->cache_hits) ||
      !get_int("cache_misses", &unit->cache_misses) ||
      !get_int("equiv_hits", &unit->equiv_hits) ||
      !get_int("canonicalized_plans", &unit->canonicalized_plans) ||
      !get_int("mispredictions", &unit->mispredictions) ||
      !get_int("cache_evictions", &unit->cache_evictions)) {
    return false;
  }
  unit->first_trial_candidates = static_cast<int>(candidates);
  unit->filtered_by_hypothesis = static_cast<int>(filtered);
  unit->any_conf_usage = get("any_conf_usage") == "1";
  unit->conf_sharing_detected = get("conf_sharing_detected") == "1";
  unit->started_any_node = get("started_any_node") == "1";
  // Absent in pre-coupling serializations: the add-on did not exist.
  ParseInt64(get("coupling_runs"), &unit->coupling_runs);
  ParseInt64(get("coupling_confirmations"), &unit->coupling_confirmations);
  unit->dynamic_phase_skipped = get("dynamic_phase_skipped") == "1";

  for (const std::string& param : StrSplit(get("params_tested"), ',')) {
    if (!param.empty()) {
      unit->params_tested.push_back(param);
    }
  }

  int64_t confirmations = 0;
  if (!get_int("confirmations", &confirmations) || confirmations < 0) {
    return false;
  }
  for (int64_t i = 0; i < confirmations; ++i) {
    std::string prefix = "confirmation." + std::to_string(i) + ".";
    UnitConfirmation confirmation;
    confirmation.param = get(prefix + "param");
    if (confirmation.param.empty() ||
        !ParseDouble(get(prefix + "p_value"), &confirmation.p_value)) {
      return false;
    }
    confirmation.witness_failure = UnescapeReportText(get(prefix + "failure"));
    unit->confirmations.push_back(std::move(confirmation));
  }

  for (const std::string& duration_text : StrSplit(get("durations"), ',')) {
    if (duration_text.empty()) {
      continue;
    }
    double duration = 0;
    if (!ParseDouble(duration_text, &duration)) {
      return false;
    }
    unit->run_durations.push_back(duration);
  }
  return true;
}

std::string SerializeReport(const CampaignReport& report) {
  std::map<std::string, std::string> properties;
  std::vector<std::string> apps;
  for (const auto& [app, counts] : report.per_app) {
    apps.push_back(app);
    std::string prefix = "app." + app + ".";
    properties[prefix + "original"] = Int64ToString(counts.original);
    properties[prefix + "after_static"] = Int64ToString(counts.after_static);
    properties[prefix + "after_prerun"] = Int64ToString(counts.after_prerun);
    properties[prefix + "after_uncertainty"] = Int64ToString(counts.after_uncertainty);
    properties[prefix + "executed_runs"] = Int64ToString(counts.executed_runs);
    properties[prefix + "tests_total"] = Int64ToString(counts.tests_total);
    properties[prefix + "tests_with_nodes"] = Int64ToString(counts.tests_with_nodes);
  }
  properties["apps"] = StrJoin(apps, ",");

  for (const auto& [app, sharing] : report.sharing) {
    std::string prefix = "sharing." + app + ".";
    properties[prefix + "with_conf_usage"] = Int64ToString(sharing.tests_with_conf_usage);
    properties[prefix + "with_sharing"] = Int64ToString(sharing.tests_with_sharing);
  }

  std::vector<std::string> params;
  for (const auto& [param, finding] : report.findings) {
    params.push_back(param);
    std::string prefix = "finding." + param + ".";
    properties[prefix + "app"] = finding.owning_app;
    // Full precision, like the unit-result wire format: the cross-backend
    // determinism contract compares serialized p-values bitwise.
    properties[prefix + "p_value"] = Double17(finding.best_p_value);
    properties[prefix + "witnesses"] =
        StrJoin(std::vector<std::string>(finding.witness_tests.begin(),
                                         finding.witness_tests.end()),
                ",");
    properties[prefix + "failure"] = EscapeReportText(finding.example_failure);
  }
  properties["findings"] = StrJoin(params, ",");

  properties["first_trial_candidates"] = Int64ToString(report.first_trial_candidates);
  properties["filtered_by_hypothesis"] = Int64ToString(report.filtered_by_hypothesis);
  properties["total_unit_test_runs"] = Int64ToString(report.total_unit_test_runs);
  properties["wall_seconds"] = DoubleToString(report.wall_seconds);
  properties["cache_hits"] = Int64ToString(report.cache_hits);
  properties["cache_misses"] = Int64ToString(report.cache_misses);
  properties["equiv_hits"] = Int64ToString(report.equiv_hits);
  properties["canonicalized_plans"] = Int64ToString(report.canonicalized_plans);
  properties["mispredictions"] = Int64ToString(report.mispredictions);
  properties["cache_evictions"] = Int64ToString(report.cache_evictions);
  properties["coupling_runs"] = Int64ToString(report.coupling_runs);
  properties["coupling_confirmations"] =
      Int64ToString(report.coupling_confirmations);
  properties["units_skipped"] = Int64ToString(report.units_skipped);
  properties["hung_workers"] = Int64ToString(report.hung_workers);
  properties["requeued_units"] = Int64ToString(report.requeued_units);
  properties["resumed_units"] = Int64ToString(report.resumed_units);
  properties["cache_load_failures"] = Int64ToString(report.cache_load_failures);
  properties["journal_append_failures"] =
      Int64ToString(report.journal_append_failures);
  properties["agent_disconnects"] = Int64ToString(report.agent_disconnects);
  properties["expired_leases"] = Int64ToString(report.expired_leases);
  properties["duplicate_results"] = Int64ToString(report.duplicate_results);
  if (!report.poisoned_units.empty()) {
    properties["poisoned_units"] = StrJoin(report.poisoned_units, ",");
  }
  properties["runs_to_first_detection"] = Int64ToString(report.runs_to_first_detection);
  if (!report.first_detection_param.empty()) {
    properties["first_detection_param"] = report.first_detection_param;
  }
  properties["run_count"] = Int64ToString(
      static_cast<int64_t>(report.run_durations_seconds.size()));
  double total_run_seconds = 0;
  for (double duration : report.run_durations_seconds) {
    total_run_seconds += duration;
  }
  properties["run_seconds_total"] = DoubleToString(total_run_seconds);
  return RenderProperties(properties);
}

CampaignReport DeserializeReport(const std::string& text) {
  std::map<std::string, std::string> properties = ParseProperties(text);
  CampaignReport report;

  for (const std::string& app : StrSplit(GetOr(properties, "apps", ""), ',')) {
    if (app.empty()) {
      continue;
    }
    std::string prefix = "app." + app + ".";
    AppStageCounts counts;
    counts.original = RequireInt(properties, prefix + "original");
    counts.after_prerun = RequireInt(properties, prefix + "after_prerun");
    counts.after_uncertainty = RequireInt(properties, prefix + "after_uncertainty");
    counts.executed_runs = RequireInt(properties, prefix + "executed_runs");
    counts.tests_total = static_cast<int>(RequireInt(properties, prefix + "tests_total"));
    counts.tests_with_nodes =
        static_cast<int>(RequireInt(properties, prefix + "tests_with_nodes"));
    // Absent in pre-zebralint serializations: no static prior means the
    // static stage equals the original enumeration.
    int64_t after_static = counts.original;
    ParseInt64(GetOr(properties, prefix + "after_static",
                     Int64ToString(counts.original)),
               &after_static);
    counts.after_static = after_static;
    report.per_app[app] = counts;

    std::string sharing_prefix = "sharing." + app + ".";
    if (properties.count(sharing_prefix + "with_conf_usage") > 0) {
      SharingStats sharing;
      sharing.tests_with_conf_usage = static_cast<int>(
          RequireInt(properties, sharing_prefix + "with_conf_usage"));
      sharing.tests_with_sharing = static_cast<int>(
          RequireInt(properties, sharing_prefix + "with_sharing"));
      report.sharing[app] = sharing;
    }
  }

  for (const std::string& param : StrSplit(GetOr(properties, "findings", ""), ',')) {
    if (param.empty()) {
      continue;
    }
    std::string prefix = "finding." + param + ".";
    ParamFinding finding;
    finding.param = param;
    finding.owning_app = GetOr(properties, prefix + "app", "unknown");
    double p_value = 1.0;
    ParseDouble(GetOr(properties, prefix + "p_value", "1"), &p_value);
    finding.best_p_value = p_value;
    for (const std::string& witness :
         StrSplit(GetOr(properties, prefix + "witnesses", ""), ',')) {
      if (!witness.empty()) {
        finding.witness_tests.insert(witness);
      }
    }
    finding.example_failure =
        UnescapeReportText(GetOr(properties, prefix + "failure", ""));
    report.findings[param] = std::move(finding);
  }

  report.first_trial_candidates =
      static_cast<int>(RequireInt(properties, "first_trial_candidates"));
  report.filtered_by_hypothesis =
      static_cast<int>(RequireInt(properties, "filtered_by_hypothesis"));
  report.total_unit_test_runs = RequireInt(properties, "total_unit_test_runs");
  double wall = 0;
  ParseDouble(GetOr(properties, "wall_seconds", "0"), &wall);
  report.wall_seconds = wall;
  ParseInt64(GetOr(properties, "cache_hits", "0"), &report.cache_hits);
  ParseInt64(GetOr(properties, "cache_misses", "0"), &report.cache_misses);
  // Absent in pre-equivalence serializations: the layer did not exist.
  ParseInt64(GetOr(properties, "equiv_hits", "0"), &report.equiv_hits);
  ParseInt64(GetOr(properties, "canonicalized_plans", "0"),
             &report.canonicalized_plans);
  ParseInt64(GetOr(properties, "mispredictions", "0"), &report.mispredictions);
  ParseInt64(GetOr(properties, "cache_evictions", "0"), &report.cache_evictions);
  // Absent in pre-coupling serializations.
  ParseInt64(GetOr(properties, "coupling_runs", "0"), &report.coupling_runs);
  ParseInt64(GetOr(properties, "coupling_confirmations", "0"),
             &report.coupling_confirmations);
  ParseInt64(GetOr(properties, "units_skipped", "0"), &report.units_skipped);
  // Absent in pre-fault-tolerance serializations.
  ParseInt64(GetOr(properties, "hung_workers", "0"), &report.hung_workers);
  ParseInt64(GetOr(properties, "requeued_units", "0"), &report.requeued_units);
  ParseInt64(GetOr(properties, "resumed_units", "0"), &report.resumed_units);
  ParseInt64(GetOr(properties, "cache_load_failures", "0"),
             &report.cache_load_failures);
  ParseInt64(GetOr(properties, "journal_append_failures", "0"),
             &report.journal_append_failures);
  // Absent in pre-fabric serializations.
  ParseInt64(GetOr(properties, "agent_disconnects", "0"),
             &report.agent_disconnects);
  ParseInt64(GetOr(properties, "expired_leases", "0"), &report.expired_leases);
  ParseInt64(GetOr(properties, "duplicate_results", "0"),
             &report.duplicate_results);
  for (const std::string& unit :
       StrSplit(GetOr(properties, "poisoned_units", ""), ',')) {
    if (!unit.empty()) {
      report.poisoned_units.push_back(unit);
    }
  }
  ParseInt64(GetOr(properties, "runs_to_first_detection", "0"),
             &report.runs_to_first_detection);
  report.first_detection_param = GetOr(properties, "first_detection_param", "");

  // Run durations are summarized: reconstruct a flat profile so downstream
  // fleet estimates stay usable.
  int64_t run_count = RequireInt(properties, "run_count");
  double run_seconds_total = 0;
  ParseDouble(GetOr(properties, "run_seconds_total", "0"), &run_seconds_total);
  if (run_count > 0) {
    report.run_durations_seconds.assign(
        static_cast<size_t>(run_count),
        run_seconds_total / static_cast<double>(run_count));
  }
  return report;
}

}  // namespace zebra
