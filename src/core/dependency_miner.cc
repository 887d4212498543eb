#include "src/core/dependency_miner.h"

#include <map>
#include <set>

#include "src/testkit/test_execution.h"

namespace zebra {

DependencyMiner::DependencyMiner(const ConfSchema& schema,
                                 const UnitTestRegistry& corpus)
    : schema_(schema), corpus_(corpus) {}

std::vector<MinedRule> DependencyMiner::MineParam(const std::string& app,
                                                  const ParamSpec& spec,
                                                  int64_t* executions) const {
  // For each candidate value, the union of parameters read across the app's
  // unit tests when the value is applied homogeneously.
  std::map<std::string, std::set<std::string>> reads_by_value;
  for (const std::string& value : spec.test_values) {
    TestPlan plan;
    ParamPlan param_plan;
    param_plan.param = spec.name;
    param_plan.assigner = ValueAssigner::Homogeneous(value);
    plan.Add(param_plan);

    std::set<std::string>& reads = reads_by_value[value];
    for (const UnitTestDef* test : corpus_.ForApp(app)) {
      // The recording entry point: a homogeneous run's read map is the
      // whole point here.
      const TestResult result = RunUnitTest(*test, plan, /*trial=*/0);
      if (executions != nullptr) {
        ++*executions;
      }
      for (const std::string& read : result.report.AllParamsRead()) {
        reads.insert(read);
      }
    }
  }

  // A parameter read under exactly one value is that value's dependency.
  std::vector<MinedRule> rules;
  for (const auto& [value, reads] : reads_by_value) {
    for (const std::string& candidate : reads) {
      if (candidate == spec.name) {
        continue;
      }
      bool exclusive = true;
      for (const auto& [other_value, other_reads] : reads_by_value) {
        if (other_value != value && other_reads.count(candidate) > 0) {
          exclusive = false;
          break;
        }
      }
      if (exclusive) {
        rules.push_back(MinedRule{spec.name, value, candidate});
      }
    }
  }
  return rules;
}

std::vector<MinedRule> DependencyMiner::MineApp(const std::string& app,
                                                int64_t* executions) const {
  std::vector<MinedRule> rules;
  for (const ParamSpec* spec : schema_.ParamsForApp(app)) {
    if (spec->type != ParamType::kEnum) {
      continue;  // value-conditional reads are an enum phenomenon
    }
    std::vector<MinedRule> mined = MineParam(app, *spec, executions);
    rules.insert(rules.end(), mined.begin(), mined.end());
  }
  return rules;
}

void DependencyMiner::InstallRules(const std::vector<MinedRule>& rules,
                                   ConfSchema& schema) {
  for (const MinedRule& rule : rules) {
    const ParamSpec* dep = schema.Find(rule.dep_param);
    if (dep != nullptr) {
      schema.AddDependencyRule(rule.param, rule.value, rule.dep_param,
                               dep->default_value);
    }
  }
}

}  // namespace zebra
