#include "src/core/test_runner.h"

#include "src/common/stats.h"

namespace zebra {

TestRunner::TestRunner(double significance, int first_trials)
    : significance_(significance),
      first_trials_(first_trials < 1 ? 1 : first_trials),
      max_rounds_(static_cast<int>(MinTrialsForSignificance(significance)) + 3) {}

TestPlan TestRunner::HeteroPlan(const GeneratedInstance& instance) const {
  TestPlan plan;
  plan.Add(instance.plan);
  return plan;
}

TestPlan TestRunner::HomoPlan(const GeneratedInstance& instance,
                              const std::string& value) const {
  TestPlan plan;
  ParamPlan homo = instance.plan;
  homo.assigner = ValueAssigner::Homogeneous(value);
  plan.Add(std::move(homo));
  return plan;
}

namespace {

// One plan Verify runs over several trials, with its latest result.
struct PlanTrials {
  TestPlan plan;
  std::shared_ptr<const TestResult> last;
  uint64_t last_trial = 0;
};

}  // namespace

Verdict TestRunner::Verify(const GeneratedInstance& instance, int64_t* executions,
                           std::shared_ptr<const TestResult> first_hetero) const {
  Verdict verdict;
  const std::vector<std::string> values = instance.plan.assigner.DistinctValues();

  // Plans are built once and reused across every trial below, so the
  // memoized fingerprint/seed on each plan is computed exactly once per
  // verification instead of once per run.
  PlanTrials hetero{HeteroPlan(instance), std::move(first_hetero), 0};
  std::vector<PlanTrials> homos;
  homos.reserve(values.size());
  for (const std::string& value : values) {
    homos.push_back(PlanTrials{HomoPlan(instance, value), nullptr, 0});
  }

  // One logical run: executed unless the plan's latest result already is
  // this trial's outcome — the same trial, or a run that never consulted its
  // trial (the whole nondeterminism of a run is its per-trial RNG).
  auto run = [&](PlanTrials& runs, uint64_t trial) -> const TestResult& {
    ++*executions;
    if (runs.last == nullptr ||
        (runs.last->trial_sensitive && runs.last_trial != trial)) {
      runs.last = RunUnitTestShared(*instance.test, runs.plan, trial);
      runs.last_trial = trial;
    }
    return *runs.last;
  };

  // First trial(s): heterogeneous runs. With first_trials_ > 1 a
  // nondeterministic heterogeneous failure gets several chances to manifest
  // (the §5 false-negative mitigation).
  bool hetero_failed_once = false;
  for (int attempt = 0; attempt < first_trials_; ++attempt) {
    const TestResult& result = run(hetero, static_cast<uint64_t>(attempt));
    ++verdict.hetero_trials;
    if (!result.passed) {
      hetero_failed_once = true;
      ++verdict.hetero_failures;
      verdict.witness_failure = result.failure;
      break;
    }
  }
  if (!hetero_failed_once) {
    return verdict;  // kNotCandidate
  }

  // First trial: every corresponding homogeneous configuration must pass,
  // otherwise the failure cannot be attributed to heterogeneity.
  for (PlanTrials& homo : homos) {
    ++verdict.homo_trials;
    if (!run(homo, 0).passed) {
      ++verdict.homo_failures;
      return verdict;  // kNotCandidate
    }
  }

  // Candidate: multi-trial hypothesis testing. Runs stop as soon as the
  // Fisher exact test reaches significance.
  for (int round = 1; round <= max_rounds_; ++round) {
    // Trial numbers continue past the first-trial attempts so every run rolls
    // fresh nondeterminism.
    uint64_t trial = static_cast<uint64_t>(first_trials_ + round);
    const TestResult& extra_hetero = run(hetero, trial);
    ++verdict.hetero_trials;
    if (!extra_hetero.passed) {
      ++verdict.hetero_failures;
      if (verdict.witness_failure.empty()) {
        verdict.witness_failure = extra_hetero.failure;
      }
    }
    for (PlanTrials& homo : homos) {
      ++verdict.homo_trials;
      if (!run(homo, trial).passed) {
        ++verdict.homo_failures;
      }
    }
    verdict.p_value =
        FisherExactOneSided(verdict.hetero_failures, verdict.hetero_trials,
                            verdict.homo_failures, verdict.homo_trials);
    if (verdict.p_value < significance_) {
      verdict.kind = Verdict::Kind::kConfirmedUnsafe;
      return verdict;
    }
    // Early abort: if even a perfect remainder (every future hetero trial
    // failing, every future homo trial passing) cannot reach significance,
    // the candidate is already filtered — no need to burn more trials.
    int64_t remaining = max_rounds_ - round;
    double optimistic = FisherExactOneSided(
        verdict.hetero_failures + remaining, verdict.hetero_trials + remaining,
        verdict.homo_failures,
        verdict.homo_trials + remaining * static_cast<int64_t>(values.size()));
    if (optimistic >= significance_) {
      break;
    }
  }

  verdict.kind = Verdict::Kind::kFilteredFlaky;
  return verdict;
}

}  // namespace zebra
