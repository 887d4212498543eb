// TestRunner (paper §5): decides whether one generated instance demonstrates
// a heterogeneous-unsafe parameter.
//
// Definition 3.1 operationally: the instance is a *candidate* if its
// heterogeneous configuration fails while every corresponding homogeneous
// configuration passes (first trial). Candidates then go through multi-trial
// hypothesis testing — a one-sided Fisher exact test at the configured
// significance level (the paper's 0.0001) — to filter nondeterministic
// failures. Extra trials run only for candidates, exactly as in §5.
//
// A trial whose outcome is already known is answered without executing:
// Verify keeps the latest result of its heterogeneous plan and of each
// homogeneous control, and a result that never consulted its trial
// (TestResult::trial_sensitive false) is the outcome of every later trial of
// that plan. The caller may also hand in the heterogeneous plan's trial-0
// result it already holds. Answered trials still count as executions: the
// verdict, its trial counts and Table-5 accounting are exactly those of
// executing every trial; only real executions and their durations drop.

#ifndef SRC_CORE_TEST_RUNNER_H_
#define SRC_CORE_TEST_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/test_generator.h"

namespace zebra {

struct Verdict {
  enum class Kind {
    kNotCandidate,     // hetero passed, or some homogeneous control failed
    kFilteredFlaky,    // candidate, but hypothesis testing rejected it
    kConfirmedUnsafe,  // candidate, statistically significant
  };

  Kind kind = Verdict::Kind::kNotCandidate;
  double p_value = 1.0;
  int hetero_failures = 0;
  int hetero_trials = 0;
  int homo_failures = 0;
  int homo_trials = 0;
  std::string witness_failure;  // first hetero failure message
};

class TestRunner {
 public:
  // `first_trials` is the §5 false-negative mitigation: "to reduce false
  // negatives, a developer would need to run the test instances multiple
  // times". The heterogeneous configuration is tried up to `first_trials`
  // times before being dismissed as passing (default 1, as in the paper's
  // time-saving mode).
  explicit TestRunner(double significance = 1e-4, int first_trials = 1);

  // Verifies one instance. Every logical unit-test run, executed or answered
  // from a known result, increments *executions. `first_hetero`, when set, is
  // the result of the heterogeneous plan (the instance's plan alone) at trial
  // 0 — bisection's failing one-instance pool is exactly that run — and
  // stands in for the first heterogeneous trial.
  Verdict Verify(const GeneratedInstance& instance, int64_t* executions,
                 std::shared_ptr<const TestResult> first_hetero = nullptr) const;

 private:
  TestPlan HeteroPlan(const GeneratedInstance& instance) const;
  TestPlan HomoPlan(const GeneratedInstance& instance, const std::string& value) const;

  double significance_;
  int first_trials_;
  int max_rounds_;
};

}  // namespace zebra

#endif  // SRC_CORE_TEST_RUNNER_H_
