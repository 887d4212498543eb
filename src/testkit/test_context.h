// TestContext and TestFailure: the execution context handed to every corpus
// unit test.
//
// A corpus test is the analog of a JUnit whole-system test: it builds a
// mini-cluster, drives it, and asserts on observable state. Assertions throw
// TestFailure; application errors (zebra::Error subclasses) escape the body
// directly. The harness converts either into a failed TestResult.
//
// Nondeterminism is injected exclusively through the per-trial RNG, seeded
// from (test id, trial number): the same trial of the same test always
// behaves identically, while different trials of a flaky test vary — which is
// what TestRunner's hypothesis testing needs to observe.

#ifndef SRC_TESTKIT_TEST_CONTEXT_H_
#define SRC_TESTKIT_TEST_CONTEXT_H_

#include <string>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/runtime/cluster.h"

namespace zebra {

class TestFailure : public Error {
 public:
  explicit TestFailure(const std::string& message)
      : Error("AssertionFailed: " + message) {}
};

class TestContext {
 public:
  TestContext(std::string test_id, uint64_t trial)
      : test_id_(std::move(test_id)),
        trial_(trial),
        rng_(HashCombine(Fnv1a64(test_id_), trial)) {}

  TestContext(const TestContext&) = delete;
  TestContext& operator=(const TestContext&) = delete;

  const std::string& test_id() const { return test_id_; }
  uint64_t trial() const {
    trial_observed_ = true;
    return trial_;
  }

  // True if this execution could depend on the trial number: the body either
  // drew from the per-trial RNG or read trial() directly. When false, the
  // result stands for every trial of the same (test, plan): TestRunner and
  // the run cache reuse it instead of executing again.
  bool TrialSensitive() const { return trial_observed_ || rng_.draws() > 0; }

  Cluster& cluster() { return cluster_; }
  Rng& rng() { return rng_; }

  void Check(bool condition, const std::string& message) const {
    if (!condition) {
      throw TestFailure(test_id_ + ": " + message);
    }
  }

  template <typename A, typename B>
  void CheckEq(const A& actual, const B& expected, const std::string& what) const {
    if (!(actual == expected)) {
      throw TestFailure(test_id_ + ": " + what + " (actual " + ToText(actual) +
                        ", expected " + ToText(expected) + ")");
    }
  }

  // Fails this trial with probability `p` (the seeded-flaky-test helper).
  void MaybeFlakyFail(double p, const std::string& message) {
    if (rng_.NextBool(p)) {
      throw TestFailure(test_id_ + ": " + message);
    }
  }

 private:
  template <typename T>
  static std::string ToText(const T& value) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(value);
    } else {
      return std::to_string(value);
    }
  }

  std::string test_id_;
  uint64_t trial_;
  mutable bool trial_observed_ = false;
  Cluster cluster_;
  Rng rng_;
};

}  // namespace zebra

#endif  // SRC_TESTKIT_TEST_CONTEXT_H_
