// RunUnitTest: executes one corpus unit test under a ConfAgent session with a
// given test plan, converting assertion failures and application errors into
// a TestResult (the atomic operation everything in the ZebraConf pipeline is
// built from).

#ifndef SRC_TESTKIT_TEST_EXECUTION_H_
#define SRC_TESTKIT_TEST_EXECUTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/conf/conf_agent.h"
#include "src/conf/test_plan.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {

struct TestResult {
  bool passed = false;
  // Whether the run consulted its trial (TestContext::TrialSensitive). When
  // false, every trial of the same (test, plan) has this outcome, so callers
  // may answer later trials from it instead of executing them (TestRunner
  // does, as does the run cache's trial-wildcard key). True by default, so a
  // result no execution produced in this process is not reused across trials
  // unless its origin proves it may be: a cache file's record under a
  // wildcard, canonical or trace key loads false (see RunCache::LoadFromFile).
  bool trial_sensitive = true;
  std::string failure;    // first failure message (empty when passed)
  SessionReport report;   // what ConfAgent observed (see the entry points)
};

// Runs `test` with `plan` injected through ConfAgent. `trial` seeds the
// test-local RNG, so re-running with a different trial re-rolls any seeded
// nondeterminism. Exactly one execution may run at a time (ConfAgent sessions
// are serialized). The plan is borrowed for the duration of the call and not
// mutated. Always records: `report` carries the full read map and trace, so
// callers that inspect what a run read (pre-runs, dependency mining) use this.
// Under a run cache the empty plan goes through RunUnitTestShared, whose
// entries for it keep the whole session; any other plan executes and records
// here without consulting the cache, whose entries for it keep less.
TestResult RunUnitTest(const UnitTestDef& test, const TestPlan& plan, uint64_t trial);

// Allocation-lean variant: a run-cache hit returns the cached payload by
// refcount bump (no TestResult deep copy), and a real execution's result is
// inserted into the cache and returned through the same shared payload. The
// pointee is immutable and safe to share across threads; it is never null.
// Campaign hot paths that only inspect `passed`/`failure` use this. They ask
// only for outcomes they do not hold yet: TestRunner::Verify answers a later
// trial of a plan from its trial-insensitive result and takes bisection's
// failing one-instance run as its first heterogeneous trial, so such repeats
// neither execute nor consult the cache.
//
// Records only what a reader needs (conf_agent.h, "Recording"):
//   * the empty plan records everything: it is the pre-run TestGenerator and
//     the read surface consume, and under a cache its entry keeps the whole
//     session for re-dispatched units and warm starts;
//   * a heterogeneous run with a cache and a usable ReadSurface installed
//     records its trace only, which the cache joins into the observed-trace
//     key it indexes and validates the run by;
//   * every other run, cached runs with no surface included (no lookup can
//     match their trace), keeps just its verdict.
// A heterogeneous result therefore never carries `report.reads`,
// `uncertain_params` or `trace_elements`: the cache keeps a trace-only run's
// trace as the joined text alone, and the returned payload is the entry's.
// Counters and flags are kept in every mode.
std::shared_ptr<const TestResult> RunUnitTestShared(const UnitTestDef& test,
                                                    const TestPlan& plan,
                                                    uint64_t trial);

// Installs a collector that receives the wall-clock duration (seconds) of
// every subsequent *real* RunUnitTest execution (run-cache hits, and trials a
// caller answers from a result it holds, execute nothing and record nothing);
// pass nullptr to uninstall. Used by the campaign to feed the fleet cost
// model, and by tests to count real executions.
//
// Ownership and thread model: the collector pointer is thread-local state.
// Exactly one campaign engine per thread may install it at a time, and the
// installer must uninstall (nullptr) before the pointed-to vector dies.
// Campaign::RunUnit installs a collector scoped to the work unit it is
// executing, so fleet-model inputs are per-run-accurate on every worker
// thread and in every fabric agent.
void SetRunDurationCollector(std::vector<double>* collector);

// Simulated per-run harness latency, in microseconds (default 0 = off).
// The paper's unit-test runs cost seconds of wall-clock each, dominated by
// harness waits (startup, RPC timeouts) rather than CPU; our miniature runs
// cost microseconds. Benchmarks set a nonzero latency to restore the paper's
// cost shape — every *real* execution sleeps this long inside its timed
// window, while run-cache hits (which execute nothing) skip it. Sleeping
// (not spinning) is deliberate: it models waits, which parallel worker
// processes overlap even on a single CPU, exactly as the paper's containers
// overlap I/O-bound test runs. Process-global; spawned fabric agents inherit
// the value set before the fork. Never set this in correctness tests.
void SetSyntheticRunLatencyUs(int64_t micros);
int64_t SyntheticRunLatencyUs();

}  // namespace zebra

#endif  // SRC_TESTKIT_TEST_EXECUTION_H_
