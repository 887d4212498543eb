#include "src/testkit/test_execution.h"

#include <unistd.h>

#include <atomic>
#include <chrono>

#include "src/common/logging.h"
#include "src/conf/plan_equiv.h"
#include "src/testkit/run_cache.h"

namespace zebra {

namespace {
// Thread-local: each worker thread owns its installation window.
thread_local std::vector<double>* g_duration_collector = nullptr;
// Process-wide bench knob, set before any worker starts; atomic so worker
// threads may read it while a bench harness toggles between regimes.
std::atomic<int64_t> g_synthetic_run_latency_us{0};
}  // namespace

void SetRunDurationCollector(std::vector<double>* collector) {
  g_duration_collector = collector;
}

void SetSyntheticRunLatencyUs(int64_t micros) {
  g_synthetic_run_latency_us.store(micros < 0 ? 0 : micros,
                                   std::memory_order_relaxed);
}

int64_t SyntheticRunLatencyUs() {
  return g_synthetic_run_latency_us.load(std::memory_order_relaxed);
}

namespace {

// Executes `test` once under `plan` (no cache consulted) and fills `result`,
// including whether the body consulted its trial.
void Execute(const UnitTestDef& test, const TestPlan& plan, uint64_t trial,
             SessionRecording recording, TestResult* result) {
  auto start = std::chrono::steady_clock::now();
  if (int64_t latency_us = SyntheticRunLatencyUs(); latency_us > 0) {
    ::usleep(static_cast<useconds_t>(latency_us));
  }
  // Fold the plan into the trial seed: in a real system, nondeterminism is
  // independent across runs with different configurations; re-running the
  // same (test, plan, trial) triple stays reproducible.
  uint64_t effective_trial = HashCombine(trial, plan.DescribeSeed());
  ConfAgentSession session(&plan, recording);
  TestContext context(test.id, effective_trial);
  try {
    test.body(context);
    result->passed = true;
  } catch (const std::exception& e) {
    result->passed = false;
    result->failure = e.what();
    ZLOG_DEBUG << test.id << " failed: " << e.what();
  }
  result->report = session.End();
  result->trial_sensitive = context.TrialSensitive();
  if (g_duration_collector != nullptr) {
    g_duration_collector->push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
}

}  // namespace

std::shared_ptr<const TestResult> RunUnitTestShared(const UnitTestDef& test,
                                                    const TestPlan& plan,
                                                    uint64_t trial) {
  // Two distinct identities: DescribeSeed() (the hash of Describe()) seeds
  // the per-trial RNG (stable by contract — changing it would re-roll seeded
  // nondeterminism campaign-wide), while Fingerprint() additionally covers
  // extra_overrides and is the cache identity, so plans differing only in
  // dependency overrides never alias. Both are memoized on the plan, so a
  // caller re-running the same plan object pays for them once — and the
  // fingerprint is rendered only when a cache is installed to key by it.
  //
  // Memoization: identical (test, plan, trial) triples are reproducible by
  // construction, so a cached result is exactly what a fresh execution would
  // return. Cache hits record no duration — nothing actually ran. With a
  // pre-run ReadSurface installed, the lookup of a heterogeneous plan
  // extends to observationally equivalent plans (see run_cache.h for the
  // validation contract). The empty plan stays on its exact keys, which
  // only whole-session entries hold.
  RunCache* cache = GlobalRunCache();
  RunQuery query;
  if (cache != nullptr) {
    if (const ReadSurface* surface = GlobalReadSurface();
        surface != nullptr && surface->usable() && !plan.empty()) {
      query.surface = surface;
      query.plan = &plan;
    }
    // Shared lookup: the payload's ownership is shared out under the cache
    // lock, so the result stays valid past any other worker's insert without
    // a deep copy.
    if (std::shared_ptr<const TestResult> cached =
            cache->LookupShared(test.id, plan.Fingerprint(), trial, &query)) {
      return cached;
    }
  }

  // Record the session only where it is read: the empty-plan pre-run feeds
  // test generation and the read surface; a heterogeneous run's trace is
  // read only by equivalence lookups, which need a surface. Every other run
  // is judged on passed/failure alone.
  SessionRecording recording = SessionRecording::kVerdictOnly;
  if (plan.empty()) {
    recording = SessionRecording::kFull;
  } else if (query.surface != nullptr) {
    recording = SessionRecording::kTraceOnly;
  }
  auto result = std::make_shared<TestResult>();
  Execute(test, plan, trial, recording, result.get());
  if (cache != nullptr) {
    std::string observed_trace = ObservedTraceText(result->report);
    if (!plan.empty()) {
      // Compact entry: the joined text is the trace the cache keeps.
      result->report.trace_elements.clear();
    }
    // The cache shares this exact payload across its key aliases — the
    // insert allocates no TestResult copy — and takes the joined trace over.
    cache->Insert(test.id, plan.Fingerprint(), trial,
                  /*trial_insensitive=*/!result->trial_sensitive, result,
                  &query, std::move(observed_trace));
  }
  return result;
}

TestResult RunUnitTest(const UnitTestDef& test, const TestPlan& plan, uint64_t trial) {
  if (plan.empty() && GlobalRunCache() != nullptr) {
    return *RunUnitTestShared(test, plan, trial);  // the pre-run, kept whole
  }
  TestResult result;
  Execute(test, plan, trial, SessionRecording::kFull, &result);
  return result;
}

}  // namespace zebra
