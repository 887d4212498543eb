// Tests for the in-process thread-pool scheduler. The determinism contract
// is the one every backend carries — findings, Table-5 stage counts, and
// runs_to_first_detection bitwise-identical to the sequential campaign at
// every thread count — plus the thread-specific surfaces: the shared
// cross-worker run cache, the thread mapping of injected faults, and
// journal/resume without forks.

#include "src/core/thread_pool_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/conf/plan_equiv.h"
#include "src/core/distributed_campaign.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/run_cache.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

// Full structural equality against the sequential reference. Durations and
// wall-clock are timing, not results; cache counters are scheduling-dependent
// accounting — neither is compared.
void ExpectIdenticalResults(const CampaignReport& actual,
                            const CampaignReport& expected,
                            const std::string& label) {
  SCOPED_TRACE(label);

  ASSERT_EQ(actual.per_app.size(), expected.per_app.size());
  for (const auto& [app, counts] : expected.per_app) {
    ASSERT_TRUE(actual.per_app.count(app) > 0) << app;
    const AppStageCounts& got = actual.per_app.at(app);
    EXPECT_EQ(got.original, counts.original) << app;
    EXPECT_EQ(got.after_static, counts.after_static) << app;
    EXPECT_EQ(got.after_prerun, counts.after_prerun) << app;
    EXPECT_EQ(got.after_uncertainty, counts.after_uncertainty) << app;
    EXPECT_EQ(got.executed_runs, counts.executed_runs) << app;
    EXPECT_EQ(got.tests_total, counts.tests_total) << app;
    EXPECT_EQ(got.tests_with_nodes, counts.tests_with_nodes) << app;
  }

  ASSERT_EQ(actual.sharing.size(), expected.sharing.size());
  for (const auto& [app, sharing] : expected.sharing) {
    ASSERT_TRUE(actual.sharing.count(app) > 0) << app;
    EXPECT_EQ(actual.sharing.at(app).tests_with_conf_usage,
              sharing.tests_with_conf_usage)
        << app;
    EXPECT_EQ(actual.sharing.at(app).tests_with_sharing, sharing.tests_with_sharing)
        << app;
  }

  ASSERT_EQ(actual.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(actual.findings.count(param) > 0) << param;
    const ParamFinding& got = actual.findings.at(param);
    EXPECT_EQ(got.owning_app, finding.owning_app) << param;
    EXPECT_EQ(got.witness_tests, finding.witness_tests) << param;
    EXPECT_EQ(got.example_failure, finding.example_failure) << param;
    EXPECT_EQ(got.best_p_value, finding.best_p_value) << param;
  }

  EXPECT_EQ(actual.first_trial_candidates, expected.first_trial_candidates);
  EXPECT_EQ(actual.filtered_by_hypothesis, expected.filtered_by_hypothesis);
  EXPECT_EQ(actual.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(actual.runs_to_first_detection, expected.runs_to_first_detection);
  EXPECT_EQ(actual.first_detection_param, expected.first_detection_param);
}

TEST(ThreadPoolSchedulerTest, BitwiseIdenticalToSequentialAtEveryThreadCount) {
  CampaignOptions options;  // all apps: exercises cross-unit frequent-failure
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  ASSERT_GT(expected.findings.size(), 0u);
  ASSERT_GT(expected.runs_to_first_detection, 0);

  for (int workers : {1, 2, 4, 6}) {
    CampaignReport pooled =
        RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, workers);
    ExpectIdenticalResults(pooled, expected,
                           "workers=" + std::to_string(workers));
  }
}

TEST(ThreadPoolSchedulerTest, SharedRunCacheDoesNotChangeResultsAndRecordsHits) {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  ASSERT_EQ(expected.cache_hits, 0);

  CampaignOptions cached_options = options;
  cached_options.enable_run_cache = true;
  CampaignReport cached = RunThreadPoolCampaign(FullSchema(), FullCorpus(),
                                                cached_options, /*workers=*/4);
  ExpectIdenticalResults(cached, expected, "shared cache enabled");
  EXPECT_GT(cached.cache_hits, 0);
  EXPECT_GT(cached.cache_misses, 0);
}

TEST(ThreadPoolSchedulerTest, EquivCacheBitwiseIdenticalAtEveryThreadCount) {
  // The strongest cache contract: equivalence-layer serves across different
  // plans, shared across workers, and the no-cache sequential reference must
  // still match bitwise at every thread count.
  CampaignOptions options;  // all apps
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  ASSERT_GT(expected.findings.size(), 0u);

  CampaignOptions equiv_options = options;
  equiv_options.enable_run_cache = true;
  equiv_options.enable_equiv_cache = true;

  for (int workers : {1, 2, 4, 6}) {
    CampaignReport pooled = RunThreadPoolCampaign(FullSchema(), FullCorpus(),
                                                  equiv_options, workers);
    ExpectIdenticalResults(pooled, expected,
                           "equiv workers=" + std::to_string(workers));
  }
}

TEST(ThreadPoolSchedulerTest, EquivCacheBitwiseIdenticalUnprunedRegime) {
  // The regime where the layer actually collapses whole equivalence classes
  // (generation without pre-run read pruning): most plans differ only in
  // override entries no targeted conf reads, and the cache must dedup them
  // without moving a single finding.
  CampaignOptions options;
  options.apps = {"minikv", "ministream", "apptools"};
  options.prune_unread_instances = false;
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  ASSERT_GT(expected.findings.size(), 0u);

  CampaignOptions equiv_options = options;
  equiv_options.enable_run_cache = true;
  equiv_options.enable_equiv_cache = true;

  Campaign seq_equiv(FullSchema(), FullCorpus(), equiv_options);
  CampaignReport sequential_equiv = seq_equiv.Run();
  ExpectIdenticalResults(sequential_equiv, expected, "sequential equiv unpruned");
  EXPECT_GT(sequential_equiv.equiv_hits, 0);

  for (int workers : {2, 4}) {
    CampaignReport pooled = RunThreadPoolCampaign(FullSchema(), FullCorpus(),
                                                  equiv_options, workers);
    ExpectIdenticalResults(pooled, expected,
                           "equiv unpruned workers=" + std::to_string(workers));
  }
}

TEST(ThreadPoolSchedulerTest, OneWorkerSpendsTheSequentialCacheLookups) {
  // With one worker every earlier unit is folded or delivered when a unit is
  // dispatched, so its projected snapshot is the exact sequential set: no
  // attempt is discarded, and the worker asks the cache exactly what the
  // sequential engine asks (runs the verifier answers itself ask nothing):
  // 2 hits, 1,512 misses and 41 equivalence hits over the 2,894 logical
  // runs. The per-record synced journal slows the fold, so the worker
  // routinely dispatches before the previous unit is folded; a snapshot of
  // the folded prefix alone would then miss its confirmations and waste
  // re-runs.
  CampaignOptions options;  // all apps
  options.enable_run_cache = true;
  options.enable_equiv_cache = true;
  ThreadPoolCampaignOptions pool;
  pool.workers = 1;
  pool.journal_path = ::testing::TempDir() + "/threadpool_one_worker.zj";
  pool.journal_sync_batch = 1;
  CampaignReport pooled =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool);
  const CampaignReport sequential = Campaign(FullSchema(), FullCorpus(), options).Run();
  EXPECT_EQ(pooled.cache_hits + pooled.cache_misses + pooled.equiv_hits,
            sequential.cache_hits + sequential.cache_misses + sequential.equiv_hits);
  EXPECT_EQ(sequential.cache_hits + sequential.cache_misses + sequential.equiv_hits,
            1555);
}

TEST(ThreadPoolSchedulerTest, SequentialEquivCountersArePinnedInBothRegimes) {
  // The sequential cache + equivalence campaign's four cache counters, with
  // and without pre-run read pruning, and its findings against the uncached
  // campaign of the same regime. The trace index (its full-trace key and
  // restriction matching) serves every equivalence hit: a run it stores is
  // indexed under its observed trace, which a later plan's prediction
  // reproduces exactly when the stored run is the one that plan would make.
  struct Regime {
    bool prune;
    int64_t hits;
    int64_t misses;
    int64_t equiv_hits;
    int64_t mispredictions;
  };
  for (const Regime& regime : {Regime{true, 2, 1512, 41, 283},
                               Regime{false, 29, 2245, 805, 476}}) {
    CampaignOptions options;  // all apps
    options.prune_unread_instances = regime.prune;
    const CampaignReport expected =
        Campaign(FullSchema(), FullCorpus(), options).Run();
    options.enable_run_cache = true;
    options.enable_equiv_cache = true;
    const CampaignReport report =
        Campaign(FullSchema(), FullCorpus(), options).Run();
    const std::string label = regime.prune ? "pruned" : "unpruned";
    ExpectIdenticalResults(report, expected, label);
    EXPECT_EQ(report.cache_hits, regime.hits) << label;
    EXPECT_EQ(report.cache_misses, regime.misses) << label;
    EXPECT_EQ(report.equiv_hits, regime.equiv_hits) << label;
    EXPECT_EQ(report.mispredictions, regime.mispredictions) << label;
  }
}

TEST(ThreadPoolSchedulerTest, BenchmarkConfigurationBitwiseIdenticalAcrossOrders) {
  // The benchmark's pool configuration (3 workers, shared cache and
  // equivalence layer, journal synced every record) under app orders its
  // seeds make (sorted, or shuffled by mt19937_64 seeded with the seed) and
  // every frequent-failure threshold that couples units differently.
  std::vector<std::string> sorted_apps;
  for (const auto& [app, count] : FullCorpus().CountsByApp()) {
    sorted_apps.push_back(app);
  }
  std::vector<std::vector<std::string>> orders = {sorted_apps};
  for (uint64_t seed : {1ull, 4242ull}) {
    std::vector<std::string> shuffled = sorted_apps;
    std::mt19937_64 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    orders.push_back(shuffled);
  }

  ThreadPoolCampaignOptions pool;
  pool.workers = 3;
  pool.journal_path = ::testing::TempDir() + "/threadpool_bench_config.zj";
  pool.journal_sync_batch = 1;
  for (size_t order = 0; order < orders.size(); ++order) {
    for (int threshold : {1, 2, 3}) {
      CampaignOptions options;
      options.apps = orders[order];
      options.frequent_failure_threshold = threshold;
      CampaignReport expected = Campaign(FullSchema(), FullCorpus(), options).Run();

      options.enable_run_cache = true;
      options.enable_equiv_cache = true;
      CampaignReport pooled =
          RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool);
      ExpectIdenticalResults(pooled, expected,
                             "order=" + std::to_string(order) +
                                 " threshold=" + std::to_string(threshold));
    }
  }
}

TEST(ThreadPoolSchedulerTest, SurvivesInjectedWorkerCrash) {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();

  // Whichever worker claims the unit first dies on that first attempt; the
  // survivor absorbs the queue and runs the requeued attempt. Keying the
  // fault on the attempt rather than a worker index keeps the test
  // independent of which worker wins the claim. The report must be
  // identical and record the requeue.
  ThreadPoolCampaignOptions pool;
  pool.workers = 2;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.test_id = "minikv.TestPutGet";
  crash.worker = -1;
  crash.attempt = 0;
  pool.faults.specs.push_back(crash);

  CampaignReport report =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool);
  ExpectIdenticalResults(report, expected, "one worker thread died");
  EXPECT_GE(report.requeued_units, 1);
}

TEST(ThreadPoolSchedulerTest, AllWorkersDeadThrows) {
  CampaignOptions options;
  options.apps = {"minikv"};
  ThreadPoolCampaignOptions pool;
  pool.workers = 1;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.test_id = "minikv.TestPutGet";
  crash.worker = 0;
  crash.attempt = -1;
  pool.faults.specs.push_back(crash);
  EXPECT_THROW(
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool), Error);
}

TEST(ThreadPoolSchedulerTest, PoisonedUnitIsQuarantinedNotLoopedForever) {
  CampaignOptions options;
  options.apps = {"minikv"};
  options.unit_attempt_limit = 2;
  options.requeue_backoff_seconds = 0.0;  // keep the test fast

  // Every attempt at this unit fails (hang injection, any worker, any
  // attempt): after unit_attempt_limit attempts it must fold as a stub and
  // land in poisoned_units instead of spinning.
  ThreadPoolCampaignOptions pool;
  pool.workers = 2;
  FaultSpec hang;
  hang.kind = FaultKind::kHang;
  hang.test_id = "minikv.TestPutGet";
  hang.worker = -1;
  hang.attempt = -1;
  pool.faults.specs.push_back(hang);

  CampaignReport report =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool);
  ASSERT_EQ(report.poisoned_units.size(), 1u);
  EXPECT_EQ(report.poisoned_units[0], "minikv.TestPutGet");
  EXPECT_GT(report.hung_workers, 0);
}

TEST(ThreadPoolSchedulerTest, JournalResumeIsBitwiseIdentical) {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();

  const std::string path = ::testing::TempDir() + "/threadpool_resume.zj";

  // First invocation "crashes" (abort hook) after three folds; the journal
  // retains exactly that prefix.
  ThreadPoolCampaignOptions first;
  first.workers = 2;
  first.journal_path = path;
  first.abort_after_folds = 3;
  RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, first);

  // The resumed campaign replays the prefix and runs only the rest.
  ThreadPoolCampaignOptions second;
  second.workers = 2;
  second.journal_path = path;
  second.resume = true;
  CampaignReport resumed =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, second);
  ExpectIdenticalResults(resumed, expected, "journal resume");
  EXPECT_EQ(resumed.resumed_units, 3);
}

TEST(ThreadPoolSchedulerTest, ZeroWorkersRejected) {
  CampaignOptions options;
  options.apps = {"minikv"};
  EXPECT_THROW(RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, 0),
               Error);
}

TEST(ThreadPoolSchedulerTest, MoreWorkersThanUnitsIsClamped) {
  CampaignOptions options;
  options.apps = {"apptools"};  // smallest corpus
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  CampaignReport pooled = RunThreadPoolCampaign(FullSchema(), FullCorpus(),
                                                options, /*workers=*/64);
  ExpectIdenticalResults(pooled, expected, "clamped workers");
}

TEST(ThreadPoolSchedulerTest, CancelFlagStopsAtUnitBoundary) {
  CampaignOptions options;
  options.apps = {"minikv"};
  static volatile std::sig_atomic_t cancel = 1;  // pre-cancelled: nothing folds
  options.cancel_flag = &cancel;
  CampaignReport report =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, 2);
  EXPECT_EQ(report.findings.size(), 0u);
}

// ---------------------------------------------------------------------------
// Every backend
// ---------------------------------------------------------------------------

TEST(CampaignBackendTest, EveryBackendProducesIdenticalResults) {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  CampaignReport expected = Campaign(FullSchema(), FullCorpus(), options).Run();
  ASSERT_GT(expected.findings.size(), 0u);

  ExpectIdenticalResults(
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, 2), expected,
      "threadpool");
  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  ExpectIdenticalResults(
      RunDistributedCampaign(FullSchema(), FullCorpus(), options, fabric),
      expected, "distributed");
}

// ---------------------------------------------------------------------------
// Concurrent RunCache
// ---------------------------------------------------------------------------

TEST(ConcurrentRunCacheTest, HammerWithLruEvictionStaysConsistent) {
  // N threads share one bounded cache, each inserting its own keyspace and
  // looking up everyone's, with LRU eviction constantly rotating entries out.
  // LookupShared, the path the pool's workers run, must never tear a result
  // (a hit is always a value some thread inserted for exactly that key) and
  // the final stats must balance. Run under TSan in CI, this is the
  // data-race gate for the shared-cache design.
  RunCache cache(RunCache::Limits{/*max_entries=*/64, /*max_bytes=*/0});
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 40;
  constexpr int kRounds = 50;
  std::atomic<int> torn_results{0};

  auto worker = [&](int thread_index) {
    for (int round = 0; round < kRounds; ++round) {
      for (int key = 0; key < kKeysPerThread; ++key) {
        // Each (thread, key) pair owns a distinct plan text; the expected
        // payload is derivable from the key, so tearing is detectable.
        int owner = (thread_index + round + key) % kThreads;
        std::string test_id = "hammer.T" + std::to_string(owner);
        std::string plan = "plan-" + std::to_string(key);
        std::string expected_failure =
            "failure-" + std::to_string(owner) + "-" + std::to_string(key);

        if (std::shared_ptr<const TestResult> out =
                cache.LookupShared(test_id, plan, /*trial=*/0)) {
          if (out->failure != expected_failure || out->passed) {
            ++torn_results;
          }
        } else {
          TestResult result;
          result.passed = false;
          result.failure = expected_failure;
          cache.Insert(test_id, plan, /*trial=*/0, /*trial_insensitive=*/true,
                       result);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(worker, i);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(torn_results.load(), 0);
  RunCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 64);
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.evictions, 0);
  // Every recorded entry was inserted by somebody; entries + evictions can
  // exceed insert *calls* only if accounting tore somewhere.
  EXPECT_GE(stats.misses * 2, stats.entries + stats.evictions);

  // Whether any *concurrent* hit occurred depends on thread interleaving
  // (single-core boxes can serialize the rotating keyspace past the LRU
  // window), so hit accounting is asserted serially: insert, then look up.
  TestResult final_result;
  final_result.passed = true;
  cache.Insert("hammer.final", "p", 0, /*trial_insensitive=*/true, final_result);
  std::shared_ptr<const TestResult> out = cache.LookupShared("hammer.final", "p", 7);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->passed);
  EXPECT_GT(cache.stats().hits, stats.hits);
}

// A synthetic unit test for the equivalence stress below: it reads
// kStressParams parameters on Server#0 in order and stops (fails) at the
// first one the plan sets to "stop", exactly as a real test that throws
// mid-body observes only a prefix of its promise. Its result is derived from
// what it observed, so a served result that is not this plan's is visible.
constexpr int kStressParams = 4;

std::string StressParam(int index) { return "stress.p" + std::to_string(index); }

TestResult StressExecute(const TestPlan& plan) {
  TestResult result;
  result.passed = true;
  for (int i = 0; i < kStressParams; ++i) {
    const std::string param = StressParam(i);
    const std::string* value = plan.Lookup(param, "Server", 0);
    result.report.trace_elements.insert(TraceReadElement("Server", 0, param, value));
    if (value != nullptr && *value == "stop") {
      result.passed = false;
      break;
    }
  }
  result.failure = ObservedTraceText(result.report);
  return result;
}

TEST(ConcurrentRunCacheTest, EquivLookupSharedUnderEvictionServesOnlyOwnResults) {
  // The production path (RunUnitTestShared's LookupShared + Insert with a
  // RunQuery) from 4 threads over one ReadSurface: overlapping pooled
  // plans, entry orders shuffled and an unread parameter mixed in so the
  // trace and restriction layers both serve, early-stopped runs so
  // restriction matching has prefixes to collapse, and a byte budget small
  // enough that candidates can be evicted between the snapshot and the match.
  // Every serve must be the result this plan would produce; the stats must
  // balance. Under TSan in CI this is the race gate for matching outside the
  // cache lock.
  SessionReport prerun;
  for (int i = 0; i < kStressParams; ++i) {
    prerun.trace_elements.insert(
        TraceReadElement("Server", 0, StressParam(i), nullptr));
  }
  const ReadSurface surface(prerun);
  ASSERT_TRUE(surface.usable());
  RunCache cache(RunCache::Limits{/*max_entries=*/0, /*max_bytes=*/12 * 1024});

  constexpr int kThreads = 4;
  constexpr int kLookupsPerThread = 1500;
  const char* const kValues[] = {"a", "b", "stop"};
  std::atomic<int64_t> lookups{0};
  std::atomic<int> wrong_serves{0};

  auto worker = [&](int thread_index) {
    uint64_t state = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(thread_index + 1);
    auto next = [&state](uint64_t bound) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return (state >> 33) % bound;
    };
    for (int i = 0; i < kLookupsPerThread; ++i) {
      std::vector<ParamPlan> entries;
      for (int p = 0; p < kStressParams; ++p) {
        uint64_t choice = next(5);  // 0-1: absent, else a value
        if (choice < 2) {
          continue;
        }
        ParamPlan entry;
        entry.param = StressParam(p);
        entry.assigner = ValueAssigner::Homogeneous(kValues[choice - 2]);
        entries.push_back(std::move(entry));
      }
      if (next(2) == 0) {
        ParamPlan unread;
        unread.param = "stress.unread";
        unread.assigner = ValueAssigner::Homogeneous(kValues[next(3)]);
        entries.push_back(std::move(unread));
      }
      if (entries.size() > 1 && next(2) == 0) {
        std::swap(entries.front(), entries.back());
      }
      const TestPlan plan(std::move(entries));
      const std::string test_id = "stress.T" + std::to_string(next(2));
      const uint64_t trial = next(3);

      RunQuery equiv;
      equiv.surface = &surface;
      equiv.plan = &plan;
      ++lookups;
      const TestResult expected = StressExecute(plan);
      if (std::shared_ptr<const TestResult> served =
              cache.LookupShared(test_id, plan.Fingerprint(), trial, &equiv)) {
        if (served->passed != expected.passed ||
            served->failure != expected.failure) {
          ++wrong_serves;
        }
        continue;
      }
      const std::string observed = ObservedTraceText(expected.report);
      cache.Insert(test_id, plan.Fingerprint(), trial, /*trial_insensitive=*/true,
                   expected, &equiv, observed);
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(worker, i);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(wrong_serves.load(), 0);
  RunCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.key_collisions, 0);
  EXPECT_EQ(stats.hits + stats.equiv_hits + stats.misses, lookups.load());
  EXPECT_GT(stats.evictions, 0);  // the budget really rotated entries out
  EXPECT_LE(stats.bytes, 12 * 1024);
  EXPECT_GT(stats.misses, 0);
}

TEST(ConcurrentRunCacheTest, SharedStatsSnapshotIsConsistent) {
  // stats() returns a snapshot by value; concurrent readers must never see
  // negative derived quantities.
  RunCache cache;
  std::atomic<bool> stop{false};
  std::atomic<int> inconsistencies{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      RunCache::Stats stats = cache.stats();
      if (stats.entries < 0 || stats.bytes < 0 ||
          stats.HitRate() < 0.0 || stats.HitRate() > 1.0) {
        ++inconsistencies;
      }
    }
  });

  for (int i = 0; i < 500; ++i) {
    TestResult result;
    result.passed = true;
    cache.Insert("t", "p" + std::to_string(i), 0, true, result);
    cache.LookupShared("t", "p" + std::to_string(i / 2), 0);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(inconsistencies.load(), 0);
}

}  // namespace
}  // namespace zebra
