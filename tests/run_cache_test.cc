// Tests for the memoized run cache: keying (exact and trial-wildcard),
// counters, the observational-equivalence layer's serving rules, LRU budget
// enforcement, persistence, and the end-to-end guarantee that memoization
// never changes campaign results while actually getting hits.

#include "src/testkit/run_cache.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/conf/plan_equiv.h"
#include "src/core/campaign.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

TestResult MakeResult(bool passed, const std::string& failure) {
  TestResult result;
  result.passed = passed;
  result.failure = failure;
  return result;
}

std::string Join(std::initializer_list<std::string> elements) {
  std::string text;
  for (const std::string& element : elements) {
    if (!text.empty()) {
      text += '\x1e';
    }
    text += element;
  }
  return text;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TestPlan SingleParamPlan(const std::string& param, const std::string& value) {
  TestPlan plan;
  ParamPlan p;
  p.param = param;
  p.assigner = ValueAssigner::UniformGroup("Server", value, "other");
  plan.Add(std::move(p));
  return plan;
}

TEST(RunCacheTest, ExactKeyRoundTrip) {
  RunCache cache;
  EXPECT_EQ(cache.LookupShared("app.Test", "plan-a", 0), nullptr);
  cache.Insert("app.Test", "plan-a", 0, /*trial_insensitive=*/false,
               MakeResult(false, "boom"));

  std::shared_ptr<const TestResult> hit =
      cache.LookupShared("app.Test", "plan-a", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->passed);
  EXPECT_EQ(hit->failure, "boom");

  // A trial-sensitive entry must NOT serve other trials.
  EXPECT_EQ(cache.LookupShared("app.Test", "plan-a", 1), nullptr);
  // Nor other plans or tests.
  EXPECT_EQ(cache.LookupShared("app.Test", "plan-b", 0), nullptr);
  EXPECT_EQ(cache.LookupShared("app.Other", "plan-a", 0), nullptr);

  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(RunCacheTest, TrialInsensitiveEntryServesEveryTrial) {
  RunCache cache;
  cache.Insert("app.Test", "plan", 7, /*trial_insensitive=*/true,
               MakeResult(true, ""));
  for (uint64_t trial : {0u, 1u, 7u, 42u}) {
    std::shared_ptr<const TestResult> hit =
        cache.LookupShared("app.Test", "plan", trial);
    ASSERT_NE(hit, nullptr) << trial;
    EXPECT_TRUE(hit->passed);
  }
  EXPECT_EQ(cache.stats().hits, 4);
}

TEST(RunCacheTest, KeysAreNotAmbiguous) {
  // The separator must prevent (id, plan) concatenation collisions.
  RunCache cache;
  cache.Insert("a", "b.plan", 0, /*trial_insensitive=*/true, MakeResult(true, ""));
  EXPECT_EQ(cache.LookupShared("a.b", "plan", 0), nullptr);
  EXPECT_EQ(cache.LookupShared("a", "b.plan.extra", 0), nullptr);
}

TEST(RunCacheTest, HashedKeysMatchLegacyDigestsOverFullCorpus) {
  // The hot path folds key components into a 128-bit digest without ever
  // building the legacy concatenated string; this proves the fold is
  // byte-for-byte the digest of that string for every unit test in the full
  // corpus, every plan the schema can produce for it, and all three key
  // shapes. FNV chains over concatenation, so equality here means hashed
  // and legacy lookups are interchangeable everywhere.
  size_t checked = 0;
  for (const UnitTestDef& test_def : FullCorpus().tests()) {
    const UnitTestDef* test = &test_def;
    for (const ParamSpec& param : FullSchema().params()) {
      TestPlan plan = SingleParamPlan(param.name, param.default_value);
      const std::string& plan_text = plan.Fingerprint();
      for (uint64_t trial : {uint64_t{0}, uint64_t{7}, uint64_t{123456789}}) {
        EXPECT_EQ(RunCache::ExactRunKey(test->id, plan_text, trial),
                  HashFnv128(RunCache::ExactKey(test->id, plan_text, trial)))
            << test->id << " / " << plan_text << " / " << trial;
      }
      EXPECT_EQ(RunCache::WildcardRunKey(test->id, plan_text),
                HashFnv128(RunCache::WildcardKey(test->id, plan_text)));
      EXPECT_EQ(RunCache::TraceRunKey(test->id, "get:" + param.name),
                HashFnv128(RunCache::TraceKey(test->id, "get:" + param.name)));

      // The persistence gate inverts the same equivalence: re-deriving the
      // digest from the legacy string must reproduce the component fold.
      Digest128 derived{0, 0};
      ASSERT_TRUE(RunCache::DeriveComponentDigest(
          RunCache::ExactKey(test->id, plan_text, 7), &derived));
      EXPECT_EQ(derived, RunCache::ExactRunKey(test->id, plan_text, 7));
      ASSERT_TRUE(RunCache::DeriveComponentDigest(
          RunCache::TraceKey(test->id, "get:" + param.name), &derived));
      EXPECT_EQ(derived, RunCache::TraceRunKey(test->id, "get:" + param.name));
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);  // the corpus x schema sweep actually ran
}

TEST(RunCacheTest, ForcedCollisionIsRejectedNeverServedWrong) {
  // Two distinct legacy keys digesting to the same 128-bit key: the insert
  // path compares the stored legacy string and must detect the collision
  // (counted in key_collisions) instead of aliasing two different runs.
  // Neither logical key may be served through the ambiguous digest, so the
  // stored entry is evicted too — both re-execute rather than risk a wrong
  // serve.
  RunCache cache;
  Digest128 key{0x1234567890abcdefULL, 0xfedcba0987654321ULL};
  EXPECT_TRUE(cache.InsertAliasForTesting(key, "legacy-a", MakeResult(true, "")));
  EXPECT_EQ(cache.stats().key_collisions, 0);
  EXPECT_EQ(cache.stats().entries, 1);

  EXPECT_FALSE(
      cache.InsertAliasForTesting(key, "legacy-b", MakeResult(false, "boom")));
  EXPECT_EQ(cache.stats().key_collisions, 1);
  EXPECT_EQ(cache.stats().entries, 0);

  // A duplicate insert under one legacy key is first-result-wins, not a
  // collision: the entry stays and the counter does not move.
  EXPECT_TRUE(cache.InsertAliasForTesting(key, "legacy-a", MakeResult(true, "")));
  EXPECT_FALSE(cache.InsertAliasForTesting(key, "legacy-a", MakeResult(true, "")));
  EXPECT_EQ(cache.stats().key_collisions, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(RunCacheTest, StatsTrackEntriesAndHitRate) {
  RunCache cache;
  cache.LookupShared("x", "p", 0);  // miss
  cache.Insert("x", "p", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  cache.LookupShared("x", "p", 0);  // hit
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
}

TEST(RunCacheTest, CampaignResultsIdenticalWithCacheEnabled) {
  CampaignOptions plain_options;
  plain_options.apps = {"minikv", "apptools"};
  Campaign plain(FullSchema(), FullCorpus(), plain_options);
  CampaignReport expected = plain.Run();
  EXPECT_EQ(expected.cache_hits, 0);
  EXPECT_EQ(expected.cache_misses, 0);

  CampaignOptions cached_options = plain_options;
  cached_options.enable_run_cache = true;
  Campaign cached(FullSchema(), FullCorpus(), cached_options);
  CampaignReport report = cached.Run();

  // Table-5 accounting and findings are byte-for-byte the no-cache numbers.
  EXPECT_EQ(report.TotalExecuted(), expected.TotalExecuted());
  EXPECT_EQ(report.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(report.first_trial_candidates, expected.first_trial_candidates);
  EXPECT_EQ(report.filtered_by_hypothesis, expected.filtered_by_hypothesis);
  EXPECT_EQ(report.runs_to_first_detection, expected.runs_to_first_detection);
  ASSERT_EQ(report.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(report.findings.count(param) > 0) << param;
    EXPECT_EQ(report.findings.at(param).witness_tests, finding.witness_tests);
    EXPECT_EQ(report.findings.at(param).best_p_value, finding.best_p_value);
  }
  for (const auto& [app, counts] : expected.per_app) {
    EXPECT_EQ(report.per_app.at(app).after_prerun, counts.after_prerun) << app;
    EXPECT_EQ(report.per_app.at(app).executed_runs, counts.executed_runs) << app;
  }

  // On these apps every repeat is one the verifier answers without asking
  // the cache, so a single campaign executes exactly what the uncached one
  // does: 161 runs, no hit.
  EXPECT_EQ(report.cache_hits, 0);
  EXPECT_EQ(report.cache_misses, 161);
  EXPECT_EQ(report.run_durations_seconds.size(), 161u);
  EXPECT_EQ(expected.run_durations_seconds.size(), 161u);

  // A second campaign on the same engine is served whole: every lookup hits
  // and nothing executes, with the same results.
  CampaignReport again = cached.Run();
  EXPECT_EQ(again.cache_hits, 161);
  EXPECT_EQ(again.cache_misses, 161) << "counters accumulate over the engine's runs";
  EXPECT_TRUE(again.run_durations_seconds.empty());
  EXPECT_EQ(again.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(again.runs_to_first_detection, expected.runs_to_first_detection);
  ASSERT_EQ(again.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(again.findings.count(param) > 0) << param;
    EXPECT_EQ(again.findings.at(param).witness_tests, finding.witness_tests);
    EXPECT_EQ(again.findings.at(param).best_p_value, finding.best_p_value);
  }
}

TEST(RunCacheTest, WarmStartAsksExactlyTheColdLookups) {
  // Insert stores a run under its wildcard and trace keys only when the run
  // never consulted its trial, so a result loaded from one of
  // those records is trial-insensitive: the verifier answers the later
  // trials of its plan itself, as it does in the cold campaign, instead of
  // asking the cache for each.
  for (bool equiv : {false, true}) {
    SCOPED_TRACE(equiv ? "cache + equiv" : "cache");
    CampaignOptions options;
    options.apps = {"minikv", "apptools"};
    options.enable_run_cache = true;
    options.enable_equiv_cache = equiv;
    Campaign cold(FullSchema(), FullCorpus(), options);
    const CampaignReport expected = cold.Run();
    const int64_t lookups =
        expected.cache_hits + expected.equiv_hits + expected.cache_misses;
    ASSERT_GT(expected.cache_misses, 0);
    const std::string path = ::testing::TempDir() + "/run_cache_warm_start.zc";
    ASSERT_TRUE(cold.run_cache()->SaveToFile(path));

    Campaign warm(FullSchema(), FullCorpus(), options);
    ASSERT_TRUE(warm.run_cache()->LoadFromFile(path));
    std::remove(path.c_str());
    const CampaignReport report = warm.Run();
    EXPECT_EQ(report.cache_hits + report.equiv_hits, lookups);
    EXPECT_EQ(report.cache_misses, 0);
    EXPECT_EQ(report.equiv_hits, expected.equiv_hits);
    EXPECT_TRUE(report.run_durations_seconds.empty()) << "nothing executes";
    EXPECT_EQ(report.total_unit_test_runs, expected.total_unit_test_runs);
    EXPECT_EQ(report.runs_to_first_detection, expected.runs_to_first_detection);
    ASSERT_EQ(report.findings.size(), expected.findings.size());
    for (const auto& [param, finding] : expected.findings) {
      ASSERT_TRUE(report.findings.count(param) > 0) << param;
      EXPECT_EQ(report.findings.at(param).witness_tests, finding.witness_tests);
      EXPECT_EQ(report.findings.at(param).best_p_value, finding.best_p_value);
    }
  }
}

TEST(RunCacheTest, EquivLayerServesAcrossPlansAndSurvivesRoundTrip) {
  // Pre-run promise: Server#0 reads only a.read.
  SessionReport prerun;
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "a.read", nullptr));
  ReadSurface surface(prerun);
  ASSERT_TRUE(surface.usable());

  // The baseline execution: empty plan, observed exactly the promise.
  const TestPlan baseline;
  const std::string baseline_fp = baseline.Fingerprint();
  const std::string observed = TraceReadElement("Server", 0, "a.read", nullptr);

  RunCache cache;
  RunQuery baseline_query;
  baseline_query.surface = &surface;
  baseline_query.plan = &baseline;
  EXPECT_EQ(cache.LookupShared("t", baseline_fp, 0, &baseline_query), nullptr);
  cache.Insert("t", baseline_fp, 0, /*trial_insensitive=*/true,
               MakeResult(true, ""), &baseline_query, observed);

  // A plan flipping a parameter no conf reads is observationally the
  // baseline: same predicted trace, so the stored run serves it.
  const TestPlan unread = SingleParamPlan("b.unread", "42");
  RunQuery unread_query;
  unread_query.surface = &surface;
  unread_query.plan = &unread;
  std::shared_ptr<const TestResult> hit =
      cache.LookupShared("t", unread.Fingerprint(), 5, &unread_query);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->passed);
  EXPECT_EQ(cache.stats().equiv_hits, 1);
  EXPECT_EQ(cache.stats().mispredictions, 0);

  // ...while a plan that overrides the promised read is a different
  // execution and must miss.
  const TestPlan divergent = SingleParamPlan("a.read", "7");
  RunQuery divergent_query;
  divergent_query.surface = &surface;
  divergent_query.plan = &divergent;
  EXPECT_EQ(cache.LookupShared("t", divergent.Fingerprint(), 0, &divergent_query),
            nullptr);

  // Persistence round-trips the equivalence indexes: after save + load into
  // a fresh cache, the cross-plan serve still works.
  const std::string path = ::testing::TempDir() + "/run_cache_roundtrip.zc";
  ASSERT_TRUE(cache.SaveToFile(path));
  RunCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path));
  EXPECT_EQ(reloaded.stats().entries, cache.stats().entries);
  std::remove(path.c_str());

  ASSERT_NE(reloaded.LookupShared("t", baseline_fp, 3, nullptr),
            nullptr);  // wildcard
  RunQuery reloaded_query;
  reloaded_query.surface = &surface;
  reloaded_query.plan = &unread;
  ASSERT_NE(reloaded.LookupShared("t", unread.Fingerprint(), 5, &reloaded_query),
            nullptr);
  EXPECT_EQ(reloaded.stats().equiv_hits, 1);
}

TEST(RunCacheTest, EquivLayerServesEarlyStoppedRestriction) {
  // The stored failing run stopped at its first read — its observed trace is
  // a strict subset of any full prediction, so only restriction matching can
  // serve it. A plan agreeing on that read reproduces the failure.
  SessionReport prerun;
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "a.read", nullptr));
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "b.read", nullptr));
  ReadSurface surface(prerun);

  std::string assigned = "7";
  const TestPlan first = SingleParamPlan("a.read", assigned);
  const std::string truncated = TraceReadElement("Server", 0, "a.read", &assigned);
  RunCache cache;
  RunQuery first_query;
  first_query.surface = &surface;
  first_query.plan = &first;
  EXPECT_EQ(cache.LookupShared("t", first.Fingerprint(), 0, &first_query), nullptr);
  // Observed != predicted (the run never reached b.read): counted as a
  // misprediction at insert, indexed by its truthful observed trace anyway.
  cache.Insert("t", first.Fingerprint(), 0, /*trial_insensitive=*/true,
               MakeResult(false, "died at a.read"), &first_query, truncated);
  EXPECT_EQ(cache.stats().mispredictions, 1);

  // Same a.read assignment pooled with an unread parameter: agrees on every
  // value the stored run actually observed.
  TestPlan pooled = SingleParamPlan("a.read", assigned);
  pooled.Add(SingleParamPlan("c.unread", "1").params()[0]);
  RunQuery pooled_query;
  pooled_query.surface = &surface;
  pooled_query.plan = &pooled;
  std::shared_ptr<const TestResult> hit =
      cache.LookupShared("t", pooled.Fingerprint(), 9, &pooled_query);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->failure, "died at a.read");
  EXPECT_EQ(cache.stats().equiv_hits, 1);

  // A plan serving a different value at that read must not match.
  const TestPlan different = SingleParamPlan("a.read", "8");
  RunQuery different_query;
  different_query.surface = &surface;
  different_query.plan = &different;
  EXPECT_EQ(cache.LookupShared("t", different.Fingerprint(), 0, &different_query),
            nullptr);

  // Restriction matching is the one equivalence path with out-of-band state
  // (the per-test trace registry); a reloaded cache must rebuild it. The
  // entry's trace key is its truncated trace, which no full prediction
  // equals, so this serve can only come from the rebuilt registry.
  const std::string path = ::testing::TempDir() + "/run_cache_restriction.zc";
  ASSERT_TRUE(cache.SaveToFile(path));
  RunCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path));
  std::remove(path.c_str());
  RunQuery reloaded_query;
  reloaded_query.surface = &surface;
  reloaded_query.plan = &pooled;
  std::shared_ptr<const TestResult> reloaded_hit =
      reloaded.LookupShared("t", pooled.Fingerprint(), 9, &reloaded_query);
  ASSERT_NE(reloaded_hit, nullptr);
  EXPECT_EQ(reloaded_hit->failure, "died at a.read");
}

TEST(RunCacheTest, RetiredCanonicalRecordsAreSkippedAtLoad) {
  // Cache files written while the canonical-fingerprint index existed carry,
  // beside a trace-indexed run, a record under "C\x1f" + test id + '\x1f' +
  // canonical fingerprint + "\x1f*". Such a file still loads (the format is
  // unchanged), the run is served through its trace key, and saving drops
  // the canonical record instead of carrying it forever.
  SessionReport prerun;
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "a.read", nullptr));
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "b.read", nullptr));
  ReadSurface surface(prerun);

  std::string assigned = "7";
  const TestPlan plan = SingleParamPlan("a.read", assigned);
  const TestResult result = MakeResult(false, "a.read=7 fails");
  RunCache cache;
  cache.Insert("t", plan.Fingerprint(), 0, /*trial_insensitive=*/true, result,
               nullptr,
               Join({TraceReadElement("Server", 0, "a.read", &assigned),
                     TraceReadElement("Server", 0, "b.read", nullptr)}));
  const std::string canonical_key =
      std::string("C\x1f") + "t" + '\x1f' + plan.Fingerprint() + "\x1f*";
  ASSERT_TRUE(
      cache.InsertAliasForTesting(HashFnv128(canonical_key), canonical_key, result));
  const std::string path = ::testing::TempDir() + "/run_cache_canonical.zc";
  ASSERT_TRUE(cache.SaveToFile(path));
  ASSERT_NE(ReadFile(path).find("K C\x1f"), std::string::npos);

  RunCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path));
  EXPECT_EQ(reloaded.stats().load_failures, 0);
  EXPECT_EQ(reloaded.stats().entries, cache.stats().entries - 1);

  // Pooled with an unread parameter, the plan predicts the stored run's
  // trace exactly: a full-trace-key hit.
  TestPlan pooled = SingleParamPlan("a.read", assigned);
  pooled.Add(SingleParamPlan("c.unread", "1").params()[0]);
  RunQuery query;
  query.surface = &surface;
  query.plan = &pooled;
  std::shared_ptr<const TestResult> hit =
      reloaded.LookupShared("t", pooled.Fingerprint(), 3, &query);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->failure, "a.read=7 fails");
  EXPECT_EQ(reloaded.stats().equiv_hits, 1);

  ASSERT_TRUE(reloaded.SaveToFile(path));
  EXPECT_EQ(ReadFile(path).find("C\x1f"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunCacheTest, ReloadedRestrictionMatchingScansTheNewestCandidates) {
  // Restriction matching scans at most 64 of a test's trace-indexed entries,
  // newest first. A cache file lists entries most recent first, so a
  // reloaded cache must register them in reverse to keep that order: here
  // the one stored run the plan reproduces is the newest of 65.
  SessionReport prerun;
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "a.read", nullptr));
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "b.read", nullptr));
  ReadSurface surface(prerun);

  RunCache cache;
  for (int i = 0; i <= 64; ++i) {
    std::string value = i < 64 ? std::to_string(i) : "match";
    const TestPlan plan = SingleParamPlan("a.read", value);
    cache.Insert("t", plan.Fingerprint(), 0, /*trial_insensitive=*/true,
                 MakeResult(false, "died at a.read=" + value), nullptr,
                 TraceReadElement("Server", 0, "a.read", &value));
  }
  TestPlan pooled = SingleParamPlan("a.read", "match");
  pooled.Add(SingleParamPlan("c.unread", "1").params()[0]);

  const std::string path = ::testing::TempDir() + "/run_cache_newest.zc";
  ASSERT_TRUE(cache.SaveToFile(path));
  RunCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path));
  std::remove(path.c_str());
  for (RunCache* serving : {&cache, &reloaded}) {
    RunQuery query;
    query.surface = &surface;
    query.plan = &pooled;
    std::shared_ptr<const TestResult> hit =
        serving->LookupShared("t", pooled.Fingerprint(), 0, &query);
    ASSERT_NE(hit, nullptr) << (serving == &cache ? "live" : "reloaded");
    EXPECT_EQ(hit->failure, "died at a.read=match");
    EXPECT_EQ(serving->stats().equiv_hits, 1);
  }
}

TEST(RunCacheTest, TrialSensitiveRunsAreNeverSharedAcrossPlans) {
  // A run that consumed the per-trial RNG is only valid for its exact
  // (plan, trial): the equivalence layer must never index it.
  SessionReport prerun;
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "a.read", nullptr));
  ReadSurface surface(prerun);

  const TestPlan baseline;
  const std::string observed = TraceReadElement("Server", 0, "a.read", nullptr);
  RunCache cache;
  RunQuery query;
  query.surface = &surface;
  query.plan = &baseline;
  EXPECT_EQ(cache.LookupShared("t", baseline.Fingerprint(), 0, &query), nullptr);
  cache.Insert("t", baseline.Fingerprint(), 0, /*trial_insensitive=*/false,
               MakeResult(true, ""), &query, observed);

  const TestPlan unread = SingleParamPlan("b.unread", "42");
  RunQuery unread_query;
  unread_query.surface = &surface;
  unread_query.plan = &unread;
  EXPECT_EQ(cache.LookupShared("t", unread.Fingerprint(), 0, &unread_query),
            nullptr);
  EXPECT_EQ(cache.LookupShared("t", baseline.Fingerprint(), 1, nullptr), nullptr);
  EXPECT_EQ(cache.stats().equiv_hits, 0);
}

TEST(RunCacheTest, LruBudgetEvictsOldestAndCounts) {
  RunCache cache(RunCache::Limits{/*max_entries=*/2, /*max_bytes=*/0});
  cache.Insert("t", "p1", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  cache.Insert("t", "p2", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  ASSERT_NE(cache.LookupShared("t", "p1", 0), nullptr);  // p1 now most recent
  cache.Insert("t", "p3", 0, /*trial_insensitive=*/false, MakeResult(true, ""));

  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_NE(cache.LookupShared("t", "p1", 0), nullptr);  // kept (recently used)
  EXPECT_NE(cache.LookupShared("t", "p3", 0), nullptr);  // kept (newest)
  EXPECT_EQ(cache.LookupShared("t", "p2", 0), nullptr);  // evicted
}

TEST(RunCacheTest, CacheBudgetNeverChangesFindings) {
  CampaignOptions plain_options;
  plain_options.apps = {"minikv", "apptools"};
  Campaign plain(FullSchema(), FullCorpus(), plain_options);
  CampaignReport expected = plain.Run();

  // A budget small enough to evict constantly: hits become re-executions,
  // findings and stage counts must not move.
  CampaignOptions tight_options = plain_options;
  tight_options.enable_run_cache = true;
  tight_options.enable_equiv_cache = true;
  tight_options.cache_max_entries = 8;
  Campaign tight(FullSchema(), FullCorpus(), tight_options);
  CampaignReport report = tight.Run();

  EXPECT_GT(report.cache_evictions, 0);
  EXPECT_EQ(report.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(report.runs_to_first_detection, expected.runs_to_first_detection);
  ASSERT_EQ(report.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(report.findings.count(param) > 0) << param;
    EXPECT_EQ(report.findings.at(param).witness_tests, finding.witness_tests);
    EXPECT_EQ(report.findings.at(param).best_p_value, finding.best_p_value);
  }
  for (const auto& [app, counts] : expected.per_app) {
    EXPECT_EQ(report.per_app.at(app).executed_runs, counts.executed_runs) << app;
  }
}

TEST(RunCacheTest, SaveLoadRejectsCorruptFile) {
  const std::string path = ::testing::TempDir() + "/run_cache_corrupt.zc";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a cache file\n", f);
    std::fclose(f);
  }
  RunCache cache;
  cache.Insert("t", "p", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  EXPECT_FALSE(cache.LoadFromFile(path));
  // A failed load leaves the cache empty, never half-loaded — and counts a
  // load failure (the campaign surfaces it as cache_load_failures).
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.LookupShared("t", "p", 0), nullptr);
  EXPECT_EQ(cache.stats().load_failures, 1);
  std::remove(path.c_str());
}

TEST(RunCacheTest, LoadRejectsTruncatedRealFile) {
  // A genuine save, torn mid-write (crash, disk full): the trailing
  // checksum is gone, so the load must reject the file and start cold
  // rather than trust a half-written cache.
  const std::string path = ::testing::TempDir() + "/run_cache_torn.zc";
  RunCache cache;
  cache.Insert("alpha", "plan-a", 0, /*trial_insensitive=*/true,
               MakeResult(true, ""));
  cache.Insert("beta", "plan-b", 1, /*trial_insensitive=*/false,
               MakeResult(false, "boom"));
  ASSERT_TRUE(cache.SaveToFile(path));

  std::string full = ReadFile(path);
  ASSERT_GT(full.size(), 40u);
  {
    std::ofstream out(path, std::ios::trunc);
    out << full.substr(0, full.size() - 30);
  }

  RunCache reloaded;
  EXPECT_FALSE(reloaded.LoadFromFile(path));
  EXPECT_EQ(reloaded.stats().entries, 0);
  EXPECT_EQ(reloaded.stats().load_failures, 1);
  std::remove(path.c_str());
}

TEST(RunCacheTest, LoadRejectsBitFlippedFileByChecksum) {
  // Same length, one byte flipped inside an entry: only the whole-file
  // checksum can catch this.
  const std::string path = ::testing::TempDir() + "/run_cache_bitflip.zc";
  RunCache cache;
  cache.Insert("alpha", "plan-a", 0, /*trial_insensitive=*/true,
               MakeResult(true, "xyzzy-payload"));
  ASSERT_TRUE(cache.SaveToFile(path));

  std::string full = ReadFile(path);
  size_t position = full.find("plan-a");
  ASSERT_NE(position, std::string::npos);
  full[position] = 'q';
  {
    std::ofstream out(path, std::ios::trunc);
    out << full;
  }

  RunCache reloaded;
  EXPECT_FALSE(reloaded.LoadFromFile(path));
  EXPECT_EQ(reloaded.stats().entries, 0);
  EXPECT_EQ(reloaded.stats().load_failures, 1);
  std::remove(path.c_str());
}

TEST(RunCacheTest, MissingFileIsColdStartNotFailure) {
  const std::string path = ::testing::TempDir() + "/run_cache_missing.zc";
  std::remove(path.c_str());
  RunCache cache;
  EXPECT_FALSE(cache.LoadFromFile(path));
  EXPECT_EQ(cache.stats().load_failures, 0);
}

TEST(RunCacheTest, ScopedInstallRestoresPrevious) {
  ASSERT_EQ(GlobalRunCache(), nullptr);
  RunCache outer;
  {
    ScopedRunCache install_outer(&outer);
    EXPECT_EQ(GlobalRunCache(), &outer);
    RunCache inner;
    {
      ScopedRunCache install_inner(&inner);
      EXPECT_EQ(GlobalRunCache(), &inner);
    }
    EXPECT_EQ(GlobalRunCache(), &outer);
  }
  EXPECT_EQ(GlobalRunCache(), nullptr);
}

}  // namespace
}  // namespace zebra
