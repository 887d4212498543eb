// RunCache: memoized unit-test execution results.
//
// RunUnitTest is a pure function of the (test id, TestPlan, trial) triple —
// all nondeterminism is injected through the RNG seeded from exactly that
// triple (see test_context.h). Within one verification the repeats are the
// verifier's job: TestRunner::Verify answers the later trials of a
// deterministic plan, and bisection's failing one-instance run, from results
// it already holds, without a lookup (test_runner.h). What still reaches the
// cache as an identical triple is what no single call site can see:
//
//   * re-dispatched units: a stale or requeued unit of the thread pool or
//     the fabric runs its pre-run and dynamic phase again,
//   * repeated campaigns: a warm-started cache file, a persistent agent
//     cache, or a second Run() on the same engine asks every run again,
//   * homogeneous controls shared by separate verifications of one
//     parameter (6 of the 1,555 lookups of a full sequential campaign).
//
// The cache keys results by a canonical fingerprint of the triple and serves
// repeats without executing. Executions that provably never observed the
// trial number are additionally stored under a trial-wildcard key, so any
// trial of the same (test, plan) hits as well.
//
// Keys are 128-bit FNV-1a digests (common/strings.h Digest128) of the legacy
// string keys — test id, plan fingerprint, and trial joined with '\x1f', plus
// the tagged trace namespace. The digest is derived by folding the
// key *components* (the digest of a concatenation is the fold of its pieces),
// so the hot path never materializes a key string; the string form survives
// only in the checksummed persistence format. 128 bits makes an accidental
// collision negligible, and the insert path still compares the stored legacy
// string against the incoming one, so even the negligible case is detected
// (Stats::key_collisions), evicted, and re-executed — never served wrong.
// LoadFromFile gates every persisted key on the hashed and legacy derivations
// agreeing, proving the two lookups stay interchangeable.
//
// On top of exact matching sits the observational-equivalence layer (see
// plan_equiv.h). Trial-insensitive executions are additionally indexed by
// the trace of (entity, param, value-served) observations they actually
// made, so a later plan that is observationally identical reuses the result
// even when its description differs. The lookup probes that index with the
// trace the current plan *predicts*: a hit means the stored execution's
// *observed* trace is byte-identical to the prediction, which proves by
// induction over the read sequence that the stored execution is the one this
// plan would have produced. Restriction matching extends this to stored runs
// that stopped early (see LookupEntry). A run whose observed trace differs
// from its own prediction (the pre-run promise was broken) counts a
// misprediction; it is still indexed under what it observed, which is always
// truthful.
//
// What an entry holds follows the recording contract (test_execution.h): a
// heterogeneous run keeps its verdict, failure text, trial flag and
// counters, plus its observed trace as one joined string when it recorded
// one (only with a read surface installed, so a cache filled with the
// equivalence layer off holds, and a file written from it carries, no trace
// alias for any heterogeneous run). The empty-plan pre-run keeps its whole
// session: re-dispatched units and warm starts generate instances from it.
//
// Serving from cache never changes campaign results: the stored TestResult is
// exactly what a real run would return. Stage counters (executed_runs and
// friends) are incremented by the call sites *before* RunUnitTest, so Table-5
// accounting is identical with the cache on or off; only wall-clock (and the
// run-duration profile) shrinks. Lookups therefore number fewer than logical
// runs: a run the verifier answers itself is counted but never looked up.
//
// Growth is bounded: Limits sets an entry and/or byte budget enforced by LRU
// eviction. Evicting can only turn future hits into misses (re-executions),
// never change a served result, so findings are budget-invariant.
//
// Ownership: one cache per thread of execution, installed via
// SetGlobalRunCache (RAII: ScopedRunCache; the installed pointer is
// thread-local). Campaign owns a cache when CampaignOptions.enable_run_cache
// is set; the thread-pool scheduler installs one *shared* cache on every
// worker thread, so a result computed by one worker is served to all, and
// each fabric agent shares one across its threads. The owner alone reports
// the counters (ReportCacheStats in campaign.h). All public methods are
// internally synchronized, and LookupShared's returned shared_ptr stays
// valid past any other thread's insert-triggered eviction without copying
// the result.
//
// Lock discipline. Every pool worker consults the cache around every
// execution, so whatever runs under the mutex runs serially across the pool.
// The mutex therefore guards only the index, the LRU list, the trace-key
// registry and the stats: probes, splices, counter bumps, and the copy of at
// most kMaxRestrictionCandidates restriction candidates as
// shared_ptr<const Entry>. The calling thread does everything else unlocked:
// key digests, PredictTrace, restriction matching over its copy (re-locking
// only to splice and count a match), each alias's legacy key, and the entry's
// byte estimate (once per entry, not per alias). Matching outside the lock is
// sound because an Entry is immutable once published and the copy owns its
// candidates, so an eviction racing the match can neither free nor
// change what is being matched — and every candidate is still validated
// against this plan before it is served. A racing insert can only turn a hit
// into a miss (one re-execution) or serve through a different, equally
// validated alias. With one thread, the probes, splices and counts happen in
// the same order as in a single critical section.

#ifndef SRC_TESTKIT_RUN_CACHE_H_
#define SRC_TESTKIT_RUN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/testkit/test_execution.h"

namespace zebra {

class ReadSurface;

// One run's cache context: what its lookup derives, kept for its insert so
// the run hashes its plan text and predicted trace once each. A query
// belongs to one (test, plan) pair.
//
// `surface` and `plan` switch the equivalence layer on: the unit's pre-run
// ReadSurface and the plan being run (neither owned; `plan` is dereferenced
// only during LookupShared, so the caller may move the plan away
// afterwards). RunCache derives the predicted trace lazily — only once the
// exact keys have missed, so exact hits pay nothing for the layer — and
// keeps it here so the matching Insert can validate the pre-run promise
// without recomputing.
struct RunQuery {
  const ReadSurface* surface = nullptr;
  const TestPlan* plan = nullptr;

  // Filled by every lookup: the digest of test_id + '\x1f' + plan_text that
  // the exact and wildcard keys extend.
  bool keyed = false;
  Digest128 prefix;

  // Filled on the first exact miss: the predicted trace and its key digest.
  bool computed = false;
  std::string predicted_trace;
  Digest128 trace_key;
};

class RunCache {
 public:
  struct Limits {
    int64_t max_entries = 0;  // 0 = unbounded
    int64_t max_bytes = 0;    // 0 = unbounded (approximate resident bytes)
  };

  struct Stats {
    int64_t hits = 0;    // exact (test, plan, trial) or trial-wildcard serves
    int64_t misses = 0;
    int64_t entries = 0;
    int64_t bytes = 0;   // approximate resident bytes across all entries

    // Observational-equivalence accounting.
    int64_t equiv_hits = 0;        // serves via the trace index
    int64_t mispredictions = 0;    // observed trace != the run's prediction
    int64_t evictions = 0;         // LRU evictions under Limits

    // Two distinct legacy keys digesting to the same 128-bit key (insert- or
    // load-time cross-check). The colliding entry is dropped — a future miss
    // and re-execution, never a wrong serve. Expected to stay 0 forever; the
    // counter exists so "forever" is observable.
    int64_t key_collisions = 0;

    // Corrupt/truncated cache files rejected by LoadFromFile. Deliberately
    // NOT cleared by ResetStats: load failures are a per-process health
    // signal (surfaced as CampaignReport::cache_load_failures), not a
    // per-campaign counter.
    int64_t load_failures = 0;

    double HitRate() const {
      return hits + misses == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
  };

  RunCache() = default;
  explicit RunCache(Limits limits) : limits_(limits) {}

  // Returns the cached result for the triple, or nullptr. A trial-wildcard
  // entry (stored by a trial-insensitive execution) matches any trial; when
  // `query` carries a surface and plan, the predicted-trace key is consulted
  // next, and finally this test's stored traces are scanned for one the plan
  // provably reproduces (restriction matching). Counts a hit, an equiv hit,
  // or a miss, and fills `query` (when given) for the Insert. Safe under
  // concurrent mutation without a deep copy: the returned pointer shares
  // ownership of the immutable cache payload, so it stays valid even if
  // another thread's insert evicts the entry right after it is found.
  std::shared_ptr<const TestResult> LookupShared(const std::string& test_id,
                                                 const std::string& plan_text,
                                                 uint64_t trial,
                                                 RunQuery* query = nullptr);

  // Stores the result of a real execution with its joined observed trace
  // (empty when the run recorded none), which the entry takes over.
  // `trial_insensitive` executions are stored under the wildcard key as
  // well, so every future trial hits, and additionally under their observed
  // trace. When `query` carries the prediction the preceding lookup derived
  // and the observed trace differs from it, a misprediction is counted. Key
  // digests the lookup left in `query` are reused, not derived again. The
  // shared-pointer overload stores the caller's result without copying it
  // (every key alias shares one payload); the by-value overload is a
  // convenience that wraps its argument.
  void Insert(const std::string& test_id, const std::string& plan_text,
              uint64_t trial, bool trial_insensitive,
              std::shared_ptr<const TestResult> result,
              const RunQuery* query = nullptr, std::string observed_trace = {});
  void Insert(const std::string& test_id, const std::string& plan_text,
              uint64_t trial, bool trial_insensitive, const TestResult& result,
              const RunQuery* query = nullptr, std::string observed_trace = {});

  // Test-only: inserts `result` under a forced 128-bit key with the given
  // legacy string, bypassing key derivation. Returns false when the insert
  // was rejected (same digest already present with a different legacy key —
  // the collision path under test).
  bool InsertAliasForTesting(Digest128 key, std::string legacy_key,
                             const TestResult& result);

  // By value: a reference into the struct would race with concurrent
  // updates. The copy is a consistent snapshot taken under the lock.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.hits = stats_.misses = 0;
    stats_.equiv_hits = stats_.mispredictions = 0;
  }

  Limits limits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return limits_;
  }
  void set_limits(Limits limits) {
    std::lock_guard<std::mutex> lock(mutex_);
    limits_ = limits;
    EnforceLimits();
  }

  // Persistence, for warm-starting repeated campaign invocations. The file
  // round-trips every entry (its SessionReport as stored: whole for a
  // pre-run, whose warm start feeds test generation, counters and flags for
  // a heterogeneous run) in recency order under its legacy string key, and
  // ends with a whole-file checksum line so a torn write (crash mid-save,
  // disk full) cannot masquerade as a valid cache. Load replaces the current
  // contents and re-derives each 128-bit key twice — from the whole string
  // and from its parsed components (the hot path's derivation) — rejecting
  // the file if they ever disagree: the gate that proves hashed and legacy
  // lookups stay interchangeable. A record under a wildcard or trace key
  // loads trial-insensitive (Insert writes those keys only for such runs),
  // so a warm start asks the cache no more than a cold campaign does; an
  // exact-key record loads trial-sensitive. Records under the retired
  // canonical-fingerprint tag ("C\x1f"), which older files carry, are
  // skipped: each such entry is stored under its trace key too. Stats are
  // not persisted. Both return false on I/O or parse failure; a failed load
  // leaves the cache empty — never half-loaded, never throwing — logs a
  // warning, and increments Stats::load_failures (except for a missing
  // file, which is the normal cold-start case). A warm start is an
  // optimization, so corruption degrades to a cold start, not a crash.
  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);

  // Legacy string keys: the persistence format, and the ground truth the
  // digests are defined over. Public so tests can prove the hashed/legacy
  // equivalence directly; campaign code never builds these on the hot path.
  static std::string ExactKey(const std::string& test_id, const std::string& plan_text,
                              uint64_t trial);
  static std::string WildcardKey(const std::string& test_id,
                                 const std::string& plan_text);
  static std::string TraceKey(const std::string& test_id, const std::string& trace);

  // Component-folded digests of exactly the strings above, no allocation.
  static Digest128 ExactRunKey(const std::string& test_id,
                               const std::string& plan_text, uint64_t trial);
  static Digest128 WildcardRunKey(const std::string& test_id,
                                  const std::string& plan_text);
  static Digest128 TraceRunKey(const std::string& test_id,
                               const std::string& trace);

  // Re-derives a persisted key's digest through the component folds above by
  // parsing the legacy shape. Returns false for a shape SaveToFile never
  // emits. LoadFromFile's hashed/legacy agreement gate.
  static bool DeriveComponentDigest(const std::string& key, Digest128* out);

 private:
  // One stored execution, shared by every key alias pointing at it (exact,
  // wildcard, trace): inserting under three keys costs one payload
  // allocation, and LookupShared serves by refcount bump instead of deep
  // copy. Immutable once inserted — that immutability is what makes sharing
  // across worker threads, and matching outside the lock, safe.
  struct Entry {
    std::shared_ptr<const TestResult> result;
    std::string observed_trace;  // empty when the run recorded no trace
    // The key-independent part of every alias's byte estimate, computed once
    // per entry before it is published.
    int64_t payload_bytes = 0;
  };

  struct Node {
    Digest128 key;
    std::string legacy_key;  // persistence form; also the collision check
    std::shared_ptr<const Entry> entry;
  };
  using LruList = std::list<Node>;

  struct KeyHash {
    size_t operator()(const Digest128& key) const {
      return static_cast<size_t>(key.lo);
    }
  };

  // A restriction-matching candidate copied out under the lock: the shared
  // entry keeps it alive while it is matched unlocked.
  struct Candidate {
    Digest128 key;
    std::shared_ptr<const Entry> entry;
  };

  // Newest-first, bounded: the runs restriction matching exists to collapse
  // (bisection re-probes, early-stopped failing paths) are re-queried shortly
  // after they were stored, so the most recent candidates catch them while
  // per-miss cost stays independent of corpus size. A candidate beyond the
  // cap only costs a re-execution, never a wrong serve.
  static constexpr size_t kMaxRestrictionCandidates = 64;

  static int64_t PayloadBytes(const TestResult& result,
                              const std::string& observed_trace);
  static int64_t NodeBytes(const std::string& legacy_key, const Entry& entry) {
    return static_cast<int64_t>(sizeof(Node) + legacy_key.size()) +
           entry.payload_bytes;
  }

  // The full lookup sequence (exact -> wildcard -> equivalence layers); see
  // the file comment for what runs under the lock. Counts exactly one of a
  // hit, an equiv hit, or a miss.
  std::shared_ptr<const Entry> LookupEntry(const std::string& test_id,
                                           const std::string& plan_text,
                                           uint64_t trial, RunQuery* query);

  // --- Callers hold mutex_ -------------------------------------------------

  // Returns the node for `key` and marks it most-recently-used.
  Node* Touch(Digest128 key);

  // Inserts `entry` under `key` unless the key is taken. A taken key with a
  // different legacy key is a 128-bit collision: both sides are dropped.
  // Returns true when inserted.
  bool InsertEntry(Digest128 key, std::string legacy_key,
                   const std::shared_ptr<const Entry>& entry);
  void EnforceLimits();

  // Copies this test's newest live trace-indexed entries, at most
  // kMaxRestrictionCandidates, for restriction matching outside the lock
  // (see PlanReproducesObservedTrace: any match is provably the execution
  // the plan would produce, so the first match serves).
  void SnapshotRestrictionCandidates(const std::string& test_id,
                                     std::vector<Candidate>* out) const;

  LruList lru_;  // front = most recently used
  std::unordered_map<Digest128, LruList::iterator, KeyHash> index_;
  // Trace-key registry per test, in insertion order; evicted keys are skipped
  // lazily (they no longer resolve through index_).
  std::unordered_map<std::string, std::vector<Digest128>> trace_keys_by_test_;
  Limits limits_;
  Stats stats_;
  // Guards every member above, and nothing else (see the file comment). Each
  // critical section leaves invariants like stats_.bytes == sum(NodeBytes)
  // intact at release.
  mutable std::mutex mutex_;
};

// Ambient cache consulted by RunUnitTest; nullptr disables memoization (the
// default). The installed pointer is thread-local, so each worker thread
// chooses its own cache — which may be the same shared RunCache object on
// every worker (the thread-pool scheduler does exactly that). The cache
// outlives the installation window; the installer retains ownership.
void SetGlobalRunCache(RunCache* cache);
RunCache* GlobalRunCache();

// RAII installation, exception-safe around a campaign run.
class ScopedRunCache {
 public:
  explicit ScopedRunCache(RunCache* cache) : previous_(GlobalRunCache()) {
    SetGlobalRunCache(cache);
  }
  ~ScopedRunCache() { SetGlobalRunCache(previous_); }
  ScopedRunCache(const ScopedRunCache&) = delete;
  ScopedRunCache& operator=(const ScopedRunCache&) = delete;

 private:
  RunCache* previous_;
};

}  // namespace zebra

#endif  // SRC_TESTKIT_RUN_CACHE_H_
