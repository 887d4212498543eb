#include "src/testkit/run_cache.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"
#include "src/conf/plan_equiv.h"

namespace zebra {

namespace {

thread_local RunCache* g_run_cache = nullptr;

// File-format escaping: entries are one logical value per line; only the
// newline and the escape character itself need protection (cache keys carry
// '\x1f'/'\x1e' separators, which are line-safe bytes).
std::string EscapeLine(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string UnescapeLine(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      ++i;
      out += text[i] == 'n' ? '\n' : text[i];
    } else {
      out += text[i];
    }
  }
  return out;
}

// SessionReport round-trip. Warm-started cache entries feed TestGenerator's
// pre-run consumption, so every field must survive. The blob is a small
// tag-prefixed line format; entities and parameter names never contain
// spaces, values (the tail of each line) may.
std::string SerializeSessionReport(const SessionReport& report) {
  std::ostringstream out;
  for (const auto& [type, count] : report.node_counts) {
    out << "node " << count << ' ' << type << '\n';
  }
  for (const auto& [entity, params] : report.reads) {
    for (const std::string& param : params) {
      out << "read " << entity << ' ' << param << '\n';
    }
  }
  for (const std::string& param : report.uncertain_params) {
    out << "uncertain " << param << '\n';
  }
  for (const std::string& element : report.trace_elements) {
    out << "trace " << element << '\n';
  }
  out << "counters " << report.conf_objects_created << ' ' << report.clones << ' '
      << report.ref_to_clones << ' ' << report.uncertain_conf_count << ' '
      << report.override_hits << '\n';
  out << "flags " << (report.conf_sharing_detected ? 1 : 0) << ' '
      << (report.any_conf_usage ? 1 : 0) << '\n';
  return out.str();
}

bool DeserializeSessionReport(const std::string& blob, SessionReport* report) {
  std::istringstream in(blob);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    size_t space = line.find(' ');
    if (space == std::string::npos) {
      return false;
    }
    std::string tag = line.substr(0, space);
    std::string rest = line.substr(space + 1);
    if (tag == "node") {
      size_t s = rest.find(' ');
      if (s == std::string::npos) {
        return false;
      }
      int64_t count = 0;
      if (!ParseInt64(rest.substr(0, s), &count)) {
        return false;
      }
      report->node_counts[rest.substr(s + 1)] = static_cast<int>(count);
    } else if (tag == "read") {
      size_t s = rest.find(' ');
      if (s == std::string::npos) {
        return false;
      }
      report->reads[rest.substr(0, s)].insert(rest.substr(s + 1));
    } else if (tag == "uncertain") {
      report->uncertain_params.insert(rest);
    } else if (tag == "trace") {
      report->trace_elements.insert(rest);
    } else if (tag == "counters") {
      std::istringstream fields(rest);
      if (!(fields >> report->conf_objects_created >> report->clones >>
            report->ref_to_clones >> report->uncertain_conf_count >>
            report->override_hits)) {
        return false;
      }
    } else if (tag == "flags") {
      int sharing = 0;
      int usage = 0;
      std::istringstream fields(rest);
      if (!(fields >> sharing >> usage)) {
        return false;
      }
      report->conf_sharing_detected = sharing != 0;
      report->any_conf_usage = usage != 0;
    } else {
      return false;
    }
  }
  return true;
}

// v2 added the trailing "C <fnv64 hex>" whole-file checksum line. v1 files
// (no checksum) are rejected as corrupt: the cache is an optimization, so a
// one-time cold start on upgrade is cheaper than trusting an unverifiable
// file. The hash-keyed index did not bump the version: keys are persisted in
// their legacy string form, so v2 files round-trip unchanged.
constexpr char kCacheFileMagic[] = "zebra-run-cache-v2";

// One-byte separators folded into key digests (string_view avoids the
// char overload ambiguity and keeps the fold identical to hashing the
// concatenated string).
constexpr std::string_view kSep = "\x1f";
constexpr std::string_view kSepStar = "\x1f*";
constexpr std::string_view kTraceTag = "T\x1f";
// The tag of the retired canonical-fingerprint index, whose records older
// cache files still carry; LoadFromFile skips them.
constexpr std::string_view kRetiredCanonicalTag = "C\x1f";

// The digest of test_id + '\x1f' + plan_text, which the exact and wildcard
// keys both extend: a lookup or insert folds the (long) plan text once.
Digest128 PlanKeyPrefix(const std::string& test_id, const std::string& plan_text) {
  Digest128 digest = HashFnv128(test_id);
  digest = HashFnv128(kSep, digest);
  return HashFnv128(plan_text, digest);
}

Digest128 ExactKeyFromPrefix(Digest128 prefix, uint64_t trial) {
  return HashFnv128Decimal(trial, HashFnv128(kSep, prefix));
}

Digest128 WildcardKeyFromPrefix(Digest128 prefix) {
  return HashFnv128(kSepStar, prefix);
}

// The wildcard and trace key shapes end in "\x1f*"; an exact key ends in its
// trial's digits.
bool EndsWithSepStar(const std::string& key) {
  return key.size() >= 2 && key[key.size() - 2] == '\x1f' && key.back() == '*';
}

}  // namespace

void SetGlobalRunCache(RunCache* cache) { g_run_cache = cache; }

RunCache* GlobalRunCache() { return g_run_cache; }

// '\x1f' (unit separator) cannot appear in test ids or plan fingerprints, so
// the concatenation is injective; the full string defines the key — the
// 128-bit digests below are digests *of these strings*, derived without
// materializing them. The trace namespace gets a distinct tag prefix so a
// trace can never collide with a plan fingerprint of the same text.
std::string RunCache::ExactKey(const std::string& test_id, const std::string& plan_text,
                               uint64_t trial) {
  return test_id + '\x1f' + plan_text + '\x1f' + std::to_string(trial);
}

std::string RunCache::WildcardKey(const std::string& test_id,
                                  const std::string& plan_text) {
  return test_id + '\x1f' + plan_text + "\x1f*";
}

std::string RunCache::TraceKey(const std::string& test_id, const std::string& trace) {
  return std::string("T\x1f") + test_id + '\x1f' + trace + "\x1f*";
}

// The component folds. FNV chains over concatenation, so each of these is
// byte-for-byte the digest of the matching legacy string above — the
// equivalence LoadFromFile's gate verifies on every persisted key.
Digest128 RunCache::ExactRunKey(const std::string& test_id,
                                const std::string& plan_text, uint64_t trial) {
  return ExactKeyFromPrefix(PlanKeyPrefix(test_id, plan_text), trial);
}

Digest128 RunCache::WildcardRunKey(const std::string& test_id,
                                   const std::string& plan_text) {
  return WildcardKeyFromPrefix(PlanKeyPrefix(test_id, plan_text));
}

Digest128 RunCache::TraceRunKey(const std::string& test_id,
                                const std::string& trace) {
  Digest128 digest = HashFnv128(kTraceTag);
  digest = HashFnv128(test_id, digest);
  digest = HashFnv128(kSep, digest);
  digest = HashFnv128(trace, digest);
  return HashFnv128(kSepStar, digest);
}

int64_t RunCache::PayloadBytes(const TestResult& result,
                               const std::string& observed_trace) {
  const SessionReport& report = result.report;
  int64_t bytes =
      static_cast<int64_t>(observed_trace.size() + result.failure.size());
  for (const auto& [type, count] : report.node_counts) {
    bytes += static_cast<int64_t>(type.size()) + 8;
  }
  for (const auto& [entity, params] : report.reads) {
    bytes += static_cast<int64_t>(entity.size());
    for (const std::string& param : params) {
      bytes += static_cast<int64_t>(param.size());
    }
  }
  for (const std::string& param : report.uncertain_params) {
    bytes += static_cast<int64_t>(param.size());
  }
  for (const std::string& element : report.trace_elements) {
    bytes += static_cast<int64_t>(element.size());
  }
  return bytes;
}

RunCache::Node* RunCache::Touch(Digest128 key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return &lru_.front();
}

bool RunCache::InsertEntry(Digest128 key, std::string legacy_key,
                           const std::shared_ptr<const Entry>& entry) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    // First result wins; identical by construction — unless the legacy keys
    // differ, which means two distinct runs digested to the same 128 bits.
    // Drop the stored entry too: neither logical key may be served through
    // an ambiguous digest (a re-execution is cheap, a wrong serve is not).
    if (it->second->legacy_key != legacy_key) {
      ++stats_.key_collisions;
      stats_.bytes -= NodeBytes(it->second->legacy_key, *it->second->entry);
      lru_.erase(it->second);
      index_.erase(it);
      --stats_.entries;
    }
    return false;
  }
  stats_.bytes += NodeBytes(legacy_key, *entry);
  lru_.push_front(Node{key, std::move(legacy_key), entry});
  index_[key] = lru_.begin();
  ++stats_.entries;
  EnforceLimits();
  return true;
}

void RunCache::SnapshotRestrictionCandidates(const std::string& test_id,
                                             std::vector<Candidate>* out) const {
  auto keys_it = trace_keys_by_test_.find(test_id);
  if (keys_it == trace_keys_by_test_.end()) {
    return;
  }
  const std::vector<Digest128>& keys = keys_it->second;
  out->reserve(std::min(keys.size(), kMaxRestrictionCandidates));
  for (auto key = keys.rbegin();
       key != keys.rend() && out->size() < kMaxRestrictionCandidates; ++key) {
    auto it = index_.find(*key);
    if (it == index_.end()) {
      continue;  // evicted since registration
    }
    out->push_back(Candidate{*key, it->second->entry});
  }
}

void RunCache::EnforceLimits() {
  while (!lru_.empty() &&
         ((limits_.max_entries > 0 && stats_.entries > limits_.max_entries) ||
          (limits_.max_bytes > 0 && stats_.bytes > limits_.max_bytes))) {
    const Node& node = lru_.back();
    stats_.bytes -= NodeBytes(node.legacy_key, *node.entry);
    index_.erase(node.key);
    lru_.pop_back();
    --stats_.entries;
    ++stats_.evictions;
  }
}

std::shared_ptr<const TestResult> RunCache::LookupShared(
    const std::string& test_id, const std::string& plan_text, uint64_t trial,
    RunQuery* query) {
  std::shared_ptr<const Entry> entry = LookupEntry(test_id, plan_text, trial, query);
  // The payload is immutable and outlives any eviction, so the caller's
  // pointer is safe without a copy.
  return entry == nullptr ? nullptr : entry->result;
}

std::shared_ptr<const RunCache::Entry> RunCache::LookupEntry(
    const std::string& test_id, const std::string& plan_text, uint64_t trial,
    RunQuery* query) {
  const Digest128 prefix = PlanKeyPrefix(test_id, plan_text);
  const Digest128 wildcard_key = WildcardKeyFromPrefix(prefix);
  const Digest128 exact_key = ExactKeyFromPrefix(prefix, trial);
  if (query != nullptr) {
    query->keyed = true;
    query->prefix = prefix;
  }
  const bool use_equiv =
      query != nullptr && query->surface != nullptr && query->plan != nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Node* node = Touch(wildcard_key)) {
      ++stats_.hits;
      return node->entry;
    }
    if (Node* node = Touch(exact_key)) {
      ++stats_.hits;
      return node->entry;
    }
    if (!use_equiv) {
      ++stats_.misses;
      return nullptr;
    }
  }

  // Derive the predicted trace only now, past the exact fast path (exact
  // hits pay nothing for the layer), and outside the lock.
  if (!query->computed) {
    query->surface->PredictTrace(*query->plan, &query->predicted_trace);
    query->trace_key = TraceRunKey(test_id, query->predicted_trace);
    query->computed = true;
  }
  // Filled under the lock, matched after it.
  std::vector<Candidate> candidates;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Trace index fast path: the key *is* the stored execution's observed
    // trace, so a hit is self-validating — predicted == observed by key
    // equality.
    if (Node* node = Touch(query->trace_key)) {
      ++stats_.equiv_hits;
      return node->entry;
    }
    // Restriction matching: the full-trace key misses whenever the stored
    // execution stopped early (its observed trace is a strict prefix of any
    // full prediction), so this test's stored traces are scanned for one
    // this plan reproduces element for element — after the lock is dropped.
    SnapshotRestrictionCandidates(test_id, &candidates);
    if (candidates.empty()) {
      ++stats_.misses;
      return nullptr;
    }
  }
  for (const Candidate& candidate : candidates) {
    if (PlanReproducesObservedTrace(*query->plan, candidate.entry->observed_trace,
                                    query->predicted_trace)) {
      std::lock_guard<std::mutex> lock(mutex_);
      // Evicted since the snapshot? The shared entry is still the validated
      // execution; only the recency splice is moot.
      Touch(candidate.key);
      ++stats_.equiv_hits;
      return candidate.entry;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  return nullptr;
}

void RunCache::Insert(const std::string& test_id, const std::string& plan_text,
                      uint64_t trial, bool trial_insensitive,
                      std::shared_ptr<const TestResult> result,
                      const RunQuery* query, std::string observed_trace) {
  // Everything but the index update happens before the lock: the payload and
  // its byte estimate, then every alias's digest and legacy key, in the
  // order they are inserted. A digest the lookup left in `query` is reused.
  auto entry = std::make_shared<Entry>();
  entry->result = std::move(result);
  entry->observed_trace = std::move(observed_trace);
  entry->payload_bytes = PayloadBytes(*entry->result, entry->observed_trace);
  const std::shared_ptr<const Entry> shared = std::move(entry);
  const std::string& observed = shared->observed_trace;
  const RunQuery* equiv = query != nullptr && query->computed ? query : nullptr;

  struct Alias {
    Digest128 key;
    std::string legacy_key;
    bool trace = false;  // registered for restriction matching once inserted
  };
  Alias aliases[3];
  size_t alias_count = 0;
  bool mispredicted = false;
  const Digest128 prefix = query != nullptr && query->keyed
                               ? query->prefix
                               : PlanKeyPrefix(test_id, plan_text);
  aliases[alias_count++] = {ExactKeyFromPrefix(prefix, trial),
                            ExactKey(test_id, plan_text, trial)};
  // Trial-sensitive executions are never shared across trials or plans: the
  // RNG seed folds in the plan description, so different descriptions
  // legitimately diverge.
  if (trial_insensitive) {
    aliases[alias_count++] = {WildcardKeyFromPrefix(prefix),
                              WildcardKey(test_id, plan_text)};
    // Index by what the execution actually observed — always truthful, and
    // deliberately not gated on `equiv`: the pre-run baseline executes
    // before the unit's ReadSurface exists, yet must be reachable by plans
    // that later collapse to it.
    if (!observed.empty()) {
      const bool as_predicted =
          equiv != nullptr && equiv->predicted_trace == observed;
      aliases[alias_count++] = {
          as_predicted ? equiv->trace_key : TraceRunKey(test_id, observed),
          TraceKey(test_id, observed), /*trace=*/true};
      // The pre-run promise was broken for this plan: a value-gated read
      // appeared or a promised read vanished.
      mispredicted = equiv != nullptr && !as_predicted;
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < alias_count; ++i) {
    Alias& alias = aliases[i];
    if (InsertEntry(alias.key, std::move(alias.legacy_key), shared) &&
        alias.trace) {
      trace_keys_by_test_[test_id].push_back(alias.key);
    }
  }
  if (mispredicted) {
    ++stats_.mispredictions;
  }
}

void RunCache::Insert(const std::string& test_id, const std::string& plan_text,
                      uint64_t trial, bool trial_insensitive,
                      const TestResult& result, const RunQuery* query,
                      std::string observed_trace) {
  Insert(test_id, plan_text, trial, trial_insensitive,
         std::make_shared<const TestResult>(result), query,
         std::move(observed_trace));
}

bool RunCache::InsertAliasForTesting(Digest128 key, std::string legacy_key,
                                     const TestResult& result) {
  auto entry = std::make_shared<Entry>();
  entry->result = std::make_shared<const TestResult>(result);
  entry->payload_bytes = PayloadBytes(*entry->result, entry->observed_trace);
  std::lock_guard<std::mutex> lock(mutex_);
  return InsertEntry(key, std::move(legacy_key), entry);
}

bool RunCache::SaveToFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  // Every content line folds into a running digest; the trailing checksum
  // line lets LoadFromFile reject a torn or bit-flipped file wholesale.
  uint64_t digest = kFnv64Seed;
  auto emit = [&out, &digest](const std::string& line) {
    digest = HashFnv64(line, digest);
    out << line << '\n';
  };
  emit(kCacheFileMagic);
  emit(Int64ToString(static_cast<int64_t>(lru_.size())));
  // Front-to-back = most-to-least recent; LoadFromFile rebuilds in order.
  // Keys persist in their legacy string form, so the format is independent
  // of the in-memory digest scheme.
  for (const Node& node : lru_) {
    const Entry& entry = *node.entry;
    emit("K " + EscapeLine(node.legacy_key));
    emit(std::string("P ") + (entry.result->passed ? "1" : "0"));
    emit("F " + EscapeLine(entry.result->failure));
    emit("T " + EscapeLine(entry.observed_trace));
    emit("R " + EscapeLine(SerializeSessionReport(entry.result->report)));
  }
  out << "C " << HashToHex(digest) << '\n';
  return static_cast<bool>(out);
}

// Re-derives a persisted key's digest through the same component folds the
// hot path uses (parsing the legacy shape: tagged trace keys, then
// exact/wildcard). Returns false for a shape SaveToFile never emits.
bool RunCache::DeriveComponentDigest(const std::string& key, Digest128* out) {
  if (key.rfind(kTraceTag, 0) == 0) {
    size_t id_end = key.find('\x1f', 2);
    if (id_end == std::string::npos || !EndsWithSepStar(key) ||
        id_end + 1 > key.size() - 2) {
      return false;
    }
    const std::string test_id = key.substr(2, id_end - 2);
    const std::string payload =
        key.substr(id_end + 1, key.size() - 2 - (id_end + 1));
    *out = TraceRunKey(test_id, payload);
    return true;
  }
  size_t id_end = key.find('\x1f');
  size_t tail_sep = key.rfind('\x1f');
  if (id_end == std::string::npos || tail_sep == id_end) {
    return false;
  }
  const std::string test_id = key.substr(0, id_end);
  const std::string plan_text =
      key.substr(id_end + 1, tail_sep - id_end - 1);
  const std::string tail = key.substr(tail_sep + 1);
  if (tail == "*") {
    *out = WildcardRunKey(test_id, plan_text);
    return true;
  }
  int64_t trial = 0;
  if (!ParseInt64(tail, &trial) || trial < 0) {
    return false;
  }
  *out = ExactRunKey(test_id, plan_text, static_cast<uint64_t>(trial));
  return true;
}

bool RunCache::LoadFromFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ifstream in(path);
  if (!in) {
    return false;  // missing file: the normal cold start, not a failure
  }
  lru_.clear();
  index_.clear();
  trace_keys_by_test_.clear();
  stats_.entries = 0;
  stats_.bytes = 0;

  // Any defect — bad magic, torn tail, checksum mismatch, unparseable entry,
  // hashed/legacy key divergence — lands here: the cache degrades to empty
  // (a cold start) instead of throwing or keeping a half-loaded state.
  auto reject = [this, &path](const char* why) {
    ZLOG_WARN << "run cache: ignoring " << path << " (" << why
              << "); starting cold";
    lru_.clear();
    index_.clear();
    trace_keys_by_test_.clear();
    stats_.entries = 0;
    stats_.bytes = 0;
    ++stats_.load_failures;
    return false;
  };

  uint64_t digest = kFnv64Seed;
  std::string line;
  auto next_line = [&in, &line, &digest]() {
    if (!std::getline(in, line)) {
      return false;
    }
    digest = HashFnv64(line, digest);
    return true;
  };

  if (!next_line() || line != kCacheFileMagic) {
    return reject("not a run-cache file or unsupported version");
  }
  int64_t count = 0;
  if (!next_line() || !ParseInt64(line, &count) || count < 0) {
    return reject("corrupt entry count");
  }
  auto read_field = [&next_line, &line](char tag, std::string* value) {
    if (!next_line() || line.size() < 2 || line[0] != tag || line[1] != ' ') {
      return false;
    }
    *value = UnescapeLine(line.substr(2));
    return true;
  };
  for (int64_t i = 0; i < count; ++i) {
    std::string key;
    std::string passed;
    auto result = std::make_shared<TestResult>();
    auto entry = std::make_shared<Entry>();
    std::string blob;
    if (!read_field('K', &key) || !read_field('P', &passed) ||
        !read_field('F', &result->failure) ||
        !read_field('T', &entry->observed_trace) || !read_field('R', &blob) ||
        !DeserializeSessionReport(blob, &result->report)) {
      return reject("truncated or corrupt entry");
    }
    if (key.rfind(kRetiredCanonicalTag, 0) == 0) {
      // Parsed as exact/wildcard, this key would pass the gate below as a
      // wildcard entry of a test named "C" and be saved again forever. The
      // run it holds is also recorded under its trace key.
      continue;
    }
    result->passed = passed == "1";
    // Insert stores the wildcard and trace aliases of trial-insensitive runs
    // only, so a record under one of them carries that proof; an exact
    // record stays trial-sensitive.
    result->trial_sensitive = !EndsWithSepStar(key);
    entry->result = std::move(result);
    entry->payload_bytes = PayloadBytes(*entry->result, entry->observed_trace);
    // The hashed/legacy agreement gate: the digest of the whole persisted
    // string must equal the digest the hot path would fold from its
    // components. A divergence means the two lookup schemes would disagree
    // at runtime, so the file is rejected wholesale.
    const Digest128 whole_key = HashFnv128(key);
    Digest128 component_key;
    if (!DeriveComponentDigest(key, &component_key) ||
        component_key != whole_key) {
      return reject("hashed/legacy key divergence");
    }
    if (auto existing = index_.find(whole_key); existing != index_.end()) {
      if (existing->second->legacy_key == key) {
        continue;  // duplicate record; first (most recent) wins
      }
      // A 128-bit collision inside one file: drop both sides, as at insert.
      ++stats_.key_collisions;
      stats_.bytes -=
          NodeBytes(existing->second->legacy_key, *existing->second->entry);
      lru_.erase(existing->second);
      index_.erase(existing);
      --stats_.entries;
      continue;
    }
    // File order is most-to-least recent; append keeps it.
    stats_.bytes += NodeBytes(key, *entry);
    lru_.push_back(Node{whole_key, key, std::move(entry)});
    auto it = std::prev(lru_.end());
    index_[whole_key] = it;
    ++stats_.entries;
    // Re-register trace-indexed entries ("T\x1f" + test_id + '\x1f' + ...)
    // for restriction matching.
    if (key.rfind(kTraceTag, 0) == 0) {
      size_t id_end = key.find('\x1f', 2);
      if (id_end != std::string::npos) {
        trace_keys_by_test_[key.substr(2, id_end - 2)].push_back(whole_key);
      }
    }
  }
  // The checksum line covers everything above it (it is not folded into the
  // digest itself).
  uint64_t content_digest = digest;
  if (!std::getline(in, line) || line != "C " + HashToHex(content_digest)) {
    return reject("checksum mismatch (torn or tampered file)");
  }
  // The file lists entries most recent first; restriction matching walks a
  // test's registry from its back for the newest candidates.
  for (auto& [test_id, keys] : trace_keys_by_test_) {
    std::reverse(keys.begin(), keys.end());
  }
  EnforceLimits();
  return true;
}

}  // namespace zebra
