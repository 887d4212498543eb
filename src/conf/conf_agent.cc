#include "src/conf/conf_agent.h"

#include "src/common/error.h"
#include "src/common/logging.h"
#include "src/conf/configuration.h"
#include "src/conf/plan_equiv.h"

namespace zebra {

namespace {
constexpr char kUncertainEntity[] = "@uncertain";

// Conf ids are allocated process-wide so they never collide across worker
// agents (a conf created under one agent may be observed — as uncertain
// usage — under another).
std::atomic<uint64_t> g_next_conf_id{0};

// The agent installed on this thread by ScopedThreadConfAgent, if any.
thread_local ConfAgent* t_current_agent = nullptr;
}  // namespace

int SessionReport::TotalNodes() const {
  int total = 0;
  for (const auto& [type, count] : node_counts) {
    total += count;
  }
  return total;
}

std::set<std::string> SessionReport::ParamsReadBy(const std::string& entity) const {
  auto it = reads.find(entity);
  if (it == reads.end()) {
    return {};
  }
  return it->second;
}

std::set<std::string> SessionReport::AllParamsRead() const {
  std::set<std::string> all;
  for (const auto& [entity, params] : reads) {
    all.insert(params.begin(), params.end());
  }
  all.insert(uncertain_params.begin(), uncertain_params.end());
  return all;
}

ConfAgent& ConfAgent::Instance() {
  static ConfAgent* agent = new ConfAgent();
  return *agent;
}

ConfAgent& ConfAgent::Current() {
  return t_current_agent != nullptr ? *t_current_agent : Instance();
}

uint64_t ConfAgent::NextConfId() { return g_next_conf_id.fetch_add(1) + 1; }

ScopedThreadConfAgent::ScopedThreadConfAgent() : previous_(t_current_agent) {
  t_current_agent = &agent_;
}

ScopedThreadConfAgent::~ScopedThreadConfAgent() { t_current_agent = previous_; }

const ConfAgent::ReadMemo::Slot* ConfAgent::ReadMemo::Find(
    uint64_t conf_id, std::string_view name) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(conf_id, name);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.generation != generation_) {
      return nullptr;  // live slots never leave holes within a generation
    }
    if (slot.conf_id == conf_id && slot.name == name) {
      return &slot;
    }
  }
}

void ConfAgent::ReadMemo::Insert(uint64_t conf_id, std::string_view name,
                                 std::string_view interned,
                                 const std::string* value) {
  // Keep the load at most one half so every probe ends at a free slot.
  if (2 * (live_ + 1) > slots_.size()) {
    if (slots_.size() < kMaxSlots) {
      slots_.assign(2 * slots_.size(), Slot{});
      live_ = 0;
    } else {
      Clear();
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t i = Home(conf_id, name);
  while (slots_[i].generation == generation_) {
    i = (i + 1) & mask;
  }
  slots_[i] = Slot{conf_id, interned, value, generation_};
  ++live_;
}

void ConfAgent::ReadMemo::Clear() {
  live_ = 0;
  if (++generation_ == 0) {
    // Wrapped: a slot last written 2^32 clears ago would read as live.
    slots_.assign(slots_.size(), Slot{});
    generation_ = 1;
  }
}

size_t ConfAgent::ReadMemo::Home(uint64_t conf_id, std::string_view name) const {
  // The caller's pointer stands in for the name bytes; the bytes are compared
  // on a hit, never hashed. SplitMix64's finalizer spreads sequential ids and
  // aligned pointers over the low bits the mask keeps.
  uint64_t key = conf_id * 0x9E3779B97F4A7C15ULL ^
                 reinterpret_cast<uintptr_t>(name.data()) ^
                 (static_cast<uint64_t>(name.size()) << 48);
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ULL;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<size_t>(key ^ (key >> 31)) & (slots_.size() - 1);
}

void ConfAgent::ClearMemosLocked() {
  get_memo_.Clear();
  has_memo_.Clear();
}

void ConfAgent::BeginSession(TestPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ != nullptr) {
    throw InternalError("ConfAgent session already active; sessions must be serialized");
  }
  ClearMemosLocked();
  session_ = std::make_unique<Session>();
  session_->owned_plan = std::move(plan);
  session_->plan = &session_->owned_plan;
  in_session_.store(true, std::memory_order_release);
}

void ConfAgent::BeginSessionBorrowed(const TestPlan* plan,
                                     SessionRecording recording) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ != nullptr) {
    throw InternalError("ConfAgent session already active; sessions must be serialized");
  }
  ClearMemosLocked();
  session_ = std::make_unique<Session>();
  session_->plan = plan != nullptr ? plan : &session_->owned_plan;
  session_->record_reads = recording == SessionRecording::kFull;
  session_->record_trace = recording != SessionRecording::kVerdictOnly;
  in_session_.store(true, std::memory_order_release);
}

SessionReport ConfAgent::EndSession() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    throw InternalError("ConfAgent::EndSession without an active session");
  }
  SessionReport report = std::move(session_->report);
  report.uncertain_conf_count = static_cast<int>(session_->uncertain_conf_ids.size());
  for (const auto& [type, count] : session_->type_counts) {
    report.node_counts[type] = count;
  }
  session_.reset();
  in_session_.store(false, std::memory_order_release);
  return report;
}

void ConfAgent::StartInit(uint64_t node_ptr, const std::string& node_type) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  NodeInfo info;
  info.node_id = node_ptr;
  info.node_type = node_type;
  info.node_index = session_->type_counts[node_type]++;
  session_->node_table[node_ptr] = info;
  session_->thread_context[std::this_thread::get_id()].push_back(node_ptr);
}

void ConfAgent::StopInit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  auto it = session_->thread_context.find(std::this_thread::get_id());
  if (it == session_->thread_context.end() || it->second.empty()) {
    ZLOG_WARN << "ConfAgent::StopInit without a matching StartInit on this thread";
    return;
  }
  it->second.pop_back();
  if (it->second.empty()) {
    session_->thread_context.erase(it);
  }
}

void ConfAgent::NewConf(uint64_t conf_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  ++session_->report.conf_objects_created;
  // Rule 1.1: created while a node's init function is executing on this thread.
  auto ctx = session_->thread_context.find(std::this_thread::get_id());
  if (ctx != session_->thread_context.end() && !ctx->second.empty()) {
    uint64_t node_id = ctx->second.back();
    session_->conf_to_node[conf_id] = node_id;
    session_->node_table[node_id].conf_ids.push_back(conf_id);
    return;
  }
  // Rule 1.2: created before any node has initialized.
  if (session_->node_table.empty()) {
    session_->unit_test_conf_ids.insert(conf_id);
    return;
  }
  // Otherwise we cannot map it.
  session_->uncertain_conf_ids.insert(conf_id);
}

void ConfAgent::CloneConf(uint64_t orig_id, uint64_t clone_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  ++session_->report.conf_objects_created;
  ++session_->report.clones;
  session_->child_to_parent[clone_id] = orig_id;
  // Rule 3: the clone belongs to the same entity as the original.
  auto node_it = session_->conf_to_node.find(orig_id);
  if (node_it != session_->conf_to_node.end()) {
    session_->conf_to_node[clone_id] = node_it->second;
    session_->node_table[node_it->second].conf_ids.push_back(clone_id);
    return;
  }
  if (session_->unit_test_conf_ids.count(orig_id) > 0) {
    session_->unit_test_conf_ids.insert(clone_id);
    return;
  }
  // Neither side is known: both are uncertain (the original may have been
  // created outside the session or is itself unmapped).
  session_->uncertain_conf_ids.insert(orig_id);
  session_->uncertain_conf_ids.insert(clone_id);
}

void ConfAgent::PromoteToUnitTestLocked(uint64_t conf_id) {
  // Promotion changes the resolution of already-read confs: their memoized
  // decisions (and recorded-presence markers) are stale. Promotions are a
  // handful per run; dropping both memos wholesale is cheap and obviously
  // correct.
  ClearMemosLocked();
  uint64_t current = conf_id;
  // Walk the clone chain upward, promoting any uncertain ancestor.
  for (int depth = 0; depth < 64; ++depth) {
    if (session_->conf_to_node.count(current) == 0) {
      session_->uncertain_conf_ids.erase(current);
      session_->unit_test_conf_ids.insert(current);
    }
    auto parent_it = session_->child_to_parent.find(current);
    if (parent_it == session_->child_to_parent.end()) {
      break;
    }
    current = parent_it->second;
  }
}

void ConfAgent::RefToCloneConf(uint64_t orig_id, uint64_t clone_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  ++session_->report.conf_objects_created;
  ++session_->report.ref_to_clones;
  session_->child_to_parent[clone_id] = orig_id;

  // Rule 2: the clone belongs to the node whose init function is executing.
  auto ctx = session_->thread_context.find(std::this_thread::get_id());
  if (ctx == session_->thread_context.end() || ctx->second.empty()) {
    ZLOG_WARN << "refToCloneConf called outside a node initialization function";
    session_->uncertain_conf_ids.insert(clone_id);
  } else {
    uint64_t node_id = ctx->second.back();
    session_->conf_to_node[clone_id] = node_id;
    NodeInfo& node = session_->node_table[node_id];
    node.conf_ids.push_back(clone_id);
    node.parent_conf_id = orig_id;
  }

  // Rule 2 + Rule 3 back-propagation: the original (and its uncertain
  // ancestors) belong to the unit test.
  if (session_->conf_to_node.count(orig_id) == 0) {
    PromoteToUnitTestLocked(orig_id);
    session_->report.conf_sharing_detected = true;
  } else {
    ZLOG_WARN << "refToCloneConf original already belongs to a node; leaving mapping";
  }
}

std::optional<std::string_view> ConfAgent::ResolveEntityLocked(
    uint64_t conf_id, int* node_index) const {
  if (node_index != nullptr) {
    *node_index = -1;
  }
  auto node_it = session_->conf_to_node.find(conf_id);
  if (node_it != session_->conf_to_node.end()) {
    const NodeInfo& node = session_->node_table.at(node_it->second);
    if (node_index != nullptr) {
      *node_index = node.node_index;
    }
    return node.node_type;
  }
  if (session_->unit_test_conf_ids.count(conf_id) > 0) {
    return std::string_view(kClientEntity);
  }
  if (session_->uncertain_conf_ids.count(conf_id) > 0) {
    return std::string_view(kUncertainEntity);
  }
  return std::nullopt;
}

std::string_view ConfAgent::InternLocked(std::string_view name) {
  return intern_.Intern(name);
}

void ConfAgent::RecordBufferLocked(std::set<std::string>* set) {
  auto it = set->lower_bound(record_buffer_);
  if (it == set->end() || *it != record_buffer_) {
    set->emplace_hint(it, record_buffer_);
  }
}

const std::string* ConfAgent::InterceptGet(uint64_t conf_id, std::string_view name) {
  if (!InSession()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return nullptr;
  }
  SessionReport& report = session_->report;
  report.any_conf_usage = true;

  // Steady state: every read after the first of a (conf, param) pair is one
  // memo probe — no intern-table lookup, no entity resolution, no plan
  // lookup, no trace-element construction (set inserts are idempotent; only
  // per-call counters remain).
  if (const ReadMemo::Slot* slot = get_memo_.Find(conf_id, name); slot != nullptr) {
    if (slot->value != nullptr) {
      ++report.override_hits;
    }
    return slot->value;
  }

  // First read of this (conf, param) pair. A recording session renders each
  // string it records into the agent's buffer and copies it into its set
  // only when new; a verdict-only one renders nothing.
  const std::string_view interned = InternLocked(name);
  int node_index = -1;
  std::optional<std::string_view> entity = ResolveEntityLocked(conf_id, &node_index);
  if (!entity.has_value() || *entity == kUncertainEntity) {
    // Either a conf created outside the session (e.g. a process-global
    // default) or one we could not map — both are uncertain usage. Uncertain
    // confs never receive overrides, so the trace marker is plan-invariant
    // and the memoized decision is stable.
    if (session_->record_reads) {
      record_buffer_.assign(interned);
      RecordBufferLocked(&report.uncertain_params);
    }
    if (session_->record_trace) {
      TraceUncertainElement(&record_buffer_, interned);
      RecordBufferLocked(&report.trace_elements);
    }
    get_memo_.Insert(conf_id, name, interned, nullptr);
    return nullptr;
  }

  // Only node-owned and unit-test-owned confs receive plan values.
  int index = (*entity == kClientEntity) ? 0 : node_index;
  const std::string* assigned = session_->plan->Lookup(interned, *entity, index);
  if (session_->record_reads) {
    record_buffer_.assign(interned);
    RecordBufferLocked(&report.reads[std::string(*entity)]);
  }
  if (session_->record_trace) {
    TraceReadElement(&record_buffer_, *entity, index, interned, assigned);
    RecordBufferLocked(&report.trace_elements);
  }
  get_memo_.Insert(conf_id, name, interned, assigned);
  if (assigned != nullptr) {
    ++report.override_hits;
  }
  return assigned;
}

void ConfAgent::InterceptHas(uint64_t conf_id, std::string_view name) {
  if (!InSession()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr || !session_->record_trace) {
    return;
  }
  // A presence check is pure recording; once the trace element for this
  // (conf, param) pair exists, repeats are no-ops. Probe with the caller's
  // buffer first (steady state skips interning); intern only when recording.
  if (has_memo_.Find(conf_id, name) != nullptr) {
    return;
  }
  const std::string_view interned = InternLocked(name);
  has_memo_.Insert(conf_id, name, interned, nullptr);
  int node_index = -1;
  std::optional<std::string_view> entity = ResolveEntityLocked(conf_id, &node_index);
  if (!entity.has_value() || *entity == kUncertainEntity) {
    TraceUncertainElement(&record_buffer_, interned);
  } else {
    int index = (*entity == kClientEntity) ? 0 : node_index;
    const std::string* assigned = session_->plan->Lookup(interned, *entity, index);
    TraceHasElement(&record_buffer_, *entity, index, interned, assigned);
  }
  RecordBufferLocked(&session_->report.trace_elements);
}

void ConfAgent::InterceptSet(uint64_t conf_id, const std::string& name,
                             const std::string& value) {
  if (!InSession()) {
    return;
  }
  Configuration* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (session_ == nullptr) {
      return;
    }
    auto node_it = session_->conf_to_node.find(conf_id);
    if (node_it == session_->conf_to_node.end()) {
      return;
    }
    const NodeInfo& node = session_->node_table.at(node_it->second);
    if (node.parent_conf_id == 0) {
      return;
    }
    auto registry_it = conf_registry_.find(node.parent_conf_id);
    if (registry_it == conf_registry_.end()) {
      return;
    }
    parent = registry_it->second;
  }
  // Write back into the parent so that unit-test code which expects the node
  // to fill values into the shared conf still observes them (paper §6.3).
  // SetRaw bypasses interception to avoid recursion.
  parent->SetRaw(name, value);
}

void ConfAgent::RegisterConfObject(uint64_t conf_id, Configuration* conf) {
  std::lock_guard<std::mutex> lock(mutex_);
  conf_registry_[conf_id] = conf;
}

void ConfAgent::UnregisterConfObject(uint64_t conf_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  conf_registry_.erase(conf_id);
}

std::optional<std::string> ConfAgent::EntityOf(uint64_t conf_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return std::nullopt;
  }
  std::optional<std::string_view> entity = ResolveEntityLocked(conf_id, nullptr);
  if (!entity.has_value()) {
    return std::nullopt;
  }
  return std::string(*entity);
}

int ConfAgent::NodeIndexOf(uint64_t conf_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return -1;
  }
  int index = -1;
  ResolveEntityLocked(conf_id, &index);
  return index;
}

}  // namespace zebra
