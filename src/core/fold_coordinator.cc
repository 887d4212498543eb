#include "src/core/fold_coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>

#include "src/common/logging.h"

namespace zebra {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

FoldCoordinator::FoldCoordinator(const ConfSchema& schema,
                                 const UnitTestRegistry& corpus,
                                 CampaignOptions options,
                                 const FoldOptions& fold, std::string name)
    : name_(std::move(name)),
      start_seconds_(SteadySeconds()),
      abort_after_folds_(fold.abort_after_folds),
      engine_(schema, corpus, std::move(options)),
      folder_(schema, engine_.options()) {
  const std::vector<std::string>& apps = engine_.options().apps;
  units_per_app_.assign(apps.size(), 0);
  for (size_t app_index = 0; app_index < apps.size(); ++app_index) {
    for (const UnitTestDef* test : corpus.ForApp(apps[app_index])) {
      units_.push_back(WorkUnit{app_index, test});
      ++units_per_app_[app_index];
    }
  }

  // Replay before anything is dispatched, so what is left to run is exactly
  // the uninterrupted campaign's suffix; replayed and live results go
  // through one fold.
  if (!fold.journal_path.empty()) {
    journal_ = std::make_unique<CampaignJournal>(
        fold.journal_path, CampaignJournal::Fingerprint(engine_.options(), corpus),
        fold.resume, CampaignJournal::SyncPolicy{fold.journal_sync_batch});
    for (const auto& [index, unit] : journal_->recovered()) {
      if (index != cursor_ || cursor_ >= units_.size()) {
        ZLOG_WARN << "campaign journal: record out of canonical order; "
                     "ignoring the rest of the recovered prefix";
        break;
      }
      BeginAppsThrough(units_[cursor_].app_index + 1);
      folder_.Fold(unit);
      ++cursor_;
      ++resumed_units_;
    }
    if (resumed_units_ > 0) {
      ZLOG_INFO << "campaign journal: resumed " << resumed_units_ << " of "
                << units_.size() << " units from " << fold.journal_path;
    }
  }

  attempts_.assign(units_.size(), 0);
  not_before_.assign(units_.size(), 0.0);
  for (size_t i = cursor_; i < units_.size(); ++i) {
    queue_.push_back(i);
  }
}

bool FoldCoordinator::Active() {
  if (stopped_ || cursor_ >= units_.size()) {
    return false;
  }
  const volatile std::sig_atomic_t* cancel = options().cancel_flag;
  if (cancel != nullptr && *cancel != 0) {
    ZLOG_WARN << name_ << ": cancellation requested; stopping after "
              << cursor_ << " of " << units_.size() << " units";
    stopped_ = true;
    return false;
  }
  return true;
}

bool FoldCoordinator::TakeNext(size_t* unit, double* release) {
  const double now = SteadySeconds();
  double earliest = -1.0;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (not_before_[*it] <= now) {
      *unit = *it;
      queue_.erase(it);
      return true;
    }
    earliest = earliest < 0 ? not_before_[*it] : std::min(earliest, not_before_[*it]);
  }
  if (release != nullptr) {
    *release = earliest;
  }
  return false;
}

void FoldCoordinator::Requeue(std::vector<size_t> units, bool charge) {
  const CampaignOptions& resolved = options();
  const double now = SteadySeconds();
  // Descending push_front leaves the wave in canonical order at the head.
  std::sort(units.rbegin(), units.rend());
  for (size_t unit : units) {
    if (charge) {
      const int failed = ++attempts_[unit];
      if (failed >= resolved.unit_attempt_limit) {
        ZLOG_WARN << name_ << ": unit " << units_[unit].test->id << " failed "
                  << failed << " attempts; quarantining as poisoned";
        poisoned_.insert(unit);
        continue;
      }
      double backoff = std::min(resolved.requeue_backoff_cap_seconds,
                                resolved.requeue_backoff_seconds *
                                    std::pow(2.0, failed - 1));
      not_before_[unit] = now + std::max(0.0, backoff);
    }
    queue_.push_front(unit);
    ++requeued_units_;
  }
}

void FoldCoordinator::Confirm(size_t unit, const std::string& param) {
  auto [entry, inserted] = pending_.try_emplace(unit);
  if (inserted) {
    entry->second.test_id = units_[unit].test->id;
  }
  entry->second.confirmed.push_back(param);
}

void FoldCoordinator::Withdraw(size_t unit) { pending_.erase(unit); }

std::set<std::string> FoldCoordinator::Project(size_t unit) const {
  return folder_.ProjectGloballyUnsafe(pending_, unit);
}

void FoldCoordinator::Buffer(size_t unit, UnitWorkResult result,
                             std::set<std::string> snapshot) {
  buffered_[unit] = BufferedResult{std::move(result), std::move(snapshot)};
}

void FoldCoordinator::Advance() {
  while (cursor_ < units_.size() && !stopped_) {
    if (poisoned_.count(cursor_) > 0) {
      UnitWorkResult stub;
      stub.app = options().apps[units_[cursor_].app_index];
      stub.test_id = units_[cursor_].test->id;
      FoldAtCursor(std::move(stub));
      continue;
    }
    auto it = buffered_.find(cursor_);
    if (it == buffered_.end() ||
        folder_.CheckSnapshot(it->second.unit, it->second.snapshot) !=
            CampaignFolder::SnapshotCheck::kAgrees) {
      break;
    }
    UnitWorkResult unit = std::move(it->second.unit);
    buffered_.erase(it);
    FoldAtCursor(std::move(unit));
    ++live_folds_;
    if (abort_after_folds_ > 0 && live_folds_ >= abort_after_folds_) {
      stopped_ = true;
    }
  }
  pending_.erase(pending_.begin(), pending_.lower_bound(cursor_));
}

std::vector<std::pair<size_t, const char*>> FoldCoordinator::Condemned() const {
  std::vector<std::pair<size_t, const char*>> condemned;
  for (const auto& [index, result] : buffered_) {
    switch (folder_.CheckSnapshot(result.unit, result.snapshot)) {
      case CampaignFolder::SnapshotCheck::kUnderProjected:
        condemned.emplace_back(index, "stale globally-unsafe snapshot");
        break;
      case CampaignFolder::SnapshotCheck::kOverProjected:
        if (index == cursor_) {
          condemned.emplace_back(index, "over-projected globally-unsafe snapshot");
        }
        break;
      case CampaignFolder::SnapshotCheck::kAgrees:
        break;
    }
  }
  return condemned;
}

void FoldCoordinator::Rerun(
    const std::vector<std::pair<size_t, const char*>>& condemned) {
  for (auto it = condemned.rbegin(); it != condemned.rend(); ++it) {
    const auto& [index, reason] = *it;
    ZLOG_INFO << name_ << ": re-running unit " << units_[index].test->id
              << " (" << reason << ")";
    buffered_.erase(index);
    pending_.erase(index);
    queue_.push_front(index);
  }
}

void FoldCoordinator::FlushJournal() {
  if (journal_) {
    for (const auto& [index, unit] : unjournaled_) {
      journal_->Append(index, unit);
    }
  }
  unjournaled_.clear();
}

CampaignReport FoldCoordinator::Finish(const RunCache::Stats* cache_totals) {
  CampaignReport& report = folder_.report();
  if (!stopped_) {
    // Apps with zero units (or nothing at all to run) still appear in the
    // report with their enumeration-stage counts, as in the sequential run.
    BeginAppsThrough(options().apps.size());
  }
  report.requeued_units = requeued_units_;
  report.resumed_units = resumed_units_;
  if (journal_) {
    // Flush batched records before reading the failure counter, so a clean
    // exit never leaves an unsynced tail and a sync error here still counts.
    FlushJournal();
    journal_->Flush();
    report.journal_append_failures = journal_->append_failures();
  }
  for (size_t unit : poisoned_) {
    report.poisoned_units.push_back(units_[unit].test->id);
  }
  if (cache_totals != nullptr) {
    // Unit results carry no cache counters; the engine that owns the cache
    // (the pool's shared one, the agents' summed farewells) supplies them.
    // Like every cache counter they are accounting, not part of the
    // determinism contract.
    ReportCacheStats(*cache_totals, &report);
  }
  report.wall_seconds = SteadySeconds() - start_seconds_;
  return folder_.Finish();
}

void FoldCoordinator::BeginAppsThrough(size_t app_index_exclusive) {
  const std::vector<std::string>& apps = options().apps;
  while (apps_begun_ < app_index_exclusive) {
    const std::string& app = apps[apps_begun_];
    folder_.BeginApp(app, engine_.generator().OriginalInstanceCount(app),
                     engine_.generator().StaticPrunedInstanceCount(app),
                     units_per_app_[apps_begun_]);
    ++apps_begun_;
  }
}

void FoldCoordinator::FoldAtCursor(UnitWorkResult unit) {
  BeginAppsThrough(units_[cursor_].app_index + 1);
  folder_.Fold(unit);
  if (journal_) {
    unjournaled_.emplace_back(cursor_, std::move(unit));
  }
  ++cursor_;
}

}  // namespace zebra
