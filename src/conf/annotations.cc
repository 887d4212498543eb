#include "src/conf/annotations.h"

#include <functional>
#include <mutex>
#include <set>
#include <unordered_set>
#include <utility>

namespace zebra {

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<AnnotationSite> sites;
  std::set<std::pair<std::string, int>> seen;  // (file, line)
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

bool RegisterAnnotationSiteOnce(const char* app, AnnotationKind kind,
                                const char* file, int line) {
  struct SiteHash {
    size_t operator()(const std::pair<const char*, int>& site) const {
      return std::hash<const char*>()(site.first) ^
             (static_cast<size_t>(site.second) * 0x9e3779b97f4a7c15ull);
    }
  };
  thread_local std::unordered_set<std::pair<const char*, int>, SiteHash> visited;
  if (!visited.insert({file, line}).second) {
    return true;
  }
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto key = std::make_pair(std::string(file), line);
  if (registry.seen.insert(key).second) {
    registry.sites.push_back(AnnotationSite{app, kind, file, line});
  }
  return true;
}

std::vector<AnnotationSite> GetAnnotationSites() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.sites;
}

AnnotationCounts GetAnnotationCounts(const std::string& app) {
  AnnotationCounts counts;
  for (const AnnotationSite& site : GetAnnotationSites()) {
    if (site.app != app) {
      continue;
    }
    switch (site.kind) {
      case AnnotationKind::kNodeInit:
        ++counts.node_init_sites;
        break;
      case AnnotationKind::kRefToClone:
        ++counts.ref_to_clone_sites;
        break;
      case AnnotationKind::kConfHook:
        ++counts.conf_hook_sites;
        break;
    }
  }
  return counts;
}

std::vector<std::string> GetAnnotatedApps() {
  std::set<std::string> apps;
  for (const AnnotationSite& site : GetAnnotationSites()) {
    apps.insert(site.app);
  }
  return std::vector<std::string>(apps.begin(), apps.end());
}

}  // namespace zebra
