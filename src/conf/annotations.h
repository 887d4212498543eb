// Annotation-site registry.
//
// The paper's Table 4 reports how many lines each target application had to
// change to support ZebraConf (node-class changes vs configuration-class
// changes). We reproduce that measurement for real: every place our
// mini-applications call a ConfAgent API registers itself here (file:line,
// once per site), and the Table 4 bench reads the registry back out.

#ifndef SRC_CONF_ANNOTATIONS_H_
#define SRC_CONF_ANNOTATIONS_H_

#include <map>
#include <string>
#include <vector>

namespace zebra {

enum class AnnotationKind {
  kNodeInit,    // startInit/stopInit bracket in a node initialization function
  kRefToClone,  // a reference-store replaced with refToCloneConf
  kConfHook,    // newConf/cloneConf/interceptGet/interceptSet in the conf class
};

struct AnnotationSite {
  std::string app;
  AnnotationKind kind;
  std::string file;
  int line = 0;
};

// Registers a site once (idempotent per file:line). Returns true so it can be
// used to initialize a function-local static. NodeInitScope and
// AnnotatedRefToClone call it on every node start, so a thread-local memo
// keyed by the `file` pointer and line skips the registry mutex after a
// thread's first visit. `file` must have static storage (a __FILE__ literal):
// its address is the key.
bool RegisterAnnotationSiteOnce(const char* app, AnnotationKind kind,
                                const char* file, int line);

// All sites registered so far (only sites whose code actually executed).
std::vector<AnnotationSite> GetAnnotationSites();

struct AnnotationCounts {
  int node_init_sites = 0;
  int ref_to_clone_sites = 0;
  int conf_hook_sites = 0;

  // The paper counts "modified lines": a startInit/stopInit bracket is two
  // lines, a refToCloneConf replacement is two (comment out + add), a conf
  // hook is one line each.
  int node_class_lines() const { return node_init_sites * 2 + ref_to_clone_sites * 2; }
  int conf_class_lines() const { return conf_hook_sites; }
};

// Aggregated counts for one application.
AnnotationCounts GetAnnotationCounts(const std::string& app);

// Applications with at least one registered site.
std::vector<std::string> GetAnnotatedApps();

}  // namespace zebra

// Registers the enclosing call site under `app`. Cheap after first execution.
#define ZC_ANNOTATION_SITE(app, kind)                                              \
  do {                                                                             \
    static const bool zc_annotation_registered =                                   \
        ::zebra::RegisterAnnotationSiteOnce((app), (kind), __FILE__, __LINE__);    \
    (void)zc_annotation_registered;                                                \
  } while (0)

#endif  // SRC_CONF_ANNOTATIONS_H_
