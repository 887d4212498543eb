// Hadoop-style Configuration class shared by the mini-applications.
//
// Mirrors the structure in Figure 2a of the paper: a dedicated key/value
// class with a blank constructor, a clone constructor, and get/set methods —
// each instrumented with a ConfAgent hook. Nodes receive a Configuration from
// whoever creates them (a real main() in production, the unit test body in a
// whole-system unit test) and store a *clone* via RefToClone, the developer
// modification Rule 2 requires.

#ifndef SRC_CONF_CONFIGURATION_H_
#define SRC_CONF_CONFIGURATION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace zebra {

class ConfAgent;

class Configuration {
 public:
  // Blank constructor (fires ConfAgent::NewConf).
  Configuration();

  // Clone constructor (fires ConfAgent::CloneConf).
  Configuration(const Configuration& other);

  Configuration& operator=(const Configuration&) = delete;
  Configuration(Configuration&&) = delete;
  Configuration& operator=(Configuration&&) = delete;

  ~Configuration();

  // Replaces "store the caller's reference" inside a node initialization
  // function: returns a clone and fires ConfAgent::RefToCloneConf, which maps
  // the clone to the initializing node and the source to the unit test
  // (paper Rule 2, Figure 2b lines 16-17).
  static Configuration RefToClone(const Configuration& source);

  // ---- Getters (all funnel through ConfAgent::InterceptGet) -----------------

  // Returns the stored value, or `default_value` if the key is absent; either
  // may be overridden by the active test plan.
  std::string Get(std::string_view name, std::string_view default_value = "") const;

  // Typed getters parse the plan's value for this read if it has one, else
  // the stored value, where it lies (no copy); malformed text falls back to
  // the default, like Hadoop's Configuration. An absent key that nothing
  // overrides returns the default without parsing — GetDouble's as it reads
  // back from "%g" (0.123456789 reads 0.123457), as it always has.
  bool GetBool(std::string_view name, bool default_value) const;
  int64_t GetInt(std::string_view name, int64_t default_value) const;
  double GetDouble(std::string_view name, double default_value) const;

  // True if the key is present in this object (ignores plan overrides).
  bool Has(std::string_view name) const;

  // ---- Setters (funnel through ConfAgent::InterceptSet) ---------------------

  void Set(std::string_view name, std::string_view value);
  void SetBool(std::string_view name, bool value);
  void SetInt(std::string_view name, int64_t value);
  void SetDouble(std::string_view name, double value);

  // Writes without interception. Used by ConfAgent's parent write-back; not
  // for application code.
  void SetRaw(std::string_view name, std::string_view value);

  // Stable process-unique identity (the "hashCode" the paper keys its tables
  // by — an address would be unsafe under allocator reuse).
  uint64_t id() const { return id_; }

  // Copy of the raw stored properties (no interception).
  std::map<std::string, std::string> Snapshot() const;

 private:
  struct RefCloneTag {};
  Configuration(RefCloneTag, const Configuration& source);

  // Every getter's interception point, and its one annotation site.
  const std::string* InterceptRead(std::string_view name) const;

  // The typed getters' read: parses the plan's value, else the stored one, in
  // place with `parse`; malformed text yields `default_value`. nullopt when
  // the key is absent and nothing overrides it.
  template <typename T>
  std::optional<T> ParseRead(std::string_view name, T default_value,
                             bool (*parse)(std::string_view, T*)) const;

  uint64_t id_ = 0;
  // The agent this object registered with at construction (the creating
  // thread's Current()); the destructor unregisters from the same agent even
  // if destruction happens on another thread. Get/Set/Has hooks still route
  // through the *calling* thread's Current(), so a conf created outside a
  // worker's session is correctly observed there as uncertain usage.
  ConfAgent* agent_ = nullptr;
  mutable std::mutex mutex_;
  // Transparent comparator: lookups take the caller's string_view directly,
  // no temporary std::string per Get/Has.
  std::map<std::string, std::string, std::less<>> properties_;
};

}  // namespace zebra

#endif  // SRC_CONF_CONFIGURATION_H_
