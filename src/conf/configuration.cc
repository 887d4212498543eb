#include "src/conf/configuration.h"

#include "src/common/strings.h"
#include "src/conf/annotations.h"
#include "src/conf/conf_agent.h"

namespace zebra {

namespace {
constexpr char kConfApp[] = "configuration";
}  // namespace

Configuration::Configuration()
    : id_(ConfAgent::NextConfId()), agent_(&ConfAgent::Current()) {
  ZC_ANNOTATION_SITE(kConfApp, AnnotationKind::kConfHook);
  agent_->NewConf(id_);
  agent_->RegisterConfObject(id_, this);
}

Configuration::Configuration(const Configuration& other)
    : id_(ConfAgent::NextConfId()), agent_(&ConfAgent::Current()) {
  ZC_ANNOTATION_SITE(kConfApp, AnnotationKind::kConfHook);
  agent_->CloneConf(other.id_, id_);
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    properties_ = other.properties_;
  }
  agent_->RegisterConfObject(id_, this);
}

Configuration::Configuration(RefCloneTag, const Configuration& source)
    : id_(ConfAgent::NextConfId()), agent_(&ConfAgent::Current()) {
  {
    std::lock_guard<std::mutex> lock(source.mutex_);
    properties_ = source.properties_;
  }
  agent_->RefToCloneConf(source.id_, id_);
  agent_->RegisterConfObject(id_, this);
}

Configuration::~Configuration() { agent_->UnregisterConfObject(id_); }

Configuration Configuration::RefToClone(const Configuration& source) {
  return Configuration(RefCloneTag{}, source);
}

const std::string* Configuration::InterceptRead(std::string_view name) const {
  ZC_ANNOTATION_SITE(kConfApp, AnnotationKind::kConfHook);
  return ConfAgent::Current().InterceptGet(id_, name);
}

std::string Configuration::Get(std::string_view name,
                               std::string_view default_value) const {
  if (const std::string* assigned = InterceptRead(name); assigned != nullptr) {
    return *assigned;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = properties_.find(name);
  if (it == properties_.end()) {
    return std::string(default_value);
  }
  return it->second;
}

template <typename T>
std::optional<T> Configuration::ParseRead(std::string_view name, T default_value,
                                          bool (*parse)(std::string_view, T*)) const {
  T parsed = default_value;
  if (const std::string* assigned = InterceptRead(name); assigned != nullptr) {
    return parse(*assigned, &parsed) ? parsed : default_value;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = properties_.find(name);
  if (it == properties_.end()) {
    return std::nullopt;
  }
  return parse(it->second, &parsed) ? parsed : default_value;
}

bool Configuration::GetBool(std::string_view name, bool default_value) const {
  return ParseRead(name, default_value, ParseBool).value_or(default_value);
}

int64_t Configuration::GetInt(std::string_view name, int64_t default_value) const {
  return ParseRead(name, default_value, ParseInt64).value_or(default_value);
}

double Configuration::GetDouble(std::string_view name, double default_value) const {
  if (std::optional<double> read = ParseRead(name, default_value, ParseDouble)) {
    return *read;
  }
  // An absent key keeps the value typed reads have always returned for it:
  // the default rendered with "%g" and parsed back, so no read changes.
  double rounded = default_value;
  ParseDouble(DoubleToString(default_value), &rounded);
  return rounded;
}

bool Configuration::Has(std::string_view name) const {
  // No ZC_ANNOTATION_SITE here: Has is not a get/set hook in the paper's
  // annotation census. The equivalence layer still needs to see the
  // observation, so the presence check is traced (and nothing else).
  bool present;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    present = properties_.find(name) != properties_.end();
  }
  ConfAgent::Current().InterceptHas(id_, name);
  return present;
}

void Configuration::Set(std::string_view name, std::string_view value) {
  ZC_ANNOTATION_SITE(kConfApp, AnnotationKind::kConfHook);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    properties_[std::string(name)] = std::string(value);
  }
  ConfAgent::Current().InterceptSet(id_, std::string(name), std::string(value));
}

void Configuration::SetBool(std::string_view name, bool value) {
  Set(name, BoolToString(value));
}

void Configuration::SetInt(std::string_view name, int64_t value) {
  Set(name, Int64ToString(value));
}

void Configuration::SetDouble(std::string_view name, double value) {
  Set(name, DoubleToString(value));
}

void Configuration::SetRaw(std::string_view name, std::string_view value) {
  std::lock_guard<std::mutex> lock(mutex_);
  properties_[std::string(name)] = std::string(value);
}

std::map<std::string, std::string> Configuration::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {properties_.begin(), properties_.end()};
}

}  // namespace zebra
