#include "src/conf/test_plan.h"

#include "src/common/rng.h"

namespace zebra {

const char* AssignStrategyName(AssignStrategy strategy) {
  switch (strategy) {
    case AssignStrategy::kHomogeneous:
      return "homogeneous";
    case AssignStrategy::kUniformGroup:
      return "uniform-group";
    case AssignStrategy::kRoundRobinGroup:
      return "round-robin-group";
  }
  return "unknown";
}

const std::string& ValueAssigner::ValueFor(std::string_view node_type,
                                           int node_index) const {
  switch (strategy) {
    case AssignStrategy::kHomogeneous:
      return group_value;
    case AssignStrategy::kUniformGroup:
      return node_type == group_type ? group_value : other_value;
    case AssignStrategy::kRoundRobinGroup:
      if (node_type != group_type) {
        return other_value;
      }
      return node_index % 2 == 0 ? group_value : other_value;
  }
  return group_value;
}

std::vector<std::string> ValueAssigner::DistinctValues() const {
  if (strategy == AssignStrategy::kHomogeneous || group_value == other_value) {
    return {group_value};
  }
  return {group_value, other_value};
}

ValueAssigner ValueAssigner::Homogeneous(std::string value) {
  ValueAssigner assigner;
  assigner.strategy = AssignStrategy::kHomogeneous;
  assigner.group_value = std::move(value);
  return assigner;
}

ValueAssigner ValueAssigner::UniformGroup(std::string group_type, std::string group_value,
                                          std::string other_value) {
  ValueAssigner assigner;
  assigner.strategy = AssignStrategy::kUniformGroup;
  assigner.group_type = std::move(group_type);
  assigner.group_value = std::move(group_value);
  assigner.other_value = std::move(other_value);
  return assigner;
}

ValueAssigner ValueAssigner::RoundRobinGroup(std::string group_type,
                                             std::string group_value,
                                             std::string other_value) {
  ValueAssigner assigner;
  assigner.strategy = AssignStrategy::kRoundRobinGroup;
  assigner.group_type = std::move(group_type);
  assigner.group_value = std::move(group_value);
  assigner.other_value = std::move(other_value);
  return assigner;
}

TestPlan::TestPlan(const TestPlan& other)
    : params_(other.params_),
      fingerprint_(other.fingerprint_),
      describe_seed_(other.describe_seed_),
      fingerprint_valid_(other.fingerprint_valid_),
      describe_seed_valid_(other.describe_seed_valid_) {}

TestPlan::TestPlan(TestPlan&& other) noexcept
    : params_(std::move(other.params_)),
      fingerprint_(std::move(other.fingerprint_)),
      describe_seed_(other.describe_seed_),
      fingerprint_valid_(other.fingerprint_valid_),
      describe_seed_valid_(other.describe_seed_valid_) {
  // The moved-from plan is an empty plan; a stale "valid" flag over a
  // moved-out string must not survive.
  other.InvalidateMemo();
}

TestPlan& TestPlan::operator=(const TestPlan& other) {
  if (this != &other) {
    params_ = other.params_;
    fingerprint_ = other.fingerprint_;
    describe_seed_ = other.describe_seed_;
    fingerprint_valid_ = other.fingerprint_valid_;
    describe_seed_valid_ = other.describe_seed_valid_;
  }
  return *this;
}

TestPlan& TestPlan::operator=(TestPlan&& other) noexcept {
  if (this != &other) {
    params_ = std::move(other.params_);
    fingerprint_ = std::move(other.fingerprint_);
    describe_seed_ = other.describe_seed_;
    fingerprint_valid_ = other.fingerprint_valid_;
    describe_seed_valid_ = other.describe_seed_valid_;
    other.InvalidateMemo();
  }
  return *this;
}

void TestPlan::Add(ParamPlan plan) {
  InvalidateMemo();
  params_.push_back(std::move(plan));
}

std::vector<ParamPlan>& TestPlan::mutable_params() {
  InvalidateMemo();
  return params_;
}

const std::string* TestPlan::Lookup(std::string_view param,
                                   std::string_view node_type,
                                   int node_index) const {
  for (const ParamPlan& plan : params_) {
    if (plan.param == param) {
      return &plan.assigner.ValueFor(node_type, node_index);
    }
    for (const auto& [extra_param, extra_value] : plan.extra_overrides) {
      if (extra_param == param) {
        return &extra_value;
      }
    }
  }
  return nullptr;
}

void ParamPlan::AppendAssignment(std::string* out) const {
  *out += param;
  *out += '{';
  *out += AssignStrategyName(assigner.strategy);
  *out += ' ';
  if (assigner.strategy == AssignStrategy::kHomogeneous) {
    *out += assigner.group_value;
  } else {
    *out += assigner.group_type;
    *out += '=';
    *out += assigner.group_value;
    *out += " others=";
    *out += assigner.other_value;
  }
  *out += '}';
}

std::string ParamPlan::Fingerprint() const {
  std::string out;
  AppendFingerprint(&out, [](const std::string&) { return true; });
  return out;
}

const std::string& TestPlan::Fingerprint() const {
  if (!fingerprint_valid_) {
    std::string text;
    for (size_t i = 0; i < params_.size(); ++i) {
      if (i > 0) {
        text += ", ";
      }
      params_[i].AppendFingerprint(&text, [](const std::string&) { return true; });
    }
    fingerprint_ = std::move(text);
    fingerprint_valid_ = true;
  }
  return fingerprint_;
}

uint64_t TestPlan::DescribeSeed() const {
  if (!describe_seed_valid_) {
    describe_seed_ = Fnv1a64(Describe());
    describe_seed_valid_ = true;
  }
  return describe_seed_;
}

std::string TestPlan::Describe() const {
  std::string out;
  for (size_t i = 0; i < params_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    params_[i].AppendAssignment(&out);
  }
  return out;
}

}  // namespace zebra
