// Test-plan types: how TestGenerator tells ConfAgent which configuration value
// each node should observe for each parameter under test (paper §4).
//
// A plan assigns a value to every (node type, node index, parameter) triple.
// The unit test itself is treated as a client node (type kClientEntity), as in
// the paper. A plan may carry several ParamPlans at once — that is pooled
// testing.

#ifndef SRC_CONF_TEST_PLAN_H_
#define SRC_CONF_TEST_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zebra {

// Entity name used for configuration objects owned by the unit test body.
inline constexpr char kClientEntity[] = "Client";

// The representative value-assignment strategies from §4.
enum class AssignStrategy {
  // Every entity sees the same value (used for the homogeneous control runs).
  kHomogeneous,
  // All nodes in the target type group get `group_value`; every other entity
  // (other node types and the unit-test client) gets `other_value`.
  kUniformGroup,
  // Within the target group values alternate by node index starting with
  // `group_value`; every other entity gets `other_value`.
  kRoundRobinGroup,
};

const char* AssignStrategyName(AssignStrategy strategy);

// Assigns one parameter's value per entity.
struct ValueAssigner {
  AssignStrategy strategy = AssignStrategy::kHomogeneous;
  std::string group_type;   // target node-type group (unused for homogeneous)
  std::string group_value;  // value for the group (or the whole system)
  std::string other_value;  // value for everyone else

  // A reference into this assigner, valid until it is next modified.
  const std::string& ValueFor(std::string_view node_type, int node_index) const;

  // The distinct values this assigner can hand out; the TestRunner runs one
  // homogeneous control per distinct value (Definition 3.1).
  std::vector<std::string> DistinctValues() const;

  static ValueAssigner Homogeneous(std::string value);
  static ValueAssigner UniformGroup(std::string group_type, std::string group_value,
                                    std::string other_value);
  static ValueAssigner RoundRobinGroup(std::string group_type, std::string group_value,
                                       std::string other_value);
};

// One parameter under test plus any dependency overrides (§4: "when testing
// parameter p1 with value v1, we should set p2's value to v2"). Overrides are
// applied homogeneously.
struct ParamPlan {
  std::string param;
  ValueAssigner assigner;
  std::vector<std::pair<std::string, std::string>> extra_overrides;

  // Static prior (zebralint): wire-tainted parameters carry 2.0, node-local
  // 1.0, statically pruned 0.0. The campaign tests higher priorities first;
  // 1.0 (the default) reproduces the prior-less behavior.
  double static_priority = 1.0;

  // Execution-relevant identity of this entry: parameter, assigner, and every
  // dependency override — but not static_priority, which is scheduling
  // metadata no execution can observe.
  std::string Fingerprint() const;

  // Appends Fingerprint() to *out, rendering only the extra_overrides whose
  // parameter `keep_override` accepts (ReadSurface::Canonicalize drops the
  // ones no targeted conf reads, without copying the entry).
  template <typename KeepOverride>
  void AppendFingerprint(std::string* out, const KeepOverride& keep_override) const {
    AppendAssignment(out);
    bool open = false;
    for (const auto& [name, value] : extra_overrides) {
      if (!keep_override(name)) {
        continue;
      }
      *out += open ? ',' : '[';
      open = true;
      *out += name;
      *out += '=';
      *out += value;
    }
    if (open) {
      *out += ']';
    }
  }

  // Appends "param{strategy values}": the assignment alone, which is all
  // TestPlan::Describe() renders per entry.
  void AppendAssignment(std::string* out) const;
};

// A full plan for one unit-test execution. Multiple entries = pooled testing.
//
// Fingerprint() and DescribeSeed() are memoized on the plan: both walk and
// render every entry, and the hot path asks for the same plan's identity
// several times per run — cache probe, equivalence canonicalization, session
// seeding. Mutation goes through Add() or mutable_params(), which drop the
// memo. The memo fields are `mutable` and unsynchronized: a plan is owned by
// exactly one worker at a time (campaign engines copy plans into per-worker
// units), so concurrent const access to a shared TestPlan is not part of the
// contract.
class TestPlan {
 public:
  TestPlan() = default;
  explicit TestPlan(std::vector<ParamPlan> params) : params_(std::move(params)) {}

  TestPlan(const TestPlan& other);
  TestPlan(TestPlan&& other) noexcept;
  TestPlan& operator=(const TestPlan& other);
  TestPlan& operator=(TestPlan&& other) noexcept;

  const std::vector<ParamPlan>& params() const { return params_; }

  // Mutation invalidates the memoized identities.
  void Add(ParamPlan plan);
  std::vector<ParamPlan>& mutable_params();

  // Value the given entity should observe for `param`, or nullptr when the
  // plan does not cover it. Points into this plan: valid until its next
  // mutation (every caller reads it within one session or prediction).
  const std::string* Lookup(std::string_view param, std::string_view node_type,
                            int node_index) const;

  bool empty() const { return params_.empty(); }
  std::string Describe() const;

  // Cache-key identity. Unlike Describe() — which deliberately stays stable
  // because RunUnitTest folds it into the per-trial RNG seed — this includes
  // extra_overrides, so plans differing only in dependency overrides never
  // alias in the run cache. Memoized; the reference stays valid until the
  // next mutation of this plan.
  const std::string& Fingerprint() const;

  // Fnv1a64(Describe()), bit-for-bit — the value RunUnitTest folds into the
  // per-trial RNG seed. Memoized so steady-state executions skip rebuilding
  // the describe string entirely.
  uint64_t DescribeSeed() const;

 private:
  void InvalidateMemo() {
    fingerprint_valid_ = false;
    describe_seed_valid_ = false;
  }

  std::vector<ParamPlan> params_;
  mutable std::string fingerprint_;
  mutable uint64_t describe_seed_ = 0;
  mutable bool fingerprint_valid_ = false;
  mutable bool describe_seed_valid_ = false;
};

}  // namespace zebra

#endif  // SRC_CONF_TEST_PLAN_H_
