// Tests for the Configuration class: typed accessors, defaults, cloning,
// and interaction with ConfAgent plans.

#include "src/conf/configuration.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/conf/conf_agent.h"

namespace zebra {
namespace {

TEST(ConfigurationTest, GetReturnsDefaultForMissingKey) {
  Configuration conf;
  EXPECT_EQ(conf.Get("absent", "fallback"), "fallback");
  EXPECT_EQ(conf.Get("absent"), "");
  EXPECT_FALSE(conf.Has("absent"));
}

TEST(ConfigurationTest, SetThenGet) {
  Configuration conf;
  conf.Set("k", "v");
  EXPECT_TRUE(conf.Has("k"));
  EXPECT_EQ(conf.Get("k", "other"), "v");
}

TEST(ConfigurationTest, TypedAccessors) {
  Configuration conf;
  conf.SetInt("int", 42);
  conf.SetBool("bool", true);
  conf.SetDouble("double", 0.25);
  EXPECT_EQ(conf.GetInt("int", 0), 42);
  EXPECT_TRUE(conf.GetBool("bool", false));
  EXPECT_DOUBLE_EQ(conf.GetDouble("double", 0.0), 0.25);
}

TEST(ConfigurationTest, TypedDefaultsWhenAbsent) {
  Configuration conf;
  EXPECT_EQ(conf.GetInt("absent", 7), 7);
  EXPECT_TRUE(conf.GetBool("absent", true));
  EXPECT_DOUBLE_EQ(conf.GetDouble("absent", 2.5), 2.5);
}

TEST(ConfigurationTest, MalformedValueFallsBackToDefault) {
  Configuration conf;
  conf.Set("int", "not-a-number");
  conf.Set("bool", "maybe");
  EXPECT_EQ(conf.GetInt("int", 13), 13);
  EXPECT_FALSE(conf.GetBool("bool", false));
}

TEST(ConfigurationTest, CloneCopiesProperties) {
  Configuration original;
  original.Set("a", "1");
  Configuration clone(original);
  EXPECT_EQ(clone.Get("a"), "1");
  clone.Set("a", "2");
  EXPECT_EQ(original.Get("a"), "1") << "clone must not alias the original";
  EXPECT_NE(clone.id(), original.id());
}

TEST(ConfigurationTest, RefToCloneCopiesProperties) {
  Configuration original;
  original.Set("x", "y");
  Configuration clone = Configuration::RefToClone(original);
  EXPECT_EQ(clone.Get("x"), "y");
  EXPECT_NE(clone.id(), original.id());
}

TEST(ConfigurationTest, IdsAreUnique) {
  Configuration a;
  Configuration b;
  Configuration c(a);
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_NE(b.id(), c.id());
}

TEST(ConfigurationTest, SnapshotReflectsRawContents) {
  Configuration conf;
  conf.Set("a", "1");
  conf.SetRaw("b", "2");
  auto snapshot = conf.Snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.at("a"), "1");
  EXPECT_EQ(snapshot.at("b"), "2");
}

TEST(ConfigurationTest, PlanOverrideAppliesInsideSession) {
  TestPlan plan;
  ParamPlan param;
  param.param = "p";
  param.assigner = ValueAssigner::Homogeneous("planned");
  plan.Add(param);

  ConfAgentSession session(plan);
  Configuration conf;  // created before any node: belongs to the unit test
  conf.Set("p", "stored");
  EXPECT_EQ(conf.Get("p"), "planned") << "the plan value wins over the stored one";
  EXPECT_EQ(conf.Get("q", "dflt"), "dflt") << "unplanned params are untouched";
  session.End();

  EXPECT_EQ(conf.Get("p"), "stored") << "outside a session the hooks are no-ops";
}

TEST(ConfigurationTest, PlanOverrideAppliesToAbsentKeyDefaults) {
  TestPlan plan;
  ParamPlan param;
  param.param = "p";
  param.assigner = ValueAssigner::Homogeneous("42");
  plan.Add(param);

  ConfAgentSession session(plan);
  Configuration conf;
  EXPECT_EQ(conf.GetInt("p", 7), 42)
      << "typed getters must observe the plan even when the key is absent";
  session.End();
}

TEST(ConfigurationTest, DependencyOverridesVisibleThroughPlan) {
  TestPlan plan;
  ParamPlan param;
  param.param = "policy";
  param.assigner = ValueAssigner::Homogeneous("HTTPS_ONLY");
  param.extra_overrides.emplace_back("address", "0.0.0.0:9999");
  plan.Add(param);

  ConfAgentSession session(plan);
  Configuration conf;
  EXPECT_EQ(conf.Get("address", "default"), "0.0.0.0:9999");
  session.End();
}

// What a typed getter returned when it read through Get() with its default
// rendered as text: the text parsed, malformed text falling back.
template <typename T>
T ParsedThroughGet(const Configuration& conf, const std::string& name, T default_value,
                   std::string (*render)(T), bool (*parse)(std::string_view, T*)) {
  T parsed = default_value;
  return parse(conf.Get(name, render(default_value)), &parsed) ? parsed : default_value;
}

TEST(ConfigurationTest, TypedGettersMatchParsingGetWithRenderedDefault) {
  struct Case {
    std::string name;
    std::optional<std::string> stored;
    std::optional<std::string> planned;
  };
  const std::vector<Case> cases = {
      {"case.absent", std::nullopt, std::nullopt},
      {"case.stored", "1", std::nullopt},
      {"case.padded", " 0 \t", std::nullopt},
      {"case.malformed", "1x", std::nullopt},
      {"case.override", "1", "0"},
      {"case.malformed.override", "1", "nope"},
  };
  TestPlan plan;
  for (const Case& c : cases) {
    if (c.planned.has_value()) {
      ParamPlan param;
      param.param = c.name;
      param.assigner = ValueAssigner::Homogeneous(*c.planned);
      plan.Add(std::move(param));
    }
  }
  auto expect_parity = [&cases](const Configuration& conf) {
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      EXPECT_EQ(conf.GetInt(c.name, 7),
                ParsedThroughGet<int64_t>(conf, c.name, 7, Int64ToString, ParseInt64));
      EXPECT_EQ(conf.GetBool(c.name, true),
                ParsedThroughGet<bool>(conf, c.name, true, BoolToString, ParseBool));
      EXPECT_EQ(conf.GetDouble(c.name, 0.123456789),
                ParsedThroughGet<double>(conf, c.name, 0.123456789, DoubleToString,
                                         ParseDouble));
    }
  };

  ConfAgentSession session(plan);
  Configuration conf;  // belongs to the unit test, so the plan applies
  for (const Case& c : cases) {
    if (c.stored.has_value()) {
      conf.Set(c.name, *c.stored);
    }
  }
  expect_parity(conf);
  EXPECT_EQ(conf.GetDouble("case.absent", 0.123456789), 0.123457)
      << "an absent double default still reads back from \"%g\"";
  SessionReport report = session.End();
  // Two planned cases, each read by three typed getters and three Get()s.
  EXPECT_EQ(report.override_hits, 12);
  EXPECT_TRUE(report.any_conf_usage);

  expect_parity(conf);  // outside a session: stored values and defaults only
}

}  // namespace
}  // namespace zebra
