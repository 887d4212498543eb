// Tests for the value-assignment strategies of §4.

#include "src/conf/test_plan.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace zebra {
namespace {

TEST(ValueAssignerTest, HomogeneousGivesEveryoneTheSameValue) {
  ValueAssigner assigner = ValueAssigner::Homogeneous("v");
  EXPECT_EQ(assigner.ValueFor("DataNode", 0), "v");
  EXPECT_EQ(assigner.ValueFor("NameNode", 3), "v");
  EXPECT_EQ(assigner.ValueFor(kClientEntity, 0), "v");
  EXPECT_EQ(assigner.DistinctValues(), (std::vector<std::string>{"v"}));
}

TEST(ValueAssignerTest, UniformGroupSplitsByType) {
  ValueAssigner assigner = ValueAssigner::UniformGroup("DataNode", "a", "b");
  EXPECT_EQ(assigner.ValueFor("DataNode", 0), "a");
  EXPECT_EQ(assigner.ValueFor("DataNode", 5), "a");
  EXPECT_EQ(assigner.ValueFor("NameNode", 0), "b");
  EXPECT_EQ(assigner.ValueFor(kClientEntity, 0), "b");
  EXPECT_EQ(assigner.DistinctValues(), (std::vector<std::string>{"a", "b"}));
}

TEST(ValueAssignerTest, RoundRobinAlternatesWithinGroup) {
  ValueAssigner assigner = ValueAssigner::RoundRobinGroup("DataNode", "a", "b");
  EXPECT_EQ(assigner.ValueFor("DataNode", 0), "a");
  EXPECT_EQ(assigner.ValueFor("DataNode", 1), "b");
  EXPECT_EQ(assigner.ValueFor("DataNode", 2), "a");
  EXPECT_EQ(assigner.ValueFor("NameNode", 0), "b");
}

TEST(ValueAssignerTest, EqualValuesCollapseDistinctValues) {
  ValueAssigner assigner = ValueAssigner::UniformGroup("T", "x", "x");
  EXPECT_EQ(assigner.DistinctValues(), (std::vector<std::string>{"x"}));
}

TEST(TestPlanTest, LookupFindsParamAndOverrides) {
  TestPlan plan;
  ParamPlan p;
  p.param = "main";
  p.assigner = ValueAssigner::UniformGroup("NameNode", "1", "2");
  p.extra_overrides.emplace_back("dep", "d");
  plan.Add(p);

  ASSERT_NE(plan.Lookup("main", "NameNode", 0), nullptr);
  EXPECT_EQ(*plan.Lookup("main", "NameNode", 0), "1");
  ASSERT_NE(plan.Lookup("main", "DataNode", 0), nullptr);
  EXPECT_EQ(*plan.Lookup("main", "DataNode", 0), "2");
  ASSERT_NE(plan.Lookup("dep", "DataNode", 0), nullptr);
  EXPECT_EQ(*plan.Lookup("dep", "DataNode", 0), "d");
  EXPECT_EQ(plan.Lookup("absent", "DataNode", 0), nullptr);
}

TEST(TestPlanTest, PooledPlanCoversAllParams) {
  TestPlan plan;
  for (int i = 0; i < 3; ++i) {
    ParamPlan p;
    p.param = "p" + std::to_string(i);
    p.assigner = ValueAssigner::Homogeneous(std::to_string(i));
    plan.Add(p);
  }
  ASSERT_NE(plan.Lookup("p0", "X", 0), nullptr);
  EXPECT_EQ(*plan.Lookup("p0", "X", 0), "0");
  ASSERT_NE(plan.Lookup("p2", "X", 0), nullptr);
  EXPECT_EQ(*plan.Lookup("p2", "X", 0), "2");
  EXPECT_FALSE(plan.empty());
}

TEST(TestPlanTest, DescribeIsStableAndDistinct) {
  TestPlan a;
  ParamPlan p;
  p.param = "x";
  p.assigner = ValueAssigner::UniformGroup("T", "1", "2");
  a.Add(p);

  TestPlan b = a;
  EXPECT_EQ(a.Describe(), b.Describe());

  b.mutable_params()[0].assigner = ValueAssigner::UniformGroup("T", "2", "1");
  EXPECT_NE(a.Describe(), b.Describe());

  TestPlan homo;
  p.assigner = ValueAssigner::Homogeneous("1");
  homo.mutable_params() = {p};
  EXPECT_NE(a.Describe(), homo.Describe());
}

TEST(AssignStrategyTest, Names) {
  EXPECT_STREQ(AssignStrategyName(AssignStrategy::kHomogeneous), "homogeneous");
  EXPECT_STREQ(AssignStrategyName(AssignStrategy::kUniformGroup), "uniform-group");
  EXPECT_STREQ(AssignStrategyName(AssignStrategy::kRoundRobinGroup),
               "round-robin-group");
}

// ---------------------------------------------------------------------------
// Golden renderings. ParamPlan/TestPlan fingerprints are the keys persisted in
// v2 run-cache files and agent caches, and Describe() seeds every run's RNG:
// a rendering drift must fail here by name instead of silently cold-starting
// every warm cache and re-rolling seeded nondeterminism.
// ---------------------------------------------------------------------------

TestPlan GoldenPlan() {
  TestPlan plan;
  ParamPlan homogeneous;
  homogeneous.param = "dfs.replication";
  homogeneous.assigner = ValueAssigner::Homogeneous("3");
  plan.Add(homogeneous);
  ParamPlan uniform;
  uniform.param = "dfs.block.size";
  uniform.assigner = ValueAssigner::UniformGroup("DataNode", "64", "128");
  uniform.extra_overrides.emplace_back("dfs.checksum", "on");
  uniform.extra_overrides.emplace_back("dfs.mode", "a=b,c");
  plan.Add(uniform);
  ParamPlan round_robin;
  round_robin.param = "kv.timeout";
  round_robin.assigner = ValueAssigner::RoundRobinGroup("Server", "10", "");
  round_robin.static_priority = 2.0;  // scheduling metadata, never rendered
  plan.Add(round_robin);
  return plan;
}

TEST(TestPlanGoldenTest, ParamPlanFingerprints) {
  TestPlan plan = GoldenPlan();
  EXPECT_EQ(plan.params()[0].Fingerprint(), "dfs.replication{homogeneous 3}");
  EXPECT_EQ(plan.params()[1].Fingerprint(),
            "dfs.block.size{uniform-group DataNode=64 others=128}"
            "[dfs.checksum=on,dfs.mode=a=b,c]");
  EXPECT_EQ(plan.params()[2].Fingerprint(),
            "kv.timeout{round-robin-group Server=10 others=}");
}

TEST(TestPlanGoldenTest, PlanFingerprintDescribeAndSeed) {
  TestPlan plan = GoldenPlan();
  EXPECT_EQ(plan.Fingerprint(),
            "dfs.replication{homogeneous 3}, "
            "dfs.block.size{uniform-group DataNode=64 others=128}"
            "[dfs.checksum=on,dfs.mode=a=b,c], "
            "kv.timeout{round-robin-group Server=10 others=}");
  // Describe() leaves the dependency overrides out (RNG-seed stability).
  EXPECT_EQ(plan.Describe(),
            "dfs.replication{homogeneous 3}, "
            "dfs.block.size{uniform-group DataNode=64 others=128}, "
            "kv.timeout{round-robin-group Server=10 others=}");
  EXPECT_EQ(plan.DescribeSeed(), Fnv1a64(plan.Describe()));
  EXPECT_EQ(plan.DescribeSeed(), 0x62d4be7b210b8a55ull);

  TestPlan empty;
  EXPECT_EQ(empty.Fingerprint(), "");
  EXPECT_EQ(empty.Describe(), "");
  EXPECT_EQ(empty.DescribeSeed(), Fnv1a64(""));
}

TEST(TestPlanGoldenTest, LookupServesAssignerValuesByIndex) {
  TestPlan plan = GoldenPlan();
  // Round-robin alternates by index parity: 10 is even (group value), 9 odd.
  ASSERT_NE(plan.Lookup("kv.timeout", "Server", 10), nullptr);
  EXPECT_EQ(*plan.Lookup("kv.timeout", "Server", 10), "10");
  ASSERT_NE(plan.Lookup("kv.timeout", "Server", 9), nullptr);
  EXPECT_EQ(*plan.Lookup("kv.timeout", "Server", 9), "");
  ASSERT_NE(plan.Lookup("dfs.mode", "Server", 9), nullptr);
  EXPECT_EQ(*plan.Lookup("dfs.mode", "Server", 9), "a=b,c");
  EXPECT_EQ(plan.Lookup("kv.absent", "Server", 9), nullptr);
}

}  // namespace
}  // namespace zebra
