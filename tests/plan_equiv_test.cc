// Tests for the observational-equivalence layer (plan_equiv.h): trace
// prediction against a pre-run read surface, and the restriction-matching
// soundness check. The edge cases here are exactly the ones where collapsing
// would be unsound — each must stay distinct.

#include "src/conf/plan_equiv.h"

#include <gtest/gtest.h>

#include "src/conf/conf_agent.h"
#include "src/conf/configuration.h"
#include "src/runtime/node_init.h"

namespace zebra {
namespace {

constexpr char kApp[] = "equivapp";

TestPlan PlanFor(const std::string& param, ValueAssigner assigner) {
  TestPlan plan;
  ParamPlan p;
  p.param = param;
  p.assigner = std::move(assigner);
  plan.Add(std::move(p));
  return plan;
}

// A pre-run surface that saw Server#0 read `a.read` and nothing else.
SessionReport PrerunReading(const std::string& param) {
  SessionReport prerun;
  prerun.trace_elements.insert(TraceReadElement("Server", 0, param, nullptr));
  return prerun;
}

std::string Predict(const ReadSurface& surface, const TestPlan& plan) {
  std::string trace;
  surface.PredictTrace(plan, &trace);
  return trace;
}

std::string Join(std::initializer_list<std::string> elements) {
  std::string text;
  for (const std::string& element : elements) {
    if (!text.empty()) {
      text += '\x1e';
    }
    text += element;
  }
  return text;
}

TEST(PlanEquivTest, UnreadEntryLeavesThePrediction) {
  ReadSurface surface(PrerunReading("a.read"));
  ASSERT_TRUE(surface.usable());

  TestPlan plan = PlanFor("a.read", ValueAssigner::UniformGroup("Server", "7", "3"));
  plan.Add(
      PlanFor("b.unread", ValueAssigner::UniformGroup("Server", "1", "0")).params()[0]);

  // The pooled plan predicts exactly the single-entry plan's trace.
  TestPlan kept = PlanFor("a.read", ValueAssigner::UniformGroup("Server", "7", "3"));
  ASSERT_NE(plan.Fingerprint(), kept.Fingerprint());
  EXPECT_EQ(Predict(surface, plan), Predict(surface, kept));
}

TEST(PlanEquivTest, FullyUnreadPlanPredictsTheBaseline) {
  ReadSurface surface(PrerunReading("a.read"));
  TestPlan plan = PlanFor("b.unread", ValueAssigner::UniformGroup("Server", "1", "0"));

  // The homogeneous baseline (empty plan) makes the same observations.
  EXPECT_EQ(Predict(surface, plan), Predict(surface, TestPlan{}));
}

TEST(PlanEquivTest, UnreadDependencyOverrideLeavesThePrediction) {
  ReadSurface surface(PrerunReading("a.read"));
  TestPlan plan = PlanFor("a.read", ValueAssigner::UniformGroup("Server", "7", "3"));
  plan.mutable_params()[0].extra_overrides.emplace_back("b.unread", "off");

  TestPlan kept = PlanFor("a.read", ValueAssigner::UniformGroup("Server", "7", "3"));
  ASSERT_NE(plan.Fingerprint(), kept.Fingerprint());
  EXPECT_EQ(Predict(surface, plan), Predict(surface, kept));
}

TEST(PlanEquivTest, EntryOrderDoesNotSplitEquivalenceClasses) {
  SessionReport prerun;
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "a.read", nullptr));
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "b.read", nullptr));
  ReadSurface surface(prerun);

  TestPlan forward = PlanFor("a.read", ValueAssigner::UniformGroup("Server", "7", "3"));
  forward.Add(
      PlanFor("b.read", ValueAssigner::UniformGroup("Server", "1", "0")).params()[0]);
  TestPlan reversed;
  reversed.Add(forward.params()[1]);
  reversed.Add(forward.params()[0]);
  ASSERT_NE(forward.Fingerprint(), reversed.Fingerprint());

  EXPECT_EQ(Predict(surface, forward), Predict(surface, reversed));
}

TEST(PlanEquivTest, HasOnlyParamIsNeverCollapsed) {
  // The pre-run only presence-checked the parameter. Has() ignores plan
  // overrides, but two plans assigning it differently may still diverge
  // downstream — the poisoned trace element must keep them distinct, and
  // neither may alias the baseline.
  SessionReport prerun;
  prerun.trace_elements.insert(TraceHasElement("Server", 0, "p.flag", nullptr));
  ReadSurface surface(prerun);
  ASSERT_TRUE(surface.usable());

  TestPlan assign_on = PlanFor("p.flag", ValueAssigner::UniformGroup("Server", "on", "off"));
  TestPlan assign_off = PlanFor("p.flag", ValueAssigner::UniformGroup("Server", "off", "on"));

  const std::string baseline_trace = Predict(surface, TestPlan{});
  const std::string on_trace = Predict(surface, assign_on);
  const std::string off_trace = Predict(surface, assign_off);
  EXPECT_NE(on_trace, baseline_trace);
  EXPECT_NE(off_trace, baseline_trace);
  EXPECT_NE(on_trace, off_trace);
}

TEST(PlanEquivTest, SubComponentCloneReadKeepsParamObserved) {
  // Figure 2c shape: a node's sub-component creates its own blank conf during
  // init; reads through it resolve to the owning node entity. A plan
  // targeting a parameter read *only* that way must not be collapsed.
  class Server {
   public:
    explicit Server(const Configuration& conf)
        : init_scope_(kApp, this, "Server", __FILE__, __LINE__),
          conf_(AnnotatedRefToClone(kApp, conf, __FILE__, __LINE__)) {
      init_scope_.Finish();
    }
    std::string ReadComponent(const std::string& name) {
      return component_conf_.Get(name, "default");
    }

   private:
    NodeInitScope init_scope_;
    Configuration conf_;
    Configuration component_conf_;  // blank conf created during init
  };

  SessionReport prerun;
  {
    ConfAgentSession session(TestPlan{});
    Configuration conf;
    Server server(conf);
    server.ReadComponent("component.only.param");
    prerun = session.End();
  }
  ASSERT_EQ(prerun.ParamsReadBy("Server").count("component.only.param"), 1u);

  ReadSurface surface(prerun);
  ASSERT_TRUE(surface.usable());
  TestPlan plan =
      PlanFor("component.only.param", ValueAssigner::UniformGroup("Server", "7", "3"));

  // The prediction serves the plan's value at the clone's read site, so the
  // plan never aliases the baseline.
  std::string assigned = "7";
  EXPECT_EQ(Predict(surface, plan),
            TraceReadElement("Server", 0, "component.only.param", &assigned));
  EXPECT_NE(Predict(surface, plan), Predict(surface, TestPlan{}));
}

TEST(PlanEquivTest, UncertainReadsArePlanInvariant) {
  SessionReport prerun;
  prerun.trace_elements.insert(TraceUncertainElement("u.param"));
  prerun.trace_elements.insert(TraceReadElement("Server", 0, "a.read", nullptr));
  ReadSurface surface(prerun);

  // A plan targeting the uncertain parameter cannot reach it (uncertain confs
  // never receive overrides), so its predicted trace keeps the bare marker.
  TestPlan plan = PlanFor("u.param", ValueAssigner::UniformGroup("Server", "7", "3"));
  EXPECT_NE(Predict(surface, plan).find(TraceUncertainElement("u.param")),
            std::string::npos);
  EXPECT_TRUE(PlanMatchesElement(plan, TraceUncertainElement("u.param")));
}

TEST(PlanEquivTest, ReproducesObservedPrefixOfPromise) {
  // Early-stopped execution: the observed trace is a strict subset of the
  // plan's full promise. Every observed element appears verbatim in the
  // prediction, so the plan provably reproduces the stored run.
  TestPlan plan = PlanFor("a.read", ValueAssigner::UniformGroup("Server", "7", "3"));
  std::string assigned = "7";
  std::string observed = TraceReadElement("Server", 0, "a.read", &assigned);
  std::string predicted = Join({observed, TraceReadElement("Server", 0, "b.read", nullptr)});
  EXPECT_TRUE(PlanReproducesObservedTrace(plan, observed, predicted));
}

TEST(PlanEquivTest, ReproducesValueGatedReadOutsidePromise) {
  // The stored run observed a read the pre-run never promised (value-gated).
  // It is not in the predicted trace, so it falls back to re-derivation —
  // which succeeds when this plan serves the same (absent) override.
  TestPlan plan = PlanFor("a.read", ValueAssigner::UniformGroup("Server", "7", "3"));
  std::string assigned = "7";
  std::string promised = TraceReadElement("Server", 0, "a.read", &assigned);
  std::string gated = TraceReadElement("Server", 1, "x.gated", nullptr);
  EXPECT_TRUE(PlanReproducesObservedTrace(plan, Join({promised, gated}), promised));
}

TEST(PlanEquivTest, RejectsContradictedObservation) {
  // The stored run was served the stored value for a.read; this plan would
  // override it — the executions diverge at that read, so no match.
  TestPlan plan = PlanFor("a.read", ValueAssigner::UniformGroup("Server", "7", "3"));
  std::string observed = TraceReadElement("Server", 0, "a.read", nullptr);
  std::string assigned = "7";
  std::string predicted = TraceReadElement("Server", 0, "a.read", &assigned);
  EXPECT_FALSE(PlanReproducesObservedTrace(plan, observed, predicted));
}

TEST(PlanEquivTest, RejectsUnparseableElement) {
  TestPlan plan;
  EXPECT_FALSE(PlanMatchesElement(plan, "not-an-element"));
  EXPECT_FALSE(PlanReproducesObservedTrace(plan, "not-an-element", ""));
}

// ---------------------------------------------------------------------------
// Golden renderings of the equivalence keys. The predicted trace is digested
// into a run-cache key and persisted (legacy string form) in cache files, so
// its bytes must not drift. The surface
// covers every element kind and node indices 9 and 10, which sort as strings
// ("#10" before "#9"); "#09" re-renders as "#9" and exercises the dedup.
// ---------------------------------------------------------------------------

SessionReport GoldenPrerun() {
  SessionReport prerun;
  prerun.trace_elements.insert(TraceReadElement("DataNode", 9, "p.read", nullptr));
  prerun.trace_elements.insert(TraceReadElement("DataNode", 10, "p.read", nullptr));
  prerun.trace_elements.insert("DataNode#09:p.read!");
  prerun.trace_elements.insert(TraceReadElement("DataNode", 9, "p.read.x", nullptr));
  prerun.trace_elements.insert(TraceReadElement(kClientEntity, 0, "q.read", nullptr));
  prerun.trace_elements.insert(TraceReadElement("NameNode", 0, "dep.read", nullptr));
  prerun.trace_elements.insert(TraceHasElement("NameNode", 0, "h.has", nullptr));
  prerun.trace_elements.insert(TraceUncertainElement("u.param"));
  return prerun;
}

// Out of name order, with one unread entry and one unread dependency
// override, one entry per assigner strategy.
TestPlan GoldenPooledPlan() {
  TestPlan plan;
  ParamPlan unread;
  unread.param = "z.unread";
  unread.assigner = ValueAssigner::UniformGroup("DataNode", "1", "0");
  plan.Add(unread);
  ParamPlan read;
  read.param = "p.read";
  read.assigner = ValueAssigner::RoundRobinGroup("DataNode", "even", "odd");
  read.extra_overrides.emplace_back("x.unread", "off");
  read.extra_overrides.emplace_back("dep.read", "on");
  plan.Add(read);
  ParamPlan has;
  has.param = "h.has";
  has.assigner = ValueAssigner::UniformGroup("NameNode", "1", "2");
  plan.Add(has);
  ParamPlan client;
  client.param = "q.read";
  client.assigner = ValueAssigner::Homogeneous("v");
  plan.Add(client);
  return plan;
}

TEST(PlanEquivGoldenTest, PredictedTrace) {
  ReadSurface surface(GoldenPrerun());
  EXPECT_EQ(Predict(surface, GoldenPooledPlan()),
            "@h:NameNode#0:h.has=1\x1e"
            "@u:u.param\x1e"
            "Client#0:q.read=v\x1e"
            "DataNode#10:p.read=even\x1e"
            "DataNode#9:p.read.x!\x1e"
            "DataNode#9:p.read=odd\x1e"
            "NameNode#0:dep.read=on");

  EXPECT_EQ(Predict(surface, TestPlan{}),
            "@h:NameNode#0:h.has!\x1e"
            "@u:u.param\x1e"
            "Client#0:q.read!\x1e"
            "DataNode#10:p.read!\x1e"
            "DataNode#9:p.read!\x1e"
            "DataNode#9:p.read.x!\x1e"
            "NameNode#0:dep.read!");
}

TEST(PlanEquivGoldenTest, ElementRenderings) {
  std::string value = "a=b";
  EXPECT_EQ(TraceReadElement("DataNode", 10, "p", &value), "DataNode#10:p=a=b");
  EXPECT_EQ(TraceReadElement("DataNode", 9, "p", nullptr), "DataNode#9:p!");
  EXPECT_EQ(TraceHasElement("NameNode", 0, "h", &value), "@h:NameNode#0:h=a=b");
  EXPECT_EQ(TraceHasElement("NameNode", 0, "h", nullptr), "@h:NameNode#0:h!");
  EXPECT_EQ(TraceUncertainElement("u"), "@u:u");
  SessionReport report;
  report.trace_elements = {"b!", "a!"};
  EXPECT_EQ(ObservedTraceText(report), "a!\x1e" "b!");
}

}  // namespace
}  // namespace zebra
