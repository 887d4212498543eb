// Tests for ConfAgent's mapping rules — each scenario in Figure 2 of the
// paper is reproduced here directly.

#include "src/conf/conf_agent.h"

#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/conf/configuration.h"
#include "src/conf/plan_equiv.h"
#include "src/runtime/node_init.h"

namespace zebra {
namespace {

constexpr char kApp[] = "testapp";

TestPlan PlanFor(const std::string& param, ValueAssigner assigner) {
  TestPlan plan;
  ParamPlan p;
  p.param = param;
  p.assigner = std::move(assigner);
  plan.Add(std::move(p));
  return plan;
}

// A Server in the style of Figure 2b: init function brackets, a ref-to-clone
// of the shared conf, and a sub-component creating its own blank conf.
class Server {
 public:
  Server(const Configuration& conf, bool create_component = true)
      : init_scope_(kApp, this, "Server", __FILE__, __LINE__),
        conf_(AnnotatedRefToClone(kApp, conf, __FILE__, __LINE__)) {
    if (create_component) {
      component_conf_ = std::make_unique<Configuration>();  // Figure 2c line 5
    }
    init_scope_.Finish();
  }

  const Configuration& conf() const { return conf_; }
  const Configuration& component_conf() const { return *component_conf_; }

  // funA of Figure 2b/2d: node code invoked from the unit-test thread.
  std::string FunA(const std::string& name) { return conf_.Get(name, "default"); }

 private:
  NodeInitScope init_scope_;
  Configuration conf_;
  std::unique_ptr<Configuration> component_conf_;
};

TEST(ConfAgentRulesTest, Rule12_ConfBeforeAnyNodeBelongsToUnitTest) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;  // Figure 2d line 2
  EXPECT_EQ(ConfAgent::Instance().EntityOf(conf.id()), kClientEntity);
  session.End();
}

TEST(ConfAgentRulesTest, Rule2_RefToCloneMapsCloneToNodeAndOriginalToTest) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  Server server1(conf, /*create_component=*/false);
  EXPECT_EQ(ConfAgent::Instance().EntityOf(server1.conf().id()), "Server");
  EXPECT_EQ(ConfAgent::Instance().EntityOf(conf.id()), kClientEntity);
  session.End();
}

TEST(ConfAgentRulesTest, Rule11_BlankConfDuringInitBelongsToNode) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  Server server1(conf);  // creates a Component conf inside its init function
  EXPECT_EQ(ConfAgent::Instance().EntityOf(server1.component_conf().id()), "Server");
  session.End();
}

TEST(ConfAgentRulesTest, Rule3_CloneFollowsItsOriginal) {
  ConfAgentSession session(TestPlan{});
  Configuration test_conf;
  Configuration test_clone(test_conf);
  EXPECT_EQ(ConfAgent::Instance().EntityOf(test_clone.id()), kClientEntity);

  Server server1(test_conf);
  Configuration node_clone(server1.conf());
  EXPECT_EQ(ConfAgent::Instance().EntityOf(node_clone.id()), "Server");
  session.End();
}

TEST(ConfAgentRulesTest, BlankConfAfterNodesOutsideInitIsUncertain) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  Server server1(conf);
  Configuration orphan;  // after nodes exist, outside any init function
  EXPECT_EQ(ConfAgent::Instance().EntityOf(orphan.id()), "@uncertain");

  orphan.Get("some.param", "v");
  SessionReport report = session.End();
  EXPECT_EQ(report.uncertain_conf_count, 1);
  EXPECT_TRUE(report.uncertain_params.count("some.param") > 0)
      << "params read through uncertain confs must be excluded";
}

TEST(ConfAgentRulesTest, NodeIndexFollowsStartOrder) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  Server server1(conf);
  Server server2(conf);
  EXPECT_EQ(ConfAgent::Instance().NodeIndexOf(server1.conf().id()), 0);
  EXPECT_EQ(ConfAgent::Instance().NodeIndexOf(server2.conf().id()), 1);

  SessionReport report = session.End();
  EXPECT_EQ(report.node_counts.at("Server"), 2);
}

TEST(ConfAgentRulesTest, Step7_InternalCallFromTestThreadUsesNodeConf) {
  // The scenario the thread-based attempt (§6.1) gets wrong: funA runs on the
  // unit-test thread but must observe server1's configuration.
  TestPlan plan = PlanFor("p", ValueAssigner::UniformGroup("Server", "server-value",
                                                           "client-value"));
  ConfAgentSession session(plan);
  Configuration conf;
  Server server1(conf);
  EXPECT_EQ(server1.FunA("p"), "server-value");
  EXPECT_EQ(conf.Get("p", "default"), "client-value");
  session.End();
}

TEST(ConfAgentRulesTest, RoundRobinAssignsWithinGroupByIndex) {
  TestPlan plan = PlanFor("p", ValueAssigner::RoundRobinGroup("Server", "even", "odd"));
  ConfAgentSession session(plan);
  Configuration conf;
  Server server1(conf);
  Server server2(conf);
  Server server3(conf);
  EXPECT_EQ(server1.FunA("p"), "even");
  EXPECT_EQ(server2.FunA("p"), "odd");
  EXPECT_EQ(server3.FunA("p"), "even");
  session.End();
}

TEST(ConfAgentRulesTest, InterceptSetWritesBackToParentConf) {
  // Figure 2d line 8: the unit test expects the node to fill values into the
  // shared conf; the ref-to-clone replacement would break that without the
  // interceptSet write-back.
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  Server server1(conf);
  const_cast<Configuration&>(server1.conf()).Set("filled.by.node", "42");
  EXPECT_EQ(conf.Get("filled.by.node", ""), "42");
  session.End();
}

TEST(ConfAgentRulesTest, InitOnSpawnedThreadStillMapsConfs) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  std::unique_ptr<Server> server;
  std::thread t([&] { server = std::make_unique<Server>(conf); });
  t.join();
  EXPECT_EQ(ConfAgent::Instance().EntityOf(server->conf().id()), "Server");
  EXPECT_EQ(ConfAgent::Instance().EntityOf(server->component_conf().id()), "Server");
  session.End();
}

TEST(ConfAgentRulesTest, ThreadContextIsPerThread) {
  // A conf created on an unrelated thread while another thread runs an init
  // function must not inherit that node.
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  Server anchor(conf);  // nodeTable is non-empty now

  std::optional<std::string> other_entity;
  std::thread t([&] {
    Configuration other;
    other_entity = ConfAgent::Instance().EntityOf(other.id());
  });
  t.join();
  EXPECT_EQ(other_entity, "@uncertain");
  session.End();
}

TEST(ConfAgentRulesTest, SharingDetectedWhenTestConfHandedToNodes) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  Server server1(conf);
  SessionReport report = session.End();
  EXPECT_TRUE(report.conf_sharing_detected);
  EXPECT_GE(report.ref_to_clones, 1);
}

TEST(ConfAgentRulesTest, NoSharingWithoutNodes) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Get("x", "y");
  SessionReport report = session.End();
  EXPECT_FALSE(report.conf_sharing_detected);
  EXPECT_TRUE(report.any_conf_usage);
  EXPECT_FALSE(report.StartedAnyNode());
}

TEST(ConfAgentRulesTest, ReadsRecordedPerEntity) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Get("client.param", "x");
  Server server1(conf);
  server1.FunA("server.param");
  SessionReport report = session.End();
  EXPECT_TRUE(report.ParamsReadBy(kClientEntity).count("client.param") > 0);
  EXPECT_TRUE(report.ParamsReadBy("Server").count("server.param") > 0);
  EXPECT_FALSE(report.ParamsReadBy("Server").count("client.param") > 0);
}

// The recording modes (conf_agent.h, "Recording") observe a session alike
// and differ only in the strings they keep: a trace-only session records
// exactly a full session's trace elements, presence checks and uncertain
// reads included, and none of its read map; a verdict-only one records no
// strings. Counters match in every mode.
TEST(ConfAgentRulesTest, RecordingModesKeepOnlyTheirStrings) {
  TestPlan plan = PlanFor("server.param",
                          ValueAssigner::UniformGroup("Server", "planned", "other"));
  auto observe = [&plan](SessionRecording recording) {
    ConfAgentSession session(&plan, recording);
    Configuration conf;
    conf.Get("client.param", "x");
    conf.Has("client.flag");
    Server server(conf);
    server.FunA("server.param");
    Configuration orphan;  // blank, after a node, outside any init: uncertain
    orphan.Get("stray.param", "y");
    return session.End();
  };
  const SessionReport full = observe(SessionRecording::kFull);
  const SessionReport trace = observe(SessionRecording::kTraceOnly);
  const SessionReport verdict = observe(SessionRecording::kVerdictOnly);
  ASSERT_FALSE(full.reads.empty());
  ASSERT_EQ(full.uncertain_params.count("stray.param"), 1u);
  ASSERT_EQ(full.trace_elements.count(
                TraceHasElement(kClientEntity, 0, "client.flag", nullptr)),
            1u);
  EXPECT_EQ(trace.trace_elements, full.trace_elements);
  EXPECT_TRUE(trace.reads.empty());
  EXPECT_TRUE(trace.uncertain_params.empty());
  EXPECT_TRUE(verdict.trace_elements.empty());
  EXPECT_TRUE(verdict.reads.empty());
  EXPECT_TRUE(verdict.uncertain_params.empty());
  for (const SessionReport* report : {&trace, &verdict}) {
    EXPECT_EQ(report->override_hits, full.override_hits);
    EXPECT_EQ(report->node_counts, full.node_counts);
    EXPECT_EQ(report->uncertain_conf_count, full.uncertain_conf_count);
  }
}

TEST(ConfAgentRulesTest, HooksAreNoOpsOutsideSessions) {
  Configuration conf;
  conf.Set("a", "1");
  EXPECT_EQ(conf.Get("a"), "1");
  EXPECT_FALSE(ConfAgent::Instance().InSession());
  EXPECT_EQ(ConfAgent::Instance().EntityOf(conf.id()), std::nullopt);
}

TEST(ConfAgentRulesTest, RefToCloneOutsideInitIsUncertain) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  // Developer misuse: refToCloneConf outside any node init function. The
  // clone cannot be mapped and must land in uncertainConfIDs.
  Configuration stray = Configuration::RefToClone(conf);
  EXPECT_EQ(ConfAgent::Instance().EntityOf(stray.id()), "@uncertain");
  stray.Get("stray.param", "x");
  SessionReport report = session.End();
  EXPECT_TRUE(report.uncertain_params.count("stray.param") > 0);
}

TEST(ConfAgentRulesTest, UnbalancedStopInitIsTolerated) {
  ConfAgentSession session(TestPlan{});
  ConfAgent::Instance().StopInit();  // no matching StartInit: warns, no crash
  Configuration conf;
  EXPECT_EQ(ConfAgent::Instance().EntityOf(conf.id()), kClientEntity);
  session.End();
}

TEST(ConfAgentRulesTest, CloneChainsPromoteTransitively) {
  ConfAgentSession session(TestPlan{});
  Configuration root;
  Server anchor(root);  // nodeTable non-empty from here on

  // A chain of clones starting from an unmappable conf...
  Configuration orphan;            // uncertain (nodes exist, no init running)
  Configuration child(orphan);     // uncertain via Rule 3
  EXPECT_EQ(ConfAgent::Instance().EntityOf(child.id()), "@uncertain");

  // ...until a node ref-clones the tip: Rule 2 promotes the ancestors.
  Server adopter(child);
  EXPECT_EQ(ConfAgent::Instance().EntityOf(child.id()), kClientEntity);
  EXPECT_EQ(ConfAgent::Instance().EntityOf(orphan.id()), kClientEntity);
  session.End();
}

TEST(ConfAgentRulesTest, ConcurrentNodeInitsMapCorrectly) {
  // Stress Rule 1.1's per-thread context: many threads each run a node
  // initialization concurrently; every node's confs must map to that node
  // and indexes must be a permutation of 0..N-1.
  TestPlan plan = PlanFor("p", ValueAssigner::RoundRobinGroup("Server", "even", "odd"));
  ConfAgentSession session(plan);
  Configuration conf;

  constexpr int kThreads = 16;
  std::vector<std::unique_ptr<Server>> servers(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&servers, &conf, i] { servers[i] = std::make_unique<Server>(conf); });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::set<int> indexes;
  for (const auto& server : servers) {
    EXPECT_EQ(ConfAgent::Instance().EntityOf(server->conf().id()), "Server");
    EXPECT_EQ(ConfAgent::Instance().EntityOf(server->component_conf().id()), "Server");
    int index = ConfAgent::Instance().NodeIndexOf(server->conf().id());
    indexes.insert(index);
    // The round-robin plan value must match the node's index parity.
    EXPECT_EQ(server->FunA("p"), index % 2 == 0 ? "even" : "odd");
  }
  EXPECT_EQ(indexes.size(), static_cast<size_t>(kThreads))
      << "indexes must be unique";
  EXPECT_EQ(*indexes.begin(), 0);
  EXPECT_EQ(*indexes.rbegin(), kThreads - 1);

  SessionReport report = session.End();
  EXPECT_EQ(report.node_counts.at("Server"), kThreads);
  EXPECT_EQ(report.uncertain_conf_count, 0);
}

// The read memo (see conf_agent.h, "Hot path") must never outlive the
// decision it caches: a promotion, a new session and a rewritten name buffer
// each change what a read of the same (conf, name buffer) should see.

TEST(ConfAgentRulesTest, PromotionRefreshesAMemoizedUncertainRead) {
  TestPlan plan = PlanFor("p", ValueAssigner::UniformGroup("Server", "server-value",
                                                           "client-value"));
  ConfAgentSession session(plan);
  Configuration root;
  Server anchor(root);   // nodes exist, so the next blank conf is uncertain
  Configuration orphan;
  orphan.Set("p", "stored");
  EXPECT_EQ(orphan.Get("p"), "stored") << "uncertain confs never see plan values";

  Server adopter(orphan);  // Rule 2 promotes the orphan to the unit test
  EXPECT_EQ(orphan.Get("p"), "client-value");
  SessionReport report = session.End();
  EXPECT_EQ(report.override_hits, 1);
}

TEST(ConfAgentRulesTest, NoMemoizedReadCarriesOverBetweenSessions) {
  // Both plans are borrowed and outlive both sessions, so a slot that
  // survived into session 2 would serve session 1's value, not dangle.
  TestPlan overriding = PlanFor("p", ValueAssigner::Homogeneous("planned"));
  TestPlan empty;
  std::unique_ptr<Configuration> conf;
  {
    ConfAgentSession session(&overriding, SessionRecording::kVerdictOnly);
    conf = std::make_unique<Configuration>();  // Rule 1.2: the unit test's
    conf->Set("p", "stored");
    EXPECT_EQ(conf->Get("p"), "planned");
    EXPECT_EQ(session.End().override_hits, 1);
  }
  ConfAgentSession session(&empty, SessionRecording::kVerdictOnly);
  EXPECT_EQ(conf->Get("p"), "stored");
  EXPECT_EQ(session.End().override_hits, 0);
}

TEST(ConfAgentRulesTest, RewrittenNameBufferReadsItsOwnParameter) {
  TestPlan plan = PlanFor("dfs.param.a", ValueAssigner::Homogeneous("value-a"));
  ParamPlan second;
  second.param = "dfs.param.b";
  second.assigner = ValueAssigner::Homogeneous("value-b");
  plan.Add(std::move(second));
  ConfAgentSession session(plan);
  Configuration conf;

  // One buffer, rewritten in place: same pointer, same length, new name.
  std::string name = "dfs.param.a";
  const char* const buffer = name.data();
  EXPECT_EQ(conf.Get(name), "value-a");
  name.back() = 'b';
  ASSERT_EQ(name.data(), buffer);
  EXPECT_EQ(conf.Get(name), "value-b");
  name.back() = 'a';
  EXPECT_EQ(conf.Get(name), "value-a");
  name.back() = 'c';  // a parameter the plan does not assign
  EXPECT_EQ(conf.Get(name, "default"), "default");
  SessionReport report = session.End();
  EXPECT_EQ(report.override_hits, 3);
}

TEST(ConfAgentRulesTest, NestedSessionsAreRejected) {
  ConfAgentSession session(TestPlan{});
  EXPECT_THROW(ConfAgent::Instance().BeginSession(TestPlan{}), InternalError);
  session.End();
}

}  // namespace
}  // namespace zebra
