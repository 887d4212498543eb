// Unit tests for the zebralint static analyzer: lexing, read-site
// extraction, wire-taint classification, and drift detection — all on
// in-memory fixture sources so every rule is exercised in isolation.

#include <gtest/gtest.h>

#include "src/analysis/flow_graph.h"
#include "src/analysis/read_site_extractor.h"
#include "src/analysis/source_lexer.h"
#include "src/analysis/static_prior.h"
#include "src/conf/conf_schema.h"

namespace zebra {
namespace analysis {
namespace {

// ---------------------------------------------------------------- lexer ---

TEST(SourceLexer, StripsCommentsAndPreprocessorKeepsLines) {
  auto tokens = LexCpp(
      "#include <map>\n"
      "// a comment with Get(kFake)\n"
      "int x = 3; /* block\n"
      "   comment */ int y;\n");
  ASSERT_EQ(tokens.size(), 8u);  // int x = 3 ; int y ;
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[0].line, 3);
  EXPECT_EQ(tokens[3].text, "3");
  EXPECT_EQ(tokens[5].text, "int");
  EXPECT_EQ(tokens[5].line, 4);  // after the block comment's newline
}

TEST(SourceLexer, StringLiteralsAndMultiCharPunct) {
  auto tokens = LexCpp("a->b(\"dfs.x\"); c::d == e;\n");
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[1].text, "->");
  EXPECT_EQ(tokens[3].text, "(");
  EXPECT_EQ(tokens[4].kind, TokenKind::kString);
  EXPECT_EQ(tokens[4].text, "dfs.x");
  bool saw_scope = false, saw_eq = false;
  for (const Token& t : tokens) {
    saw_scope |= t.Is("::");
    saw_eq |= t.Is("==");
  }
  EXPECT_TRUE(saw_scope);
  EXPECT_TRUE(saw_eq);
}

TEST(SourceLexer, CollectsLintMarkers) {
  auto markers = CollectLintMarkers(
      "int a;\n"
      "// zebralint(external-init): TaskManager bracketed at call sites\n");
  ASSERT_EQ(markers.size(), 1u);
  EXPECT_EQ(markers[0].tag, "external-init");
  EXPECT_EQ(markers[0].argument, "TaskManager bracketed at call sites");
  EXPECT_EQ(markers[0].line, 2);
}

TEST(SourceLexer, RawStringsLexAsOneLiteral) {
  // The ')' and '"' inside the raw body must not terminate the literal, and
  // the delimiter form must be honored.
  auto tokens = LexCpp(
      "auto a = R\"(quote \" and paren ) inside)\";\n"
      "auto b = R\"sep(body with )\" fake close)sep\";\n");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "quote \" and paren ) inside");
  bool saw_delimited = false;
  for (const Token& t : tokens) {
    saw_delimited |= t.kind == TokenKind::kString &&
                     t.text == "body with )\" fake close";
  }
  EXPECT_TRUE(saw_delimited);
}

TEST(SourceLexer, PrefixedRawAndEncodedStrings) {
  // u8/u/U/L prefixes, with and without R. The prefix must not leak into an
  // identifier token, and the contents must come through unquoted.
  auto tokens = LexCpp(
      "auto a = u8R\"(alpha)\";\n"
      "auto b = LR\"(beta)\";\n"
      "auto c = L\"gamma\";\n"
      "auto d = u8\"delta\";\n");
  std::vector<std::string> strings;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kString) {
      strings.push_back(t.text);
    }
    // No residue identifiers from the prefixes.
    EXPECT_FALSE(t.IsIdent() && (t.text == "u8R" || t.text == "LR" ||
                                 t.text == "L" || t.text == "u8"))
        << t.text;
  }
  EXPECT_EQ(strings,
            (std::vector<std::string>{"alpha", "beta", "gamma", "delta"}));
}

TEST(SourceLexer, RawStringNewlinesCountLines) {
  auto tokens = LexCpp(
      "auto a = R\"(line one\n"
      "line two\n"
      "line three)\";\n"
      "int after = 1;\n");
  bool saw_after = false;
  for (const Token& t : tokens) {
    if (t.Is("after")) {
      saw_after = true;
      EXPECT_EQ(t.line, 4);
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(SourceLexer, BackslashContinuationSplicesTokens) {
  // A backslash-newline splice is invisible to the token stream: the halves
  // of an identifier join, and strings continue across it.
  auto tokens = LexCpp(
      "int hand\\\n"
      "lers = conf.GetInt(\"dfs.han\\\n"
      "dler.count\", 10);\n"
      "int next = 2;\n");
  ASSERT_GE(tokens.size(), 5u);
  EXPECT_EQ(tokens[1].text, "handlers");
  bool saw_param = false, saw_next = false;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kString) {
      EXPECT_EQ(t.text, "dfs.handler.count");
      saw_param = true;
    }
    if (t.Is("next")) {
      saw_next = true;
      EXPECT_EQ(t.line, 4);  // splices still advance the line counter
    }
  }
  EXPECT_TRUE(saw_param);
  EXPECT_TRUE(saw_next);
}

TEST(SourceLexer, ContinuedPreprocessorAndCommentLinesAreDropped) {
  // A continued #define swallows its continuation lines; a line comment
  // ending in a backslash swallows the next line too.
  auto tokens = LexCpp(
      "#define HELPER(x) \\\n"
      "  do_something(x)\n"
      "// trailing comment continues \\\n"
      "still commented out\n"
      "int real = 1;\n");
  ASSERT_EQ(tokens.size(), 5u);  // int real = 1 ;
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[1].text, "real");
  EXPECT_EQ(tokens[1].line, 5);
}

// ------------------------------------------------------------ extraction ---

constexpr char kParamsHeader[] = R"(
inline constexpr char kFixHeartbeat[] = "fix.heartbeat.interval";
inline constexpr char kFixHandlers[] = "fix.handler.count";
inline constexpr char kFixEncrypt[] = "fix.encrypt.transfer";
inline constexpr char kFixDataDir[] = "fix.data.dir";
)";

constexpr char kNodeSource[] = R"(
#include "fix_params.h"
namespace zebra {

FixNode::FixNode(Cluster* cluster, const Configuration& conf)
    : init_scope_(kFixApp, this, "FixNode", __FILE__, __LINE__),
      cluster_(cluster) {
  handlers_ = conf.GetInt(kFixHandlers, 10);
  data_dir_ = conf.Get(kFixDataDir, "/tmp");
}

void FixNode::SendHeartbeat(FixMaster* master) {
  int interval = conf().GetInt(kFixHeartbeat, 3);
  master->OnHeartbeat(interval);
}

Bytes FixNode::Encode(const Bytes& payload) {
  bool encrypt = conf().GetBool(kFixEncrypt, false);
  return EncodeFrame(MakeWire(encrypt), payload);
}

}  // namespace zebra
)";

TEST(ReadSiteExtractor, FindsConstantsReadSitesAndNodeClasses) {
  ProgramModel program;
  program.Merge(ExtractTu("src/apps/fix/fix_params.h", kParamsHeader));
  program.Merge(ExtractTu("src/apps/fix/fix_node.cc", kNodeSource));
  program.Resolve();

  EXPECT_EQ(program.param_constants.at("kFixHeartbeat"),
            "fix.heartbeat.interval");
  EXPECT_EQ(program.param_constants.size(), 4u);
  EXPECT_TRUE(program.node_classes.count("FixNode"));

  auto sites = program.AllReadSites();
  ASSERT_EQ(sites.size(), 4u);
  bool found_heartbeat = false;
  for (const ReadSite* site : sites) {
    if (site->param == "fix.heartbeat.interval") {
      found_heartbeat = true;
      EXPECT_EQ(site->enclosing_class, "FixNode");
      EXPECT_EQ(site->function, "FixNode::SendHeartbeat");
      EXPECT_EQ(site->method, "GetInt");
      EXPECT_GT(site->line, 0);
    }
  }
  EXPECT_TRUE(found_heartbeat);
}

TEST(ReadSiteExtractor, TracksConstructorBracketsAndStatements) {
  ProgramModel program;
  program.Merge(ExtractTu("src/apps/fix/fix_node.cc", kNodeSource));
  const FunctionModel* ctor = nullptr;
  for (const FunctionModel& fn : program.tus[0]->functions) {
    if (fn.is_constructor) ctor = &fn;
  }
  ASSERT_NE(ctor, nullptr);
  EXPECT_EQ(ctor->qualified, "FixNode::FixNode");
  EXPECT_TRUE(ctor->has_init_bracket);
  // Two init-list entries + two body statements.
  EXPECT_GE(ctor->statements.size(), 4u);
}

// ----------------------------------------------------------------- taint ---

// The flow graph's wire-taint verdicts (rules R1-R3, flow_graph.h) over the
// fixture program plus `extra_source`.
FlowGraph TaintOf(const char* extra_source) {
  ProgramModel program;
  program.Merge(ExtractTu("src/apps/fix/fix_params.h", kParamsHeader));
  program.Merge(ExtractTu("src/apps/fix/fix_node.cc", kNodeSource));
  if (extra_source != nullptr) {
    program.Merge(ExtractTu("src/apps/fix/fix_extra.cc", extra_source));
  }
  program.Resolve();
  return BuildFlowGraph(BuildProgramFacts(program));
}

bool IsWireTainted(const FlowGraph& graph, const std::string& param) {
  auto it = graph.params.find(param);
  return it != graph.params.end() && it->second.wire_tainted;
}

TEST(FlowGraphTaint, WirePrimitiveCoOccurrenceTaints) {
  FlowGraph graph = TaintOf(nullptr);
  // R1a via local: encrypt flows into EncodeFrame in the same function.
  EXPECT_TRUE(IsWireTainted(graph, "fix.encrypt.transfer"));
}

TEST(FlowGraphTaint, CrossNodeCallTaints) {
  // `master` is declared FixMaster* in the parameter list; FixMaster must be
  // a node class for the call to count, so bracket it in the fixture.
  FlowGraph graph = TaintOf(R"(
FixMaster::FixMaster(Cluster* cluster)
    : init_scope_(kFixApp, this, "FixMaster", __FILE__, __LINE__) {}
)");
  EXPECT_TRUE(IsWireTainted(graph, "fix.heartbeat.interval"));
}

TEST(FlowGraphTaint, BareReadsStayNodeLocal) {
  FlowGraph graph = TaintOf(nullptr);
  EXPECT_FALSE(IsWireTainted(graph, "fix.handler.count"));
  EXPECT_FALSE(IsWireTainted(graph, "fix.data.dir"));
}

TEST(FlowGraphTaint, ProtocolThrowWithControlDependenceTaints) {
  FlowGraph graph = TaintOf(R"(
void FixNode::Create(const std::string& name) {
  const int limit = conf().GetInt(kFixHandlers, 10);
  if (static_cast<int>(name.size()) > limit) {
    throw LimitError("component too long");
  }
}
)");
  // The guard reads a local assigned from the parameter; the throw is inside
  // the same ';'-delimited statement as the if-header.
  EXPECT_TRUE(IsWireTainted(graph, "fix.handler.count"));
}

TEST(FlowGraphTaint, ReadInsideProtocolSurfaceTaints) {
  // FixNode::Encode is not name-matched, but once another node calls it
  // cross-node it becomes a protocol surface; reads inside it taint (R2).
  FlowGraph graph = TaintOf(R"(
FixMaster::FixMaster(Cluster* cluster)
    : init_scope_(kFixApp, this, "FixMaster", __FILE__, __LINE__) {}
void FixMaster::Pull(FixNode* source) {
  source->Encode(Bytes{});
}
)");
  ASSERT_TRUE(graph.protocol_surfaces.count("FixNode::Encode"));
  EXPECT_TRUE(IsWireTainted(graph, "fix.encrypt.transfer"));
}

TEST(FlowGraphTaint, HelperReadPropagatesIntoSinkStatement) {
  FlowGraph graph = TaintOf(R"(
WireConfig FixWire(const Configuration& conf) {
  WireConfig wire;
  wire.compress = conf.Get(kFixDataDir, "none");
  return wire;
}
void FixNode::Push(const Bytes& payload) {
  auto frame = EncodeFrame(FixWire(conf()), payload);
}
)");
  // R3: the helper's direct read feeds a statement containing a wire
  // primitive.
  EXPECT_TRUE(IsWireTainted(graph, "fix.data.dir"));
}

// ----------------------------------------------------------------- drift ---

StaticPriorReport AnalyzeFixture(const ConfSchema* schema,
                                 const char* extra_source) {
  StaticAnalyzer analyzer;
  analyzer.AddSource("src/apps/fix/fix_params.h", kParamsHeader);
  analyzer.AddSource("src/apps/fix/fix_node.cc", kNodeSource);
  if (extra_source != nullptr) {
    analyzer.AddSource("src/apps/fix/fix_extra.cc", extra_source);
  }
  return analyzer.Analyze(schema);
}

ConfSchema FixtureSchema() {
  ConfSchema schema;
  auto add = [&](const std::string& name) {
    ParamSpec spec;
    spec.name = name;
    spec.app = "fix";
    spec.type = ParamType::kString;
    spec.default_value = "d";
    spec.test_values = {"d", "e"};
    schema.AddParam(std::move(spec));
  };
  add("fix.heartbeat.interval");
  add("fix.handler.count");
  add("fix.encrypt.transfer");
  add("fix.data.dir");
  return schema;
}

TEST(StaticPrior, CleanFixtureHasNoErrors) {
  ConfSchema schema = FixtureSchema();
  StaticPriorReport report = AnalyzeFixture(&schema, nullptr);
  EXPECT_FALSE(report.HasErrors()) << ReportToText(report);
  EXPECT_TRUE(report.never_read.empty());
}

TEST(StaticPrior, DeletedSchemaParamStillReadIsAnError) {
  // Simulate "schema param deleted but code still reads it": a schema
  // missing fix.encrypt.transfer while fix_node.cc reads it.
  ConfSchema schema;
  ParamSpec spec;
  spec.name = "fix.heartbeat.interval";
  spec.app = "fix";
  spec.test_values = {"1", "2"};
  schema.AddParam(spec);
  StaticPriorReport report = AnalyzeFixture(&schema, nullptr);
  ASSERT_TRUE(report.HasErrors());
  bool found = false;
  for (const DriftFinding& finding : report.errors) {
    if (finding.kind == DriftKind::kReadNotInSchema &&
        finding.subject == "fix.encrypt.transfer") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << ReportToText(report);
}

TEST(StaticPrior, NeverReadSchemaParamIsWarningNotError) {
  ConfSchema schema = FixtureSchema();
  ParamSpec spec;
  spec.name = "fix.ghost.param";
  spec.app = "fix";
  spec.test_values = {"1", "2"};
  schema.AddParam(spec);
  StaticPriorReport report = AnalyzeFixture(&schema, nullptr);
  EXPECT_FALSE(report.HasErrors());
  ASSERT_EQ(report.never_read.size(), 1u);
  EXPECT_EQ(report.never_read[0], "fix.ghost.param");
  EXPECT_TRUE(report.IsNeverRead("fix.ghost.param"));
  EXPECT_EQ(report.PriorityOf("fix.ghost.param"), kPriorityNeverRead);
}

TEST(StaticPrior, UnbracketedConfigReadingConstructorIsDrift) {
  ConfSchema schema = FixtureSchema();
  StaticPriorReport report = AnalyzeFixture(&schema, R"(
FixRogue::FixRogue(const Configuration& conf) {
  conf.GetInt(kFixHandlers, 1);
}
)");
  ASSERT_TRUE(report.HasErrors());
  EXPECT_EQ(report.errors.front().kind, DriftKind::kAnnotationDrift);
  EXPECT_EQ(report.errors.front().subject, "FixRogue::FixRogue");
}

TEST(StaticPrior, ExternalInitMarkerSuppressesDrift) {
  ConfSchema schema = FixtureSchema();
  StaticPriorReport report = AnalyzeFixture(&schema, R"(
// zebralint(external-init): FixRogue is bracketed by its factory
FixRogue::FixRogue(const Configuration& conf) {
  conf.GetInt(kFixHandlers, 1);
}
)");
  EXPECT_FALSE(report.HasErrors()) << ReportToText(report);
}

TEST(StaticPrior, PrioritiesAndSerializationRoundTrip) {
  ConfSchema schema = FixtureSchema();
  StaticPriorReport report = AnalyzeFixture(&schema, nullptr);
  // Wire band: the sink-type spectrum sits on top of the kPriorityWire
  // floor, strictly below the ceiling.
  EXPECT_GE(report.PriorityOf("fix.encrypt.transfer"), kPriorityWire);
  EXPECT_LT(report.PriorityOf("fix.encrypt.transfer"), kPriorityWireCeiling);
  EXPECT_GE(report.PriorityOf("fix.handler.count"), kPriorityLocal);
  EXPECT_LT(report.PriorityOf("fix.handler.count"), kPriorityWire);
  EXPECT_EQ(report.PriorityOf("param.nobody.knows"), kPriorityLocal);

  std::string json = ReportToJson(report);
  EXPECT_NE(json.find("\"fix.encrypt.transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"wire_tainted\": true"), std::string::npos);
  std::string text = ReportToText(report);
  EXPECT_NE(text.find("WIRE-TAINTED"), std::string::npos);
  EXPECT_NE(text.find("fix.handler.count"), std::string::npos);
}

}  // namespace
}  // namespace analysis
}  // namespace zebra
