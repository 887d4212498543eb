// Tests for the distributed campaign fabric: the checksummed TCP wire
// protocol, the deterministic network fault plane, and the coordinator/agent
// backend itself. The invariant mirrors fault_tolerance_test.cc: network
// faults change how often units re-run, how many agents die, and how long
// the campaign takes — never findings, Table-5 stage counts, or
// runs_to_first_detection, which must stay bitwise-identical to the
// uninterrupted sequential campaign at every fleet shape (CI-gated via the
// *BitwiseIdentical* / *Crash* / *Garbled* / *Resume* filters).
//
// Note on agent budgets: the fleet is fixed — a crash, drop, garble, or
// heartbeat retirement permanently removes one agent (the coordinator throws
// only when none remain) — so each fault test provisions one more agent than
// the faults it injects, exactly like the worker budgets in
// fault_tolerance_test.cc.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/core/campaign_agent.h"
#include "src/core/distributed_campaign.h"
#include "src/core/fabric_wire.h"
#include "src/core/fault_injection.h"
#include "src/core/report_io.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

// Full structural equality against the sequential reference (same contract
// as fault_tolerance_test.cc). Durations, wall-clock, and the fabric
// accounting counters themselves are bookkeeping, not results.
void ExpectIdenticalResults(const CampaignReport& actual,
                            const CampaignReport& expected,
                            const std::string& label) {
  SCOPED_TRACE(label);

  ASSERT_EQ(actual.per_app.size(), expected.per_app.size());
  for (const auto& [app, counts] : expected.per_app) {
    ASSERT_TRUE(actual.per_app.count(app) > 0) << app;
    const AppStageCounts& got = actual.per_app.at(app);
    EXPECT_EQ(got.original, counts.original) << app;
    EXPECT_EQ(got.after_static, counts.after_static) << app;
    EXPECT_EQ(got.after_prerun, counts.after_prerun) << app;
    EXPECT_EQ(got.after_uncertainty, counts.after_uncertainty) << app;
    EXPECT_EQ(got.executed_runs, counts.executed_runs) << app;
    EXPECT_EQ(got.tests_total, counts.tests_total) << app;
    EXPECT_EQ(got.tests_with_nodes, counts.tests_with_nodes) << app;
  }

  ASSERT_EQ(actual.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(actual.findings.count(param) > 0) << param;
    const ParamFinding& got = actual.findings.at(param);
    EXPECT_EQ(got.owning_app, finding.owning_app) << param;
    EXPECT_EQ(got.witness_tests, finding.witness_tests) << param;
    EXPECT_EQ(got.example_failure, finding.example_failure) << param;
    EXPECT_EQ(got.best_p_value, finding.best_p_value) << param;
  }

  EXPECT_EQ(actual.first_trial_candidates, expected.first_trial_candidates);
  EXPECT_EQ(actual.filtered_by_hypothesis, expected.filtered_by_hypothesis);
  EXPECT_EQ(actual.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(actual.runs_to_first_detection, expected.runs_to_first_detection);
  EXPECT_EQ(actual.first_detection_param, expected.first_detection_param);
}

CampaignOptions SmallCampaign() {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  return options;
}

CampaignReport SequentialReference(const CampaignOptions& options) {
  Campaign sequential(FullSchema(), FullCorpus(), options);
  return sequential.Run();
}

CampaignReport RunFabric(const CampaignOptions& options,
                         const DistributedCampaignOptions& fabric) {
  return RunDistributedCampaign(FullSchema(), FullCorpus(), options, fabric);
}

// --- Wire protocol ----------------------------------------------------------

TEST(FabricWireTest, FrameRoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  // Empty payload (the heartbeat shape) and a binary payload with embedded
  // NULs and newlines both survive intact.
  ASSERT_TRUE(WriteFabricFrame(fds[1], FabricMsg::kHeartbeat, ""));
  std::string binary("a\0b\nc\r\xff", 7);
  ASSERT_TRUE(WriteFabricFrame(fds[1], FabricMsg::kResult, binary));
  ::close(fds[1]);

  FabricMsg type;
  std::string payload;
  ASSERT_EQ(ReadFabricFrame(fds[0], &type, &payload), FabricRead::kOk);
  EXPECT_EQ(type, FabricMsg::kHeartbeat);
  EXPECT_TRUE(payload.empty());
  ASSERT_EQ(ReadFabricFrame(fds[0], &type, &payload), FabricRead::kOk);
  EXPECT_EQ(type, FabricMsg::kResult);
  EXPECT_EQ(payload, binary);

  // A close on a frame boundary is the one *clean* termination.
  EXPECT_EQ(ReadFabricFrame(fds[0], &type, &payload), FabricRead::kEof);
  ::close(fds[0]);
}

TEST(FabricWireTest, GarbledMagicAndChecksumAreRejected) {
  // Corrupt magic: anything not starting "ZFAB" is a broken peer.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string junk = "!!!NOT-A-FABRIC-FRAME!!!";
    ASSERT_EQ(::write(fds[1], junk.data(), junk.size()),
              static_cast<ssize_t>(junk.size()));
    ::close(fds[1]);
    FabricMsg type;
    std::string payload;
    EXPECT_EQ(ReadFabricFrame(fds[0], &type, &payload), FabricRead::kGarbled);
    ::close(fds[0]);
  }
  // Flipped payload byte: header parses but the FNV checksum must not.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_TRUE(WriteFabricFrame(fds[1], FabricMsg::kDispatch, "0 0\nparam"));
    ::close(fds[1]);
    // Read the valid bytes back, corrupt the last payload byte, re-send.
    std::string wire(4096, '\0');
    ssize_t n = ::read(fds[0], wire.data(), wire.size());
    ASSERT_GT(n, 28);
    wire.resize(static_cast<size_t>(n));
    wire.back() ^= 0x5a;
    ::close(fds[0]);

    int fds2[2];
    ASSERT_EQ(::pipe(fds2), 0);
    ASSERT_EQ(::write(fds2[1], wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    ::close(fds2[1]);
    FabricMsg type;
    std::string payload;
    EXPECT_EQ(ReadFabricFrame(fds2[0], &type, &payload), FabricRead::kGarbled);
    ::close(fds2[0]);
  }
  // EOF mid-frame (a torn header) is garbled, never a clean kEof.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], "ZFAB", 4), 4);
    ::close(fds[1]);
    FabricMsg type;
    std::string payload;
    EXPECT_EQ(ReadFabricFrame(fds[0], &type, &payload), FabricRead::kGarbled);
    ::close(fds[0]);
  }
}

TEST(FabricWireTest, ParseHostPortTableDriven) {
  struct Case {
    const char* address;
    bool ok;
    const char* host;          // valid cases
    uint16_t port;             // valid cases
    const char* error_needle;  // invalid cases: substring of the error
  };
  const Case cases[] = {
      {"127.0.0.1:9009", true, "127.0.0.1", 9009, ""},
      {":9009", true, "", 9009, ""},  // empty host = INADDR_ANY, the one
                                      // meaningful empty field
      {"example.internal:1", true, "example.internal", 1, ""},
      {"10.0.0.1:65535", true, "10.0.0.1", 65535, ""},
      // IPv6-ish shapes parse on the last colon.
      {"::1:8080", true, "::1", 8080, ""},
      {"no-port-here", false, "", 0, "missing ':'"},
      {"host:", false, "", 0, "empty port"},
      {"host:0", false, "", 0, "out of range"},
      {"host:65536", false, "", 0, "out of range"},
      {"host:99999", false, "", 0, "out of range"},
      {"host:123456789012345678901", false, "", 0, "out of range"},
      {"host:9009x", false, "", 0, "not a number"},
      {"host:90x09", false, "", 0, "not a number"},
      {"host:+9009", false, "", 0, "not a number"},
      {"host:-1", false, "", 0, "not a number"},
      {"host:0x1f90", false, "", 0, "not a number"},
      // ParseInt64's whitespace trim must NOT leak into endpoint parsing.
      {"host: 9009", false, "", 0, "whitespace"},
      {"host:9009 ", false, "", 0, "whitespace"},
      {" host:9009", false, "", 0, "whitespace"},
      {"host:90\t09", false, "", 0, "whitespace"},
      {"", false, "", 0, "missing ':'"},
      {":", false, "", 0, "empty port"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("address '") + c.address + "'");
    std::string host = "UNTOUCHED";
    uint16_t port = 12345;
    std::string error;
    if (c.ok) {
      ASSERT_TRUE(ParseHostPort(c.address, &host, &port, &error)) << error;
      EXPECT_EQ(host, c.host);
      EXPECT_EQ(port, c.port);
    } else {
      ASSERT_FALSE(ParseHostPort(c.address, &host, &port, &error));
      // A refusal must come with a reason naming the offending part, and
      // must not have scribbled on the outputs.
      EXPECT_NE(error.find(c.error_needle), std::string::npos) << error;
      EXPECT_EQ(host, "UNTOUCHED");
      EXPECT_EQ(port, 12345);
    }
  }
}

TEST(FabricWireTest, VersionMismatchDistinguishedFromGarble) {
  // Capture a valid frame, rewrite its version field (bytes 4-7), and feed
  // it back: an intact frame from another protocol era must surface as
  // kVersionMismatch — the handshake names the refusal — not as line noise.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFabricFrame(fds[1], FabricMsg::kHello, "hash\n1\n0"));
  ::close(fds[1]);
  std::string wire(4096, '\0');
  ssize_t n = ::read(fds[0], wire.data(), wire.size());
  ASSERT_GT(n, 28);
  wire.resize(static_cast<size_t>(n));
  ::close(fds[0]);

  // v1 (unbatched) and v2 (no kConfirm) peers alike; the payload checksum
  // is version-agnostic.
  for (char old_version : {'\x01', '\x02'}) {
    SCOPED_TRACE(static_cast<int>(old_version));
    wire[4] = old_version;
    int fds2[2];
    ASSERT_EQ(::pipe(fds2), 0);
    ASSERT_EQ(::write(fds2[1], wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    ::close(fds2[1]);
    FabricMsg type;
    std::string payload;
    EXPECT_EQ(ReadFabricFrame(fds2[0], &type, &payload),
              FabricRead::kVersionMismatch);
    ::close(fds2[0]);
  }
}

TEST(FabricWireTest, BatchRecordRoundTrip) {
  // Records with newlines, NULs, and emptiness all survive; order holds.
  std::vector<std::string> records = {
      "0 0\nserialized result with\nnewlines",
      std::string("binary\0rec", 10),
      "",
      "plain",
  };
  std::string payload;
  for (const std::string& record : records) {
    AppendBatchRecord(&payload, record);
  }
  std::vector<std::string> decoded;
  ASSERT_TRUE(DecodeBatchRecords(payload, &decoded));
  EXPECT_EQ(decoded, records);

  // The zero-record batch is valid (an empty payload decodes to nothing).
  ASSERT_TRUE(DecodeBatchRecords("", &decoded));
  EXPECT_TRUE(decoded.empty());

  // Malformed shapes a checksum cannot catch: missing length prefix,
  // non-numeric length, truncated body, and a length that overruns.
  EXPECT_FALSE(DecodeBatchRecords("no-length-prefix", &decoded));
  EXPECT_FALSE(DecodeBatchRecords("3x\nabc", &decoded));
  EXPECT_FALSE(DecodeBatchRecords("\nabc", &decoded));
  EXPECT_FALSE(DecodeBatchRecords("10\nshort", &decoded));
  EXPECT_FALSE(DecodeBatchRecords("5\nabcde3\nab", &decoded));
  // A truncated prefix of a valid payload must not decode.
  EXPECT_FALSE(DecodeBatchRecords(payload.substr(0, payload.size() - 1),
                                  &decoded));
}

TEST(FabricWireTest, ConfirmRecordRoundTripAndMalformedRejected) {
  size_t unit = 0;
  int attempt = 0;
  std::string param;
  const std::string payload = EncodeConfirm(17, 2, "dfs.heartbeat.interval");
  EXPECT_EQ(payload, "17 2\ndfs.heartbeat.interval");
  ASSERT_TRUE(DecodeConfirm(payload, &unit, &attempt, &param));
  EXPECT_EQ(unit, 17u);
  EXPECT_EQ(attempt, 2);
  EXPECT_EQ(param, "dfs.heartbeat.interval");

  // Shapes a checksum cannot catch: every one fails closed and leaves the
  // outputs alone.
  for (const std::string& bad : std::vector<std::string>{
           "", "17 2", "17 2\n", "17\np", " 17 2\np", "17  2\np", "17 2 \np",
           "-1 2\np", "17 -2\np", "+17 2\np", "x 2\np", "17 y\np",
           "17 2\np\nq", "99999999999 0\np", "0 2147483648\np"}) {
    SCOPED_TRACE(bad);
    unit = 5;
    attempt = 5;
    param = "untouched";
    EXPECT_FALSE(DecodeConfirm(bad, &unit, &attempt, &param));
    EXPECT_EQ(unit, 5u);
    EXPECT_EQ(attempt, 5);
    EXPECT_EQ(param, "untouched");
  }
}

TEST(FabricWireTest, TcpNoDelaySetOnAcceptedAndConnectedSockets) {
  // Every live fabric socket must run with Nagle off — the accepted side
  // included (a 40ms delayed-ACK stall per dispatch would swamp the batched
  // data plane). Build a real listen/connect/accept triple and assert the
  // option on both ends.
  uint16_t port = 0;
  int listen_fd = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_GE(listen_fd, 0);
  int client_fd = ConnectTcp("127.0.0.1", port, 5.0);
  ASSERT_GE(client_fd, 0);
  int server_fd = AcceptTcp(listen_fd);
  ASSERT_GE(server_fd, 0);

  auto nodelay = [](int fd) {
    int value = 0;
    socklen_t len = sizeof(value);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
    return value != 0;
  };
  EXPECT_TRUE(nodelay(client_fd)) << "ConnectTcp socket";
  EXPECT_TRUE(nodelay(server_fd)) << "AcceptTcp socket";

  // The helper itself: idempotent on TCP, refuses a non-TCP fd.
  EXPECT_TRUE(SetTcpNoDelay(client_fd));
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  EXPECT_FALSE(SetTcpNoDelay(pipe_fds[0]));
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);

  ::close(client_fd);
  ::close(server_fd);
  ::close(listen_fd);
}

// --- Network fault plane ----------------------------------------------------

TEST(NetFaultPlanTest, DecisionsAreSeedDeterministicAndAgentIndependent) {
  NetFaultPlan plan;
  plan.seed = 42;
  plan.agent_crash_rate = 0.3;
  plan.duplicate_rate = 0.2;

  NetFaultSpec first;
  NetFaultSpec second;
  int fired = 0;
  for (int unit = 0; unit < 64; ++unit) {
    std::string test_id = "app.Test" + std::to_string(unit);
    bool a = plan.Decide(/*agent=*/0, test_id, /*attempt=*/0, &first);
    bool b = plan.Decide(/*agent=*/7, test_id, /*attempt=*/0, &second);
    // Replayable under any unit-to-agent assignment: the agent index must
    // not influence the decision (same contract as FaultPlan).
    ASSERT_EQ(a, b) << test_id;
    if (a) {
      EXPECT_EQ(first.kind, second.kind) << test_id;
      ++fired;
    }
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);

  NetFaultPlan other = plan;
  other.seed = 43;
  int differences = 0;
  for (int unit = 0; unit < 64; ++unit) {
    std::string test_id = "app.Test" + std::to_string(unit);
    NetFaultSpec unused;
    if (plan.Decide(0, test_id, 0, &unused) !=
        other.Decide(0, test_id, 0, &unused)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(NetFaultPlanTest, ExplicitSpecsMatchWildcardsAndWinOverRandom) {
  NetFaultPlan plan;
  NetFaultSpec spec;
  spec.kind = NetFaultKind::kConnectionDrop;
  spec.test_id = "minikv.TestPutGet";
  spec.agent = -1;
  spec.attempt = -1;
  plan.specs.push_back(spec);
  plan.seed = 1;
  plan.agent_crash_rate = 1.0;  // would otherwise fire everywhere

  NetFaultSpec out;
  ASSERT_TRUE(plan.Decide(0, "minikv.TestPutGet", 0, &out));
  EXPECT_EQ(out.kind, NetFaultKind::kConnectionDrop);
  ASSERT_TRUE(plan.Decide(3, "minikv.TestPutGet", 2, &out));
  EXPECT_EQ(out.kind, NetFaultKind::kConnectionDrop);
  // Off-spec units fall through to random mode.
  ASSERT_TRUE(plan.Decide(0, "minikv.TestOther", 0, &out));
  EXPECT_EQ(out.kind, NetFaultKind::kAgentCrash);
}

// --- Handshake identity -----------------------------------------------------

TEST(FabricSchemaHashTest, SensitiveToResultAffectingOptions) {
  const std::string base =
      FabricSchemaHash(FullSchema(), FullCorpus(), SmallCampaign());
  EXPECT_EQ(base,
            FabricSchemaHash(FullSchema(), FullCorpus(), SmallCampaign()));

  CampaignOptions other_apps = SmallCampaign();
  other_apps.apps = {"minikv"};
  EXPECT_NE(base, FabricSchemaHash(FullSchema(), FullCorpus(), other_apps));

  CampaignOptions other_trials = SmallCampaign();
  other_trials.first_trials += 1;
  EXPECT_NE(base, FabricSchemaHash(FullSchema(), FullCorpus(), other_trials));
}

// --- The fabric itself ------------------------------------------------------

TEST(DistributedCampaignTest, BitwiseIdenticalAcrossFleetShapes) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  struct Shape {
    int agents;
    int threads;
  };
  for (const Shape& shape : std::vector<Shape>{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}}) {
    DistributedCampaignOptions fabric;
    fabric.agents = shape.agents;
    fabric.agent_threads = shape.threads;
    CampaignReport report = RunFabric(options, fabric);
    ExpectIdenticalResults(report, expected,
                           std::to_string(shape.agents) + " agents x " +
                               std::to_string(shape.threads) + " threads");
    EXPECT_EQ(report.agent_disconnects, 0);
    EXPECT_EQ(report.expired_leases, 0);
    EXPECT_EQ(report.duplicate_results, 0);
  }
}

TEST(DistributedCampaignTest, AgentCrashBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  NetFaultSpec crash;
  crash.kind = NetFaultKind::kAgentCrash;
  crash.test_id = "minikv.TestPutGet";
  crash.attempt = 0;
  fabric.net_faults.specs.push_back(crash);

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "agent crash");
  EXPECT_GE(report.agent_disconnects, 1);
  EXPECT_GE(report.expired_leases, 1);
  EXPECT_GE(report.requeued_units, 1);
}

TEST(DistributedCampaignTest, ConnectionDropRecoversLostWork) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // The drop fires *after* the unit executed: work done but the result lost
  // in flight. The lease expiry must re-run it as if it never happened.
  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  NetFaultSpec drop;
  drop.kind = NetFaultKind::kConnectionDrop;
  drop.test_id = "ministream.TestDataExchange";
  drop.attempt = 0;
  fabric.net_faults.specs.push_back(drop);

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "connection drop");
  EXPECT_GE(report.agent_disconnects, 1);
  EXPECT_GE(report.expired_leases, 1);
}

TEST(DistributedCampaignTest, GarbledFrameRetiresAgentBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  NetFaultSpec garble;
  garble.kind = NetFaultKind::kGarbledFrame;
  garble.test_id = "minikv.TestRestStatus";
  garble.attempt = 0;
  fabric.net_faults.specs.push_back(garble);

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "garbled frame");
  EXPECT_GE(report.agent_disconnects, 1);
  EXPECT_GE(report.expired_leases, 1);
}

TEST(DistributedCampaignTest, DelayedHeartbeatTripsLivenessTimeout) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // Mute heartbeats for far longer than the coordinator's patience *while*
  // the same unit runs slowly — a live-but-silent host. The coordinator must
  // retire it on heartbeat silence and requeue its lease on the survivor.
  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  fabric.heartbeat_interval_seconds = 0.05;
  fabric.heartbeat_timeout_seconds = 0.5;
  NetFaultSpec mute;
  mute.kind = NetFaultKind::kDelayedHeartbeat;
  mute.test_id = "minikv.TestPutGet";
  mute.attempt = 0;
  mute.delay_seconds = 30.0;
  fabric.net_faults.specs.push_back(mute);
  FaultSpec slow;
  slow.kind = FaultKind::kSlowWorker;
  slow.test_id = "minikv.TestPutGet";
  slow.attempt = 0;
  slow.slow_seconds = 2.0;
  fabric.faults.specs.push_back(slow);

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "delayed heartbeat");
  EXPECT_GE(report.agent_disconnects, 1);
  EXPECT_GE(report.expired_leases, 1);
}

TEST(DistributedCampaignTest, StaleDuplicateResultDroppedIdempotently) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  NetFaultSpec dup;
  dup.kind = NetFaultKind::kStaleDuplicateResult;
  dup.test_id = "minikv.TestPutGet";
  dup.attempt = -1;
  fabric.net_faults.specs.push_back(dup);

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "stale duplicate result");
  EXPECT_GE(report.duplicate_results, 1);
  // The duplicate is dropped, not folded: no agent died for it.
  EXPECT_EQ(report.agent_disconnects, 0);
}

TEST(DistributedCampaignTest, HungUnitCaughtByLeaseWatchdog) {
  CampaignOptions options = SmallCampaign();
  // A hung worker thread on a heartbeating host: heartbeats keep flowing, so
  // only the per-lease watchdog deadline can catch it.
  options.watchdog_floor_seconds = 0.5;
  options.watchdog_multiplier = 8.0;
  CampaignOptions reference = options;
  CampaignReport expected = SequentialReference(reference);

  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  FaultSpec hang;
  hang.kind = FaultKind::kHang;
  hang.test_id = "ministream.TestDataExchange";
  hang.attempt = 0;
  fabric.faults.specs.push_back(hang);

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "hung unit");
  EXPECT_GE(report.hung_workers, 1);
  EXPECT_GE(report.expired_leases, 1);
  EXPECT_GE(report.agent_disconnects, 1);
}

TEST(DistributedCampaignTest, SeededRandomNetFaultsBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // Random mode uses the non-fatal kind: a fatal rate fires at *unit*
  // coordinates (agent-independent by design), so nothing bounds how many
  // agents a given seed retires — the explicit-spec tests above pin each
  // fatal kind deterministically instead.
  DistributedCampaignOptions fabric;
  fabric.agents = 3;
  fabric.net_faults.seed = 7;
  fabric.net_faults.duplicate_rate = 0.25;

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "seeded random net faults");
  // Every unit's attempt-0 coordinate is always visited, so the seed's
  // attempt-0 firings are a guaranteed floor. The exact count is accounting
  // noise (stale-snapshot requeues visit extra attempt coordinates), but
  // the *results* above must not move at all.
  EXPECT_GE(report.duplicate_results, 1);
  EXPECT_EQ(report.agent_disconnects, 0);

  CampaignReport again = RunFabric(options, fabric);
  ExpectIdenticalResults(again, expected, "seeded random net faults, rerun");
  EXPECT_GE(again.duplicate_results, 1);
}

TEST(DistributedCampaignTest, JournalResumeBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fabric_resume.zj";
  std::remove(path.c_str());

  // First invocation "crashes" the coordinator after two folds; the journal
  // holds exactly those two unit results.
  DistributedCampaignOptions first;
  first.agents = 2;
  first.journal_path = path;
  first.abort_after_folds = 2;
  CampaignReport partial = RunFabric(options, first);
  EXPECT_LT(partial.total_unit_test_runs, expected.total_unit_test_runs);

  // The restarted coordinator replays the journal prefix, dispatches only
  // the remainder over a fresh fleet, and must fold bitwise-identically.
  DistributedCampaignOptions second;
  second.agents = 2;
  second.journal_path = path;
  second.resume = true;
  CampaignReport resumed = RunFabric(options, second);
  ExpectIdenticalResults(resumed, expected, "fabric journal resume");
  EXPECT_EQ(resumed.resumed_units, 2);
  std::remove(path.c_str());
}

TEST(DistributedCampaignTest, ResumeUnderAgentCrashBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fabric_resume_crash.zj";
  std::remove(path.c_str());

  DistributedCampaignOptions first;
  first.agents = 2;
  first.journal_path = path;
  first.abort_after_folds = 3;
  RunFabric(options, first);

  // The resumed run additionally loses an agent mid-flight.
  DistributedCampaignOptions second;
  second.agents = 2;
  second.journal_path = path;
  second.resume = true;
  NetFaultSpec crash;
  crash.kind = NetFaultKind::kAgentCrash;
  crash.test_id = "ministream.TestTwoJobsSequential";
  crash.attempt = 0;
  second.net_faults.specs.push_back(crash);
  CampaignReport resumed = RunFabric(options, second);
  ExpectIdenticalResults(resumed, expected, "resume + agent crash");
  EXPECT_EQ(resumed.resumed_units, 3);
  std::remove(path.c_str());
}

TEST(DistributedCampaignTest, BitwiseIdenticalAcrossPipelineDepths) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // Depth 1 degenerates to the v1 lease discipline (one lease per thread);
  // deeper pipelines keep depth x threads leases in flight. None of it may
  // move results: a lease is a promise of execution, not of order.
  for (int depth : {1, 2, 4}) {
    DistributedCampaignOptions fabric;
    fabric.agents = 2;
    fabric.agent_threads = 2;
    fabric.pipeline_depth = depth;
    CampaignReport report = RunFabric(options, fabric);
    ExpectIdenticalResults(report, expected,
                           "pipeline depth " + std::to_string(depth));
    EXPECT_EQ(report.agent_disconnects, 0);
  }

  DistributedCampaignOptions invalid;
  invalid.agents = 1;
  invalid.pipeline_depth = 0;
  EXPECT_THROW(RunFabric(options, invalid), Error);
}

TEST(DistributedCampaignTest, EpochDesyncForcesFullResendBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // The agent "forgets" its snapshot epoch at the moment this unit's
  // dispatch arrives: the unit (and any in-flight delta batches behind it)
  // must come back as kSnapshotNack, the coordinator must requeue them and
  // fall back to a full snapshot send, and the campaign must not notice.
  // The agent survives — a desync is a state problem, not a liveness one.
  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  fabric.agent_threads = 2;
  fabric.pipeline_depth = 2;
  NetFaultSpec desync;
  desync.kind = NetFaultKind::kEpochDesync;
  desync.test_id = "ministream.TestDataExchange";
  desync.attempt = 0;
  fabric.net_faults.specs.push_back(desync);

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "epoch desync");
  EXPECT_GE(report.requeued_units, 1);
  EXPECT_GE(report.expired_leases, 1);
  EXPECT_EQ(report.agent_disconnects, 0);
}

TEST(DistributedCampaignTest, GarbledBatchedFrameAtDepthFourBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // Same garble as GarbledFrameRetiresAgentBitwiseIdentical, but with a deep
  // pipeline: the corrupted kResultBatch takes a whole batch of sibling
  // leases down with the agent, and every one must be re-run elsewhere.
  DistributedCampaignOptions fabric;
  fabric.agents = 2;
  fabric.agent_threads = 2;
  fabric.pipeline_depth = 4;
  NetFaultSpec garble;
  garble.kind = NetFaultKind::kGarbledFrame;
  garble.test_id = "minikv.TestRestStatus";
  garble.attempt = 0;
  fabric.net_faults.specs.push_back(garble);

  CampaignReport report = RunFabric(options, fabric);
  ExpectIdenticalResults(report, expected, "garbled batched frame, depth 4");
  EXPECT_GE(report.agent_disconnects, 1);
  EXPECT_GE(report.expired_leases, 1);
}

TEST(DistributedCampaignTest, OneAgentSpendsTheSequentialCacheLookups) {
  // One agent with one thread at the default depth holds one lease at a
  // time, and the next unit goes out only after the previous result is in:
  // every earlier confirmation is folded or recorded, so each projected
  // snapshot is the exact sequential set. No attempt is discarded, and the
  // agent asks its cache exactly what the sequential engine asks (runs the
  // verifier answers itself ask nothing): 2 hits, 1,512 misses and 41
  // equivalence hits over the 2,894 logical runs.
  CampaignOptions options;  // all apps
  options.enable_run_cache = true;
  options.enable_equiv_cache = true;
  DistributedCampaignOptions fabric;
  fabric.agents = 1;
  fabric.agent_threads = 1;
  CampaignReport report = RunFabric(options, fabric);
  const CampaignReport sequential = SequentialReference(options);
  ExpectIdenticalResults(report, sequential, "one agent");
  EXPECT_EQ(report.cache_hits + report.cache_misses + report.equiv_hits,
            sequential.cache_hits + sequential.cache_misses + sequential.equiv_hits);
  EXPECT_EQ(sequential.cache_hits + sequential.cache_misses + sequential.equiv_hits,
            1555);
}

// --- One agent, driven frame by frame ----------------------------------------

// Waits up to `seconds` for a frame on `fd`; kError when none arrives.
FabricRead ReadFrameWithin(int fd, double seconds, FabricMsg* type,
                           std::string* payload) {
  struct pollfd pfd = {fd, POLLIN, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, static_cast<int>(seconds * 1000.0));
  } while (ready < 0 && errno == EINTR);
  return ready > 0 ? ReadFabricFrame(fd, type, payload) : FabricRead::kError;
}

TEST(CampaignAgentTest, ConfirmationsStreamAheadOfTheirResult) {
  // The test plays the coordinator for one forked agent: it dispatches every
  // unit of the small campaign under the empty set and checks that each
  // unit's kConfirm frames arrive before its result record and list, in
  // order, exactly the result's confirmations.
  const CampaignOptions options = SmallCampaign();
  size_t unit_count = 0;
  for (const std::string& app : options.apps) {
    unit_count += FullCorpus().ForApp(app).size();
  }

  uint16_t port = 0;
  int listen_fd = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_GE(listen_fd, 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(listen_fd);
    CampaignAgentOptions agent;
    agent.port = port;
    std::_Exit(RunCampaignAgent(FullSchema(), FullCorpus(), options, agent));
  }
  // Every way out of the test kills and reaps the agent unless it exited.
  struct Reaper {
    pid_t pid;
    ~Reaper() {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } agent_process{pid};
  int fd = AcceptTcp(listen_fd);
  ::close(listen_fd);
  ASSERT_GE(fd, 0);

  FabricMsg type;
  std::string payload;
  ASSERT_EQ(ReadFrameWithin(fd, 10.0, &type, &payload), FabricRead::kOk);
  ASSERT_EQ(type, FabricMsg::kHello);
  ASSERT_TRUE(WriteFabricFrame(fd, FabricMsg::kWelcome, "0\n0.2"));
  std::string batch;
  AppendBatchRecord(&batch, "-1 1 F\n");  // the empty set, as epoch 1
  for (size_t unit = 0; unit < unit_count; ++unit) {
    AppendBatchRecord(&batch, std::to_string(unit) + " 0");
  }
  ASSERT_TRUE(WriteFabricFrame(fd, FabricMsg::kDispatchBatch, batch));

  std::map<size_t, std::vector<std::string>> streamed;
  std::set<size_t> delivered;
  size_t confirming_units = 0;
  while (delivered.size() < unit_count) {
    ASSERT_EQ(ReadFrameWithin(fd, 30.0, &type, &payload), FabricRead::kOk);
    if (type == FabricMsg::kConfirm) {
      size_t unit = 0;
      int attempt = -1;
      std::string param;
      ASSERT_TRUE(DecodeConfirm(payload, &unit, &attempt, &param)) << payload;
      EXPECT_EQ(attempt, 0);
      EXPECT_EQ(delivered.count(unit), 0u) << "confirmation after its result";
      streamed[unit].push_back(param);
    } else if (type == FabricMsg::kResultBatch) {
      std::vector<std::string> records;
      ASSERT_TRUE(DecodeBatchRecords(payload, &records));
      for (const std::string& record : records) {
        const size_t newline = record.find('\n');
        ASSERT_NE(newline, std::string::npos);
        size_t unit_index = 0;
        UnitWorkResult unit;
        ASSERT_TRUE(ParseUnitResult(record.substr(newline + 1), &unit_index, &unit));
        EXPECT_EQ(record.substr(0, newline), std::to_string(unit_index) + " 0 1");
        std::vector<std::string> confirmed;
        for (const UnitConfirmation& confirmation : unit.confirmations) {
          confirmed.push_back(confirmation.param);
        }
        EXPECT_EQ(streamed[unit_index], confirmed) << unit.test_id;
        confirming_units += confirmed.empty() ? 0 : 1;
        delivered.insert(unit_index);
      }
    }
  }
  EXPECT_GE(confirming_units, 1u);

  ASSERT_TRUE(WriteFabricFrame(fd, FabricMsg::kShutdown, std::string()));
  do {
    ASSERT_EQ(ReadFrameWithin(fd, 10.0, &type, &payload), FabricRead::kOk);
  } while (type != FabricMsg::kStats);
  ::close(fd);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  agent_process.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// --- Persistent agent cache -------------------------------------------------

TEST(DistributedCampaignTest, WarmAgentCacheBitwiseIdenticalWithCacheHits) {
  CampaignOptions options = SmallCampaign();
  options.enable_run_cache = true;
  CampaignReport expected = SequentialReference(options);

  const std::string dir = ::testing::TempDir() + "/fabric_warm_cache";
  ::mkdir(dir.c_str(), 0755);
  const std::string cache_file =
      dir + "/fabric-" + FabricSchemaHash(FullSchema(), FullCorpus(), options) +
      "-agent0.zc";
  std::remove(cache_file.c_str());

  DistributedCampaignOptions fabric;
  fabric.agents = 1;
  fabric.agent_threads = 2;
  fabric.agent_cache_dir = dir;

  // Cold run: populates and persists the agent's cache at shutdown.
  CampaignReport cold = RunFabric(options, fabric);
  ExpectIdenticalResults(cold, expected, "cold agent cache");
  EXPECT_EQ(cold.cache_load_failures, 0);
  struct stat st;
  ASSERT_EQ(::stat(cache_file.c_str(), &st), 0)
      << "agent did not persist its run cache to " << cache_file;
  EXPECT_GT(st.st_size, 0);

  // Warm restart: the coordinator restart gate. Same campaign, same cache
  // dir — results bitwise-identical, but runs the cold campaign had to
  // execute are now served from disk: hits up, misses strictly down.
  CampaignReport warm = RunFabric(options, fabric);
  ExpectIdenticalResults(warm, expected, "warm agent cache");
  EXPECT_EQ(warm.cache_load_failures, 0);
  EXPECT_GT(warm.cache_hits, 0);
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
  EXPECT_LT(warm.cache_misses, cold.cache_misses);

  std::remove(cache_file.c_str());
}

TEST(DistributedCampaignTest, CorruptAgentCacheDegradesToColdStart) {
  CampaignOptions options = SmallCampaign();
  options.enable_run_cache = true;
  CampaignReport expected = SequentialReference(options);

  const std::string dir = ::testing::TempDir() + "/fabric_corrupt_cache";
  ::mkdir(dir.c_str(), 0755);
  const std::string cache_file =
      dir + "/fabric-" + FabricSchemaHash(FullSchema(), FullCorpus(), options) +
      "-agent0.zc";

  DistributedCampaignOptions fabric;
  fabric.agents = 1;
  fabric.agent_cache_dir = dir;

  // Outright garbage where the cache file should be.
  {
    std::ofstream out(cache_file, std::ios::binary | std::ios::trunc);
    const std::string junk("!!this is not a run cache!!\0\xff\x01garbage", 38);
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  CampaignReport garbage = RunFabric(options, fabric);
  ExpectIdenticalResults(garbage, expected, "garbage agent cache");
  EXPECT_GE(garbage.cache_load_failures, 1)
      << "a corrupt cache must be surfaced, not silently ignored";
  EXPECT_EQ(garbage.agent_disconnects, 0);

  // Truncation: the clean run above rewrote a valid cache at shutdown; chop
  // it mid-file and the next load must also degrade to a cold start.
  struct stat st;
  ASSERT_EQ(::stat(cache_file.c_str(), &st), 0);
  ASSERT_GT(st.st_size, 2);
  ASSERT_EQ(::truncate(cache_file.c_str(), st.st_size / 2), 0);
  CampaignReport truncated = RunFabric(options, fabric);
  ExpectIdenticalResults(truncated, expected, "truncated agent cache");
  EXPECT_GE(truncated.cache_load_failures, 1);
  EXPECT_EQ(truncated.agent_disconnects, 0);

  std::remove(cache_file.c_str());
}

TEST(DistributedCampaignTest, AllAgentsDeadThrows) {
  CampaignOptions options;
  options.apps = {"minikv"};
  // A single agent that crashes on the very first unit leaves nobody to take
  // over its leases.
  DistributedCampaignOptions fabric;
  fabric.agents = 1;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.test_id = "minikv.TestPutGet";
  crash.attempt = -1;
  fabric.faults.specs.push_back(crash);
  EXPECT_THROW(RunFabric(options, fabric), Error);
}

TEST(DistributedCampaignTest, ZeroAgentsRejected) {
  CampaignOptions options;
  options.apps = {"minikv"};
  DistributedCampaignOptions fabric;
  fabric.agents = 0;
  EXPECT_THROW(RunFabric(options, fabric), Error);
}

}  // namespace
}  // namespace zebra
