// Microbenchmarks of the Configuration hot path: Get/Has per-call cost in
// and out of a ConfAgent session. Every configuration read a unit test makes
// funnels through here, so per-call allocations multiply by the campaign's
// millions of intercepted reads.
//
// BM_ConfGet_MaterializedName reproduces the call shape before the
// string_view refactor (a std::string per call for the property-map key and
// a second copy of the name handed to InterceptGet); the delta against
// BM_ConfGet_* is the allocation cost the refactor removed. The in-session
// arms exercise the agent's read memo (conf_agent.h, "Hot path"): a flat
// table that lives as long as the agent, probed by a hash of the conf id and
// the caller's name pointer and length, with the name bytes compared on a
// hit. A repeat read is one probe and serves the plan's value by reference;
// the typed getters parse that value, or the stored one, in place.
//
// Two arms time what the repeat-read arms cannot see:
//   * first read — a fresh conf per iteration in a verdict-only session, so
//     every read misses the memo and pays interning, entity resolution, the
//     plan lookup and the insert. The conf's own construction, destruction
//     and share of session restarts are timed separately (conf lifecycle),
//     so the miss cost is their difference;
//   * GetInt — a memoized typed read, parsed where the value lies.
// Parameter names are realistic dotted identifiers well past small-string
// optimization, so each legacy materialization was a heap round-trip.
//
// Before the google-benchmark pass, main() times the arms directly and emits
// BENCH_conf_micro.json with ns/op per arm plus the memoized-vs-legacy delta,
// so the InterceptGet hot-path cost is tracked as a machine-readable
// artifact like every other bench.

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/conf/conf_agent.h"
#include "src/conf/configuration.h"

namespace zebra {
namespace {

// 44 characters: representative of HDFS-style names, never SSO-resident.
constexpr std::string_view kParam =
    "dfs.namenode.replication.considerLoad.factor";
constexpr std::string_view kDefault = "2.0";

void BM_ConfGet_NoSession(benchmark::State& state) {
  Configuration conf;
  conf.Set(kParam, "3.5");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conf.Get(kParam, kDefault));
  }
}
BENCHMARK(BM_ConfGet_NoSession);

void BM_ConfGet_InSession(benchmark::State& state) {
  // The unit-test regime: an active session interns the name once, then
  // repeat reads hit the memo — no per-call materialization, plan
  // application, or trace mutation.
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Set(kParam, "3.5");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conf.Get(kParam, kDefault));
  }
  session.End();
}
BENCHMARK(BM_ConfGet_InSession);

// Fresh-conf arms restart their verdict-only session (the uncached
// campaign's heterogeneous runs are verdict-only) every kConfsPerSession
// confs, so the session's ownership tables stay at a unit test's size
// instead of growing with the iteration count.
constexpr int kConfsPerSession = 32;

class FreshConfs {
 public:
  // Constructs a conf for the next iteration, in a session that has seen at
  // most kConfsPerSession - 1 confs before it.
  Configuration& Next() {
    conf_.reset();
    if (made_++ % kConfsPerSession == 0) {
      session_.reset();  // one session per agent at a time
      session_ = std::make_unique<ConfAgentSession>(
          &plan_, SessionRecording::kVerdictOnly);
    }
    return conf_.emplace();
  }

 private:
  const TestPlan plan_;
  int made_ = 0;
  std::unique_ptr<ConfAgentSession> session_;
  std::optional<Configuration> conf_;  // destroyed before its session ends
};

void BM_ConfGet_FirstRead(benchmark::State& state) {
  // Every read misses: each iteration reads through a conf the memo has
  // never seen (construction, destruction and the amortized session restart
  // included).
  FreshConfs confs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(confs.Next().Get(kParam, kDefault));
  }
}
BENCHMARK(BM_ConfGet_FirstRead);

void BM_ConfGetInt_InSession(benchmark::State& state) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Set(kParam, "3");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conf.GetInt(kParam, 2));
  }
  session.End();
}
BENCHMARK(BM_ConfGetInt_InSession);

void BM_ConfGet_MaterializedName(benchmark::State& state) {
  // Pre-refactor call shape: GetStored built std::string(name) to probe the
  // non-transparent property map, and InterceptGet took the name by value —
  // two heap strings per read. Kept as the comparison arm.
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Set(kParam, "3.5");
  for (auto _ : state) {
    std::string map_key(kParam);
    std::string intercept_copy(kParam);
    benchmark::DoNotOptimize(map_key);
    benchmark::DoNotOptimize(conf.Get(intercept_copy, kDefault));
  }
  session.End();
}
BENCHMARK(BM_ConfGet_MaterializedName);

void BM_ConfHas_InSession(benchmark::State& state) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Set(kParam, "3.5");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conf.Has(kParam));
  }
  session.End();
}
BENCHMARK(BM_ConfHas_InSession);

// Best-of-R ns/op over a fixed iteration count: allocator and scheduler
// jitter at nanosecond scale make the minimum the honest per-call cost.
template <typename Body>
double MeasureNsPerOp(Body&& body, int iterations = 400000,
                      int repetitions = 5) {
  double best = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      body();
    }
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count() /
                iterations;
    if (rep == 0 || ns < best) {
      best = ns;
    }
  }
  return best;
}

void WriteConfMicroJson() {
  double no_session_ns = 0;
  {
    Configuration conf;
    conf.Set(kParam, "3.5");
    no_session_ns = MeasureNsPerOp(
        [&] { benchmark::DoNotOptimize(conf.Get(kParam, kDefault)); });
  }

  double memoized_ns = 0;
  double get_int_ns = 0;
  {
    ConfAgentSession session(TestPlan{});
    Configuration conf;
    conf.Set(kParam, "3.5");
    memoized_ns = MeasureNsPerOp(
        [&] { benchmark::DoNotOptimize(conf.Get(kParam, kDefault)); });
    Configuration int_conf;
    int_conf.Set(kParam, "3");
    get_int_ns = MeasureNsPerOp(
        [&] { benchmark::DoNotOptimize(int_conf.GetInt(kParam, 2)); });
    session.End();
  }

  double lifecycle_ns = 0;
  {
    FreshConfs confs;
    lifecycle_ns =
        MeasureNsPerOp([&] { benchmark::DoNotOptimize(confs.Next().id()); });
  }
  double first_read_ns = 0;
  {
    FreshConfs confs;
    first_read_ns = MeasureNsPerOp(
        [&] { benchmark::DoNotOptimize(confs.Next().Get(kParam, kDefault)); });
  }

  double legacy_ns = 0;
  {
    ConfAgentSession session(TestPlan{});
    Configuration conf;
    conf.Set(kParam, "3.5");
    legacy_ns = MeasureNsPerOp([&] {
      std::string map_key(kParam);
      std::string intercept_copy(kParam);
      benchmark::DoNotOptimize(map_key);
      benchmark::DoNotOptimize(conf.Get(intercept_copy, kDefault));
    });
    session.End();
  }

  std::printf(
      "InterceptGet hot path: %.1f ns/op memoized in-session "
      "(%.1f ns/op outside a session); legacy materialized-name shape "
      "%.1f ns/op — the memoized path saves %.1f ns per intercepted read "
      "(%.2fx).\n",
      memoized_ns, no_session_ns, legacy_ns, legacy_ns - memoized_ns,
      memoized_ns > 0 ? legacy_ns / memoized_ns : 0.0);
  std::printf(
      "First read of a fresh conf: %.1f ns/op (conf lifecycle alone %.1f "
      "ns/op, so a memo miss costs about %.1f ns); memoized GetInt %.1f "
      "ns/op.\n",
      first_read_ns, lifecycle_ns, first_read_ns - lifecycle_ns, get_int_ns);

  WriteBenchJson("BENCH_conf_micro.json", [&](JsonWriter& json) {
    json.Field("param_name_length", static_cast<int>(kParam.size()));
    json.Field("get_no_session_ns_per_op", no_session_ns, 2);
    json.Field("get_in_session_memoized_ns_per_op", memoized_ns, 2);
    json.Field("get_in_session_materialized_legacy_ns_per_op", legacy_ns, 2);
    json.Field("memoized_saving_ns_per_op", legacy_ns - memoized_ns, 2);
    json.Field("memoized_speedup_vs_legacy",
               memoized_ns > 0 ? legacy_ns / memoized_ns : 0.0, 3);
    json.Field("get_first_read_ns_per_op", first_read_ns, 2);
    json.Field("conf_lifecycle_ns_per_op", lifecycle_ns, 2);
    json.Field("first_read_miss_ns_per_op", first_read_ns - lifecycle_ns, 2);
    json.Field("get_int_in_session_memoized_ns_per_op", get_int_ns, 2);
  });
}

}  // namespace
}  // namespace zebra

int main(int argc, char** argv) {
  zebra::WriteConfMicroJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
