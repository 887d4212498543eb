// perfbench_driver: runs one workload of the campaign benchmark for a time
// budget, checks every op against the ground-truth oracle, and prints the
// metrics (see perfbench/README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--root DIR] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer metrics of
// a traced run, and writes its spans as Chrome trace-event JSON under
// --work-dir. The last line of standard output is one JSON object; a run that
// cannot start exits nonzero without it.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/oracle.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Every untraced run measures at least this many ops, so op_tail_ms always
// has ten ops beyond it.
constexpr int64_t kMinOps = 20;
// Traced runs: ops whose counts must repeat exactly between runs of one
// seed, and ops the layer probes are fed.
constexpr int64_t kProbeOps = 4;
constexpr int64_t kRetestCountOps = 64;
// Set-ups timed in forked children before the run's own (median reported).
constexpr int kSetupRepeats = 14;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Times Bench set-up in a forked child, which starts from this process's
// state before any singleton exists, and reaps it.
double SetupInChild(const Bench::Config& config) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(stdout);
  pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      Clock::time_point start = Clock::now();
      Bench bench(config);
      double seconds = SecondsSince(start);
      code = ::write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds) ? 0 : 1;
    } catch (...) {
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  double seconds = -1.0;
  bool got = ::read(fds[0], &seconds, sizeof(seconds)) == sizeof(seconds);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up failed in a child process");
  }
  return seconds;
}

// CPU time of this process (nanosecond clock).
double SelfCpuSeconds() {
  struct timespec self;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
  return static_cast<double>(self.tv_sec) + 1e-9 * static_cast<double>(self.tv_nsec);
}

// CPU time of this process plus its reaped children.
double CpuSeconds() {
  struct rusage children;
  ::getrusage(RUSAGE_CHILDREN, &children);
  return SelfCpuSeconds() +
         static_cast<double>(children.ru_utime.tv_sec + children.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(children.ru_utime.tv_usec + children.ru_stime.tv_usec);
}

// This process's peak resident set. VmHWM, not RUSAGE_SELF: ru_maxrss
// carries the peak of the image that exec'd this one (the launcher).
double SelfPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// The largest reaped child's peak resident set.
double ChildPeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// Machine-speed calibration. The shared host the benchmark was tuned on
// slows every CPU-bound op by up to ~40% for seconds to minutes at a time.
// Between ops, never inside one, the benchmark times a fixed kernel shaped like
// the campaign hot path (string keys, FNV hashing, an ordered map) and scales
// each op's times to reference speed: measured x reference / the local
// kernel time (median of the last three samples), wall-clock by the kernel's
// wall-clock and CPU time by its CPU time (a descheduled vCPU stretches the
// first but not the second). The kernel is the benchmark's own code, so no
// change to the program can move it; the table prints raw values too.
class SpeedProbe {
 public:
  // One kernel copy runs per thread the workload keeps busy in this process
  // (native_pool: 3 workers + coordinator), so a slowed vCPU shows wherever
  // the workload runs. The references are that kernel's median wall-clock
  // and CPU time on the 4-vCPU KVM Xeon box the benchmark was tuned on
  // (Release, g++ 12).
  static SpeedProbe For(Workload workload) {
    return workload == Workload::kNativePool ? SpeedProbe(4, 0.0050, 0.0120)
                                             : SpeedProbe(1, 0.0025, 0.0025);
  }

  // Samples the kernel when kIntervalSeconds have passed since the last
  // sample, so short ops are not calibrated after every one.
  void MaybeSample() {
    if (!wall_samples_.empty() && SecondsSince(last_) < kIntervalSeconds) {
      return;
    }
    Clock::time_point start = Clock::now();
    const double cpu_start = SelfCpuSeconds();
    std::vector<std::thread> helpers;
    for (int i = 1; i < threads_; ++i) {
      helpers.emplace_back(RunKernel);
    }
    RunKernel();
    for (std::thread& helper : helpers) {
      helper.join();
    }
    wall_samples_.push_back(SecondsSince(start));
    cpu_samples_.push_back(SelfCpuSeconds() - cpu_start);
    last_ = Clock::now();
  }

  // Multiply wall-clock (divide rates) and CPU time by these to report them
  // at reference speed: from the latest samples, or over the run.
  double LocalFactor() const { return Local(reference_wall_, wall_samples_); }
  double LocalCpuFactor() const { return Local(reference_cpu_, cpu_samples_); }
  double RunFactor() const { return Ratio(reference_wall_, Median(wall_samples_)); }
  double RunCpuFactor() const { return Ratio(reference_cpu_, Median(cpu_samples_)); }
  int threads() const { return threads_; }
  size_t samples() const { return wall_samples_.size(); }

 private:
  static constexpr double kIntervalSeconds = 0.2;
  static constexpr int kKeys = 5000;

  SpeedProbe(int threads, double reference_wall, double reference_cpu)
      : threads_(threads), reference_wall_(reference_wall), reference_cpu_(reference_cpu) {}

  static double Local(double reference, const std::vector<double>& samples) {
    size_t from = samples.size() > 3 ? samples.size() - 3 : 0;
    return Ratio(reference, Median(std::vector<double>(samples.begin() + from, samples.end())));
  }

  static void RunKernel() {
    std::map<std::string, uint64_t> table;
    uint64_t hash = 1469598103934665603ull;
    for (int i = 0; i < kKeys; ++i) {
      std::string key = "dfs.namenode.param." + std::to_string((i * 7919) % kKeys);
      for (char c : key) {
        hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
      table[key] += hash & 7;
    }
    uint64_t sum = 0;
    for (int i = 0; i < kKeys; ++i) {
      sum += table["dfs.namenode.param." + std::to_string(i)];
    }
    sink_.fetch_add(sum, std::memory_order_relaxed);  // keeps the work live
  }

  static inline std::atomic<uint64_t> sink_{0};
  int threads_;
  double reference_wall_;
  double reference_cpu_;
  std::vector<double> wall_samples_;
  std::vector<double> cpu_samples_;
  Clock::time_point last_;
};

struct Args {
  Workload workload = Workload::kNativeSeq;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string work_dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &args->workload);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--root") {
      args->root = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0.0;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name, value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Untraced ops: the end-to-end metrics.

struct OpSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double speed_factor = 1.0;  // SpeedProbe::LocalFactor just before the op
  double cpu_factor = 1.0;    // SpeedProbe::LocalCpuFactor just before the op
  int64_t logical_runs = 0;
  int64_t executions = 0;
};

struct Phase {
  std::vector<OpSample> samples;
  int64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) {
      first_failure = why;
    }
  }
};

void RunUntracedOp(Bench& bench, int64_t op, const SpeedProbe* speed, Phase* phase) {
  OpSample sample;
  if (speed != nullptr) {
    sample.speed_factor = speed->LocalFactor();
    sample.cpu_factor = speed->LocalCpuFactor();
  }
  OpOutcome outcome;
  std::string failure;
  double cpu_before = CpuSeconds();
  Clock::time_point op_start = Clock::now();
  try {
    outcome = bench.RunOp(op, nullptr);
  } catch (const std::exception& e) {
    failure = std::string("op threw: ") + e.what();
  }
  sample.wall_s = SecondsSince(op_start);
  sample.cpu_s = CpuSeconds() - cpu_before;
  sample.logical_runs = outcome.report.total_unit_test_runs;
  sample.executions = outcome.executions;
  if (failure.empty()) {
    failure = bench.Check(outcome, /*traced=*/false);
  }
  if (!failure.empty()) {
    phase->Fail(failure);
  }
  phase->samples.push_back(sample);
}

std::vector<double> Walls(const Phase& phase, bool scaled = false) {
  std::vector<double> walls;
  for (const OpSample& sample : phase.samples) {
    walls.push_back(sample.wall_s * (scaled ? sample.speed_factor : 1.0));
  }
  return walls;
}

// The end-to-end metrics of one phase, times either raw or at reference
// speed (each op scaled by its own speed factor).
std::vector<Metric> OpMetrics(const Phase& phase, bool scaled) {
  std::vector<double> walls = Walls(phase, scaled);
  double cpu_total = 0.0;
  double wall_total = 0.0;
  double logical_total = 0.0;
  double executions_total = 0.0;
  for (size_t i = 0; i < phase.samples.size(); ++i) {
    const OpSample& sample = phase.samples[i];
    cpu_total += sample.cpu_s * (scaled ? sample.cpu_factor : 1.0);
    wall_total += walls[i];
    logical_total += static_cast<double>(sample.logical_runs);
    executions_total += static_cast<double>(sample.executions);
  }
  const double ops = static_cast<double>(walls.size());
  std::sort(walls.begin(), walls.end());
  return {
      {"op_ms", "ms", 1e3 * Median(walls)},
      // Highest percentile with at least ten ops beyond it.
      {"op_tail_ms", "ms", 1e3 * walls[walls.size() - 11]},
      {"runs_per_s", "1/s", Ratio(logical_total, wall_total)},
      {"executions_per_op", "count", executions_total / ops},
      {"cpu_s_per_op", "s", cpu_total / ops},
  };
}

std::vector<Metric> EndToEnd(const Bench& bench, const Phase& phase, double setup_s,
                             size_t setups, const SpeedProbe& speed) {
  double peak_rss_mb = SelfPeakRssMb();
  if (bench.config().workload == Workload::kPaperFabric) {
    // Agents run side by side; RUSAGE_CHILDREN holds the largest reaped one.
    peak_rss_mb += Concurrency(Workload::kPaperFabric) * ChildPeakRssMb();
  }
  std::vector<Metric> raw = OpMetrics(phase, /*scaled=*/false);
  std::vector<Metric> metrics = OpMetrics(phase, /*scaled=*/true);
  raw.push_back({"peak_rss_mb", "MB", peak_rss_mb});
  metrics.push_back(raw.back());
  raw.push_back({"setup_s", "s", setup_s});
  metrics.push_back({"setup_s", "s", setup_s * speed.RunFactor()});
  const size_t ops = phase.samples.size();
  const double tail_percentile = 100.0 * static_cast<double>(ops - 10) / static_cast<double>(ops);

  std::printf("workload %s, seed %llu: %lld ops, closed loop, one op at a time\n",
              WorkloadName(bench.config().workload),
              static_cast<unsigned long long>(bench.config().seed),
              static_cast<long long>(phase.samples.size()));
  std::printf("  speed factors %.4f wall, %.4f cpu over the run (kernel x %d threads, "
              "%zu samples); times and rates below are at reference speed\n",
              speed.RunFactor(), speed.RunCpuFactor(), speed.threads(), speed.samples());
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    std::printf("  %-18s %14.6f %-5s", metric.name, metric.value, metric.unit);
    if (metric.value != raw[i].value) {
      std::printf("   (raw %.6f)", raw[i].value);
    }
    if (std::strcmp(metric.name, "op_tail_ms") == 0) {
      std::printf("   (p%.1f of %zu ops)", tail_percentile, ops);
    } else if (std::strcmp(metric.name, "setup_s") == 0) {
      std::printf("   (median of %zu set-ups)", setups);
    }
    std::printf("\n");
  }
  std::printf("  %-18s %14.6f ratio   (%lld of %zu ops)\n", "failed_op_ratio",
              Ratio(static_cast<double>(phase.failed), static_cast<double>(ops)),
              static_cast<long long>(phase.failed), ops);
  return metrics;
}

// ---------------------------------------------------------------------------
// Traced ops: the per-layer metrics.

struct LayerMetric {
  const char* layer;
  const char* name;
  const char* unit;
};

// Printed and emitted in this order. See perfbench/README.md for each
// metric's definition and the end-to-end metric it should move.
const LayerMetric kLayerMetrics[] = {
    {"execution", "exec.count", "count"},
    {"execution", "exec.busy_ms", "ms"},
    {"execution", "exec.us_per_run", "us"},
    {"generation", "prerun.us_per_call", "us"},
    {"generation", "generate.us_per_call", "us"},
    {"generation", "generate.instances", "count"},
    {"campaign", "unit.ms_per_call", "ms"},
    {"campaign", "unit.self_ms", "ms"},
    {"campaign", "verify.candidates", "count"},
    {"campaign", "verify.filtered", "count"},
    {"coupling", "coupling.runs", "count"},
    {"coupling", "coupling.confirmations", "count"},
    {"fold", "fold.us_per_call", "us"},
    {"cache", "cache.hits", "count"},
    {"cache", "cache.misses", "count"},
    {"cache", "cache.hit_ratio", "ratio"},
    {"cache", "equiv.hits", "count"},
    {"cache", "equiv.mispredictions", "count"},
    {"cache", "equiv.misprediction_ratio", "ratio"},
    {"scheduler", "sched.lookups_per_run", "ratio"},
    {"scheduler", "sched.busy_ratio", "ratio"},
    {"scheduler", "sched.requeued_units", "count"},
    {"journal", "journal.append_us", "us"},
    {"journal", "journal.append_failures", "count"},
    {"fabric", "wire.encode_us_per_unit", "us"},
    {"fabric", "wire.decode_us_per_unit", "us"},
    {"fabric", "wire.bytes_per_unit", "B"},
    {"fabric", "wire.frame_rtt_us", "us"},
    {"fabric", "fabric.busy_ratio", "ratio"},
    {"fabric", "fabric.expired_leases", "count"},
    {"fabric", "fabric.duplicate_results", "count"},
    {"fabric", "fabric.agent_disconnects", "count"},
    {"analysis", "lint.analyze_ms", "ms"},
    {"analysis", "lint.tus_parsed", "count"},
    {"analysis", "lint.facts_computed", "count"},
    {"analysis", "diff.us", "us"},
    {"analysis", "retest.impacted_params", "count"},
    {"analysis", "retest.units_skipped", "count"},
    {"tracing", "trace.op_ms", "ms"},
    {"tracing", "trace.untraced_op_ms", "ms"},
};

// Sums over traced ops. "Counted" sums cover only the first count_ops ops,
// so they repeat exactly between traced runs of one seed.
struct LayerTotals {
  double ops = 0, wall_s = 0, run_unit_us = 0, units = 0;
  double exec_s = 0, exec_runs = 0, logical_runs = 0;
  double cache_hits = 0, cache_misses = 0, equiv_hits = 0, mispredictions = 0;
  double requeued = 0, journal_failures = 0, expired = 0, duplicates = 0,
         disconnects = 0;
  double counted_ops = 0, counted_exec_runs = 0, candidates = 0, filtered = 0,
         coupling_runs = 0, coupling_confirmations = 0, units_skipped = 0;
  double lint_ops = 0, tus_parsed = 0, facts_computed = 0, impacted = 0;
  std::vector<double> walls;
};

void Accumulate(const OpOutcome& outcome, double wall_s, bool counted,
                LayerTotals* t) {
  const zebra::CampaignReport& report = outcome.report;
  double exec_s = 0.0;
  for (double seconds : report.run_durations_seconds) {
    exec_s += seconds;
  }
  t->ops += 1;
  t->wall_s += wall_s;
  t->walls.push_back(wall_s);
  t->run_unit_us += outcome.run_unit_us;
  for (const auto& [app, counts] : report.per_app) {
    t->units += counts.tests_total;
  }
  t->exec_s += exec_s;
  t->exec_runs += static_cast<double>(report.run_durations_seconds.size());
  t->logical_runs += static_cast<double>(report.total_unit_test_runs);
  t->cache_hits += static_cast<double>(report.cache_hits);
  t->cache_misses += static_cast<double>(report.cache_misses);
  t->equiv_hits += static_cast<double>(report.equiv_hits);
  t->mispredictions += static_cast<double>(report.mispredictions);
  t->requeued += static_cast<double>(report.requeued_units);
  t->journal_failures += static_cast<double>(report.journal_append_failures);
  t->expired += static_cast<double>(report.expired_leases);
  t->duplicates += static_cast<double>(report.duplicate_results);
  t->disconnects += static_cast<double>(report.agent_disconnects);
  if (counted) {
    t->counted_ops += 1;
    t->counted_exec_runs += static_cast<double>(report.run_durations_seconds.size());
    t->candidates += report.first_trial_candidates;
    t->filtered += report.filtered_by_hypothesis;
    t->coupling_runs += static_cast<double>(report.coupling_runs);
    t->coupling_confirmations += static_cast<double>(report.coupling_confirmations);
    t->units_skipped += static_cast<double>(report.units_skipped);
    if (outcome.lint.tus_total > 0) {
      t->lint_ops += 1;
      t->tus_parsed += outcome.lint.tus_parsed;
      t->facts_computed += outcome.lint.facts_computed;
      t->impacted += static_cast<double>(outcome.impacted_params);
    }
  }
}

std::map<std::string, double> LayerValues(Workload workload, const LayerTotals& t,
                                          const ProbeCounts& probes,
                                          const Tracer& tracer,
                                          double untraced_op_ms) {
  auto mean_us = [&tracer](const char* span) {
    const Tracer::Totals& totals = tracer.TotalsFor(span);
    return Ratio(totals.total_us, static_cast<double>(totals.calls));
  };
  const double concurrency = Concurrency(workload);
  const bool single_call =
      workload == Workload::kNativePool || workload == Workload::kPaperFabric;
  // Single-call engines: a unit's share of the workers' slot time stands in
  // for the RunUnit span the benchmark cannot open inside the call.
  const double unit_us = single_call ? 1e6 * concurrency * t.wall_s : t.run_unit_us;
  const double busy_ratio = Ratio(t.exec_s, concurrency * t.wall_s);
  const double lookups = t.cache_hits + t.cache_misses;

  std::map<std::string, double> v;
  v["exec.count"] = Ratio(t.counted_exec_runs, t.counted_ops);
  v["exec.busy_ms"] = 1e3 * Ratio(t.exec_s, t.ops);
  v["exec.us_per_run"] = 1e6 * Ratio(t.exec_s, t.exec_runs);
  v["prerun.us_per_call"] = mean_us("TestGenerator::PreRunTest");
  v["generate.us_per_call"] = mean_us("TestGenerator::Generate");
  v["generate.instances"] =
      Ratio(static_cast<double>(probes.generate_instances), kProbeOps);
  v["unit.ms_per_call"] = 1e-3 * Ratio(unit_us, t.units);
  v["unit.self_ms"] = 1e-3 * Ratio(unit_us - 1e6 * t.exec_s, t.ops);
  v["verify.candidates"] = Ratio(t.candidates, t.counted_ops);
  v["verify.filtered"] = Ratio(t.filtered, t.counted_ops);
  v["coupling.runs"] = Ratio(t.coupling_runs, t.counted_ops);
  v["coupling.confirmations"] = Ratio(t.coupling_confirmations, t.counted_ops);
  v["fold.us_per_call"] = mean_us("CampaignFolder::Fold");
  v["cache.hits"] = Ratio(t.cache_hits, t.ops);
  v["cache.misses"] = Ratio(t.cache_misses, t.ops);
  v["cache.hit_ratio"] = Ratio(t.cache_hits, lookups);
  v["equiv.hits"] = Ratio(t.equiv_hits, t.ops);
  v["equiv.mispredictions"] = Ratio(t.mispredictions, t.ops);
  v["equiv.misprediction_ratio"] =
      Ratio(t.mispredictions, t.equiv_hits + t.mispredictions);
  v["sched.lookups_per_run"] = Ratio(lookups, t.logical_runs);
  v["sched.busy_ratio"] = busy_ratio;
  v["sched.requeued_units"] = Ratio(t.requeued, t.ops);
  v["journal.append_us"] = mean_us("CampaignJournal::Append");
  v["journal.append_failures"] =
      Ratio(t.journal_failures + static_cast<double>(probes.journal_failures), t.ops);
  v["wire.encode_us_per_unit"] = mean_us("wire.encode");
  v["wire.decode_us_per_unit"] = mean_us("wire.decode");
  v["wire.bytes_per_unit"] = Ratio(static_cast<double>(probes.wire_bytes),
                                   static_cast<double>(probes.wire_units));
  v["wire.frame_rtt_us"] = mean_us("wire.frame_rtt");
  v["fabric.busy_ratio"] = workload == Workload::kPaperFabric ? busy_ratio : 0.0;
  v["fabric.expired_leases"] = Ratio(t.expired, t.ops);
  v["fabric.duplicate_results"] = Ratio(t.duplicates, t.ops);
  v["fabric.agent_disconnects"] = Ratio(t.disconnects, t.ops);
  v["lint.analyze_ms"] = 1e-3 * mean_us("StaticAnalyzer::Analyze");
  v["lint.tus_parsed"] = Ratio(t.tus_parsed, t.lint_ops);
  v["lint.facts_computed"] = Ratio(t.facts_computed, t.lint_ops);
  v["diff.us"] = mean_us("DiffAgainstSnapshot");
  v["retest.impacted_params"] = Ratio(t.impacted, t.lint_ops);
  v["retest.units_skipped"] = Ratio(t.units_skipped, t.counted_ops);
  v["trace.op_ms"] = 1e3 * Median(t.walls);
  v["trace.untraced_op_ms"] = untraced_op_ms;
  return v;
}

int RunTraced(Bench& bench, const Args& args) {
  const Workload workload = args.workload;
  Tracer tracer;
  LayerTotals totals;
  ProbeCounts probes;
  Phase base;    // untraced ops: the tracing-overhead base
  Phase traced;
  const int64_t count_ops =
      workload == Workload::kRetestDiff ? kRetestCountOps : kProbeOps;
  // Untraced and traced ops alternate over one seeded sequence, so both see
  // the same inputs and the same machine conditions.
  bench.ResetSequence();
  Clock::time_point start = Clock::now();
  for (int64_t op = 0; static_cast<int64_t>(totals.ops) < count_ops ||
                       base.samples.size() < 11 || SecondsSince(start) < args.seconds;
       ++op) {
    if (op % 2 == 0) {
      RunUntracedOp(bench, op, nullptr, &base);
      continue;
    }
    const int64_t traced_index = static_cast<int64_t>(totals.ops);
    OpOutcome outcome;
    std::string failure;
    Clock::time_point op_start = Clock::now();
    try {
      outcome = bench.RunOp(op, &tracer);
    } catch (const std::exception& e) {
      failure = std::string("op threw: ") + e.what();
    }
    double wall_s = SecondsSince(op_start);
    if (failure.empty()) {
      failure = bench.Check(outcome, /*traced=*/true);
    }
    if (failure.empty() && traced_index < kProbeOps) {
      failure = bench.Probe(op, &outcome, &tracer, &probes);
    }
    if (!failure.empty()) {
      traced.Fail(failure);
    }
    Accumulate(outcome, wall_s, traced_index < count_ops, &totals);
  }

  const double untraced_op_ms = 1e3 * Median(Walls(base));
  std::map<std::string, double> values =
      LayerValues(workload, totals, probes, tracer, untraced_op_ms);
  const double overhead_ms = values["trace.op_ms"] - untraced_op_ms;

  std::printf("workload %s, seed %llu: traced run, %lld traced ops alternating with %zu untraced\n",
              WorkloadName(workload), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(totals.ops), base.samples.size());
  const char* layer = "";
  std::vector<Metric> metrics;
  for (const LayerMetric& metric : kLayerMetrics) {
    if (std::strcmp(layer, metric.layer) != 0) {
      layer = metric.layer;
      std::printf("  [%s]\n", layer);
    }
    double value = values.at(metric.name);
    std::printf("    %-28s %16.6f %s", metric.name, value, metric.unit);
    if (std::strcmp(metric.name, "cache.hit_ratio") == 0 ||
        std::strcmp(metric.name, "sched.lookups_per_run") == 0) {
      std::printf("   (base %.0f lookups)", totals.cache_hits + totals.cache_misses);
    } else if (std::strcmp(metric.name, "equiv.misprediction_ratio") == 0) {
      std::printf("   (base %.0f validated promises)",
                  totals.equiv_hits + totals.mispredictions);
    }
    std::printf("\n");
    metrics.push_back({metric.name, metric.unit, value});
  }
  std::printf("  tracing overhead: %.3f ms per op (traced %.3f - untraced %.3f)\n",
              overhead_ms, values["trace.op_ms"], untraced_op_ms);
  if (workload == Workload::kNativeSeq || workload == Workload::kRetestDiff) {
    // Means, not medians: the parts of an op add up only on average.
    const double op_mean_ms = 1e3 * Ratio(totals.wall_s, totals.ops);
    const double accounted_ms =
        1e-3 * Ratio(totals.run_unit_us, totals.ops) +
        1e-3 * values["fold.us_per_call"] * Ratio(totals.units, totals.ops);
    std::printf("  accounting: unit.self_ms + exec.busy_ms + fold = %.3f ms of %.3f ms "
                "mean traced op (gap %.3f ms)\n",
                accounted_ms, op_mean_ms, op_mean_ms - accounted_ms);
  }

  std::filesystem::create_directories(args.work_dir);
  const std::string trace_path = args.work_dir + "/trace-" + WorkloadName(workload) +
                                 "-seed" + std::to_string(args.seed) + ".json";
  char overhead[64];
  std::snprintf(overhead, sizeof(overhead), "%.6f", overhead_ms);
  if (!tracer.WriteChromeTrace(
          trace_path, {{"workload", std::string("\"") + WorkloadName(workload) + "\""},
                       {"seed", std::to_string(args.seed)},
                       {"tracing_overhead_ms", overhead}})) {
    traced.Fail("cannot write " + trace_path);
  }
  std::printf("  spans: %s (%zu dropped)\n", trace_path.c_str(), tracer.dropped_events());

  const int64_t attempted =
      static_cast<int64_t>(base.samples.size()) + static_cast<int64_t>(totals.ops);
  const int64_t failed = base.failed + traced.failed;
  for (const Phase* phase : {&base, &traced}) {
    if (!phase->first_failure.empty()) {
      std::printf("  FAILED: %s\n", phase->first_failure.c_str());
    }
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload native_seq|native_pool|"
                 "paper_fabric|retest_diff --seed N --seconds S --trace 0|1 "
                 "[--root DIR] [--work-dir DIR]\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  Bench::Config config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.root = args.root;
  config.work_dir = args.work_dir;
  config.traced = args.trace;
  // Set-up runs in fresh forked children first (the singletons are
  // process-wide, so a process sets up once), then here for real.
  std::vector<double> setups;
  if (!args.trace) {
    for (int i = 0; i < kSetupRepeats; ++i) {
      setups.push_back(SetupInChild(config));
    }
  }
  Clock::time_point start = Clock::now();
  Bench bench(config);
  setups.push_back(SecondsSince(start));
  const double setup_s = Median(setups);

  bench.PrepareReference();
  std::string self_test = ScoreAgainstGroundTruth(bench.reference(), true);
  if (self_test.empty()) {
    self_test = OracleSelfTest(bench.reference());
  }
  if (!self_test.empty()) {
    std::printf("oracle self-test FAILED: %s\n", self_test.c_str());
    return 1;
  }

  if (args.trace) {
    return RunTraced(bench, args);
  }
  Phase phase;
  SpeedProbe speed = SpeedProbe::For(args.workload);
  bench.ResetSequence();
  Clock::time_point ops_start = Clock::now();
  for (int64_t op = 0;
       op < kMinOps || SecondsSince(ops_start) < args.seconds; ++op) {
    speed.MaybeSample();
    RunUntracedOp(bench, op, &speed, &phase);
  }
  std::vector<Metric> metrics =
      EndToEnd(bench, phase, setup_s, setups.size(), speed);
  if (!phase.first_failure.empty()) {
    std::printf("  FAILED: %s\n", phase.first_failure.c_str());
  }
  PrintResult(phase.failed == 0, static_cast<int64_t>(phase.samples.size()),
              phase.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
