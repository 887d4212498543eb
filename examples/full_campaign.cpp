// Full campaign driver: runs the ZebraConf pipeline over any subset of the
// six applications and prints the complete evaluation report.
//
//   $ ./full_campaign                          # all applications
//   $ ./full_campaign minidfs minimr           # a subset
//   $ ./full_campaign --no-pooling minikv      # ablate pooled testing
//   $ ./full_campaign --first-trials 3         # §5 false-negative mitigation
//   $ ./full_campaign --report report.md       # write a markdown report
//   $ ./full_campaign --cache-file runs.zc     # warm-start the run cache
//   $ ./full_campaign --equiv-cache            # observational-equivalence dedup
//   $ ./full_campaign --journal camp.zj        # crash-safe result journal
//   $ ./full_campaign --journal camp.zj --resume   # pick up where it stopped
//   $ ./full_campaign --static-prior           # zebralint prune/rank/couple
//   $ ./full_campaign --static-prior --no-coupling-plans   # ablate coupling
//   $ ./full_campaign --impacted-only diff.json    # re-test only tests whose
//                                                  # reads intersect the diff
//   $ ./full_campaign --engine threadpool --workers 4   # pick the execution
//                                                       # backend explicitly
//   $ ./full_campaign --engine distributed --agents 4 --agent-threads 2
//                                              # TCP fabric, local agents
//   $ ./full_campaign --engine distributed --agents 2 --listen :9009
//                                              # coordinator for real hosts
//   $ ./full_campaign --connect host:9009 --agent-index 0 --agent-threads 4
//                                              # one agent on a real host
//
// SIGINT/SIGTERM request a graceful stop: the campaign halts at the next
// unit boundary, the run cache (if any) is saved, and — when journaling —
// the journal retains everything folded so far, so `--resume` continues the
// run instead of restarting it.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/analysis/prior_diff.h"
#include "src/analysis/static_prior.h"
#include "src/common/error.h"
#include "src/core/campaign.h"
#include "src/core/campaign_agent.h"
#include "src/core/distributed_campaign.h"
#include "src/core/fabric_wire.h"
#include "src/core/report_writer.h"
#include "src/core/thread_pool_scheduler.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/ground_truth.h"
#include "src/testkit/unit_test_registry.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void HandleStopSignal(int) { g_stop = 1; }

void InstallStopHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zebra;

  CampaignOptions options;
  std::string report_path;
  std::string cache_file;
  std::string journal_path;
  std::string impacted_path;
  std::string engine_name;
  bool use_static_prior = false;
  bool resume = false;
  int workers = 1;
  int journal_sync_batch = 1;
  int agents = 0;
  int agent_threads = 1;
  int agent_index = 0;
  int pipeline_depth = 0;
  std::string listen_address;
  std::string connect_address;
  std::string agent_cache_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-pooling") == 0) {
      options.enable_pooling = false;
    } else if (std::strcmp(argv[i], "--no-round-robin") == 0) {
      options.enable_round_robin = false;
    } else if (std::strcmp(argv[i], "--no-prerun-prune") == 0) {
      options.prune_unread_instances = false;
    } else if (std::strcmp(argv[i], "--first-trials") == 0 && i + 1 < argc) {
      options.first_trials = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-file") == 0 && i + 1 < argc) {
      cache_file = argv[++i];
      options.enable_run_cache = true;
    } else if (std::strcmp(argv[i], "--equiv-cache") == 0) {
      options.enable_equiv_cache = true;
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strncmp(argv[i], "--journal-sync=", 15) == 0) {
      const char* value = argv[i] + 15;
      if (std::strcmp(value, "every") == 0) {
        journal_sync_batch = 1;
      } else if (std::strncmp(value, "batch:", 6) == 0 &&
                 std::atoi(value + 6) >= 1) {
        journal_sync_batch = std::atoi(value + 6);
      } else {
        std::fprintf(stderr,
                     "--journal-sync takes 'every' or 'batch:N' (N >= 1)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--watchdog-floor") == 0 && i + 1 < argc) {
      options.watchdog_floor_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--static-prior") == 0) {
      use_static_prior = true;
    } else if (std::strcmp(argv[i], "--no-coupling-plans") == 0) {
      options.enable_coupling_plans = false;
    } else if (std::strcmp(argv[i], "--impacted-only") == 0 && i + 1 < argc) {
      impacted_path = argv[++i];
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      engine_name = argv[++i];
    } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      agents = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--agent-threads") == 0 && i + 1 < argc) {
      agent_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--agent-index") == 0 && i + 1 < argc) {
      agent_index = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--pipeline-depth") == 0 && i + 1 < argc) {
      pipeline_depth = std::atoi(argv[++i]);
      if (pipeline_depth < 1) {
        std::fprintf(stderr, "--pipeline-depth takes an integer >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--agent-cache-dir") == 0 && i + 1 < argc) {
      agent_cache_dir = argv[++i];
      options.enable_run_cache = true;
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_address = argv[++i];
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_address = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--no-pooling] [--no-round-robin] [--no-prerun-prune]\n"
          "          [--first-trials N] [--workers N] [--report FILE]\n"
          "          [--cache-file FILE] [--equiv-cache]\n"
          "          [--journal FILE] [--resume] [--journal-sync=every|batch:N]\n"
          "          [--watchdog-floor SECONDS]\n"
          "          [--static-prior] [--no-coupling-plans]\n"
          "          [--impacted-only DIFF.json]\n"
          "          [--engine sequential|threadpool|distributed]\n"
          "          [--agents N] [--agent-threads K] [--pipeline-depth N]\n"
          "          [--agent-cache-dir DIR] [--listen HOST:PORT]\n"
          "          [--connect HOST:PORT] [--agent-index N]\n"
          "          [app ...]\n"
          "apps: minidfs minimr miniyarn ministream minikv apptools\n"
          "--cache-file warm-starts the run cache from FILE (if it exists)\n"
          "and saves the cache back after the campaign (also on SIGINT/SIGTERM);\n"
          "sequential engine only.\n"
          "--journal appends every folded unit result to FILE (crash-safe);\n"
          "--resume replays a journal's valid prefix instead of re-running it.\n"
          "--journal-sync picks the durability policy: 'every' (default)\n"
          "fdatasyncs each record; 'batch:N' group-commits up to N records\n"
          "per sync — faster folds, at most N-1 records of resume coverage\n"
          "lost to a crash. Findings are identical either way.\n"
          "--watchdog-floor tunes the hung-worker deadline floor (0 disables;\n"
          "see docs/ROBUSTNESS.md).\n"
          "--static-prior runs zebralint over the build tree first: never-read\n"
          "parameters are pruned, wire-tainted ones run first, and coupled\n"
          "pairs get an add-on phase (--no-coupling-plans ablates it).\n"
          "--impacted-only restricts the dynamic phase to tests whose pre-run\n"
          "reads intersect the impacted list of a `zebralint --diff --json`\n"
          "artifact (see docs/ZEBRALINT.md).\n"
          "--engine picks the execution backend explicitly (all three produce\n"
          "bitwise-identical findings; see docs/PARALLEL.md). Without it,\n"
          "--journal or --workers N>1 runs the thread pool, otherwise the\n"
          "sequential engine.\n"
          "--engine distributed runs the TCP campaign fabric: --agents N\n"
          "forked local agent processes x --agent-threads K threads each\n"
          "(docs/ROBUSTNESS.md, fabric section). --listen HOST:PORT instead\n"
          "waits for N remote agents started with --connect HOST:PORT\n"
          "--agent-index I (agent mode runs no coordinator: it executes\n"
          "dispatched units until kShutdown and exits).\n"
          "--pipeline-depth keeps depth x K leases in flight per agent\n"
          "(default 1). Deeper pipelines hide the dispatch round trip, but\n"
          "a queued unit starts before its predecessors' confirmations can\n"
          "reach its snapshot and re-runs more often; findings are\n"
          "identical at every depth.\n"
          "--agent-cache-dir DIR persists each agent's run cache to\n"
          "DIR/fabric-<schema-hash>-agent<N>.zc across campaigns (implies\n"
          "the run cache; corrupt files degrade to a cold start). In agent\n"
          "mode the same flag names where this agent loads/saves its cache.\n",
          argv[0]);
      return 0;
    } else {
      options.apps.emplace_back(argv[i]);
    }
  }
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal FILE\n");
    return 2;
  }

  // Agent mode: no coordinator, no report. Connect to one, execute whatever
  // it dispatches, exit with the agent's status (0 after a clean kShutdown).
  if (!connect_address.empty()) {
    std::string host;
    uint16_t port = 0;
    std::string parse_error;
    if (!ParseHostPort(connect_address, &host, &port, &parse_error)) {
      std::fprintf(stderr, "--connect takes HOST:PORT: %s\n",
                   parse_error.c_str());
      return 2;
    }
    CampaignAgentOptions agent;
    agent.host = host;
    agent.port = port;
    agent.agent_index = agent_index;
    agent.threads = agent_threads < 1 ? 1 : agent_threads;
    agent.cache_dir = agent_cache_dir;
    return RunCampaignAgent(FullSchema(), FullCorpus(), options, agent);
  }

  enum class Engine { kSequential, kThreadPool, kDistributed };
  Engine engine = !journal_path.empty() || workers > 1 ? Engine::kThreadPool
                                                       : Engine::kSequential;
  if (engine_name == "sequential") {
    engine = Engine::kSequential;
  } else if (engine_name == "threadpool") {
    engine = Engine::kThreadPool;
  } else if (engine_name == "distributed") {
    engine = Engine::kDistributed;
  } else if (engine_name == "sharded" || engine_name == "stealing") {
    std::fprintf(stderr,
                 "--engine %s was removed: use --engine threadpool (or "
                 "--engine distributed for process isolation)\n",
                 engine_name.c_str());
    return 2;
  } else if (!engine_name.empty()) {
    std::fprintf(stderr,
                 "unknown --engine '%s' (sequential|threadpool|distributed)\n",
                 engine_name.c_str());
    return 2;
  }
  if ((agents > 0 || agent_threads != 1 || !listen_address.empty() ||
       pipeline_depth > 0 || !agent_cache_dir.empty()) &&
      engine != Engine::kDistributed) {
    std::fprintf(stderr,
                 "--agents/--agent-threads/--listen/--pipeline-depth/"
                 "--agent-cache-dir require --engine distributed\n");
    return 2;
  }
  if (engine == Engine::kSequential && (!journal_path.empty() || workers > 1)) {
    std::fprintf(stderr,
                 "--journal and --workers N>1 need --engine threadpool or "
                 "distributed\n");
    return 2;
  }
  if (!cache_file.empty() && engine != Engine::kSequential) {
    std::fprintf(stderr, "--cache-file works with the sequential engine only\n");
    return 2;
  }

  analysis::StaticPriorReport prior;
  if (use_static_prior) {
    analysis::StaticAnalyzer analyzer;
    if (analyzer.AddTree(ZEBRALINT_SOURCE_ROOT) == 0) {
      std::fprintf(stderr, "full_campaign: no sources under %s/src\n",
                   ZEBRALINT_SOURCE_ROOT);
      return 2;
    }
    prior = analyzer.Analyze(&FullSchema());
    options.static_prior = &prior;
    std::printf("static prior: %zu params profiled, %zu never read, "
                "%zu coupling sets\n",
                prior.params.size(), prior.never_read.size(),
                prior.coupling_sets.size());
  }
  if (!impacted_path.empty()) {
    std::vector<std::string> impacted;
    std::string error;
    if (!analysis::LoadImpactedParams(impacted_path, &impacted, &error)) {
      std::fprintf(stderr, "full_campaign: --impacted-only: %s\n",
                   error.c_str());
      return 2;
    }
    options.impacted_params.insert(impacted.begin(), impacted.end());
    std::printf("impacted-only: %zu parameters from %s\n",
                options.impacted_params.size(), impacted_path.c_str());
    if (options.impacted_params.empty()) {
      std::printf("impacted set is empty: every dynamic phase will be "
                  "skipped (nothing to re-test)\n");
      // An empty set would mean "no restriction"; force a never-matching
      // entry so the restriction stays active.
      options.impacted_params.insert("\x01nothing-impacted");
    }
  }

  InstallStopHandlers();
  options.cancel_flag = &g_stop;

  CampaignReport report;
  try {
  if (engine == Engine::kThreadPool) {
    // At one worker the pool runs one thread and stays bitwise-identical to
    // the sequential engine, so journaled runs cost nothing extra there.
    ThreadPoolCampaignOptions pool;
    pool.workers = workers < 1 ? 1 : workers;
    pool.journal_path = journal_path;
    pool.resume = resume;
    pool.journal_sync_batch = journal_sync_batch;
    report = RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool);
  } else if (engine == Engine::kDistributed) {
    DistributedCampaignOptions fabric;
    // --agents overrides --workers when both are given.
    fabric.agents = agents > 0 ? agents : (workers < 1 ? 1 : workers);
    fabric.agent_threads = agent_threads < 1 ? 1 : agent_threads;
    if (pipeline_depth > 0) {
      fabric.pipeline_depth = pipeline_depth;
    }
    fabric.agent_cache_dir = agent_cache_dir;
    fabric.listen_address = listen_address;
    // A --listen coordinator serves remote --connect agents; without it the
    // fleet is forked locally.
    fabric.spawn_agents = listen_address.empty();
    fabric.journal_path = journal_path;
    fabric.resume = resume;
    fabric.journal_sync_batch = journal_sync_batch;
    report = RunDistributedCampaign(FullSchema(), FullCorpus(), options, fabric);
  } else {
    Campaign campaign(FullSchema(), FullCorpus(), options);
    if (!cache_file.empty() && campaign.run_cache() != nullptr) {
      if (campaign.run_cache()->LoadFromFile(cache_file)) {
        std::printf("run cache warm-started from %s (%lld entries)\n",
                    cache_file.c_str(),
                    static_cast<long long>(campaign.run_cache()->stats().entries));
      } else if (campaign.run_cache()->stats().load_failures > 0) {
        std::fprintf(stderr,
                     "warning: run cache %s was corrupt; starting cold\n",
                     cache_file.c_str());
      }
    }
    report = campaign.Run();
    // Runs after graceful cancellation too: an interrupted campaign's cache
    // still warm-starts the next invocation.
    if (!cache_file.empty() && campaign.run_cache() != nullptr) {
      if (!campaign.run_cache()->SaveToFile(cache_file)) {
        std::fprintf(stderr, "warning: could not save run cache to %s\n",
                     cache_file.c_str());
      }
    }
  }
  } catch (const Error& error) {
    // Setup failures (incompatible journal, unwritable file, fork trouble)
    // are operator errors, not crashes: name the problem and exit cleanly.
    std::fprintf(stderr, "full_campaign: %s\n", error.what());
    return 2;
  }

  if (g_stop != 0) {
    std::printf("\n*** campaign interrupted (partial results below) ***\n");
    if (!journal_path.empty()) {
      std::printf("resume with: --journal %s --resume\n", journal_path.c_str());
    }
  }

  std::printf("=== ZebraConf campaign report ===\n\n");
  std::printf("%-12s %14s %14s %14s %12s\n", "app", "original", "pre-run",
              "uncertainty", "executed");
  for (const auto& [app, counts] : report.per_app) {
    std::printf("%-12s %14lld %14lld %14lld %12lld\n", app.c_str(),
                static_cast<long long>(counts.original),
                static_cast<long long>(counts.after_prerun),
                static_cast<long long>(counts.after_uncertainty),
                static_cast<long long>(counts.executed_runs));
  }

  int true_positives = 0;
  int false_positives = 0;
  std::printf("\nfindings (%zu):\n", report.findings.size());
  for (const auto& [param, finding] : report.findings) {
    bool expected =
        IsExpectedUnsafe(param) || ProbabilisticUnsafeParams().count(param) > 0;
    expected ? ++true_positives : ++false_positives;
    std::printf("  [%s] %-55s (%zu witness tests)\n", expected ? "TRUE" : "FP  ",
                param.c_str(), finding.witness_tests.size());
  }

  int false_negatives = 0;
  for (const auto& [param, why] : ExpectedUnsafeParams()) {
    const ParamSpec* spec = FullSchema().Find(param);
    bool in_scope = options.apps.empty();
    for (const std::string& app : options.apps) {
      in_scope |= spec != nullptr && (spec->app == app || spec->app == kSharedApp);
    }
    if (in_scope && report.findings.count(param) == 0) {
      ++false_negatives;
      std::printf("  [MISS] %s\n", param.c_str());
    }
  }

  std::printf("\nprecision: %d true / %d false positives / %d missed-in-scope\n",
              true_positives, false_positives, false_negatives);
  std::printf("hypothesis testing: %d first-trial candidates, %d filtered\n",
              report.first_trial_candidates, report.filtered_by_hypothesis);
  std::printf("total unit-test executions: %lld in %.2f s\n",
              static_cast<long long>(report.total_unit_test_runs),
              report.wall_seconds);
  if (report.cache_hits > 0 || report.equiv_hits > 0) {
    std::printf(
        "run cache: %lld exact hits, %lld equivalence hits, "
        "%lld mispredictions, %lld evictions\n",
        static_cast<long long>(report.cache_hits),
        static_cast<long long>(report.equiv_hits),
        static_cast<long long>(report.mispredictions),
        static_cast<long long>(report.cache_evictions));
  }
  if (report.coupling_runs > 0 || report.units_skipped > 0) {
    std::printf(
        "coupling add-on: %lld runs, %lld coupled confirmations; "
        "%lld units skipped by restriction\n",
        static_cast<long long>(report.coupling_runs),
        static_cast<long long>(report.coupling_confirmations),
        static_cast<long long>(report.units_skipped));
  }
  if (report.hung_workers > 0 || report.requeued_units > 0 ||
      report.resumed_units > 0 || report.cache_load_failures > 0) {
    std::printf(
        "fault tolerance: %lld workers SIGKILLed by watchdog, %lld units "
        "re-queued, %lld units resumed from journal, %lld cache load "
        "failures\n",
        static_cast<long long>(report.hung_workers),
        static_cast<long long>(report.requeued_units),
        static_cast<long long>(report.resumed_units),
        static_cast<long long>(report.cache_load_failures));
  }
  if (report.agent_disconnects > 0 || report.expired_leases > 0 ||
      report.duplicate_results > 0) {
    std::printf(
        "distributed fabric: %lld agents retired, %lld leases expired and "
        "re-queued, %lld duplicate results dropped\n",
        static_cast<long long>(report.agent_disconnects),
        static_cast<long long>(report.expired_leases),
        static_cast<long long>(report.duplicate_results));
  }
  if (report.journal_append_failures > 0) {
    std::printf(
        "journal append failures: %lld (journaling disabled mid-campaign; "
        "resume coverage ends at the last synced record)\n",
        static_cast<long long>(report.journal_append_failures));
  }
  for (const std::string& unit : report.poisoned_units) {
    std::printf("poisoned unit (hit the attempt limit; no results): %s\n",
                unit.c_str());
  }

  if (!report_path.empty()) {
    ReportWriterOptions writer_options;
    writer_options.annotate_ground_truth = true;
    writer_options.fleet_machines = 100;
    writer_options.fleet_containers = 20;
    std::ofstream out(report_path);
    out << RenderMarkdownReport(report, writer_options);
    std::printf("markdown report written to %s\n", report_path.c_str());
  }
  return 0;
}
