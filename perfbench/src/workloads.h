// The benchmark's four closed-loop workloads. One op runs at a time; the next
// starts when it returns.
//
//   native_seq    Campaign::Run over every app, run cache off.
//   native_pool   RunThreadPoolCampaign, 3 workers, shared run cache and
//                 equivalence layer on, journaled (sync every record).
//   paper_fabric  RunDistributedCampaign, 3 spawned agents x 1 thread, run
//                 cache and equivalence on, 500 us synthetic run latency.
//   retest_diff   one seeded blank-line edit -> warm StaticAnalyzer::Analyze
//                 -> DiffAgainstSnapshot -> impacted-only sequential campaign
//                 with the fresh static prior (coupling on, cache off).
//
// The seed is the only input: it permutes the app order of the campaign
// workloads (seed 0 keeps the sorted order) and draws the (file, line) edit
// sequence of retest_diff. Traced runs drive the canonical fold themselves
// (Campaign::RunUnit then CampaignFolder::Fold) where the op is a sequential
// campaign, and probe the other layers from outside on the op's own results.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/analysis/prior_diff.h"
#include "src/analysis/static_prior.h"
#include "src/analysis/summary_cache.h"
#include "src/core/campaign.h"

namespace perfbench {

enum class Workload { kNativeSeq, kNativePool, kPaperFabric, kRetestDiff };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// Runs of a workload that are in flight at once (threads or agents).
int Concurrency(Workload workload);

// The source tree zebralint scans (src/apps and src/conf, .h/.cc), held in
// memory so an edit never touches the checkout.
class SourceTree {
 public:
  struct Edit {
    size_t file = 0;
    size_t line = 0;  // a blank line is inserted before this line
  };

  explicit SourceTree(const std::string& root);

  size_t files() const { return files_.size(); }
  size_t lines(size_t file) const { return files_[file].line_starts.size(); }
  // Registers every file with `analyzer`; `edit` (may be null) applies to
  // its file only.
  void AddTo(zebra::analysis::StaticAnalyzer* analyzer, const Edit* edit) const;

 private:
  struct File {
    std::string path;  // root-relative, as StaticAnalyzer::AddTree names it
    std::string content;
    std::vector<size_t> line_starts;
  };
  std::vector<File> files_;
};

// The seeded edit sequence, stratified so every run of a given length sees
// nearly the same mix of edits: files are visited in a seeded order, one
// edit per file per cycle, and successive visits to a file draw their line
// from successive eighths of it (starting at a seeded eighth).
class EditStream {
 public:
  EditStream(const SourceTree& tree, uint64_t seed);
  SourceTree::Edit Next();

 private:
  static constexpr size_t kStrata = 8;
  const SourceTree& tree_;
  std::mt19937_64 rng_;
  std::vector<size_t> order_;          // files, seeded permutation
  std::vector<size_t> first_stratum_;  // per file
  size_t drawn_ = 0;
};

// What one op produced.
struct OpOutcome {
  zebra::CampaignOptions options;  // the op's campaign options
  std::unique_ptr<zebra::analysis::StaticPriorReport> prior;  // retest_diff
  zebra::CampaignReport report;
  // Executions that really ran: cache misses with a run cache, else
  // logical runs.
  int64_t executions = 0;

  // Edit -> verdict accounting (retest_diff, and the analysis probe).
  zebra::analysis::AnalyzeStats lint;
  int64_t impacted_params = 0;

  // Traced fold only: the folded unit results in canonical order and the
  // summed Campaign::RunUnit span time.
  std::vector<zebra::UnitWorkResult> units;
  double run_unit_us = 0.0;
};

// Per-op counts the layer probes add up (see Bench::Probe).
struct ProbeCounts {
  int64_t generate_instances = 0;
  int64_t wire_units = 0;
  int64_t wire_bytes = 0;
  int64_t journal_failures = 0;
};

class Bench {
 public:
  struct Config {
    Workload workload = Workload::kNativeSeq;
    uint64_t seed = 0;
    std::string root;     // checkout root (sources of the edit workload)
    std::string work_dir;  // journals and trace files
    bool traced = false;  // build the probe state (analysis, loopback wire)
  };

  // Set-up: schema/corpus singletons, the seeded app order, and for
  // retest_diff (or any traced run) the source snapshot, warm SummaryCache
  // and baseline PriorSnapshot.
  explicit Bench(Config config);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  const Config& config() const { return config_; }
  bool full_corpus() const { return config_.workload != Workload::kRetestDiff; }

  // Sequential full-corpus reference (cache off, no synthetic latency): what
  // every campaign-workload op must serialize to once accounting is
  // aligned, and the passing report the oracle self-test corrupts. Call
  // once, before the ops.
  void PrepareReference();
  const zebra::CampaignReport& reference() const { return reference_; }

  // Restarts the seeded op sequence (edit stream and analysis cache state).
  void ResetSequence();

  // Runs op `op`. With a tracer the op is traced (see the file comment).
  OpOutcome RunOp(int64_t op, Tracer* tracer);

  // Scores one op: "" when it passes the oracle and, for the engines with a
  // reference, the identity check.
  std::string Check(const OpOutcome& outcome, bool traced);

  // Traced runs only: times the layers the op did not call itself, fed the
  // op's own results (generation pass, fold replay, journal append, wire
  // encode/decode/round trip, and the analysis layer on campaign
  // workloads). Returns "" or the first correctness failure.
  std::string Probe(int64_t op, OpOutcome* outcome, Tracer* tracer,
                    ProbeCounts* counts);

 private:
  struct Analysis;

  zebra::CampaignOptions OptionsFor() const;
  void AnalyzeEdit(int64_t op, Tracer* tracer, OpOutcome* outcome);
  void TracedFold(int64_t op, Tracer* tracer, OpOutcome* outcome);
  std::string ReplayFold(int64_t op, const OpOutcome& outcome,
                         const std::vector<zebra::UnitWorkResult>& units,
                         Tracer* tracer);

  Config config_;
  std::vector<std::string> apps_;
  std::string journal_path_;
  std::unique_ptr<Analysis> analysis_;
  zebra::CampaignReport reference_;
  std::string reference_identity_;
  int wire_send_fd_ = -1;
  int wire_recv_fd_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
