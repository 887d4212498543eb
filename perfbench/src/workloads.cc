#include "perfbench/src/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench/src/oracle.h"
#include "src/core/campaign_journal.h"
#include "src/core/distributed_campaign.h"
#include "src/core/fabric_wire.h"
#include "src/core/report_io.h"
#include "src/core/thread_pool_scheduler.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/test_execution.h"

namespace perfbench {

namespace fs = std::filesystem;
using zebra::CampaignOptions;
using zebra::CampaignReport;
using zebra::UnitWorkResult;

namespace {

constexpr int kPoolWorkers = 3;
constexpr int kFabricAgents = 3;
constexpr int64_t kPaperCostLatencyUs = 500;

// An empty impacted set would mean "no restriction"; a never-matching entry
// keeps the restriction active (what full_campaign --impacted-only does).
const char kNothingImpacted[] = "\x01nothing-impacted";

const zebra::ConfSchema& Schema() { return zebra::FullSchema(); }
const zebra::UnitTestRegistry& Corpus() { return zebra::FullCorpus(); }

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kNativeSeq, Workload::kNativePool,
                     Workload::kPaperFabric, Workload::kRetestDiff}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kNativeSeq:
      return "native_seq";
    case Workload::kNativePool:
      return "native_pool";
    case Workload::kPaperFabric:
      return "paper_fabric";
    case Workload::kRetestDiff:
      return "retest_diff";
  }
  return "?";
}

int Concurrency(Workload workload) {
  switch (workload) {
    case Workload::kNativePool:
      return kPoolWorkers;
    case Workload::kPaperFabric:
      return kFabricAgents;
    default:
      return 1;
  }
}

// ---------------------------------------------------------------------------
// SourceTree

SourceTree::SourceTree(const std::string& root) {
  // Same walk as StaticAnalyzer::AddTree, so summary-cache keys match.
  for (const char* subdir : {"src/apps", "src/conf"}) {
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(fs::path(root) / subdir)) {
      std::string ext = entry.path().extension().string();
      if (entry.is_regular_file() && (ext == ".h" || ext == ".cc")) {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      File file;
      file.path = fs::relative(path, root).string();
      file.content = buf.str();
      file.line_starts.push_back(0);
      for (size_t i = 0; i < file.content.size(); ++i) {
        if (file.content[i] == '\n' && i + 1 < file.content.size()) {
          file.line_starts.push_back(i + 1);
        }
      }
      files_.push_back(std::move(file));
    }
  }
  if (files_.empty()) {
    throw std::runtime_error("no sources under " + root + "/src/apps or src/conf");
  }
}

void SourceTree::AddTo(zebra::analysis::StaticAnalyzer* analyzer,
                       const Edit* edit) const {
  for (size_t i = 0; i < files_.size(); ++i) {
    const File& file = files_[i];
    if (edit != nullptr && edit->file == i) {
      const size_t at = file.line_starts[edit->line];
      std::string edited;
      edited.reserve(file.content.size() + 1);
      edited.append(file.content, 0, at).append(1, '\n').append(file.content, at);
      analyzer->AddSource(file.path, edited);
    } else {
      analyzer->AddSource(file.path, file.content);
    }
  }
}

EditStream::EditStream(const SourceTree& tree, uint64_t seed)
    : tree_(tree), rng_(seed) {
  for (size_t file = 0; file < tree.files(); ++file) {
    order_.push_back(file);
    first_stratum_.push_back(std::uniform_int_distribution<size_t>(0, kStrata - 1)(rng_));
  }
  std::shuffle(order_.begin(), order_.end(), rng_);
}

SourceTree::Edit EditStream::Next() {
  SourceTree::Edit edit;
  edit.file = order_[drawn_ % order_.size()];
  const size_t visit = drawn_ / order_.size();
  ++drawn_;
  const size_t lines = tree_.lines(edit.file);
  const size_t strata = std::min(kStrata, lines);
  const size_t stratum = (first_stratum_[edit.file] + visit) % strata;
  const size_t begin = stratum * lines / strata;
  const size_t end = (stratum + 1) * lines / strata;
  edit.line = std::uniform_int_distribution<size_t>(begin, end - 1)(rng_);
  return edit;
}

// ---------------------------------------------------------------------------
// Bench

struct Bench::Analysis {
  explicit Analysis(const std::string& root) : tree(root) {}

  SourceTree tree;
  zebra::analysis::SummaryCache warm;   // after the unedited tree
  zebra::analysis::SummaryCache cache;  // what ops use
  zebra::analysis::PriorSnapshot baseline;
  std::unique_ptr<EditStream> edits;
};

Bench::Bench(Config config) : config_(std::move(config)) {
  (void)Schema();
  for (const auto& [app, count] : Corpus().CountsByApp()) {
    apps_.push_back(app);  // sorted: the order full_campaign uses
  }
  if (config_.seed != 0 && config_.workload != Workload::kRetestDiff) {
    std::mt19937_64 rng(config_.seed);
    std::shuffle(apps_.begin(), apps_.end(), rng);
  }
  journal_path_ = config_.work_dir + "/journal-" + std::to_string(::getpid()) + ".zj";

  if (config_.workload == Workload::kRetestDiff || config_.traced) {
    analysis_ = std::make_unique<Analysis>(config_.root);
    zebra::analysis::StaticAnalyzer analyzer;
    analyzer.UseSummaryCache(&analysis_->warm);
    analysis_->tree.AddTo(&analyzer, nullptr);
    zebra::analysis::StaticPriorReport report = analyzer.Analyze(&Schema());
    if (!zebra::analysis::ParsePriorJson(zebra::analysis::ReportToJson(report),
                                         &analysis_->baseline)) {
      throw std::runtime_error("baseline static prior does not round-trip");
    }
  }
  if (config_.traced) {
    uint16_t port = 0;
    int listen_fd = zebra::ListenTcp("127.0.0.1", 0, &port);
    if (listen_fd >= 0) {
      wire_send_fd_ = zebra::ConnectTcp("127.0.0.1", port, 5.0);
      wire_recv_fd_ = wire_send_fd_ >= 0 ? zebra::AcceptTcp(listen_fd) : -1;
      ::close(listen_fd);
    }
    if (wire_send_fd_ < 0 || wire_recv_fd_ < 0) {
      throw std::runtime_error("cannot open a loopback TCP connection");
    }
  }
}

Bench::~Bench() {
  if (wire_send_fd_ >= 0) ::close(wire_send_fd_);
  if (wire_recv_fd_ >= 0) ::close(wire_recv_fd_);
  std::error_code ec;
  fs::remove(journal_path_, ec);
  fs::remove(journal_path_ + ".probe", ec);
}

CampaignOptions Bench::OptionsFor() const {
  CampaignOptions options;
  options.apps = apps_;
  if (config_.workload == Workload::kNativePool ||
      config_.workload == Workload::kPaperFabric) {
    options.enable_run_cache = true;
    options.enable_equiv_cache = true;
  }
  return options;
}

void Bench::PrepareReference() {
  CampaignOptions options = OptionsFor();
  options.enable_run_cache = false;
  options.enable_equiv_cache = false;
  reference_ = zebra::Campaign(Schema(), Corpus(), options).Run();
  reference_identity_ = IdentityText(reference_);
}

void Bench::ResetSequence() {
  if (analysis_ != nullptr) {
    analysis_->cache = analysis_->warm;
    analysis_->edits = std::make_unique<EditStream>(analysis_->tree, config_.seed);
  }
  // The paper-cost latency belongs to paper_fabric alone; it is set here,
  // before any op forks the fleet, and never in set-up or the reference.
  zebra::SetSyntheticRunLatencyUs(
      config_.workload == Workload::kPaperFabric ? kPaperCostLatencyUs : 0);
}

void Bench::AnalyzeEdit(int64_t op, Tracer* tracer, OpOutcome* outcome) {
  SourceTree::Edit edit = analysis_->edits->Next();
  zebra::analysis::StaticAnalyzer analyzer;
  analyzer.UseSummaryCache(&analysis_->cache);
  {
    Span span(tracer, "SourceTree::AddTo", op);
    analysis_->tree.AddTo(&analyzer, &edit);
  }
  outcome->prior = std::make_unique<zebra::analysis::StaticPriorReport>();
  {
    Span span(tracer, "StaticAnalyzer::Analyze", op);
    *outcome->prior = analyzer.Analyze(&Schema());
  }
  outcome->lint = analyzer.stats();
  std::vector<std::string> impacted;
  {
    Span span(tracer, "DiffAgainstSnapshot", op);
    impacted = zebra::analysis::DiffAgainstSnapshot(analysis_->baseline,
                                                    *outcome->prior)
                   .ImpactedParams();
  }
  outcome->impacted_params = static_cast<int64_t>(impacted.size());
  outcome->options.impacted_params.insert(impacted.begin(), impacted.end());
  if (impacted.empty()) {
    outcome->options.impacted_params.insert(kNothingImpacted);
  }
}

void Bench::TracedFold(int64_t op, Tracer* tracer, OpOutcome* outcome) {
  auto start = std::chrono::steady_clock::now();
  Span init(tracer, "Campaign::Campaign", op);
  zebra::Campaign campaign(Schema(), Corpus(), outcome->options);
  init.End();
  zebra::CampaignFolder folder(Schema(), campaign.options());
  for (const std::string& app : campaign.options().apps) {
    std::vector<const zebra::UnitTestDef*> tests = Corpus().ForApp(app);
    {
      Span span(tracer, "CampaignFolder::BeginApp", op);
      folder.BeginApp(app, campaign.generator().OriginalInstanceCount(app),
                      campaign.generator().StaticPrunedInstanceCount(app),
                      static_cast<int>(tests.size()));
    }
    for (const zebra::UnitTestDef* test : tests) {
      Span run(tracer, "Campaign::RunUnit", op);
      UnitWorkResult unit = campaign.RunUnit(*test, folder.globally_unsafe());
      outcome->run_unit_us += run.End();
      {
        Span span(tracer, "CampaignFolder::Fold", op);
        folder.Fold(unit);
      }
      outcome->units.push_back(std::move(unit));
    }
  }
  folder.report().wall_seconds = SecondsSince(start);
  outcome->report = folder.Finish();
}

OpOutcome Bench::RunOp(int64_t op, Tracer* tracer) {
  Span root(tracer, "op", op);
  OpOutcome outcome;
  outcome.options = OptionsFor();
  switch (config_.workload) {
    case Workload::kNativeSeq:
      if (tracer != nullptr) {
        TracedFold(op, tracer, &outcome);
      } else {
        outcome.report = zebra::Campaign(Schema(), Corpus(), outcome.options).Run();
      }
      break;
    case Workload::kNativePool: {
      zebra::ThreadPoolCampaignOptions pool;
      pool.workers = kPoolWorkers;
      pool.journal_path = journal_path_;
      pool.journal_sync_batch = 1;
      Span span(tracer, "RunThreadPoolCampaign", op);
      outcome.report =
          zebra::RunThreadPoolCampaign(Schema(), Corpus(), outcome.options, pool);
      break;
    }
    case Workload::kPaperFabric: {
      zebra::DistributedCampaignOptions fabric;
      fabric.agents = kFabricAgents;
      fabric.agent_threads = 1;
      if (tracer != nullptr) {
        // Traced runs keep the folded results for the layer probes; group
        // commit leaves one sync per op.
        fabric.journal_path = journal_path_;
        fabric.journal_sync_batch = 1 << 30;
      }
      Span span(tracer, "RunDistributedCampaign", op);
      outcome.report =
          zebra::RunDistributedCampaign(Schema(), Corpus(), outcome.options, fabric);
      break;
    }
    case Workload::kRetestDiff:
      AnalyzeEdit(op, tracer, &outcome);
      outcome.options.static_prior = outcome.prior.get();
      outcome.options.enable_coupling_plans = true;
      if (tracer != nullptr) {
        TracedFold(op, tracer, &outcome);
      } else {
        outcome.report = zebra::Campaign(Schema(), Corpus(), outcome.options).Run();
      }
      break;
  }
  outcome.executions = outcome.options.enable_run_cache
                           ? outcome.report.cache_misses
                           : outcome.report.total_unit_test_runs;
  return outcome;
}

std::string Bench::Check(const OpOutcome& outcome, bool traced) {
  std::string failure = ScoreAgainstGroundTruth(outcome.report, full_corpus());
  if (!failure.empty()) {
    return failure;
  }
  if (full_corpus()) {
    if (IdentityText(outcome.report) != reference_identity_) {
      return "report differs from the sequential engine's";
    }
  } else if (traced) {
    // The traced fold must match Campaign::Run bit for bit.
    CampaignReport run = zebra::Campaign(Schema(), Corpus(), outcome.options).Run();
    if (IdentityText(outcome.report) != IdentityText(run)) {
      return "traced fold differs from Campaign::Run";
    }
  }
  return "";
}

std::string Bench::ReplayFold(int64_t op, const OpOutcome& outcome,
                              const std::vector<UnitWorkResult>& units,
                              Tracer* tracer) {
  zebra::Campaign engine(Schema(), Corpus(), outcome.options);
  zebra::CampaignFolder folder(Schema(), engine.options());
  size_t next = 0;
  for (const std::string& app : engine.options().apps) {
    std::vector<const zebra::UnitTestDef*> tests = Corpus().ForApp(app);
    folder.BeginApp(app, engine.generator().OriginalInstanceCount(app),
                    engine.generator().StaticPrunedInstanceCount(app),
                    static_cast<int>(tests.size()));
    for (size_t i = 0; i < tests.size(); ++i) {
      if (next >= units.size()) {
        return "journal holds fewer units than the campaign";
      }
      Span span(tracer, "CampaignFolder::Fold", op);
      folder.Fold(units[next++]);
    }
  }
  CampaignReport replay = folder.Finish();
  if (IdentityText(replay) != IdentityText(outcome.report)) {
    return "replayed fold differs from the op's report";
  }
  return "";
}

std::string Bench::Probe(int64_t op, OpOutcome* outcome, Tracer* tracer,
                         ProbeCounts* counts) {
  const std::string fingerprint =
      zebra::CampaignJournal::Fingerprint(outcome->options, Corpus());

  // The op's folded unit results: the traced fold kept them; the
  // single-call engines journaled them.
  std::vector<UnitWorkResult> journaled;
  if (outcome->units.empty()) {
    zebra::CampaignJournal journal(journal_path_, fingerprint, /*resume=*/true);
    for (const auto& [index, unit] : journal.recovered()) {
      journaled.push_back(unit);
    }
    std::string failure = ReplayFold(op, *outcome, journaled, tracer);
    if (!failure.empty()) {
      return failure;
    }
  }
  const std::vector<UnitWorkResult>& units =
      outcome->units.empty() ? journaled : outcome->units;

  // Generation: a separate pass over the same units, same options.
  {
    zebra::Campaign engine(Schema(), Corpus(), outcome->options);
    for (const std::string& app : engine.options().apps) {
      for (const zebra::UnitTestDef* test : Corpus().ForApp(app)) {
        int64_t executions = 0;
        zebra::PreRunRecord record;
        {
          Span span(tracer, "TestGenerator::PreRunTest", op);
          record = engine.generator().PreRunTest(*test, &executions);
        }
        int64_t before_uncertainty = 0;
        Span span(tracer, "TestGenerator::Generate", op);
        counts->generate_instances += static_cast<int64_t>(
            engine.generator().Generate(record, &before_uncertainty).size());
      }
    }
  }

  // Journal: replay the op's folded units under the default policy (sync
  // every record), as native_pool appends them.
  {
    zebra::CampaignJournal journal(journal_path_ + ".probe", fingerprint,
                                   /*resume=*/false);
    for (size_t i = 0; i < units.size(); ++i) {
      Span span(tracer, "CampaignJournal::Append", op);
      if (!journal.Append(i, units[i])) {
        ++counts->journal_failures;
      }
    }
  }

  // Wire: one result record per frame, encoded, decoded and sent round trip
  // over loopback TCP, as an agent's kResultBatch carries it.
  for (size_t i = 0; i < units.size(); ++i) {
    std::string payload;
    {
      Span span(tracer, "wire.encode", op);
      zebra::AppendBatchRecord(&payload, zebra::SerializeUnitResult(i, units[i]));
    }
    std::vector<std::string> records;
    size_t index = 0;
    UnitWorkResult parsed;
    bool decoded = false;
    {
      Span span(tracer, "wire.decode", op);
      decoded = zebra::DecodeBatchRecords(payload, &records) && records.size() == 1 &&
                zebra::ParseUnitResult(records[0], &index, &parsed);
    }
    if (!decoded || index != i ||
        zebra::SerializeUnitResult(index, parsed) != records[0]) {
      return "unit result does not round-trip through the wire encoding";
    }
    zebra::FabricMsg type;
    std::string echo, back;
    bool sent = false;
    {
      Span span(tracer, "wire.frame_rtt", op);
      sent = zebra::WriteFabricFrame(wire_send_fd_, zebra::FabricMsg::kResultBatch, payload) &&
             zebra::ReadFabricFrame(wire_recv_fd_, &type, &echo) == zebra::FabricRead::kOk &&
             zebra::WriteFabricFrame(wire_recv_fd_, zebra::FabricMsg::kResultBatch, echo) &&
             zebra::ReadFabricFrame(wire_send_fd_, &type, &back) == zebra::FabricRead::kOk;
    }
    if (!sent || back != payload) {
      return "loopback frame round trip failed";
    }
    ++counts->wire_units;
    counts->wire_bytes += static_cast<int64_t>(payload.size());
  }

  // Analysis: the campaign workloads do not call it; probe it with the same
  // seeded edit stream retest_diff draws.
  if (config_.workload != Workload::kRetestDiff) {
    OpOutcome probe;
    AnalyzeEdit(op, tracer, &probe);
    outcome->lint = probe.lint;
    outcome->impacted_params = probe.impacted_params;
  }
  return "";
}

}  // namespace perfbench
