// Crash-safe campaign journal: append-only log of folded unit results.
//
// A campaign over tens of thousands of unit-test executions runs for days; a
// parent crash (OOM kill, machine reboot, operator SIGKILL) must not lose the
// completed work. The FoldCoordinator (fold_coordinator.h) appends every
// unit result to this journal *in canonical fold order, as it folds* — so
// the journal holds exactly the fold prefix, and a resumed campaign replays
// it through the same CampaignFolder before dispatching the remaining
// units. Replay and re-execution go through one code path (the canonical
// fold), which is why a resumed campaign's findings, Table-5 stage counts,
// and runs_to_first_detection are bitwise-identical to an uninterrupted one.
//
// File format (record framing from worker_ipc, payloads from report_io —
// the exact bytes the fabric's result records carry):
//
//   frame 0:  "zebra-journal-v1\n<campaign fingerprint>"
//   frame k:  "<fnv64 hex of body>\n<body>"   body = SerializeUnitResult(...)
//
// Appends are sequential, so only the tail can be torn by a crash. A short
// frame, a checksum mismatch, or an unparseable body ends recovery at the
// last good record and the file is truncated there — a torn tail is never
// trusted, and the next Append lands on a clean boundary. A fingerprint
// mismatch (different apps, corpus, or result-affecting options) throws:
// replaying another campaign's prefix would silently corrupt results.

#ifndef SRC_CORE_CAMPAIGN_JOURNAL_H_
#define SRC_CORE_CAMPAIGN_JOURNAL_H_

#include <string>
#include <utility>
#include <vector>

#include "src/core/campaign.h"

namespace zebra {

class UnitTestRegistry;

class CampaignJournal {
 public:
  // Durability policy for Append: how many records may ride in one
  // fdatasync. batch == 1 (the default, today's behavior) syncs every
  // record before Append returns; batch == N coalesces up to N records per
  // sync — group commit. Appends are still written (and framed, and
  // checksummed) immediately in either mode; only the fdatasync is
  // deferred, so a crash can lose at most the last batch-1 *synced-but-
  // unflushed* records, and the torn-tail truncation on resume recovers the
  // longest valid prefix exactly as before. Findings are unaffected either
  // way — the journal is a resume accelerator, not a result.
  struct SyncPolicy {
    int batch = 1;
  };

  // Opens (creating if needed) the journal at `path`. With resume=false the
  // file is truncated and started fresh; with resume=true the valid record
  // prefix is loaded into recovered() and the torn tail (if any) truncated.
  // Throws Error when the file cannot be opened or, on resume, when its
  // fingerprint does not match `fingerprint`.
  CampaignJournal(const std::string& path, const std::string& fingerprint,
                  bool resume, SyncPolicy sync = SyncPolicy{1});
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  // Unit results recovered from a resumed journal, in fold order. The
  // coordinator replays records while they match the canonical cursor and
  // ignores the rest (a record out of canonical order means the file was
  // tampered with beyond what checksums can repair).
  const std::vector<std::pair<size_t, UnitWorkResult>>& recovered() const {
    return recovered_;
  }

  // Appends one folded unit result; syncs to the OS according to the
  // SyncPolicy (every record, or once per batch). Returns false on
  // write/sync failure, after which journaling is disabled for the rest of
  // the campaign (the campaign itself continues) and append_failures()
  // reflects the event.
  bool Append(size_t unit_index, const UnitWorkResult& unit);

  // Syncs any batched-but-unsynced records. Called by the destructor; the
  // coordinator also calls it at campaign end so a clean exit never leaves an
  // unsynced tail regardless of policy.
  void Flush();

  // Write/fdatasync failures observed by Append/Flush. At most 1 in
  // practice (the first failure disables journaling), surfaced as
  // CampaignReport::journal_append_failures.
  int64_t append_failures() const { return append_failures_; }

  // Identity of a campaign for resume compatibility: the resolved app list,
  // every unit-test id in canonical order, and the options that can change
  // results (significance, trials, thresholds, pooling, ordering, parameter
  // filters, static-prior presence). Cache and watchdog settings are
  // deliberately excluded — they never change findings, so a resume may
  // tighten or relax them.
  static std::string Fingerprint(const CampaignOptions& options,
                                 const UnitTestRegistry& corpus);

 private:
  int fd_ = -1;
  SyncPolicy sync_;
  int pending_ = 0;  // records written since the last fdatasync
  int64_t append_failures_ = 0;
  std::vector<std::pair<size_t, UnitWorkResult>> recovered_;
};

}  // namespace zebra

#endif  // SRC_CORE_CAMPAIGN_JOURNAL_H_
