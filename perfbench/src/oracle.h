// Ground-truth oracle: scores a campaign report against the seeded truth in
// src/testkit/ground_truth.h, never against another run of the engine under
// test.
//
//   * A full-corpus campaign must find every ExpectedUnsafeParams entry.
//   * No campaign may report a parameter outside ExpectedUnsafeParams ∪
//     ProbabilisticUnsafeParams ∪ KnownFalsePositiveSources.
//   * No unit may be poisoned (quarantined after repeated failures).
//
// Engine identity (a parallel engine serializing exactly like the sequential
// one) is checked separately, on IdentityText: the report with every
// scheduling-dependent accounting field cleared.

#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <string>

#include "src/core/campaign.h"

namespace perfbench {

// Returns "" when the report passes, else the first violation.
std::string ScoreAgainstGroundTruth(const zebra::CampaignReport& report,
                                    bool full_corpus);

// SerializeReport of `report` with wall-clock, run durations, cache/equiv
// counters and fault-tolerance counters cleared: what two engines must agree
// on bit for bit.
std::string IdentityText(zebra::CampaignReport report);

// Feeds the oracle two corrupted copies of a passing full-corpus report (one
// expected finding dropped, one invented finding added) and checks that both
// are rejected. Returns "" on success, else what went wrong.
std::string OracleSelfTest(const zebra::CampaignReport& passing);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
