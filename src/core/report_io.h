// Report serialization: persist campaign results (the findings knowledge
// base and stage counts) as properties text and reload them later.

#ifndef SRC_CORE_REPORT_IO_H_
#define SRC_CORE_REPORT_IO_H_

#include <string>

#include "src/core/campaign.h"

namespace zebra {

// Serializes the report (stage counts, findings, sharing stats, hypothesis
// stats, run totals, cache counters, first-detection stats) to properties
// text. Run durations are summarized as their count and total seconds;
// newlines inside failure messages are escaped.
std::string SerializeReport(const CampaignReport& report);

// Parses text produced by SerializeReport. Throws Error on malformed input.
// Fields absent from older serializations default to zero/empty.
CampaignReport DeserializeReport(const std::string& text);

// Newline/backslash escaping for multi-line values (failure messages)
// embedded in single-line properties values. Shared with the unit-result
// format below.
std::string EscapeReportText(const std::string& text);
std::string UnescapeReportText(const std::string& text);

// One work unit's full contribution as properties text — the payload of the
// fabric's result records and of campaign-journal records (both must fold to
// bitwise-identical reports, so they share one format). Doubles round-trip
// at full precision ("%.17g"); ParseUnitResult returns false on malformed
// input, which the fabric coordinator treats as a broken agent and the
// journal as a torn tail.
std::string SerializeUnitResult(size_t unit_index, const UnitWorkResult& unit);
bool ParseUnitResult(const std::string& text, size_t* unit_index,
                     UnitWorkResult* unit);

}  // namespace zebra

#endif  // SRC_CORE_REPORT_IO_H_
