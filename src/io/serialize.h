// Study-result export and run-report import: accuracy records as CSV (the
// `fp8q_cli sweep` output) and the FP8Q_REPORT JSON reader.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/passrate.h"
#include "obs/report.h"

namespace fp8q {

/// Serializes accuracy records as CSV (header + one row per record).
void records_to_csv(const std::vector<AccuracyRecord>& records, std::ostream& out);
[[nodiscard]] std::string records_to_csv(const std::vector<AccuracyRecord>& records);

/// Parses a structured run report written by RunReport::write_json (the
/// FP8Q_REPORT output, docs/OBSERVABILITY.md). Uses a self-contained JSON
/// reader (no external dependencies); unknown keys are ignored so newer
/// writers stay readable. Throws std::runtime_error on malformed input or
/// an unsupported fp8q_report_version.
[[nodiscard]] RunReport report_from_json(std::istream& in);

}  // namespace fp8q
