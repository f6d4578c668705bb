// fp8q_lint v2 — token-aware analysis engine (docs/STATIC_ANALYSIS.md).
//
// Rebuild of the original line-regex linter as a small static-analysis
// library: each file is tokenized (lint/token.h) into a per-TU model
// (lint/model.h), and the rules (lint/rules.cpp) match includes, call
// sites, class members and range-for statements instead of raw lines.
// The original rule set (raw-thread, raw-socket-io, determinism,
// raw-clock, io-stream, pragma-once) is ported onto the token stream,
// plus four rules only a syntactic engine can express:
//
//   include-layers  quoted includes must respect the layer DAG declared
//                   in tools/lint/layers.manifest (back-edges — and
//                   therefore cycles — are findings; src/service is
//                   sealed to tools/tests)
//   naked-mutex     a std::mutex / std::shared_mutex class member in
//                   src/ requires an FP8Q_GUARDED_BY sibling in the same
//                   class body (the clang thread-safety annotations only
//                   check what is annotated; this rule makes "annotated
//                   at all" itself enforced)
//   unordered-iteration
//                   range-for over an unordered container is a
//                   determinism leak (iteration order varies across
//                   libstdc++ versions and address layouts); sort keys
//                   first, or declare the TU unordered-ok with a reason
//   env-access      getenv()/setenv() confined to the config/dispatch
//                   TUs declared in the manifest — configuration enters
//                   the library through one auditable surface
//
// Scan roots: src/ (library rules), tools/ and bench/ (app profile: may
// print and use getenv if declared, but clocks/threads/unordered
// iteration are still policed). Suppressions are unchanged:
//   // fp8q-lint: allow(<rule>)       on the offending line
//   // fp8q-lint: allow-file(<rule>)  anywhere in the file
// Output: "file:line: [rule] message" plus optional SARIF (lint/sarif.h).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "lint/manifest.h"

namespace fp8q::lint {

/// One rule violation at a source location.
struct Finding {
  std::string file;     ///< path relative to the repo root (or scan root)
  int line = 0;         ///< 1-based
  std::string rule;     ///< rule id (raw-thread, include-layers, ...)
  std::string message;  ///< human-readable explanation
};

/// "file:line: [rule] message" — the CLI's (and test failures') format.
[[nodiscard]] std::string format_finding(const Finding& f);

/// Lints one file's contents. `rel_path` decides which rules apply and
/// appears in findings: "src/..." / "tools/..." / "bench/..." select the
/// root profile; a bare path ("nn/linear.cpp") is treated as src-relative
/// (the v1 calling convention, kept for the fixture suite). Manifest-less
/// calls skip the manifest-armed rules (include-layers, env-access) and
/// the manifest's unordered-ok allowlist.
[[nodiscard]] std::vector<Finding> lint_file(const std::string& rel_path,
                                             const std::string& content,
                                             const Manifest* manifest = nullptr);

/// v1 compatibility: lints every .h/.hpp/.cpp/.cc under `src_root` with
/// src-relative paths and no manifest. Findings are sorted by
/// (file, line, rule). On I/O failure appends to `*error` (when non-null)
/// and reports a finding for the file.
[[nodiscard]] std::vector<Finding> lint_tree(const std::filesystem::path& src_root,
                                             std::string* error = nullptr);

/// One scan root: `path` on disk, reported as `label/<rel>` (label also
/// selects the rule profile: "src" = library, "tools"/"bench" = app).
struct ScanRoot {
  std::filesystem::path path;
  std::string label;
};

struct ScanOptions {
  std::vector<ScanRoot> roots;
  const Manifest* manifest = nullptr;
};

/// The full v2 scan: every root, manifest-armed rules included. Findings
/// sorted by (file, line, rule).
[[nodiscard]] std::vector<Finding> lint_roots(const ScanOptions& options,
                                              std::string* error = nullptr);

}  // namespace fp8q::lint
