// Tests for the project-invariant linter (tools/fp8q_lint_lib.h).
//
// Two halves: (1) the seeded fixture files under tests/lint/fixtures/ must
// each be flagged with the expected rule — the linter's detection power is
// itself under test; (2) the real src/ tree must lint clean, which is the
// same property the `check_lint` ctest test enforces via the CLI.
#include "fp8q_lint_lib.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace fp8q::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Lints one fixture by its path relative to the fixtures root (which
/// mirrors the src/ layout, so rule exemptions behave identically).
std::vector<Finding> lint_fixture(const std::string& rel) {
  return lint_file(rel, read_file(std::string(FP8Q_LINT_FIXTURES) + "/" + rel));
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(LintFixtures, RawThreadFlagged) {
  const auto findings = lint_fixture("nn/uses_raw_thread.cpp");
  EXPECT_TRUE(has_rule(findings, "raw-thread"));
  // Both the #include <thread> and the std::thread use are hits.
  EXPECT_GE(findings.size(), 2u);
}

TEST(LintFixtures, RandFlagged) {
  EXPECT_TRUE(has_rule(lint_fixture("quant/uses_rand.cpp"), "determinism"));
}

TEST(LintFixtures, WallClockFlagged) {
  // A <chrono> clock read is both a determinism hazard and a raw clock.
  const auto findings = lint_fixture("metrics/uses_clock.cpp");
  EXPECT_TRUE(has_rule(findings, "determinism"));
  EXPECT_TRUE(has_rule(findings, "raw-clock"));
}

TEST(LintFixtures, RawClockFlagged) {
  // clock_gettime trips only raw-clock: `\bclock\s*\(` in the determinism
  // pattern requires the paren right after "clock", so the rules stay
  // independent.
  const auto findings = lint_fixture("metrics/uses_clock_gettime.cpp");
  EXPECT_TRUE(has_rule(findings, "raw-clock"));
  EXPECT_FALSE(has_rule(findings, "determinism"));
}

TEST(LintFixtures, IostreamFlagged) {
  const auto findings = lint_fixture("tensor/uses_iostream.cpp");
  EXPECT_TRUE(has_rule(findings, "io-stream"));
}

TEST(LintFixtures, MissingPragmaOnceFlagged) {
  EXPECT_TRUE(has_rule(lint_fixture("io/missing_pragma_once.h"), "pragma-once"));
}

TEST(LintFixtures, RawSocketFlagged) {
  const auto findings = lint_fixture("nn/uses_raw_socket.cpp");
  EXPECT_TRUE(has_rule(findings, "raw-socket-io"));
  // Both the socket() creation and the ::send() are hits.
  EXPECT_GE(findings.size(), 2u);
}

TEST(LintFixtures, CleanFileHasNoFindings) {
  EXPECT_TRUE(lint_fixture("fp8/clean.cpp").empty());
}

TEST(LintFixtures, TreeWalkFindsEverySeededViolation) {
  const auto findings = lint_tree(FP8Q_LINT_FIXTURES);
  EXPECT_TRUE(has_rule(findings, "raw-thread"));
  EXPECT_TRUE(has_rule(findings, "determinism"));
  EXPECT_TRUE(has_rule(findings, "raw-clock"));
  EXPECT_TRUE(has_rule(findings, "io-stream"));
  EXPECT_TRUE(has_rule(findings, "pragma-once"));
  EXPECT_TRUE(has_rule(findings, "raw-socket-io"));
  for (const auto& f : findings) {
    EXPECT_NE(f.file.find('/'), std::string::npos) << format_finding(f);
  }
}

TEST(LintRules, ExemptPathsAreSkipped) {
  // The same content that trips in nn/ is legal in its sanctioned home.
  const std::string threaded = "#include <thread>\nstd::thread t;\n";
  EXPECT_FALSE(lint_file("core/parallel.cpp", threaded).empty() &&
               has_rule(lint_file("core/parallel.cpp", threaded), "raw-thread"));
  EXPECT_TRUE(lint_file("core/parallel.cpp", threaded).empty());
  EXPECT_FALSE(lint_file("nn/linear.cpp", threaded).empty());

  const std::string timed = "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_file("obs/trace.cpp", timed).empty());
  // tensor/rng is exempt from `determinism` (it owns seeded randomness)
  // but NOT from `raw-clock`: a clock read there is still a violation.
  EXPECT_FALSE(has_rule(lint_file("tensor/rng.cpp", timed), "determinism"));
  EXPECT_TRUE(has_rule(lint_file("tensor/rng.cpp", timed), "raw-clock"));
  EXPECT_FALSE(lint_file("tensor/stats.cpp", timed).empty());
}

TEST(LintRules, RawSocketSyscallsOnly) {
  // Bare and ::-qualified syscalls trip the rule...
  const std::string raw = "int n = ::recv(fd, buf, len, 0);\n";
  EXPECT_TRUE(has_rule(lint_file("quant/x.cpp", raw), "raw-socket-io"));
  EXPECT_TRUE(has_rule(lint_file("io/x.cpp", "bind(fd, addr, len);\n"), "raw-socket-io"));
  // ...but member calls and prefixed identifiers do not.
  EXPECT_TRUE(lint_file("io/x.cpp", "conn.send_frame(payload);\n").empty());
  EXPECT_TRUE(lint_file("io/x.cpp", "stream.read(buf, n);\n").empty());
  EXPECT_TRUE(lint_file("io/x.cpp", "out->send(frame);\n").empty());
  EXPECT_TRUE(lint_file("io/x.cpp", "poll_readable(fds, 250);\n").empty());
  EXPECT_TRUE(lint_file("io/x.cpp", "server.request_shutdown();\n").empty());
  // service/net_* is the sanctioned syscall home and stays exempt; the
  // server core right next to it is not.
  EXPECT_TRUE(lint_file("service/net_posix.cpp", raw).empty());
  EXPECT_TRUE(has_rule(lint_file("service/server.cpp", raw), "raw-socket-io"));
}

TEST(LintRules, CommentsAndStringsDoNotTrip) {
  EXPECT_TRUE(lint_file("nn/x.cpp", "// std::thread in a comment\n").empty());
  EXPECT_TRUE(lint_file("nn/x.cpp", "/* rand() in a block\n   comment */\n").empty());
  EXPECT_TRUE(lint_file("nn/x.cpp", "const char* s = \"std::cout << rand()\";\n").empty());
  EXPECT_FALSE(lint_file("nn/x.cpp", "auto t = std::thread{};\n").empty());
}

TEST(LintRules, LineAndFileSuppressionsWork) {
  EXPECT_TRUE(
      lint_file("nn/x.cpp",
                "std::thread t;  // fp8q-lint: allow(raw-thread)\n")
          .empty());
  EXPECT_TRUE(
      lint_file("nn/x.cpp",
                "// fp8q-lint: allow-file(raw-thread)\nstd::thread a;\nstd::thread b;\n")
          .empty());
  // A suppression for one rule does not silence another.
  EXPECT_FALSE(
      lint_file("nn/x.cpp",
                "std::thread t;  // fp8q-lint: allow(determinism)\n")
          .empty());
}

TEST(LintRules, StripperPreservesLineNumbers) {
  const std::string content = "int a;\n/* comment\nspanning lines */ std::thread t;\n";
  const auto findings = lint_file("nn/x.cpp", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].rule, "raw-thread");
}

TEST(LintRealTree, SrcIsClean) {
  std::string errors;
  const auto findings = lint_tree(FP8Q_LINT_SRC_ROOT, &errors);
  EXPECT_TRUE(errors.empty()) << errors;
  for (const auto& f : findings) ADD_FAILURE() << format_finding(f);
}

}  // namespace
}  // namespace fp8q::lint
