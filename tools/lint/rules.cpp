#include "lint/rules.h"

#include <algorithm>
#include <cstring>
#include <set>

namespace fp8q::lint {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_header(const std::string& sub) {
  return sub.size() > 2 && (sub.ends_with(".h") || sub.ends_with(".hpp"));
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Tokens `std :: NAME` ending at index `i` (i points at NAME).
bool std_qualified(const std::vector<Token>& toks, const std::vector<std::size_t>& code,
                   std::size_t ci) {
  return ci >= 2 && toks[code[ci - 1]].kind == TokKind::kPunct &&
         toks[code[ci - 1]].text == "::" && toks[code[ci - 2]].kind == TokKind::kIdent &&
         toks[code[ci - 2]].text == "std";
}

/// The rule context: the classified path, the model, a comment-free token
/// index, and the sink.
struct Ctx {
  const FilePath& path;
  const TuModel& model;
  const Manifest* manifest;
  std::vector<Finding>* out;
  std::vector<std::size_t> code;  ///< indices of non-comment/directive tokens

  explicit Ctx(const FilePath& p, const TuModel& m, const Manifest* man,
               std::vector<Finding>* o)
      : path(p), model(m), manifest(man), out(o) {
    code.reserve(m.tokens.size());
    for (std::size_t i = 0; i < m.tokens.size(); ++i) {
      if (m.tokens[i].kind != TokKind::kComment &&
          m.tokens[i].kind != TokKind::kDirective) {
        code.push_back(i);
      }
    }
  }

  const Token& tok(std::size_t ci) const { return model.tokens[code[ci]]; }

  void emit(int line, const char* rule, std::string message) const {
    out->push_back({path.reported, line, rule, std::move(message)});
  }

  /// Emits one finding per angled include of a header in `headers`.
  void flag_includes(const std::vector<std::string>& headers, const char* rule,
                     const std::string& message) const {
    for (const Include& inc : model.includes) {
      if (inc.angled && contains(headers, inc.path)) emit(inc.line, rule, message);
    }
  }

  /// Emits one finding per `std::NAME` token sequence with NAME in `names`.
  void flag_std_idents(const std::vector<std::string>& names, const char* rule,
                       const std::string& message) const {
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      if (tok(ci).kind == TokKind::kIdent && contains(names, tok(ci).text) &&
          std_qualified(model.tokens, code, ci)) {
        emit(tok(ci).line, rule, message);
      }
    }
  }

  /// Emits one finding per bare identifier use (qualified or not) of a
  /// name in `names`.
  void flag_idents(const std::vector<std::string>& names, const char* rule,
                   const std::string& message) const {
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      if (tok(ci).kind == TokKind::kIdent && contains(names, tok(ci).text)) {
        emit(tok(ci).line, rule, message);
      }
    }
  }

  /// Emits one finding per free/global-qualified call of a name in `names`.
  void flag_calls(const std::vector<std::string>& names, const char* rule,
                  const std::string& message) const {
    for (const CallSite& call : model.calls) {
      if (contains(names, call.callee)) emit(call.line, rule, message);
    }
  }
};

// --- ported v1 rules --------------------------------------------------------

void rule_raw_thread(const Ctx& c) {
  if (c.path.root == "src" && (starts_with(c.path.sub, "core/parallel.") ||
                               starts_with(c.path.sub, "service/server."))) {
    // core/parallel owns the pool; service/server owns the daemon's
    // single executor thread (docs/SERVICE.md).
    return;
  }
  const std::string msg =
      "raw threading primitive outside core/parallel.{h,cpp}; use "
      "parallel_run/parallel_stream (docs/THREADING.md)";
  c.flag_includes({"thread", "future"}, "raw-thread", msg);
  c.flag_std_idents({"thread", "jthread", "async"}, "raw-thread", msg);
}

void rule_raw_socket_io(const Ctx& c) {
  if (c.path.root == "src" && starts_with(c.path.sub, "service/net_")) return;
  c.flag_calls({"socket", "accept", "accept4", "bind", "listen", "connect", "recv",
                "recvfrom", "recvmsg", "send", "sendto", "sendmsg", "read", "write",
                "setsockopt", "getsockopt", "getsockname", "poll", "select",
                "epoll_wait"},
               "raw-socket-io",
               "raw socket/poll syscall outside src/service/net_*; go through the "
               "framed Connection/Listener wrappers (service/net.h) so every byte "
               "on the wire passes one audited length-checked path "
               "(docs/SERVICE.md)");
}

void rule_determinism(const Ctx& c) {
  if (c.path.root == "src" &&
      (starts_with(c.path.sub, "obs/") || c.path.sub == "tensor/rng.cpp" ||
       c.path.sub == "tensor/rng.h")) {
    return;  // obs owns the process clocks; tensor/rng owns seeded randomness
  }
  const std::string msg =
      "nondeterminism source (clock/rand) outside src/obs/ and tensor/rng; "
      "library results must be pure functions of their inputs (use "
      "obs_now_ns() for timing, fp8q::Rng for randomness)";
  c.flag_includes({"chrono", "random"}, "determinism", msg);
  c.flag_idents({"random_device", "system_clock", "steady_clock",
                 "high_resolution_clock", "gettimeofday"},
                "determinism", msg);
  c.flag_calls({"srand", "rand", "time", "clock"}, "determinism", msg);
}

void rule_raw_clock(const Ctx& c) {
  if (c.path.root == "src" && starts_with(c.path.sub, "obs/")) return;
  const std::string msg =
      "raw clock/timing primitive outside src/obs/; take timestamps through "
      "obs_now_ns() (obs/trace.h) so latency histograms and trace exports "
      "share one clock domain (docs/OBSERVABILITY.md)";
  c.flag_includes({"chrono", "ctime", "sys/time.h"}, "raw-clock", msg);
  c.flag_std_idents({"chrono"}, "raw-clock", msg);
  c.flag_calls({"clock_gettime", "timespec_get"}, "raw-clock", msg);
}

void rule_io_stream(const Ctx& c) {
  if (c.path.root != "src") return;  // tools/bench CLIs print by design
  if (starts_with(c.path.sub, "obs/")) return;
  const std::string msg =
      "console output from library code; only the gated obs report/trace "
      "writers may emit (docs/OBSERVABILITY.md)";
  c.flag_includes({"iostream"}, "io-stream", msg);
  c.flag_std_idents({"cout", "cerr", "clog"}, "io-stream", msg);
  c.flag_calls({"printf", "fprintf", "puts", "fputs", "putchar"}, "io-stream", msg);
}

void rule_pragma_once(const Ctx& c) {
  if (!is_header(c.path.sub)) return;
  if (c.model.has_pragma_once) return;
  c.emit(1, "pragma-once",
         "header missing #pragma once (headers must be include-once and "
         "self-contained; see cmake/HeaderSelfContain.cmake)");
}

// --- v2 syntactic rules -----------------------------------------------------

void rule_naked_mutex(const Ctx& c) {
  if (c.path.root != "src") return;
  for (const ClassInfo& cls : c.model.classes) {
    if (cls.mutex_member_lines.empty() || cls.has_guarded_member) continue;
    for (const int line : cls.mutex_member_lines) {
      c.emit(line, "naked-mutex",
             "class '" + (cls.name.empty() ? std::string("<anonymous>") : cls.name) +
                 "' holds a std::mutex/std::shared_mutex member but no "
                 "FP8Q_GUARDED_BY sibling; annotate the guarded data "
                 "(core/thread_annotations.h) so clang -Wthread-safety can "
                 "check the locking (docs/STATIC_ANALYSIS.md)");
    }
  }
}

void rule_unordered_iteration(const Ctx& c) {
  if (c.manifest != nullptr && c.manifest->is_unordered_ok(c.path.canonical)) return;
  if (c.model.unordered_idents.empty()) return;
  const std::set<std::string> tracked(c.model.unordered_idents.begin(),
                                      c.model.unordered_idents.end());
  for (const RangeFor& rf : c.model.range_fors) {
    for (const std::string& ident : rf.range_idents) {
      if (tracked.count(ident) == 0) continue;
      c.emit(rf.line, "unordered-iteration",
             "range-for over unordered container '" + ident +
                 "': iteration order is hash/address dependent, a determinism "
                 "leak if it reaches any output — sort keys first, or declare "
                 "the TU unordered-ok in tools/lint/layers.manifest with a "
                 "reason (docs/STATIC_ANALYSIS.md)");
      break;  // one finding per loop, not per mention
    }
  }
}

void rule_env_access(const Ctx& c) {
  if (c.manifest == nullptr) return;  // manifest declares the allowed TUs
  if (c.manifest->is_env_tu(c.path.canonical)) return;
  const std::set<std::string> env_calls = {"getenv", "secure_getenv", "setenv",
                                           "putenv", "unsetenv"};
  for (std::size_t ci = 0; ci + 1 < c.code.size(); ++ci) {
    const Token& t = c.tok(ci);
    if (t.kind != TokKind::kIdent || env_calls.count(t.text) == 0) continue;
    if (!(c.tok(ci + 1).kind == TokKind::kPunct && c.tok(ci + 1).text == "(")) continue;
    if (ci >= 1 && c.tok(ci - 1).kind == TokKind::kPunct &&
        (c.tok(ci - 1).text == "." || c.tok(ci - 1).text == "->")) {
      continue;  // a method that happens to share the name
    }
    if (ci >= 2 && c.tok(ci - 1).kind == TokKind::kPunct && c.tok(ci - 1).text == "::" &&
        c.tok(ci - 2).kind == TokKind::kIdent && c.tok(ci - 2).text != "std") {
      continue;  // some_ns::getenv — not the libc entry point
    }
    c.emit(t.line, "env-access",
           "getenv/setenv outside the declared config/dispatch TUs; environment "
           "reads are configuration surface and must be listed (with the knob "
           "names) under [env] in tools/lint/layers.manifest "
           "(docs/STATIC_ANALYSIS.md)");
  }
}

void rule_include_layers(const Ctx& c) {
  if (c.manifest == nullptr || c.manifest->layers.empty()) return;
  const Manifest& m = *c.manifest;
  const bool in_src = c.path.root == "src";
  const int file_rank = in_src ? m.layer_rank(c.path.canonical) : -1;

  if (in_src && file_rank < 0) {
    c.emit(1, "include-layers",
           "file is not covered by any layer in tools/lint/layers.manifest; "
           "add its directory (or the file) to a layer so the include DAG "
           "stays total (docs/STATIC_ANALYSIS.md)");
    return;
  }

  for (const Include& inc : c.model.includes) {
    if (inc.angled) continue;  // system headers are not layered
    const std::string target = "src/" + inc.path;
    const int target_rank = m.layer_rank(target);
    if (target_rank < 0) continue;  // tool-local header, not a src include
    const std::string& target_layer = m.layer_name(target_rank);

    // Sealed layers: only the layer itself and the declared extra roots.
    if (const SealedLayer* sealed = m.sealed_entry(target_layer)) {
      const bool same_layer = in_src && file_rank == target_rank;
      const bool root_ok = contains(sealed->extra_roots, c.path.root);
      if (!same_layer && !root_ok && !m.include_allowed(c.path.canonical, target_layer)) {
        c.emit(inc.line, "include-layers",
               "\"" + inc.path + "\" is sealed (layer '" + target_layer +
                   "'): only the layer itself and " +
                   (sealed->extra_roots.empty() ? std::string("tests")
                                                : "tests/" + sealed->extra_roots[0]) +
                   " may include it (tools/lint/layers.manifest)");
        continue;
      }
    }

    // Back-edges: a src file may only include its own or lower layers.
    if (in_src && target_rank > file_rank &&
        !m.include_allowed(c.path.canonical, target_layer)) {
      c.emit(inc.line, "include-layers",
             "layer back-edge: '" + m.layer_name(file_rank) + "' (this file) may not "
                 "include \"" + inc.path + "\" from the higher layer '" + target_layer +
                 "'; invert the dependency, move the shared piece down, or add a "
                 "justified allow-include to tools/lint/layers.manifest");
    }
  }
}

}  // namespace

FilePath classify_path(const std::string& rel_path) {
  FilePath p;
  p.reported = rel_path;
  for (const char* root : {"src/", "tools/", "bench/"}) {
    if (starts_with(rel_path, root)) {
      p.root = std::string(root, std::strlen(root) - 1);
      p.sub = rel_path.substr(std::strlen(root));
      p.canonical = rel_path;
      return p;
    }
  }
  p.root = "src";  // v1 convention: bare paths are src-relative
  p.sub = rel_path;
  p.canonical = "src/" + rel_path;
  return p;
}

void run_rules(const FilePath& path, const TuModel& model, const Manifest* manifest,
               std::vector<Finding>* out) {
  const Ctx c(path, model, manifest, out);
  rule_raw_thread(c);
  rule_raw_socket_io(c);
  rule_determinism(c);
  rule_raw_clock(c);
  rule_io_stream(c);
  rule_pragma_once(c);
  rule_naked_mutex(c);
  rule_unordered_iteration(c);
  rule_env_access(c);
  rule_include_layers(c);
}

}  // namespace fp8q::lint
