#!/usr/bin/env bash
# Docs freshness check, wired into ctest as `check_docs` (tests/CMakeLists.txt).
#
# Docs rot by referencing code that later moves or dies. This script greps
# the prose docs for four kinds of reference and fails when one no longer
# resolves against the tree:
#
#   1. repo paths        src/..., tests/..., bench/..., docs/..., tools/...,
#                        examples/... — must exist; brace lists
#                        (parallel.{h,cpp}) expand, globs (src/quant/*.h)
#                        must match at least one file
#   2. bench binaries    bench_foo — bench/bench_foo.cpp must exist AND the
#                        name must be registered in bench/CMakeLists.txt
#                        (a source file that never builds is as stale as a
#                        missing one)
#   3. FP8Q_* knobs      env vars / CMake options — must appear in the
#                        source tree or a CMakeLists.txt
#   4. backticked        `like_this` / `Class::member` / `CamelCaseType` —
#      identifiers       inline-code tokens that look like identifiers
#                        (underscore, ::, or CamelCase with an interior
#                        capital) must appear somewhere in the source tree
#   5. check_* targets   build/ctest gate names (check_static, check_tsan,
#                        ...) — must be defined in a CMakeLists.txt
#
# Heuristics, deliberately: the goal is catching renames and deletions,
# not proving the docs correct. Tokens that don't look like identifiers
# (no underscore/::, or containing ., <, =, spaces) are ignored.
set -u

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT" || exit 2

DOCS=(README.md EXPERIMENTS.md docs/*.md)
SRC_DIRS=(src tests bench tools examples)
# Generated artifacts and prose-only names that legitimately match the
# token patterns but are not tree paths / identifiers.
ALLOW="bench_output report.json bench_report"

fail=0
err() { echo "check_docs: $*" >&2; fail=1; }
allowed() { case " $ALLOW " in *" $1 "*) return 0 ;; *) return 1 ;; esac; }
# Whole words only: a deleted name must not pass because a live one starts
# with it (fp8_quantize_scaled inside fp8_quantize_scaled_fast).
in_tree() { grep -rqwF --include='*' -- "$1" "${SRC_DIRS[@]}" CMakeLists.txt; }

# --- 1. repo paths ---------------------------------------------------------
# Lookbehind rejects matches inside longer paths (./build/bench/... must not
# count as bench/...). Trailing sentence punctuation is stripped.
while IFS= read -r p; do
  p="${p%.}" p="${p%,}" p="${p%)}"
  if [[ $p == *"{"* && $p == *"}"* ]]; then
    base="${p%%\{*}" rest="${p#*\{}"
    alts="${rest%%\}*}" tail="${rest#*\}}"
    IFS=',' read -ra parts <<<"$alts"
    expanded=()
    for a in "${parts[@]}"; do expanded+=("$base$a$tail"); done
  else
    expanded=("$p")
  fi
  for e in "${expanded[@]}"; do
    if [[ $e == *"*"* ]]; then
      compgen -G "$e" >/dev/null || err "stale glob '$e' (matches nothing)"
    elif [[ ! -e $e ]]; then
      err "stale path '$e' (does not exist)"
    fi
  done
done < <(grep -ohP '(?<![/\w.])(src|tests|bench|docs|tools|examples)/[A-Za-z0-9_./{},*-]+' \
         "${DOCS[@]}" | sort -u)

# --- 2. bench binaries -----------------------------------------------------
while IFS= read -r b; do
  allowed "$b" && continue
  [[ -f bench/$b.cpp ]] || err "unknown bench binary '$b' (no bench/$b.cpp)"
  grep -qE "\b$b\b" bench/CMakeLists.txt ||
    err "bench binary '$b' not registered in bench/CMakeLists.txt"
done < <(grep -ohE '\bbench_[a-z0-9_]+' "${DOCS[@]}" | sort -u)

# --- 2b. check_* gate targets ----------------------------------------------
# Docs that tell the operator to run `--target check_foo` (or a ctest test
# named check_foo) must name a target/test some CMakeLists actually defines.
while IFS= read -r t; do
  grep -rq --include=CMakeLists.txt -E "\b$t\b" "${SRC_DIRS[@]}" CMakeLists.txt ||
    err "gate target '$t' not defined in any CMakeLists.txt"
done < <(grep -ohE '\bcheck_[a-z0-9_]+' "${DOCS[@]}" | sort -u)

# --- 3. FP8Q_* knobs -------------------------------------------------------
while IFS= read -r v; do
  in_tree "$v" || err "knob '$v' not found in the source tree"
done < <(grep -ohE '\bFP8Q_[A-Z][A-Z_]+' "${DOCS[@]}" | sort -u)

# --- 4. backticked identifiers --------------------------------------------
# Inline code only; fenced blocks contain no backticks so they are skipped.
# CamelCase: a lowercase run followed later by another capital
# (FastCastSpec, IsaTier) — single words like `Tensor` stay prose.
camelcase() { [[ $1 =~ ^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*[A-Z] ]]; }
while IFS= read -r id; do
  name="${id%%(*}"       # drop call parens: foo() -> foo
  name="${name#fp8q::}"  # docs qualify, source defines inside the namespace
  [[ $name == *_* || $name == *::* ]] || camelcase "$name" || continue
  [[ $name == FP8Q_* ]] && continue  # covered by the knob check
  allowed "$name" && continue
  in_tree "$name" || err "identifier '$name' not found in the source tree"
done < <(grep -ohE '`[A-Za-z_][A-Za-z0-9_:()]*`' "${DOCS[@]}" | tr -d '`' | sort -u)

if [[ $fail -ne 0 ]]; then
  echo "check_docs: FAILED — update the docs or the allowlist in $0" >&2
  exit 1
fi
echo "check_docs: OK (${#DOCS[@]} doc files checked)"
