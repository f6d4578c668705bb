#!/usr/bin/env bash
# One-shot correctness gate (docs/STATIC_ANALYSIS.md). Runs, in order:
#
#   1. warnings-as-errors build (FP8Q_WERROR=ON) + full ctest suite, then
#      the benchmark's own output-check and job-stream tests
#      (perfbench/test_run.py)
#   2. static-analysis gate: project linter, linter self-test, header
#      self-containment, docs freshness (`check_static`); then the linter
#      once more with --sarif so every CI run leaves a SARIF artifact for
#      annotation tooling (fails on any finding)
#   3. perf + telemetry smoke: bench_kernels --smoke twice, with report /
#      trace export on; `fp8q_report check-bench` enforces the dispatched
#      cast, GEMM and GELU kernels >= 2x scalar-tier floor, and LayerNorm
#      >= 1.5x (docs/KERNELS.md), `fp8q_report check-trace`
#      validates the Chrome trace JSON, and `fp8q_report diff` between the
#      two runs gates wall/memory regressions with explicit thresholds
#      (docs/PERFORMANCE.md, docs/OBSERVABILITY.md); bench_kernels calls
#      the cast kernels without a tally, so its counters are all zero.
#      `objdump -d` of the gemm, tanh, norm, cast_fast and int8 objects
#      must hold no vfmadd (every tier rounds each multiply and add on its own),
#      and the tanh object no vpextrd or vpinsrd (its 64-byte body stays
#      in vector registers); then `check_tanh_exhaustive` compares every
#      tier of the tanh kernel with the scalar replica on all 2^32 floats.
#      Then the Table 2 bit-identity gates: bench_table2_passrate --quick at the
#      default thread count and tier, against FP8Q_NUM_THREADS=1 and
#      against FP8Q_ISA=scalar, FP8Q_ISA=batched and, where the CPU runs
#      it, FP8Q_ISA=native (the cast, GEMM and tanh kernels' cross-tier
#      contract; each pinned report must name the pinned tier), each
#      diffed at zero counter drift, zero tensor-allocation growth (bytes
#      and count) and zero accuracy drop in both directions, so an accuracy
#      or an allocation total that moves either way fails, as does a record
#      present in only one run. Then the tuner's
#      thread-count gate: `fp8q_cli tune nlp/lm-extreme-3 E4M3` (the full
#      ladder, both fallback stages and node sensitivity) at
#      FP8Q_NUM_THREADS=1 and at the default count, where exit 0 or 1
#      (criterion met or not) passes and an error (exit 2) fails, diffed
#      the same way.
#   4. service smoke: boot fp8qd at 1 worker and again at 2 workers on a
#      private socket, drive both with fp8qd_bench (--append folds the two
#      runs into one BENCH_service.json scaling curve), gate the snapshot
#      on a sustained jobs/sec floor via `fp8q_report check-bench
#      --min-jobs-per-sec`, and diff a canonical job's report between the
#      two worker counts at --max-counter-drift-pct=0 -- the scoped
#      observation domains' bit-identity contract, with both executors
#      dispatching onto the one shared thread pool (docs/SERVICE.md,
#      docs/THREADING.md)
#   5. AddressSanitizer build + full ctest suite (`check_asan`)
#   6. UndefinedBehaviorSanitizer build + full ctest suite (`check_ubsan`)
#   7. ThreadSanitizer build + concurrency suite (`check_tsan`), the
#      daemon end to end included
#   8. fuzz build (FP8Q_SANITIZE=fuzzer: ASan + the tests/fuzz/ harnesses)
#      + a 30-second bounded run of both network-facing parser fuzzers
#      over the checked-in corpora (`check_fuzz`)
#
# Every report, trace and BENCH file a gate reads is deleted just before
# the run that writes it, so a run that fails to write one fails its gate
# instead of the gate reading the previous run's file from a reused build
# tree.
#
# Any failure stops the script with a non-zero exit. Build trees default to
# build-ci-* next to the source tree; override the prefix with
# FP8Q_CI_BUILD_PREFIX. FP8Q_CI_SKIP_SANITIZERS=1 runs only steps 1-4
# (useful on machines where four extra build trees are too slow).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PREFIX="${FP8Q_CI_BUILD_PREFIX:-$ROOT/build-ci}"
JOBS="${FP8Q_CI_JOBS:-$(nproc)}"

step() { echo; echo "=== ci: $* ==="; }

step "warnings-as-errors build + full suite"
cmake -B "$PREFIX" -S "$ROOT" -DFP8Q_WERROR=ON
cmake --build "$PREFIX" -j "$JOBS"
ctest --test-dir "$PREFIX" --output-on-failure
PYTHONDONTWRITEBYTECODE=1 python3 "$ROOT/perfbench/test_run.py"

step "static-analysis gate (check_static)"
cmake --build "$PREFIX" --target check_static

# The same scan once more with SARIF on: CI annotation tooling ingests
# the artifact, and the run doubles as the "linter is clean" gate (exit 1
# on any finding stops the script). The artifact is written even when
# clean, so the upload step never 404s.
"$PREFIX/tools/fp8q_lint" --manifest="$ROOT/tools/lint/layers.manifest" \
  --sarif="$PREFIX/lint.sarif" "$ROOT/src" "$ROOT/tools" "$ROOT/bench"
echo "ci: SARIF artifact: $PREFIX/lint.sarif"

step "perf + telemetry smoke (bench_kernels --smoke, table2 --quick through fp8q_report)"
rm -f "$PREFIX/trace_smoke.json" "$PREFIX/report_smoke.json" \
  "$PREFIX/BENCH_kernels_smoke.json"
# Instrumented run: report + histograms + trace export all on. The gates
# live in fp8q_report, each with an explicit threshold:
#   check-bench   the dispatched cast, GEMM and GELU kernels must beat
#                 the scalar tier >= 2x, and LayerNorm >= 1.5x
#                 (docs/KERNELS.md -- catches a silent fallback)
#   check-trace   FP8Q_TRACE_JSON output must be valid, properly nested
#                 Chrome trace JSON
#   print         the run report must round-trip through the hardened
#                 JSON reader (io/json.h)
FP8Q_TRACE=1 FP8Q_TRACE_JSON="$PREFIX/trace_smoke.json" \
  FP8Q_REPORT="$PREFIX/report_smoke.json" \
  "$PREFIX/bench/bench_kernels" --smoke --out="$PREFIX/BENCH_kernels_smoke.json"
"$PREFIX/tools/fp8q_report" check-bench "$PREFIX/BENCH_kernels_smoke.json" \
  --min-dispatch-speedup=2.0
"$PREFIX/tools/fp8q_report" check-trace "$PREFIX/trace_smoke.json"
"$PREFIX/tools/fp8q_report" print "$PREFIX/report_smoke.json" > /dev/null

# No FMA in the kernel objects (docs/KERNELS.md): every tier rounds each
# multiply and each add on its own. The wide tier's AVX-512F target
# carries FMA instructions, so only -ffp-contract=off keeps them out; this
# checks the objects it builds.
for obj in nn/CMakeFiles/fp8q_nn.dir/gemm.cpp.o nn/CMakeFiles/fp8q_nn.dir/tanh.cpp.o \
  nn/CMakeFiles/fp8q_nn.dir/norm.cpp.o \
  fp8/CMakeFiles/fp8q_fp8.dir/cast_fast.cpp.o fp8/CMakeFiles/fp8q_fp8.dir/int8.cpp.o; do
  objdump -d "$PREFIX/src/$obj" > "$PREFIX/kernel.dis"
  fma=$(grep -c vfmadd "$PREFIX/kernel.dis" || true)
  if [[ $fma != 0 ]]; then
    echo "ci: $obj holds $fma vfmadd instructions" >&2
    exit 1
  fi
done
# GCC 12 scalarizes tanh's 64-byte body (lane extracts and inserts) if a
# select tests the OR of two lane compares; each range test is one
# unsigned compare instead (src/nn/tanh.cpp, docs/KERNELS.md).
objdump -d "$PREFIX/src/nn/CMakeFiles/fp8q_nn.dir/tanh.cpp.o" > "$PREFIX/kernel.dis"
lane=$(grep -cE 'vpextrd|vpinsrd' "$PREFIX/kernel.dis" || true)
if [[ $lane != 0 ]]; then
  echo "ci: tanh.cpp.o holds $lane vpextrd/vpinsrd instructions" >&2
  exit 1
fi
# Every tier of the tanh kernel against the scalar fdlibm replica on all
# 2^32 floats, under Tanh and GELU's shared vector body.
cmake --build "$PREFIX" --target check_tanh_exhaustive

# Second instrumented run, diffed against the first: wall time and memory
# may wobble but not explode. bench_kernels calls the cast kernels
# directly without a tally, so every counter cell is 0 and the counter
# check here has nothing to compare; the Table 2 diffs below are the
# counter gates.
rm -f "$PREFIX/report_smoke2.json" "$PREFIX/BENCH_kernels_smoke2.json"
FP8Q_REPORT="$PREFIX/report_smoke2.json" \
  "$PREFIX/bench/bench_kernels" --smoke --out="$PREFIX/BENCH_kernels_smoke2.json"
"$PREFIX/tools/fp8q_report" diff "$PREFIX/report_smoke.json" "$PREFIX/report_smoke2.json" \
  --max-counter-drift-pct=0 --max-wall-regress-pct=400 \
  --max-alloc-growth-pct=50 --max-rss-growth-pct=100

# Table 2 bit-identity gate: records, counters and tensor-allocation
# totals of the quick sweep at one thread must equal those at the default
# count (docs/THREADING.md). Diffed both ways: --max-accuracy-drop and
# --max-alloc-growth-pct fail only a rise in loss or in allocation, so a
# record whose accuracy rises, or a total that falls, fails the reverse
# diff.
rm -f "$PREFIX/report_table2_t1.json" "$PREFIX/report_table2.json"
FP8Q_NUM_THREADS=1 FP8Q_REPORT="$PREFIX/report_table2_t1.json" \
  "$PREFIX/bench/bench_table2_passrate" --quick > /dev/null
FP8Q_REPORT="$PREFIX/report_table2.json" \
  "$PREFIX/bench/bench_table2_passrate" --quick > /dev/null
"$PREFIX/tools/fp8q_report" diff "$PREFIX/report_table2_t1.json" \
  "$PREFIX/report_table2.json" --max-counter-drift-pct=0 --max-accuracy-drop=0 \
  --max-alloc-growth-pct=0
"$PREFIX/tools/fp8q_report" diff "$PREFIX/report_table2.json" \
  "$PREFIX/report_table2_t1.json" --max-counter-drift-pct=0 --max-accuracy-drop=0 \
  --max-alloc-growth-pct=0

# Tuner thread-count gate: the 14-trial history of a workload that never
# meets the criterion, so every stage runs, must equal the serial run's,
# records (matched by occurrence: the fallback trials repeat a config),
# counters and allocation totals. fp8q_cli tune exits 0 or 1 for criterion
# met or not; any other exit is a failure.
tune_report() {  # <report.json> [VAR=value ...]
  local out=$1 rc=0
  shift
  rm -f "$out"
  env "$@" FP8Q_REPORT="$out" "$PREFIX/tools/fp8q_cli" tune nlp/lm-extreme-3 E4M3 \
    > /dev/null || rc=$?
  [[ $rc -le 1 ]] || { echo "ci: fp8q_cli tune exited $rc" >&2; exit 1; }
}
tune_report "$PREFIX/report_tune_t1.json" FP8Q_NUM_THREADS=1
tune_report "$PREFIX/report_tune.json"
"$PREFIX/tools/fp8q_report" diff "$PREFIX/report_tune_t1.json" \
  "$PREFIX/report_tune.json" --max-counter-drift-pct=0 --max-accuracy-drop=0 \
  --max-alloc-growth-pct=0
"$PREFIX/tools/fp8q_report" diff "$PREFIX/report_tune.json" \
  "$PREFIX/report_tune_t1.json" --max-counter-drift-pct=0 --max-accuracy-drop=0 \
  --max-alloc-growth-pct=0

# Cross-tier gate: the same sweep pinned to the scalar reference tier, to
# the batched tier and, where the CPU runs it, to the native (AVX2) tier
# must equal the default-tier run, records, counters and allocation
# totals (the cast, GEMM and tanh kernels' contract, docs/KERNELS.md). On
# an AVX-512 host the default is the wide tier, so the native pin keeps
# the AVX2 bodies under the gate. Each pair is diffed both ways, as above.
# FP8Q_ISA maps an unknown value to the best tier, so each pinned report
# must name the pinned tier (its label is the tier, then the ISA after a
# colon: native:avx2): a misspelled pin would otherwise diff the default
# tier against itself and pass.
report_isa() { sed -n 's/^  "isa": "\([^"]*\)",$/\1/p' "$1"; }
tiers="scalar batched"
[[ $(report_isa "$PREFIX/report_table2.json") == batched ]] || tiers+=" native"
for tier in $tiers; do
  rm -f "$PREFIX/report_table2_$tier.json"
  FP8Q_ISA=$tier FP8Q_REPORT="$PREFIX/report_table2_$tier.json" \
    "$PREFIX/bench/bench_table2_passrate" --quick > /dev/null
  isa=$(report_isa "$PREFIX/report_table2_$tier.json")
  if [[ ${isa%%:*} != "$tier" ]]; then
    echo "ci: FP8Q_ISA=$tier ran at isa '$isa', not '$tier'" >&2
    exit 1
  fi
  "$PREFIX/tools/fp8q_report" diff "$PREFIX/report_table2.json" \
    "$PREFIX/report_table2_$tier.json" --max-counter-drift-pct=0 --max-accuracy-drop=0 \
    --max-alloc-growth-pct=0
  "$PREFIX/tools/fp8q_report" diff "$PREFIX/report_table2_$tier.json" \
    "$PREFIX/report_table2.json" --max-counter-drift-pct=0 --max-accuracy-drop=0 \
    --max-alloc-growth-pct=0
done

step "service smoke (fp8qd at 1 and 2 workers + fp8qd_bench through fp8q_report)"
# Boot the resident daemon twice -- one executor worker, then two -- and
# drive both with the load generator. --append folds the runs into one
# BENCH_service.json scaling curve; the throughput floor stays
# deliberately low (the point is "the daemon serves concurrent jobs at
# all", not a perf race on shared CI hardware, docs/SERVICE.md). The real
# concurrency gate is the report diff: the SAME canonical job, run under
# 1 worker and under 2, must produce bit-identical quantization-event
# counters (--max-counter-drift-pct=0) -- the scoped observation domains'
# isolation contract (docs/THREADING.md).
SERVICE_SOCK="$(mktemp -u /tmp/fp8qd_ci_XXXXXX.sock)"
service_bench() {
  local workers=$1
  shift
  rm -f "$SERVICE_SOCK"
  "$PREFIX/tools/fp8qd" --socket="$SERVICE_SOCK" --queue-max=16 --workers="$workers" &
  local daemon_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$SERVICE_SOCK" ]] && break
    sleep 0.1
  done
  [[ -S "$SERVICE_SOCK" ]] || { echo "ci: fp8qd never bound $SERVICE_SOCK" >&2; exit 1; }
  rm -f "$PREFIX/report_service_w$workers.json"
  "$PREFIX/tools/fp8qd_bench" --socket="$SERVICE_SOCK" --connections=2 --jobs=8 \
    --quick --shutdown --out="$PREFIX/BENCH_service.json" \
    --report-out="$PREFIX/report_service_w$workers.json" "$@"
  wait "$daemon_pid"
}
rm -f "$PREFIX/BENCH_service.json"
service_bench 1
service_bench 2 --append
"$PREFIX/tools/fp8q_report" check-bench "$PREFIX/BENCH_service.json" \
  --min-jobs-per-sec=0.4
"$PREFIX/tools/fp8q_report" diff "$PREFIX/report_service_w1.json" \
  "$PREFIX/report_service_w2.json" --max-counter-drift-pct=0

if [[ "${FP8Q_CI_SKIP_SANITIZERS:-0}" != "1" ]]; then
  step "AddressSanitizer build + full suite (check_asan)"
  cmake -B "$PREFIX-asan" -S "$ROOT" -DFP8Q_SANITIZE=address -DFP8Q_WERROR=ON
  cmake --build "$PREFIX-asan" -j "$JOBS"
  cmake --build "$PREFIX-asan" --target check_asan

  step "UndefinedBehaviorSanitizer build + full suite (check_ubsan)"
  cmake -B "$PREFIX-ubsan" -S "$ROOT" -DFP8Q_SANITIZE=undefined -DFP8Q_WERROR=ON
  cmake --build "$PREFIX-ubsan" -j "$JOBS"
  cmake --build "$PREFIX-ubsan" --target check_ubsan

  step "ThreadSanitizer build + concurrency suite (check_tsan)"
  cmake -B "$PREFIX-tsan" -S "$ROOT" -DFP8Q_SANITIZE=thread -DFP8Q_WERROR=ON
  cmake --build "$PREFIX-tsan" -j "$JOBS" --target check_tsan

  step "fuzz the network-facing parsers (check_fuzz, 30s bounded)"
  cmake -B "$PREFIX-fuzz" -S "$ROOT" -DFP8Q_SANITIZE=fuzzer -DFP8Q_WERROR=ON
  cmake --build "$PREFIX-fuzz" -j "$JOBS" --target check_fuzz
fi

echo
echo "=== ci: all gates passed ==="
