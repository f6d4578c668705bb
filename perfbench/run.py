#!/usr/bin/env python3
"""The fp8q benchmark: the Table 2 sweep and fp8qd serving.

    python3 perfbench/run.py --workload sweep|serve --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library and the
fp8qd daemon with the repository's own CMake project, then this
directory's driver binary, all under .bench_build/. README.md in this
directory explains the workloads and metrics.

Human-readable lines go first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer set.
Wrong outputs (a digest mismatch, a repeat that differs, any failed op)
print "correct": false and exit 1; a build failure exits 1 with no result.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build")  # relative: keeps the daemon's socket path short
LIB_BUILD = BUILD / "fp8q"
BENCH_BUILD = BUILD / "perfbench"
DRIVER = BENCH_BUILD / "fp8q_perfbench"
DAEMON = LIB_BUILD / "tools" / "fp8qd"
DIGESTS = HERE / "digests.json"

# serve: the job stream. A block of 32 jobs holds every eval spec three
# times and every quantize spec once; every fourth job is a quantize job.
SERVE_MODELS = ["bert-large-cola-ish", "bloom7b-ish"]
SERVE_FORMATS = ["E4M3", "E3M4", "E5M2", "INT8"]
SERVE_WORKERS = 2
SERVE_CONNECTIONS = 4
SERVE_BLOCK_SECONDS = 30.0  # nominal block time on 4 cores; sets the block count
SETUP_REPEATS = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("no fp8q sources next to the benchmark; nothing to build")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (LIB_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", ".", "-B", str(LIB_BUILD), *gen])
    steps.append(["cmake", "--build", str(LIB_BUILD), "--target", "fp8qd", "-j", jobs])
    if not (BENCH_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BENCH_BUILD), *gen,
                      f"-DFP8Q_BUILD_DIR={(ROOT / LIB_BUILD).resolve()}"])
    steps.append(["cmake", "--build", str(BENCH_BUILD), "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


# ---------------------------------------------------------------- correctness


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_groups(workload, seed, groups, stored):
    """Checks one run's output groups; returns (run digest, problems, group digests).

    Every repeat of a group inside the run must be identical. Where the
    stored digests hold the group (keyed by seed, or "*" for any seed), the
    digest must match them.
    """
    problems = []
    seen = {}
    for name, content in groups:
        d = digest(content)
        if seen.setdefault(name, d) != d:
            problems.append(f"{name}: a repeat returned different output")
    expected = stored.get(workload, {})
    expected = expected.get(str(seed), expected.get("*"))
    if expected is not None:
        checked = [n for n in seen if n in expected]
        if not checked:
            problems.append(f"no group of this run has a stored digest at seed {seed}")
        for name in checked:
            if expected[name] != seen[name]:
                problems.append(f"{name}: digest {seen[name][:12]} != stored {expected[name][:12]}")
    run_digest = digest("".join(f"{n}={d}\n" for n, d in sorted(seen.items())))
    return run_digest, problems, seen


def load_digests():
    if DIGESTS.exists():
        with open(DIGESTS) as f:
            return json.load(f)
    return {}


def record_digests(workload, seed, seen):
    stored = load_digests()
    key = "*" if workload == "serve" else str(seed)
    stored.setdefault(workload, {}).setdefault(key, {}).update(seen)
    with open(DIGESTS, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------- spans


class Spans:
    """Layer spans recorded around calls the benchmark makes (any thread)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.intervals = []

    def add(self, t0, t1):
        with self.lock:
            self.intervals.append((t0, t1))

    def covered(self):
        total, lo, hi = 0.0, None, None
        for a, b in sorted(self.intervals):
            if hi is None or a > hi:
                if hi is not None:
                    total += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        return total + (hi - lo if hi is not None else 0.0)


# ---------------------------------------------------------------- in-process workloads


def run_driver(workload, seed, seconds, trace):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         timeout=175, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- serve


def job_block(seed, index):
    """Block `index` of the seeded stream: a permutation of the fixed multiset."""
    rng = random.Random(f"fp8q-serve:{seed}:{index}")
    specs = [(m, f) for m in SERVE_MODELS for f in SERVE_FORMATS]
    evals = [("eval", m, f) for m, f in specs] * 3
    quants = [("quantize", m, f) for m, f in specs]
    rng.shuffle(evals)
    rng.shuffle(quants)
    return [quants.pop() if i % 4 == 3 else evals.pop() for i in range(32)]


class JobStream:
    """The first `blocks` whole blocks of the seeded stream."""

    def __init__(self, seed, blocks):
        self.seed, self.blocks = seed, blocks
        self.lock = threading.Lock()
        self.pending = []
        self.started = 0
        self.submitted = []

    def next(self):
        with self.lock:
            if not self.pending:
                if self.started >= self.blocks:
                    return None
                self.pending = job_block(self.seed, self.started)[::-1]
                self.started += 1
            job = self.pending.pop()
            self.submitted.append(job)
            return job


class Connection:
    """One client connection speaking fp8qd's framed JSON."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def call(self, request):
        payload = json.dumps(request).encode()
        self.sock.sendall(str(len(payload)).encode() + b"\n" + payload)
        header = self.reader.readline()
        if not header:
            raise RuntimeError("fp8qd closed the connection")
        body = self.reader.read(int(header))
        return json.loads(body)

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """An fp8qd process on a private socket; reaped with wait4 for its rusage."""

    def __init__(self, tag):
        self.path = str(BUILD / f"fp8qd-{os.getpid()}-{tag}.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.log = open(BUILD / f"fp8qd-{os.getpid()}.log", "ab")
        self.pid = os.posix_spawn(
            str(DAEMON),
            [str(DAEMON), f"--socket={self.path}", f"--workers={SERVE_WORKERS}", "--queue-max=64"],
            os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, self.log.fileno(), 1),
                          (os.POSIX_SPAWN_DUP2, self.log.fileno(), 2)])
        self.rusage = None

    def connect(self, timeout=30.0):
        end = time.monotonic() + timeout
        while True:
            try:
                return Connection(self.path)
            except OSError:
                if time.monotonic() > end or os.waitpid(self.pid, os.WNOHANG)[0] != 0:
                    raise RuntimeError("fp8qd did not start listening")
                time.sleep(0.002)

    def stop(self, conn):
        """Draining shutdown over the protocol, then reap."""
        conn.call({"cmd": "shutdown", "drain": True})
        self._reap()

    def kill(self):
        if self.rusage is None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self):
        _, _, self.rusage = os.wait4(self.pid, 0)
        self.log.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


def start_serving(tag):
    """Daemon start, bind, four connections and a smoke job per model: one set-up."""
    daemon = Daemon(tag)
    try:
        conns = [daemon.connect() for _ in range(SERVE_CONNECTIONS)]
        for conn, model in zip(conns, SERVE_MODELS):  # warm-up: each model, smoke-sized
            warm = conn.call({"cmd": "submit", "kind": "eval", "workload": model, "quick": True})
            reply = conn.call({"cmd": "result", "job_id": warm["job_id"], "wait": True})
            if reply.get("state") != "done":
                raise RuntimeError(f"fp8qd warm-up job failed: {reply}")
    except BaseException:
        daemon.kill()
        raise
    return daemon, conns


def stop_serving(daemon, conns):
    for c in conns[1:]:
        c.close()
    daemon.stop(conns[0])
    conns[0].close()


def job_content(report):
    """The parts of a job report under the bit-identity contract."""
    records = [[r["workload"], r["config"], r["fp32_accuracy"], r["quant_accuracy"],
                r["model_size_mb"]] for r in report.get("records", [])]
    return json.dumps({"records": records, "counters": report["counters"]}, sort_keys=True)


def closed_loop(conns, stream, spans):
    """Each connection submits its next job once the previous one answered."""
    results = []
    lock = threading.Lock()
    errors = []

    def client(conn):
        try:
            while (job := stream.next()) is not None:
                kind, model, fmt = job
                t0 = time.monotonic()
                sub = conn.call({"cmd": "submit", "kind": kind, "workload": model,
                                 "format": fmt, "dynamic": fmt == "INT8"})
                reply = conn.call({"cmd": "result", "job_id": sub["job_id"], "wait": True}) \
                    if sub.get("ok") else sub
                t1 = time.monotonic()
                spans.add(t0, t1)
                with lock:
                    results.append((job, t1 - t0, reply))
        except Exception as e:  # surfaced after join
            errors.append(e)

    threads = [threading.Thread(target=client, args=(c,)) for c in conns]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results, time.monotonic() - t0


def summarize_jobs(results, res):
    """Adds each job's outcome to the run's ops, failures and digest groups."""
    for (kind, model, fmt), latency, reply in results:
        res["ops"] += 1
        if reply.get("state") != "done":
            res["failed"] += 1
            log(f"serve: {kind} {model} {fmt} failed: {reply}")
            continue
        res["groups"].append([f"{kind} {model} {fmt}", job_content(reply["report"])])


def percentile_tail(values):
    """Highest percentile with at least 10 samples above it (else the
    maximum): (value, pct)."""
    v = sorted(values)
    idx = len(v) - 11 if len(v) > 10 else len(v) - 1
    return v[idx], 100.0 * (idx + 1) / len(v)


def run_serve(seed, seconds, trace):
    res = {"ops": 0, "failed": 0, "groups": [], "metrics": {}, "notes": {}}
    spans = Spans()
    t_start = time.monotonic()
    setup_times = []
    daemon = conns = None
    try:
        for rep in range(SETUP_REPEATS):
            t0 = time.monotonic()
            daemon, conns = start_serving(rep)
            setup_times.append(time.monotonic() - t0)
            spans.add(t0, time.monotonic())
            if rep + 1 < SETUP_REPEATS:
                stop_serving(daemon, conns)
        m = res["metrics"]
        m["setup_s"] = (statistics.median(setup_times), "s")

        if trace:
            # Matched pair for the tracing overhead: the same block untraced.
            first = JobStream(seed, 1)
            untraced, untraced_wall = closed_loop(conns, first, spans)
            stream = JobStream(seed, 1)
            results, wall = closed_loop(conns, stream, spans)
            summarize_jobs(untraced + results, res)
            t0 = time.monotonic()
            stats = conns[0].call({"cmd": "stats"})
            spans.add(t0, time.monotonic())
        else:
            stream = JobStream(seed, max(1, round(seconds / SERVE_BLOCK_SECONDS)))
            results, wall = closed_loop(conns, stream, spans)
            summarize_jobs(results, res)
        stop_serving(daemon, conns)
    finally:
        if daemon is not None:
            daemon.kill()
    ru = daemon.rusage
    daemon_cpu = ru.ru_utime + ru.ru_stime
    evals = [lat * 1e3 for (kind, _, _), lat, _ in results if kind == "eval"]
    quants = [lat * 1e3 for (kind, _, _), lat, _ in results if kind == "quantize"]
    tail, tail_pct = percentile_tail(evals)
    res["notes"].update({"latency_samples": len(evals), "latency_tail_pct": tail_pct,
                         "timed_wall_s": wall, "blocks": stream.started})
    res["notes"]["submitted"] = {" ".join(k): stream.submitted.count(k)
                                 for k in sorted(set(stream.submitted))}
    if not trace:
        m["ops_per_s"] = (len(results) / wall, "1/s")
        m["latency_p50_ms"] = (statistics.median(evals), "ms")
        m["latency_tail_ms"] = (tail, "ms")
        m["cpu_ms_per_op"] = (1e3 * daemon_cpu / len(results), "ms")
        m["peak_rss_mb"] = (ru.ru_maxrss / 1024.0, "MB")
        return res

    # Traced: the daemon's own view (stats), the client's, and the
    # in-process replay of the stream's specs for the layers below.
    replay = run_driver("serve-replay", seed, seconds, 1)
    spans.add(time.monotonic() - replay["wall_s"], time.monotonic())
    m.update({k: tuple(v) for k, v in replay["metrics"].items()})
    reports = [r["report"] for _, _, r in results if r.get("state") == "done"]
    lat = stats["latency_ms"]
    workers = stats["scheduler"]["per_worker"]
    overhead = [l * 1e3 - r["queue_wait_ms"] - r["wall_ms"]
                for _, l, r in results if r.get("state") == "done"]
    submitted = first.submitted + stream.submitted
    seen, repeats = set(), 0
    for _, model, _ in submitted:
        repeats += model in seen
        seen.add(model)
    m.update({
        "workloads.model_repeat_share": (repeats / len(submitted), "ratio"),
        "fp8.values_quantized": (sum(sum(f["quantized"] for f in r["counters"].values())
                                     for r in reports), "count"),
        "tensor.alloc_gib": (sum(r["memory"]["alloc_bytes"] for r in reports) / 2**30, "GiB"),
        "tensor.allocs": (sum(r["memory"]["allocs"] for r in reports), "count"),
        "core.cpu_util": (daemon_cpu / ((time.monotonic() - t_start) * (os.cpu_count() or 1)),
                          "ratio"),
        "core.sys_s": (ru.ru_stime, "s"),
        "service.queue_wait_p50_ms": (lat["queue_wait"]["p50"], "ms"),
        "service.job_wall_p50_ms": (lat["job_wall"]["p50"], "ms"),
        "service.worker_busy_frac": (statistics.mean(w["busy_fraction"] for w in workers),
                                     "ratio"),
        "service.rejected": (stats["jobs"]["rejected"], "count"),
        "service.overhead_ms": (statistics.median(overhead), "ms"),
        "service.quantize_latency_p50_ms": (statistics.median(quants), "ms"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
    })
    res["notes"]["covered_s"] = spans.covered()
    res["wall_s"] = time.monotonic() - t_start
    return res


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "serve"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's group digests in digests.json")
    args = ap.parse_args()
    os.chdir(ROOT)

    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1

    try:
        if args.workload == "serve":
            res = run_serve(args.seed, args.seconds, args.trace)
        else:
            res = run_driver(args.workload, args.seed, args.seconds, args.trace)
            res["metrics"] = {k: tuple(v) for k, v in res["metrics"].items()}
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"run.py: {args.workload} failed: {e!r}")
        res = {"ops": 1, "failed": 1, "groups": [], "metrics": {}, "notes": {"covered_s": 0.0},
               "wall_s": 1.0}

    metrics = res["metrics"]
    if args.trace:
        covered = res["notes"].pop("covered_s")
        metrics["trace.uncovered_share"] = (max(0.0, 1.0 - covered / res["wall_s"]), "ratio")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        metrics.setdefault(m["name"], (0.0, m["unit"]))  # a layer this workload does not use

    run_digest, problems, seen = check_groups(args.workload, args.seed, res["groups"],
                                              load_digests())
    if res["failed"]:
        problems.append(f"{res['failed']} of {res['ops']} ops failed")
    if args.record_digests and not problems:
        record_digests(args.workload, args.seed, seen)

    for m in wanted:
        value, unit = metrics[m["name"]]
        print(f"{m['name']:34s} {value:14.6g} {unit}")
    for key, value in sorted(res["notes"].items()):
        print(f"# {key}: {json.dumps(value)}")
    print(f"# failed_frac: {res['failed'] / max(1, res['ops']):.6g} "
          f"({res['failed']} of {res['ops']} ops)")
    print(f"# digest {args.workload} seed={args.seed}: {run_digest} ({len(seen)} groups)")
    for p in problems:
        print(f"# WRONG: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, res["ops"]),
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
