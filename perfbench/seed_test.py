"""Seed test: another --seed changes the data or the order, never the work.

    python3 perfbench/seed_test.py [--seeds A B]

Runs the traced sweep and serve workloads at two seeds and checks:
  sweep  models.builds and fp8.values_quantized are identical;
  serve  the same multiset of job specs was submitted per block.
tune.trials (the traced sweep's autotune ladder) is printed for both seeds
but not compared: the per-node rung stops at the first harmless node, which
depends on the data. Exits 1 on any difference. Takes about seven minutes
on 4 cores.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def traced(workload, seed):
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", "10", "--trace", "1"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    notes = {}
    for line in out:
        if line.startswith("# ") and ": " in line and not line.startswith("# digest"):
            key, value = line[2:].split(": ", 1)
            try:
                notes[key] = json.loads(value)
            except ValueError:
                notes[key] = value
    metrics = {k: v["value"] for k, v in json.loads(out[-1])["metrics"].items()}
    return metrics, notes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs=2, default=[1, 2])
    seeds = ap.parse_args().seeds
    problems = []

    sweep = [traced("sweep", s)[0] for s in seeds]
    for name in ("models.builds", "fp8.values_quantized"):
        values = [m[name] for m in sweep]
        print(f"sweep {name}: {values}")
        if values[0] != values[1]:
            problems.append(f"sweep {name} differs across seeds: {values}")
    print(f"sweep tune.trials: {[m['tune.trials'] for m in sweep]}")

    serve = [traced("serve", s)[1] for s in seeds]
    per_block = [{k: n / notes["blocks"] for k, n in notes["submitted"].items()} for notes in serve]
    print(f"serve specs per block: {len(per_block[0])} and {len(per_block[1])}")
    if per_block[0] != per_block[1]:
        problems.append("serve submitted different job-spec multisets")

    for p in problems:
        print(f"FAIL: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
