#!/usr/bin/env python3
"""Run every workload on each seed, one fresh process per run.

    python3 perfbench/suite.py                       # seeds 1 and 2, untraced
    python3 perfbench/suite.py --repeats 5           # five rounds, for compare.py
    python3 perfbench/suite.py --trace 1             # per-layer metrics and overhead

Each run prints its metrics by name with their units, its output-check
verdict and its environment (from ``run.py``). Seed 1 is the development
seed. Seed 2 is the hold-out: a speed claim must also hold on it. The
runs go round by round, each round every seed and every workload once,
so that a machine that drifts over minutes drifts on every workload
alike. Each run appends to ``<out>/results.jsonl``, which
``perfbench/compare.py`` reads. Exits 1 if any run fails or reports
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--repeats", type=int, default=1, help="rounds over seeds and workloads")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out")
    args = parser.parse_args(argv)

    ok = True
    for _ in range(args.repeats):
        for seed in args.seeds.split(","):
            for workload in WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", seed, "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out", args.out],
                    stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: run.py exited {proc.returncode}")
                    ok = False
                    continue
                ok &= json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
