#!/usr/bin/env python3
"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are ``results.jsonl`` files written by ``perfbench/run.py``
(or directories holding one). Runs are grouped by workload, seed and
trace mode, since counts and the input mix depend on the seed; a group
that only one side has is listed and skipped. For every group and metric
it prints each side's median and quartiles over its runs and the change
of the medians. An end-to-end metric is flagged REGRESSION when NEW's median is
worse than OLD's by more than the metric's bound in ``BENCHMARK.json``,
and UNRESOLVED when either side's spread (quartile distance over median)
is wider than that bound, unless every NEW run beats every OLD run.
Per-layer metrics have no bound; a count that differs is flagged, since
counts repeat exactly for a seed. Results from different kernel backends
or machines are marked NOT COMPARABLE. Exits 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    p = Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    return [json.loads(line) for line in p.read_text(encoding="utf-8").splitlines() if line]


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(q1: float, q3: float, med: float) -> float:
    return (q3 - q1) / abs(med) if med else 0.0


def machine(records: list[dict]) -> set:
    return {(r["env"]["kernel_backend"], r["env"]["cpu"], r["env"]["nproc"]) for r in records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    groups: dict[tuple[str, int, int], dict[str, list[dict]]] = defaultdict(
        lambda: {"old": [], "new": []})
    for side in ("old", "new"):
        for rec in load(getattr(args, side)):
            groups[(rec["workload"], rec["seed"], rec["trace"])][side].append(rec)

    regressed = False
    for (workload, seed, trace), sides in sorted(groups.items()):
        old, new = sides["old"], sides["new"]
        kind = "per-layer" if trace else "end-to-end"
        print(f"\n== {workload} seed {seed} ({kind}): {len(old)} old runs, {len(new)} new runs")
        if not old or not new:
            print("   only one side has runs; nothing to compare")
            continue
        if len(machine(old) | machine(new)) > 1:
            print(f"   NOT COMPARABLE: backend/cpu/nproc differ: {sorted(machine(old) | machine(new))}")
        for side, recs in (("old", old), ("new", new)):
            att = sum(r["attempted"] for r in recs)
            fail = sum(r["failed"] for r in recs)
            print(f"   {side}: failed {fail}/{att} = {fail / att:.4f}, "
                  f"correct in {sum(r['correct'] for r in recs)}/{len(recs)} runs")
        print(f"   {'metric':<50} {'old median [q1, q3]':<36} {'new median [q1, q3]':<36} "
              f"{'change':>8}  flag")
        present = {n for r in old + new for n in r["metrics"]}
        untouched = 0
        for name in [n for n in kinds if n in present] + sorted(present - set(kinds)):
            a = [r["metrics"][name]["value"] for r in old if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
            if not a or not b:
                print(f"   {name:<50} present on one side only")
                continue
            if not any(a + b):  # a layer this workload never reaches
                untouched += 1
                continue
            (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            meta = kinds.get(name, {})
            sign = -1 if meta.get("better") == "higher" else 1
            flag = ""
            if "bound" in meta:
                bound = meta["bound"]
                wins = all(sign * y < sign * x for x in a for y in b)
                if max(spread(qa1, qa3, ma), spread(qb1, qb3, mb)) > bound and not wins:
                    flag = "UNRESOLVED"
                elif sign * change > bound:
                    flag, regressed = "REGRESSION", True
                elif wins:
                    flag = "better in every run"
            elif meta.get("unit") == "count" and ma != mb:
                flag = "COUNT CHANGED"
            unit = meta.get("unit", "")
            cells = [f"{m:.6g} [{q1:.4g}, {q3:.4g}] {unit}" for m, q1, q3 in
                     ((ma, qa1, qa3), (mb, qb1, qb3))]
            print(f"   {name:<50} {cells[0]:<36} {cells[1]:<36} {change:>+8.1%}  {flag}")
        if untouched:
            print(f"   ({untouched} per-layer metrics read 0 on both sides: layers not reached)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
