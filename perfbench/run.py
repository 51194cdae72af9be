#!/usr/bin/env python3
"""Run one benchmark workload against the v2vsec checkout in the current directory.

    python3 perfbench/run.py --workload csi-replay --seed 1 --seconds 22 --trace 0

Untraced (``--trace 0``) it reports the end-to-end metrics; traced
(``--trace 1``) it reports the per-layer metrics and the tracing overhead,
and writes the spans under ``--out``. Either way the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable summary and the environment go to stderr,
and the full record is appended to ``<out>/results.jsonl`` for
``perfbench/compare.py``.

Timings are stated at the reference machine's speed: each pass's
latencies, and each fresh interpreter's set-up time, are divided by the
slowdown a fixed calibration kernel shows around them (``calibrate.py``).
The record in ``results.jsonl`` also keeps the uncalibrated values
(``raw_metrics``) and the run's median slowdown.

``correct`` is the run-level verdict: replays of the same inputs agree
and the aggregate checks hold. ``failed`` counts operations that raised
or failed their own output check, including those that hit known
defects of the program; such inputs are kept on purpose.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 9
TRACED_LOADS = 5


def _setup_s(code: str) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import v2vsec and load the inputs.

    Returns the calibrated median and the raw one.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times, scaled = [], []
    before = calibrate.slowdown()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import v2vsec\n{code}"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
        after = calibrate.slowdown()
        scaled.append(times[-1] / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(times)


def _measure(wl, tracer, seconds: float, reference, replay: bool):
    """Closed loop of whole passes for ``seconds``; pass 0's outputs must match ``reference``.

    A pass starts only if the previous one's length still fits before the
    deadline. With ``replay`` every pass reruns pass 0, so counts repeat
    exactly. Without it the timed passes are 1, 2, ..., none of them the
    warm-up's inputs, and pass 0 is rerun untimed after the loop. The
    calibration kernel runs before the first pass and after each one; a
    pass's ``slowdown`` is the mean of the two around it.
    """
    passes, identical, last_s = [], True, 0.0
    before = calibrate.slowdown()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + last_s <= deadline:
        index = 0 if replay else len(passes) + 1
        t0 = time.perf_counter()
        res = wl.run(wl.inputs(index), tracer)
        last_s = time.perf_counter() - t0
        after = calibrate.slowdown()
        res.slowdown = (before + after) / 2
        before = after
        if index == 0:
            identical &= res.outputs == reference
        res.outputs = None
        passes.append(res)
    if not replay:
        identical &= wl.run(wl.inputs(0), tracer).outputs == reference
    return passes, identical


def _end_to_end(passes, calibrated: bool = True) -> dict:
    """Median per-pass throughput, and latency percentiles pooled over the run."""
    lat_us = [np.asarray(p.latencies_ns) / 1e3 / (p.slowdown if calibrated else 1.0)
              for p in passes]
    ops_per_s = [p.ops / (lat.sum() / 1e6) for p, lat in zip(passes, lat_us)]
    lat_us = np.concatenate(lat_us)
    return {
        "ops_per_s": float(np.median(ops_per_s)),
        "op_p50_us": float(np.percentile(lat_us, 50)),
        "op_p90_us": float(np.percentile(lat_us, 90)),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import v2vsec

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernel_backend": v2vsec.KERNEL_BACKEND,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out", help="directory for results and spans")
    args = parser.parse_args(argv)

    if not (SRC / "v2vsec" / "__init__.py").is_file():
        print(f"run.py: no v2vsec sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import v2vsec

    if Path(v2vsec.__file__).resolve().parent != (SRC / "v2vsec").resolve():
        print(f"run.py: imported v2vsec from {v2vsec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, out)
    setup_s, raw_setup_s = (None, None) if args.trace else _setup_s(wl.setup_code)
    wl.load()
    tracer = tracing.Tracer()
    reference = wl.run(wl.inputs(0), tracer).outputs  # warm-up pass

    if args.trace:
        plain, same_plain = _measure(wl, tracer, args.seconds / 2, reference, replay=True)
        tracer.install()
        tracer.enabled = True
        try:
            for _ in range(TRACED_LOADS):
                wl.load()
            passes, identical = _measure(wl, tracer, args.seconds / 2, reference, replay=True)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        identical &= same_plain
        layers = tracing.layer_metrics(tracer.aggregate(), len(passes))
        overhead = (_end_to_end(plain)["ops_per_s"] / _end_to_end(passes)["ops_per_s"] - 1) * 100
        layers["trace.overhead_pct"] = (overhead, "%")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        raw = None
        wanted = {m["name"] for m in spec["per_layer"]}
        spans_dir = out / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        passes, identical = _measure(wl, tracer, args.seconds, reference, replay=False)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = _end_to_end(passes)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": v, "unit": units.get(name, "?")} for name, v in values.items()}
        wanted = set(units)
        raw = dict(_end_to_end(passes, calibrated=False), setup_s=raw_setup_s)
    if set(metrics) != wanted:
        print(f"run.py: metrics {sorted(set(metrics) ^ wanted)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": bool(identical and wl.verdict()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = environment()
    record = dict(result, raw_metrics=raw, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, slowdown=float(np.median([p.slowdown for p in passes])),
                  trace=args.trace, passes=len(passes),
                  samples=sum(len(p.latencies_ns) for p in passes), env=env,
                  time=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"))
    with open(out / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{record['samples']} timed operations, slowdown {record['slowdown']:.3f}, "
          f"correct={result['correct']}, "
          f"failed {failed}/{attempted} = {failed / attempted:.4f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print("  env: " + json.dumps(env), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
