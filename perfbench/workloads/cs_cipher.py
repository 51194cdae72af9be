"""cs-cipher: compressive-sensing cipher trials through ``run_cs_demo``.

Trials at the README shape n = 256, m = 64, k = 8 (128 KB key matrix) and
at n = 1024, m = 256, k = 32 (2 MB key matrix), three small trials per large
one, shuffled. Only ``csenc`` works here: ``keygen`` (three calls per trial)
is about half of the time at both shapes, and the OMP least-squares step
grows with k, so a key-matrix cache and a batch-OMP change show at
different shapes. Every trial gets its own key seeds.

A trial fails if the wrong key recovers the signal or the independent
recomputation disputes the demo's report. An occasional OMP miss with the
correct key is within criterion 8, so it counts toward the whole-run
recovery share in ``verdict`` instead.
"""

from __future__ import annotations

import math
import time

import numpy as np

from v2vsec import csenc, sweeps

from .base import BaseWorkload, PassResult

NAME = "cs-cipher"
# (n, m, k, trials per pass)
SHAPES = ((256, 64, 8, 30), (1024, 256, 32, 10))
MIN_RECOVERY = 0.99
REL_TOL = 1e-6


class Workload(BaseWorkload):
    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        self.trials = self.recovered = self.wrong_recovered = self.disagreed = 0

    def inputs(self, index: int) -> list[tuple[int, int, int, int]]:
        shapes = [(n, m, k) for n, m, k, count in SHAPES for _ in range(count)]
        ss = np.random.SeedSequence([self.seed, index])
        seeds = ss.generate_state(len(shapes), np.uint64)
        order = np.random.default_rng(ss).permutation(len(shapes))
        return [(*shapes[i], int(seeds[i])) for i in order]

    def run(self, inputs, tracer) -> PassResult:
        latencies, outputs, failed = [], [], 0
        for n, m, k, seed in inputs:
            tracer.unit += 1
            t0 = time.perf_counter_ns()
            lines = sweeps.run_cs_demo(n, m, k, trials=1, seed=seed)
            latencies.append(time.perf_counter_ns() - t0)
            outputs.append(lines)
            with tracer.paused():
                recovered, wrong, ok = _trial_check(n, m, k, seed, lines)
            self.trials += 1
            self.recovered += recovered
            self.wrong_recovered += wrong
            self.disagreed += not ok
            failed += wrong or not ok
        return PassResult(latencies, len(inputs), failed, outputs)

    def verdict(self) -> bool:
        """Criterion 8 over every trial of the run, and no trial the recomputation disputes."""
        return (self.recovered >= MIN_RECOVERY * self.trials and self.wrong_recovered == 0
                and self.disagreed == 0)


def _trial_check(n, m, k, seed, lines) -> tuple[bool, bool, bool]:
    """Success of each key arm, and whether an independent recomputation agrees.

    ``run_cs_demo`` reports per arm a success count and the relative error
    (rows: header, correct_key, wrong_key). The trial is rebuilt here: the
    signal from the demo's generator, and each key matrix from its seed as
    ``keygen`` documents it, without calling ``csenc``. Least squares on the true
    support must recover the signal under the correct key and not under the
    wrong one, and each reported success must mean a reported error < 1e-6.
    """
    arms = [row.split(",") for row in lines[1:]]
    recovered, wrong = (row[5] == "1" for row in arms)
    ok = all((row[5] == "1") == (float(row[7]) < REL_TOL) for row in arms)
    x = csenc.random_sparse_signal(n, k, np.random.default_rng(seed)).values
    support = np.flatnonzero(x)
    y = _key_matrix(seed, n, m) @ x
    for key_seed, should_recover in ((seed, True), ((seed + 1) % 2**64, False)):
        coef = np.linalg.lstsq(_key_matrix(key_seed, n, m)[:, support], y, rcond=None)[0]
        rel = np.linalg.norm(coef - x[support]) / np.linalg.norm(x)
        ok &= bool(rel < REL_TOL) == should_recover
    return recovered, wrong, ok


def _key_matrix(seed: int, n: int, m: int) -> np.ndarray:
    """The m x n measurement matrix: i.i.d. N(0, 1/m) entries drawn from the key seed."""
    return np.random.default_rng(seed).standard_normal((m, n)) / math.sqrt(m)
