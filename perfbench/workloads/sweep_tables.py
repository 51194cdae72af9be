"""sweep-tables: figure-style sweep tables computed, written as CSV and read back.

A speed sweep over 5-50 m/s in steps of 0.02 for alpha in {1.4, 2, 4} and
tau in {100, 200, 400} ms at 70 dB with the theta variant (9 curves, 40,518
rows), plus a relay on/off table over pa-db 0-30 in steps of 0.01 (3,001
rows). The scalar secrecy formulas and the CSV write and read paths carry
the work; kernels and protocol do none. Each curve is one timed operation
(``run_sweep``, ``check_sweep_orderings``, ``rows_to_csv``, ``read_sweep_csv``),
so a formatting gain that costs parsing shows. The seed picks the fixed
angle, the relay gains and the spot-checked rows.
"""

from __future__ import annotations

import math
import time

import numpy as np

from v2vsec import sweeps
from v2vsec.channel import db_to_linear
from v2vsec.secrecy import RelayConfig

from .base import BaseWorkload, PassResult, close, closed_form_secrecy

NAME = "sweep-tables"
ALPHAS = (1.4, 2.0, 4.0)
TAUS = (0.1, 0.2, 0.4)
PN0_DB, R_M = 70.0, 1000.0
SPEED = (5.0, 50.0, 0.02)
RELAY_PA_DB = (0.0, 30.0, 0.01)
SPOT_ROWS = 8  # per curve, checked against the closed form


class Workload(BaseWorkload):
    def inputs(self, index: int) -> dict:
        rng = np.random.default_rng([self.seed, index])
        theta = float(rng.uniform(0.002, 0.02))
        specs = [
            sweeps.SweepSpec(axis="speed", start=SPEED[0], stop=SPEED[1], step=SPEED[2],
                             r=R_M, alpha=alpha, tau=tau, pn0_db=PN0_DB, theta=theta)
            for alpha in ALPHAS for tau in TAUS
        ]
        relay = RelayConfig(
            p_a=1.0, p_r=float(rng.uniform(0.5, 2.0)),
            h_ab=float(10 ** rng.uniform(-0.5, 0.0)), h_rb=float(10 ** rng.uniform(-2.0, -1.0)),
            h_ae=float(10 ** rng.uniform(-1.0, -0.3)), h_re=float(10 ** rng.uniform(-0.5, 0.0)),
            sigma_b2=1.0, sigma_e2=1.0,
        )
        n_points = len(sweeps.axis_points(*SPEED))
        spots = rng.integers(0, 2 * n_points, size=(len(specs), SPOT_ROWS))
        return {"specs": specs, "relay": relay, "spots": spots}

    def run(self, inputs, tracer) -> PassResult:
        latencies, texts, ops, failed = [], [], 0, 0
        for spec, spots in zip(inputs["specs"], inputs["spots"]):
            tracer.unit += 1
            t0 = time.perf_counter_ns()
            rows = sweeps.run_sweep(spec)
            sweeps.check_sweep_orderings(spec, rows)
            text = sweeps.rows_to_csv(rows)
            back = sweeps.read_sweep_csv(text)
            latencies.append(time.perf_counter_ns() - t0)
            ops += len(rows)
            texts.append(text)
            with tracer.paused():
                failed += 0 if _curve_ok(spec, rows, text, back, spots) else len(rows)

        tracer.unit += 1
        t0 = time.perf_counter_ns()
        lines = sweeps.run_relay_compare("pa_db", *RELAY_PA_DB, inputs["relay"])
        text = "\n".join(lines) + "\n"
        latencies.append(time.perf_counter_ns() - t0)
        ops += len(lines) - 1
        texts.append(text)
        with tracer.paused():
            failed += 0 if _relay_ok(inputs["relay"], lines) else len(lines) - 1
        return PassResult(latencies, ops, failed, texts)


def _curve_ok(spec, rows, text, back, spots) -> bool:
    n = len(sweeps.axis_points(spec.start, spec.stop, spec.step))
    if len(rows) != 2 * n or len(back) != len(rows) or sweeps.rows_to_csv(back) != text:
        return False
    p = db_to_linear(spec.pn0_db)
    for i in spots:
        row = rows[i]
        d = row.v_mps * row.tau_s if row.variant == "vtau" else spec.r * spec.theta
        expect = closed_form_secrecy(p, 1.0, d, spec.r, spec.alpha)
        if not (close(row.cs_raw, expect, 1e-9) and row.cs_clamped == max(0.0, row.cs_raw)):
            return False
    return True


def _relay_ok(base: RelayConfig, lines: list[str]) -> bool:
    """Row count plus every tenth row against the relay formula (6 significant digits)."""
    points = sweeps.axis_points(*RELAY_PA_DB)
    if lines[0] != sweeps.RELAY_COMPARE_HEADER or len(lines) != len(points) + 1:
        return False
    for value, line in list(zip(points, lines[1:]))[::10]:
        cells = line.split(",")
        p_a = base.sigma_b2 * 10 ** (value / 10)
        on = math.log2(1 + p_a * base.h_ab / (base.p_r * base.h_rb + base.sigma_b2)) - math.log2(
            1 + p_a * base.h_ae / (base.p_r * base.h_re + base.sigma_e2))
        off = math.log2(1 + p_a * base.h_ab / base.sigma_b2) - math.log2(
            1 + p_a * base.h_ae / base.sigma_e2)
        if not (close(float(cells[11]), on, 1e-5) and close(float(cells[13]), off, 1e-5)):
            return False
    return True
