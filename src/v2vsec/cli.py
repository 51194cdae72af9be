"""Command-line front end.

Subcommands: sweep, relay-compare, ergodic-compare, protocol-trace,
cs-demo. Exit codes: 0 success with all assertions passing, 1 for
usage or configuration errors, 2 for computation or assertion failures.

Each handler imports the layer it runs, so protocol-trace, which runs on
plain floats, never loads numpy, and no other subcommand loads the CSI
codec (``scenario``, and with it ``protocol``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._common import ComputationError
from .channel import FadingModel, db_to_linear
from .secrecy import RelayConfig

__all__ = ["main"]

_AXIS_CHOICES = {"speed": "speed", "power-db": "power_db", "tau": "tau", "alpha": "alpha"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _csv_floats(text: str) -> list[float]:
    try:
        if values := [float(p) for p in text.split(",") if p.strip() != ""]:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="v2vsec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="secrecy capacity along one parameter axis")
    p.add_argument("--axis", choices=sorted(_AXIS_CHOICES), default="speed")
    p.add_argument("--from", dest="start", type=float, help="axis start (default 5 for speed)")
    p.add_argument("--to", dest="stop", type=float, help="axis end (default 50 for speed)")
    p.add_argument("--step", type=float, help="axis step (default 0.5 for speed)")
    p.add_argument("--alpha", type=_csv_floats, default=[1.4], help="path-loss exponent(s)")
    p.add_argument("--tau-ms", type=_csv_floats, default=[200.0], help="cruise constant(s), ms")
    p.add_argument("--pn0-db", type=_csv_floats, default=[70.0], help="power-to-noise ratio(s), dB")
    p.add_argument("--r-m", type=float, default=1000.0, help="eavesdropper distance, m")
    p.add_argument("--v-mps", type=float, default=80.0 / 3.6, help="fixed speed for non-speed axes")
    p.add_argument("--theta", type=float, help="also emit a fixed-angle variant (speed axis only)")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("relay-compare", help="with-relay vs relay-off capacity table")
    p.add_argument("--axis", choices=["pa-db", "pr"], default="pa-db")
    p.add_argument("--from", dest="start", type=float, default=0.0)
    p.add_argument("--to", dest="stop", type=float, default=30.0)
    p.add_argument("--step", type=float, default=2.0)
    p.add_argument("--pa-db", type=float, default=20.0, help="host power, dB (when axis=pr)")
    p.add_argument("--pr", type=float, default=1.0, help="relay power, linear (when axis=pa-db)")
    p.add_argument("--h-ab", type=float, default=1.0)
    p.add_argument("--h-rb", type=float, default=0.05)
    p.add_argument("--h-ae", type=float, default=0.5)
    p.add_argument("--h-re", type=float, default=1.0)
    p.add_argument("--sigma-b2", type=float, default=1.0)
    p.add_argument("--sigma-e2", type=float, default=1.0)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("ergodic-compare", help="ergodic secrecy estimate vs AWGN capacity")
    p.add_argument("--from", dest="start", type=float, default=6.0, help="power start, dB")
    p.add_argument("--to", dest="stop", type=float, default=24.0, help="power end, dB")
    p.add_argument("--step", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, help="RNG seed (default ergodic.DEFAULT_SEED)")
    p.add_argument("--eaves", choices=["none", "rayleigh"], default="none")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("protocol-trace", help="replay a scenario file into a decision log")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("cs-demo", help="compressive-sensing cipher recovery statistics")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, help="RNG seed (default ergodic.DEFAULT_SEED)")
    p.add_argument("--out", help="output path (default stdout)")

    return parser


def _cmd_sweep(args) -> str:
    from .sweeps import SWEEP_HEADER, SweepSpec, check_sweep_orderings, rows_to_csv, run_sweep

    axis = _AXIS_CHOICES[args.axis]
    defaults = {"speed": (5.0, 50.0, 0.5)}
    if args.start is None or args.stop is None or args.step is None:
        if axis not in defaults:
            raise _UsageError(f"--from/--to/--step are required for axis {args.axis}")
        start, stop, step = defaults[axis]
        start = args.start if args.start is not None else start
        stop = args.stop if args.stop is not None else stop
        step = args.step if args.step is not None else step
    else:
        start, stop, step = args.start, args.stop, args.step
    swept_fixed = {"alpha": args.alpha, "tau": args.tau_ms, "power_db": args.pn0_db}
    for name, flag in (("alpha", "--alpha"), ("tau", "--tau-ms"), ("power_db", "--pn0-db")):
        if axis == name and len(swept_fixed[name]) > 1:
            raise _UsageError(f"{flag} takes one value when it is the swept axis")

    # the header once, then each curve's lines written from its own table, so
    # the columns constant within a curve are formatted once per curve
    parts = [SWEEP_HEADER + "\n"]
    for alpha in args.alpha:
        for tau_ms in args.tau_ms:
            for pn0_db in args.pn0_db:
                spec = SweepSpec(
                    axis=axis,
                    start=start,
                    stop=stop,
                    step=step,
                    r=args.r_m,
                    alpha=alpha,
                    tau=tau_ms / 1000.0,
                    pn0_db=pn0_db,
                    v_mps=args.v_mps,
                    theta=args.theta,
                )
                curve = run_sweep(spec)
                check_sweep_orderings(spec, curve)
                parts.append(rows_to_csv(curve)[len(SWEEP_HEADER) + 1:])
    return "".join(parts)


def _cmd_relay_compare(args) -> str:
    from .sweeps import run_relay_compare

    base = RelayConfig(
        p_a=args.sigma_b2 * db_to_linear(args.pa_db),
        p_r=args.pr,
        h_ab=args.h_ab,
        h_rb=args.h_rb,
        h_ae=args.h_ae,
        h_re=args.h_re,
        sigma_b2=args.sigma_b2,
        sigma_e2=args.sigma_e2,
        w=args.w,
    )
    axis = args.axis.replace("-", "_")
    lines = run_relay_compare(axis, args.start, args.stop, args.step, base)
    return "\n".join(lines) + "\n"


def _cmd_ergodic_compare(args) -> str:
    from .sweeps import axis_points, run_ergodic_compare

    eaves = FadingModel.rayleigh() if args.eaves == "rayleigh" else None
    lines = run_ergodic_compare(
        p_dbs=axis_points(args.start, args.stop, args.step),
        legit_fading=FadingModel.rayleigh(),
        eaves_fading=eaves,
        n_samples=args.samples,
        seed=args.seed,
    )
    return "\n".join(lines) + "\n"


def _cmd_protocol_trace(args) -> str:
    from .scenario import load_scenario, run_protocol_trace, trace_to_csv

    scenario = load_scenario(args.scenario)
    try:  # the file loaded, so a ValueError now is the replay's own failure (exit 2)
        return trace_to_csv(run_protocol_trace(scenario))
    except ValueError as exc:
        raise ComputationError(str(exc)) from exc


def _cmd_cs_demo(args) -> str:
    from .sweeps import run_cs_demo

    lines = run_cs_demo(n=args.n, m=args.m, k=args.k, trials=args.trials, seed=args.seed)
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "sweep": _cmd_sweep,
    "relay-compare": _cmd_relay_compare,
    "ergodic-compare": _cmd_ergodic_compare,
    "protocol-trace": _cmd_protocol_trace,
    "cs-demo": _cmd_cs_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = _HANDLERS[args.command](args)
    except (_UsageError, FileNotFoundError, ValueError) as exc:  # ScenarioError, SweepError too
        print(f"v2vsec: error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:  # SweepOrderingError, ErgodicConvergenceError, RecoveryError
        print(f"v2vsec: assertion failure: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:  # a missing directory, a directory, no permission
        print(f"v2vsec: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
