"""Parameter sweeps and deterministic CSV emission.

Reproduces the figure-style datasets at desk scale: capacity vs speed,
power ratio, cruise constant or path-loss exponent, the relay on/off
comparison, the ergodic-vs-AWGN comparison, and the cipher demo. Output
is plain CSV with LF line endings; re-runs with the same inputs are
byte-identical.

The sweep and relay-compare tables are evaluated on plain Python floats
by the evaluators in :mod:`v2vsec.secrecy` that sit next to the private
formula helpers the public functions return through: each computes a
term once while its inputs stay fixed along the curve or table, and each
value in the helper's own operation order, so every cell equals the
public function's value bit for bit. A sweep curve goes through
``_velocity_curve``, which hands every point of a curve it cannot
evaluate to ``_velocity_raw``; that owns the velocity rule and raises the
first failing field's error. A relay-compare table goes through
``_relay_rows`` and ``_fading_rows``: a ``pa_db`` point goes through
``db_to_linear``, the swept power passes one positive-and-finite guard,
and ``RelayConfig`` owns the error of a power the guard refuses. Either
error names the field and is reported, for the first point refused, as
``axis point <axis>=<value>: ...``.

A sweep table is a :class:`SweepTable`: its 11 columns in SWEEP_HEADER's
order, with a row built only when a caller reads one. It equals the list
of its rows, and each row is a :class:`SweepRow` named tuple. The writer
and the ordering check read a table's columns directly.

Both tables are written column by column, through one formatter with
fmt_num's rule: a constant column is one formatted cell, repeated; a
column equal to an earlier one reuses that column's cells; any other
column gets ``%.6g`` per cell. A sweep table goes through that rule block
by block, a block being a maximal run of rows with one variant, and a
block column equal to one of the previous block's reuses that block's
cells too, so a theta block maps only its own capacity. A table with more
than one run per 64 rows is mapped as one block. The reader works by
block too: it checks the structure of the whole table at once, slices
each block's cells out of the split text and parses each distinct column
once. Only when that check fails does it walk the table line by line, to
raise the first bad line's error.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import add
from typing import NamedTuple

import numpy as np

from .channel import PowerBudget, awgn_capacity, db_to_linear
from . import csenc
from ._common import ComputationError, fmt_num, integer, real, validated
# encrypt stays importable from here: perfbench's tracer wraps it by this name
from .csenc import CsKey, decrypt, encrypt, random_sparse_signal  # noqa: F401
from .ergodic import DEFAULT_SEED, ErgodicSpec, draw_channel_states, estimate_on_states
from .secrecy import (
    LinkGeometry,
    RelayConfig,
    _fading_rows,
    _relay_rows,
    _velocity_curve,
    geometric_secrecy,
    relay_secrecy,  # noqa: F401  no longer called here; perfbench's tracer wraps it by this name
    velocity_secrecy,  # noqa: F401  not called here; perfbench's tracer wraps it by this name
)

__all__ = [
    "SWEEP_HEADER",
    "RELAY_COMPARE_HEADER",
    "ERGODIC_COMPARE_HEADER",
    "CS_DEMO_HEADER",
    "SweepSpec",
    "SweepRow",
    "SweepTable",
    "SweepError",
    "SweepOrderingError",
    "SweepFormatError",
    "fmt_num",
    "axis_points",
    "run_sweep",
    "check_sweep_orderings",
    "rows_to_csv",
    "read_sweep_csv",
    "run_relay_compare",
    "run_ergodic_compare",
    "run_cs_demo",
]

SWEEP_HEADER = "axis,axis_value,v_mps,v_kmh,alpha,tau_s,r_m,pn0_db,cs_raw,cs_clamped,variant"
RELAY_COMPARE_HEADER = (
    "axis,axis_value,p_a,p_r,h_ab,h_rb,h_ae,h_re,sigma_b2,sigma_e2,w,"
    "cs_on_raw,cs_on_clamped,cs_off_raw,cs_off_clamped"
)
ERGODIC_COMPARE_HEADER = (
    "p_db,p_linear,awgn_capacity,ergodic_capacity,ci_halfwidth,"
    "achieved_avg_power,n_samples,seed"
)
CS_DEMO_HEADER = "arm,n,m,k,trials,successes,success_rate,mean_rel_error"

AXES = ("speed", "power_db", "tau", "alpha")
VARIANT_VTAU = "vtau"
VARIANT_THETA = "theta"
VARIANTS = (VARIANT_VTAU, VARIANT_THETA)

DEFAULT_SPEED_MPS = 80.0 / 3.6  # the most-swept operating point, 80 km/h


class SweepError(ValueError):
    """Invalid sweep specification, including a bad point on the axis."""


class SweepOrderingError(ComputationError):
    """A computed table violated its expected monotone ordering."""


class SweepFormatError(ValueError):
    """CSV text does not conform to the sweep table contract."""


def _grid(start: float, stop: float, step: float) -> tuple[float, float, float, int]:
    """start, stop and step as floats, and the number of points of their grid.

    The grid runs over [start, stop] in steps of step, both ends included.
    The one range rule for every axis: real numbers (else ``ValueError``),
    a positive finite step, a finite non-empty range and a finite point
    count, else :class:`SweepError`.
    """
    start, stop, step = (real(name, value, None)
                         for name, value in (("start", start), ("stop", stop), ("step", step)))
    if not (math.isfinite(step) and step > 0):
        raise SweepError(f"step must be > 0, got {step!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SweepError(f"range [{start!r}, {stop!r}] must be finite")
    if stop < start:
        raise SweepError(f"empty range [{start!r}, {stop!r}]")
    spans = (stop - start) / step
    if not math.isfinite(spans):
        raise SweepError(
            f"range [{start!r}, {stop!r}] with step {step!r} has no finite point count"
        )
    return start, stop, step, int(math.floor(spans + 1e-9)) + 1


@validated
class SweepSpec(NamedTuple):
    """One curve: a swept axis over [start, stop] plus fixed parameters."""

    axis: str
    start: float
    stop: float
    step: float
    r: float = 1000.0
    alpha: float = 1.4
    tau: float = 0.2
    pn0_db: float = 70.0
    v_mps: float = DEFAULT_SPEED_MPS
    theta: float | None = None

    def _check(self) -> tuple:
        axis, theta = self.axis, self.theta
        if axis not in AXES:
            raise SweepError(f"axis must be one of {AXES}, got {axis!r}")
        start, stop, step, _ = _grid(*self[1:4])
        # the curve evaluator owns their ranges
        fixed = [real(name, value, None) for name, value in zip(self._fields[4:9], self[4:9])]
        if theta is not None:
            theta = real("theta", theta, None)
            if axis != "speed":
                raise SweepError("theta variant applies to the speed axis only")
        return axis, start, stop, step, *fixed, theta


def _map_columns(each, columns: Sequence[Sequence],
                 seed: Iterable[tuple[Sequence, list]] = ()) -> list[list]:
    """``[each(column) for column in columns]``, working out each distinct column once.

    A constant column maps its first cell and repeats the result, and a
    column equal to an earlier one, or to a column of ``seed``'s
    ``(column, result)`` pairs, reuses that result, so ``each`` must map
    cell by cell and map equal cells alike.
    """
    done = list(seed)
    out = []
    for column in columns:
        for earlier, result in done:
            if column == earlier:
                break
        else:
            n = len(column)
            result = each(column[:1]) * n if column.count(column[0]) == n else each(column)
            done.append((column, result))
        out.append(result)
    return out


def _blocks(variants: Sequence[str]) -> list[tuple[int, int]]:
    """``(start, stop)`` of each maximal run of one variant, found with ``index``.

    A table with more than one run per 64 rows is one block, since there
    the work per block outweighs the cells it saves. Blocks only share
    work, so any split gives the same cells: a variant outside VARIANTS
    just joins the theta rows' runs.
    """
    n = len(variants)
    starts = [0]
    while starts[-1] < n:
        if len(starts) * 64 > n:
            return [(0, n)]
        start = starts[-1]
        other = VARIANT_THETA if variants[start] == VARIANT_VTAU else VARIANT_VTAU
        try:
            starts.append(variants.index(other, start))
        except ValueError:
            starts.append(n)
    return list(zip(starts, starts[1:]))


def _map_blocks(each, variants: Sequence[str], block_columns) -> Iterator[tuple[int, int, list]]:
    """``(start, stop, cells)`` per block: its nine numeric columns mapped by ``each``.

    ``block_columns(start, stop)`` gives a block's columns, and each block
    goes through :func:`_map_columns` seeded with the previous block's
    columns and cells, so a block that repeats them maps only the rest.
    """
    seed: tuple = ()
    for start, stop in _blocks(variants):
        columns = block_columns(start, stop)
        cells = _map_columns(each, columns, seed)
        seed = tuple(zip(columns, cells))
        yield start, stop, cells


def _format_cells(column: Sequence[float]) -> list[str]:
    """fmt_num per cell: ``%.6g``, after + 0.0 in a column that holds a zero.

    The + 0.0 turns a negative zero into 0, as fmt_num does.
    """
    if 0.0 in column:
        column = map(add, repeat(0.0), column)
    return list(map("%.6g".__mod__, column))


def _parse_cells(column: Sequence[str]) -> list[float]:
    return list(map(float, column))


def _cut(columns: Sequence[Sequence], start: int, stop: int) -> Sequence[Sequence]:
    """The columns' rows ``start:stop``: the columns themselves when those are all rows."""
    return columns if stop - start == len(columns[0]) else [c[start:stop] for c in columns]


def _csv_lines(columns: Sequence[Sequence]) -> list[str]:
    """Sweep-table lines from the 11 columns, without the header, block by block."""
    if not columns or not columns[0]:
        return []
    lines: list[str] = []
    for start, stop, cells in _map_blocks(_format_cells, columns[10],
                                          lambda i, j: _cut(columns[1:10], i, j)):
        axes, variants = _cut((columns[0], columns[10]), start, stop)
        lines += map(",".join, zip(axes, *cells, variants))
    return lines


class SweepRow(NamedTuple):
    """One sweep-table row, its fields in SWEEP_HEADER's order."""

    axis: str
    axis_value: float
    v_mps: float
    v_kmh: float
    alpha: float
    tau_s: float
    r_m: float
    pn0_db: float
    cs_raw: float
    cs_clamped: float
    variant: str

    def to_csv(self) -> str:
        return _csv_lines(_columns((self,)))[0]


class SweepTable(Sequence):
    """An immutable sequence of :class:`SweepRow`, stored as its 11 columns.

    ``columns`` holds one list per field, in SWEEP_HEADER's order; a
    constant column is a ``[x] * n`` list. A row is built only when it is
    read: an index (negative ones included) builds one ``SweepRow``, a
    slice gives a table, and iteration builds the rows one at a time. A
    table equals another table with equal columns, and equals whatever
    ``list(table)`` equals, such as a list of its rows or of plain tuples.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Iterable[list]) -> None:
        """Take the 11 column lists as they are, without a copy; they must not change later."""
        columns = tuple(columns)
        if not (len(columns) == 11 and all(type(c) is list for c in columns)
                and len(set(map(len, columns))) == 1):
            raise ValueError("a sweep table needs 11 column lists of one length")
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable([column[index] for column in self.columns])
        return tuple.__new__(SweepRow, [column[index] for column in self.columns])

    def __iter__(self):
        return map(tuple.__new__, repeat(SweepRow), zip(*self.columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, SweepTable):
            return self.columns == other.columns
        return list(self) == other

    def __repr__(self) -> str:
        return f"SweepTable({list(self)!r})"


def _columns(rows: Iterable[SweepRow]) -> Sequence[Sequence]:
    """A table's own 11 columns, or those of any other rows (``[]`` for no rows)."""
    if isinstance(rows, SweepTable):
        return rows.columns
    return list(zip(*rows))


def axis_points(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid start, start+step, ... capped at stop.

    Raises :class:`SweepError` for a range that ``_grid`` refuses.
    """
    start, _, step, n = _grid(start, stop, step)
    return [start + i * step for i in range(n)]


def _until_refused(each, values: Iterable) -> tuple[list, ValueError | None]:
    """``each`` of the values up to the first one it refuses, and that ``ValueError``."""
    out: list = []
    try:
        for value in values:
            out.append(each(value))
    except ValueError as exc:
        return out, exc
    return out, None


def _clamped(raws: list[float]) -> list[float]:
    """``max(0.0, raw)`` per raw, the clamp of ``SecrecyResult``: a nan clamps to 0.0 too."""
    return [raw if raw > 0.0 else 0.0 for raw in raws]


def _vtau_columns(spec: SweepSpec, points: list[float]) -> list[list]:
    """The d = v*tau block's 11 columns, on plain floats through secrecy's own formula.

    The capacities are secrecy's curve evaluator at p = ``db_to_linear(pn0_db)``,
    each ``_velocity_raw``'s value bit for bit. A fixed ``pn0_db`` is converted
    once per curve, and its error is reported with the first point. The
    error of a point either refuses is reported with the axis point; points
    before it are evaluated first, so the first refused point is named.
    """
    axis, r, n = spec.axis, spec.r, len(points)
    inputs = {"speed": spec.v_mps, "tau": spec.tau, "alpha": spec.alpha, "power_db": spec.pn0_db}
    inputs[axis] = points  # the swept input takes the points, the rest one value each
    v, tau, alpha, pn0_db = inputs.values()
    if axis == "power_db":
        p, refused = _until_refused(db_to_linear, points)
    else:
        try:
            p, refused = db_to_linear(real("pn0_db", pn0_db)), None
        except ValueError as exc:
            raise SweepError(f"axis point {axis}={fmt_num(points[0])}: {exc}") from None
    raws: list[float] = []
    try:
        _velocity_curve(p, 1.0, v, tau, r, alpha, raws)
    except ValueError as exc:
        refused = exc
    if refused is not None:
        raise SweepError(f"axis point {axis}={fmt_num(points[len(raws)])}: {refused}") from None
    # v * 3.6 is ms_to_kmh on a speed _velocity_raw has accepted
    v_kmh = [v * 3.6 for v in v] if axis == "speed" else v * 3.6
    return [[axis] * n, points, *(x if type(x) is list else [x] * n
                                  for x in (v, v_kmh, alpha, tau, r, pn0_db)),
            raws, _clamped(raws), [VARIANT_VTAU] * n]


def run_sweep(spec: SweepSpec) -> SweepTable:
    """The table of one curve, in ascending axis order.

    For the speed axis with ``theta`` set, a second block of rows follows
    in which the separation is fixed by the angle instead of d = v*tau;
    the ``variant`` column tells the blocks apart. That capacity does not
    depend on speed, so it is evaluated once per curve.
    """
    points = axis_points(spec.start, spec.stop, spec.step)
    columns = _vtau_columns(spec, points)
    if spec.theta is not None:
        try:
            geometry = LinkGeometry(r=spec.r, theta=spec.theta)
            theta = geometric_secrecy(db_to_linear(spec.pn0_db), 1.0, geometry, spec.alpha)
        except ValueError as exc:
            raise SweepError(f"axis point speed={fmt_num(points[0])}: {exc}") from None
        # theta applies to the speed axis only, so the block repeats the vtau
        # block's first eight columns: axis, the speeds and the fixed parameters
        n = len(points)
        columns = [*(c + c for c in columns[:8]), columns[8] + [theta.raw] * n,
                   columns[9] + [theta.clamped] * n, columns[10] + [VARIANT_THETA] * n]
    return SweepTable(columns)


def check_sweep_orderings(spec: SweepSpec, rows: Iterable[SweepRow]) -> None:
    """Assert the monotone orderings that hold while v*tau < r.

    Raw capacity must fall strictly with speed and with tau, and rise
    strictly with power. The path-loss exponent has no asserted direction,
    and the fixed-angle variant rows are constant by construction.
    """
    direction = {"speed": -1, "tau": -1, "power_db": +1, "alpha": 0}[spec.axis]
    if direction == 0:
        return
    columns = _columns(rows)
    if not columns:
        return
    _, values, vs, _, _, taus, rs, _, raws, _, variants = columns
    prev_raw = None  # raw capacity of the previous vtau row, if it lies inside r
    for value, v, tau, r, raw, variant in zip(values, vs, taus, rs, raws, variants):
        if variant != VARIANT_VTAU:
            continue
        if v * tau >= r:
            prev_raw = None
            continue
        if prev_raw is not None and direction * (raw - prev_raw) <= 0:
            raise SweepOrderingError(
                f"{spec.axis} ordering violated between "
                f"{fmt_num(prev_value)} and {fmt_num(value)}: "
                f"raw {prev_raw!r} -> {raw!r}"
            )
        prev_value, prev_raw = value, raw


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    return "\n".join([SWEEP_HEADER, *_csv_lines(_columns(rows)), ""])


# A line break in a valid table sits between one line's variant and the
# next line's axis; these map each such "<variant>\n<axis>" cell to its halves.
_VARIANT_BEFORE = {f"{v}\n{a}": v for v in VARIANTS for a in AXES}
_AXIS_AFTER = {f"{v}\n{a}": a for v in VARIANTS for a in AXES}


def _first_bad_line(text: str) -> SweepFormatError | None:
    """The error of the first body line that breaks the table contract.

    The reader's one per-line walk, and the one place its line messages
    live. :func:`read_sweep_csv` calls it only after its whole-table check
    failed, so some line is bad.
    """
    for i, line in enumerate(text.split("\n")[1:-1], start=2):
        parts = line.split(",")
        if len(parts) != 11:
            return SweepFormatError(f"line {i}: expected 11 fields, got {len(parts)}")
        if parts[0] not in AXES:
            return SweepFormatError(f"line {i}: unknown axis {parts[0]!r}")
        if parts[10] not in VARIANTS:
            return SweepFormatError(f"line {i}: unknown variant {parts[10]!r}")
        try:
            _parse_cells(parts[1:10])
        except ValueError as exc:
            return SweepFormatError(f"line {i}: {exc}")
    return None


def read_sweep_csv(text: str) -> SweepTable:
    """Parse a sweep table, checking its structure.

    The text must start with exactly ``SWEEP_HEADER``, end in one LF, and
    hold 11 comma-separated fields per line, with a known axis in the first
    and a known variant in the last. Each of the nine numeric cells may be
    any spelling ``float()`` accepts, such as ``1e3``, ``+3``, ``1_0``,
    ``nan``, ``inf`` or a number with surrounding spaces. Re-encoding the
    rows gives back the identical bytes for a table that
    :func:`rows_to_csv` wrote, not for every table this accepts.

    A bad header or a missing trailing LF is reported first. Otherwise the
    error names the first bad line in file order, counting the header as
    line 1, and within that line the first failing check: the field count,
    the axis, the variant, then the numeric cells from left to right.
    """
    header = text.partition("\n")[0]
    if header != SWEEP_HEADER:
        raise SweepFormatError(f"bad header: {header!r}")
    if not text.endswith("\n"):
        raise SweepFormatError("missing trailing newline")
    if len(text) == len(SWEEP_HEADER) + 1:
        return SweepTable([[]] * 11)
    body = text[len(SWEEP_HEADER) + 1:-1]
    n = body.count("\n") + 1
    # Split at commas alone: in a valid table cell k of line j is
    # parts[10 * j + k], and parts[10 * j] holds line j-1's variant, the
    # line break and line j's axis. Lines of 11 fields are exactly the
    # tables with 10 * n + 1 parts whose every tenth part is such a joint.
    parts = body.split(",")
    del body  # each step drops what the next no longer needs, to bound peak memory
    joints = parts[10:-1:10]
    if not (len(parts) == 10 * n + 1 and parts[0] in AXES
            and parts[-1] in VARIANTS
            and _AXIS_AFTER.keys() >= set(joints)):
        raise _first_bad_line(text)
    axes = [parts[0], *map(_AXIS_AFTER.__getitem__, joints)]
    variants = [*map(_VARIANT_BEFORE.__getitem__, joints), parts[-1]]
    del joints
    try:  # each block's cells are sliced straight out of parts
        blocks = [cells for _, _, cells in _map_blocks(
            _parse_cells, variants,
            lambda i, j: [parts[10 * i + k:10 * j:10] for k in range(1, 10)])]
    except ValueError:
        raise _first_bad_line(text) from None
    del parts
    numeric = blocks[0]
    if len(blocks) > 1:
        numeric = [[] for _ in numeric]
        for cells in blocks:
            for column, part in zip(numeric, cells):
                column += part
    return SweepTable([axes, *numeric, variants])


def run_relay_compare(
    axis: str,
    start: float,
    stop: float,
    step: float,
    base: RelayConfig,
) -> list[str]:
    """Paired with-relay / relay-off rows over host power (dB) or relay power.

    ``axis`` is ``pa_db`` (sweeps p_a in dB over sigma_b2) or ``pr``
    (sweeps p_r linearly). Returns formatted CSV lines including header.
    ``base`` is a validated :class:`RelayConfig`, so only the swept power
    is checked per point, by one guard; ``db_to_linear`` owns the error of
    an overflowing dB value, and ``RelayConfig`` the field-named error of
    a power the guard refuses.
    """
    if axis not in ("pa_db", "pr"):
        raise SweepError(f"axis must be pa_db or pr, got {axis!r}")
    gains = (base.h_ab, base.h_rb, base.h_ae, base.h_re)
    sigma_b2, sigma_e2, w = base.sigma_b2, base.sigma_e2, base.w
    inf = math.inf
    values = axis_points(start, stop, step)

    def swept_power(value: float) -> float:
        if axis == "pa_db":
            p_a = sigma_b2 * db_to_linear(value)
            if not 0 < p_a < inf:
                base._replace(p_a=p_a)  # raises RelayConfig's field-named error
            return p_a
        if not 0 <= value < inf:
            base._replace(p_r=value)
        return value

    powers, refused = _until_refused(swept_power, values)
    p_a, p_r = (powers, base.p_r) if axis == "pa_db" else (base.p_a, powers)
    ons, offs = _relay_rows(p_a, p_r, *gains, sigma_b2, sigma_e2, w)
    if sigma_b2 == sigma_e2 and powers:
        # relay-off must reduce to the direct fading formula on amplitudes sqrt(h)
        directs = _fading_rows(p_a, sigma_b2, math.sqrt(base.h_ab), math.sqrt(base.h_ae), w)
        # on the pr axis p_a is fixed, so the first row's check stands for every row
        checks = zip(values, offs, directs) if axis == "pa_db" else [(values[0], offs, directs)]
        for value, off, direct in checks:
            # the sqrt round-trip perturbs the gains by ~1 ulp, hence the abs floor
            if abs(off - direct) > 1e-9 + 1e-12 * abs(direct):
                raise SweepOrderingError(
                    f"relay-off arm {off!r} deviates from the direct formula "
                    f"{direct!r} at {axis}={fmt_num(value)}"
                )
    if refused is not None:
        raise SweepError(f"axis point {axis}={fmt_num(values[len(powers)])}: {refused}") from None
    n = len(values)
    p_as, p_rs, offs = ([x] * n if type(x) is not list else x for x in (p_a, p_r, offs))
    fixed = [[x] * n for x in (*gains, sigma_b2, sigma_e2, w)]
    cells = _map_columns(_format_cells, [values, p_as, p_rs, *fixed, ons, _clamped(ons), offs,
                                         _clamped(offs)])
    return [RELAY_COMPARE_HEADER, *map(",".join, zip(repeat(axis), *cells))]


def run_ergodic_compare(
    p_dbs: list[float],
    legit_fading,
    eaves_fading=None,
    sigma_b2: float = 1.0,
    sigma_e2: float = 1.0,
    n_samples: int = 100_000,
    seed: int | None = None,
) -> list[str]:
    """AWGN capacity next to the ergodic estimate per average-power point.

    Every point shares the seed, so the fading states are drawn once, at
    the first point, and each point estimates on them.

    Raises :class:`SweepOrderingError` if any estimate exceeds the AWGN
    capacity by more than its confidence halfwidth.
    """
    if seed is None:
        seed = DEFAULT_SEED
    lines = [ERGODIC_COMPARE_HEADER]
    states = None
    for p_db in p_dbs:
        p = db_to_linear(p_db)
        spec = ErgodicSpec(
            legit_fading=legit_fading,
            p_budget=p,
            eaves_fading=eaves_fading,
            sigma_b2=sigma_b2,
            sigma_e2=sigma_e2,
            n_samples=n_samples,
            seed=seed,
        )
        if states is None:
            states = draw_channel_states(spec)
        result = estimate_on_states(*states, p)
        awgn = awgn_capacity(PowerBudget(p_linear=p, n0_linear=sigma_b2), 1.0)
        if awgn < result.capacity - result.ci_halfwidth:
            raise SweepOrderingError(
                f"ergodic estimate {result.capacity!r} exceeds AWGN {awgn!r} "
                f"beyond CI at {fmt_num(p_db)} dB"
            )
        lines.append(
            ",".join(
                (
                    fmt_num(p_db),
                    fmt_num(p),
                    fmt_num(awgn),
                    fmt_num(result.capacity),
                    fmt_num(result.ci_halfwidth),
                    fmt_num(result.achieved_avg_power),
                    str(n_samples),
                    str(seed),
                )
            )
        )
    return lines


def run_cs_demo(n: int, m: int, k: int, trials: int, seed: int | None = None) -> list[str]:
    """Correct-key and wrong-key recovery statistics over seeded trials.

    Trial t's keys are the seeds seed + 2t and seed + 2t + 1 (modulo 2**64).
    The signals come from a stream spawned from the seed, as
    :func:`~v2vsec.ergodic.draw_channel_states` spawns its links' streams,
    so no signal is drawn from a key's own stream.
    """
    integer("trials", trials)
    if trials < 1:
        raise SweepError(f"trials must be >= 1, got {trials!r}")
    if seed is None:
        seed = DEFAULT_SEED
    integer("seed", seed, "a 64-bit unsigned integer")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    stats = {"correct_key": [0, 0.0], "wrong_key": [0, 0.0]}
    for t in range(trials):
        key = CsKey(seed=(seed + 2 * t) % 2**64, n=n, m=m)
        wrong = CsKey(seed=(seed + 2 * t + 1) % 2**64, n=n, m=m)
        x = random_sparse_signal(n, k, rng)
        phi = csenc.keygen(key)  # y = encrypt(x, key) without a second keygen
        y = phi @ x.values
        recovered = {"correct_key": csenc.omp(phi, y, k)}
        del phi  # one key matrix alive at a time
        recovered["wrong_key"] = decrypt(y, wrong, k)
        xnorm = float(np.linalg.norm(x.values))
        for arm, signal in recovered.items():
            rel = float(np.linalg.norm(signal.values - x.values)) / xnorm
            stats[arm][0] += rel < 1e-6
            stats[arm][1] += rel
    lines = [CS_DEMO_HEADER]
    for arm in ("correct_key", "wrong_key"):
        successes, rel_sum = stats[arm]
        lines.append(
            ",".join(
                (
                    arm,
                    str(n),
                    str(m),
                    str(k),
                    str(trials),
                    str(successes),
                    fmt_num(successes / trials),
                    fmt_num(rel_sum / trials),
                )
            )
        )
    return lines
