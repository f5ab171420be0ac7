"""Parameter sweeps and vacuum noise maps.

Sweeps evaluate a target quantity over a deterministic cartesian grid,
first axis outermost, and never abort on per-point failures,
out-of-domain axis values included.  Their LODI target compares the
sweep's circuit, as ``optimize_phases`` does.

An innermost gain axis r runs on an exact interpolant, once per
combination of the outer axes' values.  Every detector port is linear in
(e^r, e^-r), so the two moments lie in span{e^{kr}, |k| <= 4}; where
both homodynes are balanced as the circuit is built they are even, in
span{e^{-2r}, 1, e^{2r}} (``_axis_degree``).  Engine reports at 3 nodes
(even) or 9, equispaced on the run's in-domain span of r, fix them.
They are taken with guard digits beyond the working precision, more on a
wider span (``_guard_dps``).  One off-node report checks the fit as the
LO-phase landscape is checked, and a miss raises ``ConsistencyError``.
A run's rows are one pass on raw mpf tuples (``AxisLandscape.values``):
past z = e^{step r}, rounded at the guard precision, a row is Horner in
integers, one rounded division and the LOD, rounded to working precision.
An axis over a field the circuit pins (``circuits.pinned``: the fields
its builder forces, and the vacuum circuit's seeds) is refused.  The
per-point engine still evaluates every other axis, out-of-domain
points, runs of no more in-domain points than a fit's reports (4 or
10), runs whose span needs more than ``MAX_GUARD_DPS`` guard digits,
and rows whose interpolated derivative is at its rounding floor, so an
undefined LOD keeps the engine's message.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

from mpmath import exp, mp, mpf, workdps
from mpmath.libmp import (dps_to_prec, from_int, mpf_add, mpf_div, mpf_exp, mpf_mul_int,
                          mpf_pos, round_nearest)

from .circuits import CIRCUITS, FORCED, NUMERIC_FIELDS, InterferometerParams, forced, pinned
from .interpolants import (agreement_digits, check_fit, fixed, horner, lagrange_lifts,
                           monomials, node_scales, quotient, tolerance)
from .metrology import (
    UndefinedLodError,
    classical_point,
    lod_db,
    lodi_db,
    raw_lod,
    report,
    variance,
)
from .presets import PARAM_ALIASES, expand

SWEEP_TARGETS = ("lod", "lodi", "variance")

#: guard digits of the r interpolant's node reports and rows, before those
#: that ``_guard_dps`` adds for the width of the span
GUARD_DPS = 20
#: guard digits past which a run stays per point: beyond, a report costs far more
MAX_GUARD_DPS = 200


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: name, exact decimal bounds, point count, spacing."""

    name: str
    lo: str | float
    hi: str | float
    count: int
    log: bool = False

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("axis count must be >= 2")
        if self.log and min(mpf(str(self.lo)), mpf(str(self.hi))) <= 0:
            raise ValueError("log axis requires positive bounds")

    def points(self, dps: int):
        """The axis points at ``dps`` digits, lo + (hi - lo) k / (count - 1)
        (in log10 on a log axis), each formed by the three roundings of
        that mpf expression on raw tuples.  They are monotone in k."""
        with workdps(dps):
            lo, hi = mpf(str(self.lo)), mpf(str(self.hi))
            if self.log:
                lo, hi = mp.log10(lo), mp.log10(hi)
            prec, lo, width, n = mp.prec, lo._mpf_, (hi - lo)._mpf_, from_int(self.count - 1)
            xs = [mp.make_mpf(mpf_add(lo, mpf_div(mpf_mul_int(width, k, prec, round_nearest), n,
                                                  prec, round_nearest), prec, round_nearest))
                  for k in range(self.count)]
            return [mpf(10) ** x for x in xs] if self.log else xs


@dataclass
class SweepGrid:
    """Cartesian sweep specification over interferometer parameters."""

    axes: tuple[AxisSpec, ...]
    base: InterferometerParams
    target: str = "lod"  # one of SWEEP_TARGETS
    circuit: str = "tsu11"
    #: field -> name of the axis that sets it, shorthands expanded
    owner: dict[str, str] = field(init=False)

    def __post_init__(self):
        if self.target not in SWEEP_TARGETS:
            raise ValueError(f"unknown sweep target {self.target!r}")
        if self.circuit not in CIRCUITS:
            raise ValueError(f"unknown circuit {self.circuit!r}")
        for ax in self.axes:
            if ax.name not in NUMERIC_FIELDS and ax.name not in PARAM_ALIASES:
                raise ValueError(f"unknown sweep axis {ax.name!r}")
        self.owner = expand((ax.name, ax.name) for ax in self.axes)
        pins = pinned(self.circuit)
        for f, name in self.owner.items():
            if f in pins:
                raise ValueError(f"the {self.circuit} circuit forces {f} = {pins[f]}: "
                                 f"sweep axis {name!r} would not move it")


def _evaluate_target(grid: SweepGrid, p: InterferometerParams):
    if grid.target == "lod":
        return lod_db(grid.circuit, p)
    if grid.target == "lodi":
        return lodi_db(p, grid.circuit).lodi_db
    J, _, state = CIRCUITS[grid.circuit](p)
    return variance(J, state).real


def _axis_degree(circuit: str, p: InterferometerParams) -> tuple[int, int]:
    """(step, d) of the r basis span{e^{k step r}, |k| <= d} at p: (2, 1),
    the even span{e^{-2r}, 1, e^{2r}}, where both homodynes are balanced
    as the circuit is built (every circuit but su11 forces them), else
    (1, 4).  The largest |k| of e^{kr}, K = step d, is 2 or 4.

    Expand each detector port over the input modes.  The seeded and
    squeezed modes a, b enter with coefficients of degree one in the
    squeezer's (cosh r, sinh r); the vacuum ports and the LOs with r-free
    ones.  A balanced homodyne gives J only port' LO terms, so <J> is a
    port amplitude times an LO amplitude, and the Wick pairing of the
    vacuum pairs each mode only with itself: every term of var J and of
    |d<J>/dphi|^2 has degree 0 or 2, in span{1, cosh 2r, sinh 2r}.  An
    unbalanced homodyne adds port' port terms, which mix degrees one and
    two in <J>, so odd powers of e^r appear up to e^{+-4r}.
    """
    balanced = circuit != "su11" or p.eta_p3 == p.eta_c3 == mpf("0.5")
    return (2, 1) if balanced else (1, 4)


def _guard_dps(degree: int, span) -> int:
    """Digits beyond the working precision of the r interpolant's nodes
    and rows over ``span``.

    ``degree`` is K, the largest |k| of e^{kr} in the basis.  The fit
    loses digits at the bottom of a wide span, where the moments are small
    next to the node values above: about (K - 1)(hi - lo) / ln 10 (23.5
    digits for su11 at K = 4 over r in [0, 20], 39 over [0, 30]).  The
    guard adds K (hi - lo) / ln 10 digits to ``GUARD_DPS``.
    """
    lo, hi = span
    return GUARD_DPS + int(mp.ceil(degree * (hi - lo) / mp.ln10))


class AxisLandscape:
    """Exact interpolant of var(J) and |d<J>/dphi|^2 along the gain r.

    ``measures`` are (circuit, point) pairs, the circuit's ``report`` at
    point(p) with its ``FORCED`` fields set and r moved.  Each is fitted in
    the ``basis`` span{e^{k step r}, |k| <= d} of ``_axis_degree`` from
    reports at the same 2d + 1 nodes, equispaced on ``span``,
    ``_guard_dps`` digits beyond p's precision, and takes one more report
    in the middle of the first node interval for ``check``.  ``fits`` holds
    its var and |d<J>/dphi|^2 as Lagrange numerators over Z^d, Z = e^{step
    r} 2^-e an integer on the span: monomial coefficients in Z and the
    quotient's exponent, then the floor of |d<J>/dphi|^2 at p's precision.
    """

    def __init__(self, p: InterferometerParams, basis, span, measures):
        lo, hi = span
        self.step, self.degree = basis
        self.precision = p.precision
        self.dps = dps = p.precision + _guard_dps(self.step * self.degree, span)
        self.prec = dps_to_prec(dps)
        tol = tolerance(p.precision)
        n = 2 * self.degree + 1
        with workdps(dps):
            q = p.replace(precision=dps)
            nodes = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
            zs = [exp(self.step * x) for x in nodes]
            lifts = lagrange_lifts(zs, self.degree)
            # z at r >= lo exceeds z_0 / 2 and has prec bits
            self._e = e = zs[0]._mpf_[2] + zs[0]._mpf_[3] - 2 - self.prec
            zints = [m << x - e for _, m, x, _ in (z._mpf_ for z in zs)]
            self.check_at = lo + (hi - lo) / (2 * n - 2)
            self.fits, self.scales, self.checks = [], [], []
            for circuit, point in measures:
                base = forced(point(q), FORCED[circuit])
                reps = [report(circuit, base.replace(r=x)) for x in nodes]
                self.scales.append(node_scales((r.second_moment, r.dj_dphi_sq) for r in reps))
                var, ev = fixed([c * r.variance.real for c, r in zip(lifts, reps)])
                dsq, ed = fixed([c * r.dj_dphi_sq for c, r in zip(lifts, reps)])
                (floor,), ef = fixed([tol * self.scales[-1][1]])
                # a numerator's 2d node differences over Z^d leave 2^{d e};
                # dsq 2^ed <= floor 2^ef Z^d for integer dsq: dsq <= floor' Z^d >> s
                ev, ed = ev + self.degree * e, ed + self.degree * e
                self.fits.append((monomials(var, zints), ev, monomials(dsq, zints), ed,
                                  floor << max(ef - ed, 0), max(ed - ef, 0)))
                self.checks.append(report(circuit, base.replace(r=self.check_at)))
        self.check_digits = None

    def check(self):
        """Compare each off-node report with its fit as ``PhaseLandscape``
        does, at the guard precision: raise ``ConsistencyError`` on a miss,
        else set ``check_digits``, the least -log10 of the relative gaps,
        capped at the working precision."""
        with workdps(self.dps):
            where = f"r = {mp.nstr(self.check_at, 8)} ({self.dps} digits)"
            gap = max(check_fit(fit, rep, fit[2], tolerance(self.dps),
                                "r interpolant", where)
                      for fit, rep in zip(self.at(self.check_at), self.checks))
            self.check_digits = agreement_digits(gap, self.precision)

    def _z(self, r):
        _, m, e, _ = mpf_exp(mpf_mul_int(r._mpf_, self.step, self.prec, round_nearest),
                             self.prec, round_nearest)
        return m << e - self._e

    def at(self, r):
        """[(var, dsq, node scales of both)] of each measure at gain r of the
        span, at the guard precision."""
        z = self._z(r)
        zk = z ** self.degree, 0
        return [(mp.make_mpf(quotient((horner(var, z), ev), zk, self.prec)),
                 mp.make_mpf(quotient((horner(dsq, z), ed), zk, self.prec)), scales)
                for (var, ev, dsq, ed, _, _), scales in zip(self.fits, self.scales)]

    def values(self, rs, target: str, dps: int):
        """The sweep ``target`` at each gain r of ``rs`` in the span, rounded
        to nearest at ``dps`` digits; None where a |d<J>/dphi|^2 is at or
        below its floor, for the engine to decide."""
        prec, values = dps_to_prec(dps), []
        for r in rs:
            z = self._z(r)
            zk, parts = z ** self.degree, []
            for var, ev, dsq, ed, floor, shift in self.fits:
                dsq = horner(dsq, z)
                if target != "variance" and dsq <= floor * zk >> shift:
                    values.append(None)
                    break
                parts.append((horner(var, z), ev, dsq, ed))
            else:
                (var, ev, dsq, ed), *reference = parts
                # Z^-d cancels from var / dsq; LOD - LOD_classical is the LOD
                # of the ratio of the ratios
                for ref_var, ref_ev, ref_dsq, ref_ed in reference:
                    var, ev, dsq, ed = var * ref_dsq, ev + ref_ed, dsq * ref_var, ed + ref_ev
                value = (quotient((var, ev), (zk, 0), self.prec) if target == "variance" else
                         raw_lod(quotient((var, ev), (dsq, ed), self.prec), self.prec))
                values.append(mp.make_mpf(mpf_pos(value, prec, round_nearest)))
        return values


def _params(grid: SweepGrid, row: dict) -> InterferometerParams:
    return grid.base.replace(**{f: row[name] for f, name in grid.owner.items()})


def _run_landscape(grid: SweepGrid, run: list[dict], span):
    """(the checked ``AxisLandscape`` of an r ``run`` of ``span``, the rows
    in domain that it covers), or None where the run takes the per-point
    engine: it has no more such rows than the 2d + 2 reports of each fit,
    their span needs more than ``MAX_GUARD_DPS`` guard digits, or the
    engine refuses a node report.  r's domain is [0, inf): where the lowest
    r is in domain, every row is, and only its parameters are built."""
    try:
        p = _params(grid, {**run[0], "r": span[0]})
    except ValueError:
        inside = []
        for row in run:
            with contextlib.suppress(ValueError):
                p = _params(grid, row)
                inside.append(row)
        if not inside:
            return None
        run, span = inside, (min(row["r"] for row in inside), max(row["r"] for row in inside))
    step, degree = basis = _axis_degree(grid.circuit, p)
    if (len(run) <= 2 * degree + 2 or span[0] == span[1]
            or _guard_dps(step * degree, span) > MAX_GUARD_DPS):
        return None
    measures = [(grid.circuit, lambda q: q)]
    if grid.target == "lodi":
        measures.append(("classical", classical_point))
    try:
        land = AxisLandscape(p, basis, span, measures)
    except (ValueError, ArithmeticError):
        # the engine meets the same refusal row by row and records it
        return None
    land.check()
    return land, run


def _engine_result(value=None, error: str = "") -> dict:
    return {"value": value, "error": error, "route": "engine", "check_digits": None}


def run_sweep(grid: SweepGrid) -> list[dict]:
    """Evaluate the target on every grid point, first axis outermost.

    Returns one row per point: axis values, "value" (mpf or None), "error"
    (message or empty), "route" ("interpolant" or "engine") and
    "check_digits" (the interpolant's, or None).  Each run of the
    innermost axis, one per combination of the outer axes' values, is
    evaluated on an ``AxisLandscape`` where ``_run_landscape`` builds one.
    A point whose parameters leave their domain, or whose target is
    undefined or fails an engine check, fills its own row's error; such
    failures never abort the sweep.  Only a failed interpolant check
    raises ``ConsistencyError``.
    """
    names, dps = [ax.name for ax in grid.axes], grid.base.precision
    *outer, inner = grid.axes
    points = inner.points(dps)
    # monotone points: the ends hold the least and the largest
    ends = points[0], points[-1]
    span = (min(ends), max(ends)) if inner.name == "r" else None
    rows = []
    for head in itertools.product(*(ax.points(dps) for ax in outer)):
        run = [dict(zip(names, head + (x,))) for x in points]
        found = span and _run_landscape(grid, run, span)
        if found:
            land, inside = found
            rs = [row["r"] for row in inside]
            for row, value in zip(inside, land.values(rs, grid.target, dps)):
                if value is not None:
                    row.update(value=value, error="", route="interpolant",
                               check_digits=land.check_digits)
        for row in [row for row in run if "route" not in row]:
            # the engine records a domain error, an undefined target or a
            # failed check in the row
            try:
                row.update(_engine_result(_evaluate_target(grid, _params(grid, row))))
            except (UndefinedLodError, ValueError, ArithmeticError) as exc:
                row.update(_engine_result(error=str(exc)))
        rows += run
    return rows


def vacuum_noise_map(
    p: InterferometerParams,
    axes: tuple[AxisSpec, AxisSpec],
) -> tuple[list[dict], list[dict]]:
    """Tabulate the vacuum-seeded variance over two phase axes.

    Axis names may be phi (the sample phase, via theta_f), phi_p or phi_c.
    Returns (rows, minima): the ``run_sweep`` rows, second axis outer, and
    per value of the second axis the first-axis point minimizing the
    variance among the points that have a value.  A first axis phi is
    evaluated outermost, so that each phi's operators are built once.
    """
    if p.alpha != 0 or p.beta != 0:
        raise ValueError("vacuum noise map requires alpha = beta = 0")
    if not {ax.name for ax in axes} <= {"phi", "phi_p", "phi_c"}:
        raise ValueError("vacuum map axes must be phi, phi_p or phi_c")
    scan, group = axes
    phi_outer = scan.name == "phi"
    rows = run_sweep(SweepGrid(axes=axes if phi_outer else (group, scan), base=p,
                               target="variance", circuit="vacuum"))
    if phi_outer:
        rows = [row for j in range(group.count) for row in rows[j::group.count]]
    minima = []
    for k in range(0, len(rows), scan.count):
        valued = [r for r in rows[k:k + scan.count] if r["value"] is not None]
        if valued:
            best = min(valued, key=lambda r: r["value"])
            minima.append({name: best[name] for name in (scan.name, group.name, "value")})
    return rows, minima
