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
Rows come from exact Lagrange numerators: past z = e^{step r}, rounded
once at the guard precision, a row is integer arithmetic up to one
rounded division, and its value is rounded to the working precision.
An axis over a field the circuit's builder forces (``FORCED``) is
refused.  The per-point engine still evaluates every other axis,
out-of-domain points, runs of no more in-domain points than a fit's
reports (4 or 10), runs whose span needs more than ``MAX_GUARD_DPS``
guard digits, and rows whose interpolated derivative is at its rounding
floor, so an undefined LOD keeps the engine's message.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from mpmath import exp, mp, mpf, workdps
from mpmath.libmp import dps_to_prec, mpf_pos, round_nearest

from .circuits import CIRCUITS, FORCED, NUMERIC_FIELDS, InterferometerParams, forced
from .interpolants import (agreement_digits, at_most, check_fit, fixed, lagrange_lifts,
                           lagrange_products, node_scales, quotient, tolerance)
from .metrology import (
    UndefinedLodError,
    classical_point,
    lod_db,
    lod_from_ratio,
    lodi_db,
    report,
    variance,
)
from .presets import PARAM_ALIASES

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
        with workdps(dps):
            lo, hi = mpf(str(self.lo)), mpf(str(self.hi))
            n = self.count
            if self.log:
                llo, lhi = mp.log10(lo), mp.log10(hi)
                return [mpf(10) ** (llo + (lhi - llo) * k / (n - 1)) for k in range(n)]
            return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


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
        self.owner = {}
        for ax in self.axes:
            if ax.name not in NUMERIC_FIELDS and ax.name not in PARAM_ALIASES:
                raise ValueError(f"unknown sweep axis {ax.name!r}")
            for f in PARAM_ALIASES.get(ax.name, (ax.name,)):
                if f in FORCED[self.circuit]:
                    raise ValueError(f"the {self.circuit} circuit forces {f} = "
                                     f"{FORCED[self.circuit][f]}: sweep axis {ax.name!r} "
                                     "would not move it")
                if f in self.owner:
                    raise ValueError(f"sweep axes {self.owner[f]!r} and {ax.name!r} "
                                     f"both set {f}")
                self.owner[f] = ax.name


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
    ``_guard_dps`` digits beyond p's precision, and kept as the Lagrange
    coefficients c_i of its var and |d<J>/dphi|^2, and takes one more
    report in the middle of the first node interval for ``check``.
    ``dsq_floors`` holds each measure's rounding floor of |d<J>/dphi|^2 at
    p's precision.  Coefficients and floors are exact (``fixed``).
    """

    def __init__(self, p: InterferometerParams, basis, span, measures):
        lo, hi = span
        self.step, self.degree = basis
        self.precision = p.precision
        self.dps = dps = p.precision + _guard_dps(self.step * self.degree, span)
        tol = tolerance(p.precision)
        n = 2 * self.degree + 1
        with workdps(dps):
            q = p.replace(precision=dps)
            nodes = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
            zs = [exp(self.step * x) for x in nodes]
            lifts = lagrange_lifts(zs, self.degree)
            self._nodes = fixed(zs)
            self.check_at = lo + (hi - lo) / (2 * n - 2)
            self.fits, self.checks = [], []
            for circuit, point in measures:
                base = forced(point(q), FORCED[circuit])
                reps = [report(circuit, base.replace(r=x)) for x in nodes]
                self.fits.append((fixed([c * r.variance.real for c, r in zip(lifts, reps)]),
                                  fixed([c * r.dj_dphi_sq for c, r in zip(lifts, reps)]),
                                  node_scales((r.second_moment, r.dj_dphi_sq) for r in reps)))
                self.checks.append(report(circuit, base.replace(r=self.check_at)))
            self.dsq_floors = [fixed([tol * scales[1]]) for _, _, scales in self.fits]
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

    def numerators(self, r):
        """(z^K, [(var, dsq) numerators of each measure]) at gain r, exact,
        for z = e^{step r} rounded at the guard precision, at which it runs;
        each value is its numerator over z^K."""
        products, e, zk = lagrange_products(exp(self.step * r), self._nodes, self.degree)
        return zk, [((sum(map(operator.mul, var, products)), ev + e),
                     (sum(map(operator.mul, dsq, products)), ed + e))
                    for (var, ev), (dsq, ed), _ in self.fits]

    def at(self, r):
        """[(var, dsq, node scales of both)] of each measure at gain r."""
        with workdps(self.dps):
            zk, numerators = self.numerators(r)
            return [(quotient(var, zk), quotient(dsq, zk), fit[2])
                    for (var, dsq), fit in zip(numerators, self.fits)]


def _run_landscape(grid: SweepGrid, name: str, params):
    """The checked ``AxisLandscape`` of one run of the innermost axis
    ``name`` over the in-domain rows' ``params``, or None where the run
    takes the per-point engine: the axis is not r, the run has no more
    points than the 2d + 2 reports of each fit, its span needs more than
    ``MAX_GUARD_DPS`` guard digits, or the engine refuses a node report."""
    if name != "r" or not params:
        return None
    step, degree = basis = _axis_degree(grid.circuit, params[0])
    span = (min(p.r for p in params), max(p.r for p in params))
    if (len(params) <= 2 * degree + 2 or span[0] == span[1]
            or _guard_dps(step * degree, span) > MAX_GUARD_DPS):
        return None
    measures = [(grid.circuit, lambda q: q)]
    if grid.target == "lodi":
        measures.append(("classical", classical_point))
    try:
        land = AxisLandscape(params[0], basis, span, measures)
    except (ValueError, ArithmeticError):
        # the engine meets the same refusal row by row and records it
        return None
    land.check()
    return land


def _interpolated_target(grid: SweepGrid, land: AxisLandscape, r, dps: int):
    """The target at gain r on ``land``, from its exact numerators and one
    rounded division at its guard precision, rounded to nearest at ``dps``
    digits; None where a |d<J>/dphi|^2 is at or below its rounding floor,
    ``land.dsq_floors``, for the engine to decide."""
    with workdps(land.dps):
        (zk, ek), numerators = land.numerators(r)
        if grid.target == "variance":
            value = quotient(numerators[0][0], (zk, ek))
        elif any(at_most(dsq, (floor * zk, e + ek))
                 for (_, dsq), ([floor], e) in zip(numerators, land.dsq_floors)):
            return None
        else:
            (var, dsq), *reference = numerators
            # z^-K cancels from var / dsq; LOD - LOD_classical is the LOD of
            # the ratio of the ratios
            for (ref_var, ref_e), (ref_dsq, ref_f) in reference:
                var, dsq = (var[0] * ref_dsq, var[1] + ref_f), (dsq[0] * ref_var, dsq[1] + ref_e)
            value = lod_from_ratio(quotient(var, dsq))
    return mp.make_mpf(mpf_pos(value._mpf_, dps_to_prec(dps), round_nearest))


def _engine_result(value=None, error: str = "") -> dict:
    return {"value": value, "error": error, "route": "engine", "check_digits": None}


def _row_result(grid: SweepGrid, land, p: InterferometerParams) -> dict:
    """"value", "error", "route" and "check_digits" of the row at p: on the
    run's interpolant where it has one and the row's derivatives clear
    their floor, else from the engine, which records a domain error or an
    undefined target in the row."""
    if land is not None:
        value = _interpolated_target(grid, land, p.r, p.precision)
        if value is not None:
            return {"value": value, "error": "", "route": "interpolant",
                    "check_digits": land.check_digits}
    try:
        return _engine_result(_evaluate_target(grid, p))
    except (UndefinedLodError, ValueError, ArithmeticError) as exc:
        return _engine_result(error=str(exc))


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
    rows = []
    for head in itertools.product(*(ax.points(dps) for ax in outer)):
        run, pending = [], []
        for x in points:
            row = dict(zip(names, head + (x,)))
            run.append(row)
            try:
                pending.append((row, grid.base.replace(
                    **{f: row[name] for f, name in grid.owner.items()})))
            except ValueError as exc:
                row.update(_engine_result(error=str(exc)))
        land = _run_landscape(grid, inner.name, [p for _, p in pending])
        for row, p in pending:
            row.update(_row_result(grid, land, p))
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
