"""LO-phase optimization.

The LOD landscape over the two LO phases is multimodal with shallow
basins, so optimization seeds a Nelder-Mead simplex from the best cell of
a coarse grid.  Both run on an exact interpolant of the landscape.  An LO
phase is the phase of the LO's coherent amplitude, not a factor of the
operator, and each LO mode reaches the detectors linearly, never through
a squeezer; so var(J) and |d<J>/dphi|^2 are real trigonometric
polynomials of degree <= 2 in each LO phase, fixed by engine reports on a
5 x 5 grid of phases.  Those reports share one operator build, since J
does not depend on the LO phases.  The coarse grid evaluates the
interpolant as separable products, one trigonometric basis per axis
point.  The grid and the simplex both minimize var / |d<J>/dphi|^2, which
orders the phases as the LOD does, and the LOD is taken once per reported
value, through ``metrology``.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import log10, mp, mpf, pi, workdps

from .circuits import InterferometerParams
from .interpolants import check_fit, node_scales, tolerance
from .metrology import classical_lod, defined_lod, lod_from_ratio, report

# the sweep API stays importable from this module
from .sweep import AxisSpec, SweepGrid, run_sweep, vacuum_noise_map  # noqa: F401

OPTIMIZE_TARGETS = ("lod", "lodi")

#: off-node LO phases (phi_p, phi_c) at which the interpolant is checked
CHECK_PHASES = (1, 2)

#: simplex diameter below which ``nelder_mead`` has converged
SIMPLEX_TOL = 1e-8
#: iterations after which ``nelder_mead`` stops unconverged
SIMPLEX_MAX_ITER = 500


@dataclass
class OptResult:
    phi_p: mpf
    phi_c: mpf
    value_db: mpf
    grid_value_db: mpf
    iterations: int
    evaluations: int
    converged: bool
    #: what the grid and simplex searched: the engine-checked interpolant
    route: str = "interpolant"
    #: -log10 of the relative gap between interpolant and engine LOD at
    #: the returned phases, capped at the working precision
    check_digits: float | None = None


def nelder_mead(f, x0, step):
    """Derivative-free simplex descent on a 2-D objective.

    Standard reflection/expansion/contraction/shrink moves; converges when
    the simplex diameter drops below ``SIMPLEX_TOL``.  Returns (x, fx,
    iterations, evaluations, converged).
    """
    pts = [tuple(x0), (x0[0] + step, x0[1]), (x0[0], x0[1] + step)]
    vals = [f(x) for x in pts]
    evals = 3
    iters = 0
    converged = False
    while iters < SIMPLEX_MAX_ITER:
        order = sorted(range(3), key=lambda i: vals[i])
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        diam = max(
            max(abs(pts[i][0] - pts[j][0]), abs(pts[i][1] - pts[j][1]))
            for i in range(3)
            for j in range(i + 1, 3)
        )
        if diam < SIMPLEX_TOL:
            converged = True
            break
        iters += 1
        cx = ((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2)
        worst = pts[2]
        xr = (2 * cx[0] - worst[0], 2 * cx[1] - worst[1])
        fr = f(xr)
        evals += 1
        if fr < vals[0]:
            xe = (3 * cx[0] - 2 * worst[0], 3 * cx[1] - 2 * worst[1])
            fe = f(xe)
            evals += 1
            if fe < fr:
                pts[2], vals[2] = xe, fe
            else:
                pts[2], vals[2] = xr, fr
        elif fr < vals[1]:
            pts[2], vals[2] = xr, fr
        else:
            xc = ((cx[0] + worst[0]) / 2, (cx[1] + worst[1]) / 2)
            fc = f(xc)
            evals += 1
            if fc < vals[2]:
                pts[2], vals[2] = xc, fc
            else:
                pts = [
                    pts[0],
                    ((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2),
                    ((pts[0][0] + pts[2][0]) / 2, (pts[0][1] + pts[2][1]) / 2),
                ]
                vals = [vals[0], f(pts[1]), f(pts[2])]
                evals += 2
    order = sorted(range(3), key=lambda i: vals[i])
    best = order[0]
    return pts[best], vals[best], iters, evals, converged


def _trig_basis(x):
    """(1, cos x, sin x, cos 2x, sin 2x): the real basis of degree <= 2."""
    c, s = mp.cos_sin(x)
    return (mpf(1), c, s, 2 * c * c - 1, 2 * s * c)


class PhaseLandscape:
    """Exact interpolant of var(J) and |d<J>/dphi|^2 over (phi_p, phi_c).

    Engine reports at the 5 x 5 equispaced LO-phase nodes give the
    coefficients of both trigonometric polynomials by an exact 2-D DFT
    (5 nodes per axis alias no frequency of degree <= 2).  One report at
    ``CHECK_PHASES`` must agree with the interpolant to
    10^-(dps - CHECK_MARGIN) of each quantity's node scale, or
    ``ConsistencyError`` is raised.
    """

    def __init__(self, p: InterferometerParams, circuit: str):
        self.dps = dps = p.precision
        self.tol = tolerance(dps)
        with workdps(dps):
            nodes = [2 * pi * k / 5 for k in range(5)]
            reps = [[report(circuit, p.replace(phi_p=x, phi_c=y)) for y in nodes]
                    for x in nodes]
            # projection of node values onto the basis: rows (1/5, 2/5 ...)
            weights = (mpf(1) / 5,) + (mpf(2) / 5,) * 4
            proj = [[w * b for b in col]
                    for w, col in zip(weights, zip(*map(_trig_basis, nodes)))]
            self._var = self._fit(proj, [[r.variance.real for r in row] for row in reps])
            self._dsq = self._fit(proj, [[r.dj_dphi_sq for r in row] for row in reps])
            self.var_scale, self.dsq_scale = node_scales([r for row in reps for r in row])
            xc, yc = CHECK_PHASES
            check = report(circuit, p.replace(phi_p=xc, phi_c=yc))
            check_fit(self.at(mpf(xc), mpf(yc)), check, (self.var_scale, self.dsq_scale),
                      self.tol, "LO-phase interpolant",
                      f"phases {CHECK_PHASES} ({dps} digits)")

    @staticmethod
    def _fit(proj, values):
        """Coefficients proj . values . proj^T of the real 2-D basis."""
        half = [[mp.fdot(row, col) for col in zip(*values)] for row in proj]
        return [[mp.fdot(h, row) for row in proj] for h in half]

    def _contract(self, v):
        """Both coefficient matrices contracted with one phi_c basis ``v``."""
        return [[mp.fdot(row, v) for row in coef] for coef in (self._var, self._dsq)]

    def _ratio(self, u, halves):
        """var / dsq from a phi_p basis and ``_contract``, or inf where dsq
        is at or below the rounding floor of the largest node derivative."""
        var, dsq = (mp.fdot(u, h) for h in halves)
        if dsq <= self.tol * self.dsq_scale:
            return mpf("inf")
        return var / dsq

    def at(self, phi_p, phi_c):
        """(var(J), |d<J>/dphi|^2) at the LO phases."""
        with workdps(self.dps):
            u = _trig_basis(phi_p)
            return tuple(mp.fdot(u, h) for h in self._contract(_trig_basis(phi_c)))

    def ratio(self, x):
        """var / dsq at x = (phi_p, phi_c); inf where the derivative is at
        or below the rounding floor of the largest node derivative."""
        with workdps(self.dps):
            return self._ratio(_trig_basis(x[0]), self._contract(_trig_basis(x[1])))

    def grid(self, axis):
        """Yield ((phi_p, phi_c), var/dsq) over axis x axis, phi_p outer,
        as ``ratio((phi_p, phi_c))``, bit for bit.

        The landscape is separable: each axis point's basis is taken once,
        the coefficients are contracted with the phi_c basis once per
        phi_c, and each cell is then one length-5 dot product per quantity.
        """
        with workdps(self.dps):
            basis = [_trig_basis(x) for x in axis]
            halves = [self._contract(v) for v in basis]
            for x, u in zip(axis, basis):
                for y, h in zip(axis, halves):
                    yield (x, y), self._ratio(u, h)


def _lod_objective_coarse(land: PhaseLandscape):
    """Simplex objective: var/dsq, monotone in the LOD, on the engine-checked
    interpolant (the benchmark's tracer counts its calls)."""
    return land.ratio


def _best_cell(land: PhaseLandscape, axis):
    """The grid cell (phi_p, phi_c) with the least var/dsq, so the least LOD.

    Cells whose LOD lies within the interpolant's tolerance of the best
    resolve to the smallest |phi_p| + |phi_c|, the first such cell in grid
    order.  LOD = 5 log10(ratio) is monotone in the ratio, so the cells
    are compared as ratios and the tolerance window on the LOD becomes the
    factor 10^(tol |log10 ratio|) on the best ratio; one log10 is taken
    per improvement of the running best, and only the cells inside the
    current window are kept.
    """
    inf = mpf("inf")
    best, window, near = inf, inf, []
    with workdps(land.dps):
        for xy, ratio in land.grid(axis):
            if ratio < best:
                best = ratio
                window = best * mpf(10) ** (land.tol * abs(log10(best)))
                near = [c for c in near if c[1] <= window]
            if ratio <= window:
                near.append((xy, ratio))
        return min((xy for xy, _ in near), key=lambda xy: abs(xy[0]) + abs(xy[1]))


def optimize_phases(
    p: InterferometerParams,
    target: str = "lodi",
    circuit: str = "tsu11",
    grid_n: int = 64,
) -> OptResult:
    """Minimize LOD or LODI over the LO phases (phi_p, phi_c).

    A ``grid_n`` x ``grid_n`` coarse grid over [-pi, pi)^2 picks the start
    cell and a simplex refines it, both on the interpolated landscape;
    the engine re-evaluates the chosen cell and the returned phases.
    Balanced detectors make the landscape invariant under a joint shift
    of both phases by pi (J -> -J), so grid cells within the interpolant's
    tolerance of the best one resolve to the smallest |phi_p| + |phi_c|.
    For target "lodi" the classical reference is phase independent, so
    the same landscape shifted by a constant is optimized.  Raises
    ``UndefinedLodError`` when the classical reference or the engine LOD
    at the chosen cell is undefined.
    """
    if target not in OPTIMIZE_TARGETS:
        raise ValueError(f"unknown optimization target {target!r}")
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    offset = mpf(0)
    if target == "lodi":
        with workdps(p.precision):
            offset = -classical_lod(p)

    land = PhaseLandscape(p, circuit)
    with workdps(p.precision):
        lo, hi = -pi, pi
        cell = (hi - lo) / grid_n
        axis = [lo + cell * i for i in range(grid_n)]
        best_xy = _best_cell(land, axis)

        grid_rep = report(circuit, p.replace(phi_p=best_xy[0], phi_c=best_xy[1]))
        grid_lod = defined_lod(grid_rep, f"{circuit} LOD undefined at the best grid "
                               "cell: the phase derivative of <J> vanishes")
        xy, ratio, iters, ev2, converged = nelder_mead(_lod_objective_coarse(land),
                                                       best_xy, step=cell)
        lod = report(circuit, p.replace(phi_p=xy[0], phi_c=xy[1])).lod_db
        # refinement starts from the best grid vertex and only improves it
        if lod is None or lod > grid_lod:
            xy, ratio, lod = best_xy, land.ratio(best_xy), grid_lod
        val = lod_from_ratio(ratio)
        gap = abs(val - lod) / max(abs(lod), 1) if val != lod else 0
        digits = min(p.precision, -log10(gap)) if gap else p.precision
        return OptResult(
            phi_p=xy[0],
            phi_c=xy[1],
            value_db=lod + offset,
            grid_value_db=grid_lod + offset,
            iterations=iters,
            evaluations=grid_n * grid_n + ev2 + 1,
            converged=converged,
            check_digits=round(float(digits), 1),
        )
