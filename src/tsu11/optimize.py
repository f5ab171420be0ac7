"""LO-phase optimization.

The LOD landscape over the two LO phases is multimodal with shallow
basins, so optimization starts a safeguarded Newton descent from the best
cell of a coarse grid.  Both run on an exact interpolant of the
landscape.  An LO phase is the phase of the LO's coherent amplitude, not
a factor of the operator, and each LO mode reaches the detectors
linearly, never through a squeezer; so var(J) and |d<J>/dphi|^2 are real
trigonometric polynomials of degree <= 2 in each LO phase, fixed by
engine reports on a 5 x 5 grid of phases.  Those reports share one
operator build, since J does not depend on the LO phases.  The coarse
grid evaluates the interpolant as separable products, one trigonometric
basis per axis point, and Newton takes the exact derivatives of that
basis.  The grid and Newton both minimize var / |d<J>/dphi|^2 (Newton its
logarithm), which orders the phases as the LOD does, and the LOD is taken
once per reported value, through ``metrology``.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import log10, mp, mpf, pi, workdps

from .circuits import InterferometerParams
from .interpolants import check_fit, node_scales, tolerance
from .metrology import classical_lod, defined_lod, lod_from_ratio, report

# bound here only because the benchmark's tracer wraps them as tsu11.optimize.<name>;
# nelder_mead is unused since the Newton refinement
from .simplex import nelder_mead  # noqa: F401
from .sweep import run_sweep, vacuum_noise_map  # noqa: F401

OPTIMIZE_TARGETS = ("lod", "lodi")

#: off-node LO phases (phi_p, phi_c) at which the interpolant is checked
CHECK_PHASES = (1, 2)

#: Newton steps, and halvings of one step, after which the refinement stops
NEWTON_MAX_ITER = 30


@dataclass
class OptResult:
    phi_p: mpf
    phi_c: mpf
    value_db: mpf
    grid_value_db: mpf
    iterations: int
    evaluations: int
    converged: bool
    #: what the grid and Newton searched: the engine-checked interpolant
    route: str = "interpolant"
    #: -log10 of the relative gap between interpolant and engine LOD at
    #: the returned phases, capped at the working precision
    check_digits: float | None = None
    #: why ``_newton`` stopped, or "grid" where the grid cell was kept
    stop_reason: str = ""
    #: |grad LOD| of the interpolant at the returned phases, in dB/rad
    grad_norm: mpf | None = None


def _trig_basis(x):
    """(1, cos x, sin x, cos 2x, sin 2x): the real basis of degree <= 2."""
    c, s = mp.cos_sin(x)
    return (mpf(1), c, s, 2 * c * c - 1, 2 * s * c)


def _trig_jet(x):
    """``_trig_basis(x)`` and its first and second derivatives in x."""
    b = _, c, s, c2, s2 = _trig_basis(x)
    return b, (0, -s, c, -2 * s2, 2 * c2), (0, -c, -s, -4 * c2, -4 * s2)


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
            # what rounding moves an evaluation by: 10^-dps of the coefficient mass
            self._noise = [mp.fsum(map(abs, sum(c, []))) / mpf(10) ** dps
                           for c in (self._var, self._dsq)]
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

    def jet(self, x):
        """(var/dsq, its rounding floor, and the gradient (p, c) and Hessian
        (pp, pc, cc) of ln(var/dsq) in the phases) at x = (phi_p, phi_c) from
        the exact derivatives of the basis; None where ``ratio(x)`` is inf."""
        with workdps(self.dps):
            u, v = _trig_jet(x[0]), _trig_jet(x[1])
            halves = [self._contract(w) for w in v]
            ratio = self._ratio(u[0], halves[0])
            if ratio == mpf("inf"):
                return None
            floor, logs = 0, []
            for k, noise in enumerate(self._noise):
                # var (k = 0) or dsq (k = 1) differentiated i, j times in phi_p, phi_c
                (q, c, cc), (p, pc, _), (pp, _, _) = [[mp.fdot(a, hs[k]) for hs in halves]
                                                      for a in u]
                p, c = p / q, c / q
                logs.append((p, c, pp / q - p * p, pc / q - p * c, cc / q - c * c))
                floor += ratio * noise / q
            p, c, pp, pc, cc = (a - b for a, b in zip(*logs))
            return ratio, floor, (p, c), (pp, pc, cc)

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
    """Line-search objective: var/dsq, monotone in the LOD, on the
    engine-checked interpolant (the benchmark's tracer counts its calls)."""
    return land.ratio


def _newton(land: PhaseLandscape, objective, x, cell):
    """Safeguarded Newton descent of ln(var/dsq) from x.

    A step solves H s = -g with the exact gradient g and Hessian H of
    ``land.jet``, or is -g where H is not positive definite.  It is capped
    at one grid ``cell`` and halved until ``objective`` (var/dsq) rises by
    no more than its rounding floor.  The descent stops at a step below
    the landscape's tolerance ("step"), once var/dsq falls by no more than
    that floor ("flat"), after NEWTON_MAX_ITER steps ("max_iter"), or at
    once where var/dsq is undefined ("undefined").  Returns (x, jet at x,
    steps, evaluations, stop reason, whether H is positive definite at x).
    """
    jet, evals, stop = land.jet(x), 1, None
    for it in range(NEWTON_MAX_ITER + 1):
        if jet is None:
            return x, jet, it, evals, "undefined", False
        ratio, floor, (gp, gc), (a, b, c) = jet
        det = a * c - b * b
        pd = a > 0 and det > 0
        s = ((b * gc - c * gp) / det, (b * gp - a * gc) / det) if pd else (-gp, -gc)
        size = max(abs(s[0]), abs(s[1]))
        stop = stop or ("step" if size < land.tol else None)
        if stop or it == NEWTON_MAX_ITER:
            return x, jet, it, evals, stop or "max_iter", pd
        t = min(1, cell / size)
        for _ in range(NEWTON_MAX_ITER):
            y = (x[0] + t * s[0], x[1] + t * s[1])
            f = objective(y)
            evals += 1
            if f <= ratio + floor:
                x, jet = y, land.jet(y)
                evals += 1
                break
            t /= 2
        if f >= ratio - floor:
            stop = "flat"


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
    cell and ``_newton`` refines it, both on the interpolated landscape;
    the engine re-evaluates the chosen cell and the returned phases.
    ``converged`` certifies a local minimum of the interpolant: the
    descent stopped on "step" or "flat" and the Hessian of ln(var/dsq) is
    positive definite at the returned phases.
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
        xy, jet, iters, ev2, stop, pd = _newton(land, _lod_objective_coarse(land),
                                                best_xy, cell)
        lod = report(circuit, p.replace(phi_p=xy[0], phi_c=xy[1])).lod_db
        # refinement starts from the best grid cell and only improves it
        if lod is None or lod > grid_lod:
            xy, jet, lod, stop = best_xy, None, grid_lod, "grid"
        val = lod_from_ratio(land.ratio(xy))
        gap = abs(val - lod) / max(abs(lod), 1) if val != lod else 0
        digits = min(p.precision, -log10(gap)) if gap else p.precision
        return OptResult(
            phi_p=xy[0],
            phi_c=xy[1],
            value_db=lod + offset,
            grid_value_db=grid_lod + offset,
            iterations=iters,
            evaluations=grid_n * grid_n + ev2,
            converged=pd and stop in ("step", "flat"),
            check_digits=round(float(digits), 1),
            stop_reason=stop,
            grad_norm=jet and 5 * mp.hypot(*jet[2]) / mp.ln10,
        )
