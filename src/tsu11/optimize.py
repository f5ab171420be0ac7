"""LO-phase optimization.

The LOD landscape over the two LO phases is multimodal with shallow
basins, so optimization starts a safeguarded Newton descent from the best
cell of a coarse grid.  Both run on an exact interpolant of the
landscape.  An LO phase is the phase of the LO's coherent amplitude, not
a factor of the operator, and each LO mode reaches the detectors
linearly, never through a squeezer; so <J>, var(J) and <dJ/dphi> are
Laurent polynomials of degree <= 2 in e^{i phi_p} and e^{i phi_c}.  One
charge-graded pass of the engine's kernel over J and one over dJ, on the
one operator build at zero LO phases, return their coefficients, and
|d<J>/dphi|^2 follows as a product of two of them.  No basis value
exceeds 1 in size, so the coefficient mass of each quantity bounds it at
every phase and sets the scales of the check's tolerance and of the
derivative's rounding floor.  The coarse grid screens its cells on
binary64 images of the coefficient matrices, scaled by powers of two,
under a proven rounding bound.  The interpolant is evaluated at working
precision only where a cell can win, as separable products with one
trigonometric basis per axis point; Newton takes the exact derivatives
of that basis, and the landscape keeps its last point, so a value just
taken is not taken again.
The grid and Newton both minimize var / |d<J>/dphi|^2 (Newton its
logarithm), which orders the phases as the LOD does, and the LOD is
taken once per reported value, through ``metrology``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import log10, mp, mpf, pi, workdps

from .algebra import _sum, coherent_expectation, coherent_moments
from .circuits import CIRCUITS, LO_MODES, InterferometerParams
from .interpolants import agreement_digits, check_fit, tolerance
from .metrology import ConsistencyError, classical_lod, defined_lod, lod_from_ratio, report

# bound here only because the benchmark's tracer wraps them as tsu11.optimize.<name>;
# nelder_mead is unused since the Newton refinement
from .simplex import nelder_mead  # noqa: F401
from .sweep import run_sweep, vacuum_noise_map  # noqa: F401

OPTIMIZE_TARGETS = ("lod", "lodi")

#: off-node LO phases (phi_p, phi_c) at which the interpolant is checked
CHECK_PHASES = (1, 2)

#: Newton steps, and halvings of one step, after which the refinement stops
NEWTON_MAX_ITER = 30

#: binary64's unit roundoff, and a bound of what underflow moves a cell of
#: the binary64 screen of ``_screen`` by
_U, _TINY = 2.0 ** -53, 2.0 ** -1060


@dataclass
class OptResult:
    phi_p: mpf
    phi_c: mpf
    value_db: mpf
    grid_value_db: mpf
    iterations: int
    #: grid_n^2 cells screened, plus Newton's landscape evaluations
    #: (line-search trials and jets)
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


def _trig_derivatives(b):
    """The first and second derivatives in x of ``b = _trig_basis(x)``."""
    _, c, s, c2, s2 = b
    return (0, -s, c, -2 * s2, 2 * c2), (0, -c, -s, -4 * c2, -4 * s2)


def _real_coefficients(laurent, what):
    """Coefficients over the real basis (1, cos, sin, cos 2, sin 2)^2 of
    Re sum over charges (a, b) of laurent[a, b] e^{i(a phi_p + b phi_c)}.

    A charge |a| > 2 or |b| > 2 lies outside that basis, which a fit from
    5 nodes per axis would alias silently.  Such a charge, even with a
    zero coefficient, comes from an operator term of LO charge 2 or more,
    so an LO mode that does not reach the detectors linearly; it raises
    ``ConsistencyError``.
    """
    coef = [[mpf(0)] * 5 for _ in range(5)]
    for charge, c in laurent.items():
        for axis, k in zip(("phi_p", "phi_c"), charge):
            if abs(k) > 2:
                raise ConsistencyError(f"LO-phase {what} has charge {k} on {axis}: "
                                       "the landscape assumes degree <= 2")
        # e^{ikx} = cos |k|x + i sign(k) sin |k|x, at basis slots 2|k| - 1, 2|k|
        (cp, sp, tp), (cc, sc, tc) = ((2 * abs(k) - 1 if k else 0, 2 * abs(k),
                                       (k > 0) - (k < 0)) for k in charge)
        coef[cp][cc] += c.real
        coef[sp][sc] -= tp * tc * c.real
        coef[sp][cc] -= tp * c.imag
        coef[cp][sc] -= tc * c.imag
    return coef


def _halves(coefs, v):
    """Each matrix of ``coefs`` contracted with the phi_c basis ``v``: its
    rows' dot products with v."""
    return [[mp.fdot(row, v) for row in coef] for coef in coefs]


def _dot(u, halves):
    """[each matrix of ``halves`` at the phi_p basis ``u``]: one length-5
    dot product per matrix."""
    return [mp.fdot(u, h) for h in halves]


def _values(coefs, us, vs):
    """Per phi_p basis u of ``us``, an iterator of [each of ``coefs`` at
    (u, v)] over the phi_c bases v of ``vs``.  Each matrix is contracted
    with each v once; each value is then one length-5 dot product with u,
    taken as the iterator reaches its cell."""
    halves = [_halves(coefs, v) for v in vs]
    for u in us:
        yield (_dot(u, hs) for hs in halves)


class PhaseLandscape:
    """Exact interpolant of var(J) and |d<J>/dphi|^2 over (phi_p, phi_c).

    The circuit is built once at phi_p = phi_c = 0, where the LO
    amplitudes are exactly gamma and kappa.  One pass of
    ``coherent_moments`` over J and one of ``coherent_expectation`` over
    dJ, graded by the LO charges of ``LO_MODES``, give the Laurent
    coefficients of <J>, var(J) and D = <dJ/dphi>; |D|^2 takes the charge
    q - q' from D_q conj(D_q').  Their real parts are mapped onto the
    real basis (1, cos, sin, cos 2, sin 2) of each phase.  ``_values``
    gives every value of the landscape.  No basis value exceeds 1 in
    size, so the scales bound |var + <J>^2| and |d<J>/dphi|^2 at every
    phase: the coefficient mass of var plus the square of sum |<J>_q|,
    and the coefficient mass of dsq, each at least 1.  One engine report
    at ``CHECK_PHASES`` must agree with the interpolant to
    10^-(dps - CHECK_MARGIN) of each quantity's scale, or
    ``ConsistencyError`` is raised.
    """

    #: (x, phi_p basis, phi_c basis, phi_c halves, (var, dsq)) of the last
    #: point evaluated, which ``_point`` returns again at the same x
    _last = None

    def __init__(self, p: InterferometerParams, circuit: str):
        self.dps = dps = p.precision
        self.tol = tolerance(dps)
        with workdps(dps):
            J, dJ, state = CIRCUITS[circuit](p.replace(phi_p=0, phi_c=0))
            mean, var = coherent_moments(J, state, LO_MODES)
            deriv = coherent_expectation(dJ, state, LO_MODES).items()
            dsq = _sum(((a - a2, b - b2), d * d2.conjugate())
                       for (a, b), d in deriv for (a2, b2), d2 in deriv)
            #: the (var, dsq) coefficient matrices over the real basis
            self._coefs = (_real_coefficients(var, "variance"),
                           _real_coefficients(dsq, "derivative"))
            masses = [mp.fsum(map(abs, sum(c, []))) for c in self._coefs]
            # what rounding moves an evaluation by: 10^-dps of the coefficient mass
            self._noise = [mass / mpf(10) ** dps for mass in masses]
            self.var_scale = max(masses[0] + mp.fsum(map(abs, mean.values())) ** 2, mpf(1))
            self.dsq_scale = max(masses[1], mpf(1))
            #: the rounding floor of the derivative, below which var/dsq is inf
            self.dsq_floor = self.tol * self.dsq_scale
            xc, yc = CHECK_PHASES
            check = report(circuit, p.replace(phi_p=xc, phi_c=yc))
            check_fit(self.at(mpf(xc), mpf(yc)), check, (self.var_scale, self.dsq_scale),
                      self.tol, "LO-phase interpolant",
                      f"phases {CHECK_PHASES} ({dps} digits)")

    def _ratio(self, var, dsq):
        """var / dsq, or inf where dsq is at or below ``dsq_floor``; run at
        the landscape's precision."""
        if dsq <= self.dsq_floor:
            return mpf("inf")
        return var / dsq

    def _point(self, x):
        """The landscape at x = (phi_p, phi_c), kept as ``_last``: that
        point again where it is at x, so a value is taken once and a jet
        there takes the same bits as a jet from scratch; run at the
        landscape's precision."""
        if self._last and self._last[0] == x:
            return self._last
        u, v = map(_trig_basis, x)
        halves = _halves(self._coefs, v)
        self._last = point = (x, u, v, halves, _dot(u, halves))
        return point

    def at(self, phi_p, phi_c):
        """(var(J), |d<J>/dphi|^2) at the LO phases."""
        with workdps(self.dps):
            return tuple(self._point((phi_p, phi_c))[-1])

    def ratio(self, x):
        """var / dsq at x = (phi_p, phi_c); inf where the derivative is at
        or below its rounding floor, ``dsq_floor``."""
        with workdps(self.dps):
            return self._ratio(*self._point(x)[-1])

    def jet(self, x):
        """(var/dsq, its rounding floor, and the gradient (p, c) and Hessian
        (pp, pc, cc) of ln(var/dsq) in the phases) at x = (phi_p, phi_c) from
        the exact derivatives of the basis; None where ``ratio(x)`` is inf."""
        with workdps(self.dps):
            _, u, v, halves, value = self._point(x)
            ratio = self._ratio(*value)
            if ratio == mpf("inf"):
                return None
            # only the 6 cells of total order <= 2: (var, dsq) differentiated
            # i times in phi_p and j times in phi_c for i + j <= 2
            (u1, u2), (v1, v2) = map(_trig_derivatives, (u, v))
            h1, h2 = _halves(self._coefs, v1), _halves(self._coefs, v2)
            cells = zip(value, _dot(u, h1), _dot(u, h2),
                        _dot(u1, halves), _dot(u1, h1), _dot(u2, halves))
            floor, logs = 0, []
            for (q, c, cc, p, pc, pp), noise in zip(cells, self._noise):
                p, c = p / q, c / q
                logs.append((p, c, pp / q - p * p, pc / q - p * c, cc / q - c * c))
                floor += ratio * noise / q
            p, c, pp, pc, cc = (a - b for a, b in zip(*logs))
            return ratio, floor, (p, c), (pp, pc, cc)


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


def _screen_matrix(coef, noise):
    """(e, the floats of ``coef`` scaled by 2^-e, and the bound 32 U S' +
    ``noise`` 2^-e + ``_TINY`` of ``_screen``, S' the scaled |mass|); e is
    the binary exponent of the largest |entry|, 0 for a zero matrix.  Run
    at the landscape's precision; the scaling is exact."""
    e = mp.frexp(max(abs(c) for row in coef for c in row))[1]
    scaled = [[mp.ldexp(c, -e) for c in row] for row in coef]
    mass = float(mp.fsum(abs(c) for row in scaled for c in row))
    bound = 32 * _U * mass + float(mp.ldexp(noise, -e)) + _TINY
    return e, [[float(c) for c in row] for row in scaled], bound


def _cut(hi, shift, tol):
    """An upper bound of window(hi 2^shift) for a float ``hi`` > 0 (inf for
    any other): hi (1 + y + y^2) (1 + 64 U), y = tol ln 2 (|k + shift| + 1)
    for hi = m 2^k, m in [1/2, 1).  No libm enters: 10^(tol |log10 r|) =
    e^(tol |ln r|), |ln(hi 2^shift)| <= (|k + shift| + 1) ln 2, and e^y <=
    1 + y + y^2 for 0 <= y <= 1 (inf above).  The slack 64 U holds the few
    roundings of lo, hi and the cut, and that of the working-precision
    window."""
    if not hi > 0:
        return math.inf
    y = tol * (abs(math.frexp(hi)[1] + shift) + 1) * 0.6932
    return hi * (1 + y + y * y) * (1 + 64 * _U) if y <= 1 else math.inf


def _screen(land: PhaseLandscape, bases):
    """The rows and columns (indices into ``bases``) of the grid cells
    whose working-precision var/dsq can be the best or lie inside its
    window, from one binary64 pass over the grid that stores none of it;
    none where every cell is surely inf, and every row and column where
    some cell may be inf but none has a finite upper bound > 0.

    Each coefficient matrix C is scaled by 2^-e, e the binary exponent of
    its largest |entry| (``_screen_matrix``).  That is exact and keeps the
    floats C' in range:
    the CLI accepts gamma = kappa = 1e160 (coefficients of 4.5e333), r =
    400 (8.7e376) and alpha = 1e-200 (dsq coefficients of 4.5e-389).  The
    bases are the exact ``_trig_basis`` values rounded to floats, |b| <= 1,
    so no libm enters.

    The bound: with fl(a op b) = (a op b)(1 + d) + h and |d| <= U = 2^-53,
    each term u_r C'_rc v_c of a cell's float value meets at most 13
    roundings, one each converting C_rc, v_c and u_r and 5 in each of the
    two sequential length-5 dot products (a product and up to 4 sums).  So
    the float value lies within 13.01 U S' (S' = sum |C'|) of the exact
    contraction of the working-precision bases, plus under 128 2^-1074
    from underflow, below ``_TINY``.  The working-precision value lies
    within noise 2^-e of that contraction: ``_noise``, 10^-dps of the
    coefficient mass, is over 3 times the 2 2^-prec of it that mpmath's
    one rounding per dot product can add.  E = 32 U S' + noise 2^-e +
    _TINY takes over twice the 13; the rest covers the roundings of value
    -+ E, and for dsq E adds 4 U f for the rounding of the scaled floor f.

    A cell is surely inf where dsq + E <= f.  It may be inf where dsq - E
    <= f, and then has no upper bound.  Otherwise its ratio lies in [lo,
    hi] = [(var - E) / (dsq + E), (var + E) / (dsq - E)], in units of
    2^(e_var - e_dsq).  The best ratio is at most the least hi and window()
    rises, so a cell inside the final window has lo <= window(least hi) <=
    ``_cut``(least hi); a cell with lo above the cut of the running least
    hi is dropped.
    """
    (e_var, var, err_var), (e_dsq, dsq, err_dsq) = map(
        _screen_matrix, land._coefs, land._noise)
    floor = float(mp.ldexp(land.dsq_floor, -e_dsq))
    err_dsq += 4 * _U * floor
    floats = [[float(b) for b in basis] for basis in bases]
    halves = [[r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 + r4 * v4
               for r0, r1, r2, r3, r4 in var + dsq] for v0, v1, v2, v3, v4 in floats]
    tol, shift = float(land.tol), e_var - e_dsq
    hi_min = cut = math.inf
    kept = []
    for i, (u0, u1, u2, u3, u4) in enumerate(floats):
        for j, (a0, a1, a2, a3, a4, b0, b1, b2, b3, b4) in enumerate(halves):
            d = u0 * b0 + u1 * b1 + u2 * b2 + u3 * b3 + u4 * b4
            if d + err_dsq <= floor:
                continue  # surely inf
            v = u0 * a0 + u1 * a1 + u2 * a2 + u3 * a3 + u4 * a4
            lo = (v - err_var) / (d + err_dsq)
            if lo > cut:
                continue
            hi = (v + err_var) / (d - err_dsq) if d - err_dsq > floor else math.inf
            if hi < hi_min:
                hi_min, cut = hi, _cut(hi, shift, tol)
                kept = [c for c in kept if c[2] <= cut]
            kept.append((i, j, lo))
    if cut == math.inf and kept:
        return range(len(bases)), range(len(bases))
    return sorted({i for i, _, _ in kept}), sorted({j for _, j, _ in kept})


def _best_cell(land: PhaseLandscape, axis):
    """The grid cell (phi_p, phi_c) with the least var/dsq, so the least LOD.

    Cells whose LOD lies within the interpolant's tolerance of the best
    resolve to the smallest |phi_p| + |phi_c|, the first such cell in grid
    order.  LOD = 5 log10(ratio) is monotone in the ratio, so the cells
    are compared as ratios and the tolerance window on the LOD becomes the
    factor 10^(tol |log10 r|) on the best ratio r: window(r), which rises
    with r.  Where every ratio is inf, so is the window.

    Every ratio compared is the working-precision value of ``_values``, but
    only at the cells that the binary64 screen of ``_screen`` (rigorous
    rounding bounds) cannot exclude: the rows and columns of the cells it
    keeps, one or two of each on every point measured, go through the rule
    in grid order from one ``_values`` pass over their product.  The rule
    over any set of cells that holds the best cell and every cell inside
    its window picks what it picks over the whole grid.  The window shrinks
    with the running best, so the pass keeps only the cells inside the
    current window and takes one log10 per improvement.  Where the screen
    finds every cell surely inf, every cell is inside the window and no
    value is taken.
    """
    inf = mpf("inf")
    best, window, near = inf, inf, []
    with workdps(land.dps):
        bases = [_trig_basis(x) for x in axis]
        rows, cols = _screen(land, bases)
        if not rows:
            # every cell is inside the inf window.  A rounded sum never falls
            # as a term rises, so the least |phi_p| + |phi_c| is that of the
            # least sizes, and the first row that reaches it holds the cell.
            sizes = [abs(x) for x in axis]
            small = min(sizes)
            i = next(i for i, a in enumerate(sizes) if a + small == small + small)
            j = next(j for j, b in enumerate(sizes) if sizes[i] + b == small + small)
            return axis[i], axis[j]
        values = _values(land._coefs, [bases[i] for i in rows], [bases[j] for j in cols])
        for i, row in zip(rows, values):
            for j, value in zip(cols, row):
                ratio = land._ratio(*value)
                if ratio < best:
                    best = ratio
                    window = best * mpf(10) ** (land.tol * abs(log10(best)))
                    near = [c for c in near if c[1] <= window]
                if ratio <= window:
                    near.append(((axis[i], axis[j]), ratio))
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
        gap = abs(lod_from_ratio(land.ratio(xy)) - lod) / max(abs(lod), 1)
        return OptResult(
            phi_p=xy[0],
            phi_c=xy[1],
            value_db=lod + offset,
            grid_value_db=grid_lod + offset,
            iterations=iters,
            evaluations=grid_n * grid_n + ev2,
            converged=pd and stop in ("step", "flat"),
            check_digits=agreement_digits(gap, p.precision),
            stop_reason=stop,
            grad_norm=jet and 5 * mp.hypot(*jet[2]) / mp.ln10,
        )
