"""Phase optimization and sweeps."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, pi, workdps

import tsu11.metrology
import tsu11.optimize
import tsu11.sweep
from tsu11 import (
    CIRCUITS,
    AxisSpec,
    ConsistencyError,
    SweepGrid,
    UndefinedLodError,
    adjoint,
    build_su11_J,
    build_tsu11_J,
    coherent_expectation,
    coherent_moments,
    ladder,
    lod_db,
    lodi_db,
    make_params,
    mul,
    optimize_phases,
    report,
    run_sweep,
    vacuum_noise_map,
    variance,
)
from tsu11.circuits import LO_MODES, InterferometerParams, _operators, _r_free
from tsu11.interpolants import CHECK_MARGIN, check_fit, node_scales, tolerance
from tsu11.metrology import classical_point, lod_from_ratio
from tsu11.optimize import (
    CHECK_PHASES,
    NEWTON_MAX_ITER,
    PhaseLandscape,
    _best_cell,
    _real_coefficients,
    _trig_basis,
    _values,
    nelder_mead,
)
from tsu11.sweep import AxisLandscape, _axis_degree

from test_metrology import LODI_OPT_ETA1


def test_nelder_mead_quadratic():
    f = lambda x: (x[0] - mpf("0.3")) ** 2 + 2 * (x[1] + mpf("0.7")) ** 2
    (x, y), fx, iters, evals, converged = nelder_mead(f, (0, 0), step=mpf("0.5"))
    assert converged
    assert abs(x - mpf("0.3")) < mpf("1e-7")
    assert abs(y + mpf("0.7")) < mpf("1e-7")


def test_optimize_finds_phase_matched_minimum():
    # landscape minimum sits where both LO phases equal the sample phase
    p = make_params("paper-start", precision=40)
    res = optimize_phases(p, target="lodi", grid_n=16)
    with workdps(40):
        assert abs(res.phi_p - mpf("0.001")) < mpf("1e-4")
        assert abs(res.phi_c - mpf("0.001")) < mpf("1e-4")
        assert abs(res.value_db - mpf(LODI_OPT_ETA1)) < mpf("1e-6")
        assert res.converged
        # never worse than the seeding cell
        assert res.value_db <= res.grid_value_db


@pytest.mark.parametrize("eta", ["1", "0.8"])
def test_optimum_is_the_stationary_point_to_working_precision(eta):
    # the refinement lands on the landscape's stationary point to
    # 10^-(dps - CHECK_MARGIN), found here on a 120-digit landscape, and
    # value_db is the engine's LODI there to the same digits
    p = make_params("paper-start", eta=eta)
    ref = optimize_phases(p.replace(precision=120), grid_n=16)
    assert ref.converged and ref.grad_norm < mpf("1e-100")
    want = lodi_db(p.replace(precision=120, phi_p=ref.phi_p, phi_c=ref.phi_c)).lodi_db
    for grid_n in (16, 64):
        res = optimize_phases(p, grid_n=grid_n)
        with workdps(120):
            tol = mpf(10) ** (CHECK_MARGIN - p.precision)
            assert abs(res.phi_p - ref.phi_p) <= tol
            assert abs(res.phi_c - ref.phi_c) <= tol
            assert abs(res.value_db - want) <= mpf("1e-45") * abs(want)


@pytest.mark.parametrize("preset,overrides,options", [
    ("paper-start", {"s": "0.3", "eta_p2": "0.9", "eta_c2": "0.7"},
     {"target": "lod", "circuit": "su11"}),
    ("paper-start", {"arms": "probe-only"}, {}),
    ("g15", {}, {}),
    ("paper-start", {"r": "2", "theta_f": "0.3"}, {}),
    ("paper-start", {}, {"grid_n": 1}),
    ("paper-start", {}, {"grid_n": 2}),
])
def test_refinement_converges_within_the_cap(preset, overrides, options):
    # a line search that demands a strict decrease stalls in the rounding
    # noise of var/dsq at the su11 point; a decrease within the floor ends
    # the descent there instead
    res = optimize_phases(make_params(preset, **overrides), **{"grid_n": 16, **options})
    assert res.converged, res.stop_reason
    assert res.stop_reason in ("step", "flat")
    assert res.iterations < NEWTON_MAX_ITER
    assert res.value_db <= res.grid_value_db


def test_refinement_stopped_by_the_cap_is_not_converged(monkeypatch):
    monkeypatch.setattr(tsu11.optimize, "NEWTON_MAX_ITER", 1)
    res = optimize_phases(make_params("paper-start"), grid_n=16)
    assert (res.stop_reason, res.converged, res.iterations) == ("max_iter", False, 1)
    assert res.value_db <= res.grid_value_db


def test_refinement_worse_than_the_cell_keeps_the_cell(monkeypatch):
    newton = tsu11.optimize._newton

    def astray(land, objective, x, cell):
        y, *rest = newton(land, objective, x, cell)
        return ((y[0] + 1, y[1]), *rest)

    monkeypatch.setattr(tsu11.optimize, "_newton", astray)
    res = optimize_phases(make_params("paper-start"), grid_n=16)
    assert (res.stop_reason, res.converged, res.grad_norm) == ("grid", False, None)
    assert res.value_db == res.grid_value_db


def test_undefined_ratio_at_the_cell_is_not_converged(monkeypatch):
    monkeypatch.setattr(PhaseLandscape, "jet", lambda self, x: None)
    res = optimize_phases(make_params("paper-start"), grid_n=16)
    assert (res.stop_reason, res.converged, res.grad_norm) == ("undefined", False, None)
    assert res.value_db == res.grid_value_db


def test_basin_choice_independent_of_precision():
    # the landscape is invariant under (phi_p, phi_c) -> (phi_p + pi,
    # phi_c + pi); rounding dust must not pick the far basin
    values = {}
    for dps in (30, 40, 60):
        p = make_params("paper-start", precision=dps)
        res = optimize_phases(p, target="lodi", grid_n=16)
        with workdps(dps):
            assert abs(res.phi_p - p.theta_f) < mpf("1e-4")
            assert abs(res.phi_c - p.theta_f) < mpf("1e-4")
        values[dps] = res.value_db
    for dps in (30, 40):
        assert abs(values[dps] - values[60]) < mpf(10) ** (15 - dps)


#: parameter points covering every circuit and both arms settings; the
#: su11 point has s > 0, an unbalanced homodyne, beta != 0 and
#: eta_p1 != eta_c1
LANDSCAPE_POINTS = [
    ("classical", {"arms": "both"}),
    ("tsu11", {"eta_p1": "0.9", "eta_c1": "0.7", "arms": "probe-only"}),
    ("su11", {"s": "0.4", "eta_p1": "0.93", "eta_c1": "0.81", "eta_p2": "0.9",
              "eta_c2": "0.95", "eta_p3": "0.4", "eta_c3": "0.55", "beta": "3e5",
              "theta_f": "0.3"}),
    ("su11", {"s": "0.2", "eta_p3": "0.6", "beta": "-2e5", "eta_p1": "0.85",
              "arms": "probe-only"}),
    ("vacuum", {"alpha": "0", "eta": "0.9"}),
]

#: tsu11 points the CLI accepts whose coefficients leave binary64's range
#: (4.5e333 and 8.7e376) or fall below it (dsq down to 4.5e-389)
FLOAT_RANGE_POINTS = [{"gamma": "1e160", "kappa": "1e160"}, {"r": "400"}, {"alpha": "1e-200"}]


@pytest.mark.parametrize("circuit,overrides", LANDSCAPE_POINTS)
def test_landscape_is_exact_off_nodes(circuit, overrides):
    p = make_params("paper-start", **overrides)
    land = PhaseLandscape(p, circuit)
    rng = random.Random(11)
    with workdps(p.precision):
        for _ in range(5):
            pp, pc = mpf(rng.uniform(-3, 3)), mpf(rng.uniform(-3, 3))
            rep = report(circuit, p.replace(phi_p=pp, phi_c=pc))
            var, dsq = land.at(pp, pc)
            assert abs(var - rep.variance.real) <= mpf("1e-40") * land.var_scale
            assert abs(dsq - rep.dj_dphi_sq) <= mpf("1e-40") * land.dsq_scale


@pytest.mark.parametrize("overrides", [
    {"s": "0.3", "beta": "1e5", "eta_p3": "0.3"},
    {**LANDSCAPE_POINTS[2][1], "phi_p": "0.7", "phi_c": "-1.3"},
    {**LANDSCAPE_POINTS[3][1], "r": "2.4"},
])
def test_su11_variance_matches_product_route(overrides):
    # full su11 chains at realistic amplitudes: the displaced-vacuum
    # variance against <J.J> - <J>^2 from mul and coherent_expectation.
    # <J.J> exceeds var J by up to 1.7e16 here, so the product route
    # runs at 140 digits
    p = make_params("paper-start", **overrides)
    got = report("su11", p).variance
    J, _, state = build_su11_J(p.replace(precision=140))
    with workdps(140):
        mean = coherent_expectation(J, state)
        want = coherent_expectation(mul(J, J), state) - mean * mean
        assert abs(got - want) <= mpf("1e-55") * abs(want)


def _axis(n):
    """The optimizer's n-point grid axis over [-pi, pi); call it at the
    landscape's precision."""
    return [-pi + 2 * pi / n * i for i in range(n)]


def _grid(land, axis):
    """[((phi_p, phi_c), var/dsq)] over axis x axis, phi_p outer, every
    cell from one ``_values`` pass at the landscape's precision: the whole
    grid that ``_best_cell`` screens."""
    with workdps(land.dps):
        basis = [_trig_basis(x) for x in axis]
        return [((x, y), land._ratio(*value))
                for x, row in zip(axis, _values(land._coefs, basis, basis))
                for y, value in zip(axis, row)]


@pytest.mark.parametrize("circuit,overrides",
                         [("tsu11", {})] + [row for row in LANDSCAPE_POINTS if row[0] == "su11"])
def test_product_grid_matches_per_cell_landscape(circuit, overrides):
    # the separable grid reproduces PhaseLandscape.ratio bit for bit and
    # picks the cell the per-cell tie rule on the LOD picks
    p = make_params("paper-start", **overrides)
    land = PhaseLandscape(p, circuit)
    with workdps(p.precision):
        axis = _axis(16)
        lods = {}
        for xy, ratio in _grid(land, axis):
            assert ratio == land.ratio(xy)
            lods[xy] = lod_from_ratio(ratio)
        best = min(lods.values())
        tie = best + land.tol * abs(best)
        per_cell = min((xy for xy, v in lods.items() if v <= tie),
                       key=lambda xy: abs(xy[0]) + abs(xy[1]))
    assert _best_cell(land, axis) == per_cell


@pytest.mark.parametrize("circuit,overrides", LANDSCAPE_POINTS)
def test_grid_ratio_at_and_jet_agree_bit_for_bit(circuit, overrides):
    # every value of the landscape comes from one evaluator, so the grid,
    # the ratio, at() and the Newton jet agree to the last bit
    p = make_params("paper-start", **overrides)
    land = PhaseLandscape(p, circuit)
    with workdps(p.precision):
        for xy, ratio in _grid(land, _axis(16)):
            assert ratio == land.ratio(xy) == land._ratio(*land.at(*xy))
            jet = land.jet(xy)
            assert jet is None if ratio == mpf("inf") else jet[0] == ratio


def _node_values(coefs, basis):
    """The landscape's former per-node route, kept as an oracle:
    [[each of ``coefs`` at (x, y)] for x, y over ``basis``], x outer."""
    halves = [[[mp.fdot(row, v) for row in coef] for coef in coefs] for v in basis]
    return [[mp.fdot(u, h) for h in hs] for u in basis for hs in halves]


def _assert_scale_bound(scale, top):
    """``scale`` is finite, at least 1 and bounds ``top``, the largest
    value of its quantity sampled, up to 1e-40 of rounding; where ``top``
    is at least 1 it lies within a factor 2 of it, so the bound says
    something."""
    assert mp.isfinite(scale) and scale >= 1
    assert top <= scale * (1 + mpf("1e-40"))
    if top >= 1:
        assert scale <= 2 * top


@pytest.mark.parametrize("circuit,overrides", LANDSCAPE_POINTS + [
    ("tsu11", point) for point in FLOAT_RANGE_POINTS])
def test_scales_match_the_per_node_route(circuit, overrides):
    # the per-node route's values lie within the scales: coefficient
    # masses, which bound |var + <J>^2| and dsq between the 5 x 5 phases
    # 2 pi k / 5 too, where the largest node value falls short by up to
    # 10.5%.  They stay finite and at least 1 where the coefficients leave
    # binary64's range
    p = make_params("paper-start", **overrides)
    land = PhaseLandscape(p, circuit)
    rng = random.Random(7)
    with workdps(p.precision):
        J, _, state = CIRCUITS[circuit](p.replace(phi_p=0, phi_c=0))
        mean = _real_coefficients(coherent_moments(J, state, LO_MODES)[0], "mean")
        # the 25 nodes, 7 x 7 random phases and the mixed pairs
        phases = [2 * pi * k / 5 for k in range(5)] + [mpf(rng.uniform(-4, 4)) for _ in range(7)]
        cells = _node_values((mean,) + land._coefs, [_trig_basis(x) for x in phases])
        _assert_scale_bound(land.var_scale, max(abs(v + m * m) for m, v, _ in cells))
        _assert_scale_bound(land.dsq_scale, max(d for _, _, d in cells))


def _two_pass_cell(land, axis):
    """The rule ``_best_cell`` keeps, kept as an oracle in two passes over
    every cell of the grid at working precision: the least ratio fixes the
    window, then the first cell inside it with the least |phi_p| + |phi_c|."""
    cells = _grid(land, axis)
    with workdps(land.dps):
        best = min(ratio for _, ratio in cells)
        window = best * mpf(10) ** (land.tol * abs(mp.log10(best)))
        return min((xy for xy, ratio in cells if ratio <= window),
                   key=lambda xy: abs(xy[0]) + abs(xy[1]))


def _tilted(land, tilt):
    """``land`` with ``tilt`` times its constant var coefficient added on
    cos(phi_p), which the joint shift by pi turns over: of two mirror cells
    the far one (phi_p near pi) has the least ratio, and at a tilt below
    the tolerance the near one stays inside the window."""
    with workdps(land.dps):
        var = [row[:] for row in land._coefs[0]]
        var[1][0] += mpf(tilt) * var[0][0]
        land._coefs = (var, land._coefs[1])
    # the point the landscape keeps was evaluated before the tilt
    land._last = None
    return land


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("circuit,overrides,tilt", [("tsu11", {}, 0), ("tsu11", {}, "1e-50")] + [
    (*row, 0) for row in LANDSCAPE_POINTS if row[0] in ("su11", "vacuum")] + [
    ("tsu11", point, 0) for point in FLOAT_RANGE_POINTS])
def test_best_cell_matches_the_two_pass_rule(circuit, overrides, tilt, n):
    # the unseeded vacuum circuit has no derivative: every ratio, and so
    # the window, is inf, and every cell is inside it; so is alpha = 1e-200,
    # whose derivative lies below its rounding floor
    p = make_params("paper-start", **overrides)
    land = _tilted(PhaseLandscape(p, circuit), tilt)
    axis = _axis(n)
    cells = _grid(land, axis)
    all_inf = all(ratio == mpf("inf") for _, ratio in cells)
    assert all_inf == (circuit == "vacuum" or "alpha" in overrides)
    want = _two_pass_cell(land, axis)
    assert _best_cell(land, axis) == want
    if tilt:
        # the window, not the least ratio, picks the cell
        assert want != min(cells, key=lambda cell: cell[1])[0]


def test_screen_keeps_at_most_four_cells(monkeypatch):
    # paper-start at the CLI grid: the near cell and its mirror across the
    # joint pi shift tie, and nothing else comes near
    land = PhaseLandscape(make_params("paper-start"), "tsu11")
    reached = []
    values = tsu11.optimize._values

    def counted(coefs, us, vs):
        reached.append(len(us) * len(vs))
        return values(coefs, us, vs)

    monkeypatch.setattr(tsu11.optimize, "_values", counted)
    with workdps(land.dps):
        axis = _axis(64)
    _best_cell(land, axis)
    assert len(reached) == 1 and reached[0] <= 4


@pytest.mark.parametrize("circuit,overrides", [("tsu11", {"alpha": "1e-200"}),
                                               ("vacuum", {"alpha": "0"})])
def test_all_inf_grid_takes_no_value(monkeypatch, circuit, overrides):
    # every cell is surely inf, so inside the window: the rule picks the
    # first cell with the least |phi_p| + |phi_c| without a working-precision
    # value (128 ms at grid 64 when it took every cell's)
    land = PhaseLandscape(make_params("paper-start", **overrides), circuit)
    with workdps(land.dps):
        axis = _axis(64)
    want = _two_pass_cell(land, axis)
    monkeypatch.setattr(tsu11.optimize, "_values",
                        lambda *args: pytest.fail("the all-inf grid took a value"))
    assert _best_cell(land, axis) == want


def test_best_cell_leaves_the_callers_precision():
    land = PhaseLandscape(make_params("paper-start", precision=40), "tsu11")
    with workdps(40):
        axis = _axis(16)
    dps = mp.dps
    try:
        mp.dps = 15
        cell = _best_cell(land, axis)
        land.ratio(cell), land.jet(cell), land.at(*cell)
        assert mp.dps == 15
    finally:
        mp.dps = dps


def _landscape(coefs, dps, floor):
    """A landscape of the (var, dsq) coefficient matrices ``coefs`` and the
    dsq rounding floor ``floor``, with the attributes ``_best_cell`` reads."""
    land = object.__new__(PhaseLandscape)
    land.dps, land.tol, land._coefs, land.dsq_floor = dps, tolerance(dps), coefs, floor
    with workdps(dps):
        land._noise = [mp.fsum(abs(c) for row in m for c in row) / mpf(10) ** dps for m in coefs]
    return land


def _random_landscape(seed, dps):
    """Random coefficient matrices: var positive, each matrix at a scale
    2^k with |k| up to 1330 (10^+-400) and entries spread over 30 decades,
    both invariant under the joint pi shift but for a term near the
    window's size, and a dsq floor that makes some cells inf or lies
    within 1e-20 of the cell (0, 0)."""
    rng = random.Random(seed)
    tol = tolerance(dps)
    odd = [(a, b) for a in range(5) for b in range(5) if (a in (1, 2)) != (b in (1, 2))]
    with workdps(dps):
        coefs = []
        for _ in range(2):
            scale = mp.ldexp(1, rng.randint(-1330, 1330))
            coef = [[scale * mpf(rng.uniform(-1, 1)) * mpf(10) ** -rng.randint(0, 30)
                     * rng.choice((0, 1, 1, 1)) for _ in range(5)] for _ in range(5)]
            for a, b in odd:
                coef[a][b] *= rng.choice((0, 0, 1))
            a, b = rng.choice(odd)
            coef[a][b] += scale * tol * rng.choice((-1, 1)) * mpf(10) ** rng.uniform(-1, 3.5)
            coefs.append(coef)
        (var, dsq), tops = coefs, [max(abs(c) for row in m for c in row) for m in coefs]
        var[0][0], dsq[0][0] = 25 * tops[0], tops[1] * rng.uniform(0, 30)
        # or the floor at the cell (0, 0), where cos = cos 2 = 1 and sin = sin 2 = 0
        at_zero = mp.fsum(dsq[a][b] for a in (0, 1, 3) for b in (0, 1, 3))
        floor = rng.choice([tops[1] * f for f in (0, 0.01, 0.1, 1, 40)] +
                           [abs(at_zero) * (1 + mpf(f)) for f in ("-1e-20", "1e-20")])
    return _landscape((var, dsq), dps, floor)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([30, 60]), st.sampled_from([1, 2, 5, 16]))
# cases that the screen gets wrong without the window factor or its slack
# (41), without the bound in the surely-inf test (66) or in the finite-hi
# test (75)
@example(41, 30, 2)
@example(66, 30, 2)
@example(75, 60, 2)
def test_screened_best_cell_matches_the_two_pass_rule_property(seed, dps, n):
    land = _random_landscape(seed, dps)
    with workdps(dps):
        axis = _axis(n)
    assert _best_cell(land, axis) == _two_pass_cell(land, axis)


def test_screen_hands_a_may_be_inf_row_the_whole_grid():
    # dsq = A (1 - cos phi_p) / 2 peaks at phi_p = -pi, 1e-20 of A below the
    # floor: binary64 cannot tell that row from the floor, every other cell
    # is surely inf, and at working precision every ratio is inf; so the
    # rule takes the cell nearest (0, 0), which that row does not hold
    with workdps(30):
        var, dsq = ([[mpf(0)] * 5 for _ in range(5)] for _ in range(2))
        var[0][0], dsq[0][0], dsq[1][0] = mpf(1), mpf(1) / 2, -mpf(1) / 2
        land = _landscape((var, dsq), 30, 1 + mpf("1e-20"))
        axis = _axis(16)
    want = _two_pass_cell(land, axis)
    assert want == (axis[8], axis[8])
    assert _best_cell(land, axis) == want


@pytest.mark.parametrize("dps", [30, 60])
def test_all_inf_grid_breaks_rounded_ties_in_grid_order(dps):
    # sizes 1 + 1 ulp and 1: (1 + ulp) + 1 rounds (half to even) to 2, so
    # the first row already holds a cell of the least rounded size
    with workdps(dps):
        var, dsq = ([[mpf(0)] * 5 for _ in range(5)] for _ in range(2))
        var[0][0] = mpf(1)
        land = _landscape((var, dsq), dps, mpf(1))
        axis = [-(1 + mp.eps), mpf(1)]
    want = _two_pass_cell(land, axis)
    assert want == (axis[0], axis[1])
    assert _best_cell(land, axis) == want


@pytest.mark.parametrize("offset", ["-1", "-1e-30", "1e-30"])
@pytest.mark.parametrize("dps", [30, 60])
def test_screen_at_the_cancellation_edge(dps, offset):
    # var and dsq are (1 + eps) + cos(phi_p + phi_c) times a scale, so both
    # cancel to eps on the cells where phi_p + phi_c = +-pi: there the
    # binary64 values carry 1e-4 relative error, the ratios tie to working
    # precision and the rounding of |phi_p| + |phi_c| picks the cell; with
    # the floor at (1 + offset) eps_dsq those cells sit just above or below it
    with workdps(dps):
        eps_var, eps_dsq = mpf("1e-13"), mpf("1e-12")
        coefs = []
        for scale, eps in ((mp.ldexp(3, 900), eps_var), (mp.ldexp(5, -1100), eps_dsq)):
            coef = [[mpf(0)] * 5 for _ in range(5)]
            coef[0][0], coef[1][1], coef[2][2] = (1 + eps) * scale, scale, -scale
            coefs.append(coef)
        land = _landscape(tuple(coefs), dps, eps_dsq * mp.ldexp(5, -1100) * (1 + mpf(offset)))
        axis = _axis(16)
    assert _best_cell(land, axis) == _two_pass_cell(land, axis)


def test_optimize_builds_each_operator_once():
    # the LO phases live in the state, so the whole optimization, classical
    # reference included, builds one tsu11 and one classical operator
    _operators.cache_clear()
    optimize_phases(make_params("paper-start"), grid_n=16)
    info = _operators.cache_info()
    assert info.misses <= 2
    assert info.hits > 0


@pytest.mark.parametrize("preset,halves", [("g15", 2), ("paper-start", 1)])
def test_r_sweep_builds_each_r_free_half_once(preset, halves):
    # a tsu11 LODI sweep off r = 0 builds 5 operators, its 3 nodes, its
    # check and the classical chain at r = 0, on one r-free half per
    # circuit, tsu11 and classical: a new r costs only its squeezer
    # weights.  Without internal loss the classical chain, which drops the
    # squeezer and the loss, shares the tsu11 chain's half
    _operators.cache_clear()
    _r_free.cache_clear()
    run_sweep(SweepGrid(axes=(AxisSpec("r", "0.01", 3, 61),), base=make_params(preset),
                        target="lodi"))
    assert _operators.cache_info().misses == 5
    assert _r_free.cache_info().misses == halves


def _count_fdot(monkeypatch):
    """A list whose length counts the working-precision ``mp.fdot`` calls
    made from here on."""
    calls, fdot = [], mp.fdot

    def counted(*args):
        calls.append(args)
        return fdot(*args)

    monkeypatch.setattr(mp, "fdot", counted)
    return calls


def test_working_precision_dot_products_are_pinned(monkeypatch):
    # a landscape's only working-precision dot products are those of its
    # check (10 halves, 2 values); its scales are coefficient masses.  A run
    # adds 28 for the 2 x 2 kept grid cells, 42 for Newton's first jet, 12
    # per line-search trial and 30 per accepted point's jet, and its final
    # ratio reuses Newton's last point: 208 where the working-precision
    # scales and full jets took 430
    p = make_params("paper-start")
    _operators.cache_clear()
    calls = _count_fdot(monkeypatch)
    PhaseLandscape(p, "tsu11")
    assert len(calls) == 12
    _operators.cache_clear()
    calls.clear()
    optimize_phases(p, grid_n=16)
    assert len(calls) == 208


def test_r_sweep_row_work_is_pinned(monkeypatch):
    # a landscape builds parameters for its precision, the classical LO
    # phases and its 2 x (3 nodes + check) reports: 10.  The classical
    # builds key their chain without parameters.  A 61-point r run adds
    # one, its lowest point's, and none per row; it takes one exp per row
    # and one for the check
    p = make_params("paper-start")
    replaces, exps = [], []
    replace, mpf_exp = InterferometerParams.replace, tsu11.sweep.mpf_exp
    monkeypatch.setattr(InterferometerParams, "replace",
                        lambda self, **changes: replaces.append(changes) or replace(self, **changes))
    monkeypatch.setattr(tsu11.sweep, "mpf_exp", lambda *args: exps.append(args) or mpf_exp(*args))
    AxisLandscape(p, (2, 1), (mpf(0), mpf(3)),
                  [("tsu11", lambda q: q), ("classical", classical_point)]).check()
    assert (len(replaces), len(exps)) == (10, 1)
    replaces.clear()
    exps.clear()
    rows = run_sweep(SweepGrid(axes=(AxisSpec("r", 0, 3, 61),), base=p, target="lodi"))
    assert {row["route"] for row in rows} == {"interpolant"}
    assert (len(replaces), len(exps)) == (11, 62)


def test_each_expression_is_normal_ordered_once(monkeypatch):
    # a run meets 4 distinct expressions, J and dJ of the tsu11 and the
    # classical operator; the kernel orders each once, on its first
    # report, and stores its exact form, so a run makes 4 normal_order
    # calls
    forms, normal_order = [], tsu11.algebra.normal_order

    def recorded(x):
        forms.append(normal_order(x))
        return forms[-1]

    monkeypatch.setattr(tsu11.algebra, "normal_order", recorded)
    _operators.cache_clear()
    optimize_phases(make_params("paper-start"), grid_n=16)
    assert len(forms) == 4
    assert len({id(form) for form in forms}) == 4


@pytest.mark.parametrize("circuit,overrides", LANDSCAPE_POINTS)
def test_jet_after_ratio_is_the_cold_jet(monkeypatch, circuit, overrides):
    # Newton's jet at the point its line search just accepted reuses that
    # evaluation (30 dot products, not 42) and takes the same bits
    p = make_params("paper-start", **overrides)
    land = PhaseLandscape(p, circuit)
    rng = random.Random(3)
    calls = _count_fdot(monkeypatch)
    with workdps(p.precision):
        points = [(mpf(rng.uniform(-3, 3)), mpf(rng.uniform(-3, 3))) for _ in range(3)]
    for x, elsewhere in zip(points, points[1:] + points[:1]):
        land.ratio(elsewhere)
        calls.clear()
        cold = land.jet(x)
        cold_calls = len(calls)
        land.ratio(x)
        calls.clear()
        assert land.jet(x) == cold
        if cold is not None:
            assert (cold_calls, len(calls)) == (42, 30)


def test_lod_target_value_is_engine_lod_at_returned_phases():
    overrides = dict(LANDSCAPE_POINTS[2][1])
    p = make_params("paper-start", **overrides)
    res = optimize_phases(p, target="lod", circuit="su11", grid_n=8)
    rep = report("su11", p.replace(phi_p=res.phi_p, phi_c=res.phi_c))
    with workdps(p.precision):
        assert res.value_db == rep.lod_db
        assert res.value_db <= res.grid_value_db
    assert res.route == "interpolant" and res.check_digits > 40


def _node_dft(circuit, p):
    """The landscape's former route, kept as an oracle: engine reports at
    the 5 x 5 LO phases 2 pi k / 5 and their exact 2-D DFT onto the real
    basis (var, dsq coefficients), with the node scales of those reports."""
    with workdps(p.precision):
        nodes = [2 * pi * k / 5 for k in range(5)]
        reps = [[report(circuit, p.replace(phi_p=x, phi_c=y)) for y in nodes] for x in nodes]
        weights = (mpf(1) / 5,) + (mpf(2) / 5,) * 4
        proj = [[w * b for b in col]
                for w, col in zip(weights, zip(*map(_trig_basis, nodes)))]

        def fit(values):
            half = [[mp.fdot(row, col) for col in zip(*values)] for row in proj]
            return [[mp.fdot(h, row) for row in proj] for h in half]

        scales = node_scales((r.second_moment, r.dj_dphi_sq) for row in reps for r in row)
        return (fit([[r.variance.real for r in row] for row in reps]),
                fit([[r.dj_dphi_sq for r in row] for row in reps]), scales)


@pytest.mark.parametrize("circuit,overrides", LANDSCAPE_POINTS)
def test_graded_coefficients_match_the_node_dft(circuit, overrides):
    # one graded pass gives the coefficients that 25 node reports fix
    p = make_params("paper-start", **overrides)
    land = PhaseLandscape(p, circuit)
    var, dsq, scales = _node_dft(circuit, p)
    with workdps(p.precision):
        for got, want, scale, node_scale in zip(land._coefs, (var, dsq),
                                                (land.var_scale, land.dsq_scale), scales):
            gap = max(abs(g - w) for gs, ws in zip(got, want) for g, w in zip(gs, ws))
            assert gap <= mpf("1e-50") * scale
            _assert_scale_bound(scale, node_scale)


def test_charge_beyond_degree_two_raises(monkeypatch):
    # a g.g term makes J quadratic in the probe LO: its pairs with the
    # linear terms put charges 3 and 4 on phi_p into var J, which a fit
    # from 5 nodes per axis would alias silently
    def with_gg(p):
        J, dJ, state = build_tsu11_J(p)
        gg = mul(ladder("g"), ladder("g"))
        return J + gg + adjoint(gg), dJ, state

    monkeypatch.setitem(CIRCUITS, "tsu11", with_gg)
    with pytest.raises(ConsistencyError, match="variance has charge -?[34] on phi_p"):
        PhaseLandscape(make_params("paper-start"), "tsu11")


def test_perturbed_coefficient_raises_consistency_error(monkeypatch):
    calls = []

    def counted(circuit, q):
        calls.append(q)
        return report(circuit, q)

    monkeypatch.setattr(tsu11.optimize, "report", counted)
    p = make_params("paper-start")
    PhaseLandscape(p, "tsu11")
    # a landscape takes one engine report: the check off the nodes
    assert [(q.phi_p, q.phi_c) for q in calls] == [CHECK_PHASES]

    moments = tsu11.optimize.coherent_moments

    def perturbed(J, state, phased):
        mean, var = moments(J, state, phased)
        with workdps(J.dps):
            var[0, 0] *= 1 + mpf("1e-20")
        return mean, var

    monkeypatch.setattr(tsu11.optimize, "coherent_moments", perturbed)
    calls.clear()
    with pytest.raises(ConsistencyError, match="interpolant"):
        optimize_phases(p, grid_n=4)
    # the failure comes from the self-check, before any grid evaluation
    assert len(calls) == 1


def test_optimize_rejects_unknown_target():
    with pytest.raises(ValueError):
        optimize_phases(make_params("paper-start"), target="variance")


def test_optimize_refuses_undefined_lod():
    # unseeded: the classical reference has no LOD, nor does the vacuum
    # circuit at any LO phases
    p = make_params("paper-start", alpha=0, precision=30)
    with pytest.raises(UndefinedLodError, match="classical reference"):
        optimize_phases(p, target="lodi", grid_n=2)
    for grid_n in (2, 16):
        with pytest.raises(UndefinedLodError, match="best grid cell"):
            optimize_phases(p, target="lod", circuit="vacuum", grid_n=grid_n)


def test_optimize_rejects_empty_grid():
    with pytest.raises(ValueError, match="grid_n"):
        optimize_phases(make_params("paper-start"), grid_n=0)


def test_lodi_value_is_engine_lodi_at_returned_phases():
    # the classical offset is taken at the working precision, whatever
    # the caller's ambient precision (the test suite otherwise runs at 60);
    # su11 differs from tsu11 only through its second stage, s > 0
    for circuit, p in (("tsu11", make_params("paper-start")),
                       ("su11", make_params("paper-start", s="0.3"))):
        with workdps(15):
            res = optimize_phases(p, target="lodi", circuit=circuit, grid_n=4)
        rep = lodi_db(p.replace(phi_p=res.phi_p, phi_c=res.phi_c), circuit)
        with workdps(p.precision):
            assert abs(res.value_db - rep.lodi_db) < mpf("1e-40")


def test_objective_mirror_symmetry_at_zero_rotation():
    # with theta_f = 0 the landscape is invariant under joint phase negation
    p = make_params("paper-start", theta_f=0, precision=40)
    rng = random.Random(7)
    for _ in range(5):
        pp, pc = rng.uniform(-3, 3), rng.uniform(-3, 3)
        with workdps(40):
            a = lod_db("tsu11", p.replace(phi_p=pp, phi_c=pc))
            b = lod_db("tsu11", p.replace(phi_p=-pp, phi_c=-pc))
            assert abs(a - b) < mpf("1e-25")


class TestSweep:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AxisSpec("r", 0, 1, 1)
        with pytest.raises(ValueError):
            AxisSpec("alpha", 0, 10, 5, log=True)
        with pytest.raises(ValueError):
            SweepGrid(axes=(AxisSpec("bogus", 0, 1, 3),),
                      base=make_params("paper-start"))
        with pytest.raises(ValueError):
            SweepGrid(axes=(AxisSpec("r", 0, 1, 3),),
                      base=make_params("paper-start"), target="fidelity")
        with pytest.raises(ValueError):
            SweepGrid(axes=(AxisSpec("r", 0, 1, 3),),
                      base=make_params("paper-start"), circuit="nope")
        with pytest.raises(KeyError):
            make_params("nope")

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_vacuum_seed_axis_is_refused(self, field):
        # the vacuum circuit is unseeded, so a seed axis would write error
        # rows; every other circuit sweeps the seed
        p = make_params("paper-start", alpha=0, beta=0)
        axes = (AxisSpec(field, 0, 1, 3),)
        with pytest.raises(ValueError, match=f"^the vacuum circuit forces {field} = 0: "
                                             f"sweep axis '{field}' would not move it$"):
            SweepGrid(axes=axes, base=p, target="variance", circuit="vacuum")
        for circuit in ("classical", "tsu11", "su11"):
            SweepGrid(axes=axes, base=p, target="variance", circuit=circuit)

    def test_deterministic(self):
        p = make_params("paper-start", precision=40, phi_p="0.001", phi_c="0.001")
        grid = SweepGrid(axes=(AxisSpec("r", 0, 1.5, 7),), base=p, target="lodi")
        rows1 = run_sweep(grid)
        rows2 = run_sweep(grid)
        assert rows1 == rows2

    def test_r_sweep_shape(self):
        # LODI deepens with squeezing until the seed shot-noise term takes
        # over (minimum near r ~ 2.65 at these amplitudes), so assert the
        # monotone fall on the low-r side only
        p = make_params("paper-start", precision=40, phi_p="0.001", phi_c="0.001")
        grid = SweepGrid(axes=(AxisSpec("r", 0, 2.4, 13),), base=p, target="lodi")
        rows = run_sweep(grid)
        assert len(rows) == 13
        with workdps(40):
            vals = [row["value"] for row in rows]
            assert all(v <= mpf("1e-10") for v in vals)
            assert all(b <= a + mpf("1e-12") for a, b in zip(vals, vals[1:]))

    def test_eta_sweep_r0_curves_coincide(self):
        p = make_params("paper-start", r=0, precision=40,
                        phi_p="0.001", phi_c="0.001")
        axes = (AxisSpec("eta", 0.1, 1.0, 7),)
        lod_q = run_sweep(SweepGrid(axes=axes, base=p, target="lod", circuit="tsu11"))
        lod_c = run_sweep(SweepGrid(axes=axes, base=p, target="lod", circuit="classical"))
        with workdps(40):
            for a, b in zip(lod_q, lod_c):
                assert abs(a["value"] - b["value"]) < mpf("1e-6")

    def test_alpha_sweep_advantage_shrinks(self):
        p = make_params("paper-start", precision=40, phi_p="0.001", phi_c="0.001")
        grid = SweepGrid(
            axes=(AxisSpec("alpha", 2e6, 2e8, 3, log=True),), base=p, target="lodi"
        )
        rows = run_sweep(grid)
        with workdps(40):
            assert rows[0]["value"] < rows[1]["value"] < rows[2]["value"]
            assert rows[-1]["value"] > mpf("-1.0")  # advantage nearly gone

    def test_gamma_sweep_saturates(self):
        p = make_params("paper-start", precision=40, phi_p="0.001", phi_c="0.001")
        grid = SweepGrid(
            axes=(AxisSpec("gamma_kappa", 2e8, 2e10, 3, log=True),),
            base=p, target="lodi",
        )
        rows = run_sweep(grid)
        with workdps(40):
            step1 = abs(rows[1]["value"] - rows[0]["value"])
            step2 = abs(rows[2]["value"] - rows[1]["value"])
            assert step2 < step1  # improvement slope collapses
            assert step2 < mpf("0.001")

    def test_per_point_failure_recorded(self):
        p = make_params("paper-start", precision=40)
        grid = SweepGrid(axes=(AxisSpec("alpha", 0.0, 1e3, 2),), base=p, target="lodi")
        rows = run_sweep(grid)
        assert rows[0]["value"] is None
        assert "undefined" in rows[0]["error"]
        assert rows[1]["value"] is not None and rows[1]["error"] == ""

    def test_two_axis_ordering(self):
        p = make_params("paper-start", precision=40, phi_p="0.001", phi_c="0.001")
        grid = SweepGrid(
            axes=(AxisSpec("r", 0, 1, 2), AxisSpec("eta", 0.5, 1.0, 2)),
            base=p, target="lodi",
        )
        rows = run_sweep(grid)
        assert len(rows) == 4
        # outer axis varies slowest
        assert rows[0]["r"] == rows[1]["r"]
        assert rows[0]["eta"] != rows[1]["eta"]


def _per_point(circuit, target, p):
    """(value, scale) of the sweep target at p straight from the metrology
    functions; a LODI is scaled by the larger |LOD| it is taken from."""
    if target == "lod":
        value = lod_db(circuit, p)
        return value, abs(value)
    if target == "lodi":
        rep = lodi_db(p, circuit)
        return rep.lodi_db, max(abs(rep.lod_tsu11_db), abs(rep.lod_classical_db))
    J, _, state = CIRCUITS[circuit](p)
    value = variance(J, state).real
    return value, abs(value)


def _assert_rows_match_engine(grid, rows):
    """Each row is the per-point value within 10^(10 - precision) of its
    scale (1e-50 at 60 digits), or the per-point error."""
    dps = grid.base.precision
    with workdps(dps):
        for row in rows:
            fields = {f: row[name] for f, name in grid.owner.items()}
            try:
                want, scale = _per_point(grid.circuit, grid.target,
                                         grid.base.replace(**fields))
            except (UndefinedLodError, ValueError) as exc:
                assert row["value"] is None and row["error"] == str(exc)
                assert row["route"] == "engine"
                continue
            assert row["error"] == ""
            assert abs(row["value"] - want) <= mpf(10) ** (10 - dps) * scale, row


#: unbalanced homodyne with s > 0: the r basis needs degree 4
SU11_K4 = {"s": "0.3", "beta": "1e5", "eta_p3": "0.3"}


class TestSweepInterpolant:
    """The innermost r axis of a sweep runs on an exact interpolant fitted
    from engine reports."""

    @pytest.mark.parametrize("circuit,target,axis,overrides", [
        ("tsu11", "lodi", AxisSpec("r", 0, 3, 13), {}),
        ("classical", "lod", AxisSpec("r", 0.1, 2.5, 9), {}),
        ("su11", "lod", AxisSpec("r", 0, 2, 11), SU11_K4),
        ("su11", "lodi", AxisSpec("r", 0, 2, 11), SU11_K4),
        ("tsu11", "lodi", AxisSpec("r", 0, 3, 9), {"arms": "probe-only"}),
        ("vacuum", "variance", AxisSpec("r", 0, 2, 9), {"alpha": "0"}),
        # e^{4r} over 35 decades, and nodes 1e-6 apart
        ("su11", "lod", AxisSpec("r", 0.01, 20, 11, log=True), SU11_K4),
        ("tsu11", "lod", AxisSpec("r", 1, 1.000001, 9), {}),
    ])
    def test_rows_equal_per_point_engine(self, circuit, target, axis, overrides):
        p = make_params("paper-start", **overrides)
        grid = SweepGrid(axes=(axis,), base=p, target=target, circuit=circuit)
        rows = run_sweep(grid)
        assert {row["route"] for row in rows} == {"interpolant"}
        assert {row["check_digits"] for row in rows} == {60.0}
        _assert_rows_match_engine(grid, rows)

    @pytest.mark.parametrize("hi", [20, 30])
    def test_wide_span_keeps_every_digit(self, hi):
        # the fit loses about (K - 1)(hi - lo) / ln 10 digits at the bottom
        # of the span, where var is decades below the top node's; with a
        # fixed guard these rows are off by 1e-57 (hi = 20) and 1e-41 (30)
        p = make_params("paper-start", **SU11_K4)
        grid = SweepGrid(axes=(AxisSpec("r", 0, hi, 13),), base=p, target="variance",
                         circuit="su11")
        rows = run_sweep(grid)
        assert {row["route"] for row in rows} == {"interpolant"}
        with workdps(100):
            for row in rows:
                want, scale = _per_point("su11", "variance", p.replace(r=row["r"],
                                                                        precision=100))
                assert abs(row["value"] - want) <= mpf(10) ** (2 - p.precision) * scale, row

    def test_span_past_the_guard_cap_stays_per_point(self):
        # the interpolant's guard would be 86,879 digits over r in [0, 1e5]
        grid = SweepGrid(axes=(AxisSpec("r", 0, 1e5, 9),), base=make_params("paper-start"),
                         target="lodi")
        rows = run_sweep(grid)
        assert {(row["route"], row["check_digits"]) for row in rows} == {("engine", None)}
        _assert_rows_match_engine(grid, rows)

    @pytest.mark.parametrize("circuit,target,axis,overrides", [
        ("su11", "lodi", AxisSpec("phi", -3, 3, 11), SU11_K4),
        ("tsu11", "lod", AxisSpec("phi_p", -3, 3, 9), {"eta": "0.9"}),
        ("tsu11", "lodi", AxisSpec("phi_c", -1, 1, 9), {"arms": "probe-only"}),
        ("vacuum", "variance", AxisSpec("phi", -3, 3, 9), {"alpha": "0", "eta": "0.8"}),
    ])
    def test_phase_axes_stay_per_point(self, circuit, target, axis, overrides):
        p = make_params("paper-start", **overrides)
        grid = SweepGrid(axes=(axis,), base=p, target=target, circuit=circuit)
        rows = run_sweep(grid)
        assert {(row["route"], row["check_digits"]) for row in rows} == {("engine", None)}
        _assert_rows_match_engine(grid, rows)

    def test_degree_rule(self):
        p = make_params("paper-start", **SU11_K4)
        assert [_axis_degree(c, p) for c in ("tsu11", "classical", "vacuum", "su11")] == \
            [(2, 1)] * 3 + [(1, 4)]
        assert _axis_degree("su11", p.replace(eta_p3="0.5")) == (2, 1)
        assert _axis_degree("su11", p.replace(eta_p3="0.5", eta_c3="0.6")) == (1, 4)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["tsu11", "classical", "vacuum", "su11"]),
           st.sampled_from(["both", "probe-only"]),
           st.lists(st.floats(0, 1), min_size=4, max_size=4),
           st.floats(0, 1.5), st.floats(-7, 7), st.sampled_from(["-3e5", "2e3", "1e6"]),
           st.floats(0, 2), st.floats(0.05, 4), st.floats(0.01, 0.99))
    def test_even_basis_is_exact_at_balanced_homodynes_property(
            self, circuit, arms, etas, s, theta_f, beta, lo, width, at):
        # every balanced point of the CLI's domain lies in span{e^-2r, 1,
        # e^2r}: the 3-node fit meets its check and an engine report at a
        # random point of the span within the tolerance
        seeds = {"alpha": 0, "beta": 0} if circuit == "vacuum" else {"beta": beta}
        p = make_params("paper-start", arms=arms, s=s, theta_f=theta_f, **seeds,
                        **dict(zip(("eta_p1", "eta_c1", "eta_p2", "eta_c2"), etas)))
        basis = _axis_degree(circuit, p)
        assert basis == (2, 1)
        land = AxisLandscape(p, basis, (mpf(lo), mpf(lo) + mpf(width)),
                             [(circuit, lambda q: q)])
        land.check()
        with workdps(land.dps):
            r = mpf(lo) + mpf(width) * mpf(at)
            (fit,) = land.at(r)
            check_fit(fit, report(circuit, p.replace(r=r, precision=land.dps)), fit[2],
                      tolerance(land.dps), "even r fit", f"r = {r}")

    @pytest.mark.parametrize("s", ["0.3", "0"])
    def test_unbalanced_su11_misses_the_even_basis(self, monkeypatch, s):
        # an unbalanced homodyne puts odd powers of e^r in the moments: the
        # even fit misses by 9.5e-7 of the node scale (4.4e-20 at s = 0),
        # against a tolerance of 1e-67 at the guard precision
        monkeypatch.setattr(tsu11.sweep, "_axis_degree", lambda c, p: (2, 1))
        grid = SweepGrid(axes=(AxisSpec("r", 0, 2, 13),),
                         base=make_params("paper-start", **{**SU11_K4, "s": s}),
                         target="lod", circuit="su11")
        with pytest.raises(ConsistencyError, match="interpolant misses the engine"):
            run_sweep(grid)

    @pytest.mark.parametrize("circuit,target,axis,overrides,reports", [
        # 3 nodes and the check, for the circuit and the classical reference
        ("tsu11", "lodi", AxisSpec("r", 0, 3, 61), {}, 8),
        # 9 nodes and the check
        ("su11", "lod", AxisSpec("r", 0, 2, 61), SU11_K4, 10),
    ])
    def test_engine_report_count(self, monkeypatch, circuit, target, axis, overrides,
                                 reports):
        calls = []

        def counted(c, q):
            calls.append(c)
            return report(c, q)

        monkeypatch.setattr(tsu11.sweep, "report", counted)
        monkeypatch.setattr(tsu11.metrology, "report", counted)
        grid = SweepGrid(axes=(axis,), base=make_params("paper-start", **overrides),
                         target=target, circuit=circuit)
        assert {row["route"] for row in run_sweep(grid)} == {"interpolant"}
        assert len(calls) == reports

    def test_two_axis_sweep_keeps_row_order(self):
        p = make_params("paper-start", precision=40)
        grid = SweepGrid(axes=(AxisSpec("eta", 0.8, 1.0, 3), AxisSpec("r", 0, 3, 9)),
                         base=p, target="lodi")
        rows = run_sweep(grid)
        with workdps(40):
            order = [(eta, r) for eta in grid.axes[0].points(40)
                     for r in grid.axes[1].points(40)]
        assert [(row["eta"], row["r"]) for row in rows] == order
        assert {row["route"] for row in rows} == {"interpolant"}
        _assert_rows_match_engine(grid, rows)

    def test_out_of_domain_rows_stay_per_point(self):
        # nodes span the in-domain points only; r < 0 rows are error rows
        grid = SweepGrid(axes=(AxisSpec("r", -1, 3, 17),), base=make_params("paper-start"),
                         target="lodi")
        rows = run_sweep(grid)
        assert [row["route"] for row in rows] == ["engine"] * 4 + ["interpolant"] * 13
        assert all(row["value"] is None for row in rows[:4])
        _assert_rows_match_engine(grid, rows)

    def test_short_run_stays_per_point(self):
        # 4 points cost no more reports per point than the even fit's 3
        # nodes and its check; 5 take the interpolant
        routes = [{row["route"] for row in run_sweep(SweepGrid(
            axes=(AxisSpec("r", 0, 3, n),), base=make_params("paper-start")))}
            for n in (4, 5)]
        assert routes == [{"engine"}, {"interpolant"}]

    def test_rows_at_the_derivative_floor_stay_per_point(self):
        # with both LO phases a quarter turn from the sample phase, d<J>/dphi
        # vanishes but for the rounding of the phases: every interpolated
        # derivative lies below its floor and the engine takes the row
        with workdps(60):
            quarter = mpf("0.001") + pi / 2
        grid = SweepGrid(axes=(AxisSpec("r", 0, 3, 9),),
                         base=make_params("paper-start", phi_p=quarter, phi_c=quarter))
        rows = run_sweep(grid)
        assert {row["route"] for row in rows} == {"engine"}
        _assert_rows_match_engine(grid, rows)

    def test_refused_node_report_falls_back_per_point(self):
        # the seeded base refuses the vacuum circuit at the fit's first
        # node; the run goes to the engine, which records the refusal per row
        grid = SweepGrid(axes=(AxisSpec("r", 0, 1, 9),), base=make_params("paper-start"),
                         circuit="vacuum")
        rows = run_sweep(grid)
        assert len(rows) == 9
        assert {(row["route"], row["value"], row["error"]) for row in rows} == {
            ("engine", None, "vacuum circuit requires alpha = beta = 0")}

    def test_undefined_rows_keep_the_engine_message(self):
        # a conjugate seed alone leaves the classical reference unseeded:
        # every interpolated classical derivative is zero
        p = make_params("paper-start", alpha=0, beta="1e6")
        grid = SweepGrid(axes=(AxisSpec("r", 0, 3, 13),), base=p, target="lodi")
        rows = run_sweep(grid)
        assert all(row["route"] == "engine" and row["value"] is None for row in rows)
        assert {row["error"] for row in rows} == {
            "classical reference LOD undefined: the phase derivative of its <J> vanishes"}
        _assert_rows_match_engine(grid, rows)

    @pytest.mark.parametrize("circuit,axis,overrides", [
        ("tsu11", AxisSpec("r", 0, 3, 13), {}),
        ("su11", AxisSpec("r", 0, 2, 13), SU11_K4),
    ])
    def test_degree_one_too_low_raises(self, monkeypatch, circuit, axis, overrides):
        # span{e^{kr}, |k| <= K - 1}, K the basis' largest |k|: for tsu11
        # span{e^-r, 1, e^r}, as many nodes as its even basis
        def one_step_less(c, p):
            step, degree = _axis_degree(c, p)
            return 1, step * degree - 1

        monkeypatch.setattr(tsu11.sweep, "_axis_degree", one_step_less)
        grid = SweepGrid(axes=(axis,), base=make_params("paper-start", **overrides),
                         target="lod", circuit=circuit)
        with pytest.raises(ConsistencyError, match="interpolant misses the engine"):
            run_sweep(grid)

    def test_engine_check_failure_is_an_error_row(self, monkeypatch):
        # a per-point ConsistencyError (the variance audit) stays in its
        # row; only the interpolant check aborts the sweep
        def audit_fails_once(circuit, q):
            if q.eta_p1 == 1:
                raise ConsistencyError("variance has an imaginary residue")
            return lod_db(circuit, q)

        monkeypatch.setattr(tsu11.sweep, "lod_db", audit_fails_once)
        grid = SweepGrid(axes=(AxisSpec("eta", 0.5, 1.0, 3),),
                         base=make_params("paper-start", precision=40))
        rows = run_sweep(grid)
        assert [row["error"] for row in rows] == \
            ["", "", "variance has an imaginary residue"]
        assert rows[2]["value"] is None and rows[1]["value"] is not None


class TestVacuumMap:
    def test_minima_locus(self):
        p = make_params("paper-start", alpha=0, beta=0, precision=40,
                        eta="0.9", phi_c="0")
        rows, minima = vacuum_noise_map(
            p, (AxisSpec("phi", -0.05, 0.05, 101), AxisSpec("phi_p", -0.08, 0.08, 5))
        )
        with workdps(40):
            resolution = mpf("0.1") / 100
            for m in minima:
                # variance minimum at 2 phi = phi_p + phi_c (phi_c = 0 here)
                assert abs(2 * m["phi"] - m["phi_p"]) <= 2 * resolution

    def test_maxima_offset_by_half_pi(self):
        from mpmath import pi

        p = make_params("paper-start", alpha=0, beta=0, precision=40,
                        eta="0.9", phi_p="0.02", phi_c="0")
        axis = AxisSpec("phi", -1.6, 1.65, 651)
        rows, minima = vacuum_noise_map(p, (axis, AxisSpec("phi_p", 0.02, 0.021, 2)))
        with workdps(40):
            first = [r for r in rows if r["phi_p"] == mpf("0.02")]
            rmax = max(first, key=lambda r: r["value"])
            rmin = min(first, key=lambda r: r["value"])
            assert abs(abs(rmax["phi"] - rmin["phi"]) - pi / 2) < mpf("0.02")

    def test_eta_zero_constant(self):
        p = make_params("paper-start", alpha=0, beta=0, precision=40,
                        eta_p1=0, eta_c1=0)
        rows, _ = vacuum_noise_map(
            p, (AxisSpec("phi", -0.05, 0.05, 5), AxisSpec("phi_p", -0.08, 0.08, 3))
        )
        with workdps(40):
            vals = [r["value"] for r in rows]
            assert max(vals) - min(vals) < mpf("1e-20")
            assert abs(vals[0] - mpf("8e16")) < mpf("1")

    def test_phi_scan_builds_each_phi_once_in_row_order(self):
        # phi sets the operators and phi_p only the state, so the map
        # evaluates phi outermost and still emits the rows phi_p outer
        p = make_params("paper-start", alpha=0, beta=0, precision=30)
        scan, group = AxisSpec("phi", -0.05, 0.05, 5), AxisSpec("phi_p", -0.08, 0.08, 3)
        _operators.cache_clear()
        rows, _ = vacuum_noise_map(p, (scan, group))
        assert _operators.cache_info().misses == scan.count
        assert rows == run_sweep(SweepGrid(axes=(group, scan), base=p, target="variance",
                                           circuit="vacuum"))

    def test_requires_unseeded(self):
        with pytest.raises(ValueError):
            vacuum_noise_map(
                make_params("paper-start"),
                (AxisSpec("phi", -1, 1, 3), AxisSpec("phi_p", -1, 1, 3)),
            )

    def test_advantage_persists_below_lo_shot_noise(self):
        # minimum vacuum variance beats the LO-only level whenever r > 0
        # and some transmission survives
        rng = random.Random(13)
        for _ in range(4):
            eta = str(rng.uniform(0.05, 1.0))
            r = str(rng.uniform(0.05, 2.5))
            p = make_params("paper-start", alpha=0, beta=0, precision=40,
                            r=r, eta=eta, phi_p="0.002", phi_c="0")
            rows, minima = vacuum_noise_map(
                p, (AxisSpec("phi", -0.02, 0.02, 81), AxisSpec("phi_p", 0.002, 0.0021, 2))
            )
            with workdps(40):
                lo_level = p.gamma**2 + p.kappa**2
                assert minima[0]["value"] < lo_level
