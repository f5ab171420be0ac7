"""Phase optimization and sweeps."""

import random

import pytest
from mpmath import mpf, pi, workdps

import tsu11.optimize
import tsu11.sweep
from tsu11 import (
    CIRCUITS,
    AxisSpec,
    ConsistencyError,
    SweepGrid,
    UndefinedLodError,
    build_su11_J,
    coherent_expectation,
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
from tsu11.circuits import _operators
from tsu11.interpolants import CHECK_MARGIN
from tsu11.metrology import lod_from_ratio
from tsu11.optimize import NEWTON_MAX_ITER, PhaseLandscape, _best_cell, nelder_mead
from tsu11.sweep import _axis_degree

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


@pytest.mark.parametrize("circuit,overrides",
                         [("tsu11", {})] + [row for row in LANDSCAPE_POINTS if row[0] == "su11"])
def test_product_grid_matches_per_cell_landscape(circuit, overrides):
    # the separable grid reproduces PhaseLandscape.ratio bit for bit and
    # picks the cell the per-cell tie rule on the LOD picks
    p = make_params("paper-start", **overrides)
    land = PhaseLandscape(p, circuit)
    with workdps(p.precision):
        axis = [-pi + 2 * pi / 16 * i for i in range(16)]
        lods = {}
        for xy, ratio in land.grid(axis):
            assert ratio == land.ratio(xy)
            lods[xy] = lod_from_ratio(ratio)
        best = min(lods.values())
        tie = best + land.tol * abs(best)
        per_cell = min((xy for xy, v in lods.items() if v <= tie),
                       key=lambda xy: abs(xy[0]) + abs(xy[1]))
    assert _best_cell(land, axis) == per_cell


def test_optimize_builds_each_operator_once():
    # the LO phases live in the state, so the whole optimization, classical
    # reference included, builds one tsu11 and one classical operator
    _operators.cache_clear()
    optimize_phases(make_params("paper-start"), grid_n=16)
    info = _operators.cache_info()
    assert info.misses <= 2
    assert info.hits > 0


def test_lod_target_value_is_engine_lod_at_returned_phases():
    overrides = dict(LANDSCAPE_POINTS[2][1])
    p = make_params("paper-start", **overrides)
    res = optimize_phases(p, target="lod", circuit="su11", grid_n=8)
    rep = report("su11", p.replace(phi_p=res.phi_p, phi_c=res.phi_c))
    with workdps(p.precision):
        assert res.value_db == rep.lod_db
        assert res.value_db <= res.grid_value_db
    assert res.route == "interpolant" and res.check_digits > 40


def test_perturbed_node_raises_consistency_error(monkeypatch):
    calls = []

    def perturbed_once(builder, q):
        rep = report(builder, q)
        if not calls:
            with workdps(q.precision):
                rep.variance *= 1 + mpf("1e-20")
        calls.append(q)
        return rep

    monkeypatch.setattr(tsu11.optimize, "report", perturbed_once)
    with pytest.raises(ConsistencyError, match="interpolant"):
        optimize_phases(make_params("paper-start"), grid_n=4)
    # the failure comes from the self-check, before any grid evaluation
    assert len(calls) == 5 * 5 + 1
    with workdps(60):
        assert {q.phi_p for q in calls[:25]} == {2 * pi * k / 5 for k in range(5)}


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
            [2, 2, 2, 4]
        assert _axis_degree("su11", p.replace(eta_p3="0.5")) == 2

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
        # 2K + 2 = 6 points cost no more reports per point than the fit
        grid = SweepGrid(axes=(AxisSpec("r", 0, 3, 6),), base=make_params("paper-start"))
        assert {row["route"] for row in run_sweep(grid)} == {"engine"}

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
        monkeypatch.setattr(tsu11.sweep, "_axis_degree",
                            lambda c, p: _axis_degree(c, p) - 1)
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