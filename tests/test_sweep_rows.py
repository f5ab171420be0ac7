"""The r sweep's rows against the per-row route they replace.

``AxisLandscape.values`` evaluates a run's rows in one pass: Horner in the
monomial integer coefficients of each Lagrange numerator, one rounded
division and the LOD on raw mpf tuples.  The route before it took, per
row, mpmath's exp, the prefix and suffix products of the node
differences, one rounded division and mpmath's 10*log10(sqrt()).  Both
are exact up to the same roundings, so every row must agree bit for bit.
"""

import operator

from hypothesis import example, given, settings, strategies as st
from mpmath import exp, log10, mp, mpf, pi, sqrt, workdps
from mpmath.libmp import dps_to_prec, fzero, mpf_div, mpf_pos, round_nearest
import pytest

import tsu11.sweep
from tsu11 import AxisSpec, SweepGrid, make_params, run_sweep
from tsu11.interpolants import fixed, lagrange_lifts, node_scales, tolerance

from test_optimize import SU11_K4, _per_point

#: (circuit, overrides): balanced circuits take the even span on 3 nodes,
#: unbalanced su11 the span of e^{kr}, |k| <= 4, on 9
CASES = {
    "tsu11": ("tsu11", {}),
    "classical": ("classical", {}),
    "vacuum": ("vacuum", {"alpha": 0}),
    "su11-balanced": ("su11", {"s": "0.3", "beta": "1e5"}),
    "su11-unbalanced": ("su11", SU11_K4),
}


def _products(z, nodes):
    """The per-row route's prod_{j != i} (z - z_j) of exact pairs, from
    prefix and suffix products of the differences, with their exponent."""
    zs, e_nodes = nodes
    (m,), e_z = fixed([z])
    e = min(e_z, e_nodes)
    d = [(m << e_z - e) - (v << e_nodes - e) for v in zs]
    pre, suf = [1], [1]
    for a, b in zip(d[:-1], d[:0:-1]):
        pre.append(pre[-1] * a)
        suf.append(suf[-1] * b)
    return [a * b for a, b in zip(pre, reversed(suf))], e * (len(d) - 1), (m, e_z)


def _quotient(num, den):
    def raw(m, e):
        return (int(m < 0), abs(m), e, abs(m).bit_length()) if m else fzero
    return mp.make_mpf(mpf_div(raw(*num), raw(*den), mp.prec, round_nearest))


def _at_most(x, y):
    shift = x[1] - y[1]
    return x[0] << shift <= y[0] if shift >= 0 else x[0] <= y[0] << -shift


def _per_row_route(land, node_reports, r, target, precision):
    """(the target at gain r as the route before one pass took it, None
    where a derivative is at or below its floor; [(var, dsq)] of each
    measure at the guard precision), from the landscape's own node reports
    ``node_reports`` (per measure, in node order)."""
    with workdps(land.dps):
        nodes = [q.r for q, _ in node_reports[0]]
        zs = [exp(land.step * x) for x in nodes]
        lifts = lagrange_lifts(zs, land.degree)
        z = exp(land.step * r)
        products, e, (m, e_z) = _products(z, fixed(zs))
        zk = m ** land.degree, e_z * land.degree
        numerators = []
        for reps in node_reports:
            var, ev = fixed([c * rep.variance.real for c, (_, rep) in zip(lifts, reps)])
            dsq, ed = fixed([c * rep.dj_dphi_sq for c, (_, rep) in zip(lifts, reps)])
            scales = node_scales((rep.second_moment, rep.dj_dphi_sq) for _, rep in reps)
            (floor,), ef = fixed([tolerance(precision) * scales[1]])
            numerators.append(((sum(map(operator.mul, var, products)), ev + e),
                               (sum(map(operator.mul, dsq, products)), ed + e), (floor, ef)))
        fits = [(_quotient(var, zk), _quotient(dsq, zk)) for var, dsq, _ in numerators]
        if target == "variance":
            value = _quotient(numerators[0][0], zk)
        elif any(_at_most(dsq, (floor * zk[0], ef + zk[1])) for _, dsq, (floor, ef) in numerators):
            return None, fits
        else:
            (var, dsq, _), *reference = numerators
            for (ref_var, ref_e), (ref_dsq, ref_f), _ in reference:
                var, dsq = (var[0] * ref_dsq, var[1] + ref_f), (dsq[0] * ref_var, dsq[1] + ref_e)
            value = 10 * log10(sqrt(_quotient(var, dsq)))
    return mp.make_mpf(mpf_pos(value._mpf_, dps_to_prec(precision), round_nearest)), fits


def _recorded_sweep(grid):
    """(rows, [(landscape, node reports per measure)]) of ``run_sweep``,
    recording each landscape and the (parameters, report) of its nodes."""
    landscapes, calls = [], []
    real_landscape, real_report = tsu11.sweep._run_landscape, tsu11.sweep.report

    def landscape(*args):
        del calls[:]
        found = real_landscape(*args)
        if found is not None:
            land = found[0]
            n = 2 * land.degree + 1
            # per measure: its n node reports, then its check report
            landscapes.append((land, [calls[k:k + n] for k in range(0, len(calls), n + 1)]))
        return found

    def report(circuit, q):
        rep = real_report(circuit, q)
        calls.append((q, rep))
        return rep

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tsu11.sweep, "_run_landscape", landscape)
        patch.setattr(tsu11.sweep, "report", report)
        rows = run_sweep(grid)
    return rows, landscapes


def _assert_rows_match_per_row_route(grid):
    rows, landscapes = _recorded_sweep(grid)
    precision = grid.base.precision
    land, node_reports = landscapes[0] if landscapes else (None, None)
    for row in rows:
        try:
            p = grid.base.replace(r=row["r"])
        except ValueError as exc:
            assert (row["value"], row["error"], row["route"]) == (None, str(exc), "engine")
            continue
        want, fits = (_per_row_route(land, node_reports, row["r"], grid.target, precision)
                      if land else (None, None))
        if land:
            # the guard-precision values, which the rows round once more
            assert [(var._mpf_, dsq._mpf_) for var, dsq, _ in land.at(row["r"])] == \
                [(var._mpf_, dsq._mpf_) for var, dsq in fits]
        if want is not None:
            assert row["route"] == "interpolant"
            assert row["value"]._mpf_ == want._mpf_, row
            assert row["check_digits"] == land.check_digits
            continue
        # at the floor, or no landscape: the engine's value or message
        assert row["route"] == "engine" and row["check_digits"] is None
        try:
            value, _ = _per_point(grid.circuit, grid.target, p)
        except (ValueError, ArithmeticError) as exc:
            assert (row["value"], row["error"]) == (None, str(exc))
        else:
            assert (row["value"], row["error"]) == (value, "")
    return rows


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.sampled_from(["lod", "lodi", "variance"]),
       st.floats(0.001, 2), st.floats(0.05, 3), st.integers(11, 15), st.integers(30, 120),
       st.sampled_from(["0", "0.3"]))
@example("tsu11", "lodi", 0.001, 2.999, 15, 60, "0")
@example("su11-unbalanced", "lod", 0.01, 2, 11, 120, "0.3")
def test_rows_are_the_per_row_route_bit_for_bit_property(case, target, lo, width, count,
                                                          precision, phase):
    circuit, overrides = CASES[case]
    if circuit == "vacuum":
        target = "variance"
    base = make_params("paper-start", precision=precision, phi_p=phase, phi_c=phase,
                       **overrides)
    axis = AxisSpec("r", repr(lo), repr(lo + width), count)
    rows = _assert_rows_match_per_row_route(SweepGrid(axes=(axis,), base=base, target=target,
                                                      circuit=circuit))
    assert {row["route"] for row in rows} == {"interpolant"}


def test_out_of_domain_rows_keep_their_messages():
    # r:-1:3:61: 15 rows below r = 0 are error rows, and the fit spans the
    # 46 rows at or above it
    grid = SweepGrid(axes=(AxisSpec("r", -1, 3, 61),), base=make_params("paper-start"),
                     target="lodi")
    rows = _assert_rows_match_per_row_route(grid)
    assert [row["route"] for row in rows] == ["engine"] * 15 + ["interpolant"] * 46
    assert {row["error"] for row in rows[:15]} == {
        "squeezing parameters r, s must be nonnegative"}


@pytest.mark.parametrize("overrides,error", [
    # both LO phases a quarter turn from the sample phase: every
    # derivative is at its rounding floor and the engine writes the value
    ({"phi_p": "quarter", "phi_c": "quarter"}, ""),
    # an unseeded classical reference: the engine's message
    ({"alpha": 0, "beta": "1e6"},
     "classical reference LOD undefined: the phase derivative of its <J> vanishes"),
])
def test_rows_at_the_floor_keep_the_engine_result(overrides, error):
    with workdps(60):
        quarter = mpf("0.001") + pi / 2
    overrides = {k: quarter if v == "quarter" else v for k, v in overrides.items()}
    grid = SweepGrid(axes=(AxisSpec("r", 0, 3, 13),),
                     base=make_params("paper-start", **overrides), target="lodi")
    rows = _assert_rows_match_per_row_route(grid)
    assert {(row["route"], row["error"]) for row in rows} == {("engine", error)}
