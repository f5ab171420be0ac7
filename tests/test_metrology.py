"""Metrology layer: variances, derivatives, LOD and LODI."""

import json
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import log10, mp, mpc, mpf, sqrt, workdps

from tsu11 import (
    InterferometerParams,
    UndefinedLodError,
    adjoint,
    build_su11_J,
    build_tsu11_J,
    classical_reference,
    closed_form_report,
    coherent_expectation,
    dj_dphi_sq,
    ladder,
    lod_db,
    lodi_db,
    make_params,
    mul,
    report,
    variance,
)
import tsu11.algebra
import tsu11.metrology
import tsu11.optimize
from tsu11.circuits import CIRCUITS, LO_MODES
from tsu11.cli import _decimals
from tsu11.metrology import lod_from_ratio
from tsu11.optimize import PhaseLandscape

import kernel_oracle
from conftest import rel_diff
from test_algebra import kernel_bits
from test_circuits import random_params

# engine regression anchors, frozen from 60-digit runs
LOD_CLASSICAL_ETA1 = "-68.336914350083281146"
LOD_CLASSICAL_ETA08 = "-67.852429251985694695"
LODI_OPT_ETA1 = "-3.8202287798164172523"
LODI_OPT_ETA08 = "-2.3572472194090059652"
LODI_G15_R2413 = "-5.2290901213094865881"


class TestClassicalBenchmarks:
    def test_lossless_point(self):
        p = make_params("paper-start")
        val = lod_db("classical", p)
        assert abs(val - mpf(LOD_CLASSICAL_ETA1)) < mpf("1e-15")
        assert abs(val - mpf("-68.3369")) < mpf("0.0005")

    def test_eta_08_point(self):
        p = make_params("paper-start", eta="0.8")
        val = lod_db("classical", p)
        assert abs(val - mpf(LOD_CLASSICAL_ETA08)) < mpf("1e-15")
        assert abs(val - mpf("-67.8524")) < mpf("0.0005")


class TestVariance:
    def test_single_mode_poisson(self):
        # quadratic g'.g with a coherent seed has Poissonian variance
        g = ladder("g")
        J = mul(adjoint(g), g)
        with workdps(60):
            v = variance(J, {"g": mpf(7)})
            assert rel_diff(v.real, mpf(49)) < mpf("1e-45")

    def test_phase_dependent_iff_squeezed(self):
        base = InterferometerParams(
            r="0.9", alpha="2e6", gamma="2e8", kappa="2e8", theta_f="0.001"
        )
        samples = []
        for pp in ("0", "0.5", "1.1", "2.0"):
            J, _, state = build_tsu11_J(base.replace(phi_p=pp))
            samples.append(variance(J, state).real)
        with workdps(60):
            spread = max(samples) - min(samples)
            assert spread > mpf("1e10")
        # and with r = 0 the same sweep is flat
        flat = []
        for pp in ("0", "0.5", "1.1", "2.0"):
            J, _, state = build_tsu11_J(base.replace(r=0, phi_p=pp))
            flat.append(variance(J, state).real)
        with workdps(60):
            assert max(flat) - min(flat) < mpf("1e-30")

    def test_vacuum_minimum_on_phase_line(self):
        # holding phi_p + phi_c = 2 phi pins the variance minimum
        p = InterferometerParams(
            r="0.88", gamma="2e8", kappa="2e8", theta_f="0.001",
            eta_p1="0.9", eta_c1="0.9", phi_p="0.002", phi_c="0",
        )
        J, _, state = build_tsu11_J(p)
        v_min = variance(J, state).real
        for pp in ("0.01", "-0.02", "0.3"):
            J2, _, s2 = build_tsu11_J(p.replace(phi_p=pp))
            assert variance(J2, s2).real > v_min


class TestDerivative:
    def test_matches_reference(self):
        rng = random.Random(83)
        for _ in range(20):
            p = random_params(rng)
            engine = dj_dphi_sq("tsu11", p)
            ref = closed_form_report("tsu11", p).dj_dphi_sq
            with workdps(p.precision):
                assert rel_diff(engine, ref) < mpf("1e-40")

    def test_exact_derivative_matches_theta_stencil(self):
        # full SU(1,1) chain where no closed form exists (s > 0, seeded b,
        # unequal losses, unbalanced homodynes): the builder's exact dJ
        # against a five-point stencil of <J> in theta_f at 90 digits
        for arms in ("both", "probe-only"):
            p = InterferometerParams(
                r="0.88", s="0.3", alpha="2e6", beta="3e5", gamma="2e8", kappa="1.5e8",
                eta_p1="0.9", eta_c1="0.75", eta_p2="0.95", eta_c2="0.85",
                eta_p3="0.6", eta_c3="0.45", theta_f="0.001", phi_p="0.3",
                phi_c="-0.2", arms=arms,
            )
            exact = dj_dphi_sq("su11", p)

            def mean_at(theta):
                J, _, state = build_su11_J(p.replace(theta_f=theta, precision=90))
                return coherent_expectation(J, state)

            with workdps(90):
                h = mpf("1e-20")
                t = p.theta_f
                d = (8 * (mean_at(t + h) - mean_at(t - h))
                     - (mean_at(t + 2 * h) - mean_at(t - 2 * h))) / (12 * h)
                assert rel_diff(exact, abs(d) ** 2) < mpf("1e-50")

    def test_vacuum_derivative_zero(self):
        p = make_params("paper-start", alpha=0, beta=0)
        assert dj_dphi_sq("vacuum", p) == 0


class TestLod:
    def test_vacuum_lod_undefined(self):
        p = make_params("paper-start", alpha=0, beta=0)
        with pytest.raises(UndefinedLodError) as err:
            lod_db("vacuum", p)
        assert err.value.variance is not None
        with workdps(60):
            assert err.value.variance.real > 0

    def test_lodi_with_unseeded_classical_reference_undefined(self):
        # a conjugate seed alone leaves the photon-matched classical
        # reference without a probe seed, so its derivative vanishes
        p = make_params("paper-start", alpha=0, beta="1e6")
        with pytest.raises(UndefinedLodError, match="classical reference"):
            lodi_db(p)

    def test_report_serialization_round_trips(self):
        p = make_params("paper-start")
        rep = report("classical", p)
        back = json.loads(json.dumps(_decimals({**vars(rep), "lod_db": rep.lod_db},
                                               p.precision)))
        with workdps(60):
            assert rel_diff(mpf(back["lod_db"]), rep.lod_db) < mpf("1e-55")
            for key in ("mean_j", "second_moment", "variance"):
                assert set(back[key]) == {"re", "im"}
                value = mpc(back[key]["re"], back[key]["im"])
                assert rel_diff(value, getattr(rep, key)) < mpf("1e-55")
        assert back["source"] == "engine"
        assert back["precision"] == 60
        # an undefined LOD is written as null
        vac = report("vacuum", p.replace(alpha=0, beta=0))
        cells = _decimals({**vars(vac), "lod_db": vac.lod_db}, p.precision)
        assert json.loads(json.dumps(cells))["lod_db"] is None

    def test_lod_at_r0_equals_classical(self):
        p = make_params("paper-start", r=0)
        with workdps(60):
            diff = lod_db("tsu11", p) - lod_db("classical", p)
            assert abs(diff) < mpf("1e-20")


class TestLodi:
    def test_difference_identity(self):
        rep = lodi_db(make_params("paper-start"))
        with workdps(60):
            assert rep.lodi_db == rep.lod_tsu11_db - rep.lod_classical_db

    def test_r0_lodi_zero(self):
        # without squeezing the two layouts coincide; compare at the
        # derivative-maximizing phases where both are at their optimum
        rep = lodi_db(make_params("paper-start", r=0, eta="0.7",
                                  phi_p="0.001", phi_c="0.001"))
        assert abs(rep.lodi_db) < mpf("1e-6")
        # and the LOD curves coincide pointwise at matched phases
        p = make_params("paper-start", r=0, eta="0.7")
        with workdps(60):
            diff = lod_db("tsu11", p) - lod_db("classical", p)
            assert abs(diff) < mpf("1e-6")

    def test_optimum_values_frozen(self):
        # the landscape minimum sits at phi_p = phi_c = phi; these anchors
        # document the engine values at that point
        rep = lodi_db(make_params("paper-start", phi_p="0.001", phi_c="0.001"))
        assert abs(rep.lodi_db - mpf(LODI_OPT_ETA1)) < mpf("1e-15")
        rep8 = lodi_db(make_params("paper-start", eta="0.8", phi_p="0.001", phi_c="0.001"))
        assert abs(rep8.lodi_db - mpf(LODI_OPT_ETA08)) < mpf("1e-15")
        repg = lodi_db(make_params("g15", phi_p="0.001", phi_c="0.001"))
        assert abs(repg.lodi_db - mpf(LODI_G15_R2413)) < mpf("1e-15")

    def test_magnitude_decreases_with_loss(self):
        opt = {"phi_p": "0.001", "phi_c": "0.001"}
        full = lodi_db(make_params("paper-start", **opt))
        lossy = lodi_db(make_params("paper-start", eta="0.8", **opt))
        assert abs(lossy.lodi_db) < abs(full.lodi_db)

    def test_nonpositive_at_optimum_across_parameter_space(self):
        rng = random.Random(97)
        for _ in range(6):
            p = make_params(
                "paper-start",
                r=str(rng.uniform(0.05, 3)),
                eta=str(rng.uniform(0.1, 1)),
            )
            # evaluate on the variance-minimizing, derivative-maximizing point
            phi = "0.001"
            rep = lodi_db(p.replace(phi_p=phi, phi_c=phi))
            assert rep.lodi_db <= mpf("1e-12")

    def test_closed_form_report_matches_engine(self):
        from tsu11 import closed_form_report

        p = make_params("paper-start")
        for circuit in ("classical", "tsu11"):
            eng = report(circuit, p)
            ana = closed_form_report(circuit, p)
            assert ana.source == "closed-form"
            with workdps(60):
                assert rel_diff(eng.lod_db, ana.lod_db) < mpf("1e-40")
        pv = p.replace(alpha=0, beta=0)
        ana = closed_form_report("vacuum", pv)
        assert ana.lod_db is None
        with workdps(60):
            eng = report("vacuum", pv)
            assert rel_diff(eng.variance.real, ana.variance.real) < mpf("1e-40")

    def test_closed_form_refuses_unequal_internal_losses(self):
        # the squeezed-circuit closed forms use eta_p1 for both arms
        from tsu11 import closed_form_report

        p = make_params("paper-start", eta_p1="0.9", eta_c1="0.5")
        for circuit, q in (("tsu11", p), ("vacuum", p.replace(alpha=0))):
            with pytest.raises(ValueError, match="eta_p1 == eta_c1"):
                closed_form_report(circuit, q)

    @pytest.mark.parametrize("arms", ["both", "probe-only"])
    def test_closed_form_report_matches_engine_at_random_points(self, arms):
        rng = random.Random(71 if arms == "both" else 73)
        for _ in range(5):
            # the classical closed form also takes unequal internal losses
            p = random_params(rng, eta_shared=False, arms=arms)
            shared = p.replace(eta_c1=p.eta_p1)
            for circuit, q in (("classical", p), ("tsu11", shared),
                               ("vacuum", shared.replace(alpha=0))):
                eng, ana = report(circuit, q), closed_form_report(circuit, q)
                for field in ("mean_j", "variance", "dj_dphi_sq"):
                    got, want = getattr(eng, field), getattr(ana, field)
                    assert rel_diff(got, want) < mpf("1e-40"), (circuit, field)

    @pytest.mark.parametrize("circuit, changes, message", [
        ("su11", {}, "no closed form for circuit 'su11'"),
        ("tsu11", {"beta": "1e5"}, "closed forms assume an unseeded conjugate input"),
        ("classical", {"beta": "1e5"}, "closed forms assume an unseeded conjugate input"),
        ("vacuum", {"alpha": "1e3"}, "vacuum closed form requires alpha = 0"),
    ])
    def test_closed_form_refusals(self, circuit, changes, message):
        p = make_params("paper-start", **changes)
        with pytest.raises(ValueError, match=re.escape(message)):
            closed_form_report(circuit, p)

    @pytest.mark.parametrize("arms", ["both", "probe-only"])
    def test_photon_matching_equalises_the_signal(self, arms):
        # at beta = 0 the classical seeds are the mean fields the squeezer
        # puts on the sampled arms, so the engine gives both circuits the
        # same <J> and |d<J>/dphi|^2 at the same LO phases, at any r and
        # with unequal internal losses too
        rng = random.Random(61 if arms == "both" else 67)
        for k in range(20):
            p = random_params(rng, eta_shared=k % 2 == 0, arms=arms)
            squeezed, classical = report("tsu11", p), report("classical", p)
            assert rel_diff(squeezed.mean_j, classical.mean_j) < mpf("1e-40")
            assert rel_diff(squeezed.dj_dphi_sq, classical.dj_dphi_sq) < mpf("1e-40")

    def test_classical_reference_phase_choice(self):
        # reference evaluates at phi_p = phi_c = phi, where its derivative
        # is maximal; any other phase pair cannot beat it
        p = make_params("paper-start")
        ref = classical_reference(p)
        for pp, pc in (("0", "0"), ("0.3", "-0.2"), ("1.0", "1.0")):
            other = report("classical", p.replace(phi_p=pp, phi_c=pc))
            assert ref.lod_db <= other.lod_db + mpf("1e-30")


@pytest.mark.parametrize("amp, dps, tol", [
    ("1e9", 60, "1e-55"),
    ("1e12", 60, "1e-55"),
    ("1e12", 30, "1e-25"),
])
def test_variance_keeps_full_precision_at_large_amplitudes(amp, dps, tol):
    # seed and LO amplitudes all at amp: <J^2> - <J>^2 would cancel about
    # 2 log10(amp) digits, the displaced-vacuum kernel cancels none
    p = make_params("paper-start", alpha=amp, gamma=amp, kappa=amp, precision=dps)
    J, _, state = build_tsu11_J(p)
    got = variance(J, state)
    want = closed_form_report("tsu11", p).variance
    assert rel_diff(got, want) < mpf(tol)


@settings(max_examples=300, deadline=None)
@given(st.integers(30, 240), st.integers(-300, 300), st.integers(1, 2 ** 400),
       st.integers(0, 60))
@example(60, 0, 1, 0)
@example(83, 300, 2 ** 400, 20)
def test_lod_from_ratio_is_mpmaths_route_bit_for_bit_property(dps, decade, mantissa, extra):
    # the raw route takes mpmath's steps, with ln 10 cached per precision;
    # the ratio may carry more digits than the working precision
    with workdps(dps + extra):
        ratio = mpf(mantissa) / 2 ** 400 * mpf(10) ** decade
    with workdps(dps):
        assert lod_from_ratio(ratio)._mpf_ == (10 * log10(sqrt(ratio)))._mpf_
        for special in (mpf(0), mp.inf, mpf(1), mpf(10)):
            assert lod_from_ratio(special) == 10 * log10(sqrt(special))


def _outcome(route, *args):
    """What ``route(*args)`` returns, or the type and message of what it
    raises."""
    try:
        return route(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _report_bits(rep):
    if isinstance(rep, tuple):
        return rep
    return (rep.mean_j._mpc_, rep.second_moment._mpc_, rep.variance._mpc_,
            rep.dj_dphi_sq._mpf_, rep.source, rep.precision)


def _landscape_bits(land):
    if isinstance(land, tuple):
        return land
    return ([[c._mpf_ for c in row] for coef in land._coefs for row in coef],
            [x._mpf_ for x in land._noise + [land.var_scale, land.dsq_scale, land.dsq_floor]])


#: the landscape's kernel calls taken by the three-set-up route
_ORACLE_LANDSCAPE = {"amplitudes": lambda state, dps: state,
                     "coherent_moments": kernel_oracle.moments,
                     "coherent_expectation": kernel_oracle.expectation}

_EXTREMES = {"alpha": "1e-200", "gamma": "1e160", "kappa": "1e160"}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CIRCUITS)), st.sampled_from(["both", "probe-only"]),
       st.integers(30, 120),
       st.one_of(st.just(0), st.floats(0, 400)), st.one_of(st.just(0), st.floats(0, 3)),
       st.fixed_dictionaries({name: st.sampled_from(["0", "3", "1e5", value])
                              for name, value in _EXTREMES.items()}),
       st.lists(st.one_of(st.sampled_from(["0", "1", "0.5"]), st.floats(0, 1)),
                min_size=6, max_size=6),
       st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       st.sets(st.sampled_from(["a", "b", "g", "h"])))
@example("tsu11", "both", 60, 0.88, 0, {"alpha": "1e5", "gamma": "1e160", "kappa": "1e160"},
         ["1"] * 4 + ["0.5"] * 2, [0.001, 0.3, -0.2], set())
@example("classical", "probe-only", 30, 2.4, 0, {"alpha": "1e-200", "gamma": "3", "kappa": "3"},
         ["0.8"] * 4 + ["0.5"] * 2, [0.001, 1, 2], {"a"})
@example("su11", "both", 120, 400, 0.3, {"alpha": "3", "gamma": "1e5", "kappa": "0"},
         ["0.9", "0.7", "0.93", "0.97", "0.45", "0.55"], [0.2, 0.3, -0.7], {"b", "h"})
@example("vacuum", "both", 45, 400, 0, {"alpha": "0", "gamma": "1e160", "kappa": "1e160"},
         ["1"] * 4 + ["0.5"] * 2, [0.001, 0, 0], {"a", "b"})
def test_reports_and_landscapes_match_the_three_set_up_route_property(
        circuit, arms, dps, r, s, amps, etas, phases, absent):
    # one kernel set-up per report and per landscape: every report field,
    # every graded moment and every landscape coefficient is that of the
    # route that sets the kernel up for each moment (``kernel_oracle``),
    # with both arms settings, zero and absent amplitudes, gamma = kappa =
    # 1e160, alpha = 1e-200 and r up to 400
    theta_f, phi_p, phi_c = phases
    p = InterferometerParams(
        r=r, s=s, beta=0 if circuit == "vacuum" else amps["alpha"], arms=arms, precision=dps,
        theta_f=theta_f, phi_p=phi_p, phi_c=phi_c,
        **{**amps, **({"alpha": 0} if circuit == "vacuum" else {})},
        **dict(zip(("eta_p1", "eta_c1", "eta_p2", "eta_c2", "eta_p3", "eta_c3"), etas)))
    assert (_report_bits(_outcome(report, circuit, p))
            == _report_bits(_outcome(kernel_oracle.report, circuit, p)))

    J, dJ, state = CIRCUITS[circuit](p)
    state = {m: v for m, v in state.items() if m not in absent}
    for phased in ((), LO_MODES):
        given = tsu11.algebra.amplitudes(state, dps)
        for got, want in zip(tsu11.algebra.coherent_moments(J, given, phased),
                             kernel_oracle.moments(J, state, phased)):
            assert kernel_bits(got) == kernel_bits(want)
        assert (kernel_bits(coherent_expectation(dJ, given, phased))
                == kernel_bits(kernel_oracle.expectation(dJ, state, phased)))

    land = _outcome(PhaseLandscape, p, circuit)
    with mock.patch.multiple(tsu11.optimize, **_ORACLE_LANDSCAPE):
        oracle_land = _outcome(PhaseLandscape, p, circuit)
    assert _landscape_bits(land) == _landscape_bits(oracle_land)


def test_one_amplitude_conversion_per_report(monkeypatch):
    # a report converts the coherent state once for <J>, var J and <dJ>
    calls, convert = [], tsu11.algebra.amplitudes

    def counted(state, dps):
        calls.append(dps)
        return convert(state, dps)

    monkeypatch.setattr(tsu11.algebra, "amplitudes", counted)
    monkeypatch.setattr(tsu11.metrology, "amplitudes", counted)
    for circuit in sorted(CIRCUITS):
        p = make_params("paper-start", **({"alpha": 0, "beta": 0} if circuit == "vacuum" else {}))
        calls.clear()
        report(circuit, p)
        assert calls == [p.precision], circuit
