"""Circuit construction against the analytic reference forms."""

import random

import pytest
from mpmath import cosh, exp, mpc, mpf, sinh, sqrt, workdps

from tsu11 import (
    CIRCUITS,
    InterferometerParams,
    OperatorExpr,
    adjoint,
    build_classical_J,
    build_su11_J,
    build_tsu11_J,
    build_vacuum_J,
    closed_form_report,
    coherent_expectation,
    ladder,
    make_params,
    mul,
    normal_order,
    report,
    variance,
)
from tsu11.circuits import NUMERIC_FIELDS, _operators

from conftest import expr_close, rel_diff


def modes_of(x):
    return {m for factors, _ in x.terms() for m, _ in factors}


def random_params(rng, eta_shared=True, beta_zero=True, arms="both", dps=60):
    """Random physical point inside the validated ranges."""
    eta = str(rng.uniform(0.1, 1.0))
    return InterferometerParams(
        r=str(rng.uniform(0, 3)),
        s=0,
        alpha=str(10 ** rng.uniform(2, 9)),
        beta=0 if beta_zero else str(10 ** rng.uniform(2, 9)),
        gamma=str(10 ** rng.uniform(2, 9)),
        kappa=str(10 ** rng.uniform(2, 9)),
        eta_p1=eta,
        eta_c1=eta if eta_shared else str(rng.uniform(0.1, 1.0)),
        theta_f=str(rng.uniform(-3, 3)),
        phi_p=str(rng.uniform(-3.14, 3.14)),
        phi_c=str(rng.uniform(-3.14, 3.14)),
        arms=arms,
        precision=dps,
    )


class TestParamsValidation:
    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            InterferometerParams(eta_p1=1.2)
        with pytest.raises(ValueError):
            InterferometerParams(eta_c3=-0.1)

    def test_negative_squeezing(self):
        with pytest.raises(ValueError):
            InterferometerParams(r=-0.5)
        with pytest.raises(ValueError):
            InterferometerParams(s=-1)

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            InterferometerParams(precision=20)

    def test_bad_arms(self):
        with pytest.raises(ValueError):
            InterferometerParams(arms="conjugate")

    def test_vacuum_requires_zero_seeds(self):
        with pytest.raises(ValueError):
            build_vacuum_J(InterferometerParams(alpha=1))


class TestClassicalCircuit:
    def test_mean_matches_reference(self):
        rng = random.Random(41)
        for _ in range(20):
            p = random_params(rng)
            J, _, state = build_classical_J(p)
            engine = coherent_expectation(J, state)
            ref = closed_form_report("classical", p).mean_j
            with workdps(p.precision):
                assert rel_diff(engine, ref) < mpf("1e-40")

    def test_variance_phase_independent(self):
        rng = random.Random(43)
        base = InterferometerParams(
            r="0.88", alpha="2e6", gamma="2e8", kappa="2e8", theta_f="0.001"
        )
        values = []
        for _ in range(10):
            p = base.replace(
                phi_p=str(rng.uniform(-3, 3)),
                phi_c=str(rng.uniform(-3, 3)),
                theta_f=str(rng.uniform(-3, 3)),
            )
            J, _, state = build_classical_J(p)
            values.append(variance(J, state).real)
        ref = closed_form_report("classical", base).variance.real
        with workdps(60):
            for v in values:
                assert rel_diff(v, ref) < mpf("1e-45")

    def test_no_photon_number_terms(self):
        # each detector pair is a proper difference: the diagonal
        # photon-number pieces cancel and only cross beats survive
        p = InterferometerParams(r="0.5", alpha=10, gamma=100, kappa=100,
                                 theta_f="0.01")
        J, _, _ = build_classical_J(p)
        for factors, _c in normal_order(J).terms():
            modes = [m for m, _ in factors]
            assert len(set(modes)) == len(modes), f"diagonal term {factors}"

    def test_rescaled_seeds(self):
        p = InterferometerParams(r="0.88", alpha="2e6", gamma="2e8", kappa="2e8",
                                 eta_p1="0.8", eta_c1="0.8")
        _, _, state = build_classical_J(p)
        with workdps(60):
            assert rel_diff(state["a"], mpf("2e6") * sqrt(mpf("0.8")) * cosh(mpf("0.88"))) < mpf("1e-50")
            assert rel_diff(state["b"], mpf("2e6") * sqrt(mpf("0.8")) * sinh(mpf("0.88"))) < mpf("1e-50")


class TestSqueezedCircuit:
    def test_mean_matches_reference(self):
        rng = random.Random(47)
        for _ in range(20):
            p = random_params(rng)
            J, _, state = build_tsu11_J(p)
            engine = coherent_expectation(J, state)
            ref = closed_form_report("tsu11", p).mean_j
            with workdps(p.precision):
                assert rel_diff(engine, ref) < mpf("1e-40")

    def test_variance_matches_reference(self):
        rng = random.Random(53)
        for _ in range(20):
            p = random_params(rng)
            J, _, state = build_tsu11_J(p)
            engine = variance(J, state)
            ref = closed_form_report("tsu11", p).variance.real
            with workdps(p.precision):
                assert rel_diff(engine.real, ref) < mpf("1e-40")

    def test_probe_only_variant(self):
        rng = random.Random(59)
        for _ in range(10):
            p = random_params(rng, arms="probe-only")
            J, _, state = build_tsu11_J(p)
            ref = closed_form_report("tsu11", p)
            with workdps(p.precision):
                assert rel_diff(coherent_expectation(J, state), ref.mean_j) < mpf("1e-40")
                assert rel_diff(variance(J, state).real, ref.variance.real) < mpf("1e-40")

    def test_hermitian(self):
        rng = random.Random(61)
        for _ in range(5):
            p = random_params(rng, beta_zero=False)
            J, _, state = build_su11_J(p.replace(s="0.3", eta_p2="0.9", eta_c2="0.85"))
            assert expr_close(J, adjoint(J), tol="1e-50")
            mean = coherent_expectation(J, state)
            with workdps(p.precision):
                assert abs(mean.imag) <= max(abs(mean), mpf(1)) * mpf(10) ** (-(p.precision - 15))

    def test_s_zero_reduces_to_truncated_chain(self):
        p = InterferometerParams(
            r="0.7", s=0, alpha=100, beta=3, gamma=500, kappa=400,
            eta_p1="0.85", eta_c1="0.85", theta_f="0.2", phi_p="0.3", phi_c="-0.4",
        )
        J_full, _, _ = build_su11_J(p)
        J_trunc, _, _ = build_tsu11_J(p)
        assert expr_close(J_full, J_trunc, tol="1e-50")

    def test_r0_eta1_matches_classical_unscaled(self):
        # with no squeezing and no loss the amplifier is the identity and
        # both layouts reduce to the same pair of homodynes
        p = InterferometerParams(
            r=0, alpha=250, beta=0, gamma=900, kappa=700,
            theta_f="0.15", phi_p="0.2", phi_c="-0.1",
        )
        J_q, dJ_q, state_q = build_tsu11_J(p)
        J_c, dJ_c, state_c = build_classical_J(p)
        assert state_c["a"] == state_q["a"]
        assert state_c["b"] == 0
        assert dict(J_c.terms()) == dict(J_q.terms())
        assert dict(dJ_c.terms()) == dict(dJ_q.terms())

    def test_loss_unitarity(self):
        # eta = 1: no vacuum-port operators appear
        p = InterferometerParams(r="0.6", alpha=10, gamma=100, kappa=100,
                                 theta_f="0.01")
        J, _, _ = build_tsu11_J(p)
        assert modes_of(J) <= {"a", "b", "g", "h"}
        # eta = 0: the seeded squeezed modes never reach the detectors
        p0 = p.replace(eta_p1=0, eta_c1=0)
        J0, _, state0 = build_tsu11_J(p0)
        assert not modes_of(J0) & {"a", "b"}
        assert coherent_expectation(J0, state0) == 0

    def test_photon_number_accounting(self):
        # probe arm carries alpha^2 cosh^2 r (plus one spontaneous photon
        # pair per mode), conjugate alpha^2 sinh^2 r
        p = InterferometerParams(r="0.88", alpha="2e6", beta=0, precision=60)
        with workdps(60):
            ch, sh = cosh(p.r), sinh(p.r)
            a = ladder("a")
            b = ladder("b")
            u = a * ch + adjoint(b) * sh
            v = adjoint(a) * sh + b * ch
            st = {"a": p.alpha}
            n_u = coherent_expectation(mul(adjoint(u), u), st)
            n_v = coherent_expectation(mul(adjoint(v), v), st)
            assert rel_diff(n_u, p.alpha**2 * ch**2 + sh**2) < mpf("1e-45")
            assert rel_diff(n_v, p.alpha**2 * sh**2 + sh**2) < mpf("1e-45")
            # spontaneous term is negligible at the operating amplitudes
            assert rel_diff(n_u, p.alpha**2 * ch**2) < mpf("1e-10")
        # classical arms after rescaling carry eta alpha^2 cosh^2 r and
        # eta alpha^2 sinh^2 r
        q = p.replace(eta_p1="0.8", eta_c1="0.8")
        _, _, state = build_classical_J(q)
        with workdps(60):
            assert rel_diff(state["a"] ** 2, mpf("0.8") * q.alpha**2 * cosh(q.r) ** 2) < mpf("1e-45")
            assert rel_diff(state["b"] ** 2, mpf("0.8") * q.alpha**2 * sinh(q.r) ** 2) < mpf("1e-45")


class TestVacuumCircuit:
    def test_mean_vanishes_exactly(self):
        rng = random.Random(67)
        for _ in range(10):
            p = random_params(rng).replace(alpha=0, beta=0)
            J, _, state = build_vacuum_J(p)
            assert coherent_expectation(J, state) == 0

    def test_variance_matches_reference(self):
        rng = random.Random(71)
        for _ in range(20):
            p = random_params(rng).replace(alpha=0, beta=0)
            J, _, state = build_vacuum_J(p)
            engine = variance(J, state)
            ref = closed_form_report("vacuum", p).variance.real
            with workdps(p.precision):
                assert rel_diff(engine.real, ref) < mpf("1e-40")


#: (len(J), len(dJ)) per circuit: the terms the rounding-dust filter keeps
TERM_COUNTS = {
    "paper-start": {"classical": (4, 4), "tsu11": (8, 8), "su11": (8, 8), "vacuum": (8, 8)},
    "su11-point": {"classical": (4, 4), "tsu11": (12, 8), "su11": (72, 40),
                   "vacuum": (12, 8)},
}


#: paper-start with s > 0, beta != 0, lossy stages and unbalanced homodynes
SU11_POINT = dict(s="0.3", beta="1e5", eta_p1="0.9", eta_c1="0.95", eta_p2="0.93",
                  eta_c2="0.97", eta_p3="0.45", eta_c3="0.55", phi_p="0.3", phi_c="-0.7")


@pytest.mark.parametrize("point", sorted(TERM_COUNTS))
def test_term_counts_pinned(point):
    p = make_params("paper-start")
    if point == "su11-point":
        p = make_params("paper-start", **SU11_POINT)
    for name, builder in CIRCUITS.items():
        q = p.replace(alpha=0, beta=0) if name == "vacuum" else p
        J, dJ, _ = builder(q)
        assert (len(J), len(dJ)) == TERM_COUNTS[point][name], name


#: 1 - 1e-90, exact at 100 digits: a loss splitter there mixes in its
#: vacuum port with amplitude sqrt(1 - eta) = 1e-45
NEAR_ONE = "0." + "9" * 90

#: stage -> (its identity setting, a setting that mixes by 1e-45)
SKIPPED_STAGES = {
    "r": ({"r": 0}, {"r": "1e-45"}),
    "s": ({"s": 0}, {"s": "1e-45"}),
    "eta1": ({"eta_p1": 1, "eta_c1": 1}, {"eta_p1": NEAR_ONE, "eta_c1": NEAR_ONE}),
    "eta2": ({"eta_p2": 1, "eta_c2": 1}, {"eta_p2": NEAR_ONE, "eta_c2": NEAR_ONE}),
}


@pytest.mark.parametrize("arms", ["both", "probe-only"])
@pytest.mark.parametrize("stage", sorted(SKIPPED_STAGES))
def test_skipped_stage_is_the_identity_limit(stage, arms):
    # a skipped stage must drop nothing but the identity: J and dJ at the
    # identity setting agree with the stage applied 1e-45 away from it
    base = InterferometerParams(
        r="0.5", s="0.3", alpha=100, beta=3, gamma=500, kappa=400,
        eta_p1="0.9", eta_c1="0.85", eta_p2="0.93", eta_c2="0.97",
        eta_p3="0.45", eta_c3="0.55", theta_f="0.2", phi_p="0.3", phi_c="-0.4",
        arms=arms, precision=100,
    )
    at, near = SKIPPED_STAGES[stage]
    J0, dJ0, _ = build_su11_J(base.replace(**at))
    J1, dJ1, _ = build_su11_J(base.replace(**near))
    assert expr_close(J0, J1, tol="1e-40")
    assert expr_close(dJ0, dJ1, tol="1e-40")


def _lo_rotated(x: OperatorExpr, phi_p, phi_c) -> OperatorExpr:
    """x with each LO factor carrying its phase: g -> g e^{i phi_p},
    g' -> g' e^{-i phi_p}, and likewise h with phi_c."""
    with workdps(x.dps):
        terms = {}
        for factors, c in x.terms():
            k = {m: sum(1 if not dagger else -1 for f, dagger in factors if f == m)
                 for m in ("g", "h")}
            terms[factors] = c * exp(mpc(0, k["g"] * phi_p + k["h"] * phi_c))
        return OperatorExpr(terms, dps=x.dps)


@pytest.mark.parametrize("arms", ["both", "probe-only"])
@pytest.mark.parametrize("point", ["paper-start", "su11-point"])
@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_lo_phase_fold_is_exact(circuit, point, arms):
    # the LO phases live in the state: the moments of the bare chain on
    # {g: gamma e^{i phi_p}, h: kappa e^{i phi_c}} equal those of the chain
    # with the phases on its LO factors, on the real LO amplitudes
    p = make_params("paper-start", phi_p="0.7", phi_c="-1.3", arms=arms)
    if point == "su11-point":
        p = make_params("paper-start", **{**SU11_POINT, "phi_p": "0.7", "phi_c": "-1.3"},
                        arms=arms)
    if circuit == "vacuum":
        p = p.replace(alpha=0, beta=0)
    J, dJ, state = CIRCUITS[circuit](p)
    J_rot, dJ_rot = _lo_rotated(J, p.phi_p, p.phi_c), _lo_rotated(dJ, p.phi_p, p.phi_c)
    bare = dict(state, g=mpc(p.gamma), h=mpc(p.kappa))
    tol = mpf("1e-55")
    assert rel_diff(coherent_expectation(J, state), coherent_expectation(J_rot, bare)) < tol
    assert rel_diff(variance(J, state), variance(J_rot, bare)) < tol
    assert rel_diff(coherent_expectation(dJ, state),
                    coherent_expectation(dJ_rot, bare)) < tol


def _report_or_error(circuit, q):
    try:
        return report(circuit, q)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_operator_memo_key_is_complete(circuit):
    # each field perturbed alone: a report on a memo warmed at the base
    # point equals one on a cold memo, so no field that shapes the
    # operators is missing from the memo key
    base = make_params("paper-start", **SU11_POINT)
    if circuit == "vacuum":
        base = base.replace(alpha=0, beta=0)
    changes = {name: (getattr(base, name) * mpf("0.9") if getattr(base, name) else mpf("0.1"))
               for name in NUMERIC_FIELDS}
    changes.update(arms="probe-only", precision=50)
    for name, value in changes.items():
        q = base.replace(**{name: value})
        report(circuit, base)
        warm = _report_or_error(circuit, q)
        _operators.cache_clear()
        assert warm == _report_or_error(circuit, q), name
