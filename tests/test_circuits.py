"""Circuit construction against the analytic reference forms."""

import random

import pytest
from mpmath import cosh, mpf, sinh, sqrt, workdps

from tsu11 import (
    CIRCUITS,
    InterferometerParams,
    adjoint,
    build_classical_J,
    build_su11_J,
    build_tsu11_J,
    build_vacuum_J,
    coherent_expectation,
    ladder,
    make_params,
    mul,
    normal_order,
    sampling_phase,
    variance,
)
from tsu11.closed_form import (
    classical_mean,
    classical_variance,
    tsu11_mean,
    tsu11_variance,
    vacuum_variance,
)

from conftest import expr_close, rel_diff


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

    def test_gain_relation(self):
        p = InterferometerParams(r="0.88")
        with workdps(60):
            import mpmath

            expected = 10 * mpmath.log10(cosh(p.r) ** 2)
            assert abs(p.gain_db() - expected) < mpf("1e-50")

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
            with workdps(p.precision):
                phi = sampling_phase(p.theta_f, p.precision)
                ref = classical_mean(
                    state["a"].real, state["b"].real, p.gamma, p.kappa,
                    phi, phi, p.phi_p, p.phi_c,
                )
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
        with workdps(60):
            ref = classical_variance(
                mpf("2e6") * cosh(mpf("0.88")),
                mpf("2e6") * sinh(mpf("0.88")),
                mpf("2e8"),
                mpf("2e8"),
            )
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
            with workdps(p.precision):
                ref = tsu11_mean(p, sampling_phase(p.theta_f, p.precision))
                assert rel_diff(engine, ref) < mpf("1e-40")

    def test_variance_matches_reference(self):
        rng = random.Random(53)
        for _ in range(20):
            p = random_params(rng)
            J, _, state = build_tsu11_J(p)
            engine = variance(J, state)
            with workdps(p.precision):
                ref = tsu11_variance(p, sampling_phase(p.theta_f, p.precision))
                assert rel_diff(engine.real, ref) < mpf("1e-40")

    def test_probe_only_variant(self):
        rng = random.Random(59)
        for _ in range(10):
            p = random_params(rng, arms="probe-only")
            J, _, state = build_tsu11_J(p)
            with workdps(p.precision):
                phi = sampling_phase(p.theta_f, p.precision)
                assert rel_diff(coherent_expectation(J, state), tsu11_mean(p, phi)) < mpf("1e-40")
                assert rel_diff(variance(J, state).real, tsu11_variance(p, phi)) < mpf("1e-40")

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
        J_q, _, state_q = build_tsu11_J(p)
        J_c, _, state_c = build_classical_J(p)
        assert state_c["a"] == state_q["a"]
        assert state_c["b"] == 0
        with workdps(60):
            assert rel_diff(
                coherent_expectation(J_q, state_q),
                coherent_expectation(J_c, state_c),
            ) < mpf("1e-50")

    def test_loss_unitarity(self):
        # eta = 1: no vacuum-port operators appear
        p = InterferometerParams(r="0.6", alpha=10, gamma=100, kappa=100,
                                 theta_f="0.01")
        J, _, _ = build_tsu11_J(p)
        assert set(J.modes()) <= {"a", "b", "g", "h"}
        # eta = 0: the seeded squeezed modes never reach the detectors
        p0 = p.replace(eta_p1=0, eta_c1=0)
        J0, _, state0 = build_tsu11_J(p0)
        assert "a" not in J0.modes() and "b" not in J0.modes()
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
            with workdps(p.precision):
                ref = vacuum_variance(p, sampling_phase(p.theta_f, p.precision))
                assert rel_diff(engine.real, ref) < mpf("1e-40")


#: (len(J), len(dJ)) per circuit: the terms the rounding-dust filter keeps
TERM_COUNTS = {
    "paper-start": {"classical": (4, 4), "tsu11": (8, 8), "su11": (8, 8), "vacuum": (8, 8)},
    "su11-point": {"classical": (4, 4), "tsu11": (12, 8), "su11": (72, 40),
                   "vacuum": (12, 8)},
}


@pytest.mark.parametrize("point", sorted(TERM_COUNTS))
def test_term_counts_pinned(point):
    p = make_params("paper-start")
    if point == "su11-point":
        p = make_params("paper-start", s="0.3", beta="1e5", eta_p1="0.9", eta_c1="0.95",
                        eta_p2="0.93", eta_c2="0.97", eta_p3="0.45", eta_c3="0.55",
                        phi_p="0.3", phi_c="-0.7")
    for name, builder in CIRCUITS.items():
        q = p.replace(alpha=0, beta=0) if name == "vacuum" else p
        J, dJ, _ = builder(q)
        assert (len(J), len(dJ)) == TERM_COUNTS[point][name], name
