"""Polarization-to-phase transduction checks."""

import random

from mpmath import arg, cos, fabs, mpf, sin, workdps

from tsu11 import sampling_phase, transduce

from jones_oracle import jones_pipeline, qwp_minus45, qwp_plus45


def test_transduce_identity():
    assert transduce(0) == 0


def test_transduce_small_angle():
    val = transduce("0.001")
    with workdps(60):
        assert abs(val + mpf("0.001")) < mpf("1e-58")


def test_transduce_equals_minus_theta_on_principal_domain():
    rng = random.Random(3)
    for _ in range(50):
        t = mpf(str(rng.uniform(-3.1, 3.1)))
        assert abs(transduce(t) + t) < mpf("1e-55")


def test_transduction_slope_magnitude_one():
    # central difference at theta = 0.001
    h = mpf("1e-8")
    t = mpf("0.001")
    slope = (transduce(t + h) - transduce(t - h)) / (2 * h)
    assert abs(fabs(slope) - 1) < mpf("1e-12")


def test_sampling_phase_is_positive_slope():
    assert abs(sampling_phase("0.001") - mpf("0.001")) < mpf("1e-58")


def test_pipeline_identity_input():
    out = jones_pipeline(0)
    assert abs(out[0] - 1) < mpf("1e-55")
    assert abs(out[1]) < mpf("1e-55")


def test_pipeline_pure_phase_output():
    theta = mpf("0.3")
    out = jones_pipeline(theta)
    with workdps(60):
        expected = cos(theta) - 1j * sin(theta)
        assert abs(out[0] - expected) < mpf("1e-50")
        assert abs(out[1]) < mpf("1e-50")


def test_pipeline_arg_matches_transduce():
    rng = random.Random(17)
    for _ in range(100):
        t = mpf(str(rng.uniform(-1.5, 1.5)))
        out = jones_pipeline(t)
        assert abs(arg(out[0]) - transduce(t)) < mpf("1e-50")


def test_waveplates_unitary():
    for mat in (qwp_plus45(), qwp_minus45()):
        with workdps(60):
            prod = mat.H * mat
            for i in range(2):
                for j in range(2):
                    target = 1 if i == j else 0
                    assert abs(prod[i, j] - target) < mpf("1e-50")
