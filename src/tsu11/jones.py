"""Jones-calculus transduction of polarization rotation into optical phase.

Two quarter-wave plates sandwich the rotating sample: the first converts
linear to circular polarization, the rotation becomes a phase shift on the
circular basis, and the second plate converts back.  For a horizontally
polarized input the output is (cos(theta) - i sin(theta), 0), i.e. a pure
phase with unit magnitude slope.
"""

from __future__ import annotations

from mpmath import arg, cos, exp, matrix, mpc, mpf, pi, sin, workdps

from .algebra import DEFAULT_DPS


def qwp_plus45(dps: int = DEFAULT_DPS) -> matrix:
    """Quarter-wave plate with fast axis at +45 degrees."""
    with workdps(dps):
        p = exp(mpc(0, -1) * pi / 4)
        h = mpf(1) / 2
        return matrix(
            [[(h + h * 1j) * p, (h - h * 1j) * p],
             [(h - h * 1j) * p, (h + h * 1j) * p]]
        )


def qwp_minus45(dps: int = DEFAULT_DPS) -> matrix:
    """Quarter-wave plate with fast axis at -45 degrees."""
    with workdps(dps):
        p = exp(mpc(0, -1) * pi / 4)
        h = mpf(1) / 2
        return matrix(
            [[(h + h * 1j) * p, (-h + h * 1j) * p],
             [(-h + h * 1j) * p, (h + h * 1j) * p]]
        )


def rotator(theta, dps: int = DEFAULT_DPS) -> matrix:
    """Polarization rotation by theta radians."""
    with workdps(dps):
        t = mpf(theta)
        return matrix([[cos(t), sin(t)], [-sin(t), cos(t)]])


def jones_pipeline(theta_f, vec: matrix | None = None, dps: int = DEFAULT_DPS) -> matrix:
    """Output Jones vector after QWP(+45), sample rotation, QWP(-45).

    Defaults to a horizontally polarized input.
    """
    with workdps(dps):
        if vec is None:
            vec = matrix([mpc(1), mpc(0)])
        return qwp_minus45(dps) * (rotator(theta_f, dps) * (qwp_plus45(dps) * vec))


def transduce(theta_f, dps: int = DEFAULT_DPS):
    """Phase acquired through the waveplate pipeline: arg(cos t - i sin t).

    Equals -theta_f on the open principal domain (-pi, pi).
    """
    with workdps(dps):
        t = mpf(theta_f)
        return arg(cos(t) - mpc(0, 1) * sin(t))


def sampling_phase(theta_f, dps: int = DEFAULT_DPS):
    """Phase applied on a sampled interferometer arm for rotation theta_f.

    The waveplate pair is oriented for a positive transduction slope, so
    the arm phase is +theta_f; mirroring the plate angles negates the
    phase together with every optimal LO phase.
    """
    with workdps(dps):
        return -transduce(theta_f, dps)
