"""Jones-matrix oracle for the waveplate transduction.

The package takes the transduced phase in closed form (``tsu11.jones``);
this test code multiplies the Jones matrices of the pipeline QWP(+45),
sample rotation, QWP(-45) explicitly, so the two routes can be compared.
"""

from __future__ import annotations

from mpmath import cos, exp, matrix, mpc, mpf, pi, sin, workdps

from tsu11 import DEFAULT_DPS


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
