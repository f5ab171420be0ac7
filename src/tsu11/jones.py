"""Jones-calculus transduction of polarization rotation into optical phase.

Two quarter-wave plates sandwich the rotating sample: the first converts
linear to circular polarization, the rotation becomes a phase shift on the
circular basis, and the second plate converts back.  For a horizontally
polarized input the output is (cos(theta) - i sin(theta), 0), i.e. a pure
phase with unit magnitude slope.  The package takes that phase in closed
form; the Jones matrices of the pipeline are a test oracle
(``tests/jones_oracle.py``).
"""

from __future__ import annotations

from mpmath import arg, cos, mpc, mpf, sin, workdps

from .algebra import DEFAULT_DPS


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
