"""Limit-of-detection metrology on top of the circuit builders.

The uncertainty of the rotation estimate propagates through the joint
measurement J as var(J) / |d<J>/dphi|^2, and the limit of detection is
reported as 10*log10 of the propagated standard deviation in dB(rad).
The improvement (LODI) is the squeezed circuit's LOD minus the LOD of the
photon-matched classical benchmark.

Every LOD, LODI and undefined-LOD error of the package is taken here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import from_int, fzero, mpf_div, mpf_log, mpf_mul_int, mpf_sqrt, round_nearest

from .algebra import OperatorExpr, amplitudes, coherent_expectation, coherent_moments
# the benchmark's tracer self-test checks that this binding is restored
from .algebra import mul  # noqa: F401
from .circuits import CIRCUITS, InterferometerParams
from .jones import sampling_phase


class UndefinedLodError(ArithmeticError):
    """The phase derivative of <J> vanishes, so the LOD is undefined."""

    def __init__(self, message, variance=None):
        super().__init__(message)
        self.variance = variance


class ConsistencyError(ValueError):
    """An internal cross-check failed (e.g. variance not real)."""


@dataclass
class MetrologyReport:
    """Expectations and LOD for one circuit at one parameter point; no LOD
    where the phase derivative vanishes."""

    mean_j: mpc
    second_moment: mpc
    variance: mpc  # imaginary part kept for audit
    dj_dphi_sq: mpf
    source: str  # "engine" or "closed-form"
    precision: int

    @property
    def lod_db(self) -> mpf | None:
        """The LOD, taken where it is read: a report that feeds an
        interpolant takes none."""
        with workdps(self.precision):
            dsq = self.dj_dphi_sq
            return lod_from_ratio(self.variance.real / dsq) if dsq > 0 else None


@dataclass
class LodiReport:
    """LOD of the squeezed circuit against the classical benchmark."""

    lod_tsu11_db: mpf
    lod_classical_db: mpf
    lodi_db: mpf
    precision: int


def _moments(J: OperatorExpr, state):
    """(<J>, <J^2>, var J) with an audit of the imaginary residue of var J.

    ``coherent_moments`` takes var J on the displaced vacuum, so nothing
    cancels and <J^2> = var J + <J>^2 is formed only for the report.
    ``state`` is the amplitudes or their set-up at J's precision
    (``algebra.amplitudes``).  The residue bound is relative to <J^2>,
    which for Hermitian J is the sum of the magnitudes the kernel adds.
    The kernel's var of a Hermitian J is exactly real, and an exactly zero
    residue passes without forming the bound.
    """
    with workdps(J.dps):
        m1, var = coherent_moments(J, state)
        m2 = var + m1 * m1
        if var._mpc_[1] != fzero:
            scale = max(abs(m2), abs(m1) ** 2, mpf(1))
            if abs(var.imag) > scale * mpf(10) ** (-(J.dps - 10)):
                raise ConsistencyError(
                    f"variance has imaginary residue {var.imag} at {J.dps} digits"
                )
        return m1, m2, var


def variance(J: OperatorExpr, state) -> mpc:
    """var J = <J.J> - <J>^2 from the displaced vacuum, without forming
    J.J, with an audit of the imaginary residue."""
    return _moments(J, state)[2]


#: ln 10 at a precision in bits, as mpmath's log10 takes it on every call
_ln10 = functools.cache(lambda prec: mpf_log(from_int(10), prec, round_nearest))


def raw_lod(ratio, prec: int):
    """The LOD of the raw mpf ``ratio`` at ``prec`` bits: the steps of
    mpmath's 10*log10(sqrt(ratio)), both logarithms 20 bits beyond prec."""
    ln = mpf_log(mpf_sqrt(ratio, prec, round_nearest), prec + 20, round_nearest)
    return mpf_mul_int(mpf_div(ln, _ln10(prec + 20), prec, round_nearest), 10, prec, round_nearest)


def lod_from_ratio(ratio):
    """The LOD in dB(rad) of the mpf ratio = var / |d<J>/dphi|^2."""
    return mp.make_mpf(raw_lod(ratio._mpf_, mp.prec))


def defined_lod(rep: MetrologyReport, message: str, variance=None):
    """``rep.lod_db``, or ``UndefinedLodError(message, variance)`` where the
    phase derivative of <J> vanishes."""
    lod = rep.lod_db
    if lod is None:
        raise UndefinedLodError(message, variance)
    return lod


def report(circuit: str, p: InterferometerParams) -> MetrologyReport:
    """Full engine-route metrology report for one circuit.  <J>, var J and
    <dJ> share one kernel set-up: the state's ``amplitudes``, converted
    once, and the exact normal forms stored on J and dJ."""
    with workdps(p.precision):
        J, dJ, state = CIRCUITS[circuit](p)
        state = amplitudes(state, J.dps)
        m1, m2, var = _moments(J, state)
        dsq = abs(coherent_expectation(dJ, state)) ** 2
        return MetrologyReport(m1, m2, var, dsq, "engine", p.precision)


def dj_dphi_sq(circuit: str, p: InterferometerParams):
    """|d<J>/dphi|^2 = |<dJ/dphi>|^2 from the builder's exact derivative.

    The transduction slope has unit magnitude, so this also equals
    |d<J>/dtheta_f|^2.
    """
    return report(circuit, p).dj_dphi_sq


def lod_db(circuit: str, p: InterferometerParams):
    """10*log10(sqrt(var / |d<J>/dphi|^2)) in dB(rad)."""
    rep = report(circuit, p)
    message = "phase derivative of <J> vanishes (unseeded circuit): LOD undefined"
    return defined_lod(rep, message, rep.variance)


def classical_reference(p: InterferometerParams) -> MetrologyReport:
    """Classical benchmark at its derivative-maximizing LO phases.

    The classical variance is phase independent and the derivative is
    maximal when both LO phases equal the sample phase, so the reference
    is evaluated there; it shares the arms setting of the circuit under
    comparison.
    """
    return report("classical", classical_point(p))


def classical_point(p: InterferometerParams) -> InterferometerParams:
    """p with both LO phases at the sample phase, where the classical
    reference is evaluated."""
    with workdps(p.precision):
        phi = sampling_phase(p.theta_f, p.precision)
    return p.replace(phi_p=phi, phi_c=phi)


def classical_lod(p: InterferometerParams):
    """LOD of the classical reference, ``UndefinedLodError`` where the
    phase derivative of its <J> vanishes (an unseeded reference)."""
    return defined_lod(classical_reference(p), "classical reference LOD undefined: "
                       "the phase derivative of its <J> vanishes")


def lodi_db(p: InterferometerParams, circuit: str = "tsu11") -> LodiReport:
    """LOD improvement of the squeezed ``circuit`` over the classical
    benchmark; ``lod_tsu11_db`` holds that circuit's LOD."""
    rep_t = report(circuit, p)
    lod_t = defined_lod(rep_t, "squeezed-circuit LOD undefined", rep_t.variance)
    lod_c = classical_lod(p)
    with workdps(p.precision):
        return LodiReport(
            lod_tsu11_db=lod_t,
            lod_classical_db=lod_c,
            lodi_db=lod_t - lod_c,
            precision=p.precision,
        )
