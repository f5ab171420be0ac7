"""Limit-of-detection metrology on top of the circuit builders.

The uncertainty of the rotation estimate propagates through the joint
measurement J as var(J) / |d<J>/dphi|^2, and the limit of detection is
reported as 10*log10 of the propagated standard deviation in dB(rad).
The improvement (LODI) is the squeezed circuit's LOD minus the LOD of the
photon-matched classical benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import log10, mp, mpc, mpf, sqrt, workdps

from .algebra import OperatorExpr, coherent_expectation, coherent_moments
# the benchmark's tracer self-test checks that this binding is restored
from .algebra import mul  # noqa: F401
from .circuits import ARMS_BOTH, CIRCUITS, InterferometerParams, classical_seeds
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
    """Expectations and LOD for one circuit at one parameter point."""

    mean_j: mpc
    second_moment: mpc
    variance: mpc  # imaginary part kept for audit
    dj_dphi_sq: mpf
    lod_db: mpf | None
    source: str  # "engine" or "closed-form"
    precision: int

    def to_json_dict(self) -> dict:
        """Decimal-string serialization, no binary-float loss."""
        n = self.precision

        def s(x):
            return mp.nstr(x, n)

        return {
            "mean_j": {"re": s(self.mean_j.real), "im": s(self.mean_j.imag)},
            "second_moment": {"re": s(self.second_moment.real),
                              "im": s(self.second_moment.imag)},
            "variance": {"re": s(self.variance.real), "im": s(self.variance.imag)},
            "dj_dphi_sq": s(self.dj_dphi_sq),
            "lod_db": s(self.lod_db) if self.lod_db is not None else None,
            "source": self.source,
            "precision": self.precision,
        }


@dataclass
class LodiReport:
    """LOD of the squeezed circuit against the classical benchmark."""

    lod_tsu11_db: mpf
    lod_classical_db: mpf
    lodi_db: mpf
    precision: int

    def to_json_dict(self) -> dict:
        n = self.precision
        return {
            "lod_tsu11_db": mp.nstr(self.lod_tsu11_db, n),
            "lod_classical_db": mp.nstr(self.lod_classical_db, n),
            "lodi_db": mp.nstr(self.lodi_db, n),
            "precision": n,
        }


def _moments(J: OperatorExpr, state):
    """(<J>, <J^2>, var J) with an audit of the imaginary residue of var J.

    ``coherent_moments`` takes var J on the displaced vacuum, so nothing
    cancels and <J^2> = var J + <J>^2 is formed only for the report.  The
    residue bound is relative to <J^2>, which for Hermitian J is the sum
    of the magnitudes the kernel adds.
    """
    with workdps(J.dps):
        m1, var = coherent_moments(J, state)
        m2 = var + m1 * m1
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


def dj_dphi_sq(builder, p: InterferometerParams):
    """|d<J>/dphi|^2 = |<dJ/dphi>|^2 from the builder's exact derivative.

    The transduction slope has unit magnitude, so this also equals
    |d<J>/dtheta_f|^2.
    """
    if isinstance(builder, str):
        builder = CIRCUITS[builder]
    _, dJ, state = builder(p)
    with workdps(p.precision):
        return abs(coherent_expectation(dJ, state)) ** 2


def report(builder, p: InterferometerParams) -> MetrologyReport:
    """Full engine-route metrology report for one circuit."""
    if isinstance(builder, str):
        builder = CIRCUITS[builder]
    with workdps(p.precision):
        J, dJ, state = builder(p)
        m1, m2, var = _moments(J, state)
        dsq = abs(coherent_expectation(dJ, state)) ** 2
        lod = None
        if dsq > 0:
            lod = 10 * log10(sqrt(var.real / dsq))
        return MetrologyReport(
            mean_j=m1,
            second_moment=m2,
            variance=var,
            dj_dphi_sq=dsq,
            lod_db=lod,
            source="engine",
            precision=p.precision,
        )


def lod_db(builder, p: InterferometerParams):
    """10*log10(sqrt(var / |d<J>/dphi|^2)) in dB(rad)."""
    rep = report(builder, p)
    if rep.lod_db is None:
        raise UndefinedLodError(
            "phase derivative of <J> vanishes (unseeded circuit): LOD undefined",
            variance=rep.variance,
        )
    return rep.lod_db


def closed_form_report(circuit: str, p: InterferometerParams) -> MetrologyReport:
    """Analytic-route report for the canonical circuits (b unseeded, and
    eta_p1 == eta_c1 for the squeezed circuits).

    Independent of the operator engine; used to cross-check it.
    """
    from . import closed_form as cf

    if p.beta != 0:
        raise ValueError("closed forms assume an unseeded conjugate input")
    if circuit in ("tsu11", "vacuum") and p.eta_p1 != p.eta_c1:
        raise ValueError("squeezed-circuit closed forms assume eta_p1 == eta_c1")
    with workdps(p.precision):
        phi = sampling_phase(p.theta_f, p.precision)
        if circuit == "classical":
            a_eff, b_eff = classical_seeds(p)
            phi_b = phi if p.arms == ARMS_BOTH else mpf(0)
            mean = cf.classical_mean(a_eff, b_eff, p.gamma, p.kappa,
                                     phi, phi_b, p.phi_p, p.phi_c)
            var = mpc(cf.classical_variance(a_eff, b_eff, p.gamma, p.kappa))
            dsq = cf.classical_derivative_sq(
                a_eff, b_eff, p.gamma, p.kappa, phi, phi_b, p.phi_p, p.phi_c,
                probe_only=(p.arms != ARMS_BOTH))
        elif circuit == "tsu11":
            mean = mpc(cf.tsu11_mean(p, phi))
            var = mpc(cf.tsu11_variance(p, phi))
            dsq = cf.tsu11_derivative_sq(p, phi)
        elif circuit == "vacuum":
            if p.alpha != 0:
                raise ValueError("vacuum closed form requires alpha = 0")
            mean = mpc(0)
            var = mpc(cf.vacuum_variance(p, phi))
            dsq = mpf(0)
        else:
            raise ValueError(f"no closed form for circuit {circuit!r}")
        lod = 10 * log10(sqrt(var.real / dsq)) if dsq > 0 else None
        return MetrologyReport(
            mean_j=mpc(mean),
            second_moment=var + mpc(mean) ** 2,
            variance=var,
            dj_dphi_sq=dsq,
            lod_db=lod,
            source="closed-form",
            precision=p.precision,
        )


def classical_reference(p: InterferometerParams) -> MetrologyReport:
    """Classical benchmark at its derivative-maximizing LO phases.

    The classical variance is phase independent and the derivative is
    maximal when both LO phases equal the sample phase, so the reference
    is evaluated there; it shares the arms setting of the circuit under
    comparison.
    """
    with workdps(p.precision):
        phi = sampling_phase(p.theta_f, p.precision)
    q = p.replace(phi_p=phi, phi_c=phi)
    return report("classical", q)


def lodi_db(p: InterferometerParams) -> LodiReport:
    """LOD improvement of the truncated SU(1,1) over the classical benchmark."""
    rep_t = report("tsu11", p)
    if rep_t.lod_db is None:
        raise UndefinedLodError("squeezed-circuit LOD undefined", rep_t.variance)
    rep_c = classical_reference(p)
    with workdps(p.precision):
        return LodiReport(
            lod_tsu11_db=rep_t.lod_db,
            lod_classical_db=rep_c.lod_db,
            lodi_db=rep_t.lod_db - rep_c.lod_db,
            precision=p.precision,
        )
