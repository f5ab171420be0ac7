"""The analytic route: closed forms that cross-check the operator engine.

Each circuit here sends mean fields a, b through the sample to beat
against the LOs gamma e^{i phi_p}, kappa e^{i phi_c} on balanced
homodynes.  By Wick decomposition over coherent product states (each mode
is its mean field plus a fluctuation), <J> and d<J>/dphi depend on the
mean fields alone, and var J is the shot noise a^2 + b^2 + gamma^2 +
kappa^2 plus what the squeezer adds.  The classical benchmark is the
general case, with no excess.  The truncated SU(1,1) with b unseeded has
the arm fields sqrt(eta) alpha (cosh r, sinh r), written here rather than
taken from the engine's photon matching; the vacuum circuit is it at
alpha = 0.  The formulas evaluate in the caller's working precision;
``closed_form_report`` checks the route's preconditions and adds guard
digits, so that the cross-check measures the engine's rounding, not its own.
"""

from __future__ import annotations

from mpmath import cos, cosh, mpc, mpf, sin, sinh, sqrt, workdps

from .circuits import ARMS_BOTH, InterferometerParams, classical_seeds
from .jones import sampling_phase
from .metrology import MetrologyReport


def classical_mean(alpha, beta, gamma, kappa, phi_a, phi_b, phi_p, phi_c):
    """<J> of mean fields alpha, beta at sample phases phi_a, phi_b."""
    return 2 * (alpha * gamma * sin(phi_a - phi_p) + beta * kappa * sin(phi_b - phi_c))


def classical_derivative_sq(alpha, beta, gamma, kappa, phi_a, phi_b, phi_p, phi_c,
                            probe_only: bool = False):
    """|d<J>/dphi|**2 for phi_a = phi_b = phi, or phi_a = phi alone."""
    slope = alpha * gamma * cos(phi_a - phi_p)
    if not probe_only:
        slope += beta * kappa * cos(phi_b - phi_c)
    return 4 * slope**2


def classical_variance(alpha, beta, gamma, kappa):
    """Coherent shot noise of J: phase independent."""
    return alpha**2 + beta**2 + gamma**2 + kappa**2


def _args(p: InterferometerParams, phi, seeds=None):
    """Arguments of the classical forms in p's circuit at sample phase phi,
    with mean fields ``seeds``, by default the tsu11 arm fields."""
    if seeds is None:
        field = p.alpha * sqrt(p.eta_p1)
        seeds = field * cosh(p.r), field * sinh(p.r)
    phi_b = phi if p.arms == ARMS_BOTH else mpf(0)
    return (*seeds, p.gamma, p.kappa, phi, phi_b, p.phi_p, p.phi_c)


def _squeezer_excess(p: InterferometerParams, phi):
    """Noise the squeezer adds to the shot noise: its amplified vacuum
    beating against the LOs and itself, less the two-mode correlation."""
    _, _, g, k, phi_a, phi_b, phi_p, phi_c = _args(p, phi)
    return 2 * p.eta_p1 * (sinh(p.r) ** 2 * (g**2 + k**2 + 1)
                           - g * k * sinh(2 * p.r) * cos(phi_a + phi_b - phi_p - phi_c))


def tsu11_mean(p: InterferometerParams, phi):
    """<J> for the truncated SU(1,1) circuit with beta = 0."""
    return classical_mean(*_args(p, phi))


def tsu11_derivative_sq(p: InterferometerParams, phi):
    """|d<J>/dphi|**2 for the truncated SU(1,1) circuit with beta = 0."""
    return classical_derivative_sq(*_args(p, phi), probe_only=p.arms != ARMS_BOTH)


def tsu11_variance(p: InterferometerParams, phi):
    """Variance of J for the truncated SU(1,1) circuit with beta = 0: the
    shot noise, whose seed part is eta alpha^2 cosh 2r, plus the excess."""
    return classical_variance(*_args(p, phi)[:4]) + _squeezer_excess(p, phi)


#: variance of J with both amplifier inputs unseeded (<J> = 0): the
#: truncated SU(1,1) variance at alpha = 0
vacuum_variance = tsu11_variance


def closed_form_report(circuit: str, p: InterferometerParams) -> MetrologyReport:
    """Analytic-route report, independent of the operator engine, for the
    canonical circuits: b unseeded, and eta_p1 == eta_c1 if squeezed."""
    if circuit not in ("classical", "tsu11", "vacuum"):
        raise ValueError(f"no closed form for circuit {circuit!r}")
    if p.beta != 0:
        raise ValueError("closed forms assume an unseeded conjugate input")
    if circuit != "classical" and p.eta_p1 != p.eta_c1:
        raise ValueError("squeezed-circuit closed forms assume eta_p1 == eta_c1")
    if circuit == "vacuum" and p.alpha != 0:
        raise ValueError("vacuum closed form requires alpha = 0")
    # guard digits: the squeezed variance cancels up to 4r/ln 10 of them
    with workdps(p.precision + 10 + int(2 * p.r)):
        phi = sampling_phase(p.theta_f, p.precision)
        if circuit == "classical":
            args, excess = _args(p, phi, classical_seeds(p)), 0
        else:
            args, excess = _args(p, phi), _squeezer_excess(p, phi)
        mean = mpc(classical_mean(*args))
        var = mpc(classical_variance(*args[:4]) + excess)
        dsq = classical_derivative_sq(*args, probe_only=p.arms != ARMS_BOTH)
        return MetrologyReport(mean, var + mean**2, var, dsq, "closed-form", p.precision)
