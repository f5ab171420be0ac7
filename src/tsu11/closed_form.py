"""The analytic route: a closed-form report that cross-checks the operator engine.

Each circuit here sends mean fields a, b through the sample to beat
against the LOs gamma e^{i phi_p}, kappa e^{i phi_c} on balanced
homodynes.  By Wick decomposition over coherent product states (each mode
is its mean field plus a fluctuation), <J> and d<J>/dphi depend on the
mean fields alone, and var J is the shot noise a^2 + b^2 + gamma^2 +
kappa^2 plus what the squeezer adds.  The classical benchmark is the
general case, with no excess.  The truncated SU(1,1) with b unseeded has
the arm fields sqrt(eta) alpha (cosh r, sinh r), written here rather than
taken from the engine's photon matching; the vacuum circuit is it at
alpha = 0.  ``closed_form_report`` checks the route's preconditions and
adds guard digits, so that the cross-check measures the engine's
rounding, not its own.
"""

from __future__ import annotations

from mpmath import cos, cosh, mpc, mpf, sin, sinh, sqrt, workdps

from .circuits import ARMS_BOTH, InterferometerParams, classical_seeds
from .jones import sampling_phase
from .metrology import MetrologyReport


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
    g, k, both = p.gamma, p.kappa, p.arms == ARMS_BOTH
    # guard digits: the squeezed variance cancels up to 4r/ln 10 of them
    with workdps(p.precision + 10 + int(2 * p.r)):
        phi = sampling_phase(p.theta_f, p.precision)
        phi_b = phi if both else mpf(0)
        if circuit == "classical":
            (a, b), excess = classical_seeds(p), 0
        else:
            field = p.alpha * sqrt(p.eta_p1)
            a, b = field * cosh(p.r), field * sinh(p.r)
            # the squeezer's amplified vacuum beating against the LOs and
            # itself, less the two-mode correlation
            excess = 2 * p.eta_p1 * (sinh(p.r) ** 2 * (g**2 + k**2 + 1)
                                     - g * k * sinh(2 * p.r) * cos(phi + phi_b - p.phi_p - p.phi_c))
        mean = mpc(2 * (a * g * sin(phi - p.phi_p) + b * k * sin(phi_b - p.phi_c)))
        var = mpc(a**2 + b**2 + g**2 + k**2 + excess)
        slope = a * g * cos(phi - p.phi_p)
        if both:
            slope += b * k * cos(phi_b - p.phi_c)
        return MetrologyReport(mean, var + mean**2, var, 4 * slope**2, "closed-form", p.precision)
