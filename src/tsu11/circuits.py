"""Interferometer circuits and their joint measurement operator.

Mode labels:

    a, b   seeds of the parametric amplifier (probe, conjugate)
    c, d   vacuum ports of the internal loss beamsplitters
    e, f   vacuum ports of the external loss beamsplitters
    g, h   local oscillators of the probe and conjugate homodyne detectors

Every circuit is one optical chain, the SU(1,1) one, with other settings
(see each builder); stages at their identity setting are skipped.

Each builder returns (J, dJ, state): the joint rotated quadrature operator
J = af'.af - an'.an + bf'.bf - bn'.bn summed over both homodyne detectors,
its exact derivative dJ/dphi with respect to the sample phase, and the
coherent assignment of the seeded modes.  The sample phase enters only as
e^{i phi} on the sampled-arm forms, so dJ follows by the product rule
through the linear chain after the sample; vacuum ports and local
oscillators contribute nothing to it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from mpmath import cosh, exp, isfinite, mpc, mpf, sinh, sqrt, workdps

from .algebra import DEFAULT_DPS, OperatorExpr, adjoint, ladder, mul, zero
from .jones import sampling_phase

ARMS_BOTH = "both"
ARMS_PROBE = "probe-only"


@dataclass(frozen=True)
class InterferometerParams:
    """All physical knobs of the simulated circuits.

    r, s are the squeezing parameters of the first and second amplifier
    (gain G = cosh(r)**2); alpha, beta seed modes a, b; gamma, kappa are
    the LO amplitudes; the six eta values are power transmissions of the
    loss and homodyne beamsplitters; theta_f is the polarization rotation
    under test and phi_p, phi_c the LO phases.  ``arms`` selects whether
    only the probe or both squeezed beams pass the sample.
    """

    r: object = 0
    s: object = 0
    alpha: object = 0
    beta: object = 0
    gamma: object = 0
    kappa: object = 0
    eta_p1: object = 1
    eta_c1: object = 1
    eta_p2: object = 1
    eta_c2: object = 1
    eta_p3: object = 0.5
    eta_c3: object = 0.5
    theta_f: object = 0
    phi_p: object = 0
    phi_c: object = 0
    arms: str = ARMS_BOTH
    precision: int = DEFAULT_DPS

    def __post_init__(self):
        if self.precision < 30:
            raise ValueError(f"precision must be >= 30 digits, got {self.precision}")
        if self.arms not in (ARMS_BOTH, ARMS_PROBE):
            raise ValueError(f"arms must be '{ARMS_BOTH}' or '{ARMS_PROBE}'")
        with workdps(self.precision):
            for name in NUMERIC_FIELDS:
                v = mpf(getattr(self, name))
                if not isfinite(v):
                    raise ValueError(f"{name} = {v} is not finite")
                object.__setattr__(self, name, v)
        if self.r < 0 or self.s < 0:
            raise ValueError("squeezing parameters r, s must be nonnegative")
        for name in ("eta_p1", "eta_c1", "eta_p2", "eta_c2", "eta_p3", "eta_c3"):
            v = getattr(self, name)
            if not (0 <= v <= 1):
                raise ValueError(f"{name} = {v} outside [0, 1]")

    def gain_db(self):
        """Amplifier gain 10 log10(cosh(r)**2) in dB."""
        from mpmath import log10
        with workdps(self.precision):
            return 10 * log10(cosh(self.r) ** 2)

    def replace(self, **changes) -> "InterferometerParams":
        return replace(self, **changes)


#: the numeric parameters: every field but ``arms`` and ``precision``
NUMERIC_FIELDS = tuple(f.name for f in fields(InterferometerParams)
                       if f.name not in ("arms", "precision"))


def _homodyne_difference(sig: OperatorExpr, dsig: OperatorExpr, lo: OperatorExpr, eta3):
    """Balanced-detector difference af'.af - an'.an for one homodyne.

    af = sig*t + i*lo*l and an = lo*t + i*sig*l with t = sqrt(eta3) and
    l = sqrt(1-eta3) reduce to (t^2-l^2)(sig'.sig - lo'.lo) + 2itl(sig'.lo
    - lo'.sig), so a balanced splitter needs no sig'.sig product.  Returns
    (J, dJ), where dJ follows from the signal derivative ``dsig``.
    """
    with workdps(sig.dps):
        t, l = sqrt(eta3), sqrt(1 - eta3)
        cross = mul(adjoint(sig), lo) * mpc(0, 2 * t * l)
        dcross = mul(adjoint(dsig), lo) * mpc(0, 2 * t * l)
        J, dJ = cross + adjoint(cross), dcross + adjoint(dcross)
        if t != l:
            k = t * t - l * l
            dn = mul(adjoint(dsig), sig)
            J = J + (mul(adjoint(sig), sig) - mul(adjoint(lo), lo)) * k
            dJ = dJ + (dn + adjoint(dn)) * k
        return J, dJ


def _squeeze(x: OperatorExpr, y: OperatorExpr, r):
    """Two-mode squeezer: x -> x cosh r + y' sinh r, y -> x' sinh r + y cosh r."""
    return x * cosh(r) + adjoint(y) * sinh(r), adjoint(x) * sinh(r) + y * cosh(r)


def _chain(p: InterferometerParams):
    """(J, dJ) of a, b through squeezer r, the sample phase and internal
    loss, squeezer s, external loss and the two homodynes.  A stage at r = 0,
    s = 0 or eta = 1 would add only exact zeros, which ``_merge`` drops, so
    skipping it leaves J and dJ bit for bit unchanged, provided the other
    stages keep their order of operations."""
    dps = p.precision
    with workdps(dps):
        i = mpc(0, 1)
        phi = sampling_phase(p.theta_f, dps)
        both = p.arms == ARMS_BOTH

        def op(m):
            return ladder(m, False, 1, dps)

        u, v = op("a"), op("b")
        if p.r:
            u, v = _squeeze(u, v, p.r)
        eu = exp(i * phi) * sqrt(p.eta_p1)
        ev = (exp(i * phi) if both else mpf(1)) * sqrt(p.eta_c1)
        w, z = u * eu, v * ev
        dw, dz = u * (i * eu), (v * (i * ev) if both else zero(dps))
        if p.eta_p1 != 1:
            w = op("c") * (i * sqrt(1 - p.eta_p1)) + w
        if p.eta_c1 != 1:
            z = op("d") * (i * sqrt(1 - p.eta_c1)) + z
        if p.s:
            (w, z), (dw, dz) = _squeeze(w, z, p.s), _squeeze(dw, dz, p.s)
        if p.eta_p2 != 1:
            w = w * sqrt(p.eta_p2) + op("e") * (i * sqrt(1 - p.eta_p2))
            dw = dw * sqrt(p.eta_p2)
        if p.eta_c2 != 1:
            z = z * sqrt(p.eta_c2) + op("f") * (i * sqrt(1 - p.eta_c2))
            dz = dz * sqrt(p.eta_c2)
        Jm, dJm = _homodyne_difference(w, dw, op("g") * exp(i * p.phi_p), p.eta_p3)
        Jn, dJn = _homodyne_difference(z, dz, op("h") * exp(i * p.phi_c), p.eta_c3)
    return Jm + Jn, dJm + dJn


def _state(p: InterferometerParams, alpha, beta):
    """Coherent assignment: seeds alpha, beta on a, b and the LOs on g, h."""
    with workdps(p.precision):
        return {"a": mpc(alpha), "b": mpc(beta), "g": mpc(p.gamma), "h": mpc(p.kappa)}


def build_su11_J(p: InterferometerParams):
    """Full SU(1,1) chain: both squeezers, internal and external loss.

    Returns (J, dJ, state), the state assigning {a, b, g, h}.
    """
    return (*_chain(p), _state(p, p.alpha, p.beta))


def build_tsu11_J(p: InterferometerParams):
    """Truncated SU(1,1): second amplifier removed, dual homodyne readout.

    Forces s = 0, unit external transmissions and balanced homodyne
    splitters; eta_p1, eta_c1 keep their given values as the internal
    losses.  Returns (J, dJ, state).
    """
    return build_su11_J(p.replace(s=0, eta_p2=1, eta_c2=1, eta_p3=0.5, eta_c3=0.5))


def build_vacuum_J(p: InterferometerParams):
    """Two-mode squeezed vacuum sensing: same circuit, no seeds.

    Returns (J, dJ, state).
    """
    if p.alpha != 0 or p.beta != 0:
        raise ValueError("vacuum circuit requires alpha = beta = 0")
    return build_tsu11_J(p)


def classical_seeds(p: InterferometerParams):
    """Photon-matched classical seeds alpha*sqrt(eta_p1)*cosh(r) and
    alpha*sqrt(eta_c1)*sinh(r): the mean fields the squeezed circuit puts
    on its sampled arms."""
    with workdps(p.precision):
        return (p.alpha * sqrt(p.eta_p1) * cosh(p.r),
                p.alpha * sqrt(p.eta_c1) * sinh(p.r))


def build_classical_J(p: InterferometerParams):
    """Photon-matched classical benchmark interferometer.

    The chain with no squeezing and no loss: each seeded arm meets its LO
    on a balanced beamsplitter read out by a balanced detector pair.  The
    seeds are rescaled by ``classical_seeds`` so the photon numbers on the
    sampled arms match the squeezed circuit at p.  Returns (J, dJ, state).
    """
    J, dJ = _chain(p.replace(r=0, s=0, eta_p1=1, eta_c1=1, eta_p2=1, eta_c2=1,
                             eta_p3=0.5, eta_c3=0.5))
    return J, dJ, _state(p, *classical_seeds(p))


#: circuit name -> builder(p) -> (J, dJ/dphi, state)
CIRCUITS = {
    "classical": build_classical_J,
    "tsu11": build_tsu11_J,
    "su11": build_su11_J,
    "vacuum": build_vacuum_J,
}
