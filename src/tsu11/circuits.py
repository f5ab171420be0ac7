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
coherent assignment of the seeded modes and the local oscillators.  The
sample phase enters only as e^{i phi} on the sampled-arm forms, so dJ
follows by the product rule through the linear chain after the sample;
vacuum ports and local oscillators contribute nothing to it.

An LO phase is the phase of that LO's coherent amplitude, not a factor of
the operator: each LO mode reaches the detectors only as g e^{i phi_p}
(h e^{i phi_c}), so the moments of the chain with that factor on the
state {g: gamma} equal those of the bare chain on {g: gamma e^{i phi_p}}.
J and dJ therefore depend only on the fields outside ``STATE_FIELDS``.
The last four (J, dJ) pairs are memoised on those fields, so a change of
seed, LO amplitude or LO phase alone builds nothing.  The half of the
chain that r does not touch is memoised on the same fields less r, so a
new r builds only its squeezer and the port rows: each port stays a
plain dict of terms until the homodynes, which form its product with
the LO by ``mul``, and J and dJ are bit for bit those of a chain of
expressions.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields, replace
from typing import NamedTuple
from mpmath import exp, isfinite, mp, mpc, mpf, sqrt, workdps
from mpmath.libmp import mpf_cosh_sinh, round_nearest

from .algebra import DEFAULT_DPS, OperatorExpr, _merge, _sum, adjoint, ladder, mul
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
        self._check(NUMERIC_FIELDS)

    def _check(self, names):
        """Convert the numeric fields ``names``, in field order, to mpf at
        the working precision and check them, all others being valid:
        finite values in field order, then the sign of r and s, then each
        eta in [0, 1]."""
        for name in names:
            v = mpf(getattr(self, name), dps=self.precision)
            if not isfinite(v):
                raise ValueError(f"{name} = {v} is not finite")
            object.__setattr__(self, name, v)
        if ("r" in names and self.r < 0) or ("s" in names and self.s < 0):
            raise ValueError("squeezing parameters r, s must be nonnegative")
        for name in names:
            if name.startswith("eta") and not (0 <= getattr(self, name) <= 1):
                raise ValueError(f"{name} = {getattr(self, name)} outside [0, 1]")

    def replace(self, **changes) -> "InterferometerParams":
        """``dataclasses.replace``, which converts and checks every field;
        a change of numeric fields alone converts and checks only those."""
        if not changes.keys() <= _NUMERIC:
            return replace(self, **changes)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        new._check([name for name in NUMERIC_FIELDS if name in changes])
        return new


#: the numeric parameters: every field but ``arms`` and ``precision``
NUMERIC_FIELDS = tuple(f.name for f in fields(InterferometerParams)
                       if f.name not in ("arms", "precision"))
_NUMERIC = frozenset(NUMERIC_FIELDS)

#: the LO modes, whose amplitudes carry phi_p and phi_c in this order
LO_MODES = ("g", "h")
#: the fields that enter only the coherent state, never the operators
STATE_FIELDS = ("alpha", "beta", "gamma", "kappa", "phi_p", "phi_c")
#: every other field, including any added later: the operator memo's key
OPERATOR_FIELDS = tuple(f.name for f in fields(InterferometerParams)
                        if f.name not in STATE_FIELDS)
#: builds the key at its final size: a tuple grown from a generator is
#: resized, and every key freed would stay on the tuple free list
_operator_key = operator.attrgetter(*OPERATOR_FIELDS)


#: the r-free half's key: ``OPERATOR_FIELDS`` less r, the first field
_R_FREE_FIELDS = OPERATOR_FIELDS[1:]


def _scaled(x: dict, c, dps: int) -> dict:
    """The terms of x * c for terms x and an mpc c, cut as ``_merge`` cuts."""
    return _merge({f: v * c for f, v in x.items()}, dps)


def _plus(x: dict, y: dict, dps: int) -> dict:
    """The terms of x + y, y's new keys after x's, cut as ``_merge`` cuts."""
    return _merge(_sum([*x.items(), *y.items()]), dps)


def _dagger(x: dict) -> dict:
    """The terms of x's adjoint: its magnitudes, so ``_merge``'s cut, stay."""
    return {tuple((m, not d) for m, d in reversed(f)): v.conjugate() for f, v in x.items()}


def _squeeze(x: dict, y: dict, ch, sh, dps: int):
    """Two-mode squeezer: x -> x cosh + y' sinh, y -> x' sinh + y cosh."""
    return (_plus(_scaled(x, ch, dps), _scaled(_dagger(y), sh, dps), dps),
            _plus(_scaled(_dagger(x), sh, dps), _scaled(y, ch, dps), dps))


def _cosh_sinh(x):
    """mpc(cosh x), mpc(sinh x) from one ``mpf_cosh_sinh`` at the working precision."""
    return [mpc(mp.make_mpf(v)) for v in mpf_cosh_sinh(x._mpf_, mp.prec, round_nearest)]


class _Arm(NamedTuple):
    """The r-free stages of one arm; every scalar an mpc, as
    ``OperatorExpr.scaled`` takes it, and None for a skipped stage."""

    weight: mpc  # e^{i phi} sqrt(eta1), with no e^{i phi} on an unsampled arm
    dweight: mpc | None  # its phi derivative; None on an unsampled arm
    loss: dict | None  # the internal loss port's term
    external: tuple | None  # sqrt(eta2) and the external loss port's term
    lo: OperatorExpr  # the bare LO mode
    mixed: OperatorExpr  # lo weighted 2itl by the homodyne splitter
    k: mpc | None  # t^2 - l^2; None where balanced


def _homodyne_difference(sig: OperatorExpr, dsig: OperatorExpr, arm: _Arm):
    """Balanced-detector difference af'.af - an'.an for one homodyne.

    af = sig*t + i*lo*l and an = lo*t + i*sig*l with t = sqrt(eta3) and
    l = sqrt(1-eta3) reduce to (t^2-l^2)(sig'.sig - lo'.lo) + 2itl(sig'.lo
    - lo'.sig), so a balanced splitter needs no sig'.sig product.  Returns
    the terms of (J, dJ), where dJ follows from the signal derivative
    ``dsig``.
    """
    dps, lo, k = sig.dps, arm.lo, arm.k

    def difference(x):
        # (sig'.lo) 2itl as sig'.(lo 2itl): lo's unit weight multiplies exactly
        cross = mul(adjoint(x), arm.mixed)._terms
        return {**cross, **_dagger(cross)}

    J, dJ = difference(sig), difference(dsig)
    if k is None:
        return J, dJ
    dn = mul(adjoint(dsig), sig)
    J = OperatorExpr(J, dps, _trusted=True) + (mul(adjoint(sig), sig) - mul(adjoint(lo), lo)) * k
    dJ = OperatorExpr(dJ, dps, _trusted=True) + (dn + adjoint(dn)) * k
    return J._terms, dJ._terms


def _chain(p: InterferometerParams):
    """(J, dJ) of the chain at p, built once per value of its
    ``OPERATOR_FIELDS``."""
    return _operators(_operator_key(p))


@functools.lru_cache(maxsize=4)
def _r_free(key):
    """The half of the chain that r does not touch, for the
    ``_R_FREE_FIELDS`` values ``key``: (precision, the second squeezer's
    mpc (cosh s, sinh s) or None, the probe and conjugate ``_Arm``)."""
    p = InterferometerParams(**dict(zip(_R_FREE_FIELDS, key)))
    dps = p.precision
    with workdps(dps):
        i = mpc(0, 1)
        phase = exp(i * sampling_phase(p.theta_f, dps))
        arms = []
        for e1, e2, e3, (c, e, g), sampled in (
                (p.eta_p1, p.eta_p2, p.eta_p3, "ceg", True),
                (p.eta_c1, p.eta_c2, p.eta_c3, "dfh", p.arms == ARMS_BOTH)):
            w, lo = mpc((phase if sampled else mpf(1)) * sqrt(e1)), ladder(g, False, 1, dps)
            t, l = sqrt(e3), sqrt(1 - e3)
            arms.append(_Arm(
                w, i * w if sampled else None,
                {((c, False),): i * sqrt(1 - e1)} if e1 != 1 else None,
                (mpc(sqrt(e2)), {((e, False),): i * sqrt(1 - e2)}) if e2 != 1 else None,
                lo, lo * mpc(0, 2 * t * l), mpc(t * t - l * l) if t != l else None))
        return dps, (_cosh_sinh(p.s) if p.s else None), arms


@functools.lru_cache(maxsize=4)
def _operators(key):
    """(J, dJ) of a, b through squeezer r, the sample phase and internal
    loss, squeezer s, external loss and the two homodynes with the bare LO
    modes g, h, for the ``OPERATOR_FIELDS`` values ``key``.

    What r does not touch comes from ``_r_free``, memoised on the other
    fields, so a new r costs its squeezer weights and the rows: each port
    is a row of terms over (mode, dagger) until the homodynes, which take
    its product with the LO by ``mul``.  Every stage cuts as ``_merge``
    cuts where a chain of expressions would, in the same order of
    operations, so the terms, their order and their bits are those of
    that chain.  A stage at r = 0, s = 0 or eta = 1 would add only exact
    zeros, which ``_merge`` drops, so skipping it leaves J and dJ bit for
    bit unchanged.  Expressions are immutable, so every caller may share
    the memoised pair."""
    dps, second, arms = _r_free(key[1:])
    with workdps(dps):
        one = mpc(1)
        u, v = {(("a", False),): one}, {(("b", False),): one}
        if key[0]:
            u, v = _squeeze(u, v, *_cosh_sinh(key[0]), dps)
        ports = []
        for x, arm in zip((u, v), arms):
            y = _scaled(x, arm.weight, dps)
            ports.append((_plus(arm.loss, y, dps) if arm.loss else y,
                          _scaled(x, arm.dweight, dps) if arm.dweight is not None else {}))
        (w, dw), (z, dz) = ports
        if second:
            (w, z), (dw, dz) = _squeeze(w, z, *second, dps), _squeeze(dw, dz, *second, dps)
        J, dJ = {}, {}
        for x, dx, arm in zip((w, z), (dw, dz), arms):
            if arm.external:
                t, port = arm.external
                x, dx = _plus(_scaled(x, t, dps), port, dps), _scaled(dx, t, dps)
            Jx, dJx = _homodyne_difference(OperatorExpr(x, dps, _trusted=True),
                                           OperatorExpr(dx, dps, _trusted=True), arm)
            J, dJ = _sum([*J.items(), *Jx.items()]), _sum([*dJ.items(), *dJx.items()])
        return OperatorExpr(J, dps, _trusted=True), OperatorExpr(dJ, dps, _trusted=True)


#: circuit name -> the fields its builder forces, so ignores, and their
#: values: all but su11 drop the second amplifier, the external loss and
#: the homodyne imbalance
_TRUNCATED = {"s": 0, "eta_p2": 1, "eta_c2": 1, "eta_p3": 0.5, "eta_c3": 0.5}
FORCED = {"classical": _TRUNCATED, "tsu11": _TRUNCATED, "su11": {}, "vacuum": _TRUNCATED}
#: the seeds the vacuum circuit pins beyond ``FORCED``: it is unseeded by
#: definition.  Not in ``FORCED``, whose fields the r interpolant pins on
#: its nodes: a seeded library sweep of it must stay refused by the engine
UNSEEDED = {"alpha": 0, "beta": 0}


def pinned(circuit: str) -> dict:
    """The fields a run of ``circuit`` pins, and their values: its
    ``FORCED`` fields and, for the vacuum circuit, the seeds."""
    return {**FORCED[circuit], **(UNSEEDED if circuit == "vacuum" else {})}


def forced(p: InterferometerParams, values: dict) -> InterferometerParams:
    """p with the fields of ``values`` set, replacing only those that
    differ: a point that holds them all is returned as it is."""
    changes = {name: v for name, v in values.items() if getattr(p, name) != v}
    return p.replace(**changes) if changes else p


def _state(p: InterferometerParams, alpha, beta):
    """Coherent assignment: seeds alpha, beta on a, b and the LOs
    gamma e^{i phi_p}, kappa e^{i phi_c} on g, h.  The LO phases live here
    and not in the operators; a zero phase leaves the amplitude exact."""
    with workdps(p.precision):
        g = exp(mpc(0, p.phi_p))
        h = g if p.phi_c == p.phi_p else exp(mpc(0, p.phi_c))
        return {"a": mpc(alpha), "b": mpc(beta), "g": p.gamma * g, "h": p.kappa * h}


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
    return build_su11_J(forced(p, FORCED["tsu11"]))


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
        ch, sh = map(mp.make_mpf, mpf_cosh_sinh(p.r._mpf_, mp.prec, round_nearest))
        return p.alpha * sqrt(p.eta_p1) * ch, p.alpha * sqrt(p.eta_c1) * sh


def build_classical_J(p: InterferometerParams):
    """Photon-matched classical benchmark interferometer.

    The chain with no squeezing and no loss: each seeded arm meets its LO
    on a balanced beamsplitter read out by a balanced detector pair.  The
    seeds are rescaled by ``classical_seeds`` so the photon numbers on the
    sampled arms match the squeezed circuit at p.  Returns (J, dJ, state).
    """
    J, dJ = _chain(forced(p, {**FORCED["classical"], "r": 0, "eta_p1": 1, "eta_c1": 1}))
    return J, dJ, _state(p, *classical_seeds(p))


#: circuit name -> builder(p) -> (J, dJ/dphi, state)
CIRCUITS = {
    "classical": build_classical_J,
    "tsu11": build_tsu11_J,
    "su11": build_su11_J,
    "vacuum": build_vacuum_J,
}
