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
from mpmath.libmp import (dps_to_prec, fone, fzero, mpc_add, mpc_conjugate, mpc_mul,
                          mpc_mul_mpf, mpf_cos_sin, mpf_cosh_sinh, mpf_mul, mpf_sqrt,
                          round_nearest)

from .algebra import DEFAULT_DPS, OperatorExpr, _cut, _sum, adjoint, ladder, mul
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
        a change of numeric fields alone converts and checks only those,
        and a rise of the precision alone none: every field is exact, and
        valid, at a higher precision."""
        if changes.keys() <= _NUMERIC:
            names = [name for name in NUMERIC_FIELDS if name in changes]
        elif changes.keys() == {"precision"} and changes["precision"] >= self.precision:
            names = []
        else:
            return replace(self, **changes)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        new._check(names)
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


def _scaled(x: dict, c: tuple, prec: int, dps: int) -> dict:
    """The terms of x * c for raw terms x and a raw mpc c, each product
    rounded at ``prec`` bits as mpc's ``*`` rounds it, cut as ``_merge``
    cuts.  A real c multiplies each part once, which rounds alike."""
    if c[1] == fzero:
        c = c[0]
        return _cut({f: mpc_mul_mpf(v, c, prec, round_nearest) for f, v in x.items()}, dps)
    return _cut({f: mpc_mul(v, c, prec, round_nearest) for f, v in x.items()}, dps)


def _plus(x: dict, y: dict, prec: int, dps: int) -> dict:
    """The terms of x + y, y's new keys after x's, cut as ``_merge`` cuts."""
    acc = dict(x)
    for f, v in y.items():
        acc[f] = mpc_add(acc[f], v, prec, round_nearest) if f in acc else v
    return _cut(acc, dps)


def _dagger(x: dict, prec: int) -> dict:
    """The terms of x's adjoint: its magnitudes, so ``_merge``'s cut, stay."""
    return {tuple((m, not d) for m, d in reversed(f)): mpc_conjugate(v, prec, round_nearest)
            for f, v in x.items()}


def _squeeze(x: dict, y: dict, ch: tuple, sh: tuple, prec: int, dps: int):
    """Two-mode squeezer: x -> x cosh + y' sinh, y -> x' sinh + y cosh."""
    return (_plus(_scaled(x, ch, prec, dps), _scaled(_dagger(y, prec), sh, prec, dps), prec, dps),
            _plus(_scaled(_dagger(x, prec), sh, prec, dps), _scaled(y, ch, prec, dps), prec, dps))


#: the raw mpc 1
_ONE = (fone, fzero)


def _cosh_sinh(x, prec: int):
    """Raw mpc (cosh x, sinh x) from one ``mpf_cosh_sinh`` at ``prec`` bits."""
    return [(v, fzero) for v in mpf_cosh_sinh(x._mpf_, prec, round_nearest)]


class _Arm(NamedTuple):
    """The r-free stages of one arm; every scalar a raw mpc, and None for a
    skipped stage."""

    weight: tuple  # e^{i phi} sqrt(eta1), with no e^{i phi} on an unsampled arm
    dweight: tuple | None  # its phi derivative; None on an unsampled arm
    loss: dict | None  # the internal loss port's term
    external: tuple | None  # sqrt(eta2) and the external loss port's term
    lo: OperatorExpr  # the bare LO mode
    mixed: OperatorExpr  # lo weighted 2itl by the homodyne splitter
    k: mpc | None  # t^2 - l^2, as ``OperatorExpr.scaled`` takes it; None where balanced


def _homodyne_difference(x: dict, dx: dict, arm: _Arm, prec: int, dps: int):
    """Balanced-detector difference af'.af - an'.an for one homodyne.

    af = sig*t + i*lo*l and an = lo*t + i*sig*l with t = sqrt(eta3) and
    l = sqrt(1-eta3) reduce to (t^2-l^2)(sig'.sig - lo'.lo) + 2itl(sig'.lo
    - lo'.sig), so a balanced splitter needs no sig'.sig product.  Returns
    the terms of (J, dJ) for the signal's cut row x, where dJ follows from
    the row of the signal derivative, dx.
    """
    lo, k = arm.lo, arm.k

    def difference(row):
        # (sig'.lo) 2itl as sig'.(lo 2itl): lo's unit weight multiplies exactly
        cross = mul(_expr(_dagger(row, prec), dps), arm.mixed)
        return {**cross._terms, **adjoint(cross)._terms}

    J, dJ = difference(x), difference(dx)
    if k is None:
        return J, dJ
    sig, dsig = _expr(x, dps), _expr(dx, dps)
    dn = mul(adjoint(dsig), sig)
    J = OperatorExpr._of_cut(J, dps) + (mul(adjoint(sig), sig) - mul(adjoint(lo), lo)) * k
    dJ = OperatorExpr._of_cut(dJ, dps) + (dn + adjoint(dn)) * k
    return J._terms, dJ._terms


def _expr(x: dict, dps: int) -> OperatorExpr:
    """The expression of the cut raw row x, its values as mpc."""
    return OperatorExpr._of_cut({f: mp.make_mpc(v) for f, v in x.items()}, dps)


def _chain(p: InterferometerParams):
    """(J, dJ) of the chain at p, built once per value of its
    ``OPERATOR_FIELDS``."""
    return _operators(_operator_key(p))


@functools.lru_cache(maxsize=4)
def _r_free(key):
    """The half of the chain that r does not touch, for the
    ``_R_FREE_FIELDS`` values ``key``: (precision, the second squeezer's
    raw (cosh s, sinh s) or None, the probe and conjugate ``_Arm``)."""
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
                w._mpc_, (i * w)._mpc_ if sampled else None,
                {((c, False),): (i * sqrt(1 - e1))._mpc_} if e1 != 1 else None,
                ((sqrt(e2)._mpf_, fzero), {((e, False),): (i * sqrt(1 - e2))._mpc_})
                if e2 != 1 else None,
                lo, lo * mpc(0, 2 * t * l), mpc(t * t - l * l) if t != l else None))
        return dps, (_cosh_sinh(p.s, mp.prec) if p.s else None), arms


@functools.lru_cache(maxsize=4)
def _operators(key):
    """(J, dJ) of a, b through squeezer r, the sample phase and internal
    loss, squeezer s, external loss and the two homodynes with the bare LO
    modes g, h, for the ``OPERATOR_FIELDS`` values ``key``.

    What r does not touch comes from ``_r_free``, memoised on the other
    fields, so a new r costs its squeezer weights and the rows: each port
    is a row of terms over (mode, dagger), values raw mpc tuples rounded
    as mpc arithmetic rounds them, until the homodynes, which take its
    product with the LO by ``mul``.  Every stage cuts as ``_merge`` cuts
    where a chain of expressions would, in the same order of operations,
    so the terms, their order and their bits are those of that chain; a
    cut row and its adjoint are not cut again, and the first squeezer,
    which meets unit weights, multiplies nothing.  A stage at r = 0, s = 0
    or eta = 1 would add only exact zeros, which ``_merge`` drops, so
    skipping it leaves J and dJ bit for bit unchanged.  Expressions are
    immutable, so every caller may share the memoised pair."""
    dps, second, arms = _r_free(key[1:])
    prec = dps_to_prec(dps)
    if key[0]:
        ch, sh = _cosh_sinh(key[0], prec)
        u, v = _cut({(("a", False),): ch, (("b", True),): sh}, dps), \
            _cut({(("a", True),): sh, (("b", False),): ch}, dps)
    else:
        u, v = {(("a", False),): _ONE}, {(("b", False),): _ONE}
    ports = []
    for x, arm in zip((u, v), arms):
        y = _scaled(x, arm.weight, prec, dps)
        ports.append((_plus(arm.loss, y, prec, dps) if arm.loss else y,
                      _scaled(x, arm.dweight, prec, dps) if arm.dweight is not None else {}))
    (w, dw), (z, dz) = ports
    if second:
        (w, z), (dw, dz) = (_squeeze(w, z, *second, prec, dps),
                            _squeeze(dw, dz, *second, prec, dps))
    J, dJ = {}, {}
    with workdps(dps):
        for x, dx, arm in zip((w, z), (dw, dz), arms):
            if arm.external:
                t, port = arm.external
                x, dx = _plus(_scaled(x, t, prec, dps), port, prec, dps), _scaled(dx, t, prec, dps)
            Jx, dJx = _homodyne_difference(x, dx, arm, prec, dps)
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
    """Coherent assignment: seeds alpha, beta (mpf at p's precision) on a,
    b and the LOs gamma e^{i phi_p}, kappa e^{i phi_c} on g, h, each
    rounded as mpc arithmetic at p's precision rounds it (e^{i phi} is
    mpc_exp's cos and sin of phi).  The LO phases live here and not in the
    operators; a zero phase leaves the amplitude exact."""
    prec = dps_to_prec(p.precision)
    g = mpf_cos_sin(p.phi_p._mpf_, prec, round_nearest)
    h = g if p.phi_c == p.phi_p else mpf_cos_sin(p.phi_c._mpf_, prec, round_nearest)
    return {"a": mp.make_mpc((alpha._mpf_, fzero)), "b": mp.make_mpc((beta._mpf_, fzero)),
            "g": mp.make_mpc(mpc_mul_mpf(g, p.gamma._mpf_, prec, round_nearest)),
            "h": mp.make_mpc(mpc_mul_mpf(h, p.kappa._mpf_, prec, round_nearest))}


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
    on its sampled arms, rounded as mpf arithmetic at p's precision
    rounds them."""
    prec = dps_to_prec(p.precision)
    return tuple(mp.make_mpf(mpf_mul(mpf_mul(p.alpha._mpf_, mpf_sqrt(eta._mpf_, prec, round_nearest),
                                             prec, round_nearest), c, prec, round_nearest))
                 for eta, c in zip((p.eta_p1, p.eta_c1),
                                   mpf_cosh_sinh(p.r._mpf_, prec, round_nearest)))


#: the fields the classical chain sets beyond ``FORCED``: no squeezer and no internal loss
_CLASSICAL = {**FORCED["classical"], "r": 0, "eta_p1": 1, "eta_c1": 1}


def build_classical_J(p: InterferometerParams):
    """Photon-matched classical benchmark interferometer.

    The chain with no squeezing and no loss: each seeded arm meets its LO
    on a balanced beamsplitter read out by a balanced detector pair.  The
    seeds are rescaled by ``classical_seeds`` so the photon numbers on the
    sampled arms match the squeezed circuit at p.  The chain's memo key is
    p's with those settings in place, so no parameters are built for it.
    Returns (J, dJ, state).
    """
    J, dJ = _operators(tuple(_CLASSICAL.get(name, v)
                             for name, v in zip(OPERATOR_FIELDS, _operator_key(p))))
    return J, dJ, _state(p, *classical_seeds(p))


#: circuit name -> builder(p) -> (J, dJ/dphi, state)
CIRCUITS = {
    "classical": build_classical_J,
    "tsu11": build_tsu11_J,
    "su11": build_su11_J,
    "vacuum": build_vacuum_J,
}
