"""Truncated-Fock-space oracle: an independent check of the operator
algebra on small-amplitude instances, which never touches the symbolic
normal ordering.  A state is a numpy tensor with one axis per mode;
complex arrays give double precision, mpc object arrays the expression's.
"""

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, workdps


@dataclass(frozen=True)
class FockConfig:
    """Mode ordering and per-mode photon cutoff for the tensor picture."""

    modes: tuple[str, ...]
    cutoff: int

    def __post_init__(self):
        if len(self.modes) > 3:
            raise ValueError("the full-tensor route supports at most 3 modes")
        if self.cutoff < 8:
            raise ValueError("cutoff must be at least 8")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** len(self.modes)


def _ladder_product(factors, modes, psi: np.ndarray) -> np.ndarray:
    """Apply ladder factors to psi, rightmost first: each shifts psi one
    step along its mode's axis and weights it by sqrt(n), truncating at
    the cutoff.  Object arrays get mpf roots at the ambient precision."""
    n = range(1, psi.shape[0])
    root = np.sqrt(n) if psi.dtype != object else np.array([mp.sqrt(k) for k in n])
    root = root.reshape((-1,) + (1,) * (psi.ndim - 1))
    for mode, dagger in reversed(factors):
        if mode not in modes:
            raise ValueError(f"mode {mode!r} not in Fock configuration {modes}")
        axis = modes.index(mode)
        w = np.moveaxis(psi, axis, 0)
        out = np.zeros_like(w)
        if dagger:  # a'|n> = sqrt(n+1)|n+1>
            out[1:] = root * w[:-1]
        else:  # a|n> = sqrt(n)|n-1>
            out[:-1] = root * w[1:]
        psi = np.moveaxis(out, 0, axis)
    return psi


def apply(x, cfg: FockConfig, psi) -> np.ndarray:
    """x applied to flat state(s) of length cfg.dim, modes in cfg order,
    trailing axes a batch.  Object arrays of mpc take the mp route."""
    psi = np.asarray(psi)
    tensor = psi.reshape((cfg.cutoff + 1,) * len(cfg.modes) + psi.shape[1:])
    with workdps(x.dps):
        out = np.zeros_like(tensor)
        for factors, coeff in x.terms():
            c = coeff if psi.dtype == object else complex(coeff)
            out = out + c * _ladder_product(factors, cfg.modes, tensor)
    return out.reshape(psi.shape)


def matrix_of(x, cfg: FockConfig, dtype=complex) -> np.ndarray:
    """x applied to the identity; ``dtype=object`` gives mpc entries."""
    return apply(x, cfg, np.eye(cfg.dim, dtype=dtype))


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent state, renormalized after truncation."""
    a = complex(alpha)
    amps = np.array([a**n / math.sqrt(math.factorial(n)) for n in range(cutoff + 1)])
    amps *= math.exp(-abs(a) ** 2 / 2)
    return amps / np.linalg.norm(amps)


def _check_amplitudes(state, cutoff: int):
    for m, v in state.items():
        if abs(complex(v)) ** 2 > cutoff / 4:
            raise ValueError(f"|amplitude|^2 = {abs(complex(v))**2:.3g} for mode {m!r} "
                             f"too large for cutoff {cutoff} (need <= cutoff/4)")


def oracle_expectation(x, cfg: FockConfig, state) -> complex:
    """<psi|x psi> on the product of coherent states (<= 3 modes)."""
    _check_amplitudes(state, cfg.cutoff)
    psi = np.array(1 + 0j)
    for m in cfg.modes:
        psi = np.multiply.outer(psi, coherent_vector(state.get(m, 0), cfg.cutoff))
    return complex(np.vdot(psi, apply(x, cfg, psi.ravel())))


def factored_expectation(x, cutoff: int, state) -> complex:
    """Oracle expectation for any mode count: a coherent product state
    factorizes, so each term is the product over its modes of the
    single-mode expectation of that mode's factors, in their order."""
    _check_amplitudes(state, cutoff)
    modes = {m for factors, _ in x.terms() for m, _ in factors}
    vectors = {m: coherent_vector(state.get(m, 0), cutoff) for m in modes}
    total = 0j
    for factors, coeff in x.terms():
        value = complex(coeff)
        for mode in dict.fromkeys(m for m, _ in factors):
            group = [f for f in factors if f[0] == mode]
            v = vectors[mode]
            value *= complex(np.vdot(v, _ladder_product(group, (mode,), v)))
        total += value
    return total
