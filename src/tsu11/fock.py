"""Truncated-Fock-space oracle for validating the operator algebra.

Operators are represented as dense matrices on a photon-number-truncated
Hilbert space and expectations are taken against truncated coherent
vectors.  This route never touches the symbolic normal ordering, so it is
an independent check of the algebra engine on small instances.  It is
test-only machinery: dimensions explode with cutoff and mode count, and
amplitudes must stay far below the cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpc, workdps

from .algebra import OperatorExpr


@dataclass(frozen=True)
class FockConfig:
    """Mode ordering and per-mode photon cutoff for the matrix picture."""

    modes: tuple[str, ...]
    cutoff: int

    def __post_init__(self):
        if len(self.modes) > 3:
            raise ValueError("direct Kronecker route supports at most 3 modes")
        if self.cutoff < 8:
            raise ValueError("cutoff must be at least 8")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** len(self.modes)


def annihilation_matrix(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator: entries sqrt(n) on the superdiagonal."""
    n = np.arange(1, cutoff + 1, dtype=float)
    return np.diag(np.sqrt(n), k=1).astype(complex)


@functools.lru_cache(maxsize=128)
def _embedded(mode: str, dagger: bool, cfg: FockConfig) -> np.ndarray:
    if mode not in cfg.modes:
        raise ValueError(f"mode {mode!r} not in Fock configuration {cfg.modes}")
    a = annihilation_matrix(cfg.cutoff)
    single = a.conj().T if dagger else a
    out = np.array([[1.0 + 0j]])
    for m in cfg.modes:
        out = np.kron(out, single if m == mode else np.eye(cfg.cutoff + 1, dtype=complex))
    return out


def matrix_of(x: OperatorExpr, cfg: FockConfig) -> np.ndarray:
    """Dense matrix of an operator expression on the truncated space."""
    total = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for factors, coeff in x.terms():
        if not factors:
            total += complex(coeff) * np.eye(cfg.dim, dtype=complex)
            continue
        term = _embedded(*factors[0], cfg)
        for (mode, dagger) in factors[1:]:
            term = term @ _embedded(mode, dagger, cfg)
        total += complex(coeff) * term
    return total


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent state, renormalized after truncation."""
    a = complex(alpha)
    amps = np.array(
        [a**n / math.sqrt(math.factorial(n)) for n in range(cutoff + 1)], dtype=complex
    )
    amps *= math.exp(-abs(a) ** 2 / 2)
    return amps / np.linalg.norm(amps)


def _check_amplitudes(state, cutoff: int):
    for m, v in state.items():
        if abs(complex(v)) ** 2 > cutoff / 4:
            raise ValueError(
                f"|amplitude|^2 = {abs(complex(v))**2:.3g} for mode {m!r} too large "
                f"for cutoff {cutoff} (need <= cutoff/4)"
            )


def oracle_expectation(x: OperatorExpr, cfg: FockConfig, state) -> complex:
    """v' M v against the Kronecker-product coherent vector (<= 3 modes)."""
    _check_amplitudes(state, cfg.cutoff)
    vec = np.array([1.0 + 0j])
    for m in cfg.modes:
        vec = np.kron(vec, coherent_vector(state.get(m, 0), cfg.cutoff))
    mat = matrix_of(x, cfg)
    return complex(vec.conj() @ (mat @ vec))


def factored_expectation(x: OperatorExpr, cutoff: int, state) -> complex:
    """Oracle expectation for any mode count via per-mode factorization.

    Coherent product states factorize: for each term, the factors of each
    mode are grouped (distinct modes commute, preserving same-mode order)
    and the expectation is the product of single-mode expectations.
    """
    _check_amplitudes(state, cutoff)
    a = annihilation_matrix(cutoff)
    adag = a.conj().T
    vectors: dict[str, np.ndarray] = {}

    def vec(mode: str) -> np.ndarray:
        if mode not in vectors:
            vectors[mode] = coherent_vector(state.get(mode, 0), cutoff)
        return vectors[mode]

    total = 0j
    for factors, coeff in x.terms():
        by_mode: dict[str, list[bool]] = {}
        for (mode, dagger) in factors:
            by_mode.setdefault(mode, []).append(dagger)
        value = complex(coeff)
        for mode, daggers in by_mode.items():
            v = vec(mode)
            w = v.copy()
            for dagger in reversed(daggers):
                w = (adag if dagger else a) @ w
            value *= complex(v.conj() @ w)
            if value == 0:
                break
        total += value
    return total


# -- high-precision variant for tight operator-identity checks --------------


def matrix_of_mp(x: OperatorExpr, cfg: FockConfig):
    """Arbitrary-precision matrix of an expression (small instances only)."""
    with workdps(x.dps):
        dim = cfg.dim
        total = [[mpc(0) for _ in range(dim)] for _ in range(dim)]
        for factors, coeff in x.terms():
            term = _mp_identity(dim)
            for (mode, dagger) in factors:
                term = _mp_matmul(term, _embedded_mp(mode, dagger, cfg))
            for i in range(dim):
                row_t, row_o = term[i], total[i]
                for j in range(dim):
                    row_o[j] += coeff * row_t[j]
        return total


def apply_mp(x: OperatorExpr, cfg: FockConfig, vec):
    """Apply an expression to a vector in arbitrary precision."""
    with workdps(x.dps):
        out = [mpc(0)] * cfg.dim
        for factors, coeff in x.terms():
            w = [mpc(v) for v in vec]
            for (mode, dagger) in reversed(factors):
                w = _mp_matvec(_embedded_mp(mode, dagger, cfg), w)
            for i in range(cfg.dim):
                out[i] += coeff * w[i]
        return out


def _mp_identity(dim):
    return [[mpc(1) if i == j else mpc(0) for j in range(dim)] for i in range(dim)]


def _embedded_mp(mode, dagger, cfg):
    if mode not in cfg.modes:
        raise ValueError(f"mode {mode!r} not in Fock configuration {cfg.modes}")
    n1 = cfg.cutoff + 1
    a = [[mpc(0)] * n1 for _ in range(n1)]
    for n in range(1, n1):
        if dagger:
            a[n][n - 1] = mp.sqrt(n)
        else:
            a[n - 1][n] = mp.sqrt(n)
    out = [[mpc(1)]]
    for m in cfg.modes:
        blk = a if m == mode else _mp_identity(n1)
        out = _mp_kron(out, blk)
    return out


def _mp_kron(x, y):
    rx, cx, ry, cy = len(x), len(x[0]), len(y), len(y[0])
    out = [[mpc(0)] * (cx * cy) for _ in range(rx * ry)]
    for i in range(rx):
        for j in range(cx):
            if x[i][j] == 0:
                continue
            for k in range(ry):
                for l in range(cy):
                    out[i * ry + k][j * cy + l] = x[i][j] * y[k][l]
    return out


def _mp_matmul(x, y):
    rows, inner, cols = len(x), len(y), len(y[0])
    out = [[mpc(0)] * cols for _ in range(rows)]
    for i in range(rows):
        xi = x[i]
        for k in range(inner):
            v = xi[k]
            if v == 0:
                continue
            yk = y[k]
            oi = out[i]
            for j in range(cols):
                if yk[j] != 0:
                    oi[j] += v * yk[j]
    return out


def _mp_matvec(x, v):
    return [sum((xi[k] * v[k] for k in range(len(v)) if v[k] != 0), mpc(0)) for xi in x]
