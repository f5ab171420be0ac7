"""Truncated-Fock oracle: matrix representation against the algebra."""

import random
import subprocess
import sys

import numpy as np
import pytest
from mpmath import mpc, mpf, workdps

from tsu11 import (
    InterferometerParams,
    build_su11_J,
    build_tsu11_J,
    coherent_expectation,
    ladder,
    mul,
    normal_order,
)

from conftest import random_expr
from fock_oracle import (
    FockConfig,
    apply,
    coherent_vector,
    factored_expectation,
    matrix_of,
    oracle_expectation,
)


def interior_mask(cfg: FockConfig, margin: int) -> np.ndarray:
    """Mask of matrix entries untouched by truncation at the cutoff edge."""
    n1 = cfg.cutoff + 1
    keep_1d = np.arange(n1) <= cfg.cutoff - margin
    keep = np.array([True])
    for _ in cfg.modes:
        keep = np.kron(keep, keep_1d)
    return np.outer(keep, keep)


class TestMatrixOf:
    def test_number_operator_diagonal(self):
        cfg = FockConfig(("a",), 8)
        n = mul(ladder("a", dagger=True), ladder("a"))
        mat = matrix_of(n, cfg)
        assert np.allclose(mat, np.diag(np.arange(9, dtype=float)))

    def test_commutator_is_identity_inside(self):
        cfg = FockConfig(("a",), 10)
        comm = mul(ladder("a"), ladder("a", dagger=True)) - mul(
            ladder("a", dagger=True), ladder("a")
        )
        mat = matrix_of(comm, cfg)
        inner = slice(0, 10)  # last row/column carries the truncation artifact
        assert np.allclose(mat[inner, inner], np.eye(10))

    def test_unknown_mode_rejected(self):
        cfg = FockConfig(("a",), 8)
        with pytest.raises(ValueError):
            matrix_of(ladder("z"), cfg)

    def test_normal_order_preserves_matrix(self):
        rng = random.Random(101)
        cfg = FockConfig(("a", "b"), 10)
        mask = interior_mask(cfg, margin=4)
        for _ in range(200):
            x = random_expr(rng, dps=40)
            m1 = matrix_of(x, cfg)
            m2 = matrix_of(normal_order(x), cfg)
            assert np.max(np.abs((m1 - m2)[mask])) < 1e-10


class TestOracleExpectation:
    def test_photon_number(self):
        cfg = FockConfig(("a",), 20)
        n = mul(ladder("a", dagger=True), ladder("a"))
        val = oracle_expectation(n, cfg, {"a": 0.5})
        assert abs(val - 0.25) < 1e-12

    def test_amplitude_guard(self):
        cfg = FockConfig(("a",), 8)
        with pytest.raises(ValueError):
            oracle_expectation(ladder("a"), cfg, {"a": 4.0})

    def test_matches_engine_on_random_expressions(self):
        # eigenvalue magnitudes stay at or below one so the coherent tail
        # is negligible at this cutoff
        rng = random.Random(103)
        cfg = FockConfig(("a", "b"), 16)
        for _ in range(40):
            x = random_expr(rng, dps=40, amp=1.5)
            state = {"a": complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)),
                     "b": complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))}
            engine = complex(coherent_expectation(x, state))
            oracle = oracle_expectation(x, cfg, state)
            assert abs(engine - oracle) < 1e-10

    def test_cutoff_robustness(self):
        rng = random.Random(107)
        for _ in range(10):
            x = random_expr(rng, dps=40, amp=1.0)
            state = {"a": 0.6, "b": -0.4 + 0.3j}
            lo = oracle_expectation(x, FockConfig(("a", "b"), 14), state)
            hi = oracle_expectation(x, FockConfig(("a", "b"), 19), state)
            assert abs(lo - hi) < 1e-10

    def test_matrices_nest_exactly_under_cutoff_growth(self):
        # enlarging the truncation only appends rows and columns: the
        # shared interior block is bitwise identical
        rng = random.Random(131)
        x = random_expr(rng, modes=("a",), dps=40)
        small = matrix_of(x, FockConfig(("a",), 10))
        large = matrix_of(x, FockConfig(("a",), 15))
        assert np.allclose(small[:7, :7], large[:7, :7], rtol=0, atol=1e-12)


class TestFactoredOracle:
    def test_agrees_with_direct_route(self):
        rng = random.Random(109)
        cfg = FockConfig(("a", "b"), 14)
        for _ in range(20):
            x = random_expr(rng, dps=40)
            state = {"a": 0.5 + 0.1j, "b": -0.3}
            direct = oracle_expectation(x, cfg, state)
            factored = factored_expectation(x, 14, state)
            assert abs(direct - factored) < 1e-10

    def test_product_state_factorization(self):
        # expectation of a product over disjoint mode sets equals the
        # product of per-set expectations (exact for product states);
        # full Kronecker route against single-mode routes
        x = mul(ladder("a", dagger=True), mul(ladder("a"), ladder("a")))
        y = mul(ladder("b"), ladder("b", dagger=True))
        state = {"a": 0.7, "b": 0.4 - 0.2j}
        joint = oracle_expectation(mul(x, y), FockConfig(("a", "b"), 16), state)
        parts = oracle_expectation(x, FockConfig(("a",), 16), state) * (
            oracle_expectation(y, FockConfig(("b",), 16), state)
        )
        assert abs(joint - parts) < 1e-12
        # the factored route agrees with the Kronecker product route
        assert abs(factored_expectation(mul(x, y), 16, state) - joint) < 1e-12

    def test_miniature_squeezed_circuit(self):
        # small-amplitude instance of the full measurement operator: the
        # factored oracle reproduces engine <J> and <J^2>, for tSU(1,1) and
        # for SU(1,1) with s > 0, unbalanced homodynes and a seeded
        # conjugate, whose LO phases sit on the complex LO amplitudes
        p = InterferometerParams(
            r="0.4", alpha="0.3", beta=0, gamma="0.8", kappa="0.8",
            eta_p1="0.9", eta_c1="0.9", theta_f="0.02",
            phi_p="0.05", phi_c="-0.03", precision=40,
        )
        su11 = p.replace(s="0.2", beta="0.2", eta_p2="0.9", eta_c2="0.85",
                         eta_p3="0.4", eta_c3="0.55", phi_p="0.7", phi_c="-1.3")
        for builder, q in ((build_tsu11_J, p), (build_su11_J, su11)):
            J, _, state = builder(q)
            JJ = mul(J, J)
            for expr in (J, JJ):
                engine = complex(coherent_expectation(expr, state))
                oracle24 = factored_expectation(expr, 24, state)
                oracle29 = factored_expectation(expr, 29, state)
                assert abs(engine - oracle24) < 1e-8
                assert abs(oracle24 - oracle29) < 1e-10


class TestHighPrecisionRoute:
    def test_single_mode_entrywise_identity(self):
        # operator equality under normal ordering, checked entrywise in
        # arbitrary precision on a one-mode truncation
        rng = random.Random(113)
        cfg = FockConfig(("a",), 10)
        with workdps(60):
            for _ in range(5):
                x = random_expr(rng, modes=("a",), dps=60)
                m1 = matrix_of(x, cfg, dtype=object)
                m2 = matrix_of(normal_order(x), cfg, dtype=object)
                for i in range(7):  # interior block: degree <= 4 shifts
                    for j in range(7):
                        assert abs(m1[i][j] - m2[i][j]) < mpf("1e-30")

    def test_two_mode_vector_probes(self):
        # same identity probed with random vectors on two modes
        rng = random.Random(127)
        cfg = FockConfig(("a", "b"), 9)
        with workdps(60):
            for _ in range(3):
                x = random_expr(rng, dps=60, max_degree=3)
                xo = normal_order(x)
                # support on low occupation so degree-3 action stays interior
                vec = [mpc(0)] * cfg.dim
                for _k in range(6):
                    i = rng.randint(0, 4)
                    j = rng.randint(0, 4)
                    vec[i * (cfg.cutoff + 1) + j] = mpc(rng.uniform(-1, 1),
                                                        rng.uniform(-1, 1))
                v1 = apply(x, cfg, vec)
                v2 = apply(xo, cfg, vec)
                err = max(abs(a - b) for a, b in zip(v1, v2))
                assert err < mpf("1e-30")

    def test_coherent_vector_normalized(self):
        v = coherent_vector(0.9, 25)
        assert abs(np.linalg.norm(v) - 1) < 1e-14


def test_package_imports_without_numpy():
    # numpy is a test-only dependency: neither the package nor any of its
    # modules loads it, and the package exports no oracle name
    code = (
        "import importlib, pkgutil, sys, tsu11\n"
        "names = [m.name for m in pkgutil.iter_modules(tsu11.__path__)]\n"
        "assert 'cli' in names, names\n"
        "for name in names:\n"
        "    importlib.import_module('tsu11.' + name)\n"
        "assert 'numpy' not in sys.modules, 'importing tsu11 loaded numpy'\n"
        "assert not hasattr(tsu11, 'FockConfig')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
