"""Shared helpers for the test suite."""

from __future__ import annotations

import random

import pytest
from mpmath import mp, mpc, mpf, workdps

from tsu11 import OperatorExpr, normal_order


@pytest.fixture(autouse=True)
def _high_precision_ambient():
    """Run test-side arithmetic (comparisons, tolerances) at 60 digits."""
    old = mp.dps
    mp.dps = 60
    yield
    mp.dps = old


def random_expr(rng: random.Random, modes=("a", "b"), max_terms=5, max_degree=4,
                dps=40, amp=2.0) -> OperatorExpr:
    """Random small expression: bounded degree, bounded coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        fac = tuple(
            (rng.choice(modes), rng.random() < 0.5) for _ in range(deg)
        )
        terms[fac] = complex(rng.uniform(-amp, amp), rng.uniform(-amp, amp))
    return OperatorExpr(terms, dps=dps)


def random_state(rng: random.Random, modes=("a", "b"), amp=1.0) -> dict:
    return {
        m: complex(rng.uniform(-amp, amp), rng.uniform(-amp, amp)) for m in modes
    }


def expr_close(x: OperatorExpr, y: OperatorExpr, tol="1e-35") -> bool:
    """Term-by-term closeness of two normal-ordered expressions."""
    assert x.dps == y.dps
    with workdps(x.dps):
        xo, yo = dict(normal_order(x).terms()), dict(normal_order(y).terms())
        tol = mpf(tol)
        scale = max([abs(c) for c in xo.values()] + [abs(c) for c in yo.values()] + [mpf(1)])
        return all(
            abs(xo.get(k, 0) - yo.get(k, 0)) <= scale * tol for k in xo.keys() | yo.keys()
        )


def rel_diff(a, b):
    """Relative difference with a floor for near-zero references."""
    a, b = mpc(a), mpc(b)
    scale = max(abs(a), abs(b), mpf("1e-30"))
    return abs(a - b) / scale
