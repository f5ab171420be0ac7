"""Three-set-up oracle for the coherent-state kernel.

The package sets up the kernel once per report: the amplitudes and the
normal form of each expression become exact triples once, and <J>, var J
and <dJ> share them (``tsu11.algebra``).  This test code keeps the route
the package took before, in which ``coherent_moments`` and each
``coherent_expectation`` convert every amplitude and every coefficient
again and every term goes through the subset tables of ``_displace``, so
the two routes can be compared bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import dps_to_prec, from_man_exp, mpc_pos, round_nearest

from tsu11.algebra import normal_order
from tsu11.circuits import CIRCUITS
from tsu11.metrology import ConsistencyError, MetrologyReport

_ZERO = (0, 0, 0)


def _add(x, y, limit):
    if not (x[0] or x[1]):
        return y
    if not (y[0] or y[1]):
        return x
    (r1, i1, e1), (r2, i2, e2) = (x, y) if x[2] <= y[2] else (y, x)
    gap = e2 - e1
    if gap > limit:
        return (r1 >> gap - limit) + (r2 << limit), (i1 >> gap - limit) + (i2 << limit), e2 - limit
    return r1 + (r2 << gap), i1 + (i2 << gap), e1


def _mul(x, y):
    (a, b, e), (c, d, f) = x, y
    return a * c - b * d, a * d + b * c, e + f


@functools.lru_cache(maxsize=None)
def _fock_norm(modes):
    return math.prod(math.factorial(modes.count(m)) for m in set(modes))


def _product(weight, factors, amp):
    for f in factors:
        if f not in amp:
            return None
        weight = _mul(weight, amp[f])
    return weight


def _kernel(x, state):
    prec = dps_to_prec(x.dps)
    limit = 2 * prec + 64

    def triple(c):
        (rs, rm, re, _), (is_, im, ie, _) = c
        return _add((-rm if rs else rm, 0, re), (0, -im if is_ else im, ie), limit)

    amp = {}
    for m, v in state.items():
        if isinstance(v, mpc):
            v = mpc_pos(v._mpc_, prec, round_nearest)
        else:
            with workdps(x.dps):
                v = mpc(v)._mpc_
        re, im, e = triple(v)
        if re or im:
            amp[(m, False)], amp[(m, True)] = (re, im, e), (re, -im, e)
    return prec, limit, amp, [(fac, triple(c._mpc_)) for fac, c in normal_order(x).terms()]


def _rounded(acc, prec, phased):
    values = {q: mp.make_mpc(tuple(from_man_exp(m, t[2], prec, round_nearest) for m in t[:2]))
              for q, t in acc.items()}
    return values if phased else values.get((), mpc(0))


def _charge(fac, phased):
    return tuple(sum(-1 if d else 1 for m, d in fac if m == pm) for pm in phased)


def expectation(x, state, phased=()):
    """<x> on the coherent ``state``, graded by the ``phased`` modes."""
    prec, limit, amp, terms = _kernel(x, state)
    acc = {}
    for fac, c in terms:
        q = phased and _charge(fac, phased)
        acc[q] = _add(acc.get(q, _ZERO), _product(c, fac, amp) or _ZERO, limit)
    return _rounded(acc, prec, phased)


def _displace(table, ops, weight, amp, limit):
    partial = {(): weight}
    last = len(ops) - 1
    for i, op in enumerate(ops):
        a = amp.get(op)
        nxt = {}
        for key, w in partial.items():
            kept = key + (op[0],)
            nxt[kept] = _add(nxt.get(kept, _ZERO), w, limit)
            if a and (key or i < last):
                nxt[key] = _add(nxt.get(key, _ZERO), _mul(w, a), limit)
        partial = nxt
    for key, w in partial.items():
        if key:
            table[key] = _add(table.get(key, _ZERO), w, limit)


def moments(x, state, phased=()):
    """(<x>, var x) on the coherent ``state``, graded by ``phased``."""
    prec, limit, amp, terms = _kernel(x, state)
    cre, ann = {}, {}
    for fac, c in terms:
        q = phased and _charge(fac, phased)
        n_cre = sum(d for _, d in fac)
        creators, annihilators = fac[:n_cre], fac[n_cre:]
        for table, ops, w in ((cre, creators, _product(c, annihilators, amp)),
                              (ann, annihilators, _product(c, creators, amp))):
            if w and (w[0] or w[1]):
                _displace(table.setdefault(q, {}), ops, w, amp, limit)
    var = {}
    for (q, cre_q), (q2, ann_q) in itertools.product(cre.items(), ann.items()):
        k = tuple(map(operator.add, q, q2))
        var[k] = var.get(k, _ZERO)
        for key, c in cre_q.items():
            if key in ann_q:
                re, im, e = _mul(c, ann_q[key])
                var[k] = _add(var[k], (re * _fock_norm(key), im * _fock_norm(key), e), limit)
    return expectation(x, state, phased), _rounded(var, prec, phased)


def report(circuit, p):
    """The engine report of ``circuit`` at p, each moment on its own
    set-up, with the imaginary-residue audit of ``metrology``."""
    with workdps(p.precision):
        J, dJ, state = CIRCUITS[circuit](p)
        m1, var = moments(J, state)
        m2 = var + m1 * m1
        scale = max(abs(m2), abs(m1) ** 2, mpf(1))
        if abs(var.imag) > scale * mpf(10) ** (-(J.dps - 10)):
            raise ConsistencyError(
                f"variance has imaginary residue {var.imag} at {J.dps} digits"
            )
        dsq = abs(expectation(dJ, state)) ** 2
        return MetrologyReport(m1, m2, var, dsq, "engine", p.precision)
