"""Exact symbolic algebra for multi-mode bosonic ladder operators.

An operator expression is a finite sum of scalar-weighted products of
creation and annihilation operators over named modes, e.g.

    2.5 * a'.a  -  1j * g'.b'.c

where a prime marks a creation operator.  Coefficients are
arbitrary-precision complex numbers (mpmath) and every expression carries
the decimal precision it was built at.  Operators of distinct modes
commute; same-mode factors obey [a, a'] = 1.

Expressions are immutable after construction and all operations are pure
functions, so evaluation is safe to run in parallel across parameter
points.  The one thing an expression stores after construction is its
normal form: ``normal_order`` computes it on the first call and returns
the stored form on later ones, and a normal form is its own.

The coherent-state kernel works on exact integer triples and rounds each
value it returns once; only terms more than 2 prec + 64 bits apart (prec
the working precision in bits) are truncated to that gap (``_add``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Mapping

from mpmath import mp, mpc, workdps
from mpmath.libmp import dps_to_prec, from_man_exp, mpc_pos, round_nearest

#: (mode label, dagger flag); dagger=True is a creation operator.
Factor = tuple[str, bool]

DEFAULT_DPS = 60

# Coefficients more than dps - ZERO_MARGIN decimal digits below the largest
# one are rounding dust from cancellations and are dropped during canonical
# merge (see _merge).
ZERO_MARGIN = 5
_LOG2_10 = math.log2(10)
_NO_BITS = float("-inf")
#: the exact triple of 0
_ZERO = (0, 0, 0)


class PrecisionMismatch(ValueError):
    """Raised when expressions built at different precisions are combined."""


def _sum(pairs: Iterable[tuple]) -> dict:
    """Add the values of equal keys in the order given; a key's first value
    is kept as is.  Run it at the precision the values were made at."""
    acc: dict = {}
    for key, value in pairs:
        acc[key] = acc[key] + value if key in acc else value
    return acc


@functools.lru_cache(maxsize=None)
def _reorder(factors: tuple[Factor, ...]) -> tuple[tuple[tuple[Factor, ...], int], ...]:
    """Rewrite a factor product into normal order.

    Returns pairs (canonical factor tuple, integer multiplicity) whose sum
    equals the input product.  Each swap of a with a' of the same mode
    contributes the identity once; distinct modes commute freely.  The
    result is cached: the combinatorics are precision-free.
    """
    for i in range(len(factors) - 1):
        (m1, d1), (m2, d2) = factors[i], factors[i + 1]
        if not d1 and d2:
            # annihilation directly left of a creation: swap, and contract
            # when the modes coincide
            pairs = _reorder(factors[:i] + (factors[i + 1], factors[i]) + factors[i + 2 :])
            if m1 == m2:
                pairs += _reorder(factors[:i] + factors[i + 2 :])
            return tuple(sorted(_sum(pairs).items()))
    # already normal ordered: canonicalize as creations then annihilations,
    # each group sorted by mode label
    ordered = tuple(sorted(factors, key=lambda f: (not f[1], f[0])))
    return ((ordered, 1),)


def _top_bit(c: mpc):
    """Binary exponent of the leading bit of max(|re|, |im|); -inf for 0."""
    # an mpf tuple is (sign, mantissa, exponent, bit count of the mantissa)
    (_, re_man, re_exp, re_bc), (_, im_man, im_exp, im_bc) = c._mpc_
    top = re_exp + re_bc if re_man else _NO_BITS
    if im_man and im_exp + im_bc > top:
        top = im_exp + im_bc
    return top


def _merge(raw: dict[tuple[Factor, ...], mpc], dps: int) -> dict[tuple[Factor, ...], mpc]:
    """Drop coefficients whose leading bit lies more than
    (dps - ZERO_MARGIN) decimal digits' worth of bits below the largest
    one's, and exact zeros.  Reads the binary exponents of the mpmath
    values directly, so no arithmetic is done."""
    tops = [_top_bit(c) for c in raw.values()]
    largest = max(tops, default=_NO_BITS)
    if largest == _NO_BITS:
        return {}
    cut = largest - int((dps - ZERO_MARGIN) * _LOG2_10)
    return {k: c for (k, c), top in zip(raw.items(), tops) if top >= cut}


class OperatorExpr:
    """A canonically merged sum of weighted ladder-operator products.

    No two stored terms share a factor sequence and coefficients that are
    zero at working precision are dropped.  The empty factor tuple is the
    identity operator.  ``_normal`` holds the normal form once
    ``normal_order`` has taken it.
    """

    __slots__ = ("_terms", "dps", "_normal")

    def __init__(
        self,
        terms: Mapping[tuple[Factor, ...], object] | None = None,
        dps: int = DEFAULT_DPS,
        _trusted: bool = False,
    ):
        self.dps = int(dps)
        self._normal = None
        if not terms:
            self._terms = {}
            return
        if _trusted:
            # internal fast path: keys already canonical tuples, values mpc
            self._terms = _merge(terms, self.dps)
            return
        with workdps(self.dps):
            raw = _sum((tuple((str(m), bool(d)) for (m, d) in fac), mpc(c))
                       for fac, c in terms.items())
        self._terms = _merge(raw, self.dps)

    # -- inspection ------------------------------------------------------

    def terms(self) -> Iterable[tuple[tuple[Factor, ...], mpc]]:
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    # -- algebra ---------------------------------------------------------

    def _check(self, other: "OperatorExpr") -> None:
        if self.dps != other.dps:
            raise PrecisionMismatch(
                f"cannot combine expressions at {self.dps} and {other.dps} digits"
            )

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        self._check(other)
        with workdps(self.dps):
            acc = _sum([*self._terms.items(), *other._terms.items()])
        return OperatorExpr(acc, self.dps, _trusted=True)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return self.scaled(-1)

    def scaled(self, scalar) -> "OperatorExpr":
        with workdps(self.dps):
            s = mpc(scalar)
            return OperatorExpr(
                {f: c * s for f, c in self._terms.items()}, self.dps, _trusted=True
            )

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            return mul(self, other)
        return self.scaled(other)

    def __repr__(self) -> str:
        n = len(self._terms)
        return f"OperatorExpr({n} term{'s' if n != 1 else ''}, dps={self.dps})"


# -- constructors ---------------------------------------------------------


def ladder(mode: str, dagger: bool = False, coeff=1, dps: int = DEFAULT_DPS) -> OperatorExpr:
    """A single weighted ladder operator."""
    return OperatorExpr({((mode, dagger),): coeff}, dps)


def zero(dps: int = DEFAULT_DPS) -> OperatorExpr:
    return OperatorExpr({}, dps)


# -- operations -----------------------------------------------------------


def mul(lhs: OperatorExpr, rhs: OperatorExpr) -> OperatorExpr:
    """Distributed product; factor sequences concatenate, no reordering."""
    lhs._check(rhs)
    with workdps(lhs.dps):
        acc = _sum((fa + fb, ca * cb) for fa, ca in lhs._terms.items()
                   for fb, cb in rhs._terms.items())
    return OperatorExpr(acc, lhs.dps, _trusted=True)


def adjoint(x: OperatorExpr) -> OperatorExpr:
    """Hermitian conjugate: conjugate coefficients, reverse factors, flip daggers."""
    with workdps(x.dps):
        acc = _sum((tuple((m, not d) for (m, d) in reversed(fac)), c.conjugate())
                   for fac, c in x._terms.items())
    return OperatorExpr(acc, x.dps, _trusted=True)


def normal_order(x: OperatorExpr) -> OperatorExpr:
    """Equal operator with all creations left of all annihilations per term.

    The form is taken once per expression and stored on it; a later call
    returns the stored form, whose own normal form is itself (reordering
    canonical terms changes no key and no coefficient)."""
    if x._normal is None:
        with workdps(x.dps):
            acc = _sum((key, c if mult == 1 else c * mult) for fac, c in x._terms.items()
                       for key, mult in _reorder(fac))
        x._normal = form = OperatorExpr(acc, x.dps, _trusted=True)
        form._normal = form
    return x._normal


def _add(x: tuple, y: tuple, limit: int) -> tuple:
    """x + y of exact triples (re, im, e), of value (re + i im) 2^e; an exact
    zero returns the other.  Exponents more than ``limit`` bits apart
    truncate the operand of the smaller one to the larger less ``limit``
    in place of growing the integers by the whole gap."""
    if not (x[0] or x[1]):
        return y
    if not (y[0] or y[1]):
        return x
    (r1, i1, e1), (r2, i2, e2) = (x, y) if x[2] <= y[2] else (y, x)
    gap = e2 - e1
    if gap > limit:
        return (r1 >> gap - limit) + (r2 << limit), (i1 >> gap - limit) + (i2 << limit), e2 - limit
    return r1 + (r2 << gap), i1 + (i2 << gap), e1


def _mul(x: tuple, y: tuple) -> tuple:
    (a, b, e), (c, d, f) = x, y
    return a * c - b * d, a * d + b * c, e + f


def _product(weight: tuple, factors: tuple[Factor, ...], amp: dict):
    """weight times the amplitudes of ``factors``; None where one is 0."""
    for f in factors:
        if f not in amp:
            return None
        weight = _mul(weight, amp[f])
    return weight


def _kernel(x: OperatorExpr, state: Mapping[str, object]):
    """(x's precision in bits, the ``_add`` limit: twice those plus 64, the
    triple of each factor's eigenvalue on the coherent state, x's normal
    form as (factors, triple)), triples read exactly from the mpf tuples
    (sign, mantissa, exponent, bits); a zero amplitude is left out."""
    prec = dps_to_prec(x.dps)
    limit = 2 * prec + 64

    def triple(c):
        (rs, rm, re, _), (is_, im, ie, _) = c
        return _add((-rm if rs else rm, 0, re), (0, -im if is_ else im, ie), limit)

    amp: dict[Factor, tuple] = {}
    for m, v in state.items():
        # an amplitude rounded to x's precision, as mpc(v) there would be
        if isinstance(v, mpc):
            v = mpc_pos(v._mpc_, prec, round_nearest)
        else:
            with workdps(x.dps):
                v = mpc(v)._mpc_
        re, im, e = triple(v)
        if re or im:
            amp[(m, False)], amp[(m, True)] = (re, im, e), (re, -im, e)
    return prec, limit, amp, [(fac, triple(c._mpc_)) for fac, c in normal_order(x).terms()]


def _rounded(acc: dict, prec: int, phased: tuple[str, ...]):
    """Each triple of ``acc`` rounded once, to nearest at ``prec`` bits:
    {charge: value}, or without phased modes the value of charge ()."""
    values = {q: mp.make_mpc(tuple(from_man_exp(m, t[2], prec, round_nearest) for m in t[:2]))
              for q, t in acc.items()}
    return values if phased else values.get((), mpc(0))


def _charge(fac: tuple[Factor, ...], phased: tuple[str, ...]) -> tuple[int, ...]:
    """Charge of a factor product: per phased mode, the number of its
    annihilators less the number of its creators."""
    return tuple(sum(-1 if d else 1 for m, d in fac if m == pm) for pm in phased)


def coherent_expectation(x: OperatorExpr, state: Mapping[str, object],
                         phased: tuple[str, ...] = ()):
    """Expectation value over a product of coherent states.

    ``state`` maps mode labels to complex eigenvalues; absent modes are
    vacuum.  After normal ordering, each creation factor of mode m becomes
    conj(state[m]) and each annihilation factor becomes state[m].  Sums
    and products are exact on integer triples and each value returned is
    rounded once.

    With ``phased`` modes (p_1, p_2, ...), the amplitude of p_k taken as
    state[p_k] e^{i t_k}, the mean is a Laurent polynomial in the e^{i t_k}.
    A term then goes to the coefficient of its charge (q_1, q_2, ...),
    q_k its annihilators of p_k less its creators of p_k, zero products
    included, and the coefficients come back as {charge: value}.
    """
    prec, limit, amp, terms = _kernel(x, state)
    acc: dict[tuple[int, ...], tuple] = {}
    for fac, c in terms:
        # with no phased modes every term has the charge ()
        q = phased and _charge(fac, phased)
        acc[q] = _add(acc.get(q, _ZERO), _product(c, fac, amp) or _ZERO, limit)
    return _rounded(acc, prec, phased)


@functools.lru_cache(maxsize=None)
def _fock_norm(modes: tuple[str, ...]) -> int:
    """<0| a^M a'^M |0> = prod over modes m of n_m! for a mode multiset M."""
    return math.prod(math.factorial(modes.count(m)) for m in set(modes))


def _displace(table: dict, ops: tuple[Factor, ...], weight: tuple, amp: dict,
              limit: int) -> None:
    """Add the operator part of weight * prod over ops of (op + amp[op]) to
    ``table``, keyed by the sorted mode labels of the operators kept (at
    least one); absent modes have amplitude 0.  The constant part, every
    factor replaced by its amplitude, is not formed: it belongs to <x>."""
    partial = {(): weight}
    last = len(ops) - 1
    for i, op in enumerate(ops):
        a = amp.get(op)
        nxt: dict[tuple[str, ...], tuple] = {}
        for key, w in partial.items():
            kept = key + (op[0],)
            nxt[kept] = _add(nxt.get(kept, _ZERO), w, limit)
            if a and (key or i < last):
                nxt[key] = _add(nxt.get(key, _ZERO), _mul(w, a), limit)
        partial = nxt
    for key, w in partial.items():
        if key:
            table[key] = _add(table.get(key, _ZERO), w, limit)


def coherent_moments(x: OperatorExpr, state: Mapping[str, object],
                     phased: tuple[str, ...] = ()):
    """(<x>, <x.x> - <x>^2) over a product of coherent states, exactly.

    The displacement a -> a + state[a] maps the coherent state to the
    vacuum.  Each normal-ordered term c * (creators)(annihilators) of x
    then feeds two tables keyed by non-empty mode multisets M: ``cre[M]``,
    with every annihilator replaced by its amplitude and each subset M of
    the creators kept as operators (the other creators become conjugate
    amplitudes), and ``ann[M]``, its mirror image.  On the vacuum only the
    pure-annihilation part of the left x and the pure-creation part of
    the right x survive in x.x, and distinct creation monomials are
    orthogonal Fock states, so

        var = sum over M of cre[M] ann[M] prod n_m!.

    The constant term left out of both tables is <x>, which is taken by
    ``coherent_expectation``, the engine's one route to a mean.  No
    product x.x is formed and nothing cancels; Hermiticity is not assumed.
    As there, all is exact until each value is rounded once, so var of a
    Hermitian x is exactly real.  ``state`` maps mode labels to
    amplitudes, absent modes are vacuum.

    With ``phased`` modes both moments come back as {charge: coefficient}
    Laurent polynomials, as in ``coherent_expectation``.  The terms of
    each charge q fill their own pair of tables: keeping a creator of a
    phased mode in M drops its amplitude's charge -1 from cre[M], and
    keeping the annihilator drops +1 from ann[M], so cre[M] ann[M] from
    tables of charges q, q' carries the charge q + q' whatever M is.
    """
    prec, limit, amp, terms = _kernel(x, state)
    cre: dict[tuple, dict[tuple[str, ...], tuple]] = {}
    ann: dict[tuple, dict[tuple[str, ...], tuple]] = {}
    for fac, c in terms:
        q = phased and _charge(fac, phased)
        n_cre = sum(d for _, d in fac)
        creators, annihilators = fac[:n_cre], fac[n_cre:]
        for table, ops, w in ((cre, creators, _product(c, annihilators, amp)),
                              (ann, annihilators, _product(c, creators, amp))):
            if w and (w[0] or w[1]):
                _displace(table.setdefault(q, {}), ops, w, amp, limit)
    var: dict[tuple[int, ...], tuple] = {}
    for (q, cre_q), (q2, ann_q) in itertools.product(cre.items(), ann.items()):
        k = tuple(map(operator.add, q, q2))
        var[k] = var.get(k, _ZERO)
        for key, c in cre_q.items():
            if key in ann_q:
                re, im, e = _mul(c, ann_q[key])
                var[k] = _add(var[k], (re * _fock_norm(key), im * _fock_norm(key), e), limit)
    return coherent_expectation(x, state, phased), _rounded(var, prec, phased)
