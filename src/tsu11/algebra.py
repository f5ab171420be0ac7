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
points.  What an expression stores after construction is derived from it
once: its normal form (``normal_order``; a normal form is its own), and
that form as exact triples for the kernel.

The coherent-state kernel works on exact integer triples and rounds each
value it returns once; only terms more than 2 prec + 64 bits apart (prec
the working precision in bits) are truncated to that gap (``_add``).  A
report sets the kernel up once (``amplitudes``) for <J>, var J and <dJ>.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Mapping, NamedTuple

from mpmath import mp, mpc, workdps
from mpmath.libmp import (dps_to_prec, from_man_exp, mpc_add, mpc_conjugate, mpc_mul, mpc_pos,
                          round_nearest)

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


def _top_bit(c: tuple):
    """Binary exponent of the leading bit of max(|re|, |im|) of the raw
    mpc ``c``; -inf for 0."""
    # an mpf tuple is (sign, mantissa, exponent, bit count of the mantissa)
    (_, re_man, re_exp, re_bc), (_, im_man, im_exp, im_bc) = c
    top = re_exp + re_bc if re_man else _NO_BITS
    if im_man and im_exp + im_bc > top:
        top = im_exp + im_bc
    return top


def _cut(terms: dict, dps: int, tops: list | None = None) -> dict:
    """Drop the terms whose leading bit lies more than (dps - ZERO_MARGIN)
    decimal digits' worth of bits below the largest one's, and exact
    zeros.  Reads the binary exponents of the values, raw mpc tuples (or
    ``tops`` gives their leading bits in order), so no arithmetic is done.
    A cut dict is its own cut."""
    if tops is None:
        tops = [_top_bit(v) for v in terms.values()]
    largest = max(tops, default=_NO_BITS)
    if largest == _NO_BITS:
        return {}
    cut = largest - int((dps - ZERO_MARGIN) * _LOG2_10)
    return {k: c for (k, c), top in zip(terms.items(), tops) if top >= cut}


def _merge(terms: dict[tuple[Factor, ...], mpc], dps: int) -> dict[tuple[Factor, ...], mpc]:
    """``_cut`` of terms whose values are mpc."""
    return _cut(terms, dps, [_top_bit(c._mpc_) for c in terms.values()])


class OperatorExpr:
    """A canonically merged sum of weighted ladder-operator products.

    No two stored terms share a factor sequence and coefficients that are
    zero at working precision are dropped.  The empty factor tuple is the
    identity operator.  ``_normal`` holds the normal form once
    ``normal_order`` has taken it, ``_exact`` the kernel's form of it.
    """

    __slots__ = ("_terms", "dps", "_normal", "_exact")

    def __init__(
        self,
        terms: Mapping[tuple[Factor, ...], object] | None = None,
        dps: int = DEFAULT_DPS,
        _trusted: bool = False,
    ):
        self.dps = int(dps)
        self._normal = self._exact = None
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

    @classmethod
    def _of_cut(cls, terms: dict[tuple[Factor, ...], mpc], dps: int) -> "OperatorExpr":
        """An expression of canonical terms at ``dps`` that ``_merge`` has
        cut already, taken as they are."""
        x = cls.__new__(cls)
        x.dps, x._terms, x._normal, x._exact = dps, terms, None, None
        return x

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
    """Distributed product; factor sequences concatenate, no reordering.
    Each product and sum is rounded as mpc's, on raw tuples."""
    lhs._check(rhs)
    prec = dps_to_prec(lhs.dps)
    acc: dict[tuple[Factor, ...], tuple] = {}
    for fa, ca in lhs._terms.items():
        a = ca._mpc_
        for fb, cb in rhs._terms.items():
            key, v = fa + fb, mpc_mul(a, cb._mpc_, prec, round_nearest)
            acc[key] = mpc_add(acc[key], v, prec, round_nearest) if key in acc else v
    return OperatorExpr._of_cut({f: mp.make_mpc(v) for f, v in _cut(acc, lhs.dps).items()},
                                lhs.dps)


def adjoint(x: OperatorExpr) -> OperatorExpr:
    """Hermitian conjugate: conjugate coefficients, reverse factors, flip
    daggers.  Every magnitude stays, so x's cut terms need no new cut."""
    prec = dps_to_prec(x.dps)
    return OperatorExpr._of_cut(
        {tuple((m, not d) for (m, d) in reversed(fac)):
         mp.make_mpc(mpc_conjugate(c._mpc_, prec, round_nearest))
         for fac, c in x._terms.items()}, x.dps)


def normal_order(x: OperatorExpr) -> OperatorExpr:
    """Equal operator with all creations left of all annihilations per term.

    The form is taken once per expression and stored on it; a later call
    returns the stored form, whose own normal form is itself (reordering
    canonical terms changes no key and no coefficient)."""
    if x._normal is None:
        pairs = [(c, _reorder(fac)) for fac, c in x._terms.items()]
        if all(len(r) == 1 and r[0][1] == 1 and r[0][0] == fac
               for fac, (_, r) in zip(x._terms, pairs)):
            # every term canonical: the form has x's terms, which are cut
            x._normal = x
            return x
        with workdps(x.dps):
            acc = _sum((key, c if mult == 1 else c * mult) for c, r in pairs for key, mult in r)
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


def _triple(c: tuple, limit: int) -> tuple:
    """The exact triple of the raw mpc ``c`` (mpf tuples: sign, mantissa, exponent, bits)."""
    (rs, rm, re, _), (is_, im, ie, _) = c
    return _add((-rm if rs else rm, 0, re), (0, -im if is_ else im, ie), limit)


class Amplitudes(NamedTuple):
    """Coherent amplitudes set up for the kernel at ``dps`` digits: the bits,
    the ``_add`` limit 2 prec + 64, each factor's eigenvalue as a triple."""

    dps: int
    prec: int
    limit: int
    amp: dict[Factor, tuple]


def amplitudes(state: Mapping[str, object], dps: int) -> Amplitudes:
    """The kernel's set-up of ``state`` (mode label -> amplitude) at ``dps``
    digits, each amplitude rounded as mpc(v) there, a zero one left out.
    The kernel takes it in place of the mapping, so it converts once."""
    prec = dps_to_prec(dps)
    limit = 2 * prec + 64
    amp: dict[Factor, tuple] = {}
    for m, v in state.items():
        if isinstance(v, mpc):
            v = mpc_pos(v._mpc_, prec, round_nearest)
        else:
            with workdps(dps):
                v = mpc(v)._mpc_
        re, im, e = _triple(v, limit)
        if re or im:
            amp[(m, False)], amp[(m, True)] = (re, im, e), (re, -im, e)
    return Amplitudes(dps, prec, limit, amp)


@functools.lru_cache(maxsize=None)
def _parts(fac: tuple[Factor, ...]):
    """The ``cre`` and ``ann`` halves of a normal-ordered term for
    ``coherent_moments``: (the factors that become amplitudes, the other
    group, and per non-empty multiset M of it kept as operators (M's modes,
    the factors dropped, how many subsets keep M)), M in the order that
    displacing the group factor by factor, kept before dropped, reaches
    it.  The subsets of one M have equal values, so they add to that count
    times one.  Cached, as it depends on the factors alone."""
    n_cre = sum(d for _, d in fac)
    groups = fac[:n_cre], fac[n_cre:]
    parts = []
    for replaced, ops in (groups[::-1], groups):
        partial = {(): ((), 1)}
        for op in ops:
            nxt: dict = {}
            for key, (dropped, n) in partial.items():
                for k, d in ((key + (op[0],), dropped), (key, dropped + (op,))):
                    nxt[k] = (d, nxt[k][1] + n) if k in nxt else (d, n)
            partial = nxt
        parts.append((replaced, ops, tuple((k, d, n) for k, (d, n) in partial.items() if k)))
    return tuple(parts)


def _set_up(x: OperatorExpr, state):
    """(``amplitudes`` of ``state`` at x's precision, x's normal form as
    (factors, triple, ``_parts``), converted on the first call and stored
    on x); amplitudes at another precision raise ``PrecisionMismatch``."""
    if not isinstance(state, Amplitudes):
        state = amplitudes(state, x.dps)
    elif state.dps != x.dps:
        raise PrecisionMismatch(f"amplitudes at {state.dps} digits for an expression "
                                f"at {x.dps}")
    if x._exact is None:
        x._exact = [(fac, _triple(c._mpc_, state.limit), _parts(fac))
                    for fac, c in normal_order(x).terms()]
    return state, x._exact


def _rounded(acc: dict, prec: int, phased: tuple[str, ...]):
    """Each triple of ``acc`` rounded once, to nearest at ``prec`` bits:
    {charge: value}, or without phased modes the value of charge ()."""
    values = {q: mp.make_mpc((from_man_exp(re, e, prec, round_nearest),
                              from_man_exp(im, e, prec, round_nearest)))
              for q, (re, im, e) in (acc.items() if phased else [((), acc.get((), _ZERO))])}
    return values if phased else values[()]


def _charge(fac: tuple[Factor, ...], phased: tuple[str, ...]) -> tuple[int, ...]:
    """Charge of a factor product: per phased mode, the number of its
    annihilators less the number of its creators."""
    return tuple(sum(-1 if d else 1 for m, d in fac if m == pm) for pm in phased)


def coherent_expectation(x: OperatorExpr, state: Mapping[str, object] | Amplitudes,
                         phased: tuple[str, ...] = ()):
    """Expectation value over a product of coherent states.

    ``state`` maps mode labels to complex eigenvalues, or is their
    ``amplitudes`` set-up at x's precision; absent modes are vacuum.
    After normal ordering, each creation factor of mode m becomes
    conj(state[m]) and each annihilation factor becomes state[m].  Sums
    and products are exact on integer triples and each value returned is
    rounded once.

    With ``phased`` modes (p_1, p_2, ...), the amplitude of p_k taken as
    state[p_k] e^{i t_k}, the mean is a Laurent polynomial in the e^{i t_k}.
    A term then goes to the coefficient of its charge (q_1, q_2, ...),
    q_k its annihilators of p_k less its creators of p_k, zero products
    included, and the coefficients come back as {charge: value}.
    """
    state, terms = _set_up(x, state)
    limit, amp = state.limit, state.amp
    acc: dict[tuple[int, ...], tuple] = {}
    for fac, c, _ in terms:
        # with no phased modes every term has the charge ()
        q = phased and _charge(fac, phased)
        acc[q] = _add(acc.get(q, _ZERO), _product(c, fac, amp) or _ZERO, limit)
    return _rounded(acc, state.prec, phased)


@functools.lru_cache(maxsize=None)
def _fock_norm(modes: tuple[str, ...]) -> int:
    """<0| a^M a'^M |0> = prod over modes m of n_m! for a mode multiset M."""
    return math.prod(math.factorial(modes.count(m)) for m in set(modes))


def coherent_moments(x: OperatorExpr, state: Mapping[str, object] | Amplitudes,
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

    A term adds one entry per M (``_parts``).  The constant term left out
    of both tables is <x>, taken by ``coherent_expectation``, the engine's
    one route to a mean, on the same set-up (``_set_up``).  No product x.x
    is formed and nothing cancels; Hermiticity is not assumed.  As there,
    all is exact until each value is rounded once, so var of a Hermitian x
    is exactly real.  ``state`` is as there.

    With ``phased`` modes both moments come back as {charge: coefficient}
    Laurent polynomials, as in ``coherent_expectation``.  The terms of
    each charge q fill their own pair of tables: keeping a creator of a
    phased mode in M drops its amplitude's charge -1 from cre[M], and
    keeping the annihilator drops +1 from ann[M], so cre[M] ann[M] from
    tables of charges q, q' carries the charge q + q' whatever M is.
    """
    state, terms = _set_up(x, state)
    limit, amp = state.limit, state.amp
    cre: dict[tuple, dict[tuple[str, ...], tuple]] = {}
    ann: dict[tuple, dict[tuple[str, ...], tuple]] = {}
    for fac, c, parts in terms:
        q = phased and _charge(fac, phased)
        for tables, (replaced, ops, subsets) in zip((cre, ann), parts):
            if not ops:
                # nothing kept: the part only opens its charge's table
                if all(f in amp for f in replaced):
                    tables.setdefault(q, {})
                continue
            w = _product(c, replaced, amp)
            if w is None:
                continue
            table = tables.setdefault(q, {})
            for key, dropped, n in subsets:
                v = _product(w, dropped, amp) if dropped else w
                if v is not None:
                    table[key] = _add(table.get(key, _ZERO),
                                      v if n == 1 else (n * v[0], n * v[1], v[2]), limit)
    var: dict[tuple[int, ...], tuple] = {}
    for (q, cre_q), (q2, ann_q) in itertools.product(cre.items(), ann.items()):
        k = tuple(map(operator.add, q, q2))
        acc = var.get(k, _ZERO)
        for key, c in cre_q.items():
            d = ann_q.get(key)
            if d is not None:
                re, im, e = _mul(c, d)
                n = _fock_norm(key)
                acc = _add(acc, (re * n, im * n, e), limit)
        var[k] = acc
    return coherent_expectation(x, state, phased), _rounded(var, state.prec, phased)
