"""Unit tests for the ladder-operator algebra."""

import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import exp, mpc, mpf, sqrt, workdps
from mpmath.libmp import dps_to_prec, from_rational, round_nearest

from tsu11 import (
    ConsistencyError,
    InterferometerParams,
    OperatorExpr,
    PrecisionMismatch,
    adjoint,
    build_tsu11_J,
    coherent_expectation,
    coherent_moments,
    ladder,
    make_params,
    mul,
    normal_order,
    report,
    variance,
)
from tsu11 import algebra
from tsu11.algebra import ZERO_MARGIN, _reorder, _sum

import kernel_oracle
from conftest import random_expr, random_state
from fock_oracle import factored_expectation


def term_dict(x):
    return dict(x.terms())


class TestMul:
    def test_concatenates_without_reordering(self):
        a = ladder("a")
        adag = ladder("a", dagger=True)
        prod = mul(a, adag)
        assert list(term_dict(prod)) == [(("a", False), ("a", True))]

    def test_scalar_product(self):
        out = mul(OperatorExpr({(): 2}), ladder("b", coeff=3))
        assert term_dict(out) == {(("b", False),): mpc(6)}

    def test_distribution_no_commutation(self):
        a, b = ladder("a"), ladder("b")
        out = mul(a + b, a - b)
        terms = term_dict(out)
        assert set(terms) == {
            (("a", False), ("a", False)),
            (("a", False), ("b", False)),
            (("b", False), ("a", False)),
            (("b", False), ("b", False)),
        }
        assert terms[(("a", False), ("b", False))] == mpc(-1)
        assert terms[(("b", False), ("a", False))] == mpc(1)

    def test_precision_mismatch_raises(self):
        with pytest.raises(PrecisionMismatch):
            mul(ladder("a", dps=40), ladder("a", dps=60))
        with pytest.raises(PrecisionMismatch):
            ladder("a", dps=40) + ladder("a", dps=60)


class TestAdjoint:
    def test_definition(self):
        x = OperatorExpr({(("a", False), ("b", True)): 1j})
        out = adjoint(x)
        assert term_dict(out) == {(("b", False), ("a", True)): mpc(0, -1)}

    def test_involution_on_random_expressions(self):
        rng = random.Random(11)
        for _ in range(30):
            x = random_expr(rng)
            assert term_dict(adjoint(adjoint(x))) == term_dict(x)


class TestNormalOrder:
    def test_canonical_commutator(self):
        out = normal_order(mul(ladder("a"), ladder("a", dagger=True)))
        assert term_dict(out) == {(("a", True), ("a", False)): mpc(1), (): mpc(1)}

    def test_distinct_modes_commute_freely(self):
        out = normal_order(mul(ladder("a"), ladder("b", dagger=True)))
        assert term_dict(out) == {(("b", True), ("a", False)): mpc(1)}

    def test_degree_four_contraction(self):
        # a.a.a'.a' = a'.a'.a.a + 4 a'.a + 2, cross-checked against the
        # Fock-matrix oracle in test_fock.py
        a, adag = ladder("a"), ladder("a", dagger=True)
        x = mul(mul(a, a), mul(adag, adag))
        out = normal_order(x)
        assert term_dict(out) == {
            (("a", True), ("a", True), ("a", False), ("a", False)): mpc(1),
            (("a", True), ("a", False)): mpc(4),
            (): mpc(2),
        }

    def test_idempotent(self):
        # a fresh expression of the normal form's terms, so that the form
        # is taken again rather than read back from ``once``
        rng = random.Random(5)
        for _ in range(30):
            x = random_expr(rng)
            once = normal_order(x)
            twice = normal_order(OperatorExpr(term_dict(once), x.dps))
            assert term_dict(once) == term_dict(twice)

    def test_second_call_returns_the_stored_form(self):
        x = random_expr(random.Random(7), max_degree=4)
        once = normal_order(x)
        assert normal_order(x) is once
        assert normal_order(once) is once
        assert term_dict(once) == term_dict(_uncached_normal_order(x))

    @pytest.mark.parametrize("order", [(40, 60), (60, 40)])
    def test_precisions_never_share_a_form(self, order):
        # 0.1 rounds differently at 40 and 60 digits
        terms = {(("a", False), ("a", True)): "0.1", (("b", False),): mpc("0.1", "-0.3")}
        forms = {}
        for dps in order:
            x = OperatorExpr(terms, dps)
            forms[dps] = normal_order(x)
            assert forms[dps].dps == dps
            assert term_dict(forms[dps]) == term_dict(_uncached_normal_order(x))
        assert term_dict(forms[40]) != term_dict(forms[60])

    def test_canonical_factor_ordering(self):
        # creations first (mode ascending), then annihilations
        x = OperatorExpr({(("b", True), ("a", True), ("b", False), ("a", False)): 1})
        out = normal_order(x)
        assert (("a", True), ("b", True), ("a", False), ("b", False)) in term_dict(out)


class TestCoherentExpectation:
    def test_photon_number_of_coherent_state(self):
        # binary-exact amplitude so |alpha|^2 is exact at any precision
        n = mul(ladder("a", dagger=True), ladder("a"))
        val = coherent_expectation(n, {"a": 0.375 + 0.5j})
        assert abs(val - mpf("0.390625")) < mpf("1e-55")

    def test_vacuum(self):
        x = mul(ladder("a", dagger=True), ladder("a")) + OperatorExpr({(): 2.5})
        assert abs(coherent_expectation(x, {}) - 2.5) < mpf("1e-55")
        y = OperatorExpr({(("a", False),): 1.0, (("b", True),): 2.0})
        assert coherent_expectation(y, {}) == 0

    def test_adjoint_conjugates_expectation(self):
        rng = random.Random(23)
        for _ in range(25):
            x = random_expr(rng)
            s = random_state(rng)
            lhs = coherent_expectation(adjoint(x), s)
            rhs = coherent_expectation(x, s).conjugate()
            assert abs(lhs - rhs) < mpf("1e-30")

    def test_linearity(self):
        rng = random.Random(31)
        for _ in range(25):
            x, y = random_expr(rng), random_expr(rng)
            s = random_state(rng)
            lhs = coherent_expectation(x + y, s)
            rhs = coherent_expectation(x, s) + coherent_expectation(y, s)
            assert abs(lhs - rhs) < mpf("1e-30")

    def test_merge_invariance(self):
        # identical factor sequences entered separately merge without
        # changing the expectation
        raw_a = OperatorExpr({(("a", True), ("a", False)): 1.5})
        raw_b = OperatorExpr({(("a", True), ("a", False)): 2.5})
        merged = raw_a + raw_b
        assert len(merged) == 1
        s = {"a": 0.7 - 0.2j}
        lhs = coherent_expectation(merged, s)
        rhs = coherent_expectation(raw_a, s) + coherent_expectation(raw_b, s)
        assert abs(lhs - rhs) < mpf("1e-40")


class TestCoherentMoments:
    def test_squared_photon_number(self):
        # x = (a'a)^2 on |3>: var = <n^4> - <n^2>^2 of a Poisson law with
        # mean 9, i.e. 11511 - 90^2
        n = mul(ladder("a", dagger=True), ladder("a"))
        mean, var = coherent_moments(mul(n, n), {"a": 3})
        assert mean == 90
        assert var == 3411

    def test_non_hermitian_variance_is_refused(self):
        # x = (1+i) a'a on |2>: <x.x> - <x>^2 = (1+i)^2 * 4 = 8i
        x = mul(ladder("a", dagger=True), ladder("a")).scaled(mpc(1, 1))
        mean, var = coherent_moments(x, {"a": 2})
        assert (mean, var) == (mpc(4, 4), mpc(0, 8))
        with pytest.raises(ConsistencyError):
            variance(x, {"a": 2})

    def test_vacuum_and_absent_modes(self):
        # a.a' = a'a + 1 has mean 1 and no fluctuation on the vacuum;
        # b + b' of the absent mode b adds unit variance
        x = mul(ladder("a"), ladder("a", dagger=True)) + ladder("b") + ladder("b", True)
        assert coherent_moments(x, {}) == (1, 1)

    def test_miniature_squeezed_circuit_matches_fock_oracle(self):
        p = InterferometerParams(
            r="0.4", alpha="0.3", beta=0, gamma="0.8", kappa="0.8",
            eta_p1="0.9", eta_c1="0.9", theta_f="0.02",
            phi_p="0.05", phi_c="-0.03", precision=40,
        )
        J, _, state = build_tsu11_J(p)
        mean, var = coherent_moments(J, state)
        o1 = factored_expectation(J, 26, state)
        o2 = factored_expectation(mul(J, J), 26, state)
        assert abs(complex(mean) - o1) < 1e-8
        assert abs(complex(var) - (o2 - o1 * o1)) < 1e-7


class TestDustFilter:
    """_merge drops a coefficient whose leading bit lies more than
    floor((dps - ZERO_MARGIN) * log2(10)) bits below the largest one's."""

    @pytest.mark.parametrize("dps", [30, 40, 60])
    def test_cut_at_the_bit_budget(self, dps):
        bits = math.floor((dps - ZERO_MARGIN) * math.log2(10))
        with workdps(dps):
            big = mpf(3) * 2**10  # leading bit at 2^11
            at_cut = mpf(2) ** (11 - bits)  # leading bit exactly `bits` below
            below = at_cut * (1 - mpf(2) ** -20)  # one bit further down
            for c, kept in ((at_cut, True), (below, False),
                            (mpc(below, at_cut), True), (mpc(0, below), False)):
                x = OperatorExpr({(): big, (("a", False),): c}, dps=dps)
                assert (len(x) == 2) is kept, (c, kept)

    def test_exact_zeros_and_cancellation_dust_dropped(self):
        assert len(OperatorExpr({(): 1, (("a", False),): 0})) == 1
        assert len(OperatorExpr({(): 0, (("a", False),): mpc(0)})) == 0
        # sqrt(2) * sqrt(2) - 2 leaves a rounding residue near 1e-41
        with workdps(40):
            r2 = sqrt(mpf(2))
            assert r2 * r2 != 2
        x = ladder("a", dps=40) + OperatorExpr({(): r2}, 40).scaled(r2) - OperatorExpr({(): 2}, 40)
        assert list(term_dict(x)) == [(("a", False),)]


# hypothesis property sweeps over machine-generated expressions

factor_st = st.tuples(st.sampled_from(["a", "b"]), st.booleans())
term_st = st.lists(factor_st, max_size=4).map(tuple)
coeff_st = st.complex_numbers(
    max_magnitude=3, allow_nan=False, allow_infinity=False
)
expr_st = st.dictionaries(term_st, coeff_st, min_size=1, max_size=4).map(
    lambda d: OperatorExpr(d, dps=40)
)


@settings(max_examples=40, deadline=None)
@given(expr_st)
def test_normal_order_idempotent_property(x):
    once = normal_order(x)
    assert term_dict(normal_order(OperatorExpr(term_dict(once), x.dps))) == term_dict(once)


@settings(max_examples=40, deadline=None)
@given(expr_st)
def test_adjoint_involution_property(x):
    assert term_dict(adjoint(adjoint(x))) == term_dict(x)


@settings(max_examples=30, deadline=None)
@given(expr_st, st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False))
def test_expectation_conjugation_property(x, alpha):
    s = {"a": alpha, "b": 0.5}
    lhs = coherent_expectation(adjoint(x), s)
    rhs = coherent_expectation(x, s).conjugate()
    assert abs(lhs - rhs) < mpf("1e-25")


mode3_term_st = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans()), max_size=4
).map(tuple)
amp_st = st.one_of(
    st.just(0), st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)
)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(mode3_term_st, coeff_st, min_size=1, max_size=4).map(
        lambda d: OperatorExpr(d, dps=40)),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), amp_st),
)
def test_coherent_moments_match_product_route_property(x, state):
    # the displaced-vacuum variance against <x.x> - <x>^2 taken from mul
    # and coherent_expectation, which also gives the mean; modes missing
    # from state are vacuum
    mean, var = coherent_moments(x, state)
    with workdps(40):
        m1 = coherent_expectation(x, state)
        m2 = coherent_expectation(mul(x, x), state)
        scale = max(abs(m2), abs(m1) ** 2, 1)
        assert mean == m1
        assert abs(var - (m2 - m1 * m1)) <= mpf("1e-30") * scale


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(mode3_term_st, coeff_st, min_size=1, max_size=4).map(
        lambda d: OperatorExpr(d, dps=40)),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), amp_st),
    st.floats(-4, 4), st.floats(-4, 4),
)
# a charge of 3 times ta rounds in binary64 (by 4.4e-16 here)
@example(OperatorExpr({(("a", True),) * 3: 1}, dps=40), {"a": 1}, 1.5117181742103507, 0.0)
def test_graded_moments_are_laurent_coefficients_property(x, state, ta, tb):
    # graded by the charges of a and b, the moments summed with
    # e^{i(q_a ta + q_b tb)} are the plain moments on the state whose a, b
    # amplitudes are turned by e^{i ta}, e^{i tb}; the phases are formed at
    # 40 digits
    mean, var = coherent_moments(x, state, ("a", "b"))
    with workdps(40):
        turned = {**state, "a": state.get("a", 0) * exp(mpc(0, ta)),
                  "b": state.get("b", 0) * exp(mpc(0, tb))}
        m1, v1 = coherent_moments(x, turned)
        scale = max(abs(v1) + abs(m1) ** 2, 1)
        for graded, plain in ((mean, m1), (var, v1)):
            total = sum(c * exp(mpc(0, qa * mpf(ta) + qb * mpf(tb)))
                        for (qa, qb), c in graded.items())
            assert abs(total - plain) <= mpf("1e-30") * scale


def _uncached_normal_order(x):
    """The normal ordering without the stored form, kept as a reference."""
    with workdps(x.dps):
        acc = _sum((key, c if mult == 1 else c * mult) for fac, c in x.terms()
                   for key, mult in _reorder(fac))
    return OperatorExpr(acc, x.dps, _trusted=True)


def _exact(c):
    """The exact value of an mpc as a pair (re, im) of Fractions, read from
    its mpf tuples (sign, mantissa, exponent, bit count)."""
    def part(t):
        sign, man, e, _ = t
        return (-1) ** sign * Fraction(man) * Fraction(2) ** e
    return part(c._mpc_[0]), part(c._mpc_[1])


def _times(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _exact_moments(x, state, phased):
    """Exact {charge: (re, im)} of <x> and of <x.x> - <x>^2, with their
    magnitude sums (L1 over the terms summed), from the Fractions of x's
    stored normal form and of the amplitudes at x's precision.  <x.x>
    takes every product of two terms in normal order (``_reorder``), so
    it shares no step with the displaced vacuum of ``coherent_moments``."""
    with workdps(x.dps):
        amp = {}
        for m, v in state.items():
            re, im = amp[(m, False)] = _exact(mpc(v))
            amp[(m, True)] = re, -im
    terms = [(fac, _exact(c)) for fac, c in normal_order(x).terms()]

    def value(c, fac):
        for f in fac:
            c = _times(c, amp.get(f, (0, 0)))
        return c

    def charge(fac):
        return tuple(sum(-1 if d else 1 for m, d in fac if m == pm) for pm in phased)

    def add(acc, q, v):
        old = acc.get(q, (0, 0))
        acc[q] = old[0] + v[0], old[1] + v[1]

    mean, xx, mass = {}, {}, [0, 0]
    for fac, c in terms:
        v = value(c, fac)
        add(mean, charge(fac), v)
        mass[0] += abs(v[0]) + abs(v[1])
    for f1, c1 in terms:
        for f2, c2 in terms:
            for key, mult in _reorder(f1 + f2):
                v = value(_times(c1, c2), key)
                add(xx, charge(key), (mult * v[0], mult * v[1]))
                mass[1] += mult * (abs(v[0]) + abs(v[1]))
    var = dict(xx)
    for q, m in mean.items():
        for q2, m2 in mean.items():
            add(var, tuple(map(operator.add, q, q2)), tuple(-p for p in _times(m, m2)))
    return (mean, mass[0]), (var, mass[1])


def _assert_rounded_once(got, want, mass, prec, truncated):
    """Each part of ``got`` is that of ``want`` rounded once to nearest at
    prec bits, bit for bit, unless the kernel ``truncated`` an operand at
    its alignment bound (exponents more than 2 prec + 64 bits apart).
    Then a part is within one rounding plus mass 2^-(2 prec), ``mass`` the
    magnitude sum of the terms summed."""
    for g, part, w in zip(got._mpc_, _exact(got), want):
        if truncated:
            assert abs(part - w) <= abs(w) * Fraction(2) ** -prec + mass * Fraction(2) ** (-2 * prec)
        else:
            assert g == from_rational(w.numerator, w.denominator, prec, round_nearest)


amplitude_st = st.one_of(
    st.just(0),
    st.tuples(st.complex_numbers(min_magnitude=0.1, max_magnitude=1, allow_nan=False,
                                 allow_infinity=False), st.integers(-100, 100)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(30, 120),
    st.dictionaries(mode3_term_st, coeff_st, min_size=1, max_size=5),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), amplitude_st),
    st.sampled_from([(), ("a",), ("a", "b"), ("c", "a")]),
)
@example(30, {(("a", True), ("a", False)): 1, (): 1}, {"a": (1, 100), "b": 0}, ())
# a product at a rounding tie, broken by a real part the bound truncates
@example(30, {(("a", False),): 1.1349741389255453e-294 + 1.5j}, {"a": (0.5 + 0.5j, -1)}, ())
def test_kernel_rounds_the_exact_moments_once_property(dps, terms, amplitudes, phased):
    # amplitudes from 1e-100 to 1e100 in size, zero or absent, at 30-120
    # digits: each mean, variance and charge coefficient is the exact value
    # of the stored terms and amplitudes, rounded once, unless an operand met
    # the alignment bound; the second round reads the normal form the first
    # one stored
    x = OperatorExpr(terms, dps=dps)
    with workdps(dps):
        state = {m: a and mpc(a[0]) * mpf(10) ** a[1] for m, a in amplitudes.items()}
    prec, truncated, exact_add = dps_to_prec(dps), [], algebra._add

    def add(a, b, limit):
        if (a[0] or a[1]) and (b[0] or b[1]) and abs(a[2] - b[2]) > limit:
            truncated.append((a, b))
        return exact_add(a, b, limit)

    for _ in range(2):
        with mock.patch.object(algebra, "_add", add):
            moments = coherent_moments(x, state, phased)
        assert coherent_expectation(x, state, phased) == moments[0]
        for got, (want, mass) in zip(moments, _exact_moments(x, state, phased)):
            got = got if phased else {(): got}
            for q in got.keys() | want.keys():
                _assert_rounded_once(got.get(q, mpc(0)), want.get(q, (0, 0)), mass, prec,
                                     truncated)


def kernel_bits(value):
    """The raw tuples of a kernel value, or of each coefficient of a graded
    one in its charge order."""
    if isinstance(value, dict):
        return [(q, c._mpc_) for q, c in value.items()]
    return value._mpc_


@settings(max_examples=80, deadline=None)
@given(
    st.integers(30, 120),
    st.dictionaries(mode3_term_st, coeff_st, min_size=1, max_size=5),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), amplitude_st),
    st.sampled_from([(), ("a",), ("a", "b"), ("c", "a")]),
    st.booleans(),
)
# repeated factors kept and dropped, beside amplitudes 1e200 apart, which
# the alignment bound truncates
@example(30, {(("a", True), ("a", True), ("a", False), ("a", False)): 1,
              (("a", True), ("b", True), ("b", False)): 1j, (): 1},
         {"a": (0.5, 100), "b": (1j, -100), "c": 0}, ("a",), True)
def test_one_set_up_is_the_three_set_up_route_property(dps, terms, amplitudes, phased, prepared):
    # the moments from one set-up, given as a mapping or as its
    # ``amplitudes``, are those of the route that converts the amplitudes
    # and the normal form on every call and displaces each term through
    # subset tables (``kernel_oracle``): the same charges in the same order
    # and the same bits, on expressions with repeated factors and
    # amplitudes from 1e-100 to 1e100, zero or absent
    x = OperatorExpr(terms, dps=dps)
    with workdps(dps):
        state = {m: a and mpc(a[0]) * mpf(10) ** a[1] for m, a in amplitudes.items()}
    given = algebra.amplitudes(state, dps) if prepared else state
    for got, want in zip(coherent_moments(x, given, phased),
                         kernel_oracle.moments(x, state, phased)):
        assert kernel_bits(got) == kernel_bits(want)
    assert (kernel_bits(coherent_expectation(x, given, phased))
            == kernel_bits(kernel_oracle.expectation(x, state, phased)))


def test_table_order_is_kept_where_the_alignment_bound_truncates():
    # var = cre[a,b] ann[a,b] + cre[a] ann[a] + cre[b] ann[b] = 1 - 2^1000
    # + 2^1000, in the order the terms first reach each key: the 1 meets
    # -2^1000 first and is truncated away, so the kernel's var is 0.
    # Keys reached in another order would give 1
    x = OperatorExpr({(("a", True), ("b", True)): 1, (("a", False), ("b", False)): 1,
                      (("a", True), ("c", False)): 1}, dps=30)
    with workdps(30):
        state = {"a": mpf(2) ** 500, "b": mpf(2) ** 500, "c": -mpf(2) ** 501}
    got, want = coherent_moments(x, state), kernel_oracle.moments(x, state)
    assert [kernel_bits(v) for v in got] == [kernel_bits(v) for v in want]
    assert got[1] == 0


def test_amplitudes_at_another_precision_are_refused():
    x = mul(ladder("a", dagger=True, dps=40), ladder("a", dps=40))
    with pytest.raises(PrecisionMismatch):
        coherent_moments(x, algebra.amplitudes({"a": 2}, 60))


@pytest.mark.parametrize("dps,ref_dps", [(30, 120), (120, 240)])
@pytest.mark.parametrize("circuit", ["tsu11", "classical"])
@pytest.mark.parametrize("point", [{"alpha": "1e-200"}, {"gamma": "1e160", "kappa": "1e160"},
                                   {"r": "400"}], ids=["alpha", "gamma_kappa", "r"])
def test_extreme_points_keep_the_working_precision(dps, ref_dps, circuit, point):
    # the CLI's extremes put the terms of a sum thousands of bits apart,
    # past the kernel's alignment bound (2 prec + 64 bits): each moment
    # still agrees with a higher-precision engine run to the working
    # precision, a 30-digit run with a 120-digit one
    rep, ref = (report(circuit, make_params("paper-start", precision=d, **point))
                for d in (dps, ref_dps))
    with workdps(ref_dps):
        for got, want in ((rep.mean_j, ref.mean_j), (rep.variance, ref.variance),
                          (rep.dj_dphi_sq, ref.dj_dphi_sq)):
            assert abs(got - want) <= abs(want) * mpf(10) ** (3 - dps)
    assert rep.variance.imag == 0


class TestSerialization:
    """The stored terms depend on the terms given, not on their order."""

    def test_text_sorted_and_stable_under_term_insertion_order(self):
        t1 = OperatorExpr({(("a", False),): 1.25, (("b", True),): -2}, dps=40)
        t2 = OperatorExpr({(("b", True),): -2, (("a", False),): 1.25}, dps=40)
        assert term_dict(t1) == term_dict(t2) == {
            (("a", False),): mpc(1.25), (("b", True),): mpc(-2)}

    def test_zero_coefficients_dropped(self):
        x = ladder("a") - ladder("a")
        assert len(x) == 0
        assert term_dict(x) == {}


def test_hermitian_quadratic_expectation_real():
    # g'.g with a coherent seed: mean gamma^2, fluctuations Poissonian
    g2 = mul(ladder("g", dagger=True), ladder("g"))
    with workdps(60):
        val = coherent_expectation(g2, {"g": mpf("1e4")})
        assert abs(val - mpf("1e8")) < mpf("1e-40")
