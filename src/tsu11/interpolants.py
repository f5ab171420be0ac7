"""Exact interpolants of the engine's moments along parameter axes.

var(J) and |d<J>/dphi|^2 are trigonometric polynomials in the LO phases
and lie in span{e^{kr}, |k| <= 4} along the gain r, in the even
span{e^{-2r}, 1, e^{2r}} where both homodynes are balanced, so a few
coefficients fix them: the LO-phase landscape of the optimizer takes
them from the engine's charge-graded moments, the r landscape of the
sweeps from engine reports at 3 or 9 nodes.  This module holds the
check against one more engine report that both share, with its gap in
digits; the scales of the r landscape's node reports, at which it is
checked (the LO landscape has no nodes and bounds its own by its
coefficient mass); and the Lagrange numerators of span{e^{kx}, |k| <=
K}, which the r landscape takes in x = 2r for the even span, expanded
once into monomial integer coefficients: its rows are Horner in integers
from z = e^x on, up to one rounded division on raw mpf tuples.
"""

from __future__ import annotations

from mpmath import log10, mp, mpf
from mpmath.libmp import fzero, mpf_div, round_nearest

from .metrology import ConsistencyError

#: digits below the working precision at which an interpolant is trusted:
#: room for the rounding of the fit and of the engine's own node values
CHECK_MARGIN = 15


def tolerance(dps: int):
    """Relative gap to the node scale above which a check fails at dps."""
    return mpf(10) ** (CHECK_MARGIN - dps)


def node_scales(nodes):
    """The scales at which an interpolant is checked, from its nodes'
    (<J^2>, |d<J>/dphi|^2) pairs: var relative to the largest |<J^2>| =
    |var + <J>^2|, a scale at least that of the largest node var, and
    |d<J>/dphi|^2 relative to the largest node value; both at least 1."""
    second_moments, dsqs = zip(*nodes)
    return (max([abs(m2) for m2 in second_moments] + [mpf(1)]),
            max(list(dsqs) + [mpf(1)]))


def check_fit(fit, rep, scales, tol, what, where):
    """The gap between the interpolated (var, |d<J>/dphi|^2) ``fit`` and the
    engine report ``rep``, relative to the node ``scales``; raises
    ``ConsistencyError`` where it exceeds ``tol``."""
    gap = max(abs(fit[0] - rep.variance.real) / scales[0],
              abs(fit[1] - rep.dj_dphi_sq) / scales[1])
    if gap > tol:
        raise ConsistencyError(f"{what} misses the engine by {mp.nstr(gap, 3)} of the "
                               f"node scale at {where}")
    return gap


def agreement_digits(gap, precision: int) -> float:
    """-log10 of a relative ``gap``, capped at ``precision`` digits and
    rounded to 0.1; take it at the precision the gap was formed at."""
    return round(float(min(precision, -log10(gap)) if gap else precision), 1)


def fixed(values):
    """(integers m_i, exponent e), values[i] = m_i 2^e exactly, of finite
    mpf ``values``; with ``monomials``, ``horner`` and ``quotient`` the
    exact arithmetic of the r landscape's rows."""
    parts = [v._mpf_ for v in values]
    e = min((x for _, m, x, _ in parts if m), default=0)
    return [(-m if s else m) << x - e if m else 0 for s, m, x, _ in parts], e


def lagrange_lifts(zs, degree: int):
    """z_i^K / prod_{j != i} (z_i - z_j) at each node z_i = e^{x_i}.

    With z = e^x, the interpolant from span{e^{kx}, |k| <= K = ``degree``}
    through values y_i is z^-K P(z), P the polynomial of degree 2K through
    z_i^K y_i; so z^K times it is the sum of the Lagrange numerators c_i
    prod_{j != i} (z - z_j), c_i = lift_i y_i: exact in z, with no
    division, on wide and narrow spans alike."""
    return [zi ** degree / mp.fprod(zi - zj for j, zj in enumerate(zs) if j != i)
            for i, zi in enumerate(zs)]


def monomials(coefs, nodes):
    """The coefficients, highest power first, of sum_i c_i prod_{j != i}
    (z - z_j) for integers c_i = ``coefs`` and z_j = ``nodes``, exact."""
    total = [0] * len(nodes)
    for i, c in enumerate(coefs):
        poly = [c]
        for zj in nodes[:i] + nodes[i + 1:]:
            poly = [a - zj * b for a, b in zip(poly + [0], [0] + poly)]
        total = [t + a for t, a in zip(total, poly)]
    return total


def horner(coefs, z: int) -> int:
    """The polynomial with ``coefs``, highest power first, at integer z:
    the sum ``monomials`` expands, bit for bit."""
    value = 0
    for c in coefs:
        value = value * z + c
    return value


def quotient(num, den, prec: int):
    """num / den of exact pairs as a raw mpf, rounded once to nearest at
    ``prec`` bits; ``mpf_div`` takes them as raw tuples, trailing zero
    bits and all."""
    def raw(m, e):
        return (int(m < 0), abs(m), e, abs(m).bit_length()) if m else fzero
    return mpf_div(raw(*num), raw(*den), prec, round_nearest)
