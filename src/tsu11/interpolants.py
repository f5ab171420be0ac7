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
coefficient mass); and the weights of span{e^{kx}, |k| <= K}, which the
r landscape takes in x = 2r for the even span.
"""

from __future__ import annotations

from mpmath import exp, log10, mp, mpf

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


def exp_weights(nodes, degree: int):
    """x -> the weights of the node values in the interpolant from
    span{e^{kx}, |k| <= ``degree``} on the ``nodes``.

    With z = e^x that interpolant is z^-K P(z), P the polynomial of degree
    2K through the lifted values z_i^K y_i, taken in the first barycentric
    form, which stays accurate on wide and narrow spans alike (the second
    form loses digits once e^{Kx} spans many decades).  At a node the
    weights select its value.
    """
    zs = [exp(x) for x in nodes]
    bary = [1 / mp.fprod(zi - zj for j, zj in enumerate(zs) if j != i)
            for i, zi in enumerate(zs)]
    lifted = [w * zi ** degree for w, zi in zip(bary, zs)]

    def weights(x):
        z = exp(x)
        d = [z - zi for zi in zs]
        if 0 in d:
            return [mpf(di == 0) for di in d]
        scale = mp.fprod(d) / z ** degree
        return [w * scale / di for w, di in zip(lifted, d)]

    return weights
