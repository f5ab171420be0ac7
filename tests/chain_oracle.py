"""Expression-by-expression oracle for the circuit chain.

The package carries each detector port as a row over (mode, dagger) and
forms an ``OperatorExpr`` only for J and dJ (``tsu11.circuits``).  This
test code builds the same chain the long way, one ``OperatorExpr`` per
stage, as the package did before the rows, so the two routes can be
compared term by term and bit for bit.
"""

from __future__ import annotations

from mpmath import exp, mp, mpc, mpf, sqrt, workdps
from mpmath.libmp import mpf_cosh_sinh, round_nearest

from tsu11 import OperatorExpr, adjoint, ladder, mul
from tsu11.algebra import zero
from tsu11.circuits import ARMS_BOTH, InterferometerParams
from tsu11.jones import sampling_phase


def homodyne_difference(sig: OperatorExpr, dsig: OperatorExpr, lo: OperatorExpr, eta3):
    """(J, dJ) of af'.af - an'.an for one homodyne: the cross term, and
    the number difference where the splitter is unbalanced."""
    with workdps(sig.dps):
        t, l = sqrt(eta3), sqrt(1 - eta3)
        cross = mul(adjoint(sig), lo) * mpc(0, 2 * t * l)
        dcross = mul(adjoint(dsig), lo) * mpc(0, 2 * t * l)
        J, dJ = cross + adjoint(cross), dcross + adjoint(dcross)
        if t != l:
            k = t * t - l * l
            dn = mul(adjoint(dsig), sig)
            J = J + (mul(adjoint(sig), sig) - mul(adjoint(lo), lo)) * k
            dJ = dJ + (dn + adjoint(dn)) * k
        return J, dJ


def squeeze(x: OperatorExpr, y: OperatorExpr, r):
    """Two-mode squeezer: x -> x cosh r + y' sinh r, y -> x' sinh r + y cosh r."""
    ch, sh = map(mp.make_mpf, mpf_cosh_sinh(r._mpf_, mp.prec, round_nearest))
    return x * ch + adjoint(y) * sh, adjoint(x) * sh + y * ch


def chain(p: InterferometerParams):
    """(J, dJ) of the chain at p, every stage an ``OperatorExpr``; p as the
    circuit's builder sees it, its forced fields already set."""
    dps = p.precision
    with workdps(dps):
        i = mpc(0, 1)
        phi = sampling_phase(p.theta_f, dps)
        both = p.arms == ARMS_BOTH

        def op(m):
            return ladder(m, False, 1, dps)

        u, v = op("a"), op("b")
        if p.r:
            u, v = squeeze(u, v, p.r)
        eu = exp(i * phi) * sqrt(p.eta_p1)
        ev = (exp(i * phi) if both else mpf(1)) * sqrt(p.eta_c1)
        w, z = u * eu, v * ev
        dw, dz = u * (i * eu), (v * (i * ev) if both else zero(dps))
        if p.eta_p1 != 1:
            w = op("c") * (i * sqrt(1 - p.eta_p1)) + w
        if p.eta_c1 != 1:
            z = op("d") * (i * sqrt(1 - p.eta_c1)) + z
        if p.s:
            (w, z), (dw, dz) = squeeze(w, z, p.s), squeeze(dw, dz, p.s)
        if p.eta_p2 != 1:
            w = w * sqrt(p.eta_p2) + op("e") * (i * sqrt(1 - p.eta_p2))
            dw = dw * sqrt(p.eta_p2)
        if p.eta_c2 != 1:
            z = z * sqrt(p.eta_c2) + op("f") * (i * sqrt(1 - p.eta_c2))
            dz = dz * sqrt(p.eta_c2)
        Jm, dJm = homodyne_difference(w, dw, op("g"), p.eta_p3)
        Jn, dJn = homodyne_difference(z, dz, op("h"), p.eta_c3)
    return Jm + Jn, dJm + dJn
