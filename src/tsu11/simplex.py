"""Nelder-Mead simplex descent on a 2-D objective.

Unused by the LO-phase optimizer, which refines its grid cell by Newton
steps (``optimize._newton``).  It stays importable as
``optimize.nelder_mead`` because the benchmark's tracer wraps it by name.
"""

#: simplex diameter below which ``nelder_mead`` has converged
SIMPLEX_TOL = 1e-8
#: iterations after which ``nelder_mead`` stops unconverged
SIMPLEX_MAX_ITER = 500


def nelder_mead(f, x0, step):
    """Derivative-free simplex descent on a 2-D objective.

    Standard reflection/expansion/contraction/shrink moves; converges when
    the simplex diameter drops below ``SIMPLEX_TOL``.  Returns (x, fx,
    iterations, evaluations, converged).
    """
    pts = [tuple(x0), (x0[0] + step, x0[1]), (x0[0], x0[1] + step)]
    vals = [f(x) for x in pts]
    evals = 3
    iters = 0
    converged = False
    while iters < SIMPLEX_MAX_ITER:
        order = sorted(range(3), key=lambda i: vals[i])
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        diam = max(
            max(abs(pts[i][0] - pts[j][0]), abs(pts[i][1] - pts[j][1]))
            for i in range(3)
            for j in range(i + 1, 3)
        )
        if diam < SIMPLEX_TOL:
            converged = True
            break
        iters += 1
        cx = ((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2)
        worst = pts[2]
        xr = (2 * cx[0] - worst[0], 2 * cx[1] - worst[1])
        fr = f(xr)
        evals += 1
        if fr < vals[0]:
            xe = (3 * cx[0] - 2 * worst[0], 3 * cx[1] - 2 * worst[1])
            fe = f(xe)
            evals += 1
            if fe < fr:
                pts[2], vals[2] = xe, fe
            else:
                pts[2], vals[2] = xr, fr
        elif fr < vals[1]:
            pts[2], vals[2] = xr, fr
        else:
            xc = ((cx[0] + worst[0]) / 2, (cx[1] + worst[1]) / 2)
            fc = f(xc)
            evals += 1
            if fc < vals[2]:
                pts[2], vals[2] = xc, fc
            else:
                pts = [
                    pts[0],
                    ((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2),
                    ((pts[0][0] + pts[2][0]) / 2, (pts[0][1] + pts[2][1]) / 2),
                ]
                vals = [vals[0], f(pts[1]), f(pts[2])]
                evals += 2
    order = sorted(range(3), key=lambda i: vals[i])
    best = order[0]
    return pts[best], vals[best], iters, evals, converged
