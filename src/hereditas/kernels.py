"""The lasso kernel: cyclic coordinate descent with exact active-set steps, in numpy.

``cd_solve`` has one certificate: the KKT conditions within ``kkt_tol``,
checked for every column with one product ``XT @ r``.  Before each check it
takes an exact step toward the minimizer of the objective on the current
sign pattern (Osborne, Presnell & Turlach 2000): once on entry from a
nonzero warm start, and after every full sweep that left ``sign(b)``
unchanged.  With s the signs of the active set A, the step solves
``G_AA d = X_A' r / n - lam * s_A`` with the Gram block gathered from the
precomputed ``G = X'X / n`` (the "covariance updates" of Friedman, Hastie &
Tibshirani 2010).  On that face the objective is the convex quadratic the
step minimizes, so moving toward its minimizer cannot raise the objective.
A lambda that fails the check gets one full coordinate-descent sweep, and
the loop repeats.

The block depends only on the active set, so it is factored once per active
set along a path: a ``Face`` owned by the caller keeps the last active set's
rank test and the inverse of its kept block, and a step on the same active
set (the next lambda mostly starts on the face where the last one ended) is
a matrix-vector product.

The guards:

- On a block that fails the rank test (``cholesky``), a column whose pivoted
  ratio ``L_kk^2 / G_kk`` is at or below ``RANK_TOL`` (a duplicated column,
  an active set wider than n) is held fixed, and the others are solved for.
- A step that would flip a sign stops at the first coefficient it zeroes
  (at lam = 0 the objective has no kinks, and it does not stop).
- After a full step, one held column moves along the direction that its
  collapsed pivot exposes, which the fit barely sees.  It moves to the
  objective's minimum on that line, or to the first coefficient it zeroes.
  Plain descent only creeps along such a direction, as on a near-copy pair.

On a warm-started path the step from the previous solution certifies most
lambdas with no sweep at all; the rest need one or two.

``selectors`` looks ``cd_solve`` up on this module at call time
(``kernels.cd_solve``) and passes its arguments by position, so a wrapper
bound here, such as the per-layer tracer in ``perfbench/``, sees every call.
"""

from __future__ import annotations

import numpy as np

# Names the solver; recorded by the benchmark's environment probe.
KERNEL = "python"

# A Cholesky pivot with L_kk^2 / G_kk <= RANK_TOL means column k is, to
# rounding, a combination of the columns before it: the factorization can
# succeed on such a numerically singular Gram with a tiny positive pivot.
RANK_TOL = 1e-10


class Face:
    """The last active set of one lasso path and its factored Gram block.

    Valid only with the one ``gram`` it was filled from; a path creates one
    and passes it to every ``cd_solve`` call.  ``free`` and ``held`` split
    ``active`` by the rank test, and ``inv`` is the inverse of ``G_FF``.
    """

    def __init__(self):
        self.active = self.free = self.held = np.empty(0, dtype=np.intp)
        self.inv = np.empty((0, 0))


def cd_solve(XT, r, b, col_nrm2, lam, kkt_tol, max_sweeps, gram, face):
    """Coordinate descent on (1/2n)||r||^2 + lam*||b||_1 with exact active-set steps.

    Parameters
    ----------
    XT : (m, n) array, columns of the design stored as contiguous rows.
    r : (n,) residual y - X b for the warm-start b; updated in place.
    b : (m,) warm-start coefficients; updated in place.
    col_nrm2 : (m,) column norms <x_j, x_j>/n; entries <= 0 mark inert
        columns that are skipped (their coefficient stays put).
    lam, kkt_tol : penalty, and the slack allowed in the KKT certificate.
    max_sweeps : hard cap on full sweeps.
    gram : (m, m) array XT @ XT.T / n, the Gram block source of the exact
        active-set step.
    face : the ``Face`` of this path's ``gram``; the exact step reads and
        refills it, so one factorization serves every step on an active set.

    Returns
    -------
    (sweeps, converged) : full sweeps run (0 when the step from the warm
    start is certified), and whether the KKT check passed.
    """
    m, n = XT.shape
    inv_n = 1.0 / n
    sweeps = 0
    signs = np.sign(b)
    stable = signs.any()
    while True:
        if stable:
            _exact_step(XT, r, b, signs, lam, inv_n, gram, kkt_tol, face)
        if max(kkt_violations(XT @ r * inv_n, b, col_nrm2, lam)) <= kkt_tol:
            return sweeps, True
        if sweeps == max_sweeps:
            return sweeps, False
        sweeps += 1
        signs = np.sign(b)
        for j in range(m):
            vj = col_nrm2[j]
            if vj <= 0.0:
                continue
            z = np.dot(XT[j], r) * inv_n + vj * b[j]
            b_new = (z - lam if z > lam else z + lam if z < -lam else 0.0) / vj
            d = b_new - b[j]
            if d != 0.0:
                r -= d * XT[j]
                b[j] = b_new
        stable = signs.any() and np.array_equal(np.sign(b), signs)


def cholesky(g, k=None):
    """The rank test: the lower Cholesky factor of g and its smallest pivot
    ratio L_jj^2 / g_jj over the columns of ``g[:k]`` (all by default).  A
    ratio at or below RANK_TOL marks g singular; so does a factorization
    that fails, as (None, 0.0)."""
    try:
        factor = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None, 0.0
    pivots = factor.diagonal()[:k]
    return factor, float((pivots * pivots / g.diagonal()[:k]).min())


def pivoted_cholesky(g):
    """Complete-pivoting Cholesky of g scaled to unit diagonal (Higham 1990,
    the rule of LAPACK's dpstf2): each step takes the largest remaining
    diagonal, and the factorization stops once that is at or below RANK_TOL.
    Returns the positions of the columns it keeps, in pivot order, and of
    the others."""
    sd = np.sqrt(g.diagonal())
    s = g / np.multiply.outer(sd, sd)
    piv = np.arange(len(s))
    for rank in range(len(s)):
        p = rank + int(np.argmax(s[piv[rank:], piv[rank:]]))
        if not s[piv[p], piv[p]] > RANK_TOL:
            return piv[:rank], piv[rank:]
        piv[[rank, p]] = piv[[p, rank]]
        v = s[:, piv[rank]] / np.sqrt(s[piv[rank], piv[rank]])
        s -= np.multiply.outer(v, v)
    return piv, piv[:0]


def _exact_step(XT, r, b, signs, lam, inv_n, gram, kkt_tol, face):
    """Move b toward the minimizer on the face sign(b) == signs.

    When the active Gram block passes the rank test every active column is
    free; otherwise a pivoted Cholesky keeps the columns whose pivot ratio
    stays above RANK_TOL (the free set F) and holds the others fixed.  The
    split and the inverse of G_FF are computed once per active set along a
    path and kept in ``face``.  b moves to F's exact solution, or, if that
    flips a sign, as far as the first coefficient it zeroes.  After a full
    move, the first held column k moves along e_k - G_FF^-1 G_Fk to the
    objective's minimum on that line or to the first coefficient it zeroes.
    The objective is convex on every segment taken and falls along it, so no
    move can raise it.
    """
    active = np.flatnonzero(signs)
    if not np.array_equal(active, face.active):
        g_ff = gram[np.ix_(active, active)]
        free, held = active, active[:0]
        if cholesky(g_ff)[1] <= RANK_TOL:
            keep, drop = pivoted_cholesky(g_ff)
            free, held = active[keep], active[drop]
            g_ff = g_ff[np.ix_(keep, keep)]
        face.active, face.free, face.held, face.inv = active, free, held, np.linalg.inv(g_ff)
    free, held = face.free, face.held
    step = np.zeros(len(b))
    step[free] = face.inv @ ((XT @ r)[free] * inv_n - lam * signs[free])
    zeroed = _move(XT, r, b, step, 1.0, lam)
    if zeroed or not held.size:
        return
    k = held[0]
    line = np.zeros(len(b))
    line[free] = -(face.inv @ gram[free, k])
    line[k] = 1.0
    fit_line = line @ XT
    # On the line the objective is -slope * t + curv * t^2 / 2, both taken
    # from the data: the Gram's Schur complement G_kk - G_kF w is here mostly
    # cancellation.  With F solved, slope is column k's KKT residual.
    slope = fit_line @ r * inv_n - lam * (signs @ line)
    curv = fit_line @ fit_line * inv_n
    if abs(slope) > kkt_tol:
        _move(XT, r, b, np.sign(slope) * line, abs(slope) / curv if curv > 0.0 else np.inf, lam)


def _move(XT, r, b, step, t_max, lam):
    """b += t * step for the largest t <= t_max before a coefficient changes
    sign; one that reaches zero is set to exactly zero.  Returns whether one did.
    With lam == 0 the objective has no kinks, and a sign may change."""
    reach = np.full(len(b), np.inf)
    if lam > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(step * b < 0.0, -b / step, np.inf)
    edge = int(np.argmin(reach))
    t = min(t_max, reach[edge])
    if not np.isfinite(t):
        return False
    step = t * step
    zeroed = t == reach[edge]
    if zeroed:
        step[edge] = -b[edge]
    b += step
    r -= step @ XT
    return zeroed


def kkt_violations(g, b, col_nrm2, lam):
    """Largest KKT violations (active, inactive) of b, given the gradient
    g = X'r/n: |g_j - lam * sign(b_j)| over live nonzero coefficients, and
    |g_j| - lam, floored at zero, over live zero ones."""
    live = col_nrm2 > 0.0
    active = live & (b != 0.0)
    inactive = live & (b == 0.0)
    return (float(np.max(np.abs(g[active] - lam * np.sign(b[active])), initial=0.0)),
            float(np.max(np.abs(g[inactive]) - lam, initial=0.0)))
