"""The lasso kernel, in numpy: exact working-set steps in Gram space.

``cd_solve`` has one certificate: the KKT conditions within ``kkt_tol``, or
the gradient's rounding at b if larger, checked for every column on the
gradient ``g = X'(y - X b)/n``.  No residual is kept: with ``c = X'y/n`` and
the Gram ``G = X'X/n``, every gradient is ``c - G b`` (the "covariance
updates" of Friedman, Hastie & Tibshirani 2010).  No pass does length-n
work, except the move along a held column's line (below), whose curvature is
read from the data.

Each pass is one exact step, and ``max_iter`` caps passes.  A step moves b
toward the minimizer of the objective on the face of a sign vector s
(Osborne, Presnell & Turlach 2000): with A the columns where s is nonzero,
it solves ``G_AA d = g_A - lam * s_A``.  On that face the objective is the
convex quadratic the step minimizes, so moving toward its minimizer cannot
raise the objective.  After each step (feature-sign search; Lee, Battle,
Raina & Ng 2007):

- a step that stopped at a zeroed coefficient is followed by a step on the
  face without it;
- a step that reached its face's minimizer, with only inactive columns
  violating the KKT conditions, is followed by a step on the face where the
  largest violator joins with the sign of its gradient.  With the face
  solved, the Schur complement moves that column with that sign.  At
  lam = 0 every violator joins at once: the objective has no kinks, so
  signs constrain nothing;
- at lam > 0, a zero column that would move against its sign leaves the
  face, and the next step is on the face without it;
- a step that reached its face's minimizer with an active violation left
  is followed by another step on that face.

The inverse of the working set's Gram block lives in a ``Face`` that holds
the Gram, one per path, and follows the working set in O(k^2) per column:
a leaving column is a rank-one downdate, and a joining one borders it.  A
joining column's Schur complement ``s = G_jj - u' G_AA^-1 u`` over ``G_jj``
is its pivot ratio, so it is the column's rank test.  While a column is
held, a change builds the face again by bordering from the empty one, and so
does a solved face that still leaves an active violation, which means the
updated inverse has drifted.  Most steps leave the working set as it was;
the face keeps its mask, so such a step costs it one comparison.

The guards:

- A joining column whose pivot ratio is at or below ``RANK_TOL`` (a
  duplicated column, an active set wider than n) is held fixed, and the
  others are solved for.
- A step that would flip a sign stops at the first coefficient it zeroes
  (at lam = 0 the objective has no kinks, and it does not stop).
- After a full step, the held column with the largest KKT residual moves
  along the direction that its collapsed pivot exposes, which the fit
  barely sees.  It moves to the objective's minimum on that line, or to the
  first coefficient it zeroes.  Plain descent only creeps along such a
  direction, as on a near-copy pair.  A slope within the rounding of the
  gradient at b counts as zero: moving by it only grows b (at lam = 0 on an
  unscaled near-copy pair, b doubled each pass until it overflowed).

``selectors`` looks ``cd_solve`` up on this module at call time
(``kernels.cd_solve``) and passes its arguments by position, so a wrapper
bound here, such as the per-layer tracer in ``perfbench/``, sees every call.
"""

from __future__ import annotations

import numpy as np

# Names the solver; recorded by the benchmark's environment probe.
KERNEL = "python"

# A pivot ratio L_kk^2 / G_kk <= RANK_TOL means column k is, to rounding, a
# combination of the columns before it: a Cholesky factorization can succeed
# on such a numerically singular Gram with a tiny positive pivot.
RANK_TOL = 1e-10

# Rounding floor of a KKT slack, in eps times the data's scale: rounding alone
# moves X'r/n by more than 1e-7 at a response of 1e10, and c - G b at |b| of 3e6.
ROUNDING_ULPS = 1e3


class Face:
    """The working set of one lasso path and the inverse of its Gram block.

    ``gram`` is the path's X'X/n; a path creates one ``Face`` on it and
    passes it to every ``cd_solve`` call.  ``free`` and ``held`` split the
    working set by the rank test, ``inv`` is the inverse of ``G_FF`` in the
    order of ``free``, and ``fresh`` says that ``inv`` was built by
    ``factor`` rather than updated.  ``mask`` marks the working set (free and
    held), and ``fit`` on an unchanged working set returns at once.  ``ulp``
    is the rounding of a gradient ``c - gram @ b`` per unit of ``||b||_1``.
    """

    def __init__(self, gram):
        self.gram = gram
        self.ulp = ROUNDING_ULPS * np.finfo(float).eps * gram.diagonal().max(initial=0.0)
        self.factor([])

    def fit(self, signs):
        """Make this the face of the nonzero entries of ``signs``: downdate
        each column that left, then border each one that joined.  While a
        column is held, any change builds the face again, so that a held
        column can become free.  An unchanged working set returns at once."""
        now = signs != 0.0
        changed = now != self.mask
        if not changed.any():
            return
        if self.held.size:
            self.factor(np.flatnonzero(now).tolist())
            return
        for j in np.flatnonzero(changed & self.mask).tolist():
            self._downdate(j)
        for j in np.flatnonzero(changed & now).tolist():
            self._border(j)
        self.mask = now

    def factor(self, active):
        """Build the face of ``active`` (ascending) from the empty one by
        bordering its columns in turn: the unpivoted Cholesky's rank test,
        column by column, with the columns that fail it held."""
        self.free = self.held = np.empty(0, dtype=np.intp)
        self.inv = np.empty((0, 0))
        self.mask = np.zeros(len(self.gram), dtype=bool)
        self.mask[active] = True
        for j in active:
            self._border(j)
        self.fresh = True

    def _border(self, j):
        """Append column j to ``free``, or to ``held`` when its pivot ratio
        s / G_jj is at or below RANK_TOL."""
        u = self.gram[self.free, j]
        v = self.inv @ u
        s = self.gram[j, j] - u @ v
        if not s > RANK_TOL * self.gram[j, j]:
            self.held = np.append(self.held, j)
            return
        k = len(self.free)
        inv = np.empty((k + 1, k + 1))
        inv[:k, :k] = self.inv + np.multiply.outer(v, v / s)
        inv[:k, k] = inv[k, :k] = -v / s
        inv[k, k] = 1.0 / s
        self.free, self.inv, self.fresh = np.append(self.free, j), inv, False

    def _downdate(self, j):
        """Remove column j from ``free``."""
        keep = self.free != j
        p = int(keep.argmin())
        e = self.inv[keep, p]
        self.inv = self.inv[keep][:, keep] - np.multiply.outer(e, e / self.inv[p, p])
        self.free, self.fresh = self.free[keep], False


def cd_solve(XT, c, b, col_nrm2, lam, kkt_tol, max_iter, face):
    """Minimize (1/2n)||y - X b||^2 + lam*||b||_1 by exact working-set steps.

    Parameters
    ----------
    XT : (m, n) array, columns of the design stored as contiguous rows.
    c : (m,) X'y/n for the centered response y.
    b : (m,) warm-start coefficients; updated in place.
    col_nrm2 : (m,) column norms <x_j, x_j>/n; entries <= 0 mark inert
        columns that are skipped (their coefficient stays put).
    lam, kkt_tol : penalty, and the slack allowed in the KKT certificate.
    max_iter : hard cap on passes; each pass is one exact step.
    face : the path's ``Face``, on the Gram XT @ XT.T / n; every gradient is
        ``c - face.gram @ b``, and the exact step reads and updates it.

    Returns
    -------
    (passes, converged) : passes run (0 when the warm start is certified),
    and whether the KKT check passed.
    """
    signs = np.sign(b)
    live = col_nrm2 > 0.0
    # solved says that b minimizes the objective on the face of signs (b = 0
    # on the empty face).
    solved = not signs.any()
    passes = 0
    while True:
        g = c - face.gram @ b
        active, inactive = kkt_violations(g, b, live, lam)
        viol = max(active, inactive)
        converged = viol <= kkt_tol or viol <= face.ulp * np.abs(b).sum()
        if converged or passes == max_iter:
            break
        passes += 1
        if solved and active <= kkt_tol:
            out = np.where(live & (b == 0.0), np.abs(g), -np.inf)
            join = [int(out.argmax())] if lam > 0.0 else np.flatnonzero(out > kkt_tol)
            signs[join] = np.sign(g[join])
        elif solved and not face.fresh:
            face.factor(np.flatnonzero(signs))  # the updated inverse drifted
        zeroed, solved = _exact_step(XT, g, b, signs, lam, kkt_tol, face)
        if zeroed:
            signs = np.sign(b)
    return passes, converged


def _exact_step(XT, g, b, signs, lam, kkt_tol, face):
    """Move b toward the minimizer on the face of ``signs``, given the
    gradient g = X'(y - X b)/n at b.

    ``face`` is brought to the nonzero entries of ``signs`` and gives the
    free columns F and the inverse of G_FF.  b moves to F's exact solution,
    or, if that flips a sign, as far as the first coefficient it zeroes.
    After a full move, the held column k with the largest KKT residual moves
    along e_k - G_FF^-1 G_Fk to the objective's minimum on that line or to
    the first coefficient it zeroes.  The objective is convex on every segment
    taken and falls along it, so no move can raise it.

    At lam > 0, a zero column that would move against its sign (a joining
    column, or a held one whose line slopes against it) leaves the face
    instead: its entry of ``signs`` is set to zero and b does not move.

    Returns (zeroed, solved): whether a move stopped at a zeroed
    coefficient, and whether b reached the face's minimizer.
    """
    face.fit(signs)
    free, held, gram = face.free, face.held, face.gram
    step = np.zeros(len(b))
    step[free] = face.inv @ (g[free] - lam * signs[free])
    against = (b == 0.0) & (step * signs < 0.0)
    if lam > 0.0 and against.any():
        signs[against] = 0.0
        return False, False
    if _move(b, step, 1.0, lam):
        return True, False
    if not held.size:
        return False, True
    # Each held column k has the line e_k - G_FF^-1 G_Fk, along which F stays
    # solved; with F solved, its slope is column k's KKT residual.
    lines = np.zeros((len(b), len(held)))
    lines[free] = -(face.inv @ gram[np.ix_(free, held)])
    lines[held, np.arange(len(held))] = 1.0
    slopes = (g - gram @ step) @ lines - lam * (signs @ lines)
    i = int(np.abs(slopes).argmax())
    k, line, slope = held[i], lines[:, i], slopes[i]
    # A slope within the rounding of the gradient c - G b at b cannot be told
    # from zero, and moving by it along a line the fit barely sees only grows b.
    noise = np.finfo(float).eps * (np.abs(gram) @ (np.abs(b) + np.abs(step))) @ np.abs(line)
    if not abs(slope) > max(kkt_tol, noise):
        return False, True
    if lam > 0.0 and b[k] == 0.0 and slope * signs[k] < 0.0:
        signs[k] = 0.0
        return False, False
    # On the line the objective is -slope * t + curv * t^2 / 2.  The
    # curvature is taken from the data: the Gram's Schur complement
    # G_kk - G_kF w is here mostly cancellation.
    fit_line = line @ XT
    curv = fit_line @ fit_line / XT.shape[1]
    return _move(b, np.sign(slope) * line, abs(slope) / curv if curv > 0.0 else np.inf, lam), False


def _move(b, step, t_max, lam):
    """b += t * step for the largest t <= t_max before a coefficient changes
    sign; one that reaches zero is set to exactly zero.  Returns whether one did.
    With lam == 0 the objective has no kinks, and a sign may change."""
    t, edge = t_max, None
    if lam > 0.0:
        shrink = (step * b < 0.0).nonzero()[0]
        if shrink.size:
            reach = -b[shrink] / step[shrink]
            i = int(reach.argmin())
            if reach[i] <= t_max:
                t, edge = reach[i], shrink[i]
    if not np.isfinite(t):
        return False
    step = t * step
    if edge is not None:
        step[edge] = -b[edge]
    b += step
    return edge is not None


def kkt_violations(g, b, live, lam):
    """Largest KKT violations (active, inactive) of b, given the gradient
    g = X'(y - X b)/n: |g_j - lam * sign(b_j)| over live nonzero
    coefficients, and |g_j| - lam, floored at zero, over live zero ones;
    ``live`` masks the columns that are not inert."""
    active, inactive = live & (b != 0.0), live & (b == 0.0)
    return (float(np.abs(g[active] - lam * np.sign(b[active])).max(initial=0.0)),
            float((np.abs(g[inactive]) - lam).max(initial=0.0)))
