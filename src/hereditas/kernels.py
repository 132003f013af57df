"""Coordinate-descent sweep for the lasso, in numpy.

``selectors`` looks ``cd_solve`` up on this module at call time
(``kernels.cd_solve``), so a wrapper bound here, such as the per-layer
tracer in ``perfbench/``, sees every call.
"""

from __future__ import annotations

import numpy as np

# Names the solver; recorded by the benchmark's environment probe.
KERNEL = "python"


def _soft(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def cd_solve(XT, r, b, col_nrm2, lam, tol, kkt_tol, max_sweeps):
    """Cyclic coordinate descent on (1/2n)||r||^2 + lam*||b||_1.

    Parameters
    ----------
    XT : (m, n) array, columns of the design stored as contiguous rows.
    r : (n,) residual y - X b for the warm-start b; updated in place.
    b : (m,) warm-start coefficients; updated in place.
    col_nrm2 : (m,) column norms <x_j, x_j>/n; entries <= 0 mark inert
        columns that are skipped (their coefficient stays put).
    lam, tol, kkt_tol : penalty, max-coefficient-change threshold, and the
        slack allowed in the KKT certificate required to declare convergence.
    max_sweeps : hard cap on full sweeps.

    Returns
    -------
    (sweeps, converged) : sweeps actually run, and whether both the
    coefficient-change and the KKT criteria were met.
    """
    m, n = XT.shape
    inv_n = 1.0 / n
    sweeps = 0
    converged = False
    for _ in range(max_sweeps):
        sweeps += 1
        max_delta = 0.0
        for j in range(m):
            vj = col_nrm2[j]
            if vj <= 0.0:
                continue
            g = np.dot(XT[j], r) * inv_n
            b_new = _soft(g + vj * b[j], lam) / vj
            d = b_new - b[j]
            if d != 0.0:
                r -= d * XT[j]
                b[j] = b_new
            if abs(d) > max_delta:
                max_delta = abs(d)
        if max_delta <= tol and _kkt_ok(XT, r, b, col_nrm2, lam, kkt_tol, inv_n):
            converged = True
            break
    return sweeps, converged


def _kkt_ok(XT, r, b, col_nrm2, lam, kkt_tol, inv_n):
    for j in range(XT.shape[0]):
        if col_nrm2[j] <= 0.0:
            continue
        g = np.dot(XT[j], r) * inv_n
        if b[j] != 0.0:
            if abs(g - lam * np.sign(b[j])) > kkt_tol:
                return False
        elif abs(g) > lam + kkt_tol:
            return False
    return True
