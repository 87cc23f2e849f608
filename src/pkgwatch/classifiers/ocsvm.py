"""Linear one-class SVM trained on benign rows only.

Solves the standard nu-parameterized separating-hyperplane program

    minimize   0.5 * ||w||^2 + (1 / (nu * n)) * sum(xi_i) - rho
    subject to w . x_i >= rho - xi_i,  xi_i >= 0

via pairwise projected coordinate descent on its dual:

    minimize   0.5 * a' K a
    subject to 0 <= a_i <= 1 / (nu * n),  sum(a) = 1

with the linear kernel K = Z Z'. Columns are scaled to unit variance
first (constant columns pass through unscaled); without scaling,
second-scale time deltas would dominate the inner products. Columns are
deliberately NOT mean-centered: this model separates the training cloud
from the origin, and centering makes the uniform coefficient vector
feasible with w = mean(Z) = 0, collapsing the decision function to zero
everywhere. A version is flagged when w . z - rho is strictly negative.

The solver. Each step moves dual weight a between two rows: to i, the row
with the smallest gradient among those whose weight can grow, from j,
chosen among the rows whose weight can shrink and whose gradient is larger
than i's as the one whose pair step, clipped to the bounds, lowers the
objective most. This is the second-order working set selection of Fan,
Chen & Lin (JMLR 2005), scored by the gain of the clipped step as
Glasmachers & Igel (JMLR 2006) do. Because the kernel is linear, row t's
gradient is z_t . w: the solver keeps w (one entry per column), adds each
step's change to it, and computes the gradients from it afresh at every
step. So the stop test on a subset of rows and the check over all rows
read the same w, and no per-row gradient is kept that could drift. w is
the source of truth and is stored as coef_; it equals Z' alpha_ up to the
rounding of those updates, since it is never rebuilt from alpha_.

Shrinking (Joachims 1999, as LIBSVM does it). The steps run on an active
set of rows. Every SHRINK_EVERY steps it drops the rows that sit at a
bound and are no candidates to leave it: a row at 0 whose gradient is
above that of every row that can shrink, and a row at C below that of
every row that can grow. Active rows are compacted in place at the front
of the solver's own scaled matrix, with an index array back to the
original rows, so shrinking costs no copy of the matrix.

The full check. When the maximal violation on the active set (the largest
gradient among rows that can shrink minus the smallest among rows that
can grow) is at most TOL, the matrix is refilled, every row becomes
active again and the gradient of all rows is computed. The solver stops
only when the violation over all rows is at most TOL, and otherwise steps
on. So the result meets the same KKT condition as a solve without
shrinking, and MAX_ITER still bounds the run.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConvergenceFailure, TooFewSamples
from ..vectorize import BENIGN, MALICIOUS
from .base import check_matrix, stored_array

#: Stopping tolerance on the maximal KKT violation over all rows.
TOL = 1e-8
#: Coordinate steps before `fit` gives up with ConvergenceFailure: the
#: bound on its running time.
MAX_ITER = 1_000_000
#: Steps between two shrinks of the active set.
SHRINK_EVERY = 10
#: Rows moved per block when the active set is compacted.
_CHUNK = 4096


class LinearOneClassSvm:
    def __init__(self, nu: float = 0.001):
        self.nu = nu

    def fit(self, X) -> "LinearOneClassSvm":
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("nu must be in (0, 1]")
        X = check_matrix(X)
        n = X.shape[0]
        if n < 2:
            raise TooFewSamples("one-class SVM requires at least 2 rows")
        self.n_features_ = X.shape[1]

        std = X.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)

        C = 1.0 / (self.nu * n)
        alpha = np.zeros(n)
        k = int(np.floor(self.nu * n))
        alpha[: min(k, n)] = C
        if k < n:
            alpha[k] = 1.0 - k * C
        bound = C * 1e-9

        w, g, it = _solve(X, self.scale_, alpha, C, bound)
        self.alpha_ = alpha
        self.coef_ = w
        self.n_iter_ = it
        self.rho_ = self._solve_rho(alpha, g, C, bound)
        return self

    @staticmethod
    def _solve_rho(alpha: np.ndarray, g: np.ndarray, C: float, bound: float) -> float:
        free = (alpha > bound) & (alpha < C - bound)
        if free.any():
            # Free support vectors share one g value in exact arithmetic;
            # after finite-tolerance convergence they spread by ~TOL. Take
            # the low end so margin points are not misread as outliers
            # (nu stays an upper bound on the flagged fraction).
            return float(g[free].min())
        # No free support vectors: rho sits between the bound groups.
        at_c = alpha >= C - bound
        at_zero = alpha <= bound
        lo = g[at_c].max() if at_c.any() else None
        hi = g[at_zero].min() if at_zero.any() else None
        if lo is not None and hi is not None:
            return float((lo + hi) / 2.0)
        return float(lo if lo is not None else hi)

    def decision_function(self, X) -> np.ndarray:
        X = check_matrix(X, n_features=self.n_features_)
        return (X / self.scale_) @ self.coef_ - self.rho_

    def predict(self, X) -> np.ndarray:
        d = self.decision_function(X)
        # Flag strictly below the boundary; d == 0 stays benign.
        return np.asarray([MALICIOUS if v < 0 else BENIGN for v in d], dtype=object)

    def to_dict(self) -> dict[str, Any]:
        return {
            "params": {"nu": self.nu, "tol": TOL, "max_iter": MAX_ITER},
            "scale": self.scale_.tolist(),
            "coef": self.coef_.tolist(),
            "rho": self.rho_,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "LinearOneClassSvm":
        model = cls(nu=doc["params"]["nu"])
        model.n_features_ = n = doc["n_features"]
        model.scale_ = stored_array(doc["scale"], (n,), "scale")
        if not (model.scale_ > 0).all():
            raise ValueError("scale holds a value that is not positive")
        model.coef_ = stored_array(doc["coef"], (n,), "coef")
        model.rho_ = float(stored_array(doc["rho"], (), "rho"))
        return model


def _solve(X: np.ndarray, scale: np.ndarray, alpha: np.ndarray, C: float,
           bound: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Step `alpha` (updated in place) to the dual optimum on X / scale.

    Returns w, the gradient of every row in the original order, and the
    number of steps taken.
    """
    n = len(alpha)
    # Column-major, so that a product with w reads each column in one run.
    # Rows [0, m) are the active set; rows[t] is active row t's original row.
    Z = np.empty(X.shape, order="F")
    np.divide(X, scale, out=Z)
    w = Z.T @ alpha
    m = n
    rows = np.arange(n)
    up_bar, low_bar = _bars(alpha, C, bound)
    it = 0
    while True:
        # The gradient of the dual objective is g = Z w. g_low is g where a
        # row can shrink and -inf elsewhere; g_up is g where it can grow.
        g_up = Z[:m] @ w
        g_low = g_up - low_bar[:m]
        g_up += up_bar[:m]
        i = int(g_up.argmin())
        lo, hi = g_up[i], g_low.max()
        if hi - lo <= TOL:  # also when no row can grow or none can shrink
            if m == n:
                return w, Z @ w, it
            # Optimal on the active set: check every row.
            np.divide(X, scale, out=Z)
            m = n
            rows = np.arange(n)
            up_bar, low_bar = _bars(alpha, C, bound)
            continue
        if it >= MAX_ITER:
            raise ConvergenceFailure(f"no convergence after {MAX_ITER} coordinate steps")

        # Row i grows. Row j is the row that can shrink whose pair step
        # with i, clipped to the bounds, lowers the objective most.
        cand = np.flatnonzero(g_low > lo)
        diffs = Z[i] - Z[cand]
        etas = np.einsum("ij,ij->i", diffs, diffs)
        gaps = g_low[cand] - lo
        steps = np.minimum(gaps / np.maximum(etas, 1e-12), alpha[rows[cand]])
        np.minimum(steps, C - alpha[rows[i]], out=steps)
        k = int((steps * (gaps - 0.5 * etas * steps)).argmax())
        j = int(cand[k])
        alpha[rows[i]] += steps[k]
        alpha[rows[j]] -= steps[k]
        w += steps[k] * diffs[k]
        for t in (i, j):
            up_bar[t] = 0.0 if alpha[rows[t]] < C - bound else np.inf
            low_bar[t] = 0.0 if alpha[rows[t]] > bound else np.inf
        it += 1

        if it % SHRINK_EVERY == 0:
            # Keep a row unless it is at 0 above hi or at C below lo.
            keep = np.flatnonzero((g_up <= hi) | (g_low >= lo))
            if len(keep) < m:
                # Each block moves to rows below its own, so the rows that
                # later blocks read are not yet overwritten.
                for start in range(0, len(keep), _CHUNK):
                    block = keep[start:start + _CHUNK]
                    moved = slice(start, start + len(block))
                    Z[moved] = Z[block]
                    rows[moved] = rows[block]
                    up_bar[moved] = up_bar[block]
                    low_bar[moved] = low_bar[block]
                m = len(keep)


def _bars(alpha: np.ndarray, C: float, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """0 where a row can grow (can shrink), inf where it is at C (at 0)."""
    return (np.where(alpha < C - bound, 0.0, np.inf),
            np.where(alpha > bound, 0.0, np.inf))
