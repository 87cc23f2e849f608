"""Linear one-class SVM trained on benign rows only.

Solves the standard nu-parameterized separating-hyperplane program

    minimize   0.5 * ||w||^2 + (1 / (nu * n)) * sum(xi_i) - rho
    subject to w . x_i >= rho - xi_i,  xi_i >= 0

with Wolfe's minimum-norm-point algorithm on its dual:

    minimize   0.5 * a' K a
    subject to 0 <= a_i <= 1 / (nu * n),  sum(a) = 1

with the linear kernel K = Z Z'. Columns are scaled to unit variance
first (constant columns pass through unscaled); without scaling,
second-scale time deltas would dominate the inner products. Columns are
deliberately NOT mean-centered: this model separates the training cloud
from the origin, and centering makes the uniform coefficient vector
feasible with w = mean(Z) = 0, collapsing the decision function to zero
everywhere. A version is flagged when w . z - rho is strictly negative.

The solver. Since a' K a = ||Z' a||^2, the optimal w = Z' a is the point
of smallest norm in the polytope {Z' a : a feasible}, the "reduced convex
hull" of the rows (Bennett & Bredensteiner, ICML 2000). A linear function
g . a over the feasible set is minimized by a vertex: weight C = 1 / (nu
* n) on the K = floor(nu * n) rows with the smallest g and the rest of
the unit mass on the next one, so one argpartition finds it. Wolfe's
algorithm ("Finding the nearest point in a polytope", Math. Programming
1976) solves the problem exactly from that oracle. It keeps a corral of
vertices (each stored as its rows, all sharing the same weights) and w
as a convex combination of their points. Each iteration asks the oracle
for the vertex that minimizes g = Z w, adds it, and moves w to the
affine minimizer of the corral's points; while that minimizer has a
weight at or below 0, w moves toward it only until the first weight
reaches 0, and that vertex leaves the corral. The corral holds a few
affinely independent points (at most d + 1), so an iteration costs one
product with Z and one partition, however close the rows are. The affine
minimizer comes from a least-squares solve on the points' differences:
the Gram system of the points is too ill-conditioned on nearly collinear
rows. Every product with Z runs in numpy's own loops, not in BLAS, and so
does the one margin function, which gives fit its rho_ and
decision_function its scores: neither depends on the BLAS thread count,
and a training row scores exactly the margin that rho_ was set from.

The loop stops when the oracle's point p gives w . (w - p) <= TOL^2 *
max(1, w . w), so that no vertex lowers w . w any further, or when an
iteration no longer lowers w . w. alpha_ is the corral's combination of
vertices and coef_ is w. fit raises ConvergenceFailure unless the KKT
violation over all rows (the largest gradient among rows above 0 minus
the smallest among rows below C) is then at most TOL.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConvergenceFailure, TooFewSamples
from ..vectorize import BENIGN, MALICIOUS
from .base import check_matrix, stored_array

#: Stopping tolerance on the maximal KKT violation over all rows.
TOL = 1e-8
#: Iterations before `fit` gives up with ConvergenceFailure: the bound on
#: its running time.
MAX_ITER = 1_000_000


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

        # A constant column whose values are not exactly representable has a
        # std at rounding level, not 0: scaling by it would blow it up ~1e16.
        std = X.std(axis=0)
        varies = std > n * np.finfo(float).eps * np.abs(X).max(axis=0)
        self.scale_ = np.where(varies, std, 1.0)

        C = 1.0 / (self.nu * n)
        bound = C * 1e-9
        self.alpha_, self.coef_, self.n_iter_ = _solve(X, self.scale_, self.nu, C, bound)
        self.rho_ = self._solve_rho(self.alpha_, self._margins(X), C, bound)
        return self

    def _margins(self, X: np.ndarray) -> np.ndarray:
        """w . z per row z of X / scale; row-major, so a row sums alike in any X."""
        return np.einsum("ij,j->i", np.divide(X, self.scale_, order="C"), self.coef_)

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
        return self._margins(X) - self.rho_

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


def _solve(X: np.ndarray, scale: np.ndarray, nu: float, C: float,
           bound: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The dual optimum on X / scale: alpha, w and the number of
    iterations taken."""
    n = len(X)
    # Column-major, so that a product with w reads each column in one run.
    Z = np.empty(X.shape, order="F")
    np.divide(X, scale, out=Z)
    # Every vertex puts these weights on its rows: C on the k rows with the
    # smallest gradient and the rest of the unit mass on the next one.
    k = int(np.floor(nu * n))
    weights = np.full(min(k + 1, n), C)
    if k < n:
        weights[k] = 1.0 - k * C

    def vertex(g: np.ndarray) -> np.ndarray:
        # A copy: a slice would keep the whole n-row partition alive.
        return np.argpartition(g, len(weights) - 1)[:len(weights)].copy()

    def point(rows: np.ndarray) -> np.ndarray:
        return np.einsum("ij,i->j", Z[rows], weights)

    # The corral: its vertices' rows, their points P and convex weights lam.
    corral = [vertex(np.arange(n, dtype=float))]
    P = point(corral[0])[None, :]
    lam = np.ones(1)
    w = P[0]
    last = np.inf
    it = 0
    while True:
        ww = w @ w
        g = np.einsum("ij,j->i", Z, w)
        rows = vertex(g)
        p = point(rows)
        if ww >= last or ww - w @ p <= TOL**2 * max(1.0, ww):
            break
        if it >= MAX_ITER:
            raise ConvergenceFailure(f"no convergence after {MAX_ITER} iterations")
        it += 1
        last = ww
        corral.append(rows)
        P = np.vstack([P, p])
        lam = np.append(lam, 0.0)
        while True:
            # mu: the weights of the corral's affine minimizer.
            rest = np.linalg.lstsq((P[1:] - P[0]).T, -P[0], rcond=None)[0]
            mu = np.concatenate([[1.0 - rest.sum()], rest])
            if (mu > 0).all():
                lam = mu
                break
            # Move lam toward mu until the first weight reaches 0, and drop
            # that vertex. A weight that is 0 in both (a new vertex that
            # duplicates a point of the corral) gives a step of 0.
            out = mu <= 0
            steps = np.full(len(mu), np.inf)
            steps[out] = lam[out] / np.maximum(lam[out] - mu[out], np.finfo(float).tiny)
            j = int(steps.argmin())
            lam = np.maximum(lam + steps[j] * (mu - lam), 0.0)
            del corral[j]
            P = np.delete(P, j, axis=0)
            lam = np.delete(lam, j)
        w = lam @ P

    alpha = np.zeros(n)
    np.add.at(alpha, np.concatenate(corral), np.outer(lam, weights).ravel())
    violation = (g.max(where=alpha > bound, initial=-np.inf)
                 - g.min(where=alpha < C - bound, initial=np.inf))
    if violation > TOL:
        raise ConvergenceFailure(
            f"KKT violation {violation:.3g} above {TOL} after {it} iterations")
    return alpha, w, it
