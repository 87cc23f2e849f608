"""Linear one-class SVM trained on benign rows only.

Solves the standard nu-parameterized separating-hyperplane program

    minimize   0.5 * ||w||^2 + (1 / (nu * n)) * sum(xi_i) - rho
    subject to w . x_i >= rho - xi_i,  xi_i >= 0

via pairwise projected coordinate ascent on its dual:

    minimize   0.5 * a' K a
    subject to 0 <= a_i <= 1 / (nu * n),  sum(a) = 1

with the linear kernel K = Z Z'. Columns are scaled to unit variance
first (constant columns pass through unscaled); without scaling,
second-scale time deltas would dominate the inner products. Columns are
deliberately NOT mean-centered: this model separates the training cloud
from the origin, and centering makes the uniform coefficient vector
feasible with w = mean(Z) = 0, collapsing the decision function to zero
everywhere. A version is flagged when w . z - rho is strictly negative.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConvergenceFailure, TooFewSamples
from ..vectorize import BENIGN, MALICIOUS
from .base import check_matrix

#: Stopping tolerance on the maximal KKT violation.
TOL = 1e-8
#: Coordinate steps before `fit` gives up with ConvergenceFailure: the
#: bound on its running time.
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

        std = X.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        Z = X / self.scale_

        C = 1.0 / (self.nu * n)
        alpha = np.zeros(n)
        k = int(np.floor(self.nu * n))
        alpha[: min(k, n)] = C
        if k < n:
            alpha[k] = 1.0 - k * C

        w = Z.T @ alpha
        g = Z @ w  # gradient of the dual objective
        bound = C * 1e-9

        it = 0
        while True:
            up = alpha < C - bound      # can grow
            low = alpha > bound         # can shrink
            if not up.any() or not low.any():
                break
            i = int(np.flatnonzero(up)[np.argmin(g[up])])
            j = int(np.flatnonzero(low)[np.argmax(g[low])])
            violation = g[j] - g[i]
            if violation <= TOL:
                break
            if it >= MAX_ITER:
                raise ConvergenceFailure(f"no convergence after {MAX_ITER} coordinate steps")
            diff = Z[i] - Z[j]
            eta = float(diff @ diff)
            step = violation / eta if eta > 1e-12 else np.inf
            step = min(step, C - alpha[i], alpha[j])
            alpha[i] += step
            alpha[j] -= step
            w += step * diff
            g += step * (Z @ diff)
            it += 1

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
        model.n_features_ = doc["n_features"]
        model.scale_ = np.asarray(doc["scale"], dtype=float)
        model.coef_ = np.asarray(doc["coef"], dtype=float)
        model.rho_ = float(doc["rho"])
        return model
