"""Bernoulli Naive Bayes over Boolean-encoded change features.

Consumes only Boolean columns (the continuous entropy and time features
are omitted by the Boolean encoding). Laplace smoothing keeps every
per-class Bernoulli parameter strictly inside (0, 1), so unseen feature
combinations never zero out a posterior.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import EmptyDataset, SingleClassError
from ..vectorize import BENIGN, MALICIOUS
from .base import check_labels, check_matrix, labels_to_binary

CLASSES = (BENIGN, MALICIOUS)
#: Laplace smoothing: ALPHA pseudo-rows with each column 0 and ALPHA with it 1, per class.
ALPHA = 1.0


class BernoulliNaiveBayes:
    def fit(self, X, y) -> "BernoulliNaiveBayes":
        X = check_matrix(X)
        if X.shape[0] == 0:
            raise EmptyDataset("naive bayes requires at least one row")
        if not np.isin(X, (0.0, 1.0)).all():
            raise ValueError("naive bayes input must be Boolean (0/1) valued")
        y01 = labels_to_binary(check_labels(y, X.shape[0]))
        if len(np.unique(y01)) < 2:
            raise SingleClassError("training data must contain both classes")

        self.n_features_ = X.shape[1]
        n = X.shape[0]

        # theta_[c, j] = P(x_j = 1 | class c), rows ordered per CLASSES.
        theta = np.empty((2, X.shape[1]))
        priors = np.empty(2)
        for c, bit in ((0, 0), (1, 1)):
            mask = y01 == bit
            n_c = int(mask.sum())
            theta[c] = (X[mask].sum(axis=0) + ALPHA) / (n_c + 2.0 * ALPHA)
            priors[c] = n_c / n
        self.theta_ = theta
        self.class_prior_ = priors
        return self

    def predict_log_posterior(self, X) -> np.ndarray:
        """Unnormalized log-posteriors, one column per class in CLASSES order."""
        X = check_matrix(X, n_features=self.n_features_)
        log_theta = np.log(self.theta_)
        log_comp = np.log1p(-self.theta_)
        scores = X @ log_theta.T + (1.0 - X) @ log_comp.T
        return scores + np.log(self.class_prior_)

    def predict(self, X) -> np.ndarray:
        scores = self.predict_log_posterior(X)
        # Strict inequality: an exact tie stays benign.
        flags = scores[:, 1] > scores[:, 0]
        return np.asarray([MALICIOUS if f else BENIGN for f in flags], dtype=object)

    def to_dict(self) -> dict[str, Any]:
        return {
            "params": {"alpha": ALPHA},
            "class_prior": self.class_prior_.tolist(),
            "theta": self.theta_.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "BernoulliNaiveBayes":
        model = cls()
        model.n_features_ = doc["n_features"]
        model.class_prior_ = np.asarray(doc["class_prior"], dtype=float)
        model.theta_ = np.asarray(doc["theta"], dtype=float)
        return model
