"""Binary decision tree grown greedily on information gain.

Splits are ``x[column] <= threshold`` with thresholds at midpoints of
adjacent observed values. Ties among equal-gain candidates go to the
lowest column index, then the lowest threshold; leaf ties go to the
malicious class. The tree grows to purity (no depth cap, one sample per
leaf), matching classifiers trained on small, imbalanced security corpora
where recall on rare positives matters. The fitted tree `root_` is the
node document its model file stores: a leaf is {"leaf": label, "counts":
[benign, malicious]}, a split {"column", "threshold", "counts", "left",
"right"}, and a row with x[column] <= threshold goes left.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import EmptyDataset
from ..vectorize import BENIGN, MALICIOUS
from .base import check_labels, check_matrix, labels_to_binary, stored_array


def _checked(node: Any, n_features: int) -> dict[str, Any]:
    """A fresh copy of the stored subtree `node`, checked to score rows of
    `n_features` columns."""
    if not isinstance(node, dict):
        raise ValueError("a tree node is not a JSON object")
    if "leaf" in node:
        if node["leaf"] not in (MALICIOUS, BENIGN):
            raise ValueError(f"leaf label {node['leaf']!r} is not malicious or benign")
        return {"leaf": node["leaf"], "counts": list(node["counts"])}
    column = node["column"]
    if type(column) is not int or not 0 <= column < n_features:
        raise ValueError(f"split column {column!r} is not in [0, {n_features})")
    return {
        "column": column,
        "threshold": float(stored_array(node["threshold"], (), "threshold")),
        "counts": list(node["counts"]),
        "left": _checked(node["left"], n_features),
        "right": _checked(node["right"], n_features),
    }


def _count_nodes(node: dict[str, Any]) -> int:
    return 1 if "leaf" in node else 1 + _count_nodes(node["left"]) + _count_nodes(node["right"])


def _entropy_from_counts(n_mal: np.ndarray, n: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        p = n_mal / n
        q = 1.0 - p
        h = -(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
              + np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0))
    return np.where(n > 0, h, 0.0)


class DecisionTreeClassifier:
    """Greedy information-gain tree over {malicious, benign} labels."""

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = check_matrix(X)
        if X.shape[0] == 0:
            raise EmptyDataset("decision tree requires at least one row")
        y01 = labels_to_binary(check_labels(y, X.shape[0]))
        self.n_features_ = X.shape[1]
        self.root_ = self._build(X, y01, np.arange(X.shape[0]))
        self.node_count_ = _count_nodes(self.root_)
        return self

    def _leaf(self, y01: np.ndarray, idx: np.ndarray) -> dict[str, Any]:
        n_mal = int(y01[idx].sum())
        n_ben = len(idx) - n_mal
        label = MALICIOUS if n_mal >= n_ben else BENIGN  # tie goes malicious
        return {"leaf": label, "counts": [n_ben, n_mal]}

    def _best_split(
        self, X: np.ndarray, y01: np.ndarray, idx: np.ndarray
    ) -> tuple[int, float, int, np.ndarray] | None:
        """Maximize gain; returns (column, threshold, boundary, order) or None.

        Gains are computed from integer class counts only, so splits that
        induce the same label partition produce bitwise-equal gains and
        the column/threshold tie-break is deterministic.
        """
        n = len(idx)
        y_node = y01[idx]
        total_mal = int(y_node.sum())
        h_parent = _entropy_from_counts(np.array([total_mal]), np.array([n]))[0]
        best: tuple[float, int, float, int, np.ndarray] | None = None

        for col in range(X.shape[1]):
            values = X[idx, col]
            order = np.argsort(values, kind="stable")
            sv = values[order]
            cum_mal = np.cumsum(y_node[order])
            # Candidate boundaries sit between distinct adjacent values.
            boundary = np.nonzero(sv[:-1] < sv[1:])[0]
            if len(boundary) == 0:
                continue
            n_left = boundary + 1
            mal_left = cum_mal[boundary]
            n_right = n - n_left
            mal_right = total_mal - mal_left
            gains = (
                h_parent
                - (n_left / n) * _entropy_from_counts(mal_left, n_left)
                - (n_right / n) * _entropy_from_counts(mal_right, n_right)
            )
            pos = int(np.argmax(gains))  # first max -> lowest threshold
            gain = float(gains[pos])
            if best is None or gain > best[0]:
                b = int(boundary[pos])
                lo, hi = float(sv[b]), float(sv[b + 1])
                threshold = (lo + hi) / 2.0
                if not lo <= threshold < hi:  # float-adjacent values
                    threshold = lo
                best = (gain, col, threshold, b, order)

        if best is None:
            return None
        _, col, threshold, b, order = best
        return col, threshold, b, order

    def _build(self, X: np.ndarray, y01: np.ndarray, idx: np.ndarray) -> dict[str, Any]:
        n_mal = int(y01[idx].sum())
        if n_mal == 0 or n_mal == len(idx):  # pure
            return self._leaf(y01, idx)

        found = self._best_split(X, y01, idx)
        if found is None:  # all rows identical in every column
            return self._leaf(y01, idx)
        col, threshold, boundary, order = found
        # Split even at zero gain: any valid split shrinks both sides, so
        # consistent data still reaches pure leaves (e.g. XOR-shaped data).
        left_idx = idx[order[: boundary + 1]]
        right_idx = idx[order[boundary + 1 :]]
        return {
            "column": col,
            "threshold": threshold,
            "counts": [len(idx) - n_mal, n_mal],
            "left": self._build(X, y01, left_idx),
            "right": self._build(X, y01, right_idx),
        }

    def predict(self, X) -> np.ndarray:
        X = check_matrix(X, n_features=self.n_features_)
        out = []
        for row in X:
            node = self.root_
            while "leaf" not in node:
                node = node["left"] if row[node["column"]] <= node["threshold"] else node["right"]
            out.append(node["leaf"])
        return np.asarray(out, dtype=object)

    def to_dict(self) -> dict[str, Any]:
        # The file format keeps the parameters of earlier versions, which
        # always grew the tree to purity.
        return {"params": {"max_depth": None, "min_samples_leaf": 1}, "root": self.root_}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "DecisionTreeClassifier":
        model = cls()
        model.n_features_ = doc["n_features"]
        model.root_ = _checked(doc["root"], model.n_features_)
        model.node_count_ = _count_nodes(model.root_)
        return model
