"""Binary decision tree grown greedily on information gain.

Splits are ``x[column] <= threshold`` with thresholds at midpoints of
adjacent observed values. Ties among equal-gain candidates go to the
lowest column index, then the lowest threshold; leaf ties go to the
malicious class. The tree grows to purity (one sample per leaf, never
cut to a depth), matching classifiers trained on small, imbalanced
security corpora where recall on rare positives matters. A fit that
would place a node deeper than `MAX_DEPTH` raises ValueError rather than
meet Python's recursion limit.

The split search sorts each column's values at a node and counts the
malicious rows left of each boundary with `searchsorted` over the sorted
malicious values. It gathers a node's values one column at a time from
X rather than hold a transposed copy of X (12.2 MB at 90k rows of 17
columns), which would add to the peak memory of a retrain.

The fitted tree `root_` is the node document its model file stores: a
leaf is {"leaf": label, "counts": [benign, malicious]}, a split
{"column", "threshold", "counts", "left", "right"}, and a row with
x[column] <= threshold goes left.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import EmptyDataset
from ..vectorize import BENIGN, MALICIOUS
from .base import check_labels, check_matrix, labels_to_binary, stored_array

# The deepest a node may sit (the root is at depth 0). Building, saving and
# loading a tree each recurse once per level, so a deeper tree would meet
# Python's recursion limit; `fit` raises ValueError instead.
MAX_DEPTH = 800


def _counts(node: dict[str, Any]) -> list[int]:
    counts = node["counts"]
    if not (isinstance(counts, list) and len(counts) == 2
            and all(type(c) is int and c >= 0 for c in counts)):
        raise ValueError(f"counts {counts!r} are not two non-negative integers")
    return list(counts)


def _checked(node: Any, n_features: int) -> dict[str, Any]:
    """A fresh copy of the stored subtree `node`, checked to score rows of
    `n_features` columns."""
    if not isinstance(node, dict):
        raise ValueError("a tree node is not a JSON object")
    if "leaf" in node:
        if node["leaf"] not in (MALICIOUS, BENIGN):
            raise ValueError(f"leaf label {node['leaf']!r} is not malicious or benign")
        return {"leaf": node["leaf"], "counts": _counts(node)}
    column = node["column"]
    if type(column) is not int or not 0 <= column < n_features:
        raise ValueError(f"split column {column!r} is not in [0, {n_features})")
    threshold = float(stored_array(node["threshold"], (), "threshold"))
    counts = _counts(node)
    left, right = _checked(node["left"], n_features), _checked(node["right"], n_features)
    if counts != [a + b for a, b in zip(left["counts"], right["counts"])]:
        raise ValueError(f"split counts {counts} are not the sum of its children's")
    return {"column": column, "threshold": threshold, "counts": counts,
            "left": left, "right": right}


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
        mal = labels_to_binary(check_labels(y, X.shape[0])).astype(bool)
        self.n_features_ = X.shape[1]
        self.root_ = self._build(X, mal, np.arange(X.shape[0]), 0)
        self.node_count_ = _count_nodes(self.root_)
        return self

    def _leaf(self, mal: np.ndarray, idx: np.ndarray) -> dict[str, Any]:
        n_mal = int(np.count_nonzero(mal[idx]))
        n_ben = len(idx) - n_mal
        label = MALICIOUS if n_mal >= n_ben else BENIGN  # tie goes malicious
        return {"leaf": label, "counts": [n_ben, n_mal]}

    def _best_split(
        self, X: np.ndarray, mal: np.ndarray, idx: np.ndarray
    ) -> tuple[int, float] | None:
        """Maximize gain; returns (column, threshold) or None.

        Gains are computed from integer class counts only, so splits that
        induce the same label partition produce bitwise-equal gains and
        the column/threshold tie-break is deterministic. A count at a
        boundary between distinct values does not depend on the order of
        tied rows, so an unstable sort gives the same counts.
        """
        n = len(idx)
        mal_node = mal[idx]
        total_mal = int(np.count_nonzero(mal_node))
        h_parent = _entropy_from_counts(np.array([total_mal]), np.array([n]))[0]
        best: tuple[float, int, float] | None = None

        for col in range(X.shape[1]):
            values = X[idx, col]
            sv = np.sort(values)
            # Candidate boundaries sit between distinct adjacent values.
            boundary = np.flatnonzero(sv[:-1] < sv[1:])
            if len(boundary) == 0:
                continue
            n_left = boundary + 1
            mal_left = np.searchsorted(np.sort(values[mal_node]), sv[boundary], side="right")
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
                best = (gain, col, threshold)

        return None if best is None else best[1:]

    def _build(
        self, X: np.ndarray, mal: np.ndarray, idx: np.ndarray, depth: int
    ) -> dict[str, Any]:
        if depth > MAX_DEPTH:
            raise ValueError(
                f"decision tree would be deeper than its maximum depth {MAX_DEPTH}")
        n_mal = int(np.count_nonzero(mal[idx]))
        if n_mal == 0 or n_mal == len(idx):  # pure
            return self._leaf(mal, idx)

        found = self._best_split(X, mal, idx)
        if found is None:  # all rows identical in every column
            return self._leaf(mal, idx)
        col, threshold = found
        # Split even at zero gain: any valid split shrinks both sides, so
        # consistent data still reaches pure leaves (e.g. XOR-shaped data).
        goes_left = X[idx, col] <= threshold
        return {
            "column": col,
            "threshold": threshold,
            "counts": [len(idx) - n_mal, n_mal],
            "left": self._build(X, mal, idx[goes_left], depth + 1),
            "right": self._build(X, mal, idx[~goes_left], depth + 1),
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
