"""Input validation shared by the three estimators.

Each estimator's ``fit`` returns ``self`` and stores what it learned in
attributes with a trailing underscore. The estimators know nothing of
column names: `evaluation.MODELS` says which columns each model reads,
and `serialize` checks a model file against them when it is loaded.
Each estimator's ``from_dict`` checks the arrays it reads from a file
against the file's column count, so a file that loads also scores.
"""

from __future__ import annotations

import numpy as np

from ..errors import SchemaMismatch
from ..vectorize import BENIGN, MALICIOUS


def check_matrix(X, n_features: int | None = None) -> np.ndarray:
    """Validate a 2-D finite float matrix; 1-D input becomes a single row."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {X.ndim} dimensions")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains NaN or infinite values")
    if n_features is not None and X.shape[1] != n_features:
        raise SchemaMismatch(
            f"expected {n_features} columns, got {X.shape[1]}"
        )
    return X


def check_labels(y, n_rows: int) -> np.ndarray:
    """Validate labels as an array of {malicious, benign} strings."""
    y = np.asarray(y, dtype=object)
    if y.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if len(y) != n_rows:
        raise ValueError(f"{n_rows} rows but {len(y)} labels")
    known = (y == MALICIOUS) | (y == BENIGN)
    if not known.all():
        raise ValueError(f"unknown labels: {sorted(map(str, set(y[~known])))}")
    return y


def labels_to_binary(y: np.ndarray) -> np.ndarray:
    """malicious -> 1, benign -> 0."""
    return (y == MALICIOUS).astype(int)


def stored_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A model file's `name` entry as a finite float array of `shape`."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not an array of numbers") from exc
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, not {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds NaN or infinite values")
    return array
