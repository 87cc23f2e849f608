"""The model table, labeled datasets, metrics, and stratified k-fold
cross-validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TooFewSamples
from ..vectorize import (
    BENIGN,
    BOOLEAN_SCHEMA,
    MALICIOUS,
    NUMERIC_SCHEMA,
    ChangeVector,
    booleanize_rows,
    encode,
)
from .naive_bayes import BernoulliNaiveBayes
from .ocsvm import LinearOneClassSvm
from .tree import DecisionTreeClassifier

MODEL_TREE = "decision-tree"
MODEL_NB = "naive-bayes"
MODEL_SVM = "one-class-svm"
#: Each model's class and the columns it reads, in the order it reads them.
#: Training and scoring derive each model's input from its columns, and
#: model files are checked against them when loaded.
MODELS: dict[str, tuple[type, tuple[str, ...]]] = {
    MODEL_TREE: (DecisionTreeClassifier, NUMERIC_SCHEMA),
    MODEL_NB: (BernoulliNaiveBayes, BOOLEAN_SCHEMA),
    MODEL_SVM: (LinearOneClassSvm, NUMERIC_SCHEMA),
}
MODEL_IDS = tuple(MODELS)


def _model_input(model_id: str, X: np.ndarray) -> np.ndarray:
    """Numeric rows as `model_id` reads them: Boolean ones for Naive Bayes."""
    return booleanize_rows(X) if MODELS[model_id][1] is BOOLEAN_SCHEMA else X


@dataclass(frozen=True)
class LabeledDataset:
    """Rows in NUMERIC_SCHEMA order with parallel {malicious, benign} labels."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.labels):
            raise ValueError("rows and labels must have the same length")

    @classmethod
    def from_vectors(cls, vectors: list[ChangeVector]) -> "LabeledDataset":
        unlabeled = sum(v.label is None for v in vectors)
        if unlabeled:
            raise ValueError(f"{unlabeled} vectors carry no label")
        rows = np.array([encode(v) for v in vectors], dtype=float)
        labels = np.asarray([v.label for v in vectors], dtype=object)
        return cls(rows=rows.reshape(-1, len(NUMERIC_SCHEMA)), labels=labels)


@dataclass(frozen=True)
class Metrics:
    """Confusion counts with the flagged-none convention precision = 1.0."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 1.0

    @staticmethod
    def from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> "Metrics":
        t = np.asarray(y_true, dtype=object) == MALICIOUS
        p = np.asarray(y_pred, dtype=object) == MALICIOUS
        return Metrics(
            tp=int(np.sum(t & p)),
            fp=int(np.sum(~t & p)),
            tn=int(np.sum(~t & ~p)),
            fn=int(np.sum(t & ~p)),
        )

    def __add__(self, other: "Metrics") -> "Metrics":
        return Metrics(
            self.tp + other.tp,
            self.fp + other.fp,
            self.tn + other.tn,
            self.fn + other.fn,
        )


@dataclass(frozen=True)
class CrossValidationResult:
    """Per-fold metrics; precision/recall are averaged over folds."""

    folds: tuple[Metrics, ...]

    @property
    def precision(self) -> float:
        return float(np.mean([f.precision for f in self.folds]))

    @property
    def recall(self) -> float:
        return float(np.mean([f.recall for f in self.folds]))

    @property
    def totals(self) -> Metrics:
        total = Metrics(0, 0, 0, 0)
        for f in self.folds:
            total = total + f
        return total


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Class-ratio-preserving folds: per-class shuffled indices dealt round-robin.

    Fold class counts differ by at most one sample from perfect proportion.
    """
    labels = np.asarray(labels, dtype=object)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (MALICIOUS, BENIGN):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise TooFewSamples(
                f"class {cls!r} has {len(idx)} samples, fewer than k={k}"
            )
        idx = rng.permutation(idx)
        for f in range(k):
            folds[f].extend(idx[f::k].tolist())
    return [np.asarray(sorted(f), dtype=int) for f in folds]


def train_all(
    X: np.ndarray,
    y: np.ndarray,
    nu: float = 0.001,
) -> tuple[dict[str, object], dict[str, str]]:
    """Train the three models on labeled rows in NUMERIC_SCHEMA order.

    The tree and SVM consume the full numeric rows (the SVM sees only the
    benign ones); Naive Bayes consumes the derived Boolean encoding.
    Models whose preconditions fail are skipped with a reason: the tree
    and NB need both classes, the SVM at least 2 benign rows. Returns
    (models, skipped); TooFewSamples when no model can train.
    """
    y = np.asarray(y, dtype=object)
    n_mal = int(np.sum(y == MALICIOUS))
    n_ben = int(np.sum(y == BENIGN))
    models: dict[str, object] = {}
    skipped: dict[str, str] = {}
    if n_mal and n_ben:
        for model_id in (MODEL_TREE, MODEL_NB):
            cls, _ = MODELS[model_id]
            models[model_id] = cls().fit(_model_input(model_id, X), y)
    else:
        reason = "corpus does not contain both classes"
        skipped[MODEL_TREE] = reason
        skipped[MODEL_NB] = reason

    if n_ben >= 2:
        models[MODEL_SVM] = LinearOneClassSvm(nu=nu).fit(X[y == BENIGN])
    else:
        skipped[MODEL_SVM] = "one-class SVM needs at least 2 benign rows"

    if not models:
        raise TooFewSamples("corpus cannot train any model: " + "; ".join(
            f"{k}: {v}" for k, v in skipped.items()
        ))
    return models, skipped


def _predict_rows(models: dict[str, object], X: np.ndarray) -> dict[str, np.ndarray]:
    """Per-model predictions for numerically encoded rows."""
    return {
        model_id: model.predict(_model_input(model_id, X))
        for model_id, model in models.items()
    }


def predict_all(models: dict[str, object], row: np.ndarray) -> dict[str, str]:
    """Per-model verdicts for one numerically encoded row.

    Works with partial model sets (a zero-malicious corpus trains only
    the one-class SVM).
    """
    row = np.asarray(row, dtype=float).reshape(1, -1)
    return {model_id: str(pred[0]) for model_id, pred in _predict_rows(models, row).items()}


def cross_validate(
    data: LabeledDataset,
    k: int = 10,
    seed: int = 0,
    nu: float = 0.001,
) -> dict[str, CrossValidationResult]:
    """Stratified k-fold cross-validation of all three models."""
    folds = stratified_folds(data.labels, k, seed)
    all_idx = np.arange(len(data.labels))
    per_model: dict[str, list[Metrics]] = {m: [] for m in MODEL_IDS}
    for test_idx in folds:
        train_mask = ~np.isin(all_idx, test_idx)
        X_train, y_train = data.rows[train_mask], data.labels[train_mask]
        X_test, y_test = data.rows[test_idx], data.labels[test_idx]
        models, skipped = train_all(X_train, y_train, nu=nu)
        if skipped:
            raise TooFewSamples(f"a training fold cannot train: {skipped}")
        for model_id, y_pred in _predict_rows(models, X_test).items():
            per_model[model_id].append(Metrics.from_predictions(y_test, y_pred))
    return {m: CrossValidationResult(folds=tuple(f)) for m, f in per_model.items()}


def calibrate_nu(
    data: LabeledDataset,
    nus: tuple[float, ...] = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1),
    k: int = 10,
    seed: int = 0,
) -> list[tuple[float, CrossValidationResult]]:
    """Sweep the SVM nu parameter, reporting cross-validated precision/recall."""
    out = []
    for nu in nus:
        result = cross_validate(data, k=k, seed=seed, nu=nu)
        out.append((nu, result[MODEL_SVM]))
    return out
