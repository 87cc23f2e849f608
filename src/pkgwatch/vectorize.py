"""Change vectors: feature deltas between consecutive versions, encoded
numerically for each classifier family.

Numeric encoding (17 columns, in order): the ten feature deltas of
FEATURE_FIELDS, ``time_since_prev``, then six one-hot update-type
indicators (major, minor, patch, prerelease, build, first).

Boolean encoding (14 columns): the eight count deltas collapsed to
1-if-changed, plus the six update-type indicators; entropy mean/std and
time are omitted because they are not Boolean-representable.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import InconsistentFirstVersion
from .features import FEATURE_FIELDS, FeatureVector
from .versioning import UPDATE_TYPE_ORDER, UpdateType

MALICIOUS = "malicious"
BENIGN = "benign"

COUNT_FIELDS = FEATURE_FIELDS[:8]

NUMERIC_SCHEMA: tuple[str, ...] = (
    FEATURE_FIELDS
    + ("time_since_prev",)
    + tuple(f"update_{t.value}" for t in UPDATE_TYPE_ORDER)
)

BOOLEAN_SCHEMA: tuple[str, ...] = (
    COUNT_FIELDS + tuple(f"update_{t.value}" for t in UPDATE_TYPE_ORDER)
)


def check_label(label):
    """Return `label` if a ChangeVector may carry it; raise ValueError if not."""
    if label not in (None, MALICIOUS, BENIGN):
        raise ValueError(f"unknown label: {label!r}")
    return label


@dataclass(frozen=True)
class EncodedRow:
    values: tuple[float, ...]
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.schema):
            raise ValueError("row length does not match schema")


@dataclass(frozen=True)
class ChangeVector:
    """Feature deltas plus update metadata for one package version."""

    package: str
    version: str
    deltas: tuple[float, ...]  # FEATURE_FIELDS order
    update_type: UpdateType
    time_since_prev: float
    label: str | None = None

    def __post_init__(self) -> None:
        if len(self.deltas) != len(FEATURE_FIELDS):
            raise ValueError("deltas must have one value per feature field")
        if self.time_since_prev < 0:
            raise ValueError("time_since_prev must be >= 0")
        check_label(self.label)

    def delta(self, field: str) -> float:
        return self.deltas[FEATURE_FIELDS.index(field)]

    def to_record(self) -> dict:
        record = {
            "package": self.package,
            "version": self.version,
            "update_type": self.update_type.value,
            "time_since_prev": self.time_since_prev,
            "deltas": dict(zip(FEATURE_FIELDS, self.deltas)),
        }
        if self.label is not None:
            record["label"] = self.label
        return record

    @classmethod
    def from_record(cls, record: dict) -> "ChangeVector":
        deltas = record["deltas"]
        return cls(
            package=record["package"],
            version=record["version"],
            deltas=tuple(float(deltas[name]) for name in FEATURE_FIELDS),
            update_type=UpdateType(record["update_type"]),
            time_since_prev=float(record["time_since_prev"]),
            label=record.get("label"),
        )


def build_change_vector(
    prev: FeatureVector | None,
    cur: FeatureVector,
    update_type: UpdateType,
    dt: float,
    package: str = "",
    version: str = "",
    label: str | None = None,
) -> ChangeVector:
    """Subtract consecutive feature vectors into a ChangeVector.

    First versions carry their raw feature values as deltas and zero
    elapsed time; prev must be absent exactly when update_type is FIRST.
    """
    is_first = update_type is UpdateType.FIRST
    if is_first and prev is not None:
        raise InconsistentFirstVersion("first version cannot have a predecessor")
    if not is_first and prev is None:
        raise InconsistentFirstVersion("non-first update requires a predecessor")
    if is_first and dt != 0:
        raise InconsistentFirstVersion("first version must have dt == 0")

    cur_values = cur.as_tuple()
    if prev is None:
        deltas = cur_values
    else:
        prev_values = prev.as_tuple()
        deltas = tuple(c - p for c, p in zip(cur_values, prev_values))
    return ChangeVector(
        package=package,
        version=version,
        deltas=deltas,
        update_type=update_type,
        time_since_prev=float(dt),
        label=label,
    )


def _one_hot(update_type: UpdateType) -> tuple[float, ...]:
    return tuple(1.0 if t is update_type else 0.0 for t in UPDATE_TYPE_ORDER)


def encode(vec: ChangeVector) -> EncodedRow:
    """Full numeric encoding for the tree and SVM."""
    values = vec.deltas + (vec.time_since_prev,) + _one_hot(vec.update_type)
    return EncodedRow(values=values, schema=NUMERIC_SCHEMA)


_deltas_of = operator.itemgetter(*FEATURE_FIELDS)
_ONE_HOT = {t.value: list(_one_hot(t)) for t in UPDATE_TYPE_ORDER}


def encode_record(record: dict) -> list[float]:
    """`encode` of the vector a `ChangeVector.to_record` record holds,
    checked as `ChangeVector.from_record` checks it, without building it."""
    row = list(map(float, _deltas_of(record["deltas"])))
    elapsed = float(record["time_since_prev"])
    if elapsed < 0:
        raise ValueError("time_since_prev must be >= 0")
    one_hot = _ONE_HOT.get(record["update_type"])
    if one_hot is None:
        raise ValueError(f"unknown update type: {record['update_type']!r}")
    check_label(record.get("label"))
    row.append(elapsed)
    return row + one_hot


def decode(row: list[float], package: str, version: str,
           label: str | None = None) -> ChangeVector:
    """The ChangeVector whose `encode` is `row`."""
    n = len(FEATURE_FIELDS)
    return ChangeVector(
        package=package,
        version=version,
        deltas=tuple(row[:n]),
        update_type=UPDATE_TYPE_ORDER[row[n + 1:].index(1.0)],
        time_since_prev=row[n],
        label=label,
    )


def encode_boolean(vec: ChangeVector) -> EncodedRow:
    """Boolean encoding for Bernoulli Naive Bayes (1 iff the delta is nonzero)."""
    bools = tuple(1.0 if d != 0 else 0.0 for d in vec.deltas[:8])
    return EncodedRow(values=bools + _one_hot(vec.update_type), schema=BOOLEAN_SCHEMA)


def encode_dataset(vectors: Iterable[ChangeVector]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Stack numeric encodings into a 2-D float array plus its schema."""
    rows = [encode(v).values for v in vectors]
    if not rows:
        return np.zeros((0, len(NUMERIC_SCHEMA))), NUMERIC_SCHEMA
    return np.asarray(rows, dtype=float), NUMERIC_SCHEMA


def booleanize_rows(X: np.ndarray, schema: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Derive the Boolean encoding from numerically encoded rows."""
    if tuple(schema) != NUMERIC_SCHEMA:
        raise ValueError("expected rows in the numeric schema")
    X = np.asarray(X, dtype=float)
    count_idx = [schema.index(f) for f in COUNT_FIELDS]
    onehot_idx = [schema.index(f"update_{t.value}") for t in UPDATE_TYPE_ORDER]
    bools = (X[:, count_idx] != 0).astype(float)
    return np.hstack([bools, X[:, onehot_idx]]), BOOLEAN_SCHEMA


DATASET_FORMAT = "pkgwatch-change-vectors"


def write_vectors(path: str | Path, vectors: Iterable[ChangeVector]) -> None:
    """One JSON record per line, preceded by a self-describing header."""
    header = {"format": DATASET_FORMAT, "fields": list(FEATURE_FIELDS)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for vec in vectors:
            fh.write(json.dumps(vec.to_record(), sort_keys=True) + "\n")


def read_vectors(path: str | Path) -> list[ChangeVector]:
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            return []
        header = json.loads(header_line)
        if header.get("format") != DATASET_FORMAT:
            raise ValueError(f"not a change-vector dataset: {path}")
        return [ChangeVector.from_record(json.loads(line)) for line in fh if line.strip()]
