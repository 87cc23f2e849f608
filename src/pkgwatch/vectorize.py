"""Change vectors: feature deltas between consecutive versions, and the
one numeric row every classifier is fed from.

Numeric encoding (17 columns, NUMERIC_SCHEMA order): the ten feature
deltas of FEATURE_FIELDS, ``time_since_prev``, then six one-hot
update-type indicators (major, minor, patch, prerelease, build, first).
`encode` gives it for a vector and `encode_record` for a stored record.

Boolean encoding (14 columns, BOOLEAN_SCHEMA order), for Naive Bayes:
`booleanize_rows` derives it from numeric rows, the eight count deltas
collapsed to 1-if-changed plus the six update-type indicators; entropy
mean/std and time are omitted because they are not Boolean-representable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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
        if not all(map(math.isfinite, (*self.deltas, self.time_since_prev))):
            raise ValueError("deltas and time_since_prev must be finite numbers")
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


def encode(vec: ChangeVector) -> tuple[float, ...]:
    """The vector's numeric row, in NUMERIC_SCHEMA order."""
    return vec.deltas + (vec.time_since_prev,) + _one_hot(vec.update_type)


_deltas_of = operator.itemgetter(*FEATURE_FIELDS)
_ONE_HOT = {t.value: list(_one_hot(t)) for t in UPDATE_TYPE_ORDER}


def encode_record(record: dict) -> list[float]:
    """`encode` of the vector a `ChangeVector.to_record` record holds,
    checked as `ChangeVector.from_record` checks it, without building it,
    except that non-finite values pass: `CorpusStore` checks its rows for
    them in one batch."""
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


#: The NUMERIC_SCHEMA column each BOOLEAN_SCHEMA column is taken from.
_BOOLEAN_COLUMNS = [NUMERIC_SCHEMA.index(name) for name in BOOLEAN_SCHEMA]


def booleanize_rows(X: np.ndarray) -> np.ndarray:
    """The Boolean encoding of numeric rows: a count column is 1 iff its
    delta is nonzero; the update-type indicators are copied."""
    Xb = np.asarray(X, dtype=float)[:, _BOOLEAN_COLUMNS]
    Xb[:, :len(COUNT_FIELDS)] = Xb[:, :len(COUNT_FIELDS)] != 0
    return Xb
