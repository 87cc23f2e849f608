"""Versioned, self-describing model files (JSON documents).

A file names its model's kind and records the columns the model reads
(`schema`, and their count `n_features`), both taken from
`evaluation.MODELS`. `load_model` accepts a file only in its kind's slot,
only with exactly that kind's columns, and only with arrays that fit them
(each class's `from_dict` checks its own), so a misplaced, mislabeled or
damaged file fails at load rather than when it scores.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from ..errors import SchemaMismatch
from .evaluation import MODELS

MODEL_FORMAT = "pkgwatch-model"
MODEL_FORMAT_VERSION = 1


def save_model(model: Any, path: str | Path, metadata: dict[str, Any] | None = None) -> None:
    kind = next((k for k, (cls, _) in MODELS.items() if type(model) is cls), None)
    if kind is None:
        raise TypeError(f"not a serializable model: {type(model).__name__}")
    schema = MODELS[kind][1]
    if model.n_features_ != len(schema):
        raise SchemaMismatch(f"a {kind} model reads {len(schema)} columns, "
                             f"this one was fitted on {model.n_features_}")
    state = model.to_dict()
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "kind": kind,
        "model": {"params": state.pop("params"), "schema": list(schema),
                  "n_features": len(schema), **state},
        "metadata": {
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            **(metadata or {}),
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_model(path: str | Path, kind: str, metadata: dict[str, Any] | None = None) -> Any:
    """The `kind` model stored at `path`; ValueError ``<path>: <reason>``
    for a file that is not JSON or is nested too deeply, of another kind,
    with a missing field, a field of the wrong type or arrays that do not fit
    its columns, or whose metadata does not hold each item of `metadata`;
    SchemaMismatch for one whose columns are not `kind`'s."""
    cls, schema = MODELS[kind]
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError("not a model file")
        if doc.get("kind") != kind:
            raise ValueError(f"holds a {doc.get('kind')!r} model, not a {kind!r} one")
        stored = doc.get("metadata") if isinstance(doc.get("metadata"), dict) else {}
        for key, value in (metadata or {}).items():
            if stored.get(key) != value:
                raise ValueError(f"{key} is {stored.get(key)!r}, not {value!r}")
        body = doc["model"]
        if not isinstance(body, dict):
            raise ValueError("model is not a JSON object")
        if body.get("schema") != list(schema) or body.get("n_features") != len(schema):
            raise SchemaMismatch(f"{path}: columns do not match those a {kind} model reads")
        return cls.from_dict(body)
    # RecursionError: nesting deeper than the JSON decoder's recursion limit.
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {reason}") from exc
