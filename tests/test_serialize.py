"""Model files: the committed store in tests/data/parent-models was written by
an earlier version of pkgwatch (file format 1), with the training rows and
the per-model predictions it was checked on in checks.json."""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from pkgwatch.classifiers import MODEL_IDS, MODEL_NB, MODEL_SVM, MODEL_TREE, predict_all, train_all
from pkgwatch.errors import SchemaMismatch
from pkgwatch.pipeline import ModelStore

STORE = Path(__file__).parent / "data" / "parent-models"
CHECKS = json.loads((STORE / "checks.json").read_text())


def _without_created(text: str) -> str:
    return re.sub(r'"created": "[^"]*"', '"created": ""', text)


def test_parent_store_predicts_as_when_written():
    models = ModelStore(STORE).load()
    assert set(models) == set(MODEL_IDS)
    for check in CHECKS["checks"]:
        assert predict_all(models, np.array(check["row"])) == check["predictions"]


def test_saved_files_match_parent_bytes(tmp_path):
    rows = np.array([t["row"] for t in CHECKS["training"]])
    labels = np.array([t["label"] for t in CHECKS["training"]], dtype=object)
    models, skipped = train_all(rows, labels, nu=CHECKS["nu"])
    assert not skipped
    ModelStore(tmp_path).save(models, CHECKS["corpus_hash"])
    for name in [f"{MODEL_TREE}.json", f"{MODEL_NB}.json", ModelStore.MANIFEST]:
        assert _without_created((tmp_path / name).read_text()) == \
               _without_created((STORE / name).read_text())
    # The one-class SVM's solver changed after the store was written: it
    # meets the same stopping tolerance, at other last digits of coef and rho.
    ours, parent = (json.loads((d / f"{MODEL_SVM}.json").read_text()) for d in (tmp_path, STORE))
    for doc in (ours, parent):
        doc["metadata"].pop("created")
    for key in ("coef", "rho"):
        assert np.abs(np.subtract(ours["model"].pop(key), parent["model"].pop(key))).max() <= 1e-7
    assert ours == parent


def test_loaded_store_saves_its_own_bytes(tmp_path):
    # Load, then save: each model writes back the document it was read from,
    # the tree's checked copy of its nodes included.
    manifest = json.loads((STORE / ModelStore.MANIFEST).read_text())
    ModelStore(tmp_path).save(ModelStore(STORE).load(), manifest["corpus_hash"])
    for name in [f"{model_id}.json" for model_id in MODEL_IDS] + [ModelStore.MANIFEST]:
        assert _without_created((tmp_path / name).read_text()) == \
               _without_created((STORE / name).read_text())


def _reverse_schema(doc):
    doc["model"]["schema"].reverse()
    return doc


def _null_schema(doc):
    doc["model"]["schema"] = None
    return doc


def _wrong_n_features(doc):
    doc["model"]["n_features"] -= 1
    return doc


def _model(doc):
    return doc["model"]


def _first_split(doc):
    return doc["model"]["root"]


def _first_leaf(doc):
    node = doc["model"]["root"]
    while "leaf" not in node:
        node = node["left"]
    return node


def _edit(find, key, value):
    """A change that sets `key` of the node `find` picks to `value`, or to
    what `value` makes of the current entry when it is callable."""
    def change(doc):
        node = find(doc)
        node[key] = value(node[key]) if callable(value) else value
        return doc
    return change


def _drop(find, key):
    """A change that removes `key` from the node `find` picks."""
    def change(doc):
        del find(doc)[key]
        return doc
    return change


NAN, INF = float("nan"), float("inf")

# case -> (file in the store, how it changes, what loading the store raises);
# a file name as the change copies that file over the target, and a change
# that returns a str writes that text.
TAMPERED = {
    "svm-coef-cut": ("one-class-svm.json", _edit(_model, "coef", lambda v: v[:5]), ValueError),
    "svm-scale-long": ("one-class-svm.json", _edit(_model, "scale", lambda v: v + [1.0]),
                       ValueError),
    "svm-coef-nan": ("one-class-svm.json", _edit(_model, "coef", lambda v: [NAN] + v[1:]),
                     ValueError),
    "svm-scale-inf": ("one-class-svm.json", _edit(_model, "scale", lambda v: v[:-1] + [INF]),
                      ValueError),
    "svm-rho-nan": ("one-class-svm.json", _edit(_model, "rho", NAN), ValueError),
    "nb-theta-one-row": ("naive-bayes.json", _edit(_model, "theta", lambda v: v[:1]), ValueError),
    "nb-theta-short-rows": ("naive-bayes.json",
                            _edit(_model, "theta", lambda v: [row[:-1] for row in v]), ValueError),
    "nb-theta-zero": ("naive-bayes.json",
                      _edit(_model, "theta", lambda v: [[0.0] + v[0][1:], v[1]]), ValueError),
    "nb-theta-one": ("naive-bayes.json",
                     _edit(_model, "theta", lambda v: [v[0], v[1][:-1] + [1.0]]), ValueError),
    "nb-prior-three": ("naive-bayes.json", _edit(_model, "class_prior", lambda v: v + [0.5]),
                       ValueError),
    "tree-column-past-end": ("decision-tree.json", _edit(_first_split, "column", 17),
                             ValueError),
    "tree-column-negative": ("decision-tree.json", _edit(_first_split, "column", -1),
                             ValueError),
    "tree-threshold-nan": ("decision-tree.json", _edit(_first_split, "threshold", NAN),
                           ValueError),
    "tree-leaf-label": ("decision-tree.json", _edit(_first_leaf, "leaf", "suspicious"),
                        ValueError),
    "reversed-schema": ("decision-tree.json", _reverse_schema, SchemaMismatch),
    "null-schema": ("decision-tree.json", _null_schema, SchemaMismatch),
    "n-features-disagrees": ("one-class-svm.json", _wrong_n_features, SchemaMismatch),
    "svm-in-tree-slot": ("decision-tree.json", "one-class-svm.json", ValueError),
    "nb-in-svm-slot": ("one-class-svm.json", "naive-bayes.json", ValueError),
    "not-an-object": ("naive-bayes.json", lambda doc: [doc], ValueError),
    "nb-truncated": ("naive-bayes.json", lambda doc: json.dumps(doc, indent=1)[:100], ValueError),
    "nested-too-deeply": ("naive-bayes.json", lambda doc: "[" * 100_000 + "]" * 100_000,
                          ValueError),
    "tree-counts-a-string": ("decision-tree.json", _edit(_first_leaf, "counts", "xy"), ValueError),
    "tree-counts-one": ("decision-tree.json", _edit(_first_leaf, "counts", [1]), ValueError),
    "tree-counts-negative-and-float": ("decision-tree.json",
                                       _edit(_first_leaf, "counts", [-5, 2.5]), ValueError),
    "tree-counts-a-bool": ("decision-tree.json", _edit(_first_leaf, "counts", [True, 0]),
                           ValueError),
    "tree-counts-an-object": ("decision-tree.json", _edit(_first_leaf, "counts", {"a": 1}),
                              ValueError),
    "tree-split-counts-not-the-children-sum": ("decision-tree.json",
                                               _edit(_first_split, "counts", [30, 13]),
                                               ValueError),
    "tree-node-without-left": ("decision-tree.json", _drop(_first_split, "left"), ValueError),
    "tree-node-a-list": ("decision-tree.json", _edit(_first_split, "left", []), ValueError),
    "svm-without-params": ("one-class-svm.json", _drop(_model, "params"), ValueError),
    "model-a-list": ("one-class-svm.json", _edit(lambda doc: doc, "model", []), ValueError),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_model_store_rejects_tampered_files(tmp_path, case):
    target, change, error = TAMPERED[case]
    store = tmp_path / "models"
    shutil.copytree(STORE, store)
    if callable(change):
        doc = change(json.loads((store / target).read_text()))
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=1) + "\n"
        (store / target).write_text(text)
    else:
        shutil.copyfile(STORE / change, store / target)
    with pytest.raises(error) as info:
        ModelStore(store).load()
    assert str(info.value).startswith(f"{store / target}: ")

