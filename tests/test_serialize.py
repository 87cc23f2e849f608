"""Model files: the committed store in tests/data/parent-models was written by
an earlier version of pkgwatch (file format 1), with the training rows and
the per-model predictions it was checked on in checks.json."""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from pkgwatch.classifiers import MODEL_IDS, predict_all, train_all
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
    for name in [f"{m}.json" for m in MODEL_IDS] + [ModelStore.MANIFEST]:
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


# case -> (file in the store, how it changes, what loading the store raises);
# a file name as the change copies that file over the target.
TAMPERED = {
    "reversed-schema": ("decision-tree.json", _reverse_schema, SchemaMismatch),
    "null-schema": ("decision-tree.json", _null_schema, SchemaMismatch),
    "n-features-disagrees": ("one-class-svm.json", _wrong_n_features, SchemaMismatch),
    "svm-in-tree-slot": ("decision-tree.json", "one-class-svm.json", ValueError),
    "nb-in-svm-slot": ("one-class-svm.json", "naive-bayes.json", ValueError),
    "not-an-object": ("naive-bayes.json", lambda doc: [doc], ValueError),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_model_store_rejects_tampered_files(tmp_path, case):
    target, change, error = TAMPERED[case]
    store = tmp_path / "models"
    shutil.copytree(STORE, store)
    if callable(change):
        doc = change(json.loads((store / target).read_text()))
        (store / target).write_text(json.dumps(doc, indent=1) + "\n")
    else:
        shutil.copyfile(STORE / change, store / target)
    with pytest.raises(error):
        ModelStore(store).load()

