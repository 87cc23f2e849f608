import math
import re

import numpy as np
import pytest

from oracles import nb_log_posterior
from pkgwatch.classifiers import (
    MODEL_NB,
    BernoulliNaiveBayes,
    DecisionTreeClassifier,
    load_model,
    save_model,
)
from pkgwatch.errors import SchemaMismatch, SingleClassError

M, B = "malicious", "benign"


def test_theta_smoothing_two_positive_rows():
    # Two malicious rows with the column always 1: theta = (2+1)/(2+2) = 3/4.
    X = np.array([[1.0], [1.0], [0.0], [0.0]])
    y = np.array([M, M, B, B], dtype=object)
    model = BernoulliNaiveBayes().fit(X, y)
    assert model.theta_[1, 0] == pytest.approx(3 / 4)
    assert model.theta_[0, 0] == pytest.approx(1 / 4)


def test_smoothing_keeps_theta_off_the_boundary():
    X = np.array([[0.0], [0.0], [0.0], [1.0]])
    y = np.array([B, B, B, M], dtype=object)
    model = BernoulliNaiveBayes().fit(X, y)
    # Constant-0 column in the benign class: theta = 1/(3+2).
    assert model.theta_[0, 0] == pytest.approx(1 / 5)
    assert np.all(model.theta_ > 0) and np.all(model.theta_ < 1)


def test_hand_computed_posteriors_four_rows():
    X = np.array([
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 0.0],
        [0.0, 1.0],
    ])
    y = np.array([M, M, B, B], dtype=object)
    model = BernoulliNaiveBayes().fit(X, y)
    x = np.array([1.0, 1.0])

    # By hand with alpha=1: priors 1/2 each.
    # malicious: theta = ((2+1)/4, (1+1)/4) = (3/4, 1/2)
    # benign:    theta = ((0+1)/4, (1+1)/4) = (1/4, 1/2)
    expected_mal = math.log(0.5) + math.log(3 / 4) + math.log(1 / 2)
    expected_ben = math.log(0.5) + math.log(1 / 4) + math.log(1 / 2)
    scores = model.predict_log_posterior(x)
    assert scores[0, 1] == pytest.approx(expected_mal, abs=1e-9)
    assert scores[0, 0] == pytest.approx(expected_ben, abs=1e-9)
    assert model.predict(x)[0] == M


def test_posteriors_match_direct_formula_random():
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(4, 33))
        d = int(rng.integers(1, 8))
        X = rng.integers(0, 2, size=(n, d)).astype(float)
        y01 = rng.integers(0, 2, size=n)
        if len(set(y01.tolist())) < 2:
            continue
        y = np.array([M if b else B for b in y01], dtype=object)
        model = BernoulliNaiveBayes().fit(X, y)
        probe = rng.integers(0, 2, size=d).astype(float)
        got = model.predict_log_posterior(probe)[0]
        expected = nb_log_posterior(X, y01, probe)
        assert got[0] == pytest.approx(expected[0], abs=1e-9)
        assert got[1] == pytest.approx(expected[1], abs=1e-9)


def test_symmetric_tie_breaks_benign():
    X = np.array([[1.0], [0.0]])
    y = np.array([M, B], dtype=object)
    model = BernoulliNaiveBayes().fit(X, y)
    # Equal priors and mirrored thetas: a fully ambiguous probe ties.
    # With one column, probe 1 favors malicious; craft the tie directly.
    model.theta_ = np.array([[0.5], [0.5]])
    model.class_prior_ = np.array([0.5, 0.5])
    assert model.predict(np.array([1.0]))[0] == B


def test_single_class_rejected():
    X = np.array([[1.0], [0.0]])
    y = np.array([B, B], dtype=object)
    with pytest.raises(SingleClassError):
        BernoulliNaiveBayes().fit(X, y)


def test_non_boolean_input_rejected():
    X = np.array([[0.5], [1.0]])
    y = np.array([M, B], dtype=object)
    with pytest.raises(ValueError):
        BernoulliNaiveBayes().fit(X, y)


@pytest.mark.parametrize("model", [BernoulliNaiveBayes, DecisionTreeClassifier])
def test_unknown_labels_are_named_sorted(model):
    X = np.array([[1.0], [0.0], [1.0], [0.0]])
    y = np.array([M, "spam", None, B], dtype=object)
    with pytest.raises(ValueError, match=re.escape("unknown labels: ['None', 'spam']")):
        model().fit(X, y)


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.integers(0, 2, size=(30, 14)).astype(float)
    y = np.array([M if b else B for b in rng.integers(0, 2, size=30)], dtype=object)
    if len(set(y.tolist())) < 2:
        y[0], y[1] = M, B
    model = BernoulliNaiveBayes().fit(X, y)
    save_model(model, tmp_path / "nb.json")
    clone = load_model(tmp_path / "nb.json", MODEL_NB)
    probe = rng.integers(0, 2, size=(50, 14)).astype(float)
    assert list(model.predict(probe)) == list(clone.predict(probe))
    assert np.array_equal(model.predict_log_posterior(probe), clone.predict_log_posterior(probe))


def test_schema_mismatch(tmp_path):
    X = np.array([[1.0], [0.0]])
    y = np.array([M, B], dtype=object)
    model = BernoulliNaiveBayes().fit(X, y)
    with pytest.raises(SchemaMismatch):
        model.predict(np.array([1.0, 0.0]))
    # Naive Bayes reads the 14 Boolean columns; one fitted on other
    # columns cannot be stored as one.
    with pytest.raises(SchemaMismatch):
        save_model(model, tmp_path / "nb.json")
