import numpy as np
import pytest

from pkgwatch.classifiers import (
    MODEL_IDS,
    MODEL_TREE,
    LabeledDataset,
    Metrics,
    calibrate_nu,
    cross_validate,
    stratified_folds,
)
from pkgwatch.errors import TooFewSamples
from pkgwatch.features import FeatureVector
from pkgwatch.vectorize import build_change_vector
from pkgwatch.versioning import UpdateType

M, B = "malicious", "benign"


def make_corpus(n_mal: int, n_ben: int, seed: int = 0) -> LabeledDataset:
    """Separable synthetic corpus.

    Malicious versions gain install scripts plus network use (new packages
    and rushed patches) or start touching PII and data encoding; benign
    versions, first or updated, never do. Entropy and timing overlap
    between the classes so separation rests on the count features.
    """
    rng = np.random.default_rng(seed)
    vectors = []
    for i in range(n_mal):
        if i % 4 == 3:  # compromised update: harvester-style deltas
            cur = FeatureVector(
                pii_access=int(rng.integers(1, 5)),
                data_encoding=int(rng.integers(1, 4)),
                network_access=int(rng.integers(1, 3)),  # exfiltration target
                entropy_mean=float(rng.uniform(3, 6)),
            )
            vector = build_change_vector(
                FeatureVector(), cur, UpdateType.PATCH, float(rng.uniform(0, 120)),
                package=f"mal{i}", version="0.0.3", label=M,
            )
        else:  # install-script exfiltrator
            cur = FeatureVector(
                install_scripts=int(rng.integers(1, 4)),
                network_access=int(rng.integers(1, 6)),
                entropy_mean=float(rng.uniform(3, 7)),
            )
            if i % 4 == 2:  # published moments after a benign-looking prior
                vector = build_change_vector(
                    FeatureVector(), cur, UpdateType.PATCH, float(rng.uniform(0, 1)),
                    package=f"mal{i}", version="3.1.9", label=M,
                )
            else:
                vector = build_change_vector(
                    None, cur, UpdateType.FIRST, 0.0,
                    package=f"mal{i}", version="1.0.0", label=M,
                )
        vectors.append(vector)

    for i in range(n_ben):
        kind = i % 3
        if kind == 0:  # ordinary new package: plain-text sources
            cur = FeatureVector(
                fs_access=int(rng.integers(0, 3)),
                entropy_mean=float(rng.uniform(3.5, 5.5)),
                entropy_std=float(rng.uniform(0, 2)),
            )
            vector = build_change_vector(
                None, cur, UpdateType.FIRST, 0.0,
                package=f"ben{i}", version="1.0.0", label=B,
            )
        elif kind == 1:  # no-op patch republish
            fv = FeatureVector(entropy_mean=float(rng.uniform(3.5, 5.5)))
            vector = build_change_vector(
                fv, fv, UpdateType.PATCH, float(rng.uniform(1e3, 1e6)),
                package=f"ben{i}", version="1.0.1", label=B,
            )
        else:  # minor release with a small innocuous delta
            prev = FeatureVector(entropy_mean=4.0)
            cur = FeatureVector(
                fs_access=int(rng.integers(0, 3)),
                crypto_api=int(rng.integers(0, 2)),
                entropy_mean=float(rng.uniform(3.5, 5.0)),
            )
            vector = build_change_vector(
                prev, cur, UpdateType.MINOR, float(rng.uniform(1e3, 1e6)),
                package=f"ben{i}", version="1.1.0", label=B,
            )
        vectors.append(vector)
    return LabeledDataset.from_vectors(vectors)


def test_metrics_conventions():
    m = Metrics(tp=0, fp=0, tn=5, fn=0)
    assert m.precision == 1.0  # nothing flagged
    assert m.recall == 1.0  # nothing to find
    m = Metrics(tp=3, fp=1, tn=4, fn=2)
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.6)


def test_metrics_from_predictions():
    y_true = np.array([M, M, B, B], dtype=object)
    y_pred = np.array([M, B, M, B], dtype=object)
    m = Metrics.from_predictions(y_true, y_pred)
    assert (m.tp, m.fp, m.tn, m.fn) == (1, 1, 1, 1)


def test_stratified_folds_preserve_ratio():
    labels = np.array([M] * 10 + [B] * 90, dtype=object)
    folds = stratified_folds(labels, k=10, seed=1)
    for fold in folds:
        fold_labels = labels[fold]
        assert np.sum(fold_labels == M) == 1
        assert np.sum(fold_labels == B) == 9
    joined = np.concatenate(folds)
    assert sorted(joined.tolist()) == list(range(100))


def test_stratified_folds_within_one_sample():
    labels = np.array([M] * 643 + [B] * 1147, dtype=object)
    folds = stratified_folds(labels, k=10, seed=2)
    mal_counts = [int(np.sum(labels[f] == M)) for f in folds]
    ben_counts = [int(np.sum(labels[f] == B)) for f in folds]
    assert max(mal_counts) - min(mal_counts) <= 1
    assert max(ben_counts) - min(ben_counts) <= 1
    assert sum(mal_counts) == 643 and sum(ben_counts) == 1147


def test_stratified_folds_deterministic():
    labels = np.array([M] * 20 + [B] * 30, dtype=object)
    one = stratified_folds(labels, k=5, seed=9)
    two = stratified_folds(labels, k=5, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(one, two))
    other = stratified_folds(labels, k=5, seed=10)
    assert any(not np.array_equal(a, b) for a, b in zip(one, other))


def test_too_few_samples():
    labels = np.array([M] * 3 + [B] * 50, dtype=object)
    with pytest.raises(TooFewSamples):
        stratified_folds(labels, k=10, seed=0)


def test_cross_validate_separable_corpus():
    data = make_corpus(20, 60)
    results = cross_validate(data, k=10, seed=0, nu=0.1)
    assert set(results) == set(MODEL_IDS)
    assert results[MODEL_TREE].precision == 1.0
    assert results[MODEL_TREE].recall == 1.0
    assert len(results[MODEL_TREE].folds) == 10


def test_cross_validate_reproducible():
    data = make_corpus(15, 40, seed=3)
    a = cross_validate(data, k=5, seed=7)
    b = cross_validate(data, k=5, seed=7)
    for model_id in MODEL_IDS:
        assert a[model_id] == b[model_id]


def test_cross_validation_totals_cover_every_row():
    data = make_corpus(12, 24, seed=4)
    results = cross_validate(data, k=4, seed=0)
    for model_id in MODEL_IDS:
        totals = results[model_id].totals
        assert totals.tp + totals.fp + totals.tn + totals.fn == 36


def test_calibrate_nu_reports_per_value():
    data = make_corpus(12, 36, seed=5)
    table = calibrate_nu(data, nus=(0.05, 0.2), k=4, seed=0)
    assert [nu for nu, _ in table] == [0.05, 0.2]
    for _, result in table:
        assert 0.0 <= result.precision <= 1.0
        assert 0.0 <= result.recall <= 1.0


def test_labeled_dataset_rejects_unlabeled():
    vec = build_change_vector(None, FeatureVector(), UpdateType.FIRST, 0.0)
    with pytest.raises(ValueError):
        LabeledDataset.from_vectors([vec])


def test_from_vectors_empty():
    data = LabeledDataset.from_vectors([])
    assert data.rows.shape == (0, 17)
    assert data.labels.shape == (0,)


def test_zero_member_class_rejected():
    labels = np.array([B] * 30, dtype=object)
    with pytest.raises(TooFewSamples):
        stratified_folds(labels, k=3, seed=0)
