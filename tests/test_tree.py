import numpy as np
import pytest

from oracles import ReferenceTree, exhaustive_best_split
from pkgwatch.classifiers import MODEL_TREE, DecisionTreeClassifier, load_model, save_model
from pkgwatch.errors import EmptyDataset, SchemaMismatch

M, B = "malicious", "benign"


def test_separable_1d_gives_depth_one_tree():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([B, B, M, M], dtype=object)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.node_count_ == 3
    assert list(tree.predict(X)) == [B, B, M, M]
    assert tree.root_["threshold"] == pytest.approx(0.0)


def test_all_benign_single_leaf():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([B, B, B], dtype=object)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.node_count_ == 1
    assert list(tree.predict([[99.0]])) == [B]


def test_leaf_tie_goes_malicious():
    X = np.array([[1.0], [1.0]])
    y = np.array([M, B], dtype=object)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.node_count_ == 1
    assert list(tree.predict([[1.0]])) == [M]


def test_xor_data_reaches_purity():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([B, M, M, B], dtype=object)
    tree = DecisionTreeClassifier().fit(X, y)
    assert list(tree.predict(X)) == list(y)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        DecisionTreeClassifier().fit(np.zeros((0, 3)), np.array([], dtype=object))


def _random_dataset(rng, n_rows, n_cols):
    X = rng.uniform(-10, 10, size=(n_rows, n_cols)).round(3)
    y01 = rng.integers(0, 2, size=n_rows)
    # Deduplicate rows so the data cannot contradict itself.
    _, keep = np.unique(X, axis=0, return_index=True)
    X, y01 = X[sorted(keep)], y01[sorted(keep)]
    y = np.array([M if b else B for b in y01], dtype=object)
    return X, y, y01


def test_root_split_matches_exhaustive_search():
    rng = np.random.default_rng(42)
    for _ in range(50):
        X, y, y01 = _random_dataset(rng, int(rng.integers(4, 21)),
                                    int(rng.integers(1, 5)))
        if len(set(y01.tolist())) < 2:
            continue
        tree = DecisionTreeClassifier().fit(X, y)
        expected = exhaustive_best_split(X, y01)
        if expected is None:
            assert tree.node_count_ == 1
            continue
        assert tree.root_["column"] == expected[0]
        assert tree.root_["threshold"] == pytest.approx(expected[1], abs=1e-12)


def test_predictions_match_reference_tree_and_training_accuracy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        X, y, y01 = _random_dataset(rng, 20, 4)
        if len(set(y01.tolist())) < 2:
            continue
        tree = DecisionTreeClassifier().fit(X, y)
        reference = ReferenceTree().fit(X, y01)
        ours = [1 if p == M else 0 for p in tree.predict(X)]
        assert ours == reference.predict(X)
        assert ours == y01.tolist()  # 100% training accuracy


def test_monotone_transform_leaves_predictions_unchanged():
    rng = np.random.default_rng(11)
    X, y, _ = _random_dataset(rng, 30, 3)
    tree = DecisionTreeClassifier().fit(X, y)
    X2 = X.copy()
    X2[:, 1] = np.exp(X2[:, 1] / 10.0)  # strictly monotone on one column
    tree2 = DecisionTreeClassifier().fit(X2, y)
    assert list(tree.predict(X)) == list(tree2.predict(X2))


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    X, y, _ = _random_dataset(rng, 25, 17)
    tree = DecisionTreeClassifier().fit(X, y)
    save_model(tree, tmp_path / "tree.json")
    clone = load_model(tmp_path / "tree.json", MODEL_TREE)
    probe = rng.uniform(-12, 12, size=(40, 17))
    assert list(tree.predict(probe)) == list(clone.predict(probe))
    assert clone.node_count_ == tree.node_count_


def test_schema_mismatch_on_predict(tmp_path):
    X = np.array([[0.0], [1.0]])
    y = np.array([B, M], dtype=object)
    tree = DecisionTreeClassifier().fit(X, y)
    with pytest.raises(SchemaMismatch):
        tree.predict([[1.0, 2.0]])
    # A tree reads the 17 numeric columns; one fitted on other columns
    # cannot be stored as one.
    with pytest.raises(SchemaMismatch):
        save_model(tree, tmp_path / "tree.json")
    assert not (tmp_path / "tree.json").exists()
