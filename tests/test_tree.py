import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ReferenceTree, argsort_tree_fit, exhaustive_best_split
from pkgwatch.classifiers import MODEL_TREE, DecisionTreeClassifier, load_model, save_model
from pkgwatch.classifiers.tree import MAX_DEPTH
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


# Values whose order or midpoints are delicate: both zeros (equal, so an
# unstable sort may put either last among them), float-adjacent pairs (the
# midpoint rounds to an end, so the threshold falls back to the lower one)
# and subnormals.
DELICATE = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
            1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)), -1.0, 1e300]


@st.composite
def tree_data(draw):
    """Rows whose columns each hold 1 to 3 distinct values, so ties are heavy."""
    n_rows = draw(st.integers(1, 40))
    n_cols = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from(DELICATE), st.floats(-1e6, 1e6, allow_nan=False))
    palettes = [draw(st.lists(value, min_size=1, max_size=3)) for _ in range(n_cols)]
    X = [[draw(st.sampled_from(palette)) for palette in palettes] for _ in range(n_rows)]
    y = draw(st.lists(st.sampled_from([M, B]), min_size=n_rows, max_size=n_rows))
    return X, y


@settings(max_examples=300, deadline=None)
@given(tree_data())
@example(([[-0.0], [0.0], [1.0], [0.0], [-0.0], [1.0]], [B, M, M, B, B, M]))
@example(([[1.0], [float(np.nextafter(1.0, 2.0))], [1.0]], [B, M, B]))
@example(([[-5e-324], [0.0], [-0.0], [5e-324]], [B, M, B, M]))
@example(([[3.0, 1e-310]] * 4, [M, B, B, M]))
@example(([[0.0], [1.0], [2.0]], [B, B, B]))
@example(([[0.0], [1.0]], [M, M]))
def test_fit_writes_the_argsort_fit_bytes(data):
    X, y = data
    X, y = np.array(X, dtype=float), np.array(y, dtype=object)
    assert json.dumps(DecisionTreeClassifier().fit(X, y).to_dict()) == \
        json.dumps(argsort_tree_fit(X, y))


def test_signed_zeros_in_any_order_give_the_argsort_fit_bytes():
    # Enough tied zeros of both signs that the unstable sort reorders them.
    rng = np.random.default_rng(3)
    X = rng.choice([-0.0, 0.0, 5e-324, -1e-310, 2.0], size=(2_000, 3))
    y = rng.choice(np.array([M, B], dtype=object), size=2_000)
    assert json.dumps(DecisionTreeClassifier().fit(X, y).to_dict()) == \
        json.dumps(argsort_tree_fit(X, y))


def _peeling(n_rows):
    """Rows whose labels alternate along column 0: each split peels off one
    row, so the tree is n_rows - 1 levels deep."""
    X = np.zeros((n_rows, 17))
    X[:, 0] = np.arange(n_rows)
    return X, np.array([M if i % 2 else B for i in range(n_rows)], dtype=object)


def test_a_tree_max_depth_deep_round_trips(tmp_path):
    X, y = _peeling(MAX_DEPTH + 1)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.node_count_ == 2 * MAX_DEPTH + 1
    save_model(tree, tmp_path / "tree.json")
    clone = load_model(tmp_path / "tree.json", MODEL_TREE)
    assert clone.root_ == tree.root_
    assert list(clone.predict(X)) == list(y)


def test_a_tree_one_level_deeper_is_refused_at_fit():
    X, y = _peeling(MAX_DEPTH + 2)
    with pytest.raises(ValueError, match=f"deeper than its maximum depth {MAX_DEPTH}$"):
        DecisionTreeClassifier().fit(X, y)
