import numpy as np
import pytest

from oracles import qp_one_class_svm
from pkgwatch.classifiers import MODEL_SVM, LinearOneClassSvm, load_model, save_model
from pkgwatch.errors import TooFewSamples

M, B = "malicious", "benign"


def _cluster(rng, n=1000, d=17, spread=1.0):
    center = rng.uniform(-5, 5, size=d)
    return center + spread * rng.standard_normal((n, d))


@pytest.mark.parametrize("nu", [0.01, 0.1])
def test_nu_bounds_training_outlier_fraction(nu):
    rng = np.random.default_rng(0)
    X = _cluster(rng, n=1000, d=2, spread=0.5)
    model = LinearOneClassSvm(nu=nu).fit(X)
    flagged = np.mean(model.decision_function(X) < 0)
    assert flagged <= nu + 2 / len(X)


def test_dual_feasibility_at_convergence():
    rng = np.random.default_rng(1)
    X = _cluster(rng, n=500, d=5)
    model = LinearOneClassSvm(nu=0.05).fit(X)
    C = 1.0 / (0.05 * len(X))
    assert np.all(model.alpha_ >= -1e-12)
    assert np.all(model.alpha_ <= C + 1e-12)
    assert model.alpha_.sum() == pytest.approx(1.0, abs=1e-6)


def test_far_point_is_flagged():
    rng = np.random.default_rng(2)
    X = _cluster(rng, n=400, d=4, spread=1.0)
    model = LinearOneClassSvm(nu=0.05).fit(X)
    far = X.mean(axis=0) + 100 * X.std(axis=0)
    assert model.decision_function(far.reshape(1, -1))[0] < 0
    assert model.predict(far.reshape(1, -1))[0] == M


def test_nu_one_puts_every_point_at_the_bound():
    rng = np.random.default_rng(3)
    X = _cluster(rng, n=50, d=3)
    model = LinearOneClassSvm(nu=1.0).fit(X)
    assert np.allclose(model.alpha_, 1.0 / len(X))


def test_agrees_with_qp_oracle_on_small_instances():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = int(rng.integers(20, 51))
        d = int(rng.integers(2, 6))
        X = _cluster(rng, n=n, d=d)
        nu = float(rng.choice([0.1, 0.2, 0.3]))
        model = LinearOneClassSvm(nu=nu).fit(X)

        # The oracle scales independently, then solves the dual QP.
        scale_cols = np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
        _, w_oracle, rho_oracle = qp_one_class_svm(X / scale_cols, nu)

        scale = np.linalg.norm(w_oracle)
        assert np.linalg.norm(model.coef_ - w_oracle) <= 1e-4 * max(scale, 1.0)
        assert abs(model.rho_ - rho_oracle) <= 1e-4 * max(abs(rho_oracle), 1.0)

        # Flag decisions agree on fresh points (generically off the margin).
        fresh = np.vstack([
            X.mean(axis=0) + rng.standard_normal((100, d)),
            X.mean(axis=0) + rng.standard_normal((20, d)) * 10,
        ])
        oracle_flags = ((fresh / scale_cols) @ w_oracle - rho_oracle) < 0
        ours = model.predict(fresh) == M
        assert np.array_equal(ours, oracle_flags)


def test_standardization_handles_constant_columns():
    rng = np.random.default_rng(5)
    X = _cluster(rng, n=100, d=3)
    X[:, 1] = 7.0
    model = LinearOneClassSvm(nu=0.1).fit(X)
    assert model.scale_[1] == 1.0
    assert np.isfinite(model.decision_function(X)).all()


def test_boundary_value_stays_benign():
    rng = np.random.default_rng(6)
    X = _cluster(rng, n=50, d=2)
    model = LinearOneClassSvm(nu=0.1).fit(X)
    # Construct a probe that lands exactly on the hyperplane.
    direction = model.coef_ / (model.coef_ @ model.coef_)
    probe = direction * model.rho_ * model.scale_
    d = model.decision_function(probe.reshape(1, -1))[0]
    assert abs(d) < 1e-9
    if d == 0.0:
        assert model.predict(probe.reshape(1, -1))[0] == B


def test_requires_two_rows_and_valid_nu():
    with pytest.raises(TooFewSamples):
        LinearOneClassSvm().fit(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        LinearOneClassSvm(nu=0.0).fit(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        LinearOneClassSvm(nu=1.5).fit(np.zeros((5, 3)))


def test_determinism():
    rng = np.random.default_rng(8)
    X = _cluster(rng, n=300, d=6)
    a = LinearOneClassSvm(nu=0.02).fit(X)
    b = LinearOneClassSvm(nu=0.02).fit(X)
    assert np.array_equal(a.coef_, b.coef_)
    assert a.rho_ == b.rho_


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    X = _cluster(rng, n=200)
    model = LinearOneClassSvm(nu=0.05).fit(X)
    save_model(model, tmp_path / "svm.json")
    clone = load_model(tmp_path / "svm.json", MODEL_SVM)
    assert clone.nu == 0.05
    probe = _cluster(rng, n=50)
    assert np.array_equal(model.predict(probe), clone.predict(probe))
    assert np.allclose(model.decision_function(probe), clone.decision_function(probe))
