import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import build_training_vectors
from oracles import qp_one_class_svm, reference_one_class_svm
from pkgwatch.classifiers import MODEL_SVM, LinearOneClassSvm, load_model, ocsvm, save_model
from pkgwatch.errors import ConvergenceFailure, TooFewSamples
from pkgwatch.vectorize import BENIGN, NUMERIC_SCHEMA, encode

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


@pytest.mark.parametrize("copies", [100, 90_000])
@pytest.mark.parametrize("nu", [0.05, 0.001])
def test_columns_constant_up_to_rounding_are_not_scaled(copies, nu):
    # The std of each of these constant columns comes out at rounding level,
    # not 0. Scaling by it gave |coef_| near 1e15, rho_ near 1e30, and a
    # decision of +-1e9 or more one ulp away from the training row.
    row = np.array([0.1, 2.3, 0.7, 1234.5678, 5.9])
    X = np.tile(row, (copies, 1))
    assert (X.std(axis=0) > 0).all()
    model = LinearOneClassSvm(nu=nu).fit(X)
    assert (model.scale_ == 1.0).all()
    assert np.abs(model.coef_).max() < 1e4 and 0 < model.rho_ < 1e7
    # Every row lies on the margin, so these score 0 up to rounding.
    probes = np.vstack([row, np.nextafter(row, 0), np.nextafter(row, np.inf)])
    assert np.abs(model.decision_function(probes)).max() <= 1e-12 * model.rho_
    if copies == 100:
        assert model.predict(X[:1])[0] == B


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


# --- the solver against the earlier one -------------------------------------


def training_pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Numeric rows and benign flags of `build_training_vectors(100, 300, seed)`."""
    pool = build_training_vectors(100, 300, seed=seed)
    return np.array([encode(v) for v in pool]), np.array([v.label == BENIGN for v in pool])


@pytest.fixture(scope="module")
def seed5_pool():
    return training_pool(5)


def resampled_benign_rows(pool, seed: int, picks: int) -> np.ndarray:
    """Benign rows of a corpus resampled from `pool` the way the benchmark
    builds its corpus: `picks` draws, each row's elapsed time scaled by
    U(0.9, 1.1) and rounded to 3 places."""
    rows, benign = pool
    rng = np.random.default_rng(seed + 1)
    chosen = rng.integers(0, len(rows), picks)
    jitter = rng.uniform(0.9, 1.1, picks)
    X = rows[chosen]
    col = NUMERIC_SCHEMA.index("time_since_prev")
    X[:, col] = [round(t * s, 3) for t, s in zip(X[:, col].tolist(), jitter.tolist())]
    return X[benign[chosen]]


def scaled(model: LinearOneClassSvm, X) -> np.ndarray:
    """X as the solver sees it: scaled, in the solver's column-major layout,
    so that products with coef_ repeat its arithmetic bit for bit."""
    return np.asfortranarray(X / model.scale_)


def assert_optimal(model: LinearOneClassSvm, Z: np.ndarray) -> None:
    """alpha_ is feasible, coef_ is Z' alpha_, and the KKT violation over
    all rows is at most TOL."""
    a = model.alpha_
    C = 1.0 / (model.nu * len(Z))
    bound = C * 1e-9
    assert a.min() >= 0.0 and a.max() <= C * (1 + 1e-12)
    assert a.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.abs(model.coef_ - Z.T @ a).max() <= 1e-9
    g = Z @ model.coef_
    assert g[a > bound].max() - g[a < C - bound].min() <= ocsvm.TOL


def assert_matches_reference(X, nu: float) -> None:
    model = LinearOneClassSvm(nu=nu).fit(X)
    Z = scaled(model, X)
    _, w, rho, _ = reference_one_class_svm(Z, nu)
    assert 0.5 * model.coef_ @ model.coef_ == pytest.approx(0.5 * w @ w, rel=1e-9)
    assert np.abs(model.coef_ - w).max() <= 1e-7
    ours, theirs = Z @ model.coef_ - model.rho_, Z @ w - rho
    clear = np.abs(ours) > 1e-6
    assert np.array_equal(ours[clear] < 0, theirs[clear] < 0)
    assert_optimal(model, Z)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_reference_solver_on_jittered_clusters(seed):
    rng = np.random.default_rng(seed)
    base = _cluster(rng, n=200)
    X = base[rng.integers(0, len(base), 5000)]
    X *= 1 + 1e-3 * rng.standard_normal(X.shape)
    assert_matches_reference(X, nu=[0.001, 0.01, 0.05, 0.2][seed])


def test_matches_reference_solver_on_a_resampled_corpus(seed5_pool):
    assert_matches_reference(resampled_benign_rows(seed5_pool, 5, 9_000), nu=0.001)


def test_seed5_corpus_fits_in_few_steps(seed5_pool):
    # The benign rows of the seed-5 benchmark corpus: the coordinate-descent
    # solvers took 20,024 and 1,663 steps on them; Wolfe's algorithm takes 41
    # iterations.
    X = resampled_benign_rows(seed5_pool, 5, 90_000)
    start = time.monotonic()
    model = LinearOneClassSvm().fit(X)
    elapsed = time.monotonic() - start
    assert model.n_iter_ <= 200
    assert elapsed < 2.0  # about 0.06 s on a 2-core host
    assert_optimal(model, scaled(model, X))


def test_jittered_seed5_corpus_fits_in_few_iterations(seed5_pool):
    # A copy on which the pair-step solver with shrinking crawled: 9,566
    # steps over a few nearly collinear free rows. Here 47 iterations.
    X = resampled_benign_rows(seed5_pool, 5, 90_000)
    X *= 1 + 1e-6 * np.random.default_rng(4).standard_normal(X.shape)
    start = time.monotonic()
    model = LinearOneClassSvm().fit(X)
    elapsed = time.monotonic() - start
    assert model.n_iter_ <= 200
    assert elapsed < 2.0
    assert_optimal(model, scaled(model, X))


def test_fit_does_not_depend_on_the_blas_thread_count(tmp_path):
    # The benign rows of the benchmark's seed-0 corpus, fitted and scored in
    # two fresh interpreters, one after the other: OpenBLAS reads its thread
    # count at import. A threaded matrix-vector product sums in another order.
    rows = tmp_path / "rows.npy"
    np.save(rows, resampled_benign_rows(training_pool(0), 0, 90_000))
    script = textwrap.dedent("""
        import hashlib
        import sys
        import numpy as np
        from pkgwatch.classifiers import LinearOneClassSvm
        X = np.load(sys.argv[1])
        model = LinearOneClassSvm().fit(X)
        print(model.coef_.tobytes().hex(), np.float64(model.rho_).tobytes().hex(), model.n_iter_,
              hashlib.sha256(model.decision_function(X).tobytes()).hexdigest())
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    fits = [
        subprocess.run([sys.executable, "-c", script, str(rows)], check=True, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": str(src),
                                       "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    ]
    assert fits[0] == fits[1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-2, 1e4))
                    .map(lambda t: t[0] * t[1]), min_size=2, max_size=17),
       n=st.sampled_from([100, 1000]), nu=st.sampled_from([0.001, 0.01, 0.05, 0.3]),
       order=st.sampled_from("CF"))
@example(row=[0.24577284373863384, -0.7466528839828983, 0.6787395958595579,
              -0.46990009907954344, -0.8696871441704723, 0.07703242182250279],
         n=100, nu=0.01, order="C")
def test_copies_of_one_row_never_flag_a_training_row(row, n, nu, order):
    # Every row lies on the margin, so each must score exactly rho_'s own
    # margin: nu promises at most nu * n flagged rows, and these are all alike.
    # Scored in a batch of either layout, or alone.
    X = np.array(np.tile(row, (n, 1)), order=order)
    model = LinearOneClassSvm(nu=nu).fit(X)
    assert (model.decision_function(X) >= 0).all()
    assert model.decision_function(X[:1])[0] >= 0


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_step_count_is_bounded_on_jittered_copies(seed5_pool, seed):
    X = resampled_benign_rows(seed5_pool, 5, 9_000)
    X *= 1 + 1e-6 * np.random.default_rng(seed).standard_normal(X.shape)
    model = LinearOneClassSvm().fit(X)
    assert model.n_iter_ <= 200
    assert_optimal(model, scaled(model, X))


def test_step_budget_exhausted_raises(monkeypatch):
    monkeypatch.setattr(ocsvm, "MAX_ITER", 3)
    X = _cluster(np.random.default_rng(10), n=500, d=5)
    with pytest.raises(ConvergenceFailure, match="no convergence after 3 iterations"):
        LinearOneClassSvm(nu=0.05).fit(X)
