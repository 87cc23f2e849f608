"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import random
import time

import numpy as np
from hypothesis import given, settings

from conftest import (
    FixtureRegistryBuilder,
    _benign_module,
    _exfil_script,
    _grow,
    _harvester_script,
    build_training_vectors,
    make_manifest,
    make_tgz,
)
from oracles import exhaustive_best_split, naive_entropy, qp_one_class_svm
from pkgwatch.artifact import load_tarball
from pkgwatch.classifiers import (
    MODEL_IDS,
    BernoulliNaiveBayes,
    DecisionTreeClassifier,
    LabeledDataset,
    LinearOneClassSvm,
    cross_validate,
    predict_all,
    stratified_folds,
    train_all,
)
from pkgwatch.clones import MalwareHashSet, canonical_digest
from pkgwatch.features import FeatureVector, extract_features, shannon_entropy
from pkgwatch.pipeline import (
    AUTO_CLEARED,
    CLEAN,
    ERROR,
    FLAGGED,
    derive_final,
    scan,
)
from pkgwatch.registry import FixtureRegistry
from pkgwatch.reproduce import REPRODUCED
from pkgwatch.vectorize import BENIGN, MALICIOUS, build_change_vector
from pkgwatch.versioning import SemVer, UpdateType, classify_update

from test_pipeline import FIXTURE_BUILD
from test_reproduce import init_git_repo
from test_vectorize import feature_vectors

M, B = MALICIOUS, BENIGN


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert passed, line


def test_c01_entropy_exactness():
    checks = [
        abs(shannon_entropy(bytes(range(256))) - 8.0) <= 1e-9,
        abs(shannon_entropy(b"\x00" * 1024) - 0.0) <= 1e-9,
        abs(shannon_entropy(b"aabb") - 1.0) <= 1e-9,
    ]
    rng = random.Random(2021)
    worst = 0.0
    for _ in range(1000):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 4097)))
        worst = max(worst, abs(shannon_entropy(data) - naive_entropy(data)))
    checks.append(worst <= 1e-12)
    _report(
        "C1 entropy exactness + naive-histogram oracle equivalence",
        all(checks), f"max oracle deviation {worst:.2e}",
    )


UPDATE_TABLE = [
    # patch
    ("3.1.8", "3.1.9", UpdateType.PATCH),
    ("0.0.2", "0.0.3", UpdateType.PATCH),
    ("2.3.4", "2.3.5", UpdateType.PATCH),
    ("0.0.1", "0.0.9", UpdateType.PATCH),
    ("5.5.5", "5.5.1", UpdateType.PATCH),
    ("1.0.0", "1.0.0", UpdateType.PATCH),  # republish
    # major
    ("1.4.0", "2.0.0", UpdateType.MAJOR),
    ("0.9.9", "1.0.0", UpdateType.MAJOR),
    ("2.0.0", "1.0.0", UpdateType.MAJOR),
    ("1.2.3", "3.0.0", UpdateType.MAJOR),
    ("9.0.0", "10.0.0", UpdateType.MAJOR),
    ("1.1.1", "2.1.1", UpdateType.MAJOR),
    # minor
    ("1.0.0", "1.1.0", UpdateType.MINOR),
    ("0.1.5", "0.2.0", UpdateType.MINOR),
    ("3.3.9", "3.4.0", UpdateType.MINOR),
    ("1.5.0", "1.4.0", UpdateType.MINOR),
    ("2.0.0", "2.9.0", UpdateType.MINOR),
    ("0.0.9", "0.1.0", UpdateType.MINOR),
    # prerelease (takes precedence over core differences)
    ("1.0.0", "1.0.1-beta.1", UpdateType.PRERELEASE),
    ("1.0.0", "2.0.0-alpha", UpdateType.PRERELEASE),
    ("1.0.0-alpha", "1.0.0-beta", UpdateType.PRERELEASE),
    ("0.0.1", "0.0.2-rc.0", UpdateType.PRERELEASE),
    ("1.2.3", "1.2.3-hotfix", UpdateType.PRERELEASE),
    ("2.0.0", "3.0.0-next.1", UpdateType.PRERELEASE),
    ("1.0.0+build", "1.0.1-pre+build", UpdateType.PRERELEASE),
    # build metadata only
    ("1.0.0", "1.0.0+build.2", UpdateType.BUILD),
    ("1.0.0+a", "1.0.0+b", UpdateType.BUILD),
    ("2.1.3+x", "2.1.3", UpdateType.BUILD),
    ("0.5.0+linux", "0.5.0+mac", UpdateType.BUILD),
    ("7.7.7", "7.7.7+sha.deadbeef", UpdateType.BUILD),
]


def test_c02_update_type_table():
    assert len(UPDATE_TABLE) == 30
    covered = {expected for _, _, expected in UPDATE_TABLE}
    assert covered == {UpdateType.PATCH, UpdateType.MAJOR, UpdateType.MINOR,
                       UpdateType.PRERELEASE, UpdateType.BUILD}
    mismatches = [
        (prev, nxt, expected.value,
         classify_update(SemVer.parse(prev), SemVer.parse(nxt)).value)
        for prev, nxt, expected in UPDATE_TABLE
        if classify_update(SemVer.parse(prev), SemVer.parse(nxt)) != expected
    ]
    # FIRST is assigned only by the vectorizer, never by classify_update.
    first_vec = build_change_vector(None, FeatureVector(), UpdateType.FIRST, 0.0)
    ok = not mismatches and first_vec.update_type is UpdateType.FIRST
    _report("C2 update-type table (30 pairs, 100% match)", ok,
            f"mismatches: {mismatches}" if mismatches else "30/30")


@given(feature_vectors)
@settings(max_examples=300, deadline=None)
def check_first_rule(fv):
    vec = build_change_vector(None, fv, UpdateType.FIRST, 0.0)
    assert vec.deltas == fv.as_tuple()
    assert vec.time_since_prev == 0.0


def test_c03_first_version_rule():
    check_first_rule()
    _report("C3 first-version rule (deltas = raw features, dt = 0)", True,
            "300 randomized feature vectors")


def test_c04_decision_tree_oracle():
    rng = np.random.default_rng(2022)
    start = time.monotonic()
    root_matches = 0
    datasets = 0
    accuracy_ok = True
    while datasets < 50:
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 5))
        X = rng.uniform(-10, 10, size=(n, d)).round(3)
        _, keep = np.unique(X, axis=0, return_index=True)
        X = X[sorted(keep)]
        y01 = rng.integers(0, 2, size=len(X))
        if len(set(y01.tolist())) < 2:
            continue
        datasets += 1
        y = np.array([M if b else B for b in y01], dtype=object)
        tree = DecisionTreeClassifier().fit(X, y)
        expected = exhaustive_best_split(X, y01)
        if (tree.root_.column == expected[0]
                and abs(tree.root_.threshold - expected[1]) <= 1e-12):
            root_matches += 1
        predicted = [1 if p == M else 0 for p in tree.predict(X)]
        accuracy_ok &= predicted == y01.tolist()
    elapsed = time.monotonic() - start
    ok = root_matches == 50 and accuracy_ok and elapsed < 10.0
    _report("C4 decision-tree exhaustive-search oracle (50 datasets)", ok,
            f"root matches {root_matches}/50, 100% training accuracy: "
            f"{accuracy_ok}, {elapsed:.2f}s")


def test_c05_naive_bayes_hand_check():
    import math

    X = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    y = np.array([M, M, B, B], dtype=object)
    model = BernoulliNaiveBayes().fit(X, y)
    probe = np.array([1.0, 1.0])
    scores = model.predict_log_posterior(probe)[0]
    expected_mal = math.log(0.5) + math.log(3 / 4) + math.log(1 / 2)
    expected_ben = math.log(0.5) + math.log(1 / 4) + math.log(1 / 2)
    hand_ok = (abs(scores[1] - expected_mal) <= 1e-9
               and abs(scores[0] - expected_ben) <= 1e-9)

    boundary_ok = True
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 10))
        Xr = rng.integers(0, 2, size=(n, d)).astype(float)
        y01 = rng.integers(0, 2, size=n)
        if len(set(y01.tolist())) < 2:
            continue
        yr = np.array([M if b else B for b in y01], dtype=object)
        fitted = BernoulliNaiveBayes().fit(Xr, yr)
        boundary_ok &= bool(np.all(fitted.theta_ > 0) and np.all(fitted.theta_ < 1))
    _report("C5 Naive Bayes hand-computed posteriors + smoothing bounds",
            hand_ok and boundary_ok,
            f"posterior match to 1e-9: {hand_ok}, 0<theta<1: {boundary_ok}")


def test_c06_ocsvm_nu_property_and_qp_oracle():
    rng = np.random.default_rng(2023)
    nu_ok = True
    dual_ok = True
    details = []
    for cluster in range(5):
        center = rng.uniform(-5, 5, size=17)
        X = center + rng.standard_normal((1000, 17)) * rng.uniform(0.3, 2.0)
        for nu in (0.001, 0.01, 0.1):
            model = LinearOneClassSvm(nu=nu).fit(X)
            flagged = float(np.mean(model.decision_function(X) < 0))
            nu_ok &= flagged <= nu + 2 / 1000
            C = 1.0 / (nu * 1000)
            dual_ok &= bool(
                np.all(model.alpha_ >= -1e-6)
                and np.all(model.alpha_ <= C + 1e-6)
                and abs(model.alpha_.sum() - 1.0) <= 1e-6
            )
            details.append(f"nu={nu}: {flagged:.4f}")

    oracle_ok = True
    for _ in range(5):
        n, d = int(rng.integers(20, 51)), int(rng.integers(2, 6))
        X = rng.uniform(-5, 5, size=d) + rng.standard_normal((n, d))
        nu = float(rng.choice([0.1, 0.2]))
        model = LinearOneClassSvm(nu=nu).fit(X)
        scale = np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
        _, w_oracle, rho_oracle = qp_one_class_svm(X / scale, nu)
        fresh = np.vstack([
            X.mean(axis=0) + rng.standard_normal((100, d)),
            X.mean(axis=0) + rng.standard_normal((20, d)) * 10,
        ])
        oracle_flags = ((fresh / scale) @ w_oracle - rho_oracle) < 0
        oracle_ok &= bool(np.array_equal(model.predict(fresh) == M, oracle_flags))
    _report("C6 one-class SVM nu-property, dual feasibility, QP oracle",
            nu_ok and dual_ok and oracle_ok,
            f"nu bound: {nu_ok}, dual: {dual_ok}, oracle flags: {oracle_ok}")


def test_c07_stratified_cross_validation():
    from test_evaluation import make_corpus

    data = make_corpus(643, 1147, seed=11)
    labels = data.labels
    folds = stratified_folds(labels, k=10, seed=0)
    mal = [int(np.sum(labels[f] == M)) for f in folds]
    ben = [int(np.sum(labels[f] == B)) for f in folds]
    ratio_ok = (max(mal) - min(mal) <= 1 and max(ben) - min(ben) <= 1
                and sum(mal) == 643 and sum(ben) == 1147)

    results = cross_validate(data, k=10, seed=0, nu=0.001)
    tree = results["decision-tree"]
    separable_ok = tree.precision == 1.0 and tree.recall == 1.0
    _report("C7 stratified 10-fold CV (1790 rows, 643/1147; separable => tree 1.0/1.0)",
            ratio_ok and separable_ok,
            f"fold malicious counts {sorted(set(mal))}, tree "
            f"p={tree.precision:.3f} r={tree.recall:.3f}")


def test_c08_clone_canonicalization():
    payload = {"index.js": 'require("https").get("https://c2.invalid");',
               "lib/a.js": "exports.a = 1;"}
    original = load_tarball(make_tgz(
        name="orig", version="1.0.0", files=payload, mtime=0,
        order=["package.json", "index.js", "lib/a.js"],
    ))
    repack = load_tarball(make_tgz(
        name="copycat", version="9.1.4", files=payload, mtime=1_700_000_000,
        order=["lib/a.js", "index.js", "package.json"],
    ))
    tampered_files = dict(payload, **{"lib/a.js": "exports.a = 2;"})
    tampered = load_tarball(make_tgz(name="orig", version="1.0.0",
                                     files=tampered_files))
    same = canonical_digest(original) == canonical_digest(repack)
    different = canonical_digest(original) != canonical_digest(tampered)
    _report("C8 clone canonicalization (rename/reorder/retime invariant, "
            "byte-edit sensitive)", same and different,
            f"repack match: {same}, edit detected: {different}")


def _acceptance_registry(tmp_path):
    """30-package fixture registry with ground truth known by construction."""
    builder = FixtureRegistryBuilder(tmp_path / "acceptance-registry")
    rng = np.random.default_rng(314)
    day1 = "2021-08-01T00:00:00.000Z"
    day2 = "2021-08-02T00:00:00.000Z"
    day2_ms = "2021-08-02T00:00:00.001Z"

    batch = []
    benign_names = []
    for i in range(24):
        name = f"lib-{i:02d}"
        base = _benign_module(rng)
        builder.add_version(name, "1.0.0", published=day1, files=base)
        if i % 2 == 0:  # half also ship a routine update
            builder.add_version(name, "1.0.1", published=day2,
                                files=_grow(base, rng))
            batch.append((name, "1.0.1"))
        else:
            batch.append((name, "1.0.0"))
        benign_names.append(name)

    exfil = []
    for i in range(3):
        name = f"typosquat-{i}"
        base = _benign_module(rng)
        infected = dict(base, **{"test.js": _exfil_script(rng)})
        builder.add_version(name, "3.1.8", published=day2, files=base)
        builder.add_version(name, "3.1.9", published=day2_ms, files=infected,
                            scripts={"postinstall": "node test.js"})
        batch.append((name, "3.1.9"))
        exfil.append((name, "3.1.9"))

    base = _benign_module(rng)
    builder.add_version("webframe", "0.0.1", published=day1, files=base)
    builder.add_version("webframe", "0.0.2", published=day2,
                        files=_grow(base, rng))
    infected = dict(_grow(base, rng), **{"component.js": _harvester_script(rng)})
    builder.add_version("webframe", "0.0.3", published=day2_ms, files=infected)
    batch.append(("webframe", "0.0.3"))

    # Verbatim clone of known malware (registered in the hash set below).
    clone_payload = {"index.js": "module.exports = 1;",
                     "steal.js": _exfil_script(rng)}
    clone_scripts = {"postinstall": "node steal.js"}
    known_bad = load_tarball(make_tgz(name="taken-down", version="0.1.0",
                                      files=clone_payload,
                                      scripts=clone_scripts))
    builder.add_version("helpful-utils", "5.0.0", published=day2,
                        files=clone_payload, scripts=clone_scripts)
    batch.append(("helpful-utils", "5.0.0"))

    # Planted benign package the models will flag: first version with an
    # install script and network use, but reproducible from its repository.
    planted_files = {"index.js": "module.exports = 1;",
                     "test.js": _exfil_script(rng)}
    planted_scripts = {"postinstall": "node test.js"}
    repo_dir = tmp_path / "planted-src"
    url = f"file://{repo_dir}"
    init_git_repo(repo_dir, {
        "package.json": make_manifest("planted-upstream", "1.0.0",
                                      planted_scripts, {"repository": url}),
        **planted_files,
    }, tag="v1.0.0")
    builder.add_version("telemetry-ping", "1.0.0", published=day2,
                        files=planted_files, scripts=planted_scripts,
                        manifest_extra={"repository": url})
    batch.append(("telemetry-ping", "1.0.0"))

    hash_set = MalwareHashSet(tmp_path / "acceptance-hashes.txt")
    hash_set.register(canonical_digest(known_bad), "taken-down", "0.1.0",
                      "2021-07-30")

    expected = {
        "malicious": set(exfil) | {("webframe", "0.0.3")},
        "clone": ("helpful-utils", "5.0.0"),
        "planted": ("telemetry-ping", "1.0.0"),
        "benign": set(batch) - set(exfil)
        - {("webframe", "0.0.3"), ("helpful-utils", "5.0.0"),
           ("telemetry-ping", "1.0.0")},
    }
    return builder, batch, hash_set, expected


def test_c09_end_to_end_fixture_scan(tmp_path):
    start = time.monotonic()
    builder, batch, hash_set, expected = _acceptance_registry(tmp_path)
    data = LabeledDataset.from_vectors(build_training_vectors(100, 300, seed=2024))
    models, _ = train_all(data.rows, data.labels, data.schema, nu=0.001)

    registry = FixtureRegistry(builder.root)
    outcome = scan(registry, batch, models, hash_set,
                   reproducer_config=FIXTURE_BUILD)
    by_key = {(v.package, v.version): v for v in outcome.verdicts}

    malicious_ok = all(
        by_key[key].final == FLAGGED and by_key[key].model_flagged
        for key in expected["malicious"]
    )
    clone_verdict = by_key[expected["clone"]]
    clone_ok = (clone_verdict.final == FLAGGED
                and clone_verdict.clone_match is not None
                and clone_verdict.clone_match.package == "taken-down")
    planted_verdict = by_key[expected["planted"]]
    planted_ok = (planted_verdict.final == AUTO_CLEARED
                  and planted_verdict.reproduce_status == REPRODUCED)
    # The pattern-driven models must not flag any benign fixture. The
    # one-class SVM may produce a few false positives on fresh benign
    # packages by design (they go to triage); report them but do not fail.
    tree_nb_clean = all(
        by_key[key].model_flags[m] == B
        for key in expected["benign"] for m in ("decision-tree", "naive-bayes")
    )
    svm_fps = sum(
        1 for key in expected["benign"] if by_key[key].final == FLAGGED
    )
    no_errors = all(v.final != ERROR for v in outcome.verdicts)
    elapsed = time.monotonic() - start

    ok = (malicious_ok and clone_ok and planted_ok and tree_nb_clean
          and no_errors and elapsed < 60.0)
    flagged_count = sum(1 for v in outcome.verdicts if v.final == FLAGGED)
    _report("C9 end-to-end fixture scan (4 malicious + clone flagged, "
            "planted package auto-cleared)", ok,
            f"malicious: {malicious_ok}, clone: {clone_ok}, auto-clear: "
            f"{planted_ok}, tree+nb clean on benign: {tree_nb_clean}, "
            f"svm false positives: {svm_fps}/24, flagged total "
            f"{flagged_count}, {elapsed:.1f}s")


def test_c10_performance_envelopes(tmp_path):
    builder, batch, _, _ = _acceptance_registry(tmp_path)
    registry = FixtureRegistry(builder.root)

    extract_times = []
    for name, version in batch:
        dist = registry.fetch_document(name).dist.get(version)
        artifact = load_tarball(registry.fetch_tarball(name, version, dist))
        t0 = time.monotonic()
        extract_features(artifact)
        extract_times.append(time.monotonic() - t0)
    extract_ok = max(extract_times) < 10.0
    median_ok = float(np.median(extract_times)) < 1.0

    # 90k-row training set, generated directly in encoded form.
    rng = np.random.default_rng(90)
    n = 90_000
    X = np.zeros((n, 17))
    labels = np.array([M] * 30_000 + [B] * 60_000, dtype=object)
    X[:, 8] = rng.uniform(0, 8, size=n)          # entropy mean
    X[:, 9] = rng.uniform(0, 2, size=n)          # entropy std
    X[:30_000, 7] = rng.integers(1, 4, 30_000)   # malicious install scripts
    X[:30_000, 3] = rng.integers(1, 6, 30_000)   # malicious network use
    X[:, 10] = rng.uniform(0, 1e6, size=n)       # seconds since previous
    X[np.arange(n), 11 + rng.integers(0, 6, n)] = 1.0
    t0 = time.monotonic()
    models, _ = train_all(X, labels)
    train_elapsed = time.monotonic() - t0
    train_ok = train_elapsed < 30.0

    row = X[0]
    t0 = time.monotonic()
    predict_all(models, row)
    predict_elapsed = time.monotonic() - t0
    predict_ok = predict_elapsed < 1.0

    _report("C10 performance envelopes", extract_ok and median_ok and train_ok
            and predict_ok,
            f"extract max {max(extract_times)*1e3:.0f}ms median "
            f"{np.median(extract_times)*1e3:.0f}ms; train 90k "
            f"{train_elapsed:.1f}s; predict {predict_elapsed*1e3:.0f}ms")


def test_c11_pipeline_invariants(tmp_path):
    rng = np.random.default_rng(111)
    statuses = [None, REPRODUCED, "mismatch", "no-repo", "timeout",
                "build-failed", "ref-not-found"]
    monotonic_ok = True
    audit_ok = True
    for _ in range(100):
        flags = {m: (M if rng.random() < 0.4 else B) for m in MODEL_IDS}
        clone = object() if rng.random() < 0.25 else None
        status = statuses[int(rng.integers(0, len(statuses)))]
        error = "fetch failed" if rng.random() < 0.1 else None
        final = derive_final(flags, clone, status, error)
        any_model = any(v == M for v in flags.values())

        if error is not None:
            audit_ok &= final == ERROR
            continue
        # Clone detection only ever adds flags; the reproducer only ever
        # downgrades a model flag to auto-cleared, never clean -> flagged.
        if clone is not None:
            monotonic_ok &= final == FLAGGED
        if final == AUTO_CLEARED:
            monotonic_ok &= status == REPRODUCED and any_model and clone is None
        if not any_model and clone is None:
            monotonic_ok &= final == CLEAN
        without_reproducer = derive_final(flags, clone, None)
        if without_reproducer == CLEAN:
            monotonic_ok &= final == CLEAN  # reproducer cannot escalate

    # Scan idempotence plus audit re-derivation on a real fixture batch.
    builder, batch, hash_set, _ = _acceptance_registry(tmp_path)
    data = LabeledDataset.from_vectors(build_training_vectors(30, 90, seed=77))
    models, _ = train_all(data.rows, data.labels, data.schema, nu=0.001)
    registry = FixtureRegistry(builder.root)
    sub_batch = batch[:8] + [("typosquat-0", "3.1.9")]
    one = scan(registry, sub_batch, models, hash_set)
    two = scan(registry, sub_batch, models, hash_set)
    idempotent = ([v.to_record() for v in one.verdicts]
                  == [v.to_record() for v in two.verdicts])
    rederivable = all(
        v.final == derive_final(v.model_flags, v.clone_match,
                                v.reproduce_status, v.error)
        for v in one.verdicts
    )
    _report("C11 pipeline invariants (monotonicity, idempotence, audit "
            "re-derivation; 100 randomized sequences)",
            monotonic_ok and audit_ok and idempotent and rederivable,
            f"monotonic: {monotonic_ok}, idempotent: {idempotent}, "
            f"re-derivable: {rederivable}")
