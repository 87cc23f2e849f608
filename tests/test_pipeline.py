import hashlib
import json
import multiprocessing
import os
import re
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import PACK, make_manifest, make_tgz, raw_tgz
from oracles import ReferenceCorpus
from pkgwatch import pipeline
from pkgwatch.artifact import load_tarball
from pkgwatch.classifiers import (
    MODEL_IDS,
    MODEL_NB,
    MODEL_SVM,
    MODEL_TREE,
    LabeledDataset,
    train_all,
)
from pkgwatch.clones import MalwareHashSet, canonical_digest
from pkgwatch.errors import TooFewSamples, UnknownVersion
from pkgwatch.features import FeatureVector
from pkgwatch.pipeline import (
    AUTO_CLEARED,
    CLEAN,
    CORPUS_FORMAT,
    ERROR,
    FLAGGED,
    CorpusStore,
    ModelStore,
    ScanReport,
    Verdict,
    derive_final,
    label,
    record_scan,
    retrain,
    scan,
)
from pkgwatch.registry import FixtureRegistry
from pkgwatch.reproduce import REPRODUCED, STATUSES, ReproducerConfig
from pkgwatch.vectorize import BENIGN, MALICIOUS, ChangeVector, build_change_vector
from pkgwatch.versioning import UpdateType

from test_features import EXFIL_SCRIPT

M, B = MALICIOUS, BENIGN

FIXTURE_BUILD = ReproducerConfig(
    install_command="true", pack_command=PACK, build_scripts=(), timeout=60.0,
)


@pytest.fixture(scope="module")
def trained_models():
    from conftest import build_training_vectors
    from pkgwatch.classifiers import LabeledDataset

    data = LabeledDataset.from_vectors(build_training_vectors(40, 120, seed=1))
    models, _ = train_all(data.rows, data.labels, nu=0.001)
    return models


def test_derive_final_rules():
    flags_hit = {MODEL_TREE: M, MODEL_NB: B, MODEL_SVM: B}
    flags_none = {MODEL_TREE: B, MODEL_NB: B, MODEL_SVM: B}
    clone = object.__new__(type("P", (), {}))  # any non-None sentinel

    assert derive_final(flags_none, None, None) == CLEAN
    assert derive_final(flags_hit, None, None) == FLAGGED
    assert derive_final(flags_hit, None, REPRODUCED) == AUTO_CLEARED
    assert derive_final(flags_hit, None, "mismatch") == FLAGGED
    assert derive_final(flags_none, clone, None) == FLAGGED
    assert derive_final(flags_hit, clone, REPRODUCED) == FLAGGED  # clones stay
    assert derive_final(flags_none, None, None, error="boom") == ERROR


def test_derive_final_randomized_invariants():
    rng = np.random.default_rng(0)
    statuses = [None, REPRODUCED, "mismatch", "no-repo", "timeout"]
    for _ in range(300):
        flags = {m: M if rng.random() < 0.4 else B for m in MODEL_IDS}
        clone = object() if rng.random() < 0.3 else None
        status = statuses[rng.integers(0, len(statuses))]
        final = derive_final(flags, clone, status)
        any_model = any(v == M for v in flags.values())

        if clone is not None:
            assert final == FLAGGED  # clone detector only adds flags
        if final == AUTO_CLEARED:
            assert status == REPRODUCED and clone is None and any_model
        if not any_model and clone is None:
            assert final == CLEAN
        # The reproducer never escalates a clean verdict.
        assert not (final == FLAGGED and not any_model and clone is None)


# --- scanning against a fixture registry ---

def seeded_registry(builder):
    """25 benign, 3 exfiltrator updates, 1 harvester update, 1 clone."""
    from conftest import _benign_module
    from test_features import HARVESTER_SCRIPT

    rng = np.random.default_rng(99)
    day1 = "2021-08-01T00:00:00.000Z"
    day2 = "2021-08-02T00:00:00.000Z"
    day2_plus_ms = "2021-08-02T00:00:00.001Z"

    for i in range(25):
        builder.add_version(
            f"benign-{i:02d}", "1.0.0", published=day1,
            files=_benign_module(rng),
        )

    for i in range(3):
        name = f"typo-target-{i}"
        builder.add_version(name, "3.1.8", published=day1,
                            files={"index.js": "module.exports = 1;"})
        builder.add_version(
            name, "3.1.9", published=day2_plus_ms,
            files={"index.js": "module.exports = 1;", "test.js": EXFIL_SCRIPT},
            scripts={"postinstall": "node test.js"},
        )

    builder.add_version("webframe", "0.0.1", published=day1,
                        files={"component.js": "module.exports = 0;"})
    builder.add_version("webframe", "0.0.2", published=day2,
                        files={"component.js": "module.exports = 1;"})
    builder.add_version("webframe", "0.0.3", published=day2_plus_ms,
                        files={"component.js": HARVESTER_SCRIPT})

    clone_payload = {"index.js": "module.exports = 1;", "test.js": EXFIL_SCRIPT}
    original = builder.add_version(
        "known-bad", "1.0.0", published=day1, files=clone_payload,
        scripts={"postinstall": "node test.js"},
    )
    # Verbatim clone republished under a fresh name; no install script in the
    # manifest would change features, so keep the same manifest shape.
    builder.add_version(
        "innocent-sounding", "2.0.0", published=day2, files=clone_payload,
        scripts={"postinstall": "node test.js"},
    )
    return original


def test_scan_flags_exfiltrator_update(registry_builder, trained_models, tmp_path):
    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")

    outcome = scan(registry, [("typo-target-0", "3.1.9")], trained_models, hash_set)
    verdict = outcome.verdicts[0]
    assert verdict.model_flagged
    assert verdict.final == FLAGGED
    assert outcome.vectors[0].update_type is UpdateType.PATCH
    assert outcome.vectors[0].delta("install_scripts") == 1.0


def test_scan_clean_package(registry_builder, trained_models, tmp_path):
    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    outcome = scan(registry, [("benign-00", "1.0.0")], trained_models, hash_set)
    assert outcome.verdicts[0].final == CLEAN


def test_clone_flagged_even_if_models_say_benign(registry_builder, trained_models, tmp_path):
    original = seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    hash_set.register(canonical_digest(load_tarball(original)),
                      "known-bad", "1.0.0")

    outcome = scan(registry, [("innocent-sounding", "2.0.0")],
                   trained_models, hash_set)
    verdict = outcome.verdicts[0]
    assert verdict.clone_match is not None
    assert verdict.clone_match.package == "known-bad"
    assert verdict.final == FLAGGED


def test_scan_error_item_does_not_abort_batch(registry_builder, trained_models, tmp_path):
    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    outcome = scan(
        registry,
        [("benign-00", "1.0.0"), ("ghost", "1.0.0"), ("benign-01", "1.0.0")],
        trained_models, hash_set,
    )
    finals = {f"{v.package}": v.final for v in outcome.verdicts}
    assert finals["ghost"] == ERROR
    assert finals["benign-00"] == CLEAN
    assert finals["benign-01"] == CLEAN


def test_scan_idempotent(registry_builder, trained_models, tmp_path):
    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    batch = [("typo-target-0", "3.1.9"), ("benign-00", "1.0.0"),
             ("webframe", "0.0.3")]
    one = scan(registry, batch, trained_models, hash_set)
    two = scan(registry, batch, trained_models, hash_set)
    assert [v.to_record() for v in one.verdicts] == [v.to_record() for v in two.verdicts]


def test_scan_parallel_matches_serial(registry_builder, trained_models, tmp_path):
    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    # In-batch predecessors: webframe 0.0.2 precedes 0.0.3, each 3.1.8 its 3.1.9.
    batch = [(f"benign-{i:02d}", "1.0.0") for i in range(10)]
    batch += [("webframe", "0.0.2"), ("webframe", "0.0.3")]
    batch += [(f"typo-target-{i}", v) for i in range(3) for v in ("3.1.8", "3.1.9")]
    serial = scan(registry, batch, trained_models, hash_set, jobs=1)
    parallel = scan(registry, batch, trained_models, hash_set, jobs=4)
    assert [v.to_record() for v in serial.verdicts] == \
           [v.to_record() for v in parallel.verdicts]
    assert serial.vectors == parallel.vectors
    assert len(serial.vectors) == len(batch)
    assert multiprocessing.active_children() == []


def test_scan_dead_worker_costs_only_verdicts(registry_builder, trained_models, tmp_path,
                                              monkeypatch):
    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    batch = [(f"benign-{i:02d}", "1.0.0") for i in range(10)]
    extract = pipeline.extract_features

    def dying_extract(artifact, table):
        if artifact.name == "benign-04":
            os._exit(1)  # as an OOM kill or a segfault would end the worker
        return extract(artifact, table)

    monkeypatch.setattr(pipeline, "extract_features", dying_extract)
    outcome = scan(registry, batch, trained_models, hash_set, jobs=2)

    assert [(v.package, v.version) for v in outcome.verdicts] == batch
    lost = {v.package: v.error for v in outcome.verdicts if v.final == ERROR}
    assert "benign-04" in lost
    for error in lost.values():
        assert error == "scan worker process died before returning this package's result"
    assert all(v.final == CLEAN for v in outcome.verdicts if v.package not in lost)
    assert len(outcome.vectors) == len(batch) - len(lost)
    assert multiprocessing.active_children() == []


class CountingRegistry:
    """Forwards to a registry and counts the calls a scan makes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def fetch_document(self, name):
        self.calls["fetch_document"] += 1
        return self.inner.fetch_document(name)

    def fetch_tarball(self, name, version, dist):
        self.calls["fetch_tarball"] += 1
        return self.inner.fetch_tarball(name, version, dist)


# Publish order 1.9.0, 1.10.0, 1.11.0 differs from string order ("1.10.0" < "1.9.0").
@pytest.mark.parametrize("batch, fetched, update_types", [
    ([("lib", "1.10.0"), ("lib", "1.11.0")], ("1.9.0", "1.10.0", "1.11.0"),
     [UpdateType.MINOR, UpdateType.MINOR]),
    ([("lib", "1.9.0"), ("lib", "1.10.0")], ("1.9.0", "1.10.0"),
     [UpdateType.FIRST, UpdateType.MINOR]),
])
def test_scan_reads_document_once_and_each_version_once(
        batch, fetched, update_types, registry_builder, trained_models, tmp_path,
        monkeypatch):
    for version, day in (("1.9.0", 1), ("1.10.0", 2), ("1.11.0", 3)):
        registry_builder.add_version(
            "lib", version, published=f"2021-08-0{day}T00:00:00Z",
            files={"index.js": f"exports.v = '{version}';\n" * day},
        )
    fixture = FixtureRegistry(registry_builder.root)
    registry = CountingRegistry(fixture)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    extracted = Counter()
    extract = pipeline.extract_features

    def counting_extract(artifact, table):
        extracted[artifact.version] += 1
        return extract(artifact, table)

    monkeypatch.setattr(pipeline, "extract_features", counting_extract)
    outcome = scan(registry, batch, trained_models, hash_set)

    assert registry.calls == {"fetch_document": 1, "fetch_tarball": len(fetched)}
    assert extracted == dict.fromkeys(fetched, 1)
    alone = {item: scan(fixture, [item], trained_models, hash_set).vectors[0]
             for item in batch}
    assert outcome.vectors == [alone[item] for item in sorted(batch)]
    assert [alone[item].update_type for item in batch] == update_types


def test_scan_digests_each_item_once_per_algorithm(registry_builder, trained_models,
                                                  tmp_path, monkeypatch):
    from pkgwatch import clones

    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")
    other = load_tarball(make_tgz(name="other", files={"y.js": "eval(c)"}))
    for algorithm in ("md5", "blake2b-128"):
        hash_set.register(canonical_digest(other, algorithm), "other", "1.0.0")
    hashed = Counter()
    digest = clones.canonical_digest

    def counting_digest(artifact, algorithm="md5"):
        hashed[algorithm] += 1
        return digest(artifact, algorithm)

    monkeypatch.setattr(clones, "canonical_digest", counting_digest)
    monkeypatch.setattr(pipeline, "canonical_digest", counting_digest)
    batch = [("benign-00", "1.0.0"), ("benign-01", "1.0.0")]
    outcome = scan(registry, batch, trained_models, hash_set)
    assert [v.final for v in outcome.verdicts] == [CLEAN, CLEAN]
    assert hashed == {"md5": 2, "blake2b-128": 2}


def test_scan_hostile_items_become_error_verdicts(registry_builder, trained_models,
                                                  tmp_path, monkeypatch):
    from test_artifact import DEEP_MANIFEST

    seeded_registry(registry_builder)
    hostile = raw_tgz([("package/package.json", DEEP_MANIFEST, "file")])
    registry_builder.add_version(
        "deep", "1.0.0", published="2021-08-02T00:00:00Z",
        declared_shasum=hashlib.sha1(hostile).hexdigest(),
    )
    (registry_builder.root / "deep-1.0.0.tgz").write_bytes(hostile)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")

    outcome = scan(registry, [("deep", "1.0.0"), ("benign-00", "1.0.0")],
                   trained_models, hash_set)
    finals = {v.package: v.final for v in outcome.verdicts}
    assert finals == {"deep": ERROR, "benign-00": CLEAN}

    # An exception of any type costs only its own package's items.
    extract = pipeline.extract_features

    def failing_extract(artifact, table):
        if artifact.name == "benign-01":
            raise RuntimeError("extractor bug")
        return extract(artifact, table)

    monkeypatch.setattr(pipeline, "extract_features", failing_extract)
    for jobs in (1, 2):
        outcome = scan(registry, [("benign-00", "1.0.0"), ("benign-01", "1.0.0")],
                       trained_models, hash_set, jobs=jobs)
        assert [(v.package, v.final, v.error) for v in outcome.verdicts] == [
            ("benign-00", CLEAN, None), ("benign-01", ERROR, "extractor bug"),
        ]


def scan_rebuildable(registry_builder, trained_models, tmp_path, config):
    import test_reproduce

    # A brand-new package with install script + network use (so the models
    # flag it) whose declared repository rebuilds to identical content. The
    # repo URL is known up front, so both manifests can carry it and agree
    # canonically (name/version are stripped from the digest anyway).
    files = {"index.js": "module.exports = 1;", "test.js": EXFIL_SCRIPT}
    scripts = {"postinstall": "node test.js"}
    repo_dir = tmp_path / "srcrepo"
    url = f"file://{repo_dir}"

    repo_files = {
        "package.json": make_manifest("upstream", "1.0.0", scripts,
                                      {"repository": url}),
        **files,
    }
    test_reproduce.init_git_repo(repo_dir, repo_files, tag="v1.0.0")

    registry_builder.add_version(
        "fresh-legit", "1.0.0", published="2021-08-02T00:00:00Z",
        files=files, scripts=scripts, manifest_extra={"repository": url},
    )
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "hashes.txt")

    outcome = scan(registry, [("fresh-legit", "1.0.0")], trained_models,
                   hash_set, reproducer_config=config)
    verdict = outcome.verdicts[0]
    assert verdict.model_flagged
    return verdict


def test_flagged_but_reproducible_is_auto_cleared(registry_builder, trained_models,
                                                  tmp_path):
    verdict = scan_rebuildable(registry_builder, trained_models, tmp_path, FIXTURE_BUILD)
    assert verdict.reproduce_status == REPRODUCED
    assert verdict.final == AUTO_CLEARED


def test_build_output_that_is_not_utf8_keeps_the_verdict(registry_builder, trained_models,
                                                         tmp_path):
    config = replace(FIXTURE_BUILD, install_command="printf '\\377'")
    verdict = scan_rebuildable(registry_builder, trained_models, tmp_path, config)
    assert verdict.reproduce_status == REPRODUCED
    assert verdict.final == AUTO_CLEARED


# --- stores ---

def first_vector(package="p", version="1.0.0", label=None):
    return build_change_vector(
        None, FeatureVector(network_access=1), UpdateType.FIRST, 0.0,
        package=package, version=version, label=label,
    )


def test_corpus_store_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    store = CorpusStore(path)
    assert store.add_vector(first_vector(), digest="md5:" + "0" * 32)
    assert not store.add_vector(first_vector())  # (package, version) unique
    assert len(store) == 1

    reloaded = CorpusStore(path)
    assert len(reloaded) == 1
    assert reloaded.get("p", "1.0.0").digest == "md5:" + "0" * 32


def test_corpus_store_labeling_and_audit(tmp_path):
    path = tmp_path / "corpus.jsonl"
    store = CorpusStore(path)
    store.add_vector(first_vector())
    store.set_label("p", "1.0.0", MALICIOUS)
    store.set_label("p", "1.0.0", BENIGN)  # relabel, latest wins

    reloaded = CorpusStore(path)
    entry = reloaded.get("p", "1.0.0")
    assert entry.vector.label == BENIGN
    assert entry.label_history == [MALICIOUS, BENIGN]  # audit trail preserved
    with pytest.raises(UnknownVersion):
        store.set_label("nope", "1.0.0", BENIGN)


def test_corpus_hash_changes_with_content(tmp_path):
    store = CorpusStore(tmp_path / "c.jsonl")
    store.add_vector(first_vector(label=MALICIOUS))
    h1 = store.corpus_hash()
    store.add_vector(first_vector(package="q", label=BENIGN))
    assert store.corpus_hash() != h1


def test_corpus_hash_equal_in_memory_and_reloaded(tmp_path):
    path = tmp_path / "c.jsonl"
    store = CorpusStore(path)
    store.add_vector(first_vector(package="m", label=MALICIOUS), digest="md5:" + "1" * 32)
    store.add_vector(first_vector(package="u"))
    store.add_vector(build_change_vector(
        FeatureVector(fs_access=2), FeatureVector(entropy_mean=4.25), UpdateType.MINOR,
        12.5, package="b", version="1.1.0", label=BENIGN,
    ))
    store.set_label("m", "1.0.0", BENIGN)
    reloaded = CorpusStore(path)
    for include_unlabeled in (False, True):
        assert reloaded.corpus_hash(include_unlabeled) == store.corpus_hash(include_unlabeled)


def test_corpus_hash_changes_on_relabel(tmp_path):
    store = CorpusStore(tmp_path / "c.jsonl")
    store.add_vector(first_vector(package="a", label=BENIGN))
    store.add_vector(first_vector(package="b", label=BENIGN))
    before = store.corpus_hash()
    store.set_label("b", "1.0.0", MALICIOUS)
    assert store.corpus_hash() != before


def test_corpus_hash_counts_unlabeled_as_the_benign_rows_they_train_as(tmp_path):
    unlabeled = CorpusStore(tmp_path / "u.jsonl")
    labeled = CorpusStore(tmp_path / "l.jsonl")
    for store, label in ((unlabeled, None), (labeled, BENIGN)):
        store.add_vector(first_vector(package="m", label=MALICIOUS))
        store.add_vector(first_vector(package="x", label=label))
    assert unlabeled.corpus_hash(True) == labeled.corpus_hash(True)
    assert unlabeled.corpus_hash(False) != labeled.corpus_hash(False)


def test_corpus_hash_definition(tmp_path):
    store = CorpusStore(tmp_path / "c.jsonl")
    store.add_vector(first_vector(package="z", label=BENIGN))
    store.add_vector(first_vector(package="a", label=MALICIOUS))
    store.add_vector(first_vector(package="u"))
    data = store.training_set(include_unlabeled=True)
    expected = hashlib.sha256(
        b"pkgwatch-corpus-hash/2\n"
        + b'[["a","1.0.0"],["u","1.0.0"],["z","1.0.0"]]'
        + bytes([1, 0, 0])
        + data.rows.astype("<f8").tobytes()
    ).hexdigest()
    assert store.corpus_hash(include_unlabeled=True) == expected


def test_corpus_store_concurrent_adds_and_reads(tmp_path):
    path = tmp_path / "c.jsonl"
    store = CorpusStore(path)
    writers, per_writer = 4, 300

    def add(writer):
        for i in range(per_writer):
            label = (None, MALICIOUS, BENIGN)[i % 3]
            store.add_vector(first_vector(package=f"w{writer}-{i:03d}", label=label))

    errors = []

    def read():
        try:
            while any(t.is_alive() for t in threads[:writers]):
                assert len(store.training_set(include_unlabeled=True).labels) <= len(store)
                store.corpus_hash()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=add, args=(w,)) for w in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(store) == writers * per_writer
    reloaded = CorpusStore(path)
    for include_unlabeled in (False, True):
        assert store.corpus_hash(include_unlabeled) == reloaded.corpus_hash(include_unlabeled)
        assert len(store.training_set(include_unlabeled).labels) == \
            len(reloaded.training_set(include_unlabeled).labels)


def write_corpus_log(path, seed: int) -> None:
    """A corpus log with every case of the fold: unlabeled rows, relabels,
    labeled vectors replacing unlabeled ones, duplicate vectors and labels
    of unknown keys, interleaved at random."""
    rng = np.random.default_rng(seed)
    update_types = list(UpdateType)

    def vector(package, version, label):
        update_type = update_types[rng.integers(len(update_types))]
        first = update_type is UpdateType.FIRST
        record = ChangeVector(
            package=package, version=version,
            deltas=tuple(float(d) for d in rng.normal(0, 3, 10).round(rng.integers(0, 4))),
            update_type=update_type,
            time_since_prev=0.0 if first else float(rng.exponential(1e5)),
            label=label,
        ).to_record()
        digest = None if rng.random() < 0.3 else f"md5:{rng.integers(1 << 60):032x}"
        return {"event": "vector", "vector": record, "digest": digest}

    def labeling(package, version, label):
        return {"event": "label", "package": package, "version": version,
                "label": label, "date": f"2021-08-{rng.integers(1, 29):02d}T00:00:00+00:00"}

    keys = [(f"pkg-{i:03d}", f"1.{i % 4}.0") for i in range(120)]
    labels = [None, None, MALICIOUS, BENIGN]
    events = [vector(*keys[i], labels[rng.integers(4)]) for i in rng.integers(0, 120, 200)]
    events += [labeling(*keys[i], (MALICIOUS, BENIGN)[rng.integers(2)])
               for i in rng.integers(0, 120, 60)]
    events += [labeling("ghost", "0.0.1", MALICIOUS)]
    rng.shuffle(events)
    events += [
        vector("swap", "1.0.0", None), vector("swap", "1.0.0", MALICIOUS),
        vector("dup", "1.0.0", BENIGN), vector("dup", "1.0.0", MALICIOUS),
        vector("relabel", "1.0.0", None),
        labeling("relabel", "1.0.0", MALICIOUS), labeling("relabel", "1.0.0", BENIGN),
        labeling("ghost", "0.0.2", BENIGN),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": "pkgwatch-corpus"}) + "\n")
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corpus_store_matches_object_per_row_fold(tmp_path, seed):
    path = tmp_path / "c.jsonl"
    write_corpus_log(path, seed)
    store, oracle = CorpusStore(path), ReferenceCorpus(path)
    assert len(store) == len(oracle.entries)
    assert store.get("swap", "1.0.0").vector.label == MALICIOUS
    assert store.get("dup", "1.0.0").vector.label == BENIGN
    assert store.get("relabel", "1.0.0").label_history == [MALICIOUS, BENIGN]
    assert store.get("ghost", "0.0.1") is None
    for include_unlabeled in (False, True):
        data = store.training_set(include_unlabeled)
        expected = LabeledDataset.from_vectors(oracle.training_vectors(include_unlabeled))
        assert data.rows.dtype == expected.rows.dtype
        assert data.rows.tobytes() == expected.rows.tobytes()
        assert data.labels.tolist() == expected.labels.tolist()
    for key, entry in oracle.entries.items():
        stored = store.get(*key)
        assert (stored.vector, stored.digest, stored.label_date, stored.label_history) == (
            entry["vector"], entry["digest"], entry["date"], entry["history"])


VALID_RECORD = first_vector().to_record()


@pytest.mark.parametrize("line, reason", [
    ('{"event": "vector", "vector": ', "Expecting value"),
    (json.dumps({"event": "vector", "vector": {
        k: v for k, v in VALID_RECORD.items() if k != "time_since_prev"}}),
     "missing field 'time_since_prev'"),
    (json.dumps({"event": "vector", "vector": {**VALID_RECORD, "update_type": "sideways"}}),
     "unknown update type: 'sideways'"),
    (json.dumps({"event": "vector", "vector": {**VALID_RECORD, "time_since_prev": -1.0}}),
     "time_since_prev must be >= 0"),
    (json.dumps({"event": "label", "package": "p", "version": "1.0.0", "label": "evil"}),
     "unknown label: 'evil'"),
], ids=["bad-json", "missing-field", "unknown-update-type", "negative-time", "bad-label"])
def test_corpus_load_error_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "c.jsonl"
    CorpusStore(path).add_vector(first_vector())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: {reason}")):
        CorpusStore(path)


@pytest.mark.parametrize("field", ["entropy_mean", "time_since_prev"])
@pytest.mark.parametrize("text, shown", [("NaN", "nan"), ("Infinity", "inf"), ("1e999", "inf")])
def test_corpus_load_rejects_a_value_that_is_not_finite(tmp_path, field, text, shown):
    path = tmp_path / "c.jsonl"
    store = CorpusStore(path)
    store.add_vector(first_vector())
    record = first_vector(package="q").to_record()
    if field == "time_since_prev":
        record[field] = "@"
    else:
        record["deltas"][field] = "@"
    line = json.dumps({"event": "vector", "vector": record}).replace('"@"', text)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    store.set_label("p", "1.0.0", BENIGN)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: {field} is not a finite number: {shown}")):
        CorpusStore(path)


def test_corpus_load_ignores_a_value_the_fold_discards(tmp_path):
    path = tmp_path / "c.jsonl"
    CorpusStore(path).add_vector(first_vector(label=BENIGN))
    record = first_vector(label=MALICIOUS).to_record()
    record["deltas"]["entropy_mean"] = "@"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"event": "vector", "vector": record}).replace('"@"', "NaN") + "\n")
    assert CorpusStore(path).get("p", "1.0.0").vector.label == BENIGN


def test_corpus_load_names_the_line_of_the_kept_row(tmp_path):
    # Line 2, unlabeled, has a NaN; line 3, labeled, replaces it and has an
    # Infinity: the error names line 3, the row the fold keeps.
    path = tmp_path / "c.jsonl"
    unlabeled = first_vector().to_record()
    unlabeled["deltas"]["entropy_mean"] = "@"
    labeled = first_vector(label=MALICIOUS).to_record()
    labeled["time_since_prev"] = "@"
    lines = [json.dumps({"event": "vector", "vector": record})
             for record in (unlabeled, labeled)]
    path.write_text(json.dumps({"format": CORPUS_FORMAT}) + "\n" +
                    lines[0].replace('"@"', "NaN") + "\n" +
                    lines[1].replace('"@"', "Infinity") + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: time_since_prev is not a finite number: inf")):
        CorpusStore(path)


def test_label_true_positive_registers_digest(tmp_path):
    corpus = CorpusStore(tmp_path / "c.jsonl")
    hash_set = MalwareHashSet(tmp_path / "h.txt")
    artifact = load_tarball(make_tgz(name="bad", files={"x.js": "eval(a)"}))
    digest = canonical_digest(artifact)
    corpus.add_vector(first_vector(package="bad"), digest=str(digest))

    label(corpus, hash_set, "bad", "1.0.0", "true-positive")
    assert corpus.get("bad", "1.0.0").vector.label == MALICIOUS
    assert hash_set.lookup(digest) is not None


def test_label_true_positive_with_unusable_digest_records_nothing(tmp_path):
    corpus = CorpusStore(tmp_path / "c.jsonl")
    hash_set = MalwareHashSet(tmp_path / "h.txt")
    corpus.add_vector(first_vector(package="odd"), digest="sha256:00ff")
    before = (tmp_path / "c.jsonl").read_text()
    with pytest.raises(ValueError):
        label(corpus, hash_set, "odd", "1.0.0", "true-positive")
    assert (tmp_path / "c.jsonl").read_text() == before
    assert corpus.get("odd", "1.0.0").vector.label is None
    assert CorpusStore(tmp_path / "c.jsonl").get("odd", "1.0.0").vector.label is None
    assert len(hash_set) == 0
    # A false-positive label needs no digest.
    label(corpus, hash_set, "odd", "1.0.0", "false-positive")
    assert corpus.get("odd", "1.0.0").vector.label == BENIGN


def test_label_false_positive_adds_benign(tmp_path):
    corpus = CorpusStore(tmp_path / "c.jsonl")
    hash_set = MalwareHashSet(tmp_path / "h.txt")
    corpus.add_vector(first_vector(package="fine"), digest=None)
    label(corpus, hash_set, "fine", "1.0.0", "false-positive")
    assert corpus.get("fine", "1.0.0").vector.label == BENIGN
    assert len(hash_set) == 0
    with pytest.raises(ValueError):
        label(corpus, hash_set, "fine", "1.0.0", "meh")


def test_record_scan_persists_vectors(registry_builder, trained_models, tmp_path):
    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    corpus = CorpusStore(tmp_path / "c.jsonl")
    hash_set = MalwareHashSet(tmp_path / "h.txt")
    outcome = scan(registry, [("benign-00", "1.0.0"), ("benign-01", "1.0.0")],
                   trained_models, hash_set)
    assert record_scan(corpus, outcome) == 2
    assert record_scan(corpus, outcome) == 0  # idempotent
    assert corpus.get("benign-00", "1.0.0").digest.startswith("md5:")


# --- retraining ---

def test_retrain_trains_all_three(tmp_path):
    corpus = CorpusStore(tmp_path / "c.jsonl")
    for i in range(6):
        corpus.add_vector(first_vector(package=f"m{i}", label=MALICIOUS))
    for i in range(8):
        corpus.add_vector(build_change_vector(
            FeatureVector(), FeatureVector(), UpdateType.PATCH, 100.0 + i,
            package=f"b{i}", version="1.0.1", label=BENIGN,
        ))
    models, skipped = retrain(corpus)
    assert set(models) == set(MODEL_IDS)
    assert skipped == {}


def test_retrain_zero_malicious_keeps_svm_only(tmp_path):
    corpus = CorpusStore(tmp_path / "c.jsonl")
    for i in range(5):
        corpus.add_vector(first_vector(package=f"b{i}", label=BENIGN))
    models, skipped = retrain(corpus)
    assert set(models) == {MODEL_SVM}
    assert MODEL_TREE in skipped and MODEL_NB in skipped


def test_retrain_assume_unflagged_benign(tmp_path):
    corpus = CorpusStore(tmp_path / "c.jsonl")
    corpus.add_vector(first_vector(package="m0", label=MALICIOUS))
    corpus.add_vector(first_vector(package="m1", label=MALICIOUS))
    for i in range(4):
        corpus.add_vector(build_change_vector(
            FeatureVector(), FeatureVector(), UpdateType.PATCH, 50.0,
            package=f"u{i}", version="2.0.0",
        ))  # unlabeled
    with pytest.raises(TooFewSamples):
        retrain(corpus, assume_unflagged_benign=False)
    models, skipped = retrain(corpus, assume_unflagged_benign=True)
    assert set(models) == set(MODEL_IDS)


def test_retrain_deterministic(tmp_path):
    corpus = CorpusStore(tmp_path / "c.jsonl")
    for i in range(4):
        corpus.add_vector(first_vector(package=f"m{i}", label=MALICIOUS))
    for i in range(6):
        corpus.add_vector(build_change_vector(
            FeatureVector(), FeatureVector(entropy_mean=0.5), UpdateType.MINOR,
            40.0, package=f"b{i}", version="1.1.0", label=BENIGN,
        ))
    a, _ = retrain(corpus)
    b, _ = retrain(corpus)
    for model_id in MODEL_IDS:
        assert json.dumps(a[model_id].to_dict(), sort_keys=True) == \
               json.dumps(b[model_id].to_dict(), sort_keys=True)


def test_model_store_versioning(tmp_path):
    corpus_like_models, _ = retrain_fixture(tmp_path)
    store = ModelStore(tmp_path / "models")
    assert store.version() == 0
    assert store.save(corpus_like_models, corpus_hash="abc") == 1
    assert store.save(corpus_like_models, corpus_hash="def") == 2
    loaded = store.load()
    assert set(loaded) == set(corpus_like_models)


def retrain_fixture(tmp_path):
    corpus = CorpusStore(tmp_path / "seed.jsonl")
    for i in range(3):
        corpus.add_vector(first_vector(package=f"m{i}", label=MALICIOUS))
    for i in range(4):
        corpus.add_vector(build_change_vector(
            FeatureVector(), FeatureVector(), UpdateType.PATCH, 10.0,
            package=f"b{i}", version="1.0.1", label=BENIGN,
        ))
    return retrain(corpus)


# --- reporting ---

def test_report_summary_and_round_trip(tmp_path):
    verdicts = [
        Verdict(package="a", version="1", model_flags={MODEL_TREE: M},
                final=FLAGGED),
        Verdict(package="b", version="1", final=CLEAN),
        Verdict(package="c", version="1", model_flags={MODEL_TREE: M},
                reproduce_status=REPRODUCED, final=AUTO_CLEARED),
    ]
    report = ScanReport(verdicts)
    summary = report.summary()
    assert summary["total"] == 3
    assert summary["flagged"] == 1
    assert summary["auto_cleared"] == 1
    assert summary["reproducer_clears"] == 1
    assert summary["model_flags"][MODEL_TREE] == 2

    path = tmp_path / "report.jsonl"
    report.write(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4  # one per verdict + summary
    reread = ScanReport.read(path)
    assert [v.to_record() for v in reread.verdicts] == \
           [v.to_record() for v in verdicts]


def test_report_reads_back_every_reproduce_status_and_triage(tmp_path):
    flags = {MODEL_TREE: M}
    verdicts = [
        Verdict(package=f"p{k}", version="1", model_flags=flags, reproduce_status=status,
                triage=triage, final=derive_final(flags, None, status))
        for k, (status, triage) in enumerate(
            (status, triage) for status in STATUSES
            for triage in (None, "true-positive", "false-positive"))
    ]
    path = tmp_path / "report.jsonl"
    ScanReport(verdicts).write(path)
    assert [v.to_record() for v in ScanReport.read(path).verdicts] == \
           [v.to_record() for v in verdicts]


def test_report_empty_batch():
    summary = ScanReport([]).summary()
    assert summary["total"] == 0
    assert summary["flagged"] == 0


def test_audit_rederivation_from_recorded_fields(registry_builder, trained_models,
                                                 tmp_path):
    original = seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    hash_set = MalwareHashSet(tmp_path / "h.txt")
    hash_set.register(canonical_digest(load_tarball(original)), "known-bad", "1.0.0")
    batch = [("typo-target-1", "3.1.9"), ("benign-03", "1.0.0"),
             ("innocent-sounding", "2.0.0"), ("ghost", "0.0.1")]
    outcome = scan(registry, batch, trained_models, hash_set)
    for verdict in outcome.verdicts:
        assert verdict.final == derive_final(
            verdict.model_flags, verdict.clone_match,
            verdict.reproduce_status, verdict.error,
        )


def test_scan_with_partial_model_set(registry_builder, tmp_path):
    # A zero-malicious corpus trains only the SVM; scanning still works.
    from conftest import build_training_vectors

    corpus = CorpusStore(tmp_path / "c.jsonl")
    for vector in build_training_vectors(0, 30, seed=9):
        corpus.add_vector(vector)
    models, skipped = retrain(corpus)
    assert set(models) == {MODEL_SVM}

    seeded_registry(registry_builder)
    registry = FixtureRegistry(registry_builder.root)
    outcome = scan(registry, [("benign-00", "1.0.0")], models,
                   MalwareHashSet(tmp_path / "h.txt"))
    assert set(outcome.verdicts[0].model_flags) == {MODEL_SVM}
