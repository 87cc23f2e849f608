"""Tests of the benchmark itself: input generation, span arithmetic, checker.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from pkgwatch.classifiers import MODEL_NB, MODEL_SVM, MODEL_TREE  # noqa: E402
from pkgwatch.pipeline import CLEAN, FLAGGED, ScanOutcome, Verdict  # noqa: E402
from pkgwatch.vectorize import BENIGN, MALICIOUS  # noqa: E402


# --- generation ---------------------------------------------------------------


def _drop_created(doc):
    if isinstance(doc, dict):
        return {k: _drop_created(v) for k, v in doc.items() if k != "created"}
    return doc


def _fingerprint(root: Path) -> dict[str, str]:
    """sha256 of every generated file; model files without their timestamps.

    Git's own bookkeeping (index stat data) is not content, so only the
    rebuild repositories' commit ids stand for them.
    """
    out = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if not path.is_file() or ".git" in rel.parts:
            continue
        data = path.read_bytes()
        if rel.parts[0] == "models":
            data = json.dumps(_drop_created(json.loads(data)), sort_keys=True).encode()
        out[str(rel)] = hashlib.sha256(data).hexdigest()
    for repo in sorted((root / "repos").glob("*")):
        head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        out[f"{repo.relative_to(root)}@HEAD"] = head.stdout.strip()
    return out


def _generate(workload: str, seed: int, out: Path, reference: Path):
    subprocess.run([sys.executable, str(BENCH / "fixtures.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out), "--reference", str(reference)],
                   check=True, timeout=170)
    return _fingerprint(out), _fingerprint(reference)


def test_generation_is_byte_deterministic(tmp_path):
    out = tmp_path / "in"
    first = _generate("micro-feed", 3, out, tmp_path / "reference-a")
    shutil.rmtree(out)
    second = _generate("micro-feed", 3, out, tmp_path / "reference-b")
    assert first == second
    feed, reference = first
    assert "truth.json" in feed and "hashes.txt" in feed
    assert any(name.startswith("repos/") for name in feed)
    assert "corpus.jsonl" in reference and "models/manifest.json" in reference

    shutil.rmtree(out)
    assert _generate("micro-feed", 4, out, tmp_path / "reference-b") != first


# --- spans ----------------------------------------------------------------------


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, None, 0)


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),    # overlaps a (another thread)
        _span("c", 8.0, 12.0, parent=0),   # runs past its parent's end
        _span("a.x", 1.5, 2.5, parent=1),  # grandchild: only a loses it
    ]
    selfs = spans.self_times(synthetic)
    assert selfs == pytest.approx([10.0 - (4.0 + 2.0), 1.0, 3.0, 4.0, 1.0])


def test_covered_merges_touching_and_nested_intervals():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 1), (1, 2), (5, 6), (5.5, 5.7)]) == pytest.approx(3.0)


def test_tracer_wraps_and_restores(tmp_path):
    import pkgwatch.features as features
    from pkgwatch.registry import FixtureRegistry

    module_original = features.shannon_entropy
    method_original = FixtureRegistry.__dict__["fetch_document"]
    tracer = spans.Tracer()
    tracer.wrap(features, "shannon_entropy", "features.shannon_entropy",
                size=lambda args, result: len(args[0]))
    tracer.wrap(FixtureRegistry, "fetch_document", "registry.fetch_document")
    with tracer.span("outer"):
        features.shannon_entropy(b"abcd")
        with pytest.raises(Exception):
            FixtureRegistry(tmp_path).fetch_document("absent")
    tracer.restore()

    assert features.shannon_entropy is module_original
    assert FixtureRegistry.__dict__["fetch_document"] is method_original
    assert [s.name for s in tracer.spans] == [
        "outer", "features.shannon_entropy", "registry.fetch_document"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[1].size == 4
    assert tracer.spans[2].error == "NotFound"
    tracer.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 3


# --- aggregation ---------------------------------------------------------------


def test_end_to_end_aggregates_over_the_whole_run():
    samples = run.Samples(setup_s=[1.0, 3.0, 2.0], batch_s={"j1": [1.0, 3.0], "jN": [2.0]},
                          watch_ms=[1.0, 2.0, 3.0, 40.0], label_ms=[0.1, 0.3],
                          retrain_s=[4.0, 6.0, 11.0])
    metrics = {name: value for name, (value, unit) in run.end_to_end(samples, 10).items()}
    assert metrics["setup_s"] == 2.0
    assert metrics["items_per_s_j1"] == pytest.approx(20 / 4.0)  # all items over all time
    assert metrics["items_per_s_jN"] == pytest.approx(5.0)
    assert metrics["item_p50_ms"] == pytest.approx(2.5)
    assert 3.0 < metrics["item_p95_ms"] < 40.0
    assert metrics["label_p50_ms"] == pytest.approx(0.2)
    assert metrics["retrain_s"] == 7.0


def test_label_percentiles_average_over_blocks_of_calls(monkeypatch):
    monkeypatch.setattr(run, "LABEL_BLOCK", 4)
    fast, slow = [1.0, 1.0, 1.0, 9.0], [2.0, 2.0, 2.0, 2.0]
    # Two blocks at one speed, one at the other: the median of all calls
    # would be 1.0; the blocks' medians average to (1 + 1 + 2) / 3.
    assert run.block_percentile(fast + fast + slow + [50.0], 50) == pytest.approx(4 / 3)
    assert run.block_percentile([3.0, 1.0], 50) == pytest.approx(2.0)  # under one block


# --- correctness checker ----------------------------------------------------------


def _item(package, kind, clone_of=None):
    return {"package": package, "version": "1.0.0", "ts": 0.0, "kind": kind,
            "clone_of": clone_of}


ITEMS = [
    _item("fine", "benign"),
    _item("bad", "malicious"),
    _item("tricky", "evasive"),
]


def _verdict(package, final, **flags):
    models = {MODEL_TREE: BENIGN, MODEL_NB: BENIGN, MODEL_SVM: BENIGN, **flags}
    return Verdict(package=package, version="1.0.0", model_flags=models, final=final)


def test_checker_accepts_right_verdicts_and_an_svm_only_flag():
    tally = run.Tally()
    outcome = ScanOutcome(verdicts=[
        _verdict("fine", FLAGGED, **{MODEL_SVM: MALICIOUS}),
        _verdict("bad", FLAGGED, **{MODEL_TREE: MALICIOUS}),
        _verdict("tricky", FLAGGED, **{MODEL_NB: MALICIOUS}),
    ], vectors=[])
    tally.check_scan("j1", ITEMS, outcome)
    assert (tally.attempted, tally.failed, tally.correct) == (3, 0, True)


def test_checker_counts_a_planted_wrong_verdict():
    tally = run.Tally()
    outcome = ScanOutcome(verdicts=[
        _verdict("fine", FLAGGED, **{MODEL_TREE: MALICIOUS}),  # tree flags benign
        _verdict("bad", FLAGGED, **{MODEL_TREE: MALICIOUS}),
        _verdict("tricky", CLEAN),                             # evasion worked
    ], vectors=[])
    tally.check_scan("j1", ITEMS, outcome)
    assert (tally.attempted, tally.failed, tally.adversarial) == (3, 2, 1)
    assert not tally.correct


def test_checker_counts_an_escaped_exception_for_every_item():
    tally = run.Tally()
    assert tally.check_scan("j1", ITEMS, RuntimeError("worker died")) == {}
    assert (tally.attempted, tally.failed) == (3, 3)
    assert not tally.correct
    assert "scan raised RuntimeError: worker died" in tally.problems


def test_checker_counts_missing_verdicts_and_a_changed_rescan():
    tally = run.Tally()
    first = ScanOutcome(verdicts=[_verdict("fine", CLEAN)], vectors=[])
    reference = tally.check_scan("j1", ITEMS[:1], first)
    second = ScanOutcome(verdicts=[_verdict("fine", FLAGGED, **{MODEL_SVM: MALICIOUS})],
                         vectors=[])
    tally.check_scan("jN", ITEMS[:1], second, reference)
    tally.check_scan("j1", ITEMS[1:2], ScanOutcome(verdicts=[], vectors=[]))
    assert tally.failed == 2
    assert tally.problems["verdict differs from the round's first batch"] == 1
    assert tally.problems["missing verdict"] == 1


def test_checker_counts_each_operation_once_however_often_it_repeats():
    tally = run.Tally()
    right = ScanOutcome(verdicts=[_verdict("fine", CLEAN)], vectors=[])
    wrong = ScanOutcome(verdicts=[], vectors=[])
    for outcome in (right, right, wrong, right):
        tally.check_scan("j1", ITEMS[:1], outcome)
    tally.check_scan("jN", ITEMS[:1], right)
    # Two operations (the item at --jobs 1 and at --jobs N); the first
    # failed in one of its four repetitions.
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.problems["missing verdict"] == 1
    assert not tally.correct


def test_an_adversarial_miss_stays_apart_until_a_plain_failure_joins_it():
    tally = run.Tally()
    tally.check_scan("j1", ITEMS[2:3], ScanOutcome(verdicts=[_verdict("tricky", CLEAN)],
                                                   vectors=[]))
    assert (tally.failed, tally.adversarial, tally.correct) == (1, 1, True)
    tally.check_scan("j1", ITEMS[2:3], RuntimeError("worker died"))
    assert (tally.attempted, tally.failed, tally.adversarial, tally.correct) == (1, 1, 0, False)
