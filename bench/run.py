"""Seeded end-to-end benchmark of pkgwatch's scan, triage and retrain path.

    python3 bench/run.py --workload micro-feed --seed 1 --seconds 55 --trace 0

Each run generates its inputs from the seed in a child process, then
repeats rounds of the daily cycle (set-up, batch scans at --jobs 1 and
--jobs N, single-item scans, label calls, retrain) for about --seconds,
and checks every verdict against the truth set by construction. The last
line of standard output is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics from one traced pass with --trace 1. See
README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402
from spans import Summary, Tracer, self_times  # noqa: E402

# Triage decision per item kind; rebuilt items are legitimate releases.
TRUE_POSITIVE_KINDS = ("malicious", "evasive", "clone")
# Batch pairs (--jobs 1, then --jobs N) per round, each followed by a watch pass.
PAIRS = 2
# Single-item scans between two triage steps of a watch pass, so that label
# calls are spread thinly over the whole run (see README.md, Noise).
WATCH_CHUNK = 20
# Consecutive label calls per block; the label percentiles are those of each
# block, averaged over the run's blocks.
LABEL_BLOCK = 50


# --- correctness ----------------------------------------------------------------


def verdict_problem(item: dict, verdict) -> str | None:
    """Why a verdict differs from the truth set by construction, or None."""
    from pkgwatch.classifiers import MODEL_NB, MODEL_TREE
    from pkgwatch.pipeline import ERROR
    from pkgwatch.reproduce import REPRODUCED
    from pkgwatch.vectorize import MALICIOUS

    if verdict is None:
        return "missing verdict"
    kind = item["kind"]
    if kind == fixtures.BENIGN_KIND:
        if verdict.final == ERROR:
            return f"benign item errored: {verdict.error}"
        flagged = [m for m in (MODEL_TREE, MODEL_NB) if verdict.model_flags.get(m) == MALICIOUS]
        return f"benign item flagged by {', '.join(flagged)}" if flagged else None
    expected = fixtures.EXPECTED_FINAL[kind]
    if verdict.final != expected:
        return f"{kind} item is {verdict.final}, expected {expected}"
    if kind == "clone":
        match = verdict.clone_match
        if match is None or [match.package, match.version] != item["clone_of"]:
            return f"clone provenance {match} does not name {item['clone_of']}"
    if kind == "rebuild" and verdict.reproduce_status != REPRODUCED:
        return f"rebuild status {verdict.reproduce_status}"
    return None


@dataclass
class Tally:
    """Attempted and failed operations; adversarial misses counted apart.

    An operation is one phase's call for one item (its scan at --jobs 1,
    at --jobs N or alone, its label), or the retrain. Rounds repeat the
    same operations, so the counts are those of distinct operations: one
    fails if any repetition of it fails. They then follow the seed, not
    how many rounds fit in the run.
    """

    # operation -> None, or (first problem, whether every problem was adversarial)
    outcomes: dict = field(default_factory=dict)
    problems: Counter = field(default_factory=Counter)  # every repetition's

    def record(self, operation: tuple, problem: str | None, adversarial: bool = False) -> None:
        before = self.outcomes.get(operation)
        if problem is None:
            self.outcomes.setdefault(operation, None)
            return
        self.problems[problem] += 1
        if before is None:
            self.outcomes[operation] = (problem, adversarial)
        elif before[1] and not adversarial:
            self.outcomes[operation] = (problem, False)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(outcome is not None for outcome in self.outcomes.values())

    @property
    def adversarial(self) -> int:
        return sum(outcome is not None and outcome[1] for outcome in self.outcomes.values())

    def check(self, phase: str, item: dict, verdict, mismatch: str | None = None) -> None:
        problem = verdict_problem(item, verdict)
        adversarial = problem is not None and item["kind"] in fixtures.ADVERSARIAL
        self.record((phase, item["package"], item["version"]), problem or mismatch,
                    adversarial and mismatch is None)

    def check_scan(self, phase: str, items: list[dict], outcome,
                   reference: dict | None = None) -> dict:
        """Check a batch outcome (or the exception scan raised) item by item.

        Returns each item's verdict record, so that later batches of the
        same window can be compared against it as `reference`.
        """
        if isinstance(outcome, BaseException):
            for item in items:
                self.record((phase, item["package"], item["version"]),
                            f"scan raised {type(outcome).__name__}: {outcome}")
            return {}
        by_key = {(v.package, v.version): v for v in outcome.verdicts}
        records = {}
        for item in items:
            key = (item["package"], item["version"])
            verdict = by_key.get(key)
            records[key] = None if verdict is None else verdict.to_record()
            mismatch = None
            if reference and reference.get(key) != records[key]:
                mismatch = "verdict differs from the round's first batch"
            self.check(phase, item, verdict, mismatch)
        return records

    @property
    def correct(self) -> bool:
        return self.failed == self.adversarial


class LogCounter(logging.Handler):
    """Counts pkgwatch log records by logger name instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name] += 1


# --- the daily cycle -------------------------------------------------------------


@dataclass
class State:
    registry: object
    models: dict
    hashes: object
    corpus: object


@dataclass
class Samples:
    """Every timed sample of a run; batches keyed "j1" and "jN" by --jobs."""

    setup_s: list = field(default_factory=list)
    batch_s: dict = field(default_factory=lambda: {"j1": [], "jN": []})
    round_s: list = field(default_factory=list)
    cpu_per_wall_jn: list = field(default_factory=list)
    watch_ms: list = field(default_factory=list)   # every single-item scan
    label_ms: list = field(default_factory=list)   # every label call
    retrain_s: list = field(default_factory=list)


class Cycle:
    """One workload's inputs plus the phases that run over them."""

    def __init__(self, inputs: Path, reference: Path, work: Path, jobs: int, tally: Tally):
        from pkgwatch import _packtool
        from pkgwatch.reproduce import ReproducerConfig

        self.inputs = inputs
        self.reference = reference
        self.work = work
        self.jobs = jobs
        self.tally = tally
        self.tracer: Tracer | None = None  # set for the traced pass only
        self.truth = json.loads((inputs / "truth.json").read_text())
        self.items = self.truth["items"]
        # Run the pack tool by path: the reproducer scrubs PYTHONPATH, so
        # `python -m pkgwatch._packtool` cannot import an uninstalled package.
        self.reproducer = ReproducerConfig(
            install_command="true",
            pack_command=f"{sys.executable} {_packtool.__file__} . out.tgz",
            build_scripts=(), timeout=60.0,
        )

    def span(self, name: str, item: str | None = None):
        return self.tracer.span(name, item=item) if self.tracer else nullcontext()

    def reset(self, tag: str) -> tuple[Path, Path]:
        """Fresh copies of the corpus and hash set (untimed)."""
        corpus = self.work / f"corpus-{tag}.jsonl"
        hashes = self.work / f"hashes-{tag}.txt"
        shutil.copyfile(self.reference / "corpus.jsonl", corpus)
        shutil.copyfile(self.inputs / "hashes.txt", hashes)
        return corpus, hashes

    def triage_hashes(self):
        """A fresh copy of the hash set a triager's own invocation loads (untimed)."""
        from pkgwatch.clones import MalwareHashSet

        path = self.work / "hashes-triage.txt"
        shutil.copyfile(self.inputs / "hashes.txt", path)
        return MalwareHashSet(path)

    def setup(self, corpus_path: Path, hashes_path: Path) -> tuple[State, float]:
        """What every CLI invocation pays before it scans or labels."""
        from pkgwatch import clones, pipeline, registry

        start = time.perf_counter()
        with self.span("registry.open_registry"):
            reg = registry.open_registry(str(self.inputs / "registry"))
        with self.span("pipeline.ModelStore.load"):
            models = pipeline.ModelStore(self.reference / "models").load()
        with self.span("clones.MalwareHashSet.load"):
            hashes = clones.MalwareHashSet(hashes_path)
        with self.span("pipeline.CorpusStore.load"):
            corpus = pipeline.CorpusStore(corpus_path)
        return State(reg, models, hashes, corpus), time.perf_counter() - start

    def batch(self, state: State, jobs: int, report: Path):
        """`scan --since --until`: window listing through the written report."""
        from pkgwatch import pipeline

        start = time.perf_counter()
        try:
            window = state.registry.list_new_versions(*self.truth["window"])
            batch = [(name, version) for name, version, _ in window]
            outcome = pipeline.scan(state.registry, batch, state.models, state.hashes,
                                    reproducer_config=self.reproducer, jobs=jobs)
            pipeline.record_scan(state.corpus, outcome)
            pipeline.ScanReport(outcome.verdicts).write(report)
        except Exception as exc:  # counted as failures of every item
            logging.getLogger("bench").error("scan batch failed", exc_info=True)
            return exc, time.perf_counter() - start
        return outcome, time.perf_counter() - start

    def watch(self, state: State, items: list[dict]) -> list[float]:
        """Closed loop, one client: a single-item scan of each of `items`,
        in publish order."""
        from pkgwatch import pipeline

        latencies = []
        for item in items:
            name, version = item["package"], item["version"]
            start = time.perf_counter()
            try:
                with self.span("watch", item=name):
                    outcome = pipeline.scan(state.registry, [(name, version)], state.models,
                                            state.hashes, reproducer_config=self.reproducer)
            except Exception as exc:
                outcome = exc
            latencies.append((time.perf_counter() - start) * 1e3)
            self.tally.check_scan("watch", [item], outcome)
        return latencies

    def label(self, corpus, outcome) -> list[float]:
        """One triage step: a closed loop of `label` calls, one for each of the batch's targets.

        True-positive for flagged items of a malicious kind, false-positive
        for auto-cleared ones (model-flagged, cleared by a rebuild). The
        step labels on a hash set loaded afresh (untimed) and apart from the
        scanner's, as a separate `pkgwatch label` invocation would, so every
        true-positive label of a new digest writes it. Benign items flagged
        by the one-class SVM alone are left alone: as training rows they
        change its iteration count several-fold from seed to seed, which
        would make retrain_s measure the seed (see README.md).
        """
        from pkgwatch import pipeline
        from pkgwatch.vectorize import BENIGN, MALICIOUS

        finals = {}
        if not isinstance(outcome, BaseException):
            finals = {(v.package, v.version): v.final for v in outcome.verdicts}
        targets = [
            it for it in self.items
            if (it["package"], it["version"]) in corpus
            and (finals.get((it["package"], it["version"])), it["kind"] in TRUE_POSITIVE_KINDS)
            in ((pipeline.FLAGGED, True), (pipeline.AUTO_CLEARED, False))
        ]
        if not targets:
            self.tally.record(("label",), "no recorded item to label")
            return []
        latencies = []
        hashes = self.triage_hashes()
        for item in targets:
            positive = item["kind"] in TRUE_POSITIVE_KINDS
            triage = pipeline.TRUE_POSITIVE if positive else pipeline.FALSE_POSITIVE
            start = time.perf_counter()
            try:
                with self.span("label", item=item["package"]):
                    entry = pipeline.label(corpus, hashes, item["package"],
                                           item["version"], triage)
                problem = None
                if entry.vector.label != (MALICIOUS if positive else BENIGN):
                    problem = f"label stored {entry.vector.label}"
            except Exception as exc:
                problem = f"label raised {type(exc).__name__}: {exc}"
            latencies.append((time.perf_counter() - start) * 1e3)
            self.tally.record(("label", item["package"], item["version"]), problem)
        return latencies

    def retrain(self, corpus_path: Path):
        """Fresh corpus load, retrain, corpus hash and model save."""
        from pkgwatch import pipeline
        from pkgwatch.classifiers import MODEL_IDS

        start = time.perf_counter()
        try:
            with self.span("pipeline.CorpusStore.load"):
                corpus = pipeline.CorpusStore(corpus_path)
            models, skipped = pipeline.retrain(corpus)
            digest = corpus.corpus_hash()
            pipeline.ModelStore(self.work / "retrained").save(models, digest)
            problem = None
            if skipped or set(models) != set(MODEL_IDS):
                problem = f"retrain skipped {sorted(skipped)}"
        except Exception as exc:
            models, problem = {}, f"retrain raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.tally.record(("retrain",), problem)
        return models, elapsed

    def warm_up(self) -> None:
        """An untimed set-up and --jobs 1 batch, so that first calls' one-off
        costs (imports, caches) stay out of the samples; verdicts are checked."""
        state, _ = self.setup(*self.reset("warm-up"))
        outcome, _ = self.batch(state, 1, self.work / "report-warm-up.jsonl")
        self.tally.check_scan("j1", self.items, outcome)

    def round(self, samples: Samples, deadline: float = float("inf")) -> None:
        """One round on fresh stores, cut short at the first phase after `deadline`.

        A CLI set-up, then PAIRS times: the day's batch at --jobs 1 and
        at --jobs N, then a watch pass; a triage step follows every batch
        and every WATCH_CHUNK single-item scans, so that label samples
        spread over the round. Then the retrain path on the corpus they
        wrote. Only the round's first batch writes vectors: record_scan
        keeps the first vector of each version. Labels go to a hash set
        loaded apart from the scanner's, so they leave the verdicts of
        later batches unchanged.
        """
        start = time.perf_counter()
        corpus, hashes = self.reset("round")
        state, seconds = self.setup(corpus, hashes)
        samples.setup_s.append(seconds)
        first = None
        for _ in range(PAIRS):
            for key, jobs in (("j1", 1), ("jN", self.jobs)):
                if time.perf_counter() >= deadline:
                    return
                cpu = os.times()
                outcome, seconds = self.batch(state, jobs, self.work / f"report-{key}.jsonl")
                used = os.times()
                samples.batch_s[key].append(seconds)
                if key == "jN":
                    busy = sum(used[:4]) - sum(cpu[:4])
                    samples.cpu_per_wall_jn.append(busy / (used.elapsed - cpu.elapsed))
                records = self.tally.check_scan(key, self.items, outcome, first)
                first = first or records
                samples.label_ms += self.label(state.corpus, outcome)
            if time.perf_counter() >= deadline:
                return
            for at in range(0, len(self.items), WATCH_CHUNK):
                samples.watch_ms += self.watch(state, self.items[at:at + WATCH_CHUNK])
                samples.label_ms += self.label(state.corpus, outcome)
        del state
        if time.perf_counter() >= deadline:
            return
        samples.retrain_s.append(self.retrain(corpus)[1])
        samples.round_s.append(time.perf_counter() - start)


# --- traced pass ---------------------------------------------------------------


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names their callers use."""
    from pkgwatch import clones, features, patterns, pipeline, registry, versioning

    def files_bytes(artifact) -> int:
        return sum(len(f.content) for f in artifact.files)

    fixture = registry.FixtureRegistry
    tracer.wrap(fixture, "fetch_document", "registry.fetch_document", item=lambda a: a[1])
    tracer.wrap(fixture, "fetch_tarball", "registry.fetch_tarball",
                size=lambda a, r: len(r))
    tracer.wrap(fixture, "list_new_versions", "registry.list_new_versions")
    tracer.wrap(pipeline, "load_tarball", "artifact.load_tarball",
                size=lambda a, r: files_bytes(r))
    tracer.wrap(patterns, "tokenize", "tokens.tokenize", size=lambda a, r: len(a[0]))
    tracer.wrap(patterns, "scan_tokens", "patterns.scan_tokens")
    tracer.wrap(features, "count_matches", "patterns.count_matches",
                size=lambda a, r: len(a[0]))
    tracer.wrap(features, "entropy_stats", "features.entropy_stats",
                size=lambda a, r: files_bytes(a[0]))
    tracer.wrap(pipeline, "extract_features", "features.extract_features")
    tracer.wrap(pipeline, "canonical_digest", "clones.canonical_digest")
    tracer.wrap(clones, "canonical_digest", "clones.canonical_digest")
    tracer.wrap(pipeline, "find_clone", "clones.find_clone")
    # size 1 marks a registration of a new digest, the call that writes.
    tracer.wrap(clones.MalwareHashSet, "register", "clones.MalwareHashSet.register",
                size=lambda a, r: int(r))
    tracer.wrap(pipeline, "build_change_vector", "vectorize.build_change_vector")
    tracer.wrap(pipeline, "encode", "vectorize.encode")
    tracer.wrap(pipeline, "classify_update", "versioning.classify_update")
    tracer.wrap(pipeline, "time_between", "versioning.time_between")
    tracer.wrap(registry.PackageDocument, "timeline", "versioning.timeline")
    tracer.wrap(versioning.VersionTimeline, "previous_version", "versioning.previous_version")
    tracer.wrap(versioning.VersionTimeline, "timestamp_of", "versioning.timestamp_of")
    tracer.wrap(pipeline, "predict_all", "classifiers.predict_all")
    tracer.wrap(pipeline.DecisionTreeClassifier, "fit", "classifiers.tree.fit")
    tracer.wrap(pipeline.BernoulliNaiveBayes, "fit", "classifiers.nb.fit")
    tracer.wrap(pipeline.LinearOneClassSvm, "fit", "classifiers.svm.fit")
    tracer.wrap(pipeline, "reproduce", "reproduce.reproduce")
    tracer.wrap(pipeline, "scan", "pipeline.scan")
    tracer.wrap(pipeline, "record_scan", "pipeline.record_scan")
    tracer.wrap(pipeline.ScanReport, "write", "pipeline.ScanReport.write")
    tracer.wrap(pipeline.CorpusStore, "set_label", "pipeline.CorpusStore.set_label")
    tracer.wrap(pipeline.CorpusStore, "corpus_hash", "pipeline.CorpusStore.corpus_hash")
    tracer.wrap(pipeline, "retrain", "pipeline.retrain")
    tracer.wrap(pipeline.ModelStore, "save", "pipeline.ModelStore.save")


def traced_pass(cycle: Cycle, untraced: Samples, logs: LogCounter) -> dict:
    """Per-layer metrics from one traced pass at --jobs 1."""
    from pkgwatch.classifiers import MODEL_SVM, MODEL_TREE
    from pkgwatch.reproduce import REPRODUCED

    tracer = cycle.tracer
    install_spans(tracer)
    try:
        corpus_path, hashes_path = cycle.reset("t")
        marks = {"setup": len(tracer.spans)}
        state, _ = cycle.setup(corpus_path, hashes_path)
        marks["batch"] = len(tracer.spans)
        skipped_before = logs.counts["pkgwatch.features"]
        outcome, batch_s = cycle.batch(state, 1, cycle.work / "report-traced.jsonl")
        skipped = logs.counts["pkgwatch.features"] - skipped_before
        cycle.tally.check_scan("j1", cycle.items, outcome)
        marks["watch"] = len(tracer.spans)
        cycle.watch(state, cycle.items)
        marks["label"] = len(tracer.spans)
        cycle.label(state.corpus, outcome)
        del state
        marks["retrain"] = len(tracer.spans)
        models, _ = cycle.retrain(corpus_path)
        marks["end"] = len(tracer.spans)
    finally:
        tracer.restore()

    spans = tracer.spans
    selfs = self_times(spans)
    order = list(marks)
    part = {
        name: Summary(spans[marks[name]:marks[nxt]], selfs[marks[name]:marks[nxt]])
        for name, nxt in zip(order, order[1:])
    }
    setup, batch, label, retrain = part["setup"], part["batch"], part["label"], part["retrain"]
    # The scan call's own subtree, without the window listing before it and
    # the corpus and report writes after it.
    names = [record.name for record in spans]

    def find(name: str, lo: int) -> int:
        return names.index(name, lo, marks["watch"]) if name in names[lo:marks["watch"]] \
            else marks["watch"]

    first = find("pipeline.scan", marks["batch"])
    last = find("pipeline.record_scan", first)
    scan = Summary(spans[first:last], selfs[first:last])

    writes = [record.duration for record in spans[marks["label"]:marks["retrain"]]
              if record.name == "clones.MalwareHashSet.register" and record.size]
    reproduced, vectors = 0, 1
    if not isinstance(outcome, BaseException):
        reproduced = sum(v.reproduce_status == REPRODUCED for v in outcome.verdicts)
        vectors = max(len(outcome.vectors), 1)
    reproduce_calls = scan.calls.get("reproduce.reproduce", 0)
    versioning = sum(t for n, t in scan.total.items() if n.startswith("versioning."))
    vectorize = sum(t for n, t in scan.total.items() if n.startswith("vectorize."))
    tree, svm = models.get(MODEL_TREE), models.get(MODEL_SVM)
    items = max(len(cycle.items), 1)

    def per_item(value: float, scale: float = 1.0) -> float:
        return value / items * scale

    return {
        "registry.fetch_document.calls_per_item":
            (per_item(scan.calls["registry.fetch_document"]), "count"),
        "registry.fetch_tarball.calls_per_item":
            (per_item(scan.calls["registry.fetch_tarball"]), "count"),
        "registry.fetch_document.ms_per_item":
            (per_item(scan.total["registry.fetch_document"], 1e3), "ms"),
        "registry.fetch_tarball.ms_per_item":
            (per_item(scan.self["registry.fetch_tarball"], 1e3), "ms"),
        "registry.list_new_versions.s": (batch.total["registry.list_new_versions"], "s"),
        "artifact.load_tarball.calls_per_item":
            (per_item(scan.calls["artifact.load_tarball"]), "count"),
        "artifact.load_tarball.ms_per_item":
            (per_item(scan.total["artifact.load_tarball"], 1e3), "ms"),
        "artifact.load_tarball.mb_per_s": (scan.mb_per_s("artifact.load_tarball"), "MB/s"),
        "tokens.tokenize.mb_per_s": (scan.mb_per_s("tokens.tokenize"), "MB/s"),
        "tokens.tokenize.s": (scan.total["tokens.tokenize"], "s"),
        "patterns.count_matches.mb_per_s": (scan.mb_per_s("patterns.count_matches"), "MB/s"),
        "patterns.scan_tokens.s": (scan.total["patterns.scan_tokens"], "s"),
        "patterns.count_matches.self_s": (scan.self["patterns.count_matches"], "s"),
        "patterns.count_matches.tokenize_errors":
            (scan.errors[("patterns.count_matches", "TokenizeError")], "count"),
        "features.extract_features.calls_per_item":
            (per_item(scan.calls["features.extract_features"]), "count"),
        "features.extract_features.self_ms_per_item":
            (per_item(scan.self["features.extract_features"], 1e3), "ms"),
        "features.entropy_stats.mb_per_s": (scan.mb_per_s("features.entropy_stats"), "MB/s"),
        "features.skipped_files": (skipped, "count"),
        "clones.canonical_digest.calls_per_item":
            (per_item(scan.calls["clones.canonical_digest"]), "count"),
        "clones.canonical_digest.ms_per_item":
            (per_item(scan.total["clones.canonical_digest"], 1e3), "ms"),
        "clones.find_clone.ms_per_item": (per_item(scan.total["clones.find_clone"], 1e3), "ms"),
        "clones.MalwareHashSet.register.ms":
            (statistics.mean(writes) * 1e3 if writes else 0.0, "ms"),
        "vectorize.ms_per_item": (per_item(vectorize, 1e3), "ms"),
        "versioning.ms_per_item": (per_item(versioning, 1e3), "ms"),
        "classifiers.predict_all.us_per_row": (scan.mean("classifiers.predict_all", 1e6), "us"),
        "classifiers.tree.fit_s": (retrain.total["classifiers.tree.fit"], "s"),
        "classifiers.nb.fit_s": (retrain.total["classifiers.nb.fit"], "s"),
        "classifiers.svm.fit_s": (retrain.total["classifiers.svm.fit"], "s"),
        "classifiers.tree.node_count": (getattr(tree, "node_count_", 0), "count"),
        "classifiers.svm.n_iter": (getattr(svm, "n_iter_", 0), "count"),
        "reproduce.reproduce.calls": (reproduce_calls, "count"),
        "reproduce.reproduce.ms_per_call": (scan.mean("reproduce.reproduce", 1e3), "ms"),
        "reproduce.reproduced_frac":
            (reproduced / reproduce_calls if reproduce_calls else 0.0, "ratio"),
        "pipeline.scan.self_s": (scan.self["pipeline.scan"], "s"),
        "pipeline.scan.cpu_per_wall_jN":
            (statistics.median(untraced.cpu_per_wall_jn), "ratio"),
        "pipeline.record_scan.us_per_vector":
            (batch.total["pipeline.record_scan"] / vectors * 1e6, "us"),
        "pipeline.ScanReport.write_s": (batch.total["pipeline.ScanReport.write"], "s"),
        "pipeline.CorpusStore.load_s": (setup.total["pipeline.CorpusStore.load"], "s"),
        "pipeline.CorpusStore.set_label.ms":
            (label.mean("pipeline.CorpusStore.set_label", 1e3), "ms"),
        "pipeline.CorpusStore.corpus_hash_s":
            (retrain.total["pipeline.CorpusStore.corpus_hash"], "s"),
        "pipeline.retrain.self_s": (retrain.self["pipeline.retrain"], "s"),
        "pipeline.ModelStore.save_s": (retrain.total["pipeline.ModelStore.save"], "s"),
        "pipeline.ModelStore.load_s": (setup.total["pipeline.ModelStore.load"], "s"),
        "trace.overhead_s": (batch_s - statistics.median(untraced.batch_s["j1"]), "s"),
    }


# --- reporting -------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def block_percentile(values: list[float], q: int) -> float:
    """The q-th percentile of each LABEL_BLOCK consecutive values, averaged.

    On a host whose speed switches within a second, a percentile over the
    whole run lands in the fast or the slow mode depending on which held
    more calls; the average over blocks moves with the share of each.
    """
    blocks = [values[at:at + LABEL_BLOCK]
              for at in range(0, len(values) - LABEL_BLOCK + 1, LABEL_BLOCK)]
    return statistics.fmean(percentile(block, q) for block in blocks or [values])


def end_to_end(samples: Samples, items: int) -> dict:
    """Run-wide values: median set-up, mean retrain, throughput over all the
    run's batches, single-item percentiles over all its calls and label
    percentiles over blocks of calls (see README.md, Noise)."""
    rate = lambda key: items * len(samples.batch_s[key]) / sum(samples.batch_s[key])  # noqa: E731
    return {
        "setup_s": (statistics.median(samples.setup_s), "s"),
        "items_per_s_j1": (rate("j1"), "1/s"),
        "items_per_s_jN": (rate("jN"), "1/s"),
        "item_p50_ms": (percentile(samples.watch_ms, 50), "ms"),
        "item_p95_ms": (percentile(samples.watch_ms, 95), "ms"),
        "label_p50_ms": (block_percentile(samples.label_ms, 50), "ms"),
        "label_p95_ms": (block_percentile(samples.label_ms, 95), "ms"),
        "retrain_s": (statistics.fmean(samples.retrain_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_context(jobs: int, samples: dict) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src_loc = sum(len(p.read_text(encoding="utf-8").splitlines())
                  for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "cores": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_loc": src_loc,
        "samples": samples,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path,
            reference: Path) -> dict:
    inputs, work = run_dir / "in", run_dir / "work"
    work.mkdir(parents=True)
    (work / "tmp").mkdir()
    tempfile.tempdir = str(work / "tmp")  # rebuild sandboxes stay in the checkout

    logs = LogCounter()
    package_log = logging.getLogger("pkgwatch")
    package_log.addHandler(logs)
    package_log.propagate = False

    jobs = len(os.sched_getaffinity(0))
    tally = Tally()
    cycle = Cycle(inputs, reference, work, jobs, tally)
    samples = Samples()
    # Rounds until --seconds are over, the last one cut short; the first
    # round always completes. A traced run makes one untraced round before
    # its traced pass.
    cycle.warm_up()
    deadline = time.perf_counter() + seconds
    cycle.round(samples)
    while not trace and time.perf_counter() < deadline:
        cycle.round(samples, deadline)

    if trace:
        cycle.tracer = Tracer()
        metrics = traced_pass(cycle, samples, logs)
        cycle.tracer.write(WORK / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(samples, len(cycle.items))

    counts = {
        "items_per_batch": len(cycle.items),
        "setup": len(samples.setup_s),
        "rounds": len(samples.round_s),
        "batches_j1": len(samples.batch_s["j1"]),
        "watch_calls": len(samples.watch_ms),
        "label_calls": len(samples.label_ms),
        "retrain": len(samples.retrain_s),
    }
    return {
        "context": run_context(jobs, counts),
        "tally": tally,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(fixtures.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/pkgwatch/pipeline.py", "tests/conftest.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from a pkgwatch checkout",
              file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    reference = WORK / f"reference-{fixtures.source_digest()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "fixtures.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(run_dir / "in"),
             "--reference", str(reference)],
            check=True, timeout=170,
        )
        sys.path.insert(0, str(ROOT / "src"))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir,
                         reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tally = result["tally"]
    for problem, count in tally.problems.most_common(10):
        print(f"bench: {count} x {problem}", file=sys.stderr)
    print("context " + json.dumps(result["context"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:44s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
