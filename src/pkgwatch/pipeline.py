"""Scan workflow: fetch, extract, classify, reproduce, clone-check, triage,
retrain. Verdict fusion is any-of: one flagging model (or a clone match)
flags the version; only a canonical rebuild match clears a model flag, and
clone matches are never cleared.

A scan gives each package to one worker, which reads its document once and
scans its items in publish order; each version's features, extracted once,
feed its successor's change vector from that worker's locals. With `jobs`
> 1 the workers are processes forked from the caller (POSIX only), each
with a copy-on-write view of the registry, models, hash set, pattern table
and reproducer config; their tasks carry only (name, versions) pairs. A
worker that dies costs error verdicts for the packages whose results had
not come back, never lost items, and no worker outlives `scan`. With `jobs`
== 1, or a single package, the scan runs in the calling process.

Between the change vector and the models there is one encoded form, the
numeric row in NUMERIC_SCHEMA order: `predict_all` scores the row `encode`
gives, and the corpus store folds its append-only log into columns of
such rows (a key index, one float64 matrix, and parallel label and digest
lists). So loading the corpus, building its training set and hashing that
set make no per-row objects; `retrain` and `corpus_hash` read the same
`CorpusStore.training_set`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .artifact import load_tarball
# The three estimator classes stay importable here: bench/run.py traces their fits.
from .classifiers import (
    MODEL_IDS,
    BernoulliNaiveBayes,
    DecisionTreeClassifier,
    LabeledDataset,
    LinearOneClassSvm,
    load_model,
    predict_all,
    save_model,
    train_all,
)
from .clones import (
    CloneProvenance,
    ContentDigest,
    MalwareHashSet,
    canonical_digest,
    find_clone,
)
from .errors import PkgwatchError, UnknownVersion
from .features import FeatureVector, extract_features
from .patterns import DEFAULT_PATTERN_TABLE, PatternTable
from .reproduce import NO_REPO, REPRODUCED, ReproducerConfig, make_plan, reproduce
from .vectorize import (
    BENIGN,
    MALICIOUS,
    NUMERIC_SCHEMA,
    ChangeVector,
    build_change_vector,
    check_label,
    decode,
    encode,
    encode_record,
)
from .versioning import SemVer, UpdateType, classify_update, time_between

logger = logging.getLogger(__name__)

FLAGGED = "flagged"
AUTO_CLEARED = "auto-cleared"
CLEAN = "clean"
ERROR = "error"

TRUE_POSITIVE = "true-positive"
FALSE_POSITIVE = "false-positive"


@dataclass
class Verdict:
    package: str
    version: str
    model_flags: dict[str, str] = field(default_factory=dict)
    clone_match: CloneProvenance | None = None
    reproduce_status: str | None = None
    final: str = CLEAN
    digest: str | None = None
    error: str | None = None
    triage: str | None = None

    @property
    def model_flagged(self) -> bool:
        return any(v == MALICIOUS for v in self.model_flags.values())

    def to_record(self) -> dict:
        record = {
            "package": self.package,
            "version": self.version,
            "models": dict(self.model_flags),
            "final": self.final,
        }
        if self.clone_match is not None:
            record["clone"] = {
                "package": self.clone_match.package,
                "version": self.clone_match.version,
                "date_added": self.clone_match.date_added,
            }
        if self.reproduce_status is not None:
            record["reproduce"] = self.reproduce_status
        if self.digest is not None:
            record["digest"] = self.digest
        if self.error is not None:
            record["error"] = self.error
        if self.triage is not None:
            record["triage"] = self.triage
        return record

    @classmethod
    def from_record(cls, record: dict) -> "Verdict":
        """The verdict `to_record` wrote; ValueError for an unknown model or
        model output, or a `final` that the fusion rule does not give."""
        clone = record.get("clone")
        verdict = cls(
            package=record["package"],
            version=record["version"],
            model_flags=dict(record.get("models", {})),
            clone_match=CloneProvenance(**clone) if clone else None,
            reproduce_status=record.get("reproduce"),
            final=record["final"],
            digest=record.get("digest"),
            error=record.get("error"),
            triage=record.get("triage"),
        )
        for model_id, flag in verdict.model_flags.items():
            if model_id not in MODEL_IDS:
                raise ValueError(f"unknown model {model_id!r}")
            if flag not in (MALICIOUS, BENIGN):
                raise ValueError(f"model {model_id} output {flag!r} is not malicious or benign")
        if verdict.final not in (FLAGGED, AUTO_CLEARED, CLEAN, ERROR):
            raise ValueError(f"unknown final status {verdict.final!r}")
        expected = derive_final(verdict.model_flags, verdict.clone_match,
                                verdict.reproduce_status, verdict.error)
        if verdict.final != expected:
            raise ValueError(f"final {verdict.final!r} differs from the fusion rule's {expected!r}")
        return verdict


def derive_final(
    model_flags: dict[str, str],
    clone_match: CloneProvenance | None,
    reproduce_status: str | None,
    error: str | None = None,
) -> str:
    """Final status from the per-stage fields (the auditable fusion rule)."""
    if error is not None:
        return ERROR
    if clone_match is not None:
        return FLAGGED  # clones of known malware are never auto-cleared
    if any(v == MALICIOUS for v in model_flags.values()):
        return AUTO_CLEARED if reproduce_status == REPRODUCED else FLAGGED
    return CLEAN


# --- persistent stores ---

CORPUS_FORMAT = "pkgwatch-corpus"
#: Leads the bytes `CorpusStore.corpus_hash` digests. Version 1 (untagged)
#: hashed each vector's JSON record; its values are not comparable.
CORPUS_HASH_TAG = b"pkgwatch-corpus-hash/2\n"


@dataclass
class StoredVector:
    """One corpus entry, as `CorpusStore` builds it from its columns."""

    vector: ChangeVector
    digest: str | None = None
    label_date: str | None = None
    label_history: list[str] = field(default_factory=list)


class CorpusStore:
    """Append-only store of scanned/labeled change vectors.

    Every mutation appends a line; the in-memory view folds the log with
    latest-label-wins semantics, so relabels are audit-visible rather than
    silent overwrites. Keys are (package, version), unique: the first
    vector of a key is kept, unless it is unlabeled and a later vector of
    the key is labeled.

    The folded view is columnar: a key -> row index dict, one float64
    matrix of rows in NUMERIC_SCHEMA order (grown by doubling), parallel
    label and digest lists, and label dates and histories for the rows
    that were labeled by an event. `get` and `set_label` build their
    `StoredVector`s from these on demand.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._index: dict[tuple[str, str], int] = {}
        self._keys: list[tuple[str, str]] = []
        self._rows = np.empty((0, len(NUMERIC_SCHEMA)))
        self._labels: list[str | None] = []
        self._digests: list[str | None] = []
        self._label_dates: dict[int, str | None] = {}
        self._histories: dict[int, list[str]] = {}
        self._training_sets: dict[bool, tuple[np.ndarray, LabeledDataset]] = {}
        self._lock = threading.Lock()
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        lineno = 1
        with open(self.path, encoding="utf-8") as fh:
            try:
                header = json.loads(fh.readline())
                if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
                    raise ValueError("not a corpus file")
                for lineno, line in enumerate(fh, start=2):
                    if line.strip():
                        self._apply(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{self.path}:{lineno}: {reason}") from exc

    def _apply(self, event: dict) -> None:
        if not isinstance(event, dict):
            raise ValueError("event is not a JSON object")
        kind = event.get("event")
        if kind == "vector":
            record = event["vector"]
            row = encode_record(record)
            label = record.get("label")
            key = (record["package"], record["version"])
            index = self._index.get(key)
            if index is None:
                self._insert(key, row, label, event.get("digest"))
            elif self._labels[index] is None and label is not None:
                self._rows[index] = row
                self._labels[index] = label
                self._training_sets.clear()
        elif kind == "label":
            label = check_label(event["label"])
            index = self._index.get((event["package"], event["version"]))
            if index is not None:
                self._relabel(index, label, event.get("date"))

    def _insert(self, key: tuple[str, str], row: list[float], label: str | None,
                digest: str | None) -> None:
        index = len(self._keys)
        if index == len(self._rows):
            grown = np.empty((max(64, 2 * index), self._rows.shape[1]))
            grown[:index] = self._rows
            self._rows = grown
        self._rows[index] = row
        self._index[key] = index
        self._keys.append(key)
        self._labels.append(label)
        self._digests.append(digest)
        self._training_sets.clear()

    def _relabel(self, index: int, label: str | None, date: str | None) -> None:
        self._labels[index] = label
        self._label_dates[index] = date
        self._histories.setdefault(index, []).append(label)
        self._training_sets.clear()

    def _stored(self, index: int) -> StoredVector:
        package, version = self._keys[index]
        return StoredVector(
            vector=decode(self._rows[index].tolist(), package, version, self._labels[index]),
            digest=self._digests[index],
            label_date=self._label_dates.get(index),
            label_history=list(self._histories.get(index, ())),
        )

    def _append(self, event: dict) -> None:
        new_file = not self.path.exists()
        with open(self.path, "a", encoding="utf-8") as fh:
            if new_file:
                fh.write(json.dumps({"format": CORPUS_FORMAT}) + "\n")
            fh.write(json.dumps(event, sort_keys=True) + "\n")

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._index

    def get(self, package: str, version: str) -> StoredVector | None:
        index = self._index.get((package, version))
        return None if index is None else self._stored(index)

    def digest(self, package: str, version: str) -> str | None:
        """The stored content digest of a key; None for an unknown key too."""
        index = self._index.get((package, version))
        return None if index is None else self._digests[index]

    def add_vector(self, vector: ChangeVector, digest: str | None = None) -> bool:
        """Record a vector; existing (package, version) entries are kept."""
        with self._lock:
            key = (vector.package, vector.version)
            if key in self._index:
                return False
            record = vector.to_record()
            self._insert(key, encode_record(record), vector.label, digest)
            self._append({"event": "vector", "vector": record, "digest": digest})
            return True

    def set_label(self, package: str, version: str, label: str) -> StoredVector:
        if label not in (MALICIOUS, BENIGN):
            raise ValueError(f"label must be malicious/benign, got {label!r}")
        with self._lock:
            index = self._index.get((package, version))
            if index is None:
                raise UnknownVersion(f"{package}@{version} not in corpus")
            previous = self._labels[index]
            if previous is not None and previous != label:
                logger.warning(
                    "relabeling %s@%s: %s -> %s", package, version, previous, label,
                )
            date = datetime.now(timezone.utc).isoformat(timespec="seconds")
            self._append({
                "event": "label",
                "package": package,
                "version": version,
                "label": label,
                "date": date,
            })
            self._relabel(index, label, date)
            return self._stored(index)

    def _training(self, include_unlabeled: bool) -> tuple[np.ndarray, LabeledDataset]:
        """`training_set` and the row index of each of its rows, kept until
        the next change to the store."""
        with self._lock:
            cached = self._training_sets.get(include_unlabeled)
            if cached is not None:
                return cached
            by_key = sorted(range(len(self._keys)), key=self._keys.__getitem__)
            order = np.array(by_key, dtype=np.intp)
            labels = np.array(self._labels, dtype=object)[order]
            unlabeled = np.equal(labels, None)
            if include_unlabeled:
                labels[unlabeled] = BENIGN
            else:
                order, labels = order[~unlabeled], labels[~unlabeled]
            rows = self._rows[order]
            rows.flags.writeable = labels.flags.writeable = False
            cached = order, LabeledDataset(rows=rows, labels=labels)
            self._training_sets[include_unlabeled] = cached
            return cached

    def training_set(self, include_unlabeled: bool = False) -> LabeledDataset:
        """Rows sorted by key; unlabeled rows are included as benign when
        include_unlabeled is set and left out otherwise."""
        return self._training(include_unlabeled)[1]

    def corpus_hash(self, include_unlabeled: bool = False) -> str:
        """sha256 of what `training_set(include_unlabeled)` trains on:
        CORPUS_HASH_TAG, the compact JSON list of its [package, version]
        keys, one byte per row (1 malicious, 0 benign), then its rows as
        little-endian float64 in C order."""
        order, data = self._training(include_unlabeled)
        keys = [self._keys[i] for i in order.tolist()]
        hasher = hashlib.sha256(CORPUS_HASH_TAG)
        hasher.update(
            json.dumps(keys, check_circular=False, separators=(",", ":")).encode()
        )
        hasher.update(np.equal(data.labels, MALICIOUS).tobytes())
        hasher.update(np.ascontiguousarray(data.rows, dtype="<f8"))
        return hasher.hexdigest()


class ModelStore:
    """Directory of model files plus a version-tracking manifest."""

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def version(self) -> int:
        manifest = self.directory / self.MANIFEST
        if not manifest.exists():
            return 0
        return json.loads(manifest.read_text())["version"]

    def save(self, models: dict[str, object], corpus_hash: str) -> int:
        self.directory.mkdir(parents=True, exist_ok=True)
        new_version = self.version() + 1
        metadata = {"corpus_hash": corpus_hash, "model_version": new_version}
        for model_id, model in models.items():
            save_model(model, self.directory / f"{model_id}.json", metadata)
        manifest = {
            "version": new_version,
            "corpus_hash": corpus_hash,
            "models": sorted(models),
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        (self.directory / self.MANIFEST).write_text(
            json.dumps(manifest, indent=1) + "\n"
        )
        return new_version

    def load(self) -> dict[str, object]:
        models = {}
        for model_id in MODEL_IDS:
            path = self.directory / f"{model_id}.json"
            if path.exists():
                models[model_id] = load_model(path, model_id)
        if not models:
            raise FileNotFoundError(f"no models under {self.directory}")
        return models


# --- scanning ---


@dataclass
class ScanOutcome:
    verdicts: list[Verdict]
    vectors: list[ChangeVector]


def _failed(verdict: Verdict, exc: Exception) -> tuple[Verdict, None]:
    logger.warning("scan failed for %s@%s: %s", verdict.package, verdict.version, exc)
    verdict.error = str(exc)
    verdict.final = derive_final({}, None, None, error=verdict.error)
    return verdict, None


def _scan_package(
    registry,
    name: str,
    versions: list[str],
    models: dict[str, object],
    hash_set: MalwareHashSet,
    table: PatternTable,
    reproducer_config: ReproducerConfig | None,
) -> list[tuple[Verdict, ChangeVector | None]]:
    """Verdicts and vectors for one package's batch `versions`, in that order.

    The document is read once and the items are scanned in publish order,
    so each version the scan needs, an item or the direct predecessor of
    one, is fetched and extracted once.
    """
    try:
        document = registry.fetch_document(name)
        timeline = document.timeline()
    except (PkgwatchError, ValueError) as exc:
        return [_failed(Verdict(package=name, version=v), exc) for v in versions]
    features: dict[str, FeatureVector] = {}

    def load(version: str):
        artifact = load_tarball(
            registry.fetch_tarball(name, version, document.dist.get(version))
        )
        features[version] = extract_features(artifact, table)
        return artifact

    rank = {version: i for i, (version, _) in enumerate(timeline.entries)}
    results = {}
    for version in sorted(versions, key=lambda v: rank.get(v, len(rank))):
        verdict = Verdict(package=name, version=version)
        try:
            artifact = load(version)
            if (artifact.name, artifact.version) != (name, version):
                logger.warning(
                    "manifest says %s@%s but registry coordinates are %s@%s",
                    artifact.name, artifact.version, name, version,
                )
            digest = canonical_digest(artifact)
            verdict.digest = str(digest)

            previous = timeline.previous_version(version)
            if previous is None:
                vector = build_change_vector(
                    None, features[version], UpdateType.FIRST, 0.0,
                    package=name, version=version,
                )
            else:
                prev_version, prev_ts = previous
                if prev_version not in features:
                    load(prev_version)
                update_type = classify_update(
                    SemVer.parse(prev_version), SemVer.parse(version)
                )
                dt = time_between(prev_ts, timeline.timestamp_of(version))
                vector = build_change_vector(
                    features[prev_version], features[version], update_type, dt,
                    package=name, version=version,
                )

            verdict.model_flags = predict_all(models, encode(vector))
            verdict.clone_match = find_clone(artifact, hash_set, digest)

            if verdict.model_flagged and reproducer_config is not None:
                plan = make_plan(artifact.manifest, version, reproducer_config)
                if plan is None:
                    verdict.reproduce_status = NO_REPO
                else:
                    verdict.reproduce_status = reproduce(
                        plan, artifact, reproducer_config
                    ).status

            verdict.final = derive_final(
                verdict.model_flags, verdict.clone_match, verdict.reproduce_status
            )
            results[version] = verdict, vector
        except (PkgwatchError, ValueError) as exc:
            results[version] = _failed(verdict, exc)
    return [results[version] for version in versions]


def _scan_guarded(context: tuple, name: str, versions: list[str]):
    """`_scan_package` of one package under `context` (registry, models,
    hash set, pattern table, reproducer config); an unexpected failure
    costs only this package."""
    registry, models, hash_set, table, reproducer_config = context
    try:
        return _scan_package(registry, name, versions, models, hash_set,
                             table, reproducer_config)
    except Exception as exc:
        logger.exception("scan of package %s failed", name)
        return [_failed(Verdict(package=name, version=v), exc) for v in versions]


#: Pool tasks per worker process: more even out the workers' loads, fewer
#: send fewer messages.
TASKS_PER_WORKER = 4

# The scan context of a forked worker, stored once by `_init_worker`.
_worker_context: tuple = ()


def _init_worker(context: tuple) -> None:
    global _worker_context
    _worker_context = context


def _scan_chunk(chunk: list[tuple[str, list[str]]]) -> list:
    return [_scan_guarded(_worker_context, name, versions) for name, versions in chunk]


def _scan_forked(context: tuple, packages: list[tuple[str, list[str]]],
                 jobs: int) -> list:
    """`_scan_guarded` of each package, in order, on a pool of forked
    worker processes that is shut down before this returns.

    Fork hands `context` to the workers without pickling it; a task
    carries (name, versions) pairs. The packages of a task whose result
    does not come back become error verdicts.
    """
    workers = min(jobs, len(os.sched_getaffinity(0)), len(packages))
    count = min(len(packages), workers * TASKS_PER_WORKER)
    # Every count-th package to one task, so that packages slow to scan and
    # close in name order (the rebuilds of one project, say) share no task.
    chunks = [packages[k::count] for k in range(count)]
    by_name = {}
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(context,)) as pool:
        futures = [pool.submit(_scan_chunk, chunk) for chunk in chunks]
        for chunk, future in zip(chunks, futures):
            try:
                groups = future.result()
            except Exception as exc:  # the task's result did not come back
                if isinstance(exc, BrokenProcessPool):
                    exc = BrokenProcessPool(
                        "scan worker process died before returning this package's result")
                groups = [[_failed(Verdict(package=name, version=v), exc) for v in versions]
                          for name, versions in chunk]
            by_name.update(zip((name for name, _ in chunk), groups))
    return [by_name[name] for name, _ in packages]


def scan(
    registry,
    batch: list[tuple[str, str]],
    models: dict[str, object],
    hash_set: MalwareHashSet,
    pattern_table: PatternTable = DEFAULT_PATTERN_TABLE,
    reproducer_config: ReproducerConfig | None = None,
    jobs: int = 1,
) -> ScanOutcome:
    """Scan a batch of (name, version) items, one package per worker.

    With `jobs` > 1 and more than one package, the workers are up to
    `jobs` forked processes, no more than the usable cores (fork copies
    only the calling thread, so call it while no other thread holds a
    lock the scan takes); otherwise the scan runs in this process.
    Per-item failures, and a worker process that dies, become error
    verdicts without aborting the batch; the report order is
    deterministic (name, then version) regardless of worker scheduling.
    """
    packages: dict[str, list[str]] = {}
    for name, version in sorted(set(batch)):
        packages.setdefault(name, []).append(version)

    context = (registry, models, hash_set, pattern_table, reproducer_config)
    if jobs > 1 and len(packages) > 1:
        groups = _scan_forked(context, list(packages.items()), jobs)
    else:
        groups = [_scan_guarded(context, name, versions)
                  for name, versions in packages.items()]

    results = [pair for group in groups for pair in group]
    verdicts = [v for v, _ in results]
    vectors = [vec for _, vec in results if vec is not None]
    return ScanOutcome(verdicts=verdicts, vectors=vectors)


def record_scan(corpus: CorpusStore, outcome: ScanOutcome) -> int:
    """Persist scanned vectors (unlabeled) for later triage; returns adds."""
    digests = {
        (v.package, v.version): v.digest for v in outcome.verdicts
    }
    added = 0
    for vector in outcome.vectors:
        if corpus.add_vector(vector, digests.get((vector.package, vector.version))):
            added += 1
    return added


def label(
    corpus: CorpusStore,
    hash_set: MalwareHashSet,
    package: str,
    version: str,
    triage: str,
) -> StoredVector:
    """Record a triage decision; true positives feed the clone hash set."""
    if triage not in (TRUE_POSITIVE, FALSE_POSITIVE):
        raise ValueError(f"triage must be true-positive/false-positive: {triage!r}")
    as_label = MALICIOUS if triage == TRUE_POSITIVE else BENIGN
    # Parsed before the label is appended, so that a stored digest the hash
    # set cannot take leaves the corpus unchanged.
    stored = corpus.digest(package, version) if triage == TRUE_POSITIVE else None
    digest = ContentDigest.parse(stored) if stored else None
    entry = corpus.set_label(package, version, as_label)
    if digest is not None:
        hash_set.register(digest, package, version)
    elif triage == TRUE_POSITIVE:
        logger.warning(
            "no stored digest for %s@%s; clone hash not registered", package, version,
        )
    return entry


def retrain(
    corpus: CorpusStore,
    assume_unflagged_benign: bool = False,
    nu: float = 0.001,
) -> tuple[dict[str, object], dict[str, str]]:
    """Train all three models from the corpus; see `train_all`.

    Unlabeled scanned vectors participate as benign only when
    assume_unflagged_benign is set (the assumption inflates false
    negatives over time, so it is off by default).
    """
    data = corpus.training_set(include_unlabeled=assume_unflagged_benign)
    return train_all(data.rows, data.labels, nu=nu)


# --- reporting ---


@dataclass
class ScanReport:
    verdicts: list[Verdict]

    def summary(self) -> dict:
        per_model = {
            m: sum(1 for v in self.verdicts if v.model_flags.get(m) == MALICIOUS)
            for m in MODEL_IDS
        }
        return {
            "total": len(self.verdicts),
            "flagged": sum(1 for v in self.verdicts if v.final == FLAGGED),
            "auto_cleared": sum(1 for v in self.verdicts if v.final == AUTO_CLEARED),
            "clean": sum(1 for v in self.verdicts if v.final == CLEAN),
            "errors": sum(1 for v in self.verdicts if v.final == ERROR),
            "model_flags": per_model,
            "clones": sum(1 for v in self.verdicts if v.clone_match is not None),
            "reproducer_clears": sum(
                1 for v in self.verdicts if v.reproduce_status == REPRODUCED
            ),
        }

    def to_lines(self) -> list[str]:
        lines = [json.dumps(v.to_record(), sort_keys=True) for v in self.verdicts]
        lines.append(json.dumps({"summary": self.summary()}, sort_keys=True))
        return lines

    def write(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.to_lines()) + "\n", encoding="utf-8")

    @classmethod
    def read(cls, path: str | Path) -> "ScanReport":
        """A report written by `write`; a line that is not a verdict record
        (or the summary) raises ValueError ``<file>:<line>: <reason>``."""
        verdicts = []
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                if "summary" not in record:
                    verdicts.append(Verdict.from_record(record))
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}:{lineno}: {reason}") from exc
        return cls(verdicts=verdicts)

    def render_text(self) -> str:
        s = self.summary()
        rows = [
            f"{v.package}@{v.version}: {v.final}"
            + (f" [models: {', '.join(m for m, r in v.model_flags.items() if r == MALICIOUS)}]"
               if v.model_flagged else "")
            + (" [clone]" if v.clone_match else "")
            + (f" [reproduce: {v.reproduce_status}]" if v.reproduce_status else "")
            + (f" [error: {v.error}]" if v.error else "")
            for v in self.verdicts
        ]
        model_bits = ", ".join(f"{m}={c}" for m, c in s["model_flags"].items())
        rows.append(
            f"-- {s['total']} scanned: {s['flagged']} flagged, "
            f"{s['auto_cleared']} auto-cleared, {s['clean']} clean, "
            f"{s['errors']} errors; flags by model: {model_bits}; "
            f"clones: {s['clones']}; reproducer clears: {s['reproducer_clears']}"
        )
        return "\n".join(rows)
