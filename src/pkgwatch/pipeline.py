"""Scan workflow: fetch, extract, classify, reproduce, clone-check, triage,
retrain. Verdict fusion is any-of: one flagging model (or a clone match)
flags the version; only a canonical rebuild match clears a model flag, and
clone matches are never cleared.

A scan gives each package to one worker, which reads its document once and
scans its items in publish order; each version's features, extracted once,
feed its successor's change vector from that worker's locals.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
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
from .vectorize import BENIGN, MALICIOUS, ChangeVector, build_change_vector, encode
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
        clone = record.get("clone")
        return cls(
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


@dataclass
class StoredVector:
    vector: ChangeVector
    digest: str | None = None
    label_date: str | None = None
    label_history: list[str] = field(default_factory=list)


class CorpusStore:
    """Append-only store of scanned/labeled change vectors.

    Every mutation appends a line; the in-memory view folds the log with
    latest-label-wins semantics, so relabels are audit-visible rather than
    silent overwrites. Keys are (package, version), unique.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[str, str], StoredVector] = {}
        self._lock = threading.Lock()
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            if header.get("format") != CORPUS_FORMAT:
                raise ValueError(f"not a corpus file: {self.path}")
            for line in fh:
                if line.strip():
                    self._apply(json.loads(line))

    def _apply(self, event: dict) -> None:
        kind = event.get("event")
        if kind == "vector":
            vector = ChangeVector.from_record(event["vector"])
            key = (vector.package, vector.version)
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = StoredVector(
                    vector=vector, digest=event.get("digest")
                )
            elif entry.vector.label is None and vector.label is not None:
                entry.vector = vector
        elif kind == "label":
            key = (event["package"], event["version"])
            entry = self._entries.get(key)
            if entry is not None:
                entry.vector = entry.vector.with_label(event["label"])
                entry.label_date = event.get("date")
                entry.label_history.append(event["label"])

    def _append(self, event: dict) -> None:
        new_file = not self.path.exists()
        with open(self.path, "a", encoding="utf-8") as fh:
            if new_file:
                fh.write(json.dumps({"format": CORPUS_FORMAT}) + "\n")
            fh.write(json.dumps(event, sort_keys=True) + "\n")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._entries

    def get(self, package: str, version: str) -> StoredVector | None:
        return self._entries.get((package, version))

    def add_vector(self, vector: ChangeVector, digest: str | None = None) -> bool:
        """Record a vector; existing (package, version) entries are kept."""
        with self._lock:
            key = (vector.package, vector.version)
            if key in self._entries:
                return False
            self._entries[key] = StoredVector(vector=vector, digest=digest)
            self._append(
                {"event": "vector", "vector": vector.to_record(), "digest": digest}
            )
            return True

    def set_label(self, package: str, version: str, label: str) -> StoredVector:
        if label not in (MALICIOUS, BENIGN):
            raise ValueError(f"label must be malicious/benign, got {label!r}")
        with self._lock:
            entry = self._entries.get((package, version))
            if entry is None:
                raise UnknownVersion(f"{package}@{version} not in corpus")
            if entry.vector.label is not None and entry.vector.label != label:
                logger.warning(
                    "relabeling %s@%s: %s -> %s",
                    package, version, entry.vector.label, label,
                )
            event = {
                "event": "label",
                "package": package,
                "version": version,
                "label": label,
                "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            }
            self._append(event)
            self._apply(event)
            return entry

    def vectors(self, include_unlabeled: bool = False) -> list[StoredVector]:
        entries = sorted(self._entries.items())
        return [
            e for _, e in entries
            if include_unlabeled or e.vector.label is not None
        ]

    def corpus_hash(self, include_unlabeled: bool = False) -> str:
        hasher = hashlib.sha256()
        for entry in self.vectors(include_unlabeled):
            hasher.update(
                json.dumps(entry.vector.to_record(), sort_keys=True).encode()
            )
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
                models[model_id] = load_model(path)
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
            verdict.digest = str(canonical_digest(artifact))

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

            row = np.asarray(encode(vector).values)
            verdict.model_flags = predict_all(models, row)
            verdict.clone_match = find_clone(artifact, hash_set)

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

    Per-item failures become error verdicts without aborting the batch;
    the report order is deterministic (name, then version) regardless of
    worker scheduling.
    """
    packages: dict[str, list[str]] = {}
    for name, version in sorted(set(batch)):
        packages.setdefault(name, []).append(version)

    def work(package: tuple[str, list[str]]):
        name, versions = package
        try:
            return _scan_package(registry, name, versions, models, hash_set,
                                 pattern_table, reproducer_config)
        except Exception as exc:  # an unexpected failure costs only this package
            logger.exception("scan of package %s failed", name)
            return [_failed(Verdict(package=name, version=v), exc) for v in versions]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(work, packages.items()))
    else:
        groups = [work(package) for package in packages.items()]

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
    entry = corpus.set_label(package, version, as_label)
    if triage == TRUE_POSITIVE:
        if entry.digest:
            hash_set.register(ContentDigest.parse(entry.digest), package, version)
        else:
            logger.warning(
                "no stored digest for %s@%s; clone hash not registered",
                package, version,
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
    vectors = [
        entry.vector if entry.vector.label is not None
        else entry.vector.with_label(BENIGN)
        for entry in corpus.vectors(include_unlabeled=assume_unflagged_benign)
    ]
    data = LabeledDataset.from_vectors(vectors)
    return train_all(data.rows, data.labels, data.schema, nu=nu)


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
        verdicts = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if "summary" in record:
                continue
            verdicts.append(Verdict.from_record(record))
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
