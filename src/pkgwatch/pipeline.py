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
from array import array
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
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
    read_lines,
)
from .errors import PkgwatchError, UnknownVersion
from .features import FeatureVector, extract_features
from .patterns import DEFAULT_PATTERN_TABLE, PatternTable
from .reproduce import (
    NO_REPO,
    REPRODUCED,
    STATUSES,
    ReproducerConfig,
    make_plan,
    reproduce,
)
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

#: The fields `Verdict.to_record` writes.
RECORD_FIELDS = ("package", "version", "models", "final", "clone", "reproduce", "digest",
                 "error")


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
        return record

    @classmethod
    def from_record(cls, record: dict) -> "Verdict":
        """The verdict `to_record` wrote; ValueError for a field it never
        writes, an unknown model, model output or reproduce status, or a
        `final` that the fusion rule does not give."""
        for name in record:
            if name not in RECORD_FIELDS:
                raise ValueError(f"unknown field {name!r}")
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
        )
        for model_id, flag in verdict.model_flags.items():
            if model_id not in MODEL_IDS:
                raise ValueError(f"unknown model {model_id!r}")
            if flag not in (MALICIOUS, BENIGN):
                raise ValueError(f"model {model_id} output {flag!r} is not malicious or benign")
        if verdict.reproduce_status not in (None, *STATUSES):
            raise ValueError(f"unknown reproduce status {verdict.reproduce_status!r}")
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
#: Names a corpus snapshot's layout; with NUMERIC_SCHEMA, the tag a
#: snapshot must carry to be read.
SNAPSHOT_FORMAT = "pkgwatch-corpus-snapshot/1"
#: A snapshot stores each row's label as its index here.
SNAPSHOT_LABELS = (None, BENIGN, MALICIOUS)


def replace_atomically(files: list[tuple[Path, Callable[[Path], object]]]) -> None:
    """Give each (path, write) pair new content: `write(temporary)` fills a
    file beside `path`, and once every one is written, each is renamed over
    its path, in order. A failed write changes no path and leaves no
    temporary file; a reader sees each path whole, old or new."""
    staged = []
    try:
        for path, write in files:
            temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
            staged.append((temporary, path))
            write(temporary)
        for temporary, path in staged:
            os.replace(temporary, path)
    finally:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)


@dataclass
class StoredVector:
    """One corpus entry, as `CorpusStore` builds it from its columns."""

    vector: ChangeVector
    digest: str | None = None


class CorpusStore:
    """Append-only store of scanned/labeled change vectors.

    Every mutation appends a line; the in-memory view folds the log with
    latest-label-wins semantics, so relabels are audit-visible rather than
    silent overwrites: each label's date and the label history of a key
    are in the log alone. Keys are (package, version), unique: the first
    vector of a key is kept, unless it is unlabeled and a later vector of
    the key is labeled.

    The folded view is columnar: a key -> row index dict, one float64
    matrix of rows in NUMERIC_SCHEMA order (grown by doubling), and
    parallel label and digest lists. `get` and `set_label` build their
    `StoredVector`s from these on demand.

    A load starts from the snapshot beside the log (`snapshot_path`): the
    view's columns as of a prefix of the log, with that prefix's length,
    line count and sha256. It is used only if it is whole and the log still
    starts with that prefix; then only the lines after it are replayed.
    Otherwise every line is. The log stays the only source of truth: the
    snapshot is rewritten by loads, never by writes, and deleting it costs
    only time.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.snapshot_path = self.path.with_name(self.path.name + ".snapshot")
        self._index: dict[tuple[str, str], int] = {}
        self._keys: list[tuple[str, str]] = []
        self._rows = np.empty((0, len(NUMERIC_SCHEMA)))
        self._labels: list[str | None] = []
        self._digests: list[str | None] = []
        self._training_sets: dict[bool, tuple[np.ndarray, LabeledDataset]] = {}
        self._lock = threading.Lock()
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            lineno, hasher = self._restore(fh)
            prefix = fh.tell()
            # lines[i] is the line that row i was last read from; 0 for a
            # row of the snapshot, whose rows are all finite.
            lines = array("l", [0]) * len(self._keys)
            line = b""
            try:
                for lineno, line in enumerate(fh, start=lineno + 1):
                    hasher.update(line)
                    # json.loads would also take bytes in UTF-16 and UTF-32.
                    text = line.decode("utf-8")
                    if lineno == 1:
                        header = json.loads(text)
                        if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
                            raise ValueError("not a corpus file")
                    elif text.strip():
                        index = self._apply(json.loads(text))
                        if index == len(lines):
                            lines.append(lineno)
                        elif index is not None:
                            lines[index] = lineno
                if lineno == 0:
                    lineno = 1
                    raise ValueError("not a corpus file")
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{self.path}:{lineno}: {reason}") from exc
            end = fh.tell()
        # json.loads takes NaN, Infinity and 1e999. One check of the folded
        # rows keeps the load fast; a row the fold discarded is not checked.
        rows = self._rows[:len(self._keys)]
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if len(bad):
            index = min(bad.tolist(), key=lines.__getitem__)
            column = int(np.flatnonzero(~np.isfinite(rows[index]))[0])
            raise ValueError(f"{self.path}:{lines[index]}: {NUMERIC_SCHEMA[column]} "
                             f"is not a finite number: {float(rows[index, column])}")
        # A replay at least as long as the snapshot's prefix (every full
        # fold) rewrites it, so rewrites cost no more than the replays they
        # save. A last line without its newline may still be growing.
        if end - prefix >= prefix and line.endswith(b"\n"):
            self._save_snapshot([end, lineno, hasher.hexdigest()])

    def _restore(self, log) -> tuple[int, "hashlib._Hash"]:
        """Restore the view from the snapshot if it is whole and folds a
        prefix of `log`: that prefix's line count and a sha256 of its bytes,
        with `log` just after it. Otherwise the view stays empty: 0 and a
        fresh sha256, with `log` at its start."""
        try:
            with open(self.snapshot_path, "rb") as fh:
                header = json.loads(fh.readline(4096))
                checksum = header.pop("sha256")
                if (header["format"], header["schema"]) != (SNAPSHOT_FORMAT,
                                                            list(NUMERIC_SCHEMA)):
                    raise ValueError("another format or other columns")
                n, (size, count, digest) = header["rows"], header["prefix"]
                rows, codes, blob = (np.lib.format.read_array(fh, allow_pickle=False)
                                     for _ in range(3))
                if fh.read(1):
                    raise ValueError("bytes after the last column")
            if (rows.dtype, rows.shape, codes.dtype, codes.shape, blob.dtype, blob.ndim) != (
                    np.float64, (n, len(NUMERIC_SCHEMA)), np.uint8, (n,), np.uint8, 1):
                raise ValueError("columns of another type or length")
            hasher = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
            for column in (rows, codes, blob):
                hasher.update(column)
            if hasher.hexdigest() != checksum:
                raise ValueError("checksum mismatch")
            if not np.isfinite(rows).all():
                raise ValueError("a row that is not finite")
            packages, versions, digests = json.loads(blob.tobytes())
            keys = list(zip(packages, versions))
            labels = list(map(SNAPSHOT_LABELS.__getitem__, codes.tolist()))
            index = dict(zip(keys, range(n)))
            if not len(packages) == len(versions) == len(index) == len(digests) == n \
                    or type(count) is not int:
                raise ValueError("columns of another length")
            hasher = hashlib.sha256()
            while size > 0 and (chunk := log.read(min(size, 1 << 20))):
                hasher.update(chunk)
                size -= len(chunk)
            if size or hasher.hexdigest() != digest:
                raise ValueError("the log does not start with the prefix it folds")
        except FileNotFoundError:
            pass
        # Damaged bytes can make any field any JSON value and any array
        # header anything, and numpy's header parser then raises more than
        # ValueError (tokenize.TokenError, say); no failure to read a cache
        # may fail the load.
        except Exception as exc:
            logger.info("corpus snapshot %s not used: %r", self.snapshot_path, exc)
        else:
            self._index, self._keys, self._rows = index, keys, rows
            self._labels, self._digests = labels, digests
            return count, hasher
        log.seek(0)
        return 0, hashlib.sha256()

    def _save_snapshot(self, prefix: list) -> None:
        """Write the view as the snapshot of the log `prefix` ([bytes, lines,
        sha256]) folds; a failed write is logged, not raised."""
        n = len(self._keys)
        header = {"format": SNAPSHOT_FORMAT, "schema": list(NUMERIC_SCHEMA), "rows": n,
                  "prefix": prefix}
        codes = {label: code for code, label in enumerate(SNAPSHOT_LABELS)}
        keys = json.dumps([[key[0] for key in self._keys], [key[1] for key in self._keys],
                           self._digests], separators=(",", ":")).encode()
        columns = (self._rows[:n], np.fromiter(map(codes.__getitem__, self._labels), np.uint8, n),
                   np.frombuffer(keys, np.uint8))
        hasher = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
        for column in columns:
            hasher.update(column)
        header["sha256"] = hasher.hexdigest()

        def write(temporary: Path) -> None:
            with open(temporary, "wb") as fh:
                fh.write(json.dumps(header).encode() + b"\n")
                for column in columns:
                    np.lib.format.write_array(fh, column, allow_pickle=False)

        try:
            replace_atomically([(self.snapshot_path, write)])
        except OSError as exc:
            logger.warning("corpus snapshot %s not written: %s", self.snapshot_path, exc)

    def _apply(self, event: dict) -> int | None:
        """Fold one event into the view; the index of the row a vector
        event stored, or None when it stored none."""
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
                index = len(self._keys)
                if index == len(self._rows):
                    # 64 doubled past index: a view restored from a snapshot
                    # with any row count grows to the same capacity as a fold.
                    grown = np.empty((64 << (index // 64).bit_length(), self._rows.shape[1]))
                    grown[:index] = self._rows
                    self._rows = grown
                self._index[key] = index
                self._keys.append(key)
                self._labels.append(label)
                self._digests.append(event.get("digest"))
            elif self._labels[index] is None and label is not None:
                self._labels[index] = label
            else:
                return None
            self._rows[index] = row
            self._training_sets.clear()
            return index
        if kind == "label":
            label = check_label(event["label"])
            index = self._index.get((event["package"], event["version"]))
            if index is not None:
                self._labels[index] = label
                self._training_sets.clear()
        return None

    def _stored(self, index: int) -> StoredVector:
        package, version = self._keys[index]
        return StoredVector(
            vector=decode(self._rows[index].tolist(), package, version, self._labels[index]),
            digest=self._digests[index],
        )

    def _write(self, event: dict) -> None:
        """Append `event` to the log, then fold it into the view as `_load`
        does; a failed append leaves the view unchanged."""
        new_file = not self.path.exists()
        with open(self.path, "a", encoding="utf-8") as fh:
            if new_file:
                fh.write(json.dumps({"format": CORPUS_FORMAT}) + "\n")
            fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._apply(event)

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
            if (vector.package, vector.version) in self._index:
                return False
            self._write({"event": "vector", "vector": vector.to_record(), "digest": digest})
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
            self._write({
                "event": "label",
                "package": package,
                "version": version,
                "label": label,
                "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            })
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
    """Directory of model files plus a manifest naming the generation that loads."""

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def _manifest(self) -> dict:
        """The manifest; FileNotFoundError without one, and ValueError
        ``<dir>/manifest.json: <reason>`` for one without a positive int
        `version` and a str `corpus_hash`."""
        path = self.directory / self.MANIFEST
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(manifest, dict):
                raise ValueError("not a JSON object")
            version, corpus_hash = manifest.get("version"), manifest.get("corpus_hash")
            if type(version) is not int or version < 1:
                raise ValueError(f"version must be a positive integer, got {version!r}")
            if not isinstance(corpus_hash, str):
                raise ValueError(f"corpus_hash must be a string, got {corpus_hash!r}")
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        return manifest

    def version(self) -> int:
        try:
            return self._manifest()["version"]
        except FileNotFoundError:
            return 0

    def save(self, models: dict[str, object], corpus_hash: str) -> int:
        """Write `models` as the next generation, manifest last, then delete
        the files of models it does not list.

        The files are renamed into place only once all are written (see
        `replace_atomically`), so a save that fails while writing leaves the
        previous generation as it was."""
        new_version = self.version() + 1
        self.directory.mkdir(parents=True, exist_ok=True)
        metadata = {"corpus_hash": corpus_hash, "model_version": new_version}
        manifest = json.dumps({
            "version": new_version,
            "corpus_hash": corpus_hash,
            "models": sorted(models),
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }, indent=1) + "\n"
        replace_atomically(
            [(self.directory / f"{model_id}.json", partial(save_model, model, metadata=metadata))
             for model_id, model in models.items()]
            + [(self.directory / self.MANIFEST, lambda path: path.write_text(manifest))]
        )
        for model_id in MODEL_IDS:
            if model_id not in models:
                (self.directory / f"{model_id}.json").unlink(missing_ok=True)
        return new_version

    def load(self) -> dict[str, object]:
        """The models the manifest lists, in MODEL_IDS order.

        FileNotFoundError without a manifest; ValueError for a manifest
        `_manifest` rejects, a `models` entry that is not a non-empty list
        of model ids, and a listed file that `save` did not write with this
        manifest."""
        manifest = self._manifest()
        listed = manifest.get("models")
        if not isinstance(listed, list) or not listed or any(m not in MODEL_IDS for m in listed):
            raise ValueError(f"{self.directory / self.MANIFEST}: models must be a "
                             f"non-empty list of {', '.join(MODEL_IDS)}, got {listed!r}")
        generation = {"model_version": manifest["version"],
                      "corpus_hash": manifest["corpus_hash"]}
        return {model_id: load_model(self.directory / f"{model_id}.json", model_id, generation)
                for model_id in MODEL_IDS if model_id in listed}


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
    # Registered before the label is appended, so that an entry the hash set
    # refuses leaves both stores unchanged.
    stored = corpus.digest(package, version) if triage == TRUE_POSITIVE else None
    if stored:
        hash_set.register(ContentDigest.parse(stored), package, version)
    entry = corpus.set_label(package, version, as_label)
    if triage == TRUE_POSITIVE and not stored:
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
        for lineno, line in enumerate(read_lines(Path(path)), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                if record.keys() != {"summary"}:
                    verdicts.append(Verdict.from_record(record))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
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
