"""Canonical content digests and the known-malware hash set.

The digest covers the sorted file sequence of an artifact with the
manifest's name and version stripped, so verbatim clones republished
under fresh coordinates still hash identically. Tarball metadata (entry
order, timestamps, permissions, compression level) never participates.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .artifact import MANIFEST_PATH, PackageArtifact

DEFAULT_ALGORITHM = "md5"
#: md5 matches the historical hash lists this tool ingests; blake2b-128 is
#: the collision-resistant alternative for new deployments.
ALGORITHMS = ("md5", "blake2b-128")


@dataclass(frozen=True)
class ContentDigest:
    value: str  # hex
    algorithm: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError(f"digest must look like 'algorithm:hex': {str(self)!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unsupported digest algorithm: {self.algorithm!r}")

    def __str__(self) -> str:
        return f"{self.algorithm}:{self.value}"

    @classmethod
    def parse(cls, text: str) -> "ContentDigest":
        algorithm, _, value = text.partition(":")
        return cls(value=value, algorithm=algorithm)


@dataclass(frozen=True)
class CloneProvenance:
    package: str
    version: str
    date_added: str  # ISO date


def _new_hasher(algorithm: str):
    if algorithm == "md5":
        return hashlib.md5()
    if algorithm == "blake2b-128":
        return hashlib.blake2b(digest_size=16)
    raise ValueError(f"unsupported digest algorithm: {algorithm!r}")


def canonical_manifest_bytes(artifact: PackageArtifact) -> bytes:
    """Manifest re-serialized with name/version removed, keys sorted."""
    doc = {k: v for k, v in artifact.manifest.raw.items() if k not in ("name", "version")}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_file_sequence(artifact: PackageArtifact) -> list[tuple[str, bytes]]:
    """(path, content) pairs in sorted path order, manifest canonicalized."""
    out = []
    for entry in artifact.files:  # already sorted by path
        content = (
            canonical_manifest_bytes(artifact)
            if entry.path == MANIFEST_PATH
            else entry.content
        )
        out.append((entry.path, content))
    return out


def canonical_digest(
    artifact: PackageArtifact, algorithm: str = DEFAULT_ALGORITHM
) -> ContentDigest:
    """Digest of the canonical file sequence, invariant to name/version."""
    hasher = _new_hasher(algorithm)
    for path, content in canonical_file_sequence(artifact):
        # Length-prefix framing keeps (path, content) boundaries unambiguous.
        encoded = path.encode("utf-8")
        hasher.update(len(encoded).to_bytes(8, "big"))
        hasher.update(encoded)
        hasher.update(len(content).to_bytes(8, "big"))
        hasher.update(content)
    return ContentDigest(value=hasher.hexdigest(), algorithm=algorithm)


def read_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 text file, split by `str.splitlines`; ValueError
    ``<file>:<line>: <reason>`` for bytes that are not UTF-8, where <line>
    counts the newlines before them."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: {exc}") from exc


class MalwareHashSet:
    """Digests of known-malicious packages, backed by an append-only log.

    File format: one entry per line,
    ``<algorithm>:<hex>\\t<package>\\t<version>\\t<ISO date>``, with an
    algorithm from ALGORITHMS. A malformed line fails the load with
    ``<file>:<line>: <reason>``. Reads are lock-free on an immutable
    snapshot; writes are serialized.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: dict[ContentDigest, CloneProvenance] = {}
        self._algorithms: frozenset[str] = frozenset()
        self._lock = threading.Lock()
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        lines = read_lines(self._path)
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                if len(fields) != 4:
                    raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
                digest = ContentDigest.parse(fields[0])
            except ValueError as exc:
                raise ValueError(f"{self._path}:{lineno}: {exc}") from exc
            self._entries.setdefault(digest, CloneProvenance(*fields[1:]))
        self._algorithms = frozenset(d.algorithm for d in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: ContentDigest) -> bool:
        return digest in self._entries

    def algorithms(self) -> set[str]:
        return set(self._algorithms)

    def register(
        self,
        digest: ContentDigest,
        package: str,
        version: str,
        date_added: str | None = None,
    ) -> bool:
        """Add a digest; returns False if it was already present.

        ValueError, with nothing stored or appended, for an entry whose line
        `_load` would not read back as these four fields."""
        with self._lock:
            if digest in self._entries:
                return False
            provenance = CloneProvenance(
                package=package,
                version=version,
                date_added=date_added or date.today().isoformat(),
            )
            fields = [str(digest), package, version, provenance.date_added]
            line = "\t".join(fields)
            if line.strip().splitlines() != [line] or line.split("\t") != fields:
                raise ValueError(f"hash list entry would not read back: {line!r}")
            if self._path is not None:
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            self._entries[digest] = provenance
            self._algorithms |= {digest.algorithm}
            return True

    def lookup(self, digest: ContentDigest) -> CloneProvenance | None:
        return self._entries.get(digest)

    def entries(self) -> list[tuple[ContentDigest, CloneProvenance]]:
        return list(self._entries.items())


def find_clone(
    artifact: PackageArtifact,
    hash_set: MalwareHashSet,
    known: ContentDigest | None = None,
) -> CloneProvenance | None:
    """Exact-match lookup of the artifact against known-malicious digests.

    `known`, the artifact's canonical digest in one algorithm if the caller
    has it, is used instead of hashing the artifact again in that algorithm.
    """
    for algorithm in sorted(hash_set.algorithms()):
        if known is not None and known.algorithm == algorithm:
            digest = known
        else:
            digest = canonical_digest(artifact, algorithm)
        match = hash_set.lookup(digest)
        if match is not None:
            return match
    return None
