"""Decode npm package tarballs into immutable in-memory artifacts.

An npm tarball is a gzip-compressed tar whose entries conventionally live
under a single ``package/`` prefix. Decoding strips that prefix, normalizes
and safety-checks paths, and parses the root ``package.json`` manifest.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
import tarfile
from dataclasses import dataclass
from typing import Any

from .errors import CorruptArchive, ManifestParseError, MissingManifest

logger = logging.getLogger(__name__)

MANIFEST_PATH = "package.json"

#: File suffixes treated as scannable source code.
DEFAULT_SOURCE_EXTENSIONS = (".js", ".mjs", ".cjs", ".jsx", ".ts", ".tsx")


@dataclass(frozen=True)
class FileEntry:
    """One regular file from the tarball, path normalized and rooted."""

    path: str
    content: bytes


@dataclass(frozen=True)
class Manifest:
    """Parsed package.json fields the pipeline cares about."""

    name: str
    version: str
    scripts: dict[str, str]
    repository_url: str | None
    repository_commit: str | None
    raw: dict[str, Any]


@dataclass(frozen=True)
class PackageArtifact:
    """Decoded package: manifest plus lexicographically sorted file entries."""

    name: str
    version: str
    files: tuple[FileEntry, ...]
    manifest: Manifest

    def file_map(self) -> dict[str, bytes]:
        return {f.path: f.content for f in self.files}


def _normalize_path(raw: str) -> str:
    path = raw.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    parts = [p for p in path.split("/") if p not in ("", ".")]
    if any(p == ".." for p in parts):
        raise CorruptArchive(f"path traversal in archive entry: {raw!r}")
    if raw.startswith("/") or (len(raw) > 1 and raw[1] == ":"):
        raise CorruptArchive(f"absolute path in archive entry: {raw!r}")
    return "/".join(parts)


def _parse_repository(raw: dict[str, Any]) -> str | None:
    repo = raw.get("repository")
    if isinstance(repo, str):
        return repo or None
    if isinstance(repo, dict):
        url = repo.get("url")
        if isinstance(url, str) and url:
            return url
    return None


def _parse_manifest(content: bytes) -> Manifest:
    # RecursionError: nesting deeper than the JSON decoder's recursion limit.
    try:
        doc = json.loads(content.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ManifestParseError(f"package.json is not well-formed: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestParseError("package.json must contain a JSON object")

    scripts = {
        k: v
        for k, v in (doc.get("scripts") or {}).items()
        if isinstance(k, str) and isinstance(v, str)
    } if isinstance(doc.get("scripts"), dict) else {}
    commit = doc.get("gitHead")

    return Manifest(
        name=doc.get("name", "") if isinstance(doc.get("name"), str) else "",
        version=doc.get("version", "") if isinstance(doc.get("version"), str) else "",
        scripts=scripts,
        repository_url=_parse_repository(doc),
        repository_commit=commit if isinstance(commit, str) and commit else None,
        raw=doc,
    )


def load_tarball(data: bytes) -> PackageArtifact:
    """Decode a gzip-compressed tar stream into a PackageArtifact.

    File order is deterministic (sorted by normalized path) regardless of
    archive entry order. Symlinks and hardlinks are rejected; duplicate
    paths keep the last entry, matching tar extraction semantics.

    Raises:
        CorruptArchive: not gzip/tar, or unsafe entries (links, traversal).
        MissingManifest: no package.json at the package root.
        ManifestParseError: package.json is not well-formed JSON.
    """
    members: list[tuple[str, bytes]] = []  # (entry name, content), archive order
    try:
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as tar:
            for member in tar:
                if member.issym() or member.islnk():
                    raise CorruptArchive(f"archive contains a link entry: {member.name!r}")
                if not member.isreg():
                    continue
                handle = tar.extractfile(member)
                if handle is None:
                    continue
                members.append((member.name, handle.read()))
    except CorruptArchive:
        raise
    except (tarfile.TarError, gzip.BadGzipFile, EOFError, OSError) as exc:
        raise CorruptArchive(f"not a readable gzip/tar stream: {exc}") from exc

    if not members:
        raise MissingManifest("archive contains no regular files")

    paths = [_normalize_path(name) for name, _ in members]
    # Publishers conventionally nest everything under package/; deviants get
    # their first entry's leading component treated as the prefix.
    heads = [path.split("/", 1)[0] for path in paths]
    prefix = "package" if "package" in heads else heads[0]

    normalized: dict[str, bytes] = {}
    for path, (_, content) in zip(paths, members):  # archive order: later entries win
        parts = path.split("/")
        if len(parts) > 1 and parts[0] == prefix:
            path = "/".join(parts[1:])
        if path:
            normalized[path] = content

    if MANIFEST_PATH not in normalized:
        raise MissingManifest("no root package.json in archive")

    manifest = _parse_manifest(normalized[MANIFEST_PATH])
    if not manifest.name or not manifest.version:
        logger.warning("manifest missing name/version")

    files = tuple(FileEntry(path=p, content=normalized[p]) for p in sorted(normalized))
    return PackageArtifact(name=manifest.name, version=manifest.version, files=files,
                           manifest=manifest)


def source_files(artifact: PackageArtifact) -> list[FileEntry]:
    """Entries whose path ends in one of the source extensions, in artifact order."""
    return [f for f in artifact.files if f.path.endswith(DEFAULT_SOURCE_EXTENSIONS)]
