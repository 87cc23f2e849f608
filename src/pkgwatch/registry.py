"""Package metadata and tarball access: npm-compatible HTTP or local fixtures.

Fixture mode serves a directory of ``{name}.meta`` JSON documents (npm
registry document layout: ``versions`` plus a ``time`` map) and
``{name}-{version}.tgz`` tarballs, and performs no network activity at
all; it is the mode desk-scale runs and the test suite use. HTTP mode
talks to a real registry with retries and an optional on-disk tarball
cache. All timestamps leave this module as UTC seconds.

``fetch_tarball(name, version, dist)`` verifies against the ``dist`` entry
of a document the caller holds and never reads the document itself, so a
scan reads each package's document once.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import tempfile
import time as _time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .errors import IntegrityMismatch, MalformedDocument, NotFound, TransportError
from .versioning import VersionTimeline, parse_iso8601

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PackageDocument:
    name: str
    time: dict[str, float]  # version -> UTC seconds
    dist: dict[str, dict]

    def timeline(self) -> VersionTimeline:
        return VersionTimeline.from_entries(self.name, list(self.time.items()))


def _parse_document(name: str, doc: dict) -> PackageDocument:
    """The publish times and dist entries of the document fetched for
    `name`, which names it whatever its own ``name`` says; an unparseable
    timestamp, or a version the time map lacks, is logged and left out."""
    if not isinstance(doc, dict) or not isinstance(doc.get("versions"), dict):
        raise MalformedDocument(f"registry document for {name!r} lacks versions")
    stamps = doc.get("time") or {}
    if not isinstance(stamps, dict):
        raise MalformedDocument(f"registry document for {name!r} has a non-object time map")
    time_map: dict[str, float] = {}
    for version, stamp in stamps.items():
        if version in ("created", "modified"):
            continue
        try:
            time_map[version] = parse_iso8601(stamp)
        except (ValueError, TypeError):
            logger.warning("%s: unparseable timestamp for %s: %r", name, version, stamp)
    for version in doc["versions"]:
        if version not in time_map:
            logger.warning("%s: version %s missing from time map", name, version)

    dist = {
        version: excerpt["dist"]
        for version, excerpt in doc["versions"].items()
        if isinstance(excerpt, dict) and isinstance(excerpt.get("dist"), dict)
    }
    return PackageDocument(name=name, time=time_map, dist=dist)


def verify_integrity(data: bytes, dist: dict | None, context: str) -> None:
    """Check tarball bytes against a dist entry's integrity/shasum field.

    A missing declaration is tolerated with a warning; a wrong digest is
    an IntegrityMismatch.
    """
    if not dist:
        logger.warning("%s: no dist metadata, integrity unchecked", context)
        return
    integrity = dist.get("integrity")
    if isinstance(integrity, str) and "-" in integrity:
        algo, _, expected = integrity.partition("-")
        if algo in ("sha512", "sha384", "sha256", "sha1"):
            actual = base64.b64encode(hashlib.new(algo, data).digest()).decode()
            if actual != expected:
                raise IntegrityMismatch(f"{context}: integrity digest mismatch")
            return
    shasum = dist.get("shasum")
    if isinstance(shasum, str) and shasum:
        if hashlib.sha1(data).hexdigest() != shasum.lower():
            raise IntegrityMismatch(f"{context}: shasum mismatch")
        return
    logger.warning("%s: no integrity digest declared", context)


def _check_name(name: str) -> str:
    """Reject names that could escape the fixture root or the URL path."""
    if not name or name.startswith(("/", "~")) or ".." in name.split("/"):
        raise ValueError(f"invalid package name: {name!r}")
    return name


def _check_version(version: str) -> str:
    """Reject versions that would act as a path in a tarball file name."""
    if not version or "/" in version or "\\" in version:
        raise ValueError(f"invalid version: {version!r}")
    return version


def list_window(
    registry, names: list[str], since: float, until: float
) -> list[tuple[str, str, float]]:
    """(name, version, ts) of each version of `names` published inside
    [since, until], sorted by (ts, name, version); a name without a
    readable document is logged and skipped."""
    if since > until:
        raise ValueError("since must not exceed until")
    found: list[tuple[str, str, float]] = []
    for name in names:
        try:
            document = registry.fetch_document(name)
        except (NotFound, MalformedDocument) as exc:
            logger.warning("skipping %s: %s", name, exc)
            continue
        for version, ts in document.time.items():
            if since <= ts <= until:
                found.append((document.name, version, ts))
    found.sort(key=lambda item: (item[2], item[0], item[1]))
    return found


class FixtureRegistry:
    """Registry backed by a local directory; never touches the network."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def fetch_document(self, name: str) -> PackageDocument:
        path = self.root / f"{_check_name(name)}.meta"
        if not path.is_file():
            raise NotFound(f"no fixture document for {name!r}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        # RecursionError: nesting deeper than the JSON decoder's recursion limit.
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedDocument(f"fixture document {path}: {exc}") from exc
        return _parse_document(name, doc)

    def fetch_tarball(self, name: str, version: str, dist: dict | None) -> bytes:
        path = self.root / f"{_check_name(name)}-{_check_version(version)}.tgz"
        if not path.is_file():
            raise NotFound(f"no fixture tarball for {name}@{version}")
        data = path.read_bytes()
        verify_integrity(data, dist, f"{name}@{version}")
        return data

    def list_new_versions(
        self, since: float, until: float
    ) -> list[tuple[str, str, float]]:
        """All fixture versions published inside [since, until], time-sorted."""
        names = [str(meta.relative_to(self.root))[: -len(".meta")]
                 for meta in sorted(self.root.rglob("*.meta"))]
        return list_window(self, names, since, until)


class HttpRegistry:
    """npm-compatible registry over HTTP with retries and a tarball cache.

    Without a `session`, the registry opens one `requests.Session` per
    process on first use, so a worker forked from a process that has
    already made requests never shares its keep-alive connections. A
    caller-supplied `session` is used as given, in every process.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.5,
        cache_dir: str | Path | None = None,
        session=None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._session = session
        # The process that opened self._session; None for a caller's session.
        self._session_pid: int | None = None

    @property
    def session(self):
        """The session requests go through in the calling process."""
        if self._session is None or self._session_pid not in (None, os.getpid()):
            import requests

            self._session = requests.Session()
            self._session_pid = os.getpid()
        return self._session

    def _get(self, url: str):
        import requests

        delay = self.backoff
        last_error: Exception | None = None
        for attempt in range(self.retries):
            try:
                response = self.session.get(url, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
            else:
                if response.status_code == 404:
                    raise NotFound(f"404 for {url}")
                if response.status_code >= 500:
                    last_error = TransportError(
                        f"{response.status_code} from {url}"
                    )
                elif response.status_code >= 400:
                    raise TransportError(f"{response.status_code} from {url}")
                else:
                    return response
            if attempt + 1 < self.retries:
                _time.sleep(delay)
                delay *= 2
        raise TransportError(f"giving up on {url}: {last_error}")

    def fetch_document(self, name: str) -> PackageDocument:
        encoded = urllib.parse.quote(name, safe="@")
        response = self._get(f"{self.base_url}/{encoded}")
        try:
            doc = response.json()
        except (ValueError, RecursionError) as exc:
            raise MalformedDocument(f"unparseable document for {name!r}") from exc
        return _parse_document(name, doc)

    def _cache_path(self, name: str, version: str) -> Path | None:
        if self.cache_dir is None:
            return None
        safe = name.replace("/", "__")
        return self.cache_dir / f"{safe}-{version}.tgz"

    def fetch_tarball(self, name: str, version: str, dist: dict | None) -> bytes:
        _check_version(version)
        if dist is None:
            raise NotFound(f"no dist entry for {name}@{version}")

        cached = self._cache_path(name, version)
        if cached is not None and cached.is_file():
            data = cached.read_bytes()
            verify_integrity(data, dist, f"{name}@{version} (cache)")
            return data

        if not dist or not dist.get("tarball"):
            raise NotFound(f"{name}@{version} declares no tarball URL")
        data = self._get(dist["tarball"]).content
        verify_integrity(data, dist, f"{name}@{version}")
        if cached is not None:
            cached.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(cached.parent), suffix=".part")
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, cached)  # atomic: cache never holds partial files
        return data

    def list_new_versions(
        self, since: float, until: float, names: list[str]
    ) -> list[tuple[str, str, float]]:
        """Versions of the given packages published inside [since, until]."""
        return list_window(self, names, since, until)


def open_registry(spec: str, cache_dir: str | Path | None = None):
    """Directory path -> fixture mode; http(s) URL -> HTTP mode."""
    if spec.startswith(("http://", "https://")):
        return HttpRegistry(spec, cache_dir=cache_dir)
    path = Path(spec)
    if path.is_dir():
        return FixtureRegistry(path)
    raise ValueError(f"registry spec is neither a URL nor a directory: {spec!r}")
