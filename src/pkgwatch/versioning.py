"""Semantic versions, chronological version timelines, and update typing."""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import total_ordering

from .errors import NegativeInterval, UnknownVersion, VersionParseError

logger = logging.getLogger(__name__)

_SEMVER_RE = re.compile(
    r"^(?P<major>0|[1-9]\d*)\.(?P<minor>0|[1-9]\d*)\.(?P<patch>0|[1-9]\d*)"
    r"(?:-(?P<prerelease>(?:0|[1-9]\d*|\d*[a-zA-Z-][0-9a-zA-Z-]*)"
    r"(?:\.(?:0|[1-9]\d*|\d*[a-zA-Z-][0-9a-zA-Z-]*))*))?"
    r"(?:\+(?P<build>[0-9a-zA-Z-]+(?:\.[0-9a-zA-Z-]+)*))?$"
)


class UpdateType(enum.Enum):
    MAJOR = "major"
    MINOR = "minor"
    PATCH = "patch"
    PRERELEASE = "prerelease"
    BUILD = "build"
    FIRST = "first"


#: Fixed one-hot column order used by the encoders.
UPDATE_TYPE_ORDER = (
    UpdateType.MAJOR,
    UpdateType.MINOR,
    UpdateType.PATCH,
    UpdateType.PRERELEASE,
    UpdateType.BUILD,
    UpdateType.FIRST,
)


@total_ordering
@dataclass(frozen=True)
class SemVer:
    major: int
    minor: int
    patch: int
    prerelease: tuple[str, ...] = ()
    build: tuple[str, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "SemVer":
        m = _SEMVER_RE.match(text.strip())
        if m is None:
            raise VersionParseError(f"invalid semantic version: {text!r}")
        pre = tuple(m.group("prerelease").split(".")) if m.group("prerelease") else ()
        build = tuple(m.group("build").split(".")) if m.group("build") else ()
        return cls(
            major=int(m.group("major")),
            minor=int(m.group("minor")),
            patch=int(m.group("patch")),
            prerelease=pre,
            build=build,
        )

    def __str__(self) -> str:
        out = f"{self.major}.{self.minor}.{self.patch}"
        if self.prerelease:
            out += "-" + ".".join(self.prerelease)
        if self.build:
            out += "+" + ".".join(self.build)
        return out

    @property
    def core(self) -> tuple[int, int, int]:
        return (self.major, self.minor, self.patch)

    def _precedence_key(self):
        # Build metadata is ignored for precedence. A release sorts above
        # its prereleases; prerelease identifiers compare numerically when
        # numeric, numeric below alphanumeric, fewer identifiers below more
        # (which tuple comparison gives for free).
        pre_key = tuple(
            (0, int(ident), "") if ident.isdigit() else (1, 0, ident)
            for ident in self.prerelease
        )
        return (self.core, 1 if not self.prerelease else 0, pre_key)

    def __lt__(self, other: "SemVer") -> bool:
        return self._precedence_key() < other._precedence_key()


def classify_update(prev: SemVer, nxt: SemVer) -> UpdateType:
    """Update type between two consecutive versions.

    Prerelease identifiers on the new version take precedence; otherwise
    the highest-order differing core component decides; otherwise a
    build-metadata-only difference; a verbatim republish counts as patch.
    Never returns FIRST (only the vectorizer assigns it).
    """
    if nxt.prerelease:
        return UpdateType.PRERELEASE
    if nxt.major != prev.major:
        return UpdateType.MAJOR
    if nxt.minor != prev.minor:
        return UpdateType.MINOR
    if nxt.patch != prev.patch:
        return UpdateType.PATCH
    if nxt.build != prev.build:
        return UpdateType.BUILD
    logger.warning("identical version republished: %s", nxt)
    return UpdateType.PATCH


@dataclass(frozen=True)
class VersionTimeline:
    """A package's published versions ordered by publication time.

    Timestamp ties are broken by semver precedence, then by the raw
    version string, so ordering is deterministic even for versions
    published within the same millisecond.
    """

    package: str
    entries: tuple[tuple[str, float], ...]

    @classmethod
    def from_entries(
        cls, package: str, entries: list[tuple[str, float]]
    ) -> "VersionTimeline":
        def sort_key(entry: tuple[str, float]):
            version, ts = entry
            try:
                sv = SemVer.parse(version)
                sem_key = (0, sv._precedence_key())
            except VersionParseError:
                sem_key = (1, version)
            return (ts, sem_key, version)

        return cls(package=package, entries=tuple(sorted(entries, key=sort_key)))

    def timestamp_of(self, version: str) -> float:
        for v, ts in self.entries:
            if v == version:
                return ts
        raise UnknownVersion(f"{self.package}@{version} not in timeline")

    def previous_version(self, version: str) -> tuple[str, float] | None:
        """Entry immediately preceding `version` by publication time.

        Returns None for the earliest version; raises UnknownVersion when
        the version is absent from the timeline.
        """
        prev: tuple[str, float] | None = None
        for v, ts in self.entries:
            if v == version:
                return prev
            prev = (v, ts)
        raise UnknownVersion(f"{self.package}@{version} not in timeline")


def time_between(prev_ts: float, next_ts: float) -> float:
    """Seconds elapsed between two publication timestamps."""
    if next_ts < prev_ts:
        raise NegativeInterval(f"timestamps out of order: {prev_ts} > {next_ts}")
    return float(next_ts - prev_ts)


def parse_iso8601(stamp: str) -> float:
    """ISO-8601 timestamp to UTC seconds; trailing Z accepted."""
    if not isinstance(stamp, str):
        raise TypeError(f"timestamp is not a string: {stamp!r}")
    text = stamp.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()
