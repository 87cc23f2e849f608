"""In-memory spans around calls into pkgwatch, for the traced repetition.

The tracer replaces a function at the name its callers look it up by
(a module attribute such as ``pkgwatch.pipeline.load_tarball``, or a
method on its class such as ``FixtureRegistry.fetch_document``) and puts
the original back on ``restore``. Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    item: str | None    # the scanned package or labeled version it served
    thread: int
    error: str | None = None  # exception type that left the call
    size: int = 0             # bytes handled, where the layer has a size

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.item = None
        return self._local.stack

    @contextmanager
    def span(self, name: str, item: str | None = None, size: int = 0):
        """Record one span around the body; nested spans become children."""
        stack = self._stack()
        if item is not None:
            self._local.item = item
        record = Span(name, 0.0, 0.0, stack[-1] if stack else None,
                      self._local.item, threading.get_ident(), size=size)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def parent_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    def wrap(self, owner, attr: str, name: str, size=None, item=None) -> None:
        """Trace calls to owner.attr until restore().

        size(args, result) gives the bytes a call handled; item(args) names
        the item a call starts when it runs directly under a batch span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            starts = None
            if item is not None and tracer.parent_name() == "pipeline.scan":
                starts = item(args)
            with tracer.span(name, item=starts) as record:
                result = original(*args, **kwargs)
                if size is not None:
                    record.size = size(args, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for record in spans:
        if record.parent is not None:
            children[record.parent].append(record)
    out = []
    for index, record in enumerate(spans):
        inner = [
            (max(c.start, record.start), min(c.end, record.end))
            for c in children[index]
            if c.end > record.start and c.start < record.end
        ]
        out.append(record.duration - covered(inner))
    return out


class Summary:
    """Per-name totals over a slice of spans."""

    def __init__(self, spans: list[Span], selfs: list[float]):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.size: dict[str, int] = defaultdict(int)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        for record, own in zip(spans, selfs):
            self.calls[record.name] += 1
            self.total[record.name] += record.duration
            self.self[record.name] += own
            self.size[record.name] += record.size
            if record.error:
                self.errors[(record.name, record.error)] += 1

    def mean(self, name: str, scale: float = 1.0) -> float:
        calls = self.calls.get(name, 0)
        return self.total[name] / calls * scale if calls else 0.0

    def mb_per_s(self, name: str) -> float:
        seconds = self.total.get(name, 0.0)
        return self.size[name] / 1e6 / seconds if seconds else 0.0
