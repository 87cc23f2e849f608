"""Independent reference implementations the tests check against.

Everything here is deliberately naive and shares no code with the package:
histogram entropy in pure Python, exhaustive split search for the tree,
direct Bernoulli posterior arithmetic, and a generic quadratic-programming
solve of the one-class SVM dual. Two exceptions read the package's own
types: the corpus fold keeps one `ChangeVector` per (package, version) as
the store did before it became columnar, so it reads records through
`ChangeVector.from_record`; and the Boolean encoding is built one
`ChangeVector` at a time, where the package derives it from a matrix of
numeric rows. The tokenizer is the package's earlier one, a loop per
character, kept as the differential oracle of the compiled pattern;
`reference_count_matches` is the package's earlier rule matcher, which
collects a file's events first and then runs one match per rule; and
`reference_one_class_svm` is the package's earlier SVM solver, which steps
over every row and keeps its gradient incrementally. `reference_load_tarball`
is the package's earlier tarball decode, a `tarfile` walk into three entry
containers, with its own copy of the path normalizer; it parses the manifest
with the package's `_parse_manifest` and returns the package's types.
`argsort_tree_fit` is the package's earlier tree fit, which found each
split through a stable argsort of the column; it writes the same node
documents, so a test compares the two fits byte for byte.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import tarfile
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np


def naive_entropy(data: bytes) -> float:
    if not data:
        return 0.0
    freq: dict[int, int] = {}
    for b in data:
        freq[b] = freq.get(b, 0) + 1
    n = len(data)
    return -sum((c / n) * math.log2(c / n) for c in freq.values())


# --- decision tree ---

def _h(p: float) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def split_gain(y01: list[int], left_mask: list[bool]) -> float:
    n = len(y01)
    left = [y for y, m in zip(y01, left_mask) if m]
    right = [y for y, m in zip(y01, left_mask) if not m]
    h_parent = _h(sum(y01) / n)
    gain = h_parent
    for side in (left, right):
        if side:
            gain -= (len(side) / n) * _h(sum(side) / len(side))
    return gain


def exhaustive_best_split(X, y01) -> tuple[int, float, float] | None:
    """Best (column, midpoint threshold, gain) by brute force.

    Ties resolve to the lowest column, then the lowest threshold, mirroring
    the documented determinism rule.
    """
    X = np.asarray(X, dtype=float)
    y01 = [int(v) for v in y01]
    n, d = X.shape
    best = None
    for col in range(d):
        values = sorted(set(X[:, col].tolist()))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            if not lo <= threshold < hi:
                threshold = lo
            left_mask = [X[i, col] <= threshold for i in range(n)]
            if not any(left_mask) or all(left_mask):
                continue
            gain = split_gain(y01, left_mask)
            if best is None or gain > best[2]:
                best = (col, threshold, gain)
    return best


class ReferenceTree:
    """Exhaustive-search tree builder with the same stopping rules."""

    def __init__(self):
        self.root = None

    def fit(self, X, y01):
        X = np.asarray(X, dtype=float)
        y01 = np.asarray(y01, dtype=int)
        self.root = self._build(X, y01)
        return self

    def _build(self, X, y01):
        n_mal = int(y01.sum())
        if n_mal == 0 or n_mal == len(y01):
            return {"leaf": 1 if n_mal else 0}
        found = exhaustive_best_split(X, y01)
        if found is None:
            return {"leaf": 1 if n_mal * 2 >= len(y01) else 0}
        col, threshold, _ = found
        mask = X[:, col] <= threshold
        return {
            "col": col,
            "thr": threshold,
            "left": self._build(X[mask], y01[mask]),
            "right": self._build(X[~mask], y01[~mask]),
        }

    def predict_one(self, row) -> int:
        node = self.root
        while "leaf" not in node:
            node = node["left"] if row[node["col"]] <= node["thr"] else node["right"]
        return node["leaf"]

    def predict(self, X):
        return [self.predict_one(row) for row in np.asarray(X, dtype=float)]


def _entropy_from_counts(n_mal: np.ndarray, n: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        p = n_mal / n
        q = 1.0 - p
        h = -(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
              + np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0))
    return np.where(n > 0, h, 0.0)


def argsort_tree_fit(X, y) -> dict:
    """The document `DecisionTreeClassifier.fit(X, y).to_dict()` gives, from
    the package's earlier split search: a stable argsort of each column at
    each node, and class counts as a cumulative sum along it."""
    X = np.asarray(X, dtype=float)
    y01 = (np.asarray(y, dtype=object) == "malicious").astype(int)

    def leaf(idx):
        n_mal = int(y01[idx].sum())
        n_ben = len(idx) - n_mal
        return {"leaf": "malicious" if n_mal >= n_ben else "benign", "counts": [n_ben, n_mal]}

    def best_split(idx):
        n = len(idx)
        y_node = y01[idx]
        total_mal = int(y_node.sum())
        h_parent = _entropy_from_counts(np.array([total_mal]), np.array([n]))[0]
        best = None
        for col in range(X.shape[1]):
            values = X[idx, col]
            order = np.argsort(values, kind="stable")
            sv = values[order]
            cum_mal = np.cumsum(y_node[order])
            boundary = np.nonzero(sv[:-1] < sv[1:])[0]
            if len(boundary) == 0:
                continue
            n_left = boundary + 1
            mal_left = cum_mal[boundary]
            n_right = n - n_left
            mal_right = total_mal - mal_left
            gains = (
                h_parent
                - (n_left / n) * _entropy_from_counts(mal_left, n_left)
                - (n_right / n) * _entropy_from_counts(mal_right, n_right)
            )
            pos = int(np.argmax(gains))
            gain = float(gains[pos])
            if best is None or gain > best[0]:
                b = int(boundary[pos])
                lo, hi = float(sv[b]), float(sv[b + 1])
                threshold = (lo + hi) / 2.0
                if not lo <= threshold < hi:
                    threshold = lo
                best = (gain, col, threshold, b, order)
        return None if best is None else best[1:]

    def build(idx):
        n_mal = int(y01[idx].sum())
        if n_mal == 0 or n_mal == len(idx):
            return leaf(idx)
        found = best_split(idx)
        if found is None:
            return leaf(idx)
        col, threshold, b, order = found
        return {
            "column": col,
            "threshold": threshold,
            "counts": [len(idx) - n_mal, n_mal],
            "left": build(idx[order[: b + 1]]),
            "right": build(idx[order[b + 1 :]]),
        }

    return {"params": {"max_depth": None, "min_samples_leaf": 1},
            "root": build(np.arange(X.shape[0]))}


# --- naive bayes ---

def nb_log_posterior(X_train, y01, x, alpha: float = 1.0) -> tuple[float, float]:
    """(benign, malicious) log-posteriors computed directly from the formula."""
    X_train = np.asarray(X_train, dtype=float)
    y01 = np.asarray(y01, dtype=int)
    out = []
    for cls in (0, 1):
        rows = X_train[y01 == cls]
        n_c = len(rows)
        score = math.log(n_c / len(y01))
        for j in range(X_train.shape[1]):
            theta = (rows[:, j].sum() + alpha) / (n_c + 2 * alpha)
            score += math.log(theta) if x[j] == 1 else math.log(1 - theta)
        out.append(score)
    return tuple(out)


# --- one-class SVM ---

def qp_one_class_svm(Z, nu: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the dual min 0.5 a'Ka s.t. 0<=a<=1/(nu n), sum(a)=1 with SLSQP.

    Returns (alpha, w, rho) on the already-standardized matrix Z.
    """
    from scipy.optimize import minimize

    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    K = Z @ Z.T
    C = 1.0 / (nu * n)

    def objective(a):
        return 0.5 * a @ K @ a

    def gradient(a):
        return K @ a

    start = np.full(n, 1.0 / n)
    result = minimize(
        objective,
        start,
        jac=gradient,
        bounds=[(0.0, C)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0,
                      "jac": lambda a: np.ones(n)}],
        method="SLSQP",
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    alpha = np.clip(result.x, 0.0, C)
    w = Z.T @ alpha
    g = Z @ w
    margin = C * 1e-6
    free = (alpha > margin) & (alpha < C - margin)
    if free.any():
        rho = float(g[free].mean())
    else:
        at_c = alpha >= C - margin
        lo = g[at_c].max() if at_c.any() else None
        hi = g[alpha <= margin].min() if (alpha <= margin).any() else None
        rho = float((lo + hi) / 2.0) if lo is not None and hi is not None else float(lo or hi)
    return alpha, w, rho


def reference_one_class_svm(Z, nu: float, tol: float = 1e-8,
                            max_iter: int = 1_000_000) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The package's earlier solver: maximal-violating-pair steps over all
    rows, with an incrementally updated gradient and no shrinking.

    Returns (alpha, w, rho, steps) on the already-standardized matrix Z.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    C = 1.0 / (nu * n)
    alpha = np.zeros(n)
    k = int(np.floor(nu * n))
    alpha[: min(k, n)] = C
    if k < n:
        alpha[k] = 1.0 - k * C

    w = Z.T @ alpha
    g = Z @ w
    bound = C * 1e-9
    steps = 0
    while True:
        up = alpha < C - bound
        low = alpha > bound
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmin(g[up])])
        j = int(np.flatnonzero(low)[np.argmax(g[low])])
        violation = g[j] - g[i]
        if violation <= tol:
            break
        if steps >= max_iter:
            raise RuntimeError(f"no convergence after {max_iter} steps")
        diff = Z[i] - Z[j]
        eta = float(diff @ diff)
        step = violation / eta if eta > 1e-12 else np.inf
        step = min(step, C - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
        w += step * diff
        g += step * (Z @ diff)
        steps += 1

    free = (alpha > bound) & (alpha < C - bound)
    if free.any():
        rho = float(g[free].min())
    else:
        at_c = alpha >= C - bound
        at_zero = alpha <= bound
        lo = g[at_c].max() if at_c.any() else None
        hi = g[at_zero].min() if at_zero.any() else None
        rho = float((lo + hi) / 2.0) if lo is not None and hi is not None else float(
            lo if lo is not None else hi)
    return alpha, w, rho, steps


# --- Boolean encoding ---

def boolean_row(vector) -> tuple[float, ...]:
    """Naive Bayes' 14 columns for one ChangeVector: 1 iff each of the
    eight count deltas is nonzero, then the six update-type indicators."""
    from pkgwatch.versioning import UPDATE_TYPE_ORDER

    changed = tuple(1.0 if d != 0 else 0.0 for d in vector.deltas[:8])
    return changed + tuple(1.0 if t is vector.update_type else 0.0 for t in UPDATE_TYPE_ORDER)


# --- corpus fold ---

class ReferenceCorpus:
    """Object-per-row fold of a corpus log: the first vector of a key wins
    unless it is unlabeled and a later one is labeled; label events apply
    latest-wins; labels of unknown keys are dropped."""

    def __init__(self, path):
        from pkgwatch.vectorize import ChangeVector

        self.entries = {}  # key -> {"vector", "digest"}
        with open(path, encoding="utf-8") as fh:
            assert json.loads(fh.readline())["format"] == "pkgwatch-corpus"
            for line in fh:
                if not line.strip():
                    continue
                event = json.loads(line)
                if event["event"] == "vector":
                    vector = ChangeVector.from_record(event["vector"])
                    key = (vector.package, vector.version)
                    entry = self.entries.get(key)
                    if entry is None:
                        self.entries[key] = {"vector": vector, "digest": event.get("digest")}
                    elif entry["vector"].label is None and vector.label is not None:
                        entry["vector"] = vector
                elif event["event"] == "label":
                    entry = self.entries.get((event["package"], event["version"]))
                    if entry is not None:
                        entry["vector"] = replace(entry["vector"], label=event["label"])

    def training_vectors(self, include_unlabeled: bool) -> list:
        """Vectors sorted by key; unlabeled ones relabeled benign or left out."""
        from pkgwatch.vectorize import BENIGN

        vectors = [self.entries[key]["vector"] for key in sorted(self.entries)]
        if include_unlabeled:
            return [v if v.label is not None else replace(v, label=BENIGN) for v in vectors]
        return [v for v in vectors if v.label is not None]


# --- tokenizer ---
#
# The tokenizer as it was before `pkgwatch.tokens` became one compiled
# pattern, unchanged: a loop per character with a sub-scanner per
# literal kind and a `Token` per token.

IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
IDENT_CONT = IDENT_START | frozenset("0123456789")
DIGITS = frozenset("0123456789")

# After these a `/` starts a regex literal rather than division.
_REGEX_PREDECESSOR_KEYWORDS = frozenset(
    "return typeof instanceof in of new delete void throw case do else yield await".split()
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "string" | "number" | "punct" | "regex"
    value: str


class TokenizeError(ValueError):
    """Input could not be tokenized (unterminated literal, etc.)."""


def _regex_allowed(prev: Token | None) -> bool:
    if prev is None:
        return True
    if prev.kind == "punct":
        return prev.value not in (")", "]")
    if prev.kind == "ident":
        return prev.value in _REGEX_PREDECESSOR_KEYWORDS
    return False  # after string/number/regex it is division


def tokenize(text: str) -> list[Token]:
    """Tokenize JS/TS source text.

    Raises TokenizeError on unterminated string/template/comment constructs;
    callers treat that as an unparseable file.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]

        if ch in " \t\r\n\f\v ﻿":
            i += 1
            continue

        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue

        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise TokenizeError("unterminated block comment")
            i = j + 2
            continue

        if ch in "'\"":
            i, value = _scan_quoted(text, i, ch)
            tokens.append(Token("string", value))
            continue

        if ch == "`":
            i, value = _scan_template(text, i)
            tokens.append(Token("string", value))
            continue

        if ch == "/" and _regex_allowed(tokens[-1] if tokens else None):
            i, value = _scan_regex(text, i)
            tokens.append(Token("regex", value))
            continue

        if ch in DIGITS or (ch == "." and i + 1 < n and text[i + 1] in DIGITS):
            i, value = _scan_number(text, i)
            tokens.append(Token("number", value))
            continue

        if ch in IDENT_START:
            j = i + 1
            while j < n and text[j] in IDENT_CONT:
                j += 1
            tokens.append(Token("ident", text[i:j]))
            i = j
            continue

        if ch == "?" and i + 1 < n and text[i + 1] == ".":
            tokens.append(Token("punct", "?."))
            i += 2
            continue

        tokens.append(Token("punct", ch))
        i += 1

    return tokens


def _scan_quoted(text: str, start: int, quote: str) -> tuple[int, str]:
    i = start + 1
    n = len(text)
    out: list[str] = []
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            out.append(text[i + 1])
            i += 2
            continue
        if ch == quote:
            return i + 1, "".join(out)
        if ch == "\n":
            # Tolerate an unterminated single-line string: minified or
            # concatenated junk should not abort the whole file.
            return i + 1, "".join(out)
        out.append(ch)
        i += 1
    return n, "".join(out)


def _scan_template(text: str, start: int) -> tuple[int, str]:
    # Interpolation bodies stay part of the literal text; nested templates
    # inside `${...}` are beyond this tokenizer and end the scan early.
    i = start + 1
    n = len(text)
    out: list[str] = []
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            out.append(text[i + 1])
            i += 2
            continue
        if ch == "`":
            return i + 1, "".join(out)
        out.append(ch)
        i += 1
    raise TokenizeError("unterminated template literal")


def _scan_regex(text: str, start: int) -> tuple[int, str]:
    i = start + 1
    n = len(text)
    in_class = False
    out: list[str] = []
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            out.append(text[i : i + 2])
            i += 2
            continue
        if ch == "\n":
            raise TokenizeError("unterminated regex literal")
        if ch == "[":
            in_class = True
        elif ch == "]":
            in_class = False
        elif ch == "/" and not in_class:
            i += 1
            while i < n and text[i] in IDENT_CONT:  # flags
                i += 1
            return i, "".join(out)
        out.append(ch)
        i += 1
    raise TokenizeError("unterminated regex literal")


def _scan_number(text: str, start: int) -> tuple[int, str]:
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in IDENT_CONT or ch == ".":
            i += 1
        elif ch in "+-" and text[i - 1] in "eE":
            i += 1
        else:
            break
    return i, text[start:i]


# --- pattern rules ---

@dataclass
class ScanEvents:
    """Aggregated token-level events from one source file."""

    imports: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    property_pairs: Counter = field(default_factory=Counter)
    identifiers: Counter = field(default_factory=Counter)
    strings: list[str] = field(default_factory=list)  # lower-cased
    dynamic_imports: int = 0


def scan_events(tokens: list[tuple[str, str]]) -> ScanEvents:
    """Collect import/call/property/string events from a token stream."""
    events = ScanEvents()
    padded = tokens + [("end", "")] * 3  # look-ahead past the last token
    for i, (kind, value) in enumerate(tokens):
        if kind == "string":
            events.strings.append(value.lower())
            continue
        if kind != "ident":
            continue

        events.identifiers[value] += 1
        nxt = padded[i + 1]

        if value in ("require", "import") and nxt == ("punct", "("):
            arg_kind, arg = padded[i + 2]
            if arg_kind == "string" and padded[i + 3] == ("punct", ")"):
                events.imports[arg] += 1
            else:
                events.dynamic_imports += 1
        elif value in ("import", "from") and nxt[0] == "string":
            events.imports[nxt[1]] += 1

        if nxt == ("punct", "("):
            events.calls[value] += 1

        if nxt[0] == "punct" and nxt[1] in (".", "?."):
            member_kind, member = padded[i + 2]
            if member_kind == "ident":
                events.property_pairs[f"{value}.{member}"] += 1

    return events


def match_rule(rule, events: ScanEvents) -> int:
    if rule.kind == "import_of":
        return events.imports[rule.value]
    if rule.kind == "call_of":
        return events.calls[rule.value]
    if rule.kind == "string_literal_containing":
        needle = rule.value.lower()
        return sum(1 for s in events.strings if needle in s)
    if rule.kind == "property_access_of":
        if "." in rule.value:
            return events.property_pairs[rule.value]
        return events.identifiers[rule.value]
    raise ValueError(f"unknown rule kind: {rule.kind!r}")


def reference_scan(tokens: list[tuple[str, str]], table) -> dict[str, int]:
    """Per-feature counts of a token stream: one `match_rule` per rule."""
    events = scan_events(tokens)
    counts = {
        feature: sum(match_rule(rule, events) for rule in rules)
        for feature, rules in table.rules.items()
    }
    counts["dynamic_code"] += events.dynamic_imports
    return counts


def reference_count_matches(text: str, table) -> dict[str, int]:
    """Per-feature counts of one source file, through this module's tokenizer."""
    return reference_scan([(t.kind, t.value) for t in tokenize(text)], table)


# --- tarball decode ---
#
# `load_tarball` as it was before it kept one list of entries, unchanged
# apart from the `warnings` field its artifacts no longer carry.

def _normalize_path(raw: str) -> str:
    from pkgwatch.errors import CorruptArchive

    path = raw.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    parts = [p for p in path.split("/") if p not in ("", ".")]
    if any(p == ".." for p in parts):
        raise CorruptArchive(f"path traversal in archive entry: {raw!r}")
    if raw.startswith("/") or (len(raw) > 1 and raw[1] == ":"):
        raise CorruptArchive(f"absolute path in archive entry: {raw!r}")
    return "/".join(parts)


def reference_load_tarball(data: bytes):
    from pkgwatch.artifact import MANIFEST_PATH, FileEntry, PackageArtifact, _parse_manifest
    from pkgwatch.errors import CorruptArchive, MissingManifest

    entries: dict[str, bytes] = {}
    raw_paths: list[str] = []
    try:
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as tar:
            for member in tar:
                if member.issym() or member.islnk():
                    raise CorruptArchive(
                        f"archive contains a link entry: {member.name!r}"
                    )
                if not member.isreg():
                    continue
                handle = tar.extractfile(member)
                if handle is None:
                    continue
                content = handle.read()
                raw_paths.append(member.name)
                entries[member.name] = content
    except CorruptArchive:
        raise
    except (tarfile.TarError, gzip.BadGzipFile, EOFError, OSError) as exc:
        raise CorruptArchive(f"not a readable gzip/tar stream: {exc}") from exc

    if not entries:
        raise MissingManifest("archive contains no regular files")

    # Publishers conventionally nest everything under package/; deviants get
    # their first entry's leading component treated as the prefix.
    first_component = _normalize_path(raw_paths[0]).split("/", 1)[0]
    prefix = "package" if any(
        _normalize_path(p).split("/", 1)[0] == "package" for p in raw_paths
    ) else first_component

    normalized: dict[str, bytes] = {}
    for raw_path in raw_paths:  # preserve archive order so later entries win
        path = _normalize_path(raw_path)
        parts = path.split("/")
        if len(parts) > 1 and parts[0] == prefix:
            path = "/".join(parts[1:])
        if not path:
            continue
        normalized[path] = entries[raw_path]

    if MANIFEST_PATH not in normalized:
        raise MissingManifest("no root package.json in archive")

    manifest = _parse_manifest(normalized[MANIFEST_PATH])

    files = tuple(
        FileEntry(path=p, content=normalized[p]) for p in sorted(normalized)
    )
    return PackageArtifact(
        name=manifest.name,
        version=manifest.version,
        files=files,
        manifest=manifest,
    )
