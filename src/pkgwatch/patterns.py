"""Token-level pattern rules mapping syntactic constructs to count features.

Rules are pure and locally decidable:

- ``import_of``: static module reference via ``require("m")``,
  ``import "m"``, ``import("m")``, or ``... from "m"``.
- ``call_of``: a call (or ``new``-construction) of the named callee,
  matched by its last name component, case-sensitively.
- ``string_literal_containing``: string/template literal containing the
  keyword, case-insensitively.
- ``property_access_of``: ``object.member`` access (``?.`` included); a
  value without a dot matches any reference to that bare identifier.

``require(expr)`` / ``import(expr)`` with a non-literal target is counted
as dynamic code loading: it increments the ``dynamic_code`` feature
directly, independent of the rule table, because the target module is
statically undecidable.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .tokens import tokenize

RULE_KINDS = (
    "import_of",
    "call_of",
    "string_literal_containing",
    "property_access_of",
)

#: Count features driven by the rule table, in canonical order.
COUNT_FEATURES = (
    "pii_access",
    "fs_access",
    "process_creation",
    "network_access",
    "crypto_api",
    "data_encoding",
    "dynamic_code",
)

#: Feature receiving dynamic require/import counts (engine built-in).
DYNAMIC_IMPORT_FEATURE = "dynamic_code"


@dataclass(frozen=True)
class PatternRule:
    kind: str
    value: str

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind: {self.kind!r}")
        if not isinstance(self.value, str) or not self.value:
            raise ValueError(f"rule value must be a non-empty string, got {self.value!r}")


@dataclass(frozen=True)
class PatternTable:
    """Per-feature rule lists; every count feature needs at least one rule."""

    rules: dict[str, tuple[PatternRule, ...]]

    def __post_init__(self) -> None:
        for feature in COUNT_FEATURES:
            if not self.rules.get(feature):
                raise ValueError(f"feature {feature!r} has no rules")
        for feature in self.rules:
            if feature not in COUNT_FEATURES:
                raise ValueError(f"unknown feature in pattern table: {feature!r}")


def _rule(kind: str, *values: str) -> list[PatternRule]:
    return [PatternRule(kind, v) for v in values]


DEFAULT_PATTERN_TABLE = PatternTable(
    rules={
        "pii_access": tuple(
            _rule(
                "string_literal_containing",
                "password", "passwd", "creditcard", "credit_card", "cvv", "cookie",
            )
            + _rule("property_access_of", "document.cookie")
        ),
        "fs_access": tuple(
            _rule("import_of", "fs", "fs/promises")
            + _rule("call_of", "readFile", "readFileSync", "writeFile", "writeFileSync")
        ),
        "process_creation": tuple(
            _rule("import_of", "child_process")
            + _rule("call_of", "exec", "execSync", "spawn", "spawnSync", "fork")
        ),
        "network_access": tuple(
            _rule("import_of", "http", "https", "net", "dns", "request", "axios", "node-fetch")
            + _rule("call_of", "fetch")
            + _rule("property_access_of", "XMLHttpRequest")
        ),
        "crypto_api": tuple(
            _rule("import_of", "crypto")
            + _rule("call_of", "createCipher", "createHash", "createDecipheriv")
        ),
        "data_encoding": tuple(
            _rule("call_of", "encodeURIComponent", "decodeURIComponent", "btoa", "atob")
            + _rule("property_access_of", "Buffer.from")
            + _rule("string_literal_containing", "base64")
        ),
        "dynamic_code": tuple(_rule("call_of", "eval", "Function")),
    }
)


@dataclass
class ScanEvents:
    """Aggregated token-level events from one source file."""

    imports: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    property_pairs: Counter = field(default_factory=Counter)
    identifiers: Counter = field(default_factory=Counter)
    strings: list[str] = field(default_factory=list)  # lower-cased
    dynamic_imports: int = 0


def scan_tokens(tokens: list[tuple[str, str]]) -> ScanEvents:
    """Collect import/call/property/string events from a token stream.

    Strings are stored lower-cased, for case-insensitive rule matching.
    """
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


def match_rule(rule: PatternRule, events: ScanEvents) -> int:
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


def count_matches(text: str, table: PatternTable) -> dict[str, int]:
    """Per-feature match counts for one source file.

    Raises TokenizeError when the file cannot be tokenized; the caller
    records a warning and counts the file as zero matches.
    """
    events = scan_tokens(tokenize(text))
    counts = {
        feature: sum(match_rule(rule, events) for rule in rules)
        for feature, rules in table.rules.items()
    }
    counts[DYNAMIC_IMPORT_FEATURE] += events.dynamic_imports
    return counts


def load_pattern_table(path: str | Path) -> PatternTable:
    """Load a rule table from its JSON config file.

    Schema: ``{feature: [{"kind": ..., "value": ...}, ...], ...}``. A
    malformed file raises ValueError naming it.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("pattern table config must be a JSON object")
        rules: dict[str, tuple[PatternRule, ...]] = {}
        for feature, entries in doc.items():
            if not isinstance(entries, list):
                raise ValueError(f"rules of {feature!r} must be a list")
            rules[feature] = tuple(_load_rule(entry) for entry in entries)
        return PatternTable(rules=rules)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_rule(entry) -> PatternRule:
    if not isinstance(entry, dict):
        raise ValueError(f"rule must be a JSON object, got {entry!r}")
    if sorted(entry) != ["kind", "value"]:
        raise ValueError(f"rule must have the keys 'kind' and 'value', got {sorted(entry)}")
    return PatternRule(**entry)
