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

from .tokens import Token, tokenize

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
    strings: list[str] = field(default_factory=list)
    dynamic_imports: int = 0


def scan_tokens(tokens: list[Token]) -> ScanEvents:
    """Collect import/call/property/string events from a token stream."""
    events = ScanEvents()
    n = len(tokens)

    def at(idx: int) -> Token | None:
        return tokens[idx] if 0 <= idx < n else None

    for i, tok in enumerate(tokens):
        if tok.kind == "string":
            events.strings.append(tok.value)
            continue
        if tok.kind != "ident":
            continue

        events.identifiers[tok.value] += 1
        nxt = at(i + 1)

        if tok.value in ("require", "import") and nxt == Token("punct", "("):
            arg = at(i + 2)
            if arg is not None and arg.kind == "string" and at(i + 3) == Token("punct", ")"):
                events.imports[arg.value] += 1
            else:
                events.dynamic_imports += 1
        elif tok.value == "import" and nxt is not None and nxt.kind == "string":
            events.imports[nxt.value] += 1
        elif tok.value == "from" and nxt is not None and nxt.kind == "string":
            events.imports[nxt.value] += 1

        if nxt == Token("punct", "("):
            events.calls[tok.value] += 1

        if nxt is not None and nxt.kind == "punct" and nxt.value in (".", "?."):
            member = at(i + 2)
            if member is not None and member.kind == "ident":
                events.property_pairs[f"{tok.value}.{member.value}"] += 1

    return events


def match_rule(rule: PatternRule, events: ScanEvents) -> int:
    if rule.kind == "import_of":
        return events.imports[rule.value]
    if rule.kind == "call_of":
        return events.calls[rule.value]
    if rule.kind == "string_literal_containing":
        needle = rule.value.lower()
        return sum(1 for s in events.strings if needle in s.lower())
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

    Schema: ``{feature: [{"kind": ..., "value": ...}, ...], ...}``.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("pattern table config must be a JSON object")
    rules: dict[str, tuple[PatternRule, ...]] = {}
    for feature, entries in doc.items():
        rules[feature] = tuple(
            PatternRule(kind=e["kind"], value=e["value"]) for e in entries
        )
    return PatternTable(rules=rules)


def save_pattern_table(table: PatternTable, path: str | Path) -> None:
    doc = {
        feature: [{"kind": r.kind, "value": r.value} for r in rules]
        for feature, rules in table.rules.items()
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
