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

A `PatternTable` compiles its rules once, into lookups; `scan_tokens`
counts in its one walk over the tokens, with one lookup per construct and
one test per string needle of each string.
"""

from __future__ import annotations

import json
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
    """Per-feature rule lists; every count feature needs at least one rule.

    `index` maps each ``(kind, value)`` to the feature of each of its rules;
    `needles` pairs each lower-cased string needle with its feature.
    """

    rules: dict[str, tuple[PatternRule, ...]]
    index: dict[tuple[str, str], tuple[str, ...]] = field(init=False, repr=False, compare=False)
    needles: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for feature in COUNT_FEATURES:
            if not self.rules.get(feature):
                raise ValueError(f"feature {feature!r} has no rules")
        for feature in self.rules:
            if feature not in COUNT_FEATURES:
                raise ValueError(f"unknown feature in pattern table: {feature!r}")
        index: dict[tuple[str, str], tuple[str, ...]] = {}
        for feature, rules in self.rules.items():
            for rule in rules:
                key = (rule.kind, rule.value)
                index[key] = index.get(key, ()) + (feature,)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "needles", tuple(
            (value.lower(), feature) for (kind, value), features in index.items()
            if kind == "string_literal_containing" for feature in features))


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


def scan_tokens(tokens: list[tuple[str, str]], table: PatternTable) -> dict[str, int]:
    """Per-feature match counts of a token stream, in one walk over it."""
    counts = dict.fromkeys(table.rules, 0)
    index, needles = table.index, table.needles
    padded = tokens + [("end", "")] * 3  # look-ahead past the last token
    for i, (kind, value) in enumerate(tokens):
        if kind == "string":
            lowered = value.lower()
            for needle, feature in needles:
                if needle in lowered:
                    counts[feature] += 1
            continue
        if kind != "ident":
            continue
        # An identifier holds no dot, so only dotless values match here.
        constructs = [("property_access_of", value)]
        nxt = padded[i + 1]
        if nxt == ("punct", "("):
            constructs.append(("call_of", value))
            if value in ("require", "import"):
                arg_kind, arg = padded[i + 2]
                if arg_kind == "string" and padded[i + 3] == ("punct", ")"):
                    constructs.append(("import_of", arg))
                else:
                    counts[DYNAMIC_IMPORT_FEATURE] += 1
        elif nxt[0] == "string" and value in ("import", "from"):
            constructs.append(("import_of", nxt[1]))
        elif nxt[0] == "punct" and nxt[1] in (".", "?.") and padded[i + 2][0] == "ident":
            constructs.append(("property_access_of", f"{value}.{padded[i + 2][1]}"))
        for construct in constructs:
            for feature in index.get(construct, ()):
                counts[feature] += 1
    return counts


def count_matches(text: str, table: PatternTable) -> dict[str, int]:
    """Per-feature match counts for one source file.

    Raises TokenizeError when the file cannot be tokenized; the caller
    records a warning and counts the file as zero matches.
    """
    return scan_tokens(tokenize(text), table)


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
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_rule(entry) -> PatternRule:
    if not isinstance(entry, dict):
        raise ValueError(f"rule must be a JSON object, got {entry!r}")
    if sorted(entry) != ["kind", "value"]:
        raise ValueError(f"rule must have the keys 'kind' and 'value', got {sorted(entry)}")
    return PatternRule(**entry)
