"""The pattern layer against its earlier implementation in `oracles`."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

import conftest
import oracles
from pkgwatch.patterns import (
    COUNT_FEATURES,
    DEFAULT_PATTERN_TABLE,
    RULE_KINDS,
    PatternRule,
    PatternTable,
    count_matches,
    scan_tokens,
)
from pkgwatch.tokens import TokenizeError

# Values a rule or a token may take: prefixes and substrings of each other,
# mixed case, dotless, one-dot and two-dot names, and the keywords the scan
# treats specially.
NAMES = ("require", "import", "from", "new", "a", "b", "X", "fs", "exec", "eval",
         "Buffer", "document", "cookie")
STRINGS = ("fs", "fs/promises", "PassWord", "pass", "ASS", "word", "", "a.b", "Base64")
RULE_VALUES = NAMES + ("fs/promises", "PassWord", "Pass", "pass", "ASS", "word", "a.b", "b.a",
                      "a.b.c", "document.cookie", "Buffer.from", "X.b")

TOKENS = st.sampled_from(
    [("ident", v) for v in NAMES]
    + [("string", v) for v in STRINGS]
    + [("punct", v) for v in ("(", ")", ".", "?.", ";")]
    + [("number", "1"), ("regex", "a")]
)

RULES = st.sampled_from([PatternRule(kind, value) for kind in RULE_KINDS for value in RULE_VALUES])

TABLES = st.fixed_dictionaries({
    feature: st.lists(RULES, min_size=1, max_size=4).map(tuple)
    for feature in COUNT_FEATURES
}).map(lambda rules: PatternTable(rules=rules))


def table_of(**extra) -> PatternTable:
    """The default table with `extra` rules, as (kind, value) pairs, added."""
    rules = dict(DEFAULT_PATTERN_TABLE.rules)
    for feature, pairs in extra.items():
        rules[feature] += tuple(PatternRule(kind, value) for kind, value in pairs)
    return PatternTable(rules=rules)


# A rule listed twice (import_of fs), one (kind, value) under two features
# (call_of exec), mixed-case needles that are substrings of "password", a
# two-dot property, a dotted call and a dotless property.
TWICE = table_of(fs_access=[("import_of", "fs"), ("call_of", "exec")],
                 pii_access=[("string_literal_containing", "PASS"),
                             ("string_literal_containing", "Word"),
                             ("property_access_of", "a.b.c"), ("call_of", "X.b"),
                             ("property_access_of", "a")])


def counted(count, *args):
    try:
        return list(count(*args).items())
    except (TokenizeError, oracles.TokenizeError) as exc:
        return ("TokenizeError", str(exc))


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(TABLES, st.lists(TOKENS, max_size=30))
@example(TWICE, [("ident", "require"), ("punct", "("), ("string", "fs"), ("punct", ")"),
                 ("ident", "exec"), ("punct", "("), ("string", "xPaSsWoRdx")])
@example(TWICE, [("ident", "new"), ("ident", "X"), ("punct", "("), ("ident", "a"),
                 ("punct", "?."), ("ident", "b"), ("punct", "."), ("ident", "c")])
@example(TWICE, [("ident", "import"), ("string", "fs"), ("ident", "from"),
                 ("string", "fs/promises"), ("ident", "import"), ("punct", "("),
                 ("ident", "a"), ("punct", ")")])
@example(TWICE, [("ident", "require"), ("punct", "("), ("string", "fs")])
@example(TWICE, [("ident", "a"), ("punct", ".")])
@example(TWICE, [("ident", "import"), ("punct", "(")])
def test_scan_tokens_matches_the_rule_by_rule_oracle(table, tokens):
    # A one-shot iterator: the scan must walk its tokens exactly once.
    assert counted(scan_tokens, iter(tokens), table) == \
        counted(oracles.reference_scan, tokens, table)


# Pieces of source text; joined, they give token soups with comments,
# unterminated literals and the rule-relevant shapes above.
FRAGMENTS = ("require", "import", "from", "new ", "a", "X", "fs", "exec", "document",
             "cookie", "Buffer", " ", "(", ")", ".", "?.", ";", '"fs"', "'PassWord'",
             "`base64 ${a}`", '"', "`", "/", "/*", "*/", "\n")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(TABLES, st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
@example(DEFAULT_PATTERN_TABLE, 'x = `a ${b}')
def test_count_matches_matches_the_oracle_on_text(table, text):
    assert counted(count_matches, text, table) == \
        counted(oracles.reference_count_matches, text, table)


def generated_js() -> list[str]:
    """The JavaScript files of the test suite's generated packages."""
    rng = np.random.default_rng(0)
    files = []
    for _ in range(250):
        base = conftest._benign_module(rng)
        for shape in (base, conftest._benign_first_edge(rng),
                      conftest._benign_patch(base, rng),
                      {"x.js": conftest._exfil_script(rng)},
                      {"x.js": conftest._harvester_script(rng)}):
            files += [text for path, text in shape.items() if path.endswith(".js")]
    return files


def test_count_matches_matches_the_oracle_on_generated_packages():
    files = generated_js()
    assert len(files) > 1000
    for table in (DEFAULT_PATTERN_TABLE, TWICE):
        for text in files:
            assert count_matches(text, table) == oracles.reference_count_matches(text, table)


def test_count_matches_holds_no_token_list():
    # 256 KiB of dense source is 131,072 tokens; a list of them alone would
    # take several MB.
    text = "a.b(c);\n" * (1 << 15)
    tracemalloc.start()
    try:
        counts = count_matches(text, table_of(fs_access=[("property_access_of", "a.b")]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts["fs_access"] == 1 << 15
    assert peak < 2 * 1024 * 1024
