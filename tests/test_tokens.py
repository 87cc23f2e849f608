import time

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from pkgwatch.patterns import DEFAULT_PATTERN_TABLE, PatternRule, PatternTable, scan_tokens
from pkgwatch.tokens import TokenizeError, tokenize

# Pieces of text that change how a JS tokenizer reads what follows them.
FRAGMENTS = (
    '"', "'", "`", "\\",
    "/", "*", "[", "]",
    "\n", "\r", " ",
    "\u00a0", "\ufeff",
    "e", "E", "+", "-", ".", "0", "1", "9",
    "return", "typeof", "in", "x", "$_", "(", ")", "=", ";",
    "?.", "//", "/*", "*/", "${", "}",
    "é", "ж", "٣",
)


def oracle_result(text: str):
    try:
        return [(t.kind, t.value) for t in oracles.tokenize(text)]
    except oracles.TokenizeError as exc:
        return ("TokenizeError", str(exc))


def result(text: str):
    try:
        return list(tokenize(text))
    except TokenizeError as exc:
        return ("TokenizeError", str(exc))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
@example('x = "a\\')  # a backslash ends the text inside a string
@example("x = 'a\\")
@example("1E+5 .5e-3 1e++2 0x1F")
@example("a ? .5 : b?.c")
@example("a[0] / 2 / (b) / 3 / c")
@example("return /[/\\]]/g.test(x)")
@example("`a\\`b${`c`}`")
def test_tokenize_matches_oracle(text):
    assert result(text) == oracle_result(text)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_tokenize_matches_oracle_on_any_text(text):
    assert result(text) == oracle_result(text)


@pytest.mark.parametrize("text, message", [
    ("a /* b", "unterminated block comment"),
    ("`a ${b}", "unterminated template literal"),
    ("x = /ab\n/", "unterminated regex literal"),
    ("return /[/]", "unterminated regex literal"),
])
def test_tokenize_error_messages(text, message):
    with pytest.raises(TokenizeError, match=message):
        list(tokenize(text))


def test_tokens_are_tuples():
    assert list(tokenize('x = "a\\"b" / 2; y = /[/]+/g; a?.b // c')) == [
        ("ident", "x"), ("punct", "="), ("string", 'a"b'), ("punct", "/"),
        ("number", "2"), ("punct", ";"), ("ident", "y"), ("punct", "="),
        ("regex", "[/]+"), ("punct", ";"), ("ident", "a"), ("punct", "?."),
        ("ident", "b"),
    ]


def test_scan_tokens_matches_strings_case_insensitively_and_looks_past_the_end():
    table = PatternTable(rules={
        **DEFAULT_PATTERN_TABLE.rules,
        "pii_access": (PatternRule("string_literal_containing", "passWORD"),),
        "fs_access": (PatternRule("property_access_of", "a.b"),
                      PatternRule("property_access_of", "a."),
                      PatternRule("import_of", "x")),
    })
    counts = scan_tokens(tokenize('var s = "PassWord"; a.b; require("x"'), table)
    assert counts["pii_access"] == 1
    assert counts["fs_access"] == 1  # a.b; no static import of "x"
    assert counts["dynamic_code"] == 1
    assert scan_tokens(tokenize("require("), table)["dynamic_code"] == 1
    assert scan_tokens(tokenize("a."), table) == dict.fromkeys(table.rules, 0)


MB = 1_000_000

# Shapes that make a careless pattern backtrack or restart: each must take
# time linear in its length. A quadratic scan of 1 MB would take hours; the
# bound allows for a slow shared machine.
HOSTILE = {
    "backslashes in a string": '"' + "\\" * MB + '"',
    "backslashes ending the text": '"' + "\\" * (MB - 1),
    "backtick then escaped backticks": "`" + "\\`" * (MB // 2),
    "block comment openers": "/*" * (MB // 2),
    "double quotes": '"' * MB,
    "backticks": "`" * MB,
    "unterminated regex class": "x = /[" + "a" * MB,
    "regex literals": "x=/a/;" * (MB // 6),
    "exponent signs": "1" + "e+" * (MB // 2),
}


@pytest.mark.parametrize("shape", sorted(HOSTILE))
def test_tokenize_is_linear_on_hostile_text(shape):
    text = HOSTILE[shape]
    start = time.perf_counter()
    got = result(text)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"{shape}: {elapsed:.1f} s"
    assert got == oracle_result(text)
