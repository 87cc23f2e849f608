"""Lightweight JavaScript/TypeScript tokenizer.

Produces just enough structure for token-level pattern rules. `tokenize`
yields each token as it reaches it, as a ``(kind, value)`` tuple, and
keeps no list (call ``list()`` for one). Kind is ``"ident"``,
``"string"`` (quoted strings and templates, quotes dropped and escapes
resolved), ``"number"``, ``"punct"`` or ``"regex"`` (the body between
the slashes, escapes kept, flags dropped). Comments and whitespace yield
no token. Not a parser; the pattern rules it feeds are defined over
locally decidable token shapes only.

One compiled pattern, ``_TOKEN``, matches the next token at each
position. Its alternatives are tried in order, and the named group that
matched gives the token's kind. A quoted string ends at its quote, at an
unescaped newline or at the end of the text; a template ends at its
backtick, and interpolations stay part of its text. A ``/`` is a regex
literal, matched by ``_REGEX_BODY``, only where `_regex_allowed` says the
previous token cannot end an operand; elsewhere it is punctuation.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

# After these a `/` starts a regex literal rather than division.
_REGEX_PREDECESSOR_KEYWORDS = frozenset(
    "return typeof instanceof in of new delete void throw case do else yield await".split()
)

_TOKEN = re.compile(r"""
      [ \t\r\n\f\v\u00a0\ufeff]+
    | //[^\n]*
    | /\*[\s\S]*?\*/
    | (?P<open_comment>/\*)
    | "(?P<dq>[^"\\\n]*(?:\\(?:[\s\S]|\Z)[^"\\\n]*)*)["\n]?
    | '(?P<sq>[^'\\\n]*(?:\\(?:[\s\S]|\Z)[^'\\\n]*)*)['\n]?
    | `(?P<template>[^`\\]*(?:\\[\s\S][^`\\]*)*)`
    | (?P<open_template>`)
    | (?P<number>\.?[0-9][0-9A-Za-z_$.]*(?:(?<=[eE])[+-][0-9A-Za-z_$.]*)*)
    | (?P<ident>[A-Za-z_$][0-9A-Za-z_$]*)
    | (?P<punct>\?\.|[\s\S])
""", re.VERBOSE)

# A regex literal after its opening `/`: `/` inside a `[...]` class does
# not close it, and a bare newline or the end of the text is an error.
_REGEX_BODY = re.compile(r"((?:[^\\/\[\n]|\\[\s\S]|\[(?:[^\\\]\n]|\\[\s\S])*\])*)/[0-9A-Za-z_$]*")

_ESCAPE = re.compile(r"\\([\s\S])")

_KINDS = {"dq": "string", "sq": "string", "template": "string",
          "number": "number", "ident": "ident", "punct": "punct"}


class TokenizeError(ValueError):
    """Input could not be tokenized (unterminated literal, etc.)."""


def _regex_allowed(prev: tuple[str, str] | None) -> bool:
    if prev is None:
        return True
    kind, value = prev
    if kind == "punct":
        return value not in (")", "]")
    if kind == "ident":
        return value in _REGEX_PREDECESSOR_KEYWORDS
    return False  # after string/number/regex it is division


def tokenize(text: str) -> Iterator[tuple[str, str]]:
    """Yield the ``(kind, value)`` tuples of JS/TS source text, in order.

    Raises TokenizeError, after the tokens before it, on an unterminated
    block comment, template or regex literal: an unparseable file.
    """
    last = None
    pos = 0
    while True:  # one pass of the pattern, restarted after each regex literal
        for m in _TOKEN.finditer(text, pos):
            group = m.lastgroup
            if group is None:
                continue  # whitespace or a comment
            value = m.group(group)
            if group == "punct":
                if value == "/" and _regex_allowed(last):
                    body = _REGEX_BODY.match(text, m.end())
                    if body is None:
                        raise TokenizeError("unterminated regex literal")
                    yield (last := ("regex", body.group(1)))
                    pos = body.end()
                    break
            elif group == "open_comment":
                raise TokenizeError("unterminated block comment")
            elif group == "open_template":
                raise TokenizeError("unterminated template literal")
            elif "\\" in value:  # only strings and templates hold one
                value = "".join(_ESCAPE.split(value))
            yield (last := (_KINDS[group], value))
        else:
            return
