"""Tokenizer for the Grafter surface syntax (a small C++ subset)."""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import FrontendError

KEYWORDS = {
    "class", "public", "virtual", "void", "if", "else", "while", "return",
    "delete", "new", "static_cast", "const", "true", "false", "this",
    "_tree_", "_child_", "_traversal_", "_pure_", "_abstract_",
}

# Multi-character punctuation, longest first so maximal munch works.
_PUNCT = [
    "...", "->", "::", "==", "!=", "<=", ">=", "&&", "||",
    "{", "}", "(", ")", ";", ",", "*", "<", ">", "=", ".",
    "+", "-", "/", "%", "!", ":",
]

# The ASCII fast path: one match per token, blanks before it included,
# with columns counted from the current line's start. The alternatives
# follow the character rules of _tokenize_chars in the order they apply
# (comments before the `/` punctuation, punctuation in _PUNCT order so
# maximal munch holds), and on ASCII input the classes below equal
# str.isalpha/isalnum/isdigit, so both paths give the same tokens,
# positions and errors. Any other input takes the character loop.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<newline>\n[ \t\r\n]*)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>[0-9]+(?:\.(?!\.\.)[0-9]*)?(?:[eE][+-]?[0-9]*)?)"
    r"|(?P<char>'(?s:.)')"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _PUNCT) + ")"
    r"|(?P<end>\Z))"
)


class Token(NamedTuple):
    kind: str  # 'ident', 'keyword', 'number', 'char', 'punct', 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*; raises FrontendError with position on bad input."""
    if not source.isascii():
        return _tokenize_chars(source)
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    index = 0
    line = 1
    line_start = 0  # index of the current line's first character
    while True:
        m = match(source, index)
        if m is None:
            index = len(source) - len(source[index:].lstrip(" \t\r"))
            column = index - line_start + 1
            if source[index] == "'":
                raise FrontendError("malformed character literal", line, column)
            raise FrontendError(
                f"unexpected character {source[index]!r}", line, column
            )
        kind = m.lastgroup
        start = m.start(kind)
        index = m.end()
        if kind == "newline":
            line += source.count("\n", start, index)
            line_start = source.rfind("\n", start, index) + 1
        elif kind == "ident":
            text = m.group(kind)
            append(Token(
                "keyword" if text in KEYWORDS else "ident",
                text, line, start - line_start + 1,
            ))
        elif kind == "number" or kind == "punct":
            append(Token(kind, m.group(kind), line, start - line_start + 1))
        elif kind == "char":
            append(Token("char", source[start + 1], line, start - line_start + 1))
        elif kind == "block_comment":
            close = source.find("*/", start + 2)
            if close == -1:
                raise FrontendError(
                    "unterminated block comment", line, start - line_start + 1
                )
            index = close + 2
            newlines = source.count("\n", start, index)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, index) + 1
        elif kind == "line_comment":
            if index == len(source):
                # the end-of-input token keeps the comment's column
                append(Token("eof", "", line, start - line_start + 1))
                return tokens
        else:  # end
            append(Token("eof", "", line, start - line_start + 1))
            return tokens


def _tokenize_chars(source: str) -> list[Token]:
    """The character-at-a-time rules :data:`_TOKEN_RE` mirrors, kept for
    non-ASCII sources, where ``str.isalpha`` and friends accept letters
    and digits beyond the regex's ASCII classes."""
    tokens: list[Token] = []
    index = 0
    line = 1
    column = 1
    length = len(source)

    def error(message: str) -> FrontendError:
        return FrontendError(message, line, column)

    while index < length:
        ch = source[index]
        # whitespace
        if ch in " \t\r":
            index += 1
            column += 1
            continue
        if ch == "\n":
            index += 1
            line += 1
            column = 1
            continue
        # comments
        if source.startswith("//", index):
            end = source.find("\n", index)
            index = length if end == -1 else end
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise error("unterminated block comment")
            skipped = source[index : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            index = end + 2
            continue
        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += index - start
            continue
        # numbers (ints and floats; leading digit or .5 not supported)
        if ch.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            if index < length and source[index] == "." and not source.startswith("...", index):
                index += 1
                while index < length and source[index].isdigit():
                    index += 1
            if index < length and source[index] in "eE":
                index += 1
                if index < length and source[index] in "+-":
                    index += 1
                while index < length and source[index].isdigit():
                    index += 1
            text = source[start:index]
            tokens.append(Token("number", text, line, column))
            column += index - start
            continue
        # char literal
        if ch == "'":
            if index + 2 < length and source[index + 2] == "'":
                tokens.append(Token("char", source[index + 1], line, column))
                index += 3
                column += 3
                continue
            raise error("malformed character literal")
        # punctuation
        for punct in _PUNCT:
            if source.startswith(punct, index):
                tokens.append(Token("punct", punct, line, column))
                index += len(punct)
                column += len(punct)
                break
        else:
            raise error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, column))
    return tokens
