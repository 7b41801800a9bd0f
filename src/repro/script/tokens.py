"""Lexer for the reconfiguration DSL.

The token stream feeds :mod:`repro.script.parser`.  The language is tiny
(it reconfigures architectures, it does not compute), so the lexer is a
hand-rolled single-pass scanner with precise line/column reporting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List

from repro.script.errors import ScriptSyntaxError


class TokenKind(enum.Enum):
    """The lexical categories of the reconfiguration DSL."""

    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    LBRACE = "{"
    RBRACE = "}"
    SEMICOLON = ";"
    DOT = "."
    SLASH = "/"
    ARROW = "->"
    EQUALS = "="
    COMMA = ","
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind.name} {self.text!r} @{self.line}:{self.column}>"


_SINGLE = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ";": TokenKind.SEMICOLON,
    ".": TokenKind.DOT,
    "/": TokenKind.SLASH,
    "=": TokenKind.EQUALS,
    ",": TokenKind.COMMA,
}


def tokenize(text: str) -> List[Token]:
    """Scan the whole script; raises :class:`ScriptSyntaxError` on bad input."""
    return list(_scan(text))


def _scan(text: str) -> Iterator[Token]:
    line = 1
    column = 1
    index = 0
    length = len(text)

    def error(message: str) -> ScriptSyntaxError:
        return ScriptSyntaxError(message, line, column)

    while index < length:
        char = text[index]

        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue

        if char == "#":  # comment to end of line
            while index < length and text[index] != "\n":
                index += 1
            continue

        if char == "-" and index + 1 < length and text[index + 1] == ">":
            yield Token(TokenKind.ARROW, "->", line, column)
            index += 2
            column += 2
            continue

        if char in _SINGLE:
            yield Token(_SINGLE[char], char, line, column)
            index += 1
            column += 1
            continue

        if char == '"':
            start_line, start_column = line, column
            index += 1
            column += 1
            chars: List[str] = []
            while index < length and text[index] != '"':
                if text[index] == "\n":
                    raise ScriptSyntaxError(
                        "unterminated string", start_line, start_column
                    )
                if text[index] == "\\" and index + 1 < length:
                    index += 1
                    column += 1
                    escapes = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                    chars.append(escapes.get(text[index], text[index]))
                else:
                    chars.append(text[index])
                index += 1
                column += 1
            if index >= length:
                raise ScriptSyntaxError("unterminated string", start_line, start_column)
            index += 1  # closing quote
            column += 1
            yield Token(TokenKind.STRING, "".join(chars), start_line, start_column)
            continue

        if char.isdigit() or (
            char == "-" and index + 1 < length and text[index + 1].isdigit()
        ):
            start_column = column
            start = index
            index += 1
            column += 1
            while index < length and (text[index].isdigit() or text[index] == "."):
                index += 1
                column += 1
            yield Token(TokenKind.NUMBER, text[start:index], line, start_column)
            continue

        if char.isalpha() or char == "_":
            start_column = column
            start = index
            while index < length and (text[index].isalnum() or text[index] in "_-"):
                # allow kebab-case identifiers but not a trailing "->" arrow
                if text[index] == "-" and index + 1 < length and text[index + 1] == ">":
                    break
                index += 1
                column += 1
            yield Token(TokenKind.IDENT, text[start:index], line, start_column)
            continue

        raise error(f"unexpected character {char!r}")

    yield Token(TokenKind.EOF, "", line, column)
