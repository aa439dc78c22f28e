"""A lexer shared by the SQL parser and the PL/pgSQL parser.

One compiled pattern (:data:`_TOKEN`) produces a flat list of
:class:`Token` records.  Keywords are not distinguished from identifiers at
the lexing stage — parsers match the lower-cased identifier tokens against
lower-case keywords — which keeps the keyword set extensible and lets the
two parsers disagree about what is reserved.

Supported lexical forms:

* bare identifiers (lower-cased, SQL-style folding),
* quoted identifiers ``"call?"`` (case preserved, may contain any character),
* string literals ``'it''s'`` with doubled-quote escaping,
* dollar-quoted strings ``$$ ... $$`` and ``$tag$ ... $tag$`` (used for
  function bodies),
* integer and float literals (``1``, ``3.14``, ``1e-9``; ``1..n`` lexes as
  ``1`` ``..`` ``n`` for PL/pgSQL FOR ranges),
* positional parameters ``$1``,
* operators and punctuation including ``::``, ``:=``, ``..``, ``||``,
  ``<=``, ``>=``, ``<>``, ``!=``,
* ``--`` line comments and nested ``/* */`` block comments.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

# Token types
IDENT = "IDENT"        # bare identifier, value lower-cased
QIDENT = "QIDENT"      # quoted identifier, value as written
NUMBER = "NUMBER"      # value is int or float
STRING = "STRING"      # value is the unescaped string
PARAM = "PARAM"        # $1 style positional parameter, value is int index
OP = "OP"              # operator or punctuation, value is the operator text
EOF = "EOF"

#: Every operator and punctuation string, longest first so maximal munch
#: works.  The SQL parser files each under its operator table or its
#: punctuation set (tests/test_sql_parser.py checks none is left over).
OPERATORS = (
    "::", ":=", "..", "||", "<=", ">=", "<>", "!=", "=>",
    "(", ")", ",", ";", ".", "=", "<", ">", "+", "-", "*", "/", "%", "^",
    "[", "]", ":",
)

#: THE token pattern: one alternative per lexical form, tried in order at
#: each position after blanks; the name of the group that matched is the
#: kind of token.  ``comment`` and ``dollar`` match only the opener - a
#: nested comment and a ``$tag$`` body end where no regular expression can
#: say - and ``bad`` matches whatever no other form does, so the pattern
#: never fails and the error names the character.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<ident>   [^\W\d]\w* )
  | (?P<newline> \n )
  | (?P<skip>    --[^\n]* )
  | (?P<comment> /\* )
  | (?P<float>   (?: \d+\.(?!\.)\d* | \.\d+ ) (?:[eE][+-]?\d+)?
               | \d+[eE][+-]?\d+ )
  | (?P<int>     \d+ )
  | (?P<string>  '[^']*(?:''[^']*)*' )
  | (?P<qident>  "[^"]*(?:""[^"]*)*" )
  | (?P<dollar>  \$\w*\$ )
  | (?P<param>   \$\d+(?!\w) )
  | (?P<op>      %s )
  | (?P<end>     \Z )
  | (?P<bad>     . )
)""" % "|".join(map(re.escape, OPERATORS)), re.VERBOSE | re.DOTALL)

_COMMENT_EDGE = re.compile(r"/\*|\*/")

_UNTERMINATED = {"'": "unterminated string literal",
                 '"': "unterminated quoted identifier"}


class Token(NamedTuple):
    type: str
    value: object
    line: int      # of the token's first character, as is ``column``
    column: int

    def __repr__(self) -> str:  # compact, for parser error messages
        return f"{self.type}:{self.value!r}"


def tokenize(text: str) -> list[Token]:
    """Lex *text* into a token list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    # Token's own __new__ is a Python-level call per token; this is not.
    new = tuple.__new__
    match = _TOKEN.match
    line, line_start, pos = 1, 0, 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        column = start - line_start + 1
        if kind == "ident":
            append(new(Token, (IDENT, text[start:pos].lower(), line, column)))
        elif kind == "op":
            append(new(Token, (OP, text[start:pos], line, column)))
        elif kind == "int":
            append(new(Token, (NUMBER, int(text[start:pos]), line, column)))
        elif kind == "newline":
            line += 1
            line_start = pos
        elif kind == "float":
            append(new(Token, (NUMBER, float(text[start:pos]), line, column)))
        elif kind == "param":
            append(new(Token, (PARAM, int(text[start + 1:pos]), line, column)))
        elif kind == "end":
            append(new(Token, (EOF, None, line, column)))
            return tokens
        elif kind == "bad":
            ch = text[start]
            raise ParseError(
                _UNTERMINATED.get(ch) or f"unexpected character {ch!r}",
                line, column)
        elif kind != "skip":  # the four forms that may span lines
            if kind == "string":
                value = text[start + 1:pos - 1].replace("''", "'")
                append(new(Token, (STRING, value, line, column)))
            elif kind == "qident":
                value = text[start + 1:pos - 1].replace('""', '"')
                append(new(Token, (QIDENT, value, line, column)))
            elif kind == "dollar":
                tag = text[start:pos]  # "$$" or "$body$"
                close = text.find(tag, pos)
                if close == -1:
                    raise ParseError(
                        f"unterminated dollar-quoted string {tag}",
                        line, column)
                append(new(Token, (STRING, text[pos:close], line, column)))
                pos = close + len(tag)
            else:  # comment: to the ``*/`` that closes this ``/*``
                depth = 1
                while depth:
                    edge = _COMMENT_EDGE.search(text, pos)
                    if edge is None:
                        raise ParseError("unterminated block comment",
                                         line, column)
                    depth += 1 if edge.group() == "/*" else -1
                    pos = edge.end()
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", start, pos) + 1


class LexedText:
    """A text lexed once for the text cache and the parser.

    :meth:`parameterize` reads its literals: ``shape`` is the token list
    with every NUMBER / STRING literal replaced by the type of its value
    (``int``, ``float`` or ``str``) and the positions dropped, so the texts
    that differ only in their literals (and blanks and comments) share it;
    ``literals`` are those values in text order, and ``first`` is the
    highest ``$n`` the text spells.  While ``params`` is set (token index
    -> ``$k``), the parser reads the literal at a token as the parameter
    ``$k``, numbered after the text's own: ``$first + 1`` is the first
    literal.  Otherwise the literals are parsed as written.
    """

    __slots__ = ("tokens", "shape", "literals", "first", "params")

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.shape = self.literals = self.params = None
        self.first = 0

    def parameterize(self) -> None:
        shape: list = []
        literals: list = []
        where: list[int] = []
        first = 0
        for index, (kind, value, _, _) in enumerate(self.tokens):
            if kind is NUMBER or kind is STRING:
                where.append(index)
                literals.append(value)
                shape.append(type(value))
            elif kind is IDENT or kind is OP:
                shape.append(value)
            else:
                if kind is PARAM and value > first:
                    first = value
                shape.append((kind, value))
        self.shape = tuple(shape)
        self.literals = literals
        self.first = first
        self.params = {index: first + k
                       for k, index in enumerate(where, start=1)}


class TokenStream:
    """Cursor over a token list with the lookahead helpers parsers need."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    @classmethod
    def from_text(cls, text: str) -> "TokenStream":
        return cls(tokenize(text))

    # -- inspection ----------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        try:
            return self._tokens[self._pos + offset]
        except IndexError:  # looking past the end keeps seeing EOF
            return self._tokens[-1]

    def at_end(self) -> bool:
        return self.peek().type == EOF

    def at_keyword(self, *keywords: str) -> bool:
        """Is the next token one of these (lower-case) bare words?"""
        token = self._tokens[self._pos]
        return token.type == IDENT and token.value in keywords

    def at_op(self, *ops: str) -> bool:
        token = self._tokens[self._pos]
        return token.type == OP and token.value in ops

    def error(self, message: str) -> ParseError:
        """A ParseError at the next token's position."""
        token = self.peek()
        return ParseError(message, token.line, token.column)

    def save(self) -> int:
        return self._pos

    def restore(self, mark: int) -> None:
        self._pos = mark

    # -- consumption ---------------------------------------------------
    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type != EOF:
            self._pos += 1
        return token

    def accept_keyword(self, *keywords: str) -> Token | None:
        if self.at_keyword(*keywords):
            return self.advance()
        return None

    def accept_op(self, *ops: str) -> Token | None:
        if self.at_op(*ops):
            return self.advance()
        return None

    def expect_keyword(self, keyword: str) -> Token:
        if not self.at_keyword(keyword):
            raise self.error(
                f"expected {keyword.upper()}, found {self.peek()}")
        return self.advance()

    def expect_op(self, op: str) -> Token:
        if not self.at_op(op):
            raise self.error(f"expected {op!r}, found {self.peek()}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> str:
        """Consume a bare or quoted identifier and return its name."""
        token = self.peek()
        if token.type not in (IDENT, QIDENT):
            raise self.error(f"expected {what}, found {token}")
        self.advance()
        return str(token.value)
