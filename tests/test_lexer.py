"""Unit tests for the shared SQL/PL-SQL lexer."""

import pytest

from repro.sql.errors import ParseError
from repro.sql.lexer import (EOF, IDENT, NUMBER, OP, PARAM, QIDENT, STRING,
                             TokenStream, tokenize)


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_identifiers_fold_lower(self):
        assert kinds("SELECT Foo _bar") == [(IDENT, "select"), (IDENT, "foo"),
                                            (IDENT, "_bar")]

    def test_quoted_identifier_preserves_case(self):
        assert kinds('"Call?" "a""b"') == [(QIDENT, "Call?"), (QIDENT, 'a"b')]

    def test_integers_and_floats(self):
        assert kinds("1 3.14 .5 1e3 2E-2") == [
            (NUMBER, 1), (NUMBER, 3.14), (NUMBER, 0.5),
            (NUMBER, 1000.0), (NUMBER, 0.02)]

    def test_range_does_not_eat_dots(self):
        # crucial for PL/pgSQL:  FOR i IN 1..n
        assert kinds("1..5") == [(NUMBER, 1), (OP, ".."), (NUMBER, 5)]

    def test_strings_with_escapes(self):
        assert kinds("'it''s'") == [(STRING, "it's")]
        assert kinds("''") == [(STRING, "")]

    def test_dollar_quoted_string(self):
        assert kinds("$$ BEGIN x; END $$") == [(STRING, " BEGIN x; END ")]

    def test_tagged_dollar_quote(self):
        assert kinds("$body$ SELECT '$$' $body$") == [(STRING, " SELECT '$$' ")]

    def test_positional_params(self):
        assert kinds("$1 $23") == [(PARAM, 1), (PARAM, 23)]

    def test_operators_maximal_munch(self):
        assert [v for _, v in kinds("<= >= <> != :: := .. ||")] == [
            "<=", ">=", "<>", "!=", "::", ":=", "..", "||"]

    def test_line_comment(self):
        assert kinds("1 -- comment\n2") == [(NUMBER, 1), (NUMBER, 2)]

    def test_block_comment_nested(self):
        assert kinds("1 /* a /* b */ c */ 2") == [(NUMBER, 1), (NUMBER, 2)]

    def test_eof_token(self):
        assert tokenize("")[-1].type == EOF


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'abc")

    def test_unterminated_quoted_ident(self):
        with pytest.raises(ParseError):
            tokenize('"abc')

    def test_unterminated_block_comment(self):
        with pytest.raises(ParseError):
            tokenize("/* never closed")

    def test_unterminated_dollar_quote(self):
        with pytest.raises(ParseError):
            tokenize("$$ never closed")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            tokenize("a ~ b")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            tokenize("ok\n  'oops")
        assert info.value.line == 2


def positions(text):
    return [(t.type, t.line, t.column) for t in tokenize(text)]


class TestPositions:
    """A token is reported where it starts, whatever it spans."""

    @pytest.mark.parametrize("text, expected", [
        ("SELECT 'a\nbcd' x",
         [(IDENT, 1, 1), (STRING, 1, 8), (IDENT, 2, 6), (EOF, 2, 7)]),
        ("f($$ a\n b\n$$, 1)",
         [(IDENT, 1, 1), (OP, 1, 2), (STRING, 1, 3), (OP, 3, 3),
          (NUMBER, 3, 5), (OP, 3, 6), (EOF, 3, 7)]),
        ("  $fn$ BEGIN\nEND $fn$ ;",
         [(STRING, 1, 3), (OP, 2, 10), (EOF, 2, 11)]),
        ('a "b\n\nc" d\n e',
         [(IDENT, 1, 1), (QIDENT, 1, 3), (IDENT, 3, 4), (IDENT, 4, 2),
          (EOF, 4, 3)]),
        ("1 /* x\n /* y\n */ z */ 2\n3",
         [(NUMBER, 1, 1), (NUMBER, 3, 10), (NUMBER, 4, 1), (EOF, 4, 2)]),
    ])
    def test_multi_line_tokens(self, text, expected):
        assert positions(text) == expected

    @pytest.mark.parametrize("text, message, line, column", [
        ("SELECT 'abc\n  def\nghi", "unterminated string literal", 1, 8),
        ('x\n  "abc\n', "unterminated quoted identifier", 2, 3),
        ("1 /* a\n b\n c", "unterminated block comment", 1, 3),
        ("a\n $q$ b\n c", "unterminated dollar-quoted string $q$", 2, 2),
    ])
    def test_unterminated_token_names_its_opener(self, text, message, line,
                                                 column):
        with pytest.raises(ParseError, match=message.replace("$", r"\$")) \
                as info:
            tokenize(text)
        assert (info.value.line, info.value.column) == (line, column)


class TestTokenStream:
    def test_peek_and_advance(self):
        ts = TokenStream.from_text("a b")
        assert ts.peek().value == "a"
        assert ts.peek(1).value == "b"
        assert ts.advance().value == "a"
        assert ts.advance().value == "b"
        assert ts.at_end()

    def test_accept_and_expect(self):
        ts = TokenStream.from_text("select , from")
        assert ts.accept_keyword("select")
        assert ts.accept_keyword("where") is None
        ts.expect_op(",")
        ts.expect_keyword("from")

    def test_expect_failure_message(self):
        ts = TokenStream.from_text("select")
        with pytest.raises(ParseError, match="expected FROM"):
            ts.expect_keyword("from")

    def test_save_restore(self):
        ts = TokenStream.from_text("a b c")
        mark = ts.save()
        ts.advance()
        ts.advance()
        ts.restore(mark)
        assert ts.peek().value == "a"

    def test_expect_ident_accepts_quoted(self):
        ts = TokenStream.from_text('"Weird Name"')
        assert ts.expect_ident() == "Weird Name"
