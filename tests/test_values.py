"""Unit tests for the SQL value domain and three-valued logic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sql.errors import TypeError_
from repro.sql.values import (Row, compare, comparison_class,
                              hashable_value, render_value, row_sort_key,
                              sort_key, sql_and, sql_eq, sql_ge, sql_gt,
                              sql_le, sql_lt, sql_ne, sql_not, sql_or,
                              value_byte_size)


class TestCompare:
    def test_numbers(self):
        assert compare(1, 2) == -1
        assert compare(2.5, 2.5) == 0
        assert compare(3, 2.5) == 1

    def test_mixed_int_float(self):
        assert compare(1, 1.0) == 0

    def test_null_propagates(self):
        assert compare(None, 1) is None
        assert compare(1, None) is None
        assert compare(None, None) is None

    def test_strings(self):
        assert compare("a", "b") == -1
        assert compare("b", "b") == 0

    def test_rows_lexicographic(self):
        assert compare(Row([1, 2]), Row([1, 3])) == -1
        assert compare(Row([2, 0]), Row([1, 9])) == 1
        assert compare(Row([1, 2]), Row([1, 2])) == 0

    def test_row_with_null_field(self):
        # earlier field decides before the NULL is reached
        assert compare(Row([1, None]), Row([2, None])) == -1
        # NULL field reached -> comparison is NULL
        assert compare(Row([1, None]), Row([1, 2])) is None

    def test_row_arity_mismatch(self):
        with pytest.raises(TypeError_):
            compare(Row([1]), Row([1, 2]))

    def test_incompatible_types(self):
        with pytest.raises(TypeError_):
            compare(1, "a")
        with pytest.raises(TypeError_):
            compare(True, 1)

    def test_lists(self):
        assert compare([1, 2], [1, 3]) == -1
        assert compare([1, 2], [1, 2]) == 0
        assert compare([1, 2], [1, 2, 3]) == -1


class TestThreeValuedLogic:
    def test_comparison_operators(self):
        assert sql_eq(1, 1) is True
        assert sql_ne(1, 1) is False
        assert sql_lt(1, 2) is True
        assert sql_le(2, 2) is True
        assert sql_gt(1, 2) is False
        assert sql_ge(2, 3) is False
        assert sql_eq(None, 1) is None

    def test_and_truth_table(self):
        assert sql_and(True, True) is True
        assert sql_and(True, False) is False
        assert sql_and(False, None) is False  # false dominates
        assert sql_and(True, None) is None
        assert sql_and(None, None) is None

    def test_or_truth_table(self):
        assert sql_or(False, False) is False
        assert sql_or(True, None) is True  # true dominates
        assert sql_or(False, None) is None
        assert sql_or(None, None) is None

    def test_not(self):
        assert sql_not(True) is False
        assert sql_not(False) is True
        assert sql_not(None) is None

    @given(st.sampled_from([True, False, None]),
           st.sampled_from([True, False, None]))
    def test_de_morgan(self, a, b):
        assert sql_not(sql_and(a, b)) == sql_or(sql_not(a), sql_not(b))
        assert sql_not(sql_or(a, b)) == sql_and(sql_not(a), sql_not(b))

    @given(st.sampled_from([True, False, None]),
           st.sampled_from([True, False, None]),
           st.sampled_from([True, False, None]))
    def test_associativity(self, a, b, c):
        assert sql_and(sql_and(a, b), c) == sql_and(a, sql_and(b, c))
        assert sql_or(sql_or(a, b), c) == sql_or(a, sql_or(b, c))


class TestRow:
    def test_field_access(self):
        row = Row([1, 2], names=["x", "y"])
        assert row.field("x") == 1
        assert row.field("Y") == 2

    def test_field_missing(self):
        from repro.sql.errors import ExecutionError
        with pytest.raises(ExecutionError):
            Row([1], names=["x"]).field("z")

    def test_unnamed_field_access(self):
        from repro.sql.errors import ExecutionError
        with pytest.raises(ExecutionError):
            Row([1]).field("x")

    def test_equality_and_hash(self):
        assert Row([1, "a"]) == Row([1, "a"])
        assert hash(Row([1, "a"])) == hash(Row([1, "a"]))
        assert Row([1]) != Row([2])

    def test_iteration_and_len(self):
        row = Row([1, 2, 3])
        assert list(row) == [1, 2, 3]
        assert len(row) == 3
        assert row[1] == 2

    def test_name_count_mismatch(self):
        with pytest.raises(TypeError_):
            Row([1, 2], names=["only"])


class TestSortKeys:
    def test_nulls_sort_last_ascending(self):
        values = [3, None, 1, None, 2]
        ordered = sorted(values, key=sort_key)
        assert ordered == [1, 2, 3, None, None]

    def test_descending_via_row_sort_key(self):
        rows = [(1,), (3,), (None,), (2,)]
        ordered = sorted(rows, key=lambda r: row_sort_key(r, [True]))
        # DESC: biggest first, NULLs first (PostgreSQL default for DESC)
        assert ordered == [(None,), (3,), (2,), (1,)]

    def test_mixed_row_keys(self):
        rows = [(1, "b"), (1, "a"), (0, "z")]
        ordered = sorted(rows, key=lambda r: row_sort_key(r, [False, False]))
        assert ordered == [(0, "z"), (1, "a"), (1, "b")]

    @given(st.lists(st.one_of(st.none(), st.integers(-10, 10)), min_size=1))
    def test_sort_key_total_order(self, values):
        ordered = sorted(values, key=sort_key)
        non_null = [v for v in ordered if v is not None]
        assert non_null == sorted(non_null)
        if None in values:
            assert ordered[-1] is None

    #: One value of every kind in ascending key order: booleans, numbers
    #: (int and float interleaved by value, NaN above them all), text,
    #: arrays, rows, NULL last.
    LADDER = [False, True, -2 ** 63, -1.5, 0, 0.5, 1, 2 ** 70, float("inf"),
              float("nan"), "", "a", "b", [1], [1, 0], [2], Row([1, "a"]),
              Row([1, "b"]), Row([2, "a"]), None]

    @pytest.mark.parametrize("descending", [False, True])
    def test_every_kind_has_its_place(self, descending):
        shuffled = self.LADDER[7::-1] + self.LADDER[:7:-1]
        ordered = sorted(shuffled,
                         key=lambda v: row_sort_key((v,), [descending]))
        expected = self.LADDER[::-1] if descending else self.LADDER
        assert [repr(v) for v in ordered] == [repr(v) for v in expected]

    #: Numbers whose order a careless negation (through a float, or of an
    #: int into a fixed width) would disturb, ascending; equal neighbours
    #: (``-0.0`` / ``0``, ``2 ** 63`` / ``2.0 ** 63``) stay in arrival order.
    EDGES = [float("-inf"), -1e308, -2 ** 63 - 1, -2 ** 63, -2.0 ** 63,
             -2 ** 63 + 1, -1, -0.0, 0, 5e-324, 1, 2 ** 63 - 1, 2 ** 63,
             2.0 ** 63, 2 ** 63 + 1, 2 ** 64, 1e308, 2 ** 1024,
             float("inf"), float("nan")]

    @pytest.mark.parametrize("descending", [False, True])
    def test_numbers_at_the_edges_keep_their_order(self, descending):
        arrival = self.EDGES[::2] + self.EDGES[1::2]
        ordered = sorted(arrival,
                         key=lambda v: row_sort_key((v,), [descending]))
        expected = sorted(arrival, key=sort_key)
        if descending:
            # The exact reverse, except that equal keys keep arrival order.
            expected = [v for key in sorted({sort_key(v) for v in arrival},
                                            reverse=True)
                        for v in arrival if sort_key(v) == key]
        assert [repr(v) for v in ordered] == [repr(v) for v in expected]
        assert [repr(v) for v in sorted(self.EDGES, key=sort_key)] \
            == [repr(v) for v in self.EDGES]

    def test_nested_keys_descending(self):
        # Arrays and rows compare element by element, NULL elements last
        # ascending - so first descending - at every depth.
        ladder = [[1], [1, 0], [1, [2]], [1, None], [2], [None],
                  Row([1, Row([1, "a"])]), Row([1, Row([1, "b"])]),
                  Row([1, Row([2, None])]), Row([1, None]), Row([2, [0]])]
        arrival = ladder[1::2] + ladder[::2]
        up = sorted(arrival, key=lambda v: row_sort_key((v,), [False]))
        down = sorted(arrival, key=lambda v: row_sort_key((v,), [True]))
        assert [repr(v) for v in up] == [repr(v) for v in ladder]
        assert [repr(v) for v in down] == [repr(v) for v in ladder[::-1]]

    def test_descending_second_key_breaks_ties_of_the_first(self):
        rows = [(1, "a"), (0, None), (1, None), (0, "b"), (1, "b"), (0, 2.5)]
        ordered = sorted(rows, key=lambda r: row_sort_key(r, [False, True]))
        assert ordered == [(0, None), (0, "b"), (0, 2.5),
                           (1, None), (1, "b"), (1, "a")]

    def test_exact_int_keys_as_the_numbers_do(self):
        assert sort_key(7) == (0, 1, 7) and sort_key(7) == sort_key(7.0)
        assert sort_key(True) == (0, 0, True) != sort_key(1)
        assert sort_key(2 ** 70) < sort_key(float("inf")) \
            < sort_key(float("nan")) < sort_key("")


class TestKeyClasses:
    """``hashable_value`` / ``comparison_class`` answer an exact int before
    anything else; every other value keeps the class it had."""

    def test_comparison_classes(self):
        assert comparison_class(7) == comparison_class(2 ** 70) == "num"
        assert comparison_class(1.0) == comparison_class(float("nan")) == "num"
        assert comparison_class(True) == "bool"
        assert comparison_class(Row([1])) == "row"
        assert comparison_class([1]) == "arr"
        assert comparison_class("1") == "str"
        assert comparison_class(None) == "NoneType"

    def test_hashable_stand_ins(self):
        assert hashable_value(7) == 7 and type(hashable_value(7)) is int
        assert hashable_value(True) == ("bool", True)
        assert hashable_value(True) != hashable_value(1)
        assert hashable_value(False) != hashable_value(0)
        assert hashable_value(1.0) == hashable_value(1)  # SQL-equal numbers
        assert hashable_value(float("nan")) == ("nan",)
        assert hashable_value(None) == ("null",)
        assert hashable_value(Row([1, True])) == ("row", 1, ("bool", True))
        assert hashable_value([1, None]) == ("arr", 1, ("null",))
        assert hashable_value("1") == "1"


class TestByteSizes:
    def test_scalars(self):
        assert value_byte_size(None) == 0
        assert value_byte_size(True) == 1
        assert value_byte_size(7) == 8
        assert value_byte_size(1.5) == 8
        assert value_byte_size("abcd") == 5  # 1 header + 4 chars

    def test_row_and_array(self):
        assert value_byte_size(Row([1, 2])) == 24 + 16
        assert value_byte_size([1, 2, 3]) == 24 + 24

    @given(st.text(max_size=200))
    def test_text_size_linear(self, s):
        assert value_byte_size(s) == 1 + len(s)


class TestRender:
    def test_render_values(self):
        assert render_value(None) == "NULL"
        assert render_value(True) == "true"
        assert render_value(Row([1, 2])) == "(1,2)"
        assert render_value([1, None]) == "{1,NULL}"
