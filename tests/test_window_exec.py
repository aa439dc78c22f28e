"""Window-function execution: ranks, offsets, frames, exclusion, named
windows — including the exact construction the paper's Q2 depends on."""

import pytest

from repro.sql.errors import PlanError


@pytest.fixture()
def wdb(db):
    db.execute("CREATE TABLE w(g text, k int, v int)")
    db.execute("INSERT INTO w VALUES "
               "('a', 1, 10), ('a', 2, 20), ('a', 2, 30), ('a', 4, 40), "
               "('b', 1, 100), ('b', 2, 200)")
    return db


class TestRankFamily:
    def test_row_number(self, wdb):
        rows = wdb.query_all("SELECT k, row_number() OVER (ORDER BY k) "
                             "FROM w WHERE g = 'a' ORDER BY 2")
        assert [r[1] for r in rows] == [1, 2, 3, 4]

    def test_rank_with_ties(self, wdb):
        rows = wdb.query_all("SELECT k, rank() OVER (ORDER BY k) FROM w "
                             "WHERE g = 'a' ORDER BY k, 2")
        assert [r[1] for r in rows] == [1, 2, 2, 4]

    def test_dense_rank(self, wdb):
        rows = wdb.query_all("SELECT dense_rank() OVER (ORDER BY k) FROM w "
                             "WHERE g = 'a' ORDER BY 1")
        assert [r[0] for r in rows] == [1, 2, 2, 3]

    def test_partition_by(self, wdb):
        rows = wdb.query_all(
            "SELECT g, row_number() OVER (PARTITION BY g ORDER BY k) "
            "FROM w ORDER BY g, 2")
        assert rows == [("a", 1), ("a", 2), ("a", 3), ("a", 4),
                        ("b", 1), ("b", 2)]

    def test_ntile(self, wdb):
        rows = wdb.query_all("SELECT ntile(2) OVER (ORDER BY k) FROM w "
                             "WHERE g = 'a' ORDER BY 1")
        assert [r[0] for r in rows] == [1, 1, 2, 2]


class TestOffsets:
    def test_lag_lead(self, wdb):
        rows = wdb.query_all(
            "SELECT v, lag(v) OVER (ORDER BY v), lead(v) OVER (ORDER BY v) "
            "FROM w WHERE g = 'a' ORDER BY v")
        assert rows == [(10, None, 20), (20, 10, 30), (30, 20, 40),
                        (40, 30, None)]

    def test_lag_with_offset_and_default(self, wdb):
        rows = wdb.query_all(
            "SELECT lag(v, 2, -1) OVER (ORDER BY v) FROM w WHERE g = 'a' "
            "ORDER BY 1")
        assert sorted(r[0] for r in rows) == [-1, -1, 10, 20]

    def test_first_last_value_default_frame(self, wdb):
        rows = wdb.query_all(
            "SELECT v, first_value(v) OVER (ORDER BY v), "
            "last_value(v) OVER (ORDER BY v) FROM w WHERE g = 'a' ORDER BY v")
        # default frame = up to current peer group
        assert rows == [(10, 10, 10), (20, 10, 20), (30, 10, 30),
                        (40, 10, 40)]

    def test_nth_value(self, wdb):
        rows = wdb.query_all(
            "SELECT nth_value(v, 2) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED "
            "PRECEDING AND UNBOUNDED FOLLOWING) FROM w WHERE g='a' LIMIT 1")
        assert rows == [(20,)]


class TestAggregatesOverFrames:
    def test_running_sum_default_frame_peers(self, wdb):
        # RANGE mode: peers (k=2 twice) share the cumulated value
        rows = wdb.query_all(
            "SELECT k, sum(v) OVER (ORDER BY k) FROM w WHERE g = 'a' "
            "ORDER BY k, v")
        assert rows == [(1, 10), (2, 60), (2, 60), (4, 100)]

    def test_rows_frame_running(self, wdb):
        rows = wdb.query_all(
            "SELECT v, sum(v) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) "
            "FROM w WHERE g = 'a' ORDER BY v")
        assert rows == [(10, 10), (20, 30), (30, 60), (40, 100)]

    def test_sliding_rows_frame(self, wdb):
        rows = wdb.query_all(
            "SELECT sum(v) OVER (ORDER BY v ROWS BETWEEN 1 PRECEDING AND "
            "1 FOLLOWING) FROM w WHERE g = 'a' ORDER BY 1")
        assert [r[0] for r in rows] == [30, 60, 70, 90]

    def test_exclude_current_row(self, wdb):
        # The paper's Q2 construction: cumulative sum excluding self.
        rows = wdb.query_all(
            "SELECT v, coalesce(sum(v) OVER lt, 0) AS lo, sum(v) OVER leq AS hi "
            "FROM w WHERE g = 'a' "
            "WINDOW leq AS (ORDER BY v), "
            "       lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW) "
            "ORDER BY v")
        assert rows == [(10, 0, 10), (20, 10, 30), (30, 30, 60),
                        (40, 60, 100)]

    def test_exclude_group_and_ties(self, wdb):
        rows = wdb.query_all(
            "SELECT k, sum(k) OVER (ORDER BY k ROWS BETWEEN UNBOUNDED "
            "PRECEDING AND UNBOUNDED FOLLOWING EXCLUDE GROUP) FROM w "
            "WHERE g = 'a' ORDER BY k, 2")
        # total k = 9; k=2 rows exclude both 2s -> 5
        assert rows == [(1, 8), (2, 5), (2, 5), (4, 5)]
        rows = wdb.query_all(
            "SELECT k, sum(k) OVER (ORDER BY k ROWS BETWEEN UNBOUNDED "
            "PRECEDING AND UNBOUNDED FOLLOWING EXCLUDE TIES) FROM w "
            "WHERE g = 'a' ORDER BY k, 2")
        # k=2 rows keep themselves but drop their peer -> 9 - 2 = 7
        assert rows == [(1, 9), (2, 7), (2, 7), (4, 9)]

    def test_count_star_window(self, wdb):
        rows = wdb.query_all(
            "SELECT count(*) OVER (PARTITION BY g) FROM w ORDER BY 1")
        assert [r[0] for r in rows] == [2, 2, 4, 4, 4, 4]

    def test_range_offset_frame(self, wdb):
        rows = wdb.query_all(
            "SELECT k, sum(k) OVER (ORDER BY k RANGE BETWEEN 1 PRECEDING "
            "AND 1 FOLLOWING) FROM w WHERE g = 'a' ORDER BY k, 2")
        # k=1: {1,2,2}=5; k=2: {1,2,2}=5; k=4: {4}=4
        assert rows == [(1, 5), (2, 5), (2, 5), (4, 4)]

    def test_no_order_by_whole_partition(self, wdb):
        rows = wdb.query_all("SELECT sum(v) OVER () FROM w WHERE g = 'b'")
        assert rows == [(300,), (300,)]

    def test_empty_frame_yields_null(self, wdb):
        rows = wdb.query_all(
            "SELECT sum(v) OVER (ORDER BY v ROWS BETWEEN 2 FOLLOWING AND "
            "3 FOLLOWING) FROM w WHERE g = 'b'")
        assert set(rows) == {(None,)}


class TestWindowSpecRules:
    def test_named_window_frame_refinement(self, wdb):
        rows = wdb.query_all(
            "SELECT sum(v) OVER (base ROWS UNBOUNDED PRECEDING) FROM w "
            "WHERE g = 'b' WINDOW base AS (ORDER BY v) ORDER BY 1")
        assert [r[0] for r in rows] == [100, 300]

    def test_unknown_window_name(self, wdb):
        with pytest.raises(PlanError):
            wdb.query_all("SELECT sum(v) OVER missing FROM w")

    def test_cannot_override_partition(self, wdb):
        with pytest.raises(PlanError):
            wdb.query_all(
                "SELECT sum(v) OVER (base PARTITION BY g) FROM w "
                "WINDOW base AS (PARTITION BY k)")

    def test_window_function_in_where_rejected(self, wdb):
        with pytest.raises(PlanError):
            wdb.query_all("SELECT v FROM w WHERE sum(v) OVER () > 0")

    def test_window_over_grouped_rows(self, wdb):
        rows = wdb.query_all(
            "SELECT g, sum(sum(v)) OVER (ORDER BY g ROWS UNBOUNDED "
            "PRECEDING) FROM w GROUP BY g ORDER BY g")
        assert rows == [("a", 100), ("b", 400)]

    def test_multiple_windows_one_query(self, wdb):
        rows = wdb.query_all(
            "SELECT row_number() OVER (ORDER BY v), "
            "sum(v) OVER (PARTITION BY g) FROM w ORDER BY 1")
        assert len(rows) == 6


# ---------------------------------------------------------------------------
# Frames with offsets (GROUPS, RANGE, ROWS), differentially against sqlite3
# ---------------------------------------------------------------------------

FRAME_ROWS = [
    (1, 1, None, 5), (2, 1, 1, 7), (3, 1, 1, None), (4, 1, 3, 2),
    (5, 1, 3, 11), (6, 1, 4, -1), (7, 1, None, 3), (8, 1, 9, 4),
    (9, 2, 2, 8), (10, 2, 2, 6), (11, 2, None, None), (12, 2, 5, 1),
    (13, 2, 7, 10), (14, 2, 7, 12), (15, 2, 7, 9),
]
# Bound kinds in frame order: a frame may not start after its end kind.
BOUND_KINDS = ["UNBOUNDED PRECEDING", "PRECEDING", "CURRENT ROW",
               "FOLLOWING", "UNBOUNDED FOLLOWING"]


def _random_frames(mode: str, count: int, seed: int):
    """*count* random ``<mode> BETWEEN`` windows with explicit NULLS
    placement (sqlite3's default differs from PostgreSQL's)."""
    import random
    rng = random.Random(seed)

    def bound(kind):
        return f"{rng.randint(0, 3)} {kind}" if kind in (
            "PRECEDING", "FOLLOWING") else kind

    frames = []
    while len(frames) < count:
        start = rng.randrange(0, 4)
        end = rng.randrange(max(start, 1), 5)
        exclude = rng.choice(["", " EXCLUDE CURRENT ROW", " EXCLUDE GROUP",
                              " EXCLUDE TIES"])
        frames.append(
            f"PARTITION BY p ORDER BY k {rng.choice(['ASC', 'DESC'])} "
            f"NULLS {rng.choice(['FIRST', 'LAST'])} {mode} BETWEEN "
            f"{bound(BOUND_KINDS[start])} AND {bound(BOUND_KINDS[end])}"
            f"{exclude}")
    return frames


class TestFramesAgainstSqlite:
    """Every bound and exclusion of the three frame modes agrees with
    sqlite3 over duplicate and NULL ORDER BY keys, in both directions and
    both NULLS placements: the peer-group walk of ``GROUPS n PRECEDING /
    FOLLOWING``, and ``RANGE`` offsets under DESC and on NULL rows."""

    @pytest.fixture(scope="class")
    def engines(self):
        import sqlite3
        from repro.sql import Database
        db = Database(seed=0)
        db.execute("CREATE TABLE w(id int, p int, k int, v int)")
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE w(id int, p int, k int, v int)")
        for row in FRAME_ROWS:
            db.execute("INSERT INTO w VALUES ($1, $2, $3, $4)", list(row))
            lite.execute("INSERT INTO w VALUES (?, ?, ?, ?)", row)
        yield db, lite
        lite.close()

    @pytest.mark.parametrize("frame", _random_frames("GROUPS", 120, 20)
                             + _random_frames("RANGE", 80, 21)
                             + _random_frames("ROWS", 40, 22))
    def test_agrees(self, engines, frame):
        db, lite = engines
        sql = (f"SELECT id, sum(v) OVER ({frame}), count(*) OVER ({frame}), "
               f"min(v) OVER ({frame}) FROM w ORDER BY id")
        assert db.query_all(sql) == [tuple(r) for r in lite.execute(sql)]

    def test_offsets_walk_whole_groups(self, engines):
        db, _ = engines
        rows = db.query_all(
            "SELECT id, count(*) OVER (PARTITION BY p ORDER BY k NULLS FIRST "
            "GROUPS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM w "
            "WHERE p = 2 ORDER BY id")
        # Groups of p = 2 in order: {11: NULL}, {9, 10: 2}, {12: 5},
        # {13, 14, 15: 7}.
        assert rows == [(9, 4), (10, 4), (11, 3), (12, 6), (13, 4),
                        (14, 4), (15, 4)]
