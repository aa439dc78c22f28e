"""The seven workloads: schema, seeded data, statement streams, answers.

A workload is a :class:`Spec`.  ``load`` runs on the server side and
builds the database; ``streams`` runs on the load generator's side and
yields operations.  Both derive their data from ``seed`` through the same
``*_rows`` functions, so the load generator knows every row the server
holds without asking it.

An operation (:class:`Op`) is one or more statements sent back to back on
one connection, each its own ``Query`` round trip, and timed as a unit.
Where statement shapes differ in cost by an order of magnitude
(``adhoc_plan``, ``udf_*``) an operation is *one of each shape*: a random
mix of 1 ms and 10 ms operations has its median on the boundary between
the two modes, where it jumps with the sample.  ``analytic_scan``'s three
shapes cost about the same and take turns, so each is exactly a third of
every round.

A round is a fixed number of operations (``Spec.round_ops``): at least
100, so that ten samples lie beyond a round's 90th percentile, and at
least a quarter of a second's worth.  It is driven in ``Spec.slices``
slices of about 0.2 s.  A run measures for 12 s and its values are medians
over rounds, which want five rounds at the very least, so an operation
may cost 24 ms: that is what sizes the tables.

Read-only streams cycle through a pre-built pool; write streams are
generated on the fly because every operation changes the model the next
one is checked against.  Expected answers that are folds over a table are
computed when an answer is checked (``oracle.Fold``), after the clock has
stopped.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from typing import Callable, Iterator, Sequence

import oracle
from oracle import Fold, Rows, Tag, anything

#: Operations hashed into the stream fingerprint.
HASHED_OPS = 2048


class Op:
    """Statements sent as one timed unit, and how to check each answer."""

    __slots__ = ("sqls", "expects", "user_bytes")

    def __init__(self, sqls: Sequence[str], expects: Sequence[Callable],
                 user_bytes: int = 0):
        self.sqls = sqls
        self.expects = expects
        #: Bytes of row values this operation asks the database to store
        #: (write amplification's denominator); 0 for reads.
        self.user_bytes = user_bytes


class Stream:
    """One connection's operations: a latency class, the statements the
    session runs once after connecting, and an endless iterator.

    A stream that *follows* has no operation count of its own: in every
    round it loops until the other streams have done theirs."""

    def __init__(self, klass: str, session_setup: Sequence[str],
                 ops: Iterator[Op], follows: bool = False):
        self.klass = klass
        self.session_setup = session_setup
        self.ops = ops
        self.follows = follows


def _cells_bytes(*values) -> int:
    return sum(len(str(v)) for v in values)


def _bulk_load(db, ddl: str, table: str, rows: list[tuple]) -> None:
    """CREATE through SQL (so the DDL is logged), rows through the storage
    layer's bulk path; the CHECKPOINT at the end of ``load`` is what makes
    them durable."""
    db.execute(ddl)
    db.catalog.get_table(table).insert_many(rows)


class Spec:
    """Base class: subclasses set ``name`` and ``why`` and override
    ``load`` and ``streams``."""

    name = ""
    why = ""
    #: The latency class p50_ms / p90_ms report.
    primary = "op"
    #: ``wal_checkpoint_interval`` for this workload's database.
    checkpoint_interval = 10_000
    #: Operations in one timed round, the slices of about 0.2 s it is driven
    #: in, and operations run before the clock starts: prepared handles,
    #: lazy indexes, visible-rows caches, function-body plans.
    round_ops = 120
    slices = 1
    warm_ops = 10

    def load(self, db, seed: int) -> dict:
        """Build schema and data in *db*; returns set-up facts
        (``compile_ms_per_fn``, ``qf_chars``)."""
        raise NotImplementedError

    def streams(self, seed: int) -> list[Stream]:
        """One :class:`Stream` per connection, freshly seeded."""
        raise NotImplementedError

    def model(self) -> dict[str, dict]:
        """``table -> {id: row}`` after the operations generated so far;
        empty for read-only workloads (no durability check)."""
        return {}

    def fingerprint(self, seed: int) -> str:
        """SHA-256 over the first :data:`HASHED_OPS` operations of every
        stream: two runs with equal hashes sent identical statements."""
        digest = hashlib.sha256()
        for stream in type(self)().streams(seed):
            for op in itertools.islice(stream.ops, HASHED_OPS):
                for sql in op.sqls:
                    digest.update(sql.encode())
                    digest.update(b"\x00")
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# point_read
# ---------------------------------------------------------------------------

POINT_ROWS = 10_000
POINT_POOL = 8192


def point_rows(seed: int) -> list[tuple]:
    rng = random.Random(f"point:{seed}")
    return [(i, rng.randrange(1_000_000), f"t{rng.randrange(1000)}")
            for i in range(POINT_ROWS)]


class PointRead(Spec):
    name = "point_read"
    why = ("prepared EXECUTE over a static 10k-row indexed table: request "
           "overhead (server.*, sql.session, index probe) is nearly all "
           "the cost; WAL, planner and vector executor do almost nothing")
    round_ops = 1320
    warm_ops = 300

    def load(self, db, seed):
        _bulk_load(db, "CREATE TABLE pts(id int, v int, tag text)", "pts",
                   point_rows(seed))
        db.execute("CREATE INDEX pts_id ON pts(id)")
        return {}

    def streams(self, seed):
        rows = point_rows(seed)
        rng = random.Random(f"point-keys:{seed}")
        pool = []
        for _ in range(POINT_POOL):
            key = rng.randrange(POINT_ROWS)
            _, v, tag = rows[key]
            pool.append(Op((f"EXECUTE pt({key})",), (Rows([(v, tag)]),)))
        return [Stream(
            "op", ["PREPARE pt(int) AS SELECT v, tag FROM pts WHERE id = $1"],
            itertools.cycle(pool))]


# ---------------------------------------------------------------------------
# durable_write
# ---------------------------------------------------------------------------

WRITE_ACCTS = 200
#: Ledger rows kept: each operation deletes the row this many back, so
#: tables, indexes and checkpoints stay the same size all run long.
LEDGER_KEEP = 50
_PAD = "p" * 24


def acct_rows(seed: int, count: int) -> list[tuple]:
    rng = random.Random(f"accts:{seed}")
    return [(i, rng.randrange(1000, 100_000), f"a{i % 97}")
            for i in range(count)]


class DurableWrite(Spec):
    name = "durable_write"
    why = ("autocommit UPDATE of an account, INSERT of a ledger row, DELETE of "
           "an old one, fsync on each: sql.wal, os.fsync, sql.txn, index upkeep "
           "and the row search dominate; an auto-checkpoint every 0.6 s")
    checkpoint_interval = 2000
    warm_ops = 60

    def __init__(self):
        self._model: dict[str, dict] = {}

    def load(self, db, seed):
        _bulk_load(db, "CREATE TABLE accts(id int, bal int, tag text)",
                   "accts", acct_rows(seed, WRITE_ACCTS))
        db.execute("CREATE INDEX accts_id ON accts(id)")
        db.execute("CREATE TABLE ledger(id int, acct int, delta int, "
                   "memo text)")
        db.execute("CREATE INDEX ledger_id ON ledger(id)")
        return {}

    def streams(self, seed):
        accts = {row[0]: row for row in acct_rows(seed, WRITE_ACCTS)}
        ledger: dict[int, tuple] = {}
        self._model = {"accts": accts, "ledger": ledger}
        rng = random.Random(f"write-ops:{seed}")

        def ops():
            for n in itertools.count():
                key = rng.randrange(WRITE_ACCTS)
                delta = rng.randrange(-500, 500)
                _, bal, tag = accts[key]
                accts[key] = (key, bal + delta, tag)
                ledger[n] = (n, key, delta, _PAD)
                gone = 1 if ledger.pop(n - LEDGER_KEEP, None) else 0
                yield Op(
                    (f"UPDATE accts SET bal = bal + {delta} "
                     f"WHERE id = {key}",
                     f"INSERT INTO ledger VALUES ({n}, {key}, {delta}, "
                     f"'{_PAD}')",
                     f"DELETE FROM ledger WHERE id = {n - LEDGER_KEEP}"),
                    (Tag("UPDATE 1"), Tag("INSERT 0 1"),
                     Tag(f"DELETE {gone}")),
                    _cells_bytes(key, bal + delta, tag)
                    + _cells_bytes(n, key, delta, _PAD))

        return [Stream("op", [], ops())]

    def model(self):
        return self._model


# ---------------------------------------------------------------------------
# mix_oltp
# ---------------------------------------------------------------------------

MIX_ACCTS = 200
TRANSFER_EVERY = 10


class MixOltp(Spec):
    name = "mix_oltp"
    why = ("two connections on one table, prepared point reads beside "
           "durable updates and BEGIN..COMMIT transfers: _exec_lock "
           "queueing and visible-rows-cache invalidation show here and in "
           "neither solo workload")
    primary = "read"
    #: The writer's operations per round; the reader loops beside it and
    #: gets about 300 of its own in.
    round_ops = 144
    warm_ops = 60

    def __init__(self):
        self._model: dict[str, dict] = {}

    def load(self, db, seed):
        _bulk_load(db, "CREATE TABLE accts(id int, bal int, tag text)",
                   "accts", acct_rows(seed, MIX_ACCTS))
        db.execute("CREATE INDEX accts_id ON accts(id)")
        return {}

    def streams(self, seed):
        accts = {row[0]: row for row in acct_rows(seed, MIX_ACCTS)}
        self._model = {"accts": accts}
        #: Every balance an account has had or is about to have.  The
        #: writer adds a value *before* sending the statement that
        #: commits it, so whichever version a concurrent read sees is in
        #: the set; a value that is not was never written.
        seen = {key: {row[1]} for key, row in accts.items()}
        read_rng = random.Random(f"mix-reads:{seed}")
        write_rng = random.Random(f"mix-writes:{seed}")

        def expect_read(key):
            tag, balances = accts[key][2], seen[key]

            def check(result):
                rows = result.rows
                return (rows is not None and len(rows) == 1
                        and rows[0][1] == tag and rows[0][0] is not None
                        and int(rows[0][0]) in balances)
            return check

        def reads():
            while True:
                key = read_rng.randrange(MIX_ACCTS)
                yield Op((f"EXECUTE rd({key})",), (expect_read(key),))

        def move(key, delta):
            _, bal, tag = accts[key]
            accts[key] = (key, bal + delta, tag)
            seen[key].add(bal + delta)
            return (f"UPDATE accts SET bal = bal + {delta} WHERE id = {key}",
                    _cells_bytes(key, bal + delta, tag))

        def writes():
            for n in itertools.count(1):
                if n % TRANSFER_EVERY:
                    sql, size = move(write_rng.randrange(MIX_ACCTS),
                                     write_rng.randrange(-500, 500))
                    yield Op((sql,), (Tag("UPDATE 1"),), size)
                    continue
                src, dst = write_rng.sample(range(MIX_ACCTS), 2)
                amount = write_rng.randrange(1, 500)
                debit, debit_size = move(src, -amount)
                credit, credit_size = move(dst, amount)
                yield Op(("BEGIN", debit, credit, "COMMIT"),
                         (Tag("BEGIN"), Tag("UPDATE 1"), Tag("UPDATE 1"),
                          Tag("COMMIT")),
                         debit_size + credit_size)

        return [
            Stream("read", ["PREPARE rd(int) AS SELECT bal, tag FROM accts "
                            "WHERE id = $1"], reads(), follows=True),
            Stream("write", [], writes()),
        ]

    def model(self):
        return self._model


# ---------------------------------------------------------------------------
# analytic_scan
# ---------------------------------------------------------------------------

#: Forty vector batches.  ISSUE.md's 100k rows and 10k x 2k x 500
#: join make a statement cost 60-400 ms here, which is 40 samples in a whole
#: run; at these sizes the thirty statements cost 4-35 ms, 19 on average.
FACT_ROWS = 40 * 1024
ORDER_ROWS = 4000
CUST_ROWS = 800
SEG_ROWS = 200
VARIANTS = 10


def analytic_rows(seed: int):
    rng = random.Random(f"analytic:{seed}")
    facts = [(i, i % 10, rng.randrange(1000), rng.randrange(100))
             for i in range(FACT_ROWS)]
    orders = [(i, rng.randrange(CUST_ROWS), rng.randrange(1000),
               rng.randrange(100)) for i in range(ORDER_ROWS)]
    custs = [(i, rng.randrange(SEG_ROWS), f"c{i}") for i in range(CUST_ROWS)]
    segs = [(i, f"s{i}", rng.randrange(10)) for i in range(SEG_ROWS)]
    return facts, orders, custs, segs


class AnalyticScan(Spec):
    name = "analytic_scan"
    why = ("one statement per op: filtered aggregate and 10-group GROUP BY "
           "over a 40k-row table (vectorized), 3-way hash join with ORDER "
           "BY..LIMIT, in turn, ten literals each: sql.executor is 95%")
    #: Every (shape, variant) pair four times: each round runs the same
    #: statements, so its percentiles are those of a fixed set of costs.
    round_ops = 4 * 3 * VARIANTS
    slices = 12
    warm_ops = 3 * VARIANTS

    def load(self, db, seed):
        facts, orders, custs, segs = analytic_rows(seed)
        _bulk_load(db, "CREATE TABLE facts(id int, grp int, k int, v int)",
                   "facts", facts)
        _bulk_load(db, "CREATE TABLE orders(id int, cust int, k int, v int)",
                   "orders", orders)
        _bulk_load(db, "CREATE TABLE custs(id int, seg int, name text)",
                   "custs", custs)
        _bulk_load(db, "CREATE TABLE segs(id int, label text, w int)",
                   "segs", segs)
        return {}

    def streams(self, seed):
        facts, orders, custs, segs = analytic_rows(seed)
        rng = random.Random(f"analytic-ops:{seed}")
        # One threshold per tenth of the key range: every seed filters the
        # same spread of selectivities, so every seed is the same work.
        thresholds = [100 + 80 * i + rng.randrange(80)
                      for i in range(VARIANTS)]
        statements = []
        for i, t in enumerate(thresholds):
            w = 3 + i % 6
            # ``k + v``, not ``k``: a bare column comparison is answered
            # from a lazily built sorted index, four times slower than the
            # vectorized scan this workload is here to exercise.  No ORDER
            # BY on the grouped shape for the same reason (it would take
            # the row engine); its rows are compared in any order.
            statements += [
                Op((f"SELECT count(*), sum(v) FROM facts WHERE k + v < {t}",),
                   (Fold(oracle.filtered_aggregate, facts, t),)),
                Op((f"SELECT grp, count(*), sum(v), avg(v) FROM facts "
                    f"WHERE k + v >= {t} GROUP BY grp",),
                   (Fold(oracle.grouped_aggregate, facts, t,
                         ordered=False),)),
                Op((f"SELECT o.id, c.name, s.label, o.v FROM orders AS o "
                    f"JOIN custs AS c ON o.cust = c.id "
                    f"JOIN segs AS s ON c.seg = s.id "
                    f"WHERE o.k < {t} AND s.w < {w} "
                    f"ORDER BY o.v DESC, o.id LIMIT 20",),
                   (Fold(oracle.join_topn, orders, custs, segs, t, w, 20),))]
        pool = []
        for _ in range(16):
            rng.shuffle(statements)
            pool += statements
        return [Stream("op", [], itertools.cycle(pool))]


# ---------------------------------------------------------------------------
# adhoc_plan
# ---------------------------------------------------------------------------

ITEM_ROWS = 1000
#: Ids each scanning statement is confined to, through the index on
#: ``id``.  Over all 1000 rows the executor is half the time and parse plus
#: plan a sixth, which ``analytic_scan`` already measures; over a window
#: the statements stay cheap and the planner has an access path to choose.
WINDOW = 200
CAT_ROWS = 20
ADHOC_POOL = 4096


def adhoc_rows(seed: int):
    rng = random.Random(f"adhoc:{seed}")
    items = [(i, i % CAT_ROWS, rng.randrange(1000), f"item{i}")
             for i in range(ITEM_ROWS)]
    cats = [(i, f"cat{i}") for i in range(CAT_ROWS)]
    return items, cats


class AdhocPlan(Spec):
    name = "adhoc_plan"
    why = ("unprepared text, four cheap shapes per op over 200-id windows of "
           "a 1k-row indexed table, 4096 distinct ops, far more than the plan "
           "cache holds: parse plus plan are a third of the time")
    slices = 3
    warm_ops = 40

    def load(self, db, seed):
        items, cats = adhoc_rows(seed)
        _bulk_load(db, "CREATE TABLE items(id int, cat int, price int, "
                   "name text)", "items", items)
        db.execute("CREATE INDEX items_id ON items(id)")
        _bulk_load(db, "CREATE TABLE cats(id int, label text)", "cats", cats)
        return {}

    def streams(self, seed):
        items, cats = adhoc_rows(seed)
        items_by_id = {row[0]: row for row in items}
        cats_by_id = dict(cats)
        windows = {lo: items[lo:lo + WINDOW]
                   for lo in range(0, ITEM_ROWS - WINDOW + 1, 25)}
        rng = random.Random(f"adhoc-ops:{seed}")
        pool = []
        texts = set()
        while len(pool) < ADHOC_POOL:
            key, bump = rng.randrange(ITEM_ROWS), rng.randrange(100_000)
            lo = rng.choice(list(windows))
            within = f"id >= {lo} AND id < {lo + WINDOW}"
            i_within = f"i.id >= {lo} AND i.id < {lo + WINDOW}"
            price, cat_below = rng.randrange(1000), rng.randrange(1, CAT_ROWS)
            above, having = rng.randrange(900), rng.randrange(3)
            cat, skip = rng.randrange(CAT_ROWS), rng.randrange(1000)
            limit = rng.randrange(3, 9)
            sqls = (
                f"SELECT name, price + {bump} FROM items WHERE id = {key}",
                f"SELECT i.name, c.label FROM items AS i JOIN cats AS c "
                f"ON i.cat = c.id WHERE {i_within} AND i.price < {price} "
                f"AND c.id < {cat_below} ORDER BY i.id",
                f"SELECT cat, count(*), sum(price) FROM items "
                f"WHERE {within} AND price > {above} GROUP BY cat "
                f"HAVING count(*) > {having} ORDER BY cat",
                f"SELECT id, price FROM items WHERE {within} AND cat = {cat} "
                f"AND price <> {skip} ORDER BY price DESC, id LIMIT {limit}")
            if texts.intersection(sqls):
                continue  # every statement text in the pool is distinct
            texts.update(sqls)
            window = windows[lo]
            pool.append(Op(sqls, (
                Fold(oracle.item_point, items_by_id, key, bump),
                Fold(oracle.item_join, window, cats_by_id, price, cat_below),
                Fold(oracle.item_having, window, above, having),
                Fold(oracle.item_topn, window, cat, skip, limit))))
        return [Stream("op", [], itertools.cycle(pool))]


# ---------------------------------------------------------------------------
# udf_compiled / udf_interp
# ---------------------------------------------------------------------------

#: ISSUE.md's 64 rows / 32 strings of 32 characters and 32 walks make one
#: interpreted operation cost 365 ms here (parse 175, walk 190), which is
#: 33 samples in a whole run.  These sizes make it 19 ms: 120 per round.
PARSE_ROWS = 8
PARSE_DISTINCT = 4
PARSE_LENGTH = 24
WALK_ROWS = 2
WALK_STEPS = 32
UDF_POOL = 512


def parse_inputs(seed: int) -> list[tuple]:
    """``PARSE_ROWS`` rows over ``PARSE_DISTINCT`` strings; the last
    distinct string has a character the automaton rejects, at a fixed
    place so that every seed parses the same number of characters."""
    from repro.workloads.parser_fsm import make_parseable_input
    rng = random.Random(f"parse:{seed}")
    strings = [make_parseable_input(PARSE_LENGTH, seed=rng.randrange(10**6))
               for _ in range(PARSE_DISTINCT)]
    at = 3 * PARSE_LENGTH // 4
    strings[-1] = strings[-1][:at] + "x" + strings[-1][at + 1:]
    return [(i, strings[i % PARSE_DISTINCT]) for i in range(PARSE_ROWS)]


class _Udf(Spec):
    """The paper's ``parse`` and ``walk`` called over relations; the two
    subclasses send the same statements to different function names."""

    suffix = ""
    compiled = False
    warm_ops = 6

    def load(self, db, seed):
        from repro.compiler import compile_plsql
        from repro.workloads.loader import WORKLOADS
        from repro.workloads.parser_fsm import setup_parser
        from repro.workloads.robot import setup_robot
        setup_robot(db)
        setup_parser(db)
        _bulk_load(db, "CREATE TABLE inputs(id int, s text)", "inputs",
                   parse_inputs(seed))
        _bulk_load(db, "CREATE TABLE calls(id int)", "calls",
                   [(i,) for i in range(WALK_ROWS)])
        if not self.compiled:
            return {}
        compile_s, qf_chars = [], []
        for name in ("parse", "walk"):
            started = time.perf_counter()
            artifact = compile_plsql(WORKLOADS[name], db)
            artifact.register(db, name=f"{name}_c")
            compile_s.append(time.perf_counter() - started)
            qf_chars.append(len(artifact.sql()))
        return {"compile_ms_per_fn": 1e3 * sum(compile_s) / len(compile_s),
                "qf_chars": sum(qf_chars)}

    def streams(self, seed):
        from repro.workloads.parser_fsm import csv_number_fsm
        from repro.workloads.robot import default_grid
        fsm = csv_number_fsm()
        inputs = parse_inputs(seed)
        parsed = Rows([(i, fsm.run(s)) for i, s in inputs])
        walker = oracle.WalkOracle(default_grid())
        rng = random.Random(f"udf-ops:{seed}")
        parse_fn, walk_fn = "parse" + self.suffix, "walk" + self.suffix
        pool = []
        for _ in range(UDF_POOL):
            walk_seed = rng.randrange(1_000_000)
            win, loose = rng.randrange(10, 30), -rng.randrange(10, 30)
            outcomes = walker.walks(walk_seed, WALK_ROWS, (0, 0), win, loose,
                                    WALK_STEPS)
            pool.append(Op(
                (f"SELECT id, {parse_fn}(s) FROM inputs",
                 f"SELECT setseed({walk_seed})",
                 f"SELECT c.id, {walk_fn}(row(0,0)::coord, {win}, {loose}, "
                 f"{WALK_STEPS}) FROM calls AS c"),
                (parsed, anything, Rows(list(enumerate(outcomes))))))
        return [Stream("op", [], itertools.cycle(pool))]


class UdfCompiled(_Udf):
    name = "udf_compiled"
    why = ("stable parse_c over 8 rows / 4 distinct strings (one BatchedUdf "
           "trampoline, argument dedup) and volatile walk_c over 2 rows "
           "(per-row inlined Qf): the compiled trampoline is nearly all the time")
    suffix = "_c"
    compiled = True
    slices = 6


class UdfInterp(_Udf):
    name = "udf_interp"
    why = ("the identical stream through interpreted parse / walk: hundreds "
           "of tiny embedded queries per op (Table 1's f->Qi switch); "
           "plsql.interpreter and ExecutorStart/End dominate")
    slices = 12


SPECS = {spec.name: spec for spec in (
    PointRead, DurableWrite, MixOltp, AnalyticScan, AdhocPlan,
    UdfCompiled, UdfInterp)}
