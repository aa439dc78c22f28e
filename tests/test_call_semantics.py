"""One call semantics: a compiled call binds each argument once, before
the body, as the interpreter does.

Every compiled form is checked against the PL/pgSQL interpreter on the
paper's kind of function - an aggregate over a table, filtered by a
parameter - called the ways such a function is called: over literals,
over a column of the table the body reads, over a column of a derived
table named like the callee's columns, over a ``random()`` draw, and with
a raising argument (for a parameter the body may never read).  The forms:
the trampoline machine (``batch_compiled = on``, loop-bearing bodies), the
inlined Qf (``off``, and every loop-free body), and Froid's Qf (loop-free
bodies).  Every form casts each argument to its parameter's declared
type first, as the interpreter does at entry.  The Qf binds its arguments
in one row (``compiler/template.bind_arguments``), so each ``$k`` - ``?k``
in the SQLite text - occurs exactly once; the last test checks that of
every Qf the demo workloads and fuzz seed 0 compile.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.compiler import compile_plsql
from repro.compiler.froid import froid_compile
from repro.fuzz.querygen import generate_case
from repro.sql import Database
from repro.sql.errors import CompileError, SqlError, error_class
from repro.workloads import WORKLOADS, build_demo_database

ROWS = [(1, 5), (2, 1), (3, 7), (4, 3), (5, 2)]

#: ``{f}`` is the function's name in each form.
CALLS = {
    "literal": "SELECT {f}(2, 3), {f}(4, NULL), {f}(NULL, 1), {f}(9, 0)",
    "column": "SELECT id, {f}(id, k) FROM t ORDER BY id",
    "derived": ("SELECT s.id, {f}(id, k) FROM "
                "(SELECT 6 - id AS id, k + 1 AS k FROM t) AS s ORDER BY s.id"),
    "random": ("SELECT id, {f}(floor(random() * 6)::int, k) FROM t "
               "ORDER BY id"),
    "raising": "SELECT {f}(id, 12 / (k - k)) FROM t",
}


def _loop_free_body(rng: random.Random) -> str:
    """An aggregate over ``t`` filtered by ``p``, which may be read again;
    ``q`` is read zero, one or two times."""
    aggregate = rng.choice(("max(k)", "min(k)", "sum(k)", "count(*)",
                            "max(id)"))
    where = rng.choice(("id = p", "k = p", "id >= p", "k < p + 1",
                        "id <> p"))
    tail = rng.choice(("", "", " + q", " + q * q", " - p"))
    query = f"(SELECT {aggregate} FROM t WHERE {where})"
    if rng.random() < 0.5:
        return f"BEGIN RETURN {query}{tail}; END;"
    return (f"DECLARE r int; BEGIN r := {query}; "
            f"IF r IS NULL THEN r := -1; END IF; RETURN r{tail}; END;")


def _loop_body(rng: random.Random) -> str:
    """The same query, once per iteration, its filter shifted by the loop
    counter."""
    where = rng.choice(("id = p + i", "k > p - i", "id <= p + i"))
    tail = rng.choice(("", " + q"))
    return (f"DECLARE acc int := 0; i int := 0; BEGIN "
            f"WHILE i < {rng.randint(1, 3)} LOOP "
            f"acc := acc + coalesce((SELECT max(k) FROM t WHERE {where}), 0);"
            f" i := i + 1; END LOOP; RETURN acc{tail}; END;")


def _bodies(seed: int = 13) -> list[tuple[str, bool]]:
    """(body, loop-free?): forty loop-free bodies and four with a loop."""
    rng = random.Random(seed)
    return ([(_loop_free_body(rng), True) for _ in range(40)]
            + [(_loop_body(rng), False) for _ in range(4)])


def _database() -> Database:
    db = Database(seed=0, profile=False)
    db.execute("CREATE TABLE t(id int, k int)")
    db.execute("INSERT INTO t VALUES "
               + ", ".join(f"({i}, {k})" for i, k in ROWS))
    return db


def _outcome(db: Database, sql: str, seed: int):
    """Rows or error class, and the next draw: a form that draws more or
    fewer times than another leaves the generator elsewhere."""
    db.reseed(seed)
    try:
        result = ("ok", db.query_all(sql))
    except SqlError as error:
        result = (error_class(error), str(error))
    return result, db.query_value("SELECT random()")


@pytest.mark.parametrize("batch", ["on", "off"])
def test_every_form_answers_as_the_interpreter(batch):
    db = _database()
    forms = {}
    for index, (body, loop_free) in enumerate(_bodies()):
        name = f"f{index}"
        source = (f"CREATE FUNCTION {name}(p int, q int) RETURNS int AS $$ "
                  f"{body} $$ LANGUAGE plpgsql")
        db.execute(source)
        compile_plsql(source, db).register(db, name=f"{name}_c")
        forms[name] = [f"{name}_c"]
        if loop_free:
            froid_compile(source, db).register(db, name=f"{name}_fr")
            forms[name].append(f"{name}_fr")
    db.execute(f"SET batch_compiled = {batch}")
    mismatches = []
    for name, twins in forms.items():
        for shape, sql in CALLS.items():
            expected = _outcome(db, sql.format(f=name), 7)
            if shape == "raising":
                assert expected[0][0] == "execution", expected
            for twin in twins:
                got = _outcome(db, sql.format(f=twin), 7)
                if got != expected:
                    mismatches.append((twin, shape, expected, got))
    assert mismatches == []


GL = """CREATE FUNCTION gl(p int) RETURNS int AS $$
BEGIN RETURN (SELECT max(k) FROM t WHERE id = p); END; $$ LANGUAGE plpgsql"""


@pytest.fixture
def gl_db() -> Database:
    db = _database()
    db.execute(GL)
    compile_plsql(GL, db).register(db, name="gl_c")
    return db


@pytest.mark.parametrize("batch", ["on", "off"])
def test_a_column_argument_is_not_captured_by_the_callee(gl_db, batch):
    """The argument ``id`` is the caller's: the Qf's own ``t.id`` does not
    capture it (``WHERE id = id`` answered 7 on every row)."""
    gl_db.execute(f"SET batch_compiled = {batch}")
    expected = [(k,) for _, k in ROWS]
    for name in ("gl", "gl_c"):
        assert gl_db.query_all(f"SELECT {name}(id) FROM t ORDER BY id") \
            == expected


@pytest.mark.parametrize("batch", ["on", "off"])
def test_a_volatile_argument_is_drawn_before_the_body(gl_db, batch):
    """A ``random()`` argument read inside the Qf's WHERE is drawn once per
    call, not once per scanned row: every id in 1..5 exists, so no call
    answers NULL."""
    gl_db.execute(f"SET batch_compiled = {batch}")
    call = "SELECT {f}(floor(random() * 5)::int + 1)"
    for index in range(20):
        answers = [_outcome(gl_db, call.format(f=name), index)
                   for name in ("gl", "gl_c")]
        assert answers[0] == answers[1]
        assert answers[1][0][1][0][0] is not None


TW = """CREATE FUNCTION tw(a int, b int) RETURNS int AS $$
BEGIN RETURN a * 2 + a; END; $$ LANGUAGE plpgsql"""

LP = """CREATE FUNCTION lp(a int, b int) RETURNS int AS $$
DECLARE acc int := 0; i int := 0;
BEGIN
  WHILE i < 3 LOOP acc := acc + a; i := i + 1; END LOOP;
  RETURN acc;
END; $$ LANGUAGE plpgsql"""


@pytest.mark.parametrize("batch", ["on", "off"])
@pytest.mark.parametrize("source", [TW, LP], ids=["loop-free", "loop"])
def test_arguments_are_cast_to_the_declared_type(batch, source):
    """Every form casts an argument to its parameter's type before the
    body, as the interpreter does at entry: 2.6 is 3 and '12' is 12, and
    a value that does not cast raises, even for a parameter the body never
    reads (``b``)."""
    db = _database()
    db.execute(source)
    name = "tw" if "tw(" in source else "lp"
    compile_plsql(source, db).register(db, name=f"{name}_c")
    db.execute(f"SET batch_compiled = {batch}")
    expected = {"2.6, 0": 9, "'12', 0": 36, "1, 'abc'": None}
    for args, value in expected.items():
        outcomes = [_outcome(db, f"SELECT {f}({args})", 0)[0]
                    for f in (name, f"{name}_c")]
        assert outcomes[0] == outcomes[1], args
        if value is None:
            assert outcomes[0][0] == "type", outcomes
        else:
            assert outcomes[0] == ("ok", [(value,)])


FA = """CREATE FUNCTION fa(xs int[], a float4, b int2) RETURNS float AS $$
BEGIN RETURN xs[2] * b + a; END; $$ LANGUAGE plpgsql"""

SA = """CREATE FUNCTION sa(xs int[], a float4, b int2) RETURNS float AS $$
DECLARE s int := 0; e int;
BEGIN
  FOREACH e IN ARRAY xs LOOP s := s + e * b; END LOOP;
  RETURN s + a;
END; $$ LANGUAGE plpgsql"""


@pytest.mark.parametrize("batch", ["on", "off"])
@pytest.mark.parametrize("source", [FA, SA], ids=["loop-free", "loop"])
def test_array_and_alias_parameter_types_cast_in_every_form(batch, source):
    """An ``int[]`` argument casts element by element, ``float4`` is float
    and ``int2`` is int, in every form: the interpreter at entry, the
    machine's site, and the binding row of the inlined and Froid Qf."""
    db = _database()
    db.execute(source)
    name = "fa" if "fa(" in source else "sa"
    twins = [f"{name}_c"]
    compile_plsql(source, db).register(db, name=twins[0])
    if name == "fa":
        froid_compile(source, db).register(db, name=f"{name}_fr")
        twins.append(f"{name}_fr")
    db.execute(f"SET batch_compiled = {batch}")
    expected = {"fa": [(6.5, 2.0, None)], "sa": [(8.5, 4.0, 0.0)]}[name]
    literal = ("SELECT {f}(ARRAY[1, 2.6], 0.5, 2.4), "
               "{f}(ARRAY[1.6, 2], 0, 1), {f}(NULL, 0, 1)")
    column = "SELECT id, {f}(ARRAY[k, id + 0.6], id, k) FROM t ORDER BY id"
    assert db.query_all(literal.format(f=name)) == expected
    for sql in (literal, column):
        interpreted = _outcome(db, sql.format(f=name), 0)
        for twin in twins:
            assert _outcome(db, sql.format(f=twin), 0) == interpreted, twin


def test_an_unknown_parameter_type_is_refused_at_create():
    """A parameter type no cast knows would fail every call, so CREATE
    FUNCTION refuses it, as PostgreSQL does."""
    db = _database()
    with pytest.raises(SqlError, match="type 'date' does not exist"):
        db.execute("CREATE FUNCTION d(x date) RETURNS int AS $$ "
                   "BEGIN RETURN 1; END; $$ LANGUAGE plpgsql")
    assert "d" not in db.catalog.functions


def _qf_texts():
    """(origin, arity, postgres text, SQLite text or None) of every Qf of
    the demo workloads and of fuzz seed 0's generated functions."""
    db = build_demo_database(compile_functions=False).db
    sources = [(f"workload {name}", source, db)
               for name, source in WORKLOADS.items()]
    for index in range(100):
        case = generate_case(0, index)
        case_db = Database(seed=0, profile=False)
        for statement in case.setup_statements():
            case_db.execute(statement)
        for fn in case.functions:
            case_db.execute(fn.source)
        sources.extend((f"fuzz case {index} {fn.name}", fn.source, case_db)
                       for fn in case.functions)
    for origin, source, database in sources:
        try:
            compiled = compile_plsql(source, database)
        except CompileError:
            continue
        try:
            sqlite = compiled.sql("sqlite")
        except CompileError:
            sqlite = None
        yield (origin, len(compiled.param_names), compiled.sql("postgres"),
               sqlite)


def test_each_parameter_is_named_once_in_every_qf():
    checked = 0
    for origin, arity, postgres, sqlite in _qf_texts():
        expected = list(range(1, arity + 1))
        for text, mark in ((postgres, r"\$"), (sqlite, r"\?")):
            if text is not None:
                named = re.findall(mark + r"(\d+)", text)
                assert sorted(map(int, named)) == expected, origin
        checked += 1
    assert checked > 80
