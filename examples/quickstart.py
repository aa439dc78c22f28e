"""Quickstart: compile a PL/pgSQL function away, end to end.

Run:  python examples/quickstart.py

Shows the full Figure-4 pipeline on a small iterative function: the goto
CFG, SSA, ANF, the flattened recursive UDF, and the final WITH RECURSIVE
query — then registers both variants and compares results and plan counts.
Finishes with the sessionful client surface: ``connect()``, cursors,
prepared statements, and SET/SHOW settings next to the legacy facade.
"""

from repro.compiler import compile_plsql
from repro.sql import Database

SOURCE = """
CREATE FUNCTION gcd(a int, b int) RETURNS int AS $$
DECLARE t int;
BEGIN
  WHILE b <> 0 LOOP
    t = b;
    b = a % b;
    a = t;
  END LOOP;
  RETURN a;
END;
$$ LANGUAGE plpgsql
"""


def main() -> None:
    db = Database()
    db.execute(SOURCE)                      # interpreted PL/pgSQL
    compiled = compile_plsql(SOURCE, db)    # ... compiled away
    compiled.register(db, name="gcd_c")

    print(compiled.explain())               # every intermediate form

    print("\nResults (interpreted vs compiled):")
    for a, b in ((12, 18), (48, 36), (17, 5), (0, 9)):
        interp = db.query_value("SELECT gcd($1, $2)", [a, b])
        comp = db.query_value("SELECT gcd_c($1, $2)", [a, b])
        print(f"  gcd({a:>2},{b:>2}) = {interp:>2}  |  compiled: {comp:>2}")
        assert interp == comp

    # The punchline: calling the compiled function from a query needs no
    # context switches at all.
    db.execute("CREATE TABLE pairs(a int, b int)")
    db.execute("INSERT INTO pairs VALUES (12, 18), (100, 75), (7, 13)")
    db.profiler.reset()
    db.query_all("SELECT gcd(a, b) FROM pairs")
    interp_switches = db.profiler.counts["switch Q->f"]
    db.profiler.reset()
    db.query_all("SELECT gcd_c(a, b) FROM pairs")
    compiled_switches = db.profiler.counts["switch Q->f"]
    print(f"\nQ->f context switches over 3 rows: "
          f"interpreted={interp_switches}, compiled={compiled_switches}")

    session_tour(db)


def session_tour(db) -> None:
    """The sessionful surface next to the legacy ``db.execute`` facade:
    connect() -> Connection -> Cursor, prepared statements, SET/SHOW."""
    print("\n-- session surface " + "-" * 40)
    conn = db.connect()

    # PEP-249-style cursor; executemany plans once and runs per parameter set.
    cur = conn.cursor()
    cur.executemany("INSERT INTO pairs VALUES ($1, $2)",
                    [(21, 14), (9, 6), (25, 15)])
    print(f"executemany inserted {cur.rowcount} rows with one plan")
    cur.execute("SELECT a, b FROM pairs ORDER BY a LIMIT 3")
    print("columns:", [col[0] for col in cur.description])
    for a, b in cur:
        print(f"  pair({a}, {b})")

    # Prepared statements: parsed and planned once, executed many times.
    ps = conn.prepare("SELECT gcd_c(a, b) FROM pairs WHERE a = $1")
    db.profiler.reset()
    results = [ps.execute([a]).scalar() for a in (21, 9, 25)]
    print(f"prepared gcd_c over 3 point queries -> {results} "
          f"({db.profiler.counts['plan cache miss']} plan-cache misses, "
          f"{db.profiler.counts['prepared executions']} prepared runs)")

    # Declarative settings: session-scoped on a connection, validated,
    # and plan-affecting changes invalidate cached plans automatically.
    conn.execute("SET batch_compiled = off")
    print("session batch_compiled:",
          conn.execute("SHOW batch_compiled").scalar(),
          "| global:", db.execute("SHOW batch_compiled").scalar())
    conn.execute("RESET batch_compiled")


if __name__ == "__main__":
    main()
