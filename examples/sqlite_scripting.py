"""PL/SQL for engines that have none: run compiled functions on real SQLite.

Run:  python examples/sqlite_scripting.py

The paper (Section 3): "SQLite3 lacks support for LATERAL, but a simple
syntactic rewrite brought the functions to run on a system that formerly
lacked any support for PL/SQL at all."  This example compiles PL/pgSQL
functions with the LATERAL-free rewrite and executes the emitted SQL on
Python's built-in sqlite3 — an actual foreign engine.
"""

import sqlite3

from repro.compiler import compile_plsql
from repro.sql import Database
from repro.workloads import make_parseable_input, setup_parser
from repro.workloads.fibonacci import FIBONACCI_SOURCE
from repro.workloads.parser_fsm import PARSE_SOURCE


def main() -> None:
    db = Database()
    fsm = setup_parser(db)

    fib = compile_plsql(FIBONACCI_SOURCE, db)
    parse = compile_plsql(PARSE_SOURCE, db)

    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE fsm(source int, symbol text, target int)")
    connection.execute("CREATE TABLE fsm_accept(state int, is_final bool)")
    connection.executemany("INSERT INTO fsm VALUES (?, ?, ?)",
                           db.query_all("SELECT * FROM fsm"))
    connection.executemany("INSERT INTO fsm_accept VALUES (?, ?)",
                           db.query_all("SELECT * FROM fsm_accept"))

    fib_sql = fib.sql("sqlite")
    print("fibonacci() as pure SQLite SQL (excerpt):")
    print("\n".join(fib_sql.splitlines()[:6]))
    print("  ...\n")
    print("fibonacci on SQLite:",
          [connection.execute(fib_sql, {"1": n}).fetchone()[0]
           for n in range(11)])

    parse_sql = parse.sql("sqlite")
    sample = make_parseable_input(24, seed=3)
    accepted = connection.execute(parse_sql, {"1": sample}).fetchone()[0]
    rejected = connection.execute(parse_sql, {"1": "12,x"}).fetchone()[0]
    print(f"\nparse({sample!r}) on SQLite -> {accepted} "
          f"(oracle: {fsm.run(sample)})")
    print(f"parse('12,x') on SQLite -> {rejected} "
          f"(oracle: {fsm.run('12,x')})")


if __name__ == "__main__":
    main()
