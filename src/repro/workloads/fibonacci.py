"""``fibonacci()`` — iterative, query-free Fibonacci (Table 1, row 4).

The function evaluates arithmetic only; the interpreter's *simple
expression* fast path applies, so its Table 1 profile shows zero
Exec·Start/Exec·End — "compiling PL/SQL away does not promise much in this
case" (but it still works, and the compiled form enables deep iteration
without interpreter dispatch).
"""

from __future__ import annotations

from ..sql.engine import Database

FIBONACCI_SOURCE = """
CREATE FUNCTION fibonacci(n int) RETURNS int AS $$
DECLARE
  a int = 0;
  b int = 1;
  t int;
BEGIN
  FOR i IN 1..n LOOP
    t = a + b;
    a = b;
    b = t;
  END LOOP;
  RETURN a;
END;
$$ LANGUAGE PLPGSQL
"""


def fibonacci_reference(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def setup_fibonacci(db: Database) -> None:
    db.execute(FIBONACCI_SOURCE)
