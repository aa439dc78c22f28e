"""repro — a reproduction of "Compiling PL/SQL Away" (CIDR 2020).

Public API:

>>> from repro import Database, compile_plsql
>>> db = Database()
>>> src = '''CREATE FUNCTION triple(n int) RETURNS int AS $$
...   BEGIN RETURN 3 * n; END; $$ LANGUAGE plpgsql'''
>>> compiled = compile_plsql(src, db)
>>> _ = compiled.register(db)
>>> db.query_value("SELECT triple(14)")
42
"""

from .compiler import DIALECTS, CompiledFunction, compile_plsql, froid_compile
from .sql import Database, Result, Row

__version__ = "1.0.0"

__all__ = ["Database", "Result", "Row", "CompiledFunction", "compile_plsql",
           "froid_compile", "DIALECTS", "__version__"]
