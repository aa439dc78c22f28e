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

from .sql import Database, Result, Row

__version__ = "1.0.0"

__all__ = ["Database", "Result", "Row", "CompiledFunction", "compile_plsql",
           "froid_compile", "DIALECTS", "__version__"]

#: Names resolved on first access (PEP 562), so ``import repro.sql`` does
#: not load the compiler, the PL/pgSQL interpreter or the analyzer.
_COMPILER_NAMES = ("compile_plsql", "CompiledFunction", "froid_compile",
                   "DIALECTS")


def __getattr__(name: str):
    if name in _COMPILER_NAMES:
        from . import compiler
        value = globals()[name] = getattr(compiler, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
