"""``repro.compiler`` — compiling PL/SQL away.

The four-stage pipeline of the paper (Section 2):

====  ======================================================================
SSA   :mod:`.cfg` lowers PL/pgSQL to goto form; :mod:`.ssa` builds static
      single assignment (dominance frontiers, φ placement, renaming);
      :mod:`.optimize` runs the classic SSA cleanups.
ANF   :mod:`.anf` turns blocks into (mutually tail-recursive) functions —
      "SSA is functional programming".
UDF   :mod:`.udf` defunctionalizes to one directly tail-recursive SQL UDF
      (``fn`` dispatch, ``let`` -> LATERAL chains, ``if`` -> CASE).
SQL   :mod:`.template` plants the adapted body into the generic
      ``WITH RECURSIVE`` template (or ``WITH ITERATE``), yielding pure SQL.
====  ======================================================================

:mod:`.pipeline` drives the stages and exposes every intermediate form;
:mod:`.froid` is the loop-free Froid baseline; :mod:`.dialects` renders the
result for the two engines that run it, PostgreSQL (this engine) and SQLite3.
"""

from .pipeline import CompiledFunction, compile_plsql
from .froid import froid_compile
from .dialects import DIALECTS

__all__ = ["CompiledFunction", "compile_plsql", "froid_compile", "DIALECTS"]
