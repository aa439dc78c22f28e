"""Differential fuzzing for the SQL/PL-SQL engine.

The engine now carries four interacting execution strategies (interpreted
PL/pgSQL, scalar compiled UDFs, batched trampolines, and a planner with a
settings matrix of access paths); their agreement surface is far larger
than hand-written differential tests can cover.  This package generates
that coverage:

* :mod:`repro.fuzz.schema` / :mod:`repro.fuzz.datagen` — seeded random
  schemas and boundary-heavy table contents, byte-reproducible from a
  single seed,
* :mod:`repro.fuzz.querygen` — grammar-driven SELECTs and loop-bearing
  PL/pgSQL functions in the paper's workload shapes,
* :mod:`repro.fuzz.oracle` — the multi-oracle checker (engine settings
  matrix x interpreted/compiled/batched UDF paths, plus a SQLite
  cross-check) and the shared :func:`~repro.fuzz.oracle.rows_equal`
  comparison,
* :mod:`repro.fuzz.reduce` — a delta-debugging reducer that shrinks a
  failing case to a minimal reproducer and emits it as a pytest module.

Quickstart::

    python -m repro.fuzz --seed 0 --cases 200

"""

from .oracle import (DifferentialChecker, Discrepancy, Outcome,
                     TxnDiscrepancy, check_txn_case, rows_equal,
                     run_statement, settings_matrix)
from .querygen import (Case, FunctionSpec, Modification, Query, case_seed,
                       generate_case)
from .reduce import Reducer, ddmin, emit_pytest
from .schema import SchemaSpec, TableSpec, generate_schema
from .txngen import TxnCase, TxnStep, generate_txn_case

__all__ = [
    "Case", "DifferentialChecker", "Discrepancy", "FunctionSpec",
    "Modification", "Outcome", "Query", "Reducer", "SchemaSpec", "TableSpec", "TxnCase",
    "TxnDiscrepancy", "TxnStep", "case_seed", "check_txn_case", "ddmin",
    "emit_pytest", "generate_case", "generate_schema", "generate_txn_case",
    "rows_equal", "run_statement", "settings_matrix",
]
