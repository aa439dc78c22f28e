"""Delta-debugging reduction of failing fuzz cases.

Given a case on which the checker reports a discrepancy, the reducer
shrinks the (schema, data, statements) triple while the discrepancy keeps
reproducing: first the checked queries and modifications (classic ddmin
each), then unreferenced functions, whole tables, indexes, table rows
(ddmin again), and finally individual columns.  Every candidate is
re-checked from scratch — a candidate that errors uniformly under all
configurations counts as agreement and is rejected, which is what keeps
e.g. a column a query still references from being dropped.

The result is emitted as a ready-to-paste pytest regression: the minimized
:class:`~repro.fuzz.querygen.Case` as a literal, plus an assertion that the
checker finds nothing — so the regression re-runs the *whole* oracle
matrix, not just the pair of configurations that originally disagreed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from .oracle import Discrepancy
from .querygen import Case
from .schema import TableSpec


def ddmin(items: list, predicate: Callable[[list], bool]) -> list:
    """Zeller's ddmin: a minimal sublist of *items* still satisfying
    *predicate* (which must hold for *items* itself).  Deterministic;
    granularity doubles on failure and resets after every successful
    reduction."""
    n = 2
    while len(items) >= 2:
        chunk = max(len(items) // n, 1)
        subsets = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            if predicate(subset):
                items = subset
                n = 2
                reduced = True
                break
            complement = [x for j, s in enumerate(subsets) if j != i
                          for x in s]
            if complement and predicate(complement):
                items = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(n * 2, len(items))
    return items


class Reducer:
    """Shrinks a failing case under a bounded number of oracle re-checks.

    *check* maps a case to its discrepancy list (normally
    ``DifferentialChecker.check_case``); *max_checks* caps the total
    re-checks so reduction cost stays bounded — when the budget runs out
    the best case found so far is returned.
    """

    def __init__(self, check: Callable[[Case], list],
                 max_checks: int = 400):
        self.check = check
        self.max_checks = max_checks
        self.checks_spent = 0

    # -- predicate ------------------------------------------------------

    def _fails(self, case: Case) -> bool:
        if self.checks_spent >= self.max_checks:
            return False
        self.checks_spent += 1
        try:
            return bool(self.check(case))
        except Exception:
            # A candidate that breaks the harness itself is not a valid
            # reduction step (the discrepancy did not "still reproduce").
            return False

    # -- structural edits ----------------------------------------------

    @staticmethod
    def _drop_table(case: Case, name: str) -> Case:
        tables = tuple(t for t in case.schema.tables if t.name != name)
        data = {k: v for k, v in case.data.items() if k != name}
        return replace(case, schema=replace(case.schema, tables=tables),
                       data=data)

    @staticmethod
    def _drop_index(case: Case, table_name: str, index_name: str) -> Case:
        tables = tuple(
            replace(t, indexes=tuple(ix for ix in t.indexes
                                     if ix.name != index_name))
            if t.name == table_name else t
            for t in case.schema.tables)
        return replace(case, schema=replace(case.schema, tables=tables))

    @staticmethod
    def _drop_column(case: Case, table: TableSpec, position: int) -> Case:
        column = table.columns[position]
        columns = tuple(c for i, c in enumerate(table.columns)
                        if i != position)
        indexes = tuple(ix for ix in table.indexes
                        if all(name != column.name
                               for name, _ in ix.columns))
        new_table = replace(table, columns=columns, indexes=indexes)
        tables = tuple(new_table if t.name == table.name else t
                       for t in case.schema.tables)
        rows = [tuple(v for i, v in enumerate(row) if i != position)
                for row in case.data.get(table.name, [])]
        data = dict(case.data)
        data[table.name] = rows
        return replace(case, schema=replace(case.schema, tables=tables),
                       data=data)

    # -- the passes -----------------------------------------------------

    def reduce(self, case: Case) -> Case:
        """Shrink *case*; the discrepancy must reproduce on entry."""
        if not self._fails(case):
            return case
        for _ in range(3):              # fixpoint over all passes
            before = case.statement_count()
            case = self._reduce_queries(case)
            case = self._reduce_functions(case)
            case = self._reduce_tables(case)
            case = self._reduce_indexes(case)
            case = self._reduce_rows(case)
            case = self._reduce_columns(case)
            if case.statement_count() >= before:
                break
        return case

    def _reduce_queries(self, case: Case) -> Case:
        for field in ("queries", "modifications"):
            def keeping(statements: list) -> Case:
                return replace(case, **{field: tuple(statements)})

            # ddmin keeps at least one; a discrepancy in a modification
            # needs no query at all, and the other way round.
            kept = [] if self._fails(keeping([])) else ddmin(
                list(getattr(case, field)),
                lambda statements: self._fails(keeping(statements)))
            case = keeping(kept)
        return case

    def _reduce_functions(self, case: Case) -> Case:
        for fn in list(case.functions):
            candidate = replace(case, functions=tuple(
                f for f in case.functions if f.name != fn.name))
            if self._fails(candidate):
                case = candidate
        return case

    def _reduce_tables(self, case: Case) -> Case:
        for table in list(case.schema.tables):
            if len(case.schema.tables) == 1:
                break
            candidate = self._drop_table(case, table.name)
            if self._fails(candidate):
                case = candidate
        return case

    def _reduce_indexes(self, case: Case) -> Case:
        for table in case.schema.tables:
            for index in list(table.indexes):
                candidate = self._drop_index(case, table.name, index.name)
                if self._fails(candidate):
                    case = candidate
        return case

    def _reduce_rows(self, case: Case) -> Case:
        for table in case.schema.tables:
            rows = case.data.get(table.name, [])
            if len(rows) < 2:
                continue

            def with_rows(new_rows: list) -> Case:
                data = dict(case.data)
                data[table.name] = list(new_rows)
                return replace(case, data=data)

            kept = ddmin(list(rows),
                         lambda rs: self._fails(with_rows(rs)))
            case = with_rows(kept)
        return case

    def _reduce_columns(self, case: Case) -> Case:
        for table in case.schema.tables:
            for column in list(table.columns):
                current = next(t for t in case.schema.tables
                               if t.name == table.name)
                if len(current.columns) == 1:
                    break
                position = next(
                    (i for i, c in enumerate(current.columns)
                     if c.name == column.name), None)
                if position is None:
                    continue
                candidate = self._drop_column(case, current, position)
                if self._fails(candidate):
                    case = candidate
        return case


# ---------------------------------------------------------------------------
# Regression emission
# ---------------------------------------------------------------------------


def emit_pytest(case: Case, discrepancies: list[Discrepancy],
                test_name: Optional[str] = None) -> str:
    """Render a self-contained pytest module reproducing *case*.

    The module re-asserts the full oracle sweep (``check_case`` must come
    back empty), so the regression holds even if the original pair of
    disagreeing configurations later changes its name or defaults.
    Boundary floats repr as ``inf``/``nan``, hence the math import.
    """
    name = test_name or f"test_fuzz_case_{case.seed}"
    summary_lines = []
    for d in discrepancies[:3]:
        summary_lines.append(f"  [{d.kind}] {d.sql}")
        summary_lines.append(f"    {d.config_a}: {d.outcome_a.describe()}")
        summary_lines.append(f"    {d.config_b}: {d.outcome_b.describe()}")
    summary = "\n".join(summary_lines) or "  (discrepancy details omitted)"
    script = "\n".join("-- " + line if line and not line.startswith("--")
                       else line
                       for line in case.script().strip().splitlines())
    return f'''"""Fuzz regression: minimized reproducer for case seed {case.seed}.

Original discrepancy:
{summary}

Case as SQL (data loads through parameter binding):
{script}
"""

from math import inf, nan  # noqa: F401 — boundary values in the case repr

from repro.fuzz.oracle import DifferentialChecker
from repro.fuzz.querygen import Case, FunctionSpec, Modification, Query
from repro.fuzz.schema import ColumnSpec, IndexSpec, SchemaSpec, TableSpec

CASE = {case!r}


def {name}():
    discrepancies = DifferentialChecker().check_case(CASE)
    assert discrepancies == [], "\\n".join(
        d.describe() for d in discrepancies)
'''
