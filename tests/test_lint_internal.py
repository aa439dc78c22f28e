"""The internal lint (tools/lint_internal.py) as a tier-1 test.

Two halves: the real tree must be clean (the same gate CI runs), and the
individual rules must actually fire — exercised on synthetic modules so a
silently broken checker can't pass by matching nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import lint_internal  # noqa: E402


def lint_source(tmp_path, rel: str, source: str):
    """Run the lint rules over one synthetic file placed at *rel* under a
    fake src root, returning the findings."""
    path = tmp_path / "src" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    old_src = lint_internal.SRC
    old_repo = lint_internal.REPO
    lint_internal.SRC = tmp_path / "src"
    lint_internal.REPO = tmp_path
    try:
        return lint_internal.run([path])
    finally:
        lint_internal.SRC = old_src
        lint_internal.REPO = old_repo


def rules(findings) -> list[str]:
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# the real tree is clean
# ---------------------------------------------------------------------------

def test_repository_is_lint_clean():
    findings = lint_internal.run()
    assert findings == [], "\n".join(str(f) for f in findings)


def test_declared_counters_includes_known_names():
    declared = lint_internal.declared_counters()
    assert "PLAN_CACHE_HIT" in declared
    assert "FUZZ_ANALYZER_CHECKS" in declared


# ---------------------------------------------------------------------------
# rule 1: cancellation polling
# ---------------------------------------------------------------------------

UNPOLLED_LOOP = """
def next(self):
    while True:
        row = self.child.next()
        if row is None:
            return None
"""

POLLED_LOOP = """
def next(self):
    while True:
        cancel.check()
        row = self.child.next()
        if row is None:
            return None
"""

ANNOTATED_LOOP = """
def next(self):
    while True:  # lint: bounded
        row = self.child.next()
        if row is None:
            return None
"""

ANNOTATED_ABOVE = """
def next(self):
    # lint: bounded
    while True:
        row = self.child.next()
        if row is None:
            return None
"""


def test_unpolled_loop_in_executor_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/executor/fake.py",
                           UNPOLLED_LOOP)
    assert rules(findings) == ["cancel-poll"]


def test_polled_loop_is_clean(tmp_path):
    assert lint_source(tmp_path, "repro/sql/executor/fake.py",
                       POLLED_LOOP) == []


def test_bounded_annotation_suppresses(tmp_path):
    assert lint_source(tmp_path, "repro/sql/executor/fake.py",
                       ANNOTATED_LOOP) == []
    assert lint_source(tmp_path, "repro/sql/executor/fake.py",
                       ANNOTATED_ABOVE) == []


def test_isinstance_condition_is_structural(tmp_path):
    source = """
def walk(node):
    while isinstance(node, Let):
        node = node.body
"""
    assert lint_source(tmp_path, "repro/sql/executor/fake.py", source) == []


def test_the_modify_nodes_are_a_hot_module(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/executor/modify.py",
                           UNPOLLED_LOOP)
    assert rules(findings) == ["cancel-poll"]


def test_loops_outside_hot_modules_are_ignored(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/parser_helper.py",
                           UNPOLLED_LOOP)
    assert findings == []


# ---------------------------------------------------------------------------
# rule 2: bare except
# ---------------------------------------------------------------------------

def test_bare_except_is_flagged(tmp_path):
    source = """
try:
    risky()
except:
    pass
"""
    findings = lint_source(tmp_path, "repro/sql/anywhere.py", source)
    assert rules(findings) == ["bare-except"]


def test_typed_except_is_clean(tmp_path):
    source = """
try:
    risky()
except Exception:
    pass
"""
    assert lint_source(tmp_path, "repro/sql/anywhere.py", source) == []


# ---------------------------------------------------------------------------
# rule 3: profiler counters
# ---------------------------------------------------------------------------

def test_string_literal_counter_is_flagged(tmp_path):
    source = """
profiler.bump("plan cache hit")
"""
    findings = lint_source(tmp_path, "repro/sql/anywhere.py", source)
    assert rules(findings) == ["counter-literal"]


def test_unimported_constant_is_flagged(tmp_path):
    source = """
profiler.bump(SOME_COUNTER)
"""
    findings = lint_source(tmp_path, "repro/sql/anywhere.py", source)
    assert rules(findings) == ["counter-unimported"]


def test_imported_but_undeclared_counter_is_flagged(tmp_path):
    source = """
from repro.sql.profiler import TOTALLY_MADE_UP
profiler.bump(TOTALLY_MADE_UP)
"""
    findings = lint_source(tmp_path, "repro/sql/anywhere.py", source)
    assert rules(findings) == ["counter-undeclared"]


def test_imported_declared_counter_is_clean(tmp_path):
    source = """
from repro.sql.profiler import PLAN_CACHE_HIT
profiler.bump(PLAN_CACHE_HIT)
"""
    assert lint_source(tmp_path, "repro/sql/anywhere.py", source) == []


# ---------------------------------------------------------------------------
# rule 4: one expression compiler
# ---------------------------------------------------------------------------

SECOND_COMPILER = """
class VectorExprCompiler:
    def _compile_BinaryOp(self, expr):
        return None

    def _compile_order_keys(self, order_by):
        return None
"""


def test_compile_node_method_outside_expr_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/executor/vector.py",
                           SECOND_COMPILER)
    assert rules(findings) == ["second-compiler"]  # not _compile_order_keys
    assert "_compile_BinaryOp" in findings[0].message


def test_compile_node_method_in_expr_is_clean(tmp_path):
    assert lint_source(tmp_path, "repro/sql/expr.py", SECOND_COMPILER) == []


def test_expr_node_names_come_from_the_ast_module():
    names = lint_internal.expr_node_names()
    assert {"BinaryOp", "FuncCall", "ScalarSubquery"} <= names
    assert "SelectStmt" not in names and "Expr" not in names


# ---------------------------------------------------------------------------
# rule 5: one AST traversal
# ---------------------------------------------------------------------------

SECOND_TRAVERSAL = """
import dataclasses
from dataclasses import dataclass, field, is_dataclass

@dataclass
class Note:
    tags: list = field(default_factory=list)

def children(node):
    if is_dataclass(node):
        return [getattr(node, f.name) for f in dataclasses.fields(node)]
    return []

def retag(node, text):
    return dataclasses.replace(node, name=text.replace("a", "b"))
"""


def test_hand_written_traversal_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/compiler/rename.py",
                           SECOND_TRAVERSAL)
    # is_dataclass, dataclasses.fields, dataclasses.replace - not
    # @dataclass, field() or str.replace.
    assert rules(findings) == ["second-traversal"] * 3
    assert sorted(f.line for f in findings) == [10, 11, 15]


def test_traversal_calls_allowed_in_astutil_and_outside_the_ast_packages(
        tmp_path):
    assert lint_source(tmp_path, "repro/sql/astutil.py",
                       SECOND_TRAVERSAL) == []
    assert lint_source(tmp_path, "repro/fuzz/reduce.py",
                       SECOND_TRAVERSAL) == []


# ---------------------------------------------------------------------------
# rule 6: one settings store
# ---------------------------------------------------------------------------

SECOND_STORE = """
class Planner:
    def __init__(self, db):
        self.db = db
        self.enable_topn = True
        self.hits, self.max_udf_depth = 0, 192
        self.enable_topn_seen = False

    @property
    def statement_timeout(self):
        return self.db.settings.active.statement_timeout

def poke(db):
    db.plan_cache_size += 1
    db.settings.assign("enable_hashjoin", False)
"""


def test_setting_attribute_outside_the_store_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/planner.py", SECOND_STORE)
    assert rules(findings) == ["second-store"] * 4
    assert sorted(f.line for f in findings) == [5, 6, 10, 14]


def test_settings_module_and_the_documented_property_are_exempt(tmp_path):
    assert lint_source(tmp_path, "repro/sql/settings.py", SECOND_STORE) == []
    source = """
class Database:
    @property
    def wal_checkpoint_interval(self):
        return self.settings.active.wal_checkpoint_interval

    @wal_checkpoint_interval.setter
    def wal_checkpoint_interval(self, value):
        self.settings.assign("wal_checkpoint_interval", value)
"""
    assert lint_source(tmp_path, "repro/sql/engine.py", source) == []
    assert rules(lint_source(tmp_path, "repro/sql/wal.py", source)) \
        == ["second-store"] * 2


def test_setting_names_come_from_the_declarations():
    from repro.sql.settings import SETTINGS
    assert lint_internal.setting_names() == {s.name for s in SETTINGS}


# ---------------------------------------------------------------------------
# rule 7: one statement table
# ---------------------------------------------------------------------------

SECOND_STATEMENT_LIST = """
from . import ast as A
from .ast import CommitStmt, Delete

TAGS = {A.BeginStmt: "BEGIN", CommitStmt: "COMMIT", A.RollbackStmt: "ROLLBACK"}
PREPARABLE = (A.SelectStmt, A.Insert, A.Update, Delete)
PAIR = (A.Insert, A.Update, A.Literal)

def dispatch(self, stmt):
    if isinstance(stmt, A.SelectStmt):
        return self.select(stmt)
    if isinstance(stmt, A.Insert):
        return self.insert(stmt)
    elif isinstance(stmt, A.Update):
        return self.update(stmt)
    raise ValueError(stmt)

def special_cases(self, stmt):
    while isinstance(stmt, A.ExplainStmt):
        stmt = stmt.statement
    if isinstance(stmt, A.SelectStmt):
        return self.plan(stmt)
    if isinstance(stmt, A.ExecuteStmt):
        return self.lookup(stmt)
    if isinstance(stmt, A.Literal):
        return None
    try:
        return self.other(stmt)
    except ValueError:
        if isinstance(stmt, Delete):
            return None
        elif isinstance(stmt, A.Update):
            return None
        elif isinstance(stmt, A.Insert):
            return None
        elif isinstance(stmt, A.DropTable):
            return None
"""


def test_second_listing_of_statement_kinds_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/engine.py",
                           SECOND_STATEMENT_LIST)
    assert rules(findings) == ["second-statement-list"] * 4
    assert sorted(f.line for f in findings) == [5, 6, 10, 30]
    assert "4 isinstance arms" in max(findings, key=lambda f: f.line).message


def test_the_statement_table_module_is_exempt(tmp_path):
    assert lint_source(tmp_path, "repro/sql/ast.py",
                       SECOND_STATEMENT_LIST) == []


def test_statement_class_names_come_from_the_table():
    from repro.sql import ast as A
    assert lint_internal.statement_class_names() \
        == {node.__name__ for node in A.STATEMENTS}


# ---------------------------------------------------------------------------
# rule 8: one WHERE evaluator
# ---------------------------------------------------------------------------

SECOND_EVALUATOR_ENGINE = """
class Database:
    def _eval_standalone(self, exprs, params):
        compiler = ExprCompiler(Scope([]), self.planner)
        return [compiler.compile(e) for e in exprs]

    def _table_predicate(self, table, where):
        compiler = ExprCompiler(Scope([table]), self.planner)
        return compiler.compile(where)
"""

SECOND_EVALUATOR_STORAGE = """
class SortedIndex:
    def remove_if(self, predicate):
        pass

class HeapTable:
    def delete_versions(self, versions):
        pass

    def delete_where(self, predicate):
        pass

    def update_where(self, check, *, updater):
        pass
"""


def test_expression_compiler_in_the_engine_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/engine.py",
                           SECOND_EVALUATOR_ENGINE)
    assert rules(findings) == ["second-evaluator"]
    assert findings[0].line == 8
    assert lint_source(tmp_path, "repro/sql/planner.py",
                       SECOND_EVALUATOR_ENGINE) == []


def test_heap_method_taking_a_callable_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/storage.py",
                           SECOND_EVALUATOR_STORAGE)
    assert rules(findings) == ["second-evaluator"] * 2
    assert [f.line for f in findings] == [10, 13]


# ---------------------------------------------------------------------------
# rule 9: one ANF traversal
# ---------------------------------------------------------------------------

SECOND_ANF_TRAVERSAL = """
from . import anf
from .anf import AnfCall, AnfLet, fold

def size(expr):
    if isinstance(expr, AnfLet):
        return 1 + size(expr.body)
    if isinstance(expr, (anf.AnfIf, int)):
        return 1
    return 0

def is_tail(expr):
    return isinstance(expr, AnfCall | anf.AnfRet)
"""

ANF_FOLD = """
from .anf import fold

def tails(expr):
    return fold(expr, let=lambda node, body: body,
                if_=lambda node, then, else_: then + else_,
                call=lambda node: [node], ret=lambda node: [node])
"""


def test_anf_kind_test_outside_anf_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/compiler/template.py",
                           SECOND_ANF_TRAVERSAL)
    assert rules(findings) == ["second-anf-traversal"] * 3
    assert [f.line for f in findings] == [6, 8, 13]


def test_anf_module_and_fold_callbacks_are_clean(tmp_path):
    assert lint_source(tmp_path, "repro/compiler/anf.py",
                       SECOND_ANF_TRAVERSAL) == []
    assert lint_source(tmp_path, "repro/compiler/udf.py", ANF_FOLD) == []


def test_main_exit_status(tmp_path, capsys):
    assert lint_internal.main() == 0
    out = capsys.readouterr().out
    assert "files clean" in out


def test_syntax_error_is_reported_not_raised(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/broken.py", "def f(:\n")
    assert rules(findings) == ["syntax"]
