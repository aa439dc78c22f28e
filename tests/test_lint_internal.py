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


# ---------------------------------------------------------------------------
# rule 10: one name resolver
# ---------------------------------------------------------------------------

SECOND_RESOLVER = """
def unknown_tables(select, catalog):
    return [ref.name for ref in select.from_items
            if catalog.tables.get(ref.name) is None]

def has_column(catalog, table, column):
    return column in catalog.get_table(table).column_names
"""

PLANNER_RESOLVER = """
from ..sql.expr import ExprCompiler

def planning_error(db, scope, expr):
    try:
        ExprCompiler(scope, db.planner).compile(expr)
    except Exception as exc:
        return exc
    return None
"""


def test_schema_read_in_the_analyzer_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/analysis/sqlcheck.py",
                           SECOND_RESOLVER)
    assert rules(findings) == ["second-resolver"] * 3
    assert sorted(f.line for f in findings) == [4, 7, 7]


def test_planner_resolution_and_schema_reads_elsewhere_are_clean(tmp_path):
    assert lint_source(tmp_path, "repro/analysis/sqlcheck.py",
                       PLANNER_RESOLVER) == []
    assert lint_source(tmp_path, "repro/sql/planner.py",
                       SECOND_RESOLVER) == []


FROM_SCOPE_WALK = """
def shadowed_columns(core, catalog):
    ref = core.from_clause
    if ref.column_aliases:
        return set(ref.column_aliases)
    return set(catalog.tables[ref.name].column_names)
"""

PLANNED_CONFLICT_CHECK = """
from ..analysis.sqlcheck import resolver

def refuse_conflicts(cfg, db):
    resolve = resolver(db, cfg.variables())
    return [resolve(expr)[1] for expr in cfg.exprs()]
"""


def test_from_scope_walk_in_the_compiler_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/compiler/rename.py",
                           FROM_SCOPE_WALK)
    assert rules(findings) == ["second-resolver"] * 3
    assert sorted(f.line for f in findings) == [3, 4, 5]


def test_planned_check_and_the_renderer_are_clean(tmp_path):
    assert lint_source(tmp_path, "repro/compiler/pipeline.py",
                       PLANNED_CONFLICT_CHECK) == []
    assert lint_source(tmp_path, "repro/compiler/dialects.py",
                       FROM_SCOPE_WALK) == []


# The parameter binder ``Database.sql_function_body`` used before SQL
# function bodies were bound by resolution: a parameter won over a FROM
# column of its name.
SPELLED_BINDER = """
from .astutil import transform_select

def sql_function_body(self, fdef, stmt):
    mapping = {name.lower(): index + 1
               for index, name in enumerate(fdef.param_names)}

    def bind(expr):
        if isinstance(expr, A.ColumnRef) and len(expr.parts) == 1:
            index = mapping.get(expr.parts[0].lower())
            if index is not None:
                return A.Param(index)
        return None

    return transform_select(stmt, bind)
"""

SPELLED_RENAMES = """
def rename(node, versions):
    if len(node.parts) == 1:
        name = node.parts[0].lower()
        return A.ColumnRef((versions[name],))
    return (versions[node.parts[0]]
            if isinstance(node, A.ColumnRef) and len(node.parts) == 1
            else node)
"""

RESOLVED_BINDER = """
def sql_function_body(self, fdef, stmt):
    params = Scope([Relation("__params", list(fdef.param_names))])
    bound = {}

    def bind(_rel, col, ref):
        bound[id(ref)] = A.Param(col + 1)

    with params.observe(bind):
        self.planner.plan_select(stmt, outer_scope=params)
    return transform_select(stmt, lambda expr: bound.get(id(expr)))

def copies(program, subst):
    for stmt in program.stmts:
        expr = stmt.expr
        if len(expr.parts) == 1 and expr.parts[0] in program.var_types:
            subst[stmt.target] = expr
"""


def test_bare_name_lookup_outside_the_planner_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/engine.py", SPELLED_BINDER)
    assert rules(findings) == ["second-resolver"]
    assert [f.line for f in findings] == [10]
    findings = lint_source(tmp_path, "repro/compiler/ssa.py",
                           SPELLED_RENAMES)
    assert rules(findings) == ["second-resolver"] * 2
    assert sorted(f.line for f in findings) == [5, 6]


def test_resolved_binding_and_the_planner_are_clean(tmp_path):
    assert lint_source(tmp_path, "repro/sql/engine.py",
                       RESOLVED_BINDER) == []
    for module in sorted(lint_internal.SPELLING_LOOKUPS):
        assert lint_source(tmp_path, module, SPELLED_RENAMES) == []


# ---------------------------------------------------------------------------
# rule 11: one argument binder
# ---------------------------------------------------------------------------

SECOND_BINDER = """
from ..sql import ast as A
from ..sql.ast import Param
from .rename import rename_variables

def bind_params(udf, expr):
    holes = {name: A.Param(index + 1)
             for index, name in enumerate(udf.params)}
    return rename_variables(expr, holes.get)

def first_hole():
    return Param(1)
"""

ONE_BINDER = """
from ..sql import ast as A

def bind_arguments(udf, body):
    row = [A.SelectItem(A.Param(index), alias=name)
           for index, name in enumerate(udf.params, start=1)]
    return A.SelectStmt(None, A.SelectCore(items=[A.SelectItem(body)],
                                           from_clause=row))
"""


def test_param_built_outside_the_binder_is_flagged(tmp_path):
    findings = lint_source(tmp_path, "repro/compiler/template.py",
                           SECOND_BINDER)
    assert rules(findings) == ["second-binder"] * 2
    assert sorted(f.line for f in findings) == [7, 12]
    assert rules(lint_source(tmp_path, "repro/compiler/inline.py",
                             ONE_BINDER)) == ["second-binder"]


def test_the_binder_and_params_outside_the_compiler_are_clean(tmp_path):
    module, binder = lint_internal.ARGUMENT_BINDER
    assert lint_source(tmp_path, module,
                       ONE_BINDER.replace("bind_arguments", binder)) == []
    assert lint_source(tmp_path, "repro/sql/parser.py", SECOND_BINDER) == []


# ---------------------------------------------------------------------------
# rule 12: the planner reads no parameter's value
# ---------------------------------------------------------------------------

GUARDED_READS = """
from . import ast as A

NOT_CONSTANT = object()


class Planner:
    def constant(self, expr):
        return expr.value if type(expr) is A.Literal else NOT_CONSTANT

    def _topn_shown(self, limit):
        count = self.constant(limit)
        return str(count) if type(count) is int else "?"


def _display_expr(expr):
    return repr(expr.value) if isinstance(expr, A.Literal) else "<expr>"
"""

UNGUARDED_READ = GUARDED_READS.replace(
    "count = self.constant(limit)",
    "count = limit.value if type(limit) is A.Literal else None")


def test_a_value_read_outside_constant_is_flagged(tmp_path):
    findings = lint_source(tmp_path, lint_internal.PLANNER, UNGUARDED_READ)
    assert rules(findings) == ["second-constant-reader"]
    assert findings[0].line == 12


@pytest.mark.parametrize("read", ["self.db.params[limit.index - 1]",
                                  "self.statement.literals[0]"])
def test_a_parameter_value_read_is_flagged(tmp_path, read):
    reads_parameter = GUARDED_READS.replace("self.constant(limit)", read)
    assert rules(lint_source(tmp_path, lint_internal.PLANNER,
                             reads_parameter)) == ["second-constant-reader"]


def test_constant_and_other_modules_are_clean(tmp_path):
    assert lint_source(tmp_path, lint_internal.PLANNER, GUARDED_READS) == []
    assert lint_source(tmp_path, "repro/sql/expr.py", UNGUARDED_READ) == []


def test_main_exit_status(tmp_path, capsys):
    assert lint_internal.main() == 0
    out = capsys.readouterr().out
    assert "files clean" in out


def test_syntax_error_is_reported_not_raised(tmp_path):
    findings = lint_source(tmp_path, "repro/sql/broken.py", "def f(:\n")
    assert rules(findings) == ["syntax"]
