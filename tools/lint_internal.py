#!/usr/bin/env python
"""Project-specific lint over ``src/`` — rules a generic linter can't know.

Twelve checks, each born from a real failure mode in this codebase:

1. **Unbounded loops must poll cancellation.**  The executor's trampoline
   loops (`WITH RECURSIVE`, batched UDFs), the target collection of UPDATE
   and DELETE (``executor/modify.py``) and the PL/pgSQL interpreter
   run user-controlled iteration counts; any such loop that forgets to
   poll a :class:`repro.sql.cancel.CancelToken` turns query cancellation
   and statement timeouts into dead letters.  In the designated hot
   modules, every ``while`` loop whose condition is not a structural
   bound (``True``, a bare name like ``working``, or a method call) must
   transitively poll — contain a call to ``.check()``, ``_tick()``,
   ``exec_stmt()`` or ``_loop_body()`` — or carry a ``# lint: bounded``
   comment explaining why it terminates.

2. **No bare ``except:``.**  A bare handler swallows
   ``KeyboardInterrupt`` and ``SystemExit``; the narrowest acceptable
   blanket is ``except Exception`` (with a noqa-style justification for
   reviewers, but that part is convention, not lint).

3. **Profiler counters must be declared.**  Counter names flow as plain
   strings into ``Profiler.bump``/``Profiler.phase``; a typo'd constant
   silently creates a parallel counter that no report aggregates.  Every
   ``bump``/``phase`` argument must be a ``NAME`` imported from
   :mod:`repro.sql.profiler` (string literals are rejected too), and the
   name must be assigned a string constant there.

4. **One expression compiler.**  Expression semantics live in the kernel
   table of ``repro/sql/expr.py``, from which the row and the batch
   evaluator are both derived.  A ``_compile_<Node>`` method (``<Node>`` an
   ``ast.Expr`` subclass) defined anywhere else is a second compiler
   regrowing, to be kept in agreement by tests instead of by construction.

5. **One AST traversal.**  "The children of a node" is defined once, by
   the child table in ``repro/sql/astutil.py`` (derived from the
   dataclass declarations of ``sql/ast.py``), with ``walk`` and
   ``rebuild`` over it.  Under ``repro/{sql,compiler,analysis,plsql}`` no
   other module may call ``dataclasses.fields``, ``dataclasses.replace`` or
   ``is_dataclass``: that is how a hand-written traversal starts, and the
   last thirteen of them disagreed about ``FuncCall.window``.  (The fuzz
   reducer edits its own case records and is out of scope.)

6. **One settings store.**  A setting's value lives in the
   ``SettingValues`` objects of ``repro/sql/settings.py`` and nowhere
   else; the engine reads ``db.settings.active``.  Anywhere else under
   ``src/repro``, an assignment to an attribute named like a declared
   setting (``self.enable_topn = True``, ``db.max_udf_depth = 5``), or a
   method or property of that name, is the attribute surface regrowing - a
   second copy of the value that no ``SET`` reaches and no plan stamp
   covers.  The one exception is documented where it is defined:
   ``Database.wal_checkpoint_interval``, a property over the store that
   ``benchmarks/e2e/serve.py`` assigns.

7. **One statement table.**  The kinds of statement are listed once, in
   ``STATEMENTS`` of ``repro/sql/ast.py`` (node class -> leading keywords,
   parse rule, result kind, command tag, engine handler, plan rule); the
   parser's dispatch, the engine's dispatch, the planner's dispatch, the
   wire tags and the PREPARE rule are read from it.  Anywhere else under
   ``src/repro``, a dict / tuple / list / set literal naming three or more
   statement classes, or a run of three or more
   ``if isinstance(x, <statement class>)`` arms, is a second listing that
   a new kind would have to be added to by hand.

8. **One WHERE evaluator.**  A row-changing statement is a plan: its
   WHERE and SET expressions are compiled by the planner and evaluated by
   the modify node over a target scan (``executor/modify.py``).  The fork
   this replaced - the engine compiling a predicate closure of its own
   and the heap testing it on every version - regrows in two places, so
   both are closed: ``repro/sql/engine.py`` may construct an
   ``ExprCompiler`` only inside ``_eval_standalone`` (row-free EXECUTE
   arguments and SET values), and no method of ``HeapTable`` may take a
   parameter named ``predicate`` or ``updater``.

9. **One ANF traversal.**  The four ANF node kinds (``AnfLet``, ``AnfIf``,
   ``AnfCall``, ``AnfRet``) are told apart in one place, the ``_match`` of
   ``repro/compiler/anf.py``; every pass over an ANF body goes through its
   ``fold`` / ``map_exprs`` / ``exprs`` / ``children`` / ``calls`` with one
   callback per kind.  Eleven hand-written recursions preceded them, five
   with their own "unknown ANF node" error, and two volatility checks that
   disagreed about which of a node's expressions to look at.  Anywhere
   else under ``src/repro``, an ``isinstance`` test naming an ANF node
   class is such a recursion regrowing.

10. **One name resolver.**  The analyzer resolves the names of a
    function body by compiling its expressions with the planner the
    interpreter runs (``analysis/sqlcheck.resolver``); its embedded-SQL
    diagnostics are the planner's errors, and its def-use read sets are
    the names that resolved into the variable scope.  A hand-written
    scope walk preceded it, silent on derived tables, CTEs and record
    fields, and a third rule decided which variables a statement reads.
    Under ``repro/analysis/``, reading the schema - an attribute named
    ``tables``, ``get_table`` or ``column_names`` - is that resolver
    regrowing.  The compiler asks the same planner whether a name is a
    variable (``compile_plsql`` plans every expression of the body); a
    FROM-scope walk over the catalog preceded it, and missed the SSA
    names an embedded query captured.  Under ``repro/compiler/``, an
    attribute named ``from_clause`` or ``column_aliases`` anywhere but
    the renderer (``dialects.py``) is that walk regrowing.  A name is
    bound by resolution, not by spelling: SSA renaming and a SQL
    function's parameters rewrite exactly the ``ColumnRef`` nodes the
    planner resolved into their scope (``Scope.observe``).  Two rewrites
    that bound every bare name spelled like a variable or a parameter
    preceded it, and renamed an ORDER BY output alias and let a parameter
    win over a FROM column.  Anywhere under ``repro/`` but the planner
    (``sql/expr.py``, ``sql/planner.py``) and the renamer of generated
    names (``compiler/rename.py``), a one-part test ``len(x.parts) == 1``
    whose ``x.parts[0]`` feeds a lookup (``m.get(..)`` or ``m[..]``) is
    that substitution regrowing.

11. **One argument binder.**  A compiled function's Qf binds its
    arguments in one row, ``FROM (SELECT CAST($1 AS t1) AS p1, ..)``, built
    by ``bind_arguments`` in ``repro/compiler/template.py``: each ``$k``
    occurs once, so a call site's argument is evaluated once, before the
    body, out of reach of the callee's columns.  Five places preceded it:
    two spelled ``$n`` at every use of a parameter, two spliced argument
    expressions over them, and the SQLite check bound by position around
    the result.  Under ``repro/compiler/``, an ``A.Param(..)`` built
    anywhere but that function is a second binder regrowing.

12. **The planner reads no parameter's value.**  The text cache plans a
    text's shape once, its literals as parameters, and runs that plan for
    every text of the shape, as a prepared statement runs its plan for
    every set of arguments.  A choice made from a value a parameter may
    hold (a Top-N count, a range's width, a string_agg separator) is
    therefore made when the plan opens, from the bound value; the planner
    reads only the value of a literal the parser keeps as written (an
    ORDER BY ordinal), in ``Planner.constant`` in
    ``repro/sql/planner.py``.  In that module, an attribute ``.value``
    read anywhere but ``Planner.constant`` (``_display_expr``, which
    renders EXPLAIN text and decides nothing, may read it too), and any
    read of ``.literals`` (a text's literal values) or ``.params`` (a
    run's bound values), is a plan-time read of a value.

Exit status 0 when clean, 1 with findings on stderr — suitable for CI
(see .github/workflows/ci.yml) and wrapped by tests/test_lint_internal.py.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PROFILER = SRC / "repro" / "sql" / "profiler.py"
SQL_AST = SRC / "repro" / "sql" / "ast.py"
SETTINGS = SRC / "repro" / "sql" / "settings.py"
#: The one module allowed to define ``_compile_<Node>`` methods.
EXPR_COMPILER = "repro/sql/expr.py"

#: The one module allowed to enumerate dataclass fields of AST nodes.
AST_TRAVERSAL = "repro/sql/astutil.py"
#: Packages that handle AST nodes (rule 5's scope).
AST_PACKAGES = ("repro/sql/", "repro/compiler/", "repro/analysis/",
                "repro/plsql/")
#: ``dataclasses`` functions a generic node traversal is written with.
TRAVERSAL_CALLS = {"fields", "replace", "is_dataclass"}

#: The one module allowed to hold setting values (rule 6) ...
SETTINGS_STORE = "repro/sql/settings.py"
#: ... and the one attribute spelling kept outside it: (module, name).
SETTING_PROPERTY = ("repro/sql/engine.py", "wal_checkpoint_interval")

#: The one module allowed to list the statement classes (rule 7).
STATEMENT_TABLE = "repro/sql/ast.py"
#: Fewer arms or elements than this is a special case, not a listing.
STATEMENT_LIST_MIN = 3

#: The engine module and the one function in it that may compile
#: expressions (rule 8) ...
ENGINE = "repro/sql/engine.py"
STANDALONE_EVAL = "_eval_standalone"
#: ... and the heap, whose methods take versions, never callables.
STORAGE = "repro/sql/storage.py"
HEAP_CLASS = "HeapTable"
CALLABLE_PARAMS = {"predicate", "updater"}

#: The one module allowed to test the kind of an ANF node (rule 9) ...
ANF_MODULE = "repro/compiler/anf.py"
#: ... and the node classes it tells apart.
ANF_NODES = {"AnfLet", "AnfIf", "AnfCall", "AnfRet"}

#: The analyzer's package (rule 10) and the schema reads banned there ...
ANALYSIS_PACKAGE = "repro/analysis/"
SCHEMA_READS = {"tables", "get_table", "column_names"}
#: ... and the compiler's, its renderer, and the FROM-scope reads banned
#: elsewhere in it.
COMPILER_PACKAGE = "repro/compiler/"
COMPILER_RENDERER = "repro/compiler/dialects.py"
FROM_SCOPE_READS = {"from_clause", "column_aliases"}

#: Where a bare name may be looked up by its spelling (rule 10): the
#: planner, and the renamer of the compiler's generated names.
SPELLING_LOOKUPS = {"repro/sql/expr.py", "repro/sql/planner.py",
                    "repro/compiler/rename.py"}

#: The one function that may build a ``$k`` in the compiler (rule 11).
ARGUMENT_BINDER = ("repro/compiler/template.py", "bind_arguments")

#: The planner, the attributes that hold a literal's value, a text's
#: literal values or a run's bound values (rule 12), and the functions
#: that may read them.
PLANNER = "repro/sql/planner.py"
VALUE_READS = {"value", "literals", "params"}
VALUE_READERS = {"constant": VALUE_READS, "_display_expr": {"value"}}

#: Modules (path prefixes) whose while-loops iterate user-controlled
#: amounts of work; the executor prefix takes in executor/modify.py.
CANCEL_POLLED_MODULES = (
    "repro/sql/executor",
    "repro/plsql/interpreter.py",
)

#: Calls that poll the cancel token, directly or transitively.
POLLING_CALLS = {"check", "_tick", "exec_stmt", "_loop_body"}


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def iter_sources() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def declared_counters() -> set[str]:
    """Module-level ``NAME = "string"`` assignments in profiler.py."""
    tree = ast.parse(PROFILER.read_text(), filename=str(PROFILER))
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            out.add(node.targets[0].id)
    return out


# -- rule 1: cancellation polling -------------------------------------------

def _needs_poll(test: ast.expr) -> bool:
    """Is this while-condition 'unbounded' (data- or user-dependent)?"""
    if isinstance(test, ast.Constant):
        return bool(test.value)  # while True
    if isinstance(test, ast.Name):
        return True  # while working
    if isinstance(test, ast.Call):
        # while isinstance(node, ...) walks a finite structure; any other
        # call (while self.eval_bool(...)) is data-dependent.
        return not (isinstance(test.func, ast.Name)
                    and test.func.id == "isinstance")
    return False  # comparisons, attribute walks


def _polls(loop: ast.While) -> bool:
    for node in ast.walk(loop):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in POLLING_CALLS:
                return True
    return False


def check_cancel_polling(path: Path, tree: ast.Module,
                         source_lines: list[str]) -> list[Finding]:
    rel = path.relative_to(SRC).as_posix()
    if not any(rel.startswith(prefix) for prefix in CANCEL_POLLED_MODULES):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.While) or not _needs_poll(node.test):
            continue
        # The annotation may sit on the while-line or the line above it.
        nearby = source_lines[max(0, node.lineno - 2):node.lineno]
        if any("# lint: bounded" in line for line in nearby):
            continue
        if not _polls(node):
            findings.append(Finding(
                path, node.lineno, "cancel-poll",
                "unbounded while-loop never polls the CancelToken "
                "(call cancel.check() / route through exec_stmt, or "
                "annotate '# lint: bounded')"))
    return findings


# -- rule 2: bare except ----------------------------------------------------

def check_bare_except(path: Path, tree: ast.Module) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(Finding(
                path, node.lineno, "bare-except",
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                "catch Exception (or narrower)"))
    return findings


# -- rule 3: profiler counters ----------------------------------------------

def check_profiler_counters(path: Path, tree: ast.Module,
                            declared: set[str]) -> list[Finding]:
    if path == PROFILER:
        return []
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.rsplit(".", 1)[-1] == "profiler":
            imported |= {alias.asname or alias.name
                         for alias in node.names}
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("bump", "phase")):
            continue
        if not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            findings.append(Finding(
                path, node.lineno, "counter-literal",
                f"profiler.{func.attr}({arg.value!r}): counter names "
                "must be constants imported from repro.sql.profiler"))
        elif isinstance(arg, ast.Name):
            if arg.id in imported and arg.id not in declared:
                findings.append(Finding(
                    path, node.lineno, "counter-undeclared",
                    f"profiler counter {arg.id} is not declared in "
                    "profiler.py"))
            elif arg.id not in imported and arg.id.isupper():
                findings.append(Finding(
                    path, node.lineno, "counter-unimported",
                    f"profiler.{func.attr}({arg.id}): constant is not "
                    "imported from repro.sql.profiler"))
    return findings


# -- rule 4: one expression compiler ----------------------------------------

def expr_node_names() -> set[str]:
    """Names of the ``Expr`` subclasses declared in sql/ast.py."""
    tree = ast.parse(SQL_AST.read_text(), filename=str(SQL_AST))
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Expr"
                    for base in node.bases)}


def check_second_compiler(path: Path, tree: ast.Module,
                          nodes: set[str]) -> list[Finding]:
    if path.relative_to(SRC).as_posix() == EXPR_COMPILER:
        return []
    banned = {"_compile_" + name for name in nodes}
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in banned:
            findings.append(Finding(
                path, node.lineno, "second-compiler",
                f"{node.name}: expression nodes are compiled from the "
                f"kernel table in {EXPR_COMPILER} only"))
    return findings


# -- rule 5: one AST traversal ----------------------------------------------

def check_second_traversal(path: Path, tree: ast.Module) -> list[Finding]:
    rel = path.relative_to(SRC).as_posix()
    if rel == AST_TRAVERSAL or not rel.startswith(AST_PACKAGES):
        return []
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "dataclasses"
                for alias in node.names} & TRAVERSAL_CALLS
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr in TRAVERSAL_CALLS \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "dataclasses":
            name = func.attr
        else:
            continue
        findings.append(Finding(
            path, node.lineno, "second-traversal",
            f"dataclasses.{name}(): AST nodes are walked and rebuilt "
            f"through walk / rebuild of {AST_TRAVERSAL} only"))
    return findings


# -- rule 6: one settings store ---------------------------------------------

def setting_names() -> set[str]:
    """First argument of every ``Setting(...)`` declared in settings.py."""
    tree = ast.parse(SETTINGS.read_text(), filename=str(SETTINGS))
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "Setting"
            and node.args and isinstance(node.args[0], ast.Constant)}


def check_second_store(path: Path, tree: ast.Module,
                       names: set[str]) -> list[Finding]:
    rel = path.relative_to(SRC).as_posix()
    if rel == SETTINGS_STORE:
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.FunctionDef) and node.name in names \
                and (rel, node.name) != SETTING_PROPERTY:
            findings.append(Finding(
                path, node.lineno, "second-store",
                f"def {node.name}: a setting is read through "
                "db.settings.active, not through an accessor of its name"))
            continue
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):  # tuple targets: a.x, a.y = ...
                if isinstance(leaf, ast.Attribute) and leaf.attr in names:
                    findings.append(Finding(
                        path, node.lineno, "second-store",
                        f".{leaf.attr} = ...: setting values live in "
                        f"{SETTINGS_STORE} only (SET / settings.assign)"))
    return findings


# -- rule 7: one statement table --------------------------------------------

def statement_class_names() -> set[str]:
    """First argument of every ``StatementKind(...)`` row in sql/ast.py."""
    tree = ast.parse(SQL_AST.read_text(), filename=str(SQL_AST))
    return {node.args[0].id for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "StatementKind"
            and node.args and isinstance(node.args[0], ast.Name)}


def _statement_class(node: ast.expr, names: set[str]) -> bool:
    """Is *node* ``Insert`` or ``<module alias>.Insert``?"""
    return (isinstance(node, ast.Name) and node.id in names) \
        or (isinstance(node, ast.Attribute) and node.attr in names)


def _isinstance_arm(node: ast.stmt, names: set[str]) -> bool:
    """Is *node* ``if isinstance(x, <statement class>): ...``?"""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return isinstance(test, ast.Call) and isinstance(test.func, ast.Name) \
        and test.func.id == "isinstance" and len(test.args) == 2 \
        and _statement_class(test.args[1], names)


def _chain(arm: ast.If, names: set[str]) -> int:
    """Arms of the ``if`` / ``elif`` chain that starts at *arm*."""
    rest = arm.orelse
    if len(rest) == 1 and _isinstance_arm(rest[0], names):
        return 1 + _chain(rest[0], names)
    return 1


def _arm_runs(block: list, names: set[str]):
    """``(first arm, arms)`` per maximal run of consecutive arms."""
    first, arms = None, 0
    for stmt in block + [None]:
        if stmt is not None and _isinstance_arm(stmt, names):
            first = first or stmt
            arms += _chain(stmt, names)
        elif arms:
            yield first, arms
            first, arms = None, 0


def check_second_statement_list(path: Path, tree: ast.Module,
                                names: set[str]) -> list[Finding]:
    if path.relative_to(SRC).as_posix() == STATEMENT_TABLE:
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Dict, ast.Tuple, ast.List, ast.Set)):
            elements = node.keys + node.values \
                if isinstance(node, ast.Dict) else node.elts
            listed = sum(_statement_class(element, names)
                         for element in elements if element is not None)
            if listed >= STATEMENT_LIST_MIN:
                findings.append(Finding(
                    path, node.lineno, "second-statement-list",
                    f"literal naming {listed} statement classes: the kinds "
                    f"of statement are listed in STATEMENTS of "
                    f"{STATEMENT_TABLE} only"))
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list) or (
                    field == "orelse" and _isinstance_arm(node, names)
                    and _chain(node, names) > 1):
                continue  # an ``elif`` arm is counted with its ``if``
            for first, arms in _arm_runs(block, names):
                if arms >= STATEMENT_LIST_MIN:
                    findings.append(Finding(
                        path, first.lineno, "second-statement-list",
                        f"{arms} isinstance arms over statement classes: "
                        f"dispatch through STATEMENTS of {STATEMENT_TABLE}"))
    return findings


# -- rule 8: one WHERE evaluator --------------------------------------------

def check_second_evaluator(path: Path, tree: ast.Module) -> list[Finding]:
    rel = path.relative_to(SRC).as_posix()
    findings = []
    if rel == ENGINE:
        allowed = {id(call) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == STANDALONE_EVAL
                   for call in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "ExprCompiler":
                findings.append(Finding(
                    path, node.lineno, "second-evaluator",
                    f"ExprCompiler(...) in {ENGINE} outside "
                    f"{STANDALONE_EVAL}: statements are compiled by the "
                    "planner (Planner.plan_statement)"))
    elif rel == STORAGE:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name == HEAP_CLASS):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                arguments = method.args
                for arg in (arguments.posonlyargs + arguments.args
                            + arguments.kwonlyargs):
                    if arg.arg in CALLABLE_PARAMS:
                        findings.append(Finding(
                            path, method.lineno, "second-evaluator",
                            f"{HEAP_CLASS}.{method.name}({arg.arg}): the "
                            "heap is handed versions (update_versions / "
                            "delete_versions), not a callable to test "
                            "on each"))
    return findings


# -- rule 9: one ANF traversal ---------------------------------------------

def check_anf_dispatch(path: Path, tree: ast.Module) -> list[Finding]:
    if path.relative_to(SRC).as_posix() == ANF_MODULE:
        return []
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        for leaf in ast.walk(node.args[1]):  # a tuple or a | union too
            name = (leaf.id if isinstance(leaf, ast.Name)
                    else leaf.attr if isinstance(leaf, ast.Attribute)
                    else None)
            if name in ANF_NODES:
                findings.append(Finding(
                    path, node.lineno, "second-anf-traversal",
                    f"isinstance(.., {name}): ANF nodes are told apart in "
                    f"{ANF_MODULE} only (fold / map_exprs / exprs with one "
                    "callback per kind)"))
                break
    return findings


# -- rule 10: one name resolver ---------------------------------------------

def check_second_resolver(path: Path, tree: ast.Module) -> list[Finding]:
    relative = path.relative_to(SRC).as_posix()
    if relative.startswith(ANALYSIS_PACKAGE):
        banned, who, what = SCHEMA_READS, "the analyzer", "reading the schema"
    elif (relative.startswith(COMPILER_PACKAGE)
          and relative != COMPILER_RENDERER):
        banned, who, what = (FROM_SCOPE_READS, "the compiler",
                             "walking FROM scopes")
    else:
        return []
    return [Finding(path, node.lineno, "second-resolver",
                    f".{node.attr}: {who} resolves names through the "
                    f"planner (analysis/sqlcheck.resolver), not by {what}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in banned]


def _one_part_subject(node: ast.AST):
    """``ast.dump`` of *x* when *node* is ``len(x.parts) == 1``."""
    if (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], ast.Eq)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "len" and len(node.left.args) == 1
            and isinstance(node.left.args[0], ast.Attribute)
            and node.left.args[0].attr == "parts"
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 1):
        return ast.dump(node.left.args[0].value)
    return None


def _spells(node: ast.AST, subject: str, names: set[str]) -> bool:
    """Does *node* read ``<subject>.parts[0]``, or a local in *names*?"""
    return any(
        (isinstance(inner, ast.Name) and inner.id in names)
        or (isinstance(inner, ast.Subscript)
            and isinstance(inner.value, ast.Attribute)
            and inner.value.attr == "parts"
            and ast.dump(inner.value.value) == subject)
        for inner in ast.walk(node))


def check_spelled_binding(path: Path, tree: ast.Module) -> list[Finding]:
    if path.relative_to(SRC).as_posix() in SPELLING_LOOKUPS:
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        for subject in filter(None, map(_one_part_subject,
                                        ast.walk(node.test))):
            names: set[str] = set()  # locals holding the spelled name
            for inner in ast.walk(node):
                if isinstance(inner, ast.Assign) \
                        and _spells(inner.value, subject, names):
                    names.update(target.id for target in inner.targets
                                 if isinstance(target, ast.Name))
                if isinstance(inner, ast.Call) \
                        and isinstance(inner.func, ast.Attribute) \
                        and inner.func.attr == "get":
                    keys = inner.args[:1]
                elif isinstance(inner, ast.Subscript):
                    keys = [inner.slice]
                else:
                    continue
                if any(_spells(key, subject, names) for key in keys):
                    findings.append(Finding(
                        path, inner.lineno, "second-resolver",
                        "a bare name looked up by its spelling: rewrite "
                        "the references the planner resolved "
                        "(Scope.observe)"))
    return findings


# -- rule 11: one argument binder -------------------------------------------

def check_second_binder(path: Path, tree: ast.Module) -> list[Finding]:
    relative = path.relative_to(SRC).as_posix()
    if not relative.startswith(COMPILER_PACKAGE):
        return []
    module, binder = ARGUMENT_BINDER
    exempt: set[int] = set()
    if relative == module:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == binder:
                exempt.update(id(inner) for inner in ast.walk(node))
    return [Finding(path, node.lineno, "second-binder",
                    "Param(..): a Qf's parameters are bound in one place, "
                    f"{module}:{binder}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in exempt
            and (node.func.id if isinstance(node.func, ast.Name)
                 else node.func.attr if isinstance(node.func, ast.Attribute)
                 else None) == "Param"]


# -- rule 12: the planner reads no parameter's value -------------------------

def check_second_constant_reader(path: Path,
                                 tree: ast.Module) -> list[Finding]:
    if path.relative_to(SRC).as_posix() != PLANNER:
        return []
    allowed: dict[int, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in VALUE_READERS:
            for inner in ast.walk(node):
                allowed[id(inner)] = VALUE_READERS[node.name]
    return [Finding(path, node.lineno, "second-constant-reader",
                    f".{node.attr} read outside Planner.constant: the "
                    "planner reads no parameter's value; a choice made "
                    "from one is made when the plan opens")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and node.attr in VALUE_READS
            and node.attr not in allowed.get(id(node), ())]


# -- driver -----------------------------------------------------------------

def run(paths=None) -> list[Finding]:
    declared = declared_counters()
    nodes = expr_node_names()
    settings = setting_names()
    statements = statement_class_names()
    findings: list[Finding] = []
    for path in (paths if paths is not None else iter_sources()):
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(Finding(path, exc.lineno or 0, "syntax",
                                    str(exc)))
            continue
        source_lines = source.splitlines()
        findings.extend(check_cancel_polling(path, tree, source_lines))
        findings.extend(check_bare_except(path, tree))
        findings.extend(check_profiler_counters(path, tree, declared))
        findings.extend(check_second_compiler(path, tree, nodes))
        findings.extend(check_second_traversal(path, tree))
        findings.extend(check_second_store(path, tree, settings))
        findings.extend(check_second_statement_list(path, tree, statements))
        findings.extend(check_second_evaluator(path, tree))
        findings.extend(check_anf_dispatch(path, tree))
        findings.extend(check_second_resolver(path, tree))
        findings.extend(check_spelled_binding(path, tree))
        findings.extend(check_second_binder(path, tree))
        findings.extend(check_second_constant_reader(path, tree))
    return findings


def main() -> int:
    findings = run()
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(f"{len(findings)} internal lint finding(s)", file=sys.stderr)
        return 1
    print(f"internal lint: {len(iter_sources())} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
