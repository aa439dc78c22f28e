"""The query planner: SQL AST -> immutable executable plan trees.

Planning does all name resolution and expression compilation once; the
resulting :class:`~repro.sql.executor.base.Plan` tree is immutable and can be
cached by SQL text (see :mod:`repro.sql.engine`).  Execution then only pays
*instantiation* (ExecutorStart) and *pulling* (ExecutorRun) — the cost split
the paper's Table 1 measures.

Highlights:

* FROM clauses plan into shared-row-vector nested loops with LATERAL rebinds
  (executor/fromtree.py),
* ``WITH [RECURSIVE | ITERATE]`` splits each self-referencing CTE into base
  and recursive terms (executor/recursion.py),
* calls to *compiled* functions (the output of the paper's pipeline) are
  inlined at plan time as correlated scalar subqueries — the "merge Qf into
  Q" finalization step,
* FROM subqueries whose alias lists more columns than the subquery produces
  trigger the ROW-expansion extension used by the CTE template.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from . import ast as A
from .astutil import (column_bindings, conjoin, contains_aggregate,
                      contains_window_call, expr_equal, references_table,
                      rewrite_expr, split_conjuncts)
from .errors import NameResolutionError, PlanError
from .expr import ExprCompiler, Relation, Scope
from .executor.base import Plan
from .executor.batched_udf import BatchedUdfStagePlan, compile_machine
from .executor.fromtree import FromJoinPlan, FromLeafPlan, FromNodePlan
from .executor.hashjoin import HashJoinPlan
from .executor.mergejoin import MergeJoinPlan
from .executor.modify import DeletePlan, InsertPlan, UpdatePlan
from .executor.recursion import CteDef, CTEScanPlan, SelectStmtPlan
from .executor.scan import (IndexRangeScanPlan, OneRowPlan, RowExpandPlan,
                            SeqScanPlan, ValuesPlan)
from .executor.select_core import (AggCallPlan, AggStagePlan, SelectCorePlan,
                                   TopNPlan, WindowStagePlan)
from .executor.tuples import AppendPlan, LimitPlan, SetOpPlan, SortPlan
from .executor.vector import vectorize_core
from .executor.window import WindowCallPlan
from .functions import is_aggregate_name, is_window_function_name

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Database


class CteEnv:
    """Plan-time chain of visible CTE definitions."""

    def __init__(self, parent: Optional["CteEnv"] = None):
        self.parent = parent
        self.defs: dict[str, CteDef] = {}

    def lookup(self, name: str) -> Optional[CteDef]:
        node: Optional[CteEnv] = self
        while node is not None:
            found = node.defs.get(name.lower())
            if found is not None:
                return found
            node = node.parent
        return None


class _JoinDraft:
    """A join captured during FROM planning, before strategy choice.

    ``condition`` is the raw ON expression (AST, not yet compiled);
    :meth:`Planner._finalize_from` later decides per node whether the join
    runs as a hash join or a nested loop and compiles accordingly.
    ``prefix_len`` records how many relations were in scope when the join
    was reached — ON conditions must not see later FROM items, so they are
    analyzed and compiled against this prefix (see ``_prefix_scope``).
    """

    __slots__ = ("kind", "left", "right", "condition", "prefix_len")

    def __init__(self, kind: str, left, right, condition: Optional[A.Expr],
                 prefix_len: int):
        self.kind = kind
        self.left = left
        self.right = right
        self.condition = condition
        self.prefix_len = prefix_len

    @property
    def rel_slots(self) -> list[tuple[int, int]]:
        return self.left.rel_slots + self.right.rel_slots


#: Cardinality assumed for relations without statistics (subqueries, CTEs).
_DEFAULT_CARDINALITY = 1000


class Planner:
    """Plans SELECT, INSERT, UPDATE and DELETE statements against a
    database's catalog."""

    # No stray attributes: planner flags live in the settings store, and
    # assigning one on the planner must fail, not be silently ignored.
    __slots__ = ("db", "_cte_env", "expr_subquery_depth")

    def __init__(self, db: "Database"):
        self.db = db
        self._cte_env: Optional[CteEnv] = None
        #: Nesting depth of expression subqueries (EXISTS / IN / scalar)
        #: currently being planned.  Those consumers stop pulling rows
        #: early, so eager batching inside them could evaluate calls a
        #: lazy per-call site never reaches (see _plan_query_tail's LIMIT
        #: note); ExprCompiler._plan_subquery maintains the counter.
        self.expr_subquery_depth = 0

    @property
    def catalog(self):
        return self.db.catalog

    @property
    def flags(self):
        """The executing session's setting values (plan-time choices all:
        a plan carries the fingerprint of the values it was built under)."""
        return self.db.settings.active

    # ------------------------------------------------------------------
    # Statement level
    # ------------------------------------------------------------------

    def plan_statement(self, stmt: A.Statement) -> Plan:
        """The plan of a statement of one of the kinds that are plans:
        the rows of :data:`repro.sql.ast.STATEMENTS` naming a ``plan``
        rule (SELECT, INSERT, UPDATE, DELETE)."""
        return getattr(self, A.STATEMENTS[type(stmt)].plan)(stmt)

    def _plan_insert(self, stmt: A.Insert) -> Plan:
        table = self.catalog.get_table(stmt.table)
        if stmt.columns is not None:
            positions = [table.column_index(c) for c in stmt.columns]
        else:
            positions = list(range(len(table.column_names)))
        return InsertPlan(table.name, positions,
                          [table.column_types[p] for p in positions],
                          self.plan_select(stmt.source))

    def _plan_target(self, table_name: str, where: Optional[A.Expr]):
        """The target scan of an UPDATE or DELETE: the access path a
        SELECT over the same table and WHERE would get (SeqScan,
        IndexScan, IndexRangeScan), set to hand out row versions.
        Returns it with the compiler of the statement's row expressions
        and what the scan left of WHERE, compiled (or None)."""
        relations: list[Relation] = []
        leaf = self._plan_from_table(A.TableName(table_name), relations)
        scope = Scope(relations)
        if where is not None:
            leaf, where = self._try_index_pushdown(where, leaf, scope)
        leaf.source.versions = True
        compiler = ExprCompiler(scope, self)
        return (leaf.source, compiler,
                compiler.compile(where) if where is not None else None)

    def _plan_update(self, stmt: A.Update) -> Plan:
        scan, compiler, where = self._plan_target(stmt.table, stmt.where)
        table = self.catalog.get_table(stmt.table)
        assignments = []
        for name, expr in stmt.assignments:
            position = table.column_index(name)
            assignments.append((position, table.column_types[position],
                                compiler.compile(expr)))
        return UpdatePlan(table.name, scan, where, assignments,
                          compiler.subplans)

    def _plan_delete(self, stmt: A.Delete) -> Plan:
        scan, compiler, where = self._plan_target(stmt.table, stmt.where)
        return DeletePlan(scan.table_name, scan, where, compiler.subplans)

    def plan_select(self, stmt: A.SelectStmt,
                    outer_scope: Optional[Scope] = None,
                    cte_env: Optional[CteEnv] = None) -> Plan:
        saved_env = self._cte_env
        env = cte_env if cte_env is not None else self._cte_env
        cte_defs: list[CteDef] = []
        try:
            if stmt.with_clause is not None:
                env = CteEnv(parent=env)
                for cte in stmt.with_clause.ctes:
                    cte_def = self._plan_cte(cte, stmt.with_clause, env,
                                             outer_scope)
                    env.defs[cte.name.lower()] = cte_def
                    cte_defs.append(cte_def)
            self._cte_env = env
            plan = self._plan_query_tail(stmt, outer_scope)
        finally:
            self._cte_env = saved_env
        if cte_defs:
            plan = SelectStmtPlan(cte_defs, plan)
        return plan

    def _plan_query_tail(self, stmt: A.SelectStmt,
                         outer_scope: Optional[Scope]) -> Plan:
        """Plan body + ORDER BY + LIMIT (CTE env already in effect)."""
        body = stmt.body
        # A streaming LIMIT/OFFSET (no ORDER BY) may legitimately never
        # evaluate the tail rows' expressions; batching is eager over all
        # surviving rows, so those statements keep lazy per-call sites.
        # With ORDER BY the sort materializes every projected row anyway,
        # so batching there changes nothing observable.
        limited = stmt.limit is not None or stmt.offset is not None
        allow_batch = not limited or bool(stmt.order_by)
        if isinstance(body, A.SelectCore):
            plan = self._plan_core(body, outer_scope, stmt.order_by,
                                   allow_batch=allow_batch)
        else:
            plan = self._plan_set_body(body, outer_scope,
                                       allow_batch=allow_batch)
            if stmt.order_by:
                plan = self._sort_set_output(plan, stmt.order_by)
        if stmt.limit is not None or stmt.offset is not None:
            compiler = ExprCompiler(Scope([], parent=outer_scope), self)
            limit = compiler.compile(stmt.limit) if stmt.limit is not None else None
            offset = (compiler.compile(stmt.offset)
                      if stmt.offset is not None else None)
            # Top-N: a constant LIMIT (+OFFSET) over a sort keeps only the
            # best limit+offset rows in a bounded heap instead of sorting
            # the whole input.  (When sort elimination already removed the
            # Sort, the streaming LimitPlan alone stops after k rows.)
            count = _constant_topn_count(stmt)
            if (self.flags.enable_topn and count is not None
                    and isinstance(plan, SortPlan)):
                plan = TopNPlan(plan, count)
            plan = LimitPlan(plan, limit, offset, compiler.subplans)
        return plan

    def _plan_set_body(self, body, outer_scope: Optional[Scope],
                       allow_batch: bool = True) -> Plan:
        if isinstance(body, A.SelectCore):
            return self._plan_core(body, outer_scope, [],
                                   allow_batch=allow_batch)
        if isinstance(body, A.ValuesClause):
            return self._plan_values(body, outer_scope)
        if isinstance(body, A.SetOp):
            left = self._plan_set_body(body.left, outer_scope, allow_batch)
            right = self._plan_set_body(body.right, outer_scope, allow_batch)
            if left.width != right.width:
                raise PlanError(
                    f"set operation arms have different widths "
                    f"({left.width} vs {right.width})")
            if body.op == "union_all":
                # Flatten chains of UNION ALL into one Append.
                parts: list[Plan] = []
                for part in (left, right):
                    if isinstance(part, AppendPlan):
                        parts.extend(part.parts)
                    else:
                        parts.append(part)
                return AppendPlan(parts, left.output_columns)
            return SetOpPlan(body.op, left, right, left.output_columns)
        raise PlanError(f"unsupported select body {type(body).__name__}")

    def _plan_values(self, values: A.ValuesClause,
                     outer_scope: Optional[Scope]) -> Plan:
        if not values.rows:
            raise PlanError("VALUES requires at least one row")
        width = len(values.rows[0])
        for row in values.rows:
            if len(row) != width:
                raise PlanError("VALUES rows have varying widths")
        compiler = ExprCompiler(Scope([], parent=outer_scope), self)
        compiled = [[compiler.compile(cell) for cell in row]
                    for row in values.rows]
        columns = [f"column{i + 1}" for i in range(width)]
        return ValuesPlan(compiled, columns, compiler.subplans)

    def _sort_set_output(self, plan: Plan, order_by: list[A.SortItem]) -> Plan:
        indices: list[int] = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, A.Literal) and isinstance(expr.value, int) \
                    and not isinstance(expr.value, bool):
                position = expr.value
                if not 1 <= position <= plan.width:
                    raise PlanError(f"ORDER BY position {position} is out of range")
                indices.append(position - 1)
            elif isinstance(expr, A.ColumnRef) and len(expr.parts) == 1 \
                    and expr.parts[0].lower() in [c.lower() for c in plan.output_columns]:
                indices.append([c.lower() for c in plan.output_columns]
                               .index(expr.parts[0].lower()))
            else:
                raise PlanError("ORDER BY over a set operation must reference "
                                "output columns by name or position")
        return SortPlan(plan, plan.output_columns, key_start=plan.width,
                        descending=[i.descending for i in order_by],
                        nulls_first=[i.nulls_first for i in order_by],
                        strip=False, key_indices=indices)

    # ------------------------------------------------------------------
    # CTE planning
    # ------------------------------------------------------------------

    def _plan_cte(self, cte: A.CommonTableExpr, with_clause: A.WithClause,
                  env: CteEnv, outer_scope: Optional[Scope]) -> CteDef:
        name = cte.name.lower()
        cte_def = CteDef(name, list(cte.column_names or []))
        self_referencing = (with_clause.recursive
                            and references_table(cte.query, name))
        if not self_referencing:
            plan = self.plan_select(cte.query, outer_scope, cte_env=env)
            cte_def.plan = plan
            cte_def.columns = _apply_column_aliases(
                cte.name, plan.output_columns, cte.column_names)
            return cte_def

        body = cte.query.body
        if not isinstance(body, A.SetOp) or body.op not in ("union", "union_all"):
            raise PlanError(
                f"recursive CTE {cte.name!r} must be <base> UNION [ALL] "
                "<recursive term>")
        if cte.query.order_by or cte.query.limit is not None:
            raise PlanError("ORDER BY / LIMIT on a recursive CTE body is not "
                            "supported")
        # Flatten the UNION [ALL] chain; terms referencing the CTE are
        # recursive terms (we allow several — an extension over PostgreSQL's
        # single-self-reference rule), the rest form the base.
        op = body.op
        terms = _flatten_union(body, op, cte.name)
        base_terms = [t for t in terms if not references_table(t, name)]
        rec_terms = [t for t in terms if references_table(t, name)]
        if not base_terms:
            raise PlanError(f"recursive CTE {cte.name!r} needs a base term "
                            "without a self-reference")
        cte_def.recursive = True
        cte_def.union_all = op == "union_all"
        cte_def.iterate = with_clause.iterate
        # Base terms: planned without the self-binding in scope.
        base_plans = [self.plan_select(A.SelectStmt(None, t), outer_scope,
                                       cte_env=env) for t in base_terms]
        cte_def.base_plan = (base_plans[0] if len(base_plans) == 1 else
                             AppendPlan(base_plans,
                                        base_plans[0].output_columns))
        cte_def.columns = _apply_column_aliases(
            cte.name, cte_def.base_plan.output_columns, cte.column_names)
        # Recursive terms: planned with the self-binding visible.
        rec_env = CteEnv(parent=env)
        rec_env.defs[name] = cte_def
        rec_plans = [self.plan_select(A.SelectStmt(None, t), outer_scope,
                                      cte_env=rec_env) for t in rec_terms]
        cte_def.rec_plan = (rec_plans[0] if len(rec_plans) == 1 else
                            AppendPlan(rec_plans, rec_plans[0].output_columns))
        for plan in base_plans + rec_plans:
            if plan.width != cte_def.base_plan.width:
                raise PlanError(
                    f"recursive CTE {cte.name!r}: union terms have "
                    "differing column counts")
        return cte_def

    # ------------------------------------------------------------------
    # SELECT core planning
    # ------------------------------------------------------------------

    def _plan_core(self, core: A.SelectCore, outer_scope: Optional[Scope],
                   order_by: list[A.SortItem],
                   allow_batch: bool = True) -> Plan:
        relations: list[Relation] = []
        from_node = None
        if core.from_clause is not None:
            from_node = self._plan_from(core.from_clause, relations, outer_scope)
        scope = Scope(relations, parent=outer_scope)

        # Index pushdown: correlated equality predicates on a single base
        # table become hash-index probes (see IndexScanPlan).
        residual_where = core.where
        if (core.where is not None and isinstance(from_node, FromLeafPlan)
                and isinstance(from_node.source, SeqScanPlan)
                and not from_node.lateral):
            from_node, residual_where = self._try_index_pushdown(
                core.where, from_node, scope)

        # Join strategy + predicate pushdown: distribute WHERE conjuncts
        # over the FROM tree and pick hash vs nested loop per join.
        from_plan: Optional[FromNodePlan] = None
        if from_node is not None:
            from_plan, residual_where = self._finalize_from(
                from_node, residual_where, scope)

        # WHERE --------------------------------------------------------
        where_compiler = ExprCompiler(scope, self)
        where = (where_compiler.compile(residual_where)
                 if residual_where is not None else None)

        # Select items: expand stars, derive output names ----------------
        items: list[A.SelectItem] = []
        for item in core.items:
            if isinstance(item, A.Star):
                items.extend(self._expand_star(item, relations))
            else:
                items.append(item)
        if not items:
            raise PlanError("SELECT list is empty")
        output_columns = [_derive_name(item) for item in items]
        item_exprs = [item.expr for item in items]
        having = core.having

        # Aggregation ----------------------------------------------------
        agg_stage: Optional[AggStagePlan] = None
        agg_rewrite = None
        current_scope = scope
        needs_agg = bool(core.group_by) or having is not None \
            or any(contains_aggregate(e) for e in item_exprs)
        if needs_agg:
            (agg_stage, item_exprs, having, current_scope,
             agg_rewrite) = self._plan_aggregation(
                core, scope, outer_scope, item_exprs, having)
        elif having is not None:
            raise PlanError("HAVING requires aggregation")

        # Window functions -----------------------------------------------
        window_stage: Optional[WindowStagePlan] = None
        if any(contains_window_call(e) for e in item_exprs):
            window_stage, item_exprs, current_scope = self._plan_windows(
                core, current_scope, outer_scope, item_exprs, agg_rewrite)

        # Set-oriented compiled-UDF calls ---------------------------------
        # Only calls over a FROM clause batch: a table-less SELECT is a
        # single activation, which a per-call site runs as it stands.
        batch_stage: Optional[BatchedUdfStagePlan] = None
        if allow_batch and self.expr_subquery_depth == 0 \
                and self.flags.batch_compiled \
                and from_plan is not None:
            batch_stage, item_exprs, current_scope = self._plan_batched_udfs(
                item_exprs, current_scope, outer_scope)

        # Sort elimination -------------------------------------------------
        # A single base-table FROM whose scan can come from a sorted index
        # in the requested order drops the Sort node entirely.  The block
        # stays streaming, so an enclosing LIMIT stops pulling after k
        # rows — ORDER BY .. LIMIT over an index costs O(log n + k).
        sort_eliminated = False
        if (order_by and self.flags.enable_sort_elim and not core.distinct
                and agg_stage is None and window_stage is None
                and isinstance(from_plan, FromLeafPlan)
                and not from_plan.lateral):
            sort_eliminated = self._eliminate_sort(order_by, items,
                                                   from_plan, scope)

        # Final projection (+ hidden ORDER BY keys) -----------------------
        project_compiler = ExprCompiler(current_scope, self)
        project_exprs = [project_compiler.compile(e) for e in item_exprs]
        hidden, hidden_asts = ([], []) if sort_eliminated else \
            self._compile_order_keys(order_by, items, item_exprs,
                                     project_exprs, project_compiler,
                                     core.distinct)
        plan: Plan = SelectCorePlan(
            output_columns=output_columns,
            n_relations=len(relations),
            from_plan=from_plan,
            where=where,
            where_subplans=where_compiler.subplans,
            agg_stage=agg_stage,
            window_stage=window_stage,
            project_exprs=project_exprs + hidden,
            project_subplans=project_compiler.subplans,
            distinct=core.distinct and not hidden,
            batch_stage=batch_stage,
        )
        # Vectorization: a SELECT core with no window / batched-UDF stage
        # whose FROM tree is INNER hash joins over plain SeqScans (index
        # pushdown, range scans and sort elimination swap the scan and keep
        # the row path) can run batch-at-a-time; a Sort / TopN / Limit
        # above it keeps consuming its row tuples.  vectorize_core looks at
        # the FROM tree first and returns None for any other, or when an
        # expression contains a row-only kernel-table entry, keeping this
        # plan unchanged.
        if (self.flags.enable_vectorize and window_stage is None
                and batch_stage is None):
            plan = vectorize_core(plan, core, item_exprs + hidden_asts, scope,
                                  residual_where, bool(order_by)) or plan
        if hidden:
            # DISTINCT with hidden keys was rejected in _compile_order_keys,
            # so stripping the keys after the sort is always safe here.
            plan.output_columns = output_columns + [f"__sort{i}"
                                                    for i in range(len(hidden))]
            plan = SortPlan(plan, output_columns, key_start=len(items),
                            descending=[i.descending for i in order_by],
                            nulls_first=[i.nulls_first for i in order_by],
                            strip=True)
        elif order_by and not sort_eliminated:
            plan = SortPlan(plan, output_columns, key_start=len(items),
                            descending=[i.descending for i in order_by],
                            nulls_first=[i.nulls_first for i in order_by],
                            strip=False,
                            key_indices=self._positional_keys(order_by, items))
        return plan

    def _positional_keys(self, order_by, items) -> list[int]:
        # Only reached when _compile_order_keys produced no hidden keys,
        # i.e. every sort item is positional or an alias.
        indices = []
        aliases = [(_derive_name(i) or "").lower() for i in items]
        for sort_item in order_by:
            kind, value = _sort_item_target(sort_item.expr, items, aliases)
            if kind == "position":
                indices.append(value - 1)
            else:
                assert kind == "alias"
                indices.append(value)
        return indices

    def _compile_order_keys(self, order_by, items, item_exprs, project_exprs,
                            compiler: ExprCompiler, distinct: bool):
        """Compile ORDER BY keys; return the hidden key closures (may be
        []) and the expressions they were compiled from."""
        if not order_by:
            return [], []
        aliases = [(_derive_name(i) or "").lower() for i in items]
        all_positional = True
        for sort_item in order_by:
            kind, value = _sort_item_target(sort_item.expr, items, aliases)
            if kind == "position":
                if not 1 <= value <= len(items):
                    raise PlanError(f"ORDER BY position {value} is out of range")
            elif kind == "expr":
                all_positional = False
        if all_positional:
            return [], []
        if distinct:
            raise PlanError("for SELECT DISTINCT, ORDER BY expressions must "
                            "appear in the select list")
        hidden, asts = [], []
        for sort_item in order_by:
            kind, value = _sort_item_target(sort_item.expr, items, aliases)
            if kind == "expr":
                hidden.append(compiler.compile(value))
                asts.append(value)
            else:
                index = value - 1 if kind == "position" else value
                hidden.append(project_exprs[index])
                asts.append(item_exprs[index])
        return hidden, asts

    # ------------------------------------------------------------------
    # FROM planning
    # ------------------------------------------------------------------

    def _plan_from(self, ref: A.TableRef, relations: list[Relation],
                   outer_scope: Optional[Scope]) -> FromNodePlan:
        if isinstance(ref, A.TableName):
            return self._plan_from_table(ref, relations)
        if isinstance(ref, A.SubqueryRef):
            return self._plan_from_subquery(ref, relations, outer_scope)
        if isinstance(ref, A.Join):
            left = self._plan_from(ref.left, relations, outer_scope)
            right = self._plan_from(ref.right, relations, outer_scope)
            condition: Optional[A.Expr] = None
            if ref.condition is not None:
                if ref.kind == "cross":
                    raise PlanError("CROSS JOIN cannot have an ON condition")
                if not (isinstance(ref.condition, A.Literal)
                        and ref.condition.value is True):
                    condition = ref.condition
            elif ref.kind in ("inner", "left"):
                raise PlanError(f"{ref.kind.upper()} JOIN requires ON")
            # Strategy (hash vs nested loop) and condition compilation are
            # deferred to _finalize_from, once the full scope is known.
            return _JoinDraft(ref.kind, left, right, condition,
                              prefix_len=len(relations))
        raise PlanError(f"unsupported FROM item {type(ref).__name__}")

    def _plan_from_table(self, ref: A.TableName,
                         relations: list[Relation]) -> FromLeafPlan:
        name = ref.name.lower()
        alias = (ref.alias or ref.name).lower()
        self._check_duplicate_alias(alias, relations)
        cte_def = self._cte_env.lookup(name) if self._cte_env else None
        if cte_def is not None:
            columns = list(cte_def.columns)
            source: Plan = CTEScanPlan(cte_def, columns)
        else:
            table = self.catalog.tables.get(name)
            if table is None:
                raise NameResolutionError(f"unknown table {ref.name!r}")
            columns = list(table.column_names)
            source = SeqScanPlan(name, columns)
        if ref.column_aliases:
            if len(ref.column_aliases) != len(columns):
                raise PlanError(
                    f"alias list for {alias!r} has {len(ref.column_aliases)} "
                    f"columns, relation has {len(columns)}")
            columns = [c.lower() for c in ref.column_aliases]
            source.output_columns = columns
        rel_index = len(relations)
        relations.append(Relation(alias, columns))
        return FromLeafPlan(rel_index, len(columns), source, lateral=False)

    def _plan_from_subquery(self, ref: A.SubqueryRef, relations: list[Relation],
                            outer_scope: Optional[Scope]) -> FromLeafPlan:
        alias = ref.alias.lower()
        self._check_duplicate_alias(alias, relations)
        if ref.lateral:
            # Lateral sees the FROM items planned so far as its outer scope.
            sub_outer: Optional[Scope] = Scope(list(relations),
                                               parent=outer_scope)
        else:
            sub_outer = outer_scope
        subplan = self.plan_select(ref.query, outer_scope=sub_outer)
        columns = list(subplan.output_columns)
        if ref.column_aliases:
            aliases = [c.lower() for c in ref.column_aliases]
            if len(aliases) == len(columns):
                columns = aliases
            elif len(columns) == 1 and len(aliases) > 1:
                # Engine extension: expand single ROW-valued column (the CTE
                # template's LATERAL (body) AS iter("call?", args, result)).
                subplan = RowExpandPlan(subplan, aliases)
                columns = aliases
            else:
                raise PlanError(
                    f"alias list for {alias!r} has {len(aliases)} columns, "
                    f"subquery produces {len(columns)}")
        rel_index = len(relations)
        relations.append(Relation(alias, columns))
        return FromLeafPlan(rel_index, len(columns), subplan, ref.lateral)

    # ------------------------------------------------------------------
    # Join strategy selection + predicate pushdown
    # ------------------------------------------------------------------

    def _finalize_from(self, node, where: Optional[A.Expr], scope: Scope):
        """Turn the FROM draft tree into executable plan nodes.

        Distributes WHERE conjuncts: single-relation conjuncts become leaf
        filters, equality conjuncts straddling an inner/cross join become
        hash-join keys, and whatever cannot move safely (conjuncts touching
        the nullable side of a LEFT JOIN, subqueries, outer-only or
        constant predicates) stays in the residual WHERE.  Returns
        ``(from_plan, residual_where)``.
        """
        if isinstance(node, FromLeafPlan):
            # Single relation: WHERE already runs right above the scan.
            return node, where
        conjuncts = split_conjuncts(where) if where is not None else []
        protected: set[int] = set()
        _collect_nullable_rels(node, protected)
        pushable: list[tuple[A.Expr, frozenset]] = []
        residual: list[A.Expr] = []
        for conjunct in conjuncts:
            info = column_bindings(conjunct, scope, self.catalog)
            if (self.flags.enable_pushdown and not info.unknown and info.rels
                    and not (info.rels & protected)):
                pushable.append((conjunct, info.rels))
            else:
                residual.append(conjunct)
        plan, leftover, _stable = self._finalize_node(node, pushable, scope)
        residual.extend(conjunct for conjunct, _ in leftover)
        return plan, conjoin(residual)

    def _finalize_node(self, node, conjs: list, scope: Scope):
        """Recursively finalize *node*, consuming WHERE conjuncts from
        *conjs* where they can sink; returns ``(plan, unconsumed, stable)``.

        ``stable`` means: for a fixed database state, the subtree produces
        the same rows on every rescan regardless of outer context — only
        plain base-table scans with uncorrelated predicates qualify.  Hash
        joins use it to keep their build table across rescans.
        """
        if isinstance(node, FromLeafPlan):
            mine = [c for c, rels in conjs if rels == {node.rel_index}]
            rest = [(c, rels) for c, rels in conjs
                    if rels != {node.rel_index}]
            stable = not node.lateral and isinstance(node.source, SeqScanPlan)
            if mine:
                stable = stable and not any(
                    column_bindings(c, scope, self.catalog).outer
                    for c in mine)
                compiler = ExprCompiler(scope, self)
                node.filter_ast = conjoin(mine)
                node.filter = compiler.compile(node.filter_ast)
                node.filter_subplans = compiler.subplans
            return node, rest, stable

        left_slots = frozenset(i for i, _ in node.left.rel_slots)
        right_slots = frozenset(i for i, _ in node.right.rel_slots)
        to_left, to_right, spanning = [], [], []
        for conjunct, rels in conjs:
            if rels <= left_slots:
                to_left.append((conjunct, rels))
            elif rels <= right_slots:
                to_right.append((conjunct, rels))
            else:
                spanning.append((conjunct, rels))
        left_plan, leftover_left, left_stable = self._finalize_node(
            node.left, to_left, scope)
        right_plan, leftover_right, right_stable = self._finalize_node(
            node.right, to_right, scope)
        leftover = leftover_left + leftover_right

        # ON conditions must not see FROM items planned after the join —
        # the seed compiled them against the scope prefix of their planning
        # moment, and runtime only guarantees those vector slots are filled.
        on_scope = _prefix_scope(scope, node.prefix_len)

        # Equi-key extraction: from the ON condition, and — for inner and
        # cross joins, where WHERE and ON are interchangeable — from WHERE
        # conjuncts spanning the two sides.
        on_conjuncts = (split_conjuncts(node.condition)
                        if node.condition is not None else [])
        key_pairs: list[tuple[A.Expr, A.Expr]] = []
        residual_on: list[A.Expr] = []
        for conjunct in on_conjuncts:
            pair = self._equi_key(conjunct, left_slots, right_slots, on_scope)
            (key_pairs.append(pair) if pair is not None
             else residual_on.append(conjunct))
        where_keys: list[tuple[A.Expr, frozenset, tuple]] = []
        if node.kind in ("inner", "cross") and self.flags.enable_pushdown:
            for conjunct, rels in spanning:
                pair = self._equi_key(conjunct, left_slots, right_slots, scope)
                if pair is not None:
                    where_keys.append((conjunct, rels, pair))
                else:
                    leftover.append((conjunct, rels))
        else:
            leftover.extend(spanning)

        # Merge join: preferred when both inputs are base-table leaves with
        # an existing sorted index on their (single) join key — the ordered
        # scans make the join one synchronized pass and rescans free.
        if (self.flags.enable_mergejoin and node.kind in ("inner", "cross")
                and len(key_pairs) + len(where_keys) == 1):
            pair = key_pairs[0] if key_pairs else where_keys[0][2]
            merge = self._try_merge_join(left_plan, right_plan, pair,
                                         residual_on, on_scope)
            if merge is not None:
                residual_ast = conjoin(residual_on)
                residual_info = (column_bindings(residual_ast, on_scope,
                                                 self.catalog)
                                 if residual_ast is not None else None)
                stable = (left_stable and right_stable
                          and (residual_info is None
                               or not (residual_info.outer
                                       or residual_info.unknown)))
                return merge, leftover, stable

        can_hash = (self.flags.enable_hashjoin
                    and node.kind in ("inner", "left", "cross")
                    and bool(key_pairs or where_keys)
                    and not _contains_lateral(left_plan)
                    and not _contains_lateral(right_plan))
        condition_info = (column_bindings(node.condition, on_scope,
                                          self.catalog)
                          if node.condition is not None else None)
        if not can_hash:
            # Nested-loop fallback: WHERE key candidates go back to WHERE,
            # the ON condition is compiled whole, exactly like the seed.
            leftover.extend((conjunct, rels)
                            for conjunct, rels, _ in where_keys)
            compiler = ExprCompiler(on_scope, self)
            condition = (compiler.compile(node.condition)
                         if node.condition is not None else None)
            stable = (left_stable and right_stable
                      and (condition_info is None
                           or not (condition_info.outer
                                   or condition_info.unknown)))
            return FromJoinPlan(node.kind, left_plan, right_plan, condition,
                                compiler.subplans), leftover, stable

        left_key_asts = [pair[0] for pair in key_pairs]
        right_key_asts = [pair[1] for pair in key_pairs]
        for _conjunct, _rels, (left_ast, right_ast) in where_keys:
            left_key_asts.append(left_ast)
            right_key_asts.append(right_ast)
        # WHERE-derived keys reference only this join's subtree (enforced
        # above), so the prefix scope is valid for every expression here.
        compiler = ExprCompiler(on_scope, self)
        left_keys = [compiler.compile(e) for e in left_key_asts]
        right_keys = [compiler.compile(e) for e in right_key_asts]
        residual_ast = conjoin(residual_on)
        residual = (compiler.compile(residual_ast)
                    if residual_ast is not None else None)
        kind = "inner" if node.kind == "cross" else node.kind
        if kind == "left":
            # The preserved side must stream so unmatched rows can be
            # NULL-filled: always build on the nullable right side.
            build_side = "right"
        else:
            build_side = ("left" if self._estimate_node(left_plan)
                          < self._estimate_node(right_plan) else "right")
        key_display = ", ".join(
            f"{_display_expr(l)} = {_display_expr(r)}"
            for l, r in zip(left_key_asts, right_key_asts))
        # Rebuild the hash table per rescan only when the build side (or
        # its keys) can observe the outer context.
        build_stable, build_key_asts = (
            (right_stable, right_key_asts) if build_side == "right"
            else (left_stable, left_key_asts))
        keys_correlated = any(column_bindings(ast, on_scope,
                                              self.catalog).outer
                              for ast in build_key_asts)
        rebuild = not build_stable or keys_correlated
        plan = HashJoinPlan(kind, left_plan, right_plan, left_keys,
                            right_keys, residual, compiler.subplans,
                            build_side, key_display,
                            rebuild_on_rescan=rebuild,
                            asts=(left_key_asts, right_key_asts,
                                  residual_ast, on_scope))
        residual_info = (column_bindings(residual_ast, on_scope,
                                         self.catalog)
                         if residual_ast is not None else None)
        all_keys_local = not keys_correlated and not any(
            column_bindings(ast, on_scope, self.catalog).outer
            for ast in (left_key_asts if build_side == "right"
                        else right_key_asts))
        stable = (left_stable and right_stable and all_keys_local
                  and (residual_info is None
                       or not (residual_info.outer or residual_info.unknown)))
        return plan, leftover, stable

    def _try_merge_join(self, left_plan, right_plan,
                        pair: tuple[A.Expr, A.Expr], residual_on: list,
                        on_scope: Scope) -> Optional[MergeJoinPlan]:
        """A MergeJoinPlan when both join inputs are non-lateral base-table
        leaves whose single-column join keys have an *existing* ascending
        sorted index (declared via CREATE INDEX or left behind by an
        earlier ordered scan) — else None.  The leaves' scans are swapped
        for ordered index scans; pushed-down leaf filters survive (a
        filtered subsequence of an ordered stream stays ordered)."""
        left_ast, right_ast = pair
        sides = []
        for leaf, ast in ((left_plan, left_ast), (right_plan, right_ast)):
            if not isinstance(leaf, FromLeafPlan) or leaf.lateral:
                return None
            source = leaf.source
            if not isinstance(source, SeqScanPlan):
                return None
            if not isinstance(ast, A.ColumnRef):
                return None
            try:
                level, rel_index, col_index, fields = \
                    on_scope.resolve(ast.parts)
            except NameResolutionError:
                return None
            if level != 0 or rel_index != leaf.rel_index or fields:
                return None
            table = self.catalog.tables.get(source.table_name)
            if table is None or table.sorted_index_if_exists(
                    (col_index,), (False,)) is None:
                return None
            sides.append((leaf, source, col_index))
        for leaf, source, col_index in sides:
            leaf.source = IndexRangeScanPlan(
                source.table_name, source.output_columns,
                (col_index,), (False,), None, None)
        compiler = ExprCompiler(on_scope, self)
        left_key = compiler.compile(left_ast)
        right_key = compiler.compile(right_ast)
        residual_ast = conjoin(residual_on)
        residual = (compiler.compile(residual_ast)
                    if residual_ast is not None else None)
        key_display = f"{_display_expr(left_ast)} = {_display_expr(right_ast)}"
        return MergeJoinPlan(left_plan, right_plan, left_key, right_key,
                             residual, compiler.subplans, key_display)

    def _equi_key(self, conjunct: A.Expr, left_slots: frozenset,
                  right_slots: frozenset, scope: Scope):
        """``(left_expr, right_expr)`` when *conjunct* is an equality whose
        sides bind cleanly to opposite sides of the join, else None."""
        if not (isinstance(conjunct, A.BinaryOp) and conjunct.op == "="):
            return None
        lb = column_bindings(conjunct.left, scope, self.catalog)
        rb = column_bindings(conjunct.right, scope, self.catalog)
        if lb.unknown or rb.unknown:
            return None
        if lb.rels and lb.rels <= left_slots \
                and rb.rels and rb.rels <= right_slots:
            return conjunct.left, conjunct.right
        if lb.rels and lb.rels <= right_slots \
                and rb.rels and rb.rels <= left_slots:
            return conjunct.right, conjunct.left
        return None

    def _estimate_node(self, plan) -> int:
        """Cardinality estimate for a finalized FROM subtree (heuristic
        input to the hash-join build-side choice)."""
        if isinstance(plan, FromLeafPlan):
            source = plan.source
            if isinstance(source, SeqScanPlan):
                return self.catalog.estimate_rows(source.table_name,
                                                  _DEFAULT_CARDINALITY)
            return _DEFAULT_CARDINALITY
        # Equi-join output is roughly the larger input; good enough here.
        return max(self._estimate_node(plan.left),
                   self._estimate_node(plan.right))

    # ------------------------------------------------------------------
    # Index pushdown
    # ------------------------------------------------------------------

    def _try_index_pushdown(self, where: A.Expr, leaf: FromLeafPlan,
                            scope: Scope):
        """Access-path selection for a single base-table FROM.

        Equality conjuncts ``col = expr`` (where *expr* provably never
        references the scanned relation — correlated keys included) become
        a hash-index scan; failing that, range conjuncts
        ``col < / <= / > / >= expr`` and ``col BETWEEN lo AND hi`` become a
        bisect-backed :class:`~repro.sql.executor.scan.IndexRangeScanPlan`.
        Returns the (possibly new) leaf plan and the residual WHERE.
        """
        from .executor.scan import IndexScanPlan

        source = leaf.source
        assert isinstance(source, SeqScanPlan)
        conjuncts = split_conjuncts(where)
        key_columns: list[int] = []
        key_exprs = []
        residual: list[A.Expr] = []
        compiler = ExprCompiler(scope, self)

        def independent(value_side: A.Expr):
            """Compile *value_side* when it provably never reads the
            scanned relation; None otherwise."""
            hits: list = []
            scope.observer = lambda rel, col: hits.append((rel, col))
            try:
                compiled = compiler.compile(value_side)
            except NameResolutionError:
                return None
            finally:
                scope.observer = None
            return None if hits else compiled

        for conjunct in conjuncts:
            pushed = False
            if isinstance(conjunct, A.BinaryOp) and conjunct.op == "=":
                for column_side, value_side in ((conjunct.left, conjunct.right),
                                                (conjunct.right, conjunct.left)):
                    column = self._leaf_column(column_side, scope)
                    if column is None or column in key_columns:
                        continue
                    compiled = independent(value_side)
                    if compiled is None:
                        continue
                    key_columns.append(column)
                    key_exprs.append(compiled)
                    pushed = True
                    break
            if not pushed:
                residual.append(conjunct)
        if key_columns:
            index_plan = IndexScanPlan(source.table_name,
                                       source.output_columns,
                                       key_columns, key_exprs,
                                       compiler.subplans)
            new_leaf = FromLeafPlan(leaf.rel_index,
                                    len(source.output_columns),
                                    index_plan, lateral=False)
            return new_leaf, conjoin(residual)
        if self.flags.enable_rangescan:
            range_leaf, residual = self._try_range_pushdown(
                residual, leaf, source, scope, compiler, independent)
            if range_leaf is not None:
                return range_leaf, conjoin(residual)
        return leaf, where

    _RANGE_OPS = {"<": ("upper", False), "<=": ("upper", True),
                  ">": ("lower", False), ">=": ("lower", True)}
    _FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

    def _try_range_pushdown(self, conjuncts: list, leaf: FromLeafPlan,
                            source: SeqScanPlan, scope: Scope,
                            compiler: ExprCompiler, independent):
        """Accumulate per-column lower/upper bounds from range conjuncts
        and emit an IndexRangeScan for the best-bounded column.  A bound
        expression must not read the scanned relation and must keep its
        evaluation count when hoisted from per-row WHERE to per-open probe
        (``column_bindings``'s ``unknown`` oracle rejects volatile and
        user-defined calls and subqueries).  Returns
        ``(new leaf | None, residual conjuncts)``."""
        bounds: dict[int, dict] = {}      # column -> side -> (expr, incl, disp)
        consumed: dict[int, list] = {}    # column -> conjuncts it absorbed
        order: list[int] = []
        residual: list[A.Expr] = []

        def bindable(value_side: A.Expr):
            if column_bindings(value_side, scope, self.catalog).unknown:
                return None  # volatile / user call / subquery: stays put
            return independent(value_side)

        for conjunct in conjuncts:
            placed = False
            if isinstance(conjunct, A.BinaryOp) \
                    and conjunct.op in self._RANGE_OPS:
                attempts = ((conjunct.left, conjunct.right, conjunct.op),
                            (conjunct.right, conjunct.left,
                             self._FLIPPED_OPS[conjunct.op]))
                for column_side, value_side, op in attempts:
                    column = self._leaf_column(column_side, scope)
                    if column is None:
                        continue
                    side, inclusive = self._RANGE_OPS[op]
                    if side in bounds.get(column, {}):
                        continue  # first bound wins; extras stay in WHERE
                    compiled = bindable(value_side)
                    if compiled is None:
                        continue
                    entry = bounds.setdefault(column, {})
                    if not entry:
                        order.append(column)
                    entry[side] = (compiled, inclusive,
                                   _display_expr(value_side))
                    consumed.setdefault(column, []).append(conjunct)
                    placed = True
                    break
            elif isinstance(conjunct, A.Between) and not conjunct.negated:
                column = self._leaf_column(conjunct.operand, scope)
                if column is not None and not bounds.get(column):
                    low = bindable(conjunct.low)
                    high = bindable(conjunct.high)
                    if low is not None and high is not None:
                        order.append(column)
                        bounds[column] = {
                            "lower": (low, True, _display_expr(conjunct.low)),
                            "upper": (high, True,
                                      _display_expr(conjunct.high)),
                        }
                        consumed.setdefault(column, []).append(conjunct)
                        placed = True
            if not placed:
                residual.append(conjunct)
        if not order:
            return None, conjuncts
        # Prefer a column bounded on both sides (tightest bisect window).
        chosen = next((c for c in order if len(bounds[c]) == 2), order[0])
        for column in order:
            if column != chosen:
                residual.extend(consumed[column])
        entry = bounds[chosen]
        range_plan = IndexRangeScanPlan(
            source.table_name, source.output_columns, (chosen,), (False,),
            entry.get("lower"), entry.get("upper"), False, compiler.subplans)
        new_leaf = FromLeafPlan(leaf.rel_index, len(source.output_columns),
                                range_plan, lateral=False)
        return new_leaf, residual

    def _eliminate_sort(self, order_by: list, items: list,
                        leaf: FromLeafPlan, scope: Scope) -> bool:
        """Swap the leaf's scan for an ordered index scan when an existing
        sorted index already delivers the requested ORDER BY (tracking
        ASC/DESC per key, default NULLS placement only), so the planner
        can drop the Sort node.  True on success."""
        aliases = [(_derive_name(i) or "").lower() for i in items]
        wanted: list[tuple[int, bool]] = []
        for sort_item in order_by:
            kind, value = _sort_item_target(sort_item.expr, items, aliases)
            if kind == "position":
                if not 1 <= value <= len(items):
                    return False  # keep the sort path's range error
                expr = items[value - 1].expr
            elif kind == "alias":
                expr = items[value].expr
            else:
                expr = value
            if not isinstance(expr, A.ColumnRef):
                return False
            try:
                level, rel_index, col_index, fields = scope.resolve(expr.parts)
            except NameResolutionError:
                return False
            if level != 0 or rel_index != leaf.rel_index or fields:
                return False
            descending = sort_item.descending
            if sort_item.nulls_first is not None \
                    and sort_item.nulls_first != descending:
                return False  # non-default NULLS placement: keep the sort
            wanted.append((col_index, descending))
        source = leaf.source
        if isinstance(source, IndexRangeScanPlan):
            # A range scan already delivers its key column in order; a DESC
            # request just flips the iteration direction.
            if len(source.key_columns) == 1 and len(wanted) == 1 \
                    and wanted[0][0] == source.key_columns[0] \
                    and not source.key_desc[0]:
                source.reverse = wanted[0][1]
                return True
            return False
        if not isinstance(source, SeqScanPlan):
            return False
        table = self.catalog.tables.get(source.table_name)
        if table is None:
            return False
        found = table.find_ordered_index(wanted)
        if found is None:
            return False
        index, reverse = found
        leaf.source = IndexRangeScanPlan(
            source.table_name, source.output_columns,
            index.columns, index.descending, None, None, reverse)
        return True

    @staticmethod
    def _leaf_column(expr: A.Expr, scope: Scope) -> Optional[int]:
        """Column index when *expr* is a direct reference to relation 0 of
        *scope* (no composite field tail), else None."""
        if not isinstance(expr, A.ColumnRef):
            return None
        try:
            level, rel_index, col_index, fields = scope.resolve(expr.parts)
        except NameResolutionError:
            return None
        if level == 0 and rel_index == 0 and not fields:
            return col_index
        return None

    @staticmethod
    def _check_duplicate_alias(alias: str, relations: list[Relation]) -> None:
        if any(rel.alias == alias for rel in relations):
            raise PlanError(f"table alias {alias!r} used more than once")

    def _expand_star(self, star: A.Star,
                     relations: list[Relation]) -> list[A.SelectItem]:
        out: list[A.SelectItem] = []
        wanted = star.table.lower() if star.table else None
        matched = False
        for rel in relations:
            if wanted is not None and rel.alias != wanted:
                continue
            matched = True
            for column in rel.columns:
                out.append(A.SelectItem(A.ColumnRef((rel.alias, column)),
                                        alias=column))
        if wanted is not None and not matched:
            raise NameResolutionError(f"unknown relation {star.table!r} in "
                                      f"{star.table}.*")
        if wanted is None and not relations:
            raise PlanError("SELECT * requires a FROM clause")
        return out

    # ------------------------------------------------------------------
    # Aggregation planning
    # ------------------------------------------------------------------

    def _plan_aggregation(self, core: A.SelectCore, scope: Scope,
                          outer_scope: Optional[Scope],
                          item_exprs: list[A.Expr], having: Optional[A.Expr]):
        pre_compiler = ExprCompiler(scope, self)
        group_keys = [pre_compiler.compile(e) for e in core.group_by]
        agg_calls: list[AggCallPlan] = []

        key_names = [f"__key{i}" for i in range(len(core.group_by))]
        agg_rel_columns = list(key_names)

        def to_agg_column(expr: A.Expr) -> Optional[A.Expr]:
            for key_index, key_expr in enumerate(core.group_by):
                if expr_equal(expr, key_expr):
                    return A.ColumnRef(("__agg", key_names[key_index]))
            if isinstance(expr, A.FuncCall) and expr.window is None \
                    and is_aggregate_name(expr.name):
                agg_index = len(agg_calls)
                agg_calls.append(self._make_agg_call(expr, pre_compiler))
                column = f"__agg{agg_index}"
                agg_rel_columns.append(column)
                return A.ColumnRef(("__agg", column))
            return None

        def rewrite(node):
            return rewrite_expr(node, to_agg_column)

        rewritten_items = [rewrite(e) for e in item_exprs]
        rewritten_having = rewrite(having) if having is not None else None

        post_scope = Scope([Relation("__agg", agg_rel_columns)],
                           parent=outer_scope)
        having_compiler = ExprCompiler(post_scope, self)
        having_fn = (having_compiler.compile(rewritten_having)
                     if rewritten_having is not None else None)
        stage = AggStagePlan(group_keys, agg_calls, having_fn,
                             pre_compiler.subplans, having_compiler.subplans)
        return stage, rewritten_items, None, post_scope, rewrite

    def _make_agg_call(self, call: A.FuncCall,
                       compiler: ExprCompiler) -> AggCallPlan:
        name = call.name.lower()
        separator = ""
        args = list(call.args)
        if name == "string_agg":
            if len(args) != 2 or not isinstance(args[1], A.Literal):
                raise PlanError("string_agg requires (value, constant separator)")
            separator = str(args[1].value)
            args = args[:1]
        if call.star:
            return AggCallPlan(name, True, None, call.distinct, separator)
        if len(args) != 1:
            raise PlanError(f"aggregate {name}() takes exactly one argument")
        if contains_aggregate(args[0]):
            raise PlanError("aggregate calls cannot be nested")
        return AggCallPlan(name, False, compiler.compile(args[0]),
                           call.distinct, separator, arg_ast=args[0])

    # ------------------------------------------------------------------
    # Window planning
    # ------------------------------------------------------------------

    def _plan_windows(self, core: A.SelectCore, scope: Scope,
                      outer_scope: Optional[Scope], item_exprs: list[A.Expr],
                      agg_rewrite=None):
        compiler = ExprCompiler(scope, self)
        calls: list[WindowCallPlan] = []
        columns: list[str] = []

        def to_window_column(expr: A.Expr) -> Optional[A.Expr]:
            if isinstance(expr, A.FuncCall) and expr.window is not None:
                index = len(calls)
                calls.append(self._make_window_call(expr, core, compiler,
                                                    agg_rewrite))
                column = f"__w{index}"
                columns.append(column)
                return A.ColumnRef(("__win", column))
            return None

        rewritten = [rewrite_expr(e, to_window_column) for e in item_exprs]
        post_scope = Scope(scope.relations + [Relation("__win", columns)],
                           parent=outer_scope)
        return WindowStagePlan(calls, compiler.subplans), rewritten, post_scope

    def _make_window_call(self, call: A.FuncCall, core: A.SelectCore,
                          compiler: ExprCompiler,
                          agg_rewrite=None) -> WindowCallPlan:
        name = call.name.lower()
        if not (is_aggregate_name(name) or is_window_function_name(name)):
            raise PlanError(f"{name}() is not a window function or aggregate")
        spec = self._resolve_window_spec(call.window, core)
        if agg_rewrite is not None:
            # Grouped query: the spec's PARTITION BY / ORDER BY expressions
            # reference pre-aggregation columns; map them to the __agg
            # relation exactly like the select list was mapped.
            spec = agg_rewrite(spec)
        separator = ""
        args = list(call.args)
        if name == "string_agg":
            if len(args) != 2 or not isinstance(args[1], A.Literal):
                raise PlanError("string_agg requires (value, constant separator)")
            separator = str(args[1].value)
            args = args[:1]
        frame = spec.frame
        frame_compiled = None
        if frame is not None:
            start = A.FrameBound(frame.start.kind,
                                 compiler.compile(frame.start.offset)
                                 if frame.start.offset is not None else None)
            end = A.FrameBound(frame.end.kind,
                               compiler.compile(frame.end.offset)
                               if frame.end.offset is not None else None)
            frame_compiled = A.FrameSpec(frame.mode, start, end, frame.exclusion)
        return WindowCallPlan(
            func_name=name,
            args=[compiler.compile(a) for a in args],
            star=call.star,
            partition_by=[compiler.compile(e) for e in spec.partition_by],
            order_by=[compiler.compile(s.expr) for s in spec.order_by],
            order_desc=[s.descending for s in spec.order_by],
            frame=frame_compiled,
            separator=separator,
        )

    # ------------------------------------------------------------------
    # Set-oriented compiled-UDF calls (the BatchedUdf operator)
    # ------------------------------------------------------------------

    def _plan_batched_udfs(self, item_exprs: list[A.Expr], scope: Scope,
                           outer_scope: Optional[Scope]):
        """Rewrite eligible compiled-function calls in the select list to
        read from the ``__batch`` relation computed by one set-oriented
        trampoline run per call site (executor/batched_udf.py).

        Returns ``(stage, item_exprs, scope)``; stage is None (and the
        inputs pass through untouched) when nothing batches.  Identical
        call sites share one batch column, so ``SELECT f(x), f(x)`` runs a
        single trampoline.
        """
        calls: list = []
        originals: list[A.FuncCall] = []
        columns: list[str] = []
        compiler = ExprCompiler(scope, self)

        def to_batch_column(expr: A.Expr) -> Optional[A.Expr]:
            if isinstance(expr, A.FuncCall) and self._batchable(expr, scope):
                for index, seen in enumerate(originals):
                    if expr_equal(expr, seen):
                        return A.ColumnRef(("__batch", columns[index]))
                fdef = self.catalog.get_function(expr.name)
                assert fdef is not None
                column = f"__b{len(calls)}"
                calls.append(self.trampoline_site(
                    fdef, expr, [compiler.compile(a) for a in expr.args]))
                originals.append(expr)
                columns.append(column)
                return A.ColumnRef(("__batch", column))
            return None

        rewritten = [rewrite_expr(e, to_batch_column) for e in item_exprs]
        if not calls:
            return None, item_exprs, scope
        post_scope = Scope(scope.relations + [Relation("__batch", columns)],
                           parent=outer_scope)
        return (BatchedUdfStagePlan(calls, compiler.subplans),
                rewritten, post_scope)

    def _batchable(self, call: A.FuncCall, scope: Scope) -> bool:
        """May *call* share the batched trampoline?  Requires a compiled
        function whose machine is ``shareable`` (loop-free bodies have no
        machine; a body calling a volatile builtin or a volatile
        user-defined helper is never shareable, whatever its declaration
        says: sharing a trampoline reorders draws and, through argument
        dedup, drops them) and that the analyzer does not class volatile
        (a declared VOLATILE counts here), and argument expressions whose
        evaluation can safely move into the batch stage: no subqueries, no
        volatile calls
        (``column_bindings``'s ``unknown`` oracle; user-defined calls in
        argument position pass when the static analyzer proves them pure,
        repro.analysis.volatility).  A site that fails any of this runs
        one activation per call instead (ExprCompiler._compile_FuncCall)."""
        if call.window is not None or call.star or call.distinct:
            return False
        fdef = self.catalog.get_function(call.name)
        if fdef is None or fdef.kind != "compiled" \
                or fdef.batch_machine is None \
                or not fdef.batch_machine.shareable:
            return False
        if len(call.args) != fdef.arity:
            return False  # the per-call site raises the arity error
        from ..analysis.volatility import effective_volatility
        if effective_volatility(fdef, self.catalog) == "volatile":
            return False
        return all(not column_bindings(arg, scope, self.catalog).unknown
                   for arg in call.args)

    def trampoline_site(self, fdef, call: A.FuncCall, args: list,
                        per_call: bool = False):
        """The plan of one call site of *fdef* on the trampoline: *args*
        are the compiled argument expressions of *call*."""
        from ..analysis.volatility import effective_volatility
        site = self._trampoline_template(fdef).at_call_site(
            fdef.name, ", ".join(_display_expr(a) for a in call.args), args)
        if per_call:
            site.per_call = True
        site.volatility = effective_volatility(fdef, self.catalog)
        return site

    def _trampoline_template(self, fdef):
        """The machine rules of *fdef*, compiled once.

        Cached on the FunctionDef: the trampoline takes its arguments as
        values (a batch-input relation, a parameter row) rather than as
        spliced-in expressions, so one compiled template serves every call
        site of every statement running under the same plan stamp
        (Database.plan_stamp).  It is therefore compiled
        outside the calling statement's context: that statement's CTE
        names and its subquery nesting must not leak into a plan other
        statements will run."""
        stamp = self.db.plan_stamp()
        template = fdef.body_plans.get(stamp)
        if template is None:
            saved = self._cte_env, self.expr_subquery_depth
            self._cte_env, self.expr_subquery_depth = None, 0
            try:
                template = compile_machine(fdef.batch_machine, self)
            finally:
                self._cte_env, self.expr_subquery_depth = saved
            fdef.body_plans[stamp] = template
        return template

    def _resolve_window_spec(self, window, core: A.SelectCore) -> A.WindowSpec:
        if isinstance(window, str):
            spec = core.windows.get(window.lower())
            if spec is None:
                raise PlanError(f"unknown window {window!r}")
            return self._resolve_window_spec(spec, core)
        assert isinstance(window, A.WindowSpec)
        if window.ref_name is None:
            return window
        base = core.windows.get(window.ref_name.lower())
        if base is None:
            raise PlanError(f"unknown window {window.ref_name!r}")
        base = self._resolve_window_spec(base, core)
        if window.partition_by:
            raise PlanError("cannot override PARTITION BY of a named window")
        if window.order_by and base.order_by:
            raise PlanError("cannot override ORDER BY of a named window")
        return A.WindowSpec(
            ref_name=None,
            partition_by=base.partition_by,
            order_by=window.order_by or base.order_by,
            frame=window.frame if window.frame is not None else base.frame,
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _sort_item_target(expr: A.Expr, items: list, aliases: list):
    """Classify an ORDER BY expression against the select list — the one
    resolution rule shared by hidden-key compilation, positional sorting
    and sort elimination, which must agree or an eliminated sort could
    order by a different column than the Sort it replaces.

    Returns ``("position", ordinal)`` for a 1-based integer literal,
    ``("alias", item index)`` for a bare name matching a select alias,
    else ``("expr", expr)``.
    """
    if isinstance(expr, A.Literal) and isinstance(expr.value, int) \
            and not isinstance(expr.value, bool):
        return "position", expr.value
    if isinstance(expr, A.ColumnRef) and len(expr.parts) == 1 \
            and expr.parts[0].lower() in aliases:
        return "alias", aliases.index(expr.parts[0].lower())
    return "expr", expr


def _constant_topn_count(stmt: A.SelectStmt) -> Optional[int]:
    """``limit + offset`` when both are non-negative integer literals
    (LIMIT required), else None — only constants let the planner bound the
    Top-N heap without changing when the bound expressions run."""
    limit = stmt.limit
    if not (isinstance(limit, A.Literal) and type(limit.value) is int
            and limit.value >= 0):
        return None
    offset = stmt.offset
    if offset is None:
        return limit.value
    if not (isinstance(offset, A.Literal) and type(offset.value) is int
            and offset.value >= 0):
        return None
    return limit.value + offset.value


def _flatten_union(body, op: str, cte_name: str) -> list:
    """Flatten a chain of set operations of one kind into its terms."""
    if isinstance(body, A.SetOp):
        if body.op != op:
            raise PlanError(
                f"recursive CTE {cte_name!r} mixes UNION and UNION ALL")
        return (_flatten_union(body.left, op, cte_name)
                + _flatten_union(body.right, op, cte_name))
    return [body]


def _prefix_scope(scope: Scope, prefix_len: int) -> Scope:
    """A scope exposing only the first *prefix_len* relations of *scope*.

    Later relations are replaced by unresolvable placeholders so their
    vector indices stay aligned; references to them fail name resolution at
    plan time (like PostgreSQL's "cannot be referenced from this part of
    the query") instead of reading unfilled slots at run time.
    """
    if prefix_len >= len(scope.relations):
        return scope
    masked = list(scope.relations[:prefix_len])
    masked += [Relation("\x00masked", [])
               for _ in range(len(scope.relations) - prefix_len)]
    return Scope(masked, parent=scope.parent)


def _collect_nullable_rels(node, out: set) -> None:
    """Relation indices under the nullable (right) side of any LEFT JOIN in
    the draft tree — WHERE conjuncts touching these must not be pushed
    below the null-filling join."""
    if isinstance(node, _JoinDraft):
        if node.kind == "left":
            out.update(index for index, _ in node.right.rel_slots)
        _collect_nullable_rels(node.left, out)
        _collect_nullable_rels(node.right, out)


def _contains_lateral(plan) -> bool:
    """Does this finalized FROM subtree contain a LATERAL leaf?  Those must
    be re-evaluated per outer tick, so hash joins never cover them."""
    if isinstance(plan, FromLeafPlan):
        return plan.lateral
    return _contains_lateral(plan.left) or _contains_lateral(plan.right)


def _display_expr(expr: A.Expr) -> str:
    """Terse rendering of a join-key expression for EXPLAIN output."""
    if isinstance(expr, A.ColumnRef):
        return ".".join(expr.parts)
    if isinstance(expr, A.Literal):
        return repr(expr.value)
    return "<expr>"


def _apply_column_aliases(cte_name: str, derived: list[str],
                          aliases: Optional[list[str]]) -> list[str]:
    if aliases is None:
        return list(derived)
    if len(aliases) != len(derived):
        raise PlanError(
            f"CTE {cte_name!r} declares {len(aliases)} columns but its query "
            f"produces {len(derived)}")
    return [a.lower() for a in aliases]


def _derive_name(item: A.SelectItem) -> str:
    if item.alias:
        return item.alias.lower()
    expr = item.expr
    if isinstance(expr, A.ColumnRef):
        return expr.parts[-1].lower()
    if isinstance(expr, A.FuncCall):
        return expr.name.lower()
    if isinstance(expr, A.Cast):
        inner = _derive_name(A.SelectItem(expr.operand))
        return inner if inner != "?column?" else expr.type_name.lower()
    if isinstance(expr, A.FieldAccess):
        return expr.fieldname.lower()
    if isinstance(expr, A.CaseExpr):
        return "case"
    return "?column?"
