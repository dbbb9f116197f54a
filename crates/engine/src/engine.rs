//! The simulated DBMS: optimizer (hint- and switch-steerable plan choice),
//! statement execution and the session interface used by TQS.

use crate::dml::{apply_mutation, DmlOp, DmlOutcome};
use crate::exec::{execute_join, ColumnPruner, ExecContext, ExecError, Rel};
use crate::faults::{FaultKind, FaultSet};
use crate::joinkeys::col_index;
use crate::plan::{JoinAlgo, PhysicalJoin, PhysicalPlan, SubqueryPlan};
use crate::profiles::DbmsProfile;
use std::cell::RefCell;
use std::collections::HashMap;
use tqs_sql::ast::{AggFunc, BinOp, ColumnRef, DmlStmt, Expr, JoinType, SelectItem, SelectStmt};
use tqs_sql::eval::{
    eval_expr, eval_predicate, ChainedResolver, ColumnResolver, EvalError, SubqueryHandler,
    SubqueryMemo,
};
use tqs_sql::hints::{Hint, HintSet, SemiJoinStrategy, SessionSwitch, SwitchName};
use tqs_sql::parser::{parse_dml, parse_stmt, ParseError};
use tqs_sql::value::{sql_compare, KeyBuf, SqlCmp, Value};
use tqs_storage::{Catalog, ResultSet, Row};
use tqs_telemetry::QueryProfile;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    UnknownTable(String),
    Parse(ParseError),
    Exec(ExecError),
    Eval(EvalError),
    Unsupported(String),
    /// The disk engine's page store failed (I/O error or injected crash).
    Storage(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Exec(e) => write!(f, "{e}"),
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Storage(m) => write!(f, "storage: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}
impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}
impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    pub result: ResultSet,
    pub plan: PhysicalPlan,
    /// Faults that fired during this execution. The detector must not look at
    /// this; the benchmark harness uses it as "developer root-cause analysis"
    /// when reproducing Table 4.
    pub fired: Vec<FaultKind>,
    /// Operator-level row counts and timings, collected only while telemetry
    /// is enabled (`None` otherwise — the hot path stays allocation-free).
    pub profile: Option<QueryProfile>,
}

/// The open transaction of a session: the catalog as it stood at `BEGIN`
/// (cheap to keep — tables are `Arc`-shared until mutated) plus the ops
/// applied since, in order.
#[derive(Debug, Clone)]
pub(crate) struct DmlTxn {
    snapshot: Catalog,
    ops: Vec<DmlOp>,
}

/// A simulated DBMS instance: a loaded catalog, a profile (with its latent
/// faults), and per-session optimizer switches.
#[derive(Debug, Clone)]
pub struct Database {
    pub catalog: Catalog,
    pub profile: DbmsProfile,
    pub(crate) switches: HashMap<SwitchName, bool>,
    /// The open transaction, if any (single-session visibility: this
    /// session's own uncommitted writes live directly in `catalog`).
    txn: Option<DmlTxn>,
}

impl Database {
    pub fn new(catalog: Catalog, profile: DbmsProfile) -> Self {
        Database {
            catalog,
            profile,
            switches: HashMap::new(),
            txn: None,
        }
    }

    /// Is a transaction open on this session?
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Ops the open transaction has applied so far (empty outside one). The
    /// disk engine replays these onto its scanned catalog so a session sees
    /// its own uncommitted writes.
    pub fn txn_ops(&self) -> &[DmlOp] {
        self.txn.as_ref().map(|t| t.ops.as_slice()).unwrap_or(&[])
    }

    /// Drop any open transaction without touching the catalog — the disk
    /// engine's crash recovery discards in-flight state this way after it
    /// has rebuilt the catalog from durable storage.
    pub(crate) fn clear_txn(&mut self) {
        self.txn = None;
    }

    /// Execute one DML / transaction-control statement against this session.
    ///
    /// Mutations apply immediately to `catalog` (this session sees its own
    /// writes); `BEGIN` snapshots, `ROLLBACK` restores the snapshot exactly
    /// and `COMMIT` makes the delta permanent. The enabled
    /// [`FaultKind::DML`] faults fire here on their trigger shapes — see the
    /// [`crate::dml`] module docs.
    pub fn execute_dml(&mut self, stmt: &DmlStmt) -> Result<DmlOutcome, EngineError> {
        match stmt {
            DmlStmt::Begin => {
                if self.txn.is_some() {
                    return Err(EngineError::Unsupported(
                        "BEGIN inside an open transaction".into(),
                    ));
                }
                self.txn = Some(DmlTxn {
                    snapshot: self.catalog.clone(),
                    ops: Vec::new(),
                });
                Ok(DmlOutcome::default())
            }
            DmlStmt::Commit => {
                let t = self.txn.take().ok_or_else(|| {
                    EngineError::Unsupported("COMMIT without an open transaction".into())
                })?;
                let mut out = DmlOutcome {
                    ops: t.ops,
                    ..DmlOutcome::default()
                };
                if self
                    .profile
                    .faults
                    .contains(FaultKind::DmlCommitBoundaryTornVisibility)
                {
                    // The commit publishes every buffered change except the
                    // last: tear it back off the live catalog.
                    if let Some(last) = out.ops.pop() {
                        last.revert(&mut self.catalog);
                        out.fire(FaultKind::DmlCommitBoundaryTornVisibility);
                    }
                }
                Ok(out)
            }
            DmlStmt::Rollback => {
                let t = self.txn.take().ok_or_else(|| {
                    EngineError::Unsupported("ROLLBACK without an open transaction".into())
                })?;
                self.catalog = t.snapshot;
                let mut out = DmlOutcome::default();
                if self
                    .profile
                    .faults
                    .contains(FaultKind::DmlRollbackLeaksInsertedRow)
                {
                    // The rollback missed the transaction's first insert: the
                    // row comes back, appended at the end of its table.
                    let leaked = t.ops.iter().find_map(|op| match op {
                        DmlOp::Insert { table, row, .. } => Some((table.clone(), row.clone())),
                        _ => None,
                    });
                    if let Some((table, row)) = leaked {
                        if let Some(tab) = self.catalog.table_mut(&table) {
                            let idx = tab.rows.len();
                            tab.rows.push(Row::new(row.clone()));
                            out.ops.push(DmlOp::Insert { table, idx, row });
                            out.fire(FaultKind::DmlRollbackLeaksInsertedRow);
                        }
                    }
                }
                Ok(out)
            }
            _ => {
                let out = apply_mutation(&mut self.catalog, &self.profile.faults, stmt)?;
                if let Some(t) = self.txn.as_mut() {
                    t.ops.extend(out.ops.iter().cloned());
                }
                Ok(out)
            }
        }
    }

    /// Execute DML text (parses one statement, then executes).
    pub fn execute_dml_sql(&mut self, sql: &str) -> Result<DmlOutcome, EngineError> {
        let stmt = parse_dml(sql)?;
        self.execute_dml(&stmt)
    }

    /// `SET optimizer_switch='name=on|off'`.
    pub fn apply_switch(&mut self, s: SessionSwitch) {
        self.switches.insert(s.name, s.on);
    }

    pub fn reset_switches(&mut self) {
        self.switches.clear();
    }

    fn switch_on(&self, name: SwitchName) -> bool {
        *self.switches.get(&name).unwrap_or(&true)
    }

    pub(crate) fn switched_off_names(&self) -> Vec<&'static str> {
        SwitchName::ALL
            .iter()
            .filter(|n| !self.switch_on(**n))
            .map(|n| n.name())
            .collect()
    }

    /// Execute a transformed query: apply the hint set's session switches,
    /// splice its hints into the statement, execute, then restore switches.
    pub fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<ExecOutcome, EngineError> {
        let saved = self.switches.clone();
        for s in &hints.switches {
            self.apply_switch(*s);
        }
        let mut hinted = stmt.clone();
        hinted.hints.extend(hints.hints.iter().cloned());
        let out = self.execute(&hinted);
        self.switches = saved;
        out
    }

    /// Execute SQL text (parses, then executes).
    pub fn execute_sql(&self, sql: &str) -> Result<ExecOutcome, EngineError> {
        let stmt = parse_stmt(sql)?;
        self.execute(&stmt)
    }

    /// EXPLAIN: the physical plan the optimizer would choose.
    pub fn explain(&self, stmt: &SelectStmt) -> Result<String, EngineError> {
        Ok(self.plan(stmt)?.explain())
    }

    /// The optimizer: choose a physical plan for `stmt` given the session
    /// switches, the statement's hints and the profile defaults.
    pub fn plan(&self, stmt: &SelectStmt) -> Result<PhysicalPlan, EngineError> {
        let mut notes = Vec::new();
        let materialization = self.materialization_enabled(stmt);
        let semi_strategy = self.semi_strategy(stmt);
        let subquery_plan = self.subquery_plan(stmt, materialization, semi_strategy);

        // Join order: AST order unless a JOIN_ORDER hint gives a valid
        // alternative (base table stays first; every ON must only reference
        // bindings already joined).
        let mut join_order: Vec<usize> = (0..stmt.from.joins.len()).collect();
        if let Some(Hint::JoinOrder(order)) =
            stmt.hints.iter().find(|h| matches!(h, Hint::JoinOrder(_)))
        {
            if let Some(reordered) = self.reorder_joins(stmt, order) {
                join_order = reordered;
                notes.push("join order forced by JOIN_ORDER hint".into());
            } else {
                notes.push("JOIN_ORDER hint ignored (invalid order)".into());
            }
        }

        // Outer-join simplification: a LEFT OUTER JOIN whose right side is
        // referenced by a null-rejecting WHERE conjunct or by a later inner
        // join condition is rewritten to an inner join.
        let simplify: Vec<bool> = stmt
            .from
            .joins
            .iter()
            .enumerate()
            .map(|(i, j)| {
                j.join_type == JoinType::LeftOuter && self.null_rejecting_reference(stmt, i)
            })
            .collect();

        let mut joins = Vec::new();
        for &i in &join_order {
            let j = &stmt.from.joins[i];
            let binding = j.table.binding().to_string();
            let (join_type, simplified) = if simplify[i] {
                notes.push(format!(
                    "left outer join {binding} simplified to inner join"
                ));
                (JoinType::Inner, true)
            } else {
                (j.join_type, false)
            };
            let right_has_key = self.right_has_key(j);
            let algo = self.choose_algo(stmt, &binding, join_type, right_has_key);
            let buffer_rows = self.buffer_for(algo, join_type);
            joins.push(PhysicalJoin {
                right_binding: binding,
                join_type,
                algo,
                simplified_from_outer: simplified,
                buffer_rows,
            });
        }

        Ok(PhysicalPlan {
            base_binding: stmt.from.base.binding().to_string(),
            joins,
            subquery_plan,
            notes,
        })
    }

    pub(crate) fn materialization_enabled(&self, stmt: &SelectStmt) -> bool {
        if let Some(Hint::Materialization(b)) = stmt
            .hints
            .iter()
            .find(|h| matches!(h, Hint::Materialization(_)))
        {
            return *b;
        }
        self.switch_on(SwitchName::Materialization) && self.profile.default_materialization
    }

    pub(crate) fn semi_strategy(&self, stmt: &SelectStmt) -> Option<SemiJoinStrategy> {
        for h in &stmt.hints {
            match h {
                Hint::NoSemiJoin => return None,
                Hint::SemiJoin(Some(s)) => return Some(*s),
                Hint::SemiJoin(None) => return Some(SemiJoinStrategy::Materialization),
                _ => {}
            }
        }
        if self.profile.default_semijoin_transform {
            Some(SemiJoinStrategy::Materialization)
        } else {
            Some(SemiJoinStrategy::FirstMatch)
        }
    }

    fn subquery_plan(
        &self,
        stmt: &SelectStmt,
        materialization: bool,
        semi: Option<SemiJoinStrategy>,
    ) -> SubqueryPlan {
        if !stmt.has_subquery() {
            return SubqueryPlan::DirectPerRow;
        }
        if stmt
            .hints
            .iter()
            .any(|h| matches!(h, Hint::SubqueryToDerived))
        {
            return SubqueryPlan::SubqueryToDerived;
        }
        match semi {
            Some(s) if self.profile.default_semijoin_transform => {
                SubqueryPlan::SemiJoinTransform(s)
            }
            _ if materialization => SubqueryPlan::Materialize,
            _ => SubqueryPlan::DirectPerRow,
        }
    }

    fn reorder_joins(&self, stmt: &SelectStmt, order: &[String]) -> Option<Vec<usize>> {
        if stmt.from.joins.iter().any(|j| {
            !matches!(
                j.join_type,
                JoinType::Inner | JoinType::Cross | JoinType::LeftOuter
            )
        }) {
            return None;
        }
        let mut result = Vec::new();
        for name in order {
            if name.eq_ignore_ascii_case(stmt.from.base.binding()) {
                continue;
            }
            let idx = stmt
                .from
                .joins
                .iter()
                .position(|j| j.table.binding().eq_ignore_ascii_case(name))?;
            if !result.contains(&idx) {
                result.push(idx);
            }
        }
        for i in 0..stmt.from.joins.len() {
            if !result.contains(&i) {
                result.push(i);
            }
        }
        // validity: each join's ON may only reference already-available bindings
        let mut available: Vec<String> = vec![stmt.from.base.binding().to_lowercase()];
        for &i in &result {
            let j = &stmt.from.joins[i];
            let self_binding = j.table.binding().to_lowercase();
            if let Some(on) = &j.on {
                for c in on.column_refs() {
                    if let Some(t) = &c.table {
                        let t = t.to_lowercase();
                        if t != self_binding && !available.contains(&t) {
                            return None;
                        }
                    }
                }
            }
            available.push(self_binding);
        }
        Some(result)
    }

    /// Does a WHERE conjunct or a conjunct of a later inner-join condition
    /// reject NULLs of the right side of join `idx`? A conjunct rejects them
    /// when it is a comparison other than `<=>` that mentions the binding;
    /// `IS NULL` and other NULL-accepting conjuncts do not.
    fn null_rejecting_reference(&self, stmt: &SelectStmt, idx: usize) -> bool {
        let binding = stmt.from.joins[idx].table.binding().to_lowercase();
        let mentions = |e: &Expr| -> bool {
            e.column_refs().iter().any(|c| {
                c.table
                    .as_ref()
                    .map(|t| t.to_lowercase() == binding)
                    .unwrap_or(false)
            })
        };
        let rejects = |e: &Expr| -> bool {
            e.conjuncts().into_iter().any(|c| match c {
                Expr::Binary { op, .. } => {
                    op.is_comparison() && *op != BinOp::NullSafeEq && mentions(c)
                }
                _ => false,
            })
        };
        let later_on = stmt
            .from
            .joins
            .iter()
            .skip(idx + 1)
            .filter(|j| matches!(j.join_type, JoinType::Inner | JoinType::Semi))
            .filter_map(|j| j.on.as_ref());
        later_on.chain(stmt.where_clause.as_ref()).any(rejects)
    }

    fn right_has_key(&self, join: &tqs_sql::ast::Join) -> bool {
        let table = match self.catalog.table(&join.table.table) {
            Some(t) => t,
            None => return false,
        };
        match &join.on {
            Some(on) => on.column_refs().iter().any(|c| {
                c.table
                    .as_ref()
                    .map(|t| t.eq_ignore_ascii_case(join.table.binding()))
                    .unwrap_or(false)
                    && table.has_key_on(&c.column)
            }),
            None => false,
        }
    }

    fn choose_algo(
        &self,
        stmt: &SelectStmt,
        binding: &str,
        join_type: JoinType,
        right_has_key: bool,
    ) -> JoinAlgo {
        let applies = |tables: &Vec<String>| {
            tables.is_empty() || tables.iter().any(|t| t.eq_ignore_ascii_case(binding))
        };
        let mut forbidden_hash = false;
        for h in &stmt.hints {
            match h {
                Hint::HashJoin(t) if applies(t) => return JoinAlgo::HashJoin,
                Hint::MergeJoin(t) if applies(t) => return JoinAlgo::SortMergeJoin,
                Hint::NlJoin(t) if applies(t) => {
                    return if self.switch_on(SwitchName::BlockNestedLoop) {
                        JoinAlgo::BlockNestedLoop
                    } else {
                        JoinAlgo::NestedLoop
                    }
                }
                Hint::IndexJoin(t) if applies(t) => return JoinAlgo::IndexJoin,
                Hint::NoHashJoin(t) if applies(t) => forbidden_hash = true,
                _ => {}
            }
        }
        if join_type == JoinType::Cross {
            return JoinAlgo::NestedLoop;
        }
        let mut algo = self.profile.default_equi_algo;
        // profile/switch modulation
        if algo == JoinAlgo::IndexJoin && !right_has_key {
            algo = JoinAlgo::HashJoin;
        }
        if self.profile.info.name.starts_with("MariaDB") {
            algo = if right_has_key
                && self.switch_on(SwitchName::BatchedKeyAccess)
                && self.switch_on(SwitchName::JoinCacheBka)
            {
                JoinAlgo::BatchedKeyAccess
            } else if self.switch_on(SwitchName::JoinCacheHashed) {
                JoinAlgo::BlockNestedLoopHashed
            } else {
                JoinAlgo::BlockNestedLoop
            };
        }
        if algo == JoinAlgo::HashJoin && (!self.switch_on(SwitchName::HashJoin) || forbidden_hash) {
            algo = if self.switch_on(SwitchName::BlockNestedLoop) {
                JoinAlgo::BlockNestedLoop
            } else {
                JoinAlgo::NestedLoop
            };
        }
        if algo == JoinAlgo::BlockNestedLoopHashed && !self.switch_on(SwitchName::JoinCacheHashed) {
            algo = JoinAlgo::BlockNestedLoop;
        }
        if algo == JoinAlgo::BatchedKeyAccess && !self.switch_on(SwitchName::JoinCacheBka) {
            algo = JoinAlgo::BlockNestedLoop;
        }
        if !self.switch_on(SwitchName::BlockNestedLoop) && algo == JoinAlgo::BlockNestedLoop {
            algo = JoinAlgo::NestedLoop;
        }
        algo
    }

    fn buffer_for(&self, algo: JoinAlgo, join_type: JoinType) -> Option<usize> {
        let buffered = matches!(
            algo,
            JoinAlgo::BlockNestedLoop
                | JoinAlgo::BlockNestedLoopHashed
                | JoinAlgo::BatchedKeyAccess
        );
        if !buffered {
            return None;
        }
        let outer = matches!(
            join_type,
            JoinType::LeftOuter | JoinType::RightOuter | JoinType::FullOuter
        );
        if outer && !self.switch_on(SwitchName::OuterJoinWithCache) {
            return None;
        }
        Some(self.profile.join_buffer_rows)
    }

    /// Execute a statement and return its result set, plan and fired faults.
    pub fn execute(&self, stmt: &SelectStmt) -> Result<ExecOutcome, EngineError> {
        let plan = self.plan(stmt)?;
        let mut ctx = ExecContext::new(self.profile.faults.clone());
        ctx.switched_off = self.switched_off_names();
        ctx.materialization = self.materialization_enabled(stmt);
        ctx.subquery_present = stmt.has_subquery();
        ctx.semi_strategy = self.semi_strategy(stmt);
        ctx.check_cancelled()?;

        let _stmt_span = tqs_telemetry::span("engine", "row.execute");

        // Base scan (pruned to the columns the statement can observe).
        let op_t0 = ctx.op_start();
        let pruner = ColumnPruner::new(stmt);
        let base_table = self
            .catalog
            .table(&stmt.from.base.table)
            .ok_or_else(|| EngineError::UnknownTable(stmt.from.base.table.clone()))?;
        let mut rel = Rel::scan_pruned(base_table, stmt.from.base.binding(), &pruner);
        if op_t0.is_some() {
            let rows = rel.rows.len() as u64;
            ctx.op_end(op_t0, "scan", rows, rows);
            tqs_telemetry::counter!("engine.row.scan.rows_out").add(rows);
        }

        // Joins, in plan order.
        for pj in &plan.joins {
            ctx.check_cancelled()?;
            let ast_join = stmt
                .from
                .joins
                .iter()
                .find(|j| j.table.binding().eq_ignore_ascii_case(&pj.right_binding))
                .ok_or_else(|| EngineError::Unsupported("plan/AST join mismatch".into()))?;
            let right_table = self
                .catalog
                .table(&ast_join.table.table)
                .ok_or_else(|| EngineError::UnknownTable(ast_join.table.table.clone()))?;
            let right = Rel::scan_pruned(right_table, ast_join.table.binding(), &pruner);
            rel = execute_join(&rel, &right, pj, ast_join.on.as_ref(), &mut ctx)?;
        }

        // WHERE filtering (with subquery strategies and the constant-cache
        // fault applied).
        let sub = EngineSubqueries::new(self, plan.subquery_plan, ctx.materialization);
        if let Some(pred) = &stmt.where_clause {
            let op_t0 = ctx.op_start();
            let rows_in = rel.rows.len() as u64;
            let pred = self.apply_constant_cache_fault(pred, &rel, &mut ctx);
            let mut kept = Vec::new();
            for row in &rel.rows {
                let resolver = rel.resolver(row);
                if eval_predicate(&pred, &resolver, &sub)? == Some(true) {
                    kept.push(row.clone());
                }
            }
            rel.rows = kept;
            if op_t0.is_some() {
                let rows_out = rel.rows.len() as u64;
                ctx.op_end(op_t0, "filter", rows_in, rows_out);
                tqs_telemetry::counter!("engine.row.filter.rows_in").add(rows_in);
                tqs_telemetry::counter!("engine.row.filter.rows_out").add(rows_out);
            }
        }

        // Projection / aggregation / DISTINCT / LIMIT.
        let op_t0 = ctx.op_start();
        let rows_in = rel.rows.len() as u64;
        let grouped = stmt.has_aggregates() || !stmt.group_by.is_empty();
        let mut result = if grouped {
            self.aggregate(stmt, &rel, &sub)?
        } else {
            self.project(stmt, &rel, &sub)?
        };
        if stmt.distinct {
            result = distinct(result);
        }
        if let Some(l) = stmt.limit {
            result.rows.truncate(l as usize);
        }
        if op_t0.is_some() {
            let rows_out = result.rows.len() as u64;
            let op = if grouped { "group" } else { "project" };
            ctx.op_end(op_t0, op, rows_in, rows_out);
            if grouped {
                tqs_telemetry::counter!("engine.row.group.rows_in").add(rows_in);
                tqs_telemetry::counter!("engine.row.group.rows_out").add(rows_out);
            }
            tqs_telemetry::counter!("engine.row.statements").incr();
        }

        ctx.fired.extend(sub.into_fired());
        ctx.fired.dedup();
        Ok(ExecOutcome {
            result,
            plan,
            fired: ctx.fired,
            profile: ctx.profile,
        })
    }

    /// Fault #6: `<=>` comparisons against a literal reuse a constant that
    /// was type-converted against the first row; if that first value was
    /// NULL, the cached constant degrades to NULL.
    fn apply_constant_cache_fault(&self, pred: &Expr, rel: &Rel, ctx: &mut ExecContext) -> Expr {
        if !self
            .profile
            .faults
            .contains(FaultKind::ConstantCacheNullSafeEq)
            || rel.rows.is_empty()
        {
            return pred.clone();
        }
        let first = &rel.rows[0];
        let mut fired = false;
        let rewritten = rewrite_null_safe_eq(pred, &mut |col: &tqs_sql::ast::ColumnRef| {
            let idx = col_index(&rel.cols, col.table.as_deref(), &col.column)?;
            if first[idx].is_null() {
                fired = true;
                Some(Value::Null)
            } else {
                None
            }
        });
        if fired {
            ctx.fire(FaultKind::ConstantCacheNullSafeEq);
        }
        rewritten
    }

    pub(crate) fn project(
        &self,
        stmt: &SelectStmt,
        rel: &Rel,
        sub: &EngineSubqueries<'_>,
    ) -> Result<ResultSet, EngineError> {
        let mut columns = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    for (b, c) in &rel.cols {
                        columns.push(format!("{b}.{c}"));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| format!("{expr:?}")))
                }
                SelectItem::Aggregate { .. } => {
                    return Err(EngineError::Unsupported(
                        "aggregate without GROUP BY path".into(),
                    ))
                }
            }
        }
        let mut rs = ResultSet::new(columns);
        for row in &rel.rows {
            let resolver = rel.resolver(row);
            let mut out = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Wildcard => out.extend(row.clone()),
                    SelectItem::Expr { expr, .. } => out.push(eval_expr(expr, &resolver, sub)?),
                    SelectItem::Aggregate { .. } => unreachable!(),
                }
            }
            rs.rows.push(Row::new(out));
        }
        Ok(rs)
    }

    pub(crate) fn aggregate(
        &self,
        stmt: &SelectStmt,
        rel: &Rel,
        sub: &EngineSubqueries<'_>,
    ) -> Result<ResultSet, EngineError> {
        let mut groups: HashMap<KeyBuf, Vec<usize>> = HashMap::new();
        let mut order: Vec<KeyBuf> = Vec::new();
        let mut key = KeyBuf::new();
        for (i, row) in rel.rows.iter().enumerate() {
            let resolver = rel.resolver(row);
            key.clear();
            for g in &stmt.group_by {
                let v = eval_expr(g, &resolver, sub)?;
                key.push_group(&v);
            }
            match groups.get_mut(&key) {
                Some(members) => members.push(i),
                None => {
                    order.push(key.clone());
                    groups.insert(key.clone(), vec![i]);
                }
            }
        }
        if stmt.group_by.is_empty() && groups.is_empty() {
            order.push(KeyBuf::new());
            groups.insert(KeyBuf::new(), Vec::new());
        }
        let columns: Vec<String> = stmt
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Wildcard => "*".into(),
                SelectItem::Expr { alias, expr } => {
                    alias.clone().unwrap_or_else(|| format!("{expr:?}"))
                }
                SelectItem::Aggregate { alias, func, .. } => {
                    alias.clone().unwrap_or_else(|| format!("{func:?}"))
                }
            })
            .collect();
        let mut rs = ResultSet::new(columns);
        for key in order {
            let members = &groups[&key];
            let mut out = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Wildcard => {
                        return Err(EngineError::Unsupported("wildcard with GROUP BY".into()))
                    }
                    SelectItem::Expr { expr, .. } => {
                        let v = match members.first() {
                            Some(&i) => eval_expr(expr, &rel.resolver(&rel.rows[i]), sub)?,
                            None => Value::Null,
                        };
                        out.push(v);
                    }
                    SelectItem::Aggregate { func, arg, .. } => {
                        let mut vals = Vec::new();
                        if let Some(e) = arg {
                            for &i in members {
                                vals.push(eval_expr(e, &rel.resolver(&rel.rows[i]), sub)?);
                            }
                        }
                        out.push(eval_agg(*func, members.len(), &vals));
                    }
                }
            }
            rs.rows.push(Row::new(out));
        }
        Ok(rs)
    }
}

fn eval_agg(func: AggFunc, group_size: usize, vals: &[Value]) -> Value {
    match func {
        AggFunc::CountStar => Value::Int(group_size as i64),
        AggFunc::Count => Value::Int(vals.iter().filter(|v| !v.is_null()).count() as i64),
        AggFunc::Sum | AggFunc::Avg => {
            let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_f64_lossy()).collect();
            if nums.is_empty() {
                Value::Null
            } else if func == AggFunc::Sum {
                Value::Double(nums.iter().sum())
            } else {
                Value::Double(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in vals.iter().filter(|v| !v.is_null()) {
                best = Some(match best {
                    None => v.clone(),
                    Some(b) => match sql_compare(v, &b) {
                        SqlCmp::Ordering(o) => {
                            let take = if func == AggFunc::Min {
                                o == std::cmp::Ordering::Less
                            } else {
                                o == std::cmp::Ordering::Greater
                            };
                            if take {
                                v.clone()
                            } else {
                                b
                            }
                        }
                        SqlCmp::Unknown => b,
                    },
                });
            }
            best.unwrap_or(Value::Null)
        }
    }
}

/// Rewrite literals compared via `<=>` against a column for which `decide`
/// returns a replacement (the cached-constant corruption).
fn rewrite_null_safe_eq(
    e: &Expr,
    decide: &mut impl FnMut(&tqs_sql::ast::ColumnRef) -> Option<Value>,
) -> Expr {
    match e {
        Expr::Binary {
            op: BinOp::NullSafeEq,
            left,
            right,
        } => {
            if let (Expr::Column(c), Expr::Literal(_)) = (left.as_ref(), right.as_ref()) {
                if let Some(v) = decide(c) {
                    return Expr::Binary {
                        op: BinOp::NullSafeEq,
                        left: left.clone(),
                        right: Box::new(Expr::Literal(v)),
                    };
                }
            }
            if let (Expr::Literal(_), Expr::Column(c)) = (left.as_ref(), right.as_ref()) {
                if let Some(v) = decide(c) {
                    return Expr::Binary {
                        op: BinOp::NullSafeEq,
                        left: Box::new(Expr::Literal(v)),
                        right: right.clone(),
                    };
                }
            }
            e.clone()
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rewrite_null_safe_eq(left, decide)),
            right: Box::new(rewrite_null_safe_eq(right, decide)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_null_safe_eq(expr, decide)),
        },
        other => other.clone(),
    }
}

/// Subquery execution for WHERE-clause IN/EXISTS, honouring the chosen
/// subquery plan and its faults. Shared with the columnar executor, whose
/// WHERE phase delegates subquery evaluation here.
pub(crate) struct EngineSubqueries<'a> {
    db: &'a Database,
    plan: SubqueryPlan,
    materialization: bool,
    faults: FaultSet,
    fired: RefCell<Vec<FaultKind>>,
    /// Memo for *uncorrelated* subqueries (shared semantics with the
    /// ground-truth evaluator — see [`SubqueryMemo`]): recomputing a
    /// row-invariant subquery per outer row dominated the filter phase.
    memo: SubqueryMemo,
}

impl<'a> EngineSubqueries<'a> {
    pub(crate) fn new(db: &'a Database, plan: SubqueryPlan, materialization: bool) -> Self {
        EngineSubqueries {
            db,
            plan,
            materialization,
            faults: db.profile.faults.clone(),
            fired: RefCell::new(Vec::new()),
            memo: SubqueryMemo::new(),
        }
    }

    pub(crate) fn into_fired(self) -> Vec<FaultKind> {
        self.fired.into_inner()
    }

    fn fire(&self, kind: FaultKind) {
        let mut f = self.fired.borrow_mut();
        if !f.contains(&kind) {
            f.push(kind);
        }
    }
}

impl EngineSubqueries<'_> {
    fn eval_subquery_inner(
        &self,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Vec<Value>, EvalError> {
        let mut sub = stmt.clone();
        // Fault #1: under semi-join materialization, equality conditions in
        // the subquery's WHERE are neither pushed down nor evaluated.
        let drops_equalities = matches!(
            self.plan,
            SubqueryPlan::SemiJoinTransform(SemiJoinStrategy::Materialization)
        ) && self.faults.contains(FaultKind::SemiJoinWrongResults);
        if drops_equalities {
            if let Some(w) = &sub.where_clause {
                let (kept, dropped) = strip_equality_conjuncts(w);
                if dropped {
                    self.fire(FaultKind::SemiJoinWrongResults);
                    sub.where_clause = kept;
                }
            }
        }
        // Execute the (single-table) subquery with correlation support.
        let table = self.db.catalog.table(&sub.from.base.table).ok_or_else(|| {
            EvalError::Unsupported(format!("unknown table {}", sub.from.base.table))
        })?;
        if !sub.from.joins.is_empty() {
            return Err(EvalError::Unsupported("joins inside subquery".into()));
        }
        let binding = sub.from.base.binding().to_string();
        let expr = match sub.items.first() {
            Some(SelectItem::Expr { expr, .. }) => expr.clone(),
            _ => {
                return Err(EvalError::Unsupported(
                    "subquery must project one expression".into(),
                ))
            }
        };
        let mut out = Vec::new();
        for row in &table.rows {
            // Borrow the stored row directly — no per-call table clone, no
            // per-row scope materialization.
            let inner = TableRow {
                binding: &binding,
                table,
                row: &row.values,
            };
            let resolver = ChainedResolver {
                inner: &inner,
                outer,
            };
            if let Some(pred) = &sub.where_clause {
                if eval_predicate(pred, &resolver, self)? != Some(true) {
                    continue;
                }
            }
            out.push(eval_expr(&expr, &resolver, self)?);
        }
        // Fault #5: the materialized probe set silently drops NULLs, turning
        // NOT IN's UNKNOWN into FALSE.
        if self.materialization
            && self
                .faults
                .contains(FaultKind::AntiJoinMaterializationNullDrop)
            && matches!(
                self.plan,
                SubqueryPlan::Materialize | SubqueryPlan::SemiJoinTransform(_)
            )
            && out.iter().any(|v| v.is_null())
        {
            self.fire(FaultKind::AntiJoinMaterializationNullDrop);
            out.retain(|v| !v.is_null());
        }
        Ok(out)
    }
}

impl SubqueryHandler for EngineSubqueries<'_> {
    fn eval_subquery(
        &self,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Vec<Value>, EvalError> {
        let cacheable = self
            .db
            .catalog
            .table(&stmt.from.base.table)
            .map(|t| {
                stmt.is_uncorrelated_single_table(&|name| {
                    t.columns.iter().any(|c| c.name.eq_ignore_ascii_case(name))
                })
            })
            .unwrap_or(false);
        self.memo
            .get_or_eval(stmt, cacheable, || self.eval_subquery_inner(stmt, outer))
    }
}

/// Borrow-based resolver over one stored table row (subquery scans): the
/// same resolution rules as a scanned relation's scope, without cloning the
/// table or materializing per-row scope entries.
struct TableRow<'a> {
    binding: &'a str,
    table: &'a tqs_storage::Table,
    row: &'a [Value],
}

impl ColumnResolver for TableRow<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        if let Some(q) = &col.table {
            if !q.eq_ignore_ascii_case(self.binding) {
                return None;
            }
        }
        self.table
            .columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(&col.column))
            .map(|i| self.row[i].clone())
    }
}

/// Split equality conjuncts out of a predicate; returns (remaining, dropped?).
fn strip_equality_conjuncts(e: &Expr) -> (Option<Expr>, bool) {
    let conjuncts = e.conjuncts();
    let kept: Vec<Expr> = conjuncts
        .iter()
        .filter(|c| !matches!(c, Expr::Binary { op: BinOp::Eq, .. }))
        .map(|c| (*c).clone())
        .collect();
    let dropped = kept.len() != conjuncts.len();
    (Expr::conjunction(kept), dropped)
}

pub(crate) fn distinct(rs: ResultSet) -> ResultSet {
    rs.into_distinct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{DbmsProfile, ProfileId};
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::Table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t1 = Table::new(
            "t1",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("col1", ColumnType::Int { unsigned: false }),
            ],
        )
        .with_primary_key(vec!["id"]);
        for (id, c) in [(1, Some(10)), (2, Some(20)), (3, None)] {
            t1.push_row(Row::new(vec![
                Value::Int(id),
                c.map(Value::Int).unwrap_or(Value::Null),
            ]))
            .unwrap();
        }
        cat.add_table(t1);
        let mut t2 = Table::new(
            "t2",
            vec![
                ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
                ColumnDef::new("col1", ColumnType::Varchar(100)),
            ],
        )
        .with_primary_key(vec!["id"]);
        for (id, c) in [(10, "a"), (20, "b"), (30, "c")] {
            t2.push_row(Row::new(vec![Value::Int(id), Value::str(c)]))
                .unwrap();
        }
        cat.add_table(t2);
        cat
    }

    fn db(profile: ProfileId) -> Database {
        Database::new(catalog(), DbmsProfile::pristine(profile))
    }

    #[test]
    fn single_table_select_and_where() {
        let d = db(ProfileId::MysqlLike);
        let out = d
            .execute_sql("SELECT t1.id FROM t1 WHERE t1.col1 > 10")
            .unwrap();
        assert_eq!(out.result.row_count(), 1);
        assert!(out.fired.is_empty());
    }

    #[test]
    fn inner_join_across_profiles_gives_same_answer_when_pristine() {
        let sql = "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id";
        let mut results = Vec::new();
        for p in ProfileId::ALL {
            let out = db(p).execute_sql(sql).unwrap();
            results.push(out.result);
        }
        for r in &results[1..] {
            assert!(results[0].same_bag(r));
        }
        assert_eq!(results[0].row_count(), 2);
    }

    #[test]
    fn hints_change_the_physical_plan() {
        let d = db(ProfileId::MysqlLike);
        let base = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let hash = d.plan(&base).unwrap();
        let merge = d
            .plan(
                &parse_stmt(
                    "SELECT /*+ MERGE_JOIN(t2) */ t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id",
                )
                .unwrap(),
            )
            .unwrap();
        assert_ne!(hash.signature(), merge.signature());
        assert_eq!(merge.joins[0].algo, JoinAlgo::SortMergeJoin);
        let nl = d
            .plan(
                &parse_stmt("SELECT /*+ NL_JOIN(t2) */ t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id")
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(nl.joins[0].algo, JoinAlgo::BlockNestedLoop);
        // and the result stays the same on a pristine build
        let a = d.execute(&base).unwrap().result;
        let b = d
            .execute_sql("SELECT /*+ MERGE_JOIN(t2) */ t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id")
            .unwrap()
            .result;
        assert!(a.same_bag(&b));
    }

    #[test]
    fn switches_change_mariadb_algorithms() {
        let mut d = db(ProfileId::MariadbLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let default_algo = d.plan(&stmt).unwrap().joins[0].algo;
        assert_eq!(default_algo, JoinAlgo::BatchedKeyAccess);
        d.apply_switch(SessionSwitch::off(SwitchName::JoinCacheBka));
        assert_eq!(
            d.plan(&stmt).unwrap().joins[0].algo,
            JoinAlgo::BlockNestedLoopHashed
        );
        d.apply_switch(SessionSwitch::off(SwitchName::JoinCacheHashed));
        assert_eq!(
            d.plan(&stmt).unwrap().joins[0].algo,
            JoinAlgo::BlockNestedLoop
        );
        d.reset_switches();
        assert_eq!(
            d.plan(&stmt).unwrap().joins[0].algo,
            JoinAlgo::BatchedKeyAccess
        );
    }

    #[test]
    fn left_outer_join_simplification() {
        let d = db(ProfileId::XdbLike);
        let stmt = parse_stmt(
            "SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id WHERE t2.col1 = 'a'",
        )
        .unwrap();
        let plan = d.plan(&stmt).unwrap();
        assert!(plan.joins[0].simplified_from_outer);
        assert_eq!(plan.joins[0].join_type, JoinType::Inner);
        // without the null-rejecting predicate the outer join survives
        let stmt =
            parse_stmt("SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id").unwrap();
        assert!(!d.plan(&stmt).unwrap().joins[0].simplified_from_outer);
        // a later inner join's ON rejects NULLs through a comparison
        // conjunct, never through IS NULL
        let simplified = |on: &str| {
            let sql = format!(
                "SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id \
                 INNER JOIN t1 AS t3 ON t1.id = t3.id AND {on}"
            );
            let plan = d.plan(&parse_stmt(&sql).unwrap()).unwrap();
            plan.joins.iter().any(|j| j.simplified_from_outer)
        };
        assert!(simplified("t2.col1 = t3.col1"));
        assert!(!simplified("t2.id IS NULL"));
        assert!(!simplified("t2.id <=> t3.col1"));
        // simplification does not change results on a pristine build
        let simplified = parse_stmt(
            "SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id WHERE t2.col1 = 'a'",
        )
        .unwrap();
        let out = d.execute(&simplified).unwrap();
        assert_eq!(out.result.row_count(), 1);
    }

    #[test]
    fn join_order_hint_validity() {
        let d = db(ProfileId::MysqlLike);
        let stmt =
            parse_stmt("SELECT /*+ JOIN_ORDER(t2, t1) */ t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id")
                .unwrap();
        let plan = d.plan(&stmt).unwrap();
        assert!(plan.notes.iter().any(|n| n.contains("JOIN_ORDER")));
        let out = d.execute(&stmt).unwrap();
        assert_eq!(out.result.row_count(), 2);
    }

    #[test]
    fn execute_with_hints_restores_switches() {
        let mut d = db(ProfileId::MariadbLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let hs = HintSet::new("bnl")
            .with_switch(SessionSwitch::off(SwitchName::JoinCacheBka))
            .with_switch(SessionSwitch::off(SwitchName::JoinCacheHashed));
        let out = d.execute_with_hints(&stmt, &hs).unwrap();
        assert_eq!(out.result.row_count(), 2);
        // switches restored afterwards
        assert_eq!(
            d.plan(&stmt).unwrap().joins[0].algo,
            JoinAlgo::BatchedKeyAccess
        );
    }

    #[test]
    fn in_subquery_and_not_in_null_semantics() {
        let d = db(ProfileId::MysqlLike);
        let inq = d
            .execute_sql("SELECT t1.id FROM t1 WHERE t1.col1 IN (SELECT t2.id FROM t2)")
            .unwrap();
        assert_eq!(inq.result.row_count(), 2);
        // NOT IN over a set that contains no NULLs
        let notin = d
            .execute_sql("SELECT t1.id FROM t1 WHERE t1.id NOT IN (SELECT t2.id FROM t2)")
            .unwrap();
        assert_eq!(notin.result.row_count(), 3);
        // NOT IN over a set containing NULL → empty (col1 of t1 has a NULL)
        let notin_null = d
            .execute_sql("SELECT t1.id FROM t1 WHERE t1.id NOT IN (SELECT t1.col1 FROM t1)")
            .unwrap();
        assert_eq!(notin_null.result.row_count(), 0);
    }

    #[test]
    fn semi_join_wrong_results_fault_changes_subquery_answer() {
        let mut faulty = Database::new(catalog(), DbmsProfile::build(ProfileId::MysqlLike));
        faulty.profile.default_semijoin_transform = true;
        let sql = "SELECT t1.id FROM t1 WHERE t1.col1 IN \
                   (SELECT t2.id FROM t2 WHERE t2.col1 = 'zzz')";
        let out = faulty.execute_sql(sql).unwrap();
        // correct answer: empty (no t2.col1 = 'zzz'); the fault drops the
        // equality and returns rows
        assert!(out.fired.contains(&FaultKind::SemiJoinWrongResults));
        assert!(out.result.row_count() > 0);
        let pristine = db(ProfileId::MysqlLike).execute_sql(sql).unwrap();
        assert_eq!(pristine.result.row_count(), 0);
    }

    #[test]
    fn group_by_and_aggregates() {
        let d = db(ProfileId::TidbLike);
        let out = d
            .execute_sql(
                "SELECT t2.col1, COUNT(*) AS cnt FROM t1 JOIN t2 ON t1.col1 = t2.id GROUP BY t2.col1",
            )
            .unwrap();
        assert_eq!(out.result.row_count(), 2);
        let out = d
            .execute_sql("SELECT COUNT(*) AS cnt FROM t1 JOIN t2 ON t1.col1 = t2.id")
            .unwrap();
        assert_eq!(out.result.rows[0].values[0], Value::Int(2));
    }

    #[test]
    fn distinct_and_limit() {
        let d = db(ProfileId::MysqlLike);
        let out = d
            .execute_sql("SELECT DISTINCT t2.col1 FROM t2 JOIN t1 ON t2.id = t1.col1")
            .unwrap();
        assert_eq!(out.result.row_count(), 2);
        let out = d.execute_sql("SELECT t2.col1 FROM t2 LIMIT 2").unwrap();
        assert_eq!(out.result.row_count(), 2);
    }

    #[test]
    fn errors_for_unknown_tables_and_bad_sql() {
        let d = db(ProfileId::MysqlLike);
        assert!(matches!(
            d.execute_sql("SELECT x.a FROM missing x"),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            d.execute_sql("SELEKT 1"),
            Err(EngineError::Parse(_))
        ));
    }

    #[test]
    fn explain_mentions_chosen_algorithm() {
        let d = db(ProfileId::TidbLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let e = d.explain(&stmt).unwrap();
        assert!(e.contains("index lookup join") || e.contains("hash join"));
    }
}
