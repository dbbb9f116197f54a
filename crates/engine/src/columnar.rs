//! The second simulated engine: a columnar, batch-at-a-time executor.
//!
//! Where [`crate::engine::Database`] executes row-at-a-time over [`Rel`],
//! [`ColumnarDatabase`] keeps every intermediate relation column-major
//! ([`ColumnarRel`]) and drives joins and WHERE filtering in probe batches of
//! [`ColumnarDatabase::batch_size`] rows: hashed joins encode and probe a
//! whole batch of keys at a time, and simple `column <op> literal` conjuncts
//! are evaluated as tight per-column loops over a selection bitmap instead of
//! building a row scope per tuple.
//!
//! Both engines share the optimizer ([`Database::plan`]), the fault-free
//! join-key logic (equi keys, residual scope, canonical key encoding), the
//! subquery machinery and the projection/aggregation tail, so on fault-free
//! builds they are answer-identical by construction of the shared semantics
//! — a property the workspace pins with a proptest. What differs is the
//! relation layout and the physical execution — and therefore the *fault
//! complement*: the columnar build carries [`FaultKind::COLUMNAR`]
//! (batch-tail loss, NULL-mask misalignment, dictionary truncation,
//! selection-bitmap corruption), which cannot occur in the row engine, and
//! none of the Table 4 row faults. That disjointness is what makes
//! cross-engine differential testing (`DifferentialOracle` in tqs-core) a
//! meaningful oracle.

use crate::engine::{distinct, Database, EngineError, EngineSubqueries, ExecOutcome};
use crate::exec::{ColumnPruner, ExecContext, Rel};
use crate::faults::{FaultKind, TriggerContext};
use crate::joinkeys::{canonical_key_into, col_index, residual_ok, Cells, EquiKeys, ScopeLayout};
use crate::plan::PhysicalJoin;
use crate::profiles::DbmsProfile;
use std::collections::HashMap;
use tqs_sql::ast::{BinOp, ColumnRef, Expr, JoinType, SelectStmt};
use tqs_sql::eval::{compare, eval_predicate, ColumnResolver};
use tqs_sql::hints::HintSet;
use tqs_sql::parser::parse_stmt;
use tqs_sql::value::{KeyBuf, Value};
use tqs_storage::{Catalog, Table};

/// Default number of rows per probe/filter batch.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// A column-major intermediate relation: one `Vec<Value>` per output column,
/// all of equal length.
#[derive(Debug, Clone, Default)]
pub struct ColumnarRel {
    /// (binding, column name) per column, parallel to `columns`.
    pub cols: Vec<(String, String)>,
    pub columns: Vec<Vec<Value>>,
}

impl ColumnarRel {
    pub fn scan(table: &Table, binding: &str) -> ColumnarRel {
        // `vec![v; n]` clones drop the capacity; build each Vec explicitly.
        let mut columns: Vec<Vec<Value>> = (0..table.columns.len())
            .map(|_| Vec::with_capacity(table.rows.len()))
            .collect();
        for row in &table.rows {
            for (ci, v) in row.values.iter().enumerate() {
                columns[ci].push(v.clone());
            }
        }
        ColumnarRel {
            cols: table
                .columns
                .iter()
                .map(|c| (binding.to_string(), c.name.clone()))
                .collect(),
            columns,
        }
    }

    /// Scan only the columns the statement can observe (see
    /// [`ColumnPruner`]) — the columnar analogue of [`Rel::scan_pruned`];
    /// a skipped column is simply never gathered.
    pub fn scan_pruned(table: &Table, binding: &str, pruner: &ColumnPruner) -> ColumnarRel {
        let keep = pruner.keep_indices(table, binding);
        if keep.len() == table.columns.len() {
            return ColumnarRel::scan(table, binding);
        }
        let mut columns: Vec<Vec<Value>> = (0..keep.len())
            .map(|_| Vec::with_capacity(table.rows.len()))
            .collect();
        for row in &table.rows {
            for (out_ci, &i) in keep.iter().enumerate() {
                columns[out_ci].push(row.values[i].clone());
            }
        }
        ColumnarRel {
            cols: keep
                .iter()
                .map(|&i| (binding.to_string(), table.columns[i].name.clone()))
                .collect(),
            columns,
        }
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn len(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocation-free resolver for row `i`, consumable by the reference
    /// evaluator — gathers nothing; the one matched value is cloned on
    /// resolution.
    pub fn resolver(&self, i: usize) -> ColRow<'_> {
        ColRow { rel: self, i }
    }

    fn push_gathered(&mut self, src: &ColumnarRel, row: usize, offset: usize) {
        for (ci, col) in src.columns.iter().enumerate() {
            self.columns[offset + ci].push(col[row].clone());
        }
    }

    fn push_nulls(&mut self, offset: usize, width: usize) {
        for ci in 0..width {
            self.columns[offset + ci].push(Value::Null);
        }
    }

    /// Row-major view, for handing the tail of the pipeline (projection,
    /// aggregation) to the shared engine code.
    pub fn to_rel(&self) -> Rel {
        let n = self.len();
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            rows.push(self.columns.iter().map(|c| c[i].clone()).collect());
        }
        Rel {
            cols: self.cols.clone(),
            rows,
        }
    }
}

impl Cells for ColumnarRel {
    #[inline]
    fn cell(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }
}

/// The columnar simulated DBMS: shares the optimizer, catalog, session
/// switches and subquery machinery with [`Database`], but executes through
/// the vectorized pipeline in this module.
#[derive(Debug, Clone)]
pub struct ColumnarDatabase {
    inner: Database,
    pub batch_size: usize,
}

impl ColumnarDatabase {
    pub fn new(catalog: Catalog, profile: DbmsProfile) -> Self {
        ColumnarDatabase {
            inner: Database::new(catalog, profile),
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    pub fn set_catalog(&mut self, catalog: Catalog) {
        self.inner.catalog = catalog;
    }

    pub fn profile(&self) -> &DbmsProfile {
        &self.inner.profile
    }

    pub fn apply_switch(&mut self, s: tqs_sql::hints::SessionSwitch) {
        self.inner.apply_switch(s);
    }

    pub fn reset_switches(&mut self) {
        self.inner.reset_switches();
    }

    /// The plan the (shared) optimizer would choose.
    pub fn plan(&self, stmt: &SelectStmt) -> Result<crate::plan::PhysicalPlan, EngineError> {
        self.inner.plan(stmt)
    }

    /// EXPLAIN: the shared plan plus the columnar execution note.
    pub fn explain(&self, stmt: &SelectStmt) -> Result<String, EngineError> {
        let mut out = self.inner.explain(stmt)?;
        out.push_str(&format!(
            "-> executor: columnar, batch {} rows\n",
            self.batch_size
        ));
        Ok(out)
    }

    /// Execute a transformed query: apply the hint set's session switches,
    /// splice its hints into the statement, execute, then restore switches.
    pub fn execute_with_hints(
        &mut self,
        stmt: &SelectStmt,
        hints: &HintSet,
    ) -> Result<ExecOutcome, EngineError> {
        let saved = self.inner.switches.clone();
        for s in &hints.switches {
            self.inner.apply_switch(*s);
        }
        let mut hinted = stmt.clone();
        hinted.hints.extend(hints.hints.iter().cloned());
        let out = self.execute(&hinted);
        self.inner.switches = saved;
        out
    }

    /// Execute SQL text (parses, then executes).
    pub fn execute_sql(&self, sql: &str) -> Result<ExecOutcome, EngineError> {
        let stmt = parse_stmt(sql)?;
        self.execute(&stmt)
    }

    /// Execute one DML / transaction-control statement. Columnar scans
    /// re-read the shared catalog per statement, so mutation and transaction
    /// semantics delegate wholesale to the inner row session — including the
    /// DML fault complement, which the columnar builds also carry.
    pub fn execute_dml(
        &mut self,
        stmt: &tqs_sql::ast::DmlStmt,
    ) -> Result<crate::dml::DmlOutcome, EngineError> {
        self.inner.execute_dml(stmt)
    }

    /// Execute DML text (parses one statement, then executes).
    pub fn execute_dml_sql(&mut self, sql: &str) -> Result<crate::dml::DmlOutcome, EngineError> {
        self.inner.execute_dml_sql(sql)
    }

    /// Is a transaction open on this session?
    pub fn in_txn(&self) -> bool {
        self.inner.in_txn()
    }

    /// Execute a statement through the columnar pipeline.
    pub fn execute(&self, stmt: &SelectStmt) -> Result<ExecOutcome, EngineError> {
        let plan = self.inner.plan(stmt)?;
        let mut ctx = ExecContext::new(self.inner.profile.faults.clone());
        ctx.switched_off = self.inner.switched_off_names();
        ctx.materialization = self.inner.materialization_enabled(stmt);
        ctx.subquery_present = stmt.has_subquery();
        ctx.semi_strategy = self.inner.semi_strategy(stmt);
        ctx.check_cancelled()?;

        let _stmt_span = tqs_telemetry::span("engine", "columnar.execute");

        // Base scan, column-major.
        let op_t0 = ctx.op_start();
        let base_table = self
            .inner
            .catalog
            .table(&stmt.from.base.table)
            .ok_or_else(|| EngineError::UnknownTable(stmt.from.base.table.clone()))?;
        let pruner = ColumnPruner::new(stmt);
        let mut rel = ColumnarRel::scan_pruned(base_table, stmt.from.base.binding(), &pruner);
        if op_t0.is_some() {
            let rows = rel.len() as u64;
            ctx.op_end(op_t0, "scan", rows, rows);
            tqs_telemetry::counter!("engine.columnar.scan.rows_out").add(rows);
        }

        // Joins, in plan order, batch-at-a-time.
        for pj in &plan.joins {
            ctx.check_cancelled()?;
            let ast_join = stmt
                .from
                .joins
                .iter()
                .find(|j| j.table.binding().eq_ignore_ascii_case(&pj.right_binding))
                .ok_or_else(|| EngineError::Unsupported("plan/AST join mismatch".into()))?;
            let right_table = self
                .inner
                .catalog
                .table(&ast_join.table.table)
                .ok_or_else(|| EngineError::UnknownTable(ast_join.table.table.clone()))?;
            let right = ColumnarRel::scan_pruned(right_table, ast_join.table.binding(), &pruner);
            let op_t0 = ctx.op_start();
            let rows_in = (rel.len() + right.len()) as u64;
            rel = columnar_join(
                &rel,
                &right,
                pj,
                ast_join.on.as_ref(),
                &mut ctx,
                self.batch_size,
            )?;
            if op_t0.is_some() {
                let rows_out = rel.len() as u64;
                let ns = ctx.op_end(op_t0, pj.algo.profile_label(), rows_in, rows_out);
                tqs_telemetry::counter!("engine.columnar.join.rows_in").add(rows_in);
                tqs_telemetry::counter!("engine.columnar.join.rows_out").add(rows_out);
                tqs_telemetry::histogram!("engine.columnar.join.ns").record(ns);
            }
        }

        // WHERE filtering over the selection bitmap, batch-at-a-time.
        let sub = EngineSubqueries::new(&self.inner, plan.subquery_plan, ctx.materialization);
        if let Some(pred) = &stmt.where_clause {
            let op_t0 = ctx.op_start();
            let rows_in = rel.len() as u64;
            rel = self.filter(pred, rel, &mut ctx, &sub)?;
            if op_t0.is_some() {
                let rows_out = rel.len() as u64;
                ctx.op_end(op_t0, "filter", rows_in, rows_out);
                tqs_telemetry::counter!("engine.columnar.filter.rows_in").add(rows_in);
                tqs_telemetry::counter!("engine.columnar.filter.rows_out").add(rows_out);
            }
        }

        // Projection / aggregation / DISTINCT / LIMIT share the row-engine
        // tail — the columnar pipeline ends at the relational boundary.
        let op_t0 = ctx.op_start();
        let rows_in = rel.len() as u64;
        let grouped = stmt.has_aggregates() || !stmt.group_by.is_empty();
        let row_rel = rel.to_rel();
        let mut result = if grouped {
            self.inner.aggregate(stmt, &row_rel, &sub)?
        } else {
            self.inner.project(stmt, &row_rel, &sub)?
        };
        if stmt.distinct {
            result = distinct(result);
        }
        if let Some(l) = stmt.limit {
            result.rows.truncate(l as usize);
        }
        if op_t0.is_some() {
            let rows_out = result.rows.len() as u64;
            ctx.op_end(
                op_t0,
                if grouped { "group" } else { "project" },
                rows_in,
                rows_out,
            );
            if grouped {
                tqs_telemetry::counter!("engine.columnar.group.rows_in").add(rows_in);
                tqs_telemetry::counter!("engine.columnar.group.rows_out").add(rows_out);
            }
            tqs_telemetry::counter!("engine.columnar.statements").incr();
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

    /// Vectorized WHERE: conjuncts of the form `column <op> literal` run as
    /// tight per-column loops over the selection bitmap; everything else
    /// falls back to the reference evaluator per row (still batched so the
    /// selection-bitmap fault has a lane structure to corrupt).
    fn filter(
        &self,
        pred: &Expr,
        rel: ColumnarRel,
        ctx: &mut ExecContext,
        sub: &EngineSubqueries<'_>,
    ) -> Result<ColumnarRel, EngineError> {
        let n = rel.len();
        let mut sel = vec![true; n];
        let filter_trigger = TriggerContext::default();
        let null_as_true = ctx
            .faults
            .active(FaultKind::ColumnarFilterNullAsTrue, &filter_trigger);
        for c in pred.conjuncts() {
            match vectorizable(c, &rel) {
                Some((ci, op, lit, reversed)) => {
                    let col = &rel.columns[ci];
                    for (i, v) in col.iter().enumerate() {
                        let truth = if reversed {
                            compare(op, lit, v)
                        } else {
                            compare(op, v, lit)
                        };
                        self.apply_truth(truth, i, &mut sel, null_as_true, ctx);
                    }
                }
                None => {
                    for i in 0..n {
                        let resolver = rel.resolver(i);
                        let truth = eval_predicate(c, &resolver, sub)?;
                        self.apply_truth(truth, i, &mut sel, null_as_true, ctx);
                    }
                }
            }
        }
        let mut out = ColumnarRel {
            cols: rel.cols.clone(),
            columns: vec![Vec::new(); rel.width()],
        };
        for (i, keep) in sel.iter().enumerate() {
            if *keep {
                out.push_gathered(&rel, i, 0);
            }
        }
        Ok(out)
    }

    fn apply_truth(
        &self,
        truth: Option<bool>,
        i: usize,
        sel: &mut [bool],
        null_as_true: bool,
        ctx: &mut ExecContext,
    ) {
        match truth {
            Some(true) => {}
            // The selection-bitmap fault: the last lane of a *full* batch is
            // never cleared, so a NULL predicate there stays selected.
            None if null_as_true && i % self.batch_size == self.batch_size - 1 => {
                ctx.fire(FaultKind::ColumnarFilterNullAsTrue);
            }
            _ => sel[i] = false,
        }
    }
}

/// Can this conjunct run through the vectorized comparison kernel?
/// Returns (column index, operator, literal, literal-on-the-left).
fn vectorizable<'a>(e: &'a Expr, rel: &ColumnarRel) -> Option<(usize, BinOp, &'a Value, bool)> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::NullSafeEq
    ) {
        return None;
    }
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) => {
            col_index(&rel.cols, c.table.as_deref(), &c.column).map(|ci| (ci, *op, v, false))
        }
        (Expr::Literal(v), Expr::Column(c)) => {
            col_index(&rel.cols, c.table.as_deref(), &c.column).map(|ci| (ci, *op, v, true))
        }
        _ => None,
    }
}

/// Borrow-based resolver over row `i` of a columnar relation.
pub struct ColRow<'a> {
    rel: &'a ColumnarRel,
    i: usize,
}

impl ColumnResolver for ColRow<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        col_index(&self.rel.cols, col.table.as_deref(), &col.column)
            .map(|ci| self.rel.columns[ci][self.i].clone())
    }
}

/// Encode the join key of row `i` against `key_idx` column vectors into
/// `buf` (cleared first). Returns `false` for a NULL key (never matches).
/// Without the dictionary-truncation fault this is the shared canonical
/// encoding; the fault clips long varchar keys to their first 8 bytes — raw,
/// without the canonical case folding, exactly like the old `"S:{clip}|"`
/// text segment.
fn encode_key_into(
    rel: &ColumnarRel,
    key_idx: &[usize],
    i: usize,
    truncate: bool,
    ctx: &mut ExecContext,
    buf: &mut KeyBuf,
) -> bool {
    if !truncate {
        return canonical_key_into(rel, i, key_idx, buf);
    }
    buf.clear();
    for &ci in key_idx {
        let v = &rel.columns[ci][i];
        if v.is_null() {
            return false;
        }
        if let Some(s) = v.as_str() {
            if s.len() > 8 {
                // Clip at the last char boundary at or before byte 8 — the
                // fault corrupts answers, it must not panic on multi-byte
                // UTF-8 data.
                let mut cut = 8;
                while !s.is_char_boundary(cut) {
                    cut -= 1;
                }
                ctx.fire(FaultKind::ColumnarDictTruncation);
                buf.push_str_raw(&s[..cut]);
                continue;
            }
        }
        buf.push_canonical(v);
    }
    true
}

/// Execute one physical join step over columnar inputs: build a hash table
/// over the build (right) side, then probe the left side one batch at a
/// time. Non-equi joins degrade to a (correct) batched nested loop.
pub fn columnar_join(
    left: &ColumnarRel,
    right: &ColumnarRel,
    join: &PhysicalJoin,
    on: Option<&Expr>,
    ctx: &mut ExecContext,
    batch_size: usize,
) -> Result<ColumnarRel, EngineError> {
    let t = ctx.trigger_ctx(join);
    let keys = EquiKeys::extract(&left.cols, &right.cols, on);
    let layout = ScopeLayout::compile(&keys.residual, &left.cols, &right.cols);
    let n_left = left.len();

    // Batch-tail loss: hashed probes past the last complete batch are never
    // flushed, so those left rows vanish from the join entirely.
    let mut live_until = n_left;
    if !keys.left_idx.is_empty()
        && ctx.faults.active(FaultKind::ColumnarBatchTailDrop, &t)
        && n_left % batch_size != 0
        && n_left > batch_size
    {
        live_until = (n_left / batch_size) * batch_size;
        ctx.fire(FaultKind::ColumnarBatchTailDrop);
    }

    // Match computation.
    let truncate = ctx.faults.active(FaultKind::ColumnarDictTruncation, &t);
    let mut matches: Vec<Vec<usize>> = vec![Vec::new(); n_left];
    if keys.left_idx.is_empty() {
        // No equi key: batched nested loop (correct for cross/theta joins).
        for (li, row_matches) in matches.iter_mut().enumerate().take(live_until) {
            for ri in 0..right.len() {
                if residual_ok(&keys.residual, &layout, left, li, right, ri) {
                    row_matches.push(ri);
                }
            }
        }
    } else {
        let mut table: HashMap<KeyBuf, Vec<usize>> = HashMap::new();
        let mut scratch = KeyBuf::new();
        for ri in 0..right.len() {
            if encode_key_into(right, &keys.right_idx, ri, truncate, ctx, &mut scratch) {
                match table.get_mut(&scratch) {
                    Some(bucket) => bucket.push(ri),
                    None => {
                        table.insert(scratch.clone(), vec![ri]);
                    }
                }
            }
        }
        let mut start = 0;
        while start < live_until {
            let end = (start + batch_size).min(live_until);
            for (li, row_matches) in matches[start..end].iter_mut().enumerate() {
                let li = start + li;
                if !encode_key_into(left, &keys.left_idx, li, truncate, ctx, &mut scratch) {
                    continue;
                }
                let mut ms = table.get(&scratch).cloned().unwrap_or_default();
                ms.retain(|&ri| residual_ok(&keys.residual, &layout, left, li, right, ri));
                *row_matches = ms;
            }
            start = end;
        }
    }

    // Assemble the output column-major.
    let (cols, left_width, right_width) = match join.join_type {
        JoinType::Semi | JoinType::Anti => (left.cols.clone(), left.width(), 0),
        _ => {
            let mut c = left.cols.clone();
            c.extend(right.cols.clone());
            (c, left.width(), right.width())
        }
    };
    let mut out = ColumnarRel {
        columns: vec![Vec::new(); cols.len()],
        cols,
    };
    let misalign = ctx.faults.active(FaultKind::ColumnarNullPadMisalign, &t);
    let mut first_pad = true;
    let mut right_matched = vec![false; right.len()];
    for (li, ms) in matches.iter().enumerate().take(live_until) {
        match join.join_type {
            JoinType::Inner
            | JoinType::Cross
            | JoinType::LeftOuter
            | JoinType::RightOuter
            | JoinType::FullOuter => {
                for &ri in ms {
                    right_matched[ri] = true;
                    out.push_gathered(left, li, 0);
                    out.push_gathered(right, ri, left_width);
                }
                if ms.is_empty()
                    && matches!(join.join_type, JoinType::LeftOuter | JoinType::FullOuter)
                {
                    out.push_gathered(left, li, 0);
                    // NULL-mask misalignment: the first padded row replays
                    // build row 0 instead of NULLs.
                    if misalign && first_pad && !right.is_empty() {
                        ctx.fire(FaultKind::ColumnarNullPadMisalign);
                        out.push_gathered(right, 0, left_width);
                    } else {
                        out.push_nulls(left_width, right_width);
                    }
                    first_pad = false;
                }
            }
            JoinType::Semi => {
                if !ms.is_empty() {
                    out.push_gathered(left, li, 0);
                }
            }
            JoinType::Anti => {
                if ms.is_empty() {
                    out.push_gathered(left, li, 0);
                }
            }
        }
    }

    // Right/full outer: pad unmatched right rows on the left side.
    if matches!(join.join_type, JoinType::RightOuter | JoinType::FullOuter) {
        for (ri, matched) in right_matched.iter().enumerate() {
            if !matched {
                if misalign && first_pad && n_left > 0 {
                    ctx.fire(FaultKind::ColumnarNullPadMisalign);
                    out.push_gathered(left, 0, 0);
                } else {
                    for ci in 0..left_width {
                        out.columns[ci].push(Value::Null);
                    }
                }
                first_pad = false;
                out.push_gathered(right, ri, left_width);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;
    use crate::plan::JoinAlgo;
    use crate::profiles::ProfileId;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::Row;

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

    fn columnar(id: ProfileId) -> ColumnarDatabase {
        ColumnarDatabase::new(catalog(), DbmsProfile::columnar_pristine(id))
    }

    fn row_db(id: ProfileId) -> Database {
        Database::new(catalog(), DbmsProfile::pristine(id))
    }

    #[test]
    fn columnar_matches_row_engine_on_basic_queries() {
        let queries = [
            "SELECT t1.id FROM t1 WHERE t1.col1 > 10",
            "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id",
            "SELECT t1.id FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id",
            "SELECT t1.id FROM t1 WHERE t1.col1 IN (SELECT t2.id FROM t2)",
            "SELECT t2.col1, COUNT(*) AS cnt FROM t1 JOIN t2 ON t1.col1 = t2.id GROUP BY t2.col1",
            "SELECT DISTINCT t2.col1 FROM t2 JOIN t1 ON t2.id = t1.col1",
            "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t2.id = t1.col1",
            "SELECT t1.id, t2.col1 FROM t1 INNER JOIN t2 ON t1.col1 = t2.id AND t2.col1 <> 'b'",
            "SELECT t1.id, t2.id FROM t1 INNER JOIN t2 ON t1.col1 < t2.id",
            "SELECT t1.id, t2.col1 FROM t1 RIGHT OUTER JOIN t2 ON t1.col1 = t2.id AND t2.col1 <> 'b'",
            "SELECT t1.id, t2.col1 FROM t1 FULL OUTER JOIN t2 ON t1.col1 = t2.id AND t1.id > 1",
        ];
        for id in ProfileId::ALL {
            let col = columnar(id);
            let row = row_db(id);
            for q in queries {
                let a = col.execute_sql(q).unwrap_or_else(|e| panic!("{q}: {e}"));
                let b = row.execute_sql(q).unwrap();
                assert!(
                    a.result.same_bag(&b.result),
                    "{id:?} diverged on {q}: columnar {} vs row {}",
                    a.result.pretty(),
                    b.result.pretty()
                );
                assert!(a.fired.is_empty());
            }
        }
    }

    #[test]
    fn batch_boundaries_do_not_change_answers_when_pristine() {
        let mut small = columnar(ProfileId::MysqlLike);
        small.batch_size = 2;
        let big = columnar(ProfileId::MysqlLike);
        let q = "SELECT t1.id, t2.col1 FROM t1 JOIN t2 ON t1.col1 = t2.id";
        let a = small.execute_sql(q).unwrap();
        let b = big.execute_sql(q).unwrap();
        assert!(a.result.same_bag(&b.result));
    }

    #[test]
    fn explain_mentions_the_columnar_executor() {
        let db = columnar(ProfileId::TidbLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let e = db.explain(&stmt).unwrap();
        assert!(e.contains("executor: columnar"));
    }

    #[test]
    fn batch_tail_drop_loses_probe_rows() {
        let mut db = ColumnarDatabase::new(catalog(), DbmsProfile::columnar(ProfileId::MysqlLike));
        db.batch_size = 2; // 3 probe rows → one full batch + a dropped tail
        let q = "SELECT t1.id, t2.col1 FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id";
        let out = db.execute_sql(q).unwrap();
        let mut clean = columnar(ProfileId::MysqlLike);
        clean.batch_size = 2;
        let clean = clean.execute_sql(q).unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarBatchTailDrop));
        assert!(
            out.result.row_count() < clean.result.row_count(),
            "tail probe rows must vanish: {} vs {}",
            out.result.pretty(),
            clean.result.pretty()
        );
    }

    #[test]
    fn null_pad_misalignment_corrupts_first_padded_row() {
        let db = ColumnarDatabase::new(
            catalog(),
            DbmsProfile {
                faults: FaultSet::of(&[FaultKind::ColumnarNullPadMisalign]),
                ..DbmsProfile::columnar(ProfileId::MysqlLike)
            },
        );
        let q = "SELECT t1.id, t2.col1 FROM t1 LEFT OUTER JOIN t2 ON t1.col1 = t2.id";
        let out = db.execute_sql(q).unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarNullPadMisalign));
        let clean = columnar(ProfileId::MysqlLike).execute_sql(q).unwrap();
        assert_eq!(out.result.row_count(), clean.result.row_count());
        assert!(!out.result.same_bag(&clean.result));
    }

    #[test]
    fn filter_null_as_true_keeps_a_batch_tail_lane() {
        let mut db = ColumnarDatabase::new(
            catalog(),
            DbmsProfile {
                faults: FaultSet::of(&[FaultKind::ColumnarFilterNullAsTrue]),
                ..DbmsProfile::columnar(ProfileId::MysqlLike)
            },
        );
        db.batch_size = 3; // t1 has 3 rows; row 3 (NULL col1) sits on the lane
        let q = "SELECT t1.id FROM t1 WHERE t1.col1 > 5";
        let out = db.execute_sql(q).unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarFilterNullAsTrue));
        assert_eq!(out.result.row_count(), 3, "{}", out.result.pretty());
        let clean = columnar(ProfileId::MysqlLike).execute_sql(q).unwrap();
        assert_eq!(clean.result.row_count(), 2);
    }

    #[test]
    fn dict_truncation_collides_long_varchar_keys() {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            let mut t = Table::new(
                name,
                vec![ColumnDef::new("k", ColumnType::Varchar(100)).not_null()],
            );
            let suffix = if name == "a" { "left" } else { "right" };
            t.push_row(Row::new(vec![Value::str(format!("prefix01_{suffix}"))]))
                .unwrap();
            cat.add_table(t);
        }
        let faulty = ColumnarDatabase::new(
            cat.clone(),
            DbmsProfile {
                faults: FaultSet::of(&[FaultKind::ColumnarDictTruncation]),
                ..DbmsProfile::columnar(ProfileId::MysqlLike)
            },
        );
        let q = "SELECT a.k FROM a JOIN b ON a.k = b.k";
        let out = faulty.execute_sql(q).unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarDictTruncation));
        assert_eq!(out.result.row_count(), 1, "truncated keys must collide");
        let clean =
            ColumnarDatabase::new(cat, DbmsProfile::columnar_pristine(ProfileId::MysqlLike));
        assert_eq!(clean.execute_sql(q).unwrap().result.row_count(), 0);
    }

    #[test]
    fn dict_truncation_survives_multibyte_utf8_keys() {
        // A 2-byte char straddling the byte-8 cut must not panic the probe.
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            let mut t = Table::new(
                name,
                vec![ColumnDef::new("k", ColumnType::Varchar(100)).not_null()],
            );
            t.push_row(Row::new(vec![Value::str(format!("aaaaaaaé-{name}"))]))
                .unwrap();
            cat.add_table(t);
        }
        let faulty = ColumnarDatabase::new(
            cat,
            DbmsProfile {
                faults: FaultSet::of(&[FaultKind::ColumnarDictTruncation]),
                ..DbmsProfile::columnar(ProfileId::MysqlLike)
            },
        );
        let out = faulty
            .execute_sql("SELECT a.k FROM a JOIN b ON a.k = b.k")
            .unwrap();
        assert!(out.fired.contains(&FaultKind::ColumnarDictTruncation));
        assert_eq!(out.result.row_count(), 1, "clipped keys must collide");
    }

    #[test]
    fn hints_steer_the_shared_optimizer() {
        let mut db = columnar(ProfileId::MysqlLike);
        let stmt = parse_stmt("SELECT t1.id FROM t1 JOIN t2 ON t1.col1 = t2.id").unwrap();
        let merge = db
            .execute_with_hints(
                &stmt,
                &HintSet::new("merge").with_hint(tqs_sql::hints::Hint::MergeJoin(vec![])),
            )
            .unwrap();
        assert_eq!(merge.plan.joins[0].algo, JoinAlgo::SortMergeJoin);
        let default = db.execute(&stmt).unwrap();
        assert!(merge.result.same_bag(&default.result));
    }
}
