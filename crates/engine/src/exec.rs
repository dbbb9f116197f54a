//! Physical operator execution with fault interception points.
//!
//! Every join algorithm is implemented correctly; the wrong behaviours only
//! appear when a [`FaultKind`](crate::faults::FaultKind) is both enabled in
//! the profile and triggered by the current execution path *and* the data
//! actually hits the corner case. Each interception point records which
//! faults fired so the benchmark harness can classify detected bugs by root
//! cause.

use crate::faults::{FaultKind, FaultSet, TriggerContext};
use crate::joinkeys::{canonical_key_into, residual_ok, Cells, EquiKeys, ScopeLayout};
use crate::plan::{JoinAlgo, PhysicalJoin};
use std::collections::HashMap;
use std::time::Instant;
use tqs_sql::ast::{BinOp, Expr, JoinType};
use tqs_sql::eval::{compare, SliceRow};
use tqs_sql::hints::SemiJoinStrategy;
use tqs_sql::value::{KeyBuf, Value};
use tqs_storage::Table;
use tqs_telemetry::QueryProfile;

/// An intermediate relation: bound columns plus rows.
#[derive(Debug, Clone, Default)]
pub struct Rel {
    /// (binding, column name) per output column.
    pub cols: Vec<(String, String)>,
    pub rows: Vec<Vec<Value>>,
}

impl Rel {
    pub fn scan(table: &Table, binding: &str) -> Rel {
        Rel {
            cols: table
                .columns
                .iter()
                .map(|c| (binding.to_string(), c.name.clone()))
                .collect(),
            rows: table.rows.iter().map(|r| r.values.clone()).collect(),
        }
    }

    /// Scan only the columns the statement can observe (see
    /// [`ColumnPruner`]). Row count and row order are those of the full
    /// scan; only unreferenced column values are skipped, so every
    /// downstream operator — joins, faults, filters, projection — sees
    /// bit-identical data on the columns that exist.
    pub fn scan_pruned(table: &Table, binding: &str, pruner: &ColumnPruner) -> Rel {
        let keep = pruner.keep_indices(table, binding);
        if keep.len() == table.columns.len() {
            return Rel::scan(table, binding);
        }
        Rel {
            cols: keep
                .iter()
                .map(|&i| (binding.to_string(), table.columns[i].name.clone()))
                .collect(),
            rows: table
                .rows
                .iter()
                .map(|r| keep.iter().map(|&i| r.values[i].clone()).collect())
                .collect(),
        }
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn bindings(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for (b, _) in &self.cols {
            if !out.contains(&b.as_str()) {
                out.push(b);
            }
        }
        out
    }

    /// Allocation-free resolver for one row, consumable by the reference
    /// evaluator — borrows the relation's column metadata and the row slice
    /// instead of cloning both into an owned scope.
    pub fn resolver<'a>(&'a self, row: &'a [Value]) -> SliceRow<'a> {
        SliceRow::new(&self.cols, row)
    }
}

impl Cells for Rel {
    #[inline]
    fn cell(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }
}

/// Plan-time column pruning: which `(binding, column)` pairs a statement can
/// observe, resolved once per execution so scans stop materializing values
/// no operator will ever read. A cross-join chain that only projects one
/// column used to clone every column of every table through every
/// intermediate relation.
///
/// Conservative by construction: a `SELECT *` disables pruning entirely, a
/// bare (unqualified) reference keeps that column on *every* binding, and
/// references inside correlated subqueries are collected too (deep walk).
/// Pruned execution is therefore observation-equivalent: row counts, row
/// order, and every referencable value — including every fault's observable
/// effect — are unchanged.
#[derive(Debug)]
pub struct ColumnPruner {
    /// `SELECT *` present: keep everything.
    wildcard: bool,
    /// Lower-cased `(binding, column)` pairs referenced with a qualifier.
    qualified: std::collections::HashSet<(String, String)>,
    /// Lower-cased bare column names (kept on every binding).
    bare: std::collections::HashSet<String>,
}

impl ColumnPruner {
    pub fn new(stmt: &tqs_sql::ast::SelectStmt) -> ColumnPruner {
        let wildcard = stmt
            .items
            .iter()
            .any(|i| matches!(i, tqs_sql::ast::SelectItem::Wildcard));
        let mut refs = Vec::new();
        stmt.collect_column_refs_deep(&mut refs);
        let mut qualified = std::collections::HashSet::new();
        let mut bare = std::collections::HashSet::new();
        for c in refs {
            match &c.table {
                Some(t) => {
                    qualified.insert((t.to_lowercase(), c.column.to_lowercase()));
                }
                None => {
                    bare.insert(c.column.to_lowercase());
                }
            }
        }
        ColumnPruner {
            wildcard,
            qualified,
            bare,
        }
    }

    /// Must `column` of `binding` stay materialized?
    pub fn keep(&self, binding: &str, column: &str) -> bool {
        if self.wildcard {
            return true;
        }
        let col = column.to_lowercase();
        self.bare.contains(&col) || self.qualified.contains(&(binding.to_lowercase(), col))
    }

    /// The column indices of `table` a pruned scan under `binding` must
    /// materialize. Never empty: a relation that keeps zero columns would
    /// lose its row count (the columnar engine derives `len()` from its
    /// first column), so an entirely unreferenced table — e.g. the pure
    /// cardinality factor of a `CROSS JOIN` — keeps its first column.
    pub fn keep_indices(&self, table: &Table, binding: &str) -> Vec<usize> {
        let keep: Vec<usize> = table
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| self.keep(binding, &c.name))
            .map(|(i, _)| i)
            .collect();
        if keep.is_empty() && !table.columns.is_empty() {
            return vec![0];
        }
        keep
    }
}

/// Per-statement execution context: the fault set, session facts, and the
/// provenance of which faults fired.
#[derive(Debug)]
pub struct ExecContext {
    pub faults: FaultSet,
    pub switched_off: Vec<&'static str>,
    pub materialization: bool,
    pub subquery_present: bool,
    pub semi_strategy: Option<SemiJoinStrategy>,
    pub fired: Vec<FaultKind>,
    /// Operator-level profile of this execution, collected only while
    /// telemetry is enabled (`None` otherwise, so the hot path allocates
    /// nothing for it).
    pub profile: Option<QueryProfile>,
    /// Cooperative cancellation handle, picked up from the thread's
    /// installed token (inert when no deadline is configured).
    pub cancel: crate::cancel::CancelToken,
}

impl ExecContext {
    pub fn new(faults: FaultSet) -> Self {
        ExecContext {
            faults,
            switched_off: Vec::new(),
            materialization: true,
            subquery_present: false,
            semi_strategy: None,
            fired: Vec::new(),
            profile: tqs_telemetry::enabled().then(QueryProfile::new),
            cancel: crate::cancel::CancelToken::current(),
        }
    }

    /// Bail out of execution if the statement's cancel token (deadline or
    /// explicit cancel) has tripped. Executors call this at statement start
    /// and once per join so a runaway cross join is stopped at the next
    /// operator boundary.
    #[inline]
    pub fn check_cancelled(&self) -> Result<(), ExecError> {
        if self.cancel.is_cancelled() {
            tqs_telemetry::counter!("engine.exec.cancelled").incr();
            Err(ExecError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Start an operator clock — `None` (no clock read) unless profiling.
    #[inline]
    pub fn op_start(&self) -> Option<Instant> {
        self.profile.as_ref().map(|_| Instant::now())
    }

    /// Record one operator sample on the per-query profile; returns the
    /// elapsed nanoseconds (0 when not profiling) for global histograms.
    #[inline]
    pub fn op_end(&mut self, start: Option<Instant>, op: &str, rows_in: u64, rows_out: u64) -> u64 {
        if let (Some(t0), Some(p)) = (start, self.profile.as_mut()) {
            let ns = t0.elapsed().as_nanos() as u64;
            p.push(op, rows_in, rows_out, ns);
            ns
        } else {
            0
        }
    }

    pub fn fire(&mut self, kind: FaultKind) {
        if !self.fired.contains(&kind) {
            self.fired.push(kind);
        }
    }

    pub(crate) fn trigger_ctx(&self, join: &PhysicalJoin) -> TriggerContext {
        TriggerContext {
            algo: Some(join.algo),
            join_type: Some(join.join_type),
            semi_strategy: self.semi_strategy,
            materialization: self.materialization,
            subquery_present: self.subquery_present,
            simplified_from_outer: join.simplified_from_outer,
            uses_join_buffer: join.buffer_rows.is_some(),
            switched_off: self.switched_off.clone(),
        }
    }

    fn active(&self, kind: FaultKind, t: &TriggerContext) -> bool {
        self.faults.active(kind, t)
    }
}

/// Errors surfaced by the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    UnknownColumn(String),
    Unsupported(String),
    /// The statement's cancel token tripped (deadline exceeded or an
    /// explicit cancel); execution was abandoned cooperatively.
    Cancelled,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            ExecError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ExecError::Cancelled => write!(f, "statement cancelled: deadline exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Correct value-level key equality (used by the non-hashed algorithms).
fn keys_equal_correct(lrow: &[Value], rrow: &[Value], keys: &EquiKeys) -> bool {
    keys.left_idx
        .iter()
        .zip(keys.right_idx.iter())
        .all(|(&li, &ri)| compare(BinOp::Eq, &lrow[li], &rrow[ri]) == Some(true))
}

/// Encode one row's join key for the hash-based algorithms into `buf`
/// (cleared first), with fault interception. Returns `false` when the key
/// can never match (the correct treatment of NULL keys, and the
/// boundary-overflow fault). The fault segments encode bit-for-bit the same
/// equivalences as the retired `"S:|"` / `"F:0|"` / `"D:{double}|"` text
/// encoding, so every fault fires and collides on exactly the same rows —
/// pinned by the property tests below against the legacy reference.
fn encode_key_into(
    row: &[Value],
    idx: &[usize],
    ctx: &mut ExecContext,
    t: &TriggerContext,
    buf: &mut KeyBuf,
) -> bool {
    buf.clear();
    for &i in idx {
        let v = &row[i];
        if v.is_null() {
            if ctx.active(FaultKind::HashJoinNullMatchesEmpty, t) {
                ctx.fire(FaultKind::HashJoinNullMatchesEmpty);
                // NULL keys collide with the canonical empty string.
                buf.push_str_folded("");
                continue;
            }
            if ctx.active(FaultKind::SemiJoinFloatPrecision, t) {
                ctx.fire(FaultKind::SemiJoinFloatPrecision);
                // NULL keys collide with values whose f32 round-trip is +0.
                buf.push_f64_bits(KeyBuf::TAG_DOUBLE, 0.0);
                continue;
            }
            return false;
        }
        // Boundary values vanish into an unprobed overflow bucket.
        if ctx.active(FaultKind::HashJoinMaterializationZeroSplit, t) && is_boundary_like(v) {
            ctx.fire(FaultKind::HashJoinMaterializationZeroSplit);
            return false;
        }
        // Long varchar keys get routed through a lossy double conversion.
        if ctx.active(FaultKind::HashJoinVarcharViaDouble, t) {
            if let Some(s) = v.as_str() {
                if s.len() > 8 {
                    ctx.fire(FaultKind::HashJoinVarcharViaDouble);
                    buf.push_f64_bits(KeyBuf::TAG_LOSSY_DOUBLE, v.as_f64_lossy().unwrap_or(0.0));
                    continue;
                }
            }
        }
        // Float-precision loss on the semi-join materialization-off path.
        if ctx.active(FaultKind::SemiJoinFloatPrecision, t) {
            if let Some(f) = v.as_f64_lossy() {
                if v.as_str().is_none() {
                    let rounded = f as f32 as f64;
                    if rounded != f {
                        ctx.fire(FaultKind::SemiJoinFloatPrecision);
                    }
                    buf.push_f64_bits(KeyBuf::TAG_DOUBLE, rounded);
                    continue;
                }
            }
        }
        buf.push_canonical(v);
    }
    true
}

/// Canonical *text* rendering of a value under correct key semantics. No
/// longer on the per-row path: the merge join renders it once per distinct
/// key run to order runs exactly as the old string keys sorted, so the
/// first/last-run faults keep skipping the same runs they always did.
pub(crate) fn canonical_encoding(v: &Value) -> String {
    match tqs_sql::value::hash_key(v) {
        tqs_sql::value::HashKey::Null => "N:".to_string(),
        tqs_sql::value::HashKey::Int(i) => format!("I:{i}"),
        tqs_sql::value::HashKey::Double(b) => format!("F:{}", f64::from_bits(b)),
        tqs_sql::value::HashKey::Str(s) => format!("S:{s}"),
    }
}

fn is_boundary_like(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i >= 32_767 || *i <= -32_767,
        Value::UInt(u) => *u >= 32_767,
        Value::Varchar(s) | Value::Text(s) => {
            let mut chars = s.chars();
            match chars.next() {
                Some(first) => s.len() >= 8 && chars.all(|c| c == first),
                None => false,
            }
        }
        Value::Float(f) => f.is_sign_negative() && *f == 0.0,
        Value::Double(f) => f.is_sign_negative() && *f == 0.0,
        _ => false,
    }
}

/// Execute one physical join step.
pub fn execute_join(
    left: &Rel,
    right: &Rel,
    join: &PhysicalJoin,
    on: Option<&Expr>,
    ctx: &mut ExecContext,
) -> Result<Rel, ExecError> {
    let op_t0 = ctx.op_start();
    let t = ctx.trigger_ctx(join);
    let keys = EquiKeys::extract(&left.cols, &right.cols, on);
    let layout = ScopeLayout::compile(&keys.residual, &left.cols, &right.cols);

    // Compute the match matrix: for each left row, the list of matching right
    // row indices. Algorithms differ in how matches are found (and therefore
    // in which faults can perturb them).
    let (matches, mut extra_fired_rows) = match join.algo {
        JoinAlgo::HashJoin
        | JoinAlgo::IndexJoin
        | JoinAlgo::BatchedKeyAccess
        | JoinAlgo::BlockNestedLoopHashed => hashed_matches(left, right, &keys, &layout, ctx, &t),
        JoinAlgo::SortMergeJoin => merge_matches(left, right, &keys, &layout, ctx, &t),
        JoinAlgo::NestedLoop | JoinAlgo::BlockNestedLoop => {
            loop_matches(left, right, &keys, &layout, ctx, &t)
        }
    };

    // Join-buffer tail loss: rows of the buffered (left) side beyond the last
    // complete buffer chunk never get joined.
    let mut left_live: Vec<bool> = vec![true; left.rows.len()];
    if let Some(buf) = join.buffer_rows {
        if ctx.active(FaultKind::JoinBufferLimitDropsTail, &t) && left.rows.len() > buf {
            let keep = (left.rows.len() / buf) * buf;
            for live in left_live.iter_mut().skip(keep) {
                *live = false;
            }
            ctx.fire(FaultKind::JoinBufferLimitDropsTail);
        }
    }

    let mut out = Rel {
        cols: match join.join_type {
            JoinType::Semi | JoinType::Anti => left.cols.clone(),
            _ => {
                let mut c = left.cols.clone();
                c.extend(right.cols.clone());
                c
            }
        },
        rows: Vec::new(),
    };

    let mut right_matched = vec![false; right.rows.len()];
    let mut first_unmatched_pad: Option<Vec<Value>> = None;
    for (li, lrow) in left.rows.iter().enumerate() {
        if !left_live[li] {
            continue;
        }
        let ms = &matches[li];
        match join.join_type {
            JoinType::Inner
            | JoinType::Cross
            | JoinType::LeftOuter
            | JoinType::RightOuter
            | JoinType::FullOuter => {
                for &ri in ms {
                    right_matched[ri] = true;
                    let mut row = lrow.clone();
                    let mut rvals = right.rows[ri].clone();
                    // Stale-cache replay: every 50th emitted row repeats the
                    // previous row's right-side values.
                    if ctx.active(FaultKind::JoinCacheStaleRow, &t)
                        && out.rows.len() % 50 == 49
                        && !out.rows.is_empty()
                    {
                        ctx.fire(FaultKind::JoinCacheStaleRow);
                        let prev = &out.rows[out.rows.len() - 1];
                        rvals = prev[left.width()..].to_vec();
                    }
                    // Merge join returning NULL instead of the value for
                    // duplicate key runs is applied inside merge_matches via
                    // extra_fired_rows.
                    if extra_fired_rows.null_right_rows.contains(&ri) {
                        rvals = vec![Value::Null; right.width()];
                    }
                    row.extend(rvals);
                    out.rows.push(row);
                }
                if ms.is_empty()
                    && matches!(join.join_type, JoinType::LeftOuter | JoinType::FullOuter)
                {
                    // Outer merge join dropping unmatched rows entirely.
                    if ctx.active(FaultKind::MergeJoinOuterNullLoss, &t) {
                        ctx.fire(FaultKind::MergeJoinOuterNullLoss);
                        continue;
                    }
                    let pad = pad_values(right.width(), ctx, &t, &mut first_unmatched_pad);
                    let mut row = lrow.clone();
                    row.extend(pad);
                    out.rows.push(row);
                }
            }
            JoinType::Semi => {
                if !ms.is_empty() {
                    out.rows.push(lrow.clone());
                    if ctx.active(FaultKind::SemiJoinUnknownData, &t) {
                        ctx.fire(FaultKind::SemiJoinUnknownData);
                        out.rows.push(lrow.clone());
                    }
                }
            }
            JoinType::Anti => {
                if ms.is_empty() {
                    out.rows.push(lrow.clone());
                }
            }
        }
    }

    // Right/full outer: pad unmatched right rows on the left side.
    if matches!(join.join_type, JoinType::RightOuter | JoinType::FullOuter) {
        for (ri, matched) in right_matched.iter().enumerate() {
            if !matched {
                if ctx.active(FaultKind::MergeJoinOuterNullLoss, &t) {
                    ctx.fire(FaultKind::MergeJoinOuterNullLoss);
                    continue;
                }
                let pad = pad_values(left.width(), ctx, &t, &mut first_unmatched_pad);
                let mut row = pad;
                row.extend(right.rows[ri].clone());
                out.rows.push(row);
            }
        }
    }

    // Extra spurious NULL-padded row for the left hash join + subquery case.
    if ctx.active(FaultKind::LeftHashJoinSubqueryNull, &t) && join.join_type == JoinType::LeftOuter
    {
        if let Some((li, _)) = left
            .rows
            .iter()
            .enumerate()
            .find(|(li, _)| left_live[*li] && matches[*li].is_empty())
        {
            ctx.fire(FaultKind::LeftHashJoinSubqueryNull);
            let mut row = left.rows[li].clone();
            row.extend(vec![Value::Null; right.width()]);
            out.rows.push(row);
        }
    }

    // Blanked varchar values when the hashed join buffer is disallowed.
    if ctx.active(FaultKind::BnlhDisallowedBlankValues, &t)
        && join
            .buffer_rows
            .map(|b| left.rows.len() > b)
            .unwrap_or(false)
        && !out.rows.is_empty()
    {
        ctx.fire(FaultKind::BnlhDisallowedBlankValues);
        let last = out.rows.len() - 1;
        for v in out.rows[last].iter_mut() {
            if matches!(v, Value::Varchar(_) | Value::Text(_)) {
                *v = Value::Varchar(String::new());
            }
        }
    }

    extra_fired_rows.null_right_rows.clear();
    if let Some(t0) = op_t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        let rows_in = (left.rows.len() + right.rows.len()) as u64;
        let rows_out = out.rows.len() as u64;
        if let Some(p) = ctx.profile.as_mut() {
            p.push(join.algo.profile_label(), rows_in, rows_out, ns);
        }
        tqs_telemetry::counter!("engine.row.join.rows_in").add(rows_in);
        tqs_telemetry::counter!("engine.row.join.rows_out").add(rows_out);
        tqs_telemetry::histogram!("engine.row.join.ns").record(ns);
    }
    Ok(out)
}

/// Bookkeeping returned by algorithm-specific match computation.
#[derive(Default)]
struct MatchSideEffects {
    /// Right rows whose values must be replaced by NULLs in the output
    /// (merge-join duplicate-run corruption).
    null_right_rows: Vec<usize>,
}

/// Is canonical-key equality ([`KeyBuf::push_canonical`] / [`hash_key`]
/// (tqs_sql::value::hash_key)) guaranteed to agree with [`sql_compare`]
/// equality on every cross-side pair of these key columns?
///
/// Proven only for two data shapes, checked against the actual column
/// values:
///
/// * **all strings** — `collate_cmp` equality and the folded hash key apply
///   the same lowercase + trailing-space-trim equivalence;
/// * **all exact small integers** (`as_i128_exact` within ±2⁵³) —
///   `sql_compare` takes the exact i128 path and `hash_key` maps the same
///   i128.
///
/// Everything else bails to the compare loop: a string meeting a number
/// coerces under SQL but not under the hash key; fractional decimals compare
/// exactly under SQL but hash through a lossy f64; integers beyond 2⁵³ can
/// equal a double under lossy comparison while hashing differently. Each
/// key column pair must be string-vs-string or int-vs-int (an all-NULL /
/// empty column matches anything — NULL keys never match rows anyway).
fn hash_equivalent_keys(left: &Rel, right: &Rel, keys: &EquiKeys) -> bool {
    #[derive(PartialEq, Clone, Copy)]
    enum ColClass {
        Empty,
        Str,
        SmallInt,
    }
    const EXACT_F64_INT: u128 = 1 << 53;
    let classify = |rows: &[Vec<Value>], idx: usize| -> Option<ColClass> {
        let mut class = ColClass::Empty;
        for row in rows {
            let v = &row[idx];
            if v.is_null() {
                continue;
            }
            let this = if v.as_str().is_some() {
                ColClass::Str
            } else if matches!(v.as_i128_exact(), Some(i) if i.unsigned_abs() <= EXACT_F64_INT) {
                ColClass::SmallInt
            } else {
                return None; // floats, fractional decimals, huge integers
            };
            if class == ColClass::Empty {
                class = this;
            } else if class != this {
                return None; // mixed strings and numbers within one column
            }
        }
        Some(class)
    };
    keys.left_idx
        .iter()
        .zip(keys.right_idx.iter())
        .all(
            |(&li, &ri)| match (classify(&left.rows, li), classify(&right.rows, ri)) {
                (Some(a), Some(b)) => a == b || a == ColClass::Empty || b == ColClass::Empty,
                _ => false,
            },
        )
}

/// The nested-loop algorithms with an equi key: identical match decisions to
/// the O(|L|·|R|) compare loop, computed by hashing canonical keys — valid
/// only when [`hash_equivalent_keys`] holds. No key-encoding faults apply on
/// this path (those belong to the hash-join algorithms); the NULL/row-0
/// confusion fault is reproduced exactly.
fn loop_matches_hashed(
    left: &Rel,
    right: &Rel,
    keys: &EquiKeys,
    layout: &ScopeLayout,
    ctx: &mut ExecContext,
    t: &TriggerContext,
) -> (Vec<Vec<usize>>, MatchSideEffects) {
    let mut table: HashMap<KeyBuf, Vec<usize>> = HashMap::new();
    let mut scratch = KeyBuf::new();
    for ri in 0..right.rows.len() {
        if !canonical_key_into(right, ri, &keys.right_idx, &mut scratch) {
            continue;
        }
        match table.get_mut(&scratch) {
            Some(bucket) => bucket.push(ri),
            None => {
                table.insert(scratch.clone(), vec![ri]);
            }
        }
    }
    let mut out = vec![Vec::new(); left.rows.len()];
    for (li, ms) in out.iter_mut().enumerate() {
        if !canonical_key_into(left, li, &keys.left_idx, &mut scratch) {
            // NULL keys never match; the simplified-join confusion fault
            // spuriously matches build row 0, exactly like the compare loop.
            if !right.rows.is_empty() && ctx.active(FaultKind::LeftToInnerNullZeroConfusion, t) {
                ctx.fire(FaultKind::LeftToInnerNullZeroConfusion);
                if residual_ok(&keys.residual, layout, left, li, right, 0) {
                    ms.push(0);
                }
            }
            continue;
        }
        if let Some(bucket) = table.get(&scratch) {
            *ms = bucket
                .iter()
                .copied()
                .filter(|&ri| residual_ok(&keys.residual, layout, left, li, right, ri))
                .collect();
        }
    }
    (out, MatchSideEffects::default())
}

fn loop_matches(
    left: &Rel,
    right: &Rel,
    keys: &EquiKeys,
    layout: &ScopeLayout,
    ctx: &mut ExecContext,
    t: &TriggerContext,
) -> (Vec<Vec<usize>>, MatchSideEffects) {
    if !keys.left_idx.is_empty() && hash_equivalent_keys(left, right, keys) {
        return loop_matches_hashed(left, right, keys, layout, ctx, t);
    }
    let mut out = vec![Vec::new(); left.rows.len()];
    for (li, lrow) in left.rows.iter().enumerate() {
        let left_has_null = keys.left_idx.iter().any(|&i| lrow[i].is_null());
        for (ri, rrow) in right.rows.iter().enumerate() {
            let mut matched = keys.left_idx.is_empty() || keys_equal_correct(lrow, rrow, keys);
            // A simplified (outer→inner) join that confuses NULL with the
            // first build row.
            if !matched
                && ctx.active(FaultKind::LeftToInnerNullZeroConfusion, t)
                && left_has_null
                && ri == 0
            {
                ctx.fire(FaultKind::LeftToInnerNullZeroConfusion);
                matched = true;
            }
            if matched && residual_ok(&keys.residual, layout, left, li, right, ri) {
                out[li].push(ri);
            }
        }
    }
    (out, MatchSideEffects::default())
}

fn hashed_matches(
    left: &Rel,
    right: &Rel,
    keys: &EquiKeys,
    layout: &ScopeLayout,
    ctx: &mut ExecContext,
    t: &TriggerContext,
) -> (Vec<Vec<usize>>, MatchSideEffects) {
    if keys.left_idx.is_empty() {
        // no equi key — degrade to the loop implementation (correct)
        return loop_matches(left, right, keys, layout, ctx, t);
    }
    // Build side: one owned key per *distinct* key; the scratch buffer is
    // reused across rows, so the per-row cost is a clear + byte appends.
    let mut table: HashMap<KeyBuf, Vec<usize>> = HashMap::new();
    let mut scratch = KeyBuf::new();
    for (ri, rrow) in right.rows.iter().enumerate() {
        if encode_key_into(rrow, &keys.right_idx, ctx, t, &mut scratch) {
            match table.get_mut(&scratch) {
                Some(bucket) => bucket.push(ri),
                None => {
                    table.insert(scratch.clone(), vec![ri]);
                }
            }
        }
    }
    let first_bucket: Vec<usize> = table.values().next().cloned().unwrap_or_default();
    let mut out = vec![Vec::new(); left.rows.len()];
    for (li, lrow) in left.rows.iter().enumerate() {
        let has_null = keys.left_idx.iter().any(|&i| lrow[i].is_null());
        let mut ms: Vec<usize> = if encode_key_into(lrow, &keys.left_idx, ctx, t, &mut scratch) {
            table.get(&scratch).cloned().unwrap_or_default()
        } else {
            Vec::new()
        };
        if ms.is_empty()
            && has_null
            && ctx.active(FaultKind::LeftToInnerNullZeroConfusion, t)
            && !first_bucket.is_empty()
        {
            ctx.fire(FaultKind::LeftToInnerNullZeroConfusion);
            ms = first_bucket.clone();
        }
        // residual predicates still apply
        ms.retain(|&ri| residual_ok(&keys.residual, layout, left, li, right, ri));
        out[li] = ms;
    }
    (out, MatchSideEffects::default())
}

/// One duplicate-key run of the merge join.
struct MergeRun {
    rows: Vec<usize>,
    /// The legacy text rendering of the run's key — computed once per
    /// distinct key, only to order runs exactly as the old string keys
    /// sorted (the first/last-run faults must keep skipping the same runs).
    text: String,
    skipped: bool,
}

fn merge_matches(
    left: &Rel,
    right: &Rel,
    keys: &EquiKeys,
    layout: &ScopeLayout,
    ctx: &mut ExecContext,
    t: &TriggerContext,
) -> (Vec<Vec<usize>>, MatchSideEffects) {
    if keys.left_idx.is_empty() {
        return loop_matches(left, right, keys, layout, ctx, t);
    }
    // Collation-mismatch fault: varchar merge keys produce an empty join.
    let key_is_string = right
        .rows
        .iter()
        .flat_map(|r| keys.right_idx.iter().map(move |&i| &r[i]))
        .any(|v| v.as_str().is_some());
    if key_is_string && ctx.active(FaultKind::MergeJoinVarcharEmpty, t) {
        ctx.fire(FaultKind::MergeJoinVarcharEmpty);
        return (
            vec![Vec::new(); left.rows.len()],
            MatchSideEffects::default(),
        );
    }
    // A straightforward (correct) merge: group right rows by canonical key.
    // Binary keys index the runs; the probe below hits this same index
    // directly instead of rebuilding a borrowed shadow map.
    let mut runs: Vec<MergeRun> = Vec::new();
    let mut index: HashMap<KeyBuf, usize> = HashMap::new();
    let mut scratch = KeyBuf::new();
    for (ri, rrow) in right.rows.iter().enumerate() {
        if !canonical_key_into(right, ri, &keys.right_idx, &mut scratch) {
            continue;
        }
        match index.get(&scratch) {
            Some(&gi) => runs[gi].rows.push(ri),
            None => {
                index.insert(scratch.clone(), runs.len());
                runs.push(MergeRun {
                    rows: vec![ri],
                    text: keys
                        .right_idx
                        .iter()
                        .map(|&i| canonical_encoding(&rrow[i]) + "|")
                        .collect(),
                    skipped: false,
                });
            }
        }
    }
    // Merge-order the runs by key text, then apply the run-skipping faults
    // by sorted position.
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by(|&a, &b| runs[a].text.cmp(&runs[b].text));
    let mut skipped_first = false;
    let mut skipped_last = false;
    let mut effects = MatchSideEffects::default();
    let n_runs = runs.len();
    for (pos, &gi) in order.iter().enumerate() {
        // "missed -0" ↔ the cursor skips the smallest key run.
        if pos == 0 && n_runs > 1 && ctx.active(FaultKind::MergeJoinNegativeZeroMiss, t) {
            runs[gi].skipped = true;
            skipped_first = true;
            continue;
        }
        // the final duplicate run is dropped
        if pos + 1 == n_runs && n_runs > 1 && ctx.active(FaultKind::MergeJoinDropsLastRun, t) {
            runs[gi].skipped = true;
            skipped_last = true;
            continue;
        }
        // duplicate runs: 2nd and later rows come back as NULLs
        if runs[gi].rows.len() > 1 && ctx.active(FaultKind::MergeJoinNullInsteadOfValue, t) {
            ctx.fire(FaultKind::MergeJoinNullInsteadOfValue);
            effects
                .null_right_rows
                .extend(runs[gi].rows.iter().skip(1).copied());
        }
    }
    if skipped_first {
        ctx.fire(FaultKind::MergeJoinNegativeZeroMiss);
    }
    if skipped_last {
        ctx.fire(FaultKind::MergeJoinDropsLastRun);
    }
    let mut out = vec![Vec::new(); left.rows.len()];
    for (li, ms) in out.iter_mut().enumerate() {
        if !canonical_key_into(left, li, &keys.left_idx, &mut scratch) {
            continue;
        }
        if let Some(&gi) = index.get(&scratch) {
            if runs[gi].skipped {
                continue;
            }
            *ms = runs[gi]
                .rows
                .iter()
                .copied()
                .filter(|&ri| residual_ok(&keys.residual, layout, left, li, right, ri))
                .collect();
        }
    }
    (out, effects)
}

/// NULL padding for the unmatched side of outer joins, with the
/// empty-string-instead-of-NULL faults.
fn pad_values(
    width: usize,
    ctx: &mut ExecContext,
    t: &TriggerContext,
    first_pad_done: &mut Option<Vec<Value>>,
) -> Vec<Value> {
    let corrupt = first_pad_done.is_none()
        && (ctx.active(FaultKind::OuterJoinCacheEmptyPad, t)
            || ctx.active(FaultKind::BkaDisallowedNullToEmpty, t));
    let pad: Vec<Value> = if corrupt {
        if ctx.active(FaultKind::OuterJoinCacheEmptyPad, t) {
            ctx.fire(FaultKind::OuterJoinCacheEmptyPad);
        } else {
            ctx.fire(FaultKind::BkaDisallowedNullToEmpty);
        }
        vec![Value::Varchar(String::new()); width]
    } else {
        vec![Value::Null; width]
    };
    if first_pad_done.is_none() {
        *first_pad_done = Some(pad.clone());
    }
    pad
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::types::{ColumnDef, ColumnType};
    use tqs_storage::Row;

    fn table(name: &str, rows: Vec<Vec<Value>>) -> Table {
        let mut t = Table::new(
            name,
            vec![
                ColumnDef::new("id", ColumnType::Int { unsigned: false }),
                ColumnDef::new("name", ColumnType::Varchar(100)),
            ],
        );
        for r in rows {
            t.push_row(Row::new(r)).unwrap();
        }
        t
    }

    fn join(jt: JoinType, algo: JoinAlgo) -> PhysicalJoin {
        PhysicalJoin {
            right_binding: "r".into(),
            join_type: jt,
            algo,
            simplified_from_outer: false,
            buffer_rows: None,
        }
    }

    fn on_clause() -> Expr {
        Expr::eq(Expr::col("l", "id"), Expr::col("r", "id"))
    }

    fn left_rel() -> Rel {
        Rel::scan(
            &table(
                "l",
                vec![
                    vec![Value::Int(1), Value::str("a")],
                    vec![Value::Int(2), Value::str("b")],
                    vec![Value::Int(3), Value::str("c")],
                    vec![Value::Null, Value::str("n")],
                ],
            ),
            "l",
        )
    }

    fn right_rel() -> Rel {
        Rel::scan(
            &table(
                "r",
                vec![
                    vec![Value::Int(1), Value::str("x")],
                    vec![Value::Int(1), Value::str("y")],
                    vec![Value::Int(3), Value::str("z")],
                    vec![Value::Null, Value::str("rn")],
                ],
            ),
            "r",
        )
    }

    fn run(jt: JoinType, algo: JoinAlgo, faults: FaultSet) -> (Rel, ExecContext) {
        let mut ctx = ExecContext::new(faults);
        let out = execute_join(
            &left_rel(),
            &right_rel(),
            &join(jt, algo),
            Some(&on_clause()),
            &mut ctx,
        )
        .unwrap();
        (out, ctx)
    }

    #[test]
    fn all_algorithms_agree_on_clean_inner_join() {
        let mut counts = Vec::new();
        for algo in JoinAlgo::ALL {
            let (out, ctx) = run(JoinType::Inner, algo, FaultSet::none());
            counts.push(out.rows.len());
            assert!(
                ctx.fired.is_empty(),
                "{algo:?} fired faults on a pristine build"
            );
        }
        // l.id=1 matches two rows, l.id=3 matches one; NULLs never match.
        assert!(counts.iter().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    fn outer_join_padding_is_null_by_default() {
        let (out, _) = run(JoinType::LeftOuter, JoinAlgo::HashJoin, FaultSet::none());
        // 3 matches + 2 unmatched left rows (id=2 and NULL)
        assert_eq!(out.rows.len(), 5);
        let padded: Vec<&Vec<Value>> = out.rows.iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(padded.len(), 2);
        let (out, _) = run(JoinType::FullOuter, JoinAlgo::NestedLoop, FaultSet::none());
        // + 1 unmatched right row (NULL key)
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn semi_and_anti_join_semantics() {
        let (semi, _) = run(JoinType::Semi, JoinAlgo::HashJoin, FaultSet::none());
        assert_eq!(semi.rows.len(), 2); // ids 1 and 3
        assert_eq!(semi.width(), 2); // only left columns
        let (anti, _) = run(JoinType::Anti, JoinAlgo::NestedLoop, FaultSet::none());
        assert_eq!(anti.rows.len(), 2); // id 2 and the NULL row
    }

    #[test]
    fn hash_join_null_matches_empty_fault_adds_rows() {
        let faults = FaultSet::of(&[FaultKind::HashJoinNullMatchesEmpty]);
        let (out, ctx) = run(JoinType::Inner, JoinAlgo::HashJoin, faults.clone());
        // The NULL left key now matches the NULL right key (both encode "").
        assert_eq!(out.rows.len(), 4);
        assert_eq!(ctx.fired, vec![FaultKind::HashJoinNullMatchesEmpty]);
        // …but the same fault never fires under a nested loop plan.
        let (out, ctx) = run(JoinType::Inner, JoinAlgo::NestedLoop, faults);
        assert_eq!(out.rows.len(), 3);
        assert!(ctx.fired.is_empty());
    }

    #[test]
    fn merge_join_faults_drop_runs() {
        let (clean, _) = run(JoinType::Inner, JoinAlgo::SortMergeJoin, FaultSet::none());
        assert_eq!(clean.rows.len(), 3);
        let (out, ctx) = run(
            JoinType::Inner,
            JoinAlgo::SortMergeJoin,
            FaultSet::of(&[FaultKind::MergeJoinDropsLastRun]),
        );
        assert!(out.rows.len() < clean.rows.len());
        assert_eq!(ctx.fired, vec![FaultKind::MergeJoinDropsLastRun]);
        let (out, ctx) = run(
            JoinType::Inner,
            JoinAlgo::SortMergeJoin,
            FaultSet::of(&[FaultKind::MergeJoinNegativeZeroMiss]),
        );
        assert!(out.rows.len() < clean.rows.len());
        assert_eq!(ctx.fired, vec![FaultKind::MergeJoinNegativeZeroMiss]);
    }

    #[test]
    fn merge_join_null_instead_of_value() {
        let (out, ctx) = run(
            JoinType::Inner,
            JoinAlgo::SortMergeJoin,
            FaultSet::of(&[FaultKind::MergeJoinNullInsteadOfValue]),
        );
        assert_eq!(ctx.fired, vec![FaultKind::MergeJoinNullInsteadOfValue]);
        // the duplicate id=1 run has its second row blanked to NULLs
        assert!(out.rows.iter().any(|r| r[2].is_null() && !r[0].is_null()));
    }

    #[test]
    fn outer_pad_empty_string_fault() {
        let mut ctx = ExecContext::new(FaultSet::of(&[FaultKind::OuterJoinCacheEmptyPad]));
        let j = PhysicalJoin {
            right_binding: "r".into(),
            join_type: JoinType::LeftOuter,
            algo: JoinAlgo::BlockNestedLoop,
            simplified_from_outer: false,
            buffer_rows: Some(64),
        };
        let out =
            execute_join(&left_rel(), &right_rel(), &j, Some(&on_clause()), &mut ctx).unwrap();
        assert_eq!(ctx.fired, vec![FaultKind::OuterJoinCacheEmptyPad]);
        // exactly one padded row carries '' instead of NULL
        let empties = out
            .rows
            .iter()
            .filter(|r| r[2..].iter().any(|v| v.as_str() == Some("")))
            .count();
        assert_eq!(empties, 1);
    }

    #[test]
    fn join_buffer_tail_drop() {
        let mut ctx = ExecContext::new(FaultSet::of(&[FaultKind::JoinBufferLimitDropsTail]));
        let j = PhysicalJoin {
            right_binding: "r".into(),
            join_type: JoinType::Inner,
            algo: JoinAlgo::BlockNestedLoop,
            simplified_from_outer: false,
            buffer_rows: Some(3),
        };
        let out =
            execute_join(&left_rel(), &right_rel(), &j, Some(&on_clause()), &mut ctx).unwrap();
        // left has 4 rows, buffer 3 → the 4th left row is never joined; with
        // clean execution row id=NULL contributes nothing anyway, so compare
        // against a buffer that fits everything.
        assert_eq!(ctx.fired, vec![FaultKind::JoinBufferLimitDropsTail]);
        assert!(out.rows.len() <= 3);
    }

    #[test]
    fn simplified_left_join_null_zero_confusion() {
        let mut ctx = ExecContext::new(FaultSet::of(&[FaultKind::LeftToInnerNullZeroConfusion]));
        let j = PhysicalJoin {
            right_binding: "r".into(),
            join_type: JoinType::Inner,
            algo: JoinAlgo::HashJoin,
            simplified_from_outer: true,
            buffer_rows: None,
        };
        let out =
            execute_join(&left_rel(), &right_rel(), &j, Some(&on_clause()), &mut ctx).unwrap();
        assert_eq!(ctx.fired, vec![FaultKind::LeftToInnerNullZeroConfusion]);
        assert!(out.rows.len() > 3, "NULL key spuriously matched");
        // without the simplification flag the fault stays silent
        let (out, ctx2) = run(
            JoinType::Inner,
            JoinAlgo::HashJoin,
            FaultSet::of(&[FaultKind::LeftToInnerNullZeroConfusion]),
        );
        assert_eq!(out.rows.len(), 3);
        assert!(ctx2.fired.is_empty());
    }

    #[test]
    fn boundary_values_vanish_under_materialized_hash_join() {
        let left = Rel::scan(
            &table("l", vec![vec![Value::Int(65_535), Value::str("big")]]),
            "l",
        );
        let right = Rel::scan(
            &table("r", vec![vec![Value::Int(65_535), Value::str("big")]]),
            "r",
        );
        let mut ctx =
            ExecContext::new(FaultSet::of(&[FaultKind::HashJoinMaterializationZeroSplit]));
        ctx.materialization = true;
        let out = execute_join(
            &left,
            &right,
            &join(JoinType::Inner, JoinAlgo::HashJoin),
            Some(&on_clause()),
            &mut ctx,
        )
        .unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(ctx.fired, vec![FaultKind::HashJoinMaterializationZeroSplit]);
    }

    #[test]
    fn cross_join_produces_cartesian_product() {
        let mut ctx = ExecContext::new(FaultSet::none());
        let out = execute_join(
            &left_rel(),
            &right_rel(),
            &join(JoinType::Cross, JoinAlgo::NestedLoop),
            None,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 16);
    }

    #[test]
    fn key_extraction_handles_reversed_equality_and_residual() {
        let left = left_rel();
        let right = right_rel();
        let on = Expr::and(
            Expr::eq(Expr::col("r", "id"), Expr::col("l", "id")),
            Expr::binary(
                BinOp::Ne,
                Expr::col("r", "name"),
                Expr::lit(Value::str("y")),
            ),
        );
        let keys = EquiKeys::extract(&left.cols, &right.cols, Some(&on));
        assert_eq!(keys.left_idx, vec![0]);
        assert_eq!(keys.right_idx, vec![0]);
        assert_eq!(keys.residual.len(), 1);
        let mut ctx = ExecContext::new(FaultSet::none());
        let out = execute_join(
            &left,
            &right,
            &join(JoinType::Inner, JoinAlgo::HashJoin),
            Some(&on),
            &mut ctx,
        )
        .unwrap();
        // the residual predicate filters out the (1, y) match
        assert_eq!(out.rows.len(), 2);
    }
}
