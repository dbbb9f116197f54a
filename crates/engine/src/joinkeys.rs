//! The fault-free half of every join: column lookup, equi-key extraction,
//! residual-predicate scope and canonical key encoding.
//!
//! The row executor ([`crate::exec::execute_join`], which the disk engine
//! runs too) and the columnar executor ([`crate::columnar::columnar_join`])
//! both call this module, so on a pristine build they compute the same join
//! by construction. They differ only in relation layout — reached through
//! [`Cells`], monomorphized per layout — and in their fault hooks, which stay
//! with each executor: key-encoding faults, match loops and outer-join
//! assembly never come through here.

use tqs_sql::ast::{BinOp, ColumnRef, Expr};
use tqs_sql::eval::{eval_predicate, ColumnResolver, NoSubqueries};
use tqs_sql::value::{KeyBuf, Value};

/// Position of the first column of `cols` (`(binding, column)` pairs) that a
/// reference names. Case-insensitive; an unqualified reference matches the
/// column under any binding.
pub(crate) fn col_index(
    cols: &[(String, String)],
    binding: Option<&str>,
    col: &str,
) -> Option<usize> {
    cols.iter().position(|(b, c)| {
        c.eq_ignore_ascii_case(col) && binding.map(|q| q.eq_ignore_ascii_case(b)).unwrap_or(true)
    })
}

/// How a join input yields one cell: the row layout indexes a row slice, the
/// columnar layout a column vector.
pub(crate) trait Cells {
    fn cell(&self, row: usize, col: usize) -> &Value;
}

/// Equi-key extraction result: column indices on each side plus any residual
/// predicates that must still be evaluated per candidate pair.
pub(crate) struct EquiKeys {
    pub(crate) left_idx: Vec<usize>,
    pub(crate) right_idx: Vec<usize>,
    pub(crate) residual: Vec<Expr>,
}

impl EquiKeys {
    /// Split `on` into `left.col = right.col` keys (either operand order)
    /// and residual conjuncts, in conjunct order.
    pub(crate) fn extract(
        left: &[(String, String)],
        right: &[(String, String)],
        on: Option<&Expr>,
    ) -> EquiKeys {
        let mut keys = EquiKeys {
            left_idx: Vec::new(),
            right_idx: Vec::new(),
            residual: Vec::new(),
        };
        let Some(on) = on else { return keys };
        let side_pair = |l: &ColumnRef, r: &ColumnRef| {
            let li = col_index(left, l.table.as_deref(), &l.column);
            li.zip(col_index(right, r.table.as_deref(), &r.column))
        };
        for c in on.conjuncts() {
            if let Expr::Binary {
                op: BinOp::Eq,
                left: a,
                right: b,
            } = c
            {
                if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                    if let Some((li, ri)) = side_pair(ca, cb).or_else(|| side_pair(cb, ca)) {
                        keys.left_idx.push(li);
                        keys.right_idx.push(ri);
                        continue;
                    }
                }
            }
            keys.residual.push(c.clone());
        }
        keys
    }
}

/// Encode the canonical join key of `row` over the key columns `idx` into
/// `buf` (cleared first). Returns `false` — the key can never match — when
/// any key cell is NULL.
pub(crate) fn canonical_key_into<C: Cells>(
    cells: &C,
    row: usize,
    idx: &[usize],
    buf: &mut KeyBuf,
) -> bool {
    buf.clear();
    for &i in idx {
        let v = cells.cell(row, i);
        if v.is_null() {
            return false;
        }
        buf.push_canonical(v);
    }
    true
}

/// Residual-predicate column references resolved to a side and a column
/// offset once per join — the compiled scope that lets residual evaluation
/// borrow the candidate cells instead of cloning a full two-sided scope
/// (binding + column name + value per column) for every candidate pair.
pub(crate) struct ScopeLayout {
    entries: Vec<ScopeEntry>,
}

struct ScopeEntry {
    /// The reference text this entry compiles (qualifier + column).
    table: Option<String>,
    column: String,
    /// Resolved target: right side? plus the column offset on that side.
    right: bool,
    offset: usize,
}

impl ScopeLayout {
    /// Resolve every distinct column reference in `residual` against the
    /// join inputs' columns, left before right — the same first-match order
    /// as a scan of the combined row scope.
    pub(crate) fn compile(
        residual: &[Expr],
        left: &[(String, String)],
        right: &[(String, String)],
    ) -> ScopeLayout {
        let mut entries: Vec<ScopeEntry> = Vec::new();
        for pred in residual {
            for c in pred.column_refs() {
                if entries.iter().any(|e| e.matches(c)) {
                    continue;
                }
                let (table, column) = (c.table.as_deref(), c.column.as_str());
                let target = col_index(left, table, column)
                    .map(|o| (false, o))
                    .or_else(|| col_index(right, table, column).map(|o| (true, o)));
                if let Some((right, offset)) = target {
                    entries.push(ScopeEntry {
                        table: c.table.clone(),
                        column: c.column.clone(),
                        right,
                        offset,
                    });
                }
            }
        }
        ScopeLayout { entries }
    }

    fn lookup(&self, col: &ColumnRef) -> Option<(bool, usize)> {
        self.entries
            .iter()
            .find(|e| e.matches(col))
            .map(|e| (e.right, e.offset))
    }
}

impl ScopeEntry {
    fn matches(&self, col: &ColumnRef) -> bool {
        self.column.eq_ignore_ascii_case(&col.column)
            && match (&self.table, &col.table) {
                (None, None) => true,
                (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                _ => false,
            }
    }
}

/// Borrow-based resolver over one candidate pair (left row `li`, right row
/// `ri`), driven by a compiled [`ScopeLayout`].
struct ScopedPair<'a, L, R> {
    layout: &'a ScopeLayout,
    left: &'a L,
    li: usize,
    right: &'a R,
    ri: usize,
}

impl<L: Cells, R: Cells> ColumnResolver for ScopedPair<'_, L, R> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        self.layout.lookup(col).map(|(right, offset)| {
            if right {
                self.right.cell(self.ri, offset).clone()
            } else {
                self.left.cell(self.li, offset).clone()
            }
        })
    }
}

/// Do the residual ON predicates hold on the pair (left row `li`, right row
/// `ri`)? UNKNOWN and evaluation errors reject the pair.
pub(crate) fn residual_ok<L: Cells, R: Cells>(
    residual: &[Expr],
    layout: &ScopeLayout,
    left: &L,
    li: usize,
    right: &R,
    ri: usize,
) -> bool {
    if residual.is_empty() {
        return true;
    }
    let resolver = ScopedPair {
        layout,
        left,
        li,
        right,
        ri,
    };
    residual.iter().all(|p| {
        eval_predicate(p, &resolver, &NoSubqueries)
            .map(|r| r == Some(true))
            .unwrap_or(false)
    })
}
