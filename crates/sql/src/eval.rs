//! Reference (correct) scalar expression evaluation with SQL three-valued
//! logic and MySQL-flavoured coercions.
//!
//! Both the ground-truth evaluator (DSG, §3.4) and the simulated engine's
//! filter/projection operators use this module. The engine's *join* operators
//! deliberately do not: they go through fault-interceptable comparators so
//! that injected optimizer bugs only affect specific physical plans.

use crate::ast::{BinOp, ColumnRef, Expr, SelectStmt, UnOp};
use crate::value::{null_safe_eq, sql_compare, SqlCmp, Value};
use std::cmp::Ordering;
use std::fmt;

/// Errors surfaced during expression evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    UnknownColumn(String),
    Unsupported(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            EvalError::Unsupported(m) => write!(f, "unsupported expression: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Resolves column references against the current row scope.
pub trait ColumnResolver {
    fn resolve(&self, col: &ColumnRef) -> Option<Value>;
}

/// Resolver over `(qualifier, column, value)` triples; the usual row scope.
pub struct ScopedRow<'a> {
    entries: &'a [(String, String, Value)],
}

impl<'a> ScopedRow<'a> {
    pub fn new(entries: &'a [(String, String, Value)]) -> Self {
        ScopedRow { entries }
    }
}

impl ColumnResolver for ScopedRow<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        self.entries
            .iter()
            .find(|(t, c, _)| {
                c.eq_ignore_ascii_case(&col.column)
                    && col
                        .table
                        .as_ref()
                        .map(|q| q.eq_ignore_ascii_case(t))
                        .unwrap_or(true)
            })
            .map(|(_, _, v)| v.clone())
    }
}

/// Allocation-free resolver over one row: borrowed `(qualifier, column)`
/// metadata (shared by every row of a relation) plus a borrowed value slice.
/// Replaces building an owned scope `Vec` per row — only the one matched
/// value is cloned, on resolution.
pub struct SliceRow<'a> {
    cols: &'a [(String, String)],
    values: &'a [Value],
}

impl<'a> SliceRow<'a> {
    pub fn new(cols: &'a [(String, String)], values: &'a [Value]) -> Self {
        debug_assert_eq!(cols.len(), values.len());
        SliceRow { cols, values }
    }
}

impl ColumnResolver for SliceRow<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        self.cols
            .iter()
            .zip(self.values.iter())
            .find(|((t, c), _)| {
                c.eq_ignore_ascii_case(&col.column)
                    && col
                        .table
                        .as_ref()
                        .map(|q| q.eq_ignore_ascii_case(t))
                        .unwrap_or(true)
            })
            .map(|(_, v)| v.clone())
    }
}

/// Chains an inner scope over an outer scope (correlated subqueries).
pub struct ChainedResolver<'a> {
    pub inner: &'a dyn ColumnResolver,
    pub outer: &'a dyn ColumnResolver,
}

impl ColumnResolver for ChainedResolver<'_> {
    fn resolve(&self, col: &ColumnRef) -> Option<Value> {
        self.inner.resolve(col).or_else(|| self.outer.resolve(col))
    }
}

/// Evaluates subqueries encountered inside expressions.
pub trait SubqueryHandler {
    /// Evaluate `stmt` in the context of `outer` (for correlated references)
    /// and return the values of its single projected column.
    fn eval_subquery(
        &self,
        stmt: &SelectStmt,
        outer: &dyn ColumnResolver,
    ) -> Result<Vec<Value>, EvalError>;
}

/// Per-statement memo for *uncorrelated* subquery results, keyed by the
/// subquery's AST node address (stable for the duration of one statement
/// evaluation — the memo must not outlive the statement it was built for).
/// `IN (SELECT …)` evaluates its subquery once per outer row; when nothing
/// in it references the outer scope the result is row-invariant, and both
/// the engine and the ground-truth evaluator share this one implementation
/// of "evaluate once, replay for every other row" so they cannot drift
/// apart on which subqueries are cached.
#[derive(Default)]
pub struct SubqueryMemo {
    map: std::cell::RefCell<std::collections::HashMap<usize, Vec<Value>>>,
}

impl SubqueryMemo {
    pub fn new() -> SubqueryMemo {
        SubqueryMemo::default()
    }

    /// Return the memoized result for `stmt`, or evaluate and (when
    /// `cacheable` — see [`SelectStmt::is_uncorrelated_single_table`]
    /// (crate::ast::SelectStmt::is_uncorrelated_single_table)) store it.
    pub fn get_or_eval(
        &self,
        stmt: &SelectStmt,
        cacheable: bool,
        eval: impl FnOnce() -> Result<Vec<Value>, EvalError>,
    ) -> Result<Vec<Value>, EvalError> {
        if !cacheable {
            return eval();
        }
        let key = stmt as *const SelectStmt as usize;
        if let Some(cached) = self.map.borrow().get(&key) {
            return Ok(cached.clone());
        }
        let out = eval()?;
        self.map.borrow_mut().insert(key, out.clone());
        Ok(out)
    }
}

/// Handler that rejects every subquery; useful for contexts where the query
/// generator guarantees none exist.
pub struct NoSubqueries;

impl SubqueryHandler for NoSubqueries {
    fn eval_subquery(
        &self,
        _stmt: &SelectStmt,
        _outer: &dyn ColumnResolver,
    ) -> Result<Vec<Value>, EvalError> {
        Err(EvalError::Unsupported("subquery in scalar context".into()))
    }
}

/// Evaluate an expression to a value (predicates evaluate to Bool or Null).
pub fn eval_expr(
    e: &Expr,
    row: &dyn ColumnResolver,
    sub: &dyn SubqueryHandler,
) -> Result<Value, EvalError> {
    match e {
        Expr::Column(c) => row
            .resolve(c)
            .ok_or_else(|| EvalError::UnknownColumn(format!("{:?}.{}", c.table, c.column))),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = eval_expr(left, row, sub)?;
            let r = eval_expr(right, row, sub)?;
            Ok(eval_binary(*op, &l, &r))
        }
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, row, sub)?;
            Ok(match op {
                UnOp::Not => match v.truthiness() {
                    None => Value::Null,
                    Some(b) => Value::Bool(!b),
                },
                UnOp::Neg => match v.as_f64_lossy() {
                    None => Value::Null,
                    Some(f) => match v.as_i128_exact() {
                        Some(i) => Value::Int((-i) as i64),
                        None => Value::Double(-f),
                    },
                },
            })
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, row, sub)?;
            let b = v.is_null() != *negated;
            Ok(Value::Bool(b))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(expr, row, sub)?;
            let lo = eval_expr(low, row, sub)?;
            let hi = eval_expr(high, row, sub)?;
            let ge = compare(BinOp::Ge, &v, &lo);
            let le = compare(BinOp::Le, &v, &hi);
            let both = tv_and(ge, le);
            Ok(tv_to_value(if *negated { tv_not(both) } else { both }))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, row, sub)?;
            let vals: Result<Vec<Value>, _> = list.iter().map(|e| eval_expr(e, row, sub)).collect();
            let tv = in_membership(&v, &vals?);
            Ok(tv_to_value(if *negated { tv_not(tv) } else { tv }))
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let v = eval_expr(expr, row, sub)?;
            let vals = sub.eval_subquery(subquery, row)?;
            let tv = in_membership(&v, &vals);
            Ok(tv_to_value(if *negated { tv_not(tv) } else { tv }))
        }
        Expr::Exists { subquery, negated } => {
            let vals = sub.eval_subquery(subquery, row)?;
            let b = !vals.is_empty();
            Ok(Value::Bool(b != *negated))
        }
        Expr::Cast { expr, ty } => {
            let v = eval_expr(expr, row, sub)?;
            Ok(cast_value(&v, *ty))
        }
    }
}

/// Evaluate a predicate with three-valued logic: `None` means UNKNOWN.
pub fn eval_predicate(
    e: &Expr,
    row: &dyn ColumnResolver,
    sub: &dyn SubqueryHandler,
) -> Result<Option<bool>, EvalError> {
    Ok(eval_expr(e, row, sub)?.truthiness())
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Value {
    match op {
        BinOp::And => tv_to_value(tv_and(l.truthiness(), r.truthiness())),
        BinOp::Or => tv_to_value(tv_or(l.truthiness(), r.truthiness())),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(op, l, r),
        _ => tv_to_value(compare(op, l, r)),
    }
}

/// Three-valued comparison `l op r` for a comparison operator
/// ([`BinOp::is_comparison`]): `None` is UNKNOWN, which any NULL operand
/// yields except under the NULL-safe `<=>`.
pub fn compare(op: BinOp, l: &Value, r: &Value) -> Option<bool> {
    if op == BinOp::NullSafeEq {
        return Some(null_safe_eq(l, r));
    }
    let SqlCmp::Ordering(o) = sql_compare(l, r) else {
        return None;
    };
    Some(match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Ne => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::Le => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::Ge => o != Ordering::Less,
        _ => unreachable!("{op:?} is not a comparison"),
    })
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Exact integer path when both sides are integral and the op is not Div.
    if let (Some(a), Some(b)) = (l.as_i128_exact(), r.as_i128_exact()) {
        match op {
            BinOp::Add => return Value::Int((a + b) as i64),
            BinOp::Sub => return Value::Int((a - b) as i64),
            BinOp::Mul => return Value::Int(a.saturating_mul(b) as i64),
            _ => {}
        }
    }
    let (a, b) = match (l.as_f64_lossy(), r.as_f64_lossy()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Value::Null,
    };
    match op {
        BinOp::Add => Value::Double(a + b),
        BinOp::Sub => Value::Double(a - b),
        BinOp::Mul => Value::Double(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null // MySQL: division by zero yields NULL
            } else {
                Value::Double(a / b)
            }
        }
        _ => unreachable!(),
    }
}

pub fn tv_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

pub fn tv_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

pub fn tv_not(a: Option<bool>) -> Option<bool> {
    a.map(|b| !b)
}

pub fn tv_to_value(tv: Option<bool>) -> Value {
    match tv {
        None => Value::Null,
        Some(b) => Value::Bool(b),
    }
}

/// SQL `IN` membership with correct NULL semantics:
/// TRUE if any member equals, else NULL if probe or any member is NULL,
/// else FALSE.
pub fn in_membership(probe: &Value, members: &[Value]) -> Option<bool> {
    if probe.is_null() {
        return if members.is_empty() {
            Some(false)
        } else {
            None
        };
    }
    let mut saw_null = false;
    for m in members {
        match sql_compare(probe, m) {
            SqlCmp::Unknown => saw_null = true,
            SqlCmp::Ordering(Ordering::Equal) => return Some(true),
            _ => {}
        }
    }
    if saw_null {
        None
    } else {
        Some(false)
    }
}

/// Correct CAST semantics (the faulty engine paths implement their own).
pub fn cast_value(v: &Value, ty: crate::types::ColumnType) -> Value {
    use crate::types::ColumnType as T;
    if v.is_null() {
        return Value::Null;
    }
    if ty.is_integer() {
        return match v.as_f64_lossy() {
            Some(f) => Value::Int(f.round() as i64),
            None => Value::Null,
        };
    }
    match ty {
        T::Float => Value::Float(v.as_f64_lossy().unwrap_or(0.0) as f32),
        T::Double | T::Decimal { .. } => Value::Double(v.as_f64_lossy().unwrap_or(0.0)),
        T::Varchar(_) | T::Char(_) | T::Text => Value::Varchar(match v {
            Value::Varchar(s) | Value::Text(s) => s.clone(),
            other => other.to_string(),
        }),
        T::Date => Value::Date(v.as_f64_lossy().unwrap_or(0.0) as i32),
        T::Bool => tv_to_value(v.truthiness()),
        _ => unreachable!("integer types handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;

    fn row() -> Vec<(String, String, Value)> {
        vec![
            ("t1".into(), "a".into(), Value::Int(3)),
            ("t1".into(), "b".into(), Value::Null),
            ("t1".into(), "name".into(), Value::str("Tom")),
        ]
    }

    #[test]
    fn column_resolution_qualified_and_bare() {
        let r = row();
        let scope = ScopedRow::new(&r);
        let v = eval_expr(&Expr::col("t1", "a"), &scope, &NoSubqueries).unwrap();
        assert_eq!(v.as_i128_exact(), Some(3));
        let v = eval_expr(
            &Expr::Column(ColumnRef::bare("name")),
            &scope,
            &NoSubqueries,
        )
        .unwrap();
        assert_eq!(v.as_str(), Some("Tom"));
        assert!(eval_expr(&Expr::col("t9", "a"), &scope, &NoSubqueries).is_err());
    }

    #[test]
    fn three_valued_logic_null_propagation() {
        let r = row();
        let scope = ScopedRow::new(&r);
        // b = 1  → NULL
        let e = Expr::eq(Expr::col("t1", "b"), Expr::lit(Value::Int(1)));
        assert_eq!(eval_predicate(&e, &scope, &NoSubqueries).unwrap(), None);
        // (b = 1) OR (a = 3) → TRUE despite the NULL
        let e2 = Expr::or(
            e.clone(),
            Expr::eq(Expr::col("t1", "a"), Expr::lit(Value::Int(3))),
        );
        assert_eq!(
            eval_predicate(&e2, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
        // (b = 1) AND (a = 3) → NULL
        let e3 = Expr::and(e, Expr::eq(Expr::col("t1", "a"), Expr::lit(Value::Int(3))));
        assert_eq!(eval_predicate(&e3, &scope, &NoSubqueries).unwrap(), None);
    }

    #[test]
    fn in_list_null_semantics() {
        assert_eq!(
            in_membership(&Value::Int(1), &[Value::Int(2), Value::Null]),
            None
        );
        assert_eq!(
            in_membership(&Value::Int(1), &[Value::Int(1), Value::Null]),
            Some(true)
        );
        assert_eq!(
            in_membership(&Value::Int(1), &[Value::Int(2), Value::Int(3)]),
            Some(false)
        );
        assert_eq!(in_membership(&Value::Null, &[Value::Int(1)]), None);
        assert_eq!(in_membership(&Value::Null, &[]), Some(false));
    }

    #[test]
    fn not_in_with_null_member_filters_everything() {
        // The classic trap exploited by the paper's Listing 1-style queries.
        let r = row();
        let scope = ScopedRow::new(&r);
        let e = Expr::InList {
            expr: Box::new(Expr::col("t1", "a")),
            list: vec![Expr::lit(Value::Int(9)), Expr::lit(Value::Null)],
            negated: true,
        };
        assert_eq!(eval_predicate(&e, &scope, &NoSubqueries).unwrap(), None);
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let r = row();
        let scope = ScopedRow::new(&r);
        let e = Expr::binary(BinOp::Add, Expr::col("t1", "a"), Expr::lit(Value::Int(4)));
        assert_eq!(
            eval_expr(&e, &scope, &NoSubqueries)
                .unwrap()
                .as_i128_exact(),
            Some(7)
        );
        let div0 = Expr::binary(
            BinOp::Div,
            Expr::lit(Value::Int(1)),
            Expr::lit(Value::Int(0)),
        );
        assert!(eval_expr(&div0, &scope, &NoSubqueries).unwrap().is_null());
    }

    #[test]
    fn null_safe_eq_and_is_null() {
        let r = row();
        let scope = ScopedRow::new(&r);
        let e = Expr::binary(
            BinOp::NullSafeEq,
            Expr::col("t1", "b"),
            Expr::lit(Value::Null),
        );
        assert_eq!(
            eval_predicate(&e, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
        let e = Expr::is_null(Expr::col("t1", "b"));
        assert_eq!(
            eval_predicate(&e, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn between_and_cast() {
        let r = row();
        let scope = ScopedRow::new(&r);
        let e = Expr::Between {
            expr: Box::new(Expr::col("t1", "a")),
            low: Box::new(Expr::lit(Value::Int(1))),
            high: Box::new(Expr::lit(Value::Int(5))),
            negated: false,
        };
        assert_eq!(
            eval_predicate(&e, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
        let c = Expr::Cast {
            expr: Box::new(Expr::lit(Value::str("12abc"))),
            ty: crate::types::ColumnType::Int { unsigned: false },
        };
        assert_eq!(
            eval_expr(&c, &scope, &NoSubqueries)
                .unwrap()
                .as_i128_exact(),
            Some(12)
        );
    }

    #[test]
    fn string_number_equality_in_predicates() {
        // The varchar-vs-bigint comparisons from Figure 1(b).
        let r = vec![("t".into(), "v".into(), Value::str("1985"))];
        let scope = ScopedRow::new(&r);
        let e = Expr::eq(Expr::col("t", "v"), Expr::lit(Value::Int(1985)));
        assert_eq!(
            eval_predicate(&e, &scope, &NoSubqueries).unwrap(),
            Some(true)
        );
    }
}
