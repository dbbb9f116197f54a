//! The logical plan IR: a left-deep operator chain lowered from a
//! [`SelectStmt`] and re-synthesized exactly.
//!
//! The IR deliberately mirrors the statement's own shape — base scan, a
//! chain of join steps, a post-join filter, and a projection "carcass"
//! (SELECT items, GROUP BY, HAVING, ORDER BY, LIMIT) that rewrites never
//! touch. That makes [`LogicalPlan::to_stmt`] an exact inverse of
//! [`LogicalPlan::lower`] modulo the rewrites applied in between, so every
//! rewritten plan stays a plain `SelectStmt` the engines execute unchanged:
//! the optimizer can only *reorganize* a query, never invent an operator the
//! executors lack.

use tqs_sql::ast::{BinOp, ColumnRef, Expr, Join, JoinType, SelectStmt, TableRef};

/// One join step of the left-deep chain. The ON condition is part of the
/// logical operator (rewrites push predicates into it), the join type is
/// preserved verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    pub join_type: JoinType,
    pub table: TableRef,
    pub on: Option<Expr>,
}

impl JoinStep {
    pub fn binding(&self) -> &str {
        self.table.binding()
    }
}

/// The logical plan of one statement: `scan(base) → join* → filter(σ)`,
/// plus the untouched projection carcass.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// The base scan of the left-deep chain.
    pub base: TableRef,
    /// Join steps in statement order (rewrites edit ON clauses in place;
    /// *reordering* happens at enumeration time via JOIN_ORDER hints, so the
    /// simplification decisions the engine makes on the AST stay identical
    /// for every enumerated plan of one statement).
    pub joins: Vec<JoinStep>,
    /// The post-join filter (WHERE). Pushdown moves conjuncts out of here.
    pub filter: Option<Expr>,
    /// Projection / aggregation / ordering carcass: the original statement
    /// with FROM and WHERE cleared out at lowering time. Rewrites never edit
    /// it, so re-synthesis preserves every non-join clause byte for byte.
    carcass: SelectStmt,
}

impl LogicalPlan {
    /// Lower a statement into the IR.
    pub fn lower(stmt: &SelectStmt) -> LogicalPlan {
        let mut carcass = stmt.clone();
        let filter = carcass.where_clause.take();
        let joins = carcass
            .from
            .joins
            .drain(..)
            .map(|j: Join| JoinStep {
                join_type: j.join_type,
                table: j.table,
                on: j.on,
            })
            .collect();
        LogicalPlan {
            base: carcass.from.base.clone(),
            joins,
            filter,
            carcass,
        }
    }

    /// Re-synthesize the (possibly rewritten) statement.
    pub fn to_stmt(&self) -> SelectStmt {
        let mut stmt = self.carcass.clone();
        stmt.from.base = self.base.clone();
        stmt.from.joins = self
            .joins
            .iter()
            .map(|j| Join {
                join_type: j.join_type,
                table: j.table.clone(),
                on: j.on.clone(),
            })
            .collect();
        stmt.where_clause = self.filter.clone();
        stmt
    }

    /// All bindings of the chain, base first, in statement order.
    pub fn bindings(&self) -> Vec<String> {
        let mut v = vec![self.base.binding().to_string()];
        v.extend(self.joins.iter().map(|j| j.binding().to_string()));
        v
    }
}

/// The distinct lowercase qualifiers of an expression's column references.
/// `None` if any reference is unqualified — an unqualified column cannot be
/// placed safely, so rewrites leave such conjuncts alone.
pub fn qualifiers(expr: &Expr) -> Option<Vec<String>> {
    let mut out: Vec<String> = Vec::new();
    for c in expr.column_refs() {
        let t = c.table.as_ref()?.to_lowercase();
        if !out.contains(&t) {
            out.push(t);
        }
    }
    Some(out)
}

/// Is this expression a plain `column = column` equality? Returns the two
/// references if so.
pub fn as_column_equality(expr: &Expr) -> Option<(&ColumnRef, &ColumnRef)> {
    if let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = expr
    {
        if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
            return Some((a, b));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::parser::parse_stmt;
    use tqs_sql::render::render_stmt;

    fn stmt() -> SelectStmt {
        parse_stmt(
            "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.k = t2.k \
             LEFT OUTER JOIN t3 ON t2.k = t3.k WHERE t1.a > 3 AND t2.b = t3.c",
        )
        .unwrap()
    }

    #[test]
    fn lower_then_to_stmt_round_trips() {
        let s = stmt();
        let plan = LogicalPlan::lower(&s);
        assert_eq!(plan.bindings(), vec!["t1", "t2", "t3"]);
        assert_eq!(plan.joins.len(), 2);
        assert_eq!(plan.joins[1].join_type, JoinType::LeftOuter);
        assert_eq!(render_stmt(&plan.to_stmt()), render_stmt(&s));
    }

    #[test]
    fn column_equality_recognizer() {
        let s = stmt();
        let on = s.from.joins[0].on.as_ref().unwrap();
        let (a, b) = as_column_equality(on).expect("t1.k = t2.k");
        assert_eq!(a.table.as_deref(), Some("t1"));
        assert_eq!(b.table.as_deref(), Some("t2"));
        let not_eq = s.where_clause.as_ref().unwrap().conjuncts()[0];
        assert!(as_column_equality(not_eq).is_none());
    }
}
