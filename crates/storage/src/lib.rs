//! # tqs-storage
//!
//! In-memory storage substrate for the TQS reproduction:
//!
//! * [`row`] — rows and bag-semantics result sets (the unit of comparison
//!   between engine output and ground truth).
//! * [`table`] — tables with key/foreign-key metadata and the [`table::Catalog`]
//!   loaded into each simulated DBMS.
//! * [`wide`] — the wide table `T_w` with explicit `RowID`s.
//! * [`shard`] — zero-copy row-range shard views over the wide table, the
//!   unit of data partitioning for fleet-scale hunt campaigns.
//! * [`widegen`] — synthetic wide-table generators standing in for the UCI
//!   KDD-Cup dataset and denormalized TPC-H samples used in the paper.

pub mod row;
pub mod shard;
pub mod table;
pub mod wide;
pub mod widegen;

pub use row::{ResultSet, Row};
pub use shard::{ShardSpec, WideTableShard};
pub use table::{Catalog, ForeignKey, Table};
pub use wide::{WideTable, ROW_ID};

#[cfg(test)]
mod proptests {
    use crate::row::{ResultSet, Row};
    use proptest::prelude::*;
    use tqs_sql::value::Value;

    fn arb_row(width: usize) -> impl Strategy<Value = Row> {
        proptest::collection::vec(
            prop_oneof![
                Just(Value::Null),
                (-20i64..20).prop_map(Value::Int),
                "[a-c]{0,3}".prop_map(Value::Varchar),
            ],
            width,
        )
        .prop_map(Row::new)
    }

    /// Rows over a small domain, so equal cells recur: NULL, short strings,
    /// and small integers held as `Int` or as `Double` (equal across types).
    fn arb_mixed_row(width: usize) -> impl Strategy<Value = Row> {
        proptest::collection::vec(
            prop_oneof![
                Just(Value::Null),
                (0i64..3).prop_map(Value::Int),
                (0i64..3).prop_map(|n| Value::Double(n as f64)),
                "[a-b]{0,1}".prop_map(Value::Varchar),
            ],
            width,
        )
        .prop_map(Row::new)
    }

    /// The same row with every integer cell switched between `Int` and
    /// `Double`, so it is equal cell by cell but not structurally.
    fn cross_typed(row: &Row) -> Row {
        Row::new(
            row.values
                .iter()
                .map(|v| match v {
                    Value::Int(n) => Value::Double(*n as f64),
                    Value::Double(f) => Value::Int(*f as i64),
                    other => other.clone(),
                })
                .collect(),
        )
    }

    /// `same_bag` as it was before its positional fast path: greedy
    /// first-unused matching only.
    fn greedy_same_bag(a: &ResultSet, b: &ResultSet) -> bool {
        if a.rows.len() != b.rows.len() {
            return false;
        }
        let mut used = vec![false; b.rows.len()];
        'outer: for r in &a.rows {
            for (i, o) in b.rows.iter().enumerate() {
                if used[i] || r.len() != o.len() {
                    continue;
                }
                if r.values
                    .iter()
                    .zip(&o.values)
                    .all(|(x, y)| tqs_sql::value::result_value_eq(x, y))
                {
                    used[i] = true;
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }

    fn bag(rows: Vec<Row>) -> ResultSet {
        ResultSet {
            columns: vec!["x".into(), "y".into()],
            rows,
        }
    }

    proptest! {
        /// The positional fast path never changes `same_bag`'s answer: on
        /// identically ordered, permuted and perturbed rows it agrees with the
        /// greedy matching alone.
        #[test]
        fn same_bag_agrees_with_greedy_matching(
            rows in proptest::collection::vec(arb_mixed_row(2), 0..7),
            extra in arb_mixed_row(2),
            shift in 0usize..7,
            mode in 0u8..4,
        ) {
            let mut other: Vec<Row> = rows.iter().map(cross_typed).collect();
            match mode {
                0 => {}
                1 => other = rows.clone(),
                2 => { let k = shift % other.len().max(1); other.rotate_left(k); }
                _ => if !other.is_empty() { let k = shift % other.len(); other[k] = extra; },
            }
            let (a, b) = (bag(rows), bag(other));
            prop_assert_eq!(a.same_bag(&b), greedy_same_bag(&a, &b));
            prop_assert_eq!(b.same_bag(&a), greedy_same_bag(&b, &a));
            if mode < 3 {
                prop_assert!(a.same_bag(&b));
            }
        }

        /// Bag equality is invariant under permutation of rows.
        #[test]
        fn same_bag_is_order_insensitive(rows in proptest::collection::vec(arb_row(2), 0..8)) {
            let a = ResultSet { columns: vec!["x".into(), "y".into()], rows: rows.clone() };
            let mut shuffled = rows.clone();
            shuffled.reverse();
            let b = ResultSet { columns: vec!["x".into(), "y".into()], rows: shuffled };
            prop_assert!(a.same_bag(&b));
            prop_assert!(b.same_bag(&a));
        }

        /// Every bag is a subset of itself, and dropping a row keeps it a subset.
        #[test]
        fn subset_of_is_reflexive_and_monotone(rows in proptest::collection::vec(arb_row(2), 1..8)) {
            let full = ResultSet { columns: vec!["x".into(), "y".into()], rows: rows.clone() };
            prop_assert!(full.subset_of(&full));
            let mut fewer = rows;
            fewer.pop();
            let small = ResultSet { columns: vec!["x".into(), "y".into()], rows: fewer };
            prop_assert!(small.subset_of(&full));
        }
    }
}
