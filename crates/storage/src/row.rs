//! Rows and result sets.

use serde::{Deserialize, Serialize};
use tqs_sql::value::{result_value_eq, KeyBuf, Value};

/// A row is an ordered list of values, positionally aligned with a column
/// list owned by the enclosing table / result set.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Row {
    pub values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Concatenate two rows (used by join operators).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }

    /// A row of `n` NULLs (the padding side of outer joins).
    pub fn nulls(n: usize) -> Row {
        Row {
            values: vec![Value::Null; n],
        }
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

/// Cell-wise [`result_value_eq`] equality of two result rows.
fn rows_eq(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| result_value_eq(x, y))
}

/// A bag (multiset) of result rows with named columns.
///
/// Query results in SQL are bags, not sets, and the order is irrelevant
/// unless ORDER BY is present — so equality is multiset equality using
/// [`result_value_eq`] (NULL equals NULL as a *result cell*).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    pub fn new(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Multiset equality, ignoring row order and column naming.
    ///
    /// Results that arrive in the same order are settled by one positional
    /// pass. Otherwise each row takes the first unused equal row of `other`;
    /// when every row equals its positional partner that greedy pairing is
    /// exactly the positional one, so the fast path never changes the answer.
    pub fn same_bag(&self, other: &ResultSet) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        if self
            .rows
            .iter()
            .zip(&other.rows)
            .all(|(r, o)| rows_eq(r, o))
        {
            return true;
        }
        let mut used = vec![false; other.rows.len()];
        'outer: for r in &self.rows {
            for (i, o) in other.rows.iter().enumerate() {
                if !used[i] && rows_eq(r, o) {
                    used[i] = true;
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }

    /// `DISTINCT` by the `(type_tag, Display)` row equivalence, first
    /// occurrence kept — the one implementation both engines and the
    /// ground-truth evaluator share, so their DISTINCT semantics cannot
    /// drift apart (a drift would be indistinguishable from an engine bug).
    /// Keys go through the reusable binary [`KeyBuf`] group encoding.
    pub fn into_distinct(self) -> ResultSet {
        let mut seen: std::collections::HashSet<KeyBuf> = std::collections::HashSet::new();
        let mut out = ResultSet::new(self.columns.clone());
        let mut fp = KeyBuf::new();
        for row in self.rows {
            fp.clear();
            for v in &row.values {
                fp.push_group(v);
            }
            if !seen.contains(&fp) {
                seen.insert(fp.clone());
                out.rows.push(row);
            }
        }
        out
    }

    /// Is `self` a sub-bag of `other`? Used for the SubSet verification mode
    /// of cross joins (Table 2 of the paper).
    pub fn subset_of(&self, other: &ResultSet) -> bool {
        if self.rows.len() > other.rows.len() {
            return false;
        }
        let mut used = vec![false; other.rows.len()];
        'outer: for r in &self.rows {
            for (i, o) in other.rows.iter().enumerate() {
                if !used[i] && rows_eq(r, o) {
                    used[i] = true;
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }

    /// Render as the ASCII table format used in the paper's listings.
    pub fn pretty(&self) -> String {
        if self.rows.is_empty() {
            return "Empty set".to_string();
        }
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values
                    .iter()
                    .map(|v| match v {
                        Value::Null => "NULL".to_string(),
                        Value::Varchar(s) | Value::Text(s) => s.clone(),
                        other => other.to_string(),
                    })
                    .collect()
            })
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() && cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let sep = |w: &Vec<usize>| {
            let mut s = String::from("+");
            for width in w {
                s.push_str(&"-".repeat(width + 2));
                s.push('+');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep(&widths));
        out.push('\n');
        out.push('|');
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep(&widths));
        out.push('\n');
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        out.push_str(&sep(&widths));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            columns: vec!["c0".into()],
            rows: rows.into_iter().map(Row::new).collect(),
        }
    }

    #[test]
    fn concat_and_nulls() {
        let a = Row::new(vec![Value::Int(1)]);
        let b = Row::nulls(2);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert!(c.get(1).is_null());
    }

    #[test]
    fn bag_equality_ignores_order() {
        let a = rs(vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(2)],
        ]);
        let b = rs(vec![
            vec![Value::Int(2)],
            vec![Value::Int(1)],
            vec![Value::Int(2)],
        ]);
        assert!(a.same_bag(&b));
        let c = rs(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(!a.same_bag(&c));
    }

    #[test]
    fn bag_equality_respects_duplicates() {
        let a = rs(vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        let b = rs(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(!a.same_bag(&b));
    }

    #[test]
    fn null_cells_match_null_cells() {
        let a = rs(vec![vec![Value::Null], vec![Value::Null]]);
        let b = rs(vec![vec![Value::Null], vec![Value::Null]]);
        assert!(a.same_bag(&b));
        // ...but a NULL cell never matches an empty string — exactly the
        // MariaDB Listing 3 bug signature.
        let c = rs(vec![vec![Value::str("")], vec![Value::Null]]);
        assert!(!a.same_bag(&c));
    }

    #[test]
    fn subset_check() {
        let small = rs(vec![vec![Value::Int(1)]]);
        let big = rs(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        assert!(big.subset_of(&big));
    }

    #[test]
    fn pretty_matches_paper_listing_style() {
        let a = rs(vec![vec![Value::Null]]);
        let p = a.pretty();
        assert!(p.contains("| NULL |"));
        assert_eq!(rs(vec![]).pretty(), "Empty set");
    }
}
