//! A row-store in-memory mini-database (the §7.2.1 comparison system).
//!
//! "We see that the database system is an order of magnitude worse, because
//! it has overheads that vizketches avoid: data structures must support
//! indexes, transactions, integrity constraints, logging, queries of many
//! types." This module reproduces those overheads honestly rather than as a
//! strawman:
//!
//! * rows are boxed tuples of dynamically-typed [`Value`]s (row-at-a-time
//!   layout, no columnar locality);
//! * queries execute through a Volcano-style iterator pipeline with
//!   per-row expression interpretation;
//! * every row carries an MVCC-style transaction-visibility word that each
//!   scan checks;
//! * inserts maintain a B-tree secondary index per indexed column and an
//!   append-only logical log.

use hillview_columnar::{Table, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A dynamically-interpreted scalar expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Column by position.
    Col(usize),
    /// Constant.
    Const(Value),
    /// Histogram-bucket assignment: `floor((x - lo) / width)` clamped to
    /// `count`, Missing if out of range — what a GROUP BY over a bucket
    /// expression evaluates per row.
    Bucket {
        /// Input expression.
        input: Box<Expr>,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
        /// Bucket count.
        count: usize,
    },
    /// Comparison yielding Int 0/1: `lhs < rhs`.
    Lt(Box<Expr>, Box<Expr>),
    /// Addition over numerics; Missing propagates.
    Add(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluate against one row.
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            Expr::Col(i) => row.get(*i).cloned().unwrap_or(Value::Missing),
            Expr::Const(v) => v.clone(),
            Expr::Bucket {
                input,
                lo,
                hi,
                count,
            } => match input.eval(row).as_f64() {
                Some(x) if x >= *lo && x < *hi => {
                    let idx = ((x - lo) / (hi - lo) * *count as f64) as usize;
                    Value::Int(idx.min(count - 1) as i64)
                }
                _ => Value::Missing,
            },
            Expr::Lt(a, b) => {
                let (a, b) = (a.eval(row), b.eval(row));
                if a.is_missing() || b.is_missing() {
                    Value::Missing
                } else {
                    Value::Int((a < b) as i64)
                }
            }
            Expr::Add(a, b) => match (a.eval(row).as_f64(), b.eval(row).as_f64()) {
                (Some(x), Some(y)) => Value::Double(x + y),
                _ => Value::Missing,
            },
        }
    }
}

/// A key wrapper giving `Value` a total order usable in B-trees.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct IndexKey(Value);

/// One stored row: values plus the transaction id that created it.
struct StoredRow {
    xmin: u64,
    values: Box<[Value]>,
}

/// The row-store database.
pub struct RowDb {
    column_names: Vec<String>,
    rows: Vec<StoredRow>,
    indexes: HashMap<usize, BTreeMap<IndexKey, Vec<u32>>>,
    /// Current "transaction" horizon; rows with `xmin <= txn` are visible.
    txn: u64,
    /// Logical write-ahead log length (entries, not bytes).
    log_entries: u64,
}

impl RowDb {
    /// Create an empty database with the given column names.
    pub fn create(column_names: &[&str]) -> Self {
        RowDb {
            column_names: column_names.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            indexes: HashMap::new(),
            txn: 1,
            log_entries: 0,
        }
    }

    /// Declare a secondary B-tree index on a column (before or after load).
    pub fn create_index(&mut self, column: &str) {
        let c = self.column_index(column).expect("column exists");
        let mut tree: BTreeMap<IndexKey, Vec<u32>> = BTreeMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            tree.entry(IndexKey(row.values[c].clone()))
                .or_default()
                .push(i as u32);
        }
        self.indexes.insert(c, tree);
    }

    /// Position of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.column_names.iter().position(|n| n == name)
    }

    /// Bulk-insert from a columnar table (the ETL step a real DB needs and
    /// Hillview explicitly avoids, §5.4). Maintains indexes and the log.
    pub fn insert_table(&mut self, table: &Table) {
        let cols: Vec<usize> = self
            .column_names
            .iter()
            .map(|n| {
                table
                    .schema()
                    .index_of(n)
                    .expect("table provides every DB column")
            })
            .collect();
        self.txn += 1;
        for r in 0..table.num_rows() {
            let values: Box<[Value]> = cols.iter().map(|&c| table.column(c).value(r)).collect();
            let row_id = self.rows.len() as u32;
            for (&c, tree) in self.indexes.iter_mut() {
                tree.entry(IndexKey(values[c].clone()))
                    .or_default()
                    .push(row_id);
            }
            self.rows.push(StoredRow {
                xmin: self.txn,
                values,
            });
            self.log_entries += 1;
        }
    }

    /// Number of visible rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Logical log length.
    pub fn log_entries(&self) -> u64 {
        self.log_entries
    }

    /// Execute `SELECT expr, COUNT(*) GROUP BY expr` through the Volcano
    /// pipeline: sequential scan → visibility check → expression
    /// interpretation → hash aggregation.
    pub fn group_count(&self, expr: &Expr) -> HashMap<Value, u64> {
        let horizon = self.txn;
        let mut agg: HashMap<Value, u64> = HashMap::new();
        for row in &self.rows {
            // MVCC visibility check, per row.
            if row.xmin > horizon {
                continue;
            }
            let key = expr.eval(&row.values);
            *agg.entry(key).or_insert(0) += 1;
        }
        agg
    }

    /// The §7.2.1 workload: a B-bucket histogram over a numeric column,
    /// expressed as GROUP BY bucket(x).
    pub fn histogram(&self, column: &str, lo: f64, hi: f64, buckets: usize) -> Vec<u64> {
        let c = self.column_index(column).expect("column exists");
        let expr = Expr::Bucket {
            input: Box::new(Expr::Col(c)),
            lo,
            hi,
            count: buckets,
        };
        let agg = self.group_count(&expr);
        let mut out = vec![0u64; buckets];
        for (k, count) in agg {
            if let Value::Int(b) = k {
                out[b as usize] += count;
            }
        }
        out
    }

    /// Index-assisted histogram: walks the B-tree in key order. Avoids the
    /// full scan but pays pointer-chasing and per-entry overhead — DBs
    /// don't win here either way.
    pub fn histogram_via_index(
        &self,
        column: &str,
        lo: f64,
        hi: f64,
        buckets: usize,
    ) -> Option<Vec<u64>> {
        let c = self.column_index(column)?;
        let tree = self.indexes.get(&c)?;
        let mut out = vec![0u64; buckets];
        for (key, rows) in tree {
            if let Some(x) = key.0.as_f64() {
                if x >= lo && x < hi {
                    let idx = (((x - lo) / (hi - lo)) * buckets as f64) as usize;
                    out[idx.min(buckets - 1)] += rows.len() as u64;
                }
            }
        }
        Some(out)
    }

    /// Point lookup through an index (sanity check that indexes work).
    pub fn lookup(&self, column: &str, value: &Value) -> Vec<u32> {
        match self.column_index(column).and_then(|c| self.indexes.get(&c)) {
            Some(tree) => tree
                .get(&IndexKey(value.clone()))
                .cloned()
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }
}

impl fmt::Debug for RowDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RowDb({} cols, {} rows, {} indexes)",
            self.column_names.len(),
            self.rows.len(),
            self.indexes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, F64Column};
    use hillview_columnar::ColumnKind;

    fn table(n: usize) -> Table {
        Table::builder()
            .column(
                "X",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(
                    (0..n).map(|i| Some((i % 100) as f64)),
                )),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn histogram_matches_ground_truth() {
        let mut db = RowDb::create(&["X"]);
        db.insert_table(&table(10_000));
        let h = db.histogram("X", 0.0, 100.0, 10);
        assert_eq!(h, vec![1000; 10]);
    }

    #[test]
    fn histogram_agrees_with_vizketch_kernel() {
        use hillview_sketch::histogram::HistogramSketch;
        use hillview_sketch::traits::Sketch;
        use hillview_sketch::{BucketSpec, Scope, TableView};
        let t = table(5_000);
        let mut db = RowDb::create(&["X"]);
        db.insert_table(&t);
        let db_hist = db.histogram("X", 0.0, 100.0, 20);
        let sk = HistogramSketch::streaming("X", BucketSpec::numeric(0.0, 100.0, 20));
        let hv = sk
            .summarize(&TableView::full(std::sync::Arc::new(t)), Scope::ALL, 0)
            .unwrap();
        assert_eq!(db_hist, hv.buckets, "two systems, one answer");
    }

    #[test]
    fn index_assisted_histogram_agrees() {
        let mut db = RowDb::create(&["X"]);
        db.insert_table(&table(3_000));
        db.create_index("X");
        let seq = db.histogram("X", 0.0, 100.0, 10);
        let idx = db.histogram_via_index("X", 0.0, 100.0, 10).unwrap();
        assert_eq!(seq, idx);
    }

    #[test]
    fn index_point_lookup() {
        let mut db = RowDb::create(&["X"]);
        db.insert_table(&table(1_000));
        db.create_index("X");
        let hits = db.lookup("X", &Value::Double(42.0));
        assert_eq!(hits.len(), 10);
        assert!(db.lookup("X", &Value::Double(4242.0)).is_empty());
    }

    #[test]
    fn index_maintained_on_later_inserts() {
        let mut db = RowDb::create(&["X"]);
        db.create_index("X");
        db.insert_table(&table(100));
        db.insert_table(&table(100));
        assert_eq!(db.lookup("X", &Value::Double(1.0)).len(), 2);
        assert_eq!(db.row_count(), 200);
        assert_eq!(db.log_entries(), 200);
    }

    #[test]
    fn expression_interpreter() {
        let row = vec![Value::Int(3), Value::Double(4.5)];
        assert_eq!(Expr::Col(0).eval(&row), Value::Int(3));
        assert_eq!(Expr::Col(9).eval(&row), Value::Missing);
        let add = Expr::Add(Box::new(Expr::Col(0)), Box::new(Expr::Col(1)));
        assert_eq!(add.eval(&row), Value::Double(7.5));
        let lt = Expr::Lt(Box::new(Expr::Col(0)), Box::new(Expr::Col(1)));
        assert_eq!(lt.eval(&row), Value::Int(1));
        let b = Expr::Bucket {
            input: Box::new(Expr::Col(1)),
            lo: 0.0,
            hi: 10.0,
            count: 5,
        };
        assert_eq!(b.eval(&row), Value::Int(2));
    }

    #[test]
    fn out_of_range_rows_fall_out_of_histogram() {
        let mut db = RowDb::create(&["X"]);
        db.insert_table(&table(1_000));
        let h = db.histogram("X", 0.0, 50.0, 5);
        let total: u64 = h.iter().sum();
        assert_eq!(total, 500);
    }
}
