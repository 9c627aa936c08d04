//! Principal component analysis via a sampled correlation-matrix sketch.
//!
//! Paper App. B.3: *"PCA can summarize M numeric columns into K<M columns,
//! by projecting the M×N matrix ... along the eigen vectors of the M×M
//! correlation matrix. This matrix can be efficiently computed by a
//! sampling-based sketch."* The sketch accumulates per-column sums and
//! pairwise product sums — a classic mergeable summary — and the root runs
//! the Jacobi eigensolver on the assembled correlation matrix.

use crate::eigen::{jacobi_eigen, Eigen, SymMatrix};
use crate::traits::{Sketch, SketchError, SketchResult, Summary};
use crate::view::{Scope, TableView};
use hillview_columnar::row_sampled;
use hillview_columnar::scan::scan_rows;
use hillview_net::{Result as WireResult, Wire, WireReader, WireWriter};
use std::sync::Arc;

/// Correlation-matrix sketch over M numeric columns.
#[derive(Debug, Clone)]
pub struct PcaSketch {
    /// The numeric columns to correlate.
    pub columns: Vec<Arc<str>>,
    /// Row sampling rate (`>= 1.0` scans everything).
    pub rate: f64,
}

impl PcaSketch {
    /// PCA over the named columns at the given sampling rate.
    pub fn new(columns: &[&str], rate: f64) -> Self {
        PcaSketch {
            columns: columns.iter().map(|c| Arc::from(*c)).collect(),
            rate,
        }
    }
}

/// Accumulated sums for the correlation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaSummary {
    /// Number of columns M.
    pub m: usize,
    /// Rows where *all* M values were present (rows with any missing value
    /// are skipped, as in standard complete-case PCA).
    pub count: u64,
    /// Σ xᵢ per column.
    pub sums: Vec<f64>,
    /// Upper-triangle (including diagonal) of Σ xᵢxⱼ, row-major.
    pub prods: Vec<f64>,
}

impl PcaSummary {
    fn zero(m: usize) -> Self {
        PcaSummary {
            m,
            count: 0,
            sums: vec![0.0; m],
            prods: vec![0.0; m * (m + 1) / 2],
        }
    }

    #[inline]
    fn tri_index(m: usize, i: usize, j: usize) -> usize {
        // i <= j; row-major upper triangle.
        debug_assert!(i <= j && j < m);
        i * m - i * (i + 1) / 2 + j
    }

    /// Assemble the covariance matrix (population covariance).
    pub(crate) fn covariance(&self) -> Option<SymMatrix> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        let mut cov = SymMatrix::zeros(self.m);
        for i in 0..self.m {
            for j in i..self.m {
                let eij = self.prods[Self::tri_index(self.m, i, j)] / n;
                let c = eij - (self.sums[i] / n) * (self.sums[j] / n);
                cov.set(i, j, c);
            }
        }
        Some(cov)
    }

    /// Assemble the correlation matrix (unit diagonal); zero-variance
    /// columns correlate 0 with everything.
    pub fn correlation(&self) -> Option<SymMatrix> {
        let cov = self.covariance()?;
        let m = self.m;
        let sd: Vec<f64> = (0..m).map(|i| cov.get(i, i).max(0.0).sqrt()).collect();
        let mut corr = SymMatrix::zeros(m);
        for i in 0..m {
            corr.set(i, i, 1.0);
            for j in (i + 1)..m {
                let denom = sd[i] * sd[j];
                let r = if denom > 0.0 {
                    (cov.get(i, j) / denom).clamp(-1.0, 1.0)
                } else {
                    0.0
                };
                corr.set(i, j, r);
            }
        }
        Some(corr)
    }

    /// Eigendecomposition of the correlation matrix: the principal
    /// components, strongest first.
    pub fn principal_components(&self) -> Option<Eigen> {
        Some(jacobi_eigen(&self.correlation()?))
    }
}

impl Summary for PcaSummary {
    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.m, other.m);
        self.count += other.count;
        let sums = self.sums.iter_mut().zip(other.sums);
        sums.chain(self.prods.iter_mut().zip(other.prods))
            .for_each(|(a, b)| *a += b);
    }
}

/// Layout: `m`, `count`, the `m` sums, the `m(m+1)/2` products.
impl Wire for PcaSummary {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.m as u64);
        w.put_varint(self.count);
        self.sums.encode(w);
        self.prods.encode(w);
    }
    fn decode(r: &mut WireReader) -> WireResult<Self> {
        let s = PcaSummary {
            m: r.get_len("pca m")?,
            count: r.get_varint()?,
            sums: Vec::<f64>::decode(r)?,
            prods: Vec::<f64>::decode(r)?,
        };
        // `covariance` indexes both by `m`; the sums decoded, so their
        // number is bounded by the frame and its square cannot wrap.
        let m = s.sums.len();
        if m != s.m || s.prods.len() != m * (m + 1) / 2 {
            return Err(hillview_net::Error::BadLength {
                context: "pca sums",
                len: m as u64,
            });
        }
        Ok(s)
    }
}

impl Sketch for PcaSketch {
    type Summary = PcaSummary;

    fn name(&self) -> &'static str {
        "pca"
    }

    /// The complete-case count folds exactly and the floating-point sums
    /// fold deterministically in range order (fixed split plan, fixed fold
    /// order).
    fn summarize(&self, view: &TableView, scope: Scope<'_>, seed: u64) -> SketchResult<PcaSummary> {
        let table = view.table();
        let m = self.columns.len();
        if m == 0 {
            return Err(SketchError::BadConfig("PCA over zero columns".into()));
        }
        let cols: Vec<&hillview_columnar::Column> = self
            .columns
            .iter()
            .map(|c| table.column_by_name(c))
            .collect::<Result<_, _>>()?;
        for (name, c) in self.columns.iter().zip(&cols) {
            if !c.kind().is_numeric() {
                return Err(SketchError::BadConfig(format!(
                    "PCA requires numeric columns; {} is {}",
                    name,
                    c.kind()
                )));
            }
        }
        let mut out = PcaSummary::zero(m);
        let mut vals = vec![0.0f64; m];
        let tally = |row: usize, out: &mut PcaSummary, vals: &mut [f64]| {
            for (k, c) in cols.iter().enumerate() {
                match c.as_f64(row) {
                    Some(v) => vals[k] = v,
                    None => return, // complete-case: skip the row
                }
            }
            out.count += 1;
            let mut t = 0;
            for i in 0..m {
                out.sums[i] += vals[i];
                for j in i..m {
                    out.prods[t] += vals[i] * vals[j];
                    t += 1;
                }
            }
        };
        // Chunked row enumeration, streaming or sampled in the walk; sums
        // accumulate in ascending row order either way, bit-identical to
        // the per-row reference.
        let sample = (self.rate < 1.0).then_some((self.rate, seed));
        view.scan(scope, sample, |sel| {
            scan_rows(sel, |row| tally(row, &mut out, &mut vals))
        })?;
        Ok(out)
    }

    fn identity(&self) -> PcaSummary {
        PcaSummary::zero(self.columns.len())
    }
}

impl PcaSketch {
    /// Per-row reference implementation, kept for the scan-equivalence
    /// property tests. Must remain bit-identical to [`Sketch::summarize`].
    pub fn summarize_rowwise(&self, view: &TableView, seed: u64) -> SketchResult<PcaSummary> {
        let table = view.table();
        let m = self.columns.len();
        if m == 0 {
            return Err(SketchError::BadConfig("PCA over zero columns".into()));
        }
        let cols: Vec<&hillview_columnar::Column> = self
            .columns
            .iter()
            .map(|c| table.column_by_name(c))
            .collect::<Result<_, _>>()?;
        for (name, c) in self.columns.iter().zip(&cols) {
            if !c.kind().is_numeric() {
                return Err(SketchError::BadConfig(format!(
                    "PCA requires numeric columns; {} is {}",
                    name,
                    c.kind()
                )));
            }
        }
        let mut out = PcaSummary::zero(m);
        let mut vals = vec![0.0f64; m];
        let tally = |row: usize, out: &mut PcaSummary, vals: &mut [f64]| {
            for (k, c) in cols.iter().enumerate() {
                match c.as_f64(row) {
                    Some(v) => vals[k] = v,
                    None => return, // complete-case: skip the row
                }
            }
            out.count += 1;
            let mut t = 0;
            for i in 0..m {
                out.sums[i] += vals[i];
                for j in i..m {
                    out.prods[t] += vals[i] * vals[j];
                    t += 1;
                }
            }
        };
        for row in view.iter_rows() {
            if row_sampled(row as u64, self.rate, seed) {
                tally(row, &mut out, &mut vals);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::merged;
    use hillview_columnar::column::{Column, F64Column};
    use hillview_columnar::{ColumnKind, MembershipSet, Table};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Two strongly correlated columns plus one independent column.
    fn view(n: usize) -> TableView {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        let mut c = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(-1.0..1.0);
            a.push(Some(x));
            b.push(Some(2.0 * x + rng.gen_range(-0.01..0.01)));
            c.push(Some(rng.gen_range(-1.0..1.0)));
        }
        let t = Table::builder()
            .column(
                "A",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(a)),
            )
            .column(
                "B",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(b)),
            )
            .column(
                "C",
                ColumnKind::Double,
                Column::Double(F64Column::from_options(c)),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn correlation_matrix_structure() {
        let s = PcaSketch::new(&["A", "B", "C"], 1.0)
            .summarize(&view(5000), Scope::ALL, 0)
            .unwrap();
        let corr = s.correlation().unwrap();
        assert!((corr.get(0, 0) - 1.0).abs() < 1e-9);
        assert!(corr.get(0, 1) > 0.99, "A and B strongly correlated");
        assert!(corr.get(0, 2).abs() < 0.1, "A and C independent");
    }

    #[test]
    fn principal_component_captures_correlated_pair() {
        let s = PcaSketch::new(&["A", "B", "C"], 1.0)
            .summarize(&view(5000), Scope::ALL, 0)
            .unwrap();
        let e = s.principal_components().unwrap();
        // First eigenvalue ≈ 2 (A+B collapse into one direction), second ≈ 1.
        assert!(e.values[0] > 1.8, "λ1 = {}", e.values[0]);
        assert!((e.values[1] - 1.0).abs() < 0.2, "λ2 = {}", e.values[1]);
        // First component loads on A and B, not C.
        let v = &e.vectors[0];
        assert!(v[0].abs() > 0.5 && v[1].abs() > 0.5 && v[2].abs() < 0.2);
    }

    #[test]
    fn merge_equals_whole() {
        let v = view(2000);
        let t = v.table().clone();
        let sk = PcaSketch::new(&["A", "B", "C"], 1.0);
        let whole = sk.summarize(&v, Scope::ALL, 0).unwrap();
        let a = sk
            .summarize(
                &TableView::with_members(
                    t.clone(),
                    Arc::new(MembershipSet::from_rows((0..1000).collect(), 2000)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let b = sk
            .summarize(
                &TableView::with_members(
                    t,
                    Arc::new(MembershipSet::from_rows((1000..2000).collect(), 2000)),
                ),
                Scope::ALL,
                0,
            )
            .unwrap();
        let merged = merged(a, b);
        assert_eq!(merged.count, whole.count);
        for (x, y) in merged.sums.iter().zip(&whole.sums) {
            assert!((x - y).abs() < 1e-6);
        }
        for (x, y) in merged.prods.iter().zip(&whole.prods) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn sampled_pca_approximates_exact() {
        let v = view(50_000);
        let exact = PcaSketch::new(&["A", "B", "C"], 1.0)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        let sampled = PcaSketch::new(&["A", "B", "C"], 0.1)
            .summarize(&v, Scope::ALL, 7)
            .unwrap();
        let ce = exact.correlation().unwrap();
        let cs = sampled.correlation().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((ce.get(i, j) - cs.get(i, j)).abs() < 0.05, "corr[{i}][{j}]");
            }
        }
    }

    #[test]
    fn rows_with_missing_values_skipped() {
        let t = Table::builder()
            .column(
                "A",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([Some(1.0), None, Some(3.0)])),
            )
            .column(
                "B",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([Some(2.0), Some(9.0), Some(6.0)])),
            )
            .build()
            .unwrap();
        let v = TableView::full(Arc::new(t));
        let s = PcaSketch::new(&["A", "B"], 1.0)
            .summarize(&v, Scope::ALL, 0)
            .unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.sums[0], 4.0);
    }

    #[test]
    fn config_errors() {
        let v = view(10);
        assert!(PcaSketch::new(&[], 1.0)
            .summarize(&v, Scope::ALL, 0)
            .is_err());
        assert!(PcaSketch::new(&["Nope"], 1.0)
            .summarize(&v, Scope::ALL, 0)
            .is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let s = PcaSketch::new(&["A", "B"], 1.0)
            .summarize(&view(100), Scope::ALL, 0)
            .unwrap();
        assert_eq!(PcaSummary::from_bytes(s.to_bytes()).unwrap(), s);
    }
}
