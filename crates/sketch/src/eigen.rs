//! Jacobi eigendecomposition for small symmetric matrices.
//!
//! PCA (paper App. B.3) projects M numeric columns along the eigenvectors of
//! their M×M correlation matrix. M is the number of columns a user selects —
//! tens at most — so the classic Jacobi rotation method is ideal: simple,
//! numerically robust, and exact enough for visualization.

/// A dense symmetric matrix stored row-major (`pub`: what
/// `PcaSummary::correlation` returns).
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Zero matrix of size n×n.
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from a row-major buffer (must be symmetric; enforced in debug).
    pub fn from_rows(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n);
        let m = SymMatrix { n, data };
        debug_assert!(m.is_symmetric(1e-9), "matrix is not symmetric");
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set both (i, j) and (j, i).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Symmetry check within a tolerance.
    pub(crate) fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in 0..i {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Sum of squares of off-diagonal elements (Jacobi convergence metric).
    fn off_diagonal_norm(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    s += self.get(i, j).powi(2);
                }
            }
        }
        s
    }
}

/// Result of an eigendecomposition: pairs sorted by descending eigenvalue
/// (`pub`: what `PcaSummary::principal_components` returns).
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// `vectors[k]` is the unit eigenvector for `values[k]`.
    pub vectors: Vec<Vec<f64>>,
}

/// Jacobi rotation eigendecomposition of a symmetric matrix.
///
/// Iterates sweeps of 2×2 rotations until the off-diagonal mass drops below
/// `1e-12 · n²` or 100 sweeps pass (always converges long before that for
/// the matrix sizes PCA produces).
pub(crate) fn jacobi_eigen(m: &SymMatrix) -> Eigen {
    let n = m.n();
    let mut a = m.clone();
    // Eigenvector accumulator starts as identity.
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    let tol = 1e-18 * (n * n) as f64;
    for _sweep in 0..100 {
        if a.off_diagonal_norm() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Similarity transform A ← JᵀAJ for the (p, q) rotation:
                // off-block elements rotate once, the 2×2 block is explicit.
                for k in 0..n {
                    if k == p || k == q {
                        continue;
                    }
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                a.set(p, p, c * c * app - 2.0 * s * c * apq + s * s * aqq);
                a.set(q, q, s * s * app + 2.0 * s * c * apq + c * c * aqq);
                a.set(p, q, 0.0);
                for vk in v.iter_mut() {
                    let vp = vk[p];
                    let vq = vk[q];
                    vk[p] = c * vp - s * vq;
                    vk[q] = s * vp + c * vq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|k| (a.get(k, k), v.iter().map(|row| row[k]).collect()))
        .collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
    Eigen {
        values: pairs.iter().map(|(val, _)| *val).collect(),
        vectors: pairs.into_iter().map(|(_, vec)| vec).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 0, 3.0);
        m.set(1, 1, 1.0);
        m.set(2, 2, 2.0);
        let e = jacobi_eigen(&m);
        assert_close(e.values[0], 3.0, 1e-10);
        assert_close(e.values[1], 2.0, 1e-10);
        assert_close(e.values[2], 1.0, 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
        let m = SymMatrix::from_rows(2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = jacobi_eigen(&m);
        assert_close(e.values[0], 3.0, 1e-10);
        assert_close(e.values[1], 1.0, 1e-10);
        let v0 = &e.vectors[0];
        assert_close(v0[0].abs(), 1.0 / 2f64.sqrt(), 1e-8);
        assert_close(v0[1].abs(), 1.0 / 2f64.sqrt(), 1e-8);
        assert_close(v0[0] * v0[1], 0.5, 1e-8);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = SymMatrix::from_rows(3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0]);
        let e = jacobi_eigen(&m);
        for i in 0..3 {
            let norm: f64 = e.vectors[i].iter().map(|x| x * x).sum();
            assert_close(norm, 1.0, 1e-8);
            for j in (i + 1)..3 {
                let dot: f64 = e.vectors[i]
                    .iter()
                    .zip(&e.vectors[j])
                    .map(|(a, b)| a * b)
                    .sum();
                assert_close(dot, 0.0, 1e-8);
            }
        }
    }

    #[test]
    fn reconstruction_av_equals_lambda_v() {
        let m = SymMatrix::from_rows(
            4,
            vec![
                5.0, 1.0, 0.0, 2.0, //
                1.0, 4.0, 1.0, 0.0, //
                0.0, 1.0, 3.0, 1.0, //
                2.0, 0.0, 1.0, 2.0,
            ],
        );
        let e = jacobi_eigen(&m);
        for k in 0..4 {
            for i in 0..4 {
                let av: f64 = (0..4).map(|j| m.get(i, j) * e.vectors[k][j]).sum();
                assert_close(av, e.values[k] * e.vectors[k][i], 1e-6);
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let m = SymMatrix::from_rows(3, vec![2.0, 0.3, 0.1, 0.3, 1.0, 0.2, 0.1, 0.2, 4.0]);
        let e = jacobi_eigen(&m);
        let trace = 2.0 + 1.0 + 4.0;
        assert_close(e.values.iter().sum::<f64>(), trace, 1e-9);
    }
}
