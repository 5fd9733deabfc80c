//! Minimal dense linear algebra used by the ARIMA estimators and NARNET.
//!
//! The forecasting stack needs only small solves (≤ a few hundred
//! unknowns): Toeplitz systems for Yule–Walker, normal equations for the
//! Hannan–Rissanen regression, and dense matrix products for the neural
//! network. Implementing these ~200 lines keeps the reproduction free of
//! external math crates (see DESIGN.md §5).

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Borrow one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop contiguous in both
        // `other` and `out` rows (cache-friendly for row-major data).
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, &o) in crow.iter_mut().zip(orow) {
                    *c += a * o;
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Solve `self * x = b` with LU decomposition and partial pivoting.
    /// Returns `None` when the matrix is (numerically) singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(self.rows, b.len(), "rhs dimension mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();

        for col in 0..n {
            // pivot
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                x.swap(col, pivot);
            }
            // eliminate
            let d = a[col * n + col];
            for r in (col + 1)..n {
                let f = a[r * n + col] / d;
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= f * a[col * n + c];
                }
                x[r] -= f * x[col];
            }
        }
        // back substitution
        for col in (0..n).rev() {
            let mut v = x[col];
            for c in (col + 1)..n {
                v -= a[col * n + c] * x[c];
            }
            x[col] = v / a[col * n + col];
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Ordinary least squares: find `beta` minimising `‖X·beta − y‖²` via the
/// normal equations with a small ridge term for numerical stability.
/// Returns `None` when the system is degenerate.
pub fn least_squares(x: &Matrix, y: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(x.rows(), y.len(), "row count must match rhs");
    let xt = x.transpose();
    let mut xtx = xt.matmul(x);
    // Tikhonov regularisation keeps near-collinear lag regressors solvable.
    let ridge = 1e-8;
    for i in 0..xtx.rows() {
        xtx[(i, i)] += ridge;
    }
    let xty = xt.matvec(y);
    xtx.solve(&xty)
}

/// Dot product.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solve a symmetric Toeplitz system `T x = b` where `T[i][j] = r[|i−j|]`,
/// using the Levinson recursion in O(n²). Used by Yule–Walker. Returns
/// `None` when the recursion breaks down (non-positive-definite `r`).
pub fn solve_toeplitz(r: &[f64], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    assert!(r.len() >= n, "need autocovariances up to lag n-1");
    if n == 0 {
        return Some(Vec::new());
    }
    if r[0].abs() < 1e-12 {
        return None;
    }
    // Levinson–Durbin for general RHS (Golub & Van Loan §4.7).
    let mut x = vec![b[0] / r[0]];
    let mut y = vec![-r[1.min(r.len() - 1)] / r[0]]; // backward vector
    for k in 1..n {
        // beta = prediction error of the order-k Szegő recursion
        let mut beta = r[0];
        for (i, yi) in y.iter().enumerate() {
            beta += r[i + 1] * yi;
        }
        if beta.abs() < 1e-12 {
            return None;
        }
        // update solution x
        let mut mu = b[k];
        for (i, xi) in x.iter().enumerate() {
            mu -= r[k - i] * xi;
        }
        let mu = mu / beta;
        for (i, xi) in x.iter_mut().enumerate() {
            *xi += mu * y[k - 1 - i];
        }
        x.push(mu);
        if k == n - 1 {
            break;
        }
        // update backward vector y
        let mut gamma = -r[k + 1];
        for (i, yi) in y.iter().enumerate() {
            gamma -= r[k - i] * yi;
        }
        let gamma = gamma / beta;
        let old = y.clone();
        for (i, yi) in y.iter_mut().enumerate() {
            *yi += gamma * old[k - 1 - i];
        }
        y.push(gamma);
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        approx(c.data(), &[58.0, 64.0, 139.0, 154.0], 1e-12);
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        approx(&a.matvec(&[1.0, 0.0, -1.0]), &[-2.0, -2.0], 1e-12);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t[(2, 0)], 3.0);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        approx(&x, &[1.0, 3.0], 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // zero on the diagonal forces a row swap
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        approx(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn least_squares_recovers_line() {
        // y = 3 + 2x with exact data
        let n = 20;
        let mut xd = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let xi = i as f64;
            xd.extend_from_slice(&[1.0, xi]);
            y.push(3.0 + 2.0 * xi);
        }
        let x = Matrix::from_vec(n, 2, xd);
        let beta = least_squares(&x, &y).unwrap();
        approx(&beta, &[3.0, 2.0], 1e-5);
    }

    #[test]
    fn toeplitz_matches_dense_solve() {
        let r = [4.0, 1.0, 0.5, 0.25];
        let b = [1.0, 2.0, 3.0, 4.0];
        let n = 4;
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                dense[(i, j)] = r[i.abs_diff(j)];
            }
        }
        let expect = dense.solve(&b).unwrap();
        let got = solve_toeplitz(&r, &b).unwrap();
        approx(&got, &expect, 1e-9);
    }

    #[test]
    fn toeplitz_size_one() {
        let got = solve_toeplitz(&[2.0], &[4.0]).unwrap();
        approx(&got, &[2.0], 1e-12);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
