//! A small dense-matrix type with LU and Cholesky solvers — just enough
//! linear algebra for regression fitting (normal equations, covariance
//! sandwiches, Newton steps).

use crate::{Result, StatsError};
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from nested row slices; rows must be equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Matrix> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|row| row.len() != c) {
            return Err(StatsError::InvalidInput("ragged rows".into()));
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        })
    }

    /// Builds a column vector.
    pub fn col_vector(values: &[f64]) -> Matrix {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(StatsError::InvalidInput(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(StatsError::InvalidInput(format!(
                "cannot multiply {}x{} by vector of {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// `Xᵀ X` — the Gram matrix used in normal equations, computed without
    /// materializing the transpose.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..self.cols {
                let ra = row[a];
                if ra == 0.0 {
                    continue;
                }
                for b in a..self.cols {
                    out[(a, b)] += ra * row[b];
                }
            }
        }
        for a in 0..self.cols {
            for b in 0..a {
                out[(a, b)] = out[(b, a)];
            }
        }
        out
    }

    /// LU decomposition with partial pivoting; returns (LU, perm, sign).
    fn lu(&self) -> Result<(Matrix, Vec<usize>, f64)> {
        if self.rows != self.cols {
            return Err(StatsError::InvalidInput(
                "LU requires a square matrix".into(),
            ));
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for col in 0..n {
            // Pivot: largest absolute value in the column at or below the
            // diagonal.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for row in col + 1..n {
                let v = lu[(row, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return Err(StatsError::Numeric("singular matrix in LU".into()));
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(col, pivot_row);
                sign = -sign;
            }
            let pivot = lu[(col, col)];
            for row in col + 1..n {
                let factor = lu[(row, col)] / pivot;
                lu[(row, col)] = factor;
                for j in col + 1..n {
                    let sub = factor * lu[(col, j)];
                    lu[(row, j)] -= sub;
                }
            }
        }
        Ok((lu, perm, sign))
    }

    /// Solves `self · x = b` via LU with partial pivoting.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(StatsError::InvalidInput("rhs length mismatch".into()));
        }
        let (lu, perm, _) = self.lu()?;
        let n = self.rows;
        // Forward substitution on the permuted rhs.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[perm[i]];
            for j in 0..i {
                acc -= lu[(i, j)] * y[j];
            }
            y[i] = acc;
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in i + 1..n {
                acc -= lu[(i, j)] * x[j];
            }
            x[i] = acc / lu[(i, i)];
        }
        Ok(x)
    }

    /// The matrix inverse via LU (column-by-column solve).
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.rows;
        if self.rows != self.cols {
            return Err(StatsError::InvalidInput(
                "inverse requires a square matrix".into(),
            ));
        }
        let mut out = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for col in 0..n {
            e[col] = 1.0;
            let x = self.solve(&e)?;
            for row in 0..n {
                out[(row, col)] = x[row];
            }
            e[col] = 0.0;
        }
        Ok(out)
    }

    /// Determinant via LU.
    pub fn det(&self) -> Result<f64> {
        let (lu, _, sign) = self.lu()?;
        let mut det = sign;
        for i in 0..self.rows {
            det *= lu[(i, i)];
        }
        Ok(det)
    }

    /// Cholesky factor L (lower-triangular, `self = L Lᵀ`). Fails if the
    /// matrix is not symmetric positive-definite.
    pub fn cholesky(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(StatsError::InvalidInput(
                "Cholesky requires a square matrix".into(),
            ));
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(StatsError::Numeric(
                            "matrix is not positive definite".into(),
                        ));
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves `self · x = b` for SPD `self` via Cholesky.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>> {
        let l = self.cholesky()?;
        let n = self.rows;
        if b.len() != n {
            return Err(StatsError::InvalidInput("rhs length mismatch".into()));
        }
        // L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= l[(i, j)] * y[j];
            }
            y[i] = acc / l[(i, i)];
        }
        // Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in i + 1..n {
                acc -= l[(j, i)] * x[j];
            }
            x[i] = acc / l[(i, i)];
        }
        Ok(x)
    }

    /// Adds `lambda` to every diagonal entry (ridge regularization used to
    /// rescue near-singular Newton steps).
    pub fn add_ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn transpose_and_gram_agree() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let explicit = x.transpose().matmul(&x).unwrap();
        assert_eq!(x.gram(), explicit);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert_vec_close(&x, &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_vec_close(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(a.solve(&[1.0, 2.0]), Err(StatsError::Numeric(_))));
        assert!(a.inverse().is_err());
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.5],
            vec![2.0, 5.0, 1.0],
            vec![0.5, 1.0, 3.0],
        ])
        .unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn det_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert!((a.det().unwrap() - (-2.0)).abs() < 1e-12);
        assert!((Matrix::identity(5).det().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_round_trip() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.5],
            vec![2.0, 5.0, 1.0],
            vec![0.5, 1.0, 3.0],
        ])
        .unwrap();
        let l = a.cholesky().unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
        // SPD solve agrees with LU solve.
        let b = [1.0, -2.0, 0.5];
        assert_vec_close(&a.solve_spd(&b).unwrap(), &a.solve(&b).unwrap(), 1e-10);
    }

    #[test]
    fn cholesky_rejects_non_pd() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn matvec_works() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_vec_close(&a.matvec(&[1.0, 1.0]).unwrap(), &[3.0, 7.0], 1e-15);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn ridge_shifts_diagonal() {
        let mut a = Matrix::identity(3);
        a.add_ridge(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(1, 1)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }
}
