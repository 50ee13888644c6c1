//! CSR sparse matrices and the one sparse × dense-block row kernel,
//! `spmm_rows`, that every operator application multiplies with: the
//! in-memory [`CsrMatrix::spmm`] and both out-of-core panel sweeps
//! ([`crate::OocMatrix::spmm_traced`], [`crate::UfsMatrix::spmm_traced`]).

use crate::dense::DMatrix;
use nvmtypes::convert::{usize_from, usize_from_u32};
use rayon::prelude::*;

/// Rows per parallel work item of [`CsrMatrix::spmm`].
const ROW_BLOCK: usize = 256;

/// The SpMM row kernel: `Y = A * X` for a run of consecutive rows of `A`,
/// with `X` and `Y` row-major and `m` columns wide (`X` row `j` is
/// `xr[j*m..(j+1)*m]`; `yr` holds exactly the output rows).
///
/// `rows` yields, per output row, that row's `(column, value)` entries in
/// storage order; where they come from (CSR arrays, serialised panel
/// bytes) is the caller's business. Each output row starts at `0.0` and
/// adds `value * X[column, c]` entry by entry, so every `Y[i, c]` is
/// bit-identical to the per-entry column-major loop
/// `y[(i, c)] += v * x[(j, c)]` over a zeroed `Y`. Returns `None` if an
/// entry's column is outside `X`.
pub(crate) fn spmm_rows<R, E>(rows: R, xr: &[f64], m: usize, yr: &mut [f64]) -> Option<()>
where
    R: IntoIterator<Item = E>,
    E: IntoIterator<Item = (u32, f64)>,
{
    if m == 0 {
        return Some(());
    }
    for (entries, out) in rows.into_iter().zip(yr.chunks_exact_mut(m)) {
        out.fill(0.0);
        for (j, v) in entries {
            let at = usize_from_u32(j).checked_mul(m)?;
            let xj = xr.get(at..at.checked_add(m)?)?;
            for (a, &xv) in out.iter_mut().zip(xj) {
                *a += v * xv;
            }
        }
    }
    Some(())
}

/// Compressed-sparse-row matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Rows (== columns; the workspace only needs square operators).
    pub n: usize,
    /// Row pointers, `len == n + 1`.
    pub row_ptr: Vec<u64>,
    /// Column indices, ascending within each row.
    pub col_idx: Vec<u32>,
    /// Values, parallel to `col_idx`.
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from per-row `(col, value)` lists (must be sorted by column).
    pub fn from_rows(n: usize, rows: Vec<Vec<(u32, f64)>>) -> CsrMatrix {
        assert_eq!(rows.len(), n);
        let nnz: usize = rows.iter().map(|r| r.len()).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0u64);
        for row in rows {
            let mut prev: Option<u32> = None;
            for (c, v) in row {
                assert!((c as usize) < n, "column out of range");
                if let Some(p) = prev {
                    assert!(c > p, "columns must be strictly ascending");
                }
                prev = Some(c);
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u64);
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Entry accessor (O(log row length)); 0.0 for structural zeros.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        match self.col_idx[lo..hi].binary_search(&(j as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Checks structural validity (monotone pointers, sorted columns).
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.n + 1 {
            return Err("row_ptr length".into());
        }
        if self.row_ptr.first() != Some(&0)
            || self.row_ptr.last().copied() != Some(self.nnz() as u64)
        {
            return Err("row_ptr endpoints".into());
        }
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            if lo > hi {
                return Err(format!("row {i}: non-monotone row_ptr"));
            }
            for w in self.col_idx[lo..hi].windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {i}: unsorted columns"));
                }
            }
            if let Some(&last) = self.col_idx[lo..hi].last() {
                if last as usize >= self.n {
                    return Err(format!("row {i}: column out of range"));
                }
            }
        }
        Ok(())
    }

    /// Is the matrix numerically symmetric?
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            for k in lo..hi {
                let j = self.col_idx[k] as usize;
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Row `i`'s `(column, value)` entries, in column order.
    fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (lo, hi) = (usize_from(self.row_ptr[i]), usize_from(self.row_ptr[i + 1]));
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse × dense block: `Y = A * X` through the shared row kernel,
    /// parallel over blocks of 256 rows. Every row is computed the same
    /// way whichever worker runs it, so `Y` is bit-identical at any
    /// thread count.
    pub fn spmm(&self, x: &DMatrix) -> DMatrix {
        assert_eq!(x.nrows, self.n, "operand height mismatch");
        let m = x.ncols;
        let xr = x.transpose().data;
        let mut yr = vec![0.0; self.n * m];
        let in_range: Option<()> = yr
            .par_chunks_mut((ROW_BLOCK * m).max(1))
            .enumerate()
            .into_par_iter()
            .map(|(b, out)| {
                let r0 = b * ROW_BLOCK;
                let r1 = (r0 + ROW_BLOCK).min(self.n);
                spmm_rows((r0..r1).map(|i| self.row(i)), &xr, m, out)
            })
            .collect();
        assert!(in_range.is_some(), "column index out of range");
        DMatrix {
            nrows: m,
            ncols: self.n,
            data: yr,
        }
        .transpose()
    }

    /// Dense copy (tests only; O(n^2) memory).
    pub fn to_dense(&self) -> DMatrix {
        let mut d = DMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            for k in lo..hi {
                d[(i, self.col_idx[k] as usize)] = self.values[k];
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [[2,-1,0],[-1,2,-1],[0,-1,2]]
        CsrMatrix::from_rows(
            3,
            vec![
                vec![(0, 2.0), (1, -1.0)],
                vec![(0, -1.0), (1, 2.0), (2, -1.0)],
                vec![(1, -1.0), (2, 2.0)],
            ],
        )
    }

    #[test]
    fn construction_and_validation() {
        let a = small();
        a.validate().unwrap();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(1, 2), -1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn spmm_matches_dense() {
        let a = small();
        let x = DMatrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0], &[0.0, 3.0]]);
        let y = a.spmm(&x);
        let want = a.to_dense().matmul(&x);
        for i in 0..3 {
            for j in 0..2 {
                assert!((y[(i, j)] - want[(i, j)]).abs() < 1e-12);
            }
        }
    }

    /// A matrix and operand whose products include every sign of zero:
    /// `-0.0` and `0.0` values, `-0.0` operand entries and an empty row.
    fn signed_zero_case(n: usize, m: usize) -> (CsrMatrix, DMatrix) {
        let vals = [-0.0, 0.0, 1.5, -2.25, 1e-300, -3.0e7];
        let rows = (0..n)
            .map(|i| {
                if i % 7 == 3 {
                    return Vec::new();
                }
                (0..n)
                    .filter(|j| (i * 31 + j * 17) % 5 == 0 || *j == i)
                    .map(|j| (j as u32, vals[(i + 2 * j) % vals.len()]))
                    .collect()
            })
            .collect();
        let mut x = DMatrix::zeros(n, m);
        for (k, v) in x.data.iter_mut().enumerate() {
            *v = match k % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => ((k * 2654435761) % 1000) as f64 / 250.0 - 2.0,
            };
        }
        (CsrMatrix::from_rows(n, rows), x)
    }

    /// The per-entry column-major product every kernel must match.
    fn naive(a: &CsrMatrix, x: &DMatrix) -> DMatrix {
        let mut y = DMatrix::zeros(a.n, x.ncols);
        for i in 0..a.n {
            for (j, v) in a.row(i) {
                for c in 0..x.ncols {
                    y[(i, c)] += v * x[(j as usize, c)];
                }
            }
        }
        y
    }

    fn bits(m: &DMatrix) -> Vec<u64> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn kernels_equal_the_per_entry_reference_bit_for_bit() {
        for m in [1, 4, 12, 17] {
            let (a, x) = signed_zero_case(600, m);
            let want = naive(&a, &x);
            assert!(want.data.iter().any(|v| *v == 0.0 && v.is_sign_positive()));
            let mut yr = vec![f64::NAN; a.n * m];
            let rows = (0..a.n).map(|i| a.row(i));
            assert_eq!(spmm_rows(rows, &x.transpose().data, m, &mut yr), Some(()));
            let y = DMatrix {
                nrows: m,
                ncols: a.n,
                data: yr,
            };
            assert_eq!(bits(&y.transpose()), bits(&want), "row kernel, m = {m}");
            assert_eq!(bits(&a.spmm(&x)), bits(&want), "CsrMatrix::spmm, m = {m}");
        }
    }

    #[test]
    fn the_row_kernel_rejects_a_column_outside_the_operand() {
        let x = DMatrix::zeros(3, 2);
        let mut yr = vec![0.0; 2];
        assert_eq!(
            spmm_rows([[(3u32, 1.0)]], &x.transpose().data, 2, &mut yr),
            None
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_columns() {
        CsrMatrix::from_rows(2, vec![vec![(1, 1.0), (0, 1.0)], vec![]]);
    }

    #[test]
    fn asymmetry_detected() {
        let a = CsrMatrix::from_rows(2, vec![vec![(1, 5.0)], vec![]]);
        assert!(!a.is_symmetric(1e-12));
    }
}
