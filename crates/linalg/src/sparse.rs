//! Compressed sparse row matrices.

/// A `(row, col, value)` entry used to assemble a [`CsrMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Coefficient.
    pub val: f64,
}

/// An immutable CSR matrix with `f64` coefficients.
///
/// Built once from triplets (duplicate `(row, col)` entries are summed, a
/// convenience the constraint compiler relies on when a probability term
/// appears several times in one linear expression) and then used for
/// matrix-vector products in the solver hot loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets. Duplicates are summed; explicit
    /// zeros (including duplicates cancelling to zero) are kept, which is
    /// harmless for the solver and keeps assembly single-pass.
    ///
    /// # Panics
    /// Panics if any triplet lies outside `nrows × ncols`.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[Triplet]) -> Self {
        for t in triplets {
            assert!(t.row < nrows && t.col < ncols, "triplet out of bounds");
        }
        // Counting sort by row.
        let mut row_counts = vec![0usize; nrows + 1];
        for t in triplets {
            row_counts[t.row + 1] += 1;
        }
        for i in 0..nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0f64; triplets.len()];
        let mut cursor = row_counts.clone();
        for t in triplets {
            let pos = cursor[t.row];
            col_idx[pos] = t.col;
            values[pos] = t.val;
            cursor[t.row] += 1;
        }
        // Per-row: sort by column and merge duplicates.
        let mut out_col = Vec::with_capacity(triplets.len());
        let mut out_val = Vec::with_capacity(triplets.len());
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..nrows {
            scratch.clear();
            let (lo, hi) = (row_counts[r], row_counts[r + 1]);
            scratch.extend(col_idx[lo..hi].iter().copied().zip(values[lo..hi].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_col.push(c);
                out_val.push(v);
                i = j;
            }
            row_ptr[r + 1] = out_col.len();
        }
        Self { nrows, ncols, row_ptr, col_idx: out_col, values: out_val }
    }

    /// Builds from per-row `(col, val)` lists (already deduplicated).
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> Self {
        let triplets: Vec<Triplet> = rows
            .iter()
            .enumerate()
            .flat_map(|(r, cols)| {
                cols.iter().map(move |&(c, v)| Triplet { row: r, col: c, val: v })
            })
            .collect();
        Self::from_triplets(rows.len(), ncols, &triplets)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(col, val)` entries of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// `y ← A·x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        for (r, yr) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
    }

    /// `y ← Aᵀ·x`.
    pub fn matvec_transpose(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.nrows);
        debug_assert_eq!(y.len(), self.ncols);
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for k in lo..hi {
                y[self.col_idx[k]] += self.values[k] * xr;
            }
        }
    }

    /// Returns the dense representation (tests / tiny problems only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for (r, row) in d.iter_mut().enumerate() {
            for (c, v) in self.row(r) {
                row[c] += v;
            }
        }
        d
    }

    /// Computes the matrix rank via Gaussian elimination on a dense copy.
    ///
    /// Used by the conciseness tests (Theorem 3) on per-bucket invariant
    /// matrices; those are at most `(g+h) × g·h`, so dense elimination is
    /// fine.
    // The elimination inner loop indexes two distinct rows of `m` at the
    // same column, which iterators cannot express without split borrows.
    #[allow(clippy::needless_range_loop)]
    pub fn rank(&self, tol: f64) -> usize {
        let mut m = self.to_dense();
        let (nr, nc) = (self.nrows, self.ncols);
        let mut rank = 0;
        let mut row = 0;
        for col in 0..nc {
            if row >= nr {
                break;
            }
            // Partial pivoting.
            let mut piv = row;
            for r in row + 1..nr {
                if m[r][col].abs() > m[piv][col].abs() {
                    piv = r;
                }
            }
            if m[piv][col].abs() <= tol {
                continue;
            }
            m.swap(row, piv);
            let pivval = m[row][col];
            for r in 0..nr {
                if r != row && m[r][col].abs() > 0.0 {
                    let f = m[r][col] / pivval;
                    for c in col..nc {
                        m[r][c] -= f * m[row][c];
                    }
                }
            }
            row += 1;
            rank += 1;
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        CsrMatrix::from_triplets(
            2,
            3,
            &[
                Triplet { row: 0, col: 2, val: 2.0 },
                Triplet { row: 0, col: 0, val: 1.0 },
                Triplet { row: 1, col: 1, val: 3.0 },
            ],
        )
    }

    #[test]
    fn assembly_sorts_and_dedups() {
        let m = CsrMatrix::from_triplets(
            1,
            2,
            &[
                Triplet { row: 0, col: 1, val: 1.0 },
                Triplet { row: 0, col: 1, val: 2.0 },
                Triplet { row: 0, col: 0, val: 5.0 },
            ],
        );
        let row: Vec<_> = m.row(0).collect();
        assert_eq!(row, vec![(0, 5.0), (1, 3.0)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn matvec_products() {
        let m = sample();
        let mut y = vec![0.0; 2];
        m.matvec(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0]);
        let mut z = vec![0.0; 3];
        m.matvec_transpose(&[1.0, 2.0], &mut z);
        assert_eq!(z, vec![1.0, 6.0, 2.0]);
    }

    #[test]
    fn dense_and_rank() {
        let m = sample();
        assert_eq!(m.to_dense(), vec![vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]);
        assert_eq!(m.rank(1e-12), 2);
        // Rank-deficient: rows sum to the same vector.
        let d = CsrMatrix::from_rows(
            2,
            &[
                vec![(0, 1.0), (1, 1.0)],
                vec![(0, 2.0), (1, 2.0)],
            ],
        );
        assert_eq!(d.rank(1e-12), 1);
    }

    #[test]
    fn from_rows_matches_triplets() {
        let a = CsrMatrix::from_rows(3, &[vec![(0, 1.0), (2, 2.0)], vec![(1, 3.0)]]);
        assert_eq!(a, sample());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_triplet_panics() {
        CsrMatrix::from_triplets(1, 1, &[Triplet { row: 0, col: 1, val: 1.0 }]);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_triplets(0, 0, &[]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rank(1e-12), 0);
    }
}
