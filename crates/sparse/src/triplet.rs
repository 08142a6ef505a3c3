//! Coordinate-format (triplet) sparse matrix builder.
//!
//! State-space exploration naturally emits matrix entries one transition at a time,
//! in whatever order the breadth-first search discovers them, and occasionally emits
//! the same `(row, col)` pair more than once (e.g. two Petri-net transitions between
//! the same pair of markings — their probabilities must be *summed*).  The triplet
//! builder accepts that stream as-is and compresses it into a [`CsrMatrix`] in
//! `O(nnz + rows)` time with a counting sort over rows.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// A growable coordinate-format sparse matrix.
#[derive(Debug, Clone)]
pub struct TripletMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, T)>,
}

impl<T: Scalar> TripletMatrix<T> {
    /// Creates an empty `rows × cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows <= u32::MAX as usize && cols <= u32::MAX as usize);
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with room for `capacity` entries.
    pub fn with_capacity(rows: usize, cols: usize, capacity: usize) -> Self {
        let mut m = TripletMatrix::new(rows, cols);
        m.entries.reserve(capacity);
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Adds `value` at `(row, col)`.  Duplicate coordinates are summed during
    /// compression; exact zeros are skipped.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert!(col < self.cols, "col {col} out of bounds ({})", self.cols);
        if value.is_zero() {
            return;
        }
        self.entries.push((row as u32, col as u32, value));
    }

    /// Compresses to CSR, summing duplicates and dropping entries that cancel to
    /// exactly zero.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        // Counting sort by row (stable within a row because we scan in insertion
        // order), then sort each row segment by column and merge duplicates.
        // The column sort is stable too, so duplicates of one coordinate merge
        // in push order whatever else the row holds — an entry skipped as an
        // exact zero cannot reorder the survivors' sum.
        let mut row_counts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            row_counts[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut cols = vec![0u32; self.entries.len()];
        let mut vals = vec![T::ZERO; self.entries.len()];
        let mut cursor = row_counts.clone();
        for &(r, c, v) in &self.entries {
            let idx = cursor[r as usize];
            cols[idx] = c;
            vals[idx] = v;
            cursor[r as usize] += 1;
        }

        // Per-row: sort by column and merge duplicates into fresh output buffers.
        let mut out_indptr = Vec::with_capacity(self.rows + 1);
        let mut out_cols = Vec::with_capacity(self.entries.len());
        let mut out_vals = Vec::with_capacity(self.entries.len());
        out_indptr.push(0u64);
        let mut scratch: Vec<(u32, T)> = Vec::new();
        for r in 0..self.rows {
            let (start, end) = (row_counts[r], row_counts[r + 1]);
            scratch.clear();
            scratch.extend(
                cols[start..end]
                    .iter()
                    .copied()
                    .zip(vals[start..end].iter().copied()),
            );
            scratch.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut acc = scratch[i].1;
                i += 1;
                while i < scratch.len() && scratch[i].0 == c {
                    acc += scratch[i].1;
                    i += 1;
                }
                if !acc.is_zero() {
                    out_cols.push(c);
                    out_vals.push(acc);
                }
            }
            out_indptr.push(out_cols.len() as u64);
        }
        CsrMatrix::from_raw_parts(self.rows, self.cols, out_indptr, out_cols, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smp_numeric::Complex64;

    #[test]
    fn build_small_matrix() {
        let mut t = TripletMatrix::<f64>::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 1, 5.0);
        t.push(1, 2, 3.0);
        t.push(0, 2, 2.0);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::<f64>::new(2, 2);
        t.push(0, 1, 0.25);
        t.push(0, 1, 0.5);
        t.push(0, 1, 0.25);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut t = TripletMatrix::<f64>::new(2, 2);
        t.push(1, 1, 2.0);
        t.push(1, 1, -2.0);
        t.push(0, 0, 1.0);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn explicit_zeros_are_skipped() {
        let mut t = TripletMatrix::<f64>::new(2, 2);
        t.push(0, 0, 0.0);
        assert_eq!(t.to_csr().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_row_panics() {
        let mut t = TripletMatrix::<f64>::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn complex_entries() {
        let mut t = TripletMatrix::<Complex64>::new(2, 2);
        t.push(0, 1, Complex64::new(1.0, -1.0));
        t.push(0, 1, Complex64::new(0.5, 0.5));
        let m = t.to_csr();
        assert_eq!(m.get(0, 1), Complex64::new(1.5, -0.5));
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let t = TripletMatrix::<f64>::new(0, 0);
        let m = t.to_csr();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 0);
        assert_eq!(m.nnz(), 0);
    }

    proptest! {
        /// CSR compression preserves the dense sum of all pushed entries per cell.
        #[test]
        fn prop_compression_matches_dense(entries in proptest::collection::vec(
            (0usize..8, 0usize..8, -10.0f64..10.0), 0..60))
        {
            let mut dense = [[0.0f64; 8]; 8];
            let mut t = TripletMatrix::<f64>::new(8, 8);
            for &(r, c, v) in &entries {
                dense[r][c] += v;
                t.push(r, c, v);
            }
            let m = t.to_csr();
            for (r, dense_row) in dense.iter().enumerate() {
                for (c, &cell) in dense_row.iter().enumerate() {
                    prop_assert!((m.get(r, c) - cell).abs() < 1e-9);
                }
            }
            // nnz never exceeds number of distinct coordinates pushed
            let mut coords: Vec<(usize,usize)> = entries.iter().map(|&(r,c,_)| (r,c)).collect();
            coords.sort_unstable();
            coords.dedup();
            prop_assert!(m.nnz() <= coords.len());
        }

        /// Row sums of the CSR equal row sums of the raw entry stream.
        #[test]
        fn prop_row_sums_preserved(entries in proptest::collection::vec(
            (0usize..6, 0usize..6, 0.01f64..5.0), 1..40))
        {
            let mut t = TripletMatrix::<f64>::new(6, 6);
            let mut sums = [0.0f64; 6];
            for &(r, c, v) in &entries {
                t.push(r, c, v);
                sums[r] += v;
            }
            let m = t.to_csr();
            for (r, &expected) in sums.iter().enumerate() {
                let row_sum: f64 = m.row(r).map(|(_, v)| v).sum();
                prop_assert!((row_sum - expected).abs() < 1e-9);
            }
        }
    }
}
