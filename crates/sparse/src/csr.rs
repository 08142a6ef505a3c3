//! Compressed sparse row matrices.
//!
//! [`CsrMatrix`] is the workhorse of the suite: the one-step transition probability
//! matrix `P` of the embedded DTMC is a real CSR matrix, and every `s`-point
//! evaluation of the iterative passage-time algorithm materialises two complex CSR
//! matrices `U` and `U'` and repeatedly forms row-vector products with them
//! (Eq. 10 of the paper).

use crate::scalar::Scalar;

/// An immutable sparse matrix in compressed sparse row format.
///
/// `indptr` has `rows + 1` entries; row `r` occupies the half-open range
/// `indptr[r] .. indptr[r + 1]` of `col_indices` / `values`.  Column indices are
/// sorted and unique within each row.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    indptr: Vec<u64>,
    col_indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Assembles a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Panics when the parts are structurally inconsistent (wrong `indptr` length,
    /// non-monotone `indptr`, out-of-range column indices or mismatched buffer
    /// lengths).  Column ordering within rows is *not* verified here — the
    /// [`TripletMatrix`](crate::TripletMatrix) builder guarantees it; `debug_assert`s check it in tests.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<u64>,
        col_indices: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length must be rows + 1");
        assert_eq!(col_indices.len(), values.len(), "col/value length mismatch");
        assert_eq!(
            *indptr.last().unwrap_or(&0) as usize,
            col_indices.len(),
            "last indptr entry must equal nnz"
        );
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr not monotone"
        );
        assert!(
            col_indices
                .iter()
                .all(|&c| (c as usize) < cols || cols == 0),
            "column index out of range"
        );
        #[cfg(debug_assertions)]
        for r in 0..rows {
            let s = indptr[r] as usize;
            let e = indptr[r + 1] as usize;
            debug_assert!(
                col_indices[s..e].windows(2).all(|w| w[0] < w[1]),
                "row {r} columns not strictly increasing"
            );
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            col_indices,
            values,
        }
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

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored values, in row-major CSR order.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the stored values, in row-major CSR order.
    ///
    /// The sparsity *structure* (`indptr`, `col_indices`) stays fixed — this is
    /// the numeric half of a symbolic/numeric split: a caller that knows the
    /// skeleton can refill the values for a new transform point in place,
    /// without re-sorting triplets or reallocating (see
    /// `smp_core::workspace::PassageWorkspace`).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// The row-pointer array (`rows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    /// The column indices, in row-major CSR order.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Iterates over `(column, value)` pairs of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let start = self.indptr[r] as usize;
        let end = self.indptr[r + 1] as usize;
        self.col_indices[start..end]
            .iter()
            .zip(&self.values[start..end])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Value at `(r, c)`, `T::ZERO` when not stored.  O(log nnz(row)).
    pub fn get(&self, r: usize, c: usize) -> T {
        let start = self.indptr[r] as usize;
        let end = self.indptr[r + 1] as usize;
        match self.col_indices[start..end].binary_search(&(c as u32)) {
            Ok(i) => self.values[start + i],
            Err(_) => T::ZERO,
        }
    }

    /// Row-vector–matrix product `y = x·A` (i.e. `y_j = Σ_i x_i A_ij`).
    ///
    /// This is the fundamental operation of Eq. (10): the accumulator row vector is
    /// repeatedly post-multiplied by `U'`.
    pub fn vec_mul(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.rows, "dimension mismatch in vec_mul");
        let mut y = vec![T::ZERO; self.cols];
        self.vec_mul_into(x, &mut y);
        y
    }

    /// In-place row-vector–matrix product `y = x·A`.
    pub fn vec_mul_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.rows, "dimension mismatch in vec_mul_into");
        assert_eq!(y.len(), self.cols, "output dimension mismatch");
        for v in y.iter_mut() {
            *v = T::ZERO;
        }
        for (r, &xr) in x.iter().enumerate() {
            if xr.is_zero() {
                continue;
            }
            let start = self.indptr[r] as usize;
            let end = self.indptr[r + 1] as usize;
            for i in start..end {
                y[self.col_indices[i] as usize] += self.values[i] * xr;
            }
        }
    }

    /// In-place row-vector–matrix product `y = x·A` that skips the rows flagged
    /// in `skip_rows` (as if those rows of `A` were zero).
    ///
    /// This is the fundamental operation of the passage-time iteration with the
    /// row-masked view of `U'`: bitwise identical to
    /// `U.zero_rows(mask).vec_mul_into(x, y)` — the scatter visits the kept
    /// rows in the same order with the same per-entry arithmetic.
    pub fn vec_mul_into_masked(&self, x: &[T], y: &mut [T], skip_rows: &[bool]) {
        assert_eq!(x.len(), self.rows, "dimension mismatch in vec_mul_into");
        assert_eq!(y.len(), self.cols, "output dimension mismatch");
        assert_eq!(skip_rows.len(), self.rows, "mask dimension mismatch");
        for v in y.iter_mut() {
            *v = T::ZERO;
        }
        for r in 0..self.rows {
            if skip_rows[r] {
                continue;
            }
            let xr = x[r];
            if xr.is_zero() {
                continue;
            }
            let start = self.indptr[r] as usize;
            let end = self.indptr[r + 1] as usize;
            for (&v, &c) in self.values[start..end]
                .iter()
                .zip(&self.col_indices[start..end])
            {
                y[c as usize] += v * xr;
            }
        }
    }

    /// The `[col_lo, col_hi)` slice of the masked row-vector product
    /// `y = x·A` with the rows flagged in `skip_rows` treated as zero —
    /// i.e. exactly `vec_mul_into_masked`'s output restricted to that column
    /// range, computed without touching the other columns.
    ///
    /// This is the per-shard SpMV kernel of the row-sharded solver: a shard
    /// owning the contiguous column block `[col_lo, col_hi)` of `U'` produces
    /// its slice of the next iterate from the full-length input vector.  Every
    /// output column accumulates its contributions in the same ascending
    /// source-row order as the full scatter (rows it skips contribute exact
    /// zeros there too), so concatenating the shards' slices is **bitwise
    /// identical** to the unsharded product for any shard count.
    pub fn vec_mul_into_masked_range(
        &self,
        x: &[T],
        y: &mut [T],
        skip_rows: &[bool],
        col_lo: usize,
        col_hi: usize,
    ) {
        assert_eq!(x.len(), self.rows, "dimension mismatch in vec_mul_into");
        assert_eq!(skip_rows.len(), self.rows, "mask dimension mismatch");
        assert!(
            col_lo <= col_hi && col_hi <= self.cols,
            "column range out of bounds"
        );
        assert_eq!(y.len(), col_hi - col_lo, "output dimension mismatch");
        for v in y.iter_mut() {
            *v = T::ZERO;
        }
        let (lo, hi) = (col_lo as u32, col_hi as u32);
        for r in 0..self.rows {
            if skip_rows[r] {
                continue;
            }
            let xr = x[r];
            if xr.is_zero() {
                continue;
            }
            let start = self.indptr[r] as usize;
            let end = self.indptr[r + 1] as usize;
            let cols = &self.col_indices[start..end];
            // Columns are sorted within the row: the owned range is one
            // contiguous run of entries.
            let a = start + cols.partition_point(|&c| c < lo);
            let b = start + cols.partition_point(|&c| c < hi);
            for (&v, &c) in self.values[a..b].iter().zip(&self.col_indices[a..b]) {
                y[(c - lo) as usize] += v * xr;
            }
        }
    }

    /// Returns a copy with entire rows zeroed out (structurally removed).
    ///
    /// Used to build `U'` from `U`: rows belonging to target states are made
    /// absorbing by deleting their outgoing transitions.
    pub fn zero_rows(&self, rows_to_zero: &[bool]) -> CsrMatrix<T> {
        assert_eq!(rows_to_zero.len(), self.rows);
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut col_indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0u64);
        for (r, &zeroed) in rows_to_zero.iter().enumerate() {
            if !zeroed {
                let start = self.indptr[r] as usize;
                let end = self.indptr[r + 1] as usize;
                col_indices.extend_from_slice(&self.col_indices[start..end]);
                values.extend_from_slice(&self.values[start..end]);
            }
            indptr.push(col_indices.len() as u64);
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            col_indices,
            values,
        }
    }

    /// Transpose (rows become columns).  O(nnz + rows + cols).
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut counts = vec![0u64; self.cols + 1];
        for &c in &self.col_indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut col_indices = vec![0u32; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.rows {
            let start = self.indptr[r] as usize;
            let end = self.indptr[r + 1] as usize;
            for i in start..end {
                let c = self.col_indices[i] as usize;
                let idx = cursor[c] as usize;
                col_indices[idx] = r as u32;
                values[idx] = self.values[i];
                cursor[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr: counts,
            col_indices,
            values,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;
    use proptest::prelude::*;
    use smp_numeric::Complex64;

    fn sample_matrix() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        t.to_csr()
    }

    #[test]
    fn vec_mul_matches_dense() {
        let m = sample_matrix();
        let y = m.vec_mul(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![13.0, 6.0, 17.0]);
    }

    #[test]
    fn vec_mul_skips_zero_entries_of_x() {
        let m = sample_matrix();
        let y = m.vec_mul(&[0.0, 0.0, 2.0]);
        assert_eq!(y, vec![8.0, 0.0, 10.0]);
    }

    #[test]
    fn get_and_row_access() {
        let m = sample_matrix();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 0), 0.0);
        let row0: Vec<(usize, f64)> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row(2).count(), 2);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample_matrix();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn zero_rows_makes_states_absorbing() {
        let m = sample_matrix();
        let z = m.zero_rows(&[false, true, false]);
        assert_eq!(z.row(1).count(), 0);
        assert_eq!(z.get(0, 0), 1.0);
        assert_eq!(z.get(2, 2), 5.0);
        assert_eq!(z.nnz(), m.nnz() - 1);
    }

    #[test]
    fn masked_products_match_zero_rows_bitwise() {
        let m = sample_matrix();
        let mask = [false, true, false];
        let zeroed = m.zero_rows(&mask);
        let x = vec![1.25, -0.5, 3.0];

        let mut masked = vec![0.0; 3];
        let mut reference = vec![0.0; 3];
        m.vec_mul_into_masked(&x, &mut masked, &mask);
        zeroed.vec_mul_into(&x, &mut reference);
        assert_eq!(masked, reference);

        // An all-false mask reproduces the unmasked product.
        let none = [false; 3];
        m.vec_mul_into_masked(&x, &mut masked, &none);
        assert_eq!(masked, m.vec_mul(&x));
    }

    #[test]
    fn masked_range_product_slices_the_full_product_bitwise() {
        let mut t = TripletMatrix::<Complex64>::new(5, 5);
        for (r, c, re, im) in [
            (0, 1, 0.3, -1.2),
            (0, 4, -2.0, 0.7),
            (1, 0, 1.0, 1.0),
            (1, 2, 0.5, -0.5),
            (2, 3, -0.25, 2.5),
            (3, 3, 4.0, 0.0),
            (3, 4, 0.0, -3.0),
            (4, 0, 1.5, 1.5),
        ] {
            t.push(r, c, Complex64::new(re, im));
        }
        let m = t.to_csr();
        let mask = [false, true, false, false, true];
        let x: Vec<Complex64> = (0..5)
            .map(|k| Complex64::new(0.1 + k as f64, -0.3 * k as f64))
            .collect();
        let mut full = vec![Complex64::ZERO; 5];
        m.vec_mul_into_masked(&x, &mut full, &mask);
        for shards in 1..=4usize {
            let mut concat = Vec::new();
            for k in 0..shards {
                let lo = k * 5 / shards;
                let hi = (k + 1) * 5 / shards;
                let mut slice = vec![Complex64::ZERO; hi - lo];
                m.vec_mul_into_masked_range(&x, &mut slice, &mask, lo, hi);
                concat.extend_from_slice(&slice);
            }
            assert_eq!(concat, full, "shards={shards}");
        }
        // An empty range is allowed (a shard may own zero columns).
        let mut empty: Vec<Complex64> = Vec::new();
        m.vec_mul_into_masked_range(&x, &mut empty, &mask, 3, 3);
    }

    #[test]
    fn values_mut_refills_in_place() {
        let mut m = sample_matrix();
        let before = m.nnz();
        for v in m.values_mut() {
            *v *= 2.0;
        }
        assert_eq!(m.nnz(), before);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.indptr().len(), 4);
        assert_eq!(m.col_indices().len(), before);
        assert_eq!(m.values().len(), before);
    }

    #[test]
    #[should_panic(expected = "indptr length")]
    fn from_raw_parts_validates_indptr() {
        CsrMatrix::<f64>::from_raw_parts(2, 2, vec![0, 0], vec![], vec![]);
    }

    #[test]
    fn complex_products() {
        let mut t = TripletMatrix::<Complex64>::new(2, 2);
        t.push(0, 0, Complex64::new(0.0, 1.0));
        t.push(0, 1, Complex64::new(1.0, 0.0));
        t.push(1, 0, Complex64::new(2.0, 0.0));
        let m = t.to_csr();
        let x = vec![Complex64::ONE, Complex64::I];
        let z = m.vec_mul(&x);
        assert_eq!(z[0], Complex64::new(0.0, 3.0));
        assert_eq!(z[1], Complex64::ONE);
    }

    proptest! {
        /// x·A computed through vec_mul equals (Aᵀ)·x computed row by row.
        #[test]
        fn prop_vec_mul_equals_transpose_mul_vec(
            entries in proptest::collection::vec((0usize..7, 0usize..7, -3.0f64..3.0), 1..50),
            x in proptest::collection::vec(-2.0f64..2.0, 7))
        {
            let mut t = TripletMatrix::new(7, 7);
            for &(r, c, v) in &entries {
                t.push(r, c, v);
            }
            let m = t.to_csr();
            let a = m.vec_mul(&x);
            let mt = m.transpose();
            let b: Vec<f64> = (0..7)
                .map(|j| mt.row(j).map(|(i, v)| v * x[i]).sum())
                .collect();
            for (u, v) in a.iter().zip(&b) {
                prop_assert!((u - v).abs() < 1e-9);
            }
        }

        /// Transposing twice is the identity on the stored structure.
        #[test]
        fn prop_double_transpose_identity(
            entries in proptest::collection::vec((0usize..5, 0usize..9, -5.0f64..5.0), 0..40))
        {
            let mut t = TripletMatrix::new(5, 9);
            for &(r, c, v) in &entries {
                t.push(r, c, v);
            }
            let m = t.to_csr();
            let tt = m.transpose().transpose();
            prop_assert_eq!(m, tt);
        }
    }
}
