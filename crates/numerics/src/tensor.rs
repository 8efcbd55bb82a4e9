//! A minimal row-major `f32` tensor for quality experiments.
//!
//! Deliberately tiny: shape bookkeeping, element access, matmul with a
//! selectable accumulation order, and random fills. It exists so the
//! int8-vs-bf16 experiment (E9) and the backwards-compatibility
//! experiment (E14) can run real arithmetic without an array dependency.

use std::fmt;

use crate::accum::{self, AccumOrder};

/// A dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Tensor {
        let n = checked_len(shape);
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        let n = checked_len(shape);
        assert_eq!(data.len(), n, "data length does not match shape");
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Fills with a deterministic pseudo-random pattern in `[-scale, scale]`.
    ///
    /// Uses a splitmix64 stream so experiments are reproducible without a
    /// `rand` dependency in the library itself.
    pub fn random(shape: &[usize], seed: u64, scale: f32) -> Tensor {
        let n = checked_len(shape);
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let data = (0..n)
            .map(|_| {
                state = splitmix64(&mut state);
                // Map the top 24 bits to [-1, 1).
                let u = (state >> 40) as f32 / (1u64 << 24) as f32;
                (u * 2.0 - 1.0) * scale
            })
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2, "row() requires a 2-D tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Matrix multiplication `self @ rhs` with the given fp32 accumulation
    /// order (to emulate a particular generation's MXU numerics).
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]` and `rhs` is `[k, n]`.
    pub fn matmul(&self, rhs: &Tensor, order: AccumOrder) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions must match");
        let mut out = Tensor::zeros(&[m, n]);
        // Gather rhs columns once to keep the inner loop contiguous.
        let mut col = vec![0.0f32; k];
        for j in 0..n {
            for (i, c) in col.iter_mut().enumerate() {
                *c = rhs.data[i * n + j];
            }
            for i in 0..m {
                out.data[i * n + j] = accum::dot_f32(self.row(i), &col, order);
            }
        }
        out
    }

    /// Like [`Tensor::matmul`] but with bf16 multiplication (fp32
    /// accumulate) — the TPUv2+ datapath.
    ///
    /// # Panics
    ///
    /// Same as [`Tensor::matmul`].
    pub fn matmul_bf16(&self, rhs: &Tensor, order: AccumOrder) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions must match");
        let mut out = Tensor::zeros(&[m, n]);
        let mut col = vec![0.0f32; k];
        for j in 0..n {
            for (i, c) in col.iter_mut().enumerate() {
                *c = rhs.data[i * n + j];
            }
            for i in 0..m {
                out.data[i * n + j] = accum::dot_bf16(self.row(i), &col, order);
            }
        }
        out
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elements)", self.shape, self.data.len())
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "shape must have at least one dimension");
    for &d in shape {
        assert!(d > 0, "zero dimension in shape");
    }
    shape.iter().product()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert!(!t.is_empty());
    }

    #[test]
    fn from_vec_validates_length() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(&[8, 8], 42, 0.5);
        let b = Tensor::random(&[8, 8], 42, 0.5);
        let c = Tensor::random(&[8, 8], 43, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|&x| x.abs() <= 0.5));
        // Not degenerate: values differ.
        assert!(a.data().iter().any(|&x| x != a.data()[0]));
    }

    #[test]
    fn matmul_identity() {
        let x = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let y = x.matmul(&id, AccumOrder::Sequential);
        assert_eq!(y, x);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b, AccumOrder::Sequential);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_bf16_close_but_lossy() {
        let a = Tensor::random(&[16, 64], 1, 1.0);
        let b = Tensor::random(&[64, 16], 2, 1.0);
        let hi = a.matmul(&b, AccumOrder::Sequential);
        let lo = a.matmul_bf16(&b, AccumOrder::Sequential);
        let stats = crate::stats::ErrorStats::between(hi.data(), lo.data());
        assert!(stats.sqnr_db > 30.0, "bf16 matmul too lossy: {stats:?}");
        assert!(stats.sqnr_db < 120.0, "bf16 matmul suspiciously exact");
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        a.matmul(&b, AccumOrder::Sequential);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dimension_rejected() {
        Tensor::zeros(&[2, 0]);
    }
}
