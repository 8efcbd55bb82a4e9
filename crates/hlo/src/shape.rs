//! Tensor shapes and shape errors.

use std::fmt;

use tpu_numerics::DType;

/// The highest rank a [`TensorShape`] can hold. Shapes store their dims
/// inline, so building, cloning and re-inferring one never allocates;
/// every op in the IR is rank 4 or lower (NHWC convolutions).
pub const MAX_RANK: usize = 4;

/// A dense row-major tensor shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// The dims, then zeros. No dim is zero, so the first zero marks
    /// the rank; the derived comparisons and hash see the same dims.
    dims: [u64; MAX_RANK],
}

/// Error produced by shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A dimension was zero.
    ZeroDim,
    /// A shape had no dimensions.
    Scalar,
    /// A shape had more than [`MAX_RANK`] dimensions.
    RankTooHigh {
        /// Dimensions requested.
        rank: usize,
    },
    /// Two shapes that must match do not.
    Mismatch {
        /// Description of the constraint that failed.
        context: &'static str,
        /// Left-hand shape.
        lhs: TensorShape,
        /// Right-hand shape.
        rhs: TensorShape,
    },
    /// The op requires a different rank.
    BadRank {
        /// Description of the op.
        context: &'static str,
        /// Rank found.
        found: usize,
        /// Rank expected.
        expected: usize,
    },
    /// A reshape changed the element count.
    ElementCountChanged {
        /// Elements before.
        from: u64,
        /// Elements requested.
        to: u64,
    },
    /// An operand id does not name an existing node of this graph
    /// (out of range: fabricated, or from a different graph).
    UnknownOperand {
        /// Description of the operand slot.
        context: &'static str,
        /// The offending id's raw index.
        index: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::ZeroDim => write!(f, "shape has a zero dimension"),
            ShapeError::Scalar => write!(f, "shape must have at least one dimension"),
            ShapeError::RankTooHigh { rank } => {
                write!(f, "shape has rank {rank}, above the maximum {MAX_RANK}")
            }
            ShapeError::Mismatch { context, lhs, rhs } => {
                write!(f, "{context}: {lhs} vs {rhs}")
            }
            ShapeError::BadRank {
                context,
                found,
                expected,
            } => write!(f, "{context}: rank {found}, expected {expected}"),
            ShapeError::ElementCountChanged { from, to } => {
                write!(f, "reshape changes element count {from} -> {to}")
            }
            ShapeError::UnknownOperand {
                context,
                index,
                nodes,
            } => write!(
                f,
                "{context}: operand %{index} does not exist ({nodes} nodes)"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

impl TensorShape {
    /// Creates a shape, validating that it is non-scalar with no zero
    /// dims and at most [`MAX_RANK`] of them.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Scalar`], [`ShapeError::RankTooHigh`] or
    /// [`ShapeError::ZeroDim`].
    pub fn new(dims: &[u64]) -> Result<TensorShape, ShapeError> {
        if dims.is_empty() {
            return Err(ShapeError::Scalar);
        }
        if dims.len() > MAX_RANK {
            return Err(ShapeError::RankTooHigh { rank: dims.len() });
        }
        if dims.contains(&0) {
            return Err(ShapeError::ZeroDim);
        }
        let mut inline = [0; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Ok(TensorShape { dims: inline })
    }

    /// This shape with its trailing dimension replaced by `last`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ZeroDim`] if `last` is zero.
    pub(crate) fn with_trailing(mut self, last: u64) -> Result<TensorShape, ShapeError> {
        if last == 0 {
            return Err(ShapeError::ZeroDim);
        }
        self.dims[self.rank() - 1] = last;
        Ok(self)
    }

    /// The dimensions.
    pub fn dims(&self) -> &[u64] {
        &self.dims[..self.rank()]
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.dims.iter().position(|&d| d == 0).unwrap_or(MAX_RANK)
    }

    /// Total element count.
    pub fn elements(&self) -> u64 {
        // The zeros past the rank count as 1: no scan for the rank.
        self.dims.iter().map(|&d| d.max(1)).product()
    }

    /// Storage size in bytes at the given precision.
    pub fn bytes(&self, dtype: DType) -> u64 {
        self.elements() * dtype.size_bytes()
    }

    /// The leading (batch) dimension.
    pub fn leading(&self) -> u64 {
        self.dims[0]
    }

    /// The trailing (feature) dimension.
    pub fn trailing(&self) -> u64 {
        self.dims[self.rank() - 1]
    }
}

/// Prints the live dims only, as `TensorShape { dims: [4, 8] }`.
impl fmt::Debug for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TensorShape")
            .field("dims", &self.dims())
            .finish()
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(TensorShape::new(&[2, 3]).is_ok());
        assert_eq!(TensorShape::new(&[]), Err(ShapeError::Scalar));
        assert_eq!(TensorShape::new(&[4, 0]), Err(ShapeError::ZeroDim));
    }

    #[test]
    fn accessors() {
        let s = TensorShape::new(&[4, 8, 16]).unwrap();
        assert_eq!(s.rank(), 3);
        assert_eq!(s.elements(), 512);
        assert_eq!(s.bytes(DType::Bf16), 1024);
        assert_eq!(s.bytes(DType::Int8), 512);
        assert_eq!(s.leading(), 4);
        assert_eq!(s.trailing(), 16);
    }

    #[test]
    fn display() {
        let s = TensorShape::new(&[1, 128]).unwrap();
        assert_eq!(format!("{s}"), "[1, 128]");
        let e = ShapeError::ElementCountChanged { from: 4, to: 5 };
        assert!(format!("{e}").contains("4 -> 5"));
    }

    #[test]
    fn rank_is_bounded_with_a_typed_error() {
        let full = TensorShape::new(&[2, 3, 4, 5]).unwrap();
        assert_eq!(full.rank(), MAX_RANK);
        assert_eq!(full.dims(), &[2, 3, 4, 5]);
        assert_eq!(full.trailing(), 5);
        assert_eq!(full.elements(), 120);
        assert_eq!(
            TensorShape::new(&[1, 2, 3, 4, 5]),
            Err(ShapeError::RankTooHigh { rank: 5 })
        );
        let msg = format!("{}", ShapeError::RankTooHigh { rank: 5 });
        assert!(msg.contains("rank 5") && msg.contains('4'), "{msg}");
    }

    #[test]
    fn debug_and_display_text_list_only_the_dims() {
        let s = TensorShape::new(&[4, 8]).unwrap();
        assert_eq!(format!("{s:?}"), "TensorShape { dims: [4, 8] }");
        assert_eq!(
            format!("{s:#?}"),
            "TensorShape {\n    dims: [\n        4,\n        8,\n    ],\n}"
        );
        assert_eq!(format!("{s}"), "[4, 8]");
        let one = TensorShape::new(&[7]).unwrap();
        assert_eq!(format!("{one:?}"), "TensorShape { dims: [7] }");
        assert_eq!(format!("{one}"), "[7]");
        let e = ShapeError::Mismatch {
            context: "binary operands",
            lhs: s,
            rhs: one,
        };
        assert_eq!(
            format!("{e:?}"),
            "Mismatch { context: \"binary operands\", lhs: TensorShape { dims: [4, 8] }, \
             rhs: TensorShape { dims: [7] } }"
        );
        assert_eq!(format!("{e}"), "binary operands: [4, 8] vs [7]");
    }

    #[test]
    fn equality_sees_only_the_dims() {
        let a = TensorShape::new(&[2, 3]).unwrap();
        assert_eq!(a, TensorShape::new(&[2, 3]).unwrap());
        assert_ne!(a, TensorShape::new(&[2, 3, 1]).unwrap());
        assert_ne!(a, TensorShape::new(&[3, 2]).unwrap());
        assert_eq!(a.with_trailing(9).unwrap().dims(), &[2, 9]);
        assert_eq!(a.with_trailing(0), Err(ShapeError::ZeroDim));
    }
}
