//! Program container, verifier and static statistics.

use std::fmt;

use tpu_arch::{Generation, MemLevel};

use crate::bundle::Bundle;
use crate::encoding::EncodingSpec;
use crate::inst::{DmaOp, MxuOp, ScalarOp, VectorOp, XposeOp};

/// A verified-or-verifiable sequence of VLIW bundles for one generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    generation: Generation,
    bundles: Vec<Bundle>,
}

/// Error found by [`Program::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A bundle uses a feature its generation cannot encode; wraps the
    /// underlying encoding error with the bundle index.
    IllegalBundle {
        /// Index of the offending bundle.
        index: usize,
        /// Why it is illegal.
        reason: crate::encoding::EncodeError,
    },
    /// A `LoopEnd` branches back past the start of the program.
    LoopOutOfRange {
        /// Index of the offending bundle.
        index: usize,
        /// Backward offset requested.
        offset: u16,
    },
    /// A `MatMul`/`PopResults` has no preceding `PushWeights` on that MXU.
    MxuNotLoaded {
        /// Index of the offending bundle.
        index: usize,
        /// The MXU that was used before loading weights.
        mxu: u8,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::IllegalBundle { index, reason } => {
                write!(f, "bundle {index}: {reason}")
            }
            VerifyError::LoopOutOfRange { index, offset } => {
                write!(f, "bundle {index}: loop offset {offset} exits the program")
            }
            VerifyError::MxuNotLoaded { index, mxu } => {
                write!(f, "bundle {index}: mxu {mxu} used before PushWeights")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Static statistics of a program (slot occupancy, unit usage, traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramStats {
    /// Number of bundles.
    pub bundles: usize,
    /// Non-nop slot count across all bundles.
    pub occupied_slots: usize,
    /// Scalar operations.
    pub scalar_ops: usize,
    /// Vector operations (both slots).
    pub vector_ops: usize,
    /// Matrix operations.
    pub mxu_ops: usize,
    /// Transpose/permute operations.
    pub xpose_ops: usize,
    /// DMA starts.
    pub dma_ops: usize,
    /// Total bytes moved by DMA starts.
    pub dma_bytes: u64,
    /// Bytes DMAed to or from CMEM.
    pub cmem_bytes: u64,
}

impl ProgramStats {
    /// Mean occupied slots per bundle (VLIW packing efficiency).
    pub fn mean_occupancy(&self) -> f64 {
        if self.bundles == 0 {
            0.0
        } else {
            self.occupied_slots as f64 / self.bundles as f64
        }
    }
}

impl Program {
    /// Creates an empty program for a generation.
    pub fn new(generation: Generation) -> Program {
        Program::with_capacity(generation, 0)
    }

    /// An empty program with room for `bundles` bundles.
    pub fn with_capacity(generation: Generation, bundles: usize) -> Program {
        Program {
            generation,
            bundles: Vec::with_capacity(bundles),
        }
    }

    /// The target generation.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Appends a bundle.
    pub fn push(&mut self, bundle: Bundle) {
        self.bundles.push(bundle);
    }

    /// The bundles, in issue order.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// Number of bundles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// Whether the program has no bundles.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// Verifies the program against its generation's constraints.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found: encoding-illegal bundles,
    /// loops that branch before bundle 0, or MXU use before weight load.
    pub fn verify(&self) -> Result<(), VerifyError> {
        let spec = EncodingSpec::for_generation(self.generation);
        let mut loaded = [false; 256];
        // Reuse the encoder's legality logic one bundle at a time.
        for (index, b) in self.bundles.iter().enumerate() {
            if let Err(reason) = crate::encoding::check_bundle(b, &spec) {
                return Err(VerifyError::IllegalBundle { index, reason });
            }
            if let ScalarOp::LoopEnd { offset, .. } = b.scalar {
                if offset as usize > index {
                    return Err(VerifyError::LoopOutOfRange { index, offset });
                }
            }
            match b.mxu {
                MxuOp::PushWeights { mxu } => loaded[mxu as usize] = true,
                MxuOp::MatMul { mxu, .. } | MxuOp::PopResults { mxu } => {
                    if !loaded[mxu as usize] {
                        return Err(VerifyError::MxuNotLoaded { index, mxu });
                    }
                }
                MxuOp::Nop => {}
            }
        }
        Ok(())
    }

    /// Computes static statistics.
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats {
            bundles: self.bundles.len(),
            ..ProgramStats::default()
        };
        for b in &self.bundles {
            s.occupied_slots += b.occupancy();
            if b.scalar != ScalarOp::Nop {
                s.scalar_ops += 1;
            }
            if b.vector0 != VectorOp::Nop {
                s.vector_ops += 1;
            }
            if b.vector1 != VectorOp::Nop {
                s.vector_ops += 1;
            }
            if b.mxu != MxuOp::Nop {
                s.mxu_ops += 1;
            }
            if b.xpose != XposeOp::Nop {
                s.xpose_ops += 1;
            }
            if let DmaOp::Start { dir, bytes, .. } = b.dma {
                s.dma_ops += 1;
                s.dma_bytes += bytes as u64;
                if dir.src == MemLevel::Cmem || dir.dst == MemLevel::Cmem {
                    s.cmem_bytes += bytes as u64;
                }
            }
        }
        s
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; {} program, {} bundles", self.generation, self.len())?;
        for b in &self.bundles {
            writeln!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{DmaDirection, SReg, VReg};

    #[test]
    fn empty_program_verifies() {
        let p = Program::new(Generation::TpuV4i);
        assert!(p.is_empty());
        p.verify().unwrap();
        assert_eq!(p.stats().mean_occupancy(), 0.0);
    }

    #[test]
    fn verify_catches_illegal_slot() {
        let mut p = Program::new(Generation::TpuV1);
        p.push(Bundle::new().xpose(XposeOp::Transpose {
            src: VReg(0),
            dst: VReg(1),
        }));
        assert!(matches!(
            p.verify().unwrap_err(),
            VerifyError::IllegalBundle { index: 0, .. }
        ));
    }

    #[test]
    fn verify_catches_wild_loop() {
        let mut p = Program::new(Generation::TpuV4i);
        p.push(Bundle::new().scalar(ScalarOp::LoopEnd {
            counter: SReg(0),
            offset: 5,
        }));
        assert_eq!(
            p.verify().unwrap_err(),
            VerifyError::LoopOutOfRange {
                index: 0,
                offset: 5
            }
        );
    }

    #[test]
    fn verify_catches_matmul_before_weights() {
        let mut p = Program::new(Generation::TpuV4i);
        p.push(Bundle::new().mxu(MxuOp::MatMul { mxu: 1, rows: 8 }));
        assert_eq!(
            p.verify().unwrap_err(),
            VerifyError::MxuNotLoaded { index: 0, mxu: 1 }
        );
        // With a preceding push it is fine.
        let mut q = Program::new(Generation::TpuV4i);
        q.push(Bundle::new().mxu(MxuOp::PushWeights { mxu: 1 }));
        q.push(Bundle::new().mxu(MxuOp::MatMul { mxu: 1, rows: 8 }));
        q.verify().unwrap();
    }

    #[test]
    fn stats_count_everything() {
        let mut p = Program::new(Generation::TpuV4i);
        p.push(
            Bundle::new()
                .scalar(ScalarOp::LoadImm {
                    dst: SReg(0),
                    imm: 3,
                })
                .vector(VectorOp::VRelu {
                    dst: VReg(0),
                    a: VReg(0),
                })
                .vector1(VectorOp::VRelu {
                    dst: VReg(1),
                    a: VReg(1),
                })
                .dma(DmaOp::Start {
                    queue: 0,
                    dir: DmaDirection::new(MemLevel::Hbm, MemLevel::Cmem),
                    bytes: 1000,
                }),
        );
        p.push(Bundle::new().mxu(MxuOp::PushWeights { mxu: 0 }));
        let s = p.stats();
        assert_eq!(s.bundles, 2);
        assert_eq!(s.scalar_ops, 1);
        assert_eq!(s.vector_ops, 2);
        assert_eq!(s.mxu_ops, 1);
        assert_eq!(s.dma_ops, 1);
        assert_eq!(s.dma_bytes, 1000);
        assert_eq!(s.cmem_bytes, 1000);
        assert!((s.mean_occupancy() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_lists_bundles() {
        let mut p = Program::new(Generation::TpuV2);
        p.push(Bundle::new().scalar(ScalarOp::Halt));
        let s = format!("{p}");
        assert!(s.contains("TPUv2"));
        assert!(s.contains("halt"));
    }

    #[test]
    fn verify_error_display() {
        let e = VerifyError::MxuNotLoaded { index: 3, mxu: 2 };
        assert!(format!("{e}").contains("PushWeights"));
    }
}
