//! A functional interpreter for the VLIW ISA.
//!
//! The performance simulator (`tpu-sim`) models *time*; this module
//! models *values*: it executes bundles against architectural state so
//! hand-written programs compute real results, testable against the
//! reference numerics in `tpu-numerics`. It is the reproduction's
//! stand-in for a functional chip model (the paper's teams had RTL
//! simulation; we have this).
//!
//! # Addressing conventions
//!
//! The binary ISA encodes transfer *sizes* but keeps addresses in scalar
//! registers, as real descriptor-based DMA does. The interpreter fixes
//! which registers carry which address:
//!
//! | Register | Role |
//! |---|---|
//! | `s10` | DMA source element offset |
//! | `s11` | DMA destination element offset |
//! | `s12` | `PushWeights`: weight tile base in VMEM |
//! | `s13` | `MatMul`: activation rows base in VMEM |
//! | `s14` | `PopResults`: result base in VMEM |
//!
//! All memories are word (f32) addressed. DMA is synchronous here
//! (`SyncDma` is a no-op); the *timing* of asynchrony is `tpu-sim`'s
//! job.
//!
//! # Example
//!
//! ```
//! use tpu_arch::Generation;
//! use tpu_isa::interp::{Interpreter, InterpConfig};
//! use tpu_isa::asm::assemble;
//!
//! // v1 = relu(v0 + v0), elementwise.
//! let p = assemble("v.add v1, v0, v0\ns.halt", Generation::TpuV4i).unwrap();
//! let mut m = Interpreter::new(InterpConfig::default());
//! m.write_vreg(0, &[1.0, -2.0, 3.0]);
//! m.run(&p).unwrap();
//! assert_eq!(&m.vreg(1)[..3], &[2.0, -4.0, 6.0]);
//! ```

use std::fmt;

use crate::inst::{DmaOp, MxuOp, ScalarOp, VectorOp, XposeOp};
use crate::program::Program;
use tpu_arch::MemLevel;

/// Sizing of the interpreted machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpConfig {
    /// Vector register length in elements (lanes x sublanes).
    pub vector_len: usize,
    /// Systolic array dimension.
    pub mxu_dim: usize,
    /// VMEM size in f32 words.
    pub vmem_words: usize,
    /// HBM size in f32 words.
    pub hbm_words: usize,
    /// CMEM size in f32 words (0 = absent).
    pub cmem_words: usize,
    /// Upper bound on executed bundles (runaway-loop guard).
    pub max_steps: usize,
}

impl Default for InterpConfig {
    fn default() -> InterpConfig {
        InterpConfig {
            vector_len: 8,
            mxu_dim: 4,
            vmem_words: 1 << 16,
            hbm_words: 1 << 18,
            cmem_words: 1 << 16,
            max_steps: 1 << 20,
        }
    }
}

/// Error raised during interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// A memory access fell outside the level's size.
    OutOfBounds {
        /// Which memory.
        level: MemLevel,
        /// Offending element offset.
        offset: usize,
        /// Words requested.
        len: usize,
    },
    /// `MatMul`/`PopResults` before `PushWeights` on that MXU.
    MxuNotLoaded {
        /// The MXU index.
        mxu: u8,
    },
    /// The program ran past the step budget (probably an infinite loop).
    StepBudgetExceeded,
    /// DMA addressed CMEM but the config has none.
    NoCmem,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds { level, offset, len } => {
                write!(f, "access of {len} words at {offset} exceeds {level}")
            }
            InterpError::MxuNotLoaded { mxu } => {
                write!(f, "mxu {mxu} used before PushWeights")
            }
            InterpError::StepBudgetExceeded => write!(f, "step budget exceeded"),
            InterpError::NoCmem => write!(f, "this configuration has no CMEM"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterpStats {
    /// Bundles executed (loop iterations counted individually).
    pub bundles_executed: usize,
    /// MACs performed by MatMul instructions.
    pub macs: u64,
    /// Words moved by DMA.
    pub dma_words: u64,
}

// Address-convention registers (see module docs).
const R_DMA_SRC: usize = 10;
const R_DMA_DST: usize = 11;
const R_MXU_WEIGHTS: usize = 12;
const R_MXU_ACTS: usize = 13;
const R_MXU_OUT: usize = 14;

/// The architectural state plus an executor.
#[derive(Debug, Clone)]
pub struct Interpreter {
    config: InterpConfig,
    sregs: Vec<i64>,
    vregs: Vec<Vec<f32>>,
    vmem: Vec<f32>,
    hbm: Vec<f32>,
    cmem: Vec<f32>,
    /// Per-MXU loaded weight tile (row-major d x d) and result buffer.
    mxu_weights: Vec<Option<Vec<f32>>>,
    mxu_results: Vec<Vec<f32>>,
    stats: InterpStats,
}

impl Interpreter {
    /// Creates a zeroed machine.
    pub fn new(config: InterpConfig) -> Interpreter {
        Interpreter {
            sregs: vec![0; 256],
            vregs: vec![vec![0.0; config.vector_len]; 256],
            vmem: vec![0.0; config.vmem_words],
            hbm: vec![0.0; config.hbm_words],
            cmem: vec![0.0; config.cmem_words],
            mxu_weights: vec![None; 256],
            mxu_results: vec![Vec::new(); 256],
            stats: InterpStats::default(),
            config,
        }
    }

    /// Reads a scalar register.
    pub fn sreg(&self, i: usize) -> i64 {
        self.sregs[i]
    }

    /// Reads a vector register.
    pub fn vreg(&self, i: usize) -> &[f32] {
        &self.vregs[i]
    }

    /// Writes the first `data.len()` lanes of a vector register.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the vector length.
    pub fn write_vreg(&mut self, i: usize, data: &[f32]) {
        assert!(data.len() <= self.config.vector_len, "vector too long");
        self.vregs[i][..data.len()].copy_from_slice(data);
    }

    /// A view of VMEM.
    pub fn vmem(&self) -> &[f32] {
        &self.vmem
    }

    /// Writes words into a memory level at an element offset.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::OutOfBounds`] when the write exceeds the
    /// level's capacity.
    pub fn write_mem(
        &mut self,
        level: MemLevel,
        offset: usize,
        data: &[f32],
    ) -> Result<(), InterpError> {
        let mem = self.mem_mut(level)?;
        if offset + data.len() > mem.len() {
            return Err(InterpError::OutOfBounds {
                level,
                offset,
                len: data.len(),
            });
        }
        mem[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads words from a memory level.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::OutOfBounds`] when the read exceeds the
    /// level's capacity.
    pub fn read_mem(
        &self,
        level: MemLevel,
        offset: usize,
        len: usize,
    ) -> Result<Vec<f32>, InterpError> {
        let mem = self.mem_ref(level)?;
        if offset + len > mem.len() {
            return Err(InterpError::OutOfBounds { level, offset, len });
        }
        Ok(mem[offset..offset + len].to_vec())
    }

    /// Statistics of the last run.
    pub fn stats(&self) -> InterpStats {
        self.stats
    }

    fn mem_ref(&self, level: MemLevel) -> Result<&Vec<f32>, InterpError> {
        match level {
            MemLevel::Hbm => Ok(&self.hbm),
            MemLevel::Vmem | MemLevel::Smem => Ok(&self.vmem),
            MemLevel::Cmem => {
                if self.config.cmem_words == 0 {
                    Err(InterpError::NoCmem)
                } else {
                    Ok(&self.cmem)
                }
            }
        }
    }

    fn mem_mut(&mut self, level: MemLevel) -> Result<&mut Vec<f32>, InterpError> {
        match level {
            MemLevel::Hbm => Ok(&mut self.hbm),
            MemLevel::Vmem | MemLevel::Smem => Ok(&mut self.vmem),
            MemLevel::Cmem => {
                if self.config.cmem_words == 0 {
                    Err(InterpError::NoCmem)
                } else {
                    Ok(&mut self.cmem)
                }
            }
        }
    }

    /// Executes a program to `Halt` (or to the end of the bundle list).
    ///
    /// # Errors
    ///
    /// Returns the first [`InterpError`] encountered.
    pub fn run(&mut self, program: &Program) -> Result<InterpStats, InterpError> {
        self.stats = InterpStats::default();
        let bundles = program.bundles();
        let mut pc = 0usize;
        while pc < bundles.len() {
            if self.stats.bundles_executed >= self.config.max_steps {
                return Err(InterpError::StepBudgetExceeded);
            }
            self.stats.bundles_executed += 1;
            let b = &bundles[pc];
            // Vector slots first (reads of scalar addr regs see pre-bundle
            // values, matching VLIW read-before-write semantics).
            let v0 = b.vector0;
            let v1 = b.vector1;
            self.exec_vector(&v0)?;
            self.exec_vector(&v1)?;
            self.exec_xpose(&b.xpose);
            self.exec_mxu(&b.mxu)?;
            self.exec_dma(&b.dma)?;
            match b.scalar {
                ScalarOp::Halt => break,
                ScalarOp::LoopEnd { counter, offset } => {
                    let c = &mut self.sregs[counter.0 as usize];
                    *c -= 1;
                    if *c > 0 {
                        pc = pc.saturating_sub(offset as usize);
                        continue;
                    }
                }
                op => self.exec_scalar(&op),
            }
            pc += 1;
        }
        Ok(self.stats)
    }

    fn exec_scalar(&mut self, op: &ScalarOp) {
        match *op {
            ScalarOp::Nop
            | ScalarOp::Halt
            | ScalarOp::SyncDma { .. }
            | ScalarOp::LoopEnd { .. } => {}
            ScalarOp::LoadImm { dst, imm } => self.sregs[dst.0 as usize] = imm as i64,
            ScalarOp::Add { dst, a, b } => {
                self.sregs[dst.0 as usize] =
                    self.sregs[a.0 as usize].wrapping_add(self.sregs[b.0 as usize])
            }
            ScalarOp::Sub { dst, a, b } => {
                self.sregs[dst.0 as usize] =
                    self.sregs[a.0 as usize].wrapping_sub(self.sregs[b.0 as usize])
            }
            ScalarOp::Mul { dst, a, b } => {
                self.sregs[dst.0 as usize] =
                    self.sregs[a.0 as usize].wrapping_mul(self.sregs[b.0 as usize])
            }
        }
    }

    fn exec_vector(&mut self, op: &VectorOp) -> Result<(), InterpError> {
        let n = self.config.vector_len;
        match *op {
            VectorOp::Nop => {}
            VectorOp::VAdd { dst, a, b } => {
                for i in 0..n {
                    self.vregs[dst.0 as usize][i] =
                        self.vregs[a.0 as usize][i] + self.vregs[b.0 as usize][i];
                }
            }
            VectorOp::VMul { dst, a, b } => {
                for i in 0..n {
                    self.vregs[dst.0 as usize][i] =
                        self.vregs[a.0 as usize][i] * self.vregs[b.0 as usize][i];
                }
            }
            VectorOp::VMax { dst, a, b } => {
                for i in 0..n {
                    self.vregs[dst.0 as usize][i] =
                        self.vregs[a.0 as usize][i].max(self.vregs[b.0 as usize][i]);
                }
            }
            VectorOp::VRelu { dst, a } => {
                for i in 0..n {
                    self.vregs[dst.0 as usize][i] = self.vregs[a.0 as usize][i].max(0.0);
                }
            }
            VectorOp::VXf { dst, a } => {
                // The transcendental pipeline: modeled as tanh.
                for i in 0..n {
                    self.vregs[dst.0 as usize][i] = self.vregs[a.0 as usize][i].tanh();
                }
            }
            VectorOp::VReduce { dst, a } => {
                let sum: f32 = self.vregs[a.0 as usize].iter().sum();
                self.vregs[dst.0 as usize].fill(0.0);
                self.vregs[dst.0 as usize][0] = sum;
            }
            VectorOp::VLoad { dst, addr } => {
                let offset = self.sregs[addr.0 as usize].max(0) as usize;
                let data = self.read_mem(MemLevel::Vmem, offset, n)?;
                self.vregs[dst.0 as usize].copy_from_slice(&data);
            }
            VectorOp::VStore { src, addr } => {
                let offset = self.sregs[addr.0 as usize].max(0) as usize;
                let data = self.vregs[src.0 as usize].clone();
                self.write_mem(MemLevel::Vmem, offset, &data)?;
            }
        }
        Ok(())
    }

    fn exec_xpose(&mut self, op: &XposeOp) {
        match *op {
            XposeOp::Nop => {}
            XposeOp::Transpose { src, dst } | XposeOp::Permute { src, dst } => {
                // Register-level view: reverse lanes (a fixed permutation,
                // enough for value-flow tests).
                let mut v = self.vregs[src.0 as usize].clone();
                v.reverse();
                self.vregs[dst.0 as usize] = v;
            }
        }
    }

    fn exec_mxu(&mut self, op: &MxuOp) -> Result<(), InterpError> {
        let d = self.config.mxu_dim;
        match *op {
            MxuOp::Nop => {}
            MxuOp::PushWeights { mxu } => {
                let base = self.sregs[R_MXU_WEIGHTS].max(0) as usize;
                let tile = self.read_mem(MemLevel::Vmem, base, d * d)?;
                self.mxu_weights[mxu as usize] = Some(tile);
            }
            MxuOp::MatMul { mxu, rows } => {
                let weights = self.mxu_weights[mxu as usize]
                    .clone()
                    .ok_or(InterpError::MxuNotLoaded { mxu })?;
                let base = self.sregs[R_MXU_ACTS].max(0) as usize;
                let acts = self.read_mem(MemLevel::Vmem, base, rows as usize * d)?;
                let mut out = Vec::with_capacity(rows as usize * d);
                for r in 0..rows as usize {
                    for c in 0..d {
                        // Systolic column accumulate in fp32.
                        let mut acc = 0.0f32;
                        for k in 0..d {
                            acc += acts[r * d + k] * weights[k * d + c];
                        }
                        out.push(acc);
                    }
                }
                self.stats.macs += rows as u64 * (d * d) as u64;
                self.mxu_results[mxu as usize] = out;
            }
            MxuOp::PopResults { mxu } => {
                if self.mxu_weights[mxu as usize].is_none() {
                    return Err(InterpError::MxuNotLoaded { mxu });
                }
                let out = std::mem::take(&mut self.mxu_results[mxu as usize]);
                let base = self.sregs[R_MXU_OUT].max(0) as usize;
                self.write_mem(MemLevel::Vmem, base, &out)?;
            }
        }
        Ok(())
    }

    fn exec_dma(&mut self, op: &DmaOp) -> Result<(), InterpError> {
        match *op {
            DmaOp::Nop => {}
            DmaOp::Start { dir, bytes, .. } => {
                let words = (bytes as usize) / 4;
                let src_off = self.sregs[R_DMA_SRC].max(0) as usize;
                let dst_off = self.sregs[R_DMA_DST].max(0) as usize;
                let data = self.read_mem(dir.src, src_off, words)?;
                self.write_mem(dir.dst, dst_off, &data)?;
                self.stats.dma_words += words as u64;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use tpu_arch::Generation;

    fn machine() -> Interpreter {
        Interpreter::new(InterpConfig::default())
    }

    fn asm(src: &str) -> Program {
        assemble(src, Generation::TpuV4i).expect("assembles")
    }

    #[test]
    fn scalar_arithmetic_and_halt() {
        let p = asm("s.li s1, 6\ns.li s2, 7\ns.mul s3, s1, s2\ns.halt\ns.li s3, 0");
        let mut m = machine();
        let stats = m.run(&p).unwrap();
        assert_eq!(m.sreg(3), 42);
        // Halt stops before the trailing overwrite.
        assert_eq!(stats.bundles_executed, 4);
    }

    #[test]
    fn vector_ops_match_reference() {
        let p = asm("v.add v2, v0, v1 | w.mul v3, v0, v1\nv.relu v4, v2\nv.red v5, v0\ns.halt");
        let mut m = machine();
        m.write_vreg(0, &[1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0]);
        m.write_vreg(1, &[1.0; 8]);
        m.run(&p).unwrap();
        assert_eq!(m.vreg(2), &[2.0, -1.0, 4.0, -3.0, 6.0, -5.0, 8.0, -7.0]);
        assert_eq!(m.vreg(3), &[1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0]);
        assert_eq!(m.vreg(4), &[2.0, 0.0, 4.0, 0.0, 6.0, 0.0, 8.0, 0.0]);
        assert_eq!(m.vreg(5)[0], -4.0); // sum of v0
    }

    #[test]
    fn load_store_round_trip() {
        let p = asm("s.li s0, 100\nv.ld v1, s0\ns.li s0, 200\nv.st v1, s0\ns.halt");
        let mut m = machine();
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        m.write_mem(MemLevel::Vmem, 100, &data).unwrap();
        m.run(&p).unwrap();
        assert_eq!(&m.vmem()[200..208], &data[..]);
    }

    #[test]
    fn loop_counts_iterations() {
        // s1 = 5 iterations of s2 += 3.
        let p = asm("s.li s1, 5\n\
             s.li s2, 0\n\
             s.li s3, 3\n\
             s.add s2, s2, s3\n\
             s.loopend s1, 1\n\
             s.halt");
        let mut m = machine();
        m.run(&p).unwrap();
        assert_eq!(m.sreg(2), 15);
    }

    #[test]
    fn mxu_matmul_matches_reference_matmul() {
        // 4x4 weights at vmem[0], 3 activation rows at vmem[16],
        // results to vmem[64].
        let d = 4usize;
        let rows = 3usize;
        let p = asm("s.li s12, 0\n\
             s.li s13, 16\n\
             s.li s14, 64\n\
             m.push 0\n\
             m.mm 0, 3\n\
             m.pop 0\n\
             s.halt");
        let mut m = machine();
        let weights: Vec<f32> = (0..d * d).map(|i| (i as f32) * 0.5 - 3.0).collect();
        let acts: Vec<f32> = (0..rows * d).map(|i| (i as f32) * 0.25 + 1.0).collect();
        m.write_mem(MemLevel::Vmem, 0, &weights).unwrap();
        m.write_mem(MemLevel::Vmem, 16, &acts).unwrap();
        let stats = m.run(&p).unwrap();
        assert_eq!(stats.macs, (rows * d * d) as u64);

        // Reference via tpu-numerics' Tensor.
        let a = tpu_numerics::Tensor::from_vec(&[rows, d], acts);
        let w = tpu_numerics::Tensor::from_vec(&[d, d], weights);
        let expect = a.matmul(&w, tpu_numerics::accum::AccumOrder::Sequential);
        let got = m.read_mem(MemLevel::Vmem, 64, rows * d).unwrap();
        for (g, e) in got.iter().zip(expect.data()) {
            assert!((g - e).abs() < 1e-4, "{g} vs {e}");
        }
    }

    #[test]
    fn mxu_requires_weights() {
        let p = asm("m.mm 0, 1\ns.halt");
        let mut m = machine();
        assert_eq!(m.run(&p).unwrap_err(), InterpError::MxuNotLoaded { mxu: 0 });
    }

    #[test]
    fn dma_copies_between_levels() {
        let p = asm("s.li s10, 0\n\
             s.li s11, 50\n\
             d.start q0, hbm->vmem, 32\n\
             s.halt");
        let mut m = machine();
        let data: Vec<f32> = (0..8).map(|i| i as f32 * 1.5).collect();
        m.write_mem(MemLevel::Hbm, 0, &data).unwrap();
        let stats = m.run(&p).unwrap();
        assert_eq!(stats.dma_words, 8);
        assert_eq!(&m.vmem()[50..58], &data[..]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let p = asm("s.li s0, 1000000\nv.ld v1, s0\ns.halt");
        let mut m = machine();
        assert!(matches!(
            m.run(&p).unwrap_err(),
            InterpError::OutOfBounds {
                level: MemLevel::Vmem,
                ..
            }
        ));
    }

    #[test]
    fn infinite_loop_hits_step_budget() {
        // Counter never reaches zero (reloaded each iteration).
        let p = asm("s.li s1, 2\ns.loopend s1, 1\ns.halt");
        let mut m = Interpreter::new(InterpConfig {
            max_steps: 100,
            ..InterpConfig::default()
        });
        // s.li reloads s1=2 each backward jump -> loops forever.
        assert_eq!(m.run(&p).unwrap_err(), InterpError::StepBudgetExceeded);
    }

    #[test]
    fn transpose_reverses_lanes() {
        let p = asm("x.t v0, v1\ns.halt");
        let mut m = machine();
        m.write_vreg(0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        m.run(&p).unwrap();
        assert_eq!(m.vreg(1), &[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn cmem_absent_is_an_error() {
        let p = asm("d.start q0, cmem->vmem, 16\ns.halt");
        let mut m = Interpreter::new(InterpConfig {
            cmem_words: 0,
            ..InterpConfig::default()
        });
        assert_eq!(m.run(&p).unwrap_err(), InterpError::NoCmem);
    }
}
