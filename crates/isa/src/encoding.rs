//! Per-generation binary encodings — deliberately incompatible.
//!
//! Every TPU generation changed its bundle format: different functional
//! units (TPUv1 has no second vector ALU and no transpose slot), different
//! register-file sizes, different opcode numbering, even a different
//! header magic. That is the hardware reality behind Lesson 2: *binary*
//! compatibility across VLIW generations was never on the table, so
//! Google invested in *compiler* compatibility instead.
//!
//! [`encode`] serializes a [`Program`] in its generation's format;
//! [`decode`] refuses anything built for another generation. Experiment
//! E14 and the Lesson-2 integration tests rely on this refusal.

use std::fmt;

use tpu_arch::{Generation, MemLevel};

use crate::bundle::Bundle;
use crate::inst::{DmaDirection, DmaOp, MxuOp, SReg, ScalarOp, VReg, VectorOp, XposeOp};
use crate::program::Program;

/// The binary format parameters of one generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingSpec {
    /// Which generation this spec describes.
    pub generation: Generation,
    /// Header magic (unique per generation).
    pub magic: u32,
    /// Format version byte.
    pub version: u8,
    /// Bits available for a scalar register index.
    pub sreg_bits: u8,
    /// Bits available for a vector register index.
    pub vreg_bits: u8,
    /// Whether the bundle has a second vector ALU slot.
    pub has_vector1: bool,
    /// Whether the bundle has a transpose/permute slot.
    pub has_xpose: bool,
    /// Highest addressable MXU index.
    pub mxu_max: u8,
    /// Whether DMA may address CMEM (TPUv4i/v4 only).
    pub has_cmem: bool,
    /// Offset added to every opcode number (scrambles numbering across
    /// generations so op bytes from one chip are meaningless on another).
    pub opcode_base: u8,
}

impl EncodingSpec {
    /// The encoding spec for a generation.
    pub fn for_generation(generation: Generation) -> EncodingSpec {
        match generation {
            Generation::TpuV1 => EncodingSpec {
                generation,
                magic: 0x5450_5531, // "TPU1"
                version: 1,
                sreg_bits: 4,
                vreg_bits: 4,
                has_vector1: false,
                has_xpose: false,
                mxu_max: 0,
                has_cmem: false,
                opcode_base: 0x10,
            },
            Generation::TpuV2 => EncodingSpec {
                generation,
                magic: 0x5450_5532, // "TPU2"
                version: 2,
                sreg_bits: 5,
                vreg_bits: 6,
                has_vector1: true,
                has_xpose: true,
                mxu_max: 0,
                has_cmem: false,
                opcode_base: 0x20,
            },
            Generation::TpuV3 => EncodingSpec {
                generation,
                magic: 0x5450_5533, // "TPU3"
                version: 3,
                sreg_bits: 5,
                vreg_bits: 6,
                has_vector1: true,
                has_xpose: true,
                mxu_max: 1,
                has_cmem: false,
                opcode_base: 0x30,
            },
            Generation::TpuV4i => EncodingSpec {
                generation,
                magic: 0x5450_3469, // "TP4i"
                version: 4,
                sreg_bits: 5,
                vreg_bits: 7,
                has_vector1: true,
                has_xpose: true,
                mxu_max: 3,
                has_cmem: true,
                opcode_base: 0x40,
            },
            Generation::TpuV4 => EncodingSpec {
                generation,
                magic: 0x5450_5534, // "TPU4"
                version: 4,
                sreg_bits: 5,
                vreg_bits: 7,
                has_vector1: true,
                has_xpose: true,
                mxu_max: 3,
                has_cmem: true,
                opcode_base: 0x50,
            },
            Generation::GpuT4Like => EncodingSpec {
                generation,
                magic: 0x4750_5534, // "GPU4"
                version: 1,
                sreg_bits: 6,
                vreg_bits: 6,
                has_vector1: true,
                has_xpose: false,
                mxu_max: 1,
                has_cmem: false,
                opcode_base: 0x60,
            },
        }
    }

    /// Highest encodable scalar register index.
    pub fn sreg_max(&self) -> u8 {
        ((1u16 << self.sreg_bits) - 1) as u8
    }

    /// Highest encodable vector register index.
    pub fn vreg_max(&self) -> u8 {
        ((1u16 << self.vreg_bits) - 1) as u8
    }
}

/// Error produced while encoding a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The bundle uses a slot this generation's format lacks.
    SlotUnsupported {
        /// Generation being encoded for.
        generation: Generation,
        /// Human name of the slot, e.g. `"vector1"`.
        slot: &'static str,
    },
    /// A register index exceeds the generation's register file.
    RegisterOutOfRange {
        /// `"sreg"` or `"vreg"`.
        kind: &'static str,
        /// The offending index.
        index: u8,
        /// Largest legal index.
        max: u8,
    },
    /// An MXU index exceeds the generation's MXU count.
    MxuOutOfRange {
        /// The offending index.
        index: u8,
        /// Largest legal index.
        max: u8,
    },
    /// A DMA transfer addresses CMEM on a chip without CMEM.
    CmemUnsupported {
        /// Generation being encoded for.
        generation: Generation,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::SlotUnsupported { generation, slot } => {
                write!(f, "{generation} bundles have no `{slot}` slot")
            }
            EncodeError::RegisterOutOfRange { kind, index, max } => {
                write!(f, "{kind} index {index} exceeds maximum {max}")
            }
            EncodeError::MxuOutOfRange { index, max } => {
                write!(f, "mxu index {index} exceeds maximum {max}")
            }
            EncodeError::CmemUnsupported { generation } => {
                write!(f, "{generation} has no CMEM to DMA to/from")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error produced while decoding bytes into a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended prematurely.
    Truncated,
    /// The header magic does not match the expected generation — this is
    /// the "TPUv3 binary on TPUv4i" failure mode.
    BadMagic {
        /// Magic the expected generation uses.
        expected: u32,
        /// Magic found in the stream.
        found: u32,
    },
    /// The version byte does not match.
    BadVersion {
        /// Expected version.
        expected: u8,
        /// Found version.
        found: u8,
    },
    /// An opcode byte is not valid for this generation.
    UnknownOpcode {
        /// Slot in which the byte appeared.
        slot: &'static str,
        /// The offending byte.
        byte: u8,
    },
    /// The payload checksum does not match.
    BadChecksum,
    /// Bytes remained after the declared bundle count.
    TrailingBytes {
        /// Number of unexpected bytes.
        count: usize,
    },
    /// A decoded field is invalid (e.g. memory-level nibble out of range).
    BadField {
        /// Human name of the field.
        field: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "byte stream ended prematurely"),
            DecodeError::BadMagic { expected, found } => write!(
                f,
                "magic 0x{found:08x} is not this generation's 0x{expected:08x} \
                 (binary built for a different chip)"
            ),
            DecodeError::BadVersion { expected, found } => {
                write!(f, "format version {found} differs from expected {expected}")
            }
            DecodeError::UnknownOpcode { slot, byte } => {
                write!(f, "byte 0x{byte:02x} is not a valid {slot} opcode here")
            }
            DecodeError::BadChecksum => write!(f, "payload checksum mismatch"),
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} unexpected trailing bytes")
            }
            DecodeError::BadField { field } => write!(f, "invalid field `{field}`"),
        }
    }
}

impl std::error::Error for DecodeError {}

// Slot-presence flags in the per-bundle header byte.
const F_SCALAR: u8 = 1 << 0;
const F_VECTOR0: u8 = 1 << 1;
const F_VECTOR1: u8 = 1 << 2;
const F_MXU: u8 = 1 << 3;
const F_XPOSE: u8 = 1 << 4;
const F_DMA: u8 = 1 << 5;

/// Serializes a program in its generation's binary format.
///
/// # Errors
///
/// Returns an [`EncodeError`] if the program uses features the
/// generation's format cannot express.
pub fn encode(program: &Program) -> Result<Vec<u8>, EncodeError> {
    let spec = EncodingSpec::for_generation(program.generation());
    let mut payload = Vec::new();
    for bundle in program.bundles() {
        encode_bundle(bundle, &spec, &mut payload)?;
    }
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&spec.magic.to_le_bytes());
    out.push(spec.version);
    out.extend_from_slice(&(program.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    Ok(out)
}

/// Deserializes bytes as a program for `generation`.
///
/// # Errors
///
/// Returns a [`DecodeError`]; in particular [`DecodeError::BadMagic`]
/// when the bytes were encoded for a different generation.
pub fn decode(bytes: &[u8], generation: Generation) -> Result<Program, DecodeError> {
    let spec = EncodingSpec::for_generation(generation);
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.u32()?;
    if magic != spec.magic {
        return Err(DecodeError::BadMagic {
            expected: spec.magic,
            found: magic,
        });
    }
    let version = r.u8()?;
    if version != spec.version {
        return Err(DecodeError::BadVersion {
            expected: spec.version,
            found: version,
        });
    }
    let count = r.u32()? as usize;
    let payload_start = r.pos;
    let mut bundles = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        bundles.push(decode_bundle(&mut r, &spec)?);
    }
    let payload_end = r.pos;
    let checksum = r.u32()?;
    if checksum != fnv1a(&bytes[payload_start..payload_end]) {
        return Err(DecodeError::BadChecksum);
    }
    if r.pos != bytes.len() {
        return Err(DecodeError::TrailingBytes {
            count: bytes.len() - r.pos,
        });
    }
    let mut p = Program::new(generation);
    for b in bundles {
        p.push(b);
    }
    Ok(p)
}

/// Where the encoder writes bytes: a buffer, or nowhere when only its
/// legality checks are wanted.
trait Sink {
    fn push(&mut self, byte: u8);
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// Drops every byte: the encoder runs its checks and writes nothing.
struct Discard;

impl Sink for Discard {
    fn push(&mut self, _: u8) {}

    fn extend_from_slice(&mut self, _: &[u8]) {}
}

/// Checks one bundle's encodability, running the encoder's own checks
/// without writing its bytes (used by [`Program::verify`]).
pub(crate) fn check_bundle(b: &Bundle, spec: &EncodingSpec) -> Result<(), EncodeError> {
    encode_bundle(b, spec, &mut Discard)
}

fn encode_bundle(b: &Bundle, spec: &EncodingSpec, out: &mut impl Sink) -> Result<(), EncodeError> {
    let mut flags = 0u8;
    if b.scalar != ScalarOp::Nop {
        flags |= F_SCALAR;
    }
    if b.vector0 != VectorOp::Nop {
        flags |= F_VECTOR0;
    }
    if b.vector1 != VectorOp::Nop {
        if !spec.has_vector1 {
            return Err(EncodeError::SlotUnsupported {
                generation: spec.generation,
                slot: "vector1",
            });
        }
        flags |= F_VECTOR1;
    }
    if b.mxu != MxuOp::Nop {
        flags |= F_MXU;
    }
    if b.xpose != XposeOp::Nop {
        if !spec.has_xpose {
            return Err(EncodeError::SlotUnsupported {
                generation: spec.generation,
                slot: "xpose",
            });
        }
        flags |= F_XPOSE;
    }
    if b.dma != DmaOp::Nop {
        flags |= F_DMA;
    }
    out.push(flags);
    if flags & F_SCALAR != 0 {
        encode_scalar(&b.scalar, spec, out)?;
    }
    if flags & F_VECTOR0 != 0 {
        encode_vector(&b.vector0, spec, out)?;
    }
    if flags & F_VECTOR1 != 0 {
        encode_vector(&b.vector1, spec, out)?;
    }
    if flags & F_MXU != 0 {
        encode_mxu(&b.mxu, spec, out)?;
    }
    if flags & F_XPOSE != 0 {
        encode_xpose(&b.xpose, spec, out)?;
    }
    if flags & F_DMA != 0 {
        encode_dma(&b.dma, spec, out)?;
    }
    Ok(())
}

fn decode_bundle(r: &mut Reader<'_>, spec: &EncodingSpec) -> Result<Bundle, DecodeError> {
    let flags = r.u8()?;
    let mut b = Bundle::new();
    if flags & F_SCALAR != 0 {
        b.scalar = decode_scalar(r, spec)?;
    }
    if flags & F_VECTOR0 != 0 {
        b.vector0 = decode_vector(r, spec)?;
    }
    if flags & F_VECTOR1 != 0 {
        if !spec.has_vector1 {
            return Err(DecodeError::BadField { field: "vector1" });
        }
        b.vector1 = decode_vector(r, spec)?;
    }
    if flags & F_MXU != 0 {
        b.mxu = decode_mxu(r, spec)?;
    }
    if flags & F_XPOSE != 0 {
        if !spec.has_xpose {
            return Err(DecodeError::BadField { field: "xpose" });
        }
        b.xpose = decode_xpose(r, spec)?;
    }
    if flags & F_DMA != 0 {
        b.dma = decode_dma(r, spec)?;
    }
    Ok(b)
}

fn check_sreg(r: SReg, spec: &EncodingSpec) -> Result<u8, EncodeError> {
    if r.0 > spec.sreg_max() {
        Err(EncodeError::RegisterOutOfRange {
            kind: "sreg",
            index: r.0,
            max: spec.sreg_max(),
        })
    } else {
        Ok(r.0)
    }
}

fn check_vreg(r: VReg, spec: &EncodingSpec) -> Result<u8, EncodeError> {
    if r.0 > spec.vreg_max() {
        Err(EncodeError::RegisterOutOfRange {
            kind: "vreg",
            index: r.0,
            max: spec.vreg_max(),
        })
    } else {
        Ok(r.0)
    }
}

fn encode_scalar(
    op: &ScalarOp,
    spec: &EncodingSpec,
    out: &mut impl Sink,
) -> Result<(), EncodeError> {
    let base = spec.opcode_base;
    match *op {
        ScalarOp::Nop => out.push(base),
        ScalarOp::LoadImm { dst, imm } => {
            out.push(base + 1);
            out.push(check_sreg(dst, spec)?);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        ScalarOp::Add { dst, a, b } => {
            out.push(base + 2);
            out.push(check_sreg(dst, spec)?);
            out.push(check_sreg(a, spec)?);
            out.push(check_sreg(b, spec)?);
        }
        ScalarOp::Sub { dst, a, b } => {
            out.push(base + 3);
            out.push(check_sreg(dst, spec)?);
            out.push(check_sreg(a, spec)?);
            out.push(check_sreg(b, spec)?);
        }
        ScalarOp::Mul { dst, a, b } => {
            out.push(base + 4);
            out.push(check_sreg(dst, spec)?);
            out.push(check_sreg(a, spec)?);
            out.push(check_sreg(b, spec)?);
        }
        ScalarOp::LoopEnd { counter, offset } => {
            out.push(base + 5);
            out.push(check_sreg(counter, spec)?);
            out.extend_from_slice(&offset.to_le_bytes());
        }
        ScalarOp::SyncDma { queue } => {
            out.push(base + 6);
            out.push(queue);
        }
        ScalarOp::Halt => out.push(base + 7),
    }
    Ok(())
}

fn decode_scalar(r: &mut Reader<'_>, spec: &EncodingSpec) -> Result<ScalarOp, DecodeError> {
    let byte = r.u8()?;
    let Some(code) = byte.checked_sub(spec.opcode_base) else {
        return Err(DecodeError::UnknownOpcode {
            slot: "scalar",
            byte,
        });
    };
    Ok(match code {
        0 => ScalarOp::Nop,
        1 => ScalarOp::LoadImm {
            dst: SReg(r.u8()?),
            imm: r.i32()?,
        },
        2 => ScalarOp::Add {
            dst: SReg(r.u8()?),
            a: SReg(r.u8()?),
            b: SReg(r.u8()?),
        },
        3 => ScalarOp::Sub {
            dst: SReg(r.u8()?),
            a: SReg(r.u8()?),
            b: SReg(r.u8()?),
        },
        4 => ScalarOp::Mul {
            dst: SReg(r.u8()?),
            a: SReg(r.u8()?),
            b: SReg(r.u8()?),
        },
        5 => ScalarOp::LoopEnd {
            counter: SReg(r.u8()?),
            offset: r.u16()?,
        },
        6 => ScalarOp::SyncDma { queue: r.u8()? },
        7 => ScalarOp::Halt,
        _ => {
            return Err(DecodeError::UnknownOpcode {
                slot: "scalar",
                byte,
            })
        }
    })
}

fn encode_vector(
    op: &VectorOp,
    spec: &EncodingSpec,
    out: &mut impl Sink,
) -> Result<(), EncodeError> {
    let base = spec.opcode_base;
    match *op {
        VectorOp::Nop => out.push(base),
        VectorOp::VAdd { dst, a, b } => {
            out.push(base + 1);
            out.push(check_vreg(dst, spec)?);
            out.push(check_vreg(a, spec)?);
            out.push(check_vreg(b, spec)?);
        }
        VectorOp::VMul { dst, a, b } => {
            out.push(base + 2);
            out.push(check_vreg(dst, spec)?);
            out.push(check_vreg(a, spec)?);
            out.push(check_vreg(b, spec)?);
        }
        VectorOp::VMax { dst, a, b } => {
            out.push(base + 3);
            out.push(check_vreg(dst, spec)?);
            out.push(check_vreg(a, spec)?);
            out.push(check_vreg(b, spec)?);
        }
        VectorOp::VRelu { dst, a } => {
            out.push(base + 4);
            out.push(check_vreg(dst, spec)?);
            out.push(check_vreg(a, spec)?);
        }
        VectorOp::VXf { dst, a } => {
            out.push(base + 5);
            out.push(check_vreg(dst, spec)?);
            out.push(check_vreg(a, spec)?);
        }
        VectorOp::VLoad { dst, addr } => {
            out.push(base + 6);
            out.push(check_vreg(dst, spec)?);
            out.push(check_sreg(addr, spec)?);
        }
        VectorOp::VStore { src, addr } => {
            out.push(base + 7);
            out.push(check_vreg(src, spec)?);
            out.push(check_sreg(addr, spec)?);
        }
        VectorOp::VReduce { dst, a } => {
            out.push(base + 8);
            out.push(check_vreg(dst, spec)?);
            out.push(check_vreg(a, spec)?);
        }
    }
    Ok(())
}

fn decode_vector(r: &mut Reader<'_>, spec: &EncodingSpec) -> Result<VectorOp, DecodeError> {
    let byte = r.u8()?;
    let Some(code) = byte.checked_sub(spec.opcode_base) else {
        return Err(DecodeError::UnknownOpcode {
            slot: "vector",
            byte,
        });
    };
    Ok(match code {
        0 => VectorOp::Nop,
        1 => VectorOp::VAdd {
            dst: VReg(r.u8()?),
            a: VReg(r.u8()?),
            b: VReg(r.u8()?),
        },
        2 => VectorOp::VMul {
            dst: VReg(r.u8()?),
            a: VReg(r.u8()?),
            b: VReg(r.u8()?),
        },
        3 => VectorOp::VMax {
            dst: VReg(r.u8()?),
            a: VReg(r.u8()?),
            b: VReg(r.u8()?),
        },
        4 => VectorOp::VRelu {
            dst: VReg(r.u8()?),
            a: VReg(r.u8()?),
        },
        5 => VectorOp::VXf {
            dst: VReg(r.u8()?),
            a: VReg(r.u8()?),
        },
        6 => VectorOp::VLoad {
            dst: VReg(r.u8()?),
            addr: SReg(r.u8()?),
        },
        7 => VectorOp::VStore {
            src: VReg(r.u8()?),
            addr: SReg(r.u8()?),
        },
        8 => VectorOp::VReduce {
            dst: VReg(r.u8()?),
            a: VReg(r.u8()?),
        },
        _ => {
            return Err(DecodeError::UnknownOpcode {
                slot: "vector",
                byte,
            })
        }
    })
}

fn encode_mxu(op: &MxuOp, spec: &EncodingSpec, out: &mut impl Sink) -> Result<(), EncodeError> {
    let base = spec.opcode_base;
    let check = |mxu: u8| -> Result<u8, EncodeError> {
        if mxu > spec.mxu_max {
            Err(EncodeError::MxuOutOfRange {
                index: mxu,
                max: spec.mxu_max,
            })
        } else {
            Ok(mxu)
        }
    };
    match *op {
        MxuOp::Nop => out.push(base),
        MxuOp::PushWeights { mxu } => {
            out.push(base + 1);
            out.push(check(mxu)?);
        }
        MxuOp::MatMul { mxu, rows } => {
            out.push(base + 2);
            out.push(check(mxu)?);
            out.extend_from_slice(&rows.to_le_bytes());
        }
        MxuOp::PopResults { mxu } => {
            out.push(base + 3);
            out.push(check(mxu)?);
        }
    }
    Ok(())
}

fn decode_mxu(r: &mut Reader<'_>, spec: &EncodingSpec) -> Result<MxuOp, DecodeError> {
    let byte = r.u8()?;
    let Some(code) = byte.checked_sub(spec.opcode_base) else {
        return Err(DecodeError::UnknownOpcode { slot: "mxu", byte });
    };
    Ok(match code {
        0 => MxuOp::Nop,
        1 => MxuOp::PushWeights { mxu: r.u8()? },
        2 => MxuOp::MatMul {
            mxu: r.u8()?,
            rows: r.u16()?,
        },
        3 => MxuOp::PopResults { mxu: r.u8()? },
        _ => return Err(DecodeError::UnknownOpcode { slot: "mxu", byte }),
    })
}

fn encode_xpose(op: &XposeOp, spec: &EncodingSpec, out: &mut impl Sink) -> Result<(), EncodeError> {
    let base = spec.opcode_base;
    match *op {
        XposeOp::Nop => out.push(base),
        XposeOp::Transpose { src, dst } => {
            out.push(base + 1);
            out.push(check_vreg(src, spec)?);
            out.push(check_vreg(dst, spec)?);
        }
        XposeOp::Permute { src, dst } => {
            out.push(base + 2);
            out.push(check_vreg(src, spec)?);
            out.push(check_vreg(dst, spec)?);
        }
    }
    Ok(())
}

fn decode_xpose(r: &mut Reader<'_>, spec: &EncodingSpec) -> Result<XposeOp, DecodeError> {
    let byte = r.u8()?;
    let Some(code) = byte.checked_sub(spec.opcode_base) else {
        return Err(DecodeError::UnknownOpcode {
            slot: "xpose",
            byte,
        });
    };
    Ok(match code {
        0 => XposeOp::Nop,
        1 => XposeOp::Transpose {
            src: VReg(r.u8()?),
            dst: VReg(r.u8()?),
        },
        2 => XposeOp::Permute {
            src: VReg(r.u8()?),
            dst: VReg(r.u8()?),
        },
        _ => {
            return Err(DecodeError::UnknownOpcode {
                slot: "xpose",
                byte,
            })
        }
    })
}

fn mem_level_code(level: MemLevel) -> u8 {
    match level {
        MemLevel::Hbm => 0,
        MemLevel::Cmem => 1,
        MemLevel::Vmem => 2,
        MemLevel::Smem => 3,
    }
}

fn mem_level_from(code: u8) -> Option<MemLevel> {
    match code {
        0 => Some(MemLevel::Hbm),
        1 => Some(MemLevel::Cmem),
        2 => Some(MemLevel::Vmem),
        3 => Some(MemLevel::Smem),
        _ => None,
    }
}

fn encode_dma(op: &DmaOp, spec: &EncodingSpec, out: &mut impl Sink) -> Result<(), EncodeError> {
    let base = spec.opcode_base;
    match *op {
        DmaOp::Nop => out.push(base),
        DmaOp::Start { queue, dir, bytes } => {
            if !spec.has_cmem && (dir.src == MemLevel::Cmem || dir.dst == MemLevel::Cmem) {
                return Err(EncodeError::CmemUnsupported {
                    generation: spec.generation,
                });
            }
            out.push(base + 1);
            out.push(queue);
            out.push((mem_level_code(dir.src) << 4) | mem_level_code(dir.dst));
            out.extend_from_slice(&bytes.to_le_bytes());
        }
    }
    Ok(())
}

fn decode_dma(r: &mut Reader<'_>, spec: &EncodingSpec) -> Result<DmaOp, DecodeError> {
    let byte = r.u8()?;
    let Some(code) = byte.checked_sub(spec.opcode_base) else {
        return Err(DecodeError::UnknownOpcode { slot: "dma", byte });
    };
    Ok(match code {
        0 => DmaOp::Nop,
        1 => {
            let queue = r.u8()?;
            let levels = r.u8()?;
            let src =
                mem_level_from(levels >> 4).ok_or(DecodeError::BadField { field: "dma.src" })?;
            let dst =
                mem_level_from(levels & 0xF).ok_or(DecodeError::BadField { field: "dma.dst" })?;
            if !spec.has_cmem && (src == MemLevel::Cmem || dst == MemLevel::Cmem) {
                return Err(DecodeError::BadField { field: "dma.cmem" });
            }
            DmaOp::Start {
                queue,
                dir: DmaDirection::new(src, dst),
                bytes: r.u32()?,
            }
        }
        _ => return Err(DecodeError::UnknownOpcode { slot: "dma", byte }),
    })
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(self.u32()? as i32)
    }
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash = 0x811C_9DC5u32;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program(generation: Generation) -> Program {
        let mut p = Program::new(generation);
        p.push(
            Bundle::new()
                .scalar(ScalarOp::LoadImm {
                    dst: SReg(1),
                    imm: -7,
                })
                .dma(DmaOp::Start {
                    queue: 0,
                    dir: DmaDirection::new(MemLevel::Hbm, MemLevel::Vmem),
                    bytes: 4096,
                }),
        );
        p.push(
            Bundle::new()
                .vector(VectorOp::VAdd {
                    dst: VReg(2),
                    a: VReg(0),
                    b: VReg(1),
                })
                .mxu(MxuOp::MatMul { mxu: 0, rows: 128 }),
        );
        p.push(Bundle::new().scalar(ScalarOp::Halt));
        p
    }

    #[test]
    fn round_trip_every_generation() {
        for generation in [
            Generation::TpuV1,
            Generation::TpuV2,
            Generation::TpuV3,
            Generation::TpuV4i,
            Generation::TpuV4,
            Generation::GpuT4Like,
        ] {
            let p = sample_program(generation);
            let bytes = encode(&p).unwrap();
            let q = decode(&bytes, generation).unwrap();
            assert_eq!(p, q, "round trip failed for {generation}");
        }
    }

    #[test]
    fn cross_generation_decode_fails_with_bad_magic() {
        // The Lesson-2 demonstration: a TPUv3 binary is not a TPUv4i one.
        let v3 = encode(&sample_program(Generation::TpuV3)).unwrap();
        let err = decode(&v3, Generation::TpuV4i).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));
        // And in every other direction too.
        let v4i = encode(&sample_program(Generation::TpuV4i)).unwrap();
        assert!(decode(&v4i, Generation::TpuV1).is_err());
        assert!(decode(&v4i, Generation::TpuV2).is_err());
        assert!(decode(&v4i, Generation::GpuT4Like).is_err());
    }

    #[test]
    fn forged_header_still_fails_on_opcodes() {
        // Even if someone patches the header, the opcode numbering is
        // generation-specific: the body cannot be misread as valid.
        let v3 = encode(&sample_program(Generation::TpuV3)).unwrap();
        let v4i_spec = EncodingSpec::for_generation(Generation::TpuV4i);
        let mut forged = v3;
        forged[..4].copy_from_slice(&v4i_spec.magic.to_le_bytes());
        forged[4] = v4i_spec.version;
        let err = decode(&forged, Generation::TpuV4i).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::UnknownOpcode { .. }
                    | DecodeError::BadChecksum
                    | DecodeError::Truncated
                    | DecodeError::BadField { .. }
                    | DecodeError::TrailingBytes { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn v1_lacks_vector1_and_xpose_slots() {
        let mut p = Program::new(Generation::TpuV1);
        p.push(Bundle::new().vector1(VectorOp::VRelu {
            dst: VReg(0),
            a: VReg(0),
        }));
        assert_eq!(
            encode(&p).unwrap_err(),
            EncodeError::SlotUnsupported {
                generation: Generation::TpuV1,
                slot: "vector1"
            }
        );
        let mut p2 = Program::new(Generation::TpuV1);
        p2.push(Bundle::new().xpose(XposeOp::Transpose {
            src: VReg(0),
            dst: VReg(1),
        }));
        assert!(matches!(
            encode(&p2).unwrap_err(),
            EncodeError::SlotUnsupported { slot: "xpose", .. }
        ));
    }

    #[test]
    fn register_files_differ_across_generations() {
        // v64 is legal on TPUv4i (7 vreg bits) but not on TPUv3 (6 bits).
        let op = VectorOp::VRelu {
            dst: VReg(64),
            a: VReg(64),
        };
        let mut v4i = Program::new(Generation::TpuV4i);
        v4i.push(Bundle::new().vector(op));
        assert!(encode(&v4i).is_ok());
        let mut v3 = Program::new(Generation::TpuV3);
        v3.push(Bundle::new().vector(op));
        assert!(matches!(
            encode(&v3).unwrap_err(),
            EncodeError::RegisterOutOfRange { kind: "vreg", .. }
        ));
    }

    #[test]
    fn mxu_index_range_tracks_generation() {
        let op = MxuOp::MatMul { mxu: 3, rows: 8 };
        let mut v4i = Program::new(Generation::TpuV4i);
        v4i.push(Bundle::new().mxu(op));
        assert!(encode(&v4i).is_ok());
        let mut v2 = Program::new(Generation::TpuV2);
        v2.push(Bundle::new().mxu(op));
        assert!(matches!(
            encode(&v2).unwrap_err(),
            EncodeError::MxuOutOfRange { index: 3, max: 0 }
        ));
    }

    #[test]
    fn cmem_dma_only_on_cmem_chips() {
        let op = DmaOp::Start {
            queue: 0,
            dir: DmaDirection::new(MemLevel::Hbm, MemLevel::Cmem),
            bytes: 1024,
        };
        let mut v4i = Program::new(Generation::TpuV4i);
        v4i.push(Bundle::new().dma(op));
        assert!(encode(&v4i).is_ok());
        let mut v3 = Program::new(Generation::TpuV3);
        v3.push(Bundle::new().dma(op));
        assert_eq!(
            encode(&v3).unwrap_err(),
            EncodeError::CmemUnsupported {
                generation: Generation::TpuV3
            }
        );
    }

    #[test]
    fn corruption_is_detected() {
        let p = sample_program(Generation::TpuV4i);
        let good = encode(&p).unwrap();
        // Flip a payload byte: checksum (or opcode decoding) must object.
        let mut bad = good.clone();
        let mid = good.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(decode(&bad, Generation::TpuV4i).is_err());
        // Truncation must be detected.
        assert!(matches!(
            decode(&good[..good.len() - 3], Generation::TpuV4i).unwrap_err(),
            DecodeError::Truncated | DecodeError::BadChecksum
        ));
        // Trailing garbage must be detected.
        let mut long = good;
        long.push(0xAB);
        assert!(decode(&long, Generation::TpuV4i).is_err());
    }

    #[test]
    fn error_displays_are_informative() {
        let e = DecodeError::BadMagic {
            expected: 0x5450_3469,
            found: 0x5450_5533,
        };
        let s = format!("{e}");
        assert!(s.contains("different chip"));
        assert!(!format!(
            "{}",
            EncodeError::CmemUnsupported {
                generation: Generation::TpuV1
            }
        )
        .is_empty());
    }

    #[test]
    fn empty_program_round_trips() {
        let p = Program::new(Generation::TpuV2);
        let bytes = encode(&p).unwrap();
        assert_eq!(decode(&bytes, Generation::TpuV2).unwrap(), p);
    }
}
