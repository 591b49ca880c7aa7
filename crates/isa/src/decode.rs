//! Instruction decoding: machine words into canonical [`Inst`] values.
//! [`decode`] sorts a word by its length bits and hands a 32-bit word to
//! the decoder generated from the shape table (`shapes.rs`). A compressed
//! one is a single load: the form table in [`crate::rvc`] generates
//! [`decode_compressed`], a `const fn`, and the compiler evaluates it over
//! every compressed halfword into a static table, so decoding a program's
//! mix of RVC forms takes no branch on the halfword's bits. This module
//! holds the sorting and the result and error types.
//!
//! Anything outside the modelled subset decodes to
//! [`DecodeError::Unrecognized`]; the emulator turns that into an
//! illegal-instruction trap, which is both the FAM migration trigger and the
//! trigger for Chimera's lazy rewriting of instructions the static
//! disassembly missed (§4.1 of the paper). [`DecodeError::ReservedLong`]
//! flags the `xxx11111`/`x1111111` prefixes that RISC-V reserves for ≥48-bit
//! encodings — the prefix Chimera's compressed-safe SMILE placement relies
//! on for the `P2` interior jump target.

use crate::inst::Inst;
pub use crate::rvc::decode_compressed;
use crate::{rvc, shapes};
use core::fmt;

/// A successfully decoded instruction plus its encoded length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The canonical instruction.
    pub inst: Inst,
    /// Encoded length: 2 (compressed) or 4.
    pub len: u8,
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bits do not encode an instruction in the modelled subset. The
    /// payload is the raw word (low 16 bits significant for compressed).
    Unrecognized(u32),
    /// The bits carry a reserved longer-than-32-bit encoding prefix
    /// (`bits[4:0] = 11111`); always an illegal instruction on RV64GC(V)
    /// hardware of today.
    ReservedLong(u32),
}

impl DecodeError {
    /// The raw bits that failed to decode.
    pub fn raw(&self) -> u32 {
        match *self {
            DecodeError::Unrecognized(w) | DecodeError::ReservedLong(w) => w,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Unrecognized(w) => write!(f, "unrecognized instruction {w:#010x}"),
            DecodeError::ReservedLong(w) => {
                write!(f, "reserved long-encoding prefix {w:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The byte length implied by an encoding's length bits, without decoding:
/// 2 if `bits[1:0] != 11`, else 4.
///
/// Reserved ≥48-bit prefixes also report 4; they never execute (the fetch
/// traps), so the value only guides linear disassembly skips.
pub fn encoded_len(halfword: u16) -> u8 {
    if halfword & 0b11 == 0b11 {
        4
    } else {
        2
    }
}

/// Decodes a machine word. `word` carries the full 32 bits at the fetch
/// address; for a compressed instruction only the low 16 bits are used.
pub fn decode(word: u32) -> Result<Decoded, DecodeError> {
    if word & 0b11 != 0b11 {
        return match rvc::expansion(word as u16) {
            Some(inst) => Ok(Decoded { inst, len: 2 }),
            None => Err(DecodeError::Unrecognized(word & 0xffff)),
        };
    }
    if word & 0b11111 == 0b11111 {
        // 48-bit+ reserved prefix (covers both `011111` 48-bit and
        // `x1111111` 64-bit+ spaces for our purposes).
        return Err(DecodeError::ReservedLong(word));
    }
    shapes::decode(word).map(|inst| Decoded { inst, len: 4 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, encode_compressed};
    use crate::inst::*;
    use crate::kinds::*;
    use crate::reg::XReg;

    #[test]
    fn decode_known_words() {
        assert_eq!(
            decode(0x0000_0013).unwrap().inst,
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::ZERO,
                rs1: XReg::ZERO,
                imm: 0
            }
        );
        assert_eq!(decode(0x0000_0073).unwrap().inst, Inst::Ecall);
        assert_eq!(decode(0x0010_0073).unwrap().inst, Inst::Ebreak);
        // ret = jalr zero, 0(ra)
        assert_eq!(
            decode(0x0000_8067).unwrap().inst,
            Inst::Jalr {
                rd: XReg::ZERO,
                rs1: XReg::RA,
                offset: 0
            }
        );
    }

    #[test]
    fn decode_known_compressed() {
        let d = decode(0x0001).unwrap();
        assert_eq!(d.len, 2);
        assert_eq!(
            d.inst,
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::ZERO,
                rs1: XReg::ZERO,
                imm: 0
            }
        );
        // c.mv a0, a1
        assert_eq!(
            decode(0x852e).unwrap().inst,
            Inst::Op {
                kind: OpKind::Add,
                rd: XReg::A0,
                rs1: XReg::ZERO,
                rs2: XReg::A1
            }
        );
        // c.jr ra
        assert_eq!(
            decode(0x8082).unwrap().inst,
            Inst::Jalr {
                rd: XReg::ZERO,
                rs1: XReg::RA,
                offset: 0
            }
        );
        // c.ebreak
        assert_eq!(decode(0x9002).unwrap().inst, Inst::Ebreak);
    }

    #[test]
    fn all_zero_halfword_is_illegal() {
        assert!(decode(0x0000).is_err());
    }

    #[test]
    fn reserved_long_prefix_detected() {
        assert!(matches!(
            decode(0x0000_001f),
            Err(DecodeError::ReservedLong(_))
        ));
        assert!(matches!(
            decode(0xffff_ffff),
            Err(DecodeError::ReservedLong(_))
        ));
    }

    #[test]
    fn rvc_reserved_row_is_illegal() {
        // Quadrant 0, funct3=100 is reserved in RVC.
        let w: u16 = 0b100 << 13;
        assert!(decode_compressed(w).is_err());
    }

    #[test]
    fn encode_decode_agree_on_samples() {
        use crate::reg::{FReg, VReg};
        let samples = vec![
            Inst::Lui {
                rd: XReg::A0,
                imm20: -1,
            },
            Inst::Auipc {
                rd: XReg::GP,
                imm20: 0x7ffff,
            },
            Inst::Jal {
                rd: XReg::RA,
                offset: -2048,
            },
            Inst::Branch {
                kind: BranchKind::Bgeu,
                rs1: XReg::S3,
                rs2: XReg::T4,
                offset: 4094,
            },
            Inst::Op {
                kind: OpKind::Sh3add,
                rd: XReg::T0,
                rs1: XReg::T1,
                rs2: XReg::T2,
            },
            Inst::Unary {
                kind: UnaryKind::Cpop,
                rd: XReg::A3,
                rs1: XReg::A4,
            },
            Inst::Unary {
                kind: UnaryKind::Rev8,
                rd: XReg::A3,
                rs1: XReg::A4,
            },
            Inst::Unary {
                kind: UnaryKind::ZextH,
                rd: XReg::A3,
                rs1: XReg::A4,
            },
            Inst::FMa {
                kind: FMaKind::Nmadd,
                width: FpWidth::D,
                frd: FReg::of(4),
                frs1: FReg::of(5),
                frs2: FReg::of(6),
                frs3: FReg::of(7),
            },
            Inst::FCvtToInt {
                width: FpWidth::D,
                to: IntWidth::L,
                signed: false,
                rd: XReg::A0,
                frs1: FReg::of(1),
            },
            Inst::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::A0,
                vtype: VType {
                    sew: Eew::E32,
                    lmul: 2,
                    ta: true,
                    ma: false,
                },
            },
            Inst::VArith {
                op: VArithOp::Vfmacc,
                vd: VReg::of(8),
                vs2: VReg::of(16),
                src: VSrc::V(VReg::of(24)),
            },
            Inst::VArith {
                op: VArithOp::Vmv,
                vd: VReg::of(3),
                vs2: VReg::of(0),
                src: VSrc::I(-5),
            },
            Inst::VMvXS {
                rd: XReg::A0,
                vs2: VReg::of(9),
            },
        ];
        for inst in samples {
            let w = encode(&inst).unwrap();
            let d = decode(w).unwrap();
            assert_eq!(d.inst, inst, "word {w:#010x}");
            assert_eq!(d.len, 4);
        }
    }

    #[test]
    fn compressed_roundtrip_samples() {
        let samples = vec![
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::S0,
                rs1: XReg::S0,
                imm: -16,
            },
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::SP,
                rs1: XReg::SP,
                imm: -64,
            },
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::A4,
                rs1: XReg::SP,
                imm: 32,
            },
            Inst::Load {
                kind: LoadKind::Ld,
                rd: XReg::A0,
                rs1: XReg::SP,
                offset: 24,
            },
            Inst::Load {
                kind: LoadKind::Lw,
                rd: XReg::A2,
                rs1: XReg::A3,
                offset: 64,
            },
            Inst::Store {
                kind: StoreKind::Sd,
                rs1: XReg::SP,
                rs2: XReg::S1,
                offset: 40,
            },
            Inst::Store {
                kind: StoreKind::Sw,
                rs1: XReg::A5,
                rs2: XReg::A4,
                offset: 4,
            },
            Inst::Jal {
                rd: XReg::ZERO,
                offset: -42 * 2,
            },
            Inst::Branch {
                kind: BranchKind::Bne,
                rs1: XReg::A1,
                rs2: XReg::ZERO,
                offset: -36,
            },
            Inst::Op {
                kind: OpKind::Subw,
                rd: XReg::A0,
                rs1: XReg::A0,
                rs2: XReg::A1,
            },
            Inst::OpImm {
                kind: OpImmKind::Srai,
                rd: XReg::A5,
                rs1: XReg::A5,
                imm: 63,
            },
            Inst::Lui {
                rd: XReg::A1,
                imm20: -3,
            },
        ];
        for inst in samples {
            let w = encode_compressed(&inst).unwrap_or_else(|| panic!("{inst} should compress"));
            let d = decode(w as u32).unwrap();
            assert_eq!(d.inst, inst, "halfword {w:#06x} ({inst})");
            assert_eq!(d.len, 2);
        }
    }
}
