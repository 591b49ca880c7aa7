//! Instruction decoding: 32-bit machine words into canonical [`Inst`]
//! values; compressed 16-bit words go through the table in [`crate::rvc`].
//!
//! Anything outside the modelled subset decodes to
//! [`DecodeError::Unrecognized`]; the emulator turns that into an
//! illegal-instruction trap, which is both the FAM migration trigger and the
//! trigger for Chimera's lazy rewriting of instructions the static
//! disassembly missed (§4.1 of the paper). [`DecodeError::ReservedLong`]
//! flags the `xxx11111`/`x1111111` prefixes that RISC-V reserves for ≥48-bit
//! encodings — the prefix Chimera's compressed-safe SMILE placement relies
//! on for the `P2` interior jump target.

use crate::bits::*;
use crate::inst::*;
use crate::kinds::*;
use crate::reg::{FReg, VReg, XReg};
pub use crate::rvc::decode_compressed;
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

fn xr(word: u32, lo: u32) -> XReg {
    XReg::of(field(word, lo, 5) as u8)
}

fn fr(word: u32, lo: u32) -> FReg {
    FReg::of(field(word, lo, 5) as u8)
}

fn vr(word: u32, lo: u32) -> VReg {
    VReg::of(field(word, lo, 5) as u8)
}

/// Decodes a machine word. `word` carries the full 32 bits at the fetch
/// address; for a compressed instruction only the low 16 bits are used.
pub fn decode(word: u32) -> Result<Decoded, DecodeError> {
    if word & 0b11 != 0b11 {
        return decode_compressed(word as u16).map(|inst| Decoded { inst, len: 2 });
    }
    if word & 0b11111 == 0b11111 {
        // 48-bit+ reserved prefix (covers both `011111` 48-bit and
        // `x1111111` 64-bit+ spaces for our purposes).
        return Err(DecodeError::ReservedLong(word));
    }
    decode32(word).map(|inst| Decoded { inst, len: 4 })
}

fn decode32(word: u32) -> Result<Inst, DecodeError> {
    let opcode = word & 0x7f;
    let rd = || xr(word, 7);
    let rs1 = || xr(word, 15);
    let rs2 = || xr(word, 20);
    let funct3 = field(word, 12, 3);
    let funct7 = field(word, 25, 7);
    let err = Err(DecodeError::Unrecognized(word));
    // The Zbb single-operand rows sit in `OP-IMM` and `OP-32` space, on
    // encodings the two-operand rows there leave free.
    let unary = || UnaryKind::from_encoding((opcode, funct3, funct7, field(word, 20, 5)));

    Ok(match opcode {
        OP_LUI => Inst::Lui {
            rd: rd(),
            imm20: utype_imm_of(word),
        },
        OP_AUIPC => Inst::Auipc {
            rd: rd(),
            imm20: utype_imm_of(word),
        },
        OP_JAL => Inst::Jal {
            rd: rd(),
            offset: jtype_imm_of(word),
        },
        OP_JALR => {
            if funct3 != 0 {
                return err;
            }
            Inst::Jalr {
                rd: rd(),
                rs1: rs1(),
                offset: itype_imm_of(word),
            }
        }
        OP_BRANCH => {
            let Some(kind) = BranchKind::from_encoding(funct3) else {
                return err;
            };
            Inst::Branch {
                kind,
                rs1: rs1(),
                rs2: rs2(),
                offset: btype_imm_of(word),
            }
        }
        OP_LOAD => {
            let Some(kind) = LoadKind::from_encoding(funct3) else {
                return err;
            };
            Inst::Load {
                kind,
                rd: rd(),
                rs1: rs1(),
                offset: itype_imm_of(word),
            }
        }
        OP_STORE => {
            let Some(kind) = StoreKind::from_encoding(funct3) else {
                return err;
            };
            Inst::Store {
                kind,
                rs1: rs1(),
                rs2: rs2(),
                offset: stype_imm_of(word),
            }
        }
        OP_IMM | OP_IMM_32 => {
            // A shift row is keyed on the immediate bits above its shift
            // amount, every other row on zero there.
            let imm12 = field(word, 20, 12);
            let (above_shamt, imm) = match shamt_bits(opcode, funct3) {
                Some(bits) => (imm12 >> bits, field(word, 20, bits) as i32),
                None => (0, itype_imm_of(word)),
            };
            if let Some(kind) = OpImmKind::from_encoding((opcode, funct3, above_shamt)) {
                Inst::OpImm {
                    kind,
                    rd: rd(),
                    rs1: rs1(),
                    imm,
                }
            } else if let Some(kind) = unary() {
                Inst::Unary {
                    kind,
                    rd: rd(),
                    rs1: rs1(),
                }
            } else {
                return err;
            }
        }
        OP | OP_32 => {
            if let Some(kind) = OpKind::from_encoding((opcode, funct3, funct7)) {
                Inst::Op {
                    kind,
                    rd: rd(),
                    rs1: rs1(),
                    rs2: rs2(),
                }
            } else if let Some(kind) = unary() {
                Inst::Unary {
                    kind,
                    rd: rd(),
                    rs1: rs1(),
                }
            } else {
                return err;
            }
        }
        OP_MISC_MEM => {
            // `fence` alone: `fence.i`, the `cbo.*` row and the reserved
            // `funct3` values must trap, not retire as a no-op. Within
            // `fence`, `rd`, `rs1` and reserved `fm`/`pred`/`succ` values
            // are ignored as the spec asks; re-encoding emits the
            // strongest fence, which is conservative.
            if funct3 != 0 {
                return err;
            }
            Inst::Fence
        }
        OP_SYSTEM => match word >> 7 {
            0 => Inst::Ecall,
            0x2000 => Inst::Ebreak,
            _ => return err,
        },
        OP_LOAD_FP => {
            // flw/fld or vector unit-stride load.
            match funct3 {
                0b010 | 0b011 => Inst::FLoad {
                    width: if funct3 == 0b010 {
                        FpWidth::S
                    } else {
                        FpWidth::D
                    },
                    frd: fr(word, 7),
                    rs1: rs1(),
                    offset: itype_imm_of(word),
                },
                0b000 | 0b101 | 0b110 | 0b111 => {
                    // Require nf=0, mew=0, mop=00, vm=1, lumop=00000.
                    if field(word, 20, 12) != 0b0000_0010_0000 {
                        return err;
                    }
                    let eew = match funct3 {
                        0b000 => Eew::E8,
                        0b101 => Eew::E16,
                        0b110 => Eew::E32,
                        _ => Eew::E64,
                    };
                    Inst::VLoad {
                        eew,
                        vd: vr(word, 7),
                        rs1: rs1(),
                    }
                }
                _ => return err,
            }
        }
        OP_STORE_FP => {
            match funct3 {
                0b010 | 0b011 => Inst::FStore {
                    width: if funct3 == 0b010 {
                        FpWidth::S
                    } else {
                        FpWidth::D
                    },
                    frs2: fr(word, 20),
                    rs1: rs1(),
                    offset: stype_imm_of(word),
                },
                0b000 | 0b101 | 0b110 | 0b111 => {
                    // Require nf=0, mew=0, mop=00, vm=1, sumop=00000;
                    // the S-immediate split puts sumop in rs2's slot.
                    if field(word, 25, 7) != 0b0000001 || field(word, 20, 5) != 0 {
                        return err;
                    }
                    let eew = match funct3 {
                        0b000 => Eew::E8,
                        0b101 => Eew::E16,
                        0b110 => Eew::E32,
                        _ => Eew::E64,
                    };
                    Inst::VStore {
                        eew,
                        vs3: vr(word, 7),
                        rs1: rs1(),
                    }
                }
                _ => return err,
            }
        }
        OP_FP => return decode_opfp(word),
        OP_V => return decode_opv(word),
        _ => {
            let Some(kind) = FMaKind::from_encoding(opcode) else {
                return err;
            };
            let width = match field(word, 25, 2) {
                0b00 => FpWidth::S,
                0b01 => FpWidth::D,
                _ => return err,
            };
            Inst::FMa {
                kind,
                width,
                frd: fr(word, 7),
                frs1: fr(word, 15),
                frs2: fr(word, 20),
                frs3: fr(word, 27),
            }
        }
    })
}

fn decode_opfp(word: u32) -> Result<Inst, DecodeError> {
    let err = Err(DecodeError::Unrecognized(word));
    let funct7 = field(word, 25, 7);
    let funct3 = field(word, 12, 3);
    let funct5 = funct7 >> 2;
    let width = match funct7 & 0b11 {
        0b00 => FpWidth::S,
        0b01 => FpWidth::D,
        _ => return err,
    };
    let rd = xr(word, 7);
    let frd = fr(word, 7);
    let rs1 = xr(word, 15);
    let frs1 = fr(word, 15);
    let frs2 = fr(word, 20);
    let sel = field(word, 20, 5);

    // A row whose `funct3` is a rounding-mode field accepts any value
    // there (the canonical form is the dynamic mode).
    if let Some(kind) =
        FOpKind::from_encoding((funct5, funct3)).or(FOpKind::from_encoding((funct5, RM_DYN)))
    {
        return Ok(Inst::FOp {
            kind,
            width,
            frd,
            frs1,
            frs2,
        });
    }
    Ok(match funct5 {
        0b01000 => {
            // fcvt between widths.
            match (width, sel) {
                (FpWidth::S, 0b00001) => Inst::FCvtFF {
                    to: FpWidth::S,
                    frd,
                    frs1,
                },
                (FpWidth::D, 0b00000) => Inst::FCvtFF {
                    to: FpWidth::D,
                    frd,
                    frs1,
                },
                _ => return err,
            }
        }
        0b10100 => {
            let Some(kind) = FCmpKind::from_encoding(funct3) else {
                return err;
            };
            Inst::FCmp {
                kind,
                width,
                rd,
                frs1,
                frs2,
            }
        }
        0b11000 => {
            let (to, signed) = int_sel(sel).ok_or(DecodeError::Unrecognized(word))?;
            Inst::FCvtToInt {
                width,
                to,
                signed,
                rd,
                frs1,
            }
        }
        0b11010 => {
            let (from, signed) = int_sel(sel).ok_or(DecodeError::Unrecognized(word))?;
            Inst::FCvtToF {
                width,
                from,
                signed,
                frd,
                rs1,
            }
        }
        0b11100 if funct3 == 0b000 && sel == 0 => Inst::FMvToX { width, rd, frs1 },
        0b11110 if funct3 == 0b000 && sel == 0 => Inst::FMvToF { width, frd, rs1 },
        _ => return err,
    })
}

fn int_sel(sel: u32) -> Option<(IntWidth, bool)> {
    match sel {
        0b00000 => Some((IntWidth::W, true)),
        0b00001 => Some((IntWidth::W, false)),
        0b00010 => Some((IntWidth::L, true)),
        0b00011 => Some((IntWidth::L, false)),
        _ => None,
    }
}

fn decode_opv(word: u32) -> Result<Inst, DecodeError> {
    let err = Err(DecodeError::Unrecognized(word));
    let funct3 = field(word, 12, 3);
    if funct3 == 0b111 {
        // vsetvli (bit 31 must be 0 in the supported form).
        if word >> 31 != 0 {
            return err;
        }
        let vtype = VType::from_bits(field(word, 20, 11)).ok_or(DecodeError::Unrecognized(word))?;
        return Ok(Inst::Vsetvli {
            rd: xr(word, 7),
            rs1: xr(word, 15),
            vtype,
        });
    }
    // All supported arithmetic forms are unmasked.
    if field(word, 25, 1) != 1 {
        return err;
    }
    let funct6 = field(word, 26, 6);
    let vd = vr(word, 7);
    let vs2 = vr(word, 20);

    // Special unary moves first.
    if funct6 == 0b010000 {
        return match funct3 {
            0b010 if field(word, 15, 5) == 0 => Ok(Inst::VMvXS {
                rd: xr(word, 7),
                vs2,
            }),
            0b110 if field(word, 20, 5) == 0 => Ok(Inst::VMvSX {
                vd,
                rs1: xr(word, 15),
            }),
            _ => err,
        };
    }

    let src = match funct3 {
        OPI | OPF | OPM => VSrc::V(vr(word, 15)),
        OPIVI => VSrc::I(sext(field(word, 15, 5), 5) as i8),
        0b101 => VSrc::F(fr(word, 15)),
        _ => VSrc::X(xr(word, 15)),
    };
    // The scalar forms set bit 2 of their category's `.vv` funct3; the
    // immediate form belongs to the integer category.
    let category = if funct3 == OPIVI { OPI } else { funct3 & 0b011 };
    let op = match VArithOp::from_encoding((funct6, category)) {
        Some(op) if op.allows(src) => op,
        _ => return err,
    };
    // vmv.v.* requires vs2 = v0 field = 0.
    if op == VArithOp::Vmv && vs2.index() != 0 {
        return err;
    }
    Ok(Inst::VArith { op, vd, vs2, src })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, encode_compressed};

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
