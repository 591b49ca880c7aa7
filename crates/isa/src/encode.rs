//! Instruction encoding: canonical 32-bit encodings for every [`Inst`]. The
//! compressed (RVC) 16-bit encodings of the subset that has them come from
//! the table in [`crate::rvc`].
//!
//! The encoder emits exactly the encodings the decoder accepts, so
//! `decode(encode(i)) == i` for every well-formed instruction (enforced by
//! property tests in this crate). F/D instructions are emitted with the
//! dynamic rounding mode (`rm = 0b111`).

use crate::bits::*;
use crate::inst::*;
use crate::kinds::*;
pub use crate::rvc::encode_compressed;
use core::fmt;

/// Errors from [`encode`]: an immediate does not fit its field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A signed/unsigned immediate is out of range for its field.
    ImmOutOfRange {
        /// Which instruction field overflowed (for diagnostics).
        what: &'static str,
        /// The offending value.
        value: i64,
    },
    /// A byte offset that must be even (branch/jump targets) is odd.
    MisalignedOffset {
        /// Which instruction field is misaligned.
        what: &'static str,
        /// The offending value.
        value: i64,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { what, value } => {
                write!(f, "immediate out of range for {what}: {value}")
            }
            EncodeError::MisalignedOffset { what, value } => {
                write!(f, "misaligned offset for {what}: {value}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

fn r(opcode: u32, funct3: u32, funct7: u32, rd: u32, rs1: u32, rs2: u32) -> u32 {
    opcode | (rd << 7) | (funct3 << 12) | (rs1 << 15) | (rs2 << 20) | (funct7 << 25)
}

fn i(opcode: u32, funct3: u32, rd: u32, rs1: u32, imm: i32) -> u32 {
    opcode | (rd << 7) | (funct3 << 12) | (rs1 << 15) | itype_imm(imm)
}

fn check_i12(what: &'static str, v: i32) -> Result<(), EncodeError> {
    if fits_signed(v as i64, 12) {
        Ok(())
    } else {
        Err(EncodeError::ImmOutOfRange {
            what,
            value: v as i64,
        })
    }
}

fn int_width_sel(w: IntWidth, signed: bool) -> u32 {
    match (w, signed) {
        (IntWidth::W, true) => 0b00000,
        (IntWidth::W, false) => 0b00001,
        (IntWidth::L, true) => 0b00010,
        (IntWidth::L, false) => 0b00011,
    }
}

fn vmem_width(eew: Eew) -> u32 {
    match eew {
        Eew::E8 => 0b000,
        Eew::E16 => 0b101,
        Eew::E32 => 0b110,
        Eew::E64 => 0b111,
    }
}

/// Encodes an instruction into its canonical 32-bit machine word.
pub fn encode(inst: &Inst) -> Result<u32, EncodeError> {
    Ok(match *inst {
        Inst::Lui { rd, imm20 } => {
            if !fits_signed(imm20 as i64, 20) {
                return Err(EncodeError::ImmOutOfRange {
                    what: "lui imm20",
                    value: imm20 as i64,
                });
            }
            OP_LUI | ((rd.index() as u32) << 7) | utype_imm(imm20)
        }
        Inst::Auipc { rd, imm20 } => {
            if !fits_signed(imm20 as i64, 20) {
                return Err(EncodeError::ImmOutOfRange {
                    what: "auipc imm20",
                    value: imm20 as i64,
                });
            }
            OP_AUIPC | ((rd.index() as u32) << 7) | utype_imm(imm20)
        }
        Inst::Jal { rd, offset } => {
            if offset % 2 != 0 {
                return Err(EncodeError::MisalignedOffset {
                    what: "jal offset",
                    value: offset as i64,
                });
            }
            if !fits_signed(offset as i64, 21) {
                return Err(EncodeError::ImmOutOfRange {
                    what: "jal offset",
                    value: offset as i64,
                });
            }
            OP_JAL | ((rd.index() as u32) << 7) | jtype_imm(offset)
        }
        Inst::Jalr { rd, rs1, offset } => {
            check_i12("jalr offset", offset)?;
            i(
                OP_JALR,
                0b000,
                rd.index() as u32,
                rs1.index() as u32,
                offset,
            )
        }
        Inst::Branch {
            kind,
            rs1,
            rs2,
            offset,
        } => {
            if offset % 2 != 0 {
                return Err(EncodeError::MisalignedOffset {
                    what: "branch offset",
                    value: offset as i64,
                });
            }
            if !fits_signed(offset as i64, 13) {
                return Err(EncodeError::ImmOutOfRange {
                    what: "branch offset",
                    value: offset as i64,
                });
            }
            OP_BRANCH
                | (kind.encoding() << 12)
                | ((rs1.index() as u32) << 15)
                | ((rs2.index() as u32) << 20)
                | btype_imm(offset)
        }
        Inst::Load {
            kind,
            rd,
            rs1,
            offset,
        } => {
            check_i12("load offset", offset)?;
            i(
                OP_LOAD,
                kind.encoding(),
                rd.index() as u32,
                rs1.index() as u32,
                offset,
            )
        }
        Inst::Store {
            kind,
            rs1,
            rs2,
            offset,
        } => {
            check_i12("store offset", offset)?;
            OP_STORE
                | (kind.encoding() << 12)
                | ((rs1.index() as u32) << 15)
                | ((rs2.index() as u32) << 20)
                | stype_imm(offset)
        }
        Inst::OpImm { kind, rd, rs1, imm } => {
            let (opcode, funct3, above_shamt) = kind.encoding();
            let imm12 = match kind.shamt_bits() {
                Some(bits) => {
                    if !fits_unsigned(imm as i64, bits) {
                        return Err(EncodeError::ImmOutOfRange {
                            what: kind.mnemonic(),
                            value: imm as i64,
                        });
                    }
                    (above_shamt << bits) as i32 | imm
                }
                None => {
                    check_i12(kind.mnemonic(), imm)?;
                    imm
                }
            };
            i(opcode, funct3, rd.index() as u32, rs1.index() as u32, imm12)
        }
        Inst::Op { kind, rd, rs1, rs2 } => {
            let (opcode, funct3, funct7) = kind.encoding();
            r(
                opcode,
                funct3,
                funct7,
                rd.index() as u32,
                rs1.index() as u32,
                rs2.index() as u32,
            )
        }
        Inst::Unary { kind, rd, rs1 } => {
            let (opcode, funct3, funct7, selector) = kind.encoding();
            r(
                opcode,
                funct3,
                funct7,
                rd.index() as u32,
                rs1.index() as u32,
                selector,
            )
        }
        Inst::Fence => OP_MISC_MEM | (0x0ff << 20),
        Inst::Ecall => OP_SYSTEM,
        Inst::Ebreak => OP_SYSTEM | (1 << 20),
        Inst::FLoad {
            width,
            frd,
            rs1,
            offset,
        } => {
            check_i12("fp load offset", offset)?;
            let funct3 = match width {
                FpWidth::S => 0b010,
                FpWidth::D => 0b011,
            };
            i(
                OP_LOAD_FP,
                funct3,
                frd.index() as u32,
                rs1.index() as u32,
                offset,
            )
        }
        Inst::FStore {
            width,
            frs2,
            rs1,
            offset,
        } => {
            check_i12("fp store offset", offset)?;
            let funct3 = match width {
                FpWidth::S => 0b010,
                FpWidth::D => 0b011,
            };
            OP_STORE_FP
                | (funct3 << 12)
                | ((rs1.index() as u32) << 15)
                | ((frs2.index() as u32) << 20)
                | stype_imm(offset)
        }
        Inst::FOp {
            kind,
            width,
            frd,
            frs1,
            frs2,
        } => {
            let (funct5, funct3) = kind.encoding();
            r(
                OP_FP,
                funct3,
                (funct5 << 2) | width.fmt_bits(),
                frd.index() as u32,
                frs1.index() as u32,
                frs2.index() as u32,
            )
        }
        Inst::FCmp {
            kind,
            width,
            rd,
            frs1,
            frs2,
        } => r(
            OP_FP,
            kind.encoding(),
            (0b10100 << 2) | width.fmt_bits(),
            rd.index() as u32,
            frs1.index() as u32,
            frs2.index() as u32,
        ),
        Inst::FMvToX { width, rd, frs1 } => r(
            OP_FP,
            0b000,
            (0b11100 << 2) | width.fmt_bits(),
            rd.index() as u32,
            frs1.index() as u32,
            0,
        ),
        Inst::FMvToF { width, frd, rs1 } => r(
            OP_FP,
            0b000,
            (0b11110 << 2) | width.fmt_bits(),
            frd.index() as u32,
            rs1.index() as u32,
            0,
        ),
        Inst::FCvtToF {
            width,
            from,
            signed,
            frd,
            rs1,
        } => r(
            OP_FP,
            RM_DYN,
            (0b11010 << 2) | width.fmt_bits(),
            frd.index() as u32,
            rs1.index() as u32,
            int_width_sel(from, signed),
        ),
        Inst::FCvtToInt {
            width,
            to,
            signed,
            rd,
            frs1,
        } => r(
            OP_FP,
            RM_DYN,
            (0b11000 << 2) | width.fmt_bits(),
            rd.index() as u32,
            frs1.index() as u32,
            int_width_sel(to, signed),
        ),
        Inst::FCvtFF { to, frd, frs1 } => {
            // fcvt.s.d: fmt=S, rs2=1 (D); fcvt.d.s: fmt=D, rs2=0 (S).
            let (fmt, rs2) = match to {
                FpWidth::S => (FpWidth::S.fmt_bits(), 0b00001),
                FpWidth::D => (FpWidth::D.fmt_bits(), 0b00000),
            };
            r(
                OP_FP,
                RM_DYN,
                (0b01000 << 2) | fmt,
                frd.index() as u32,
                frs1.index() as u32,
                rs2,
            )
        }
        Inst::FMa {
            kind,
            width,
            frd,
            frs1,
            frs2,
            frs3,
        } => {
            kind.encoding()
                | ((frd.index() as u32) << 7)
                | (RM_DYN << 12)
                | ((frs1.index() as u32) << 15)
                | ((frs2.index() as u32) << 20)
                | (width.fmt_bits() << 25)
                | ((frs3.index() as u32) << 27)
        }
        Inst::Vsetvli { rd, rs1, vtype } => {
            OP_V | ((rd.index() as u32) << 7)
                | (0b111 << 12)
                | ((rs1.index() as u32) << 15)
                | (vtype.to_bits() << 20)
        }
        Inst::VLoad { eew, vd, rs1 } => {
            // nf=000, mew=0, mop=00 (unit stride), vm=1, lumop=00000.
            OP_LOAD_FP
                | ((vd.index() as u32) << 7)
                | (vmem_width(eew) << 12)
                | ((rs1.index() as u32) << 15)
                | (1 << 25)
        }
        Inst::VStore { eew, vs3, rs1 } => {
            OP_STORE_FP
                | ((vs3.index() as u32) << 7)
                | (vmem_width(eew) << 12)
                | ((rs1.index() as u32) << 15)
                | (1 << 25)
        }
        Inst::VArith { op, vd, vs2, src } => {
            // The scalar forms set bit 2 of the category's `.vv` funct3.
            let (funct6, category) = op.encoding();
            let (funct3, src_field) = match src {
                VSrc::V(vs1) => (category, vs1.index() as u32),
                VSrc::X(rs1) => (category | 0b100, rs1.index() as u32),
                VSrc::F(frs1) => (OPF | 0b100, frs1.index() as u32),
                VSrc::I(imm) => {
                    if !fits_signed(imm as i64, 5) {
                        return Err(EncodeError::ImmOutOfRange {
                            what: "vector imm5",
                            value: imm as i64,
                        });
                    }
                    (OPIVI, (imm as u32) & 0x1f)
                }
            };
            OP_V | ((vd.index() as u32) << 7)
                | (funct3 << 12)
                | (src_field << 15)
                | ((vs2.index() as u32) << 20)
                | (1 << 25)
                | (funct6 << 26)
        }
        Inst::VMvXS { rd, vs2 } => {
            // VWXUNARY0: funct6=010000, OPMVV, vs1=00000.
            OP_V | ((rd.index() as u32) << 7)
                | (0b010 << 12)
                | ((vs2.index() as u32) << 20)
                | (1 << 25)
                | (0b010000 << 26)
        }
        Inst::VMvSX { vd, rs1 } => {
            // VRXUNARY0: funct6=010000, OPMVX, vs2=00000.
            OP_V | ((vd.index() as u32) << 7)
                | (0b110 << 12)
                | ((rs1.index() as u32) << 15)
                | (1 << 25)
                | (0b010000 << 26)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{FReg, VReg, XReg};

    fn enc(i: Inst) -> u32 {
        encode(&i).expect("encodes")
    }

    #[test]
    fn known_base_encodings() {
        // Cross-checked against GNU as output.
        assert_eq!(
            enc(Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::ZERO,
                rs1: XReg::ZERO,
                imm: 0
            }),
            0x0000_0013 // nop
        );
        assert_eq!(
            enc(Inst::Op {
                kind: OpKind::Add,
                rd: XReg::A0,
                rs1: XReg::A1,
                rs2: XReg::A2
            }),
            0x00c5_8533
        );
        assert_eq!(
            enc(Inst::Jalr {
                rd: XReg::ZERO,
                rs1: XReg::RA,
                offset: 0
            }),
            0x0000_8067 // ret
        );
        assert_eq!(enc(Inst::Ecall), 0x0000_0073);
        assert_eq!(enc(Inst::Ebreak), 0x0010_0073);
        assert_eq!(
            enc(Inst::Lui {
                rd: XReg::A0,
                imm20: 1
            }),
            0x0000_1537
        );
        assert_eq!(
            enc(Inst::Load {
                kind: LoadKind::Ld,
                rd: XReg::A0,
                rs1: XReg::SP,
                offset: 8
            }),
            0x0081_3503
        );
        assert_eq!(
            enc(Inst::Store {
                kind: StoreKind::Sd,
                rs1: XReg::SP,
                rs2: XReg::A0,
                offset: 8
            }),
            0x00a1_3423
        );
    }

    #[test]
    fn known_compressed_encodings() {
        // Cross-checked against GNU as output.
        assert_eq!(
            encode_compressed(&Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::ZERO,
                rs1: XReg::ZERO,
                imm: 0
            }),
            Some(0x0001) // c.nop
        );
        assert_eq!(
            encode_compressed(&Inst::Op {
                kind: OpKind::Add,
                rd: XReg::A0,
                rs1: XReg::ZERO,
                rs2: XReg::A1
            }),
            Some(0x852e) // c.mv a0, a1
        );
        assert_eq!(
            encode_compressed(&Inst::Op {
                kind: OpKind::Add,
                rd: XReg::A0,
                rs1: XReg::A0,
                rs2: XReg::A1
            }),
            Some(0x952e) // c.add a0, a1
        );
        assert_eq!(
            encode_compressed(&Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::A0,
                rs1: XReg::ZERO,
                imm: 0
            }),
            Some(0x4501) // c.li a0, 0
        );
        assert_eq!(encode_compressed(&Inst::Ebreak), Some(0x9002));
        assert_eq!(
            encode_compressed(&Inst::Jalr {
                rd: XReg::ZERO,
                rs1: XReg::RA,
                offset: 0
            }),
            Some(0x8082) // c.jr ra (ret)
        );
    }

    #[test]
    fn auipc_with_gp_uses_expected_fields() {
        // The SMILE trampoline head: auipc gp, imm.
        let w = enc(Inst::Auipc {
            rd: XReg::GP,
            imm20: 0x12345,
        });
        assert_eq!(w & 0x7f, 0b0010111);
        assert_eq!((w >> 7) & 0x1f, 3); // rd = gp
        assert_eq!(w >> 12, 0x12345);
    }

    #[test]
    fn jal_range_checks() {
        assert!(encode(&Inst::Jal {
            rd: XReg::ZERO,
            offset: (1 << 20) - 2
        })
        .is_ok());
        assert!(matches!(
            encode(&Inst::Jal {
                rd: XReg::ZERO,
                offset: 1 << 20
            }),
            Err(EncodeError::ImmOutOfRange { .. })
        ));
        assert!(matches!(
            encode(&Inst::Jal {
                rd: XReg::ZERO,
                offset: 3
            }),
            Err(EncodeError::MisalignedOffset { .. })
        ));
    }

    #[test]
    fn fp_and_vector_words_have_correct_opcodes() {
        let w = enc(Inst::FMa {
            kind: FMaKind::Madd,
            width: FpWidth::D,
            frd: FReg::of(0),
            frs1: FReg::of(1),
            frs2: FReg::of(2),
            frs3: FReg::of(3),
        });
        assert_eq!(w & 0x7f, 0b1000011);

        let w = enc(Inst::VArith {
            op: VArithOp::Vadd,
            vd: VReg::of(1),
            vs2: VReg::of(2),
            src: VSrc::V(VReg::of(3)),
        });
        assert_eq!(w & 0x7f, 0b1010111);
        assert_eq!((w >> 12) & 7, 0b000); // OPIVV
        assert_eq!((w >> 25) & 1, 1); // unmasked

        let w = enc(Inst::VLoad {
            eew: Eew::E64,
            vd: VReg::of(1),
            rs1: XReg::A0,
        });
        assert_eq!(w & 0x7f, 0b0000111);
        assert_eq!((w >> 12) & 7, 0b111); // EEW=64
    }
}
