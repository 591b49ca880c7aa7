//! Instruction encoding: [`encode`] gives the canonical 32-bit word of
//! every [`Inst`] and is generated from the shape table (`shapes.rs`);
//! [`encode_compressed`] gives the 16-bit word of the subset that has one
//! and is generated from the form table in [`crate::rvc`]. This module
//! holds the error type.
//!
//! Each encoder is generated from the same rows as its decoder, so
//! `decode(encode(i)) == i` for every well-formed instruction (enforced by
//! property tests in this crate). F/D instructions are emitted with the
//! dynamic rounding mode (`rm = 0b111`).

pub use crate::rvc::encode_compressed;
pub use crate::shapes::encode;
use core::fmt;

/// Errors from [`encode`]: an immediate does not fit its field, or a
/// `vsetvli`'s `vtype` has no encoding in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A signed/unsigned immediate is out of range for its field; for a
    /// `vsetvli`'s `vtype`, the value is an `lmul` outside 1, 2, 4, 8.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::*;
    use crate::kinds::*;
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
    fn vtype_outside_the_subset_is_refused() {
        for lmul in [0, 3, 5, 6, 7, 16, 255] {
            let vtype = VType {
                sew: Eew::E32,
                lmul,
                ta: true,
                ma: false,
            };
            let inst = Inst::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::A0,
                vtype,
            };
            assert!(
                matches!(encode(&inst), Err(EncodeError::ImmOutOfRange { value, .. }) if value == lmul as i64),
                "lmul {lmul}"
            );
        }
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
