//! The instruction model: a typed enum covering the RV64IMFDCVB subset the
//! Chimera reproduction uses, plus per-instruction properties (extension
//! classification, register defs/uses, control-flow role).
//!
//! Design notes:
//!
//! * Instructions are stored in *canonical* (uncompressed) form; whether a
//!   given machine word was 2 or 4 bytes is carried separately by
//!   [`crate::decode::Decoded::len`]. The rewriter operates on raw bytes and
//!   only needs the canonical semantics plus the length.
//! * Immediates are stored as sign-extended values in their natural unit
//!   (bytes for control-flow offsets and memory offsets; the raw 20-bit
//!   field for `lui`/`auipc`).

use crate::kinds::*;
use crate::reg::{FReg, RegSet, VReg, VRegSet, XReg};
use crate::{Ext, ExtSet};

/// Floating-point operand width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpWidth {
    /// Single precision (`.s`, F extension).
    S,
    /// Double precision (`.d`, D extension).
    D,
}

impl FpWidth {
    /// The mnemonic suffix (`s` or `d`).
    pub const fn suffix(self) -> char {
        match self {
            FpWidth::S => 's',
            FpWidth::D => 'd',
        }
    }

    /// The extension implied by the width.
    pub const fn ext(self) -> Ext {
        match self {
            FpWidth::S => Ext::F,
            FpWidth::D => Ext::D,
        }
    }

    /// The value bits an FP register supplies as an operand of this width:
    /// all 64 for a double; for a single the low 32 when the register is
    /// NaN-boxed (upper 32 bits all ones), and the canonical NaN when it
    /// is not, as the F extension requires.
    pub const fn unbox(self, reg: u64) -> u64 {
        match self {
            FpWidth::S if reg >> 32 == 0xffff_ffff => reg & 0xffff_ffff,
            FpWidth::S => 0x7fc0_0000,
            FpWidth::D => reg,
        }
    }

    /// The FP register bits that hold value bits `v` of this width: a
    /// single NaN-boxed.
    pub const fn nan_box(self, v: u64) -> u64 {
        match self {
            FpWidth::S => 0xffff_ffff_0000_0000 | (v & 0xffff_ffff),
            FpWidth::D => v,
        }
    }
}

/// Integer width for FP↔integer conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntWidth {
    /// 32-bit (`.w`/`.wu`).
    W,
    /// 64-bit (`.l`/`.lu`).
    L,
}

/// Element width for vector memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Eew {
    /// 8-bit elements.
    E8,
    /// 16-bit elements.
    E16,
    /// 32-bit elements.
    E32,
    /// 64-bit elements.
    E64,
}

impl Eew {
    /// Element size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            Eew::E8 => 1,
            Eew::E16 => 2,
            Eew::E32 => 4,
            Eew::E64 => 8,
        }
    }

    /// Element size in bits.
    pub const fn bits(self) -> u32 {
        self.bytes() as u32 * 8
    }

    /// The FP format of an element of this width (`None` for `e8` / `e16`).
    pub const fn fp(self) -> Option<FpWidth> {
        match self {
            Eew::E32 => Some(FpWidth::S),
            Eew::E64 => Some(FpWidth::D),
            Eew::E8 | Eew::E16 => None,
        }
    }

    /// The low element bits of `v`, sign-extended to 64.
    pub const fn sext(self, v: u64) -> u64 {
        let shift = 64 - self.bits();
        ((v << shift) as i64 >> shift) as u64
    }

    /// The low element bits of `v`.
    pub const fn truncate(self, v: u64) -> u64 {
        v & (u64::MAX >> (64 - self.bits()))
    }
}

/// Selected element width (`vsew`) for `vtype`.
pub type Sew = Eew;

/// The `vtype` CSR value established by `vsetvli`: element width, register
/// grouping, and tail/mask agnosticism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VType {
    /// Selected element width.
    pub sew: Sew,
    /// Register group multiplier (1, 2, 4 or 8).
    pub lmul: u8,
    /// Tail-agnostic bit.
    pub ta: bool,
    /// Mask-agnostic bit.
    pub ma: bool,
}

impl VType {
    /// Encodes the `vtype` immediate field of `vsetvli`. An `lmul` outside
    /// 1, 2, 4, 8 gets the reserved `vlmul = 100`, which [`VType::from_bits`]
    /// refuses: the encoder turns that into an error.
    #[inline]
    pub fn to_bits(self) -> u32 {
        let vlmul = match self.lmul {
            1 => 0b000,
            2 => 0b001,
            4 => 0b010,
            8 => 0b011,
            _ => 0b100,
        };
        let vsew = match self.sew {
            Eew::E8 => 0b000,
            Eew::E16 => 0b001,
            Eew::E32 => 0b010,
            Eew::E64 => 0b011,
        };
        vlmul | (vsew << 3) | ((self.ta as u32) << 6) | ((self.ma as u32) << 7)
    }

    /// Decodes a `vtype` immediate field; `None` for encodings outside the
    /// supported subset (fractional LMUL, reserved widths).
    #[inline]
    pub fn from_bits(bits: u32) -> Option<VType> {
        let lmul = match bits & 0b111 {
            0b000 => 1,
            0b001 => 2,
            0b010 => 4,
            0b011 => 8,
            _ => return None,
        };
        let sew = match (bits >> 3) & 0b111 {
            0b000 => Eew::E8,
            0b001 => Eew::E16,
            0b010 => Eew::E32,
            0b011 => Eew::E64,
            _ => return None,
        };
        Some(VType {
            sew,
            lmul,
            ta: bits & (1 << 6) != 0,
            ma: bits & (1 << 7) != 0,
        })
    }
}

/// The scalar/vector second source of a vector arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VSrc {
    /// Vector register (`.vv` form).
    V(VReg),
    /// Integer scalar register (`.vx` form).
    X(XReg),
    /// FP scalar register (`.vf` form).
    F(FReg),
    /// 5-bit signed immediate (`.vi` form).
    I(i8),
}

/// A decoded RISC-V instruction in canonical (uncompressed) form.
///
/// See the module docs for immediate conventions. The enum is deliberately
/// closed: anything the decoder cannot map into it is an *unrecognized*
/// instruction, which the emulator treats as illegal and Chimera's runtime
/// handles by lazy rewriting (§4.1/§4.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Load upper immediate: `rd = sext(imm20 << 12)`.
    Lui {
        /// Destination.
        rd: XReg,
        /// 20-bit immediate field (signed).
        imm20: i32,
    },
    /// Add upper immediate to pc: `rd = pc + sext(imm20 << 12)`.
    Auipc {
        /// Destination.
        rd: XReg,
        /// 20-bit immediate field (signed).
        imm20: i32,
    },
    /// Jump and link: `rd = pc + len; pc += offset`.
    Jal {
        /// Link register (`zero` for plain jumps).
        rd: XReg,
        /// Byte offset from this instruction (±1 MiB).
        offset: i32,
    },
    /// Indirect jump and link: `rd = pc + len; pc = (rs1 + offset) & !1`.
    Jalr {
        /// Link register.
        rd: XReg,
        /// Base register.
        rs1: XReg,
        /// 12-bit signed byte offset.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison kind.
        kind: BranchKind,
        /// First comparand.
        rs1: XReg,
        /// Second comparand.
        rs2: XReg,
        /// Byte offset from this instruction (±4 KiB).
        offset: i32,
    },
    /// Integer load.
    Load {
        /// Access kind/width.
        kind: LoadKind,
        /// Destination.
        rd: XReg,
        /// Base register.
        rs1: XReg,
        /// 12-bit signed byte offset.
        offset: i32,
    },
    /// Integer store.
    Store {
        /// Access kind/width.
        kind: StoreKind,
        /// Base register.
        rs1: XReg,
        /// Value register.
        rs2: XReg,
        /// 12-bit signed byte offset.
        offset: i32,
    },
    /// Register-immediate ALU operation.
    OpImm {
        /// Operation.
        kind: OpImmKind,
        /// Destination.
        rd: XReg,
        /// Source.
        rs1: XReg,
        /// Immediate (12-bit signed, or shift amount).
        imm: i32,
    },
    /// Register-register ALU operation.
    Op {
        /// Operation.
        kind: OpKind,
        /// Destination.
        rd: XReg,
        /// First source.
        rs1: XReg,
        /// Second source.
        rs2: XReg,
    },
    /// Single-operand Zbb operation.
    Unary {
        /// Operation.
        kind: UnaryKind,
        /// Destination.
        rd: XReg,
        /// Source.
        rs1: XReg,
    },
    /// Memory fence (modelled as a no-op with ordering significance only).
    Fence,
    /// Environment call (syscall into the simulated kernel).
    Ecall,
    /// Breakpoint; used by trap-based trampolines in the baseline rewriters.
    Ebreak,
    /// Floating-point load.
    FLoad {
        /// Operand width.
        width: FpWidth,
        /// Destination.
        frd: FReg,
        /// Base register.
        rs1: XReg,
        /// 12-bit signed byte offset.
        offset: i32,
    },
    /// Floating-point store.
    FStore {
        /// Operand width.
        width: FpWidth,
        /// Value register.
        frs2: FReg,
        /// Base register.
        rs1: XReg,
        /// 12-bit signed byte offset.
        offset: i32,
    },
    /// Two-source floating-point ALU operation.
    FOp {
        /// Operation.
        kind: FOpKind,
        /// Operand width.
        width: FpWidth,
        /// Destination.
        frd: FReg,
        /// First source.
        frs1: FReg,
        /// Second source.
        frs2: FReg,
    },
    /// Floating-point comparison into an integer register.
    FCmp {
        /// Comparison kind.
        kind: FCmpKind,
        /// Operand width.
        width: FpWidth,
        /// Destination (0/1 result).
        rd: XReg,
        /// First source.
        frs1: FReg,
        /// Second source.
        frs2: FReg,
    },
    /// Move FP register bits to an integer register (`fmv.x.w`/`fmv.x.d`).
    FMvToX {
        /// Operand width.
        width: FpWidth,
        /// Destination.
        rd: XReg,
        /// Source.
        frs1: FReg,
    },
    /// Move integer register bits to an FP register (`fmv.w.x`/`fmv.d.x`).
    FMvToF {
        /// Operand width.
        width: FpWidth,
        /// Destination.
        frd: FReg,
        /// Source.
        rs1: XReg,
    },
    /// Convert integer to floating point (`fcvt.{s,d}.{w,wu,l,lu}`).
    FCvtToF {
        /// Result width.
        width: FpWidth,
        /// Source integer width.
        from: IntWidth,
        /// Whether the integer source is signed.
        signed: bool,
        /// Destination.
        frd: FReg,
        /// Source.
        rs1: XReg,
    },
    /// Convert floating point to integer (`fcvt.{w,wu,l,lu}.{s,d}`).
    FCvtToInt {
        /// Source width.
        width: FpWidth,
        /// Result integer width.
        to: IntWidth,
        /// Whether the integer result is signed.
        signed: bool,
        /// Destination.
        rd: XReg,
        /// Source.
        frs1: FReg,
    },
    /// Convert between FP widths (`fcvt.d.s` / `fcvt.s.d`).
    FCvtFF {
        /// Result width.
        to: FpWidth,
        /// Destination.
        frd: FReg,
        /// Source.
        frs1: FReg,
    },
    /// Fused multiply-add family.
    FMa {
        /// Variant.
        kind: FMaKind,
        /// Operand width.
        width: FpWidth,
        /// Destination.
        frd: FReg,
        /// Multiplicand.
        frs1: FReg,
        /// Multiplier.
        frs2: FReg,
        /// Addend.
        frs3: FReg,
    },
    /// Configure the vector unit: `rd = vl = min(rs1, VLMAX)` (with the
    /// `rs1 = zero, rd != zero` form requesting VLMAX).
    Vsetvli {
        /// Receives the granted vector length.
        rd: XReg,
        /// Requested application vector length.
        rs1: XReg,
        /// Requested element width/grouping.
        vtype: VType,
    },
    /// Unit-stride vector load (`vle<eew>.v vd, (rs1)`).
    VLoad {
        /// Element width.
        eew: Eew,
        /// Destination vector register.
        vd: VReg,
        /// Base address register.
        rs1: XReg,
    },
    /// Unit-stride vector store (`vse<eew>.v vs3, (rs1)`).
    VStore {
        /// Element width.
        eew: Eew,
        /// Source vector register.
        vs3: VReg,
        /// Base address register.
        rs1: XReg,
    },
    /// Vector arithmetic (unmasked).
    VArith {
        /// Operation.
        op: VArithOp,
        /// Destination vector register.
        vd: VReg,
        /// Vector source operand (`vs2`).
        vs2: VReg,
        /// Second source: vector, scalar or immediate.
        src: VSrc,
    },
    /// Move element 0 of a vector register to an integer register
    /// (`vmv.x.s`).
    VMvXS {
        /// Destination.
        rd: XReg,
        /// Source vector register.
        vs2: VReg,
    },
    /// Move an integer register to element 0 of a vector register
    /// (`vmv.s.x`).
    VMvSX {
        /// Destination vector register.
        vd: VReg,
        /// Source.
        rs1: XReg,
    },
}

impl Inst {
    /// The extension required to execute the instruction (`None` = base
    /// RV64I, always available).
    pub fn ext(&self) -> Option<Ext> {
        match self {
            Inst::Op { kind, .. } => kind.ext(),
            Inst::OpImm { kind, .. } => kind.ext(),
            Inst::Unary { kind, .. } => kind.ext(),
            Inst::FLoad { width, .. }
            | Inst::FStore { width, .. }
            | Inst::FOp { width, .. }
            | Inst::FCmp { width, .. }
            | Inst::FMvToX { width, .. }
            | Inst::FMvToF { width, .. }
            | Inst::FCvtToF { width, .. }
            | Inst::FCvtToInt { width, .. }
            | Inst::FMa { width, .. } => Some(width.ext()),
            Inst::FCvtFF { .. } => Some(Ext::D),
            Inst::Vsetvli { .. }
            | Inst::VLoad { .. }
            | Inst::VStore { .. }
            | Inst::VArith { .. }
            | Inst::VMvXS { .. }
            | Inst::VMvSX { .. } => Some(Ext::V),
            _ => None,
        }
    }

    /// Whether the instruction can execute on a core with profile `profile`
    /// (ignoring the C extension, which is a property of the *encoding*, not
    /// the canonical instruction).
    pub fn runnable_on(&self, profile: ExtSet) -> bool {
        match self.ext() {
            None => true,
            Some(e) => profile.contains(e),
        }
    }

    /// Whether the instruction unconditionally diverts control flow
    /// (`jal`, `jalr`).
    pub fn is_jump(&self) -> bool {
        matches!(self, Inst::Jal { .. } | Inst::Jalr { .. })
    }

    /// Whether the instruction is a conditional branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Whether the instruction ends a basic block (jump, branch, `ecall`,
    /// `ebreak`).
    pub fn is_terminator(&self) -> bool {
        self.is_jump() || self.is_branch() || matches!(self, Inst::Ecall | Inst::Ebreak)
    }

    /// Whether control flow after this instruction is *indirect* (target not
    /// statically known): a `jalr` through any register.
    pub fn is_indirect_jump(&self) -> bool {
        matches!(self, Inst::Jalr { .. })
    }

    /// The integer registers the instruction *reads* (never `zero`:
    /// reading it observes no state).
    pub fn uses_x(&self) -> RegSet {
        let mut v = RegSet::EMPTY;
        match *self {
            Inst::Lui { .. } | Inst::Auipc { .. } | Inst::Jal { .. } => {}
            Inst::Jalr { rs1, .. } => v.insert(rs1),
            Inst::Branch { rs1, rs2, .. } => {
                v.insert(rs1);
                v.insert(rs2);
            }
            Inst::Load { rs1, .. } => v.insert(rs1),
            Inst::Store { rs1, rs2, .. } => {
                v.insert(rs1);
                v.insert(rs2);
            }
            Inst::OpImm { rs1, .. } => v.insert(rs1),
            Inst::Op { rs1, rs2, .. } => {
                v.insert(rs1);
                v.insert(rs2);
            }
            Inst::Unary { rs1, .. } => v.insert(rs1),
            Inst::Fence | Inst::Ecall | Inst::Ebreak => {}
            Inst::FLoad { rs1, .. } | Inst::FStore { rs1, .. } => v.insert(rs1),
            Inst::FOp { .. }
            | Inst::FCmp { .. }
            | Inst::FMvToX { .. }
            | Inst::FCvtToInt { .. }
            | Inst::FCvtFF { .. }
            | Inst::FMa { .. } => {}
            Inst::FMvToF { rs1, .. } | Inst::FCvtToF { rs1, .. } => v.insert(rs1),
            Inst::Vsetvli { rs1, .. } => v.insert(rs1),
            Inst::VLoad { rs1, .. } | Inst::VStore { rs1, .. } => v.insert(rs1),
            Inst::VArith { src, .. } => {
                if let VSrc::X(rs1) = src {
                    v.insert(rs1);
                }
            }
            Inst::VMvXS { .. } => {}
            Inst::VMvSX { rs1, .. } => v.insert(rs1),
        }
        v.remove(XReg::ZERO);
        v
    }

    /// The integer register the instruction *writes*, if any. Writes to
    /// `zero` are reported as `None` (they are architectural no-ops).
    pub fn def_x(&self) -> Option<XReg> {
        let rd = match *self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::OpImm { rd, .. }
            | Inst::Op { rd, .. }
            | Inst::Unary { rd, .. }
            | Inst::FCmp { rd, .. }
            | Inst::FMvToX { rd, .. }
            | Inst::FCvtToInt { rd, .. }
            | Inst::Vsetvli { rd, .. }
            | Inst::VMvXS { rd, .. } => rd,
            _ => return None,
        };
        if rd == XReg::ZERO {
            None
        } else {
            Some(rd)
        }
    }

    /// The vector registers the instruction *reads*: a store's data, a
    /// source of an operation (not the `v0` a move encodes as `vs2`), the
    /// destination of an accumulating row (`vmacc`, `vfmacc`), and the
    /// destination of `vmv.s.x`, whose other elements carry through.
    pub fn uses_v(&self) -> VRegSet {
        let mut v = VRegSet::EMPTY;
        match *self {
            Inst::VStore { vs3, .. } => v.insert(vs3),
            Inst::VArith { op, vd, vs2, src } => {
                let element = op.element();
                if element != Element::Move {
                    v.insert(vs2);
                }
                if let VSrc::V(vs1) = src {
                    v.insert(vs1);
                }
                if matches!(element, Element::Acc(_) | Element::FMa(_)) {
                    v.insert(vd);
                }
            }
            Inst::VMvXS { vs2, .. } => v.insert(vs2),
            Inst::VMvSX { vd, .. } => v.insert(vd),
            _ => {}
        }
        v
    }

    /// The vector register the instruction *writes*, if any.
    pub fn def_v(&self) -> Option<VReg> {
        match *self {
            Inst::VLoad { vd, .. } | Inst::VArith { vd, .. } | Inst::VMvSX { vd, .. } => Some(vd),
            _ => None,
        }
    }

    /// The statically known control-flow target of a direct jump or branch,
    /// given the instruction's own address. `None` for non-control-flow
    /// instructions and for indirect jumps.
    pub fn direct_target(&self, addr: u64) -> Option<u64> {
        match *self {
            Inst::Jal { offset, .. } | Inst::Branch { offset, .. } => {
                Some(addr.wrapping_add(offset as i64 as u64))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_classification() {
        let add = Inst::Op {
            kind: OpKind::Add,
            rd: XReg::A0,
            rs1: XReg::A1,
            rs2: XReg::A2,
        };
        assert_eq!(add.ext(), None);
        assert!(add.runnable_on(ExtSet::RV64I));

        let mul = Inst::Op {
            kind: OpKind::Mul,
            rd: XReg::A0,
            rs1: XReg::A1,
            rs2: XReg::A2,
        };
        assert_eq!(mul.ext(), Some(Ext::M));
        assert!(!mul.runnable_on(ExtSet::RV64I));
        assert!(mul.runnable_on(ExtSet::RV64GC));

        let vadd = Inst::VArith {
            op: VArithOp::Vadd,
            vd: VReg::of(1),
            vs2: VReg::of(2),
            src: VSrc::V(VReg::of(3)),
        };
        assert_eq!(vadd.ext(), Some(Ext::V));
        assert!(!vadd.runnable_on(ExtSet::RV64GC));
        assert!(vadd.runnable_on(ExtSet::RV64GCV));
    }

    #[test]
    fn defs_and_uses() {
        let i = Inst::Op {
            kind: OpKind::Add,
            rd: XReg::A0,
            rs1: XReg::A1,
            rs2: XReg::A2,
        };
        assert_eq!(i.def_x(), Some(XReg::A0));
        assert_eq!(i.uses_x().iter().collect::<Vec<_>>(), [XReg::A1, XReg::A2]);

        // Writes to zero are architectural no-ops.
        let nop = Inst::OpImm {
            kind: OpImmKind::Addi,
            rd: XReg::ZERO,
            rs1: XReg::ZERO,
            imm: 0,
        };
        assert_eq!(nop.def_x(), None);
        assert_eq!(nop.uses_x(), RegSet::EMPTY);

        let st = Inst::Store {
            kind: StoreKind::Sd,
            rs1: XReg::SP,
            rs2: XReg::A0,
            offset: 8,
        };
        assert_eq!(st.def_x(), None);
        assert_eq!(st.uses_x().iter().collect::<Vec<_>>(), [XReg::SP, XReg::A0]);
    }

    #[test]
    fn vector_defs_and_uses() {
        let v = VReg::of;
        let uses = |i: Inst| i.uses_v().iter().collect::<Vec<_>>();
        let (vd, vs2) = (v(3), v(1));
        let macc = Inst::VArith {
            op: VArithOp::Vmacc,
            vd,
            vs2,
            src: VSrc::V(v(2)),
        };
        assert_eq!(
            (uses(macc), macc.def_v()),
            (vec![v(1), v(2), v(3)], Some(vd))
        );
        // A move reads its source, not the `v0` it encodes as `vs2`.
        let (op, vs2) = (VArithOp::Vmv, VReg::V0);
        let mv = Inst::VArith {
            op,
            vd,
            vs2,
            src: VSrc::X(XReg::A0),
        };
        assert_eq!((uses(mv), mv.def_v()), (vec![], Some(vd)));
        let fold = Inst::VArith {
            op: VArithOp::Vredsum,
            vd,
            vs2: v(1),
            src: VSrc::V(v(4)),
        };
        assert_eq!(uses(fold), [v(1), v(4)]);
        let (eew, rs1) = (crate::Eew::E64, XReg::A0);
        let load = Inst::VLoad { eew, vd, rs1 };
        assert_eq!((uses(load), load.def_v()), (vec![], Some(vd)));
        let store = Inst::VStore { eew, vs3: vd, rs1 };
        assert_eq!((uses(store), store.def_v()), (vec![vd], None));
        let to_x = Inst::VMvXS { rd: rs1, vs2: vd };
        assert_eq!((uses(to_x), to_x.def_v()), (vec![vd], None));
        // `vmv.s.x` writes element 0; the others carry through.
        let to_v = Inst::VMvSX { vd, rs1 };
        assert_eq!((uses(to_v), to_v.def_v()), (vec![vd], Some(vd)));
    }

    #[test]
    fn control_flow_properties() {
        let jal = Inst::Jal {
            rd: XReg::RA,
            offset: 64,
        };
        assert!(jal.is_jump());
        assert!(!jal.is_indirect_jump());
        assert_eq!(jal.direct_target(0x1000), Some(0x1040));

        let jalr = Inst::Jalr {
            rd: XReg::ZERO,
            rs1: XReg::A0,
            offset: 0,
        };
        assert!(jalr.is_indirect_jump());
        assert_eq!(jalr.direct_target(0x1000), None);

        let b = Inst::Branch {
            kind: BranchKind::Beq,
            rs1: XReg::A0,
            rs2: XReg::A1,
            offset: -8,
        };
        assert!(b.is_branch());
        assert!(b.is_terminator());
        assert_eq!(b.direct_target(0x1008), Some(0x1000));
    }

    #[test]
    fn vtype_bits_roundtrip() {
        for sew in [Eew::E8, Eew::E16, Eew::E32, Eew::E64] {
            for lmul in [1u8, 2, 4, 8] {
                for ta in [false, true] {
                    for ma in [false, true] {
                        let vt = VType { sew, lmul, ta, ma };
                        assert_eq!(VType::from_bits(vt.to_bits()), Some(vt));
                    }
                }
            }
        }
        // Fractional LMUL encodings are outside the subset.
        assert_eq!(VType::from_bits(0b101), None);
    }

    #[test]
    fn display_smoke() {
        let i = Inst::Vsetvli {
            rd: XReg::T0,
            rs1: XReg::A0,
            vtype: VType {
                sew: Eew::E64,
                lmul: 1,
                ta: true,
                ma: true,
            },
        };
        assert_eq!(i.to_string(), "vsetvli t0, a0, e64, m1, ta, ma");

        let l = Inst::Load {
            kind: LoadKind::Ld,
            rd: XReg::A0,
            rs1: XReg::SP,
            offset: 16,
        };
        assert_eq!(l.to_string(), "ld a0, 16(sp)");
    }
}
