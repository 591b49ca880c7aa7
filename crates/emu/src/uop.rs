//! The micro-op IR every cached tier runs from.
//!
//! A block is built in one pass (`Cpu::build_block`): each instruction is
//! decoded straight from its region's bytes and lowered on the spot into a
//! reused scratch buffer, which is then copied once into the block's
//! exact-size `Box<[Uop]>`. The micro-ops are the block's only copy of its
//! instructions: the engine runs them, the JIT compiles them, and the
//! interpreter replays [`Uop::inst`] — the inverse of [`lower`] — through
//! `Cpu::exec`.
//!
//! Blocks used to be built twice over: a fetch loop filled a growing
//! `Vec<CachedInst>` (instruction, length, store flag), fetching parcel by
//! parcel through `Memory` with one or two region lookups per
//! instruction; a second pass lowered it into the micro-ops, and the block
//! kept both copies. On `launch_cold`, where every block is cold,
//! `omnetpp_r` builds 14,050 blocks for 443,141 retired instructions; with
//! the one-pass build (and the block map's multiplicative hash, see
//! `crate::bbcache`) its engine run fell from 8.6 to 5.4 ms, `guest_mips`
//! 51.8 → 82.1 (medians of ten alternating runs a side, 2-vCPU AMD EPYC
//! host).
//!
//! Executing a decoded [`Inst`] pays three full `Inst` matches per retired
//! instruction: one in `Cpu::exec`, one in `CostModel::cost`, and one for
//! the lazy `vl_words` computation. Lowering replaces all of that with a
//! single dispatch over [`MicroOp`]: operands are pre-extracted into flat
//! fields (immediates pre-shifted, kept as `i32` — the sign-extending
//! widen is free at execution time — so a [`Uop`] packs into 20 bytes and
//! hot uop buffers stay cache-resident), and the deterministic cycle cost
//! is pre-computed per micro-op at build time (see
//! [`crate::CostModel::static_costs`]).
//!
//! Lowering is *specialization, not reimplementation*: the hot scalar
//! operations get dedicated variants whose execution mirrors `Cpu::exec`
//! line for line (sharing the ISA tables' `Kind::eval` value functions),
//! and everything else — vector, FP arithmetic,
//! converts, `ecall`/`ebreak` — falls back to [`MicroOp::Generic`], which
//! delegates to `Cpu::exec` itself. The differential suite asserts the
//! engine is bit-identical to the interpreter, including `ExecStats` cycle
//! accounting, trap pcs and `TraceEvent` counts.
//!
//! Cost pre-computation is only sound while the [`crate::CostModel`] is not
//! mutated after blocks have been built (nothing in the workspace does);
//! vector costs depend on the live `vl`, which is why vector instructions
//! always take the generic path.

use crate::cost::CostModel;
use chimera_isa::{
    BranchKind, FReg, FpWidth, Inst, LoadKind, OpImmKind, OpKind, StoreKind, UnaryKind, XReg,
};

/// One pre-lowered operation. Hot scalar instructions are specialized with
/// pre-extracted operands; everything else delegates to `Cpu::exec` via
/// [`MicroOp::Generic`].
#[derive(Debug, Clone, Copy)]
pub enum MicroOp {
    /// `lui rd, imm20` with the shifted immediate pre-computed.
    Lui {
        /// Destination register.
        rd: XReg,
        /// `imm20 << 12` (sign-extended to 64 bits at execution time; kept
        /// as i32 so the whole micro-op stays pointer-size small).
        imm: i32,
    },
    /// `auipc rd, imm20` with the shifted immediate pre-computed.
    Auipc {
        /// Destination register.
        rd: XReg,
        /// `imm20 << 12`; sign-extended and added to pc at run time.
        imm: i32,
    },
    /// `jal rd, offset` (always-taken direct jump; ends the block).
    Jal {
        /// Link register.
        rd: XReg,
        /// pc-relative offset (sign-extended at execution time).
        offset: i32,
    },
    /// `jalr rd, offset(rs1)` (indirect jump; ends the block, and the
    /// jump cache finds its target like any other successor).
    Jalr {
        /// Link register.
        rd: XReg,
        /// Target base register.
        rs1: XReg,
        /// Base-relative offset (sign-extended at execution time).
        offset: i32,
    },
    /// Conditional branch; ends the block whichever way it goes.
    Branch {
        /// Comparison kind.
        kind: BranchKind,
        /// Left operand register.
        rs1: XReg,
        /// Right operand register.
        rs2: XReg,
        /// pc-relative offset (sign-extended at execution time).
        offset: i32,
        /// Pre-computed cycle cost when the branch redirects (the not-taken
        /// cost lives in [`Uop::cost`]).
        taken_cost: u32,
    },
    /// Scalar load.
    Load {
        /// Width/sign kind.
        kind: LoadKind,
        /// Destination register.
        rd: XReg,
        /// Base register.
        rs1: XReg,
        /// Base-relative offset (sign-extended at execution time).
        offset: i32,
    },
    /// Scalar store.
    Store {
        /// Width kind.
        kind: StoreKind,
        /// Base register.
        rs1: XReg,
        /// Value register.
        rs2: XReg,
        /// Base-relative offset (sign-extended at execution time).
        offset: i32,
    },
    /// `addi rd, rs1, imm` — the single most common instruction in
    /// compiled RISC-V code, flattened so it dispatches in one match
    /// instead of two (the [`MicroOp`] match plus the kind match inside
    /// `OpImmKind::eval`).
    ///
    /// Why the seven flattened variants stay: folding them into
    /// [`MicroOp::OpImm`] / [`MicroOp::Op`] removes 189 lines but made
    /// `exec_steady` slower (`pipeline_e2e --seed 1 --seconds 25`,
    /// untraced, 2-vCPU host, alternating order): `guest_mips` fell in 9 of
    /// 10 pairs, median −7.5 % (parent 102.0 / 111.3 / 107.2 / 82.4 /
    /// 121.4, change 74.1 / 99.2 / 99.2 / 97.8 / 105.9), and −14.8 % with
    /// `OpImmKind::eval` at `#[inline(always)]` (parent 128.9 / 111.5 /
    /// 119.4 / 116.8 / 119.3, change 106.3 / 106.3 / 93.8 / 92.8 / 101.7).
    /// Every `sim_*` metric was bit-equal.
    Addi {
        /// Destination register.
        rd: XReg,
        /// Source register.
        rs1: XReg,
        /// Immediate (sign-extended at execution time).
        imm: i32,
    },
    /// `andi rd, rs1, imm`, flattened (see [`MicroOp::Addi`]).
    Andi {
        /// Destination register.
        rd: XReg,
        /// Source register.
        rs1: XReg,
        /// Immediate (sign-extended at execution time).
        imm: i32,
    },
    /// `slli rd, rs1, shamt`, flattened (every decoded shift amount is in
    /// 0..64; any other keeps [`MicroOp::OpImm`]).
    Slli {
        /// Destination register.
        rd: XReg,
        /// Source register.
        rs1: XReg,
        /// Shift amount, in 0..64.
        shamt: u8,
    },
    /// `srli rd, rs1, shamt`, flattened (every decoded shift amount is in
    /// 0..64; any other keeps [`MicroOp::OpImm`]).
    Srli {
        /// Destination register.
        rd: XReg,
        /// Source register.
        rs1: XReg,
        /// Shift amount, in 0..64.
        shamt: u8,
    },
    /// `add rd, rs1, rs2`, flattened (see [`MicroOp::Addi`]).
    Add {
        /// Destination register.
        rd: XReg,
        /// Left source register.
        rs1: XReg,
        /// Right source register.
        rs2: XReg,
    },
    /// `sub rd, rs1, rs2`, flattened.
    Sub {
        /// Destination register.
        rd: XReg,
        /// Left source register.
        rs1: XReg,
        /// Right source register.
        rs2: XReg,
    },
    /// `xor rd, rs1, rs2`, flattened.
    Xor {
        /// Destination register.
        rd: XReg,
        /// Left source register.
        rs1: XReg,
        /// Right source register.
        rs2: XReg,
    },
    /// Register-immediate ALU op (executes via the shared `OpImmKind::eval`).
    /// The hottest kinds are flattened into dedicated variants above; this
    /// is the catch-all for the rest.
    OpImm {
        /// Operation kind.
        kind: OpImmKind,
        /// Destination register.
        rd: XReg,
        /// Source register.
        rs1: XReg,
        /// Raw immediate (sign/shift handling is kind-specific, so it stays
        /// in the shared value function).
        imm: i32,
    },
    /// Register-register ALU op (executes via the shared `OpKind::eval`).
    Op {
        /// Operation kind.
        kind: OpKind,
        /// Destination register.
        rd: XReg,
        /// Left source register.
        rs1: XReg,
        /// Right source register.
        rs2: XReg,
    },
    /// Single-source bit-manipulation op (shared `UnaryKind::eval`).
    Unary {
        /// Operation kind.
        kind: UnaryKind,
        /// Destination register.
        rd: XReg,
        /// Source register.
        rs1: XReg,
    },
    /// `fence` (a no-op in this memory model).
    Fence,
    /// FP load (NaN-boxing handled exactly as in `Cpu::exec`).
    FLoad {
        /// Access width.
        width: FpWidth,
        /// Destination FP register.
        frd: FReg,
        /// Base register.
        rs1: XReg,
        /// Base-relative offset (sign-extended at execution time).
        offset: i32,
    },
    /// FP store.
    FStore {
        /// Access width.
        width: FpWidth,
        /// Value FP register.
        frs2: FReg,
        /// Base register.
        rs1: XReg,
        /// Base-relative offset (sign-extended at execution time).
        offset: i32,
    },
    /// Everything else (vector, FP arithmetic/converts, `ecall`/`ebreak`):
    /// delegates to `Cpu::exec`, which does its own pc/cost/stats
    /// accounting — transparency for cold operations by construction.
    Generic(Inst),
}

/// One lowered instruction: the micro-op plus the per-instruction metadata
/// the engine's inner loop needs without touching the original `Inst`.
#[derive(Debug, Clone, Copy)]
pub struct Uop {
    /// The operation.
    pub op: MicroOp,
    /// Encoded length in bytes (2 or 4), for the pc advance.
    pub len: u8,
    /// Pre-computed cycle cost (for branches: the not-taken cost). Unused
    /// for [`MicroOp::Generic`], whose cost `Cpu::exec` accounts itself.
    pub cost: u32,
    /// Whether this instruction can store to memory (drives the mid-block
    /// self-modification re-check, same as the interpreter).
    pub is_store: bool,
}

/// Lowers one decoded instruction of `len` bytes (2 or 4).
///
/// Exact: [`Uop::inst`] gives `inst` back for every instruction `decode`
/// produces (`tests/lower_space.rs` checks every halfword and word).
pub fn lower(inst: Inst, len: u8, cost: &CostModel) -> Uop {
    let (not_taken, taken) = cost.static_costs(&inst);
    let op = match inst {
        Inst::Lui { rd, imm20 } => MicroOp::Lui {
            rd,
            imm: imm20 << 12,
        },
        Inst::Auipc { rd, imm20 } => MicroOp::Auipc {
            rd,
            imm: imm20 << 12,
        },
        Inst::Jal { rd, offset } => MicroOp::Jal { rd, offset },
        Inst::Jalr { rd, rs1, offset } => MicroOp::Jalr { rd, rs1, offset },
        Inst::Branch {
            kind,
            rs1,
            rs2,
            offset,
        } => MicroOp::Branch {
            kind,
            rs1,
            rs2,
            offset,
            taken_cost: taken as u32,
        },
        Inst::Load {
            kind,
            rd,
            rs1,
            offset,
        } => MicroOp::Load {
            kind,
            rd,
            rs1,
            offset,
        },
        Inst::Store {
            kind,
            rs1,
            rs2,
            offset,
        } => MicroOp::Store {
            kind,
            rs1,
            rs2,
            offset,
        },
        // The hottest ALU kinds collapse to single-dispatch variants whose
        // semantics mirror the `OpImmKind::eval` / `OpKind::eval` rows
        // exactly. A shift amount outside 0..64 (no decoded word has one)
        // keeps the row, so `Uop::inst` can give the immediate back.
        Inst::OpImm {
            kind: OpImmKind::Addi,
            rd,
            rs1,
            imm,
        } => MicroOp::Addi { rd, rs1, imm },
        Inst::OpImm {
            kind: OpImmKind::Andi,
            rd,
            rs1,
            imm,
        } => MicroOp::Andi { rd, rs1, imm },
        Inst::OpImm {
            kind: OpImmKind::Slli,
            rd,
            rs1,
            imm: imm @ 0..64,
        } => MicroOp::Slli {
            rd,
            rs1,
            shamt: imm as u8,
        },
        Inst::OpImm {
            kind: OpImmKind::Srli,
            rd,
            rs1,
            imm: imm @ 0..64,
        } => MicroOp::Srli {
            rd,
            rs1,
            shamt: imm as u8,
        },
        Inst::Op {
            kind: OpKind::Add,
            rd,
            rs1,
            rs2,
        } => MicroOp::Add { rd, rs1, rs2 },
        Inst::Op {
            kind: OpKind::Sub,
            rd,
            rs1,
            rs2,
        } => MicroOp::Sub { rd, rs1, rs2 },
        Inst::Op {
            kind: OpKind::Xor,
            rd,
            rs1,
            rs2,
        } => MicroOp::Xor { rd, rs1, rs2 },
        Inst::OpImm { kind, rd, rs1, imm } => MicroOp::OpImm { kind, rd, rs1, imm },
        Inst::Op { kind, rd, rs1, rs2 } => MicroOp::Op { kind, rd, rs1, rs2 },
        Inst::Unary { kind, rd, rs1 } => MicroOp::Unary { kind, rd, rs1 },
        Inst::Fence => MicroOp::Fence,
        Inst::FLoad {
            width,
            frd,
            rs1,
            offset,
        } => MicroOp::FLoad {
            width,
            frd,
            rs1,
            offset,
        },
        Inst::FStore {
            width,
            frs2,
            rs1,
            offset,
        } => MicroOp::FStore {
            width,
            frs2,
            rs1,
            offset,
        },
        inst => MicroOp::Generic(inst),
    };
    // Costs come from a static model whose per-instruction values are tiny
    // (single digits); the narrowing is lossless and keeps `Uop` at 20
    // bytes so hot uop buffers stay cache-resident.
    debug_assert!(not_taken <= u32::MAX as u64 && taken <= u32::MAX as u64);
    Uop {
        op,
        len,
        cost: not_taken as u32,
        is_store: matches!(
            inst,
            Inst::Store { .. } | Inst::FStore { .. } | Inst::VStore { .. }
        ),
    }
}

impl Uop {
    /// The instruction this micro-op was lowered from: the inverse of
    /// [`lower`]. The interpreter replays blocks through it.
    pub fn inst(&self) -> Inst {
        match self.op {
            MicroOp::Lui { rd, imm } => Inst::Lui {
                rd,
                imm20: imm >> 12,
            },
            MicroOp::Auipc { rd, imm } => Inst::Auipc {
                rd,
                imm20: imm >> 12,
            },
            MicroOp::Jal { rd, offset } => Inst::Jal { rd, offset },
            MicroOp::Jalr { rd, rs1, offset } => Inst::Jalr { rd, rs1, offset },
            MicroOp::Branch {
                kind,
                rs1,
                rs2,
                offset,
                ..
            } => Inst::Branch {
                kind,
                rs1,
                rs2,
                offset,
            },
            MicroOp::Load {
                kind,
                rd,
                rs1,
                offset,
            } => Inst::Load {
                kind,
                rd,
                rs1,
                offset,
            },
            MicroOp::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => Inst::Store {
                kind,
                rs1,
                rs2,
                offset,
            },
            MicroOp::Addi { rd, rs1, imm } => op_imm(OpImmKind::Addi, rd, rs1, imm),
            MicroOp::Andi { rd, rs1, imm } => op_imm(OpImmKind::Andi, rd, rs1, imm),
            MicroOp::Slli { rd, rs1, shamt } => op_imm(OpImmKind::Slli, rd, rs1, shamt.into()),
            MicroOp::Srli { rd, rs1, shamt } => op_imm(OpImmKind::Srli, rd, rs1, shamt.into()),
            MicroOp::Add { rd, rs1, rs2 } => Inst::Op {
                kind: OpKind::Add,
                rd,
                rs1,
                rs2,
            },
            MicroOp::Sub { rd, rs1, rs2 } => Inst::Op {
                kind: OpKind::Sub,
                rd,
                rs1,
                rs2,
            },
            MicroOp::Xor { rd, rs1, rs2 } => Inst::Op {
                kind: OpKind::Xor,
                rd,
                rs1,
                rs2,
            },
            MicroOp::OpImm { kind, rd, rs1, imm } => op_imm(kind, rd, rs1, imm),
            MicroOp::Op { kind, rd, rs1, rs2 } => Inst::Op { kind, rd, rs1, rs2 },
            MicroOp::Unary { kind, rd, rs1 } => Inst::Unary { kind, rd, rs1 },
            MicroOp::Fence => Inst::Fence,
            MicroOp::FLoad {
                width,
                frd,
                rs1,
                offset,
            } => Inst::FLoad {
                width,
                frd,
                rs1,
                offset,
            },
            MicroOp::FStore {
                width,
                frs2,
                rs1,
                offset,
            } => Inst::FStore {
                width,
                frs2,
                rs1,
                offset,
            },
            MicroOp::Generic(inst) => inst,
        }
    }
}

fn op_imm(kind: OpImmKind, rd: XReg, rs1: XReg, imm: i32) -> Inst {
    Inst::OpImm { kind, rd, rs1, imm }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_precomputed_from_the_model() {
        let m = CostModel::default();
        let load = Inst::Load {
            kind: LoadKind::Ld,
            rd: XReg::A0,
            rs1: XReg::SP,
            offset: 8,
        };
        assert_eq!(u64::from(lower(load, 4, &m).cost), m.load);
        let br = Inst::Branch {
            kind: BranchKind::Beq,
            rs1: XReg::A0,
            rs2: XReg::A1,
            offset: -8,
        };
        let u = lower(br, 4, &m);
        assert_eq!(u64::from(u.cost), m.base);
        match u.op {
            MicroOp::Branch { taken_cost, .. } => {
                assert_eq!(u64::from(taken_cost), m.base + m.redirect)
            }
            other => panic!("expected Branch, got {other:?}"),
        }
    }

    #[test]
    fn vector_and_system_ops_stay_generic() {
        let m = CostModel::default();
        for inst in [Inst::Ecall, Inst::Ebreak] {
            assert!(matches!(lower(inst, 4, &m).op, MicroOp::Generic(_)));
        }
    }

    #[test]
    fn immediates_are_sign_extended() {
        let m = CostModel::default();
        let jal = Inst::Jal {
            rd: XReg::RA,
            offset: -4,
        };
        match lower(jal, 4, &m).op {
            MicroOp::Jal { offset, .. } => assert_eq!(offset, -4),
            other => panic!("expected Jal, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_shift_amounts_keep_their_row() {
        let m = CostModel::default();
        let slli = Inst::OpImm {
            kind: OpImmKind::Slli,
            rd: XReg::A0,
            rs1: XReg::A1,
            imm: 64,
        };
        let u = lower(slli, 4, &m);
        assert!(matches!(u.op, MicroOp::OpImm { .. }), "{u:?}");
        assert_eq!(u.inst(), slli);
    }
}
