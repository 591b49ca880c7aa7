//! The deterministic cycle-cost model.
//!
//! The reproduction does not model micro-architecture; it assigns each
//! instruction a fixed cost, scaled for vector operations by the number of
//! active elements. What matters for the paper's comparisons is the *ratio*
//! between (a) an inline SMILE trampoline (two ordinary instructions),
//! (b) a trap-based trampoline (a kernel round trip, [`CostModel::trap`]),
//! and (c) a Safer-style indirect-jump check (a short check sequence that
//! really exists as instructions in the rewritten binary) — those ratios are
//! what produce the Fig. 13 shape.

use chimera_isa::{CostClass, Inst};

/// Per-instruction-class cycle costs.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Simple ALU / control transfer.
    pub base: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide/remainder.
    pub div: u64,
    /// Memory load.
    pub load: u64,
    /// Memory store.
    pub store: u64,
    /// Taken-branch / jump penalty (front-end redirect).
    pub redirect: u64,
    /// FP add/mul/FMA.
    pub fp: u64,
    /// FP divide.
    pub fp_div: u64,
    /// Vector instruction fixed overhead.
    pub vec_issue: u64,
    /// Vector cost per lane pair (the datapath retires 128 bits of vector
    /// work per cycle, matching dual-issue 256-bit-VLEN silicon).
    pub vec_lane: u64,
    /// Kernel trap round trip (trap-based trampolines, fault handling).
    pub trap: u64,
    /// A task-migration between cores (scheduler + context + cache warmup).
    pub migrate: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base: 1,
            mul: 3,
            div: 20,
            load: 2,
            store: 2,
            redirect: 2,
            fp: 3,
            fp_div: 18,
            vec_issue: 1,
            vec_lane: 1,
            trap: 800,
            migrate: 4000,
        }
    }
}

impl CostModel {
    /// The cycles this model assigns to a cost class of the ISA tables.
    fn class(&self, class: CostClass) -> u64 {
        match class {
            CostClass::Alu => self.base,
            CostClass::Mul => self.mul,
            CostClass::Div => self.div,
            CostClass::Fp => self.fp,
            CostClass::FpDiv => self.fp_div,
        }
    }

    /// The cycle cost of executing `inst` with `vl` active vector elements
    /// of the current SEW (ignored for scalar instructions). `taken` is
    /// whether a control transfer actually redirected.
    pub fn cost(&self, inst: &Inst, vl_words: u64, taken: bool) -> u64 {
        let redirect = if taken { self.redirect } else { 0 };
        let lanes = vl_words.div_ceil(2);
        match inst {
            Inst::Load { .. } | Inst::FLoad { .. } => self.load,
            Inst::Store { .. } | Inst::FStore { .. } => self.store,
            Inst::Jal { .. } | Inst::Jalr { .. } => self.base + self.redirect,
            Inst::Branch { .. } => self.base + redirect,
            Inst::Op { kind, .. } => self.class(kind.cost_class()),
            Inst::FOp { kind, .. } => self.class(kind.cost_class()),
            Inst::FMa { .. } => self.fp,
            Inst::FCmp { .. }
            | Inst::FMvToX { .. }
            | Inst::FMvToF { .. }
            | Inst::FCvtToF { .. }
            | Inst::FCvtToInt { .. }
            | Inst::FCvtFF { .. } => self.fp,
            Inst::Vsetvli { .. } => self.base,
            Inst::VLoad { .. } => self.load + self.vec_issue + self.vec_lane * lanes,
            Inst::VStore { .. } => self.store + self.vec_issue + self.vec_lane * lanes,
            Inst::VArith { op, .. } => self.vec_issue + op.cost_scale() * self.vec_lane * lanes,
            Inst::VMvXS { .. } | Inst::VMvSX { .. } => self.vec_issue + self.vec_lane,
            _ => self.base,
        }
    }

    /// The `(not taken, taken)` cycle costs of `inst` with zero active
    /// vector elements — what the micro-op lowering (`crate::uop`)
    /// pre-computes once per cached instruction. Only sound for non-vector
    /// instructions (vector costs depend on the live `vl`); the lowering
    /// guarantees this by routing vector instructions through its generic
    /// path, and the `vl_words_only_affects_vector_costs` test pins the
    /// model side of that contract.
    pub fn static_costs(&self, inst: &Inst) -> (u64, u64) {
        (self.cost(inst, 0, false), self.cost(inst, 0, true))
    }
}

/// Execution statistics accumulated by a CPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Retired instructions.
    pub instret: u64,
    /// Accumulated cycles under the cost model.
    pub cycles: u64,
    /// Executed vector-extension instructions.
    pub vector_insts: u64,
    /// Executed indirect jumps (`jalr`).
    pub indirect_jumps: u64,
    /// Executed conditional branches.
    pub branches: u64,
    /// Executed loads (scalar + vector).
    pub loads: u64,
    /// Executed stores (scalar + vector).
    pub stores: u64,
    /// `ebreak` executions (trap-based trampolines in baselines).
    pub ebreaks: u64,
}

impl ExecStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.instret += other.instret;
        self.cycles += other.cycles;
        self.vector_insts += other.vector_insts;
        self.indirect_jumps += other.indirect_jumps;
        self.branches += other.branches;
        self.loads += other.loads;
        self.stores += other.stores;
        self.ebreaks += other.ebreaks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_isa::XReg;

    #[test]
    fn trap_dwarfs_trampoline() {
        let m = CostModel::default();
        let jalr = Inst::Jalr {
            rd: XReg::GP,
            rs1: XReg::GP,
            offset: 0,
        };
        let auipc = Inst::Auipc {
            rd: XReg::GP,
            imm20: 0,
        };
        let smile = m.cost(&auipc, 0, false) + m.cost(&jalr, 0, true);
        assert!(
            m.trap > 50 * smile,
            "trap must be orders of magnitude above a SMILE trampoline"
        );
    }

    #[test]
    fn vl_words_only_affects_vector_costs() {
        // The interpreter computes `vl_words` lazily, passing 0 for every
        // non-vector instruction; that is only sound while vector loads,
        // stores and arithmetic are the sole variants whose cost reads it.
        let m = CostModel::default();
        let scalars = [
            Inst::Lui {
                rd: XReg::GP,
                imm20: 1,
            },
            Inst::Jalr {
                rd: XReg::GP,
                rs1: XReg::GP,
                offset: 0,
            },
            Inst::Load {
                kind: chimera_isa::LoadKind::Ld,
                rd: XReg::GP,
                rs1: XReg::SP,
                offset: 0,
            },
            Inst::Store {
                kind: chimera_isa::StoreKind::Sd,
                rs1: XReg::SP,
                rs2: XReg::GP,
                offset: 0,
            },
            Inst::Vsetvli {
                rd: XReg::GP,
                rs1: XReg::GP,
                vtype: chimera_isa::VType {
                    sew: chimera_isa::Eew::E64,
                    lmul: 1,
                    ta: true,
                    ma: true,
                },
            },
            Inst::Ecall,
            Inst::Ebreak,
            chimera_isa::nop(),
        ];
        for inst in scalars {
            for taken in [false, true] {
                assert_eq!(
                    m.cost(&inst, 0, taken),
                    m.cost(&inst, 1000, taken),
                    "{inst:?} cost must not depend on vl_words"
                );
            }
        }
    }

    #[test]
    fn vector_cost_scales_with_elements() {
        let m = CostModel::default();
        let v = Inst::VArith {
            op: chimera_isa::VArithOp::Vadd,
            vd: chimera_isa::VReg::of(1),
            vs2: chimera_isa::VReg::of(2),
            src: chimera_isa::VSrc::V(chimera_isa::VReg::of(3)),
        };
        assert!(m.cost(&v, 8, false) > m.cost(&v, 2, false));
    }
}
