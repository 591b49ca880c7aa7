//! Target-instruction generation (§4.1): semantics-preserving translation
//! of extension instructions into base-ISA sequences.
//!
//! Two register problems the paper calls out are handled here:
//!
//! * **Extra base registers.** Translations borrow scratch registers
//!   (`t2`..`t6`, `ft8`..`ft10`) and save/restore them in a dedicated
//!   scratch area, first-in last-out, so the surrounding program never sees
//!   them change. The pointer used to reach the scratch area is `gp` itself
//!   — legal precisely because the psABI makes `gp` a link-time constant the
//!   translation can re-materialize at any point (the same property SMILE
//!   exploits).
//! * **Simulated extension registers.** Vector state (`v0..v31`, `vl`, the
//!   selected element width) lives in a read-write `.chimera.vregs` section
//!   appended to the rewritten binary ([`SpillLayout`]), so the computation
//!   context survives migration between cores exactly as §4.1 requires.
//!
//! A [`Translator`] is a `Copy` value — the spill base and the ABI `gp`,
//! the only two things a template materializes that belong to the binary
//! rather than to the instruction. Emission changes nothing in it (local
//! labels are the emitter's), so one is built per scanned unit set, per
//! regeneration scan and per kernel runner, and shared by reference.
//!
//! Supported downgrades: the whole modelled RVV subset at `e32`/`e64` with
//! `m1` grouping (the element width is dispatched at runtime from the
//! spilled `vtype`), and the Zba/Zbb subset. [`Translator::can_downgrade`]
//! is the one statement of that set: the rewriters ask it before they
//! form a unit, and `downgrade*` ask it first and report
//! [`Untranslatable`] for anything else, which then stays the original
//! instruction (the kernel migrates the task when it faults).

use crate::emitter::BlockEmitter;
use chimera_isa::{
    BranchKind, Eew, Element, Ext, FReg, FpWidth, Inst, LoadKind, OpImmKind, OpKind, StoreKind,
    UnaryKind, VArithOp, VReg, VSrc, XReg, VLEN,
};

/// Layout of the `.chimera.vregs` spill section.
#[derive(Debug, Clone, Copy)]
pub struct SpillLayout {
    /// Base address of the section.
    pub base: u64,
}

impl SpillLayout {
    /// Total section size in bytes.
    pub const SIZE: usize = 128 + 32 * (VLEN as usize / 8);
    /// Offset of the current vector length (u64).
    pub const VL: i32 = 0;
    /// Offset of the current element width in bytes (u64: 4 or 8).
    pub const SEW: i32 = 8;
    /// Offset of the scalar-operand staging slot.
    pub const RESULT: i32 = 104;
    /// Offset of the simulated vector register file.
    pub const VREGS: i32 = 128;

    /// Save-slot offset for an integer scratch register.
    pub(crate) fn x_slot(r: XReg) -> i32 {
        match r {
            XReg::T2 => 16,
            XReg::T3 => 24,
            XReg::T4 => 32,
            XReg::T5 => 40,
            XReg::T6 => 48,
            _ => panic!("{r} is not a translation scratch register"),
        }
    }

    /// Save-slot offset for an FP scratch register.
    pub(crate) fn f_slot(r: FReg) -> i32 {
        match r.index() {
            28 => 56,
            29 => 64,
            30 => 72,
            _ => panic!("{r} is not a translation FP scratch register"),
        }
    }

    /// Offset of element 0 of simulated vector register `v`.
    pub fn vreg_off(v: VReg) -> i32 {
        Self::VREGS + (VLEN as i32 / 8) * v.index() as i32
    }
}

/// The instruction has no downgrade template; the rewriter leaves it as it
/// is (it faults on a core that lacks it and the kernel migrates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Untranslatable(pub Inst);

impl core::fmt::Display for Untranslatable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no downgrade template for {}", self.0)
    }
}

impl std::error::Error for Untranslatable {}

/// The integer scratch pool, in preference order.
const X_POOL: [XReg; 5] = [XReg::T2, XReg::T3, XReg::T4, XReg::T5, XReg::T6];
/// The FP scratch pool.
const F_SCRATCH: [FReg; 3] = [FReg::of(28), FReg::of(29), FReg::of(30)];

/// Translates extension instructions to base sequences. A value: the two
/// addresses every template materializes, and nothing an emission changes.
#[derive(Debug, Clone, Copy)]
pub struct Translator {
    /// Spill-section layout.
    pub spill: SpillLayout,
    /// The ABI `gp` value to re-materialize after clobbering.
    pub abi_gp: u64,
}

impl Translator {
    /// Creates a translator for a binary whose spill section is at
    /// `spill_base` and whose psABI `gp` is `abi_gp`.
    pub fn new(spill_base: u64, abi_gp: u64) -> Self {
        Translator {
            spill: SpillLayout { base: spill_base },
            abi_gp,
        }
    }

    /// Emits `gp = abi_gp`.
    pub fn restore_gp(&self, em: &mut BlockEmitter) {
        em.li32(XReg::GP, self.abi_gp as i64);
    }

    fn spill_gp(&self, em: &mut BlockEmitter) {
        em.li32(XReg::GP, self.spill.base as i64);
    }

    /// Whether `inst` is a vector instruction that can participate in a
    /// translation *sequence* (shared scratch save/restore; the §4.2
    /// batching optimization applied at the translation level).
    pub fn sequenceable(inst: &Inst) -> bool {
        matches!(
            inst,
            Inst::Vsetvli { .. }
                | Inst::VLoad { .. }
                | Inst::VStore { .. }
                | Inst::VArith { .. }
                | Inst::VMvXS { .. }
                | Inst::VMvSX { .. }
        )
    }

    /// Opens a translation sequence: `gp` → spill pointer, all scratch
    /// registers saved. Between `seq_begin` and `seq_end` only
    /// [`Translator::downgrade_in_seq`] emissions may run.
    pub fn seq_begin(&self, em: &mut BlockEmitter) {
        self.spill_gp(em);
        for r in X_POOL {
            em.inst(Inst::Store {
                kind: StoreKind::Sd,
                rs1: XReg::GP,
                rs2: r,
                offset: SpillLayout::x_slot(r),
            });
        }
        for f in F_SCRATCH {
            em.inst(Inst::FStore {
                width: FpWidth::D,
                frs2: f,
                rs1: XReg::GP,
                offset: SpillLayout::f_slot(f),
            });
        }
    }

    /// Closes a translation sequence: scratches restored (first-in,
    /// last-out), `gp` re-materialized to the ABI value.
    pub fn seq_end(&self, em: &mut BlockEmitter) {
        for f in F_SCRATCH.iter().rev() {
            em.inst(Inst::FLoad {
                width: FpWidth::D,
                frd: *f,
                rs1: XReg::GP,
                offset: SpillLayout::f_slot(*f),
            });
        }
        for r in X_POOL.iter().rev() {
            em.inst(Inst::Load {
                kind: LoadKind::Ld,
                rd: *r,
                rs1: XReg::GP,
                offset: SpillLayout::x_slot(*r),
            });
        }
        self.restore_gp(em);
    }

    /// Reads source register `src` into scratch `dst`, honouring the
    /// sequence discipline: a scratch register's *program* value lives in
    /// its save slot while a sequence is open.
    fn capture_x(&self, em: &mut BlockEmitter, dst: XReg, src: XReg) {
        if X_POOL.contains(&src) {
            em.inst(Inst::Load {
                kind: LoadKind::Ld,
                rd: dst,
                rs1: XReg::GP,
                offset: SpillLayout::x_slot(src),
            });
        } else {
            em.inst(chimera_isa::mv(dst, src));
        }
    }

    /// Delivers the value staged in the RESULT slot to destination `rd`:
    /// a scratch destination's save slot is updated instead (the program
    /// value materializes at `seq_end`).
    fn deliver_rd(&self, em: &mut BlockEmitter, rd: XReg) {
        if rd == XReg::ZERO {
            return;
        }
        if X_POOL.contains(&rd) {
            em.inst(Inst::Load {
                kind: LoadKind::Ld,
                rd: XReg::T2,
                rs1: XReg::GP,
                offset: SpillLayout::RESULT,
            });
            em.inst(Inst::Store {
                kind: StoreKind::Sd,
                rs1: XReg::GP,
                rs2: XReg::T2,
                offset: SpillLayout::x_slot(rd),
            });
        } else {
            em.inst(Inst::Load {
                kind: LoadKind::Ld,
                rd,
                rs1: XReg::GP,
                offset: SpillLayout::RESULT,
            });
        }
    }

    /// Whether a downgrade template exists for `inst`: the single answer,
    /// for the rewriter's partition walk, its block emission, regeneration
    /// and the kernel's lazy rewriter alike. `downgrade*` return
    /// [`Untranslatable`] exactly when this is `false`, before emitting
    /// anything.
    pub fn can_downgrade(inst: &Inst) -> bool {
        // Every template borrows `gp` (spill pointer or free temporary),
        // so an instruction that reads it has none.
        if inst.uses_x().contains(XReg::GP) {
            return false;
        }
        match *inst {
            // The spilled state models `m1` grouping at `e32` / `e64`.
            Inst::Vsetvli { vtype, .. } => {
                vtype.lmul == 1 && matches!(vtype.sew, Eew::E32 | Eew::E64)
            }
            Inst::VLoad { eew, .. } | Inst::VStore { eew, .. } => {
                matches!(eew, Eew::E32 | Eew::E64)
            }
            // A form the row lacks is a reserved encoding, not an instruction.
            Inst::VArith { op, src, .. } => op.allows(src),
            Inst::VMvXS { .. } | Inst::VMvSX { .. } | Inst::Unary { .. } => true,
            Inst::OpImm { kind, .. } => kind == OpImmKind::Rori,
            // Zba / Zbb: every row has a template.
            Inst::Op { kind, .. } => kind.ext() == Some(Ext::B),
            _ => false,
        }
    }

    /// Emits the downgrade of `inst` standalone: for vector instructions
    /// this wraps the body in its own one-instruction sequence; Zba/Zbb
    /// templates carry their own lightweight save discipline.
    pub fn downgrade(&self, inst: &Inst, em: &mut BlockEmitter) -> Result<(), Untranslatable> {
        if !Self::can_downgrade(inst) {
            return Err(Untranslatable(*inst));
        }
        if Self::sequenceable(inst) {
            self.seq_begin(em);
            self.vector_body(inst, em);
            self.seq_end(em);
        } else {
            self.scalar_body(inst, em);
        }
        Ok(())
    }

    /// Emits the downgrade of a vector `inst` inside an open sequence
    /// (`gp` = spill pointer, scratches saved).
    pub fn downgrade_in_seq(
        &self,
        inst: &Inst,
        em: &mut BlockEmitter,
    ) -> Result<(), Untranslatable> {
        if !(Self::sequenceable(inst) && Self::can_downgrade(inst)) {
            return Err(Untranslatable(*inst));
        }
        self.vector_body(inst, em);
        Ok(())
    }

    /// The body of a [`Translator::sequenceable`] instruction
    /// [`Translator::can_downgrade`] admitted.
    fn vector_body(&self, inst: &Inst, em: &mut BlockEmitter) {
        match *inst {
            Inst::Vsetvli { rd, rs1, vtype } => self.vsetvli(rd, rs1, vtype.sew, em),
            Inst::VLoad { eew, vd, rs1 } => self.vmem(true, eew, vd, rs1, em),
            Inst::VStore { eew, vs3, rs1 } => self.vmem(false, eew, vs3, rs1, em),
            Inst::VArith { op, vd, vs2, src } => self.varith(op, vd, vs2, src, em),
            Inst::VMvXS { rd, vs2 } => self.vmv_x_s(rd, vs2, em),
            Inst::VMvSX { vd, rs1 } => self.vmv_s_x(vd, rs1, em),
            _ => unreachable!("{inst} is not sequenceable"),
        }
    }

    /// The Zba/Zbb scalar templates [`Translator::can_downgrade`] admitted
    /// (standalone, with their own gp discipline).
    fn scalar_body(&self, inst: &Inst, em: &mut BlockEmitter) {
        match *inst {
            Inst::Op { kind, rd, rs1, rs2 } => self.zb_op(kind, rd, rs1, rs2, em),
            Inst::OpImm { rd, rs1, imm, .. } => self.rori(rd, rs1, imm, em),
            Inst::Unary { kind, rd, rs1 } => self.zb_unary(kind, rd, rs1, em),
            _ => unreachable!("{inst} has no scalar template"),
        }
    }

    // ----- Vector templates ------------------------------------------------
    //
    // All bodies assume an *open sequence*: gp = spill pointer, scratches
    // saved. Program values of scratch registers are read from their save
    // slots (capture_x) and scratch destinations are written through their
    // slots (deliver_rd).

    fn vsetvli(&self, rd: XReg, rs1: XReg, sew: Eew, em: &mut BlockEmitter) {
        let vlmax = (VLEN as i64) / sew.bits() as i64;
        let done = em.new_label();
        // t2 = requested AVL (or VLMAX for the rs1=zero, rd!=zero form).
        if rs1 == XReg::ZERO {
            if rd == XReg::ZERO {
                em.inst(Inst::Load {
                    kind: LoadKind::Ld,
                    rd: XReg::T2,
                    rs1: XReg::GP,
                    offset: SpillLayout::VL,
                });
            } else {
                em.inst(chimera_obj::addi(XReg::T2, XReg::ZERO, vlmax as i32));
            }
        } else {
            self.capture_x(em, XReg::T2, rs1);
        }
        // t3 = VLMAX; t2 = min(t2, t3).
        em.inst(chimera_obj::addi(XReg::T3, XReg::ZERO, vlmax as i32));
        em.branch_to(BranchKind::Bltu, XReg::T2, XReg::T3, done);
        em.inst(chimera_isa::mv(XReg::T2, XReg::T3));
        em.label(done);
        em.inst(Inst::Store {
            kind: StoreKind::Sd,
            rs1: XReg::GP,
            rs2: XReg::T2,
            offset: SpillLayout::VL,
        });
        em.inst(chimera_obj::addi(XReg::T3, XReg::ZERO, sew.bytes() as i32));
        em.inst(Inst::Store {
            kind: StoreKind::Sd,
            rs1: XReg::GP,
            rs2: XReg::T3,
            offset: SpillLayout::SEW,
        });
        em.inst(Inst::Store {
            kind: StoreKind::Sd,
            rs1: XReg::GP,
            rs2: XReg::T2,
            offset: SpillLayout::RESULT,
        });
        self.deliver_rd(em, rd);
    }

    /// Unit-stride vector load/store between memory at `rs1` and the
    /// simulated register file.
    fn vmem(&self, is_load: bool, eew: Eew, v: VReg, rs1: XReg, em: &mut BlockEmitter) {
        let (loop_l, done) = (em.new_label(), em.new_label());
        let esz = eew.bytes() as i32;
        // t2 = memory cursor.
        self.capture_x(em, XReg::T2, rs1);
        // t3 = remaining element count.
        em.inst(Inst::Load {
            kind: LoadKind::Ld,
            rd: XReg::T3,
            rs1: XReg::GP,
            offset: SpillLayout::VL,
        });
        // t4 = vreg cursor.
        em.inst(chimera_obj::addi(
            XReg::T4,
            XReg::GP,
            SpillLayout::vreg_off(v),
        ));
        em.label(loop_l);
        em.branch_to(BranchKind::Beq, XReg::T3, XReg::ZERO, done);
        // t5 = the element, from the source cursor to the other one.
        let (from, to) = if is_load {
            (XReg::T2, XReg::T4)
        } else {
            (XReg::T4, XReg::T2)
        };
        let t5 = ElemReg::X(XReg::T5);
        em.inst(t5.load(eew, from, 0)).inst(t5.store(eew, to, 0));
        em.inst(chimera_obj::addi(XReg::T2, XReg::T2, esz));
        em.inst(chimera_obj::addi(XReg::T4, XReg::T4, esz));
        em.inst(chimera_obj::addi(XReg::T3, XReg::T3, -1));
        em.jal_to(XReg::ZERO, loop_l);
        em.label(done);
    }

    fn varith(&self, op: VArithOp, vd: VReg, vs2: VReg, src: VSrc, em: &mut BlockEmitter) {
        // Stage the scalar operand (x/f/i) into RESULT.
        match src {
            VSrc::X(rs1) => {
                self.capture_x(em, XReg::T2, rs1);
                em.inst(Inst::Store {
                    kind: StoreKind::Sd,
                    rs1: XReg::GP,
                    rs2: XReg::T2,
                    offset: SpillLayout::RESULT,
                });
            }
            VSrc::F(frs1) => {
                // FP scratch sources read their program value from the
                // save slot.
                if F_SCRATCH.contains(&frs1) {
                    em.inst(Inst::FLoad {
                        width: FpWidth::D,
                        frd: F_SCRATCH[0],
                        rs1: XReg::GP,
                        offset: SpillLayout::f_slot(frs1),
                    });
                    em.inst(Inst::FStore {
                        width: FpWidth::D,
                        frs2: F_SCRATCH[0],
                        rs1: XReg::GP,
                        offset: SpillLayout::RESULT,
                    });
                } else {
                    em.inst(Inst::FStore {
                        width: FpWidth::D,
                        frs2: frs1,
                        rs1: XReg::GP,
                        offset: SpillLayout::RESULT,
                    });
                }
            }
            VSrc::I(imm) => {
                em.inst(chimera_obj::addi(XReg::T2, XReg::ZERO, imm as i32));
                em.inst(Inst::Store {
                    kind: StoreKind::Sd,
                    rs1: XReg::GP,
                    rs2: XReg::T2,
                    offset: SpillLayout::RESULT,
                });
            }
            VSrc::V(_) => {}
        }
        // Dispatch on the spilled SEW.
        let (l32, l_done) = (em.new_label(), em.new_label());
        em.inst(Inst::Load {
            kind: LoadKind::Ld,
            rd: XReg::T2,
            rs1: XReg::GP,
            offset: SpillLayout::SEW,
        });
        em.inst(chimera_obj::addi(XReg::T2, XReg::T2, -8));
        em.branch_to(BranchKind::Bne, XReg::T2, XReg::ZERO, l32);
        self.varith_loop(op, vd, vs2, src, Eew::E64, em);
        em.jal_to(XReg::ZERO, l_done);
        em.label(l32);
        self.varith_loop(op, vd, vs2, src, Eew::E32, em);
        em.label(l_done);
    }

    /// One element-wise (or reduction) loop specialized to `eew`: per
    /// element, the scalar row [`VArithOp::element`] names.
    ///
    /// Register roles inside the loop: `t2` = byte cursor, `t3` = end
    /// offset, `t4` = element address. An element's operands — `vs2[i]`,
    /// the other source, and `vd[i]` or the accumulator — are `t5` / `t6` /
    /// `t6`, or `ft8` / `ft9` / `ft10` for an FP row.
    fn varith_loop(
        &self,
        op: VArithOp,
        vd: VReg,
        vs2: VReg,
        src: VSrc,
        eew: Eew,
        em: &mut BlockEmitter,
    ) {
        use ElemReg::{F, X};
        let (loop_l, done) = (em.new_label(), em.new_label());
        let (t5, t6, [ft8, ft9, ft10]) = (XReg::T5, XReg::T6, F_SCRATCH);
        let (a, b, d) = if op.is_fp() {
            (F(ft8), F(ft9), F(ft10))
        } else {
            (X(t5), X(t6), X(t6))
        };
        let width = ElemReg::fp_width(eew);
        // Element `i` of the other source: `vs1[i]`, or the staged scalar as
        // the operand rule reads it — an `x` value at element width (`lw`
        // sign-extends from `e32`), an `f` value as the whole register, so
        // the row's own NaN-box check applies.
        let other = |r: ElemReg| match (src, r) {
            (VSrc::V(vs1), _) => r.load(eew, XReg::T4, SpillLayout::vreg_off(vs1)),
            (_, X(_)) => r.load(eew, XReg::GP, SpillLayout::RESULT),
            (_, F(_)) => r.load(Eew::E64, XReg::GP, SpillLayout::RESULT),
        };
        let store = |r: ElemReg| r.store(eew, XReg::T4, SpillLayout::vreg_off(vd));

        // t2 = 0; t3 = vl << log2(esz).
        em.inst(chimera_obj::addi(XReg::T2, XReg::ZERO, 0));
        em.inst(Inst::Load {
            kind: LoadKind::Ld,
            rd: XReg::T3,
            rs1: XReg::GP,
            offset: SpillLayout::VL,
        });
        em.inst(Inst::OpImm {
            kind: OpImmKind::Slli,
            rd: XReg::T3,
            rs1: XReg::T3,
            imm: eew.bytes().trailing_zeros() as i32,
        });
        if let (true, VSrc::V(vs1)) = (op.is_reduction(), src) {
            // The accumulator starts at vs1[0], the `.vs` scalar input.
            em.inst(d.load(eew, XReg::GP, SpillLayout::vreg_off(vs1)));
        }
        em.label(loop_l);
        em.branch_to(BranchKind::Bge, XReg::T2, XReg::T3, done);
        // t4 = gp + cursor; element fields at static offsets from t4.
        em.inst(chimera_obj::add(XReg::T4, XReg::GP, XReg::T2));
        em.inst(a.load(eew, XReg::T4, SpillLayout::vreg_off(vs2)));
        match op.element() {
            Element::Op(row) => {
                em.inst(other(b));
                alu_in_seq(row, t5, t6, em);
                em.inst(store(a));
            }
            Element::Acc(row) => {
                em.inst(other(b));
                alu_in_seq(row, t5, t6, em);
                em.inst(d.load(eew, XReg::T4, SpillLayout::vreg_off(vd)));
                em.inst(chimera_obj::add(t5, t5, t6)).inst(store(a));
            }
            Element::Move => {
                em.inst(other(a)).inst(store(a));
            }
            Element::Fold(row) => alu_in_seq(row, t6, t5, em),
            Element::FOp(kind) => {
                let (frd, frs1, frs2) = (ft8, ft8, ft9);
                em.inst(other(b));
                em.inst(Inst::FOp {
                    kind,
                    width,
                    frd,
                    frs1,
                    frs2,
                });
                em.inst(store(a));
            }
            Element::FMa(kind) => {
                let (frd, frs1, frs2, frs3) = (ft10, ft9, ft8, ft10);
                em.inst(other(b));
                em.inst(d.load(eew, XReg::T4, SpillLayout::vreg_off(vd)));
                em.inst(Inst::FMa {
                    kind,
                    width,
                    frd,
                    frs1,
                    frs2,
                    frs3,
                });
                em.inst(store(d));
            }
            Element::FFold(kind) => {
                let (frd, frs1, frs2) = (ft10, ft10, ft8);
                em.inst(Inst::FOp {
                    kind,
                    width,
                    frd,
                    frs1,
                    frs2,
                });
            }
        }
        em.inst(chimera_obj::addi(XReg::T2, XReg::T2, eew.bytes() as i32));
        em.jal_to(XReg::ZERO, loop_l);
        em.label(done);
        if op.is_reduction() {
            // Write the accumulator to vd[0].
            em.inst(d.store(eew, XReg::GP, SpillLayout::vreg_off(vd)));
        }
    }

    fn vmv_x_s(&self, rd: XReg, vs2: VReg, em: &mut BlockEmitter) {
        let (l32, done) = (em.new_label(), em.new_label());
        em.inst(Inst::Load {
            kind: LoadKind::Ld,
            rd: XReg::T2,
            rs1: XReg::GP,
            offset: SpillLayout::SEW,
        });
        em.inst(chimera_obj::addi(XReg::T2, XReg::T2, -8));
        em.branch_to(BranchKind::Bne, XReg::T2, XReg::ZERO, l32);
        em.inst(Inst::Load {
            kind: LoadKind::Ld,
            rd: XReg::T2,
            rs1: XReg::GP,
            offset: SpillLayout::vreg_off(vs2),
        });
        em.jal_to(XReg::ZERO, done);
        em.label(l32);
        em.inst(Inst::Load {
            kind: LoadKind::Lw,
            rd: XReg::T2,
            rs1: XReg::GP,
            offset: SpillLayout::vreg_off(vs2),
        });
        em.label(done);
        em.inst(Inst::Store {
            kind: StoreKind::Sd,
            rs1: XReg::GP,
            rs2: XReg::T2,
            offset: SpillLayout::RESULT,
        });
        self.deliver_rd(em, rd);
    }

    fn vmv_s_x(&self, vd: VReg, rs1: XReg, em: &mut BlockEmitter) {
        let (l32, done) = (em.new_label(), em.new_label());
        self.capture_x(em, XReg::T2, rs1);
        em.inst(Inst::Load {
            kind: LoadKind::Ld,
            rd: XReg::T3,
            rs1: XReg::GP,
            offset: SpillLayout::SEW,
        });
        em.inst(chimera_obj::addi(XReg::T3, XReg::T3, -8));
        em.branch_to(BranchKind::Bne, XReg::T3, XReg::ZERO, l32);
        em.inst(Inst::Store {
            kind: StoreKind::Sd,
            rs1: XReg::GP,
            rs2: XReg::T2,
            offset: SpillLayout::vreg_off(vd),
        });
        em.jal_to(XReg::ZERO, done);
        em.label(l32);
        em.inst(Inst::Store {
            kind: StoreKind::Sw,
            rs1: XReg::GP,
            rs2: XReg::T2,
            offset: SpillLayout::vreg_off(vd),
        });
        em.label(done);
    }

    // ----- Zba/Zbb templates ------------------------------------------------

    fn zb_op(&self, kind: OpKind, rd: XReg, rs1: XReg, rs2: XReg, em: &mut BlockEmitter) {
        match kind {
            OpKind::Sh1add | OpKind::Sh2add | OpKind::Sh3add => {
                let n = match kind {
                    OpKind::Sh1add => 1,
                    OpKind::Sh2add => 2,
                    _ => 3,
                };
                // gp is the free temporary; re-materialized after.
                em.inst(Inst::OpImm {
                    kind: OpImmKind::Slli,
                    rd: XReg::GP,
                    rs1,
                    imm: n,
                });
                em.inst(chimera_obj::add(rd, XReg::GP, rs2));
                self.restore_gp(em);
            }
            OpKind::AddUw => {
                em.inst(Inst::OpImm {
                    kind: OpImmKind::Slli,
                    rd: XReg::GP,
                    rs1,
                    imm: 32,
                });
                em.inst(Inst::OpImm {
                    kind: OpImmKind::Srli,
                    rd: XReg::GP,
                    rs1: XReg::GP,
                    imm: 32,
                });
                em.inst(chimera_obj::add(rd, XReg::GP, rs2));
                self.restore_gp(em);
            }
            OpKind::Andn | OpKind::Orn | OpKind::Xnor => {
                // gp = ~rs2, then the plain operation (xnor = a ^ ~b).
                em.inst(Inst::OpImm {
                    kind: OpImmKind::Xori,
                    rd: XReg::GP,
                    rs1: rs2,
                    imm: -1,
                });
                let k = match kind {
                    OpKind::Andn => OpKind::And,
                    OpKind::Orn => OpKind::Or,
                    _ => OpKind::Xor,
                };
                em.inst(Inst::Op {
                    kind: k,
                    rd,
                    rs1,
                    rs2: XReg::GP,
                });
                self.restore_gp(em);
            }
            _ if let Some(bk) = min_max_branch(kind) => {
                let l1 = em.new_label();
                let l2 = em.new_label();
                em.branch_to(bk, rs1, rs2, l1);
                em.inst(chimera_isa::mv(XReg::GP, rs2));
                em.jal_to(XReg::ZERO, l2);
                em.label(l1);
                em.inst(chimera_isa::mv(XReg::GP, rs1));
                em.label(l2);
                em.inst(chimera_isa::mv(rd, XReg::GP));
                self.restore_gp(em);
            }
            OpKind::Rol | OpKind::Ror => {
                // Pick a scratch distinct from all operands.
                let s = pick_scratch(&[rs1, rs2, rd]);
                self.spill_gp(em);
                em.inst(Inst::Store {
                    kind: StoreKind::Sd,
                    rs1: XReg::GP,
                    rs2: s,
                    offset: SpillLayout::x_slot(s),
                });
                em.inst(Inst::OpImm {
                    kind: OpImmKind::Andi,
                    rd: s,
                    rs1: rs2,
                    imm: 63,
                });
                let (first, second) = if kind == OpKind::Rol {
                    (OpKind::Sll, OpKind::Srl)
                } else {
                    (OpKind::Srl, OpKind::Sll)
                };
                em.inst(Inst::Op {
                    kind: first,
                    rd: XReg::GP,
                    rs1,
                    rs2: s,
                });
                em.inst(Inst::Op {
                    kind: OpKind::Sub,
                    rd: s,
                    rs1: XReg::ZERO,
                    rs2: s,
                });
                em.inst(Inst::OpImm {
                    kind: OpImmKind::Andi,
                    rd: s,
                    rs1: s,
                    imm: 63,
                });
                em.inst(Inst::Op {
                    kind: second,
                    rd: s,
                    rs1,
                    rs2: s,
                });
                em.inst(Inst::Op {
                    kind: OpKind::Or,
                    rd: XReg::GP,
                    rs1: XReg::GP,
                    rs2: s,
                });
                // gp holds the result.
                self.spill_gp_keeping(em, s, rd);
            }
            _ => unreachable!("{kind:?} has no template"),
        }
    }

    /// Epilogue for templates whose result lives in `gp`: spill the result,
    /// restore the scratch, deliver to `rd`, restore `gp`.
    fn spill_gp_keeping(&self, em: &mut BlockEmitter, scratch: XReg, rd: XReg) {
        // rd receives gp's value first (rd != scratch by construction).
        em.inst(chimera_isa::mv(rd, XReg::GP));
        self.spill_gp(em);
        em.inst(Inst::Load {
            kind: LoadKind::Ld,
            rd: scratch,
            rs1: XReg::GP,
            offset: SpillLayout::x_slot(scratch),
        });
        self.restore_gp(em);
    }

    fn rori(&self, rd: XReg, rs1: XReg, imm: i32, em: &mut BlockEmitter) {
        let sh = imm & 63;
        if sh == 0 {
            em.inst(chimera_isa::mv(rd, rs1));
            return;
        }
        em.inst(Inst::OpImm {
            kind: OpImmKind::Srli,
            rd: XReg::GP,
            rs1,
            imm: sh,
        });
        em.inst(Inst::OpImm {
            kind: OpImmKind::Slli,
            rd,
            rs1,
            imm: 64 - sh,
        });
        em.inst(Inst::Op {
            kind: OpKind::Or,
            rd,
            rs1: rd,
            rs2: XReg::GP,
        });
        self.restore_gp(em);
    }

    fn zb_unary(&self, kind: UnaryKind, rd: XReg, rs1: XReg, em: &mut BlockEmitter) {
        match kind {
            UnaryKind::SextB | UnaryKind::SextH | UnaryKind::ZextH => {
                let (sh, arith) = match kind {
                    UnaryKind::SextB => (56, true),
                    UnaryKind::SextH => (48, true),
                    _ => (48, false),
                };
                em.inst(Inst::OpImm {
                    kind: OpImmKind::Slli,
                    rd,
                    rs1,
                    imm: sh,
                });
                em.inst(Inst::OpImm {
                    kind: if arith {
                        OpImmKind::Srai
                    } else {
                        OpImmKind::Srli
                    },
                    rd,
                    rs1: rd,
                    imm: sh,
                });
            }
            UnaryKind::Clz => {
                let (loop_l, done) = (em.new_label(), em.new_label());
                // gp = working copy; rd = counter.
                em.inst(chimera_isa::mv(XReg::GP, rs1));
                em.inst(chimera_obj::addi(rd, XReg::ZERO, 64));
                em.branch_to(BranchKind::Beq, XReg::GP, XReg::ZERO, done);
                em.inst(chimera_obj::addi(rd, XReg::ZERO, 0));
                em.label(loop_l);
                em.branch_to(BranchKind::Blt, XReg::GP, XReg::ZERO, done);
                em.inst(Inst::OpImm {
                    kind: OpImmKind::Slli,
                    rd: XReg::GP,
                    rs1: XReg::GP,
                    imm: 1,
                });
                em.inst(chimera_obj::addi(rd, rd, 1));
                em.jal_to(XReg::ZERO, loop_l);
                em.label(done);
                self.restore_gp(em);
            }
            UnaryKind::Ctz | UnaryKind::Cpop => {
                let s = pick_scratch(&[rs1, rd]);
                let (loop_l, done) = (em.new_label(), em.new_label());
                self.spill_gp(em);
                em.inst(Inst::Store {
                    kind: StoreKind::Sd,
                    rs1: XReg::GP,
                    rs2: s,
                    offset: SpillLayout::x_slot(s),
                });
                em.inst(chimera_isa::mv(XReg::GP, rs1));
                if kind == UnaryKind::Ctz {
                    em.inst(chimera_obj::addi(rd, XReg::ZERO, 64));
                    em.branch_to(BranchKind::Beq, XReg::GP, XReg::ZERO, done);
                    em.inst(chimera_obj::addi(rd, XReg::ZERO, 0));
                    em.label(loop_l);
                    em.inst(Inst::OpImm {
                        kind: OpImmKind::Andi,
                        rd: s,
                        rs1: XReg::GP,
                        imm: 1,
                    });
                    em.branch_to(BranchKind::Bne, s, XReg::ZERO, done);
                    em.inst(Inst::OpImm {
                        kind: OpImmKind::Srli,
                        rd: XReg::GP,
                        rs1: XReg::GP,
                        imm: 1,
                    });
                    em.inst(chimera_obj::addi(rd, rd, 1));
                    em.jal_to(XReg::ZERO, loop_l);
                } else {
                    em.inst(chimera_obj::addi(rd, XReg::ZERO, 0));
                    em.label(loop_l);
                    em.branch_to(BranchKind::Beq, XReg::GP, XReg::ZERO, done);
                    em.inst(Inst::OpImm {
                        kind: OpImmKind::Andi,
                        rd: s,
                        rs1: XReg::GP,
                        imm: 1,
                    });
                    em.inst(chimera_obj::add(rd, rd, s));
                    em.inst(Inst::OpImm {
                        kind: OpImmKind::Srli,
                        rd: XReg::GP,
                        rs1: XReg::GP,
                        imm: 1,
                    });
                    em.jal_to(XReg::ZERO, loop_l);
                }
                em.label(done);
                self.spill_gp(em);
                em.inst(Inst::Load {
                    kind: LoadKind::Ld,
                    rd: s,
                    rs1: XReg::GP,
                    offset: SpillLayout::x_slot(s),
                });
                self.restore_gp(em);
            }
            UnaryKind::Rev8 => {
                let s = pick_scratch(&[rs1, rd]);
                self.spill_gp(em);
                em.inst(Inst::Store {
                    kind: StoreKind::Sd,
                    rs1: XReg::GP,
                    rs2: s,
                    offset: SpillLayout::x_slot(s),
                });
                // gp = working copy, rd = result, s = byte/counter temp.
                em.inst(chimera_isa::mv(XReg::GP, rs1));
                em.inst(chimera_obj::addi(rd, XReg::ZERO, 0));
                // Eight unrolled byte moves.
                for _ in 0..8 {
                    em.inst(Inst::OpImm {
                        kind: OpImmKind::Slli,
                        rd,
                        rs1: rd,
                        imm: 8,
                    });
                    em.inst(Inst::OpImm {
                        kind: OpImmKind::Andi,
                        rd: s,
                        rs1: XReg::GP,
                        imm: 0xff,
                    });
                    em.inst(Inst::Op {
                        kind: OpKind::Or,
                        rd,
                        rs1: rd,
                        rs2: s,
                    });
                    em.inst(Inst::OpImm {
                        kind: OpImmKind::Srli,
                        rd: XReg::GP,
                        rs1: XReg::GP,
                        imm: 8,
                    });
                }
                self.spill_gp(em);
                em.inst(Inst::Load {
                    kind: LoadKind::Ld,
                    rd: s,
                    rs1: XReg::GP,
                    offset: SpillLayout::x_slot(s),
                });
                self.restore_gp(em);
            }
        }
    }
}

/// A register `varith_loop` holds an element in.
#[derive(Debug, Clone, Copy)]
enum ElemReg {
    X(XReg),
    F(FReg),
}

impl ElemReg {
    /// The FP format of an `eew` element (the templates model `e32` / `e64`).
    fn fp_width(eew: Eew) -> FpWidth {
        eew.fp().unwrap_or(FpWidth::S)
    }

    /// Loads the `eew` element at `offset(base)` (`lw` / `ld`, `flw` / `fld`).
    fn load(self, eew: Eew, base: XReg, offset: i32) -> Inst {
        match self {
            ElemReg::X(rd) => Inst::Load {
                kind: if eew == Eew::E64 {
                    LoadKind::Ld
                } else {
                    LoadKind::Lw
                },
                rd,
                rs1: base,
                offset,
            },
            ElemReg::F(frd) => Inst::FLoad {
                width: Self::fp_width(eew),
                frd,
                rs1: base,
                offset,
            },
        }
    }

    /// Stores the register as the `eew` element at `offset(base)`.
    fn store(self, eew: Eew, base: XReg, offset: i32) -> Inst {
        match self {
            ElemReg::X(rs2) => Inst::Store {
                kind: if eew == Eew::E64 {
                    StoreKind::Sd
                } else {
                    StoreKind::Sw
                },
                rs1: base,
                rs2,
                offset,
            },
            ElemReg::F(frs2) => Inst::FStore {
                width: Self::fp_width(eew),
                frs2,
                rs1: base,
                offset,
            },
        }
    }
}

/// `rd = kind(rd, rs2)` inside an open sequence. `min` / `max`, the Zbb
/// rows an element names, are lowered for a base core that lacks them:
/// keep `rd` under the branch that orders it first, take `rs2` otherwise.
fn alu_in_seq(kind: OpKind, rd: XReg, rs2: XReg, em: &mut BlockEmitter) {
    match min_max_branch(kind) {
        Some(keep_rd) => {
            let keep = em.new_label();
            em.branch_to(keep_rd, rd, rs2, keep);
            em.inst(chimera_isa::mv(rd, rs2));
            em.label(keep);
        }
        None => {
            em.inst(Inst::Op {
                kind,
                rd,
                rs1: rd,
                rs2,
            });
        }
    }
}

/// The branch under which `min` / `max` (signed or unsigned) return their
/// first operand; `None` for every other row.
fn min_max_branch(kind: OpKind) -> Option<BranchKind> {
    match kind {
        OpKind::Min => Some(BranchKind::Blt),
        OpKind::Minu => Some(BranchKind::Bltu),
        OpKind::Max => Some(BranchKind::Bge),
        OpKind::Maxu => Some(BranchKind::Bgeu),
        _ => None,
    }
}

/// Picks a scratch register not aliasing any of `avoid`.
fn pick_scratch(avoid: &[XReg]) -> XReg {
    X_POOL
        .into_iter()
        .find(|r| !avoid.contains(r))
        .expect("pool larger than operand count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_isa::decode;

    #[test]
    fn sh1add_template_shape() {
        let t = Translator::new(0x9_0000, 0x8_0800);
        let mut em = BlockEmitter::new();
        t.downgrade(
            &Inst::Op {
                kind: OpKind::Sh1add,
                rd: XReg::A0,
                rs1: XReg::A1,
                rs2: XReg::A2,
            },
            &mut em,
        )
        .unwrap();
        let bytes = em.finish().unwrap();
        // slli gp, a1, 1; add a0, gp, a2; lui/addi gp restore.
        let w0 = decode(u32::from_le_bytes(bytes[0..4].try_into().unwrap()))
            .unwrap()
            .inst;
        assert_eq!(
            w0,
            Inst::OpImm {
                kind: OpImmKind::Slli,
                rd: XReg::GP,
                rs1: XReg::A1,
                imm: 1
            }
        );
    }

    #[test]
    fn untranslatable_for_lmul8() {
        let t = Translator::new(0x9_0000, 0x8_0800);
        let mut em = BlockEmitter::new();
        let r = t.downgrade(
            &Inst::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::A0,
                vtype: chimera_isa::VType {
                    sew: Eew::E64,
                    lmul: 8,
                    ta: true,
                    ma: true,
                },
            },
            &mut em,
        );
        assert!(r.is_err());
    }

    /// [`Translator::can_downgrade`] against emission, over every row of the
    /// ISA tables an extension could own (`Op`, `OpImm`, `Unary`, `VArith`;
    /// rows the base profile runs included) and the vector constructors
    /// outside them, crossed with the operand shapes a template treats
    /// specially. The answer vector was recorded on the parent of the commit
    /// that introduced the predicate, where `downgrade(..).is_ok()` — a full
    /// throwaway emission — was the only oracle. One deliberate change since:
    /// a `VArith` form its row does not have is refused (36 answers, the
    /// reserved `.vi` forms of `vsub`, `vmul`, `vmacc`, `vmin`, `vmax` and
    /// `vredsum` × six shapes; 411 → 375 translated).
    #[test]
    fn can_downgrade_is_downgrade_succeeding_on_every_table_row() {
        use chimera_isa::VType;
        let (v, f) = (VReg::of, FReg::of);
        // Plain; rd = rs1; scratch-pool operands; `gp` read; `gp` written.
        let shapes = [
            (XReg::A0, XReg::A1, XReg::A2),
            (XReg::A0, XReg::A0, XReg::A1),
            (XReg::T2, XReg::T3, XReg::T4),
            (XReg::A0, XReg::GP, XReg::A1),
            (XReg::A0, XReg::A1, XReg::GP),
            (XReg::GP, XReg::A0, XReg::A1),
        ];
        let mut insts = Vec::new();
        for (rd, rs1, rs2) in shapes {
            insts.extend(
                OpKind::ALL
                    .iter()
                    .map(|&kind| Inst::Op { kind, rd, rs1, rs2 }),
            );
            insts.extend(OpImmKind::ALL.iter().map(|&kind| {
                let imm = 17;
                Inst::OpImm { kind, rd, rs1, imm }
            }));
            insts.extend(
                UnaryKind::ALL
                    .iter()
                    .map(|&kind| Inst::Unary { kind, rd, rs1 }),
            );
            for sew in [Eew::E8, Eew::E16, Eew::E32, Eew::E64] {
                for lmul in [1, 2, 8] {
                    let (ta, ma) = (true, true);
                    let vtype = VType { sew, lmul, ta, ma };
                    insts.push(Inst::Vsetvli { rd, rs1, vtype });
                }
                let (eew, vd, vs3) = (sew, v(1), v(2));
                insts.push(Inst::VLoad { eew, vd, rs1 });
                insts.push(Inst::VStore { eew, vs3, rs1 });
            }
            insts.push(Inst::VMvXS { rd, vs2: v(4) });
            insts.push(Inst::VMvSX { vd: v(6), rs1 });
            for &op in VArithOp::ALL {
                // Every form the op has, an fp scratch source among them,
                // and the immediate form no fp op has.
                let sources = [
                    VSrc::V(v(2)),
                    VSrc::X(rs1),
                    VSrc::F(f(10)),
                    VSrc::F(F_SCRATCH[1]),
                    VSrc::I(3),
                ];
                for src in sources {
                    if op.allows(src) || matches!(src, VSrc::I(_)) {
                        let (vd, vs2) = (v(3), v(1));
                        insts.push(Inst::VArith { op, vd, vs2, src });
                    }
                }
            }
        }
        let base = chimera_isa::ExtSet::RV64GC.without(chimera_isa::Ext::B);
        let t = Translator::new(0x9_0000, 0x8_0800);
        // FNV-1a over one '0' / '1' per instruction.
        let (mut translated, mut answers) = (0, 0xcbf2_9ce4_8422_2325_u64);
        for inst in &insts {
            let can = Translator::can_downgrade(inst);
            let mut em = BlockEmitter::new();
            assert_eq!(t.downgrade(inst, &mut em).is_ok(), can, "{inst}");
            let bytes = em.finish().unwrap();
            // A template is base code standing for an instruction the base
            // profile lacks; a refusal emits nothing.
            assert_eq!(bytes.is_empty(), !can, "{inst}");
            assert!(!(can && inst.runnable_on(base)), "{inst}");
            for chunk in bytes.chunks(4) {
                let word = u32::from_le_bytes(chunk.try_into().unwrap());
                assert!(decode(word).unwrap().inst.runnable_on(base), "{inst}");
            }
            translated += can as usize;
            answers = (answers ^ (b'0' + can as u8) as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(
            (insts.len(), translated, answers),
            (828, 375, 0xfd09_c334_7b3d_8b96)
        );
    }

    #[test]
    fn all_vector_templates_emit() {
        let t = Translator::new(0x9_0000, 0x8_0800);
        let v = VReg::of;
        let cases = vec![
            Inst::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::A0,
                vtype: chimera_isa::VType {
                    sew: Eew::E64,
                    lmul: 1,
                    ta: true,
                    ma: true,
                },
            },
            Inst::VLoad {
                eew: Eew::E64,
                vd: v(1),
                rs1: XReg::A0,
            },
            Inst::VStore {
                eew: Eew::E32,
                vs3: v(2),
                rs1: XReg::A1,
            },
            Inst::VArith {
                op: VArithOp::Vadd,
                vd: v(3),
                vs2: v(1),
                src: VSrc::V(v(2)),
            },
            Inst::VArith {
                op: VArithOp::Vmacc,
                vd: v(3),
                vs2: v(1),
                src: VSrc::X(XReg::A3),
            },
            Inst::VArith {
                op: VArithOp::Vfmacc,
                vd: v(3),
                vs2: v(1),
                src: VSrc::V(v(2)),
            },
            Inst::VArith {
                op: VArithOp::Vredsum,
                vd: v(4),
                vs2: v(3),
                src: VSrc::V(v(0)),
            },
            Inst::VArith {
                op: VArithOp::Vmv,
                vd: v(5),
                vs2: v(0),
                src: VSrc::I(0),
            },
            Inst::VMvXS {
                rd: XReg::A0,
                vs2: v(4),
            },
            Inst::VMvSX {
                vd: v(6),
                rs1: XReg::A5,
            },
        ];
        for inst in cases {
            let mut em = BlockEmitter::new();
            t.downgrade(&inst, &mut em)
                .unwrap_or_else(|e| panic!("{inst}: {e}"));
            let bytes = em.finish().unwrap();
            assert!(bytes.len() >= 8, "{inst} produced too little code");
            // Every emitted word decodes to a base-profile instruction.
            for chunk in bytes.chunks(4) {
                let w = u32::from_le_bytes(chunk.try_into().unwrap());
                let d = decode(w).unwrap_or_else(|e| panic!("{inst}: emitted {w:#x}: {e}"));
                assert!(
                    d.inst
                        .runnable_on(chimera_isa::ExtSet::RV64GC.without(chimera_isa::Ext::B)),
                    "{inst} emitted non-base inst {}",
                    d.inst
                );
            }
        }
    }

    #[test]
    fn zb_templates_emit_base_only() {
        let t = Translator::new(0x9_0000, 0x8_0800);
        let cases = vec![
            Inst::Op {
                kind: OpKind::Sh3add,
                rd: XReg::A0,
                rs1: XReg::A0,
                rs2: XReg::A0,
            },
            Inst::Op {
                kind: OpKind::Andn,
                rd: XReg::T2,
                rs1: XReg::T2,
                rs2: XReg::T2,
            },
            Inst::Op {
                kind: OpKind::Min,
                rd: XReg::A1,
                rs1: XReg::A2,
                rs2: XReg::A3,
            },
            Inst::Op {
                kind: OpKind::Rol,
                rd: XReg::T3,
                rs1: XReg::T4,
                rs2: XReg::T5,
            },
            Inst::Op {
                kind: OpKind::AddUw,
                rd: XReg::S2,
                rs1: XReg::S3,
                rs2: XReg::S4,
            },
            Inst::OpImm {
                kind: OpImmKind::Rori,
                rd: XReg::A4,
                rs1: XReg::A5,
                imm: 17,
            },
            Inst::Unary {
                kind: UnaryKind::Clz,
                rd: XReg::A0,
                rs1: XReg::A0,
            },
            Inst::Unary {
                kind: UnaryKind::Ctz,
                rd: XReg::T2,
                rs1: XReg::T3,
            },
            Inst::Unary {
                kind: UnaryKind::Cpop,
                rd: XReg::A1,
                rs1: XReg::A1,
            },
            Inst::Unary {
                kind: UnaryKind::Rev8,
                rd: XReg::A2,
                rs1: XReg::A3,
            },
            Inst::Unary {
                kind: UnaryKind::SextB,
                rd: XReg::A2,
                rs1: XReg::A3,
            },
        ];
        let base = chimera_isa::ExtSet::RV64GC.without(chimera_isa::Ext::B);
        for inst in cases {
            let mut em = BlockEmitter::new();
            t.downgrade(&inst, &mut em)
                .unwrap_or_else(|e| panic!("{inst}: {e}"));
            for chunk in em.finish().unwrap().chunks(4) {
                let w = u32::from_le_bytes(chunk.try_into().unwrap());
                let d = decode(w).unwrap();
                assert!(d.inst.runnable_on(base), "{inst} emitted {}", d.inst);
            }
        }
    }
}
