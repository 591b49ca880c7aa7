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
//! **Runs.** Vector instructions are translated a *run* at a time: a
//! stretch of consecutive ones [`Translator::sequence`] emits as one body
//! (the §4.2 batching applied at the translation level). The contract:
//!
//! * a run is entered at its head or at an *entry head*, and left at its
//!   end, nowhere else. Both establish the same state: `gp` points at the
//!   spill section and the run's whole scratch set is saved — each of
//!   `t2`..`t6` a template writes or an instruction names, `ft8`..`ft10`
//!   when the run has an FP row, and the `x` and `f` registers its
//!   stretches borrow (registers no instruction of the run names, each in
//!   its own slot after the vector register file); the end restores them
//!   and `gp`;
//! * a fault-table entry inside a run, from the run's first `vsetvli` on,
//!   gets an entry head, which the block emits after its exits and the
//!   entry's redirect binds to. It makes the head's saves, dispatches on
//!   the spilled SEW and jumps into the run's code at the entry for the SEW
//!   that code was emitted for; for the other SEW it carries its own copy
//!   of the run up to the next `vsetvli` or the run's end, then rejoins.
//!   An entry before the first `vsetvli` starts a new run instead;
//! * at both ends and at every entry the spill section holds the whole
//!   vector state, in the transformation-free layout every view shares;
//!   nothing vector-valued stays in a register across a run's end or an
//!   entry, so every exit and every fault-table entry point is a
//!   materialization point;
//! * the element width (SEW) is dispatched once per run. From a `vsetvli`
//!   on it is known. Before the first one it is the spilled SEW: the
//!   instructions from the first that reads it up to that `vsetvli` are
//!   emitted twice — an `e64` copy and an `e32` copy — behind one branch
//!   on the spilled SEW (any value but 8 takes the `e32` copy). Loads right
//!   before a stretch there join the copies, so the one whose SEW is their
//!   width can fuse them;
//! * a *stretch* — consecutive element-wise operations (no stores), led by
//!   the unit-stride loads of `eew` = SEW right before them and ended by
//!   the fold right after them, if it joins them — is one element loop; a
//!   fold that joins nothing is a stretch of its own. Its elements stay in
//!   registers (`ElemLoop`): a vector register is loaded from its slot once
//!   per element, at its first read, and stored once, after its last
//!   write; a leading load brings its element from memory instead, through
//!   a cursor of its own. Registers beyond `t5` / `t6` / `ft8`..`ft10` are
//!   borrowed only where each takes two loads or stores out of the loop
//!   body. Fusing is sound because such a row reads only element `i` of
//!   its sources and writes only element `i` of `vd`, and because the loads
//!   lead: a stretch ends at any store, fold, `vsetvli` or fault-table
//!   entry, so no memory access moves past a store. Consecutive loads of
//!   one width with no operation after them share a loop too;
//! * a fold accumulates `vs2[i]` in a register of its own in each
//!   iteration — `ft10` for an FP row, the register after the loads'
//!   cursors for an integer one — and stores `vd[0]` after the loop. It
//!   starts at `vs1[0]` where the stretch leaves `vs1` alone. An integer
//!   row is commutative and associative, so it also joins a stretch that
//!   writes `vs1`: it then starts at the row's identity and meets `vs1[0]`,
//!   read from the slot the stretch stored, after the loop. An FP row keeps
//!   its order and does not join such a stretch. At `vl` = 0 a fold leaves
//!   `vd[0] = vs1[0]`.
//!
//! [`Translator::downgrade`] of one vector instruction is a run of one.
//!
//! A [`Translator`] is a `Copy` value — the spill base and the ABI `gp`,
//! the only two things a template materializes that belong to the binary
//! rather than to the instruction. Emission changes nothing in it (local
//! labels are the emitter's), so one is built per scanned unit set, per
//! regeneration scan and per kernel runner, and shared by reference.
//!
//! Supported downgrades: the whole modelled RVV subset at `e32`/`e64` with
//! `m1` grouping, and the Zba/Zbb rows of `ZB_ROWS` — one row of assembly
//! text per row kind, parsed once, on first use, and bound to each site's
//! operands — except an instruction that reads or writes `gp`, which every
//! template borrows. [`Translator::can_downgrade`] is the one statement of
//! that set: the rewriters ask it before they form a unit, and
//! `downgrade*` ask it first and report [`Untranslatable`] for anything
//! else, which then stays the original instruction (the kernel migrates
//! the task when it faults).

use crate::emitter::{BlockEmitter, Label};
use crate::engine::Reloc;
use chimera_isa::{
    BranchKind, Eew, Element, FReg, FRegSet, FpWidth, Inst, LoadKind, OpImmKind, OpKind, RegSet,
    StoreKind, VReg, VRegSet, VSrc, XReg, VLEN,
};

/// Layout of the `.chimera.vregs` spill section.
#[derive(Debug, Clone, Copy)]
pub struct SpillLayout {
    /// Base address of the section.
    pub base: u64,
}

impl SpillLayout {
    /// Total section size in bytes.
    pub const SIZE: usize = Self::BORROWED as usize + 2 * 32 * 8;
    /// Offset of the current vector length (u64).
    pub const VL: i32 = 0;
    /// Offset of the current element width in bytes (u64: 4 or 8).
    pub const SEW: i32 = 8;
    /// Offset of the simulated vector register file.
    pub const VREGS: i32 = 128;
    /// Offset of the save slots of the registers a run borrows: one dword
    /// per `x` register, then one per `f` register.
    const BORROWED: i32 = Self::VREGS + 32 * (VLEN as i32 / 8);

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

    /// Save-slot offset for a register a run borrows.
    fn borrow_slot(r: ElemReg) -> i32 {
        Self::BORROWED + 8 * (32 * r.fp as i32 + r.n as i32)
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

/// An entry head a run owes its block (module docs), emitted after the
/// block's exits by [`Translator::entry_head`].
#[derive(Debug)]
pub struct EntryHead {
    /// The original address the fault table redirects here.
    from: u64,
    /// The run's saves, as its head makes them.
    saved: Vec<(ElemReg, i32)>,
    /// The run's code at the entry.
    into: Label,
    /// The entry's own copy, where the run's code is right for one SEW.
    copy: Option<EntryCopy>,
}

/// The instructions from an entry up to the next `vsetvli` or the run's
/// end, for the SEW the run's code was not emitted for.
#[derive(Debug)]
struct EntryCopy {
    insts: Vec<Inst>,
    sew: Eew,
    free: Free,
    plans: Vec<Plan>,
    /// Where the run's code takes over.
    rejoin: Label,
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

    /// Whether `inst` is a vector instruction a run can hold
    /// ([`Translator::sequence`]).
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

    /// Emits the consecutive vector instructions `run` as runs (module
    /// docs), entered at the first. `entries` are the fault-table entries
    /// among them, by position and original address, in order: an entry
    /// heads a run of its own unless a `vsetvli` at or before it is in the
    /// current run; the entry heads the rest need are returned, for the
    /// block to emit after its exits ([`Translator::entry_head`]). Refuses,
    /// emitting nothing, an instruction that is not
    /// [`Translator::sequenceable`] or has no template.
    pub fn sequence(
        &self,
        run: &[Inst],
        entries: &[(usize, u64)],
        em: &mut BlockEmitter,
    ) -> Result<Vec<EntryHead>, Untranslatable> {
        let translatable = |i: &&Inst| Self::sequenceable(i) && Self::can_downgrade(i);
        if let Some(&bad) = run.iter().find(|i| !translatable(i)) {
            return Err(Untranslatable(bad));
        }
        let (mut heads, mut inner, mut start) = (Vec::new(), Vec::new(), 0);
        for &(at, from) in entries {
            if at > start && !run[start..=at].iter().any(is_vsetvli) {
                self.run(&run[start..at], &inner, em, &mut heads);
                (inner, start) = (Vec::new(), at);
            }
            if at == start {
                em.reloc(Reloc::Redirect { from });
            } else {
                inner.push((at - start, from));
            }
        }
        self.run(&run[start..], &inner, em, &mut heads);
        Ok(heads)
    }

    /// Emits one run, with `entries` inside it (each at or after its first
    /// `vsetvli`), and pushes their entry heads onto `heads`.
    fn run(
        &self,
        run: &[Inst],
        entries: &[(usize, u64)],
        em: &mut BlockEmitter,
        heads: &mut Vec<EntryHead>,
    ) {
        // Before the first `vsetvli` the SEW is the spilled one: loads and
        // stores up to the first instruction that reads it are emitted
        // once, the rest of that part once per width.
        let set = run.iter().position(is_vsetvli).unwrap_or(run.len());
        let (head, tail) = run.split_at(set);
        let reads_sew = |i: &Inst| {
            matches!(
                i,
                Inst::VArith { .. } | Inst::VMvXS { .. } | Inst::VMvSX { .. }
            )
        };
        let mut split = head.iter().position(reads_sew).unwrap_or(head.len());
        if head.get(split).is_some_and(elementwise) {
            // Loads right before a stretch join it in the copy whose SEW is
            // their width.
            while split > 0 && matches!(head[split - 1], Inst::VLoad { .. }) {
                split -= 1;
            }
        }
        let (lead, head) = head.split_at(split);
        let free = Free::of(run);
        // Labels in the code of `tail`, by position in it: one at each
        // entry, and one where an entry's copy rejoins it (the next
        // `vsetvli`, or the end).
        let mut marks: Vec<(usize, Label)> = Vec::new();
        let mut mark = |at: usize, em: &mut BlockEmitter| match marks.iter().find(|m| m.0 == at) {
            Some(&(_, label)) => label,
            None => {
                let label = em.new_label();
                marks.push((at, label));
                label
            }
        };
        let copies: Vec<_> = entries
            .iter()
            .map(|&(at, from)| {
                let into = mark(at - set, em);
                // From a `vsetvli` on the code is right for any spilled SEW.
                let copy = (!is_vsetvli(&run[at])).then(|| {
                    let end = run[at..]
                        .iter()
                        .position(is_vsetvli)
                        .map_or(run.len(), |n| at + n);
                    let sew = run[..at].iter().rev().find_map(|i| match i {
                        Inst::Vsetvli { vtype, .. } => Some(vtype.sew),
                        _ => None,
                    });
                    let other = match sew {
                        Some(Eew::E64) => Eew::E32,
                        _ => Eew::E64,
                    };
                    (at..end, other, mark(end - set, em))
                });
                (from, into, copy)
            })
            .collect();
        // Each stretch's plan, in the order `body` emits them, then each
        // copy's. The run borrows as many registers as its hungriest
        // stretch.
        let parts = [
            (lead, Eew::E64, &[][..]),
            (head, Eew::E64, &[]),
            (head, Eew::E32, &[]),
        ];
        let plans: Vec<Plan> = parts
            .into_iter()
            .chain([(tail, Eew::E64, &marks[..])])
            .flat_map(|(insts, sew, marks)| plans_of(insts, sew, &free, cuts(marks)))
            .collect();
        let copy_plans: Vec<Vec<Plan>> = copies
            .iter()
            .map(|(_, _, copy)| match copy {
                Some((range, sew, _)) => {
                    plans_of(&run[range.clone()], *sew, &free, |_| false).collect()
                }
                None => Vec::new(),
            })
            .collect();
        let borrows = plans
            .iter()
            .chain(copy_plans.iter().flatten())
            .map(Plan::borrows);
        let (bx, bf) = borrows.fold((0, 0), |(x, f), (px, pf)| (x.max(px), f.max(pf)));
        let fp = run
            .iter()
            .any(|i| matches!(i, Inst::VArith { op, .. } if op.is_fp()));
        let xs = X_POOL
            .into_iter()
            .filter(|&r| run.iter().any(|i| saves(i, r)))
            .map(|r| (ElemReg::int(r), SpillLayout::x_slot(r)));
        let fs = F_SCRATCH
            .into_iter()
            .filter(|_| fp)
            .map(|f| (ElemReg::float(f), SpillLayout::f_slot(f)));
        let borrowed = free.x[..bx]
            .iter()
            .map(|&r| ElemReg::int(r))
            .chain(free.f[..bf].iter().map(|&f| ElemReg::float(f)))
            .map(|r| (r, SpillLayout::borrow_slot(r)));
        let saved: Vec<(ElemReg, i32)> = xs.chain(fs).chain(borrowed).collect();
        self.prologue(&saved, em);
        let plans = &mut plans.into_iter();
        self.body(lead, Eew::E64, &free, plans, &[], em);
        if !head.is_empty() {
            // The one dispatch on the spilled SEW.
            let (l32, join) = (em.new_label(), em.new_label());
            em.inst(spill_ld(XReg::T2, SpillLayout::SEW));
            em.inst(chimera_obj::addi(XReg::T2, XReg::T2, -8));
            em.branch_to(BranchKind::Bne, XReg::T2, XReg::ZERO, l32);
            self.body(head, Eew::E64, &free, plans, &[], em);
            em.jal_to(XReg::ZERO, join);
            em.label(l32);
            self.body(head, Eew::E32, &free, plans, &[], em);
            em.label(join);
        }
        // From its `vsetvli` on, the run knows its SEW.
        self.body(tail, Eew::E64, &free, plans, &marks, em);
        if let Some(&(_, end)) = marks.iter().find(|m| m.0 == tail.len()) {
            em.label(end);
        }
        for &(r, slot) in saved.iter().rev() {
            em.inst(r.load(Eew::E64, XReg::GP, slot));
        }
        self.restore_gp(em);
        let heads_of = copies.into_iter().zip(copy_plans);
        heads.extend(heads_of.map(|((from, into, copy), plans)| EntryHead {
            from,
            saved: saved.clone(),
            into,
            copy: copy.map(|(range, sew, rejoin)| EntryCopy {
                insts: run[range].to_vec(),
                sew,
                free,
                plans,
                rejoin,
            }),
        }));
    }

    /// `gp` at the spill section, then the saves `saved`: the state a run
    /// is entered in.
    fn prologue(&self, saved: &[(ElemReg, i32)], em: &mut BlockEmitter) {
        self.spill_gp(em);
        for &(r, slot) in saved {
            em.inst(r.store(Eew::E64, XReg::GP, slot));
        }
    }

    /// Emits `head` (module docs): the entry's redirect and the run's
    /// prologue, then a jump into the run's code at the entry — behind a
    /// dispatch on the spilled SEW and the entry's own copy when that code
    /// is right for one SEW only.
    pub fn entry_head(&self, head: EntryHead, em: &mut BlockEmitter) {
        em.reloc(Reloc::Redirect { from: head.from });
        self.prologue(&head.saved, em);
        let Some(copy) = head.copy else {
            em.jal_to(XReg::ZERO, head.into);
            return;
        };
        em.inst(spill_ld(XReg::T2, SpillLayout::SEW));
        em.inst(chimera_obj::addi(XReg::T2, XReg::T2, -8));
        // Any spilled SEW but 8 is `e32`.
        let hot = match copy.sew {
            Eew::E32 => BranchKind::Beq,
            _ => BranchKind::Bne,
        };
        em.branch_to(hot, XReg::T2, XReg::ZERO, head.into);
        let plans = &mut copy.plans.into_iter();
        self.body(&copy.insts, copy.sew, &copy.free, plans, &[], em);
        em.jal_to(XReg::ZERO, copy.rejoin);
    }

    /// Emits `insts` of a run under SEW `sew` (a `vsetvli` among them sets
    /// another): each stretch as one element loop by the next of `plans`,
    /// every other instruction by its template. A piece starts at each
    /// position of `insts` that `marks` names, with its label bound there.
    fn body(
        &self,
        insts: &[Inst],
        sew: Eew,
        free: &Free,
        plans: &mut std::vec::IntoIter<Plan>,
        marks: &[(usize, Label)],
        em: &mut BlockEmitter,
    ) {
        let mut at = 0;
        for (part, sew) in pieces(insts, sew, free, cuts(marks)) {
            if let Some(&(_, label)) = marks.iter().find(|m| m.0 == at) {
                em.label(label);
            }
            at += part.len();
            match part[0] {
                Inst::Vsetvli { rd, rs1, vtype } => self.vsetvli(rd, rs1, vtype.sew, em),
                Inst::VLoad { eew, vd, rs1 } if part.len() == 1 => {
                    self.vmem(true, eew, vd, rs1, em)
                }
                Inst::VStore { eew, vs3, rs1 } => self.vmem(false, eew, vs3, rs1, em),
                Inst::VMvXS { rd, vs2 } => self.vmv_x_s(rd, vs2, sew, em),
                Inst::VMvSX { vd, rs1 } => self.vmv_s_x(vd, rs1, sew, em),
                _ => {
                    let plan = plans.next().expect("a plan per stretch");
                    self.stretch(part, sew, free, plan, em)
                }
            }
        }
    }

    /// Reads source register `src` into scratch `dst`: inside a run a
    /// scratch register's *program* value lives in its save slot.
    fn capture_x(&self, em: &mut BlockEmitter, dst: XReg, src: XReg) {
        if X_POOL.contains(&src) {
            em.inst(spill_ld(dst, SpillLayout::x_slot(src)));
        } else {
            em.inst(chimera_isa::mv(dst, src));
        }
    }

    /// Delivers `value` to destination `rd`: a scratch destination's save
    /// slot is updated instead (the program value materializes at the end
    /// of the run).
    fn deliver(&self, em: &mut BlockEmitter, rd: XReg, value: XReg) {
        if X_POOL.contains(&rd) {
            em.inst(spill_sd(value, SpillLayout::x_slot(rd)));
        } else if rd != value && rd != XReg::ZERO {
            em.inst(chimera_isa::mv(rd, value));
        }
    }

    /// Whether a downgrade template exists for `inst`: the single answer,
    /// for the rewriter's partition walk, its block emission, regeneration
    /// and the kernel's lazy rewriter alike. `downgrade*` return
    /// [`Untranslatable`] exactly when this is `false`, before emitting
    /// anything.
    pub fn can_downgrade(inst: &Inst) -> bool {
        // Every template borrows `gp` (spill pointer or free temporary) and
        // re-materializes it, so an instruction that reads or writes it has
        // none.
        if inst.uses_x().contains(XReg::GP) || inst.def_x() == Some(XReg::GP) {
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
            Inst::VMvXS { .. } | Inst::VMvSX { .. } => true,
            // Zba / Zbb: the rows of the table.
            _ => zb_row(inst).is_some(),
        }
    }

    /// Emits the downgrade of `inst` standalone: a vector instruction is a
    /// run of one; a Zba / Zbb instruction is its row of `ZB_ROWS`, with
    /// the row's own `gp` discipline.
    pub fn downgrade(&self, inst: &Inst, em: &mut BlockEmitter) -> Result<(), Untranslatable> {
        if Self::sequenceable(inst) {
            return self.sequence(std::slice::from_ref(inst), &[], em).map(drop);
        }
        let refused = Untranslatable(*inst);
        let found = zb_row(inst).filter(|_| Self::can_downgrade(inst));
        let (row, [rd, rs1, rs2], sh) = found.ok_or(refused)?;
        // `$s`: a pool register no operand names.
        let s = X_POOL.into_iter().find(|r| ![rd, rs1, rs2].contains(r));
        let s = s.ok_or(refused)?;
        static ROWS: std::sync::OnceLock<Vec<ZbRow>> = std::sync::OnceLock::new();
        let row =
            &ROWS.get_or_init(|| ZB_ROWS.iter().map(|&(_, text)| parse_row(text)).collect())[row];
        let labels: Vec<Label> = (0..row.labels).map(|_| em.new_label()).collect();
        if row.scratch {
            self.spill_gp(em);
            em.inst(spill_sd(s, SpillLayout::x_slot(s)));
        }
        for step in &row.steps {
            match *step {
                Step::Label(n) => em.label(labels[n]),
                Step::Inst { inst, to, imm } => {
                    let inst = bound(inst, [rd, rs1, rs2, s], imm.map(|f| f(sh)));
                    // A row is short: its branches need no relaxation.
                    match to {
                        Some(n) => em.fixup(labels[n], inst),
                        None => em.inst(inst),
                    }
                }
            };
        }
        if row.scratch {
            self.spill_gp(em);
            em.inst(spill_ld(s, SpillLayout::x_slot(s)));
        }
        if row.writes_gp {
            self.restore_gp(em);
        }
        Ok(())
    }

    // ----- Vector templates ------------------------------------------------
    //
    // All bodies run inside a run: gp = spill pointer, scratches saved.
    // Program values of scratch registers are read from their save slots
    // and scratch destinations are written through them (deliver).

    fn vsetvli(&self, rd: XReg, rs1: XReg, sew: Eew, em: &mut BlockEmitter) {
        let vlmax = (VLEN as i64) / sew.bits() as i64;
        let done = em.new_label();
        // t2 = requested AVL (or VLMAX for the rs1=zero, rd!=zero form).
        if rs1 == XReg::ZERO {
            if rd == XReg::ZERO {
                em.inst(spill_ld(XReg::T2, SpillLayout::VL));
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
        em.inst(spill_sd(XReg::T2, SpillLayout::VL));
        em.inst(chimera_obj::addi(XReg::T3, XReg::ZERO, sew.bytes() as i32));
        em.inst(spill_sd(XReg::T3, SpillLayout::SEW));
        self.deliver(em, rd, XReg::T2);
    }

    /// Unit-stride vector load/store between memory at `rs1` and the
    /// simulated register file.
    fn vmem(&self, is_load: bool, eew: Eew, v: VReg, rs1: XReg, em: &mut BlockEmitter) {
        // t2 = memory cursor.
        self.capture_x(em, XReg::T2, rs1);
        let looped = open_loop(eew, em);
        // t5 = the element, from one side to the other.
        let (mem, reg) = ((XReg::T2, 0), (XReg::T4, SpillLayout::vreg_off(v)));
        let (from, to) = if is_load { (mem, reg) } else { (reg, mem) };
        let t5 = ElemReg::int(XReg::T5);
        em.inst(t5.load(eew, from.0, from.1))
            .inst(t5.store(eew, to.0, to.1));
        em.inst(chimera_obj::addi(XReg::T2, XReg::T2, eew.bytes() as i32));
        close_loop(eew, looped, em);
    }

    /// A stretch (module docs) as one loop over the `vl` elements at `eew`:
    /// its loads step a cursor each (`t2`, then borrowed registers), and
    /// its operations run the scalar rows [`chimera_isa::VArithOp::element`]
    /// names on elements held in registers ([`ElemLoop`]); the fold that
    /// ends it, if any, accumulates in `plan.acc` (module docs). A fold
    /// with no stretch before it is a stretch of its own.
    fn stretch(&self, ops: &[Inst], eew: Eew, free: &Free, plan: Plan, em: &mut BlockEmitter) {
        let cursors = cursors(free);
        for (load, &c) in ops[..plan.loads].iter().zip(&cursors) {
            let Inst::VLoad { rs1, .. } = *load else {
                unreachable!("a stretch leads with its loads")
            };
            self.capture_x(em, c, rs1);
        }
        let off = SpillLayout::vreg_off;
        // The fold's accumulator, where it meets `vs1[0]`, and `vd`.
        let fold = plan.acc.map(|acc| match ops.split_last() {
            Some((
                &Inst::VArith {
                    op,
                    vd,
                    src: VSrc::V(vs1),
                    ..
                },
                before,
            )) => {
                let after = match op.element() {
                    Element::Fold(row) if before.iter().any(|i| i.def_v() == Some(vs1)) => {
                        Some(row)
                    }
                    _ => None,
                };
                (acc, after, vd, vs1)
            }
            _ => unreachable!("a stretch with an accumulator ends in a fold"),
        });
        match fold {
            Some((acc, Some(row), ..)) => {
                let identity = identity(row).expect("`joins` admits rows with an identity");
                em.inst(chimera_obj::addi(acc.x(), XReg::ZERO, identity));
            }
            Some((acc, None, _, vs1)) => {
                em.inst(acc.load(eew, XReg::GP, off(vs1)));
            }
            None => {}
        }
        let looped = open_loop(eew, em);
        ElemLoop::new(ops, Access::of(ops), eew, free, plan, Some(em)).run();
        close_loop(eew, looped, em);
        if let Some((acc, after, vd, vs1)) = fold {
            if let Some(row) = after {
                let t5 = ElemReg::int(XReg::T5);
                em.inst(t5.load(eew, XReg::GP, off(vs1)));
                alu(row, acc.x(), acc.x(), t5.x(), em);
            }
            em.inst(acc.store(eew, XReg::GP, off(vd)));
        }
    }

    /// `rd = vs2[0]` at SEW `sew` (`lw` sign-extends from `e32`).
    fn vmv_x_s(&self, rd: XReg, vs2: VReg, sew: Eew, em: &mut BlockEmitter) {
        let to = if X_POOL.contains(&rd) { XReg::T2 } else { rd };
        em.inst(ElemReg::int(to).load(sew, XReg::GP, SpillLayout::vreg_off(vs2)));
        self.deliver(em, rd, to);
    }

    /// `vd[0] = rs1` at SEW `sew`.
    fn vmv_s_x(&self, vd: VReg, rs1: XReg, sew: Eew, em: &mut BlockEmitter) {
        self.capture_x(em, XReg::T2, rs1);
        em.inst(ElemReg::int(XReg::T2).store(sew, XReg::GP, SpillLayout::vreg_off(vd)));
    }
}

// ----- Zba/Zbb templates ------------------------------------------------

/// The Zba / Zbb templates, one row of assembly per row kind, keyed by the
/// mnemonic of the instruction it stands for (`rori` by 0 is `rori 0`).
/// The text is what [`chimera_isa::parse`] reads, with `$rd`, `$rs1`,
/// `$rs2` for the instruction's operands, `$s` for a scratch register
/// none of them names, `$sh` and `64-$sh` for `rori`'s shift amounts, and
/// `name:` binding a local label a branch or `jal` names. `gp` is the free
/// temporary. [`Translator::downgrade`] wraps every row by one rule: a row
/// that names `$s` saves it to its slot before and restores it after, and
/// a row that writes `gp` re-materializes it last.
#[rustfmt::skip]
const ZB_ROWS: [(&str, &str); 22] = [
    ("sh1add", "slli gp, $rs1, 1; add $rd, gp, $rs2"),
    ("sh2add", "slli gp, $rs1, 2; add $rd, gp, $rs2"),
    ("sh3add", "slli gp, $rs1, 3; add $rd, gp, $rs2"),
    ("add.uw", "slli gp, $rs1, 32; srli gp, gp, 32; add $rd, gp, $rs2"),
    ("andn", "xori gp, $rs2, -1; and $rd, $rs1, gp"),
    ("orn", "xori gp, $rs2, -1; or $rd, $rs1, gp"),
    ("xnor", "xori gp, $rs2, -1; xor $rd, $rs1, gp"),
    ("min", "blt $rs1, $rs2, l1; addi gp, $rs2, 0; jal zero, l2; l1: addi gp, $rs1, 0; l2: addi $rd, gp, 0"),
    ("minu", "bltu $rs1, $rs2, l1; addi gp, $rs2, 0; jal zero, l2; l1: addi gp, $rs1, 0; l2: addi $rd, gp, 0"),
    ("max", "bge $rs1, $rs2, l1; addi gp, $rs2, 0; jal zero, l2; l1: addi gp, $rs1, 0; l2: addi $rd, gp, 0"),
    ("maxu", "bgeu $rs1, $rs2, l1; addi gp, $rs2, 0; jal zero, l2; l1: addi gp, $rs1, 0; l2: addi $rd, gp, 0"),
    ("rol", "andi $s, $rs2, 63; sll gp, $rs1, $s; sub $s, zero, $s; andi $s, $s, 63; srl $s, $rs1, $s; \
             or gp, gp, $s; addi $rd, gp, 0"),
    ("ror", "andi $s, $rs2, 63; srl gp, $rs1, $s; sub $s, zero, $s; andi $s, $s, 63; sll $s, $rs1, $s; \
             or gp, gp, $s; addi $rd, gp, 0"),
    ("rori", "srli gp, $rs1, $sh; slli $rd, $rs1, 64-$sh; or $rd, $rd, gp"),
    ("rori 0", "addi $rd, $rs1, 0"),
    ("clz", "addi gp, $rs1, 0; addi $rd, zero, 64; beq gp, zero, done; addi $rd, zero, 0; \
             top: blt gp, zero, done; slli gp, gp, 1; addi $rd, $rd, 1; jal zero, top; done:"),
    ("ctz", "addi gp, $rs1, 0; addi $rd, zero, 64; beq gp, zero, done; addi $rd, zero, 0; \
             top: andi $s, gp, 1; bne $s, zero, done; srli gp, gp, 1; addi $rd, $rd, 1; jal zero, top; done:"),
    ("cpop", "addi gp, $rs1, 0; addi $rd, zero, 0; \
              top: beq gp, zero, done; andi $s, gp, 1; add $rd, $rd, $s; srli gp, gp, 1; jal zero, top; done:"),
    ("sext.b", "slli $rd, $rs1, 56; srai $rd, $rd, 56"),
    ("sext.h", "slli $rd, $rs1, 48; srai $rd, $rd, 48"),
    ("zext.h", "slli $rd, $rs1, 48; srli $rd, $rd, 48"),
    // Eight byte moves, unrolled.
    ("rev8", "addi gp, $rs1, 0; addi $rd, zero, 0; \
              slli $rd, $rd, 8; andi $s, gp, 255; or $rd, $rd, $s; srli gp, gp, 8; \
              slli $rd, $rd, 8; andi $s, gp, 255; or $rd, $rd, $s; srli gp, gp, 8; \
              slli $rd, $rd, 8; andi $s, gp, 255; or $rd, $rd, $s; srli gp, gp, 8; \
              slli $rd, $rd, 8; andi $s, gp, 255; or $rd, $rd, $s; srli gp, gp, 8; \
              slli $rd, $rd, 8; andi $s, gp, 255; or $rd, $rd, $s; srli gp, gp, 8; \
              slli $rd, $rd, 8; andi $s, gp, 255; or $rd, $rd, $s; srli gp, gp, 8; \
              slli $rd, $rd, 8; andi $s, gp, 255; or $rd, $rd, $s; srli gp, gp, 8; \
              slli $rd, $rd, 8; andi $s, gp, 255; or $rd, $rd, $s; srli gp, gp, 8"),
];

/// The registers a row's operands `$rd`, `$rs1`, `$rs2` and `$s` parse
/// as; [`Translator::downgrade`] binds them. No row names one literally.
const ZB_SLOTS: [(&str, &str); 4] = [("$rd", "a0"), ("$rs1", "a1"), ("$rs2", "a2"), ("$s", "a3")];

/// How an immediate of a row is computed from `rori`'s shift amount.
type Shift = fn(i32) -> i32;

/// `rori`'s shift amounts as a row spells them.
const ZB_SHIFTS: [(&str, Shift); 2] = [("$sh", |sh| sh), ("64-$sh", |sh| 64 - sh)];

/// A row of [`ZB_ROWS`], parsed: its steps, how many local labels it
/// binds, whether it names `$s` and whether it writes `gp`.
#[derive(Default)]
struct ZbRow {
    steps: Vec<Step>,
    labels: usize,
    scratch: bool,
    writes_gp: bool,
}

/// One step of a parsed row.
enum Step {
    /// Binds the row's local label `n` here.
    Label(usize),
    /// An instruction over [`ZB_SLOTS`]' registers: a branch or `jal` to
    /// local label `to`; an immediate computed from `rori`'s shift amount.
    Inst {
        inst: Inst,
        to: Option<usize>,
        imm: Option<Shift>,
    },
}

/// Parses one row's text ([`ZB_ROWS`]).
fn parse_row(text: &str) -> ZbRow {
    let stmts = text.split(';').map(str::trim);
    let labels: Vec<_> = stmts.clone().filter_map(|st| st.split_once(':')).collect();
    let mut row = ZbRow::default();
    for mut stmt in stmts {
        if let Some((_, rest)) = stmt.split_once(':') {
            row.steps.push(Step::Label(row.labels));
            row.labels += 1;
            stmt = rest.trim();
        }
        let Some((mnemonic, operands)) = stmt.split_once(' ') else {
            continue;
        };
        let (mut to, mut imm, mut ops) = (None, None, Vec::new());
        for op in operands.split(',').map(str::trim) {
            row.scratch |= op == "$s";
            let slot = ZB_SLOTS.iter().find(|&&(name, _)| name == op);
            let label = labels.iter().position(|&(l, _)| l == op);
            let shift = ZB_SHIFTS.iter().find(|&&(name, _)| name == op);
            (to, imm) = (to.or(label), imm.or(shift.map(|&(_, f)| f)));
            ops.push(match slot {
                Some(&(_, r)) => r,
                None if label.is_some() || shift.is_some() => "0",
                None => op,
            });
        }
        let inst = chimera_isa::parse(mnemonic, &ops).unwrap_or_else(|e| panic!("`{stmt}`: {e}"));
        row.writes_gp |= inst.def_x() == Some(XReg::GP);
        row.steps.push(Step::Inst { inst, to, imm });
    }
    row
}

/// The row of [`ZB_ROWS`] standing for `inst`, by index, with its operands
/// `rd`, `rs1` and `rs2` (`zero` where it has none) and `rori`'s shift
/// amount.
fn zb_row(inst: &Inst) -> Option<(usize, [XReg; 3], i32)> {
    let (key, ops, sh) = match *inst {
        Inst::Op { kind, rd, rs1, rs2 } => (kind.mnemonic(), [rd, rs1, rs2], 0),
        Inst::Unary { kind, rd, rs1 } => (kind.mnemonic(), [rd, rs1, XReg::ZERO], 0),
        Inst::OpImm { kind, rd, rs1, imm } => {
            let sh = imm & 63;
            let by_zero = kind == OpImmKind::Rori && sh == 0;
            let key = if by_zero { "rori 0" } else { kind.mnemonic() };
            (key, [rd, rs1, XReg::ZERO], sh)
        }
        _ => return None,
    };
    let row = ZB_ROWS.iter().position(|&(k, _)| k == key)?;
    Some((row, ops, sh))
}

/// `inst` (an ALU row, a branch or a `jal`) with each register of
/// [`ZB_SLOTS`] it names bound to the operand `regs` holds for it, and its
/// immediate replaced by `shift` if that is set.
fn bound(mut inst: Inst, regs: [XReg; 4], shift: Option<i32>) -> Inst {
    let fields = match &mut inst {
        Inst::Op { rd, rs1, rs2, .. } => vec![rd, rs1, rs2],
        Inst::OpImm { rd, rs1, imm, .. } => {
            *imm = shift.unwrap_or(*imm);
            vec![rd, rs1]
        }
        Inst::Branch { rs1, rs2, .. } => vec![rs1, rs2],
        Inst::Jal { rd, .. } => vec![rd],
        _ => vec![],
    };
    for r in fields {
        if let Some(n) = ZB_SLOTS.iter().position(|&(_, slot)| slot == r.abi_name()) {
            *r = regs[n];
        }
    }
    inst
}

/// Whether a run holding `inst` saves integer scratch `r`: its template
/// writes `r`, or the instruction names `r` (whose program value the run
/// then reads from, or writes to, the save slot).
fn saves(inst: &Inst, r: XReg) -> bool {
    // Each template writes a prefix of the pool: `t2` holds the SEW
    // dispatch, the AVL, the memory cursor or `x[rd]`; `t3` the loop end or
    // VLMAX; `t4` the cursor; `t5` / `t6` integer elements.
    let written = match *inst {
        Inst::VMvXS { .. } | Inst::VMvSX { .. } => 1,
        Inst::Vsetvli { .. } => 2,
        Inst::VArith { op, .. } if op.is_fp() => 3,
        Inst::VLoad { .. } | Inst::VStore { .. } => 4,
        _ => 5,
    };
    X_POOL[..written].contains(&r) || inst.uses_x().contains(r) || inst.def_x() == Some(r)
}

/// Opens a loop over the `vl` elements at `eew`: the cursor `t4` steps
/// from `gp` (so element `i` of any register is at a static offset from
/// it) to `t3`, and the whole loop is skipped when `vl` = 0. Returns the
/// labels [`close_loop`] takes.
fn open_loop(eew: Eew, em: &mut BlockEmitter) -> (Label, Label) {
    let (top, done) = (em.new_label(), em.new_label());
    let (t3, t4, gp) = (XReg::T3, XReg::T4, XReg::GP);
    em.inst(spill_ld(t3, SpillLayout::VL));
    em.branch_to(BranchKind::Beq, t3, XReg::ZERO, done);
    em.inst(Inst::OpImm {
        kind: OpImmKind::Slli,
        rd: t3,
        rs1: t3,
        imm: eew.bytes().trailing_zeros() as i32,
    });
    em.inst(chimera_obj::add(t3, t3, gp));
    em.inst(chimera_isa::mv(t4, gp));
    em.label(top);
    (top, done)
}

/// Closes a loop [`open_loop`] opened: one `addi` and one `bne` per element.
fn close_loop(eew: Eew, (top, done): (Label, Label), em: &mut BlockEmitter) {
    em.inst(chimera_obj::addi(XReg::T4, XReg::T4, eew.bytes() as i32));
    em.branch_to(BranchKind::Bne, XReg::T4, XReg::T3, top);
    em.label(done);
}

/// Whether `inst` is an element-wise operation: it reads only element `i`
/// of its sources and writes only element `i` of `vd`.
fn elementwise(inst: &Inst) -> bool {
    matches!(inst, Inst::VArith { op, .. } if !op.is_reduction())
}

fn is_vsetvli(inst: &Inst) -> bool {
    matches!(inst, Inst::Vsetvli { .. })
}

/// Whether a piece must start at a position: where `marks` names one.
fn cuts(marks: &[(usize, Label)]) -> impl Fn(usize) -> bool + '_ {
    move |at| marks.iter().any(|m| m.0 == at)
}

/// Splits `insts`, under SEW `sew`, into what [`Translator::body`] emits
/// one at a time, each with the element width its loop runs at: a
/// *stretch* — up to `free.nx + 1` unit-stride loads of `eew` = SEW, then
/// one or more element-wise operations and the fold right after them if it
/// [`joins`] them, or two or more loads of one `eew` and nothing else — or
/// one instruction. No piece spans a position `cut` names.
fn pieces<'a>(
    insts: &'a [Inst],
    mut sew: Eew,
    free: &Free,
    cut: impl Fn(usize) -> bool,
) -> impl Iterator<Item = (&'a [Inst], Eew)> {
    let (mut rest, mut at, free) = (insts, 0, *free);
    let max_loads = free.nx + 1;
    std::iter::from_fn(move || {
        let first = *rest.first()?;
        if let Inst::Vsetvli { vtype, .. } = first {
            sew = vtype.sew;
        }
        let room = (1..rest.len()).find(|&n| cut(at + n)).unwrap_or(rest.len());
        let view = &rest[..room];
        let loads_of = |width| {
            view.iter()
                .take_while(|i| matches!(i, Inst::VLoad { eew, .. } if *eew == width))
                .count()
        };
        let loads = loads_of(sew);
        let ops = view[loads..].iter().take_while(|i| elementwise(i)).count();
        let ops = ops.min(MAX_STRETCH.saturating_sub(loads));
        let (len, width) = match first {
            _ if ops > 0 && loads <= max_loads => {
                let stretch = &view[..loads + ops];
                let fold = view.get(loads + ops);
                let fused = fold.is_some_and(|f| joins(f, stretch, loads, &free));
                (loads + ops + fused as usize, sew)
            }
            Inst::VLoad { eew, .. } if ops == 0 => (loads_of(eew).min(max_loads).max(1), eew),
            _ => (1, sew),
        };
        let (part, next) = rest.split_at(len);
        (rest, at) = (next, at + len);
        Some((part, width))
    })
}

/// The plan of each stretch [`pieces`] makes of `insts`, in order.
fn plans_of<'a>(
    insts: &'a [Inst],
    sew: Eew,
    free: &'a Free,
    cut: impl Fn(usize) -> bool + 'a,
) -> impl Iterator<Item = Plan> + 'a {
    pieces(insts, sew, free, cut)
        .filter(|(part, _)| part.len() > 1 || matches!(part[0], Inst::VArith { .. }))
        .map(|(part, sew)| plan(part, sew, free))
}

/// Whether `fold` joins the loop of `stretch` (with `loads` leading loads)
/// right before it (module docs). An integer accumulator follows the
/// loads' cursors; an FP one is `ft10`, for which a stretch computing in FP
/// borrows an `f` register.
fn joins(fold: &Inst, stretch: &[Inst], loads: usize, free: &Free) -> bool {
    let Inst::VArith {
        op,
        src: VSrc::V(vs1),
        ..
    } = *fold
    else {
        return false;
    };
    let writes_vs1 = stretch.iter().any(|i| i.def_v() == Some(vs1));
    stretch.len() < MAX_STRETCH
        && match op.element() {
            Element::Fold(row) => loads <= free.nx && (!writes_vs1 || identity(row).is_some()),
            Element::FFold(_) => !writes_vs1 && (free.nf > 0 || !classes(stretch).1),
            _ => false,
        }
}

/// The value an integer fold's accumulator starts from, which no element
/// changes (`addi`'s immediate), for the rows a `Fold` names.
fn identity(row: OpKind) -> Option<i32> {
    (row == OpKind::Add).then_some(0)
}

/// The most registers of one class a run borrows.
const MAX_BORROW: usize = 8;

/// The registers a run may borrow, in order: those no instruction of it
/// names, other than `zero`, `sp`, `gp`, `tp` and the scratch pools.
#[derive(Debug, Clone, Copy)]
struct Free {
    x: [XReg; MAX_BORROW],
    nx: usize,
    f: [FReg; MAX_BORROW],
    nf: usize,
}

impl Free {
    fn of(run: &[Inst]) -> Free {
        let (mut taken_x, mut taken_f) = (RegSet::EMPTY, FRegSet::EMPTY);
        for i in run {
            taken_x = taken_x.union(i.uses_x());
            if let Some(rd) = i.def_x() {
                taken_x.insert(rd);
            }
            if let Inst::VArith {
                src: VSrc::F(f), ..
            } = *i
            {
                taken_f.insert(f);
            }
        }
        let pinned = [XReg::ZERO, XReg::SP, XReg::GP, XReg::TP];
        for r in pinned.into_iter().chain(X_POOL) {
            taken_x.insert(r);
        }
        F_SCRATCH.into_iter().for_each(|f| taken_f.insert(f));
        let mut free = Free {
            x: [XReg::ZERO; MAX_BORROW],
            nx: 0,
            f: [FReg::of(0); MAX_BORROW],
            nf: 0,
        };
        for r in taken_x.absent().take(MAX_BORROW) {
            (free.x[free.nx], free.nx) = (r, free.nx + 1);
        }
        for f in taken_f.absent().take(MAX_BORROW) {
            (free.f[free.nf], free.nf) = (f, free.nf + 1);
        }
        free
    }
}

/// The memory cursors of a stretch's loads, in order: `t2`, then the
/// first borrowed `x` registers.
fn cursors(free: &Free) -> [XReg; MAX_BORROW + 1] {
    let mut c = [XReg::T2; MAX_BORROW + 1];
    c[1..].copy_from_slice(&free.x);
    c
}

/// How a stretch runs: its number of loads, the register the fold that
/// ends it accumulates in, and the `x` and `f` registers it borrows to hold
/// elements in.
#[derive(Debug, Clone, Copy)]
struct Plan {
    loads: usize,
    acc: Option<ElemReg>,
    /// The `x` and `f` registers it needs whatever `k` is: the loads'
    /// cursors and an integer accumulator (`t2`, then borrowed ones); the
    /// borrowed stand-in for `ft10` where that is an FP accumulator.
    fixed: (usize, usize),
    /// Borrowed beyond `fixed`.
    k: (usize, usize),
}

impl Plan {
    /// How many `x` and `f` registers the stretch borrows.
    fn borrows(&self) -> (usize, usize) {
        let (x, f) = self.fixed;
        (x.saturating_sub(1) + self.k.0, f + self.k.1)
    }
}

/// The [`Plan`] of stretch `ops` at `eew`. A register is borrowed only
/// where it takes at least two loads or stores out of the loop body: per
/// element, what its save and restore cost the whole run. A fold's
/// accumulator always does: in memory it would cost a load and a store.
fn plan(ops: &[Inst], eew: Eew, free: &Free) -> Plan {
    let loads = ops
        .iter()
        .take_while(|i| matches!(i, Inst::VLoad { .. }))
        .count();
    let (acc, fixed) = match ops.split_last() {
        Some((Inst::VArith { op, .. }, before)) if op.is_reduction() && op.is_fp() => {
            let f = ElemReg::float(F_SCRATCH[2]);
            (Some(f), (loads, classes(before).1 as usize))
        }
        Some((Inst::VArith { op, .. }, _)) if op.is_reduction() => {
            let x = ElemReg::int(cursors(free)[loads]);
            (Some(x), (loads + 1, 0))
        }
        _ => (None, (loads, 0)),
    };
    let access = Access::of(ops);
    let plan = |k| Plan {
        loads,
        acc,
        fixed,
        k,
    };
    let memops = |k| ElemLoop::new(ops, access, eew, free, plan(k), None).run();
    let (mut k, mut best) = ((0, 0), memops((0, 0)));
    // Only a class the stretch computes in can use another register.
    let (int, fp) = classes(ops);
    let room = (
        if int { free.nx + 1 - fixed.0.max(1) } else { 0 },
        if fp { free.nf - fixed.1 } else { 0 },
    );
    let fewest = access.fewest_memops(ops);
    while best >= fewest + 2 {
        let more = [(k.0 + 1, k.1), (k.0, k.1 + 1)]
            .into_iter()
            .filter(|&(kx, kf)| kx <= room.0 && kf <= room.1)
            .map(|k| (memops(k), k))
            .find(|&(m, _)| m + 2 <= best);
        match more {
            Some((m, next)) => (best, k) = (m, next),
            None => break,
        }
    }
    plan(k)
}

/// Whether `ops` hold an integer and an FP operation.
fn classes(ops: &[Inst]) -> (bool, bool) {
    let fp = |i: &Inst| match *i {
        Inst::VArith { op, .. } => Some(op.is_fp()),
        _ => None,
    };
    let has = |class| ops.iter().any(|i| fp(i) == Some(class));
    (has(false), has(true))
}

/// The most instructions a stretch holds: a longer one is split.
const MAX_STRETCH: usize = 32;

/// Where in a stretch each vector register is read and written: bit `j`
/// of `reads[v]` is set when instruction `j` reads `v`.
#[derive(Debug, Clone, Copy)]
struct Access {
    reads: [u32; 32],
    writes: [u32; 32],
}

impl Access {
    fn of(ops: &[Inst]) -> Access {
        let mut a = Access {
            reads: [0; 32],
            writes: [0; 32],
        };
        for (j, inst) in ops.iter().enumerate() {
            // The fold that ends a stretch reads `vs2[i]` in the loop; its
            // `vs1[0]` and `vd[0]` lie outside it.
            if let Inst::VArith { op, vs2, .. } = *inst {
                if op.is_reduction() {
                    a.reads[vs2.index() as usize] |= 1 << j;
                    continue;
                }
            }
            for v in inst.uses_v().iter() {
                a.reads[v.index() as usize] |= 1 << j;
            }
            if let Some(vd) = inst.def_v() {
                a.writes[vd.index() as usize] |= 1 << j;
            }
        }
        a
    }

    /// The loads and stores no register can spare the loop body of stretch
    /// `ops`: one load per vector register it reads before it writes it,
    /// one store per register it writes, one load per element a leading
    /// load brings and per read of a scratch scalar from its save slot.
    fn fewest_memops(&self, ops: &[Inst]) -> usize {
        let read_first = (0..32).filter(|&v| {
            let (r, w) = (self.reads[v], self.writes[v]);
            r != 0 && (w == 0 || r.trailing_zeros() <= w.trailing_zeros())
        });
        let written = self.writes.iter().filter(|&&w| w != 0);
        let scalars = ops.iter().filter(|i| match **i {
            Inst::VLoad { .. } => true,
            Inst::VArith {
                src: VSrc::X(r), ..
            } => X_POOL.contains(&r),
            Inst::VArith {
                src: VSrc::F(f), ..
            } => F_SCRATCH.contains(&f),
            _ => false,
        });
        read_first.count() + written.count() + scalars.count()
    }

    /// The first instruction at or after `from` whose bit `at[v]` sets.
    fn first(at: &[u32; 32], v: VReg, from: usize) -> usize {
        match (at[v.index() as usize] as u64) >> from {
            0 => usize::MAX,
            later => from + later.trailing_zeros() as usize,
        }
    }
}

/// Where a vector register's element `i` is while a stretch's loop body
/// is emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    /// Its spill slot.
    Spill,
    /// [`ElemLoop::regs`]`[i]`.
    Reg(usize),
    /// A scalar register that no instruction of the run writes: the `x`
    /// source of a broadcast at `e64`, or `zero`.
    Scalar(ElemReg),
}

/// A register an element loop holds elements in, and what it holds.
#[derive(Debug, Clone, Copy)]
struct Held {
    reg: ElemReg,
    v: Option<VReg>,
    /// An `e32` integer whose upper half need not be the sign extension of
    /// its lower (a sum or product): `min` / `max` extend it first.
    wide: bool,
}

/// The most registers an element loop holds elements in.
const MAX_HELD: usize = 2 + 3 + 2 * MAX_BORROW;

/// The body of one stretch's element loop, emitted into `em` — or, with no
/// emitter, only counted ([`plan`]). A small local register allocator over
/// straight-line code: each vector register's element is loaded from its
/// slot at its first read and stored to it after its last write; in
/// between it stays in a register (`t5` / `t6`, `ft8`..`ft10`, then
/// borrowed ones) unless a fuller pool evicts the one read furthest ahead.
/// A leading load brings its element from memory. Sound because every row
/// reads only element `i` of its sources and writes only element `i` of
/// `vd`, and loads lead: no memory access is reordered past a store.
struct ElemLoop<'a, 'e> {
    ops: &'a [Inst],
    /// [`Access::of`] `ops`.
    access: Access,
    eew: Eew,
    loads: usize,
    /// The accumulator of the fold that ends the stretch.
    acc: Option<ElemReg>,
    cursors: [XReg; MAX_BORROW + 1],
    regs: [Held; MAX_HELD],
    n: usize,
    at: [At; 32],
    /// Registers whose slot does not hold the element the loop computed.
    stale: VRegSet,
    memops: usize,
    em: Option<&'e mut BlockEmitter>,
}

/// An operation's second operand.
#[derive(Debug, Clone, Copy)]
enum Second {
    Reg(ElemReg),
    Imm(i32),
}

impl<'a, 'e> ElemLoop<'a, 'e> {
    fn new(
        ops: &'a [Inst],
        access: Access,
        eew: Eew,
        free: &Free,
        plan: Plan,
        em: Option<&'e mut BlockEmitter>,
    ) -> Self {
        let Plan {
            loads,
            acc,
            fixed: (fixed_x, fixed_f),
            k: (kx, kf),
        } = plan;
        let (int, fp) = classes(ops);
        let first = fixed_x.saturating_sub(1);
        // A stretch of loads alone holds one element at a time.
        let temps_x = [XReg::T5, XReg::T6].into_iter().take(match (int, fp) {
            (true, _) => 2,
            (false, false) => 1,
            (false, true) => 0,
        });
        let xs = temps_x.chain(free.x[first..first + kx].iter().copied());
        let temps_f = F_SCRATCH
            .into_iter()
            .filter(|&f| fp && acc != Some(ElemReg::float(f)));
        let fs = temps_f.chain(free.f[..fixed_f + kf].iter().copied());
        let regs = xs.map(ElemReg::int).chain(fs.map(ElemReg::float));
        let mut held = [Held {
            reg: ElemReg::int(XReg::ZERO),
            v: None,
            wide: false,
        }; MAX_HELD];
        let mut n = 0;
        for (h, reg) in held.iter_mut().zip(regs) {
            h.reg = reg;
            n += 1;
        }
        ElemLoop {
            ops,
            access,
            eew,
            loads,
            acc,
            cursors: cursors(free),
            regs: held,
            n,
            at: [At::Spill; 32],
            stale: VRegSet::EMPTY,
            memops: 0,
            em,
        }
    }

    /// Emits the body; returns how many loads and stores it holds.
    fn run(mut self) -> usize {
        for j in 0..self.ops.len() {
            self.op(j);
        }
        debug_assert_eq!(self.stale, VRegSet::EMPTY, "every element is stored");
        self.memops
    }

    fn put(&mut self, inst: Inst) {
        let memop = matches!(
            inst,
            Inst::Load { .. } | Inst::Store { .. } | Inst::FLoad { .. } | Inst::FStore { .. }
        );
        self.memops += memop as usize;
        if let Some(em) = self.em.as_deref_mut() {
            em.inst(inst);
        }
    }

    /// The first operation at or after `from` that reads `v`.
    fn next_read(&self, v: VReg, from: usize) -> usize {
        Access::first(&self.access.reads, v, from)
    }

    /// Whether `v`'s element is overwritten, from operation `from` on,
    /// before anything reads it.
    fn dead(&self, v: VReg, from: usize) -> bool {
        let write = Access::first(&self.access.writes, v, from);
        write != usize::MAX && write < self.next_read(v, from)
    }

    /// Writes `v`'s element to its slot.
    fn store(&mut self, v: VReg) {
        let reg = match self.at[v.index() as usize] {
            At::Reg(i) => self.regs[i].reg,
            At::Scalar(r) => r,
            At::Spill => unreachable!("{v} is in its slot"),
        };
        self.put(reg.store(self.eew, XReg::T4, SpillLayout::vreg_off(v)));
        self.stale.remove(v);
    }

    /// Forgets where `v` is held (its slot is current).
    fn forget(&mut self, v: VReg) {
        if let At::Reg(i) = self.at[v.index() as usize] {
            self.regs[i].v = None;
        }
        self.at[v.index() as usize] = At::Spill;
    }

    /// A register of class `fp` outside `keep`, emptied: a free one, or the
    /// one whose element is read furthest after `from` (stored first if its
    /// slot is stale and something reads it before it is overwritten).
    fn alloc(&mut self, fp: bool, from: usize, keep: &[ElemReg]) -> usize {
        let spare = |v| !self.stale.contains(v) || self.dead(v, from);
        let open = |i: &usize| self.regs[*i].reg.fp == fp && !keep.contains(&self.regs[*i].reg);
        if let Some(i) = (0..self.n).filter(open).find(|&i| self.regs[i].v.is_none()) {
            self.regs[i].wide = false;
            return i;
        }
        let i = (0..self.n)
            .filter(open)
            .max_by_key(|&i| match self.regs[i].v {
                None => (usize::MAX, 2),
                Some(v) => (self.next_read(v, from), spare(v) as u8),
            })
            .expect("a stretch has registers of each class it computes in");
        if let Some(v) = self.regs[i].v {
            if self.stale.contains(v) && !self.dead(v, from) {
                self.store(v);
            }
            self.stale.remove(v);
            self.forget(v);
        }
        self.regs[i].wide = false;
        i
    }

    /// `v`'s element in a register of class `fp`, loaded from its slot if
    /// it is not held there (a register of `keep` stays untouched).
    fn fetch(&mut self, v: VReg, fp: bool, j: usize, keep: &[ElemReg]) -> ElemReg {
        match self.at[v.index() as usize] {
            At::Reg(i) if self.regs[i].reg.fp == fp => return self.regs[i].reg,
            At::Scalar(r) if r.fp == fp => return r,
            At::Spill => {}
            // Held in the other class: through the slot.
            _ => {
                if self.stale.contains(v) {
                    self.store(v);
                }
                self.forget(v);
            }
        }
        let i = self.alloc(fp, j, keep);
        let reg = self.regs[i].reg;
        self.put(reg.load(self.eew, XReg::T4, SpillLayout::vreg_off(v)));
        self.regs[i].v = Some(v);
        self.at[v.index() as usize] = At::Reg(i);
        reg
    }

    /// The register operation `j` writes `vd` into: the one holding it, or
    /// one whose element is read furthest ahead.
    fn out(&mut self, vd: VReg, fp: bool, j: usize) -> usize {
        match self.at[vd.index() as usize] {
            At::Reg(i) if self.regs[i].reg.fp == fp => i,
            _ => self.alloc(fp, j + 1, &[]),
        }
    }

    /// Records that operation `j` wrote `vd`'s element to `at`, and stores it
    /// if that was the stretch's last write of `vd`.
    fn wrote(&mut self, vd: VReg, at: At, wide: bool, j: usize) {
        if self.at[vd.index() as usize] != at {
            self.forget(vd);
        }
        if let At::Reg(i) = at {
            self.regs[i].v = Some(vd);
            self.regs[i].wide = wide;
        }
        self.at[vd.index() as usize] = at;
        self.stale.insert(vd);
        let later = Access::first(&self.access.writes, vd, j + 1) != usize::MAX;
        if !later {
            self.store(vd);
        }
    }

    /// `v`'s integer element in a register of the pool, which an
    /// accumulating row may overwrite (a scalar standing for it may not).
    fn hold(&mut self, v: VReg, j: usize, keep: ElemReg) -> usize {
        let r = self.fetch(v, false, j, &[keep]);
        if let At::Scalar(_) = self.at[v.index() as usize] {
            let i = self.alloc(false, j, &[keep]);
            self.put(chimera_isa::mv(self.regs[i].reg.x(), r.x()));
            self.regs[i].v = Some(v);
            self.at[v.index() as usize] = At::Reg(i);
            return i;
        }
        self.index_of(r)
    }

    fn index_of(&self, reg: ElemReg) -> usize {
        (0..self.n)
            .find(|&i| self.regs[i].reg == reg)
            .expect("a held register")
    }

    /// Sign-extends a held `e32` integer in place before `min` / `max`.
    fn narrow(&mut self, reg: ElemReg) {
        if let Some(i) = (0..self.n).find(|&i| self.regs[i].reg == reg && self.regs[i].wide) {
            self.put(addiw(reg.x(), reg.x()));
            self.regs[i].wide = false;
        }
    }

    fn op(&mut self, j: usize) {
        let eew = self.eew;
        if j < self.loads {
            let Inst::VLoad { eew, vd, .. } = self.ops[j] else {
                unreachable!("a stretch leads with its loads")
            };
            // Into the class of the first operation that reads it.
            let fp = match self.ops.get(self.next_read(vd, j)) {
                Some(Inst::VArith { op, .. }) => op.is_fp(),
                _ => !(0..self.n).any(|i| !self.regs[i].reg.fp),
            };
            let i = self.alloc(fp, j + 1, &[]);
            let c = self.cursors[j];
            self.put(self.regs[i].reg.load(eew, c, 0));
            self.put(chimera_obj::addi(c, c, eew.bytes() as i32));
            return self.wrote(vd, At::Reg(i), false, j);
        }
        let Inst::VArith { op, vd, vs2, src } = self.ops[j] else {
            unreachable!("a stretch holds loads, then element-wise operations")
        };
        let (fp, element) = (op.is_fp(), op.element());
        match element {
            Element::Move => return self.broadcast(vd, src, j),
            Element::Fold(_) | Element::FFold(_) => return self.fold(element, vs2, j),
            _ => {}
        }
        let x = self.fetch(vs2, fp, j, &[]);
        let s = self.second(src, fp, j, x);
        let reg = |s| match s {
            Second::Reg(r) => r,
            Second::Imm(_) => unreachable!("only add, and, or and xor have a .vi form"),
        };
        let width = ElemReg::fp_width(eew);
        match element {
            Element::Op(row) => {
                let min_max = min_max_branch(row).is_some();
                if min_max {
                    self.narrow(x);
                    self.narrow(reg(s));
                }
                let i = self.out(vd, false, j);
                let rd = self.regs[i].reg.x();
                match s {
                    Second::Imm(imm) => {
                        let kind = match row {
                            OpKind::Add => OpImmKind::Addi,
                            OpKind::And => OpImmKind::Andi,
                            OpKind::Or => OpImmKind::Ori,
                            OpKind::Xor => OpImmKind::Xori,
                            _ => unreachable!("{row:?} has no .vi form"),
                        };
                        let rs1 = x.x();
                        self.put(Inst::OpImm { kind, rd, rs1, imm });
                    }
                    Second::Reg(s) => self.alu(row, rd, x.x(), s.x()),
                }
                self.wrote(vd, At::Reg(i), eew == Eew::E32 && !min_max, j);
            }
            Element::Acc(row) => {
                // vd += x * s: the product in a register other than vd's.
                let keep = match self.at[vd.index() as usize] {
                    At::Reg(i) => Some(self.regs[i].reg),
                    _ => None,
                };
                let p = self.alloc(false, j + 1, keep.as_slice());
                let p = self.regs[p].reg;
                self.alu(row, p.x(), x.x(), reg(s).x());
                let i = self.hold(vd, j, p);
                let r = self.regs[i].reg.x();
                self.put(chimera_obj::add(r, r, p.x()));
                self.wrote(vd, At::Reg(i), eew == Eew::E32, j);
            }
            Element::FOp(kind) => {
                let i = self.out(vd, true, j);
                let (frd, frs1, frs2) = (self.regs[i].reg.f(), x.f(), reg(s).f());
                self.put(Inst::FOp {
                    kind,
                    width,
                    frd,
                    frs1,
                    frs2,
                });
                self.wrote(vd, At::Reg(i), false, j);
            }
            Element::FMa(kind) => {
                let s = reg(s);
                let r = self.fetch(vd, true, j, &[x, s]);
                let (frd, frs1, frs2, frs3) = (r.f(), s.f(), x.f(), r.f());
                self.put(Inst::FMa {
                    kind,
                    width,
                    frd,
                    frs1,
                    frs2,
                    frs3,
                });
                let i = self.index_of(r);
                self.wrote(vd, At::Reg(i), false, j);
            }
            Element::Move | Element::Fold(_) | Element::FFold(_) => {
                unreachable!("{} is not in a stretch", self.ops[j])
            }
        }
    }

    /// The fold that ends the stretch: its accumulator takes `vs2[i]`.
    fn fold(&mut self, element: Element, vs2: VReg, j: usize) {
        let acc = self.acc.expect("a fold in a stretch has an accumulator");
        let x = self.fetch(vs2, acc.fp, j, &[]);
        match element {
            // `joins` admits no `min` / `max`, whose `e32` operands would
            // need sign-extending.
            Element::Fold(row) => self.alu(row, acc.x(), acc.x(), x.x()),
            Element::FFold(kind) => {
                let (width, frd, frs1, frs2) =
                    (ElemReg::fp_width(self.eew), acc.f(), acc.f(), x.f());
                self.put(Inst::FOp {
                    kind,
                    width,
                    frd,
                    frs1,
                    frs2,
                })
            }
            _ => unreachable!("{element:?} is not a fold"),
        }
    }

    /// `vd[i] = src`: `zero` or an `x` register at `e64` stand for the
    /// element where they are; anything else is moved into a register.
    fn broadcast(&mut self, vd: VReg, src: VSrc, j: usize) {
        let eew = self.eew;
        let scalar = match src {
            VSrc::I(0) => Some(XReg::ZERO),
            VSrc::X(r) if eew == Eew::E64 && !X_POOL.contains(&r) => Some(r),
            _ => None,
        };
        if let Some(r) = scalar {
            return self.wrote(vd, At::Scalar(ElemReg::int(r)), false, j);
        }
        let from = match src {
            VSrc::V(vs1) => {
                let s = self.fetch(vs1, false, j, &[]);
                let wide = (0..self.n).any(|i| self.regs[i].reg == s && self.regs[i].wide);
                Some((s, wide))
            }
            _ => None,
        };
        let i = self.out(vd, false, j);
        let rd = self.regs[i].reg.x();
        let wide = match (src, from) {
            (VSrc::V(_), Some((s, wide))) => {
                if s.x() != rd {
                    self.put(chimera_isa::mv(rd, s.x()));
                }
                wide
            }
            // A scratch's program value is in its save slot (`lw`
            // sign-extends from `e32`).
            (VSrc::X(r), _) if X_POOL.contains(&r) => {
                self.put(ElemReg::int(rd).load(eew, XReg::GP, SpillLayout::x_slot(r)));
                false
            }
            (VSrc::X(r), _) => {
                self.put(addiw(rd, r));
                false
            }
            (VSrc::I(imm), _) => {
                self.put(chimera_obj::addi(rd, XReg::ZERO, imm as i32));
                false
            }
            _ => unreachable!("vmv has no .vf form"),
        };
        self.wrote(vd, At::Reg(i), wide, j);
    }

    /// An operation's second source as the operand rule reads it: `vs1[i]`;
    /// a scratch's save slot (an `x` value at element width — `lw`
    /// sign-extends from `e32` — an `f` value as the whole register, so the
    /// row's own NaN-box check applies); any other `x` register itself at
    /// `e64`, sign-extended by `addiw` at `e32`; any other `f` register
    /// itself; the immediate as it stands.
    fn second(&mut self, src: VSrc, fp: bool, j: usize, x: ElemReg) -> Second {
        let (width, slot) = match src {
            VSrc::V(vs1) => return Second::Reg(self.fetch(vs1, fp, j, &[x])),
            VSrc::I(imm) => return Second::Imm(imm as i32),
            VSrc::X(r) if X_POOL.contains(&r) => (self.eew, SpillLayout::x_slot(r)),
            VSrc::F(f) if F_SCRATCH.contains(&f) => (Eew::E64, SpillLayout::f_slot(f)),
            VSrc::X(r) if self.eew == Eew::E64 => return Second::Reg(ElemReg::int(r)),
            VSrc::F(f) => return Second::Reg(ElemReg::float(f)),
            VSrc::X(r) => {
                let i = self.alloc(false, j, &[x]);
                self.put(addiw(self.regs[i].reg.x(), r));
                return Second::Reg(self.regs[i].reg);
            }
        };
        let i = self.alloc(fp, j, &[x]);
        self.put(self.regs[i].reg.load(width, XReg::GP, slot));
        Second::Reg(self.regs[i].reg)
    }

    /// `rd = row(rs1, rs2)`; `min` / `max`, which [`alu`] lowers with `rd`
    /// ≠ `rs2`, commute when `rd` is `rs2`.
    fn alu(&mut self, row: OpKind, rd: XReg, rs1: XReg, rs2: XReg) {
        if min_max_branch(row).is_none() {
            return self.put(Inst::Op {
                kind: row,
                rd,
                rs1,
                rs2,
            });
        }
        let (rs1, rs2) = if rd == rs2 { (rs2, rs1) } else { (rs1, rs2) };
        if let Some(em) = self.em.as_deref_mut() {
            alu(row, rd, rs1, rs2, em);
        }
    }
}

/// `ld rd, offset(gp)`: a dword of the spill section inside a run.
fn spill_ld(rd: XReg, offset: i32) -> Inst {
    ElemReg::int(rd).load(Eew::E64, XReg::GP, offset)
}

/// `sd rs2, offset(gp)`.
fn spill_sd(rs2: XReg, offset: i32) -> Inst {
    ElemReg::int(rs2).store(Eew::E64, XReg::GP, offset)
}

/// `addiw rd, rs1, 0`: `rs1` sign-extended from 32 bits.
fn addiw(rd: XReg, rs1: XReg) -> Inst {
    let (kind, imm) = (OpImmKind::Addiw, 0);
    Inst::OpImm { kind, rd, rs1, imm }
}

/// A register an element is held in: `x` or `f` register `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ElemReg {
    fp: bool,
    n: u8,
}

impl ElemReg {
    fn int(r: XReg) -> Self {
        ElemReg {
            fp: false,
            n: r.index(),
        }
    }

    fn float(r: FReg) -> Self {
        ElemReg {
            fp: true,
            n: r.index(),
        }
    }

    /// The register of an integer row.
    fn x(self) -> XReg {
        XReg::of(self.n)
    }

    /// The register of an FP row.
    fn f(self) -> FReg {
        FReg::of(self.n)
    }

    /// The FP format of an `eew` element (the templates model `e32` / `e64`).
    fn fp_width(eew: Eew) -> FpWidth {
        eew.fp().unwrap_or(FpWidth::S)
    }

    /// Loads the `eew` element at `offset(base)` (`lw` / `ld`, `flw` / `fld`).
    fn load(self, eew: Eew, base: XReg, offset: i32) -> Inst {
        let (rs1, e64) = (base, eew == Eew::E64);
        if self.fp {
            let (width, frd) = (Self::fp_width(eew), self.f());
            return Inst::FLoad {
                width,
                frd,
                rs1,
                offset,
            };
        }
        let (kind, rd) = (if e64 { LoadKind::Ld } else { LoadKind::Lw }, self.x());
        Inst::Load {
            kind,
            rd,
            rs1,
            offset,
        }
    }

    /// Stores the register as the `eew` element at `offset(base)`.
    fn store(self, eew: Eew, base: XReg, offset: i32) -> Inst {
        let (rs1, e64) = (base, eew == Eew::E64);
        if self.fp {
            let (width, frs2) = (Self::fp_width(eew), self.f());
            return Inst::FStore {
                width,
                frs2,
                rs1,
                offset,
            };
        }
        let (kind, rs2) = (if e64 { StoreKind::Sd } else { StoreKind::Sw }, self.x());
        Inst::Store {
            kind,
            rs1,
            rs2,
            offset,
        }
    }
}

/// `rd = kind(rs1, rs2)` inside a run (`rd` ≠ `rs2`). `min` / `max`, the
/// Zbb rows an element names, are lowered for a base core that lacks them:
/// take `rs1`, then `rs2` unless the branch that orders `rs1` first is
/// taken.
fn alu(kind: OpKind, rd: XReg, rs1: XReg, rs2: XReg, em: &mut BlockEmitter) {
    let Some(keep_rs1) = min_max_branch(kind) else {
        em.inst(Inst::Op { kind, rd, rs1, rs2 });
        return;
    };
    let keep = em.new_label();
    if rd != rs1 {
        em.inst(chimera_isa::mv(rd, rs1));
    }
    em.branch_to(keep_rs1, rd, rs2, keep);
    em.inst(chimera_isa::mv(rd, rs2));
    em.label(keep);
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

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_isa::{decode, UnaryKind, VArithOp};

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
    /// throwaway emission — was the only oracle. Two deliberate changes
    /// since: a `VArith` form its row does not have is refused (36 answers,
    /// the reserved `.vi` forms of `vsub`, `vmul`, `vmacc`, `vmin`, `vmax`
    /// and `vredsum` × six shapes; 411 → 375 translated), and so is an
    /// instruction that writes `gp` (24 answers of the `gp`-written shape:
    /// the 13 Zba / Zbb `Op` rows, `rori`, the 7 `Unary` rows, `vsetvli` at
    /// `e32` and `e64` with `m1`, and `vmv.x.s`; 375 → 351).
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
            (828, 351, 0xe652_8be7_0ca6_fe88)
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

    /// A fold joins the stretch before it — an integer one whatever the
    /// stretch writes, an FP one unless the stretch writes its `vs1` — so
    /// the run has one element loop (one `bne t4, t3` backedge) where it
    /// used to have two.
    #[test]
    fn a_fold_joins_its_stretch_unless_fp_and_the_stretch_writes_vs1() {
        use VArithOp::*;
        let t = Translator::new(0x9_0000, 0x8_0800);
        let v = VReg::of;
        let vv = |op, vd, vs2, vs1| Inst::VArith {
            op,
            vd: v(vd),
            vs2: v(vs2),
            src: VSrc::V(v(vs1)),
        };
        let vtype = chimera_isa::VType {
            sew: Eew::E64,
            lmul: 1,
            ta: true,
            ma: true,
        };
        let loops = |stretch: Inst, fold: Inst| {
            let vsetvli = Inst::Vsetvli {
                rd: XReg::A2,
                rs1: XReg::A1,
                vtype,
            };
            let mut em = BlockEmitter::new();
            let heads = t.sequence(&[vsetvli, stretch, fold], &[], &mut em).unwrap();
            assert!(heads.is_empty());
            let bytes = em.finish().unwrap();
            let backedge = |w: &[u8]| match decode(u32::from_le_bytes(w.try_into().unwrap())) {
                Ok(d) => {
                    matches!(d.inst, Inst::Branch { kind: BranchKind::Bne, rs1: XReg::T4, rs2: XReg::T3, offset } if offset < 0)
                }
                Err(_) => false,
            };
            bytes.chunks(4).filter(|w| backedge(w)).count()
        };
        assert_eq!(loops(vv(Vadd, 4, 1, 2), vv(Vredsum, 5, 3, 4)), 1);
        assert_eq!(loops(vv(Vadd, 3, 1, 2), vv(Vredsum, 4, 3, 4)), 1);
        assert_eq!(loops(vv(Vfmul, 3, 1, 2), vv(Vfredusum, 5, 3, 4)), 1);
        assert_eq!(loops(vv(Vfmul, 4, 1, 2), vv(Vfredusum, 5, 3, 4)), 2);
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
