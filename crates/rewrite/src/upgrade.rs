//! Instruction *upgrade*: optimizing base-ISA binaries with extension
//! instructions (§3.4's upgrade direction; evaluated as the "Base Version"
//! of Fig. 11).
//!
//! General binary auto-vectorization is an open problem; like the paper's
//! prototype, this module batches the operations of base instructions into
//! vector instructions where it can *prove* the transformation: canonical
//! counted loops — a single-block self-loop of unit-stride loads, one
//! arithmetic kernel, pointer bumps, a down-counting trip register and a
//! `bnez` backedge (the shape compilers and BLAS kernels emit, and what our
//! workload generators produce).
//!
//! The vectorized target block is *state-parametric*: it strip-mines from
//! the live register state (pointers, remaining count, accumulator), so
//! entering it at the loop head is correct on the first iteration **and**
//! on every backedge — which is what makes a SMILE trampoline at the loop
//! head sound. Erroneous jumps into the overwritten head bytes are repaired
//! through the fault-handling table into a scalar *repair block* that
//! replays the overwritten instructions and rejoins the intact scalar loop
//! body, whose backedge then re-enters the vectorized code.
//!
//! The vector block leaves the last iteration to the scalar loop: it falls
//! into the repair block with one trip left, so the registers the body only
//! uses as temporaries — its loads, a dot's product, a map's result — end
//! as the scalar loop leaves them, whether or not anything reads them after
//! the loop (liveness could not say: it tracks no FP registers, and an
//! indirect call after the loop makes every integer register live).

use crate::chbp::{emit_exit, reemit, RewriteError, RewriteOptions, Rewritten};
use crate::emitter::BlockEmitter;
use crate::engine::{Frame, Placement, Reloc, RewriteEngine, Scanned, UnitArtifact, Units};
use crate::smile::{place_smile, SmileConstraints};
use chimera_analysis::{
    disassemble, BasicBlock, Cfg, DisasmInst, Disassembly, Liveness, Terminator,
};
use chimera_isa::{
    BranchKind, Eew, Element, ExtSet, FOpKind, FReg, FpWidth, Inst, LoadKind, OpImmKind, OpKind,
    StoreKind, VArithOp, VReg, VSrc, VType, XReg,
};
use chimera_obj::Binary;
use chimera_trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The arithmetic kernel of a recognized loop. There is no f64 dot: no
/// lane-parallel order of `vfmacc` and a reduction rounds the way a scalar
/// `fmadd.d` chain does, so such a loop stays scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// `acc += a[i] * b[i]` (i64 dot via `mul prod` + `add acc`): `vmacc`
    /// per strip, reduced once at the exit (integer addition reassociates).
    Dot { acc: XReg, prod: XReg },
    /// `c[i] = a[i] op b[i]` (i64 map via `add`/`sub`/`and`/..., f64 map via
    /// `fadd.d`/`fsub.d`/`fmul.d`): the vector row whose element is `op`,
    /// stored through `ptr_c`.
    Map { op: VArithOp, ptr_c: XReg },
}

/// A recognized vectorizable loop.
#[derive(Debug, Clone)]
struct VecLoop {
    /// Loop-head address (trampoline site).
    head: u64,
    /// Address control reaches when the loop exits (branch fallthrough).
    exit: u64,
    /// The two load pointers, bumped by 8 (a map's store pointer is in
    /// its kernel).
    ptr_a: XReg,
    ptr_b: XReg,
    /// Down-counting trip register.
    counter: XReg,
    /// The kernel.
    kernel: Kernel,
    /// All instructions of the loop block, in order (for the repair block).
    insts: Vec<DisasmInst>,
}

/// Attempts to recognize the canonical loop shape in a self-loop block.
fn recognize(cfg: &Cfg, block: &BasicBlock) -> Option<VecLoop> {
    let insts = cfg.insts(block);
    // Must be a conditional self-loop: `bnez counter, head`.
    if block.terminator != Terminator::Branch {
        return None;
    }
    let last = insts.last()?;
    let Inst::Branch {
        kind: BranchKind::Bne,
        rs1: counter,
        rs2: XReg::ZERO,
        ..
    } = last.inst
    else {
        return None;
    };
    if last.inst.direct_target(last.addr)? != block.start {
        return None;
    }
    let exit = last.next_addr();

    // Classify the body.
    let mut floads: Vec<(FReg, XReg)> = Vec::new();
    let mut fstores: Vec<(FReg, XReg)> = Vec::new();
    let mut iloads: Vec<(XReg, XReg)> = Vec::new();
    let mut istores: Vec<(XReg, XReg)> = Vec::new();
    let mut bumps: BTreeMap<XReg, i32> = BTreeMap::new();
    let mut dec: Option<XReg> = None;
    let mut fop: Option<(FOpKind, FReg, FReg, FReg)> = None;
    let mut imul: Option<(XReg, XReg, XReg)> = None;
    let mut iacc: Option<(XReg, XReg)> = None;
    let mut iop: Option<(OpKind, XReg, XReg, XReg)> = None;

    for di in &insts[..insts.len() - 1] {
        match di.inst {
            Inst::FLoad {
                width: FpWidth::D,
                frd,
                rs1,
                offset: 0,
            } => floads.push((frd, rs1)),
            Inst::FStore {
                width: FpWidth::D,
                frs2,
                rs1,
                offset: 0,
            } => fstores.push((frs2, rs1)),
            Inst::Load {
                kind: LoadKind::Ld,
                rd,
                rs1,
                offset: 0,
            } => iloads.push((rd, rs1)),
            Inst::Store {
                kind: StoreKind::Sd,
                rs1,
                rs2,
                offset: 0,
            } => istores.push((rs2, rs1)),
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd,
                rs1,
                imm,
            } if rd == rs1 => {
                if imm == 8 {
                    bumps.insert(rd, imm);
                } else if imm == -1 && dec.is_none() {
                    dec = Some(rd);
                } else {
                    return None;
                }
            }
            Inst::FOp {
                kind: k @ (FOpKind::Add | FOpKind::Sub | FOpKind::Mul),
                width: FpWidth::D,
                frd,
                frs1,
                frs2,
            } if fop.is_none() => fop = Some((k, frd, frs1, frs2)),
            Inst::Op {
                kind: OpKind::Mul,
                rd,
                rs1,
                rs2,
            } if imul.is_none() => imul = Some((rd, rs1, rs2)),
            Inst::Op {
                kind: OpKind::Add,
                rd,
                rs1,
                rs2,
            } if rd == rs1 && iacc.is_none() => iacc = Some((rd, rs2)),
            Inst::Op {
                kind: k @ (OpKind::Add | OpKind::Sub | OpKind::And | OpKind::Or | OpKind::Xor),
                rd,
                rs1,
                rs2,
            } if iop.is_none() => iop = Some((k, rd, rs1, rs2)),
            _ => return None,
        }
    }
    let counter_ok = dec == Some(counter);
    if !counter_ok {
        return None;
    }

    // Kernel shapes.
    // f64 map: fld a, fld b, fop dst, fsd dst.
    if let (2, 1, Some((op, dst, s1, s2))) = (floads.len(), fstores.len(), fop) {
        let (mut fa, mut pa) = floads[0];
        let (mut fb, mut pb) = floads[1];
        if s1 == fb && s2 == fa {
            // Normalize operand order (matters for non-commutative ops).
            std::mem::swap(&mut fa, &mut fb);
            std::mem::swap(&mut pa, &mut pb);
        }
        let (sv, pc) = fstores[0];
        let ok = sv == dst && s1 == fa && s2 == fb;
        if ok
            && bumps.contains_key(&pa)
            && bumps.contains_key(&pb)
            && bumps.contains_key(&pc)
            && bumps.len() == 3
        {
            return Some(VecLoop {
                head: block.start,
                exit,
                ptr_a: pa,
                ptr_b: pb,
                counter,
                kernel: Kernel::Map {
                    op: VArithOp::from_element(Element::FOp(op))?,
                    ptr_c: pc,
                },
                insts: insts.to_vec(),
            });
        }
        return None;
    }
    // i64 dot: ld a, ld b, mul prod, add acc.
    if let (2, 0, Some((prod, m1, m2)), Some((acc, addend))) =
        (iloads.len(), istores.len(), imul, iacc)
    {
        let (xa, pa) = iloads[0];
        let (xb, pb) = iloads[1];
        let ok = addend == prod && ((m1 == xa && m2 == xb) || (m1 == xb && m2 == xa));
        if ok && bumps.contains_key(&pa) && bumps.contains_key(&pb) && bumps.len() == 2 {
            return Some(VecLoop {
                head: block.start,
                exit,
                ptr_a: pa,
                ptr_b: pb,
                counter,
                kernel: Kernel::Dot { acc, prod },
                insts: insts.to_vec(),
            });
        }
        return None;
    }
    // i64 map: ld a, ld b, op dst, sd dst.
    if let (2, 1, Some((op, dst, s1, s2))) = (iloads.len(), istores.len(), iop) {
        let (mut xa, mut pa) = iloads[0];
        let (mut xb, mut pb) = iloads[1];
        if s1 == xb && s2 == xa {
            std::mem::swap(&mut xa, &mut xb);
            std::mem::swap(&mut pa, &mut pb);
        }
        let (sv, pc) = istores[0];
        let ok = sv == dst && s1 == xa && s2 == xb;
        if ok
            && bumps.contains_key(&pa)
            && bumps.contains_key(&pb)
            && bumps.contains_key(&pc)
            && bumps.len() == 3
        {
            return Some(VecLoop {
                head: block.start,
                exit,
                ptr_a: pa,
                ptr_b: pb,
                counter,
                kernel: Kernel::Map {
                    op: VArithOp::from_element(Element::Op(op))?,
                    ptr_c: pc,
                },
                insts: insts.to_vec(),
            });
        }
    }
    None
}

/// Upgrades a base-ISA binary: recognized loops are vectorized behind SMILE
/// trampolines; everything else is untouched. The result requires a core
/// with the V extension.
///
/// Runs on the calling thread, as it always has: a program has a handful
/// of such loops, and asking the host for its parallelism costs more than
/// rewriting them (13 µs against 5 µs for a one-loop task). Use
/// [`crate::run`] with an [`UpgradeEngine`] to choose a worker count.
pub fn upgrade_rewrite(binary: &Binary, opts: RewriteOptions) -> Result<Rewritten, RewriteError> {
    crate::pipeline::run(&UpgradeEngine { opts }, binary, 1, &Tracer::disabled())
        .map(|r| r.rewritten)
}

/// The upgrade vectorizer as a pipeline engine: one unit per recognized
/// loop, entered through a SMILE trampoline at the loop head. A loop whose
/// head cannot take a SMILE within [`RewriteOptions::max_padding`] is
/// planned as "leave scalar" — nothing is emitted or patched for it.
#[derive(Debug)]
pub struct UpgradeEngine {
    /// Rewrite options (`max_padding` and the exit-jump policy apply).
    pub opts: RewriteOptions,
}

/// The profile an upgraded binary requires.
const TARGET: ExtSet = ExtSet::RV64GCV;

/// A scanned input: the analyses the exit jumps read and the loops.
struct UpgradeUnits {
    opts: RewriteOptions,
    abi_gp: u64,
    d: Disassembly,
    liveness: Liveness,
    loops: Vec<VecLoop>,
}

impl RewriteEngine for UpgradeEngine {
    fn target_section(&self) -> Option<&'static str> {
        Some(".chimera.text")
    }

    fn scan(&self, input: &Binary, frame: Frame, _: usize) -> Result<Scanned, RewriteError> {
        let d = disassemble(input);
        let cfg = Cfg::build(&d);
        let recognized: Vec<VecLoop> = cfg
            .blocks
            .iter()
            .filter_map(|b| recognize(&cfg, b))
            .collect();
        let source_insts = recognized.iter().map(|l| l.insts.len()).sum();
        // A loop too small to hold the 8-byte trampoline stays scalar.
        let loops: Vec<VecLoop> = recognized
            .into_iter()
            .filter(|vl| vl.space_end() >= vl.head + 8)
            .collect();
        // A unit's repair block exits to its loop's `space_end`: the only
        // place emission asks about liveness.
        let liveness = Liveness::rooted(&d.insts, loops.iter().map(VecLoop::space_end));
        Ok(Scanned {
            ranges: loops.iter().map(|vl| (vl.head, vl.exit)).collect(),
            profile: TARGET,
            total_insts: d.insts.len(),
            source_insts,
            untranslated: BTreeSet::new(),
            units: Arc::new(UpgradeUnits {
                opts: self.opts,
                abi_gp: frame.abi_gp,
                d,
                liveness,
                loops,
            }),
        })
    }
}

impl VecLoop {
    /// The loop-head instructions the trampoline overwrites: the shortest
    /// prefix covering 8 bytes.
    fn overwritten(&self) -> &[DisasmInst] {
        let n = self
            .insts
            .iter()
            .position(|di| di.next_addr() >= self.head + 8)
            .map_or(self.insts.len(), |i| i + 1);
        &self.insts[..n]
    }

    /// First byte after the overwritten head space.
    fn space_end(&self) -> u64 {
        self.overwritten()
            .last()
            .map_or(self.head, |di| di.next_addr())
    }
}

impl Units for UpgradeUnits {
    fn place(&self, idx: usize, cursor: u64) -> Result<Option<Placement>, RewriteError> {
        let vl = &self.loops[idx];
        let constraints = SmileConstraints::of(vl.head, vl.overwritten().iter().map(|di| di.addr));
        place_smile(
            vl.head,
            vl.space_end(),
            constraints,
            cursor,
            self.opts.max_padding,
        )
    }

    fn emit(&self, idx: usize) -> Result<UnitArtifact, RewriteError> {
        let vl = &self.loops[idx];
        let mut em = BlockEmitter::new();
        // gp restore (clobbered by the SMILE jalr).
        em.li32(XReg::GP, self.abi_gp as i64);
        emit_vector_loop(vl, &mut em);
        // The loop consumed gp as its scratch: restore the ABI value
        // before control returns to original code.
        em.li32(XReg::GP, self.abi_gp as i64);
        // Repair block, which the vector loop falls into for its last
        // iteration: replay the overwritten head instructions and rejoin
        // the intact scalar body at space_end. Jumps to the head itself run
        // the trampoline (correct); every later overwritten instruction
        // gets a redirect to its replay.
        for di in vl.overwritten() {
            if di.addr > vl.head {
                em.reloc(Reloc::Redirect { from: di.addr });
            }
            reemit(&di.inst, di.addr, &mut em);
        }
        let end = vl.space_end();
        emit_exit(end, &self.d, &self.liveness, self.opts, TARGET, &mut em);
        em.finish_unit()
    }
}

/// Emits the strip-mined vector loop over all but the last iteration.
/// Register contract: on entry the original scalar state is live
/// (pointers, counter, accumulator); on exit it is the scalar loop's state
/// before its last iteration (counter = 1, pointers and accumulator
/// advanced that far), which the scalar body then runs. `gp` is the only
/// scratch; the caller restores it.
fn emit_vector_loop(vl: &VecLoop, em: &mut BlockEmitter) {
    let vt = VType {
        sew: Eew::E64,
        lmul: 1,
        ta: true,
        ma: true,
    };
    let (v1, v2, v3, v4) = (VReg::of(1), VReg::of(2), VReg::of(3), VReg::of(4));
    let vacc = VReg::of(8);
    // A dot accumulates lane-wise in a vector register across strips and
    // reduces ONCE at loop exit: internal loop iterations are not entry
    // points (only the block head is), so mid-loop state need not match
    // the scalar invariant.
    if let Kernel::Dot { .. } = vl.kernel {
        // vacc = 0 across all VLMAX lanes.
        em.inst(Inst::Vsetvli {
            rd: XReg::GP,
            rs1: XReg::ZERO,
            vtype: vt,
        });
        em.inst(Inst::VArith {
            op: VArithOp::Vmv,
            vd: vacc,
            vs2: VReg::V0,
            src: VSrc::I(0),
        });
    }
    // gp = the iterations left to the vector loop.
    let left = chimera_obj::addi(XReg::GP, vl.counter, -1);
    em.inst(left);
    let head = em.new_label();
    em.label(head);
    // gp = vl = min(counter - 1, VLMAX).
    em.inst(Inst::Vsetvli {
        rd: XReg::GP,
        rs1: XReg::GP,
        vtype: vt,
    });
    em.inst(Inst::VLoad {
        eew: Eew::E64,
        vd: v1,
        rs1: vl.ptr_a,
    });
    em.inst(Inst::VLoad {
        eew: Eew::E64,
        vd: v2,
        rs1: vl.ptr_b,
    });
    match vl.kernel {
        // vacc[i] += a[i] * b[i]; reduced once after the loop.
        Kernel::Dot { .. } => {
            em.inst(Inst::VArith {
                op: VArithOp::Vmacc,
                vd: vacc,
                vs2: v1,
                src: VSrc::V(v2),
            });
        }
        Kernel::Map { op, ptr_c } => {
            em.inst(Inst::VArith {
                op,
                vd: v3,
                vs2: v1,
                src: VSrc::V(v2),
            });
            em.inst(Inst::VStore {
                eew: Eew::E64,
                vs3: v3,
                rs1: ptr_c,
            });
        }
    }
    bump_pointers(vl, em);
    em.inst(left);
    em.branch_to(BranchKind::Bne, XReg::GP, XReg::ZERO, head);
    // Post-loop: fold the vector accumulator into the scalar one.
    if let Kernel::Dot { acc, prod } = vl.kernel {
        em.inst(Inst::Vsetvli {
            rd: XReg::GP,
            rs1: XReg::ZERO,
            vtype: vt,
        });
        em.inst(Inst::VArith {
            op: VArithOp::Vmv,
            vd: v4,
            vs2: VReg::V0,
            src: VSrc::I(0),
        });
        em.inst(Inst::VArith {
            op: VArithOp::Vredsum,
            vd: v3,
            vs2: vacc,
            src: VSrc::V(v4),
        });
        em.inst(Inst::VMvXS { rd: prod, vs2: v3 });
        em.inst(chimera_obj::add(acc, acc, prod));
    }
}

/// `counter -= vl; ptrs += vl * 8` using `gp` (holding `vl`) as scratch;
/// leaves `gp` = vl * 8 (clobbered — the caller restores before exit).
fn bump_pointers(vl: &VecLoop, em: &mut BlockEmitter) {
    em.inst(Inst::Op {
        kind: OpKind::Sub,
        rd: vl.counter,
        rs1: vl.counter,
        rs2: XReg::GP,
    });
    em.inst(Inst::OpImm {
        kind: OpImmKind::Slli,
        rd: XReg::GP,
        rs1: XReg::GP,
        imm: 3,
    });
    em.inst(chimera_obj::add(vl.ptr_a, vl.ptr_a, XReg::GP));
    em.inst(chimera_obj::add(vl.ptr_b, vl.ptr_b, XReg::GP));
    if let Kernel::Map { ptr_c, .. } = vl.kernel {
        em.inst(chimera_obj::add(ptr_c, ptr_c, XReg::GP));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_emu::{run_binary_on, RunError};
    use chimera_obj::{assemble, AsmOptions};

    const SCALAR_DOT: &str = "
        .data
        a: .dword 1
           .dword 2
           .dword 3
           .dword 4
           .dword 5
           .dword 6
        b: .dword 7
           .dword 8
           .dword 9
           .dword 10
           .dword 11
           .dword 12
        .text
        _start:
            la t0, a
            la t1, b
            li t2, 6          # count
            li a0, 0          # acc
        loop:
            ld a1, 0(t0)
            ld a2, 0(t1)
            mul a3, a1, a2
            add a0, a0, a3
            addi t0, t0, 8
            addi t1, t1, 8
            addi t2, t2, -1
            bnez t2, loop
            li a7, 93
            ecall
    ";

    #[test]
    fn integer_dot_loop_vectorizes() {
        let bin = assemble(SCALAR_DOT, AsmOptions::default()).unwrap();
        let native = chimera_emu::run_binary(&bin, 100_000).unwrap();
        // 7+16+27+40+55+72 = 217.
        assert_eq!(native.exit_code, 217);

        let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
        assert_eq!(rw.stats.smile_trampolines, 1, "one loop vectorized");
        let r = run_binary_on(&rw.binary, chimera_isa::ExtSet::RV64GCV, 100_000).unwrap();
        assert_eq!(r.exit_code, 217);
        // And it actually used vector instructions.
        assert!(r.stats.vector_insts > 0);
        // Far fewer dynamic instructions than the scalar loop.
        assert!(r.stats.instret < native.stats.instret + 40);
    }

    #[test]
    fn upgraded_binary_fails_on_base_core_inside_loop() {
        // The vectorized block needs V: running the upgraded binary on a
        // base core faults at the first vector instruction (which is what
        // FAM-style migration recovers from).
        let bin = assemble(SCALAR_DOT, AsmOptions::default()).unwrap();
        let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
        let err = run_binary_on(&rw.binary, chimera_isa::ExtSet::RV64GC, 100_000).unwrap_err();
        assert!(matches!(
            err,
            RunError::Trap(chimera_emu::Trap::Illegal { .. })
        ));
    }

    #[test]
    fn map_loop_vectorizes() {
        let bin = assemble(
            "
            .data
            a: .dword 10
               .dword 20
               .dword 30
               .dword 40
               .dword 50
            b: .dword 1
               .dword 2
               .dword 3
               .dword 4
               .dword 5
            c: .zero 40
            .text
            _start:
                la t0, a
                la t1, b
                la t3, c
                li t2, 5
            loop:
                ld a1, 0(t0)
                ld a2, 0(t1)
                sub a3, a1, a2
                sd a3, 0(t3)
                addi t0, t0, 8
                addi t1, t1, 8
                addi t3, t3, 8
                addi t2, t2, -1
                bnez t2, loop
                ld a0, -8(t3)     # c[4] = 50 - 5 = 45
                li a7, 93
                ecall
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let native = chimera_emu::run_binary(&bin, 100_000).unwrap();
        assert_eq!(native.exit_code, 45);
        let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
        assert_eq!(rw.stats.smile_trampolines, 1);
        let r = run_binary_on(&rw.binary, chimera_isa::ExtSet::RV64GCV, 100_000).unwrap();
        assert_eq!(r.exit_code, 45);
    }

    /// An f64 dot stays scalar: lane-wise `vfmacc` and a reduction would
    /// reassociate the sum. `1e16 + 1 - 1e16 + 5` is 5 in the scalar
    /// `fmadd.d` chain (each `1` is absorbed into `1e16` and cancelled with
    /// it) and was 4 when the loop vectorized.
    #[test]
    fn fp_dot_loop_stays_scalar() {
        let bin = assemble(
            "
            .data
            a: .double 1e16
               .double 1.0
               .double -1e16
               .double 1.0
               .double 1.0
               .double 1.0
               .double 1.0
               .double 1.0
            b: .double 1.0
               .double 1.0
               .double 1.0
               .double 1.0
               .double 1.0
               .double 1.0
               .double 1.0
               .double 1.0
            .text
            _start:
                la t0, a
                la t1, b
                li t2, 8
                fmv.d.x fa0, zero
            loop:
                fld ft0, 0(t0)
                fld ft1, 0(t1)
                fmadd.d fa0, ft0, ft1, fa0
                addi t0, t0, 8
                addi t1, t1, 8
                addi t2, t2, -1
                bnez t2, loop
                fcvt.l.d a0, fa0
                li a7, 93
                ecall
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let native = chimera_emu::run_binary(&bin, 100_000).unwrap();
        assert_eq!(native.exit_code, 5);
        let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
        assert_eq!(rw.stats.smile_trampolines, 0);
        let r = run_binary_on(&rw.binary, chimera_isa::ExtSet::RV64GCV, 100_000).unwrap();
        assert_eq!(r.exit_code, 5);
    }

    /// The x and f register files at `exit` of `bin` on `profile`.
    fn exit_registers(bin: &Binary, profile: ExtSet) -> ([u64; 32], Vec<u64>) {
        let (mut cpu, mut mem) = chimera_emu::boot(bin, profile);
        let r = chimera_emu::run_cpu(&mut cpu, &mut mem, 100_000).unwrap();
        let f = (0..32).map(|i| cpu.hart.get_f(FReg::of(i))).collect();
        (r.xregs, f)
    }

    /// A loop's temporaries end as the scalar loop leaves them. The map
    /// loop reads its last result back from `a3` (it exited 0 upgraded
    /// when the vector block left the temporaries stale); the dots and the
    /// f64 map leave loads, products and results that nothing reads, and
    /// every register must still agree.
    #[test]
    fn vectorized_loops_leave_every_register_as_the_scalar_loop_does() {
        let map = "
            .data
            a: .dword 10
               .dword 20
               .dword 30
               .dword 40
               .dword 50
            b: .dword 1
               .dword 2
               .dword 3
               .dword 4
               .dword 5
            c: .zero 40
            .text
            _start:
                la t0, a
                la t1, b
                la t3, c
                li t2, 5
            loop:
                ld a1, 0(t0)
                ld a2, 0(t1)
                sub a3, a1, a2
                sd a3, 0(t3)
                addi t0, t0, 8
                addi t1, t1, 8
                addi t3, t3, 8
                addi t2, t2, -1
                bnez t2, loop
                mv a0, a3         # 50 - 5 = 45
                li a7, 93
                ecall
        ";
        let fmap = map
            .replace(".dword", ".double")
            .replace("ld a", "fld fa")
            .replace("sub a3, a1, a2", "fsub.d fa3, fa1, fa2")
            .replace("sd a3", "fsd fa3")
            .replace("mv a0, a3", "fcvt.l.d a0, fa3");
        for (src, exit) in [(map, 45), (SCALAR_DOT, 217), (&fmap[..], 45)] {
            let bin = assemble(src, AsmOptions::default()).unwrap();
            let native = exit_registers(&bin, ExtSet::RV64GCV);
            let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
            assert_eq!(rw.stats.smile_trampolines, 1, "{src}");
            let upgraded = exit_registers(&rw.binary, ExtSet::RV64GCV);
            assert_eq!(native.0[XReg::A0.index() as usize], exit, "{src}");
            assert_eq!(upgraded, native, "{src}");
        }
    }

    #[test]
    fn non_canonical_loops_left_alone() {
        let bin = assemble(
            "
            _start:
                li t0, 5
                li a0, 0
            loop:
                add a0, a0, t0
                addi t0, t0, -1
                bnez t0, loop
                li a7, 93
                ecall
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
        assert_eq!(rw.stats.smile_trampolines, 0);
        let r = run_binary_on(&rw.binary, chimera_isa::ExtSet::RV64GCV, 100_000).unwrap();
        assert_eq!(r.exit_code, 15);
    }
}
