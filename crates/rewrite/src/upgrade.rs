//! Instruction *upgrade*: optimizing base-ISA binaries with extension
//! instructions (§3.4's upgrade direction; evaluated as the "Base Version"
//! of Fig. 11).
//!
//! General binary auto-vectorization is an open problem; like the paper's
//! prototype, this module batches the operations of base instructions into
//! vector instructions only where it can *prove* the transformation. It
//! proves one kernel, the i64 dot `acc += a[i] * b[i]` of a canonical
//! counted loop: unit-stride loads, a `mul` and an `add`, pointer bumps, a
//! down-counting trip register and a `bnez` backedge (the shape compilers
//! and BLAS kernels emit, and what our workload generators produce). The
//! kernel stores nothing, so no strip reads what another wrote and no
//! aliasing between its arrays can change the result; a loop that stores
//! stays scalar.
//!
//! A loop is found with the block rule every rewriter shares
//! ([`Disassembly::block_end`]): a conditional branch whose direct target
//! is an earlier instruction whose basic block ends at the branch.
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
//! uses as temporaries — its loads and the product — end as the scalar loop
//! leaves them, whether or not anything reads them after the loop
//! (liveness could not say: an indirect call after the loop makes every
//! integer register live).

use crate::chbp::{emit_exit, reemit, RewriteError, RewriteOptions, Rewritten};
use crate::emitter::BlockEmitter;
use crate::engine::{Frame, Placement, Reloc, RewriteEngine, Scanned, UnitArtifact, Units};
use crate::smile::{place_smile, SmileConstraints};
use chimera_analysis::{disassemble, DisasmInst, Disassembly, Liveness};
use chimera_isa::{
    BranchKind, Eew, ExtSet, Inst, LoadKind, OpImmKind, OpKind, VArithOp, VReg, VSrc, VType, XReg,
};
use chimera_obj::Binary;
use chimera_trace::Tracer;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A recognized dot loop. There is no f64 dot: no lane-parallel order of
/// `vfmacc` and a reduction rounds the way a scalar `fmadd.d` chain does,
/// so such a loop stays scalar.
#[derive(Debug, Clone)]
struct VecLoop {
    /// Loop-head address (trampoline site).
    head: u64,
    /// Address control reaches when the loop exits (branch fallthrough).
    exit: u64,
    /// The two load pointers, bumped by 8.
    ptr_a: XReg,
    ptr_b: XReg,
    /// Down-counting trip register.
    counter: XReg,
    /// `acc += prod` after `mul prod`: `vmacc` per strip, reduced once at
    /// the exit (integer addition reassociates).
    acc: XReg,
    prod: XReg,
    /// All instructions of the loop block, in order (for the repair block).
    insts: Vec<DisasmInst>,
}

/// Recognizes the dot in `insts`, a basic block whose last instruction
/// branches back to its first. The body is exactly `ld xa, 0(pa)`,
/// `ld xb, 0(pb)`, `mul prod, xa, xb`, `add acc, acc, prod`,
/// `addi pa, pa, 8`, `addi pb, pb, 8` and `addi counter, counter, -1`
/// ahead of `bnez counter`, in an order that loads through each pointer
/// before bumping it and computes both loads before the product and the
/// product before the sum. Every register is written once, and neither
/// `zero` nor `gp` (the trampoline's and the vector loop's scratch), so
/// the roles are distinct and one trip is exactly `acc += *pa * *pb;
/// pa += 8; pb += 8; counter -= 1`.
fn recognize(insts: &[DisasmInst]) -> Option<VecLoop> {
    let (last, body) = insts.split_last()?;
    let Inst::Branch {
        kind: BranchKind::Bne,
        rs1: counter,
        rs2: XReg::ZERO,
        ..
    } = last.inst
    else {
        return None;
    };
    let bit = |r: XReg| 1u32 << r.index();
    let mut written = bit(XReg::ZERO) | bit(XReg::GP);
    let mut loads: Vec<(XReg, XReg)> = Vec::new();
    let mut bumps = Vec::new();
    let (mut prod, mut acc, mut dec) = (None, None, false);
    for di in body {
        let rd = match di.inst {
            Inst::Load {
                kind: LoadKind::Ld,
                rd,
                rs1,
                offset: 0,
            } if written & bit(rs1) == 0 => {
                loads.push((rd, rs1));
                rd
            }
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd,
                rs1,
                imm: 8,
            } if rd == rs1 => {
                bumps.push(rd);
                rd
            }
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd,
                rs1,
                imm: -1,
            } if rd == rs1 && rd == counter => {
                dec = true;
                rd
            }
            Inst::Op {
                kind: OpKind::Mul,
                rd,
                rs1,
                rs2,
            } if prod.is_none()
                && matches!(loads[..], [(xa, _), (xb, _)]
                    if (rs1, rs2) == (xa, xb) || (rs2, rs1) == (xa, xb)) =>
            {
                prod = Some(rd);
                rd
            }
            Inst::Op {
                kind: OpKind::Add,
                rd,
                rs1,
                rs2,
            } if rd == rs1 && acc.is_none() && prod == Some(rs2) => {
                acc = Some(rd);
                rd
            }
            _ => return None,
        };
        if written & bit(rd) != 0 {
            return None;
        }
        written |= bit(rd);
    }
    let (&[(_, ptr_a), (_, ptr_b)], Some(acc), Some(prod), true) = (&loads[..], acc, prod, dec)
    else {
        return None;
    };
    let bumped = |p| bumps.contains(&p);
    (bumps.len() == 2 && ptr_a != ptr_b && bumped(ptr_a) && bumped(ptr_b)).then(|| VecLoop {
        head: insts[0].addr,
        exit: last.next_addr(),
        ptr_a,
        ptr_b,
        counter,
        acc,
        prod,
        insts: insts.to_vec(),
    })
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
        let recognized: Vec<VecLoop> = (d.insts.iter().enumerate())
            .filter(|(_, br)| matches!(br.inst, Inst::Branch { .. }))
            .filter_map(|(j, br)| {
                let h = d.insts.index_of(br.inst.direct_target(br.addr)?)?;
                (h < j && d.block_end(h) == j).then(|| recognize(&d.insts[h..=j]))?
            })
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
    // A counter of 0 wraps in the scalar do-while; `counter − 1` would wrap
    // too and strip-mine 2^64 − 1 elements. The repair block runs that
    // iteration instead.
    let skip = em.new_label();
    em.branch_to(BranchKind::Beq, vl.counter, XReg::ZERO, skip);
    // The dot accumulates lane-wise in a vector register across strips and
    // reduces ONCE at loop exit: internal loop iterations are not entry
    // points (only the block head is), so mid-loop state need not match
    // the scalar invariant. vacc = 0 across all VLMAX lanes.
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
    for (vd, rs1) in [(v1, vl.ptr_a), (v2, vl.ptr_b)] {
        em.inst(Inst::VLoad {
            eew: Eew::E64,
            vd,
            rs1,
        });
    }
    // vacc[i] += a[i] * b[i].
    em.inst(Inst::VArith {
        op: VArithOp::Vmacc,
        vd: vacc,
        vs2: v1,
        src: VSrc::V(v2),
    });
    // counter -= vl; pointers += vl * 8, leaving gp = vl * 8.
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
    em.inst(left);
    em.branch_to(BranchKind::Bne, XReg::GP, XReg::ZERO, head);
    // Post-loop: fold the vector accumulator into the scalar one.
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
    em.inst(Inst::VMvXS {
        rd: vl.prod,
        vs2: v3,
    });
    em.inst(chimera_obj::add(vl.acc, vl.acc, vl.prod));
    em.label(skip);
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_emu::{run_binary_on, RunError};
    use chimera_isa::FReg;
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

    /// Exit code or trap, x and f registers, writable bytes.
    type ExitState = (Result<i64, RunError>, [u64; 32], Vec<u64>, Vec<Vec<u8>>);

    /// Everything a run of `bin` on a vector core leaves where it stops,
    /// with the bytes of every writable section of `input` (an upgraded
    /// binary adds its own spill section).
    fn exit_state(bin: &Binary, input: &Binary) -> ExitState {
        let (mut cpu, mut mem) = chimera_emu::boot(bin, ExtSet::RV64GCV);
        let r = chimera_emu::run_cpu(&mut cpu, &mut mem, 100_000).map(|r| r.exit_code);
        let f = (0..32).map(|i| cpu.hart.get_f(FReg::of(i))).collect();
        let writable = input.sections.iter().filter(|s| s.perms.w);
        let data = writable.map(|s| mem.peek(s.addr, s.data.len()).unwrap());
        (r, cpu.hart.xregs(), f, data.collect())
    }

    /// Upgrades `src` and checks that it is left scalar and still exits
    /// with `exit`.
    fn assert_stays_scalar(src: &str, exit: i64) {
        let bin = assemble(src, AsmOptions::default()).unwrap();
        let native = chimera_emu::run_binary(&bin, 100_000).unwrap();
        assert_eq!(native.exit_code, exit, "{src}");
        let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
        let r = run_binary_on(&rw.binary, ExtSet::RV64GCV, 100_000).unwrap();
        let upgraded = (r.exit_code, rw.stats.smile_trampolines);
        assert_eq!(upgraded, (exit, 0), "(exit, trampolines) of {src}");
    }

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

    /// Maps `c[i] = a[i] op b[i]` stay scalar, i64 and f64 alike: a loop
    /// that stores could alias one of its loads.
    #[test]
    fn loops_that_store_stay_scalar() {
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
        assert_stays_scalar(map, 45);
        assert_stays_scalar(&fmap, 45);
    }

    /// `c[i] = a[i] + b[i]` with `c` one element ahead of `a`, so each
    /// trip reads what the one before it stored: `a[7]` is 71. A strip
    /// that loads `a` before storing `c` read 26 when the map vectorized.
    #[test]
    fn a_store_one_element_ahead_of_a_load_stays_scalar() {
        let src = "
            .data
            a: .dword 1
               .dword 2
               .dword 3
               .dword 4
               .dword 5
               .dword 6
               .dword 7
               .dword 8
            b: .dword 10
               .dword 10
               .dword 10
               .dword 10
               .dword 10
               .dword 10
               .dword 10
            .text
            _start:
                la t0, a
                la t1, b
                addi t3, t0, 8
                li t2, 7
            loop:
                ld a1, 0(t0)
                ld a2, 0(t1)
                add a3, a1, a2
                sd a3, 0(t3)
                addi t0, t0, 8
                addi t1, t1, 8
                addi t3, t3, 8
                addi t2, t2, -1
                bnez t2, loop
                la t0, a
                ld a0, 56(t0)
                li a7, 93
                ecall
        ";
        assert_stays_scalar(src, 71);
    }

    /// Dot loops that differ from the proven shape in one way each stay
    /// scalar, with the exit each had when it vectorized: a pointer bumped
    /// before its load (229), a sum that reads the previous trip's product
    /// (290), a second `add` into the accumulator (223), both loads
    /// through one pointer (232), and a head that is not the start of the
    /// block its backedge ends (a branch enters the body at `mid`).
    #[test]
    fn dot_loops_the_recognizer_cannot_prove_stay_scalar() {
        let bump_first = SCALAR_DOT
            .replace("ld a1, 0(t0)", "addi t0, t0, 8\n ld a1, 0(t0)")
            .replacen("addi t0, t0, 8\n            addi t1", "addi t1", 1);
        let stale_product = SCALAR_DOT.replace(
            "mul a3, a1, a2\n            add a0, a0, a3",
            "add a0, a0, a3\n mul a3, a1, a2",
        );
        let second_add = SCALAR_DOT.replace("add a0, a0, a3", "add a0, a0, a3\n add a0, a0, a1");
        let one_pointer = SCALAR_DOT.replace("ld a2, 0(t1)", "ld a2, 0(t0)");
        let mid_entry = SCALAR_DOT
            .replace("li a0, 0", "li a0, 0\n beqz t2, mid")
            .replace("ld a2, 0(t1)", "mid: ld a2, 0(t1)");
        assert_stays_scalar(&bump_first, 274);
        assert_stays_scalar(&stale_product, 145);
        assert_stays_scalar(&second_add, 238);
        assert_stays_scalar(&one_pointer, 91);
        assert_stays_scalar(&mid_entry, 217);
    }

    /// An f64 dot stays scalar: lane-wise `vfmacc` and a reduction would
    /// reassociate the sum. `1e16 + 1 - 1e16 + 5` is 5 in the scalar
    /// `fmadd.d` chain (each `1` is absorbed into `1e16` and cancelled with
    /// it) and was 4 when the loop vectorized.
    #[test]
    fn fp_dot_loop_stays_scalar() {
        let src = "
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
        ";
        assert_stays_scalar(src, 5);
    }

    /// A loop's temporaries end as the scalar loop leaves them, and so
    /// does everything else: over every strip-mining edge — trip counts 0
    /// (the guard compilers put before a do-while skips the loop), 1 (no
    /// strip), VLMAX − 1, VLMAX, VLMAX + 1 and 3·VLMAX + 1, on elements
    /// whose products wrap — the upgraded dot leaves every x and f
    /// register and every writable byte as the native run does.
    #[test]
    fn vectorized_loops_leave_every_register_as_the_scalar_loop_does() {
        use std::fmt::Write;
        let vlmax = chimera_isa::VLEN as usize / 64;
        for n in [0, 1, vlmax - 1, vlmax, vlmax + 1, 3 * vlmax + 1] {
            let mut src = String::from(".data\n");
            for (label, seed) in [
                ("a", 0x0123_4567_89ab_cdefi64),
                ("b", -0x0765_4321_0fed_cba9),
            ] {
                writeln!(src, "{label}:").unwrap();
                for i in 0..=n as i64 {
                    writeln!(src, "    .dword {}", seed.wrapping_mul(i * i + 3)).unwrap();
                }
            }
            writeln!(
                src,
                "out: .dword 0
                .text
                _start:
                    la t0, a
                    la t1, b
                    li t2, {n}
                    li a0, 5
                    beqz t2, done
                loop:
                    ld a1, 0(t0)
                    ld a2, 0(t1)
                    mul a3, a1, a2
                    add a0, a0, a3
                    addi t0, t0, 8
                    addi t1, t1, 8
                    addi t2, t2, -1
                    bnez t2, loop
                done:
                    la t3, out
                    sd a0, 0(t3)
                    li a7, 93
                    ecall"
            )
            .unwrap();
            let bin = assemble(&src, AsmOptions::default()).unwrap();
            let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
            assert_eq!(rw.stats.smile_trampolines, 1, "n = {n}");
            let native = exit_state(&bin, &bin);
            assert!(native.0.is_ok(), "n = {n}: {native:?}");
            assert_eq!(exit_state(&rw.binary, &bin), native, "n = {n}");
        }
    }

    /// A dot loop entered with its counter at 0: the scalar do-while wraps
    /// it and faults at its first load, through an unmapped pointer. The
    /// vector block must not strip-mine `0 − 1` elements first: it skips
    /// to the repair block, whose replay of that load faults on the same
    /// address with every register as the scalar loop leaves it, and no
    /// vector instruction retired.
    #[test]
    fn a_counter_of_zero_skips_the_vector_loop() {
        let src = SCALAR_DOT
            .replace("la t0, a", "li t0, 8")
            .replace("la t1, b", "li t1, 16")
            .replace("li t2, 6", "li t2, 0");
        let bin = assemble(&src, AsmOptions::default()).unwrap();
        let rw = upgrade_rewrite(&bin, RewriteOptions::default()).unwrap();
        assert_eq!(rw.stats.smile_trampolines, 1);
        let fault = |bin: &Binary| {
            let (mut cpu, mut mem) = chimera_emu::boot(bin, ExtSet::RV64GCV);
            let r = chimera_emu::run_cpu(&mut cpu, &mut mem, 100_000);
            let Err(RunError::Trap(chimera_emu::Trap::Mem { fault, .. })) = r else {
                panic!("the loop faults: {r:?}")
            };
            (fault.addr, cpu.hart.xregs(), cpu.stats.vector_insts)
        };
        let (native, upgraded) = (fault(&bin), fault(&rw.binary));
        assert_eq!(upgraded, (8, native.1, 0));
    }

    #[test]
    fn non_canonical_loops_left_alone() {
        let src = "
            _start:
                li t0, 5
                li a0, 0
            loop:
                add a0, a0, t0
                addi t0, t0, -1
                bnez t0, loop
                li a7, 93
                ecall
        ";
        assert_stays_scalar(src, 15);
    }
}
