//! Integration tests for the kernel runtime: passive fault handling,
//! MMView migration, signal compatibility, and lazy rewriting.

use chimera_isa::{Ext, ExtSet, XReg};
use chimera_kernel::{
    KernelRunner, Process, RunOutcome, RuntimeTables, Tracer, TrapDisposition, Variant, LAZY_SLACK,
};
use chimera_obj::{assemble, AsmOptions};
use chimera_rewrite::{chbp_rewrite, Mode, RewriteOptions};

const VEC_PROG: &str = "
    .data
    a: .dword 2
       .dword 3
       .dword 4
       .dword 5
    .text
    _start:
        li t0, 4
        vsetvli t1, t0, e64, m1, ta, ma
        la a0, a
        vle64.v v1, (a0)
        vmv.v.i v2, 0
        vredsum.vs v3, v1, v2
        vmv.x.s a0, v3
        li a7, 93
        ecall
";

fn chbp_variant(src: &str) -> Variant {
    let bin = assemble(src, AsmOptions::default()).unwrap();
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    }
}

#[test]
fn kernel_runs_downgraded_binary_with_zero_fault_handling() {
    let variant = chbp_variant(VEC_PROG);
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
    assert_eq!(outcome, RunOutcome::Exited(14));
    // Assertion 2: normal executions trigger no fault handling at all.
    assert_eq!(k.counters.total(), 0);
}

/// Runs the *original* binary with pc forced to `start`: the reference
/// behaviour an erroneous jump must reproduce after rewriting (Claim 2 is
/// semantic equivalence, not a fixed result).
fn original_outcome(src: &str, start: u64) -> i64 {
    let bin = assemble(src, AsmOptions::default()).unwrap();
    let (mut cpu, mut mem) = chimera_emu::boot(&bin, ExtSet::RV64GCV);
    cpu.hart.pc = start;
    chimera_emu::run_cpu(&mut cpu, &mut mem, 1_000_000)
        .expect("original runs")
        .exit_code
}

#[test]
fn erroneous_jump_is_recovered_passively() {
    let variant = chbp_variant(VEC_PROG);
    let fht = variant.tables.fht.clone().unwrap();
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());

    // Force an erroneous jump onto an overwritten neighbour and let the
    // kernel recover: execution continues with the original semantics of
    // a jump to that address (Claim 2).
    let (&fault_addr, _) = fht.redirects.iter().next().expect("redirects exist");
    let expected = original_outcome(VEC_PROG, fault_addr);
    cpu.hart.pc = fault_addr;
    let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
    assert_eq!(outcome, RunOutcome::Exited(expected));
    assert_eq!(k.counters.smile_faults, 1);
}

#[test]
fn every_redirect_target_recovers() {
    // Exhaustive Claim 2 check: for EVERY fault-handling-table entry, an
    // erroneous jump onto the overwritten instruction reproduces the
    // original binary's behaviour for a jump to that address.
    let variant = chbp_variant(VEC_PROG);
    let fht = variant.tables.fht.clone().unwrap();
    let process = Process::new(vec![variant]);
    for (&fault_addr, _) in fht.redirects.iter() {
        let expected = original_outcome(VEC_PROG, fault_addr);
        let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
        let mut k = KernelRunner::new(view.tables.clone());
        cpu.hart.pc = fault_addr;
        let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
        assert_eq!(
            outcome,
            RunOutcome::Exited(expected),
            "erroneous jump to {fault_addr:#x} must recover"
        );
        assert!(k.counters.smile_faults >= 1);
    }
}

#[test]
fn signal_inside_trampoline_sees_correct_gp() {
    let variant = chbp_variant(VEC_PROG);
    let fht = variant.tables.fht.clone().unwrap();
    let abi_gp = fht.abi_gp;
    let tramp = *fht.trampolines.iter().next().unwrap();
    let process = Process::new(vec![variant]);
    let (mut cpu, _mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());

    // Park mid-trampoline with gp clobbered (as if the auipc executed).
    cpu.hart.pc = tramp + 4;
    cpu.hart.set_x(XReg::GP, 0x9999_0000);
    k.deliver_signal(&mut cpu, 0x4444_0000);
    // Figure 10: the handler observes the correct (ABI) gp...
    assert_eq!(cpu.hart.gp(), abi_gp);
    assert_eq!(cpu.hart.get_x(XReg::RA), chimera_kernel::SIGRETURN_ADDR);
    assert_eq!(k.counters.signals_gp_restored, 1);

    // ...and outside a trampoline, gp passes through untouched.
    let (mut cpu2, _mem2, view2) = process.load(ExtSet::RV64GC).unwrap();
    let mut k2 = KernelRunner::new(view2.tables.clone());
    cpu2.hart.set_x(XReg::GP, abi_gp);
    k2.deliver_signal(&mut cpu2, 0x4444_0000);
    assert_eq!(k2.counters.signals_gp_restored, 0);
}

#[test]
fn sigreturn_restores_interrupted_context_and_program_completes() {
    // Full Figure-10 scenario: a signal lands mid-trampoline (between the
    // auipc and the jalr), the handler observes the ABI gp and records it,
    // sigreturn restores the in-flight gp, and the program completes with
    // the correct result.
    let src_with_handler = "
        .data
        a: .dword 2
           .dword 3
           .dword 4
           .dword 5
        seen_gp: .dword 0
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            vle64.v v1, (a0)
            vmv.v.i v2, 0
            vredsum.vs v3, v1, v2
            vmv.x.s a0, v3
            li a7, 93
            ecall
        handler:
            la t6, seen_gp
            sd gp, 0(t6)
            ret
    ";
    let bin = assemble(src_with_handler, AsmOptions::default()).unwrap();
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    let abi_gp = rw.fht.abi_gp;
    let tramp = *rw.fht.trampolines.iter().next().unwrap();
    // Locate the handler (the `la t6, seen_gp` auipc).
    let d = chimera_analysis::disassemble(&rw.binary);
    let handler = d
        .iter()
        .find(|di| matches!(di.inst, chimera_isa::Inst::Auipc { rd: XReg::T6, .. }))
        .expect("handler present")
        .addr;
    let data_addr = rw.binary.section(".data").unwrap().addr;
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());

    // Execute naturally up to the point *between* the trampoline's auipc
    // and jalr: gp now holds the in-flight target, registers are live.
    while cpu.hart.pc != tramp + 4 {
        cpu.step(&mut mem).expect("pre-signal execution is normal");
    }
    let inflight_gp = cpu.hart.gp();
    assert_ne!(inflight_gp, abi_gp, "auipc must have clobbered gp");

    k.deliver_signal(&mut cpu, handler);
    assert_eq!(cpu.hart.gp(), abi_gp, "handler sees the ABI gp");

    // Run to completion: handler -> sigreturn -> trampoline resumes with
    // the in-flight gp -> program finishes normally.
    let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
    assert_eq!(outcome, RunOutcome::Exited(14));
    // The handler recorded the gp it observed into `seen_gp` (registers
    // are restored by sigreturn, so memory is the only channel).
    let seen = mem.read_u64(data_addr + 32).unwrap();
    assert_eq!(seen, abi_gp, "the gp value the handler recorded");
}

#[test]
fn untranslated_source_requests_migration() {
    // lmul=8 has no downgrade template: the site stays unpatched and the
    // kernel requests migration when it executes (FAM fallback).
    let src = "
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m8, ta, ma
            li a0, 1
            li a7, 93
            ecall
    ";
    let bin = assemble(src, AsmOptions::default()).unwrap();
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    assert!(!rw.fht.untranslated.is_empty());
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    match k.run(&mut cpu, &mut mem, 10_000) {
        RunOutcome::NeedsMigration { pc } => {
            let fht = process.views[0].tables.fht.as_ref().unwrap();
            assert!(fht.untranslated.contains(&pc));
        }
        other => panic!("expected migration request, got {other:?}"),
    }
}

/// A source instruction with no template *after* a translatable one in the
/// same block (`m8` grouping; natively `a1 = min(100, VLMAX) = 32`), and
/// the same with the `m8` form inside the first site's 8-byte space, which
/// leaves no room for a SMILE trampoline and forces a trap entry.
const UNTRANSLATABLE_MID_BLOCK: [&str; 2] = [
    "_start:
        vsetvli t0, a0, e64, m1, ta, ma
        li a0, 100
        vsetvli a1, a0, e64, m8, ta, ma
        mv a0, a1
        li a7, 93
        ecall",
    "_start:
        li a0, 100
        vsetvli t0, a0, e64, m1, ta, ma
        vsetvli a1, a0, e64, m8, ta, ma
        mv a0, a1
        li a7, 93
        ecall",
];

#[test]
fn untranslatable_source_mid_block_migrates_at_its_original_address() {
    // The block ends before the instruction nothing can translate and
    // exits to its original address, where it still stands: executing it
    // on the base core is a migration request at a migration-safe pc —
    // never a breakpoint inside the target section serviced as an exit.
    for (src, (smiles, traps)) in UNTRANSLATABLE_MID_BLOCK.into_iter().zip([(1, 0), (0, 1)]) {
        let bin = assemble(src, AsmOptions::default()).unwrap();
        assert_eq!(chimera_emu::run_binary(&bin, 1000).unwrap().exit_code, 32);
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        assert_eq!(
            (rw.stats.smile_trampolines, rw.stats.trap_entries),
            (smiles, traps)
        );
        let variant = Variant {
            binary: rw.binary,
            tables: RuntimeTables {
                fht: Some(rw.fht),
                regen: None,
            },
        };
        let process = Process::new(vec![variant]);
        let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
        let fht = view.tables.fht.as_ref().unwrap();
        let mut k = KernelRunner::new(view.tables.clone());
        let RunOutcome::NeedsMigration { pc } = k.run(&mut cpu, &mut mem, 10_000) else {
            panic!("expected a migration request");
        };
        assert_eq!(fht.untranslated.iter().collect::<Vec<_>>(), [&pc]);
        assert!(Process::migration_safe(view, pc));
        assert!(!fht.trap_exits.contains_key(&pc));
        assert!(matches!(
            chimera_isa::decode(bin.read_u32(pc).unwrap()).unwrap().inst,
            chimera_isa::Inst::Vsetvli { vtype, .. } if vtype.lmul == 8
        ));
        assert_eq!(view.binary.read_u32(pc), bin.read_u32(pc));
    }
}

#[test]
fn mmview_migration_mid_task() {
    // Run the first chunk on an extension core with the native binary,
    // migrate, and finish on a base core with the downgraded view. Vector
    // state carries over through the spill section.
    let src = "
        .data
        a: .dword 100
           .dword 200
           .dword 300
           .dword 400
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            vle64.v v1, (a0)
            vmv.v.i v2, 0
            vredsum.vs v3, v1, v2
            vmv.x.s a0, v3
            li a7, 93
            ecall
    ";
    let bin = assemble(src, AsmOptions::default()).unwrap();
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    let process = Process::new(vec![
        Variant::native(bin.clone()),
        Variant {
            binary: rw.binary,
            tables: RuntimeTables {
                fht: Some(rw.fht),
                regen: None,
            },
        },
    ]);

    // Phase 1: native on the extension core, stop after the vle64.
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GCV).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    for _ in 0..64 {
        if cpu.stats.vector_insts == 2 {
            break;
        }
        cpu.step(&mut mem).unwrap();
    }
    assert_eq!(cpu.stats.vector_insts, 2, "vsetvli + vle64 executed");

    // Migrate: the view switch maps the spill section, the architectural
    // vector state is synced into it, and the runner takes the downgraded
    // view's tables.
    let tracer = Tracer::disabled();
    assert!(process.migrate(&mut cpu, &mut mem, &mut k, ExtSet::RV64GC, 0, &tracer));
    assert_eq!(cpu.profile, ExtSet::RV64GC);
    assert!(k.tables.fht.is_some());

    // Phase 2: kernel-supervised run on the base core.
    let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
    assert_eq!(outcome, RunOutcome::Exited(1000));
}

#[test]
fn lazy_rewriting_recovers_hidden_vector_code() {
    // A vector block reachable only through a pointer the scan cannot see
    // (stored doubled, halved at runtime): static rewriting misses it, so
    // the kernel must rewrite lazily on the illegal-instruction fault.
    let src = "
        .data
        a: .dword 7
           .dword 8
           .dword 9
           .dword 10
        coded_ptr: .dword 0
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            la t2, coded_ptr
            ld t3, 0(t2)
            srli t3, t3, 1
            jr t3
        hidden:
            vle64.v v1, (a0)
            vmv.v.i v2, 0
            vredsum.vs v3, v1, v2
            vmv.x.s a0, v3
            li a7, 93
            ecall
    ";
    // Locate `hidden` using a reference build with a visible pointer.
    let ref_bin = assemble(
        &src.replace("coded_ptr: .dword 0", "coded_ptr: .dword hidden"),
        AsmOptions::default(),
    )
    .unwrap();
    let dref = chimera_analysis::disassemble(&ref_bin);
    let hidden = dref
        .iter()
        .find(|di| matches!(di.inst, chimera_isa::Inst::VLoad { .. }))
        .unwrap()
        .addr;

    let mut bin = assemble(src, AsmOptions::default()).unwrap();
    let data = bin.section(".data").unwrap().addr;
    bin.write(data + 32, &(hidden * 2).to_le_bytes());

    // Sanity: the coded program runs natively.
    let native = chimera_emu::run_binary(&bin, 100_000).unwrap();
    assert_eq!(native.exit_code, 34);

    // The static pass cannot see `hidden` (not in the redirect scan).
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
    assert_eq!(outcome, RunOutcome::Exited(34));
    assert!(k.counters.lazy_rewrites > 0, "lazy rewriting must trigger");
}

/// A task stopped inside a lazily built block is in target code, as it
/// would be inside the target section: it may not migrate there (the view
/// switch unmaps `[lazy]`, so it would resume at an unmapped pc), and a
/// signal delivered there gives the handler the ABI `gp`.
#[test]
fn a_lazily_built_block_is_target_code() {
    let src = "
        .data
        a: .dword 7
           .dword 8
           .dword 9
           .dword 10
        coded_ptr: .dword 0
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            la t2, coded_ptr
            ld t3, 0(t2)
            srli t3, t3, 1
            jr t3
        handler:
            ret
        hidden:
            vle64.v v1, (a0)
            vmv.v.i v2, 0
            vredsum.vs v3, v1, v2
            vmv.x.s a0, v3
            li a7, 93
            ecall
    ";
    // The same layout with the pointer visible locates `hidden`; the
    // handler is the `ret` before it.
    let visible = src.replace("coded_ptr: .dword 0", "coded_ptr: .dword hidden");
    let dref = chimera_analysis::disassemble(&assemble(&visible, AsmOptions::default()).unwrap());
    let hidden = dref
        .iter()
        .find(|di| matches!(di.inst, chimera_isa::Inst::VLoad { .. }))
        .unwrap()
        .addr;
    let handler = hidden - 4;
    let mut bin = assemble(src, AsmOptions::default()).unwrap();
    let data = bin.section(".data").unwrap().addr;
    bin.write(data + 32, &(hidden * 2).to_le_bytes());
    let native = chimera_emu::run_binary(&bin, 100_000).unwrap().exit_code;

    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    let fht = rw.fht.clone();
    let tables = RuntimeTables {
        fht: Some(rw.fht),
        regen: None,
    };
    let process = Process::new(vec![
        Variant::native(bin),
        Variant {
            binary: rw.binary,
            tables,
        },
    ]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    // Step into the lazily built block of `hidden`'s run, past the point
    // where it points `gp` at the spill section.
    cpu.set_mode(chimera_emu::ExecMode::Reference);
    let lazy = fht.target_range.1..fht.target_range.1 + LAZY_SLACK;
    while !(lazy.contains(&cpu.hart.pc) && cpu.hart.gp() == fht.spill_base) {
        if let Err(trap) = cpu.step(&mut mem) {
            let disposition = k.service_trap(trap, &mut cpu, &mut mem);
            assert_eq!(disposition, TrapDisposition::Resume);
        }
    }
    assert_eq!(k.counters.lazy_rewrites, 1, "one block for the run");
    let pc = cpu.hart.pc;
    assert!(!Process::migration_safe(view, pc), "{pc:#x}");
    let tracer = Tracer::disabled();
    assert!(!process.migrate(&mut cpu, &mut mem, &mut k, ExtSet::RV64GCV, 0, &tracer));

    k.deliver_signal(&mut cpu, handler);
    assert_eq!(cpu.hart.gp(), fht.abi_gp, "the handler sees the ABI gp");
    assert_eq!(k.counters.signals_gp_restored, 1);
    // The handler returns, the block finishes, the task exits on this core.
    assert_eq!(
        k.run(&mut cpu, &mut mem, 1_000_000),
        RunOutcome::Exited(native)
    );
}

/// Lazy rewriting severs only the *bumped* regions' cached blocks: every
/// `poke_code` the kernel issues (the ebreak site patch in `.text`, the
/// emitted block in the `[lazy]` slack) invalidates blocks of those two
/// regions only. A hot loop living in a third executable region keeps its
/// cached blocks — and its jump-cache entries — across repeated lazy
/// rewrites, so invalidations and rebuilds stay proportional to the
/// number of rewrites, never to the hot loop's re-entry count. (These
/// per-CPU cache stats are exactly what `Measurement::cache` publishes.)
#[test]
fn lazy_rewrite_severs_only_bumped_region() {
    const ROUNDS: usize = 6;
    const EXTRA_BASE: u64 = 0x100_0000;

    // Trigger sites: each block holds one vector instruction the static
    // scan cannot reach (entered only through doubled pointers in `vtab`),
    // so each first execution forces one lazy rewrite (= two `poke_code`s).
    let mut src = String::from(
        "
        .data
        vtab:
    ",
    );
    for i in 0..ROUNDS {
        src.push_str(&format!("        .dword trig{i}\n"));
    }
    src.push_str(&format!(
        "
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la s3, vtab
            li s2, {EXTRA_BASE}
            jr s2
        "
    ));
    for i in 0..ROUNDS {
        src.push_str(&format!(
            "
        trig{i}:
            vmv.v.i v2, {i}
            jr s4
        "
        ));
    }
    let mut bin = assemble(&src, AsmOptions::default()).unwrap();
    // Double the trigger pointers in place so the static scan sees garbage
    // addresses and leaves every trigger un-rewritten (the lazy path).
    let data = bin.section(".data").unwrap().clone();
    for i in 0..ROUNDS {
        let off = i * 8;
        let ptr = u64::from_le_bytes(data.data[off..off + 8].try_into().unwrap());
        bin.write(data.addr + off as u64, &(ptr * 2).to_le_bytes());
    }

    // The hot region: a separate position-independent blob mapped at
    // EXTRA_BASE, never poked by anyone. It runs a tight inner loop, then
    // fires the next trigger, ROUNDS times.
    let extra_src = "
        _start:
            li s5, 6
            li s6, 0
        round:
            li t0, 50
        inner:
            addi a1, a1, 3
            xor a1, a1, t0
            addi t0, t0, -1
            bnez t0, inner
            slli t1, s6, 3
            add t1, t1, s3
            ld t2, 0(t1)
            srli t2, t2, 1
            la s4, back
            jr t2
        back:
            addi s6, s6, 1
            addi s5, s5, -1
            bnez s5, round
            li a0, 77
            li a7, 93
            ecall
    ";
    let extra_bin = assemble(extra_src, AsmOptions::default()).unwrap();
    let extra_bytes = extra_bin.section(".text").unwrap().data.clone();

    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    let process = Process::new(vec![Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    }]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    mem.map_bytes(EXTRA_BASE, extra_bytes, chimera_obj::Perms::RX, ".text.hot");
    let mut k = KernelRunner::new(view.tables.clone());
    let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
    assert_eq!(outcome, RunOutcome::Exited(77));
    assert_eq!(
        k.counters.lazy_rewrites, ROUNDS as u64,
        "each trigger must lazily rewrite exactly once"
    );

    let s = cpu.cache.stats;
    // The hot loop body re-enters ~50 times per round; those re-entries
    // come through the jump cache in the untouched hot region.
    assert!(
        s.chained >= 200,
        "hot-region jump-cache entries must survive the lazy rewrites: {s:?}"
    );
    // Invalidations track the bumped regions only: ~one stale re-lookup
    // per rewrite (the patched trigger site). A validation scheme that
    // flushed on the *global* generation would additionally invalidate
    // the hot region's blocks every round and blow this bound.
    assert!(
        s.invalidations <= 2 * ROUNDS as u64,
        "invalidations must scale with rewrites, not hot re-entries: {s:?}"
    );
    assert!(
        s.hits + s.chained > 5 * s.misses,
        "the hot region must stay cache-resident throughout: {s:?}"
    );
}

#[test]
fn empty_patch_mode_via_kernel() {
    let bin = assemble(VEC_PROG, AsmOptions::default()).unwrap();
    let rw = chbp_rewrite(
        &bin,
        ExtSet::RV64GCV,
        RewriteOptions {
            mode: Mode::EmptyPatch(Ext::V),
            ..Default::default()
        },
    )
    .unwrap();
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GCV).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    assert_eq!(k.run(&mut cpu, &mut mem, 1_000_000), RunOutcome::Exited(14));
}

/// The kernel's lazy-rewrite pokes bump region generations: every patch
/// severs cached blocks (cache stats). Lazy patches mutate the *runtime
/// image*, not the input binary, so `run_incremental` given their spans
/// reuses every unit and still reproduces the full rewrite bit for bit; an
/// SMC poke on a patch site, by contrast, invalidates its unit.
#[test]
fn lazy_rewrites_sever_blocks_and_redo_no_input_unit() {
    use chimera_kernel::{TraceEvent, Tracer};
    use chimera_rewrite::{run_cached, run_incremental, ChbpEngine, DirtySpan};

    let bin = assemble(VEC_PROG, AsmOptions::default()).unwrap();
    let opts = RewriteOptions {
        mode: Mode::EmptyPatch(Ext::V),
        ..Default::default()
    };
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts,
    };
    let (full, mut cache) = run_cached(&engine, &bin, 2, &Tracer::disabled()).unwrap();
    let full = full.rewritten;
    let fht = full.fht.clone();

    let process = Process::new(vec![Variant {
        binary: full.binary.clone(),
        tables: RuntimeTables {
            fht: Some(fht.clone()),
            regen: None,
        },
    }]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let entry = cpu.hart.pc;

    // EmptyPatch keeps the vector instructions verbatim in the target
    // section: on RV64GC each run of them faults and is lazily rewritten —
    // the `vsetvli`, then `vle64.v` .. `vmv.x.s`.
    let tracer = Tracer::enabled();
    let mut k = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
    assert_eq!(k.run(&mut cpu, &mut mem, 1_000_000), RunOutcome::Exited(14));
    assert_eq!(k.counters.lazy_rewrites, 2, "{:?}", k.counters);

    // The pokes bumped the patched regions' generations: a second pass
    // over the same code must drop every block decoded before the last
    // patch (invalidations are counted at the stale lookup), and the
    // re-run still behaves identically — now with zero new rewrites.
    let first_run = cpu.cache.stats;
    cpu.hart.pc = entry;
    assert_eq!(k.run(&mut cpu, &mut mem, 1_000_000), RunOutcome::Exited(14));
    assert!(
        cpu.cache.stats.invalidations > first_run.invalidations,
        "lazy pokes must sever cached blocks: {:?}",
        cpu.cache.stats
    );
    assert_eq!(k.counters.lazy_rewrites, 2, "{:?}", k.counters);

    // Every lazy patch site lies in the patched target section.
    let span = |mem: &mut chimera_emu::Memory, start: u64| DirtySpan {
        start,
        end: start + 4,
        generation: mem.code_fingerprint(start).unwrap().1,
    };
    let dirty: Vec<DirtySpan> = tracer
        .drain()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::LazyRewrite { pc, .. } => Some(span(&mut mem, pc)),
            _ => None,
        })
        .collect();
    assert_eq!(dirty.len(), 2, "{dirty:?}");
    assert!(
        dirty.iter().all(|d| d.start >= fht.target_range.0),
        "lazy patches live past the target base: {dirty:?}"
    );

    // The incremental driver consumes the report: target-section patches
    // overlap no unit's *input* source range, so every unit is reused —
    // and the output is still bit-identical to the full rewrite.
    let redone_by = |cache: &mut _, dirty: &[_]| {
        let tracer = Tracer::enabled();
        let again = run_incremental(&engine, &bin, cache, dirty, 2, &tracer).unwrap();
        assert_eq!(again.rewritten, full);
        let m = tracer.metrics().unwrap();
        m.counter_value("rewrite.units_redone").unwrap_or(0)
    };
    assert_eq!(
        redone_by(&mut cache, &dirty),
        0,
        "lazy patches invalidate no input units"
    );

    // An SMC poke on a patch site does invalidate its unit — and the
    // output still matches bit for bit.
    let site = *fht.trampolines.iter().next().expect("sites exist");
    mem.poke_code(site, &[0x13, 0x00, 0x00, 0x00]).unwrap();
    assert!(
        redone_by(&mut cache, &[span(&mut mem, site)]) >= 1,
        "an SMC poke on a site must redo its unit"
    );
}

/// A `write` whose length overflows the address space from inside a
/// region is a guest error, not a kernel panic: the guest sees a0 = -1
/// (EFAULT) and runs on to its exit, 42.
#[test]
fn write_with_overflowing_length_fails_in_the_guest() {
    let bin = assemble(
        "
        .data
        msg: .byte 104
             .byte 105
        .text
        _start:
            li a7, 64
            li a0, 1
            la a1, msg
            addi a1, a1, 1
            li a2, -1
            ecall
            addi a0, a0, 43
            li a7, 93
            ecall
        ",
        AsmOptions::default(),
    )
    .unwrap();
    let process = Process::new(vec![Variant {
        binary: bin,
        tables: RuntimeTables::default(),
    }]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GCV).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    assert_eq!(k.run(&mut cpu, &mut mem, 10_000), RunOutcome::Exited(42));
    assert!(k.stdout.is_empty());
}
