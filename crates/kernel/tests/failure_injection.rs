//! Failure injection (DESIGN.md §7): corrupted fault tables, stray traps,
//! and unmapped redirects must produce *clean* errors, never silent
//! mis-execution.

use chimera_isa::ExtSet;
use chimera_kernel::{KernelRunner, Process, RunOutcome, RuntimeTables, Variant};
use chimera_obj::{assemble, AsmOptions};
use chimera_rewrite::{chbp_rewrite, RewriteOptions};
use std::sync::Arc;

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

fn rewritten() -> (chimera_obj::Binary, chimera_rewrite::Rewritten) {
    let bin = assemble(VEC_PROG, AsmOptions::default()).unwrap();
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    (bin, rw)
}

#[test]
fn emptied_fault_table_fails_loudly_not_wrongly() {
    let (_, rw) = rewritten();
    let mut fht = rw.fht.clone();
    Arc::make_mut(&mut fht).redirects.clear(); // Corruption: the kernel cannot recover faults.
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(fht),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    // Normal flow still completes (the table is only for erroneous jumps).
    assert_eq!(k.run(&mut cpu, &mut mem, 1_000_000), RunOutcome::Exited(14));

    // An erroneous jump with the table gone: a *fatal* error, not a wrong
    // answer.
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    let (&p1, _) = rw.fht.redirects.iter().next().unwrap();
    cpu.hart.pc = p1;
    match k.run(&mut cpu, &mut mem, 1_000_000) {
        RunOutcome::Fatal(_) => {}
        other => panic!("corrupted table must be fatal, got {other:?}"),
    }
}

#[test]
fn redirect_to_garbage_is_contained() {
    let (_, rw) = rewritten();
    let mut fht = rw.fht.clone();
    // Corruption: point every redirect at unmapped memory.
    for (_, v) in Arc::make_mut(&mut fht).redirects.iter_mut() {
        *v = 0xdead_0000;
    }
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(fht),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    let (&p1, _) = rw.fht.redirects.iter().next().unwrap();
    cpu.hart.pc = p1;
    match k.run(&mut cpu, &mut mem, 1_000_000) {
        RunOutcome::Fatal(_) => {}
        other => panic!("garbage redirect must be fatal, got {other:?}"),
    }
}

#[test]
fn stray_breakpoint_is_fatal() {
    // An ebreak the tables know nothing about: fatal, not ignored.
    let bin = assemble(
        "
        _start:
            ebreak
            li a7, 93
            ecall
        ",
        AsmOptions::default(),
    )
    .unwrap();
    let variant = Variant::native(bin);
    let process = Process::new(vec![variant]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GCV).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    match k.run(&mut cpu, &mut mem, 1000) {
        RunOutcome::Fatal(msg) => assert!(msg.contains("breakpoint"), "{msg}"),
        other => panic!("stray ebreak must be fatal, got {other:?}"),
    }
}

#[test]
fn wild_store_is_reported() {
    let bin = assemble(
        "
        _start:
            li t0, 0x9990000
            sd zero, 0(t0)
            li a7, 93
            ecall
        ",
        AsmOptions::default(),
    )
    .unwrap();
    let process = Process::new(vec![Variant::native(bin)]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GCV).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    match k.run(&mut cpu, &mut mem, 1000) {
        RunOutcome::Fatal(msg) => assert!(msg.contains("fault"), "{msg}"),
        other => panic!("wild store must be fatal, got {other:?}"),
    }
}

#[test]
fn fuel_exhaustion_is_distinguishable() {
    let bin = assemble("_start:\nspin:\n    j spin\n", AsmOptions::default()).unwrap();
    let process = Process::new(vec![Variant::native(bin)]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GCV).unwrap();
    let mut k = KernelRunner::new(view.tables.clone());
    assert_eq!(k.run(&mut cpu, &mut mem, 1000), RunOutcome::OutOfFuel);
}
