//! Migration at every safe point, both directions (ROADMAP item 16,
//! scoped to the programs whose downgraded stretches hold vector elements
//! in registers, item 4).
//!
//! A process has two MMViews: the native binary for cores with V and its
//! CHBP downgrade for cores without. It starts on a base core and runs one
//! instruction at a time in `ExecMode::Reference`. On the base core, at
//! every step where [`Process::migration_safe`] says so (every
//! [`EVERY`]-th such step in a debug build), it migrates to an extension
//! core, which runs it for 2 to 42 steps, vector code included, and
//! migrates it back; at every step where `migration_safe` says no,
//! [`Process::migrate`] must refuse and change nothing. At
//! exit the whole architectural state — `x`, `f` and `v` registers, `vl`
//! and SEW (read from `.chimera.vregs` when the task ends on a base core),
//! writable memory and stdout — must equal the native run's. A migration
//! that skips `sync_vectors_to_spill` fails here: the downgraded code then
//! computes on a stale spilled register file.
//!
//! The same programs also take an erroneous jump to every fault-table
//! redirect, with either SEW set beforehand, and must end as the native run
//! jumped to the same address does.

use chimera_emu::{Cpu, ExecMode, Memory};
use chimera_isa::{Eew, ExtSet, FReg, VReg, VType, VLEN};
use chimera_kernel::{KernelRunner, Process, RunOutcome, RuntimeTables, Tracer, Variant};
use chimera_obj::{assemble, AsmOptions, Binary};
use chimera_rewrite::translate::SpillLayout;
use chimera_rewrite::{chbp_rewrite, RewriteOptions};
use chimera_testutil::writable_bytes;
use chimera_workloads::blas::{gemv, Precision};
use chimera_workloads::hetero::matrix_task;

/// Every how many safe steps the task migrates: each one in release, a
/// sample in debug.
const EVERY: usize = if cfg!(debug_assertions) { 2 } else { 1 };
const FUEL: u64 = 10_000_000;
const VLENB: usize = VLEN as usize / 8;

/// Everything a run leaves behind that the two runs must agree on.
#[derive(Debug, PartialEq)]
struct Final {
    exit: i64,
    stdout: Vec<u8>,
    x: [u64; 32],
    f: Vec<u64>,
    vl: u64,
    sew_bytes: u64,
    v: Vec<u8>,
    mem: Vec<(String, Vec<u8>)>,
}

/// The state at exit; vector state from the hart on a core with V, from the
/// spill section at `spill` otherwise.
fn state(
    exit: i64,
    k: &KernelRunner,
    cpu: &Cpu,
    mem: &mut Memory,
    bin: &Binary,
    spill: u64,
) -> Final {
    let h = &cpu.hart;
    let (vl, sew_bytes, v) = if cpu.profile.contains(chimera_isa::Ext::V) {
        let v = (0..32).flat_map(|i| *h.get_v(VReg::of(i))).collect();
        (h.vl, h.vtype.map_or(0, |t| t.sew.bytes()), v)
    } else {
        let mut slot = |offset: i32, len| mem.peek(spill + offset as u64, len).expect("mapped");
        let dword = |b: Vec<u8>| u64::from_le_bytes(b.try_into().unwrap());
        let (vl, sew) = (slot(SpillLayout::VL, 8), slot(SpillLayout::SEW, 8));
        (dword(vl), dword(sew), slot(SpillLayout::VREGS, 32 * VLENB))
    };
    Final {
        exit,
        stdout: k.stdout.clone(),
        x: h.xregs(),
        f: (0..32).map(|i| h.get_f(FReg::of(i))).collect(),
        vl,
        sew_bytes,
        v,
        mem: writable_bytes(mem, bin),
    }
}

fn native(bin: &Binary) -> Final {
    let process = Process::new(vec![Variant::native(bin.clone())]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GCV).expect("loads");
    cpu.set_mode(ExecMode::Reference);
    let mut k = KernelRunner::new(view.tables.clone());
    let RunOutcome::Exited(exit) = k.run(&mut cpu, &mut mem, FUEL) else {
        panic!("the native run exits")
    };
    state(exit, &k, &cpu, &mut mem, bin, 0)
}

/// What a migrating run did besides its final state.
#[derive(Debug, Default)]
struct Tally {
    steps: usize,
    migrations: usize,
    refusals: usize,
}

/// The downgraded view started on a base core, migrating to an extension
/// core at every [`EVERY`]-th safe step and back after a short stay.
fn migrating(bin: &Binary) -> (Final, Tally) {
    let rw = chbp_rewrite(bin, ExtSet::RV64GC, RewriteOptions::default()).expect("rewrites");
    let spill = rw.fht.spill_base;
    let tables = RuntimeTables {
        fht: Some(rw.fht),
        regen: None,
    };
    let downgraded = Variant {
        binary: rw.binary,
        tables,
    };
    let process = Process::new(vec![Variant::native(bin.clone()), downgraded]);
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).expect("loads");
    cpu.set_mode(ExecMode::Reference);
    let mut k = KernelRunner::new(view.tables.clone());
    let tracer = Tracer::disabled();
    let (mut tally, mut safe, mut stay) = (Tally::default(), 0, 0);
    let exit = loop {
        let active = process
            .view_for(cpu.profile)
            .expect("a view per core class");
        let (pc, profile) = (cpu.hart.pc, cpu.profile);
        let on_base = profile == ExtSet::RV64GC;
        let other = if on_base {
            ExtSet::RV64GCV
        } else {
            ExtSet::RV64GC
        };
        let go = if !Process::migration_safe(active, pc) {
            let moved = process.migrate(&mut cpu, &mut mem, &mut k, other, 0, &tracer);
            assert!(!moved, "migrated at unsafe pc {pc:#x}");
            assert_eq!((cpu.hart.pc, cpu.profile), (pc, profile));
            tally.refusals += 1;
            false
        } else if on_base {
            safe += 1;
            safe % EVERY == 0
        } else {
            // On the extension core every step is safe: stay a varying
            // number of steps, so that it runs vector code too.
            stay -= 1;
            stay == 0
        };
        if go {
            let moved = process.migrate(&mut cpu, &mut mem, &mut k, other, 0, &tracer);
            assert!(moved, "migration refused at safe pc {pc:#x}");
            tally.migrations += 1;
            stay = 1 + tally.migrations % 41;
        }
        match k.run(&mut cpu, &mut mem, 1) {
            RunOutcome::Exited(code) => break code,
            RunOutcome::OutOfFuel => tally.steps += 1,
            other => panic!("step {} at {pc:#x} on {profile:?}: {other:?}", tally.steps),
        }
        assert!(tally.steps < FUEL as usize, "the run ends");
    };
    (state(exit, &k, &cpu, &mut mem, bin, spill), tally)
}

/// The `speclike` generator's vector loop body (`speclike.rs`), as one
/// program: a load, an eleven-operation stretch, a fold and a move out.
fn speclike_vector_loop() -> Binary {
    let words: Vec<String> = (1..=32).map(|i| (i * 37 % 101).to_string()).collect();
    let src = format!(
        "
        .data
        varr: .dword {}
        .text
        _start:
            li a0, 7
            la t0, varr
            li t1, 32
            li t3, 0
        vloop:
            vsetvli t2, t1, e64, m1, ta, ma
            vle64.v v1, (t0)
            vmv.v.x v2, a0
            vmul.vv v3, v1, v2
            vadd.vv v6, v3, v1
            vxor.vv v7, v6, v2
            vmacc.vv v3, v6, v7
            vsub.vv v6, v3, v1
            vand.vv v7, v6, v2
            vor.vv v6, v7, v1
            vmul.vv v3, v6, v3
            vadd.vi v3, v3, 5
            vmv.v.i v4, 0
            vredsum.vs v5, v3, v4
            vmv.x.s t4, v5
            add t3, t3, t4
            sub t1, t1, t2
            slli t2, t2, 3
            add t0, t0, t2
            bnez t1, vloop
            andi a0, t3, 127
            li a7, 93
            ecall
        ",
        words.join(", ")
    );
    assemble(&src, AsmOptions::default()).expect("assembles")
}

fn check(name: &str, bin: &Binary) {
    let expected = native(bin);
    let (got, tally) = migrating(bin);
    assert_eq!(got, expected, "{name}: {tally:?}");
    // Both kinds of step happen: the task migrates and is refused.
    assert!(
        tally.migrations > 1 && tally.refusals > 0,
        "{name}: {tally:?}"
    );
}

#[test]
fn matrix_task_migrates_at_every_safe_step() {
    check("matrix_task(16, 2, true)", &matrix_task(16, 2, true));
}

#[test]
fn gemv_migrates_at_every_safe_step() {
    let bin = gemv(16, 16, 0, 16, Precision::Double, true);
    check("gemv(16, 16, 0, 16, Double, true)", &bin);
}

#[test]
fn speclike_vector_loop_migrates_at_every_safe_step() {
    check("speclike vector loop", &speclike_vector_loop());
}

/// The state at exit after a jump to `entry` with SEW `sew`: the native
/// view runs on an extension core until it first reaches `entry`, takes
/// `sew` there (its `vl` fits either width) and, when `through_table`,
/// migrates to a base core, whose view holds a trampoline's bytes at
/// `entry`: the kernel redirects the fault to the run's entry head.
fn jump(
    process: &Process,
    bin: &Binary,
    spill: u64,
    entry: u64,
    sew: Eew,
    through_table: bool,
) -> Final {
    let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GCV).expect("loads");
    cpu.set_mode(ExecMode::Reference);
    let mut k = KernelRunner::new(view.tables.clone());
    while cpu.hart.pc != entry {
        let outcome = k.run(&mut cpu, &mut mem, 1);
        assert!(
            matches!(outcome, RunOutcome::OutOfFuel),
            "{entry:#x} is reached: {outcome:?}"
        );
    }
    let (lmul, ta, ma) = (1, true, true);
    cpu.hart.vtype = Some(VType { sew, lmul, ta, ma });
    if through_table {
        let tracer = Tracer::disabled();
        assert!(process.migrate(&mut cpu, &mut mem, &mut k, ExtSet::RV64GC, 0, &tracer));
    }
    let faults = k.counters.total();
    let RunOutcome::Exited(exit) = k.run(&mut cpu, &mut mem, FUEL) else {
        panic!("the run from {entry:#x} exits")
    };
    assert!(
        !through_table || k.counters.total() > faults,
        "{entry:#x} faults into the table"
    );
    state(exit, &k, &cpu, &mut mem, bin, spill)
}

/// Every redirect of `bin`'s downgrade, entered at both SEWs, against the
/// native run entered alike. Entry heads that skip their SEW dispatch
/// fail at `e32`.
fn check_jumps(name: &str, bin: &Binary) {
    let rw = chbp_rewrite(bin, ExtSet::RV64GC, RewriteOptions::default()).expect("rewrites");
    let (spill, entries) = (
        rw.fht.spill_base,
        rw.fht.redirects.keys().copied().collect::<Vec<_>>(),
    );
    assert!(!entries.is_empty(), "{name} has redirects");
    let downgraded = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    };
    let process = Process::new(vec![Variant::native(bin.clone()), downgraded]);
    for entry in entries {
        for sew in [Eew::E32, Eew::E64] {
            let expected = jump(&process, bin, spill, entry, sew, false);
            let got = jump(&process, bin, spill, entry, sew, true);
            assert_eq!(got, expected, "{name}: jump to {entry:#x} at {sew:?}");
        }
    }
}

#[test]
fn erroneous_jumps_through_entry_heads_match_native() {
    check_jumps("matrix_task(16, 2, true)", &matrix_task(16, 2, true));
    let gemv = gemv(16, 16, 0, 16, Precision::Double, true);
    check_jumps("gemv(16, 16, 0, 16, Double, true)", &gemv);
    check_jumps("speclike vector loop", &speclike_vector_loop());
}
