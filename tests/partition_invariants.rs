//! What CHBP's unit partition promises, checked on every workload
//! generator's output through the public result alone (patched binary,
//! [`FaultTable`](chimera_rewrite::FaultTable), a traced run) — for the
//! SMILE engine and the trap-entry strawman:
//!
//! * a basic block is entered through at most one trampoline or trap entry
//!   (`Scanned::ranges` ascending and disjoint: a region covers the sources
//!   it translated, so no later source of the block gets a second unit);
//! * no entry's overwritten space swallows the start of a block the CFG
//!   knows a way into;
//! * so a normal run on a base core recovers no SMILE fault at a block
//!   start, and ends like the native run.
//!
//! Before the partition advanced by what a region translated, 85 % of the
//! trampolines were not the first in their block, and `dgemv` / `sgemv`
//! took one SMILE fault per strip of their inner loop (624 at one pc on
//! `gemv(48, 48, 0, 48, Double, true)`): the trampoline of a source the
//! preceding region had already translated overwrote the loop head.

use chimera_analysis::{disassemble, Cfg, Disassembly};
use chimera_isa::ExtSet;
use chimera_kernel::{
    KernelRunner, Process, RunOutcome, RuntimeTables, TraceEvent, Tracer, Variant,
};
use chimera_obj::Binary;
use chimera_rewrite::{chbp_rewrite, RewriteOptions, Rewritten};
use chimera_workloads::blas::{gemm, gemv, Precision};
use chimera_workloads::hetero::standard_tasks;
use chimera_workloads::speclike::{generate, GenOptions, APP_PROFILES, SPEC_PROFILES};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One generator output, its analyses, and its rewrite under each option
/// set.
struct Case {
    name: String,
    bin: Binary,
    d: Disassembly,
    cfg: Cfg,
    rewrites: [(&'static str, Rewritten); 2],
}

/// Every generator: the zoo at `GenOptions::default()`, the BLAS kernels
/// in both precisions and the §6.1 tasks. Rewritten once for all tests.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut programs: Vec<(String, Binary)> = SPEC_PROFILES
            .iter()
            .chain(APP_PROFILES)
            .map(|p| (p.name.to_string(), generate(p, GenOptions::default())))
            .collect();
        for p in [Precision::Double, Precision::Single] {
            programs.push((format!("{p:?} gemm"), gemm(12, 12, 12, 0, 12, p, true)));
            programs.push((format!("{p:?} gemv"), gemv(48, 48, 0, 48, p, true)));
        }
        let tasks = standard_tasks();
        programs.push(("matrix_ext".into(), tasks.matrix_ext));
        programs.push(("matrix_base".into(), tasks.matrix_base));
        programs.push(("fib_base".into(), tasks.fib_base));

        let strawman = RewriteOptions {
            force_trap_entries: true,
            ..Default::default()
        };
        programs
            .into_iter()
            .map(|(name, bin)| {
                let d = disassemble(&bin);
                let cfg = Cfg::build(&d);
                let rewrites = [("chbp", RewriteOptions::default()), ("strawman", strawman)].map(
                    |(engine, opts)| {
                        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, opts).unwrap();
                        assert!(rw.fht.untranslated.is_empty(), "{name} [{engine}]");
                        (engine, rw)
                    },
                );
                Case {
                    name,
                    bin,
                    d,
                    cfg,
                    rewrites,
                }
            })
            .collect()
    })
}

/// Every patched entry of `rw`: `(head, first byte past what it
/// overwrote)`. A SMILE trampoline overwrites through the first
/// instruction boundary at or past `head + 8`, a trap entry its own
/// instruction.
fn entries<'a>(case: &'a Case, rw: &'a Rewritten) -> impl Iterator<Item = (u64, u64)> + 'a {
    let len = |head| case.d.at(head).expect("entries replace instructions").len as u64;
    let smile = rw.fht.trampolines.iter().map(move |&head| {
        let mut end = head;
        while end < head + 8 {
            end += len(end);
        }
        (head, end)
    });
    let trap = rw
        .fht
        .trap_entries
        .keys()
        .map(move |&head| (head, head + len(head)));
    smile.chain(trap)
}

#[test]
fn a_block_is_entered_through_at_most_one_trampoline_or_trap_entry() {
    let mut total = 0;
    for case in cases() {
        for (engine, rw) in &case.rewrites {
            let mut per_block: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for (head, _) in entries(case, rw) {
                let block = case.cfg.block_containing(head).expect("entries are code");
                per_block.entry(block.start).or_default().push(head);
                total += 1;
            }
            let crowded: Vec<_> = per_block.iter().filter(|(_, e)| e.len() > 1).collect();
            assert!(
                crowded.is_empty(),
                "{} [{engine}]: {} blocks with more than one entry, e.g. {:x?}",
                case.name,
                crowded.len(),
                crowded[0]
            );
        }
    }
    assert!(total > 1000, "the generators place entries: {total}");
}

#[test]
fn no_entry_overwrites_a_block_start_the_cfg_knows_a_way_into() {
    for case in cases() {
        for (engine, rw) in &case.rewrites {
            for (head, end) in entries(case, rw) {
                for addr in (head + 2..end).step_by(2) {
                    let known_leader = case
                        .cfg
                        .block_at(addr)
                        .is_some_and(|id| !case.cfg.preds(id).is_empty());
                    assert!(
                        !known_leader,
                        "{} [{engine}]: the entry at {head:#x} overwrites the block start {addr:#x}",
                        case.name
                    );
                }
            }
        }
    }
}

/// Runs every case's rewrite `which` on a base core under a tracing kernel.
fn normal_runs_recover_no_smile_fault_at_a_block_start(which: usize) {
    for case in cases() {
        let native = chimera_testutil::native_reference(&case.bin);
        let (engine, rw) = &case.rewrites[which];
        let tables = RuntimeTables {
            fht: Some(rw.fht.clone()),
            regen: None,
        };
        let process = Process::new(vec![Variant {
            binary: rw.binary.clone(),
            tables,
        }]);
        let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
        let tracer = Tracer::enabled();
        let mut k = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
        let outcome = k.run(&mut cpu, &mut mem, 1 << 32);
        assert_eq!(
            (outcome, &k.stdout),
            (RunOutcome::Exited(native.0), &native.1),
            "{} [{engine}]",
            case.name
        );
        let at_block_starts: Vec<u64> = tracer
            .drain()
            .into_iter()
            .filter_map(|rec| match rec.event {
                TraceEvent::SmileFaultRecovered { fault_addr, .. } => Some(fault_addr),
                _ => None,
            })
            .filter(|&addr| case.cfg.block_at(addr).is_some())
            .collect();
        assert_eq!(tracer.dropped(), 0);
        assert!(
            at_block_starts.is_empty(),
            "{} [{engine}]: {} SMILE faults at block starts, first at {:#x}",
            case.name,
            at_block_starts.len(),
            at_block_starts[0]
        );
    }
}

#[test]
fn a_normal_chbp_run_recovers_no_smile_fault_at_a_block_start() {
    normal_runs_recover_no_smile_fault_at_a_block_start(0);
}

#[test]
fn a_normal_strawman_run_recovers_no_smile_fault_at_a_block_start() {
    normal_runs_recover_no_smile_fault_at_a_block_start(1);
}
