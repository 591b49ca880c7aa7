//! # chimera-bench
//!
//! The experiment harness: one function per paper figure/table, shared by
//! the `fig11`/`fig12`/`fig13`/`fig14`/`table1`/`table2`/`table3` binaries.
//! Every function prints the same rows or series the paper reports (shape,
//! not absolute silicon numbers — see EXPERIMENTS.md). Wall-clock numbers
//! are not measured here: `bench/` (`pipeline_e2e`) is the one instrument
//! for those.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chimera::{
    empty_patch_with, prepare_process, run_variant, InputVersion, RewriterKind, SystemKind,
    TaskBinaries,
};
use chimera_isa::ExtSet;
use chimera_kernel::{run_work_stealing, CoreClass, Machine, Process, SchedResult, Task, Tracer};
use chimera_obj::Binary;
use chimera_workloads::blas::{sliced_kernels, BlasKind};
use chimera_workloads::hetero::{fib_task, matrix_task};
use chimera_workloads::speclike::{
    generate, BenchProfile, GenOptions, APP_PROFILES, SPEC_PROFILES,
};

/// Harness scale (full for the committed results, quick for CI smoke).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Code-size scale for SPEC-like generation.
    pub size_scale: f64,
    /// Dynamic-work scale.
    pub work_scale: f64,
    /// Task-count for scheduling sweeps.
    pub n_tasks: usize,
}

impl Scale {
    /// Full scale (a few minutes of runtime end to end).
    pub fn full() -> Scale {
        Scale {
            size_scale: 1.0 / 16.0,
            work_scale: 2.0,
            n_tasks: 1000,
        }
    }

    /// Quick scale (seconds; `--quick` and the smoke tests).
    pub fn quick() -> Scale {
        Scale {
            size_scale: 1.0 / 512.0,
            work_scale: 0.4,
            n_tasks: 120,
        }
    }

    /// Reads `--quick` from argv.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

const FUEL: u64 = u64::MAX / 2;

/// The four §6.1 systems in the paper's plotting order.
pub const SYSTEMS: [SystemKind; 4] = [
    SystemKind::Fam,
    SystemKind::Safer,
    SystemKind::Melf,
    SystemKind::Chimera,
];

/// Prepares the process `system` would run for a task compiled as `base`
/// and `ext`.
fn prepare(system: SystemKind, input: InputVersion, base: Binary, ext: Binary) -> Process {
    let task = TaskBinaries {
        base_version: Some(base),
        ext_version: Some(ext),
    };
    prepare_process(system, input, &task).expect("prepare")
}

/// Runs `tasks` on `machine` under the kernel's work-stealing scheduler.
fn schedule(machine: Machine, tasks: &[Task<'_>]) -> SchedResult {
    run_work_stealing(machine, tasks, &Tracer::disabled()).expect("schedule")
}

/// Sweeps the extension-task share 0–100 % in steps of 10 for one system
/// (one Fig. 11 column; Fig. 12 via [`SchedResult::accelerated_share`]):
/// every point schedules `scale.n_tasks` real matrix and fib tasks on the
/// 4 + 4-core machine.
pub fn hetero_sweep(system: SystemKind, input: InputVersion, scale: Scale) -> Vec<SchedResult> {
    let matrix = prepare(
        system,
        input,
        matrix_task(64, 4, false),
        matrix_task(64, 4, true),
    );
    let fib = prepare(system, input, fib_task(900, 4), fib_task(900, 4));
    let machine = Machine {
        base_cores: 4,
        ext_cores: 4,
    };
    (0..=10)
        .map(|i| {
            let n_ext = scale.n_tasks * i / 10;
            schedule(
                machine,
                &Task::mix(&matrix, n_ext, &fib, scale.n_tasks - n_ext),
            )
        })
        .collect()
}

/// One Fig. 13 row: per-rewriter overhead relative to the original binary.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Overhead fraction per rewriter, in [`REWRITERS`] order.
    pub overhead: [f64; 4],
    /// Fault-handling trigger counts per rewriter (Table 2), normalized
    /// per 10⁹ retired instructions.
    pub triggers_per_1e9: [f64; 4],
    /// Native retired instructions.
    pub native_instret: u64,
}

/// The four §6.2 rewriters in the paper's plotting order.
pub const REWRITERS: [RewriterKind; 4] = [
    RewriterKind::Strawman,
    RewriterKind::Safer,
    RewriterKind::Armore,
    RewriterKind::Chbp,
];

/// Runs the §6.2 empty-patching methodology for one benchmark profile.
pub fn fig13_row(profile: &BenchProfile, scale: Scale) -> Fig13Row {
    let bin = generate(
        profile,
        GenOptions {
            size_scale: scale.size_scale,
            work_scale: scale.work_scale,
            seed: 42,
        },
    );
    let native = chimera_emu::run_binary(&bin, FUEL).expect("native run");
    let base = native.stats.cycles as f64;

    let mut overhead = [0.0; 4];
    let mut triggers = [0.0; 4];
    for (i, rk) in REWRITERS.iter().enumerate() {
        let variant = empty_patch_with(*rk, &bin).expect("rewrite");
        let m = run_variant(&variant, ExtSet::RV64GCV, FUEL)
            .unwrap_or_else(|e| panic!("{} on {}: {e}", rk.name(), profile.name));
        assert_eq!(m.exit_code, native.exit_code, "{}", rk.name());
        overhead[i] = m.cycles as f64 / base - 1.0;
        // Trigger counts (Table 2): Safer counts every executed
        // indirect-jump check; trap-based methods count kernel traps;
        // CHBP counts handled deterministic faults.
        let raw = match rk {
            RewriterKind::Safer => m.indirect_jumps + m.counters.safer_corrections,
            RewriterKind::Chbp => m.counters.total(),
            _ => m.counters.trap_trampolines + m.counters.total(),
        };
        triggers[i] = raw as f64 * 1e9 / m.instret.max(1) as f64;
    }
    Fig13Row {
        name: profile.name,
        overhead,
        triggers_per_1e9: triggers,
        native_instret: native.stats.instret,
    }
}

/// All Fig. 13 rows (SPEC profiles).
pub fn fig13(scale: Scale) -> Vec<Fig13Row> {
    SPEC_PROFILES.iter().map(|p| fig13_row(p, scale)).collect()
}

/// Table 2 rows for the real-world application profiles.
pub fn table2_apps(scale: Scale) -> Vec<Fig13Row> {
    APP_PROFILES.iter().map(|p| fig13_row(p, scale)).collect()
}

/// One Table 3 row: static rewriting statistics for CHBP.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Generated code size in bytes.
    pub code_size: u64,
    /// Share of extension instructions (recognized).
    pub ext_share: f64,
    /// Exit trampolines emitted.
    pub exit_trampolines: usize,
    /// Dead register not found: (CHBP shifting, traditional liveness).
    pub dead_not_found: (usize, usize),
    /// SMILE trampolines placed.
    pub smile: usize,
    /// Trap-entry fallbacks.
    pub traps: usize,
}

/// Computes Table 3 for one profile (downgrade rewriting, the Table 3
/// configuration).
///
/// Table 3 is *static* (rewriting-time statistics only), so the full run
/// uses the paper's real code sizes — the > 1 MiB premise that makes exit
/// trampolines need long-distance register jumps. `--quick` keeps the
/// sweep scale for smoke runs.
pub fn table3_row(profile: &BenchProfile, scale: Scale) -> Table3Row {
    let full_static = scale.size_scale >= 1.0 / 64.0;
    let bin = generate(
        profile,
        GenOptions {
            size_scale: if full_static { 1.0 } else { scale.size_scale },
            work_scale: 0.1, // Never executed; keep generation light.
            seed: 42,
        },
    );
    let rw = chimera_rewrite::chbp_rewrite(
        &bin,
        ExtSet::RV64GC,
        chimera_rewrite::RewriteOptions::default(),
    )
    .expect("rewrite");
    let s = rw.stats;
    Table3Row {
        name: profile.name,
        code_size: s.code_size,
        ext_share: s.source_insts as f64 / s.total_insts.max(1) as f64,
        exit_trampolines: s.exit_trampolines,
        dead_not_found: (s.dead_reg_not_found_shift, s.dead_reg_not_found_traditional),
        smile: s.smile_trampolines,
        traps: s.trap_entries,
    }
}

/// All Table 3 rows (apps then SPEC, like the paper).
pub fn table3(scale: Scale) -> Vec<Table3Row> {
    APP_PROFILES
        .iter()
        .chain(SPEC_PROFILES.iter())
        .map(|p| table3_row(p, scale))
        .collect()
}

/// One Fig. 14 series point: acceleration ratio relative to FAM Ext.
#[derive(Debug, Clone, Copy)]
pub struct Fig14Point {
    /// Worker threads.
    pub threads: usize,
    /// (FAM Ext., FAM Base, MELF, Chimera) acceleration ratios.
    pub ratios: [f64; 4],
}

/// Fig. 14 for one BLAS kernel on a machine with `base_cores` +
/// `ext_cores`; threads ≤ cores are pinned half-and-half like the paper.
/// Every slice is a process and every configuration a schedule of them.
pub fn fig14_kernel(
    kind: BlasKind,
    size: usize,
    thread_counts: &[usize],
    base_cores: usize,
    ext_cores: usize,
) -> Vec<Fig14Point> {
    thread_counts
        .iter()
        .map(|&threads| {
            // FAM pins one equal slice per thread; the heterogeneous
            // systems split the same matrix into finer slices and balance
            // them dynamically across both pools (the §6.1 work-stealing
            // policy), which is where their advantage over FAM Base comes
            // from at high thread counts.
            let coarse = sliced_kernels(kind, size, threads);
            let fine = sliced_kernels(kind, size, (threads * 4).min(size));
            let ext_only = Machine {
                base_cores: 0,
                ext_cores: ext_cores.min(threads),
            };
            let both = Machine {
                base_cores: base_cores.min(threads - threads.div_ceil(2)),
                ext_cores: ext_cores.min(threads.div_ceil(2)),
            };
            // Synchronization: a barrier joins all threads; cost grows with
            // the thread count (the paper's sgemm bottleneck). The one
            // analytic term left: the slices do not synchronize as guests.
            let sync = 400 * (threads as u64) * (threads as u64).ilog2().max(1) as u64;

            let latency = |system, input, slices: &[(Binary, Binary)], machine, prefers| {
                let procs: Vec<Process> = slices
                    .iter()
                    .map(|(v, s)| prepare(system, input, s.clone(), v.clone()))
                    .collect();
                let tasks: Vec<Task<'_>> = procs
                    .iter()
                    .map(|process| Task { process, prefers })
                    .collect();
                (schedule(machine, &tasks).latency + sync) as f64
            };
            use {CoreClass::*, InputVersion as In, SystemKind as Sys};
            let latencies = [
                // FAM Ext.: vector slices compete for the ext cores only.
                latency(Sys::Fam, In::Ext, &coarse, ext_only, Ext),
                // FAM Base: scalar slices over all cores.
                latency(Sys::Fam, In::Base, &coarse, both, Base),
                // MELF / Chimera: fine slices across both pools, each core
                // running its variant (native scalar / CHBP-downgraded on
                // base cores).
                latency(Sys::Melf, In::Ext, &fine, both, Ext),
                latency(Sys::Chimera, In::Ext, &fine, both, Ext),
            ];
            Fig14Point {
                threads,
                ratios: latencies.map(|l| latencies[0] / l),
            }
        })
        .collect()
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_quick_smoke() {
        let row = fig13_row(&SPEC_PROFILES[4], Scale::quick());
        // CHBP (index 3) beats trap-based strawman (index 0).
        assert!(row.overhead[3] <= row.overhead[0] + 1e-9, "{row:?}");
    }

    /// C1 (Chimera within 3.2 % of MELF at 100 % extension share, §6.1) as a
    /// ratchet: at quick scale Chimera's Fig. 11 CPU time at 100 % is at
    /// most 1.26 × MELF's. Recorded when vector runs began translating as
    /// one body: +25.0 % (2,015,440 against 1,612,272 cycles), from +33.3 %
    /// (2,149,152) before. Lower the bound as the gap closes.
    #[test]
    fn c1_downgrade_gap_ratchet() {
        let at_100 = |system| {
            let sweep = hetero_sweep(system, InputVersion::Ext, Scale::quick());
            sweep[10].cpu_time as f64
        };
        let (melf, chimera) = (at_100(SystemKind::Melf), at_100(SystemKind::Chimera));
        let gap = 100.0 * (chimera / melf - 1.0);
        assert!(chimera <= 1.26 * melf, "Chimera +{gap:.1} % over MELF");
    }

    #[test]
    fn table3_quick_smoke() {
        let row = table3_row(&SPEC_PROFILES[4], Scale::quick());
        assert!(row.smile > 0);
        assert!(row.dead_not_found.0 <= row.dead_not_found.1);
    }

    #[test]
    fn hetero_sweep_shape() {
        let pts = hetero_sweep(SystemKind::Chimera, InputVersion::Ext, Scale::quick());
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[3].ext_tasks, 36, "30 % of 120");
        // Latency falls as the (faster) extension tasks dominate.
        assert!(pts[10].latency < pts[0].latency);
    }

    #[test]
    fn fig14_quick_smoke() {
        let pts = fig14_kernel(BlasKind::Dgemv, 12, &[2, 4], 4, 4);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            // Under FIFO work stealing a base core takes a slice whatever
            // its variant costs there, so Chimera (downgraded gemv slices)
            // trails MELF (native scalar ones) — see EXPERIMENTS.md.
            assert!(p.ratios.iter().all(|r| r.is_finite() && *r > 0.0), "{p:?}");
            assert!(p.ratios[3] <= p.ratios[2], "MELF is the ideal: {p:?}");
        }
    }
}
