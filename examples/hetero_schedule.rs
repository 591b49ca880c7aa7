//! Heterogeneous scheduling across an 8-core ISAX processor (a miniature
//! of §6.1 / Fig. 11): 200 mixed tasks, four systems, end-to-end latency
//! and CPU time, then 32 tasks executed for real on the many-hart kernel.
//!
//! ```sh
//! cargo run --release --example hetero_schedule
//! ```

use chimera::{
    measure, measure_or_fam_probe, prepare_process, FamResult, InputVersion, SystemKind,
    TaskBinaries,
};
use chimera_isa::ExtSet;
use chimera_kernel::{
    simulate_work_stealing, ManyHartConfig, ManyHartKernel, Pool, SimMachine, TaskCost,
};
use chimera_workloads::hetero::standard_tasks;

fn main() {
    let tasks = standard_tasks();
    let task_bins = TaskBinaries {
        base_version: Some(tasks.matrix_base.clone()),
        ext_version: Some(tasks.matrix_ext.clone()),
    };
    let fib_bins = TaskBinaries {
        base_version: Some(tasks.fib_base.clone()),
        ext_version: Some(tasks.fib_base.clone()),
    };

    let machine = SimMachine {
        base_cores: 4,
        ext_cores: 4,
        migrate_cost: 4000,
    };
    let n_tasks = 200;
    let ext_share = 0.5;

    println!(
        "== downgrading (extension-version input), {n_tasks} tasks, {:.0}% extension ==",
        ext_share * 100.0
    );
    println!(
        "{:<10} {:>14} {:>14} {:>12}",
        "system", "latency (cyc)", "cpu time", "accelerated"
    );
    for system in [
        SystemKind::Fam,
        SystemKind::Safer,
        SystemKind::Melf,
        SystemKind::Chimera,
    ] {
        // Measure each (task kind, core class) once; feed the simulator.
        let matrix = prepare_process(system, InputVersion::Ext, &task_bins).unwrap();
        let fib = prepare_process(system, InputVersion::Ext, &fib_bins).unwrap();

        let m_ext = measure(&matrix, ExtSet::RV64GCV, u64::MAX / 2).unwrap();
        let m_base = match measure_or_fam_probe(&matrix, ExtSet::RV64GC, u64::MAX / 2).unwrap() {
            FamResult::Completed(m) => Some(m.cycles),
            FamResult::Migrated { .. } => None,
        };
        let m_probe = match measure_or_fam_probe(&matrix, ExtSet::RV64GC, u64::MAX / 2).unwrap() {
            FamResult::Migrated { probe_cycles } => probe_cycles,
            _ => 0,
        };
        let f_base = measure(&fib, ExtSet::RV64GC, u64::MAX / 2).unwrap();

        let matrix_cost = TaskCost {
            prefers: Pool::Ext,
            on_ext: m_ext.cycles,
            on_base: m_base,
            fam_probe: m_probe,
            ext_accelerated: true,
        };
        let fib_cost = TaskCost {
            prefers: Pool::Base,
            on_ext: f_base.cycles,
            on_base: Some(f_base.cycles),
            fam_probe: 0,
            ext_accelerated: false,
        };

        let n_ext = (n_tasks as f64 * ext_share) as usize;
        let mut sim_tasks = vec![matrix_cost; n_ext];
        sim_tasks.extend(vec![fib_cost; n_tasks - n_ext]);
        let r = simulate_work_stealing(machine, &sim_tasks);
        println!(
            "{:<10} {:>14} {:>14} {:>11.0}%",
            system.name(),
            r.latency,
            r.cpu_time,
            100.0 * r.accelerated_ext_tasks as f64 / r.ext_tasks.max(1) as f64
        );
    }

    // The same matrix task executed for real on the many-hart kernel: even
    // harts boot the extension MMView, odd harts the CHBP-rewritten base
    // MMView. The total is deterministic at any worker count.
    println!("\n== many-hart execution (Chimera, 32 tasks on 16 ext + 16 base harts) ==");
    let matrix = prepare_process(SystemKind::Chimera, InputVersion::Ext, &task_bins).unwrap();
    let mut kernel = ManyHartKernel::new(ManyHartConfig {
        workers: 8,
        ..Default::default()
    });
    for hart in 0..32 {
        let profile = if hart % 2 == 0 {
            ExtSet::RV64GCV
        } else {
            ExtSet::RV64GC
        };
        let view = matrix.view_for(profile).expect("one view per core class");
        kernel.add_hart(&view.binary, profile, ExtSet::RV64GCV, view.tables.clone());
    }
    let r = kernel.run();
    assert_eq!(r.exited(), 32, "{:?}", r.first_failure());
    println!(
        "32 matrix tasks completed; total simulated cycles {} (checksum {:#018x})",
        r.cycles, r.checksum
    );
}
