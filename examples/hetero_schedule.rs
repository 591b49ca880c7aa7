//! Heterogeneous scheduling across an 8-core ISAX processor (a miniature
//! of §6.1 / Fig. 11): 200 mixed tasks executed under the work-stealing
//! scheduler for each of the four systems — end-to-end latency, CPU time,
//! and the migrations FAM really performs — then 32 tasks on the many-hart
//! kernel.
//!
//! ```sh
//! cargo run --release --example hetero_schedule
//! ```

use chimera::{prepare_process, InputVersion, SystemKind, TaskBinaries};
use chimera_isa::ExtSet;
use chimera_kernel::{run_work_stealing, Machine, ManyHartConfig, ManyHartKernel, Task, Tracer};
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

    let machine = Machine {
        base_cores: 4,
        ext_cores: 4,
    };
    let (n_tasks, n_ext) = (200, 160);

    println!(
        "== downgrading (extension-version input), {n_tasks} tasks, {}% extension ==",
        100 * n_ext / n_tasks
    );
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>11} {:>13}",
        "system", "latency (cyc)", "cpu time", "accelerated", "migrations", "fault+migrate"
    );
    for system in [
        SystemKind::Fam,
        SystemKind::Safer,
        SystemKind::Melf,
        SystemKind::Chimera,
    ] {
        let matrix = prepare_process(system, InputVersion::Ext, &task_bins).unwrap();
        let fib = prepare_process(system, InputVersion::Ext, &fib_bins).unwrap();
        let mix = Task::mix(&matrix, n_ext, &fib, n_tasks - n_ext);
        let r = run_work_stealing(machine, &mix, &Tracer::disabled()).unwrap();
        println!(
            "{:<10} {:>14} {:>14} {:>11.0}% {:>11} {:>13}",
            system.name(),
            r.latency,
            r.cpu_time,
            100.0 * r.accelerated_share(),
            r.migrations,
            r.probe_cycles + r.migrate_cycles
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
