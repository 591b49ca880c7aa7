//! End-to-end heterogeneous-systems properties (the §6.1 claims at test
//! scale): ordering of latencies, FAM's idle-core pathology, and the
//! accelerated-task share of Fig. 12.

use chimera::{prepare_process, InputVersion, SystemKind, TaskBinaries};
use chimera_kernel::{run_work_stealing, Machine, Task, Tracer};
use chimera_workloads::hetero::{fib_task, matrix_task};

/// Schedules 120 real tasks, `ext_share` of them matrix tasks, on the
/// 4 + 4-core machine; returns (latency, accelerated share).
fn latency(system: SystemKind, input: InputVersion, ext_share: f64) -> (u64, f64) {
    let task = TaskBinaries {
        base_version: Some(matrix_task(48, 4, false)),
        ext_version: Some(matrix_task(48, 4, true)),
    };
    let fib_bins = TaskBinaries {
        base_version: Some(fib_task(800, 4)),
        ext_version: Some(fib_task(800, 4)),
    };
    let matrix = prepare_process(system, input, &task).unwrap();
    let fib = prepare_process(system, input, &fib_bins).unwrap();
    let machine = Machine {
        base_cores: 4,
        ext_cores: 4,
    };
    let n = 120;
    let n_ext = (n as f64 * ext_share) as usize;
    let tasks = Task::mix(&matrix, n_ext, &fib, n - n_ext);
    let r = run_work_stealing(machine, &tasks, &Tracer::disabled()).unwrap();
    (r.latency, r.accelerated_share())
}

#[test]
fn downgrading_latency_ordering() {
    // Fig. 11b at 80% extension tasks: MELF ≤ Chimera < FAM and
    // Chimera ≤ Safer (passive vs proactive fault handling).
    // Evaluate at full extension load, where offloading matters most.
    let (fam, _) = latency(SystemKind::Fam, InputVersion::Ext, 1.0);
    let (melf, _) = latency(SystemKind::Melf, InputVersion::Ext, 1.0);
    let (safer, _) = latency(SystemKind::Safer, InputVersion::Ext, 1.0);
    let (chimera, _) = latency(SystemKind::Chimera, InputVersion::Ext, 1.0);

    assert!(
        melf <= chimera,
        "MELF ({melf}) is the ideal: Chimera ({chimera})"
    );
    assert!(chimera < fam, "Chimera ({chimera}) must beat FAM ({fam})");
    assert!(chimera <= safer, "Chimera ({chimera}) vs Safer ({safer})");
}

#[test]
fn upgrading_gives_chimera_an_edge_over_fam() {
    // Fig. 11d: with base-version input, FAM cannot accelerate anything
    // (its latency curve is flat); Chimera's upgraded binaries exploit the
    // extension cores.
    let (fam, fam_accel) = latency(SystemKind::Fam, InputVersion::Base, 0.8);
    let (chimera, ch_accel) = latency(SystemKind::Chimera, InputVersion::Base, 0.8);
    assert!(chimera < fam, "upgrading must help: {chimera} vs {fam}");
    assert_eq!(fam_accel, 0.0, "FAM never accelerates base binaries");
    assert!(
        ch_accel > 0.3,
        "Chimera accelerates a real share: {ch_accel}"
    );
}

#[test]
fn fig12_accelerated_share_band() {
    // Fig. 12a at 100% extension tasks: 60–70% of tasks stay accelerated
    // for offloading systems; FAM pins everything to extension cores.
    let (_, fam_accel) = latency(SystemKind::Fam, InputVersion::Ext, 1.0);
    let (_, chimera_accel) = latency(SystemKind::Chimera, InputVersion::Ext, 1.0);
    assert!((0.99..=1.0).contains(&fam_accel), "FAM: {fam_accel}");
    assert!(
        (0.4..0.95).contains(&chimera_accel),
        "Chimera offloads 30-40%: accelerated share {chimera_accel}"
    );
}

#[test]
fn fam_u_shape_in_downgrading_latency() {
    // Fig. 11b: FAM's latency decreases then rises as the extension share
    // grows (base cores idle); Chimera keeps falling.
    let (fam_20, _) = latency(SystemKind::Fam, InputVersion::Ext, 0.2);
    let (fam_100, _) = latency(SystemKind::Fam, InputVersion::Ext, 1.0);
    let (chimera_20, _) = latency(SystemKind::Chimera, InputVersion::Ext, 0.2);
    let (chimera_100, _) = latency(SystemKind::Chimera, InputVersion::Ext, 1.0);
    // At 100% ext, FAM wastes the base pool entirely.
    let fam_gap = fam_100 as f64 / chimera_100 as f64;
    let early_gap = fam_20 as f64 / chimera_20 as f64;
    assert!(
        fam_gap > early_gap,
        "FAM's disadvantage must grow with extension share: {early_gap:.2} -> {fam_gap:.2}"
    );
}
