//! The host-time-free gate on batched JIT publication.
//!
//! A W^X toggle of the JIT arena is two `mprotect` calls of several
//! microseconds each — more than compiling the trace it installs — so
//! cold code is only worth compiling if many traces and exit patches
//! share one toggle. Wall time says so on `pipeline_e2e`'s `launch_cold`,
//! noisily; the count below says so exactly: it depends on the dispatch
//! history alone and repeats on every host that can run the tier.

use chimera::{prepare_process, InputVersion, SystemKind, TaskBinaries};
use chimera_emu::ExecMode;
use chimera_isa::ExtSet;
use chimera_kernel::{KernelRunner, RunOutcome};
use chimera_workloads::speclike::{generate, GenOptions, SPEC_PROFILES};

/// `launch_cold`'s `omnetpp_r` at 1/2 of its size, downgraded by Chimera
/// and run on a base core as the benchmark runs it: indirect-call heavy,
/// one pass over the code, so most blocks that get hot enough to compile
/// run only a few dozen times afterwards. (At 1/16 it compiled only 71
/// traces once a stretch of downgraded vector operations shared one
/// element loop; at 1/4, 75 traces and 14 toggles once a downgraded loop
/// block was one run with its fold inside the element loop.)
#[test]
fn cold_code_shares_wx_toggles() {
    let profile = SPEC_PROFILES
        .iter()
        .find(|p| p.name == "omnetpp_r")
        .expect("omnetpp_r is a SPEC profile");
    let task = TaskBinaries {
        base_version: None,
        ext_version: Some(generate(
            profile,
            GenOptions {
                size_scale: 1.0 / 2.0,
                work_scale: 0.01,
                seed: 42,
            },
        )),
    };
    let process = prepare_process(SystemKind::Chimera, InputVersion::Ext, &task).unwrap();
    let run = |mode| {
        let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).expect("a base-core view");
        cpu.set_mode(mode);
        let outcome = KernelRunner::new(view.tables.clone()).run(&mut cpu, &mut mem, 100_000_000);
        assert!(matches!(outcome, RunOutcome::Exited(_)), "{outcome:?}");
        (outcome, cpu)
    };
    let (exit, engine) = run(ExecMode::Engine);
    let (jit_exit, cpu) = run(ExecMode::Jit);
    assert_eq!(
        (jit_exit, cpu.stats.instret, cpu.stats.cycles),
        (exit, engine.stats.instret, engine.stats.cycles)
    );
    // Repeats exactly: a second Jit run publishes at the same points.
    let again = run(ExecMode::Jit).1;
    assert_eq!(
        (
            again.jit_compiled(),
            again.jit_wx_toggles(),
            again.cache.stats
        ),
        (cpu.jit_compiled(), cpu.jit_wx_toggles(), cpu.cache.stats)
    );
    let (compiled, toggles) = (cpu.jit_compiled(), cpu.jit_wx_toggles());
    if !chimera_emu::jit_available() {
        assert_eq!((compiled, toggles), (0, 0));
        return;
    }
    assert!(cpu.cache.stats.jit_execs > 0, "{:?}", cpu.cache.stats);
    assert!(compiled >= 100, "the run must be compile-heavy: {compiled}");
    assert!(toggles > 0, "compiled traces must get published");
    // Publishing each trace and each patched exit by itself cost ~2.9
    // toggles per trace on this program.
    assert!(
        4 * toggles <= compiled,
        "{toggles} W^X toggles for {compiled} compiled traces: publication is not batched"
    );
}
