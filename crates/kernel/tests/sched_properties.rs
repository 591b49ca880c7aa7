//! Property tests for the work-stealing scheduler over seeded random
//! mixes of real guests, and for the many-hart kernel's event plumbing.
//!
//! For each seed the suite generates a random machine shape and a mix of
//! three tiny guest kinds with random trip counts (a scalar loop; a vector
//! loop with a CHBP-downgraded second view; the same vector loop as a
//! single native view, which base cores cannot finish — FAM) and checks
//! the scheduling invariants the paper's §6.1 methodology relies on:
//!
//! * every task completes exactly once: per task id,
//!   `scheduled - migrated == 1` in the trace;
//! * a FAM task migrates at most once — after the first migration it is
//!   pinned to the extension pool and base cores never re-steal it;
//! * the trace reconciles exactly with the [`MetricsRegistry`] counters
//!   and with the returned [`SchedResult`], whose cycle accounting is
//!   closed;
//! * the whole schedule is deterministic: same seed, same result, same
//!   event stream.
//!
//! Then what only real execution can check: a migrated task resumes (is
//! not restarted) and is indistinguishable from a native run, vector state
//! crosses an MMView switch mid-loop, and work no core can run is a typed
//! error, never a partial result.
//!
//! [`MetricsRegistry`]: chimera_trace::MetricsRegistry

use chimera_emu::CostModel;
use chimera_isa::{prng::Prng, ExtSet};
use chimera_kernel::{
    run_work_stealing, CoreClass, EventQueue, FiberPool, HartEvent, HartEventKind, Machine,
    Process, RunOutcome, RuntimeTables, SchedError, SchedResult, Task, TraceEvent, Tracer, Variant,
};
use chimera_obj::{assemble, AsmOptions, Binary};
use chimera_rewrite::{chbp_rewrite, RewriteOptions};
use chimera_trace::TraceRecord;
use std::collections::BTreeMap;
use std::sync::Mutex;

fn guest(src: &str) -> Binary {
    assemble(src, AsmOptions::default()).unwrap()
}

/// A scalar loop of `trips` iterations; exits `trips & 127`.
fn scalar_guest(trips: u64) -> Process {
    Process::new(vec![Variant::native(guest(&format!(
        "_start:
            li t0, {trips}
            li a0, 0
        loop:
            addi a0, a0, 1
            addi t0, t0, -1
            bnez t0, loop
            andi a0, a0, 127
            li a7, 93
            ecall"
    )))])
}

/// A vector loop: writes 8 bytes to stdout, accumulates `a` into `v2`
/// `trips` times and exits `(10 * trips) & 127`. When the trip counter
/// reaches `vle16_at` it also executes a `vle16.v`, which has no downgrade
/// template.
fn vector_binary(trips: u64, vle16_at: u64) -> Binary {
    guest(&format!(
        ".data
        a: .dword 1
           .dword 2
           .dword 3
           .dword 4
        .text
        _start:
            li a0, 1
            la a1, a
            li a2, 8
            li a7, 64
            ecall
            li t2, {trips}
            li t3, {vle16_at}
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            vle64.v v1, (a1)
            vmv.v.i v2, 0
        loop:
            vadd.vv v2, v2, v1
            bne t2, t3, skip
            vle16.v v4, (a1)
        skip:
            addi t2, t2, -1
            bnez t2, loop
            vmv.v.i v3, 0
            vredsum.vs v3, v2, v3
            vmv.x.s a0, v3
            andi a0, a0, 127
            li a7, 93
            ecall"
    ))
}

/// The native vector view plus its CHBP downgrade for base cores.
fn two_view_guest(bin: Binary) -> Process {
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    let downgraded = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    };
    Process::new(vec![Variant::native(bin), downgraded])
}

/// The native vector view alone: base cores fault on it (FAM).
fn fam_guest(trips: u64) -> Process {
    Process::new(vec![Variant::native(vector_binary(trips, 0))])
}

/// What a task of a scenario is, for the per-kind assertions.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Scalar,
    Downgraded,
    Fam,
}

struct Scenario {
    machine: Machine,
    /// Per task: its kind, its process and the exit code it must produce.
    tasks: Vec<(Kind, Process, i64)>,
}

impl Scenario {
    fn tasks(&self) -> Vec<Task<'_>> {
        self.tasks
            .iter()
            .map(|(kind, process, _)| Task {
                process,
                prefers: match kind {
                    Kind::Scalar => CoreClass::Base,
                    _ => CoreClass::Ext,
                },
            })
            .collect()
    }
}

/// A seeded random machine + task mix. Extension cores are kept >= 1 so
/// that pinned FAM work can always make progress.
fn random_scenario(seed: u64) -> Scenario {
    let mut rng = Prng::new(seed);
    let machine = Machine {
        base_cores: rng.below(4) as usize + 1,
        ext_cores: rng.below(3) as usize + 1,
    };
    let n = rng.below(32) as usize + 8;
    let tasks = (0..n)
        .map(|_| {
            let trips = rng.below(40) + 1;
            let vector_exit = (10 * trips as i64) & 127;
            match rng.below(3) {
                0 => (Kind::Scalar, scalar_guest(trips), trips as i64 & 127),
                1 => (
                    Kind::Downgraded,
                    two_view_guest(vector_binary(trips, 0)),
                    vector_exit,
                ),
                _ => (Kind::Fam, fam_guest(trips), vector_exit),
            }
        })
        .collect();
    Scenario { machine, tasks }
}

struct Observed {
    result: SchedResult,
    records: Vec<TraceRecord>,
    scheduled: BTreeMap<u64, usize>,
    migrated: BTreeMap<u64, usize>,
    steals_ok: usize,
    counters: BTreeMap<String, u64>,
    migrate_cycles_observed: u64,
}

fn run_traced(machine: Machine, tasks: &[Task<'_>]) -> Observed {
    let tracer = Tracer::enabled();
    let result = run_work_stealing(machine, tasks, &tracer).expect("schedule completes");
    let records = tracer.drain();
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
    let mut scheduled = BTreeMap::new();
    let mut migrated = BTreeMap::new();
    let mut steals_ok = 0;
    for r in &records {
        match r.event {
            TraceEvent::TaskScheduled { task, .. } => *scheduled.entry(task).or_insert(0) += 1,
            TraceEvent::TaskMigrated { task, from_base } => {
                assert!(from_base, "the scheduler only migrates up");
                *migrated.entry(task).or_insert(0) += 1
            }
            TraceEvent::StealAttempt { success, .. } => steals_ok += usize::from(success),
            _ => panic!("unexpected event kind in a scheduler run: {:?}", r.event),
        }
    }
    let metrics = tracer.metrics().expect("enabled tracer has metrics");
    Observed {
        result,
        records,
        scheduled,
        migrated,
        steals_ok,
        counters: metrics.counter_snapshot().into_iter().collect(),
        migrate_cycles_observed: metrics.histogram("sched.migrate_cycles").sum(),
    }
}

#[test]
fn every_task_completes_exactly_once_across_seeds() {
    for seed in 0..64u64 {
        let sc = random_scenario(seed);
        let o = run_traced(sc.machine, &sc.tasks());

        for (id, (kind, _, exit_code)) in sc.tasks.iter().enumerate() {
            let report = &o.result.tasks[id];
            assert_eq!(report.exit_code, *exit_code, "seed {seed}: task {id}");
            let id = id as u64;
            let s = o.scheduled.get(&id).copied().unwrap_or(0);
            let m = o.migrated.get(&id).copied().unwrap_or(0);
            assert_eq!(
                s - m,
                1,
                "seed {seed}: task {id} must complete exactly once \
                 (scheduled {s}, migrated {m})"
            );
            if *kind == Kind::Fam {
                assert!(
                    m <= 1,
                    "seed {seed}: FAM task {id} is pinned after its first \
                     migration and must never migrate twice (got {m})"
                );
                assert_eq!(report.finished_on, CoreClass::Ext, "seed {seed}");
            } else {
                assert_eq!(m, 0, "seed {seed}: only FAM tasks migrate");
            }
        }
        // No phantom ids: every traced task is a real input task.
        for &id in o.scheduled.keys().chain(o.migrated.keys()) {
            assert!(
                (id as usize) < sc.tasks.len(),
                "seed {seed}: phantom task {id}"
            );
        }
    }
}

#[test]
fn trace_reconciles_with_counters_and_sched_result() {
    for seed in 0..64u64 {
        let sc = random_scenario(seed);
        let o = run_traced(sc.machine, &sc.tasks());
        let r = &o.result;
        let counter = |name: &str| o.counters.get(name).copied().unwrap_or(0);

        let scheduled_total: usize = o.scheduled.values().sum();
        let migrated_total: usize = o.migrated.values().sum();
        assert_eq!(scheduled_total as u64, counter("sched.tasks_scheduled"));
        assert_eq!(migrated_total as u64, counter("sched.migrations"));
        assert_eq!(o.steals_ok as u64, counter("sched.steals"));
        assert_eq!(migrated_total, r.migrations);
        assert_eq!(scheduled_total, sc.tasks.len() + r.migrations);

        // Closed cycle accounting: cores were busy exactly for what the
        // guests retired plus the migration charges, and the fault-and-
        // migrate split is what the tracer observed per migration.
        let retired: u64 = r.tasks.iter().map(|t| t.stats.cycles).sum();
        assert_eq!(r.cpu_time, retired + r.migrate_cycles, "seed {seed}");
        assert_eq!(
            r.migrate_cycles,
            r.migrations as u64 * CostModel::default().migrate
        );
        assert_eq!(
            r.probe_cycles + r.migrate_cycles,
            o.migrate_cycles_observed,
            "seed {seed}"
        );
        assert_eq!(
            r.ran_on_base,
            r.tasks
                .iter()
                .filter(|t| t.finished_on == CoreClass::Base)
                .count()
        );
        // The makespan cannot beat perfect parallelism over the
        // accumulated busy time.
        let cores = (sc.machine.base_cores + sc.machine.ext_cores) as u64;
        assert!(r.latency * cores >= r.cpu_time, "seed {seed}");
    }
}

#[test]
fn same_seed_same_schedule_same_trace() {
    for seed in [0u64, 1, 7, 42, 0xdead_beef] {
        let sc = random_scenario(seed);
        let a = run_traced(sc.machine, &sc.tasks());
        let b = run_traced(sc.machine, &sc.tasks());
        assert_eq!(a.result, b.result, "seed {seed}: SchedResult must repeat");
        assert_eq!(
            a.records, b.records,
            "seed {seed}: the full event stream must repeat bit-for-bit"
        );
        let untraced = run_work_stealing(sc.machine, &sc.tasks(), &Tracer::disabled());
        assert_eq!(
            untraced,
            Ok(a.result),
            "seed {seed}: tracing is transparent"
        );
    }
}

fn schedule(
    base_cores: usize,
    ext_cores: usize,
    tasks: &[Task<'_>],
) -> Result<SchedResult, SchedError> {
    let machine = Machine {
        base_cores,
        ext_cores,
    };
    run_work_stealing(machine, tasks, &Tracer::disabled())
}

#[test]
fn a_migrated_task_is_indistinguishable_from_a_native_run() {
    let fam = fam_guest(9);
    let task = [Task {
        process: &fam,
        prefers: CoreClass::Ext,
    }];
    // Native: the only core is an extension core.
    let native = schedule(0, 1, &task).unwrap();
    assert_eq!((native.migrations, native.ran_on_base), (0, 0));
    // Migrated: the lone base core (first in dispatch order) steals the
    // task, faults on the first vector instruction and hands it over.
    let moved = schedule(1, 1, &task).unwrap();
    assert_eq!(moved.migrations, 1);
    let (n, m) = (&native.tasks[0], &moved.tasks[0]);
    let (ns, ms) = (n.stats, m.stats);
    assert_eq!(m.finished_on, CoreClass::Ext);
    assert_eq!(m.exit_code, n.exit_code);
    assert_eq!(m.stdout, n.stdout);
    assert_eq!(
        m.stdout.len(),
        8,
        "written before the fault, kept across it"
    );
    assert_eq!(ms.instret, ns.instret, "nothing is re-executed");
    assert_eq!(ms.vector_insts, ns.vector_insts);
    // The faulting instruction costs one kernel entry, then executes once.
    let cost = CostModel::default();
    assert_eq!(ms.cycles, ns.cycles + cost.trap);
    assert_eq!(moved.migrate_cycles, cost.migrate);
    assert_eq!(moved.cpu_time, ns.cycles + cost.trap + cost.migrate);
    assert_eq!(moved.latency, moved.cpu_time, "one task: no overlap");
    assert!(
        moved.probe_cycles > cost.trap && moved.probe_cycles < ms.cycles,
        "the base core retired the prefix and the fault, not the whole task"
    );
    assert_eq!(moved.accelerated_ext_tasks, 1);
}

#[test]
fn vector_state_crosses_a_view_switch_mid_loop() {
    // The `mmview_migration_mid_task` scenario, base → extension, driven
    // by the scheduler: the downgraded view accumulates into the spill
    // section's v2 for 4 of 7 trips, reaches the untranslatable `vle16.v`,
    // and the native view finishes from hart registers.
    let bin = vector_binary(7, 4);
    let process = two_view_guest(bin);
    let fht = process.views[1].tables.fht.as_ref().unwrap();
    assert_eq!(fht.untranslated.len(), 1, "the vle16.v stays unpatched");
    let task = [Task {
        process: &process,
        prefers: CoreClass::Ext,
    }];
    let native = schedule(0, 1, &task).unwrap();
    let moved = schedule(1, 1, &task).unwrap();
    assert_eq!(moved.migrations, 1);
    let (n, m) = (&native.tasks[0], &moved.tasks[0]);
    let (ns, ms) = (n.stats, m.stats);
    assert_eq!(n.exit_code, 70);
    assert_eq!(
        m.exit_code, n.exit_code,
        "vl, vtype, v1 and v2 carried over"
    );
    assert_eq!(m.stdout, n.stdout);
    assert_eq!(m.finished_on, CoreClass::Ext);
    assert!(
        ms.vector_insts > 0 && ms.vector_insts < ns.vector_insts,
        "the first trips ran as scalar templates: {} vs {}",
        ms.vector_insts,
        ns.vector_insts
    );
}

#[test]
fn an_untranslatable_source_mid_block_finishes_on_an_extension_core() {
    // `vsetvli ..., m8` has no template and follows a translatable source
    // in its block: the downgraded view's block exits to the instruction's
    // original address, the base core faults on it there — a
    // migration-safe pc, which one inside the target section would not be
    // — and the native view executes it (`a1 = min(100, VLMAX) = 32`).
    let process = two_view_guest(guest(
        "_start:
            vsetvli t0, a0, e64, m1, ta, ma
            li a0, 100
            vsetvli a1, a0, e64, m8, ta, ma
            mv a0, a1
            li a7, 93
            ecall",
    ));
    let task = [Task {
        process: &process,
        prefers: CoreClass::Ext,
    }];
    let moved = schedule(1, 1, &task).unwrap();
    assert_eq!(moved.migrations, 1);
    assert_eq!(moved.tasks[0].exit_code, 32);
    assert_eq!(moved.tasks[0].finished_on, CoreClass::Ext);
}

#[test]
fn work_no_core_can_run_is_a_typed_error() {
    let fam = fam_guest(3);
    let scalar = scalar_guest(5);
    // FAM-only tasks and no extension core: the base cores fault out of
    // both, and nothing can resume them.
    let stranded = schedule(2, 0, &Task::mix(&fam, 2, &scalar, 2));
    assert!(
        matches!(stranded, Err(SchedError::Stranded { task }) if task < 2),
        "{stranded:?}"
    );
    assert!(matches!(
        schedule(0, 0, &Task::mix(&fam, 0, &scalar, 1)),
        Err(SchedError::Stranded { task: 0 })
    ));
    // A guest that faults on data is reported, with its id and outcome.
    let faulting = Process::new(vec![Variant::native(guest(
        "_start:
            li t0, 64
            ld a0, 0(t0)
            li a7, 93
            ecall",
    ))]);
    let err = schedule(1, 1, &Task::mix(&fam, 1, &faulting, 1)).unwrap_err();
    assert!(
        matches!(&err, SchedError::Task { task: 1, outcome: RunOutcome::Fatal(m) } if m.contains("data fault")),
        "{err}"
    );
}

#[test]
fn single_pool_machines_complete_runnable_work() {
    let (fam, scalar) = (fam_guest(3), scalar_guest(5));
    let downgraded = two_view_guest(vector_binary(3, 0));
    // Extension cores only: everything runs natively, nothing migrates.
    let mut tasks = Task::mix(&fam, 3, &scalar, 3);
    let r = schedule(0, 2, &tasks).unwrap();
    assert_eq!(
        (r.migrations, r.ran_on_base, r.accelerated_ext_tasks),
        (0, 0, 3)
    );
    // Base cores only: scalar and downgraded work completes there.
    tasks = Task::mix(&downgraded, 3, &scalar, 3);
    let r = schedule(2, 0, &tasks).unwrap();
    assert_eq!(
        (r.migrations, r.ran_on_base, r.accelerated_ext_tasks),
        (0, 6, 0)
    );
    assert!(r.tasks[..3].iter().all(|t| t.exit_code == 30));
    assert!(r.tasks[3..].iter().all(|t| t.exit_code == 5));
}

/// A seeded random batch of hart events over a small logical-time window.
fn random_events(seed: u64) -> Vec<HartEvent> {
    let mut rng = Prng::new(seed);
    let n = rng.below(64) as usize + 16;
    (0..n)
        .map(|_| {
            let at = rng.below(10) + 1;
            let hart = rng.below(8);
            let kind = match rng.below(4) {
                0 => HartEventKind::Timer,
                1 => HartEventKind::Ipi { from: rng.below(8) },
                2 => HartEventKind::Wakeup,
                _ => HartEventKind::Migrate,
            };
            HartEvent { at, hart, kind }
        })
        .collect()
}

/// Drains a queue slot by slot, returning the full delivery schedule.
fn delivery_schedule(mut q: EventQueue) -> Vec<(u64, HartEvent)> {
    let mut out = Vec::new();
    let mut now = 0;
    while let Some(at) = q.next_at() {
        now = now.max(at);
        for ev in q.pop_due(now) {
            out.push((now, ev));
        }
    }
    out
}

#[test]
fn event_delivery_order_is_a_pure_function_of_the_events() {
    for seed in 0..64u64 {
        let events = random_events(seed);

        // Baseline: insertion in generation order.
        let mut q = EventQueue::new();
        for &ev in &events {
            q.push(ev);
        }
        let baseline = delivery_schedule(q);
        assert_eq!(baseline.len(), events.len(), "seed {seed}: conservation");

        // Delivery order is (at, hart, kind): logical time first, then
        // hart id, then the fixed kind rank — never insertion order.
        for w in baseline.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            assert!(
                (a.at, a.hart, a.kind) <= (b.at, b.hart, b.kind),
                "seed {seed}: out of order: {a:?} then {b:?}"
            );
        }

        // Any permutation of the insertions delivers identically. Reversed
        // and seeded-shuffled insertion orders stand in for "whatever
        // real-time order M host workers produced the events in".
        let mut reversed = EventQueue::new();
        for &ev in events.iter().rev() {
            reversed.push(ev);
        }
        assert_eq!(delivery_schedule(reversed), baseline, "seed {seed}");

        let mut shuffled_events = events.clone();
        let mut rng = Prng::new(seed ^ 0x0ddc_0ffe);
        for i in (1..shuffled_events.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            shuffled_events.swap(i, j);
        }
        let mut shuffled = EventQueue::new();
        for &ev in &shuffled_events {
            shuffled.push(ev);
        }
        assert_eq!(delivery_schedule(shuffled), baseline, "seed {seed}");
    }
}

#[test]
fn event_schedule_is_stable_across_fiber_pool_worker_counts() {
    // The many-hart loop's merge step: N producer slots each hold an
    // outbox; a FiberPool round runs the producers, then the coordinator
    // merges outboxes in hart-id order. The resulting queue — and hence
    // the delivery schedule — must be identical at every worker count.
    for seed in 0..16u64 {
        let events = random_events(seed);
        let schedule_with = |workers: usize| {
            let slots: Vec<Mutex<Vec<HartEvent>>> =
                (0..8).map(|_| Mutex::new(Vec::new())).collect();
            let runnable: Vec<usize> = (0..8).collect();
            let pool = FiberPool::new(workers);
            assert_eq!(pool.workers(), workers.max(1));
            pool.run_round(&slots, &runnable, |i, outbox| {
                // Slot i "produces" the events whose *sender* hashes to
                // it — any disjoint partition works; what matters is that
                // production order across slots is a race.
                for (k, &ev) in events.iter().enumerate() {
                    if k % 8 == i {
                        outbox.push(ev);
                    }
                }
            });
            let mut q = EventQueue::new();
            for slot in &slots {
                for &ev in slot.lock().unwrap().iter() {
                    q.push(ev);
                }
            }
            delivery_schedule(q)
        };
        let baseline = schedule_with(1);
        assert_eq!(baseline.len(), events.len(), "seed {seed}: conservation");
        for workers in [2, 4, 8] {
            assert_eq!(
                schedule_with(workers),
                baseline,
                "seed {seed}, workers {workers}"
            );
        }
    }
}
