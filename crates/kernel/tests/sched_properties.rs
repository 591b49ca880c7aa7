//! Property tests for the work-stealing schedulers over seeded random
//! task mixes.
//!
//! For each seed the suite generates a random machine shape and task mix
//! (plain base tasks, translated extension tasks, and FAM tasks that base
//! cores cannot finish) and checks the scheduling invariants the paper's
//! §6.1 methodology relies on:
//!
//! * every task completes exactly once: per task id,
//!   `scheduled - migrated == 1` in the trace;
//! * a FAM task migrates at most once — after the first migration it is
//!   pinned to the extension pool and base cores never re-steal it;
//! * the trace reconciles exactly with the [`MetricsRegistry`] counters
//!   and with the returned [`SimResult`];
//! * the whole simulation is deterministic: same seed, same result, same
//!   event stream.

use chimera_isa::prng::Prng;
use chimera_kernel::{
    simulate_work_stealing_traced, EventQueue, FiberPool, HartEvent, HartEventKind, Pool,
    SimMachine, SimResult, TaskCost, TraceEvent, Tracer,
};
use chimera_trace::TraceRecord;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A seeded random machine + task mix. Extension cores are kept >= 1 so
/// that pinned FAM work can always make progress.
fn random_scenario(seed: u64) -> (SimMachine, Vec<TaskCost>) {
    let mut rng = Prng::new(seed);
    let machine = SimMachine {
        base_cores: rng.below(4) as usize + 1,
        ext_cores: rng.below(3) as usize + 1,
        migrate_cost: rng.below(500) + 50,
    };
    let n = rng.below(32) as usize + 8;
    let tasks = (0..n)
        .map(|_| {
            let cycles = rng.below(5_000) + 100;
            match rng.below(3) {
                // A plain base task.
                0 => TaskCost {
                    prefers: Pool::Base,
                    on_ext: cycles,
                    on_base: Some(cycles),
                    fam_probe: 0,
                    ext_accelerated: false,
                },
                // A translated extension task (Chimera: base cores can run
                // the rewritten variant, slower).
                1 => TaskCost {
                    prefers: Pool::Ext,
                    on_ext: cycles,
                    on_base: Some(cycles * 2),
                    fam_probe: 0,
                    ext_accelerated: true,
                },
                // FAM: base cores fault and migrate it.
                _ => TaskCost {
                    prefers: Pool::Ext,
                    on_ext: cycles,
                    on_base: None,
                    fam_probe: rng.below(100) + 10,
                    ext_accelerated: true,
                },
            }
        })
        .collect();
    (machine, tasks)
}

struct Observed {
    result: SimResult,
    records: Vec<TraceRecord>,
    scheduled: BTreeMap<u64, usize>,
    migrated: BTreeMap<u64, usize>,
    steals_ok: usize,
    counters: BTreeMap<String, u64>,
}

fn run_traced(machine: SimMachine, tasks: &[TaskCost]) -> Observed {
    let tracer = Tracer::enabled();
    let result = simulate_work_stealing_traced(machine, tasks, &tracer);
    let records = tracer.drain();
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
    let mut scheduled = BTreeMap::new();
    let mut migrated = BTreeMap::new();
    let mut steals_ok = 0;
    for r in &records {
        match r.event {
            TraceEvent::TaskScheduled { task, .. } => *scheduled.entry(task).or_insert(0) += 1,
            TraceEvent::TaskMigrated { task, .. } => *migrated.entry(task).or_insert(0) += 1,
            TraceEvent::StealAttempt { success, .. } => steals_ok += usize::from(success),
            _ => panic!("unexpected event kind in a scheduler run: {:?}", r.event),
        }
    }
    let counters = tracer
        .metrics()
        .expect("enabled tracer has metrics")
        .counter_snapshot()
        .into_iter()
        .collect();
    Observed {
        result,
        records,
        scheduled,
        migrated,
        steals_ok,
        counters,
    }
}

#[test]
fn every_task_completes_exactly_once_across_seeds() {
    for seed in 0..64u64 {
        let (machine, tasks) = random_scenario(seed);
        let o = run_traced(machine, &tasks);

        for (id, task) in tasks.iter().enumerate() {
            let id = id as u64;
            let s = o.scheduled.get(&id).copied().unwrap_or(0);
            let m = o.migrated.get(&id).copied().unwrap_or(0);
            assert_eq!(
                s - m,
                1,
                "seed {seed}: task {id} must complete exactly once \
                 (scheduled {s}, migrated {m})"
            );
            if task.on_base.is_some() {
                assert_eq!(m, 0, "seed {seed}: only FAM tasks migrate");
            } else {
                assert!(
                    m <= 1,
                    "seed {seed}: FAM task {id} is pinned after its first \
                     migration and must never migrate twice (got {m})"
                );
            }
        }
        // No phantom ids: every traced task is a real input task.
        for &id in o.scheduled.keys().chain(o.migrated.keys()) {
            assert!(
                (id as usize) < tasks.len(),
                "seed {seed}: phantom task {id}"
            );
        }
    }
}

#[test]
fn trace_reconciles_with_counters_and_sim_result() {
    for seed in 0..64u64 {
        let (machine, tasks) = random_scenario(seed);
        let o = run_traced(machine, &tasks);
        let counter = |name: &str| o.counters.get(name).copied().unwrap_or(0);

        let scheduled_total: usize = o.scheduled.values().sum();
        let migrated_total: usize = o.migrated.values().sum();
        assert_eq!(scheduled_total as u64, counter("sched.tasks_scheduled"));
        assert_eq!(migrated_total as u64, counter("sched.migrations"));
        assert_eq!(o.steals_ok as u64, counter("sched.steals"));
        assert_eq!(migrated_total, o.result.migrations);
        assert_eq!(scheduled_total, tasks.len() + o.result.migrations);

        // Sanity on the aggregate result: the makespan cannot beat perfect
        // parallelism over the accumulated busy time.
        let cores = (machine.base_cores + machine.ext_cores) as u64;
        assert!(o.result.latency * cores >= o.result.cpu_time, "seed {seed}");
    }
}

#[test]
fn same_seed_same_schedule_same_trace() {
    for seed in [0u64, 1, 7, 42, 0xdead_beef] {
        let (machine, tasks) = random_scenario(seed);
        let a = run_traced(machine, &tasks);
        let b = run_traced(machine, &tasks);
        assert_eq!(a.result, b.result, "seed {seed}: SimResult must repeat");
        assert_eq!(
            a.records, b.records,
            "seed {seed}: the full event stream must repeat bit-for-bit"
        );
    }
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
