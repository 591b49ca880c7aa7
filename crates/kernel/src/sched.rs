//! Task scheduling across ISAX cores (§6.1's methodology).
//!
//! * [`simulate_work_stealing`] — a deterministic discrete-event simulator
//!   of the paper's policy: a base-core pool and an extension-core pool,
//!   each task initially queued on its preferred pool, idle workers
//!   stealing first from their own pool and then from the other. Per-task
//!   per-core cycle costs come from real emulated runs (measured once per
//!   distinct task/core/system combination by the bench harness), so the
//!   simulation reproduces queueing dynamics without re-emulating thousands
//!   of identical tasks.
//! * [`FiberPool`] — the logical host workers the many-hart kernel
//!   (`crate::ManyHartKernel`) steps its hart fibers on, one
//!   barrier-synchronous round at a time.

use chimera_trace::{TraceEvent, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which pool a core (or task) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Base-ISA cores.
    Base,
    /// Extension (vector-capable) cores.
    Ext,
}

/// The cost profile of one task under one system.
#[derive(Debug, Clone, Copy)]
pub struct TaskCost {
    /// The pool the task prefers (extension tasks prefer `Ext`).
    pub prefers: Pool,
    /// Cycles to complete on an extension core.
    pub on_ext: u64,
    /// Cycles to complete on a base core; `None` means the base core
    /// cannot finish it (FAM): it burns [`TaskCost::fam_probe`] cycles,
    /// pays migration, and requeues on the extension pool.
    pub on_base: Option<u64>,
    /// Cycles burnt on a base core before the illegal-instruction fault
    /// (FAM only).
    pub fam_probe: u64,
    /// Whether running on an extension core uses vector acceleration
    /// (false for base-version binaries under FAM, which are never
    /// upgraded).
    pub ext_accelerated: bool,
}

/// Machine shape for the simulator.
#[derive(Debug, Clone, Copy)]
pub struct SimMachine {
    /// Number of base cores.
    pub base_cores: usize,
    /// Number of extension cores.
    pub ext_cores: usize,
    /// Cycles charged for a cross-pool migration (FAM).
    pub migrate_cost: u64,
}

/// The simulator's result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimResult {
    /// End-to-end latency in cycles (makespan).
    pub latency: u64,
    /// Accumulated busy cycles over all cores.
    pub cpu_time: u64,
    /// Extension tasks that ran with vector acceleration.
    pub accelerated_ext_tasks: usize,
    /// Extension tasks total.
    pub ext_tasks: usize,
    /// Tasks that ran on base cores.
    pub ran_on_base: usize,
    /// FAM migrations performed.
    pub migrations: usize,
}

/// Runs the deterministic work-stealing simulation to completion.
pub fn simulate_work_stealing(machine: SimMachine, tasks: &[TaskCost]) -> SimResult {
    simulate_work_stealing_traced(machine, tasks, &Tracer::disabled())
}

/// [`simulate_work_stealing`] with a trace handle.
///
/// Task ids in the emitted events are indices into `tasks`. Per task, one
/// [`TraceEvent::TaskScheduled`] fires for every dispatch (including the
/// base-core attempt a FAM task faults out of), one
/// [`TraceEvent::TaskMigrated`] per FAM requeue, and a
/// [`TraceEvent::StealAttempt`] per cross-pool steal probe — so for every
/// task, `scheduled - migrated == 1` exactly.
pub fn simulate_work_stealing_traced(
    machine: SimMachine,
    tasks: &[TaskCost],
    tracer: &Tracer,
) -> SimResult {
    #[derive(Debug)]
    struct Core {
        pool: Pool,
        free_at: u64,
        busy: u64,
    }
    let mut cores: Vec<Core> = Vec::new();
    for _ in 0..machine.base_cores {
        cores.push(Core {
            pool: Pool::Base,
            free_at: 0,
            busy: 0,
        });
    }
    for _ in 0..machine.ext_cores {
        cores.push(Core {
            pool: Pool::Ext,
            free_at: 0,
            busy: 0,
        });
    }

    /// A queued task; `pinned` marks FAM tasks already migrated once, so
    /// base cores stop re-stealing (and re-faulting on) them.
    #[derive(Clone, Copy)]
    struct QTask {
        /// Index into the caller's task slice (stable across requeues).
        id: usize,
        cost: TaskCost,
        pinned: bool,
        /// Earliest time the task may start (FAM requeues arrive when the
        /// faulting base core finishes migrating them).
        ready_at: u64,
    }
    let mut base_q: VecDeque<QTask> = VecDeque::new();
    let mut ext_q: VecDeque<QTask> = VecDeque::new();
    let mut result = SimResult::default();
    for (id, t) in tasks.iter().enumerate() {
        let q = QTask {
            id,
            cost: *t,
            pinned: false,
            ready_at: 0,
        };
        if t.prefers == Pool::Ext {
            result.ext_tasks += 1;
            ext_q.push_back(q);
        } else {
            base_q.push_back(q);
        }
    }

    loop {
        if base_q.is_empty() && ext_q.is_empty() {
            break;
        }
        // Among cores in earliest-free order, pick the first that can take
        // a task: own pool's queue first, then stealing from the other —
        // except that a base core never steals a pinned (already-migrated
        // FAM) task.
        let mut order: Vec<usize> = (0..cores.len()).collect();
        order.sort_by_key(|&i| (cores[i].free_at, i));
        let mut picked: Option<(usize, QTask, bool)> = None;
        for idx in order {
            let pool = cores[idx].pool;
            let free_at = cores[idx].free_at;
            let (own, other) = match pool {
                Pool::Base => (&mut base_q, &mut ext_q),
                Pool::Ext => (&mut ext_q, &mut base_q),
            };
            if let Some(t) = own.pop_front() {
                picked = Some((idx, t, false));
                break;
            }
            let stealable = other.iter().position(|t| pool == Pool::Ext || !t.pinned);
            if tracer.is_enabled() && !other.is_empty() {
                tracer.record(
                    free_at,
                    TraceEvent::StealAttempt {
                        worker: idx as u64,
                        from_ext: pool == Pool::Base,
                        success: stealable.is_some(),
                    },
                );
                if stealable.is_some() {
                    tracer.count("sched.steals", 1);
                }
            }
            if let Some(i) = stealable {
                picked = Some((idx, other.remove(i).expect("indexed"), true));
                break;
            }
        }
        let Some((idx, task, stolen)) = picked else {
            // Only pinned extension work remains and there are no
            // extension cores: nothing can make progress.
            break;
        };
        let core = &mut cores[idx];
        let start = core.free_at.max(task.ready_at);
        tracer.record(
            start,
            TraceEvent::TaskScheduled {
                task: task.id as u64,
                on_ext: core.pool == Pool::Ext,
                stolen,
            },
        );
        tracer.count("sched.tasks_scheduled", 1);
        match (core.pool, task.cost.on_base) {
            (Pool::Ext, _) => {
                core.free_at = start + task.cost.on_ext;
                core.busy += task.cost.on_ext;
                if task.cost.prefers == Pool::Ext && task.cost.ext_accelerated {
                    result.accelerated_ext_tasks += 1;
                }
            }
            (Pool::Base, Some(cycles)) => {
                core.free_at = start + cycles;
                core.busy += cycles;
                result.ran_on_base += 1;
            }
            (Pool::Base, None) => {
                // FAM: fault, migrate, requeue pinned on the ext pool.
                let burn = task.cost.fam_probe + machine.migrate_cost;
                core.free_at = start + burn;
                core.busy += burn;
                result.migrations += 1;
                if tracer.is_enabled() {
                    tracer.record(
                        start + burn,
                        TraceEvent::TaskMigrated {
                            task: task.id as u64,
                            from_base: true,
                        },
                    );
                    tracer.count("sched.migrations", 1);
                    tracer.observe("sched.migrate_cycles", burn);
                }
                ext_q.push_back(QTask {
                    id: task.id,
                    cost: task.cost,
                    pinned: true,
                    ready_at: start + burn,
                });
            }
        }
    }
    result.latency = cores.iter().map(|c| c.free_at).max().unwrap_or(0);
    result.cpu_time = cores.iter().map(|c| c.busy).sum();
    result
}

/// A pool of `workers` *logical* host workers multiplexing hart fibers:
/// each barrier-synchronous round, the runnable slot indices are claimed
/// off a shared cursor and stepped concurrently, one slot per claim.
///
/// Logical workers may exceed hardware threads (the determinism gates run
/// 8 logical workers on 1-hw-thread CI hosts). Results never depend on
/// the worker count because a step touches only its own slot's state —
/// cross-hart effects are buffered in per-slot outboxes the coordinator
/// merges in hart-id order after the barrier (`crate::ManyHartKernel`).
#[derive(Debug, Clone, Copy)]
pub struct FiberPool {
    workers: usize,
}

impl FiberPool {
    /// A pool with the given logical worker count (min 1).
    pub fn new(workers: usize) -> FiberPool {
        FiberPool {
            workers: workers.max(1),
        }
    }

    /// The logical worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Steps every slot listed in `runnable` exactly once, spreading the
    /// calls over the pool's workers; returns after all complete (the
    /// round barrier). With one worker everything runs on the calling
    /// thread — the baseline the multi-worker runs must bit-match.
    pub fn run_round<S, F>(&self, slots: &[Mutex<S>], runnable: &[usize], step: F)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        let workers = self.workers.min(runnable.len());
        if workers <= 1 {
            for &i in runnable {
                step(i, &mut slots[i].lock().expect("slot poisoned"));
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = runnable.get(k) else {
                        break;
                    };
                    step(i, &mut slots[i].lock().expect("slot poisoned"));
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_task(cycles: u64) -> TaskCost {
        TaskCost {
            prefers: Pool::Base,
            on_ext: cycles,
            on_base: Some(cycles),
            fam_probe: 0,
            ext_accelerated: false,
        }
    }

    fn ext_task(on_ext: u64, on_base: Option<u64>) -> TaskCost {
        TaskCost {
            prefers: Pool::Ext,
            on_ext,
            on_base,
            fam_probe: 10,
            ext_accelerated: true,
        }
    }

    #[test]
    fn all_cores_utilized_with_stealing() {
        // 8 identical base tasks on 2+2 cores: latency = 2 task times.
        let m = SimMachine {
            base_cores: 2,
            ext_cores: 2,
            migrate_cost: 100,
        };
        let tasks = vec![base_task(1000); 8];
        let r = simulate_work_stealing(m, &tasks);
        assert_eq!(r.latency, 2000);
        assert_eq!(r.cpu_time, 8000);
    }

    #[test]
    fn fam_idles_base_cores_on_ext_only_load() {
        // Only extension tasks that base cores cannot run: FAM burns the
        // probe + migration on base cores but all real work is on ext.
        let m = SimMachine {
            base_cores: 2,
            ext_cores: 2,
            migrate_cost: 100,
        };
        let tasks = vec![ext_task(1000, None); 40];
        let fam = simulate_work_stealing(m, &tasks);
        // Chimera-like: base cores CAN run them (translated, 2x slower).
        let tasks = vec![ext_task(1000, Some(2000)); 40];
        let chimera = simulate_work_stealing(m, &tasks);
        assert!(
            chimera.latency < fam.latency,
            "offloading must beat fault-and-migrate: {} vs {}",
            chimera.latency,
            fam.latency
        );
        assert!(chimera.ran_on_base > 0);
        assert!(fam.migrations > 0);
    }

    #[test]
    fn accelerated_share_counts() {
        let m = SimMachine {
            base_cores: 4,
            ext_cores: 4,
            migrate_cost: 100,
        };
        let tasks = vec![ext_task(1000, Some(2000)); 16];
        let r = simulate_work_stealing(m, &tasks);
        assert_eq!(r.ext_tasks, 16);
        assert!(r.accelerated_ext_tasks < 16, "some offloaded to base");
        assert!(r.accelerated_ext_tasks > 0);
        assert_eq!(r.accelerated_ext_tasks + r.ran_on_base, 16);
    }
}
