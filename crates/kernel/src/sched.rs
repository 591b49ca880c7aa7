//! Task scheduling across ISAX cores (§6.1's methodology).
//!
//! * [`run_work_stealing`] — the paper's policy, executed: a base-core pool
//!   and an extension-core pool, each task initially queued on its
//!   preferred pool, idle cores taking from their own pool's queue first
//!   and then stealing from the other. Every dispatch loads the task's
//!   [`Process`] view for the core's profile and runs the guest to exit
//!   under [`KernelRunner`]; a core's clock advances by the cycles the run
//!   retired. A task the core cannot finish (FAM, or a downgraded view with
//!   an untranslatable site) is parked *live* and resumed on an extension
//!   core at the faulting pc. Nothing is measured ahead of time and
//!   replayed.
//! * [`FiberPool`] — the logical host workers the many-hart kernel
//!   (`crate::ManyHartKernel`) steps its hart fibers on, one
//!   barrier-synchronous round at a time.

use crate::process::Process;
use crate::runtime::{KernelRunner, RunOutcome};
use chimera_emu::{Cpu, ExecStats, Memory};
use chimera_isa::ExtSet;
use chimera_trace::{TraceEvent, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Instructions one dispatch may retire before the task counts as runaway
/// ([`SchedError::Task`] with [`RunOutcome::OutOfFuel`]). §6.1 tasks retire
/// 10⁴–10⁶.
const TASK_FUEL: u64 = 1 << 32;

/// The class of a core (or the class a task prefers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CoreClass {
    /// Base-ISA cores (RV64GC).
    #[default]
    Base,
    /// Extension (vector-capable) cores (RV64GCV).
    Ext,
}

impl CoreClass {
    /// The ISA profile cores of this class implement.
    pub fn profile(self) -> ExtSet {
        match self {
            CoreClass::Base => ExtSet::RV64GC,
            CoreClass::Ext => ExtSet::RV64GCV,
        }
    }
}

/// Machine shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    /// Number of base cores.
    pub base_cores: usize,
    /// Number of extension cores.
    pub ext_cores: usize,
}

/// One task: a process to run to exit, and the pool it is first queued on.
#[derive(Debug, Clone, Copy)]
pub struct Task<'a> {
    /// The (multi-view) process; every dispatch loads a fresh instance.
    pub process: &'a Process,
    /// The pool the task prefers (extension tasks prefer `Ext`).
    pub prefers: CoreClass,
}

impl<'a> Task<'a> {
    /// The §6.1 task mix: `n_ext` instances of `ext` queued on the
    /// extension pool (ids `0..n_ext`), then `n_base` of `base` on the base
    /// pool.
    pub fn mix(ext: &'a Process, n_ext: usize, base: &'a Process, n_base: usize) -> Vec<Task<'a>> {
        let task = |process, prefers| Task { process, prefers };
        let mut tasks = vec![task(ext, CoreClass::Ext); n_ext];
        tasks.resize(n_ext + n_base, task(base, CoreClass::Base));
        tasks
    }
}

/// How one task ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskReport {
    /// Exit code.
    pub exit_code: i64,
    /// What the guest retired, kernel traps included, over every core it
    /// ran on (the scheduler's migration charge is not in here).
    pub stats: ExecStats,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// The class of the core it finished on.
    pub finished_on: CoreClass,
}

/// The scheduler's result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedResult {
    /// End-to-end latency in cycles (makespan).
    pub latency: u64,
    /// Accumulated busy cycles over all cores.
    pub cpu_time: u64,
    /// Extension tasks that finished on an extension core having retired
    /// vector instructions.
    pub accelerated_ext_tasks: usize,
    /// Extension tasks total.
    pub ext_tasks: usize,
    /// Tasks that finished on base cores.
    pub ran_on_base: usize,
    /// Migrations performed.
    pub migrations: usize,
    /// Cycles migrated tasks retired on base cores up to and including the
    /// fault that stopped them (part of `cpu_time`).
    pub probe_cycles: u64,
    /// [`chimera_emu::CostModel::migrate`] charges (part of `cpu_time`).
    pub migrate_cycles: u64,
    /// Per-task outcomes, indexed like the input slice.
    pub tasks: Vec<TaskReport>,
}

impl SchedResult {
    /// The share of extension tasks that ran vector-accelerated (Fig. 12).
    pub fn accelerated_share(&self) -> f64 {
        self.accelerated_ext_tasks as f64 / self.ext_tasks.max(1) as f64
    }
}

/// Why a schedule could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// No core can ever run this task: it needs an extension core and the
    /// machine has none (or the machine has no cores at all).
    Stranded {
        /// Index of the first stranded task.
        task: usize,
    },
    /// The guest did not exit: a fatal fault, runaway execution, or a
    /// migration request nothing can honour.
    Task {
        /// Index of the task.
        task: usize,
        /// How its run ended.
        outcome: RunOutcome,
    },
}

impl core::fmt::Display for SchedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SchedError::Stranded { task } => write!(f, "task {task}: no core can run it"),
            SchedError::Task { task, outcome } => write!(f, "task {task}: {outcome:?}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Runs `tasks` to completion on `machine` under deterministic work
/// stealing, executing every dispatch.
///
/// Task ids in the emitted events are indices into `tasks`. Per task, one
/// [`TraceEvent::TaskScheduled`] fires for every dispatch (including the
/// base-core attempt a task faults out of), one
/// [`TraceEvent::TaskMigrated`] when an extension core resumes it, and a
/// [`TraceEvent::StealAttempt`] per cross-pool steal probe — so for every
/// task, `scheduled - migrated == 1` exactly. The guests themselves run
/// untraced.
pub fn run_work_stealing(
    machine: Machine,
    tasks: &[Task<'_>],
    tracer: &Tracer,
) -> Result<SchedResult, SchedError> {
    use CoreClass::{Base, Ext};
    // Cores `0..base_cores` are the base pool; each entry is the time the
    // core is next free.
    let class_of = |core: usize| if core < machine.base_cores { Base } else { Ext };
    let mut free_at = vec![0u64; machine.base_cores + machine.ext_cores];

    struct Queued {
        /// Index into the caller's task slice (stable across requeues).
        id: usize,
        /// Earliest time the task may start (a migrated task arrives when
        /// the faulting base core has finished migrating it).
        ready_at: u64,
        /// The live task a base core faulted out of. Such a task is pinned
        /// to the extension pool: base cores never re-steal it.
        parked: Option<Box<(Cpu, Memory, KernelRunner)>>,
    }
    // One queue per pool, indexed by `CoreClass as usize`.
    let mut queues = [VecDeque::new(), VecDeque::new()];
    for (id, t) in tasks.iter().enumerate() {
        queues[t.prefers as usize].push_back(Queued {
            id,
            ready_at: 0,
            parked: None,
        });
    }
    let mut result = SchedResult {
        ext_tasks: queues[Ext as usize].len(),
        tasks: vec![TaskReport::default(); tasks.len()],
        ..SchedResult::default()
    };

    while let Some(first) = queues.iter().find_map(|q| q.front()).map(|q| q.id) {
        // Among cores in earliest-free order, pick the first that can take
        // a task: own pool's queue first, then stealing from the other —
        // except that a base core never takes a parked task.
        let mut order: Vec<usize> = (0..free_at.len()).collect();
        order.sort_by_key(|&i| (free_at[i], i));
        let picked = order.into_iter().find_map(|core| {
            let class = class_of(core);
            let [own, other] = queues
                .get_disjoint_mut([class as usize, 1 - class as usize])
                .expect("two distinct pools");
            if let Some(t) = own.pop_front() {
                return Some((core, t, false));
            }
            let stealable = other
                .iter()
                .position(|t| class == Ext || t.parked.is_none());
            if !other.is_empty() {
                tracer.record(
                    free_at[core],
                    TraceEvent::StealAttempt {
                        worker: core as u64,
                        from_ext: class == Base,
                        success: stealable.is_some(),
                    },
                );
            }
            let t = other.remove(stealable?)?;
            tracer.count("sched.steals", 1);
            Some((core, t, true))
        });
        let Some((core, queued, stolen)) = picked else {
            return Err(SchedError::Stranded { task: first });
        };
        let (id, class) = (queued.id, class_of(core));
        let start = free_at[core].max(queued.ready_at);
        tracer.record(
            start,
            TraceEvent::TaskScheduled {
                task: id as u64,
                on_ext: class == Ext,
                stolen,
            },
        );
        tracer.count("sched.tasks_scheduled", 1);

        let process = tasks[id].process;
        let mut live = match queued.parked {
            Some(mut live) => {
                let (cpu, mem, runner) = &mut *live;
                if !process.migrate(cpu, mem, runner, class.profile(), id as u64, tracer) {
                    let outcome = RunOutcome::NeedsMigration { pc: cpu.hart.pc };
                    return Err(SchedError::Task { task: id, outcome });
                }
                live
            }
            None => {
                let (cpu, mem, view) = process.load_on(class.profile());
                Box::new((cpu, mem, KernelRunner::new(view.tables.clone())))
            }
        };
        let (cpu, mem, runner) = &mut *live;
        let before = cpu.stats.cycles;
        let outcome = runner.run(cpu, mem, TASK_FUEL);
        let mut busy = cpu.stats.cycles - before;
        match outcome {
            RunOutcome::Exited(exit_code) => {
                if class == Base {
                    result.ran_on_base += 1;
                } else if tasks[id].prefers == Ext && cpu.stats.vector_insts > 0 {
                    result.accelerated_ext_tasks += 1;
                }
                result.tasks[id] = TaskReport {
                    exit_code,
                    stats: cpu.stats,
                    stdout: std::mem::take(&mut runner.stdout),
                    finished_on: class,
                };
            }
            // Fault and migrate: the base core pays for the run so far and
            // the migration; the live task waits, pinned, for an extension
            // core.
            RunOutcome::NeedsMigration { .. } if class == Base => {
                result.migrations += 1;
                result.probe_cycles += busy;
                result.migrate_cycles += cpu.cost.migrate;
                busy += cpu.cost.migrate;
                tracer.count("sched.migrations", 1);
                tracer.observe("sched.migrate_cycles", busy);
                queues[Ext as usize].push_back(Queued {
                    id,
                    ready_at: start + busy,
                    parked: Some(live),
                });
            }
            outcome => return Err(SchedError::Task { task: id, outcome }),
        }
        free_at[core] = start + busy;
        result.cpu_time += busy;
    }
    result.latency = free_at.into_iter().max().unwrap_or(0);
    Ok(result)
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
    use crate::process::Variant;
    use chimera_obj::{assemble, AsmOptions, Binary};
    use chimera_rewrite::{chbp_rewrite, RewriteOptions};

    fn guest(src: &str) -> Binary {
        assemble(src, AsmOptions::default()).unwrap()
    }

    /// A scalar counting loop: runs the same on either core class.
    fn scalar_loop() -> Process {
        Process::new(vec![Variant::native(guest(
            "_start:
                li t0, 50
                li a0, 0
            loop:
                addi a0, a0, 1
                addi t0, t0, -1
                bnez t0, loop
                li a7, 93
                ecall",
        ))])
    }

    /// A vector accumulation loop (exits 40). `downgraded` adds the CHBP
    /// view base cores can run; without it the process is FAM's.
    fn vector_loop(downgraded: bool) -> Process {
        let bin = guest(
            ".data
            a: .dword 1
               .dword 2
               .dword 3
               .dword 4
            .text
            _start:
                li t2, 4
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                la a1, a
                vle64.v v1, (a1)
                vmv.v.i v2, 0
            loop:
                vadd.vv v2, v2, v1
                addi t2, t2, -1
                bnez t2, loop
                vmv.v.i v3, 0
                vredsum.vs v3, v2, v3
                vmv.x.s a0, v3
                li a7, 93
                ecall",
        );
        let mut views = vec![Variant::native(bin.clone())];
        if downgraded {
            let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
            views.push(Variant {
                binary: rw.binary,
                tables: crate::RuntimeTables {
                    fht: Some(rw.fht),
                    regen: None,
                },
            });
        }
        Process::new(views)
    }

    fn run(base_cores: usize, ext_cores: usize, p: &Process, n: usize) -> SchedResult {
        let machine = Machine {
            base_cores,
            ext_cores,
        };
        let prefers = if p.views[0].profile() == ExtSet::RV64GCV {
            CoreClass::Ext
        } else {
            CoreClass::Base
        };
        let tasks = vec![
            Task {
                process: p,
                prefers
            };
            n
        ];
        run_work_stealing(machine, &tasks, &Tracer::disabled()).unwrap()
    }

    #[test]
    fn all_cores_utilized_with_stealing() {
        // 8 identical base tasks on 2+2 cores: latency = 2 task times.
        let r = run(2, 2, &scalar_loop(), 8);
        let one = r.tasks[0].stats.cycles;
        assert_eq!(r.tasks[0].exit_code, 50);
        assert_eq!(r.latency, 2 * one);
        assert_eq!(r.cpu_time, 8 * one);
    }

    #[test]
    fn fam_idles_base_cores_on_ext_only_load() {
        // Only extension tasks that base cores cannot run: FAM burns the
        // probe + migration on base cores but all real work is on ext.
        let fam = run(2, 2, &vector_loop(false), 40);
        // Chimera: base cores CAN run them (translated, slower).
        let chimera = run(2, 2, &vector_loop(true), 40);
        assert!(
            chimera.latency < fam.latency,
            "offloading must beat fault-and-migrate: {} vs {}",
            chimera.latency,
            fam.latency
        );
        assert!(chimera.ran_on_base > 0);
        assert_eq!(chimera.migrations, 0);
        assert!(fam.migrations > 0);
        assert_eq!(fam.ran_on_base, 0);
        for r in [&fam, &chimera] {
            assert!(r.tasks.iter().all(|t| t.exit_code == 40));
        }
    }

    #[test]
    fn accelerated_share_counts() {
        let r = run(4, 4, &vector_loop(true), 16);
        assert_eq!(r.ext_tasks, 16);
        assert!(r.accelerated_ext_tasks < 16, "some offloaded to base");
        assert!(r.accelerated_ext_tasks > 0);
        assert_eq!(r.accelerated_ext_tasks + r.ran_on_base, 16);
    }
}
