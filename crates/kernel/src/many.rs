//! The many-hart event kernel: N guest harts as cooperative fibers
//! multiplexed over M logical host workers, N ≫ M, under a deterministic
//! logical-time scheduler.
//!
//! ## Determinism model
//!
//! Execution proceeds in **barrier-synchronous slots**. In slot `t`:
//!
//! 1. The coordinator (single-threaded) delivers every event due at `t`
//!    from the [`EventQueue`], in the queue's `(at, hart, kind)` order.
//! 2. The runnable harts — a pure function of per-hart state — each
//!    execute up to `quantum` instructions on the [`FiberPool`]. A hart's
//!    step touches only its own slot: its fiber (CPU + private memory),
//!    its kernel runner, and its **outbox** of produced events. Nothing a
//!    step does can observe another hart's progress within the slot.
//! 3. The coordinator merges the outboxes into the queue in hart-id
//!    order. Cross-hart effects (IPIs, migration commits) are stamped
//!    `t + 1` or later, so they become visible only at the next barrier.
//!
//! Which host worker ran a hart, and in what real-time order, therefore
//! cannot influence anything: the run — final architectural state, stats,
//! stdout, fault counters, trace streams — is **bit-identical across
//! every worker count, including 1**. `tests/many_hart.rs` asserts this
//! for 16- and 64-hart heterogeneous scenarios at 1/2/4/8 workers.
//!
//! Blocking (`sys::WFI`) uses a pending-wake latch: an event delivered to
//! a *running* hart latches, and the hart's next WFI consumes the latch
//! and returns immediately — so the symmetric send-then-wait idiom
//! (`ipi(peer); wfi()`) can never deadlock on delivery order. When every
//! live hart is blocked, logical time fast-forwards to the next pending
//! event; if none is pending the blocked harts are failed (guest
//! deadlock) rather than spinning forever.

use crate::event::{EventQueue, HartEvent, HartEventKind};
use crate::pool::ProcessPool;
use crate::runtime::{FaultCounters, HartCall, KernelRunner, RuntimeTables, TrapDisposition};
use crate::sched::FiberPool;
use chimera_emu::{ExecMode, ExecStats, FiberYield, HartFiber};
use chimera_isa::{ExtSet, XReg};
use chimera_obj::Binary;
use chimera_trace::{TraceEvent, Tracer};
use std::sync::Mutex;

/// Configuration of a [`ManyHartKernel`].
#[derive(Debug, Clone, Copy)]
pub struct ManyHartConfig {
    /// Logical host workers multiplexing the harts (may exceed hardware
    /// threads; never affects results).
    pub workers: usize,
    /// Fuel quantum: instructions one hart may retire per slot.
    pub quantum: u64,
    /// Simulated cycles charged when a migration commits.
    pub migrate_cost: u64,
    /// Hard bound on scheduler slots (runaway/livelock backstop): when
    /// exceeded, still-live harts are failed and the run reports.
    pub max_slots: u64,
    /// Execution front end for every hart.
    pub mode: ExecMode,
    /// Guest stack committed per hart. The default is an eager load's,
    /// [`chimera_obj::DEFAULT_STACK_SIZE`] (256 KiB); the 8 MiB maximum
    /// ([`chimera_obj::STACK_SIZE`]) is the wrong trade at N ≫ M scale:
    /// 256 harts would eagerly zero 2 GiB of stack pages per run. The
    /// stack always ends at the same top address; only guests recursing
    /// past the chosen size notice.
    pub stack_bytes: u64,
}

impl Default for ManyHartConfig {
    fn default() -> Self {
        ManyHartConfig {
            workers: 1,
            quantum: 4096,
            migrate_cost: 600,
            max_slots: 1 << 22,
            mode: ExecMode::Engine,
            stack_bytes: chimera_obj::DEFAULT_STACK_SIZE,
        }
    }
}

/// Why a hart is (not) schedulable.
#[derive(Debug, Clone, PartialEq, Eq)]
enum HartStatus {
    /// Eligible to run next slot.
    Runnable,
    /// Blocked in `wfi` until an event arrives.
    Waiting,
    /// Blocked awaiting its migration-commit event.
    Migrating,
    /// Exited with a code.
    Done(i64),
    /// Failed fatally.
    Failed(String),
}

/// One hart's scheduling slot: the fiber plus everything the kernel
/// tracks about it. Steps mutate only this (under its own mutex), which
/// is the whole determinism argument — see the module docs.
struct HartSlot {
    fiber: HartFiber,
    kernel: KernelRunner,
    status: HartStatus,
    /// Latched wakeup: an event delivered while not `Waiting`.
    pending_wake: bool,
    /// The profile a migration commit switches the CPU to.
    ext_profile: ExtSet,
    /// Events produced this slot, merged after the barrier.
    outbox: Vec<HartEvent>,
    /// Committed migrations.
    migrations: u64,
    /// The hart's trace handle (the same hart id as its CPU's and kernel
    /// runner's, so all three extend one stream).
    tracer: Tracer,
    /// The [`crate::ProcessPool`] key this hart's memory slot came from
    /// (`None` for eagerly booted harts), so [`ManyHartKernel::recycle_into`]
    /// knows where to return it.
    pool_key: Option<u64>,
}

/// Final report for one hart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HartReport {
    /// Hart id.
    pub hart: u64,
    /// Exit code, if the guest exited.
    pub exit: Option<i64>,
    /// Fatal-failure description, if any.
    pub failure: Option<String>,
    /// Digest of final architectural state + stats + stdout + counters.
    pub checksum: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Migrations committed (base → extension profile).
    pub migrations: u64,
    /// The hart's fault counters (SMILE recoveries, lazy rewrites…).
    pub counters: FaultCounters,
}

/// The outcome of a many-hart run. `PartialEq`-comparable across runs:
/// two runs of the same scenario must produce equal results whatever the
/// worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManyHartResult {
    /// Per-hart reports, in hart-id order.
    pub harts: Vec<HartReport>,
    /// Scheduler slots executed (logical time at completion).
    pub slots: u64,
    /// Total instructions retired across all harts.
    pub retired: u64,
    /// Total simulated cycles across all harts.
    pub cycles: u64,
    /// Total committed migrations.
    pub migrations: u64,
    /// Events delivered, by kind: (timers, ipis, wakeups).
    pub delivered: (u64, u64, u64),
    /// Fold of the per-hart checksums (the gate's bit-identity scalar).
    pub checksum: u64,
}

impl ManyHartResult {
    /// Harts that exited successfully (code 0 a convention, not checked).
    pub fn exited(&self) -> usize {
        self.harts.iter().filter(|h| h.exit.is_some()).count()
    }

    /// First failure, if any hart failed.
    pub fn first_failure(&self) -> Option<(u64, &str)> {
        self.harts
            .iter()
            .find_map(|h| h.failure.as_deref().map(|f| (h.hart, f)))
    }
}

/// The many-hart kernel. Build with [`ManyHartKernel::new`], add harts,
/// then [`ManyHartKernel::run`].
pub struct ManyHartKernel {
    cfg: ManyHartConfig,
    pool: FiberPool,
    slots: Vec<Mutex<HartSlot>>,
    queue: EventQueue,
    now: u64,
    tracer: Tracer,
}

impl ManyHartKernel {
    /// A kernel with no harts yet.
    pub fn new(cfg: ManyHartConfig) -> ManyHartKernel {
        ManyHartKernel::with_tracer(cfg, Tracer::disabled())
    }

    /// A kernel whose harts trace into `tracer`. Each hart records
    /// through a [`Tracer::for_hart`] handle for its id, and the tracer
    /// numbers a hart's records as they are made, so a hart's stream is
    /// the same whichever workers ran its slices.
    pub fn with_tracer(cfg: ManyHartConfig, tracer: Tracer) -> ManyHartKernel {
        ManyHartKernel {
            pool: FiberPool::new(cfg.workers),
            cfg,
            slots: Vec::new(),
            queue: EventQueue::new(),
            now: 0,
            tracer,
        }
    }

    /// Adds a hart booted from `binary` on `profile`; a FAM migration
    /// switches it to `ext_profile`. Returns the hart id.
    pub fn add_hart(
        &mut self,
        binary: &Binary,
        profile: ExtSet,
        ext_profile: ExtSet,
        tables: RuntimeTables,
    ) -> u64 {
        let id = self.slots.len() as u64;
        let hart_tracer = self.tracer.for_hart(id);
        let mut fiber = HartFiber::boot_with_stack(id, binary, profile, self.cfg.stack_bytes);
        fiber.cpu.set_mode(self.cfg.mode);
        fiber.cpu.tracer = hart_tracer.clone();
        let kernel = KernelRunner::with_tracer(tables, hart_tracer.clone());
        self.slots.push(Mutex::new(HartSlot {
            fiber,
            kernel,
            status: HartStatus::Runnable,
            pending_wake: false,
            ext_profile,
            outbox: Vec::new(),
            migrations: 0,
            tracer: hart_tracer,
            pool_key: None,
        }));
        id
    }

    /// Adds a hart spawned from a [`ProcessPool`] slot (the churn fast
    /// path): the memory is a pooled copy-on-write instantiation of the
    /// variant registered under `key`, and [`ManyHartKernel::recycle_into`]
    /// can return it after the run. Returns the hart id, or `None` when
    /// `key` is not registered.
    pub fn add_pooled_hart(
        &mut self,
        pool: &mut ProcessPool,
        key: u64,
        profile: ExtSet,
        ext_profile: ExtSet,
    ) -> Option<u64> {
        let (cpu, mem) = pool.spawn(key, profile)?;
        let tables = pool.variant(key).expect("spawned key").tables.clone();
        let id = self.slots.len() as u64;
        let hart_tracer = self.tracer.for_hart(id);
        let mut fiber = HartFiber::new(id, cpu, mem);
        fiber.cpu.set_mode(self.cfg.mode);
        fiber.cpu.tracer = hart_tracer.clone();
        let kernel = KernelRunner::with_tracer(tables, hart_tracer.clone());
        self.slots.push(Mutex::new(HartSlot {
            fiber,
            kernel,
            status: HartStatus::Runnable,
            pending_wake: false,
            ext_profile,
            outbox: Vec::new(),
            migrations: 0,
            tracer: hart_tracer,
            pool_key: Some(key),
        }));
        Some(id)
    }

    /// Drains every hart slot and returns pooled memories to `pool`
    /// (restoring only the spans each run dirtied). Consumes the kernel's
    /// harts — call after [`ManyHartKernel::run`] and before reusing the
    /// kernel for another round. Returns the number of slots recycled.
    pub fn recycle_into(&mut self, pool: &mut ProcessPool) -> usize {
        let mut recycled = 0;
        for slot in self.slots.drain(..) {
            let s = slot.into_inner().expect("slot poisoned");
            if let Some(key) = s.pool_key {
                if pool.recycle(key, s.fiber.hart_id, s.fiber.mem).is_some() {
                    recycled += 1;
                }
            }
        }
        recycled
    }

    /// Harts added so far.
    pub fn harts(&self) -> usize {
        self.slots.len()
    }

    /// Runs every hart to completion (exit or failure) and reports.
    pub fn run(&mut self) -> ManyHartResult {
        let mut slots_run = 0u64;
        let mut delivered = (0u64, 0u64, 0u64);
        loop {
            let (live, runnable_now) = self.census();
            if live == 0 {
                break;
            }
            if slots_run >= self.cfg.max_slots {
                self.fail_live("slot budget exhausted (livelock?)");
                break;
            }
            slots_run += 1;
            // Advance logical time; when every live hart is blocked, jump
            // straight to the next pending event (or fail on guest
            // deadlock). All of this reads only per-hart state and the
            // queue — both worker-count-invariant.
            self.now += 1;
            if runnable_now == 0 {
                match self.queue.next_at() {
                    Some(at) => self.now = self.now.max(at),
                    None => {
                        self.fail_live("blocked in wfi with no pending events (guest deadlock)");
                        break;
                    }
                }
            }
            for ev in self.queue.pop_due(self.now) {
                self.deliver(ev, &mut delivered);
            }
            let runnable: Vec<usize> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.lock().expect("slot poisoned").status == HartStatus::Runnable)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                continue;
            }
            let (now, quantum) = (self.now, self.cfg.quantum);
            self.pool.run_round(&self.slots, &runnable, |id, slot| {
                step_slot(slot, id as u64, now, quantum);
            });
            // Merge outboxes in hart-id order (the queue re-sorts anyway;
            // the fixed order keeps multiset insertion history identical
            // too, so even counted duplicates can't diverge).
            for slot in &self.slots {
                let mut s = slot.lock().expect("slot poisoned");
                for ev in s.outbox.drain(..) {
                    self.queue.push(ev);
                }
            }
        }
        self.report(slots_run, delivered)
    }

    /// (live harts, currently runnable harts).
    fn census(&self) -> (usize, usize) {
        let mut live = 0;
        let mut runnable = 0;
        for slot in &self.slots {
            match slot.lock().expect("slot poisoned").status {
                HartStatus::Runnable => {
                    live += 1;
                    runnable += 1;
                }
                HartStatus::Waiting | HartStatus::Migrating => live += 1,
                HartStatus::Done(_) | HartStatus::Failed(_) => {}
            }
        }
        (live, runnable)
    }

    fn fail_live(&mut self, msg: &str) {
        for slot in &self.slots {
            let mut s = slot.lock().expect("slot poisoned");
            if matches!(
                s.status,
                HartStatus::Runnable | HartStatus::Waiting | HartStatus::Migrating
            ) {
                s.status = HartStatus::Failed(msg.to_string());
            }
        }
    }

    fn deliver(&mut self, ev: HartEvent, delivered: &mut (u64, u64, u64)) {
        let Some(slot) = self.slots.get(ev.hart as usize) else {
            // IPI to a hart that doesn't exist: dropped, counted.
            self.tracer.count("many.events_dropped", 1);
            return;
        };
        let mut s = slot.lock().expect("slot poisoned");
        match ev.kind {
            HartEventKind::Migrate => {
                if s.status == HartStatus::Migrating {
                    s.fiber.cpu.profile = s.ext_profile;
                    s.fiber.cpu.stats.cycles += self.cfg.migrate_cost;
                    // Reset the tiering state: cached blocks are keyed by
                    // (pc, profile) so they cannot alias, but the JIT's
                    // hotness/trace state is rebuilt from scratch — the
                    // same deterministic reset every worker count sees.
                    let mode = s.fiber.cpu.mode();
                    s.fiber.cpu.set_mode(mode);
                    s.migrations += 1;
                    s.status = HartStatus::Runnable;
                    let cycles = s.fiber.cpu.stats.cycles;
                    s.tracer.record(
                        cycles,
                        TraceEvent::TaskMigrated {
                            task: ev.hart,
                            from_base: true,
                        },
                    );
                    s.tracer.count("many.migrations", 1);
                }
            }
            HartEventKind::Timer | HartEventKind::Ipi { .. } | HartEventKind::Wakeup => {
                match ev.kind {
                    HartEventKind::Timer => delivered.0 += 1,
                    HartEventKind::Ipi { .. } => delivered.1 += 1,
                    _ => delivered.2 += 1,
                }
                s.tracer
                    .count(&format!("many.delivered_{}", ev.kind.name()), 1);
                match s.status {
                    HartStatus::Waiting => s.status = HartStatus::Runnable,
                    // Delivered to a running (or migrating) hart: latch,
                    // so its next wfi returns immediately.
                    HartStatus::Runnable | HartStatus::Migrating => s.pending_wake = true,
                    // Late event to a finished hart: dropped.
                    HartStatus::Done(_) | HartStatus::Failed(_) => {}
                }
            }
        }
    }

    fn report(&self, slots_run: u64, delivered: (u64, u64, u64)) -> ManyHartResult {
        let mut harts = Vec::with_capacity(self.slots.len());
        let mut total = ManyHartResult {
            harts: Vec::new(),
            slots: slots_run,
            retired: 0,
            cycles: 0,
            migrations: 0,
            delivered,
            checksum: 0xcbf2_9ce4_8422_2325,
        };
        for (id, slot) in self.slots.iter().enumerate() {
            let s = slot.lock().expect("slot poisoned");
            let (exit, failure) = match &s.status {
                HartStatus::Done(code) => (Some(*code), None),
                HartStatus::Failed(msg) => (None, Some(msg.clone())),
                // Unreachable after `run`, but report honestly anyway.
                other => (None, Some(format!("still live: {other:?}"))),
            };
            let checksum = hart_checksum(&s, exit, failure.as_deref());
            let r = HartReport {
                hart: id as u64,
                exit,
                failure,
                checksum,
                retired: s.fiber.cpu.stats.instret,
                cycles: s.fiber.cpu.stats.cycles,
                migrations: s.migrations,
                counters: s.kernel.counters,
            };
            total.retired += r.retired;
            total.cycles += r.cycles;
            total.migrations += r.migrations;
            total.checksum = fnv(total.checksum, r.checksum);
            harts.push(r);
        }
        total.harts = harts;
        total
    }
}

/// Runs one hart for one slot: up to `quantum` retired instructions,
/// servicing traps through the hart's own kernel runner. Touches only
/// `slot` — the precondition for running slots concurrently.
fn step_slot(slot: &mut HartSlot, hart: u64, now: u64, quantum: u64) {
    let mut budget = quantum;
    loop {
        if budget == 0 {
            return;
        }
        let before = slot.fiber.cpu.stats.instret;
        let yielded = slot.fiber.resume(budget);
        budget -= (slot.fiber.cpu.stats.instret - before).min(budget);
        let trap = match yielded {
            FiberYield::FuelExhausted => return,
            FiberYield::Trap(t) => t,
        };
        match slot
            .kernel
            .service_trap(trap, &mut slot.fiber.cpu, &mut slot.fiber.mem)
        {
            TrapDisposition::Resume => {}
            TrapDisposition::Exited(code) => {
                slot.status = HartStatus::Done(code);
                return;
            }
            TrapDisposition::Migrate { .. } => {
                slot.status = HartStatus::Migrating;
                slot.outbox.push(HartEvent {
                    at: now + 1,
                    hart,
                    kind: HartEventKind::Migrate,
                });
                return;
            }
            TrapDisposition::HartCall { call, pc } => {
                let cpu = &mut slot.fiber.cpu;
                cpu.stats.cycles += cpu.cost.trap / 8; // Light syscall.
                cpu.hart.pc = pc + 4;
                match call {
                    HartCall::Id => cpu.hart.set_x(XReg::A0, hart),
                    HartCall::Wfi => {
                        if slot.pending_wake {
                            slot.pending_wake = false; // Latched: no block.
                        } else {
                            slot.status = HartStatus::Waiting;
                            return;
                        }
                    }
                    HartCall::Ipi { target } => {
                        cpu.hart.set_x(XReg::A0, 0);
                        slot.outbox.push(HartEvent {
                            at: now + 1,
                            hart: target,
                            kind: HartEventKind::Ipi { from: hart },
                        });
                    }
                    HartCall::SetTimer { delta } => {
                        cpu.hart.set_x(XReg::A0, 0);
                        slot.outbox.push(HartEvent {
                            at: now + delta.max(1),
                            hart,
                            kind: HartEventKind::Timer,
                        });
                    }
                }
            }
            TrapDisposition::Fatal(msg) => {
                slot.status = HartStatus::Failed(msg);
                return;
            }
        }
    }
}

#[inline]
fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

fn fnv_stats(mut h: u64, s: &ExecStats) -> u64 {
    for v in [
        s.instret,
        s.cycles,
        s.vector_insts,
        s.indirect_jumps,
        s.branches,
        s.loads,
        s.stores,
        s.ebreaks,
    ] {
        h = fnv(h, v);
    }
    h
}

fn hart_checksum(s: &HartSlot, exit: Option<i64>, failure: Option<&str>) -> u64 {
    let mut h = s.fiber.cpu.hart.state_hash();
    h = fnv_stats(h, &s.fiber.cpu.stats);
    for &b in &s.kernel.stdout {
        h = fnv(h, b as u64);
    }
    let c = &s.kernel.counters;
    for v in [
        c.smile_faults,
        c.trap_trampolines,
        c.safer_corrections,
        c.lazy_rewrites,
        c.signals_gp_restored,
        s.migrations,
    ] {
        h = fnv(h, v);
    }
    h = fnv(h, exit.map(|c| c as u64).unwrap_or(u64::MAX));
    if let Some(f) = failure {
        for b in f.bytes() {
            h = fnv(h, b as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_obj::{assemble, AsmOptions};

    fn asm(src: &str) -> Binary {
        assemble(src, AsmOptions::default()).expect("assembles")
    }

    /// Ping-pong communicator: pairs (2k, 2k+1) exchange `rounds` IPIs.
    fn pingpong() -> Binary {
        asm("
            _start:
                li a7, 0x7a00       # HART_ID
                ecall
                mv s0, a0
                xori s1, s0, 1      # peer = id ^ 1
                li s2, 3            # rounds
            round:
                li a7, 0x7a02       # IPI peer
                mv a0, s1
                ecall
                li a7, 0x7a01       # WFI
                ecall
                addi s2, s2, -1
                bnez s2, round
                li a7, 93
                mv a0, s0
                ecall
            ")
    }

    fn run_with(
        workers: usize,
        quantum: u64,
        build: impl Fn(&mut ManyHartKernel),
    ) -> ManyHartResult {
        let mut k = ManyHartKernel::new(ManyHartConfig {
            workers,
            quantum,
            ..Default::default()
        });
        build(&mut k);
        k.run()
    }

    #[test]
    fn pingpong_pairs_complete_and_are_worker_invariant() {
        let bin = pingpong();
        let build = |k: &mut ManyHartKernel| {
            for _ in 0..8 {
                k.add_hart(&bin, bin.profile, bin.profile, RuntimeTables::default());
            }
        };
        let base = run_with(1, 512, build);
        assert_eq!(
            base.exited(),
            8,
            "all harts exit: {:?}",
            base.first_failure()
        );
        for (i, h) in base.harts.iter().enumerate() {
            assert_eq!(h.exit, Some(i as i64), "exit code is the hart id");
        }
        // 8 harts × 3 rounds, each round one IPI.
        assert_eq!(base.delivered.1, 24);
        for workers in [2, 4, 8] {
            assert_eq!(run_with(workers, 512, build), base, "workers={workers}");
        }
        // Different quantum slices differently but must reach the same
        // architectural result (slot/cycle accounting may differ only in
        // scheduler bookkeeping, which is also deterministic — compare
        // the full result for one alternate quantum across workers).
        let alt = run_with(1, 7, build);
        assert_eq!(run_with(8, 7, build), alt);
        for (a, b) in base.harts.iter().zip(&alt.harts) {
            assert_eq!(a.exit, b.exit);
            assert_eq!(a.retired, b.retired, "slicing is transparent");
        }
    }

    #[test]
    fn timer_wakes_a_lone_hart() {
        let bin = asm("
            _start:
                li a7, 0x7a03       # SET_TIMER
                li a0, 5
                ecall
                li a7, 0x7a01       # WFI
                ecall
                li a7, 93
                li a0, 42
                ecall
            ");
        let r = run_with(1, 64, |k| {
            k.add_hart(&bin, bin.profile, bin.profile, RuntimeTables::default());
        });
        assert_eq!(r.harts[0].exit, Some(42), "{:?}", r.first_failure());
        assert_eq!(r.delivered.0, 1);
        // The scheduler fast-forwarded across the idle gap rather than
        // spinning 5 empty slots one by one… but slots still advance
        // monotonically past the timer's delivery time.
        assert!(r.slots >= 2);
    }

    #[test]
    fn wfi_with_no_events_is_a_detected_deadlock() {
        let bin = asm("
            _start:
                li a7, 0x7a01
                ecall
                li a7, 93
                ecall
            ");
        let r = run_with(2, 64, |k| {
            k.add_hart(&bin, bin.profile, bin.profile, RuntimeTables::default());
        });
        let (hart, msg) = r.first_failure().expect("deadlock detected");
        assert_eq!(hart, 0);
        assert!(msg.contains("deadlock"), "{msg}");
    }

    #[test]
    fn ipi_to_missing_hart_is_dropped() {
        let bin = asm("
            _start:
                li a7, 0x7a02
                li a0, 99           # no such hart
                ecall
                li a7, 93
                li a0, 7
                ecall
            ");
        let r = run_with(1, 64, |k| {
            k.add_hart(&bin, bin.profile, bin.profile, RuntimeTables::default());
        });
        assert_eq!(r.harts[0].exit, Some(7), "{:?}", r.first_failure());
        assert_eq!(r.delivered, (0, 0, 0));
    }

    #[test]
    fn hart_calls_outside_many_hart_kernel_are_fatal() {
        let bin = asm("
            _start:
                li a7, 0x7a01
                ecall
                li a7, 93
                ecall
            ");
        let (mut cpu, mut mem) = chimera_emu::boot(&bin, bin.profile);
        let mut kr = KernelRunner::new(RuntimeTables::default());
        match kr.run(&mut cpu, &mut mem, 1 << 20) {
            crate::RunOutcome::Fatal(msg) => {
                assert!(msg.contains("many-hart"), "{msg}")
            }
            other => panic!("expected Fatal, got {other:?}"),
        }
    }
}
