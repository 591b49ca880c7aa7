//! The kernel-side runtime: trap routing and Chimera's passive fault
//! handling (§4.3).
//!
//! The kernel drives an emulated core, intercepting every trap:
//!
//! * **Deterministic SMILE faults** — a fetch fault in the data segment
//!   (P1: partial trampoline execution jumped through the unmodified `gp`)
//!   or an illegal-instruction fault at an address with a fault-handling
//!   table entry (P2/P3/padding). The handler computes the fault address
//!   (pc for SIGILL; `gp - 4` for SIGSEGV, since the SMILE `jalr` wrote its
//!   return address into `gp`), restores `gp` to the psABI constant, and
//!   redirects to the copied instruction.
//! * **Trap-based trampolines** — `ebreak` entries/exits of the strawman
//!   and fallback paths, ARMore original-section slots, and Safer slow
//!   paths. Each costs a full kernel round trip
//!   ([`chimera_emu::CostModel::trap`]).
//! * **Unrecognized extension instructions** — rewritten lazily: the kernel
//!   asks the rewriter for the instruction's target block — the block the
//!   static pipeline builds for a lone site, so it returns to original
//!   code through a `jal`, not a second trap — places it after the target
//!   section, patches the site with a trap-based entry, and resumes
//!   (§4.1/§4.3). These are the sources the static pass never saw (hidden
//!   behind indirect control flow) and the ones it batched behind an
//!   earlier trampoline of their block and left in place, entered by an
//!   edge the CFG did not know.
//! * **Unsupported instructions** (FAM, or sources with no template, which
//!   the rewriter leaves at their original address and lists in
//!   `untranslated`) — reported to the scheduler as a migration request,
//!   always at a pc outside the target section.
//!
//! The tables of a variant are read-only here and shared by every runner
//! of it ([`RuntimeTables`]); what a run adds — lazily built blocks, their
//! entries and exits — is the runner's own.

use crate::process::in_target_code;
use chimera_emu::{Access, Cpu, Memory, Stop, Trap};
use chimera_isa::{decode, Decoded, ExtSet, XReg};
use chimera_rewrite::translate::Translator;
use chimera_rewrite::{ebreak_patch, lazy_block, FaultTable, RegenInfo, RewriteStats};
use chimera_trace::{TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The magic return address installed in `ra` for signal handlers; a jump
/// here (handler return) traps as an unmapped fetch the kernel recognizes
/// as `sigreturn`.
pub const SIGRETURN_ADDR: u64 = 0xffff_f000;

/// Counters for every correctness-mechanism invocation (Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Deterministic SMILE faults handled (CHBP's passive mechanism).
    pub smile_faults: u64,
    /// Trap-based trampoline entries/exits taken.
    pub trap_trampolines: u64,
    /// Safer slow-path corrections.
    pub safer_corrections: u64,
    /// Lazily rewritten instructions.
    pub lazy_rewrites: u64,
    /// Signals delivered while inside a SMILE trampoline (gp restored).
    pub signals_gp_restored: u64,
}

impl FaultCounters {
    /// Total correctness-mechanism triggers.
    pub fn total(&self) -> u64 {
        self.smile_faults + self.trap_trampolines + self.safer_corrections + self.lazy_rewrites
    }
}

/// Why a kernel-supervised run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The task exited with this code.
    Exited(i64),
    /// The task executed an instruction this core cannot run (and that has
    /// no translation): the scheduler must migrate it (FAM path).
    NeedsMigration {
        /// pc of the unsupported instruction.
        pc: u64,
    },
    /// Fuel exhausted (still runnable).
    OutOfFuel,
    /// Unrecoverable fault.
    Fatal(String),
}

/// Runtime metadata for one loaded binary variant. Read-only at run time:
/// every runner of the variant shares the one fault table, so a clone is a
/// reference count, not a copy of its maps.
#[derive(Debug, Clone, Default)]
pub struct RuntimeTables {
    /// CHBP / regeneration fault-handling table.
    pub fht: Option<Arc<FaultTable>>,
    /// Safer regeneration slow-path metadata.
    pub regen: Option<RegenInfo>,
}

/// A kernel supervising one task on one core.
#[derive(Debug)]
pub struct KernelRunner {
    /// Tables for the active binary variant.
    pub tables: RuntimeTables,
    /// Accumulated fault counters.
    pub counters: FaultCounters,
    /// The `ebreak`s lazy rewriting planted → where each continues: a
    /// patched site at its block, and the exit of a block out of `jal`
    /// range of its site at the original resume address.
    lazy_traps: BTreeMap<u64, u64>,
    /// Where the next lazy block goes (grows past the target section).
    lazy_cursor: Option<u64>,
    /// Translates for the active variant's spill section and `gp`; `None`
    /// without a fault table (the runner then migrates instead).
    translator: Option<Translator>,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Saved context while a signal handler runs.
    signal_ctx: Option<chimera_emu::Hart>,
    /// The trace handle (disabled by default). The kernel emits
    /// [`TraceEvent::SmileFaultRecovered`] and [`TraceEvent::LazyRewrite`]
    /// and mirrors every [`FaultCounters`] field into `kernel.*` counters,
    /// so traces reconcile exactly against the struct.
    pub tracer: Tracer,
}

impl KernelRunner {
    /// Creates a runner with the given tables.
    pub fn new(tables: RuntimeTables) -> Self {
        KernelRunner::with_tracer(tables, Tracer::disabled())
    }

    /// Creates a runner with the given tables and trace handle.
    pub fn with_tracer(tables: RuntimeTables, tracer: Tracer) -> Self {
        let mut runner = KernelRunner {
            tables: RuntimeTables::default(),
            counters: FaultCounters::default(),
            lazy_traps: BTreeMap::new(),
            lazy_cursor: None,
            translator: None,
            stdout: Vec::new(),
            signal_ctx: None,
            tracer,
        };
        runner.retarget(tables);
        runner
    }

    /// Points the runner at another view's tables after the task's MMView
    /// was switched ([`crate::Process::migrate`]). Lazily built blocks
    /// patched the old view's code, so their traps go with it; stdout,
    /// counters and a pending signal context belong to the task and stay.
    pub fn retarget(&mut self, tables: RuntimeTables) {
        self.translator = tables
            .fht
            .as_ref()
            .map(|fht| Translator::new(fht.spill_base, fht.abi_gp));
        self.tables = tables;
        self.lazy_traps.clear();
        self.lazy_cursor = None;
    }

    /// Delivers a signal (§4.3, Figure 10): saves the interrupted context,
    /// and — when the interruption landed inside a SMILE trampoline, where
    /// `gp` is temporarily overwritten — restores `gp` so the user-space
    /// handler observes the correct psABI value. The handler runs with
    /// `ra = `[`SIGRETURN_ADDR`]; its return restores the saved context
    /// (including the trampoline's in-flight `gp`).
    pub fn deliver_signal(&mut self, cpu: &mut Cpu, handler: u64) {
        assert!(self.signal_ctx.is_none(), "nested signals unsupported");
        self.signal_ctx = Some(cpu.hart.clone());
        if let Some(fht) = &self.tables.fht {
            if fht.inside_trampoline(cpu.hart.pc) || in_target_code(fht, cpu.hart.pc) {
                // "Restoring gp" before the handler observes it.
                cpu.hart.set_x(XReg::GP, fht.abi_gp);
                self.counters.signals_gp_restored += 1;
                self.tracer.count("kernel.signals_gp_restored", 1);
            }
        }
        cpu.hart.set_x(XReg::RA, SIGRETURN_ADDR);
        cpu.hart.pc = handler;
    }

    /// Runs the task until exit, migration request or fuel exhaustion.
    ///
    /// The cost of each kernel entry (fault handling, trap trampolines) is
    /// charged to `cpu.stats.cycles` at [`chimera_emu::CostModel::trap`].
    pub fn run(&mut self, cpu: &mut Cpu, mem: &mut Memory, fuel: u64) -> RunOutcome {
        let start = cpu.stats.instret;
        loop {
            let used = cpu.stats.instret - start;
            if used >= fuel {
                return RunOutcome::OutOfFuel;
            }
            let stop = cpu.run(mem, fuel - used);
            let Stop::Trap(trap) = stop else {
                return RunOutcome::OutOfFuel;
            };
            match self.service_trap(trap, cpu, mem) {
                TrapDisposition::Resume => continue,
                TrapDisposition::Exited(code) => return RunOutcome::Exited(code),
                TrapDisposition::Migrate { pc } => return RunOutcome::NeedsMigration { pc },
                TrapDisposition::HartCall { call, .. } => {
                    // Hart-control calls need an event scheduler; a
                    // single-hart run has nobody to deliver the wakeup.
                    return RunOutcome::Fatal(format!(
                        "hart call {call:?} outside the many-hart kernel"
                    ));
                }
                TrapDisposition::Fatal(msg) => return RunOutcome::Fatal(msg),
            }
        }
    }

    /// Emits the trace event + metrics for one recovered SMILE fault.
    fn trace_smile_recovery(&self, cpu: &Cpu, fault_addr: u64, redirect: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.record(
            cpu.stats.cycles,
            TraceEvent::SmileFaultRecovered {
                fault_addr,
                redirect,
            },
        );
        self.tracer.count("kernel.smile_faults", 1);
        self.tracer.observe("kernel.fault_cycles", cpu.cost.trap);
    }

    /// Services one delivered trap and reports its disposition.
    ///
    /// This is the single trap-routing entry point: [`KernelRunner::run`]
    /// folds the disposition into a [`RunOutcome`] for single-hart runs,
    /// and the many-hart event kernel (`crate::ManyHartKernel`) routes
    /// [`TrapDisposition::HartCall`] and [`TrapDisposition::Migrate`] into
    /// its logical-time event queue instead.
    pub fn service_trap(&mut self, trap: Trap, cpu: &mut Cpu, mem: &mut Memory) -> TrapDisposition {
        match trap {
            Trap::Ecall { pc } => {
                let n = cpu.hart.get_x(XReg::A7);
                match n {
                    chimera_emu::sys::EXIT => {
                        TrapDisposition::Exited(cpu.hart.get_x(XReg::A0) as i64)
                    }
                    chimera_emu::sys::WRITE => {
                        let buf = cpu.hart.get_x(XReg::A1);
                        let len = cpu.hart.get_x(XReg::A2) as usize;
                        if let Some(bytes) = mem.peek(buf, len) {
                            self.stdout.extend_from_slice(&bytes);
                            cpu.hart.set_x(XReg::A0, len as u64);
                        } else {
                            cpu.hart.set_x(XReg::A0, u64::MAX);
                        }
                        cpu.hart.pc = pc + 4;
                        cpu.stats.cycles += cpu.cost.trap / 8; // Light syscall.
                        TrapDisposition::Resume
                    }
                    // Hart-control calls: decoded here (one routing point
                    // for the whole syscall surface) but *serviced* by the
                    // event scheduler, which advances pc, fills a0 and
                    // charges the light-syscall cost on completion.
                    chimera_emu::sys::HART_ID => TrapDisposition::HartCall {
                        call: HartCall::Id,
                        pc,
                    },
                    chimera_emu::sys::WFI => TrapDisposition::HartCall {
                        call: HartCall::Wfi,
                        pc,
                    },
                    chimera_emu::sys::IPI => TrapDisposition::HartCall {
                        call: HartCall::Ipi {
                            target: cpu.hart.get_x(XReg::A0),
                        },
                        pc,
                    },
                    chimera_emu::sys::SET_TIMER => TrapDisposition::HartCall {
                        call: HartCall::SetTimer {
                            delta: cpu.hart.get_x(XReg::A0),
                        },
                        pc,
                    },
                    other => TrapDisposition::Fatal(format!("unknown syscall {other}")),
                }
            }
            Trap::Mem { fault, .. } if fault.access == Access::Fetch => {
                // Handler return? Restore the interrupted context.
                if fault.addr == SIGRETURN_ADDR {
                    if let Some(saved) = self.signal_ctx.take() {
                        cpu.hart = saved;
                        return TrapDisposition::Resume;
                    }
                }
                // Candidate SMILE P1 fault: the jalr stored its return
                // address (P1 + 4) in gp before jumping into the data
                // segment.
                cpu.stats.cycles += cpu.cost.trap;
                let Some(fht) = &self.tables.fht else {
                    return TrapDisposition::Fatal(format!("fetch fault: {fault}"));
                };
                let fault_addr = cpu.hart.gp().wrapping_sub(4);
                let abi_gp = fht.abi_gp;
                if let Some(&redirect) = fht.redirects.get(&fault_addr) {
                    self.counters.smile_faults += 1;
                    self.trace_smile_recovery(cpu, fault_addr, redirect);
                    // Restore gp and redirect (§4.3).
                    cpu.hart.set_x(XReg::GP, abi_gp);
                    cpu.hart.pc = redirect;
                    TrapDisposition::Resume
                } else {
                    TrapDisposition::Fatal(format!(
                        "fetch fault with no redirect (gp-4 = {fault_addr:#x}): {fault}"
                    ))
                }
            }
            Trap::Mem { fault, pc } => {
                TrapDisposition::Fatal(format!("data fault at pc {pc:#x}: {fault}"))
            }
            Trap::Illegal { pc, raw } => {
                cpu.stats.cycles += cpu.cost.trap;
                if let Some(fht) = &self.tables.fht {
                    // 1. P2/P3/padding or relocation slot: redirect via table.
                    if let Some(&redirect) = fht.redirects.get(&pc) {
                        let abi_gp = fht.abi_gp;
                        self.counters.smile_faults += 1;
                        self.trace_smile_recovery(cpu, pc, redirect);
                        cpu.hart.set_x(XReg::GP, abi_gp);
                        cpu.hart.pc = redirect;
                        return TrapDisposition::Resume;
                    }
                    // 2. Known-untranslatable source instruction: migrate.
                    if fht.untranslated.contains(&pc) {
                        return TrapDisposition::Migrate { pc };
                    }
                }
                // 3. Unrecognized-but-decodable extension instruction on a
                //    core that lacks it: lazy rewriting when we have a
                //    translator context, else migration (FAM).
                match decode(raw) {
                    Ok(d) if !d.inst.runnable_on(cpu.profile) => {
                        if let Some(block) = self.lazy_rewrite(pc, d, cpu.profile, mem) {
                            self.counters.lazy_rewrites += 1;
                            self.tracer
                                .record(cpu.stats.cycles, TraceEvent::LazyRewrite { pc, block });
                            self.tracer.count("kernel.lazy_rewrites", 1);
                            // Resume at the same pc: it now traps into
                            // the freshly built block.
                            return TrapDisposition::Resume;
                        }
                        TrapDisposition::Migrate { pc }
                    }
                    _ => TrapDisposition::Fatal(format!(
                        "illegal instruction {raw:#x} at {pc:#x} with no handler"
                    )),
                }
            }
            Trap::Breakpoint { pc } => {
                cpu.stats.cycles += cpu.cost.trap;
                // Lazy entries and exits first (they shadow nothing else).
                if let Some(&to) = self.lazy_traps.get(&pc) {
                    self.counters.trap_trampolines += 1;
                    self.tracer.count("kernel.trap_trampolines", 1);
                    cpu.hart.pc = to;
                    return TrapDisposition::Resume;
                }
                if let Some(regen) = &self.tables.regen {
                    if let Some(st) = regen.slow_traps.get(&pc) {
                        let old = cpu.hart.get_x(st.target_reg);
                        let Some(fht) = &self.tables.fht else {
                            return TrapDisposition::Fatal("safer trap without tables".into());
                        };
                        let Some(&new) = fht.redirects.get(&old) else {
                            return TrapDisposition::Fatal(format!(
                                "safer: uncorrectable indirect target {old:#x}"
                            ));
                        };
                        if let Some(link) = st.link {
                            cpu.hart.set_x(link, st.link_value);
                        }
                        self.counters.safer_corrections += 1;
                        self.tracer.count("kernel.safer_corrections", 1);
                        cpu.hart.pc = new;
                        return TrapDisposition::Resume;
                    }
                }
                if let Some(fht) = &self.tables.fht {
                    if let Some(&block) = fht.trap_entries.get(&pc) {
                        self.counters.trap_trampolines += 1;
                        self.tracer.count("kernel.trap_trampolines", 1);
                        cpu.hart.pc = block;
                        return TrapDisposition::Resume;
                    }
                    if let Some(&resume) = fht.trap_exits.get(&pc) {
                        self.counters.trap_trampolines += 1;
                        self.tracer.count("kernel.trap_trampolines", 1);
                        cpu.hart.pc = resume;
                        return TrapDisposition::Resume;
                    }
                }
                TrapDisposition::Fatal(format!("stray breakpoint at {pc:#x}"))
            }
        }
    }

    /// Lazy rewriting (§4.1/§4.3): build the target block of the run the
    /// faulting instruction starts — it and the vector instructions after
    /// it this core lacks and a template exists for — place it after the
    /// target section, patch the site with a trap entry, and let execution
    /// re-trap into it. Only the site is patched: a jump into the run runs
    /// the original bytes there and is rewritten on its own. The block is
    /// [`lazy_block`], resolved by [`UnitArtifact::place_at`] at the cursor,
    /// so it leaves through a `jal`: one kernel entry per execution of the
    /// run. Returns the block's address.
    ///
    /// [`UnitArtifact::place_at`]: chimera_rewrite::UnitArtifact::place_at
    fn lazy_rewrite(
        &mut self,
        pc: u64,
        site: Decoded,
        profile: ExtSet,
        mem: &mut Memory,
    ) -> Option<u64> {
        // No table, no translator context: the caller migrates instead.
        let (fht, translator) = (self.tables.fht.as_ref()?, self.translator?);
        // Grow region: right after the target section (the loader maps the
        // section with slack; see `Process::load`).
        let cursor = *self.lazy_cursor.get_or_insert(fht.target_range.1);
        let joins = |d: &Decoded| {
            let inst = &d.inst;
            Translator::sequenceable(inst) && Translator::can_downgrade(inst)
        };
        let mut run = vec![site];
        while joins(&run[run.len() - 1]) {
            let word = mem.peek(pc + 4 * run.len() as u64, 4);
            match word.and_then(|b| decode(u32::from_le_bytes(b.try_into().ok()?)).ok()) {
                Some(d) if joins(&d) && !d.inst.runnable_on(profile) => run.push(d),
                _ => break,
            }
        }
        let block = lazy_block(&translator, profile, pc, &run).ok()?;
        // The table entries of a block built at run time are the runner's:
        // resolve against a scratch table and keep what it gained (a trap
        // exit, if the site is beyond `jal` range of the cursor).
        let (mut code, mut scratch) = (Vec::new(), FaultTable::default());
        block
            .place_at(
                cursor,
                &mut code,
                &mut scratch,
                &mut RewriteStats::default(),
            )
            .ok()?;
        mem.poke_code(cursor, &code).ok()?;
        self.lazy_cursor = Some(cursor + code.len() as u64);
        // Patch the site with the pipeline's in-place trap entry.
        mem.poke_code(pc, &ebreak_patch(site.len)).ok()?;
        self.lazy_traps.insert(pc, cursor);
        self.lazy_traps.extend(scratch.trap_exits);
        Some(cursor)
    }
}

/// What the kernel decided about one delivered trap (see
/// [`KernelRunner::service_trap`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrapDisposition {
    /// Handled in place; resume the hart.
    Resume,
    /// The task exited with this code.
    Exited(i64),
    /// Unsupported instruction with no translation: the scheduler must
    /// migrate the task to a core that has the extension (FAM).
    Migrate {
        /// pc of the unsupported instruction.
        pc: u64,
    },
    /// A hart-control call (`chimera_emu::sys::{HART_ID, WFI, IPI,
    /// SET_TIMER}`) only an event scheduler can service: it advances
    /// `pc` past the `ecall`, fills `a0`, charges the syscall cost, and
    /// enqueues/delivers the event.
    HartCall {
        /// The decoded call.
        call: HartCall,
        /// pc of the `ecall` instruction.
        pc: u64,
    },
    /// Unrecoverable fault.
    Fatal(String),
}

/// A decoded guest hart-control call (the `chimera_emu::sys` numbers
/// outside the Linux table), serviced by `crate::ManyHartKernel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HartCall {
    /// `hartid()`: the calling hart's id into `a0`.
    Id,
    /// `wfi()`: block until an event arrives (or consume a latched one).
    Wfi,
    /// `ipi(target)`: wake hart `target` next slot.
    Ipi {
        /// Destination hart id.
        target: u64,
    },
    /// `set_timer(delta)`: a one-shot self-wakeup `delta` slots ahead.
    SetTimer {
        /// Slots from now (clamped to at least 1).
        delta: u64,
    },
}
