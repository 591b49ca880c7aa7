//! The interpreter: fetch/decode/execute with extension gating, the trap
//! model, and the cycle-cost accounting.
//!
//! A [`Cpu`] models one core of an ISAX heterogeneous processor: its
//! [`Cpu::profile`] says which extensions the core implements. Executing an
//! instruction whose extension is missing raises [`Trap::Illegal`] — the
//! fault FAM migrates on and Chimera's lazy rewriting recovers from.
//! Fetching from non-executable memory raises [`Trap::Mem`] with a fetch
//! access — the deterministic "segmentation fault" a partially executed
//! SMILE trampoline produces.
//!
//! The front end's gate (decode + extension gating) is one function,
//! `decode_gated`: [`Cpu::step`] feeds it fetched parcels, and the block
//! builder feeds it parcels read from the region's bytes and memoizes the
//! result per basic block in [`BlockCache`] (see [`crate::bbcache`]) in
//! every mode but [`ExecMode::Reference`]. [`Cpu::exec`] is the reference
//! semantics: the engine's micro-op arms and the JIT's templates are held
//! to it, result for result and cycle for cycle, by `tests/differential.rs`
//! and the fuzz oracle.

use crate::bbcache::{Block, BlockCache, JumpEntry};
use crate::cost::{CostModel, ExecStats};
use crate::hart::{Hart, VLENB};
use crate::mem::{AccessHints, MemFault, Memory, RegionHint};
use crate::uop::{lower, MicroOp, Uop};
use chimera_isa::{
    decode, encode, Decoded, Eew, Ext, ExtSet, FpWidth, Inst, IntWidth, LoadKind, StoreKind,
    VArithOp, VReg, VSrc, XReg,
};
use chimera_trace::{TraceEvent, Tracer, TrapKind};
use core::fmt;
use std::sync::Arc;

/// A trap delivered to the (simulated) kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Illegal instruction: undecodable bits, a reserved encoding, or an
    /// instruction from an extension this core does not implement.
    Illegal {
        /// pc of the illegal instruction.
        pc: u64,
        /// The raw bits at pc (low 16 significant for compressed).
        raw: u32,
    },
    /// Memory access fault (including fetch from non-executable memory —
    /// the paper's segmentation fault).
    Mem {
        /// pc of the faulting instruction (for fetch faults this is the
        /// *fetch target*, i.e. equals `fault.addr`).
        pc: u64,
        /// Fault details.
        fault: MemFault,
    },
    /// `ebreak` (trap-based trampolines in baseline rewriters).
    Breakpoint {
        /// pc of the ebreak.
        pc: u64,
    },
    /// `ecall` (system call).
    Ecall {
        /// pc of the ecall.
        pc: u64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Illegal { pc, raw } => write!(f, "illegal instruction {raw:#x} at {pc:#x}"),
            Trap::Mem { pc, fault } => write!(f, "{fault} (pc {pc:#x})"),
            Trap::Breakpoint { pc } => write!(f, "breakpoint at {pc:#x}"),
            Trap::Ecall { pc } => write!(f, "ecall at {pc:#x}"),
        }
    }
}

/// Why [`Cpu::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// A trap was raised (pc still points at the trapping instruction for
    /// `Illegal`/`Breakpoint`/`Ecall`; for fetch faults pc is the fault
    /// address).
    Trap(Trap),
    /// The fuel budget ran out.
    OutOfFuel,
}

/// Which front end executes instructions: a core holds exactly one
/// ([`Cpu::set_mode`], [`Cpu::mode`]). All modes are bit-identical in
/// results, traps, `ExecStats` (including cycles) and fuel accounting —
/// they differ only in wall-clock speed. The differential suite asserts it.
///
/// Every mode but `Reference` enters blocks through one dispatcher (region
/// fingerprint, [`BlockCache::lookup`], build on a miss); `Reference`
/// fetches each instruction and decodes and gates it with the same
/// function the block builder uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Pure per-instruction fetch/decode/execute — the reference semantics
    /// the other three modes must match bit for bit. Never touches the
    /// decode cache.
    Reference,
    /// Decode-cached interpreter: memoized front end, per-instruction
    /// dispatch through `Cpu::exec`.
    Interpreter,
    /// Micro-op execution engine: lowered block bodies, a jump cache in
    /// front of the dispatcher, per-core memory translation hints. The
    /// default.
    Engine,
    /// Host-code JIT tier: hot block bodies template-compiled to x86-64,
    /// published into the executable arena in batches and chained with
    /// patched direct jumps; cold and not-yet-published blocks run
    /// through the engine. On hosts without executable pages
    /// ([`crate::jit_available`] is false) this mode runs with the
    /// engine's exact semantics and zero JIT counters.
    Jit,
}

/// One simulated core.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Architectural state.
    pub hart: Hart,
    /// The extensions this core implements.
    pub profile: ExtSet,
    /// Cycle-cost model.
    pub cost: CostModel,
    /// Accumulated statistics.
    pub stats: ExecStats,
    /// The basic-block decode cache, used in every [`ExecMode`] but
    /// `Reference`.
    pub cache: BlockCache,
    /// The execution front end ([`ExecMode::Engine`] by default; see
    /// [`Cpu::set_mode`]).
    mode: ExecMode,
    /// Per-access-kind last-region translation hints (micro-architectural
    /// state only: hints are revalidated on every use and never change
    /// results or faults).
    pub hints: AccessHints,
    /// The host-code JIT tier ([`ExecMode::Jit`]): executable arena,
    /// resident traces, and the deterministic tiering policy.
    pub(crate) jit: crate::jit::JitTier,
    /// The trace handle (disabled by default; see `chimera_trace`). The
    /// CPU emits [`TraceEvent::BlockBuilt`], [`TraceEvent::CacheInvalidate`]
    /// and [`TraceEvent::Trap`] — coarse events only, never per retired
    /// instruction, so the enabled overhead stays bounded.
    pub tracer: Tracer,
    /// The block builder's micro-op buffer, reused across builds (each
    /// build copies it into the block's exact-size body).
    build_buf: Vec<Uop>,
}

impl Cpu {
    /// Creates a core with the given extension profile.
    pub fn new(profile: ExtSet) -> Self {
        Cpu {
            hart: Hart::new(),
            profile,
            cost: CostModel::default(),
            stats: ExecStats::default(),
            cache: BlockCache::new(),
            mode: ExecMode::Engine,
            hints: AccessHints::default(),
            jit: crate::jit::JitTier::new(),
            tracer: Tracer::disabled(),
            build_buf: Vec::new(),
        }
    }

    /// Selects the execution front end (see [`ExecMode`]).
    ///
    /// Always performs a full JIT-tier reset — resident traces, hotness
    /// counters and demotion hysteresis — so no promotion state carries
    /// across a mode switch (asserted by the tiering-policy tests).
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
        self.jit.reset();
    }

    /// The currently selected execution front end.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Overrides the JIT promotion threshold: entries of a valid cached
    /// block before its body is compiled (default 16). The bounds on how
    /// long compiled code may wait for publication derive from it.
    /// Applies to [`ExecMode::Jit`] only; tests and benches use 1 to
    /// force immediate promotion and publication.
    pub fn set_jit_threshold(&mut self, threshold: u32) {
        self.jit.set_threshold(threshold);
    }

    /// The unpatched host-code bytes compiled for the live trace at `pc`,
    /// if one is resident — published, not merely compiled (SMC
    /// byte-identity regressions).
    pub fn jit_trace_bytes(&self, pc: u64) -> Option<Vec<u8>> {
        self.jit.trace_bytes(pc)
    }

    /// The block-entry count accumulated toward promoting `pc` (0 once
    /// compiled or never seen).
    pub fn jit_hotness(&self, pc: u64) -> u32 {
        self.jit.hotness(pc)
    }

    /// Lifetime count of block bodies compiled to host code.
    pub fn jit_compiled(&self) -> u64 {
        self.jit.compiled()
    }

    /// Lifetime count of W^X toggles of the JIT arena: one per published
    /// batch of compiled traces and exit patches, not one per trace.
    pub fn jit_wx_toggles(&self) -> u64 {
        self.jit.wx_toggles()
    }

    /// Executes instructions until a trap or until `fuel` instructions have
    /// retired.
    ///
    /// Every return is a **yield point** under the fiber contract
    /// (`crate::fiber`): whatever the stop reason and whichever tier was
    /// executing, all batched counters — the engine's and JIT's locally
    /// accumulated instret/cycles/class counts, the JIT's fuel anchor —
    /// have been drained into `self.stats`, and `self.hart` holds the
    /// exact architectural state at the stopped instruction boundary. The
    /// caller may therefore suspend the CPU here, move it to another host
    /// thread, and call `run` again: any slicing of a run, down to one
    /// instruction per slice, is bit-identical to an unsliced run (the
    /// differential suite's yield-point transparency test gates this).
    pub fn run(&mut self, mem: &mut Memory, fuel: u64) -> Stop {
        let mut remaining = fuel;
        while remaining > 0 {
            let stepped = match self.mode {
                ExecMode::Reference => self.step(mem).map(|()| 1),
                ExecMode::Interpreter => self.step_block(mem, remaining),
                ExecMode::Engine | ExecMode::Jit => self.step_engine(mem, remaining),
            };
            match stepped {
                Ok(retired) => remaining -= retired.min(remaining),
                Err(t) => {
                    self.trace_trap(&t);
                    return Stop::Trap(t);
                }
            }
        }
        Stop::OutOfFuel
    }

    /// Emits a [`TraceEvent::Trap`] for a trap about to be delivered.
    fn trace_trap(&self, t: &Trap) {
        if !self.tracer.is_enabled() {
            return;
        }
        let (pc, kind) = match *t {
            Trap::Illegal { pc, .. } => (pc, TrapKind::Illegal),
            Trap::Mem { pc, fault } => (
                pc,
                match fault.access {
                    crate::mem::Access::Fetch => TrapKind::MemFetch,
                    crate::mem::Access::Load => TrapKind::MemLoad,
                    crate::mem::Access::Store => TrapKind::MemStore,
                },
            ),
            Trap::Breakpoint { pc } => (pc, TrapKind::Breakpoint),
            Trap::Ecall { pc } => (pc, TrapKind::Ecall),
        };
        self.tracer
            .record(self.stats.cycles, TraceEvent::Trap { pc, kind });
    }

    /// Fetches, decodes and executes one instruction.
    ///
    /// On `Err`, pc is left at the trapping instruction (or at the fetch
    /// fault address for fetch faults), exactly like hardware `*epc`.
    pub fn step(&mut self, mem: &mut Memory) -> Result<(), Trap> {
        let decoded = self.fetch(mem, self.hart.pc)?;
        self.exec(mem, decoded.inst, decoded.len as u64)
    }

    /// The uncached front end: fetches the instruction at `pc` (the upper
    /// parcel too for a 32-bit encoding) and passes it through
    /// `decode_gated`, the gate the block builder uses.
    #[inline(always)]
    fn fetch(&mut self, mem: &mut Memory, pc: u64) -> Result<Decoded, Trap> {
        let fetch_fault = |fault: MemFault| Trap::Mem {
            pc: fault.addr,
            fault,
        };
        let lo = mem
            .fetch_u16_hinted(&mut self.hints.fetch, pc)
            .map_err(fetch_fault)?;
        let word = if lo & 0b11 == 0b11 {
            let hi = mem
                .fetch_u16_hinted(&mut self.hints.fetch, pc + 2)
                .map_err(fetch_fault)?;
            (hi as u32) << 16 | lo as u32
        } else {
            lo as u32
        };
        decode_gated(word, pc, self.profile)
    }

    /// The dispatcher every cached mode enters blocks through: the valid
    /// block for pc (a stale one is dropped and counted), built on a miss.
    /// `None` means pc ran one instruction uncached instead, through
    /// [`Cpu::step`]: an unmapped or non-executable pc, so the
    /// architecturally correct fetch fault is raised; a first instruction
    /// that does not decode or is gated off, so the trap is `step`'s own;
    /// or a first instruction whose upper parcel lies outside the
    /// fingerprinted region, so writes to the neighbouring region are
    /// always observed.
    fn dispatch(&mut self, mem: &mut Memory) -> Result<Option<(u32, Arc<Block>)>, Trap> {
        let pc = self.hart.pc;
        let Some((fp, code)) = mem.code_from(pc) else {
            self.step(mem)?;
            return Ok(None);
        };
        let inv_before = self.cache.stats.invalidations;
        let looked_up = self.cache.lookup(pc, self.profile, fp);
        if self.cache.stats.invalidations != inv_before {
            self.tracer
                .record(self.stats.cycles, TraceEvent::CacheInvalidate { pc });
            self.tracer.count("emu.cache_invalidations", 1);
        }
        if looked_up.is_some() {
            return Ok(looked_up);
        }
        let built = self.build_block(pc, fp, code);
        if built.is_none() {
            self.step(mem)?;
        }
        Ok(built)
    }

    /// Executes up to one basic block through the decode cache, bounded by
    /// `budget` instructions; returns the number retired.
    ///
    /// Semantically equivalent to calling [`Cpu::step`] in a loop: every
    /// instruction still executes through [`Cpu::exec`], and any trap leaves
    /// pc exactly where the uncached path would.
    fn step_block(&mut self, mem: &mut Memory, budget: u64) -> Result<u64, Trap> {
        let Some((_, block)) = self.dispatch(mem)? else {
            return Ok(1);
        };
        let mut retired = 0u64;
        for u in block.ops.iter() {
            if retired >= budget {
                break;
            }
            let gen_before = if u.is_store { mem.code_generation() } else { 0 };
            self.exec(mem, u.inst(), u.len as u64)?;
            retired += 1;
            // A store may have rewritten code — including the rest of THIS
            // block. The global generation is the cheap filter; when it
            // moved, the block survives iff its own region's fingerprint is
            // intact (stores to *other* executable regions can't change
            // these bytes). Otherwise bail to the dispatcher, which
            // revalidates before executing anything else.
            if u.is_store && mem.code_generation() != gen_before && !block_intact(mem, &block) {
                break;
            }
        }
        Ok(retired)
    }

    /// Executes through the micro-op engine, bounded by `budget` retired
    /// instructions; returns the number retired.
    ///
    /// Every block entry probes the jump cache first: a validated entry
    /// skips the fingerprint + hash lookup and counts as `chained`. A miss
    /// goes through [`Cpu::dispatch`], the interpreter's dispatcher, and
    /// refills the entry, so cache counters reconcile with the interpreter
    /// as `hits_interp == hits_engine + chained`. In [`ExecMode::Jit`] the
    /// same loop offers every block to the JIT tier first; compiled traces
    /// account their own chained entries as `jitted`.
    fn step_engine(&mut self, mem: &mut Memory, budget: u64) -> Result<u64, Trap> {
        let mut retired = 0u64;
        while retired < budget {
            let pc = self.hart.pc;
            let hinted = self
                .cache
                .jump_hint(pc)
                .and_then(|entry| self.cache.validate_jump(entry, self.profile, mem));
            let block = if let Some(block) = hinted {
                self.cache.stats.chained += 1;
                block
            } else {
                let Some((id, block)) = self.dispatch(mem)? else {
                    return Ok(retired + 1);
                };
                self.cache.jump_set(JumpEntry {
                    to: id,
                    pc,
                    stamp: mem.code_generation(),
                });
                block
            };
            // The JIT tier's one hook: a block it takes runs (and chains)
            // as compiled code; a block it declines — cold, queued,
            // under-funded — runs in the engine. Either way the next block
            // comes through the jump cache.
            if self.mode == ExecMode::Jit {
                if let Some(ran) = crate::jit::try_enter(self, mem, budget - retired, &block, pc) {
                    retired += ran?;
                    continue;
                }
            }
            retired += self.exec_lowered(mem, &block, budget - retired)?;
        }
        Ok(retired)
    }

    /// Executes a lowered block body, bounded by `budget`; returns the
    /// instructions retired. A body cut short by the budget, a bail after
    /// a store into its own region and a control transfer all leave
    /// `self.hart.pc` at the next instruction to run.
    ///
    /// Instruction-for-instruction equivalent to the interpreter's replay
    /// loop in [`Cpu::step_block`] — same trap pcs, same budget semantics,
    /// same mid-block self-modification guard — but `pc` and the hot stat
    /// counters (`instret`, `cycles`, `loads`, `stores`) live in locals
    /// and are flushed to `self` only at observable boundaries: a trap, a
    /// [`MicroOp::Generic`] delegate, or a block exit. Nothing can read
    /// CPU state between two uops of the same block, so the batching is
    /// invisible — any trap still sees bit-identical `hart`/stats — while
    /// the straight-line loop sheds four memory read-modify-writes per
    /// instruction. The budget bound is the loop bound itself (`n`), not a
    /// per-op check.
    fn exec_lowered(&mut self, mem: &mut Memory, block: &Block, budget: u64) -> Result<u64, Trap> {
        let n = (block.ops.len() as u64).min(budget) as usize;
        let mut pc = self.hart.pc;
        let mut retired = 0u64;
        // Prefix of `retired` already reflected in `self.stats.instret`
        // (advanced past Generic ops, which account for themselves through
        // `Cpu::exec`).
        let mut flushed = 0u64;
        let mut d_cycles = 0u64;
        let mut d_loads = 0u64;
        let mut d_stores = 0u64;

        // Flush the batched locals. Callers reset / stop using the deltas
        // themselves (keeping dead stores out of the exit paths).
        macro_rules! flush {
            () => {{
                self.hart.pc = pc;
                self.stats.instret += retired - flushed;
                self.stats.cycles += d_cycles;
                self.stats.loads += d_loads;
                self.stats.stores += d_stores;
            }};
        }
        // A memory fault flushes the pre-instruction state first: the
        // faulting instruction contributes nothing and pc stays on it,
        // exactly like the uncached path.
        macro_rules! memtrap {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(fault) => {
                        flush!();
                        return Err(Trap::Mem { pc, fault });
                    }
                }
            };
        }

        for u in block.ops[..n].iter() {
            let next_pc = pc + u.len as u64;
            // A retired store's tail. The store may have rewritten code —
            // including the rest of THIS block (same guard as the
            // interpreter's replay loop).
            macro_rules! stored {
                ($gen_before:expr) => {{
                    d_stores += 1;
                    pc = next_pc;
                    retired += 1;
                    d_cycles += u.cost as u64;
                    if mem.code_generation() != $gen_before && !block_intact(mem, block) {
                        flush!();
                        return Ok(retired);
                    }
                    continue;
                }};
            }
            match u.op {
                // Cold operations delegate to `Cpu::exec`, which does its
                // own pc/cost/stats accounting against flushed state. None
                // of them end a block (`ecall`/`ebreak` trap out of the
                // body instead).
                MicroOp::Generic(inst) => {
                    let gen_before = mem.code_generation();
                    flush!();
                    flushed = retired;
                    d_cycles = 0;
                    d_loads = 0;
                    d_stores = 0;
                    self.exec(mem, inst, u.len as u64)?;
                    retired += 1;
                    flushed += 1;
                    pc = self.hart.pc;
                    if u.is_store
                        && mem.code_generation() != gen_before
                        && !block_intact(mem, block)
                    {
                        // Everything is already flushed, pc included.
                        return Ok(retired);
                    }
                    continue;
                }
                MicroOp::Lui { rd, imm } => self.hart.set_x(rd, imm as i64 as u64),
                MicroOp::Auipc { rd, imm } => {
                    self.hart.set_x(rd, pc.wrapping_add(imm as i64 as u64))
                }
                MicroOp::Jal { rd, offset } => {
                    self.hart.set_x(rd, next_pc);
                    pc = pc.wrapping_add(offset as i64 as u64);
                    retired += 1;
                    d_cycles += u.cost as u64;
                    flush!();
                    return Ok(retired);
                }
                MicroOp::Jalr { rd, rs1, offset } => {
                    let target = self.hart.get_x(rs1).wrapping_add(offset as i64 as u64) & !1;
                    self.hart.set_x(rd, next_pc);
                    pc = target;
                    retired += 1;
                    d_cycles += u.cost as u64;
                    self.stats.indirect_jumps += 1;
                    flush!();
                    return Ok(retired);
                }
                MicroOp::Branch {
                    kind,
                    rs1,
                    rs2,
                    offset,
                    taken_cost,
                } => {
                    let a = self.hart.get_x(rs1);
                    let b = self.hart.get_x(rs2);
                    retired += 1;
                    self.stats.branches += 1;
                    if kind.eval(a, b) {
                        pc = pc.wrapping_add(offset as i64 as u64);
                        d_cycles += taken_cost as u64;
                    } else {
                        pc = next_pc;
                        d_cycles += u.cost as u64;
                    }
                    flush!();
                    return Ok(retired);
                }
                MicroOp::Load {
                    kind,
                    rd,
                    rs1,
                    offset,
                } => {
                    let addr = self.hart.get_x(rs1).wrapping_add(offset as i64 as u64);
                    let v = memtrap!(load_x(mem, &mut self.hints.load, kind, addr));
                    self.hart.set_x(rd, v);
                    d_loads += 1;
                }
                MicroOp::Store {
                    kind,
                    rs1,
                    rs2,
                    offset,
                } => {
                    let gen_before = mem.code_generation();
                    let addr = self.hart.get_x(rs1).wrapping_add(offset as i64 as u64);
                    let v = self.hart.get_x(rs2);
                    memtrap!(store_x(mem, &mut self.hints.store, kind, addr, v));
                    stored!(gen_before);
                }
                // Flattened hot ALU ops: semantics identical to the
                // matching `OpImmKind::eval` / `OpKind::eval` row, minus
                // the second kind dispatch (measured: see `MicroOp::Addi`).
                MicroOp::Addi { rd, rs1, imm } => {
                    let a = self.hart.get_x(rs1);
                    self.hart.set_x(rd, a.wrapping_add(imm as i64 as u64));
                }
                MicroOp::Andi { rd, rs1, imm } => {
                    let a = self.hart.get_x(rs1);
                    self.hart.set_x(rd, a & (imm as i64 as u64));
                }
                MicroOp::Slli { rd, rs1, shamt } => {
                    let a = self.hart.get_x(rs1);
                    self.hart.set_x(rd, a << shamt);
                }
                MicroOp::Srli { rd, rs1, shamt } => {
                    let a = self.hart.get_x(rs1);
                    self.hart.set_x(rd, a >> shamt);
                }
                MicroOp::Add { rd, rs1, rs2 } => {
                    let a = self.hart.get_x(rs1);
                    let b = self.hart.get_x(rs2);
                    self.hart.set_x(rd, a.wrapping_add(b));
                }
                MicroOp::Sub { rd, rs1, rs2 } => {
                    let a = self.hart.get_x(rs1);
                    let b = self.hart.get_x(rs2);
                    self.hart.set_x(rd, a.wrapping_sub(b));
                }
                MicroOp::Xor { rd, rs1, rs2 } => {
                    let a = self.hart.get_x(rs1);
                    let b = self.hart.get_x(rs2);
                    self.hart.set_x(rd, a ^ b);
                }
                MicroOp::OpImm { kind, rd, rs1, imm } => {
                    let a = self.hart.get_x(rs1);
                    self.hart.set_x(rd, kind.eval(a, imm));
                }
                MicroOp::Op { kind, rd, rs1, rs2 } => {
                    let a = self.hart.get_x(rs1);
                    let b = self.hart.get_x(rs2);
                    self.hart.set_x(rd, kind.eval(a, b));
                }
                MicroOp::Unary { kind, rd, rs1 } => {
                    let a = self.hart.get_x(rs1);
                    self.hart.set_x(rd, kind.eval(a));
                }
                MicroOp::Fence => {}
                MicroOp::FLoad {
                    width,
                    frd,
                    rs1,
                    offset,
                } => {
                    let addr = self.hart.get_x(rs1).wrapping_add(offset as i64 as u64);
                    let bits = memtrap!(load_f(mem, &mut self.hints.load, width, addr));
                    self.hart.set_f(frd, bits);
                    d_loads += 1;
                }
                MicroOp::FStore {
                    width,
                    frs2,
                    rs1,
                    offset,
                } => {
                    let gen_before = mem.code_generation();
                    let addr = self.hart.get_x(rs1).wrapping_add(offset as i64 as u64);
                    let bits = self.hart.get_f(frs2);
                    memtrap!(store_f(mem, &mut self.hints.store, width, addr, bits));
                    stored!(gen_before);
                }
            }
            // Straight-line tail: only non-store, non-exit ops reach here
            // (stores run their own tail plus the self-modification guard;
            // exit ops returned above; Generic advanced pc itself).
            pc = next_pc;
            retired += 1;
            d_cycles += u.cost as u64;
        }
        flush!();
        Ok(retired)
    }

    /// Decodes a basic block starting at `pc` from `code`, the bytes of
    /// the executable region holding `pc` from `pc` to the region end
    /// (fingerprinted `fingerprint`), and caches it.
    ///
    /// One pass: each instruction is read from `code`, decoded and gated
    /// by `decode_gated` (the gate [`Cpu::step`] uses) and lowered
    /// straight into the reused `build_buf`, which is copied once into the
    /// block's body. The block ends at the first control-transfer or
    /// system instruction (included), at [`BlockCache::max_block_insts`],
    /// at the region end, or just before the first instruction that does
    /// not decode or is gated off.
    ///
    /// A 4-byte instruction whose upper parcel lies past the region end is
    /// never cached — the block's fingerprint only covers the region
    /// holding its start pc, so a write to the neighbour region would not
    /// invalidate it — and the block ends before it. When the *first*
    /// instruction cannot be cached for any of these reasons nothing is
    /// built and `None` tells the caller to run it uncached with
    /// [`Cpu::step`], which raises its trap, if any, with the exact
    /// uncached semantics (lazy rewriting may legalise those bytes later,
    /// so they must stay uncached).
    fn build_block(
        &mut self,
        pc: u64,
        fingerprint: (u64, u64),
        code: &[u8],
    ) -> Option<(u32, Arc<Block>)> {
        let parcel = |off: usize| {
            code.get(off..off + 2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]))
        };
        self.build_buf.clear();
        let mut off = 0;
        while self.build_buf.len() < BlockCache::max_block_insts() {
            // The region end, for the instruction or its upper parcel.
            let Some(lo) = parcel(off) else { break };
            let word = if lo & 0b11 == 0b11 {
                let Some(hi) = parcel(off + 2) else { break };
                (hi as u32) << 16 | lo as u32
            } else {
                lo as u32
            };
            // A later instruction that traps ends the block; the
            // dispatcher re-derives the trap when (if) pc gets there.
            let Ok(Decoded { inst, len }) = decode_gated(word, pc + off as u64, self.profile)
            else {
                break;
            };
            self.build_buf.push(lower(inst, len, &self.cost));
            off += len as usize;
            if inst.is_terminator() {
                break;
            }
        }
        if self.build_buf.is_empty() {
            return None;
        }
        let block = Block {
            ops: self.build_buf.as_slice().into(),
            region_start: fingerprint.0,
            region_gen: fingerprint.1,
        };
        if self.tracer.is_enabled() {
            self.tracer.record(
                self.stats.cycles,
                TraceEvent::BlockBuilt {
                    pc,
                    insts: block.ops.len() as u64,
                },
            );
            self.tracer.count("emu.blocks_built", 1);
        }
        Some(self.cache.insert(pc, self.profile, block))
    }

    /// Executes a decoded instruction (pc at `self.hart.pc`, length `len`).
    pub(crate) fn exec(&mut self, mem: &mut Memory, inst: Inst, len: u64) -> Result<(), Trap> {
        let h = &mut self.hart;
        let pc = h.pc;
        let mut next_pc = pc + len;
        let mut taken = false;

        macro_rules! memtrap {
            ($e:expr) => {
                $e.map_err(|fault| Trap::Mem { pc, fault })?
            };
        }

        match inst {
            Inst::Lui { rd, imm20 } => h.set_x(rd, ((imm20 as i64) << 12) as u64),
            Inst::Auipc { rd, imm20 } => {
                h.set_x(rd, pc.wrapping_add(((imm20 as i64) << 12) as u64))
            }
            Inst::Jal { rd, offset } => {
                h.set_x(rd, pc + len);
                next_pc = pc.wrapping_add(offset as i64 as u64);
                taken = true;
            }
            Inst::Jalr { rd, rs1, offset } => {
                let target = h.get_x(rs1).wrapping_add(offset as i64 as u64) & !1;
                h.set_x(rd, pc + len);
                next_pc = target;
                taken = true;
                self.stats.indirect_jumps += 1;
            }
            Inst::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let a = h.get_x(rs1);
                let b = h.get_x(rs2);
                if kind.eval(a, b) {
                    next_pc = pc.wrapping_add(offset as i64 as u64);
                    taken = true;
                }
                self.stats.branches += 1;
            }
            Inst::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let addr = h.get_x(rs1).wrapping_add(offset as i64 as u64);
                let hint = &mut self.hints.load;
                let v = match kind {
                    LoadKind::Lb => {
                        memtrap!(mem.read_hinted::<1>(hint, addr))[0] as i8 as i64 as u64
                    }
                    LoadKind::Lbu => memtrap!(mem.read_hinted::<1>(hint, addr))[0] as u64,
                    LoadKind::Lh => {
                        i16::from_le_bytes(memtrap!(mem.read_hinted::<2>(hint, addr))) as i64 as u64
                    }
                    LoadKind::Lhu => {
                        u16::from_le_bytes(memtrap!(mem.read_hinted::<2>(hint, addr))) as u64
                    }
                    LoadKind::Lw => {
                        i32::from_le_bytes(memtrap!(mem.read_hinted::<4>(hint, addr))) as i64 as u64
                    }
                    LoadKind::Lwu => {
                        u32::from_le_bytes(memtrap!(mem.read_hinted::<4>(hint, addr))) as u64
                    }
                    LoadKind::Ld => u64::from_le_bytes(memtrap!(mem.read_hinted::<8>(hint, addr))),
                };
                h.set_x(rd, v);
                self.stats.loads += 1;
            }
            Inst::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let addr = h.get_x(rs1).wrapping_add(offset as i64 as u64);
                let v = h.get_x(rs2);
                let hint = &mut self.hints.store;
                match kind {
                    StoreKind::Sb => memtrap!(mem.write_hinted(hint, addr, &[v as u8])),
                    StoreKind::Sh => {
                        memtrap!(mem.write_hinted(hint, addr, &(v as u16).to_le_bytes()))
                    }
                    StoreKind::Sw => {
                        memtrap!(mem.write_hinted(hint, addr, &(v as u32).to_le_bytes()))
                    }
                    StoreKind::Sd => memtrap!(mem.write_hinted(hint, addr, &v.to_le_bytes())),
                }
                self.stats.stores += 1;
            }
            Inst::OpImm { kind, rd, rs1, imm } => {
                let a = h.get_x(rs1);
                h.set_x(rd, kind.eval(a, imm));
            }
            Inst::Op { kind, rd, rs1, rs2 } => {
                let a = h.get_x(rs1);
                let b = h.get_x(rs2);
                h.set_x(rd, kind.eval(a, b));
            }
            Inst::Unary { kind, rd, rs1 } => {
                let a = h.get_x(rs1);
                h.set_x(rd, kind.eval(a));
            }
            Inst::Fence => {}
            Inst::Ecall => return Err(Trap::Ecall { pc }),
            Inst::Ebreak => {
                self.stats.ebreaks += 1;
                return Err(Trap::Breakpoint { pc });
            }
            Inst::FLoad {
                width,
                frd,
                rs1,
                offset,
            } => {
                let addr = h.get_x(rs1).wrapping_add(offset as i64 as u64);
                let hint = &mut self.hints.load;
                let bits = match width {
                    FpWidth::S => {
                        u32::from_le_bytes(memtrap!(mem.read_hinted::<4>(hint, addr))) as u64
                    }
                    FpWidth::D => u64::from_le_bytes(memtrap!(mem.read_hinted::<8>(hint, addr))),
                };
                h.set_fp(width, frd, bits);
                self.stats.loads += 1;
            }
            Inst::FStore {
                width,
                frs2,
                rs1,
                offset,
            } => {
                let addr = h.get_x(rs1).wrapping_add(offset as i64 as u64);
                let hint = &mut self.hints.store;
                match width {
                    FpWidth::S => {
                        memtrap!(mem.write_hinted(
                            hint,
                            addr,
                            &(h.get_f(frs2) as u32).to_le_bytes()
                        ))
                    }
                    FpWidth::D => {
                        memtrap!(mem.write_hinted(hint, addr, &h.get_f(frs2).to_le_bytes()))
                    }
                }
                self.stats.stores += 1;
            }
            Inst::FOp {
                kind,
                width,
                frd,
                frs1,
                frs2,
            } => {
                let (a, b) = (h.get_fp(width, frs1), h.get_fp(width, frs2));
                h.set_fp(width, frd, kind.eval(width, a, b));
            }
            Inst::FCmp {
                kind,
                width,
                rd,
                frs1,
                frs2,
            } => {
                let (a, b) = (h.get_fp(width, frs1), h.get_fp(width, frs2));
                h.set_x(rd, kind.eval(width, a, b));
            }
            Inst::FMvToX { width, rd, frs1 } => {
                let v = match width {
                    FpWidth::S => h.get_f(frs1) as u32 as i32 as i64 as u64,
                    FpWidth::D => h.get_f(frs1),
                };
                h.set_x(rd, v);
            }
            Inst::FMvToF { width, frd, rs1 } => h.set_fp(width, frd, h.get_x(rs1)),
            Inst::FCvtToF {
                width,
                from,
                signed,
                frd,
                rs1,
            } => {
                let raw = h.get_x(rs1);
                let val: f64 = match (from, signed) {
                    (IntWidth::W, true) => raw as u32 as i32 as f64,
                    (IntWidth::W, false) => raw as u32 as f64,
                    (IntWidth::L, true) => raw as i64 as f64,
                    (IntWidth::L, false) => raw as f64,
                };
                match width {
                    FpWidth::S => h.set_s(frd, val as f32),
                    FpWidth::D => h.set_d(frd, val),
                }
            }
            Inst::FCvtToInt {
                width,
                to,
                signed,
                rd,
                frs1,
            } => {
                let val: f64 = match width {
                    FpWidth::S => h.get_s(frs1) as f64,
                    FpWidth::D => h.get_d(frs1),
                };
                let v = fcvt_to_int(val, to, signed);
                h.set_x(rd, v);
            }
            Inst::FCvtFF { to, frd, frs1 } => match to {
                FpWidth::S => {
                    let v = h.get_d(frs1);
                    h.set_s(frd, v as f32);
                }
                FpWidth::D => {
                    let v = h.get_s(frs1);
                    h.set_d(frd, v as f64);
                }
            },
            Inst::FMa {
                kind,
                width,
                frd,
                frs1,
                frs2,
                frs3,
            } => {
                let (a, b) = (h.get_fp(width, frs1), h.get_fp(width, frs2));
                let c = h.get_fp(width, frs3);
                h.set_fp(width, frd, kind.eval(width, a, b, c));
            }
            Inst::Vsetvli { rd, rs1, vtype } => {
                let vlmax = Hart::vlmax(vtype);
                let avl = if rs1 == XReg::ZERO {
                    if rd == XReg::ZERO {
                        h.vl // Keep existing vl (vtype change only).
                    } else {
                        vlmax
                    }
                } else {
                    h.get_x(rs1)
                };
                h.vl = avl.min(vlmax);
                h.vtype = Some(vtype);
                let vl = h.vl;
                h.set_x(rd, vl);
                self.stats.vector_insts += 1;
            }
            Inst::VLoad { eew, vd, rs1 } => {
                within_one_register(pc, inst, h.vl, eew)?;
                let base = h.get_x(rs1);
                let vl = h.vl;
                let hint = &mut self.hints.load;
                for i in 0..vl {
                    let addr = base + i * eew.bytes();
                    let v = match eew {
                        Eew::E8 => memtrap!(mem.read_hinted::<1>(hint, addr))[0] as u64,
                        Eew::E16 => {
                            u16::from_le_bytes(memtrap!(mem.read_hinted::<2>(hint, addr))) as u64
                        }
                        Eew::E32 => {
                            u32::from_le_bytes(memtrap!(mem.read_hinted::<4>(hint, addr))) as u64
                        }
                        Eew::E64 => u64::from_le_bytes(memtrap!(mem.read_hinted::<8>(hint, addr))),
                    };
                    h.set_v_elem(vd, eew, i as usize, v);
                }
                self.stats.loads += 1;
                self.stats.vector_insts += 1;
            }
            Inst::VStore { eew, vs3, rs1 } => {
                within_one_register(pc, inst, h.vl, eew)?;
                let base = h.get_x(rs1);
                let vl = h.vl;
                let hint = &mut self.hints.store;
                for i in 0..vl {
                    let addr = base + i * eew.bytes();
                    let v = h.v_elem(vs3, eew, i as usize);
                    let bytes = v.to_le_bytes();
                    memtrap!(mem.write_hinted(hint, addr, &bytes[..eew.bytes() as usize]));
                }
                self.stats.stores += 1;
                self.stats.vector_insts += 1;
            }
            Inst::VArith { op, vd, vs2, src } => {
                if let Some(vtype) = h.vtype {
                    within_one_register(pc, inst, h.vl, vtype.sew)?;
                }
                exec_varith(h, op, vd, vs2, src);
                self.stats.vector_insts += 1;
            }
            Inst::VMvXS { rd, vs2 } => {
                let sew = h.vtype.map(|t| t.sew).unwrap_or(Eew::E64);
                let v = h.v_elem(vs2, sew, 0);
                h.set_x(rd, sew.sext(v));
                self.stats.vector_insts += 1;
            }
            Inst::VMvSX { vd, rs1 } => {
                let sew = h.vtype.map(|t| t.sew).unwrap_or(Eew::E64);
                let v = h.get_x(rs1);
                h.set_v_elem(vd, sew, 0, v);
                self.stats.vector_insts += 1;
            }
        }

        // Commit pc and account cost. `vl_words` only feeds the vector
        // variants' lane costs (asserted in `cost.rs` tests), so skip the
        // vtype math everywhere else — a measurable win in the hot loop
        // with identical accounting.
        self.hart.pc = next_pc;
        self.stats.instret += 1;
        let vl_words = match inst {
            Inst::VLoad { .. } | Inst::VStore { .. } | Inst::VArith { .. } => {
                let sew_bits = self.hart.vtype.map(|t| t.sew.bits()).unwrap_or(64) as u64;
                (self.hart.vl * sew_bits).div_ceil(64)
            }
            _ => 0,
        };
        self.stats.cycles += self.cost.cost(&inst, vl_words, taken);
        Ok(())
    }
}

/// Checks that a vector access of `vl` elements of `width` stays within
/// one register's `VLENB` bytes: register groups (LMUL > 1, or an EEW
/// wider than SEW at the same `vl`) are not modelled, so such an access is
/// an illegal instruction, raised before any state changes.
#[inline(always)]
fn within_one_register(pc: u64, inst: Inst, vl: u64, width: Eew) -> Result<(), Trap> {
    if vl * width.bytes() <= VLENB as u64 {
        return Ok(());
    }
    // Vector instructions have no compressed form: `raw` is the 32-bit
    // canonical encoding of what was decoded (and so always encodes).
    let raw = encode(&inst).unwrap_or_default();
    Err(Trap::Illegal { pc, raw })
}

/// Decodes `word`, the instruction at `pc`, and gates it on `profile`: the
/// canonical instruction's extension, plus the C extension when the
/// encoding was compressed. The front end's one gate — [`Cpu::step`]'s
/// fetch and the block builder both call it, so a block's first
/// instruction traps exactly as the uncached step does.
#[inline(always)]
fn decode_gated(word: u32, pc: u64, profile: ExtSet) -> Result<Decoded, Trap> {
    let decoded = decode(word).map_err(|e| Trap::Illegal { pc, raw: e.raw() })?;
    if !decoded.inst.runnable_on(profile) || (decoded.len == 2 && !profile.contains(Ext::C)) {
        return Err(Trap::Illegal { pc, raw: word });
    }
    Ok(decoded)
}

/// Whether `block`'s own region fingerprint is still current — the
/// per-region mid-block self-modification guard shared by the interpreter
/// and the engine. Stores that bumped *other* executable regions leave the
/// block intact (its bytes cannot have changed), so cross-region SMC no
/// longer bails or cold-starts unrelated blocks.
pub(crate) fn block_intact(mem: &mut Memory, block: &Block) -> bool {
    mem.code_fingerprint(block.region_start) == Some((block.region_start, block.region_gen))
}

/// Scalar load through the hinted path, extended to the register value.
/// The four `load_*` / `store_*` helpers are the fast tiers' one
/// implementation — the engine's arms and the JIT's mirror-miss call-outs.
/// `Cpu::exec` deliberately keeps its own arms: it is the reference the
/// tiers are compared against.
#[inline(always)]
pub(crate) fn load_x(
    mem: &mut Memory,
    hint: &mut RegionHint,
    kind: LoadKind,
    addr: u64,
) -> Result<u64, MemFault> {
    Ok(match kind {
        LoadKind::Lb => mem.read_hinted::<1>(hint, addr)?[0] as i8 as i64 as u64,
        LoadKind::Lbu => mem.read_hinted::<1>(hint, addr)?[0] as u64,
        LoadKind::Lh => i16::from_le_bytes(mem.read_hinted::<2>(hint, addr)?) as i64 as u64,
        LoadKind::Lhu => u16::from_le_bytes(mem.read_hinted::<2>(hint, addr)?) as u64,
        LoadKind::Lw => i32::from_le_bytes(mem.read_hinted::<4>(hint, addr)?) as i64 as u64,
        LoadKind::Lwu => u32::from_le_bytes(mem.read_hinted::<4>(hint, addr)?) as u64,
        LoadKind::Ld => u64::from_le_bytes(mem.read_hinted::<8>(hint, addr)?),
    })
}

/// Scalar store of the low bytes of `v` through the hinted path.
#[inline(always)]
pub(crate) fn store_x(
    mem: &mut Memory,
    hint: &mut RegionHint,
    kind: StoreKind,
    addr: u64,
    v: u64,
) -> Result<(), MemFault> {
    match kind {
        StoreKind::Sb => mem.write_hinted(hint, addr, &[v as u8]),
        StoreKind::Sh => mem.write_hinted(hint, addr, &(v as u16).to_le_bytes()),
        StoreKind::Sw => mem.write_hinted(hint, addr, &(v as u32).to_le_bytes()),
        StoreKind::Sd => mem.write_hinted(hint, addr, &v.to_le_bytes()),
    }
}

/// FP load through the hinted path: the register bits, a single NaN-boxed.
#[inline(always)]
pub(crate) fn load_f(
    mem: &mut Memory,
    hint: &mut RegionHint,
    width: FpWidth,
    addr: u64,
) -> Result<u64, MemFault> {
    Ok(match width {
        FpWidth::S => width.nan_box(u32::from_le_bytes(mem.read_hinted::<4>(hint, addr)?) as u64),
        FpWidth::D => u64::from_le_bytes(mem.read_hinted::<8>(hint, addr)?),
    })
}

/// FP store of the register bits `bits` through the hinted path.
#[inline(always)]
pub(crate) fn store_f(
    mem: &mut Memory,
    hint: &mut RegionHint,
    width: FpWidth,
    addr: u64,
    bits: u64,
) -> Result<(), MemFault> {
    match width {
        FpWidth::S => mem.write_hinted(hint, addr, &(bits as u32).to_le_bytes()),
        FpWidth::D => mem.write_hinted(hint, addr, &bits.to_le_bytes()),
    }
}

/// RISC-V `fcvt.*` semantics: saturating, with NaN mapping to the maximum
/// value (unlike Rust's `as`, which maps NaN to 0).
fn fcvt_to_int(val: f64, to: IntWidth, signed: bool) -> u64 {
    match (to, signed) {
        (IntWidth::W, true) => {
            let v = if val.is_nan() { i32::MAX } else { val as i32 };
            v as i64 as u64
        }
        (IntWidth::W, false) => {
            let v = if val.is_nan() { u32::MAX } else { val as u32 };
            v as i32 as i64 as u64
        }
        (IntWidth::L, true) => {
            let v = if val.is_nan() { i64::MAX } else { val as i64 };
            v as u64
        }
        (IntWidth::L, false) => {
            if val.is_nan() {
                u64::MAX
            } else {
                val as u64
            }
        }
    }
}

/// Executes a vector arithmetic instruction: per element, the scalar row
/// [`VArithOp::element`] names, on operands read by the rule stated there.
fn exec_varith(h: &mut Hart, op: VArithOp, vd: VReg, vs2: VReg, src: VSrc) {
    let Some(vtype) = h.vtype else {
        return; // No configuration yet: architecturally vl = 0.
    };
    let (sew, element, vl) = (vtype.sew, op.element(), h.vl as usize);
    if op.is_reduction() {
        let init = match src {
            VSrc::V(vs1) => h.v_elem(vs1, sew, 0),
            _ => 0,
        };
        let fold = |acc, i| element.eval(sew, acc, h.v_elem(vs2, sew, i), 0);
        let acc = (0..vl).fold(init, fold);
        h.set_v_elem(vd, sew, 0, acc);
        return;
    }
    for i in 0..vl {
        let s = match src {
            VSrc::V(vs1) => h.v_elem(vs1, sew, i),
            VSrc::X(rs1) => h.get_x(rs1),
            VSrc::F(frs1) => sew.fp().map_or(h.get_f(frs1), |w| h.get_fp(w, frs1)),
            VSrc::I(imm) => imm as i64 as u64,
        };
        let r = element.eval(sew, h.v_elem(vs2, sew, i), s, h.v_elem(vd, sew, i));
        h.set_v_elem(vd, sew, i, r);
    }
}
