//! The host-code JIT execution tier.
//!
//! Three tiers share one front end: the decode-cached interpreter, the
//! micro-op engine, and this tier, which template-compiles hot lowered
//! block bodies to x86-64 and runs them out of a W^X-toggled arena (see
//! [`exec`]). There is no optimizing IR: each [`MicroOp`] expands to a
//! fixed instruction template ([`compile`]), and everything the templates
//! cannot express — `Generic` delegates, faultable accesses that miss the
//! region mirror, multi-instruction ALU kinds — calls back into the
//! interpreter's own helpers through a fixed `extern "C"` surface, so the
//! semantics have exactly one implementation.
//!
//! ## Tiering
//!
//! The one dispatcher (`Cpu::step_engine`) offers every block entry to
//! [`try_enter`] when `ExecMode::Jit` is selected; a block the tier
//! declines runs through the engine, jump cache included. The tier
//! counts entries per guest pc, and promotion past the deterministic
//! hotness threshold has two steps. The block body is *compiled* at once
//! — [`compile`] is a pure function of the lowered ops and the pc — but
//! the trace only joins a queue, and the block keeps running in the
//! engine. The queue is *published* by one routine, [`publish`], under
//! one W^X toggle of the arena: a toggle costs two `mprotect` calls,
//! several times what compiling a trace costs, so it has to be shared.
//! Publication is due when the queue holds a batch of traces, or when the
//! dispatcher has taken a bounded number of round trips that queued work
//! would have served (`JitTier::publication_due`); both bounds derive
//! from the promotion threshold and depend on dispatch history only, so
//! publication points are deterministic, and at threshold 1 they
//! degenerate to publishing everything at once — through the same code.
//!
//! Compiled traces chain: when a Fall/Taken exit is taken and its
//! successor is resident, a patch is queued; publication turns the exit
//! slot into a direct `jmp` to the successor's *chain entry*, which
//! revalidates the generation stamp and fuel on every entry — patching is
//! a pure optimization, never a validity assumption.
//!
//! ## Invalidation contract
//!
//! Traces are validated by the same (generation stamp, region
//! fingerprint) contract as the engine's jump cache: a stamp match is the
//! fast path; on a mismatch the trace is revalidated against its region
//! fingerprint and either restamped (some *other* region changed) or
//! severed — its stamp poisoned, which alone makes it unreachable since
//! every entry checks it, and the restore of every patched jump into it
//! to the original exit-slot bytes, byte-for-byte, queued for the next
//! publication. A queued trace keeps its *compile-time* stamp, so
//! however long it waits it is validated before its first entry; guest
//! code that changed in between severs it unexecuted. Mode switches, a
//! change of the core's profile and a full arena drop the queue along
//! with every resident trace.
//! Severed-by-invalidation pcs pay a doubled re-promotion threshold
//! (hysteresis), so an alternating SMC workload settles into the engine
//! tier instead of ping-ponging compile/sever cycles. Re-promotion after
//! an identical poke recompiles bit-identical code, which the SMC
//! regression suite asserts.
//!
//! ## Transparency
//!
//! Architectural effects are identical to the engine tier: register
//! writes go straight to the `Hart` array, memory accesses either hit a
//! per-trace region mirror (bounds-checked against the live region) or
//! call back into the hinted `Memory` paths, and `ExecStats` deltas are
//! batched in the [`JitCtx`] and drained at exits — the same observable
//! boundaries the engine uses. The differential fuzzing oracle holds all
//! four [`crate::ExecMode`]s — this one at an immediate and at a
//! deferring threshold — to full `Obs` equality plus the counter law
//! `hits(interp) == hits(jit) + chained(jit) + jitted(jit)`.

mod asm;
mod compile;
mod exec;

pub use exec::jit_available;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use chimera_isa::ExtSet;
use chimera_trace::TraceEvent;

use crate::bbcache::Block;
use crate::cpu::{block_intact, load_f, load_x, store_f, store_x, Cpu, Trap};
use crate::mem::{MemFault, Memory};
use crate::uop::{MicroOp, Uop};

use compile::{
    compile, epilogue_code, patched_exit_bytes, ExitSlot, EXIT_PATCH_JMP_END, EXIT_SLOT_LEN,
    ST_BAIL, ST_BUDGET, ST_FALL, ST_INDIRECT, ST_REVAL, ST_TAKEN, ST_TRAP,
};
use exec::{call_entry, Arena};

/// The register/stack frame emitted traces operate against. The layout is
/// part of the template ABI: every field offset up to `epilogue` is baked
/// into emitted code via [`off`], so fields must not be reordered without
/// recompiling the world (which a process restart does by construction —
/// nothing is persisted).
///
/// The leading `u64` block is the delta accumulator: counters the
/// templates bump with plain `add qword [r12+N], imm` and the runtime
/// drains into `ExecStats` at exits. Retired instructions have no
/// counter of their own: templates only decrement `fuel`, and drains
/// credit `fuel_anchor - fuel` to `ExecStats::instret`.
#[repr(C)]
struct JitCtx {
    /// Guest pc, committed at every observable boundary.
    pc: u64,
    /// Remaining instruction budget. The retired-instruction delta is
    /// *derived* from fuel (`fuel_anchor - fuel` at every drain), so the
    /// templates never maintain a separate instret counter.
    fuel: u64,
    /// Batched `ExecStats::cycles` delta.
    d_cycles: u64,
    /// Batched `ExecStats::loads` delta.
    d_loads: u64,
    /// Batched `ExecStats::stores` delta.
    d_stores: u64,
    /// Batched `ExecStats::branches` delta.
    d_branches: u64,
    /// Batched `ExecStats::indirect_jumps` delta.
    d_indirect: u64,
    /// Batched `CacheStats::jitted` delta (chain entries taken).
    d_jitted: u64,
    /// The code generation every chain-entry stamp check compares against.
    cur_gen: u64,
    /// Trace currently executing (indexes `stamps`/`blocks`).
    cur_trace: u64,
    /// Trace that reached the epilogue (written by the epilogue itself).
    exit_from: u64,
    /// Per-trace generation stamps (`JitTier::stamps`).
    stamps: *const u64,
    /// Per-trace lowered blocks, for helper uop recovery
    /// (`JitTier::block_ptrs`).
    blocks: *const *const Block,
    /// The hart's x-register array.
    xregs: *mut u64,
    /// Load-mirror backing bytes (null until the first helper load).
    ld_base: *mut u8,
    /// Load-mirror region start address.
    ld_start: u64,
    /// Load-mirror limits per log2(width): `addr - start < lim[k]` means
    /// the whole access is in bounds.
    ld_lim: [u64; 4],
    /// Store-mirror backing bytes (writable non-executable regions only,
    /// so SMC bookkeeping is never bypassed).
    st_base: *mut u8,
    /// Store-mirror region start address.
    st_start: u64,
    /// Store-mirror limits per log2(width).
    st_lim: [u64; 4],
    /// Helper entry points, called as `call qword [r12 + H_*]`.
    h_load: u64,
    /// Scalar-store helper.
    h_store: u64,
    /// FP-load helper.
    h_fload: u64,
    /// FP-store helper.
    h_fstore: u64,
    /// `MicroOp::Generic` delegate helper.
    h_generic: u64,
    /// Cold register-immediate ALU helper.
    h_opimm: u64,
    /// Cold register-register ALU helper.
    h_op: u64,
    /// Unary (bit-manipulation) helper.
    h_unary: u64,
    /// Absolute address of the shared epilogue (arena offset 0).
    epilogue: u64,
    /// The hart's FP register file (raw bits; NaN boxing is the
    /// template's job, mirroring `jit_fload`).
    fregs: *mut u64,
    /// Indirect-branch target table keys: guest pcs, direct-mapped by
    /// `(pc >> 1) & (IBT_LEN - 1)`, empty slots hold `u64::MAX`.
    ibt_keys: *const u64,
    /// Indirect-branch target table values: absolute addresses of the
    /// matching traces' indirect entries.
    ibt_vals: *const u64,
    // --- Rust-only tail: never touched by emitted code. ---
    /// `fuel` at the last drain; `fuel_anchor - fuel` is the
    /// scalar-retired count the next drain owes `ExecStats::instret`.
    fuel_anchor: u64,
    /// The owning core, for helper call-outs.
    cpu: *mut Cpu,
    /// Guest memory, for helper call-outs.
    mem: *mut Memory,
    /// A trap recorded by a helper (drives the `ST_TRAP` exit).
    trap: Option<Trap>,
}

/// `JitCtx` field offsets for the emitter. Emitted code addresses the
/// context exclusively as `[r12 + off::X]`.
mod off {
    use super::JitCtx;
    use std::mem::offset_of;

    pub(super) const PC: i32 = offset_of!(JitCtx, pc) as i32;
    pub(super) const FUEL: i32 = offset_of!(JitCtx, fuel) as i32;
    pub(super) const D_CYCLES: i32 = offset_of!(JitCtx, d_cycles) as i32;
    pub(super) const D_LOADS: i32 = offset_of!(JitCtx, d_loads) as i32;
    pub(super) const D_STORES: i32 = offset_of!(JitCtx, d_stores) as i32;
    pub(super) const D_BRANCHES: i32 = offset_of!(JitCtx, d_branches) as i32;
    pub(super) const D_INDIRECT: i32 = offset_of!(JitCtx, d_indirect) as i32;
    pub(super) const D_JITTED: i32 = offset_of!(JitCtx, d_jitted) as i32;
    pub(super) const CUR_GEN: i32 = offset_of!(JitCtx, cur_gen) as i32;
    pub(super) const CUR_TRACE: i32 = offset_of!(JitCtx, cur_trace) as i32;
    pub(super) const EXIT_FROM: i32 = offset_of!(JitCtx, exit_from) as i32;
    pub(super) const STAMPS: i32 = offset_of!(JitCtx, stamps) as i32;
    pub(super) const XREGS: i32 = offset_of!(JitCtx, xregs) as i32;
    pub(super) const LD_BASE: i32 = offset_of!(JitCtx, ld_base) as i32;
    pub(super) const LD_START: i32 = offset_of!(JitCtx, ld_start) as i32;
    pub(super) const LD_LIM: i32 = offset_of!(JitCtx, ld_lim) as i32;
    pub(super) const ST_BASE: i32 = offset_of!(JitCtx, st_base) as i32;
    pub(super) const ST_START: i32 = offset_of!(JitCtx, st_start) as i32;
    pub(super) const ST_LIM: i32 = offset_of!(JitCtx, st_lim) as i32;
    pub(super) const H_LOAD: i32 = offset_of!(JitCtx, h_load) as i32;
    pub(super) const H_STORE: i32 = offset_of!(JitCtx, h_store) as i32;
    pub(super) const H_FLOAD: i32 = offset_of!(JitCtx, h_fload) as i32;
    pub(super) const H_FSTORE: i32 = offset_of!(JitCtx, h_fstore) as i32;
    pub(super) const H_GENERIC: i32 = offset_of!(JitCtx, h_generic) as i32;
    pub(super) const H_OPIMM: i32 = offset_of!(JitCtx, h_opimm) as i32;
    pub(super) const H_OP: i32 = offset_of!(JitCtx, h_op) as i32;
    pub(super) const H_UNARY: i32 = offset_of!(JitCtx, h_unary) as i32;
    pub(super) const EPILOGUE: i32 = offset_of!(JitCtx, epilogue) as i32;
    pub(super) const FREGS: i32 = offset_of!(JitCtx, fregs) as i32;
    pub(super) const IBT_KEYS: i32 = offset_of!(JitCtx, ibt_keys) as i32;
    pub(super) const IBT_VALS: i32 = offset_of!(JitCtx, ibt_vals) as i32;
}

/// Indirect-branch target table size (power of two). Direct-mapped:
/// collisions just evict, severs remove, flushes clear — the table is a
/// pure optimization and every hit still runs the target's chain-entry
/// stamp and fuel checks.
pub(super) const IBT_LEN: usize = 2048;

/// The direct-mapped IBT slot for a guest pc (instructions are at least
/// 2-byte aligned, so bit 0 carries no information).
fn ibt_slot(pc: u64) -> usize {
    (pc >> 1) as usize & (IBT_LEN - 1)
}

/// Flushes the batched deltas into `ExecStats`/`CacheStats` and
/// re-anchors the architectural pc — the JIT's equivalent of the engine's
/// `flush!()`. Idempotent: every delta is zeroed as it lands.
fn drain(ctx: &mut JitCtx, cpu: &mut Cpu) {
    cpu.stats.instret += ctx.fuel_anchor - ctx.fuel;
    ctx.fuel_anchor = ctx.fuel;
    cpu.stats.cycles += ctx.d_cycles;
    cpu.stats.loads += ctx.d_loads;
    cpu.stats.stores += ctx.d_stores;
    cpu.stats.branches += ctx.d_branches;
    cpu.stats.indirect_jumps += ctx.d_indirect;
    cpu.cache.stats.jitted += ctx.d_jitted;
    ctx.d_cycles = 0;
    ctx.d_loads = 0;
    ctx.d_stores = 0;
    ctx.d_branches = 0;
    ctx.d_indirect = 0;
    ctx.d_jitted = 0;
    cpu.hart.pc = ctx.pc;
}

/// Records a memory fault and selects the trap exit. Mirrors the engine's
/// `memtrap!`: `ctx.pc` already sits on the faulting op (committed before
/// the call-out), which contributes nothing to the stats.
fn fault_exit(ctx: &mut JitCtx, fault: MemFault) -> u64 {
    ctx.trap = Some(Trap::Mem { pc: ctx.pc, fault });
    ST_TRAP as u64
}

/// Per-width fast-path limits for a region of `len` bytes: an access of
/// width `1 << k` at `start + d` is fully in bounds iff `d < lim[k]`.
fn mirror_limits(len: usize) -> [u64; 4] {
    let mut lim = [0u64; 4];
    for (k, slot) in lim.iter_mut().enumerate() {
        let w = 1usize << k;
        *slot = if len >= w { (len - w + 1) as u64 } else { 0 };
    }
    lim
}

/// Re-aims the load mirror at the region containing `addr`, if readable.
fn refresh_load_mirror(ctx: &mut JitCtx, mem: &mut Memory, addr: u64) {
    if let Some((base, start, len)) = mem.region_raw(addr, false) {
        ctx.ld_base = base;
        ctx.ld_start = start;
        ctx.ld_lim = mirror_limits(len);
    }
}

/// Re-aims the store mirror at the region containing `addr`. Only
/// writable *non-executable* regions are mirrored — stores to executable
/// regions must keep taking the `write_hinted` slow path so the
/// self-modifying-code generation bookkeeping is never bypassed.
fn refresh_store_mirror(ctx: &mut JitCtx, mem: &mut Memory, addr: u64) {
    if let Some((base, start, len)) = mem.region_raw(addr, true) {
        ctx.st_base = base;
        ctx.st_start = start;
        ctx.st_lim = mirror_limits(len);
    }
}

/// The lowered block of the currently executing trace.
///
/// # Safety
///
/// `ctx.blocks`/`ctx.cur_trace` must describe live `JitTier` state (true
/// for the duration of [`execute`]).
unsafe fn ctx_block<'a>(ctx: &JitCtx) -> &'a Block {
    unsafe { &**ctx.blocks.add(ctx.cur_trace as usize) }
}

/// The uop a helper call-out was compiled from.
///
/// # Safety
///
/// See [`ctx_block`]; `op_idx` must index its `ops` (guaranteed by the
/// emitter, which bakes the index into the call site).
unsafe fn ctx_uop(ctx: &JitCtx, op_idx: u64) -> Uop {
    unsafe { ctx_block(ctx) }.ops[op_idx as usize]
}

/// Scalar-load call-out (mirror miss). Performs the access through the
/// hinted path, writes `rd`, re-aims the mirror, and returns 0 — or the
/// trap exit status on a fault.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_load(ctx: *mut JitCtx, addr: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let MicroOp::Load { kind, rd, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("load helper compiled against a non-load uop");
    };
    let v = match load_x(mem, &mut cpu.hints.load, kind, addr) {
        Ok(v) => v,
        Err(fault) => return fault_exit(ctx, fault),
    };
    cpu.hart.set_x(rd, v);
    refresh_load_mirror(ctx, mem, addr);
    0
}

/// Scalar-store call-out (mirror miss). On success the emitted constants
/// after the call account the op; on a mid-trace self-invalidation this
/// helper accounts the completed store itself and bails.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_store(ctx: *mut JitCtx, addr: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let block = unsafe { ctx_block(ctx) };
    let u = block.ops[op_idx as usize];
    let MicroOp::Store { kind, rs2, .. } = u.op else {
        unreachable!("store helper compiled against a non-store uop");
    };
    let gen_before = mem.code_generation();
    let wrote = store_x(mem, &mut cpu.hints.store, kind, addr, cpu.hart.get_x(rs2));
    finish_store(ctx, mem, block, u, addr, gen_before, wrote)
}

/// The tail the two store call-outs share: the fault exit, the mirror
/// re-aim, and the self-modifying-code guard.
fn finish_store(
    ctx: &mut JitCtx,
    mem: &mut Memory,
    block: &Block,
    u: Uop,
    addr: u64,
    gen_before: u64,
    wrote: Result<(), MemFault>,
) -> u64 {
    if let Err(fault) = wrote {
        return fault_exit(ctx, fault);
    }
    refresh_store_mirror(ctx, mem, addr);
    if mem.code_generation() != gen_before {
        if !block_intact(mem, block) {
            // The store retired but its compile-time constants sit after
            // the call and will never run; account it here, with pc on
            // the next op — the engine's Bail semantics exactly. (The
            // fuel decrement carries the instret credit.)
            ctx.d_stores += 1;
            ctx.d_cycles += u.cost as u64;
            ctx.fuel -= 1;
            ctx.pc += u.len as u64;
            return ST_BAIL as u64;
        }
        // Some *other* executable region changed: this trace's bytes are
        // intact, but every resident entry stamp is now stale. Chasing
        // the new generation forces chain entries through revalidation
        // instead of running potentially-invalidated successors.
        ctx.cur_gen = mem.code_generation();
    }
    0
}

/// FP-load call-out (mirror miss). Performs the access, NaN-boxes single
/// loads, and re-aims the load mirror so subsequent FP fast paths hit.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_fload(ctx: *mut JitCtx, addr: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let MicroOp::FLoad { width, frd, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("fp-load helper compiled against a non-fp-load uop");
    };
    match load_f(mem, &mut cpu.hints.load, width, addr) {
        Ok(bits) => cpu.hart.set_f(frd, bits),
        Err(fault) => return fault_exit(ctx, fault),
    }
    refresh_load_mirror(ctx, mem, addr);
    0
}

/// FP-store call-out; shares [`finish_store`] with [`jit_store`].
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_fstore(ctx: *mut JitCtx, addr: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let block = unsafe { ctx_block(ctx) };
    let u = block.ops[op_idx as usize];
    let MicroOp::FStore { width, frs2, .. } = u.op else {
        unreachable!("fp-store helper compiled against a non-fp-store uop");
    };
    let gen_before = mem.code_generation();
    let wrote = store_f(mem, &mut cpu.hints.store, width, addr, cpu.hart.get_f(frs2));
    finish_store(ctx, mem, block, u, addr, gen_before, wrote)
}

/// `MicroOp::Generic` delegate: drains the deltas (the engine's
/// `flush!()` before `Cpu::exec`), executes through the interpreter, and
/// re-anchors the context from the hart.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_generic(ctx: *mut JitCtx, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let block = unsafe { ctx_block(ctx) };
    let u = block.ops[op_idx as usize];
    let MicroOp::Generic(inst) = u.op else {
        unreachable!("generic helper compiled against a specialized uop");
    };
    let gen_before = mem.code_generation();
    drain(ctx, cpu);
    match cpu.exec(mem, inst, u.len as u64) {
        Err(t) => {
            ctx.trap = Some(t);
            ST_TRAP as u64
        }
        Ok(()) => {
            // `Cpu::exec` accounted pc/instret/cycles itself; only the
            // fuel and the context's pc anchor are ours. Re-anchor so
            // the next drain doesn't double-credit this instruction.
            ctx.fuel -= 1;
            ctx.fuel_anchor = ctx.fuel;
            ctx.pc = cpu.hart.pc;
            if mem.code_generation() != gen_before {
                if u.is_store && !block_intact(mem, block) {
                    return ST_BAIL as u64;
                }
                ctx.cur_gen = mem.code_generation();
            }
            0
        }
    }
}

/// Cold register-immediate ALU call-out (kinds without a template).
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_opimm(ctx: *mut JitCtx, a: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &*ctx };
    let MicroOp::OpImm { kind, imm, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("opimm helper compiled against a non-opimm uop");
    };
    kind.eval(a, imm)
}

/// Cold register-register ALU call-out (kinds without a template).
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_op(ctx: *mut JitCtx, a: u64, b: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &*ctx };
    let MicroOp::Op { kind, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("op helper compiled against a non-op uop");
    };
    kind.eval(a, b)
}

/// Unary bit-manipulation call-out.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_unary(ctx: *mut JitCtx, a: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &*ctx };
    let MicroOp::Unary { kind, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("unary helper compiled against a non-unary uop");
    };
    kind.eval(a)
}

/// Dispatcher entries of a valid cached block before its body is
/// template-compiled. Deterministic — it depends only on the execution
/// schedule, never on wall time, hart count or allocation state.
const DEFAULT_THRESHOLD: u32 = 16;

/// Executable arena size. A full arena flushes every trace and restarts;
/// 4 MiB is far above what the bench zoo ever compiles.
const ARENA_LEN: usize = 4 << 20;

/// Cap on demotions counted per pc: the hysteresis multiplier stops
/// doubling at `1 << 20`.
const MAX_DEMOTIONS: u8 = 20;

/// [`Trace::code_off`] of a compiled trace still waiting on the queue.
const UNPUBLISHED: usize = usize::MAX;

/// Multiplicative hash for guest-pc keys: a multiply and a fold where
/// SipHash costs three probes' worth of a cold block's whole dispatch.
/// The keys are guest-chosen, but a guest that crafts collisions slows
/// only its own lookups.
#[derive(Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("pc keys hash through write_u64");
    }
    fn write_u64(&mut self, pc: u64) {
        let h = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything the tier knows about one guest pc — one probe per block
/// entry.
#[derive(Debug, Default)]
struct PcState {
    /// Block entries counted toward promotion (0 once compiled).
    heat: u32,
    /// Severs by invalidation: each doubles the promotion threshold
    /// (demotion hysteresis).
    demotions: u8,
    /// The live trace compiled for this pc, published or still queued.
    trace: Option<u32>,
}

/// The state of one patchable exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// The original exit-slot bytes: the edge leaves through the epilogue.
    Unlinked,
    /// A patch is queued for the next publication.
    Queued,
    /// The slot holds a direct jump to the successor's chain entry.
    Patched,
}

/// One compiled trace, resident or queued.
#[derive(Debug)]
struct Trace {
    /// Guest pc of the block's first instruction (the promotion key).
    pc: u64,
    /// (region start, region generation) at compile time.
    fp: (u64, u64),
    /// The lowered block the trace was compiled from; helpers recover
    /// their uops through [`JitCtx::blocks`], so this Arc pins it.
    block: Arc<Block>,
    /// Unpatched code bytes: the sever-restore source and the
    /// byte-identity witness for the SMC regression suite.
    code: Vec<u8>,
    /// Arena offset of the external entry; [`UNPUBLISHED`] until the
    /// trace's batch is published.
    code_off: usize,
    /// Chain-entry offset relative to `code_off`.
    chain: usize,
    /// Indirect-entry offset relative to `code_off` (the IBT target).
    ind: usize,
    /// Patchable exits: `[fall, taken]`.
    exits: [Option<ExitSlot>; 2],
    /// What each exit slot currently holds.
    links: [Link; 2],
    /// Predecessors `(trace, edge)` patched to jump into this trace.
    in_edges: Vec<(u32, u8)>,
    /// Severed: unreachable (stamp poisoned, unmapped from the promotion
    /// table, predecessor restores queued); its arena bytes are dead
    /// until the next flush.
    dead: bool,
}

/// Per-core JIT tier state: the executable arena, resident traces, the
/// publication queue, and the deterministic tiering policy (hotness
/// counters + demotion hysteresis).
#[derive(Debug)]
pub(crate) struct JitTier {
    arena: Option<Arena>,
    /// The host refused an executable mapping or a W^X flip once; never
    /// retried.
    broken: bool,
    traces: Vec<Trace>,
    /// Heat, hysteresis and the live trace of every pc seen.
    pcs: HashMap<u64, PcState, BuildHasherDefault<PcHasher>>,
    /// Per-trace generation stamps (`u64::MAX` poisons severed traces).
    /// A queued trace carries its compile-time stamp, so its first entry
    /// after publication revalidates it like any other.
    stamps: Vec<u64>,
    /// Per-trace `Block` pointers for helper uop recovery (Arc-pinned by
    /// the matching [`Trace::block`]).
    block_ptrs: Vec<*const Block>,
    threshold: u32,
    /// Lifetime compilation count (monotonic; survives flushes).
    compiled: u64,
    /// Lifetime publication count: each is one W^X toggle of the arena.
    toggles: u64,
    /// Compiled traces waiting for publication.
    queue: Vec<u32>,
    /// Exit patches `(trace, edge)` waiting for publication.
    patches: Vec<(u32, u8)>,
    /// Exit slots of severed traces' predecessors waiting to get their
    /// original bytes back: `(arena offset, bytes)`.
    restores: Vec<(usize, [u8; EXIT_SLOT_LEN])>,
    /// Block entries and trace exits since the last publication that a
    /// queued trace or patch would have kept in compiled code; never
    /// above zero with both queues empty.
    debt: u32,
    /// Indirect-branch target table keys (see [`JitCtx::ibt_keys`]);
    /// allocated with the arena, so engine-only cores carry none.
    ibt_keys: Vec<u64>,
    /// Indirect-branch target table values (host indirect-entry
    /// addresses; dangling after an arena reset, so flushes clear keys).
    ibt_vals: Vec<u64>,
    /// The core profile every trace was compiled under: blocks are keyed
    /// by `(pc, profile)` but traces by pc alone, so [`try_enter`] resets
    /// the tier when the core's profile changes.
    profile: Option<ExtSet>,
}

// Raw pointers into our own Arc-pinned allocations; the tier is plain
// owned data and never shares them.
unsafe impl Send for JitTier {}

impl Clone for JitTier {
    /// Cloning a core does not clone resident host code: the clone keeps
    /// the tier policy and starts cold, the same way a cloned cache
    /// starts re-warming.
    fn clone(&self) -> Self {
        JitTier {
            threshold: self.threshold,
            ..JitTier::new()
        }
    }
}

impl JitTier {
    /// An empty tier. It runs only while the core is in `ExecMode::Jit`,
    /// and stays inert if the host cannot map executable pages.
    pub(crate) fn new() -> Self {
        JitTier {
            arena: None,
            broken: false,
            traces: Vec::new(),
            pcs: HashMap::default(),
            stamps: Vec::new(),
            block_ptrs: Vec::new(),
            threshold: DEFAULT_THRESHOLD,
            compiled: 0,
            toggles: 0,
            queue: Vec::new(),
            patches: Vec::new(),
            restores: Vec::new(),
            debt: 0,
            ibt_keys: Vec::new(),
            ibt_vals: Vec::new(),
            profile: None,
        }
    }

    /// Publishes `pc -> indirect-entry address` in the IBT (evicting any
    /// colliding slot — direct-mapped).
    fn ibt_insert(&mut self, pc: u64, addr: u64) {
        let s = ibt_slot(pc);
        self.ibt_keys[s] = pc;
        self.ibt_vals[s] = addr;
    }

    /// Drops every trace, resident or queued, and every queued write.
    /// Tiering (heat/hysteresis) state survives; [`JitTier::reset`] wipes
    /// it.
    fn flush_all(&mut self) {
        self.traces.clear();
        self.stamps.clear();
        self.block_ptrs.clear();
        self.queue.clear();
        self.patches.clear();
        self.restores.clear();
        self.debt = 0;
        for st in self.pcs.values_mut() {
            st.trace = None;
        }
        // Every IBT value dangles once the arena resets.
        self.ibt_keys.fill(u64::MAX);
        if let Some(arena) = self.arena.as_mut() {
            arena.reset();
        }
    }

    /// Full tier reset: traces, queue *and* tiering policy state. Mode
    /// switches go through here so promotion state never carries across.
    pub(crate) fn reset(&mut self) {
        self.flush_all();
        self.pcs.clear();
    }

    /// Maps the executable arena — the shared epilogue at offset 0 — and
    /// the IBT on first use. `false` means the host cannot run this tier
    /// (no executable pages, or a refused flip); the refusal is
    /// remembered and never retried.
    fn ensure_arena(&mut self) -> bool {
        if self.arena.is_some() {
            return true;
        }
        if self.broken || !jit_available() {
            return false;
        }
        self.arena = Arena::new(ARENA_LEN, &epilogue_code());
        self.broken = self.arena.is_none();
        if !self.broken {
            self.ibt_keys = vec![u64::MAX; IBT_LEN];
            self.ibt_vals = vec![0; IBT_LEN];
        }
        !self.broken
    }

    /// Whether the queue is published now. Depends on dispatch history
    /// only: a batch of traces is waiting, or the dispatcher has taken as
    /// many round trips as it tolerates for the sake of queued traces and
    /// patches (so a hot loop is never left unpublished; queued restores
    /// serve nobody and ride along). Both bounds follow the promotion
    /// threshold — a trace that took `threshold` entries to earn
    /// compilation can wait a few times that for its toggle, capped near
    /// the ~64 round trips one toggle costs — and at threshold 1 both are
    /// 1: whatever is queued is published at once.
    fn publication_due(&self) -> bool {
        let batch = self.threshold.clamp(1, 32) as usize;
        let tolerated = (self.threshold.saturating_sub(1).saturating_mul(4)).clamp(1, 64);
        self.queue.len() >= batch || self.debt >= tolerated
    }

    /// The trace edge `e` of `from` may be patched to jump into right
    /// now, if any: `from` live with a patchable exit there, the
    /// successor resident and stamped with the current generation.
    fn patch_target(&self, from: usize, e: usize, gen: u64) -> Option<usize> {
        let tr = &self.traces[from];
        if tr.dead {
            return None;
        }
        let succ = self.pcs.get(&tr.exits[e]?.target)?.trace? as usize;
        (self.traces[succ].code_off != UNPUBLISHED && self.stamps[succ] == gen).then_some(succ)
    }

    /// Severs trace `t` with the demotion penalty: poisons its stamp —
    /// which alone makes it unreachable, every entry checks it — unmaps
    /// it from the promotion table and the IBT, and queues the restore of
    /// every patched predecessor exit slot to its original bytes. The
    /// pc's re-promotion threshold doubles and its heat restarts from
    /// zero, so alternating SMC workloads settle in the engine tier
    /// instead of ping-ponging.
    fn sever_with_penalty(&mut self, t: usize) {
        if self.traces[t].dead {
            return;
        }
        for (pred, e) in std::mem::take(&mut self.traces[t].in_edges) {
            let p = &mut self.traces[pred as usize];
            let e = e as usize;
            if p.dead || p.links[e] != Link::Patched {
                continue;
            }
            let slot = p.exits[e].expect("patched edge always has a slot");
            let mut orig = [0u8; EXIT_SLOT_LEN];
            orig.copy_from_slice(&p.code[slot.off..slot.off + EXIT_SLOT_LEN]);
            self.restores.push((p.code_off + slot.off, orig));
            p.links[e] = Link::Unlinked;
        }
        let tr = &mut self.traces[t];
        tr.dead = true;
        let pc = tr.pc;
        self.stamps[t] = u64::MAX;
        let s = ibt_slot(pc);
        if self.ibt_keys[s] == pc {
            self.ibt_keys[s] = u64::MAX;
        }
        let st = self.pcs.entry(pc).or_default();
        st.heat = 0;
        st.trace = None;
        st.demotions = (st.demotions + 1).min(MAX_DEMOTIONS);
    }

    /// The unpatched compiled bytes for the resident trace at `pc`
    /// (introspection for the SMC byte-identity regressions).
    pub(crate) fn trace_bytes(&self, pc: u64) -> Option<Vec<u8>> {
        let tr = &self.traces[self.pcs.get(&pc)?.trace? as usize];
        (tr.code_off != UNPUBLISHED).then(|| tr.code.clone())
    }

    /// The block-entry count accumulated toward promoting `pc`.
    pub(crate) fn hotness(&self, pc: u64) -> u32 {
        self.pcs.get(&pc).map_or(0, |st| st.heat)
    }

    /// Lifetime compilation count.
    pub(crate) fn compiled(&self) -> u64 {
        self.compiled
    }

    /// Lifetime W^X toggle count.
    pub(crate) fn wx_toggles(&self) -> u64 {
        self.toggles
    }

    /// Overrides the base promotion threshold (tests and benches).
    pub(crate) fn set_threshold(&mut self, threshold: u32) {
        self.threshold = threshold;
    }
}

/// Attempts to run the block at `pc` through the JIT tier. `None` means
/// the tier declines (cold, compiled but not yet published, host
/// unsupported, stale trace severed, or not enough budget to fund the
/// body) and the caller executes through the engine instead. `Some`
/// carries the full engine-equivalent result.
pub(crate) fn try_enter(
    cpu: &mut Cpu,
    mem: &mut Memory,
    budget: u64,
    block: &Arc<Block>,
    pc: u64,
) -> Option<Result<u64, Trap>> {
    let tier = &mut cpu.jit;
    if !tier.ensure_arena() {
        return None;
    }
    // A trace compiled for another profile may hold instructions this core
    // must trap on (or lack ones it now runs): start over, as a mode switch
    // does.
    if tier.profile != Some(cpu.profile) {
        tier.reset();
        tier.profile = Some(cpu.profile);
    }
    let gen = mem.code_generation();
    let st = tier.pcs.entry(pc).or_default();
    let t = match st.trace {
        Some(t) => t as usize,
        None => {
            st.heat = st.heat.saturating_add(1);
            if st.heat < tier.threshold.saturating_mul(1 << st.demotions) {
                return None;
            }
            // Compile now — `compile` stays a pure function of the
            // lowered ops and the pc — but only queue the result: the
            // block keeps running in the engine until its batch is
            // published.
            let fp = mem.code_fingerprint(pc)?;
            let t = tier.traces.len();
            st.heat = 0;
            st.trace = Some(t as u32);
            let compiled = compile(&block.ops, pc);
            tier.traces.push(Trace {
                pc,
                fp,
                block: Arc::clone(block),
                code: compiled.code,
                code_off: UNPUBLISHED,
                chain: compiled.chain,
                ind: compiled.ind,
                exits: compiled.exits,
                links: [Link::Unlinked; 2],
                in_edges: Vec::new(),
                dead: false,
            });
            tier.stamps.push(gen);
            tier.block_ptrs.push(Arc::as_ptr(&tier.traces[t].block));
            tier.queue.push(t as u32);
            tier.compiled += 1;
            t
        }
    };
    tier.debt += u32::from(tier.traces[t].code_off == UNPUBLISHED);
    if tier.publication_due() {
        publish(cpu, gen);
    }
    let tier = &mut cpu.jit;
    // Still queued — or gone, if a full arena just flushed everything.
    if tier
        .traces
        .get(t)
        .is_none_or(|tr| tr.code_off == UNPUBLISHED)
    {
        return None;
    }
    // Every trace is validated before it is entered, however long it
    // waited on the queue: its stamp dates from compilation.
    if tier.stamps[t] != gen {
        if mem.code_fingerprint(pc) == Some(tier.traces[t].fp) {
            // Executable bytes changed somewhere else; this trace's
            // region is untouched, so restamp — the jump cache's slow
            // path, verbatim.
            tier.stamps[t] = gen;
        } else {
            tier.sever_with_penalty(t);
            return None;
        }
    }
    if budget < block.ops.len() as u64 {
        // Not enough fuel to fund the whole body; the engine's partial
        // execution handles the tail exactly.
        return None;
    }
    Some(execute(cpu, mem, budget, t))
}

/// Publishes the whole queue under one W^X toggle: queued restores, then
/// every compiled trace (copy and index stamp in the same pass), then
/// every queued exit patch, re-checked against
/// [`JitTier::patch_target`] because the world may have moved since it
/// was queued. The only caller of [`Arena::with_writable`], and reached
/// only from the dispatcher, so the arena is never writable while a trace
/// can run. A full arena flushes everything, the rest of the queue
/// included; a refused flip retires the tier for good and the run
/// continues on the engine.
fn publish(cpu: &mut Cpu, gen: u64) {
    let tier = &mut cpu.jit;
    let Some(mut arena) = tier.arena.take() else {
        return;
    };
    let (queue, patches, restores) = (
        std::mem::take(&mut tier.queue),
        std::mem::take(&mut tier.patches),
        std::mem::take(&mut tier.restores),
    );
    tier.debt = 0;
    tier.toggles += 1;
    let published = arena.with_writable(|w| {
        for (off, bytes) in &restores {
            w.write_at(*off, bytes);
        }
        for &t in &queue {
            let tr = &mut tier.traces[t as usize];
            let Some(off) = w.alloc(&tr.code) else {
                return false;
            };
            // Stamp the trace index into the indirect entry's placeholder
            // (the stored `code` keeps the placeholder, preserving the
            // byte-identity witness).
            w.write_at(off + tr.ind + 2, &t.to_le_bytes());
            tr.code_off = off;
        }
        // After a Fall/Taken exit whose successor is resident, the exit
        // slot of `from` becomes `mov r14d, succ; jmp succ.chain`. The
        // chain entry re-checks stamp and fuel on every entry, so
        // patching is a pure optimization — it can never extend a stale
        // trace's life.
        for &(from, e) in &patches {
            let (from, e) = (from as usize, e as usize);
            tier.traces[from].links[e] = Link::Unlinked;
            let Some(succ) = tier.patch_target(from, e, gen) else {
                continue;
            };
            let slot = tier.traces[from].exits[e].expect("patch target implies a slot");
            let slot_off = tier.traces[from].code_off + slot.off;
            let succ_entry = tier.traces[succ].code_off + tier.traces[succ].chain;
            let rel = succ_entry as i64 - (slot_off + EXIT_PATCH_JMP_END) as i64;
            let rel = i32::try_from(rel).expect("arena spans never exceed rel32");
            w.write_at(slot_off, &patched_exit_bytes(succ as u32, rel));
            tier.traces[from].links[e] = Link::Patched;
            tier.traces[succ].in_edges.push((from as u32, e as u8));
        }
        true
    });
    let Some(fits) = published else {
        // The mapping may have lost exec permission: it is dropped
        // unentered and never remapped.
        tier.broken = true;
        tier.flush_all();
        return;
    };
    let base = arena.addr(0);
    tier.arena = Some(arena);
    if !fits {
        tier.flush_all();
        return;
    }
    // Announce the batch: indirect jumps find the new traces through the
    // IBT from here on.
    for &t in &queue {
        let tr = &tier.traces[t as usize];
        let (pc, bytes) = (tr.pc, tr.code.len() as u64);
        tier.ibt_insert(pc, (base + tr.code_off + tr.ind) as u64);
        if cpu.tracer.is_enabled() {
            cpu.tracer
                .record(cpu.stats.cycles, TraceEvent::TierPromote { pc, bytes });
            cpu.tracer.count("emu.blocks_jitted", 1);
        }
    }
    cpu.tracer.count("emu.jit_wx_toggles", 1);
}

/// Runs trace `t` (and everything it chains into) until an exit, then
/// reconciles the context back into the core. Returns the instructions
/// retired, exactly as `exec_lowered` would have.
fn execute(cpu: &mut Cpu, mem: &mut Memory, budget: u64, t: usize) -> Result<u64, Trap> {
    let cpu_ptr: *mut Cpu = cpu;
    let mem_ptr: *mut Memory = mem;
    let pc = cpu.hart.pc;
    let xregs = cpu.hart.x_ptr();
    let fregs = cpu.hart.f_ptr();
    let gen = mem.code_generation();
    let tier = &cpu.jit;
    let arena = tier.arena.as_ref().expect("executing without an arena");
    let entry = arena.addr(tier.traces[t].code_off);
    let epilogue = arena.addr(0) as u64;
    let mut ctx = JitCtx {
        pc,
        fuel: budget,
        d_cycles: 0,
        d_loads: 0,
        d_stores: 0,
        d_branches: 0,
        d_indirect: 0,
        d_jitted: 0,
        cur_gen: gen,
        cur_trace: t as u64,
        exit_from: t as u64,
        stamps: tier.stamps.as_ptr(),
        blocks: tier.block_ptrs.as_ptr(),
        xregs,
        ld_base: std::ptr::null_mut(),
        ld_start: 0,
        ld_lim: [0; 4],
        st_base: std::ptr::null_mut(),
        st_start: 0,
        st_lim: [0; 4],
        h_load: jit_load as *const () as usize as u64,
        h_store: jit_store as *const () as usize as u64,
        h_fload: jit_fload as *const () as usize as u64,
        h_fstore: jit_fstore as *const () as usize as u64,
        h_generic: jit_generic as *const () as usize as u64,
        h_opimm: jit_opimm as *const () as usize as u64,
        h_op: jit_op as *const () as usize as u64,
        h_unary: jit_unary as *const () as usize as u64,
        epilogue,
        fregs,
        ibt_keys: tier.ibt_keys.as_ptr(),
        ibt_vals: tier.ibt_vals.as_ptr(),
        fuel_anchor: budget,
        cpu: cpu_ptr,
        mem: mem_ptr,
        trap: None,
    };
    // SAFETY: `entry` is the external entry of a published, live,
    // stamp-validated trace in the sealed arena; the context's raw
    // pointers (cpu, mem, xregs, stamp/block tables) all outlive the
    // call, and nothing else touches the core or memory while guest code
    // runs — helpers are the only reentry and they go through the context.
    let status = unsafe { call_entry(entry, (&mut ctx as *mut JitCtx).cast(), t as u32) } as u32;
    let retired = budget - ctx.fuel;
    drain(&mut ctx, cpu);
    cpu.cache.stats.jit_execs += 1;
    if cpu.tracer.is_enabled() {
        cpu.tracer.count("emu.jit_exits", 1);
    }
    let (tier, gen) = (&mut cpu.jit, mem.code_generation());
    let from = ctx.exit_from as usize;
    match status {
        ST_TRAP => return Err(ctx.trap.take().expect("trap exit without a recorded trap")),
        ST_FALL | ST_TAKEN => {
            // The control edge is worth a direct jump once its successor
            // is resident: queue the patch, and count every round trip
            // taken while it waits.
            let e = usize::from(status == ST_TAKEN);
            if tier.traces[from].links[e] == Link::Unlinked
                && tier.patch_target(from, e, gen).is_some()
            {
                tier.traces[from].links[e] = Link::Queued;
                tier.patches.push((from as u32, e as u8));
            }
            tier.debt += u32::from(tier.traces[from].links[e] == Link::Queued);
        }
        // A chain-entry stamp miss: restamp when the trace's region is
        // untouched (some other region changed), sever otherwise —
        // `BlockCache::validate_jump`'s rules for compiled traces. A dead
        // trace was reached through a jump whose restore is still queued.
        ST_REVAL if tier.traces[from].dead => {}
        ST_REVAL => {
            if mem.code_fingerprint(tier.traces[from].pc) == Some(tier.traces[from].fp) {
                tier.stamps[from] = gen;
            } else {
                tier.sever_with_penalty(from);
            }
        }
        ST_INDIRECT => {
            // An IBT miss: either a cold target or a direct-mapped
            // eviction. If the target is resident and current, republish
            // it so the next transfer to it stays in-arena — without
            // this, two colliding return sites would demote each other
            // to dispatcher round trips forever.
            if let Some(s) = tier.pcs.get(&ctx.pc).and_then(|st| st.trace) {
                let tr = &tier.traces[s as usize];
                if tr.code_off != UNPUBLISHED && tier.stamps[s as usize] == gen {
                    let arena = tier.arena.as_ref().expect("live trace without an arena");
                    let addr = arena.addr(tr.code_off + tr.ind) as u64;
                    tier.ibt_insert(ctx.pc, addr);
                }
            }
        }
        ST_BAIL | ST_BUDGET => {}
        _ => unreachable!("unknown jit exit status {status}"),
    }
    Ok(retired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_isa::XReg;

    #[test]
    fn epilogue_indirection_uses_disp32() {
        // The fixed 16-byte exit-slot layout in `compile` depends on
        // `jmp qword [r12 + EPILOGUE]` taking the 8-byte disp32 form.
        const { assert!(off::EPILOGUE > 127) };
    }

    #[test]
    fn ctx_layout_matches_emitted_offsets() {
        assert_eq!(off::PC, 0);
        assert_eq!(off::FUEL, 8);
        assert_eq!(off::LD_LIM, off::LD_START + 8);
        assert_eq!(off::ST_BASE, off::LD_LIM + 32);
        assert_eq!(
            off::EPILOGUE as usize,
            std::mem::offset_of!(JitCtx, epilogue)
        );
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn addi(rd: XReg, rs1: XReg, imm: i32) -> chimera_isa::Inst {
        chimera_isa::Inst::OpImm {
            kind: chimera_isa::OpImmKind::Addi,
            rd,
            rs1,
            imm,
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn text(prog: &[chimera_isa::Inst]) -> Vec<u8> {
        prog.iter()
            .flat_map(|i| chimera_isa::encode(i).unwrap().to_le_bytes())
            .collect()
    }

    /// A W^X flip the kernel refuses mid-run retires the tier instead of
    /// aborting the process: traces, queue and arena are dropped, every
    /// later entry declines, and the run finishes on the engine with the
    /// Engine run's exact observation — whichever flip is the refused
    /// one, immediate or batched publication.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn refused_wx_flip_degrades_to_the_engine() {
        use crate::{ExecMode, Stop};
        use chimera_isa::{BranchKind, Inst};
        if !jit_available() {
            return;
        }
        let bne = |rs1, offset| Inst::Branch {
            kind: BranchKind::Bne,
            rs1,
            rs2: XReg::ZERO,
            offset,
        };
        // Two nested counted loops: four blocks, all hot, chained both
        // by patched exits and through the dispatcher.
        let text = text(&[
            addi(XReg::T0, XReg::ZERO, 40),
            addi(XReg::T1, XReg::ZERO, 5), // outer:
            addi(XReg::A0, XReg::A0, 3),   // inner:
            addi(XReg::T1, XReg::T1, -1),
            bne(XReg::T1, -8),
            addi(XReg::T0, XReg::T0, -1),
            bne(XReg::T0, -20),
            Inst::Ecall,
        ]);
        let run = |mode, threshold, flips_left: Option<u32>| {
            let mut cpu = Cpu::new(chimera_isa::ExtSet::RV64GC);
            cpu.set_mode(mode);
            cpu.set_jit_threshold(threshold);
            if flips_left.is_some() {
                assert!(cpu.jit.ensure_arena());
                cpu.jit.arena.as_mut().unwrap().flips_left = flips_left;
            }
            let mut mem = Memory::new();
            mem.map_bytes(0x1_0000, text.clone(), chimera_obj::Perms::RX, ".text");
            cpu.hart.pc = 0x1_0000;
            // Stop once mid-run so the counters after the refusal are
            // observable while the program is still hot.
            assert_eq!(cpu.run(&mut mem, 400), Stop::OutOfFuel);
            let mid = cpu.cache.stats.jit_execs;
            let stop = cpu.run(&mut mem, 100_000);
            assert!(matches!(stop, Stop::Trap(Trap::Ecall { .. })), "{stop:?}");
            let grew = cpu.cache.stats.jit_execs - mid;
            (cpu.hart.xregs(), cpu.stats, cpu.jit.broken, grew)
        };
        let (xregs, stats, ..) = run(ExecMode::Engine, 1, None);
        for threshold in [1, 3] {
            let healthy = run(ExecMode::Jit, threshold, None);
            assert_eq!((healthy.0, healthy.1), (xregs, stats));
            assert!(
                !healthy.2 && healthy.3 > 0,
                "the tier must be live: {healthy:?}"
            );
            for flips_left in 0..6 {
                let (x, s, broken, grew) = run(ExecMode::Jit, threshold, Some(flips_left));
                assert_eq!((x, s), (xregs, stats), "t={threshold} flips={flips_left}");
                assert!(
                    broken,
                    "t={threshold} flips={flips_left}: refusal not noticed"
                );
                assert_eq!(
                    grew, 0,
                    "t={threshold} flips={flips_left}: entered after refusal"
                );
            }
        }
    }

    /// Many two-instruction blocks in a counted loop: every block gets
    /// hot, and the traces overflow a small arena several times a pass.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn many_hot_blocks(blocks: i32, iters: i32) -> Vec<u8> {
        use chimera_isa::{BranchKind, Inst};
        let jal = |offset| Inst::Jal {
            rd: XReg::ZERO,
            offset,
        };
        let mut prog = vec![addi(XReg::T0, XReg::ZERO, iters)];
        for _ in 0..blocks {
            prog.extend([addi(XReg::A0, XReg::A0, 1), jal(4)]);
        }
        prog.extend([
            addi(XReg::T0, XReg::T0, -1),
            Inst::Branch {
                kind: BranchKind::Beq,
                rs1: XReg::T0,
                rs2: XReg::ZERO,
                offset: 8,
            },
            jal(-(8 * blocks + 8)),
            Inst::Ecall,
        ]);
        text(&prog)
    }

    /// A full arena flushes every trace, resident or queued, and the run
    /// goes on — bit-identical to the engine — re-promoting from zero.
    /// Between slices the mapping is always sealed `r-x`: it is writable
    /// only inside a publication, which only the dispatcher starts.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn full_arena_flushes_everything_and_stays_sealed() {
        use crate::{ExecMode, Stop};
        if !jit_available() {
            return;
        }
        let text = many_hot_blocks(300, 8);
        let run = |mode, threshold| {
            let mut cpu = Cpu::new(chimera_isa::ExtSet::RV64GC);
            cpu.set_mode(mode);
            cpu.set_jit_threshold(threshold);
            if mode == ExecMode::Jit {
                assert!(cpu.jit.ensure_arena());
                cpu.jit.arena = Arena::new(16 << 10, &epilogue_code());
            }
            let mut mem = Memory::new();
            mem.map_bytes(0x1_0000, text.clone(), chimera_obj::Perms::RX, ".text");
            cpu.hart.pc = 0x1_0000;
            let mut flushes = 0;
            loop {
                let resident = cpu.jit.traces.len();
                let stop = cpu.run(&mut mem, 97);
                flushes += u32::from(cpu.jit.traces.len() < resident);
                if let Some(arena) = cpu.jit.arena.as_ref() {
                    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
                    let start = format!("{:x}-", arena.addr(0));
                    let line = maps.lines().find(|l| l.starts_with(&start)).unwrap();
                    assert_eq!(line.split(' ').nth(1), Some("r-xp"), "{line}");
                }
                match stop {
                    Stop::OutOfFuel => continue,
                    Stop::Trap(Trap::Ecall { .. }) => break,
                    other => panic!("{other:?}"),
                }
            }
            (
                cpu.hart.xregs(),
                cpu.stats,
                flushes,
                cpu.cache.stats.jit_execs,
            )
        };
        let (xregs, stats, ..) = run(ExecMode::Engine, 1);
        for threshold in [1, 2] {
            let (x, s, flushes, execs) = run(ExecMode::Jit, threshold);
            assert_eq!((x, s), (xregs, stats), "t={threshold}");
            assert!(flushes >= 2, "t={threshold}: the arena never filled");
            assert!(execs > 0, "t={threshold}: nothing ran compiled");
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let ops = vec![
            Uop {
                op: MicroOp::Addi {
                    rd: XReg::T0,
                    rs1: XReg::T0,
                    imm: 1,
                },
                len: 4,
                cost: 1,
                is_store: false,
            },
            Uop {
                op: MicroOp::Jal {
                    rd: XReg::ZERO,
                    offset: -4,
                },
                len: 4,
                cost: 2,
                is_store: false,
            },
        ];
        let a = compile(&ops, 0x1_0000);
        let b = compile(&ops, 0x1_0000);
        assert_eq!(a.code, b.code);
        assert_eq!(a.chain, b.chain);
        assert!(!a.code.is_empty());
    }
}
