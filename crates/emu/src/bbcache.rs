//! A generation-invalidated basic-block decode cache with a jump cache.
//!
//! The interpreter's hot loop used to pay fetch + decode + extension-gating
//! for every dynamic instruction. This module memoizes that front end at
//! basic-block granularity, the same trick binary translators (QEMU, r2vm)
//! use: the first execution of a `pc` decodes forward until the first
//! control-transfer or system instruction and records the run as its
//! lowered micro-op body (see [`crate::uop`]); every later execution
//! replays the recorded body directly.
//!
//! Blocks live in stable slots so the execution engine can find the next
//! block without a hash lookup: a direct-mapped **jump cache** maps a
//! block's start pc to its slot id, whatever the control transfer that
//! reached it (fall-through, taken branch, `jal`, any `jalr` target).
//! Entries are hints, validated before every use — see [`JumpEntry`] —
//! and dropped the moment validation fails, so the jump cache can change
//! wall-clock time only, never results.
//!
//! Correctness hinges on two things:
//!
//! * **Invalidation.** Chimera patches code at runtime (lazy rewriting via
//!   [`crate::Memory::poke_code`], MMView switches that unmap/remap code,
//!   and guest stores to writable+executable mappings). Every such mutation
//!   bumps a per-region generation, and each cached block remembers the
//!   `(region start, generation)` fingerprint it was decoded under — a
//!   mismatch at lookup time drops the block. Validity is **purely
//!   per-region**: code mutation in one region never drops another
//!   region's blocks (the cross-region regression test in `tests/smc.rs`
//!   pins this). The *middle* of a block is guarded the same way: after any
//!   store executed from inside a block the CPU re-checks the block's own
//!   region fingerprint and bails to the dispatcher only if it moved, so a
//!   block whose own tail was just overwritten never executes stale
//!   instructions. The global [`crate::Memory::code_generation`] counter
//!   survives only as a cheap first-level filter (and as the jump-entry
//!   stamp): when it has not moved, no executable byte anywhere changed
//!   and the per-region check is skipped.
//! * **Profile keying.** Whether an instruction is legal depends on the
//!   hart's extension profile ([`chimera_isa::ExtSet`]) — the same bytes
//!   must trap on a base core and execute on an extension core (that trap
//!   is the paper's FAM mechanism). Blocks are therefore keyed by
//!   `(pc, profile)` and gating runs at build time, once per block instead
//!   of once per dynamic instruction.
//!
//! The cache is a pure front-end optimisation, used by every
//! [`crate::ExecMode`] but `Reference`, which never touches it: a block
//! holds one copy of its instructions, the lowered `ops`; the interpreter
//! replays each op's [`Uop::inst`] through `Cpu::exec`, the engine and
//! the JIT run the ops themselves with identical semantics, and cycle
//! accounting, trap PCs and architectural results are bit-identical across
//! all four modes (the differential suite asserts full
//! [`crate::RunResult`] equality plus exact counter reconciliation).

use crate::mem::Memory;
use crate::uop::Uop;
use chimera_isa::ExtSet;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Longest run of instructions recorded in one block. Bounds build cost on
/// pathological straight-line code; the tail simply starts the next block.
const MAX_BLOCK_INSTS: usize = 64;

/// Cache capacity in blocks. On overflow the whole map is cleared (workload
/// code footprints here are far smaller; a full flush keeps the policy
/// trivially correct). Clearing also drops every slot and jump-cache entry,
/// so no stale slot id can survive a flush.
const MAX_BLOCKS: usize = 1 << 16;

/// Direct-mapped jump-cache size, in entries. The jump cache is the
/// engine's only path to the next block short of the dispatcher: an array
/// probe plus [`JumpEntry`] validation replaces the fingerprint + hash-map
/// lookup for every block entry, direct successors and megamorphic
/// indirect call sites alike.
///
/// It does not hold every block of the bench workloads: `gcc_r` builds
/// 2,530 blocks, and 173,260 of its 1,117,792 engine block entries
/// (15.5 %) miss here and go to the dispatcher; `perlbench_r` sends 8.6 %,
/// `safer_check` 18 % and `strawman_entry` 12 %. `1 << 14` entries cut
/// `gcc_r`'s engine time by 5 %, but every `Cpu` allocates its own table
/// on first use (an `Option<JumpEntry>` is 32 bytes, so 64 KiB at this
/// size) and `hetero_churn` runs hundreds of `Cpu`s, so the size stays.
const JUMP_CACHE: usize = 1 << 11;

/// Decode-cache observability counters.
///
/// Reconciliation invariant (asserted by the differential suite): for the
/// same program, `hits(interpreter) == hits(engine) + chained(engine)` and
/// `hits(interpreter) == hits(jit) + chained(jit) + jitted(jit)` — with
/// `misses`/`invalidations`/`blocks_built` identical across all modes. A
/// jump-cache entry is exactly a hit whose lookup was short-circuited, and
/// a jitted chain entry is exactly a hit whose dispatch never left host
/// code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by a valid cached block.
    pub hits: u64,
    /// Lookups that found no usable block (cold or just invalidated).
    pub misses: u64,
    /// Cached blocks dropped because their region fingerprint went stale.
    pub invalidations: u64,
    /// Blocks decoded and inserted.
    pub blocks_built: u64,
    /// Block entries served by a validated jump-cache entry instead of a
    /// dispatcher lookup (engine and JIT mode; 0 for the interpreter).
    pub chained: u64,
    /// Block entries through a compiled trace's chain entry — direct
    /// trace-to-trace jumps that bypassed the dispatcher entirely (JIT
    /// mode only; 0 elsewhere).
    pub jitted: u64,
    /// Compiled-trace executions entered from the dispatcher (JIT mode
    /// only). Coverage witness: a Jit-mode run with `jit_execs == 0`
    /// never actually ran host code.
    pub jit_execs: u64,
}

/// A decoded basic block: straight-line instructions ending at (and
/// including) the first control-transfer or system instruction.
#[derive(Debug)]
pub struct Block {
    /// The instructions, lowered (pre-resolved operands and pre-computed
    /// costs; see [`crate::uop`]), in address order starting at the
    /// block's key pc. Every mode builds the same body; the interpreter
    /// replays [`Uop::inst`] of each.
    pub ops: Box<[Uop]>,
    /// Start address of the executable region the block was decoded from.
    pub region_start: u64,
    /// That region's generation at decode time.
    pub region_gen: u64,
}

/// A jump-cache entry: where the block for `pc` lived when the engine last
/// entered it.
///
/// Validation before every use (in `BlockCache::validate_jump`):
/// 1. the target slot must still hold a block keyed `(pc, profile)` for
///    the core's *current* profile — guards against slot reuse after a
///    flush and against a profile change on a warm cache;
/// 2. fast path: if `stamp` equals the current global
///    [`crate::Memory::code_generation`], no executable byte anywhere has
///    changed since the entry was last validated, so the target
///    fingerprint cannot have moved and the entry is free to use;
/// 3. slow path: the target's own region fingerprint is re-checked; a
///    match re-stamps the entry, a mismatch drops it (the dispatcher then
///    performs the ordinary invalidating lookup, keeping invalidation
///    counters identical to the interpreter's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpEntry {
    /// Target slot id.
    pub to: u32,
    /// Target block's key pc (revalidated before use).
    pub pc: u64,
    /// Global code generation at entry creation / last revalidation.
    pub stamp: u64,
}

/// A live cache slot: the block and the key it is registered under.
#[derive(Debug, Clone)]
struct Slot {
    /// The `(pc, profile)` key this slot is registered under.
    key: (u64, ExtSet),
    block: Arc<Block>,
}

/// The block map's hasher: one multiply-rotate step per written word (the
/// FxHash step), in place of the standard library's SipHash. A key is a
/// guest pc (with the core's profile) of code this cache decoded, and
/// [`MAX_BLOCKS`] bounds the map, so SipHash's resistance to chosen keys
/// buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The per-CPU basic-block decode cache.
///
/// Blocks are shared via [`Arc`] (not `Rc`) so [`crate::Cpu`] stays `Send`
/// — the many-hart kernel's `FiberPool` steps CPUs on worker OS threads.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    map: HashMap<(u64, ExtSet), u32, BuildHasherDefault<PcHasher>>,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Direct-mapped dispatcher short-circuit, indexed by target pc
    /// (see [`JUMP_CACHE`]). Allocated lazily on first store so
    /// interpreter/reference CPUs never pay for it. Entries are *hints*:
    /// every probe revalidates them (see [`JumpEntry`]).
    jump: Vec<Option<JumpEntry>>,
    /// Counters; reset with [`BlockCache::reset_stats`].
    pub stats: CacheStats,
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Looks up a valid block for `(pc, profile)` given the current
    /// fingerprint of the executable region holding `pc`, with its slot id
    /// (the engine's jump-cache handle). Stale blocks are dropped (counted
    /// as an invalidation AND a miss, since the caller must rebuild).
    pub fn lookup(
        &mut self,
        pc: u64,
        profile: ExtSet,
        fingerprint: (u64, u64),
    ) -> Option<(u32, Arc<Block>)> {
        let Some(&id) = self.map.get(&(pc, profile)) else {
            self.stats.misses += 1;
            return None;
        };
        let slot = self.slots[id as usize]
            .as_ref()
            .expect("mapped slot is live");
        if (slot.block.region_start, slot.block.region_gen) == fingerprint {
            self.stats.hits += 1;
            Some((id, Arc::clone(&slot.block)))
        } else {
            self.remove_slot(id);
            self.stats.invalidations += 1;
            self.stats.misses += 1;
            None
        }
    }

    /// Drops one slot and unregisters its key. Jump-cache entries *into*
    /// the slot are left behind on purpose: every probe revalidates the
    /// target slot first, so a dangling entry simply fails validation and
    /// is dropped on its next use.
    fn remove_slot(&mut self, id: u32) {
        if let Some(slot) = self.slots[id as usize].take() {
            self.map.remove(&slot.key);
            self.free.push(id);
        }
    }

    /// Inserts a freshly built block, returning its slot id and the shared
    /// body.
    pub fn insert(&mut self, pc: u64, profile: ExtSet, block: Block) -> (u32, Arc<Block>) {
        if self.map.len() >= MAX_BLOCKS {
            self.clear();
        }
        self.stats.blocks_built += 1;
        let b = Arc::new(block);
        let slot = Slot {
            key: (pc, profile),
            block: Arc::clone(&b),
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(slot);
                id
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        if let Some(old) = self.map.insert((pc, profile), id) {
            // Defensive: a re-insert without a prior invalidating lookup
            // must not leak the displaced slot.
            if old != id {
                self.slots[old as usize] = None;
                self.free.push(old);
            }
        }
        (id, b)
    }

    #[inline]
    fn jump_idx(pc: u64) -> usize {
        // Instructions are 2-byte aligned, so drop the dead bit before
        // folding into the table.
        ((pc >> 1) as usize) & (JUMP_CACHE - 1)
    }

    /// The jump-cache hint for `pc`, if one is stored. The caller must
    /// revalidate it with [`BlockCache::validate_jump`] before use.
    #[inline]
    pub(crate) fn jump_hint(&self, pc: u64) -> Option<JumpEntry> {
        self.jump
            .get(Self::jump_idx(pc))
            .copied()
            .flatten()
            .filter(|e| e.pc == pc)
    }

    /// Stores (or replaces) the jump-cache entry for `entry.pc`, allocating
    /// the table on first use.
    pub(crate) fn jump_set(&mut self, entry: JumpEntry) {
        if self.jump.is_empty() {
            self.jump = vec![None; JUMP_CACHE];
        }
        self.jump[Self::jump_idx(entry.pc)] = Some(entry);
    }

    /// Revalidates a jump-cache entry for a core running `profile` (see
    /// [`JumpEntry`] for the rules) and returns its block. A slow-path pass
    /// refreshes the stored stamp; a failure drops the stored entry, so the
    /// caller goes through the dispatcher and refills it.
    ///
    /// Runs on every engine block entry: left out of line it cost
    /// `exec_steady` 4.4 % of `guest_mips` (ten pairs, 2-vCPU host).
    #[inline]
    pub(crate) fn validate_jump(
        &mut self,
        entry: JumpEntry,
        profile: ExtSet,
        mem: &mut Memory,
    ) -> Option<Arc<Block>> {
        let gen = mem.code_generation();
        let block = self
            .slots
            .get(entry.to as usize)
            .and_then(Option::as_ref)
            .filter(|slot| slot.key == (entry.pc, profile))
            .filter(|slot| {
                // A moved stamp means executable bytes changed somewhere;
                // the target is still valid iff its own region
                // fingerprint is unchanged.
                entry.stamp == gen
                    || mem.code_fingerprint(entry.pc)
                        == Some((slot.block.region_start, slot.block.region_gen))
            })
            .map(|slot| Arc::clone(&slot.block));
        if block.is_none() || entry.stamp != gen {
            if let Some(stored) = self
                .jump
                .get_mut(Self::jump_idx(entry.pc))
                .filter(|e| e.is_some_and(|e| e.pc == entry.pc))
            {
                *stored = block.as_ref().map(|_| JumpEntry {
                    stamp: gen,
                    ..entry
                });
            }
        }
        block
    }

    /// Drops every cached block, slot and jump-cache entry
    /// (stats are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        for e in &mut self.jump {
            *e = None;
        }
    }

    /// Number of live cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Zeroes the counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The block-size cap, exposed for the builder in `cpu.rs`.
    pub(crate) fn max_block_insts() -> usize {
        MAX_BLOCK_INSTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::uop::lower;
    use chimera_isa::nop;

    fn block(gen: u64) -> Block {
        Block {
            ops: Box::new([lower(nop(), 4, &CostModel::default())]),
            region_start: 0x1000,
            region_gen: gen,
        }
    }

    #[test]
    fn hit_then_invalidate_on_generation_change() {
        let mut c = BlockCache::new();
        c.insert(0x1000, ExtSet::RV64GC, block(7));
        assert!(c.lookup(0x1000, ExtSet::RV64GC, (0x1000, 7)).is_some());
        assert_eq!(c.stats.hits, 1);
        // Generation moved: the cached block must be dropped.
        assert!(c.lookup(0x1000, ExtSet::RV64GC, (0x1000, 8)).is_none());
        assert_eq!(c.stats.invalidations, 1);
        assert_eq!(c.stats.misses, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn profiles_are_distinct_keys() {
        let mut c = BlockCache::new();
        c.insert(0x1000, ExtSet::RV64GC, block(1));
        assert!(c.lookup(0x1000, ExtSet::RV64GCV, (0x1000, 1)).is_none());
        assert!(c.lookup(0x1000, ExtSet::RV64GC, (0x1000, 1)).is_some());
    }

    #[test]
    fn invalidation_recycles_slot_and_breaks_links() {
        let mut c = BlockCache::new();
        let mut mem = Memory::new();
        let gc = ExtSet::RV64GC;
        c.insert(0x1000, gc, block(1));
        let (b, _) = c.insert(0x2000, gc, block(1));
        let entry = JumpEntry {
            to: b,
            pc: 0x2000,
            stamp: mem.code_generation(),
        };
        c.jump_set(entry);
        assert!(c.validate_jump(entry, gc, &mut mem).is_some());
        // Another profile never takes the entry: blocks are keyed by it.
        assert!(c.validate_jump(entry, ExtSet::RV64GCV, &mut mem).is_none());
        // Invalidate the target, then reuse its freed slot under a new key:
        // the old entry must fail the key check.
        c.jump_set(entry);
        assert!(c.lookup(0x2000, gc, (0x1000, 2)).is_none());
        let (b2, _) = c.insert(0x3000, gc, block(1));
        assert_eq!(b2, b);
        assert_eq!(c.jump_hint(0x2000), Some(entry));
        assert!(c.validate_jump(entry, gc, &mut mem).is_none());
        // A failed validation drops the stored entry.
        assert!(c.jump_hint(0x2000).is_none());
    }

    #[test]
    fn clear_drops_slots_and_free_list_together() {
        let mut c = BlockCache::new();
        let mut mem = Memory::new();
        let (a, _) = c.insert(0x1000, ExtSet::RV64GC, block(1));
        let entry = JumpEntry {
            to: a,
            pc: 0x1000,
            stamp: mem.code_generation(),
        };
        c.jump_set(entry);
        c.clear();
        assert!(c.is_empty());
        assert!(c.jump_hint(0x1000).is_none());
        assert!(c.validate_jump(entry, ExtSet::RV64GC, &mut mem).is_none());
        // Fresh inserts start from slot 0 again.
        let (id, _) = c.insert(0x4000, ExtSet::RV64GC, block(1));
        assert_eq!(id, 0);
    }
}
