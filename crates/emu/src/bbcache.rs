//! A generation-invalidated basic-block decode cache with chain links.
//!
//! The interpreter's hot loop used to pay fetch + decode + extension-gating
//! for every dynamic instruction. This module memoizes that front end at
//! basic-block granularity, the same trick binary translators (QEMU, r2vm)
//! use: the first execution of a `pc` decodes forward until the first
//! control-transfer or system instruction and records the decoded run (plus
//! its lowered micro-op body, see [`crate::uop`]); every later execution
//! replays the recorded instructions directly.
//!
//! Blocks live in stable slots so the execution engine can **chain** them:
//! a block whose terminator is a direct control transfer (or whose body
//! simply falls through) records the slot id of its successor, and a
//! `jalr` terminator records its *last observed* target as a one-entry
//! BTB ([`ChainEdge::Indirect`]), letting hot loops and call/return pairs
//! run block-to-block without a hash lookup per block. Chain links are
//! validated before every follow — see [`ChainLink`] — and severed (or,
//! for the BTB edge, simply bypassed and later replaced) the moment
//! validation fails, so chaining can change wall-clock time only, never
//! results.
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
//!   survives only as a cheap first-level filter (and as the chain-link
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
//! [`crate::ExecMode`] but `Reference`, which never touches it: the
//! interpreter replays `insts` through `Cpu::exec`, the engine and the JIT
//! run the lowered `ops` with identical semantics, and cycle accounting,
//! trap PCs and architectural results are bit-identical across all four
//! modes (the differential suite asserts full [`crate::RunResult`]
//! equality plus exact counter reconciliation).

use crate::uop::Uop;
use chimera_isa::{ExtSet, Inst};
use std::collections::HashMap;
use std::sync::Arc;

/// Longest run of instructions recorded in one block. Bounds build cost on
/// pathological straight-line code; the tail simply starts the next block.
const MAX_BLOCK_INSTS: usize = 64;

/// Cache capacity in blocks. On overflow the whole map is cleared (workload
/// code footprints here are far smaller; a full flush keeps the policy
/// trivially correct). Clearing also drops every slot and chain link, so no
/// stale slot id can survive a flush.
const MAX_BLOCKS: usize = 1 << 16;

/// Direct-mapped jump-cache size, in entries. The jump cache short-circuits
/// dispatcher re-entries that chain links cannot cover (above all BTB
/// misses on megamorphic indirect call sites): an array probe replaces the
/// fingerprint + hash-map lookup, with the exact same [`ChainLink`]
/// validation rules. Sized to hold every block of the bench workloads with
/// headroom while staying cache-warm.
const JUMP_CACHE: usize = 1 << 11;

/// Decode-cache observability counters.
///
/// Reconciliation invariant (asserted by the differential suite): for the
/// same program, `hits(interpreter) == hits(engine) + chained(engine)` and
/// `hits(interpreter) == hits(jit) + chained(jit) + jitted(jit)` — with
/// `misses`/`invalidations`/`blocks_built` identical across all modes. A
/// chained follow is exactly a hit whose lookup was short-circuited, and a
/// jitted chain entry is exactly a hit whose dispatch never left host code.
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
    /// Block entries that followed a validated chain link instead of doing
    /// a dispatcher lookup (engine mode, and the blocks the JIT tier
    /// declines in JIT mode; 0 for the interpreter).
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

/// One decoded instruction inside a block.
#[derive(Debug, Clone)]
pub struct CachedInst {
    /// The decoded instruction.
    pub inst: Inst,
    /// Encoded length in bytes (2 or 4).
    pub len: u64,
    /// Whether this instruction can store to memory (used for the
    /// mid-block self-modification re-check).
    pub is_store: bool,
}

/// A decoded basic block: straight-line instructions ending at (and
/// including) the first control-transfer or system instruction.
#[derive(Debug)]
pub struct Block {
    /// The instructions, in address order starting at the block's key pc.
    pub insts: Vec<CachedInst>,
    /// The lowered micro-op body (same instructions, pre-resolved operands
    /// and pre-computed costs; see [`crate::uop`]). Built once at insert
    /// time so interpreter and engine runs build identical blocks.
    pub ops: Box<[Uop]>,
    /// Start address of the executable region the block was decoded from.
    pub region_start: u64,
    /// That region's generation at decode time.
    pub region_gen: u64,
}

/// A direct block-to-block successor edge recorded by the engine.
///
/// Validation before every follow (in `Cpu::follow_link`):
/// 1. the target slot must still hold a block keyed `(pc, profile)` —
///    guards against slot reuse after a flush;
/// 2. fast path: if `stamp` equals the current global
///    [`crate::Memory::code_generation`], no executable byte anywhere has
///    changed since the link was last validated, so the target fingerprint
///    cannot have moved and the follow is free;
/// 3. slow path: the target's own region fingerprint is re-checked; a
///    match re-stamps the link, a mismatch severs it (the dispatcher then
///    performs the ordinary invalidating lookup, keeping invalidation
///    counters identical to the interpreter's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// Target slot id.
    pub to: u32,
    /// Target block's key pc (revalidated before following).
    pub pc: u64,
    /// Global code generation at link creation / last revalidation.
    pub stamp: u64,
}

/// Which outgoing edge of a block a chain link lives on.
///
/// The static edges ([`ChainEdge::Taken`], [`ChainEdge::Fall`]) always
/// reproduce the same successor pc, so their links are installed once and
/// only ever severed. The [`ChainEdge::Indirect`] edge is a one-entry BTB
/// for `jalr` terminators: it caches the *last observed* target and is
/// replaced whenever the observed target changes. Every follow still
/// revalidates pc, key and fingerprint, so a stale prediction costs one
/// dispatcher lookup and never a wrong result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainEdge {
    /// Terminator redirected (taken branch / `jal`).
    Taken,
    /// Fall-through (not-taken branch / size-truncated block).
    Fall,
    /// Last observed `jalr` target (one-entry BTB, replace-on-miss).
    Indirect,
}

/// A live cache slot: the block plus its (at most three) successor links.
#[derive(Debug, Clone)]
struct Slot {
    /// The `(pc, profile)` key this slot is registered under.
    key: (u64, ExtSet),
    block: Arc<Block>,
    /// Successor when the terminator redirected (taken branch / `jal`).
    taken: Option<ChainLink>,
    /// Fall-through successor (not-taken branch / size-truncated block).
    fall: Option<ChainLink>,
    /// Last observed indirect (`jalr`) successor.
    indirect: Option<ChainLink>,
}

impl Slot {
    fn edge_mut(&mut self, edge: ChainEdge) -> &mut Option<ChainLink> {
        match edge {
            ChainEdge::Taken => &mut self.taken,
            ChainEdge::Fall => &mut self.fall,
            ChainEdge::Indirect => &mut self.indirect,
        }
    }
}

/// The per-CPU basic-block decode cache.
///
/// Blocks are shared via [`Arc`] (not `Rc`) so [`crate::Cpu`] stays `Send`
/// — the many-hart kernel's `FiberPool` steps CPUs on worker OS threads.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    map: HashMap<(u64, ExtSet), u32>,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Direct-mapped dispatcher short-circuit, indexed by target pc
    /// (see [`JUMP_CACHE`]). Allocated lazily on first store so
    /// interpreter/reference CPUs never pay for it. Entries are *hints*:
    /// every probe revalidates with the same rules as a chain-link follow.
    jump: Vec<Option<ChainLink>>,
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
    /// (the engine's chain-link handle). Stale blocks are dropped (counted
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

    /// Drops one slot and unregisters its key. Chain links *into* the slot
    /// are left behind on purpose: every follow revalidates the target slot
    /// first, so a dangling link simply fails validation and is severed on
    /// its next use.
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
            taken: None,
            fall: None,
            indirect: None,
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

    /// The outgoing link on one of `from`'s edges, if any.
    pub(crate) fn link_of(&self, from: u32, edge: ChainEdge) -> Option<ChainLink> {
        let slot = self.slots.get(from as usize)?.as_ref()?;
        match edge {
            ChainEdge::Taken => slot.taken,
            ChainEdge::Fall => slot.fall,
            ChainEdge::Indirect => slot.indirect,
        }
    }

    /// Installs a chain link on one of `from`'s edges — but only if the
    /// source slot still holds the block keyed `from_key` (the slot may
    /// have been flushed and reused between block execution and link time).
    /// An occupied static edge is left alone; an occupied
    /// [`ChainEdge::Indirect`] edge is *replaced* (BTB semantics). Returns
    /// whether a previously empty edge was populated — the trace-event
    /// trigger, so `BlockChained` stays a cold event even on megamorphic
    /// call sites.
    pub(crate) fn set_link(
        &mut self,
        from: u32,
        from_key: (u64, ExtSet),
        edge: ChainEdge,
        link: ChainLink,
    ) -> bool {
        let Some(Some(slot)) = self.slots.get_mut(from as usize) else {
            return false;
        };
        if slot.key != from_key {
            return false;
        }
        let e = slot.edge_mut(edge);
        let was_empty = e.is_none();
        if was_empty || edge == ChainEdge::Indirect {
            *e = Some(link);
        }
        was_empty
    }

    /// Drops the link on one of `from`'s edges.
    pub(crate) fn sever(&mut self, from: u32, edge: ChainEdge) {
        if let Some(Some(slot)) = self.slots.get_mut(from as usize) {
            *slot.edge_mut(edge) = None;
        }
    }

    /// Refreshes a link's generation stamp after a successful slow-path
    /// revalidation.
    pub(crate) fn restamp(&mut self, from: u32, edge: ChainEdge, stamp: u64) {
        if let Some(Some(slot)) = self.slots.get_mut(from as usize) {
            if let Some(link) = slot.edge_mut(edge) {
                link.stamp = stamp;
            }
        }
    }

    #[inline]
    fn jump_idx(pc: u64) -> usize {
        // Instructions are 2-byte aligned, so drop the dead bit before
        // folding into the table.
        ((pc >> 1) as usize) & (JUMP_CACHE - 1)
    }

    /// The jump-cache hint for `pc`, if one is stored. The caller must
    /// revalidate it exactly like a chain link before use.
    #[inline]
    pub(crate) fn jump_hint(&self, pc: u64) -> Option<ChainLink> {
        self.jump
            .get(Self::jump_idx(pc))
            .copied()
            .flatten()
            .filter(|l| l.pc == pc)
    }

    /// Stores (or replaces) the jump-cache entry for `link.pc`, allocating
    /// the table on first use.
    pub(crate) fn jump_set(&mut self, link: ChainLink) {
        if self.jump.is_empty() {
            self.jump = vec![None; JUMP_CACHE];
        }
        self.jump[Self::jump_idx(link.pc)] = Some(link);
    }

    /// Drops the jump-cache entry for `pc` (after a failed revalidation).
    pub(crate) fn jump_clear(&mut self, pc: u64) {
        if let Some(e) = self.jump.get_mut(Self::jump_idx(pc)) {
            if e.is_some_and(|l| l.pc == pc) {
                *e = None;
            }
        }
    }

    /// Refreshes the jump-cache entry's generation stamp after a
    /// successful slow-path revalidation.
    pub(crate) fn jump_restamp(&mut self, pc: u64, stamp: u64) {
        if let Some(Some(l)) = self.jump.get_mut(Self::jump_idx(pc)) {
            if l.pc == pc {
                l.stamp = stamp;
            }
        }
    }

    /// The target-side view a link follow validates against: the slot's
    /// key, its block's fingerprint, and the block itself.
    #[allow(clippy::type_complexity)]
    pub(crate) fn slot_block(&self, id: u32) -> Option<((u64, ExtSet), (u64, u64), Arc<Block>)> {
        let slot = self.slots.get(id as usize)?.as_ref()?;
        Some((
            slot.key,
            (slot.block.region_start, slot.block.region_gen),
            Arc::clone(&slot.block),
        ))
    }

    /// Drops every cached block, slot, chain link and jump-cache entry
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
    use crate::uop::lower_block;
    use chimera_isa::nop;

    fn block(gen: u64) -> Block {
        let insts = vec![CachedInst {
            inst: nop(),
            len: 4,
            is_store: false,
        }];
        let ops = lower_block(&insts, &CostModel::default());
        Block {
            insts,
            ops,
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
        let (a, _) = c.insert(0x1000, ExtSet::RV64GC, block(1));
        let (b, _) = c.insert(0x2000, ExtSet::RV64GC, block(1));
        assert!(c.set_link(
            a,
            (0x1000, ExtSet::RV64GC),
            ChainEdge::Taken,
            ChainLink {
                to: b,
                pc: 0x2000,
                stamp: 5,
            },
        ));
        assert_eq!(c.link_of(a, ChainEdge::Taken).map(|l| l.to), Some(b));
        // Invalidate the target: the slot goes dead, and the stale link's
        // target-side validation view disappears with it.
        assert!(c.lookup(0x2000, ExtSet::RV64GC, (0x1000, 2)).is_none());
        assert!(c.slot_block(b).is_none());
        // The freed slot is reused by the next insert under a new key, so a
        // follow of the old link must fail the key check.
        let (b2, _) = c.insert(0x3000, ExtSet::RV64GC, block(1));
        assert_eq!(b2, b);
        let (key, _, _) = c.slot_block(b2).unwrap();
        assert_ne!(key, (0x2000, ExtSet::RV64GC));
        // Severing clears the edge.
        c.sever(a, ChainEdge::Taken);
        assert!(c.link_of(a, ChainEdge::Taken).is_none());
    }

    #[test]
    fn set_link_requires_matching_source_key() {
        let mut c = BlockCache::new();
        let (a, _) = c.insert(0x1000, ExtSet::RV64GC, block(1));
        let stale_key = (0xdead, ExtSet::RV64GC);
        assert!(!c.set_link(
            a,
            stale_key,
            ChainEdge::Fall,
            ChainLink {
                to: a,
                pc: 0x1000,
                stamp: 0,
            },
        ));
        assert!(c.link_of(a, ChainEdge::Fall).is_none());
    }

    #[test]
    fn static_edges_install_once_but_indirect_edge_replaces() {
        let mut c = BlockCache::new();
        let key = (0x1000, ExtSet::RV64GC);
        let (a, _) = c.insert(0x1000, ExtSet::RV64GC, block(1));
        let (b, _) = c.insert(0x2000, ExtSet::RV64GC, block(1));
        let (d, _) = c.insert(0x3000, ExtSet::RV64GC, block(1));
        let link = |to, pc| ChainLink { to, pc, stamp: 1 };
        // Static edge: the first install wins and sticks.
        assert!(c.set_link(a, key, ChainEdge::Taken, link(b, 0x2000)));
        assert!(!c.set_link(a, key, ChainEdge::Taken, link(d, 0x3000)));
        assert_eq!(c.link_of(a, ChainEdge::Taken).map(|l| l.to), Some(b));
        // BTB edge: replaced on every new observed target; only the first
        // install reports "newly populated" (the trace-event trigger).
        assert!(c.set_link(a, key, ChainEdge::Indirect, link(b, 0x2000)));
        assert!(!c.set_link(a, key, ChainEdge::Indirect, link(d, 0x3000)));
        assert_eq!(c.link_of(a, ChainEdge::Indirect).map(|l| l.to), Some(d));
    }

    #[test]
    fn clear_drops_slots_and_free_list_together() {
        let mut c = BlockCache::new();
        let (a, _) = c.insert(0x1000, ExtSet::RV64GC, block(1));
        c.clear();
        assert!(c.is_empty());
        assert!(c.slot_block(a).is_none());
        // Fresh inserts start from slot 0 again.
        let (id, _) = c.insert(0x4000, ExtSet::RV64GC, block(1));
        assert_eq!(id, 0);
    }
}
