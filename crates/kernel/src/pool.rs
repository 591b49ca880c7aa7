//! Pooled process instantiation: content-addressed masters + slot reuse.
//!
//! A [`ProcessPool`] keeps one [`MemoryPool`] per registered [`Variant`],
//! keyed by the variant binary's content key. [`ProcessPool::spawn`] is the
//! fast path `pipeline_e2e`'s `hetero_churn` measures: acquire a copy-on-write
//! slot (or a recycled one whose dirt was already restored), point a fresh
//! CPU at the master's entry, done — O(µs), independent of image size.
//! [`ProcessPool::recycle`] returns a slot after its guest exits, restoring
//! only the spans the run dirtied and emitting
//! [`TraceEvent::SlotRecycled`] so `tests/trace_coverage.rs` can reconcile
//! recycles exactly against the `pool.slots_recycled` counter.
//!
//! The master image mirrors what [`crate::Process::load`] maps for the
//! same variant — sections, a default-size stack, and the `[lazy]`
//! rewrite slack when the variant has a fault-handling table — so pooled
//! and eagerly loaded processes observe identical address spaces.

use crate::process::{Variant, LAZY_SLACK};
use chimera_emu::{boot_pooled, Cpu, MasterImage, Memory, MemoryPool, PoolStats};
use chimera_isa::ExtSet;
use chimera_obj::{Perms, DEFAULT_STACK_SIZE};
use chimera_rewrite::content_key;
use chimera_trace::{TraceEvent, Tracer};
use std::time::Instant;

/// One registered variant: its content key, runtime tables, and the
/// memory pool over its master image.
struct PoolEntry {
    key: u64,
    variant: Variant,
    pool: MemoryPool,
}

/// A pool of spawnable processes, one slot pool per registered variant.
pub struct ProcessPool {
    entries: Vec<PoolEntry>,
    stack_bytes: u64,
    tracer: Tracer,
}

impl ProcessPool {
    /// An empty pool with the default per-process stack
    /// ([`chimera_obj::DEFAULT_STACK_SIZE`]) and no tracing.
    pub fn new() -> ProcessPool {
        ProcessPool::with_config(DEFAULT_STACK_SIZE, Tracer::disabled())
    }

    /// An empty pool with an explicit stack size and trace handle.
    pub fn with_config(stack_bytes: u64, tracer: Tracer) -> ProcessPool {
        assert!(stack_bytes > 0, "stack must be at least one byte");
        ProcessPool {
            entries: Vec::new(),
            stack_bytes,
            tracer,
        }
    }

    /// Registers a variant and returns its content key. Registering the
    /// same content twice returns the existing key without building a
    /// second master; the `[lazy]` slack is folded into the key's flags so
    /// table-less and table-bearing builds of the same bytes never alias.
    pub fn register(&mut self, variant: Variant) -> u64 {
        let lazy = lazy_base(&variant);
        let key = content_key(&variant.binary, "process-pool", lazy.unwrap_or(0));
        if self.entries.iter().any(|e| e.key == key) {
            return key;
        }
        let mut master = MasterImage::new(&variant.binary, self.stack_bytes);
        if let Some(base) = lazy {
            master.push_region(base, vec![0; LAZY_SLACK as usize], Perms::RX, "[lazy]");
        }
        self.entries.push(PoolEntry {
            key,
            variant,
            pool: MemoryPool::new(master),
        });
        key
    }

    /// Pre-reserves `slots` instantiated memories for `key`'s pool.
    pub fn prewarm(&mut self, key: u64, slots: usize) {
        if let Some(e) = self.entry_mut(key) {
            e.pool.prewarm(slots);
        }
    }

    /// The registered variant for `key`.
    pub fn variant(&self, key: u64) -> Option<&Variant> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| &e.variant)
    }

    /// Lifetime slot counters for `key`'s pool.
    pub fn stats(&self, key: u64) -> Option<PoolStats> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.pool.stats())
    }

    /// Slots currently free in `key`'s pool.
    pub fn free_slots(&self, key: u64) -> usize {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map_or(0, |e| e.pool.free_slots())
    }

    /// The spawn fast path: a booted CPU on a pooled slot. Observes the
    /// wall-clock spawn latency into the `pool.spawn_ns` histogram and
    /// bumps `pool.spawns`.
    pub fn spawn(&mut self, key: u64, profile: ExtSet) -> Option<(Cpu, Memory)> {
        let enabled = self.tracer.is_enabled();
        let start = enabled.then(Instant::now);
        let e = self.entry_mut(key)?;
        let booted = boot_pooled(&mut e.pool, profile);
        if let Some(start) = start {
            self.tracer
                .observe("pool.spawn_ns", start.elapsed().as_nanos() as u64);
            self.tracer.count("pool.spawns", 1);
        }
        Some(booted)
    }

    /// Returns a slot after its guest ran on `hart`. On a successful
    /// recycle, emits [`TraceEvent::SlotRecycled`] with the restored byte
    /// count and bumps `pool.slots_recycled`; a slot whose layout diverged
    /// (or that belongs to no registered pool) is dropped and counted
    /// under `pool.slots_discarded`. Returns the restored byte count.
    pub fn recycle(&mut self, key: u64, hart: u64, mem: Memory) -> Option<u64> {
        let Some(e) = self.entry_mut(key) else {
            self.tracer.count("pool.slots_discarded", 1);
            return None;
        };
        match e.pool.release(mem) {
            Some(restored_bytes) => {
                if self.tracer.is_enabled() {
                    self.tracer.record(
                        0,
                        TraceEvent::SlotRecycled {
                            hart,
                            restored_bytes,
                        },
                    );
                    self.tracer.count("pool.slots_recycled", 1);
                }
                Some(restored_bytes)
            }
            None => {
                self.tracer.count("pool.slots_discarded", 1);
                None
            }
        }
    }

    fn entry_mut(&mut self, key: u64) -> Option<&mut PoolEntry> {
        self.entries.iter_mut().find(|e| e.key == key)
    }
}

impl Default for ProcessPool {
    fn default() -> Self {
        ProcessPool::new()
    }
}

/// Where the variant's `[lazy]` rewrite slack starts, if it has any —
/// mirrors the [`crate::Process::load`] mapping rule.
fn lazy_base(variant: &Variant) -> Option<u64> {
    let fht = variant.tables.fht.as_ref()?;
    (fht.target_range.1 > fht.target_range.0).then_some(fht.target_range.1)
}
