//! Pooled guest-memory slots: O(µs) process instantiation.
//!
//! A [`MemoryPool`] holds an immutable [`MasterImage`] (sections + zeroed
//! stack behind `Arc`s) and a free list of recycled [`Memory`] slots.
//! [`MemoryPool::acquire`] hands out a slot in O(regions): either a fresh
//! copy-on-write instantiation ([`Memory::instantiate_from`] — no bytes
//! copied) or a recycled slot whose dirtied spans were already restored
//! from the master on release. This is the memfd/pooling-allocator idea
//! from wasmtime applied to the region-granular memory model: spawn cost
//! is proportional to *dirt*, never to image size, which is what makes
//! churn-heavy many-guest scenarios (`pipeline_e2e`'s `hetero_churn`) viable.

use crate::cpu::Cpu;
use crate::mem::{MasterImage, Memory};
use chimera_isa::{ExtSet, XReg};
use chimera_obj::STACK_TOP;
use std::sync::Arc;

/// Lifetime counters of a [`MemoryPool`] (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Slots built fresh from the master (free list was empty).
    pub instantiated: u64,
    /// Slots served from the free list.
    pub reused: u64,
    /// Slots restored and returned to the free list.
    pub recycled: u64,
    /// Slots dropped on release (layout diverged from the master, or the
    /// memory belonged to a different pool).
    pub discarded: u64,
    /// Total bytes restored from the master across all recycles.
    pub restored_bytes: u64,
}

/// A pool of pre-reservable guest-memory slots sharing one master image.
#[derive(Debug)]
pub struct MemoryPool {
    master: Arc<MasterImage>,
    free: Vec<Memory>,
    stats: PoolStats,
}

impl MemoryPool {
    /// A pool over `master` with an empty free list.
    pub fn new(master: MasterImage) -> MemoryPool {
        MemoryPool {
            master: Arc::new(master),
            free: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Pre-reserves `slots` instantiated memories on the free list, so the
    /// first `slots` acquisitions never construct region vectors under
    /// latency measurement.
    pub fn prewarm(&mut self, slots: usize) {
        while self.free.len() < slots {
            self.free.push(Memory::instantiate_from(&self.master));
            self.stats.instantiated += 1;
        }
    }

    /// The shared master image.
    pub fn master(&self) -> &Arc<MasterImage> {
        &self.master
    }

    /// Slots currently on the free list.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Hands out a memory slot: recycled if one is free, otherwise a fresh
    /// copy-on-write instantiation. Either way the slot observes exactly
    /// like an eager [`Memory::load`] of the same image.
    pub fn acquire(&mut self) -> Memory {
        match self.free.pop() {
            Some(m) => {
                self.stats.reused += 1;
                m
            }
            None => {
                self.stats.instantiated += 1;
                Memory::instantiate_from(&self.master)
            }
        }
    }

    /// Returns a slot to the pool. On success the dirtied spans were
    /// restored from the master ([`Memory::recycle`]) and the restored
    /// byte count is returned; `None` means the slot was discarded — it
    /// belonged to another pool, or its region layout diverged from the
    /// master (map/unmap happened) and restoring is not possible.
    pub fn release(&mut self, mut mem: Memory) -> Option<u64> {
        let ours = mem.master().is_some_and(|m| Arc::ptr_eq(m, &self.master));
        if !ours {
            self.stats.discarded += 1;
            return None;
        }
        match mem.recycle() {
            Some(restored) => {
                self.stats.recycled += 1;
                self.stats.restored_bytes += restored;
                self.free.push(mem);
                Some(restored)
            }
            None => {
                self.stats.discarded += 1;
                None
            }
        }
    }
}

/// Boots a CPU on a pooled memory slot: acquires a slot and sets pc/sp/gp
/// from the master image, mirroring [`crate::boot`] for eager loads.
pub fn boot_pooled(pool: &mut MemoryPool, profile: ExtSet) -> (Cpu, Memory) {
    let mem = pool.acquire();
    let mut cpu = Cpu::new(profile);
    cpu.hart.pc = pool.master().entry();
    cpu.hart.set_x(XReg::SP, STACK_TOP - 64);
    cpu.hart.set_x(XReg::GP, pool.master().gp());
    (cpu, mem)
}
