//! Content-addressed cross-process variant sharing.
//!
//! A [`SharedVariantCache`] maps the content hash of
//! `(binary bytes, extension profile, engine, flags)` to a fully rewritten
//! variant plus the [`RewriteCache`] that produced it. The first process to
//! need a variant pays the rewrite; every later spawn of the same content
//! [`checkout`](SharedVariantCache::checkout)s the shared entry in O(µs) —
//! the same input never rewrites twice, which is the rewrite-once-reuse-many
//! economics static rewriting is premised on (Zipr; see PAPERS.md).
//!
//! Isolation contract: the shared entry is immutable. A process that later
//! self-modifies its image re-rewrites through a **private** lazily cloned
//! copy of the per-unit cache ([`VariantHandle::cache_mut`]); its validation
//! stamps are per-process state, so one holder's SMC pokes can never
//! invalidate another holder's clean units (the isolation regression test
//! asserts both the stamp columns and bit-identical execution in the
//! untouched process).

use crate::chbp::{RewriteError, Rewritten};
use crate::engine::RewriteEngine;
use crate::pipeline::{identity, run_cached, RewriteCache};
use crate::regen::RegenInfo;
use chimera_obj::Binary;
use chimera_trace::{TraceEvent, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// FNV-1a, the workspace's standard checksum fold.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The content key of a rewrite request: a hash over the binary's section
/// bytes, names, addresses and permissions, its entry/`gp`/extension
/// profile, the engine name, and caller-defined `flags`. Two requests with
/// equal keys produce bit-identical variants (rewriting is a pure function
/// of exactly these inputs — worker count is deliberately excluded, since
/// output is worker-invariant), so the key is safe to share variants under.
pub fn content_key(binary: &Binary, engine: &str, flags: u64) -> u64 {
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, engine.as_bytes());
    h = fnv1a(h, &flags.to_le_bytes());
    h = fnv1a(h, &binary.entry.to_le_bytes());
    h = fnv1a(h, &binary.gp.to_le_bytes());
    h = fnv1a(h, binary.profile.to_string().as_bytes());
    for s in &binary.sections {
        h = fnv1a(h, s.name.as_bytes());
        h = fnv1a(h, &s.addr.to_le_bytes());
        let perms = (s.perms.r as u8) | (s.perms.w as u8) << 1 | (s.perms.x as u8) << 2;
        h = fnv1a(h, &[perms]);
        h = fnv1a(h, &(s.data.len() as u64).to_le_bytes());
        h = fnv1a(h, &s.data);
    }
    h
}

/// One immutable shared entry: the rewritten variant and the primed
/// per-unit cache template. Never mutated after insertion — processes that
/// need to invalidate clone the template first.
struct VariantEntry {
    key: u64,
    rewritten: Rewritten,
    regen: Option<RegenInfo>,
    cache: RewriteCache,
    hits: AtomicU64,
}

/// Aggregate counters of a [`SharedVariantCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Distinct variants resident.
    pub entries: u64,
    /// Checkouts served from a resident entry.
    pub hits: u64,
    /// Checkouts that had to rewrite.
    pub misses: u64,
}

/// A process-global, content-addressed cache of rewritten variants.
///
/// Thread-safe; the per-content rewrite runs *outside* the map lock, so
/// concurrent misses on different content never serialize (two racing
/// misses on the *same* content both rewrite — bit-identically — and the
/// first insertion wins).
#[derive(Default)]
pub struct SharedVariantCache {
    map: Mutex<HashMap<u64, Arc<VariantEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedVariantCache {
    /// An empty cache.
    pub fn new() -> SharedVariantCache {
        SharedVariantCache::default()
    }

    /// The workspace-global instance (what "cross-process" means in this
    /// in-process model: every simulated process of the workspace shares
    /// it, the way an OS-level variant store outlives single processes).
    pub fn global() -> &'static SharedVariantCache {
        static GLOBAL: OnceLock<SharedVariantCache> = OnceLock::new();
        GLOBAL.get_or_init(SharedVariantCache::new)
    }

    /// Checks out the variant for `(binary, engine, flags)`: serves the
    /// resident entry when the content key hits (recording a
    /// [`TraceEvent::VariantShared`] and `rewrite.cross_process_hits`),
    /// otherwise rewrites via [`run_cached`] with `workers` threads and
    /// inserts. The returned handle shares the entry; it only clones the
    /// per-unit cache if the caller actually needs to invalidate
    /// ([`VariantHandle::cache_mut`]), keeping warm checkouts O(µs).
    pub fn checkout(
        &self,
        engine: &dyn RewriteEngine,
        binary: &Binary,
        flags: u64,
        workers: usize,
        tracer: &Tracer,
    ) -> Result<VariantHandle, RewriteError> {
        let key = content_key(binary, &identity(engine), flags);
        let resident = self.map.lock().expect("variant map").get(&key).cloned();
        if let Some(entry) = resident {
            let hits = entry.hits.fetch_add(1, Ordering::Relaxed) + 1;
            self.hits.fetch_add(1, Ordering::Relaxed);
            if tracer.is_enabled() {
                tracer.record(0, TraceEvent::VariantShared { key, hits });
                tracer.count("rewrite.cross_process_hits", 1);
            }
            return Ok(VariantHandle {
                entry,
                private: None,
                shared_hit: true,
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (result, cache) = run_cached(engine, binary, workers, tracer)?;
        let entry = Arc::new(VariantEntry {
            key,
            rewritten: result.rewritten,
            regen: result.regen,
            cache,
            hits: AtomicU64::new(0),
        });
        let entry = self
            .map
            .lock()
            .expect("variant map")
            .entry(key)
            .or_insert(entry)
            .clone();
        Ok(VariantHandle {
            entry,
            private: None,
            shared_hit: false,
        })
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            entries: self.map.lock().expect("variant map").len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// One process's handle on a shared variant: read access to the rewritten
/// output, plus a lazily cloned private per-unit cache for incremental
/// re-rewriting after self-modification.
pub struct VariantHandle {
    entry: Arc<VariantEntry>,
    private: Option<RewriteCache>,
    /// Whether this checkout was served from a resident entry (false for
    /// the process that paid the rewrite).
    pub shared_hit: bool,
}

impl VariantHandle {
    /// The variant's content key.
    pub fn key(&self) -> u64 {
        self.entry.key
    }

    /// The rewritten binary, fault table and statistics.
    pub fn rewritten(&self) -> &Rewritten {
        &self.entry.rewritten
    }

    /// Regeneration metadata, for regeneration engines.
    pub fn regen(&self) -> Option<&RegenInfo> {
        self.entry.regen.as_ref()
    }

    /// Whether this handle has already privatized its per-unit cache
    /// (i.e. the process invalidated something). `false` means the process
    /// still reads purely shared state.
    pub fn has_private_cache(&self) -> bool {
        self.private.is_some()
    }

    /// Validation stamps of the **shared** template — all zero by the
    /// isolation contract, whatever any holder poked into its own copy.
    pub fn shared_stamps(&self) -> Vec<u64> {
        self.entry.cache.stamp_snapshot()
    }

    /// This process's private per-unit cache, cloned from the shared
    /// template on first use. Incremental re-rewrites
    /// (`run_incremental`) stamp invalidations into this copy only;
    /// the shared entry and every other holder stay untouched.
    pub fn cache_mut(&mut self) -> &mut RewriteCache {
        self.private.get_or_insert_with(|| self.entry.cache.clone())
    }
}
