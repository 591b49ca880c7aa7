//! Incremental variant refresh: the kernel-side consumer of the
//! rewriter's per-unit cache.
//!
//! At load time the kernel rewrites each variant from scratch and keeps
//! the [`RewriteCache`] the run primed. At runtime, code mutations —
//! lazy-rewrite patches, guest self-modification through `poke_code`,
//! MMView remaps — all funnel through the emulator's dirty-region
//! channel (`Memory::dirty_regions_since`), stamped with workspace-unique
//! region generations. [`VariantRefresher::refresh`] drains that channel
//! past its watermark and re-rewrites *only* the units the mutations
//! invalidated; every clean unit's bytes are reused verbatim. The
//! refreshed variant is bit-identical to a from-scratch rewrite (the
//! incremental driver hard-asserts it per re-emitted unit).

use crate::process::Variant;
use chimera_emu::Memory;
use chimera_obj::Binary;
use chimera_rewrite::{run_cached, run_incremental, RewriteCache, RewriteEngine, RewriteError};
use chimera_trace::Tracer;

/// Owns one variant's rewrite engine, input binary and per-unit cache,
/// and rebuilds the variant incrementally when the runtime memory image
/// reports code mutations.
pub struct VariantRefresher {
    engine: Box<dyn RewriteEngine>,
    input: Binary,
    workers: usize,
    cache: RewriteCache,
    /// Generation watermark: dirty spans at or below it were already
    /// consumed by a previous refresh (or predate the variant).
    watermark: u64,
}

impl VariantRefresher {
    /// Rewrites `input` from scratch with `engine`, returning the
    /// refresher (cache primed, watermark zero — call
    /// [`Self::mark_clean`] once the image is loaded) and the initial
    /// variant.
    pub fn build(
        engine: Box<dyn RewriteEngine>,
        input: Binary,
        workers: usize,
        tracer: &Tracer,
    ) -> Result<(VariantRefresher, Variant), RewriteError> {
        let (result, cache) = run_cached(engine.as_ref(), &input, workers, tracer)?;
        let refresher = VariantRefresher {
            engine,
            input,
            workers,
            cache,
            watermark: 0,
        };
        Ok((refresher, result.into()))
    }

    /// Advances the watermark past every mutation `mem` has seen so far
    /// — typically called right after loading the variant's image, so
    /// the load-time mappings don't count as invalidations.
    pub fn mark_clean(&mut self, mem: &Memory) {
        self.watermark = mem.generation_watermark();
    }

    /// Units in the cached partition.
    pub fn unit_count(&self) -> usize {
        self.cache.unit_count()
    }

    /// Re-rewrites the variant against the code mutations `mem` reports
    /// past the watermark. Returns `Ok(None)` when nothing was mutated
    /// (no work done); otherwise the refreshed variant — bit-identical
    /// to a from-scratch rewrite — with only the dirty units redone.
    pub fn refresh(
        &mut self,
        mem: &Memory,
        tracer: &Tracer,
    ) -> Result<Option<Variant>, RewriteError> {
        let dirty = mem.dirty_regions_since(self.watermark);
        if dirty.is_empty() {
            return Ok(None);
        }
        let result = run_incremental(
            self.engine.as_ref(),
            &self.input,
            &mut self.cache,
            &dirty,
            self.workers,
            tracer,
        )?;
        self.watermark = mem.generation_watermark();
        Ok(Some(result.into()))
    }
}
