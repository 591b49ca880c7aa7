//! # chimera-rewrite
//!
//! CHBP — Correct and High-performance Binary Patching — the upgrade
//! vectorizer, and the baseline rewriters the paper compares against.
//!
//! There is one rewrite driver, [`pipeline`]
//! (scan → transform → plan → place → link → verify): it validates the
//! input, reserves the spill section, emits every unit once on a worker
//! pool (bit-identical output for every worker count), lays the units
//! out, resolves their relocations where they land, patches, attaches the
//! target section, verifies, traces, and caches per unit for incremental
//! refresh. A rewriting system is a [`RewriteEngine`] ([`engine`]) that
//! supplies only what differs: its unit partition, and each unit's
//! emission and placement — [`ChbpEngine`] (also the trap-entry
//! strawman), [`UpgradeEngine`], [`RegenEngine`] (Safer and ARMore) and
//! [`IdentityEngine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chbp;
pub mod emitter;
pub mod engine;
pub mod pipeline;
pub mod regen;
pub mod shared;
pub mod smile;
pub mod translate;
pub mod upgrade;

pub use chbp::{
    chbp_rewrite, ebreak_patch, lazy_block, verify_claim1, ChbpEngine, FaultTable, Mode,
    RewriteError, RewriteOptions, RewriteStats, Rewritten,
};
pub use engine::{
    Entry, Frame, IdentityEngine, Placement, Reloc, RewriteEngine, Scanned, UnitArtifact, Units,
};
pub use pipeline::{
    default_workers, run, run_cached, run_incremental, DirtySpan, EngineResult, RewriteCache,
};
pub use regen::{Flavor, RegenEngine, RegenInfo, SlowTrap};
pub use shared::{content_key, SharedCacheStats, SharedVariantCache, VariantHandle};
pub use upgrade::{upgrade_rewrite, UpgradeEngine};
