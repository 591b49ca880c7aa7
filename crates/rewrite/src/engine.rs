//! What a rewriting system supplies to the shared driver.
//!
//! Every system — CHBP, the trap-entry strawman, the Safer/ARMore
//! regeneration flavors, the upgrade vectorizer and the FAM/MELF identity
//! passthrough — is a [`RewriteEngine`]: it names the section its code
//! goes to and *scans* the input into a set of independent rewrite
//! [`Units`]. The unit set answers the only questions that differ between
//! rewriting systems:
//!
//! * **size** — how many bytes a unit emits (by default one scratch
//!   emission: emission is size-invariant in its base address);
//! * **place** — given the running target-section cursor, where the unit
//!   goes and how the original section reaches it (SMILE trampoline, trap,
//!   nothing) — or that its source is left untouched;
//! * **emit** — the unit's bytes and table fragments at an address: one
//!   pure function behind scan-time sizing, the parallel transform and
//!   incremental re-emission, so the three can never disagree;
//! * **link** — an optional engine-specific fix-up of the output binary
//!   (regeneration's original-section redirects, data-pointer encoding and
//!   entry fix-up).
//!
//! Everything else — input validation, the `.chimera.vregs` reservation,
//! the sizing and transform fan-outs, layout bookkeeping, target-section
//! assembly and attachment, patching, verification, trace events and the
//! per-unit cache — is [`crate::pipeline`]'s, written once.

use crate::chbp::{FaultTable, RewriteError, RewriteStats};
use crate::regen::RegenInfo;
use chimera_isa::ExtSet;
use chimera_obj::Binary;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The addresses the pipeline fixed before the engine saw the input.
/// All zero for an engine without a target section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Frame {
    /// Base of the `.chimera.vregs` spill section (simulated vector state).
    pub spill_base: u64,
    /// The input's psABI `gp` value.
    pub abi_gp: u64,
    /// Where the target section will land.
    pub target_base: u64,
}

/// A staged rewriting system. Its `Debug` rendering is its cache identity:
/// [`crate::pipeline::run_incremental`] and
/// [`crate::SharedVariantCache::checkout`] treat two engines as the same
/// rewrite only when they print alike, so every parameter that can change
/// the output must be a field `Debug` shows (derive it).
pub trait RewriteEngine: Sync + std::fmt::Debug {
    /// Name of the executable section the engine's code goes to. `None`
    /// means the engine emits no code: the pipeline reserves nothing,
    /// attaches nothing, and the output is the input.
    fn target_section(&self) -> Option<&'static str>;

    /// Builds the analyses the engine needs and partitions `input` into
    /// units. `workers` bounds any fan-out of the engine's own.
    fn scan(&self, input: &Binary, frame: Frame, workers: usize) -> Result<Scanned, RewriteError>;
}

/// What [`RewriteEngine::scan`] found.
pub struct Scanned {
    /// The engine-owned unit set: its analyses and whatever it needs to
    /// place and emit each unit. Shared (not cloned) with the per-unit
    /// cache.
    pub units: Arc<dyn Units>,
    /// The input-address range `[start, end)` each unit translates, in
    /// unit order. A unit's index here is its identity — layout, artifacts
    /// and fragment merges all follow this order, which is what makes the
    /// parallel transform deterministic — and the incremental driver keys
    /// the dirty-unit set on these ranges.
    pub ranges: Vec<(u64, u64)>,
    /// The profile the output binary requires.
    pub profile: ExtSet,
    /// Recognized instructions.
    pub total_insts: usize,
    /// Source instructions (needing rewrite).
    pub source_insts: usize,
    /// Source instructions left unpatched because nothing can translate
    /// them (they fault at runtime; the kernel migrates, FAM-style).
    pub untranslated: BTreeSet<u64>,
}

/// The per-unit hooks of one scanned input. Every method is a pure
/// function of `(self, arguments)`; the pipeline calls `size` and `emit`
/// from worker threads.
pub trait Units: Send + Sync {
    /// Emitted size of unit `idx`. Emission is size-invariant in its base
    /// address, so one emission at the `scratch` address measures it; an
    /// engine that fixed its slot sizes while scanning answers from those.
    fn size(&self, idx: usize, scratch: u64) -> Result<u64, RewriteError> {
        Ok(self.emit(idx, scratch)?.bytes.len() as u64)
    }

    /// Decides where unit `idx` (`size` bytes) goes, given that the target
    /// section is filled up to `cursor`. `None` leaves the unit's source
    /// untouched: nothing is emitted or patched for it.
    fn place(&self, idx: usize, cursor: u64, size: u64) -> Result<Option<Placement>, RewriteError>;

    /// Emits unit `idx` at `addr`.
    fn emit(&self, idx: usize, addr: u64) -> Result<UnitArtifact, RewriteError>;

    /// Engine-specific fix-up of the patched output, before the target
    /// section is attached. Returns the number of items it touched (for
    /// the link pass's trace event).
    fn link(
        &self,
        _input: &Binary,
        _out: &mut Binary,
        _fht: &mut FaultTable,
        _stats: &mut RewriteStats,
    ) -> Result<u64, RewriteError> {
        Ok(0)
    }
}

/// One unit's planned placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Final address of the unit's first emitted byte (`>=` the cursor;
    /// the gap is filled with illegal halfwords).
    pub addr: u64,
    /// How the original section reaches the unit.
    pub entry: Entry,
}

/// How control gets from the original section to a placed unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A SMILE trampoline (plus illegal filler) overwriting the bytes at
    /// `site`; see [`crate::smile::place_smile`].
    Smile {
        /// Trampoline head address.
        site: u64,
        /// The bytes overwriting the site's space.
        patch: Vec<u8>,
        /// Whether the encoding had to honour P2/P3 constraints.
        constrained: bool,
    },
    /// A trap replacing the `len`-byte instruction at `site`; the kernel
    /// redirects through the fault table's `trap_entries`.
    Trap {
        /// The replaced instruction's address.
        site: u64,
        /// Its length (2 or 4).
        len: u8,
    },
    /// No patch: the engine's `link` step redirects the original section.
    Unpatched,
}

/// What one unit's emission produced: bytes plus fragments of the fault
/// table, statistics and regeneration metadata, merged (in unit order)
/// during the place stage. Artifacts are also what the incremental path
/// caches per unit: emission is a pure function of `(unit, address)`, so a
/// cached artifact is reusable verbatim until its unit's source range is
/// invalidated.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct UnitArtifact {
    /// The unit's emitted bytes.
    pub bytes: Vec<u8>,
    /// Fault-table fragment (`redirects`/`trap_exits`/`untranslated`).
    pub fht: FaultTable,
    /// Statistics fragment (exit-side counters only).
    pub stats: RewriteStats,
    /// Regeneration-metadata fragment (`Some` from regeneration engines
    /// only, which is what makes [`crate::EngineResult::regen`] `Some`).
    pub regen: Option<RegenInfo>,
}

/// The FAM/MELF identity engine: no rewriting at all — the variant runs
/// the input binary as-is. Exists so every system in the §6.1 comparison
/// dispatches through the same pipeline (and produces the same trace
/// shape).
#[derive(Debug)]
pub struct IdentityEngine;

impl RewriteEngine for IdentityEngine {
    fn target_section(&self) -> Option<&'static str> {
        None
    }

    fn scan(&self, input: &Binary, _: Frame, _: usize) -> Result<Scanned, RewriteError> {
        Ok(Scanned {
            units: Arc::new(IdentityEngine),
            ranges: Vec::new(),
            profile: input.profile,
            total_insts: 0,
            source_insts: 0,
            untranslated: BTreeSet::new(),
        })
    }
}

/// The empty unit set.
impl Units for IdentityEngine {
    fn place(&self, idx: usize, _: u64, _: u64) -> Result<Option<Placement>, RewriteError> {
        Err(RewriteError::Layout(format!("identity has no unit {idx}")))
    }

    fn emit(&self, idx: usize, _: u64) -> Result<UnitArtifact, RewriteError> {
        Err(RewriteError::Layout(format!("identity has no unit {idx}")))
    }
}
