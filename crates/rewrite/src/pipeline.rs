//! The rewrite driver: the one implementation of everything rewriting
//! systems share. A [`RewriteEngine`] supplies the unit partition and the
//! per-unit emission / placement hooks ([`crate::engine`]); this module
//! owns the six stages around them and emits a
//! [`TraceEvent::RewritePassDone`] per stage plus the `rewrite.*` counters:
//!
//! 1. **scan** — validate the input, reserve the `.chimera.vregs` spill
//!    section, fix the target base and refuse bases target blocks cannot
//!    materialize, then let the engine partition the input;
//! 2. **transform** — emit every unit, once, on the worker pool. No unit
//!    has an address yet: what depends on one comes back as relocations;
//! 3. **plan** — walk the units in order with a running cursor, asking the
//!    engine where each goes and reading its size off its emitted bytes;
//!    record addresses, original-section patches, trampoline/trap table
//!    entries and padding. The only stage whose decisions depend on
//!    layout, and sequential by construction;
//! 4. **place** — concatenate unit bytes (plus illegal-filled padding) into
//!    the target section, resolving each unit's relocations at its address
//!    and merging its table/statistics fragments, in unit order;
//! 5. **link** — apply the patches, run the engine's own link step, attach
//!    the target section under the engine's name, check it landed at the
//!    planned base, set the output profile;
//! 6. **verify** — validate the output binary.
//!
//! Rewrite-time events are timestamped at cycle 0 (there is no simulated
//! clock at rewrite time); durations live in the event payload, so traces
//! of deterministic runs stay deterministic apart from those payloads.
//!
//! Determinism contract: for a fixed engine + input, the output — binary
//! bytes, [`FaultTable`], [`RewriteStats`] and regeneration metadata — is
//! bit-identical for every `workers` value. The parallel stage computes a
//! pure per-unit function reassembled in unit order; layout is assigned,
//! and relocations resolved, sequentially after it.
//!
//! Incremental contract ([`run_incremental`]): the input binary is
//! immutable, so a rewrite is a pure function of it — invalidations (lazy
//! patches, SMC pokes, remaps) live in the *runtime memory image*, not the
//! input. An incremental run therefore reproduces the full-rewrite output
//! exactly: it reuses the cached post-plan state, re-emits only the dirty
//! units (a re-emission that differs from its cached artifact is a
//! [`RewriteError::Layout`]),
//! reuses every clean artifact verbatim, and replays place/link/verify.
//! The dirty set decides how much work is *saved*, never what the output
//! *is* — which is what makes the byte-equality invariant unconditional.

use crate::chbp::{ebreak_patch, FaultTable, RewriteError, RewriteStats, Rewritten};
use crate::engine::{Entry, Frame, RewriteEngine, UnitArtifact, Units};
use crate::regen::RegenInfo;
use crate::translate::SpillLayout;
use chimera_analysis::par::map_indexed;
use chimera_isa::ExtSet;
use chimera_obj::{Binary, Perms};
use chimera_trace::{RewritePass, TraceEvent, Tracer};
use std::borrow::Borrow;
use std::sync::Arc;

pub use chimera_obj::DirtySpan;

/// What a pipeline run produced.
pub struct EngineResult {
    /// The rewritten binary, fault table and statistics.
    pub rewritten: Rewritten,
    /// Regeneration metadata (regeneration engines only).
    pub regen: Option<RegenInfo>,
}

/// The immutable half of a planned rewrite: the engine's unit set and the
/// layout the plan stage fixed for it.
struct Layout {
    units: Arc<dyn Units>,
    /// Source range per unit (the dirty-unit key).
    ranges: Vec<(u64, u64)>,
    section: Option<&'static str>,
    profile: ExtSet,
    target_base: u64,
    /// First address past the last placed unit.
    target_end: u64,
    /// Final address per unit; `None` = source left untouched.
    addrs: Vec<Option<u64>>,
    /// Original-section patches, in unit order.
    patches: Vec<(u64, Vec<u8>)>,
}

/// The state of a rewrite after the plan stage: the shared layout plus
/// the output under construction — the input with its spill section
/// reserved, and the fault table and statistics as scan and plan filled
/// them. The tail stages consume it; the cache keeps a copy to replay.
#[derive(Clone)]
struct Planned {
    layout: Arc<Layout>,
    binary: Binary,
    fht: FaultTable,
    stats: RewriteStats,
}

/// One cached unit: its artifact plus the validation stamp — the newest
/// dirty-span generation this unit has been re-validated against.
/// Re-presenting an already-consumed dirty report is a no-op.
#[derive(Clone)]
struct CachedUnit {
    artifact: UnitArtifact,
    stamp: u64,
}

/// The per-unit rewrite cache primed by [`run_cached`]: the post-plan
/// state and every unit's artifact with a validation stamp. One cache
/// serves one `(engine, input binary)` pair; [`run_incremental`] re-primes
/// it automatically when either changed.
///
/// Cloning copies the output template, the artifacts and the stamps (the
/// layout and the engine's analyses stay `Arc`-shared) and gives the clone
/// an *independent* validation-stamp column — the mechanism
/// `SharedVariantCache` uses to keep one process's SMC invalidations out
/// of every other process's view of the same variant.
#[derive(Clone)]
pub struct RewriteCache {
    /// [`identity`] of the engine that primed the cache.
    engine: String,
    /// The exact input the cache was built from (incremental runs verify
    /// equality — a stale cache silently reused would break the
    /// byte-identity invariant).
    input: Binary,
    planned: Planned,
    cached: Vec<CachedUnit>,
}

impl RewriteCache {
    /// Number of units in the cached partition.
    pub fn unit_count(&self) -> usize {
        self.cached.len()
    }

    /// Per-unit validation stamps, in unit order. A zero stamp means the
    /// unit has never been invalidated since priming; isolation tests use
    /// this to assert one process's SMC pokes never touch another
    /// process's clean units.
    pub fn stamp_snapshot(&self) -> Vec<u64> {
        self.cached.iter().map(|cu| cu.stamp).collect()
    }
}

/// An engine's cache identity: its `Debug` rendering, which shows its
/// type and every parameter (see [`RewriteEngine`]).
pub(crate) fn identity(engine: &dyn RewriteEngine) -> String {
    format!("{engine:?}")
}

/// The default transform worker count: the machine's parallelism, capped
/// at 8 (the gate's measured scaling point; rewriting saturates quickly
/// beyond that).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Runs the six stages over `binary` with `engine`'s hooks and `workers`
/// threads (`<= 1` runs fully sequentially — same output).
pub fn run(
    engine: &dyn RewriteEngine,
    binary: &Binary,
    workers: usize,
    tracer: &Tracer,
) -> Result<EngineResult, RewriteError> {
    let mut timer = PassTimer::new(tracer);
    let (planned, artifacts) = plan(engine, binary, workers, &mut timer)?;
    // By value: each artifact is freed as soon as it is placed.
    finish(binary, planned, artifacts.into_iter(), &mut timer)
}

/// [`run`], additionally priming a [`RewriteCache`] for later
/// [`run_incremental`] calls: the post-plan state is kept (analyses and
/// layout shared, the output template copied) and every unit's artifact is
/// stored with a fresh validation stamp.
pub fn run_cached(
    engine: &dyn RewriteEngine,
    binary: &Binary,
    workers: usize,
    tracer: &Tracer,
) -> Result<(EngineResult, RewriteCache), RewriteError> {
    let mut timer = PassTimer::new(tracer);
    let (planned, artifacts) = plan(engine, binary, workers, &mut timer)?;
    let result = finish(binary, planned.clone(), artifacts.iter(), &mut timer)?;
    let cache = RewriteCache {
        engine: identity(engine),
        input: binary.clone(),
        planned,
        cached: artifacts
            .into_iter()
            .map(|artifact| CachedUnit { artifact, stamp: 0 })
            .collect(),
    };
    Ok((result, cache))
}

/// Scan + transform + plan: every unit emitted and its address fixed.
fn plan(
    engine: &dyn RewriteEngine,
    input: &Binary,
    workers: usize,
    timer: &mut PassTimer,
) -> Result<(Planned, Vec<UnitArtifact>), RewriteError> {
    input
        .validate()
        .map_err(|e| RewriteError::BadBinary(e.to_string()))?;
    let mut binary = input.clone();
    let section = engine.target_section();
    let frame = match section {
        // Reserve the spill section, then compute where the target
        // section will go.
        Some(_) => {
            let spill_base = binary.append_section(
                ".chimera.vregs",
                vec![0u8; SpillLayout::SIZE.next_multiple_of(0x1000)],
                Perms::RW,
            );
            let top = binary.sections.iter().map(|s| s.end()).max().unwrap_or(0);
            let frame = Frame {
                spill_base,
                abi_gp: input.gp,
                target_base: (top + 0xfff) & !0xfff,
            };
            // Target blocks materialize these three with `li32` and reach
            // everything else pc-relative from the target section.
            for (what, at) in [
                ("gp", frame.abi_gp),
                ("the spill section", frame.spill_base),
                ("the target section", frame.target_base),
            ] {
                if i32::try_from(at).is_err() {
                    return Err(RewriteError::BadBinary(format!(
                        "{what} at {at:#x} is beyond the 2 GiB target blocks can address"
                    )));
                }
            }
            frame
        }
        None => Frame::default(),
    };
    let scanned = engine.scan(input, frame, workers)?;
    let units = scanned.units;
    let n = scanned.ranges.len();
    timer.done(RewritePass::Scan, scanned.total_insts as u64);

    // Emission: pure per unit, so it fans out.
    let artifacts = map_indexed(workers, n, |i| units.emit(i))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    timer.done(RewritePass::Transform, n as u64);

    let mut fht = FaultTable {
        abi_gp: frame.abi_gp,
        spill_base: frame.spill_base,
        untranslated: scanned.untranslated,
        ..Default::default()
    };
    let mut stats = RewriteStats {
        code_size: input.code_size(),
        total_insts: scanned.total_insts,
        source_insts: scanned.source_insts,
        ..Default::default()
    };
    let mut cursor = frame.target_base;
    let mut addrs = Vec::with_capacity(n);
    let mut patches = Vec::new();
    for (i, art) in artifacts.iter().enumerate() {
        let Some(p) = units.place(i, cursor)? else {
            addrs.push(None);
            continue;
        };
        match p.entry {
            Entry::Smile {
                site,
                patch,
                constrained,
            } => {
                patches.push((site, patch));
                fht.trampolines.insert(site);
                stats.smile_trampolines += 1;
                stats.constrained_smiles += constrained as usize;
            }
            Entry::Trap { site, len } => {
                patches.push((site, ebreak_patch(len)));
                fht.trap_entries.insert(site, p.addr);
                stats.trap_entries += 1;
            }
            Entry::Unpatched => {}
        }
        stats.padding_bytes += p.addr - cursor;
        addrs.push(Some(p.addr));
        cursor = p.addr + art.bytes.len() as u64;
    }
    timer.done(RewritePass::Plan, n as u64);

    let planned = Planned {
        layout: Arc::new(Layout {
            units,
            ranges: scanned.ranges,
            section,
            profile: scanned.profile,
            target_base: frame.target_base,
            target_end: cursor,
            addrs,
            patches,
        }),
        binary,
        fht,
        stats,
    };
    Ok((planned, artifacts))
}

/// Place + link + verify: assembles the output from a planned rewrite and
/// its units' artifacts (one per unit, in unit order; owned or cached).
fn finish(
    input: &Binary,
    planned: Planned,
    artifacts: impl Iterator<Item = impl Borrow<UnitArtifact>>,
    timer: &mut PassTimer,
) -> Result<EngineResult, RewriteError> {
    let Planned {
        layout,
        mut binary,
        mut fht,
        mut stats,
    } = planned;

    let mut code: Vec<u8> = Vec::with_capacity((layout.target_end - layout.target_base) as usize);
    let mut regen: Option<RegenInfo> = None;
    for (addr, art) in layout.addrs.iter().zip(artifacts) {
        let Some(addr) = *addr else { continue };
        let art = art.borrow();
        // Constraint padding: reserved-illegal halfwords, so any entry
        // there faults.
        let gap = addr - (layout.target_base + code.len() as u64);
        debug_assert_eq!(gap % 2, 0, "padding is halfword-granular");
        for _ in 0..gap / 2 {
            code.extend_from_slice(&crate::chbp::ILLEGAL_HALFWORD.to_le_bytes());
        }
        art.place_at(addr, &mut code, &mut fht, &mut stats)?;
        // Fragments merge in unit order, so the result is deterministic.
        fht.redirects.extend(&art.fht.redirects);
        fht.trap_exits.extend(&art.fht.trap_exits);
        fht.untranslated.extend(&art.fht.untranslated);
        stats.exit_jumps += art.stats.exit_jumps;
        stats.exit_trampolines += art.stats.exit_trampolines;
        stats.dead_reg_not_found_traditional += art.stats.dead_reg_not_found_traditional;
        stats.dead_reg_not_found_shift += art.stats.dead_reg_not_found_shift;
        stats.trap_exits += art.stats.trap_exits;
        if let Some(r) = &art.regen {
            regen
                .get_or_insert_with(RegenInfo::default)
                .slow_traps
                .extend(&r.slow_traps);
        }
    }
    timer.done(RewritePass::Place, layout.addrs.len() as u64);

    for (addr, bytes) in &layout.patches {
        if !binary.write(*addr, bytes) {
            return Err(RewriteError::Layout(format!(
                "patch at {addr:#x} does not fit its section"
            )));
        }
    }
    let linked = layout
        .units
        .link(input, &mut binary, &mut fht, &mut stats)?;
    if let Some(section) = layout.section {
        stats.target_section_size = code.len() as u64;
        if code.is_empty() {
            // Keep an empty-but-mapped page so ranges stay meaningful.
            code.resize(16, 0);
        }
        let placed = binary.append_section(section, code, Perms::RX);
        if placed != layout.target_base {
            return Err(RewriteError::Layout(format!(
                "target section landed at {placed:#x}, expected {:#x}",
                layout.target_base
            )));
        }
        let end = binary
            .section(section)
            .ok_or(RewriteError::MissingSection(section))?
            .end();
        fht.target_range = (layout.target_base, end);
    }
    binary.profile = layout.profile;
    timer.done(RewritePass::Link, layout.patches.len() as u64 + linked);

    binary
        .validate()
        .map_err(|e| RewriteError::BadBinary(format!("rewritten binary invalid: {e}")))?;
    timer.done(RewritePass::Verify, 1);

    if timer.tracer.is_enabled() {
        let count = |name, v: u64| timer.tracer.count(name, v);
        count("rewrite.smile_trampolines", stats.smile_trampolines as u64);
        count(
            "rewrite.constrained_smiles",
            stats.constrained_smiles as u64,
        );
        count("rewrite.trap_entries", stats.trap_entries as u64);
        count("rewrite.trap_exits", stats.trap_exits as u64);
        count("rewrite.untranslated", fht.untranslated.len() as u64);
        count("rewrite.target_bytes", stats.target_section_size);
    }
    let fht = Arc::new(fht);
    Ok(EngineResult {
        rewritten: Rewritten { binary, fht, stats },
        regen,
    })
}

/// Incrementally re-rewrites `binary`: computes the dirty-unit set from
/// `dirty` (source-range intersection, generation newer than the unit's
/// validation stamp), re-emits exactly those units in parallel —
/// failing with [`RewriteError::Layout`] unless each re-emission is
/// byte-identical to its cached artifact — reuses every clean unit
/// verbatim, and replays the cheap
/// place/link/verify stages to reconstruct the output. Bit-identical to
/// a from-scratch [`run`] of the same engine over the same input.
///
/// Emits one [`TraceEvent::RewriteIncremental`] plus the
/// `rewrite.units_reused` / `rewrite.units_redone` counters (they always
/// sum to the unit total).
///
/// If the cache was primed by a different engine — another type or the
/// same type with other parameters — or for a different input, it is
/// re-primed with a full run (every unit counts as redone): callers never
/// observe a stale result.
pub fn run_incremental(
    engine: &dyn RewriteEngine,
    binary: &Binary,
    cache: &mut RewriteCache,
    dirty: &[DirtySpan],
    workers: usize,
    tracer: &Tracer,
) -> Result<EngineResult, RewriteError> {
    let started = tracer.is_enabled().then(std::time::Instant::now);
    if cache.engine != identity(engine) || cache.input != *binary {
        let (result, fresh) = run_cached(engine, binary, workers, tracer)?;
        *cache = fresh;
        let total = cache.cached.len() as u64;
        record_incremental(tracer, started, total, total);
        return Ok(result);
    }
    let layout = &*cache.planned.layout;

    // Dirty-unit set: source-range intersection against spans newer than
    // each unit's validation stamp.
    let mut redo: Vec<usize> = Vec::new();
    for (i, (cu, &(s, e))) in cache.cached.iter_mut().zip(&layout.ranges).enumerate() {
        let newest = dirty
            .iter()
            .filter(|d| d.start < e && s < d.end && d.generation > cu.stamp)
            .map(|d| d.generation)
            .max();
        if let Some(gen) = newest {
            cu.stamp = gen;
            redo.push(i);
        }
    }

    // Re-emit the dirty units (parallel), then check the reuse invariant:
    // emission is pure, so a re-emitted unit must match its cached artifact
    // bit for bit. A divergence means the cache no longer describes this
    // engine configuration — the output would be corrupt, so refuse it.
    let fresh = map_indexed(workers, redo.len(), |j| layout.units.emit(redo[j]));
    for (&i, art) in redo.iter().zip(fresh) {
        if art? != cache.cached[i].artifact {
            return Err(RewriteError::Layout(format!(
                "incremental re-emission of unit {i} diverged from its cached \
                 artifact ({engine:?}): emission is not pure or the cache is stale"
            )));
        }
    }

    // Replay the cheap tail stages for real: the output binary is
    // reconstructed, not copied.
    let result = finish(
        binary,
        cache.planned.clone(),
        cache.cached.iter().map(|cu| &cu.artifact),
        // No per-pass events: a replay reports one `RewriteIncremental`.
        &mut PassTimer { tracer, last: None },
    )?;
    let total = cache.cached.len() as u64;
    record_incremental(tracer, started, total, redo.len() as u64);
    Ok(result)
}

fn record_incremental(
    tracer: &Tracer,
    started: Option<std::time::Instant>,
    units_total: u64,
    units_redone: u64,
) {
    if !tracer.is_enabled() {
        return;
    }
    let nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
    tracer.record(
        0,
        TraceEvent::RewriteIncremental {
            units_total,
            units_redone,
            nanos,
        },
    );
    tracer.count("rewrite.units_reused", units_total - units_redone);
    tracer.count("rewrite.units_redone", units_redone);
}

/// Times pipeline stages and reports them to a tracer. Inert (no clock
/// reads) when the tracer is disabled.
struct PassTimer<'a> {
    tracer: &'a Tracer,
    last: Option<std::time::Instant>,
}

impl<'a> PassTimer<'a> {
    fn new(tracer: &'a Tracer) -> Self {
        PassTimer {
            tracer,
            last: tracer.is_enabled().then(std::time::Instant::now),
        }
    }

    fn done(&mut self, pass: RewritePass, items: u64) {
        let Some(last) = self.last else {
            return;
        };
        let nanos = last.elapsed().as_nanos() as u64;
        self.tracer
            .record(0, TraceEvent::RewritePassDone { pass, nanos, items });
        self.tracer.observe("rewrite.pass_nanos", nanos);
        self.last = Some(std::time::Instant::now());
    }
}
