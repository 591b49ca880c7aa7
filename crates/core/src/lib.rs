//! # chimera
//!
//! The public facade of the Chimera reproduction: transparent,
//! high-performance ISAX heterogeneous computing via binary rewriting
//! (EuroSys '26).
//!
//! The crate ties the substrates together behind two entry points:
//!
//! * [`prepare_process`] — given a task's binaries and a
//!   [`SystemKind`], produce the multi-view [`Process`] that system would
//!   run (CHBP-rewritten views for Chimera, regenerated views for the
//!   Safer baseline, native views for MELF, a single view for FAM);
//! * [`measure`] — run one process view on one core profile under the
//!   kernel and report cycles plus fault-handling counters.
//!
//! ```
//! use chimera::{prepare_process, measure, SystemKind, InputVersion, TaskBinaries};
//! use chimera_obj::{assemble, AsmOptions};
//!
//! let vec_src = "
//!     .data
//!     a: .dword 1
//!        .dword 2
//!        .dword 3
//!        .dword 4
//!     .text
//!     _start:
//!         li t0, 4
//!         vsetvli t1, t0, e64, m1, ta, ma
//!         la a0, a
//!         vle64.v v1, (a0)
//!         vmv.v.i v2, 0
//!         vredsum.vs v3, v1, v2
//!         vmv.x.s a0, v3
//!         li a7, 93
//!         ecall
//! ";
//! let ext = assemble(vec_src, AsmOptions::default()).unwrap();
//! let task = TaskBinaries { base_version: None, ext_version: Some(ext) };
//! let process =
//!     prepare_process(SystemKind::Chimera, InputVersion::Ext, &task).unwrap();
//! // The rewritten view runs on a base (non-vector) core:
//! let m = measure(&process, chimera_isa::ExtSet::RV64GC, 1_000_000).unwrap();
//! assert_eq!(m.exit_code, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use chimera_analysis as analysis;
pub use chimera_emu as emu;
pub use chimera_isa as isa;
pub use chimera_kernel as kernel;
pub use chimera_obj as obj;
pub use chimera_rewrite as rewrite;
pub use chimera_trace as trace;
pub use chimera_workloads as workloads;

pub use chimera_emu::CacheStats;
pub use chimera_trace::{MetricsRegistry, TraceEvent, Tracer};

use chimera_isa::ExtSet;
use chimera_kernel::{FaultCounters, KernelRunner, Process, RunOutcome, Variant};
use chimera_obj::Binary;
use chimera_rewrite::{
    default_workers, run, ChbpEngine, Flavor, IdentityEngine, Mode, RegenEngine, RewriteEngine,
    RewriteError, RewriteOptions, UpgradeEngine,
};

/// The heterogeneous computing systems compared in §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Fault-and-migrate scheduling: no rewriting; unsupported
    /// instructions trigger migration to a capable core.
    Fam,
    /// MELF-style compilation: native binaries for every core class
    /// (requires both versions — the source-code ideal).
    Melf,
    /// Safer-style binary regeneration with proactive indirect-jump checks.
    Safer,
    /// Chimera: CHBP binary patching with SMILE trampolines and passive
    /// fault handling.
    Chimera,
}

impl SystemKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Fam => "FAM",
            SystemKind::Melf => "MELF",
            SystemKind::Safer => "Safer",
            SystemKind::Chimera => "Chimera",
        }
    }
}

/// Which input version the system receives (§6.1: the *extension* version
/// evaluates downgrading, the *base* version upgrading).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputVersion {
    /// RV64GCV input: the system must downgrade for base cores.
    Ext,
    /// RV64GC input: the system may upgrade for extension cores.
    Base,
}

/// A task's natively compiled binaries. Systems other than MELF receive
/// only the [`InputVersion`]'s binary; MELF uses both (it has the source).
#[derive(Debug, Clone, Default)]
pub struct TaskBinaries {
    /// Native RV64GC compilation (if available).
    pub base_version: Option<Binary>,
    /// Native RV64GCV compilation (if available).
    pub ext_version: Option<Binary>,
}

/// Errors from process preparation.
#[derive(Debug)]
pub enum PrepareError {
    /// The required input binary version is missing.
    MissingInput(&'static str),
    /// Rewriting failed.
    Rewrite(RewriteError),
}

impl core::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PrepareError::MissingInput(v) => write!(f, "missing input binary: {v}"),
            PrepareError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
        }
    }
}

impl std::error::Error for PrepareError {}

impl From<RewriteError> for PrepareError {
    fn from(e: RewriteError) -> Self {
        PrepareError::Rewrite(e)
    }
}

/// Runs `engine` over `bin` and wraps the result as a process view: the
/// single dispatch point through which every system's rewriting flows. An
/// engine without a target section (FAM/MELF identity) leaves the binary
/// native, so its view carries no runtime tables.
fn build_view(engine: &dyn RewriteEngine, bin: &Binary) -> Result<Variant, RewriteError> {
    let r = run(engine, bin, default_workers(), &Tracer::disabled())?;
    Ok(match engine.target_section() {
        Some(_) => r.into(),
        None => Variant::native(r.rewritten.binary),
    })
}

/// Builds the multi-view process `system` would run for `task`, given the
/// input version (§6.1 methodology). The `(system, input)` match only
/// *plans* the views — an input binary and a [`RewriteEngine`] each, most
/// specific first; one loop then runs every plan through the shared
/// rewrite pipeline.
pub fn prepare_process(
    system: SystemKind,
    input: InputVersion,
    task: &TaskBinaries,
) -> Result<Process, PrepareError> {
    let ext_in = || {
        task.ext_version
            .clone()
            .ok_or(PrepareError::MissingInput("ext_version"))
    };
    let base_in = || {
        task.base_version
            .clone()
            .ok_or(PrepareError::MissingInput("base_version"))
    };
    type Engine = Box<dyn RewriteEngine>;
    let identity = || -> Engine { Box::new(IdentityEngine) };
    let upgrade = || -> Engine {
        Box::new(UpgradeEngine {
            opts: RewriteOptions::default(),
        })
    };
    let safer = |mode: Mode| -> Engine {
        Box::new(RegenEngine {
            target: ExtSet::RV64GC,
            mode,
            flavor: Flavor::Safer,
        })
    };
    let plans: Vec<(Binary, Engine)> = match (system, input) {
        // FAM: the input binary runs only on cores that support it; others
        // fault and the scheduler migrates.
        (SystemKind::Fam, InputVersion::Ext) => vec![(ext_in()?, identity())],
        (SystemKind::Fam, InputVersion::Base) => vec![(base_in()?, identity())],
        // MELF: native binaries for both core classes (it has the source).
        (SystemKind::Melf, _) => vec![(ext_in()?, identity()), (base_in()?, identity())],
        (SystemKind::Safer, InputVersion::Ext) => {
            let b = ext_in()?;
            vec![(b.clone(), identity()), (b, safer(Mode::Downgrade))]
        }
        // Safer has no upgrade story of its own; per §6.1 it is adapted
        // for ISAX by pairing its regenerated base binary with the
        // vectorizer's output for extension cores, keeping its
        // per-indirect-jump checks on the base side.
        (SystemKind::Safer, InputVersion::Base) => {
            let b = base_in()?;
            vec![
                (b.clone(), upgrade()),
                (b, safer(Mode::EmptyPatch(chimera_isa::Ext::V))),
            ]
        }
        (SystemKind::Chimera, InputVersion::Ext) => {
            let b = ext_in()?;
            let chbp = ChbpEngine {
                target: ExtSet::RV64GC,
                opts: RewriteOptions::default(),
            };
            vec![(b.clone(), identity()), (b, Box::new(chbp))]
        }
        (SystemKind::Chimera, InputVersion::Base) => {
            let b = base_in()?;
            vec![(b.clone(), upgrade()), (b, identity())]
        }
    };
    let views = plans
        .iter()
        .map(|(bin, engine)| build_view(engine.as_ref(), bin))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Process::new(views))
}

/// The result of a measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Exit code of the task.
    pub exit_code: i64,
    /// Cycles under the deterministic cost model (kernel traps included).
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Dynamic indirect-jump count (Safer's check count).
    pub indirect_jumps: u64,
    /// Fault-handling counters (Table 2).
    pub counters: FaultCounters,
    /// Decode-cache counters (hits/misses/invalidations/blocks built/
    /// chained follows) — observability for the basic-block cache and the
    /// micro-op engine's block chaining; lazy rewriting shows up here as
    /// invalidations.
    pub cache: CacheStats,
}

/// `(registry name, accessor)` for every numeric [`Measurement`] field
/// [`Measurement::publish`] publishes.
#[allow(clippy::type_complexity)]
const MEASUREMENT_COUNTERS: [(&str, fn(&Measurement) -> u64); 15] = [
    ("measure.cycles", |m| m.cycles),
    ("measure.instret", |m| m.instret),
    ("measure.indirect_jumps", |m| m.indirect_jumps),
    ("measure.smile_faults", |m| m.counters.smile_faults),
    ("measure.trap_trampolines", |m| m.counters.trap_trampolines),
    ("measure.safer_corrections", |m| {
        m.counters.safer_corrections
    }),
    ("measure.lazy_rewrites", |m| m.counters.lazy_rewrites),
    ("measure.signals_gp_restored", |m| {
        m.counters.signals_gp_restored
    }),
    ("measure.cache_hits", |m| m.cache.hits),
    ("measure.cache_misses", |m| m.cache.misses),
    ("measure.cache_invalidations", |m| m.cache.invalidations),
    ("measure.blocks_built", |m| m.cache.blocks_built),
    ("measure.cache_chained", |m| m.cache.chained),
    ("measure.cache_jitted", |m| m.cache.jitted),
    ("measure.jit_execs", |m| m.cache.jit_execs),
];

impl Measurement {
    /// The single construction point from a finished kernel run.
    fn from_run(cpu: &chimera_emu::Cpu, exit_code: i64, counters: FaultCounters) -> Measurement {
        Measurement {
            exit_code,
            cycles: cpu.stats.cycles,
            instret: cpu.stats.instret,
            indirect_jumps: cpu.stats.indirect_jumps,
            counters,
            cache: cpu.cache.stats,
        }
    }

    /// Publishes every counted field into `metrics` as `measure.*`
    /// counters (monotonic: repeated publishes accumulate, matching runs
    /// that span several measurements). The exit code is not a count and
    /// is not published.
    pub fn publish(&self, metrics: &MetricsRegistry) {
        for (name, get) in MEASUREMENT_COUNTERS {
            metrics.counter(name).add(get(self));
        }
    }
}

/// Errors from [`measure`].
#[derive(Debug)]
pub enum MeasureError {
    /// No view of the process runs on the given profile.
    NoView,
    /// The run did not complete.
    Run(String),
}

impl core::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MeasureError::NoView => write!(f, "no view for the requested core profile"),
            MeasureError::Run(s) => write!(f, "run failed: {s}"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Runs the process's view for `profile` to completion under the kernel.
pub fn measure(process: &Process, profile: ExtSet, fuel: u64) -> Result<Measurement, MeasureError> {
    measure_traced(process, profile, fuel, &Tracer::disabled())
}

/// [`measure`] with a trace handle threaded through the CPU and the
/// kernel runner. On completion the measurement is also
/// [`Measurement::publish`]ed into the tracer's metrics registry, so the
/// trace dump carries the authoritative run totals to reconcile against.
pub fn measure_traced(
    process: &Process,
    profile: ExtSet,
    fuel: u64,
    tracer: &Tracer,
) -> Result<Measurement, MeasureError> {
    let (mut cpu, mut mem, view) = process.load(profile).ok_or(MeasureError::NoView)?;
    cpu.tracer = tracer.clone();
    let mut k = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
    match k.run(&mut cpu, &mut mem, fuel) {
        RunOutcome::Exited(code) => {
            let m = Measurement::from_run(&cpu, code, k.counters);
            if let Some(reg) = tracer.metrics() {
                m.publish(reg);
            }
            Ok(m)
        }
        RunOutcome::NeedsMigration { pc } => {
            Err(MeasureError::Run(format!("needs migration at {pc:#x}")))
        }
        RunOutcome::OutOfFuel => Err(MeasureError::Run("out of fuel".into())),
        RunOutcome::Fatal(m) => Err(MeasureError::Run(m)),
    }
}

/// The binary rewriting methods compared in §6.2 (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriterKind {
    /// CHBP (ours): SMILE trampolines, passive fault handling.
    Chbp,
    /// Strawman binary patching: trap-based entry trampolines.
    Strawman,
    /// ARMore-style relocation with original-section redirects.
    Armore,
    /// Safer-style regeneration with indirect-jump checks.
    Safer,
}

impl RewriterKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RewriterKind::Chbp => "CHBP",
            RewriterKind::Strawman => "Strawman",
            RewriterKind::Armore => "ARMore",
            RewriterKind::Safer => "Safer",
        }
    }
}

/// Applies a §6.2 rewriter in empty-patching mode (source instructions of
/// the V extension re-emitted verbatim) and returns the runnable variant.
/// All four rewriters are [`RewriteEngine`]s run through the same pass
/// pipeline.
pub fn empty_patch_with(rewriter: RewriterKind, binary: &Binary) -> Result<Variant, RewriteError> {
    let mode = Mode::EmptyPatch(chimera_isa::Ext::V);
    let engine: Box<dyn RewriteEngine> = match rewriter {
        RewriterKind::Chbp => Box::new(ChbpEngine {
            target: ExtSet::RV64GCV,
            opts: RewriteOptions {
                mode,
                ..Default::default()
            },
        }),
        RewriterKind::Strawman => Box::new(ChbpEngine {
            target: ExtSet::RV64GCV,
            opts: RewriteOptions {
                mode,
                force_trap_entries: true,
                ..Default::default()
            },
        }),
        RewriterKind::Armore => Box::new(RegenEngine {
            target: ExtSet::RV64GCV,
            mode,
            flavor: Flavor::Armore,
        }),
        RewriterKind::Safer => Box::new(RegenEngine {
            target: ExtSet::RV64GCV,
            mode,
            flavor: Flavor::Safer,
        }),
    };
    build_view(engine.as_ref(), binary)
}

/// Runs a single standalone variant to completion under the kernel.
pub fn run_variant(
    variant: &Variant,
    profile: ExtSet,
    fuel: u64,
) -> Result<Measurement, MeasureError> {
    let process = Process::new(vec![variant.clone()]);
    measure(&process, profile, fuel)
}
