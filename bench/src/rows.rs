//! Set-up and the measurement loop. One rep runs its rows in a fixed order,
//! so drift hits all rows alike:
//!
//! * per program, on every workload but `hetero_churn`: **launch** (on
//!   `launch_cold` the input `Binary` is rewritten into a process again,
//!   elsewhere the process set-up built is taken; then `Process::load` and
//!   the first retired instruction), **engine** (that process continued to
//!   exit in `ExecMode::Engine`), **jit** (a fresh load of the same process
//!   in `ExecMode::Jit`, run to exit);
//! * **churn** (`hetero_churn`): the pooled guests — `SharedVariantCache`
//!   checkout, `ProcessPool` spawn, `ManyHartKernel::run`, recycle;
//! * **many** (`hetero_churn`): the many-hart mix.
//!
//! Untraced, each row calls the facade a user would call. Traced, the bench
//! calls the layer functions the facade is made of and wraps each in a span;
//! set-up asserts that both paths produce the same process.

use crate::inputs::{self, ChurnSpec, Inputs, ManySpec, Prep, ProgramRows};
use crate::spans::{Layer, SpanLog};
use chimera::{
    empty_patch_with, prepare_process, InputVersion, RewriterKind, SystemKind, TaskBinaries,
};
use chimera_analysis::{disassemble_with, Cfg, Liveness};
use chimera_emu::{run_binary_mode, CacheStats, ExecMode, PoolStats, Stop};
use chimera_isa::{Ext, ExtSet};
use chimera_kernel::{
    FaultCounters, KernelRunner, ManyHartConfig, ManyHartKernel, ManyHartResult, Process,
    ProcessPool, RunOutcome, RuntimeTables, TrapDisposition, Variant,
};
use chimera_obj::Binary;
use chimera_rewrite::{
    default_workers, run, ChbpEngine, EngineResult, Flavor, IdentityEngine, Mode, RegenEngine,
    RewriteEngine, RewriteOptions, RewriteStats, SharedVariantCache, VariantHandle,
};
use chimera_trace::{RewritePass, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Enough for any workload to exit; a run that burns it is a failure.
pub const FUEL: u64 = u64::MAX / 2;

/// The outcome every rewritten run is held to: the *original* binary run
/// natively on RV64GCV in `ExecMode::Reference`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub exit: i64,
    pub stdout: Vec<u8>,
    pub cycles: u64,
}

/// What one finished single-hart run looked like.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunObs {
    pub cycles: u64,
    pub instret: u64,
    pub counters: FaultCounters,
    pub cache: CacheStats,
}

/// What the rewrite of a program's views reported; only the traced path,
/// which calls the pipeline itself, sees it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteCounts {
    pub stats: RewriteStats,
    pub units: u64,
    pub untranslated: u64,
}

pub struct Program {
    pub name: &'static str,
    pub prep: Prep,
    pub input: Binary,
    task: TaskBinaries,
    pub run_profile: ExtSet,
    pub reference: Reference,
    /// Cycles of the CHBP empty-patch variant on RV64GCV (Fig. 13).
    pub empty_cycles: u64,
    /// Cycles of the CHBP downgrade on RV64GC.
    pub downgrade_cycles: u64,
    /// Simulated cycles and instructions of the process's run as set-up
    /// measured them; every later run, in either tier, must repeat them
    /// exactly.
    pub sim: (u64, u64),
    /// Section bytes of the view that runs, and of the input.
    pub rewritten_bytes: u64,
    pub input_bytes: u64,
    pub counts: RewriteCounts,
    pub last_engine: RunObs,
    pub last_jit: RunObs,
    /// Kernel entries (`service_trap` calls, the final `exit` included) of
    /// the last *traced* engine run; the untraced path cannot count them.
    pub engine_traps: u64,
}

/// Phase A of `hetero_churn`: the pooled guests.
pub struct Churn {
    pub shared: SharedVariantCache,
    pub pool: ProcessPool,
    spec: ChurnSpec,
    /// The pool key, known once the first checkout has registered.
    key: Option<u64>,
    baseline: Option<ManyHartResult>,
}

impl Churn {
    pub fn pool_stats(&self) -> PoolStats {
        self.key
            .and_then(|key| self.pool.stats(key))
            .unwrap_or_default()
    }
}

/// Phase B of `hetero_churn`: the many-hart mix.
pub struct Many {
    pub spec: ManySpec,
    baseline: Option<ManyHartResult>,
    expect_matrix: i64,
    expect_fib: i64,
    pub last: Option<ManyHartResult>,
}

/// Samples of the timed reps, keyed `(metric, row)`.
pub type Samples = BTreeMap<(&'static str, String), Vec<f64>>;

#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Ops {
    fn check(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("{}: {e}", what()));
        }
    }
}

pub struct Bench {
    pub programs: Vec<Program>,
    /// The process set-up built for each program: what the reps of every
    /// workload but `launch_cold` load.
    processes: Vec<Process>,
    program_rows: ProgramRows,
    pub churn: Option<Churn>,
    pub many: Option<Many>,
    pub ops: Ops,
    pub generate_ns: u64,
    /// Wall time and instructions of the `ExecMode::Reference` runs.
    pub reference_ns: u64,
    pub reference_insts: u64,
    /// `ManyHartConfig.workers` of the churn and many rows: 1 on every
    /// timed path; only the worker-scaling probe raises it.
    pub workers: usize,
}

fn empty_patch_opts(force_trap_entries: bool) -> RewriteOptions {
    RewriteOptions {
        mode: Mode::EmptyPatch(Ext::V),
        force_trap_entries,
        ..Default::default()
    }
}

/// Which analyses an engine's scan pass runs inside the program — what the
/// traced path re-runs standalone to tell their time from the rest of scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analyses {
    /// The identity engine analyses nothing.
    None,
    /// The regeneration engines disassemble only.
    Disasm,
    /// CHBP: disassembly, CFG and liveness.
    Full,
}

/// The engines the facade runs for `prep`, in view order — what the traced
/// path calls one by one. Set-up asserts the result equals the facade's.
pub fn engines(prep: Prep) -> Vec<(Box<dyn RewriteEngine>, Analyses)> {
    let chbp = |target, opts| -> (Box<dyn RewriteEngine>, Analyses) {
        (Box::new(ChbpEngine { target, opts }), Analyses::Full)
    };
    let regen = |flavor| -> (Box<dyn RewriteEngine>, Analyses) {
        let engine = RegenEngine {
            target: ExtSet::RV64GCV,
            mode: Mode::EmptyPatch(Ext::V),
            flavor,
        };
        (Box::new(engine), Analyses::Disasm)
    };
    let identity =
        || -> (Box<dyn RewriteEngine>, Analyses) { (Box::new(IdentityEngine), Analyses::None) };
    match prep {
        Prep::Chimera => vec![identity(), chbp(ExtSet::RV64GC, RewriteOptions::default())],
        Prep::EmptyPatch(RewriterKind::Chbp) | Prep::LazyHidden => {
            vec![chbp(ExtSet::RV64GCV, empty_patch_opts(false))]
        }
        Prep::EmptyPatch(RewriterKind::Strawman) => {
            vec![chbp(ExtSet::RV64GCV, empty_patch_opts(true))]
        }
        Prep::EmptyPatch(RewriterKind::Armore) => vec![regen(Flavor::Armore)],
        Prep::EmptyPatch(RewriterKind::Safer) => vec![regen(Flavor::Safer)],
    }
}

fn variant_of(r: EngineResult, identity: bool) -> Variant {
    if identity {
        return Variant::native(r.rewritten.binary);
    }
    Variant {
        binary: r.rewritten.binary,
        tables: RuntimeTables {
            fht: Some(r.rewritten.fht),
            regen: r.regen,
        },
    }
}

/// The CHBP downgrade to the base profile: what a pooled guest runs.
pub fn downgrade_engine() -> ChbpEngine {
    ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    }
}

fn handle_variant(h: &VariantHandle) -> Variant {
    Variant {
        binary: h.rewritten().binary.clone(),
        tables: RuntimeTables {
            fht: Some(h.rewritten().fht.clone()),
            regen: h.regen().cloned(),
        },
    }
}

/// Hides the vector extension from the loader: the variant's code still
/// holds vector instructions, the core it is loaded on does not have them.
fn hide_vectors(mut v: Variant) -> Variant {
    v.binary.profile = ExtSet::RV64GC;
    v
}

fn binary_bytes(b: &Binary) -> u64 {
    b.sections.iter().map(|s| s.data.len() as u64).sum()
}

/// The span a pipeline pass's `RewritePassDone` event becomes.
fn pass_name(pass: RewritePass) -> &'static str {
    match pass {
        RewritePass::Scan => "rewrite.pass.scan",
        RewritePass::Plan => "rewrite.pass.plan",
        RewritePass::Transform => "rewrite.pass.transform",
        RewritePass::Place => "rewrite.pass.place",
        RewritePass::Link => "rewrite.pass.link",
        RewritePass::Verify => "rewrite.pass.verify",
    }
}

fn task_of(input: &Binary) -> TaskBinaries {
    TaskBinaries {
        base_version: None,
        ext_version: Some(input.clone()),
    }
}

impl Program {
    /// The process as a user builds it: one call into the public API.
    fn build_facade(&self) -> Result<Process, String> {
        let single = |kind, hide: bool| {
            let v = empty_patch_with(kind, &self.input).map_err(|e| e.to_string())?;
            Ok(Process::new(vec![if hide { hide_vectors(v) } else { v }]))
        };
        match self.prep {
            Prep::Chimera => prepare_process(SystemKind::Chimera, InputVersion::Ext, &self.task)
                .map_err(|e| e.to_string()),
            Prep::EmptyPatch(kind) => single(kind, false),
            Prep::LazyHidden => single(RewriterKind::Chbp, true),
        }
    }

    /// The same process made of its layer calls, each in a span; the
    /// analyses the scan pass ran inside the program are re-run standalone
    /// as probe spans so their time can be told apart from the rest of it.
    fn build_traced(&mut self, log: &mut SpanLog, row: u32) -> Result<Process, String> {
        let mut views = Vec::new();
        let workers = default_workers();
        for (engine, analyses) in engines(self.prep) {
            let identity = analyses == Analyses::None;
            let name = if identity {
                "rewrite.identity"
            } else {
                "rewrite.run"
            };
            let tracer = Tracer::enabled();
            let span = log.open(name, Layer::Rewrite, Some(row));
            let result = run(engine.as_ref(), &self.input, workers, &tracer);
            log.close(span);
            let result = result.map_err(|e| e.to_string())?;
            if !identity {
                let start = log.spans[span as usize].start;
                for rec in tracer.drain() {
                    if let TraceEvent::RewritePassDone { pass, nanos, items } = rec.event {
                        log.aggregate(pass_name(pass), Layer::Rewrite, span, start, nanos, 1);
                        if pass == RewritePass::Plan {
                            self.counts.units = items;
                        }
                    }
                }
                self.counts.stats = result.rewritten.stats;
                self.counts.untranslated = result.rewritten.fht.untranslated.len() as u64;
                self.probe_analyses(analyses, workers, log, row);
            }
            views.push(variant_of(result, identity));
        }
        if self.prep == Prep::LazyHidden {
            views = views.into_iter().map(hide_vectors).collect();
        }
        Ok(Process::new(views))
    }

    fn probe_analyses(&self, analyses: Analyses, workers: usize, log: &mut SpanLog, row: u32) {
        let mut probe = |name, f: &mut dyn FnMut()| {
            let id = log.open(name, Layer::Analysis, Some(row));
            f();
            log.close(id);
            log.mark_probe(id);
        };
        let mut d = None;
        probe("analysis.disasm", &mut || {
            d = Some(disassemble_with(&self.input, workers))
        });
        let d = d.expect("disassembled");
        if analyses != Analyses::Full {
            return;
        }
        let mut cfg = None;
        probe("analysis.cfg", &mut || cfg = Some(Cfg::build(&d)));
        let cfg = cfg.expect("cfg built");
        probe("analysis.liveness", &mut || {
            std::hint::black_box(Liveness::compute_with(&cfg, workers));
        });
    }

    fn check(
        &self,
        mode: ExecMode,
        outcome: &RunOutcome,
        k: &KernelRunner,
        obs: &RunObs,
    ) -> Result<(), String> {
        let RunOutcome::Exited(code) = outcome else {
            return Err(format!("{mode:?} run ended with {outcome:?}"));
        };
        if *code != self.reference.exit {
            return Err(format!(
                "{mode:?} exit code {code} differs from the native reference {}",
                self.reference.exit
            ));
        }
        if k.stdout != self.reference.stdout {
            return Err(format!("{mode:?} stdout differs from the native reference"));
        }
        let sim = (obs.cycles, obs.instret);
        if sim != self.sim {
            return Err(format!(
                "{mode:?} simulated (cycles, instret) {sim:?} differ from set-up's {:?}",
                self.sim
            ));
        }
        Ok(())
    }
}

/// Runs a loaded process to exit. Untraced this is `KernelRunner::run`;
/// traced it is the same loop made bench-side — `Cpu::run` until a trap,
/// `KernelRunner::service_trap`, repeat — so emulator and kernel time
/// separate. The two must agree on the outcome and every counter, which
/// the per-rep checks enforce (both feed the same `check`).
fn run_to_exit(
    k: &mut KernelRunner,
    cpu: &mut chimera_emu::Cpu,
    mem: &mut chimera_emu::Memory,
    trace: Option<(&mut SpanLog, u32)>,
) -> (RunOutcome, u64, u64) {
    let Some((log, row)) = trace else {
        let t = Instant::now();
        let outcome = k.run(cpu, mem, FUEL);
        return (outcome, t.elapsed().as_nanos() as u64, 0);
    };
    let begin = log.now();
    let wall = Instant::now();
    let (mut emu_ns, mut kernel_ns, mut traps) = (0u64, 0u64, 0u64);
    let start = cpu.stats.instret;
    let outcome = loop {
        let used = cpu.stats.instret - start;
        if used >= FUEL {
            break RunOutcome::OutOfFuel;
        }
        let t = Instant::now();
        let stop = cpu.run(mem, FUEL - used);
        emu_ns += t.elapsed().as_nanos() as u64;
        let Stop::Trap(trap) = stop else {
            break RunOutcome::OutOfFuel;
        };
        let t = Instant::now();
        let disposition = k.service_trap(trap, cpu, mem);
        kernel_ns += t.elapsed().as_nanos() as u64;
        traps += 1;
        match disposition {
            TrapDisposition::Resume => continue,
            TrapDisposition::Exited(code) => break RunOutcome::Exited(code),
            TrapDisposition::Migrate { pc } => break RunOutcome::NeedsMigration { pc },
            TrapDisposition::HartCall { call, .. } => {
                break RunOutcome::Fatal(format!("hart call {call:?} outside the many-hart kernel"))
            }
            TrapDisposition::Fatal(msg) => break RunOutcome::Fatal(msg),
        }
    };
    let total = wall.elapsed().as_nanos() as u64;
    log.aggregate("emu.cpu_run", Layer::Emu, row, begin, emu_ns, traps + 1);
    log.aggregate(
        "kernel.service_trap",
        Layer::Kernel,
        row,
        begin,
        kernel_ns,
        traps,
    );
    (outcome, total, traps)
}

fn observe(cpu: &chimera_emu::Cpu, k: &KernelRunner) -> RunObs {
    RunObs {
        cycles: cpu.stats.cycles,
        instret: cpu.stats.instret,
        counters: k.counters,
        cache: cpu.cache.stats,
    }
}

fn mips(instret: u64, ns: u64) -> f64 {
    instret as f64 * 1e3 / ns as f64
}

/// The times of one program's three rows in one rep.
struct ProgramTimes {
    launch_ns: u64,
    engine_ns: u64,
    engine_insts: u64,
    jit_ns: u64,
    jit_insts: u64,
}

/// The times of one churn row.
struct ChurnTimes {
    guests: u64,
    total_ns: u64,
    /// Checkout plus spawn, summed over the guests.
    ready_ns: u64,
    run_ns: u64,
    retired: u64,
}

impl Bench {
    /// Everything before the first timed rep: input generation and
    /// assembly, the native reference runs, the one-time rewrites (every
    /// program's process and the variants behind the simulated metrics),
    /// and the fixed warm-up reps (the first of which fills the shared
    /// variant cache and prewarms the pool).
    pub fn setup(workload: &str, seed: u64, quick: bool, traced: bool) -> Result<Bench, String> {
        let Inputs {
            programs,
            program_rows,
            churn,
            many,
            warmups,
            generate_ns,
        } = inputs::build(workload, seed, quick)?;
        let mut bench = Bench {
            programs: Vec::new(),
            processes: Vec::new(),
            program_rows,
            churn: churn.map(|spec| Churn {
                shared: SharedVariantCache::new(),
                pool: ProcessPool::new(),
                spec,
                key: None,
                baseline: None,
            }),
            many: None,
            ops: Ops::default(),
            generate_ns,
            reference_ns: 0,
            reference_insts: 0,
            workers: 1,
        };
        for spec in programs {
            bench.add_program(spec, traced)?;
        }
        if let Some(spec) = many {
            let expect_matrix = bench.reference_run(&spec.scenario.matrix_ext)?.exit;
            let expect_fib = bench.reference_run(&spec.scenario.fib)?.exit;
            bench.many = Some(Many {
                spec,
                baseline: None,
                expect_matrix,
                expect_fib,
                last: None,
            });
        }
        for _ in 0..warmups {
            bench.rep(None, None);
        }
        if let Some(f) = &bench.ops.first_failure {
            return Err(format!("warm-up failed: {f}"));
        }
        Ok(bench)
    }

    fn reference_run(&mut self, bin: &Binary) -> Result<Reference, String> {
        let t = Instant::now();
        let r = run_binary_mode(bin, ExtSet::RV64GCV, FUEL, ExecMode::Reference)
            .map_err(|e| format!("native reference run failed: {e}"))?;
        self.reference_ns += t.elapsed().as_nanos() as u64;
        self.reference_insts += r.stats.instret;
        Ok(Reference {
            exit: r.exit_code,
            stdout: r.stdout,
            cycles: r.stats.cycles,
        })
    }

    /// One program's share of set-up: the native reference run, its process
    /// (the traced path must build exactly the one the facade builds), that
    /// process's first run — whose simulated counts every rep must repeat —
    /// and the paper's generated-code quality runs (Fig. 13): CHBP empty
    /// patch on RV64GCV and the CHBP downgrade on RV64GC.
    fn add_program(&mut self, spec: inputs::ProgramSpec, traced: bool) -> Result<(), String> {
        let reference = self.reference_run(&spec.input)?;
        let mut p = Program {
            name: spec.name,
            prep: spec.prep,
            input_bytes: binary_bytes(&spec.input),
            task: task_of(&spec.input),
            input: spec.input,
            run_profile: match spec.prep {
                Prep::EmptyPatch(_) => ExtSet::RV64GCV,
                Prep::Chimera | Prep::LazyHidden => ExtSet::RV64GC,
            },
            reference,
            empty_cycles: 0,
            downgrade_cycles: 0,
            sim: (0, 0),
            rewritten_bytes: 0,
            counts: RewriteCounts::default(),
            last_engine: RunObs::default(),
            last_jit: RunObs::default(),
            engine_traps: 0,
        };
        let process = p.build_facade()?;
        if traced {
            let mut scratch = SpanLog::new();
            let row = scratch.open("setup", Layer::Bench, None);
            let b = p.build_traced(&mut scratch, row)?;
            let same = process.views.len() == b.views.len()
                && process.views.iter().zip(&b.views).all(|(x, y)| {
                    x.binary == y.binary
                        && x.tables.fht == y.tables.fht
                        && x.tables.regen.is_some() == y.tables.regen.is_some()
                });
            if !same {
                return Err(format!(
                    "{}: traced build differs from the facade's",
                    p.name
                ));
            }
        }
        let native = |what: &str, exit: i64| {
            if exit == p.reference.exit {
                Ok(())
            } else {
                Err(format!(
                    "{}: {what} exit code {exit} differs from native",
                    p.name
                ))
            }
        };
        let err = |e: chimera::MeasureError| e.to_string();
        let m = chimera::measure(&process, p.run_profile, FUEL).map_err(err)?;
        native("first run", m.exit_code)?;
        let empty = empty_patch_with(RewriterKind::Chbp, &p.input).map_err(|e| e.to_string())?;
        let e = chimera::run_variant(&empty, ExtSet::RV64GCV, FUEL).map_err(err)?;
        native("empty-patch", e.exit_code)?;
        let downgrade = if p.prep == Prep::Chimera {
            m.cycles
        } else {
            let chimera = prepare_process(SystemKind::Chimera, InputVersion::Ext, &p.task)
                .map_err(|e| e.to_string())?;
            let d = chimera::measure(&chimera, ExtSet::RV64GC, FUEL).map_err(err)?;
            native("downgrade", d.exit_code)?;
            d.cycles
        };
        let view = process.view_for(p.run_profile).ok_or("no view to run")?;
        p.rewritten_bytes = binary_bytes(&view.binary);
        p.sim = (m.cycles, m.instret);
        p.empty_cycles = e.cycles;
        p.downgrade_cycles = downgrade;
        self.programs.push(p);
        self.processes.push(process);
        Ok(())
    }

    /// One rep: every row once. `log` turns on the traced path; `samples`
    /// receives the rep's measurements (warm-ups pass `None`). Returns the
    /// rep's wall time in nanoseconds, probe spans excluded.
    ///
    /// Every workload feeds every end-to-end metric, because the
    /// `BENCHMARK.json` contract makes each run print them all; where a
    /// metric is not one the workload is built for (`contract::MATRIX`), the
    /// value is derived from the times the rows took anyway and is printed
    /// as not asserted. No row runs for such a value's sake.
    pub fn rep(&mut self, mut log: Option<&mut SpanLog>, mut samples: Option<&mut Samples>) -> u64 {
        let wall = Instant::now();
        let root = log
            .as_deref_mut()
            .map(|l| l.open("rep", Layer::Bench, None));
        let mut put = |metric: &'static str, row: &str, v: f64| {
            if let Some(s) = samples.as_deref_mut() {
                s.entry((metric, row.to_string())).or_default().push(v);
            }
        };
        let programs = match self.program_rows {
            ProgramRows::None => 0,
            ProgramRows::Run | ProgramRows::LaunchAndRun => self.programs.len(),
        };
        for i in 0..programs {
            let name = self.programs[i].name;
            match self.program_rows(i, log.as_deref_mut(), root) {
                Ok(t) => {
                    // Where set-up built the process there is no launch to
                    // time: what is left of the row, a load and one
                    // instruction, takes tens of microseconds and reads a
                    // sixth apart from one process to the next. `launch_ms`
                    // is off the matrix there; it is filled with the whole
                    // run, load to exit in the default tier.
                    let launch_ns = match self.program_rows {
                        ProgramRows::LaunchAndRun => t.launch_ns,
                        _ => t.launch_ns + t.engine_ns,
                    };
                    put("launch_ms", name, launch_ns as f64 / 1e6);
                    put("guest_mips", name, mips(t.engine_insts, t.engine_ns));
                    put("guest_mips_jit", name, mips(t.jit_insts, t.jit_ns));
                    // One guest from launch to exit in the default tier;
                    // every instruction of the rep's runs over their time.
                    put(
                        "procs_per_s",
                        name,
                        1e9 / (t.launch_ns + t.engine_ns) as f64,
                    );
                    put(
                        "hart_mips",
                        name,
                        mips(t.engine_insts + t.jit_insts, t.engine_ns + t.jit_ns),
                    );
                }
                Err(e) => {
                    // The launch itself failed: its three operations did.
                    for _ in 0..3 {
                        self.ops.check(|| name.to_string(), Err(e.clone()));
                    }
                }
            }
        }
        if let Some(t) = self.churn_row(log.as_deref_mut(), root) {
            put(
                "procs_per_s",
                "pooled",
                t.guests as f64 * 1e9 / t.total_ns as f64,
            );
            // A guest's checkout and spawn; the guests' instructions over
            // the kernel's run. A pooled guest retires some twenty
            // instructions, far below the JIT threshold, so the Jit tier
            // would run it exactly as the engine does.
            put(
                "launch_ms",
                "pooled",
                t.ready_ns as f64 / t.guests as f64 / 1e6,
            );
            put("guest_mips", "pooled", mips(t.retired, t.run_ns));
            put("guest_mips_jit", "pooled", mips(t.retired, t.run_ns));
        }
        if let Some(hart_mips) = self.many_row(log.as_deref_mut(), root) {
            put("hart_mips", "mix", hart_mips);
        }
        let mut ns = wall.elapsed().as_nanos() as u64;
        if let (Some(l), Some(root)) = (log, root) {
            l.close(root);
            ns = l.spans[root as usize].dur() - l.probe_ns_since(root);
        }
        ns
    }

    /// Launch, engine and jit rows of one program.
    fn program_rows(
        &mut self,
        i: usize,
        mut log: Option<&mut SpanLog>,
        root: Option<u32>,
    ) -> Result<ProgramTimes, String> {
        let p = &mut self.programs[i];
        let name = p.name;
        let profile = p.run_profile;

        // (a) to the first retired instruction: from the input binary on
        // `launch_cold`, from the process set-up built elsewhere.
        let row = log
            .as_deref_mut()
            .map(|l| l.open("row.launch", Layer::Bench, root));
        let t = Instant::now();
        let built;
        let process = if self.program_rows == ProgramRows::LaunchAndRun {
            built = match (log.as_deref_mut(), row) {
                (Some(l), Some(row)) => p.build_traced(l, row)?,
                _ => p.build_facade()?,
            };
            &built
        } else {
            &self.processes[i]
        };
        let load = |log: Option<&mut SpanLog>, parent| {
            let f = || process.load(profile).ok_or("no view for the run profile");
            match log {
                Some(l) => l.time("kernel.load", Layer::Kernel, parent, f),
                None => f(),
            }
        };
        let (mut cpu, mut mem, view) = load(log.as_deref_mut(), row)?;
        let mut k = KernelRunner::new(view.tables.clone());
        let first = match log.as_deref_mut() {
            Some(l) => l.time("kernel.first_inst", Layer::Kernel, row, || {
                k.run(&mut cpu, &mut mem, 1)
            }),
            None => k.run(&mut cpu, &mut mem, 1),
        };
        let mut launch_ns = t.elapsed().as_nanos() as u64;
        if let (Some(l), Some(row)) = (log.as_deref_mut(), row) {
            l.close(row);
            launch_ns -= l.probe_ns_since(row);
        }
        let launched = match first {
            RunOutcome::OutOfFuel if cpu.stats.instret >= 1 => Ok(()),
            other => Err(format!("launch ended with {other:?}")),
        };
        self.ops.check(|| format!("{name} launch"), launched);

        // (b) continue to exit in the default tier.
        let row = log
            .as_deref_mut()
            .map(|l| l.open("row.engine", Layer::Bench, root));
        let retired_before = cpu.stats.instret;
        let (outcome, engine_ns, traps) =
            run_to_exit(&mut k, &mut cpu, &mut mem, log.as_deref_mut().zip(row));
        if let (Some(l), Some(row)) = (log.as_deref_mut(), row) {
            l.close(row);
        }
        let engine = observe(&cpu, &k);
        let checked = p.check(ExecMode::Engine, &outcome, &k, &engine);
        p.last_engine = engine;
        if row.is_some() {
            p.engine_traps = traps;
        }
        self.ops.check(|| format!("{name} engine"), checked);

        // (c) a fresh load of the same process in the JIT tier.
        let row = log
            .as_deref_mut()
            .map(|l| l.open("row.jit", Layer::Bench, root));
        let (mut cpu, mut mem, view) = load(log.as_deref_mut(), row)?;
        cpu.set_mode(ExecMode::Jit);
        let mut k = KernelRunner::new(view.tables.clone());
        let (outcome, jit_ns, _) =
            run_to_exit(&mut k, &mut cpu, &mut mem, log.as_deref_mut().zip(row));
        if let (Some(l), Some(row)) = (log, row) {
            l.close(row);
        }
        let jit = observe(&cpu, &k);
        let checked = p.check(ExecMode::Jit, &outcome, &k, &jit);
        p.last_jit = jit;
        self.ops.check(|| format!("{name} jit"), checked);

        Ok(ProgramTimes {
            launch_ns,
            engine_ns,
            engine_insts: engine.instret - retired_before,
            jit_ns,
            jit_insts: jit.instret,
        })
    }

    /// The pooled guests: checkout (a hit after the first rep) → spawn →
    /// `ManyHartKernel::run` → recycle.
    fn churn_row(
        &mut self,
        mut log: Option<&mut SpanLog>,
        root: Option<u32>,
    ) -> Option<ChurnTimes> {
        let churn = self.churn.as_mut()?;
        let row = log
            .as_deref_mut()
            .map(|l| l.open("row.churn", Layer::Bench, root));
        let begin = log.as_deref().map_or(0, SpanLog::now);
        let engine = downgrade_engine();
        let disabled = Tracer::disabled();
        let t = Instant::now();
        let mut kernel = ManyHartKernel::new(ManyHartConfig {
            workers: self.workers,
            ..Default::default()
        });
        let (mut checkout_ns, mut spawn_ns) = (0u64, 0u64);
        let mut expected = Vec::new();
        let mut error = None;
        for _ in 0..churn.spec.per_rep {
            let t0 = Instant::now();
            let handle = match churn.shared.checkout(
                &engine,
                &churn.spec.input,
                0,
                default_workers(),
                &disabled,
            ) {
                Ok(h) => h,
                Err(e) => {
                    error = Some(format!("checkout failed: {e}"));
                    break;
                }
            };
            let t1 = Instant::now();
            let key = *churn.key.get_or_insert_with(|| {
                let key = churn.pool.register(handle_variant(&handle));
                churn.pool.prewarm(key, churn.spec.per_rep);
                key
            });
            let id = kernel.add_pooled_hart(&mut churn.pool, key, ExtSet::RV64GC, ExtSet::RV64GC);
            spawn_ns += t1.elapsed().as_nanos() as u64;
            checkout_ns += (t1 - t0).as_nanos() as u64;
            let Some(id) = id else {
                error = Some("pool key not registered".to_string());
                break;
            };
            expected.push(churn.spec.exit_base + id as i64);
        }
        let guests = expected.len() as u64;
        let run_t = Instant::now();
        let result = kernel.run();
        let run_ns = run_t.elapsed().as_nanos() as u64;
        let recycle_t = Instant::now();
        let recycled = kernel.recycle_into(&mut churn.pool) as u64;
        let recycle_ns = recycle_t.elapsed().as_nanos() as u64;
        let total_ns = t.elapsed().as_nanos() as u64;
        if let (Some(l), Some(row)) = (log, row) {
            l.aggregate(
                "rewrite.checkout",
                Layer::Rewrite,
                row,
                begin,
                checkout_ns,
                guests,
            );
            l.aggregate(
                "kernel.pool_spawn",
                Layer::Kernel,
                row,
                begin,
                spawn_ns,
                guests,
            );
            l.aggregate("kernel.churn_run", Layer::Kernel, row, begin, run_ns, 1);
            l.aggregate(
                "kernel.pool_recycle",
                Layer::Kernel,
                row,
                begin,
                recycle_ns,
                guests,
            );
            l.close(row);
        }

        // One operation per guest: spawned, run to the right exit, recycled.
        let deterministic = match &churn.baseline {
            Some(b) if *b != result => Err("run differs from set-up's bit for bit".to_string()),
            _ => Ok(()),
        };
        let all = error
            .map_or(Ok(()), Err)
            .and(deterministic)
            .and(if recycled == guests {
                Ok(())
            } else {
                Err(format!("{recycled} of {guests} slots recycled"))
            });
        for (hart, want) in result.harts.iter().zip(&expected) {
            let got = if hart.exit == Some(*want) {
                all.clone()
            } else {
                Err(format!(
                    "exit {:?} (failure {:?}), expected {want}",
                    hart.exit, hart.failure
                ))
            };
            self.ops
                .check(|| format!("pooled guest {}", hart.hart), got);
        }
        let retired = result.retired;
        churn.baseline.get_or_insert(result);
        (guests > 0).then_some(ChurnTimes {
            guests,
            total_ns,
            ready_ns: checkout_ns + spawn_ns,
            run_ns,
            retired,
        })
    }

    /// The many-hart mix; returns `hart_mips`.
    pub fn many_row(&mut self, log: Option<&mut SpanLog>, root: Option<u32>) -> Option<f64> {
        let many = self.many.as_mut()?;
        let mut kernel = ManyHartKernel::new(ManyHartConfig {
            workers: self.workers,
            quantum: many.spec.quantum,
            ..Default::default()
        });
        let (result, run_ns) = match log {
            Some(l) => {
                let row = l.open("row.many", Layer::Bench, root);
                l.time("kernel.many_populate", Layer::Kernel, Some(row), || {
                    many.spec.scenario.populate(&mut kernel, many.spec.harts)
                });
                let id = l.open("kernel.many_run", Layer::Kernel, Some(row));
                let result = kernel.run();
                l.close(id);
                l.close(row);
                (result, l.spans[id as usize].dur())
            }
            None => {
                many.spec.scenario.populate(&mut kernel, many.spec.harts);
                let t = Instant::now();
                let result = kernel.run();
                (result, t.elapsed().as_nanos() as u64)
            }
        };
        let deterministic = match &many.baseline {
            Some(b) if *b != result => Err("run differs from set-up's bit for bit".to_string()),
            _ => Ok(()),
        };
        for hart in &result.harts {
            // The standard mix by hart id (see `ManyHartScenario::add_hart`):
            // matrix variants and fib have a native reference; a
            // communicator's exit is held to set-up's by the baseline.
            let want = match hart.hart % 8 {
                0 | 1 | 4 | 5 | 6 => Some(many.expect_matrix),
                2 => Some(many.expect_fib),
                _ => None,
            };
            let got = match (hart.exit, want) {
                (None, _) => Err(format!("did not exit: {:?}", hart.failure)),
                (Some(code), Some(want)) if code != want => {
                    Err(format!("exit {code}, expected {want}"))
                }
                _ => deterministic.clone(),
            };
            self.ops.check(|| format!("mix hart {}", hart.hart), got);
        }
        many.baseline.get_or_insert_with(|| result.clone());
        let value = mips(result.retired, run_ns);
        many.last = Some(result);
        Some(value)
    }
}
