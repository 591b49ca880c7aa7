//! The oracle runner: executes one [`FuzzCase`] through every
//! configuration pair and returns either coverage counters or the
//! *first* divergence.
//!
//! Three oracle families, in increasing cost:
//!
//! 1. **Mode matrix** — reference interpreter vs decode-cache
//!    interpreter vs micro-op engine vs host-code JIT (twice: promotion
//!    threshold 1, so every re-entered block actually runs compiled and
//!    is published at once, and `JIT_BATCHED_THRESHOLD`, so traces wait
//!    on the publication queue and are validated when finally entered),
//!    cache on/off, tracer on/off, all compared as full [`Obs`] (result,
//!    trap, registers, stats, output memory) against the reference run,
//!    plus the cache counter-reconciliation laws (`hits_interp ==
//!    hits_engine + chained`, `hits_interp == hits_jit + chained_jit +
//!    jitted`, identical misses/builds/invalidations, reference run
//!    untouched cache). On hosts without executable pages the JIT column
//!    degrades to engine semantics; the equality checks still run and
//!    the JIT coverage counters report zero.
//! 2. **Rewrite matrix** — every [`chimera_rewrite::RewriteEngine`] at
//!    1/2/4/8 workers (bit-identical artifacts), cached and incremental
//!    drivers (empty and post-mutation dirty sets) reproducing the full
//!    rewrite bit for bit, and kernel-mediated execution of each artifact
//!    (cache on/off) matching the native run's exit code, stdout and output memory.
//!    Skipped for SMC, straddled and trapping cases, whose native
//!    behaviour a static rewrite legitimately cannot reproduce (SMC
//!    mutates text the rewriter froze; a straddled image has no single
//!    `.text`; a trap tail never exits).
//! 3. **SMILE sweep** — for every trampoline CHBP placed, every interior
//!    entry offset must raise the deterministic recoverable fault keyed
//!    to the entry, bit-reproducibly (same key, same cycle count, twice,
//!    and on the max-worker artifact), and the kernel's passive handler
//!    must recover to the original binary's behaviour from that entry.

use crate::gen::{FuzzCase, OpClass, SCRATCH_LEN};
use chimera_emu::{Access, ExecMode, Stop, Trap};
use chimera_isa::prng::Prng;
use chimera_isa::ExtSet;
use chimera_kernel::{RunOutcome, RuntimeTables};
use chimera_rewrite::{
    run, run_cached, run_incremental, EngineResult, Rewritten, SharedVariantCache,
};
use chimera_testutil::{
    engines, load_image, mutate_image, observe_jit, observe_mode, observe_mode_traced,
    run_under_kernel_at, writable_bytes, Obs, JIT_BATCHED_THRESHOLD,
};
use chimera_trace::Tracer;

/// Fuel for the bare mode-matrix runs (generated programs finish in a
/// few thousand instructions; this bounds runaways).
pub const CASE_FUEL: u64 = 200_000;
/// Fuel for kernel-mediated rewritten runs (regenerated scalar code
/// retires more instructions than the native vector original).
pub const KERNEL_FUEL: u64 = 4_000_000;
/// Fuel for SMILE misaligned-entry probes: enough to leave the
/// trampoline and reach the loop's deterministic fault, small enough
/// that the (expected) fuel-exhausted recoveries stay cheap.
pub const SMILE_FUEL: u64 = 20_000;

/// One observed disagreement between configurations.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The diverging case's root seed.
    pub seed: u64,
    /// Which oracle stage disagreed (e.g. `mode:engine-cache`,
    /// `rewrite:safer:kernel-cache`, `smile:recovery`). Minimization
    /// preserves this stage exactly.
    pub stage: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// Non-vacuity counters: what the corpus actually exercised. The smoke
/// runner asserts every counter is non-zero, so a generator regression
/// (or an oracle silently skipping a family) fails loudly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    /// Cases checked.
    pub cases: u64,
    /// Cases assembled with compressed encodings.
    pub compressed: u64,
    /// Cases whose straddle split applied.
    pub straddled: u64,
    /// Cases with self-modifying stores.
    pub smc: u64,
    /// Cases with computed jumps.
    pub cjump: u64,
    /// Cases with vector blocks.
    pub vector: u64,
    /// Cases with scalar FP blocks.
    pub fp: u64,
    /// Cases ending in a trap.
    pub trap_tail: u64,
    /// JIT-mode executions compared against the reference.
    pub jit_runs: u64,
    /// Compiled-trace executions across those runs (0 on hosts without
    /// executable pages).
    pub jit_execs: u64,
    /// Jitted chain-entry passes (trace-to-trace direct jumps taken).
    pub jit_chained: u64,
    /// Compiled-trace executions of the deferring Jit column: traces
    /// that waited on the publication queue and were then entered.
    pub jit_batched_execs: u64,
    /// Cases that went through the rewrite matrix.
    pub rewrite_cases: u64,
    /// Engine pipeline runs compared for bit-identity.
    pub engine_runs: u64,
    /// Kernel-mediated rewritten executions compared against native.
    pub kernel_runs: u64,
    /// SMILE interior entries driven.
    pub smile_entries: u64,
    /// Shared variant-cache checkouts run and replayed under the kernel
    /// (one cold + one warm per eligible CHBP case).
    pub shared_cache_runs: u64,
    /// Checkouts of those that were served warm from the shared cache.
    pub shared_cache_hits: u64,
}

impl Coverage {
    /// Accumulates another case's counters.
    pub fn add(&mut self, o: &Coverage) {
        self.cases += o.cases;
        self.compressed += o.compressed;
        self.straddled += o.straddled;
        self.smc += o.smc;
        self.cjump += o.cjump;
        self.vector += o.vector;
        self.fp += o.fp;
        self.trap_tail += o.trap_tail;
        self.jit_runs += o.jit_runs;
        self.jit_execs += o.jit_execs;
        self.jit_chained += o.jit_chained;
        self.jit_batched_execs += o.jit_batched_execs;
        self.rewrite_cases += o.rewrite_cases;
        self.engine_runs += o.engine_runs;
        self.kernel_runs += o.kernel_runs;
        self.smile_entries += o.smile_entries;
        self.shared_cache_runs += o.shared_cache_runs;
        self.shared_cache_hits += o.shared_cache_hits;
    }

    /// `(name, value)` pairs for reporting.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cases", self.cases),
            ("compressed", self.compressed),
            ("straddled", self.straddled),
            ("smc", self.smc),
            ("cjump", self.cjump),
            ("vector", self.vector),
            ("fp", self.fp),
            ("trap_tail", self.trap_tail),
            ("jit_runs", self.jit_runs),
            ("jit_execs", self.jit_execs),
            ("jit_chained", self.jit_chained),
            ("jit_batched_execs", self.jit_batched_execs),
            ("rewrite_cases", self.rewrite_cases),
            ("engine_runs", self.engine_runs),
            ("kernel_runs", self.kernel_runs),
            ("smile_entries", self.smile_entries),
            ("shared_cache_runs", self.shared_cache_runs),
            ("shared_cache_hits", self.shared_cache_hits),
        ]
    }
}

/// Deliberate fault injection — the mutation-testing hook that proves
/// the oracle detects divergences and the minimizer shrinks them. When
/// the case contains an op of the given class, the engine-mode
/// observation is perturbed before comparison, emulating a buggy uop
/// handler for exactly that op class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inject {
    /// Perturb the engine observation when this op class is present.
    pub perturb_engine: Option<OpClass>,
    /// Perturb the deferring JIT column's observation when this op class
    /// is present (the `FUZZ_INJECT=jit` drill). That column is the last
    /// of the matrix, so tripping it proves the JIT comparison gates
    /// *and* that every column before it ran and agreed.
    pub perturb_jit: Option<OpClass>,
}

impl Inject {
    /// No injection — the production configuration.
    pub fn none() -> Inject {
        Inject::default()
    }
}

fn describe(obs: &Obs) -> String {
    match &obs.result {
        Ok(r) => format!(
            "exit={} stdout={}B instret={} cycles={}",
            r.exit_code,
            r.stdout.len(),
            obs.stats.instret,
            obs.stats.cycles
        ),
        Err(e) => format!("err={e} pc={:#x} instret={}", obs.pc, obs.stats.instret),
    }
}

/// The first field two observations disagree on, described tersely.
fn first_diff(a: &Obs, b: &Obs) -> String {
    if a.result != b.result {
        return format!("result: [{}] vs [{}]", describe(a), describe(b));
    }
    if a.xregs != b.xregs {
        let i = (0..32).find(|&i| a.xregs[i] != b.xregs[i]).unwrap();
        return format!("x{i}: {:#x} vs {:#x}", a.xregs[i], b.xregs[i]);
    }
    if a.stats != b.stats {
        return format!("stats: {:?} vs {:?}", a.stats, b.stats);
    }
    if a.pc != b.pc {
        return format!("pc: {:#x} vs {:#x}", a.pc, b.pc);
    }
    for ((an, ab), (_, bb)) in a.mem.iter().zip(&b.mem) {
        if ab != bb {
            let i = ab.iter().zip(bb).position(|(x, y)| x != y).unwrap_or(0);
            return format!(
                "mem {an}[{i}]: {} vs {}",
                ab.get(i).unwrap_or(&0),
                bb.get(i).unwrap_or(&0)
            );
        }
    }
    "unknown field".into()
}

fn perturb(obs: &mut Obs) {
    match &mut obs.result {
        Ok(r) => r.exit_code ^= 1,
        Err(_) => obs.pc ^= 2,
    }
}

/// Checks one case through the full oracle matrix. Returns coverage on
/// agreement, or the first divergence.
pub fn check_case(case: &FuzzCase, inject: Inject) -> Result<Coverage, Divergence> {
    let seed = case.seed;
    let fail = |stage: &str, detail: String| Divergence {
        seed,
        stage: stage.into(),
        detail,
    };

    let built = case
        .build()
        .map_err(|e| fail("build", format!("generated program must assemble: {e}")))?;
    let bin = &built.bin;

    let mut cov = Coverage {
        cases: 1,
        compressed: case.compress as u64,
        straddled: built.straddled as u64,
        smc: case.has_class(OpClass::Smc) as u64,
        cjump: case.has_class(OpClass::ComputedJump) as u64,
        vector: case.has_class(OpClass::Vector) as u64,
        fp: case.has_class(OpClass::Fp) as u64,
        trap_tail: case.trap_tail as u64,
        ..Default::default()
    };

    // ---- Family 1: the execution-mode matrix ------------------------
    // The reference interpreter is the only mode without the decode
    // cache, so "cache on vs off" is the reference-vs-cached comparison.
    let (reference, ref_stats) = observe_mode(bin, ExtSet::RV64GCV, ExecMode::Reference, CASE_FUEL);
    if (
        ref_stats.hits,
        ref_stats.misses,
        ref_stats.blocks_built,
        ref_stats.chained,
    ) != (0, 0, 0, 0)
    {
        return Err(fail(
            "mode:refcache",
            format!("reference mode touched the decode cache: {ref_stats:?}"),
        ));
    }

    // The Jit mode runs twice: at threshold 1, where every compiled
    // trace is published at once, and at a small threshold that defers —
    // traces wait on the queue while their blocks keep running in the
    // engine, and are validated on their first entry after publication.
    let configs = [
        (ExecMode::Interpreter, 0, "mode:interp-cache"),
        (ExecMode::Engine, 0, "mode:engine-cache"),
        (ExecMode::Jit, 1, "mode:jit-cache"),
        (ExecMode::Jit, JIT_BATCHED_THRESHOLD, "mode:jit-batched"),
    ];
    let mut interp_cache_stats = None;
    let mut engine_cache = None;
    let mut jit_stats = Vec::new();
    for (mode, threshold, stage) in configs {
        let (mut obs, stats) = if mode == ExecMode::Jit {
            observe_jit(bin, ExtSet::RV64GCV, CASE_FUEL, threshold)
        } else {
            observe_mode(bin, ExtSet::RV64GCV, mode, CASE_FUEL)
        };
        let injected = match mode {
            ExecMode::Engine => inject.perturb_engine,
            ExecMode::Jit if threshold == JIT_BATCHED_THRESHOLD => inject.perturb_jit,
            _ => None,
        };
        if let Some(class) = injected {
            if case.has_class(class) {
                perturb(&mut obs);
            }
        }
        if obs != reference {
            return Err(fail(stage, first_diff(&reference, &obs)));
        }
        match mode {
            ExecMode::Interpreter => interp_cache_stats = Some(stats),
            ExecMode::Engine => engine_cache = Some((obs, stats)),
            ExecMode::Jit => jit_stats.push((stage, stats)),
            ExecMode::Reference => unreachable!(),
        }
    }
    let is = interp_cache_stats.expect("config matrix ran");
    let (engine_obs, es) = engine_cache.expect("config matrix ran");
    if is.hits != es.hits + es.chained {
        return Err(fail(
            "mode:reconcile",
            format!("hits_interp != hits_engine + chained: {is:?} vs {es:?}"),
        ));
    }
    if (is.misses, is.blocks_built, is.invalidations)
        != (es.misses, es.blocks_built, es.invalidations)
    {
        return Err(fail(
            "mode:reconcile",
            format!("miss/build/invalidation counters diverged: {is:?} vs {es:?}"),
        ));
    }
    for &(stage, js) in &jit_stats {
        let stage = stage.replace("mode:", "mode:reconcile-");
        if is.hits != js.hits + js.chained + js.jitted {
            return Err(fail(
                &stage,
                format!("hits_interp != hits_jit + chained + jitted: {is:?} vs {js:?}"),
            ));
        }
        if (is.misses, is.blocks_built, is.invalidations)
            != (js.misses, js.blocks_built, js.invalidations)
        {
            return Err(fail(
                &stage,
                format!("jit miss/build/invalidation counters diverged: {is:?} vs {js:?}"),
            ));
        }
    }
    cov.jit_runs = 1;
    cov.jit_execs = jit_stats[0].1.jit_execs;
    cov.jit_chained = jit_stats[0].1.jitted;
    cov.jit_batched_execs = jit_stats[1].1.jit_execs;

    let tracer = Tracer::enabled();
    let (traced, _) =
        observe_mode_traced(bin, ExtSet::RV64GCV, ExecMode::Engine, CASE_FUEL, &tracer);
    if traced != engine_obs && traced != reference {
        // (When injection perturbed `engine_obs`, compare to reference.)
        return Err(fail("mode:engine-traced", first_diff(&reference, &traced)));
    }
    if tracer.drain().is_empty() {
        return Err(fail(
            "mode:trace-vacuous",
            "the enabled tracer recorded no events".into(),
        ));
    }

    // ---- Family 2: the rewrite matrix -------------------------------
    // A static rewrite is only required to reproduce native behaviour
    // for cases whose text stays immutable (no SMC), singly mapped (no
    // straddle) and which run to a clean exit.
    let eligible = !case.has_class(OpClass::Smc)
        && !built.straddled
        && !case.trap_tail
        && reference.result.is_ok();
    if !eligible {
        return Ok(cov);
    }
    cov.rewrite_cases = 1;
    let native = reference.result.as_ref().expect("eligible means Ok");
    let disabled = Tracer::disabled();

    for (name, engine) in engines() {
        let base = run(engine.as_ref(), bin, 1, &disabled)
            .map_err(|e| fail(&format!("rewrite:{name}:error"), format!("{e:?}")))?;
        cov.engine_runs += 1;
        let mut max_workers = base.rewritten.clone();
        for w in [2usize, 4, 8] {
            let r = run(engine.as_ref(), bin, w, &disabled)
                .map_err(|e| fail(&format!("rewrite:{name}:error"), format!("w={w}: {e:?}")))?;
            cov.engine_runs += 1;
            if r.rewritten != base.rewritten {
                return Err(fail(
                    &format!("rewrite:{name}:workers"),
                    format!("workers={w} artifact differs from workers=1"),
                ));
            }
            if w == 8 {
                max_workers = r.rewritten;
            }
        }

        let (primed, mut cache) = run_cached(engine.as_ref(), bin, 2, &disabled)
            .map_err(|e| fail(&format!("rewrite:{name}:error"), format!("cached: {e:?}")))?;
        if primed.rewritten != base.rewritten {
            return Err(fail(
                &format!("rewrite:{name}:cached"),
                "cached run differs from plain run".into(),
            ));
        }
        let inc0 = run_incremental(engine.as_ref(), bin, &mut cache, &[], 2, &disabled)
            .map_err(|e| fail(&format!("rewrite:{name}:error"), format!("inc0: {e:?}")))?;
        if inc0.rewritten != base.rewritten {
            return Err(fail(
                &format!("rewrite:{name}:incremental"),
                "empty-dirty incremental differs from full rewrite".into(),
            ));
        }

        // Runtime mutations (SMC pokes, ebreak patches, remaps) on the
        // *image* never change what a re-rewrite of the immutable input
        // produces.
        let (mut img, ts, te) = load_image(&base.rewritten.binary);
        let mut mrng = Prng::stream(seed, &format!("mutate:{name}"));
        let dirty: Vec<_> = (0..3)
            .map(|_| mutate_image(&mut img, &mut mrng, ts, te))
            .collect();
        let inc = run_incremental(engine.as_ref(), bin, &mut cache, &dirty, 4, &disabled)
            .map_err(|e| fail(&format!("rewrite:{name}:error"), format!("inc: {e:?}")))?;
        if inc.rewritten != base.rewritten {
            return Err(fail(
                &format!("rewrite:{name}:incremental-mutated"),
                format!("incremental after {} dirty spans diverged", dirty.len()),
            ));
        }

        // Kernel-mediated execution equality against the native run.
        // The identity engine keeps the extension ISA, so it runs on the
        // extension profile; every real rewriter targets the base core.
        let profile = if name == "identity" {
            ExtSet::RV64GCV
        } else {
            ExtSet::RV64GC
        };
        for (mode, cache) in [
            (ExecMode::Engine, "cache"),
            (ExecMode::Reference, "nocache"),
        ] {
            let stage = format!("rewrite:{name}:kernel-{cache}");
            let tables = RuntimeTables {
                fht: Some(base.rewritten.fht.clone()),
                regen: base.regen.clone(),
            };
            let mut ko = run_under_kernel_at(
                base.rewritten.binary.clone(),
                tables,
                profile,
                mode,
                None,
                KERNEL_FUEL,
            );
            cov.kernel_runs += 1;
            match ko.outcome {
                RunOutcome::Exited(code) if code == native.exit_code => {}
                other => {
                    return Err(fail(
                        &stage,
                        format!("native exit={}, rewritten {:?}", native.exit_code, other),
                    ))
                }
            }
            if ko.stdout != native.stdout {
                return Err(fail(&stage, "stdout diverged".into()));
            }
            // Compare the scratch region only: the `.dword` jump tables
            // after it hold code addresses, which engines that move code
            // (e.g. safer's inserted checks) legitimately relocate.
            let got = writable_bytes(&mut ko.mem, bin);
            for ((sn, sa), (_, sb)) in reference.mem.iter().zip(&got) {
                let (a, b) = if sn == ".data" {
                    (
                        &sa[..SCRATCH_LEN.min(sa.len())],
                        &sb[..SCRATCH_LEN.min(sb.len())],
                    )
                } else {
                    (&sa[..], &sb[..])
                };
                if a != b {
                    let i = a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(0);
                    return Err(fail(&stage, format!("output memory diverged at {sn}[{i}]")));
                }
            }
        }

        // ---- Cross-process variant-cache column ---------------------
        // One cold checkout (pays the rewrite) and one warm checkout
        // (served shared) of the same content: both must hand back the
        // direct rewrite's artifact bit for bit, and a kernel replay of
        // the warm checkout must be full-Obs-identical to the cold one.
        // CHBP only — the other engines' artifacts were already pinned
        // identical above, so one engine exercises the cache paths.
        if name == "chbp" {
            let shared = SharedVariantCache::new();
            let mut replays = Vec::new();
            for (pass, expect_hit) in [("cold", false), ("warm", true)] {
                let stage = format!("rewrite:chbp:shared-{pass}");
                let handle = shared
                    .checkout(engine.as_ref(), bin, 0, 2, &disabled)
                    .map_err(|e| fail(&stage, format!("{e:?}")))?;
                if handle.shared_hit != expect_hit {
                    return Err(fail(
                        &stage,
                        format!("shared_hit={}, expected {expect_hit}", handle.shared_hit),
                    ));
                }
                if *handle.rewritten() != base.rewritten {
                    return Err(fail(
                        &stage,
                        "checkout artifact differs from the direct rewrite".into(),
                    ));
                }
                cov.shared_cache_runs += 1;
                cov.shared_cache_hits += handle.shared_hit as u64;
                let tables = RuntimeTables {
                    fht: Some(handle.rewritten().fht.clone()),
                    regen: handle.regen().cloned(),
                };
                let mut ko = run_under_kernel_at(
                    handle.rewritten().binary.clone(),
                    tables,
                    ExtSet::RV64GC,
                    ExecMode::Engine,
                    None,
                    KERNEL_FUEL,
                );
                let mem = writable_bytes(&mut ko.mem, bin);
                replays.push((ko.outcome, ko.stdout, ko.cpu.stats, mem));
            }
            if replays[0] != replays[1] {
                return Err(fail(
                    "rewrite:chbp:shared-replay",
                    "warm-checkout kernel run diverged from the cold one".into(),
                ));
            }
        }

        // ---- Family 3: the SMILE misaligned-entry sweep -------------
        if name == "chbp" && base.rewritten.stats.smile_trampolines > 0 {
            cov.smile_entries += smile_sweep(bin, &base, &max_workers, &fail)?;
        }
    }

    Ok(cov)
}

/// Forces one partial entry into a trampoline span. Returns the
/// recovered fault key and the cycle count, or a description of a
/// non-deterministic/non-recoverable stop.
fn probe_entry(rw: &Rewritten, entry: u64) -> Result<(u64, u64), String> {
    let (mut cpu, mut mem) = chimera_emu::boot(&rw.binary, ExtSet::RV64GC);
    cpu.hart.pc = entry;
    match cpu.run(&mut mem, 16) {
        // P2/P3 forms: the parcel at the entry is a reserved encoding.
        Stop::Trap(Trap::Illegal { pc, .. }) => {
            if pc != entry {
                return Err(format!(
                    "illegal fault at {pc:#x}, not the entry {entry:#x}"
                ));
            }
            Ok((pc, cpu.stats.cycles))
        }
        // P1: the jalr runs with the psABI gp and fetch-faults in data.
        Stop::Trap(Trap::Mem { fault, .. }) => {
            if fault.access != Access::Fetch {
                return Err(format!("non-fetch memory fault: {fault:?}"));
            }
            Ok((cpu.hart.gp().wrapping_sub(4), cpu.stats.cycles))
        }
        other => Err(format!("no deterministic recoverable fault: {other:?}")),
    }
}

/// Drives every interior entry of every trampoline: deterministic fault
/// key, bit-reproducible (twice, and on the max-worker artifact), and
/// kernel recovery matching the original binary entered at the same
/// address. Returns the number of entries driven.
fn smile_sweep(
    bin: &chimera_obj::Binary,
    base: &EngineResult,
    max_workers: &Rewritten,
    fail: &dyn Fn(&str, String) -> Divergence,
) -> Result<u64, Divergence> {
    let rw = &base.rewritten;
    let mut driven = 0;
    for &head in &rw.fht.trampolines {
        for off in [2u64, 4, 6] {
            let entry = head + off;
            if !rw.fht.redirects.contains_key(&entry) {
                continue;
            }
            driven += 1;

            let (key, cycles) = probe_entry(rw, entry)
                .map_err(|e| fail("smile:fault", format!("{entry:#x}: {e}")))?;
            if key != entry {
                return Err(fail(
                    "smile:key",
                    format!("fault key {key:#x} does not recover entry {entry:#x}"),
                ));
            }
            let again = probe_entry(rw, entry)
                .map_err(|e| fail("smile:fault", format!("{entry:#x} rerun: {e}")))?;
            if again != (key, cycles) {
                return Err(fail(
                    "smile:determinism",
                    format!("{entry:#x}: {:?} vs {:?}", (key, cycles), again),
                ));
            }
            // Same probe on the 8-worker artifact (bytes already
            // asserted identical; this pins the *behaviour* too).
            let w8 = probe_entry(max_workers, entry)
                .map_err(|e| fail("smile:fault", format!("{entry:#x} w=8: {e}")))?;
            if w8 != (key, cycles) {
                return Err(fail(
                    "smile:workers",
                    format!("{entry:#x}: w=1 {:?} vs w=8 {:?}", (key, cycles), w8),
                ));
            }

            // Recovery: the passive handler must reproduce the original
            // binary's behaviour from this entry. (Interior entries skip
            // the init code, so the common original outcomes are a
            // memory trap or fuel exhaustion — the contract still holds
            // shape for shape.)
            let (mut ocpu, mut omem) = chimera_emu::boot(bin, ExtSet::RV64GCV);
            ocpu.hart.pc = entry;
            let original = chimera_emu::run_cpu(&mut ocpu, &mut omem, SMILE_FUEL);

            let tables = RuntimeTables {
                fht: Some(rw.fht.clone()),
                regen: None,
            };
            let recover = || {
                run_under_kernel_at(
                    rw.binary.clone(),
                    tables.clone(),
                    ExtSet::RV64GC,
                    ExecMode::Engine,
                    Some(entry),
                    SMILE_FUEL,
                )
            };
            let rec = recover();
            if rec.kernel.counters.smile_faults == 0 {
                return Err(fail(
                    "smile:recovery",
                    format!("{entry:#x}: recovery did not go through the passive handler"),
                ));
            }
            let ok = match (&original, &rec.outcome) {
                (Ok(r), RunOutcome::Exited(code)) => *code == r.exit_code && rec.stdout == r.stdout,
                (Err(chimera_emu::RunError::OutOfFuel), RunOutcome::OutOfFuel) => true,
                // A trapping original must not be "recovered" into a
                // clean exit (or silently spin): the kernel reports it.
                (Err(_), RunOutcome::Fatal(_)) => true,
                (Err(chimera_emu::RunError::Trap(_)), RunOutcome::NeedsMigration { .. }) => false,
                _ => false,
            };
            if !ok {
                return Err(fail(
                    "smile:recovery",
                    format!(
                        "{entry:#x}: original {:?} vs recovered {:?}",
                        original.as_ref().map(|r| r.exit_code),
                        rec.outcome
                    ),
                ));
            }
            // Recovery itself is deterministic, bit for bit.
            let rec2 = recover();
            if rec2.outcome != rec.outcome
                || rec2.stdout != rec.stdout
                || rec2.cpu.stats != rec.cpu.stats
            {
                return Err(fail(
                    "smile:recovery-determinism",
                    format!("{entry:#x}: two recoveries diverged"),
                ));
            }
        }
    }
    if driven == 0 {
        return Err(fail(
            "smile:vacuous",
            format!(
                "{} trampolines but no interior entries driven",
                rw.fht.trampolines.len()
            ),
        ));
    }
    Ok(driven)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn clean_cases_pass_the_oracle() {
        for seed in 0..12u64 {
            let case = generate(seed);
            check_case(&case, Inject::none())
                .unwrap_or_else(|d| panic!("seed {seed} diverged at {}: {}", d.stage, d.detail));
        }
    }

    #[test]
    fn injection_is_detected() {
        // Find a case containing an ALU op (ubiquitous) and perturb the
        // engine for it: the oracle must flag the engine stage.
        let case = (0..64)
            .map(generate)
            .find(|c| c.has_class(OpClass::Alu))
            .expect("ALU ops are common");
        let d = check_case(
            &case,
            Inject {
                perturb_engine: Some(OpClass::Alu),
                ..Inject::none()
            },
        )
        .expect_err("perturbed engine must diverge");
        assert!(d.stage.starts_with("mode:engine"), "stage: {}", d.stage);
        // The same drill on the JIT side trips the deferring column.
        let d = check_case(
            &case,
            Inject {
                perturb_jit: Some(OpClass::Alu),
                ..Inject::none()
            },
        )
        .expect_err("perturbed batched jit must diverge");
        assert_eq!(d.stage, "mode:jit-batched");
    }
}
