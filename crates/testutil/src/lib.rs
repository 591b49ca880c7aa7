//! # chimera-testutil
//!
//! Shared execution/byte-equality helpers for the differential test
//! suites and the fuzzing oracles.
//!
//! Before this crate, `tests/differential.rs`,
//! `crates/rewrite/tests/incremental_rewrite.rs` and
//! `crates/rewrite/tests/parallel_determinism.rs` each carried their own
//! copy of "run this binary and capture everything comparable": the final
//! [`RunResult`], the bytes of every writable section, kernel-mediated
//! runs of rewritten variants, and the engine roster of the §6.1
//! comparison. The copies had started to drift (different return shapes,
//! different fuel constants), which is exactly how a transparency bug
//! slips past one suite while another would have caught it. Everything
//! comparable now lives here, and the fuzzing crate's oracles assert over
//! the *same* observations the curated suites pin.
//!
//! Nothing here asserts by itself (except the `run_*` helpers panicking
//! on outcomes the caller declared impossible): helpers *capture*
//! observations; suites compare them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chimera_emu::{BareRun, BareYield, Cpu, ExecMode, Memory, RunError, RunResult};
use chimera_isa::prng::Prng;
use chimera_isa::ExtSet;
use chimera_kernel::{
    KernelRunner, ManyHartConfig, ManyHartKernel, ManyHartResult, Process, RunOutcome,
    RuntimeTables, Tracer, Variant,
};
use chimera_obj::{Binary, DirtySpan};
use chimera_rewrite::{
    chbp_rewrite, ebreak_patch, ChbpEngine, Flavor, IdentityEngine, Mode, RegenEngine,
    RewriteEngine, RewriteOptions, Rewritten,
};
use chimera_trace::TraceRecord;
use chimera_workloads::hetero;
use std::collections::BTreeMap;

/// The default fuel budget for runs that must finish: effectively
/// unbounded, while still letting a runaway loop terminate the test run
/// (`u64::MAX` itself would mask fuel-accounting overflow bugs).
pub const FUEL: u64 = u64::MAX / 2;

/// Final bytes of every writable section the binary declares (the output
/// state a program leaves behind), read from the run's memory.
pub fn writable_bytes(mem: &mut Memory, bin: &Binary) -> Vec<(String, Vec<u8>)> {
    bin.sections
        .iter()
        .filter(|s| s.perms.w)
        .map(|s| {
            let bytes = mem
                .peek(s.addr, s.data.len())
                .unwrap_or_else(|| panic!("section {} vanished", s.name));
            (s.name.clone(), bytes)
        })
        .collect()
}

/// Runs `bin` in `mode` keeping the final memory, so callers can compare
/// data-section bytes in addition to the [`RunResult`].
pub fn run_keeping_mem(
    bin: &Binary,
    profile: ExtSet,
    mode: ExecMode,
) -> (Result<RunResult, RunError>, Memory) {
    let (mut cpu, mut mem) = chimera_emu::boot(bin, profile);
    cpu.set_mode(mode);
    let r = chimera_emu::run_cpu(&mut cpu, &mut mem, FUEL);
    (r, mem)
}

/// Everything observable about one execution configuration of one
/// program — the unit of comparison for differential suites and the
/// fuzzing oracles. Two configurations agree iff their `Obs` are equal
/// (cache statistics excluded: those follow the reconciliation laws the
/// suites assert separately).
///
/// `xregs` and `stats` are captured from the CPU itself, not the
/// [`RunResult`], so trapping runs are compared on full architectural
/// state too — a divergence hidden behind an identical trap enum still
/// fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obs {
    /// The run's result (or its error — traps must be identical too).
    pub result: Result<RunResult, RunError>,
    /// Final integer register file (valid even when the run trapped).
    pub xregs: [u64; 32],
    /// Final execution statistics (valid even when the run trapped).
    pub stats: chimera_emu::ExecStats,
    /// Final program counter.
    pub pc: u64,
    /// Final bytes of every writable section.
    pub mem: Vec<(String, Vec<u8>)>,
}

/// Runs `bin` under an explicit [`ExecMode`], capturing the comparable
/// observation plus the cache counters.
pub fn observe_mode(
    bin: &Binary,
    profile: ExtSet,
    mode: ExecMode,
    fuel: u64,
) -> (Obs, chimera_emu::CacheStats) {
    observe_mode_traced(bin, profile, mode, fuel, &chimera_trace::Tracer::disabled())
}

/// [`observe_mode`] with an explicit tracer attached to the CPU (for
/// trace-transparency comparisons).
pub fn observe_mode_traced(
    bin: &Binary,
    profile: ExtSet,
    mode: ExecMode,
    fuel: u64,
    tracer: &chimera_trace::Tracer,
) -> (Obs, chimera_emu::CacheStats) {
    let (mut cpu, mut mem) = chimera_emu::boot(bin, profile);
    cpu.set_mode(mode);
    cpu.tracer = tracer.clone();
    let result = chimera_emu::run_cpu(&mut cpu, &mut mem, fuel);
    let mem_bytes = writable_bytes(&mut mem, bin);
    (
        Obs {
            result,
            xregs: cpu.hart.xregs(),
            stats: cpu.stats,
            pc: cpu.hart.pc,
            mem: mem_bytes,
        },
        cpu.cache.stats,
    )
}

/// Observations of every [`ExecMode`] for one binary — the full
/// differential matrix in a single call, in tier order: reference
/// interpreter, decode-cached interpreter, micro-op engine, JIT.
///
/// The JIT run uses a promotion threshold of 1 so every re-entered block
/// compiles (the matrix exists to exercise JIT coverage; the tiering
/// policy has its own unit tests) and is published at once. Deferred,
/// batched publication — what every threshold above 1 does, the default
/// included — has the `jit_batched` column, at
/// [`JIT_BATCHED_THRESHOLD`]. On hosts without executable pages the JIT
/// columns still run — they degrade to the engine's semantics, so
/// equality assertions stay valid and merely become vacuous as *JIT*
/// coverage (see [`chimera_emu::jit_available`]).
#[derive(Debug, Clone)]
pub struct ModeMatrix {
    /// Pure fetch/decode/execute (its cache counters must stay zero —
    /// suites assert that, so it is captured too).
    pub reference: (Obs, chimera_emu::CacheStats),
    /// Decode-cached interpreter and its cache counters.
    pub interpreter: (Obs, chimera_emu::CacheStats),
    /// Micro-op engine and its cache counters.
    pub engine: (Obs, chimera_emu::CacheStats),
    /// JIT tier and its cache counters.
    pub jit: (Obs, chimera_emu::CacheStats),
    /// JIT tier at [`JIT_BATCHED_THRESHOLD`]: traces wait on the
    /// publication queue while their blocks keep running in the engine.
    pub jit_batched: (Obs, chimera_emu::CacheStats),
}

/// The promotion threshold of the deferring JIT column: batches of five
/// traces and sixteen tolerated declines, while loops of the generated
/// cases' ~9 iterations still get published and entered. Picked by
/// mutation: with a trace stamped at publication instead of at
/// compilation (so one invalidated while queued is entered stale), 12
/// fuzz corpora trip after a mean of 106 cases at 5 — 169 at 3, 287 at 2.
pub const JIT_BATCHED_THRESHOLD: u32 = 5;

impl ModeMatrix {
    /// The five observations with their mode names, for uniform
    /// "all modes agree" comparisons.
    pub fn columns(&self) -> [(&'static str, &Obs); 5] {
        [
            ("reference", &self.reference.0),
            ("interpreter", &self.interpreter.0),
            ("engine", &self.engine.0),
            ("jit", &self.jit.0),
            ("jit-batched", &self.jit_batched.0),
        ]
    }
}

/// Runs `bin` in [`ExecMode::Jit`] with an explicit promotion threshold
/// and captures the observation plus cache counters. Suites usually pass
/// threshold 1 (compile every re-entered block and publish it at once) so
/// the comparison actually exercises compiled code, and
/// [`JIT_BATCHED_THRESHOLD`] for deferred publication.
pub fn observe_jit(
    bin: &Binary,
    profile: ExtSet,
    fuel: u64,
    threshold: u32,
) -> (Obs, chimera_emu::CacheStats) {
    let (mut cpu, mut mem) = chimera_emu::boot(bin, profile);
    cpu.set_mode(ExecMode::Jit);
    cpu.set_jit_threshold(threshold);
    let result = chimera_emu::run_cpu(&mut cpu, &mut mem, fuel);
    let mem_bytes = writable_bytes(&mut mem, bin);
    (
        Obs {
            result,
            xregs: cpu.hart.xregs(),
            stats: cpu.stats,
            pc: cpu.hart.pc,
            mem: mem_bytes,
        },
        cpu.cache.stats,
    )
}

/// Runs `bin` once per [`ExecMode`] (Jit twice: immediate and batched
/// publication) and captures each observation — the standard way for a
/// suite to assert transparency across every front end.
pub fn run_all_modes(bin: &Binary, profile: ExtSet, fuel: u64) -> ModeMatrix {
    ModeMatrix {
        reference: observe_mode(bin, profile, ExecMode::Reference, fuel),
        interpreter: observe_mode(bin, profile, ExecMode::Interpreter, fuel),
        engine: observe_mode(bin, profile, ExecMode::Engine, fuel),
        jit: observe_jit(bin, profile, fuel, 1),
        jit_batched: observe_jit(bin, profile, fuel, JIT_BATCHED_THRESHOLD),
    }
}

/// A completed kernel-supervised run of one binary variant.
pub struct KernelRun {
    /// The code passed to `exit`.
    pub exit_code: i64,
    /// Bytes the task wrote to stdout through the kernel.
    pub stdout: Vec<u8>,
    /// The CPU after the run (stats, registers, cache counters).
    pub cpu: Cpu,
    /// The kernel runner (fault counters, tables).
    pub kernel: KernelRunner,
    /// The final memory.
    pub mem: Memory,
}

/// Runs `binary` on `profile` under the simulated kernel (normal flow may
/// route through SMILE trampolines, trap trampolines, Safer corrections
/// and lazy rewrites — the passive handler resolves them all) in `mode`,
/// panicking unless the task exits.
pub fn run_under_kernel(
    binary: Binary,
    tables: RuntimeTables,
    profile: ExtSet,
    mode: ExecMode,
) -> KernelRun {
    let process = Process::new(vec![Variant { binary, tables }]);
    let (mut cpu, mut mem, view) = process.load(profile).expect("view loads");
    cpu.set_mode(mode);
    let mut k = KernelRunner::new(view.tables.clone());
    match k.run(&mut cpu, &mut mem, FUEL) {
        RunOutcome::Exited(exit_code) => KernelRun {
            exit_code,
            stdout: k.stdout.clone(),
            cpu,
            kernel: k,
            mem,
        },
        other => panic!("kernel run ({mode:?}) ended with {other:?}"),
    }
}

/// A kernel-supervised run that is allowed to end any way — the
/// non-panicking sibling of [`KernelRun`] for oracles that compare
/// *outcomes* (including traps and fuel exhaustion) rather than assume a
/// clean exit.
pub struct KernelObs {
    /// How the run stopped.
    pub outcome: RunOutcome,
    /// Bytes the task wrote to stdout through the kernel.
    pub stdout: Vec<u8>,
    /// The CPU after the run (stats, registers, cache counters).
    pub cpu: Cpu,
    /// The kernel runner (fault counters, tables).
    pub kernel: KernelRunner,
    /// The final memory.
    pub mem: Memory,
}

/// Like [`run_under_kernel`], but never panics, takes an explicit fuel
/// budget, and optionally overrides the entry pc (the misaligned-entry
/// fuzzing hook: forcing execution into the middle of a SMILE
/// trampoline).
pub fn run_under_kernel_at(
    binary: Binary,
    tables: RuntimeTables,
    profile: ExtSet,
    mode: ExecMode,
    entry: Option<u64>,
    fuel: u64,
) -> KernelObs {
    let process = Process::new(vec![Variant { binary, tables }]);
    let (mut cpu, mut mem, view) = process.load(profile).expect("view loads");
    cpu.set_mode(mode);
    if let Some(pc) = entry {
        cpu.hart.pc = pc;
    }
    let mut k = KernelRunner::new(view.tables.clone());
    let outcome = k.run(&mut cpu, &mut mem, fuel);
    KernelObs {
        outcome,
        stdout: k.stdout.clone(),
        cpu,
        kernel: k,
        mem,
    }
}

/// Runs a CHBP-style [`Rewritten`] (patched binary + fault table) on the
/// base profile under the kernel in `mode`.
pub fn run_rewritten(rw: &Rewritten, mode: ExecMode) -> KernelRun {
    run_under_kernel(
        rw.binary.clone(),
        RuntimeTables {
            fht: Some(rw.fht.clone()),
            regen: None,
        },
        ExtSet::RV64GC,
        mode,
    )
}

/// Native reference behaviour: the original binary run to completion on
/// the extension profile. Panics if it does not exit cleanly.
pub fn native_reference(bin: &Binary) -> (i64, Vec<u8>) {
    let r = chimera_emu::run_binary_on(bin, ExtSet::RV64GCV, FUEL).expect("native run exits");
    (r.exit_code, r.stdout)
}

/// The engine roster of the §6.1 system comparison, one per
/// `SystemKind`: CHBP (Chimera), the §6.2 trap-entry strawman, the Safer
/// and ARMore regeneration baselines, and the FAM/MELF identity engine.
pub fn engines() -> Vec<(&'static str, Box<dyn RewriteEngine>)> {
    vec![
        (
            "chbp",
            Box::new(ChbpEngine {
                target: ExtSet::RV64GC,
                opts: RewriteOptions::default(),
            }) as Box<dyn RewriteEngine>,
        ),
        (
            "strawman",
            Box::new(ChbpEngine {
                target: ExtSet::RV64GC,
                opts: RewriteOptions {
                    force_trap_entries: true,
                    ..Default::default()
                },
            }),
        ),
        (
            "safer",
            Box::new(RegenEngine {
                target: ExtSet::RV64GC,
                mode: Mode::Downgrade,
                flavor: Flavor::Safer,
            }),
        ),
        (
            "armore",
            Box::new(RegenEngine {
                target: ExtSet::RV64GC,
                mode: Mode::Downgrade,
                flavor: Flavor::Armore,
            }),
        ),
        ("identity", Box::new(IdentityEngine)),
    ]
}

/// Loads a rewritten image into a bare memory (the runtime mutation
/// surface) and returns it with the `.text` range, where mutations can
/// invalidate rewrite units.
pub fn load_image(out: &Binary) -> (Memory, u64, u64) {
    let mut mem = Memory::new();
    for s in &out.sections {
        mem.map_bytes(s.addr, s.data.clone(), s.perms, &s.name);
    }
    let text = out.section(".text").expect("rewritten keeps .text");
    (mem, text.addr, text.end())
}

/// Applies one random runtime code mutation to `mem` — the three kinds
/// the kernel's real paths produce: a guest SMC poke, a lazy-rewrite
/// `ebreak` patch, and an MMView-style unmap/remap cycle — and returns the
/// span it dirtied (the poked bytes, or the whole `.text` for a remap),
/// stamped with the region's new generation.
pub fn mutate_image(mem: &mut Memory, rng: &mut Prng, text_start: u64, text_end: u64) -> DirtySpan {
    let (start, end) = match rng.below(3) {
        // Guest self-modification: an arbitrary small poke.
        0 => {
            let addr = text_start + rng.below((text_end - text_start - 8) / 2) * 2;
            let len = 2 + 2 * rng.below(4) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|i| (rng.next_u64() >> (i % 8)) as u8)
                .collect();
            mem.poke_code(addr, &bytes).expect("poke inside .text");
            (addr, addr + len as u64)
        }
        // A lazy-rewrite-style patch: the kernel overwrites a site with
        // an `ebreak` trampoline.
        1 => {
            let addr = text_start + rng.below((text_end - text_start - 8) / 4) * 4;
            mem.poke_code(addr, &ebreak_patch(4)).expect("ebreak patch");
            (addr, addr + 4)
        }
        // An MMView-style remap: unmap the code region and map the same
        // bytes back at the same address (generations must not repeat).
        _ => {
            let r = mem.region(".text").expect(".text is mapped").clone();
            assert!(mem.unmap(".text"), "unmap succeeds");
            mem.map_bytes(r.start, r.bytes().to_vec(), r.perms, ".text");
            (r.start, r.end())
        }
    };
    let generation = mem.region(".text").expect(".text is mapped").generation;
    DirtySpan {
        start,
        end,
        generation,
    }
}

/// [`observe_mode`], but executed as a suspended/resumed fiber: the run
/// is chopped into `slice`-instruction fuel slices and, every
/// `hop_every`-th slice, the whole suspended run — CPU, memory, output
/// buffer — is moved into a **fresh OS thread** and resumed there. This
/// is the forced-migration torture test of the yield-point contract: any
/// slicing of a run, down to one instruction per slice across host
/// threads, must observe exactly like one unsliced [`observe_mode`] call
/// (the differential suite asserts it for all four execution modes).
///
/// `hop_every == 0` disables hopping (pure slicing on the calling
/// thread). In [`ExecMode::Jit`] the promotion threshold is pinned to 1,
/// matching [`observe_jit`]'s column in [`run_all_modes`].
pub fn observe_mode_sliced(
    bin: &Binary,
    profile: ExtSet,
    mode: ExecMode,
    fuel: u64,
    slice: u64,
    hop_every: u64,
) -> Obs {
    assert!(slice > 0, "a zero-instruction slice cannot make progress");
    let (mut cpu, mut mem) = chimera_emu::boot(bin, profile);
    cpu.set_mode(mode);
    if mode == ExecMode::Jit {
        cpu.set_jit_threshold(1);
    }
    let mut run = BareRun::new();
    let mut slices = 0u64;
    let result = loop {
        let used = cpu.stats.instret;
        if used >= fuel {
            break Err(RunError::OutOfFuel);
        }
        let budget = slice.min(fuel - used);
        slices += 1;
        let yielded = if hop_every > 0 && slices.is_multiple_of(hop_every) {
            // Forced migration: hand the suspended triple to a brand-new
            // OS thread, resume one slice there, and take it back.
            let (c, m, r, y) = {
                let (mut c, mut m, mut r) = (cpu, mem, run);
                std::thread::spawn(move || {
                    let y = r.resume(&mut c, &mut m, budget);
                    (c, m, r, y)
                })
                .join()
                .expect("migration thread survives")
            };
            cpu = c;
            mem = m;
            run = r;
            y
        } else {
            run.resume(&mut cpu, &mut mem, budget)
        };
        match yielded {
            BareYield::Exited(res) => break Ok(*res),
            BareYield::SliceExhausted => {}
            BareYield::Failed(err) => break Err(err),
        }
    };
    let mem_bytes = writable_bytes(&mut mem, bin);
    Obs {
        result,
        xregs: cpu.hart.xregs(),
        stats: cpu.stats,
        pc: cpu.hart.pc,
        mem: mem_bytes,
    }
}

/// The binaries of the standard heterogeneous many-hart scenario,
/// assembled (and CHBP-rewritten) once so 256-hart runs don't pay the
/// pipeline per hart.
pub struct ManyHartScenario {
    /// RVV matrix task (also booted profile-less for the FAM harts).
    pub matrix_ext: Binary,
    /// The same matrix task CHBP-rewritten to the base profile (SMILE
    /// trampolines: gp-mediated jumps through the data segment).
    pub matrix_chbp: Rewritten,
    /// The same matrix task rewritten with forced trap entries (the §6.2
    /// strawman): every trampoline entry is an `ebreak` round trip
    /// through the kernel's passive handler.
    pub matrix_trap: Rewritten,
    /// Scalar Fibonacci task.
    pub fib: Binary,
    /// IPI/WFI communicator task (peer mask 4).
    pub comm: Binary,
}

impl Default for ManyHartScenario {
    fn default() -> Self {
        ManyHartScenario::new()
    }
}

impl ManyHartScenario {
    /// Builds the scenario binaries (sizes kept small: the tests run it
    /// at up to 64 harts × four worker counts, `pipeline_e2e` at 256).
    pub fn new() -> ManyHartScenario {
        let matrix_ext = hetero::matrix_task(16, 2, true);
        let matrix_chbp = chbp_rewrite(&matrix_ext, ExtSet::RV64GC, RewriteOptions::default())
            .expect("matrix task rewrites");
        let matrix_trap = chbp_rewrite(
            &matrix_ext,
            ExtSet::RV64GC,
            RewriteOptions {
                force_trap_entries: true,
                ..Default::default()
            },
        )
        .expect("matrix task rewrites (strawman)");
        ManyHartScenario {
            matrix_ext,
            matrix_chbp,
            matrix_trap,
            fib: hetero::fib_task(300, 2),
            comm: hetero::communicator_task(3, 4),
        }
    }

    /// Adds hart `id`'s task to `kernel` per the standard mix:
    ///
    /// * `id % 4 == 0` — RVV matrix task, native on an extension hart;
    /// * `id % 4 == 1` — the same RVV binary booted on a base hart with
    ///   no tables: its first vector instruction FAM-faults and the hart
    ///   migrates to the extension profile mid-run;
    /// * `id % 8 == 2` — the scalar Fibonacci task;
    /// * `id % 16 == 6` — the trap-entry strawman rewrite of the matrix
    ///   task: every trampoline entry is an `ebreak` round trip through
    ///   the kernel's passive handler, under fuel slicing;
    /// * `id % 16 == 14` — the CHBP/SMILE rewrite of the matrix task on
    ///   the base profile (gp-mediated trampolines through the data
    ///   segment);
    /// * `id % 4 == 3` — the communicator: pairs `(id, id ^ 4)` exchange
    ///   IPIs through the event queue and block in `wfi`.
    pub fn add_hart(&self, kernel: &mut ManyHartKernel, id: u64) {
        match id % 8 {
            0 | 4 => kernel.add_hart(
                &self.matrix_ext,
                ExtSet::RV64GCV,
                ExtSet::RV64GCV,
                RuntimeTables::default(),
            ),
            1 | 5 => kernel.add_hart(
                &self.matrix_ext,
                ExtSet::RV64GC,
                ExtSet::RV64GCV,
                RuntimeTables::default(),
            ),
            2 => kernel.add_hart(
                &self.fib,
                ExtSet::RV64GC,
                ExtSet::RV64GC,
                RuntimeTables::default(),
            ),
            6 => {
                let rw = if id % 16 == 6 {
                    &self.matrix_trap
                } else {
                    &self.matrix_chbp
                };
                kernel.add_hart(
                    &rw.binary,
                    ExtSet::RV64GC,
                    ExtSet::RV64GC,
                    RuntimeTables {
                        fht: Some(rw.fht.clone()),
                        regen: None,
                    },
                )
            }
            _ => kernel.add_hart(
                &self.comm,
                ExtSet::RV64GC,
                ExtSet::RV64GC,
                RuntimeTables::default(),
            ),
        };
    }

    /// Populates a kernel with `n` harts (`n % 8 == 0`, so every
    /// communicator's `id ^ 4` peer exists and is also a communicator).
    pub fn populate(&self, kernel: &mut ManyHartKernel, n: usize) {
        assert_eq!(n % 8, 0, "communicator pairs need n % 8 == 0");
        for id in 0..n as u64 {
            self.add_hart(kernel, id);
        }
    }
}

/// Runs the standard heterogeneous scenario — `n` harts over `workers`
/// logical host workers — and returns the result together with the
/// tracer's counter snapshot, so gates can reconcile the result's
/// aggregate fields (`migrations`, `delivered`) against the `many.*`
/// trace counters, and the drained trace records.
pub fn run_many_hart_scenario(
    scenario: &ManyHartScenario,
    n: usize,
    workers: usize,
    quantum: u64,
) -> (ManyHartResult, BTreeMap<String, u64>, Vec<TraceRecord>) {
    let tracer = Tracer::enabled();
    let mut kernel = ManyHartKernel::with_tracer(
        ManyHartConfig {
            workers,
            quantum,
            ..Default::default()
        },
        tracer.clone(),
    );
    scenario.populate(&mut kernel, n);
    let result = kernel.run();
    let counters = tracer
        .metrics()
        .expect("enabled tracer has metrics")
        .counter_snapshot()
        .into_iter()
        .collect();
    (result, counters, tracer.drain())
}

/// A base-ISA program of `n` canonical counted loops, cycling through an
/// i64 dot, an f64 dot, an i64 map and an f64 map, and assembled with
/// compression so the loop heads differ in SMILE constraints: the i64 map
/// has an instruction start at `head + 2` (P2). The upgrade vectorizer
/// recognizes three of the four kernels; the f64 dot (an instruction start
/// at `head + 6`, P3) stays scalar, since vectorizing it would reassociate
/// its sum. Exits with the low byte of a checksum over every loop's
/// result.
pub fn scalar_loops(n: usize) -> Binary {
    use std::fmt::Write;
    let mut src = String::from("    .data\n");
    for (label, scale) in [("a", 1), ("b", 3)] {
        writeln!(src, "    {label}:").unwrap();
        for i in 0..8 {
            writeln!(src, "        .dword {}", (i + 1) * scale).unwrap();
        }
    }
    for (label, scale) in [("fa", 1.0), ("fb", 0.5)] {
        writeln!(src, "    {label}:").unwrap();
        for i in 0..8 {
            writeln!(src, "        .double {:.1}", (i + 1) as f64 * scale).unwrap();
        }
    }
    src.push_str("    c: .zero 64\n    fc: .zero 64\n    .text\n    _start:\n        li s2, 0\n");
    for i in 0..n {
        let body = match i % 4 {
            0 => {
                "
        la t0, a
        la t1, b
        li t2, 8
        li s3, 0
    lN:
        ld t3, 0(t0)
        ld t4, 0(t1)
        mul t5, t3, t4
        add s3, s3, t5
        addi t0, t0, 8
        addi t1, t1, 8
        addi t2, t2, -1
        bnez t2, lN
        add s2, s2, s3"
            }
            1 => {
                "
        la t0, fa
        la t1, fb
        li t2, 8
        fmv.d.x fa0, zero
    lN:
        fld ft0, 0(t0)
        addi t0, t0, 8
        fld ft1, 0(t1)
        fmadd.d fa0, ft0, ft1, fa0
        addi t1, t1, 8
        addi t2, t2, -1
        bnez t2, lN
        fcvt.l.d t5, fa0
        add s2, s2, t5"
            }
            2 => {
                "
        la a4, a
        la a5, b
        la a3, c
        li t2, 8
    lN:
        ld a1, 0(a4)
        ld a2, 0(a5)
        sub a0, a1, a2
        sd a0, 0(a3)
        addi a4, a4, 8
        addi a5, a5, 8
        addi a3, a3, 8
        addi t2, t2, -1
        bnez t2, lN
        ld t5, -8(a3)
        add s2, s2, t5"
            }
            _ => {
                "
        la t0, fa
        la t1, fb
        la t3, fc
        li t2, 8
    lN:
        fld ft0, 0(t0)
        fld ft1, 0(t1)
        fmul.d ft2, ft0, ft1
        fsd ft2, 0(t3)
        addi t0, t0, 8
        addi t1, t1, 8
        addi t3, t3, 8
        addi t2, t2, -1
        bnez t2, lN
        fld ft0, -8(t3)
        fcvt.l.d t5, ft0
        add s2, s2, t5"
            }
        };
        src.push_str(&body.replace("lN", &format!("l{i}")));
        src.push('\n');
    }
    src.push_str("        andi a0, s2, 255\n        li a7, 93\n        ecall\n");
    chimera_obj::assemble(
        &src,
        chimera_obj::AsmOptions {
            compress: true,
            profile: ExtSet::RV64GC,
        },
    )
    .expect("scalar loops assemble")
}
