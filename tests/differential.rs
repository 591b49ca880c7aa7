//! The offline differential suite: every workload generator's output is
//! executed (a) unrewritten on the extension profile vs CHBP-rewritten on
//! the base profile, and (b) with the basic-block decode cache on vs off —
//! asserting identical architectural results each way.
//!
//! (a) is the paper's Claim-1-style semantic-equivalence check over the
//! whole workload zoo; (b) is the decode cache's transparency contract:
//! the cache may change wall-clock time only, never results, traps,
//! register files, memory, or simulated cycle accounting.

use chimera_emu::ExecMode;
use chimera_isa::ExtSet;
use chimera_kernel::{KernelRunner, Process, RunOutcome, RuntimeTables, Variant};
use chimera_obj::Binary;
use chimera_rewrite::{chbp_rewrite, verify_claim1, RewriteOptions};
use chimera_testutil::{
    observe_jit, observe_mode, run_all_modes, run_keeping_mem, run_rewritten, writable_bytes, FUEL,
    JIT_BATCHED_THRESHOLD,
};
use chimera_workloads::blas::{self, Precision};
use chimera_workloads::hetero;
use chimera_workloads::speclike::{generate, GenOptions, APP_PROFILES, SPEC_PROFILES};

/// Every workload generator's output, tiny-scaled for test runtime.
fn workloads() -> Vec<(String, Binary)> {
    let mut v: Vec<(String, Binary)> = Vec::new();
    for p in SPEC_PROFILES {
        v.push((
            format!("spec:{}", p.name),
            generate(
                p,
                GenOptions {
                    size_scale: 1.0 / 512.0,
                    work_scale: 0.25,
                    seed: 7,
                },
            ),
        ));
    }
    for p in APP_PROFILES {
        v.push((
            format!("app:{}", p.name),
            generate(
                p,
                GenOptions {
                    size_scale: 1.0 / 512.0,
                    work_scale: 0.25,
                    seed: 8,
                },
            ),
        ));
    }
    v.push((
        "blas:dgemm".into(),
        blas::gemm(6, 5, 4, 1, 2, Precision::Double, true),
    ));
    v.push((
        "blas:sgemv".into(),
        blas::gemv(6, 5, 1, 2, Precision::Single, true),
    ));
    v.push(("hetero:matrix".into(), hetero::matrix_task(8, 2, true)));
    v.push(("hetero:fib".into(), hetero::fib_task(12, 2)));
    v
}

/// Decode cache on vs off: FULL result equality — exit code, stdout, the
/// whole integer register file, every stats counter (so cycle accounting
/// is provably identical), and the final bytes of every region.
#[test]
fn cache_on_off_identical_for_every_workload() {
    for (name, bin) in workloads() {
        for profile in [ExtSet::RV64GCV, bin.profile] {
            let (on, mut mem_on) = run_keeping_mem(&bin, profile, ExecMode::Engine);
            let (off, mut mem_off) = run_keeping_mem(&bin, profile, ExecMode::Reference);
            assert_eq!(on, off, "{name}: cache on/off diverged on {profile}");
            assert_eq!(
                writable_bytes(&mut mem_on, &bin),
                writable_bytes(&mut mem_off, &bin),
                "{name}: output memory diverged on {profile}"
            );
        }
    }
}

/// Unrewritten on RV64GCV vs CHBP-rewritten on RV64GC: identical exit
/// code, stdout and output memory — with the rewritten binary itself run
/// both cache-on and cache-off.
#[test]
fn rewritten_matches_native_for_every_workload() {
    for (name, bin) in workloads() {
        let (native, mut native_mem) = run_keeping_mem(&bin, ExtSet::RV64GCV, ExecMode::Engine);
        let native = native.unwrap_or_else(|e| panic!("{name}: native run failed: {e}"));
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default())
            .unwrap_or_else(|e| panic!("{name}: rewrite failed: {e}"));
        verify_claim1(&rw, &bin).unwrap_or_else(|e| panic!("{name}: claim 1: {e}"));
        let native_data = writable_bytes(&mut native_mem, &bin);
        let mut per_cache = Vec::new();
        for mode in [ExecMode::Engine, ExecMode::Reference] {
            let mut kr = run_rewritten(&rw, mode);
            assert_eq!(native.exit_code, kr.exit_code, "{name} ({mode:?})");
            assert_eq!(native.stdout, kr.stdout, "{name} ({mode:?})");
            assert_eq!(kr.cpu.stats.vector_insts, 0, "{name}: fully downgraded");
            // The original's writable sections exist untouched (by name and
            // address) in the rewritten binary; final contents must match.
            assert_eq!(
                native_data,
                writable_bytes(&mut kr.mem, &bin),
                "{name} ({mode:?}): output memory diverged"
            );
            per_cache.push(kr.cpu.stats);
        }
        // Cycle accounting of the rewritten run is itself cache-invariant.
        assert_eq!(per_cache[0], per_cache[1], "{name}: stats diverged");
    }
}

/// Error paths must be cache-transparent too: a program that traps
/// (extension instruction on a base core; jump into non-executable data)
/// produces the *same* error with the cache on and off.
#[test]
fn traps_identical_cache_on_off() {
    // Vector program on a base core, unrewritten: illegal instruction.
    let vec_bin = hetero::matrix_task(4, 1, true);
    let (on, _) = run_keeping_mem(&vec_bin, ExtSet::RV64GC, ExecMode::Engine);
    let (off, _) = run_keeping_mem(&vec_bin, ExtSet::RV64GC, ExecMode::Reference);
    assert!(on.is_err(), "vector code must trap on RV64GC");
    assert_eq!(on, off, "illegal-instruction trap diverged");

    // A jump into the (non-executable) data region: fetch fault.
    let src = "
        .data
        arr: .dword 7
        .text
        _start:
            la t0, arr
            jr t0
    ";
    let bin = chimera_obj::assemble(src, chimera_obj::AsmOptions::default()).unwrap();
    let (on, _) = run_keeping_mem(&bin, ExtSet::RV64GCV, ExecMode::Engine);
    let (off, _) = run_keeping_mem(&bin, ExtSet::RV64GCV, ExecMode::Reference);
    assert!(on.is_err(), "fetch from data must fault");
    assert_eq!(on, off, "fetch-fault trap diverged");
}

/// Tracing is architecturally transparent: every workload produces a
/// bit-identical [`chimera_emu::RunResult`] (exit code, stdout, register
/// file, every stats counter, cycle accounting) with the tracer disabled
/// and enabled — on both the native and the kernel-mediated rewritten
/// path. The enabled runs must actually record events, so the equality is
/// not vacuous.
#[test]
fn tracing_enabled_vs_disabled_identical_for_every_workload() {
    use chimera_kernel::Tracer;
    for (name, bin) in workloads() {
        // `run_binary_on` is the same Engine run with a disabled tracer.
        let baseline = chimera_emu::run_binary_on(&bin, ExtSet::RV64GCV, FUEL);
        let tracer = Tracer::enabled();
        let enabled =
            chimera_emu::run_binary_traced(&bin, ExtSet::RV64GCV, FUEL, ExecMode::Engine, &tracer);
        assert_eq!(baseline, enabled, "{name}: enabled tracer not transparent");
        assert!(
            !tracer.drain().is_empty(),
            "{name}: the enabled run must record events"
        );
    }

    // The kernel path (SMILE recovery in the loop) is transparent too.
    let bin = hetero::matrix_task(8, 2, true);
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    let kr = run_rewritten(&rw, ExecMode::Engine);
    let process = Process::new(vec![Variant {
        binary: rw.binary.clone(),
        tables: RuntimeTables {
            fht: Some(rw.fht.clone()),
            regen: None,
        },
    }]);
    let tracer = Tracer::enabled();
    let (mut tcpu, mut tmem, view) = process.load(ExtSet::RV64GC).unwrap();
    tcpu.tracer = tracer.clone();
    let mut k = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
    match k.run(&mut tcpu, &mut tmem, FUEL) {
        RunOutcome::Exited(tcode) => {
            assert_eq!(
                (kr.exit_code, &kr.stdout),
                (tcode, &k.stdout),
                "kernel path diverged"
            );
            assert_eq!(kr.cpu.stats, tcpu.stats, "kernel-path stats diverged");
        }
        other => panic!("traced kernel run ended with {other:?}"),
    }
    assert!(!tracer.drain().is_empty(), "kernel run must record events");
}

/// All four execution front ends — reference interpreter, decode-cache
/// interpreter, micro-op engine, and host-code JIT — produce bit-identical
/// results for every workload: exit code, stdout, register file, every
/// stats counter (cycle accounting included), and output memory. The cache
/// counters of the cached modes reconcile exactly: the engine turns a
/// subset of the interpreter's dispatcher hits into jump-cache entries
/// (`hits_interp == hits_engine + chained_engine`) and the JIT turns a
/// subset into in-trace chain-entry passes
/// (`hits_interp == hits_jit + chained_jit + jitted_jit`), while misses,
/// builds and invalidations are identical everywhere.
#[test]
fn engine_matches_interpreter_and_reference_for_every_workload() {
    for (name, bin) in workloads() {
        for profile in [ExtSet::RV64GCV, bin.profile] {
            let m = run_all_modes(&bin, profile, FUEL);
            let reference = &m.reference.0;
            for (mode, obs) in &m.columns()[1..] {
                assert_eq!(
                    reference, *obs,
                    "{name} ({mode}): observation diverged on {profile}"
                );
            }
            let (i, e, j) = (m.interpreter.1, m.engine.1, m.jit.1);
            assert_eq!(
                i.hits,
                e.hits + e.chained,
                "{name}: jump-cache entries must account exactly for the \
                 dispatcher hits they replace: {i:?} vs {e:?}"
            );
            assert_eq!(
                i.hits,
                j.hits + j.chained + j.jitted,
                "{name}: jitted chain-entry passes must account exactly for \
                 the dispatcher hits they replace: {i:?} vs {j:?}"
            );
            let b = m.jit_batched.1;
            assert_eq!(
                i.hits,
                b.hits + b.chained + b.jitted,
                "{name}: the law holds whenever traces get published: {i:?} vs {b:?}"
            );
            for (mode, c) in [("engine", e), ("jit", j), ("jit-batched", b)] {
                assert_eq!(i.misses, c.misses, "{name} ({mode}): misses diverged");
                assert_eq!(
                    i.blocks_built, c.blocks_built,
                    "{name} ({mode}): builds diverged"
                );
                assert_eq!(
                    i.invalidations, c.invalidations,
                    "{name} ({mode}): invals diverged"
                );
            }
            // The generated SPEC/app programs are loopy: the engine must
            // use its jump cache and compiled traces must chain into each
            // other, or the laws above are vacuous. (The tiny BLAS kernels
            // are straight-line: each block runs once.)
            let loopy = name.starts_with("spec:") || name.starts_with("app:");
            if loopy {
                assert!(e.chained > 0, "{name}: engine never chained: {e:?}");
            }
            if chimera_emu::jit_available() {
                assert!(
                    j.jit_execs > 0,
                    "{name}: no block ever ran as compiled code: {j:?}"
                );
                if loopy {
                    assert!(j.jitted > 0, "{name}: traces never chained: {j:?}");
                    assert!(
                        b.jit_execs > 0 && b.jitted > 0,
                        "{name}: queued traces never published or chained: {b:?}"
                    );
                }
            }
            // Determinism: chaining, memory fast paths and compiled traces
            // may never introduce order-dependent state, so a repeated run
            // is bit-identical, cache counters included.
            assert_eq!(
                observe_mode(&bin, profile, ExecMode::Engine, FUEL),
                m.engine,
                "{name}: engine run not deterministic on {profile}"
            );
            assert_eq!(
                observe_jit(&bin, profile, FUEL, 1),
                m.jit,
                "{name}: jit run not deterministic on {profile}"
            );
            assert_eq!(
                observe_jit(&bin, profile, FUEL, JIT_BATCHED_THRESHOLD),
                m.jit_batched,
                "{name}: publication points not deterministic on {profile}"
            );
            let r = m.reference.1;
            assert_eq!(
                (r.hits, r.misses, r.blocks_built, r.chained, r.jitted),
                (0, 0, 0, 0, 0),
                "{name}: the reference interpreter must not touch the cache"
            );
        }
    }
}

/// Seeded random programs through all four front ends: straight-line
/// arithmetic, shifts, forward branches, aligned loads/stores into a
/// scratch region, and a bounded outer loop — generated deterministically
/// from each seed, so failures reproduce. Programs that trap (an `ebreak`
/// is sometimes emitted) must produce the identical trap in every mode.
#[test]
fn random_programs_identical_across_modes() {
    use chimera_isa::prng::Prng;

    for seed in 0..24u64 {
        let src = random_program(seed);
        let bin = chimera_obj::assemble(&src, chimera_obj::AsmOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: generated program must assemble: {e}\n{src}"));
        let m = run_all_modes(&bin, ExtSet::RV64GCV, 1_000_000);
        let reference = &m.reference.0;
        for (mode, obs) in &m.columns()[1..] {
            assert_eq!(reference, *obs, "seed {seed} ({mode}): diverged");
        }
        let (i, e, j) = (m.interpreter.1, m.engine.1, m.jit.1);
        assert_eq!(
            i.hits,
            e.hits + e.chained,
            "seed {seed}: engine hit reconciliation"
        );
        assert_eq!(
            i.hits,
            j.hits + j.chained + j.jitted,
            "seed {seed}: jit hit reconciliation"
        );
        assert_eq!(
            (i.misses, i.blocks_built, i.invalidations),
            (e.misses, e.blocks_built, e.invalidations),
            "seed {seed}: engine cache counters diverged"
        );
        assert_eq!(
            (i.misses, i.blocks_built, i.invalidations),
            (j.misses, j.blocks_built, j.invalidations),
            "seed {seed}: jit cache counters diverged"
        );
        let b = m.jit_batched.1;
        assert_eq!(
            (i.hits, i.misses, i.blocks_built, i.invalidations),
            (
                b.hits + b.chained + b.jitted,
                b.misses,
                b.blocks_built,
                b.invalidations
            ),
            "seed {seed}: batched-jit cache counters diverged"
        );
    }

    /// One deterministic random program per seed. Always terminates: the
    /// only backward branch is the outer loop on a pre-set counter.
    fn random_program(seed: u64) -> String {
        let mut rng = Prng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1f3);
        // Operand pool: caller-ish temps, avoiding the loop counter (t6),
        // scratch base (s11), zero and the ABI regs the runner owns.
        const REGS: &[&str] = &["t0", "t1", "t2", "a0", "a1", "a2", "a3", "s2", "s3", "s4"];
        let mut src = String::from(
            "
        .data
        scratch: .zero 256
        .text
        _start:
            la s11, scratch
        ",
        );
        for (n, r) in REGS.iter().enumerate() {
            src.push_str(&format!("    li {r}, {}\n", rng.below(1 << 20) + n as u64));
        }
        src.push_str(&format!("    li t6, {}\n", rng.below(40) + 3));
        src.push_str("loop:\n");
        let body_len = rng.range_usize(8, 40);
        let mut label = 0usize;
        let mut skip: Option<(usize, usize)> = None; // (label, insts left)
        for _ in 0..body_len {
            let r = |rng: &mut Prng| *rng.pick(REGS);
            match rng.below(10) {
                0 | 1 => {
                    let op = *rng.pick(&["add", "sub", "xor", "or", "and", "sll", "srl", "mul"]);
                    let (a, b, c) = (r(&mut rng), r(&mut rng), r(&mut rng));
                    src.push_str(&format!("    {op} {a}, {b}, {c}\n"));
                }
                2 | 3 => {
                    let op = *rng.pick(&["addi", "xori", "ori", "andi"]);
                    let imm = rng.range_i64(-2048, 2048);
                    src.push_str(&format!(
                        "    {op} {}, {}, {imm}\n",
                        r(&mut rng),
                        r(&mut rng)
                    ));
                }
                4 => {
                    let op = *rng.pick(&["slli", "srli", "srai"]);
                    let sh = rng.below(63) + 1;
                    src.push_str(&format!(
                        "    {op} {}, {}, {sh}\n",
                        r(&mut rng),
                        r(&mut rng)
                    ));
                }
                5 | 6 => {
                    // Aligned in-bounds access: mask an arbitrary register
                    // into [0, 248] and index the scratch region.
                    let (addr, v) = (r(&mut rng), r(&mut rng));
                    src.push_str(&format!("    andi t3, {addr}, 248\n"));
                    src.push_str("    add t3, t3, s11\n");
                    let (st, ld) = *rng.pick(&[("sd", "ld"), ("sw", "lw"), ("sb", "lbu")]);
                    if rng.next_bool() {
                        src.push_str(&format!("    {st} {v}, 0(t3)\n"));
                    } else {
                        src.push_str(&format!("    {ld} {v}, 0(t3)\n"));
                    }
                }
                7 | 8 => {
                    // Forward conditional branch over the next few insts.
                    if skip.is_none() {
                        let op = *rng.pick(&["beq", "bne", "blt", "bgeu"]);
                        src.push_str(&format!(
                            "    {op} {}, {}, skip{label}\n",
                            r(&mut rng),
                            r(&mut rng)
                        ));
                        skip = Some((label, rng.range_usize(1, 4)));
                        label += 1;
                    }
                }
                _ => {
                    let op = *rng.pick(&["clz", "ctz", "cpop", "andn"]);
                    if op == "andn" {
                        src.push_str(&format!(
                            "    andn {}, {}, {}\n",
                            r(&mut rng),
                            r(&mut rng),
                            r(&mut rng)
                        ));
                    } else {
                        src.push_str(&format!("    {op} {}, {}\n", r(&mut rng), r(&mut rng)));
                    }
                }
            }
            if let Some((l, left)) = skip {
                if left == 1 {
                    src.push_str(&format!("skip{l}:\n"));
                    skip = None;
                } else {
                    skip = Some((l, left - 1));
                }
            }
        }
        if let Some((l, _)) = skip {
            src.push_str(&format!("skip{l}:\n"));
        }
        src.push_str("    addi t6, t6, -1\n    bnez t6, loop\n");
        if rng.chance(0.2) {
            // A trapping tail: the run must end with the identical
            // breakpoint trap (and identical state) in every mode.
            src.push_str("    ebreak\n");
        }
        // Checksum the register pool into the exit code (mod 256 keeps the
        // exit value readable; equality is asserted on full state anyway).
        src.push_str("    xor a0, a0, a1\n    xor a0, a0, s2\n");
        src.push_str("    andi a0, a0, 255\n    li a7, 93\n    ecall\n");
        src
    }
}

/// The cache actually engages on these workloads (hits dominate after the
/// first iteration of any loop) — guards against a silently disabled cache
/// making the equality tests above vacuous.
#[test]
fn cache_counters_engage() {
    let bin = hetero::fib_task(10, 3);
    let (mut cpu, mut mem) = chimera_emu::boot(&bin, ExtSet::RV64GCV);
    assert_eq!(
        cpu.mode(),
        ExecMode::Engine,
        "the engine must be the default"
    );
    let _ = chimera_emu::run_cpu(&mut cpu, &mut mem, FUEL).unwrap();
    let s = cpu.cache.stats;
    assert!(s.blocks_built > 0, "no blocks built: {s:?}");
    assert!(s.misses >= s.blocks_built, "{s:?}");
    // Under the engine front end, loop re-entries are either dispatcher
    // hits or jump-cache entries; together they must dominate the misses.
    assert!(
        s.hits + s.chained > s.misses,
        "loopy code must be re-entry-dominated: {s:?}"
    );
}

/// Yield-point transparency: a run chopped into **1-instruction fuel
/// slices**, with the suspended run forcibly migrated to a fresh OS
/// thread every few slices, observes exactly like the unsliced run — in
/// all four execution modes. This is the contract the many-hart fiber
/// kernel stands on: every `Cpu::run` return is a clean suspension point
/// (batched counters drained, no host-thread residue), so a fiber may
/// resume anywhere, any number of times, without any observable effect.
#[test]
fn slicing_and_forced_migration_are_transparent_in_every_mode() {
    use chimera_testutil::observe_mode_sliced;

    let zoo = [
        ("hetero:matrix".to_string(), hetero::matrix_task(8, 2, true)),
        ("hetero:fib".to_string(), hetero::fib_task(12, 2)),
        (
            "blas:sgemv".into(),
            blas::gemv(4, 3, 1, 2, Precision::Single, true),
        ),
    ];
    for (name, bin) in zoo {
        let m = run_all_modes(&bin, bin.profile, FUEL);
        let columns = [
            (ExecMode::Reference, &m.reference.0),
            (ExecMode::Interpreter, &m.interpreter.0),
            (ExecMode::Engine, &m.engine.0),
            (ExecMode::Jit, &m.jit.0),
        ];
        for (mode, unsliced) in columns {
            // The torture slicing: one instruction per slice, hop to a
            // new OS thread every 64 slices.
            let tortured = observe_mode_sliced(&bin, bin.profile, mode, FUEL, 1, 64);
            assert_eq!(
                &tortured, unsliced,
                "{name} ({mode:?}): 1-instruction slicing diverged"
            );
            // A mid-size odd slice with frequent hops, to catch anything
            // only triggered by multi-instruction partial slices.
            let mid = observe_mode_sliced(&bin, bin.profile, mode, FUEL, 97, 3);
            assert_eq!(
                &mid, unsliced,
                "{name} ({mode:?}): 97-instruction slicing diverged"
            );
        }
    }
}
