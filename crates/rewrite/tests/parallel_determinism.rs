//! Parallel-rewrite determinism and engine conformance.
//!
//! The pass pipeline's contract is that the worker count is invisible in
//! the output: `transform`/`place` fan out over rewrite units, but the
//! plan stage fixed every unit's address beforehand, so 1, 2, 4 and 8
//! workers must produce **bit-identical** binaries, [`FaultTable`]s,
//! [`RewriteStats`] and regeneration metadata. This suite pins that
//! contract over the workload zoo for every engine behind the
//! [`RewriteEngine`] trait, and then checks *conformance*: each engine —
//! standing in for a `SystemKind` of the §6.1 comparison — still passes
//! the differential behaviour check (rewritten-on-base ≡ native-on-ext)
//! when dispatched through the shared pipeline.
//!
//! Engine ↔ system map: [`IdentityEngine`] is FAM/MELF (no rewriting),
//! [`ChbpEngine`] is Chimera, [`ChbpEngine`] with
//! [`RewriteOptions::force_trap_entries`] is the §6.2 strawman, and
//! [`RegenEngine`] covers the Safer and ARMore regeneration baselines.
//!
//! A final test pins the lazy/static sharing required by the ISSUE: the
//! kernel's fault-time `lazy_rewrite` uses the pipeline's
//! `emit_site_translation` primitive, so lazily built blocks are byte-
//! identical to what the static transform stage would emit at the same
//! address.

use chimera_isa::{Ext, ExtSet, Inst};
use chimera_kernel::RuntimeTables;
use chimera_obj::Binary;
use chimera_rewrite::emitter::BlockEmitter;
use chimera_rewrite::translate::Translator;
use chimera_rewrite::{
    emit_site_translation, run, ChbpEngine, Flavor, IdentityEngine, Mode, RegenEngine, RegenInfo,
    RewriteOptions, Rewritten, UpgradeEngine,
};
use chimera_testutil::{native_reference, run_under_kernel, scalar_loops, KernelRun};
use chimera_trace::Tracer;
use chimera_workloads::hetero;
use chimera_workloads::speclike::{generate, GenOptions, APP_PROFILES, SPEC_PROFILES};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// A zoo slice sized for exhaustive × worker-count × engine sweeps:
/// two SPEC-like programs (one scaled up enough to split into many
/// units/spans), one application profile, and the hand-written hetero
/// tasks whose vector loops exercise SMILE placement.
fn zoo() -> Vec<(String, Binary)> {
    let mut v: Vec<(String, Binary)> = Vec::new();
    for (name, scale) in [("omnetpp_r", 1.0 / 64.0), ("gcc_r", 1.0 / 512.0)] {
        let p = SPEC_PROFILES.iter().find(|p| p.name == name).unwrap();
        v.push((
            format!("spec:{name}"),
            generate(
                p,
                GenOptions {
                    size_scale: scale,
                    work_scale: 0.25,
                    seed: 7,
                },
            ),
        ));
    }
    let app = &APP_PROFILES[0];
    v.push((
        format!("app:{}", app.name),
        generate(
            app,
            GenOptions {
                size_scale: 1.0 / 512.0,
                work_scale: 0.25,
                seed: 8,
            },
        ),
    ));
    v.push(("hetero:matrix".into(), hetero::matrix_task(8, 2, true)));
    v.push(("hetero:fib".into(), hetero::fib_task(12, 2)));
    v
}

fn chbp(bin: &Binary, opts: RewriteOptions, workers: usize) -> Rewritten {
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts,
    };
    run(&engine, bin, workers, &Tracer::disabled())
        .unwrap()
        .rewritten
}

fn regen(bin: &Binary, flavor: Flavor, workers: usize) -> (Rewritten, RegenInfo) {
    let engine = RegenEngine {
        target: ExtSet::RV64GC,
        mode: Mode::Downgrade,
        flavor,
    };
    let r = run(&engine, bin, workers, &Tracer::disabled()).unwrap();
    (r.rewritten, r.regen.unwrap_or_default())
}

/// Worker count must be invisible: CHBP (both modes) and the strawman.
#[test]
fn chbp_bit_identical_across_worker_counts() {
    let configs = [
        (
            "downgrade",
            RewriteOptions {
                mode: Mode::Downgrade,
                ..Default::default()
            },
        ),
        (
            "empty-patch",
            RewriteOptions {
                mode: Mode::EmptyPatch(Ext::V),
                ..Default::default()
            },
        ),
        (
            "strawman",
            RewriteOptions {
                mode: Mode::Downgrade,
                force_trap_entries: true,
                ..Default::default()
            },
        ),
    ];
    for (name, bin) in zoo() {
        for (cfg, opts) in &configs {
            let baseline = chbp(&bin, *opts, 1);
            for workers in &WORKERS[1..] {
                let rw = chbp(&bin, *opts, *workers);
                assert_eq!(
                    rw, baseline,
                    "{name} [{cfg}]: {workers}-worker output diverges from sequential"
                );
            }
        }
    }
}

/// Same contract for both regeneration flavors, including the Safer
/// slow-trap metadata ([`chimera_rewrite::RegenInfo`]).
#[test]
fn regen_bit_identical_across_worker_counts() {
    for (name, bin) in zoo() {
        for flavor in [Flavor::Safer, Flavor::Armore] {
            let baseline = regen(&bin, flavor, 1);
            for workers in &WORKERS[1..] {
                let rg = regen(&bin, flavor, *workers);
                assert_eq!(
                    rg, baseline,
                    "{name} [{flavor:?}]: {workers}-worker output diverges from sequential"
                );
            }
        }
    }
}

/// The upgrade vectorizer gets the same contract from the shared driver.
/// 24 loops: enough units for the sizing and transform fan-outs to spawn
/// workers, a third of them constrained (padding) and a quarter left
/// scalar (P2 beyond the default `max_padding`), so later addresses depend
/// on earlier sizes, padding and skips. The upgraded program must also
/// still behave like its input.
#[test]
fn upgrade_bit_identical_across_worker_counts() {
    let programs = [
        ("loops:24".to_string(), scalar_loops(24)),
        ("hetero:matrix".into(), hetero::matrix_task(16, 2, false)),
    ];
    for (name, bin) in programs {
        let engine = UpgradeEngine {
            opts: RewriteOptions::default(),
        };
        let baseline = run(&engine, &bin, 1, &Tracer::disabled()).unwrap();
        assert!(baseline.regen.is_none());
        let stats = baseline.rewritten.stats;
        assert!(stats.smile_trampolines > 0, "{name}: nothing vectorized");
        if name == "loops:24" {
            assert_eq!(stats.smile_trampolines, 18, "{name}: P2 loops stay scalar");
            assert_eq!(stats.constrained_smiles, 6);
            assert!(stats.padding_bytes > 0);
        }
        for workers in &WORKERS[1..] {
            let rw = run(&engine, &bin, *workers, &Tracer::disabled()).unwrap();
            assert_eq!(
                rw.rewritten, baseline.rewritten,
                "{name} [upgrade]: {workers}-worker output diverges from sequential"
            );
        }
        let tables = RuntimeTables {
            fht: Some(baseline.rewritten.fht),
            regen: None,
        };
        let kr = run_under_kernel(baseline.rewritten.binary, tables, ExtSet::RV64GCV, true);
        assert_eq!(
            (kr.exit_code, kr.stdout),
            native_reference(&bin),
            "{name} [upgrade] diverged from native"
        );
    }
}

/// Every engine behind the trait — one per `SystemKind` of the §6.1
/// comparison — passes the differential behaviour check through the
/// shared pipeline: rewritten-on-RV64GC ≡ native-on-RV64GCV.
#[test]
fn every_engine_passes_differential_check() {
    for (name, bin) in zoo() {
        let expected = native_reference(&bin);

        // FAM / MELF: the identity engine must hand the input through
        // unchanged (their "rewrite" is running a native binary as-is).
        let id = run(&IdentityEngine, &bin, 4, &Tracer::disabled()).unwrap();
        assert_eq!(
            id.rewritten.binary, bin,
            "{name}: identity must not rewrite"
        );
        assert!(id.regen.is_none(), "{name}: identity carries no tables");

        // Chimera (CHBP) and the strawman: patched binary + fault tables,
        // recovered by the kernel's passive handler on the base core.
        for force_trap in [false, true] {
            let sys = if force_trap { "strawman" } else { "chbp" };
            let rw = chbp(
                &bin,
                RewriteOptions {
                    mode: Mode::Downgrade,
                    force_trap_entries: force_trap,
                    ..Default::default()
                },
                4,
            );
            let tables = RuntimeTables {
                fht: Some(rw.fht),
                regen: None,
            };
            let kr = run_under_kernel(rw.binary, tables, ExtSet::RV64GC, true);
            assert_eq!(
                (kr.exit_code, kr.stdout),
                expected,
                "{name} [{sys}] diverged from native"
            );
        }

        // Safer / ARMore regeneration: relocated binary + redirect map
        // (and Safer's slow-trap table), run through the same kernel.
        for flavor in [Flavor::Safer, Flavor::Armore] {
            let (rw, info) = regen(&bin, flavor, 4);
            let tables = RuntimeTables {
                fht: Some(rw.fht),
                regen: Some(info),
            };
            let kr = run_under_kernel(rw.binary, tables, ExtSet::RV64GC, true);
            assert_eq!(
                (kr.exit_code, kr.stdout),
                expected,
                "{name} [{flavor:?}] diverged from native"
            );
        }
    }
}

/// The engine dispatch itself is worker-invisible too: running a boxed
/// engine through [`run`] (as `chimera::prepare_process` does) matches
/// the typed entry points bit for bit.
#[test]
fn boxed_engine_dispatch_matches_typed_entry_points() {
    let bin = hetero::matrix_task(8, 2, true);
    let opts = RewriteOptions::default();
    let direct = chbp(&bin, opts, 4);
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts,
    };
    let via_trait = run(&engine, &bin, 4, &Tracer::disabled()).unwrap();
    assert_eq!(via_trait.rewritten, direct);

    let engine = RegenEngine {
        target: ExtSet::RV64GC,
        mode: Mode::Downgrade,
        flavor: Flavor::Safer,
    };
    let via_trait = run(&engine, &bin, 4, &Tracer::disabled()).unwrap();
    let (direct, info) = regen(&bin, Flavor::Safer, 4);
    assert_eq!(via_trait.rewritten, direct);
    assert_eq!(via_trait.regen.unwrap_or_default(), info);
}

/// Lazy/static convergence: an `EmptyPatch`-rewritten vector program run
/// on a base core makes the kernel lazily translate each vector site at
/// fault time. Behaviour must match native, and — because `lazy_rewrite`
/// calls the pipeline's own `emit_site_translation` — the lazily built
/// blocks in memory must be byte-identical to a static re-emission of
/// the same sites at the same addresses.
#[test]
fn lazy_blocks_match_static_translation() {
    // Straight-line vector code: each vector instruction executes exactly
    // once, so lazy blocks are appended in program order of the sites.
    let src = "
        .data
        a: .dword 1
           .dword 2
           .dword 3
           .dword 4
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            vle64.v v1, (a0)
            vmv.v.i v2, 0
            vredsum.vs v3, v1, v2
            vmv.x.s a0, v3
            li a7, 93
            ecall
    ";
    let bin = chimera_obj::assemble(src, chimera_obj::AsmOptions::default()).unwrap();
    let expected = native_reference(&bin);
    assert_eq!(expected.0, 10, "vector sum exits 10");

    // EmptyPatch(V) keeps the vector instructions verbatim in the target
    // section; on RV64GC each one faults and is rewritten lazily.
    let rw = chbp(
        &bin,
        RewriteOptions {
            mode: Mode::EmptyPatch(Ext::V),
            ..Default::default()
        },
        1,
    );
    let fht = rw.fht.clone();
    let tables = RuntimeTables {
        fht: Some(rw.fht),
        regen: None,
    };
    let KernelRun {
        exit_code,
        stdout,
        kernel: k,
        mut mem,
        ..
    } = run_under_kernel(rw.binary, tables, ExtSet::RV64GC, true);
    assert_eq!(
        (exit_code, stdout),
        expected,
        "lazy-rewritten run diverged from native"
    );
    let sites: Vec<Inst> = chimera_analysis::disassemble(&bin)
        .iter()
        .filter(|di| !di.inst.runnable_on(ExtSet::RV64GC))
        .map(|di| di.inst)
        .collect();
    assert!(sites.len() >= 4, "zoo program must have several sites");
    assert_eq!(
        k.counters.lazy_rewrites,
        sites.len() as u64,
        "each site is rewritten exactly once"
    );

    // Re-emit every site statically (lazy blocks grow from the end of the
    // target section, in program order) and compare against what the
    // kernel actually wrote.
    let mut expected_bytes = Vec::new();
    for inst in &sites {
        let translator = Translator::new(fht.spill_base, fht.abi_gp);
        let mut em = BlockEmitter::new();
        emit_site_translation(inst, Mode::Downgrade, &translator, &mut em)
            .expect("site is translatable");
        em.inst(Inst::Ebreak);
        expected_bytes.extend(em.finish().unwrap());
    }
    let lazy_bytes = mem
        .peek(fht.target_range.1, expected_bytes.len())
        .expect("lazy blocks are mapped");
    assert_eq!(
        lazy_bytes, expected_bytes,
        "lazily built blocks must be byte-identical to static translation"
    );
}
