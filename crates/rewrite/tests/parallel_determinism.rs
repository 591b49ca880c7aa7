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
//! A final test pins the lazy/static sharing: the kernel's fault-time
//! `lazy_rewrite` asks the rewriter for the block of a lone site, so a
//! lazily built block is byte-identical to the unit the static pipeline
//! emits for the same instruction, placed at the same address.

use chimera_emu::ExecMode;
use chimera_isa::{Ext, ExtSet};
use chimera_kernel::RuntimeTables;
use chimera_obj::Binary;
use chimera_rewrite::{
    run, ChbpEngine, Entry, FaultTable, Flavor, Frame, IdentityEngine, Mode, RegenEngine,
    RegenInfo, RewriteEngine, RewriteOptions, Rewritten, UpgradeEngine,
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
/// workers, given room for the P2 windows so a quarter of them land behind
/// padding, and half (the f64 dots and the f64 maps) left scalar, so later
/// addresses depend on earlier sizes, padding and skips. The upgraded program must
/// also still behave like its input.
#[test]
fn upgrade_bit_identical_across_worker_counts() {
    let programs = [
        ("loops:24".to_string(), scalar_loops(24)),
        ("hetero:matrix".into(), hetero::matrix_task(16, 2, false)),
    ];
    for (name, bin) in programs {
        let engine = UpgradeEngine {
            opts: RewriteOptions {
                max_padding: 4 << 20,
                ..RewriteOptions::default()
            },
        };
        let baseline = run(&engine, &bin, 1, &Tracer::disabled()).unwrap();
        assert!(baseline.regen.is_none());
        let stats = baseline.rewritten.stats;
        assert!(stats.smile_trampolines > 0, "{name}: nothing vectorized");
        if name == "loops:24" {
            assert_eq!(stats.smile_trampolines, 12, "{name}: f64 loops stay scalar");
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
        let kr = run_under_kernel(
            baseline.rewritten.binary,
            tables,
            ExtSet::RV64GCV,
            ExecMode::Engine,
        );
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
            let kr = run_under_kernel(rw.binary, tables, ExtSet::RV64GC, ExecMode::Engine);
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
            let kr = run_under_kernel(rw.binary, tables, ExtSet::RV64GC, ExecMode::Engine);
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

/// Lazy/static convergence: the block the kernel builds for an instruction
/// at fault time *is* the block the static pipeline builds for that
/// instruction as a lone site, exit slot included. Three vector
/// instructions, each followed by a 2-byte `ret` (no 8-byte space: a lone
/// site), are reachable only through a table of code pointers. With the
/// pointers stored doubled the static pass never sees them and the kernel
/// rewrites each lazily; with the pointers visible the same text scans
/// into three lone-site units. Placed where the kernel put its blocks,
/// those units must be the bytes in memory.
#[test]
fn lazy_blocks_match_static_translation() {
    let src = "
        .data
        a: .dword 1
           .dword 2
           .dword 3
           .dword 4
        vtab: .dword trig0
              .dword trig1
              .dword trig2
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            vle64.v v1, (a0)
            la s3, vtab
            li s5, 0
        next:
            slli t1, s5, 3
            add t1, t1, s3
            ld t2, 0(t1)
            srli t2, t2, 1
            jalr t2
            addi s5, s5, 1
            li t3, 3
            bne s5, t3, next
            vmv.x.s a0, v3
            li a7, 93
            ecall
        hang:
            j hang
        trig0:
            vmv.v.i v2, 0
            ret
        trig1:
            vredsum.vs v3, v1, v2
            ret
        trig2:
            vadd.vv v3, v3, v3
            ret
    ";
    let options = chimera_obj::AsmOptions {
        compress: true,
        ..Default::default()
    };
    let visible = chimera_obj::assemble(src, options).unwrap();
    // The program that runs: every pointer doubled, halved again by the
    // `srli` before the call.
    let mut hidden = visible.clone();
    let vtab = hidden.section(".data").unwrap().addr + 32;
    let sites: Vec<u64> = (0..3)
        .map(|i| {
            let at = vtab + 8 * i;
            let site = u64::from_le_bytes(hidden.read(at, 8).unwrap().try_into().unwrap());
            assert!(hidden.write(at, &(2 * site).to_le_bytes()));
            site
        })
        .collect();
    let expected = native_reference(&hidden);
    assert_eq!(expected.0, 20, "2 * (1 + 2 + 3 + 4)");

    let opts = RewriteOptions::default();
    let rw = chbp(&hidden, opts, 1);
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
    } = run_under_kernel(rw.binary, tables, ExtSet::RV64GC, ExecMode::Engine);
    assert_eq!((exit_code, stdout), expected, "diverged from native");
    assert_eq!(k.counters.lazy_rewrites, 3, "each site exactly once");
    // One kernel entry per execution of a lazily rewritten instruction —
    // the trap into its block; the block leaves through a `jal`.
    assert_eq!(k.counters.trap_trampolines, 3);

    // The same text with its pointers visible: three lone-site units.
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts,
    };
    let frame = Frame {
        spill_base: fht.spill_base,
        abi_gp: fht.abi_gp,
        target_base: fht.target_range.0,
    };
    let scanned = engine.scan(&visible, frame, 1).unwrap();
    // Lazy blocks grow from the end of the target section, in the order
    // the sites first ran.
    let mut at = fht.target_range.1;
    for site in sites {
        let idx = scanned
            .ranges
            .iter()
            .position(|&range| range == (site, site + 4))
            .expect("the site is a unit of its own");
        let entry = scanned.units.place(idx, at).unwrap().unwrap().entry;
        assert!(matches!(entry, Entry::Trap { .. }), "{entry:?}");
        let mut placed = Vec::new();
        let (mut table, mut stats) = Default::default();
        let unit = scanned.units.emit(idx).unwrap();
        unit.place_at(at, &mut placed, &mut table, &mut stats)
            .unwrap();
        assert_eq!(stats.exit_jumps, 1, "one exit slot, a jal in range");
        assert_eq!(table, FaultTable::default());
        assert_eq!(
            mem.peek(at, placed.len()).expect("lazy blocks are mapped"),
            placed,
            "the lazy block for {site:#x} is not the static lone-site unit"
        );
        at += placed.len() as u64;
    }
}
