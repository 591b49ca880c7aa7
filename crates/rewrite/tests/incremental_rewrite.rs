//! Property tests for incremental re-rewriting.
//!
//! The incremental driver's contract: for any sequence of runtime code
//! mutations — SMC pokes, lazy `ebreak` patches, unmap/remap cycles —
//! reported as the spans `mutate_image` returns, an incremental
//! re-rewrite produces output **bit-identical** to a from-scratch full
//! rewrite of the (immutable) input binary, for every engine and every
//! worker count. The dirty set decides how much work is saved, never
//! what the output is.
//!
//! Also pinned here: the validation-stamp idempotence (re-presenting a
//! consumed dirty report redoes zero units), the stale-cache rebuild
//! fallback (different input ⇒ full re-prime, never a stale result), and
//! the zero-patch-site regression for the fixed
//! `.section(...).unwrap()` panics in the CHBP and upgrade linkers.

use chimera_isa::prng::Prng;
use chimera_isa::ExtSet;
use chimera_obj::Binary;
use chimera_rewrite::{
    ebreak_patch, run, run_cached, run_incremental, upgrade_rewrite, ChbpEngine, DirtySpan, Mode,
    RewriteEngine, RewriteOptions, UpgradeEngine,
};
use chimera_testutil::{engines, load_image, mutate_image, run_under_kernel, scalar_loops};
use chimera_trace::{TraceEvent, Tracer};

const FUEL: u64 = u64::MAX / 2;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn zoo() -> Vec<(String, Binary)> {
    let p = chimera_workloads::speclike::SPEC_PROFILES
        .iter()
        .find(|p| p.name == "omnetpp_r")
        .unwrap();
    vec![
        (
            "spec:omnetpp_r".into(),
            chimera_workloads::speclike::generate(
                p,
                chimera_workloads::speclike::GenOptions {
                    size_scale: 1.0 / 64.0,
                    work_scale: 0.25,
                    seed: 7,
                },
            ),
        ),
        (
            "hetero:matrix".into(),
            chimera_workloads::hetero::matrix_task(8, 2, true),
        ),
    ]
}

/// Drains `tracer` and returns the sole `RewriteIncremental` payload.
fn incremental_event(tracer: &Tracer) -> (u64, u64) {
    let events: Vec<(u64, u64)> = tracer
        .drain()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::RewriteIncremental {
                units_total,
                units_redone,
                ..
            } => Some((units_total, units_redone)),
            _ => None,
        })
        .collect();
    assert_eq!(events.len(), 1, "exactly one RewriteIncremental per run");
    events[0]
}

/// The core property: random invalidation sequences never change the
/// output — incremental == full rewrite, bit for bit, for every engine ×
/// worker count — and the reuse counters always reconcile with the unit
/// total.
#[test]
fn incremental_matches_full_rewrite_under_random_invalidation() {
    for (bin_name, bin) in zoo() {
        for (eng_name, engine) in engines() {
            assert_incremental_matches_full(&bin_name, &bin, eng_name, engine.as_ref());
        }
    }
}

/// The same property for the upgrade vectorizer, which gets incremental
/// refresh from the shared driver: 24 loops, some placed behind padding
/// and some left scalar (cached as empty artifacts).
#[test]
fn upgrade_incremental_matches_full_rewrite_under_random_invalidation() {
    let engine = UpgradeEngine {
        opts: RewriteOptions::default(),
    };
    assert_incremental_matches_full("loops:24", &scalar_loops(24), "upgrade", &engine);
}

fn assert_incremental_matches_full(
    bin_name: &str,
    bin: &Binary,
    eng_name: &str,
    engine: &dyn RewriteEngine,
) {
    let full = run(engine, bin, 4, &Tracer::disabled()).unwrap();
    for workers in WORKERS {
        let (primed, mut cache) = run_cached(engine, bin, workers, &Tracer::disabled()).unwrap();
        assert_eq!(
            primed.rewritten, full.rewritten,
            "{bin_name} [{eng_name}]: cached run diverges from plain run"
        );

        let (mut mem, text_start, text_end) = load_image(&primed.rewritten.binary);
        let mut rng = Prng::new(0x9e37_79b9 ^ (workers as u64) << 32 ^ bin.entry);
        for round in 0..6 {
            let dirty: Vec<DirtySpan> = (0..=rng.below(2))
                .map(|_| mutate_image(&mut mem, &mut rng, text_start, text_end))
                .collect();

            let tracer = Tracer::enabled();
            let inc = run_incremental(engine, bin, &mut cache, &dirty, workers, &tracer).unwrap();
            assert_eq!(
                inc.rewritten, full.rewritten,
                "{bin_name} [{eng_name}] w={workers} round {round}: \
                 incremental output diverged from full rewrite"
            );
            assert_eq!(
                inc.regen.unwrap_or_default(),
                full.regen.clone().unwrap_or_default(),
                "{bin_name} [{eng_name}] w={workers} round {round}: regen info diverged"
            );

            let (total, redone) = incremental_event(&tracer);
            assert_eq!(total, cache.unit_count() as u64);
            let m = tracer.metrics().expect("enabled tracer has metrics");
            let reused = m.counter_value("rewrite.units_reused").unwrap_or(0);
            let counted_redone = m.counter_value("rewrite.units_redone").unwrap_or(0);
            assert_eq!(
                reused + counted_redone,
                total,
                "{bin_name} [{eng_name}]: reuse counters must reconcile"
            );
            assert_eq!(counted_redone, redone);
        }
    }
}

/// Validation stamps make dirty reports idempotent: a consumed report
/// presented again redoes zero units (and still yields the full output).
#[test]
fn consumed_dirty_reports_are_idempotent() {
    let bin = chimera_workloads::hetero::matrix_task(8, 2, true);
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    };
    let (primed, mut cache) = run_cached(&engine, &bin, 2, &Tracer::disabled()).unwrap();
    let (mut mem, _, _) = load_image(&primed.rewritten.binary);
    // Poke a trampoline head: guaranteed to lie inside a unit's source
    // range, so exactly that unit goes dirty.
    let site = *primed
        .rewritten
        .fht
        .trampolines
        .iter()
        .next()
        .expect("matrix task has patch sites");
    mem.poke_code(site, &ebreak_patch(4)).unwrap();
    let dirty = [DirtySpan {
        start: site,
        end: site + 4,
        generation: mem.code_fingerprint(site).unwrap().1,
    }];

    let tracer = Tracer::enabled();
    let first = run_incremental(&engine, &bin, &mut cache, &dirty, 2, &tracer).unwrap();
    let (_, redone_first) = incremental_event(&tracer);
    assert!(redone_first >= 1, "the poked unit must be redone");
    assert_eq!(first.rewritten, primed.rewritten);

    let tracer = Tracer::enabled();
    let second = run_incremental(&engine, &bin, &mut cache, &dirty, 2, &tracer).unwrap();
    let (_, redone_second) = incremental_event(&tracer);
    assert_eq!(redone_second, 0, "a consumed report is a no-op");
    assert_eq!(second.rewritten, primed.rewritten);
}

/// A cache primed for a different input (or engine) is never silently
/// reused: the driver re-primes it with a full run, so the caller still
/// gets the right output — with every unit counted as redone.
#[test]
fn stale_cache_triggers_full_reprime() {
    let bin_a = chimera_workloads::hetero::matrix_task(8, 2, true);
    let bin_b = chimera_workloads::hetero::fib_task(12, 2);
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    };
    let (_, mut cache) = run_cached(&engine, &bin_a, 2, &Tracer::disabled()).unwrap();

    let tracer = Tracer::enabled();
    let inc = run_incremental(&engine, &bin_b, &mut cache, &[], 2, &tracer).unwrap();
    let full = run(&engine, &bin_b, 2, &Tracer::disabled()).unwrap();
    assert_eq!(inc.rewritten, full.rewritten, "re-primed output is correct");
    let (total, redone) = incremental_event(&tracer);
    assert_eq!(redone, total, "a rebuild redoes every unit");

    // The cache now serves the new input incrementally.
    let tracer = Tracer::enabled();
    let again = run_incremental(&engine, &bin_b, &mut cache, &[], 2, &tracer).unwrap();
    assert_eq!(again.rewritten, full.rewritten);
    let (_, redone) = incremental_event(&tracer);
    assert_eq!(redone, 0);
}

/// Regression: the staleness test used to compare engine *names* only,
/// and both configurations below are `"chbp"` — a cache primed by the
/// downgrading engine served its artifacts to the empty-patching one.
/// Another engine's parameters are another rewrite: re-prime.
#[test]
fn foreign_parameter_cache_triggers_full_reprime() {
    let bin = chimera_workloads::hetero::matrix_task(8, 2, true);
    let downgrade = ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    };
    let empty_patch = ChbpEngine {
        target: ExtSet::RV64GCV,
        opts: RewriteOptions {
            mode: Mode::EmptyPatch(chimera_isa::Ext::V),
            ..Default::default()
        },
    };
    let (_, mut cache) = run_cached(&downgrade, &bin, 2, &Tracer::disabled()).unwrap();

    let tracer = Tracer::enabled();
    let inc = run_incremental(&empty_patch, &bin, &mut cache, &[], 2, &tracer).unwrap();
    let full = run(&empty_patch, &bin, 2, &Tracer::disabled()).unwrap();
    assert_eq!(inc.rewritten, full.rewritten, "re-primed output is correct");
    let (total, redone) = incremental_event(&tracer);
    assert_eq!(redone, total, "a rebuild redoes every unit");

    // The cache now belongs to the empty-patching engine.
    let tracer = Tracer::enabled();
    let again = run_incremental(&empty_patch, &bin, &mut cache, &[], 2, &tracer).unwrap();
    assert_eq!(again.rewritten, full.rewritten);
    assert_eq!(incremental_event(&tracer).1, 0);
}

/// Differential behaviour: after an invalidation sequence, the refreshed
/// variant still runs correctly under the kernel — the same `RunResult`
/// as the native binary on the extension profile.
#[test]
fn refreshed_variant_matches_native_behaviour() {
    for (bin_name, bin) in zoo() {
        let r = chimera_emu::run_binary_on(&bin, ExtSet::RV64GCV, FUEL).unwrap();
        let expected = (r.exit_code, r.stdout);
        for (eng_name, engine) in engines() {
            if eng_name == "identity" {
                continue; // Needs the extension profile; nothing to refresh.
            }
            let (primed, mut cache) =
                run_cached(engine.as_ref(), &bin, 4, &Tracer::disabled()).unwrap();
            let (mut mem, text_start, text_end) = load_image(&primed.rewritten.binary);
            let mut rng = Prng::new(0xfeed_beef ^ bin.entry);
            let dirty: Vec<DirtySpan> = (0..4)
                .map(|_| mutate_image(&mut mem, &mut rng, text_start, text_end))
                .collect();
            let refreshed = run_incremental(
                engine.as_ref(),
                &bin,
                &mut cache,
                &dirty,
                4,
                &Tracer::disabled(),
            )
            .unwrap();

            let tables = chimera_kernel::RuntimeTables {
                fht: Some(refreshed.rewritten.fht.clone()),
                regen: refreshed.regen.clone(),
            };
            let kr = run_under_kernel(
                refreshed.rewritten.binary.clone(),
                tables,
                ExtSet::RV64GC,
                chimera_emu::ExecMode::Engine,
            );
            assert_eq!(
                (kr.exit_code, kr.stdout),
                expected,
                "{bin_name} [{eng_name}]: refreshed variant diverged from native"
            );
        }
    }
}

/// Regression for the fixed `.section(".chimera.text").unwrap()` panic:
/// a binary with zero patch sites takes the empty-target-section path in
/// the CHBP linker and must come back `Ok` with a well-formed
/// (placeholder-sized) target range.
#[test]
fn zero_patch_sites_link_without_panicking() {
    // Pure base-ISA program: no source instructions for a RV64GC target.
    let bin = chimera_workloads::hetero::fib_task(6, 1);
    for force_trap in [false, true] {
        let engine = ChbpEngine {
            target: ExtSet::RV64GCV,
            opts: RewriteOptions {
                force_trap_entries: force_trap,
                ..Default::default()
            },
        };
        let r = run(&engine, &bin, 2, &Tracer::disabled()).unwrap();
        assert_eq!(r.rewritten.stats.source_insts, 0, "no sites expected");
        let (lo, hi) = r.rewritten.fht.target_range;
        assert_eq!(hi - lo, 16, "placeholder target section spans 16 bytes");
        assert!(
            r.rewritten.binary.section(".chimera.text").is_some(),
            "placeholder section is attached"
        );
    }
}

/// Same regression for the upgrade path: a program with no vector loops
/// to upgrade must link its placeholder target section without panicking.
#[test]
fn upgrade_with_no_vector_loops_links_cleanly() {
    let bin = chimera_workloads::hetero::fib_task(6, 1);
    let r = upgrade_rewrite(&bin, RewriteOptions::default())
        .expect("upgrade with nothing to do succeeds");
    assert_eq!(r.stats.smile_trampolines, 0);
    let (lo, hi) = r.fht.target_range;
    assert_eq!(hi - lo, 16, "placeholder target section spans 16 bytes");
}
