//! Isolation regression tests for the cross-process variant cache.
//!
//! The contract under test: the shared entry behind a
//! [`SharedVariantCache`] checkout is immutable. A process that
//! self-modifies its image re-rewrites through its own lazily cloned
//! per-unit cache — its validation stamps are private state — so one
//! holder's SMC pokes can never invalidate another holder's clean units,
//! and the untouched holder's execution stays bit-identical.

use chimera_isa::ExtSet;
use chimera_rewrite::{
    ebreak_patch, run, run_incremental, ChbpEngine, DirtySpan, Mode, RewriteOptions,
    SharedVariantCache,
};
use chimera_testutil::{load_image, run_under_kernel};
use chimera_trace::{TraceEvent, Tracer};

fn engine() -> ChbpEngine {
    ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    }
}

fn kernel_obs(handle: &chimera_rewrite::VariantHandle) -> (i64, Vec<u8>) {
    let tables = chimera_kernel::RuntimeTables {
        fht: Some(handle.rewritten().fht.clone()),
        regen: handle.regen().cloned(),
    };
    let r = run_under_kernel(
        handle.rewritten().binary.clone(),
        tables,
        ExtSet::RV64GC,
        chimera_emu::ExecMode::Engine,
    );
    (r.exit_code, r.stdout)
}

/// Drains `tracer` and returns every `RewriteIncremental` payload.
fn incremental_events(tracer: &Tracer) -> Vec<(u64, u64)> {
    tracer
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
        .collect()
}

#[test]
fn smc_in_one_process_never_invalidates_another() {
    let bin = chimera_workloads::hetero::matrix_task(8, 2, true);
    let engine = engine();
    let shared = SharedVariantCache::new();
    let tracer = Tracer::enabled();

    // Process A pays the rewrite; process B checks the same content out
    // warm.
    let mut a = shared.checkout(&engine, &bin, 0, 2, &tracer).unwrap();
    let mut b = shared.checkout(&engine, &bin, 0, 2, &tracer).unwrap();
    assert!(!a.shared_hit && b.shared_hit);
    assert_eq!(a.key(), b.key());
    assert_eq!(a.rewritten(), b.rewritten(), "one shared variant");
    let b_before = kernel_obs(&b);

    // A self-modifies: poke a trampoline head in its image and re-rewrite
    // incrementally through its private cache clone.
    let (mut mem, _, _) = load_image(&a.rewritten().binary);
    let site = *a
        .rewritten()
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

    let a_tracer = Tracer::enabled();
    let refreshed = run_incremental(&engine, &bin, a.cache_mut(), &dirty, 2, &a_tracer).unwrap();
    assert!(a.has_private_cache(), "A privatized its cache");
    let a_events = incremental_events(&a_tracer);
    assert_eq!(a_events.len(), 1);
    assert!(a_events[0].1 >= 1, "the poked unit was redone in A");
    assert_eq!(
        refreshed.rewritten,
        *a.rewritten(),
        "incremental refresh reproduces the shared output bit-for-bit"
    );

    // B never privatized — it still reads purely shared, immutable state —
    // and an incremental pass over B's (lazily cloned) cache redoes zero
    // units: A's invalidation stamps never reached it.
    assert!(!b.has_private_cache(), "B still reads shared state");
    let b_tracer = Tracer::enabled();
    let b_out = run_incremental(&engine, &bin, b.cache_mut(), &[], 2, &b_tracer).unwrap();
    let b_events = incremental_events(&b_tracer);
    assert_eq!(b_events.len(), 1);
    assert_eq!(b_events[0].1, 0, "none of B's units were invalidated by A");
    assert_eq!(b_out.rewritten, *b.rewritten());

    // B's execution is bit-identical before and after A's poke.
    assert_eq!(kernel_obs(&b), b_before, "B's behaviour is untouched");

    // A third process checking out now still sees an all-clean shared
    // template: A stamped its *copy*, never the shared column.
    let c = shared.checkout(&engine, &bin, 0, 2, &tracer).unwrap();
    assert!(c.shared_hit);
    assert!(
        c.shared_stamps().iter().all(|&s| s == 0),
        "shared validation stamps stay zero whatever holders poke"
    );

    // Per-cache stats and the trace reconcile: one miss (A), two hits
    // (B, C), each hit both traced and counted.
    let stats = shared.stats();
    assert_eq!((stats.entries, stats.misses, stats.hits), (1, 1, 2));
    let hit_events: Vec<u64> = tracer
        .drain()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::VariantShared { key, hits } => {
                assert_eq!(key, a.key());
                Some(hits)
            }
            _ => None,
        })
        .collect();
    assert_eq!(hit_events, vec![1, 2], "per-entry hit count is cumulative");
    let m = tracer.metrics().expect("enabled");
    assert_eq!(m.counter_value("rewrite.cross_process_hits"), Some(2));
}

#[test]
fn content_keys_separate_engines_flags_and_inputs() {
    let bin_a = chimera_workloads::hetero::matrix_task(8, 2, true);
    let bin_b = chimera_workloads::hetero::fib_task(12, 2);
    let engine = engine();
    let shared = SharedVariantCache::new();
    let t = Tracer::disabled();

    let a0 = shared.checkout(&engine, &bin_a, 0, 2, &t).unwrap();
    let a1 = shared.checkout(&engine, &bin_a, 1, 2, &t).unwrap();
    let b0 = shared.checkout(&engine, &bin_b, 0, 2, &t).unwrap();
    assert!(!a0.shared_hit && !a1.shared_hit && !b0.shared_hit);
    assert_ne!(a0.key(), a1.key(), "flags are part of the content key");
    assert_ne!(a0.key(), b0.key(), "section bytes are part of the key");

    let stats = shared.stats();
    assert_eq!((stats.entries, stats.misses, stats.hits), (3, 3, 0));

    // Same content re-checked out: served shared, byte-identical.
    let again = shared.checkout(&engine, &bin_a, 0, 2, &t).unwrap();
    assert!(again.shared_hit);
    assert_eq!(again.rewritten(), a0.rewritten());
}

/// Regression: the content key used to fold in the engine's *name* only,
/// and both configurations below are `"chbp"` — the second checkout hit
/// the first one's entry and handed back a downgraded binary for an
/// empty-patching request. Engine parameters are part of the key.
#[test]
fn content_keys_separate_engine_parameters() {
    let bin = chimera_workloads::hetero::matrix_task(8, 2, true);
    let downgrade = engine();
    let empty_patch = ChbpEngine {
        target: ExtSet::RV64GCV,
        opts: RewriteOptions {
            mode: Mode::EmptyPatch(chimera_isa::Ext::V),
            ..Default::default()
        },
    };
    let shared = SharedVariantCache::new();
    let t = Tracer::disabled();

    let d = shared.checkout(&downgrade, &bin, 0, 2, &t).unwrap();
    let e = shared.checkout(&empty_patch, &bin, 0, 2, &t).unwrap();
    assert!(
        !d.shared_hit && !e.shared_hit,
        "different rewrites: two misses"
    );
    assert_ne!(d.key(), e.key());
    let direct = run(&empty_patch, &bin, 2, &t).unwrap();
    assert_eq!(*e.rewritten(), direct.rewritten);
    assert_ne!(e.rewritten(), d.rewritten());

    // The same parameters in a fresh engine value still hit.
    let again = shared.checkout(&engine(), &bin, 0, 2, &t).unwrap();
    assert!(again.shared_hit);
    assert_eq!(again.key(), d.key());
}
