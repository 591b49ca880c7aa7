//! Determinism of pooled process instantiation.
//!
//! The pooling fast path must be *transparent*: a many-hart run whose
//! guests boot from pooled copy-on-write slots — fresh, recycled, or
//! checked out warm from the cross-process variant cache — produces a
//! [`ManyHartResult`] bit-identical to every other combination, at every
//! worker count. Slot state is allowed to change spawn *latency*, never
//! results.

use chimera_isa::ExtSet;
use chimera_kernel::{
    ManyHartConfig, ManyHartKernel, ManyHartResult, Process, ProcessPool, RuntimeTables, Variant,
};
use chimera_obj::{assemble, AsmOptions, DEFAULT_STACK_SIZE};
use chimera_rewrite::{chbp_rewrite, ChbpEngine, RewriteOptions, SharedVariantCache};
use chimera_trace::Tracer;

const N: usize = 64;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// A guest that dirties its stack and `.data`, runs vector code (so the
/// CHBP rewrite is non-trivial), and exits with a hart-dependent code.
const GUEST: &str = "
    .data
    buf: .dword 2
         .dword 3
         .dword 4
         .dword 5
    acc: .dword 0
    .text
    _start:
        li a7, 0x7a00       # HART_ID
        ecall
        mv s0, a0
        addi sp, sp, -32    # dirty the pooled stack
        sd s0, 0(sp)
        sd s0, 8(sp)
        li t0, 4
        vsetvli t1, t0, e64, m1, ta, ma
        la a0, buf
        vle64.v v1, (a0)
        vmv.v.i v2, 0
        vredsum.vs v3, v1, v2
        vmv.x.s t2, v3
        la a1, acc
        sd t2, 0(a1)        # dirty .data
        ld t3, 0(sp)
        add a0, t2, t3      # 14 + hart id
        addi sp, sp, 32
        li a7, 93
        ecall
";

fn chbp_variant() -> Variant {
    let bin = assemble(GUEST, AsmOptions::default()).unwrap();
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    }
}

/// Spawns `N` pooled guests, runs them, recycles every slot back, and
/// returns the result plus the kernel tracer's counter snapshot.
fn run_round(
    pool: &mut ProcessPool,
    key: u64,
    workers: usize,
) -> (ManyHartResult, Vec<(String, u64)>) {
    let tracer = Tracer::enabled();
    let mut k = ManyHartKernel::with_tracer(
        ManyHartConfig {
            workers,
            ..Default::default()
        },
        tracer.clone(),
    );
    for _ in 0..N {
        k.add_pooled_hart(pool, key, ExtSet::RV64GC, ExtSet::RV64GC)
            .expect("key is registered");
    }
    let r = k.run();
    assert_eq!(r.exited(), N, "all guests exit: {:?}", r.first_failure());
    for (i, h) in r.harts.iter().enumerate() {
        assert_eq!(h.exit, Some(14 + i as i64), "hart-dependent exit code");
    }
    let recycled = k.recycle_into(pool);
    assert_eq!(recycled, N, "every slot recycles (no layout divergence)");
    let counters = tracer.metrics().expect("enabled").counter_snapshot();
    (r, counters)
}

#[test]
fn pooled_runs_are_bit_identical_across_slot_states_and_workers() {
    let variant = chbp_variant();

    // Slot state 1: fresh copy-on-write instantiations (new pool per run).
    let mut fresh: Vec<(ManyHartResult, Vec<(String, u64)>)> = Vec::new();
    for &w in &WORKERS {
        let mut pool = ProcessPool::new();
        let key = pool.register(variant.clone());
        fresh.push(run_round(&mut pool, key, w));
        let stats = pool.stats(key).unwrap();
        assert_eq!(stats.instantiated, N as u64);
        assert_eq!(stats.recycled, N as u64);
        assert_eq!(stats.discarded, 0);
    }

    // Slot state 2: recycled slots — a warm-up round dirties and returns
    // every slot, then the measured round reuses them all.
    let mut recycled: Vec<(ManyHartResult, Vec<(String, u64)>)> = Vec::new();
    for &w in &WORKERS {
        let mut pool = ProcessPool::new();
        let key = pool.register(variant.clone());
        let _ = run_round(&mut pool, key, w);
        assert_eq!(pool.free_slots(key), N, "warm-up filled the free list");
        recycled.push(run_round(&mut pool, key, w));
        let stats = pool.stats(key).unwrap();
        assert_eq!(stats.reused, N as u64, "second round ran on recycled slots");
        assert_eq!(stats.discarded, 0);
    }

    // Slot state 3: the variant itself comes warm from the shared
    // cross-process cache (a checkout hit), registered into a fresh pool.
    let base = assemble(GUEST, AsmOptions::default()).unwrap();
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    };
    let shared = SharedVariantCache::new();
    let cold = shared
        .checkout(&engine, &base, 0, 2, &Tracer::disabled())
        .unwrap();
    assert!(!cold.shared_hit, "first checkout pays the rewrite");
    let warm_handle = shared
        .checkout(&engine, &base, 0, 2, &Tracer::disabled())
        .unwrap();
    assert!(warm_handle.shared_hit, "second checkout is served shared");
    let warm_variant = Variant {
        binary: warm_handle.rewritten().binary.clone(),
        tables: RuntimeTables {
            fht: Some(warm_handle.rewritten().fht.clone()),
            regen: warm_handle.regen().cloned(),
        },
    };
    assert_eq!(
        warm_variant.binary, variant.binary,
        "engine checkout and direct rewrite are bit-identical"
    );
    let mut warm: Vec<(ManyHartResult, Vec<(String, u64)>)> = Vec::new();
    for &w in &WORKERS {
        let mut pool = ProcessPool::with_config(DEFAULT_STACK_SIZE, Tracer::disabled());
        let key = pool.register(warm_variant.clone());
        warm.push(run_round(&mut pool, key, w));
    }

    // Bit-identity across every (slot state × worker count) combination.
    let baseline = &fresh[0].0;
    for (state, runs) in [("fresh", &fresh), ("recycled", &recycled), ("warm", &warm)] {
        for (w, (r, _)) in WORKERS.iter().zip(runs.iter()) {
            assert_eq!(r, baseline, "{state} slots at workers={w} diverged");
        }
        // Counter snapshots are deterministic across worker counts within
        // one slot state (pool.* counters legitimately differ *between*
        // states, so they are compared per state).
        for (w, (_, counters)) in WORKERS.iter().zip(runs.iter()) {
            assert_eq!(
                counters, &runs[0].1,
                "{state} counter snapshot at workers={w} diverged"
            );
        }
    }
}

/// Recycling on ONE pool: later rounds run entirely on recycled slots and
/// are indistinguishable from the first, nothing is discarded, a recycle
/// restores only the spans the guest dirtied, and the `pool.*` trace
/// counters equal the pool's own [`chimera_emu::PoolStats`].
#[test]
fn recycle_rounds_on_one_pool_are_bit_identical_and_span_proportional() {
    const ROUNDS: u64 = 3;
    let n = N as u64;
    let tracer = Tracer::enabled();
    let mut pool = ProcessPool::with_config(DEFAULT_STACK_SIZE, tracer.clone());
    let key = pool.register(chbp_variant());
    let (first, _) = run_round(&mut pool, key, 4);
    for round in 1..ROUNDS {
        let (r, _) = run_round(&mut pool, key, 4);
        assert_eq!(
            r, first,
            "round {round}: a recycled slot is not a fresh one"
        );
    }

    let stats = pool.stats(key).unwrap();
    assert_eq!(
        (
            stats.instantiated,
            stats.reused,
            stats.recycled,
            stats.discarded
        ),
        (n, (ROUNDS - 1) * n, ROUNDS * n, 0)
    );
    // Each guest dirties a few dozen bytes of stack and data; rebuilding
    // the image instead would cost 256 KiB+ per slot.
    let per_slot = stats.restored_bytes / stats.recycled;
    assert!(per_slot < 4096, "recycle restored {per_slot} B/slot");

    let metrics = tracer.metrics().expect("enabled tracer");
    let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
    assert_eq!(counter("pool.spawns"), stats.instantiated + stats.reused);
    assert_eq!(counter("pool.slots_recycled"), stats.recycled);
    assert_eq!(counter("pool.slots_discarded"), stats.discarded);
    assert_eq!(metrics.histogram("pool.spawn_ns").count(), ROUNDS * n);
}

#[test]
fn pooled_and_eager_boots_agree() {
    // The pooled fast path must observe exactly like an eager
    // `Process::load` boot of the same variant.
    let variant = chbp_variant();
    let mut pool = ProcessPool::new();
    let key = pool.register(variant.clone());

    let tracer = Tracer::disabled();
    let mut eager = ManyHartKernel::with_tracer(ManyHartConfig::default(), tracer.clone());
    for _ in 0..4 {
        eager.add_hart(
            &variant.binary,
            ExtSet::RV64GC,
            ExtSet::RV64GC,
            variant.tables.clone(),
        );
    }
    let eager_r = eager.run();

    let mut pooled = ManyHartKernel::with_tracer(ManyHartConfig::default(), tracer);
    for _ in 0..4 {
        pooled
            .add_pooled_hart(&mut pool, key, ExtSet::RV64GC, ExtSet::RV64GC)
            .unwrap();
    }
    let pooled_r = pooled.run();
    assert_eq!(pooled_r, eager_r, "pooling is transparent to results");

    // Footprint: the eager load commits the 256 KiB default stack, not the
    // single-hart 8 MiB maximum, and a pooled slot that has only fetched
    // still shares every region with the master.
    let process = Process::new(vec![variant]);
    let (_, eager_mem, _) = process.load(ExtSet::RV64GC).unwrap();
    assert!(
        eager_mem.mapped_bytes() < DEFAULT_STACK_SIZE + 128 * 1024,
        "eager load mapped {} B",
        eager_mem.mapped_bytes()
    );
    let (mut cpu, mut mem) = pool.spawn(key, ExtSet::RV64GC).unwrap();
    let _ = cpu.run(&mut mem, 1);
    assert_eq!(cpu.stats.instret, 1, "first instruction retired");
    assert_eq!(mem.resident_bytes(), 0);
}

#[test]
fn unknown_key_spawns_nothing() {
    let mut pool = ProcessPool::new();
    let mut k = ManyHartKernel::new(ManyHartConfig::default());
    assert_eq!(
        k.add_pooled_hart(&mut pool, 0xdead_beef, ExtSet::RV64GC, ExtSet::RV64GC),
        None
    );
    assert_eq!(k.harts(), 0);
}
