//! End-to-end trace coverage: one heterogeneous scenario — static
//! rewrite, incremental re-rewrite, a forced SMILE fault, lazy rewriting
//! of hidden vector code, a decode-cache invalidation, a JIT-tier
//! promotion, a measured run, the work-stealing scheduler, shared
//! variant-cache checkouts and pooled spawn/recycle cycles — against ONE
//! shared tracer. Every one of the fourteen [`TraceEvent`] kinds must
//! occur (TierPromote is excused on hosts without executable pages), and
//! every event count must equal both its `MetricsRegistry` counter and
//! the authoritative per-run source ([`FaultCounters`], [`CacheStats`],
//! `SchedResult`).

use chimera::measure_traced;
use chimera_emu::{CacheStats, ExecMode, RunError};
use chimera_isa::ExtSet;
use chimera_kernel::{
    run_work_stealing, FaultCounters, KernelRunner, Machine, Process, ProcessPool, RunOutcome,
    RuntimeTables, Task, Variant,
};
use chimera_obj::{assemble, AsmOptions, DEFAULT_STACK_SIZE};
use chimera_rewrite::{
    default_workers, run, run_cached, run_incremental, ChbpEngine, DirtySpan, RewriteOptions,
    Rewritten, SharedVariantCache,
};
use chimera_trace::{TraceEvent, Tracer};

/// A 4-element vector reduction (exits 14): the rewriting + SMILE target.
const VEC_PROG: &str = "
    .data
    a: .dword 2
       .dword 3
       .dword 4
       .dword 5
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

/// A vector block reachable only through a doubled pointer the static
/// scan cannot see — the lazy-rewriting trigger (exits 34).
const HIDDEN_PROG: &str = "
    .data
    a: .dword 7
       .dword 8
       .dword 9
       .dword 10
    coded_ptr: .dword 0
    .text
    _start:
        li t0, 4
        vsetvli t1, t0, e64, m1, ta, ma
        la a0, a
        la t2, coded_ptr
        ld t3, 0(t2)
        srli t3, t3, 1
        jr t3
    hidden:
        vle64.v v1, (a0)
        vmv.v.i v2, 0
        vredsum.vs v3, v1, v2
        vmv.x.s a0, v3
        li a7, 93
        ecall
";

/// A 200-iteration counting loop (exits 200): hot enough to cache, chain
/// and promote its blocks.
const LOOP_PROG: &str = "
    _start:
        li t0, 200
        li a0, 0
    loop:
        addi a0, a0, 1
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
";

/// Totals accumulated from the authoritative per-run sources (kernel
/// fault counters, per-CPU cache stats), reconciled against the trace.
#[derive(Default)]
struct Expected {
    blocks_built: u64,
    invalidations: u64,
    chained: u64,
    smile_faults: u64,
    lazy_rewrites: u64,
}

impl Expected {
    fn add_cache(&mut self, s: &CacheStats) {
        self.blocks_built += s.blocks_built;
        self.invalidations += s.invalidations;
        self.chained += s.chained;
    }

    fn add_faults(&mut self, c: &FaultCounters) {
        self.smile_faults += c.smile_faults;
        self.lazy_rewrites += c.lazy_rewrites;
    }
}

fn chbp_engine() -> ChbpEngine {
    ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    }
}

/// A default CHBP rewrite for the base profile, traced.
fn chbp_traced(bin: &chimera_obj::Binary, tracer: &Tracer) -> Rewritten {
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    };
    run(&engine, bin, default_workers(), tracer)
        .unwrap()
        .rewritten
}

fn single_variant_process(rw: Rewritten) -> Process {
    Process::new(vec![Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    }])
}

#[test]
fn one_run_emits_every_event_kind_and_reconciles_exactly() {
    let tracer = Tracer::enabled();
    let mut expected = Expected::default();

    // (a) Static rewrite of the vector program, traced: 6 RewritePassDone
    // (scan/plan/transform/place/link/verify pipeline stages).
    let vec_bin = assemble(VEC_PROG, AsmOptions::default()).unwrap();
    let rw = chbp_traced(&vec_bin, &tracer);
    let process = single_variant_process(rw);

    // (a2) Incremental re-rewrite: prime a per-unit cache (6 more
    // RewritePassDone), dirty one site, and re-rewrite incrementally —
    // one RewriteIncremental event plus the units_reused/units_redone
    // counters, which must reconcile with the unit total.
    let incremental_total = {
        let engine = chbp_engine();
        let (primed, mut cache) = run_cached(&engine, &vec_bin, 2, &tracer).unwrap();
        let site = *primed
            .rewritten
            .fht
            .trampolines
            .iter()
            .next()
            .expect("the vector program has patch sites");
        let dirty = [DirtySpan {
            start: site,
            end: site + 4,
            generation: 1,
        }];
        let inc = run_incremental(&engine, &vec_bin, &mut cache, &dirty, 2, &tracer).unwrap();
        assert_eq!(
            inc.rewritten, primed.rewritten,
            "incremental must be bit-identical to the cached full rewrite"
        );
        cache.unit_count() as u64
    };

    // (b) Forced erroneous jump onto a SMILE redirect key: the passive
    // fault handler must recover it (normal trampoline execution never
    // faults, so the fault is provoked explicitly).
    {
        let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
        cpu.tracer = tracer.clone();
        let fht = view.tables.fht.as_ref().unwrap();
        let (&fault_addr, _) = fht.redirects.iter().next().expect("redirects exist");
        cpu.hart.pc = fault_addr;
        let mut k = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
        let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
        assert!(
            matches!(outcome, RunOutcome::Exited(_)),
            "smile recovery must complete the run, got {outcome:?}"
        );
        assert!(k.counters.smile_faults >= 1);
        expected.add_faults(&k.counters);
        expected.add_cache(&cpu.cache.stats);
    }

    // (c) Hidden vector code behind a doubled pointer: the kernel must
    // rewrite lazily at fault time.
    {
        let ref_bin = assemble(
            &HIDDEN_PROG.replace("coded_ptr: .dword 0", "coded_ptr: .dword hidden"),
            AsmOptions::default(),
        )
        .unwrap();
        let hidden = chimera_analysis::disassemble(&ref_bin)
            .iter()
            .find(|di| matches!(di.inst, chimera_isa::Inst::VLoad { .. }))
            .unwrap()
            .addr;
        let mut bin = assemble(HIDDEN_PROG, AsmOptions::default()).unwrap();
        let data = bin.section(".data").unwrap().addr;
        bin.write(data + 32, &(hidden * 2).to_le_bytes());

        let rw = chbp_traced(&bin, &tracer);
        let lazy_process = single_variant_process(rw);
        let (mut cpu, mut mem, view) = lazy_process.load(ExtSet::RV64GC).unwrap();
        cpu.tracer = tracer.clone();
        let mut k = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
        let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
        assert_eq!(outcome, RunOutcome::Exited(34));
        assert!(k.counters.lazy_rewrites >= 1, "lazy rewriting must trigger");
        expected.add_faults(&k.counters);
        expected.add_cache(&cpu.cache.stats);
    }

    // (d) Decode-cache invalidation: run the loop long enough to cache its
    // blocks, poke the text region from the host (generation bump, same
    // bytes), and resume — the next lookup of a cached loop block is
    // stale and must invalidate.
    let loop_bin = assemble(LOOP_PROG, AsmOptions::default()).unwrap();
    {
        let (mut cpu, mut mem) = chimera_emu::boot(&loop_bin, ExtSet::RV64GCV);
        cpu.tracer = tracer.clone();
        match chimera_emu::run_cpu(&mut cpu, &mut mem, 50) {
            Err(RunError::OutOfFuel) => {}
            other => panic!("expected an out-of-fuel pause, got {other:?}"),
        }
        let head = mem.peek(loop_bin.entry, 4).unwrap();
        mem.poke_code(loop_bin.entry, &head).unwrap();
        let r = chimera_emu::run_cpu(&mut cpu, &mut mem, 1_000_000).unwrap();
        assert_eq!(r.exit_code, 200);
        assert!(
            cpu.cache.stats.invalidations >= 1,
            "the generation bump must invalidate a cached loop block"
        );
        expected.add_cache(&cpu.cache.stats);
    }

    // (e) JIT-tier promotion: the hot loop over the compile threshold in
    // Jit mode emits TierPromote events. Hosts without executable pages
    // skip this segment (the tier stays inert there), and the kind
    // check below relaxes to match.
    let jit_available = chimera_emu::jit_available();
    let mut jit_published = (0, 0);
    if jit_available {
        let (mut cpu, mut mem) = chimera_emu::boot(&loop_bin, ExtSet::RV64GCV);
        cpu.set_mode(ExecMode::Jit);
        cpu.set_jit_threshold(1);
        cpu.tracer = tracer.clone();
        let r = chimera_emu::run_cpu(&mut cpu, &mut mem, 1_000_000).unwrap();
        assert_eq!(r.exit_code, 200);
        assert!(
            cpu.cache.stats.jit_execs >= 1,
            "the hot loop must promote into the jit tier"
        );
        expected.add_cache(&cpu.cache.stats);
        jit_published = (cpu.jit_compiled(), cpu.jit_wx_toggles());
    }

    // (f) A measured run through the full stack, published into the same
    // registry: the trace dump carries the authoritative totals.
    let m = measure_traced(&process, ExtSet::RV64GC, 1_000_000, &tracer).unwrap();
    assert_eq!(m.exit_code, 14);
    expected.add_faults(&m.counters);
    expected.add_cache(&m.cache);
    let metrics = tracer.metrics().expect("enabled tracer has metrics");
    let published = [
        ("measure.cycles", m.cycles),
        ("measure.instret", m.instret),
        ("measure.lazy_rewrites", m.counters.lazy_rewrites),
        ("measure.cache_hits", m.cache.hits),
    ];
    for (name, field) in published {
        assert_eq!(metrics.counter_value(name), Some(field), "{name}");
    }

    // (g) Work-stealing schedule of real tasks: one scalar loop plus the
    // vector program as a single native view (FAM) force scheduling,
    // stealing and migration events. The guests run untraced, so (g) adds
    // nothing to the emu/kernel totals reconciled below.
    let machine = Machine {
        base_cores: 2,
        ext_cores: 2,
    };
    let fam = Process::new(vec![Variant::native(vec_bin.clone())]);
    let scalar = Process::new(vec![Variant::native(loop_bin.clone())]);
    let sim = run_work_stealing(machine, &Task::mix(&fam, 8, &scalar, 1), &tracer).unwrap();
    assert!(sim.migrations > 0, "FAM tasks must migrate");

    // (h) Cross-process variant sharing + pooled process churn: one cold
    // checkout (a fourth traced full rewrite — 6 more RewritePassDone),
    // two warm checkouts (one VariantShared event and one
    // `rewrite.cross_process_hits` count each), then two pooled
    // spawn → run → recycle cycles (one SlotRecycled event and one
    // `pool.slots_recycled` count each, plus `pool.spawn_ns`
    // observations).
    {
        let engine = chbp_engine();
        let shared = SharedVariantCache::new();
        let cold = shared.checkout(&engine, &vec_bin, 0, 2, &tracer).unwrap();
        assert!(!cold.shared_hit, "first checkout pays the rewrite");
        for _ in 0..2 {
            let warm = shared.checkout(&engine, &vec_bin, 0, 2, &tracer).unwrap();
            assert!(warm.shared_hit, "warm checkouts are served shared");
            assert_eq!(warm.rewritten(), cold.rewritten());
        }
        let mut pool = ProcessPool::with_config(DEFAULT_STACK_SIZE, tracer.clone());
        let key = pool.register(Variant {
            binary: cold.rewritten().binary.clone(),
            tables: RuntimeTables {
                fht: Some(cold.rewritten().fht.clone()),
                regen: cold.regen().cloned(),
            },
        });
        for hart in 0..2u64 {
            let (mut cpu, mut mem) = pool.spawn(key, ExtSet::RV64GC).unwrap();
            cpu.tracer = tracer.clone();
            let tables = pool.variant(key).unwrap().tables.clone();
            let mut k = KernelRunner::with_tracer(tables, tracer.clone());
            let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
            assert_eq!(outcome, RunOutcome::Exited(14));
            expected.add_faults(&k.counters);
            expected.add_cache(&cpu.cache.stats);
            pool.recycle(key, hart, mem).expect("slot recycles");
        }
    }

    // Drain once and reconcile: every event kind present, and each event
    // count equals both its tracer counter and the authoritative source.
    let records = tracer.drain();
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count() as u64;
    for kind in TraceEvent::KINDS {
        if kind == "TierPromote" && !jit_available {
            continue;
        }
        assert!(count(kind) > 0, "no {kind} event in the hetero trace");
    }
    let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
    assert_eq!(count("TierPromote"), counter("emu.blocks_jitted"));
    // At threshold 1 every compiled trace is published at once: one
    // event per trace, one counted toggle per publication.
    assert_eq!(
        (count("TierPromote"), counter("emu.jit_wx_toggles")),
        jit_published
    );

    assert_eq!(count("BlockBuilt"), counter("emu.blocks_built"));
    assert_eq!(count("BlockBuilt"), expected.blocks_built);
    assert_eq!(count("CacheInvalidate"), counter("emu.cache_invalidations"));
    assert_eq!(count("CacheInvalidate"), expected.invalidations);
    // BlockChained is emitted once per *created* link (a cold event); the
    // per-CPU `chained` stat counts link *follows*, so the trace only
    // reconciles against its own counter. Follows are asserted non-zero —
    // the engine must actually run on chains in these loopy scenarios.
    assert_eq!(count("BlockChained"), counter("emu.blocks_chained"));
    assert!(
        expected.chained > 0,
        "the engine must follow chain links in the hetero scenario"
    );
    assert_eq!(count("SmileFaultRecovered"), counter("kernel.smile_faults"));
    assert_eq!(count("SmileFaultRecovered"), expected.smile_faults);
    assert_eq!(count("LazyRewrite"), counter("kernel.lazy_rewrites"));
    assert_eq!(count("LazyRewrite"), expected.lazy_rewrites);
    assert_eq!(count("TaskMigrated"), counter("sched.migrations"));
    assert_eq!(count("TaskMigrated"), sim.migrations as u64);
    assert_eq!(count("TaskScheduled"), counter("sched.tasks_scheduled"));
    let successful_steals = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::StealAttempt { success: true, .. }))
        .count() as u64;
    assert_eq!(successful_steals, counter("sched.steals"));
    // Four traced full rewrites (two chbp_traced, the cache
    // priming run, and the shared cache's cold checkout), six pipeline
    // stages each; the incremental run and the warm checkouts emit no
    // per-pass events.
    assert_eq!(count("RewritePassDone"), 24);
    assert_eq!(count("RewriteIncremental"), 1);
    // Cross-process sharing and pooled churn reconcile exactly: every
    // warm checkout is both traced and counted, every recycled slot
    // likewise, and both pooled spawns were latency-observed.
    assert_eq!(count("VariantShared"), 2);
    assert_eq!(
        count("VariantShared"),
        counter("rewrite.cross_process_hits")
    );
    assert_eq!(count("SlotRecycled"), 2);
    assert_eq!(count("SlotRecycled"), counter("pool.slots_recycled"));
    assert_eq!(counter("pool.spawns"), 2);
    assert_eq!(counter("pool.slots_discarded"), 0);
    assert_eq!(metrics.histogram("pool.spawn_ns").count(), 2);
    assert_eq!(
        counter("rewrite.units_reused") + counter("rewrite.units_redone"),
        incremental_total,
        "reuse counters must reconcile with the unit total"
    );
    assert!(
        counter("rewrite.units_redone") >= 1,
        "the dirtied site's unit must be redone"
    );
    assert_eq!(tracer.dropped(), 0, "nothing may have been dropped");
}

#[test]
fn negative_exit_code_is_measured_and_published() {
    let bin = assemble(
        "_start:\n    li a0, -1\n    li a7, 93\n    ecall\n",
        AsmOptions::default(),
    )
    .unwrap();
    let process = Process::new(vec![Variant::native(bin)]);
    let tracer = Tracer::enabled();
    let m = measure_traced(&process, ExtSet::RV64GCV, 1_000, &tracer).unwrap();
    assert_eq!(m.exit_code, -1);
    let metrics = tracer.metrics().expect("enabled tracer has metrics");
    assert!(m.cycles > 0);
    assert_eq!(metrics.counter_value("measure.cycles"), Some(m.cycles));
}
