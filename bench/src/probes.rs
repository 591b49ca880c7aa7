//! The per-layer metrics of a traced run. Three sources, all outside the
//! program: the spans the traced reps recorded, the counters the program
//! publishes (`CacheStats`, `FaultCounters`, `RewriteStats`, `PoolStats`,
//! `ManyHartResult`, `SharedCacheStats`), and a fixed set of direct calls
//! into single layer functions made once after the reps. A layer the
//! workload does not exercise reads 0.

use crate::inputs;
use crate::rows::{downgrade_engine, engines, Analyses, Bench, Program, FUEL};
use crate::spans::{Layer, SpanLog};
use crate::stats::median;
use chimera::{prepare_process, InputVersion, SystemKind, TaskBinaries};
use chimera_analysis::{disassemble_with, Cfg};
use chimera_emu::{run_binary_mode, ExecMode, MasterImage, MemoryPool};
use chimera_isa::{decode, ExtSet};
use chimera_kernel::ManyHartResult;
use chimera_obj::{Binary, DEFAULT_STACK_SIZE, STACK_TOP};
use chimera_rewrite::{
    default_workers, run, run_incremental, upgrade_rewrite, DirtySpan, RewriteOptions,
    SharedVariantCache,
};
use chimera_trace::{TraceEvent, Tracer};
use chimera_workloads::hetero;
use std::collections::BTreeMap;
use std::time::Instant;

/// A per-layer value; `asserted: false` marks a number the host cannot
/// express (a scaling figure on a host without the threads for it), which
/// is written down as such rather than dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerValue {
    pub value: f64,
    pub asserted: bool,
}

pub type LayerMetrics = BTreeMap<&'static str, LayerValue>;

fn ns_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Median nanoseconds of `n` calls.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..n).map(|_| ns_of(&mut f).1).collect::<Vec<_>>())
}

/// Linear sweep over the executable sections: `(instructions, ns)`.
fn decode_sweep(bin: &Binary) -> (u64, f64) {
    let mut insts = 0u64;
    let t = Instant::now();
    for s in bin.sections.iter().filter(|s| s.perms.x) {
        let mut off = 0;
        while off + 2 <= s.data.len() {
            let lo = u16::from_le_bytes([s.data[off], s.data[off + 1]]) as u32;
            let hi = match s.data.get(off + 2..off + 4) {
                Some(b) => u16::from_le_bytes([b[0], b[1]]) as u32,
                None => 0,
            };
            let len = match std::hint::black_box(decode(lo | hi << 16)) {
                Ok(d) => d.len as usize,
                Err(_) => 2,
            };
            insts += 1;
            off += len;
        }
    }
    (insts, t.elapsed().as_nanos() as f64)
}

struct SpanView<'a>(&'a SpanLog);

impl SpanView<'_> {
    /// Median over traced reps of the per-rep summed duration, in ms.
    fn median_ms(&self, name: &str) -> f64 {
        median(&self.0.per_rep_ns(name)) / 1e6
    }

    /// Mean microseconds per call over all traced reps.
    fn mean_us(&self, name: &str) -> f64 {
        let ns: f64 = self.0.per_rep_ns(name).iter().sum();
        let calls: f64 = self.0.per_rep_count(name).iter().sum();
        if calls == 0.0 {
            0.0
        } else {
            ns / calls / 1e3
        }
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.0.per_rep_ns(name).iter().sum()
    }
}

/// `num / den`; 0 where the workload has nothing of the kind (`den` 0).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Computes every per-layer metric. `overhead_pct` is traced against
/// untraced rep time from the traced run's own interleaved reps.
pub fn per_layer(
    bench: &mut Bench,
    log: &SpanLog,
    seed: u64,
    quick: bool,
    overhead_pct: f64,
) -> Result<LayerMetrics, String> {
    let samples = if quick { 1 } else { 3 };
    let mut m = LayerMetrics::new();

    // Two workers on the many-hart mix: results must stay bit-identical
    // (the row checks that); the speed is only a claim on a host with two
    // hardware threads.
    bench.workers = 2;
    let failed_before = bench.ops.failed;
    let two: Vec<f64> = (0..samples)
        .filter_map(|_| bench.many_row(None, None))
        .collect();
    bench.workers = 1;
    if bench.ops.failed != failed_before {
        return Err(format!(
            "two-worker run failed: {}",
            bench.ops.first_failure.as_deref().unwrap_or("?")
        ));
    }
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.insert(
        "kernel.many_w2_ns_per_inst",
        LayerValue {
            value: if two.is_empty() {
                0.0
            } else {
                1e3 / median(&two)
            },
            asserted: hw_threads >= 2,
        },
    );

    let mut put = |name: &'static str, value: f64| {
        m.insert(
            name,
            LayerValue {
                value,
                asserted: true,
            },
        );
    };
    let spans = SpanView(log);
    let disabled = Tracer::disabled();
    let workers = default_workers();
    let programs: &[Program] = &bench.programs;
    let first = &programs[0];

    // obj / workloads.
    put("workloads.generate_ms", bench.generate_ns as f64 / 1e6);
    put(
        "obj.assemble_ms",
        median_ns(5, || {
            std::hint::black_box(inputs::churn_guest(seed));
        }) / 1e6,
    );
    put(
        "obj.validate_us",
        median_ns(5, || {
            for p in programs {
                std::hint::black_box(p.input.validate()).expect("inputs validate");
            }
        }) / 1e3,
    );

    // isa: decode over the input text.
    let (mut decoded, mut decode_ns) = (0u64, 0.0);
    for p in programs {
        let (n, ns) = decode_sweep(&p.input);
        decoded += n;
        decode_ns += ns;
    }
    put("isa.decode_ns_per_inst", decode_ns / decoded as f64);

    // analysis: the standalone re-runs of the traced reps, plus sizes.
    let disasm_ms = spans.median_ms("analysis.disasm");
    let cfg_ms = spans.median_ms("analysis.cfg");
    let liveness_ms = spans.median_ms("analysis.liveness");
    put("analysis.disasm_ms", disasm_ms);
    put("analysis.cfg_ms", cfg_ms);
    put("analysis.liveness_ms", liveness_ms);
    let (mut insts, mut blocks) = (0usize, 0usize);
    for p in programs {
        let d = disassemble_with(&p.input, workers);
        insts += d.insts.len();
        blocks += Cfg::build(&d).blocks.len();
    }
    put("analysis.insts", insts as f64);
    put("analysis.blocks", blocks as f64);

    // rewrite: the pipeline runs of the traced reps, pass by pass.
    put("rewrite.run_ms", spans.median_ms("rewrite.run"));
    put("rewrite.identity_ms", spans.median_ms("rewrite.identity"));
    let scan_ms = spans.median_ms("rewrite.pass.scan");
    put("rewrite.scan_ms", scan_ms);
    put("rewrite.plan_ms", spans.median_ms("rewrite.pass.plan"));
    put(
        "rewrite.transform_ms",
        spans.median_ms("rewrite.pass.transform"),
    );
    put("rewrite.place_ms", spans.median_ms("rewrite.pass.place"));
    put("rewrite.link_ms", spans.median_ms("rewrite.pass.link"));
    put("rewrite.verify_ms", spans.median_ms("rewrite.pass.verify"));
    put(
        "rewrite.scan_other_ms",
        scan_ms - disasm_ms - cfg_ms - liveness_ms,
    );
    let one_worker: Vec<f64> = (0..samples)
        .map(|_| {
            let mut ns = 0.0;
            for p in programs {
                for (engine, analyses) in engines(p.prep) {
                    if analyses != Analyses::None {
                        let (r, t) = ns_of(|| run(engine.as_ref(), &p.input, 1, &disabled));
                        r.map_err(|e| e.to_string())?;
                        ns += t;
                    }
                }
            }
            Ok(ns)
        })
        .collect::<Result<_, String>>()?;
    put("rewrite.run_w1_ms", median(&one_worker) / 1e6);
    let sum = |f: &dyn Fn(&Program) -> u64| programs.iter().map(f).sum::<u64>() as f64;
    put("rewrite.units", sum(&|p| p.counts.units));
    put(
        "rewrite.smile_trampolines",
        sum(&|p| p.counts.stats.smile_trampolines as u64),
    );
    put(
        "rewrite.trap_entries",
        sum(&|p| p.counts.stats.trap_entries as u64),
    );
    put("rewrite.untranslated", sum(&|p| p.counts.untranslated));
    put(
        "rewrite.target_bytes",
        sum(&|p| p.counts.stats.target_section_size),
    );

    // rewrite caches, on the first program's downgrade.
    let engine = downgrade_engine();
    let checkout = |cache: &SharedVariantCache, tracer: &Tracer| {
        cache
            .checkout(&engine, &first.input, 0, workers, tracer)
            .map_err(|e| e.to_string())
    };
    let mut miss_ns = Vec::new();
    let cache = SharedVariantCache::new();
    for i in 0..samples {
        let fresh = SharedVariantCache::new();
        let target = if i == 0 { &cache } else { &fresh };
        let (h, ns) = ns_of(|| checkout(target, &disabled));
        h?;
        miss_ns.push(ns);
    }
    put("rewrite.shared_miss_ms", median(&miss_ns) / 1e6);
    let calls = if quick { 20 } else { 200 };
    put(
        "rewrite.shared_hit_us",
        median_ns(calls, || {
            std::hint::black_box(checkout(&cache, &disabled)).expect("hit");
        }) / 1e3,
    );
    let (hits_seen, misses_seen) = bench.churn.as_ref().map_or((0, 0), |c| {
        let s = c.shared.stats();
        (s.hits, s.misses)
    });
    put(
        "rewrite.shared_hit_ratio",
        ratio(hits_seen, hits_seen + misses_seen),
    );
    // Incremental: every twentieth patch site reported dirty.
    let mut handle = checkout(&cache, &disabled)?;
    let sites: Vec<u64> = handle
        .rewritten()
        .fht
        .trampolines
        .iter()
        .copied()
        .step_by(20)
        .collect();
    let tracer = Tracer::enabled();
    let mut incremental_ns = Vec::new();
    let mut redone = 0;
    for generation in 1..=samples as u64 {
        let dirty: Vec<DirtySpan> = sites
            .iter()
            .map(|&start| DirtySpan {
                start,
                end: start + 4,
                generation,
            })
            .collect();
        let (r, ns) = ns_of(|| {
            run_incremental(
                &engine,
                &first.input,
                handle.cache_mut(),
                &dirty,
                workers,
                &tracer,
            )
        });
        r.map_err(|e| e.to_string())?;
        incremental_ns.push(ns);
        for rec in tracer.drain() {
            if let TraceEvent::RewriteIncremental { units_redone, .. } = rec.event {
                redone = units_redone;
            }
        }
    }
    put("rewrite.incremental_ms", median(&incremental_ns) / 1e6);
    put("rewrite.units_redone", redone as f64);
    let scalar = hetero::matrix_task(16, 2, false);
    put(
        "rewrite.upgrade_ms",
        median_ns(5, || {
            std::hint::black_box(upgrade_rewrite(&scalar, RewriteOptions::default()))
                .expect("matrix task upgrades");
        }) / 1e6,
    );

    // emu tiers: bare runs of the inputs, no kernel.
    put(
        "emu.reference_ns_per_inst",
        bench.reference_ns as f64 / bench.reference_insts as f64,
    );
    for (name, mode) in [
        ("emu.interpreter_ns_per_inst", ExecMode::Interpreter),
        ("emu.engine_ns_per_inst", ExecMode::Engine),
        ("emu.jit_ns_per_inst", ExecMode::Jit),
    ] {
        let (mut ns, mut retired) = (0.0, 0u64);
        for p in programs {
            let (r, t) = ns_of(|| run_binary_mode(&p.input, ExtSet::RV64GCV, FUEL, mode));
            retired += r.map_err(|e| format!("{name}: {e}"))?.stats.instret;
            ns += t;
        }
        put(name, ns / retired as f64);
    }
    let both = |f: &dyn Fn(&crate::rows::RunObs) -> u64| {
        programs
            .iter()
            .map(|p| f(&p.last_engine) + f(&p.last_jit))
            .sum::<u64>()
    };
    let (hits, misses) = (both(&|o| o.cache.hits), both(&|o| o.cache.misses));
    let (chained, jitted) = (both(&|o| o.cache.chained), both(&|o| o.cache.jitted));
    let built = both(&|o| o.cache.blocks_built);
    put("emu.blocks_built", built as f64);
    put("emu.cache_hits", hits as f64);
    put("emu.cache_misses", misses as f64);
    put("emu.invalidations", both(&|o| o.cache.invalidations) as f64);
    put("emu.chained", chained as f64);
    put("emu.jitted", jitted as f64);
    put("emu.jit_execs", both(&|o| o.cache.jit_execs) as f64);
    put("emu.cache_hit_ratio", ratio(hits, hits + misses));
    let jit = |f: &dyn Fn(&chimera_emu::CacheStats) -> u64| {
        programs.iter().map(|p| f(&p.last_jit.cache)).sum::<u64>()
    };
    put(
        "emu.jit_exec_share",
        ratio(
            jit(&|c| c.jit_execs + c.jitted),
            jit(&|c| c.hits + c.misses + c.chained + c.jitted),
        ),
    );
    put(
        "emu.insts_per_block_built",
        ratio(both(&|o| o.instret), built),
    );

    // emu memory, on the first program's image.
    put(
        "emu.boot_us",
        median_ns(9, || {
            std::hint::black_box(chimera_emu::boot(&first.input, ExtSet::RV64GCV));
        }) / 1e3,
    );
    let mut pool = MemoryPool::new(MasterImage::new(&first.input, DEFAULT_STACK_SIZE));
    pool.prewarm(1);
    let (mut acquire_ns, mut release_ns) = (Vec::new(), Vec::new());
    for _ in 0..calls {
        let (mut mem, ns) = ns_of(|| pool.acquire());
        acquire_ns.push(ns);
        mem.write(STACK_TOP - 128, &[0xa5; 64])
            .map_err(|e| format!("pool probe: {e}"))?;
        let (restored, ns) = ns_of(|| pool.release(mem));
        restored.ok_or("pool probe: slot discarded")?;
        release_ns.push(ns);
    }
    put("emu.pool_acquire_us", median(&acquire_ns) / 1e3);
    put("emu.pool_release_us", median(&release_ns) / 1e3);
    let stats = pool.stats();
    put(
        "emu.pool_restored_bytes",
        ratio(stats.restored_bytes, stats.recycled),
    );

    // kernel runtime.
    put("kernel.load_us", spans.mean_us("kernel.load"));
    let task = TaskBinaries {
        base_version: None,
        ext_version: Some(first.input.clone()),
    };
    let process = prepare_process(SystemKind::Chimera, InputVersion::Ext, &task)
        .map_err(|e| e.to_string())?;
    let (mut cpu, mut mem, _) = process.load(ExtSet::RV64GC).ok_or("no base view")?;
    let mut to = [ExtSet::RV64GCV, ExtSet::RV64GC].into_iter().cycle();
    put(
        "kernel.switch_view_us",
        median_ns(20, || {
            let profile = to.next().expect("cycle");
            assert!(process.switch_view(&mut mem, &mut cpu, profile));
        }) / 1e3,
    );
    put(
        "kernel.trap_service_us",
        spans.mean_us("kernel.service_trap"),
    );
    put(
        "kernel.trap_service_share_pct",
        100.0
            * ratio(
                spans.total_ns("kernel.service_trap") as u64,
                (spans.total_ns("row.engine") + spans.total_ns("row.jit")) as u64,
            ),
    );
    let engine_rows = |f: &dyn Fn(&crate::rows::RunObs) -> u64| {
        programs.iter().map(|p| f(&p.last_engine)).sum::<u64>()
    };
    put(
        "kernel.smile_faults",
        engine_rows(&|o| o.counters.smile_faults) as f64,
    );
    put(
        "kernel.trap_trampolines",
        engine_rows(&|o| o.counters.trap_trampolines) as f64,
    );
    put(
        "kernel.lazy_rewrites",
        engine_rows(&|o| o.counters.lazy_rewrites) as f64,
    );
    put(
        "kernel.safer_corrections",
        engine_rows(&|o| o.counters.safer_corrections) as f64,
    );
    put(
        "kernel.signals_gp_restored",
        engine_rows(&|o| o.counters.signals_gp_restored) as f64,
    );
    put(
        "kernel.entries_per_kinst",
        1e3 * ratio(
            programs.iter().map(|p| p.engine_traps).sum(),
            engine_rows(&|o| o.instret),
        ),
    );

    // kernel pool and many-hart.
    put("kernel.pool_spawn_us", spans.mean_us("kernel.pool_spawn"));
    put(
        "kernel.pool_recycle_us",
        spans.mean_us("kernel.pool_recycle"),
    );
    let pool_stats = bench
        .churn
        .as_ref()
        .map_or_else(Default::default, |c| c.pool_stats());
    put(
        "kernel.pool_reused_ratio",
        ratio(
            pool_stats.reused,
            pool_stats.reused + pool_stats.instantiated,
        ),
    );
    put("kernel.pool_discarded", pool_stats.discarded as f64);
    let last = bench.many.as_ref().and_then(|many| many.last.as_ref());
    let of_last = |f: &dyn Fn(&ManyHartResult) -> u64| last.map_or(0, f);
    let run_ms = spans.median_ms("kernel.many_run");
    put("kernel.many_run_ms", run_ms);
    put(
        "kernel.many_ns_per_inst",
        run_ms * 1e6 * ratio(1, of_last(&|r| r.retired)),
    );
    put("kernel.many_slots", of_last(&|r| r.slots) as f64);
    put("kernel.many_migrations", of_last(&|r| r.migrations) as f64);
    put(
        "kernel.many_events",
        of_last(&|r| r.delivered.0 + r.delivered.1 + r.delivered.2) as f64,
    );
    put("kernel.sim_cpu_cycles", of_last(&|r| r.cycles) as f64);
    // trace / bench.
    let b = log.breakdown();
    put("trace.overhead_pct", overhead_pct);
    put("share.analysis_pct", b.share_pct(Layer::Analysis));
    put("share.rewrite_pct", b.share_pct(Layer::Rewrite));
    put("share.emu_pct", b.share_pct(Layer::Emu));
    put("share.kernel_pct", b.share_pct(Layer::Kernel));
    put("bench.unattributed_pct", b.share_pct(Layer::Bench));
    Ok(m)
}
