//! The offline fuzzing smoke gate: a fixed-seed corpus through the full
//! differential oracle matrix, with zero divergences required.
//!
//!     cargo run --release -p chimera-fuzzing --bin fuzz_smoke
//!
//! Environment knobs (all optional, defaults are the CI gate):
//!
//! * `FUZZ_CASES`  — corpus size (default 500).
//! * `FUZZ_SEED`   — root seed (default 0xC41A5); per-case seeds are
//!   drawn from the root's `"corpus"` stream.
//! * `FUZZ_INJECT` — op-class name (`alu`, `vector`, `loadstore`, ...):
//!   deliberately perturb the engine observation for cases containing
//!   that class. The special value `jit` perturbs the observation of
//!   the *deferring JIT column* (`mode:jit-batched`, the last of the mode
//!   matrix) instead, for ALU-bearing cases. This is the
//!   mutation-testing mode — the gate must then *fail*, minimize, and
//!   emit a reproducer; it proves the oracle and shrinker actually work.
//! * `FUZZ_WRITE_REPRO` — set to `0` to skip writing the reproducer
//!   file on divergence (it is always printed).
//!
//! On divergence: the case is delta-minimized (same-stage predicate),
//! a reproducer file is written to `tests/reproducers/` (override with
//! `CHIMERA_REPRO_DIR`), its text is printed, and the process exits
//! non-zero. On success: per-feature coverage counters are asserted
//! non-vacuous and dumped to `results/fuzz-smoke.json`.

use chimera_fuzzing::repro::reproducer_dir;
use chimera_fuzzing::{
    check_case, generate, minimize, render_reproducer, Coverage, Inject, OpClass, Reproducer,
};
use chimera_isa::prng::Prng;
use std::io::Write;
use std::time::Instant;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| {
            let v = v.trim();
            v.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| v.parse().ok())
        })
        .unwrap_or(default)
}

fn main() {
    let cases = env_u64("FUZZ_CASES", 500);
    let root_seed = env_u64("FUZZ_SEED", 0xC41A5);
    let write_repro = std::env::var("FUZZ_WRITE_REPRO").map_or(true, |v| v != "0");
    let inject = match std::env::var("FUZZ_INJECT") {
        Ok(name) if name == "jit" => {
            eprintln!(
                "NOTE: fault injection active (perturbing the batched JIT column on ALU cases)"
            );
            Inject {
                perturb_jit: Some(OpClass::Alu),
                ..Inject::none()
            }
        }
        Ok(name) if !name.is_empty() => {
            let class = OpClass::parse(&name)
                .unwrap_or_else(|| panic!("FUZZ_INJECT: unknown op class '{name}'"));
            eprintln!("NOTE: fault injection active (perturbing engine on '{name}' cases)");
            Inject {
                perturb_engine: Some(class),
                ..Inject::none()
            }
        }
        _ => Inject::none(),
    };

    println!("fuzz_smoke: {cases} cases from root seed {root_seed:#x}");
    let mut corpus = Prng::stream(root_seed, "corpus");
    let mut cov = Coverage::default();
    let started = Instant::now();

    for i in 0..cases {
        let case_seed = corpus.next_u64();
        let case = generate(case_seed);
        match check_case(&case, inject) {
            Ok(c) => cov.add(&c),
            Err(d) => {
                eprintln!(
                    "\nDIVERGENCE at case {i}/{cases} (seed {case_seed:#x})\n  stage:  {}\n  detail: {}",
                    d.stage, d.detail
                );
                eprintln!("minimizing ({} ops)...", case.ops.len());
                let m = minimize(&case, inject, 300)
                    .expect("a diverging case must still diverge under the minimizer");
                eprintln!(
                    "minimized to {} op(s) in {} oracle evaluations",
                    m.case.ops.len(),
                    m.evals
                );
                let r = Reproducer::from_minimized(&m);
                let text = render_reproducer(&r);
                if write_repro {
                    let dir = reproducer_dir();
                    std::fs::create_dir_all(&dir).expect("create reproducer dir");
                    let path = dir.join(r.filename());
                    std::fs::write(&path, &text).expect("write reproducer");
                    eprintln!("reproducer written to {}", path.display());
                }
                eprintln!("---\n{text}---");
                std::process::exit(1);
            }
        }
        if (i + 1) % 100 == 0 {
            println!(
                "  {}/{cases} cases, {} rewrites, {} smile entries, {:.1}s",
                i + 1,
                cov.engine_runs,
                cov.smile_entries,
                started.elapsed().as_secs_f64()
            );
        }
    }

    // Non-vacuity: the corpus must actually exercise every feature the
    // generator claims to cover. A zero here means the generator (or an
    // oracle family's eligibility gate) silently regressed.
    let jit = chimera_emu::jit_available();
    for (name, v) in cov.entries() {
        if !jit && ["jit_execs", "jit_chained", "jit_batched_execs"].contains(&name) {
            // Without executable pages the JIT column degrades to engine
            // semantics: the transparency checks ran, but no compiled
            // trace could execute.
            continue;
        }
        assert!(v > 0, "coverage '{name}' is zero — the corpus is vacuous");
    }

    let secs = started.elapsed().as_secs_f64();
    println!(
        "\nzero divergences across {} cases in {secs:.1}s",
        cov.cases
    );
    for (name, v) in cov.entries() {
        println!("  {name:>14}: {v}");
    }

    std::fs::create_dir_all("results").expect("create results dir");
    let mut f = std::fs::File::create("results/fuzz-smoke.json").expect("create json");
    let fields: Vec<String> = cov
        .entries()
        .iter()
        .map(|(name, v)| format!("    \"{name}\": {v}"))
        .collect();
    writeln!(
        f,
        "{{\n  \"root_seed\": {root_seed},\n  \"divergences\": 0,\n  \"seconds\": {secs:.3},\n  \"coverage\": {{\n{}\n  }}\n}}",
        fields.join(",\n")
    )
    .expect("write json");
    println!("results -> results/fuzz-smoke.json");
}
