//! `pipeline_e2e`: the one benchmark of the whole Chimera path — binary in,
//! analysis, rewrite, spawn, execute, trap, migrate — as four workloads, a
//! closed loop with one client on one bench thread. See `bench/README.md`.
//!
//!     pipeline_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     pipeline_e2e --all [--seed <n>] [--seconds <s>] [--repeat <k>] [--quick]
//!     pipeline_e2e --compare A.json B.json
//!
//! The last line of a workload run's standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics untraced, the per-layer metrics traced.

mod compare;
mod contract;
mod inputs;
mod json;
mod probes;
mod rows;
mod spans;
mod stats;

use contract::{Contract, MetricDecl};
use json::{obj, Json};
use probes::LayerValue;
use rows::{Bench, Samples};
use spans::SpanLog;
use stats::{geomean, median, quartile_spread, summarize, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const SCHEMA: &str = "pipeline_e2e/1";

/// Set-ups an untraced run makes; `setup_s` is their median. The builder's
/// contract for `BENCHMARK.json` asks for this, and holds the median of
/// `setup_s` over ten runs to its bound between two sets of runs; one
/// set-up per run read 12-20 % apart from run to run on this host.
const SETUPS: usize = 3;

struct RunArgs {
    /// When the process started: `setup_s` counts from here.
    started: Instant,
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn main() -> ExitCode {
    match real_main(Instant::now()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pipeline_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(started: Instant) -> Result<ExitCode, String> {
    let contract = Contract::embedded()?;
    if contract.workloads != inputs::WORKLOADS.map(str::to_string) {
        return Err("BENCHMARK.json names other workloads than the binary runs".into());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut switches: Vec<&str> = Vec::new();
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--repeat" | "--out-dir" => {
                flags.insert(a, it.next().ok_or(format!("{a} needs a value"))?);
            }
            "--all" | "--quick" | "--compare" => switches.push(a),
            _ if a.starts_with("--") => return Err(format!("unknown option {a}")),
            _ => positional.push(a),
        }
    }
    let num = |flag: &str, default: f64| -> Result<f64, String> {
        flags.get(flag).map_or(Ok(default), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or(format!("{flag}: bad number {v:?}"))
        })
    };
    let quick = switches.contains(&"--quick");
    let out_dir = PathBuf::from(flags.get("--out-dir").copied().unwrap_or("bench/results"));
    let seconds = num("--seconds", if quick { 0.3 } else { contract.run_seconds })?;
    let seed = flags.get("--seed").map_or(Ok(1), |v| {
        v.parse::<u64>()
            .map_err(|_| format!("--seed: not a whole number: {v:?}"))
    })?;

    if switches.contains(&"--compare") {
        let [a, b] = positional[..] else {
            return Err("--compare takes two result files".into());
        };
        let read = |p: &str| -> Result<Json, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{p}: {e}"))
        };
        let (a, b) = (read(a)?, read(b)?);
        if [&a, &b].map(|d| d.get("comparable")) != [Some(&Json::Bool(true)); 2] {
            return Err(
                "--compare takes full runs: a --quick file's numbers compare to nothing".into(),
            );
        }
        let (rows, pass) = compare::compare(&contract, &a, &b)?;
        compare::print(&rows);
        println!("{}", if pass { "PASS" } else { "FAIL" });
        return Ok(if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if switches.contains(&"--all") {
        let repeat = num("--repeat", 1.0)?.max(1.0) as usize;
        return run_all(&contract, seed, seconds, repeat, quick, &out_dir);
    }
    let name = flags
        .get("--workload")
        .ok_or("one of --workload, --all, --compare is required")?;
    let workload = inputs::WORKLOADS
        .into_iter()
        .find(|w| w == name)
        .ok_or(format!("unknown workload `{name}`"))?;
    let trace = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    run_workload(
        &contract,
        &RunArgs {
            started,
            workload,
            seed,
            seconds,
            trace,
            quick,
            out_dir,
        },
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

fn host_json() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj([
        (
            "hw_threads",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        ("cpu", cpu.into()),
        ("jit_available", chimera_emu::jit_available().into()),
    ])
}

/// The commit the benchmark ran on, read from `.git` of the working
/// directory alone (no process is started and nothing above the checkout is
/// looked at); "unknown" where there is no `.git`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let full = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|h| h.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|hash| hash.trim().to_string()))
        }),
    });
    full.filter(|h| h.len() >= 7 && h.chars().all(|c| c.is_ascii_hexdigit()))
        .map_or("unknown".into(), |h| h[..7].to_string())
}

fn header(seed: u64, seconds: f64, quick: bool) -> Vec<(&'static str, Json)> {
    vec![
        ("schema", SCHEMA.into()),
        ("host", host_json()),
        ("git_rev", git_rev().into()),
        ("seed", seed.into()),
        ("run_seconds", seconds.into()),
        ("quick", quick.into()),
        // Quick runs exercise the same code on shrunken inputs: their
        // numbers must never be compared with a full run's.
        ("comparable", (!quick).into()),
    ]
}

fn summary_json(s: &Summary) -> Json {
    obj([
        ("n", s.n.into()),
        ("decile", s.decile.into()),
        ("median", s.median.into()),
        ("best", s.best.into()),
        ("tail_pct", s.tail.map(|t| t.0).into()),
        ("tail", s.tail.map(|t| t.1).into()),
    ])
}

/// A timed metric's workload-level value: the geometric mean of its rows'
/// good-side deciles. Prints each row on its own line.
fn fold_rows(decl: &MetricDecl, samples: &Samples) -> (f64, Vec<(String, Json)>) {
    let mut deciles = Vec::new();
    let mut rows = Vec::new();
    for ((metric, row), values) in samples {
        if *metric != decl.name {
            continue;
        }
        let s = summarize(values, decl.better);
        let tail = s.tail.map_or(String::new(), |(p, v)| {
            format!("  p{p:.0} {v:.4} (10 samples beyond)")
        });
        println!(
            "  {:<16} {:<16} n={:<4} decile {:>12.4}  median {:>12.4}  best {:>12.4}{tail}",
            decl.name, row, s.n, s.decile, s.median, s.best
        );
        deciles.push(s.decile);
        let Json::Obj(mut entry) = summary_json(&s) else {
            unreachable!("a summary is an object")
        };
        entry.push((
            "samples".into(),
            Json::Arr(values.iter().map(|v| (*v).into()).collect()),
        ));
        rows.push((row.clone(), Json::Obj(entry)));
    }
    (geomean(&deciles), rows)
}

fn run_workload(contract: &Contract, a: &RunArgs) -> Result<ExitCode, String> {
    println!(
        "pipeline_e2e {} seed {} seconds {} trace {}{}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        if a.quick {
            " (quick: numbers not comparable)"
        } else {
            ""
        }
    );

    // Set-up: fixed work, never time-boxed. The first is counted from the
    // start of the process; the last is the one the timed reps run on. (A
    // traced run reports no `setup_s` and a quick run nothing comparable.)
    let mut setups = vec![];
    let mut begun = a.started;
    let mut bench = loop {
        let bench = Bench::setup(a.workload, a.seed, a.quick, a.trace)?;
        setups.push(begun.elapsed().as_secs_f64());
        if a.quick || a.trace || setups.len() == SETUPS {
            break bench;
        }
        drop(bench);
        begun = Instant::now();
    };
    let setup_s = median(&setups);

    // The timed reps. A traced run alternates traced and untraced reps, so
    // the tracing overhead comes from one process under one drift.
    let mut samples = Samples::new();
    let mut log = SpanLog::new();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        if a.trace {
            log.set_rep(traced_ns.len() as u32 + 1);
            traced_ns.push(bench.rep(Some(&mut log), None) as f64);
            log.set_rep(0);
        }
        untraced_ns.push(bench.rep(None, Some(&mut samples)) as f64);
        if start.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
    }
    let reps = untraced_ns.len();

    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut line: Vec<(String, Json)> = Vec::new();
    let mut emit = |decl: &MetricDecl, v: LayerValue, rows: Vec<(String, Json)>| {
        println!(
            "{:<32} {:>16.6} {}{}",
            decl.name,
            v.value,
            decl.unit,
            if v.asserted { "" } else { "  (not asserted)" }
        );
        // The last line is the contract's: a value and a unit, nothing
        // else. What is not asserted says so above it and in the file.
        let unit = ("unit", Json::from(decl.unit.as_str()));
        line.push((
            decl.name.clone(),
            obj([("value", v.value.into()), unit.clone()]),
        ));
        let mut entry = vec![("value", v.value.into()), unit];
        if !v.asserted {
            entry.push(("asserted", false.into()));
        }
        if !rows.is_empty() {
            entry.push(("rows", Json::Obj(rows)));
        }
        metrics.push((decl.name.clone(), obj(entry)));
    };
    if a.trace {
        let overhead = 100.0 * (median(&traced_ns) / median(&untraced_ns) - 1.0);
        let layers = probes::per_layer(&mut bench, &log, a.seed, a.quick, overhead)?;
        contract.check_emitted(true, layers.keys().copied(), &[])?;
        for decl in &contract.per_layer {
            emit(decl, layers[decl.name.as_str()], Vec::new());
        }
    } else {
        let programs = &bench.programs;
        let geo = |f: &dyn Fn(&rows::Program) -> f64| {
            geomean(&programs.iter().map(f).collect::<Vec<_>>())
        };
        let computed: BTreeMap<&str, f64> = BTreeMap::from([
            (
                "sim_overhead_pct",
                100.0 * (geo(&|p| p.empty_cycles as f64 / p.reference.cycles as f64) - 1.0),
            ),
            (
                "sim_downgrade_ratio",
                geo(&|p| p.downgrade_cycles as f64 / p.reference.cycles as f64),
            ),
            (
                "sim_cpi",
                programs.iter().map(|p| p.sim.0).sum::<u64>() as f64
                    / programs.iter().map(|p| p.sim.1).sum::<u64>() as f64,
            ),
            (
                "code_growth_pct",
                100.0 * (geo(&|p| p.rewritten_bytes as f64 / p.input_bytes as f64) - 1.0),
            ),
            ("peak_rss_mb", peak_rss_mb()?),
            ("setup_s", setup_s),
        ]);
        // Jit mode on a host without executable pages runs with engine
        // semantics: there is no JIT figure to report, and none is made up.
        let no_jit: &[&str] = if chimera_emu::jit_available() {
            &[]
        } else {
            println!("guest_mips_jit omitted: this host maps no executable pages");
            &["guest_mips_jit"]
        };
        let mut emitted = Vec::new();
        for decl in &contract.end_to_end {
            let name = decl.name.as_str();
            if no_jit.contains(&name) {
                continue;
            }
            let (value, rows) = match computed.get(name) {
                Some(v) => (*v, Vec::new()),
                None => fold_rows(decl, &samples),
            };
            if !value.is_finite() {
                return Err(format!("{name}: no value ({value})"));
            }
            emitted.push(name);
            // Off the matrix the number only fills the contract's list.
            let asserted = contract::in_matrix(name, a.workload);
            emit(decl, LayerValue { value, asserted }, rows);
        }
        contract.check_emitted(false, emitted, no_jit)?;
    }

    let ops = &bench.ops;
    let correct = ops.failed == 0;
    let fail_ratio = ops.failed as f64 / ops.attempted as f64;
    println!(
        "reps {reps}  attempted {}  failed {}  fail_ratio {fail_ratio}",
        ops.attempted, ops.failed
    );
    if let Some(f) = &ops.first_failure {
        println!("first failure: {f}");
    }

    let mut doc = header(a.seed, a.seconds, a.quick);
    doc.extend([
        ("trace", Json::from(a.trace as u64)),
        ("workload", a.workload.into()),
        ("reps", reps.into()),
        ("attempted", ops.attempted.into()),
        ("failed", ops.failed.into()),
        ("fail_ratio", fail_ratio.into()),
        ("correct", correct.into()),
        ("first_failure", ops.first_failure.clone().into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    if a.trace {
        doc.push(("traced_reps", traced_ns.len().into()));
        doc.push(("spans", log.to_json()));
    }
    let file = result_file(&a.out_dir, a.workload, a.trace);
    write_file(&file, &obj(doc).pretty(3))?;
    println!("wrote {}", file.display());

    println!(
        "{}",
        obj([
            ("correct", correct.into()),
            ("attempted", ops.attempted.into()),
            ("failed", ops.failed.into()),
            ("metrics", Json::Obj(line)),
        ])
        .compact()
    );
    Ok(ExitCode::SUCCESS)
}

fn result_file(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}{}.json",
        if trace { ".trace" } else { "" }
    ))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload in a process of its own — `repeat` untraced runs and
/// one traced run each — so `peak_rss_mb` and caches never leak from one
/// workload into the next, and merges their result files into one.
fn run_all(
    contract: &Contract,
    seed: u64,
    seconds: f64,
    repeat: usize,
    quick: bool,
    out_dir: &Path,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Runs one child to its end and reads the result file it wrote.
    let child = |workload: &str, trace: bool| -> Result<Json, String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(out_dir);
        if quick {
            cmd.arg("--quick");
        }
        // `output` waits for the child to end.
        let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
        print!("{}", String::from_utf8_lossy(&out.stdout));
        if !out.status.success() {
            return Err(format!(
                "{workload} run failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let file = result_file(out_dir, workload, trace);
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
    };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in inputs::WORKLOADS {
        let runs = (0..repeat)
            .map(|_| child(workload, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = child(workload, true)?;
        let count = |key: &str| {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum::<f64>()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        all_correct &= failed == 0.0;
        let metrics = contract.end_to_end.iter().filter_map(|decl| {
            let of_runs: Vec<&Json> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&decl.name))
                .collect();
            // A metric the host cannot measure is in no run's file.
            if of_runs.is_empty() {
                return None;
            }
            let values: Vec<f64> = of_runs
                .iter()
                .filter_map(|m| m.get("value").and_then(Json::as_f64))
                .collect();
            let mut entry = vec![
                ("unit", decl.unit.as_str().into()),
                ("better", decl.better.name().into()),
                ("bound", decl.bound.into()),
                ("median", median(&values).into()),
                ("spread", quartile_spread(&values).into()),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::from).collect()),
                ),
            ];
            if of_runs.iter().any(|m| m.get("asserted").is_some()) {
                entry.push(("asserted", false.into()));
            }
            Some((decl.name.clone(), obj(entry)))
        });
        workloads.push((
            workload.to_string(),
            obj([
                ("attempted", attempted.into()),
                ("failed", failed.into()),
                ("fail_ratio", (failed / attempted).into()),
                ("metrics", Json::Obj(metrics.collect())),
                // Value, unit and the not-asserted mark of each, as the
                // traced run wrote them.
                (
                    "layers",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let mut doc = header(seed, seconds, quick);
    doc.push(("repeat", repeat.into()));
    doc.push(("workloads", Json::Obj(workloads)));
    let file = out_dir.join("all.json");
    write_file(&file, &obj(doc).pretty(4))?;
    println!("wrote {}", file.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
