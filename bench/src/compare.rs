//! `pipeline_e2e --compare A.json B.json`: the regression check a later
//! PR is held to. One row per (workload, end-to-end metric): base, new,
//! the ratio with its base, and a verdict.
//!
//! * `ok` — the new median is no worse than the base by more than the
//!   metric's bound;
//! * `worse` — it is;
//! * `unresolved` — the run-to-run spread of either side is wider than
//!   the bound, so neither of the above can be claimed (unless every new
//!   run reads better than every base run).
//!
//! Only what a workload asserts is compared: a metric it prints to fill the
//! `BENCHMARK.json` list (`"asserted": false`) claims nothing.
//!
//! The bound is `BENCHMARK.json`'s, capped at [`BOUND_CAP`]. The driver that
//! reads `BENCHMARK.json` knows accept and reject only, so a bound there
//! has to clear the host's run-to-run noise or it rejects at random; this
//! check has `unresolved` for noise and can hold the line ISSUE 12 drew.

use crate::contract::Contract;
use crate::json::Json;
use crate::stats::{median, quartile_spread, Better};

/// ISSUE 12's bound on host-time metrics: the most any metric may get
/// worse here, whatever `BENCHMARK.json` grants the driver.
pub const BOUND_CAP: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> (Verdict, Option<f64>) {
    let spread = [base, new]
        .iter()
        .filter_map(|v| quartile_spread(v))
        .reduce(f64::max);
    let every_new_run_better = new.iter().all(|n| {
        base.iter().all(|b| match better {
            Better::Lower => n < b,
            Better::Higher => n > b,
        })
    });
    let worse_by = better.worse_by(median(base), median(new));
    let v = if spread.is_some_and(|s| s > bound) {
        if every_new_run_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (v, spread)
}

/// One workload of one side: its fail ratio and, per end-to-end metric it
/// asserts, one value per run (`None` for a run's value that is no number).
struct Workload {
    name: String,
    fail_ratio: f64,
    metrics: Vec<(String, Vec<Option<f64>>)>,
}

/// Reads an `--all` file (`workloads` → metrics → `values`) or a single
/// run's result file (`workload`, metrics → `value`). Metrics written with
/// `"asserted": false` are left out: they claim nothing.
fn side(doc: &Json) -> Result<Vec<Workload>, String> {
    let one = |name: &str, w: &Json| -> Result<Workload, String> {
        let fail_ratio = w
            .get("fail_ratio")
            .and_then(Json::as_f64)
            .ok_or(format!("{name}: no fail_ratio"))?;
        let metrics = w
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{name}: `metrics` is not an object"))?
            .iter()
            .filter(|(_, m)| m.get("asserted") != Some(&Json::Bool(false)))
            .map(|(metric, m)| {
                let values = match m.get("values").and_then(Json::as_arr) {
                    Some(vs) => vs.iter().map(Json::as_f64).collect(),
                    None => vec![m.get("value").and_then(Json::as_f64)],
                };
                (metric.clone(), values)
            })
            .collect();
        Ok(Workload {
            name: name.to_string(),
            fail_ratio,
            metrics,
        })
    };
    match doc.get("workloads").and_then(Json::as_obj) {
        Some(ws) => ws.iter().map(|(name, w)| one(name, w)).collect(),
        None => {
            let name = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("neither `workloads` nor `workload` in the file")?;
            Ok(vec![one(name, doc)?])
        }
    }
}

/// Compares two result documents; returns the rows and whether the
/// comparison passes (no `worse`, no higher fail ratio). It is an error —
/// not a shorter table — if the two were not run alike (schema, seed, run
/// seconds), or if a workload or an asserted metric of the base is missing
/// from the new file or is not a number there.
pub fn compare(contract: &Contract, a: &Json, b: &Json) -> Result<(Vec<Row>, bool), String> {
    for key in ["schema", "seed", "run_seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the files differ in `{key}`: they were not run alike"
            ));
        }
    }
    let (a, b) = (side(a)?, side(b)?);
    let mut rows = Vec::new();
    let mut pass = true;
    for base in &a {
        let workload = &base.name;
        let new = b
            .iter()
            .find(|w| w.name == *workload)
            .ok_or(format!("{workload}: missing from the new file"))?;
        if new.fail_ratio > base.fail_ratio {
            println!(
                "{workload}: fail_ratio rose from {} to {}",
                base.fail_ratio, new.fail_ratio
            );
            pass = false;
        }
        for decl in &contract.end_to_end {
            let numbers = |w: &Workload, which: &str| -> Result<Option<Vec<f64>>, String> {
                let Some((_, values)) = w.metrics.iter().find(|(n, _)| *n == decl.name) else {
                    return Ok(None);
                };
                let numbers: Vec<f64> = values.iter().flatten().copied().collect();
                if numbers.is_empty() || numbers.len() != values.len() {
                    return Err(format!(
                        "{workload} {}: not a number in the {which} file",
                        decl.name
                    ));
                }
                Ok(Some(numbers))
            };
            // What the base does not assert (or, without a JIT, not hold)
            // is not compared; what it does, the new file must hold too.
            let Some(base_values) = numbers(base, "base")? else {
                continue;
            };
            let new_values = numbers(new, "new")?.ok_or(format!(
                "{workload} {}: missing from the new file",
                decl.name
            ))?;
            let bound = decl
                .bound
                .expect("end-to-end metrics carry a bound")
                .min(BOUND_CAP);
            let (verdict, spread) = verdict(&base_values, &new_values, decl.better, bound);
            pass &= verdict != Verdict::Worse;
            rows.push(Row {
                workload: workload.clone(),
                metric: decl.name.clone(),
                base: median(&base_values),
                new: median(&new_values),
                bound,
                spread,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the base file asserts no (workload, metric) pair".into());
    }
    Ok((rows, pass))
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<13} {:<20} {:>14} {:>14} {:>9} {:>6} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        println!(
            "{:<13} {:<20} {:>14.6} {:>14.6} {:>9.4} {:>6} {:>8}  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.bound,
            spread,
            r.verdict.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_runs() {
        let lower = Better::Lower;
        // Steady, 5 % slower, bound 10 %: ok.
        let (v, s) = verdict(&[100.0, 101.0, 99.0], &[105.0, 104.0, 106.0], lower, 0.10);
        assert_eq!(v, Verdict::Ok);
        assert!(s.unwrap() < 0.10);
        // Steady, 20 % slower: worse.
        let (v, _) = verdict(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], lower, 0.10);
        assert_eq!(v, Verdict::Worse);
        // Base runs scatter by more than the bound: nothing can be claimed.
        let (v, _) = verdict(&[80.0, 100.0, 125.0], &[120.0, 121.0, 119.0], lower, 0.10);
        assert_eq!(v, Verdict::Unresolved);
        // Noisy, but every new run beats every base run: ok.
        let (v, _) = verdict(&[80.0, 100.0, 125.0], &[50.0, 60.0, 70.0], lower, 0.10);
        assert_eq!(v, Verdict::Ok);
        // Single runs carry no spread: only ok / worse.
        assert_eq!(
            verdict(&[100.0], &[111.0], lower, 0.10),
            (Verdict::Worse, None)
        );
        assert_eq!(
            verdict(&[100.0], &[109.0], lower, 0.10),
            (Verdict::Ok, None)
        );
        // Higher is better: a drop is what is worse.
        assert_eq!(
            verdict(&[100.0], &[85.0], Better::Higher, 0.10).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[100.0], &[150.0], Better::Higher, 0.10).0,
            Verdict::Ok
        );
    }

    fn contract() -> Contract {
        Contract::parse(
            r#"{"workloads":[{"name":"w"}],"run_seconds":1,
                "end_to_end":[{"name":"t_ms","unit":"ms","better":"lower","bound":0.25},
                              {"name":"rate","unit":"1/s","better":"higher","bound":0.1}],
                "per_layer":[]}"#,
        )
        .unwrap()
    }

    fn all_file(t: &str, rate: &str, fail: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"s","seed":1,"run_seconds":20,
                "workloads":{{"w":{{"fail_ratio":{fail},"metrics":{{
                "t_ms":{{"values":{t}}},"rate":{{"values":{rate}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_passes_on_equal_sets_and_fails_on_a_regression() {
        let c = contract();
        let base = all_file("[10,10.1,9.9]", "[500,505,495]", "0");
        let (rows, pass) = compare(&c, &base, &base).unwrap();
        assert!(pass);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));

        // A fifth slower: inside the 0.25 the file grants the driver, past
        // the cap this check holds.
        let slow = all_file("[12,12.1,11.9]", "[500,505,495]", "0");
        let (rows, pass) = compare(&c, &base, &slow).unwrap();
        assert!(!pass);
        assert_eq!(
            (rows[0].verdict, rows[0].bound),
            (Verdict::Worse, BOUND_CAP)
        );
        assert_eq!(rows[1].verdict, Verdict::Ok);
    }

    #[test]
    fn a_higher_fail_ratio_fails_the_comparison() {
        let c = contract();
        let base = all_file("[10]", "[500]", "0");
        let failing = all_file("[10]", "[500]", "0.01");
        assert!(!compare(&c, &base, &failing).unwrap().1);
        assert!(compare(&c, &failing, &base).unwrap().1);
    }

    /// The header `all_file` writes.
    const ALIKE: &str = r#""schema":"s","seed":1,"run_seconds":20"#;

    fn run_file(header: &str, metrics: &str) -> Json {
        Json::parse(&format!(
            r#"{{{header},"workload":"w","fail_ratio":0,"metrics":{{{metrics}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn single_run_files_compare_too() {
        let c = contract();
        let run = |t: f64| run_file(ALIKE, &format!(r#""t_ms":{{"value":{t}}}"#));
        let (rows, pass) = compare(&c, &run(10.0), &run(10.5)).unwrap();
        assert!(pass);
        assert_eq!(rows.len(), 1, "only the metric the base carries");
    }

    #[test]
    fn a_metric_or_workload_the_new_file_lost_is_an_error() {
        let c = contract();
        let both = run_file(ALIKE, r#""t_ms":{"value":10},"rate":{"value":500}"#);
        let lost = run_file(ALIKE, r#""t_ms":{"value":10}"#);
        let err = compare(&c, &both, &lost).unwrap_err();
        assert!(err.contains("rate") && err.contains("missing"), "{err}");
        // The other way round the base asserts less: fine.
        assert!(compare(&c, &lost, &both).unwrap().1);

        let nan = run_file(ALIKE, r#""t_ms":{"value":10},"rate":{"value":null}"#);
        let err = compare(&c, &both, &nan).unwrap_err();
        assert!(
            err.contains("rate") && err.contains("not a number"),
            "{err}"
        );
        let some_nan = all_file("[10,10]", "[500,null]", "0");
        let base = all_file("[10,10]", "[500,500]", "0");
        assert!(compare(&c, &base, &some_nan).is_err());

        let other = Json::parse(
            r#"{"schema":"s","seed":1,"run_seconds":20,"workloads":
                {"v":{"fail_ratio":0,"metrics":{"t_ms":{"values":[10]}}}}}"#,
        )
        .unwrap();
        let err = compare(&c, &base, &other).unwrap_err();
        assert!(err.contains("w: missing"), "{err}");
    }

    #[test]
    fn what_is_not_asserted_is_not_compared_but_may_not_stop_being_asserted() {
        let c = contract();
        let filler = r#""t_ms":{"value":10},"rate":{"value":500,"asserted":false}"#;
        let base = run_file(ALIKE, filler);
        let worse_filler = run_file(
            ALIKE,
            r#""t_ms":{"value":10},"rate":{"value":5,"asserted":false}"#,
        );
        let (rows, pass) = compare(&c, &base, &worse_filler).unwrap();
        assert!(pass);
        assert_eq!(rows.len(), 1);
        // Asserted in the base, only a filler in the new file: lost.
        let asserted = run_file(ALIKE, r#""t_ms":{"value":10},"rate":{"value":500}"#);
        assert!(compare(&c, &asserted, &base).is_err());
    }

    #[test]
    fn files_that_were_not_run_alike_do_not_compare() {
        let c = contract();
        let m = r#""t_ms":{"value":10}"#;
        let base = run_file(ALIKE, m);
        for (key, header) in [
            ("seed", r#""schema":"s","seed":2,"run_seconds":20"#),
            ("run_seconds", r#""schema":"s","seed":1,"run_seconds":5"#),
            ("schema", r#""schema":"t","seed":1,"run_seconds":20"#),
        ] {
            let err = compare(&c, &base, &run_file(header, m)).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }
}
