//! The benchmark's declared contract: `BENCHMARK.json` at the repo root,
//! embedded at build time and cross-checked at start-up and against every
//! run's output, so the file and the binary can never drift apart.

use crate::json::Json;
use crate::stats::Better;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const PROGRAM_WORKLOADS: &[&str] = &["launch_cold", "exec_steady", "trap_path"];

/// The workloads each end-to-end metric is built for, asserted on and
/// compared on (ISSUE 12's "reported on" column). `BENCHMARK.json` has no
/// place for it, and makes every run print every metric: on a workload a
/// metric is not listed for, the number is derived from what that workload
/// measures anyway and written with `"asserted": false`.
pub const MATRIX: [(&str, &[&str]); 11] = [
    ("launch_ms", &["launch_cold"]),
    ("guest_mips", PROGRAM_WORKLOADS),
    ("guest_mips_jit", PROGRAM_WORKLOADS),
    ("procs_per_s", &["hetero_churn"]),
    ("hart_mips", &["hetero_churn"]),
    ("sim_overhead_pct", &["exec_steady"]),
    ("sim_downgrade_ratio", &["exec_steady"]),
    ("sim_cpi", &["trap_path"]),
    ("code_growth_pct", &["launch_cold"]),
    ("peak_rss_mb", &crate::inputs::WORKLOADS),
    ("setup_s", &crate::inputs::WORKLOADS),
];

/// Whether `metric` is one `workload` is built for.
pub fn in_matrix(metric: &str, workload: &str) -> bool {
    MATRIX
        .iter()
        .any(|(m, on)| *m == metric && on.contains(&workload))
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metrics(doc: &Json, key: &str, bounded: bool) -> Result<Vec<MetricDecl>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))?;
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or(format!("BENCHMARK.json: {key} entry lacks `{f}`"))
            };
            let name = field("name")?.to_string();
            if !valid_name(&name) {
                return Err(format!("BENCHMARK.json: bad metric name {name:?}"));
            }
            let better = Better::parse(field("better")?)
                .ok_or(format!("BENCHMARK.json: {name}: bad `better`"))?;
            let bound = m.get("bound").and_then(Json::as_f64);
            if bounded != bound.is_some() {
                return Err(format!("BENCHMARK.json: {name}: bound only on end_to_end"));
            }
            Ok(MetricDecl {
                name,
                unit: field("unit")?.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .filter(|n| valid_name(n))
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload without a valid name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let contract = Contract {
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` missing")?,
            end_to_end: metrics(&doc, "end_to_end", true)?,
            per_layer: metrics(&doc, "per_layer", false)?,
        };
        let mut names: Vec<&str> = contract
            .end_to_end
            .iter()
            .chain(&contract.per_layer)
            .map(|m| m.name.as_str())
            .chain(contract.workloads.iter().map(String::as_str))
            .collect();
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("BENCHMARK.json: name {:?} used twice", dup[0]));
        }
        Ok(contract)
    }

    /// The embedded `BENCHMARK.json`.
    pub fn embedded() -> Result<Contract, String> {
        Contract::parse(BENCHMARK_JSON)
    }

    /// The metrics a run must print: end-to-end untraced, per-layer traced.
    pub fn declared(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Every declared metric is emitted and every emitted metric declared.
    /// Since each run prints the whole declared list, that covers every
    /// (metric, workload) pair of [`MATRIX`]. `may_omit` names what this
    /// host cannot measure at all.
    pub fn check_emitted<'a>(
        &self,
        trace: bool,
        emitted: impl IntoIterator<Item = &'a str>,
        may_omit: &[&str],
    ) -> Result<(), String> {
        let emitted: Vec<&str> = emitted.into_iter().collect();
        let declared = self.declared(trace);
        if let Some(m) = declared
            .iter()
            .map(|m| m.name.as_str())
            .find(|m| !emitted.contains(m) && !may_omit.contains(m))
        {
            return Err(format!("declared metric `{m}` was not emitted"));
        }
        if let Some(e) = emitted
            .iter()
            .find(|e| !declared.iter().any(|m| m.name == **e))
        {
            return Err(format!("emitted metric `{e}` is not declared"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_contract_parses_and_names_the_four_workloads() {
        let c = Contract::embedded().unwrap();
        assert_eq!(
            c.workloads,
            crate::inputs::WORKLOADS.map(str::to_string).to_vec()
        );
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(c.per_layer.len() <= 128);
    }

    #[test]
    fn the_matrix_covers_exactly_the_declared_end_to_end_metrics() {
        let c = Contract::embedded().unwrap();
        let declared: Vec<&str> = c.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(declared, MATRIX.map(|(m, _)| m).to_vec());
        for (metric, on) in MATRIX {
            assert!(!on.is_empty(), "{metric} is built for no workload");
            assert!(on.iter().all(|w| c.workloads.iter().any(|d| d == w)));
        }
        assert!(in_matrix("launch_ms", "launch_cold"));
        assert!(!in_matrix("launch_ms", "exec_steady"));
        assert!(in_matrix("setup_s", "hetero_churn"));
        assert!(!in_matrix("no_such_metric", "launch_cold"));
    }

    #[test]
    fn emitted_set_must_equal_declared_set() {
        let c = Contract::parse(
            r#"{"workloads":[{"name":"w"}],"run_seconds":1,
                "end_to_end":[{"name":"a","unit":"ms","better":"lower","bound":0.1}],
                "per_layer":[{"name":"l.x","unit":"count","better":"higher"}]}"#,
        )
        .unwrap();
        assert!(c.check_emitted(false, ["a"], &[]).is_ok());
        assert!(c.check_emitted(false, [], &[]).unwrap_err().contains("`a`"));
        assert!(c.check_emitted(false, [], &["a"]).is_ok());
        assert!(c
            .check_emitted(false, ["a", "b"], &[])
            .unwrap_err()
            .contains("`b`"));
        assert!(c.check_emitted(true, ["l.x"], &[]).is_ok());
    }

    #[test]
    fn rejects_bad_names_duplicates_and_misplaced_bounds() {
        let with = |e2e: &str, layer: &str| {
            Contract::parse(&format!(
                r#"{{"workloads":[{{"name":"w"}}],"run_seconds":1,
                    "end_to_end":[{e2e}],"per_layer":[{layer}]}}"#
            ))
        };
        let ok = r#"{"name":"a","unit":"ms","better":"lower","bound":0.1}"#;
        assert!(with(ok, "").is_ok());
        assert!(with(&ok.replace("\"a\"", "\"a b\""), "").is_err());
        assert!(with(&ok.replace("\"a\"", "\".a\""), "").is_err());
        assert!(with(ok, r#"{"name":"a","unit":"ms","better":"lower"}"#).is_err());
        assert!(with(ok, ok).is_err());
        assert!(with(&ok.replace("lower", "sideways"), "").is_err());
    }
}
