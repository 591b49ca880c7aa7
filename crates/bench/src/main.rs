//! `figures [--quick] <dir>`: computes each §6 experiment once and writes
//! `<dir>/{fig11,fig12,fig13,fig14,fig14e,table1,table2,table3,ablation}.txt`.
//! Full scale reproduces the committed `results/` byte for byte; `--quick`
//! is a smoke run of seconds.

use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;

use chimera::{InputVersion, SystemKind};
use chimera_figures::{
    ablation, fig13, fig14_kernel, hetero_sweep, pct, table2_apps, table3, AblationRow, Fig13Row,
    Fig14Point, Scale, Table3Row, REWRITERS, SYSTEMS,
};
use chimera_kernel::SchedResult;
use chimera_workloads::blas::BlasKind::{Dgemm, Dgemv, Sgemm, Sgemv};

/// One input version's Fig. 11 sweeps, one per system in [`SYSTEMS`] order.
type Sweeps = [(SystemKind, Vec<SchedResult>); 4];

fn main() -> ExitCode {
    let Some((scale, dir)) = Scale::from_args(std::env::args().skip(1)) else {
        eprintln!("usage: figures [--quick] <dir>");
        return ExitCode::from(2);
    };
    match write_all(scale, &dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures: {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

/// Runs every experiment once, writing each output as soon as it is
/// computed.
fn write_all(scale: Scale, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let write = |name: &str, text: String| std::fs::write(dir.join(format!("{name}.txt")), text);
    // Figs. 11 and 12 read the same eight sweeps.
    let sweeps = [InputVersion::Ext, InputVersion::Base]
        .map(|input| SYSTEMS.map(|s| (s, hetero_sweep(s, input, scale))));
    write("fig11", fig11(scale.n_tasks, &sweeps))?;
    write("fig12", fig12(&sweeps))?;
    // Table 2's SPEC section is Fig. 13's rows.
    let spec = fig13(scale);
    write("fig13", fig13_txt(&spec))?;
    write("table2", table2(&table2_apps(scale), &spec))?;
    let mut fig14 = String::new();
    for kind in [Dgemm, Sgemm, Dgemv, Sgemv] {
        let title = format!("Fig. 14 — OpenBLAS {} (ratios vs FAM Ext.)", kind.name());
        let points = fig14_kernel(kind, scale.blas_size, scale.fig14_threads, 4, 4);
        fig14 += &(fig14_table(&title, &points) + "\n");
    }
    write("fig14", fig14)?;
    // Fig. 14e: sgemm on the 64-core SG2042 (32 base + 32 ext).
    let (size, threads) = (scale.blas_size * 2, scale.fig14e_threads);
    let points = fig14_kernel(Sgemm, size, threads, 32, 32);
    let title = "Fig. 14e — sgemm scalability (64-core, 32+32)";
    write("fig14e", fig14_table(title, &points))?;
    write("table1", table1())?;
    write("table3", table3_txt(&table3(scale)))?;
    write("ablation", ablation_txt(&ablation(scale)))
}

/// One table line: `label` left-aligned in `label_w` columns, then each
/// cell right-aligned in `cell_w`.
fn line<C: Display>(
    label_w: usize,
    label: impl Display,
    cell_w: usize,
    cells: impl IntoIterator<Item = C>,
) -> String {
    let mut s = format!("{label:<label_w$}");
    for cell in cells {
        s += &format!("{cell:>cell_w$}");
    }
    s + "\n"
}

/// A header of system names, then one line per sweep point from `from`
/// (0 %, 10 %, … 100 % extension share).
fn sweep_table(
    sweeps: &Sweeps,
    cell_w: usize,
    from: usize,
    cell: impl Fn(&SchedResult) -> String,
) -> String {
    let mut s = line(8, "ext%", cell_w, sweeps.iter().map(|(k, _)| k.name()));
    for i in from..=10 {
        let cells = sweeps.iter().map(|(_, pts)| cell(&pts[i]));
        s += &line(8, format!("{}%", i * 10), cell_w, cells);
    }
    s
}

/// Fig. 11: CPU time and end-to-end latency of FAM / Safer / MELF /
/// Chimera on an 8-core ISAX processor, extension-task share swept 0–100 %,
/// for both input versions, then what FAM's fault-and-migrate costs (the
/// migrations are executed, so the cost has parts).
fn fig11(n_tasks: usize, sweeps: &[Sweeps; 2]) -> String {
    let names = [
        "Extension Version (downgrading)",
        "Base Version (upgrading)",
    ];
    let mut s = String::new();
    for (name, sweeps) in names.iter().zip(sweeps) {
        s += &format!("== Fig. 11 — {name}, {n_tasks} tasks ==\n");
        s += "-- CPU time (cycles) --\n";
        s += &sweep_table(sweeps, 14, 0, |p| p.cpu_time.to_string());
        s += "-- End-to-end latency (cycles) --\n";
        s += &sweep_table(sweeps, 14, 0, |p| p.latency.to_string());
        let (_, fam) = sweeps
            .iter()
            .find(|(k, _)| *k == SystemKind::Fam)
            .expect("FAM");
        if fam.iter().any(|p| p.migrations > 0) {
            s += "-- FAM fault-and-migrate (tasks resumed on an extension core) --\n";
            s += &format!(
                "{:<8}{:>14}{:>16}{:>16}{:>16}\n",
                "ext%", "migrations", "probe cycles", "migrate cycles", "% of CPU time"
            );
            for (i, p) in fam.iter().enumerate() {
                let share = (p.probe_cycles + p.migrate_cycles) as f64 / p.cpu_time as f64;
                s += &format!(
                    "{:<8}{:>14}{:>16}{:>16}{:>15.1}%\n",
                    format!("{}%", i * 10),
                    p.migrations,
                    p.probe_cycles,
                    p.migrate_cycles,
                    100.0 * share
                );
            }
        }
        s += "\n";
    }
    s
}

/// Fig. 12: the proportion of extension tasks accelerated by the vector
/// extension, for both input versions (Fig. 11's sweeps).
fn fig12(sweeps: &[Sweeps; 2]) -> String {
    let names = ["(a) Extension Version", "(b) Base Version"];
    let mut s = String::new();
    for (name, sweeps) in names.iter().zip(sweeps) {
        s += &format!("== Fig. 12 {name} — accelerated extension tasks ==\n");
        s += &sweep_table(sweeps, 10, 1, |p| pct(p.accelerated_share()));
        s += "\n";
    }
    s
}

/// Fig. 13: performance degradation of strawman / Safer / ARMore / CHBP
/// relative to the original binary, over the 17 SPEC-like benchmarks
/// (empty-patching methodology of §6.2).
fn fig13_txt(rows: &[Fig13Row]) -> String {
    let mut s =
        String::from("== Fig. 13 — performance degradation vs original (empty patching) ==\n");
    s += &line(14, "benchmark", 12, REWRITERS.map(|r| r.name()));
    for row in rows {
        s += &line(14, row.name, 12, row.overhead.map(pct));
    }
    let mean = |i: usize| rows.iter().map(|r| r.overhead[i]).sum::<f64>() / rows.len() as f64;
    s + &line(14, "mean", 12, (0..4).map(|i| pct(mean(i))))
}

/// Table 2: correctness-mechanism trigger counts of CHBP / Safer / ARMore
/// / strawman, normalized per 10⁹ retired instructions (the paper reports
/// absolute counts of full-length runs; see EXPERIMENTS.md for the
/// normalization note).
fn table2(apps: &[Fig13Row], spec: &[Fig13Row]) -> String {
    // Paper column order: CHBP, Safer, ARMore, Strawman.
    let order = [3usize, 1, 2, 0];
    let mut s = String::from("== Table 2 — fault-handling triggers per 1e9 instructions ==\n");
    s += &line(14, "", 14, order.map(|i| REWRITERS[i].name()));
    for (section, rows) in [("Real-world applications", apps), ("SPEC CPU2017", spec)] {
        s += &format!("-- {section} --\n");
        for row in rows {
            let cells = order.map(|i| format!("{:.2e}", row.triggers_per_1e9[i]));
            s += &line(14, row.name, 14, cells);
        }
    }
    s
}

/// Fig. 14 / 14e: acceleration ratios relative to FAM Ext. per thread
/// count.
fn fig14_table(title: &str, points: &[Fig14Point]) -> String {
    let systems = ["FAM Ext.", "FAM Base", "MELF", "Chimera"];
    let mut s = format!("== {title} ==\n") + &line(8, "threads", 10, systems);
    for p in points {
        s += &line(8, p.threads, 10, p.ratios.map(|r| format!("{r:.2}")));
    }
    s
}

/// Table 1: the qualitative comparison of Chimera and related systems
/// (documentation aid; the paper's static table).
fn table1() -> String {
    let rows = [
        [
            "System",
            "Need Source Code",
            "Low Porting Effort",
            "Correctness",
            "High Perf.",
        ],
        ["FAM (scheduling)", "No", "Yes", "Yes", "No"],
        ["MELF (compilation)", "Yes", "No", "Yes", "Yes"],
        ["Multiverse (regen.)", "No", "Yes", "Yes", "No"],
        ["Safer (regen.)", "No", "Yes", "Yes", "No"],
        ["Egalito (regen.)", "No", "Yes", "No", "Yes"],
        ["SURI (regen.)", "No", "Yes", "No", "Yes"],
        ["BinRec (regen.)", "No", "Yes", "No", "Yes"],
        ["ARMore (patching)", "No", "Yes", "Yes", "No"],
        ["PIFER (patching)", "No", "Yes", "Yes", "No"],
        ["Chimera (ours)", "No", "Yes", "Yes", "Yes"],
    ];
    let mut s = String::from("== Table 1 — Comparison of Chimera and related works ==\n");
    for [a, b, c, d, e] in rows {
        s += &format!("{a:<22}{b:<18}{c:<20}{d:<13}{e:<10}\n");
    }
    s
}

/// Table 3: code size, extension-instruction share, exit trampoline count,
/// and dead-register-not-found statistics (CHBP's exit-position shifting
/// vs traditional liveness).
fn table3_txt(rows: &[Table3Row]) -> String {
    let mut s = String::from("== Table 3 — CHBP static rewriting statistics ==\n");
    // The 19-character "no-dead" title gets a 20-wide field; "exit tramp"
    // gives up its leading column so SMILE and traps stay where they were.
    s += &format!(
        "{:<14}{:>12}{:>10}{:>11}{:>20}{:>8}{:>8}\n",
        "binary", "code (KB)", "ext %", "exit tramp", "no-dead (ours/trad)", "SMILE", "traps"
    );
    for row in rows {
        let (ours, trad) = row.dead_not_found;
        s += &format!(
            "{:<14}{:>12.1}{:>9.2}%{:>12}{:>18}{:>8}{:>8}\n",
            row.name,
            row.code_size as f64 / 1024.0,
            row.ext_share * 100.0,
            row.exit_trampolines,
            format!("{ours}/{trad}"),
            row.smile,
            row.traps
        );
    }
    s
}

/// The CHBP ablation (cactuBSSN-like, empty patching).
fn ablation_txt(rows: &[AblationRow]) -> String {
    let mut s = String::from("== CHBP ablations (cactuBSSN-like, empty patching) ==\n");
    s += &format!(
        "{:<34}{:>12}{:>22}\n",
        "configuration", "overhead", "no-dead (ours/trad)"
    );
    for row in rows {
        let (ours, trad) = row.dead_not_found;
        let dead = format!("{ours}/{trad}");
        s += &format!(
            "{:<34}{:>11.1}%{dead:>22}\n",
            row.name,
            row.overhead * 100.0
        );
    }
    s
}
