//! Regenerates Fig. 11: CPU time and end-to-end latency of FAM / Safer /
//! MELF / Chimera on an 8-core ISAX processor, extension-task share swept
//! 0–100%, for both input versions, then what FAM's fault-and-migrate costs
//! (the migrations are executed, so the cost has parts). Pass `--quick`
//! for a fast smoke run.

use chimera::{InputVersion, SystemKind};
use chimera_bench::{hetero_sweep, Scale, SYSTEMS};

fn main() {
    let scale = Scale::from_args();
    for (input, name) in [
        (InputVersion::Ext, "Extension Version (downgrading)"),
        (InputVersion::Base, "Base Version (upgrading)"),
    ] {
        println!("== Fig. 11 — {name}, {} tasks ==", scale.n_tasks);
        let sweeps: Vec<_> = SYSTEMS
            .iter()
            .map(|s| (s.name(), hetero_sweep(*s, input, scale)))
            .collect();

        println!("-- CPU time (cycles) --");
        print!("{:<8}", "ext%");
        for (n, _) in &sweeps {
            print!("{n:>14}");
        }
        println!();
        for i in 0..=10 {
            print!("{:<8}", format!("{}%", i * 10));
            for (_, pts) in &sweeps {
                print!("{:>14}", pts[i].cpu_time);
            }
            println!();
        }
        println!("-- End-to-end latency (cycles) --");
        print!("{:<8}", "ext%");
        for (n, _) in &sweeps {
            print!("{n:>14}");
        }
        println!();
        for i in 0..=10 {
            print!("{:<8}", format!("{}%", i * 10));
            for (_, pts) in &sweeps {
                print!("{:>14}", pts[i].latency);
            }
            println!();
        }
        let fam = sweeps.iter().find(|(n, _)| *n == SystemKind::Fam.name());
        let fam = &fam.expect("FAM is one of SYSTEMS").1;
        if fam.iter().any(|p| p.migrations > 0) {
            println!("-- FAM fault-and-migrate (tasks resumed on an extension core) --");
            println!(
                "{:<8}{:>14}{:>16}{:>16}{:>16}",
                "ext%", "migrations", "probe cycles", "migrate cycles", "% of CPU time"
            );
            for (i, p) in fam.iter().enumerate() {
                println!(
                    "{:<8}{:>14}{:>16}{:>16}{:>15.1}%",
                    format!("{}%", i * 10),
                    p.migrations,
                    p.probe_cycles,
                    p.migrate_cycles,
                    100.0 * (p.probe_cycles + p.migrate_cycles) as f64 / p.cpu_time as f64
                );
            }
        }
        println!();
    }
}
