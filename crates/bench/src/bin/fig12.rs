//! Regenerates Fig. 12: the proportion of extension tasks accelerated by
//! the vector extension, for both input versions.

use chimera::InputVersion;
use chimera_bench::{hetero_sweep, pct, Scale, SYSTEMS};

fn main() {
    let scale = Scale::from_args();
    for (input, name) in [
        (InputVersion::Ext, "(a) Extension Version"),
        (InputVersion::Base, "(b) Base Version"),
    ] {
        println!("== Fig. 12 {name} — accelerated extension tasks ==");
        let sweeps: Vec<_> = SYSTEMS
            .iter()
            .map(|s| (s.name(), hetero_sweep(*s, input, scale)))
            .collect();
        print!("{:<8}", "ext%");
        for (n, _) in &sweeps {
            print!("{n:>10}");
        }
        println!();
        for i in 1..=10 {
            print!("{:<8}", format!("{}%", i * 10));
            for (_, pts) in &sweeps {
                print!("{:>10}", pct(pts[i].accelerated_share()));
            }
            println!();
        }
        println!();
    }
}
