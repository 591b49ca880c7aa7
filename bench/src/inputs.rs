//! The four workloads as inputs: which programs each one feeds the system.
//! The program under test receives only the generated [`Binary`]s; nothing
//! in the repo's crates knows which workload it is serving.
//!
//! `--seed` draws every program's *data* (the arrays the code computes
//! on, the scalar tasks' lengths); the *code* comes from the generators at
//! one pinned seed. The generator's seed decides structure — how many
//! vector sites are reachable, which functions are register-starved — and
//! that moves every simulated metric several-fold from one seed to the
//! next (measured: `sim_downgrade_ratio` 2.1 at seeds 1–6, 6.4 at 7 and 8),
//! so a benchmark that re-drew the code per run could hold no bound.
//!
//! What separates the workloads is input shape — code size against dynamic
//! work, which rewriter produced the code, how often the code enters the
//! kernel, how many guests run at once — and which rows a rep runs over
//! them (`rows.rs`).

use chimera::RewriterKind;
use chimera_isa::prng::Prng;
use chimera_obj::{assemble, AsmOptions, Binary};
use chimera_rewrite::{chbp_rewrite, RewriteOptions};
use chimera_testutil::ManyHartScenario;
use chimera_workloads::hetero;
use chimera_workloads::speclike::{
    generate, BenchProfile, GenOptions, APP_PROFILES, SPEC_PROFILES,
};
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["launch_cold", "exec_steady", "trap_path", "hetero_churn"];

/// How a program's runnable process is produced from its input binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prep {
    /// `prepare_process(Chimera, Ext)`: the native view plus the CHBP
    /// downgrade, run on RV64GC.
    Chimera,
    /// `empty_patch_with(kind)`: a §6.2 rewriter's empty-patch variant, run
    /// on RV64GCV.
    EmptyPatch(RewriterKind),
    /// The CHBP empty-patch variant loaded on RV64GC: every vector
    /// instruction faults, is lazily rewritten with `poke_code`, and severs
    /// the cached blocks around it.
    LazyHidden,
}

pub struct ProgramSpec {
    /// Row name: the profile, or the mechanism on `trap_path`.
    pub name: &'static str,
    pub prep: Prep,
    pub input: Binary,
}

/// What a rep does with the workload's programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramRows {
    /// `launch_cold`: every rep builds the process again from the input
    /// binary (the launch) and runs it to exit in both tiers.
    LaunchAndRun,
    /// The process is built once in set-up; every rep loads it afresh and
    /// runs it to exit in both tiers.
    Run,
    /// `hetero_churn`: nothing. The program (the mix's matrix task) is
    /// there for the simulated numbers and the traced run's direct probes.
    None,
}

/// The pooled guests of `hetero_churn`'s phase A. A guest exits with
/// `exit_base` plus its hart id.
pub struct ChurnSpec {
    pub input: Binary,
    /// Guests spawned, run and recycled per rep.
    pub per_rep: usize,
    pub exit_base: i64,
}

pub struct ManySpec {
    pub scenario: ManyHartScenario,
    pub harts: usize,
    pub quantum: u64,
}

pub struct Inputs {
    pub programs: Vec<ProgramSpec>,
    pub program_rows: ProgramRows,
    pub churn: Option<ChurnSpec>,
    pub many: Option<ManySpec>,
    /// Fixed warm-up reps run at the end of set-up.
    pub warmups: usize,
    /// Time spent in `chimera_workloads` generators (assembly included).
    pub generate_ns: u64,
}

fn profile(name: &str) -> &'static BenchProfile {
    SPEC_PROFILES
        .iter()
        .chain(APP_PROFILES)
        .find(|p| p.name == name)
        .expect("known SPEC or application profile")
}

/// The pooled-guest source: dirties its stack and `.data`, runs vector
/// code (so its CHBP rewrite is not trivial) and exits with the sum of
/// `buf` plus its hart id. `buf` comes from the seed.
fn churn_guest_source(buf: [u64; 4]) -> String {
    format!(
        "
    .data
    buf: .dword {}
         .dword {}
         .dword {}
         .dword {}
    acc: .dword 0
    .text
    _start:
        li a7, 0x7a00       # HART_ID
        ecall
        mv s0, a0
        addi sp, sp, -32
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
        sd t2, 0(a1)
        ld t3, 0(sp)
        add a0, t2, t3
        addi sp, sp, 32
        li a7, 93
        ecall
",
        buf[0], buf[1], buf[2], buf[3]
    )
}

/// Assembles the churn guest for `seed`; returns it with the exit base.
pub fn churn_guest(seed: u64) -> (Binary, i64) {
    let buf = [0, 1, 2, 3].map(|i| 2 + (seed.wrapping_mul(2654435761) >> (8 * i)) % 50);
    let bin = assemble(&churn_guest_source(buf), AsmOptions::default()).expect("guest assembles");
    (bin, buf.iter().sum::<u64>() as i64)
}

/// The code seed: `GenOptions::default()`'s, the one every table and
/// figure harness in `crates/bench` generates its programs with.
const CODE_SEED: u64 = 42;

/// Overwrites the array of `dwords` values at byte `offset` of `.data`
/// with values drawn from `seed`, in the range the generators themselves
/// use. Data labels are not exported as symbols, so the array is found by
/// the generator's layout; `was` is the generator's own fill, checked
/// first so a layout change fails here instead of corrupting something.
fn draw_data(
    bin: &mut Binary,
    array: &str,
    offset: u64,
    dwords: usize,
    was: impl Fn(u64) -> u64,
    seed: u64,
) {
    let base = bin.section(".data").expect("generated .data").addr + offset;
    let mut rng = Prng::stream(seed, array);
    for i in 0..dwords as u64 {
        let addr = base + 8 * i;
        let old = bin.read(addr, 8).map(|b| b.to_vec());
        assert_eq!(
            old,
            Some(was(i).to_le_bytes().to_vec()),
            "{array}[{i}] is not where the generator used to put it"
        );
        assert!(bin.write(addr, &rng.below(127).to_le_bytes()));
    }
}

struct Gen {
    seed: u64,
    ns: u64,
}

impl Gen {
    fn spec(&mut self, name: &str, size_scale: f64, work_scale: f64) -> Binary {
        let t = Instant::now();
        let mut bin = generate(
            profile(name),
            GenOptions {
                size_scale,
                work_scale,
                seed: CODE_SEED,
            },
        );
        draw_data(&mut bin, "varr", 0, 32, |i| (i * 11 + 3) % 127, self.seed);
        self.ns += t.elapsed().as_nanos() as u64;
        bin
    }

    fn matrix(&mut self, n: usize, reps: usize) -> Binary {
        let t = Instant::now();
        let mut bin = hetero::matrix_task(n, reps, true);
        draw_data(&mut bin, "va", 0, n, |i| (i * 3 + 1) % 97, self.seed);
        draw_data(
            &mut bin,
            "vb",
            8 * n as u64,
            n,
            |i| (i * 7 + 2) % 89,
            self.seed,
        );
        self.ns += t.elapsed().as_nanos() as u64;
        bin
    }

    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        out
    }
}

/// One pass over the code: `work_scale` small enough that the generator's
/// outer loop runs once.
const ONE_PASS: f64 = 0.01;

/// Builds a workload's inputs. `quick` shrinks sizes and counts so `--all`
/// finishes in seconds; the code paths are the same, the numbers are not
/// comparable with a full run.
pub fn build(workload: &str, seed: u64, quick: bool) -> Result<Inputs, String> {
    let mut g = Gen { seed, ns: 0 };
    let shrink = if quick { 1.0 / 16.0 } else { 1.0 };
    let mut inputs = Inputs {
        programs: Vec::new(),
        program_rows: ProgramRows::Run,
        churn: None,
        many: None,
        warmups: if quick { 1 } else { 2 },
        generate_ns: 0,
    };
    match workload {
        // Two MB-sized programs, one pass over the code each. omnetpp_r is
        // indirect-call heavy, so a launch executes most of its functions
        // once (the cold-code case for the emu tiers); cactuBSSN_r is dense
        // in vector sites but reaches under a tenth of its functions, as a
        // real launch does, so nearly all of its cost is analysis + rewrite.
        "launch_cold" => {
            for (name, size) in [("omnetpp_r", 0.5), ("cactuBSSN_r", 0.25)] {
                inputs.programs.push(ProgramSpec {
                    name,
                    prep: Prep::Chimera,
                    input: g.spec(name, size * shrink, ONE_PASS),
                });
            }
            inputs.program_rows = ProgramRows::LaunchAndRun;
            // A rep takes most of a second here.
            inputs.warmups = 1;
        }
        // The jit_tier / exec_engine zoo: indirect-heavy, large-code,
        // vector-leaning and balanced profiles, small code, about six
        // million dynamic instructions each.
        "exec_steady" => {
            for (name, work) in [
                ("perlbench_r", 48.0),
                ("gcc_r", 18.0),
                ("cactuBSSN_r", 28.0),
                ("imagick_r", 70.0),
            ] {
                inputs.programs.push(ProgramSpec {
                    name,
                    prep: Prep::Chimera,
                    input: g.spec(name, 1.0 / 64.0, work * shrink),
                });
            }
            // A rep takes over half a second here.
            inputs.warmups = 1;
        }
        // One program per kernel-entry mechanism.
        "trap_path" => {
            for (name, profile, prep, work) in [
                (
                    "strawman_entry",
                    "xalancbmk_r",
                    Prep::EmptyPatch(RewriterKind::Strawman),
                    16.0,
                ),
                (
                    "armore_redirect",
                    "perlbench_r",
                    Prep::EmptyPatch(RewriterKind::Armore),
                    ONE_PASS,
                ),
                (
                    "safer_check",
                    "omnetpp_r",
                    Prep::EmptyPatch(RewriterKind::Safer),
                    16.0,
                ),
                ("lazy_hidden", "cactuBSSN_r", Prep::LazyHidden, 4.0),
            ] {
                inputs.programs.push(ProgramSpec {
                    name,
                    prep,
                    input: g.spec(profile, 1.0 / 64.0, work * shrink.max(0.25)),
                });
            }
        }
        // Phase A: pooled guests; phase B: the many-hart mix (native RVV,
        // FAM harts migrating mid-run, fib, strawman, SMILE, IPI/WFI
        // communicators).
        "hetero_churn" => {
            let (guest, exit_base) = g.timed(|| churn_guest(seed));
            inputs.churn = Some(ChurnSpec {
                input: guest,
                per_rep: if quick { 100 } else { 1000 },
                exit_base,
            });
            let matrix_ext = g.matrix(16, 2);
            inputs.programs.push(ProgramSpec {
                name: "matrix_task",
                prep: Prep::Chimera,
                input: matrix_ext.clone(),
            });
            inputs.program_rows = ProgramRows::None;
            let scenario = g.timed(|| many_scenario(matrix_ext, seed))?;
            inputs.many = Some(ManySpec {
                scenario,
                harts: if quick { 64 } else { 256 },
                // Odd and small: every long-running hart is suspended and
                // resumed many times, at boundaries that walk through the
                // guest loops.
                quantum: 97,
            });
            // A rep takes about a tenth of a second here.
            inputs.warmups = if quick { 1 } else { 8 };
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    inputs.generate_ns = g.ns;
    Ok(inputs)
}

/// The standard heterogeneous mix with the scalar task's length drawn from
/// the seed (the rewritten variants are built once, here, not per hart).
fn many_scenario(matrix_ext: Binary, seed: u64) -> Result<ManyHartScenario, String> {
    let rewrite = |opts| {
        chbp_rewrite(&matrix_ext, chimera_isa::ExtSet::RV64GC, opts).map_err(|e| e.to_string())
    };
    Ok(ManyHartScenario {
        matrix_chbp: rewrite(RewriteOptions::default())?,
        matrix_trap: rewrite(RewriteOptions {
            force_trap_entries: true,
            ..Default::default()
        })?,
        matrix_ext,
        fib: hetero::fib_task(300 + seed % 32, 2),
        comm: hetero::communicator_task(3, 4),
    })
}
