//! # chimera-fuzzing
//!
//! The differential fuzzing harness: a seeded generator of
//! random-but-valid RV64GCV programs ([`gen`]), an oracle runner that
//! executes every configuration pair — reference interpreter vs
//! decode-cache vs micro-op engine, cache on/off, trace on/off, every
//! [`RewriteEngine`](chimera_rewrite::RewriteEngine) at 1/2/4/8 workers,
//! full vs cached vs incremental rewrites, kernel-mediated execution,
//! and misaligned entry into every SMILE trampoline — hard-asserting
//! bit-identical observations ([`oracle`]); a delta-debugging minimizer
//! ([`mod@minimize`]); and a reproducer file format replayed as regression
//! tests ([`repro`]).
//!
//! The harness follows the wasmtime `diff_wasmi` oracle shape: one
//! generator, one `check_case` entry point that either returns coverage
//! counters or the *first* divergence, and a shrinking loop that turns
//! any divergence into a tiny committed reproducer. Everything is
//! deterministic from a single root seed (via `Prng` named streams), so
//! a failure in CI replays locally from the printed seed alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod repro;

pub use gen::{generate, FuzzCase, GenOp, Op, OpClass, GEN_VERSION};
pub use minimize::minimize;
pub use oracle::{check_case, Coverage, Divergence, Inject};
pub use repro::{parse_reproducer, render_reproducer, Reproducer};
