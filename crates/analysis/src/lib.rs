//! # chimera-analysis
//!
//! Static binary analysis for the rewriter: recursive-descent
//! [`disassemble`]-ing (the role IDA Pro plays in the paper), basic-block /
//! control-flow-graph construction ([`Cfg`]), and conservative backward
//! register [`Liveness`] — the "traditional" dead-register search that
//! CHBP's exit-position shifting improves on.
//!
//! The rewriter disassembles the whole binary before its first
//! instruction executes, so the results are stored densely and addressed
//! by *index*: a [`Disassembly`] is one address-sorted instruction vector
//! plus a per-byte slot table over `.text` ([`InstTable`], O(1) lookup by
//! address). Where a basic block starts is one local rule: [`Cfg::build`]
//! applies it to every instruction (a block is an index range with
//! block-id successors and CSR predecessors), the rewriters only forward
//! from a patch site or a loop head ([`Disassembly::block_end`]). [`Liveness`] is solved per instruction over the forward closure
//! of the addresses that will be asked about ([`Liveness::rooted`]) —
//! CHBP's units' exits, a small fraction of the program — or of every
//! instruction ([`Liveness::compute`]); an edge to code the disassembler
//! did not recognize makes everything live. Each analysis has one,
//! sequential, implementation; [`par`] serves the rewrite pipeline's
//! per-unit stages only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfg;
mod disasm;
mod liveness;
pub mod par;
mod partition;

pub use cfg::{BasicBlock, Cfg, Terminator};
pub use chimera_isa::RegSet;
pub use disasm::{disassemble, disassemble_with, DisasmInst, Disassembly, InstTable};
pub use liveness::Liveness;
pub use partition::inst_spans;

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use chimera_isa::prng::Prng;
    use chimera_obj::{assemble, AsmOptions};

    /// Generates a small random-but-valid straightline+branch program
    /// (seeded replacement for the former proptest strategy).
    fn gen_program(rng: &mut Prng) -> String {
        let mut src = String::from("_start:\n");
        for _ in 0..rng.range_usize(1, 40) {
            let line = match rng.range_usize(0, 4) {
                0 => format!(
                    "addi t{}, t{}, {}",
                    rng.range_usize(0, 7),
                    rng.range_usize(0, 7),
                    rng.range_i64(-64, 64)
                ),
                1 => format!(
                    "add a{}, a{}, a{}",
                    rng.range_usize(0, 8),
                    rng.range_usize(0, 8),
                    rng.range_usize(0, 8)
                ),
                2 => format!("beqz t{}, end", rng.range_usize(0, 7)),
                _ => "nop".to_string(),
            };
            src.push_str("    ");
            src.push_str(&line);
            src.push('\n');
        }
        src.push_str("end:\n    ecall\n");
        src
    }

    const CASES: u64 = 128;

    /// Every recognized instruction belongs to exactly one block, and
    /// block ranges never overlap.
    #[test]
    fn cfg_partitions_disassembly() {
        for seed in 0..CASES {
            let src = gen_program(&mut Prng::new(seed));
            let bin = assemble(&src, AsmOptions::default()).unwrap();
            let d = disassemble(&bin);
            let cfg = Cfg::build(&d);
            let mut covered = 0usize;
            let mut prev_end = 0u64;
            for b in &cfg.blocks {
                assert!(b.start >= prev_end, "seed {seed}: blocks overlap");
                prev_end = b.end();
                covered += b.range().len();
            }
            assert_eq!(covered, d.insts.len(), "seed {seed}");
        }
    }

    /// Liveness is sound on generated programs: a register reported
    /// dead at an address is never the source of the instruction at
    /// that address.
    #[test]
    fn dead_register_never_used_immediately() {
        for seed in 0..CASES {
            let src = gen_program(&mut Prng::new(0x11ff ^ seed));
            let bin = assemble(&src, AsmOptions::default()).unwrap();
            let d = disassemble(&bin);
            let cfg = Cfg::build(&d);
            let l = Liveness::compute(&cfg);
            for di in d.iter() {
                if let Some(r) = l.dead_register_at(di.addr) {
                    assert!(
                        !di.inst.uses_x().contains(r),
                        "seed {seed}: reported-dead {r} read at {:#x} by {}",
                        di.addr,
                        di.inst
                    );
                }
            }
        }
    }

    /// All successor edges point at block starts.
    #[test]
    fn succ_edges_are_block_starts() {
        for seed in 0..CASES {
            let src = gen_program(&mut Prng::new(0xcf90 ^ seed));
            let bin = assemble(&src, AsmOptions::default()).unwrap();
            let d = disassemble(&bin);
            let cfg = Cfg::build(&d);
            for (id, b) in cfg.blocks.iter().enumerate() {
                assert_eq!(cfg.block_at(b.start), Some(id), "seed {seed}");
                for &s in b.succs() {
                    assert!(cfg.preds(s as usize).contains(&(id as u32)), "seed {seed}");
                }
            }
        }
    }
}
