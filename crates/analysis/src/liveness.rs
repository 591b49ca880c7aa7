//! Backward register-liveness dataflow over the CFG.
//!
//! This is the "traditional register liveness analysis" of §4.2 (Challenge
//! 2): it is sound but conservative — at any block whose successors are not
//! fully known (indirect jumps, returns, unrecognized fallthrough) every
//! register is assumed live. That conservatism is precisely why the paper's
//! measurement (Table 3) finds a dead register at only ~64% of exit
//! positions with plain liveness, and why CHBP adds exit-position shifting
//! on top (implemented in `chimera-rewrite`).

use crate::cfg::{BasicBlock, Cfg};
use crate::disasm::InstTable;
use chimera_isa::{Inst, RegSet, XReg};

/// Liveness facts: the set of registers live *into* each instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Liveness {
    /// The analyzed instructions (shared with the disassembly).
    insts: InstTable,
    /// live-in per instruction index.
    live_in: Vec<RegSet>,
    /// Block-transfer evaluations the fixpoint took.
    evals: usize,
}

/// Registers that must never be treated as dead regardless of dataflow:
/// the ABI gives them process-wide meaning (`zero`, `ra` is excluded —
/// it is clobberable between calls and a prime trampoline candidate — but
/// `sp`/`gp`/`tp` hold ambient state).
fn pinned() -> RegSet {
    let mut s = RegSet::EMPTY;
    s.insert(XReg::ZERO);
    s.insert(XReg::SP);
    s.insert(XReg::GP);
    s.insert(XReg::TP);
    s
}

/// The registers one instruction reads and the one it writes, as masks.
fn use_def(inst: &Inst) -> (u32, u32) {
    (inst.uses_x().0, inst.def_x().map_or(0, |d| 1 << d.index()))
}

/// The registers live *out of* block `b`: the union of its successors'
/// live-ins — everything, when its successors are not fully known.
fn live_out(b: &BasicBlock, block_in: &[RegSet]) -> RegSet {
    if b.has_unknown_succs() {
        return RegSet::ALL;
    }
    let succ_ins = b.succs().iter().map(|&s| block_in[s as usize]);
    succ_ins.fold(RegSet::EMPTY, RegSet::union)
}

impl Liveness {
    /// Runs the backward dataflow to its least fixpoint.
    ///
    /// Each block is summarized once as `live_in = gen | (live_out & !kill)`,
    /// so a transfer evaluation is O(1). A worklist seeded with every
    /// block — popped in reverse address order, a decent approximation of
    /// reverse topological order for typical layouts — re-queues a block's
    /// predecessors whenever its live-in grows.
    pub fn compute(cfg: &Cfg) -> Liveness {
        let n = cfg.blocks.len();
        let gen_kill: Vec<(u32, u32)> = (cfg.blocks.iter())
            .map(|b| {
                cfg.insts(b).iter().fold((0, 0), |(gen, kill), di| {
                    let (uses, def) = use_def(&di.inst);
                    (gen | (uses & !kill), kill | def)
                })
            })
            .collect();

        let mut block_in = vec![RegSet::EMPTY; n];
        let mut work: Vec<u32> = (0..n as u32).collect();
        let mut queued = vec![true; n];
        let mut evals = 0;
        while let Some(b) = work.pop() {
            let b = b as usize;
            queued[b] = false;
            evals += 1;
            let (gen, kill) = gen_kill[b];
            let live = RegSet(gen | (live_out(&cfg.blocks[b], &block_in).0 & !kill));
            if live != block_in[b] {
                block_in[b] = live;
                for &p in cfg.preds(b) {
                    if !std::mem::replace(&mut queued[p as usize], true) {
                        work.push(p);
                    }
                }
            }
        }

        // Expand to per-instruction live-in.
        let mut live_in = vec![RegSet::ALL; cfg.insts.len()];
        for b in &cfg.blocks {
            let mut live = live_out(b, &block_in);
            for i in b.range().rev() {
                let (uses, def) = use_def(&cfg.insts[i].inst);
                live = RegSet(uses | (live.0 & !def));
                live_in[i] = live;
            }
        }
        Liveness {
            insts: cfg.insts.clone(),
            live_in,
            evals,
        }
    }

    /// [`Liveness::compute`]; the worker count is ignored (there is one,
    /// sequential, implementation). Kept only because `bench/` calls it.
    #[doc(hidden)]
    pub fn compute_with(cfg: &Cfg, _workers: usize) -> Liveness {
        Self::compute(cfg)
    }

    /// How many block-transfer evaluations the fixpoint took (a
    /// deterministic work count: at least one per block).
    pub fn transfer_evals(&self) -> usize {
        self.evals
    }

    /// The registers live into the instruction at `addr` (i.e. whose values
    /// may be read on some path from `addr`). Unanalyzed addresses report
    /// everything live (safe).
    pub fn live_in(&self, addr: u64) -> RegSet {
        self.insts
            .index_of(addr)
            .map_or(RegSet::ALL, |i| self.live_in[i])
    }

    /// A register that is *dead* immediately before `addr` — safe for a
    /// trampoline at `addr` to clobber — preferring caller-saved
    /// temporaries. `None` when everything usable is live.
    ///
    /// This is the primitive behind both "traditional liveness" exit
    /// register selection and CHBP's exit-position shifting.
    pub fn dead_register_at(&self, addr: u64) -> Option<XReg> {
        let live = self.live_in(addr).union(pinned());
        XReg::caller_saved().find(|r| !live.contains(*r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::disasm::disassemble;
    use chimera_obj::{assemble, AsmOptions};

    fn liveness(src: &str) -> (chimera_obj::Binary, Liveness) {
        let bin = assemble(src, AsmOptions::default()).unwrap();
        let d = disassemble(&bin);
        let cfg = Cfg::build(&d);
        (bin, Liveness::compute(&cfg))
    }

    #[test]
    fn redefined_register_is_dead_before_def() {
        // t0 is written before being read: dead at the first instruction.
        let (bin, l) = liveness(
            "
            _start:
                li t0, 1      # t0 dead *before* this (it's about to be overwritten)
                add a0, t0, t0
                li t0, 2      # at this point old t0 value is dead
                add a1, t0, t0
                ecall
        ",
        );
        // Before the second li t0: t0's old value is dead.
        let live = l.live_in(bin.entry + 8);
        assert!(!live.contains(chimera_isa::XReg::T0));
        // Before the first add: t0 live.
        let live = l.live_in(bin.entry + 4);
        assert!(live.contains(chimera_isa::XReg::T0));
    }

    #[test]
    fn loop_keeps_counter_live() {
        let (bin, l) = liveness(
            "
            _start:
                li t0, 5
            loop:
                addi t0, t0, -1
                bnez t0, loop
                ecall
        ",
        );
        // Inside the loop t0 is live (read by addi and bnez and next iter).
        let live = l.live_in(bin.entry + 4);
        assert!(live.contains(chimera_isa::XReg::T0));
    }

    #[test]
    fn indirect_jump_forces_all_live() {
        let (bin, l) = liveness(
            "
            _start:
                addi t1, t1, 1
                jr a0
        ",
        );
        let live = l.live_in(bin.entry);
        // Everything is live because the jr's successors are unknown.
        assert!(live.contains(chimera_isa::XReg::T2));
        assert_eq!(l.dead_register_at(bin.entry), None);
    }

    #[test]
    fn dead_register_found_in_straightline_code() {
        // Everything dead after the ecall path; before `li t5` the old t5
        // is dead, and succeeding code never reads most temporaries.
        let (bin, l) = liveness(
            "
            _start:
                li t5, 1
                add a0, t5, t5
                li a7, 93
                ecall
        ",
        );
        // ecall has a fallthrough to unrecognized code → its *own* block
        // conservatively ends; but before the first li, t5 is dead.
        let dead = l.dead_register_at(bin.entry);
        assert_eq!(dead, Some(chimera_isa::XReg::T5));
    }

    #[test]
    fn pinned_registers_never_reported_dead() {
        let (bin, l) = liveness(
            "
            _start:
                li t0, 1
                ecall
        ",
        );
        if let Some(r) = l.dead_register_at(bin.entry) {
            assert!(
                r != chimera_isa::XReg::GP
                    && r != chimera_isa::XReg::SP
                    && r != chimera_isa::XReg::TP
            );
        }
    }

    #[test]
    fn shim_matches_compute_and_counts_its_work() {
        let src = "
            _start:
                li t0, 5
                li a0, 0
            loop:
                add a0, a0, t0
                addi t0, t0, -1
                beqz t1, skip
                addi a1, a1, 1
            skip:
                bnez t0, loop
                jr ra
        ";
        let bin = assemble(src, AsmOptions::default()).unwrap();
        let d = disassemble(&bin);
        let cfg = Cfg::build(&d);
        let seq = Liveness::compute(&cfg);
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                Liveness::compute_with(&cfg, workers),
                seq,
                "{workers} workers"
            );
        }
        let blocks = cfg.blocks.len();
        assert!((blocks..=4 * blocks).contains(&seq.transfer_evals()));
    }

    #[test]
    fn unknown_address_is_all_live() {
        let (_, l) = liveness("_start:\n ecall\n");
        assert_eq!(l.live_in(0xdead_0000), RegSet::ALL);
    }
}
