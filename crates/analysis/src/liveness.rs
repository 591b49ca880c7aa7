//! Backward register liveness, solved per instruction over what a set of
//! roots reaches.
//!
//! This is the "traditional register liveness analysis" of §4.2 (Challenge
//! 2): it is sound but conservative — after an instruction whose
//! successors are not fully known (an indirect jump, a return, an
//! `ebreak`, a branch, jump or fallthrough to an address the disassembler
//! did not recognize) every register is assumed live. That conservatism is
//! precisely why the paper's measurement (Table 3) finds a dead register
//! at only ~64% of exit positions with plain liveness, and why CHBP adds
//! exit-position shifting on top (implemented in `chimera-rewrite`).
//!
//! A register's liveness at an address depends only on what control can
//! do from there on, so a solve needs only the *forward closure* of the
//! addresses it will be asked about: [`Liveness::rooted`] follows
//! [`successors`] from its roots through the [`InstTable`] and iterates
//! over that closure alone. The rewriter asks only at its units' exits;
//! [`Liveness::compute`] roots the same solve at every instruction.

use crate::cfg::{successors, Cfg};
use crate::disasm::InstTable;
use chimera_isa::{Inst, RegSet, XReg};

/// Liveness facts: the set of registers live *into* each analysed
/// instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Liveness {
    /// The instructions (shared with the disassembly).
    insts: InstTable,
    /// Per instruction index: its position in the analysed closure + 1,
    /// 0 for an instruction the roots do not reach.
    node_of: Vec<u32>,
    /// Live-in per analysed instruction, in closure order.
    live_in: Vec<RegSet>,
    /// Transfer evaluations the fixpoint took.
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

/// One analysed instruction: its index, and its successors as closure
/// positions — none when one is unknown (everything is live after it).
struct Node {
    inst: u32,
    succs: [u32; 2],
    n_succs: u8,
    unknown: bool,
}

impl Node {
    /// Instruction `i`, its successors as instruction indices.
    fn of(insts: &InstTable, i: usize) -> Node {
        let (targets, terminator) = successors(&insts[i]);
        let mut node = Node {
            inst: i as u32,
            succs: [0; 2],
            n_succs: 0,
            unknown: terminator.leaves_unknown(),
        };
        for t in targets.into_iter().flatten() {
            let Some(s) = insts.index_of(t) else {
                node.unknown = true;
                break;
            };
            node.succs[node.n_succs as usize] = s as u32;
            node.n_succs += 1;
        }
        if node.unknown {
            node.n_succs = 0;
        }
        node
    }
}

impl Liveness {
    /// Solves liveness over the forward closure of `roots` in `insts`, to
    /// its least fixpoint. A root that is not a recognized instruction
    /// contributes nothing (everything is live there anyway), and neither
    /// does what follows an instruction with an unknown successor.
    ///
    /// The closure is walked depth-first; its instructions are evaluated
    /// first in DFS postorder — every successor before its predecessors,
    /// back edges aside — from a worklist that re-queues an instruction's
    /// predecessors whenever its live-in grows.
    pub fn rooted(insts: &InstTable, roots: impl IntoIterator<Item = u64>) -> Liveness {
        Self::solve(insts, roots.into_iter().filter_map(|a| insts.index_of(a)))
    }

    /// [`Liveness::rooted`] at every instruction of `cfg`: the whole
    /// program.
    pub fn compute(cfg: &Cfg) -> Liveness {
        Self::solve(&cfg.insts, 0..cfg.insts.len())
    }

    /// [`Liveness::compute`]; the worker count is ignored (there is one,
    /// sequential, implementation). Kept only because `bench/` calls it.
    #[doc(hidden)]
    pub fn compute_with(cfg: &Cfg, _workers: usize) -> Liveness {
        Self::compute(cfg)
    }

    fn solve(insts: &InstTable, roots: impl Iterator<Item = usize>) -> Liveness {
        let mut node_of = vec![0u32; insts.len()];
        let mut nodes: Vec<Node> = Vec::new();
        // Adds instruction `i` to the closure; its successors stay
        // instruction indices until the closure is complete.
        let add = |i: usize, nodes: &mut Vec<Node>, node_of: &mut [u32]| {
            nodes.push(Node::of(insts, i));
            node_of[i] = nodes.len() as u32;
            nodes.len() as u32 - 1
        };

        // Depth-first walk: (node, successors visited so far).
        let mut post: Vec<u32> = Vec::new();
        let mut stack: Vec<(u32, u8)> = Vec::new();
        for root in roots {
            if node_of[root] != 0 {
                continue;
            }
            stack.push((add(root, &mut nodes, &mut node_of), 0));
            while let Some((v, k)) = stack.last_mut() {
                let node = &nodes[*v as usize];
                if *k == node.n_succs {
                    post.push(*v);
                    stack.pop();
                    continue;
                }
                let s = node.succs[*k as usize] as usize;
                *k += 1;
                if node_of[s] == 0 {
                    let w = add(s, &mut nodes, &mut node_of);
                    stack.push((w, 0));
                }
            }
        }
        for node in &mut nodes {
            for s in &mut node.succs[..node.n_succs as usize] {
                *s = node_of[*s as usize] - 1;
            }
        }

        // Predecessors in CSR form.
        let n = nodes.len();
        let mut pred_starts = vec![0u32; n + 1];
        for node in &nodes {
            for &s in &node.succs[..node.n_succs as usize] {
                pred_starts[s as usize + 1] += 1;
            }
        }
        for v in 0..n {
            pred_starts[v + 1] += pred_starts[v];
        }
        let mut fill = pred_starts.clone();
        let mut preds = vec![0u32; pred_starts[n] as usize];
        for (v, node) in nodes.iter().enumerate() {
            for &s in &node.succs[..node.n_succs as usize] {
                preds[fill[s as usize] as usize] = v as u32;
                fill[s as usize] += 1;
            }
        }

        let mut live_in = vec![RegSet::EMPTY; n];
        let mut work: Vec<u32> = post.into_iter().rev().collect();
        let mut queued = vec![true; n];
        let mut evals = 0;
        while let Some(v) = work.pop() {
            let v = v as usize;
            queued[v] = false;
            evals += 1;
            let node = &nodes[v];
            let out = if node.unknown {
                RegSet::ALL
            } else {
                let succ_ins = node.succs[..node.n_succs as usize].iter();
                succ_ins.fold(RegSet::EMPTY, |acc, &s| acc.union(live_in[s as usize]))
            };
            let (uses, def) = use_def(&insts[node.inst as usize].inst);
            let live = RegSet::from_bits(uses | (out.0 & !def));
            if live != live_in[v] {
                live_in[v] = live;
                for &p in &preds[pred_starts[v] as usize..pred_starts[v + 1] as usize] {
                    if !std::mem::replace(&mut queued[p as usize], true) {
                        work.push(p);
                    }
                }
            }
        }
        Liveness {
            insts: insts.clone(),
            node_of,
            live_in,
            evals,
        }
    }

    /// How many instructions the solve analysed: the size of its roots'
    /// forward closure (a deterministic work count).
    pub fn analysed(&self) -> usize {
        self.live_in.len()
    }

    /// Whether the instruction at `addr` was analysed.
    pub fn is_analysed(&self, addr: u64) -> bool {
        self.insts
            .index_of(addr)
            .is_some_and(|i| self.node_of[i] != 0)
    }

    /// How many transfer evaluations the fixpoint took (a deterministic
    /// work count: at least one per analysed instruction).
    pub fn transfer_evals(&self) -> usize {
        self.evals
    }

    /// The registers live into the instruction at `addr` (i.e. whose values
    /// may be read on some path from `addr`). An unrecognized address
    /// reports everything live (safe). Asking at a recognized instruction
    /// the roots do not reach is a bug in the caller's roots: a debug
    /// build panics, a release build reports everything live.
    pub fn live_in(&self, addr: u64) -> RegSet {
        let Some(i) = self.insts.index_of(addr) else {
            return RegSet::ALL;
        };
        let node = self.node_of[i];
        debug_assert!(
            node != 0,
            "liveness asked at {addr:#x}, a recognized instruction its roots do not reach"
        );
        node.checked_sub(1)
            .map_or(RegSet::ALL, |v| self.live_in[v as usize])
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
        let n = d.insts.len();
        assert_eq!(seq.analysed(), n);
        assert!((n..=4 * n).contains(&seq.transfer_evals()));
    }

    /// A rooted solve analyses what its roots reach and nothing else, and
    /// agrees with the whole-program solve there.
    #[test]
    fn rooted_solve_covers_the_forward_closure() {
        let bin = assemble(
            "
            _start:
                li t0, 5
            loop:
                addi t0, t0, -1
                bnez t0, loop
                add a0, t1, t2
                ret
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let d = disassemble(&bin);
        let whole = Liveness::compute(&Cfg::build(&d));
        let l = Liveness::rooted(&d.insts, [bin.entry + 4, 0xdead_0000]);
        let reached: Vec<u64> = d
            .iter()
            .map(|di| di.addr)
            .filter(|&a| l.is_analysed(a))
            .collect();
        let e = bin.entry;
        assert_eq!(reached, [e + 4, e + 8, e + 12, e + 16]);
        assert_eq!(l.analysed(), 4);
        for a in reached {
            assert_eq!(l.live_in(a), whole.live_in(a), "{a:#x}");
        }
        assert!(l.live_in(e + 4).contains(XReg::T1));
        assert!(!l.is_analysed(e), "the entry is recognized but not reached");
    }

    /// Asking at a recognized instruction the roots do not reach is a bug
    /// in the roots, not an "everything live" answer to rely on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "its roots do not reach")]
    fn asking_outside_the_closure_is_caught() {
        let (bin, _) = liveness("_start:\n li t0, 1\n ecall\n li t1, 2\n ebreak\n");
        let d = disassemble(&bin);
        let l = Liveness::rooted(&d.insts, [bin.entry + 8]);
        l.live_in(bin.entry);
    }

    /// A branch into code the disassembler could not decode: the kernel
    /// rewrites that code lazily and runs it later, so it may read any
    /// register. Everything is live before the branch.
    #[test]
    fn branch_into_unrecognized_code_keeps_everything_live() {
        let mut bin = assemble(
            "
            _start:
                beqz a0, lazy
                li t0, 5
                ecall
            lazy:
                ebreak
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let text = bin.section_mut(".text").unwrap();
        text.data[12..16].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let d = disassemble(&bin);
        assert!(d.at(bin.entry + 12).is_none(), "the target is unrecognized");
        let cfg = Cfg::build(&d);
        let head = &cfg.blocks[cfg.block_at(bin.entry).unwrap()];
        assert!(head.has_unknown_succs());
        let l = Liveness::compute(&cfg);
        assert_eq!(l.live_in(bin.entry), RegSet::ALL);
        assert_eq!(l.dead_register_at(bin.entry), None);
    }

    /// A fallthrough into the middle of another decode stream's block:
    /// `addi a0, sp, 0`'s upper halfword decodes as `c.nop` from the
    /// function symbol at `_start + 2`, and both streams reach the `add`
    /// at `_start + 4`, which reads `t0`.
    #[test]
    fn fallthrough_into_another_stream_is_an_edge() {
        let mut bin = assemble(
            "
            _start:
                addi a0, sp, 0
                add a1, t0, t1
                ecall
            ",
            AsmOptions::default(),
        )
        .unwrap();
        bin.symbols.push(chimera_obj::Symbol {
            name: "mid".into(),
            addr: bin.entry + 2,
            size: 0,
            kind: chimera_obj::SymKind::Func,
        });
        let d = disassemble(&bin);
        assert_eq!(d.at(bin.entry + 2).map(|di| di.len), Some(2));
        let cfg = Cfg::build(&d);
        let head = &cfg.blocks[cfg.block_at(bin.entry).unwrap()];
        let add = cfg.block_at(bin.entry + 4).expect("the add starts a block");
        assert_eq!(head.succs(), [add as u32]);
        assert!(!head.has_unknown_succs());
        let l = Liveness::compute(&cfg);
        assert!(l.live_in(bin.entry).contains(XReg::T0));
        assert_ne!(l.dead_register_at(bin.entry), Some(XReg::T0));
    }

    #[test]
    fn unknown_address_is_all_live() {
        let (_, l) = liveness("_start:\n ecall\n");
        assert_eq!(l.live_in(0xdead_0000), RegSet::ALL);
    }
}
