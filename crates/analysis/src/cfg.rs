//! Basic blocks and the control-flow graph over a [`Disassembly`].
//!
//! Successor edges are *known* edges only: an indirect jump (`jalr`)
//! contributes no successors and is flagged on the block, so downstream
//! analyses (liveness) can be conservative there — the same conservatism
//! that limits traditional dead-register search (§4.2, Challenge 2).

use crate::disasm::{DisasmInst, Disassembly, InstTable};
use chimera_isa::{Inst, XReg};
use std::ops::Range;

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Falls through to the next block.
    Fallthrough,
    /// Conditional branch: taken target + fallthrough.
    Branch,
    /// Direct jump (`jal`): one target, plus fallthrough when linking
    /// (a call).
    Jump {
        /// Whether the jump links (i.e. is a call and returns).
        is_call: bool,
    },
    /// Indirect jump (`jalr`): unknown targets.
    Indirect {
        /// Whether the jump links (an indirect call returns to the
        /// fallthrough).
        is_call: bool,
    },
    /// `ecall` / `ebreak` / end of recognized code.
    Stop,
}

/// A basic block: a run of consecutive instructions of the disassembly.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: u64,
    /// One past the last byte of the block.
    end: u64,
    /// The block's instructions, as indices into the disassembly.
    insts: Range<u32>,
    /// Known successors (block ids); only the first `n_succs` are valid.
    succs: [u32; 2],
    n_succs: u8,
    /// How the block ends.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// One past the last byte of the block.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The block's instructions, as an index range into the address-ordered
    /// instruction vector ([`Cfg::insts`] resolves it).
    pub fn range(&self) -> Range<usize> {
        self.insts.start as usize..self.insts.end as usize
    }

    /// Known successors, as block ids (indices into [`Cfg::blocks`]).
    pub fn succs(&self) -> &[u32] {
        &self.succs[..self.n_succs as usize]
    }

    /// Whether the block's successor set is incomplete (indirect control
    /// flow); liveness must assume everything is live after it.
    pub fn has_unknown_succs(&self) -> bool {
        matches!(
            self.terminator,
            Terminator::Indirect { .. } | Terminator::Stop
        )
    }
}

/// A control-flow graph.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Blocks in address order; a block's position is its id.
    pub blocks: Vec<BasicBlock>,
    /// The instructions the blocks index into (shared with the
    /// disassembly).
    pub(crate) insts: InstTable,
    /// Owning block id per instruction index.
    block_of: Vec<u32>,
    /// Predecessor edges in CSR form: block `b`'s predecessors are
    /// `pred_ids[pred_starts[b]..pred_starts[b + 1]]`.
    pred_starts: Vec<u32>,
    pred_ids: Vec<u32>,
}

impl Cfg {
    /// The instructions of `block`, in order.
    pub fn insts(&self, block: &BasicBlock) -> &[DisasmInst] {
        &self.insts[block.range()]
    }

    /// The ids of the blocks with an edge into block `id`.
    pub fn preds(&self, id: usize) -> &[u32] {
        &self.pred_ids[self.pred_starts[id] as usize..self.pred_starts[id + 1] as usize]
    }

    /// The id of the block whose first instruction is at `addr`, if any.
    pub fn block_at(&self, addr: u64) -> Option<usize> {
        let id = self.block_of[self.insts.index_of(addr)?] as usize;
        (self.blocks[id].start == addr).then_some(id)
    }

    /// The block containing `addr`, if any.
    pub fn block_containing(&self, addr: u64) -> Option<&BasicBlock> {
        let idx = self.insts.covering_index(addr)?;
        Some(&self.blocks[self.block_of[idx] as usize])
    }

    /// Builds the CFG from a disassembly.
    pub fn build(d: &Disassembly) -> Cfg {
        let insts = &d.insts[..];
        // Leaders: targets of direct control flow, data-referenced
        // addresses and instructions after terminators (marked as the
        // scan reaches the terminator); the first instruction and any
        // instruction after an address discontinuity start a block too.
        let mut leader = vec![false; insts.len()];
        for &t in d.targets.iter().chain(&d.data_refs) {
            if let Some(i) = d.insts.index_of(t) {
                leader[i] = true;
            }
        }

        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of = vec![0u32; insts.len()];
        let mut first = 0;
        for (i, di) in insts.iter().enumerate() {
            if di.inst.is_terminator() {
                if let Some(next) = d.insts.index_of(di.next_addr()) {
                    leader[next] = true;
                }
            }
            block_of[i] = blocks.len() as u32;
            let ends = insts
                .get(i + 1)
                .is_none_or(|next| next.addr != di.next_addr() || leader[i + 1]);
            if ends {
                blocks.push(BasicBlock {
                    start: insts[first].addr,
                    end: di.next_addr(),
                    insts: first as u32..i as u32 + 1,
                    succs: [0; 2],
                    n_succs: 0,
                    terminator: Terminator::Stop,
                });
                first = i + 1;
            }
        }

        let mut cfg = Cfg {
            blocks,
            insts: d.insts.clone(),
            block_of,
            pred_starts: Vec::new(),
            pred_ids: Vec::new(),
        };
        // Successor edges, kept only where the target starts a block; the
        // per-target edge counts become the CSR row starts.
        let mut pred_starts = vec![0u32; cfg.blocks.len() + 1];
        for b in 0..cfg.blocks.len() {
            let last = &insts[cfg.blocks[b].range().end - 1];
            let (targets, terminator) = successors(last, d);
            let ids = targets.map(|t| cfg.block_at(t?));
            let block = &mut cfg.blocks[b];
            block.terminator = terminator;
            for id in ids.into_iter().flatten() {
                block.succs[block.n_succs as usize] = id as u32;
                block.n_succs += 1;
                pred_starts[id + 1] += 1;
            }
        }
        for b in 0..cfg.blocks.len() {
            pred_starts[b + 1] += pred_starts[b];
        }
        let mut fill = pred_starts.clone();
        let mut pred_ids = vec![0u32; pred_starts[cfg.blocks.len()] as usize];
        for (b, block) in cfg.blocks.iter().enumerate() {
            for &s in block.succs() {
                pred_ids[fill[s as usize] as usize] = b as u32;
                fill[s as usize] += 1;
            }
        }
        cfg.pred_starts = pred_starts;
        cfg.pred_ids = pred_ids;
        cfg
    }
}

/// The successor *addresses* of a block ending in `last` (before pruning
/// to block starts), and how it ends.
fn successors(last: &DisasmInst, d: &Disassembly) -> ([Option<u64>; 2], Terminator) {
    let next = last.next_addr();
    match last.inst {
        Inst::Jal { rd, .. } => {
            let target = last.inst.direct_target(last.addr).expect("jal target");
            let is_call = rd != XReg::ZERO;
            (
                [Some(target), is_call.then_some(next)],
                Terminator::Jump { is_call },
            )
        }
        Inst::Jalr { rd, .. } => {
            let is_call = rd != XReg::ZERO;
            (
                [is_call.then_some(next), None],
                Terminator::Indirect { is_call },
            )
        }
        Inst::Branch { .. } => {
            let target = last.inst.direct_target(last.addr).expect("branch target");
            ([Some(target), Some(next)], Terminator::Branch)
        }
        Inst::Ebreak => ([None, None], Terminator::Stop),
        // Fallthrough, if the next instruction is recognized.
        _ if d.at(next).is_some() => ([Some(next), None], Terminator::Fallthrough),
        _ => ([None, None], Terminator::Stop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use chimera_obj::{assemble, AsmOptions};

    fn cfg(src: &str) -> (chimera_obj::Binary, Cfg) {
        let bin = assemble(src, AsmOptions::default()).unwrap();
        let d = disassemble(&bin);
        (bin, Cfg::build(&d))
    }

    #[test]
    fn diamond_shape() {
        let (bin, g) = cfg("
            _start:
                beqz a0, left
                addi a1, a1, 1
                j join
            left:
                addi a2, a2, 1
            join:
                ecall
        ");
        // Blocks: entry(beqz), then-side, left, join.
        assert_eq!(g.blocks.len(), 4);
        let entry = &g.blocks[g.block_at(bin.entry).unwrap()];
        assert_eq!(entry.succs().len(), 2);
        assert_eq!(entry.terminator, Terminator::Branch);
        // Join (the last block) has two preds.
        assert_eq!(g.preds(g.blocks.len() - 1).len(), 2);
    }

    #[test]
    fn loop_back_edge() {
        let (bin, g) = cfg("
            _start:
                li t0, 5
            loop:
                addi t0, t0, -1
                bnez t0, loop
                ecall
        ");
        let loop_id = g.block_at(bin.entry + 4).unwrap();
        assert!(g.blocks[loop_id].succs().contains(&(loop_id as u32)));
    }

    #[test]
    fn indirect_jump_has_no_succs() {
        let (_, g) = cfg("
            _start:
                jr a0
        ");
        let b = &g.blocks[0];
        assert!(b.succs().is_empty());
        assert!(b.has_unknown_succs());
    }

    #[test]
    fn call_block_falls_through() {
        let (bin, g) = cfg("
            _start:
                call f
                ecall
            f:
                ret
        ");
        let entry = g.block_containing(bin.entry).unwrap();
        assert!(matches!(
            entry.terminator,
            Terminator::Indirect { is_call: true }
        ));
        assert_eq!(entry.succs(), [g.block_at(bin.entry + 8).unwrap() as u32]);
    }

    #[test]
    fn block_containing_interior_address() {
        let (bin, g) = cfg("
            _start:
                addi a0, a0, 1
                addi a0, a0, 2
                ecall
        ");
        let b = g.block_containing(bin.entry + 4).unwrap();
        assert_eq!(b.start, bin.entry);
    }
}
