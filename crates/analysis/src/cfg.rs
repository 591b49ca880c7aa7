//! Basic blocks and the control-flow graph over a [`Disassembly`], and
//! the two rules every analysis shares: where control goes after one
//! instruction (`successors`) and where a basic block starts
//! (`starts_block`, which [`Disassembly::block_end`] walks).
//!
//! A successor edge is either *known* — to a recognized instruction, which
//! then starts a block — or it makes the block's successor set unknown: an
//! indirect jump (`jalr`), an `ebreak`, and any direct or fallthrough
//! successor the disassembler did not recognize. Downstream analyses
//! (liveness) are conservative there — the same conservatism that limits
//! traditional dead-register search (§4.2, Challenge 2). Code the
//! disassembler could not decode is what the kernel rewrites lazily and
//! runs later, so no edge into it is ever dropped.

use crate::disasm::{DisasmInst, Disassembly, InstTable};
use chimera_isa::{Inst, XReg};
use std::ops::Range;

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Falls through to the next address (an `ecall` included), whether
    /// or not an instruction is recognized there.
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
    /// `ebreak`: control does not continue in this code.
    Stop,
}

impl Terminator {
    /// Whether control can go somewhere the successor addresses do not
    /// name (an indirect jump's targets, wherever an `ebreak` leads).
    pub(crate) fn leaves_unknown(self) -> bool {
        matches!(self, Terminator::Indirect { .. } | Terminator::Stop)
    }
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
    /// Whether control can also go somewhere no block covers.
    unknown: bool,
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

    /// Whether the block's successor set is incomplete — it ends in an
    /// indirect jump or an `ebreak`, or a successor address is not a
    /// recognized instruction; liveness must assume everything is live
    /// after it.
    pub fn has_unknown_succs(&self) -> bool {
        self.unknown
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

    /// Builds the CFG from a disassembly: a block ends before every
    /// instruction the block-boundary rule says starts one.
    pub fn build(d: &Disassembly) -> Cfg {
        let insts = &d.insts[..];
        let mut marked = vec![false; insts.len()];
        for &t in d.targets.iter().chain(&d.data_refs) {
            if let Some(i) = d.insts.index_of(t) {
                marked[i] = true;
            }
        }

        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of = vec![0u32; insts.len()];
        let mut first = 0;
        for i in 0..insts.len() {
            block_of[i] = blocks.len() as u32;
            let next = i + 1;
            if next == insts.len() || starts_block(&d.insts, next, marked[next]) {
                let terminator = successors(&insts[i]).1;
                blocks.push(BasicBlock {
                    start: insts[first].addr,
                    end: insts[i].next_addr(),
                    insts: first as u32..i as u32 + 1,
                    succs: [0; 2],
                    n_succs: 0,
                    unknown: terminator.leaves_unknown(),
                    terminator,
                });
                first = next;
            }
        }

        let mut cfg = Cfg {
            blocks,
            insts: d.insts.clone(),
            block_of,
            pred_starts: Vec::new(),
            pred_ids: Vec::new(),
        };
        // Successor edges. Every recognized successor address starts a
        // block; one that is not recognized makes the set unknown. The
        // per-target edge counts become the CSR row starts.
        let mut pred_starts = vec![0u32; cfg.blocks.len() + 1];
        for b in 0..cfg.blocks.len() {
            let last = &insts[cfg.blocks[b].range().end - 1];
            let ids = successors(last)
                .0
                .map(|t| t.map(|t| cfg.block_at(t).ok_or(t)));
            let block = &mut cfg.blocks[b];
            for id in ids.into_iter().flatten() {
                match id {
                    Ok(id) => {
                        block.succs[block.n_succs as usize] = id as u32;
                        block.n_succs += 1;
                        pred_starts[id + 1] += 1;
                    }
                    Err(t) => {
                        debug_assert!(
                            d.at(t).is_none(),
                            "{t:#x} is recognized but starts no block"
                        );
                        block.unknown = true;
                    }
                }
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

/// Where control can go after `di`: up to two successor addresses
/// (recognized or not), and how the instruction passes control on. An
/// indirect jump's targets and whatever follows an `ebreak` are not
/// among them: the [`Terminator`] says they are unknown.
pub(crate) fn successors(di: &DisasmInst) -> ([Option<u64>; 2], Terminator) {
    let next = di.next_addr();
    match di.inst {
        Inst::Jal { rd, .. } => {
            let target = di.inst.direct_target(di.addr).expect("jal target");
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
            let target = di.inst.direct_target(di.addr).expect("branch target");
            ([Some(target), Some(next)], Terminator::Branch)
        }
        Inst::Ebreak => ([None, None], Terminator::Stop),
        _ => ([Some(next), None], Terminator::Fallthrough),
    }
}

/// The block-boundary rule, given whether instruction `i`'s address is a
/// direct target or a data reference (`marked`): `i` starts a block when
/// it is marked, is the first, is not contiguous with the instruction
/// before it, or follows an instruction that ends where `i` starts and is
/// a terminator or belongs to another decode stream.
fn starts_block(insts: &InstTable, i: usize, marked: bool) -> bool {
    let addr = insts[i].addr;
    if marked || i == 0 {
        return true;
    }
    let prev = &insts[i - 1];
    if prev.next_addr() != addr || prev.inst.is_terminator() {
        return true;
    }
    // Another stream's instruction ending here starts before `prev` and
    // overlaps it, so it can only be a 4-byte one beside a 2-byte `prev`,
    // at most two places before it in address order.
    prev.len == 2
        && (insts[..i - 1].iter().rev())
            .take_while(|k| k.addr + 4 >= addr)
            .any(|k| k.addr + 4 == addr && k.len == 4)
}

impl Disassembly {
    /// The index of the last instruction of the basic block holding the
    /// instruction at index `i`: the block-boundary rule [`Cfg::build`]
    /// applies to every instruction, walked forward from `i` alone.
    pub fn block_end(&self, i: usize) -> usize {
        let marked = |addr: u64| {
            let find = |set: &[u64]| set.binary_search(&addr).is_ok();
            find(&self.targets) || find(&self.data_refs)
        };
        (i + 1..self.insts.len())
            .find(|&next| starts_block(&self.insts, next, marked(self.insts[next].addr)))
            .map_or(self.insts.len() - 1, |next| next - 1)
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

    /// Three decode streams: the bytes of a 4-byte `addi` at `+0` decode
    /// as `c.j` from `+1` and as `c.lw` from `+2`. The `addi` and the
    /// `c.lw` both fall through to `+4`, so `+4` starts a block although
    /// the `c.lw` before it is contiguous and the `addi` ends there from
    /// two places back in address order.
    #[test]
    fn three_streams_meeting_start_a_block() {
        let (mut bin, _) = cfg("_start:\n addi sp, zero, 1034\n ecall\n ebreak\n");
        let base = bin.entry;
        let text = bin.section(".text").unwrap();
        assert_eq!(
            (text.addr, &text.data[..4]),
            (base, &[0x13, 0x01, 0xa0, 0x40][..])
        );
        for off in [1, 2] {
            bin.symbols.push(chimera_obj::Symbol {
                name: format!("f{off}"),
                addr: base + off,
                size: 0,
                kind: chimera_obj::SymKind::Func,
            });
        }
        let d = disassemble(&bin);
        let got: Vec<(u64, u8)> = d.iter().map(|di| (di.addr - base, di.len)).collect();
        assert_eq!(got, [(0, 4), (1, 2), (2, 2), (4, 4), (8, 4)]);
        let g = Cfg::build(&d);
        let next = g.block_at(base + 4).expect("+4 starts a block");
        assert_eq!(g.blocks[g.block_at(base).unwrap()].succs(), [next as u32]);
        assert_eq!(
            g.blocks[g.block_at(base + 2).unwrap()].succs(),
            [next as u32]
        );
        assert_eq!(d.block_end(2), 2);
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
