//! Recursive-descent disassembly.
//!
//! Plays the role IDA Pro plays in the paper (§4.1): traverse control flow
//! from every known entry point, decoding instructions along the way. The
//! result is *sound* (everything recognized really is an instruction on some
//! execution path) but *incomplete* — code reachable only through indirect
//! jumps whose targets the pointer scan misses stays unrecognized, and
//! Chimera's runtime rewrites such instructions lazily when they fault.
//!
//! Entry points come from three sources, mirroring real tools:
//! 1. the binary's entry point,
//! 2. function symbols,
//! 3. a scan of data sections for 8-byte values that look like code
//!    addresses (how jump tables and function-pointer tables are found).

use chimera_isa::{decode, Inst, XReg};
use chimera_obj::{Binary, SymKind};
use std::collections::VecDeque;
use std::sync::Arc;

/// One recognized instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisasmInst {
    /// Instruction address.
    pub addr: u64,
    /// Encoded length (2 or 4).
    pub len: u8,
    /// Canonical decoded form.
    pub inst: Inst,
}

impl DisasmInst {
    /// The address of the next sequential instruction.
    pub fn next_addr(&self) -> u64 {
        self.addr + self.len as u64
    }
}

/// The recognized instructions in address order, plus the slot table that
/// finds one by address in O(1). Dereferences to the instruction slice;
/// an instruction's position in it is its *index*, which [`crate::Cfg`]
/// blocks and [`crate::Liveness`] facts are expressed in. Cloning shares
/// the storage (both analyses hold a clone).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstTable(Arc<Slots>);

#[derive(Debug, Default, PartialEq, Eq)]
struct Slots {
    insts: Vec<DisasmInst>,
    /// Address of `.text`'s first byte.
    base: u64,
    /// One slot per *byte* of `.text` (so odd entry points, which the
    /// emulator would execute, are representable): index + 1 of the
    /// instruction starting there, 0 for none.
    slots: Vec<u32>,
}

impl std::ops::Deref for InstTable {
    type Target = [DisasmInst];
    fn deref(&self) -> &[DisasmInst] {
        &self.0.insts
    }
}

impl InstTable {
    /// The index of the instruction starting at `addr`, if recognized.
    pub fn index_of(&self, addr: u64) -> Option<usize> {
        let off = usize::try_from(addr.checked_sub(self.0.base)?).ok()?;
        self.0.slots.get(off)?.checked_sub(1).map(|i| i as usize)
    }

    /// The instruction at `addr`, if recognized.
    pub fn at(&self, addr: u64) -> Option<&DisasmInst> {
        self.index_of(addr).map(|i| &self[i])
    }

    /// The index of the recognized instruction *containing* `addr`: the
    /// nearest one starting at or before it, if its bytes cover `addr`.
    pub(crate) fn covering_index(&self, addr: u64) -> Option<usize> {
        (0..4)
            .find_map(|back| self.index_of(addr.checked_sub(back)?))
            .filter(|&i| addr < self[i].next_addr())
    }
}

/// The result of disassembling a binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Disassembly {
    /// Recognized instructions, in address order.
    pub insts: InstTable,
    /// Addresses where decoding failed during traversal (candidate
    /// unrecognized-extension sites; handled lazily at runtime). Sorted.
    pub undecodable: Vec<u64>,
    /// Discovered direct jump/branch targets (potential basic-block
    /// leaders). Sorted, so `binary_search` answers membership.
    pub targets: Vec<u64>,
    /// Code addresses discovered in data sections (indirect-jump landing
    /// pads the rewriter must preserve). Sorted.
    pub data_refs: Vec<u64>,
    /// Indices into [`Self::insts`] of the instructions that belong to an
    /// extension ([`Inst::ext`] is `Some`), recorded as they are decoded.
    /// Sorted, so they are in address order. A rewriter that picks its
    /// sources by extension walks these instead of every instruction.
    pub ext_sites: Vec<usize>,
}

impl Disassembly {
    /// The instruction at `addr`, if recognized.
    pub fn at(&self, addr: u64) -> Option<&DisasmInst> {
        self.insts.at(addr)
    }

    /// Iterates instructions in address order.
    pub fn iter(&self) -> impl Iterator<Item = &DisasmInst> {
        self.insts.iter()
    }

    /// The recognized instruction *containing* `addr` (i.e. whose byte
    /// range covers it), if any. Used to detect jumps into the middle of
    /// an instruction.
    pub fn covering(&self, addr: u64) -> Option<&DisasmInst> {
        self.insts.covering_index(addr).map(|i| &self.insts[i])
    }
}

/// Slot marker while traversing: queued as a run start, not yet decoded.
const QUEUED: u32 = u32::MAX;

/// Disassembles a binary by recursive descent from its entry points. A
/// binary without `.text` has no code: the result is empty.
pub fn disassemble(binary: &Binary) -> Disassembly {
    let Some(text) = binary.section(".text") else {
        return Disassembly::default();
    };
    let (base, code) = (text.addr, &text.data[..]);
    assert!(code.len() < QUEUED as usize, ".text exceeds the slot range");
    // During the traversal a slot holds QUEUED or discovery index + 1; the
    // closing pass rewrites every slot to address-order index + 1.
    let mut slots = vec![0u32; code.len()];
    let mut found: Vec<DisasmInst> = Vec::new();
    // Discovery indices of the extension instructions among `found`.
    let mut ext_found: Vec<usize> = Vec::new();
    let mut out = Disassembly::default();
    let mut worklist: VecDeque<u64> = VecDeque::new();

    let push = |worklist: &mut VecDeque<u64>, slots: &mut [u32], addr: u64| {
        if text.contains(addr) && slots[(addr - base) as usize] == 0 {
            slots[(addr - base) as usize] = QUEUED;
            worklist.push_back(addr);
        }
    };

    push(&mut worklist, &mut slots, binary.entry);
    for sym in binary.symbols.iter().filter(|s| s.kind == SymKind::Func) {
        push(&mut worklist, &mut slots, sym.addr);
    }
    // Pointer scan over non-executable sections: 8-byte-aligned values that
    // land (2-byte aligned) inside .text are treated as code entry points.
    for sec in binary.sections.iter().filter(|s| !s.perms.x) {
        for chunk in sec.data.chunks_exact(8) {
            let val = u64::from_le_bytes(chunk.try_into().expect("8-byte window"));
            if text.contains(val) && val % 2 == 0 {
                out.data_refs.push(val);
                push(&mut worklist, &mut slots, val);
            }
        }
    }

    while let Some(start) = worklist.pop_front() {
        let mut addr = start;
        // Walk a straight-line run until a terminator or an already-seen
        // instruction.
        while text.contains(addr) {
            let off = (addr - base) as usize;
            if slots[off] != 0 && slots[off] != QUEUED {
                break;
            }
            // The (up to) 32 bits of code here, tolerating a 2-byte tail
            // at the end of the section.
            let word = match (code.get(off..off + 4), code.get(off..off + 2)) {
                (Some(w), _) => u32::from_le_bytes(w.try_into().expect("4 bytes")),
                (None, Some(h)) => u16::from_le_bytes(h.try_into().expect("2 bytes")) as u32,
                (None, None) => break,
            };
            let Ok(dec) = decode(word) else {
                out.undecodable.push(addr);
                break;
            };
            let (len, inst) = (dec.len, dec.inst);
            let di = DisasmInst { addr, len, inst };
            if inst.ext().is_some() {
                ext_found.push(found.len());
            }
            found.push(di);
            slots[off] = found.len() as u32;

            match inst {
                Inst::Jal { rd, .. } => {
                    let target = inst.direct_target(addr).expect("jal has direct target");
                    out.targets.push(target);
                    push(&mut worklist, &mut slots, target);
                    if rd != XReg::ZERO {
                        // A call: execution returns to the fallthrough.
                        push(&mut worklist, &mut slots, di.next_addr());
                    }
                    break;
                }
                Inst::Jalr { rd, .. } => {
                    // Indirect: target unknown. Calls fall through on
                    // return; plain indirect jumps end the path.
                    if rd != XReg::ZERO {
                        push(&mut worklist, &mut slots, di.next_addr());
                    }
                    break;
                }
                Inst::Branch { .. } => {
                    let target = inst.direct_target(addr).expect("branch has direct target");
                    out.targets.push(target);
                    push(&mut worklist, &mut slots, target);
                    addr = di.next_addr();
                }
                Inst::Ebreak => break,
                // Straight-line code, and `ecall`: syscalls return (except
                // exit; conservatively continue).
                _ => addr = di.next_addr(),
            }
        }
    }

    // Discovery order -> address order: the slot table *is* the sort. A
    // compaction without a branch per byte: every slot writes its discovery
    // index at the cursor, and only an instruction's slot advances it.
    let mut order = vec![0u32; found.len() + 1];
    let mut n = 0;
    for slot in slots.iter_mut() {
        let decoded = slot.wrapping_sub(1) < QUEUED - 1;
        order[n] = slot.wrapping_sub(1);
        n += decoded as usize;
        *slot = n as u32 * decoded as u32;
    }
    let insts: Vec<DisasmInst> = order[..n].iter().map(|&i| found[i as usize]).collect();
    out.ext_sites = (ext_found.iter())
        .map(|&i| slots[(found[i].addr - base) as usize] as usize - 1)
        .collect();
    out.ext_sites.sort_unstable();
    for set in [&mut out.undecodable, &mut out.targets, &mut out.data_refs] {
        set.sort_unstable();
        set.dedup();
    }
    out.insts = InstTable(Arc::new(Slots { insts, base, slots }));
    out
}

/// [`disassemble`]; the worker count is ignored (there is one, sequential,
/// implementation). Kept only because `bench/` calls it.
#[doc(hidden)]
pub fn disassemble_with(binary: &Binary, _workers: usize) -> Disassembly {
    disassemble(binary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_obj::{assemble, AsmOptions};

    fn dis(src: &str) -> (Binary, Disassembly) {
        let bin = assemble(src, AsmOptions::default()).unwrap();
        let d = disassemble(&bin);
        (bin, d)
    }

    #[test]
    fn straight_line_code() {
        let (bin, d) = dis("
            _start:
                li a0, 1
                addi a0, a0, 2
                ecall
        ");
        assert_eq!(d.insts.len(), 3);
        assert!(d.at(bin.entry).is_some());
    }

    #[test]
    fn follows_branches_both_ways() {
        let (_, d) = dis("
            _start:
                beqz a0, skip
                addi a1, a1, 1
            skip:
                addi a2, a2, 1
                ecall
        ");
        assert_eq!(d.insts.len(), 4);
        assert_eq!(d.targets.len(), 1);
    }

    #[test]
    fn follows_calls_and_fallthrough() {
        let (bin, d) = dis("
            _start:
                call helper
                ecall
            helper:
                addi a0, a0, 1
                ret
        ");
        // call = auipc+jalr: 2 insts; then ecall; helper: addi + ret.
        assert_eq!(d.insts.len(), 5);
        // The ret's successor is unknown; helper discovered via fallthrough
        // after the ecall (linear) — confirm helper instructions present.
        let text = bin.section(".text").unwrap();
        assert!(d.at(text.addr + 12).is_some());
    }

    #[test]
    fn code_only_reachable_via_data_pointer_is_found() {
        let (_, d) = dis("
            _start:
                la t0, table
                ld t1, 0(t0)
                jr t1
            dead_end:
                ebreak
            indirect_target:
                li a0, 7
                ecall
            .rodata
            table:
                .dword indirect_target
        ");
        // indirect_target discovered through the pointer scan.
        assert!(!d.data_refs.is_empty());
        let t = d.data_refs[0];
        assert!(d.at(t).is_some());
    }

    #[test]
    fn unreachable_code_stays_unrecognized() {
        let (bin, d) = dis("
            _start:
                j end
            hidden:
                addi a0, a0, 1
                nop
                nop
            end:
                ecall
        ");
        let text = bin.section(".text").unwrap();
        // `hidden` (entry+4) is fallthrough-unreachable and has no pointer.
        assert!(d.at(text.addr + 4).is_none());
        // But `end` is found via the jump.
        assert!(d.targets.contains(&(text.addr + 16)));
    }

    #[test]
    fn parallel_decode_table_matches_sequential() {
        let (bin, d) = dis("
            _start:
                la t0, table
                ld t1, 0(t0)
                beqz t1, skip
                jr t1
            skip:
                li a0, 7
                ecall
            target:
                addi a0, a0, 1
                ret
            .rodata
            table:
                .dword target
        ");
        for workers in [1, 2, 4, 8] {
            assert_eq!(disassemble_with(&bin, workers), d, "{workers} workers");
        }
    }

    #[test]
    fn binary_without_text_disassembles_to_nothing() {
        let (mut bin, _) = dis("_start:\n ecall\n");
        bin.sections.retain(|s| s.name != ".text");
        let d = disassemble(&bin);
        assert_eq!(d, Disassembly::default());
        let cfg = crate::Cfg::build(&d);
        assert!(cfg.blocks.is_empty());
        let l = crate::Liveness::compute(&cfg);
        assert_eq!(l.live_in(bin.entry), crate::RegSet::ALL);
    }

    /// The emulator executes an odd `entry` or `Func` symbol inside
    /// `.text`, so the traversal decodes from it, and odd and even decode
    /// streams may overlap. The expected sets were recorded from the
    /// tree-based traversal this one replaced (commit b16f708).
    #[test]
    fn odd_entry_points_are_traversed() {
        let mut bin = assemble(
            "
            _start:
                li a0, 1
                beqz a0, skip
                addi a1, a1, 1
                call helper
            skip:
                ecall
            helper:
                addi a0, a0, 1
                ret
            ",
            AsmOptions {
                compress: true,
                ..Default::default()
            },
        )
        .unwrap();
        // Shift the program onto odd addresses, and seed even entry points
        // that decode the same bytes differently.
        let text = bin.section_mut(".text").unwrap();
        let base = text.addr;
        text.data.insert(0, 0x01);
        bin.entry += 1;
        for off in [0u64, 2, 4, 8, 14] {
            bin.symbols.push(chimera_obj::Symbol {
                name: format!("f{off}"),
                addr: base + off,
                size: 0,
                kind: SymKind::Func,
            });
        }
        let d = disassemble(&bin);
        let got: Vec<(u64, u8)> = d.iter().map(|di| (di.addr - base, di.len)).collect();
        let recorded = [
            (0, 2),
            (1, 2),
            (2, 2),
            (3, 4),
            (7, 2),
            (8, 2),
            (9, 4),
            (13, 4),
            (14, 2),
            (16, 2),
            (17, 4),
            (21, 2),
            (23, 2),
        ];
        assert_eq!(got, recorded);
        assert_eq!(d.undecodable, [base + 4, base + 10, base + 18]);
        assert_eq!(d.targets, [base + 17]);
        for (i, di) in d.iter().enumerate() {
            assert_eq!(d.insts.index_of(di.addr), Some(i));
        }

        // Blocks (start, instructions, successor starts), same provenance.
        let cfg = crate::Cfg::build(&d);
        let blocks: Vec<(u64, usize, Vec<u64>)> = (cfg.blocks.iter())
            .map(|b| {
                let succs = b.succs().iter().map(|&s| cfg.blocks[s as usize].start);
                (
                    b.start - base,
                    b.range().len(),
                    succs.map(|a| a - base).collect(),
                )
            })
            .collect();
        let recorded: [(u64, usize, &[u64]); 10] = [
            (0, 1, &[2]),
            (1, 1, &[3]),
            (2, 1, &[]),
            (3, 1, &[17, 7]),
            (7, 1, &[9]),
            (8, 1, &[]),
            (9, 2, &[17]),
            (14, 2, &[]),
            (17, 1, &[21]),
            (21, 2, &[]),
        ];
        assert_eq!(blocks.len(), recorded.len());
        for (got, want) in blocks.iter().zip(recorded) {
            assert_eq!((got.0, got.1, &got.2[..]), want);
        }
    }

    /// An odd and an even decode stream that overlap, each holding a
    /// vector instruction: the odd one is the entry, so it is decoded
    /// first although its vector instruction sits at the higher address.
    /// `ext_sites` holds address-order indices, not discovery order.
    #[test]
    fn extension_sites_are_address_order_indices() {
        use chimera_isa::{encode, FReg, Inst, OpImmKind, VArithOp, VReg, VSrc};
        // `vfadd.vf v15, v8, f3`: its bytes 1..4 are the low three bytes
        // of `vadd.vv v3, v0, v5` (opcode `OP-V`, `vs2 = v0`).
        let vfadd = Inst::VArith {
            op: VArithOp::Vfadd,
            vd: VReg::of(15),
            vs2: VReg::of(8),
            src: VSrc::F(FReg::of(3)),
        };
        let addi = Inst::OpImm {
            kind: OpImmKind::Addi,
            rd: XReg::A0,
            rs1: XReg::A0,
            imm: 1,
        };
        // The even stream: `addi` at 0, `vfadd.vf` at 4, and at 8 a
        // `c.ebreak` whose first byte completes the odd stream's `vadd.vv`
        // at 5; from 9 the odd stream reads a reserved halfword (quadrant
        // 0, `funct3 = 100`).
        let mut code = Vec::new();
        code.extend(encode(&addi).unwrap().to_le_bytes());
        code.extend(encode(&vfadd).unwrap().to_le_bytes());
        code.extend([0x02, 0x90, 0x80, 0x00]);

        let mut bin = assemble("_start:\n ecall\n", AsmOptions::default()).unwrap();
        let text = bin.section_mut(".text").unwrap();
        let base = text.addr;
        text.data = code;
        bin.entry = base + 5;
        bin.symbols.push(chimera_obj::Symbol {
            name: "even".into(),
            addr: base,
            size: 0,
            kind: SymKind::Func,
        });
        let d = disassemble(&bin);
        let got: Vec<(u64, Inst)> = d.iter().map(|di| (di.addr - base, di.inst)).collect();
        let vadd = Inst::VArith {
            op: VArithOp::Vadd,
            vd: VReg::of(3),
            vs2: VReg::of(0),
            src: VSrc::V(VReg::of(5)),
        };
        assert_eq!(
            got,
            [(0, addi), (4, vfadd), (5, vadd), (8, Inst::Ebreak)],
            "{got:?}"
        );
        assert_eq!(d.undecodable, [base + 9]);
        // Discovered as [vadd, addi, vfadd, ebreak]: discovery indices 0
        // and 2 are address-order indices 2 and 1.
        assert_eq!(d.ext_sites, [1, 2]);
    }

    #[test]
    fn covering_detects_mid_instruction_addresses() {
        let (bin, d) = dis("
            _start:
                lui a0, 0x12345
                ecall
        ");
        let cov = d.covering(bin.entry + 2).unwrap();
        assert_eq!(cov.addr, bin.entry);
        assert_eq!(d.covering(bin.entry + 4).unwrap().addr, bin.entry + 4);
    }
}
