//! An independent oracle for `chimera-analysis`.
//!
//! The crate stores its results densely (slot table, block index ranges,
//! per-block gen/kill summaries, a predecessor worklist). The oracle here
//! shares none of that: a tree-based recursive descent over
//! `Binary::read_*`, a leader scan over the plain instruction list, and a
//! per-*instruction* backward fixpoint swept to convergence. Every fact
//! the rewriter consumes — the instruction set, block starts, successor
//! sets, `has_unknown_succs`, `live_in`, `dead_register_at` — must agree,
//! over the crate's own 128 seeded programs, the whole workload zoo and
//! 64 fuzzer cases (compressed, straddle-split and SMC shapes included).

use chimera_analysis::{disassemble, Cfg, DisasmInst, Liveness};
use chimera_isa::prng::Prng;
use chimera_isa::{decode, Inst, RegSet, XReg};
use chimera_obj::{assemble, AsmOptions, Binary, SymKind};
use chimera_workloads::speclike::{generate, GenOptions, APP_PROFILES, SPEC_PROFILES};
use std::collections::{BTreeMap, BTreeSet};

/// Recursive descent from the entry point, function symbols and aligned
/// data words that point into `.text`; returns the instructions and the
/// data-referenced code addresses.
fn naive_disasm(bin: &Binary) -> (BTreeMap<u64, DisasmInst>, BTreeSet<u64>) {
    let text = bin.section(".text").expect("oracle inputs have .text");
    let mut insts = BTreeMap::new();
    let mut work: Vec<u64> = vec![bin.entry];
    let funcs = bin.symbols.iter().filter(|s| s.kind == SymKind::Func);
    work.extend(funcs.map(|s| s.addr));
    let mut data_refs = BTreeSet::new();
    for sec in bin.sections.iter().filter(|s| !s.perms.x) {
        for word in sec.data.chunks_exact(8) {
            let val = u64::from_le_bytes(word.try_into().unwrap());
            if text.contains(val) && val % 2 == 0 {
                data_refs.insert(val);
            }
        }
    }
    work.extend(&data_refs);
    while let Some(addr) = work.pop() {
        if !text.contains(addr) || insts.contains_key(&addr) {
            continue;
        }
        let word = (bin.read_u32(addr)).or_else(|| bin.read_u16(addr).map(u32::from));
        let Some(Ok(dec)) = word.map(decode) else {
            continue;
        };
        let (len, inst) = (dec.len, dec.inst);
        let di = DisasmInst { addr, len, inst };
        insts.insert(addr, di);
        work.extend(inst.direct_target(addr));
        let falls_through = match inst {
            Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } => rd != XReg::ZERO,
            Inst::Ebreak => false,
            _ => true,
        };
        if falls_through {
            work.push(di.next_addr());
        }
    }
    (insts, data_refs)
}

/// One oracle block: its instructions' positions in the sorted list, its
/// successor block starts, and whether its successors are unknown.
struct NaiveBlock {
    insts: std::ops::Range<usize>,
    succs: BTreeSet<u64>,
    unknown: bool,
}

/// Leader scan over the address-sorted instruction list.
fn naive_blocks(insts: &[DisasmInst], data_refs: &BTreeSet<u64>) -> BTreeMap<u64, NaiveBlock> {
    let known: BTreeSet<u64> = insts.iter().map(|di| di.addr).collect();
    let mut leaders = data_refs.clone();
    for (i, di) in insts.iter().enumerate() {
        if i == 0 || insts[i - 1].next_addr() != di.addr {
            leaders.insert(di.addr);
        }
        leaders.extend(di.inst.direct_target(di.addr));
        if di.inst.is_terminator() {
            leaders.insert(di.next_addr());
        }
    }
    let starts: Vec<usize> = (0..insts.len())
        .filter(|&i| leaders.contains(&insts[i].addr))
        .collect();
    let mut blocks = BTreeMap::new();
    for (n, &first) in starts.iter().enumerate() {
        let end = starts.get(n + 1).copied().unwrap_or(insts.len());
        let last = &insts[end - 1];
        let (next, target) = (last.next_addr(), last.inst.direct_target(last.addr));
        let (succs, unknown) = match last.inst {
            Inst::Jal { rd, .. } => (vec![target, (rd != XReg::ZERO).then_some(next)], false),
            Inst::Jalr { rd, .. } => (vec![(rd != XReg::ZERO).then_some(next)], true),
            Inst::Branch { .. } => (vec![target, Some(next)], false),
            Inst::Ebreak => (vec![], true),
            _ => (vec![Some(next)], !known.contains(&next)),
        };
        // An edge exists only to an address that starts a block.
        let is_start = |a: &u64| leaders.contains(a) && known.contains(a);
        let succs = succs.into_iter().flatten().filter(is_start).collect();
        let block = NaiveBlock {
            insts: first..end,
            succs,
            unknown,
        };
        blocks.insert(insts[first].addr, block);
    }
    blocks
}

/// Per-instruction backward dataflow, swept in reverse address order until
/// nothing changes. `live[i]` is the live-in of `insts[i]`.
fn naive_liveness(insts: &[DisasmInst], blocks: &BTreeMap<u64, NaiveBlock>) -> Vec<RegSet> {
    let index: BTreeMap<u64, usize> = insts.iter().enumerate().map(|(i, d)| (d.addr, i)).collect();
    let mut live = vec![RegSet::EMPTY; insts.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for b in blocks.values().rev() {
            for i in b.insts.clone().rev() {
                let mut out = RegSet::EMPTY;
                if i + 1 < b.insts.end {
                    out = live[i + 1];
                } else if b.unknown {
                    out = RegSet::ALL;
                } else {
                    for s in &b.succs {
                        out = out.union(live[index[s]]);
                    }
                }
                if let Some(d) = insts[i].inst.def_x() {
                    out.remove(d);
                }
                let new = out.union(insts[i].inst.uses_x());
                changed |= new != live[i];
                live[i] = new;
            }
        }
    }
    live
}

/// Compares the crate's analyses of `bin` with the oracle's, fact for
/// fact; returns (blocks, transfer evaluations).
fn check(what: &str, bin: &Binary) -> (usize, usize) {
    let d = disassemble(bin);
    let (naive, data_refs) = naive_disasm(bin);
    let insts: Vec<DisasmInst> = naive.values().copied().collect();
    assert_eq!(&d.insts[..], &insts[..], "{what}: instruction set");
    assert_eq!(d.data_refs, Vec::from_iter(data_refs.clone()), "{what}");

    let cfg = Cfg::build(&d);
    let blocks = naive_blocks(&insts, &data_refs);
    let starts: Vec<u64> = cfg.blocks.iter().map(|b| b.start).collect();
    assert_eq!(starts, Vec::from_iter(blocks.keys().copied()), "{what}");
    for (b, nb) in cfg.blocks.iter().zip(blocks.values()) {
        let at = b.start;
        assert_eq!(b.range(), nb.insts, "{what}: block {at:#x} extent");
        let succs = b.succs().iter().map(|&s| cfg.blocks[s as usize].start);
        assert_eq!(
            BTreeSet::from_iter(succs),
            nb.succs,
            "{what}: {at:#x} succs"
        );
        assert_eq!(b.has_unknown_succs(), nb.unknown, "{what}: {at:#x} unknown");
        assert_eq!(cfg.block_containing(b.end() - 1).unwrap().start, at);
    }

    let l = Liveness::compute(&cfg);
    let pinned = [XReg::ZERO, XReg::SP, XReg::GP, XReg::TP];
    for (di, &live) in insts.iter().zip(&naive_liveness(&insts, &blocks)) {
        let at = di.addr;
        assert_eq!(l.live_in(at), live, "{what}: live-in at {at:#x}");
        let dead = XReg::caller_saved().find(|&r| !live.contains(r) && !pinned.contains(&r));
        assert_eq!(l.dead_register_at(at), dead, "{what}: dead reg at {at:#x}");
    }
    (cfg.blocks.len(), l.transfer_evals())
}

/// The generator of `chimera-analysis`'s own seeded tests (kept in step
/// by hand: it is private to that crate's test module).
fn seeded_program(rng: &mut Prng) -> String {
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
        src.push_str(&format!("    {line}\n"));
    }
    src.push_str("end:\n    ecall\n");
    src
}

#[test]
fn seeded_programs_agree_with_the_oracle() {
    for seed in 0..128 {
        let src = seeded_program(&mut Prng::new(seed));
        let bin = assemble(&src, AsmOptions::default()).unwrap();
        check(&format!("seed {seed}"), &bin);
    }
}

/// The zoo, plus the deterministic work guard that stands in for a timing
/// assert: the worklist may evaluate each block's transfer a handful of
/// times, never once per round of a whole-program sweep.
#[test]
fn zoo_agrees_with_the_oracle_within_the_work_bound() {
    for p in SPEC_PROFILES.iter().chain(APP_PROFILES) {
        let (blocks, evals) = check(p.name, &generate(p, GenOptions::default()));
        assert!(
            (blocks..=4 * blocks).contains(&evals),
            "{}: {evals} transfer evaluations for {blocks} blocks",
            p.name
        );
    }
}

#[test]
fn fuzzer_cases_agree_with_the_oracle() {
    for seed in 0..64 {
        let built = chimera_fuzzing::generate(seed).build().unwrap();
        check(&format!("fuzz seed {seed}"), &built.bin);
    }
}
