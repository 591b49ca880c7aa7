//! An independent oracle for `chimera-analysis`.
//!
//! The crate stores its results densely (slot table, block index ranges,
//! one local block-boundary rule, a liveness worklist over the forward
//! closure of a root set). The oracle here shares none of that: a
//! tree-based recursive descent over `Binary::read_*`, a leader scan over
//! the plain instruction list repeated until every recognized successor
//! starts a block, and a per-*instruction* backward fixpoint swept to
//! convergence over the whole program. Every fact the rewriter consumes —
//! the instruction set, block starts and ends, successor sets,
//! `has_unknown_succs`, `live_in`, `dead_register_at` — must agree, over
//! the crate's own 128 seeded programs, the whole workload zoo and 64
//! fuzzer cases (compressed, straddle-split and SMC shapes included); so
//! must a solve rooted at seeded random root sets, wherever it analyses.
//! CHBP's scan roots its solve at its units' exits: on the zoo that
//! closure stays a small fraction of the program. The disassembly half —
//! instruction set, `data_refs`, extension sites — also runs over the two
//! MB-sized `launch_cold` programs (in release).

use chimera_analysis::{disassemble, Cfg, DisasmInst, Disassembly, Liveness};
use chimera_isa::prng::Prng;
use chimera_isa::{decode, Ext, ExtSet, Inst, RegSet, XReg};
use chimera_obj::{assemble, AsmOptions, Binary, SymKind};
use chimera_rewrite::{ChbpEngine, Mode, RewriteOptions};
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

/// The successor addresses of a block ending in `last`, and whether its
/// successors are unknown regardless of them (`jalr`, `ebreak`).
fn naive_succs(last: &DisasmInst) -> (Vec<u64>, bool) {
    let (next, target) = (last.next_addr(), last.inst.direct_target(last.addr));
    let (succs, unknown) = match last.inst {
        Inst::Jal { rd, .. } => (vec![target, (rd != XReg::ZERO).then_some(next)], false),
        Inst::Jalr { rd, .. } => (vec![(rd != XReg::ZERO).then_some(next)], true),
        Inst::Branch { .. } => (vec![target, Some(next)], false),
        Inst::Ebreak => (vec![], true),
        _ => (vec![Some(next)], false),
    };
    (succs.into_iter().flatten().collect(), unknown)
}

/// Leader scan over the address-sorted instruction list, repeated until
/// every recognized successor of a block starts a block (a fallthrough
/// into another decode stream included).
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
    loop {
        let starts: Vec<usize> = (0..insts.len())
            .filter(|&i| leaders.contains(&insts[i].addr))
            .collect();
        let ends = starts
            .iter()
            .skip(1)
            .map(|&s| s - 1)
            .chain([insts.len() - 1]);
        let mut grew = false;
        for end in ends {
            for s in naive_succs(&insts[end]).0 {
                grew |= known.contains(&s) && leaders.insert(s);
            }
        }
        if !grew {
            break;
        }
    }
    let starts: Vec<usize> = (0..insts.len())
        .filter(|&i| leaders.contains(&insts[i].addr))
        .collect();
    let mut blocks = BTreeMap::new();
    for (n, &first) in starts.iter().enumerate() {
        let end = starts.get(n + 1).copied().unwrap_or(insts.len());
        let (succs, unknown) = naive_succs(&insts[end - 1]);
        // An edge goes to every recognized successor; one that is not
        // recognized makes the set unknown.
        let unknown = unknown || succs.iter().any(|s| !known.contains(s));
        let block = NaiveBlock {
            insts: first..end,
            succs: succs.into_iter().filter(|s| known.contains(s)).collect(),
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

/// Compares the crate's disassembly of `bin` with the oracle's: the
/// instruction set, `data_refs` and the extension sites. Returns the
/// disassembly, the oracle's instructions and its data references.
fn check_disasm(what: &str, bin: &Binary) -> (Disassembly, Vec<DisasmInst>, BTreeSet<u64>) {
    let d = disassemble(bin);
    let (naive, data_refs) = naive_disasm(bin);
    let insts: Vec<DisasmInst> = naive.values().copied().collect();
    assert_eq!(&d.insts[..], &insts[..], "{what}: instruction set");
    assert_eq!(d.data_refs, Vec::from_iter(data_refs.clone()), "{what}");
    let ext_sites: Vec<usize> = (0..insts.len())
        .filter(|&i| insts[i].inst.ext().is_some())
        .collect();
    assert_eq!(d.ext_sites, ext_sites, "{what}: extension sites");
    (d, insts, data_refs)
}

/// Compares the crate's analyses of `bin` with the oracle's, fact for
/// fact — the disassembly, the whole-program solve at every instruction,
/// and solves rooted at seeded random root sets at every instruction they
/// analyse; returns (instructions, transfer evaluations) of the
/// whole-program solve.
fn check(what: &str, bin: &Binary) -> (usize, usize) {
    let (d, insts, data_refs) = check_disasm(what, bin);

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
        assert_eq!(
            d.block_end(nb.insts.start),
            nb.insts.end - 1,
            "{what}: {at:#x}"
        );
    }

    let live = naive_liveness(&insts, &blocks);
    let l = Liveness::compute(&cfg);
    assert_eq!(
        l.analysed(),
        insts.len(),
        "{what}: every instruction is a root"
    );
    let pinned = [XReg::ZERO, XReg::SP, XReg::GP, XReg::TP];
    for (di, &live) in insts.iter().zip(&live) {
        let at = di.addr;
        assert_eq!(l.live_in(at), live, "{what}: live-in at {at:#x}");
        let dead = XReg::caller_saved().find(|&r| !live.contains(r) && !pinned.contains(&r));
        assert_eq!(l.dead_register_at(at), dead, "{what}: dead reg at {at:#x}");
    }

    let mut rng = Prng::stream(0x5eed, what);
    for _ in 0..4 {
        let picks = rng.range_usize(1, 9);
        let roots: Vec<u64> = (0..picks)
            .map(|_| insts[rng.range_usize(0, insts.len())].addr)
            .collect();
        let rooted = Liveness::rooted(&d.insts, roots.iter().copied());
        for &r in &roots {
            assert!(rooted.is_analysed(r), "{what}: root {r:#x} analysed");
        }
        let analysed = insts
            .iter()
            .zip(&live)
            .filter(|(di, _)| rooted.is_analysed(di.addr));
        let mut n = 0;
        for (di, &live) in analysed {
            let at = di.addr;
            assert_eq!(
                rooted.live_in(at),
                live,
                "{what}: rooted live-in at {at:#x}"
            );
            n += 1;
        }
        assert_eq!(n, rooted.analysed(), "{what}: roots {roots:x?}");
    }
    (insts.len(), l.transfer_evals())
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
/// assert: the worklist may evaluate each instruction's transfer a handful
/// of times, never once per round of a whole-program sweep.
#[test]
fn zoo_agrees_with_the_oracle_within_the_work_bound() {
    for p in SPEC_PROFILES.iter().chain(APP_PROFILES) {
        let (insts, evals) = check(p.name, &generate(p, GenOptions::default()));
        assert!(
            (insts..=4 * insts).contains(&evals),
            "{}: {evals} transfer evaluations for {insts} instructions",
            p.name
        );
    }
}

/// CHBP's scan solves liveness rooted at its units' exits. On every zoo
/// profile, downgraded for the base core and empty-patched alike, the
/// solve evaluates at most one transfer per ten disassembled instructions.
#[test]
fn chbp_exit_liveness_stays_within_a_tenth_of_the_zoo() {
    let modes = [
        (ExtSet::RV64GC, Mode::Downgrade),
        (ExtSet::RV64GCV, Mode::EmptyPatch(Ext::V)),
    ];
    for p in SPEC_PROFILES.iter().chain(APP_PROFILES) {
        let d = disassemble(&generate(p, GenOptions::default()));
        for (target, mode) in modes {
            let opts = RewriteOptions {
                mode,
                ..Default::default()
            };
            let l = ChbpEngine { target, opts }.exit_liveness(&d);
            let (evals, insts) = (l.transfer_evals(), d.insts.len());
            assert!(l.analysed() > 0, "{} {mode:?}: the units exit", p.name);
            assert!(
                10 * evals <= insts,
                "{} {mode:?}: {evals} transfer evaluations for {insts} instructions",
                p.name
            );
        }
    }
}

/// `pipeline_e2e`'s two MB-sized `launch_cold` programs (the profiles,
/// scales and code seed of `rewrite_golden`), through the disassembly
/// half of the oracle. Seconds in release, minutes in debug — CI runs it
/// with `--release -- --include-ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore = "MB-sized inputs: run in release")]
fn launch_cold_disassembly_agrees_with_the_oracle() {
    for (name, size_scale) in [("omnetpp_r", 0.5), ("cactuBSSN_r", 0.25)] {
        let p = SPEC_PROFILES.iter().find(|p| p.name == name).unwrap();
        let opts = GenOptions {
            size_scale,
            work_scale: 0.01,
            seed: 42,
        };
        let (d, ..) = check_disasm(name, &generate(p, opts));
        assert!(!d.ext_sites.is_empty(), "{name}: has extension sites");
    }
}

#[test]
fn fuzzer_cases_agree_with_the_oracle() {
    for seed in 0..64 {
        let built = chimera_fuzzing::generate(seed).build().unwrap();
        check(&format!("fuzz seed {seed}"), &built.bin);
    }
}
