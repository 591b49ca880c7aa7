//! Exhaustive partial-entry coverage for SMILE trampolines (Claim 1).
//!
//! For every trampoline CHBP places — across uncompressed and compressed
//! builds, so the plain, P2-constrained and P3-constrained forms all
//! occur — this suite force-enters the trampoline at **every** interior
//! 2-byte boundary that was an instruction start in the original binary
//! (offsets +2, +4, +6) and asserts:
//!
//! 1. the partial execution raises a *deterministic* fault whose key the
//!    passive handler can recover (`pc` for illegal-instruction faults,
//!    `gp - 4` for the P1 fetch fault);
//! 2. the fault is bit-for-bit reproducible (run twice, same trap, same
//!    cycle accounting);
//! 3. the kernel's passive handler recovers the erroneous entry to the
//!    exact behaviour of the *original* binary entered at the same
//!    address (Claim 2: semantic equivalence, not merely "no crash").
//!
//! A block has one trampoline, on its first source instruction; the later
//! sources its target block batches keep their original bytes. The suite
//! also enters at every one of *those*: on a base core the instruction is
//! itself the deterministic fault and the kernel's lazy rewriter serves
//! the entry; empty-patched on an extension core it simply executes.

use chimera_emu::{Access, Stop, Trap};
use chimera_isa::{bits::sext, encode, Ext, ExtSet, Inst, XReg};
use chimera_kernel::{FaultCounters, KernelRunner, Process, RunOutcome, RuntimeTables, Variant};
use chimera_obj::{assemble, AsmOptions, Binary};
use chimera_rewrite::smile::{
    encode_smile, next_reachable_target, valid_p3_lo12, SmileConstraints,
};
use chimera_rewrite::{chbp_rewrite, Mode, RewriteOptions, Rewritten};

/// A vector workload with enough source sites to place several
/// trampolines (sum of a+b elementwise, reduced: exits 110).
const VEC_SUM: &str = "
    .data
    a: .dword 1
       .dword 2
       .dword 3
       .dword 4
    b: .dword 10
       .dword 20
       .dword 30
       .dword 40
    .text
    _start:
        li t0, 4
        vsetvli t1, t0, e64, m1, ta, ma
        la a0, a
        la a1, b
        vle64.v v1, (a0)
        vle64.v v2, (a1)
        vadd.vv v3, v1, v2
        vmv.v.i v4, 0
        vredsum.vs v5, v3, v4
        vmv.x.s a0, v5
        li a7, 93
        ecall
";

/// The block's first source instruction followed by *compressible* 2-byte
/// scalars: in the compressed build the trampoline's 8-byte span holds
/// boundaries at +4 and +6, forcing the P3-constrained SMILE form.
const VEC_WITH_RVC_NEIGHBOURS: &str = "
    .data
    a: .dword 5
       .dword 6
       .dword 7
       .dword 8
    .text
    _start:
        li t0, 4
        la a0, a
        vsetvli t1, t0, e64, m1, ta, ma
        li a1, 1
        li a2, 2
        vle64.v v1, (a0)
        vmv.v.i v2, 0
        vredsum.vs v3, v1, v2
        vmv.x.s a0, v3
        add a0, a0, a1
        add a0, a0, a2
        li a7, 93
        ecall
";

fn rewritten(src: &str, compress: bool) -> (Binary, Rewritten) {
    rewritten_for(src, compress, ExtSet::RV64GC, RewriteOptions::default())
}

fn rewritten_for(
    src: &str,
    compress: bool,
    target: ExtSet,
    opts: RewriteOptions,
) -> (Binary, Rewritten) {
    let bin = assemble(
        src,
        AsmOptions {
            compress,
            ..Default::default()
        },
    )
    .unwrap();
    let rw = chbp_rewrite(&bin, target, opts).unwrap();
    assert!(rw.stats.smile_trampolines > 0, "trampolines must be placed");
    (bin, rw)
}

/// The interior entry points of the trampoline at `head` that were
/// instruction starts in the original binary — exactly the addresses the
/// rewriter recorded redirects for.
fn interior_entries(rw: &Rewritten, head: u64) -> Vec<u64> {
    [2u64, 4, 6]
        .iter()
        .map(|off| head + off)
        .filter(|addr| rw.fht.redirects.contains_key(addr))
        .collect()
}

/// Forces one partial entry and returns `(recovered fault key, final
/// cycle count)`. Panics unless the fault is one of the two deterministic
/// recoverable shapes.
fn force_entry(rw: &Rewritten, entry: u64) -> (u64, u64) {
    let (mut cpu, mut mem) = chimera_emu::boot(&rw.binary, ExtSet::RV64GC);
    cpu.hart.pc = entry;
    match cpu.run(&mut mem, 10) {
        // P2/P3 (and relocation-slot) entries: the parcel at `entry` is a
        // reserved encoding — an illegal-instruction fault keyed by pc.
        Stop::Trap(Trap::Illegal { pc, .. }) => {
            assert_eq!(pc, entry, "illegal fault must be at the entry itself");
            (pc, cpu.stats.cycles)
        }
        // P1: the jalr executes with the unmodified ABI gp, landing in the
        // non-executable data segment; the handler keys on gp - 4.
        Stop::Trap(Trap::Mem { fault, .. }) => {
            assert_eq!(fault.access, Access::Fetch, "must be a fetch fault");
            assert!(fault.mapped, "the psABI gp points into mapped data");
            let key = cpu.hart.gp().wrapping_sub(4);
            (key, cpu.stats.cycles)
        }
        other => {
            panic!("entry {entry:#x}: expected a deterministic recoverable fault, got {other:?}")
        }
    }
}

/// Runs the *original* binary with pc forced to `start` — the reference
/// behaviour the passive handler must reproduce.
fn original_outcome(bin: &Binary, start: u64) -> i64 {
    let (mut cpu, mut mem) = chimera_emu::boot(bin, ExtSet::RV64GCV);
    cpu.hart.pc = start;
    chimera_emu::run_cpu(&mut cpu, &mut mem, 1_000_000)
        .expect("original binary runs from an instruction boundary")
        .exit_code
}

/// Runs the rewritten binary under the kernel with pc forced to `entry`;
/// returns the outcome and the kernel's counters.
fn entered_at(rw: &Rewritten, profile: ExtSet, entry: u64) -> (RunOutcome, FaultCounters) {
    let process = Process::new(vec![Variant {
        binary: rw.binary.clone(),
        tables: RuntimeTables {
            fht: Some(rw.fht.clone()),
            regen: None,
        },
    }]);
    let (mut cpu, mut mem, view) = process.load(profile).unwrap();
    cpu.hart.pc = entry;
    let mut k = KernelRunner::new(view.tables.clone());
    let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
    (outcome, k.counters)
}

/// One forced entry at a batched source: where, how the rewritten binary
/// ended and what its kernel counted, and how the original binary ends
/// entered at the same address.
struct BatchedEntry {
    at: u64,
    outcome: RunOutcome,
    counters: FaultCounters,
    original: i64,
}

/// Rewrites both programs, uncompressed and compressed, with `opts` for
/// `profile`, and enters each on `profile` at every source instruction a
/// target block batches behind an earlier trampoline without overwriting
/// it: every vector instruction outside every trampoline's 8-byte space.
/// Each must still hold the input's bytes.
fn enter_every_batched_source(profile: ExtSet, opts: RewriteOptions) -> Vec<BatchedEntry> {
    let mut entries = Vec::new();
    for (src, compress) in [VEC_SUM, VEC_WITH_RVC_NEIGHBOURS]
        .into_iter()
        .flat_map(|src| [(src, false), (src, true)])
    {
        let (bin, rw) = rewritten_for(src, compress, profile, opts);
        assert!(rw.fht.trap_entries.is_empty() && rw.fht.untranslated.is_empty());
        for di in chimera_analysis::disassemble(&bin).iter() {
            let at = di.addr;
            if di.inst.ext() != Some(Ext::V) || rw.fht.inside_trampoline(at) {
                continue;
            }
            assert_eq!(rw.binary.read_u32(at), bin.read_u32(at), "{at:#x}");
            let (outcome, counters) = entered_at(&rw, profile, at);
            entries.push(BatchedEntry {
                at,
                outcome,
                counters,
                original: original_outcome(&bin, at),
            });
        }
    }
    // Every vector instruction but each block's first.
    assert_eq!(entries.len(), 2 * (6 + 4));
    entries
}

/// Exercises every interior boundary of every trampoline in `rw`. Returns
/// the number of partial entries driven.
fn exercise(bin: &Binary, rw: &Rewritten) -> usize {
    let mut driven = 0;
    for &head in &rw.fht.trampolines {
        let entries = interior_entries(rw, head);
        assert!(
            !entries.is_empty(),
            "trampoline at {head:#x} overwrote at least its 4-byte source, \
             so at least one interior boundary must be entry-able"
        );
        for entry in entries {
            // (1) Deterministic recoverable fault, keyed back to the entry.
            let (key, cycles) = force_entry(rw, entry);
            assert_eq!(
                key, entry,
                "fault key must recover the overwritten-instruction address"
            );
            let redirect = rw.fht.redirects[&entry];
            let target = rw.binary.section(".chimera.text").expect("target section");
            assert!(
                redirect >= target.addr && redirect < target.end(),
                "redirect {redirect:#x} must point into the target section"
            );

            // (2) Bit-for-bit reproducible: same fault, same cycle count.
            let (key2, cycles2) = force_entry(rw, entry);
            assert_eq!(
                (key, cycles),
                (key2, cycles2),
                "fault must be deterministic"
            );

            // (3) The passive handler recovers to the original's behaviour.
            let expected = original_outcome(bin, entry);
            let (outcome, counters) = entered_at(rw, ExtSet::RV64GC, entry);
            assert_eq!(
                outcome,
                RunOutcome::Exited(expected),
                "recovery from {entry:#x} must match the original binary"
            );
            assert!(
                counters.smile_faults >= 1,
                "recovery must go through the handler"
            );
            driven += 1;
        }
    }
    driven
}

#[test]
fn every_partial_entry_faults_and_recovers_uncompressed() {
    let (bin, rw) = rewritten(VEC_SUM, false);
    let driven = exercise(&bin, &rw);
    assert!(
        driven >= rw.fht.trampolines.len(),
        "every trampoline driven"
    );
}

#[test]
fn every_partial_entry_faults_and_recovers_compressed() {
    // Compressed 2-byte neighbours inside the 8-byte patch force the
    // P3-constrained trampoline form (a boundary at +6); the suite then
    // drives that extra misaligned entry too.
    let (bin, rw) = rewritten(VEC_WITH_RVC_NEIGHBOURS, true);
    assert!(
        rw.stats.constrained_smiles >= 1,
        "the compressed build must exercise at least one constrained form"
    );
    let driven = exercise(&bin, &rw);
    // The P3 trampoline exposes two interior boundaries (+4 and +6), so
    // strictly more entries than trampolines were driven.
    assert!(driven > rw.fht.trampolines.len());
}

#[test]
fn every_batched_source_entry_recovers_through_the_lazy_rewriter() {
    // On a base core the instruction is itself the deterministic fault.
    for e in enter_every_batched_source(ExtSet::RV64GC, RewriteOptions::default()) {
        assert_eq!(e.outcome, RunOutcome::Exited(e.original), "{:#x}", e.at);
        assert!(
            e.counters.lazy_rewrites >= 1,
            "{:#x}: {:?}",
            e.at,
            e.counters
        );
    }
}

#[test]
fn every_batched_source_entry_just_runs_when_empty_patched() {
    let opts = RewriteOptions {
        mode: Mode::EmptyPatch(Ext::V),
        ..Default::default()
    };
    for e in enter_every_batched_source(ExtSet::RV64GCV, opts) {
        assert_eq!(e.outcome, RunOutcome::Exited(e.original), "{:#x}", e.at);
        assert_eq!(e.counters.total(), 0, "{:#x}: no kernel entry", e.at);
    }
}

#[test]
fn interior_redirects_match_original_instruction_boundaries() {
    // The fault table must key *exactly* the offsets that were
    // instruction starts in the original binary: a missing key would make
    // a legal erroneous entry unrecoverable, an extra key would "recover"
    // an entry no original execution could take.
    for (src, compress) in [(VEC_SUM, false), (VEC_WITH_RVC_NEIGHBOURS, true)] {
        let bin = assemble(
            src,
            AsmOptions {
                compress,
                ..Default::default()
            },
        )
        .unwrap();
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        let starts: std::collections::BTreeSet<u64> = chimera_analysis::disassemble(&bin)
            .iter()
            .map(|di| di.addr)
            .collect();
        for &head in &rw.fht.trampolines {
            for off in [2u64, 4, 6] {
                let addr = head + off;
                assert_eq!(
                    rw.fht.redirects.contains_key(&addr),
                    starts.contains(&addr),
                    "trampoline {head:#x}: redirect coverage at +{off} must \
                     match the original boundary"
                );
            }
        }
    }
}

#[test]
fn synthetic_p2_constrained_form_faults_at_every_offset() {
    // CHBP's sources are 4-byte vector instructions, so a boundary at +2
    // (the P2 form) cannot arise from the pipeline; exercise the encoder's
    // P2+P3 form directly by hand-patching it over an 8-byte span and
    // force-entering every interior offset.
    let bin = assemble(
        "
        .data
        pad: .dword 0
        .text
        _start:
            li a0, 1
            li a1, 2
            li a2, 3
            li a3, 4
            li a7, 93
            ecall
        ",
        AsmOptions::default(),
    )
    .unwrap();
    let c = SmileConstraints { p2: true, p3: true };
    let text_end = bin.section(".text").unwrap().end();
    let target = next_reachable_target(bin.entry, text_end, c).expect("reachable target");
    let s = encode_smile(bin.entry, target, c).unwrap();
    let mut patched = bin.clone();
    assert!(patched.write(bin.entry, &s.bytes()));

    for off in [2u64, 6] {
        let entry = bin.entry + off;
        let (mut cpu, mut mem) = chimera_emu::boot(&patched, ExtSet::RV64GC);
        cpu.hart.pc = entry;
        match cpu.run(&mut mem, 10) {
            Stop::Trap(Trap::Illegal { pc, .. }) => {
                assert_eq!(pc, entry, "constrained parcel must fault at +{off}")
            }
            other => panic!("P2/P3 entry at +{off}: expected illegal fault, got {other:?}"),
        }
    }
    // P1 (+4): the jalr runs with the unmodified gp and the fetch faults
    // in the data segment, keyed by gp - 4.
    let entry = bin.entry + 4;
    let (mut cpu, mut mem) = chimera_emu::boot(&patched, ExtSet::RV64GC);
    cpu.hart.pc = entry;
    match cpu.run(&mut mem, 10) {
        Stop::Trap(Trap::Mem { fault, .. }) => {
            assert_eq!(fault.access, Access::Fetch);
            assert_eq!(cpu.hart.gp().wrapping_sub(4), entry);
        }
        other => panic!("P1 entry: expected fetch fault, got {other:?}"),
    }
}

/// What the RVC spec (RV64C, quadrant 1) says about a halfword, read here
/// and not from `chimera-isa`'s table.
#[derive(Debug, PartialEq)]
enum SpecClass {
    Legal,
    /// Executes as a no-op on hardware.
    Hint,
    /// Architecturally illegal.
    Reserved,
}

fn rvc_quadrant_1_class(half: u16) -> SpecClass {
    use SpecClass::*;
    assert_eq!(half & 0b11, 0b01, "{half:#06x} is not in quadrant 1");
    let rd = half >> 7 & 0x1f;
    // imm[5|4:0] of the CI format: the immediate of `c.addi` / `c.li`, the
    // shift amount of `c.srli` / `c.srai`, and, shuffled, every bit of the
    // `c.addi16sp` / `c.lui` immediates.
    let imm_zero = half & 0x107c == 0;
    let class = |reserved: bool, hint: bool| match (reserved, hint) {
        (true, _) => Reserved,
        (false, true) => Hint,
        (false, false) => Legal,
    };
    match half >> 13 {
        // c.nop / c.addi: `rd = x0` with an immediate, or `rd != x0`
        // without one, is a HINT.
        0b000 => class(false, (rd == 0) != imm_zero),
        // c.addiw: `rd = x0` is reserved.
        0b001 => class(rd == 0, false),
        // c.li: `rd = x0` is a HINT.
        0b010 => class(false, rd == 0),
        // c.addi16sp (`rd = sp`) / c.lui: `nzimm = 0` is reserved, the
        // remaining `rd = x0` code points are HINTs.
        0b011 => class(imm_zero, rd == 0),
        0b100 => match (half >> 10 & 0b11, half >> 12 & 1, half >> 5 & 0b11) {
            // c.srli / c.srai: `shamt = 0` is a HINT.
            (0b00 | 0b01, _, _) => class(false, imm_zero),
            // The two unassigned bit-12 rows beside c.subw / c.addw.
            (0b11, 1, 0b10 | 0b11) => Reserved,
            _ => Legal,
        },
        // c.j, c.beqz, c.bnez.
        _ => Legal,
    }
}

/// The P3 halfword is "illegal" by this model's decoder, which is more
/// than the architecture promises: of the `lo12` values SMILE may place
/// there, 56 are reserved encodings and 38 are HINTs that hardware would
/// execute as no-ops (DESIGN.md §6). The split is pinned so that a change
/// to the decoder's HINT policy has to come here and say so.
#[test]
fn p3_lo12_values_are_56_reserved_encodings_and_38_hints() {
    let p3_half = |lo12: u16| {
        let jalr = Inst::Jalr {
            rd: XReg::GP,
            rs1: XReg::GP,
            offset: sext(lo12 as u32, 12),
        };
        (encode(&jalr).unwrap() >> 16) as u16
    };
    let (mut reserved, mut hints) = (0, 0);
    for &lo12 in valid_p3_lo12() {
        match rvc_quadrant_1_class(p3_half(lo12)) {
            SpecClass::Reserved => reserved += 1,
            SpecClass::Hint => hints += 1,
            SpecClass::Legal => panic!("lo12 {lo12:#05x} puts a legal instruction at P3"),
        }
    }
    assert_eq!((reserved, hints), (56, 38));
    // The other way round: every even `lo12` the spec does not make legal
    // is usable, except the one HINT form the decoder accepts
    // (`c.addi rd, 0`, 31 values).
    let unusable_hints = (0..4096u16)
        .step_by(2)
        .filter(|lo12| !valid_p3_lo12().contains(lo12))
        .filter(|&lo12| rvc_quadrant_1_class(p3_half(lo12)) != SpecClass::Legal)
        .inspect(|&lo12| assert_eq!(p3_half(lo12) & 0xf07f, 0x0001, "{lo12:#05x}"))
        .count();
    assert_eq!(unusable_hints, 31);
}
