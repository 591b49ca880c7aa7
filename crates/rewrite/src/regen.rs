//! Binary *regeneration*: the relocate-and-fix-up machinery behind the
//! Safer-style and ARMore-style baselines (§2.2, §6.2).
//!
//! Every recognized instruction is re-emitted into a new code section with
//! direct control flow retargeted; source instructions are translated
//! inline (regeneration may shift code freely, unlike patching). A
//! translation is emitted once, by the scan, which needs its size for the
//! address map: `emit` copies those bytes into the slot they sized.
//! Whether a source is translated at all is
//! [`Translator::can_downgrade`], asked in both places. What
//! distinguishes the two baselines is how *indirect* control flow — whose
//! targets are original-space addresses — is handled:
//!
//! * **Safer-style** ([`Flavor::Safer`]): discovered code pointers in data
//!   are statically rewritten to relocated addresses ("encoded"), and every
//!   indirect jump is instrumented with an inline range check: targets
//!   already in the relocated section jump directly (the common fast path:
//!   returns, encoded pointers), anything else traps to the kernel for
//!   correction. This proactive per-jump check is exactly the overhead the
//!   paper measures against.
//! * **ARMore-style** ([`Flavor::Armore`]): data is left untouched;
//!   indirect jumps land in the *original* section, where each instruction
//!   slot holds a redirect to its relocated copy — a direct `jal` when the
//!   copy is within ±1 MiB (cheap, the ARM case), otherwise a trap-based
//!   trampoline (the RISC-V reality the paper demonstrates).

use crate::chbp::{FaultTable, Mode, RewriteError, RewriteStats, ILLEGAL_HALFWORD};
use crate::emitter::BlockEmitter;
use crate::engine::{Entry, Frame, Placement, RewriteEngine, Scanned, UnitArtifact, Units};
use crate::translate::Translator;
use chimera_analysis::{disassemble, inst_spans, DisasmInst, InstTable};
use chimera_isa::{encode, ExtSet, Inst, XReg};
use chimera_obj::{pcrel_hi_lo, Binary};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Instructions per regeneration span (the parallel transform unit).
const SPAN_INSTS: usize = 1024;

/// Which regeneration baseline to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Safer-style: encode data pointers + instrument indirect jumps.
    Safer,
    /// ARMore-style: original-section redirects, trap when out of `jal`
    /// range.
    Armore,
}

/// Extra metadata the kernel needs to run a regenerated binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegenInfo {
    /// Safer slow-path trap sites: ebreak address → (jump-holding register,
    /// link register or `None`, link value to install).
    pub slow_traps: BTreeMap<u64, SlowTrap>,
}

/// One Safer slow-path trap site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowTrap {
    /// Register holding the (original-space) jump target at the trap.
    pub target_reg: XReg,
    /// Link register to set (the call's `rd`), if any.
    pub link: Option<XReg>,
    /// The relocated return address to install in `link`.
    pub link_value: u64,
}

/// A scanned input: the instruction table, the relocated slot size and
/// address of every instruction, and the span partition. Regeneration
/// lays its spans out back to back from the target base, so the whole
/// address map is known once the slot sizes are.
struct RegenUnits {
    engine: RegenEngine,
    frame: Frame,
    /// Per span, the translation of each of its source instructions that
    /// has a template, in order: the bytes that sized the slot and fill it.
    translations: Vec<Vec<Vec<u8>>>,
    /// All recognized instructions, in address order (shared with the
    /// disassembly).
    insts: InstTable,
    /// Statically resolved `auipc; jalr` call pairs: jalr address →
    /// original call target.
    direct_pair: BTreeMap<u64, u64>,
    /// Address map: original → relocated.
    map: BTreeMap<u64, u64>,
    /// Relocated slot size per instruction.
    sizes: Vec<u64>,
    /// The units: instruction index ranges `[start, end)`.
    spans: Vec<(usize, usize)>,
}

/// The Safer/ARMore regeneration engine.
#[derive(Debug, Clone, Copy)]
pub struct RegenEngine {
    /// The target core profile.
    pub target: ExtSet,
    /// Source-instruction handling.
    pub mode: Mode,
    /// Which baseline to produce.
    pub flavor: Flavor,
}

impl RegenEngine {
    /// Whether this run translates `inst` inline (else a source is copied:
    /// verbatim under empty patching, to fault and migrate without a
    /// template).
    fn translates(&self, inst: &Inst) -> bool {
        self.mode == Mode::Downgrade
            && self.mode.is_source(inst, self.target)
            && Translator::can_downgrade(inst)
    }

    /// The relocated slot size of an instruction this run does not
    /// translate: a pure function of the instruction (+ the direct-pair
    /// set), never of its final address — variable-length sequences are
    /// nop-padded to their fixed slot. A translated instruction's slot is
    /// its translation.
    fn slot_size(&self, di: &DisasmInst, direct_pair: &BTreeMap<u64, u64>) -> u64 {
        if self.mode.is_source(&di.inst, self.target) {
            return 4;
        }
        match di.inst {
            Inst::Branch { .. } => 8, // Inverted branch + jal.
            Inst::Jal { .. } => 8,    // jal+pad or auipc+jalr.
            Inst::Jalr { rd, rs1, offset } => {
                if direct_pair.contains_key(&di.addr) {
                    8 // Redirected direct call: auipc + jalr.
                } else if self.flavor == Flavor::Safer && safer_instrumentable(rd, rs1, offset) {
                    4 * 9 // The instrumentation sequence (fixed shape).
                } else {
                    4
                }
            }
            Inst::Auipc { .. } => 8, // Re-materialization.
            _ => 4,
        }
    }
}

impl RewriteEngine for RegenEngine {
    fn target_section(&self) -> Option<&'static str> {
        Some(".regen.text")
    }

    fn scan(&self, input: &Binary, frame: Frame, workers: usize) -> Result<Scanned, RewriteError> {
        let d = disassemble(input);
        let insts = d.insts.clone();

        // Statically resolvable `auipc rd, hi; jalr rd2, lo(rd)` pairs:
        // direct calls in disguise (the standard `call` expansion).
        // Regeneration redirects them to the relocated target without
        // runtime machinery — exactly what Safer's "statically
        // corrected/encoded" targets and ARMore's direct-control-flow
        // fixup do. The fixup is skipped when the jalr is itself a jump
        // target (the pairing assumption would not hold).
        let mut direct_pair: BTreeMap<u64, u64> = BTreeMap::new();
        for w in insts.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if let (
                Inst::Auipc { rd, imm20 },
                Inst::Jalr {
                    rd: rd2,
                    rs1,
                    offset,
                },
            ) = (a.inst, b.inst)
            {
                // Only linking pairs (calls): a non-linking pair would
                // need a scratch register to span ±2 GiB, which plain
                // relocation does not have.
                if rd == rs1
                    && rd2 != XReg::ZERO
                    && d.targets.binary_search(&b.addr).is_err()
                    && d.data_refs.binary_search(&b.addr).is_err()
                {
                    let target = a
                        .addr
                        .wrapping_add(((imm20 as i64) << 12) as u64)
                        .wrapping_add(offset as i64 as u64);
                    if d.at(target).is_some() {
                        direct_pair.insert(b.addr, target);
                    }
                }
            }
        }

        // Span partition + parallel slot sizing (pure per instruction).
        let spans = inst_spans(&d, SPAN_INSTS);
        let translator = Translator::new(frame.spill_base, frame.abi_gp);
        // A translated source is sized by emitting it, once: the bytes
        // come back, per span and in order, for `emit` to copy.
        type Sized = Result<(Vec<u64>, Vec<Vec<u8>>), RewriteError>;
        let sized = chimera_analysis::par::map_indexed(workers, spans.len(), |i| -> Sized {
            let (s, e) = spans[i];
            let mut sizes = Vec::with_capacity(e - s);
            let mut translated = Vec::new();
            for di in &insts[s..e] {
                if self.translates(&di.inst) {
                    let mut em = BlockEmitter::new();
                    translator.downgrade(&di.inst, &mut em)?;
                    let body = em.finish()?;
                    sizes.push(body.len() as u64);
                    translated.push(body);
                } else {
                    sizes.push(self.slot_size(di, &direct_pair));
                }
            }
            Ok((sizes, translated))
        });
        let mut sizes: Vec<u64> = Vec::with_capacity(insts.len());
        let mut translations = Vec::with_capacity(spans.len());
        for span in sized {
            let (span_sizes, translated) = span?;
            sizes.extend(span_sizes);
            translations.push(translated);
        }

        // Address map: original → relocated (prefix sum over slot sizes).
        let mut map = BTreeMap::new();
        let mut cursor = frame.target_base;
        for (di, size) in insts.iter().zip(&sizes) {
            map.insert(di.addr, cursor);
            cursor += size;
        }

        Ok(Scanned {
            ranges: spans
                .iter()
                .map(|&(s, e)| (insts[s].addr, insts[e - 1].next_addr()))
                .collect(),
            profile: self.target,
            total_insts: insts.len(),
            source_insts: insts
                .iter()
                .filter(|di| self.mode.is_source(&di.inst, self.target))
                .count(),
            untranslated: BTreeSet::new(),
            units: Arc::new(RegenUnits {
                engine: *self,
                frame,
                translations,
                insts,
                direct_pair,
                map,
                sizes,
                spans,
            }),
        })
    }
}

impl Units for RegenUnits {
    fn place(&self, idx: usize, cursor: u64) -> Result<Option<Placement>, RewriteError> {
        let mapped = self.map[&self.insts[self.spans[idx].0].addr];
        if mapped != cursor {
            return Err(RewriteError::Layout(format!(
                "span {idx} planned at {cursor:#x}, but the address map has {mapped:#x}"
            )));
        }
        Ok(Some(Placement {
            addr: cursor,
            entry: Entry::Unpatched,
        }))
    }

    /// Emits the instructions of one span, each filling its slot at its
    /// mapped address exactly.
    fn emit(&self, idx: usize) -> Result<UnitArtifact, RewriteError> {
        let (start, end) = self.spans[idx];
        let engine = &self.engine;
        let mut translated = self.translations[idx].iter();
        let mut em = BlockEmitter::new();
        let mut art = UnitArtifact::default();
        let mut info = RegenInfo::default();
        for (di, &size) in self.insts[start..end].iter().zip(&self.sizes[start..end]) {
            let new_addr = self.map[&di.addr];
            let slot_start = em.offset();
            if engine.translates(&di.inst) {
                em.raw(translated.next().expect("the scan translated it"));
            } else if engine.mode.is_source(&di.inst, engine.target) {
                em.inst(di.inst);
                if engine.mode == Mode::Downgrade {
                    // No template: faults at runtime, the kernel migrates.
                    art.fht.untranslated.insert(new_addr);
                }
            } else if let Some(&old_target) = self.direct_pair.get(&di.addr) {
                // Statically resolved call: jump straight to the relocated
                // target, linking the relocated return address.
                let Inst::Jalr { rd, .. } = di.inst else {
                    unreachable!("direct pairs are jalr instructions")
                };
                let new_target = *self
                    .map
                    .get(&old_target)
                    .ok_or_else(|| RewriteError::Layout(format!("pair target {old_target:#x}")))?;
                debug_assert_ne!(rd, XReg::ZERO, "pair matcher only accepts calls");
                let (hi, lo) = pcrel_hi_lo(new_target as i64 - new_addr as i64);
                em.inst(Inst::Auipc { rd, imm20: hi });
                em.inst(Inst::Jalr {
                    rd,
                    rs1: rd,
                    offset: lo,
                });
            } else {
                emit_relocated(
                    di,
                    new_addr,
                    size,
                    &self.map,
                    engine.flavor,
                    self.frame.target_base,
                    self.frame.abi_gp,
                    &mut em,
                    &mut info,
                    &mut art.stats,
                )?;
            }
            // Pad to the planned size with nops: straight-line slots fall
            // through their padding into the next slot (original program
            // order), so the filler must execute as a no-op.
            let emitted = em.offset() - slot_start;
            assert!(emitted <= size, "{} overflowed its slot", di.inst);
            debug_assert_eq!((size - emitted) % 4, 0, "slot sizes are word-granular");
            for _ in 0..(size - emitted) / 4 {
                em.inst(chimera_isa::nop());
            }
        }
        art.bytes = em.finish()?;
        art.regen = Some(info);
        Ok(art)
    }

    /// Redirects every original slot, encodes data pointers (Safer),
    /// publishes the address map and moves the entry point.
    fn link(
        &self,
        input: &Binary,
        out: &mut Binary,
        fht: &mut FaultTable,
        stats: &mut RewriteStats,
    ) -> Result<u64, RewriteError> {
        rewrite_original_section(out, &self.insts, &self.map, self.engine.flavor, stats)?;

        // Safer: "encode" discovered code pointers in data sections.
        if self.engine.flavor == Flavor::Safer {
            let text = input
                .section(".text")
                .ok_or(RewriteError::MissingSection(".text"))?;
            let patches: Vec<(u64, u64)> = out
                .sections
                .iter()
                .filter(|s| !s.perms.x)
                .flat_map(|s| {
                    let mut v = Vec::new();
                    for off in (0..s.data.len().saturating_sub(7)).step_by(8) {
                        let val = u64::from_le_bytes(s.data[off..off + 8].try_into().unwrap());
                        if val >= text.addr && val < text.end() {
                            if let Some(&new) = self.map.get(&val) {
                                v.push((s.addr + off as u64, new));
                            }
                        }
                    }
                    v
                })
                .collect();
            for (addr, new) in patches {
                out.write(addr, &new.to_le_bytes());
            }
        }

        fht.redirects
            .extend(self.map.iter().map(|(&old, &new)| (old, new)));
        out.entry = *self.map.get(&input.entry).unwrap_or(&input.entry);
        Ok(self.insts.len() as u64)
    }
}

fn safer_instrumentable(rd: XReg, rs1: XReg, offset: i32) -> bool {
    // The check sequence borrows gp and the jump register; see module docs.
    if rs1 == XReg::GP || rd == XReg::GP {
        return false;
    }
    rd != XReg::ZERO || offset == 0
}

#[allow(clippy::too_many_arguments)]
fn emit_relocated(
    di: &DisasmInst,
    new_addr: u64,
    size: u64,
    map: &BTreeMap<u64, u64>,
    flavor: Flavor,
    new_base: u64,
    abi_gp: u64,
    em: &mut BlockEmitter,
    info: &mut RegenInfo,
    stats: &mut RewriteStats,
) -> Result<(), RewriteError> {
    match di.inst {
        Inst::Branch {
            kind,
            rs1,
            rs2,
            offset,
        } => {
            let old_target = di.addr.wrapping_add(offset as i64 as u64);
            let new_target = *map.get(&old_target).ok_or_else(|| {
                RewriteError::Layout(format!("branch target {old_target:#x} unmapped"))
            })?;
            // Inverted branch skipping a jal: 8 bytes, full jal reach.
            let rel = new_target as i64 - (new_addr as i64 + 4);
            let off = i32::try_from(rel)
                .ok()
                .filter(|o| (-(1 << 20)..(1 << 20)).contains(o))
                .ok_or_else(|| {
                    RewriteError::Layout(format!(
                        "relocated branch from {new_addr:#x} to {new_target:#x} exceeds ±1MiB"
                    ))
                })?;
            em.inst(Inst::Branch {
                kind: kind.inverted(),
                rs1,
                rs2,
                offset: 8,
            })
            .inst(Inst::Jal {
                rd: XReg::ZERO,
                offset: off,
            });
            Ok(())
        }
        Inst::Jal { rd, offset } => {
            let old_target = di.addr.wrapping_add(offset as i64 as u64);
            let new_target = *map.get(&old_target).ok_or_else(|| {
                RewriteError::Layout(format!("jal target {old_target:#x} unmapped"))
            })?;
            let rel = new_target as i64 - new_addr as i64;
            if rd == XReg::ZERO {
                let off = i32::try_from(rel)
                    .ok()
                    .filter(|o| (-(1 << 20)..(1 << 20)).contains(o));
                match off {
                    Some(o) => {
                        em.inst(Inst::Jal {
                            rd: XReg::ZERO,
                            offset: o,
                        });
                    }
                    None => {
                        return Err(RewriteError::Layout(format!(
                            "relocated jump from {new_addr:#x} to {new_target:#x} exceeds ±1MiB"
                        )));
                    }
                }
            } else {
                let (hi, lo) = pcrel_hi_lo(rel);
                em.inst(Inst::Auipc { rd, imm20: hi }).inst(Inst::Jalr {
                    rd,
                    rs1: rd,
                    offset: lo,
                });
            }
            Ok(())
        }
        Inst::Jalr { rd, rs1, offset } => {
            if flavor == Flavor::Safer && safer_instrumentable(rd, rs1, offset) {
                emit_safer_check(new_addr, size, rd, rs1, offset, new_base, abi_gp, em, info);
                stats.exit_trampolines += 1;
            } else {
                em.inst(di.inst);
            }
            Ok(())
        }
        Inst::Auipc { rd, imm20 } => {
            let value = di.addr.wrapping_add(((imm20 as i64) << 12) as u64);
            let (hi, lo) = pcrel_hi_lo(value as i64 - new_addr as i64);
            em.inst(Inst::Auipc { rd, imm20: hi });
            if lo != 0 {
                em.inst(chimera_obj::addi(rd, rd, lo));
            }
            Ok(())
        }
        _ => {
            em.inst(di.inst);
            Ok(())
        }
    }
}

/// The Safer per-indirect-jump check (9 instruction slots):
///
/// ```text
///   addi  J, rs1, off        # J = jump target (J = rd, or rs1 for jr)
///   lui   gp, %hi(new_base)  # li32: 2 insts
///   addiw gp, gp, %lo
///   bltu  J, gp, slow        # original-space target?
///   lui   gp, %hi(abi_gp)    # restore gp: 2 insts
///   addiw gp, gp, %lo
///   jalr  rd', 0(J)          # fast path (links over the slow path)
/// slow:
///   ebreak                   # kernel: pc = redirects[J]; rd' = link
///   <illegal pad>
/// ```
#[allow(clippy::too_many_arguments)]
fn emit_safer_check(
    new_addr: u64,
    size: u64,
    rd: XReg,
    rs1: XReg,
    offset: i32,
    new_base: u64,
    abi_gp: u64,
    em: &mut BlockEmitter,
    info: &mut RegenInfo,
) {
    let j = if rd != XReg::ZERO { rd } else { rs1 };
    let slot_start = em.offset();
    let fast = em.new_label();
    em.inst(chimera_obj::addi(j, rs1, offset));
    em.li32(XReg::GP, new_base as i64);
    em.branch_to(chimera_isa::BranchKind::Bgeu, j, XReg::GP, fast);
    // Slow path: the kernel corrects the target and installs the link.
    let trap_at = new_addr + (em.offset() - slot_start);
    em.inst(Inst::Ebreak);
    info.slow_traps.insert(
        trap_at,
        SlowTrap {
            target_reg: j,
            link: (rd != XReg::ZERO).then_some(rd),
            link_value: new_addr + size,
        },
    );
    // Fast path last, so a linking jalr's return address (pc + 4) falls
    // into the slot's nop padding and on to the next slot.
    em.label(fast);
    em.li32(XReg::GP, abi_gp as i64);
    em.inst(Inst::Jalr {
        rd,
        rs1: j,
        offset: 0,
    });
}

/// Rewrites the original `.text` into redirect slots: a `jal` to the
/// relocated copy when in range and the slot is 4 bytes (ARMore's cheap
/// case), otherwise illegal filler that traps to the kernel, which follows
/// `redirects`.
fn rewrite_original_section(
    out: &mut Binary,
    insts: &[DisasmInst],
    map: &BTreeMap<u64, u64>,
    flavor: Flavor,
    stats: &mut RewriteStats,
) -> Result<(), RewriteError> {
    for di in insts {
        let new = map[&di.addr];
        let rel = new as i64 - di.addr as i64;
        let use_jal =
            flavor == Flavor::Armore && di.len == 4 && (-(1 << 20)..(1 << 20)).contains(&rel);
        let bytes: Vec<u8> = if use_jal {
            encode(&Inst::Jal {
                rd: XReg::ZERO,
                offset: rel as i32,
            })
            .expect("checked range")
            .to_le_bytes()
            .to_vec()
        } else {
            stats.trap_entries += 1;
            let mut v = Vec::new();
            for _ in 0..di.len / 2 {
                v.extend_from_slice(&ILLEGAL_HALFWORD.to_le_bytes());
            }
            v
        };
        if !out.write(di.addr, &bytes) {
            return Err(RewriteError::Layout(format!(
                "cannot rewrite original slot at {:#x}",
                di.addr
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{default_workers, run, EngineResult};
    use chimera_emu::{run_binary, run_binary_on};
    use chimera_obj::{assemble, AsmOptions};
    use chimera_trace::Tracer;

    fn regenerate(bin: &Binary, target: ExtSet, mode: Mode, flavor: Flavor) -> EngineResult {
        let engine = RegenEngine {
            target,
            mode,
            flavor,
        };
        run(&engine, bin, default_workers(), &Tracer::disabled()).unwrap()
    }

    const PROG: &str = "
        .data
        a: .dword 1
           .dword 2
           .dword 3
           .dword 4
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            vle64.v v1, (a0)
            vmv.v.i v2, 0
            vredsum.vs v3, v1, v2
            vmv.x.s s1, v3
            la t2, helper
            jalr t2              # indirect call (register target)
            add a0, a0, s1       # 10 (sum) + 32 (helper)
            li a7, 93
            ecall
        helper:
            li a0, 32
            ret
    ";

    /// A minimal kernel stand-in: services Safer slow-path traps and
    /// original-section redirects, then resumes; `exit` ends the run.
    fn run_regenerated(rg: &EngineResult, profile: chimera_isa::ExtSet, fuel: u64) -> i64 {
        let (mut cpu, mut mem) = chimera_emu::boot(&rg.rewritten.binary, profile);
        for _ in 0..fuel {
            match cpu.run(&mut mem, fuel) {
                chimera_emu::Stop::Trap(chimera_emu::Trap::Ecall { .. }) => {
                    let n = cpu.hart.get_x(XReg::A7);
                    assert_eq!(n, 93, "test programs only exit");
                    return cpu.hart.get_x(XReg::A0) as i64;
                }
                chimera_emu::Stop::Trap(chimera_emu::Trap::Breakpoint { pc }) => {
                    let st = rg
                        .regen
                        .as_ref()
                        .unwrap()
                        .slow_traps
                        .get(&pc)
                        .expect("known slow trap");
                    let old_target = cpu.hart.get_x(st.target_reg);
                    let new_target = *rg
                        .rewritten
                        .fht
                        .redirects
                        .get(&old_target)
                        .expect("correctable target");
                    if let Some(link) = st.link {
                        cpu.hart.set_x(link, st.link_value);
                    }
                    cpu.hart.pc = new_target;
                }
                chimera_emu::Stop::Trap(chimera_emu::Trap::Illegal { pc, .. }) => {
                    // Original-section trap slot: follow the redirect.
                    let new = *rg
                        .rewritten
                        .fht
                        .redirects
                        .get(&pc)
                        .expect("redirectable original address");
                    cpu.hart.pc = new;
                }
                other => panic!("unexpected stop: {other:?}"),
            }
        }
        panic!("out of fuel");
    }

    #[test]
    fn safer_regeneration_downgrades_and_runs() {
        let bin = assemble(PROG, AsmOptions::default()).unwrap();
        let native = run_binary(&bin, 100_000).unwrap();
        assert_eq!(native.exit_code, 42);

        let rg = regenerate(
            &bin,
            chimera_isa::ExtSet::RV64GC,
            Mode::Downgrade,
            Flavor::Safer,
        );
        // Indirect jumps were instrumented.
        assert!(rg.rewritten.stats.exit_trampolines > 0);
        let code = run_regenerated(&rg, chimera_isa::ExtSet::RV64GC, 1_000_000);
        assert_eq!(code, 42);
    }

    #[test]
    fn safer_encodes_data_pointers() {
        let bin = assemble(
            "
            .text
            _start:
                la t0, table
                ld t1, 0(t0)
                jalr t1
                li a7, 93
                ecall
            fn1:
                li a0, 55
                ret
            .rodata
            table: .dword fn1
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let rg = regenerate(
            &bin,
            chimera_isa::ExtSet::RV64GC,
            Mode::EmptyPatch(chimera_isa::Ext::V),
            Flavor::Safer,
        );
        // The pointer in .rodata now targets the relocated section: the
        // call takes the fast path, so the bare runner suffices.
        let r = run_binary_on(&rg.rewritten.binary, chimera_isa::ExtSet::RV64GCV, 100_000).unwrap();
        assert_eq!(r.exit_code, 55);
        let ro = rg.rewritten.binary.section(".rodata").unwrap();
        let ptr = u64::from_le_bytes(ro.data[0..8].try_into().unwrap());
        let (lo, hi) = rg.rewritten.fht.target_range;
        assert!((lo..hi).contains(&ptr));
    }

    #[test]
    fn armore_relocation_redirect_map_complete() {
        let bin = assemble(PROG, AsmOptions::default()).unwrap();
        let rg = regenerate(
            &bin,
            chimera_isa::ExtSet::RV64GC,
            Mode::Downgrade,
            Flavor::Armore,
        );
        // Every original instruction has a redirect.
        let d = chimera_analysis::disassemble(&bin);
        for di in d.iter() {
            assert!(
                rg.rewritten.fht.redirects.contains_key(&di.addr),
                "missing redirect for {:#x}",
                di.addr
            );
        }
        // Entry moved into the relocated section.
        let (lo, hi) = rg.rewritten.fht.target_range;
        assert!((lo..hi).contains(&rg.rewritten.binary.entry));
    }

    #[test]
    fn armore_in_range_slots_hold_jal() {
        let bin = assemble(
            "
            _start:
                li a0, 9
                li a7, 93
                ecall
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let rg = regenerate(
            &bin,
            chimera_isa::ExtSet::RV64GC,
            Mode::EmptyPatch(chimera_isa::Ext::V),
            Flavor::Armore,
        );
        // Small binary: relocated section is close, slots are jals, so a
        // jump to an *original* address still works without the kernel.
        let (mut cpu, mut mem) = chimera_emu::boot(&rg.rewritten.binary, bin.profile);
        cpu.hart.pc = bin.entry; // Old-space entry: should bounce via jal.
        let r = chimera_emu::run_cpu(&mut cpu, &mut mem, 10_000).unwrap();
        assert_eq!(r.exit_code, 9);
    }

    #[test]
    fn regenerated_loop_semantics() {
        let bin = assemble(
            "
            _start:
                li t0, 10
                li a0, 0
            loop:
                add a0, a0, t0
                addi t0, t0, -1
                bnez t0, loop
                li a7, 93
                ecall
            ",
            AsmOptions::default(),
        )
        .unwrap();
        for flavor in [Flavor::Safer, Flavor::Armore] {
            let rg = regenerate(
                &bin,
                chimera_isa::ExtSet::RV64GC,
                Mode::EmptyPatch(chimera_isa::Ext::V),
                flavor,
            );
            let r =
                run_binary_on(&rg.rewritten.binary, chimera_isa::ExtSet::RV64GC, 100_000).unwrap();
            assert_eq!(r.exit_code, 55, "{flavor:?}");
        }
    }
}
