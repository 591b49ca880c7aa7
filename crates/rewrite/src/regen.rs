//! Binary *regeneration*: the relocate-and-fix-up machinery behind the
//! Safer-style and ARMore-style baselines (§2.2, §6.2).
//!
//! Every recognized instruction is re-emitted into a new code section with
//! direct control flow retargeted; source instructions are translated
//! inline (regeneration may shift code freely, unlike patching). What
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

use crate::chbp::{FaultTable, Mode, RewriteError, RewriteStats, Rewritten, ILLEGAL_HALFWORD};
use crate::emitter::BlockEmitter;
use crate::engine::{EngineState, RewriteEngine, RewriteUnit, UnitArtifact, UnitKind, UnitPlan};
use crate::translate::{SpillLayout, Translator};
use chimera_analysis::{disassemble, inst_spans, DisasmInst, InstTable};
use chimera_isa::{encode, ExtSet, Inst, XReg};
use chimera_obj::{pcrel_hi_lo, Binary, Perms};
use chimera_trace::Tracer;
use std::collections::BTreeMap;

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

/// A regenerated binary: the rewritten output plus regeneration metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regenerated {
    /// The rewritten binary and shared runtime tables (`redirects` maps
    /// every original instruction address to its relocated copy).
    pub rewritten: Rewritten,
    /// Safer slow-path metadata.
    pub info: RegenInfo,
}

/// Regenerates `binary` for profile `target`.
pub fn regenerate(
    binary: &Binary,
    target: ExtSet,
    mode: Mode,
    flavor: Flavor,
) -> Result<Regenerated, RewriteError> {
    regenerate_with(
        binary,
        target,
        mode,
        flavor,
        crate::pipeline::default_workers(),
        &Tracer::disabled(),
    )
}

/// [`regenerate`] with an explicit worker count and tracer. Output is
/// bit-identical for every worker count.
pub fn regenerate_with(
    binary: &Binary,
    target: ExtSet,
    mode: Mode,
    flavor: Flavor,
    workers: usize,
    tracer: &Tracer,
) -> Result<Regenerated, RewriteError> {
    let engine = RegenEngine {
        target,
        mode,
        flavor,
    };
    let r = crate::pipeline::run(&engine, binary, workers, tracer)?;
    Ok(Regenerated {
        rewritten: r.rewritten,
        info: r.regen.unwrap_or_default(),
    })
}

/// Regeneration working state carried between pipeline stages.
pub(crate) struct RegenAux {
    /// All recognized instructions, in address order (shared with the
    /// disassembly).
    insts: InstTable,
    /// Statically resolved `auipc; jalr` call pairs: jalr address →
    /// original call target.
    direct_pair: BTreeMap<u64, u64>,
    /// Address map: original → relocated (filled by plan).
    map: BTreeMap<u64, u64>,
    /// Relocated slot size per instruction.
    sizes: Vec<u64>,
}

impl RegenAux {
    /// The input-address range `[start, end)` covered by the span of
    /// instruction indices `[start, end)` — the source range the
    /// incremental driver keys the dirty-unit set on.
    pub(crate) fn span_range(&self, start: usize, end: usize) -> (u64, u64) {
        let first = &self.insts[start];
        let last = &self.insts[end - 1];
        (first.addr, last.addr + last.len as u64)
    }
}

/// The Safer/ARMore regeneration engine.
pub struct RegenEngine {
    /// The target core profile.
    pub target: ExtSet,
    /// Source-instruction handling.
    pub mode: Mode,
    /// Which baseline to produce.
    pub flavor: Flavor,
}

impl RegenEngine {
    fn is_source(&self, inst: &Inst) -> bool {
        match self.mode {
            Mode::Downgrade => !inst.runnable_on(self.target),
            Mode::EmptyPatch(ext) => inst.ext() == Some(ext),
        }
    }

    /// The relocated slot size of one instruction: a pure function of the
    /// instruction (+ the direct-pair set and translator parameters),
    /// never of its final address — variable-length sequences are
    /// nop-padded to their fixed slot.
    fn slot_size(
        &self,
        di: &DisasmInst,
        direct_pair: &BTreeMap<u64, u64>,
        spill_base: u64,
        abi_gp: u64,
    ) -> u64 {
        if self.is_source(&di.inst) {
            match self.mode {
                Mode::EmptyPatch(_) => 4,
                Mode::Downgrade => {
                    let mut t = Translator::new(spill_base, abi_gp);
                    let mut probe = BlockEmitter::new(0);
                    match t.downgrade(&di.inst, &mut probe) {
                        Ok(()) => probe.finish().len() as u64,
                        Err(_) => 4, // Left as-is; faults lazily at runtime.
                    }
                }
            }
        } else {
            match di.inst {
                Inst::Branch { .. } => 8, // Inverted branch + jal.
                Inst::Jal { .. } => 8,    // jal+pad or auipc+jalr.
                Inst::Jalr { rd, rs1, offset } => {
                    if direct_pair.contains_key(&di.addr) {
                        8 // Redirected direct call: auipc + jalr.
                    } else if self.flavor == Flavor::Safer && safer_instrumentable(rd, rs1, offset)
                    {
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

    /// Emits the instructions of one span at their final addresses.
    fn emit_span(
        &self,
        start: usize,
        end: usize,
        aux: &RegenAux,
        new_base: u64,
        spill_base: u64,
        abi_gp: u64,
    ) -> Result<UnitArtifact, RewriteError> {
        let mut translator = Translator::new(spill_base, abi_gp);
        let mut em = BlockEmitter::new(aux.map[&aux.insts[start].addr]);
        let mut art = UnitArtifact::default();
        for (di, &size) in aux.insts[start..end].iter().zip(&aux.sizes[start..end]) {
            let new_addr = aux.map[&di.addr];
            debug_assert_eq!(em.addr(), new_addr, "size plan must match emission");
            if self.is_source(&di.inst) {
                match self.mode {
                    Mode::EmptyPatch(_) => {
                        em.inst(di.inst);
                    }
                    Mode::Downgrade => {
                        if translator.downgrade(&di.inst, &mut em).is_err() {
                            em.inst(di.inst); // Untranslated: traps at runtime.
                            art.fht.untranslated.insert(new_addr);
                        }
                    }
                }
            } else if let Some(&old_target) = aux.direct_pair.get(&di.addr) {
                // Statically resolved call: jump straight to the relocated
                // target, linking the relocated return address.
                let Inst::Jalr { rd, .. } = di.inst else {
                    unreachable!("direct pairs are jalr instructions")
                };
                let new_target = *aux
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
                    &aux.map,
                    self.flavor,
                    new_base,
                    abi_gp,
                    &mut em,
                    &mut art.regen,
                    &mut art.stats,
                )?;
            }
            // Pad to the planned size with nops: straight-line slots fall
            // through their padding into the next slot (original program
            // order), so the filler must execute as a no-op.
            let emitted = em.addr() - new_addr;
            assert!(emitted <= size, "{} overflowed its slot", di.inst);
            debug_assert_eq!((size - emitted) % 4, 0, "slot sizes are word-granular");
            for _ in 0..(size - emitted) / 4 {
                em.inst(chimera_isa::nop());
            }
        }
        art.bytes = em.finish();
        Ok(art)
    }
}

impl RewriteEngine for RegenEngine {
    fn name(&self) -> &'static str {
        match self.flavor {
            Flavor::Safer => "safer",
            Flavor::Armore => "armore",
        }
    }

    fn scan(&self, st: &mut EngineState) -> Result<(), RewriteError> {
        st.input
            .validate()
            .map_err(|e| RewriteError::BadBinary(e.to_string()))?;
        let d = disassemble(st.input);
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

        let mut out = st.input.clone();
        let spill_base = out.append_section(
            ".chimera.vregs",
            vec![0u8; SpillLayout::SIZE.next_multiple_of(0x1000)],
            Perms::RW,
        );
        let new_base = {
            let top = out.sections.iter().map(|s| s.end()).max().unwrap_or(0);
            (top + 0xfff) & !0xfff
        };
        st.fht.abi_gp = st.input.gp;
        st.fht.spill_base = spill_base;
        st.target_base = new_base;
        st.out = Some(out);

        st.stats.code_size = st.input.code_size();
        st.stats.total_insts = insts.len();
        st.stats.source_insts = insts.iter().filter(|di| self.is_source(&di.inst)).count();

        // Span partition + parallel slot sizing (pure per instruction).
        let abi_gp = st.input.gp;
        let spans = inst_spans(&d, SPAN_INSTS);
        let span_sizes: Vec<Vec<u64>> =
            chimera_analysis::par::map_indexed(st.workers, spans.len(), |i| {
                let (s, e) = spans[i];
                insts[s..e]
                    .iter()
                    .map(|di| self.slot_size(di, &direct_pair, spill_base, abi_gp))
                    .collect()
            });
        let sizes: Vec<u64> = span_sizes.into_iter().flatten().collect();

        st.units = std::sync::Arc::new(
            spans
                .iter()
                .map(|&(start, end)| RewriteUnit {
                    kind: UnitKind::Span { start, end },
                })
                .collect(),
        );
        st.unit_sizes = std::sync::Arc::new(
            spans
                .iter()
                .map(|&(s, e)| sizes[s..e].iter().sum())
                .collect(),
        );
        st.pass_items = insts.len() as u64;
        st.regen_aux = Some(std::sync::Arc::new(RegenAux {
            insts,
            direct_pair,
            map: BTreeMap::new(),
            sizes,
        }));
        st.disasm = Some(std::sync::Arc::new(d));
        Ok(())
    }

    fn plan(&self, st: &mut EngineState) -> Result<(), RewriteError> {
        // Address map: original → relocated (prefix sum over slot sizes).
        // Plan runs before the cache snapshot shares the aux, so the Arc
        // is still uniquely owned here.
        let aux = std::sync::Arc::get_mut(st.regen_aux.as_mut().expect("scan ran"))
            .expect("plan mutates the aux before it is shared");
        let mut cursor = st.target_base;
        for (di, size) in aux.insts.iter().zip(&aux.sizes) {
            aux.map.insert(di.addr, cursor);
            cursor += size;
        }
        st.plans = st
            .units
            .iter()
            .map(|u| {
                let UnitKind::Span { start, .. } = u.kind else {
                    unreachable!("regeneration units are spans")
                };
                UnitPlan {
                    addr: aux.map[&aux.insts[start].addr],
                    padding: 0,
                }
            })
            .collect();
        st.pass_items = st.units.len() as u64;
        Ok(())
    }

    fn transform(&self, st: &mut EngineState) -> Result<(), RewriteError> {
        let aux = st.regen_aux.as_deref().expect("scan ran");
        let units = &st.units;
        let new_base = st.target_base;
        let (spill_base, abi_gp) = (st.fht.spill_base, st.fht.abi_gp);
        let results: Vec<Result<UnitArtifact, RewriteError>> =
            chimera_analysis::par::map_indexed(st.workers, units.len(), |i| {
                let UnitKind::Span { start, end } = units[i].kind else {
                    unreachable!("regeneration units are spans")
                };
                self.emit_span(start, end, aux, new_base, spill_base, abi_gp)
            });
        let mut artifacts = Vec::with_capacity(results.len());
        for r in results {
            artifacts.push(r?);
        }
        for (art, &size) in artifacts.iter().zip(st.unit_sizes.iter()) {
            debug_assert_eq!(art.bytes.len() as u64, size, "span must fill its slots");
        }
        st.pass_items = artifacts.len() as u64;
        st.artifacts = artifacts;
        Ok(())
    }

    fn transform_unit(&self, st: &EngineState, idx: usize) -> Result<UnitArtifact, RewriteError> {
        let aux = st.regen_aux.as_deref().expect("cache holds the aux");
        let UnitKind::Span { start, end } = st.units[idx].kind else {
            unreachable!("regeneration units are spans")
        };
        self.emit_span(
            start,
            end,
            aux,
            st.target_base,
            st.fht.spill_base,
            st.fht.abi_gp,
        )
    }

    fn place(&self, st: &mut EngineState) -> Result<(), RewriteError> {
        st.pass_items = st.artifacts.len() as u64;
        let artifacts = std::mem::take(&mut st.artifacts);
        for (plan, mut art) in st.plans.iter().zip(artifacts) {
            debug_assert_eq!(st.target_base + st.target_code.len() as u64, plan.addr);
            st.target_code.extend_from_slice(&art.bytes);
            let regen = st.regen.get_or_insert_with(RegenInfo::default);
            regen
                .slow_traps
                .extend(std::mem::take(&mut art.regen).slow_traps);
            crate::engine::merge_fragment(&mut st.fht, &mut st.stats, art);
        }
        Ok(())
    }

    fn link(&self, st: &mut EngineState) -> Result<(), RewriteError> {
        let aux = st.regen_aux.clone().expect("scan ran");
        let out = st.out.as_mut().expect("scan cloned the input");
        let new_base = st.target_base;

        // Original section: redirects.
        rewrite_original_section(
            out,
            &aux.insts,
            &aux.map,
            self.flavor,
            &mut st.fht,
            &mut st.stats,
        )?;

        // Safer: "encode" discovered code pointers in data sections.
        if self.flavor == Flavor::Safer {
            let text = st.input.section(".text").expect("validated").clone();
            let patches: Vec<(u64, u64)> = out
                .sections
                .iter()
                .filter(|s| !s.perms.x)
                .flat_map(|s| {
                    let mut v = Vec::new();
                    for off in (0..s.data.len().saturating_sub(7)).step_by(8) {
                        let val = u64::from_le_bytes(s.data[off..off + 8].try_into().unwrap());
                        if val >= text.addr && val < text.end() {
                            if let Some(&new) = aux.map.get(&val) {
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

        st.stats.target_section_size = st.target_code.len() as u64;
        let new_code = std::mem::take(&mut st.target_code);
        let placed = out.append_section(".regen.text", new_code, Perms::RX);
        if placed != new_base {
            return Err(RewriteError::Layout(format!(
                "relocated section at {placed:#x}, expected {new_base:#x}"
            )));
        }
        let target_end = out
            .section(".regen.text")
            .ok_or(RewriteError::MissingSection(".regen.text"))?
            .end();
        st.fht.target_range = (new_base, target_end);
        for (&old, &new) in &aux.map {
            st.fht.redirects.insert(old, new);
        }
        out.entry = *aux.map.get(&st.input.entry).unwrap_or(&st.input.entry);
        out.profile = self.target;
        st.pass_items = aux.insts.len() as u64;
        Ok(())
    }

    fn verify(&self, st: &mut EngineState) -> Result<(), RewriteError> {
        let out = st.out.as_ref().expect("link produced the output binary");
        out.validate()
            .map_err(|e| RewriteError::BadBinary(format!("regenerated binary invalid: {e}")))?;
        st.pass_items = 1;
        Ok(())
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
            let inverted = match kind {
                chimera_isa::BranchKind::Beq => chimera_isa::BranchKind::Bne,
                chimera_isa::BranchKind::Bne => chimera_isa::BranchKind::Beq,
                chimera_isa::BranchKind::Blt => chimera_isa::BranchKind::Bge,
                chimera_isa::BranchKind::Bge => chimera_isa::BranchKind::Blt,
                chimera_isa::BranchKind::Bltu => chimera_isa::BranchKind::Bgeu,
                chimera_isa::BranchKind::Bgeu => chimera_isa::BranchKind::Bltu,
            };
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
                kind: inverted,
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
                emit_safer_check(
                    di, new_addr, size, rd, rs1, offset, new_base, abi_gp, em, info,
                );
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
    di: &DisasmInst,
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
    let fast = format!("safer_fast_{:x}", di.addr);
    em.inst(chimera_obj::addi(j, rs1, offset));
    em.li32(XReg::GP, new_base as i64);
    em.branch_to(chimera_isa::BranchKind::Bgeu, j, XReg::GP, fast.clone());
    // Slow path: the kernel corrects the target and installs the link.
    let trap_at = em.addr();
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
    _fht: &mut FaultTable,
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
    use chimera_emu::{run_binary, run_binary_on};
    use chimera_obj::{assemble, AsmOptions};

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
    fn run_regenerated(rg: &Regenerated, profile: chimera_isa::ExtSet, fuel: u64) -> i64 {
        let (mut cpu, mut mem) = chimera_emu::boot(&rg.rewritten.binary, profile);
        for _ in 0..fuel {
            match cpu.run(&mut mem, fuel) {
                chimera_emu::Stop::Trap(chimera_emu::Trap::Ecall { .. }) => {
                    let n = cpu.hart.get_x(XReg::A7);
                    assert_eq!(n, 93, "test programs only exit");
                    return cpu.hart.get_x(XReg::A0) as i64;
                }
                chimera_emu::Stop::Trap(chimera_emu::Trap::Breakpoint { pc }) => {
                    let st = rg.info.slow_traps.get(&pc).expect("known slow trap");
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
        )
        .unwrap();
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
        )
        .unwrap();
        // The pointer in .rodata now targets the relocated section: the
        // call takes the fast path, so the bare runner suffices.
        let r = run_binary_on(&rg.rewritten.binary, chimera_isa::ExtSet::RV64GCV, 100_000).unwrap();
        assert_eq!(r.exit_code, 55);
        let ro = rg.rewritten.binary.section(".rodata").unwrap();
        let ptr = u64::from_le_bytes(ro.data[0..8].try_into().unwrap());
        assert!(rg.rewritten.fht.in_target_section(ptr));
    }

    #[test]
    fn armore_relocation_redirect_map_complete() {
        let bin = assemble(PROG, AsmOptions::default()).unwrap();
        let rg = regenerate(
            &bin,
            chimera_isa::ExtSet::RV64GC,
            Mode::Downgrade,
            Flavor::Armore,
        )
        .unwrap();
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
        assert!(rg
            .rewritten
            .fht
            .in_target_section(rg.rewritten.binary.entry));
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
        )
        .unwrap();
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
            )
            .unwrap();
            let r =
                run_binary_on(&rg.rewritten.binary, chimera_isa::ExtSet::RV64GC, 100_000).unwrap();
            assert_eq!(r.exit_code, 55, "{flavor:?}");
        }
    }
}
