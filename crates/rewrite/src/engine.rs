//! What a rewriting system supplies to the shared driver.
//!
//! Every system — CHBP, the trap-entry strawman, the Safer/ARMore
//! regeneration flavors, the upgrade vectorizer and the FAM/MELF identity
//! passthrough — is a [`RewriteEngine`]: it names the section its code
//! goes to and *scans* the input into a set of independent rewrite
//! [`Units`]. The unit set answers the only questions that differ between
//! rewriting systems:
//!
//! * **emit** — the unit's bytes, once, before it has an address: whatever
//!   in them depends on the address is left as a [`Reloc`] the driver
//!   resolves where the unit lands;
//! * **place** — given the running target-section cursor, where the unit
//!   goes and how the original section reaches it (SMILE trampoline, trap,
//!   nothing) — or that its source is left untouched;
//! * **link** — an optional engine-specific fix-up of the output binary
//!   (regeneration's original-section redirects, data-pointer encoding and
//!   entry fix-up).
//!
//! Everything else — input validation, the `.chimera.vregs` reservation,
//! the emission fan-out, layout bookkeeping, relocation, target-section
//! assembly and attachment, patching, verification, trace events and the
//! per-unit cache — is [`crate::pipeline`]'s, written once.

use crate::chbp::{FaultTable, RewriteError, RewriteStats, ILLEGAL_HALFWORD};
use crate::regen::RegenInfo;
use chimera_isa::{encode, ExtSet, Inst, XReg};
use chimera_obj::{pcrel_hi_lo, Binary};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The addresses the pipeline fixed before the engine saw the input.
/// All zero for an engine without a target section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Frame {
    /// Base of the `.chimera.vregs` spill section (simulated vector state).
    pub spill_base: u64,
    /// The input's psABI `gp` value.
    pub abi_gp: u64,
    /// Where the target section will land.
    pub target_base: u64,
}

/// A staged rewriting system. Its `Debug` rendering is its cache identity:
/// [`crate::pipeline::run_incremental`] and
/// [`crate::SharedVariantCache::checkout`] treat two engines as the same
/// rewrite only when they print alike, so every parameter that can change
/// the output must be a field `Debug` shows (derive it).
pub trait RewriteEngine: Sync + std::fmt::Debug {
    /// Name of the executable section the engine's code goes to. `None`
    /// means the engine emits no code: the pipeline reserves nothing,
    /// attaches nothing, and the output is the input.
    fn target_section(&self) -> Option<&'static str>;

    /// Builds the analyses the engine needs and partitions `input` into
    /// units. `workers` bounds any fan-out of the engine's own.
    fn scan(&self, input: &Binary, frame: Frame, workers: usize) -> Result<Scanned, RewriteError>;
}

/// What [`RewriteEngine::scan`] found.
pub struct Scanned {
    /// The engine-owned unit set: its analyses and whatever it needs to
    /// place and emit each unit. Shared (not cloned) with the per-unit
    /// cache.
    pub units: Arc<dyn Units>,
    /// The input-address range `[start, end)` each unit translates, in
    /// unit order. A unit's index here is its identity — layout, artifacts
    /// and fragment merges all follow this order, which is what makes the
    /// parallel transform deterministic — and the incremental driver keys
    /// the dirty-unit set on these ranges.
    pub ranges: Vec<(u64, u64)>,
    /// The profile the output binary requires.
    pub profile: ExtSet,
    /// Recognized instructions.
    pub total_insts: usize,
    /// Source instructions (needing rewrite).
    pub source_insts: usize,
    /// Source instructions left unpatched, at their original addresses,
    /// because nothing can translate them (they fault at runtime; the
    /// kernel migrates, FAM-style).
    pub untranslated: BTreeSet<u64>,
}

/// The per-unit hooks of one scanned input. Every method is a pure
/// function of `(self, arguments)`; the pipeline calls `emit` from worker
/// threads.
pub trait Units: Send + Sync {
    /// Emits unit `idx`. Called once per unit and run, before any unit has
    /// an address.
    fn emit(&self, idx: usize) -> Result<UnitArtifact, RewriteError>;

    /// Decides where unit `idx` goes, given that the target section is
    /// filled up to `cursor`. `None` leaves the unit's source untouched:
    /// its emission is dropped and nothing is patched for it.
    fn place(&self, idx: usize, cursor: u64) -> Result<Option<Placement>, RewriteError>;

    /// Engine-specific fix-up of the patched output, before the target
    /// section is attached. Returns the number of items it touched (for
    /// the link pass's trace event).
    fn link(
        &self,
        _input: &Binary,
        _out: &mut Binary,
        _fht: &mut FaultTable,
        _stats: &mut RewriteStats,
    ) -> Result<u64, RewriteError> {
        Ok(0)
    }
}

/// One unit's planned placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Final address of the unit's first emitted byte (`>=` the cursor;
    /// the gap is filled with illegal halfwords).
    pub addr: u64,
    /// How the original section reaches the unit.
    pub entry: Entry,
}

/// How control gets from the original section to a placed unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A SMILE trampoline (plus illegal filler) overwriting the bytes at
    /// `site`; see [`crate::smile::place_smile`].
    Smile {
        /// Trampoline head address.
        site: u64,
        /// The bytes overwriting the site's space.
        patch: Vec<u8>,
        /// Whether the encoding had to honour P2/P3 constraints.
        constrained: bool,
    },
    /// A trap replacing the `len`-byte instruction at `site`; the kernel
    /// redirects through the fault table's `trap_entries`.
    Trap {
        /// The replaced instruction's address.
        site: u64,
        /// Its length (2 or 4).
        len: u8,
    },
    /// No patch: the engine's `link` step redirects the original section.
    Unpatched,
}

/// What one unit's emission produced. Nothing in it knows the unit's
/// address unless the engine's scan fixed that address itself
/// (regeneration), so the incremental path caches artifacts per unit and
/// reuses them verbatim until the unit's source range is invalidated.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct UnitArtifact {
    /// The unit's emitted bytes, relocation slots still blank.
    pub bytes: Vec<u8>,
    /// What depends on the unit's address, by byte offset into `bytes`.
    pub relocs: Vec<(usize, Reloc)>,
    /// Fault-table fragment (`redirects`/`trap_exits`/`untranslated`) at
    /// addresses the engine already knew; merged in unit order.
    pub fht: FaultTable,
    /// Statistics fragment (exit-side counters only) that does not depend
    /// on the address; summed in unit order.
    pub stats: RewriteStats,
    /// Regeneration-metadata fragment (`Some` from regeneration engines
    /// only, which is what makes [`crate::EngineResult::regen`] `Some`).
    pub regen: Option<RegenInfo>,
}

impl UnitArtifact {
    /// Appends the unit's bytes to `code` as placed at `addr`, resolving
    /// its relocations there: slots are filled, and the entries and
    /// counters that depend on the address go to `fht` and `stats`. The
    /// driver's place stage calls this per unit; the kernel calls it for a
    /// block it builds at fault time.
    pub fn place_at(
        &self,
        addr: u64,
        code: &mut Vec<u8>,
        fht: &mut FaultTable,
        stats: &mut RewriteStats,
    ) -> Result<(), RewriteError> {
        let start = code.len();
        code.extend_from_slice(&self.bytes);
        for &(offset, reloc) in &self.relocs {
            let slot = &mut code[start + offset..][..reloc.slot_len()];
            reloc.resolve(addr + offset as u64, slot, fht, stats)?;
        }
        Ok(())
    }
}

/// One address-dependent item of a unit, resolved by the place stage at
/// `here` = the unit's address + the item's offset. The first three are
/// 8-byte slots in the unit's bytes; the last is a mark that only enters
/// `here` into the fault table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reloc {
    /// `auipc rd, hi; addi rd, rd, lo` leaving the absolute `value` in
    /// `rd`: an original `auipc` re-materialized.
    Value {
        /// Destination register.
        rd: XReg,
        /// What the original `auipc` computed.
        value: u64,
    },
    /// `auipc rd, hi; jalr rd, lo(rd)`: an original linking `jal` to
    /// `target`, whose return address now lies in the target block.
    Call {
        /// Link (and scratch) register.
        rd: XReg,
        /// The callee's original address.
        target: u64,
    },
    /// The jump back to original code at `to` (§4.2 Challenge 2): `jal`
    /// plus illegal filler when `here` is within ±1 MiB, else
    /// `auipc+jalr` through `dead`, else `ebreak` plus filler with a
    /// `trap_exits` entry. Only the far cases feed Table 3's counters.
    Exit {
        /// Original address execution continues at.
        to: u64,
        /// A register dead at `to`, if liveness (or exit-position
        /// shifting, which moved `to`) found one.
        dead: Option<XReg>,
        /// Whether traditional liveness alone found it.
        traditional: bool,
    },
    /// `redirects[from] = here`: the copy of an overwritten original
    /// instruction starts here.
    Redirect {
        /// The overwritten instruction's address.
        from: u64,
    },
}

impl Reloc {
    /// Bytes the relocation reserves in its unit: a slot's 8, a mark's 0.
    pub(crate) fn slot_len(&self) -> usize {
        match self {
            Reloc::Value { .. } | Reloc::Call { .. } | Reloc::Exit { .. } => 8,
            Reloc::Redirect { .. } => 0,
        }
    }

    /// Resolves the relocation now that it sits at `here`: fills `slot`
    /// (its reserved bytes) and enters the address-keyed table entries
    /// and distance-dependent counters. The pipeline keeps every address
    /// of the output within `li32`'s range, so an `auipc` reaches all of
    /// them; what an original `auipc` computed can lie anywhere, and one
    /// more than 2 GiB from `here` is a [`RewriteError::Layout`].
    fn resolve(
        &self,
        here: u64,
        slot: &mut [u8],
        fht: &mut FaultTable,
        stats: &mut RewriteStats,
    ) -> Result<(), RewriteError> {
        // `auipc rd` plus the low 12 bits that together reach `to`.
        let reach = |rd, to: u64| {
            let (imm20, lo) = pcrel_hi_lo(to as i64 - here as i64);
            (Inst::Auipc { rd, imm20 }, lo)
        };
        let jalr = |rd, rs1, offset| Inst::Jalr { rd, rs1, offset };
        // A slot is two instructions, or one and illegal filler (entering
        // the slot's second half must fault).
        let (first, second) = match *self {
            Reloc::Value { rd, value } => {
                let (auipc, lo) = reach(rd, value);
                (auipc, Some(chimera_obj::addi(rd, rd, lo)))
            }
            Reloc::Call { rd, target } => {
                let (auipc, lo) = reach(rd, target);
                (auipc, Some(jalr(rd, rd, lo)))
            }
            Reloc::Exit {
                to,
                dead,
                traditional,
            } => {
                stats.exit_jumps += 1;
                let offset = to as i64 - here as i64;
                if (-(1 << 20)..(1 << 20)).contains(&offset) {
                    let (rd, offset) = (XReg::ZERO, offset as i32);
                    (Inst::Jal { rd, offset }, None)
                } else {
                    stats.exit_trampolines += 1;
                    stats.dead_reg_not_found_traditional += !traditional as usize;
                    if let Some(r) = dead {
                        let (auipc, lo) = reach(r, to);
                        (auipc, Some(jalr(XReg::ZERO, r, lo)))
                    } else {
                        // Shifting found nothing, so nothing was copied
                        // past the original resume point: `to` is it.
                        stats.dead_reg_not_found_shift += 1;
                        stats.trap_exits += 1;
                        fht.trap_exits.insert(here, to);
                        (Inst::Ebreak, None)
                    }
                }
            }
            Reloc::Redirect { from } => {
                fht.redirects.insert(from, here);
                return Ok(());
            }
        };
        let word = |i: Inst| {
            encode(&i).map(u32::to_le_bytes).map_err(|e| {
                RewriteError::Layout(format!("{self:?} at {here:#x} is out of reach: {e}"))
            })
        };
        slot[..4].copy_from_slice(&word(first)?);
        let filler = (u32::from(ILLEGAL_HALFWORD) * 0x1_0001).to_le_bytes(); // The halfword, twice.
        slot[4..].copy_from_slice(&second.map_or(Ok(filler), word)?);
        Ok(())
    }
}

/// The FAM/MELF identity engine: no rewriting at all — the variant runs
/// the input binary as-is. Exists so every system in the §6.1 comparison
/// dispatches through the same pipeline (and produces the same trace
/// shape).
#[derive(Debug)]
pub struct IdentityEngine;

impl RewriteEngine for IdentityEngine {
    fn target_section(&self) -> Option<&'static str> {
        None
    }

    fn scan(&self, input: &Binary, _: Frame, _: usize) -> Result<Scanned, RewriteError> {
        Ok(Scanned {
            units: Arc::new(IdentityEngine),
            ranges: Vec::new(),
            profile: input.profile,
            total_insts: 0,
            source_insts: 0,
            untranslated: BTreeSet::new(),
        })
    }
}

/// The empty unit set.
impl Units for IdentityEngine {
    fn emit(&self, idx: usize) -> Result<UnitArtifact, RewriteError> {
        Err(RewriteError::Layout(format!("identity has no unit {idx}")))
    }

    fn place(&self, idx: usize, _: u64) -> Result<Option<Placement>, RewriteError> {
        Err(RewriteError::Layout(format!("identity has no unit {idx}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::BlockEmitter;
    use chimera_isa::decode;

    /// An original-code address, and target-section addresses within and
    /// beyond `jal`'s ±1 MiB of it.
    const ORIGINAL: u64 = 0x1_0400;
    const NEAR: u64 = 0x8_0000;
    const FAR: u64 = 0x40_0000;

    /// `reloc` alone in a unit placed at `here`.
    fn resolved(reloc: Reloc, here: u64) -> (Vec<u8>, FaultTable, RewriteStats) {
        let mut em = BlockEmitter::new();
        em.reloc(reloc);
        let art = em.finish_unit().unwrap();
        let (mut code, mut fht, mut stats) =
            (Vec::new(), FaultTable::default(), Default::default());
        art.place_at(here, &mut code, &mut fht, &mut stats).unwrap();
        (code, fht, stats)
    }

    fn inst_at(code: &[u8], offset: usize) -> Inst {
        let word = u32::from_le_bytes(code[offset..offset + 4].try_into().unwrap());
        decode(word).expect("slot instruction decodes").inst
    }

    /// The register and absolute address an `auipc` at `here` and the
    /// instruction after it (through `lo12`) arrive at.
    fn auipc_pair(code: &[u8], here: u64, lo12: impl Fn(Inst) -> (XReg, i32)) -> (XReg, u64) {
        let Inst::Auipc { rd, imm20 } = inst_at(code, 0) else {
            panic!("slot starts with {}", inst_at(code, 0));
        };
        let (rs1, lo) = lo12(inst_at(code, 4));
        assert_eq!(rs1, rd, "the pair goes through one register");
        let hi = here.wrapping_add(((imm20 as i64) << 12) as u64);
        (rd, hi.wrapping_add(lo as i64 as u64))
    }

    fn filler(code: &[u8]) -> bool {
        code[4..] == [ILLEGAL_HALFWORD.to_le_bytes(); 2].concat()
    }

    #[test]
    fn value_and_call_slots_reach_their_absolute_target_from_anywhere() {
        for here in [NEAR, FAR] {
            let (rd, value) = (XReg::A0, ORIGINAL + 0x2_1234);
            let (code, ..) = resolved(Reloc::Value { rd, value }, here);
            let got = auipc_pair(&code, here, |i| match i {
                Inst::OpImm { rd, rs1, imm, .. } if rd == rs1 => (rs1, imm),
                other => panic!("{other} is not the paired addi"),
            });
            assert_eq!(got, (rd, value), "value slot at {here:#x}");

            let (rd, target) = (XReg::RA, ORIGINAL);
            let (code, fht, stats) = resolved(Reloc::Call { rd, target }, here);
            let got = auipc_pair(&code, here, |i| match i {
                Inst::Jalr { rd, rs1, offset } if rd == rs1 => (rs1, offset),
                other => panic!("{other} is not the linking jalr"),
            });
            assert_eq!(got, (rd, target), "call slot at {here:#x}");
            assert_eq!((fht, stats), Default::default(), "slots enter no table");
        }
    }

    #[test]
    fn exit_slot_is_a_jal_near_a_dead_register_jump_far_and_a_trap_without_one() {
        let exit = |dead, traditional| Reloc::Exit {
            to: ORIGINAL,
            dead,
            traditional,
        };
        // Near: a plain jal whatever liveness said; not a Table-3 case.
        for dead in [Some(XReg::T3), None] {
            let (code, fht, stats) = resolved(exit(dead, false), NEAR);
            let Inst::Jal { rd, offset } = inst_at(&code, 0) else {
                panic!("near exit is {}", inst_at(&code, 0));
            };
            assert_eq!(rd, XReg::ZERO);
            assert_eq!(NEAR.wrapping_add(offset as i64 as u64), ORIGINAL);
            assert!(filler(&code), "the slot's second half must fault");
            assert_eq!(fht, FaultTable::default());
            let expected = RewriteStats {
                exit_jumps: 1,
                ..Default::default()
            };
            assert_eq!(stats, expected);
        }
        // Far, with a dead register: auipc + non-linking jalr through it.
        for traditional in [true, false] {
            let (code, fht, stats) = resolved(exit(Some(XReg::T3), traditional), FAR);
            let got = auipc_pair(&code, FAR, |i| match i {
                Inst::Jalr { rd, rs1, offset } if rd == XReg::ZERO => (rs1, offset),
                other => panic!("{other} is not the exit jalr"),
            });
            assert_eq!(got, (XReg::T3, ORIGINAL));
            assert_eq!(fht, FaultTable::default());
            let expected = RewriteStats {
                exit_jumps: 1,
                exit_trampolines: 1,
                dead_reg_not_found_traditional: !traditional as usize,
                ..Default::default()
            };
            assert_eq!(stats, expected);
        }
        // Far, without one: a trap the kernel resumes from.
        let (code, fht, stats) = resolved(exit(None, false), FAR);
        assert_eq!(inst_at(&code, 0), Inst::Ebreak);
        assert!(filler(&code));
        assert_eq!(fht.trap_exits.get(&FAR), Some(&ORIGINAL));
        assert_eq!(fht.trap_exits.len(), 1);
        let expected = RewriteStats {
            exit_jumps: 1,
            exit_trampolines: 1,
            dead_reg_not_found_traditional: 1,
            dead_reg_not_found_shift: 1,
            trap_exits: 1,
            ..Default::default()
        };
        assert_eq!(stats, expected);
    }

    #[test]
    fn marks_land_at_base_plus_offset_and_only_slot_bytes_move_with_the_base() {
        let mut em = BlockEmitter::new();
        em.inst(chimera_isa::nop())
            .reloc(Reloc::Redirect { from: ORIGINAL + 4 })
            .reloc(Reloc::Value {
                rd: XReg::A1,
                value: ORIGINAL + 0x1000,
            })
            .inst(chimera_isa::nop())
            .reloc(Reloc::Exit {
                to: ORIGINAL + 12,
                dead: Some(XReg::T0),
                traditional: true,
            });
        let art = em.finish_unit().unwrap();
        let slots = [4..12, 16..24];
        let place = |base: u64| {
            // After a neighbour's bytes, as the place stage appends units.
            let mut code = vec![0xAA; 6];
            let (mut fht, mut stats) = (FaultTable::default(), RewriteStats::default());
            art.place_at(base, &mut code, &mut fht, &mut stats).unwrap();
            assert_eq!(code[..6], [0xAA; 6]);
            assert_eq!(fht.redirects.get(&(ORIGINAL + 4)), Some(&(base + 4)));
            assert_eq!((fht.redirects.len(), fht.trap_exits.len()), (1, 0));
            code.split_off(6)
        };
        let (near, far) = (place(NEAR), place(FAR));
        assert_eq!(near.len(), art.bytes.len());
        for (i, (a, b)) in near.iter().zip(&far).enumerate() {
            if slots.iter().any(|s| s.contains(&i)) {
                continue;
            }
            assert_eq!(a, b, "byte {i} is outside every slot");
            assert_eq!(*a, art.bytes[i], "and is the emitted byte");
        }
        for s in slots {
            assert_ne!(near[s.clone()], far[s], "a slot encodes its distance");
        }
    }
}
