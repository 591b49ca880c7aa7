//! A small code emitter for target-instruction blocks: 4-byte instructions
//! with local labels, emitted before the block has an address.
//!
//! Target blocks are always emitted uncompressed — only *original* code
//! contains 2-byte encodings; keeping blocks 4-byte-aligned sidesteps any
//! interior-entry concern inside the target section itself (nothing ever
//! jumps into a target block except through its head).
//!
//! Everything encoded here is position-independent (local branches are
//! offset differences). The few things in a block that do depend on where
//! it lands are not encoded but recorded, by byte offset, as [`Reloc`]s the
//! driver resolves once the block is placed. An emitter that already knows
//! its address (regeneration, the kernel's lazy rewriter) adds
//! [`BlockEmitter::offset`] to it instead.
//!
//! A local label is an index (`BlockEmitter::new_label`): it has no name
//! to format, hash or clone, and two emissions of the same template can
//! never collide. A reference to it is patched in
//! [`BlockEmitter::finish_unit`], where a distance the instruction cannot
//! encode is a [`RewriteError::Layout`]. A *backward* branch knows its
//! distance when it is emitted — a loop whose backedge stays inside its
//! target block can span any number of translated instructions — and
//! relaxes to an inverted branch over a `jal` beyond ±4 KiB; one that
//! encodes directly is emitted as it stands.

use crate::chbp::RewriteError;
use crate::engine::{Reloc, UnitArtifact};
use chimera_isa::{encode, BranchKind, Inst, XReg};

/// Emits a contiguous run of instructions.
#[derive(Debug, Default)]
pub struct BlockEmitter {
    bytes: Vec<u8>,
    /// Byte offset each label is bound at, by label index.
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
    relocs: Vec<(usize, Reloc)>,
}

/// A local label of one [`BlockEmitter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Label(usize);

/// A placeholder word awaiting the distance to its label.
#[derive(Debug)]
struct Fixup {
    offset: usize,
    label: Label,
    /// The branch or `jal`, its offset not yet known.
    inst: Inst,
}

/// The word of `inst` (a branch or `jal`) aimed `rel` bytes away, if it
/// reaches that far.
fn aimed(inst: Inst, rel: i64) -> Option<u32> {
    let offset = i32::try_from(rel).ok()?;
    let inst = match inst {
        Inst::Branch { kind, rs1, rs2, .. } => Inst::Branch {
            kind,
            rs1,
            rs2,
            offset,
        },
        Inst::Jal { rd, .. } => Inst::Jal { rd, offset },
        other => other,
    };
    encode(&inst).ok()
}

impl BlockEmitter {
    /// Creates an empty emitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Byte offset of the next emitted instruction from the block's head.
    pub fn offset(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Emits one instruction (must encode; immediates are internal and
    /// bounded by construction).
    pub fn inst(&mut self, i: Inst) -> &mut Self {
        let w = encode(&i).unwrap_or_else(|e| panic!("internal emit of {i}: {e}"));
        self.bytes.extend_from_slice(&w.to_le_bytes());
        self
    }

    /// Emits raw pre-encoded bytes (a translation emitted earlier).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes.extend_from_slice(bytes);
        self
    }

    /// Records `reloc` here and reserves its slot (nothing for a mark).
    pub fn reloc(&mut self, reloc: Reloc) -> &mut Self {
        let slot = reloc.slot_len();
        self.relocs.push((self.bytes.len(), reloc));
        self.bytes.resize(self.bytes.len() + slot, 0);
        self
    }

    /// Hands out a fresh, unbound label.
    pub(crate) fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` here.
    pub(crate) fn label(&mut self, label: Label) -> &mut Self {
        let prev = self.labels[label.0].replace(self.bytes.len());
        assert!(prev.is_none(), "local label bound twice");
        self
    }

    /// Emits a branch to a local label (forward or backward). A backward
    /// branch knows its distance: beyond the B-type ±4 KiB it becomes the
    /// inverted branch over a `jal` (±1 MiB).
    pub(crate) fn branch_to(
        &mut self,
        kind: BranchKind,
        rs1: XReg,
        rs2: XReg,
        label: Label,
    ) -> &mut Self {
        let here = self.bytes.len() as i64;
        let branch = Inst::Branch {
            kind,
            rs1,
            rs2,
            offset: 0,
        };
        let near = |target: usize| aimed(branch, target as i64 - here).is_some();
        if self.labels[label.0].is_none_or(near) {
            return self.fixup(label, branch);
        }
        self.inst(Inst::Branch {
            kind: kind.inverted(),
            rs1,
            rs2,
            offset: 8,
        });
        self.jal_to(XReg::ZERO, label)
    }

    /// Emits `jal rd, label` to a local label.
    pub(crate) fn jal_to(&mut self, rd: XReg, label: Label) -> &mut Self {
        self.fixup(label, Inst::Jal { rd, offset: 0 })
    }

    /// Emits `inst`, a branch or `jal`, aimed at `label` as it stands: a
    /// branch [`BlockEmitter::branch_to`] would not relax.
    pub(crate) fn fixup(&mut self, label: Label, inst: Inst) -> &mut Self {
        let offset = self.bytes.len();
        self.fixups.push(Fixup {
            offset,
            label,
            inst,
        });
        self.bytes.extend_from_slice(&[0; 4]);
        self
    }

    /// Materializes the 32-bit-range constant `value` into `rd`
    /// (`lui` + `addi`; the driver refuses an input whose `gp`, spill or
    /// target base lies outside that range).
    pub fn li32(&mut self, rd: XReg, value: i64) -> &mut Self {
        assert!(
            i32::try_from(value).is_ok(),
            "li32 constant out of range: {value:#x}"
        );
        let v = value as i32;
        let hi = v.wrapping_add(0x800) >> 12;
        let lo = v.wrapping_sub(hi << 12);
        if hi != 0 {
            self.inst(Inst::Lui { rd, imm20: hi });
            if lo != 0 {
                self.inst(Inst::OpImm {
                    kind: chimera_isa::OpImmKind::Addiw,
                    rd,
                    rs1: rd,
                    imm: lo,
                });
            }
        } else {
            self.inst(Inst::OpImm {
                kind: chimera_isa::OpImmKind::Addi,
                rd,
                rs1: XReg::ZERO,
                imm: lo,
            });
        }
        self
    }

    /// Resolves fixups and returns the encoded bytes of a block that
    /// recorded no relocations.
    pub fn finish(self) -> Result<Vec<u8>, RewriteError> {
        let unit = self.finish_unit()?;
        assert!(unit.relocs.is_empty(), "block has unresolved relocations");
        Ok(unit.bytes)
    }

    /// Resolves fixups and returns the encoded bytes plus the relocations
    /// recorded against them (in offset order) as a unit's artifact.
    pub fn finish_unit(mut self) -> Result<UnitArtifact, RewriteError> {
        for f in &self.fixups {
            let target = self.labels[f.label.0].expect("every referenced label is bound");
            let rel = target as i64 - f.offset as i64;
            let word = aimed(f.inst, rel).ok_or_else(|| {
                RewriteError::Layout(format!(
                    "local `{}` at block offset {:#x} cannot reach {rel:+} bytes",
                    f.inst, f.offset
                ))
            })?;
            self.bytes[f.offset..f.offset + 4].copy_from_slice(&word.to_le_bytes());
        }
        Ok(UnitArtifact {
            bytes: self.bytes,
            relocs: self.relocs,
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_isa::{decode, OpImmKind};

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut e = BlockEmitter::new();
        let (top, end) = (e.new_label(), e.new_label());
        e.label(top)
            .inst(Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::T0,
                rs1: XReg::T0,
                imm: -1,
            })
            .branch_to(BranchKind::Bne, XReg::T0, XReg::ZERO, top)
            .jal_to(XReg::ZERO, end)
            .inst(chimera_isa::nop())
            .label(end);
        let bytes = e.finish().unwrap();
        // The bne at offset 4 targets offset 0: rel = -4.
        let w = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let Inst::Branch { offset, .. } = decode(w).unwrap().inst else {
            panic!()
        };
        assert_eq!(offset, -4);
        // The jal at offset 8 targets offset 16: rel = +8.
        let w = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let Inst::Jal { offset, .. } = decode(w).unwrap().inst else {
            panic!()
        };
        assert_eq!(offset, 8);
    }

    #[test]
    fn li32_shapes() {
        let mut e = BlockEmitter::new();
        e.li32(XReg::T0, 42);
        assert_eq!(e.finish().unwrap().len(), 4);
        let mut e = BlockEmitter::new();
        e.li32(XReg::T0, 0x12345678);
        assert_eq!(e.finish().unwrap().len(), 8);
    }

    #[test]
    #[should_panic(expected = "local label bound twice")]
    fn duplicate_label_panics() {
        let mut e = BlockEmitter::new();
        let x = e.new_label();
        e.label(x).label(x);
    }
}
