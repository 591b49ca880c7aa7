//! A programmatic module builder: append instructions, labels and data, then
//! lay out and encode a [`Binary`].
//!
//! The builder is the back end of the text assembler and the direct
//! interface used by the workload generators, which need to emit megabytes
//! of code without going through text. Label references are fixed up in a
//! second pass; every item has a fixed size at append time, so layout is
//! single-shot and deterministic.

use crate::binary::{Binary, Perms, Section, SymKind, Symbol, TEXT_BASE};
use chimera_isa::{encode, encode_compressed, BranchKind, Inst, OpImmKind, OpKind, XReg};
use std::collections::HashMap;
use std::fmt;

/// Errors from [`ModuleBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch/jump target is out of encoding range.
    TargetOutOfRange {
        /// The referenced label.
        label: String,
        /// The required byte offset.
        offset: i64,
    },
    /// Instruction encoding failed (immediate out of range).
    Encode(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "undefined label {l}"),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label {l}"),
            BuildError::TargetOutOfRange { label, offset } => {
                write!(f, "target {label} out of range (offset {offset})")
            }
            BuildError::Encode(e) => write!(f, "encoding error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[derive(Debug, Clone)]
enum TextItem {
    /// A 4-byte instruction.
    Inst(Inst),
    /// A 2-byte compressed instruction, already encoded.
    CInst(u16),
    /// `jal rd, label` (4 bytes, ±1 MiB).
    JalTo { rd: XReg, label: String },
    /// Conditional branch to a label (4 bytes, ±4 KiB).
    BranchTo {
        kind: BranchKind,
        rs1: XReg,
        rs2: XReg,
        label: String,
    },
    /// `la rd, label`: pc-relative `auipc` + `addi` (8 bytes, ±2 GiB).
    La { rd: XReg, label: String },
    /// `call label`: `auipc ra` + `jalr ra` (8 bytes, ±2 GiB).
    Call { label: String },
}

impl TextItem {
    fn size(&self) -> u64 {
        match self {
            TextItem::Inst(_) => 4,
            TextItem::CInst(_) => 2,
            TextItem::JalTo { .. } | TextItem::BranchTo { .. } => 4,
            TextItem::La { .. } | TextItem::Call { .. } => 8,
        }
    }
}

#[derive(Debug, Clone)]
enum DataItem {
    Bytes(Vec<u8>),
    /// The absolute address of a label (8 bytes little-endian); this is how
    /// function-pointer tables and jump tables get code addresses into data.
    AddrOf(String),
    Zero(usize),
    Align(u64),
}

/// Which data section a data item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSec {
    /// Read-only data (`.rodata`).
    Ro,
    /// Read-write data (`.data`).
    Rw,
}

/// Builds a [`Binary`] from instructions, labels and data.
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    text: Vec<(u64, TextItem)>,
    text_size: u64,
    rodata: Vec<DataItem>,
    data: Vec<DataItem>,
    /// label -> (space, offset); space 0 = text, 1 = rodata, 2 = data.
    labels: HashMap<String, (u8, u64)>,
    globals: Vec<String>,
    duplicate: Option<String>,
    /// Whether eligible instructions should be emitted compressed.
    pub compress: bool,
}

impl ModuleBuilder {
    /// Creates an empty builder. With `compress`, instructions that have an
    /// RVC form are emitted as 2-byte encodings (mirroring a `-C` compile).
    pub fn new(compress: bool) -> Self {
        ModuleBuilder {
            compress,
            ..Default::default()
        }
    }

    fn push_text(&mut self, item: TextItem) {
        let size = item.size();
        self.text.push((self.text_size, item));
        self.text_size += size;
    }

    /// Defines a label at the current text position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self
            .labels
            .insert(name.to_string(), (0, self.text_size))
            .is_some()
        {
            self.duplicate.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Marks a label as a global symbol (exported in the symbol table).
    pub fn global(&mut self, name: &str) -> &mut Self {
        self.globals.push(name.to_string());
        self
    }

    /// Appends one instruction (4-byte encoding, or 2-byte when the builder
    /// compresses and the instruction has an RVC form).
    pub fn inst(&mut self, i: Inst) -> &mut Self {
        let half = self.compress.then(|| encode_compressed(&i)).flatten();
        self.push_text(half.map_or(TextItem::Inst(i), TextItem::CInst));
        self
    }

    /// Appends several instructions.
    pub fn insts(&mut self, is: impl IntoIterator<Item = Inst>) -> &mut Self {
        for i in is {
            self.inst(i);
        }
        self
    }

    /// `jal rd, label`.
    pub fn jal_to(&mut self, rd: XReg, label: &str) -> &mut Self {
        self.push_text(TextItem::JalTo {
            rd,
            label: label.to_string(),
        });
        self
    }

    /// `j label` (jump without link).
    pub fn jump(&mut self, label: &str) -> &mut Self {
        self.jal_to(XReg::ZERO, label)
    }

    /// Conditional branch to a label.
    pub fn branch_to(&mut self, kind: BranchKind, rs1: XReg, rs2: XReg, label: &str) -> &mut Self {
        self.push_text(TextItem::BranchTo {
            kind,
            rs1,
            rs2,
            label: label.to_string(),
        });
        self
    }

    /// `beqz rs, label`.
    pub fn beqz(&mut self, rs: XReg, label: &str) -> &mut Self {
        self.branch_to(BranchKind::Beq, rs, XReg::ZERO, label)
    }

    /// `bnez rs, label`.
    pub fn bnez(&mut self, rs: XReg, label: &str) -> &mut Self {
        self.branch_to(BranchKind::Bne, rs, XReg::ZERO, label)
    }

    /// `la rd, label` (pc-relative address materialization, 8 bytes).
    pub fn la(&mut self, rd: XReg, label: &str) -> &mut Self {
        self.push_text(TextItem::La {
            rd,
            label: label.to_string(),
        });
        self
    }

    /// `call label` (`auipc ra` + `jalr ra`, ±2 GiB reach, 8 bytes).
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.push_text(TextItem::Call {
            label: label.to_string(),
        });
        self
    }

    /// `ret` (`jalr zero, 0(ra)`).
    pub fn ret(&mut self) -> &mut Self {
        self.inst(Inst::Jalr {
            rd: XReg::ZERO,
            rs1: XReg::RA,
            offset: 0,
        })
    }

    /// Materializes a 64-bit constant into `rd` (the `li` pseudo).
    pub fn li(&mut self, rd: XReg, value: i64) -> &mut Self {
        for i in li_sequence(rd, value) {
            self.inst(i);
        }
        self
    }

    /// Defines a label at the current position of a data section.
    pub fn data_label(&mut self, sec: DataSec, name: &str) -> &mut Self {
        let (space, off) = match sec {
            DataSec::Ro => (1u8, data_size(&self.rodata)),
            DataSec::Rw => (2u8, data_size(&self.data)),
        };
        if self.labels.insert(name.to_string(), (space, off)).is_some() {
            self.duplicate.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Appends raw bytes to a data section.
    pub fn data_bytes(&mut self, sec: DataSec, bytes: &[u8]) -> &mut Self {
        self.data_mut(sec).push(DataItem::Bytes(bytes.to_vec()));
        self
    }

    /// Appends a little-endian u64 to a data section.
    pub fn dword(&mut self, sec: DataSec, v: u64) -> &mut Self {
        self.data_bytes(sec, &v.to_le_bytes())
    }

    /// Appends a little-endian u32 to a data section.
    pub fn word(&mut self, sec: DataSec, v: u32) -> &mut Self {
        self.data_bytes(sec, &v.to_le_bytes())
    }

    /// Appends an f64 (its IEEE bits) to a data section.
    pub fn double(&mut self, sec: DataSec, v: f64) -> &mut Self {
        self.data_bytes(sec, &v.to_le_bytes())
    }

    /// Appends the absolute address of `label` (8 bytes); the builder
    /// resolves it during layout. This is how indirect-jump tables are
    /// built.
    pub fn addr_of(&mut self, sec: DataSec, label: &str) -> &mut Self {
        self.data_mut(sec).push(DataItem::AddrOf(label.to_string()));
        self
    }

    /// Appends `n` zero bytes.
    pub fn zero(&mut self, sec: DataSec, n: usize) -> &mut Self {
        self.data_mut(sec).push(DataItem::Zero(n));
        self
    }

    /// Aligns the data section to `align` bytes (power of two).
    pub fn align(&mut self, sec: DataSec, align: u64) -> &mut Self {
        self.data_mut(sec).push(DataItem::Align(align));
        self
    }

    fn data_mut(&mut self, sec: DataSec) -> &mut Vec<DataItem> {
        match sec {
            DataSec::Ro => &mut self.rodata,
            DataSec::Rw => &mut self.data,
        }
    }

    /// Lays out, resolves and encodes the module into a [`Binary`] with the
    /// given ISA profile recorded.
    pub fn build(&self, profile: chimera_isa::ExtSet) -> Result<Binary, BuildError> {
        if let Some(d) = &self.duplicate {
            return Err(BuildError::DuplicateLabel(d.clone()));
        }
        let text_base = TEXT_BASE;
        let text_end = text_base + self.text_size;
        let rodata_base = (text_end + 0xfff) & !0xfff;
        let rodata_size = data_size(&self.rodata);
        let data_base = ((rodata_base + rodata_size) + 0xfff) & !0xfff;

        let resolve = |name: &str| -> Result<u64, BuildError> {
            let (space, off) = self
                .labels
                .get(name)
                .ok_or_else(|| BuildError::UndefinedLabel(name.to_string()))?;
            Ok(match space {
                0 => text_base + off,
                1 => rodata_base + off,
                _ => data_base + off,
            })
        };

        // Encode text.
        let mut text = Vec::with_capacity(self.text_size as usize);
        for (off, item) in &self.text {
            let pc = text_base + off;
            debug_assert_eq!(text.len() as u64, *off);
            match item {
                TextItem::Inst(i) => {
                    let w = encode(i).map_err(|e| BuildError::Encode(e.to_string()))?;
                    text.extend_from_slice(&w.to_le_bytes());
                }
                TextItem::CInst(half) => text.extend_from_slice(&half.to_le_bytes()),
                TextItem::JalTo { rd, label } => {
                    let target = resolve(label)?;
                    let offset = target as i64 - pc as i64;
                    let inst = Inst::Jal {
                        rd: *rd,
                        offset: i32::try_from(offset).map_err(|_| {
                            BuildError::TargetOutOfRange {
                                label: label.clone(),
                                offset,
                            }
                        })?,
                    };
                    let w = encode(&inst).map_err(|_| BuildError::TargetOutOfRange {
                        label: label.clone(),
                        offset,
                    })?;
                    text.extend_from_slice(&w.to_le_bytes());
                }
                TextItem::BranchTo {
                    kind,
                    rs1,
                    rs2,
                    label,
                } => {
                    let target = resolve(label)?;
                    let offset = target as i64 - pc as i64;
                    let inst = Inst::Branch {
                        kind: *kind,
                        rs1: *rs1,
                        rs2: *rs2,
                        offset: i32::try_from(offset).map_err(|_| {
                            BuildError::TargetOutOfRange {
                                label: label.clone(),
                                offset,
                            }
                        })?,
                    };
                    let w = encode(&inst).map_err(|_| BuildError::TargetOutOfRange {
                        label: label.clone(),
                        offset,
                    })?;
                    text.extend_from_slice(&w.to_le_bytes());
                }
                TextItem::La { rd, label } => {
                    let target = resolve(label)?;
                    let (hi, lo) = pcrel_hi_lo(target as i64 - pc as i64);
                    let a = encode(&Inst::Auipc { rd: *rd, imm20: hi })
                        .map_err(|e| BuildError::Encode(e.to_string()))?;
                    let b = encode(&Inst::OpImm {
                        kind: OpImmKind::Addi,
                        rd: *rd,
                        rs1: *rd,
                        imm: lo,
                    })
                    .map_err(|e| BuildError::Encode(e.to_string()))?;
                    text.extend_from_slice(&a.to_le_bytes());
                    text.extend_from_slice(&b.to_le_bytes());
                }
                TextItem::Call { label } => {
                    let target = resolve(label)?;
                    let (hi, lo) = pcrel_hi_lo(target as i64 - pc as i64);
                    let a = encode(&Inst::Auipc {
                        rd: XReg::RA,
                        imm20: hi,
                    })
                    .map_err(|e| BuildError::Encode(e.to_string()))?;
                    let b = encode(&Inst::Jalr {
                        rd: XReg::RA,
                        rs1: XReg::RA,
                        offset: lo,
                    })
                    .map_err(|e| BuildError::Encode(e.to_string()))?;
                    text.extend_from_slice(&a.to_le_bytes());
                    text.extend_from_slice(&b.to_le_bytes());
                }
            }
        }

        let rodata = encode_data(&self.rodata, &resolve)?;
        let mut data = encode_data(&self.data, &resolve)?;
        if data.len() < 0x1000 {
            data.resize(0x1000, 0);
        }

        let mut sections = vec![Section {
            name: ".text".into(),
            addr: text_base,
            data: text,
            perms: Perms::RX,
        }];
        if !rodata.is_empty() {
            sections.push(Section {
                name: ".rodata".into(),
                addr: rodata_base,
                data: rodata,
                perms: Perms::R,
            });
        }
        sections.push(Section {
            name: ".data".into(),
            addr: data_base,
            data,
            perms: Perms::RW,
        });

        let mut symbols: Vec<Symbol> = Vec::new();
        for name in &self.globals {
            let addr = resolve(name)?;
            let (space, _) = self.labels[name.as_str()];
            symbols.push(Symbol {
                name: name.clone(),
                addr,
                size: 0,
                kind: if space == 0 {
                    SymKind::Func
                } else {
                    SymKind::Object
                },
            });
        }

        let entry = resolve("_start").unwrap_or(text_base);
        let bin = Binary {
            sections,
            symbols,
            entry,
            gp: data_base + 0x800,
            profile,
        };
        bin.validate()
            .map_err(|e| BuildError::Encode(e.to_string()))?;
        Ok(bin)
    }
}

fn data_size(items: &[DataItem]) -> u64 {
    let mut size = 0u64;
    for it in items {
        match it {
            DataItem::Bytes(b) => size += b.len() as u64,
            DataItem::AddrOf(_) => size += 8,
            DataItem::Zero(n) => size += *n as u64,
            DataItem::Align(a) => size = (size + a - 1) & !(a - 1),
        }
    }
    size
}

fn encode_data<F>(items: &[DataItem], resolve: &F) -> Result<Vec<u8>, BuildError>
where
    F: Fn(&str) -> Result<u64, BuildError>,
{
    let mut out = Vec::new();
    for it in items {
        match it {
            DataItem::Bytes(b) => out.extend_from_slice(b),
            DataItem::AddrOf(l) => out.extend_from_slice(&resolve(l)?.to_le_bytes()),
            DataItem::Zero(n) => out.resize(out.len() + n, 0),
            DataItem::Align(a) => {
                let target = ((out.len() as u64 + a - 1) & !(a - 1)) as usize;
                out.resize(target, 0);
            }
        }
    }
    Ok(out)
}

/// Splits a ±2 GiB pc-relative offset into `auipc`'s hi20 and a signed lo12.
pub fn pcrel_hi_lo(offset: i64) -> (i32, i32) {
    let hi = ((offset + 0x800) >> 12) as i32;
    let lo = (offset - ((hi as i64) << 12)) as i32;
    debug_assert!((-2048..=2047).contains(&lo));
    (hi, lo)
}

/// The canonical `li rd, value` expansion: one instruction for i12, two for
/// i32, and a lui/slli/addi chain for wider constants.
pub fn li_sequence(rd: XReg, value: i64) -> Vec<Inst> {
    if (-2048..=2047).contains(&value) {
        return vec![Inst::OpImm {
            kind: OpImmKind::Addi,
            rd,
            rs1: XReg::ZERO,
            imm: value as i32,
        }];
    }
    if i32::try_from(value).is_ok() {
        let v = value as i32;
        let hi = (v.wrapping_add(0x800)) >> 12;
        let lo = v.wrapping_sub(hi << 12);
        let mut seq = vec![Inst::Lui { rd, imm20: hi }];
        if lo != 0 {
            seq.push(Inst::OpImm {
                kind: OpImmKind::Addiw,
                rd,
                rs1: rd,
                imm: lo,
            });
        }
        return seq;
    }
    // Wide constant: materialize the upper 32 bits, shift, then OR in the
    // lower bits 11 at a time (a simple, always-correct schema).
    let hi32 = value >> 32;
    let mut seq = li_sequence(rd, hi32);
    let mut remaining = 32u32;
    let mut low = value as u32 as u64;
    while remaining > 0 {
        let chunk = remaining.min(11);
        seq.push(Inst::OpImm {
            kind: OpImmKind::Slli,
            rd,
            rs1: rd,
            imm: chunk as i32,
        });
        remaining -= chunk;
        let bits = ((low >> remaining) & ((1 << chunk) - 1)) as i32;
        if bits != 0 {
            seq.push(Inst::OpImm {
                kind: OpImmKind::Addi,
                rd,
                rs1: rd,
                imm: bits,
            });
        }
        low &= (1u64 << remaining) - 1;
    }
    seq
}

/// Convenience: `addi` instruction constructor.
pub fn addi(rd: XReg, rs1: XReg, imm: i32) -> Inst {
    Inst::OpImm {
        kind: OpImmKind::Addi,
        rd,
        rs1,
        imm,
    }
}

/// Convenience: `add` instruction constructor.
pub fn add(rd: XReg, rs1: XReg, rs2: XReg) -> Inst {
    Inst::Op {
        kind: OpKind::Add,
        rd,
        rs1,
        rs2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_isa::ExtSet;

    #[test]
    fn simple_module_layout() {
        let mut b = ModuleBuilder::new(false);
        b.label("_start")
            .global("_start")
            .li(XReg::A0, 42)
            .inst(Inst::Ecall);
        let bin = b.build(ExtSet::RV64GC).unwrap();
        bin.validate().unwrap();
        assert_eq!(bin.entry, TEXT_BASE);
        assert_eq!(bin.section(".text").unwrap().data.len(), 8);
        assert!(bin.gp >= bin.section(".data").unwrap().addr);
    }

    #[test]
    fn label_branch_resolution() {
        let mut b = ModuleBuilder::new(false);
        b.label("_start")
            .li(XReg::A0, 3)
            .label("loop")
            .inst(addi(XReg::A0, XReg::A0, -1))
            .bnez(XReg::A0, "loop")
            .inst(Inst::Ecall);
        let bin = b.build(ExtSet::RV64GC).unwrap();
        // The bnez sits at offset 8 and targets offset 4: offset -4.
        let w = bin.read_u32(TEXT_BASE + 8).unwrap();
        let d = chimera_isa::decode(w).unwrap();
        assert_eq!(
            d.inst,
            Inst::Branch {
                kind: BranchKind::Bne,
                rs1: XReg::A0,
                rs2: XReg::ZERO,
                offset: -4
            }
        );
    }

    #[test]
    fn undefined_label_rejected() {
        let mut b = ModuleBuilder::new(false);
        b.label("_start").jump("nowhere");
        assert!(matches!(
            b.build(ExtSet::RV64GC),
            Err(BuildError::UndefinedLabel(_))
        ));
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut b = ModuleBuilder::new(false);
        b.label("x").inst(chimera_isa::nop()).label("x");
        assert!(matches!(
            b.build(ExtSet::RV64GC),
            Err(BuildError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn addr_of_emits_text_address() {
        let mut b = ModuleBuilder::new(false);
        b.label("_start")
            .inst(chimera_isa::nop())
            .label("fn1")
            .ret();
        b.data_label(DataSec::Ro, "table")
            .addr_of(DataSec::Ro, "fn1");
        let bin = b.build(ExtSet::RV64GC).unwrap();
        let table = bin.symbol("table");
        assert!(table.is_none(), "not global unless marked");
        let ro = bin.section(".rodata").unwrap();
        let ptr = u64::from_le_bytes(ro.data[0..8].try_into().unwrap());
        assert_eq!(ptr, TEXT_BASE + 4);
    }

    #[test]
    fn compression_shrinks_text() {
        let prog = |compress| {
            let mut b = ModuleBuilder::new(compress);
            b.label("_start");
            for _ in 0..4 {
                b.inst(addi(XReg::A0, XReg::A0, 1)); // has c.addi form
            }
            b.build(ExtSet::RV64GC).unwrap()
        };
        let fat = prog(false).section(".text").unwrap().data.len();
        let slim = prog(true).section(".text").unwrap().data.len();
        assert_eq!(fat, 16);
        assert_eq!(slim, 8);
    }

    #[test]
    fn li_sequences_are_correct_shapes() {
        assert_eq!(li_sequence(XReg::A0, 0).len(), 1);
        assert_eq!(li_sequence(XReg::A0, 2047).len(), 1);
        assert_eq!(li_sequence(XReg::A0, 4096).len(), 1); // lui only
        assert!(li_sequence(XReg::A0, 0x1234_5678).len() <= 2);
        assert!(li_sequence(XReg::A0, 0x1234_5678_9abc_def0).len() >= 4);
    }

    #[test]
    fn pcrel_split_covers_negative() {
        for off in [-0x1000_0000i64, -0x801, -1, 0, 1, 0x7ff, 0x1234_5678] {
            let (hi, lo) = pcrel_hi_lo(off);
            assert_eq!((hi as i64) << 12, off - lo as i64);
        }
    }

    #[test]
    fn ret_does_not_link() {
        let mut b = ModuleBuilder::new(false);
        b.label("_start").ret();
        let bin = b.build(ExtSet::RV64GC).unwrap();
        let w = bin.read_u32(TEXT_BASE).unwrap();
        assert_eq!(
            chimera_isa::decode(w).unwrap().inst,
            Inst::Jalr {
                rd: XReg::ZERO,
                rs1: XReg::RA,
                offset: 0
            }
        );
    }
}
