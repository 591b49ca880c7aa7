//! The loadable binary format: sections with RWX permissions, symbols, an
//! entry point and the psABI `gp` value.
//!
//! This plays the role ELF plays in the paper's system: the rewriter
//! consumes and produces [`Binary`] values, and the emulator's loader maps
//! each section into a permissioned memory region. The format intentionally
//! keeps the properties Chimera's correctness argument needs:
//!
//! * the data segment is **non-executable**, so a jump through an unmodified
//!   `gp` raises a deterministic access fault (the paper's segmentation
//!   fault), and
//! * code addresses are fixed at link time, so indirect-jump targets stored
//!   in data (function-pointer tables, jump tables) remain valid across
//!   in-place patching.

use chimera_isa::ExtSet;
use core::fmt;

/// One executable-code mutation of a loaded image, as the caller of
/// incremental re-rewriting reports it: the byte span `[start, end)`
/// changed (or appeared, or vanished), stamped with the mutated region's
/// new generation (`chimera_emu::Region::generation`, drawn from a
/// process-global monotone source). A rewrite unit whose source range
/// intersects a span with `generation` newer than the unit's validation
/// stamp is re-emitted. The emulator records no spans itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtySpan {
    /// First mutated address.
    pub start: u64,
    /// One past the last mutated address.
    pub end: u64,
    /// The generation stamp the mutation produced.
    pub generation: u64,
}

/// Section/region permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perms {
    /// Read-only data.
    pub const R: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };
    /// Read-write data.
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
    };
    /// Read-execute code.
    pub const RX: Perms = Perms {
        r: true,
        w: false,
        x: true,
    };
    /// Read-write-execute (self-modifying / JIT-style mappings; stores
    /// here must invalidate decode caches).
    pub const RWX: Perms = Perms {
        r: true,
        w: true,
        x: true,
    };
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.r { 'r' } else { '-' },
            if self.w { 'w' } else { '-' },
            if self.x { 'x' } else { '-' }
        )
    }
}

/// A named, addressed, permissioned run of bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (`.text`, `.data`, `.chimera.text`, ...).
    pub name: String,
    /// Load address of the first byte.
    pub addr: u64,
    /// Section contents.
    pub data: Vec<u8>,
    /// Mapping permissions.
    pub perms: Perms,
}

impl Section {
    /// The address one past the last byte.
    pub fn end(&self) -> u64 {
        self.addr + self.data.len() as u64
    }

    /// Whether `addr` falls inside the section.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.addr && addr < self.end()
    }
}

/// Symbol kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymKind {
    /// A function entry point.
    Func,
    /// A data object.
    Object,
}

/// A named address in the binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Address of the symbol.
    pub addr: u64,
    /// Size in bytes (0 when unknown).
    pub size: u64,
    /// Function or object.
    pub kind: SymKind,
}

/// Default load address of `.text`.
pub const TEXT_BASE: u64 = 0x1_0000;

/// Top of the initial stack (grows down).
pub const STACK_TOP: u64 = 0x4000_0000;

/// Maximum stack reservation in bytes, for workloads that genuinely
/// recurse deep (callers opt in via `Memory::load_with_stack`).
pub const STACK_SIZE: u64 = 8 * 1024 * 1024;

/// Default stack reservation in bytes. Stacks are committed eagerly and
/// always end at [`STACK_TOP`], so the boot `sp` is size-invariant; a
/// small default keeps per-guest footprint O(100 KiB) — at thousands of
/// pooled guests the 8 MiB [`STACK_SIZE`] would dominate the runtime's
/// entire memory budget.
pub const DEFAULT_STACK_SIZE: u64 = 256 * 1024;

/// A complete loadable binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binary {
    /// All sections, sorted by address, non-overlapping.
    pub sections: Vec<Section>,
    /// Symbol table.
    pub symbols: Vec<Symbol>,
    /// Initial program counter.
    pub entry: u64,
    /// The psABI `gp` value: a link-time constant pointing into the data
    /// segment (`.data` base + 0x800, mirroring `__global_pointer$`).
    pub gp: u64,
    /// The ISA profile the binary's code assumes.
    pub profile: ExtSet,
}

/// Errors from [`Binary::validate`] and section accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// Two sections overlap.
    Overlap {
        /// First section name.
        a: String,
        /// Second section name.
        b: String,
    },
    /// A required section is missing.
    MissingSection(&'static str),
    /// The `gp` value does not point into a non-executable mapped section,
    /// violating the invariant SMILE depends on.
    BadGp(u64),
    /// The entry point is not in an executable section.
    BadEntry(u64),
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::Overlap { a, b } => write!(f, "sections {a} and {b} overlap"),
            BinaryError::MissingSection(s) => write!(f, "missing section {s}"),
            BinaryError::BadGp(gp) => write!(
                f,
                "gp {gp:#x} does not point into a mapped non-executable section"
            ),
            BinaryError::BadEntry(e) => write!(f, "entry {e:#x} is not executable"),
        }
    }
}

impl std::error::Error for BinaryError {}

impl Binary {
    /// Checks the structural invariants: sorted non-overlapping sections, a
    /// `.text` section, `gp` pointing into mapped non-executable memory, and
    /// an executable entry point.
    pub fn validate(&self) -> Result<(), BinaryError> {
        for w in self.sections.windows(2) {
            if w[0].end() > w[1].addr {
                return Err(BinaryError::Overlap {
                    a: w[0].name.clone(),
                    b: w[1].name.clone(),
                });
            }
        }
        self.section(".text")
            .ok_or(BinaryError::MissingSection(".text"))?;
        let gp_ok = self
            .sections
            .iter()
            .any(|s| s.contains(self.gp) && !s.perms.x);
        if !gp_ok {
            return Err(BinaryError::BadGp(self.gp));
        }
        let entry_ok = self
            .sections
            .iter()
            .any(|s| s.contains(self.entry) && s.perms.x);
        if !entry_ok {
            return Err(BinaryError::BadEntry(self.entry));
        }
        Ok(())
    }

    /// The section with the given name, if present.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Mutable access to the section with the given name.
    pub fn section_mut(&mut self, name: &str) -> Option<&mut Section> {
        self.sections.iter_mut().find(|s| s.name == name)
    }

    /// The section containing `addr`, if any.
    pub fn section_at(&self, addr: u64) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// Reads `len` bytes at virtual address `addr`, if fully mapped within
    /// one section.
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let s = self.section_at(addr)?;
        let off = (addr - s.addr) as usize;
        s.data.get(off..off + len)
    }

    /// Reads a little-endian 32-bit word at `addr` (crossing into the next
    /// padding is not allowed).
    pub fn read_u32(&self, addr: u64) -> Option<u32> {
        let b = self.read(addr, 4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian 16-bit halfword at `addr`.
    pub fn read_u16(&self, addr: u64) -> Option<u16> {
        let b = self.read(addr, 2)?;
        Some(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Overwrites `bytes.len()` bytes at `addr`; `false` if unmapped.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> bool {
        for s in &mut self.sections {
            if s.contains(addr) && addr + bytes.len() as u64 <= s.end() {
                let off = (addr - s.addr) as usize;
                s.data[off..off + bytes.len()].copy_from_slice(bytes);
                return true;
            }
        }
        false
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Appends a new section after the current highest address (rounded up
    /// to a 4 KiB boundary) and returns its base address. Used by the
    /// rewriter to add target-instruction and vector-spill sections.
    pub fn append_section(&mut self, name: &str, data: Vec<u8>, perms: Perms) -> u64 {
        let top = self.sections.iter().map(Section::end).max().unwrap_or(0);
        let addr = (top + 0xfff) & !0xfff;
        self.sections.push(Section {
            name: name.to_string(),
            addr,
            data,
            perms,
        });
        self.sections.sort_by_key(|s| s.addr);
        addr
    }

    /// Total size of executable sections in bytes (the paper's "code size").
    pub fn code_size(&self) -> u64 {
        self.sections
            .iter()
            .filter(|s| s.perms.x)
            .map(|s| s.data.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Binary {
        Binary {
            sections: vec![
                Section {
                    name: ".text".into(),
                    addr: TEXT_BASE,
                    data: vec![0x13, 0, 0, 0, 0x73, 0, 0, 0],
                    perms: Perms::RX,
                },
                Section {
                    name: ".data".into(),
                    addr: 0x2_0000,
                    data: vec![0u8; 0x1000],
                    perms: Perms::RW,
                },
            ],
            symbols: vec![Symbol {
                name: "_start".into(),
                addr: TEXT_BASE,
                size: 8,
                kind: SymKind::Func,
            }],
            entry: TEXT_BASE,
            gp: 0x2_0800,
            profile: ExtSet::RV64GC,
        }
    }

    #[test]
    fn validate_accepts_wellformed() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_executable_gp() {
        let mut b = sample();
        b.gp = TEXT_BASE; // Points into .text: would break SMILE's guarantee.
        assert!(matches!(b.validate(), Err(BinaryError::BadGp(_))));
    }

    #[test]
    fn validate_rejects_overlap() {
        let mut b = sample();
        b.sections[1].addr = TEXT_BASE + 4;
        assert!(matches!(b.validate(), Err(BinaryError::Overlap { .. })));
    }

    #[test]
    fn validate_rejects_data_entry() {
        let mut b = sample();
        b.entry = 0x2_0000;
        assert!(matches!(b.validate(), Err(BinaryError::BadEntry(_))));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut b = sample();
        assert_eq!(b.read_u32(TEXT_BASE), Some(0x13));
        assert!(b.write(0x2_0000, &[1, 2, 3, 4]));
        assert_eq!(b.read(0x2_0000, 4), Some(&[1u8, 2, 3, 4][..]));
        assert!(!b.write(0x9999_0000, &[0]));
    }

    #[test]
    fn read_rejects_cross_section() {
        let b = sample();
        // 4 bytes starting 2 bytes before the end of .text.
        assert_eq!(b.read(TEXT_BASE + 6, 4), None);
    }

    #[test]
    fn append_section_places_after_top() {
        let mut b = sample();
        let addr = b.append_section(".chimera.text", vec![0u8; 16], Perms::RX);
        assert!(addr >= 0x2_1000);
        assert_eq!(addr % 0x1000, 0);
        b.validate().unwrap();
    }

    #[test]
    fn code_size_counts_executable_only() {
        let b = sample();
        assert_eq!(b.code_size(), 8);
    }
}
