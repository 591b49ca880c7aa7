//! # chimera-isa
//!
//! The RISC-V ISA model underpinning the Chimera reproduction: typed
//! instructions ([`Inst`]), registers ([`XReg`], [`FReg`], [`VReg`]),
//! extension profiles ([`ExtSet`]), and exact binary encode/decode for the
//! RV64IMFDCVB subset, including compressed (RVC) encodings.
//!
//! Everything above this crate — the emulator, the binary analysis, and the
//! CHBP rewriter — manipulates instructions through this model. Two
//! properties matter system-wide:
//!
//! 1. **Exactness.** `decode(encode(i)) == i` for every well-formed
//!    instruction (property-tested). The rewriter depends on this to patch
//!    binaries at the byte level without corrupting neighbours.
//! 2. **Faithful illegality.** Encodings outside the subset decode to
//!    errors, and the *reserved* spaces the paper's SMILE trampoline relies
//!    on (the ≥48-bit `xxx11111` prefix and the RVC-reserved rows) are
//!    reported as such, so "partial trampoline execution always traps"
//!    can be verified by construction. The model is stricter than the
//!    architecture in one place: every RVC HINT but `c.addi rd, 0` is
//!    rejected too (a hole column in [`rvc`]; DESIGN.md §6 has the
//!    consequences for SMILE).
//!
//! ## One row per instruction kind
//!
//! Every instruction *kind* enum — [`BranchKind`], [`LoadKind`],
//! [`StoreKind`], [`OpImmKind`], [`OpKind`], [`UnaryKind`], [`FOpKind`],
//! [`FCmpKind`], [`FMaKind`], [`VArithOp`] — is generated from one table in
//! `src/kinds.rs`: a row names the variant, its mnemonic (or stem), its
//! encoding fields and the attributes consumers switch on (extension,
//! access size, cost class, allowed vector source forms), the value
//! function of every integer and FP family, and for each vector operation
//! the scalar row that computes one of its elements ([`Element`]). From the
//! rows come `Kind::ALL`, `mnemonic()` / `from_mnemonic()` (`stem()` /
//! `from_stem()`), `encoding()` / `from_encoding()` and `eval()`;
//! [`encode`], [`decode`], `Display` and [`parse`], the emulator's cost
//! model and every execution tier — and the rewriter's vector templates
//! and vectorizer — read those and keep no list of their own, so they
//! agree by construction. What stays hand-written, and why: the
//! [`Inst`] operand shapes and `uses_x` / `def_x` (one arm per *shape*, not
//! per kind), and execution, which needs hart state (register files,
//! `vl` / `vtype` and memory live in `chimera-emu`).
//!
//! ## One row per 32-bit shape
//!
//! Where each [`Inst`] constructor's fields sit in a 32-bit word is one
//! table in `src/shapes.rs`: a row holds the shape's major opcode(s), the
//! bits it fixes, the bits decoding ignores and encoding emits canonically,
//! and one codec per field — a register slot, the kind's encoding key, an
//! immediate permutation (the I, S, B, U, J formats are stated once, in
//! [`bits`]) or a small value table. The 32-bit half of [`decode`] and all
//! of [`encode`] are generated from it, so the two directions cannot
//! disagree on a layout.
//!
//! ## One row per compressed form
//!
//! The 33 modelled RVC forms are one table in [`rvc`]: a row holds the
//! form's fixed bits, its register fields and immediate permutation, its
//! reserved / HINT holes and the canonical [`Inst`] it expands to, and
//! [`decode_compressed`] and [`encode_compressed`] are both generated from
//! it — which halfwords are illegal (what SMILE's P3 constraint stands on)
//! and which instructions fit two bytes (what the module builder lays out)
//! cannot disagree. [`decode`] reads a compressed halfword from a table
//! the compiler fills by running `decode_compressed` over every halfword.
//!
//! ## One spelling per 32-bit shape
//!
//! How each [`Inst`] constructor is written in assembly is one more table,
//! in `src/syntax.rs`: a row gives the mnemonic as parts (literal text, the
//! kind's name, a width or form suffix) and the operands as typed slots (a
//! register, an immediate, `offset(rs1)`, `(rs1)`, a `vtype`). `Display`
//! and [`parse`] are generated from it; `parse` finds a row with one lookup
//! of the whole mnemonic and refuses a value wider than its field
//! ([`parse_int`]) instead of truncating it. Register names are read in
//! `src/reg.rs`, beside the names they print.
//!
//! `tests/decode_space.rs` pins `decode`, `encode` and `Display` over the
//! whole 32-bit and 16-bit spaces, and what `encode` and
//! `encode_compressed` accept and refuse over every instruction near a
//! field's or a form's boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
mod decode;
mod encode;
mod ext;
mod inst;
mod kinds;
pub mod prng;
mod reg;
pub mod rvc;
mod shapes;
mod syntax;

pub use decode::{decode, decode_compressed, encoded_len, DecodeError, Decoded};
pub use encode::{encode, encode_compressed, EncodeError};
pub use ext::{Ext, ExtSet};
pub use inst::*;
pub use kinds::*;
pub use reg::{FReg, FRegSet, RegSet, Register, RegisterSet, VReg, VRegSet, XReg};
pub use syntax::{mnemonics, parse, parse_int, SyntaxError};

/// The vector register width in bits our machine model uses (matching the
/// SpacemiT K1 in the paper's testbed).
pub const VLEN: u32 = 256;

/// Convenience: the canonical 4-byte `nop` (`addi zero, zero, 0`).
pub fn nop() -> Inst {
    Inst::OpImm {
        kind: OpImmKind::Addi,
        rd: XReg::ZERO,
        rs1: XReg::ZERO,
        imm: 0,
    }
}

/// Convenience: a register move (`addi rd, rs, 0`).
pub fn mv(rd: XReg, rs: XReg) -> Inst {
    Inst::OpImm {
        kind: OpImmKind::Addi,
        rd,
        rs1: rs,
        imm: 0,
    }
}
