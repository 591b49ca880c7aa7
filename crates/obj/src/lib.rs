//! # chimera-obj
//!
//! The loadable binary format ([`Binary`]) of the Chimera reproduction, a
//! programmatic [`ModuleBuilder`], and a text [`assemble`]r.
//!
//! The format stands in for ELF (see DESIGN.md): permissioned sections, a
//! symbol table, an entry point, and the psABI `gp` value that Chimera's
//! SMILE trampoline leans on. The rewriter transforms `Binary → Binary`; the
//! emulator's loader maps sections into permissioned memory regions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod binary;
mod builder;

pub use asm::{assemble, AsmError, AsmOptions};
pub use binary::{
    Binary, BinaryError, DirtySpan, Perms, Section, SymKind, Symbol, DEFAULT_STACK_SIZE,
    STACK_SIZE, STACK_TOP, TEXT_BASE,
};
pub use builder::{add, addi, li_sequence, pcrel_hi_lo, BuildError, DataSec, ModuleBuilder};
