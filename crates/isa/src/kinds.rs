//! The instruction-kind tables: one row per kind, and everything a
//! consumer switches on generated from it.
//!
//! Each family below is one [`kinds!`] invocation. A row is
//!
//! ```text
//! Variant "name" encoding "One-line doc." => column values…;
//! ```
//!
//! and the macro generates the enum, `ALL`, the name function
//! (`mnemonic()` or `stem()`) and its inverse, `encoding()` and its inverse
//! `from_encoding()` — a `match` on the rows' constant patterns, the same
//! jump table a hand-written decoder compiles to — plus one function per
//! column the family declares (`ext()`, `size()`, `cost_class()`, `eval()`,
//! …). The 32-bit shape table (the encoder and the decoder), the syntax
//! table (`Display` and `parse`), the cost model and all emulator tiers
//! read these functions and nothing else, so
//! the lists agree by construction: adding an integer ALU instruction is
//! one row here (plus a downgrade template in the rewriter if it belongs
//! to an extension a base core lacks). Two rows with the same encoding are
//! an unreachable-pattern error at compile time.
//!
//! The value functions are pure: an integer row computes `rd` from register
//! values, an FP row from its operands' value bits, and every vector row
//! names in its `element` column the scalar row that computes one element
//! ([`Element`], where the per-element-width operand rule is stated). The
//! vector core, the rewriter's downgrade templates and its upgrade
//! vectorizer all read that column, so a vector operation means one thing:
//! adding one is a row here plus, if its scalar row is one a base core
//! lacks, a lowering in the rewriter.
//!
//! What the rows deliberately do not carry: operand shapes (the [`Inst`]
//! enum, whose 32-bit field layouts are their own table in `shapes.rs`,
//! reading these rows' keys), the compressed forms (their own table in
//! `rvc.rs`, whose expansions are canonical `Inst` values that ride on
//! these rows), and execution — register files and their NaN-boxing, `vl`
//! / `vtype`, memory — which needs hart state and stays in the emulator.
//!
//! [`Inst`]: crate::Inst

use crate::inst::{Eew, FpWidth, VSrc};
use crate::Ext;

/// Generates one instruction-kind family from its table; see the module
/// docs for the row schema.
///
/// Columns are peeled off one per recursion step (`@cols`): a column is a
/// function signature in the header and one expression per row, in header
/// order. A column with parameters is the family's value function — row
/// expressions name the parameters directly.
macro_rules! kinds {
    (
        $(#[$emeta:meta])*
        enum $Kind:ident {
            $(#[$nmeta:meta])*
            name $name:ident, $from_name:ident;
            $(#[$kmeta:meta])*
            encoding $Enc:ty;
            $($cols:tt)*
        }
        $($variant:ident $text:literal $enc:tt $doc:literal $(=> $($val:expr),+)?;)+
    ) => {
        $(#[$emeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $Kind {
            $(#[doc = $doc] $variant,)+
        }

        impl $Kind {
            /// Every kind of the family, in table order.
            pub const ALL: &'static [$Kind] = &[$($Kind::$variant),+];

            $(#[$nmeta])*
            pub const fn $name(self) -> &'static str {
                match self { $($Kind::$variant => $text,)+ }
            }

            /// The kind with this name, if any.
            pub fn $from_name(name: &str) -> Option<$Kind> {
                match name { $($text => Some($Kind::$variant),)+ _ => None }
            }

            $(#[$kmeta])*
            #[inline(always)]
            pub const fn encoding(self) -> $Enc {
                match self { $($Kind::$variant => $enc,)+ }
            }

            /// The kind whose [`Self::encoding`] is `key`, if any.
            #[inline(always)]
            pub const fn from_encoding(key: $Enc) -> Option<$Kind> {
                match key { $($enc => Some($Kind::$variant),)+ _ => None }
            }
        }

        kinds!(@cols $Kind [$($cols)*] $([$variant $($($val),+)?])+);
    };
    (@cols $Kind:ident [] $([$variant:ident])+) => {};
    (@cols $Kind:ident
        [$(#[$m:meta])* $vis:vis const fn $f:ident(self) -> $T:ty; $($cols:tt)*]
        $([$variant:ident $val:expr $(, $rest:expr)*])+
    ) => {
        impl $Kind {
            $(#[$m])*
            $vis const fn $f(self) -> $T {
                match self { $($Kind::$variant => $val,)+ }
            }
        }
        kinds!(@cols $Kind [$($cols)*] $([$variant $($rest),*])+);
    };
    (@cols $Kind:ident
        [$(#[$m:meta])* $vis:vis fn $f:ident(self $(, $arg:ident: $A:ty)+) -> $T:ty; $($cols:tt)*]
        $([$variant:ident $val:expr $(, $rest:expr)*])+
    ) => {
        impl $Kind {
            $(#[$m])*
            $vis fn $f(self $(, $arg: $A)+) -> $T {
                match self { $($Kind::$variant => $val,)+ }
            }
        }
        kinds!(@cols $Kind [$($cols)*] $([$variant $($rest),*])+);
    };
}

// Major opcodes (`bits[6:0]`).
pub(crate) const OP_LOAD: u32 = 0b0000011;
pub(crate) const OP_LOAD_FP: u32 = 0b0000111;
pub(crate) const OP_MISC_MEM: u32 = 0b0001111;
pub(crate) const OP_IMM: u32 = 0b0010011;
pub(crate) const OP_AUIPC: u32 = 0b0010111;
pub(crate) const OP_IMM_32: u32 = 0b0011011;
pub(crate) const OP_STORE: u32 = 0b0100011;
pub(crate) const OP_STORE_FP: u32 = 0b0100111;
pub(crate) const OP: u32 = 0b0110011;
pub(crate) const OP_LUI: u32 = 0b0110111;
pub(crate) const OP_32: u32 = 0b0111011;
pub(crate) const OP_FMADD: u32 = 0b1000011;
pub(crate) const OP_FMSUB: u32 = 0b1000111;
pub(crate) const OP_FNMSUB: u32 = 0b1001011;
pub(crate) const OP_FNMADD: u32 = 0b1001111;
pub(crate) const OP_FP: u32 = 0b1010011;
pub(crate) const OP_V: u32 = 0b1010111;
pub(crate) const OP_BRANCH: u32 = 0b1100011;
pub(crate) const OP_JALR: u32 = 0b1100111;
pub(crate) const OP_JAL: u32 = 0b1101111;
pub(crate) const OP_SYSTEM: u32 = 0b1110011;

/// The dynamic rounding mode. An F/D row whose `funct3` is `RM_DYN` has a
/// rounding-mode field there: the decoder accepts any value in it and the
/// encoder emits this one.
pub(crate) const RM_DYN: u32 = 0b111;

// Row shorthands for the `ext` columns.
const BASE: Option<Ext> = None;
const M: Option<Ext> = Some(Ext::M);
const B: Option<Ext> = Some(Ext::B);

/// The cycle-cost class of a scalar ALU or FP operation; the emulator's
/// cost model assigns each class its cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Single-cycle integer ALU.
    Alu,
    /// Integer multiply.
    Mul,
    /// Integer divide / remainder.
    Div,
    /// FP add / multiply / sign-injection / min-max.
    Fp,
    /// FP divide.
    FpDiv,
}
use CostClass::{Alu, Div, Fp, FpDiv, Mul};

kinds! {
    /// Conditional branch comparison kinds (`beq`..`bgeu`).
    enum BranchKind {
        /// The assembler mnemonic.
        name mnemonic, from_mnemonic;
        /// The `funct3` field under the `BRANCH` opcode.
        encoding u32;
        /// Whether the branch is taken for comparands `a` (`rs1`) and `b`
        /// (`rs2`).
        #[inline]
        pub fn eval(self, a: u64, b: u64) -> bool;
    }
    Beq  "beq"  0b000 "Branch if equal."                       => a == b;
    Bne  "bne"  0b001 "Branch if not equal."                   => a != b;
    Blt  "blt"  0b100 "Branch if less than (signed)."          => (a as i64) < (b as i64);
    Bge  "bge"  0b101 "Branch if greater or equal (signed)."   => (a as i64) >= (b as i64);
    Bltu "bltu" 0b110 "Branch if less than (unsigned)."        => a < b;
    Bgeu "bgeu" 0b111 "Branch if greater or equal (unsigned)." => a >= b;
}

impl BranchKind {
    /// The kind taken exactly when `self` is not: the ISA pairs every
    /// comparison with its complement in `funct3`'s low bit.
    pub fn inverted(self) -> BranchKind {
        BranchKind::from_encoding(self.encoding() ^ 1).expect("branch rows pair up in funct3 bit 0")
    }
}

kinds! {
    /// Integer load kinds.
    enum LoadKind {
        /// The assembler mnemonic.
        name mnemonic, from_mnemonic;
        /// The `funct3` field under the `LOAD` opcode.
        encoding u32;
        /// Access size in bytes.
        pub const fn size(self) -> u64;
    }
    Lb  "lb"  0b000 "Load byte (sign-extended)."     => 1;
    Lh  "lh"  0b001 "Load halfword (sign-extended)." => 2;
    Lw  "lw"  0b010 "Load word (sign-extended)."     => 4;
    Ld  "ld"  0b011 "Load doubleword."               => 8;
    Lbu "lbu" 0b100 "Load byte (zero-extended)."     => 1;
    Lhu "lhu" 0b101 "Load halfword (zero-extended)." => 2;
    Lwu "lwu" 0b110 "Load word (zero-extended)."     => 4;
}

kinds! {
    /// Integer store kinds.
    enum StoreKind {
        /// The assembler mnemonic.
        name mnemonic, from_mnemonic;
        /// The `funct3` field under the `STORE` opcode.
        encoding u32;
        /// Access size in bytes.
        pub const fn size(self) -> u64;
    }
    Sb "sb" 0b000 "Store byte."       => 1;
    Sh "sh" 0b001 "Store halfword."   => 2;
    Sw "sw" 0b010 "Store word."       => 4;
    Sd "sd" 0b011 "Store doubleword." => 8;
}

/// Width of the shift-amount field of the `OP-IMM` / `OP-IMM-32` rows with
/// this `funct3` (6 bits on RV64, 5 for the `*w` forms), or `None` where
/// the row takes a 12-bit I-immediate. Shift rows keep the immediate bits
/// above the shift amount in their encoding key; the others key on zero.
pub(crate) const fn shamt_bits(opcode: u32, funct3: u32) -> Option<u32> {
    if funct3 & 0b011 != 0b001 {
        None
    } else if opcode == OP_IMM_32 {
        Some(5)
    } else {
        Some(6)
    }
}

/// An I-immediate as the 64-bit operand it denotes.
const fn sx(imm: i32) -> u64 {
    imm as i64 as u64
}

/// A 32-bit result as the sign-extended register value of the `*w` forms.
const fn w(v: u32) -> u64 {
    v as i32 as i64 as u64
}

kinds! {
    /// Register-immediate ALU operations (`OP-IMM` and `OP-IMM-32`).
    enum OpImmKind {
        /// The assembler mnemonic.
        name mnemonic, from_mnemonic;
        /// `(opcode, funct3, immediate bits above the shift amount)`; the
        /// last is zero for rows that take a 12-bit immediate.
        encoding (u32, u32, u32);
        /// The extension the operation belongs to (`None` for base RV64I).
        pub const fn ext(self) -> Option<Ext>;
        /// The value written to `rd` for source `a` and immediate `imm`
        /// (a 12-bit signed value, or an in-range shift amount).
        #[inline]
        pub fn eval(self, a: u64, imm: i32) -> u64;
    }
    Addi  "addi"  (OP_IMM,    0b000, 0)         "Add immediate."                              => BASE, a.wrapping_add(sx(imm));
    Slti  "slti"  (OP_IMM,    0b010, 0)         "Set if less than immediate (signed)."        => BASE, ((a as i64) < imm as i64) as u64;
    Sltiu "sltiu" (OP_IMM,    0b011, 0)         "Set if less than immediate (unsigned)."      => BASE, (a < sx(imm)) as u64;
    Xori  "xori"  (OP_IMM,    0b100, 0)         "XOR immediate."                              => BASE, a ^ sx(imm);
    Ori   "ori"   (OP_IMM,    0b110, 0)         "OR immediate."                               => BASE, a | sx(imm);
    Andi  "andi"  (OP_IMM,    0b111, 0)         "AND immediate."                              => BASE, a & sx(imm);
    Slli  "slli"  (OP_IMM,    0b001, 0b000000)  "Shift left logical immediate (6-bit shamt)." => BASE, a << (imm & 63);
    Srli  "srli"  (OP_IMM,    0b101, 0b000000)  "Shift right logical immediate."              => BASE, a >> (imm & 63);
    Srai  "srai"  (OP_IMM,    0b101, 0b010000)  "Shift right arithmetic immediate."           => BASE, ((a as i64) >> (imm & 63)) as u64;
    Addiw "addiw" (OP_IMM_32, 0b000, 0)         "Add immediate, 32-bit result sign-extended." => BASE, w(a.wrapping_add(sx(imm)) as u32);
    Slliw "slliw" (OP_IMM_32, 0b001, 0b0000000) "Shift left logical immediate, 32-bit."       => BASE, w((a as u32) << (imm & 31));
    Srliw "srliw" (OP_IMM_32, 0b101, 0b0000000) "Shift right logical immediate, 32-bit."      => BASE, w((a as u32) >> (imm & 31));
    Sraiw "sraiw" (OP_IMM_32, 0b101, 0b0100000) "Shift right arithmetic immediate, 32-bit."   => BASE, w(((a as i32) >> (imm & 31)) as u32);
    Rori  "rori"  (OP_IMM,    0b101, 0b011000)  "Rotate right immediate (Zbb)."               => B,    a.rotate_right((imm & 63) as u32);
}

impl OpImmKind {
    /// Width of the shift-amount immediate in bits (6 for RV64, 5 for the
    /// `*w` forms), or `None` for a 12-bit I-immediate.
    pub const fn shamt_bits(self) -> Option<u32> {
        let (opcode, funct3, _) = self.encoding();
        shamt_bits(opcode, funct3)
    }

    /// Whether the immediate is a shift amount rather than a 12-bit
    /// I-immediate.
    pub const fn is_shift(self) -> bool {
        self.shamt_bits().is_some()
    }
}

/// Signed division as RISC-V defines it, without traps: `x / 0` is -1 and
/// the overflowing `MIN / -1` wraps to `MIN`.
const fn sdiv(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else {
        a.wrapping_div(b)
    }
}

/// Signed remainder as RISC-V defines it: `x % 0` is `x` and `MIN % -1`
/// is 0.
const fn srem(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        a.wrapping_rem(b)
    }
}

kinds! {
    /// Register-register ALU operations (`OP` and `OP-32`), including the M
    /// extension and the Zba/Zbb register-register subset.
    enum OpKind {
        /// The assembler mnemonic.
        name mnemonic, from_mnemonic;
        /// `(opcode, funct3, funct7)`.
        encoding (u32, u32, u32);
        /// The extension the operation belongs to (`None` for base RV64I).
        pub const fn ext(self) -> Option<Ext>;
        /// The cycle-cost class.
        pub const fn cost_class(self) -> CostClass;
        /// The value written to `rd` for sources `a` (`rs1`) and `b`
        /// (`rs2`).
        #[inline(always)]
        pub fn eval(self, a: u64, b: u64) -> u64;
    }
    Add    "add"    (OP,    0b000, 0b0000000) "Add."                                  => BASE, Alu, a.wrapping_add(b);
    Sub    "sub"    (OP,    0b000, 0b0100000) "Subtract."                             => BASE, Alu, a.wrapping_sub(b);
    Sll    "sll"    (OP,    0b001, 0b0000000) "Shift left logical."                   => BASE, Alu, a << (b & 63);
    Slt    "slt"    (OP,    0b010, 0b0000000) "Set if less than (signed)."            => BASE, Alu, ((a as i64) < (b as i64)) as u64;
    Sltu   "sltu"   (OP,    0b011, 0b0000000) "Set if less than (unsigned)."          => BASE, Alu, (a < b) as u64;
    Xor    "xor"    (OP,    0b100, 0b0000000) "XOR."                                  => BASE, Alu, a ^ b;
    Srl    "srl"    (OP,    0b101, 0b0000000) "Shift right logical."                  => BASE, Alu, a >> (b & 63);
    Sra    "sra"    (OP,    0b101, 0b0100000) "Shift right arithmetic."               => BASE, Alu, ((a as i64) >> (b & 63)) as u64;
    Or     "or"     (OP,    0b110, 0b0000000) "OR."                                   => BASE, Alu, a | b;
    And    "and"    (OP,    0b111, 0b0000000) "AND."                                  => BASE, Alu, a & b;
    Addw   "addw"   (OP_32, 0b000, 0b0000000) "Add, 32-bit."                          => BASE, Alu, w(a.wrapping_add(b) as u32);
    Subw   "subw"   (OP_32, 0b000, 0b0100000) "Subtract, 32-bit."                     => BASE, Alu, w(a.wrapping_sub(b) as u32);
    Sllw   "sllw"   (OP_32, 0b001, 0b0000000) "Shift left logical, 32-bit."           => BASE, Alu, w((a as u32) << (b & 31));
    Srlw   "srlw"   (OP_32, 0b101, 0b0000000) "Shift right logical, 32-bit."          => BASE, Alu, w((a as u32) >> (b & 31));
    Sraw   "sraw"   (OP_32, 0b101, 0b0100000) "Shift right arithmetic, 32-bit."       => BASE, Alu, w(((a as i32) >> (b & 31)) as u32);
    Mul    "mul"    (OP,    0b000, 0b0000001) "Multiply (M)."                         => M, Mul, a.wrapping_mul(b);
    Mulh   "mulh"   (OP,    0b001, 0b0000001) "Multiply high, signed×signed (M)."     => M, Mul, ((a as i64 as i128 * b as i64 as i128) >> 64) as u64;
    Mulhsu "mulhsu" (OP,    0b010, 0b0000001) "Multiply high, signed×unsigned (M)."   => M, Mul, ((a as i64 as i128 * b as u128 as i128) >> 64) as u64;
    Mulhu  "mulhu"  (OP,    0b011, 0b0000001) "Multiply high, unsigned×unsigned (M)." => M, Mul, ((a as u128 * b as u128) >> 64) as u64;
    Div    "div"    (OP,    0b100, 0b0000001) "Divide, signed (M)."                   => M, Div, sdiv(a as i64, b as i64) as u64;
    Divu   "divu"   (OP,    0b101, 0b0000001) "Divide, unsigned (M)."                 => M, Div, a.checked_div(b).unwrap_or(u64::MAX);
    Rem    "rem"    (OP,    0b110, 0b0000001) "Remainder, signed (M)."                => M, Div, srem(a as i64, b as i64) as u64;
    Remu   "remu"   (OP,    0b111, 0b0000001) "Remainder, unsigned (M)."              => M, Div, a.checked_rem(b).unwrap_or(a);
    Mulw   "mulw"   (OP_32, 0b000, 0b0000001) "Multiply, 32-bit (M)."                 => M, Mul, w((a as u32).wrapping_mul(b as u32));
    Divw   "divw"   (OP_32, 0b100, 0b0000001) "Divide signed, 32-bit (M)."            => M, Div, w(sdiv(a as i32 as i64, b as i32 as i64) as u32);
    Divuw  "divuw"  (OP_32, 0b101, 0b0000001) "Divide unsigned, 32-bit (M)."          => M, Div, w((a as u32).checked_div(b as u32).unwrap_or(u32::MAX));
    Remw   "remw"   (OP_32, 0b110, 0b0000001) "Remainder signed, 32-bit (M)."         => M, Div, w(srem(a as i32 as i64, b as i32 as i64) as u32);
    Remuw  "remuw"  (OP_32, 0b111, 0b0000001) "Remainder unsigned, 32-bit (M)."       => M, Div, w((a as u32).checked_rem(b as u32).unwrap_or(a as u32));
    Sh1add "sh1add" (OP,    0b010, 0b0010000) "Shift left by 1 and add (Zba)."        => B, Alu, (a << 1).wrapping_add(b);
    Sh2add "sh2add" (OP,    0b100, 0b0010000) "Shift left by 2 and add (Zba)."        => B, Alu, (a << 2).wrapping_add(b);
    Sh3add "sh3add" (OP,    0b110, 0b0010000) "Shift left by 3 and add (Zba)."        => B, Alu, (a << 3).wrapping_add(b);
    AddUw  "add.uw" (OP_32, 0b000, 0b0000100) "Add unsigned word (Zba)."              => B, Alu, (a as u32 as u64).wrapping_add(b);
    Andn   "andn"   (OP,    0b111, 0b0100000) "AND with inverted operand (Zbb)."      => B, Alu, a & !b;
    Orn    "orn"    (OP,    0b110, 0b0100000) "OR with inverted operand (Zbb)."       => B, Alu, a | !b;
    Xnor   "xnor"   (OP,    0b100, 0b0100000) "XNOR (Zbb)."                           => B, Alu, !(a ^ b);
    Min    "min"    (OP,    0b100, 0b0000101) "Minimum, signed (Zbb)."                => B, Alu, (a as i64).min(b as i64) as u64;
    Minu   "minu"   (OP,    0b101, 0b0000101) "Minimum, unsigned (Zbb)."              => B, Alu, a.min(b);
    Max    "max"    (OP,    0b110, 0b0000101) "Maximum, signed (Zbb)."                => B, Alu, (a as i64).max(b as i64) as u64;
    Maxu   "maxu"   (OP,    0b111, 0b0000101) "Maximum, unsigned (Zbb)."              => B, Alu, a.max(b);
    Rol    "rol"    (OP,    0b001, 0b0110000) "Rotate left (Zbb)."                    => B, Alu, a.rotate_left((b & 63) as u32);
    Ror    "ror"    (OP,    0b101, 0b0110000) "Rotate right (Zbb)."                   => B, Alu, a.rotate_right((b & 63) as u32);
}

kinds! {
    /// Single-operand bit-manipulation operations (Zbb, encoded in `OP-IMM`
    /// / `OP-32` space with a fixed `rs2` selector).
    enum UnaryKind {
        /// The assembler mnemonic.
        name mnemonic, from_mnemonic;
        /// `(opcode, funct3, funct7, rs2 selector)`.
        encoding (u32, u32, u32, u32);
        /// The extension the operation belongs to.
        pub const fn ext(self) -> Option<Ext>;
        /// The value written to `rd` for source `a`.
        #[inline]
        pub fn eval(self, a: u64) -> u64;
    }
    Clz   "clz"    (OP_IMM, 0b001, 0b0110000, 0b00000) "Count leading zeros."       => B, a.leading_zeros() as u64;
    Ctz   "ctz"    (OP_IMM, 0b001, 0b0110000, 0b00001) "Count trailing zeros."      => B, a.trailing_zeros() as u64;
    Cpop  "cpop"   (OP_IMM, 0b001, 0b0110000, 0b00010) "Population count."          => B, a.count_ones() as u64;
    SextB "sext.b" (OP_IMM, 0b001, 0b0110000, 0b00100) "Sign-extend byte."          => B, a as i8 as i64 as u64;
    SextH "sext.h" (OP_IMM, 0b001, 0b0110000, 0b00101) "Sign-extend halfword."      => B, a as i16 as i64 as u64;
    ZextH "zext.h" (OP_32,  0b100, 0b0000100, 0b00000) "Zero-extend halfword."      => B, a as u16 as u64;
    Rev8  "rev8"   (OP_IMM, 0b101, 0b0110101, 0b11000) "Byte-reverse the register." => B, a.swap_bytes();
}

/// What an FP row writes, as bits: a float's own, or a comparison's 0 / 1.
trait Bits {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for bool {
    fn bits(self) -> u64 {
        self as u64
    }
}

/// An FP row's value: `body` over the named operands read as floats of
/// `width` from their value bits (a single's are the low 32), as bits.
macro_rules! float {
    ($width:expr, |$($x:ident),+| $body:expr) => {
        match $width {
            FpWidth::S => {
                $(let $x = f32::from_bits($x as u32);)+
                Bits::bits($body)
            }
            FpWidth::D => {
                $(let $x = f64::from_bits($x);)+
                Bits::bits($body)
            }
        }
    };
}

kinds! {
    /// Two-source floating-point ALU operations.
    enum FOpKind {
        /// The assembler mnemonic stem (width suffix appended separately).
        name stem, from_stem;
        /// `(funct5, funct3)` under `OP-FP`; a `funct3` of `0b111` is a
        /// rounding-mode field (see the decoder).
        encoding (u32, u32);
        /// The cycle-cost class.
        pub const fn cost_class(self) -> CostClass;
        /// The value bits written to `frd` for operands `a` (`frs1`) and `b`
        /// (`frs2`) of `width`, given as value bits ([`FpWidth::unbox`]).
        #[inline]
        pub fn eval(self, width: FpWidth, a: u64, b: u64) -> u64;
    }
    Add   "fadd"   (0b00000, RM_DYN) "Add."                                                        => Fp,    float!(width, |a, b| a + b);
    Sub   "fsub"   (0b00001, RM_DYN) "Subtract."                                                   => Fp,    float!(width, |a, b| a - b);
    Mul   "fmul"   (0b00010, RM_DYN) "Multiply."                                                   => Fp,    float!(width, |a, b| a * b);
    Div   "fdiv"   (0b00011, RM_DYN) "Divide."                                                     => FpDiv, float!(width, |a, b| a / b);
    Min   "fmin"   (0b00101, 0b000)  "Minimum."                                                    => Fp,    float!(width, |a, b| a.min(b));
    Max   "fmax"   (0b00101, 0b001)  "Maximum."                                                    => Fp,    float!(width, |a, b| a.max(b));
    SgnJ  "fsgnj"  (0b00100, 0b000)  "Sign-injection (`fsgnj`; `fmv.f.f` is `fsgnj rd, rs, rs`)."  => Fp,    float!(width, |a, b| a.copysign(b));
    SgnJN "fsgnjn" (0b00100, 0b001)  "Negated sign-injection (`fsgnjn`; `fneg` alias)."            => Fp,    float!(width, |a, b| a.copysign(-b));
    SgnJX "fsgnjx" (0b00100, 0b010)  "XORed sign-injection (`fsgnjx`; `fabs` alias)."              => Fp,    float!(width, |a, b| if b.is_sign_negative() { -a } else { a });
}

kinds! {
    /// Floating-point comparison kinds.
    enum FCmpKind {
        /// The assembler mnemonic stem.
        name stem, from_stem;
        /// The `funct3` field under `OP-FP` `funct5 = 10100`.
        encoding u32;
        /// The value written to `rd` (0 or 1) for operands `a` (`frs1`) and
        /// `b` (`frs2`) of `width`, given as value bits.
        #[inline]
        pub fn eval(self, width: FpWidth, a: u64, b: u64) -> u64;
    }
    Feq "feq" 0b010 "Equal."              => float!(width, |a, b| a == b);
    Flt "flt" 0b001 "Less than."          => float!(width, |a, b| a < b);
    Fle "fle" 0b000 "Less than or equal." => float!(width, |a, b| a <= b);
}

kinds! {
    /// Fused multiply-add variants.
    enum FMaKind {
        /// The assembler mnemonic stem.
        name stem, from_stem;
        /// The major opcode.
        encoding u32;
        /// The value bits written to `frd` for operands `a` (`frs1`), `b`
        /// (`frs2`) and `c` (`frs3`) of `width`, given as value bits; one
        /// rounding.
        #[inline]
        pub fn eval(self, width: FpWidth, a: u64, b: u64, c: u64) -> u64;
    }
    Madd  "fmadd"  OP_FMADD  "`frd = frs1 * frs2 + frs3`."    => float!(width, |a, b, c| a.mul_add(b, c));
    Msub  "fmsub"  OP_FMSUB  "`frd = frs1 * frs2 - frs3`."    => float!(width, |a, b, c| a.mul_add(b, -c));
    Nmsub "fnmsub" OP_FNMSUB "`frd = -(frs1 * frs2) + frs3`." => float!(width, |a, b, c| (-a).mul_add(b, c));
    Nmadd "fnmadd" OP_FNMADD "`frd = -(frs1 * frs2) - frs3`." => float!(width, |a, b, c| (-a).mul_add(b, -c));
}

// The three `OP-V` operand categories, named by the `funct3` of their
// `.vv` form; the scalar form (`.vx` / `.vf`) sets bit 2 of it, and the
// integer category alone has an immediate form (`OPIVI`, `funct3 = 011`).
pub(crate) const OPI: u32 = 0b000;
pub(crate) const OPF: u32 = 0b001;
pub(crate) const OPM: u32 = 0b010;
pub(crate) const OPIVI: u32 = 0b011;

// Source-form bits for the `forms` column.
const VV: u8 = 1;
const VX: u8 = 2;
const VI: u8 = 4;
const VF: u8 = 8;

/// What computes one element of a vector operation: a scalar row of the
/// tables above ([`VArithOp::element`]). `s` below is the second source —
/// `vs1[i]`, the `x` or `f` scalar, or the immediate.
///
/// **The operand rule**, the one the vector core and the downgrade
/// templates both follow: operands are element bits at the selected element
/// width (SEW) — a vector element, the low SEW bits of an `x` scalar or of
/// the immediate, or an `f` scalar read at the element's FP format
/// ([`FpWidth::unbox`]: at `e32` a single that is not NaN-boxed is the
/// canonical NaN). An integer row sees its operands sign-extended from SEW,
/// an FP row sees values of the format SEW names, and the result is
/// truncated to SEW. A SEW with no FP format (`e8`, `e16`) gives an FP row
/// the result zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    /// `vd[i] = row(vs2[i], s)`.
    Op(OpKind),
    /// `vd[i] = vd[i] + row(vs2[i], s)`.
    Acc(OpKind),
    /// `vd[i] = s`.
    Move,
    /// `vd[0] = row(…row(row(vs1[0], vs2[0]), vs2[1])…, vs2[vl − 1])`; a
    /// reduction.
    Fold(OpKind),
    /// `vd[i] = row(vs2[i], s)` on floats.
    FOp(FOpKind),
    /// `vd[i] = row(s, vs2[i], vd[i])`.
    FMa(FMaKind),
    /// [`Element::Fold`] of an FP row.
    FFold(FOpKind),
}
use Element::{Acc, FFold, FMa, FOp, Fold, Move, Op};

impl Element {
    /// One element at `sew`: the row applied to `x` and `y` — `vs2[i]` and
    /// `s`, or for a fold the accumulator and `vs2[i]` — with `d` = `vd[i]`,
    /// under the operand rule above.
    #[inline(always)]
    pub fn eval(self, sew: Eew, x: u64, y: u64, d: u64) -> u64 {
        let sx = |v| sew.sext(v);
        let r = match self {
            Op(row) | Fold(row) => row.eval(sx(x), sx(y)),
            Acc(row) => sx(d).wrapping_add(row.eval(sx(x), sx(y))),
            Move => y,
            FOp(row) | FFold(row) => sew.fp().map_or(0, |w| row.eval(w, x, y)),
            FMa(row) => sew.fp().map_or(0, |w| row.eval(w, y, x, d)),
        };
        sew.truncate(r)
    }
}

kinds! {
    /// Vector arithmetic operations in the supported RVV subset (all unmasked).
    enum VArithOp {
        /// The assembler mnemonic stem.
        name stem, from_stem;
        /// `(funct6, operand category)`, the category being the `funct3`
        /// of the `.vv` form.
        encoding (u32, u32);
        /// The source forms the operation has, as a bit set.
        const fn forms(self) -> u8;
        /// The scalar row that computes one element.
        pub const fn element(self) -> Element;
        /// Cycles per lane pair, relative to a simple lane operation.
        pub const fn cost_scale(self) -> u64;
    }
    Vadd      "vadd"      (0b000000, OPI) "Integer add."                                                     => VV | VX | VI, Op(OpKind::Add),     1;
    Vsub      "vsub"      (0b000010, OPI) "Integer subtract."                                                => VV | VX,      Op(OpKind::Sub),     1;
    Vand      "vand"      (0b001001, OPI) "Bitwise AND."                                                     => VV | VX | VI, Op(OpKind::And),     1;
    Vor       "vor"       (0b001010, OPI) "Bitwise OR."                                                      => VV | VX | VI, Op(OpKind::Or),      1;
    Vxor      "vxor"      (0b001011, OPI) "Bitwise XOR."                                                     => VV | VX | VI, Op(OpKind::Xor),     1;
    Vmul      "vmul"      (0b100101, OPM) "Integer multiply."                                                => VV | VX,      Op(OpKind::Mul),     1;
    Vmacc     "vmacc"     (0b101101, OPM) "Integer multiply-accumulate (`vd += vs1/rs1 * vs2`)."             => VV | VX,      Acc(OpKind::Mul),    1;
    Vmin      "vmin"      (0b000101, OPI) "Integer minimum (signed)."                                        => VV | VX,      Op(OpKind::Min),     1;
    Vmax      "vmax"      (0b000111, OPI) "Integer maximum (signed)."                                        => VV | VX,      Op(OpKind::Max),     1;
    Vmv       "vmv"       (0b010111, OPI) "Whole-register/broadcast move (`vmv.v.v` / `vmv.v.x` / `vmv.v.i`)." => VV | VX | VI, Move,                1;
    Vredsum   "vredsum"   (0b000000, OPM) "Integer reduction sum (`vredsum.vs`)."                            => VV,           Fold(OpKind::Add),   2;
    Vfadd     "vfadd"     (0b000000, OPF) "FP add."                                                          => VV | VF,      FOp(FOpKind::Add),   1;
    Vfsub     "vfsub"     (0b000010, OPF) "FP subtract."                                                     => VV | VF,      FOp(FOpKind::Sub),   1;
    Vfmul     "vfmul"     (0b100100, OPF) "FP multiply."                                                     => VV | VF,      FOp(FOpKind::Mul),   1;
    Vfdiv     "vfdiv"     (0b100000, OPF) "FP divide."                                                       => VV | VF,      FOp(FOpKind::Div),   6;
    Vfmacc    "vfmacc"    (0b101100, OPF) "FP multiply-accumulate (`vd += vs1/fs1 * vs2`)."                  => VV | VF,      FMa(FMaKind::Madd),  1;
    Vfredusum "vfredusum" (0b000001, OPF) "FP unordered reduction sum (`vfredusum.vs`)."                     => VV,           FFold(FOpKind::Add), 2;
}

impl VArithOp {
    /// Whether the operation is floating-point (uses `OPFVV`/`OPFVF` funct3).
    pub const fn is_fp(self) -> bool {
        self.encoding().1 == OPF
    }

    /// Whether the operation is a reduction (`.vs` form: scalar in element 0
    /// of `vs1`, result in element 0 of `vd`).
    pub const fn is_reduction(self) -> bool {
        matches!(self.element(), Fold(_) | FFold(_))
    }

    /// Whether the operation has the source form of `src` (`.vv` / `.vx` /
    /// `.vf` / `.vi`); a form it lacks is a reserved encoding.
    pub const fn allows(self, src: VSrc) -> bool {
        let form = match src {
            VSrc::V(_) => VV,
            VSrc::X(_) => VX,
            VSrc::F(_) => VF,
            VSrc::I(_) => VI,
        };
        self.forms() & form != 0
    }
}
