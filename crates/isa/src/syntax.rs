//! The assembly syntax: one row per [`Inst`] constructor, and both
//! `Display for Inst` and [`parse`] generated from it.
//!
//! A row is
//!
//! ```text
//! Shape { field in values, field, … } [part, …] (operand: slot, …) if guard;
//! ```
//!
//! * The fields are the constructor's. A field written `field in values`
//!   is spelled by the mnemonic, and `values` is every value it takes; the
//!   others are operands.
//! * The mnemonic is its parts printed one after another: literal text, a
//!   kind's `mnemonic()` / `stem()`, the FP width suffix [`fp`], the `w` /
//!   `d` letter [`wd`], the integer-width suffix [`int`], the element width
//!   [`ew`] or the vector source form [`form`].
//! * The operands are typed slots, printed after a space and separated by
//!   `", "`: an `x` / `f` / `v` register, an immediate in decimal ([`Imm`])
//!   or hex ([`Hex`]), `offset(rs1)` ([`Mem`]), `(rs1)` ([`Base`]), a
//!   `vtype` ([`Vtype`]), `VArith`'s second source ([`Src`]) and its `vs2`,
//!   which `vmv.v.*` does not spell ([`Vs2`]).
//! * The guard keeps the combinations an instruction cannot take out of
//!   the mnemonics: the source forms a vector operation lacks.
//!
//! [`parse`] finds its row with one lookup of the whole mnemonic in a map
//! built once by printing every row's mnemonic for every combination of
//! its mnemonic fields (about 200 names; a test fails if one is printed
//! twice). The map holds the instruction the name starts: its mnemonic
//! fields set and its operand fields blank, for the row's slots to read the
//! operands into. `crates/obj/tests/asm_roundtrip.rs` assembles the
//! printed text of a sample covering every name and decodes it back.

use crate::inst::{Eew, FpWidth, Inst, IntWidth, VSrc, VType};
use crate::kinds::*;
use crate::reg::{FReg, VReg, XReg};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Why [`parse`] refused an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntaxError {
    /// No row prints this mnemonic.
    UnknownMnemonic,
    /// Operand `index` (from 1) is missing or is not what its slot takes.
    BadOperand {
        /// The operand's position, from 1.
        index: usize,
        /// What the slot takes.
        expected: &'static str,
    },
    /// The instruction has fewer operands than the line gives.
    ExtraOperands,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyntaxError::UnknownMnemonic => f.write_str("unknown mnemonic"),
            SyntaxError::BadOperand { index, expected } => {
                write!(f, "operand {index}: expected {expected}")
            }
            SyntaxError::ExtraOperands => f.write_str("too many operands"),
        }
    }
}

impl std::error::Error for SyntaxError {}

/// The integer `text` spells — decimal, `0x` hex or `0b` binary, with an
/// optional `-` — if it fits `bits` bits as a signed or an unsigned
/// number: its low `bits` bits, sign-extended. A 32-bit field thus takes
/// both `-1` and the `0xffffffff` that `Display` prints for a `lui` of -1;
/// a value wider than `bits` is refused, never truncated.
pub fn parse_int(text: &str, bits: u32) -> Option<i64> {
    let (neg, digits) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let magnitude = if let Some(hex) = digits.strip_prefix("0x").or(digits.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else if let Some(bin) = digits.strip_prefix("0b") {
        u64::from_str_radix(bin, 2)
    } else {
        digits.parse()
    }
    .ok()? as i128;
    let value = if neg { -magnitude } else { magnitude };
    let fits = -(1i128 << (bits - 1)) <= value && value < 1i128 << bits;
    let shift = 64 - bits;
    fits.then_some((value as i64) << shift >> shift)
}

// The mnemonic parts beyond literal text and a kind's name.

/// The FP width suffix.
const fn fp(width: FpWidth) -> &'static str {
    match width {
        FpWidth::S => "s",
        FpWidth::D => "d",
    }
}

/// The width letter of the FP loads, stores and moves.
const fn wd(width: FpWidth) -> &'static str {
    match width {
        FpWidth::S => "w",
        FpWidth::D => "d",
    }
}

/// The integer side of an FP↔integer conversion.
const fn int(width: IntWidth, signed: bool) -> &'static str {
    match (width, signed) {
        (IntWidth::W, true) => "w",
        (IntWidth::W, false) => "wu",
        (IntWidth::L, true) => "l",
        (IntWidth::L, false) => "lu",
    }
}

/// A vector memory access's element width in bits.
const fn ew(eew: Eew) -> &'static str {
    match eew {
        Eew::E8 => "8",
        Eew::E16 => "16",
        Eew::E32 => "32",
        Eew::E64 => "64",
    }
}

/// A vector operation's source form; `vmv`, which has no `vs2`, spells it
/// `.v.v` / `.v.x` / `.v.i`, and a reduction's `.vv` is `.vs`.
const fn form(op: VArithOp, src: VSrc) -> &'static str {
    match (op, src) {
        (VArithOp::Vmv, VSrc::V(_)) => ".v.v",
        (VArithOp::Vmv, VSrc::X(_)) => ".v.x",
        (VArithOp::Vmv, VSrc::F(_)) => ".v.f",
        (VArithOp::Vmv, VSrc::I(_)) => ".v.i",
        (_, VSrc::V(_)) if op.is_reduction() => ".vs",
        (_, VSrc::V(_)) => ".vv",
        (_, VSrc::X(_)) => ".vx",
        (_, VSrc::F(_)) => ".vf",
        (_, VSrc::I(_)) => ".vi",
    }
}

/// The other FP width: `fcvt.s.d`'s source is a double.
const fn other(width: FpWidth) -> FpWidth {
    match width {
        FpWidth::S => FpWidth::D,
        FpWidth::D => FpWidth::S,
    }
}

/// An instruction's operands, read front to back.
struct Operands<'a> {
    ops: &'a [&'a str],
    read: usize,
}

impl<'a> Operands<'a> {
    /// The next operand, trimmed.
    fn next(&mut self) -> Option<&'a str> {
        self.read += 1;
        self.ops.get(self.read - 1).map(|op| op.trim())
    }

    /// The error for the operand last read, or found missing.
    fn bad(&self, expected: &'static str) -> SyntaxError {
        let index = self.read;
        SyntaxError::BadOperand { index, expected }
    }
}

/// An operand slot: how a field (or two) is printed and read back.
trait Slot<T>: Copy {
    /// Writes the operand after `sep`, then makes `sep` the separator.
    fn print(self, value: T, f: &mut fmt::Formatter<'_>, sep: &mut &str) -> fmt::Result;

    /// Reads the operand; `blank` is the field as the mnemonic left it.
    fn parse(self, blank: T, ops: &mut Operands<'_>) -> Result<T, SyntaxError>;
}

/// Generates the slots of one operand, each from what it takes, how it
/// writes `value` and how it reads `text` (given `blank`).
macro_rules! slots {
    ($(
        $(#[$doc:meta])* $Slot:ident: $T:ty, $expected:literal,
            |$value:pat_param, $f:ident| $write:expr, |$blank:pat_param, $text:ident| $read:expr;
    )+) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy)]
        struct $Slot;

        impl Slot<$T> for $Slot {
            #[inline]
            fn print(self, $value: $T, $f: &mut fmt::Formatter<'_>, sep: &mut &str) -> fmt::Result {
                $f.write_str(sep)?;
                *sep = ", ";
                $write
            }

            #[inline]
            fn parse(self, $blank: $T, ops: &mut Operands<'_>) -> Result<$T, SyntaxError> {
                let read = |$text: &str| -> Option<$T> { $read };
                ops.next().and_then(read).ok_or_else(|| ops.bad($expected))
            }
        }
    )+};
}

slots! {
    /// An `x` register.
    X: XReg, "an x register", |reg, f| f.write_str(reg.abi_name()), |_, text| XReg::from_name(text);
    /// An `f` register.
    F: FReg, "an f register", |reg, f| f.write_str(reg.abi_name()), |_, text| FReg::from_name(text);
    /// A `v` register.
    V: VReg, "a v register", |reg, f| write!(f, "{reg}"), |_, text| VReg::from_name(text);
    /// A 32-bit immediate in decimal.
    Imm: i32, "an integer that fits 32 bits", |imm, f| write!(f, "{imm}"), |_, text| {
        parse_int(text, 32).map(|imm| imm as i32)
    };
    /// A 32-bit immediate in hex: `lui` / `auipc`'s raw field.
    Hex: i32, "an integer that fits 32 bits", |imm, f| write!(f, "{imm:#x}"), |_, text| {
        parse_int(text, 32).map(|imm| imm as i32)
    };
    /// `offset(rs1)`; an empty offset is 0.
    Mem: (i32, XReg), "offset(register)", |(offset, rs1), f| write!(f, "{offset}({rs1})"), |_, text| {
        let (offset, rs1) = text.strip_suffix(')')?.split_once('(')?;
        let offset = match offset.trim() {
            "" => 0,
            offset => parse_int(offset, 32)? as i32,
        };
        Some((offset, XReg::from_name(rs1.trim())?))
    };
    /// `(rs1)`: a vector access's base, which has no offset.
    Base: XReg, "(register)", |rs1, f| write!(f, "({rs1})"), |_, text| {
        XReg::from_name(text.strip_prefix('(')?.strip_suffix(')')?.trim())
    };
    /// `VArith`'s second source, of the form the mnemonic gave.
    Src: VSrc, "the register or 8-bit integer the form names", |src, f| match src {
        VSrc::V(vs1) => write!(f, "{vs1}"),
        VSrc::X(rs1) => f.write_str(rs1.abi_name()),
        VSrc::F(frs1) => f.write_str(frs1.abi_name()),
        VSrc::I(imm) => write!(f, "{imm}"),
    }, |form, text| {
        Some(match form {
            VSrc::V(_) => VSrc::V(VReg::from_name(text)?),
            VSrc::X(_) => VSrc::X(XReg::from_name(text)?),
            VSrc::F(_) => VSrc::F(FReg::from_name(text)?),
            VSrc::I(_) => VSrc::I(parse_int(text, 8)? as i8),
        })
    };
}

/// `VArith`'s `vs2`, which `vmv.v.*` does not spell (it is `v0` there).
#[derive(Clone, Copy)]
struct Vs2(VArithOp);

impl Slot<VReg> for Vs2 {
    #[inline]
    fn print(self, vs2: VReg, f: &mut fmt::Formatter<'_>, sep: &mut &str) -> fmt::Result {
        match self.0 {
            VArithOp::Vmv => Ok(()),
            _ => V.print(vs2, f, sep),
        }
    }

    #[inline]
    fn parse(self, blank: VReg, ops: &mut Operands<'_>) -> Result<VReg, SyntaxError> {
        match self.0 {
            VArithOp::Vmv => Ok(blank),
            _ => V.parse(blank, ops),
        }
    }
}

/// `vsetvli`'s `vtype`: `eSEW, mLMUL, ta|tu, ma|mu`, four operands, the
/// last two `ta` / `ma` when left out.
#[derive(Clone, Copy)]
struct Vtype;

impl Slot<VType> for Vtype {
    fn print(self, vtype: VType, f: &mut fmt::Formatter<'_>, sep: &mut &str) -> fmt::Result {
        let VType { sew, lmul, ta, ma } = vtype;
        let ta = if ta { "ta" } else { "tu" };
        let ma = if ma { "ma" } else { "mu" };
        write!(f, "{sep}e{}, m{lmul}, {ta}, {ma}", sew.bits())
    }

    fn parse(self, _: VType, ops: &mut Operands<'_>) -> Result<VType, SyntaxError> {
        let sew = match ops.next() {
            Some("e8") => Eew::E8,
            Some("e16") => Eew::E16,
            Some("e32") => Eew::E32,
            Some("e64") => Eew::E64,
            _ => return Err(ops.bad("e8, e16, e32 or e64")),
        };
        let lmul = match ops.next() {
            Some("m1") => 1,
            Some("m2") => 2,
            Some("m4") => 4,
            Some("m8") => 8,
            _ => return Err(ops.bad("m1, m2, m4 or m8")),
        };
        let ta = match ops.next() {
            Some("ta") | None => true,
            Some("tu") => false,
            _ => return Err(ops.bad("ta or tu")),
        };
        let ma = match ops.next() {
            Some("ma") | None => true,
            Some("mu") => false,
            _ => return Err(ops.bad("ma or mu")),
        };
        Ok(VType { sew, lmul, ta, ma })
    }
}

/// The value an operand field holds before its slot reads it.
trait Blank {
    const BLANK: Self;
}

macro_rules! blanks {
    ($($T:ty = $blank:expr;)+) => {$(
        impl Blank for $T {
            const BLANK: Self = $blank;
        }
    )+};
}

blanks! {
    XReg = XReg::ZERO;
    FReg = FReg::FT0;
    VReg = VReg::V0;
    i32 = 0;
    VType = VType { sew: Eew::E8, lmul: 1, ta: true, ma: true };
}

// The values of the mnemonic fields that are not kinds.
const FP: &[FpWidth] = &[FpWidth::S, FpWidth::D];
const INT: &[IntWidth] = &[IntWidth::W, IntWidth::L];
const SIGNED: &[bool] = &[true, false];
const EEW: &[Eew] = &[Eew::E8, Eew::E16, Eew::E32, Eew::E64];
const FORMS: &[VSrc] = &[
    VSrc::V(VReg::V0),
    VSrc::X(XReg::ZERO),
    VSrc::F(FReg::FT0),
    VSrc::I(0),
];

/// Generates `Display for Inst`, the blank instruction of every mnemonic
/// and [`parse`] from the table; see the module docs for the row schema.
macro_rules! syntax {
    ($(
        $Shape:ident { $($field:ident $(in $values:expr)?),* } [$($part:expr),+]
            ($($operand:tt: $slot:expr),*) $(if $guard:expr)?;
    )+) => {
        impl fmt::Display for Inst {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut sep = " ";
                match *self {
                    $(Inst::$Shape { $($field),* } => {
                        $(f.write_str($part)?;)+
                        $(Slot::print($slot, $operand, f, &mut sep)?;)*
                    })+
                }
                Ok(())
            }
        }

        /// Every row's instruction for every combination of its mnemonic
        /// fields, its operand fields blank.
        fn blanks() -> Vec<Inst> {
            let mut blanks = Vec::new();
            $(syntax!(@each [$($field $(in $values)?;)*] {
                let inst = Inst::$Shape { $($field),* };
                if true $(&& $guard)? {
                    blanks.push(inst);
                }
            });)+
            blanks
        }

        /// Reads an instruction from its mnemonic and its operands, as
        /// `Display` prints them.
        pub fn parse(mnemonic: &str, operands: &[&str]) -> Result<Inst, SyntaxError> {
            let blank = *names().get(mnemonic).ok_or(SyntaxError::UnknownMnemonic)?;
            let ops = &mut Operands { ops: operands, read: 0 };
            let inst = match blank {
                $(Inst::$Shape { $($field),* } => {
                    $(let $operand = Slot::parse($slot, $operand, ops)?;)*
                    Inst::$Shape { $($field),* }
                })+
            };
            match ops.next() {
                None => Ok(inst),
                Some(_) => Err(SyntaxError::ExtraOperands),
            }
        }
    };
    (@each [$field:ident in $values:expr; $($rest:tt)*] $body:block) => {
        for &$field in $values {
            syntax!(@each [$($rest)*] $body)
        }
    };
    (@each [$field:ident; $($rest:tt)*] $body:block) => {{
        let $field = Blank::BLANK;
        syntax!(@each [$($rest)*] $body)
    }};
    (@each [] $body:block) => { $body };
}

syntax! {
//  shape     fields                                                       mnemonic                                  operands
    Lui       { rd, imm20 }                                                ["lui"]                                   (rd: X, imm20: Hex);
    Auipc     { rd, imm20 }                                                ["auipc"]                                 (rd: X, imm20: Hex);
    Jal       { rd, offset }                                               ["jal"]                                   (rd: X, offset: Imm);
    Jalr      { rd, rs1, offset }                                          ["jalr"]                                  (rd: X, (offset, rs1): Mem);
    Branch    { kind in BranchKind::ALL, rs1, rs2, offset }                [kind.mnemonic()]                         (rs1: X, rs2: X, offset: Imm);
    Load      { kind in LoadKind::ALL, rd, rs1, offset }                   [kind.mnemonic()]                         (rd: X, (offset, rs1): Mem);
    Store     { kind in StoreKind::ALL, rs1, rs2, offset }                 [kind.mnemonic()]                         (rs2: X, (offset, rs1): Mem);
    OpImm     { kind in OpImmKind::ALL, rd, rs1, imm }                     [kind.mnemonic()]                         (rd: X, rs1: X, imm: Imm);
    Op        { kind in OpKind::ALL, rd, rs1, rs2 }                        [kind.mnemonic()]                         (rd: X, rs1: X, rs2: X);
    Unary     { kind in UnaryKind::ALL, rd, rs1 }                          [kind.mnemonic()]                         (rd: X, rs1: X);
    Fence     {}                                                           ["fence"]                                 ();
    Ecall     {}                                                           ["ecall"]                                 ();
    Ebreak    {}                                                           ["ebreak"]                                ();
    FLoad     { width in FP, frd, rs1, offset }                            ["fl", wd(width)]                         (frd: F, (offset, rs1): Mem);
    FStore    { width in FP, frs2, rs1, offset }                           ["fs", wd(width)]                         (frs2: F, (offset, rs1): Mem);
    FOp       { kind in FOpKind::ALL, width in FP, frd, frs1, frs2 }       [kind.stem(), ".", fp(width)]             (frd: F, frs1: F, frs2: F);
    FCmp      { kind in FCmpKind::ALL, width in FP, rd, frs1, frs2 }       [kind.stem(), ".", fp(width)]             (rd: X, frs1: F, frs2: F);
    FMvToX    { width in FP, rd, frs1 }                                    ["fmv.x.", wd(width)]                     (rd: X, frs1: F);
    FMvToF    { width in FP, frd, rs1 }                                    ["fmv.", wd(width), ".x"]                 (frd: F, rs1: X);
    FCvtToF   { width in FP, from in INT, signed in SIGNED, frd, rs1 }     ["fcvt.", fp(width), ".", int(from, signed)] (frd: F, rs1: X);
    FCvtToInt { width in FP, to in INT, signed in SIGNED, rd, frs1 }       ["fcvt.", int(to, signed), ".", fp(width)]   (rd: X, frs1: F);
    FCvtFF    { to in FP, frd, frs1 }                                      ["fcvt.", fp(to), ".", fp(other(to))]     (frd: F, frs1: F);
    FMa       { kind in FMaKind::ALL, width in FP, frd, frs1, frs2, frs3 } [kind.stem(), ".", fp(width)]             (frd: F, frs1: F, frs2: F, frs3: F);
    Vsetvli   { rd, rs1, vtype }                                           ["vsetvli"]                               (rd: X, rs1: X, vtype: Vtype);
    VLoad     { eew in EEW, vd, rs1 }                                      ["vle", ew(eew), ".v"]                    (vd: V, rs1: Base);
    VStore    { eew in EEW, vs3, rs1 }                                     ["vse", ew(eew), ".v"]                    (vs3: V, rs1: Base);
    VArith    { op in VArithOp::ALL, vd, vs2, src in FORMS }               [op.stem(), form(op, src)]                (vd: V, vs2: Vs2(op), src: Src)
        if op.allows(src);
    VMvXS     { rd, vs2 }                                                  ["vmv.x.s"]                               (rd: X, vs2: V);
    VMvSX     { vd, rs1 }                                                  ["vmv.s.x"]                               (vd: V, rs1: X);
}

/// The mnemonic → blank instruction map [`parse`] looks names up in.
fn names() -> &'static HashMap<Box<str>, Inst> {
    static NAMES: OnceLock<HashMap<Box<str>, Inst>> = OnceLock::new();
    NAMES.get_or_init(|| {
        blanks()
            .into_iter()
            .map(|inst| (mnemonic(&inst).into(), inst))
            .collect()
    })
}

fn mnemonic(inst: &Inst) -> String {
    let mut text = inst.to_string();
    text.truncate(text.find(' ').unwrap_or(text.len()));
    text
}

/// Every mnemonic the table prints, in no particular order.
pub fn mnemonics() -> impl Iterator<Item = &'static str> {
    names().keys().map(|name| &**name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mnemonic_is_printed_once() {
        let blanks = blanks();
        assert_eq!(names().len(), blanks.len(), "a name is printed twice");
        assert_eq!(blanks.len(), 192);
    }

    #[test]
    fn integers_fit_their_field_or_are_refused() {
        assert_eq!(parse_int("-0x8000000000000000", 64), Some(i64::MIN));
        assert_eq!(parse_int("0xffffffffffffffff", 64), Some(-1));
        assert_eq!(parse_int("0x10000000000000000", 64), None);
        assert_eq!(parse_int("0xffffffff", 32), Some(-1));
        assert_eq!(parse_int("-0x80000000", 32), Some(i32::MIN as i64));
        assert_eq!(parse_int("4294967296", 32), None);
        assert_eq!(parse_int("-2147483649", 32), None);
        assert_eq!(parse_int("0b101", 8), Some(5));
        assert_eq!(parse_int("255", 8), Some(-1));
        assert_eq!(parse_int("256", 8), None);
        assert_eq!(parse_int("-129", 8), None);
        assert_eq!(parse_int("", 8), None);
        assert_eq!(parse_int("--1", 8), None);
    }

    #[test]
    fn operands_are_read_by_their_slots() {
        let ld = parse("ld", &["a0", " -8(sp) "]).unwrap();
        assert_eq!(ld.to_string(), "ld a0, -8(sp)");
        assert_eq!(
            parse("vsetvli", &["t0", "a0", "e32", "m2"])
                .unwrap()
                .to_string(),
            "vsetvli t0, a0, e32, m2, ta, ma"
        );
        assert_eq!(parse("frob", &[]), Err(SyntaxError::UnknownMnemonic));
        assert_eq!(parse("ecall", &["a0"]), Err(SyntaxError::ExtraOperands));
        assert_eq!(
            parse("add", &["a0", "a1"]),
            Err(SyntaxError::BadOperand {
                index: 3,
                expected: "an x register"
            })
        );
        assert_eq!(
            parse("vadd.vi", &["v1", "v2", "256"]),
            Err(SyntaxError::BadOperand {
                index: 3,
                expected: "the register or 8-bit integer the form names"
            })
        );
    }
}
