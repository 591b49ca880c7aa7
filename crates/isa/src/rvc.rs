//! The compressed (RVC) forms: one row per form, and both
//! [`decode_compressed`] and [`encode_compressed`] generated from it.
//!
//! A row is
//!
//! ```text
//! "name" (quadrant, funct3) (mask, bits) slot-A slot-B immediate hole => Form [sources] "One-line doc.";
//! ```
//!
//! * `(quadrant, funct3)` and `(mask, bits)` are the form's fixed bits: the
//!   group every form has, then whatever else it pins (`funct2`, bit 12,
//!   `rs2 = 0`, a fixed `rd`, a whole word).
//! * A `Slot` is a register operand field — five bits, or the three-bit
//!   `x8..x15` window — together with the registers the form excludes there.
//! * The immediate is a `Perm` — the codec the 32-bit table uses too, in
//!   [`bits`](crate::bits): where each run of immediate bits sits in the
//!   halfword, and the width it is sign-extended from. An `ImmHole`
//!   excludes zero where the form does.
//! * The expansion is the canonical [`Inst`] the form stands for: a
//!   `Form` (constructor and kind) and, per register operand of that
//!   constructor, the `Src` it comes from — slot A, slot B or a fixed
//!   register.
//!
//! Decoding matches the fixed bits, reads the slots, gathers the immediate,
//! checks the holes and builds the expansion. Encoding takes the
//! instruction apart into the same `(Form, registers, immediate)`, and for
//! each row of that form unifies the registers with the sources, checks the
//! holes, scatters the immediate and accepts iff gathering it back returns
//! the value it started from — so a form's range, alignment and sign rules
//! are properties of its permutation, not a condition written beside it.
//!
//! Row order is the decode tie-break within a `(quadrant, funct3)` group
//! and the encode priority within a form: `c.addi` precedes `c.addi16sp`,
//! so `addi sp, sp, 16` compresses to the former. Both functions are one
//! `match` whose guarded arms are the rows, each a constant its arm's
//! helpers fold to the shifts and masks a hand-written arm would hold.
//!
//! Decoding is a `const fn` (so are the slot, permutation and expansion
//! helpers it calls), and the compiler runs it over all 49,152 compressed
//! halfwords into `EXPANSIONS`, a static table of `Option<Inst>`:
//! [`decode`](crate::decode()) reads a halfword's expansion with one load.
//! The table is computed from the rows, not written beside them, so it has
//! no second source of truth to drift from. In program order the `match`'s
//! branches on the halfword mispredict: a compressed word of the
//! `launch_cold` benchmark programs took 8.0 ns through it and takes 4.4
//! through the table (warm loop, 2-vCPU AMD EPYC host).

use crate::bits::{consts, field, Perm};
use crate::decode::DecodeError;
use crate::inst::Inst;
use crate::kinds::BranchKind::{Beq, Bne};
use crate::kinds::LoadKind::{Ld, Lw};
use crate::kinds::OpImmKind::{Addi, Addiw, Andi, Slli, Srai, Srli};
use crate::kinds::OpKind::{Add, Addw, And, Or, Sub, Subw, Xor};
use crate::kinds::StoreKind::{Sd, Sw};
use crate::kinds::{BranchKind, LoadKind, OpImmKind, OpKind, StoreKind};
use crate::reg::XReg;
use Form::*;
use ImmHole::*;
use Src::*;

/// A register operand field of a compressed form: its lowest bit; its width
/// (5 for a full register number, 3 for the `x8..x15` window, 0 when the
/// form has no such operand); and the registers the form excludes there
/// (reserved, HINT or another form), as a bit set over register indices.
#[derive(Debug, Clone, Copy)]
struct Slot(u32, u32, u32);

consts! { Slot:
    NONE         = Slot(0, 0, 0)               => "No such operand.";
    R7_NOT_X0    = Slot(7, 5, 1 << 0)          => "`rd` / `rs1` at bits 11:7; every form there reserves `x0` or makes it a HINT.";
    R7_NOT_X0_SP = Slot(7, 5, 1 << 0 | 1 << 2) => "The same in `c.lui`, where `rd = sp` is `c.addi16sp`.";
    R2           = Slot(2, 5, 0)               => "`rs2` at bits 6:2.";
    R2_NOT_X0    = Slot(2, 5, 1 << 0)          => "The same where `x0` selects `c.jr` / `c.jalr` / `c.ebreak` or a HINT.";
    W7           = Slot(7, 3, 0)               => "`rd'` / `rs1'` at bits 9:7.";
    W2           = Slot(2, 3, 0)               => "`rd'` / `rs2'` at bits 4:2.";
}

impl Slot {
    /// The register `word` names here, unless the form excludes it.
    #[inline(always)]
    const fn read(self, word: u16) -> Option<XReg> {
        let Slot(lo, bits, excluded) = self;
        let raw = field(word as u32, lo, bits) as u8;
        let reg = if bits == 3 {
            XReg::of_compressed(raw)
        } else {
            XReg::of(raw)
        };
        if excluded >> reg.index() & 1 == 0 {
            Some(reg)
        } else {
            None
        }
    }

    /// The field bits that name `reg`, unless the field cannot.
    #[inline(always)]
    fn place(self, reg: XReg) -> Option<u16> {
        let Slot(lo, bits, excluded) = self;
        let raw = match bits {
            0 => 0,
            3 if reg.is_compressed_addressable() => reg.index() - 8,
            5 => reg.index(),
            _ => return None,
        };
        (excluded >> reg.index() & 1 == 0).then_some((raw as u16) << lo)
    }
}

// Each beside the spec's name for the bits, high to low in the halfword.
consts! { Perm:
    NO_IMM   = Perm(0, &[])                                                        => "Gathers 0, so only an expansion immediate of 0 encodes.";
    CIW      = Perm(0, &[(6, 1, 2), (5, 1, 3), (11, 2, 4), (7, 4, 6)])             => "`nzuimm[5:4|9:6|2|3]` of `c.addi4spn`.";
    CLS_W    = Perm(0, &[(6, 1, 2), (10, 3, 3), (5, 1, 6)])                        => "`uimm[5:3]`, `uimm[2|6]` of `c.lw` / `c.sw`.";
    CLS_D    = Perm(0, &[(10, 3, 3), (5, 2, 6)])                                   => "`uimm[5:3]`, `uimm[7:6]` of `c.ld` / `c.sd`.";
    CI       = Perm(6, &[(2, 5, 0), (12, 1, 5)])                                   => "`imm[5]`, `imm[4:0]`: the signed CI immediate.";
    SHAMT    = Perm(0, CI.1)                                                       => "`shamt[5]`, `shamt[4:0]`: the same bits as a shift amount.";
    ADDI16SP = Perm(10, &[(6, 1, 4), (2, 1, 5), (5, 1, 6), (3, 2, 7), (12, 1, 9)]) => "`nzimm[9]`, `nzimm[4|6|8:7|5]` of `c.addi16sp`.";
    CJ       = Perm(12, &[(3, 3, 1), (11, 1, 4), (2, 1, 5), (7, 1, 6), (6, 1, 7), (9, 2, 8), (8, 1, 10), (12, 1, 11)]) => "`imm[11|4|9:8|10|6|7|3:1|5]` of `c.j`.";
    CB       = Perm(9, &[(3, 2, 1), (10, 2, 3), (2, 1, 5), (5, 2, 6), (12, 1, 8)]) => "`imm[8|4:3]`, `imm[7:6|2:1|5]` of `c.beqz` / `c.bnez`.";
    LWSP     = Perm(0, &[(4, 3, 2), (12, 1, 5), (2, 2, 6)])                        => "`uimm[5]`, `uimm[4:2|7:6]` of `c.lwsp`.";
    LDSP     = Perm(0, &[(5, 2, 3), (12, 1, 5), (2, 3, 6)])                        => "`uimm[5]`, `uimm[4:3|8:6]` of `c.ldsp`.";
    SWSP     = Perm(0, &[(9, 4, 2), (7, 2, 6)])                                    => "`uimm[5:2|7:6]` of `c.swsp`.";
    SDSP     = Perm(0, &[(10, 3, 3), (7, 3, 6)])                                   => "`uimm[5:3|8:6]` of `c.sdsp`.";
}

/// Which immediates a form excludes beyond what its permutation cannot hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ImmHole {
    /// None.
    Any,
    /// Zero is reserved, a HINT, or another form.
    NonZero,
    /// Zero is a HINT the decoder nevertheless accepts and the encoder
    /// never emits: `c.addi rd, 0`, the one HINT this model executes.
    /// Making it [`NonZero`] (or [`Any`]) moves `smile::valid_p3_lo12`.
    ZeroDecodesOnly,
}

/// Where a register operand of the expansion comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    A,
    B,
    X0,
    RA,
    SP,
}

impl Src {
    /// The register this source gives when the slots hold `a` and `b`.
    #[inline(always)]
    const fn reg(self, a: XReg, b: XReg) -> XReg {
        match self {
            A => a,
            B => b,
            X0 => XReg::ZERO,
            RA => XReg::RA,
            SP => XReg::SP,
        }
    }
}

/// Generates [`Form`] — the constructor and kind of a form's canonical
/// expansion — with [`build`] and its inverse [`parts`] from one row per
/// [`Inst`] constructor some form expands to. A row's braces are that
/// constructor's fields, read as an expression by the one and as a pattern
/// by the other: the register operands are `x`, `y`, `z` in declaration
/// order and the immediate is `imm`.
macro_rules! forms {
    ([$x:ident, $y:ident, $z:ident, $imm:ident] $($form:ident $(($kind:ident: $Kind:ty))? => $fields:tt;)+) => {
        /// The constructor and kind of a form's canonical expansion.
        #[derive(Debug, Clone, Copy)]
        enum Form { $($form $(($Kind))?),+ }

        /// The expansion `form` with its registers and immediate filled in.
        #[inline(always)]
        const fn build(form: Form, [$x, $y, $z]: [XReg; 3], $imm: i32) -> Inst {
            match form { $($form $(($kind))? => Inst::$form $fields,)+ }
        }

        /// The inverse of [`build`]; `None` for a constructor no form
        /// expands to. Operands a constructor lacks read as `x0` / 0,
        /// which is what the rows' `X0` sources and [`NO_IMM`] expect.
        #[inline(always)]
        fn parts(inst: &Inst) -> Option<(Form, [XReg; 3], i32)> {
            let ($x, $y, $z, $imm) = (XReg::ZERO, XReg::ZERO, XReg::ZERO, 0);
            Some(match *inst {
                $(Inst::$form $fields => ($form $(($kind))?, [$x, $y, $z], $imm),)+
                _ => return None,
            })
        }
    };
}

forms! { [x, y, z, imm]
    OpImm(kind: OpImmKind)   => { kind, rd: x, rs1: y, imm };
    Lui                      => { rd: x, imm20: imm };
    Load(kind: LoadKind)     => { kind, rd: x, rs1: y, offset: imm };
    Store(kind: StoreKind)   => { kind, rs1: x, rs2: y, offset: imm };
    Op(kind: OpKind)         => { kind, rd: x, rs1: y, rs2: z };
    Jal                      => { rd: x, offset: imm };
    Jalr                     => { rd: x, rs1: y, offset: imm };
    Branch(kind: BranchKind) => { kind, rs1: x, rs2: y, offset: imm };
    Ebreak                   => {};
}

/// One compressed form; see the module docs for the columns.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The form's assembler name (`c.addi16sp`).
    pub name: &'static str,
    /// What the form expands to, and what its holes are.
    pub doc: &'static str,
    /// `(quadrant, funct3)`.
    group: (u16, u16),
    /// `(mask, bits)` of what the form fixes beyond its group.
    fixed: (u16, u16),
    a: Slot,
    b: Slot,
    imm: Perm,
    hole: ImmHole,
    form: Form,
    srcs: [Src; 3],
}

impl Row {
    /// The expansion of `word`, if it is an accepted word of this form.
    /// The group is compared the way [`decode_compressed`] matches it, so
    /// that inside a row's arm there the comparison folds away.
    #[inline(always)]
    pub const fn decode(self, word: u16) -> Option<Inst> {
        let ((quadrant, funct3), (mask, bits)) = (self.group, self.fixed);
        if word & 0b11 != quadrant || word >> 13 != funct3 || word & mask != bits {
            return None;
        }
        let (Some(a), Some(b)) = (self.a.read(word), self.b.read(word)) else {
            return None;
        };
        let imm = self.imm.gather(word as u32);
        if imm == 0 && matches!(self.hole, NonZero) {
            return None;
        }
        Some(build(self.form, self.regs(a, b), imm))
    }

    /// The expansion's registers when the slots hold `a` and `b`.
    #[inline(always)]
    const fn regs(self, a: XReg, b: XReg) -> [XReg; 3] {
        let [x, y, z] = self.srcs;
        [x.reg(a, b), y.reg(a, b), z.reg(a, b)]
    }

    /// The word of this form that expands to `build(self.form, regs, imm)`,
    /// if there is one.
    #[inline(always)]
    fn encode(self, regs: [XReg; 3], imm: i32) -> Option<u16> {
        // A slot holds the first register its source stands for; the form
        // applies iff every register is then what the sources give.
        let first = |slot| match self.srcs.iter().position(|&src| src == slot) {
            Some(i) => regs[i],
            None => XReg::ZERO,
        };
        let (a, b) = (first(A), first(B));
        if self.regs(a, b) != regs || imm == 0 && self.hole != Any {
            return None;
        }
        let ((quadrant, funct3), (_, bits)) = (self.group, self.fixed);
        let fixed = funct3 << 13 | quadrant | bits;
        let word = fixed | self.a.place(a)? | self.b.place(b)? | self.imm.scatter(imm) as u16;
        (self.imm.gather(word as u32) == imm).then_some(word)
    }
}

/// Generates [`decode_compressed`], [`encode_compressed`] and [`ROWS`]
/// from the table; see the module docs for the row schema.
macro_rules! rvc {
    ($(
        $name:literal ($quadrant:literal, $funct3:literal) $fixed:tt $a:ident $b:ident $imm:ident $hole:ident
            => $form:ident $(($kind:ident))? [$($src:ident),+] $doc:literal;
    )+) => {
        /// Decodes a compressed (RVC) 16-bit word into its canonical
        /// expansion. Total: a word no row accepts — reserved, HINT,
        /// outside the modelled subset, or not a 16-bit encoding at all
        /// (`bits[1:0] = 11`) — is [`DecodeError::Unrecognized`].
        ///
        /// [`decode`](crate::decode()) does not call this: it reads the
        /// table this function fills at compile time (see the module docs).
        pub const fn decode_compressed(word: u16) -> Result<Inst, DecodeError> {
            match (word & 0b11, word >> 13) {
                $(($quadrant, $funct3)
                    if let Some(inst) = rvc!(@row $name $quadrant $funct3 $fixed $a $b $imm $hole
                        $form $(($kind))? [$($src),+] $doc).decode(word) => Ok(inst),)+
                _ => Err(DecodeError::Unrecognized(word as u32)),
            }
        }

        /// Encodes an instruction into a compressed (RVC) 16-bit word if
        /// some modelled form (real RV64C less the floating-point loads and
        /// stores) expands to exactly it, else `None`.
        pub fn encode_compressed(inst: &Inst) -> Option<u16> {
            let (form, regs, imm) = parts(inst)?;
            match form {
                $($form $(($kind))?
                    if let Some(word) = rvc!(@row $name $quadrant $funct3 $fixed $a $b $imm $hole
                        $form $(($kind))? [$($src),+] $doc).encode(regs, imm) => Some(word),)+
                _ => None,
            }
        }

        /// Every row, in table order.
        pub const ROWS: &[Row] = &[$(rvc!(@row $name $quadrant $funct3 $fixed $a $b $imm $hole
            $form $(($kind))? [$($src),+] $doc)),+];
    };
    (@row $name:literal $quadrant:literal $funct3:literal $fixed:tt $a:ident $b:ident $imm:ident
        $hole:ident $form:ident $(($kind:ident))? [$($src:ident),+] $doc:literal) => {{
        const ROW: Row = Row {
            name: $name,
            doc: $doc,
            group: ($quadrant, $funct3),
            fixed: $fixed,
            a: $a,
            b: $b,
            imm: $imm,
            hole: $hole,
            form: $form $(($kind))?,
            srcs: [$($src),+],
        };
        ROW
    }};
}

/// No fixed bits beyond `(quadrant, funct3)`.
const REST: (u16, u16) = (0, 0);
/// The whole word is fixed; the second field is bit 12.
const WORD: u16 = 0x1ffc;

rvc! {
//  name         (q,    funct3) (mask,   bits)    slot A        slot B     immediate hole               expansion
    "c.addi4spn" (0b00, 0b000) REST               W2            NONE       CIW       NonZero         => OpImm(Addi)  [A, SP, X0]  "`addi rd', sp, nzuimm`; the all-zero word is its `nzuimm = 0` hole.";
    "c.lw"       (0b00, 0b010) REST               W2            W7         CLS_W     Any             => Load(Lw)     [A, B, X0]   "`lw rd', uimm(rs1')`.";
    "c.ld"       (0b00, 0b011) REST               W2            W7         CLS_D     Any             => Load(Ld)     [A, B, X0]   "`ld rd', uimm(rs1')`.";
    "c.sw"       (0b00, 0b110) REST               W2            W7         CLS_W     Any             => Store(Sw)    [B, A, X0]   "`sw rs2', uimm(rs1')`.";
    "c.sd"       (0b00, 0b111) REST               W2            W7         CLS_D     Any             => Store(Sd)    [B, A, X0]   "`sd rs2', uimm(rs1')`.";
    "c.nop"      (0b01, 0b000) (WORD, 0)          NONE          NONE       NO_IMM    Any             => OpImm(Addi)  [X0, X0, X0] "`addi x0, x0, 0`: the one word of `c.addi x0`; the rest are HINTs.";
    "c.addi"     (0b01, 0b000) REST               R7_NOT_X0     NONE       CI        ZeroDecodesOnly => OpImm(Addi)  [A, A, X0]   "`addi rd, rd, nzimm`; `imm = 0` is a HINT decoded but never emitted.";
    "c.addiw"    (0b01, 0b001) REST               R7_NOT_X0     NONE       CI        Any             => OpImm(Addiw) [A, A, X0]   "`addiw rd, rd, imm`; `rd = x0` is reserved.";
    "c.li"       (0b01, 0b010) REST               R7_NOT_X0     NONE       CI        Any             => OpImm(Addi)  [A, X0, X0]  "`addi rd, x0, imm`; `rd = x0` is a HINT.";
    "c.addi16sp" (0b01, 0b011) (0x0f80, 0x0100)   NONE          NONE       ADDI16SP  NonZero         => OpImm(Addi)  [SP, SP, X0] "`addi sp, sp, nzimm` (`rd = sp` fixed); `nzimm = 0` is reserved.";
    "c.lui"      (0b01, 0b011) REST               R7_NOT_X0_SP  NONE       CI        NonZero         => Lui          [A, X0, X0]  "`lui rd, nzimm`; `nzimm = 0` is reserved, `rd = x0` a HINT.";
    "c.srli"     (0b01, 0b100) (0x0c00, 0x0000)   W7            NONE       SHAMT     NonZero         => OpImm(Srli)  [A, A, X0]   "`srli rd', rd', shamt`; `shamt = 0` is a HINT.";
    "c.srai"     (0b01, 0b100) (0x0c00, 0x0400)   W7            NONE       SHAMT     NonZero         => OpImm(Srai)  [A, A, X0]   "`srai rd', rd', shamt`; `shamt = 0` is a HINT.";
    "c.andi"     (0b01, 0b100) (0x0c00, 0x0800)   W7            NONE       CI        Any             => OpImm(Andi)  [A, A, X0]   "`andi rd', rd', imm`.";
    "c.sub"      (0b01, 0b100) (0x1c60, 0x0c00)   W7            W2         NO_IMM    Any             => Op(Sub)      [A, A, B]    "`sub rd', rd', rs2'`.";
    "c.xor"      (0b01, 0b100) (0x1c60, 0x0c20)   W7            W2         NO_IMM    Any             => Op(Xor)      [A, A, B]    "`xor rd', rd', rs2'`.";
    "c.or"       (0b01, 0b100) (0x1c60, 0x0c40)   W7            W2         NO_IMM    Any             => Op(Or)       [A, A, B]    "`or rd', rd', rs2'`.";
    "c.and"      (0b01, 0b100) (0x1c60, 0x0c60)   W7            W2         NO_IMM    Any             => Op(And)      [A, A, B]    "`and rd', rd', rs2'`.";
    "c.subw"     (0b01, 0b100) (0x1c60, 0x1c00)   W7            W2         NO_IMM    Any             => Op(Subw)     [A, A, B]    "`subw rd', rd', rs2'`.";
    "c.addw"     (0b01, 0b100) (0x1c60, 0x1c20)   W7            W2         NO_IMM    Any             => Op(Addw)     [A, A, B]    "`addw rd', rd', rs2'`; the other two bit-12 rows are reserved.";
    "c.j"        (0b01, 0b101) REST               NONE          NONE       CJ        Any             => Jal          [X0, X0, X0] "`jal x0, offset`.";
    "c.beqz"     (0b01, 0b110) REST               W7            NONE       CB        Any             => Branch(Beq)  [A, X0, X0]  "`beq rs1', x0, offset`.";
    "c.bnez"     (0b01, 0b111) REST               W7            NONE       CB        Any             => Branch(Bne)  [A, X0, X0]  "`bne rs1', x0, offset`.";
    "c.slli"     (0b10, 0b000) REST               R7_NOT_X0     NONE       SHAMT     NonZero         => OpImm(Slli)  [A, A, X0]   "`slli rd, rd, shamt`; `rd = x0` and `shamt = 0` are HINTs.";
    "c.lwsp"     (0b10, 0b010) REST               R7_NOT_X0     NONE       LWSP      Any             => Load(Lw)     [A, SP, X0]  "`lw rd, uimm(sp)`; `rd = x0` is reserved.";
    "c.ldsp"     (0b10, 0b011) REST               R7_NOT_X0     NONE       LDSP      Any             => Load(Ld)     [A, SP, X0]  "`ld rd, uimm(sp)`; `rd = x0` is reserved.";
    "c.jr"       (0b10, 0b100) (0x107c, 0x0000)   R7_NOT_X0     NONE       NO_IMM    Any             => Jalr         [X0, A, X0]  "`jalr x0, 0(rs1)` (`rs2 = 0` fixed); `rs1 = x0` is reserved.";
    "c.mv"       (0b10, 0b100) (0x1000, 0x0000)   R7_NOT_X0     R2_NOT_X0  NO_IMM    Any             => Op(Add)      [A, X0, B]   "`add rd, x0, rs2`; `rd = x0` is a HINT.";
    "c.ebreak"   (0b10, 0b100) (WORD, 0x1000)     NONE          NONE       NO_IMM    Any             => Ebreak       [X0, X0, X0] "`ebreak`: the one word of `c.jalr x0`.";
    "c.jalr"     (0b10, 0b100) (0x107c, 0x1000)   R7_NOT_X0     NONE       NO_IMM    Any             => Jalr         [RA, A, X0]  "`jalr ra, 0(rs1)` (`rs2 = 0` fixed).";
    "c.add"      (0b10, 0b100) (0x1000, 0x1000)   R7_NOT_X0     R2_NOT_X0  NO_IMM    Any             => Op(Add)      [A, A, B]    "`add rd, rd, rs2`; `rd = x0` is a HINT.";
    "c.swsp"     (0b10, 0b110) REST               R2            NONE       SWSP      Any             => Store(Sw)    [SP, A, X0]  "`sw rs2, uimm(sp)`.";
    "c.sdsp"     (0b10, 0b111) REST               R2            NONE       SDSP      Any             => Store(Sd)    [SP, A, X0]  "`sd rs2, uimm(sp)`.";
}

/// The number of compressed halfwords: quadrants 0–2, 14 bits above each.
const HALFWORDS: usize = 3 << 14;

/// The position of compressed `word` in [`EXPANSIONS`]: its quadrant above
/// the 14 bits over it, so that quadrant 3 (`bits[1:0] = 11`) is past the
/// end.
#[inline(always)]
const fn position(word: u16) -> usize {
    ((word & 0b11) as usize) << 14 | (word >> 2) as usize
}

/// [`decode_compressed`] of every compressed halfword, by [`position`],
/// evaluated while compiling: the rows stay the one source of truth, and
/// [`decode`](crate::decode()) pays one load where the `match` branches on
/// the halfword's bits. 384 KiB of read-only data; a process maps the
/// pages its code's halfwords touch.
static EXPANSIONS: [Option<Inst>; HALFWORDS] = {
    let mut table = [None; HALFWORDS];
    let mut i = 0;
    while i < HALFWORDS {
        let word = ((i & 0x3fff) << 2 | i >> 14) as u16;
        table[i] = match decode_compressed(word) {
            Ok(inst) => Some(inst),
            Err(_) => None,
        };
        i += 1;
    }
    table
};

/// The expansion of compressed `word` (`bits[1:0] != 11`), from
/// [`EXPANSIONS`]: `decode_compressed(word).ok()`.
#[inline(always)]
pub(crate) fn expansion(word: u16) -> Option<Inst> {
    EXPANSIONS[position(word)]
}
