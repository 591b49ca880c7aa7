//! The 32-bit instruction shapes: one row per [`Inst`] constructor, and
//! both the 32-bit half of [`decode`](crate::decode()) and [`encode`]
//! generated from it, as [`crate::rvc`] does for the compressed forms.
//!
//! A row is
//!
//! ```text
//! Shape opcode [FIXED = value, …; CANONICAL = value, …] { field: codec, … } if guard;
//! ```
//!
//! * `opcode` is the major opcode the row's `match` arm is on. A
//!   parenthesized list (`(OP | OP_32)`) leaves the opcode bits to the
//!   kind key, which carries them; such a row's arm matches any opcode and
//!   tests the list first, because a guarded or-pattern arm is compiled
//!   once per alternative (that doubled the kind lookups' code), and these
//!   rows come last so the single-opcode arms stay one jump table.
//! * The fixed fields are the other bits the shape pins: decoding requires
//!   them, encoding emits them.
//! * The canonical fields are bits decoding ignores and encoding emits: the
//!   F/D rows' rounding mode (the dynamic one), and `fence`'s `fm` / `pred`
//!   / `succ` (the strongest fence; its `rd` and `rs1` encode as zero).
//! * One codec per field of the constructor: a register slot `X` / `F` /
//!   `V` at a bit position; `Key`, the kind's own key through
//!   `from_encoding()` / `encoding()` (where each family's key sits in the
//!   word is stated once, in `keys!`); an immediate `Perm` (I, S, B, U, J
//!   and the shift amounts, each beside the spec's bit names in
//!   [`bits`](crate::bits)); or a `Tab` of the few values a width, element
//!   width or sign takes.
//! * An optional guard over the fields that decoding checks and encoding
//!   does not: `VArith`'s source form and `vmv.v.*`'s `vs2 = v0`.
//!
//! Decoding matches the fixed bits, has every codec read its field — any
//! may refuse — checks the guard and builds the instruction. Encoding ORs
//! the fixed and canonical bits with every codec's bits and accepts iff
//! each field that can lose bits gathers back the value it started from:
//! an immediate (`MisalignedOffset` when the value has bits below the
//! permutation's lowest run, else `ImmOutOfRange`), `imm5` and `vtype`.
//! A register or kind field always gathers back.
//!
//! Row order is the decode tie-break within an opcode: `OpImm` and `Op`
//! before `Unary`, whose rows sit in their gaps, and `FLoad` / `FStore`
//! before the vector rows. Both functions are one `match` whose guarded arms are the
//! rows, each a constant its arm's `#[inline(always)]` helpers fold to the
//! shifts and masks a hand-written arm would hold.

use crate::bits::{consts, Perm, B, I, IMM5, J, S, SHAMT5, SHAMT6, U};
use crate::decode::DecodeError;
use crate::encode::EncodeError;
use crate::inst::{Eew, FpWidth, Inst, IntWidth, VSrc, VType};
use crate::kinds::*;
use crate::reg::{FReg, VReg, XReg};

/// A run of word bits: its lowest bit and its width.
#[derive(Debug, Clone, Copy)]
struct Bits(u32, u32);

impl Bits {
    #[inline(always)]
    const fn read(self, word: u32) -> u32 {
        word >> self.0 & ((1 << self.1) - 1)
    }

    #[inline(always)]
    const fn place(self, value: u32) -> u32 {
        (value & ((1 << self.1) - 1)) << self.0
    }
}

consts! { Bits:
    OPCODE = Bits(0, 7)   => "`opcode`.";
    RD     = Bits(7, 5)   => "`rd`; `vd` / `vs3` in vector rows.";
    FUNCT3 = Bits(12, 3)  => "`funct3`: a kind key, a width, or the rounding mode `rm`.";
    RS1    = Bits(15, 5)  => "`rs1`; `vs1` / the scalar / `imm5` in `OP-V`.";
    RS2    = Bits(20, 5)  => "`rs2`; `vs2`, a `lumop` / `sumop`, or an `OP-FP` selector.";
    SEL_HI = Bits(22, 3)  => "The selector bits above an FP↔integer conversion's width and sign.";
    IMM12  = Bits(20, 12) => "`imm[11:0]` as raw bits (`fence`'s `fm` / `pred` / `succ`).";
    ZIMM   = Bits(20, 11) => "`vsetvli`'s `zimm[10:0]`: the `vtype` field.";
    FUNCT7 = Bits(25, 7)  => "`funct7`; `nf` / `mew` / `mop` / `vm` in vector memory rows.";
    FMT    = Bits(25, 2)  => "`fmt` of the F/D rows.";
    VM     = Bits(25, 1)  => "`vm` of `OP-V`: 1 is unmasked, the only form modelled.";
    FUNCT6 = Bits(26, 6)  => "`funct6` of `OP-V`.";
    FUNCT5 = Bits(27, 5)  => "`funct5` of `OP-FP`.";
    RS3    = Bits(27, 5)  => "`rs3` of the fused multiply-adds.";
    BIT31  = Bits(31, 1)  => "Bit 31: 0 selects `vsetvli` among the `vset*` forms.";
}

/// The `(mask, bits)` of `fields` set to their values.
const fn fixed(fields: &[(Bits, u32)]) -> (u32, u32) {
    let (mut mask, mut bits, mut i) = (0, 0, 0);
    while i < fields.len() {
        let (at, value) = fields[i];
        mask |= at.place(u32::MAX);
        bits |= at.place(value);
        i += 1;
    }
    (mask, bits)
}

/// How one field of a constructor sits in the word.
trait Codec<T>: Copy {
    /// The value `word` carries here, unless no value encodes as these bits.
    fn get(self, word: u32) -> Option<T>;

    /// The bits that carry `value`.
    fn put(self, value: T) -> u32;

    /// Whether `word`, which holds [`Codec::put`]'s bits for `value`, gives
    /// `value` back; only a codec that can lose bits checks.
    #[inline(always)]
    fn check(self, _word: u32, _value: T, _what: &'static str) -> Result<(), EncodeError> {
        Ok(())
    }
}

/// Generates a register slot codec per register file.
macro_rules! slots {
    ($($Slot:ident: $Reg:ident;)+) => {$(
        #[doc = concat!("A `", stringify!($Reg), "` field at a bit position.")]
        #[derive(Debug, Clone, Copy)]
        struct $Slot(Bits);

        impl Codec<$Reg> for $Slot {
            #[inline(always)]
            fn get(self, word: u32) -> Option<$Reg> {
                Some($Reg::of(self.0.read(word) as u8))
            }

            #[inline(always)]
            fn put(self, reg: $Reg) -> u32 {
                self.0.place(reg.index() as u32)
            }
        }
    )+};
}

slots! { X: XReg; F: FReg; V: VReg; }

/// A kind field: the family's `encoding()` key, where [`keys!`] puts it.
#[derive(Debug, Clone, Copy)]
struct Key;

/// States, once per kind family, where its key sits in the word.
macro_rules! keys {
    ($($Kind:ident: |$word:ident| $get:expr, |$kind:ident| $put:expr;)+) => {$(
        impl Codec<$Kind> for Key {
            #[inline(always)]
            fn get(self, $word: u32) -> Option<$Kind> {
                $get
            }

            #[inline(always)]
            fn put(self, $kind: $Kind) -> u32 {
                $put
            }
        }
    )+};
}

keys! {
    BranchKind: |w| BranchKind::from_encoding(FUNCT3.read(w)), |k| FUNCT3.place(k.encoding());
    LoadKind:   |w| LoadKind::from_encoding(FUNCT3.read(w)),   |k| FUNCT3.place(k.encoding());
    StoreKind:  |w| StoreKind::from_encoding(FUNCT3.read(w)),  |k| FUNCT3.place(k.encoding());
    FCmpKind:   |w| FCmpKind::from_encoding(FUNCT3.read(w)),   |k| FUNCT3.place(k.encoding());
    FMaKind:    |w| FMaKind::from_encoding(OPCODE.read(w)),    |k| k.encoding();
    OpKind: |w| OpKind::from_encoding((OPCODE.read(w), FUNCT3.read(w), FUNCT7.read(w))), |k| {
        let (opcode, funct3, funct7) = k.encoding();
        opcode | FUNCT3.place(funct3) | FUNCT7.place(funct7)
    };
    UnaryKind: |w| UnaryKind::from_encoding((OPCODE.read(w), FUNCT3.read(w), FUNCT7.read(w), RS2.read(w))), |k| {
        let (opcode, funct3, funct7, selector) = k.encoding();
        opcode | FUNCT3.place(funct3) | FUNCT7.place(funct7) | RS2.place(selector)
    };
    // A shift row keys on the immediate bits above its shift amount, every
    // other row on zero.
    OpImmKind: |w| {
        let (opcode, funct3) = (OPCODE.read(w), FUNCT3.read(w));
        let above = shamt_bits(opcode, funct3).map_or(0, |bits| w >> (20 + bits));
        OpImmKind::from_encoding((opcode, funct3, above))
    }, |k| {
        let (opcode, funct3, above) = k.encoding();
        opcode | FUNCT3.place(funct3) | above << (20 + k.shamt_bits().unwrap_or(0))
    };
    // A row whose `funct3` is `RM_DYN` has the rounding mode there: any
    // value decodes.
    FOpKind: |w| {
        let funct5 = FUNCT5.read(w);
        FOpKind::from_encoding((funct5, FUNCT3.read(w))).or(FOpKind::from_encoding((funct5, RM_DYN)))
    }, |k| {
        let (funct5, funct3) = k.encoding();
        FUNCT5.place(funct5) | FUNCT3.place(funct3)
    };
    // The category is the `.vv` form's `funct3`: the scalar forms set its
    // bit 2 (see `Src`), and `OPIVI` is integer.
    VArithOp: |w| {
        let funct3 = FUNCT3.read(w);
        let category = if funct3 == OPIVI { OPI } else { funct3 & 0b011 };
        VArithOp::from_encoding((FUNCT6.read(w), category))
    }, |k| {
        let (funct6, category) = k.encoding();
        FUNCT6.place(funct6) | FUNCT3.place(category)
    };
}

/// A field that takes a few values, each with its bits.
#[derive(Debug, Clone, Copy)]
struct Tab<T: 'static>(Bits, &'static [(u32, T)]);

impl<T: Copy + PartialEq> Codec<T> for Tab<T> {
    #[inline(always)]
    fn get(self, word: u32) -> Option<T> {
        let raw = self.0.read(word);
        self.1.iter().find(|e| e.0 == raw).map(|e| e.1)
    }

    #[inline(always)]
    fn put(self, value: T) -> u32 {
        self.1
            .iter()
            .find(|e| e.1 == value)
            .map_or(0, |e| self.0.place(e.0))
    }
}

consts! { Tab<FpWidth>:
    WIDTH    = Tab(FMT, &[(0b00, FpWidth::S), (0b01, FpWidth::D)])             => "`fmt`: S or D; H and Q are outside the subset.";
    LS_WIDTH = Tab(FUNCT3, &[(0b010, FpWidth::S), (0b011, FpWidth::D)])        => "`flw` / `fld` (`fsw` / `fsd`) in the `LOAD-FP` (`STORE-FP`) `width` field.";
    CVT_TO   = Tab(Bits(20, 7), &[(0b00_00001, FpWidth::S), (0b01_00000, FpWidth::D)]) => "`fmt` and `rs2` of `fcvt.s.d` (`fmt` S from D) and `fcvt.d.s`.";
}
consts! { Tab<Eew>:
    EEW = Tab(FUNCT3, &[(0b000, Eew::E8), (0b101, Eew::E16), (0b110, Eew::E32), (0b111, Eew::E64)]) => "The vector memory `width` field.";
}
consts! { Tab<IntWidth>:
    INT_WIDTH = Tab(Bits(21, 1), &[(0, IntWidth::W), (1, IntWidth::L)]) => "The width bit of an FP↔integer conversion's selector.";
}
consts! { Tab<bool>:
    SIGNED = Tab(Bits(20, 1), &[(0, true), (1, false)]) => "The unsigned bit of an FP↔integer conversion's selector.";
}

impl Codec<i32> for Perm {
    #[inline(always)]
    fn get(self, word: u32) -> Option<i32> {
        Some(self.gather(word))
    }

    #[inline(always)]
    fn put(self, imm: i32) -> u32 {
        self.scatter(imm)
    }

    #[inline(always)]
    fn check(self, word: u32, imm: i32, what: &'static str) -> Result<(), EncodeError> {
        if self.gather(word) == imm {
            Ok(())
        } else {
            Err(self.refusal(imm, what))
        }
    }
}

/// The `OP-IMM` / `OP-IMM-32` immediate: a shift amount as wide as
/// [`shamt_bits`] says for the word's opcode and `funct3`, else I. Encoding
/// scatters through I, so a shift amount too wide spills into the key's
/// bits and does not gather back.
#[derive(Debug, Clone, Copy)]
struct ShiftOrI;

impl ShiftOrI {
    #[inline(always)]
    fn perm(word: u32) -> Perm {
        match shamt_bits(OPCODE.read(word), FUNCT3.read(word)) {
            Some(5) => SHAMT5,
            Some(_) => SHAMT6,
            None => I,
        }
    }
}

impl Codec<i32> for ShiftOrI {
    #[inline(always)]
    fn get(self, word: u32) -> Option<i32> {
        Some(Self::perm(word).gather(word))
    }

    #[inline(always)]
    fn put(self, imm: i32) -> u32 {
        I.scatter(imm)
    }

    #[inline(always)]
    fn check(self, word: u32, imm: i32, what: &'static str) -> Result<(), EncodeError> {
        Self::perm(word).check(word, imm, what)
    }
}

/// `VArith`'s second source. Its form is `funct3` together with the
/// operation's category: `.vv` is the category, `.vx` sets bit 2, and
/// `.vf` (`OPFVF`) and `.vi` (`OPIVI`) are whole values. The operand sits
/// in the `vs1` / `rs1` field.
#[derive(Debug, Clone, Copy)]
struct Src;

impl Codec<VSrc> for Src {
    #[inline(always)]
    fn get(self, word: u32) -> Option<VSrc> {
        Some(match FUNCT3.read(word) {
            OPI | OPF | OPM => VSrc::V(V(RS1).get(word)?),
            OPIVI => VSrc::I(IMM5.gather(word) as i8),
            0b101 => VSrc::F(F(RS1).get(word)?),
            0b100 | 0b110 => VSrc::X(X(RS1).get(word)?),
            _ => return None,
        })
    }

    #[inline(always)]
    fn put(self, src: VSrc) -> u32 {
        match src {
            VSrc::V(vs1) => V(RS1).put(vs1),
            VSrc::X(rs1) => FUNCT3.place(0b100) | X(RS1).put(rs1),
            VSrc::F(frs1) => FUNCT3.place(OPF | 0b100) | F(RS1).put(frs1),
            VSrc::I(imm) => FUNCT3.place(OPIVI) | IMM5.scatter(imm as i32),
        }
    }

    #[inline(always)]
    fn check(self, word: u32, src: VSrc, what: &'static str) -> Result<(), EncodeError> {
        match src {
            VSrc::I(imm) => IMM5.check(word, imm as i32, what),
            _ => Ok(()),
        }
    }
}

/// `vsetvli`'s `vtype`, through [`VType::from_bits`] / [`VType::to_bits`].
/// An `lmul` outside 1, 2, 4, 8 does not gather back: it is out of range.
#[derive(Debug, Clone, Copy)]
struct Zimm;

impl Codec<VType> for Zimm {
    #[inline(always)]
    fn get(self, word: u32) -> Option<VType> {
        VType::from_bits(ZIMM.read(word))
    }

    #[inline(always)]
    fn put(self, vtype: VType) -> u32 {
        ZIMM.place(vtype.to_bits())
    }

    #[inline(always)]
    fn check(self, word: u32, vtype: VType, what: &'static str) -> Result<(), EncodeError> {
        if self.get(word) == Some(vtype) {
            Ok(())
        } else {
            let value = vtype.lmul as i64;
            Err(EncodeError::ImmOutOfRange { what, value })
        }
    }
}

/// Generates the 32-bit `decode` and [`encode`] from the table; see the
/// module docs for the row schema.
macro_rules! shapes {
    ($(
        $Shape:ident $opcode:tt [$($fixed:ident = $fv:expr),* $(; $($canon:ident = $cv:expr),+)?]
            { $($field:ident: $codec:expr),* } $(if $guard:expr)?;
    )+) => {
        /// Decodes a 32-bit word: `bits[1:0] = 11`, and not a reserved
        /// longer-encoding prefix. Inlined into its one caller,
        /// [`decode`](crate::decode()): a call boundary here doubles the
        /// cost of decoding an unrecognized opcode.
        #[inline(always)]
        pub(crate) fn decode(word: u32) -> Result<Inst, DecodeError> {
            match word & 0x7f {
                $(shapes!(@pattern $opcode) if let Some(inst) = 'row: {
                    const FIXED: (u32, u32) = fixed(&[$(($fixed, $fv)),*]);
                    if !shapes!(@member word, $opcode) || word & FIXED.0 != FIXED.1 {
                        break 'row None;
                    }
                    $(let Some($field) = Codec::get($codec, word) else {
                        break 'row None;
                    };)*
                    let inst = Inst::$Shape { $($field),* };
                    $(if !$guard {
                        break 'row None;
                    })?
                    Some(inst)
                } => Ok(inst),)+
                _ => Err(DecodeError::Unrecognized(word)),
            }
        }

        /// Encodes an instruction into its canonical 32-bit machine word.
        pub fn encode(inst: &Inst) -> Result<u32, EncodeError> {
            match *inst {
                $(Inst::$Shape { $($field),* } => {
                    const FIXED: u32 = shapes!(@opcode $opcode)
                        | fixed(&[$(($fixed, $fv)),*]).1
                        $(| fixed(&[$(($canon, $cv)),+]).1)?;
                    let word = FIXED $(| Codec::put($codec, $field))*;
                    $(Codec::check($codec, word, $field, concat!(stringify!($Shape), ".", stringify!($field)))?;)*
                    Ok(word)
                })+
            }
        }
    };
    (@pattern $opcode:ident) => { $opcode };
    (@pattern ($($opcode:ident)|+)) => { _ };
    (@member $word:ident, $opcode:ident) => { true };
    (@member $word:ident, ($($opcode:ident)|+)) => { matches!($word & 0x7f, $($opcode)|+) };
    (@opcode $opcode:ident) => { $opcode };
    (@opcode ($($opcode:ident)|+)) => { 0 };
}

shapes! {
//  shape     opcode                                        [fixed; canonical]                                   fields
    Lui       OP_LUI                                        []                                                   { rd: X(RD), imm20: U };
    Auipc     OP_AUIPC                                      []                                                   { rd: X(RD), imm20: U };
    Jal       OP_JAL                                        []                                                   { rd: X(RD), offset: J };
    Jalr      OP_JALR                                       [FUNCT3 = 0]                                         { rd: X(RD), rs1: X(RS1), offset: I };
    Branch    OP_BRANCH                                     []                                                   { kind: Key, rs1: X(RS1), rs2: X(RS2), offset: B };
    Load      OP_LOAD                                       []                                                   { kind: Key, rd: X(RD), rs1: X(RS1), offset: I };
    Store     OP_STORE                                      []                                                   { kind: Key, rs1: X(RS1), rs2: X(RS2), offset: S };
    Fence     OP_MISC_MEM                                   [FUNCT3 = 0; IMM12 = 0x0ff]                          {};
    Ecall     OP_SYSTEM                                     [RD = 0, FUNCT3 = 0, RS1 = 0, IMM12 = 0]             {};
    Ebreak    OP_SYSTEM                                     [RD = 0, FUNCT3 = 0, RS1 = 0, IMM12 = 1]             {};
    FLoad     OP_LOAD_FP                                    []                                                   { width: LS_WIDTH, frd: F(RD), rs1: X(RS1), offset: I };
    VLoad     OP_LOAD_FP                                    [FUNCT7 = 1, RS2 = 0]                                { eew: EEW, vd: V(RD), rs1: X(RS1) };
    FStore    OP_STORE_FP                                   []                                                   { width: LS_WIDTH, frs2: F(RS2), rs1: X(RS1), offset: S };
    VStore    OP_STORE_FP                                   [FUNCT7 = 1, RS2 = 0]                                { eew: EEW, vs3: V(RD), rs1: X(RS1) };
    FOp       OP_FP                                         []                                                   { kind: Key, width: WIDTH, frd: F(RD), frs1: F(RS1), frs2: F(RS2) };
    FCvtFF    OP_FP                                         [FUNCT5 = 0b01000; FUNCT3 = RM_DYN]                  { to: CVT_TO, frd: F(RD), frs1: F(RS1) };
    FCmp      OP_FP                                         [FUNCT5 = 0b10100]                                   { kind: Key, width: WIDTH, rd: X(RD), frs1: F(RS1), frs2: F(RS2) };
    FCvtToInt OP_FP                                         [FUNCT5 = 0b11000, SEL_HI = 0; FUNCT3 = RM_DYN]      { width: WIDTH, to: INT_WIDTH, signed: SIGNED, rd: X(RD), frs1: F(RS1) };
    FCvtToF   OP_FP                                         [FUNCT5 = 0b11010, SEL_HI = 0; FUNCT3 = RM_DYN]      { width: WIDTH, from: INT_WIDTH, signed: SIGNED, frd: F(RD), rs1: X(RS1) };
    FMvToX    OP_FP                                         [FUNCT5 = 0b11100, FUNCT3 = 0, RS2 = 0]              { width: WIDTH, rd: X(RD), frs1: F(RS1) };
    FMvToF    OP_FP                                         [FUNCT5 = 0b11110, FUNCT3 = 0, RS2 = 0]              { width: WIDTH, frd: F(RD), rs1: X(RS1) };
    Vsetvli   OP_V                                          [FUNCT3 = 0b111, BIT31 = 0]                          { rd: X(RD), rs1: X(RS1), vtype: Zimm };
    VMvXS     OP_V                                          [FUNCT6 = 0b010000, VM = 1, FUNCT3 = 0b010, RS1 = 0] { rd: X(RD), vs2: V(RS2) };
    VMvSX     OP_V                                          [FUNCT6 = 0b010000, VM = 1, FUNCT3 = 0b110, RS2 = 0] { vd: V(RD), rs1: X(RS1) };
    VArith    OP_V                                          [VM = 1]                                             { op: Key, vd: V(RD), vs2: V(RS2), src: Src }
        if op.allows(src) && (op != VArithOp::Vmv || vs2.index() == 0);
    OpImm     (OP_IMM | OP_IMM_32)                          []                                                   { kind: Key, rd: X(RD), rs1: X(RS1), imm: ShiftOrI };
    Op        (OP | OP_32)                                  []                                                   { kind: Key, rd: X(RD), rs1: X(RS1), rs2: X(RS2) };
    Unary     (OP_IMM | OP_IMM_32 | OP | OP_32)             []                                                   { kind: Key, rd: X(RD), rs1: X(RS1) };
    FMa       (OP_FMADD | OP_FMSUB | OP_FNMSUB | OP_FNMADD) [; FUNCT3 = RM_DYN]                                  { kind: Key, width: WIDTH, frd: F(RD), frs1: F(RS1), frs2: F(RS2), frs3: F(RS3) };
}
