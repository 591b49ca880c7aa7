//! Bit-field helpers shared by the 32-bit and the compressed tables, and
//! the one immediate codec both use: a `Perm`, with the 32-bit
//! immediate formats (I, S, B, U, J, the shift amounts and `simm5`) stated
//! beside the spec's bit names.
//!
//! Immediates travel as sign-extended `i32` in their natural unit (bytes
//! for offsets, the raw 20-bit field for `lui` / `auipc`).

use crate::encode::EncodeError;

/// Documented constants of one type, one per row — `NAME = value => "doc";`
/// — so that a field layout reads as one line beside the spec's name for it.
macro_rules! consts {
    ($vis:vis $T:ty: $($name:ident = $value:expr => $doc:literal;)+) => {
        $(#[doc = $doc] $vis const $name: $T = $value;)+
    };
}
pub(crate) use consts;

/// Extracts bits `[lo, lo+len)` of `word`.
#[inline]
pub const fn field(word: u32, lo: u32, len: u32) -> u32 {
    (word >> lo) & ((1u32 << len) - 1)
}

/// Sign-extends the low `bits` bits of `value`.
#[inline]
pub const fn sext(value: u32, bits: u32) -> i32 {
    debug_assert!(1 <= bits && bits <= 32);
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

/// An immediate permutation: the width the immediate is sign-extended from
/// (0 for zero-extended), and `(word lo bit, width, immediate lo bit)` per
/// run of bits. A value encodes iff gathering back what [`Perm::scatter`]
/// placed returns it, so a format's range, alignment and sign rules are
/// properties of its runs, not conditions written beside it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Perm(pub(crate) u32, pub(crate) &'static [(u32, u32, u32)]);

// Each beside the spec's name for the bits, high to low in the word.
consts! { pub(crate) Perm:
    I = Perm(12, &[(20, 12, 0)])                                      => "`imm[11:0]`: loads, `jalr`, `OP-IMM`.";
    S = Perm(12, &[(7, 5, 0), (25, 7, 5)])                            => "`imm[11:5]`, `imm[4:0]`: stores.";
    B = Perm(13, &[(8, 4, 1), (25, 6, 5), (7, 1, 11), (31, 1, 12)])   => "`imm[12|10:5]`, `imm[4:1|11]`: branches.";
    U = Perm(20, &[(12, 20, 0)])                                      => "`imm[31:12]`, kept as the raw field: `lui`, `auipc`.";
    J = Perm(21, &[(21, 10, 1), (20, 1, 11), (12, 8, 12), (31, 1, 20)]) => "`imm[20|10:1|11|19:12]`: `jal`.";
    SHAMT6 = Perm(0, &[(20, 6, 0)])                                   => "`shamt[5:0]`: the RV64 shifts.";
    SHAMT5 = Perm(0, &[(20, 5, 0)])                                   => "`shamt[4:0]`: the `*w` shifts.";
    IMM5 = Perm(5, &[(15, 5, 0)])                                     => "`simm5` of the `OP-V` `.vi` forms.";
}

impl Perm {
    /// The immediate `word` carries.
    #[inline(always)]
    pub(crate) const fn gather(self, word: u32) -> i32 {
        let Perm(sext_from, runs) = self;
        let (mut imm, mut i) = (0, 0);
        while i < runs.len() {
            let (lo, len, at) = runs[i];
            imm |= field(word, lo, len) << at;
            i += 1;
        }
        if sext_from == 0 {
            imm as i32
        } else {
            sext(imm, sext_from)
        }
    }

    /// The word bits that carry `imm`, dropping whatever bits of it the
    /// permutation has no place for.
    #[inline(always)]
    pub(crate) fn scatter(self, imm: i32) -> u32 {
        let mut word = 0;
        for &(lo, len, at) in self.1 {
            word |= field(imm as u32, at, len) << lo;
        }
        word
    }

    /// Why `imm` does not encode, given that it does not gather back: bits
    /// below the permutation's lowest run make it misaligned, anything
    /// else is out of range.
    pub(crate) fn refusal(self, imm: i32, what: &'static str) -> EncodeError {
        let lowest = self.1.iter().map(|&(_, _, at)| at).min().unwrap_or(0);
        let value = imm as i64;
        if imm & ((1 << lowest) - 1) != 0 {
            EncodeError::MisalignedOffset { what, value }
        } else {
            EncodeError::ImmOutOfRange { what, value }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sext_behaviour() {
        assert_eq!(sext(0xfff, 12), -1);
        assert_eq!(sext(0x7ff, 12), 2047);
        assert_eq!(sext(0x800, 12), -2048);
        assert_eq!(sext(0, 12), 0);
    }

    fn roundtrip(perm: Perm, values: &[i32]) {
        for &imm in values {
            assert_eq!(perm.gather(perm.scatter(imm)), imm, "{perm:?} {imm}");
        }
    }

    #[test]
    fn itype_roundtrip() {
        roundtrip(I, &[-2048, -1, 0, 1, 2047]);
        assert_eq!(I.scatter(-1), 0xfff0_0000);
    }

    #[test]
    fn stype_roundtrip() {
        roundtrip(S, &[-2048, -7, 0, 5, 2047]);
        assert_eq!(S.scatter(0x7e5), 0x3f << 25 | 0b00101 << 7);
    }

    #[test]
    fn btype_roundtrip() {
        roundtrip(B, &[-4096, -2, 0, 2, 4094]);
        assert_eq!(B.scatter(0x800), 1 << 7);
        assert!(matches!(
            B.refusal(3, "b"),
            EncodeError::MisalignedOffset { value: 3, .. }
        ));
    }

    #[test]
    fn jtype_roundtrip() {
        roundtrip(J, &[-(1 << 20), -2, 0, 2, (1 << 20) - 2]);
        assert_eq!(J.scatter(0x800), 1 << 20);
        assert!(matches!(
            J.refusal(1 << 20, "j"),
            EncodeError::ImmOutOfRange { .. }
        ));
    }

    #[test]
    fn utype_roundtrip() {
        roundtrip(U, &[-(1 << 19), -1, 0, 1, (1 << 19) - 1]);
        assert_eq!(U.scatter(1), 1 << 12);
    }
}
