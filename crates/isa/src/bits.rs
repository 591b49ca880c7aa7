//! Bit-field packing helpers shared by the encoder and decoder.
//!
//! All helpers operate on `u32`/`u16` machine words; immediates travel as
//! sign-extended `i32` in their natural unit (bytes for offsets).

/// Extracts bits `[lo, lo+len)` of `word`.
#[inline]
pub fn field(word: u32, lo: u32, len: u32) -> u32 {
    (word >> lo) & ((1u32 << len) - 1)
}

/// Sign-extends the low `bits` bits of `value`.
#[inline]
pub fn sext(value: u32, bits: u32) -> i32 {
    debug_assert!((1..=32).contains(&bits));
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

/// Whether `value` fits in a signed `bits`-bit field.
#[inline]
pub fn fits_signed(value: i64, bits: u32) -> bool {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    value >= min && value <= max
}

/// Whether `value` fits in an unsigned `bits`-bit field.
#[inline]
pub fn fits_unsigned(value: i64, bits: u32) -> bool {
    value >= 0 && value < (1i64 << bits)
}

/// Packs a 12-bit I-type immediate into bits [20, 32).
#[inline]
pub fn itype_imm(imm: i32) -> u32 {
    ((imm as u32) & 0xfff) << 20
}

/// Unpacks a 12-bit I-type immediate.
#[inline]
pub fn itype_imm_of(word: u32) -> i32 {
    sext(field(word, 20, 12), 12)
}

/// Packs a 12-bit S-type immediate (split across bits [7,12) and [25,32)).
#[inline]
pub fn stype_imm(imm: i32) -> u32 {
    let u = imm as u32;
    (field(u, 0, 5) << 7) | (field(u, 5, 7) << 25)
}

/// Unpacks a 12-bit S-type immediate.
#[inline]
pub fn stype_imm_of(word: u32) -> i32 {
    sext(field(word, 7, 5) | (field(word, 25, 7) << 5), 12)
}

/// Packs a 13-bit B-type immediate (byte offset, bit 0 implicit zero).
#[inline]
pub fn btype_imm(offset: i32) -> u32 {
    let u = offset as u32;
    (field(u, 11, 1) << 7)
        | (field(u, 1, 4) << 8)
        | (field(u, 5, 6) << 25)
        | (field(u, 12, 1) << 31)
}

/// Unpacks a 13-bit B-type immediate.
#[inline]
pub fn btype_imm_of(word: u32) -> i32 {
    let v = (field(word, 8, 4) << 1)
        | (field(word, 25, 6) << 5)
        | (field(word, 7, 1) << 11)
        | (field(word, 31, 1) << 12);
    sext(v, 13)
}

/// Packs a 21-bit J-type immediate (byte offset, bit 0 implicit zero).
#[inline]
pub fn jtype_imm(offset: i32) -> u32 {
    let u = offset as u32;
    (field(u, 12, 8) << 12)
        | (field(u, 11, 1) << 20)
        | (field(u, 1, 10) << 21)
        | (field(u, 20, 1) << 31)
}

/// Unpacks a 21-bit J-type immediate.
#[inline]
pub fn jtype_imm_of(word: u32) -> i32 {
    let v = (field(word, 21, 10) << 1)
        | (field(word, 20, 1) << 11)
        | (field(word, 12, 8) << 12)
        | (field(word, 31, 1) << 20);
    sext(v, 21)
}

/// Packs a 20-bit U-type immediate field into bits [12, 32).
#[inline]
pub fn utype_imm(imm20: i32) -> u32 {
    ((imm20 as u32) & 0xfffff) << 12
}

/// Unpacks a 20-bit U-type immediate field (the raw field, not shifted).
#[inline]
pub fn utype_imm_of(word: u32) -> i32 {
    sext(field(word, 12, 20), 20)
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

    #[test]
    fn fits_bounds() {
        assert!(fits_signed(2047, 12));
        assert!(!fits_signed(2048, 12));
        assert!(fits_signed(-2048, 12));
        assert!(!fits_signed(-2049, 12));
        assert!(fits_unsigned(4095, 12));
        assert!(!fits_unsigned(4096, 12));
        assert!(!fits_unsigned(-1, 12));
    }

    #[test]
    fn itype_roundtrip() {
        for imm in [-2048, -1, 0, 1, 2047] {
            assert_eq!(itype_imm_of(itype_imm(imm)), imm);
        }
    }

    #[test]
    fn stype_roundtrip() {
        for imm in [-2048, -7, 0, 5, 2047] {
            assert_eq!(stype_imm_of(stype_imm(imm)), imm);
        }
    }

    #[test]
    fn btype_roundtrip() {
        for off in [-4096, -2, 0, 2, 4094] {
            assert_eq!(btype_imm_of(btype_imm(off)), off);
        }
    }

    #[test]
    fn jtype_roundtrip() {
        for off in [-(1 << 20), -2, 0, 2, (1 << 20) - 2] {
            assert_eq!(jtype_imm_of(jtype_imm(off)), off);
        }
    }

    #[test]
    fn utype_roundtrip() {
        for imm in [-(1 << 19), -1, 0, 1, (1 << 19) - 1] {
            assert_eq!(utype_imm_of(utype_imm(imm)), imm);
        }
    }
}
