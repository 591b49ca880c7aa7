//! Register definitions for the RV64 integer, floating-point and vector
//! register files.
//!
//! The integer register file follows the RISC-V psABI calling convention
//! ([`XReg::abi_name`]); the `gp` register (`x3`) plays a central role in
//! Chimera's SMILE trampoline because the psABI guarantees its value is a
//! link-time constant pointing into the data segment.

use core::fmt;
use core::marker::PhantomData;

const X_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

const F_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
    "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
    "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
];

/// The index `name` gives a register: its position in `names`, or the
/// number after `prefix`.
fn from_name(names: &[&str], prefix: char, name: &str) -> Option<u8> {
    match names.iter().position(|&n| n == name) {
        Some(i) => Some(i as u8),
        None => name.strip_prefix(prefix)?.parse().ok().filter(|&i| i < 32),
    }
}

/// An integer (`x`) register, `x0`..`x31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct XReg(u8);

impl XReg {
    /// Hard-wired zero register.
    pub const ZERO: XReg = XReg(0);
    /// Return address (`x1`).
    pub const RA: XReg = XReg(1);
    /// Stack pointer (`x2`).
    pub const SP: XReg = XReg(2);
    /// Global pointer (`x3`). Under the RISC-V psABI this register holds a
    /// constant address inside the data segment; Chimera's SMILE trampoline
    /// depends on both properties (constant, hence restorable; data-segment,
    /// hence a jump through the *unmodified* gp faults deterministically).
    pub const GP: XReg = XReg(3);
    /// Thread pointer (`x4`).
    pub const TP: XReg = XReg(4);
    /// Temporary `t0` (`x5`).
    pub const T0: XReg = XReg(5);
    /// Temporary `t1` (`x6`).
    pub const T1: XReg = XReg(6);
    /// Temporary `t2` (`x7`).
    pub const T2: XReg = XReg(7);
    /// Saved register / frame pointer `s0` (`x8`).
    pub const S0: XReg = XReg(8);
    /// Saved register `s1` (`x9`).
    pub const S1: XReg = XReg(9);
    /// Argument/return register `a0` (`x10`).
    pub const A0: XReg = XReg(10);
    /// Argument/return register `a1` (`x11`).
    pub const A1: XReg = XReg(11);
    /// Argument register `a2` (`x12`).
    pub const A2: XReg = XReg(12);
    /// Argument register `a3` (`x13`).
    pub const A3: XReg = XReg(13);
    /// Argument register `a4` (`x14`).
    pub const A4: XReg = XReg(14);
    /// Argument register `a5` (`x15`).
    pub const A5: XReg = XReg(15);
    /// Argument register `a6` (`x16`).
    pub const A6: XReg = XReg(16);
    /// Argument register `a7` (`x17`), also the syscall number register.
    pub const A7: XReg = XReg(17);
    /// Saved register `s2` (`x18`).
    pub const S2: XReg = XReg(18);
    /// Saved register `s3` (`x19`).
    pub const S3: XReg = XReg(19);
    /// Saved register `s4` (`x20`).
    pub const S4: XReg = XReg(20);
    /// Saved register `s5` (`x21`).
    pub const S5: XReg = XReg(21);
    /// Saved register `s6` (`x22`).
    pub const S6: XReg = XReg(22);
    /// Saved register `s7` (`x23`).
    pub const S7: XReg = XReg(23);
    /// Saved register `s8` (`x24`).
    pub const S8: XReg = XReg(24);
    /// Saved register `s9` (`x25`).
    pub const S9: XReg = XReg(25);
    /// Saved register `s10` (`x26`).
    pub const S10: XReg = XReg(26);
    /// Saved register `s11` (`x27`).
    pub const S11: XReg = XReg(27);
    /// Temporary `t3` (`x28`).
    pub const T3: XReg = XReg(28);
    /// Temporary `t4` (`x29`).
    pub const T4: XReg = XReg(29);
    /// Temporary `t5` (`x30`).
    pub const T5: XReg = XReg(30);
    /// Temporary `t6` (`x31`).
    pub const T6: XReg = XReg(31);

    /// Creates a register from its index, returning `None` for indices > 31.
    pub const fn new(index: u8) -> Option<XReg> {
        if index < 32 {
            Some(XReg(index))
        } else {
            None
        }
    }

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`; use [`XReg::new`] for a fallible constructor.
    pub const fn of(index: u8) -> XReg {
        assert!(index < 32, "x-register index out of range");
        XReg(index)
    }

    /// Creates a register from the 3-bit index used by compressed (RVC)
    /// encodings, which address only `x8`..`x15`.
    pub const fn of_compressed(index3: u8) -> XReg {
        assert!(index3 < 8, "compressed register index out of range");
        XReg(index3 + 8)
    }

    /// The register's numeric index (0..=31).
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Whether the register is addressable by 3-bit compressed encodings
    /// (`x8`..`x15`).
    pub const fn is_compressed_addressable(self) -> bool {
        self.0 >= 8 && self.0 < 16
    }

    /// The psABI name of the register (e.g. `a0`, `gp`).
    pub const fn abi_name(self) -> &'static str {
        X_NAMES[self.0 as usize]
    }

    /// The register an assembler names: its psABI name, `x0`..`x31`, or
    /// `fp` (`s0`).
    pub fn from_name(name: &str) -> Option<XReg> {
        match name {
            "fp" => Some(XReg::S0),
            _ => from_name(&X_NAMES, 'x', name).map(XReg),
        }
    }

    /// All 32 integer registers in index order.
    pub fn all() -> impl Iterator<Item = XReg> {
        (0u8..32).map(XReg)
    }

    /// Caller-saved temporaries in the psABI (`t0`..`t6`, `a0`..`a7`, `ra`).
    ///
    /// These are the candidates the rewriter's exit-register selection
    /// considers first, because a dead temporary is most likely among them.
    pub fn caller_saved() -> impl Iterator<Item = XReg> {
        [5u8, 6, 7, 28, 29, 30, 31, 10, 11, 12, 13, 14, 15, 16, 17, 1]
            .into_iter()
            .map(XReg)
    }
}

impl fmt::Display for XReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// A floating-point (`f`) register, `f0`..`f31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(u8);

impl FReg {
    /// FP argument/return register `fa0` (`f10`).
    pub const FA0: FReg = FReg(10);
    /// FP argument register `fa1` (`f11`).
    pub const FA1: FReg = FReg(11);
    /// FP temporary `ft0` (`f0`).
    pub const FT0: FReg = FReg(0);
    /// FP temporary `ft1` (`f1`).
    pub const FT1: FReg = FReg(1);

    /// Creates a register from its index, returning `None` for indices > 31.
    pub const fn new(index: u8) -> Option<FReg> {
        if index < 32 {
            Some(FReg(index))
        } else {
            None
        }
    }

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    pub const fn of(index: u8) -> FReg {
        assert!(index < 32, "f-register index out of range");
        FReg(index)
    }

    /// The register's numeric index (0..=31).
    pub const fn index(self) -> u8 {
        self.0
    }

    /// The psABI name of the register (e.g. `fa0`, `ft3`).
    pub const fn abi_name(self) -> &'static str {
        F_NAMES[self.0 as usize]
    }

    /// The register an assembler names: its psABI name or `f0`..`f31`.
    pub fn from_name(name: &str) -> Option<FReg> {
        from_name(&F_NAMES, 'f', name).map(FReg)
    }

    /// All 32 floating-point registers in index order.
    pub fn all() -> impl Iterator<Item = FReg> {
        (0u8..32).map(FReg)
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// A vector (`v`) register, `v0`..`v31` (RVV 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(u8);

impl VReg {
    /// Vector register `v0` (the mask register in masked operations).
    pub const V0: VReg = VReg(0);

    /// Creates a register from its index, returning `None` for indices > 31.
    pub const fn new(index: u8) -> Option<VReg> {
        if index < 32 {
            Some(VReg(index))
        } else {
            None
        }
    }

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    pub const fn of(index: u8) -> VReg {
        assert!(index < 32, "v-register index out of range");
        VReg(index)
    }

    /// The register's numeric index (0..=31).
    pub const fn index(self) -> u8 {
        self.0
    }

    /// The register an assembler names: `v0`..`v31`.
    pub fn from_name(name: &str) -> Option<VReg> {
        from_name(&[], 'v', name).map(VReg)
    }

    /// All 32 vector registers in index order.
    pub fn all() -> impl Iterator<Item = VReg> {
        (0u8..32).map(VReg)
    }
}

/// A register of one file: `x`, `f` or `v`, by its index 0..=31.
pub trait Register: Copy {
    /// The register with index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    fn of(index: u8) -> Self;

    /// The register's numeric index (0..=31).
    fn index(self) -> u8;
}

macro_rules! register {
    ($($t:ident),*) => {$(
        impl Register for $t {
            fn of(index: u8) -> $t {
                $t::of(index)
            }

            fn index(self) -> u8 {
                self.0
            }
        }
    )*};
}

register!(XReg, FReg, VReg);

/// A set of registers of one file as a bitmask: bit `n` is the register
/// with index `n`.
pub struct RegisterSet<R>(pub u32, PhantomData<R>);

/// A set of integer registers.
pub type RegSet = RegisterSet<XReg>;
/// A set of floating-point registers.
pub type FRegSet = RegisterSet<FReg>;
/// A set of vector registers.
pub type VRegSet = RegisterSet<VReg>;

impl<R: Register> RegisterSet<R> {
    /// The empty set.
    pub const EMPTY: Self = Self::from_bits(0);
    /// All 32 registers.
    pub const ALL: Self = Self::from_bits(u32::MAX);

    /// The set whose bit `n` is set for each member of index `n`.
    pub const fn from_bits(bits: u32) -> Self {
        RegisterSet(bits, PhantomData)
    }

    /// Inserts a register.
    pub fn insert(&mut self, r: R) {
        self.0 |= 1 << r.index();
    }

    /// Removes a register.
    pub fn remove(&mut self, r: R) {
        self.0 &= !(1 << r.index());
    }

    /// Membership test.
    pub fn contains(self, r: R) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Set union.
    pub fn union(self, other: Self) -> Self {
        Self::from_bits(self.0 | other.0)
    }

    /// Iterates the members, in index order.
    pub fn iter(self) -> impl Iterator<Item = R> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let n = bits.trailing_zeros() as u8;
            bits &= bits.checked_sub(1)?;
            Some(R::of(n))
        })
    }

    /// Iterates the registers that are not members, in index order.
    pub fn absent(self) -> impl Iterator<Item = R> {
        RegisterSet::<R>::from_bits(!self.0).iter()
    }
}

// Derives would bound `R` itself; a set is plain bits whatever its file.
impl<R> Clone for RegisterSet<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for RegisterSet<R> {}

impl<R> PartialEq for RegisterSet<R> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<R> Eq for RegisterSet<R> {}

impl<R> Default for RegisterSet<R> {
    fn default() -> Self {
        RegisterSet(0, PhantomData)
    }
}

impl<R> fmt::Debug for RegisterSet<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegisterSet({:#010x})", self.0)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xreg_abi_names_match_indices() {
        assert_eq!(XReg::ZERO.abi_name(), "zero");
        assert_eq!(XReg::GP.abi_name(), "gp");
        assert_eq!(XReg::GP.index(), 3);
        assert_eq!(XReg::A0.abi_name(), "a0");
        assert_eq!(XReg::T6.abi_name(), "t6");
        assert_eq!(XReg::T6.index(), 31);
    }

    #[test]
    fn xreg_new_bounds() {
        assert!(XReg::new(31).is_some());
        assert!(XReg::new(32).is_none());
    }

    #[test]
    fn compressed_addressable_window() {
        assert!(!XReg::T2.is_compressed_addressable());
        assert!(XReg::S0.is_compressed_addressable());
        assert!(XReg::A5.is_compressed_addressable());
        assert!(!XReg::A6.is_compressed_addressable());
        assert_eq!(XReg::of_compressed(0), XReg::S0);
        assert_eq!(XReg::of_compressed(7), XReg::A5);
    }

    #[test]
    fn caller_saved_excludes_gp_sp() {
        let cs: Vec<XReg> = XReg::caller_saved().collect();
        assert!(!cs.contains(&XReg::GP));
        assert!(!cs.contains(&XReg::SP));
        assert!(!cs.contains(&XReg::ZERO));
        assert!(cs.contains(&XReg::T0));
        assert!(cs.contains(&XReg::A0));
    }

    #[test]
    fn freg_and_vreg_display() {
        assert_eq!(FReg::FA0.to_string(), "fa0");
        assert_eq!(FReg::of(31).to_string(), "ft11");
        assert_eq!(VReg::of(7).to_string(), "v7");
    }

    #[test]
    fn register_sets_iterate_members_and_the_rest_in_index_order() {
        let mut x = RegSet::EMPTY;
        x.insert(XReg::T6);
        x.insert(XReg::ZERO);
        x.insert(XReg::A0);
        assert_eq!(
            x.iter().collect::<Vec<_>>(),
            [XReg::ZERO, XReg::A0, XReg::T6]
        );
        assert_eq!(x.absent().count(), 29);
        x.remove(XReg::A0);
        assert!(!x.contains(XReg::A0) && x.contains(XReg::T6));
        let v = VRegSet::from_bits(0b1010);
        assert_eq!(v.iter().collect::<Vec<_>>(), [VReg::of(1), VReg::of(3)]);
        let f = FRegSet::ALL;
        assert_eq!(f.iter().count(), 32);
        assert_eq!(f.absent().next(), None);
    }

    #[test]
    fn all_iterators_cover_register_files() {
        assert_eq!(XReg::all().count(), 32);
        assert_eq!(FReg::all().count(), 32);
        assert_eq!(VReg::all().count(), 32);
    }
}
