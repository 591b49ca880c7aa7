//! The SMILE trampoline (Secure Multiple-Instruction Long-distancE
//! trampoline) — §4.2 of the paper.
//!
//! A SMILE trampoline is RISC-V's vanilla two-instruction long-distance
//! trampoline
//!
//! ```text
//!     auipc gp, hi20        # gp = tramp + (hi20 << 12)
//!     jalr  gp, lo12(gp)    # jump to gp + lo12; gp = return address
//! ```
//!
//! hardened so that **any** partial execution raises a deterministic fault:
//!
//! * **P1** (entry at the `jalr`): the unmodified `gp` points into the
//!   non-executable data segment (psABI guarantee), so the jump lands there
//!   and the fetch raises a segmentation fault.
//! * **P2** (entry 2 bytes into the `auipc`, possible when the overwritten
//!   original code contained 2-byte instructions): the trampoline constrains
//!   `hi20` bits 4..9 — i.e. *instruction* bits 16..21 — to `11111`, so the
//!   parcel fetched at P2 carries the `xxx11111` prefix RISC-V reserves for
//!   ≥48-bit encodings: an illegal-instruction fault no matter what bytes
//!   follow.
//! * **P3** (entry 2 bytes into the `jalr`): the halfword there is
//!   `rs1[4:1] | lo12 << 4` with low bits `0b…01` (because `rs1 = gp = x3`),
//!   i.e. a C1-quadrant compressed instruction whose identity is chosen by
//!   `lo12`. The trampoline only uses `lo12` values whose halfword falls in
//!   an RVC-**reserved** row (e.g. `c.addiw` with `rd = x0`, `c.lui` with
//!   `nzimm = 0`) — an illegal-instruction fault.
//!
//! Rather than hard-coding the magic `lo12` values, this module *derives*
//! them from the ISA decoder ([`valid_p3_lo12`]) and re-verifies every
//! placed trampoline ([`verify_deterministic`]) — turning the paper's
//! Claim 1 into an executable check.

use crate::chbp::{RewriteError, ILLEGAL_HALFWORD};
use crate::engine::{Entry, Placement};
use chimera_isa::bits::sext;
use chimera_isa::{decode, decode_compressed, encode, Inst, XReg};
use std::sync::OnceLock;

/// Which interior entry points exist for a given patch site (determined by
/// which byte offsets were instruction starts in the original binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SmileConstraints {
    /// An original instruction started at trampoline offset +2 (inside the
    /// `auipc`).
    pub p2: bool,
    /// An original instruction started at trampoline offset +6 (inside the
    /// `jalr`).
    pub p3: bool,
}

impl SmileConstraints {
    /// No interior entry points: the plain SMILE form.
    pub const NONE: SmileConstraints = SmileConstraints {
        p2: false,
        p3: false,
    };

    /// The constraints of a trampoline at `site`, given the addresses at
    /// which original instructions start.
    pub fn of(site: u64, inst_starts: impl Iterator<Item = u64>) -> SmileConstraints {
        let mut c = SmileConstraints::NONE;
        for addr in inst_starts {
            c.p2 |= addr == site + 2;
            c.p3 |= addr == site + 6;
        }
        c
    }
}

/// An encoded SMILE trampoline: 8 bytes of machine code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Smile {
    /// The `auipc gp, hi20` word.
    pub auipc: u32,
    /// The `jalr gp, lo12(gp)` word.
    pub jalr: u32,
}

impl Smile {
    /// The 8 trampoline bytes, little-endian.
    pub fn bytes(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.auipc.to_le_bytes());
        out[4..].copy_from_slice(&self.jalr.to_le_bytes());
        out
    }
}

/// Errors from SMILE encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmileError {
    /// The target is outside the trampoline's reach under the active
    /// constraints (caller should relocate the target block — see
    /// [`next_reachable_target`]).
    Unreachable {
        /// The requested target.
        target: u64,
    },
    /// Self-check failed: a constructed trampoline had a legal interior
    /// decode (would violate Claim 1). Indicates a bug, surfaced loudly.
    VerificationFailed {
        /// Offset of the interior entry whose decode succeeded.
        offset: u64,
    },
}

impl core::fmt::Display for SmileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SmileError::Unreachable { target } => {
                write!(f, "target {target:#x} unreachable under SMILE constraints")
            }
            SmileError::VerificationFailed { offset } => {
                write!(f, "SMILE verification failed at interior offset {offset}")
            }
        }
    }
}

impl std::error::Error for SmileError {}

/// The `lo12` values (as unsigned 12-bit field patterns) whose P3 halfword
/// decodes as an illegal compressed instruction, derived from the decoder.
///
/// The halfword at P3 is `(lo12 << 4) | gp_rs1_low_bits` where the low four
/// bits come from `rs1 = gp`: instruction bits 16..20 of
/// `jalr gp, lo12(gp)` are `rs1[1]`, `rs1[2]`, `rs1[3]`, `rs1[4]` =
/// `1, 0, 0, 0`.
pub fn valid_p3_lo12() -> &'static [u16] {
    static CACHE: OnceLock<Vec<u16>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut ok = Vec::new();
        for lo12 in 0u16..4096 {
            // Jump targets must stay 2-byte aligned (jalr silently clears
            // bit 0, which would skew the landing address), so only even
            // offsets are usable.
            if lo12 % 2 != 0 {
                continue;
            }
            let halfword = p3_halfword(lo12);
            // Must be a 16-bit encoding (low bits != 11) that fails to
            // decode: a guaranteed illegal instruction fault.
            if halfword & 0b11 != 0b11 && decode_compressed(halfword).is_err() {
                ok.push(lo12);
            }
        }
        assert!(
            !ok.is_empty(),
            "RVC reserved space must provide P3-safe lo12 values"
        );
        ok
    })
}

/// The halfword fetched at P3 for a given `lo12` field value.
fn p3_halfword(lo12: u16) -> u16 {
    // jalr gp, lo12(gp): bits 16..32 are rs1[1..5] then imm[0..12].
    // rs1 = x3 = 0b00011: rs1[1..5] = 1,0,0,0.
    0b0001 | (lo12 << 4)
}

/// Splits a pc-relative offset into (hi20, lo12) for auipc+jalr.
fn split_hi_lo(offset: i64) -> Option<(i32, i32)> {
    let hi = (offset + 0x800) >> 12;
    let lo = offset - (hi << 12);
    if (-(1 << 19)..(1 << 19)).contains(&hi) {
        Some((hi as i32, lo as i32))
    } else {
        None
    }
}

/// Builds a SMILE trampoline at `tramp_addr` jumping to `target`, honouring
/// the interior-entry constraints, and verifies Claim 1 on the result.
pub fn encode_smile(
    tramp_addr: u64,
    target: u64,
    constraints: SmileConstraints,
) -> Result<Smile, SmileError> {
    let offset = target.wrapping_sub(tramp_addr) as i64;
    let unreachable = SmileError::Unreachable { target };

    let (hi20, lo12) = if constraints.p3 {
        // lo12 is restricted to the decoder-derived safe set: solve for a
        // pair (hi20, lo12) with tramp + (hi20 << 12) + lo12 == target.
        let mut found = None;
        for &lo_field in valid_p3_lo12() {
            let lo = sext(lo_field as u32, 12);
            let rem = offset - lo as i64;
            if rem % 4096 != 0 {
                continue;
            }
            let hi = rem >> 12;
            if !(-(1 << 19)..(1 << 19)).contains(&hi) {
                continue;
            }
            if constraints.p2 && !p2_ok(hi as i32) {
                continue;
            }
            found = Some((hi as i32, lo));
            break;
        }
        found.ok_or(unreachable)?
    } else {
        let (hi, lo) = split_hi_lo(offset).ok_or(unreachable)?;
        if constraints.p2 && !p2_ok(hi) {
            return Err(unreachable);
        }
        (hi, lo)
    };

    let auipc = encode(&Inst::Auipc {
        rd: XReg::GP,
        imm20: hi20,
    })
    .map_err(|_| unreachable)?;
    let jalr = encode(&Inst::Jalr {
        rd: XReg::GP,
        rs1: XReg::GP,
        offset: lo12,
    })
    .expect("12-bit lo12 always encodes");

    let s = Smile { auipc, jalr };
    verify_deterministic(&s, constraints)?;
    Ok(s)
}

/// Whether `hi20` satisfies the P2 constraint: instruction bits 16..21 of
/// the auipc — i.e. `hi20` bits 4..9 — are `11111`, making the P2 parcel a
/// reserved ≥48-bit-encoding prefix.
fn p2_ok(hi20: i32) -> bool {
    (hi20 >> 4) & 0x1f == 0x1f
}

/// The smallest target address `>= min_target` reachable from a trampoline
/// at `tramp_addr` under `constraints`. The target-section allocator uses
/// this to place blocks at constraint-satisfying addresses.
///
/// Reachable targets have the form `tramp + (hi20 << 12) + lo12` where
/// `hi20` ranges over signed 20-bit values (restricted to `hi20[4:9] =
/// 11111` under P2) and `lo12` over [-2048, 2047] (restricted to the
/// decoder-derived safe set under P3). Because each `lo12` window spans
/// less than 4 KiB, windows for increasing `hi20` are disjoint and ordered,
/// so enumerating `hi20` ascending yields the minimal target directly.
pub fn next_reachable_target(
    tramp_addr: u64,
    min_target: u64,
    constraints: SmileConstraints,
) -> Option<u64> {
    // The sorted lo12 candidates (sign-extended byte offsets).
    let lo_values: Vec<i32> = if constraints.p3 {
        let mut v: Vec<i32> = valid_p3_lo12()
            .iter()
            .map(|&f| sext(f as u32, 12))
            .collect();
        v.sort_unstable();
        v
    } else {
        Vec::new() // Dense: handled via the full ±2048 range below.
    };
    let lo_max: i64 = if constraints.p3 {
        *lo_values.last().expect("non-empty safe set") as i64
    } else {
        2047
    };

    let m = min_target as i64 - tramp_addr as i64;
    let mut hi: i64 = (m - lo_max).div_euclid(4096).max(-(1 << 19));
    for _ in 0..(1 << 12) {
        if hi >= 1 << 19 {
            return None;
        }
        if constraints.p2 && !p2_ok(hi as i32) {
            // Jump to the next hi with bits 4..9 == 11111: those are the
            // values ≡ 496..511 (mod 512).
            let base = hi.div_euclid(512) * 512;
            hi = if hi - base <= 511 && hi - base >= 496 {
                hi // Unreachable arm (p2_ok would have been true); kept for clarity.
            } else if hi - base < 496 {
                base + 496
            } else {
                base + 512 + 496
            };
            continue;
        }
        let window_base = (hi << 12) + tramp_addr as i64;
        if constraints.p3 {
            for &lo in &lo_values {
                let t = window_base + lo as i64;
                if t >= min_target as i64 {
                    return Some(t as u64);
                }
            }
        } else {
            let t = (window_base - 2048).max(min_target as i64);
            if t <= window_base + 2047 {
                return Some(t as u64);
            }
        }
        hi += 1;
    }
    None
}

/// Plans a SMILE entry for a unit: picks the lowest block address at or
/// above `cursor` the trampoline at `site` can reach under the
/// constraints, and builds the patch for the overwritten space
/// `[site, space_end)` — the trampoline, then reserved-illegal halfwords
/// so any entry past it faults. `None` when no such address lies within
/// `max_padding` of the cursor; the caller falls back (CHBP to a trap
/// entry, the upgrade vectorizer to leaving the loop scalar).
pub fn place_smile(
    site: u64,
    space_end: u64,
    constraints: SmileConstraints,
    cursor: u64,
    max_padding: u64,
) -> Result<Option<Placement>, RewriteError> {
    let Some(addr) =
        next_reachable_target(site, cursor, constraints).filter(|a| a - cursor <= max_padding)
    else {
        return Ok(None);
    };
    let smile = encode_smile(site, addr, constraints)
        .map_err(|e| RewriteError::Layout(format!("SMILE at {site:#x}: {e}")))?;
    let mut patch = smile.bytes().to_vec();
    for _ in 0..(space_end - site - 8) / 2 {
        patch.extend_from_slice(&ILLEGAL_HALFWORD.to_le_bytes());
    }
    Ok(Some(Placement {
        addr,
        entry: Entry::Smile {
            site,
            patch,
            constrained: constraints != SmileConstraints::NONE,
        },
    }))
}

/// Checks Claim 1 mechanically on an encoded trampoline: every interior
/// entry point decodes to an illegal instruction or jumps through the
/// unmodified `gp` (the P1 case, safe by the psABI/N-X argument).
pub fn verify_deterministic(s: &Smile, constraints: SmileConstraints) -> Result<(), SmileError> {
    // P1: the jalr must jump through gp with gp also as the link register,
    // so the fault address is recoverable (gp - 4) and the jump target is
    // the data segment. Verify the register fields.
    let d = decode(s.jalr).map_err(|_| SmileError::VerificationFailed { offset: 4 })?;
    match d.inst {
        Inst::Jalr { rd, rs1, .. } if rd == XReg::GP && rs1 == XReg::GP => {}
        _ => return Err(SmileError::VerificationFailed { offset: 4 }),
    }
    if constraints.p2 {
        // The 32-bit window at +2 is auipc[16..32] ++ jalr[0..16]; it must
        // be illegal for *any* continuation, which the reserved-long
        // prefix guarantees. Check the actual window too.
        let window = (s.auipc >> 16) | (s.jalr << 16);
        if window & 0b11 == 0b11 {
            if decode(window).is_ok() {
                return Err(SmileError::VerificationFailed { offset: 2 });
            }
        } else if decode_compressed(window as u16).is_ok() {
            return Err(SmileError::VerificationFailed { offset: 2 });
        }
    }
    if constraints.p3 {
        let halfword = (s.jalr >> 16) as u16;
        if halfword & 0b11 == 0b11 || decode_compressed(halfword).is_ok() {
            return Err(SmileError::VerificationFailed { offset: 6 });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p3_safe_set_is_nonempty_and_verified() {
        let set = valid_p3_lo12();
        assert!(set.len() > 10, "expect a few dozen reserved encodings");
        for &lo in set {
            let hw = p3_halfword(lo);
            assert_ne!(hw & 0b11, 0b11);
            assert!(decode_compressed(hw).is_err());
        }
    }

    #[test]
    fn plain_smile_reaches_far_targets() {
        let tramp = 0x1_0000u64;
        let target = 0x180_0000u64; // ~24 MiB away
        let s = encode_smile(tramp, target, SmileConstraints::NONE).unwrap();
        // Simulate: auipc then jalr.
        let d = decode(s.auipc).unwrap();
        let Inst::Auipc { rd, imm20 } = d.inst else {
            panic!()
        };
        assert_eq!(rd, XReg::GP);
        let gp = tramp.wrapping_add(((imm20 as i64) << 12) as u64);
        let Inst::Jalr { offset, .. } = decode(s.jalr).unwrap().inst else {
            panic!()
        };
        assert_eq!(gp.wrapping_add(offset as i64 as u64), target);
    }

    #[test]
    fn p2_constraint_sets_prefix_bits() {
        let tramp = 0x1_0000u64;
        let c = SmileConstraints {
            p2: true,
            p3: false,
        };
        let target = next_reachable_target(tramp, 0x100_0000, c).unwrap();
        let s = encode_smile(tramp, target, c).unwrap();
        // Instruction bits 16..21 must be 11111.
        assert_eq!((s.auipc >> 16) & 0x1f, 0x1f);
        // And the P2 parcel must look like a reserved long encoding.
        let p2_parcel = (s.auipc >> 16) as u16;
        assert_eq!(p2_parcel & 0b11111, 0b11111);
    }

    #[test]
    fn p3_constraint_yields_reserved_halfword() {
        let tramp = 0x1_0002u64;
        let c = SmileConstraints {
            p2: false,
            p3: true,
        };
        let target = next_reachable_target(tramp, 0x200_0000, c).unwrap();
        let s = encode_smile(tramp, target, c).unwrap();
        let hw = (s.jalr >> 16) as u16;
        assert!(decode_compressed(hw).is_err());
        // Round trip: the jump still lands on target.
        let Inst::Auipc { imm20, .. } = decode(s.auipc).unwrap().inst else {
            panic!()
        };
        let Inst::Jalr { offset, .. } = decode(s.jalr).unwrap().inst else {
            panic!()
        };
        let gp = tramp.wrapping_add(((imm20 as i64) << 12) as u64);
        assert_eq!(gp.wrapping_add(offset as i64 as u64), target);
    }

    #[test]
    fn both_constraints_together() {
        let tramp = 0x4_5676u64; // Odd-ish placement.
        let c = SmileConstraints { p2: true, p3: true };
        let target = next_reachable_target(tramp, 0x300_0000, c).unwrap();
        let s = encode_smile(tramp, target, c).unwrap();
        verify_deterministic(&s, c).unwrap();
        let Inst::Auipc { imm20, .. } = decode(s.auipc).unwrap().inst else {
            panic!()
        };
        let Inst::Jalr { offset, .. } = decode(s.jalr).unwrap().inst else {
            panic!()
        };
        let gp = tramp.wrapping_add(((imm20 as i64) << 12) as u64);
        assert_eq!(gp.wrapping_add(offset as i64 as u64), target);
    }

    #[test]
    fn unreachable_when_too_far() {
        let tramp = 0x1_0000u64;
        let too_far = tramp + (3u64 << 31);
        assert!(matches!(
            encode_smile(tramp, too_far, SmileConstraints::NONE),
            Err(SmileError::Unreachable { .. })
        ));
    }

    #[test]
    fn next_reachable_is_reachable_and_minimal_scan() {
        for &tramp in &[0x1_0000u64, 0x1_0002, 0x2_3456, 0x7_fffe] {
            for c in [
                SmileConstraints::NONE,
                SmileConstraints {
                    p2: true,
                    p3: false,
                },
                SmileConstraints {
                    p2: false,
                    p3: true,
                },
                SmileConstraints { p2: true, p3: true },
            ] {
                let min = 0x500_0000u64;
                let t = next_reachable_target(tramp, min, c).unwrap();
                assert!(t >= min);
                assert!(t - min < 4 << 20, "padding should be bounded");
                encode_smile(tramp, t, c)
                    .unwrap_or_else(|e| panic!("tramp {tramp:#x} constraints {c:?}: {e}"));
            }
        }
    }
}
