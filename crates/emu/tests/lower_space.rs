//! `lower` is exact: [`Uop::inst`] gives back every instruction `decode`
//! produces, so the interpreter, which replays a block's micro-ops through
//! `Cpu::exec`, runs the instructions the block was built from.
//!
//! Every halfword and a hashed sample of 32-bit words run in debug; every
//! 32-bit word runs in release (`--include-ignored`, ~5 s on 2 cores).
//! Beside the round trip, each lowered instruction's `len`, `is_store` and
//! pre-computed costs must match the decode and
//! [`CostModel::static_costs`], and a vector instruction must stay
//! [`MicroOp::Generic`] (its cost depends on the live `vl`).

use chimera_emu::uop::{lower, MicroOp};
use chimera_emu::CostModel;
use chimera_isa::{decode, Ext, Inst};
use std::collections::HashSet;
use std::mem::{discriminant, Discriminant};

/// Decodes `word` and, if it is accepted, checks its lowering; returns the
/// micro-op's variant.
fn check(word: u32, m: &CostModel) -> Option<Discriminant<MicroOp>> {
    let d = decode(word).ok()?;
    let u = lower(d.inst, d.len, m);
    assert_eq!(
        u.inst(),
        d.inst,
        "{word:#010x}: `{}` lowers to {u:?}",
        d.inst
    );
    assert_eq!(u.len, d.len, "{word:#010x}: len");
    let is_store = matches!(
        d.inst,
        Inst::Store { .. } | Inst::FStore { .. } | Inst::VStore { .. }
    );
    assert_eq!(u.is_store, is_store, "{word:#010x}: is_store");
    let (not_taken, taken) = m.static_costs(&d.inst);
    assert_eq!(u64::from(u.cost), not_taken, "{word:#010x}: cost");
    match u.op {
        MicroOp::Branch { taken_cost, .. } => {
            assert_eq!(u64::from(taken_cost), taken, "{word:#010x}: taken cost")
        }
        MicroOp::Generic(_) => {}
        _ => assert_ne!(
            d.inst.ext(),
            Some(Ext::V),
            "{word:#010x}: vector op specialized"
        ),
    }
    Some(discriminant(&u.op))
}

/// The 21 [`MicroOp`] variants: a sample that misses one did not reach
/// every arm of `lower`.
const VARIANTS: usize = 21;

#[test]
fn every_halfword_and_sampled_words_round_trip() {
    let m = CostModel::default();
    let mut seen = HashSet::new();
    let mut accepted = 0;
    for half in 0..=u16::MAX {
        if half & 0b11 != 0b11 {
            if let Some(v) = check(u32::from(half), &m) {
                seen.insert(v);
                accepted += 1;
            }
        }
    }
    // `decode_space.rs` pins the same count.
    assert_eq!(accepted, 38_188, "accepted halfwords");
    // 2^22 of the 2^30 words, spread by a multiplicative bijection of the
    // 30 free bits (consecutive words cycle through the opcodes, so a plain
    // stride would alias with them).
    for i in 0..1u32 << 22 {
        seen.extend(check(i.wrapping_mul(0x9e37_79b9) << 2 | 0b11, &m));
    }
    seen.extend(check(0x0000_0073, &m)); // ecall
    seen.extend(check(0x0010_0073, &m)); // ebreak
    assert_eq!(seen.len(), VARIANTS, "micro-op variants reached");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2^30 decodes: run in release")]
fn every_32_bit_word_round_trips() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u32;
    let (accepted, seen) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let m = CostModel::default();
                    let mut seen = HashSet::new();
                    let mut accepted = 0u64;
                    for i in (w..1 << 30).step_by(workers as usize) {
                        if let Some(v) = check(i << 2 | 0b11, &m) {
                            seen.insert(v);
                            accepted += 1;
                        }
                    }
                    (accepted, seen)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("round-trip worker panicked"))
            .fold((0, HashSet::new()), |(n, mut all), (k, seen)| {
                all.extend(seen);
                (n + k, all)
            })
    });
    // `decode_space.rs` pins the same count.
    assert_eq!(accepted, 299_737_090, "accepted words");
    // Every variant has a 32-bit encoding.
    assert_eq!(seen.len(), VARIANTS, "micro-op variants reached");
}
