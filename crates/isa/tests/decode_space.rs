//! Exhaustive decode-space digest: `decode`, `encode` and `Display` pinned
//! over their *whole* domain, not over samples.
//!
//! Every 32-bit word with `bits[1:0] == 11` (2^30 of them) and every
//! 16-bit halfword with `bits[1:0] != 11` is decoded; what comes back —
//! rejected (and how), or accepted with which length and which canonical
//! re-encoding — is folded into one digest, and the disassembly text of a
//! fixed sample of the accepted words into a second. The fold goes through
//! re-encoded machine words, never through enum discriminants, so
//! reordering or regenerating the instruction-kind enums cannot move it:
//! a digest changes iff some word decodes, re-encodes or prints
//! differently. A deliberate change to the accepted set re-records the
//! constants and states the delta (see `WORDS`).
//!
//! ≈ 1.07 G decodes: seconds in release, minutes in debug, so the 32-bit
//! half is ignored in debug and CI runs it with `--release --
//! --include-ignored`.

use chimera_isa::{decode, encode, encode_compressed, DecodeError};

/// The 32-bit space is folded in fixed slices so the digest does not
/// depend on how many threads computed it; slice digests combine in order.
const SLICES: u32 = 256;
const WORDS_PER_SLICE: u32 = (1 << 30) / SLICES;

/// One accepted word in 64 contributes its `Display` text, chosen by a
/// multiplicative hash of the word itself: consecutive words cycle through
/// the opcodes, so any fixed stride aliases with them and never reaches
/// some families. 1/64 (not 1/4096) because the smallest families — `clz`,
/// `vmv.x.s` — are 1,024 words each; the sample holds 190 distinct
/// mnemonics, all but the single-word `ecall` / `ebreak`.
fn text_sampled(word: u32) -> bool {
    word.wrapping_mul(0x9e37_79b9) >> 26 == 0
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One word-at-a-time FNV-1a step.
fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    /// Fold of `(outcome, len, encode(inst))` per word.
    words: u64,
    /// Fold of `inst.to_string()` over the sampled accepted words.
    text: u64,
    /// How many words decoded to an instruction.
    accepted: u64,
}

impl Digest {
    const EMPTY: Digest = Digest {
        words: 0xcbf2_9ce4_8422_2325,
        text: 0xcbf2_9ce4_8422_2325,
        accepted: 0,
    };

    /// Decodes `word` and folds the outcome in, its text too when `text`.
    fn fold(&mut self, word: u32, text: bool) {
        match decode(word) {
            Err(e) => {
                assert_eq!(e.raw(), word, "error payload must be the raw word");
                self.words = fnv(self.words, matches!(e, DecodeError::ReservedLong(_)) as u64);
            }
            Ok(got) => {
                let re = encode(&got.inst).unwrap_or_else(|e| {
                    panic!("{word:#010x}: decoded `{}` fails to encode: {e}", got.inst)
                });
                self.words = fnv(self.words, (re as u64) << 32 | (got.len as u64) << 8 | 2);
                if got.len == 2 {
                    let half = encode_compressed(&got.inst).map_or(u64::MAX, u64::from);
                    self.words = fnv(self.words, half);
                }
                if text {
                    for b in got.inst.to_string().bytes() {
                        self.text = fnv(self.text, b as u64);
                    }
                    self.text = fnv(self.text, 0xff);
                }
                self.accepted += 1;
            }
        }
    }

    fn check(self, what: &str, recorded: (u64, u64, u64)) {
        assert_eq!(
            (self.words, self.text, self.accepted),
            recorded,
            "{what} decode space moved: words {:#018x} text {:#018x} accepted {}",
            self.words,
            self.text,
            self.accepted
        );
    }
}

fn slice_digest(slice: u32) -> Digest {
    let mut d = Digest::EMPTY;
    let first = slice * WORDS_PER_SLICE;
    for i in first..first + WORDS_PER_SLICE {
        let word = i << 2 | 0b11;
        d.fold(word, text_sampled(word));
    }
    d
}

/// `(words digest, text digest, accepted count)`. The count is pinned
/// beside the digests so a deliberate change to the accepted set can state
/// its delta in words.
///
/// History of the 32-bit triple:
/// * `(0xa578_de06_4498_b825, 0x0258_581b_79f5_bcb1, 329_097_218)` when the
///   test was introduced; unchanged by moving the kind enums into tables.
/// * Now: MISC-MEM decodes to `fence` for `funct3 = 000` only. Exactly the
///   7 · 2^22 = 29,360,128 words with opcode `0001111` and `funct3 != 0`
///   (`fence.i`, `cbo.*`, reserved) flipped from accepted to rejected; the
///   previous decoder with those words masked to `Unrecognized` gives this
///   triple bit for bit.
const WORDS: (u64, u64, u64) = (0xfb63_e1f4_961e_2025, 0x96bf_1af5_8c63_8965, 299_737_090);
const HALFWORDS: (u64, u64, u64) = (0xc65d_7b1d_99ff_a5e1, 0xae8f_236f_1f65_bfc8, 38_188);

#[test]
#[cfg_attr(debug_assertions, ignore = "2^30 decodes: run in release")]
fn every_32_bit_word_decodes_reencodes_and_prints_as_recorded() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u32;
    let mut parts = vec![Digest::EMPTY; SLICES as usize];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w..SLICES)
                        .step_by(workers as usize)
                        .map(|slice| (slice, slice_digest(slice)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (slice, d) in h.join().expect("digest worker panicked") {
                parts[slice as usize] = d;
            }
        }
    });
    let mut all = Digest::EMPTY;
    for p in parts {
        all.words = fnv(all.words, p.words);
        all.text = fnv(all.text, p.text);
        all.accepted += p.accepted;
    }
    all.check("32-bit", WORDS);
}

#[test]
fn every_halfword_decodes_reencodes_and_prints_as_recorded() {
    let mut d = Digest::EMPTY;
    for half in (0..=u16::MAX).filter(|h| h & 0b11 != 0b11) {
        d.fold(half as u32, true);
    }
    d.check("RVC", HALFWORDS);
}
