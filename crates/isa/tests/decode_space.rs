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
//! Two more digests pin the encoders from the other side — which
//! instructions they accept and which they refuse: `encode_compressed`
//! over every constructor that has a compressed form (see `ENCODE_SPACE`),
//! and `encode` over every constructor (see `ENCODE_SPACE_32`).
//!
//! ≈ 1.07 G decodes and ≈ 120 M compressed encodes: seconds in release,
//! minutes in debug, so the 32-bit half and the encode-space sweep are
//! ignored in debug and CI runs them with `--release -- --include-ignored`.

use chimera_isa::{
    decode, decode_compressed, encode, encode_compressed, BranchKind, DecodeError, Decoded, Eew,
    EncodeError, FCmpKind, FMaKind, FOpKind, FReg, FpWidth, Inst, IntWidth, LoadKind, OpImmKind,
    OpKind, StoreKind, UnaryKind, VArithOp, VReg, VSrc, VType, XReg,
};

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

/// `decode` reads a compressed halfword's expansion from a table that
/// `decode_compressed` fills at compile time: the two agree on every
/// halfword, in what they accept and in the error they return.
#[test]
fn decode_reads_what_decode_compressed_computes_for_every_halfword() {
    for half in (0..=u16::MAX).filter(|h| h & 0b11 != 0b11) {
        let expected = decode_compressed(half).map(|inst| Decoded { inst, len: 2 });
        assert_eq!(decode(half as u32), expected, "halfword {half:#06x}");
        // The upper halfword of the fetched word plays no part.
        assert_eq!(decode(0xffff_0000 | half as u32), expected, "{half:#06x}");
    }
}

/// `(digest, instructions that compress)` of the encode-space sweep below,
/// recorded on the hand-written encoder before the RVC table replaced it.
/// 38,154 = the 38,188 accepted halfwords less the 31 decode-only
/// `c.addi rd, 0` words and the 3 `c.addi16sp` words whose immediate fits
/// `c.addi`: the sweep reaches every instruction a halfword decodes to.
const ENCODE_SPACE: (u64, u64) = (0x5dce_2b76_8eb0_6aae, 38_154);

/// The side `ModuleBuilder` relies on and the halfword digest cannot see:
/// what `encode_compressed` *refuses* (`addi s0, s0, 32`, `lw a0, 2(a1)`,
/// `c.j` at ±2 KiB + 2). Every constructor with a compressed form, over
/// all its register combinations and every immediate in a window that
/// brackets each form's range and alignment boundary (the widest, `c.j`,
/// ends at ±2 KiB), all 64 amounts for the shifts. Kinds are visited in
/// `Kind::ALL` order, so unlike the decode digests this one also moves when
/// rows of `kinds.rs` are reordered.
#[test]
#[cfg_attr(debug_assertions, ignore = "~120 M encodes: run in release")]
fn encode_compressed_accepts_and_refuses_as_recorded() {
    let mut digest = Digest::EMPTY.words;
    let mut accepted = 0u64;
    let mut fold = |inst: Inst| {
        let half = encode_compressed(&inst);
        accepted += half.is_some() as u64;
        digest = fnv(digest, half.map_or(u64::MAX, u64::from));
    };
    const IMMS: std::ops::Range<i32> = -2_200..2_200;
    for a in XReg::all() {
        for imm in IMMS {
            fold(Inst::Lui { rd: a, imm20: imm });
            fold(Inst::Jal { rd: a, offset: imm });
        }
        for b in XReg::all() {
            for &kind in OpImmKind::ALL {
                for imm in if kind.is_shift() { 0..64 } else { IMMS } {
                    fold(Inst::OpImm {
                        kind,
                        rd: a,
                        rs1: b,
                        imm,
                    });
                }
            }
            for offset in IMMS {
                fold(Inst::Jalr {
                    rd: a,
                    rs1: b,
                    offset,
                });
                for &kind in LoadKind::ALL {
                    fold(Inst::Load {
                        kind,
                        rd: a,
                        rs1: b,
                        offset,
                    });
                }
                for &kind in StoreKind::ALL {
                    fold(Inst::Store {
                        kind,
                        rs1: a,
                        rs2: b,
                        offset,
                    });
                }
                for &kind in BranchKind::ALL {
                    fold(Inst::Branch {
                        kind,
                        rs1: a,
                        rs2: b,
                        offset,
                    });
                }
            }
            for c in XReg::all() {
                for &kind in OpKind::ALL {
                    fold(Inst::Op {
                        kind,
                        rd: a,
                        rs1: b,
                        rs2: c,
                    });
                }
            }
        }
    }
    fold(Inst::Ebreak);
    assert_eq!(
        (digest, accepted),
        ENCODE_SPACE,
        "encode space moved: digest {digest:#018x} accepted {accepted}"
    );
}

/// `(digest, instructions that encode)` of the 32-bit encode sweep below,
/// recorded on the hand-written encoder before the 32-bit table replaced
/// it.
const ENCODE_SPACE_32: (u64, u64) = (0x48d5_57e9_5b69_4488, 146_771);

/// The registers the 32-bit sweep puts in every register field: both ends,
/// `ra` / `sp`, and the edges of the compressed window.
const REGS: [u8; 8] = [0, 1, 2, 5, 8, 15, 16, 31];

/// Every value within 3 of an end of a signed `bits`-wide field, or of
/// zero, plus the `i32` extremes: each range and alignment boundary.
fn window(bits: u32) -> Vec<i32> {
    let half = 1i64 << (bits - 1);
    let mut values: Vec<i32> = [-half, 0, half]
        .iter()
        .flat_map(|&end| end - 3..=end + 3)
        .map(|v| v as i32)
        .collect();
    values.extend([i32::MIN, i32::MAX]);
    values
}

/// What `encode` accepts — the word — and refuses — the `EncodeError`
/// variant and value, not its `what` text — over every constructor, every
/// kind, every register in [`REGS`] in each register field, and for each
/// immediate the [`window`] of its field (all of `-3..=70` besides for
/// shift amounts, every `i8` for the vector `imm5`, every supported
/// `vtype`). A vector operation is visited with the source forms it has
/// ([`VArithOp::allows`]); the others are not instructions. Cheap enough
/// for debug (≈ 0.26 M encodes).
#[test]
fn encode_accepts_and_refuses_as_recorded() {
    let mut digest = Digest::EMPTY.words;
    let mut accepted = 0u64;
    let mut fold = |inst: Inst| {
        let (tag, value) = match encode(&inst) {
            Ok(word) => (0, word as u64),
            Err(EncodeError::ImmOutOfRange { value, .. }) => (1, value as u64),
            Err(EncodeError::MisalignedOffset { value, .. }) => (2, value as u64),
        };
        accepted += (tag == 0) as u64;
        digest = fnv(fnv(digest, tag), value);
    };
    let xs = || REGS.map(XReg::of);
    let fs = || REGS.map(FReg::of);
    let vs = || REGS.map(VReg::of);
    let widths = [FpWidth::S, FpWidth::D];
    let eews = [Eew::E8, Eew::E16, Eew::E32, Eew::E64];
    let (i12, i20) = (window(12), window(20));
    let shamts: Vec<i32> = (-3..=70).chain(i12.iter().copied()).collect();

    for a in xs() {
        for &imm20 in &i20 {
            fold(Inst::Lui { rd: a, imm20 });
            fold(Inst::Auipc { rd: a, imm20 });
        }
        for offset in window(21) {
            fold(Inst::Jal { rd: a, offset });
        }
        for b in xs() {
            for &offset in &i12 {
                fold(Inst::Jalr {
                    rd: a,
                    rs1: b,
                    offset,
                });
                for &kind in LoadKind::ALL {
                    fold(Inst::Load {
                        kind,
                        rd: a,
                        rs1: b,
                        offset,
                    });
                }
                for &kind in StoreKind::ALL {
                    fold(Inst::Store {
                        kind,
                        rs1: a,
                        rs2: b,
                        offset,
                    });
                }
            }
            for offset in window(13) {
                for &kind in BranchKind::ALL {
                    fold(Inst::Branch {
                        kind,
                        rs1: a,
                        rs2: b,
                        offset,
                    });
                }
            }
            for &kind in OpImmKind::ALL {
                for &imm in if kind.is_shift() { &shamts } else { &i12 } {
                    fold(Inst::OpImm {
                        kind,
                        rd: a,
                        rs1: b,
                        imm,
                    });
                }
            }
            for &kind in UnaryKind::ALL {
                fold(Inst::Unary {
                    kind,
                    rd: a,
                    rs1: b,
                });
            }
            for c in xs() {
                for &kind in OpKind::ALL {
                    fold(Inst::Op {
                        kind,
                        rd: a,
                        rs1: b,
                        rs2: c,
                    });
                }
            }
            for sew in eews {
                for lmul in [1, 2, 4, 8] {
                    for (ta, ma) in [(false, false), (false, true), (true, false), (true, true)] {
                        let vtype = VType { sew, lmul, ta, ma };
                        fold(Inst::Vsetvli {
                            rd: a,
                            rs1: b,
                            vtype,
                        });
                    }
                }
            }
        }
        for f in fs() {
            for width in widths {
                for &offset in &i12 {
                    fold(Inst::FLoad {
                        width,
                        frd: f,
                        rs1: a,
                        offset,
                    });
                    fold(Inst::FStore {
                        width,
                        frs2: f,
                        rs1: a,
                        offset,
                    });
                }
                fold(Inst::FMvToX {
                    width,
                    rd: a,
                    frs1: f,
                });
                fold(Inst::FMvToF {
                    width,
                    frd: f,
                    rs1: a,
                });
                for from in [IntWidth::W, IntWidth::L] {
                    for signed in [false, true] {
                        fold(Inst::FCvtToF {
                            width,
                            from,
                            signed,
                            frd: f,
                            rs1: a,
                        });
                        fold(Inst::FCvtToInt {
                            width,
                            to: from,
                            signed,
                            rd: a,
                            frs1: f,
                        });
                    }
                }
                for g in fs() {
                    for &kind in FCmpKind::ALL {
                        fold(Inst::FCmp {
                            kind,
                            width,
                            rd: a,
                            frs1: f,
                            frs2: g,
                        });
                    }
                }
            }
        }
        for v in vs() {
            for eew in eews {
                fold(Inst::VLoad { eew, vd: v, rs1: a });
                fold(Inst::VStore {
                    eew,
                    vs3: v,
                    rs1: a,
                });
            }
            fold(Inst::VMvXS { rd: a, vs2: v });
            fold(Inst::VMvSX { vd: v, rs1: a });
        }
    }
    for d in fs() {
        for s in fs() {
            for to in widths {
                fold(Inst::FCvtFF {
                    to,
                    frd: d,
                    frs1: s,
                });
            }
            for t in fs() {
                for width in widths {
                    for &kind in FOpKind::ALL {
                        fold(Inst::FOp {
                            kind,
                            width,
                            frd: d,
                            frs1: s,
                            frs2: t,
                        });
                    }
                    for u in fs() {
                        for &kind in FMaKind::ALL {
                            let (frd, frs1, frs2, frs3) = (d, s, t, u);
                            fold(Inst::FMa {
                                kind,
                                width,
                                frd,
                                frs1,
                                frs2,
                                frs3,
                            });
                        }
                    }
                }
            }
        }
    }
    let srcs = xs()
        .map(VSrc::X)
        .into_iter()
        .chain(fs().map(VSrc::F))
        .chain(vs().map(VSrc::V))
        .chain((i8::MIN..=i8::MAX).map(VSrc::I));
    for src in srcs {
        for &op in VArithOp::ALL.iter().filter(|op| op.allows(src)) {
            for vd in vs() {
                for vs2 in vs() {
                    fold(Inst::VArith { op, vd, vs2, src });
                }
            }
        }
    }
    fold(Inst::Fence);
    fold(Inst::Ecall);
    fold(Inst::Ebreak);
    assert_eq!(
        (digest, accepted),
        ENCODE_SPACE_32,
        "32-bit encode space moved: digest {digest:#018x} accepted {accepted}"
    );
}
