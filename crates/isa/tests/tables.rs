//! The ISA tables are bijections, and their value functions are the ones
//! the emulator executed before they moved into the tables.

use chimera_isa::{
    decode_compressed, encode, encode_compressed, rvc, BranchKind, DecodeError, FCmpKind, FMaKind,
    FOpKind, Inst, LoadKind, OpImmKind, OpKind, StoreKind, UnaryKind, VArithOp, XReg,
};
use std::collections::BTreeSet;

/// Name and encoding both map back to the row they came from — which also
/// means no two rows of a family share either. Returns the family's names.
macro_rules! assert_bijective {
    ($Kind:ident, $name:ident, $from_name:ident) => {{
        for &kind in $Kind::ALL {
            assert_eq!($Kind::$from_name(kind.$name()), Some(kind));
            assert_eq!($Kind::from_encoding(kind.encoding()), Some(kind));
        }
        assert_eq!($Kind::$from_name("no such kind"), None);
        $Kind::ALL
            .iter()
            .map(|kind| kind.$name())
            .collect::<Vec<_>>()
    }};
}

#[test]
fn every_family_is_a_bijection_and_names_are_unique_across_families() {
    // The syntax table maps each printed name to one instruction, so a
    // name may belong to one family only.
    let mnemonics = [
        assert_bijective!(BranchKind, mnemonic, from_mnemonic),
        assert_bijective!(LoadKind, mnemonic, from_mnemonic),
        assert_bijective!(StoreKind, mnemonic, from_mnemonic),
        assert_bijective!(OpImmKind, mnemonic, from_mnemonic),
        assert_bijective!(OpKind, mnemonic, from_mnemonic),
        assert_bijective!(UnaryKind, mnemonic, from_mnemonic),
    ]
    .concat();
    let stems = [
        assert_bijective!(FOpKind, stem, from_stem),
        assert_bijective!(FCmpKind, stem, from_stem),
        assert_bijective!(FMaKind, stem, from_stem),
        assert_bijective!(VArithOp, stem, from_stem),
    ]
    .concat();
    for names in [mnemonics, stems] {
        let distinct: BTreeSet<_> = names.iter().collect();
        assert_eq!(
            distinct.len(),
            names.len(),
            "a name is in two families: {names:?}"
        );
    }
}

const OPERANDS: [u64; 24] = [
    0,
    1,
    2,
    31,
    32,
    63,
    64,
    0x7f,
    0x80,
    0xff,
    0x7fff,
    0x8000,
    0xffff,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
    0x1_0000_0000,
    0x7fff_ffff_ffff_ffff,
    0x8000_0000_0000_0000,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_8000_0000,
    0x0123_4567_89ab_cdef,
    0xfedc_ba98_7654_3210,
    0xdead_beef_cafe_f00d,
];

/// Candidate immediates; a kind is evaluated on those it can encode.
const IMMS: [i32; 11] = [-2048, -1365, -1, 0, 1, 15, 31, 32, 63, 1365, 2047];

/// Word-at-a-time FNV-1a over a kind's results on the operand set above.
fn digest(results: impl Iterator<Item = u64>) -> u64 {
    results.fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pairs() -> impl Iterator<Item = (u64, u64)> {
    OPERANDS
        .into_iter()
        .flat_map(|a| OPERANDS.into_iter().map(move |b| (a, b)))
}

/// The result digest of a kind of the four integer families, by mnemonic.
fn eval_digest(mnemonic: &str) -> Option<u64> {
    if let Some(kind) = BranchKind::from_mnemonic(mnemonic) {
        Some(digest(pairs().map(|(a, b)| kind.eval(a, b) as u64)))
    } else if let Some(kind) = OpKind::from_mnemonic(mnemonic) {
        Some(digest(pairs().map(|(a, b)| kind.eval(a, b))))
    } else if let Some(kind) = UnaryKind::from_mnemonic(mnemonic) {
        Some(digest(OPERANDS.into_iter().map(|a| kind.eval(a))))
    } else if let Some(kind) = OpImmKind::from_mnemonic(mnemonic) {
        let encodable = |imm: &i32| {
            let (rd, rs1) = (XReg::A0, XReg::A0);
            encode(&Inst::OpImm {
                kind,
                rd,
                rs1,
                imm: *imm,
            })
            .is_ok()
        };
        Some(digest(OPERANDS.into_iter().flat_map(|a| {
            IMMS.into_iter()
                .filter(encodable)
                .map(move |imm| kind.eval(a, imm))
        })))
    } else {
        None
    }
}

/// `mnemonic digest`, recorded from the four branch / ALU helper functions
/// of `crates/emu/src/cpu.rs` on the last commit that had them (c5f1b20),
/// over exactly the operand set above.
const FROZEN: &str = "
    beq 0xf21590804ed9943d
    bne 0x306c1f8101c9da0d
    blt 0xe02921ae45f5e659
    bge 0x46620c96078275a5
    bltu 0x9de2a5f7b3cc6849
    bgeu 0x9158a7c878ff72ed
    addi 0xe533e94bb21c0c00
    slti 0x04acbe5f15d53ef5
    sltiu 0xa6953420bd5be4ce
    xori 0x04ca0f89c1f275bc
    ori 0x1391513d3682d19e
    andi 0xc85e779c8dfbda3f
    slli 0xa80cee31f7cc9de2
    srli 0x83a7b88518269138
    srai 0x89a942196ce836a2
    addiw 0x1e6dad37b21c0c00
    slliw 0xcd9c6f09ccf98b1a
    srliw 0xf4cadf6be1a0ec85
    sraiw 0x6b1e3c3fae3e1f53
    rori 0x5829031e7903497a
    add 0x3bb178e9715a58b3
    sub 0xe669609fa742123b
    sll 0xaf87aa5748d48a9d
    slt 0xe02921ae45f5e659
    sltu 0x9de2a5f7b3cc6849
    xor 0x26527231e39ffce5
    srl 0xf347500004602d01
    sra 0xcff68d51fa41cf8b
    or 0xbff955969823413e
    and 0x415d8983c8fad382
    addw 0x216f1a4e715a58b3
    subw 0x8177a13ca742123b
    sllw 0xad9efde8fe17bba4
    srlw 0xf318ab2236e69fa5
    sraw 0x2921fe7d20ad1719
    mul 0x7584df35911722ca
    mulh 0x247f41fa983dfcfd
    mulhsu 0xa1dbf71cc24d9eba
    mulhu 0x0bb39831f2e29c2b
    div 0x510228743958b204
    divu 0xea38457e72f7ddcf
    rem 0x41f5c112845e49af
    remu 0x1c12d5eff9311f82
    mulw 0x88ba4e64911722ca
    divw 0xfca411c2a12faf4c
    divuw 0x52e0525a9c6b10f6
    remw 0x606275a8a23449b6
    remuw 0xcc17e32605074ec8
    sh1add 0x54444c5b25e0d599
    sh2add 0xac6b741d37edb495
    sh3add 0x00a63c9e364cf3f5
    add.uw 0xe77b37c7715a58b3
    andn 0x3cc78e7df778dafe
    orn 0x3656d96046f983c2
    xnor 0xd2cfeee9c8451c8d
    min 0xd2d0e569530d569e
    minu 0x0388bd7532819cd8
    max 0x3be7feff5261013a
    maxu 0x811f18286b4810e0
    rol 0x63ecf53c41f52b9c
    ror 0xdddb4203a1d69753
    clz 0xeb37f3257bfc5b1a
    ctz 0x08630fd09f6a205e
    cpop 0xa3bc60dffc8cbb5c
    sext.b 0xc40e82ac6df4dcae
    sext.h 0xd31720bc3a3bf8ae
    zext.h 0x8036efa5cf85f8ae
    rev8 0xb2308297b1c8573d
";

#[test]
fn eval_matches_the_frozen_results_of_the_emulator_helpers_it_replaced() {
    let mut frozen = 0;
    for line in FROZEN.lines().filter(|l| !l.trim().is_empty()) {
        let (mnemonic, recorded) = line.trim().split_once(' ').expect("`mnemonic digest`");
        let recorded = u64::from_str_radix(recorded.trim_start_matches("0x"), 16).unwrap();
        let got = eval_digest(mnemonic).unwrap_or_else(|| panic!("`{mnemonic}` has no row"));
        assert_eq!(
            got, recorded,
            "`{mnemonic}` evaluates differently than recorded"
        );
        frozen += 1;
    }
    // Every row that existed when the semantics moved is frozen.
    assert_eq!(frozen, 6 + 14 + 41 + 7);
}

#[test]
fn an_inverted_branch_is_taken_exactly_when_the_branch_is_not() {
    for &kind in BranchKind::ALL {
        assert_eq!(kind.inverted().inverted(), kind);
        for (a, b) in pairs() {
            assert_eq!(kind.inverted().eval(a, b), !kind.eval(a, b), "{kind:?}");
        }
    }
}

/// No RVC row can be forgotten or shadowed, and the two places where
/// `encode_compressed` is not the inverse of `decode_compressed` are numbers
/// in the tree rather than a comment.
#[test]
fn every_rvc_row_is_reached_and_the_round_trip_asymmetries_are_exactly_these() {
    assert_eq!(rvc::ROWS.len(), 33);
    let mut hits = vec![0u32; rvc::ROWS.len()];
    let (mut decode_only, mut aliases) = (Vec::new(), Vec::new());
    for half in 0..=u16::MAX {
        // Rows accept disjoint sets, so table order never decides a decode.
        let accepting: Vec<usize> = (0..rvc::ROWS.len())
            .filter(|&row| rvc::ROWS[row].decode(half).is_some())
            .collect();
        let Ok(inst) = decode_compressed(half) else {
            assert_eq!(
                accepting,
                [],
                "{half:#06x} is rejected yet a row accepts it"
            );
            continue;
        };
        let [row] = accepting[..] else {
            panic!("{half:#06x} ({inst}) is accepted by rows {accepting:?}");
        };
        assert_eq!(rvc::ROWS[row].decode(half), Some(inst));
        hits[row] += 1;
        match encode_compressed(&inst) {
            Some(back) if back == half => {}
            Some(back) => aliases.push((half, back)),
            None => decode_only.push(half),
        }
    }
    for (rvc::Row { name, doc, .. }, &hits) in rvc::ROWS.iter().zip(&hits) {
        assert!(hits > 0, "no halfword decodes through `{name}` ({doc})");
    }
    assert_eq!(hits.iter().sum::<u32>(), 38_188);
    // `c.addi rd, 0`: a HINT this model decodes and never emits.
    let c_addi_zero: Vec<u16> = (1..32).map(|rd| 0x0001 | rd << 7).collect();
    assert_eq!(decode_only, c_addi_zero);
    // `c.addi16sp` immediates that fit `c.addi`, the earlier row.
    assert_eq!(
        aliases,
        [(0x6141, 0x0141), (0x713d, 0x1101), (0x717d, 0x1141)]
    );
}

/// `decode_compressed` is total: a halfword with `bits[1:0] = 11` is the
/// first half of a 32-bit encoding, which no row matches.
#[test]
fn decode_compressed_rejects_a_quadrant_3_halfword_instead_of_panicking() {
    for half in [0x0003, 0xffff] {
        let rejected = Err(DecodeError::Unrecognized(half as u32));
        assert_eq!(decode_compressed(half), rejected);
    }
}
