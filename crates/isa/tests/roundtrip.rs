//! Seeded encode/decode roundtrip suite (replaces the former proptest
//! strategies with the workspace's dependency-free [`Prng`]).
//!
//! The rewriter patches binaries at the byte level, so the system-wide
//! contract is *exactness*: `decode(encode(i)) == i` for every well-formed
//! instruction, and every reserved encoding is rejected rather than
//! misdecoded. Each constructor family below is exercised with ~10k random
//! operand combinations, its kinds drawn from the ISA tables' `Kind::ALL`
//! (so a new row is covered without editing this file); instructions that
//! also have a compressed (RVC) form roundtrip through their 16-bit
//! encoding in the same pass.

use chimera_isa::prng::Prng;
use chimera_isa::{
    decode, encode, encode_compressed, BranchKind, DecodeError, Decoded, Eew, FCmpKind, FMaKind,
    FOpKind, FReg, FpWidth, Inst, IntWidth, LoadKind, OpImmKind, OpKind, StoreKind, UnaryKind,
    VArithOp, VReg, VSrc, VType, XReg,
};

const CASES: usize = 10_000;

fn xreg(r: &mut Prng) -> XReg {
    XReg::of(r.below(32) as u8)
}

fn freg(r: &mut Prng) -> FReg {
    FReg::of(r.below(32) as u8)
}

fn vreg(r: &mut Prng) -> VReg {
    VReg::of(r.below(32) as u8)
}

fn i12(r: &mut Prng) -> i32 {
    r.range_i64(-2048, 2048) as i32
}

fn imm20(r: &mut Prng) -> i32 {
    r.range_i64(-(1 << 19), 1 << 19) as i32
}

fn fp_width(r: &mut Prng) -> FpWidth {
    *r.pick(&[FpWidth::S, FpWidth::D])
}

fn int_width(r: &mut Prng) -> IntWidth {
    *r.pick(&[IntWidth::W, IntWidth::L])
}

fn eew(r: &mut Prng) -> Eew {
    *r.pick(&[Eew::E8, Eew::E16, Eew::E32, Eew::E64])
}

fn vtype(r: &mut Prng) -> VType {
    VType {
        sew: eew(r),
        lmul: *r.pick(&[1u8, 2, 4, 8]),
        ta: r.next_bool(),
        ma: r.next_bool(),
    }
}

fn gen_varith(r: &mut Prng) -> Inst {
    let op = *r.pick(VArithOp::ALL);
    // One candidate per source form; the table says which the op has.
    let sources: Vec<VSrc> = [
        VSrc::V(vreg(r)),
        VSrc::X(xreg(r)),
        VSrc::F(freg(r)),
        VSrc::I(r.range_i64(-16, 16) as i8),
    ]
    .into_iter()
    .filter(|&src| op.allows(src))
    .collect();
    // vmv.v.* fixes the vs2 field at zero; any other value is reserved.
    let vs2 = if op == VArithOp::Vmv {
        VReg::of(0)
    } else {
        vreg(r)
    };
    Inst::VArith {
        op,
        vd: vreg(r),
        vs2,
        src: *r.pick(&sources),
    }
}

fn gen_op_imm(r: &mut Prng) -> Inst {
    let kind = *r.pick(OpImmKind::ALL);
    let imm = match kind.shamt_bits() {
        Some(bits) => r.below(1 << bits) as i32,
        None => i12(r),
    };
    Inst::OpImm {
        kind,
        rd: xreg(r),
        rs1: xreg(r),
        imm,
    }
}

type Gen = fn(&mut Prng) -> Inst;

/// One random well-formed instruction per constructor family, as a list of
/// `(name, generator)` pairs so failures identify the family.
fn generators() -> Vec<(&'static str, Gen)> {
    vec![
        ("lui", |r| Inst::Lui {
            rd: xreg(r),
            imm20: imm20(r),
        }),
        ("auipc", |r| Inst::Auipc {
            rd: xreg(r),
            imm20: imm20(r),
        }),
        ("jal", |r| Inst::Jal {
            rd: xreg(r),
            offset: (r.range_i64(-(1 << 19), 1 << 19) * 2) as i32,
        }),
        ("jalr", |r| Inst::Jalr {
            rd: xreg(r),
            rs1: xreg(r),
            offset: i12(r),
        }),
        ("branch", |r| Inst::Branch {
            kind: *r.pick(BranchKind::ALL),
            rs1: xreg(r),
            rs2: xreg(r),
            offset: (r.range_i64(-(1 << 11), 1 << 11) * 2) as i32,
        }),
        ("load", |r| Inst::Load {
            kind: *r.pick(LoadKind::ALL),
            rd: xreg(r),
            rs1: xreg(r),
            offset: i12(r),
        }),
        ("store", |r| Inst::Store {
            kind: *r.pick(StoreKind::ALL),
            rs1: xreg(r),
            rs2: xreg(r),
            offset: i12(r),
        }),
        ("op_imm", gen_op_imm),
        ("op", |r| Inst::Op {
            kind: *r.pick(OpKind::ALL),
            rd: xreg(r),
            rs1: xreg(r),
            rs2: xreg(r),
        }),
        ("unary", |r| Inst::Unary {
            kind: *r.pick(UnaryKind::ALL),
            rd: xreg(r),
            rs1: xreg(r),
        }),
        ("system", |r| {
            *r.pick(&[Inst::Fence, Inst::Ecall, Inst::Ebreak])
        }),
        ("fload", |r| Inst::FLoad {
            width: fp_width(r),
            frd: freg(r),
            rs1: xreg(r),
            offset: i12(r),
        }),
        ("fstore", |r| Inst::FStore {
            width: fp_width(r),
            frs2: freg(r),
            rs1: xreg(r),
            offset: i12(r),
        }),
        ("fop", |r| Inst::FOp {
            kind: *r.pick(FOpKind::ALL),
            width: fp_width(r),
            frd: freg(r),
            frs1: freg(r),
            frs2: freg(r),
        }),
        ("fcmp", |r| Inst::FCmp {
            kind: *r.pick(FCmpKind::ALL),
            width: fp_width(r),
            rd: xreg(r),
            frs1: freg(r),
            frs2: freg(r),
        }),
        ("fmv_to_x", |r| Inst::FMvToX {
            width: fp_width(r),
            rd: xreg(r),
            frs1: freg(r),
        }),
        ("fmv_to_f", |r| Inst::FMvToF {
            width: fp_width(r),
            frd: freg(r),
            rs1: xreg(r),
        }),
        ("fcvt_to_f", |r| Inst::FCvtToF {
            width: fp_width(r),
            from: int_width(r),
            signed: r.next_bool(),
            frd: freg(r),
            rs1: xreg(r),
        }),
        ("fcvt_to_int", |r| Inst::FCvtToInt {
            width: fp_width(r),
            to: int_width(r),
            signed: r.next_bool(),
            rd: xreg(r),
            frs1: freg(r),
        }),
        ("fcvt_ff", |r| Inst::FCvtFF {
            to: fp_width(r),
            frd: freg(r),
            frs1: freg(r),
        }),
        ("fma", |r| Inst::FMa {
            kind: *r.pick(FMaKind::ALL),
            width: fp_width(r),
            frd: freg(r),
            frs1: freg(r),
            frs2: freg(r),
            frs3: freg(r),
        }),
        ("vsetvli", |r| Inst::Vsetvli {
            rd: xreg(r),
            rs1: xreg(r),
            vtype: vtype(r),
        }),
        ("vload", |r| Inst::VLoad {
            eew: eew(r),
            vd: vreg(r),
            rs1: xreg(r),
        }),
        ("vstore", |r| Inst::VStore {
            eew: eew(r),
            vs3: vreg(r),
            rs1: xreg(r),
        }),
        ("varith", gen_varith),
        ("vmv_x_s", |r| Inst::VMvXS {
            rd: xreg(r),
            vs2: vreg(r),
        }),
        ("vmv_s_x", |r| Inst::VMvSX {
            vd: vreg(r),
            rs1: xreg(r),
        }),
    ]
}

/// The core contract: `decode(encode(i)) == i` (with `len == 4`) for ~10k
/// random operand combinations per constructor family, and when the
/// instruction also has a compressed form, `decode` of that 16-bit word
/// yields the identical canonical instruction with `len == 2`.
#[test]
fn encode_decode_roundtrip_per_constructor() {
    for (name, gen) in generators() {
        let mut r = Prng::new(0x5eed_0000 ^ name.len() as u64 ^ (name.as_bytes()[0] as u64) << 8);
        for case in 0..CASES {
            let inst = gen(&mut r);
            let word = encode(&inst)
                .unwrap_or_else(|e| panic!("{name}[{case}]: `{inst}` failed to encode: {e}"));
            let back = decode(word)
                .unwrap_or_else(|e| panic!("{name}[{case}]: `{inst}` ({word:#010x}): {e}"));
            assert_eq!(
                back,
                Decoded { inst, len: 4 },
                "{name}[{case}]: {word:#010x} misdecoded"
            );
            if let Some(half) = encode_compressed(&inst) {
                let cback = decode(half as u32).unwrap_or_else(|e| {
                    panic!("{name}[{case}]: compressed `{inst}` ({half:#06x}): {e}")
                });
                assert_eq!(
                    cback,
                    Decoded { inst, len: 2 },
                    "{name}[{case}]: compressed {half:#06x} misdecoded"
                );
            }
        }
    }
}

/// The integer source operands of `inst`, in operand order — the
/// allocating list `Inst::uses_x` returned before it became a [`RegSet`]
/// mask, kept here as the reference for it.
fn listed_uses(inst: &Inst) -> Vec<XReg> {
    let mut v = match *inst {
        Inst::Jalr { rs1, .. }
        | Inst::Load { rs1, .. }
        | Inst::OpImm { rs1, .. }
        | Inst::Unary { rs1, .. }
        | Inst::FLoad { rs1, .. }
        | Inst::FStore { rs1, .. }
        | Inst::FMvToF { rs1, .. }
        | Inst::FCvtToF { rs1, .. }
        | Inst::Vsetvli { rs1, .. }
        | Inst::VLoad { rs1, .. }
        | Inst::VStore { rs1, .. }
        | Inst::VMvSX { rs1, .. }
        | Inst::VArith {
            src: VSrc::X(rs1), ..
        } => vec![rs1],
        Inst::Branch { rs1, rs2, .. }
        | Inst::Store { rs1, rs2, .. }
        | Inst::Op { rs1, rs2, .. } => {
            vec![rs1, rs2]
        }
        _ => vec![],
    };
    v.retain(|r| *r != XReg::ZERO);
    v
}

/// Liveness reads `uses_x` as a mask: it must hold exactly the listed
/// source registers, never `zero`, and `def_x` must never report `zero`.
#[test]
fn uses_mask_matches_the_operand_list_per_constructor() {
    for (name, gen) in generators() {
        let mut r = Prng::new(0x05e5_0000 ^ name.len() as u64 ^ (name.as_bytes()[0] as u64) << 8);
        for case in 0..CASES {
            let inst = gen(&mut r);
            let mut listed = listed_uses(&inst);
            listed.sort();
            listed.dedup();
            let mask: Vec<XReg> = inst.uses_x().iter().collect();
            assert_eq!(mask, listed, "{name}[{case}]: `{inst}`");
            assert_ne!(inst.def_x(), Some(XReg::ZERO), "{name}[{case}]: `{inst}`");
        }
    }
}

/// The ≥48-bit reserved prefix (`bits[4:0] = 11111`) must always decode to
/// [`DecodeError::ReservedLong`], never to an instruction — the property
/// Chimera's compressed-safe SMILE interior-byte placement (P2) rests on.
#[test]
fn reserved_long_prefixes_always_reject() {
    let mut r = Prng::new(0x4e5e4ed);
    for _ in 0..CASES {
        let word = (r.next_u32() & !0b11111) | 0b11111;
        match decode(word) {
            Err(DecodeError::ReservedLong(w)) => assert_eq!(w, word),
            other => panic!("{word:#010x}: expected ReservedLong, got {other:?}"),
        }
    }
    // The two anchor cases: 48-bit space (0011111) and 64-bit+ (1111111).
    assert!(matches!(
        decode(0b0011111),
        Err(DecodeError::ReservedLong(_))
    ));
    assert!(matches!(
        decode(0b1111111),
        Err(DecodeError::ReservedLong(_))
    ));
}

/// Targeted reserved/illegal encodings reject rather than misdecode.
#[test]
fn reserved_encodings_reject() {
    // The all-zero word is defined illegal in the C extension.
    assert!(decode(0).is_err());
    // c.fld (op=00, funct3=001) is outside the modelled subset.
    assert!(decode(0x2000).is_err());

    // MISC-MEM is `fence` (funct3 = 000) only: `fence.i`, the `cbo.*` row
    // and a reserved funct3 must raise the illegal-instruction trap.
    for word in [0x0000_100f, 0x0000_200f, 0x0000_700f] {
        assert!(
            matches!(decode(word), Err(DecodeError::Unrecognized(w)) if w == word),
            "{word:#010x}"
        );
    }
    // ... while any `fm`/`pred`/`succ`/`rd`/`rs1` under funct3 = 000 is a fence.
    assert_eq!(decode(0x8330_000f).unwrap().inst, Inst::Fence); // fence.tso
    assert_eq!(decode(0x0ff0_000f).unwrap().inst, Inst::Fence);

    // vsetvli with bit 31 set (vsetvl/vsetivli space, outside the subset).
    let vsetvli = encode(&Inst::Vsetvli {
        rd: XReg::T0,
        rs1: XReg::A0,
        vtype: VType {
            sew: Eew::E64,
            lmul: 1,
            ta: true,
            ma: true,
        },
    })
    .unwrap();
    assert!(decode(vsetvli | 1 << 31).is_err());

    // Fractional-LMUL vtype (vlmul = 0b101) is outside the subset.
    let frac = (vsetvli & !(0b111 << 20)) | (0b101 << 20);
    assert!(decode(frac).is_err());

    // A masked vector op (vm = 0): all supported arithmetic is unmasked.
    let vadd = encode(&Inst::VArith {
        op: VArithOp::Vadd,
        vd: VReg::of(1),
        vs2: VReg::of(2),
        src: VSrc::V(VReg::of(3)),
    })
    .unwrap();
    assert!(decode(vadd & !(1 << 25)).is_err());

    // vmv.v.v with a nonzero vs2 field is reserved.
    let vmv = encode(&Inst::VArith {
        op: VArithOp::Vmv,
        vd: VReg::of(1),
        vs2: VReg::of(0),
        src: VSrc::V(VReg::of(3)),
    })
    .unwrap();
    assert!(decode(vmv | (7 << 20)).is_err());
}

/// `decode` is total: arbitrary 32-bit words either decode or return an
/// error — never panic, and a decoded result always re-encodes to bytes
/// that decode back to itself (decode∘encode idempotence on the image).
#[test]
fn decode_never_panics_and_is_stable() {
    let mut r = Prng::new(0xf0220);
    for _ in 0..20 * CASES {
        let word = r.next_u32();
        if let Ok(d) = decode(word) {
            // Every decodable word's canonical form re-encodes to 32 bits
            // (some RVC HINT-adjacent forms, e.g. `c.addi rd, 0`, decode
            // but are deliberately never *emitted* compressed).
            let re = encode(&d.inst).expect("decoded inst must re-encode");
            let d2 = decode(re).expect("re-encoded inst must decode");
            assert_eq!(d2.inst, d.inst, "{word:#010x} -> {re:#010x} unstable");
            if d.len == 2 {
                if let Some(half) = encode_compressed(&d.inst) {
                    let d3 = decode(half as u32).expect("re-encoded RVC inst must decode");
                    assert_eq!(d3.inst, d.inst, "{word:#010x} -> {half:#06x} unstable");
                }
            }
        }
    }
}
