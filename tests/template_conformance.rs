//! Executed template conformance (ROADMAP item 3, step 0).
//!
//! What each downgrade template *computes* — not which instructions have
//! one (`can_downgrade_is_downgrade_succeeding_on_every_table_row`) nor
//! the bytes it emits (the golden digests). One source instruction per
//! program, generated from the ISA tables (`VArithOp::ALL` ×
//! `VArithOp::allows`, `OpKind::ALL`, `UnaryKind::ALL`), crossed with what
//! a template treats specially: both element widths, boundary vector
//! lengths, destination / source aliasing, and operands in the
//! translation's own scratch pools — and runs of vector instructions,
//! which translate as one body with one element loop per stretch of
//! element-wise operations (`runs_match_the_vector_core`). The
//! CHBP-downgraded program on a base core must leave the same x and f
//! register files, writable memory and vector state (`.chimera.vregs`
//! against the hart) as the original on a core that has the extension, in
//! `ExecMode::Reference`.

use chimera_emu::ExecMode;
use chimera_isa::{
    Eew, Ext, ExtSet, FReg, FpWidth, Inst, OpImmKind, OpKind, UnaryKind, VArithOp, VReg, VSrc,
    VType, XReg, VLEN,
};
use chimera_kernel::{KernelRunner, Process, RunOutcome, RuntimeTables, Tracer, Variant};
use chimera_obj::{Binary, DataSec, ModuleBuilder};
use chimera_rewrite::translate::{SpillLayout, Translator};
use chimera_rewrite::{chbp_rewrite, RewriteOptions};
use chimera_testutil::{run_under_kernel, run_under_kernel_at, writable_bytes, FUEL};

const VLENB: usize = VLEN as usize / 8;
/// The translation's scratch pools (`translate.rs`): an operand here is
/// read from, and a destination here written through, its save slot.
const X_POOL: [XReg; 5] = [XReg::T2, XReg::T3, XReg::T4, XReg::T5, XReg::T6];
const F_SCRATCH: [FReg; 3] = [FReg::of(28), FReg::of(29), FReg::of(30)];

/// Everything a program leaves behind that the two runs must agree on.
#[derive(Debug, PartialEq)]
struct Final {
    x: [u64; 32],
    f: Vec<u64>,
    vl: u64,
    sew_bytes: u64,
    v: Vec<u8>,
    mem: Vec<(String, Vec<u8>)>,
}

/// The original on `profile`, in the reference interpreter.
fn native(bin: &Binary, profile: ExtSet) -> Final {
    let (mut cpu, mut mem) = chimera_emu::boot(bin, profile);
    cpu.set_mode(ExecMode::Reference);
    chimera_emu::run_cpu(&mut cpu, &mut mem, FUEL).expect("the original exits");
    let h = &cpu.hart;
    Final {
        x: h.xregs(),
        f: (0..32).map(|i| h.get_f(FReg::of(i))).collect(),
        vl: h.vl,
        sew_bytes: h.vtype.map_or(0, |t| t.sew.bytes()),
        v: (0..32).flat_map(|i| *h.get_v(VReg::of(i))).collect(),
        mem: writable_bytes(&mut mem, bin),
    }
}

/// The CHBP downgrade of `bin` for `target`, under the kernel on a
/// `target` core; vector state is read from the spill section. The fault
/// table must redirect `entry`.
fn downgraded(bin: &Binary, target: ExtSet, entry: Option<u64>) -> Final {
    let rw = chbp_rewrite(bin, target, RewriteOptions::default()).expect("rewrites");
    assert!(rw.fht.untranslated.is_empty(), "every case has a template");
    assert!(entry.is_none_or(|e| rw.fht.redirects.contains_key(&e)));
    let spill = rw.fht.spill_base;
    let tables = RuntimeTables {
        fht: Some(rw.fht),
        regen: None,
    };
    let mut kr = run_under_kernel(rw.binary, tables, target, ExecMode::Reference);
    assert_eq!(kr.cpu.stats.vector_insts, 0, "ran on the base core");
    let mut slot = |offset: i32, len: usize| {
        let addr = spill + offset as u64;
        kr.mem.peek(addr, len).expect("the spill section is mapped")
    };
    let dword = |bytes: Vec<u8>| u64::from_le_bytes(bytes.try_into().unwrap());
    Final {
        vl: dword(slot(SpillLayout::VL, 8)),
        sew_bytes: dword(slot(SpillLayout::SEW, 8)),
        v: slot(SpillLayout::VREGS, 32 * VLENB),
        x: kr.cpu.hart.xregs(),
        f: (0..32).map(|i| kr.cpu.hart.get_f(FReg::of(i))).collect(),
        mem: writable_bytes(&mut kr.mem, bin),
    }
}

fn vtype(sew: Eew) -> VType {
    let (lmul, ta, ma) = (1, true, true);
    VType { sew, lmul, ta, ma }
}

/// The source instructions under test and the state they run in.
struct Case {
    /// `SEW` of the `vsetvli` before the instructions under test.
    width: Eew,
    /// The vector length that `vsetvli` requests.
    vl: u64,
    /// Floating-point element data (small exact values) instead of the
    /// integer patterns.
    fp: bool,
    /// A register to point at the `mem` buffer (`vle` / `vse`).
    ptr: Option<XReg>,
    /// A register to point at `pat`, the patterns `v1..v4` start from.
    pat: Option<XReg>,
    /// Whether every `x` register the setup leaves alone (not `zero`, `sp`,
    /// `gp`, `tp`, a pointer or the `set` register) holds a distinct value
    /// when the instructions under test run.
    fill: bool,
    /// A register to load with a value after the common setup.
    set: Option<(XReg, i64)>,
    /// The instructions under test: one, or a run.
    run: Vec<Inst>,
    /// An erroneous jump into the block `vsetvli` (at this SEW); `run`, at
    /// this position of it, instead of running `run` in line.
    enter: Option<(Eew, usize)>,
}

/// Element `i` of source pattern `reg` at `width`: floats a few exact
/// binary fractions apart, both signs (no zero: `vfdiv`), or integers
/// around the sign and carry boundaries of both widths.
fn element(width: Eew, fp: bool, reg: usize, i: usize) -> u64 {
    let n = (reg * 8 + i) as i64;
    if fp {
        let v = (n - 13) as f64 * 0.75 + 0.125;
        return match width {
            Eew::E32 => (v as f32).to_bits() as u64,
            _ => v.to_bits(),
        };
    }
    const INTS: [u64; 8] = [
        0x7fff_ffff_ffff_ffff,
        0x8000_0000_0000_0000,
        0xffff_ffff_ffff_fffe,
        0x0000_0000_8000_0000,
        0x0000_0001_7fff_ffff,
        0x0123_4567_89ab_cdef,
        3,
        0xffff_ffff_8000_0001,
    ];
    INTS[(n as usize) % 8].wrapping_mul(2 * reg as u64 + 1) ^ (i as u64)
}

/// `v1..v4` loaded with patterns, every scratch-pool register, `a3`, `a5`,
/// `a6` and `fa0` holding a known value, `vl` and `SEW` set as the case
/// asks, then the instructions under test and `exit`. What they wrote is
/// read off the final state; so is whether every scratch came back.
fn vector_program(c: &Case) -> Binary {
    let esz = c.width.bytes() as usize;
    let mut b = ModuleBuilder::new(false);
    b.data_label(DataSec::Rw, "pat");
    for reg in 0..4 {
        for i in 0..VLENB / esz {
            let e = element(c.width, c.fp, reg, i).to_le_bytes();
            b.data_bytes(DataSec::Rw, &e[..esz]);
        }
    }
    // Scalar fp operands as register images, loaded by `fld`: doubles, or
    // singles alternately NaN-boxed and not (an improperly boxed single
    // reads as the canonical NaN).
    b.data_label(DataSec::Rw, "scalars");
    for i in 0..4 {
        let boxed = c.width == Eew::E32 && i % 2 == 1;
        let image = element(c.width, true, 5, i) | if boxed { 0xffff_ffff << 32 } else { 0 };
        b.dword(DataSec::Rw, image);
    }
    b.data_label(DataSec::Rw, "mem");
    for i in 0..VLENB / esz {
        let e = element(c.width, c.fp, 4, i).to_le_bytes();
        b.data_bytes(DataSec::Rw, &e[..esz]);
    }

    b.label("_start").la(XReg::A0, "pat");
    b.inst(Inst::Vsetvli {
        rd: XReg::T0,
        rs1: XReg::ZERO,
        vtype: vtype(Eew::E64),
    });
    for reg in 1..=4 {
        b.inst(Inst::VLoad {
            eew: Eew::E64,
            vd: VReg::of(reg),
            rs1: XReg::A0,
        });
        b.inst(chimera_obj::addi(XReg::A0, XReg::A0, VLENB as i32));
    }
    b.la(XReg::A0, "scalars");
    for (i, frd) in [FReg::of(10)].into_iter().chain(F_SCRATCH).enumerate() {
        b.inst(Inst::FLoad {
            width: FpWidth::D,
            frd,
            rs1: XReg::A0,
            offset: 8 * i as i32,
        });
    }
    // `a3`, `a5` and one pool register are not sign-extended 32-bit values:
    // at `e32` an `x` operand is its low 32 bits. `a6` is the largest
    // positive one.
    b.li(XReg::A3, 0x1_0000_0005);
    b.li(XReg::A5, 0xffff_fff0).li(XReg::A6, 0x7fff_ffff);
    for (i, r) in X_POOL.into_iter().enumerate() {
        b.li(r, [0x1111, -7, 0x7fff_fff0, 41, 0x8000_0000][i]);
    }
    if c.fill {
        let kept = [
            XReg::ZERO,
            XReg::SP,
            XReg::GP,
            XReg::TP,
            XReg::A3,
            XReg::A5,
            XReg::A6,
        ];
        let filled = XReg::all().filter(|r| {
            !kept.contains(r) && !X_POOL.contains(r) && ![c.ptr, c.pat].contains(&Some(*r))
        });
        for r in filled {
            b.li(r, 0x5eed_0000 + 0x101 * r.index() as i64);
        }
    }
    if let Some(r) = c.ptr {
        b.la(r, "mem");
    }
    if let Some(r) = c.pat {
        b.la(r, "pat");
    }
    b.li(XReg::A1, c.vl as i64);
    b.inst(Inst::Vsetvli {
        rd: XReg::A2,
        rs1: XReg::A1,
        vtype: vtype(c.width),
    });
    if let Some((r, v)) = c.set {
        b.li(r, v);
    }
    if let Some((sew, at)) = c.enter {
        // The block's `vsetvli` is its site; the jump's target is known
        // only at run time, so the partition overwrites its second
        // instruction with the trampoline all the same.
        b.la(XReg::RA, "block")
            .inst(chimera_obj::addi(XReg::RA, XReg::RA, 4 * at as i32));
        let (rd, rs1, offset) = (XReg::ZERO, XReg::RA, 0);
        b.inst(Inst::Jalr { rd, rs1, offset });
        b.label("block").global("block");
        let (rd, rs1, vtype) = (XReg::A2, XReg::A1, vtype(sew));
        b.inst(Inst::Vsetvli { rd, rs1, vtype });
    }
    for &inst in &c.run {
        b.inst(inst);
    }
    b.li(XReg::A7, 93).inst(Inst::Ecall);
    b.build(ExtSet::RV64GCV).expect("the case assembles")
}

fn check_vector(cases: impl IntoIterator<Item = Case>) -> usize {
    let mut n = 0;
    for c in cases {
        let bin = vector_program(&c);
        let expected = native(&bin, ExtSet::RV64GCV);
        // A jump to the block's second instruction takes its entry head.
        let entry = match c.enter {
            Some((_, 1)) => Some(bin.symbol("block").expect("a global").addr + 4),
            _ => None,
        };
        let got = downgraded(&bin, ExtSet::RV64GC, entry);
        let run: Vec<String> = c.run.iter().map(Inst::to_string).collect();
        let (run, width, vl, set, enter) = (run.join("; "), c.width, c.vl, c.set, c.enter);
        let case = format!("{run} at {width:?}, vl = {vl}, set {set:?}, enter {enter:?}");
        assert_eq!(got, expected, "{case}");
        n += 1;
    }
    n
}

/// Both widths × `vl` ∈ {0, 1, VLMAX − 1, VLMAX}.
fn shapes() -> impl Iterator<Item = (Eew, u64)> {
    [Eew::E32, Eew::E64].into_iter().flat_map(|width| {
        let vlmax = VLENB as u64 / width.bytes();
        [0, 1, vlmax - 1, vlmax].map(|vl| (width, vl))
    })
}

#[test]
fn every_varith_row_and_form_matches_the_vector_core() {
    let v = VReg::of;
    let mut cases = Vec::new();
    for &op in VArithOp::ALL {
        // (vd, vs2, src): plain, then each aliasing the form allows, then
        // every scratch-pool operand.
        let mut operands = vec![
            (v(3), v(1), VSrc::V(v(2))),
            (v(1), v(1), VSrc::V(v(2))),
            (v(2), v(1), VSrc::V(v(2))),
            (v(3), v(1), VSrc::X(XReg::A3)),
            (v(1), v(1), VSrc::X(XReg::A3)),
            (v(3), v(1), VSrc::F(FReg::of(10))),
            (v(1), v(1), VSrc::F(FReg::of(10))),
            (v(3), v(1), VSrc::I(-3)),
            (v(1), v(1), VSrc::I(7)),
        ];
        operands.extend(X_POOL.map(|r| (v(3), v(1), VSrc::X(r))));
        operands.extend(F_SCRATCH.map(|f| (v(3), v(1), VSrc::F(f))));
        for (vd, vs2, src) in operands {
            if !op.allows(src) {
                continue;
            }
            // The moves encode `vs2 = v0`.
            let v0_for_v1 = |r| {
                if op == VArithOp::Vmv && r == v(1) {
                    v(0)
                } else {
                    r
                }
            };
            let (vd, vs2) = (v0_for_v1(vd), v0_for_v1(vs2));
            let iut = Inst::VArith { op, vd, vs2, src };
            cases.extend(shapes().map(|(width, vl)| Case {
                width,
                vl,
                fp: op.is_fp(),
                ptr: None,
                pat: None,
                fill: false,
                set: None,
                run: vec![iut],
                enter: None,
            }));
        }
    }
    assert_eq!(check_vector(cases), 156 * 8, "forms the ISA table admits");
}

/// The `.vx` scalars a run reads: non-scratch registers whose upper half is
/// not the sign extension of the lower, then the scratch pool.
const X_SCALARS: [XReg; 7] = [
    XReg::A3,
    XReg::A5,
    XReg::T2,
    XReg::T3,
    XReg::T4,
    XReg::T5,
    XReg::T6,
];
/// The `.vf` scalars: `fa0` (not NaN-boxed at `e32`), then the scratch
/// pool, alternately boxed and not.
const F_SCALARS: [FReg; 4] = [FReg::of(10), F_SCRATCH[0], F_SCRATCH[1], F_SCRATCH[2]];

/// A chain of `len` element-wise operations from `combos` (row, form),
/// starting at `start`: each one's `vs2` is the previous one's `vd` (the
/// element loop forwards it), and its `vd` is, in turn, a fresh register,
/// `vs2` itself, and `vs1` where the form has one.
fn chain(combos: &[(VArithOp, VSrc)], start: usize, len: usize) -> Vec<Inst> {
    let v = VReg::of;
    let mut prev = v(1);
    (start..start + len)
        .map(|n| {
            let (op, form) = combos[n % combos.len()];
            // The moves encode `vs2 = v0`.
            let vs2 = if op == VArithOp::Vmv { v(0) } else { prev };
            let src = match form {
                VSrc::V(_) => VSrc::V(v(2)),
                VSrc::X(_) => VSrc::X(X_SCALARS[n % X_SCALARS.len()]),
                VSrc::F(_) => VSrc::F(F_SCALARS[n % F_SCALARS.len()]),
                VSrc::I(_) => VSrc::I([-3, 7, 15, -16][n % 4]),
            };
            let vd = match ((n - start) % 3, src) {
                (1, _) if op != VArithOp::Vmv => vs2,
                (2, VSrc::V(vs1)) => vs1,
                (0, _) => v(3),
                _ => v(4),
            };
            prev = vd;
            Inst::VArith { op, vd, vs2, src }
        })
        .collect()
}

/// Runs: chains of 2–6 element-wise operations over every row and every
/// form it has, an `e32` add that overflows (`0x7fff_ffff + 1`) forwarded
/// into `vmin`, `vmax` and `vmul`, and a fold whose `vs1` the stretch
/// before it writes. Each at both widths and `vl` ∈ {0, 1, VLMAX}, right
/// after the `vsetvli` (the run knows its SEW) and behind a scalar
/// instruction (the run dispatches on the spilled one). A build that
/// forwards an `e32` result without sign-extending it fails the overflow
/// chains: `vmin` with 5 gives 5, not `i32::MIN`.
#[test]
fn runs_match_the_vector_core() {
    use VArithOp::*;
    let v = VReg::of;
    let mut runs = Vec::new();
    for fp in [false, true] {
        let forms = [
            VSrc::V(v(2)),
            VSrc::X(XReg::A3),
            VSrc::F(FReg::of(10)),
            VSrc::I(0),
        ];
        let combos: Vec<(VArithOp, VSrc)> = VArithOp::ALL
            .iter()
            .filter(|op| op.is_fp() == fp && !op.is_reduction())
            .flat_map(|&op| {
                forms
                    .iter()
                    .filter(move |&&s| op.allows(s))
                    .map(move |&s| (op, s))
            })
            .collect();
        for len in 2..=6 {
            runs.extend((0..combos.len()).map(|start| (fp, chain(&combos, start, len))));
        }
    }
    let varith = |op, vd, vs2, src| Inst::VArith { op, vd, vs2, src };
    for op in [Vmin, Vmax, Vmul] {
        runs.push((
            false,
            vec![
                varith(Vmv, v(4), v(0), VSrc::I(1)),
                varith(Vmv, v(3), v(0), VSrc::X(XReg::A6)),
                varith(Vadd, v(3), v(3), VSrc::V(v(4))),
                varith(op, v(5), v(3), VSrc::X(XReg::A3)),
            ],
        ));
    }
    for (fp, (op, fold)) in [(false, (Vadd, Vredsum)), (true, (Vfmul, Vfredusum))] {
        runs.push((
            fp,
            vec![
                varith(op, v(3), v(1), VSrc::V(v(2))),
                varith(op, v(4), v(2), VSrc::V(v(1))),
                varith(fold, v(5), v(3), VSrc::V(v(4))),
            ],
        ));
    }
    let mut cases = Vec::new();
    for (fp, run) in &runs {
        // `vl` ∈ {0, 1, VLMAX}.
        for (width, vl) in shapes().filter(|&(w, vl)| vl + 1 != VLENB as u64 / w.bytes()) {
            for set in [None, Some((XReg::S1, 1))] {
                let (run, ptr) = (run.clone(), None);
                let (width, vl, fp) = (width, vl, *fp);
                cases.push(Case {
                    width,
                    vl,
                    fp,
                    ptr,
                    pat: None,
                    fill: false,
                    set,
                    run,
                    enter: None,
                });
            }
        }
    }
    assert_eq!(runs.len(), 5 * (25 + 10) + 3 + 2);
    assert_eq!(check_vector(cases), runs.len() * 2 * 3 * 2);
}

/// Stretches whose elements the loop holds in registers (ROADMAP item 4),
/// built at the case's width so that their leading loads join the loop: a
/// leading `vle` whose `vd` the stretch writes again, two leading loads
/// into one `vd`, destinations that alias their own sources, and two long
/// bodies (the `speclike` vector loop and an FP chain over four live
/// sources) that borrow `x` and `f` registers. Each at both widths and every boundary `vl`, right after
/// the `vsetvli` (one loop) and behind a scalar instruction (the SEW
/// dispatch: the `e64` copy fuses the loads, the `e32` copy loops over
/// them first at `e64`), with every `x` register the run may borrow
/// holding a distinct value — a borrowed register left unrestored shows in
/// the compared `x` file.
#[test]
fn stretches_held_in_registers_match_the_vector_core() {
    use VArithOp::*;
    let v = VReg::of;
    let varith = |op, vd, vs2, src| Inst::VArith { op, vd, vs2, src };
    let vv = |op, vd, vs2, vs1| varith(op, vd, vs2, VSrc::V(v(vs1)));
    let (mem, pat) = (XReg::A4, XReg::A7);
    let runs = |width: Eew| {
        let vle = |vd, rs1| Inst::VLoad {
            eew: width,
            vd: v(vd),
            rs1,
        };
        let (v1, v2, v3, v4, v5, v6, v7) = (v(1), v(2), v(3), v(4), v(5), v(6), v(7));
        [
            (
                false,
                vec![vle(3, mem), vv(Vadd, v3, v3, 1), vv(Vmul, v5, v3, 2)],
            ),
            (
                false,
                vec![vle(3, mem), vv(Vmin, v5, v3, 1), vv(Vadd, v3, v5, 3)],
            ),
            (
                true,
                vec![vle(3, mem), vv(Vfadd, v3, v3, 1), vv(Vfmul, v5, v3, 2)],
            ),
            (
                false,
                vec![
                    vle(3, mem),
                    vle(3, pat),
                    vv(Vadd, v4, v3, 1),
                    vv(Vxor, v3, v4, 3),
                ],
            ),
            (true, vec![vle(3, pat), vle(3, mem), vv(Vfmacc, v4, v3, 3)]),
            (
                false,
                vec![
                    vv(Vadd, v1, v1, 1),
                    vv(Vmacc, v1, v1, 1),
                    vv(Vmax, v1, v1, 1),
                ],
            ),
            (
                false,
                vec![
                    vle(1, mem),
                    vv(Vmacc, v1, v1, 1),
                    vv(Vmin, v2, v2, 1),
                    vv(Vsub, v1, v2, 1),
                ],
            ),
            (
                true,
                vec![
                    vle(1, mem),
                    vv(Vfmul, v1, v1, 1),
                    vv(Vfmacc, v1, v1, 1),
                    vv(Vfsub, v2, v1, 2),
                ],
            ),
            (
                false,
                vec![
                    vle(1, mem),
                    varith(Vmv, v2, v(0), VSrc::X(XReg::A3)),
                    vv(Vmul, v3, v1, 2),
                    vv(Vadd, v6, v3, 1),
                    vv(Vxor, v7, v6, 2),
                    vv(Vmacc, v3, v6, 7),
                    vv(Vsub, v6, v3, 1),
                    vv(Vand, v7, v6, 2),
                    vv(Vor, v6, v7, 1),
                    vv(Vmul, v3, v6, 3),
                    varith(Vadd, v3, v3, VSrc::I(5)),
                    varith(Vmv, v4, v(0), VSrc::I(0)),
                    vv(Vredsum, v5, v3, 4),
                ],
            ),
            (
                true,
                vec![
                    vle(1, mem),
                    vv(Vfadd, v5, v1, 2),
                    vv(Vfmul, v6, v3, 4),
                    vv(Vfsub, v7, v1, 3),
                    vv(Vfadd, v(8), v2, 4),
                    vv(Vfmacc, v5, v6, 7),
                    vv(Vfmacc, v(8), v1, 2),
                    varith(Vfmul, v6, v3, VSrc::F(FReg::of(10))),
                    vv(Vfsub, v7, v5, 8),
                ],
            ),
        ]
    };
    let mut cases = Vec::new();
    for (width, vl) in shapes() {
        for (fp, run) in runs(width) {
            for set in [None, Some((XReg::S1, 1))] {
                let (ptr, pat, fill) = (Some(mem), Some(pat), true);
                let run = run.clone();
                cases.push(Case {
                    width,
                    vl,
                    fp,
                    ptr,
                    pat,
                    fill,
                    set,
                    run,
                    enter: None,
                });
            }
        }
    }
    assert_eq!(check_vector(cases), 8 * 10 * 2);
}

/// Folds that join the stretch before them (ROADMAP item 4): every `Fold`
/// and `FFold` row after stretches that write its `vs1`, its `vs2`, both,
/// neither, or lead with a load into `vs2`, with `vd` fresh or aliasing
/// `vs1` or `vs2`, and `vmv.x.s` after. An FP row whose stretch writes
/// `vs1` stays a fold of its own; it must still be right. Each at both
/// widths and every boundary `vl`, where the run knows its SEW and where it
/// dispatches on the spilled one.
#[test]
fn folds_joining_their_stretch_match_the_vector_core() {
    use VArithOp::*;
    let v = VReg::of;
    let vv = |op, vd, vs2, vs1| Inst::VArith {
        op,
        vd: v(vd),
        vs2: v(vs2),
        src: VSrc::V(v(vs1)),
    };
    let mem = XReg::A4;
    let folds = VArithOp::ALL.iter().filter(|op| op.is_reduction());
    let mut cases = Vec::new();
    for &fold in folds {
        let (fp, op) = (fold.is_fp(), if fold.is_fp() { Vfmul } else { Vadd });
        for (width, vl) in shapes() {
            let vle = Inst::VLoad {
                eew: width,
                vd: v(3),
                rs1: mem,
            };
            // The fold reads `vs2 = v3` and `vs1 = v4`.
            let stretches = [
                vec![vv(op, 4, 1, 2)],
                vec![vv(op, 3, 1, 2)],
                vec![vv(op, 3, 1, 2), vv(op, 4, 2, 1)],
                vec![vv(op, 5, 1, 2)],
                vec![vle, vv(op, 5, 3, 1)],
            ];
            for stretch in stretches {
                for vd in [6, 4, 3] {
                    for set in [None, Some((XReg::S1, 1))] {
                        let mut run = stretch.clone();
                        run.push(vv(fold, vd, 3, 4));
                        run.push(Inst::VMvXS {
                            rd: XReg::A5,
                            vs2: v(vd),
                        });
                        cases.push(Case {
                            width,
                            vl,
                            fp,
                            ptr: Some(mem),
                            pat: None,
                            fill: false,
                            set,
                            run,
                            enter: None,
                        });
                    }
                }
            }
        }
    }
    assert_eq!(check_vector(cases), 2 * 8 * 5 * 3 * 2);
}

/// Erroneous jumps into a downgraded loop block (ROADMAP item 4): the block
/// `vsetvli; run` entered at each interior position, with the SEW and `vl`
/// the jump finds (both widths × every boundary `vl`) crossed with the
/// SEW of the block's own `vsetvli`. The second instruction's bytes hold
/// the trampoline, so the jump there goes through the fault table to the
/// run's entry head: straight into the run's code for the SEW it was
/// emitted for, through the entry's own copy for the other, which
/// rejoins the run at its next `vsetvli` or end. A jump further in finds
/// the instruction's own bytes, which the kernel's lazy rewriter
/// translates. Runs: the `speclike` loop body, with its fold inside the
/// element loop; an FP stretch with its fold and a store; a second
/// `vsetvli` inside the run; and a `vsetvli` at the entry. An entry head
/// that skips its SEW dispatch fails the first three.
#[test]
fn erroneous_jumps_into_a_run_match_the_vector_core() {
    use VArithOp::*;
    let v = VReg::of;
    let varith = |op, vd, vs2, src| Inst::VArith {
        op,
        vd: v(vd),
        vs2: v(vs2),
        src,
    };
    let vv = |op, vd, vs2, vs1| varith(op, vd, vs2, VSrc::V(v(vs1)));
    let mem = XReg::A4;
    // Loads and stores at the SEW the jump finds: the hot code fuses them
    // where it has that SEW, the entry's copy where it does not.
    let runs = |width: Eew| {
        let vle = |vd| Inst::VLoad {
            eew: width,
            vd: v(vd),
            rs1: mem,
        };
        let (rd, rs1) = (XReg::A2, XReg::A1);
        let vsetvli = |sew| Inst::Vsetvli {
            rd,
            rs1,
            vtype: vtype(sew),
        };
        let vmv_x_s = Inst::VMvXS {
            rd: XReg::A5,
            vs2: v(5),
        };
        [
            (
                false,
                vec![
                    vle(1),
                    varith(Vmv, 2, 0, VSrc::X(XReg::A3)),
                    vv(Vmul, 3, 1, 2),
                    vv(Vmacc, 3, 1, 2),
                    varith(Vadd, 3, 3, VSrc::I(5)),
                    varith(Vmv, 4, 0, VSrc::I(0)),
                    vv(Vredsum, 5, 3, 4),
                    vmv_x_s,
                ],
            ),
            (
                true,
                vec![
                    vle(1),
                    vv(Vfmul, 3, 1, 2),
                    vv(Vfadd, 5, 3, 1),
                    vv(Vfredusum, 6, 5, 4),
                    Inst::VStore {
                        eew: width,
                        vs3: v(6),
                        rs1: mem,
                    },
                ],
            ),
            (
                false,
                vec![
                    vv(Vadd, 3, 1, 2),
                    vsetvli(Eew::E32),
                    vv(Vmul, 4, 3, 1),
                    vv(Vredsum, 5, 4, 3),
                    vmv_x_s,
                ],
            ),
            (
                false,
                vec![vsetvli(Eew::E64), vv(Vmacc, 3, 1, 2), vv(Vredsum, 5, 3, 4)],
            ),
        ]
    };
    let mut cases = Vec::new();
    for hot in [Eew::E32, Eew::E64] {
        for (width, vl) in shapes() {
            for (fp, run) in runs(width) {
                for at in 1..=run.len() {
                    cases.push(Case {
                        width,
                        vl,
                        fp,
                        ptr: Some(mem),
                        pat: None,
                        fill: true,
                        set: None,
                        run: run.clone(),
                        enter: Some((hot, at)),
                    });
                }
            }
        }
    }
    assert_eq!(check_vector(cases), 2 * (8 + 5 + 5 + 3) * 8);
}

/// A load that joins a stretch's loop and faults on its last element: the
/// fused loop has by then computed the stretch's first elements, which the
/// unfused run would not have. The kernel ends the guest on a data fault
/// either way — the vector core's `vle` and the downgraded loop stop on the
/// same unmapped address — so nothing the guest could observe differs.
#[test]
fn a_fused_load_faulting_on_its_last_element_ends_the_guest_either_way() {
    let vlmax = VLENB as i64 / 8;
    let end = chimera_obj::STACK_TOP;
    let mut b = ModuleBuilder::new(false);
    b.data_label(DataSec::Rw, "pad").dword(DataSec::Rw, 0);
    b.label("_start").li(XReg::A4, end as i64 - 8 * (vlmax - 1));
    let (vd, vs2, src) = (VReg::of(2), VReg::of(1), VSrc::V(VReg::of(1)));
    b.li(XReg::A1, vlmax).inst(Inst::Vsetvli {
        rd: XReg::A2,
        rs1: XReg::A1,
        vtype: vtype(Eew::E64),
    });
    b.inst(Inst::VLoad {
        eew: Eew::E64,
        vd: VReg::of(1),
        rs1: XReg::A4,
    });
    b.inst(Inst::VArith {
        op: VArithOp::Vadd,
        vd,
        vs2,
        src,
    });
    b.li(XReg::A7, 93).inst(Inst::Ecall);
    let bin = b.build(ExtSet::RV64GCV).expect("the case assembles");
    let outcome = |bin: Binary, tables, profile| {
        run_under_kernel_at(bin, tables, profile, ExecMode::Reference, None, FUEL).outcome
    };
    let native = outcome(bin.clone(), RuntimeTables::default(), ExtSet::RV64GCV);
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).expect("rewrites");
    let tables = RuntimeTables {
        fht: Some(rw.fht),
        regen: None,
    };
    let downgraded = outcome(rw.binary, tables, ExtSet::RV64GC);
    let fault = format!("Load fault at {end:#x} (unmapped)");
    for o in [native, downgraded] {
        assert!(
            matches!(&o, RunOutcome::Fatal(m) if m.ends_with(&fault)),
            "{o:?}"
        );
    }
}

#[test]
fn vsetvli_forms_loads_stores_and_scalar_moves_match_the_vector_core() {
    let v = VReg::of;
    let mut cases = Vec::new();
    for (width, vl) in shapes() {
        let case = |iut, ptr, set| Case {
            width,
            vl,
            fp: false,
            ptr,
            pat: None,
            fill: false,
            set,
            run: vec![iut],
            enter: None,
        };
        // The three `vsetvli` forms, changing to either width from the
        // current one: AVL from a register (also the destination, also a
        // scratch), VLMAX (`rs1 = zero`), and keep-`vl` (`rd = rs1 = zero`).
        for sew in [Eew::E32, Eew::E64] {
            let vtype = vtype(sew);
            let avl = [(XReg::A4, XReg::A5), (XReg::A4, XReg::A4)]
                .into_iter()
                .chain(X_POOL.map(|r| (XReg::A4, r)))
                .chain(X_POOL.map(|r| (r, XReg::A5)))
                .chain([(XReg::T3, XReg::T3), (XReg::ZERO, XReg::A5)]);
            for (rd, rs1) in avl {
                let iut = Inst::Vsetvli { rd, rs1, vtype };
                cases.push(case(iut, None, Some((rs1, (vl as i64 + 2) % 10))));
            }
            for rd in [XReg::A4, XReg::T2, XReg::T6, XReg::ZERO] {
                let rs1 = XReg::ZERO;
                cases.push(case(Inst::Vsetvli { rd, rs1, vtype }, None, None));
            }
        }
        for rs1 in [XReg::A0].into_iter().chain(X_POOL) {
            let eew = width;
            cases.push(case(Inst::VLoad { eew, vd: v(3), rs1 }, Some(rs1), None));
            let vs3 = v(2);
            cases.push(case(Inst::VStore { eew, vs3, rs1 }, Some(rs1), None));
        }
        // Element 0 of v2 is negative at `e32`; the scalar written into a
        // vector has its upper half set.
        for r in [XReg::A4].into_iter().chain(X_POOL) {
            cases.push(case(Inst::VMvXS { rd: r, vs2: v(2) }, None, None));
            let set = Some((r, -0x1_2345_6789));
            cases.push(case(Inst::VMvSX { vd: v(3), rs1: r }, None, set));
        }
    }
    assert_eq!(check_vector(cases), 8 * (2 * (14 + 4) + 12 + 12));
}

/// The Zba / Zbb rows: no vector state, `RV64GC` without `B` as the base.
#[test]
fn every_zba_zbb_row_matches_a_core_that_has_it() {
    let base = ExtSet::RV64GC.without(Ext::B);
    let (a0, a1, a2, t2, t3, t4) = (XReg::A0, XReg::A1, XReg::A2, XReg::T2, XReg::T3, XReg::T4);
    // (rd, rs1, rs2): plain; rd = rs1; rd = rs2; all one; scratch-pool
    // registers in every position; `zero` as the destination and as both
    // sources (the `clz` / `ctz` / `cpop` loops' zero exit, `rori`'s `mv`).
    let zero = XReg::ZERO;
    let shapes = [
        (a0, a1, a2),
        (a1, a1, a2),
        (a2, a1, a2),
        (a1, a1, a1),
        (t2, t3, t4),
        (t3, a1, t2),
        (a0, t2, t2),
        (t2, a1, a2),
        (zero, a1, a2),
        (a0, zero, zero),
    ];
    let mut insts = Vec::new();
    for (rd, rs1, rs2) in shapes {
        let b_rows = OpKind::ALL.iter().filter(|k| k.ext() == Some(Ext::B));
        insts.extend(b_rows.map(|&kind| Inst::Op { kind, rd, rs1, rs2 }));
        insts.extend(
            UnaryKind::ALL
                .iter()
                .map(|&kind| Inst::Unary { kind, rd, rs1 }),
        );
        let kind = OpImmKind::Rori;
        insts.extend([0, 17, 63].map(|imm| Inst::OpImm { kind, rd, rs1, imm }));
    }
    let values: [(i64, i64); 4] = [
        (0x0123_4567_89ab_cdef, 37),
        (i64::MIN, -1),
        (0, 64),
        (-0x7fff_ffff_0000_0001, 0x8000_0001),
    ];
    let mut n = 0;
    for iut in &insts {
        assert!(!iut.runnable_on(base), "{iut} is a Zba / Zbb row");
        for (x, y) in values {
            let mut b = ModuleBuilder::new(false);
            // A writable section for the comparison to cover.
            b.data_label(DataSec::Rw, "pad").dword(DataSec::Rw, 0);
            b.label("_start");
            for (i, r) in X_POOL.into_iter().enumerate() {
                b.li(r, [x, y, !x, x ^ y, 5][i]);
            }
            b.li(a0, 99).li(a1, x).li(a2, y);
            b.inst(*iut).li(XReg::A7, 93).inst(Inst::Ecall);
            let bin = b.build(ExtSet::RV64GC).expect("the case assembles");
            let expected = native(&bin, ExtSet::RV64GC);
            assert_eq!(
                downgraded(&bin, base, None),
                expected,
                "{iut} on {x:#x}, {y:#x}"
            );
            n += 1;
        }
    }
    assert_eq!(n, 10 * (13 + 7 + 3) * 4);
}

/// An instruction that writes `gp` has no template. Every template either
/// re-materializes `gp` or reaches the spill section through it, so a
/// downgraded `sh1add gp, t0, t1` left the ABI `gp` (71,680) where the
/// original leaves 29, and a downgraded `vsetvli gp, t0, e64` faulted in
/// the run's epilogue, restoring its scratches through the clobbered
/// pointer. Such an instruction stays untranslated, in the fault table's
/// `untranslated` set: started on a base core, the rewritten program
/// faults on it, the kernel migrates the task to a core that has the
/// extension, and it exits as the original does there.
#[test]
fn instructions_that_write_gp_stay_untranslated() {
    let (gp, t0, t1, v1) = (XReg::GP, XReg::T0, XReg::T1, VReg::of(1));
    let b_rows = OpKind::ALL.iter().filter(|k| k.ext() == Some(Ext::B));
    let mut probes: Vec<Inst> = b_rows
        .map(|&kind| Inst::Op {
            kind,
            rd: gp,
            rs1: t0,
            rs2: t1,
        })
        .collect();
    probes.extend(UnaryKind::ALL.iter().map(|&kind| Inst::Unary {
        kind,
        rd: gp,
        rs1: t1,
    }));
    let (kind, rd, rs1) = (OpImmKind::Rori, gp, t0);
    probes.extend([0, 3].map(|imm| Inst::OpImm { kind, rd, rs1, imm }));
    let vtype = vtype(Eew::E64);
    probes.push(Inst::Vsetvli { rd, rs1, vtype });
    probes.push(Inst::VMvXS { rd, vs2: v1 });
    for probe in probes {
        assert!(!Translator::can_downgrade(&probe), "{probe}");
        let vector = probe.ext() == Some(Ext::V);
        let (base, core) = match vector {
            true => (ExtSet::RV64GC, ExtSet::RV64GCV),
            false => (ExtSet::RV64GC.without(Ext::B), ExtSet::RV64GC),
        };
        let mut b = ModuleBuilder::new(false);
        b.label("_start").li(t0, 12).li(t1, 5);
        if vector {
            // `v1` = 5, through the downgraded run before the probe.
            let rd = XReg::ZERO;
            b.inst(Inst::Vsetvli { rd, rs1, vtype });
            b.inst(Inst::VMvSX { vd: v1, rs1: t1 });
        }
        b.label("probe").global("probe").inst(probe);
        b.inst(chimera_isa::mv(XReg::A0, gp));
        b.li(XReg::A7, 93).inst(Inst::Ecall);
        let bin = b.build(core).expect("the probe assembles");
        let at = bin.symbol("probe").expect("exported").addr;
        let native = chimera_emu::run_binary_on(&bin, core, FUEL).expect("the original exits");
        let rw = chbp_rewrite(&bin, base, RewriteOptions::default()).expect("rewrites");
        assert!(rw.fht.untranslated.contains(&at), "{probe}");
        let tables = RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        };
        let downgraded = Variant {
            binary: rw.binary,
            tables,
        };
        let process = Process::new(vec![Variant::native(bin), downgraded]);
        let (mut cpu, mut mem, view) = process.load(base).expect("the base view loads");
        cpu.set_mode(ExecMode::Reference);
        let mut k = KernelRunner::new(view.tables.clone());
        let exit = loop {
            match k.run(&mut cpu, &mut mem, FUEL) {
                RunOutcome::Exited(code) => break code,
                RunOutcome::NeedsMigration { pc } if pc == at => {
                    let tracer = &Tracer::disabled();
                    let moved = process.migrate(&mut cpu, &mut mem, &mut k, core, 0, tracer);
                    assert!(moved, "{probe}: the task migrates");
                }
                other => panic!("{probe}: {other:?}"),
            }
        };
        assert_eq!(exit, native.exit_code, "{probe}");
    }
}
