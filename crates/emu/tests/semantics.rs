//! Detailed ISA semantics: edge cases of the RV64 model that the rewriter
//! and translation templates depend on.

use chimera_emu::{run_binary, run_binary_mode, ExecMode, RunError, Trap};
use chimera_isa::ExtSet;
use chimera_obj::{assemble, AsmOptions};

fn exit_of(src: &str) -> i64 {
    let bin = assemble(src, AsmOptions::default()).expect("assembles");
    run_binary(&bin, 10_000_000).expect("runs").exit_code
}

#[test]
fn rotates_and_shifts() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 1
                ror t1, t0, t0      # rotate 1 right by 1 = 1<<63
                srli t1, t1, 60     # 8
                li t2, 0x10
                rol t3, t2, t0      # 0x20
                add a0, t1, t3      # 40
                rori t4, t0, 63     # 1 rot right 63 = 2
                add a0, a0, t4      # 42
                li a7, 93
                ecall
            "
        ),
        42
    );
}

#[test]
fn slt_family_signedness() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, -1
                li t1, 1
                slt t2, t0, t1      # -1 < 1 (signed) = 1
                sltu t3, t0, t1     # umax < 1 = 0
                slti t4, t0, 0      # 1
                sltiu t5, t0, -1    # umax < umax = 0... sltiu sext imm: equal -> 0
                slli t2, t2, 2      # 4
                slli t4, t4, 1      # 2
                add a0, t2, t4
                add a0, a0, t3
                add a0, a0, t5      # 6
                li a7, 93
                ecall
            "
        ),
        6
    );
}

#[test]
fn word_ops_sign_extend() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 0x7fffffff
                addiw t1, t0, 1     # wraps to -2^31, sign extended
                srai t1, t1, 31     # -1
                addi a0, t1, 43     # 42
                li a7, 93
                ecall
            "
        ),
        42
    );
}

#[test]
fn mulh_variants() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, -1
                li t1, 2
                mulh t2, t0, t1     # (-1 * 2) >> 64 = -1
                mulhu t3, t0, t1    # (2^64-1)*2 >> 64 = 1
                add a0, t2, t3      # 0
                addi a0, a0, 5
                li a7, 93
                ecall
            "
        ),
        5
    );
}

#[test]
fn fp_nan_comparisons_are_false() {
    assert_eq!(
        exit_of(
            "
            .data
            nanbits: .dword 0x7ff8000000000000
            .text
            _start:
                la t0, nanbits
                fld fa0, 0(t0)
                fmv.d.x fa1, zero
                feq.d t1, fa0, fa0    # NaN == NaN -> 0
                flt.d t2, fa0, fa1    # 0
                fle.d t3, fa1, fa1    # 1
                add a0, t1, t2
                add a0, a0, t3        # 1
                li a7, 93
                ecall
            "
        ),
        1
    );
}

#[test]
fn fcvt_saturates_like_hardware() {
    // NaN converts to the maximum value (RISC-V), not 0 (Rust `as`).
    assert_eq!(
        exit_of(
            "
            .data
            nanbits: .dword 0x7ff8000000000000
            .text
            _start:
                la t0, nanbits
                fld fa0, 0(t0)
                fcvt.w.d t1, fa0     # i32::MAX
                li t2, 0x7fffffff
                sub a0, t1, t2       # 0
                li a7, 93
                ecall
            "
        ),
        0
    );
}

#[test]
fn vector_e32_arithmetic() {
    assert_eq!(
        exit_of(
            "
            .data
            a: .word 100
               .word 200
               .word 300
               .word 400
               .word 500
               .word 600
               .word 700
               .word 800
            .text
            _start:
                li t0, 8
                vsetvli t1, t0, e32, m1, ta, ma
                la a0, a
                vle32.v v1, (a0)
                vadd.vi v2, v1, 1
                vmv.v.i v3, 0
                vredsum.vs v4, v2, v3
                vmv.x.s a0, v4       # 3600 + 8
                li a7, 93
                ecall
            "
        ),
        3608
    );
}

#[test]
fn vector_min_max_signed() {
    assert_eq!(
        exit_of(
            "
            .data
            a: .dword -5
               .dword 10
               .dword -20
               .dword 7
            .text
            _start:
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                la a0, a
                vle64.v v1, (a0)
                vmv.v.i v2, 0
                vmax.vv v3, v1, v2   # [0,10,0,7]
                vmin.vv v4, v1, v2   # [-5,0,-20,0]
                vmv.v.i v5, 0
                vredsum.vs v6, v3, v5   # 17
                vredsum.vs v7, v4, v5   # -25
                vmv.x.s t2, v6
                vmv.x.s t3, v7
                add a0, t2, t3       # -8
                neg a0, a0
                li a7, 93
                ecall
            "
        ),
        8
    );
}

#[test]
fn vector_partial_vl_keeps_tail() {
    // vl = 3 of 4 lanes: the 4th element must be untouched.
    assert_eq!(
        exit_of(
            "
            .data
            a: .dword 1
               .dword 1
               .dword 1
               .dword 99
            .text
            _start:
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                la a0, a
                vle64.v v1, (a0)
                li t0, 3
                vsetvli t1, t0, e64, m1, ta, ma
                vadd.vi v1, v1, 10   # only first 3 lanes
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                vmv.v.i v2, 0
                vredsum.vs v3, v1, v2  # 11*3 + 99
                vmv.x.s a0, v3
                li a7, 93
                ecall
            "
        ),
        132
    );
}

#[test]
fn vsetvli_clamps_to_vlmax() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 1000
                vsetvli a0, t0, e64, m1, ta, ma   # VLMAX = 4
                li a7, 93
                ecall
            "
        ),
        4
    );
}

#[test]
fn sltiu_seqz_idiom() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 0
                seqz a0, t0       # 1
                li t1, 7
                snez t2, t1       # 1
                add a0, a0, t2    # 2
                li a7, 93
                ecall
            "
        ),
        2
    );
}

#[test]
fn c_extension_gating_is_encoding_level() {
    // The same canonical instruction passes on a no-C core when encoded
    // 4-byte, and traps when encoded compressed — in every mode, whether
    // the gate runs per instruction (`Reference`) or at block build.
    // Immediates small enough for the c.addi form.
    let src = "
        _start:
            addi a0, a0, 21
            addi a0, a0, 21
            li a7, 93
            ecall
    ";
    let no_c = ExtSet::RV64GC.without(chimera_isa::Ext::C);
    let fat = assemble(src, AsmOptions::default()).unwrap();
    let slim = assemble(
        src,
        AsmOptions {
            compress: true,
            ..Default::default()
        },
    )
    .unwrap();
    let text = &slim.section(".text").unwrap().data;
    let illegal = Trap::Illegal {
        pc: slim.entry,
        raw: u16::from_le_bytes([text[0], text[1]]) as u32,
    };
    for mode in [
        ExecMode::Reference,
        ExecMode::Interpreter,
        ExecMode::Engine,
        ExecMode::Jit,
    ] {
        let r = run_binary_mode(&fat, no_c, 1000, mode).unwrap();
        assert_eq!(r.exit_code, 42, "{mode:?}");
        let err = run_binary_mode(&slim, no_c, 1000, mode).unwrap_err();
        assert_eq!(err, RunError::Trap(illegal), "{mode:?}");
    }
}

#[test]
fn stack_discipline_roundtrip() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 21
                addi sp, sp, -32
                sd t0, 0(sp)
                sd t0, 8(sp)
                ld t1, 0(sp)
                ld t2, 8(sp)
                addi sp, sp, 32
                add a0, t1, t2
                li a7, 93
                ecall
            "
        ),
        42
    );
}

#[test]
fn megamorphic_jalr_stays_transparent_under_jump_cache_eviction() {
    // One indirect-jump site cycling through more distinct targets than
    // the direct-mapped jump cache has entries (2304 > 2048): every
    // dispatch evicts another target's entry, and the engine must still
    // be bit-transparent to the reference interpreter — with the cache
    // counters reconciling exactly.
    use chimera_testutil::observe_mode;

    const TARGETS: usize = 2304;
    let mut src = String::from(".data\ntable:");
    for i in 0..TARGETS {
        src.push_str(&format!(" .dword t{i}\n"));
    }
    src.push_str(
        ".text\n_start:\n    li s2, 0\n    la s3, table\nloop:\n    slli t0, s2, 3\n    add t0, t0, s3\n    ld t1, 0(t0)\n    jalr t1\n    addi s2, s2, 1\n",
    );
    src.push_str(&format!("    li t2, {TARGETS}\n    blt s2, t2, loop\n"));
    src.push_str("    andi a0, a0, 255\n    li a7, 93\n    ecall\n");
    for i in 0..TARGETS {
        src.push_str(&format!("t{i}: addi a0, a0, {}\n    ret\n", i % 7 + 1));
    }
    let bin = assemble(&src, AsmOptions::default()).expect("assembles");

    let expected: i64 = ((0..TARGETS).map(|i| i % 7 + 1).sum::<usize>() & 255) as i64;
    let fuel = 10_000_000;
    let (reference, ref_stats) = observe_mode(&bin, ExtSet::RV64GC, ExecMode::Reference, fuel);
    assert_eq!(
        reference
            .result
            .as_ref()
            .expect("reference run exits")
            .exit_code,
        expected
    );
    assert_eq!(
        (ref_stats.hits, ref_stats.misses, ref_stats.blocks_built),
        (0, 0, 0)
    );

    let (interp, is) = observe_mode(&bin, ExtSet::RV64GC, ExecMode::Interpreter, fuel);
    let (engine, es) = observe_mode(&bin, ExtSet::RV64GC, ExecMode::Engine, fuel);
    assert_eq!(interp, reference, "cached interpreter transparent");
    assert_eq!(engine, reference, "micro-op engine transparent");

    // Counter reconciliation under sustained eviction: every cached
    // dispatch the interpreter counts as a hit is, on the engine side,
    // either a plain hit or a jump-cache entry.
    assert_eq!(is.hits, es.hits + es.chained, "{is:?} vs {es:?}");
    assert_eq!(is.misses, es.misses, "{is:?} vs {es:?}");
    assert_eq!(is.blocks_built, es.blocks_built, "{is:?} vs {es:?}");
    // The workload actually engaged the cache and built blocks for the
    // target spread (each distinct target head is its own block).
    assert!(es.blocks_built >= TARGETS as u64, "{es:?}");
    assert!(es.hits + es.chained > 0, "{es:?}");
}

/// The vector core and the scalar FP rows, pinned on their own: the
/// downgrade templates read the same rows, so `template_conformance`
/// cannot catch a wrong one. Every `VArithOp` × each source form
/// `allows` admits × `e32` / `e64` × `vl` ∈ {0, 1, VLMAX − 1, VLMAX}, every
/// `FOpKind` / `FMaKind` / `FCmpKind` × S / D, over edge values — integer
/// sign and carry boundaries, `x` scalars whose upper half is not the sign
/// extension of the lower, ±0, ±∞, quiet and signalling NaNs with payloads,
/// subnormals, and properly and improperly NaN-boxed singles. Each case
/// executes one instruction in `ExecMode::Reference` and folds the complete
/// architectural state after it into one FNV-1a digest per group.
///
/// A NaN result is folded as one token per width: which input's payload
/// an operation propagates is the host FPU's choice and moves with code
/// generation (release and debug builds differ on `fadd` / `fmul` of two
/// NaNs), and the model defines nothing about it. Whether a result is a
/// NaN, and every other bit, is pinned.
mod element_semantics {
    use chimera_emu::{Cpu, ExecMode, Hart, Memory, VLENB};
    use chimera_isa::{
        encode, Eew, ExtSet, FCmpKind, FMaKind, FOpKind, FReg, FpWidth, Inst, VArithOp, VReg, VSrc,
        VType, XReg,
    };
    use chimera_obj::Perms;

    const PC: u64 = 0x1_0000;

    /// Integer elements and registers around the sign and carry boundaries
    /// of both widths.
    const INTS: [u64; 12] = [
        0,
        1,
        u64::MAX,
        0x7fff_ffff,
        0x8000_0000,
        0xffff_ffff,
        0x1_0000_0000,
        i64::MAX as u64,
        i64::MIN as u64,
        0x1_7fff_ffff,
        0xffff_ffff_8000_0001,
        0x0123_4567_89ab_cdef,
    ];

    /// `rs1` values: sign-extended 32-bit values and values whose upper
    /// half is not the sign extension of the lower.
    const XS: [u64; 7] = [
        -3i64 as u64,
        5,
        0x1_0000_0005,
        0x8000_0000,
        0xffff_ffff_0000_0007,
        i64::MIN as u64,
        0x7fff_ffff,
    ];

    /// Doubles: ±0, ±∞, quiet NaNs (canonical, with a payload, negative),
    /// signalling NaNs, the subnormal extremes, the smallest normal, the
    /// largest finite, a NaN-boxed single read as a double, and ordinary
    /// values.
    const F64S: [u64; 17] = [
        0,
        1 << 63,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff8_0000_0000_1234,
        0xfff8_0000_0000_0042,
        0x7ff0_0000_0000_0001,
        0x7ff4_0000_0000_0000,
        1,
        0x000f_ffff_ffff_ffff,
        0x0010_0000_0000_0000,
        0x7fef_ffff_ffff_ffff,
        0xffff_ffff_3f80_0000,
        0x3ff0_0000_0000_0000,
        0xc004_0000_0000_0000,
        0x4341_c379_37e0_8000,
    ];

    /// The same classes as singles.
    const F32S: [u32; 16] = [
        0,
        1 << 31,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0x7fc0_1234,
        0xffc0_0042,
        0x7f80_0001,
        0x7fa0_0000,
        1,
        0x007f_ffff,
        0x0080_0000,
        0x7f7f_ffff,
        0x3f80_0000,
        0xc020_0000,
        0x4cbe_bc20,
    ];

    /// Register contents a single-precision operand may be read from: every
    /// [`F32S`] value properly NaN-boxed, then improperly boxed ones.
    fn single_regs() -> Vec<u64> {
        let boxed = F32S.iter().map(|&s| 0xffff_ffff_0000_0000 | s as u64);
        let improper = [
            0x0000_0000_3f80_0000,
            0x7ff8_0000_c020_0000,
            0xffff_fffe_7f80_0000,
            0x0000_0001_0000_0000,
        ];
        boxed.chain(improper).collect()
    }

    fn fold(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Runs single instructions from prepared harts on a reference core
    /// and folds each outcome — whether it trapped, and the architectural
    /// state after it — into a digest.
    struct Runner {
        cpu: Cpu,
        mem: Memory,
        cases: usize,
        digest: u64,
    }

    impl Runner {
        fn new() -> Runner {
            let mut cpu = Cpu::new(ExtSet::RV64GCV);
            cpu.set_mode(ExecMode::Reference);
            let mut mem = Memory::new();
            mem.map_bytes(PC, vec![0; 4], Perms::RX, "text");
            let (cases, digest) = (0, 0xcbf2_9ce4_8422_2325);
            Runner {
                cpu,
                mem,
                cases,
                digest,
            }
        }

        fn run(&mut self, hart: &Hart, inst: Inst) {
            let word = encode(&inst).unwrap_or_else(|e| panic!("{inst}: {e:?}"));
            self.mem.poke_code(PC, &word.to_le_bytes()).unwrap();
            self.cpu.hart = hart.clone();
            self.cpu.hart.pc = PC;
            let trapped = self.cpu.step(&mut self.mem).is_err();
            canonical_nans(&mut self.cpu.hart, inst);
            fold(&mut self.digest, trapped as u64);
            fold(&mut self.digest, self.cpu.hart.state_hash());
            self.cases += 1;
        }
    }

    /// Replaces a NaN that `inst` wrote — the FP destination register, or
    /// any element of a vector FP destination — by the canonical NaN of
    /// its width.
    fn canonical_nans(h: &mut Hart, inst: Inst) {
        let nan = |width, bits: u64| match width {
            FpWidth::S => f32::from_bits(bits as u32).is_nan(),
            FpWidth::D => f64::from_bits(bits).is_nan(),
        };
        let canonical = |width| match width {
            FpWidth::S => f32::NAN.to_bits() as u64,
            FpWidth::D => f64::NAN.to_bits(),
        };
        match inst {
            Inst::FOp { width, frd, .. } | Inst::FMa { width, frd, .. }
                if nan(width, h.get_f(frd)) =>
            {
                let boxed = if width == FpWidth::S {
                    0xffff_ffff_0000_0000
                } else {
                    0
                };
                h.set_f(frd, boxed | canonical(width));
            }
            Inst::VArith { op, vd, .. } if op.is_fp() => {
                let sew = h.vtype.expect("configured").sew;
                let width = if sew == Eew::E32 {
                    FpWidth::S
                } else {
                    FpWidth::D
                };
                for i in 0..VLENB / sew.bytes() as usize {
                    if nan(width, h.v_elem(vd, sew, i)) {
                        h.set_v_elem(vd, sew, i, canonical(width));
                    }
                }
            }
            _ => {}
        }
    }

    /// Element `i` of vector register `reg` in round `round`: the edge
    /// lists of the element format, rotated so that rounds and registers
    /// pair different values.
    fn element(sew: Eew, fp: bool, reg: usize, i: usize, round: usize) -> u64 {
        let k = reg * 5 + i * 3 + round * 7;
        match (fp, sew) {
            (true, Eew::E32) => F32S[k % F32S.len()] as u64,
            (true, _) => F64S[k % F64S.len()],
            (false, _) => INTS[k % INTS.len()],
        }
    }

    /// A hart configured for `sew` / `vl` with `v0..v3` filled (tails
    /// included) for `round`, `a3 = x` and `fa0 = f`.
    fn vector_hart(sew: Eew, vl: u64, fp: bool, round: usize, x: u64, f: u64) -> Hart {
        let mut h = Hart::new();
        h.vtype = Some(VType {
            sew,
            lmul: 1,
            ta: true,
            ma: true,
        });
        h.vl = vl;
        let vlmax = VLENB / sew.bytes() as usize;
        for reg in 0..4 {
            for i in 0..vlmax {
                let e = element(sew, fp, reg, i, round);
                h.set_v_elem(VReg::of(reg as u8), sew, i, e);
            }
        }
        h.set_x(XReg::A3, x);
        h.set_f(FReg::of(10), f);
        h
    }

    #[test]
    fn vector_elements_match_the_recorded_digest() {
        let v = VReg::of;
        let mut int = Runner::new();
        let mut fp = Runner::new();
        let singles = single_regs();
        for &op in VArithOp::ALL {
            let runner = if op.is_fp() { &mut fp } else { &mut int };
            // The moves encode `vs2 = v0`.
            let vs2 = if op == VArithOp::Vmv { v(0) } else { v(1) };
            for sew in [Eew::E32, Eew::E64] {
                let vlmax = (VLENB as u64) / sew.bytes();
                let fregs: &[u64] = if sew == Eew::E32 { &singles } else { &F64S };
                // (vd, src, round, a3, fa0): plain and aliased `.vv` over
                // four rounds, then every scalar and immediate.
                let mut shapes = Vec::new();
                for round in 0..4 {
                    for (vd, vs1) in [(v(3), v(2)), (vs2, v(2)), (v(2), v(2))] {
                        shapes.push((vd, VSrc::V(vs1), round, 0, 0));
                    }
                }
                for &x in &XS {
                    for vd in [v(3), vs2] {
                        shapes.push((vd, VSrc::X(XReg::A3), 1, x, 0));
                    }
                }
                for &f in fregs {
                    for vd in [v(3), vs2] {
                        shapes.push((vd, VSrc::F(FReg::of(10)), 2, 0, f));
                    }
                }
                for imm in [-16, -1, 0, 15] {
                    shapes.push((v(3), VSrc::I(imm), 3, 0, 0));
                }
                for (vd, src, round, x, f) in shapes {
                    if !op.allows(src) {
                        continue;
                    }
                    let inst = Inst::VArith { op, vd, vs2, src };
                    for vl in [0, 1, vlmax - 1, vlmax] {
                        runner.run(&vector_hart(sew, vl, op.is_fp(), round, x, f), inst);
                    }
                }
            }
        }
        assert_eq!(
            [(int.cases, int.digest), (fp.cases, fp.digest)],
            [(2336, 0x5ef3_3bba_9cd7_f404), (2056, 0x2745_7526_600a_d7cf)]
        );
    }

    #[test]
    fn scalar_fp_rows_match_the_recorded_digest() {
        let (f1, f2, f3, f4) = (FReg::of(1), FReg::of(2), FReg::of(3), FReg::of(4));
        let mut r = Runner::new();
        for width in [FpWidth::S, FpWidth::D] {
            let regs = match width {
                FpWidth::S => single_regs(),
                FpWidth::D => F64S.to_vec(),
            };
            let hart = |vals: &[u64]| {
                let mut h = Hart::new();
                for (&reg, &val) in [f1, f2, f3].iter().zip(vals) {
                    h.set_f(reg, val);
                }
                h
            };
            for &a in &regs {
                for &b in &regs {
                    let h = hart(&[a, b]);
                    for &kind in FOpKind::ALL {
                        let (frd, frs1, frs2) = (f4, f1, f2);
                        r.run(
                            &h,
                            Inst::FOp {
                                kind,
                                width,
                                frd,
                                frs1,
                                frs2,
                            },
                        );
                    }
                    for &kind in FCmpKind::ALL {
                        let (rd, frs1, frs2) = (XReg::A0, f1, f2);
                        r.run(
                            &h,
                            Inst::FCmp {
                                kind,
                                width,
                                rd,
                                frs1,
                                frs2,
                            },
                        );
                    }
                }
            }
            // Every other value as a triple.
            let thin: Vec<u64> = regs.iter().copied().step_by(2).collect();
            for &a in &thin {
                for &b in &thin {
                    for &c in &thin {
                        let h = hart(&[a, b, c]);
                        for &kind in FMaKind::ALL {
                            let (frd, frs1, frs2, frs3) = (f4, f1, f2, f3);
                            r.run(
                                &h,
                                Inst::FMa {
                                    kind,
                                    width,
                                    frd,
                                    frs1,
                                    frs2,
                                    frs3,
                                },
                            );
                        }
                    }
                }
            }
        }
        assert_eq!((r.cases, r.digest), (15184, 0xbbbb_dfdb_7cdb_f903));
    }
}

/// A vector access whose `vl` elements reach past one register's
/// `VLENB` bytes needs a register group, which is not modelled: `vle64.v`
/// and `vse64.v` at `e32` with `vl` = 8 (EMUL 2), and `vadd.vv` at
/// `e64, m2` with `vl` = 8. Each is an illegal instruction at its own pc,
/// raised before it changes anything, in the reference and engine tiers
/// alike (the emulator panicked slicing the register before).
#[test]
fn vector_accesses_past_one_register_trap_as_illegal() {
    use chimera_emu::{boot, Cpu, Memory, Stop, VLENB};
    use chimera_isa::{FReg, VReg};
    let setup = "
        .globl buf
        .globl site
        .data
        buf: .dword 1
             .dword 2
             .dword 3
             .dword 4
             .dword 5
             .dword 6
             .dword 7
             .dword 8
        .text
        _start:
            la a4, buf
            li t0, 8
            vsetvli t1, zero, e64, m1, ta, ma
            vle64.v v1, (a4)
            vmv.v.i v2, 7
    ";
    let cases = [
        ("vsetvli t1, t0, e32, m1, ta, ma", "vle64.v v1, (a4)"),
        ("vsetvli t1, t0, e32, m1, ta, ma", "vse64.v v2, (a4)"),
        ("vsetvli t1, t0, e64, m2, ta, ma", "vadd.vv v2, v4, v6"),
    ];
    /// Everything the trapping instruction could change.
    fn state(cpu: &Cpu, mem: &mut Memory, buf: u64) -> impl PartialEq + std::fmt::Debug {
        let h = &cpu.hart;
        let v: Vec<[u8; VLENB]> = (0..32).map(|r| *h.get_v(VReg::of(r))).collect();
        let f: Vec<u64> = (0..32).map(|r| h.get_f(FReg::of(r))).collect();
        let data = mem.peek(buf, 64).unwrap();
        (
            h.xregs(),
            f,
            v,
            h.pc,
            h.vl,
            h.vtype,
            cpu.stats.instret,
            data,
        )
    }
    for (vsetvli, access) in cases {
        let src = format!("{setup}\n {vsetvli}\n site: {access}\n li a7, 93\n ecall\n");
        let bin = assemble(&src, AsmOptions::default()).unwrap();
        let (site, buf) = (
            bin.symbol("site").unwrap().addr,
            bin.symbol("buf").unwrap().addr,
        );
        let text = bin.section(".text").unwrap();
        let off = (site - text.addr) as usize;
        let raw = u32::from_le_bytes(text.data[off..off + 4].try_into().unwrap());
        for mode in [ExecMode::Reference, ExecMode::Engine] {
            let (mut cpu, mut mem) = boot(&bin, ExtSet::RV64GCV);
            cpu.set_mode(mode);
            // Run up to the access, then into it.
            let before = loop {
                if cpu.hart.pc == site {
                    break state(&cpu, &mut mem, buf);
                }
                assert_eq!(cpu.run(&mut mem, 1), Stop::OutOfFuel, "{access} {mode:?}");
            };
            let stop = cpu.run(&mut mem, 100);
            assert_eq!(
                stop,
                Stop::Trap(Trap::Illegal { pc: site, raw }),
                "{access} {mode:?}"
            );
            assert_eq!(state(&cpu, &mut mem, buf), before, "{access} {mode:?}");
        }
    }
}
