//! Golden rewrite digests: every engine's complete output — binary
//! bytes, [`FaultTable`](chimera_rewrite::FaultTable),
//! [`RewriteStats`](chimera_rewrite::RewriteStats) and
//! [`RegenInfo`](chimera_rewrite::RegenInfo) — over the workload zoo,
//! folded to one FNV-1a digest per (program, engine).
//!
//! The constants were recorded on commit b16f708, *before* the analyses
//! moved to dense index-based storage, so they pin "a pure host-time
//! change": any analysis rework that moves a single rewritten byte, fault
//! table entry or statistic fails here, on the exact program and engine.
//! The `chbp` and `strawman` columns of [`ZOO`] and [`LAUNCH_COLD`] — and
//! nothing else — were re-recorded when the unit partition became one unit
//! per batched block; the commit before it (one translatability predicate,
//! shared fault tables) left all 156 digests where they were. The `chbp`,
//! `strawman`, `safer` and `armore` columns of both — the engines that emit
//! downgrade templates — were re-recorded when the vector templates began
//! reading a staged `x` scalar at element width and an `f` scalar as the
//! whole register (100 digests; `identity` and `upgrade` did not move), and
//! again when vector instructions began translating a run at a time (one
//! SEW dispatch, one scratch save and one element loop per stretch; the
//! same 100 digests), and again when a stretch began holding its elements
//! in registers and fusing its leading loads (the same 100 digests), and
//! again when a run began continuing past an interior fault-table entry,
//! through an entry head emitted after the block's exits, and a fold began
//! running as the element loop of the stretch before it, or as a stretch of
//! its own (the same 100 digests).
//!
//! When an intended output change lands, a failing run prints the whole
//! table in source form; paste it over [`ZOO`] / [`LAUNCH_COLD`].

use chimera_obj::Binary;
use chimera_rewrite::{run, upgrade_rewrite, RewriteError, RewriteOptions, Rewritten};
use chimera_testutil::scalar_loops;
use chimera_trace::Tracer;
use chimera_workloads::speclike::{generate, GenOptions, APP_PROFILES, SPEC_PROFILES};
use chimera_workloads::{blas, hetero};
use std::fmt::Write;

/// Column order of the digest rows: `chimera_testutil::engines()`, then
/// the upgrade vectorizer.
const ENGINES: [&str; 6] = ["chbp", "strawman", "safer", "armore", "identity", "upgrade"];

/// FNV-1a, fed either raw bytes or (through `fmt::Write`) a `Debug`
/// rendering — which streams into the hash without being materialized.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

fn digest_binary(h: &mut Fnv, bin: &Binary) {
    for s in &bin.sections {
        write!(h, "{} {:#x} {} {}:", s.name, s.addr, s.perms, s.data.len()).unwrap();
        h.bytes(&s.data);
    }
    write!(
        h,
        "{:?} {:#x} {:#x} {:?}",
        bin.symbols, bin.entry, bin.gp, bin.profile
    )
    .unwrap();
}

/// One digest per engine for `bin`, in [`ENGINES`] order.
fn digests(bin: &Binary) -> [u64; 6] {
    let mut out = [0u64; 6];
    for (slot, (_, engine)) in out.iter_mut().zip(chimera_testutil::engines()) {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        match run(engine.as_ref(), bin, 2, &Tracer::disabled()) {
            Ok(r) => {
                digest_binary(&mut h, &r.rewritten.binary);
                write!(
                    h,
                    "{:?} {:?} {:?}",
                    r.rewritten.fht, r.rewritten.stats, r.regen
                )
                .unwrap();
            }
            Err(e) => write!(h, "error: {e}").unwrap(),
        }
        *slot = h.0;
    }
    out[5] = rewritten_digest(&upgrade_rewrite(bin, RewriteOptions::default()));
    out
}

/// The digest of an upgrade vectorizer result.
fn rewritten_digest(result: &Result<Rewritten, RewriteError>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    match result {
        Ok(rw) => {
            digest_binary(&mut h, &rw.binary);
            write!(h, "{:?} {:?}", rw.fht, rw.stats).unwrap();
        }
        Err(e) => write!(h, "error: {e}").unwrap(),
    }
    h.0
}

fn check(what: &str, programs: Vec<(&'static str, Binary)>, golden: &[(&str, [u64; 6])]) {
    let actual: Vec<(&str, [u64; 6])> = programs
        .iter()
        .map(|(name, bin)| (*name, digests(bin)))
        .collect();
    let mut table = String::new();
    for (name, row) in &actual {
        let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
        writeln!(table, "    (\"{name}\", [{}]),", cells.join(", ")).unwrap();
    }
    assert_eq!(
        actual.len(),
        golden.len(),
        "{what}: program roster changed; actual table:\n{table}"
    );
    for ((name, row), (gname, grow)) in actual.iter().zip(golden) {
        assert_eq!(name, gname, "{what}: roster order; actual table:\n{table}");
        for ((engine, a), g) in ENGINES.iter().zip(row).zip(grow) {
            assert_eq!(
                a, g,
                "{what}: {name} [{engine}] output moved; actual table:\n{table}"
            );
        }
    }
}

/// Every SPEC-like and application profile at `GenOptions::default()`.
#[test]
fn zoo_rewrites_match_recorded_digests() {
    let programs = SPEC_PROFILES
        .iter()
        .chain(APP_PROFILES)
        .map(|p| (p.name, generate(p, GenOptions::default())))
        .collect();
    check("zoo", programs, ZOO);
}

/// `pipeline_e2e`'s two MB-sized `launch_cold` programs (same profile,
/// scales and code seed). Seconds in release, minutes in debug — CI runs
/// it with `--release -- --include-ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore = "MB-sized inputs: run in release")]
fn launch_cold_rewrites_match_recorded_digests() {
    let programs = [("omnetpp_r", 0.5), ("cactuBSSN_r", 0.25)]
        .into_iter()
        .map(|(name, size_scale)| {
            let p = SPEC_PROFILES.iter().find(|p| p.name == name).unwrap();
            let opts = GenOptions {
                size_scale,
                work_scale: 0.01,
                seed: 42,
            };
            (name, generate(p, opts))
        })
        .collect();
    check("launch_cold", programs, LAUNCH_COLD);
}

/// Base-ISA programs whose loops the upgrade vectorizer recognizes (no
/// zoo program has one, so the `upgrade` column above pins only the
/// nothing-to-do path), with the options to rewrite them under.
fn vectorizable() -> Vec<(&'static str, Binary, RewriteOptions)> {
    let opts = RewriteOptions::default();
    let mut v = vec![
        ("matrix_16x2", hetero::matrix_task(16, 2, false), opts),
        ("matrix_64x4", hetero::matrix_task(64, 4, false), opts),
    ];
    let slices = blas::sliced_kernels(blas::BlasKind::Dgemv, 12, 2);
    for (name, (_, scalar)) in ["dgemv12_slice0", "dgemv12_slice1"].into_iter().zip(slices) {
        v.push((name, scalar, opts));
    }
    // Eight hand-assembled loops, two of each shape, whose layout is
    // order-dependent: the first i64 dots take a plain SMILE, the f64 dots
    // are not recognized (they would reassociate) and neither are the f64
    // maps (they store), and the i64 dots on compressible registers have
    // an instruction start at `head + 2` (P2: reachable only ~2 MiB up,
    // beyond the default `max_padding`, so they are left scalar). (A
    // recognized loop has eight instructions, so "shorter than 8 bytes"
    // cannot be assembled; the padding budget is the reachable
    // leave-scalar outcome.)
    v.push(("loops_8", scalar_loops(8), opts));
    // Room for the P2 window: every recognized loop is placed, the first
    // compressed dot behind ~2 MiB of padding.
    let roomy = RewriteOptions {
        max_padding: 4 << 20,
        ..opts
    };
    v.push(("loops_8_roomy", scalar_loops(8), roomy));
    v
}

/// Upgrades that actually vectorize: digests recorded on commit 92b47ad,
/// when `upgrade_rewrite` still had its own layout and linker. The
/// `dgemv12_*` and `loops_8*` rows were re-recorded when the f64 dot kernel
/// was deleted (its loops now stay scalar), every row that vectorizes
/// (`matrix_*`, `loops_8*`) when the vector block began leaving the last
/// iteration to the scalar loop, and the `loops_8*` rows when the map
/// kernels were deleted and `scalar_loops`' i64 map became a compressed
/// dot.
#[test]
fn vectorizing_upgrades_match_recorded_digests() {
    let programs = vectorizable();
    let mut table = String::new();
    let mut actual = Vec::new();
    for (name, bin, opts) in &programs {
        let rw = upgrade_rewrite(bin, *opts);
        let digest = rewritten_digest(&rw);
        let rw = rw.unwrap();
        let shape = (rw.stats.smile_trampolines, rw.stats.constrained_smiles);
        writeln!(table, "    (\"{name}\", {shape:?}, {digest:#018x}),").unwrap();
        actual.push((*name, shape, digest));

        // Claim 2 on the way: the upgraded program behaves like the input.
        let native = chimera_emu::run_binary_on(bin, chimera_isa::ExtSet::RV64GCV, 1 << 32);
        let kr = chimera_testutil::run_under_kernel(
            rw.binary,
            chimera_kernel::RuntimeTables {
                fht: Some(rw.fht),
                regen: None,
            },
            chimera_isa::ExtSet::RV64GCV,
            chimera_emu::ExecMode::Engine,
        );
        let native = native.unwrap();
        assert_eq!(
            (kr.exit_code, kr.stdout),
            (native.exit_code, native.stdout),
            "{name}: upgraded run diverged from native"
        );
    }
    assert_eq!(
        actual, UPGRADE_VECTORIZING,
        "vectorizing upgrade output moved; actual table:\n{table}"
    );
}

/// `(program, (smile_trampolines, constrained_smiles), digest)`. The four
/// rows whose loops vectorize were re-recorded when the vector block began
/// skipping to the repair block on a counter of 0 (one `beqz` per loop).
#[rustfmt::skip]
const UPGRADE_VECTORIZING: &[(&str, (usize, usize), u64)] = &[
    ("matrix_16x2", (1, 0), 0xba60f4c00368da08),
    ("matrix_64x4", (1, 0), 0xbba1bc935c9c47a0),
    ("dgemv12_slice0", (0, 0), 0x2c900720ae9e9074),
    ("dgemv12_slice1", (0, 0), 0x9a27794eb83f0924),
    ("loops_8", (2, 0), 0xc7e0aa12b8827be5),
    ("loops_8_roomy", (4, 2), 0x9e6bf7e67717b4a1),
];

#[rustfmt::skip]
const ZOO: &[(&str, [u64; 6])] = &[
    ("perlbench_r", [0x7e7e09146cca8215, 0xef27ee5bc666c051, 0xa85d6798bf064fdc, 0xf0ceaf6d244cee29, 0x26efa75b8e20d86a, 0x44c9573527c2a365]),
    ("gcc_r", [0x01e537afe7a02bc5, 0x987f29c8b9b97088, 0xd0e4048eec0d7b3e, 0x16c7bf2cc1ac9293, 0x15edcd2dfe99cfca, 0xb4e2dab581f6b65a]),
    ("omnetpp_r", [0x52d2ab52d080e999, 0x5ed496256a3eabc9, 0x610b9c6489e09951, 0xa9d92d4dae9ee837, 0xd9b17033d5620593, 0xe1e7714ae1453a67]),
    ("xalancbmk_r", [0x2d15a2327604be56, 0xb71d5006f9688e59, 0xed87f9b73ba2cd3f, 0xd9501a03d069873b, 0x5f8de69b8251c524, 0xd07ceb487a7ee159]),
    ("cactuBSSN_r", [0x18d73f660272a8c3, 0xd56a9bdf3709ed5a, 0xa08a7eb72f80333f, 0xee6319a64c6e24df, 0x4aac65271daf5ecf, 0x21ac828380a3aa2e]),
    ("parest_r", [0x81166a4ff83afa29, 0x11fdb318569b8d41, 0x33eacd17b845b314, 0xc023d08ed3c135db, 0x7d375c6990392772, 0x53b26a91513aa3d1]),
    ("wrf_r", [0xd3018c36bca4d380, 0xce78b348b29184bb, 0xa1f9de0b4a008ef1, 0x3bb1d2a8b45284a8, 0x6ec0f3dd65f062b5, 0xbb4a11a464563050]),
    ("blender_r", [0x396bdb3fcbc6933b, 0x09bbb99ee08a54bc, 0xd162f6f9493213df, 0x2faef830d8a7901c, 0x460ee4768e4ae4e2, 0xf033541291e532ed]),
    ("cam4_r", [0x8fb4f0d0eefb5755, 0xb98fb5c3b2402409, 0x5f8f59a20bed75ff, 0x3b7317cc64327e38, 0x9be39e3f918267ee, 0xf62627ca043a8d62]),
    ("imagick_r", [0x9993f47fdd73c9c3, 0xc29e940790e2547a, 0x9b31b1835aec5564, 0x46da98a4b0dbfa68, 0x94907b0501700cc1, 0x76495dac778dd8e7]),
    ("perlbench_s", [0x007ad476dcdd6e79, 0xaa5b47bfa5bd44a2, 0x2960845e1f1ff3cc, 0x23a042f22b0ddc5a, 0x8b2db11fedc9fbcf, 0x6494103274c86d52]),
    ("gcc_s", [0x76f30a5e5b071901, 0x06e990d86dda4db9, 0x3133d9c2269a7855, 0xbbf7108193afc464, 0x63d55132cf237d63, 0x051cdd6436d945cd]),
    ("omnetpp_s", [0x4739419167a9f8d4, 0xf10165e34c86ec90, 0xeb0d5cae94c0e235, 0x5d210a61654faeeb, 0x16d50f22170416b3, 0x0a009e0a32570bd8]),
    ("xalancbmk_s", [0xca6febccf0358667, 0xead45d232600c318, 0x3cc3725e10795f02, 0x2533320a704395a1, 0x16ff93f52d58e06b, 0x9d9df746b08f8659]),
    ("cactuBSSN_s", [0xd29c1b6fd412eedc, 0xad5b10879f9ac404, 0xdfda74dfbb57df48, 0x0b106380f795e872, 0xd4e513a98a1ce646, 0xe2cc2d3529d8e806]),
    ("wrf_s", [0xe04243f4c98fb542, 0xddd3df0efec58843, 0x56963acf96a32b82, 0x143f9bbca65a510d, 0xacaa7b0ce1a36796, 0x423a52976a36821a]),
    ("cam4_s", [0x525e2fe667c38693, 0xf3d175eca7db8769, 0x8869dc4eb6dd5fa5, 0x720c6ad14d088d90, 0xc383478f989ebf27, 0x1370a259c1fc787f]),
    ("Git", [0x4582d11c40678d7c, 0x5f65fab741e61f67, 0x5b26022737451dca, 0xd9c04ec203c0e7ba, 0xe7d195b821885856, 0xb890ffe65113b4aa]),
    ("Vim", [0xaa9633e79d1f90db, 0x2c33fd79247c5e8e, 0xecd1151767b72aa9, 0xb1cf0ca91c18d217, 0x8429e8b167441896, 0xe3f89462fb680a8b]),
    ("CMake", [0x3dd691b0377072cd, 0xedbbc797a3ef467a, 0x0ff4f0747db3c754, 0xf7b690e88f5ba5e1, 0x9e97f004cc4ef4f6, 0x5dbc3c8ced08f550]),
    ("CTest", [0x357c74e0b6d804e3, 0x74feef907b4bb22d, 0xe1526fb8b490411f, 0xd93f1c5a6e5b9acd, 0x881e0659ab504ccb, 0xe7c9f4de8c678ae1]),
    ("Python", [0x6b5955008570e6e3, 0xf7560d811fe66013, 0x840e040c4ae1d5c7, 0x1f5f7db9f4b1a73b, 0x2222e250c69c60e3, 0x086edd2fb31a363a]),
    ("Libopenblas", [0xaf6739a59139de19, 0xd7f71d43ff3f91fd, 0x9327191449980396, 0xa2a3f40435a91e12, 0x9c3d34694ea4f637, 0x4bb7dbc487f32200]),
];

#[rustfmt::skip]
const LAUNCH_COLD: &[(&str, [u64; 6])] = &[
    ("omnetpp_r", [0x7a7378280408a917, 0xa2b0005c0ee10183, 0x090cda478a237a4d, 0x9ff246992ac8cac9, 0x8af39ecca18cbb20, 0x36db986cd66d154a]),
    ("cactuBSSN_r", [0x099dfe2efda31716, 0x7e9fd50b93e6787a, 0x58021ec5e5351047, 0xc22fd96289cad8cb, 0xaf25310090d6ac52, 0xea04017279c53475]),
];

/// The Zba / Zbb downgrade templates, which neither table above reaches:
/// every golden engine and every `pipeline_e2e` workload targets
/// `RV64GC`, which includes `B`, so none of them downgrades a Zb row. One
/// digest per row over the bytes `Translator::downgrade` emits for it
/// (fixed spill base and ABI `gp`) in every register shape of
/// `template_conformance.rs`'s `every_zba_zbb_row_matches_a_core_that_has_it`
/// and for `rori` at the immediates 0, 17 and 63. Recorded on commit
/// 1d10d8b, before the templates became rows of assembly text.
#[test]
fn zb_templates_match_recorded_digests() {
    use chimera_isa::{Ext, Inst, OpImmKind, OpKind, UnaryKind, XReg};
    use chimera_rewrite::emitter::BlockEmitter;
    use chimera_rewrite::translate::Translator;
    let t = Translator::new(0x12_3458, 0x1_1800);
    let (a0, a1, a2, t2, t3, t4) = (XReg::A0, XReg::A1, XReg::A2, XReg::T2, XReg::T3, XReg::T4);
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
    // One digest per row, in table order; `rori` folds its three immediates.
    let mut actual: Vec<(&str, Fnv)> = Vec::new();
    for (rd, rs1, rs2) in shapes {
        let ops = OpKind::ALL.iter().filter(|k| k.ext() == Some(Ext::B));
        let ops = ops.map(|&kind| (kind.mnemonic(), Inst::Op { kind, rd, rs1, rs2 }));
        let unary = UnaryKind::ALL.iter();
        let unary = unary.map(|&kind| (kind.mnemonic(), Inst::Unary { kind, rd, rs1 }));
        let kind = OpImmKind::Rori;
        let rori = [0, 17, 63].map(|imm| ("rori", Inst::OpImm { kind, rd, rs1, imm }));
        for (name, inst) in ops.chain(unary).chain(rori) {
            let row = match actual.iter().position(|(n, _)| *n == name) {
                Some(row) => row,
                None => {
                    actual.push((name, Fnv(0xcbf2_9ce4_8422_2325)));
                    actual.len() - 1
                }
            };
            let mut em = BlockEmitter::new();
            t.downgrade(&inst, &mut em)
                .unwrap_or_else(|e| panic!("{e}"));
            let bytes = em.finish().expect("a template resolves its labels");
            let h = &mut actual[row].1;
            write!(h, "{}:", bytes.len()).unwrap();
            h.bytes(&bytes);
        }
    }
    let mut table = String::new();
    for (name, h) in &actual {
        writeln!(table, "    (\"{name}\", {:#018x}),", h.0).unwrap();
    }
    assert_eq!(
        actual.len(),
        ZB_TEMPLATES.len(),
        "row roster; actual table:\n{table}"
    );
    for ((name, a), (gname, g)) in actual.iter().zip(ZB_TEMPLATES) {
        assert_eq!(name, gname, "row order; actual table:\n{table}");
        assert_eq!(a.0, *g, "the {name} template moved; actual table:\n{table}");
    }
}

#[rustfmt::skip]
const ZB_TEMPLATES: &[(&str, u64)] = &[
    ("sh1add", 0x339549d7c6b6da23),
    ("sh2add", 0xa5dd981885b5d743),
    ("sh3add", 0xa1b042f8a82d3023),
    ("add.uw", 0x3cfc2fe9d0f644d7),
    ("andn", 0x97fe135dbc318c8d),
    ("orn", 0x4ee0ab1046ac02ed),
    ("xnor", 0x7fc918a35c6b7bed),
    ("min", 0xda0d5d09e2737aee),
    ("minu", 0x8bc953da06c1152e),
    ("max", 0x1cf3ec7525a27ece),
    ("maxu", 0x5c2af40d06b0264e),
    ("rol", 0x05e57744db7040af),
    ("ror", 0x633fd528bf6d81af),
    ("clz", 0x88620570bb800011),
    ("ctz", 0x3cc5851a8215f6b8),
    ("cpop", 0x81acb7f3d537e7d9),
    ("sext.b", 0x3f89e5ef9d20077c),
    ("sext.h", 0xc2259bab338eff7c),
    ("zext.h", 0x39f261cc8c00d37c),
    ("rev8", 0xa5898842377305c1),
    ("rori", 0x56a63f16582dcb08),
];
