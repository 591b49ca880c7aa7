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
//! same 100 digests).
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
    // order-dependent: the i64 dots take a plain SMILE, the f64 dots are
    // not recognized (they would reassociate), the i64 maps have an
    // instruction start at `head + 2` (P2: reachable only ~2 MiB up, beyond
    // the default `max_padding`, so they are left scalar) and the f64 maps
    // land behind whatever came before. (A recognized loop has at least
    // seven instructions, so "shorter than 8 bytes" cannot be assembled;
    // the padding budget is the reachable leave-scalar outcome.)
    v.push(("loops_8", scalar_loops(8), opts));
    // Room for the P2 window: every recognized loop is placed, the first
    // i64 map behind ~2 MiB of padding.
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
/// was deleted (its loops now stay scalar), and every row that vectorizes
/// (`matrix_*`, `loops_8*`) when the vector block began leaving the last
/// iteration to the scalar loop.
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

/// `(program, (smile_trampolines, constrained_smiles), digest)`.
#[rustfmt::skip]
const UPGRADE_VECTORIZING: &[(&str, (usize, usize), u64)] = &[
    ("matrix_16x2", (1, 0), 0x008f8e9c089dcd21),
    ("matrix_64x4", (1, 0), 0x150c66371f838c5d),
    ("dgemv12_slice0", (0, 0), 0x2c900720ae9e9074),
    ("dgemv12_slice1", (0, 0), 0x9a27794eb83f0924),
    ("loops_8", (4, 0), 0x239c177b889bfd2c),
    ("loops_8_roomy", (6, 2), 0x617993a10e33a0ae),
];

#[rustfmt::skip]
const ZOO: &[(&str, [u64; 6])] = &[
    ("perlbench_r", [0xa491b46a9daab8c8, 0x6307bc40ae7d8f0e, 0x5283bc0aba008516, 0x9b0199a904410e74, 0x26efa75b8e20d86a, 0x44c9573527c2a365]),
    ("gcc_r", [0x70f34b95b295e701, 0xdfe4bd87ae012ce9, 0x44bbb7dcaf1fe5d6, 0xdac8e2c76974e74f, 0x15edcd2dfe99cfca, 0xb4e2dab581f6b65a]),
    ("omnetpp_r", [0x45350c9bfc99c7e9, 0x8d865ea79ff03805, 0x519ad5a44598192a, 0x09486fea10875b21, 0xd9b17033d5620593, 0xe1e7714ae1453a67]),
    ("xalancbmk_r", [0x223238ecb34f2bec, 0xa195d525238d96ff, 0x6febff426c91aec3, 0x130e1845681d03e3, 0x5f8de69b8251c524, 0xd07ceb487a7ee159]),
    ("cactuBSSN_r", [0x33779253891fd92b, 0x74750f68aec135c6, 0xd009db8a86dad2fb, 0x305b1bee46c33240, 0x4aac65271daf5ecf, 0x21ac828380a3aa2e]),
    ("parest_r", [0x302a295807c9d2ac, 0x840bab23781c9022, 0xca5a137e0d38f22f, 0xbee0fee43bbfea5e, 0x7d375c6990392772, 0x53b26a91513aa3d1]),
    ("wrf_r", [0x62a32c03006e6ca6, 0x46292a0199b45e42, 0xa5ab077fefc7807e, 0x1a8ef074eb332db5, 0x6ec0f3dd65f062b5, 0xbb4a11a464563050]),
    ("blender_r", [0xd55dabd63e7712df, 0x19057c1dfea12e9a, 0xdf84d30bdf9e7e44, 0xd8650be000bb2e63, 0x460ee4768e4ae4e2, 0xf033541291e532ed]),
    ("cam4_r", [0x628ad53f214baf76, 0xff4f0fb8aede4b62, 0x9c57fe79413a2aba, 0x3307abd386309844, 0x9be39e3f918267ee, 0xf62627ca043a8d62]),
    ("imagick_r", [0xbb47d62948e3a63d, 0xf66983d5aeb0c09b, 0x5c9c0dcd51e48406, 0x470a106a5258f372, 0x94907b0501700cc1, 0x76495dac778dd8e7]),
    ("perlbench_s", [0x6e36d498a809fa40, 0xd3dcc8b30ac0d7d7, 0x0e1de6feb764b967, 0x1b1a14c95ff72389, 0x8b2db11fedc9fbcf, 0x6494103274c86d52]),
    ("gcc_s", [0x27bfc661d5006348, 0x23ca082452bb17d0, 0x4a87ed5aea845f9d, 0x50719008f9afa2e9, 0x63d55132cf237d63, 0x051cdd6436d945cd]),
    ("omnetpp_s", [0xaf93ad61ab5e78d0, 0xd1c9d1b0f20bbe7d, 0x7d1bb690300d006d, 0x55c7bd25ffafcb92, 0x16d50f22170416b3, 0x0a009e0a32570bd8]),
    ("xalancbmk_s", [0xfc1929d1f294bb1c, 0x9fdbd1774a8c7b66, 0xad835132c36aa79f, 0x530036d556dd73a0, 0x16ff93f52d58e06b, 0x9d9df746b08f8659]),
    ("cactuBSSN_s", [0x7b85465b09cc92a4, 0x70345a93c8de69ba, 0x831952789dc40576, 0xc34547369767bcad, 0xd4e513a98a1ce646, 0xe2cc2d3529d8e806]),
    ("wrf_s", [0x51e3e586763f0ce1, 0x2068743619d6e333, 0x52462cb34af398e1, 0xe2d2fd343a08d9f3, 0xacaa7b0ce1a36796, 0x423a52976a36821a]),
    ("cam4_s", [0x1946a1143fa3ac3f, 0xac7bba1d37f5182a, 0xdd7e9f5d2abdb1af, 0x92866cbd6dbbb473, 0xc383478f989ebf27, 0x1370a259c1fc787f]),
    ("Git", [0x69d6f74a4f2feab8, 0xa2364abaf7da68d9, 0xfe2d5df8e000b03c, 0xd9f133c0da835d85, 0xe7d195b821885856, 0xb890ffe65113b4aa]),
    ("Vim", [0xe423a6561360a72d, 0xe483bdcc9d3cae4c, 0x42543a5424814b25, 0x8a299b9a885e37dc, 0x8429e8b167441896, 0xe3f89462fb680a8b]),
    ("CMake", [0x87fb4072580fe9a2, 0x5e395fae347c118c, 0x548152c69cc08865, 0x06ba240280665064, 0x9e97f004cc4ef4f6, 0x5dbc3c8ced08f550]),
    ("CTest", [0x9ab26283f609cceb, 0x0d672efabd11a796, 0x10c945b1006e206f, 0x1080caefe852330d, 0x881e0659ab504ccb, 0xe7c9f4de8c678ae1]),
    ("Python", [0x5d6eeb5726d4c1fa, 0x9e6ec8eb0e31bc3d, 0x0fa934d42112d6a0, 0xad7c29d72255800e, 0x2222e250c69c60e3, 0x086edd2fb31a363a]),
    ("Libopenblas", [0x441cacf01fbd6720, 0x43481b5a95772c5e, 0x3f51fb3bfddf8adc, 0x011d9dfd50382528, 0x9c3d34694ea4f637, 0x4bb7dbc487f32200]),
];

#[rustfmt::skip]
const LAUNCH_COLD: &[(&str, [u64; 6])] = &[
    ("omnetpp_r", [0xd7c50950ee2e3c46, 0x5367f10ea5cb38ed, 0x388f4a4a43b9eb6d, 0xca4f7191043f2174, 0x8af39ecca18cbb20, 0x36db986cd66d154a]),
    ("cactuBSSN_r", [0x0bff75c46c0935a3, 0x311170234f0371e4, 0x297122fa640ff727, 0x77c10f2246bade99, 0xaf25310090d6ac52, 0xea04017279c53475]),
];
