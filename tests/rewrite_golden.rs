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
//! whole register (100 digests; `identity` and `upgrade` did not move).
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
            true,
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
    ("perlbench_r", [0xdf73280a35830259, 0x2f28fc27aaecef63, 0x3b865dfb23e434b6, 0xacf3ac665b9da039, 0x26efa75b8e20d86a, 0x44c9573527c2a365]),
    ("gcc_r", [0x00ec58126a9824eb, 0xa3af16354ac5cff3, 0x33131d29d70b1e8f, 0xd1b2daf619186201, 0x15edcd2dfe99cfca, 0xb4e2dab581f6b65a]),
    ("omnetpp_r", [0xca4248c782dacdec, 0xdfa0d589990dfa88, 0xee7d2e407610f30f, 0xfa48dd41ea60af39, 0xd9b17033d5620593, 0xe1e7714ae1453a67]),
    ("xalancbmk_r", [0xe4fb190195ed4f89, 0x4ba4fc1a811f5df3, 0x7c15105824fc167e, 0x83d348152942eb44, 0x5f8de69b8251c524, 0xd07ceb487a7ee159]),
    ("cactuBSSN_r", [0xf43e2788d8a1b6d2, 0xeecebf6bbf2e34fb, 0xe218dd27de625f7f, 0x99e5eb3cde5dd689, 0x4aac65271daf5ecf, 0x21ac828380a3aa2e]),
    ("parest_r", [0xb0c8ecef2deb4ff7, 0xd4bea26427603eec, 0xae7b0d26b61814ce, 0xc4e3fa32d0111f0c, 0x7d375c6990392772, 0x53b26a91513aa3d1]),
    ("wrf_r", [0x038a4af1529d774b, 0xd4c80f645783690d, 0xe9896a5aeb81c901, 0xc45ba84a9307f3c2, 0x6ec0f3dd65f062b5, 0xbb4a11a464563050]),
    ("blender_r", [0x2f55a08b95e5ae01, 0xdef00441e6ebcf8c, 0x00af64090f750e9d, 0xa07a69f533fb949e, 0x460ee4768e4ae4e2, 0xf033541291e532ed]),
    ("cam4_r", [0xcb1b9fb976077e92, 0x6c4bfab85a87ee32, 0x7bfd38941d274e16, 0xb021c272a4109696, 0x9be39e3f918267ee, 0xf62627ca043a8d62]),
    ("imagick_r", [0x06c0f75be450ca1b, 0xe0763975681619dd, 0xc24fb411eca4bcdd, 0xc61d40fd8c57d8e7, 0x94907b0501700cc1, 0x76495dac778dd8e7]),
    ("perlbench_s", [0x4d1eec42ddf244bf, 0x367a5ac3272e74ed, 0x229722f1993626a4, 0x49c6e9c2def0fc29, 0x8b2db11fedc9fbcf, 0x6494103274c86d52]),
    ("gcc_s", [0xe7dd785c676341c1, 0x63e88faeda61f082, 0x7e091d4887cb140d, 0x8ced3f87d7f48e55, 0x63d55132cf237d63, 0x051cdd6436d945cd]),
    ("omnetpp_s", [0xbb5d6516db0ede4f, 0xfe5a3a6638822c1e, 0x9a4c38539189e86b, 0xa595c3633b443c84, 0x16d50f22170416b3, 0x0a009e0a32570bd8]),
    ("xalancbmk_s", [0x62686b10a5770fdf, 0xe509f629c71d1cbe, 0xe229bfb14fdba6c0, 0xd82f1ff24e06f43f, 0x16ff93f52d58e06b, 0x9d9df746b08f8659]),
    ("cactuBSSN_s", [0xe6f981fa6c5744f0, 0x1631e1168873e4fd, 0xd0d9f1c38d843ce4, 0xc863e64e495a7d09, 0xd4e513a98a1ce646, 0xe2cc2d3529d8e806]),
    ("wrf_s", [0xa39751bb2bc9671b, 0xf3901ca0f4ee3cda, 0x752a2fd336893d17, 0x985bfd651d447d74, 0xacaa7b0ce1a36796, 0x423a52976a36821a]),
    ("cam4_s", [0x5045dbe5f32d8d2c, 0xe2995ea70d0c28d4, 0x5c53577935f2d141, 0xe1baf2195afe6b47, 0xc383478f989ebf27, 0x1370a259c1fc787f]),
    ("Git", [0xf69f267e0610abeb, 0x81d3bd997184564f, 0xf31a2df7707203ad, 0xfe8badfc23fb1fe7, 0xe7d195b821885856, 0xb890ffe65113b4aa]),
    ("Vim", [0xbc2eb158b9ed6507, 0x77bed510d718fecd, 0xb7f6aede063ffbc9, 0xe3e8f37798d9674c, 0x8429e8b167441896, 0xe3f89462fb680a8b]),
    ("CMake", [0x1960ce7231efe539, 0x2273b4ba4dc2cd74, 0xd616f4cd177921e0, 0x3f38af5921370283, 0x9e97f004cc4ef4f6, 0x5dbc3c8ced08f550]),
    ("CTest", [0x4dfca212989f944f, 0x85afbb13c9dca333, 0x9ca5a49c91a5feb5, 0x7ba7a7e226a4b433, 0x881e0659ab504ccb, 0xe7c9f4de8c678ae1]),
    ("Python", [0x583cddd9eb1946a2, 0xa5b85ef21e175b6d, 0x581d133832f72df6, 0x03424bc0274c4c01, 0x2222e250c69c60e3, 0x086edd2fb31a363a]),
    ("Libopenblas", [0x08bfaa36b6db248b, 0xd3090fbf91793dc0, 0xb750e38aa12290c2, 0x1ec09fcc036f494a, 0x9c3d34694ea4f637, 0x4bb7dbc487f32200]),
];

#[rustfmt::skip]
const LAUNCH_COLD: &[(&str, [u64; 6])] = &[
    ("omnetpp_r", [0xfd77cf841417d36b, 0x50e3e038faa12ad8, 0x27806c009491e159, 0x4a66d74801fe552e, 0x8af39ecca18cbb20, 0x36db986cd66d154a]),
    ("cactuBSSN_r", [0x1f5dcf7d3785dbd1, 0xfdeffc0aff837ee7, 0xf2b24ad2cd0459ea, 0xb830bc24f94293f0, 0xaf25310090d6ac52, 0xea04017279c53475]),
];
