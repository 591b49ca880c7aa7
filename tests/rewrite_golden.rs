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
//! in registers and fusing its leading loads (the same 100 digests).
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

/// `(program, (smile_trampolines, constrained_smiles), digest)`. The four
/// rows whose loops vectorize were re-recorded when the vector block began
/// skipping to the repair block on a counter of 0 (one `beqz` per loop).
#[rustfmt::skip]
const UPGRADE_VECTORIZING: &[(&str, (usize, usize), u64)] = &[
    ("matrix_16x2", (1, 0), 0xba60f4c00368da08),
    ("matrix_64x4", (1, 0), 0xbba1bc935c9c47a0),
    ("dgemv12_slice0", (0, 0), 0x2c900720ae9e9074),
    ("dgemv12_slice1", (0, 0), 0x9a27794eb83f0924),
    ("loops_8", (4, 0), 0xa02a7b269d3ae6f4),
    ("loops_8_roomy", (6, 2), 0x857cd904b65e64e6),
];

#[rustfmt::skip]
const ZOO: &[(&str, [u64; 6])] = &[
    ("perlbench_r", [0x82d55a510e15ea27, 0x294feb075e2e631f, 0xcf414014e5e2368c, 0x34021154a8ae88b1, 0x26efa75b8e20d86a, 0x44c9573527c2a365]),
    ("gcc_r", [0x3a8e4833831e6428, 0xb42517b52e1304c6, 0xb091b02ec8b58006, 0xcdf725f73a8c6fd3, 0x15edcd2dfe99cfca, 0xb4e2dab581f6b65a]),
    ("omnetpp_r", [0x132d152647a1ec40, 0x63030347fa751ad7, 0x34a0c9097f5e25a9, 0xb5864bb45b034487, 0xd9b17033d5620593, 0xe1e7714ae1453a67]),
    ("xalancbmk_r", [0x06a117adf2a879e3, 0x93c487a5abebde60, 0x7649c96fc32663ff, 0x48bf61a3d102dd73, 0x5f8de69b8251c524, 0xd07ceb487a7ee159]),
    ("cactuBSSN_r", [0xab3377069f4e256d, 0x4957889997c1293b, 0x7f779d2bdb4a3c3f, 0x63d03abf2098458f, 0x4aac65271daf5ecf, 0x21ac828380a3aa2e]),
    ("parest_r", [0x488ffad178da2b9f, 0xc1504457bd6303a9, 0x29d9fc4d1680b7bc, 0xe105f099b2be585b, 0x7d375c6990392772, 0x53b26a91513aa3d1]),
    ("wrf_r", [0xa7b457447eb95375, 0x2f3d6139946e627c, 0xad4739aec6a0f0a1, 0x7ea8e53213c90778, 0x6ec0f3dd65f062b5, 0xbb4a11a464563050]),
    ("blender_r", [0x756d0f5f7f817dfd, 0xb9b3357dad7cec57, 0x657c65c6a7fc196f, 0xc16c1e75003f379c, 0x460ee4768e4ae4e2, 0xf033541291e532ed]),
    ("cam4_r", [0x24af7e4a9f8581ae, 0x6796da4264de902b, 0x34d180d69ab08467, 0x7e22006f8da9d4d0, 0x9be39e3f918267ee, 0xf62627ca043a8d62]),
    ("imagick_r", [0x0b12e5e7cb532239, 0x55be02e4c95a934f, 0x70209efb0db3c0c4, 0x552c58e2129d16b0, 0x94907b0501700cc1, 0x76495dac778dd8e7]),
    ("perlbench_s", [0x23d68e573dd919c9, 0x0866c4e1e6b4c140, 0x14cdfc9246338034, 0xe5d840fa9dc084fa, 0x8b2db11fedc9fbcf, 0x6494103274c86d52]),
    ("gcc_s", [0x67637676c5ef0262, 0xf4d3398e17555729, 0x27491dc76aca3d75, 0xd21a25a5e90ceed4, 0x63d55132cf237d63, 0x051cdd6436d945cd]),
    ("omnetpp_s", [0xd449f6aeb9ed5895, 0x9fd642b5e327d1ca, 0x90508ea4895a00e5, 0x4cd36aa8930e306b, 0x16d50f22170416b3, 0x0a009e0a32570bd8]),
    ("xalancbmk_s", [0xb533f8b5f828b6e6, 0xe66936a6509207f5, 0x00ed87b5e8518bda, 0xfe0f6e16b7a092d9, 0x16ff93f52d58e06b, 0x9d9df746b08f8659]),
    ("cactuBSSN_s", [0xb3a2c22dfe22920f, 0x73bcab078618db0c, 0x1082a394e6f8d208, 0xdb96a7e1d34420aa, 0xd4e513a98a1ce646, 0xe2cc2d3529d8e806]),
    ("wrf_s", [0xa44befec96d0a0b7, 0x9a49801a7da31131, 0x8aefdf7c6ef29912, 0x0a33a61fe51fa715, 0xacaa7b0ce1a36796, 0x423a52976a36821a]),
    ("cam4_s", [0xe2e1c3dc2353b261, 0x6321bb13f4e13710, 0xd4ba4953a56ab575, 0xed4b2ca354463ec8, 0xc383478f989ebf27, 0x1370a259c1fc787f]),
    ("Git", [0xe9f1bd91e14aba1c, 0xf0b0155ec502bc9c, 0xbc8295ed6fea714a, 0x8fd46222ea589bf2, 0xe7d195b821885856, 0xb890ffe65113b4aa]),
    ("Vim", [0xb9fa1147069aaa31, 0x97d9841ceefe5c3b, 0x2cf877fd43d5c421, 0xa99c2f5d2744c417, 0x8429e8b167441896, 0xe3f89462fb680a8b]),
    ("CMake", [0x81b509b5d1cf8f28, 0x7908dd37a794bb2b, 0xab9405d3ef8caba4, 0x237cd24f43dde781, 0x9e97f004cc4ef4f6, 0x5dbc3c8ced08f550]),
    ("CTest", [0x5a77670f97848bf7, 0x8e25a61d7a999591, 0x6fcfc0c48e2ef347, 0xcdda0c274915cc9d, 0x881e0659ab504ccb, 0xe7c9f4de8c678ae1]),
    ("Python", [0x1ee72823be536c44, 0xec31275ae7264037, 0x02e12389bb5c79e7, 0xb7bf94b38f969253, 0x2222e250c69c60e3, 0x086edd2fb31a363a]),
    ("Libopenblas", [0xd906b3fd4034e437, 0xf2e3d9fdb4b618eb, 0x43767d5aee860a06, 0xd3ee2ef015740f8a, 0x9c3d34694ea4f637, 0x4bb7dbc487f32200]),
];

#[rustfmt::skip]
const LAUNCH_COLD: &[(&str, [u64; 6])] = &[
    ("omnetpp_r", [0xfeb62b5b23d3de55, 0xd7747ebebc65e7e4, 0x75159d301cb3cdb5, 0x933004c0ac3c0b11, 0x8af39ecca18cbb20, 0x36db986cd66d154a]),
    ("cactuBSSN_r", [0x553efd03f35b1c23, 0xb62b90b0d75a035c, 0xf4e3d5b731bc2d5f, 0x612e93ee2d5bc84b, 0xaf25310090d6ac52, 0xea04017279c53475]),
];
