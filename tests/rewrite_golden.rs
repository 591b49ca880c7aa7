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
//! shared fault tables) left all 156 digests where they were.
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
    // Eight hand-assembled loops, two per `Kernel`, whose layout is
    // order-dependent: the i64 dots take a plain SMILE, the f64 dots have
    // an instruction start at `head + 6` (P3: placed behind constraint
    // padding), the i64 maps have one at `head + 2` (P2: reachable only
    // ~2 MiB up, beyond the default `max_padding`, so they are left
    // scalar) and the f64 maps land behind whatever came before. (A
    // recognized loop has at least seven instructions, so "shorter than 8
    // bytes" cannot be assembled; the padding budget is the reachable
    // leave-scalar outcome.)
    v.push(("loops_8", scalar_loops(8), opts));
    // Room for the P2 window: every loop is placed, the first i64 map
    // behind ~2 MiB of padding.
    let roomy = RewriteOptions {
        max_padding: 4 << 20,
        ..opts
    };
    v.push(("loops_8_roomy", scalar_loops(8), roomy));
    v
}

/// Upgrades that actually vectorize: digests recorded on commit 92b47ad,
/// when `upgrade_rewrite` still had its own layout and linker.
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
    ("matrix_16x2", (1, 0), 0x4640162984082984),
    ("matrix_64x4", (1, 0), 0xda2292372d620684),
    ("dgemv12_slice0", (1, 0), 0xd41895e59276251b),
    ("dgemv12_slice1", (1, 0), 0xbca3aacccc18b3ab),
    ("loops_8", (6, 2), 0x8c21ae86887fd3e4),
    ("loops_8_roomy", (8, 4), 0xecfb39aaabc99133),
];

#[rustfmt::skip]
const ZOO: &[(&str, [u64; 6])] = &[
    ("perlbench_r", [0x40e9c697d10f58b9, 0x0fafd381fe2da803, 0xba377df6d0acda16, 0x31ea9f69dff64039, 0x26efa75b8e20d86a, 0x44c9573527c2a365]),
    ("gcc_r", [0x9ef9320bc96cb83b, 0x0b2f90d7d88df563, 0xfb06f03d2422627f, 0x8e68d7e71f616fb1, 0x15edcd2dfe99cfca, 0xb4e2dab581f6b65a]),
    ("omnetpp_r", [0x9a5403a63a79c63c, 0xf1e2925419182818, 0xc276f77cde0a591f, 0x187aaaf88ea4a009, 0xd9b17033d5620593, 0xe1e7714ae1453a67]),
    ("xalancbmk_r", [0x0adc908d859bb409, 0x573f951c92b7f133, 0xb5299e3832292bde, 0x4c73478bdc402d44, 0x5f8de69b8251c524, 0xd07ceb487a7ee159]),
    ("cactuBSSN_r", [0xee784191a5bdffc2, 0xd6625f01d8c8994b, 0x970242120443854f, 0xf6e4fab22f73a979, 0x4aac65271daf5ecf, 0x21ac828380a3aa2e]),
    ("parest_r", [0x18cdf468204c81d7, 0xeea86933ef3ffbac, 0xb240bcad771f25ae, 0x648406d1e7080f6c, 0x7d375c6990392772, 0x53b26a91513aa3d1]),
    ("wrf_r", [0xaa5ec02fc559918b, 0x97f6848f3f4ec82d, 0x12e1317e4a5d9461, 0xc4c1d3208ea24142, 0x6ec0f3dd65f062b5, 0xbb4a11a464563050]),
    ("blender_r", [0x317f3402a357baf1, 0x39974f1837763ddc, 0x320471188ccb60ed, 0xbca0b679b712806e, 0x460ee4768e4ae4e2, 0xf033541291e532ed]),
    ("cam4_r", [0x2b66c143e92df272, 0xd20997713c67b8b2, 0xc6fe558c571f1e36, 0x11026f35dd2d04b6, 0x9be39e3f918267ee, 0xf62627ca043a8d62]),
    ("imagick_r", [0x01b3767aa244e6bb, 0x51b7606eb529673d, 0x824006f2ea8adf3d, 0x6e1e09bbe3717b67, 0x94907b0501700cc1, 0x76495dac778dd8e7]),
    ("perlbench_s", [0x7416ab01d89d9e2f, 0xdbda25590339a6dd, 0xb3154d7904100d14, 0x245ee29642406719, 0x8b2db11fedc9fbcf, 0x6494103274c86d52]),
    ("gcc_s", [0x0a96d8e8a710a461, 0x9c4edc6d028b8a22, 0xcc32901dad67238d, 0x28da2a07fac72dd5, 0x63d55132cf237d63, 0x051cdd6436d945cd]),
    ("omnetpp_s", [0x970a064e1e00dc0f, 0x032e13122f74e35e, 0xd119576b0049dd2b, 0x636adb26f35ee144, 0x16d50f22170416b3, 0x0a009e0a32570bd8]),
    ("xalancbmk_s", [0xd9e151f15d0c0dbf, 0x73511b8b8242047e, 0xc522789a7e3f5d00, 0xb3589e2b856d46bf, 0x16ff93f52d58e06b, 0x9d9df746b08f8659]),
    ("cactuBSSN_s", [0x971f5b28a0877540, 0xce96c93595f7232d, 0x09ff796518298674, 0xa75790cc24c7a679, 0xd4e513a98a1ce646, 0xe2cc2d3529d8e806]),
    ("wrf_s", [0x6fc7cb6259f1942b, 0x7272a00e3a86768a, 0x69664ebe1df439e7, 0x5f22eff4ccc82564, 0xacaa7b0ce1a36796, 0x423a52976a36821a]),
    ("cam4_s", [0x8f7187e9e591f41c, 0xd8d70b8e64cd6fc4, 0x9561c6bfab968bb1, 0x3c4eab583c809577, 0xc383478f989ebf27, 0x1370a259c1fc787f]),
    ("Git", [0x519000a29451e3ab, 0x64be1fbf975a318f, 0x818466ee9b23ac8d, 0x998cf559ff41bae7, 0xe7d195b821885856, 0xb890ffe65113b4aa]),
    ("Vim", [0x87458008a5ce3547, 0x695788c1113f560d, 0xa09805a00baf6c29, 0x255ad1d10b0a786c, 0x8429e8b167441896, 0xe3f89462fb680a8b]),
    ("CMake", [0x353a099bc5a4dc69, 0x80ce234ce29b8ea4, 0xf4bee73a0edcf2b0, 0x85538ce45c86cef3, 0x9e97f004cc4ef4f6, 0x5dbc3c8ced08f550]),
    ("CTest", [0xc385f98c4dac5f5f, 0xd800dae55b8e90a3, 0x79200b78f92db985, 0xd2bd96cef54ab1e3, 0x881e0659ab504ccb, 0xe7c9f4de8c678ae1]),
    ("Python", [0x175a21342cb0fd02, 0x7e1985fed9d575cd, 0x112acba4eba05256, 0x50a12247fd3f79a1, 0x2222e250c69c60e3, 0x086edd2fb31a363a]),
    ("Libopenblas", [0x76ed5f47947574ab, 0x2459f49460bd7920, 0xafd87211b84ac5c2, 0x56334475e48c6f6a, 0x9c3d34694ea4f637, 0x4bb7dbc487f32200]),
];

#[rustfmt::skip]
const LAUNCH_COLD: &[(&str, [u64; 6])] = &[
    ("omnetpp_r", [0x5f1d4b2b2a8b165b, 0x1545abbdbc53c468, 0xc6597b66ea2ef349, 0x7bc90a4a3d06cfde, 0x8af39ecca18cbb20, 0x36db986cd66d154a]),
    ("cactuBSSN_r", [0x14df980ba7801f21, 0xb58907d566e6db97, 0xcc31571319cb047a, 0xc7795dd4dae479c0, 0xaf25310090d6ac52, 0xea04017279c53475]),
];
