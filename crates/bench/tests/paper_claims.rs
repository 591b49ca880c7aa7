//! The paper's §6 claims as assertions on the experiments the `figures`
//! binary renders, at quick scale (CI diffs the full-scale outputs
//! against `results/`). Experiments that several claims read are computed
//! once per test binary.

use std::sync::OnceLock;

use chimera::{InputVersion, RewriterKind, SystemKind};
use chimera_figures::{
    fig13, fig14_kernel, hetero_sweep, table2_apps, table3_row, Fig13Row, Scale, REWRITERS, SYSTEMS,
};
use chimera_kernel::SchedResult;
use chimera_workloads::blas::BlasKind;
use chimera_workloads::speclike::SPEC_PROFILES;

/// Fig. 13's rows (also Table 2's SPEC section).
fn spec_rows() -> &'static [Fig13Row] {
    static ROWS: OnceLock<Vec<Fig13Row>> = OnceLock::new();
    ROWS.get_or_init(|| fig13(Scale::QUICK))
}

/// `system`'s Fig. 11 sweep on the extension-version (downgrading) input.
fn ext_sweep(system: SystemKind) -> &'static [SchedResult] {
    static SWEEPS: [OnceLock<Vec<SchedResult>>; 4] = [const { OnceLock::new() }; 4];
    let i = SYSTEMS
        .iter()
        .position(|&s| s == system)
        .expect("a §6.1 system");
    SWEEPS[i].get_or_init(|| hetero_sweep(system, InputVersion::Ext, Scale::QUICK))
}

/// `rewriter`'s column in [`Fig13Row`].
fn col(rewriter: RewriterKind) -> usize {
    REWRITERS
        .iter()
        .position(|&r| r == rewriter)
        .expect("a §6.2 rewriter")
}

/// C2 (§6.2): CHBP is the fastest rewriter. On every Fig. 13 row CHBP ≤
/// Safer ≤ ARMore, and CHBP is no slower than the trap-based strawman.
#[test]
fn c2_chbp_below_safer_below_armore_on_every_spec_row() {
    use RewriterKind::*;
    let [strawman, safer, armore, chbp] = [Strawman, Safer, Armore, Chbp].map(col);
    let rows = spec_rows();
    assert_eq!(rows.len(), 17);
    for row in rows {
        let o = row.overhead;
        assert!(o[chbp] <= o[safer], "{}: CHBP above Safer: {o:?}", row.name);
        assert!(
            o[safer] <= o[armore],
            "{}: Safer above ARMore: {o:?}",
            row.name
        );
        assert!(o[chbp] <= o[strawman] + 1e-9, "{}: {o:?}", row.name);
    }
}

/// Table 2: CHBP's passive fault handling triggers at most 10⁻⁴ as often
/// as Safer's indirect-jump checks, on every application and SPEC row.
#[test]
fn table2_chbp_triggers_at_most_a_ten_thousandth_of_safers() {
    let (chbp, safer) = (col(RewriterKind::Chbp), col(RewriterKind::Safer));
    let apps = table2_apps(Scale::QUICK);
    for row in apps.iter().chain(spec_rows()) {
        let t = row.triggers_per_1e9;
        assert!(t[chbp] <= 1e-4 * t[safer], "{}: {t:?}", row.name);
    }
}

/// §6.1: FAM's downgrading latency curve turns. Its minimum lies strictly
/// between 0 % and 100 % extension share (70 % at quick scale): past it,
/// every extension task a base core takes faults and migrates.
#[test]
fn fam_downgrade_latency_curve_turns() {
    let sweep = ext_sweep(SystemKind::Fam);
    let lowest = (0..=10)
        .min_by_key(|&i| sweep[i].latency)
        .expect("11 points");
    assert!(0 < lowest && lowest < 10, "minimum at {}0 %", lowest);
}

/// C1 (Chimera within 3.2 % of MELF at 100 % extension share, §6.1) as a
/// ratchet: at quick scale Chimera's Fig. 11 CPU time at 100 % is at
/// most 1.158 × MELF's. Recorded when a downgraded loop block became one
/// run, entered at an interior fault-table entry through an entry head,
/// and a fold began joining its stretch's element loop: +15.3 %
/// (1,859,184 against 1,612,272 cycles), from +19.1 % (1,920,080) when a
/// stretch began holding its elements in registers, +25.0 % (2,015,440)
/// when vector runs began translating as one body and +33.3 % (2,149,152)
/// before. Lower the bound as the gap closes.
#[test]
fn c1_downgrade_gap_ratchet() {
    let at_100 = |system| ext_sweep(system)[10].cpu_time as f64;
    let (melf, chimera) = (at_100(SystemKind::Melf), at_100(SystemKind::Chimera));
    let gap = 100.0 * (chimera / melf - 1.0);
    assert!(chimera <= 1.158 * melf, "Chimera +{gap:.1} % over MELF");
}

#[test]
fn hetero_sweep_shape() {
    let pts = ext_sweep(SystemKind::Chimera);
    assert_eq!(pts.len(), 11);
    assert_eq!(pts[3].ext_tasks, 36, "30 % of 120");
    // Latency falls as the (faster) extension tasks dominate.
    assert!(pts[10].latency < pts[0].latency);
}

#[test]
fn table3_quick_smoke() {
    let row = table3_row(&SPEC_PROFILES[4], Scale::QUICK);
    assert!(row.smile > 0);
    assert!(row.dead_not_found.0 <= row.dead_not_found.1);
}

#[test]
fn fig14_quick_smoke() {
    let pts = fig14_kernel(BlasKind::Dgemv, 12, &[2, 4], 4, 4);
    assert_eq!(pts.len(), 2);
    for p in &pts {
        // Under FIFO work stealing a base core takes a slice whatever
        // its variant costs there, so Chimera (downgraded gemv slices)
        // trails MELF (native scalar ones) — see EXPERIMENTS.md.
        assert!(p.ratios.iter().all(|r| r.is_finite() && *r > 0.0), "{p:?}");
        assert!(p.ratios[3] <= p.ratios[2], "MELF is the ideal: {p:?}");
    }
}
