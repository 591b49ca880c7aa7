//! Integration tests for the many-hart event kernel over the standard
//! heterogeneous scenario (see `chimera_testutil::ManyHartScenario`):
//! native RVV harts, FAM harts that fault-and-migrate mid-run, scalar
//! harts, CHBP-rewritten harts recovering SMILE faults under fuel
//! slicing, and communicator pairs blocking in `wfi` on the event queue.
//!
//! The scenario runs at 16 and 64 harts; the 256-hart scale is covered
//! bit-for-bit by `pipeline_e2e`'s `hetero_churn` workload.

use chimera_testutil::{run_many_hart_scenario, ManyHartScenario};

const HARTS: usize = 16;
/// `(harts, quantum)` inputs of the two scenario tests. The quanta are odd
/// and small, so every task is suspended mid-loop many times and
/// SMILE/FAM faults land on slice boundaries.
const SCALES: [(usize, u64); 2] = [(HARTS, 193), (64, 97)];

#[test]
fn standard_scenario_completes_every_execution_path() {
    let scn = ManyHartScenario::new();
    for (harts, quantum) in SCALES {
        let (r, counters, _) = run_many_hart_scenario(&scn, harts, 1, quantum);
        assert_eq!(
            r.exited(),
            harts,
            "{harts} harts: every hart must exit cleanly: {:?}",
            r.first_failure()
        );

        // The three matrix variants — native RVV, FAM-migrated, and
        // CHBP-rewritten on base — compute the same checksum.
        let native_exit = r.harts[0].exit.expect("hart 0 exits");
        for h in &r.harts {
            match h.hart % 8 {
                0 | 4 => assert_eq!(h.exit, Some(native_exit), "hart {}", h.hart),
                1 | 5 => {
                    assert_eq!(h.exit, Some(native_exit), "hart {}", h.hart);
                    assert_eq!(h.migrations, 1, "FAM hart {} migrates once", h.hart);
                }
                6 => {
                    assert_eq!(h.exit, Some(native_exit), "hart {}", h.hart);
                    if h.hart % 16 == 6 {
                        assert!(
                            h.counters.trap_trampolines > 0,
                            "strawman hart {} must round-trip through the trap handler",
                            h.hart
                        );
                    }
                }
                2 => assert_eq!(h.migrations, 0, "scalar hart {} never migrates", h.hart),
                _ => {
                    // Communicators encode their own id in the exit code, so
                    // a cross-hart mixup is visible architecturally.
                    let exit = h.exit.expect("communicator exits") as u64;
                    assert_eq!(exit / 1000, h.hart, "hart {}: exit {}", h.hart, exit);
                }
            }
        }

        // Aggregates reconcile with the trace counters.
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
        let quarter = (harts / 4) as u64;
        assert_eq!(counter("many.migrations"), r.migrations);
        assert_eq!(r.migrations, quarter, "{harts} harts: one per FAM hart");
        assert_eq!(counter("many.delivered_timer"), r.delivered.0);
        assert_eq!(counter("many.delivered_ipi"), r.delivered.1);
        assert_eq!(counter("many.delivered_wakeup"), r.delivered.2);
        // Each communicator pair exchanges 3 IPI rounds + a one-shot timer.
        assert_eq!(r.delivered.1, quarter * 3, "{harts} harts: IPI rounds");
        assert_eq!(r.delivered.0, quarter, "{harts} harts: timers");
        assert_eq!(counter("many.events_dropped"), 0);
    }
}

#[test]
fn standard_scenario_is_bit_identical_across_worker_counts() {
    let scn = ManyHartScenario::new();
    for (harts, quantum) in SCALES {
        let (base, base_counters, base_records) = run_many_hart_scenario(&scn, harts, 1, quantum);
        assert_eq!(base.exited(), harts, "{:?}", base.first_failure());
        assert!(!base_records.is_empty());
        for workers in [2, 4, 8] {
            let (r, counters, records) = run_many_hart_scenario(&scn, harts, workers, quantum);
            assert_eq!(r, base, "{harts} harts, workers={workers}: result diverged");
            assert_eq!(
                counters, base_counters,
                "{harts} harts, workers={workers}: trace counters diverged"
            );
            // Every hart's record stream — events, order and cycle stamps —
            // is the same whichever worker ran which slice.
            assert!(
                records == base_records,
                "{harts} harts, workers={workers}: trace records diverged"
            );
        }
    }
}

#[test]
fn quantum_changes_slicing_but_not_architectural_results() {
    let scn = ManyHartScenario::new();
    let (a, ..) = run_many_hart_scenario(&scn, HARTS, 2, 64);
    let (b, ..) = run_many_hart_scenario(&scn, HARTS, 2, 4096);
    assert_eq!(a.exited(), HARTS, "{:?}", a.first_failure());
    for (ha, hb) in a.harts.iter().zip(&b.harts) {
        assert_eq!(ha.exit, hb.exit, "hart {}", ha.hart);
        assert_eq!(
            ha.retired, hb.retired,
            "hart {}: slicing is transparent",
            ha.hart
        );
        assert_eq!(ha.migrations, hb.migrations, "hart {}", ha.hart);
        assert_eq!(ha.counters, hb.counters, "hart {}", ha.hart);
    }
}
