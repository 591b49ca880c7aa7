//! # chimera-trace
//!
//! A zero-dependency tracing and metrics layer for the Chimera runtime
//! (see DESIGN.md §"Observability").
//!
//! Two pieces:
//!
//! * **[`Tracer`]** — the handle instrumented components (the emulator's
//!   CPU, the kernel runner, the scheduler, the rewriter) hold. Disabled —
//!   the default everywhere — every operation is a branch over a `None`;
//!   enabled, typed [`TraceEvent`]s go into one bounded record buffer
//!   shared by every handle of the tracer, numbered per hart as they are
//!   made, and [`Tracer::drain`] returns them in `(hart, seq)` order.
//! * **[`MetricsRegistry`]** — named monotonic [`Counter`]s and
//!   [`Histogram`]s that keep a count and a sum (migration, fault-handling
//!   and rewrite-pass latencies). Handles are plain atomics after a
//!   one-time registration, and unlike records they are never dropped, so
//!   they reconcile exactly against the kernel's `FaultCounters` and the
//!   emulator's `CacheStats`.
//!
//! Event timestamps are *simulated* cycles from the emulator's
//! deterministic cost model, supplied by each recording site — so traces
//! of deterministic runs are deterministic too (rewrite-time events carry
//! wall-clock durations in their payload instead; their timestamp is 0).
//!
//! This crate sits below every other chimera crate (it depends on nothing
//! but `std`), which is what lets the emulator, kernel and rewriter all
//! share one event vocabulary without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod tracer;

pub use event::{RewritePass, TraceEvent, TraceRecord, TrapKind};
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use tracer::Tracer;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn ev(pc: u64) -> TraceEvent {
        TraceEvent::BlockBuilt { pc, insts: 1 }
    }

    fn keys(recs: &[TraceRecord]) -> Vec<(u64, u64, u64)> {
        recs.iter().map(|r| (r.hart, r.seq, r.cycles)).collect()
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.record(0, ev(1));
        t.count("x", 3);
        t.observe("h", 5);
        assert!(t.drain().is_empty());
        assert!(t.metrics().is_none());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn records_drain_in_sequence_order() {
        let t = Tracer::enabled();
        for pc in 0..10 {
            t.record(pc * 100, ev(pc));
        }
        let recs = t.drain();
        assert_eq!(recs.len(), 10);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.cycles, i as u64 * 100);
        }
        // Drain empties.
        assert!(t.drain().is_empty());
    }

    #[test]
    fn cross_thread_records_merge_on_thread_exit() {
        let t = Tracer::enabled();
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let t2 = t.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..100 {
                    t2.record(j, ev(i * 1000 + j));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.record(0, ev(9999));
        let recs = t.drain();
        assert_eq!(recs.len(), 401);
        // One hart-0 stream across every thread: seqs 0..401, each once.
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..401).collect::<Vec<u64>>());
    }

    #[test]
    fn records_on_a_live_thread_drain() {
        let t = Tracer::enabled();
        let (recorded, wait_recorded) = mpsc::channel();
        let (release, wait_release) = mpsc::channel::<()>();
        let t2 = t.clone();
        let worker = std::thread::spawn(move || {
            t2.record(7, ev(7));
            recorded.send(()).unwrap();
            wait_release.recv().unwrap();
        });
        wait_recorded.recv().unwrap();
        // The worker is still running: its record is already drainable.
        assert_eq!(keys(&t.drain()), [(0, 0, 7)]);
        release.send(()).unwrap();
        worker.join().unwrap();
        assert!(t.drain().is_empty());
    }

    #[test]
    fn tracer_clones_share_state() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t.record(1, ev(1));
        t2.record(2, ev(2));
        t2.count("shared", 1);
        t.count("shared", 1);
        assert_eq!(t.drain().len(), 2);
        assert_eq!(t.metrics().unwrap().counter_value("shared"), Some(2));
    }

    #[test]
    fn root_and_for_hart_zero_share_one_stream() {
        let root = Tracer::enabled();
        let hart0 = root.for_hart(0);
        root.record(1, ev(1));
        hart0.record(2, ev(2));
        root.record(3, ev(3));
        assert_eq!(keys(&root.drain()), [(0, 0, 1), (0, 1, 2), (0, 2, 3)]);
    }

    #[test]
    fn two_handles_for_one_hart_extend_one_stream() {
        // The second kernel of a churn loop on one tracer derives hart 3
        // again; its records continue the first kernel's stream.
        let root = Tracer::enabled();
        let first = root.for_hart(3);
        first.record(10, ev(10));
        first.record(11, ev(11));
        let second = root.for_hart(3);
        second.record(20, ev(20));
        second.record(21, ev(21));
        let recs = root.drain();
        assert_eq!(
            keys(&recs),
            [(3, 0, 10), (3, 1, 11), (3, 2, 20), (3, 3, 21)]
        );
        let mut unique: Vec<(u64, u64)> = recs.iter().map(|r| (r.hart, r.seq)).collect();
        unique.dedup();
        assert_eq!(unique.len(), recs.len(), "a (hart, seq) key repeats");
    }

    #[test]
    fn hart_ring_survives_cross_worker_migration() {
        // Under the fiber scheduler a hart is suspended on one worker and
        // resumed on another; its records must extend the *hart's*
        // stream regardless of the recording thread.
        let root = Tracer::enabled();
        let hart3 = root.for_hart(3);
        let hart5 = root.for_hart(5);

        // Slice 1 of each hart on worker A, slice 2 on worker B —
        // a forced cross-worker migration between the slices.
        for slice in [0u64, 10] {
            for (tracer, base) in [(&hart3, slice), (&hart5, 100 + slice)] {
                let t = tracer.clone();
                std::thread::spawn(move || {
                    for j in 0..10 {
                        t.record(base + j, ev(base + j));
                    }
                })
                .join()
                .unwrap();
            }
        }

        // Each hart's stream is contiguous and in the order recorded.
        let recs = root.drain();
        assert_eq!(recs.len(), 40);
        for (i, r) in recs.iter().enumerate() {
            let (hart, j) = if i < 20 { (3, i) } else { (5, i - 20) };
            let base = if hart == 3 { 0 } else { 100 };
            assert_eq!((r.hart, r.seq, r.cycles), (hart, j as u64, base + j as u64));
        }
        assert_eq!(root.dropped(), 0);
    }

    #[test]
    fn for_hart_streams_share_sink_and_metrics() {
        let t = Tracer::enabled();
        let a = t.for_hart(1);
        let b = t.for_hart(2);
        // Per-hart sequence numbers are independent and start at 0.
        a.record(10, ev(1));
        b.record(20, ev(2));
        a.record(30, ev(3));
        a.count("hart.work", 1);
        b.count("hart.work", 2);
        let recs = t.drain();
        assert_eq!(keys(&recs), [(1, 0, 10), (1, 1, 30), (2, 0, 20)]);
        // Metrics are shared with the root handle.
        assert_eq!(t.metrics().unwrap().counter_value("hart.work"), Some(3));
        // Deriving from a disabled tracer stays disabled.
        assert!(!Tracer::disabled().for_hart(7).is_enabled());
    }

    #[test]
    fn merged_buffer_overflow_counts_drops() {
        let cap = tracer::MAX_RECORDS as u64;
        let t = Tracer::enabled();
        for pc in 0..cap + 6 {
            t.record(pc, ev(pc));
        }
        assert_eq!(t.dropped(), 6);
        let recs = t.drain();
        assert_eq!(recs.len() as u64, cap);
        // The first records made are kept; the newest six are dropped.
        assert!(recs.iter().zip(0..).all(|(r, i)| r.cycles == i));
    }
}
