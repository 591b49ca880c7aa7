//! Named monotonic counters and count-and-sum histograms.
//!
//! Registration (name lookup) takes a mutex; the returned [`Counter`] and
//! [`Histogram`] handles are plain atomics, so hot sites register once and
//! increment lock-free afterwards. A tracer's handles share its one
//! registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter handle (lock-free).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
}

/// A histogram handle that keeps the number and the sum of its
/// observations (lock-free).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

/// A registry of named counters and histograms.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters = self.counter_snapshot();
        write!(f, "MetricsRegistry({} counters)", counters.len())
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns (registering if new) the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("metrics poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns (registering if new) the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("metrics poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::default()))
            .clone()
    }

    /// The named counter's value, if it was ever registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .lock()
            .expect("metrics poisoned")
            .get(name)
            .map(|c| c.get())
    }

    /// A sorted snapshot of every counter.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("metrics poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(m.counter_value("x"), Some(4));
        assert_eq!(m.counter_value("y"), None);
    }

    #[test]
    fn histograms_keep_count_and_sum() {
        let m = MetricsRegistry::new();
        let h = m.histogram("lat");
        h.record(0);
        h.record(5);
        m.histogram("lat").record(800);
        assert_eq!((h.count(), h.sum()), (3, 805));
    }
}
