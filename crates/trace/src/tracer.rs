//! The tracer handle and the one record buffer behind it.
//!
//! [`Tracer`] is the handle every instrumented component holds. Disabled
//! (the default) it is a `None` and [`Tracer::record`] is a single branch
//! — cheap enough to leave in release builds unconditionally. Enabled,
//! every handle derived from one [`Tracer::enabled`] call appends to one
//! mutex-guarded buffer. The buffer numbers records per hart id as they
//! are made, so all handles recording as hart `h` — clones, a second
//! [`Tracer::for_hart`] derivation, the root handle for hart 0 — extend
//! one stream in the order the records were made, on whatever thread. The
//! buffer is bounded; overflow drops the newest records and counts them,
//! so a runaway event source degrades the trace instead of memory.

use crate::event::{TraceEvent, TraceRecord};
use crate::metrics::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Cap on the record buffer. Generous for every workload in this repo;
/// the bound exists so tracing can never exhaust memory.
pub(crate) const MAX_RECORDS: usize = 1 << 20;

#[derive(Default)]
struct Buffer {
    records: Vec<TraceRecord>,
    /// The next sequence number of each hart id's stream.
    next_seq: BTreeMap<u64, u64>,
    dropped: u64,
}

#[derive(Default)]
struct Shared {
    buffer: Mutex<Buffer>,
    metrics: MetricsRegistry,
}

impl Shared {
    fn buffer(&self) -> MutexGuard<'_, Buffer> {
        // A panic elsewhere while holding the lock leaves the buffer
        // consistent (every update is one push or one add).
        self.buffer.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Numbers the record within `hart`'s stream and keeps it, or counts
    /// it as dropped when the buffer is full. Out of line, so the
    /// disabled [`Tracer::record`] inlines to one branch.
    #[inline(never)]
    fn push(&self, hart: u64, cycles: u64, event: TraceEvent) {
        let mut buf = self.buffer();
        let next = buf.next_seq.entry(hart).or_default();
        let seq = *next;
        *next += 1;
        if buf.records.len() < MAX_RECORDS {
            buf.records.push(TraceRecord {
                hart,
                seq,
                cycles,
                event,
            });
        } else {
            buf.dropped += 1;
        }
    }
}

/// The handle instrumented components hold.
///
/// Cloning shares the record buffer and the metrics (the same tracer is
/// handed to the CPU, the kernel and the scheduler of one run). The
/// disabled tracer is a `None`: [`Tracer::record`] compiles to a branch
/// over an `Option`, so instrumentation can stay unconditional.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Handle>>,
}

/// A handle's hart and the buffer it records into, both behind the
/// handle's `Arc` so a `Tracer`, which every `Cpu` holds, stays one
/// pointer wide.
struct Handle {
    shared: Arc<Shared>,
    /// The hart stamped onto every record (0 for the root handle).
    hart: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => write!(f, "Tracer(enabled)"),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// The no-op tracer (the default everywhere).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer over a fresh buffer and metrics registry; it
    /// records as hart 0.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Handle {
                shared: Arc::default(),
                hart: 0,
            })),
        }
    }

    /// A handle onto the same buffer and metrics that stamps its records
    /// with `hart`. Every handle for one hart id extends that hart's one
    /// stream. Deriving from a disabled tracer yields a disabled handle.
    pub fn for_hart(&self, hart: u64) -> Tracer {
        Tracer {
            inner: self.inner.as_ref().map(|h| {
                Arc::new(Handle {
                    shared: Arc::clone(&h.shared),
                    hart,
                })
            }),
        }
    }

    /// Whether records are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an event at the given simulated-cycle timestamp. A no-op
    /// when disabled.
    #[inline]
    pub fn record(&self, cycles: u64, event: TraceEvent) {
        if let Some(h) = &self.inner {
            h.shared.push(h.hart, cycles, event);
        }
    }

    /// Bumps the named monotonic counter by `n`. A no-op when disabled.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(h) = &self.inner {
            h.shared.metrics.counter(name).add(n);
        }
    }

    /// Records `value` into the named histogram. A no-op when disabled.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(h) = &self.inner {
            h.shared.metrics.histogram(name).record(value);
        }
    }

    /// The metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|h| &h.shared.metrics)
    }

    /// Removes and returns every record kept so far, in `(hart, seq)`
    /// order: each hart's stream contiguous and in the order it was made,
    /// streams by ascending hart id. Empty for a disabled tracer.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let Some(h) = &self.inner else {
            return Vec::new();
        };
        let mut records = std::mem::take(&mut h.shared.buffer().records);
        records.sort_unstable_by_key(|r| (r.hart, r.seq));
        records
    }

    /// Records dropped because the buffer was full (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |h| h.shared.buffer().dropped)
    }
}
