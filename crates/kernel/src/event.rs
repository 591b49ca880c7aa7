//! The deterministic logical-time event queue of the many-hart kernel.
//!
//! Logical time is the scheduler's **slot** index — one slot is one
//! barrier-synchronous round in which every runnable hart executes up to
//! its fuel quantum. Cross-hart effects produced inside a slot (IPIs,
//! timer arms, migration commits) are buffered per hart and merged into
//! this queue *after* the round, so the queue's contents never depend on
//! which host worker ran which hart, or in what real-time order.
//!
//! Delivery order is the derived `Ord` on [`HartEvent`] — `(at, hart,
//! kind)` — a **pure function of the events themselves**: two queues
//! holding the same multiset of events pop identically regardless of
//! insertion order or of how many host workers produced them. That single
//! property is what makes N-hart runs bit-identical across host worker
//! counts (`sched_properties.rs` asserts it directly; `tests/many_hart.rs`
//! asserts the end-to-end consequence).

use std::collections::BTreeMap;

/// What a delivered event does to its destination hart.
///
/// The variant order (then the payload) is the fixed tie-break among
/// events delivered to the same hart in the same slot: timers before
/// IPIs, IPIs in sender order, wakeups, then migration commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HartEventKind {
    /// A one-shot timer the hart armed (`sys::SET_TIMER`) fired.
    Timer,
    /// An inter-processor wakeup (`sys::IPI`) from hart `from`.
    Ipi {
        /// The sending hart.
        from: u64,
    },
    /// A scheduler-initiated wakeup (no guest sender).
    Wakeup,
    /// The hart's pending migration to its extension profile commits.
    Migrate,
}

impl HartEventKind {
    /// Short identifier (metrics names, JSON).
    pub fn name(&self) -> &'static str {
        match self {
            HartEventKind::Timer => "timer",
            HartEventKind::Ipi { .. } => "ipi",
            HartEventKind::Wakeup => "wakeup",
            HartEventKind::Migrate => "migrate",
        }
    }
}

/// One queued event: deliver `kind` to `hart` at logical time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HartEvent {
    /// Delivery slot.
    pub at: u64,
    /// Destination hart.
    pub hart: u64,
    /// Payload.
    pub kind: HartEventKind,
}

/// A multiset of pending [`HartEvent`]s, popped in `(at, hart, kind)`
/// order. Identical events (two IPIs from the same sender landing in the
/// same slot) are counted, not collapsed.
#[derive(Debug, Default, Clone)]
pub struct EventQueue {
    due: BTreeMap<HartEvent, u64>,
    len: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Enqueues one event.
    pub fn push(&mut self, ev: HartEvent) {
        *self.due.entry(ev).or_insert(0) += 1;
        self.len += 1;
    }

    /// Pending events (multiset cardinality).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest pending delivery slot.
    pub fn next_at(&self) -> Option<u64> {
        self.due.keys().next().map(|ev| ev.at)
    }

    /// Removes and returns every event due at or before `now`, in
    /// delivery order.
    pub fn pop_due(&mut self, now: u64) -> Vec<HartEvent> {
        let mut out = Vec::new();
        while let Some((&ev, _)) = self.due.first_key_value() {
            if ev.at > now {
                break;
            }
            let (ev, n) = self.due.pop_first().expect("non-empty");
            self.len -= n;
            out.extend(std::iter::repeat_n(ev, n as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, hart: u64, kind: HartEventKind) -> HartEvent {
        HartEvent { at, hart, kind }
    }

    #[test]
    fn pops_in_time_hart_kind_order() {
        let mut q = EventQueue::new();
        q.push(ev(2, 0, HartEventKind::Wakeup));
        q.push(ev(1, 5, HartEventKind::Ipi { from: 3 }));
        q.push(ev(1, 5, HartEventKind::Timer));
        q.push(ev(1, 2, HartEventKind::Migrate));
        q.push(ev(1, 5, HartEventKind::Ipi { from: 1 }));
        assert_eq!(q.len(), 5);
        assert_eq!(q.next_at(), Some(1));
        let due = q.pop_due(1);
        assert_eq!(
            due,
            vec![
                ev(1, 2, HartEventKind::Migrate),
                ev(1, 5, HartEventKind::Timer),
                ev(1, 5, HartEventKind::Ipi { from: 1 }),
                ev(1, 5, HartEventKind::Ipi { from: 3 }),
            ]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(1), vec![]);
        assert_eq!(q.pop_due(2), vec![ev(2, 0, HartEventKind::Wakeup)]);
        assert!(q.is_empty());
    }

    #[test]
    fn duplicates_are_counted() {
        let mut q = EventQueue::new();
        let e = ev(3, 1, HartEventKind::Ipi { from: 1 });
        q.push(e);
        q.push(e);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(3), vec![e, e]);
        assert!(q.is_empty());
    }
}
