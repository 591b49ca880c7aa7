//! The driver's own invariants fail typed, not by panic: an engine whose
//! emission breaks them gets a [`RewriteError::Layout`] naming the unit,
//! from the calling thread and from inside a worker alike.

use chimera_obj::{assemble, AsmOptions, Binary, TEXT_BASE};
use chimera_rewrite::{
    run, run_cached, run_incremental, DirtySpan, Entry, Frame, Placement, RewriteEngine,
    RewriteError, Scanned, UnitArtifact, Units,
};
use chimera_trace::Tracer;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Enough units that four workers really are spawned.
const UNITS: usize = 64;
const BAD_UNIT: usize = 37;

/// How the toy engine's emission misbehaves.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// `BAD_UNIT` is 4 bytes longer anywhere but at the scratch address.
    LongerWhenPlaced,
    /// Every emission after the first `n` comes out with different bytes.
    ImpureAfter(usize),
}

#[derive(Debug)]
struct Toy(Fault);

struct ToyUnits {
    fault: Fault,
    scratch: u64,
    emissions: AtomicUsize,
}

impl RewriteEngine for Toy {
    fn target_section(&self) -> Option<&'static str> {
        Some(".toy")
    }

    fn scan(&self, input: &Binary, frame: Frame, _: usize) -> Result<Scanned, RewriteError> {
        Ok(Scanned {
            units: Arc::new(ToyUnits {
                fault: self.0,
                scratch: frame.target_base,
                emissions: AtomicUsize::new(0),
            }),
            ranges: (0..UNITS as u64)
                .map(|i| (TEXT_BASE + 4 * i, TEXT_BASE + 4 * i + 4))
                .collect(),
            profile: input.profile,
            total_insts: UNITS,
            source_insts: UNITS,
            untranslated: BTreeSet::new(),
        })
    }
}

impl Units for ToyUnits {
    fn place(&self, _: usize, cursor: u64, _: u64) -> Result<Option<Placement>, RewriteError> {
        Ok(Some(Placement {
            addr: cursor,
            entry: Entry::Unpatched,
        }))
    }

    fn emit(&self, idx: usize, addr: u64) -> Result<UnitArtifact, RewriteError> {
        let nth = self.emissions.fetch_add(1, Ordering::Relaxed);
        let (len, fill) = match self.fault {
            Fault::LongerWhenPlaced if idx == BAD_UNIT && addr != self.scratch => (12, 0),
            Fault::ImpureAfter(n) if nth >= n => (8, 1),
            _ => (8, 0),
        };
        Ok(UnitArtifact {
            bytes: vec![fill; len],
            ..Default::default()
        })
    }
}

fn input() -> Binary {
    let source = format!("_start:\n{}ecall\n", "nop\n".repeat(UNITS));
    assemble(&source, AsmOptions::default()).unwrap()
}

#[test]
fn emission_longer_at_the_placed_address_is_a_layout_error() {
    for workers in [1, 4] {
        let err = run(
            &Toy(Fault::LongerWhenPlaced),
            &input(),
            workers,
            &Tracer::disabled(),
        )
        .err()
        .expect("a size-variant emission must not produce output");
        let RewriteError::Layout(msg) = &err else {
            panic!("workers {workers}: expected a layout error, got {err}");
        };
        assert!(msg.contains(&format!("unit {BAD_UNIT}")), "{msg}");
    }
}

#[test]
fn impure_re_emission_is_a_layout_error() {
    for workers in [1, 4] {
        // Priming emits every unit twice (measure, then transform).
        let engine = Toy(Fault::ImpureAfter(2 * UNITS));
        let bin = input();
        let (_, mut cache) = run_cached(&engine, &bin, workers, &Tracer::disabled()).unwrap();
        let dirty = DirtySpan {
            start: TEXT_BASE + 4 * BAD_UNIT as u64,
            end: TEXT_BASE + 4 * BAD_UNIT as u64 + 4,
            generation: 1,
        };
        let err = run_incremental(
            &engine,
            &bin,
            &mut cache,
            &[dirty],
            workers,
            &Tracer::disabled(),
        )
        .err()
        .expect("a diverging re-emission must not produce output");
        let RewriteError::Layout(msg) = &err else {
            panic!("workers {workers}: expected a layout error, got {err}");
        };
        assert!(msg.contains(&format!("unit {BAD_UNIT}")), "{msg}");
    }
}
