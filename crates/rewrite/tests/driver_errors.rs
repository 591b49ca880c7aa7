//! The driver's own invariants fail typed, not by panic: an engine whose
//! emission breaks them gets a [`RewriteError::Layout`] naming the unit,
//! and an input no target block could address a
//! [`RewriteError::BadBinary`], from the calling thread and from inside a
//! worker alike. The same toy engine counts its emissions: a unit is
//! emitted once per run.

use chimera_isa::ExtSet;
use chimera_obj::{assemble, AsmOptions, Binary, TEXT_BASE};
use chimera_rewrite::{
    run, run_cached, run_incremental, ChbpEngine, DirtySpan, Entry, Frame, Placement, RewriteCache,
    RewriteEngine, RewriteError, RewriteOptions, Scanned, UnitArtifact, Units,
};
use chimera_trace::Tracer;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Enough units that four workers really are spawned.
const UNITS: usize = 64;
const BAD_UNIT: usize = 37;

/// A toy engine (and its own unit set) of `UNITS` 8-byte units whose
/// emissions are counted; every emission after the first `pure` comes out
/// with different bytes.
#[derive(Clone)]
struct Toy {
    pure: usize,
    emissions: Arc<AtomicUsize>,
}

/// The count is not part of the engine's cache identity.
impl std::fmt::Debug for Toy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Toy {{ pure: {} }}", self.pure)
    }
}

impl Toy {
    fn pure_for(pure: usize) -> Self {
        Toy {
            pure,
            emissions: Arc::default(),
        }
    }

    fn emissions(&self) -> usize {
        self.emissions.load(Ordering::Relaxed)
    }
}

impl RewriteEngine for Toy {
    fn target_section(&self) -> Option<&'static str> {
        Some(".toy")
    }

    fn scan(&self, input: &Binary, _: Frame, _: usize) -> Result<Scanned, RewriteError> {
        Ok(Scanned {
            units: Arc::new(self.clone()),
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

impl Units for Toy {
    fn emit(&self, _: usize) -> Result<UnitArtifact, RewriteError> {
        let nth = self.emissions.fetch_add(1, Ordering::Relaxed);
        Ok(UnitArtifact {
            bytes: vec![(nth >= self.pure) as u8; 8],
            ..Default::default()
        })
    }

    fn place(&self, _: usize, cursor: u64) -> Result<Option<Placement>, RewriteError> {
        Ok(Some(Placement {
            addr: cursor,
            entry: Entry::Unpatched,
        }))
    }
}

fn input() -> Binary {
    let source = format!("_start:\n{}ecall\n", "nop\n".repeat(UNITS));
    assemble(&source, AsmOptions::default()).unwrap()
}

/// Primes a cache, then re-rewrites with `BAD_UNIT`'s source dirty.
fn prime_and_dirty_one(engine: &Toy, workers: usize) -> (RewriteCache, Result<(), RewriteError>) {
    let bin = input();
    let (_, mut cache) = run_cached(engine, &bin, workers, &Tracer::disabled()).unwrap();
    let dirty = DirtySpan {
        start: TEXT_BASE + 4 * BAD_UNIT as u64,
        end: TEXT_BASE + 4 * BAD_UNIT as u64 + 4,
        generation: 1,
    };
    let redone = run_incremental(
        engine,
        &bin,
        &mut cache,
        &[dirty],
        workers,
        &Tracer::disabled(),
    );
    (cache, redone.map(drop))
}

#[test]
fn a_unit_is_emitted_once_per_run_and_once_more_when_dirty() {
    for workers in [1, 4] {
        let engine = Toy::pure_for(usize::MAX);
        run(&engine, &input(), workers, &Tracer::disabled()).unwrap();
        assert_eq!(engine.emissions(), UNITS, "workers {workers}: one run");

        let engine = Toy::pure_for(usize::MAX);
        let (cache, redone) = prime_and_dirty_one(&engine, workers);
        redone.unwrap();
        assert_eq!(cache.unit_count(), UNITS);
        assert_eq!(
            engine.emissions(),
            UNITS + 1,
            "workers {workers}: priming, then the one dirty unit"
        );
    }
}

#[test]
fn impure_re_emission_is_a_layout_error() {
    for workers in [1, 4] {
        // Priming emits every unit once.
        let (_, redone) = prime_and_dirty_one(&Toy::pure_for(UNITS), workers);
        let err = redone.expect_err("a diverging re-emission must not produce output");
        let RewriteError::Layout(msg) = &err else {
            panic!("workers {workers}: expected a layout error, got {err}");
        };
        assert!(msg.contains(&format!("unit {BAD_UNIT}")), "{msg}");
    }
}

/// `Binary::validate` accepts data and `gp` above 4 GiB; target blocks
/// materialize `gp` and the spill base with `lui`+`addiw`, so the driver
/// has to refuse them before an emission worker meets one.
#[test]
fn bases_beyond_what_target_blocks_materialize_are_a_bad_binary() {
    let mut bin = assemble(
        "
        .data
        a: .dword 1
           .dword 2
        .text
        _start:
            li t0, 2
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            vle64.v v1, (a0)
            vmv.x.s a0, v1
            li a7, 93
            ecall
        ",
        AsmOptions::default(),
    )
    .unwrap();
    for s in bin.sections.iter_mut().filter(|s| !s.perms.x) {
        s.addr += 1 << 32;
    }
    bin.gp += 1 << 32;
    bin.validate().expect("still a valid binary");
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    };
    for workers in [1, 4] {
        let err = run(&engine, &bin, workers, &Tracer::disabled())
            .err()
            .expect("no target block can address this input");
        assert!(
            matches!(err, RewriteError::BadBinary(_)),
            "workers {workers}: {err}"
        );
    }
}

/// An original `auipc` may compute anything within 2 GiB of itself; its
/// copy in a target block re-materializes that value pc-relative from the
/// target section, which lies above the input. One that reached 2 GiB
/// *down* is out of the copy's reach: a layout error from the place
/// stage, not a panic in `Reloc::resolve`.
#[test]
fn an_auipc_value_beyond_reach_of_the_target_section_is_a_layout_error() {
    use chimera_isa::{Eew, Inst, VReg, VType, XReg};
    let mut b = chimera_obj::ModuleBuilder::new(false);
    b.label("_start").inst(Inst::Vsetvli {
        rd: XReg::T1,
        rs1: XReg::ZERO,
        vtype: VType {
            sew: Eew::E64,
            lmul: 1,
            ta: true,
            ma: true,
        },
    });
    // Batched into the `vsetvli`'s block, and so copied.
    b.inst(Inst::Auipc {
        rd: XReg::A0,
        imm20: -0x8_0000,
    });
    b.inst(Inst::VMvXS {
        rd: XReg::A0,
        vs2: VReg::of(1),
    });
    b.li(XReg::A7, 93).inst(Inst::Ecall);
    let bin = b.build(ExtSet::RV64GCV).unwrap();
    let engine = ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    };
    for workers in [1, 4] {
        let err = run(&engine, &bin, workers, &Tracer::disabled())
            .err()
            .expect("no auipc in the target section reaches 2 GiB below the input");
        let RewriteError::Layout(msg) = &err else {
            panic!("workers {workers}: expected a layout error, got {err}");
        };
        assert!(msg.contains("Value"), "{msg}");
    }
}
