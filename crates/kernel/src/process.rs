//! The Chimera process model: one process, multiple address-space views
//! (MMViews, §4.3), one per heterogeneous core class.
//!
//! Each view is instantiated from the rewritten (or native) binary for its
//! core class. Code and read-only sections are per-view; writable sections
//! — `.data`, the stack, and the `.chimera.vregs` simulated-vector-state
//! section — are shared, so a task's memory state survives migration.
//! Migration additionally synchronizes the *architectural* vector state
//! with the simulated one: a native (vector-capable) view keeps vectors in
//! hart registers, a downgraded view keeps them in the spill section, and
//! the kernel converts on the way across (§4.1's "consistent behavior
//! across heterogeneous cores").

use crate::runtime::{KernelRunner, RuntimeTables};
use chimera_emu::{Cpu, Memory, VLENB};
use chimera_isa::{Eew, Ext, ExtSet, VReg};
use chimera_obj::{Binary, Perms};
use chimera_rewrite::translate::SpillLayout;
use chimera_rewrite::FaultTable;
use chimera_trace::{TraceEvent, Tracer};

/// Extra executable slack mapped after the target section for lazy
/// rewriting at runtime.
pub const LAZY_SLACK: u64 = 64 * 1024;

/// One binary variant (one MMView's backing image).
#[derive(Debug, Clone)]
pub struct Variant {
    /// The executable image for this core class.
    pub binary: Binary,
    /// Its runtime tables (empty for native binaries).
    pub tables: RuntimeTables,
}

impl Variant {
    /// A native (unrewritten) variant.
    pub fn native(binary: Binary) -> Variant {
        Variant {
            binary,
            tables: RuntimeTables::default(),
        }
    }

    /// The profile this variant's code requires.
    pub fn profile(&self) -> ExtSet {
        self.binary.profile
    }
}

/// A rewritten variant: the output binary with its fault table and
/// regeneration metadata as runtime tables. (An identity-engine result
/// wants [`Variant::native`] instead: a native binary has no tables.)
impl From<chimera_rewrite::EngineResult> for Variant {
    fn from(r: chimera_rewrite::EngineResult) -> Variant {
        Variant {
            binary: r.rewritten.binary,
            tables: RuntimeTables {
                fht: Some(r.rewritten.fht),
                regen: r.regen,
            },
        }
    }
}

/// A process with one MMView per core class.
#[derive(Debug, Clone)]
pub struct Process {
    /// The views: `(profile, variant)` pairs, first match wins.
    pub views: Vec<Variant>,
}

impl Process {
    /// Creates a process from its per-core-class variants.
    pub fn new(views: Vec<Variant>) -> Process {
        assert!(!views.is_empty(), "a process needs at least one view");
        Process { views }
    }

    /// The view whose code a core with `profile` can execute.
    pub fn view_for(&self, profile: ExtSet) -> Option<&Variant> {
        self.views
            .iter()
            .find(|v| profile.is_superset_of(v.profile()))
    }

    /// Loads the process with the view for `profile` active: maps that
    /// view's sections, the shared stack, and lazy-rewrite slack; returns a
    /// booted CPU and memory.
    pub fn load(&self, profile: ExtSet) -> Option<(Cpu, Memory, &Variant)> {
        self.view_for(profile).map(|_| self.load_on(profile))
    }

    /// [`Process::load`] for a scheduler, which places tasks before it
    /// knows whether the core can finish them: a core with no matching
    /// view (a single-view FAM process on a base core) boots the first
    /// view anyway; its unsupported instructions fault and request a
    /// migration.
    pub fn load_on(&self, profile: ExtSet) -> (Cpu, Memory, &Variant) {
        let view = self.view_for(profile).unwrap_or(&self.views[0]);
        let (cpu, mut mem) = chimera_emu::boot(&view.binary, profile);
        map_lazy_slack(&mut mem, view);
        (cpu, mem, view)
    }

    /// Switches the active MMView: swaps per-view code/read-only regions,
    /// keeps shared writable regions, and re-points the CPU's profile and
    /// pc-invariant state. The caller must ensure pc is at a
    /// view-equivalent address (not inside target instructions — see
    /// [`Process::migration_safe`]).
    pub fn switch_view(&self, mem: &mut Memory, cpu: &mut Cpu, to_profile: ExtSet) -> bool {
        let Some(to) = self.view_for(to_profile) else {
            return false;
        };
        // Remove all non-writable regions (per-view), keep RW (shared).
        let names: Vec<String> = mem
            .regions()
            .iter()
            .filter(|r| !r.perms.w)
            .map(|r| r.name.clone())
            .collect();
        for n in names {
            mem.unmap(&n);
        }
        mem.unmap("[lazy]");
        // Map the new view's non-writable sections, and any writable
        // section the shared state does not have yet (e.g. the spill
        // section when coming from a native view).
        for s in &to.binary.sections {
            if !s.perms.w || mem.region(&s.name).is_none() {
                mem.map_bytes(s.addr, s.data.clone(), s.perms, &s.name);
            }
        }
        map_lazy_slack(mem, to);
        cpu.profile = to_profile;
        true
    }

    /// Migrates a live task to a core with `to_profile`, at the pc it
    /// stopped at. A process with one view for both cores (FAM) only
    /// changes the profile; otherwise the MMView is switched, the vector
    /// state moves between hart registers and the spill section when
    /// exactly one side keeps it there, and `runner` takes the new view's
    /// tables. Emits one [`TraceEvent::TaskMigrated`] (`from_base` = the
    /// new profile is strictly more capable, i.e. the task moves *up* off a
    /// base core). Returns `false`, leaving the task untouched, when no
    /// view runs on `to_profile` or pc is not at a
    /// [`Process::migration_safe`] point.
    pub fn migrate(
        &self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        runner: &mut KernelRunner,
        to_profile: ExtSet,
        task: u64,
        tracer: &Tracer,
    ) -> bool {
        // The mapped view is the one `load_on` chose for the old profile.
        let from = self.view_for(cpu.profile).unwrap_or(&self.views[0]);
        let Some(to) = self.view_for(to_profile) else {
            return false;
        };
        if !Process::migration_safe(from, cpu.hart.pc) {
            return false;
        }
        let from_profile = cpu.profile;
        if std::ptr::eq(from, to) {
            cpu.profile = to_profile;
        } else {
            self.switch_view(mem, cpu, to_profile);
            // After the switch: the spill section is mapped on both sides.
            match (vector_spill(from), vector_spill(to)) {
                (Some(spill), None) => sync_vectors_from_spill(cpu, mem, spill),
                (None, Some(spill)) => sync_vectors_to_spill(cpu, mem, spill),
                _ => {}
            }
            runner.retarget(to.tables.clone());
        }
        let from_base = to_profile != from_profile && to_profile.is_superset_of(from_profile);
        tracer.record(
            cpu.stats.cycles,
            TraceEvent::TaskMigrated { task, from_base },
        );
        true
    }

    /// Whether the task can migrate right now: pc must not be inside the
    /// active view's target code (the target section or a lazily built
    /// block, not semantically equivalent across views, §4.3) or a
    /// trampoline, and must be in one of its executable sections — a SMILE
    /// `jalr` leaves pc at a data address whose fetch fault the kernel is
    /// yet to redirect, with `gp` still holding the return address. When
    /// `false`, the scheduler delays migration and re-checks at the next
    /// safe point (the paper inserts an exit-position probe; our kernel
    /// simply steps until pc is outside target code).
    pub fn migration_safe(active: &Variant, pc: u64) -> bool {
        let sections = &active.binary.sections;
        let fetchable = sections.iter().any(|s| s.perms.x && s.contains(pc));
        fetchable
            && match &active.tables.fht {
                Some(fht) => !in_target_code(fht, pc) && !fht.inside_trampoline(pc),
                None => true,
            }
    }
}

/// Whether `pc` is in the target code of a view with table `fht`: its
/// target section, or the slack after it where lazily built blocks run.
pub(crate) fn in_target_code(fht: &FaultTable, pc: u64) -> bool {
    (fht.target_range.0..fht.target_range.1 + LAZY_SLACK).contains(&pc)
}

/// Maps the executable slack lazy rewriting grows into, right after
/// `view`'s target section (when it has one).
fn map_lazy_slack(mem: &mut Memory, view: &Variant) {
    if let Some(fht) = &view.tables.fht {
        if fht.target_range.1 > fht.target_range.0 {
            mem.map(fht.target_range.1, LAZY_SLACK, Perms::RX, "[lazy]");
        }
    }
}

/// Where `view` keeps vector state while it runs: the spill section for a
/// view rewritten for cores without V, hart registers (`None`) otherwise.
fn vector_spill(view: &Variant) -> Option<u64> {
    let fht = view.tables.fht.as_ref()?;
    (!view.profile().contains(Ext::V)).then_some(fht.spill_base)
}

/// Copies the hart's architectural vector state into the spill section
/// (native → downgraded migration).
fn sync_vectors_to_spill(cpu: &Cpu, mem: &mut Memory, spill_base: u64) {
    let sew = cpu
        .hart
        .vtype
        .map(|t| t.sew.bytes())
        .unwrap_or(Eew::E64.bytes());
    let _ = mem.write(
        spill_base + SpillLayout::VL as u64,
        &cpu.hart.vl.to_le_bytes(),
    );
    let _ = mem.write(spill_base + SpillLayout::SEW as u64, &sew.to_le_bytes());
    for v in VReg::all() {
        let off = spill_base + SpillLayout::vreg_off(v) as u64;
        let _ = mem.write(off, cpu.hart.get_v(v));
    }
}

/// Copies the spill section into the hart's architectural vector state
/// (downgraded → native migration).
fn sync_vectors_from_spill(cpu: &mut Cpu, mem: &mut Memory, spill_base: u64) {
    if let Ok(vl) = mem.read_u64(spill_base + SpillLayout::VL as u64) {
        cpu.hart.vl = vl;
    }
    if let Ok(sew) = mem.read_u64(spill_base + SpillLayout::SEW as u64) {
        let sew = match sew {
            4 => Eew::E32,
            _ => Eew::E64,
        };
        cpu.hart.vtype = Some(chimera_isa::VType {
            sew,
            lmul: 1,
            ta: true,
            ma: true,
        });
    }
    for v in VReg::all() {
        let off = spill_base + SpillLayout::vreg_off(v) as u64;
        if let Some(bytes) = mem.peek(off, VLENB) {
            cpu.hart.get_v_mut(v).copy_from_slice(&bytes);
        }
    }
}
