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

use crate::runtime::RuntimeTables;
use chimera_emu::{Cpu, Memory, VLENB};
use chimera_isa::{Eew, ExtSet, VReg, XReg};
use chimera_obj::{Binary, Perms, DEFAULT_STACK_SIZE, STACK_TOP};
use chimera_rewrite::translate::SpillLayout;
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
        let view = self.view_for(profile)?;
        let mut mem = Memory::new();
        for s in &view.binary.sections {
            mem.map_bytes(s.addr, s.data.clone(), s.perms, &s.name);
        }
        mem.map(
            STACK_TOP - DEFAULT_STACK_SIZE,
            DEFAULT_STACK_SIZE,
            Perms::RW,
            "[stack]",
        );
        if let Some(fht) = &view.tables.fht {
            if fht.target_range.1 > fht.target_range.0 {
                mem.map(fht.target_range.1, LAZY_SLACK, Perms::RX, "[lazy]");
            }
        }
        let mut cpu = Cpu::new(profile);
        cpu.hart.pc = view.binary.entry;
        cpu.hart.set_x(XReg::SP, STACK_TOP - 64);
        cpu.hart.set_x(XReg::GP, view.binary.gp);
        Some((cpu, mem, view))
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
        if let Some(fht) = &to.tables.fht {
            if fht.target_range.1 > fht.target_range.0 {
                mem.unmap("[lazy]");
                mem.map(fht.target_range.1, LAZY_SLACK, Perms::RX, "[lazy]");
            }
        }
        cpu.profile = to_profile;
        true
    }

    /// [`Process::switch_view`] with migration tracing: on success, emits
    /// [`TraceEvent::TaskMigrated`] (`from_base` = the new view is strictly
    /// more capable than the old, i.e. the task is moving *up* off a base
    /// core) and bumps `process.view_switches`.
    pub fn switch_view_traced(
        &self,
        mem: &mut Memory,
        cpu: &mut Cpu,
        to_profile: ExtSet,
        task: u64,
        tracer: &Tracer,
    ) -> bool {
        let from_profile = cpu.profile;
        if !self.switch_view(mem, cpu, to_profile) {
            return false;
        }
        if tracer.is_enabled() {
            let from_base = to_profile != from_profile && to_profile.is_superset_of(from_profile);
            tracer.record(
                cpu.stats.cycles,
                TraceEvent::TaskMigrated { task, from_base },
            );
            tracer.count("process.view_switches", 1);
        }
        true
    }

    /// Whether the task can migrate right now: pc must not be inside the
    /// active view's target-instruction section (whose contents are not
    /// semantically equivalent across views, §4.3). When `false`, the
    /// scheduler delays migration and re-checks at the next safe point
    /// (the paper inserts an exit-position probe; our kernel simply steps
    /// until the probe condition — pc outside the section — holds).
    pub fn migration_safe(active: &Variant, pc: u64) -> bool {
        match &active.tables.fht {
            Some(fht) => !fht.in_target_section(pc) && !fht.inside_trampoline(pc),
            None => true,
        }
    }
}

/// Copies the hart's architectural vector state into the spill section
/// (native → downgraded migration).
pub fn sync_vectors_to_spill(cpu: &Cpu, mem: &mut Memory, spill_base: u64) {
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
pub fn sync_vectors_from_spill(cpu: &mut Cpu, mem: &mut Memory, spill_base: u64) {
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
