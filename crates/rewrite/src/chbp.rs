//! CHBP — Correct and High-performance Binary Patching (§3.4, §4.2, §4.3).
//!
//! Given a binary and a target core profile, CHBP:
//!
//! 1. scans the disassembly for *source instructions* (instructions the
//!    target profile cannot execute — or, in empty-patching mode, all
//!    instructions of a chosen extension, re-emitted verbatim, the
//!    methodology §6.2 uses);
//! 2. generates *target instructions* for each patch site into a new
//!    executable `.chimera.text` section (translations from
//!    [`Translator`], plus position-independent copies of overwritten
//!    neighbours and, under batching, of the rest of the basic block);
//! 3. overwrites each site with a SMILE trampoline whose interior entry
//!    points all fault deterministically ([`crate::smile`]);
//! 4. emits the fault-handling table mapping every overwritten original
//!    instruction address to its copy, for the runtime's passive fault
//!    handler.
//!
//! **One unit per batched block.** A region covers the sources it
//! translated: the partition walk resumes after `Region::source_range`,
//! so a basic block is entered through one trampoline, on its first
//! source, and the unit ranges are ascending and disjoint. The later
//! sources the block's target code batches are *not* patched — past the
//! trampoline's space they keep their original bytes. No CFG edge reaches
//! them; an entry the CFG did not know executes the original instruction,
//! which on a base core is itself the deterministic (illegal-instruction)
//! fault the kernel's lazy rewriter serves, and under empty patching
//! simply runs.
//!
//! **One way not to translate.** Whether a source has a downgrade template
//! is [`Translator::can_downgrade`], asked here and nowhere decided twice.
//! A source without one is never patched, copied or stood in for: a
//! region ends *before* it and exits to its original address, and the
//! partition walk lists its address in [`FaultTable::untranslated`], where
//! the kernel answers its fault with a migration.
//!
//! **One block builder.** Every unit is a region and `emit_block` emits
//! it. A site that cannot form an 8-byte space (unrecognized bytes, a
//! source without a template or a 2-byte terminator follow it too closely)
//! is the region of that one instruction: nothing overwritten past the
//! site, entered through a trap, the same gp restore, translation and exit
//! slot as any other block. [`lazy_block`] builds that region for an
//! instruction the kernel meets at fault time, with the one thing it lacks
//! — liveness at the exit — left out of the exit slot.
//!
//! Exit jumps from target blocks back to original code use, in order:
//! a plain `jal` when in range; a dead register found by traditional
//! liveness; CHBP's *exit-position shifting* (copy more instructions until
//! a dead register appears); and finally a trap-based exit. The two failure
//! counters feed Table 3.
//!
//! **Analyse only what the exits reach.** Liveness is read at the units'
//! exits and nowhere else: at each exit address (`Region::exits`) and, when
//! shifting, at the at most 16 fallthroughs after it. So the scan builds no
//! control-flow graph: `build_region` finds a site's block end with the
//! analysis crate's block-boundary rule ([`Disassembly::block_end`]), and
//! [`ChbpEngine::exit_liveness`] solves liveness rooted at the exits, over
//! the code they reach — a few percent of a program.
//!
//! A block is emitted once, before it has an address. The liveness half of
//! the exit decision is made then; the distance half, the other pc-relative
//! pairs and the table entries keyed by block addresses are left as
//! [`Reloc`]s for the driver's place stage.

use crate::emitter::BlockEmitter;
use crate::engine::{Entry, Frame, Placement, Reloc, RewriteEngine, Scanned, UnitArtifact, Units};
use crate::smile::{place_smile, SmileConstraints};
use crate::translate::{Translator, Untranslatable};
use chimera_analysis::{disassemble, DisasmInst, Disassembly, Liveness};
use chimera_isa::{encode, Decoded, Ext, ExtSet, Inst, XReg};
use chimera_obj::Binary;
use chimera_trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What the rewrite should do with source instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Translate instructions the target profile lacks into base sequences.
    Downgrade,
    /// Re-emit source instructions of the given extension verbatim — the
    /// "empty patching" methodology of §6.2, isolating rewriting overhead.
    EmptyPatch(Ext),
}

impl Mode {
    /// Is `inst` a source instruction under this mode for `target`?
    pub(crate) fn is_source(self, inst: &Inst, target: ExtSet) -> bool {
        match self {
            Mode::Downgrade => !inst.runnable_on(target),
            Mode::EmptyPatch(ext) => inst.ext() == Some(ext),
        }
    }

    /// Is `inst` a source instruction nothing can translate? It is then
    /// left as it is, at its original address (see the module docs).
    fn leaves_untranslated(self, inst: &Inst, target: ExtSet) -> bool {
        self == Mode::Downgrade && !inst.runnable_on(target) && !Translator::can_downgrade(inst)
    }
}

/// Rewrite options.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Source-instruction handling.
    pub mode: Mode,
    /// Batch all source instructions of a basic block behind one
    /// trampoline execution (§4.2 "Additionally, to enhance performance").
    pub batching: bool,
    /// Enable CHBP's exit-position shifting (disable to measure the
    /// traditional-liveness-only baseline of Table 3).
    pub exit_shifting: bool,
    /// Give up on a SMILE trampoline whose constrained target placement
    /// would waste more than this much padding, using a trap instead.
    pub max_padding: u64,
    /// Force trap-based entries at every patch site (the strawman
    /// binary-patching baseline of §6.2, isolating SMILE's benefit).
    pub force_trap_entries: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            mode: Mode::Downgrade,
            batching: true,
            exit_shifting: true,
            max_padding: 64 * 1024,
            force_trap_entries: false,
        }
    }
}

/// The fault-handling table and related runtime metadata (§4.3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTable {
    /// Overwritten-instruction address → address of its copy in
    /// `.chimera.text`. The passive fault handler redirects here.
    pub redirects: BTreeMap<u64, u64>,
    /// Trap-based *entries*: `ebreak` address in `.text` → target block.
    pub trap_entries: BTreeMap<u64, u64>,
    /// Trap-based *exits*: `ebreak` address in `.chimera.text` → original
    /// resume address.
    pub trap_exits: BTreeMap<u64, u64>,
    /// The psABI `gp` value the handler restores after a P1 fault.
    pub abi_gp: u64,
    /// SMILE trampoline head addresses (each spans 8 bytes).
    pub trampolines: BTreeSet<u64>,
    /// The `.chimera.text` range (used to delay migration while pc is
    /// inside target instructions, §4.3).
    pub target_range: (u64, u64),
    /// The `.chimera.vregs` spill section base (simulated vector state).
    pub spill_base: u64,
    /// Source instructions left unpatched because no downgrade template
    /// exists; executing one raises an illegal-instruction fault and the
    /// kernel migrates the task to a capable core (FAM-style fallback).
    pub untranslated: BTreeSet<u64>,
}

impl FaultTable {
    /// Whether `pc` lies inside any placed SMILE trampoline (used by the
    /// signal-delivery path to restore `gp` for user handlers).
    pub fn inside_trampoline(&self, pc: u64) -> bool {
        self.trampolines
            .range(..=pc)
            .next_back()
            .is_some_and(|&t| pc < t + 8)
    }
}

/// Rewriting statistics (Table 3 and the §6.2 breakdowns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Executable bytes in the original binary.
    pub code_size: u64,
    /// Recognized instructions.
    pub total_insts: usize,
    /// Source instructions (needing rewrite).
    pub source_insts: usize,
    /// Patch sites that got a SMILE trampoline.
    pub smile_trampolines: usize,
    /// Of those, sites needing P2/P3 encoding constraints.
    pub constrained_smiles: usize,
    /// Exit jumps emitted (jal + register trampolines + traps).
    pub exit_jumps: usize,
    /// Exits that needed a long-range register trampoline.
    pub exit_trampolines: usize,
    /// Exits where *traditional* liveness found no dead register.
    pub dead_reg_not_found_traditional: usize,
    /// Exits where CHBP (with shifting) still found no dead register.
    pub dead_reg_not_found_shift: usize,
    /// Sites that fell back to a trap-based entry.
    pub trap_entries: usize,
    /// Exits that fell back to a trap.
    pub trap_exits: usize,
    /// Bytes of target-section padding spent satisfying SMILE constraints.
    pub padding_bytes: u64,
    /// Final `.chimera.text` size.
    pub target_section_size: u64,
}

/// A rewritten binary plus its runtime metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewritten {
    /// The patched binary (target profile recorded).
    pub binary: Binary,
    /// Fault-handling table for the runtime, shared: every launch, spawn
    /// and migration of the variant reads this one copy.
    pub fht: Arc<FaultTable>,
    /// Rewrite statistics.
    pub stats: RewriteStats,
}

/// Rewriting errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The binary failed validation.
    BadBinary(String),
    /// Internal layout failure (should not happen; surfaced loudly).
    Layout(String),
    /// A section the rewriter just attached is missing from the output —
    /// the output binary is corrupt, so surfaced as a typed error rather
    /// than a panic.
    MissingSection(&'static str),
}

impl core::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RewriteError::BadBinary(s) => write!(f, "bad input binary: {s}"),
            RewriteError::Layout(s) => write!(f, "layout failure: {s}"),
            RewriteError::MissingSection(s) => {
                write!(f, "output binary lost its '{s}' section")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// A unit asked for a translation the scan did not establish.
impl From<Untranslatable> for RewriteError {
    fn from(e: Untranslatable) -> Self {
        RewriteError::Layout(e.to_string())
    }
}

/// Rewrites `binary` for a core with profile `target` using CHBP.
pub fn chbp_rewrite(
    binary: &Binary,
    target: ExtSet,
    opts: RewriteOptions,
) -> Result<Rewritten, RewriteError> {
    let engine = ChbpEngine { target, opts };
    let workers = crate::pipeline::default_workers();
    crate::pipeline::run(&engine, binary, workers, &Tracer::disabled()).map(|r| r.rewritten)
}

/// The CHBP patching engine (also the §6.2 strawman, via
/// [`RewriteOptions::force_trap_entries`]).
#[derive(Debug)]
pub struct ChbpEngine {
    /// The target core profile.
    pub target: ExtSet,
    /// Rewrite options.
    pub opts: RewriteOptions,
}

/// A scanned input: the analyses emission reads and the unit partition,
/// one region per unit.
struct ChbpUnits {
    target: ExtSet,
    opts: RewriteOptions,
    translator: Translator,
    d: Disassembly,
    liveness: Liveness,
    units: Vec<Region>,
}

/// The unit partition of a disassembly.
struct Partition {
    /// One region per unit, in address order.
    units: Vec<Region>,
    /// Source instructions left at their original addresses.
    untranslated: BTreeSet<u64>,
    /// Source instructions found.
    sources: usize,
}

impl ChbpEngine {
    /// Partitions `d` into units: one region per batched block, from its
    /// first source instruction on.
    fn partition(&self, d: &Disassembly) -> Partition {
        let mut p = Partition {
            units: Vec::new(),
            untranslated: BTreeSet::new(),
            sources: 0,
        };
        // Sequential walk over the patch sites — source instructions in
        // address order: a unit covers the sources it translated, so the
        // ranges come out ascending and disjoint. Every source belongs to
        // an extension, so the walk reads the disassembly's extension
        // sites, not every instruction.
        let mut covered_until: u64 = 0;
        let sites = (d.ext_sites.iter())
            .map(|&i| &d.insts[i])
            .filter(|di| self.opts.mode.is_source(&di.inst, self.target));
        for site in sites {
            p.sources += 1;
            if site.addr < covered_until {
                // A preceding region's block already translates it. Inside
                // that region's overwritten space the FHT redirect covers
                // an entry here; past it the instruction keeps its bytes,
                // and an entry the CFG did not know faults into the
                // kernel's lazy rewriter (or, empty-patched, just runs).
                continue;
            }
            if self.opts.mode.leaves_untranslated(&site.inst, self.target) {
                p.untranslated.insert(site.addr);
                covered_until = site.next_addr();
                continue;
            }
            let region = build_region(d, site, self.opts, self.target)
                .unwrap_or_else(|| Region::lone(vec![*site]));
            covered_until = region.source_range().1;
            p.units.push(region);
        }
        p
    }

    /// The liveness the scan solves for `d`: rooted at the original
    /// addresses its units exit to — the only places emission asks about,
    /// directly or by shifting an exit forward from one — so it analyses
    /// what those exits reach and nothing else.
    pub fn exit_liveness(&self, d: &Disassembly) -> Liveness {
        exit_liveness(d, &self.partition(d).units)
    }
}

/// Liveness rooted at `units`' exits.
fn exit_liveness(d: &Disassembly, units: &[Region]) -> Liveness {
    let exits = units.iter().flat_map(|r| {
        let (after, taken) = r.exits();
        after.into_iter().chain(taken)
    });
    Liveness::rooted(&d.insts, exits)
}

impl RewriteEngine for ChbpEngine {
    fn target_section(&self) -> Option<&'static str> {
        Some(".chimera.text")
    }

    fn scan(&self, input: &Binary, frame: Frame, _: usize) -> Result<Scanned, RewriteError> {
        let d = disassemble(input);
        let Partition {
            units,
            untranslated,
            sources,
        } = self.partition(&d);
        let liveness = exit_liveness(&d, &units);
        Ok(Scanned {
            ranges: units.iter().map(Region::source_range).collect(),
            profile: self.target,
            total_insts: d.insts.len(),
            source_insts: sources,
            untranslated,
            units: Arc::new(ChbpUnits {
                target: self.target,
                opts: self.opts,
                translator: Translator::new(frame.spill_base, frame.abi_gp),
                d,
                liveness,
                units,
            }),
        })
    }
}

impl Units for ChbpUnits {
    fn place(&self, idx: usize, cursor: u64) -> Result<Option<Placement>, RewriteError> {
        let region = &self.units[idx];
        let site = region.insts[0];
        // A SMILE entry when the region has the space for one and the
        // block address is reachable within the padding budget (never for
        // the strawman).
        if region.has_smile_space() && !self.opts.force_trap_entries {
            let smile = place_smile(
                site.addr,
                region.space_end,
                region.constraints(),
                cursor,
                self.opts.max_padding,
            )?;
            if smile.is_some() {
                return Ok(smile);
            }
        }
        // Trap entry, but keep the full region block — only the site's own
        // bytes are replaced, neighbours stay intact, and the block's
        // interior redirects cover erroneous jumps.
        Ok(Some(Placement {
            addr: cursor,
            entry: Entry::Trap {
                site: site.addr,
                len: site.len,
            },
        }))
    }

    fn emit(&self, idx: usize) -> Result<UnitArtifact, RewriteError> {
        let mut em = BlockEmitter::new();
        let (mode, target) = (self.opts.mode, self.target);
        let exit = |to, em: &mut BlockEmitter| {
            emit_exit(to, &self.d, &self.liveness, self.opts, target, em)
        };
        emit_block(
            &self.units[idx],
            mode,
            target,
            &self.translator,
            &mut em,
            exit,
        )?;
        em.finish_unit()
    }
}

/// The target block of the source instructions `run`, found from `pc` on
/// at fault time on a core with profile `target`: the region the static
/// partition makes of a site that cannot form an 8-byte space — entered
/// through a trap on `pc`, nothing overwritten past it — emitted by the
/// same block builder, and leaving after the run's last instruction. A run
/// of one is the static lone-site unit. What it cannot have is liveness,
/// so its exit slot names no dead register: a `jal` within ±1 MiB of where
/// [`UnitArtifact::place_at`] puts the block, a trap (entered in the
/// table `place_at` is given) beyond.
pub fn lazy_block(
    translator: &Translator,
    target: ExtSet,
    pc: u64,
    run: &[Decoded],
) -> Result<UnitArtifact, RewriteError> {
    let mut addr = pc;
    let insts = run.iter().map(|&Decoded { inst, len }| {
        let di = DisasmInst { addr, len, inst };
        addr = di.next_addr();
        di
    });
    let region = Region::lone(insts.collect());
    let (dead, traditional) = (None, false);
    let exit = |to, em: &mut BlockEmitter| {
        em.reloc(Reloc::Exit {
            to,
            dead,
            traditional,
        });
    };
    let mut em = BlockEmitter::new();
    emit_block(&region, Mode::Downgrade, target, translator, &mut em, exit)?;
    em.finish_unit()
}

/// The in-place patch replacing a source instruction with a trap:
/// `c.ebreak` for 2-byte sites (so neighbours stay intact), `ebreak` for
/// 4-byte ones. Shared by the static plan stage and the kernel's lazy
/// rewriter.
pub fn ebreak_patch(len: u8) -> Vec<u8> {
    if len == 2 {
        chimera_isa::encode_compressed(&Inst::Ebreak)
            .expect("c.ebreak exists")
            .to_le_bytes()
            .to_vec()
    } else {
        encode(&Inst::Ebreak)
            .expect("ebreak encodes")
            .to_le_bytes()
            .to_vec()
    }
}

/// A reserved compressed encoding (quadrant 0, funct3 = 100): guaranteed
/// illegal-instruction fault, used as filler for overwritten space beyond
/// the 8-byte trampoline and for constraint padding.
#[allow(clippy::unusual_byte_groupings)] // grouped by RVC field, not nibble
pub const ILLEGAL_HALFWORD: u16 = 0b100_0_0000_0000_00_00;

/// A patch region: the instructions translated/copied into one target
/// block.
#[derive(Debug)]
struct Region {
    /// Instructions from the site onward, in order.
    insts: Vec<DisasmInst>,
    /// First byte after the overwritten space, an instruction boundary:
    /// ≥ site + 8 where a SMILE trampoline fits, the end of the site
    /// itself for a [`Region::lone`] one.
    space_end: u64,
    /// Original address where execution resumes after the block (unless
    /// the region ends in an unconditional jump).
    resume: u64,
    /// Whether the final instruction is a conditional branch (needs a
    /// deferred taken-exit) or a plain jump (no fallthrough resume).
    tail: RegionTail,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionTail {
    /// Resume at `region.resume`.
    Fallthrough,
    /// Final instruction is `branch` to `taken`; fallthrough resumes.
    Branch { taken: u64 },
    /// Final instruction is an unconditional direct jump to `target`.
    Jump { target: u64 },
    /// Final instruction is an indirect non-linking jump (copied verbatim;
    /// no resume).
    IndirectJump,
}

impl Region {
    /// The region of a site that cannot form an 8-byte space: straight-line
    /// `insts` from the site on (the site alone, statically), nothing
    /// overwritten past the site, entered through a trap.
    fn lone(insts: Vec<DisasmInst>) -> Region {
        let (site, last) = (insts[0], insts[insts.len() - 1]);
        Region {
            insts,
            space_end: site.next_addr(),
            resume: last.next_addr(),
            tail: RegionTail::Fallthrough,
        }
    }

    /// Whether the overwritten space holds a SMILE trampoline.
    fn has_smile_space(&self) -> bool {
        self.space_end >= self.insts[0].addr + 8
    }

    /// The input-address range `[start, end)` whose bytes this region
    /// translates: from the patch site through the later of the
    /// overwritten space and the last batched instruction. The partition
    /// walk resumes after it, and the incremental driver keys the
    /// dirty-unit set on it.
    fn source_range(&self) -> (u64, u64) {
        let start = self.insts[0].addr;
        let last = self.insts.last().expect("regions are non-empty");
        (start, self.space_end.max(last.addr + last.len as u64))
    }

    /// The original addresses the block exits to: the one after its last
    /// instruction (`resume`, or a jump tail's target; none after an
    /// indirect jump), and a branch tail's taken target unless that is
    /// the site itself, where a loop backedge iterates inside the block.
    fn exits(&self) -> (Option<u64>, Option<u64>) {
        match self.tail {
            RegionTail::Fallthrough => (Some(self.resume), None),
            RegionTail::Branch { taken } => (
                Some(self.resume),
                (taken != self.insts[0].addr).then_some(taken),
            ),
            RegionTail::Jump { target } => (Some(target), None),
            RegionTail::IndirectJump => (None, None),
        }
    }

    /// Which interior trampoline offsets were original instruction starts.
    fn constraints(&self) -> SmileConstraints {
        SmileConstraints::of(self.insts[0].addr, self.insts.iter().map(|di| di.addr))
    }
}

/// Builds the region for a patch site, or `None` when no safe 8-byte space
/// exists (the site is then a [`Region::lone`] one). A region ends before a
/// source instruction that has no template: the block exits to that
/// instruction's original address.
fn build_region(
    d: &Disassembly,
    site: &DisasmInst,
    opts: RewriteOptions,
    target: ExtSet,
) -> Option<Region> {
    let block_last = &d.insts[d.block_end(d.insts.index_of(site.addr)?)];
    let mut insts: Vec<DisasmInst> = Vec::new();
    let mut addr = site.addr;
    let space_min = site.addr + 8;
    let mut tail = RegionTail::Fallthrough;
    let translatable = |di: &&DisasmInst| !opts.mode.leaves_untranslated(&di.inst, target);

    loop {
        let Some(di) = d.at(addr).filter(translatable) else {
            // Ran out of recognized, translatable code before filling the
            // space.
            if addr >= space_min {
                break;
            }
            return None;
        };
        let need_more_space = addr < space_min;
        // Batching runs through the block *including* its terminator, so
        // loop backedges stay inside the target block (branching to a
        // local label when they target the site itself) and the
        // fallthrough exit lands past the terminator, where exit-position
        // shifting can walk (§4.2's basic-block merging).
        let inside_batch = opts.batching && addr <= block_last.addr;
        if !need_more_space && !inside_batch {
            break;
        }
        match di.inst {
            Inst::Branch { .. } => {
                insts.push(*di);
                let taken = di.inst.direct_target(di.addr).expect("branch target");
                tail = RegionTail::Branch { taken };
                addr = di.next_addr();
                break;
            }
            Inst::Jal { rd, .. } if rd == XReg::ZERO => {
                insts.push(*di);
                let target = di.inst.direct_target(di.addr).expect("jal target");
                tail = RegionTail::Jump { target };
                addr = di.next_addr();
                break;
            }
            Inst::Jalr { rd, .. } if rd == XReg::ZERO => {
                insts.push(*di);
                tail = RegionTail::IndirectJump;
                addr = di.next_addr();
                break;
            }
            _ => {
                // Calls (jal/jalr with link), ecall and straight-line code
                // continue the region.
                insts.push(*di);
                addr = di.next_addr();
            }
        }
    }
    let end = addr;
    if end < space_min {
        return None;
    }
    // space_end: the first instruction boundary ≥ site+8.
    let mut space_end = site.addr;
    for di in &insts {
        if space_end >= space_min {
            break;
        }
        space_end = di.next_addr();
    }
    if space_end < space_min {
        return None;
    }
    Some(Region {
        insts,
        space_end,
        resume: end,
        tail,
    })
}

/// Emits one region's target block: gp restore, then the translation of
/// each run and the translation or copy of every other instruction, then
/// the exit(s), each emitted by `exit` given the original address it
/// returns to, then the entry heads the runs ask for. Marks a redirect at
/// the copy of every instruction whose original bytes the trampoline
/// overwrites (inside a run, at its head or its entry head).
fn emit_block(
    region: &Region,
    mode: Mode,
    target: ExtSet,
    translator: &Translator,
    em: &mut BlockEmitter,
    exit: impl Fn(u64, &mut BlockEmitter),
) -> Result<(), RewriteError> {
    let site = region.insts[0].addr;
    // Restore gp: the SMILE jalr left the return address in it.
    let block_head = em.new_label();
    em.label(block_head);
    translator.restore_gp(em);

    let mut deferred_branch = None;
    // FHT entry for overwritten instruction starts (not the site head:
    // jumping there executes the full trampoline, which is correct).
    let needs_entry = |di: &DisasmInst| di.addr > site && di.addr < region.space_end;
    // Consecutive translated vector instructions are translated together
    // ([`Translator::sequence`]), FHT entry points among them included: a
    // redirected erroneous jump lands at a run's head or at an entry head
    // emitted after the exits.
    let in_run = |di: &DisasmInst| {
        mode == Mode::Downgrade
            && mode.is_source(&di.inst, target)
            && Translator::sequenceable(&di.inst)
    };

    let last = &region.insts[region.insts.len() - 1];
    let mut heads = Vec::new();
    for part in region.insts.chunk_by(|a, b| in_run(a) && in_run(b)) {
        let di = &part[0];
        if in_run(di) {
            let run: Vec<Inst> = part.iter().map(|di| di.inst).collect();
            let entries: Vec<(usize, u64)> = (part.iter().enumerate())
                .filter(|(_, di)| needs_entry(di))
                .map(|(at, di)| (at, di.addr))
                .collect();
            heads.extend(translator.sequence(&run, &entries, em)?);
            continue;
        }
        if needs_entry(di) {
            em.reloc(Reloc::Redirect { from: di.addr });
        }
        let is_last = std::ptr::eq(di, last);
        match di.inst {
            Inst::Branch { kind, rs1, rs2, .. }
                if is_last && matches!(region.tail, RegionTail::Branch { .. }) =>
            {
                if let (_, Some(taken)) = region.exits() {
                    let label = em.new_label();
                    em.branch_to(kind, rs1, rs2, label);
                    deferred_branch = Some((taken, label));
                } else {
                    // A loop backedge to the patch site: iterate inside
                    // the target block instead of re-entering through the
                    // trampoline.
                    em.branch_to(kind, rs1, rs2, block_head);
                }
            }
            // The final unconditional jump of a Jump-tail region is not
            // copied: the region exit (emitted below) performs it.
            _ if is_last && matches!(region.tail, RegionTail::Jump { .. }) => {}
            _ if !mode.is_source(&di.inst, target) => reemit(&di.inst, di.addr, em),
            // `build_region` admitted only sources with a template.
            _ if mode == Mode::Downgrade => translator.downgrade(&di.inst, em)?,
            _ => {
                em.inst(di.inst);
            }
        }
    }

    // Exits.
    if let (Some(after), _) = region.exits() {
        exit(after, em);
    }
    if let Some((taken, label)) = deferred_branch {
        em.label(label);
        exit(taken, em);
    }
    for head in heads {
        translator.entry_head(head, em);
    }
    Ok(())
}

/// Re-emits a non-source instruction at a new location, preserving
/// semantics: pc-relative instructions become relocation slots, everything
/// else is copied in canonical (uncompressed) form.
pub(crate) fn reemit(inst: &Inst, old_addr: u64, em: &mut BlockEmitter) {
    match *inst {
        Inst::Auipc { rd, imm20 } => {
            // The absolute value the original would have produced.
            let value = old_addr.wrapping_add(((imm20 as i64) << 12) as u64);
            em.reloc(Reloc::Value { rd, value });
        }
        Inst::Jal { rd, offset } if rd != XReg::ZERO => {
            // A call: long-range call trampoline; the return address links
            // into the target block, which continues correctly.
            let target = old_addr.wrapping_add(offset as i64 as u64);
            em.reloc(Reloc::Call { rd, target });
        }
        Inst::Jal { .. } | Inst::Branch { .. } => {
            unreachable!("plain jumps/branches are region tails, handled by the caller")
        }
        _ => {
            em.inst(*inst);
        }
    }
}

/// Emits the way from the current block position back to original address
/// `resume`: the copies exit-position shifting asks for (§4.2 Challenge 2),
/// then the exit slot. Which dead register exists, and how far the exit
/// shifts, are liveness facts; which of `jal` / register trampoline / trap
/// fills the slot depends on the distance, so [`Reloc::Exit`] decides that
/// (and counts it for Table 3) once the block is placed.
pub(crate) fn emit_exit(
    resume: u64,
    d: &Disassembly,
    liveness: &Liveness,
    opts: RewriteOptions,
    target: ExtSet,
    em: &mut BlockEmitter,
) {
    // Traditional liveness at the exit position.
    let traditional = liveness.dead_register_at(resume);
    let mut exit_at = resume;
    let mut dead = traditional;

    if dead.is_none() && opts.exit_shifting {
        // Walk forward until a dead register appears; the instructions in
        // between will be copied before the exit slot.
        let mut cursor = resume;
        for _ in 0..16 {
            let Some(di) = d.at(cursor) else { break };
            if di.inst.is_terminator()
                || matches!(di.inst, Inst::Auipc { .. })
                || opts.mode.is_source(&di.inst, target)
            {
                // Keep the shifted copies simple: stop at control flow and
                // never duplicate another patch site's source instruction.
                break;
            }
            let next = di.next_addr();
            if let Some(r) = liveness.dead_register_at(next) {
                exit_at = next;
                dead = Some(r);
                break;
            }
            cursor = next;
        }
    }

    // Copy [resume, exit_at) — empty unless shifting moved the exit.
    let mut c = resume;
    while c < exit_at {
        let ci = d.at(c).expect("walked over recognized insts");
        reemit(&ci.inst, ci.addr, em);
        c = ci.next_addr();
    }

    em.reloc(Reloc::Exit {
        to: exit_at,
        dead,
        traditional: traditional.is_some(),
    });
}

/// Mechanized Claim 1 check on a rewritten binary: every placed SMILE
/// trampoline's interior entry points decode to an illegal instruction or
/// to the gp-pivot `jalr`; every overwritten instruction start has a
/// redirect or trap entry.
pub fn verify_claim1(rw: &Rewritten, original: &Binary) -> Result<(), String> {
    let d_orig = disassemble(original);
    for &t in &rw.fht.trampolines {
        // Gather original instruction starts inside [t, t+8).
        for off in [2u64, 4, 6] {
            let addr = t + off;
            if d_orig.at(addr).is_none() {
                continue; // Not an original instruction boundary.
            }
            let halfword = rw
                .binary
                .read_u16(addr)
                .ok_or_else(|| format!("trampoline at {t:#x} unreadable"))?;
            if off == 4 {
                // P1: must be the SMILE jalr (gp pivot).
                let word = rw
                    .binary
                    .read_u32(addr)
                    .ok_or_else(|| format!("jalr at {addr:#x} unreadable"))?;
                // An undecodable word is fine too (padding).
                if let Ok(dec) = chimera_isa::decode(word) {
                    match dec.inst {
                        Inst::Jalr { rd, rs1, .. } if rd == XReg::GP && rs1 == XReg::GP => {}
                        other => {
                            return Err(format!("P1 at {addr:#x} is {other}, not the SMILE jalr"))
                        }
                    }
                }
            } else {
                // P2/P3: the fetch must be illegal.
                if halfword & 0b11 == 0b11 {
                    let word = rw.binary.read_u32(addr).unwrap_or(halfword as u32);
                    if chimera_isa::decode(word).is_ok() {
                        return Err(format!("interior entry at {addr:#x} decodes legally"));
                    }
                } else if chimera_isa::decode_compressed(halfword).is_ok() {
                    return Err(format!("interior entry at {addr:#x} decodes as legal RVC"));
                }
                // And it must have a redirect so the fault is recoverable.
                if !rw.fht.redirects.contains_key(&addr) {
                    return Err(format!("no FHT redirect for overwritten inst {addr:#x}"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_emu::{run_binary, run_binary_on, Trap};
    use chimera_obj::{assemble, AsmOptions};

    const VEC_SUM: &str = "
        .data
        a: .dword 1
           .dword 2
           .dword 3
           .dword 4
        b: .dword 10
           .dword 20
           .dword 30
           .dword 40
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            la a1, b
            vle64.v v1, (a0)
            vle64.v v2, (a1)
            vadd.vv v3, v1, v2
            vmv.v.i v4, 0
            vredsum.vs v5, v3, v4
            vmv.x.s a0, v5
            li a7, 93
            ecall
    ";

    fn asm(src: &str) -> Binary {
        assemble(src, AsmOptions::default()).unwrap()
    }

    #[test]
    fn downgrade_runs_on_base_core() {
        let bin = asm(VEC_SUM);
        let native = run_binary(&bin, 100_000).unwrap();
        assert_eq!(native.exit_code, 110);

        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        assert!(rw.stats.smile_trampolines > 0);
        assert!(rw.fht.untranslated.is_empty());
        verify_claim1(&rw, &bin).unwrap();
        // The rewritten binary runs on a core WITHOUT the vector extension.
        let r = run_binary_on(&rw.binary, ExtSet::RV64GC, 1_000_000).unwrap();
        assert_eq!(r.exit_code, 110);
        assert_eq!(r.stats.vector_insts, 0);
    }

    #[test]
    fn empty_patch_preserves_semantics_on_vector_core() {
        let bin = asm(VEC_SUM);
        let rw = chbp_rewrite(
            &bin,
            ExtSet::RV64GCV,
            RewriteOptions {
                mode: Mode::EmptyPatch(Ext::V),
                ..Default::default()
            },
        )
        .unwrap();
        let r = run_binary_on(&rw.binary, ExtSet::RV64GCV, 1_000_000).unwrap();
        assert_eq!(r.exit_code, 110);
        assert!(rw.stats.smile_trampolines > 0);
    }

    #[test]
    fn claim1_verifies_on_compressed_binary() {
        let bin = assemble(
            VEC_SUM,
            AsmOptions {
                compress: true,
                ..Default::default()
            },
        )
        .unwrap();
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        verify_claim1(&rw, &bin).unwrap();
        let r = run_binary_on(&rw.binary, ExtSet::RV64GC, 1_000_000).unwrap();
        assert_eq!(r.exit_code, 110);
    }

    #[test]
    fn erroneous_jump_into_trampoline_faults_deterministically() {
        // A program with a function pointer that targets the instruction
        // *after* a source instruction — which CHBP overwrites with the
        // SMILE jalr. Jumping there must raise the deterministic fault.
        let bin = asm("
            .data
            vals: .dword 5
                  .dword 6
                  .dword 7
                  .dword 8
            .text
            _start:
                la t2, after_vec
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                la a0, vals
                vle64.v v1, (a0)
            after_vec:
                li a0, 0
                li a7, 93
                ecall
        ");
        let rw = chbp_rewrite(
            &bin,
            ExtSet::RV64GC,
            RewriteOptions {
                batching: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Find the vle64 site: its trampoline covers the following li.
        let site = *rw
            .fht
            .trampolines
            .iter()
            .next_back()
            .expect("trampolines placed");
        let p1 = site + 4;
        assert!(
            rw.fht.redirects.contains_key(&p1),
            "overwritten neighbour must have a redirect"
        );

        // Execute an erroneous jump: boot and force pc to P1 with the
        // ABI gp value (as any normal execution would have).
        let (mut cpu, mut mem) = chimera_emu::boot(&rw.binary, ExtSet::RV64GC);
        cpu.hart.pc = p1;
        let stop = cpu.run(&mut mem, 10);
        match stop {
            chimera_emu::Stop::Trap(Trap::Mem { fault, .. }) => {
                assert_eq!(fault.access, chimera_emu::Access::Fetch);
                // Fault address: gp + lo12, inside the data segment.
                let data = rw.binary.section(".data").unwrap();
                assert!(
                    fault.addr >= data.addr.saturating_sub(0x800)
                        && fault.addr < data.end() + 0x800,
                    "fault at {:#x} should be near the data segment",
                    fault.addr
                );
                // And gp now holds P1 + 4 — the handler recovers the fault
                // address as gp - 4.
                assert_eq!(cpu.hart.gp(), p1 + 4);
            }
            other => panic!("expected deterministic fetch fault, got {other:?}"),
        }
    }

    #[test]
    fn zb_downgrade_runs_without_b() {
        let bin = asm("
            _start:
                li t0, 12
                li t1, 5
                sh1add a0, t0, t1     # 29
                min a1, t0, t1        # 5
                add a0, a0, a1        # 34
                clz a2, t1            # 61
                add a0, a0, a2        # 95
                andn a3, t0, t1       # 12 & !5 = 8
                add a0, a0, a3        # 103
                li a7, 93
                ecall
        ");
        let native = run_binary(&bin, 10_000).unwrap();
        let base_no_b = ExtSet::RV64GC.without(Ext::B);
        let rw = chbp_rewrite(&bin, base_no_b, RewriteOptions::default()).unwrap();
        let r = run_binary_on(&rw.binary, base_no_b, 1_000_000).unwrap();
        assert_eq!(r.exit_code, native.exit_code);
        assert_eq!(native.exit_code, 103);
    }

    #[test]
    fn rewrite_without_sources_is_identity_like() {
        let bin = asm("
            _start:
                li a0, 7
                li a7, 93
                ecall
        ");
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        assert_eq!(rw.stats.smile_trampolines, 0);
        let r = run_binary_on(&rw.binary, ExtSet::RV64GC, 1000).unwrap();
        assert_eq!(r.exit_code, 7);
    }

    #[test]
    fn downgraded_loop_with_branches() {
        // A vector op inside a loop: the trampoline executes every
        // iteration; batching folds the loop tail into the block.
        let bin = asm("
            .data
            acc: .dword 0
            vals: .dword 2
                  .dword 3
                  .dword 4
                  .dword 5
            .text
            _start:
                li s0, 10          # iterations
                li s1, 0           # total
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                la a0, vals
            loop:
                vle64.v v1, (a0)
                vmv.v.i v2, 0
                vredsum.vs v3, v1, v2
                vmv.x.s t2, v3
                add s1, s1, t2
                addi s0, s0, -1
                bnez s0, loop
                mv a0, s1          # 10 * 14 = 140
                li a7, 93
                ecall
        ");
        let native = run_binary(&bin, 100_000).unwrap();
        assert_eq!(native.exit_code, 140);
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        let r = run_binary_on(&rw.binary, ExtSet::RV64GC, 10_000_000).unwrap();
        assert_eq!(r.exit_code, 140);
    }

    /// A loop whose backedge targets its own patch site iterates inside
    /// the target block, however long the block is: past the B-type
    /// ±4 KiB the backedge is an inverted branch over a `jal`. A body is a
    /// vector add and a scalar one, so each add is a run of its own (a
    /// stretch of adds would share one element loop): 20 bodies (a
    /// 3,524-byte target section) still encode directly and keep their
    /// bytes.
    #[test]
    fn long_loop_bodies_keep_their_backedge_inside_the_block() {
        for (n, digest) in [
            (20, Some(0x9b13_a6fc_2ea7_b9da_u64)),
            (30, None),
            (60, None),
        ] {
            let bin = asm(&format!(
                "
                _start:
                    li t0, 1
                    vsetvli t1, t0, e64, m1, ta, ma
                    li t2, 10
                    vmv.v.x v1, t2
                    vmv.v.i v3, 0
                    li s0, 3
                loop:
                    {}
                    addi s0, s0, -1
                    bnez s0, loop
                    vmv.x.s a0, v3
                    li a7, 93
                    ecall
                ",
                "vadd.vv v3, v3, v1\naddi s1, s1, 1\n".repeat(n)
            ));
            let native = run_binary(&bin, 100_000).unwrap();
            assert_eq!(native.exit_code, 30 * n as i64);
            let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
            let r = run_binary_on(&rw.binary, ExtSet::RV64GC, 10_000_000).unwrap();
            assert_eq!(r.exit_code, native.exit_code, "{n} bodies");
            if let Some(digest) = digest {
                // FNV-1a of the target section. First recorded (over 30
                // plain adds) before branches could relax; re-recorded when
                // the `e32` body of the `vmv.v.x` template began loading
                // its staged scalar at element width, for this body
                // when vector instructions began translating by the run, and
                // when a `vmv.v.i` of 0 began storing `zero` itself.
                let code = &rw.binary.section(".chimera.text").unwrap().data;
                let fnv = code.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                });
                assert_eq!(fnv, digest, "{n} bodies: {fnv:#x}");
            }
        }
    }

    /// `partition` walks the disassembly's extension sites, not every
    /// instruction: under each mode CHBP runs, every instruction the mode
    /// takes as a source over the whole zoo is one of them. A mode whose
    /// sources could be base instructions fails here, not by skipping them.
    #[test]
    fn every_source_is_an_extension_site() {
        use chimera_workloads::speclike::{generate, GenOptions, APP_PROFILES, SPEC_PROFILES};
        let modes = [
            (ExtSet::RV64GC, Mode::Downgrade),
            (ExtSet::RV64GCV, Mode::EmptyPatch(Ext::V)),
        ];
        for p in SPEC_PROFILES.iter().chain(APP_PROFILES) {
            let d = disassemble(&generate(p, GenOptions::default()));
            for (target, mode) in modes {
                let sources: Vec<usize> = (0..d.insts.len())
                    .filter(|&i| mode.is_source(&d.insts[i].inst, target))
                    .collect();
                assert!(!sources.is_empty(), "{} {mode:?}: has sources", p.name);
                let outside: Vec<&usize> = (sources.iter())
                    .filter(|i| d.ext_sites.binary_search(i).is_err())
                    .collect();
                assert!(outside.is_empty(), "{} {mode:?}: {outside:?}", p.name);
            }
        }
    }
}
