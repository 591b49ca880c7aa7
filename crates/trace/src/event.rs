//! The typed event taxonomy shared by the emulator, kernel and rewriter.
//!
//! Events are deliberately coarse: one per basic-block build, trap, fault
//! recovery, scheduling decision or rewrite pass — never one per retired
//! instruction — so an enabled tracer stays within its overhead budget.

/// Why a trap was delivered (a dependency-free mirror of
/// `chimera_emu::Trap`, so this crate can sit below the emulator in the
/// dependency graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// Illegal instruction (undecodable, reserved, or extension-gated).
    Illegal,
    /// Fetch from non-executable memory — the deterministic SMILE fault.
    MemFetch,
    /// Data load fault.
    MemLoad,
    /// Data store fault.
    MemStore,
    /// `ebreak` (trap-based trampolines).
    Breakpoint,
    /// `ecall` (system call).
    Ecall,
}

/// A stage of the unified `RewriteEngine` pass pipeline
/// (`scan → transform → plan → place → link → verify`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewritePass {
    /// Input validation + analyses (disassembly, CFG, liveness) + unit
    /// partitioning.
    Scan,
    /// Sequential deterministic layout: final target-section addresses,
    /// entry kinds and text patches for every unit.
    Plan,
    /// Per-unit code emission, before any unit has an address (the
    /// parallel stage; runs between scan and plan).
    Transform,
    /// Target-section assembly: unit bytes + padding gaps, relocations
    /// resolved at each unit's address, fault-table and statistics merge
    /// in unit order.
    Place,
    /// Text patching, target-section attachment, entry/profile fixup.
    Link,
    /// Output-binary validation.
    Verify,
}

/// One traced occurrence. Every variant carries enough payload to be
/// useful on its own, without the records around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The decode cache built (and inserted) a basic block.
    BlockBuilt {
        /// Block start pc.
        pc: u64,
        /// Decoded instructions in the block.
        insts: u64,
    },
    /// A cached block was dropped because its region fingerprint went
    /// stale (lazy rewriting, MMView remap, or guest self-modification).
    CacheInvalidate {
        /// The pc whose lookup found the stale block.
        pc: u64,
    },
    /// The JIT tier promoted a hot block body to compiled host code.
    /// Emitted once per trace when its batch is published into the
    /// executable arena — the moment the code can first run, not the
    /// moment it was compiled (re-promotions after an SMC sever emit
    /// again — byte-identical code, same event).
    TierPromote {
        /// Block start pc.
        pc: u64,
        /// Emitted host-code bytes.
        bytes: u64,
    },
    /// A trap was delivered to the kernel.
    Trap {
        /// Trapping pc (fetch-fault address for fetch faults).
        pc: u64,
        /// Trap class.
        kind: TrapKind,
    },
    /// The passive fault handler recovered a deterministic SMILE fault.
    SmileFaultRecovered {
        /// The overwritten-instruction address the fault encoded.
        fault_addr: u64,
        /// Where execution was redirected (the instruction's copy).
        redirect: u64,
    },
    /// The kernel lazily rewrote an instruction the static pass missed.
    LazyRewrite {
        /// The faulting site that was patched.
        pc: u64,
        /// The freshly emitted block's address.
        block: u64,
    },
    /// A task migrated across core pools (FAM fault-and-migrate).
    TaskMigrated {
        /// Task index.
        task: u64,
        /// True when the migration left a base core for the ext pool.
        from_base: bool,
    },
    /// A task started executing on a core.
    TaskScheduled {
        /// Task index.
        task: u64,
        /// True when the executing core is in the extension pool.
        on_ext: bool,
        /// Whether the core took the task from the other pool's queue.
        stolen: bool,
    },
    /// A worker probed the other pool's queue for work.
    StealAttempt {
        /// Worker (core) index.
        worker: u64,
        /// True when the victim queue was the extension pool's.
        from_ext: bool,
        /// Whether a task was actually taken.
        success: bool,
    },
    /// A rewriting pass finished.
    RewritePassDone {
        /// Which pass.
        pass: RewritePass,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
        /// Pass-specific work-item count (instructions, sites, patches…).
        items: u64,
    },
    /// An incremental re-rewrite finished: only the units whose source
    /// ranges intersected a dirty region were re-emitted; every other
    /// unit's bytes were reused verbatim from the per-unit cache.
    RewriteIncremental {
        /// Units in the partition.
        units_total: u64,
        /// Units re-scanned and re-transformed (dirty).
        units_redone: u64,
        /// Wall-clock duration of the whole incremental run, nanoseconds.
        nanos: u64,
    },
    /// A content-addressed rewrite variant was served from the shared
    /// cross-process cache instead of being rewritten again.
    VariantShared {
        /// The variant's content key.
        key: u64,
        /// Cumulative hits this entry has served (including this one).
        hits: u64,
    },
    /// A pooled guest-memory slot was returned and restored from its
    /// master image — only the spans the run dirtied were copied back.
    SlotRecycled {
        /// The hart/process the slot served.
        hart: u64,
        /// Bytes restored from the master image.
        restored_bytes: u64,
    },
}

impl TraceEvent {
    /// The event-type tag (coverage checks count records by it).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::BlockBuilt { .. } => "BlockBuilt",
            TraceEvent::CacheInvalidate { .. } => "CacheInvalidate",
            TraceEvent::TierPromote { .. } => "TierPromote",
            TraceEvent::Trap { .. } => "Trap",
            TraceEvent::SmileFaultRecovered { .. } => "SmileFaultRecovered",
            TraceEvent::LazyRewrite { .. } => "LazyRewrite",
            TraceEvent::TaskMigrated { .. } => "TaskMigrated",
            TraceEvent::TaskScheduled { .. } => "TaskScheduled",
            TraceEvent::StealAttempt { .. } => "StealAttempt",
            TraceEvent::RewritePassDone { .. } => "RewritePassDone",
            TraceEvent::RewriteIncremental { .. } => "RewriteIncremental",
            TraceEvent::VariantShared { .. } => "VariantShared",
            TraceEvent::SlotRecycled { .. } => "SlotRecycled",
        }
    }

    /// Every event-type tag, in a fixed order (used by coverage checks).
    pub const KINDS: [&'static str; 13] = [
        "BlockBuilt",
        "CacheInvalidate",
        "TierPromote",
        "Trap",
        "SmileFaultRecovered",
        "LazyRewrite",
        "TaskMigrated",
        "TaskScheduled",
        "StealAttempt",
        "RewritePassDone",
        "RewriteIncremental",
        "VariantShared",
        "SlotRecycled",
    ];
}

/// A recorded event: the payload plus the guest hart it belongs to, a
/// per-hart sequence number, and a simulated-cycle timestamp supplied by
/// the recording site (the emulator's cost-model clock; 0 for rewrite-time
/// events, which predate execution).
///
/// The stream identity is the *hart*, never the recording OS thread: a
/// fiber suspended on one host worker and resumed on another keeps
/// appending to the same `(hart, seq)` stream, so drains are stable under
/// fiber migration. Single-hart components record through the root
/// [`crate::Tracer`] handle, which is hart 0 — for those, `seq` is the
/// total order in which records were made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Owning guest hart (0 for the root handle).
    pub hart: u64,
    /// Sequence number within the hart's stream (drain order).
    pub seq: u64,
    /// Simulated cycles at record time.
    pub cycles: u64,
    /// The event.
    pub event: TraceEvent,
}
