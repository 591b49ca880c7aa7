//! Self-modifying-code invalidation tests for the basic-block decode cache.
//!
//! The cache's correctness contract: a stale decoded block is *never*
//! executed. Executable bytes can change through [`Memory::poke_code`]
//! (the kernel's lazy-rewriting path), through guest stores to W+X
//! mappings (JIT-style self-modification), and through remapping a region
//! at the same address — each must invalidate affected blocks, and the
//! cached run must remain bit-identical to the uncached reference
//! interpreter.

use chimera_emu::{Access, Cpu, ExecMode, ExecStats, MemFault, Memory, Stop, Trap};
use chimera_isa::{encode, BranchKind, ExtSet, Inst, OpImmKind, StoreKind, XReg};
use chimera_obj::{assemble, AsmOptions, Perms};

const BASE: u64 = 0x1_0000;

fn addi(rd: XReg, rs1: XReg, imm: i32) -> Inst {
    Inst::OpImm {
        kind: OpImmKind::Addi,
        rd,
        rs1,
        imm,
    }
}

fn words(insts: &[Inst]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in insts {
        bytes.extend_from_slice(&encode(i).unwrap().to_le_bytes());
    }
    bytes
}

/// A base core in `mode`.
fn cpu_in(mode: ExecMode) -> Cpu {
    let mut cpu = Cpu::new(ExtSet::RV64GC);
    cpu.set_mode(mode);
    cpu
}

/// Runs from `pc` until the program's `ecall`, returning `a0`.
fn run_from(cpu: &mut Cpu, mem: &mut Memory, pc: u64) -> u64 {
    cpu.hart.pc = pc;
    match cpu.run(mem, 100_000) {
        Stop::Trap(Trap::Ecall { .. }) => cpu.hart.get_x(XReg::A0),
        other => panic!("expected ecall, got {other:?}"),
    }
}

/// Runs from `BASE` until the program's `ecall`, returning `a0`.
fn run_to_ecall(cpu: &mut Cpu, mem: &mut Memory) -> u64 {
    run_from(cpu, mem, BASE)
}

/// `poke_code` between runs: the second run must execute the NEW bytes
/// even though the old block is cached and was hit before.
#[test]
fn poke_code_between_runs_executes_new_code() {
    let mut cpu = Cpu::new(ExtSet::RV64GC);
    let mut mem = Memory::new();
    mem.map_bytes(
        BASE,
        words(&[addi(XReg::A0, XReg::ZERO, 11), Inst::Ecall]),
        Perms::RX,
        ".text",
    );

    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 11);
    // Second run: served from the cache (a dispatcher hit, or in the
    // engine a jump-cache entry, which counts as `chained`).
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 11);
    let s = cpu.cache.stats;
    assert!(s.hits + s.chained >= 1, "{s:?}");
    let invalidations_before = cpu.cache.stats.invalidations;

    // The kernel patches the instruction (lazy-rewriting path).
    mem.poke_code(BASE, &words(&[addi(XReg::A0, XReg::ZERO, 22)]))
        .unwrap();

    // A stale block would yield 11 here.
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 22);
    assert!(
        cpu.cache.stats.invalidations > invalidations_before,
        "patching executable bytes must show up in the counters: {:?}",
        cpu.cache.stats
    );
}

/// A guest store into its *own basic block*, overwriting an instruction
/// that comes later in the same block: the new instruction must execute,
/// exactly as in the uncached reference interpreter.
#[test]
fn in_block_store_executes_new_code() {
    // sw t1, 8(t0)        <- overwrites the inst at BASE+8
    // addi a0, a0, 1
    // addi a0, a0, 1      <- replaced by `addi a0, a0, 100` mid-block
    // ecall
    let prog = words(&[
        Inst::Store {
            kind: StoreKind::Sw,
            rs1: XReg::T0,
            rs2: XReg::T1,
            offset: 8,
        },
        addi(XReg::A0, XReg::A0, 1),
        addi(XReg::A0, XReg::A0, 1),
        Inst::Ecall,
    ]);
    let new_inst = encode(&addi(XReg::A0, XReg::A0, 100)).unwrap();

    let mut results = Vec::new();
    for mode in [ExecMode::Engine, ExecMode::Reference] {
        let mut cpu = cpu_in(mode);
        let mut mem = Memory::new();
        mem.map_bytes(BASE, prog.clone(), Perms::RWX, ".jit");
        cpu.hart.set_x(XReg::T0, BASE);
        cpu.hart.set_x(XReg::T1, new_inst as u64);
        assert_eq!(
            run_to_ecall(&mut cpu, &mut mem),
            101,
            "{mode:?}: the overwritten instruction must execute"
        );
        results.push((cpu.hart.xregs(), cpu.stats));
    }
    // Registers and every stats counter (cycles included) are identical.
    assert_eq!(results[0], results[1], "cache must be transparent");
}

/// Unmapping and remapping different code at the same address must not
/// serve blocks decoded from the old mapping.
#[test]
fn remap_at_same_address_invalidates() {
    let mut cpu = Cpu::new(ExtSet::RV64GC);
    let mut mem = Memory::new();
    mem.map_bytes(
        BASE,
        words(&[addi(XReg::A0, XReg::ZERO, 1), Inst::Ecall]),
        Perms::RX,
        "gen1",
    );
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 1);

    assert!(mem.unmap("gen1"));
    mem.map_bytes(
        BASE,
        words(&[addi(XReg::A0, XReg::ZERO, 2), Inst::Ecall]),
        Perms::RX,
        "gen2",
    );
    assert_eq!(
        run_to_ecall(&mut cpu, &mut mem),
        2,
        "stale block from the unmapped region must not execute"
    );
}

/// Counter sanity on a loop: a handful of blocks, hit-dominated re-entry,
/// and bit-identical results/cycles against the uncached interpreter.
#[test]
fn loop_is_hit_dominated_and_cycle_identical() {
    let prog = words(&[
        addi(XReg::T0, XReg::ZERO, 100),
        addi(XReg::A0, XReg::ZERO, 0),
        addi(XReg::A0, XReg::A0, 2), // loop:
        addi(XReg::T0, XReg::T0, -1),
        Inst::Branch {
            kind: BranchKind::Bne,
            rs1: XReg::T0,
            rs2: XReg::ZERO,
            offset: -8,
        },
        Inst::Ecall,
    ]);

    let mut cached = Cpu::new(ExtSet::RV64GC);
    let mut mem = Memory::new();
    mem.map_bytes(BASE, prog.clone(), Perms::RX, ".text");
    assert_eq!(run_to_ecall(&mut cached, &mut mem), 200);

    let s = cached.cache.stats;
    assert!(s.blocks_built >= 2, "{s:?}");
    assert!(s.blocks_built <= 4, "straight-line loop, few blocks: {s:?}");
    assert!(s.misses >= s.blocks_built, "{s:?}");
    // Re-entries are either dispatcher hits or (under the engine front
    // end) jump-cache entries; together they must dominate the misses.
    assert!(
        s.hits + s.chained > s.misses,
        "100 iterations must be re-entry-dominated: {s:?}"
    );
    assert!(
        s.chained > s.misses,
        "a hot loop must run on jump-cache entries, not dispatches: {s:?}"
    );
    assert_eq!(s.invalidations, 0, "nothing was modified: {s:?}");

    let mut reference = cpu_in(ExecMode::Reference);
    let mut mem2 = Memory::new();
    mem2.map_bytes(BASE, prog, Perms::RX, ".text");
    assert_eq!(run_to_ecall(&mut reference, &mut mem2), 200);
    assert_eq!(cached.stats, reference.stats, "cycle accounting diverged");
    assert_eq!(cached.hart.xregs(), reference.hart.xregs());
}

/// A 4-byte instruction whose upper parcel lives in an *adjacent* executable
/// region is never cached: a block's fingerprint only covers the region
/// holding its start pc, so patching the neighbour region would not
/// invalidate it. The straddling instruction must execute uncached and
/// therefore observe the patch immediately.
#[test]
fn straddling_instruction_across_regions_is_never_stale() {
    let straddler_old = encode(&addi(XReg::A0, XReg::A0, 1)).unwrap();
    let straddler_new = encode(&addi(XReg::A0, XReg::A0, 100)).unwrap();
    assert_eq!(
        straddler_old & 0xffff,
        straddler_new & 0xffff,
        "test needs the rewrite to live entirely in the upper parcel"
    );

    // Lower region: a whole instruction, then the straddler's low parcel.
    let mut lo_region = words(&[addi(XReg::A0, XReg::ZERO, 7)]);
    lo_region.extend_from_slice(&(straddler_old as u16).to_le_bytes());
    // Adjacent upper region: the straddler's high parcel, then ecall.
    let mut hi_region = ((straddler_old >> 16) as u16).to_le_bytes().to_vec();
    hi_region.extend_from_slice(&words(&[Inst::Ecall]));
    let hi_start = BASE + lo_region.len() as u64;

    for mode in [ExecMode::Engine, ExecMode::Reference] {
        let mut cpu = cpu_in(mode);
        let mut mem = Memory::new();
        mem.map_bytes(BASE, lo_region.clone(), Perms::RX, ".text.lo");
        mem.map_bytes(hi_start, hi_region.clone(), Perms::RX, ".text.hi");

        assert_eq!(run_to_ecall(&mut cpu, &mut mem), 8, "{mode:?}");
        // Patch only the upper region: its generation moves, the lower
        // region's does not. A block that cached the straddler under the
        // lower region's fingerprint would dodge this invalidation.
        mem.poke_code(hi_start, &((straddler_new >> 16) as u16).to_le_bytes())
            .unwrap();
        cpu.hart.set_x(XReg::A0, 0);
        assert_eq!(
            run_to_ecall(&mut cpu, &mut mem),
            107,
            "{mode:?}: stale straddling decode executed"
        );
    }
}

/// Patching one executable region must not evict blocks cached from a
/// *different* executable region: validation is purely per-region
/// fingerprints (`(region start, generation)`), with no global-generation
/// guard. Blocks in the untouched region keep serving re-entries with no
/// new invalidations or rebuilds.
#[test]
fn cross_region_blocks_survive_poke_elsewhere() {
    let hot_base = BASE;
    let cold_base = 0x4_0000;
    // Hot region: a straight-line block ending in ecall, re-entered often.
    let hot = words(&[addi(XReg::A0, XReg::A0, 3), Inst::Ecall]);
    // Cold region: executable bytes the kernel keeps patching.
    let cold = words(&[addi(XReg::A1, XReg::ZERO, 1), Inst::Ecall]);

    let mut cpu = Cpu::new(ExtSet::RV64GC);
    let mut mem = Memory::new();
    mem.map_bytes(hot_base, hot, Perms::RX, ".text.hot");
    mem.map_bytes(cold_base, cold, Perms::RX, ".text.cold");

    // Warm the hot block into the cache.
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 3);
    let warm = cpu.cache.stats;

    // Ten kernel patches to the cold region, each followed by a hot-region
    // re-entry. A global-generation guard would flush (or at least
    // re-validate-to-miss) the hot block every time.
    for i in 0..10u64 {
        mem.poke_code(cold_base, &words(&[addi(XReg::A1, XReg::ZERO, 1)]))
            .unwrap();
        cpu.hart.set_x(XReg::A0, 0);
        assert_eq!(run_to_ecall(&mut cpu, &mut mem), 3, "patch round {i}");
    }

    let s = cpu.cache.stats;
    assert_eq!(
        s.invalidations, warm.invalidations,
        "patches elsewhere must not invalidate this region's blocks: {s:?}"
    );
    assert_eq!(
        s.blocks_built, warm.blocks_built,
        "the hot block must never be rebuilt: {s:?}"
    );
    assert_eq!(s.misses, warm.misses, "re-entries must not miss: {s:?}");
    assert!(
        s.hits + s.chained >= warm.hits + warm.chained + 10,
        "every re-entry must be served from the cache: {s:?}"
    );
}

/// A store to a *different* (non-executable) region must not invalidate
/// anything — generations only move for executable mappings.
#[test]
fn data_stores_do_not_invalidate() {
    let prog = words(&[
        Inst::Store {
            kind: StoreKind::Sd,
            rs1: XReg::T0,
            rs2: XReg::A0,
            offset: 0,
        },
        addi(XReg::A0, XReg::A0, 5),
        Inst::Ecall,
    ]);
    let mut cpu = Cpu::new(ExtSet::RV64GC);
    let mut mem = Memory::new();
    mem.map_bytes(BASE, prog, Perms::RX, ".text");
    mem.map_bytes(0x2_0000, vec![0; 64], Perms::RW, ".data");
    cpu.hart.set_x(XReg::T0, 0x2_0000);

    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 5);
    cpu.hart.set_x(XReg::A0, 0);
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 5);
    let s = cpu.cache.stats;
    assert_eq!(s.invalidations, 0, "{s:?}");
    assert!(
        s.hits + s.chained >= 1,
        "second run must reuse the block: {s:?}"
    );
}

/// Unmap-then-remap at the same address severs *everything* decoded under
/// the old region: cached blocks AND the jump-cache entries into them. A
/// hot loop runs on jump-cache entries; after the region is unmapped and
/// new code mapped at the same base, neither a stale block nor a stale
/// entry may fire — the workspace-unique region generations guarantee the
/// remapped region can never reproduce a fingerprint the old entries were
/// validated against.
#[test]
fn unmap_then_remap_severs_blocks_and_chain_links() {
    // Two-block loop, so each block is entered through the jump cache.
    let loop_of = |step: i32| {
        words(&[
            addi(XReg::T0, XReg::ZERO, 50),
            addi(XReg::A0, XReg::ZERO, 0),
            addi(XReg::A0, XReg::A0, step), // loop:
            Inst::Branch {
                kind: BranchKind::Beq,
                rs1: XReg::ZERO,
                rs2: XReg::ZERO,
                offset: 4, // Split the loop body into two blocks.
            },
            addi(XReg::T0, XReg::T0, -1),
            Inst::Branch {
                kind: BranchKind::Bne,
                rs1: XReg::T0,
                rs2: XReg::ZERO,
                offset: -12,
            },
            Inst::Ecall,
        ])
    };
    let mut cpu = Cpu::new(ExtSet::RV64GC);
    let mut mem = Memory::new();
    mem.map_bytes(BASE, loop_of(2), Perms::RX, "gen1");
    let gen1 = mem.region("gen1").unwrap().generation;
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 100);
    let warm = cpu.cache.stats;
    assert!(
        warm.chained > 0,
        "hot loop must run on jump-cache entries: {warm:?}"
    );

    assert!(mem.unmap("gen1"));
    mem.map_bytes(BASE, loop_of(3), Perms::RX, "gen2");
    let gen2 = mem.region("gen2").unwrap().generation;
    assert!(
        gen2 > gen1,
        "remap at the same address must draw a fresh workspace-unique generation"
    );

    // Every stale block (and every jump-cache entry validated under gen1)
    // must be dropped: the run executes the new bytes only.
    assert_eq!(
        run_to_ecall(&mut cpu, &mut mem),
        150,
        "stale blocks or jump-cache entries from the unmapped region survived the remap"
    );
    let s = cpu.cache.stats;
    assert!(
        s.invalidations > warm.invalidations,
        "remap must invalidate the cached blocks: {s:?}"
    );
    assert!(
        s.blocks_built > warm.blocks_built,
        "the new code must be decoded fresh: {s:?}"
    );
}

/// A vector loop: `a0` = 4 lanes x the loop count left in `t2` plus what
/// `v1` already holds. `vadd.vv` sits mid-block, after the loop head.
const VECTOR_LOOP: &str = "
    .globl head
    .globl vadd_site
    _start:
        li t0, 4
        vsetvli t1, t0, e64, m1, ta, ma
        vmv.v.i v1, 0
        vmv.v.i v2, 1
        li t2, 100
    head:
        addi t2, t2, -1
    vadd_site:
        vadd.vv v1, v1, v2
        bnez t2, head
        vmv.v.i v3, 0
        vredsum.vs v4, v1, v3
        vmv.x.s a0, v4
        li a7, 93
        ecall
";

/// A warm jump cache never serves a block decoded for another profile:
/// the same `Cpu` and `Memory` switch to a base core (as a one-view FAM
/// migration does) and rerun from the loop head, which must trap at the
/// `vadd.vv` under a freshly built `(pc, profile)` key; switching back
/// finishes the loop with the native result.
fn profile_flip_on_warm_cache(mode: ExecMode) {
    let bin = assemble(VECTOR_LOOP, AsmOptions::default()).expect("assembles");
    let addr = |name: &str| bin.symbol(name).expect("symbol").addr;
    let (mut cpu, mut mem) = chimera_emu::boot(&bin, ExtSet::RV64GCV);
    cpu.set_mode(mode);
    cpu.set_jit_threshold(1);
    assert!(matches!(
        cpu.run(&mut mem, 100_000),
        Stop::Trap(Trap::Ecall { .. })
    ));
    assert_eq!(cpu.hart.get_x(XReg::A0), 400);
    if mode == ExecMode::Jit && chimera_emu::jit_available() {
        assert!(cpu.jit_trace_bytes(addr("head")).is_some(), "{mode:?}");
    }

    // Rerun the loop from its head, 10 more iterations on top of v1.
    cpu.hart.pc = addr("head");
    cpu.hart.set_x(XReg::T2, 10);
    let mut native = (cpu.clone(), mem.clone());
    native.0.set_mode(ExecMode::Reference);
    assert!(matches!(
        native.0.run(&mut native.1, 100_000),
        Stop::Trap(Trap::Ecall { .. })
    ));

    let warm = cpu.cache.stats;
    cpu.profile = ExtSet::RV64GC;
    match cpu.run(&mut mem, 100_000) {
        Stop::Trap(Trap::Illegal { pc, .. }) => assert_eq!(pc, addr("vadd_site"), "{mode:?}"),
        other => panic!("{mode:?}: expected the vadd.vv to trap on RV64GC, got {other:?}"),
    }
    let s = cpu.cache.stats;
    assert_eq!(
        (s.misses, s.blocks_built),
        (warm.misses + 2, warm.blocks_built + 1),
        "{mode:?}: the loop head is built afresh for RV64GC, the vadd.vv misses: {s:?}"
    );

    cpu.profile = ExtSet::RV64GCV;
    assert!(matches!(
        cpu.run(&mut mem, 100_000),
        Stop::Trap(Trap::Ecall { .. })
    ));
    assert_eq!(cpu.hart.get_x(XReg::A0), native.0.hart.get_x(XReg::A0));
    assert_eq!(cpu.hart.get_x(XReg::A0), 440, "{mode:?}");
}

#[test]
fn profile_flip_never_reuses_a_warm_engine_block() {
    profile_flip_on_warm_cache(ExecMode::Engine);
}

#[test]
fn profile_flip_never_reuses_a_warm_jit_block() {
    profile_flip_on_warm_cache(ExecMode::Jit);
}

// ---- JIT-tier SMC regressions ---------------------------------------
//
// The JIT inherits the cache's invalidation contract through the same
// `(region start, generation)` fingerprints: a poke severs the resident
// trace before it can run again, re-promotion of identical guest bytes
// compiles bit-identical host code, and blocks the cache itself refuses
// (cross-region straddlers) never reach the JIT at all. Each test
// returns early on hosts without executable pages, where the Jit mode
// legitimately runs with engine semantics.

/// `poke_code` severs the resident compiled trace: the next run executes
/// the NEW bytes through the engine, and the pc re-promotes only after
/// re-proving itself hot.
#[test]
fn poke_code_severs_jit_trace() {
    if !chimera_emu::jit_available() {
        eprintln!("skipping: no executable pages on this host");
        return;
    }
    let mut cpu = Cpu::new(ExtSet::RV64GC);
    cpu.set_mode(ExecMode::Jit);
    cpu.set_jit_threshold(1);
    let mut mem = Memory::new();
    mem.map_bytes(
        BASE,
        words(&[addi(XReg::A0, XReg::ZERO, 11), Inst::Ecall]),
        Perms::RX,
        ".text",
    );

    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 11);
    assert_eq!(cpu.jit_compiled(), 1, "threshold 1 promotes immediately");
    assert!(cpu.cache.stats.jit_execs >= 1, "{:?}", cpu.cache.stats);
    assert!(cpu.jit_trace_bytes(BASE).is_some(), "trace is resident");

    mem.poke_code(BASE, &words(&[addi(XReg::A0, XReg::ZERO, 22)]))
        .unwrap();

    // A stale trace would yield 11.
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 22);
    assert!(
        cpu.jit_trace_bytes(BASE).is_none(),
        "the poked trace must be severed, not re-entered"
    );

    // The pc re-promotes once it re-proves itself hot (the sever doubled
    // its threshold), and keeps executing the new bytes.
    for _ in 0..4 {
        assert_eq!(run_to_ecall(&mut cpu, &mut mem), 22);
    }
    assert!(cpu.jit_compiled() >= 2, "re-promotion must happen");
    assert!(cpu.jit_trace_bytes(BASE).is_some());
}

/// Re-promoting the *same guest bytes* at the same pc after an SMC round
/// trip compiles bit-identical host code — compilation is a pure
/// function of the lowered block.
#[test]
fn repromotion_after_smc_is_byte_identical() {
    if !chimera_emu::jit_available() {
        eprintln!("skipping: no executable pages on this host");
        return;
    }
    let v1 = words(&[addi(XReg::A0, XReg::ZERO, 11), Inst::Ecall]);
    let v2 = words(&[addi(XReg::A0, XReg::ZERO, 22), Inst::Ecall]);

    let mut cpu = Cpu::new(ExtSet::RV64GC);
    cpu.set_mode(ExecMode::Jit);
    cpu.set_jit_threshold(1);
    let mut mem = Memory::new();
    mem.map_bytes(BASE, v1.clone(), Perms::RX, ".text");

    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 11);
    let first = cpu.jit_trace_bytes(BASE).expect("v1 promoted");

    // SMC to v2 and back to v1, driving enough re-entries after each poke
    // to clear the sever-escalated threshold.
    mem.poke_code(BASE, &v2).unwrap();
    for _ in 0..8 {
        assert_eq!(run_to_ecall(&mut cpu, &mut mem), 22);
    }
    let second = cpu.jit_trace_bytes(BASE).expect("v2 promoted");
    assert_ne!(first, second, "different guest bytes, different trace");

    mem.poke_code(BASE, &v1).unwrap();
    for _ in 0..16 {
        assert_eq!(run_to_ecall(&mut cpu, &mut mem), 11);
    }
    let third = cpu.jit_trace_bytes(BASE).expect("v1 re-promoted");
    assert_eq!(
        first, third,
        "re-promoting identical guest bytes must compile identical host code"
    );
}

/// The straddler regression in Jit mode: an instruction whose upper
/// parcel lives in an adjacent region is never cached, so it can never be
/// compiled into a trace either — patching the neighbour region takes
/// effect immediately, and the run stays bit-identical to the uncached
/// reference.
#[test]
fn straddling_instruction_demotes_from_jit() {
    let straddler_old = encode(&addi(XReg::A0, XReg::A0, 1)).unwrap();
    let straddler_new = encode(&addi(XReg::A0, XReg::A0, 100)).unwrap();
    let mut lo_region = words(&[addi(XReg::A0, XReg::ZERO, 7)]);
    lo_region.extend_from_slice(&(straddler_old as u16).to_le_bytes());
    let mut hi_region = ((straddler_old >> 16) as u16).to_le_bytes().to_vec();
    hi_region.extend_from_slice(&words(&[Inst::Ecall]));
    let hi_start = BASE + lo_region.len() as u64;

    let mut results = Vec::new();
    for jit in [true, false] {
        let mut cpu = cpu_in(if jit {
            ExecMode::Jit
        } else {
            ExecMode::Reference
        });
        cpu.set_jit_threshold(1);
        let mut mem = Memory::new();
        mem.map_bytes(BASE, lo_region.clone(), Perms::RX, ".text.lo");
        mem.map_bytes(hi_start, hi_region.clone(), Perms::RX, ".text.hi");

        assert_eq!(run_to_ecall(&mut cpu, &mut mem), 8, "jit={jit}");
        if jit {
            // The leading block (truncated before the straddler) may
            // compile, but the straddling instruction itself must never
            // enter a trace — it has no single-region fingerprint.
            assert!(
                cpu.jit_trace_bytes(BASE + 4).is_none(),
                "a straddling block must never be promoted"
            );
        }
        // Patch only the upper region; a trace fingerprinted on the lower
        // region alone would dodge this invalidation.
        mem.poke_code(hi_start, &((straddler_new >> 16) as u16).to_le_bytes())
            .unwrap();
        cpu.hart.set_x(XReg::A0, 0);
        assert_eq!(
            run_to_ecall(&mut cpu, &mut mem),
            107,
            "jit={jit}: stale straddling decode executed"
        );
        results.push((cpu.hart.xregs(), cpu.stats));
    }
    assert_eq!(results[0], results[1], "jit tier must be transparent");
}

// ---- Late publication -------------------------------------------------
//
// Above threshold 1 a compiled trace waits on the tier's queue until its
// batch is published, so guest code can change *between* compilation and
// publication. The trace carries its compile-time stamp through the
// wait: its first entry revalidates it like any resident trace, and a
// stale one is severed with the demotion penalty, never executed.
// Threshold 2 gives a batch of two traces and four tolerated declines.

fn deferring_jit_cpu() -> Cpu {
    let mut cpu = Cpu::new(ExtSet::RV64GC);
    cpu.set_mode(ExecMode::Jit);
    cpu.set_jit_threshold(2);
    cpu
}

/// Heats the block at `pc` (which must return 11) until its trace is
/// compiled and queued, not resident.
fn heat_until_queued(cpu: &mut Cpu, mem: &mut Memory, pc: u64) {
    for _ in 0..2 {
        assert_eq!(run_from(cpu, mem, pc), 11);
    }
    assert_eq!(cpu.jit_compiled(), 1, "threshold 2 compiles at entry 2");
    assert_eq!(cpu.jit_wx_toggles(), 0, "one queued trace is no batch");
    assert!(cpu.jit_trace_bytes(pc).is_none(), "queued, not resident");
}

/// Re-enters `pc` (which must now return 22) until the queue is
/// published, then checks the stale trace was severed unexecuted and
/// pays the doubled re-promotion threshold.
fn publish_and_expect_sever(cpu: &mut Cpu, mem: &mut Memory, pc: u64) {
    let mut entries = 0;
    while cpu.jit_wx_toggles() == 0 {
        assert_eq!(run_from(cpu, mem, pc), 22, "entry {entries} ran stale code");
        entries += 1;
        assert!(
            entries <= 64,
            "a re-entered queued trace must get published"
        );
    }
    assert_eq!(cpu.jit_wx_toggles(), 1);
    assert!(
        cpu.jit_trace_bytes(pc).is_none(),
        "the stale trace must be severed at its first entry"
    );
    assert_eq!(cpu.cache.stats.jit_execs, 0, "the stale trace was entered");
    // Demotion penalty: threshold 2 doubled, heat restarted from zero.
    for heat in 1..=3 {
        assert_eq!(run_from(cpu, mem, pc), 22);
        assert_eq!((cpu.jit_hotness(pc), cpu.jit_compiled()), (heat, 1));
    }
    assert_eq!(run_from(cpu, mem, pc), 22);
    assert_eq!(cpu.jit_compiled(), 2, "re-promotion after re-proving hot");
    for _ in 0..8 {
        assert_eq!(run_from(cpu, mem, pc), 22);
    }
    assert!(cpu.jit_trace_bytes(pc).is_some(), "the new trace publishes");
    assert!(cpu.cache.stats.jit_execs > 0, "and runs");
}

/// `poke_code` between compilation and publication: the queued trace was
/// compiled from bytes that no longer exist.
#[test]
fn poke_while_queued_severs_the_late_published_trace() {
    if !chimera_emu::jit_available() {
        eprintln!("skipping: no executable pages on this host");
        return;
    }
    let mut cpu = deferring_jit_cpu();
    let mut mem = Memory::new();
    mem.map_bytes(
        BASE,
        words(&[addi(XReg::A0, XReg::ZERO, 11), Inst::Ecall]),
        Perms::RX,
        ".text",
    );
    heat_until_queued(&mut cpu, &mut mem, BASE);
    mem.poke_code(BASE, &words(&[addi(XReg::A0, XReg::ZERO, 22)]))
        .unwrap();
    publish_and_expect_sever(&mut cpu, &mut mem, BASE);
}

/// A guest store into a W+X region between compilation and publication:
/// the same contract, driven from inside the run.
#[test]
fn store_while_queued_severs_the_late_published_trace() {
    if !chimera_emu::jit_available() {
        eprintln!("skipping: no executable pages on this host");
        return;
    }
    const HOT: u64 = 0x4_0000;
    let mut cpu = deferring_jit_cpu();
    let mut mem = Memory::new();
    // The driver overwrites the hot block's first instruction, then
    // jumps to it.
    mem.map_bytes(
        BASE,
        words(&[
            Inst::Store {
                kind: StoreKind::Sw,
                rs1: XReg::T0,
                rs2: XReg::T1,
                offset: 0,
            },
            Inst::Jalr {
                rd: XReg::ZERO,
                rs1: XReg::T0,
                offset: 0,
            },
        ]),
        Perms::RX,
        ".text",
    );
    mem.map_bytes(
        HOT,
        words(&[addi(XReg::A0, XReg::ZERO, 11), Inst::Ecall]),
        Perms::RWX,
        ".jit",
    );
    cpu.hart.set_x(XReg::T0, HOT);
    cpu.hart.set_x(
        XReg::T1,
        encode(&addi(XReg::A0, XReg::ZERO, 22)).unwrap() as u64,
    );
    heat_until_queued(&mut cpu, &mut mem, HOT);
    assert_eq!(run_from(&mut cpu, &mut mem, BASE), 22, "store then jump");
    assert_eq!(cpu.jit_compiled(), 1, "the driver blocks ran once: cold");
    publish_and_expect_sever(&mut cpu, &mut mem, HOT);
}

/// `set_mode` between compilation and publication drops the queue with
/// everything else: nothing compiled under the old mode epoch is ever
/// published, and the pc re-proves itself hot from zero.
#[test]
fn set_mode_while_queued_drops_the_queue() {
    if !chimera_emu::jit_available() {
        eprintln!("skipping: no executable pages on this host");
        return;
    }
    let mut cpu = deferring_jit_cpu();
    let mut mem = Memory::new();
    mem.map_bytes(
        BASE,
        words(&[addi(XReg::A0, XReg::ZERO, 11), Inst::Ecall]),
        Perms::RX,
        ".text",
    );
    heat_until_queued(&mut cpu, &mut mem, BASE);
    cpu.set_mode(ExecMode::Engine);
    cpu.set_mode(ExecMode::Jit);
    cpu.set_jit_threshold(2);
    assert_eq!(cpu.jit_compiled(), 1, "the lifetime count is unchanged");
    assert_eq!(cpu.jit_hotness(BASE), 0);

    assert_eq!(run_from(&mut cpu, &mut mem, BASE), 11);
    assert_eq!((cpu.jit_hotness(BASE), cpu.jit_compiled()), (1, 1));
    assert_eq!(run_from(&mut cpu, &mut mem, BASE), 11);
    assert_eq!(cpu.jit_compiled(), 2, "compiled afresh, not dequeued");
    assert_eq!(
        cpu.jit_wx_toggles(),
        0,
        "the dropped queue was never published"
    );
    for _ in 0..8 {
        assert_eq!(run_from(&mut cpu, &mut mem, BASE), 11);
    }
    assert_eq!(cpu.jit_wx_toggles(), 1);
    assert!(cpu.jit_trace_bytes(BASE).is_some());
    assert!(cpu.cache.stats.jit_execs > 0);
}

/// Severing a trace that a predecessor was patched to jump into: the
/// poisoned stamp keeps the stale successor from ever running, the
/// predecessor's exit slot gets its original bytes back (with the next
/// publication), and once the successor is re-promoted the edge is
/// patched again — at immediate and at deferred publication.
#[test]
fn severed_successor_is_unlinked_and_relinked() {
    if !chimera_emu::jit_available() {
        eprintln!("skipping: no executable pages on this host");
        return;
    }
    const HOT: u64 = BASE + 0x1000;
    for threshold in [1, 2] {
        let mut cpu = Cpu::new(ExtSet::RV64GC);
        cpu.set_mode(ExecMode::Jit);
        cpu.set_jit_threshold(threshold);
        let mut mem = Memory::new();
        // The predecessor lives in a region of its own, so poking the
        // successor's region leaves its trace valid.
        mem.map_bytes(
            BASE,
            words(&[
                addi(XReg::A1, XReg::A1, 1),
                Inst::Jal {
                    rd: XReg::ZERO,
                    offset: (HOT - (BASE + 4)) as i32,
                },
            ]),
            Perms::RX,
            ".text",
        );
        mem.map_bytes(
            HOT,
            words(&[addi(XReg::A0, XReg::ZERO, 11), Inst::Ecall]),
            Perms::RX,
            ".hot",
        );
        let mut runs = 0;
        while cpu.cache.stats.jitted == 0 {
            assert_eq!(run_to_ecall(&mut cpu, &mut mem), 11);
            runs += 1;
            assert!(runs <= 40, "t={threshold}: the edge must get patched");
        }
        let linked = cpu.cache.stats.jitted;

        mem.poke_code(HOT, &words(&[addi(XReg::A0, XReg::ZERO, 22)]))
            .unwrap();
        let mut runs = 0;
        while cpu.cache.stats.jitted == linked {
            assert_eq!(
                run_to_ecall(&mut cpu, &mut mem),
                22,
                "t={threshold}: the stale successor ran through the patched jump"
            );
            runs += 1;
            assert!(runs <= 80, "t={threshold}: the edge must get re-patched");
        }
        assert_eq!(run_to_ecall(&mut cpu, &mut mem), 22);
        assert_eq!(
            cpu.jit_compiled(),
            3,
            "t={threshold}: only the successor recompiles"
        );
    }
}

/// One region-edge case: the executable regions, the core, and what every
/// mode must observe.
struct EdgeCase {
    name: &'static str,
    profile: ExtSet,
    /// `(start, bytes)`, each mapped RX.
    regions: Vec<(u64, Vec<u8>)>,
    /// The reference run's stop.
    stop: Stop,
    /// What every cached mode's cache must show.
    cache: EdgeCache,
}

/// What every mode must observe of a run: the stop, the cycle accounting,
/// the register file.
type EdgeRun = (Stop, ExecStats, [u64; 32]);

/// `(blocks_built, misses, instructions in the block at BASE)`.
type EdgeCache = (u64, u64, Option<usize>);

/// Runs `case` from `BASE` in `mode`.
fn run_edge(case: &EdgeCase, mode: ExecMode) -> (EdgeRun, EdgeCache) {
    let mut cpu = Cpu::new(case.profile);
    cpu.set_mode(mode);
    cpu.set_jit_threshold(1);
    let mut mem = Memory::new();
    for (i, (start, bytes)) in case.regions.iter().enumerate() {
        mem.map_bytes(*start, bytes.clone(), Perms::RX, &format!(".text{i}"));
    }
    cpu.hart.pc = BASE;
    let stop = cpu.run(&mut mem, 1_000);
    let s = cpu.cache.stats;
    let fp = mem.code_fingerprint(BASE).unwrap();
    let first = cpu.cache.lookup(BASE, case.profile, fp);
    (
        (stop, cpu.stats, cpu.hart.xregs()),
        (s.blocks_built, s.misses, first.map(|(_, b)| b.ops.len())),
    )
}

/// The block builder reads a block from its region's bytes and stops at
/// the region end, at an instruction that does not decode or is gated off,
/// and at the 64-instruction cap; a first instruction it cannot cache runs
/// uncached through `Cpu::step`. Each of those edges must leave every
/// cached mode observing exactly the reference run: the trap (pc and raw
/// bits included), `ExecStats` and the register file — and must build and
/// miss the same blocks in all three cached modes.
#[test]
fn region_edges_and_first_instruction_traps_match_the_reference() {
    let addi_word = encode(&addi(XReg::A0, XReg::A0, 1)).unwrap();
    let lo_parcel = (addi_word as u16).to_le_bytes().to_vec();
    let c_addi = chimera_isa::encode_compressed(&addi(XReg::A0, XReg::A0, 1)).unwrap();
    let illegal = 0x0000_007b; // custom-3: no decoding
    assert!(chimera_isa::decode(illegal).is_err());
    let vadd = chimera_isa::parse("vadd.vv", &["v1", "v2", "v3"]).unwrap();
    let vadd_word = encode(&vadd).unwrap();
    let cat = |parts: &[&[u8]]| parts.concat();
    let seven = words(&[addi(XReg::A0, XReg::ZERO, 7)]);
    let fetch_fault = |addr| {
        Stop::Trap(Trap::Mem {
            pc: addr,
            fault: MemFault {
                addr,
                access: Access::Fetch,
                mapped: false,
            },
        })
    };
    let mut long = vec![addi(XReg::A0, XReg::A0, 1); 64];
    long.push(Inst::Ecall);
    let cases = [
        EdgeCase {
            name: "upper parcel unmapped, first instruction",
            profile: ExtSet::RV64GC,
            regions: vec![(BASE, lo_parcel.clone())],
            stop: fetch_fault(BASE + 2),
            cache: (0, 1, None),
        },
        EdgeCase {
            name: "upper parcel unmapped, later instruction",
            profile: ExtSet::RV64GC,
            regions: vec![(BASE, cat(&[&seven, &lo_parcel]))],
            stop: fetch_fault(BASE + 6),
            cache: (1, 2, Some(1)),
        },
        EdgeCase {
            name: "compressed instruction in the region's last halfword",
            profile: ExtSet::RV64GC,
            regions: vec![
                (BASE, cat(&[&seven, &c_addi.to_le_bytes()])),
                (BASE + 6, words(&[Inst::Ecall])),
            ],
            stop: Stop::Trap(Trap::Ecall { pc: BASE + 6 }),
            cache: (2, 2, Some(2)),
        },
        EdgeCase {
            name: "illegal first instruction",
            profile: ExtSet::RV64GC,
            regions: vec![(BASE, illegal.to_le_bytes().to_vec())],
            stop: Stop::Trap(Trap::Illegal {
                pc: BASE,
                raw: illegal,
            }),
            cache: (0, 1, None),
        },
        EdgeCase {
            name: "illegal later instruction",
            profile: ExtSet::RV64GC,
            regions: vec![(BASE, cat(&[&seven, &illegal.to_le_bytes()]))],
            stop: Stop::Trap(Trap::Illegal {
                pc: BASE + 4,
                raw: illegal,
            }),
            cache: (1, 2, Some(1)),
        },
        EdgeCase {
            name: "vector first instruction on RV64GC",
            profile: ExtSet::RV64GC,
            regions: vec![(BASE, words(&[vadd, Inst::Ecall]))],
            stop: Stop::Trap(Trap::Illegal {
                pc: BASE,
                raw: vadd_word,
            }),
            cache: (0, 1, None),
        },
        EdgeCase {
            name: "the same bytes on RV64GCV",
            profile: ExtSet::RV64GCV,
            regions: vec![(BASE, words(&[vadd, Inst::Ecall]))],
            stop: Stop::Trap(Trap::Ecall { pc: BASE + 4 }),
            cache: (1, 1, Some(2)),
        },
        EdgeCase {
            name: "compressed first instruction on RV64I",
            profile: ExtSet::RV64I,
            regions: vec![(BASE, cat(&[&c_addi.to_le_bytes(), &words(&[Inst::Ecall])]))],
            stop: Stop::Trap(Trap::Illegal {
                pc: BASE,
                raw: c_addi.into(),
            }),
            cache: (0, 1, None),
        },
        EdgeCase {
            name: "64 straight-line instructions fill a block: the ecall starts the next",
            profile: ExtSet::RV64GC,
            regions: vec![(BASE, words(&long))],
            stop: Stop::Trap(Trap::Ecall { pc: BASE + 256 }),
            cache: (2, 2, Some(64)),
        },
    ];
    for case in &cases {
        let (reference, _) = run_edge(case, ExecMode::Reference);
        assert_eq!(reference.0, case.stop, "{}: reference", case.name);
        for mode in [ExecMode::Interpreter, ExecMode::Engine, ExecMode::Jit] {
            let (got, cache) = run_edge(case, mode);
            assert_eq!(got, reference, "{}: {mode:?}", case.name);
            assert_eq!(cache, case.cache, "{}: {mode:?} (built, misses)", case.name);
        }
    }
}
