//! Tiering-policy tests for the host-code JIT: promotion thresholds are
//! deterministic (same dispatch history, same compilation and publication
//! points — on every run and regardless of how many other harts exist),
//! `set_mode` resets the hotness ledger, and the sever-penalty hysteresis
//! keeps alternating SMC from ping-ponging between compile and sever
//! forever.
//!
//! Everything here is about *when* code is compiled and becomes resident,
//! not *what* the compiled code does — transparency is pinned by
//! `tests/differential.rs` and the fuzzing oracle. The policy itself (heat
//! counters, penalties) is pure bookkeeping, so these tests run on every
//! host; assertions about actual compilation (`jit_compiled`, resident
//! traces) are gated on [`chimera_emu::jit_available`].

use chimera_emu::{Cpu, ExecMode, Memory, Stop, Trap};
use chimera_isa::{encode, ExtSet, Inst, OpImmKind, XReg};
use chimera_obj::Perms;

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

fn program(imm: i32) -> Vec<u8> {
    words(&[addi(XReg::A0, XReg::ZERO, imm), Inst::Ecall])
}

fn jit_cpu(threshold: u32) -> Cpu {
    let mut cpu = Cpu::new(ExtSet::RV64GC);
    cpu.set_mode(ExecMode::Jit);
    cpu.set_jit_threshold(threshold);
    cpu
}

fn run_to_ecall(cpu: &mut Cpu, mem: &mut Memory) -> u64 {
    cpu.hart.pc = BASE;
    match cpu.run(mem, 100_000) {
        Stop::Trap(Trap::Ecall { .. }) => cpu.hart.get_x(XReg::A0),
        other => panic!("expected ecall, got {other:?}"),
    }
}

/// Compilation and publication points are pure functions of the dispatch
/// count: below the threshold the pc only heats up, at the threshold it
/// compiles onto the publication queue, and once the dispatcher has
/// declined it as often as the threshold tolerates (4 x (3 - 1) entries
/// here; a lone trace is no batch of three) the queue is published and
/// the trace is entered — identically on every run of the same history.
#[test]
fn promotion_threshold_is_deterministic() {
    let mut per_run = Vec::new();
    for _ in 0..3 {
        let mut cpu = jit_cpu(3);
        let mut mem = Memory::new();
        mem.map_bytes(BASE, program(9), Perms::RX, ".text");
        let mut history = Vec::new();
        for entry in 1..=11u32 {
            assert_eq!(run_to_ecall(&mut cpu, &mut mem), 9);
            history.push((
                entry,
                cpu.jit_hotness(BASE),
                cpu.jit_compiled(),
                cpu.jit_wx_toggles(),
                cpu.jit_trace_bytes(BASE).is_some(),
                cpu.cache.stats.jit_execs,
            ));
        }
        per_run.push(history);
    }
    assert_eq!(per_run[0], per_run[1], "tiering must be deterministic");
    assert_eq!(per_run[1], per_run[2], "tiering must be deterministic");
    let history = &per_run[0];
    assert!(
        history.iter().all(|h| h.1 < 3),
        "hotness is a count below the threshold, never a marker: {history:?}"
    );
    if chimera_emu::jit_available() {
        // Entries 1 and 2 only accumulate heat.
        assert_eq!(history[0], (1, 1, 0, 0, false, 0), "{history:?}");
        assert_eq!(history[1], (2, 2, 0, 0, false, 0), "{history:?}");
        // Entry 3 compiles (heat ledger cleared) but the trace only
        // queues: entries 3 to 9 are seven declines, one short of the
        // bound, all run by the engine.
        for entry in 3..=9 {
            assert_eq!(
                history[entry as usize - 1],
                (entry, 0, 1, 0, false, 0),
                "{history:?}"
            );
        }
        // The eighth decline (entry 10) is the bound: one toggle
        // publishes the queue, and the same entry runs the trace.
        assert_eq!(history[9], (10, 0, 1, 1, true, 1), "{history:?}");
        assert_eq!(history[10], (11, 0, 1, 1, true, 2), "{history:?}");
    }
}

/// Hotness is per-`Cpu` state: harts heat up independently, and a hart's
/// promotion point does not depend on how many sibling harts are running
/// the same code.
#[test]
fn promotion_is_per_hart_and_count_invariant() {
    let solo = {
        let mut cpu = jit_cpu(2);
        let mut mem = Memory::new();
        mem.map_bytes(BASE, program(5), Perms::RX, ".text");
        for _ in 0..3 {
            assert_eq!(run_to_ecall(&mut cpu, &mut mem), 5);
        }
        (cpu.jit_hotness(BASE), cpu.jit_compiled(), cpu.stats)
    };

    // Four harts, interleaved round-robin over the same image: each hart
    // sees exactly the history the solo hart saw.
    let mut harts: Vec<(Cpu, Memory)> = (0..4)
        .map(|_| {
            let mut mem = Memory::new();
            mem.map_bytes(BASE, program(5), Perms::RX, ".text");
            (jit_cpu(2), mem)
        })
        .collect();
    for _round in 0..3 {
        for (cpu, mem) in harts.iter_mut() {
            assert_eq!(run_to_ecall(cpu, mem), 5);
        }
    }
    for (i, (cpu, _)) in harts.iter().enumerate() {
        assert_eq!(
            (cpu.jit_hotness(BASE), cpu.jit_compiled(), cpu.stats),
            solo,
            "hart {i} diverged from the solo run"
        );
    }
}

/// `set_mode` mid-run resets the hotness ledger and flushes resident
/// traces: a mode round-trip means re-proving hotness from zero, never
/// re-entering a trace compiled under the previous mode epoch.
#[test]
fn set_mode_resets_hotness_and_traces() {
    let mut cpu = jit_cpu(4);
    let mut mem = Memory::new();
    mem.map_bytes(BASE, program(7), Perms::RX, ".text");

    // Two entries: warm but below threshold.
    for _ in 0..2 {
        assert_eq!(run_to_ecall(&mut cpu, &mut mem), 7);
    }
    assert_eq!(cpu.jit_hotness(BASE), 2);

    // Mode round trip: the ledger restarts from zero.
    cpu.set_mode(ExecMode::Engine);
    cpu.set_mode(ExecMode::Jit);
    cpu.set_jit_threshold(4);
    assert_eq!(cpu.jit_hotness(BASE), 0, "set_mode must reset hotness");

    // A resident trace is flushed by the round trip too.
    cpu.set_jit_threshold(1);
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 7);
    if chimera_emu::jit_available() {
        assert!(cpu.jit_trace_bytes(BASE).is_some(), "trace resident");
    }
    cpu.set_mode(ExecMode::Engine);
    cpu.set_mode(ExecMode::Jit);
    assert!(
        cpu.jit_trace_bytes(BASE).is_none(),
        "set_mode must flush resident traces"
    );
}

/// Alternating SMC at one pc must not ping-pong compile/sever forever:
/// every sever doubles that pc's effective threshold, so across N
/// poke-run rounds the number of compilations grows logarithmically, not
/// linearly — while every run still executes the freshly poked bytes.
#[test]
fn alternating_smc_does_not_ping_pong() {
    if !chimera_emu::jit_available() {
        eprintln!("skipping: no executable pages on this host");
        return;
    }
    let mut cpu = jit_cpu(1);
    let mut mem = Memory::new();
    mem.map_bytes(BASE, program(1), Perms::RX, ".text");
    assert_eq!(run_to_ecall(&mut cpu, &mut mem), 1);
    assert_eq!(cpu.jit_compiled(), 1);

    const ROUNDS: u64 = 30;
    for round in 0..ROUNDS {
        let imm = 1 + (round % 2) as i32;
        mem.poke_code(BASE, &program(imm)).unwrap();
        assert_eq!(
            run_to_ecall(&mut cpu, &mut mem),
            imm as u64,
            "round {round}: must execute the poked bytes"
        );
    }
    let compiled = cpu.jit_compiled();
    assert!(
        compiled <= 6,
        "hysteresis failed: {compiled} compilations across {ROUNDS} \
         poke rounds (penalties must escalate, got ping-pong)"
    );
    assert!(compiled >= 2, "re-promotion must still be possible");
}
