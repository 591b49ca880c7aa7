//! # chimera-emu
//!
//! An RV64 emulator with extension gating, an RWX-permissioned memory model
//! and a deterministic cycle-cost model — the "hardware" substrate the
//! Chimera reproduction runs on (see DESIGN.md §2 for the substitution
//! rationale).
//!
//! The parts Chimera's correctness story depends on are modelled exactly:
//!
//! * **Extension gating**: a [`Cpu`] whose [`ExtSet`](chimera_isa::ExtSet)
//!   profile lacks an instruction's extension raises
//!   [`Trap::Illegal`] — FAM's migration trigger and lazy rewriting's hook.
//! * **Non-executable data**: fetching from a region without X raises
//!   [`Trap::Mem`] — the deterministic fault a partially executed SMILE
//!   trampoline produces.
//! * **`ebreak` traps**: the trap-based trampolines of baseline rewriters
//!   pay [`CostModel::trap`] through the simulated kernel.
//!
//! For speed, the interpreter front end is memoized by a
//! generation-invalidated basic-block decode cache ([`BlockCache`]), keyed
//! by `(pc, profile)` and invalidated whenever executable bytes change
//! (`poke_code`, view remaps, or guest stores to W+X mappings). On top of
//! the cache sits the default **micro-op execution engine**
//! ([`ExecMode::Engine`]): block bodies are lowered once into a flat
//! pre-resolved [`uop`] buffer with pre-computed cycle costs, a
//! direct-mapped jump cache finds each next block without a hash lookup
//! (every entry revalidated before use), and per-core last-region hints
//! ([`mem::AccessHints`]) turn hot-loop memory accesses into a bounds
//! check plus pointer arithmetic. All of it is
//! architecturally transparent: traps, results, `ExecStats` and trace
//! counters are identical across [`ExecMode::Reference`],
//! [`ExecMode::Interpreter`] and [`ExecMode::Engine`] (the differential
//! suite asserts it).
//!
//! The hottest tier is the host-code JIT ([`ExecMode::Jit`]): block
//! bodies past a deterministic hotness threshold are template-compiled
//! to x86-64 and run out of a W^X-toggled arena, chained by patched
//! direct jumps and validated by the same (generation stamp, region
//! fingerprint) contract as the engine's jump cache. On hosts without
//! executable pages ([`jit_available`] is false) the mode transparently
//! degrades to engine semantics. All `unsafe` in the crate lives in the
//! `jit` module — everything else keeps the deny.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bbcache;
mod cost;
mod cpu;
mod fiber;
mod hart;
#[allow(unsafe_code)]
mod jit;
mod mem;
mod pool;
mod runner;
pub mod uop;

pub use bbcache::{BlockCache, CacheStats, JumpEntry};
pub use cost::{CostModel, ExecStats};
pub use cpu::{Cpu, ExecMode, Stop, Trap};
pub use fiber::{FiberYield, HartFiber};
pub use hart::{Hart, VLENB};
pub use jit::jit_available;
pub use mem::{Access, AccessHints, MasterImage, MemFault, Memory, Region, RegionHint};
pub use pool::{boot_pooled, MemoryPool, PoolStats};
pub use runner::{
    boot, boot_with_stack, run_binary, run_binary_mode, run_binary_on, run_binary_traced, run_cpu,
    sys, BareRun, BareYield, RunError, RunResult,
};
// Re-exported so emulator users can construct tracers without a separate
// chimera-trace dependency line.
pub use chimera_trace::{TraceEvent, Tracer, TrapKind};

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_isa::{ExtSet, XReg};
    use chimera_obj::{assemble, AsmOptions};

    fn asm(src: &str) -> chimera_obj::Binary {
        assemble(src, AsmOptions::default()).expect("assembles")
    }

    fn asm_compressed(src: &str) -> chimera_obj::Binary {
        assemble(
            src,
            AsmOptions {
                compress: true,
                ..Default::default()
            },
        )
        .expect("assembles")
    }

    fn exit_code(src: &str) -> i64 {
        let bin = asm(src);
        run_binary(&bin, 1_000_000).expect("runs").exit_code
    }

    #[test]
    fn arithmetic_loop() {
        // Sum 1..=10 = 55.
        let code = exit_code(
            "
            _start:
                li t0, 10
                li a0, 0
            loop:
                add a0, a0, t0
                addi t0, t0, -1
                bnez t0, loop
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 55);
    }

    #[test]
    fn fibonacci() {
        // fib(15) = 610, iterative.
        let code = exit_code(
            "
            _start:
                li t0, 15
                li a0, 0
                li a1, 1
            loop:
                add t1, a0, a1
                mv a0, a1
                mv a1, t1
                addi t0, t0, -1
                bnez t0, loop
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 610);
    }

    #[test]
    fn function_call_and_return() {
        let code = exit_code(
            "
            _start:
                li a0, 20
                call double_it
                call double_it
                li a7, 93
                ecall
            double_it:
                slli a0, a0, 1
                ret
            ",
        );
        assert_eq!(code, 80);
    }

    #[test]
    fn memory_and_data() {
        let code = exit_code(
            "
            .data
            vals: .dword 11
                  .dword 31
            .text
            _start:
                la t0, vals
                ld a0, 0(t0)
                ld a1, 8(t0)
                add a0, a0, a1
                sd a0, 0(t0)
                ld a0, 0(t0)
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 42);
    }

    #[test]
    fn write_syscall_collects_stdout() {
        let bin = asm("
            .data
            msg: .byte 104
                 .byte 105
            .text
            _start:
                li a7, 64
                li a0, 1
                la a1, msg
                li a2, 2
                ecall
                li a7, 93
                li a0, 0
                ecall
            ");
        let r = run_binary(&bin, 10_000).unwrap();
        assert_eq!(r.stdout, b"hi");
    }

    #[test]
    fn write_with_overflowing_length_fails_in_the_guest() {
        // `len = -1` from an address inside a region: the guest sees
        // a0 = -1 (EFAULT) and runs on to its exit, 42.
        let bin = asm("
            .data
            msg: .byte 104
                 .byte 105
            .text
            _start:
                li a7, 64
                li a0, 1
                la a1, msg
                addi a1, a1, 1
                li a2, -1
                ecall
                addi a0, a0, 43
                li a7, 93
                ecall
            ");
        let r = run_binary(&bin, 10_000).unwrap();
        assert_eq!(r.exit_code, 42);
        assert!(r.stdout.is_empty());
    }

    #[test]
    fn division_edge_cases() {
        // div by zero = -1; rem by zero = dividend.
        let code = exit_code(
            "
            _start:
                li t0, 7
                li t1, 0
                div t2, t0, t1      # -1
                rem t3, t0, t1      # 7
                add a0, t2, t3      # 6
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 6);
    }

    #[test]
    fn vector_add_e64() {
        let code = exit_code(
            "
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
                vse64.v v3, (a0)
                ld a0, 24(a0)      # last element: 4 + 40
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 44);
    }

    #[test]
    fn vector_reduction() {
        let code = exit_code(
            "
            .data
            a: .dword 5
               .dword 6
               .dword 7
               .dword 8
            .text
            _start:
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                la a0, a
                vle64.v v1, (a0)
                vmv.v.i v2, 0
                vredsum.vs v3, v1, v2
                vmv.x.s a0, v3
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 26);
    }

    #[test]
    fn vector_fp_macc() {
        // dot([1.5, 2.5], [4.0, 8.0]) = 6 + 20 = 26.
        let code = exit_code(
            "
            .data
            a: .double 1.5
               .double 2.5
            b: .double 4.0
               .double 8.0
            .text
            _start:
                li t0, 2
                vsetvli t1, t0, e64, m1, ta, ma
                la a0, a
                la a1, b
                vle64.v v1, (a0)
                vle64.v v2, (a1)
                vmv.v.i v3, 0
                vfmacc.vv v3, v1, v2
                vmv.v.i v4, 0
                vfredusum.vs v5, v3, v4
                vmv.x.s a0, v5
                fmv.d.x fa0, a0
                fcvt.l.d a0, fa0
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 26);
    }

    #[test]
    fn vector_illegal_on_base_core() {
        let bin = asm("
            _start:
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                li a7, 93
                ecall
            ");
        let err = run_binary_on(&bin, ExtSet::RV64GC, 1000).unwrap_err();
        match err {
            RunError::Trap(Trap::Illegal { pc, .. }) => {
                // li t0, 4 is a single addi: the vsetvli is at entry + 4.
                assert_eq!(pc, bin.entry + 4);
            }
            other => panic!("expected illegal trap, got {other:?}"),
        }
    }

    #[test]
    fn fetch_from_data_is_deterministic_fault() {
        // Jump into the data segment through gp: the SMILE scenario.
        let bin = asm("
            _start:
                jr gp
            ");
        let err = run_binary(&bin, 100).unwrap_err();
        match err {
            RunError::Trap(Trap::Mem { fault, .. }) => {
                assert_eq!(fault.access, Access::Fetch);
                assert!(fault.mapped);
                assert_eq!(fault.addr, bin.gp);
            }
            other => panic!("expected fetch fault, got {other:?}"),
        }
    }

    #[test]
    fn ebreak_traps_with_count() {
        let bin = asm("
            _start:
                ebreak
            ");
        let (mut cpu, mut mem) = boot(&bin, bin.profile);
        let stop = cpu.run(&mut mem, 100);
        assert!(matches!(stop, Stop::Trap(Trap::Breakpoint { .. })));
        assert_eq!(cpu.stats.ebreaks, 1);
        // pc still points at the ebreak (like hardware sepc).
        assert_eq!(cpu.hart.pc, bin.entry);
    }

    #[test]
    fn compressed_execution_and_c_gating() {
        let src = "
            _start:
                li a0, 0
                addi a0, a0, 21
                addi a0, a0, 21
                li a7, 93
                ecall
        ";
        let bin = asm_compressed(src);
        // Has 2-byte instructions.
        assert!(bin.section(".text").unwrap().data.len() < 20);
        let r = run_binary(&bin, 1000).unwrap();
        assert_eq!(r.exit_code, 42);

        // A core without the C extension rejects the first compressed
        // instruction.
        let err =
            run_binary_on(&bin, ExtSet::RV64GC.without(chimera_isa::Ext::C), 1000).unwrap_err();
        assert!(matches!(err, RunError::Trap(Trap::Illegal { .. })));
    }

    #[test]
    fn jalr_links_past_compressed_inst() {
        // c.jalr links pc+2, not pc+4.
        let bin = asm_compressed(
            "
            _start:
                la t0, target
                jalr t0          # compressed to c.jalr: link = pc + 2
                li a7, 93
                ecall
            target:
                mv a0, ra
                ret
            ",
        );
        let r = run_binary(&bin, 1000).unwrap();
        // ra must point at the instruction after the c.jalr: entry + 8 + 2.
        assert_eq!(r.exit_code as u64, bin.entry + 10);
    }

    #[test]
    fn stats_count_classes() {
        let bin = asm("
            _start:
                li t0, 3
            loop:
                addi t0, t0, -1
                bnez t0, loop
                la t1, ret_target
                jalr t1
                li a7, 93
                ecall
            ret_target:
                ret
            ");
        let r = run_binary(&bin, 1000).unwrap();
        assert_eq!(r.stats.branches, 3);
        // jalr t1 + ret = 2 indirect jumps.
        assert_eq!(r.stats.indirect_jumps, 2);
        assert!(r.stats.cycles > r.stats.instret);
    }

    #[test]
    fn zbb_ops_execute() {
        let code = exit_code(
            "
            _start:
                li t0, 0xf0
                clz t1, t0        # 56
                ctz t2, t0        # 4
                cpop t3, t0       # 4
                add a0, t1, t2
                add a0, a0, t3    # 64
                li t4, 5
                li t5, 9
                max t6, t4, t5    # 9
                add a0, a0, t6    # 73
                sh2add a0, t4, a0 # 73 + 20 = 93
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 93);
    }

    #[test]
    fn fp_scalar_pipeline() {
        let code = exit_code(
            "
            _start:
                li t0, 3
                fcvt.d.l fa0, t0
                li t1, 4
                fcvt.d.l fa1, t1
                fmul.d fa2, fa0, fa1      # 12
                fmadd.d fa3, fa0, fa1, fa2 # 24
                fcvt.l.d a0, fa3
                li a7, 93
                ecall
            ",
        );
        assert_eq!(code, 24);
    }

    #[test]
    fn out_of_fuel_reported() {
        let bin = asm("
            _start:
            spin:
                j spin
            ");
        assert!(matches!(run_binary(&bin, 1000), Err(RunError::OutOfFuel)));
    }

    #[test]
    fn gp_is_initialized_to_data_segment() {
        let bin = asm("
            _start:
                mv a0, gp
                li a7, 93
                ecall
            ");
        let r = run_binary(&bin, 100).unwrap();
        assert_eq!(r.exit_code as u64, bin.gp);
        let data = bin.section(".data").unwrap();
        assert!(data.contains(bin.gp));
        // And the final register snapshot includes gp.
        assert_eq!(r.xregs[XReg::GP.index() as usize], bin.gp);
    }
}
