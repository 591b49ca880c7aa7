//! The §6.1 heterogeneous workload: matrix tasks (vector-accelerable) and
//! Fibonacci tasks (pure scalar), each in a *base* (RV64GC) and an
//! *extension* (RV64GCV) version — the two input versions the paper feeds
//! to every system to evaluate downgrading and upgrading.
//!
//! The scalar matrix kernels are written in the canonical counted-loop
//! shape so the upgrade vectorizer (`chimera-rewrite::upgrade`) can prove
//! and batch them — the same contract a compiler's auto-vectorizable output
//! satisfies.

use chimera_obj::{assemble, AsmOptions, Binary};
use std::fmt::Write;

/// A matrix "extension task": dot products over an `n`-element i64 array
/// repeated `reps` times, accumulated into a checksum, plus a scalar
/// mixing phase per repetition (identical in both versions).
///
/// The scalar phase models the non-vectorizable part every real extension
/// task has (setup, bookkeeping, pointer chasing — here a chain of calls
/// through an ifunc-style pointer, which also gives Safer's per-jump
/// checks realistic work); its size was calibrated so that, under the
/// default cost model, a *downgraded* run on a base core cost about 2.5×
/// an accelerated run on an extension core, as close to the paper's 2:1
/// §6.1 ratio as the translation then allowed. Better downgrade templates
/// have since brought it to 1.67× (EXPERIMENTS.md, Fig. 11's deviation),
/// between the scalar build (1.17×) and that calibration.
pub fn matrix_task(n: usize, reps: usize, vectorized: bool) -> Binary {
    matrix_task_mixed(n, reps, (n * 13) / 10, vectorized)
}

/// [`matrix_task`] with an explicit scalar-phase iteration count.
pub fn matrix_task_mixed(n: usize, reps: usize, scalar_iters: usize, vectorized: bool) -> Binary {
    let mut data = String::new();
    writeln!(data, "        .data").unwrap();
    writeln!(data, "        va:").unwrap();
    for i in 0..n {
        writeln!(data, "            .dword {}", (i * 3 + 1) % 97).unwrap();
    }
    writeln!(data, "        vb:").unwrap();
    for i in 0..n {
        writeln!(data, "            .dword {}", (i * 7 + 2) % 89).unwrap();
    }
    writeln!(data, "        mixtab: .dword mix_step").unwrap();

    let body = if vectorized {
        format!(
            "
        _start:
            li s2, {reps}
            li s3, 0              # checksum
        outer:
            la t0, va
            la t1, vb
            li t2, {n}
            li s4, 0              # dot accumulator
            vsetvli t3, t2, e64, m1, ta, ma
            vmv.v.i v8, 0
        vloop:
            vsetvli t3, t2, e64, m1, ta, ma
            vle64.v v1, (t0)
            vle64.v v2, (t1)
            vmacc.vv v8, v1, v2
            sub t2, t2, t3
            slli t3, t3, 3
            add t0, t0, t3
            add t1, t1, t3
            bnez t2, vloop
            li t4, {n}
            vsetvli t3, t4, e64, m1, ta, ma
            vmv.v.i v4, 0
            vredsum.vs v5, v8, v4
            vmv.x.s t4, v5
            add s4, s4, t4
            add s3, s3, s4
            li t5, {scalar_iters}
        mix:
            beqz t5, mix_done
            la t6, mixtab
            ld t6, 0(t6)
            mv a0, s3
            jalr t6              # indirect dispatch (ifunc-style)
            mv s3, a0
            addi t5, t5, -1
            j mix
        mix_done:
            addi s2, s2, -1
            bnez s2, outer
            mv a0, s3
            li a7, 93
            ecall
        mix_step:
            slli t6, a0, 13
            xor a0, a0, t6
            srli t6, a0, 7
            xor a0, a0, t6
            slli t6, a0, 17
            xor a0, a0, t6
            slli t6, a0, 11
            xor a0, a0, t6
            srli t6, a0, 19
            xor a0, a0, t6
            slli t6, a0, 5
            xor a0, a0, t6
            srli t6, a0, 23
            xor a0, a0, t6
            slli t6, a0, 3
            xor a0, a0, t6
            ret
            "
        )
    } else {
        // Canonical scalar dot loop (upgrade-recognizable).
        format!(
            "
        _start:
            li s2, {reps}
            li s3, 0
        outer:
            la t0, va
            la t1, vb
            li t2, {n}
            li s4, 0
        loop:
            ld a1, 0(t0)
            ld a2, 0(t1)
            mul a3, a1, a2
            add s4, s4, a3
            addi t0, t0, 8
            addi t1, t1, 8
            addi t2, t2, -1
            bnez t2, loop
            add s3, s3, s4
            li t5, {scalar_iters}
        mix:
            beqz t5, mix_done
            la t6, mixtab
            ld t6, 0(t6)
            mv a0, s3
            jalr t6              # indirect dispatch (ifunc-style)
            mv s3, a0
            addi t5, t5, -1
            j mix
        mix_done:
            addi s2, s2, -1
            bnez s2, outer
            mv a0, s3
            li a7, 93
            ecall
        mix_step:
            slli t6, a0, 13
            xor a0, a0, t6
            srli t6, a0, 7
            xor a0, a0, t6
            slli t6, a0, 17
            xor a0, a0, t6
            slli t6, a0, 11
            xor a0, a0, t6
            srli t6, a0, 19
            xor a0, a0, t6
            slli t6, a0, 5
            xor a0, a0, t6
            srli t6, a0, 23
            xor a0, a0, t6
            slli t6, a0, 3
            xor a0, a0, t6
            ret
            "
        )
    };
    let profile = if vectorized {
        chimera_isa::ExtSet::RV64GCV
    } else {
        chimera_isa::ExtSet::RV64GC
    };
    assemble(
        &format!("{data}\n        .text\n{body}"),
        AsmOptions {
            compress: true,
            profile,
        },
    )
    .expect("matrix task assembles")
}

/// A Fibonacci "base task": iterative fib mod 2^64, repeated. Identical in
/// both versions (it cannot be vector-accelerated).
pub fn fib_task(n: u64, reps: usize) -> Binary {
    let src = format!(
        "
        _start:
            li s2, {reps}
            li s3, 0
        outer:
            li t0, {n}
            li a0, 0
            li a1, 1
        loop:
            add t1, a0, a1
            mv a0, a1
            mv a1, t1
            addi t0, t0, -1
            bnez t0, loop
            add s3, s3, a0
            addi s2, s2, -1
            bnez s2, outer
            mv a0, s3
            li a7, 93
            ecall
        "
    );
    assemble(
        &src,
        AsmOptions {
            compress: true,
            profile: chimera_isa::ExtSet::RV64GC,
        },
    )
    .expect("fib task assembles")
}

/// A communicator task for the many-hart event kernel: the hart reads its
/// id (`sys::HART_ID`), derives a peer id (`id ^ peer_mask`), and runs
/// `rounds` of the symmetric send-then-wait idiom — `ipi(peer); wfi()` —
/// with a little scalar work per round, finishing with a one-shot timer
/// (`set_timer(3); wfi()`). It exits with `id * 1000 + checksum mod 997`,
/// so per-hart results differ and a cross-hart mixup is visible in the
/// exit code, not just the checksum.
///
/// Both harts of a pair must run this task (with the same `peer_mask`) or
/// the pair deadlocks in `wfi` — which the kernel detects and reports
/// rather than hanging. The pending-wake latch makes the symmetric idiom
/// delivery-order-safe: whichever IPI lands first, neither hart can miss
/// its wakeup.
pub fn communicator_task(rounds: usize, peer_mask: u64) -> Binary {
    let src = format!(
        "
        _start:
            li a7, 0x7a00        # sys::HART_ID
            ecall
            mv s0, a0            # s0 = own hart id
            xori s1, s0, {peer_mask}
            li s2, {rounds}
            mv s3, s0            # checksum
        round:
            # A little per-round scalar work keyed on the hart id.
            slli t0, s3, 3
            add s3, s3, t0
            addi s3, s3, 1
            li a7, 0x7a02        # sys::IPI
            mv a0, s1
            ecall
            li a7, 0x7a01        # sys::WFI
            ecall
            addi s2, s2, -1
            bnez s2, round
            li a7, 0x7a03        # sys::SET_TIMER
            li a0, 3
            ecall
            li a7, 0x7a01        # sys::WFI (woken by own timer)
            ecall
            li t0, 997
            remu s3, s3, t0
            li t0, 1000
            mul a0, s0, t0
            add a0, a0, s3
            li a7, 93
            ecall
        "
    );
    assemble(
        &src,
        AsmOptions {
            compress: true,
            profile: chimera_isa::ExtSet::RV64GC,
        },
    )
    .expect("communicator task assembles")
}

/// The standard §6.1 task-pair sizes: tuned so that, under the default cost
/// model, computation times are roughly in the paper's 2:2:2:1 ratio for
/// (base task on base core) : (base task on ext core) :
/// (ext task on base core) : (ext task on ext core).
pub fn standard_tasks() -> StandardTasks {
    StandardTasks {
        matrix_ext: matrix_task(64, 24, true),
        matrix_base: matrix_task(64, 24, false),
        fib_base: fib_task(1500, 8),
    }
}

/// The standard task binaries.
#[derive(Debug, Clone)]
pub struct StandardTasks {
    /// Matrix task, RVV version.
    pub matrix_ext: Binary,
    /// Matrix task, scalar version (canonical loops).
    pub matrix_base: Binary,
    /// Fibonacci task (scalar only).
    pub fib_base: Binary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_emu::run_binary;

    #[test]
    fn matrix_versions_agree() {
        let v = matrix_task(16, 2, true);
        let s = matrix_task(16, 2, false);
        let rv = run_binary(&v, 10_000_000).unwrap();
        let rs = run_binary(&s, 10_000_000).unwrap();
        assert_eq!(rv.exit_code, rs.exit_code);
        assert!(rv.stats.vector_insts > 0);
        assert_eq!(rs.stats.vector_insts, 0);
        // The vector version is meaningfully faster.
        assert!(rv.stats.cycles < rs.stats.cycles);
    }

    #[test]
    fn communicator_needs_the_event_kernel() {
        // Bare runs (no event scheduler) must reject the first
        // hart-control call, not misexecute it. The end-to-end behaviour
        // lives in the many-hart tests (`tests/many_hart.rs`).
        let c = communicator_task(3, 1);
        match run_binary(&c, 100_000) {
            Err(chimera_emu::RunError::BadSyscall { number }) => {
                assert_eq!(number, chimera_emu::sys::HART_ID);
            }
            other => panic!("expected BadSyscall, got {other:?}"),
        }
    }

    #[test]
    fn fib_runs() {
        let f = fib_task(90, 2);
        let r = run_binary(&f, 1_000_000).unwrap();
        assert!(r.exit_code != 0);
    }

    #[test]
    fn scalar_matrix_is_upgradeable() {
        let s = matrix_task(32, 2, false);
        let rw = chimera_rewrite::upgrade_rewrite(&s, chimera_rewrite::RewriteOptions::default())
            .unwrap();
        assert!(rw.stats.smile_trampolines >= 1, "the dot loop vectorizes");
        let native = run_binary(&s, 10_000_000).unwrap();
        let up = chimera_emu::run_binary_on(&rw.binary, chimera_isa::ExtSet::RV64GCV, 10_000_000)
            .unwrap();
        assert_eq!(native.exit_code, up.exit_code);
        assert!(up.stats.cycles < native.stats.cycles, "upgrade accelerates");
    }

    #[test]
    fn ext_task_downgrade_cost_ratio_is_sane() {
        // Paper §6.1 calls the ext task on a base core about 2x the ext task
        // on an ext core. Ours sits between the task's compiled scalar build
        // (MELF's, which the downgrade approaches as the templates improve)
        // and 3.5x the vector build: beating compiled scalar code would mean
        // a broken template or cost model (EXPERIMENTS.md, Fig. 11).
        let v = matrix_task(64, 4, true);
        let native = run_binary(&v, 50_000_000).unwrap();
        let scalar = matrix_task(64, 4, false);
        let scalar =
            chimera_emu::run_binary_on(&scalar, chimera_isa::ExtSet::RV64GC, 50_000_000).unwrap();
        let rw = chimera_rewrite::chbp_rewrite(
            &v,
            chimera_isa::ExtSet::RV64GC,
            chimera_rewrite::RewriteOptions::default(),
        )
        .unwrap();
        let down = chimera_emu::run_binary_on(&rw.binary, chimera_isa::ExtSet::RV64GC, 50_000_000)
            .unwrap();
        assert_eq!(native.exit_code, down.exit_code);
        assert_eq!(scalar.exit_code, down.exit_code);
        let (down, native, scalar) = (down.stats.cycles, native.stats.cycles, scalar.stats.cycles);
        assert!(
            scalar <= down && down as f64 <= 3.5 * native as f64,
            "downgraded {down} cycles should lie between the scalar build's {scalar} \
             and 3.5x the vector build's {native} (see EXPERIMENTS.md)"
        );
    }
}
