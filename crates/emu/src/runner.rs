//! A bare-metal runner: loads a [`Binary`], sets up the psABI environment
//! (`sp`, `gp`), and services the minimal syscall set (`exit`, `write`)
//! directly — no simulated kernel involved.
//!
//! This is the harness unit/property tests use to execute programs in one
//! call; the full Chimera runtime (scheduling, MMViews, fault handling)
//! lives in `chimera-kernel` and drives [`Cpu`] itself.

use crate::cost::ExecStats;
use crate::cpu::{Cpu, ExecMode, Stop, Trap};
use crate::mem::Memory;
use chimera_isa::{ExtSet, XReg};
use chimera_obj::{Binary, STACK_TOP};
use chimera_trace::Tracer;

/// Syscall numbers (Linux RV64 numbers for familiarity), plus the
/// Chimera hart-control calls.
pub mod sys {
    /// `exit(code)`.
    pub const EXIT: u64 = 93;
    /// `write(fd, buf, len)`.
    pub const WRITE: u64 = 64;

    // Hart-control calls, serviced only by the many-hart event kernel
    // (`chimera_kernel::ManyHartKernel`). The bare runner reports them as
    // `BadSyscall` and the single-hart kernel runner as `Fatal`; their
    // numbers sit far outside the Linux table so they can never collide.

    /// `hartid() -> a0`: the calling hart's id.
    pub const HART_ID: u64 = 0x7a00;
    /// `wfi()`: suspend until an event (IPI, timer, wakeup) arrives; a
    /// latched pending event makes it return immediately.
    pub const WFI: u64 = 0x7a01;
    /// `ipi(target)`: send an inter-processor wakeup to hart `a0`.
    pub const IPI: u64 = 0x7a02;
    /// `set_timer(delta)`: arm a one-shot timer `a0` scheduler slots
    /// ahead of the current logical time.
    pub const SET_TIMER: u64 = 0x7a03;
}

/// The outcome of a completed bare run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// The code passed to `exit`.
    pub exit_code: i64,
    /// Bytes written to fd 1/2.
    pub stdout: Vec<u8>,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Final architectural state snapshot of the integer registers
    /// (for differential testing).
    pub xregs: [u64; 32],
}

/// Errors from a bare run: any trap other than a well-formed syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The program trapped.
    Trap(Trap),
    /// The fuel budget was exhausted before `exit`.
    OutOfFuel,
    /// An `ecall` with an unknown syscall number.
    BadSyscall {
        /// The unknown number (register `a7`).
        number: u64,
    },
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::Trap(t) => write!(f, "trap: {t}"),
            RunError::OutOfFuel => write!(f, "out of fuel"),
            RunError::BadSyscall { number } => write!(f, "bad syscall {number}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Prepares a CPU + memory pair for a binary: maps sections and the stack
/// ([`chimera_obj::DEFAULT_STACK_SIZE`] — 256 KiB, committed eagerly; use
/// [`boot_with_stack`] for deep-recursing workloads), sets pc/sp/gp.
pub fn boot(binary: &Binary, profile: ExtSet) -> (Cpu, Memory) {
    boot_with_stack(binary, profile, chimera_obj::DEFAULT_STACK_SIZE)
}

/// [`boot`] with an explicit stack size (see
/// [`Memory::load_with_stack`]); the boot `sp` is unchanged because the
/// stack always ends at [`STACK_TOP`].
pub fn boot_with_stack(binary: &Binary, profile: ExtSet, stack_size: u64) -> (Cpu, Memory) {
    let mem = Memory::load_with_stack(binary, stack_size);
    let mut cpu = Cpu::new(profile);
    cpu.hart.pc = binary.entry;
    cpu.hart.set_x(XReg::SP, STACK_TOP - 64);
    cpu.hart.set_x(XReg::GP, binary.gp);
    (cpu, mem)
}

/// Runs a binary to `exit` on a core whose profile matches the binary's,
/// with a fuel budget.
pub fn run_binary(binary: &Binary, fuel: u64) -> Result<RunResult, RunError> {
    run_binary_on(binary, binary.profile, fuel)
}

/// Runs a binary to `exit` on a core with an explicit profile (which may
/// lack extensions the binary uses — then the run errs with an illegal
/// instruction trap, as FAM would).
pub fn run_binary_on(binary: &Binary, profile: ExtSet, fuel: u64) -> Result<RunResult, RunError> {
    run_binary_mode(binary, profile, fuel, ExecMode::Engine)
}

/// Like [`run_binary_on`], with an explicit execution front end (see
/// [`ExecMode`]). All modes are bit-identical in results; they differ only
/// in wall-clock speed.
pub fn run_binary_mode(
    binary: &Binary,
    profile: ExtSet,
    fuel: u64,
    mode: ExecMode,
) -> Result<RunResult, RunError> {
    run_binary_traced(binary, profile, fuel, mode, &Tracer::disabled())
}

/// Like [`run_binary_mode`], with a [`Tracer`] handle attached to the CPU.
///
/// Tracing is transparent: results (exit code, stdout, stats, registers)
/// are bit-identical to the untraced run — the differential suite
/// asserts it.
pub fn run_binary_traced(
    binary: &Binary,
    profile: ExtSet,
    fuel: u64,
    mode: ExecMode,
    tracer: &Tracer,
) -> Result<RunResult, RunError> {
    let (mut cpu, mut mem) = boot(binary, profile);
    cpu.set_mode(mode);
    cpu.tracer = tracer.clone();
    run_cpu(&mut cpu, &mut mem, fuel)
}

/// Drives a prepared CPU until `exit`, servicing `write` syscalls.
pub fn run_cpu(cpu: &mut Cpu, mem: &mut Memory, fuel: u64) -> Result<RunResult, RunError> {
    let mut run = BareRun::new();
    match run.resume(cpu, mem, fuel) {
        BareYield::Exited(result) => Ok(*result),
        BareYield::SliceExhausted => Err(RunError::OutOfFuel),
        BareYield::Failed(err) => Err(err),
    }
}

/// Why [`BareRun::resume`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BareYield {
    /// The program called `exit`; the run is complete. Boxed: the result
    /// carries the full register file, and the common yield is the slim
    /// `SliceExhausted`.
    Exited(Box<RunResult>),
    /// The fuel slice was exhausted mid-program. The run is suspended at
    /// an instruction boundary with all batched counters drained; resume
    /// with more fuel — from any host thread — to continue bit-identically.
    SliceExhausted,
    /// The run failed (non-syscall trap or unknown syscall number). The
    /// state is final; resuming again is a caller bug.
    Failed(RunError),
}

/// Resumable bare-run state: the syscall-servicing loop of [`run_cpu`]
/// with the fuel budget split into caller-sized slices.
///
/// The CPU and memory are passed to each [`BareRun::resume`] call rather
/// than owned, so a fiber scheduler can interleave many harts' slices and
/// hand the triple `(BareRun, Cpu, Memory)` to whichever host worker picks
/// the hart up next. Slicing is transparent: any slicing of a run — down
/// to one instruction per slice, across host threads — observes exactly
/// like one unsliced `run_cpu` call (the differential suite's yield-point
/// transparency test asserts this for all four execution modes).
#[derive(Debug, Clone, Default)]
pub struct BareRun {
    stdout: Vec<u8>,
}

impl BareRun {
    /// A fresh run with no output yet.
    pub fn new() -> BareRun {
        BareRun::default()
    }

    /// Bytes written to fd 1/2 so far.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Executes up to `fuel` further instructions, servicing `write`
    /// syscalls, until `exit`, slice exhaustion, or failure.
    pub fn resume(&mut self, cpu: &mut Cpu, mem: &mut Memory, fuel: u64) -> BareYield {
        let start = cpu.stats.instret;
        loop {
            let used = cpu.stats.instret - start;
            if used >= fuel {
                return BareYield::SliceExhausted;
            }
            match cpu.run(mem, fuel - used) {
                Stop::OutOfFuel => return BareYield::SliceExhausted,
                Stop::Trap(Trap::Ecall { pc }) => {
                    let number = cpu.hart.get_x(XReg::A7);
                    match number {
                        sys::EXIT => {
                            return BareYield::Exited(Box::new(RunResult {
                                exit_code: cpu.hart.get_x(XReg::A0) as i64,
                                stdout: std::mem::take(&mut self.stdout),
                                stats: cpu.stats,
                                xregs: cpu.hart.xregs(),
                            }));
                        }
                        sys::WRITE => {
                            let buf = cpu.hart.get_x(XReg::A1);
                            let len = cpu.hart.get_x(XReg::A2) as usize;
                            if let Some(bytes) = mem.peek(buf, len) {
                                self.stdout.extend_from_slice(&bytes);
                                cpu.hart.set_x(XReg::A0, len as u64);
                            } else {
                                cpu.hart.set_x(XReg::A0, u64::MAX); // -EFAULT-ish
                            }
                            cpu.hart.pc = pc + 4;
                        }
                        _ => return BareYield::Failed(RunError::BadSyscall { number }),
                    }
                }
                Stop::Trap(t) => return BareYield::Failed(RunError::Trap(t)),
            }
        }
    }
}
