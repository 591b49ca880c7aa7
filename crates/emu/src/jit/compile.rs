//! Per-uop x86-64 template emission.
//!
//! One lowered block body compiles to one *trace*: a position-independent
//! byte string with two entry points and a shared-epilogue exit protocol.
//!
//! ```text
//! +0      external entry   push r12/r13/r14/rbx/rbp/r15; r12=ctx,
//!                          r14=trace id, r13=ctx.xregs, rbx=ctx.fuel,
//!                          rbp=0 (cycle delta), r15=0 (chained-pass
//!                          delta); jmp body
//! chain   chain entry      stamp check (stamps[r14] == ctx.cur_gen?),
//!                          fuel check (rbx >= ops_len?), r15 += 1;
//!                          fall into body
//! body                     one template per uop (helper call-outs
//!                          publish r14 to ctx.cur_trace first)
//! exits                    const delta flush + a patchable 24-byte slot
//!                          holding the pc commit (Fall/Taken — patching
//!                          overwrites it, the successor re-commits), or
//!                          a pc commit + IBT probe (Indirect)
//! stubs                    revalidate/budget exits for the chain entry,
//!                          the epilogue thunk for helper-call exits
//! cold                     slow-path memory call-outs jumped to from
//!                          the in-body fast-path range checks
//! ```
//!
//! Templates mirror `Cpu::exec_lowered` *accounting* exactly, batched as
//! compile-time constants: cycle costs and load/store tallies accumulate
//! in the `JitCtx` delta fields only at observable boundaries (helper
//! calls and block exits). Retired counts have no delta field at all:
//! the templates decrement `fuel` by the same constant the engine would
//! retire, and the runtime credits `instret` from the fuel consumed
//! since the last drain. A helper call-out flushes the deltas
//! for every *prior* op (trap state must be exact), then reverses the
//! flush on success so the op is instead covered by the next boundary's
//! constants — the [`MicroOp::Generic`] call-out is the one exception:
//! its helper drains the deltas into `ExecStats` for real (matching the
//! engine's `flush!()` before `Cpu::exec`) and the compile-time baseline
//! resets behind it.
//!
//! Everything here is pure data manipulation; no emitted byte is
//! executed in this module.

use super::asm::{Alu, Asm, Cc, Label, R12, R13, R14, R15, RAX, RBP, RBX, RCX, RDI, RDX, RSI};
use super::off;
use crate::uop::{MicroOp, Uop};
use chimera_isa::{BranchKind, FpWidth, LoadKind, OpImmKind, OpKind, XReg};

/// Trace exit statuses (returned in `rax` through the shared epilogue).
pub(super) const ST_FALL: u32 = 0;
/// Taken direct edge (`jal`, taken branch).
pub(super) const ST_TAKEN: u32 = 1;
/// Indirect jump (`jalr`); target already committed to `ctx.pc`.
pub(super) const ST_INDIRECT: u32 = 2;
/// Mid-trace bail (store invalidated this trace's own region).
pub(super) const ST_BAIL: u32 = 3;
/// The fuel check at a chain entry failed.
pub(super) const ST_BUDGET: u32 = 4;
/// A helper call-out trapped; `ctx.trap` holds it.
pub(super) const ST_TRAP: u32 = 5;
/// The stamp check at a chain entry failed; `ctx.exit_from` names the
/// trace that needs revalidation.
pub(super) const ST_REVAL: u32 = 6;

/// Byte length of a patchable exit slot (unpatched and patched forms are
/// both padded to this). The unpatched form carries the successor-pc
/// commit, so a patched (in-arena) edge skips the store entirely.
pub(super) const EXIT_SLOT_LEN: usize = 24;

/// A patchable exit: where its slot sits in the trace and the guest pc
/// the edge leads to.
#[derive(Debug, Clone, Copy)]
pub(super) struct ExitSlot {
    /// Slot offset inside the trace's code.
    pub off: usize,
    /// Successor guest pc.
    pub target: u64,
}

/// One compiled trace, ready to be copied into the arena.
#[derive(Debug)]
pub(super) struct CompiledTrace {
    /// The position-independent code (external entry at offset 0).
    pub code: Vec<u8>,
    /// Offset of the chain entry (patched direct jumps land here).
    pub chain: usize,
    /// Offset of the indirect entry (`mov r14d, imm32` falling into the
    /// chain entry); the imm32 placeholder at `ind + 2` is stamped with
    /// the trace index at install time, and IBT hits jump here.
    pub ind: usize,
    /// Patchable exits: `[fall, taken]`.
    pub exits: [Option<ExitSlot>; 2],
}

/// The shared epilogue, emitted once at arena offset 0 and reached from
/// every trace via `jmp qword [r12 + EPILOGUE]`: records which trace
/// exited, syncs the register-carried fuel and cycle delta back into the
/// context, restores the callee-saved registers and returns the status
/// already in `rax`.
pub(super) fn epilogue_code() -> Vec<u8> {
    let mut a = Asm::new();
    a.mov_mr(R12, off::EXIT_FROM, R14);
    a.mov_mr(R12, off::FUEL, RBX);
    a.alu_mr(Alu::Add, R12, off::D_CYCLES, RBP);
    a.alu_mr(Alu::Add, R12, off::D_JITTED, R15);
    // The rcx pop discards the prologue's alignment slot.
    a.pop(RCX);
    a.pop(R15);
    a.pop(RBP);
    a.pop(RBX);
    a.pop(R14);
    a.pop(R13);
    a.pop(R12);
    a.ret();
    a.finish()
}

/// The patched form of an exit slot: `mov r14d, succ; jmp rel32` to the
/// successor's chain entry, padded with `int3` to [`EXIT_SLOT_LEN`].
/// `rel` is relative to the byte after the `jmp` (slot offset + 11).
pub(super) fn patched_exit_bytes(succ: u32, rel: i32) -> [u8; EXIT_SLOT_LEN] {
    let mut b = [0xcc_u8; EXIT_SLOT_LEN];
    b[0] = 0x41;
    b[1] = 0xbe;
    b[2..6].copy_from_slice(&succ.to_le_bytes());
    b[6] = 0xe9;
    b[7..11].copy_from_slice(&rel.to_le_bytes());
    b
}

/// Offset, within a patchable slot, of the byte after its `jmp rel32`
/// (the base the displacement is relative to).
pub(super) const EXIT_PATCH_JMP_END: usize = 11;

/// Compile-time accounting since the last flushed boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    instret: u32,
    cycles: u64,
    loads: u32,
    stores: u32,
}

/// A recorded slow-path call-out, emitted after the body so the hot path
/// stays straight-line. At the jump the faulting-candidate address is in
/// `rax`.
#[derive(Debug)]
struct ColdSite {
    cold: Label,
    rejoin: Label,
    helper: i32,
    op_idx: u32,
    pc: u64,
    acc: Acc,
}

fn xoff(r: XReg) -> i32 {
    r.index() as i32 * 8
}

fn branch_cc(kind: BranchKind) -> Cc {
    match kind {
        BranchKind::Beq => Cc::E,
        BranchKind::Bne => Cc::Ne,
        BranchKind::Blt => Cc::L,
        BranchKind::Bge => Cc::Ge,
        BranchKind::Bltu => Cc::B,
        BranchKind::Bgeu => Cc::Ae,
    }
}

fn width_log2(bytes: u8) -> i32 {
    match bytes {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => unreachable!("bad access width"),
    }
}

fn load_width(kind: LoadKind) -> (u8, bool) {
    match kind {
        LoadKind::Lb => (1, true),
        LoadKind::Lbu => (1, false),
        LoadKind::Lh => (2, true),
        LoadKind::Lhu => (2, false),
        LoadKind::Lw => (4, true),
        LoadKind::Lwu => (4, false),
        LoadKind::Ld => (8, false),
    }
}

/// Adds (or with `neg`, subtracts) the accumulated constants to the
/// context delta fields. The fuel decrement *is* the retired-count
/// record: drains credit `instret` from consumed fuel.
fn emit_deltas(a: &mut Asm, acc: Acc, neg: bool) {
    let op = if neg { Alu::Sub } else { Alu::Add };
    let unop = if neg { Alu::Add } else { Alu::Sub };
    let cycles = i32::try_from(acc.cycles).expect("block cycle constant overflow");
    if acc.instret > 0 {
        a.alu_ri(unop, RBX, acc.instret as i32);
    }
    if acc.cycles > 0 {
        a.alu_ri(op, RBP, cycles);
    }
    if acc.loads > 0 {
        a.alu_mi(op, R12, off::D_LOADS, acc.loads as i32);
    }
    if acc.stores > 0 {
        a.alu_mi(op, R12, off::D_STORES, acc.stores as i32);
    }
}

/// Commits a compile-time-constant guest pc to `ctx.pc`.
fn emit_set_pc(a: &mut Asm, pc: u64) {
    if i32::try_from(pc as i64).is_ok() {
        a.mov_mi(R12, off::PC, pc as i32);
    } else {
        a.mov_ri(RCX, pc);
        a.mov_mr(R12, off::PC, RCX);
    }
}

/// Writes a compile-time constant into guest register `rd` (skipped for
/// the zero register by every caller).
fn emit_set_x_const(a: &mut Asm, rd: XReg, v: u64) {
    if i32::try_from(v as i64).is_ok() {
        a.mov_mi(R13, xoff(rd), v as i32);
    } else {
        a.mov_ri(RAX, v);
        a.mov_mr(R13, xoff(rd), RAX);
    }
}

struct Compiler {
    a: Asm,
    epi_thunk: Label,
    cold: Vec<ColdSite>,
    /// Patchable slot positions discovered while emitting (offsets fixed,
    /// no label involvement).
    exits: [Option<ExitSlot>; 2],
}

impl Compiler {
    /// Emits a block exit: flush the deltas (including the terminal op),
    /// then the patchable exit slot. The successor-pc commit sits inside
    /// the slot when the pc fits an imm32 (patching then elides it — the
    /// successor trace commits its own exits), and before the slot
    /// otherwise.
    fn emit_exit(&mut self, acc: Acc, status: u32, target: u64, branch: bool) {
        emit_deltas(&mut self.a, acc, false);
        if branch {
            self.a.alu_mi(Alu::Add, R12, off::D_BRANCHES, 1);
        }
        let fits = i32::try_from(target as i64).is_ok();
        if !fits {
            emit_set_pc(&mut self.a, target);
        }
        let slot = self.a.len();
        if fits {
            self.a.mov_mi(R12, off::PC, target as i32);
        }
        self.a.mov_ri(RAX, status as u64);
        self.a.jmp_m(R12, off::EPILOGUE);
        while self.a.len() - slot < EXIT_SLOT_LEN {
            self.a.int3();
        }
        assert_eq!(self.a.len() - slot, EXIT_SLOT_LEN, "exit slot layout");
        let idx = if status == ST_TAKEN { 1 } else { 0 };
        assert!(self.exits[idx].is_none(), "duplicate exit edge");
        self.exits[idx] = Some(ExitSlot { off: slot, target });
    }

    /// Emits an indirect-jump exit: flush, commit the target (in `rax`)
    /// to `ctx.pc`, then probe the indirect-branch target table. A hit
    /// jumps straight to the successor trace's indirect entry — whose
    /// chain-entry stamp and fuel checks still run, so the table is a
    /// pure optimization — and a miss exits `ST_INDIRECT` through the
    /// epilogue for the Rust dispatcher.
    fn emit_exit_ibt(&mut self, acc: Acc) {
        emit_deltas(&mut self.a, acc, false);
        self.a.alu_mi(Alu::Add, R12, off::D_INDIRECT, 1);
        self.a.mov_mr(R12, off::PC, RAX);
        let miss = self.a.label();
        self.a.mov_rr(RCX, RAX);
        self.a.shr_ri(RCX, 1);
        self.a.alu_ri(Alu::And, RCX, (super::IBT_LEN - 1) as i32);
        self.a.mov_rm(RDX, R12, off::IBT_KEYS);
        self.a.alu_rm_s8(Alu::Cmp, RAX, RDX, RCX);
        self.a.jcc(Cc::Ne, miss);
        self.a.mov_rm(RDX, R12, off::IBT_VALS);
        self.a.mov_rm_s8(RDX, RDX, RCX);
        self.a.jmp_r(RDX);
        self.a.bind(miss);
        self.a.mov_ri(RAX, ST_INDIRECT as u64);
        self.a.jmp_m(R12, off::EPILOGUE);
    }

    /// Emits the flush + call + status-check + unflush sequence shared by
    /// every faultable helper call-out. The address argument must already
    /// be in `rsi`; on success the helper has done the access (and any
    /// register write) itself. `cur_trace` is published here — helpers
    /// are the only readers, so the hot body skips the store.
    fn emit_faultable_call(&mut self, helper: i32, op_idx: u32, pc: u64, acc: Acc) {
        self.a.mov_mr(R12, off::CUR_TRACE, R14);
        emit_deltas(&mut self.a, acc, false);
        emit_set_pc(&mut self.a, pc);
        // Store helpers mutate `ctx.fuel` (the mid-trace bail accounts
        // its own op) and may drain, so the register-carried counters
        // spill before and reload after; the other helpers never touch
        // them.
        let touches_fuel = helper == off::H_STORE || helper == off::H_FSTORE;
        if touches_fuel {
            self.a.mov_mr(R12, off::FUEL, RBX);
            self.a.alu_mr(Alu::Add, R12, off::D_CYCLES, RBP);
            self.a.alu_rr(Alu::Xor, RBP, RBP);
        }
        self.a.mov_rr(RDI, R12);
        self.a.mov_ri(RDX, op_idx as u64);
        self.a.call_m(R12, helper);
        if touches_fuel {
            self.a.mov_rm(RBX, R12, off::FUEL);
        }
        self.a.test_rr(RAX, RAX);
        self.a.jcc(Cc::Ne, self.epi_thunk);
        emit_deltas(&mut self.a, acc, true);
    }

    /// Emits the in-body fast path of a scalar load/store: compute the
    /// address in `rax`, range-check against the installed region mirror
    /// and jump to a cold call-out on a miss.
    fn emit_mem_fast(&mut self, u: &Uop, op_idx: u32, pc: u64, acc: Acc) {
        let (rs1, offset, store) = match u.op {
            MicroOp::Load { rs1, offset, .. } => (rs1, offset, false),
            MicroOp::Store { rs1, offset, .. } => (rs1, offset, true),
            _ => unreachable!("not a scalar memory op"),
        };
        let (bytes, helper, base_off, start_off, lim_off) = match u.op {
            MicroOp::Load { kind, .. } => (
                load_width(kind).0,
                off::H_LOAD,
                off::LD_BASE,
                off::LD_START,
                off::LD_LIM,
            ),
            MicroOp::Store { kind, .. } => (
                kind.size() as u8,
                off::H_STORE,
                off::ST_BASE,
                off::ST_START,
                off::ST_LIM,
            ),
            _ => unreachable!(),
        };
        let cold = self.a.label();
        let rejoin = self.a.label();
        self.a.mov_rm(RAX, R13, xoff(rs1));
        if offset != 0 {
            self.a.alu_ri(Alu::Add, RAX, offset);
        }
        self.a.mov_rr(RDX, RAX);
        self.a.alu_rm(Alu::Sub, RDX, R12, start_off);
        self.a
            .alu_rm(Alu::Cmp, RDX, R12, lim_off + 8 * width_log2(bytes));
        self.a.jcc(Cc::Ae, cold);
        self.a.mov_rm(RCX, R12, base_off);
        if store {
            let MicroOp::Store { rs2, .. } = u.op else {
                unreachable!()
            };
            self.a.mov_rm(RSI, R13, xoff(rs2));
            self.a.store_idx(RCX, RDX, RSI, bytes);
        } else {
            let MicroOp::Load { kind, rd, .. } = u.op else {
                unreachable!()
            };
            let (bytes, signed) = load_width(kind);
            if signed {
                self.a.load_sx(RAX, RCX, RDX, bytes);
            } else {
                self.a.load_zx(RAX, RCX, RDX, bytes);
            }
            if rd != XReg::ZERO {
                self.a.mov_mr(R13, xoff(rd), RAX);
            }
        }
        self.a.bind(rejoin);
        self.cold.push(ColdSite {
            cold,
            rejoin,
            helper,
            op_idx,
            pc,
            acc,
        });
    }

    /// Emits the in-body fast path of an FP load/store against the same
    /// region mirrors as the scalar ops: NaN-box single loads exactly as
    /// `jit_fload` does, and store raw FP bits through the writable
    /// non-executable store mirror (so SMC bookkeeping is never
    /// bypassed). Mirror misses jump to the FP helper call-outs.
    fn emit_fmem_fast(&mut self, u: &Uop, op_idx: u32, pc: u64, acc: Acc) {
        let cold = self.a.label();
        let rejoin = self.a.label();
        match u.op {
            MicroOp::FLoad {
                width,
                frd,
                rs1,
                offset,
            } => {
                let bytes: u8 = if width == FpWidth::S { 4 } else { 8 };
                self.a.mov_rm(RAX, R13, xoff(rs1));
                if offset != 0 {
                    self.a.alu_ri(Alu::Add, RAX, offset);
                }
                self.a.mov_rr(RDX, RAX);
                self.a.alu_rm(Alu::Sub, RDX, R12, off::LD_START);
                self.a
                    .alu_rm(Alu::Cmp, RDX, R12, off::LD_LIM + 8 * width_log2(bytes));
                self.a.jcc(Cc::Ae, cold);
                self.a.mov_rm(RCX, R12, off::LD_BASE);
                self.a.load_zx(RAX, RCX, RDX, bytes);
                if width == FpWidth::S {
                    self.a.mov_ri(RCX, 0xffff_ffff_0000_0000);
                    self.a.alu_rr(Alu::Or, RAX, RCX);
                }
                self.a.mov_rm(RCX, R12, off::FREGS);
                self.a.mov_mr(RCX, frd.index() as i32 * 8, RAX);
                self.cold.push(ColdSite {
                    cold,
                    rejoin,
                    helper: off::H_FLOAD,
                    op_idx,
                    pc,
                    acc,
                });
            }
            MicroOp::FStore {
                width,
                frs2,
                rs1,
                offset,
            } => {
                let bytes: u8 = if width == FpWidth::S { 4 } else { 8 };
                self.a.mov_rm(RAX, R13, xoff(rs1));
                if offset != 0 {
                    self.a.alu_ri(Alu::Add, RAX, offset);
                }
                self.a.mov_rr(RDX, RAX);
                self.a.alu_rm(Alu::Sub, RDX, R12, off::ST_START);
                self.a
                    .alu_rm(Alu::Cmp, RDX, R12, off::ST_LIM + 8 * width_log2(bytes));
                self.a.jcc(Cc::Ae, cold);
                self.a.mov_rm(RCX, R12, off::FREGS);
                self.a.mov_rm(RSI, RCX, frs2.index() as i32 * 8);
                self.a.mov_rm(RCX, R12, off::ST_BASE);
                self.a.store_idx(RCX, RDX, RSI, bytes);
                self.cold.push(ColdSite {
                    cold,
                    rejoin,
                    helper: off::H_FSTORE,
                    op_idx,
                    pc,
                    acc,
                });
            }
            _ => unreachable!("not an fp memory op"),
        }
        self.a.bind(rejoin);
    }

    /// Emits one register-immediate ALU template (`rd` is never the zero
    /// register here). Returns false if the kind needs the helper.
    fn emit_opimm(&mut self, kind: OpImmKind, rd: XReg, rs1: XReg, imm: i32) -> bool {
        let a = &mut self.a;
        match kind {
            OpImmKind::Addi | OpImmKind::Xori | OpImmKind::Ori | OpImmKind::Andi => {
                let op = match kind {
                    OpImmKind::Addi => Alu::Add,
                    OpImmKind::Xori => Alu::Xor,
                    OpImmKind::Ori => Alu::Or,
                    _ => Alu::And,
                };
                a.mov_rm(RAX, R13, xoff(rs1));
                a.alu_ri(op, RAX, imm);
            }
            OpImmKind::Slti | OpImmKind::Sltiu => {
                a.mov_rm(RAX, R13, xoff(rs1));
                a.alu_ri(Alu::Cmp, RAX, imm);
                a.setcc_zx(
                    if kind == OpImmKind::Slti {
                        Cc::L
                    } else {
                        Cc::B
                    },
                    RAX,
                );
            }
            OpImmKind::Slli | OpImmKind::Srli | OpImmKind::Srai => {
                a.mov_rm(RAX, R13, xoff(rs1));
                let sh = (imm & 63) as u8;
                match kind {
                    OpImmKind::Slli => a.shl_ri(RAX, sh),
                    OpImmKind::Srli => a.shr_ri(RAX, sh),
                    _ => a.sar_ri(RAX, sh),
                }
            }
            OpImmKind::Addiw => {
                a.mov_rm(RAX, R13, xoff(rs1));
                a.alu_ri32(Alu::Add, RAX, imm);
                a.movsxd(RAX, RAX);
            }
            OpImmKind::Slliw | OpImmKind::Srliw | OpImmKind::Sraiw => {
                a.mov_rm32(RAX, R13, xoff(rs1));
                let sh = (imm & 31) as u8;
                match kind {
                    OpImmKind::Slliw => a.shl32_ri(RAX, sh),
                    OpImmKind::Srliw => a.shr32_ri(RAX, sh),
                    _ => a.sar32_ri(RAX, sh),
                }
                a.movsxd(RAX, RAX);
            }
            OpImmKind::Rori => return false,
        }
        a.mov_mr(R13, xoff(rd), RAX);
        true
    }

    /// Emits one register-register ALU template (`rd` never zero).
    /// Returns false if the kind needs the helper.
    fn emit_op(&mut self, kind: OpKind, rd: XReg, rs1: XReg, rs2: XReg) -> bool {
        let a = &mut self.a;
        match kind {
            OpKind::Add | OpKind::Sub | OpKind::Xor | OpKind::Or | OpKind::And => {
                let op = match kind {
                    OpKind::Add => Alu::Add,
                    OpKind::Sub => Alu::Sub,
                    OpKind::Xor => Alu::Xor,
                    OpKind::Or => Alu::Or,
                    _ => Alu::And,
                };
                a.mov_rm(RAX, R13, xoff(rs1));
                a.alu_rm(op, RAX, R13, xoff(rs2));
            }
            OpKind::Slt | OpKind::Sltu => {
                a.mov_rm(RAX, R13, xoff(rs1));
                a.cmp_rm(RAX, R13, xoff(rs2));
                a.setcc_zx(if kind == OpKind::Slt { Cc::L } else { Cc::B }, RAX);
            }
            // x86 variable shifts mask cl by 63 (64-bit) / 31 (32-bit),
            // exactly the `b & 63` / `b & 31` in `OpKind::eval`.
            OpKind::Sll | OpKind::Srl | OpKind::Sra => {
                a.mov_rm(RAX, R13, xoff(rs1));
                a.mov_rm(RCX, R13, xoff(rs2));
                match kind {
                    OpKind::Sll => a.shl_cl(RAX),
                    OpKind::Srl => a.shr_cl(RAX),
                    _ => a.sar_cl(RAX),
                }
            }
            OpKind::Sllw | OpKind::Srlw | OpKind::Sraw => {
                a.mov_rm32(RAX, R13, xoff(rs1));
                a.mov_rm(RCX, R13, xoff(rs2));
                match kind {
                    OpKind::Sllw => a.shl32_cl(RAX),
                    OpKind::Srlw => a.shr32_cl(RAX),
                    _ => a.sar32_cl(RAX),
                }
                a.movsxd(RAX, RAX);
            }
            OpKind::Addw | OpKind::Subw => {
                a.mov_rm(RAX, R13, xoff(rs1));
                let op = if kind == OpKind::Addw {
                    Alu::Add
                } else {
                    Alu::Sub
                };
                a.alu_rm(op, RAX, R13, xoff(rs2));
                a.movsxd(RAX, RAX);
            }
            OpKind::Mul => {
                a.mov_rm(RAX, R13, xoff(rs1));
                a.mov_rm(RCX, R13, xoff(rs2));
                a.imul_rr(RAX, RCX);
            }
            OpKind::Mulw => {
                a.mov_rm(RAX, R13, xoff(rs1));
                a.mov_rm(RCX, R13, xoff(rs2));
                a.imul_rr32(RAX, RCX);
                a.movsxd(RAX, RAX);
            }
            // Multi-instruction sequences (mulh/div/rem, Zbb two-source)
            // go through the shared-semantics helper instead of growing
            // the template catalogue.
            _ => return false,
        }
        a.mov_mr(R13, xoff(rd), RAX);
        true
    }

    /// Pure helper call (`jit_opimm`/`jit_op`/`jit_unary`): cannot fault,
    /// so no flush; result lands in `rd`.
    fn emit_pure_call(&mut self, helper: i32, op_idx: u32, rd: XReg, rs1: XReg, rs2: Option<XReg>) {
        let a = &mut self.a;
        a.mov_mr(R12, off::CUR_TRACE, R14);
        a.mov_rm(RSI, R13, xoff(rs1));
        let idx_reg = if let Some(rs2) = rs2 {
            a.mov_rm(RDX, R13, xoff(rs2));
            RCX
        } else {
            RDX
        };
        a.mov_rr(RDI, R12);
        a.mov_ri(idx_reg, op_idx as u64);
        a.call_m(R12, helper);
        a.mov_mr(R13, xoff(rd), RAX);
    }
}

/// Compiles one lowered block body starting at guest `pc` into a trace.
///
/// Deterministic: the emitted bytes depend only on `ops` and `pc`, which
/// is what makes sever-then-repromote byte-identical (asserted by the
/// SMC regression suite).
pub(super) fn compile(ops: &[Uop], pc: u64) -> CompiledTrace {
    let mut a = Asm::new();
    let body = a.label();
    let reval = a.label();
    let budget = a.label();
    let epi_thunk = a.label();
    let mut c = Compiler {
        a,
        epi_thunk,
        cold: Vec::new(),
        exits: [None, None],
    };

    // External entry: establish the register contract and skip the chain
    // entry's checks (the Rust caller already validated and funded).
    // Fuel rides in rbx, the cycle delta in rbp and the chained-pass
    // delta in r15 for the whole invocation — callee-saved, so helper
    // call-outs preserve them for free; the epilogue (and spills around
    // the delta-reading helpers) syncs them back into the context. The
    // final rax push keeps the push count odd, preserving the 16-byte
    // stack alignment helper calls require.
    c.a.push(R12);
    c.a.push(R13);
    c.a.push(R14);
    c.a.push(RBX);
    c.a.push(RBP);
    c.a.push(R15);
    c.a.push(RAX);
    c.a.mov_rr(R12, RDI);
    c.a.mov_rr32(R14, RSI);
    c.a.mov_rm(R13, R12, off::XREGS);
    c.a.mov_rm(RBX, R12, off::FUEL);
    c.a.alu_rr(Alu::Xor, RBP, RBP);
    c.a.alu_rr(Alu::Xor, R15, R15);
    c.a.jmp(body);

    // Indirect entry: IBT probes jump here from other traces' jalr exits.
    // The successor index cannot be known while compiling (the trace has
    // not been installed yet), so a placeholder imm32 is stamped with the
    // real index at install time; it falls straight into the chain
    // entry's stamp and fuel checks.
    let ind = c.a.len();
    c.a.mov_ri(R14, 0);
    assert_eq!(c.a.len() - ind, 6, "indirect-entry layout (41 be imm32)");

    // Chain entry: generation stamp, fuel, then the jitted-entry counter
    // (the dispatcher counts external entries as cache hits; only jumps
    // that bypass it are `jitted`).
    let chain = c.a.len();
    c.a.mov_rm(RAX, R12, off::STAMPS);
    c.a.mov_rm_s8(RAX, RAX, R14);
    c.a.alu_rm(Alu::Cmp, RAX, R12, off::CUR_GEN);
    c.a.jcc(Cc::Ne, reval);
    c.a.alu_ri(Alu::Cmp, RBX, ops.len() as i32);
    c.a.jcc(Cc::B, budget);
    c.a.alu_ri(Alu::Add, R15, 1);

    c.a.bind(body);

    let mut gpc = pc;
    let mut acc = Acc::default();
    let mut ended = false;
    for (i, u) in ops.iter().enumerate() {
        let op_idx = i as u32;
        let next_pc = gpc + u.len as u64;
        match u.op {
            MicroOp::Lui { rd, imm } => {
                if rd != XReg::ZERO {
                    emit_set_x_const(&mut c.a, rd, imm as i64 as u64);
                }
            }
            MicroOp::Auipc { rd, imm } => {
                if rd != XReg::ZERO {
                    emit_set_x_const(&mut c.a, rd, gpc.wrapping_add(imm as i64 as u64));
                }
            }
            MicroOp::Jal { rd, offset } => {
                debug_assert_eq!(i, ops.len() - 1, "control transfer must end the block");
                if rd != XReg::ZERO {
                    emit_set_x_const(&mut c.a, rd, next_pc);
                }
                let exit_acc = Acc {
                    instret: acc.instret + 1,
                    cycles: acc.cycles + u.cost as u64,
                    ..acc
                };
                let target = gpc.wrapping_add(offset as i64 as u64);
                c.emit_exit(exit_acc, ST_TAKEN, target, false);
                ended = true;
            }
            MicroOp::Jalr { rd, rs1, offset } => {
                debug_assert_eq!(i, ops.len() - 1, "control transfer must end the block");
                c.a.mov_rm(RAX, R13, xoff(rs1));
                if offset != 0 {
                    c.a.alu_ri(Alu::Add, RAX, offset);
                }
                c.a.alu_ri(Alu::And, RAX, -2);
                // Link after the target read: rd may alias rs1.
                if rd != XReg::ZERO {
                    emit_set_x_const(&mut c.a, rd, next_pc);
                }
                let exit_acc = Acc {
                    instret: acc.instret + 1,
                    cycles: acc.cycles + u.cost as u64,
                    ..acc
                };
                c.emit_exit_ibt(exit_acc);
                ended = true;
            }
            MicroOp::Branch {
                kind,
                rs1,
                rs2,
                offset,
                taken_cost,
            } => {
                debug_assert_eq!(i, ops.len() - 1, "control transfer must end the block");
                let taken = c.a.label();
                c.a.mov_rm(RAX, R13, xoff(rs1));
                c.a.cmp_rm(RAX, R13, xoff(rs2));
                c.a.jcc(branch_cc(kind), taken);
                let fall_acc = Acc {
                    instret: acc.instret + 1,
                    cycles: acc.cycles + u.cost as u64,
                    ..acc
                };
                c.emit_exit(fall_acc, ST_FALL, next_pc, true);
                c.a.bind(taken);
                let taken_acc = Acc {
                    instret: acc.instret + 1,
                    cycles: acc.cycles + taken_cost as u64,
                    ..acc
                };
                let target = gpc.wrapping_add(offset as i64 as u64);
                c.emit_exit(taken_acc, ST_TAKEN, target, true);
                ended = true;
            }
            MicroOp::Load { .. } => {
                c.emit_mem_fast(u, op_idx, gpc, acc);
                acc.loads += 1;
            }
            MicroOp::Store { .. } => {
                c.emit_mem_fast(u, op_idx, gpc, acc);
                acc.stores += 1;
            }
            MicroOp::Addi { rd, rs1, imm } => {
                if rd != XReg::ZERO {
                    c.emit_opimm(OpImmKind::Addi, rd, rs1, imm);
                }
            }
            MicroOp::Andi { rd, rs1, imm } => {
                if rd != XReg::ZERO {
                    c.emit_opimm(OpImmKind::Andi, rd, rs1, imm);
                }
            }
            MicroOp::Slli { rd, rs1, shamt } => {
                if rd != XReg::ZERO {
                    c.emit_opimm(OpImmKind::Slli, rd, rs1, shamt as i32);
                }
            }
            MicroOp::Srli { rd, rs1, shamt } => {
                if rd != XReg::ZERO {
                    c.emit_opimm(OpImmKind::Srli, rd, rs1, shamt as i32);
                }
            }
            MicroOp::Add { rd, rs1, rs2 } => {
                if rd != XReg::ZERO {
                    c.emit_op(OpKind::Add, rd, rs1, rs2);
                }
            }
            MicroOp::Sub { rd, rs1, rs2 } => {
                if rd != XReg::ZERO {
                    c.emit_op(OpKind::Sub, rd, rs1, rs2);
                }
            }
            MicroOp::Xor { rd, rs1, rs2 } => {
                if rd != XReg::ZERO {
                    c.emit_op(OpKind::Xor, rd, rs1, rs2);
                }
            }
            MicroOp::OpImm { kind, rd, rs1, imm } => {
                if rd != XReg::ZERO && !c.emit_opimm(kind, rd, rs1, imm) {
                    c.emit_pure_call(off::H_OPIMM, op_idx, rd, rs1, None);
                }
            }
            MicroOp::Op { kind, rd, rs1, rs2 } => {
                if rd != XReg::ZERO && !c.emit_op(kind, rd, rs1, rs2) {
                    c.emit_pure_call(off::H_OP, op_idx, rd, rs1, Some(rs2));
                }
            }
            MicroOp::Unary { kind: _, rd, rs1 } => {
                if rd != XReg::ZERO {
                    c.emit_pure_call(off::H_UNARY, op_idx, rd, rs1, None);
                }
            }
            MicroOp::Fence => {}
            MicroOp::FLoad { .. } => {
                c.emit_fmem_fast(u, op_idx, gpc, acc);
                acc.loads += 1;
            }
            MicroOp::FStore { .. } => {
                c.emit_fmem_fast(u, op_idx, gpc, acc);
                acc.stores += 1;
            }
            MicroOp::Generic(_) => {
                // Mirrors the engine's `flush!()` before `Cpu::exec`: the
                // helper drains the deltas into `ExecStats` for real and
                // re-anchors `ctx.pc`, so the compile-time baseline resets.
                c.a.mov_mr(R12, off::CUR_TRACE, R14);
                emit_deltas(&mut c.a, acc, false);
                emit_set_pc(&mut c.a, gpc);
                // The delegate drains and decrements `ctx.fuel` itself:
                // spill the register-carried counters around the call.
                c.a.mov_mr(R12, off::FUEL, RBX);
                c.a.alu_mr(Alu::Add, R12, off::D_CYCLES, RBP);
                c.a.alu_mr(Alu::Add, R12, off::D_JITTED, R15);
                c.a.alu_rr(Alu::Xor, RBP, RBP);
                c.a.alu_rr(Alu::Xor, R15, R15);
                c.a.mov_rr(RDI, R12);
                c.a.mov_ri(RSI, op_idx as u64);
                c.a.call_m(R12, off::H_GENERIC);
                c.a.mov_rm(RBX, R12, off::FUEL);
                c.a.test_rr(RAX, RAX);
                c.a.jcc(Cc::Ne, c.epi_thunk);
                acc = Acc::default();
                gpc = next_pc;
                continue;
            }
        }
        if ended {
            break;
        }
        acc.instret += 1;
        acc.cycles += u.cost as u64;
        gpc = next_pc;
    }
    if !ended {
        c.emit_exit(acc, ST_FALL, gpc, false);
    }

    // Chain-entry failure stubs and the helper-exit thunk. The stubs
    // commit this trace's own entry pc: a patched predecessor's exit
    // slot no longer stores the successor pc, so arrival here (always
    // aimed at this trace's first instruction) re-anchors it.
    c.a.bind(reval);
    emit_set_pc(&mut c.a, pc);
    c.a.mov_ri(RAX, ST_REVAL as u64);
    c.a.jmp_m(R12, off::EPILOGUE);
    c.a.bind(budget);
    emit_set_pc(&mut c.a, pc);
    c.a.mov_ri(RAX, ST_BUDGET as u64);
    c.a.jmp_m(R12, off::EPILOGUE);
    c.a.bind(c.epi_thunk);
    c.a.jmp_m(R12, off::EPILOGUE);

    // Cold slow paths, out of line: the address is still in rax from the
    // fast-path computation.
    let cold = std::mem::take(&mut c.cold);
    for site in cold {
        c.a.bind(site.cold);
        c.a.mov_rr(RSI, RAX);
        c.emit_faultable_call(site.helper, site.op_idx, site.pc, site.acc);
        c.a.jmp(site.rejoin);
    }

    let Compiler { a, exits, .. } = c;
    CompiledTrace {
        code: a.finish(),
        chain,
        ind,
        exits,
    }
}
