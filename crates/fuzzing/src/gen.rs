//! The seeded program generator: random-but-valid RV64GCV programs,
//! weighted over the corners the rewriter and the tiered execution
//! engine historically get wrong — compressed/uncompressed mixes,
//! computed jumps through data-section tables, self-modifying stores
//! into W+X text, cross-region instruction straddles, and trapping
//! tails.
//!
//! Reproducibility contract: a [`FuzzCase`] is a **pure function of its
//! seed**. Generation draws from named [`Prng`] streams (`"shape"`,
//! `"body"`, `"vector"`, `"consts"`), so adding a new op kind or
//! reordering draws in one stream cannot shift the others, and a committed
//! reproducer file (seed + kept op indices + flags) regenerates the exact
//! program years later. Bump [`GEN_VERSION`] whenever a change *would*
//! shift generated
//! programs for an existing seed — replay refuses mismatched versions
//! instead of silently replaying a different program.
//!
//! Every generated program terminates on its own: the only backward
//! branch is the outer loop on a pre-set counter, every load/store is
//! masked into a scratch region, every computed jump indexes a table of
//! valid code labels, and every SMC store patches a dedicated slot with
//! a valid `addi` encoding.

use chimera_isa::{encode, prng::Prng, XReg};
use chimera_obj::{addi, assemble, AsmOptions, Binary, Section};

/// The generator version a reproducer file records. Bump on any change
/// that alters the program a given `(seed, keep)` pair produces.
pub const GEN_VERSION: u32 = 2;

/// Size of the writable scratch region at the head of `.data`. Every
/// masked load/store and vector block lands inside it; the bytes after
/// it are computed-jump `.dword` tables, which rewrite engines that move
/// code legitimately relocate (so cross-binary memory comparisons stop
/// at this prefix).
pub const SCRATCH_LEN: usize = 256;

/// The register pool ops draw operands from. Deliberately excludes the
/// generator's reserved registers: `t3`/`t4` (rendering scratch), `t6`
/// (loop counter), `s4`/`s5` (jump/SMC accumulators), `s11` (scratch
/// base), `ra` (computed-jump linkage) and the ABI registers the runner
/// owns (`sp`, `gp`, `a7`).
pub const REGS: &[&str] = &["t0", "t1", "t2", "a0", "a1", "a2", "a3", "s2", "s3", "s6"];

/// Coarse op classification — the unit the fault-injection hook and the
/// minimizer's reporting speak in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Register-register ALU.
    Alu,
    /// Register-immediate ALU.
    AluImm,
    /// Constant shifts.
    Shift,
    /// Zbb bit manipulation.
    Bitmanip,
    /// Masked aligned load/store into the scratch region.
    LoadStore,
    /// Forward conditional branch over a small embedded body.
    Branch,
    /// Indirect jump through a data-section table (`jalr`).
    ComputedJump,
    /// RVV block over the scratch region.
    Vector,
    /// Scalar FP block folded into the accumulator.
    Fp,
    /// Self-modifying store patching a dedicated text slot.
    Smc,
}

impl OpClass {
    /// Parses the lowercase class name (the reproducer-file spelling).
    pub fn parse(s: &str) -> Option<OpClass> {
        Some(match s {
            "alu" => OpClass::Alu,
            "aluimm" => OpClass::AluImm,
            "shift" => OpClass::Shift,
            "bitmanip" => OpClass::Bitmanip,
            "loadstore" => OpClass::LoadStore,
            "branch" => OpClass::Branch,
            "computedjump" => OpClass::ComputedJump,
            "vector" => OpClass::Vector,
            "fp" => OpClass::Fp,
            "smc" => OpClass::Smc,
            _ => return None,
        })
    }

    /// The lowercase class name.
    pub fn name(&self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::AluImm => "aluimm",
            OpClass::Shift => "shift",
            OpClass::Bitmanip => "bitmanip",
            OpClass::LoadStore => "loadstore",
            OpClass::Branch => "branch",
            OpClass::ComputedJump => "computedjump",
            OpClass::Vector => "vector",
            OpClass::Fp => "fp",
            OpClass::Smc => "smc",
        }
    }
}

/// One generated loop-body operation. Operand fields are indices into
/// [`REGS`]; labels are derived from the op's generation-time index, so
/// a delta-minimized subset renders with stable names.
#[derive(Debug, Clone)]
pub enum Op {
    /// `op a, b, c`.
    Alu {
        /// Mnemonic.
        op: &'static str,
        /// Destination pool index.
        a: usize,
        /// Source pool indices.
        b: usize,
        /// Second source pool index.
        c: usize,
    },
    /// `op a, b, imm`.
    AluImm {
        /// Mnemonic.
        op: &'static str,
        /// Destination pool index.
        a: usize,
        /// Source pool index.
        b: usize,
        /// 12-bit immediate.
        imm: i64,
    },
    /// `op a, b, sh` (constant shift).
    Shift {
        /// Mnemonic.
        op: &'static str,
        /// Destination pool index.
        a: usize,
        /// Source pool index.
        b: usize,
        /// Shift amount in `[1, 63]`.
        sh: u64,
    },
    /// Zbb unary (`clz`/`ctz`/`cpop`) or `andn`.
    Bitmanip {
        /// Mnemonic.
        op: &'static str,
        /// Destination pool index.
        a: usize,
        /// Source pool index.
        b: usize,
        /// Second source pool index (ignored by the unary forms).
        c: usize,
    },
    /// Masked aligned access into the scratch region.
    LoadStore {
        /// Index into the `(store, load)` mnemonic pairs.
        width: usize,
        /// Store (`true`) or load (`false`).
        store: bool,
        /// Pool index masked into the scratch offset.
        addr: usize,
        /// Pool index stored/loaded.
        val: usize,
    },
    /// Forward conditional branch over its own embedded body.
    Branch {
        /// Branch mnemonic.
        op: &'static str,
        /// Compared pool indices.
        a: usize,
        /// Second compared pool index.
        b: usize,
        /// Skipped body: `(pool index, addi immediate)` per instruction.
        body: Vec<(usize, i64)>,
    },
    /// `jalr` through a `.data` jump table of `targets` labels, indexed
    /// by a masked pool register.
    ComputedJump {
        /// Pool index supplying the (masked) table index.
        idx: usize,
        /// Table size: 4, 8 or 16.
        targets: usize,
        /// Per-target accumulator deltas are derived from this.
        salt: u64,
    },
    /// One of the fixed RVV blocks over the scratch region.
    Vector {
        /// Block variant in `[0, 5)`: three `e64` blocks, an `e32` one, and
        /// a chain of element-wise operations folded into `s4`.
        variant: usize,
        /// Pool index of the `.vx` scalar the last two read.
        reg: usize,
    },
    /// Scalar FP block: converts, multiplies, fused-multiply-adds and
    /// folds the (saturating) integer conversion into `s4`.
    Fp {
        /// Pool index seeding the FP pipeline.
        a: usize,
    },
    /// Self-modifying store: patches this op's own `addi s5, s5, _` slot
    /// with a freshly encoded immediate, so the next loop iteration
    /// executes the new instruction.
    Smc {
        /// The immediate the patch encodes.
        imm: i64,
    },
}

impl Op {
    /// This op's coarse class.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Alu { .. } => OpClass::Alu,
            Op::AluImm { .. } => OpClass::AluImm,
            Op::Shift { .. } => OpClass::Shift,
            Op::Bitmanip { .. } => OpClass::Bitmanip,
            Op::LoadStore { .. } => OpClass::LoadStore,
            Op::Branch { .. } => OpClass::Branch,
            Op::ComputedJump { .. } => OpClass::ComputedJump,
            Op::Vector { .. } => OpClass::Vector,
            Op::Fp { .. } => OpClass::Fp,
            Op::Smc { .. } => OpClass::Smc,
        }
    }
}

/// One loop-body op together with the index it was generated at — the
/// stable identity minimized subsets and rendered labels key on.
#[derive(Debug, Clone)]
pub struct GenOp {
    /// Generation-time index (stable across [`FuzzCase::restrict`]).
    pub uid: usize,
    /// The operation.
    pub op: Op,
}

/// A generated fuzz case: the pure-function-of-seed program plus the
/// build flags the oracle varies.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The root seed this case regenerates from.
    pub seed: u64,
    /// Assemble with compressed encodings (never set for SMC cases:
    /// patch slots must stay 4-byte `addi`s).
    pub compress: bool,
    /// Split `.text` mid-instruction into two mappings (cross-region
    /// straddle) at build time.
    pub straddle: bool,
    /// Outer loop iterations.
    pub iters: u64,
    /// End the program with an `ebreak` instead of a clean exit.
    pub trap_tail: bool,
    /// The loop body.
    pub ops: Vec<GenOp>,
}

/// What [`FuzzCase::build`] produced.
pub struct BuiltCase {
    /// The assembled (and possibly straddle-split) binary.
    pub bin: Binary,
    /// Whether the straddle split actually happened (it needs a 4-byte
    /// instruction strictly inside `.text`).
    pub straddled: bool,
}

/// Generates the case for `seed`. Pure: same seed, same case, forever
/// (under one [`GEN_VERSION`]).
// The `*body.pick(&[...])` derefs copy a `&'static str` out from behind
// a temporary slice; clippy's auto-deref suggestion would borrow the
// temporary instead and not compile.
#[allow(clippy::explicit_auto_deref)]
pub fn generate(seed: u64) -> FuzzCase {
    let root = Prng::new(seed);
    let mut shape = root.split("shape");
    let mut body = root.split("body");
    let mut vectors = root.split("vector");

    let allow_vector = shape.chance(0.55);
    let allow_fp = shape.chance(0.45);
    let allow_cjump = shape.chance(0.50);
    let allow_smc = shape.chance(0.30);
    let trap_tail = shape.chance(0.10);
    let n_ops = shape.range_usize(6, 36);
    let iters = shape.below(7) + 3;

    let mut ops = Vec::with_capacity(n_ops);
    for uid in 0..n_ops {
        let op = loop {
            match body.below(16) {
                0..=2 => {
                    break Op::Alu {
                        op: *body.pick(&["add", "sub", "xor", "or", "and", "sll", "srl", "mul"]),
                        a: body.range_usize(0, REGS.len()),
                        b: body.range_usize(0, REGS.len()),
                        c: body.range_usize(0, REGS.len()),
                    }
                }
                3..=4 => {
                    break Op::AluImm {
                        op: *body.pick(&["addi", "xori", "ori", "andi"]),
                        a: body.range_usize(0, REGS.len()),
                        b: body.range_usize(0, REGS.len()),
                        imm: body.range_i64(-2048, 2048),
                    }
                }
                5 => {
                    break Op::Shift {
                        op: *body.pick(&["slli", "srli", "srai"]),
                        a: body.range_usize(0, REGS.len()),
                        b: body.range_usize(0, REGS.len()),
                        sh: body.below(63) + 1,
                    }
                }
                6 => {
                    break Op::Bitmanip {
                        op: *body.pick(&["clz", "ctz", "cpop", "andn"]),
                        a: body.range_usize(0, REGS.len()),
                        b: body.range_usize(0, REGS.len()),
                        c: body.range_usize(0, REGS.len()),
                    }
                }
                7..=9 => {
                    break Op::LoadStore {
                        width: body.range_usize(0, 3),
                        store: body.next_bool(),
                        addr: body.range_usize(0, REGS.len()),
                        val: body.range_usize(0, REGS.len()),
                    }
                }
                10..=11 => {
                    let len = body.range_usize(1, 4);
                    break Op::Branch {
                        op: *body.pick(&["beq", "bne", "blt", "bgeu"]),
                        a: body.range_usize(0, REGS.len()),
                        b: body.range_usize(0, REGS.len()),
                        body: (0..len)
                            .map(|_| (body.range_usize(0, REGS.len()), body.range_i64(-64, 64)))
                            .collect(),
                    };
                }
                12 if allow_cjump => {
                    break Op::ComputedJump {
                        idx: body.range_usize(0, REGS.len()),
                        targets: *body.pick(&[4usize, 8, 16]),
                        salt: body.next_u64(),
                    }
                }
                13 if allow_vector => {
                    // The `e32` and chain variants draw from their own
                    // stream, so the ops around a block generate as before.
                    let old = body.range_usize(0, 3);
                    let (pick_new, new) = (vectors.chance(0.4), 3 + vectors.range_usize(0, 2));
                    break Op::Vector {
                        variant: if pick_new { new } else { old },
                        reg: vectors.range_usize(0, REGS.len()),
                    };
                }
                14 if allow_fp => {
                    break Op::Fp {
                        a: body.range_usize(0, REGS.len()),
                    }
                }
                15 if allow_smc => {
                    break Op::Smc {
                        // Positive and >= 64 so the slot instruction is
                        // visibly distinct from what the patch writes.
                        imm: body.range_i64(64, 128),
                    };
                }
                _ => continue, // disabled feature: redraw
            }
        };
        ops.push(GenOp { uid, op });
    }

    let uses_smc = ops.iter().any(|g| g.op.class() == OpClass::Smc);
    // SMC patch slots must stay 4-byte instructions the encoded patch
    // word can overwrite in place.
    let compress = !uses_smc && shape.chance(0.40);
    let straddle = shape.chance(0.18);

    FuzzCase {
        seed,
        compress,
        straddle,
        iters,
        trap_tail,
        ops,
    }
}

impl FuzzCase {
    /// Whether any kept op has the given class.
    pub fn has_class(&self, class: OpClass) -> bool {
        self.ops.iter().any(|g| g.op.class() == class)
    }

    /// The kept ops' generation-time indices.
    pub fn kept_uids(&self) -> Vec<usize> {
        self.ops.iter().map(|g| g.uid).collect()
    }

    /// The case with only the ops whose `uid` appears in `keep`
    /// (indices into the *originally generated* op list — composing
    /// restrictions keeps uids stable).
    pub fn restrict(&self, keep: &[usize]) -> FuzzCase {
        let mut c = self.clone();
        c.ops.retain(|g| keep.contains(&g.uid));
        c
    }

    /// Renders the program source. Stable per `(ops, flags)`.
    pub fn source(&self) -> String {
        let mut data = format!("scratch: .zero {SCRATCH_LEN}\n");
        let mut text = String::new();
        let mut tail = String::new();

        text.push_str("_start:\n    la s11, scratch\n");
        let root = Prng::new(self.seed);
        let mut consts = root.split("consts");
        for (n, r) in REGS.iter().enumerate() {
            text.push_str(&format!(
                "    li {r}, {}\n",
                consts.below(1 << 20) + n as u64
            ));
        }
        text.push_str("    li s4, 1\n    li s5, 1\n");
        text.push_str(&format!("    li t6, {}\n", self.iters));
        text.push_str("loop:\n");

        for g in &self.ops {
            let uid = g.uid;
            match &g.op {
                Op::Alu { op, a, b, c } => {
                    text.push_str(&format!(
                        "    {op} {}, {}, {}\n",
                        REGS[*a], REGS[*b], REGS[*c]
                    ));
                }
                Op::AluImm { op, a, b, imm } => {
                    text.push_str(&format!("    {op} {}, {}, {imm}\n", REGS[*a], REGS[*b]));
                }
                Op::Shift { op, a, b, sh } => {
                    text.push_str(&format!("    {op} {}, {}, {sh}\n", REGS[*a], REGS[*b]));
                }
                Op::Bitmanip { op, a, b, c } => {
                    if *op == "andn" {
                        text.push_str(&format!(
                            "    andn {}, {}, {}\n",
                            REGS[*a], REGS[*b], REGS[*c]
                        ));
                    } else {
                        text.push_str(&format!("    {op} {}, {}\n", REGS[*a], REGS[*b]));
                    }
                }
                Op::LoadStore {
                    width,
                    store,
                    addr,
                    val,
                } => {
                    let (st, ld) = [("sd", "ld"), ("sw", "lw"), ("sb", "lbu")][*width];
                    text.push_str(&format!("    andi t3, {}, 248\n", REGS[*addr]));
                    text.push_str("    add t3, t3, s11\n");
                    if *store {
                        text.push_str(&format!("    {st} {}, 0(t3)\n", REGS[*val]));
                    } else {
                        text.push_str(&format!("    {ld} {}, 0(t3)\n", REGS[*val]));
                    }
                }
                Op::Branch { op, a, b, body } => {
                    text.push_str(&format!("    {op} {}, {}, skip{uid}\n", REGS[*a], REGS[*b]));
                    for (r, imm) in body {
                        text.push_str(&format!("    addi {}, {}, {imm}\n", REGS[*r], REGS[*r]));
                    }
                    text.push_str(&format!("skip{uid}:\n"));
                }
                Op::ComputedJump { idx, targets, salt } => {
                    data.push_str(&format!("jt{uid}:"));
                    for t in 0..*targets {
                        data.push_str(&format!(" .dword cj{uid}_t{t}\n"));
                    }
                    let mask = targets * 8 - 8;
                    text.push_str(&format!("    la t3, jt{uid}\n"));
                    text.push_str(&format!("    andi t4, {}, {mask}\n", REGS[*idx]));
                    text.push_str("    add t3, t3, t4\n    ld t3, 0(t3)\n    jalr t3\n");
                    for t in 0..*targets {
                        let delta = (salt.wrapping_add(t as u64)) % 13 + 1;
                        tail.push_str(&format!(
                            "cj{uid}_t{t}:\n    addi s4, s4, {delta}\n    ret\n"
                        ));
                    }
                }
                Op::Vector { variant, reg } => match variant {
                    0 => text.push_str(
                        "    li t3, 4\n    vsetvli t4, t3, e64, m1, ta, ma\n    \
                         vle64.v v1, (s11)\n    vadd.vv v2, v1, v1\n    vse64.v v2, (s11)\n",
                    ),
                    1 => text.push_str(
                        "    li t3, 4\n    vsetvli t4, t3, e64, m1, ta, ma\n    \
                         vle64.v v1, (s11)\n    vmv.v.i v2, 0\n    vredsum.vs v3, v1, v2\n    \
                         vmv.x.s t3, v3\n    xor s4, s4, t3\n",
                    ),
                    2 => text.push_str(
                        "    li t3, 2\n    vsetvli t4, t3, e64, m1, ta, ma\n    \
                         vle64.v v1, (s11)\n    vand.vv v2, v1, v1\n    vse64.v v2, (s11)\n",
                    ),
                    // An add whose 32-bit overflow `vmin` reads.
                    3 => text.push_str(&format!(
                        "    li t3, 8\n    vsetvli t4, t3, e32, m1, ta, ma\n    \
                         vle32.v v1, (s11)\n    vadd.vv v2, v1, v1\n    \
                         vmin.vx v2, v2, {}\n    vse32.v v2, (s11)\n",
                        REGS[*reg]
                    )),
                    _ => text.push_str(&format!(
                        "    li t3, 4\n    vsetvli t4, t3, e64, m1, ta, ma\n    \
                         vle64.v v1, (s11)\n    vadd.vx v2, v1, {}\n    \
                         vmul.vv v3, v2, v1\n    vsub.vv v3, v3, v2\n    \
                         vxor.vv v2, v3, v1\n    vmv.v.i v4, 0\n    \
                         vredsum.vs v5, v2, v4\n    vmv.x.s t3, v5\n    xor s4, s4, t3\n",
                        REGS[*reg]
                    )),
                },
                Op::Fp { a } => {
                    text.push_str(&format!("    fcvt.d.l fa0, {}\n", REGS[*a]));
                    text.push_str(
                        "    fcvt.d.l fa1, s4\n    fmul.d fa2, fa0, fa1\n    \
                         fmadd.d fa3, fa0, fa1, fa2\n    fcvt.l.d t3, fa3\n    xor s4, s4, t3\n",
                    );
                }
                Op::Smc { imm } => {
                    // The slot executes, then this iteration patches it;
                    // the *next* iteration runs the patched encoding —
                    // the decode cache must observe the invalidation.
                    let patch = addi(XReg::S5, XReg::S5, *imm as i32);
                    let word = encode(&patch).expect("the patch immediate fits addi");
                    text.push_str(&format!("patch{uid}:\n    addi s5, s5, 64\n"));
                    text.push_str(&format!("    la t3, patch{uid}\n"));
                    text.push_str(&format!("    li t4, {word}\n"));
                    text.push_str("    sw t4, 0(t3)\n");
                }
            }
        }

        text.push_str("    addi t6, t6, -1\n    bnez t6, loop\n");
        if self.trap_tail {
            text.push_str("    ebreak\n");
        }
        text.push_str(
            "    xor a0, a0, a1\n    xor a0, a0, s2\n    xor a0, a0, s4\n    \
             xor a0, a0, s5\n    andi a0, a0, 255\n    li a7, 93\n    ecall\n",
        );

        format!(".data\n{data}.text\n{text}{tail}")
    }

    /// Assembles the case, applying the SMC permission flip and the
    /// straddle section split. `Err` carries the assembler message — a
    /// generator bug the oracle reports as a divergence.
    pub fn build(&self) -> Result<BuiltCase, String> {
        let src = self.source();
        let mut bin = assemble(
            &src,
            AsmOptions {
                compress: self.compress,
                ..Default::default()
            },
        )
        .map_err(|e| format!("{e:?}"))?;

        if self.has_class(OpClass::Smc) {
            // Guest stores into W+X text: the emulator's SMC path.
            bin.section_mut(".text").expect(".text exists").perms.w = true;
        }

        let mut straddled = false;
        if self.straddle {
            straddled = split_text_mid_instruction(&mut bin);
        }
        Ok(BuiltCase { bin, straddled })
    }
}

/// Splits `.text` into two adjacent mappings with the boundary in the
/// *middle* of a 4-byte instruction near the section's midpoint, so
/// fetches and decode-cache blocks straddle a region edge. Returns
/// whether a split point existed.
fn split_text_mid_instruction(bin: &mut Binary) -> bool {
    let disasm = chimera_analysis::disassemble(bin);
    let text = bin.section(".text").expect(".text exists").clone();
    let cands: Vec<u64> = disasm
        .iter()
        .filter(|di| di.len == 4 && di.addr > text.addr && di.addr + 4 < text.end())
        .map(|di| di.addr)
        .collect();
    let Some(&addr) = cands.get(cands.len() / 2) else {
        return false;
    };
    let cut = addr + 2;
    let off = (cut - text.addr) as usize;
    let idx = bin
        .sections
        .iter()
        .position(|s| s.name == ".text")
        .expect(".text exists");
    let hi = Section {
        name: ".text.hi".into(),
        addr: cut,
        data: text.data[off..].to_vec(),
        perms: text.perms,
    };
    bin.sections[idx].data.truncate(off);
    bin.sections.insert(idx + 1, hi);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure() {
        for seed in 0..50 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.source(), b.source(), "seed {seed}");
            assert_eq!(a.compress, b.compress);
            assert_eq!(a.straddle, b.straddle);
        }
    }

    #[test]
    fn every_case_assembles() {
        for seed in 0..200 {
            let case = generate(seed);
            case.build().unwrap_or_else(|e| {
                panic!("seed {seed} fails to assemble: {e}\n{}", case.source())
            });
        }
    }

    #[test]
    fn smc_cases_never_compress() {
        let mut seen = 0;
        for seed in 0..400 {
            let case = generate(seed);
            if case.has_class(OpClass::Smc) {
                seen += 1;
                assert!(!case.compress, "seed {seed}: SMC case compressed");
            }
        }
        assert!(seen > 0, "corpus must contain SMC cases");
    }

    #[test]
    fn restrict_keeps_uids_and_labels_stable() {
        let case = generate(11);
        let uids = case.kept_uids();
        let half: Vec<usize> = uids.iter().copied().step_by(2).collect();
        let r = case.restrict(&half);
        assert_eq!(r.kept_uids(), half);
        // Restricting a restriction with the same set is a no-op.
        assert_eq!(r.restrict(&half).source(), r.source());
        r.build().expect("restricted case still assembles");
    }

    #[test]
    fn straddle_split_preserves_bytes() {
        // Find a seed whose straddle actually applies, then check the
        // two text mappings concatenate to the unsplit image.
        for seed in 0..200u64 {
            let mut case = generate(seed);
            case.straddle = true;
            let built = case.build().unwrap();
            if !built.straddled {
                continue;
            }
            case.straddle = false;
            let plain = case.build().unwrap();
            let lo = built.bin.section(".text").unwrap();
            let hi = built.bin.section(".text.hi").unwrap();
            assert_eq!(hi.addr, lo.end());
            assert_eq!(hi.addr % 4, 2, "cut must be mid-instruction");
            let mut joined = lo.data.clone();
            joined.extend_from_slice(&hi.data);
            assert_eq!(joined, plain.bin.section(".text").unwrap().data);
            return;
        }
        panic!("no straddleable case in 200 seeds");
    }
}
