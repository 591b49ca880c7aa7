//! A two-pass text assembler for the modelled RV64IMFDCVB subset.
//!
//! Accepts the syntax the ISA crate's `Display` impl emits (so
//! disassemble→assemble roundtrips), the common GNU-style pseudo
//! instructions (`li`, `la`, `mv`, `call`, `ret`, `j`, `beqz`, ...), and the
//! section/data directives needed to build complete test programs:
//! `.text`, `.data`, `.rodata`, `.global`, `.align`, `.byte`, `.half`,
//! `.word`, `.dword` (which accepts label names, producing absolute code
//! addresses for jump tables), and `.zero`.
//!
//! Comments start with `#` and run to end of line.

use crate::binary::Binary;
use crate::builder::{BuildError, DataSec, ModuleBuilder};
use chimera_isa::{
    BranchKind, Eew, ExtSet, FCmpKind, FMaKind, FOpKind, FReg, FpWidth, Inst, IntWidth, LoadKind,
    OpImmKind, OpKind, StoreKind, UnaryKind, VArithOp, VReg, VSrc, VType, XReg,
};
use std::fmt;

/// Assembler options.
#[derive(Debug, Clone, Copy)]
pub struct AsmOptions {
    /// Emit compressed encodings where available (mirrors compiling with
    /// the C extension enabled).
    pub compress: bool,
    /// The ISA profile recorded in the produced binary.
    pub profile: ExtSet,
}

impl Default for AsmOptions {
    fn default() -> Self {
        AsmOptions {
            compress: false,
            profile: ExtSet::RV64GCV,
        }
    }
}

/// An assembly error with its source line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number (0 for link-stage errors).
    pub line: usize,
    /// Error description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

impl From<BuildError> for AsmError {
    fn from(e: BuildError) -> Self {
        AsmError {
            line: 0,
            msg: e.to_string(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cursor {
    Text,
    Ro,
    Rw,
}

/// Assembles `source` into a [`Binary`].
pub fn assemble(source: &str, opts: AsmOptions) -> Result<Binary, AsmError> {
    let mut b = ModuleBuilder::new(opts.compress);
    let mut cursor = Cursor::Text;

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut s = raw;
        if let Some(i) = s.find('#') {
            s = &s[..i];
        }
        let mut s = s.trim();
        // Labels (possibly several, possibly followed by an instruction).
        while let Some(colon) = s.find(':') {
            let (name, rest) = s.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !is_ident(name) {
                return err(line, format!("bad label {name:?}"));
            }
            match cursor {
                Cursor::Text => b.label(name),
                Cursor::Ro => b.data_label(DataSec::Ro, name),
                Cursor::Rw => b.data_label(DataSec::Rw, name),
            };
            s = rest[1..].trim();
        }
        if s.is_empty() {
            continue;
        }
        if let Some(rest) = s.strip_prefix('.') {
            directive(&mut b, &mut cursor, rest, line)?;
            continue;
        }
        if cursor != Cursor::Text {
            return err(line, "instruction outside .text".into());
        }
        instruction(&mut b, s, line)?;
    }
    b.build(opts.profile).map_err(Into::into)
}

fn err<T>(line: usize, msg: String) -> Result<T, AsmError> {
    Err(AsmError { line, msg })
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
}

fn directive(
    b: &mut ModuleBuilder,
    cursor: &mut Cursor,
    rest: &str,
    line: usize,
) -> Result<(), AsmError> {
    let (name, args) = match rest.find(char::is_whitespace) {
        Some(i) => (&rest[..i], rest[i..].trim()),
        None => (rest, ""),
    };
    let sec = match cursor {
        Cursor::Ro => DataSec::Ro,
        _ => DataSec::Rw,
    };
    match name {
        "text" => *cursor = Cursor::Text,
        "data" => *cursor = Cursor::Rw,
        "rodata" => *cursor = Cursor::Ro,
        "global" | "globl" => {
            b.global(args);
        }
        "align" | "p2align" => {
            let n: u64 = args.parse().map_err(|_| AsmError {
                line,
                msg: format!("bad alignment {args:?}"),
            })?;
            if *cursor == Cursor::Text {
                return err(line, ".align in .text is unsupported".into());
            }
            b.align(sec, 1 << n);
        }
        "byte" | "half" | "word" | "dword" | "quad" => {
            if *cursor == Cursor::Text {
                return err(line, "data directive in .text".into());
            }
            for tok in args.split(',') {
                let tok = tok.trim();
                if let Ok(v) = parse_int(tok) {
                    match name {
                        "byte" => b.data_bytes(sec, &[(v as u8)]),
                        "half" => b.data_bytes(sec, &(v as u16).to_le_bytes()),
                        "word" => b.word(sec, v as u32),
                        _ => b.dword(sec, v as u64),
                    };
                } else if (name == "dword" || name == "quad") && is_ident(tok) {
                    b.addr_of(sec, tok);
                } else {
                    return err(line, format!("bad data value {tok:?}"));
                }
            }
        }
        "double" => {
            for tok in args.split(',') {
                let v: f64 = tok.trim().parse().map_err(|_| AsmError {
                    line,
                    msg: format!("bad double {tok:?}"),
                })?;
                b.double(sec, v);
            }
        }
        "float" => {
            for tok in args.split(',') {
                let v: f32 = tok.trim().parse().map_err(|_| AsmError {
                    line,
                    msg: format!("bad float {tok:?}"),
                })?;
                b.data_bytes(sec, &v.to_le_bytes());
            }
        }
        "zero" | "skip" | "space" => {
            let n: usize = args.parse().map_err(|_| AsmError {
                line,
                msg: format!("bad size {args:?}"),
            })?;
            if *cursor == Cursor::Text {
                return err(line, ".zero in .text is unsupported".into());
            }
            b.zero(sec, n);
        }
        other => return err(line, format!("unknown directive .{other}")),
    }
    Ok(())
}

fn parse_int(s: &str) -> Result<i64, ()> {
    let s = s.trim();
    let (neg, s) = match s.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, s),
    };
    let v = if let Some(h) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).map_err(|_| ())? as i64
    } else if let Some(h) = s.strip_prefix("0b") {
        u64::from_str_radix(h, 2).map_err(|_| ())? as i64
    } else {
        s.parse::<i64>().map_err(|_| ())?
    };
    Ok(if neg { -v } else { v })
}

fn parse_xreg(s: &str) -> Result<XReg, ()> {
    let s = s.trim();
    for r in XReg::all() {
        if r.abi_name() == s {
            return Ok(r);
        }
    }
    if let Some(n) = s.strip_prefix('x') {
        if let Ok(i) = n.parse::<u8>() {
            return XReg::new(i).ok_or(());
        }
    }
    if s == "fp" {
        return Ok(XReg::S0);
    }
    Err(())
}

fn parse_freg(s: &str) -> Result<FReg, ()> {
    let s = s.trim();
    for r in FReg::all() {
        if r.abi_name() == s {
            return Ok(r);
        }
    }
    if let Some(n) = s.strip_prefix('f') {
        if let Ok(i) = n.parse::<u8>() {
            return FReg::new(i).ok_or(());
        }
    }
    Err(())
}

fn parse_vreg(s: &str) -> Result<VReg, ()> {
    let s = s.trim();
    if let Some(n) = s.strip_prefix('v') {
        if let Ok(i) = n.parse::<u8>() {
            return VReg::new(i).ok_or(());
        }
    }
    Err(())
}

/// Parses `offset(reg)` or `(reg)`.
fn parse_memref(s: &str) -> Result<(i32, XReg), ()> {
    let s = s.trim();
    let open = s.find('(').ok_or(())?;
    if !s.ends_with(')') {
        return Err(());
    }
    let off_s = s[..open].trim();
    let off = if off_s.is_empty() {
        0
    } else {
        parse_int(off_s)? as i32
    };
    let reg = parse_xreg(&s[open + 1..s.len() - 1])?;
    Ok((off, reg))
}

struct Ops<'a> {
    parts: Vec<&'a str>,
    line: usize,
    mnemonic: &'a str,
}

impl<'a> Ops<'a> {
    fn n(&self) -> usize {
        self.parts.len()
    }

    fn e(&self, what: &str) -> AsmError {
        AsmError {
            line: self.line,
            msg: format!("{}: bad/missing {what}", self.mnemonic),
        }
    }

    fn x(&self, i: usize) -> Result<XReg, AsmError> {
        self.parts
            .get(i)
            .copied()
            .ok_or_else(|| self.e("register"))
            .and_then(|s| parse_xreg(s).map_err(|_| self.e("x-register")))
    }

    fn f(&self, i: usize) -> Result<FReg, AsmError> {
        self.parts
            .get(i)
            .copied()
            .ok_or_else(|| self.e("register"))
            .and_then(|s| parse_freg(s).map_err(|_| self.e("f-register")))
    }

    fn v(&self, i: usize) -> Result<VReg, AsmError> {
        self.parts
            .get(i)
            .copied()
            .ok_or_else(|| self.e("register"))
            .and_then(|s| parse_vreg(s).map_err(|_| self.e("v-register")))
    }

    fn imm(&self, i: usize) -> Result<i64, AsmError> {
        self.parts
            .get(i)
            .copied()
            .ok_or_else(|| self.e("immediate"))
            .and_then(|s| parse_int(s).map_err(|_| self.e("immediate")))
    }

    fn mem(&self, i: usize) -> Result<(i32, XReg), AsmError> {
        self.parts
            .get(i)
            .copied()
            .ok_or_else(|| self.e("memory operand"))
            .and_then(|s| parse_memref(s).map_err(|_| self.e("memory operand")))
    }

    fn label(&self, i: usize) -> Result<&'a str, AsmError> {
        let s = self.parts.get(i).copied().ok_or_else(|| self.e("label"))?;
        if is_ident(s) && parse_int(s).is_err() {
            Ok(s)
        } else {
            Err(self.e("label"))
        }
    }

    /// Either a numeric byte offset or a label.
    fn target(&self, i: usize) -> Result<Target<'a>, AsmError> {
        let s = self
            .parts
            .get(i)
            .copied()
            .ok_or_else(|| self.e("branch target"))?;
        if let Ok(v) = parse_int(s) {
            Ok(Target::Offset(v as i32))
        } else if is_ident(s) {
            Ok(Target::Label(s))
        } else {
            Err(self.e("branch target"))
        }
    }
}

enum Target<'a> {
    Offset(i32),
    Label(&'a str),
}

fn instruction(b: &mut ModuleBuilder, s: &str, line: usize) -> Result<(), AsmError> {
    let (mnemonic, rest) = match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    };
    let parts: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let o = Ops {
        parts,
        line,
        mnemonic,
    };

    if let Some(kind) = BranchKind::from_mnemonic(mnemonic) {
        let (rs1, rs2) = (o.x(0)?, o.x(1)?);
        match o.target(2)? {
            Target::Offset(offset) => {
                b.inst(Inst::Branch {
                    kind,
                    rs1,
                    rs2,
                    offset,
                });
            }
            Target::Label(l) => {
                b.branch_to(kind, rs1, rs2, l);
            }
        }
        return Ok(());
    }
    if let Some(kind) = LoadKind::from_mnemonic(mnemonic) {
        let rd = o.x(0)?;
        let (offset, rs1) = o.mem(1)?;
        b.inst(Inst::Load {
            kind,
            rd,
            rs1,
            offset,
        });
        return Ok(());
    }
    if let Some(kind) = StoreKind::from_mnemonic(mnemonic) {
        let rs2 = o.x(0)?;
        let (offset, rs1) = o.mem(1)?;
        b.inst(Inst::Store {
            kind,
            rs1,
            rs2,
            offset,
        });
        return Ok(());
    }
    if let Some(kind) = OpImmKind::from_mnemonic(mnemonic) {
        b.inst(Inst::OpImm {
            kind,
            rd: o.x(0)?,
            rs1: o.x(1)?,
            imm: o.imm(2)? as i32,
        });
        return Ok(());
    }
    if let Some(kind) = OpKind::from_mnemonic(mnemonic) {
        b.inst(Inst::Op {
            kind,
            rd: o.x(0)?,
            rs1: o.x(1)?,
            rs2: o.x(2)?,
        });
        return Ok(());
    }
    if let Some(kind) = UnaryKind::from_mnemonic(mnemonic) {
        b.inst(Inst::Unary {
            kind,
            rd: o.x(0)?,
            rs1: o.x(1)?,
        });
        return Ok(());
    }

    match mnemonic {
        "lui" => {
            b.inst(Inst::Lui {
                rd: o.x(0)?,
                imm20: o.imm(1)? as i32,
            });
        }
        "auipc" => {
            b.inst(Inst::Auipc {
                rd: o.x(0)?,
                imm20: o.imm(1)? as i32,
            });
        }
        "jal" => match o.n() {
            1 => match o.target(0)? {
                Target::Offset(offset) => {
                    b.inst(Inst::Jal {
                        rd: XReg::RA,
                        offset,
                    });
                }
                Target::Label(l) => {
                    b.jal_to(XReg::RA, l);
                }
            },
            2 => {
                let rd = o.x(0)?;
                match o.target(1)? {
                    Target::Offset(offset) => {
                        b.inst(Inst::Jal { rd, offset });
                    }
                    Target::Label(l) => {
                        b.jal_to(rd, l);
                    }
                }
            }
            _ => return err(line, "jal: expected 1 or 2 operands".into()),
        },
        "jalr" => match o.n() {
            1 => {
                if let Ok(rs1) = o.x(0) {
                    b.inst(Inst::Jalr {
                        rd: XReg::RA,
                        rs1,
                        offset: 0,
                    });
                } else {
                    let (offset, rs1) = o.mem(0)?;
                    b.inst(Inst::Jalr {
                        rd: XReg::RA,
                        rs1,
                        offset,
                    });
                }
            }
            2 => {
                let rd = o.x(0)?;
                let (offset, rs1) = o.mem(1)?;
                b.inst(Inst::Jalr { rd, rs1, offset });
            }
            _ => return err(line, "jalr: expected 1 or 2 operands".into()),
        },
        "fence" => {
            b.inst(Inst::Fence);
        }
        "ecall" => {
            b.inst(Inst::Ecall);
        }
        "ebreak" => {
            b.inst(Inst::Ebreak);
        }
        // Pseudo instructions.
        "nop" => {
            b.inst(chimera_isa::nop());
        }
        "mv" => {
            b.inst(chimera_isa::mv(o.x(0)?, o.x(1)?));
        }
        "neg" => {
            b.inst(Inst::Op {
                kind: OpKind::Sub,
                rd: o.x(0)?,
                rs1: XReg::ZERO,
                rs2: o.x(1)?,
            });
        }
        "not" => {
            b.inst(Inst::OpImm {
                kind: OpImmKind::Xori,
                rd: o.x(0)?,
                rs1: o.x(1)?,
                imm: -1,
            });
        }
        "seqz" => {
            b.inst(Inst::OpImm {
                kind: OpImmKind::Sltiu,
                rd: o.x(0)?,
                rs1: o.x(1)?,
                imm: 1,
            });
        }
        "snez" => {
            b.inst(Inst::Op {
                kind: OpKind::Sltu,
                rd: o.x(0)?,
                rs1: XReg::ZERO,
                rs2: o.x(1)?,
            });
        }
        "li" => {
            b.li(o.x(0)?, o.imm(1)?);
        }
        "la" => {
            b.la(o.x(0)?, o.label(1)?);
        }
        "j" => match o.target(0)? {
            Target::Offset(offset) => {
                b.inst(Inst::Jal {
                    rd: XReg::ZERO,
                    offset,
                });
            }
            Target::Label(l) => {
                b.jump(l);
            }
        },
        "jr" => {
            b.inst(Inst::Jalr {
                rd: XReg::ZERO,
                rs1: o.x(0)?,
                offset: 0,
            });
        }
        "ret" => {
            b.ret();
        }
        "call" => {
            b.call(o.label(0)?);
        }
        "beqz" | "bnez" => {
            let kind = if mnemonic == "beqz" {
                BranchKind::Beq
            } else {
                BranchKind::Bne
            };
            let rs = o.x(0)?;
            match o.target(1)? {
                Target::Offset(offset) => {
                    b.inst(Inst::Branch {
                        kind,
                        rs1: rs,
                        rs2: XReg::ZERO,
                        offset,
                    });
                }
                Target::Label(l) => {
                    b.branch_to(kind, rs, XReg::ZERO, l);
                }
            }
        }
        "flw" | "fld" => {
            let width = if mnemonic == "flw" {
                FpWidth::S
            } else {
                FpWidth::D
            };
            let frd = o.f(0)?;
            let (offset, rs1) = o.mem(1)?;
            b.inst(Inst::FLoad {
                width,
                frd,
                rs1,
                offset,
            });
        }
        "fsw" | "fsd" => {
            let width = if mnemonic == "fsw" {
                FpWidth::S
            } else {
                FpWidth::D
            };
            let frs2 = o.f(0)?;
            let (offset, rs1) = o.mem(1)?;
            b.inst(Inst::FStore {
                width,
                frs2,
                rs1,
                offset,
            });
        }
        "vsetvli" => {
            // vsetvli rd, rs1, eN, mN, ta|tu, ma|mu
            let rd = o.x(0)?;
            let rs1 = o.x(1)?;
            let sew = match o.parts.get(2).copied() {
                Some("e8") => Eew::E8,
                Some("e16") => Eew::E16,
                Some("e32") => Eew::E32,
                Some("e64") => Eew::E64,
                _ => return err(line, "vsetvli: bad sew".into()),
            };
            let lmul = match o.parts.get(3).copied() {
                Some("m1") => 1,
                Some("m2") => 2,
                Some("m4") => 4,
                Some("m8") => 8,
                _ => return err(line, "vsetvli: bad lmul".into()),
            };
            let ta = match o.parts.get(4).copied() {
                Some("ta") | None => true,
                Some("tu") => false,
                _ => return err(line, "vsetvli: bad ta/tu".into()),
            };
            let ma = match o.parts.get(5).copied() {
                Some("ma") | None => true,
                Some("mu") => false,
                _ => return err(line, "vsetvli: bad ma/mu".into()),
            };
            b.inst(Inst::Vsetvli {
                rd,
                rs1,
                vtype: VType { sew, lmul, ta, ma },
            });
        }
        "vmv.x.s" => {
            b.inst(Inst::VMvXS {
                rd: o.x(0)?,
                vs2: o.v(1)?,
            });
        }
        "vmv.s.x" => {
            b.inst(Inst::VMvSX {
                vd: o.v(0)?,
                rs1: o.x(1)?,
            });
        }
        "vmv.v.v" => {
            b.inst(Inst::VArith {
                op: VArithOp::Vmv,
                vd: o.v(0)?,
                vs2: VReg::V0,
                src: VSrc::V(o.v(1)?),
            });
        }
        "vmv.v.x" => {
            b.inst(Inst::VArith {
                op: VArithOp::Vmv,
                vd: o.v(0)?,
                vs2: VReg::V0,
                src: VSrc::X(o.x(1)?),
            });
        }
        "vmv.v.i" => {
            b.inst(Inst::VArith {
                op: VArithOp::Vmv,
                vd: o.v(0)?,
                vs2: VReg::V0,
                src: VSrc::I(o.imm(1)? as i8),
            });
        }
        m => {
            // FP alu/compare/fma/cvt/mv with width suffix, or vector arith
            // with form suffix.
            if try_fp(b, m, &o)? || try_vector(b, m, &o)? {
                return Ok(());
            }
            return err(line, format!("unknown mnemonic {m:?}"));
        }
    }
    Ok(())
}

fn try_fp(b: &mut ModuleBuilder, m: &str, o: &Ops<'_>) -> Result<bool, AsmError> {
    let Some(dot) = m.rfind('.') else {
        return Ok(false);
    };
    let (stem, suffix) = (&m[..dot], &m[dot + 1..]);
    let width = match suffix {
        "s" => FpWidth::S,
        "d" => FpWidth::D,
        "w" | "x" | "l" | "wu" | "lu" => {
            // fmv.x.d / fmv.d.x / fcvt forms handled below by full match.
            return try_fp_full(b, m, o);
        }
        _ => return Ok(false),
    };
    if let Some(kind) = FOpKind::from_stem(stem) {
        b.inst(Inst::FOp {
            kind,
            width,
            frd: o.f(0)?,
            frs1: o.f(1)?,
            frs2: o.f(2)?,
        });
        return Ok(true);
    }
    if let Some(kind) = FCmpKind::from_stem(stem) {
        b.inst(Inst::FCmp {
            kind,
            width,
            rd: o.x(0)?,
            frs1: o.f(1)?,
            frs2: o.f(2)?,
        });
        return Ok(true);
    }
    if let Some(kind) = FMaKind::from_stem(stem) {
        b.inst(Inst::FMa {
            kind,
            width,
            frd: o.f(0)?,
            frs1: o.f(1)?,
            frs2: o.f(2)?,
            frs3: o.f(3)?,
        });
        return Ok(true);
    }
    // Pseudos: fmv.d fd, fs; fneg.d; fabs.d.
    let pseudo = match stem {
        "fmv" => Some(FOpKind::SgnJ),
        "fneg" => Some(FOpKind::SgnJN),
        "fabs" => Some(FOpKind::SgnJX),
        _ => None,
    };
    if let Some(kind) = pseudo {
        let fs = o.f(1)?;
        b.inst(Inst::FOp {
            kind,
            width,
            frd: o.f(0)?,
            frs1: fs,
            frs2: fs,
        });
        return Ok(true);
    }
    try_fp_full(b, m, o)
}

fn try_fp_full(b: &mut ModuleBuilder, m: &str, o: &Ops<'_>) -> Result<bool, AsmError> {
    // fmv.x.w / fmv.x.d / fmv.w.x / fmv.d.x
    match m {
        "fmv.x.w" | "fmv.x.d" => {
            let width = if m.ends_with('w') {
                FpWidth::S
            } else {
                FpWidth::D
            };
            b.inst(Inst::FMvToX {
                width,
                rd: o.x(0)?,
                frs1: o.f(1)?,
            });
            return Ok(true);
        }
        "fmv.w.x" | "fmv.d.x" => {
            let width = if m.starts_with("fmv.w") {
                FpWidth::S
            } else {
                FpWidth::D
            };
            b.inst(Inst::FMvToF {
                width,
                frd: o.f(0)?,
                rs1: o.x(1)?,
            });
            return Ok(true);
        }
        "fcvt.d.s" => {
            b.inst(Inst::FCvtFF {
                to: FpWidth::D,
                frd: o.f(0)?,
                frs1: o.f(1)?,
            });
            return Ok(true);
        }
        "fcvt.s.d" => {
            b.inst(Inst::FCvtFF {
                to: FpWidth::S,
                frd: o.f(0)?,
                frs1: o.f(1)?,
            });
            return Ok(true);
        }
        _ => {}
    }
    // fcvt.{fmt}.{int} and fcvt.{int}.{fmt}
    let parts: Vec<&str> = m.split('.').collect();
    if parts.len() == 3 && parts[0] == "fcvt" {
        let fpw = |s: &str| match s {
            "s" => Some(FpWidth::S),
            "d" => Some(FpWidth::D),
            _ => None,
        };
        let intw = |s: &str| match s {
            "w" => Some((IntWidth::W, true)),
            "wu" => Some((IntWidth::W, false)),
            "l" => Some((IntWidth::L, true)),
            "lu" => Some((IntWidth::L, false)),
            _ => None,
        };
        if let (Some(width), Some((from, signed))) = (fpw(parts[1]), intw(parts[2])) {
            b.inst(Inst::FCvtToF {
                width,
                from,
                signed,
                frd: o.f(0)?,
                rs1: o.x(1)?,
            });
            return Ok(true);
        }
        if let (Some((to, signed)), Some(width)) = (intw(parts[1]), fpw(parts[2])) {
            b.inst(Inst::FCvtToInt {
                width,
                to,
                signed,
                rd: o.x(0)?,
                frs1: o.f(1)?,
            });
            return Ok(true);
        }
    }
    Ok(false)
}

fn try_vector(b: &mut ModuleBuilder, m: &str, o: &Ops<'_>) -> Result<bool, AsmError> {
    // Vector loads/stores: vle{8,16,32,64}.v / vse{8,16,32,64}.v
    if let Some(rest) = m.strip_prefix("vle").or_else(|| m.strip_prefix("vse")) {
        if let Some(bits) = rest.strip_suffix(".v") {
            let eew = match bits {
                "8" => Eew::E8,
                "16" => Eew::E16,
                "32" => Eew::E32,
                "64" => Eew::E64,
                _ => return Ok(false),
            };
            let vreg = o.v(0)?;
            let (offset, rs1) = o.mem(1)?;
            if offset != 0 {
                return Err(o.e("vector memory operand must have no offset"));
            }
            if m.starts_with("vle") {
                b.inst(Inst::VLoad { eew, vd: vreg, rs1 });
            } else {
                b.inst(Inst::VStore {
                    eew,
                    vs3: vreg,
                    rs1,
                });
            }
            return Ok(true);
        }
    }
    // Arithmetic: stem.{vv,vx,vi,vf,vs}
    let Some(dot) = m.rfind('.') else {
        return Ok(false);
    };
    let (stem, form) = (&m[..dot], &m[dot + 1..]);
    // `vmv` is spelled `vmv.v.{v,x,i}` and was matched in full above.
    let Some(op) = VArithOp::from_stem(stem).filter(|&op| op != VArithOp::Vmv) else {
        return Ok(false);
    };
    let vd = o.v(0)?;
    let vs2 = o.v(1)?;
    let src = match form {
        "vv" | "vs" => VSrc::V(o.v(2)?),
        "vx" => VSrc::X(o.x(2)?),
        "vf" => VSrc::F(o.f(2)?),
        "vi" => VSrc::I(o.imm(2)? as i8),
        _ => return Ok(false),
    };
    b.inst(Inst::VArith { op, vd, vs2, src });
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::TEXT_BASE;
    use chimera_isa::decode;

    fn asm(src: &str) -> Binary {
        assemble(src, AsmOptions::default()).expect("assembles")
    }

    #[test]
    fn minimal_program() {
        let bin = asm("
            .text
            _start:
                li a0, 42
                ecall
        ");
        assert_eq!(bin.entry, TEXT_BASE);
        let w = bin.read_u32(TEXT_BASE).unwrap();
        assert_eq!(
            decode(w).unwrap().inst,
            Inst::OpImm {
                kind: OpImmKind::Addi,
                rd: XReg::A0,
                rs1: XReg::ZERO,
                imm: 42
            }
        );
    }

    #[test]
    fn loops_and_branches() {
        let bin = asm("
            _start:
                li t0, 10
                li t1, 0
            loop:
                add t1, t1, t0
                addi t0, t0, -1
                bnez t0, loop
                ecall
        ");
        bin.validate().unwrap();
    }

    #[test]
    fn data_and_la() {
        let bin = asm("
            .data
            counter: .dword 7
            .text
            _start:
                la a0, counter
                ld a1, 0(a0)
                ecall
        ");
        let counter = bin.section(".data").unwrap();
        assert_eq!(
            u64::from_le_bytes(counter.data[0..8].try_into().unwrap()),
            7
        );
    }

    #[test]
    fn jump_table_via_dword_label() {
        let bin = asm("
            .text
            _start:
                nop
            f1: ret
            f2: ret
            .rodata
            table:
                .dword f1
                .dword f2
        ");
        let ro = bin.section(".rodata").unwrap();
        let p1 = u64::from_le_bytes(ro.data[0..8].try_into().unwrap());
        let p2 = u64::from_le_bytes(ro.data[8..16].try_into().unwrap());
        assert_eq!(p1, TEXT_BASE + 4);
        assert_eq!(p2, TEXT_BASE + 8);
    }

    #[test]
    fn vector_section_roundtrip() {
        let bin = asm("
            _start:
                vsetvli t0, a2, e64, m1, ta, ma
                vle64.v v1, (a0)
                vle64.v v2, (a1)
                vfmacc.vv v3, v1, v2
                vse64.v v3, (a0)
                vredsum.vs v4, v1, v2
                vadd.vi v5, v1, -3
                vmv.v.x v6, a3
                ecall
        ");
        bin.validate().unwrap();
        // Spot-check one decode.
        let w = bin.read_u32(TEXT_BASE + 4).unwrap();
        assert_eq!(
            decode(w).unwrap().inst,
            Inst::VLoad {
                eew: Eew::E64,
                vd: VReg::of(1),
                rs1: XReg::A0
            }
        );
    }

    #[test]
    fn fp_mnemonics() {
        let bin = asm("
            _start:
                fld fa0, 0(a0)
                fadd.d fa1, fa0, fa0
                fmadd.d fa2, fa0, fa1, fa1
                fcvt.d.l fa3, a1
                fcvt.l.d a2, fa3
                fmv.x.d a3, fa2
                feq.d a4, fa1, fa2
                fsd fa2, 8(a0)
                ecall
        ");
        bin.validate().unwrap();
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("_start:\n  frobnicate a0\n", AsmOptions::default()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn compressed_option_shrinks() {
        let src = "
            _start:
                addi a0, a0, 1
                addi a0, a0, 1
                ecall
        ";
        let fat = assemble(
            src,
            AsmOptions {
                compress: false,
                ..Default::default()
            },
        )
        .unwrap();
        let slim = assemble(
            src,
            AsmOptions {
                compress: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            slim.section(".text").unwrap().data.len() < fat.section(".text").unwrap().data.len()
        );
    }

    #[test]
    fn zbb_and_m_mnemonics() {
        let bin = asm("
            _start:
                sh1add a0, a1, a2
                mul a3, a4, a5
                clz t0, t1
                rev8 t2, t3
                zext.h s2, s3
                add.uw s4, s5, s6
                ecall
        ");
        bin.validate().unwrap();
    }
}
