//! A two-pass text assembler for the modelled RV64IMFDCVB subset.
//!
//! Every instruction is read by [`chimera_isa::parse`], from the syntax
//! table `Display` prints from (`tests/asm_roundtrip.rs` assembles the
//! printed text of every name back to the same instruction). This module
//! adds what the table does not print: branches and `jal` to labels, the
//! common GNU-style pseudo instructions (`li`, `la`, `mv`, `call`, `ret`,
//! `j`, `beqz`, ...) and short forms (`jal target`, `jalr rs1`), and the
//! section/data directives needed to build complete test programs:
//! `.text`, `.data`, `.rodata`, `.global`, `.align`, `.byte`, `.half`,
//! `.word`, `.dword` (which accepts label names, producing absolute code
//! addresses for jump tables), and `.zero`. A value wider than its field
//! is an error on its line, never truncated; `.byte`, `.half` and `.word`
//! take both the signed and the unsigned range of their width.
//!
//! Comments start with `#` and run to end of line.

use crate::binary::Binary;
use crate::builder::{BuildError, DataSec, ModuleBuilder};
use chimera_isa::{parse_int, BranchKind, ExtSet, Inst, XReg};
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
            let n: u32 = args.parse().map_err(|_| AsmError {
                line,
                msg: format!("bad alignment {args:?}"),
            })?;
            if *cursor == Cursor::Text {
                return err(line, ".align in .text is unsupported".into());
            }
            // A data section starts on a page; it cannot promise more.
            if n > 12 {
                return err(line, format!(".align {n}: more than a 4 KiB page"));
            }
            b.align(sec, 1 << n);
        }
        "byte" | "half" | "word" | "dword" | "quad" => {
            if *cursor == Cursor::Text {
                return err(line, "data directive in .text".into());
            }
            let bytes = match name {
                "byte" => 1,
                "half" => 2,
                "word" => 4,
                _ => 8,
            };
            for tok in args.split(',') {
                let tok = tok.trim();
                if let Some(v) = parse_int(tok, bytes * 8) {
                    b.data_bytes(sec, &v.to_le_bytes()[..bytes as usize]);
                } else if bytes == 8 && is_label(tok) {
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

/// Whether `s` names a label rather than a number.
fn is_label(s: &str) -> bool {
    is_ident(s) && parse_int(s, 64).is_none()
}

/// At most this many operands: `vsetvli`'s six.
const MAX_OPERANDS: usize = 6;

fn instruction(b: &mut ModuleBuilder, s: &str, line: usize) -> Result<(), AsmError> {
    let (mnemonic, rest) = match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    };
    let mut ops = [""; MAX_OPERANDS];
    let mut n = 0;
    for op in rest.split(',').filter(|_| !rest.is_empty()) {
        *ops.get_mut(n).ok_or_else(|| AsmError {
            line,
            msg: format!("{mnemonic}: more than {MAX_OPERANDS} operands"),
        })? = op.trim();
        n += 1;
    }
    emit(b, mnemonic, &ops[..n], line)
}

/// Emits one instruction, pseudo-instruction, short form or branch to a
/// label.
fn emit(b: &mut ModuleBuilder, mnemonic: &str, ops: &[&str], line: usize) -> Result<(), AsmError> {
    // Every instruction `Display` prints, as the ISA's syntax table reads it.
    let table_error = match chimera_isa::parse(mnemonic, ops) {
        Ok(inst) => {
            b.inst(inst);
            return Ok(());
        }
        Err(e) => e,
    };
    let bad = |msg: &dyn fmt::Display| AsmError {
        line,
        msg: format!("{mnemonic}: {msg}"),
    };
    let x = |name: &str| XReg::from_name(name).ok_or_else(|| bad(&"bad x-register"));
    let label = |name: &str| match is_label(name) {
        true => Ok(()),
        false => Err(bad(&"bad label")),
    };
    let wrong_count = |n: usize| bad(&format_args!("expected {n} operand(s)"));
    match (mnemonic, ops, BranchKind::from_mnemonic(mnemonic)) {
        (_, &[rs1, rs2, l], Some(kind)) if is_label(l) => {
            b.branch_to(kind, x(rs1)?, x(rs2)?, l);
        }
        ("jal", &[rd, l], _) if is_label(l) => {
            b.jal_to(x(rd)?, l);
        }
        ("jr" | "jalr", &[rs1], _) if XReg::from_name(rs1).is_some() => {
            let rd = if mnemonic == "jr" {
                XReg::ZERO
            } else {
                XReg::RA
            };
            b.inst(Inst::Jalr {
                rd,
                rs1: x(rs1)?,
                offset: 0,
            });
        }
        ("li", _, _) => {
            let &[rd, value] = ops else {
                return Err(wrong_count(2));
            };
            let value = parse_int(value, 64).ok_or_else(|| bad(&"bad 64-bit value"))?;
            b.li(x(rd)?, value);
        }
        ("la", _, _) => {
            let &[rd, l] = ops else {
                return Err(wrong_count(2));
            };
            label(l)?;
            b.la(x(rd)?, l);
        }
        ("call", _, _) => {
            let &[l] = ops else {
                return Err(wrong_count(1));
            };
            label(l)?;
            b.call(l);
        }
        _ => {
            // The other pseudo-instructions and short forms, as the
            // instruction they stand for; `$0` and `$1` are their
            // `arity` operands.
            let (arity, name, template): (usize, &str, &[&str]) = match mnemonic {
                "nop" => (0, "addi", &["zero", "zero", "0"]),
                "mv" => (2, "addi", &["$0", "$1", "0"]),
                "neg" => (2, "sub", &["$0", "zero", "$1"]),
                "not" => (2, "xori", &["$0", "$1", "-1"]),
                "seqz" => (2, "sltiu", &["$0", "$1", "1"]),
                "snez" => (2, "sltu", &["$0", "zero", "$1"]),
                "ret" => (0, "jalr", &["zero", "0(ra)"]),
                "j" => (1, "jal", &["zero", "$0"]),
                "jal" | "jalr" if ops.len() == 1 => (1, mnemonic, &["ra", "$0"]),
                "beqz" => (2, "beq", &["$0", "zero", "$1"]),
                "bnez" => (2, "bne", &["$0", "zero", "$1"]),
                "fmv.s" => (2, "fsgnj.s", &["$0", "$1", "$1"]),
                "fmv.d" => (2, "fsgnj.d", &["$0", "$1", "$1"]),
                "fneg.s" => (2, "fsgnjn.s", &["$0", "$1", "$1"]),
                "fneg.d" => (2, "fsgnjn.d", &["$0", "$1", "$1"]),
                "fabs.s" => (2, "fsgnjx.s", &["$0", "$1", "$1"]),
                "fabs.d" => (2, "fsgnjx.d", &["$0", "$1", "$1"]),
                _ => return Err(bad(&table_error)),
            };
            if ops.len() != arity {
                return Err(wrong_count(arity));
            }
            let mut expanded = [""; 3];
            for (op, t) in expanded.iter_mut().zip(template) {
                *op = match *t {
                    "$0" => ops[0],
                    "$1" => ops[1],
                    t => t,
                };
            }
            return emit(b, name, &expanded[..template.len()], line);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::TEXT_BASE;
    use chimera_isa::{decode, Eew, OpImmKind, VReg};

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
    fn errors_name_the_mnemonic_and_what_is_wrong() {
        for (src, msg) in [
            ("frobnicate a0", "frobnicate: unknown mnemonic"),
            ("add a0, a1", "add: operand 3: expected an x register"),
            ("addi a0, a1, 1, 2", "addi: too many operands"),
            ("li a0", "li: expected 2 operand(s)"),
            ("la a0, 5", "la: bad label"),
            ("mv a0", "mv: expected 2 operand(s)"),
            ("neg a0, 5", "sub: operand 3: expected an x register"),
            ("beq a0, q!, done", "beq: bad x-register"),
        ] {
            let e = assemble(&format!("_start:\n{src}\ndone:\n"), AsmOptions::default());
            assert_eq!(e.unwrap_err().to_string(), format!("line 2: {msg}"));
        }
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

    /// The first `n` words of the text section.
    fn text_words(bin: &Binary, n: usize) -> Vec<u32> {
        (0..n as u64)
            .map(|i| bin.read_u32(TEXT_BASE + 4 * i).unwrap())
            .collect()
    }

    #[test]
    fn values_wider_than_their_field_are_errors_on_their_line() {
        for src in [
            "ld a0, 4294967296(sp)",
            "addi a0, a0, 4294967297",
            "slli a0, a0, 4294967297",
            "jal a0, 4294967304",
            "lui a0, 0x100000001",
            "vadd.vi v1, v2, 256",
            "li a0, 0x10000000000000000",
            ".data\n.byte 300",
            ".data\n.half 70000",
            ".data\n.word -0x80000001",
            ".data\n.byte -129",
        ] {
            let e = assemble(&format!("_start:\n{src}\n"), AsmOptions::default()).unwrap_err();
            assert_eq!(e.line, src.lines().count() + 1, "{src}: {e}");
        }
        // A 32-bit field takes the two's complement `Display` prints for a
        // negative `lui`, and data takes the signed and the unsigned range.
        let bin = asm("_start:\n lui a0, 0xffffffff\n lui a1, -1\n");
        let [a, b] = text_words(&bin, 2)[..] else {
            unreachable!()
        };
        assert_eq!(decode(a).unwrap().inst.to_string(), "lui a0, 0xffffffff");
        assert_eq!(decode(b).unwrap().inst.to_string(), "lui a1, 0xffffffff");
        let bin =
            asm("_start: ret\n.data\n.byte 255, -128\n.half 65535, -32768\n.word 0xffffffff, -1\n");
        let data = &bin.section(".data").unwrap().data;
        assert_eq!(
            data[..14],
            [255, 128, 255, 255, 0, 128, 255, 255, 255, 255, 255, 255, 255, 255]
        );
    }

    #[test]
    fn align_beyond_a_page_is_an_error() {
        let e = assemble(".data\n.align 64\n", AsmOptions::default()).unwrap_err();
        assert_eq!(e.line, 2);
        asm("_start: ret\n.data\n.align 12\n.byte 1\n");
    }

    #[test]
    fn li_takes_i64_min() {
        let bin = asm("_start:\n li a0, -0x8000000000000000\n");
        let seq = crate::builder::li_sequence(XReg::A0, i64::MIN);
        let want: Vec<u32> = seq
            .iter()
            .map(|i| chimera_isa::encode(i).unwrap())
            .collect();
        assert_eq!(text_words(&bin, want.len()), want);
    }
}
