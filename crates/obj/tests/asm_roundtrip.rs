//! The assembler reads back what the disassembler prints: for every
//! instruction `decode` produces, assembling `inst.to_string()` and decoding
//! the result gives `inst` again. The instructions are a seeded sample of
//! the 32-bit words `decode` accepts plus the names random words rarely
//! hit; the pseudo-instructions and short forms, which `Display` never
//! prints, are checked against their expansions.

use chimera_isa::prng::Prng;
use chimera_isa::{decode, Inst};
use chimera_obj::{assemble, AsmOptions, Binary};
use std::collections::BTreeSet;

/// Accepted words drawn: 182 names.
const WORDS: usize = 300_000;

/// Instructions one accepted random word in tens of thousands (or fewer)
/// decodes to.
const RARE: &[&str] = &[
    "ecall",
    "ebreak",
    "fence",
    "ctz t0, t6",
    "fmv.x.w a0, fa0",
    "fmv.x.d a1, ft0",
    "fmv.w.x fa2, t0",
    "fmv.d.x fs11, zero",
    "vmv.v.v v1, v3",
    "vmv.v.x v4, a5",
    "vmv.v.i v6, -16",
    "vmv.x.s a0, v31",
    "vmv.s.x v0, sp",
    "vle8.v v1, (a0)",
    "vle16.v v2, (sp)",
    "vle32.v v3, (t6)",
    "vle64.v v31, (zero)",
    "vse8.v v1, (a0)",
    "vse16.v v2, (sp)",
    "vse32.v v3, (t6)",
    "vse64.v v31, (zero)",
];

fn assemble_text(lines: &[String]) -> Binary {
    let mut src = String::from("_start:\n");
    for l in lines {
        src.push_str(l);
        src.push('\n');
    }
    assemble(&src, AsmOptions::default()).unwrap_or_else(|e| {
        let text = e.line.checked_sub(2).and_then(|i| lines.get(i));
        panic!("{e} ({text:?})")
    })
}

fn text_insts(bin: &Binary) -> Vec<Inst> {
    let text = &bin.section(".text").expect("a text section").data;
    assert_eq!(text.len() % 4, 0, "uncompressed text is whole words");
    text.chunks_exact(4)
        .map(|w| {
            decode(u32::from_le_bytes(w.try_into().unwrap()))
                .unwrap()
                .inst
        })
        .collect()
}

fn mnemonic(inst: &Inst) -> String {
    let text = inst.to_string();
    text.split(' ').next().unwrap().to_string()
}

/// The seeded sample, then the `RARE` lines as the assembler reads them.
fn sample() -> Vec<Inst> {
    let mut r = Prng::new(0x5eed_0035);
    let mut insts = Vec::with_capacity(WORDS + RARE.len());
    while insts.len() < WORDS {
        if let Ok(d) = decode(r.next_u32() | 0b11) {
            insts.push(d.inst);
        }
    }
    let rare: Vec<String> = RARE.iter().map(|l| l.to_string()).collect();
    insts.extend(text_insts(&assemble_text(&rare)));
    insts
}

#[test]
fn every_printed_instruction_assembles_back_to_itself() {
    let insts = sample();
    let printed: BTreeSet<String> = insts.iter().map(mnemonic).collect();
    let table: BTreeSet<String> = chimera_isa::mnemonics().map(String::from).collect();
    let missing: Vec<_> = table.difference(&printed).collect();
    assert!(missing.is_empty(), "the sample misses {missing:?}");
    let lines: Vec<String> = insts.iter().map(Inst::to_string).collect();
    let back = text_insts(&assemble_text(&lines));
    assert_eq!(back.len(), insts.len());
    for ((line, inst), got) in lines.iter().zip(&insts).zip(&back) {
        assert_eq!(got, inst, "{line}");
    }
}

/// `(source line, the instructions it assembles to, as printed)`; a
/// `target` label follows the line.
const EXPANSIONS: &[(&str, &[&str])] = &[
    ("nop", &["addi zero, zero, 0"]),
    ("mv a0, a1", &["addi a0, a1, 0"]),
    ("neg a0, a1", &["sub a0, zero, a1"]),
    ("not a0, a1", &["xori a0, a1, -1"]),
    ("seqz a0, a1", &["sltiu a0, a1, 1"]),
    ("snez a0, a1", &["sltu a0, zero, a1"]),
    ("li a0, -42", &["addi a0, zero, -42"]),
    ("li a0, 0x12345", &["lui a0, 0x12", "addiw a0, a0, 837"]),
    ("la a0, target", &["auipc a0, 0x0", "addi a0, a0, 8"]),
    ("j target", &["jal zero, 4"]),
    ("j -4", &["jal zero, -4"]),
    ("jr t0", &["jalr zero, 0(t0)"]),
    ("ret", &["jalr zero, 0(ra)"]),
    ("call target", &["auipc ra, 0x0", "jalr ra, 8(ra)"]),
    ("beqz a0, target", &["beq a0, zero, 4"]),
    ("bnez a0, -8", &["bne a0, zero, -8"]),
    ("fmv.s fa0, fa1", &["fsgnj.s fa0, fa1, fa1"]),
    ("fmv.d fa0, fa1", &["fsgnj.d fa0, fa1, fa1"]),
    ("fneg.s fa0, fa1", &["fsgnjn.s fa0, fa1, fa1"]),
    ("fneg.d fa0, fa1", &["fsgnjn.d fa0, fa1, fa1"]),
    ("fabs.s fa0, fa1", &["fsgnjx.s fa0, fa1, fa1"]),
    ("fabs.d fa0, fa1", &["fsgnjx.d fa0, fa1, fa1"]),
    // Label targets and the short forms of `jal` / `jalr`.
    ("beq a0, a1, target", &["beq a0, a1, 4"]),
    ("bgeu a0, a1, _start", &["bgeu a0, a1, 0"]),
    ("jal target", &["jal ra, 4"]),
    ("jal t0, target", &["jal t0, 4"]),
    ("jal 16", &["jal ra, 16"]),
    ("jalr t1", &["jalr ra, 0(t1)"]),
    ("jalr 8(t1)", &["jalr ra, 8(t1)"]),
    // Other register spellings and an empty offset.
    ("add x10, fp, x0", &["add a0, s0, zero"]),
    ("fadd.d f10, f0, ft1", &["fadd.d fa0, ft0, ft1"]),
    ("ld a0, (sp)", &["ld a0, 0(sp)"]),
];

#[test]
fn pseudo_instructions_and_short_forms_expand_as_documented() {
    for (line, expected) in EXPANSIONS {
        let bin = assemble_text(&[line.to_string(), "target: nop".into()]);
        let got: Vec<String> = text_insts(&bin)
            .iter()
            .take(expected.len())
            .map(Inst::to_string)
            .collect();
        assert_eq!(got, *expected, "{line}");
    }
}
