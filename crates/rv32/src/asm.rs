//! A two-pass assembler for the RV32IM subset used by the sampler kernel.
//!
//! Supported syntax:
//!
//! - one instruction per line; `#` starts a comment
//! - labels: `name:` (alone or before an instruction)
//! - directives: `.word <value>` (value may be decimal, hex, or a label)
//! - base mnemonics: `lui auipc jal jalr beq bne blt bge bltu bgeu lb lh lw
//!   lbu lhu sb sh sw addi slti sltiu xori ori andi slli srli srai add sub
//!   sll slt sltu xor srl sra or and mul mulh mulhsu mulhu div divu rem remu
//!   ecall ebreak`
//! - pseudo-instructions: `nop`, `mv`, `li` (expands to `lui`+`addi` when
//!   needed), `not`, `neg`, `j`, `jr`, `ret`, `call` (near), `beqz`, `bnez`,
//!   `blez`, `bgez`, `bltz`, `bgtz`, `ble`, `bgt`

use crate::isa::{AluOp, BranchCond, Instruction, MemWidth, MulOp, Reg};
use std::collections::HashMap;
use std::fmt;

/// Errors produced while assembling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AssembleError {}

/// The output of assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Machine code words, one per instruction/`.word`.
    pub words: Vec<u32>,
    /// Label → byte offset map (relative to the load address).
    pub symbols: HashMap<String, u32>,
}

impl Program {
    /// Looks up a label's byte offset.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// The label at or nearest before byte `offset`, with the remaining
    /// distance — e.g. `("outer", 8)` for an instruction two words into the
    /// `outer` block. Useful for anchoring diagnostics to the listing.
    pub fn nearest_symbol(&self, offset: u32) -> Option<(&str, u32)> {
        self.symbols
            .iter()
            .filter(|(_, &off)| off <= offset)
            .max_by_key(|(name, &off)| (off, std::cmp::Reverse(name.as_str())))
            .map(|(name, &off)| (name.as_str(), offset - off))
    }
}

/// Assembles source text into machine code loaded at `base` (needed for
/// absolute label references in `li`-style expansions).
///
/// # Errors
///
/// Returns the first syntax or range error with its line number.
///
/// # Examples
///
/// ```
/// use reveal_rv32::asm::assemble;
/// let program = assemble("
///     li   a0, 42
///     addi a0, a0, 1
///     ebreak
/// ", 0)?;
/// assert_eq!(program.words.len(), 3);
/// # Ok::<(), reveal_rv32::asm::AssembleError>(())
/// ```
pub fn assemble(source: &str, base: u32) -> Result<Program, AssembleError> {
    // Pass 1: tokenize, expand pseudo-instruction *sizes*, collect labels.
    let mut items: Vec<(usize, Item)> = Vec::new(); // (line_no, item)
    let mut symbols: HashMap<String, u32> = HashMap::new();
    let mut offset = 0u32;
    for (line_idx, raw_line) in source.lines().enumerate() {
        let line_no = line_idx + 1;
        let mut line = raw_line;
        if let Some(pos) = line.find('#') {
            line = &line[..pos];
        }
        let mut rest = line.trim();
        // Labels (possibly several) at line start.
        while let Some(colon) = rest.find(':') {
            let (label, after) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            if symbols.insert(label.to_string(), offset).is_some() {
                return Err(AssembleError {
                    line: line_no,
                    message: format!("duplicate label `{label}`"),
                });
            }
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let item = parse_item(rest, line_no)?;
        offset += 4 * item.word_count();
        items.push((line_no, item));
    }

    // Pass 2: emit words with resolved labels.
    let mut words = Vec::new();
    let mut pc = 0u32;
    for (line_no, item) in &items {
        let emitted = item
            .emit(pc, base, &symbols)
            .map_err(|message| AssembleError {
                line: *line_no,
                message,
            })?;
        pc += 4 * emitted.len() as u32;
        words.extend(emitted);
    }
    Ok(Program { words, symbols })
}

/// A parsed source item (may expand to several words).
#[derive(Debug, Clone)]
enum Item {
    Word(WordValue),
    Insn(Mnemonic),
}

#[derive(Debug, Clone)]
enum WordValue {
    Literal(u32),
    Label(String),
}

/// A mnemonic with raw operands, resolved at emit time.
#[derive(Debug, Clone)]
struct Mnemonic {
    name: String,
    operands: Vec<String>,
}

impl Item {
    fn word_count(&self) -> u32 {
        match self {
            Item::Word(_) => 1,
            Item::Insn(m) => match m.name.as_str() {
                // `li` may need lui+addi; reserve 2 words when the immediate
                // cannot be known to fit 12 bits (labels or big literals).
                "li" => {
                    if let Some(v) = m.operands.get(1).and_then(|s| parse_imm_literal(s)) {
                        if (-2048..=2047).contains(&v) {
                            1
                        } else {
                            2
                        }
                    } else {
                        2
                    }
                }
                "la" | "call" => 2,
                _ => 1,
            },
        }
    }

    fn emit(&self, pc: u32, base: u32, symbols: &HashMap<String, u32>) -> Result<Vec<u32>, String> {
        match self {
            Item::Word(WordValue::Literal(v)) => Ok(vec![*v]),
            Item::Word(WordValue::Label(l)) => {
                let off = symbols
                    .get(l)
                    .ok_or_else(|| format!("unknown label `{l}`"))?;
                Ok(vec![base.wrapping_add(*off)])
            }
            Item::Insn(m) => emit_mnemonic(m, pc, base, symbols),
        }
    }
}

fn parse_item(text: &str, line: usize) -> Result<Item, AssembleError> {
    let mut parts = text.splitn(2, char::is_whitespace);
    let head = parts.next().unwrap_or("");
    let tail = parts.next().unwrap_or("").trim();
    if head == ".word" {
        let value = if let Some(v) = parse_u32_literal(tail) {
            WordValue::Literal(v)
        } else if !tail.is_empty() {
            WordValue::Label(tail.to_string())
        } else {
            return Err(AssembleError {
                line,
                message: ".word needs a value".into(),
            });
        };
        return Ok(Item::Word(value));
    }
    if head.starts_with('.') {
        return Err(AssembleError {
            line,
            message: format!("unsupported directive `{head}`"),
        });
    }
    let operands: Vec<String> = if tail.is_empty() {
        Vec::new()
    } else {
        tail.split(',').map(|s| s.trim().to_string()).collect()
    };
    Ok(Item::Insn(Mnemonic {
        name: head.to_lowercase(),
        operands,
    }))
}

fn parse_u32_literal(s: &str) -> Option<u32> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else if let Some(rest) = s.strip_prefix('-') {
        let v: i64 = rest.parse().ok()?;
        Some(v.checked_neg()? as u32)
    } else {
        s.parse::<u32>().ok()
    }
}

fn parse_imm_literal(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok().map(|v| v as i64)
    } else if let Some(hex) = s.strip_prefix("-0x") {
        u32::from_str_radix(hex, 16).ok().map(|v| -(v as i64))
    } else {
        s.parse::<i64>().ok()
    }
}

struct Ops<'a> {
    m: &'a Mnemonic,
    pc: u32,
    base: u32,
    symbols: &'a HashMap<String, u32>,
}

impl<'a> Ops<'a> {
    fn reg(&self, i: usize) -> Result<Reg, String> {
        let s = self
            .m
            .operands
            .get(i)
            .ok_or_else(|| format!("missing operand {i}"))?;
        Reg::parse(s).ok_or_else(|| format!("bad register `{s}`"))
    }

    fn imm(&self, i: usize) -> Result<i32, String> {
        let s = self
            .m
            .operands
            .get(i)
            .ok_or_else(|| format!("missing operand {i}"))?;
        if let Some(v) = parse_imm_literal(s) {
            if v > u32::MAX as i64 || v < i32::MIN as i64 {
                return Err(format!("immediate `{s}` out of range"));
            }
            // Interpret as a 32-bit pattern (0xF0000000 is a valid literal).
            return Ok(v as u32 as i32);
        }
        // Absolute address of a label.
        if let Some(off) = self.symbols.get(s.as_str()) {
            return Ok(self.base.wrapping_add(*off) as i32);
        }
        Err(format!("bad immediate `{s}`"))
    }

    /// PC-relative branch/jump target.
    fn target(&self, i: usize) -> Result<i32, String> {
        let s = self
            .m
            .operands
            .get(i)
            .ok_or_else(|| format!("missing operand {i}"))?;
        if let Some(off) = self.symbols.get(s.as_str()) {
            return Ok(off.wrapping_sub(self.pc) as i32);
        }
        if let Some(v) = parse_imm_literal(s) {
            return i32::try_from(v).map_err(|_| format!("target `{s}` out of range"));
        }
        Err(format!("unknown label `{s}`"))
    }

    /// `offset(reg)` memory operand.
    fn mem(&self, i: usize) -> Result<(Reg, i32), String> {
        let s = self
            .m
            .operands
            .get(i)
            .ok_or_else(|| format!("missing operand {i}"))?;
        let open = s
            .find('(')
            .ok_or_else(|| format!("bad memory operand `{s}`"))?;
        let close = s
            .find(')')
            .ok_or_else(|| format!("bad memory operand `{s}`"))?;
        let off_str = s[..open].trim();
        let offset = if off_str.is_empty() {
            0
        } else {
            let v = parse_imm_literal(off_str).ok_or_else(|| format!("bad offset `{off_str}`"))?;
            i32::try_from(v).map_err(|_| format!("offset `{off_str}` out of range"))?
        };
        let reg = Reg::parse(s[open + 1..close].trim())
            .ok_or_else(|| format!("bad register in `{s}`"))?;
        Ok((reg, offset))
    }

    fn arity(&self, n: usize) -> Result<(), String> {
        if self.m.operands.len() != n {
            return Err(format!(
                "`{}` expects {n} operands, got {}",
                self.m.name,
                self.m.operands.len()
            ));
        }
        Ok(())
    }
}

fn emit_mnemonic(
    m: &Mnemonic,
    pc: u32,
    base: u32,
    symbols: &HashMap<String, u32>,
) -> Result<Vec<u32>, String> {
    let ops = Ops {
        m,
        pc,
        base,
        symbols,
    };
    let one = |i: Instruction| encode_checked(i).map(|word| vec![word]);
    let alu_imm = |op: AluOp, ops: &Ops| -> Result<Vec<u32>, String> {
        ops.arity(3)?;
        one(Instruction::AluImm {
            op,
            rd: ops.reg(0)?,
            rs1: ops.reg(1)?,
            imm: ops.imm(2)?,
        })
    };
    let alu_reg = |op: AluOp, ops: &Ops| -> Result<Vec<u32>, String> {
        ops.arity(3)?;
        one(Instruction::AluReg {
            op,
            rd: ops.reg(0)?,
            rs1: ops.reg(1)?,
            rs2: ops.reg(2)?,
        })
    };
    let mul_op = |op: MulOp, ops: &Ops| -> Result<Vec<u32>, String> {
        ops.arity(3)?;
        one(Instruction::MulDiv {
            op,
            rd: ops.reg(0)?,
            rs1: ops.reg(1)?,
            rs2: ops.reg(2)?,
        })
    };
    let branch = |cond: BranchCond, ops: &Ops| -> Result<Vec<u32>, String> {
        ops.arity(3)?;
        one(Instruction::Branch {
            cond,
            rs1: ops.reg(0)?,
            rs2: ops.reg(1)?,
            offset: ops.target(2)?,
        })
    };
    let branch_swapped = |cond: BranchCond, ops: &Ops| -> Result<Vec<u32>, String> {
        ops.arity(3)?;
        one(Instruction::Branch {
            cond,
            rs1: ops.reg(1)?,
            rs2: ops.reg(0)?,
            offset: ops.target(2)?,
        })
    };
    let branch_zero = |cond: BranchCond, swap: bool, ops: &Ops| -> Result<Vec<u32>, String> {
        ops.arity(2)?;
        let r = ops.reg(0)?;
        let (rs1, rs2) = if swap { (Reg::ZERO, r) } else { (r, Reg::ZERO) };
        one(Instruction::Branch {
            cond,
            rs1,
            rs2,
            offset: ops.target(1)?,
        })
    };
    let load = |width: MemWidth, signed: bool, ops: &Ops| -> Result<Vec<u32>, String> {
        ops.arity(2)?;
        let (rs1, offset) = ops.mem(1)?;
        one(Instruction::Load {
            rd: ops.reg(0)?,
            rs1,
            offset,
            width,
            signed,
        })
    };
    let store = |width: MemWidth, ops: &Ops| -> Result<Vec<u32>, String> {
        ops.arity(2)?;
        let (rs1, offset) = ops.mem(1)?;
        one(Instruction::Store {
            rs1,
            rs2: ops.reg(0)?,
            offset,
            width,
        })
    };
    /// Splits a 32-bit value into (upper-20, lower-12) parts such that
    /// `lui(upper) + addi(lower) == value` with sign-extended lower part.
    fn split_hi_lo(value: u32) -> (i32, i32) {
        let lo = ((value & 0xFFF) as i32) << 20 >> 20; // sign-extend 12 bits
        let hi = value.wrapping_sub(lo as u32) & 0xFFFF_F000;
        (hi as i32, lo)
    }
    match m.name.as_str() {
        "lui" => {
            ops.arity(2)?;
            let imm = ops.imm(1)?;
            one(Instruction::Lui {
                rd: ops.reg(0)?,
                imm: (imm as u32 & 0xFFFF_F000) as i32,
            })
        }
        "auipc" => {
            ops.arity(2)?;
            one(Instruction::Auipc {
                rd: ops.reg(0)?,
                imm: ops.imm(1)?,
            })
        }
        "jal" => match m.operands.len() {
            1 => one(Instruction::Jal {
                rd: Reg(1),
                offset: ops.target(0)?,
            }),
            2 => one(Instruction::Jal {
                rd: ops.reg(0)?,
                offset: ops.target(1)?,
            }),
            n => Err(format!("`jal` expects 1 or 2 operands, got {n}")),
        },
        "jalr" => match m.operands.len() {
            1 => one(Instruction::Jalr {
                rd: Reg(1),
                rs1: ops.reg(0)?,
                offset: 0,
            }),
            3 => one(Instruction::Jalr {
                rd: ops.reg(0)?,
                rs1: ops.reg(1)?,
                offset: ops.imm(2)?,
            }),
            n => Err(format!("`jalr` expects 1 or 3 operands, got {n}")),
        },
        "beq" => branch(BranchCond::Eq, &ops),
        "bne" => branch(BranchCond::Ne, &ops),
        "blt" => branch(BranchCond::Lt, &ops),
        "bge" => branch(BranchCond::Ge, &ops),
        "bltu" => branch(BranchCond::Ltu, &ops),
        "bgeu" => branch(BranchCond::Geu, &ops),
        "bgt" => branch_swapped(BranchCond::Lt, &ops),
        "ble" => branch_swapped(BranchCond::Ge, &ops),
        "beqz" => branch_zero(BranchCond::Eq, false, &ops),
        "bnez" => branch_zero(BranchCond::Ne, false, &ops),
        "bltz" => branch_zero(BranchCond::Lt, false, &ops),
        "bgez" => branch_zero(BranchCond::Ge, false, &ops),
        "bgtz" => branch_zero(BranchCond::Lt, true, &ops),
        "blez" => branch_zero(BranchCond::Ge, true, &ops),
        "lb" => load(MemWidth::Byte, true, &ops),
        "lh" => load(MemWidth::Half, true, &ops),
        "lw" => load(MemWidth::Word, true, &ops),
        "lbu" => load(MemWidth::Byte, false, &ops),
        "lhu" => load(MemWidth::Half, false, &ops),
        "sb" => store(MemWidth::Byte, &ops),
        "sh" => store(MemWidth::Half, &ops),
        "sw" => store(MemWidth::Word, &ops),
        "addi" => alu_imm(AluOp::Add, &ops),
        "slti" => alu_imm(AluOp::Slt, &ops),
        "sltiu" => alu_imm(AluOp::Sltu, &ops),
        "xori" => alu_imm(AluOp::Xor, &ops),
        "ori" => alu_imm(AluOp::Or, &ops),
        "andi" => alu_imm(AluOp::And, &ops),
        "slli" => alu_imm(AluOp::Sll, &ops),
        "srli" => alu_imm(AluOp::Srl, &ops),
        "srai" => alu_imm(AluOp::Sra, &ops),
        "add" => alu_reg(AluOp::Add, &ops),
        "sub" => alu_reg(AluOp::Sub, &ops),
        "sll" => alu_reg(AluOp::Sll, &ops),
        "slt" => alu_reg(AluOp::Slt, &ops),
        "sltu" => alu_reg(AluOp::Sltu, &ops),
        "xor" => alu_reg(AluOp::Xor, &ops),
        "srl" => alu_reg(AluOp::Srl, &ops),
        "sra" => alu_reg(AluOp::Sra, &ops),
        "or" => alu_reg(AluOp::Or, &ops),
        "and" => alu_reg(AluOp::And, &ops),
        "mul" => mul_op(MulOp::Mul, &ops),
        "mulh" => mul_op(MulOp::Mulh, &ops),
        "mulhsu" => mul_op(MulOp::Mulhsu, &ops),
        "mulhu" => mul_op(MulOp::Mulhu, &ops),
        "div" => mul_op(MulOp::Div, &ops),
        "divu" => mul_op(MulOp::Divu, &ops),
        "rem" => mul_op(MulOp::Rem, &ops),
        "remu" => mul_op(MulOp::Remu, &ops),
        "ecall" => one(Instruction::Ecall),
        "ebreak" => one(Instruction::Ebreak),
        // --- pseudo-instructions ---
        "nop" => one(Instruction::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 0,
        }),
        "mv" => {
            ops.arity(2)?;
            one(Instruction::AluImm {
                op: AluOp::Add,
                rd: ops.reg(0)?,
                rs1: ops.reg(1)?,
                imm: 0,
            })
        }
        "not" => {
            ops.arity(2)?;
            one(Instruction::AluImm {
                op: AluOp::Xor,
                rd: ops.reg(0)?,
                rs1: ops.reg(1)?,
                imm: -1,
            })
        }
        "neg" => {
            ops.arity(2)?;
            one(Instruction::AluReg {
                op: AluOp::Sub,
                rd: ops.reg(0)?,
                rs1: Reg::ZERO,
                rs2: ops.reg(1)?,
            })
        }
        "j" => {
            ops.arity(1)?;
            one(Instruction::Jal {
                rd: Reg::ZERO,
                offset: ops.target(0)?,
            })
        }
        "jr" => {
            ops.arity(1)?;
            one(Instruction::Jalr {
                rd: Reg::ZERO,
                rs1: ops.reg(0)?,
                offset: 0,
            })
        }
        "ret" => one(Instruction::Jalr {
            rd: Reg::ZERO,
            rs1: Reg(1),
            offset: 0,
        }),
        "li" => {
            ops.arity(2)?;
            let rd = ops.reg(0)?;
            let value = ops.imm(1)? as u32;
            let small = value as i32;
            if (-2048..=2047).contains(&small)
                && parse_imm_literal(&m.operands[1])
                    .map(|v| (-2048..=2047).contains(&v))
                    .unwrap_or(false)
            {
                one(Instruction::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: Reg::ZERO,
                    imm: small,
                })
            } else {
                let (hi, lo) = split_hi_lo(value);
                Ok(vec![
                    Instruction::Lui { rd, imm: hi }.encode(),
                    Instruction::AluImm {
                        op: AluOp::Add,
                        rd,
                        rs1: rd,
                        imm: lo,
                    }
                    .encode(),
                ])
            }
        }
        "la" => {
            ops.arity(2)?;
            let rd = ops.reg(0)?;
            let value = ops.imm(1)? as u32;
            let (hi, lo) = split_hi_lo(value);
            Ok(vec![
                Instruction::Lui { rd, imm: hi }.encode(),
                Instruction::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: lo,
                }
                .encode(),
            ])
        }
        "call" => {
            ops.arity(1)?;
            // Near call: auipc+jalr would be canonical, but every kernel fits
            // in ±1 MiB, so emit jal ra plus a nop to keep the 2-word size.
            Ok(vec![
                encode_checked(Instruction::Jal {
                    rd: Reg(1),
                    offset: ops.target(0)?,
                })?,
                Instruction::AluImm {
                    op: AluOp::Add,
                    rd: Reg::ZERO,
                    rs1: Reg::ZERO,
                    imm: 0,
                }
                .encode(),
            ])
        }
        other => Err(format!("unknown mnemonic `{other}`")),
    }
}

/// Encodes `instr` once its immediate fits the field: 12 signed bits for
/// I- and S-type, 5 unsigned bits for shift amounts, an even offset within
/// ±4 KiB for branches and ±1 MiB for `jal`. [`Instruction::encode`]
/// assumes these ranges, so source operands are checked here and fail
/// typed.
fn encode_checked(instr: Instruction) -> Result<u32, String> {
    let (imm, low, high, even) = match instr {
        Instruction::Jal { offset, .. } => (offset, -(1 << 20), (1 << 20) - 2, true),
        Instruction::Branch { offset, .. } => (offset, -4096, 4094, true),
        Instruction::Jalr { offset, .. }
        | Instruction::Load { offset, .. }
        | Instruction::Store { offset, .. } => (offset, -2048, 2047, false),
        Instruction::AluImm {
            op: AluOp::Sll | AluOp::Srl | AluOp::Sra,
            imm,
            ..
        } => (imm, 0, 31, false),
        Instruction::AluImm { imm, .. } => (imm, -2048, 2047, false),
        _ => return Ok(instr.encode()),
    };
    if imm < low || imm > high || (even && imm % 2 != 0) {
        let parity = if even { "an even value " } else { "" };
        return Err(format!("immediate {imm} must be {parity}in {low}..={high}"));
    }
    Ok(instr.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instruction;

    #[test]
    fn assembles_basic_program() {
        let p = assemble(
            "
            start:
                addi a0, zero, 1    # comment
                addi a1, zero, 2
                add  a2, a0, a1
                ebreak
            ",
            0,
        )
        .unwrap();
        assert_eq!(p.words.len(), 4);
        assert_eq!(p.symbol("start"), Some(0));
        assert_eq!(
            Instruction::decode(p.words[2]).unwrap(),
            Instruction::AluReg {
                op: AluOp::Add,
                rd: Reg::parse("a2").unwrap(),
                rs1: Reg::parse("a0").unwrap(),
                rs2: Reg::parse("a1").unwrap()
            }
        );
    }

    #[test]
    fn resolves_forward_and_backward_branches() {
        let p = assemble(
            "
            loop:
                addi t0, t0, -1
                bnez t0, loop
                beqz t1, end
                nop
            end:
                ebreak
            ",
            0,
        )
        .unwrap();
        // bnez at byte 4 targets byte 0 → offset -4.
        match Instruction::decode(p.words[1]).unwrap() {
            Instruction::Branch { offset, .. } => assert_eq!(offset, -4),
            other => panic!("expected branch, got {other:?}"),
        }
        // beqz at byte 8 targets byte 16 → offset +8.
        match Instruction::decode(p.words[2]).unwrap() {
            Instruction::Branch { offset, .. } => assert_eq!(offset, 8),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn li_small_and_large() {
        let p = assemble("li t0, 100\nli t1, 0xF0000000\nli t2, -5", 0).unwrap();
        // 1 word + 2 words + 1 word.
        assert_eq!(p.words.len(), 4);
        match Instruction::decode(p.words[1]).unwrap() {
            Instruction::Lui { imm, .. } => assert_eq!(imm as u32, 0xF000_0000),
            other => panic!("expected lui, got {other:?}"),
        }
    }

    #[test]
    fn li_label_uses_base() {
        let p = assemble(
            "
            li t0, data
            ebreak
            data: .word 0xDEADBEEF
            ",
            0x1000,
        )
        .unwrap();
        // data is at offset 16 (li=2 words + ebreak=1 → wait: li 2 words,
        // ebreak 1 word → data offset 12); absolute = 0x100C.
        assert_eq!(p.symbol("data"), Some(12));
        assert_eq!(p.words[3], 0xDEAD_BEEF);
    }

    #[test]
    fn memory_operands() {
        let p = assemble("lw a0, 8(sp)\nsw a0, -4(s0)\nlw a1, (t0)", 0).unwrap();
        match Instruction::decode(p.words[0]).unwrap() {
            Instruction::Load { offset, .. } => assert_eq!(offset, 8),
            other => panic!("{other:?}"),
        }
        match Instruction::decode(p.words[1]).unwrap() {
            Instruction::Store { offset, .. } => assert_eq!(offset, -4),
            other => panic!("{other:?}"),
        }
        match Instruction::decode(p.words[2]).unwrap() {
            Instruction::Load { offset, .. } => assert_eq!(offset, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pseudo_neg_and_branches() {
        let p = assemble(
            "
                neg t0, t1
                bgtz t0, pos
                blez t0, npos
            pos:
            npos:
                ebreak
            ",
            0,
        )
        .unwrap();
        match Instruction::decode(p.words[0]).unwrap() {
            Instruction::AluReg {
                op: AluOp::Sub,
                rs1,
                ..
            } => assert_eq!(rs1, Reg::ZERO),
            other => panic!("{other:?}"),
        }
        // bgtz t0 → blt zero, t0.
        match Instruction::decode(p.words[1]).unwrap() {
            Instruction::Branch {
                cond: BranchCond::Lt,
                rs1,
                rs2,
                ..
            } => {
                assert_eq!(rs1, Reg::ZERO);
                assert_eq!(rs2, Reg::parse("t0").unwrap());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("nop\nbogus t0, t1\n", 0).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));

        let err = assemble("addi t0, t9, 1", 0).unwrap_err();
        assert!(err.message.contains("t9"));

        let err = assemble("x: nop\nx: nop", 0).unwrap_err();
        assert!(err.message.contains("duplicate"));

        let err = assemble("j nowhere", 0).unwrap_err();
        assert!(err.message.contains("nowhere"));
    }

    #[test]
    fn word_directive_literal_and_label() {
        let p = assemble(
            "
            entry: nop
            table: .word 42
                   .word entry
            ",
            0x800,
        )
        .unwrap();
        assert_eq!(p.words[1], 42);
        assert_eq!(p.words[2], 0x800);
    }

    #[test]
    fn every_mnemonic_assembles() {
        let source = "
            lui t0, 0x12345000
            auipc t1, 0
            jal ra, next
        next:
            jalr ra, t0, 0
            beq t0, t1, next
            bne t0, t1, next
            blt t0, t1, next
            bge t0, t1, next
            bltu t0, t1, next
            bgeu t0, t1, next
            bgt t0, t1, next
            ble t0, t1, next
            lb t2, 0(sp)
            lh t2, 0(sp)
            lw t2, 0(sp)
            lbu t2, 0(sp)
            lhu t2, 0(sp)
            sb t2, 0(sp)
            sh t2, 0(sp)
            sw t2, 0(sp)
            addi t3, t3, 1
            slti t3, t3, 1
            sltiu t3, t3, 1
            xori t3, t3, 1
            ori t3, t3, 1
            andi t3, t3, 1
            slli t3, t3, 1
            srli t3, t3, 1
            srai t3, t3, 1
            add t4, t3, t2
            sub t4, t3, t2
            sll t4, t3, t2
            slt t4, t3, t2
            sltu t4, t3, t2
            xor t4, t3, t2
            srl t4, t3, t2
            sra t4, t3, t2
            or t4, t3, t2
            and t4, t3, t2
            mul t5, t4, t3
            mulh t5, t4, t3
            mulhsu t5, t4, t3
            mulhu t5, t4, t3
            div t5, t4, t3
            divu t5, t4, t3
            rem t5, t4, t3
            remu t5, t4, t3
            nop
            mv t6, t5
            not t6, t5
            neg t6, t5
            j next
            jr ra
            ret
            ecall
            ebreak
        ";
        let p = assemble(source, 0).unwrap();
        // Every emitted word must decode back.
        for (i, w) in p.words.iter().enumerate() {
            Instruction::decode(*w).unwrap_or_else(|e| panic!("word {i}: {e}"));
        }
    }

    #[test]
    fn out_of_range_operands_fail_typed() {
        // Unchecked, each would trip an encoder assertion, overflow a
        // negation or wrap silently; each must fail typed on its own line.
        for source in [
            "addi t0, t0, 2048",
            "sw t0, -2049(sp)",
            "lw t0, 4294967296(t0)",
            "slli t0, t0, 32",
            "beq t0, t1, 3",
            "beq t0, t1, 4096",
            "j -1",
            "jal ra, 1048576",
            "call 4294967296",
            ".word --9223372036854775808",
        ] {
            let err = assemble(&format!("nop\n{source}"), 0).unwrap_err();
            assert_eq!(err.line, 2, "{source}: {err}");
        }
        // The edges themselves still assemble.
        assemble(
            "addi t0, t0, -2048\nslli t0, t0, 31\nbeq t0, t1, 4094\nj -1048576",
            0,
        )
        .unwrap();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The token vocabulary of the random sources: mnemonics, pseudo
        /// instructions and directives, registers, labels, immediates at
        /// and past every range edge, punctuation, comments and non-ASCII
        /// text.
        const TOKENS: [&str; 48] = [
            "li",
            "la",
            "call",
            "addi",
            "lui",
            "auipc",
            "jal",
            "jalr",
            "beq",
            "bltu",
            "lw",
            "sb",
            "sw",
            "mul",
            "slli",
            "srai",
            "j",
            "ret",
            "ecall",
            ".word",
            "zero",
            "t0",
            "a7",
            "x31",
            "x32",
            "sp",
            "loop:",
            "loop",
            "end:",
            ":",
            ",",
            "(",
            ")",
            "0(t0)",
            "-4(sp)",
            "0",
            "-1",
            "2047",
            "2048",
            "-2049",
            "0x7fffffff",
            "0xffffffff",
            "0x100000000",
            "-2147483649",
            "--9223372036854775808",
            "#",
            "µ",
            "\n",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Random token strings either assemble or fail typed; what
            /// assembles does so the same way at every load address.
            #[test]
            fn random_token_strings_never_panic(
                picks in proptest::collection::vec(0usize..TOKENS.len(), 0..40),
                base_pick in 0usize..3,
            ) {
                let source = picks.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join(" ");
                let base = [0, 0x1000, !3][base_pick];
                if let Ok(program) = assemble(&source, base) {
                    let again = assemble(&source, 0).map(|p| (p.words.len(), p.symbols));
                    prop_assert_eq!(again.ok(), Some((program.words.len(), program.symbols)));
                }
            }
        }
    }
}
