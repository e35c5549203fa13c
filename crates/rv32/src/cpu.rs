//! The RV32IM executor with PicoRV32-style multi-cycle timing and
//! memory-mapped I/O ports.

use crate::isa::{AluOp, BranchCond, Instruction, MemWidth, MulOp, Reg};
use std::collections::HashMap;
use std::fmt;

/// Memory-mapped I/O handler: addresses at or above [`Bus::MMIO_BASE`] are
/// routed here instead of RAM.
pub trait Mmio {
    /// Handles a 32-bit read from an MMIO address.
    fn read(&mut self, addr: u32) -> u32;
    /// Handles a 32-bit write to an MMIO address.
    fn write(&mut self, addr: u32, value: u32);
}

/// An MMIO region backed by queues: reads pop from per-address FIFOs, writes
/// append to per-address logs. This is how the harness feeds noise values and
/// iteration counts into the kernel.
#[derive(Debug, Default, Clone)]
pub struct QueueMmio {
    read_queues: HashMap<u32, Vec<u32>>,
    write_logs: HashMap<u32, Vec<u32>>,
}

impl QueueMmio {
    /// Creates an empty region.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues values to be returned by successive reads of `addr`.
    pub fn push_reads<I: IntoIterator<Item = u32>>(&mut self, addr: u32, values: I) {
        let q = self.read_queues.entry(addr).or_default();
        // Values are popped from the end; store reversed.
        let mut items: Vec<u32> = values.into_iter().collect();
        items.reverse();
        let mut existing = std::mem::take(q);
        items.append(&mut existing);
        *q = items;
    }

    /// Values written by the program to `addr`, in order.
    pub fn written(&self, addr: u32) -> &[u32] {
        self.write_logs.get(&addr).map(Vec::as_slice).unwrap_or(&[])
    }
}

impl Mmio for QueueMmio {
    fn read(&mut self, addr: u32) -> u32 {
        self.read_queues
            .get_mut(&addr)
            .and_then(Vec::pop)
            .unwrap_or(0)
    }

    fn write(&mut self, addr: u32, value: u32) {
        self.write_logs.entry(addr).or_default().push(value);
    }
}

/// Flat little-endian RAM plus an MMIO window.
pub struct Bus<M: Mmio> {
    ram: Vec<u8>,
    /// The MMIO device.
    pub mmio: M,
}

impl<M: Mmio> Bus<M> {
    /// Addresses at or above this go to MMIO.
    pub const MMIO_BASE: u32 = 0xF000_0000;

    /// Creates a bus with `ram_bytes` of zeroed RAM.
    pub fn new(ram_bytes: usize, mmio: M) -> Self {
        Self {
            ram: vec![0; ram_bytes],
            mmio,
        }
    }

    /// RAM size in bytes.
    pub fn ram_len(&self) -> usize {
        self.ram.len()
    }

    /// Loads a word-aligned image at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in RAM.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(addr + 4 * i as u32, *w);
        }
    }

    /// Reads a 32-bit little-endian word. Host side: panics past the end of
    /// RAM, where guest accesses halt with [`Halt::BusFault`] instead.
    pub fn read_u32(&mut self, addr: u32) -> u32 {
        self.load_u32(addr)
            .unwrap_or_else(|| panic!("read past RAM at {addr:#x}"))
    }

    /// Writes a 32-bit little-endian word; panics like [`Bus::read_u32`].
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.store_u32(addr, value)
            .unwrap_or_else(|| panic!("write past RAM at {addr:#x}"));
    }

    /// Checked word read (guest loads and fetches): `None` past RAM.
    pub(crate) fn load_u32(&mut self, addr: u32) -> Option<u32> {
        if addr >= Self::MMIO_BASE {
            return Some(self.mmio.read(addr));
        }
        let a = addr as usize;
        let b = self.ram.get(a..a + 4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Checked word write: `None` (and no write) past the end of RAM.
    fn store_u32(&mut self, addr: u32, value: u32) -> Option<()> {
        if addr >= Self::MMIO_BASE {
            self.mmio.write(addr, value);
            return Some(());
        }
        let a = addr as usize;
        self.ram
            .get_mut(a..a + 4)?
            .copy_from_slice(&value.to_le_bytes());
        Some(())
    }

    /// Guest load: `None` when any word it touches lies past RAM.
    pub(crate) fn read_width(&mut self, addr: u32, width: MemWidth, signed: bool) -> Option<u32> {
        Some(match width {
            MemWidth::Word => self.load_u32(addr)?,
            MemWidth::Half => {
                let aligned = self.load_u32(addr & !1)?;
                let half = if addr & 2 != 0 {
                    (self.load_u32(addr & !3)? >> 16) as u16
                } else {
                    aligned as u16
                };
                if signed {
                    half as i16 as i32 as u32
                } else {
                    half as u32
                }
            }
            MemWidth::Byte => {
                let word = self.load_u32(addr & !3)?;
                let byte = (word >> (8 * (addr & 3))) as u8;
                if signed {
                    byte as i8 as i32 as u32
                } else {
                    byte as u32
                }
            }
        })
    }

    /// Guest store: `None` (and no write) when the word lies past RAM.
    pub(crate) fn write_width(&mut self, addr: u32, value: u32, width: MemWidth) -> Option<()> {
        match width {
            MemWidth::Word => self.store_u32(addr, value),
            MemWidth::Half => {
                let base = addr & !3;
                let word = self.load_u32(base)?;
                let shift = 8 * (addr & 3);
                let mask = 0xFFFFu32 << shift;
                self.store_u32(base, (word & !mask) | ((value & 0xFFFF) << shift))
            }
            MemWidth::Byte => {
                let base = addr & !3;
                let word = self.load_u32(base)?;
                let shift = 8 * (addr & 3);
                let mask = 0xFFu32 << shift;
                self.store_u32(base, (word & !mask) | ((value & 0xFF) << shift))
            }
        }
    }
}

/// What one retired instruction did — the raw material of the power model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecRecord {
    /// Program counter of the instruction.
    pub pc: u32,
    /// The decoded instruction.
    pub instruction: Instruction,
    /// Cycles the instruction occupied (PicoRV32-style multi-cycle core).
    pub cycles: u32,
    /// Destination register write: `(reg, old_value, new_value)`.
    pub reg_write: Option<(Reg, u32, u32)>,
    /// Memory access: `(address, data, is_write)`.
    pub mem_access: Option<(u32, u32, bool)>,
    /// For branches: whether the branch was taken.
    pub branch_taken: Option<bool>,
}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Halt {
    /// An `ebreak` retired (normal kernel exit).
    Ebreak,
    /// An `ecall` retired.
    Ecall,
    /// The step budget ran out (probable infinite loop).
    OutOfFuel,
    /// The PC left the loaded image or decoding failed.
    DecodeFault { pc: u32, word: u32 },
    /// An instruction fetch, load or store touched memory past the end of
    /// RAM below the MMIO window.
    BusFault { pc: u32, addr: u32 },
}

impl fmt::Display for Halt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Halt::Ebreak => write!(f, "ebreak"),
            Halt::Ecall => write!(f, "ecall"),
            Halt::OutOfFuel => write!(f, "step budget exhausted"),
            Halt::DecodeFault { pc, word } => {
                write!(f, "decode fault at {pc:#x} (word {word:#010x})")
            }
            Halt::BusFault { pc, addr } => {
                write!(f, "bus fault at {pc:#x} (address {addr:#x})")
            }
        }
    }
}

/// PicoRV32-flavoured cycle counts (`ENABLE_FAST_MUL = 0`, no look-ahead):
/// regular ALU ops take a handful of cycles, memory ops a little more, and
/// multiplications dominate — which is what makes the distribution call
/// visible as a peak in the power trace.
pub fn cycle_cost(instr: &Instruction, branch_taken: bool) -> u32 {
    match instr {
        Instruction::Lui { .. } | Instruction::Auipc { .. } => 3,
        Instruction::AluImm { .. } => 3,
        Instruction::AluReg { .. } => 3,
        Instruction::MulDiv { op, .. } => match op {
            MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => 38,
            MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu => 40,
        },
        Instruction::Load { .. } => 5,
        Instruction::Store { .. } => 5,
        Instruction::Jal { .. } | Instruction::Jalr { .. } => 5,
        Instruction::Branch { .. } => {
            if branch_taken {
                5
            } else {
                3
            }
        }
        Instruction::Ecall | Instruction::Ebreak => 3,
    }
}

/// The RV32IM core. Every step fetches and decodes the word at the PC, so
/// stores into the code image take effect on the next fetch; the
/// superinstruction fast path lives in [`crate::block`].
pub struct Cpu<M: Mmio> {
    regs: [u32; 32],
    pc: u32,
    /// The memory bus.
    pub bus: Bus<M>,
    cycle: u64,
}

impl<M: Mmio> Cpu<M> {
    /// Creates a core with the given bus, PC at 0.
    pub fn new(bus: Bus<M>) -> Self {
        Self {
            regs: [0; 32],
            pc: 0,
            bus,
            cycle: 0,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (x0 writes are ignored).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = value;
        }
    }

    /// Total elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the cycle counter without executing — used by the kernel's
    /// memoized fast path when it replays a burst's architectural effects.
    pub(crate) fn add_cycles(&mut self, cycles: u64) {
        self.cycle += cycles;
    }

    /// Executes one instruction, returning its record, or the halt reason.
    /// A faulting instruction changes no architectural state.
    pub fn step(&mut self) -> Result<ExecRecord, Halt> {
        let pc = self.pc;
        let word = self
            .bus
            .load_u32(pc)
            .ok_or(Halt::BusFault { pc, addr: pc })?;
        let instruction = Instruction::decode(word).map_err(|_| Halt::DecodeFault { pc, word })?;
        let mut next_pc = pc.wrapping_add(4);
        let mut reg_write = None;
        let mut mem_access = None;
        let mut branch_taken = None;

        let mut write_rd = |regs: &mut [u32; 32], rd: Reg, value: u32| {
            let old = regs[rd.index()];
            if rd.index() != 0 {
                regs[rd.index()] = value;
                reg_write = Some((rd, old, value));
            } else {
                reg_write = Some((rd, 0, 0));
            }
        };

        match instruction {
            Instruction::Lui { rd, imm } => write_rd(&mut self.regs, rd, imm as u32),
            Instruction::Auipc { rd, imm } => {
                write_rd(&mut self.regs, rd, pc.wrapping_add(imm as u32))
            }
            Instruction::Jal { rd, offset } => {
                write_rd(&mut self.regs, rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
            }
            Instruction::Jalr { rd, rs1, offset } => {
                let target = self.regs[rs1.index()].wrapping_add(offset as u32) & !1;
                write_rd(&mut self.regs, rd, pc.wrapping_add(4));
                next_pc = target;
            }
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.regs[rs1.index()];
                let b = self.regs[rs2.index()];
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                branch_taken = Some(taken);
                if taken {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Instruction::Load {
                rd,
                rs1,
                offset,
                width,
                signed,
            } => {
                let addr = self.regs[rs1.index()].wrapping_add(offset as u32);
                let value = self
                    .bus
                    .read_width(addr, width, signed)
                    .ok_or(Halt::BusFault { pc, addr })?;
                mem_access = Some((addr, value, false));
                write_rd(&mut self.regs, rd, value);
            }
            Instruction::Store {
                rs1,
                rs2,
                offset,
                width,
            } => {
                let addr = self.regs[rs1.index()].wrapping_add(offset as u32);
                let value = self.regs[rs2.index()];
                self.bus
                    .write_width(addr, value, width)
                    .ok_or(Halt::BusFault { pc, addr })?;
                mem_access = Some((addr, value, true));
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                let a = self.regs[rs1.index()];
                let value = alu(op, a, imm as u32);
                write_rd(&mut self.regs, rd, value);
            }
            Instruction::AluReg { op, rd, rs1, rs2 } => {
                let a = self.regs[rs1.index()];
                let b = self.regs[rs2.index()];
                let value = alu(op, a, b);
                write_rd(&mut self.regs, rd, value);
            }
            Instruction::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.regs[rs1.index()];
                let b = self.regs[rs2.index()];
                let value = muldiv(op, a, b);
                write_rd(&mut self.regs, rd, value);
            }
            Instruction::Ecall => return Err(Halt::Ecall),
            Instruction::Ebreak => return Err(Halt::Ebreak),
        }
        let cycles = cycle_cost(&instruction, branch_taken.unwrap_or(false));
        self.cycle += cycles as u64;
        self.pc = next_pc;
        Ok(ExecRecord {
            pc,
            instruction,
            cycles,
            reg_write,
            mem_access,
            branch_taken,
        })
    }

    /// Runs until halt or `max_steps`, collecting every record: the
    /// materializing oracle behind `SamplerKernel::run_reference` and the
    /// tests.
    pub fn run(&mut self, max_steps: usize) -> (Vec<ExecRecord>, Halt) {
        let mut records = Vec::new();
        for _ in 0..max_steps {
            match self.step() {
                Ok(record) => records.push(record),
                Err(halt) => return (records, halt),
            }
        }
        (records, Halt::OutOfFuel)
    }
}

pub(crate) fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1F),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1F),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1F)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

pub(crate) fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => ((a as i32 as i64).wrapping_mul(b as i32 as i64) >> 32) as u32,
        MulOp::Mulhsu => ((a as i32 as i64).wrapping_mul(b as u64 as i64) >> 32) as u32,
        MulOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_program(source: &str) -> (Cpu<QueueMmio>, Vec<ExecRecord>, Halt) {
        let program = assemble(source, 0).unwrap();
        let mut bus = Bus::new(64 * 1024, QueueMmio::new());
        bus.load_words(0, &program.words);
        let mut cpu = Cpu::new(bus);
        let (records, halt) = cpu.run(1_000_000);
        (cpu, records, halt)
    }

    #[test]
    fn arithmetic_program() {
        let (cpu, _, halt) = run_program(
            "
            li a0, 21
            li a1, 2
            mul a2, a0, a1
            ebreak
            ",
        );
        assert_eq!(halt, Halt::Ebreak);
        assert_eq!(cpu.reg(Reg::parse("a2").unwrap()), 42);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let (cpu, _, halt) = run_program(
            "
                li t0, 10
                li t1, 0
            loop:
                add t1, t1, t0
                addi t0, t0, -1
                bnez t0, loop
                ebreak
            ",
        );
        assert_eq!(halt, Halt::Ebreak);
        assert_eq!(cpu.reg(Reg::parse("t1").unwrap()), 55);
    }

    #[test]
    fn memory_roundtrip() {
        let (cpu, _, halt) = run_program(
            "
            li t0, 0x1000
            li t1, 0xCAFEBABE
            sw t1, 0(t0)
            lw t2, 0(t0)
            lhu t3, 0(t0)
            lbu t4, 3(t0)
            ebreak
            ",
        );
        assert_eq!(halt, Halt::Ebreak);
        assert_eq!(cpu.reg(Reg::parse("t2").unwrap()), 0xCAFE_BABE);
        assert_eq!(cpu.reg(Reg::parse("t3").unwrap()), 0xBABE);
        assert_eq!(cpu.reg(Reg::parse("t4").unwrap()), 0xCA);
    }

    #[test]
    fn signed_loads_extend() {
        let (cpu, _, _) = run_program(
            "
            li t0, 0x1000
            li t1, 0xFF80
            sh t1, 0(t0)
            lh t2, 0(t0)
            lb t3, 0(t0)
            ebreak
            ",
        );
        assert_eq!(cpu.reg(Reg::parse("t2").unwrap()) as i32, -128);
        assert_eq!(cpu.reg(Reg::parse("t3").unwrap()) as i32, -128);
    }

    #[test]
    fn division_edge_cases() {
        let (cpu, _, _) = run_program(
            "
            li t0, 7
            li t1, 0
            div t2, t0, t1      # div by zero -> -1
            rem t3, t0, t1      # rem by zero -> dividend
            li t4, 0x80000000
            li t5, -1
            div t6, t4, t5      # overflow -> dividend
            ebreak
            ",
        );
        assert_eq!(cpu.reg(Reg::parse("t2").unwrap()), u32::MAX);
        assert_eq!(cpu.reg(Reg::parse("t3").unwrap()), 7);
        assert_eq!(cpu.reg(Reg::parse("t6").unwrap()), 0x8000_0000);
    }

    #[test]
    fn x0_stays_zero() {
        let (cpu, _, _) = run_program(
            "
            addi zero, zero, 5
            li t0, 1
            add zero, t0, t0
            ebreak
            ",
        );
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn records_capture_branches_and_writes() {
        let (_, records, _) = run_program(
            "
            li t0, 1
            beqz t0, skip     # not taken
            bnez t0, skip     # taken
            addi t1, t1, 9    # skipped
            skip:
            ebreak
            ",
        );
        let branches: Vec<bool> = records.iter().filter_map(|r| r.branch_taken).collect();
        assert_eq!(branches, vec![false, true]);
        // No record for the skipped instruction.
        assert!(records
            .iter()
            .all(|r| !matches!(r.instruction, Instruction::AluImm { imm: 9, .. })));
    }

    #[test]
    fn mul_costs_more_cycles_than_add() {
        let (_, records, _) = run_program(
            "
            li t0, 3
            mul t1, t0, t0
            add t2, t0, t0
            ebreak
            ",
        );
        let mul_rec = records
            .iter()
            .find(|r| matches!(r.instruction, Instruction::MulDiv { .. }))
            .unwrap();
        let add_rec = records
            .iter()
            .rfind(|r| matches!(r.instruction, Instruction::AluReg { .. }))
            .unwrap();
        assert!(mul_rec.cycles > 10 * add_rec.cycles / 3);
    }

    #[test]
    fn mmio_read_and_write() {
        let program = assemble(
            "
            li t0, 0xF0000000
            lw t1, 0(t0)       # pops 7
            lw t2, 0(t0)       # pops 9
            sw t1, 4(t0)
            sw t2, 4(t0)
            ebreak
            ",
            0,
        )
        .unwrap();
        let mut mmio = QueueMmio::new();
        mmio.push_reads(0xF000_0000, [7, 9]);
        let mut bus = Bus::new(64 * 1024, mmio);
        bus.load_words(0, &program.words);
        let mut cpu = Cpu::new(bus);
        let (_, halt) = cpu.run(1000);
        assert_eq!(halt, Halt::Ebreak);
        assert_eq!(cpu.bus.mmio.written(0xF000_0004), &[7, 9]);
        assert_eq!(cpu.reg(Reg::parse("t1").unwrap()), 7);
    }

    #[test]
    fn empty_mmio_queue_reads_zero() {
        let program = assemble("li t0, 0xF0000000\nlw t1, 0(t0)\nebreak", 0).unwrap();
        let mut bus = Bus::new(1024, QueueMmio::new());
        bus.load_words(0, &program.words);
        let mut cpu = Cpu::new(bus);
        cpu.run(100);
        assert_eq!(cpu.reg(Reg::parse("t1").unwrap()), 0);
    }

    #[test]
    fn decode_fault_reported() {
        let mut bus = Bus::new(1024, QueueMmio::new());
        bus.load_words(0, &[0xFFFF_FFFF]);
        let mut cpu = Cpu::new(bus);
        let (_, halt) = cpu.run(10);
        assert!(matches!(halt, Halt::DecodeFault { pc: 0, .. }));
    }

    #[test]
    fn out_of_fuel_on_infinite_loop() {
        let (_, _, halt) = {
            let program = assemble("loop: j loop", 0).unwrap();
            let mut bus = Bus::new(1024, QueueMmio::new());
            bus.load_words(0, &program.words);
            let mut cpu = Cpu::new(bus);
            let (r, h) = cpu.run(100);
            (cpu, r, h)
        };
        assert_eq!(halt, Halt::OutOfFuel);
    }

    #[test]
    fn shift_semantics() {
        let (cpu, _, _) = run_program(
            "
            li t0, -8
            srai t1, t0, 1     # -4
            srli t2, t0, 1     # big positive
            slli t3, t0, 2     # -32
            ebreak
            ",
        );
        assert_eq!(cpu.reg(Reg::parse("t1").unwrap()) as i32, -4);
        assert_eq!(cpu.reg(Reg::parse("t2").unwrap()), 0x7FFF_FFFC);
        assert_eq!(cpu.reg(Reg::parse("t3").unwrap()) as i32, -32);
    }

    #[test]
    fn store_into_code_executes_the_patched_instruction() {
        // Self-modifying program: overwrite the `nop` at `target` with
        // `addi t2, zero, 42` (0x02A00393) before reaching it.
        let build = |addr: u32| {
            format!("li t0, {addr}\nli t1, 0x02A00393\nsw t1, 0(t0)\ntarget:\nnop\nebreak")
        };
        let probe = assemble(&build(0), 0).unwrap();
        let target = probe.symbol("target").unwrap();
        let (cpu, _, halt) = run_program(&build(target));
        assert_eq!(halt, Halt::Ebreak);
        assert_eq!(
            cpu.reg(Reg::parse("t2").unwrap()),
            42,
            "the patched instruction must execute"
        );
    }

    #[test]
    fn accesses_past_ram_halt_with_a_bus_fault() {
        // 4 KiB of RAM: a load, a store and a jump to 0x100000 must halt the
        // guest, not panic the host, and leave the faulting pc in the halt.
        for (source, pc) in [
            // `li` of a 32-bit constant assembles to `lui` + `addi`.
            ("li t1, 0x100000\nlw t0, 0(t1)\nebreak", 8),
            ("li t1, 0x100000\nsw t0, 0(t1)\nebreak", 8),
            ("li t0, 0x100000\njr t0\nebreak", 0x10_0000),
        ] {
            let program = assemble(source, 0).unwrap();
            let mut bus = Bus::new(4096, QueueMmio::new());
            bus.load_words(0, &program.words);
            let mut cpu = Cpu::new(bus);
            let (_, halt) = cpu.run(100);
            assert_eq!(
                halt,
                Halt::BusFault {
                    pc,
                    addr: 0x10_0000
                },
                "{source}"
            );
            assert_eq!(cpu.pc(), pc, "{source}: the faulting pc is not retired");
        }
    }

    #[test]
    fn jal_and_ret() {
        let (cpu, _, halt) = run_program(
            "
            li a0, 5
            jal ra, double
            jal ra, double
            ebreak
            double:
            add a0, a0, a0
            ret
            ",
        );
        assert_eq!(halt, Halt::Ebreak);
        assert_eq!(cpu.reg(Reg::parse("a0").unwrap()), 20);
    }
}
