//! Basic-block superinstruction compilation with fused power emission.
//!
//! Stepping pays the full interpreter round trip for every retired
//! instruction: a fetch and decode, the `step()` match, an [`ExecRecord`]
//! materialization, and a second dispatch inside the power renderer. This
//! module goes one level up: straight-line runs of instructions are
//! discovered at first execution, compiled once into a flat array of
//! [`MicroOp`]s with pre-resolved register indices, immediates, and
//! pre-computed PC-relative values, and then executed by a single tight
//! loop that *also* renders each op's power contribution directly into the
//! caller's [`TraceBuffer`] — decode once per block, dispatch once per block,
//! no record materialization, no second pass.
//!
//! ## Block discovery
//!
//! [`static_leaders`] computes the classic leader set over the program
//! image (entry, every direct branch/jump target, every instruction after
//! a control transfer) plus caller-supplied extra leaders — the sampler
//! kernel passes its memoization hook PCs so a compiled block can never
//! swallow the PC the burst memo keys on, and `Cfg::basic_blocks` passes
//! resolved indirect-jump targets. Both the interpreter-side compiler and
//! the static analyzer derive block extents from this one helper
//! ([`block_extent`]), so the two can never disagree about where a block
//! begins or ends.
//!
//! ## Invalidation
//!
//! Stores are the only way the image changes. [`run_block`] applies every
//! store through the same checked bus write as [`Cpu::step`]; when a store
//! lands inside the code image it additionally aborts the block *after*
//! that store retires (architectural state and emitted samples are exactly
//! those of the per-step path) and reports the address so
//! [`BlockCache::invalidate`] can drop every compiled block overlapping it.
//! `step()` needs no such bookkeeping: it decodes every word it fetches.
//!
//! ## Bit-identity
//!
//! Block execution reproduces `step()`'s architectural semantics operation
//! for operation, and emits noiseless power through the same
//! `PowerRenderer::emit_record` primitive `render_record` uses, in the same
//! order; noise is added over the finished capture by the caller. The
//! verbatim `run_reference`/`render_power_reference` pair remains the
//! oracle; `tests/fast_path_equivalence.rs` pins block-path-vs-reference
//! bit-identity over all five sampler variants.

use crate::cpu::{cycle_cost, Cpu, Halt, Mmio};
use crate::isa::{AluOp, BranchCond, Instruction, MemWidth, MulOp, Reg};
use crate::power::{base_level, PowerRenderer, TraceBuffer};

/// One pre-resolved operation of a compiled block: everything `step()`
/// would re-derive per execution (PC-relative targets, link values, cycle
/// costs, the power-model base level) is computed once at compile time.
#[derive(Debug, Clone)]
pub struct MicroOp {
    /// PC of the original instruction (spans and window bookkeeping).
    pub pc: u32,
    /// Power-model base level of the instruction class.
    base: f64,
    /// Cycle cost when not a taken branch.
    cycles: u32,
    /// Cycle cost when a taken branch (equals `cycles` otherwise).
    cycles_taken: u32,
    kind: OpKind,
}

/// The operation payload with pre-resolved operands.
#[derive(Debug, Clone)]
enum OpKind {
    /// `lui` / any op whose result is a compile-time constant.
    Lui {
        rd: Reg,
        value: u32,
    },
    /// `auipc` with `pc + imm` folded.
    Auipc {
        rd: Reg,
        value: u32,
    },
    /// `jal` with link (`pc + 4`) and target folded.
    Jal {
        rd: Reg,
        link: u32,
        target: u32,
    },
    /// `jalr`: target needs the live register, link is folded.
    Jalr {
        rd: Reg,
        rs1: Reg,
        offset: i32,
        link: u32,
    },
    /// Conditional branch with both arm PCs folded.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        taken_pc: u32,
        fall_pc: u32,
    },
    Load {
        rd: Reg,
        rs1: Reg,
        offset: i32,
        width: MemWidth,
        signed: bool,
    },
    Store {
        rs1: Reg,
        rs2: Reg,
        offset: i32,
        width: MemWidth,
    },
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    AluReg {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    MulDiv {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Ecall,
    Ebreak,
}

/// A compiled basic block: a maximal straight-line op run starting at
/// `start`, decoded once.
#[derive(Debug, Clone)]
pub struct CompiledBlock {
    /// Entry PC.
    pub start: u32,
    /// One past the PC of the last instruction.
    pub end: u32,
    /// The superinstruction sequence.
    ops: Vec<MicroOp>,
}

impl CompiledBlock {
    /// Number of operations in the block.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the block holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Why block execution stopped before (or at) the block's end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockExit {
    /// All ops retired; `cpu.pc()` points at the successor.
    Completed,
    /// An `ecall`/`ebreak` retired, or a load or store faulted with
    /// [`Halt::BusFault`]; either way no samples are emitted for it and no
    /// state changes, matching `step()`.
    Halted(Halt),
    /// The record budget ran out mid-block.
    OutOfFuel,
    /// A store landed inside the code image: the store itself fully
    /// retired (bus write, samples), then the block aborted. The caller
    /// must invalidate overlapping compiled blocks before dispatching again.
    SelfModified {
        /// Byte address the store wrote.
        addr: u32,
    },
}

/// What one [`run_block`] call did, for the caller's bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRun {
    /// Operations retired (= records emitted, except a halting
    /// `ecall`/`ebreak` which retires no record).
    pub executed: usize,
    /// Power samples emitted.
    pub samples: usize,
    /// Why the call returned.
    pub exit: BlockExit,
}

/// Classic static leader set of a program image: the load address, every
/// direct branch/jump target, every instruction following a control
/// transfer, plus `extra` (resolved indirect targets, memoization hooks).
/// Sorted and deduplicated; only PCs inside `[base, base + 4·len)` are
/// kept.
pub fn static_leaders(instrs: &[Option<Instruction>], base: u32, extra: &[u32]) -> Vec<u32> {
    let end = base + 4 * instrs.len() as u32;
    let mut leaders: Vec<u32> = Vec::with_capacity(instrs.len() / 4 + extra.len() + 1);
    if !instrs.is_empty() {
        leaders.push(base);
    }
    for (i, instr) in instrs.iter().enumerate() {
        let pc = base + 4 * i as u32;
        match instr {
            Some(Instruction::Jal { offset, .. }) => {
                leaders.push(pc.wrapping_add(*offset as u32));
                leaders.push(pc + 4);
            }
            Some(Instruction::Branch { offset, .. }) => {
                leaders.push(pc.wrapping_add(*offset as u32));
                leaders.push(pc + 4);
            }
            Some(Instruction::Jalr { .. } | Instruction::Ecall | Instruction::Ebreak) => {
                leaders.push(pc + 4);
            }
            _ => {}
        }
    }
    leaders.extend_from_slice(extra);
    leaders.retain(|&pc| pc >= base && pc < end && (pc - base).is_multiple_of(4));
    leaders.sort_unstable();
    leaders.dedup();
    leaders
}

/// The end (one past the last instruction) of the basic block starting at
/// `start`: the block extends while instructions decode, stops *after* a
/// control transfer (`branch`/`jal`/`jalr`/`ecall`/`ebreak`), and stops
/// *before* the next leader or an undecodable word. `leaders` must be
/// sorted (as [`static_leaders`] returns it).
pub fn block_extent(instrs: &[Option<Instruction>], base: u32, start: u32, leaders: &[u32]) -> u32 {
    let mut pc = start;
    loop {
        let index = ((pc - base) / 4) as usize;
        let Some(Some(instr)) = instrs.get(index) else {
            return pc;
        };
        let is_transfer = matches!(
            instr,
            Instruction::Branch { .. }
                | Instruction::Jal { .. }
                | Instruction::Jalr { .. }
                | Instruction::Ecall
                | Instruction::Ebreak
        );
        pc += 4;
        if is_transfer || leaders.binary_search(&pc).is_ok() {
            return pc;
        }
    }
}

/// Compiles the basic block entered at `start` from the current contents
/// of `words` (the code image as loaded at `base`). Returns `None` when
/// the entry word itself does not decode — the caller falls back to
/// `step()`, which faults identically to the per-step path.
pub fn compile_block(
    words: &[u32],
    base: u32,
    start: u32,
    leaders: &[u32],
) -> Option<CompiledBlock> {
    let offset = start.wrapping_sub(base);
    if !offset.is_multiple_of(4) || (offset / 4) as usize >= words.len() {
        return None;
    }
    let mut ops = Vec::new();
    let mut pc = start;
    loop {
        let index = ((pc - base) / 4) as usize;
        let Some(instr) = words.get(index).and_then(|&w| Instruction::decode(w).ok()) else {
            break;
        };
        let kind = match instr {
            Instruction::Lui { rd, imm } => OpKind::Lui {
                rd,
                value: imm as u32,
            },
            Instruction::Auipc { rd, imm } => OpKind::Auipc {
                rd,
                value: pc.wrapping_add(imm as u32),
            },
            Instruction::Jal { rd, offset } => OpKind::Jal {
                rd,
                link: pc.wrapping_add(4),
                target: pc.wrapping_add(offset as u32),
            },
            Instruction::Jalr { rd, rs1, offset } => OpKind::Jalr {
                rd,
                rs1,
                offset,
                link: pc.wrapping_add(4),
            },
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => OpKind::Branch {
                cond,
                rs1,
                rs2,
                taken_pc: pc.wrapping_add(offset as u32),
                fall_pc: pc.wrapping_add(4),
            },
            Instruction::Load {
                rd,
                rs1,
                offset,
                width,
                signed,
            } => OpKind::Load {
                rd,
                rs1,
                offset,
                width,
                signed,
            },
            Instruction::Store {
                rs1,
                rs2,
                offset,
                width,
            } => OpKind::Store {
                rs1,
                rs2,
                offset,
                width,
            },
            Instruction::AluImm { op, rd, rs1, imm } => OpKind::AluImm {
                op,
                rd,
                rs1,
                imm: imm as u32,
            },
            Instruction::AluReg { op, rd, rs1, rs2 } => OpKind::AluReg { op, rd, rs1, rs2 },
            Instruction::MulDiv { op, rd, rs1, rs2 } => OpKind::MulDiv { op, rd, rs1, rs2 },
            Instruction::Ecall => OpKind::Ecall,
            Instruction::Ebreak => OpKind::Ebreak,
        };
        let is_transfer = matches!(
            kind,
            OpKind::Branch { .. }
                | OpKind::Jal { .. }
                | OpKind::Jalr { .. }
                | OpKind::Ecall
                | OpKind::Ebreak
        );
        ops.push(MicroOp {
            pc,
            base: base_level(&instr),
            cycles: cycle_cost(&instr, false),
            cycles_taken: cycle_cost(&instr, true),
            kind,
        });
        pc += 4;
        if is_transfer || leaders.binary_search(&pc).is_ok() {
            break;
        }
    }
    if ops.is_empty() {
        return None;
    }
    Some(CompiledBlock {
        start,
        end: pc,
        ops,
    })
}

/// Execution and fused-emission statistics of one [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Blocks compiled (first-execution discoveries plus recompiles after
    /// invalidation).
    pub blocks_compiled: u64,
    /// Dispatches served by an already-compiled block.
    pub dispatch_hits: u64,
    /// Compiled blocks dropped because a store overlapped them.
    pub invalidations: u64,
    /// Power samples emitted by the fused block emit loop.
    pub fused_samples: u64,
}

/// A per-program cache of compiled blocks, keyed by entry PC through a
/// dense per-word index (no hashing on the dispatch path).
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    base: u32,
    /// One slot per code word; the slot of a PC holds the arena index of
    /// the block *entered* at that PC.
    index: Vec<Option<u32>>,
    arena: Vec<CompiledBlock>,
    /// Execution statistics (reset with [`BlockCache::reset`]).
    pub stats: BlockCacheStats,
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all compiled blocks and re-sizes for a `word_count`-word image
    /// at `base`. Statistics survive (they describe the cache's lifetime).
    pub fn reset_program(&mut self, base: u32, word_count: usize) {
        self.base = base;
        self.index.clear();
        self.index.resize(word_count, None);
        self.arena.clear();
    }

    /// Whether the cache is sized for a `word_count`-word image at `base`.
    pub fn covers(&self, base: u32, word_count: usize) -> bool {
        self.base == base && self.index.len() == word_count
    }

    /// Number of live compiled blocks.
    pub fn len(&self) -> usize {
        self.index.iter().filter(|slot| slot.is_some()).count()
    }

    /// Whether no blocks are compiled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot_of(&self, pc: u32) -> Option<usize> {
        let offset = pc.wrapping_sub(self.base);
        if offset.is_multiple_of(4) {
            let index = (offset / 4) as usize;
            if index < self.index.len() {
                return Some(index);
            }
        }
        None
    }

    /// The compiled block entered at `pc`, if any.
    pub fn get(&self, pc: u32) -> Option<&CompiledBlock> {
        let slot = self.slot_of(pc)?;
        let arena_index = self.index[slot]?;
        Some(&self.arena[arena_index as usize])
    }

    /// Compiles and caches the block entered at `pc` from `words`.
    pub fn insert(&mut self, words: &[u32], pc: u32, leaders: &[u32]) -> Option<&CompiledBlock> {
        let slot = self.slot_of(pc)?;
        let block = compile_block(words, self.base, pc, leaders)?;
        let arena_index = self.arena.len() as u32;
        self.arena.push(block);
        self.index[slot] = Some(arena_index);
        self.stats.blocks_compiled += 1;
        Some(&self.arena[arena_index as usize])
    }

    /// The byte range of the code image this cache covers.
    pub fn image_range(&self) -> std::ops::Range<u32> {
        self.base..self.base + 4 * self.index.len() as u32
    }

    /// Drops every compiled block whose `[start, end)` range overlaps the
    /// words a store to `addr` may have written.
    pub fn invalidate(&mut self, addr: u32) {
        for word_addr in [addr & !3, addr.wrapping_add(3) & !3] {
            for slot in 0..self.index.len() {
                if let Some(arena_index) = self.index[slot] {
                    let block = &self.arena[arena_index as usize];
                    if word_addr >= block.start && word_addr < block.end {
                        self.index[slot] = None;
                        self.stats.invalidations += 1;
                    }
                }
            }
        }
    }
}

/// Executes `block` on `cpu`, rendering each op's noiseless power through
/// `renderer` into `sink` as it retires (record indices start at
/// `record_index`; at most `fuel - record_index` ops retire). `image` is
/// the code image's byte range: a store landing inside it retires fully
/// and then aborts the block with [`BlockExit::SelfModified`].
///
/// Architectural semantics and sample values are bit-identical to stepping
/// the same instructions through [`Cpu::step`] and rendering each
/// [`ExecRecord`](crate::cpu::ExecRecord) with
/// `PowerRenderer::render_record`.
#[allow(clippy::too_many_lines)]
pub fn run_block<M: Mmio>(
    cpu: &mut Cpu<M>,
    block: &CompiledBlock,
    renderer: &PowerRenderer,
    sink: &mut TraceBuffer,
    record_index: usize,
    fuel: usize,
    image: &std::ops::Range<u32>,
) -> BlockRun {
    let config = renderer.config();
    let (alpha_hw, beta_hd) = (config.alpha_hw, config.beta_hd);
    let (gamma_mem, delta_addr) = (config.gamma_mem, config.delta_addr);
    let epsilon_flush = config.epsilon_flush;
    let mut executed = 0usize;
    let mut samples = 0usize;
    for op in &block.ops {
        if record_index + executed >= fuel {
            return BlockRun {
                executed,
                samples,
                exit: BlockExit::OutOfFuel,
            };
        }
        // Mirrors `step()` + `PowerRenderer::data_term` exactly: register
        // terms first, then memory terms, then the flush term, each added
        // in the same order so the f64 sums are bit-identical.
        let mut data_term = 0.0;
        let mut cycles = op.cycles;
        let mut next_pc = op.pc.wrapping_add(4);
        let mut store_addr = None;
        match op.kind {
            OpKind::Lui { rd, value } | OpKind::Auipc { rd, value } => {
                if rd != Reg::ZERO {
                    let old = cpu.reg(rd);
                    cpu.set_reg(rd, value);
                    data_term += alpha_hw * renderer.leakage(value);
                    data_term += beta_hd * f64::from((old ^ value).count_ones());
                }
            }
            OpKind::Jal { rd, link, target } => {
                if rd != Reg::ZERO {
                    let old = cpu.reg(rd);
                    cpu.set_reg(rd, link);
                    data_term += alpha_hw * renderer.leakage(link);
                    data_term += beta_hd * f64::from((old ^ link).count_ones());
                }
                next_pc = target;
            }
            OpKind::Jalr {
                rd,
                rs1,
                offset,
                link,
            } => {
                let target = cpu.reg(rs1).wrapping_add(offset as u32) & !1;
                if rd != Reg::ZERO {
                    let old = cpu.reg(rd);
                    cpu.set_reg(rd, link);
                    data_term += alpha_hw * renderer.leakage(link);
                    data_term += beta_hd * f64::from((old ^ link).count_ones());
                }
                next_pc = target;
            }
            OpKind::Branch {
                cond,
                rs1,
                rs2,
                taken_pc,
                fall_pc,
            } => {
                let a = cpu.reg(rs1);
                let b = cpu.reg(rs2);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = taken_pc;
                    cycles = op.cycles_taken;
                    data_term += epsilon_flush;
                } else {
                    next_pc = fall_pc;
                }
            }
            OpKind::Load {
                rd,
                rs1,
                offset,
                width,
                signed,
            } => {
                let addr = cpu.reg(rs1).wrapping_add(offset as u32);
                let Some(value) = cpu.bus.read_width(addr, width, signed) else {
                    return BlockRun {
                        executed,
                        samples,
                        exit: BlockExit::Halted(Halt::BusFault { pc: op.pc, addr }),
                    };
                };
                if rd != Reg::ZERO {
                    let old = cpu.reg(rd);
                    cpu.set_reg(rd, value);
                    data_term += alpha_hw * renderer.leakage(value);
                    data_term += beta_hd * f64::from((old ^ value).count_ones());
                }
                data_term += gamma_mem * renderer.leakage(value);
                data_term += delta_addr * f64::from(addr.count_ones());
            }
            OpKind::Store {
                rs1,
                rs2,
                offset,
                width,
            } => {
                let addr = cpu.reg(rs1).wrapping_add(offset as u32);
                let value = cpu.reg(rs2);
                if cpu.bus.write_width(addr, value, width).is_none() {
                    return BlockRun {
                        executed,
                        samples,
                        exit: BlockExit::Halted(Halt::BusFault { pc: op.pc, addr }),
                    };
                }
                store_addr = Some(addr);
                data_term += gamma_mem * renderer.leakage(value);
                data_term += delta_addr * f64::from(addr.count_ones());
            }
            OpKind::AluImm {
                op: alu,
                rd,
                rs1,
                imm,
            } => {
                if rd != Reg::ZERO {
                    let value = crate::cpu::alu(alu, cpu.reg(rs1), imm);
                    let old = cpu.reg(rd);
                    cpu.set_reg(rd, value);
                    data_term += alpha_hw * renderer.leakage(value);
                    data_term += beta_hd * f64::from((old ^ value).count_ones());
                }
            }
            OpKind::AluReg {
                op: alu,
                rd,
                rs1,
                rs2,
            } => {
                if rd != Reg::ZERO {
                    let value = crate::cpu::alu(alu, cpu.reg(rs1), cpu.reg(rs2));
                    let old = cpu.reg(rd);
                    cpu.set_reg(rd, value);
                    data_term += alpha_hw * renderer.leakage(value);
                    data_term += beta_hd * f64::from((old ^ value).count_ones());
                }
            }
            OpKind::MulDiv {
                op: mop,
                rd,
                rs1,
                rs2,
            } => {
                if rd != Reg::ZERO {
                    let value = crate::cpu::muldiv(mop, cpu.reg(rs1), cpu.reg(rs2));
                    let old = cpu.reg(rd);
                    cpu.set_reg(rd, value);
                    data_term += alpha_hw * renderer.leakage(value);
                    data_term += beta_hd * f64::from((old ^ value).count_ones());
                }
            }
            OpKind::Ecall => {
                return BlockRun {
                    executed,
                    samples,
                    exit: BlockExit::Halted(Halt::Ecall),
                };
            }
            OpKind::Ebreak => {
                return BlockRun {
                    executed,
                    samples,
                    exit: BlockExit::Halted(Halt::Ebreak),
                };
            }
        }
        cpu.add_cycles(u64::from(cycles));
        cpu.set_pc(next_pc);
        samples += renderer.emit_record(
            record_index + executed,
            op.pc,
            op.base,
            cycles,
            data_term,
            sink,
        );
        executed += 1;
        if let Some(addr) = store_addr {
            // A store into the code image may have rewritten ops later in
            // *this* block. Abort after the store so the caller can drop
            // stale blocks and re-dispatch from fresh memory.
            let w0 = addr & !3;
            let w1 = addr.wrapping_add(3) & !3;
            if image.contains(&w0) || image.contains(&w1) {
                return BlockRun {
                    executed,
                    samples,
                    exit: BlockExit::SelfModified { addr },
                };
            }
        }
    }
    BlockRun {
        executed,
        samples,
        exit: BlockExit::Completed,
    }
}
