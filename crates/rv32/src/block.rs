//! Basic-block compilation for the capture loop's dispatch.
//!
//! [`Cpu::step`] fetches and decodes one word per retired instruction.
//! This module decodes once per block instead: straight-line runs of
//! instructions are discovered at first execution and decoded once into a
//! [`CompiledBlock`]. [`run_block`] then passes each cached [`Instruction`]
//! to `Cpu::execute`, the same semantics `step()` runs, and renders the
//! record it returns with [`PowerRenderer::render_record`] into the
//! caller's [`TraceBuffer`] as it retires. `run_block` itself does only
//! the dispatch work: the record budget, halts, the abort after a store
//! into the code image, and sample counting.
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
//! Stores are the only way the image changes. When a store lands inside
//! the code image, [`run_block`] aborts the block *after* that store
//! retires (architectural state and emitted samples are exactly those of
//! the per-step path) and reports the address so
//! [`BlockCache::invalidate`] can drop every compiled block overlapping it.
//! `step()` needs no such bookkeeping: it decodes every word it fetches.
//!
//! ## Bit-identity
//!
//! A block retires the records stepping would, in the same order, through
//! the same execution and emission code; noise is added over the finished
//! capture by the caller. The verbatim
//! `run_reference`/`render_power_reference` pair remains the oracle for
//! dispatch, the burst memo, rendering and noise:
//! `tests/fast_path_equivalence.rs` pins the block path against it over
//! all five sampler variants, and against stepping over random programs
//! cut off at random record budgets.

use crate::cpu::{Cpu, Halt, Mmio};
use crate::isa::Instruction;
use crate::power::{PowerRenderer, TraceBuffer};

/// A compiled basic block: a maximal straight-line instruction run
/// starting at `start`, decoded once.
#[derive(Debug, Clone)]
pub struct CompiledBlock {
    /// Entry PC.
    pub start: u32,
    /// One past the PC of the last instruction.
    pub end: u32,
    /// The decoded instructions at `start`, `start + 4`, … up to `end`.
    instructions: Vec<Instruction>,
}

impl CompiledBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

/// Why block execution stopped before (or at) the block's end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockExit {
    /// All instructions retired; `cpu.pc()` points at the successor.
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
    /// Instructions retired (= records emitted, except a halting
    /// `ecall`/`ebreak` which retires no record).
    pub executed: usize,
    /// Power samples emitted.
    pub samples: usize,
    /// Why the call returned.
    pub exit: BlockExit,
}

/// Whether `instr` ends a basic block: branches, jumps, `ecall` and
/// `ebreak` transfer control.
fn is_transfer(instr: &Instruction) -> bool {
    matches!(
        instr,
        Instruction::Branch { .. }
            | Instruction::Jal { .. }
            | Instruction::Jalr { .. }
            | Instruction::Ecall
            | Instruction::Ebreak
    )
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
        let Some(instr) = instr else {
            continue;
        };
        let pc = base + 4 * i as u32;
        if let Instruction::Jal { offset, .. } | Instruction::Branch { offset, .. } = instr {
            leaders.push(pc.wrapping_add(*offset as u32));
        }
        if is_transfer(instr) {
            leaders.push(pc + 4);
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
        pc += 4;
        if is_transfer(instr) || leaders.binary_search(&pc).is_ok() {
            return pc;
        }
    }
}

/// Compiles the basic block entered at `start` from the current contents
/// of `words` (the code image as loaded at `base`): decodes from `start`
/// and stops like [`block_extent`]. Returns `None` when the entry word
/// itself does not decode — the caller falls back to `step()`, which
/// faults identically to the per-step path.
pub fn compile_block(
    words: &[u32],
    base: u32,
    start: u32,
    leaders: &[u32],
) -> Option<CompiledBlock> {
    let offset = start.wrapping_sub(base);
    if !offset.is_multiple_of(4) {
        return None;
    }
    let mut instructions = Vec::new();
    let mut pc = start;
    for &word in words.get((offset / 4) as usize..)? {
        let Ok(instr) = Instruction::decode(word) else {
            break;
        };
        instructions.push(instr);
        pc += 4;
        if is_transfer(&instr) || leaders.binary_search(&pc).is_ok() {
            break;
        }
    }
    if instructions.is_empty() {
        return None;
    }
    Some(CompiledBlock {
        start,
        end: pc,
        instructions,
    })
}

/// Compilation and execution statistics of one [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Blocks compiled (first-execution discoveries plus recompiles after
    /// invalidation).
    pub blocks_compiled: u64,
    /// Dispatches served by an already-compiled block.
    pub dispatch_hits: u64,
    /// Compiled blocks dropped because a store overlapped them.
    pub invalidations: u64,
    /// Power samples emitted by block execution.
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
    /// Execution statistics; they survive [`BlockCache::reset_program`].
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

/// Executes `block` on `cpu`, rendering each instruction's noiseless power
/// through `renderer` into `sink` as it retires (record indices start at
/// `record_index`; at most `fuel - record_index` instructions retire).
/// `image` is the code image's byte range: a store landing inside it
/// retires fully and then aborts the block with
/// [`BlockExit::SelfModified`].
///
/// Each instruction goes through `Cpu::execute` and
/// [`PowerRenderer::render_record`], so architectural state and samples
/// are those of stepping the same instructions through [`Cpu::step`].
pub fn run_block<M: Mmio>(
    cpu: &mut Cpu<M>,
    block: &CompiledBlock,
    renderer: &PowerRenderer,
    sink: &mut TraceBuffer,
    record_index: usize,
    fuel: usize,
    image: &std::ops::Range<u32>,
) -> BlockRun {
    let first_sample = sink.len();
    let mut executed = 0usize;
    let exit = 'run: {
        for &instruction in &block.instructions {
            if record_index + executed >= fuel {
                break 'run BlockExit::OutOfFuel;
            }
            let record = match cpu.execute(instruction) {
                Ok(record) => record,
                Err(halt) => break 'run BlockExit::Halted(halt),
            };
            renderer.render_record(record_index + executed, &record, sink);
            executed += 1;
            if let Some((addr, _, true)) = record.mem_access {
                // A store into the code image may have rewritten
                // instructions later in *this* block. Abort after the store
                // so the caller can drop stale blocks and re-dispatch from
                // fresh memory.
                let w0 = addr & !3;
                let w1 = addr.wrapping_add(3) & !3;
                if image.contains(&w0) || image.contains(&w1) {
                    break 'run BlockExit::SelfModified { addr };
                }
            }
        }
        BlockExit::Completed
    };
    BlockRun {
        executed,
        samples: sink.len() - first_sample,
        exit,
    }
}
