//! Control-flow-graph reconstruction over assembled [`Program`]s.
//!
//! The graph is built statically from the decoded instruction words: every
//! decodable word is a node, edges follow fall-through, direct jumps and
//! both branch arms. Indirect jumps (`jalr`) are resolved with one global
//! approximation that is exact for the code the workspace generates: a
//! `jalr x0, ra, 0` (i.e. `ret`) is given an edge to the return point of
//! *every* `jal ra, …` call site in the program. Any other indirect jump is
//! recorded in [`Cfg::unresolved_indirect`] so analyses can refuse to claim
//! soundness instead of silently missing paths.
//!
//! This is the substrate `reveal-lint` runs its taint fixpoint on, and it is
//! also usable on its own for kernel inspection.

use crate::asm::Program;
use crate::isa::{Instruction, Reg};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// The outgoing control flow of a single instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Successors {
    /// Execution halts (`ecall`/`ebreak`).
    Halt,
    /// Straight-line flow to the next instruction.
    Fall(u32),
    /// Unconditional direct jump (includes `jal` with its side effect of
    /// linking; the link register is data, not control).
    Jump(u32),
    /// Conditional branch: both arms.
    Branch {
        /// Target when the condition holds.
        taken: u32,
        /// Fall-through when it does not.
        fallthrough: u32,
    },
    /// Indirect jump through a register (`jalr`); targets resolved
    /// separately (see module docs).
    Indirect(Vec<u32>),
}

impl Successors {
    /// All successor PCs, in a stable order.
    pub fn pcs(&self) -> Vec<u32> {
        match self {
            Successors::Halt => Vec::new(),
            Successors::Fall(pc) | Successors::Jump(pc) => vec![*pc],
            Successors::Branch { taken, fallthrough } => vec![*taken, *fallthrough],
            Successors::Indirect(targets) => targets.clone(),
        }
    }
}

/// Errors from CFG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// A control-flow edge targets a PC outside the program image or not on
    /// a word boundary.
    BadTarget {
        /// The instruction the edge leaves from.
        from: u32,
        /// The offending target.
        to: u32,
    },
    /// A reachable PC holds a word that does not decode as an instruction.
    UndecodableReachable {
        /// Address of the undecodable word.
        pc: u32,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::BadTarget { from, to } => {
                write!(
                    f,
                    "control flow from {from:#010x} targets invalid pc {to:#010x}"
                )
            }
            CfgError::UndecodableReachable { pc } => {
                write!(f, "reachable word at {pc:#010x} does not decode")
            }
        }
    }
}

impl std::error::Error for CfgError {}

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// PC of the first instruction.
    pub start: u32,
    /// PC one past the last instruction.
    pub end: u32,
    /// Successor blocks, by starting PC.
    pub successors: Vec<u32>,
}

/// The reconstructed control-flow graph of a [`Program`].
#[derive(Debug, Clone)]
pub struct Cfg {
    base: u32,
    instrs: Vec<Option<Instruction>>,
    succs: Vec<Vec<u32>>,
    preds: BTreeMap<u32, Vec<u32>>,
    reachable: Vec<bool>,
    /// PCs of indirect jumps whose target set could not be resolved; any
    /// analysis consuming this CFG is unsound for such programs and should
    /// say so.
    pub unresolved_indirect: Vec<u32>,
}

impl Cfg {
    /// Builds the CFG of `program` as loaded at `base`, with the entry point
    /// at `base` itself.
    ///
    /// # Errors
    ///
    /// Fails when reachable control flow leaves the image or lands on an
    /// undecodable word. Unreachable data words are fine.
    pub fn from_program(program: &Program, base: u32) -> Result<Self, CfgError> {
        Self::from_program_with_targets(program, base, &BTreeMap::new())
    }

    /// Builds the CFG with externally resolved indirect-jump target sets —
    /// typically produced by a value-set analysis over a previous build of
    /// the same graph, then fed back here until no unresolved sites remain.
    ///
    /// `resolved` maps the PC of a `jalr` to its concrete target set. A
    /// resolved `jalr` contributes exactly those edges (and, when it links
    /// `ra`, its return point joins the `ret` approximation). A `jalr` with
    /// no entry — or an empty target set — falls back to the built-in
    /// handling: the `ret` idiom gets the global return-site approximation,
    /// anything else lands in [`Cfg::unresolved_indirect`].
    ///
    /// # Errors
    ///
    /// Same as [`Cfg::from_program`]; resolved targets are validated like
    /// every other edge.
    pub fn from_program_with_targets(
        program: &Program,
        base: u32,
        resolved: &BTreeMap<u32, Vec<u32>>,
    ) -> Result<Self, CfgError> {
        let n = program.words.len();
        let instrs: Vec<Option<Instruction>> = program
            .words
            .iter()
            .map(|&w| Instruction::decode(w).ok())
            .collect();

        // Return-site approximation for `ret`: the PC after every `jal ra`
        // call site — plus every *resolved* indirect call that links `ra`.
        let mut return_sites = Vec::new();
        for (i, instr) in instrs.iter().enumerate() {
            let pc = base + 4 * i as u32;
            match instr {
                Some(Instruction::Jal { rd, .. }) if *rd == Reg(1) => {
                    return_sites.push(pc + 4);
                }
                Some(Instruction::Jalr { rd, .. })
                    if *rd == Reg(1) && resolved.get(&pc).is_some_and(|t| !t.is_empty()) =>
                {
                    return_sites.push(pc + 4);
                }
                _ => {}
            }
        }

        let mut succs = vec![Vec::new(); n];
        let mut unresolved = Vec::new();
        for (i, instr) in instrs.iter().enumerate() {
            let pc = base + 4 * i as u32;
            let Some(instr) = instr else { continue };
            let s = match *instr {
                Instruction::Ecall | Instruction::Ebreak => Successors::Halt,
                Instruction::Jal { offset, .. } => Successors::Jump(pc.wrapping_add(offset as u32)),
                Instruction::Branch { offset, .. } => Successors::Branch {
                    taken: pc.wrapping_add(offset as u32),
                    fallthrough: pc + 4,
                },
                Instruction::Jalr { rd, rs1, offset } => {
                    if let Some(targets) = resolved.get(&pc).filter(|t| !t.is_empty()) {
                        Successors::Indirect(targets.clone())
                    } else if rd == Reg::ZERO && rs1 == Reg(1) && offset == 0 {
                        // `ret`: conservatively, any call site may have
                        // linked here.
                        Successors::Indirect(return_sites.clone())
                    } else {
                        unresolved.push(pc);
                        Successors::Indirect(Vec::new())
                    }
                }
                _ => Successors::Fall(pc + 4),
            };
            succs[i] = s.pcs();
        }

        let mut cfg = Cfg {
            base,
            instrs,
            succs,
            preds: BTreeMap::new(),
            reachable: vec![false; n],
            unresolved_indirect: unresolved,
        };

        // Reachability sweep from the entry; validates edges as it goes.
        let mut queue = VecDeque::new();
        if n > 0 {
            cfg.reachable[0] = true;
            queue.push_back(0usize);
        }
        while let Some(i) = queue.pop_front() {
            let pc = base + 4 * i as u32;
            if cfg.instrs[i].is_none() {
                return Err(CfgError::UndecodableReachable { pc });
            }
            for &t in &cfg.succs[i] {
                let j = cfg
                    .index_of(t)
                    .ok_or(CfgError::BadTarget { from: pc, to: t })?;
                cfg.preds.entry(t).or_default().push(pc);
                if !cfg.reachable[j] {
                    cfg.reachable[j] = true;
                    queue.push_back(j);
                }
            }
        }
        for preds in cfg.preds.values_mut() {
            preds.sort_unstable();
            preds.dedup();
        }
        Ok(cfg)
    }

    /// The load address of the program.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of words in the underlying image.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    fn index_of(&self, pc: u32) -> Option<usize> {
        if pc < self.base || !(pc - self.base).is_multiple_of(4) {
            return None;
        }
        let i = ((pc - self.base) / 4) as usize;
        (i < self.instrs.len()).then_some(i)
    }

    /// The decoded instruction at `pc` (`None` for data words or
    /// out-of-image PCs).
    pub fn instruction_at(&self, pc: u32) -> Option<Instruction> {
        self.instrs.get(self.index_of(pc)?).copied().flatten()
    }

    /// Successor PCs of the instruction at `pc`.
    pub fn successors_of(&self, pc: u32) -> &[u32] {
        self.index_of(pc)
            .map(|i| self.succs[i].as_slice())
            .unwrap_or(&[])
    }

    /// Predecessor PCs of the instruction at `pc` (reachable edges only).
    pub fn predecessors_of(&self, pc: u32) -> &[u32] {
        self.preds.get(&pc).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `pc` is reachable from the entry.
    pub fn is_reachable(&self, pc: u32) -> bool {
        self.index_of(pc)
            .map(|i| self.reachable[i])
            .unwrap_or(false)
    }

    /// Iterates over `(pc, instruction)` for every reachable instruction.
    pub fn reachable_instructions(&self) -> impl Iterator<Item = (u32, Instruction)> + '_ {
        self.instrs
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.reachable[i])
            .map(move |(i, instr)| (self.base + 4 * i as u32, instr.expect("reachable")))
    }

    /// Partitions the reachable instructions into basic blocks.
    ///
    /// Block boundaries come from the same
    /// [`static_leaders`](crate::block::static_leaders) /
    /// [`block_extent`](crate::block::block_extent) pair the interpreter's
    /// block compiler uses, with the CFG's resolved
    /// indirect-jump edges fed in as extra leaders — so the static analyzer
    /// and the block cache can never disagree about where a block begins or
    /// ends.
    pub fn basic_blocks(&self) -> Vec<BasicBlock> {
        // Indirect targets (`ret` return sites, resolved `jalr` edges) are
        // invisible to the static scan; they enter as extra leaders.
        let mut extra: Vec<u32> = Vec::new();
        for (pc, instr) in self.reachable_instructions() {
            if matches!(instr, Instruction::Jalr { .. }) {
                extra.extend_from_slice(self.successors_of(pc));
            }
        }
        let leaders = crate::block::static_leaders(&self.instrs, self.base, &extra);
        let mut blocks = Vec::with_capacity(leaders.len());
        for &start in &leaders {
            if !self.is_reachable(start) {
                continue;
            }
            let end = crate::block::block_extent(&self.instrs, self.base, start, &leaders);
            let successors = self.successors_of(end - 4).to_vec();
            blocks.push(BasicBlock {
                start,
                end,
                successors,
            });
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn cfg_of(src: &str) -> Cfg {
        let p = assemble(src, 0).unwrap();
        Cfg::from_program(&p, 0).unwrap()
    }

    #[test]
    fn straight_line_fall_through() {
        let cfg = cfg_of("addi t0, t0, 1\naddi t0, t0, 2\nebreak");
        assert_eq!(cfg.successors_of(0), &[4]);
        assert_eq!(cfg.successors_of(4), &[8]);
        assert_eq!(cfg.successors_of(8), &[] as &[u32]);
        assert!(cfg.is_reachable(8));
    }

    #[test]
    fn branch_has_two_arms() {
        let cfg = cfg_of(
            "
            beqz t0, skip
            addi t1, t1, 1
            skip:
            ebreak
            ",
        );
        let mut s = cfg.successors_of(0).to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![4, 8]);
        assert_eq!(cfg.predecessors_of(8), &[0, 4]);
    }

    #[test]
    fn loops_are_reachable_and_cyclic() {
        let cfg = cfg_of(
            "
            li t0, 5
            loop:
            addi t0, t0, -1
            bnez t0, loop
            ebreak
            ",
        );
        assert_eq!(cfg.successors_of(8), &[4, 12]);
        assert!(cfg.predecessors_of(4).contains(&8));
    }

    #[test]
    fn ret_edges_connect_to_all_call_sites() {
        let cfg = cfg_of(
            "
            jal ra, sub
            jal ra, sub
            ebreak
            sub:
            addi t0, t0, 1
            ret
            ",
        );
        let mut ret_succs = cfg.successors_of(16).to_vec();
        ret_succs.sort_unstable();
        // Both return points: after each call.
        assert_eq!(ret_succs, vec![4, 8]);
        assert!(cfg.unresolved_indirect.is_empty());
    }

    #[test]
    fn unknown_indirect_is_flagged() {
        let cfg = cfg_of("jr t0\nebreak");
        assert_eq!(cfg.unresolved_indirect, vec![0]);
        assert_eq!(cfg.successors_of(0), &[] as &[u32]);
    }

    #[test]
    fn resolved_targets_feed_back_into_the_graph() {
        let p = assemble(
            "
            la   t0, helper
            jalr ra, t0, 0
            ebreak
            helper:
            addi t1, t1, 1
            ret
            ",
            0,
        )
        .unwrap();
        // `la` expands to two words: jalr at 8, ebreak at 12, helper at 16.
        let naive = Cfg::from_program(&p, 0).unwrap();
        assert_eq!(naive.unresolved_indirect, vec![8]);
        assert!(!naive.is_reachable(16));
        let mut resolved = BTreeMap::new();
        resolved.insert(8u32, vec![16u32]);
        let cfg = Cfg::from_program_with_targets(&p, 0, &resolved).unwrap();
        assert!(cfg.unresolved_indirect.is_empty());
        assert_eq!(cfg.successors_of(8), &[16]);
        // The resolved call's return point joins the `ret` approximation.
        assert_eq!(cfg.successors_of(20), &[12]);
        assert!(cfg.is_reachable(12), "ebreak reached through the return");
    }

    #[test]
    fn empty_resolved_set_still_counts_as_unresolved() {
        let p = assemble("jr t0\nebreak", 0).unwrap();
        let mut resolved = BTreeMap::new();
        resolved.insert(0u32, Vec::new());
        let cfg = Cfg::from_program_with_targets(&p, 0, &resolved).unwrap();
        assert_eq!(cfg.unresolved_indirect, vec![0]);
    }

    #[test]
    fn unreachable_data_words_are_tolerated() {
        let cfg = cfg_of(
            "
            j over
            table: .word 0xFFFFFFFF
            over:
            ebreak
            ",
        );
        assert!(!cfg.is_reachable(4));
        assert!(cfg.is_reachable(8));
    }

    #[test]
    fn reachable_garbage_is_an_error() {
        let p = assemble("nop\n.word 0xFFFFFFFF", 0).unwrap();
        assert_eq!(
            Cfg::from_program(&p, 0).err(),
            Some(CfgError::UndecodableReachable { pc: 4 })
        );
    }

    #[test]
    fn out_of_image_target_is_an_error() {
        let p = assemble("j 64\nebreak", 0).unwrap();
        assert!(matches!(
            Cfg::from_program(&p, 0),
            Err(CfgError::BadTarget { from: 0, to: 64 })
        ));
    }

    #[test]
    fn basic_blocks_tile_the_kernel() {
        let kernel = crate::kernel::SamplerKernel::new(8, &[132120577]).unwrap();
        let cfg = Cfg::from_program(kernel.program(), 0).unwrap();
        let blocks = cfg.basic_blocks();
        assert!(blocks.len() > 5, "the sign ladder has several blocks");
        // Block starts are unique and sorted; each block is non-empty.
        for b in &blocks {
            assert!(b.start < b.end);
        }
        for w in blocks.windows(2) {
            assert!(w[0].start < w[1].start);
        }
    }

    #[test]
    fn basic_blocks_agree_with_the_superinstruction_compiler() {
        // The analyzer and the interpreter derive block extents from the
        // same leader set; a block the compiler would form at any CFG block
        // start must span exactly the CFG block. (`compile_block` decodes
        // the raw words with its own loop and shares only the
        // control-transfer test with `block_extent`, so this is a real
        // cross-check, not a tautology.)
        let kernel = crate::kernel::SamplerKernel::new(8, &[132120577]).unwrap();
        let program = kernel.program();
        let cfg = Cfg::from_program(program, 0).unwrap();
        let mut extra: Vec<u32> = Vec::new();
        for (pc, instr) in cfg.reachable_instructions() {
            if matches!(instr, Instruction::Jalr { .. }) {
                extra.extend_from_slice(cfg.successors_of(pc));
            }
        }
        let instrs: Vec<Option<Instruction>> = program
            .words
            .iter()
            .map(|&w| Instruction::decode(w).ok())
            .collect();
        let leaders = crate::block::static_leaders(&instrs, 0, &extra);
        for block in cfg.basic_blocks() {
            let compiled = crate::block::compile_block(&program.words, 0, block.start, &leaders)
                .expect("reachable block entry must compile");
            assert_eq!(
                (compiled.start, compiled.end),
                (block.start, block.end),
                "extent mismatch at {:#010x}",
                block.start
            );
        }
    }
}
