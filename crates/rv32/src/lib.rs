#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Indexed loops are the clearest notation for the dense numeric kernels
// in this workspace (convolutions, scatter matrices, lattice bases).
#![allow(clippy::needless_range_loop)]

//! # reveal-rv32
//!
//! A software model of the RevEAL paper's measurement target: a PicoRV32
//! (RV32IM) soft core running SEAL's Gaussian sampler, observed through a
//! power side channel.
//!
//! The crate provides four layers:
//!
//! - [`isa`]: typed RV32IM instructions with binary encode/decode;
//! - [`asm`]: a two-pass assembler (labels, `.word`, the usual
//!   pseudo-instructions) for writing kernels;
//! - [`cpu`]: the executor with PicoRV32-style multi-cycle timing, flat RAM
//!   and queue-backed MMIO ports, producing per-instruction
//!   [`cpu::ExecRecord`]s;
//! - [`power`]: an instruction-level power model (base level per class +
//!   Hamming-weight/-distance data terms + Gaussian noise) that renders
//!   records into traces, replacing the paper's SAKURA-G/PicoScope bench;
//! - [`kernel`]: the hand-compiled `set_poly_coeffs_normal` inner loop and a
//!   harness that streams SEAL noise samples into it and captures traces.
//!
//! ## Example
//!
//! ```
//! use reveal_rv32::kernel::SamplerKernel;
//! use reveal_rv32::power::PowerModelConfig;
//! use rand::SeedableRng;
//!
//! let kernel = SamplerKernel::new(8, &[132120577])?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let run = kernel.run(
//!     &[1, -2, 0, 3, -1, 0, 2, -3],
//!     &[5; 8],
//!     &PowerModelConfig::default(),
//!     &mut rng,
//! )?;
//! assert_eq!(run.coefficient_windows.len(), 8);
//! # Ok::<(), reveal_rv32::kernel::KernelError>(())
//! ```

pub mod asm;
pub mod block;
pub mod cfg;
pub mod cpu;
pub mod disasm;
pub mod isa;
pub mod kernel;
pub mod power;

pub use asm::{assemble, AssembleError, Program};
pub use block::{
    block_extent, static_leaders, BlockCache, BlockCacheStats, BlockExit, CompiledBlock,
};
pub use cfg::{BasicBlock, Cfg, CfgError, Successors};
pub use cpu::{Bus, Cpu, ExecRecord, Halt, Mmio, QueueMmio};
pub use disasm::{disassemble, format_instruction, listing};
pub use isa::{AluOp, BranchCond, Instruction, MemWidth, MulOp, Reg, Uses};
pub use kernel::{KernelError, KernelRun, KernelVariant, LoadBound, SamplerKernel, SecretSource};
pub use power::{NoiseSampler, PowerCapture, PowerModelConfig, PowerRenderer, SampleSpan};
