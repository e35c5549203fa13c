//! The Gaussian-sampler kernel: SEAL's `set_poly_coeffs_normal` inner loop
//! compiled by hand to RV32IM assembly, plus the capture harness.
//!
//! The program mirrors the shape a C++ compiler produces for Fig. 2 of the
//! paper:
//!
//! 1. a *distribution call* of data-dependent duration (the Marsaglia-polar
//!    loop plus clipping rejections of `ClippedNormalDistribution`), rendered
//!    as a burst of `mul` instructions — this is the visible peak that lets
//!    the attacker segment the trace per coefficient (Fig. 3a);
//! 2. the **if / else-if / else** sign ladder with three *different*
//!    instruction sequences (vulnerability 1, Fig. 3b);
//! 3. the value-dependent store `poly[i + j·n] = …` (vulnerability 2);
//! 4. the negation `noise = -noise` on the negative path (vulnerability 3).
//!
//! The noise values and per-call durations stream in through memory-mapped
//! ports, serviced by the harness from the same `ClippedNormalDistribution`
//! the `reveal-bfv` crate uses — so the kernel consumes exactly the values a
//! SEAL encryption would.

use crate::asm::{assemble, AssembleError, Program};
use crate::block::{self, BlockCache, BlockCacheStats, BlockExit};
use crate::cpu::{Bus, Cpu, ExecRecord, Halt, QueueMmio};
use crate::isa::{Instruction, Reg};
use crate::power::{
    add_noise, render_power_reference, PowerCapture, PowerModelConfig, PowerRenderer, TraceBuffer,
};
use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// Burst working registers (fixed by the kernel template below).
const T0: Reg = Reg(5);
const T1: Reg = Reg(6);

/// MMIO port delivering the next sampled noise value (two's complement).
pub const NOISE_PORT: u32 = 0xF000_0000;
/// MMIO port delivering the duration (inner iterations) of the next
/// distribution call.
pub const ITER_PORT: u32 = 0xF000_0004;
/// MMIO port delivering fresh uniform masks (masked variant only).
pub const RAND_PORT: u32 = 0xF000_0008;
/// Base address of the coefficient-modulus table.
pub const Q_TABLE_BASE: u32 = 0x1000;
/// Base address of the output polynomial buffer.
pub const POLY_BASE: u32 = 0x2000;
/// Base address of the second share buffer (masked variant only).
pub const SHARE1_BASE: u32 = 0x0010_0000;
/// Base address of the coefficient-permutation table (shuffled variant only).
pub const PERM_BASE: u32 = 0x0008_0000;
/// Base address of the per-coefficient noise-variance scratch (CKKS variant
/// only) — models the encoder's noise-budget bookkeeping.
pub const VAR_BASE: u32 = 0x0004_0000;
/// Magnitude bound on the sampled noise: `ClippedNormalDistribution` clips at
/// `±6.6σ` with `σ = 3.19` (§II-A), so every coefficient lies in
/// `[-NOISE_BOUND, NOISE_BOUND]`.
pub const NOISE_BOUND: i64 = 21;

/// An instruction that introduces secret data into the kernel's data flow.
///
/// Produced by [`SamplerKernel::secret_sources`]; consumed by static
/// leakage analyses (`reveal-lint`) as taint roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretSource {
    /// PC of the load that reads the secret.
    pub pc: u32,
    /// The register the load defines.
    pub reg: crate::isa::Reg,
    /// The MMIO port the secret arrives on.
    pub port: u32,
    /// Human-readable description of the secret.
    pub description: &'static str,
}

/// A value range the harness guarantees for loads from one address region.
///
/// These are the kernel's *public-input preconditions* — facts about MMIO
/// ports and harness-initialized tables that hold on every run (the
/// assume/guarantee contract constant-time verifiers attach to public
/// inputs). Static analyses consume them via [`SamplerKernel::load_bounds`]
/// to bound loaded values instead of widening them to ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadBound {
    /// First byte address of the region.
    pub base: u32,
    /// Region length in bytes.
    pub len: u32,
    /// Least value a load can observe (loaded word, sign-extended).
    pub lo: i64,
    /// Greatest value a load can observe (inclusive).
    pub hi: i64,
    /// What the region holds.
    pub description: &'static str,
}

/// Which noise-writer implementation the kernel models (§V-A variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelVariant {
    /// SEAL v3.2's vulnerable if/else-if/else ladder (Fig. 2).
    #[default]
    Vulnerable,
    /// Post-v3.6 spirit: branchless, constant control flow — the sign is
    /// folded in arithmetically (`srai`/`xor`/`and`/`or`), so vulnerability 1
    /// disappears (data-flow leakage remains).
    Branchless,
    /// First-order arithmetic masking of the *stored value only*, keeping
    /// the sign ladder — the half-measure the paper warns about.
    MaskedLadder,
    /// Coefficient shuffling (§V-A's randomization countermeasure): the sign
    /// ladder is kept verbatim but the output index is drawn from a fresh
    /// random permutation, and the store runs through a helper reached by an
    /// *indirect* call — the shape a compiler gives a function pointer.
    Shuffled,
    /// The CKKS encoder's noise path: branchless sign fold plus the
    /// noise-variance bookkeeping (`noise²`) the encoder keeps per
    /// coefficient — constant control flow, but the squaring multiplier and
    /// variance store still touch secret data.
    Ckks,
}

/// Errors from building or running the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Assembly of the generated program failed (a bug in the generator).
    Assemble(AssembleError),
    /// The program did not halt via `ebreak`.
    BadHalt(Halt),
    /// Input lengths disagreed.
    InputMismatch { expected: usize, got: usize },
    /// Degree must be a power of two (the address computation uses shifts).
    DegreeNotPowerOfTwo(usize),
    /// Moduli must fit in 32 bits for the RV32 data path.
    ModulusTooWide(u64),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Assemble(e) => write!(f, "kernel assembly failed: {e}"),
            KernelError::BadHalt(h) => write!(f, "kernel halted abnormally: {h}"),
            KernelError::InputMismatch { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            KernelError::DegreeNotPowerOfTwo(n) => {
                write!(f, "degree {n} is not a power of two")
            }
            KernelError::ModulusTooWide(q) => {
                write!(f, "modulus {q} does not fit the 32-bit data path")
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl From<AssembleError> for KernelError {
    fn from(e: AssembleError) -> Self {
        KernelError::Assemble(e)
    }
}

/// The result of one kernel execution: power trace, architectural output,
/// and ground-truth annotations for profiling experiments.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The simulated power capture.
    pub capture: PowerCapture,
    /// The polynomial the kernel wrote, in SEAL's `poly[i + j·n]` layout
    /// (reconstructed from the shares for the masked variant).
    pub poly: Vec<u32>,
    /// The two share polynomials (masked variant only).
    pub shares: Option<(Vec<u32>, Vec<u32>)>,
    /// The output-index permutation used (shuffled variant only); `poly` is
    /// already un-permuted back to the `i + j·n` layout.
    pub permutation: Option<Vec<usize>>,
    /// Ground truth: per-coefficient sample windows `[start, end)` — used by
    /// the *profiling* stage (the attacker controls the device then) and by
    /// tests; the attack stage re-derives windows from the trace itself.
    pub coefficient_windows: Vec<(usize, usize)>,
    /// Executed instruction count.
    pub instruction_count: usize,
}

/// Builds and runs the sampler kernel for a fixed `(n, q_1..q_k)` geometry.
///
/// # Examples
///
/// ```
/// use reveal_rv32::kernel::SamplerKernel;
/// use reveal_rv32::power::PowerModelConfig;
/// use rand::SeedableRng;
///
/// let kernel = SamplerKernel::new(8, &[132120577])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let run = kernel.run(
///     &[3, -2, 0, 1, -1, 5, 0, -4],
///     &[4, 6, 3, 5, 4, 7, 3, 5],
///     &PowerModelConfig::default(),
///     &mut rng,
/// )?;
/// assert_eq!(run.poly[0], 3);
/// assert_eq!(run.poly[1], 132120577 - 2);
/// assert_eq!(run.poly[2], 0);
/// # Ok::<(), reveal_rv32::kernel::KernelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SamplerKernel {
    n: usize,
    moduli: Vec<u32>,
    variant: KernelVariant,
    program: Program,
    outer_pc: u32,
    dist_done_pc: u32,
}

/// Fig. 2's vulnerable if/else-if/else ladder.
const VULNERABLE_LADDER: &str = "
                # ---- Fig. 2 lines 13-29: the vulnerable sign ladder ----
                blez t2, not_positive
                li   t3, 0               # j = 0
            pos_loop:
                slli t4, t3, {log_n}     # j * n
                add  t4, t4, a0          # i + j*n
                slli t4, t4, 2
                add  t4, t4, s4
                sw   t2, 0(t4)           # poly[i + j*n] = noise
                addi t3, t3, 1
                blt  t3, s2, pos_loop
                j    coeff_done
            not_positive:
                bgez t2, zero_case
                sub  t2, zero, t2        # noise = -noise (vulnerability 3)
                li   t3, 0
            neg_loop:
                slli t5, t3, 2
                add  t5, t5, s3
                lw   t5, 0(t5)           # coeff_modulus[j]
                sub  t5, t5, t2          # q_j - noise
                slli t4, t3, {log_n}
                add  t4, t4, a0
                slli t4, t4, 2
                add  t4, t4, s4
                sw   t5, 0(t4)           # poly[i + j*n] = q_j - noise
                addi t3, t3, 1
                blt  t3, s2, neg_loop
                j    coeff_done
            zero_case:
                li   t3, 0
            zero_loop:
                slli t4, t3, {log_n}
                add  t4, t4, a0
                slli t4, t4, 2
                add  t4, t4, s4
                sw   zero, 0(t4)         # poly[i + j*n] = 0
                addi t3, t3, 1
                blt  t3, s2, zero_loop
";

/// Post-v3.6 spirit: constant control flow, sign folded in arithmetically.
const BRANCHLESS_LADDER: &str = "
                # ---- branchless writer (SEAL >= 3.6 spirit) ----
                srai t3, t2, 31          # mask = noise < 0 ? -1 : 0
                xor  t5, t2, t3
                sub  t5, t5, t3          # |noise|
                li   t6, 0               # j = 0
            bl_loop:
                slli a2, t6, 2
                add  a2, a2, s3
                lw   a2, 0(a2)           # q_j
                sub  a2, a2, t5          # q_j - |noise|
                and  a2, a2, t3          # selected when negative
                xori a3, t3, -1
                and  a3, t5, a3          # |noise| when non-negative
                or   a2, a2, a3          # residue
                slli a4, t6, {log_n}
                add  a4, a4, a0
                slli a4, a4, 2
                add  a4, a4, s4
                sw   a2, 0(a4)           # poly[i + j*n] = residue
                addi t6, t6, 1
                blt  t6, s2, bl_loop
";

/// First-order masked stores behind the *unchanged* sign ladder — the
/// half-measure §V-A argues is insufficient against single-trace attacks.
const MASKED_LADDER: &str = "
                # ---- masked stores, vulnerable ladder kept ----
                blez t2, m_not_pos
                li   t3, 0
            m_pos_loop:
                mv   a2, t2              # residue = noise
                jal  ra, m_store
                addi t3, t3, 1
                blt  t3, s2, m_pos_loop
                j    coeff_done
            m_not_pos:
                bgez t2, m_zero
                sub  t2, zero, t2        # negation still executes
                li   t3, 0
            m_neg_loop:
                slli a3, t3, 2
                add  a3, a3, s3
                lw   a3, 0(a3)           # q_j
                sub  a2, a3, t2          # residue = q_j - noise
                jal  ra, m_store
                addi t3, t3, 1
                blt  t3, s2, m_neg_loop
                j    coeff_done
            m_zero:
                li   t3, 0
            m_zero_loop:
                li   a2, 0
                jal  ra, m_store
                addi t3, t3, 1
                blt  t3, s2, m_zero_loop
                j    coeff_done
            m_store:                     # a2 = residue, t3 = j, a0 = i
                slli a3, t3, 2
                add  a3, a3, s3
                lw   a3, 0(a3)           # q_j
                lw   a4, 8(s0)           # fresh mask r from RAND_PORT
                sub  a5, a2, a4          # residue - r
                srai t4, a5, 31
                and  t4, t4, a3
                add  a5, a5, t4          # mod q_j
                slli t4, t3, {log_n}
                add  t4, t4, a0
                slli t4, t4, 2
                add  a6, t4, s4
                sw   a4, 0(a6)           # share0 = r
                li   a7, {share1_base}
                add  a6, t4, a7
                sw   a5, 0(a6)           # share1 = residue - r
                ret
";

/// Shuffling countermeasure: ladder kept, output index permuted, store via
/// an indirect call (the codegen shape of a writer function pointer).
const SHUFFLED_LADDER: &str = "
                # ---- shuffled writer: ladder kept, output index permuted ----
                li   a1, {perm_base}
                slli a5, a0, 2
                add  a1, a1, a5
                lw   a1, 0(a1)           # i' = perm[i] (public permutation)
                la   t6, s_store         # writer helper, reached indirectly
                blez t2, s_not_pos
                li   t3, 0
            s_pos_loop:
                mv   a2, t2              # residue = noise
                jalr ra, t6, 0
                addi t3, t3, 1
                blt  t3, s2, s_pos_loop
                j    coeff_done
            s_not_pos:
                bgez t2, s_zero
                sub  t2, zero, t2        # negation still executes
                li   t3, 0
            s_neg_loop:
                slli a3, t3, 2
                add  a3, a3, s3
                lw   a3, 0(a3)           # q_j
                sub  a2, a3, t2          # residue = q_j - noise
                jalr ra, t6, 0
                addi t3, t3, 1
                blt  t3, s2, s_neg_loop
                j    coeff_done
            s_zero:
                li   t3, 0
            s_zero_loop:
                li   a2, 0
                jalr ra, t6, 0
                addi t3, t3, 1
                blt  t3, s2, s_zero_loop
                j    coeff_done
            s_store:                     # a2 = residue, t3 = j, a1 = perm[i]
                slli t4, t3, {log_n}
                add  t4, t4, a1          # perm[i] + j*n
                slli t4, t4, 2
                add  t4, t4, s4
                sw   a2, 0(t4)           # poly[perm[i] + j*n] = residue
                ret
";

/// CKKS encoder noise path: branchless fold plus per-coefficient variance
/// bookkeeping.
const CKKS_LADDER: &str = "
                # ---- CKKS noise path: branchless fold + variance scratch ----
                mul  a5, t2, t2          # noise^2 for the budget estimate
                li   a6, {var_base}
                slli a7, a0, 2
                add  a6, a6, a7
                sw   a5, 0(a6)           # variance[i] = noise^2
                srai t3, t2, 31          # mask = noise < 0 ? -1 : 0
                xor  t5, t2, t3
                sub  t5, t5, t3          # |noise|
                li   t6, 0               # j = 0
            ck_loop:
                slli a2, t6, 2
                add  a2, a2, s3
                lw   a2, 0(a2)           # q_j
                sub  a2, a2, t5          # q_j - |noise|
                and  a2, a2, t3          # selected when negative
                xori a3, t3, -1
                and  a3, t5, a3          # |noise| when non-negative
                or   a2, a2, a3          # residue
                slli a4, t6, {log_n}
                add  a4, a4, a0
                slli a4, a4, 2
                add  a4, a4, s4
                sw   a2, 0(a4)           # poly[i + j*n] = residue
                addi t6, t6, 1
                blt  t6, s2, ck_loop
";

impl SamplerKernel {
    /// Generates and assembles the kernel program.
    ///
    /// # Errors
    ///
    /// Fails when `n` is not a power of two or a modulus exceeds 32 bits.
    pub fn new(n: usize, moduli: &[u64]) -> Result<Self, KernelError> {
        Self::with_variant(n, moduli, KernelVariant::Vulnerable)
    }

    /// Generates the kernel for a specific sampler variant (§V-A study).
    ///
    /// # Errors
    ///
    /// Same as [`SamplerKernel::new`].
    pub fn with_variant(
        n: usize,
        moduli: &[u64],
        variant: KernelVariant,
    ) -> Result<Self, KernelError> {
        if !n.is_power_of_two() {
            return Err(KernelError::DegreeNotPowerOfTwo(n));
        }
        let mut moduli32 = Vec::with_capacity(moduli.len());
        for &q in moduli {
            let q32 = u32::try_from(q).map_err(|_| KernelError::ModulusTooWide(q))?;
            moduli32.push(q32);
        }
        let log_n = n.trailing_zeros();
        let k = moduli32.len();
        let ladder = match variant {
            KernelVariant::Vulnerable => VULNERABLE_LADDER,
            KernelVariant::Branchless => BRANCHLESS_LADDER,
            KernelVariant::MaskedLadder => MASKED_LADDER,
            KernelVariant::Shuffled => SHUFFLED_LADDER,
            KernelVariant::Ckks => CKKS_LADDER,
        };
        let body = format!(
            "
            start:
                li   s0, 0xF0000000      # MMIO base
                li   s1, {n}             # coeff_count
                li   s2, {k}             # coeff_mod_count
                li   s3, {q_base}        # q table
                li   s4, {poly_base}     # poly buffer
                li   a0, 0               # i = 0
            outer:
                # ---- ClippedNormalDistribution call (time-variant) ----
                lw   t0, 4(s0)           # polar/clip iteration count
                li   t1, 0x3039          # working value for the burst
            dist_loop:
                beqz t0, dist_done
                mul  t1, t1, t1          # power-hungry: the Fig. 3 peak
                addi t0, t0, -1
                j    dist_loop
            dist_done:
                lw   t2, 0(s0)           # int64_t noise = dist(engine)
                beq  a0, s1, end         # dummy (n+1)-th iteration: stop here
{ladder}
            coeff_done:
                addi a0, a0, 1
                # `<=` so a dummy (n+1)-th iteration runs its distribution
                # burst: on the real device the encryption continues after the
                # sampler, so the last coefficient's window is followed by
                # more activity just like every other window. The dummy exits
                # at the `beq` above, before touching the polynomial.
                ble  a0, s1, outer
            end:
                ebreak
            ",
            n = n,
            k = k,
            q_base = Q_TABLE_BASE,
            poly_base = POLY_BASE,
            ladder = "@LADDER@",
        );
        // Two-stage formatting keeps the per-variant ladder templates small.
        let source = body
            .replace("@LADDER@", ladder)
            .replace("{log_n}", &log_n.to_string())
            .replace("{share1_base}", &SHARE1_BASE.to_string())
            .replace("{perm_base}", &PERM_BASE.to_string())
            .replace("{var_base}", &VAR_BASE.to_string());
        let program = assemble(&source, 0)?;
        let outer_pc = program.symbol("outer").expect("outer label");
        let dist_done_pc = program.symbol("dist_done").expect("dist_done label");
        Ok(Self {
            n,
            moduli: moduli32,
            variant,
            program,
            outer_pc,
            dist_done_pc,
        })
    }

    /// The sampler variant this kernel models.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// The coefficient moduli.
    pub fn moduli(&self) -> &[u32] {
        &self.moduli
    }

    /// The assembled program (for inspection/disassembly).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The instructions that introduce secret data into the kernel.
    ///
    /// Every variant reads the sampled noise coefficient from
    /// [`NOISE_PORT`] with the load at `dist_done`; the register it defines
    /// is the taint root for static leakage analysis. The iteration-count
    /// and mask ports ([`ITER_PORT`], [`RAND_PORT`]) carry public values and
    /// are deliberately not listed.
    pub fn secret_sources(&self) -> Vec<SecretSource> {
        let pc = self
            .program
            .symbol("dist_done")
            .expect("dist_done label exists in every variant");
        let word = self.program.words[(pc / 4) as usize];
        let instr = crate::isa::Instruction::decode(word).expect("noise load decodes");
        let reg = instr.def().expect("noise load defines a register");
        vec![SecretSource {
            pc,
            reg,
            port: NOISE_PORT,
            description: "sampled noise coefficient (dist(engine) result)",
        }]
    }

    /// The public-input value ranges the run harness guarantees, per address
    /// region ([`LoadBound`]): the clipped noise magnitude, the
    /// iteration-count port, the q-table contents, and (per variant) the
    /// masking randomness and the output-index permutation.
    pub fn load_bounds(&self) -> Vec<LoadBound> {
        let min_q = self.moduli.iter().copied().min().unwrap_or(0);
        let max_q = self.moduli.iter().copied().max().unwrap_or(0);
        let mut bounds = vec![
            LoadBound {
                base: NOISE_PORT,
                len: 4,
                lo: -NOISE_BOUND,
                hi: NOISE_BOUND,
                description: "sampled noise coefficient (clipped normal)",
            },
            LoadBound {
                base: ITER_PORT,
                len: 4,
                lo: 0,
                hi: 255,
                description: "distribution-call iteration count",
            },
            LoadBound {
                base: Q_TABLE_BASE,
                len: 4 * self.moduli.len() as u32,
                lo: i64::from(min_q),
                hi: i64::from(max_q),
                description: "coefficient-modulus table",
            },
        ];
        match self.variant {
            KernelVariant::MaskedLadder => bounds.push(LoadBound {
                base: RAND_PORT,
                len: 4,
                lo: 0,
                hi: i64::from(max_q).saturating_sub(1),
                description: "uniform masking randomness",
            }),
            KernelVariant::Shuffled => bounds.push(LoadBound {
                base: PERM_BASE,
                len: 4 * self.n as u32,
                lo: 0,
                hi: self.n as i64 - 1,
                description: "output-index permutation",
            }),
            _ => {}
        }
        bounds
    }

    /// Executes the kernel over `noise_values`, with `dist_iterations[i]`
    /// burst iterations before coefficient `i`, rendering power with
    /// `config`: [`SamplerKernel::run_into`] on a fresh [`SamplerScratch`]
    /// (the capture carries per-instruction spans).
    ///
    /// # Errors
    ///
    /// Fails on input-length mismatch or abnormal halt.
    pub fn run<R: Rng + ?Sized>(
        &self,
        noise_values: &[i64],
        dist_iterations: &[u32],
        config: &PowerModelConfig,
        rng: &mut R,
    ) -> Result<KernelRun, KernelError> {
        self.run_into(
            noise_values,
            dist_iterations,
            config,
            rng,
            &mut SamplerScratch::new(),
        )
    }

    /// The test and benchmark oracle: per-step instruction decoding, a
    /// materialized `Vec<ExecRecord>`, and `sin`-per-bit power rendering
    /// with per-sample noise via [`render_power_reference`]. Shares no
    /// emission code with [`SamplerKernel::run_into`] and is bit-identical
    /// to it; the fast-path timing test measures the fast path against the
    /// profiling collector built on it.
    ///
    /// # Errors
    ///
    /// Same as [`SamplerKernel::run`].
    pub fn run_reference<R: Rng + ?Sized>(
        &self,
        noise_values: &[i64],
        dist_iterations: &[u32],
        config: &PowerModelConfig,
        rng: &mut R,
    ) -> Result<KernelRun, KernelError> {
        let mut cpu = self.prepare_cpu(noise_values, dist_iterations, rng)?;
        let (records, halt) = cpu.run(self.fuel());
        if halt != Halt::Ebreak {
            return Err(KernelError::BadHalt(halt));
        }

        let capture = render_power_reference(&records, config, rng);
        let windows = self.ground_truth_windows(&records, &capture);
        let (poly, shares, permutation) = self.read_outputs(&mut cpu);
        Ok(KernelRun {
            capture,
            poly,
            shares,
            permutation,
            coefficient_windows: windows,
            instruction_count: records.len(),
        })
    }

    /// Executes the kernel through the streaming fast path, the one
    /// production capture path: compiled basic blocks emit noiseless power
    /// samples into `scratch`'s reusable [`TraceBuffer`] as they retire (no
    /// `Vec<ExecRecord>` is materialized), and distribution bursts replay
    /// from `scratch`'s noiseless sub-trace memo. After a normal halt, one
    /// [`add_noise`] pass adds the measurement noise over the finished
    /// capture.
    ///
    /// Bit-identical to [`SamplerKernel::run_reference`] for the same inputs
    /// and RNG seed: same capture (samples and spans), outputs, windows, and
    /// instruction count. The memo and the compiled blocks are validated
    /// against a fingerprint of the kernel program, moduli, and the
    /// power-model weights (not the noise settings), and cleared on
    /// mismatch, so one scratch can serve many kernels.
    ///
    /// # Errors
    ///
    /// Same as [`SamplerKernel::run`].
    pub fn run_into<R: Rng + ?Sized>(
        &self,
        noise_values: &[i64],
        dist_iterations: &[u32],
        config: &PowerModelConfig,
        rng: &mut R,
        scratch: &mut SamplerScratch,
    ) -> Result<KernelRun, KernelError> {
        let mut cpu = self.prepare_cpu(noise_values, dist_iterations, rng)?;
        scratch.ensure(self.memo_fingerprint(config));
        if !scratch.block_cache.covers(0, self.program.words.len()) {
            // Fresh scratch (or fingerprint change dropped the cache):
            // compute the static leader set once — the memoization hook PCs
            // are leaders so no compiled block ever spans the window-start
            // or burst-exit dispatch points below.
            let instrs: Vec<Option<Instruction>> = self
                .program
                .words
                .iter()
                .map(|&w| Instruction::decode(w).ok())
                .collect();
            scratch.leaders =
                block::static_leaders(&instrs, 0, &[self.outer_pc, self.dist_done_pc]);
            scratch
                .block_cache
                .reset_program(0, self.program.words.len());
        }
        let image = scratch.block_cache.image_range();
        let renderer = PowerRenderer::new(config);
        let fuel = self.fuel();
        let mut record_index = 0usize;
        let mut window_starts = Vec::with_capacity(self.n + 1);
        let halt = loop {
            if record_index >= fuel {
                break Halt::OutOfFuel;
            }
            if cpu.pc() == self.outer_pc {
                // Start of a per-coefficient window. The `lw t0, 4(s0)`
                // executes normally (it pops ITER_PORT and tells us the
                // burst length `m`); everything from the following `li t1`
                // through the taken `beqz` into `dist_done` is a pure
                // function of `(m, t1-on-entry)` — every value, Hamming
                // distance, and cycle count — so its noiseless samples are
                // memoized under that key.
                window_starts.push(scratch.buffer.len());
                let record = match cpu.step() {
                    Ok(record) => record,
                    Err(halt) => break halt,
                };
                let m = record.reg_write.map(|(_, _, new)| new).unwrap_or(0);
                renderer.render_record(record_index, &record, &mut scratch.buffer);
                record_index += 1;
                let key = (m, cpu.reg(T1));
                if let Some(template) = scratch.memo.get(&key) {
                    scratch.memo_hits += 1;
                    let mut offset = 0usize;
                    for (i, (&pc, &count)) in template.pcs.iter().zip(&template.counts).enumerate()
                    {
                        let count = count as usize;
                        scratch.buffer.begin_record(record_index + i, pc);
                        scratch
                            .buffer
                            .push_samples(&template.samples[offset..offset + count]);
                        scratch.buffer.end_record();
                        offset += count;
                    }
                    record_index += template.pcs.len();
                    cpu.set_reg(T0, 0);
                    cpu.set_reg(T1, template.t1_exit);
                    cpu.set_pc(self.dist_done_pc);
                    cpu.add_cycles(template.cycles);
                } else {
                    scratch.memo_misses += 1;
                    let mut template = BurstTemplate::default();
                    let cycles_before = cpu.cycle();
                    let burst_start = scratch.buffer.len();
                    let mut aborted = None;
                    while cpu.pc() != self.dist_done_pc {
                        if record_index >= fuel {
                            aborted = Some(Halt::OutOfFuel);
                            break;
                        }
                        let record = match cpu.step() {
                            Ok(record) => record,
                            Err(halt) => {
                                aborted = Some(halt);
                                break;
                            }
                        };
                        let start = scratch.buffer.len();
                        renderer.render_record(record_index, &record, &mut scratch.buffer);
                        template.pcs.push(record.pc);
                        template.counts.push((scratch.buffer.len() - start) as u32);
                        record_index += 1;
                    }
                    if let Some(halt) = aborted {
                        break halt;
                    }
                    template.samples = scratch.buffer.samples()[burst_start..].to_vec();
                    template.cycles = cpu.cycle() - cycles_before;
                    template.t1_exit = cpu.reg(T1);
                    scratch.memo.insert(key, template);
                }
                continue;
            }
            // Block dispatch: decode once per block, then execute and
            // render its cached instructions one by one (`run_block`).
            let pc = cpu.pc();
            if scratch.block_cache.get(pc).is_some() {
                scratch.block_cache.stats.dispatch_hits += 1;
            } else {
                // First execution (or recompile after invalidation):
                // compile from the *current* memory image so self-modified
                // code is captured faithfully.
                let words: Vec<u32> = (0..self.program.words.len())
                    .map(|i| cpu.bus.read_u32(4 * i as u32))
                    .collect();
                scratch.block_cache.insert(&words, pc, &scratch.leaders);
            }
            let run = match scratch.block_cache.get(pc) {
                Some(compiled) => block::run_block(
                    &mut cpu,
                    compiled,
                    &renderer,
                    &mut scratch.buffer,
                    record_index,
                    fuel,
                    &image,
                ),
                None => {
                    // The entry word does not compile (undecodable or out of
                    // image): take one interpreter step, which renders or
                    // faults exactly as the pre-block path did.
                    match cpu.step() {
                        Ok(record) => {
                            renderer.render_record(record_index, &record, &mut scratch.buffer);
                            record_index += 1;
                        }
                        Err(halt) => break halt,
                    }
                    continue;
                }
            };
            record_index += run.executed;
            scratch.block_cache.stats.fused_samples += run.samples as u64;
            match run.exit {
                BlockExit::Completed | BlockExit::OutOfFuel => {}
                BlockExit::Halted(halt) => break halt,
                BlockExit::SelfModified { addr } => scratch.block_cache.invalidate(addr),
            }
        };
        if halt != Halt::Ebreak {
            return Err(KernelError::BadHalt(halt));
        }
        if config.noise_sigma > 0.0 {
            add_noise(config.noise_sigma, rng, scratch.buffer.samples_mut());
        }

        let capture = scratch.buffer.to_capture();
        let windows = self.windows_from_starts(window_starts, capture.samples.len());
        let (poly, shares, permutation) = self.read_outputs(&mut cpu);
        Ok(KernelRun {
            capture,
            poly,
            shares,
            permutation,
            coefficient_windows: windows,
            instruction_count: record_index,
        })
    }

    /// Validates inputs and builds a CPU with queued MMIO, loaded program,
    /// and initialized q-table.
    fn prepare_cpu<R: Rng + ?Sized>(
        &self,
        noise_values: &[i64],
        dist_iterations: &[u32],
        rng: &mut R,
    ) -> Result<Cpu<QueueMmio>, KernelError> {
        if noise_values.len() != self.n {
            return Err(KernelError::InputMismatch {
                expected: self.n,
                got: noise_values.len(),
            });
        }
        if dist_iterations.len() != self.n {
            return Err(KernelError::InputMismatch {
                expected: self.n,
                got: dist_iterations.len(),
            });
        }
        let mut mmio = QueueMmio::new();
        // One extra (dummy) entry each: the kernel runs an (n+1)-th
        // distribution burst so the last real window has a successor peak.
        mmio.push_reads(
            NOISE_PORT,
            noise_values
                .iter()
                .map(|&v| v as i32 as u32)
                .chain(std::iter::once(0)),
        );
        let median_iters = {
            let mut sorted = dist_iterations.to_vec();
            sorted.sort_unstable();
            sorted.get(sorted.len() / 2).copied().unwrap_or(4)
        };
        mmio.push_reads(
            ITER_PORT,
            dist_iterations
                .iter()
                .copied()
                .chain(std::iter::once(median_iters)),
        );
        let k = self.moduli.len();
        if self.variant == KernelVariant::MaskedLadder {
            // Fresh uniform masks, in consumption order (per coefficient,
            // per modulus).
            let mut masks = Vec::with_capacity(self.n * k);
            for _ in 0..self.n {
                for &q in &self.moduli {
                    masks.push(rng.gen_range(0..q));
                }
            }
            mmio.push_reads(RAND_PORT, masks);
        }

        let ram_bytes = match self.variant {
            KernelVariant::MaskedLadder => {
                (SHARE1_BASE as usize + 4 * self.n * k + 4096).next_power_of_two()
            }
            KernelVariant::Shuffled => (PERM_BASE as usize + 4 * self.n + 4096).next_power_of_two(),
            KernelVariant::Ckks => (VAR_BASE as usize + 4 * self.n + 4096).next_power_of_two(),
            _ => (POLY_BASE as usize + 4 * self.n * k + 4096).next_power_of_two(),
        };
        let mut bus = Bus::new(ram_bytes, mmio);
        bus.load_words(0, &self.program.words);
        for (j, &q) in self.moduli.iter().enumerate() {
            bus.write_u32(Q_TABLE_BASE + 4 * j as u32, q);
        }
        if self.variant == KernelVariant::Shuffled {
            // Fresh Fisher-Yates permutation of the output indices.
            let mut perm: Vec<u32> = (0..self.n as u32).collect();
            for i in (1..perm.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                perm.swap(i, j);
            }
            for (i, &p) in perm.iter().enumerate() {
                bus.write_u32(PERM_BASE + 4 * i as u32, p);
            }
        }
        Ok(Cpu::new(bus))
    }

    /// Generous fuel: ~n · (burst + ladder) instructions.
    fn fuel(&self) -> usize {
        64 * self.n * (self.moduli.len() + 8) + 1024
    }

    /// Reads the polynomial (and shares / permutation, per variant) back out
    /// of the halted CPU's memory. The shuffled variant's polynomial is
    /// un-permuted into SEAL's `poly[i + j·n]` layout so all variants share
    /// reference semantics; the raw permutation is returned alongside.
    fn read_outputs(&self, cpu: &mut Cpu<QueueMmio>) -> (Vec<u32>, ShareBuffers, Permutation) {
        let k = self.moduli.len();
        let mut poly = Vec::with_capacity(self.n * k);
        let mut shares = None;
        let mut permutation = None;
        match self.variant {
            KernelVariant::MaskedLadder => {
                let mut share0 = Vec::with_capacity(self.n * k);
                let mut share1 = Vec::with_capacity(self.n * k);
                for idx in 0..self.n * k {
                    share0.push(cpu.bus.read_u32(POLY_BASE + 4 * idx as u32));
                    share1.push(cpu.bus.read_u32(SHARE1_BASE + 4 * idx as u32));
                }
                for (idx, (&s0, &s1)) in share0.iter().zip(&share1).enumerate() {
                    let q = self.moduli[idx / self.n] as u64;
                    poly.push(((s0 as u64 + s1 as u64) % q) as u32);
                }
                shares = Some((share0, share1));
            }
            KernelVariant::Shuffled => {
                let perm: Vec<usize> = (0..self.n)
                    .map(|i| cpu.bus.read_u32(PERM_BASE + 4 * i as u32) as usize)
                    .collect();
                for idx in 0..self.n * k {
                    let (j, i) = (idx / self.n, idx % self.n);
                    let slot = (perm[i] + j * self.n) as u32;
                    poly.push(cpu.bus.read_u32(POLY_BASE + 4 * slot));
                }
                permutation = Some(perm);
            }
            _ => {
                for idx in 0..self.n * k {
                    poly.push(cpu.bus.read_u32(POLY_BASE + 4 * idx as u32));
                }
            }
        }
        (poly, shares, permutation)
    }

    /// Fingerprint keying the sub-trace memo: kernel program, geometry, and
    /// every power-model knob that shapes the noiseless samples. Noise σ and
    /// the sampler are left out: they only feed the final noise pass.
    fn memo_fingerprint(&self, config: &PowerModelConfig) -> u64 {
        // FNV-1a, word-at-a-time.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.n as u64);
        for &word in &self.program.words {
            mix(u64::from(word));
        }
        for &q in &self.moduli {
            mix(u64::from(q));
        }
        mix(config.alpha_hw.to_bits());
        mix(config.beta_hd.to_bits());
        mix(config.gamma_mem.to_bits());
        mix(config.delta_addr.to_bits());
        mix(config.epsilon_flush.to_bits());
        mix(config.bit_weight_variation.to_bits());
        mix(config.samples_per_cycle as u64);
        hash
    }

    /// Derives per-coefficient sample windows from the retirement of the
    /// first instruction of `outer` (the `lw` fetching the iteration count).
    fn ground_truth_windows(
        &self,
        records: &[ExecRecord],
        capture: &PowerCapture,
    ) -> Vec<(usize, usize)> {
        // n real iterations plus the dummy (n+1)-th burst.
        let mut starts = Vec::with_capacity(self.n + 1);
        for (i, r) in records.iter().enumerate() {
            if r.pc == self.outer_pc {
                starts.push(capture.spans[i].start);
            }
        }
        self.windows_from_starts(starts, capture.samples.len())
    }

    fn windows_from_starts(
        &self,
        mut starts: Vec<usize>,
        total_samples: usize,
    ) -> Vec<(usize, usize)> {
        let dummy_start = starts.get(self.n).copied();
        starts.truncate(self.n);
        let mut windows = Vec::with_capacity(starts.len());
        for (idx, &s) in starts.iter().enumerate() {
            let end = if idx + 1 < starts.len() {
                starts[idx + 1]
            } else {
                dummy_start.unwrap_or(total_samples)
            };
            windows.push((s, end));
        }
        windows
    }
}

/// The two share polynomials of a masked run, when present.
type ShareBuffers = Option<(Vec<u32>, Vec<u32>)>;

/// The output-index permutation of a shuffled run, when present.
type Permutation = Option<Vec<usize>>;

/// One memoized distribution burst: the noiseless samples and bookkeeping
/// of every record from the `li t1` after the iteration-count load through
/// the taken `beqz` into `dist_done`.
#[derive(Debug, Clone, Default)]
struct BurstTemplate {
    /// Per-record program counters (for span reconstruction).
    pcs: Vec<u32>,
    /// Per-record sample counts.
    counts: Vec<u32>,
    /// Flat noiseless samples, concatenated in record order.
    samples: Vec<f64>,
    /// Total cycles the burst consumes.
    cycles: u64,
    /// Value of `t1` when the burst exits into `dist_done`.
    t1_exit: u32,
}

/// Reusable state for [`SamplerKernel::run_into`]: the streaming sample
/// buffer and the sub-trace memo.
///
/// Intended to live for a batch of runs (e.g. one profiling chunk). The memo
/// only ever changes *speed*, never values: entries store noiseless sample
/// templates keyed on the burst inputs plus a fingerprint of the kernel and
/// of the power-model weights, and noise is only added once the whole
/// noiseless capture is rendered.
#[derive(Debug, Clone)]
pub struct SamplerScratch {
    buffer: TraceBuffer,
    memo: HashMap<(u32, u32), BurstTemplate>,
    fingerprint: Option<u64>,
    memo_hits: u64,
    memo_misses: u64,
    block_cache: BlockCache,
    leaders: Vec<u32>,
}

impl Default for SamplerScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SamplerScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self {
            buffer: TraceBuffer::new(),
            memo: HashMap::new(),
            fingerprint: None,
            memo_hits: 0,
            memo_misses: 0,
            block_cache: BlockCache::new(),
            leaders: Vec::new(),
        }
    }

    /// An empty scratch whose captures carry samples but no per-instruction
    /// [`crate::power::SampleSpan`]s.
    ///
    /// Span bookkeeping costs ~32 bytes per retired instruction per run;
    /// profiling consumes only the flat sample stream, so its workers skip
    /// that entirely. Samples are bit-identical either way — spans never
    /// feed back into rendering.
    pub fn samples_only() -> Self {
        Self {
            buffer: TraceBuffer::samples_only(),
            ..Self::new()
        }
    }

    /// Number of memoized burst templates (observability for tests/benches).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Burst lookups served from the memo over this scratch's lifetime.
    ///
    /// Diagnostics only: the totals depend on how runs were partitioned
    /// across workers (a warm worker-pinned scratch hits more often than a
    /// per-chunk one), while the rendered values never do.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Burst lookups that had to render the template cold.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Block compilation and dispatch statistics over this
    /// scratch's lifetime.
    ///
    /// Diagnostics only, like [`SamplerScratch::memo_hits`]: the totals
    /// depend on run partitioning across workers, never the rendered values.
    pub fn block_stats(&self) -> BlockCacheStats {
        self.block_cache.stats
    }

    /// Clears the buffer; clears the memo and the compiled-block cache too
    /// if the fingerprint changed (the fingerprint covers the program words,
    /// so matching it guarantees cached blocks still describe the image).
    fn ensure(&mut self, fingerprint: u64) {
        if self.fingerprint != Some(fingerprint) {
            self.memo.clear();
            self.block_cache.reset_program(0, 0);
            self.leaders.clear();
            self.fingerprint = Some(fingerprint);
        }
        self.buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    const Q: u64 = 132120577;

    fn run_small(values: &[i64], seed: u64) -> KernelRun {
        let kernel = SamplerKernel::new(values.len(), &[Q]).unwrap();
        let iters: Vec<u32> = values.iter().map(|_| 5).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        kernel
            .run(values, &iters, &PowerModelConfig::noiseless(), &mut rng)
            .unwrap()
    }

    #[test]
    fn kernel_computes_seal_residues() {
        let values = [3i64, -2, 0, 1, -1, 41, -41, 0];
        let run = run_small(&values, 1);
        for (i, &v) in values.iter().enumerate() {
            let expected = if v >= 0 {
                v as u32
            } else {
                (Q as i64 + v) as u32
            };
            assert_eq!(run.poly[i], expected, "coefficient {i}");
        }
    }

    #[test]
    fn kernel_matches_bfv_sampler_semantics() {
        // Same residues as reveal-bfv's set_poly_coeffs_normal would write.
        let values = [7i64, -7, 0, 14, -14, 1, -1, 2];
        let run = run_small(&values, 2);
        for (i, &v) in values.iter().enumerate() {
            let expected = v.rem_euclid(Q as i64) as u32;
            assert_eq!(run.poly[i], expected);
        }
    }

    #[test]
    fn multi_modulus_layout() {
        let q2 = 12289u64;
        let kernel = SamplerKernel::new(4, &[Q, q2]).unwrap();
        let values = [-3i64, 2, 0, -1];
        let mut rng = StdRng::seed_from_u64(3);
        let run = kernel
            .run(
                &values,
                &[4, 4, 4, 4],
                &PowerModelConfig::noiseless(),
                &mut rng,
            )
            .unwrap();
        // poly[i + j*n]
        assert_eq!(run.poly[0], (Q as i64 - 3) as u32);
        assert_eq!(run.poly[4], (q2 as i64 - 3) as u32);
        assert_eq!(run.poly[1], 2);
        assert_eq!(run.poly[5], 2);
        assert_eq!(run.poly[2], 0);
        assert_eq!(run.poly[6], 0);
    }

    #[test]
    fn windows_cover_trace_in_order() {
        let values = [1i64, -2, 0, 3, -4, 5, 0, -1];
        let run = run_small(&values, 4);
        assert_eq!(run.coefficient_windows.len(), 8);
        for w in run.coefficient_windows.windows(2) {
            assert_eq!(w[0].1, w[1].0, "windows must tile the trace");
            assert!(w[0].0 < w[0].1);
        }
        // The prologue (li setup) precedes the first window.
        assert!(run.coefficient_windows[0].0 > 0);
    }

    #[test]
    fn dist_iterations_change_window_length() {
        let kernel = SamplerKernel::new(4, &[Q]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let short = kernel
            .run(
                &[1, 1, 1, 1],
                &[2, 2, 2, 2],
                &PowerModelConfig::noiseless(),
                &mut rng,
            )
            .unwrap();
        let long = kernel
            .run(
                &[1, 1, 1, 1],
                &[12, 12, 12, 12],
                &PowerModelConfig::noiseless(),
                &mut rng,
            )
            .unwrap();
        let w_short = short.coefficient_windows[1].1 - short.coefficient_windows[1].0;
        let w_long = long.coefficient_windows[1].1 - long.coefficient_windows[1].0;
        assert!(w_long > w_short + 300, "10 extra muls ≈ 380 extra cycles");
    }

    #[test]
    fn branch_shapes_differ_per_sign() {
        // The three ladder arms must produce windows whose *instruction mix*
        // differs: the negative arm contains an lw+sub pair absent elsewhere.
        let run = run_small(&[5, -5, 0, 5, -5, 0, 5, -5], 6);
        let (ps, pe) = run.coefficient_windows[0];
        let (ns, ne) = run.coefficient_windows[1];
        let (zs, ze) = run.coefficient_windows[2];
        // Negative windows are longer (negation + q load + subtract).
        assert!(ne - ns > pe - ps);
        assert!(ne - ns > ze - zs);
        // Equal-sign windows with equal dist length have identical length.
        let (ps2, pe2) = run.coefficient_windows[3];
        assert_eq!(pe - ps, pe2 - ps2);
    }

    #[test]
    fn input_validation() {
        let kernel = SamplerKernel::new(8, &[Q]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            kernel.run(&[0; 4], &[1; 8], &PowerModelConfig::noiseless(), &mut rng),
            Err(KernelError::InputMismatch {
                expected: 8,
                got: 4
            })
        ));
        assert!(matches!(
            SamplerKernel::new(12, &[Q]),
            Err(KernelError::DegreeNotPowerOfTwo(12))
        ));
        assert!(matches!(
            SamplerKernel::new(8, &[1u64 << 33]),
            Err(KernelError::ModulusTooWide(_))
        ));
    }

    #[test]
    fn branchless_variant_matches_vulnerable_output() {
        let values = [3i64, -2, 0, 1, -1, 41, -41, 14];
        let vulnerable = SamplerKernel::new(8, &[Q]).unwrap();
        let branchless = SamplerKernel::with_variant(8, &[Q], KernelVariant::Branchless).unwrap();
        let iters = [4u32; 8];
        let mut rng = StdRng::seed_from_u64(11);
        let a = vulnerable
            .run(&values, &iters, &PowerModelConfig::noiseless(), &mut rng)
            .unwrap();
        let b = branchless
            .run(&values, &iters, &PowerModelConfig::noiseless(), &mut rng)
            .unwrap();
        assert_eq!(a.poly, b.poly, "functional equivalence");
        assert!(b.shares.is_none());
    }

    #[test]
    fn branchless_windows_have_sign_independent_length() {
        // Constant control flow: equal dist-iteration counts give equal
        // window lengths regardless of the coefficient's sign.
        let kernel = SamplerKernel::with_variant(8, &[Q], KernelVariant::Branchless).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let run = kernel
            .run(
                &[5, -5, 0, 3, -3, 0, 7, -7],
                &[6; 8],
                &PowerModelConfig::noiseless(),
                &mut rng,
            )
            .unwrap();
        let lengths: Vec<usize> = run
            .coefficient_windows
            .iter()
            .map(|&(s, e)| e - s)
            .collect();
        assert!(
            lengths.windows(2).all(|w| w[0] == w[1]),
            "branchless windows must all have the same length: {lengths:?}"
        );
    }

    #[test]
    fn masked_variant_reconstructs_and_randomizes() {
        let values = [3i64, -2, 0, 7, -14, 1, -1, 0];
        let kernel = SamplerKernel::with_variant(8, &[Q], KernelVariant::MaskedLadder).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let run = kernel
            .run(&values, &[4; 8], &PowerModelConfig::noiseless(), &mut rng)
            .unwrap();
        // Reconstruction matches the reference semantics.
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(
                run.poly[i],
                v.rem_euclid(Q as i64) as u32,
                "coefficient {i}"
            );
        }
        // Shares individually are not the residues.
        let (s0, s1) = run.shares.clone().unwrap();
        assert_eq!(s0.len(), 8);
        assert_ne!(s0, run.poly, "share0 must be masked");
        assert_ne!(s1, run.poly, "share1 must be masked");
        // A second run with the same values produces different shares.
        let run2 = kernel
            .run(&values, &[4; 8], &PowerModelConfig::noiseless(), &mut rng)
            .unwrap();
        assert_eq!(run2.poly, run.poly);
        assert_ne!(run2.shares.unwrap().0, s0);
    }

    #[test]
    fn masked_variant_multi_modulus() {
        let q2 = 12289u64;
        let kernel = SamplerKernel::with_variant(4, &[Q, q2], KernelVariant::MaskedLadder).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let run = kernel
            .run(
                &[-3, 2, 0, -1],
                &[4; 4],
                &PowerModelConfig::noiseless(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(run.poly[0], (Q as i64 - 3) as u32);
        assert_eq!(run.poly[4], (q2 as i64 - 3) as u32);
        assert_eq!(run.poly[1], 2);
        assert_eq!(run.poly[5], 2);
    }

    #[test]
    fn shuffled_variant_unpermutes_to_reference_output() {
        let values = [3i64, -2, 0, 1, -1, 41, -41, 14];
        let kernel = SamplerKernel::with_variant(8, &[Q], KernelVariant::Shuffled).unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        let run = kernel
            .run(&values, &[4; 8], &PowerModelConfig::noiseless(), &mut rng)
            .unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(
                run.poly[i],
                v.rem_euclid(Q as i64) as u32,
                "coefficient {i}"
            );
        }
        let perm = run.permutation.clone().unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "must be a permutation");
        // Fresh permutations per run; the un-permuted output is unchanged.
        let run2 = kernel
            .run(&values, &[4; 8], &PowerModelConfig::noiseless(), &mut rng)
            .unwrap();
        assert_eq!(run2.poly, run.poly);
    }

    #[test]
    fn shuffled_variant_multi_modulus() {
        let q2 = 12289u64;
        let kernel = SamplerKernel::with_variant(4, &[Q, q2], KernelVariant::Shuffled).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let run = kernel
            .run(
                &[-3, 2, 0, -1],
                &[4; 4],
                &PowerModelConfig::noiseless(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(run.poly[0], (Q as i64 - 3) as u32);
        assert_eq!(run.poly[4], (q2 as i64 - 3) as u32);
        assert_eq!(run.poly[1], 2);
        assert_eq!(run.poly[5], 2);
    }

    #[test]
    fn ckks_variant_is_branchless_and_correct() {
        let values = [5i64, -5, 0, 3, -3, 0, 7, -7];
        let kernel = SamplerKernel::with_variant(8, &[Q], KernelVariant::Ckks).unwrap();
        let mut rng = StdRng::seed_from_u64(16);
        let run = kernel
            .run(&values, &[6; 8], &PowerModelConfig::noiseless(), &mut rng)
            .unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(
                run.poly[i],
                v.rem_euclid(Q as i64) as u32,
                "coefficient {i}"
            );
        }
        // Constant control flow: equal dist iterations, equal window lengths.
        let lengths: Vec<usize> = run
            .coefficient_windows
            .iter()
            .map(|&(s, e)| e - s)
            .collect();
        assert!(
            lengths.windows(2).all(|w| w[0] == w[1]),
            "CKKS windows must have sign-independent length: {lengths:?}"
        );
    }

    #[test]
    fn load_bounds_cover_variant_inputs() {
        let base = SamplerKernel::new(8, &[Q]).unwrap();
        let bounds = base.load_bounds();
        assert!(bounds.iter().any(|b| b.base == NOISE_PORT && b.lo < 0));
        assert!(bounds.iter().all(|b| b.lo <= b.hi));
        let shuffled = SamplerKernel::with_variant(8, &[Q], KernelVariant::Shuffled).unwrap();
        let perm = shuffled
            .load_bounds()
            .into_iter()
            .find(|b| b.base == PERM_BASE)
            .expect("shuffled kernel bounds its permutation table");
        assert_eq!((perm.lo, perm.hi), (0, 7));
        let masked = SamplerKernel::with_variant(8, &[Q], KernelVariant::MaskedLadder).unwrap();
        assert!(masked.load_bounds().iter().any(|b| b.base == RAND_PORT));
    }

    fn assert_runs_equal(fast: &KernelRun, baseline: &KernelRun, context: &str) {
        assert_eq!(fast.capture, baseline.capture, "{context}: capture");
        assert_eq!(fast.poly, baseline.poly, "{context}: poly");
        assert_eq!(fast.shares, baseline.shares, "{context}: shares");
        assert_eq!(
            fast.coefficient_windows, baseline.coefficient_windows,
            "{context}: windows"
        );
        assert_eq!(
            fast.instruction_count, baseline.instruction_count,
            "{context}: instruction count"
        );
    }

    #[test]
    fn fast_path_matches_baseline_for_all_variants() {
        let values = [3i64, -2, 0, 1, -1, 41, -41, 14];
        let iters = [4u32, 6, 4, 8, 4, 6, 4, 10];
        // One shared scratch across every (variant, sigma) combination: the
        // fingerprint check must invalidate the memo at each variant switch.
        let mut scratch = SamplerScratch::new();
        for variant in [
            KernelVariant::Vulnerable,
            KernelVariant::Branchless,
            KernelVariant::MaskedLadder,
        ] {
            let kernel = SamplerKernel::with_variant(8, &[Q], variant).unwrap();
            for sigma in [0.0, 0.05] {
                let config = PowerModelConfig::default().with_noise_sigma(sigma);
                let context = format!("{variant:?} sigma={sigma}");
                let mut rng = StdRng::seed_from_u64(21);
                let baseline = kernel
                    .run_reference(&values, &iters, &config, &mut rng)
                    .unwrap();
                let mut rng = StdRng::seed_from_u64(21);
                let fast = kernel
                    .run_into(&values, &iters, &config, &mut rng, &mut scratch)
                    .unwrap();
                assert_runs_equal(&fast, &baseline, &context);
                assert!(scratch.memo_len() > 0, "{context}: memo populated");
                // Second run on the warm memo: every burst replays from the
                // cache and must still be bit-identical.
                let mut rng = StdRng::seed_from_u64(21);
                let warm = kernel
                    .run_into(&values, &iters, &config, &mut rng, &mut scratch)
                    .unwrap();
                assert_runs_equal(&warm, &baseline, &format!("{context} (warm)"));
            }
        }
    }

    #[test]
    fn fast_path_matches_baseline_multi_modulus() {
        let kernel = SamplerKernel::new(4, &[Q, 12289]).unwrap();
        let values = [-3i64, 2, 0, -1];
        let iters = [4u32, 9, 5, 4];
        let config = PowerModelConfig::default();
        let mut rng = StdRng::seed_from_u64(31);
        let baseline = kernel
            .run_reference(&values, &iters, &config, &mut rng)
            .unwrap();
        let mut scratch = SamplerScratch::new();
        let mut rng = StdRng::seed_from_u64(31);
        let fast = kernel
            .run_into(&values, &iters, &config, &mut rng, &mut scratch)
            .unwrap();
        assert_runs_equal(&fast, &baseline, "multi-modulus");
    }

    #[test]
    fn fast_path_input_validation_matches() {
        let kernel = SamplerKernel::new(8, &[Q]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = SamplerScratch::new();
        assert!(matches!(
            kernel.run_into(
                &[0; 4],
                &[1; 8],
                &PowerModelConfig::noiseless(),
                &mut rng,
                &mut scratch
            ),
            Err(KernelError::InputMismatch {
                expected: 8,
                got: 4
            })
        ));
    }

    #[test]
    fn failed_run_into_draws_no_more_noise_than_run() {
        // Bursts far longer than the fuel budget: both paths halt out of
        // fuel, and neither may have drawn noise for the abandoned capture.
        let kernel = SamplerKernel::new(8, &[Q]).unwrap();
        let config = PowerModelConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let reference = kernel.run_reference(&[0; 8], &[5000; 8], &config, &mut rng);
        let mut fast_rng = StdRng::seed_from_u64(5);
        let fast = kernel.run_into(
            &[0; 8],
            &[5000; 8],
            &config,
            &mut fast_rng,
            &mut SamplerScratch::new(),
        );
        for result in [&reference, &fast] {
            assert!(matches!(result, Err(KernelError::BadHalt(Halt::OutOfFuel))));
        }
        assert_eq!(fast_rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn noise_settings_keep_the_memo_warm() {
        // The memo holds noiseless templates, so switching σ on one scratch
        // must neither clear it nor change any output.
        let kernel = SamplerKernel::new(8, &[Q]).unwrap();
        let values = [3i64, -2, 0, 1, -1, 41, -41, 14];
        let iters = [4u32, 6, 4, 8, 4, 6, 4, 10];
        let mut scratch = SamplerScratch::new();
        let mut misses_after_first = None;
        for config in [
            PowerModelConfig::default().with_noise_sigma(0.05),
            PowerModelConfig::noiseless(),
        ] {
            let mut rng = StdRng::seed_from_u64(41);
            let reference = kernel
                .run_reference(&values, &iters, &config, &mut rng)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(41);
            let fast = kernel
                .run_into(&values, &iters, &config, &mut rng, &mut scratch)
                .unwrap();
            assert_runs_equal(&fast, &reference, &format!("{config:?}"));
            let misses = *misses_after_first.get_or_insert(scratch.memo_misses());
            assert_eq!(scratch.memo_misses(), misses, "{config:?}");
        }
    }

    #[test]
    fn paper_sized_run_completes() {
        let kernel = SamplerKernel::new(1024, &[Q]).unwrap();
        let values: Vec<i64> = (0..1024).map(|i| ((i % 29) as i64) - 14).collect();
        let iters: Vec<u32> = (0..1024).map(|i| 3 + (i % 5) as u32).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let run = kernel
            .run(&values, &iters, &PowerModelConfig::default(), &mut rng)
            .unwrap();
        assert_eq!(run.coefficient_windows.len(), 1024);
        assert_eq!(run.poly.len(), 1024);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(run.poly[i], v.rem_euclid(Q as i64) as u32);
        }
        assert!(run.capture.len() > 100_000, "trace should be long");
    }
}
