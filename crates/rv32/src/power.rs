//! Instruction-level power model.
//!
//! This replaces the paper's shunt-resistor measurement chain (SAKURA-G +
//! PicoScope at 1 GS/s over a 1.5 MHz core). Each simulated cycle produces
//! one sample composed of:
//!
//! - a **base** level per instruction class (multiplies burn the most — that
//!   is what makes the distribution call visible as the Fig. 3 peaks),
//! - **Hamming-weight** leakage of the value written to the register file
//!   and of store/load data (the classic CMOS data-dependent term),
//! - **Hamming-distance** leakage between the old and new register value,
//! - a small address-weight term, a branch-flush term, and
//! - additive Gaussian measurement noise.
//!
//! The weights and the noise σ are knobs so the ablation benches can sweep
//! SNR — something a physical bench cannot do cheaply.

use crate::cpu::ExecRecord;
use crate::isa::Instruction;
use rand::Rng;

/// Weights of the leakage components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModelConfig {
    /// Weight of `HW(new register value)`.
    pub alpha_hw: f64,
    /// Weight of `HD(old, new register value)`.
    pub beta_hd: f64,
    /// Weight of `HW(memory data)` on loads/stores.
    pub gamma_mem: f64,
    /// Weight of `HW(memory address)`.
    pub delta_addr: f64,
    /// Extra level on taken branches (pipeline flush).
    pub epsilon_flush: f64,
    /// Relative imbalance of the per-bit leakage weights (Schindler-style
    /// stochastic model): 0 gives the pure Hamming-weight model, larger
    /// values make individual bus lines leak unequally — which is what real
    /// measurements show, and what lets a template attack separate values
    /// with equal Hamming weight (cf. the near-certain probabilities of
    /// Table II in the paper).
    pub bit_weight_variation: f64,
    /// Standard deviation of the additive Gaussian noise.
    pub noise_sigma: f64,
    /// Samples emitted per simulated cycle.
    pub samples_per_cycle: usize,
}

impl Default for PowerModelConfig {
    fn default() -> Self {
        Self {
            alpha_hw: 0.09,
            beta_hd: 0.02,
            gamma_mem: 0.09,
            delta_addr: 0.004,
            epsilon_flush: 0.35,
            bit_weight_variation: 0.8,
            noise_sigma: 0.05,
            samples_per_cycle: 1,
        }
    }
}

/// The device's fixed per-bit weight profile: weight of bit `b` relative to
/// the uniform model, deterministic (a physical property of the bus lines).
#[inline]
fn bit_weight(b: u32, variation: f64) -> f64 {
    1.0 + variation * (2.3 * b as f64 + 1.7).sin()
}

/// Weighted bit-line leakage of a 32-bit word: reduces to `HW(word)` when
/// `variation = 0`.
pub fn weighted_bit_leakage(word: u32, variation: f64) -> f64 {
    if variation == 0.0 {
        return word.count_ones() as f64;
    }
    let mut acc = 0.0;
    let mut w = word;
    while w != 0 {
        let b = w.trailing_zeros();
        acc += bit_weight(b, variation);
        w &= w - 1;
    }
    acc
}

impl PowerModelConfig {
    /// A noiseless configuration (useful for deterministic tests).
    pub fn noiseless() -> Self {
        Self {
            noise_sigma: 0.0,
            ..Self::default()
        }
    }

    /// Returns a copy with a different noise σ.
    pub fn with_noise_sigma(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }
}

/// Base power level of an instruction class, in arbitrary units.
///
/// Public so static analyses (`reveal-lint`'s leakage scoring) can weight
/// instructions exactly as the renderer does.
pub fn base_level(instr: &Instruction) -> f64 {
    match instr {
        Instruction::MulDiv { .. } => 3.0,
        Instruction::Load { .. } => 2.0,
        Instruction::Store { .. } => 2.2,
        Instruction::Jal { .. } | Instruction::Jalr { .. } => 1.5,
        Instruction::Branch { .. } => 1.2,
        Instruction::Lui { .. } | Instruction::Auipc { .. } => 1.0,
        Instruction::AluImm { .. } | Instruction::AluReg { .. } => 1.0,
        Instruction::Ecall | Instruction::Ebreak => 0.8,
    }
}

/// Per-instruction sample annotation: which record produced which samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSpan {
    /// Index into the record list.
    pub record_index: usize,
    /// First sample of this instruction.
    pub start: usize,
    /// One past the last sample.
    pub end: usize,
    /// Program counter (for locating kernel regions in tests).
    pub pc: u32,
}

/// A simulated power capture: samples plus per-instruction annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCapture {
    /// The trace samples.
    pub samples: Vec<f64>,
    /// One span per executed instruction.
    pub spans: Vec<SampleSpan>,
}

impl PowerCapture {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sample range covered by instructions with `pc` in `[lo, hi)`.
    pub fn span_of_pc_range(&self, lo: u32, hi: u32) -> Option<(usize, usize)> {
        let mut start = None;
        let mut end = None;
        for s in &self.spans {
            if s.pc >= lo && s.pc < hi {
                start = Some(start.unwrap_or(s.start).min(s.start));
                end = Some(end.unwrap_or(s.end).max(s.end));
            }
        }
        Some((start?, end?))
    }
}

/// The reusable sample buffer every capture renders into.
///
/// `begin_record` / `end_record` bracket the noiseless samples of one
/// executed instruction, in execution order; [`add_noise`] adds the noise
/// over the finished samples. The streaming fast path renders each run into
/// a caller-owned `TraceBuffer`, so back-to-back runs reuse one allocation
/// instead of growing a fresh `Vec<ExecRecord>` plus a fresh sample vector
/// per run.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    samples: Vec<f64>,
    spans: Vec<SampleSpan>,
    record_spans: bool,
    pending: Option<(usize, usize, u32)>,
}

impl TraceBuffer {
    /// A buffer that records per-instruction [`SampleSpan`]s.
    pub fn new() -> Self {
        Self {
            record_spans: true,
            ..Self::default()
        }
    }

    /// A buffer that keeps only samples (no span bookkeeping).
    pub fn samples_only() -> Self {
        Self::default()
    }

    /// Clears contents while keeping the allocations.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.spans.clear();
        self.pending = None;
    }

    /// The samples accumulated so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The samples accumulated so far, for the in-place noise pass.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// The spans accumulated so far (empty for [`Self::samples_only`]).
    pub fn spans(&self) -> &[SampleSpan] {
        &self.spans
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Copies the contents into an owned [`PowerCapture`].
    pub fn to_capture(&self) -> PowerCapture {
        PowerCapture {
            samples: self.samples.clone(),
            spans: self.spans.clone(),
        }
    }

    /// Consumes the buffer into a [`PowerCapture`] without copying.
    pub fn into_capture(self) -> PowerCapture {
        PowerCapture {
            samples: self.samples,
            spans: self.spans,
        }
    }

    /// Opens the span of one record's samples.
    pub fn begin_record(&mut self, record_index: usize, pc: u32) {
        if self.record_spans {
            self.pending = Some((record_index, self.samples.len(), pc));
        }
    }

    /// One power sample.
    pub fn push_sample(&mut self, sample: f64) {
        self.samples.push(sample);
    }

    /// A block of consecutive samples: the shape of a memoized burst replay.
    pub fn push_samples(&mut self, samples: &[f64]) {
        self.samples.extend_from_slice(samples);
    }

    /// `count` copies of `value`: the shape of every record body (constant
    /// base level).
    pub fn push_fill(&mut self, value: f64, count: usize) {
        self.samples.resize(self.samples.len() + count, value);
    }

    /// Closes the span opened by [`TraceBuffer::begin_record`].
    pub fn end_record(&mut self) {
        if let Some((record_index, start, pc)) = self.pending.take() {
            self.spans.push(SampleSpan {
                record_index,
                start,
                end: self.samples.len(),
                pc,
            });
        }
    }
}

/// Streaming power-model renderer with a precomputed per-bit weight table.
///
/// [`render_power_reference`] recomputes `sin(2.3 b + 1.7)` for every set
/// bit of every leaked word — roughly one `sin` per set data bit per
/// executed instruction. The renderer evaluates `bit_weight` once per bit
/// position at construction; the lookups then produce the exact same
/// floating-point sums (same per-bit values, same ascending-bit
/// accumulation order), so traces stay bit-identical to the reference.
#[derive(Debug, Clone)]
pub struct PowerRenderer {
    config: PowerModelConfig,
    bit_weights: [f64; 32],
}

impl PowerRenderer {
    /// Builds a renderer for `config`.
    pub fn new(config: &PowerModelConfig) -> Self {
        let mut bit_weights = [0.0; 32];
        for (b, w) in bit_weights.iter_mut().enumerate() {
            *w = bit_weight(b as u32, config.bit_weight_variation);
        }
        Self {
            config: *config,
            bit_weights,
        }
    }

    /// The configuration this renderer was built from.
    pub fn config(&self) -> &PowerModelConfig {
        &self.config
    }

    /// The precomputed per-bit weight table (bit 0 first) — the same weights
    /// [`PowerRenderer::leakage`] sums, exposed so static analyses can bound
    /// data-dependent power without re-deriving the device profile.
    pub fn bit_weights(&self) -> &[f64; 32] {
        &self.bit_weights
    }

    /// Table-driven [`weighted_bit_leakage`]: bit-identical, no `sin` calls.
    #[inline]
    pub fn leakage(&self, word: u32) -> f64 {
        if self.config.bit_weight_variation == 0.0 {
            return word.count_ones() as f64;
        }
        let mut acc = 0.0;
        let mut w = word;
        while w != 0 {
            acc += self.bit_weights[w.trailing_zeros() as usize];
            w &= w - 1;
        }
        acc
    }

    /// The data-dependent term of one record (lands on the final cycle).
    ///
    /// Always inlined, like [`PowerRenderer::render_record`]: see there.
    #[inline(always)]
    pub fn data_term(&self, record: &ExecRecord) -> f64 {
        let config = &self.config;
        let mut data_term = 0.0;
        if let Some((_, old, new)) = record.reg_write {
            data_term += config.alpha_hw * self.leakage(new);
            data_term += config.beta_hd * (old ^ new).count_ones() as f64;
        }
        if let Some((addr, data, _is_write)) = record.mem_access {
            data_term += config.gamma_mem * self.leakage(data);
            data_term += config.delta_addr * addr.count_ones() as f64;
        }
        if record.branch_taken == Some(true) {
            data_term += config.epsilon_flush;
        }
        data_term
    }

    /// Renders the noiseless samples of one record into `sink`: the one
    /// emission routine, for stepped records and compiled blocks alike.
    ///
    /// Feeding records of a run in execution order with consecutive
    /// `record_index` values, then adding noise over the finished samples
    /// with [`add_noise`], reproduces [`render_power_reference`] exactly.
    ///
    /// Always inlined: `block::run_block` calls it on the record
    /// `Cpu::execute` just returned, and
    /// inlining both lets the compiler keep that record in registers
    /// instead of building it in memory for every retired instruction.
    #[inline(always)]
    pub fn render_record(&self, record_index: usize, record: &ExecRecord, sink: &mut TraceBuffer) {
        let base = base_level(&record.instruction);
        let data_term = self.data_term(record);
        let samples_per_cycle = self.config.samples_per_cycle;
        let total = record.cycles as usize * samples_per_cycle;
        // The reference's per-sample branch `k + samples_per_cycle >= total`
        // splits the record into a constant body (`base`) and a final-cycle
        // tail (`base + data_term`); two fills are bit-identical.
        let body = total.saturating_sub(samples_per_cycle);
        sink.begin_record(record_index, record.pc);
        sink.push_fill(base, body);
        sink.push_fill(base + data_term, total - body);
        sink.end_record();
    }
}

/// The reference renderer and test oracle: it recomputes
/// [`weighted_bit_leakage`] — one `sin` per set bit — for every record
/// instead of using [`PowerRenderer`]'s lookup table, and draws each
/// sample's noise as it goes. The streaming path
/// ([`PowerRenderer::render_record`], then one [`add_noise`] pass)
/// reproduces it bit for bit; the fast-path timing test measures the
/// streaming collector against the collector built on it.
///
/// # Examples
///
/// ```
/// use reveal_rv32::asm::assemble;
/// use reveal_rv32::cpu::{Bus, Cpu, QueueMmio};
/// use reveal_rv32::power::{render_power_reference, PowerModelConfig};
/// use rand::SeedableRng;
///
/// let program = assemble("li t0, 3\nmul t1, t0, t0\nebreak", 0)?;
/// let mut bus = Bus::new(4096, QueueMmio::new());
/// bus.load_words(0, &program.words);
/// let mut cpu = Cpu::new(bus);
/// let (records, _halt) = cpu.run(100);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let capture = render_power_reference(&records, &PowerModelConfig::default(), &mut rng);
/// assert!(!capture.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn render_power_reference<R: Rng + ?Sized>(
    records: &[ExecRecord],
    config: &PowerModelConfig,
    rng: &mut R,
) -> PowerCapture {
    let mut buffer = TraceBuffer::new();
    for (record_index, record) in records.iter().enumerate() {
        let base = base_level(&record.instruction);
        let total = record.cycles as usize * config.samples_per_cycle;
        let mut data_term = 0.0;
        if let Some((_, old, new)) = record.reg_write {
            data_term += config.alpha_hw * weighted_bit_leakage(new, config.bit_weight_variation);
            data_term += config.beta_hd * (old ^ new).count_ones() as f64;
        }
        if let Some((addr, data, _is_write)) = record.mem_access {
            data_term += config.gamma_mem * weighted_bit_leakage(data, config.bit_weight_variation);
            data_term += config.delta_addr * addr.count_ones() as f64;
        }
        if record.branch_taken == Some(true) {
            data_term += config.epsilon_flush;
        }
        buffer.begin_record(record_index, record.pc);
        for k in 0..total {
            let mut p = base;
            if k + config.samples_per_cycle >= total {
                p += data_term;
            }
            if config.noise_sigma > 0.0 {
                p += config.noise_sigma * sample_standard_normal(rng);
            }
            buffer.push_sample(p);
        }
        buffer.end_record();
    }
    buffer.into_capture()
}

/// Draws one standard normal variate with the Marsaglia polar method: the
/// historical stream every pinned output (recovered coefficients, the
/// 386.06 / 242.02 bikz pair) depends on bit for bit. Local so the crate
/// needs no extra dependency; the per-sample oracle for [`add_noise`].
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples per block of [`add_noise`].
const POLAR_BLOCK: usize = 64;

/// Adds `sigma · z` to every sample, in order, with each `z` drawn from
/// `rng`: bit-identical samples and final RNG state to
/// `for p in samples { *p += sigma * sample_standard_normal(rng) }`, the
/// per-sample loop of [`render_power_reference`]. Captures draw one variate
/// per power sample, in one pass over the finished noiseless trace.
///
/// The pass works one stack block at a time. A block first keeps its
/// accepted `(u, s)` pairs: each pair is stored at the next free slot,
/// which only advances when `0 < s < 1`, so a rejected pair is overwritten
/// without a branch. Each round draws only as many pairs as the block still
/// lacks, so no pair is drawn past the block's last accepted one and the
/// stream matches the per-sample rejection loop. The transform is that
/// loop's exact expression, and no rejection branch sits between its
/// `ln`/`sqrt` calls.
pub fn add_noise<R: Rng + ?Sized>(sigma: f64, rng: &mut R, samples: &mut [f64]) {
    let mut us = [0.0f64; POLAR_BLOCK];
    let mut ss = [0.0f64; POLAR_BLOCK];
    for block in samples.chunks_mut(POLAR_BLOCK) {
        let mut accepted = 0;
        while accepted < block.len() {
            for _ in 0..block.len() - accepted {
                let u: f64 = rng.gen_range(-1.0..1.0);
                let v: f64 = rng.gen_range(-1.0..1.0);
                let s = u * u + v * v;
                us[accepted] = u;
                ss[accepted] = s;
                accepted += usize::from(s > 0.0 && s < 1.0);
            }
        }
        for ((p, &u), &s) in block.iter_mut().zip(&us).zip(&ss) {
            *p += sigma * (u * (-2.0 * s.ln() / s).sqrt());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::{Bus, Cpu, QueueMmio};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The streaming render of `records`: noiseless samples through
    /// [`PowerRenderer::render_record`], then one noise pass.
    fn render(records: &[ExecRecord], config: &PowerModelConfig, seed: u64) -> PowerCapture {
        let renderer = PowerRenderer::new(config);
        let mut buffer = TraceBuffer::new();
        for (i, record) in records.iter().enumerate() {
            renderer.render_record(i, record, &mut buffer);
        }
        if config.noise_sigma > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            add_noise(config.noise_sigma, &mut rng, buffer.samples_mut());
        }
        buffer.into_capture()
    }

    fn records(source: &str) -> Vec<ExecRecord> {
        let program = assemble(source, 0).unwrap();
        let mut bus = Bus::new(64 * 1024, QueueMmio::new());
        bus.load_words(0, &program.words);
        let mut cpu = Cpu::new(bus);
        cpu.run(100_000).0
    }

    fn capture(source: &str, config: &PowerModelConfig, seed: u64) -> PowerCapture {
        render(&records(source), config, seed)
    }

    #[test]
    fn sample_count_matches_cycles() {
        let c = capture(
            "li t0, 1\nadd t1, t0, t0\nebreak",
            &PowerModelConfig::noiseless(),
            0,
        );
        // li (3 cycles) + add (3 cycles); ebreak halts before retiring.
        assert_eq!(c.samples.len(), 6);
        assert_eq!(c.spans.len(), 2);
        assert_eq!(c.spans[1].start, 3);
        assert_eq!(c.spans[1].end, 6);
    }

    #[test]
    fn multiply_bursts_dominate() {
        let c = capture(
            "li t0, 1\nmul t1, t0, t0\nadd t2, t0, t0\nebreak",
            &PowerModelConfig::noiseless(),
            0,
        );
        let mul_span = &c.spans[1];
        let add_span = &c.spans[2];
        let avg = |span: &SampleSpan| {
            c.samples[span.start..span.end].iter().sum::<f64>() / (span.end - span.start) as f64
        };
        assert!(avg(mul_span) > 2.0 * avg(add_span));
    }

    #[test]
    fn hamming_weight_shows_in_final_cycle() {
        let all_ones = capture("li t0, -1\nebreak", &PowerModelConfig::noiseless(), 0);
        let zero = capture("li t0, 0\nebreak", &PowerModelConfig::noiseless(), 0);
        // li -1 is a single addi writing 0xFFFFFFFF; li 0 writes 0.
        let last_ones = *all_ones.samples.last().unwrap();
        let last_zero = *zero.samples.last().unwrap();
        let cfg = PowerModelConfig::default();
        let expected_gap = cfg.alpha_hw * weighted_bit_leakage(u32::MAX, cfg.bit_weight_variation)
            + 32.0 * cfg.beta_hd;
        assert!((last_ones - last_zero - expected_gap).abs() < 1e-9);
        // The weighted model reduces to plain HW at zero variation.
        assert_eq!(
            weighted_bit_leakage(0xF0F0_1234, 0.0),
            0xF0F0_1234u32.count_ones() as f64
        );
        // Equal-HW values leak differently under imbalanced bit lines.
        let l1 = weighted_bit_leakage(1, 0.5);
        let l2 = weighted_bit_leakage(2, 0.5);
        let l4 = weighted_bit_leakage(4, 0.5);
        assert!((l1 - l2).abs() > 0.05 && (l2 - l4).abs() > 0.05);
    }

    #[test]
    fn store_data_leaks() {
        let hi = capture(
            "li t0, 0x1000\nli t1, -1\nsw t1, 0(t0)\nebreak",
            &PowerModelConfig::noiseless(),
            0,
        );
        let lo = capture(
            "li t0, 0x1000\nli t1, 0\nsw t1, 0(t0)\nebreak",
            &PowerModelConfig::noiseless(),
            0,
        );
        let sw_hi = hi.spans.last().unwrap();
        let sw_lo = lo.spans.last().unwrap();
        assert!(
            hi.samples[sw_hi.end - 1] > lo.samples[sw_lo.end - 1] + 1.0,
            "store of 0xFFFFFFFF should draw more power than store of 0"
        );
    }

    #[test]
    fn taken_branch_adds_flush_energy() {
        let taken = capture(
            "li t0, 1\nbnez t0, skip\nnop\nskip: ebreak",
            &PowerModelConfig::noiseless(),
            0,
        );
        let not_taken = capture(
            "li t0, 0\nbnez t0, skip\nnop\nskip: ebreak",
            &PowerModelConfig::noiseless(),
            0,
        );
        // Taken branch costs 5 cycles, not-taken 3: spans differ in length.
        let b_taken = &taken.spans[1];
        let b_not = &not_taken.spans[1];
        assert_eq!(b_taken.end - b_taken.start, 5);
        assert_eq!(b_not.end - b_not.start, 3);
    }

    #[test]
    fn noise_perturbs_but_preserves_mean() {
        let clean = capture(
            "li t0, 5\nmul t1, t0, t0\nebreak",
            &PowerModelConfig::noiseless(),
            1,
        );
        let noisy_cfg = PowerModelConfig::default().with_noise_sigma(0.2);
        let noisy = capture("li t0, 5\nmul t1, t0, t0\nebreak", &noisy_cfg, 1);
        assert_eq!(clean.samples.len(), noisy.samples.len());
        let mean_c: f64 = clean.samples.iter().sum::<f64>() / clean.samples.len() as f64;
        let mean_n: f64 = noisy.samples.iter().sum::<f64>() / noisy.samples.len() as f64;
        assert!((mean_c - mean_n).abs() < 0.2);
        assert!(clean.samples != noisy.samples);
    }

    #[test]
    fn renderer_lut_matches_weighted_bit_leakage() {
        let renderer = PowerRenderer::new(&PowerModelConfig::default());
        for word in [0u32, 1, 2, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001, 12345] {
            assert_eq!(
                renderer.leakage(word),
                weighted_bit_leakage(word, PowerModelConfig::default().bit_weight_variation),
                "LUT must be bit-identical for 0x{word:08X}"
            );
        }
        let flat = PowerRenderer::new(&PowerModelConfig {
            bit_weight_variation: 0.0,
            ..PowerModelConfig::default()
        });
        assert_eq!(
            flat.leakage(0xF0F0_1234),
            0xF0F0_1234u32.count_ones() as f64
        );
    }

    #[test]
    fn streaming_render_matches_render_power() {
        let records = records(
            "li t0, 0x1234\nmul t1, t0, t0\nsw t1, 0(zero)\nbnez t0, done\nnop\ndone: ebreak",
        );
        for sigma in [0.0, 0.05] {
            let config = PowerModelConfig::default().with_noise_sigma(sigma);
            let mut rng = StdRng::seed_from_u64(42);
            let reference = render_power_reference(&records, &config, &mut rng);
            assert_eq!(render(&records, &config, 42), reference);
        }
    }

    #[test]
    fn trace_buffer_reuse_and_samples_only() {
        let mut buffer = TraceBuffer::new();
        buffer.begin_record(0, 16);
        buffer.push_sample(1.0);
        buffer.push_sample(2.0);
        buffer.end_record();
        assert_eq!(buffer.len(), 2);
        assert_eq!(buffer.spans().len(), 1);
        assert_eq!(buffer.spans()[0].pc, 16);
        buffer.clear();
        assert!(buffer.is_empty());
        assert!(buffer.spans().is_empty());

        let mut bare = TraceBuffer::samples_only();
        bare.begin_record(0, 16);
        bare.push_sample(1.0);
        bare.end_record();
        assert_eq!(bare.samples(), &[1.0]);
        assert!(bare.spans().is_empty());
    }

    #[test]
    fn span_of_pc_range_locates_code() {
        let c = capture(
            "nop\nnop\nmul t0, t0, t0\nebreak",
            &PowerModelConfig::noiseless(),
            0,
        );
        let (start, end) = c.span_of_pc_range(8, 12).unwrap();
        // The mul is the third instruction: starts after 2 nops (3 cycles each).
        assert_eq!(start, 6);
        assert_eq!(end, 6 + 38);
        assert!(c.span_of_pc_range(100, 200).is_none());
    }

    /// Noiseless levels the noise pass must add to bit for bit: signed
    /// zeros, subnormals and magnitudes where `σ·z` vanishes.
    const PALETTE: [f64; 10] = [
        -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1.0, 1.0, 2.5, 1e300, -1e300,
    ];

    proptest::proptest! {
        // The block pass must leave every sample and the RNG exactly where
        // the per-sample reference loop does, at every length — including
        // both sides of each block edge.
        #[test]
        fn prop_add_noise_matches_per_sample_loop(
            len in 0usize..=1_100,
            picks in proptest::collection::vec(0usize..PALETTE.len(), 1..40),
            sigma_pick in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let sigma = [0.05, 0.3, 1e-300, 2.0][sigma_pick];
            for len in [len, POLAR_BLOCK - 1, POLAR_BLOCK, POLAR_BLOCK + 1, 2 * POLAR_BLOCK] {
                let noiseless: Vec<f64> =
                    (0..len).map(|i| PALETTE[picks[i % picks.len()]]).collect();
                let mut blocked = noiseless.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                add_noise(sigma, &mut rng, &mut blocked);
                let mut reference = noiseless;
                let mut reference_rng = StdRng::seed_from_u64(seed);
                for p in &mut reference {
                    *p += sigma * sample_standard_normal(&mut reference_rng);
                }
                for (a, b) in blocked.iter().zip(&reference) {
                    proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                proptest::prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
            }
        }

        // The blocked fill/copy emission of `render_record` must reproduce
        // the per-sample reference loop bit for bit at every noise level,
        // sample rate, and seed — including both the constant body and the
        // data-term tail of every record.
        #[test]
        fn prop_blocked_emission_matches_reference(
            seed in 0u64..1_000,
            sigma in 0.0f64..0.2,
            samples_per_cycle in 1usize..4,
        ) {
            let records = records(
                "li t0, 0x1234\nmul t1, t0, t0\nsw t1, 0(zero)\nbnez t0, done\nnop\ndone: ebreak",
            );
            let mut config = PowerModelConfig::default().with_noise_sigma(sigma);
            config.samples_per_cycle = samples_per_cycle;

            let blocked = render(&records, &config, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let reference = render_power_reference(&records, &config, &mut rng);

            proptest::prop_assert_eq!(blocked.spans, reference.spans);
            proptest::prop_assert_eq!(blocked.samples.len(), reference.samples.len());
            for (a, b) in blocked.samples.iter().zip(&reference.samples) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
