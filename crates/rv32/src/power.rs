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
use rand_distr_normal::{add_polar_noise, sample_standard_normal, sample_ziggurat};

/// Which exact standard-normal sampler draws the additive noise.
///
/// Both methods are *exact* — the output is distributed N(0,1), not an
/// approximation — but they consume the RNG stream differently, so swapping
/// them produces a statistically equivalent yet bit-different trace. The
/// default stays [`NoiseSampler::MarsagliaPolar`] because every pinned
/// artifact in the tree (recovered coefficients, the 386.06/242.02 bikz
/// pair in `BENCH_pipeline.json`, the `par_determinism` end-to-end pin)
/// depends bit-for-bit on the historical noise-draw sequence. Captures draw
/// one variate per power sample, in one [`NoiseSampler::add_noise`] pass
/// over the finished noiseless trace. [`NoiseSampler::Ziggurat`] accepts
/// ~98.8% of draws on one `u64` without `ln`/`sqrt`, and suits large
/// generated corpora where statistical equivalence suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseSampler {
    /// Marsaglia polar: the historical stream every pinned output assumes.
    #[default]
    MarsagliaPolar,
    /// 256-layer Marsaglia–Tsang ziggurat: ~98.8% of draws accept on one
    /// `u64` without touching `exp`/`ln`; different stream, same law.
    Ziggurat,
}

impl NoiseSampler {
    /// Draws one standard normal variate: the per-sample reference for
    /// [`NoiseSampler::add_noise`].
    #[inline]
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        match self {
            Self::MarsagliaPolar => sample_standard_normal(rng),
            Self::Ziggurat => sample_ziggurat(rng),
        }
    }

    /// Adds `sigma · z` to every sample, in order, with each `z` drawn from
    /// `rng`: bit-identical samples and final RNG state to
    /// `for p in samples { *p += sigma * self.sample(rng) }`. The polar
    /// method draws a stack block of accepted pairs before transforming
    /// them, so no rejection branch sits between its `ln`/`sqrt` calls.
    pub fn add_noise<R: Rng + ?Sized>(self, sigma: f64, rng: &mut R, samples: &mut [f64]) {
        match self {
            Self::MarsagliaPolar => add_polar_noise(sigma, rng, samples),
            Self::Ziggurat => {
                for p in samples {
                    *p += sigma * sample_ziggurat(rng);
                }
            }
        }
    }
}

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
    /// Which exact N(0,1) sampler draws the noise (see [`NoiseSampler`]).
    pub noise_sampler: NoiseSampler,
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
            noise_sampler: NoiseSampler::MarsagliaPolar,
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

    /// Returns a copy with a different noise sampler.
    pub fn with_noise_sampler(mut self, sampler: NoiseSampler) -> Self {
        self.noise_sampler = sampler;
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
/// executed instruction, in execution order; [`NoiseSampler::add_noise`]
/// adds the noise over the finished samples. The streaming fast path
/// renders each run into a caller-owned `TraceBuffer`, so back-to-back runs
/// reuse one allocation instead of growing a fresh `Vec<ExecRecord>` plus a
/// fresh sample vector per run.
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
/// executed instruction. The renderer evaluates [`bit_weight`] once per bit
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
    #[inline]
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

    /// Renders the noiseless samples of one record into `sink`.
    ///
    /// Feeding records of a run in execution order with consecutive
    /// `record_index` values, then adding noise over the finished samples
    /// with [`NoiseSampler::add_noise`], reproduces
    /// [`render_power_reference`] exactly.
    pub fn render_record(&self, record_index: usize, record: &ExecRecord, sink: &mut TraceBuffer) {
        let base = base_level(&record.instruction);
        let data_term = self.data_term(record);
        self.emit_record(
            record_index,
            record.pc,
            base,
            record.cycles,
            data_term,
            sink,
        );
    }

    /// Emits the noiseless samples of one retired instruction from its
    /// already-derived power inputs, returning the sample count.
    ///
    /// This is the single emission primitive: [`PowerRenderer::render_record`]
    /// feeds it from an [`ExecRecord`], and the basic-block superinstruction
    /// path (`block::run_block`) feeds it straight from block execution
    /// without materializing a record — both therefore produce the exact same
    /// sample stream by construction.
    #[inline]
    pub(crate) fn emit_record(
        &self,
        record_index: usize,
        pc: u32,
        base: f64,
        cycles: u32,
        data_term: f64,
        sink: &mut TraceBuffer,
    ) -> usize {
        let samples_per_cycle = self.config.samples_per_cycle;
        let total = cycles as usize * samples_per_cycle;
        // The reference's per-sample branch `k + samples_per_cycle >= total`
        // splits the record into a constant body (`base`) and a final-cycle
        // tail (`base + data_term`); two fills are bit-identical.
        let body = total.saturating_sub(samples_per_cycle);
        sink.begin_record(record_index, pc);
        sink.push_fill(base, body);
        sink.push_fill(base + data_term, total - body);
        sink.end_record();
        total
    }
}

/// The reference renderer and test oracle: it recomputes
/// [`weighted_bit_leakage`] — one `sin` per set bit — for every record
/// instead of using [`PowerRenderer`]'s lookup table, and draws each
/// sample's noise with [`NoiseSampler::sample`] as it goes. The streaming
/// path ([`PowerRenderer::render_record`], then one
/// [`NoiseSampler::add_noise`] pass) reproduces it bit for bit;
/// `bench_pipeline` reports the fast path's speedup against it.
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
                p += config.noise_sigma * config.noise_sampler.sample(rng);
            }
            buffer.push_sample(p);
        }
        buffer.end_record();
    }
    buffer.into_capture()
}

/// Minimal standard-normal sampling, local so the crate needs no extra
/// dependency: the Marsaglia polar method (the default, historical stream)
/// and a 256-layer Marsaglia–Tsang ziggurat (different stream).
/// [`NoiseSampler`] selects between them per configuration.
mod rand_distr_normal {
    use rand::Rng;

    /// Draws one standard normal variate (Marsaglia polar).
    pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Samples per block of [`add_polar_noise`].
    const POLAR_BLOCK: usize = 64;

    /// Adds `sigma ·` [`sample_standard_normal`] to each sample, one block
    /// at a time.
    ///
    /// A block first keeps its accepted `(u, s)` pairs: each pair is stored
    /// at the next free slot, which only advances when `0 < s < 1`, so a
    /// rejected pair is overwritten without a branch. Each round draws only
    /// as many pairs as the block still lacks, so no pair is drawn past the
    /// block's last accepted one and the stream matches the per-sample
    /// rejection loop. The transform is that loop's exact expression.
    pub fn add_polar_noise<R: Rng + ?Sized>(sigma: f64, rng: &mut R, samples: &mut [f64]) {
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

    /// Rightmost layer edge: x-coordinate where the tail algorithm takes
    /// over (the canonical r for 256 layers; the digits beyond f64
    /// precision document the mathematical constant).
    #[allow(clippy::excessive_precision)]
    const ZIG_R: f64 = 3.654_152_885_361_008_772;
    /// Common area of every layer (and of the base strip + tail). Only the
    /// recurrence test consumes it directly — the sampling loop bakes it
    /// into the `ZIG_X` literals.
    #[cfg_attr(not(test), allow(dead_code))]
    #[allow(clippy::excessive_precision)]
    const ZIG_V: f64 = 0.004_928_673_233_997_087_43;

    /// Unnormalized standard-normal density `exp(-x²/2)`.
    #[inline]
    fn pdf(x: f64) -> f64 {
        (-0.5 * x * x).exp()
    }

    // Layer geometry, precomputed: `ZIG_X[i]` is the right edge of layer
    // `i` (descending; `ZIG_X[0] = V/pdf(R)` spans the base strip + tail,
    // `ZIG_X[256] = 0` is the peak), `ZIG_F[i] = pdf(ZIG_X[i])`. The
    // values are literals rather than runtime-built so the sampled stream
    // cannot vary with a platform's `exp`/`ln`/`sqrt` rounding during
    // table construction; `zig_tables_satisfy_the_layer_recurrence` pins
    // them against the defining recurrence.
    #[rustfmt::skip]
    static ZIG_X: [f64; 257] = [
    3.9107579595427135, 3.654152885361009, 3.449278298560749, 3.3202447338388614,
    3.224575052046672, 3.147889289516757, 3.0835261320008125, 3.0278377917681927,
    2.9786032798803834, 2.934366867207377, 2.8941210536118565, 2.857138730871628,
    2.8228773968248086, 2.7909211740002586, 2.760944005278285, 2.73268535904228,
    2.705933656121302, 2.6805146432839573, 2.656283037574929, 2.6331163936297433,
    2.6109105184869597, 2.5895759867063988, 2.569035452679933, 2.54922155032285,
    2.530075232157899, 2.511544441624718, 2.4935830412690496, 2.4761499396685056,
    2.4592083743326674, 2.4427253181983066, 2.4266709849350696, 2.4110184138990234,
    2.3957431197798122, 2.3808227951699514, 2.3662370567151383, 2.351967227376974,
    2.3379961487943395, 2.3243080188689254, 2.310888250599147, 2.2977233489006212,
    2.2848008027222324, 2.2721089902261045, 2.259637095171493, 2.2473750329450772,
    2.235313384927592, 2.2234433400901645, 2.211756642881798, 2.200245546608896,
    2.1889027716239635, 2.177721467737879, 2.1666951803518777, 2.1558178198742897,
    2.1450836340454242, 2.1344871828435354, 2.1240233156870256, 2.1136871506841386,
    2.103474055712346, 2.0933796311362443, 2.0833996939957404, 2.0735302635161625,
    2.063767547809135, 2.0541079316480384, 2.044547965214901, 2.035084353726972,
    2.0257139478611905, 2.016433734903524, 2.0072408305578318, 1.998132471355706,
    1.9891060076147078, 1.9801588968977295, 1.9712886979308955, 1.9624930649415824,
    1.9537697423818492, 1.9451165600058637, 1.9365314282728632, 1.9280123340498172,
    1.9195573365903225, 1.9111645637683707, 1.9028322085475293, 1.8945585256677875,
    1.8863418285338482, 1.8781804862900437, 1.8700729210682974, 1.8620176053966873,
    1.8540130597571975, 1.8460578502821634, 1.8381505865797667, 1.8302899196796991,
    1.82247454009081, 1.8147031759631886, 1.8069745913477087, 1.7992875845465897,
    1.7916409865490135, 1.784033659546274, 1.776464495521337, 1.7689324149080639,
    1.7614363653156866, 1.7539753203144288, 1.7465482782784607, 1.7391542612826307,
    1.731792314049663, 1.7244615029447254, 1.717160915014484, 1.709889657067943,
    1.7026468547965445, 1.695431651931163, 1.6882432094337765, 1.6810807047217347,
    1.6739433309226652, 1.6668302961581851, 1.6597408228546815, 1.652674147079534,
    1.6456295179012395, 1.6386061967719836, 1.631603456931288, 1.6246205828294276,
    1.6176568695693865, 1.610711622366179, 1.6037841560224213, 1.5968737944190925,
    1.5899798700204724, 1.583101723392288, 1.576238702732142, 1.569390163411336,
    1.5625554675272337, 1.5557339834653416, 1.5489250854703147, 1.542128153225119,
    1.5353425714376068, 1.5285677294337803, 1.5218030207570408, 1.515047842772732,
    1.5083015962773034, 1.50156368511143, 1.4948335157764336, 1.4881104970533612,
    1.4813940396240743, 1.4746835556937155, 1.467978458613912, 1.4612781625060802,
    1.454582081884187, 1.4478896312763245, 1.441200224844444, 1.4345132760015833,
    1.4278281970259177, 1.4211443986709411, 1.414461289771073, 1.4077782768419702,
    1.4010947636747915, 1.3944101509236502, 1.3877238356854535, 1.3810352110713007,
    1.3743436657685788, 1.3676485835928558, 1.360949343028629, 1.354245316757947,
    1.3475358711758647, 1.3408203658916464, 1.334098153214567, 1.3273685776230968,
    1.3206309752161907, 1.3138846731453175, 1.3071289890257904, 1.300363230325858,
    1.2935866937319296, 1.286798664488186, 1.2799984157087199, 1.2731852076602173,
    1.2663582870130488, 1.259516886058491, 1.252660221889631, 1.2457874955433172,
    1.2388978911003325, 1.2319905747407358, 1.2250646937510843, 1.2181193754799882,
    1.2111537262381575, 1.204166830138791, 1.197157747873801, 1.1901255154210004,
    1.183069142676943, 1.1759876120096553, 1.1688798767249822, 1.1617448594397053,
    1.154581450353965, 1.147388505414829, 1.1401648443620722, 1.1329092486463945,
    1.1256204592093324, 1.1182971741130807, 1.1109380460072469, 1.1035416794182447,
    1.0961066278455587, 1.0886313906474478, 1.0811144096968008, 1.07355406578576,
    1.065948674755371, 1.0582964833238464, 1.050595664584022, 1.0428443131371596,
    1.035040439826368, 1.0271819660284867, 1.0192667174582366, 1.0112924174326567,
    1.00325667953724, 0.995156999627561, 0.9869907470914324, 0.9787551552864913,
    0.9704473110563842, 0.9620641432150898, 0.953602409873021, 0.9450586844599821,
    0.9364293402782691, 0.9277105333935668, 0.918898183641025, 0.9099879534880155,
    0.900975224452376, 0.8918550707239469, 0.8826222295760155, 0.8732710680795487,
    0.8637955455438274, 0.8541891709985052, 0.8444449548993097, 0.834555354076343,
    0.8245122087420481, 0.8143066701247557, 0.8039291169792843, 0.7933690588296962,
    0.7826150232960517, 0.771654424213117, 0.7604734064183701, 0.7490566620057719,
    0.7373872114219255, 0.7254461408972799, 0.7132122851778803, 0.7006618410933138,
    0.6877678927818479, 0.6744998228228759, 0.6608225742294804, 0.6466957148794825,
    0.6320722363699186, 0.6168969899909077, 0.6011046177383644, 0.5846167660878666,
    0.567338257034299, 0.5491517023064861, 0.5299097206395268, 0.5094233295784585,
    0.4874439661136673, 0.4636343367629188, 0.4375184021768515, 0.40838913457690307,
    0.37512133283755245, 0.33573751916474714, 0.2861745917265311, 0.21524189588014922,
    0.0,
    ];
    #[rustfmt::skip]
    static ZIG_F: [f64; 257] = [
    0.00047746776457615475, 0.001260285930498598, 0.0026090727461083024, 0.004037972593375956,
    0.005522403299271111, 0.007050875471400833, 0.008616582769434092, 0.0102149714397448,
    0.011842757857959378, 0.013497450601799712, 0.015177088308003666, 0.016880083152620174,
    0.018605121275810474, 0.020351096230139296, 0.022117062707412736, 0.02390220330590898,
    0.02570580400867133, 0.027527235669735004, 0.02936593975827483, 0.03122141719207147,
    0.033093219458739574, 0.0349809414618871, 0.036884215688748334, 0.03880270740471732,
    0.04073611065614243, 0.04268414491668631, 0.04464655225151678, 0.04662309490216329,
    0.04861355321611213, 0.050617723861202175, 0.05263541827705749, 0.05466646132516519,
    0.05671069010649028, 0.05876795292123236, 0.06083810834984975, 0.0629210244380794,
    0.06501657797157563, 0.06712465382813286, 0.06924514439736276, 0.07137794905925814,
    0.07352297371436088, 0.07568013035931868, 0.07784933670249972, 0.0800305158150789,
    0.08222359581363094, 0.0844285095707938, 0.08664519445101085, 0.08887359206874125,
    0.09111364806685174, 0.09336531191318169, 0.0956285367135125, 0.09790327903937894,
    0.10018949876933952, 0.10248715894247791, 0.10479622562304293, 0.10711666777525297,
    0.10944845714739439, 0.11179156816443424, 0.11414597782844814, 0.11651166562623426,
    0.11888861344354727, 0.12127680548544134, 0.12367622820226169, 0.1260868702208651,
    0.12850872228069296, 0.130941777174352, 0.13338602969239124, 0.1358414765719903,
    0.13830811644930185, 0.14078594981521056, 0.14327497897429403, 0.14577520800678956,
    0.14828664273338504, 0.15080929068267132, 0.15334316106110366, 0.15588826472533537,
    0.15844461415679587, 0.16101222343839813, 0.16359110823326845, 0.16618128576540053,
    0.16878277480214585, 0.17139559563845627, 0.1740197700828051, 0.1766553214447175,
    0.1793022745238464, 0.18196065560053773, 0.18463049242783097, 0.18731181422484863,
    0.19000465167153008, 0.19270903690467117, 0.19542500351523334, 0.1981525865468913,
    0.20089182249579002, 0.20364274931148565, 0.20640540639904895, 0.20917983462231085,
    0.2119660763082338, 0.21476417525239508, 0.2175741767255706, 0.22039612748140955,
    0.22323007576519327, 0.22607607132367435, 0.2289341654159929, 0.23180441082566994,
    0.23468686187367996, 0.23758157443260694, 0.24048860594188853, 0.24340801542415744,
    0.24633986350269035, 0.24928421241997442, 0.25224112605740767, 0.25521066995614716,
    0.25819291133912425, 0.26118791913424627, 0.2641957639988064, 0.26721651834512716,
    0.27025025636746175, 0.2732970540701841, 0.2763569892972962, 0.27943014176328684,
    0.28251659308537774, 0.28561642681719324, 0.28872972848389594, 0.2918565856188299,
    0.2949970878017184, 0.29815132669846406, 0.3013193961026039, 0.3045013919784732,
    0.30769741250613786, 0.3109075581281551, 0.31413193159822883, 0.3173706380318284,
    0.3206237849588436, 0.32389148237835286, 0.3271738428155869, 0.33047098138117303,
    0.33378301583275205, 0.3371100666390641, 0.34045225704660464, 0.3438097131489583,
    0.3471825639589262, 0.35057094148356394, 0.35397498080226003, 0.3573948201479894,
    0.3608306009918829, 0.3642824681312651, 0.3677505697813201, 0.3712350576705537,
    0.3747360871402323, 0.3782538172479876, 0.3817884108757896, 0.385340034842501,
    0.38890886002124053, 0.39249506146179564, 0.3960988185183411, 0.3997203149827348,
    0.40335973922368124, 0.40701728433206963, 0.41069314827281417, 0.41438753404354717,
    0.41810064984053463, 0.42183270923221317, 0.4255839313407703, 0.42935454103222126,
    0.43314476911546385, 0.4369548525508292, 0.4407850346686802, 0.44463556539864846,
    0.44850670151014527, 0.4523987068648245, 0.45631185268172636, 0.46024641781588715,
    0.46420268905125356, 0.4681809614088081, 0.47218153847088035, 0.4762047327226922,
    0.48025086591226984, 0.48432026942994344, 0.4884132847087558, 0.4925302636472045,
    0.49667156905586435, 0.5008375751295626, 0.5050286679469218, 0.5092452459992418,
    0.5134877207508616, 0.5177565172333323, 0.5220520746759398, 0.5263748471753451,
    0.5307253044073661, 0.5351039323842057, 0.539511234260745, 0.5439477311938646,
    0.5484139632591503, 0.5529104904297636, 0.557437893622745, 0.561996775818552,
    0.5665877632602416, 0.5712115067393808, 0.5758686829765326, 0.5805599961050221,
    0.5852861792676557, 0.5900479963371645, 0.5948462437723813, 0.5996817526235757,
    0.6045553907019757, 0.6094680649303402, 0.6144207238935406, 0.6194143606105225,
    0.6244500155517774, 0.6295287799296517, 0.6346517992925043, 0.6398202774580045,
    0.6450354808258392, 0.6502987431159042, 0.6556114705848572, 0.6609751477818975,
    0.6663913439140609, 0.6718617199024715, 0.6773880362242437, 0.6829721616505483,
    0.6886160830103112, 0.6943219161318447, 0.7000919181423311, 0.7059285013386684,
    0.7118342488842604, 0.7178119326368354, 0.7238645334748489, 0.7299952645678043,
    0.7362075981333046, 0.7425052963467117, 0.7488924472258414, 0.7553735065139101,
    0.761953346843745, 0.7686373158055784, 0.7754313049884293, 0.7823418326622029,
    0.7893761435735926, 0.7965423304307049, 0.8038494831788997, 0.8113078743207942,
    0.8189291916120578, 0.8267268339548115, 0.8347162929957281, 0.8429156531213267,
    0.8513462584681057, 0.8600336212060977, 0.869008688047002, 0.8783096558194914,
    0.8879846607669003, 0.8980959219099868, 0.9087264400644637, 0.9199915050525298,
    0.9320600759735052, 0.9451989534580642, 0.9598790918181102, 0.9771017012896979,
    1.0,
    ];

    /// Draws one standard normal variate (ziggurat): one `u64` yields the
    /// layer index and the horizontal coordinate, and ≈98.8% of draws
    /// accept without touching `exp`/`ln`.
    pub fn sample_ziggurat<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits mapped onto [-1, 1).
        const K: f64 = 2.0 / (1u64 << 53) as f64;
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            let u = ((bits >> 11) as f64) * K - 1.0;
            let v = u * ZIG_X[i];
            if v.abs() < ZIG_X[i + 1] {
                // Strictly inside the next layer's edge: uniform in a
                // rectangle wholly under the density.
                return v;
            }
            if i == 0 {
                // Base strip overflow: sample the tail beyond R with
                // Marsaglia's exponential-majorant rejection.
                loop {
                    let u1: f64 = rng.gen_range(0.0..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    if u1 <= 0.0 {
                        continue;
                    }
                    let xt = -u1.ln() / ZIG_R;
                    let yt = -u2.ln();
                    if 2.0 * yt >= xt * xt {
                        return if u < 0.0 { -(ZIG_R + xt) } else { ZIG_R + xt };
                    }
                }
            }
            // Wedge: accept with probability proportional to how far the
            // density still reaches past the inner rectangle.
            let y: f64 = rng.gen_range(0.0..1.0);
            if ZIG_F[i + 1] + y * (ZIG_F[i] - ZIG_F[i + 1]) < pdf(v) {
                return v;
            }
        }
    }

    #[cfg(test)]
    pub(super) mod test_support {
        pub(crate) const POLAR_BLOCK: usize = super::POLAR_BLOCK;
        pub(crate) const R: f64 = super::ZIG_R;
        pub(crate) const V: f64 = super::ZIG_V;
        pub(crate) static X: &[f64; 257] = &super::ZIG_X;
        pub(crate) static F: &[f64; 257] = &super::ZIG_F;
        pub(crate) fn pdf(x: f64) -> f64 {
            super::pdf(x)
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
            config
                .noise_sampler
                .add_noise(config.noise_sigma, &mut rng, buffer.samples_mut());
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
    fn zig_tables_satisfy_the_layer_recurrence() {
        use super::rand_distr_normal::test_support as zig;
        // The defining geometry: x[0] = V/pdf(R) spans the base strip plus
        // tail, x[1] = R, and each higher edge solves the equal-area
        // recurrence x[i+1] = sqrt(-2 ln(V/x[i] + pdf(x[i]))). The table is
        // literal data; this test proves it is *that* ziggurat and not a
        // typo. Tolerances allow for the platform libm that rebuilds the
        // recurrence here, nothing more.
        assert!((zig::X[0] - zig::V / zig::pdf(zig::R)).abs() < 1e-12);
        assert_eq!(zig::X[1].to_bits(), zig::R.to_bits());
        assert_eq!(zig::X[256], 0.0);
        for i in 1..256 {
            let arg = -2.0 * (zig::V / zig::X[i] + zig::pdf(zig::X[i])).ln();
            let expect = if arg > 0.0 { arg.sqrt() } else { 0.0 };
            assert!(
                (zig::X[i + 1] - expect).abs() < 1e-9,
                "layer {i}: {} vs {expect}",
                zig::X[i + 1]
            );
            assert!(zig::X[i + 1] < zig::X[i], "edges must descend");
        }
        for i in 0..=256 {
            assert!(
                (zig::F[i] - zig::pdf(zig::X[i])).abs() < 1e-12,
                "f[{i}] is not pdf(x[{i}])"
            );
        }
    }

    #[test]
    fn ziggurat_matches_polar_in_law() {
        // Both samplers are exact N(0,1) methods; their first four moments
        // and 3σ tail mass must agree with theory (and hence each other)
        // within Monte-Carlo error at this sample count.
        let n = 2_000_000usize;
        let moments = |sampler: NoiseSampler| {
            let mut rng = StdRng::seed_from_u64(0x2166_0A75);
            let (mut m1, mut m2, mut m3, mut m4, mut tail) = (0.0, 0.0, 0.0, 0.0, 0usize);
            for _ in 0..n {
                let z = sampler.sample(&mut rng);
                m1 += z;
                m2 += z * z;
                m3 += z * z * z;
                m4 += z * z * z * z;
                if z.abs() > 3.0 {
                    tail += 1;
                }
            }
            let nf = n as f64;
            (m1 / nf, m2 / nf, m3 / nf, m4 / nf, tail as f64 / nf)
        };
        for sampler in [NoiseSampler::Ziggurat, NoiseSampler::MarsagliaPolar] {
            let (mean, var, skew, kurt, tail) = moments(sampler);
            let label = format!("{sampler:?}");
            assert!(mean.abs() < 0.005, "{label} mean {mean}");
            assert!((var - 1.0).abs() < 0.01, "{label} var {var}");
            assert!(skew.abs() < 0.02, "{label} skew {skew}");
            assert!((kurt - 3.0).abs() < 0.05, "{label} kurtosis {kurt}");
            // P(|Z| > 3) = 0.0027.
            assert!((tail - 0.0027).abs() < 0.0005, "{label} tail {tail}");
        }
    }

    #[test]
    fn noise_sampler_choice_changes_the_stream_but_not_the_noiseless_trace() {
        let records = records("li t0, 3\nmul t1, t0, t0\nebreak");
        let run = |config: &PowerModelConfig| render(&records, config, 7);
        let noisy = PowerModelConfig::default();
        let polar = run(&noisy);
        let zig = run(&noisy.with_noise_sampler(NoiseSampler::Ziggurat));
        assert_eq!(polar.spans, zig.spans, "annotations are noise-free");
        assert_ne!(polar.samples, zig.samples, "different stream, same law");
        // With σ = 0 the sampler is never consulted: identical captures.
        let quiet = PowerModelConfig::noiseless();
        assert_eq!(
            run(&quiet),
            run(&quiet.with_noise_sampler(NoiseSampler::Ziggurat))
        );
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
        // both sides of each block edge — for both samplers.
        #[test]
        fn prop_add_noise_matches_per_sample_loop(
            len in 0usize..=1_100,
            picks in proptest::collection::vec(0usize..PALETTE.len(), 1..40),
            sigma_pick in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use super::rand_distr_normal::test_support::POLAR_BLOCK;
            let sigma = [0.05, 0.3, 1e-300, 2.0][sigma_pick];
            for len in [len, POLAR_BLOCK - 1, POLAR_BLOCK, POLAR_BLOCK + 1, 2 * POLAR_BLOCK] {
                let noiseless: Vec<f64> =
                    (0..len).map(|i| PALETTE[picks[i % picks.len()]]).collect();
                for sampler in [NoiseSampler::MarsagliaPolar, NoiseSampler::Ziggurat] {
                    let mut blocked = noiseless.clone();
                    let mut rng = StdRng::seed_from_u64(seed);
                    sampler.add_noise(sigma, &mut rng, &mut blocked);
                    let mut reference = noiseless.clone();
                    let mut reference_rng = StdRng::seed_from_u64(seed);
                    for p in &mut reference {
                        *p += sigma * sampler.sample(&mut reference_rng);
                    }
                    for (a, b) in blocked.iter().zip(&reference) {
                        proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    proptest::prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
                }
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
