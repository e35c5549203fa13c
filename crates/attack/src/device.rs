//! The device under attack: SEAL's Gaussian sampler running on the simulated
//! RV32 core, exposed in the two modes a template adversary needs —
//! *profiling* (chosen coefficient values, §II-B threat model) and *attack*
//! (fresh secret samples, a single capture).

use rand::Rng;
use reveal_bfv::sampler::{ClippedNormalDistribution, SampleStats};
use reveal_rv32::kernel::{KernelError, KernelRun, KernelVariant, SamplerKernel, SamplerScratch};
use reveal_rv32::power::PowerModelConfig;

/// Converts one distribution call's statistics into the burst length the
/// kernel's `dist_loop` executes: a fixed setup portion plus work per polar
/// iteration and per clipping rejection. Using the spare costs nothing extra
/// — this is the time-variance §III-C works around.
pub fn burst_iterations(stats: &SampleStats) -> u32 {
    2 + 2 * stats.polar_iterations + 4 * stats.clip_rejections
}

/// The simulated measurement target.
#[derive(Debug, Clone)]
pub struct Device {
    kernel: SamplerKernel,
    power: PowerModelConfig,
    noise_standard_deviation: f64,
    noise_max_deviation: f64,
}

/// One capture plus its (profiling-only) ground truth.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The sampled coefficient values (the secret; available to the
    /// adversary only during profiling).
    pub values: Vec<i64>,
    /// The kernel execution: power trace, output polynomial, ground-truth
    /// windows.
    pub run: KernelRun,
}

impl Device {
    /// Builds a device for ring degree `n` and the given coefficient moduli,
    /// with the SEAL noise parameters `σ = 3.19`, clip 41.
    ///
    /// # Errors
    ///
    /// Propagates kernel-construction failures.
    pub fn new(n: usize, moduli: &[u64], power: PowerModelConfig) -> Result<Self, KernelError> {
        Self::with_variant(n, moduli, power, KernelVariant::Vulnerable)
    }

    /// Builds a device running a specific sampler variant (§V-A study).
    ///
    /// # Errors
    ///
    /// Propagates kernel-construction failures.
    pub fn with_variant(
        n: usize,
        moduli: &[u64],
        power: PowerModelConfig,
        variant: KernelVariant,
    ) -> Result<Self, KernelError> {
        Ok(Self {
            kernel: SamplerKernel::with_variant(n, moduli, variant)?,
            power,
            noise_standard_deviation: reveal_bfv::DEFAULT_NOISE_STANDARD_DEVIATION,
            noise_max_deviation: reveal_bfv::DEFAULT_NOISE_MAX_DEVIATION,
        })
    }

    /// The sampler variant this device runs.
    pub fn variant(&self) -> KernelVariant {
        self.kernel.variant()
    }

    /// Overrides the noise distribution (ablation experiments).
    pub fn set_noise_parameters(&mut self, standard_deviation: f64, max_deviation: f64) {
        self.noise_standard_deviation = standard_deviation;
        self.noise_max_deviation = max_deviation;
    }

    /// The power-model configuration.
    pub fn power_config(&self) -> &PowerModelConfig {
        &self.power
    }

    /// Replaces the power-model configuration (SNR sweeps).
    pub fn set_power_config(&mut self, power: PowerModelConfig) {
        self.power = power;
    }

    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.kernel.degree()
    }

    /// One `ClippedNormalDistribution` call per coefficient, lazily: each
    /// call's sampled value and the burst length its timing gives the
    /// kernel's `dist_loop`.
    fn distribution_calls<'r, R: Rng + ?Sized>(
        &self,
        rng: &'r mut R,
    ) -> impl Iterator<Item = (i64, u32)> + 'r {
        let mut dist = ClippedNormalDistribution::new(
            0.0,
            self.noise_standard_deviation,
            self.noise_max_deviation,
        );
        std::iter::repeat_with(move || {
            let (value, stats) = dist.sample_i64(rng);
            (value, burst_iterations(&stats))
        })
    }

    /// Captures one execution with *fresh* noise sampled exactly as SEAL's
    /// encryptor would (attack mode).
    ///
    /// # Errors
    ///
    /// Propagates kernel failures.
    pub fn capture_fresh<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Capture, KernelError> {
        let (values, iterations): (Vec<i64>, Vec<u32>) =
            self.distribution_calls(rng).take(self.degree()).unzip();
        let run = self.kernel.run_into(
            &values,
            &iterations,
            &self.power,
            rng,
            &mut SamplerScratch::new(),
        )?;
        Ok(Capture { values, run })
    }

    /// Captures one execution with *chosen* coefficient values (profiling
    /// mode — "the adversary can profile the target device", §II-B). The
    /// distribution-call timing is still drawn randomly so the profiling
    /// traces carry realistic time variance. [`Device::capture_chosen_into`]
    /// on a fresh scratch.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures (including length mismatch).
    pub fn capture_chosen<R: Rng + ?Sized>(
        &self,
        values: &[i64],
        rng: &mut R,
    ) -> Result<Capture, KernelError> {
        self.capture_chosen_into(values, rng, &mut SamplerScratch::new())
    }

    /// [`Device::capture_chosen`] with a caller-owned scratch: the trace
    /// renders into `scratch`'s reusable buffer and distribution bursts
    /// replay from its sub-trace memo. Bit-identical output for the same
    /// RNG seed, whatever the scratch held before. This is what the
    /// profiling stage uses: back-to-back chosen-value captures on one
    /// device hit the memo constantly, since burst lengths concentrate on a
    /// few even values.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures (including length mismatch).
    pub fn capture_chosen_into<R: Rng + ?Sized>(
        &self,
        values: &[i64],
        rng: &mut R,
        scratch: &mut SamplerScratch,
    ) -> Result<Capture, KernelError> {
        let iterations: Vec<u32> = self
            .distribution_calls(rng)
            .take(values.len())
            .map(|(_, iterations)| iterations)
            .collect();
        let run = self
            .kernel
            .run_into(values, &iterations, &self.power, rng, scratch)?;
        Ok(Capture {
            values: values.to_vec(),
            run,
        })
    }

    /// [`Device::capture_chosen`] through the reference oracle
    /// ([`SamplerKernel::run_reference`]): per-step decoding, a
    /// materialized record list, and `sin`-per-bit rendering. Bit-identical
    /// output; exists so the equivalence tests can check the fast path
    /// against it and the fast-path timing test can measure it.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures (including length mismatch).
    pub fn capture_chosen_reference<R: Rng + ?Sized>(
        &self,
        values: &[i64],
        rng: &mut R,
    ) -> Result<Capture, KernelError> {
        let iterations: Vec<u32> = self
            .distribution_calls(rng)
            .take(values.len())
            .map(|(_, iterations)| iterations)
            .collect();
        let run = self
            .kernel
            .run_reference(values, &iterations, &self.power, rng)?;
        Ok(Capture {
            values: values.to_vec(),
            run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const Q: u64 = 132120577;

    #[test]
    fn fresh_capture_matches_seal_semantics() {
        let device = Device::new(64, &[Q], PowerModelConfig::noiseless()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cap = device.capture_fresh(&mut rng).unwrap();
        assert_eq!(cap.values.len(), 64);
        for (i, &v) in cap.values.iter().enumerate() {
            assert!(v.abs() <= 41);
            assert_eq!(cap.run.poly[i], v.rem_euclid(Q as i64) as u32);
        }
        assert_eq!(cap.run.coefficient_windows.len(), 64);
    }

    #[test]
    fn chosen_capture_uses_given_values() {
        let device = Device::new(8, &[Q], PowerModelConfig::noiseless()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let values = [-7i64, 7, 0, -1, 1, -14, 14, 0];
        let cap = device.capture_chosen(&values, &mut rng).unwrap();
        assert_eq!(cap.values, values);
        assert_eq!(cap.run.poly[0], (Q as i64 - 7) as u32);
    }

    #[test]
    fn fresh_captures_differ() {
        let device = Device::new(16, &[Q], PowerModelConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = device.capture_fresh(&mut rng).unwrap();
        let b = device.capture_fresh(&mut rng).unwrap();
        assert_ne!(a.values, b.values);
        assert_ne!(a.run.capture.samples, b.run.capture.samples);
    }

    #[test]
    fn fast_path_captures_match_direct_captures() {
        let device = Device::new(16, &[Q], PowerModelConfig::default()).unwrap();
        let mut scratch = SamplerScratch::new();

        // A chosen capture of a fresh capture's values draws the same
        // timing and noise, so it must render the same trace.
        let mut rng = StdRng::seed_from_u64(9);
        let direct = device.capture_fresh(&mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let fast = device
            .capture_chosen_into(&direct.values, &mut rng, &mut scratch)
            .unwrap();
        assert_eq!(fast.values, direct.values);
        assert_eq!(fast.run.capture, direct.run.capture);
        assert_eq!(fast.run.poly, direct.run.poly);

        let values = [-7i64, 7, 0, -1, 1, -14, 14, 0, 2, -2, 3, -3, 0, 5, -5, 41];
        let mut rng = StdRng::seed_from_u64(10);
        let direct = device.capture_chosen(&values, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let fast = device
            .capture_chosen_into(&values, &mut rng, &mut scratch)
            .unwrap();
        assert_eq!(fast.run.capture, direct.run.capture);
        assert_eq!(fast.run.poly, direct.run.poly);
        assert_eq!(fast.run.coefficient_windows, direct.run.coefficient_windows);
        assert!(scratch.memo_len() > 0);
    }

    #[test]
    fn burst_iterations_monotone() {
        let base = burst_iterations(&SampleStats {
            polar_iterations: 1,
            clip_rejections: 0,
        });
        let more_polar = burst_iterations(&SampleStats {
            polar_iterations: 3,
            clip_rejections: 0,
        });
        let clipped = burst_iterations(&SampleStats {
            polar_iterations: 1,
            clip_rejections: 2,
        });
        assert!(more_polar > base);
        assert!(clipped > base);
        assert!(base >= 2);
    }
}
