//! Equivalence suite for the rv32 trace-generation fast path.
//!
//! The streaming pipeline (compiled basic blocks with fused power
//! emission, sub-trace memoization, worker-pinned profiling scratch) is a
//! pure performance layer: every output it produces must be bit-identical
//! to the materializing reference oracle (`run_reference`: per-step
//! decoding, a record list, per-sample noise) for the same inputs and RNG
//! seed. These tests pin that contract at the kernel level (all five
//! sampler variants, deterministic cases and a proptest over random
//! coefficient sequences), at the block level (self-modifying code and
//! guest bus faults, blocks against stepping) and at the pipeline level
//! (profiling collection and the trained attack built from it).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reveal_attack::{
    collect_profiling, collect_profiling_baseline, AttackConfig, Device, TrainedAttack,
};
use reveal_rv32::block::{run_block, BlockCache, BlockCacheStats, BlockExit};
use reveal_rv32::cpu::{Bus, Cpu, Halt, QueueMmio};
use reveal_rv32::kernel::{KernelRun, KernelVariant, SamplerKernel, SamplerScratch};
use reveal_rv32::power::{PowerModelConfig, PowerRenderer, TraceBuffer};
use reveal_rv32::{assemble, static_leaders, Instruction, Program};

const Q: u64 = 132_120_577;
const Q2: u64 = 12_289;

const VARIANTS: [KernelVariant; 5] = [
    KernelVariant::Vulnerable,
    KernelVariant::Branchless,
    KernelVariant::MaskedLadder,
    KernelVariant::Shuffled,
    KernelVariant::Ckks,
];

/// Runs one input set through the fast path on a shared (possibly warm)
/// scratch, through `run()` on a fresh one, and through the reference
/// oracle, and asserts every output matches bit for bit.
fn assert_fast_path_identical(
    kernel: &SamplerKernel,
    values: &[i64],
    iterations: &[u32],
    config: &PowerModelConfig,
    seed: u64,
    scratch: &mut SamplerScratch,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let baseline: KernelRun = kernel.run(values, iterations, config, &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let reference: KernelRun = kernel
        .run_reference(values, iterations, config, &mut rng)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let fast: KernelRun = kernel
        .run_into(values, iterations, config, &mut rng, scratch)
        .unwrap();
    prop_assert_eq!(&fast.capture.samples, &baseline.capture.samples);
    prop_assert_eq!(&fast.capture.spans, &baseline.capture.spans);
    prop_assert_eq!(&fast.poly, &baseline.poly);
    prop_assert_eq!(&fast.shares, &baseline.shares);
    prop_assert_eq!(&fast.coefficient_windows, &baseline.coefficient_windows);
    prop_assert_eq!(fast.instruction_count, baseline.instruction_count);
    // The superinstruction path must also match the reference oracle, which
    // shares no code with the block compiler or the burst memo.
    prop_assert_eq!(&fast.capture.samples, &reference.capture.samples);
    prop_assert_eq!(&fast.capture.spans, &reference.capture.spans);
    prop_assert_eq!(&fast.poly, &reference.poly);
    prop_assert_eq!(&fast.coefficient_windows, &reference.coefficient_windows);
    prop_assert_eq!(fast.instruction_count, reference.instruction_count);
    Ok(())
}

#[test]
fn kernel_fast_path_is_bit_identical_on_all_variants() {
    let values = [3i64, -2, 0, 1, -1, 41, -41, 14];
    let iterations = [4u32, 6, 4, 10, 4, 8, 6, 4];
    let mut scratch = SamplerScratch::new();
    for variant in VARIANTS {
        for moduli in [&[Q][..], &[Q, Q2][..]] {
            let kernel = SamplerKernel::with_variant(8, moduli, variant).unwrap();
            for sigma in [0.0, 0.05, 0.25] {
                let config = PowerModelConfig::default().with_noise_sigma(sigma);
                // Cold memo, then warm memo on a second pass.
                for pass in 0..2 {
                    assert_fast_path_identical(
                        &kernel,
                        &values,
                        &iterations,
                        &config,
                        0xFA57_0000 + pass,
                        &mut scratch,
                    )
                    .unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random coefficient sequences, burst lengths, variants, and noise:
    /// the block-compiled, memoized composition must never diverge from
    /// direct rendering or from the reference oracle.
    #[test]
    fn kernel_fast_path_is_bit_identical_on_random_sequences(
        values in proptest::collection::vec(-41i64..=41, 8),
        iterations in proptest::collection::vec(4u32..=20, 8),
        variant_idx in 0usize..5,
        noisy in 0u8..2,
        seed in any::<u64>(),
    ) {
        let kernel = SamplerKernel::with_variant(8, &[Q], VARIANTS[variant_idx]).unwrap();
        let config = if noisy == 1 {
            PowerModelConfig::default()
        } else {
            PowerModelConfig::noiseless()
        };
        let mut scratch = SamplerScratch::new();
        assert_fast_path_identical(&kernel, &values, &iterations, &config, seed, &mut scratch)?;
    }
}

/// Adds `config`'s noise over a finished noiseless capture, as the kernel
/// does after a normal halt, so the block-vs-step comparisons still cover
/// the noise stream.
fn add_noise(config: &PowerModelConfig, seed: u64, sink: &mut TraceBuffer) {
    let mut rng = StdRng::seed_from_u64(seed);
    config
        .noise_sampler
        .add_noise(config.noise_sigma, &mut rng, sink.samples_mut());
}

/// What a run to halt left behind: the capture, the core and the halt.
type Finished = (TraceBuffer, Cpu<QueueMmio>, Halt);

/// Drives `program` to halt on `ram_bytes` of RAM through the
/// block-dispatch loop (compile at first execution, superinstruction
/// execution with fused power emission, store-overlap invalidation),
/// mirroring the kernel's dispatch.
fn run_via_blocks(program: &Program, ram_bytes: usize, seed: u64) -> (Finished, BlockCacheStats) {
    let mut bus = Bus::new(ram_bytes, QueueMmio::new());
    bus.load_words(0, &program.words);
    let mut cpu = Cpu::new(bus);
    let config = PowerModelConfig::default();
    let renderer = PowerRenderer::new(&config);
    let mut sink = TraceBuffer::new();
    let instrs: Vec<Option<Instruction>> = program
        .words
        .iter()
        .map(|&w| Instruction::decode(w).ok())
        .collect();
    let leaders = static_leaders(&instrs, 0, &[]);
    let mut cache = BlockCache::new();
    cache.reset_program(0, program.words.len());
    let image = cache.image_range();
    let fuel = 10_000;
    let mut record_index = 0usize;
    let halt = loop {
        assert!(record_index < fuel, "runaway test program");
        let pc = cpu.pc();
        if cache.get(pc).is_some() {
            cache.stats.dispatch_hits += 1;
        } else {
            // Compile from current memory so a patched image is captured
            // faithfully, exactly as the kernel's dispatch does.
            let words: Vec<u32> = (0..program.words.len())
                .map(|i| cpu.bus.read_u32(4 * i as u32))
                .collect();
            cache.insert(&words, pc, &leaders);
        }
        match cache.get(pc) {
            Some(block) => {
                let run = run_block(
                    &mut cpu,
                    block,
                    &renderer,
                    &mut sink,
                    record_index,
                    fuel,
                    &image,
                );
                record_index += run.executed;
                cache.stats.fused_samples += run.samples as u64;
                match run.exit {
                    BlockExit::Completed | BlockExit::OutOfFuel => {}
                    BlockExit::Halted(halt) => break halt,
                    BlockExit::SelfModified { addr } => cache.invalidate(addr),
                }
            }
            None => match cpu.step() {
                Ok(record) => {
                    renderer.render_record(record_index, &record, &mut sink);
                    record_index += 1;
                }
                Err(halt) => break halt,
            },
        }
    };
    add_noise(&config, seed, &mut sink);
    ((sink, cpu, halt), cache.stats)
}

/// The same program, stepped one instruction at a time with per-record
/// rendering — the interpreter semantics blocks must reproduce.
fn run_via_steps(program: &Program, ram_bytes: usize, seed: u64) -> Finished {
    let mut bus = Bus::new(ram_bytes, QueueMmio::new());
    bus.load_words(0, &program.words);
    let mut cpu = Cpu::new(bus);
    let config = PowerModelConfig::default();
    let renderer = PowerRenderer::new(&config);
    let mut sink = TraceBuffer::new();
    let mut record_index = 0usize;
    let halt = loop {
        match cpu.step() {
            Ok(record) => {
                renderer.render_record(record_index, &record, &mut sink);
                record_index += 1;
            }
            Err(halt) => break halt,
        }
    };
    add_noise(&config, seed, &mut sink);
    (sink, cpu, halt)
}

#[test]
fn store_into_executed_block_invalidates_and_stays_bit_identical() {
    // A two-pass loop that patches its own body: pass 1 executes
    // `addi t1, t1, 1`, then stores a different encoding over that very
    // instruction *while the containing block is executing*. The block
    // cache must abort after the store, drop the stale block, recompile
    // from the patched image, and execute `addi t1, t1, 5` on pass 2 —
    // with samples and architectural state bit-identical to stepping.
    let patched = assemble("addi t1, t1, 5", 0).unwrap().words[0];
    let src = format!(
        "
        li   t2, 2
        loop:
        patch:
        addi t1, t1, 1
        la   t3, patch
        la   t5, newop
        lw   t4, 0(t5)
        sw   t4, 0(t3)
        addi t2, t2, -1
        bnez t2, loop
        ebreak
        newop: .word {patched:#010x}
        "
    );
    let program = assemble(&src, 0).unwrap();

    let ((blocked, blocked_cpu, blocked_halt), stats) = run_via_blocks(&program, 64 * 1024, 0xB10C);
    let (stepped, stepped_cpu, stepped_halt) = run_via_steps(&program, 64 * 1024, 0xB10C);

    assert_eq!(blocked_halt, Halt::Ebreak);
    assert_eq!(stepped_halt, Halt::Ebreak);
    assert_eq!(blocked.samples(), stepped.samples());
    assert_eq!(blocked.spans(), stepped.spans());
    let t1 = reveal_rv32::Reg(6);
    assert_eq!(blocked_cpu.reg(t1), stepped_cpu.reg(t1));
    // Pass 1 added 1, pass 2 ran the patched instruction: the store really
    // did rewrite the executed block.
    assert_eq!(blocked_cpu.reg(t1), 6);
    // And the cache saw it: at least one invalidation, a recompile beyond
    // the initial discovery, and fused emission for every sample.
    assert!(stats.invalidations >= 1, "stats: {stats:?}");
    assert!(stats.blocks_compiled >= 2, "stats: {stats:?}");
    assert_eq!(stats.fused_samples as usize, blocked.samples().len());
}

#[test]
fn bus_faults_halt_identically_on_blocks_and_steps() {
    // 4 KiB of RAM: a load, a store and a jump past its end must halt the
    // guest with a typed fault on both paths, after the same samples.
    for source in [
        "li t1, 0x100000\nlw t0, 0(t1)\nebreak",
        "li t1, 0x100000\nsw t0, 0(t1)\nebreak",
        "li t0, 0x100000\njr t0\nebreak",
    ] {
        let program = assemble(source, 0).unwrap();
        let ((blocked, blocked_cpu, blocked_halt), _) = run_via_blocks(&program, 4096, 0xFA17);
        let (stepped, stepped_cpu, stepped_halt) = run_via_steps(&program, 4096, 0xFA17);
        assert!(
            matches!(
                stepped_halt,
                Halt::BusFault {
                    addr: 0x10_0000,
                    ..
                }
            ),
            "{source}: {stepped_halt:?}"
        );
        assert_eq!(blocked_halt, stepped_halt, "{source}");
        assert_eq!(blocked.samples(), stepped.samples(), "{source}");
        assert_eq!(blocked.spans(), stepped.spans(), "{source}");
        assert_eq!(blocked_cpu.pc(), stepped_cpu.pc(), "{source}");
    }
}

#[test]
fn reference_path_is_bit_identical_too() {
    // The benchmark reference (per-step decode, materialized records,
    // sin-per-bit rendering) must agree with both the current run() and the
    // streaming fast path.
    let values = [3i64, -2, 0, 1, -1, 41, -41, 14];
    let iterations = [4u32, 6, 4, 10, 4, 8, 6, 4];
    let mut scratch = SamplerScratch::new();
    for variant in VARIANTS {
        let kernel = SamplerKernel::with_variant(8, &[Q], variant).unwrap();
        let config = PowerModelConfig::default();
        let mut rng = StdRng::seed_from_u64(77);
        let reference = kernel
            .run_reference(&values, &iterations, &config, &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let direct = kernel.run(&values, &iterations, &config, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let fast = kernel
            .run_into(&values, &iterations, &config, &mut rng, &mut scratch)
            .unwrap();
        assert_eq!(reference.capture, direct.capture);
        assert_eq!(reference.capture, fast.capture);
        assert_eq!(reference.poly, fast.poly);
        assert_eq!(reference.coefficient_windows, fast.coefficient_windows);
        assert_eq!(reference.instruction_count, fast.instruction_count);
    }
}

#[test]
fn profiling_collection_is_bit_identical_to_baseline() {
    let device = Device::new(32, &[Q], PowerModelConfig::default()).unwrap();
    let config = AttackConfig::default();
    // 13 runs: one full 8-run chunk plus a ragged 5-run tail.
    let fast = collect_profiling(&device, 13, &config, 0x5EA1_BE9C).unwrap();
    let baseline = collect_profiling_baseline(&device, 13, &config, 0x5EA1_BE9C).unwrap();
    assert_eq!(fast.total_windows, baseline.total_windows);
    assert_eq!(fast.sign_set, baseline.sign_set);
    assert_eq!(fast.pos_set, baseline.pos_set);
    assert_eq!(fast.neg_set, baseline.neg_set);
}

#[test]
fn trained_attack_from_fast_path_matches_baseline_end_to_end() {
    // Train two attackers — one from each collection path — and verify they
    // produce identical per-coefficient estimates on the same fresh capture.
    let device = Device::new(64, &[Q], PowerModelConfig::default()).unwrap();
    let config = AttackConfig::default();
    let master_seed = 0xC0DE_F00D;

    let fast_data = collect_profiling(&device, 20, &config, master_seed).unwrap();
    let baseline_data = collect_profiling_baseline(&device, 20, &config, master_seed).unwrap();
    let fast_attack = TrainedAttack::fit(
        config.clone(),
        fast_data.sign_set,
        fast_data.pos_set,
        fast_data.neg_set,
        fast_data.total_windows,
    )
    .unwrap();
    let baseline_attack = TrainedAttack::fit(
        config,
        baseline_data.sign_set,
        baseline_data.pos_set,
        baseline_data.neg_set,
        baseline_data.total_windows,
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    let capture = device.capture_fresh(&mut rng).unwrap();
    let fast_result = fast_attack
        .attack_trace_expecting(&capture.run.capture.samples, 64)
        .unwrap();
    let baseline_result = baseline_attack
        .attack_trace_expecting(&capture.run.capture.samples, 64)
        .unwrap();
    assert_eq!(fast_result, baseline_result);
}
