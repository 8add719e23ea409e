//! The kernel optimizer must be invisible to every observable result.
//!
//! `Kernel::build` runs the dataflow optimizer over each generated
//! program, and the device stages the optimized image by default with
//! `SsamConfig::optimize_kernels = false` as the A/B escape hatch. The
//! devices here pin `fast_path: false`: the fast path computes distances
//! on the host and reads the program only to synthesize counters, so only
//! the cycle simulator actually executes the raw and optimized images.
//! These properties pin the contract:
//!
//! 1. **Bit-identical answers** — for every metric, queue
//!    implementation, and k, an optimized device returns exactly the
//!    neighbors (ids *and* raw distance bits) of a raw-program device,
//!    with identical fault accounting when a chaos plan is attached.
//! 2. **Never slower** — the optimized image retires no more
//!    instructions and no more cycles than the raw image on any vault.
//! 3. **Deterministic timing** — two optimized runs report bitwise-equal
//!    modeled `seconds`.
//! 4. **Honest static costs** — `analysis::cost::estimate` is *exact*
//!    (instructions, cycles, DRAM bytes) against the simulator for the
//!    linear Euclidean/Manhattan/Hamming kernels on every vault, brackets
//!    the branchy cosine kernel, and agrees with the telemetry roofline
//!    on memory- vs compute-bound whenever it commits to a class.

use std::sync::Arc;

use proptest::prelude::*;

use ssam::core::analysis::cost::{estimate, BoundClass, CostParams};
use ssam::core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam::core::kernels::linear;
use ssam::core::telemetry::{critical_path, VaultAccount};
use ssam::faults::FaultPlan;
use ssam::knn::binary::BinaryStore;
use ssam::knn::VectorStore;

const DIMS: usize = 8;
const CODE_WORDS: usize = 2;
const N: usize = 120;

fn float_store(seed: u64, n: usize) -> VectorStore {
    let mut store = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        let v: Vec<f32> = (0..DIMS)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as i32 % 1000) as f32 / 500.0
            })
            .collect();
        store.push(&v);
    }
    store
}

fn binary_store(seed: u64, n: usize) -> BinaryStore {
    let mut store = BinaryStore::new(CODE_WORDS * 32);
    let mut x = seed | 1;
    for _ in 0..n {
        let code: Vec<u32> = (0..CODE_WORDS)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 24) as u32
            })
            .collect();
        store.push(&code);
    }
    store
}

fn device(optimize: bool, use_hw: bool, float: bool, seed: u64, chaos: bool) -> SsamDevice {
    let mut dev = SsamDevice::new(SsamConfig {
        use_hw_queue: use_hw,
        optimize_kernels: optimize,
        fast_path: false,
        ..SsamConfig::default()
    });
    if float {
        dev.load_vectors(&float_store(seed, N));
    } else {
        dev.load_binary(&binary_store(seed, N));
    }
    if chaos {
        dev.set_fault_plan(Some(Arc::new(FaultPlan::chaos(seed))));
    }
    dev
}

fn query_vec(seed: u64, i: usize) -> Vec<f32> {
    (0..DIMS)
        .map(|j| ((seed as usize + i * 13 + j * 7) as f32 * 0.17).sin())
        .collect()
}

/// Runs the same query on an optimized and a raw device and asserts the
/// observable contract: identical answers and fault accounting, fewer or
/// equal instructions and cycles.
fn assert_opt_invisible(opt: &mut SsamDevice, raw: &mut SsamDevice, q: &DeviceQuery<'_>, k: usize) {
    let a = opt.query(q, k).expect("optimized device runs");
    let b = raw.query(q, k).expect("raw device runs");
    assert_eq!(a.neighbors, b.neighbors, "optimization changed the answer");
    assert_eq!(a.faults, b.faults, "optimization changed fault accounting");
    let (ai, bi): (u64, u64) = (
        a.vault_stats.iter().map(|s| s.instructions).sum(),
        b.vault_stats.iter().map(|s| s.instructions).sum(),
    );
    let (ac, bc): (u64, u64) = (
        a.vault_stats.iter().map(|s| s.cycles).sum(),
        b.vault_stats.iter().map(|s| s.cycles).sum(),
    );
    assert!(
        ai <= bi,
        "optimized image retired more instructions: {ai} > {bi}"
    );
    assert!(ac <= bc, "optimized image took more cycles: {ac} > {bc}");
    // DRAM traffic is untouched: the optimizer only removes scratchpad
    // reloads, never vector streaming.
    assert_eq!(
        a.vault_stats.iter().map(|s| s.dram.bytes_read).sum::<u64>(),
        b.vault_stats.iter().map(|s| s.dram.bytes_read).sum::<u64>(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn optimized_float_devices_answer_bit_identically(
        seed in 1u64..1000,
        k_idx in 0usize..3,
        use_hw in any::<bool>(),
        chaos in any::<bool>(),
    ) {
        let k = [1usize, 8, 40][k_idx];
        let mut opt = device(true, use_hw, true, seed, chaos);
        let mut raw = device(false, use_hw, true, seed, chaos);
        for (i, q) in (0..3).map(|i| query_vec(seed, i)).enumerate() {
            match i % 3 {
                0 => assert_opt_invisible(&mut opt, &mut raw, &DeviceQuery::Euclidean(&q), k),
                1 => assert_opt_invisible(&mut opt, &mut raw, &DeviceQuery::Manhattan(&q), k),
                _ => assert_opt_invisible(&mut opt, &mut raw, &DeviceQuery::Cosine(&q), k),
            }
        }
    }

    #[test]
    fn optimized_hamming_devices_answer_bit_identically(
        seed in 1u64..1000,
        k_idx in 0usize..3,
        use_hw in any::<bool>(),
        chaos in any::<bool>(),
    ) {
        let k = [1usize, 8, 40][k_idx];
        let mut opt = device(true, use_hw, false, seed, chaos);
        let mut raw = device(false, use_hw, false, seed, chaos);
        let code: Vec<u32> = (0..CODE_WORDS as u32)
            .map(|j| (seed as u32 ^ (j * 7)).wrapping_mul(0x9E37_79B9))
            .collect();
        assert_opt_invisible(&mut opt, &mut raw, &DeviceQuery::Hamming(&code), k);
    }

    #[test]
    fn optimized_timing_is_bitwise_deterministic(
        seed in 1u64..1000,
        use_hw in any::<bool>(),
    ) {
        let mut a = device(true, use_hw, true, seed, false);
        let mut b = device(true, use_hw, true, seed, false);
        let q = query_vec(seed, 0);
        let ra = a.query(&DeviceQuery::Euclidean(&q), 8).expect("runs");
        let rb = b.query(&DeviceQuery::Euclidean(&q), 8).expect("runs");
        prop_assert_eq!(ra.timing.seconds.to_bits(), rb.timing.seconds.to_bits());
        prop_assert_eq!(ra.timing.energy_mj.to_bits(), rb.timing.energy_mj.to_bits());
    }
}

// ---------------------------------------------------------------------------
// Static cost model vs the cycle simulator, through the whole device.
// ---------------------------------------------------------------------------

/// Cost parameters matching what `SsamDevice` hands the telemetry layer.
fn device_params(dev_cfg: &SsamConfig, pus: usize) -> CostParams {
    CostParams {
        freq_hz: dev_cfg.freq_hz,
        vault_bandwidth: dev_cfg.hmc.vault_bandwidth,
        pus,
        ..CostParams::default()
    }
}

/// Checks one linear-scan query against `analysis::cost::estimate` on
/// every vault: exact when `expect_exact`, containment otherwise, and
/// roofline-classification agreement whenever the model commits.
fn assert_cost_matches(
    dev: &mut SsamDevice,
    q: &DeviceQuery<'_>,
    kernel: &ssam::core::kernels::Kernel,
    expect_exact: bool,
) {
    let cfg = SsamConfig::default();
    let r = dev.query(q, 8).expect("query runs");
    let bytes_per_vec = (kernel.layout.vec_words * 4) as u64;
    let mut accounts = Vec::new();
    let mut est_seconds = Vec::new();
    for (v, stats) in r.vault_stats.iter().enumerate() {
        // The linear kernels stream each database vector exactly once, so
        // the shard size is recoverable from the traffic counter.
        assert_eq!(stats.dram.bytes_read % bytes_per_vec, 0);
        let n = stats.dram.bytes_read / bytes_per_vec;
        let params = device_params(&cfg, r.timing.pus_per_vault);
        let e = ssam::core::analysis::cost::estimate_with(
            &kernel.program,
            kernel.layout.vl,
            n,
            &params,
        );
        if expect_exact {
            assert!(
                e.exact,
                "{} vault {v}: expected exact estimate, got {e:?}",
                kernel.name
            );
            assert_eq!(
                e.instructions.min, stats.instructions,
                "{} vault {v}",
                kernel.name
            );
            assert_eq!(e.cycles.min, stats.cycles, "{} vault {v}", kernel.name);
            assert_eq!(
                e.dram_bytes.min, stats.dram.bytes_read,
                "{} vault {v}",
                kernel.name
            );
        } else {
            assert!(
                e.instructions.min <= stats.instructions,
                "{} vault {v}",
                kernel.name
            );
            assert!(e.cycles.min <= stats.cycles, "{} vault {v}", kernel.name);
            assert!(
                e.dram_bytes.min <= stats.dram.bytes_read,
                "{} vault {v}",
                kernel.name
            );
            if let Some(max) = e.instructions.max {
                assert!(max >= stats.instructions, "{} vault {v}", kernel.name);
            }
            if let Some(max) = e.cycles.max {
                assert!(max >= stats.cycles, "{} vault {v}", kernel.name);
            }
            if let Some(max) = e.dram_bytes.max {
                assert!(max >= stats.dram.bytes_read, "{} vault {v}", kernel.name);
            }
        }
        let account = VaultAccount::from_stats(
            v,
            stats,
            cfg.hmc.vault_bandwidth,
            cfg.freq_hz,
            r.timing.pus_per_vault,
        );
        match e.bound {
            Some(BoundClass::Compute) => assert!(
                account.compute_bound,
                "{} vault {v}: model says compute-bound, telemetry disagrees",
                kernel.name
            ),
            Some(BoundClass::Memory) => assert!(
                !account.compute_bound,
                "{} vault {v}: model says memory-bound, telemetry disagrees",
                kernel.name
            ),
            None => {}
        }
        est_seconds.push(e.comp_seconds.max(e.mem_seconds));
        accounts.push(account);
    }
    // When every vault is exact, the statically-predicted critical vault
    // must be the one telemetry picks from the measured accounts.
    if expect_exact {
        let (critical, _, _) = critical_path(&accounts).expect("vaults exist");
        let predicted = est_seconds
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("vaults exist");
        // Ties resolve to the first index in both reductions.
        assert_eq!(
            est_seconds[critical], est_seconds[predicted],
            "{}: static critical path diverged from telemetry",
            kernel.name
        );
    }
}

#[test]
fn cost_model_is_exact_for_linear_kernels_on_every_vault() {
    let cfg = SsamConfig::default();
    let mut dev = device(true, true, true, 7, false);
    let q = query_vec(7, 0);
    assert_cost_matches(
        &mut dev,
        &DeviceQuery::Euclidean(&q),
        &linear::euclidean(DIMS, cfg.vector_length),
        true,
    );
    assert_cost_matches(
        &mut dev,
        &DeviceQuery::Manhattan(&q),
        &linear::manhattan(DIMS, cfg.vector_length),
        true,
    );
}

#[test]
fn cost_model_is_exact_for_hamming_on_every_vault() {
    let cfg = SsamConfig::default();
    let mut dev = device(true, true, false, 7, false);
    let code: Vec<u32> = (0..CODE_WORDS as u32)
        .map(|j| (7u32 ^ (j * 7)).wrapping_mul(0x9E37_79B9))
        .collect();
    assert_cost_matches(
        &mut dev,
        &DeviceQuery::Hamming(&code),
        &linear::hamming(CODE_WORDS, cfg.vector_length),
        true,
    );
}

#[test]
fn cost_model_brackets_the_cosine_kernel() {
    let cfg = SsamConfig::default();
    let mut dev = device(true, true, true, 7, false);
    let q = query_vec(7, 2);
    assert_cost_matches(
        &mut dev,
        &DeviceQuery::Cosine(&q),
        &linear::cosine(DIMS, cfg.vector_length),
        false,
    );
}

#[test]
fn cost_model_brackets_the_software_queue_kernels() {
    let cfg = SsamConfig::default();
    let mut dev = device(true, false, true, 7, false);
    let q = query_vec(7, 1);
    assert_cost_matches(
        &mut dev,
        &DeviceQuery::Euclidean(&q),
        &linear::euclidean_swqueue(DIMS, cfg.vector_length, 8),
        false,
    );
}

#[test]
fn cost_estimates_scale_linearly_in_n_for_exact_kernels() {
    let k = linear::euclidean(DIMS, 4);
    let e1 = estimate(&k, 4, 100);
    let e2 = estimate(&k, 4, 200);
    assert!(e1.exact && e2.exact);
    // Doubling the shard doubles traffic exactly; cycles/instructions
    // double up to the constant preamble/halt term.
    assert_eq!(e2.dram_bytes.min, 2 * e1.dram_bytes.min);
    let fixed = 2 * e1.cycles.min - e2.cycles.min;
    assert_eq!(estimate(&k, 4, 400).cycles.min, 2 * e2.cycles.min - fixed);
}
