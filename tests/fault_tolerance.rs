//! Seeded chaos testing for the fault-injection framework.
//!
//! Three properties must hold under *any* fault plan:
//!
//! 1. **Exactness over the covered fraction** — the neighbors a faulted
//!    query returns are exactly the true top-k over the vectors that
//!    were actually scanned (the shards of non-lost vaults), under the
//!    device's own distance model and deterministic `(dist, id)` tie
//!    order. Faults may shrink the candidate pool; they may never
//!    corrupt the ranking of what survives.
//! 2. **Honest accounting** — every per-query `FaultRecord` closes
//!    (injected = corrected + retried + surfaced), the reported
//!    coverage equals the surviving-shard fraction, and the attached
//!    telemetry sink cross-checks it all via `verify_record`.
//! 3. **Zero-fault transparency** — attaching a plan that injects
//!    nothing is bit-identical to running with no plan at all: same
//!    neighbor ids, bitwise-equal distances and modeled seconds.
//!
//! The sharded-store tests at the end carry (2) up to module outages:
//! replica failover, lost shards, and the degrade-and-probe health cycle.

use std::sync::Arc;

use proptest::prelude::*;

use ssam::core::device::{DeviceMetric, DeviceQuery, SsamConfig, SsamDevice};
use ssam::core::telemetry::Telemetry;
use ssam::faults::{FaultPlan, FaultRecord, RecoveryPolicy};
use ssam::knn::VectorStore;
use ssam::store::{ShardedStore, ShardedStoreConfig, StoreConfig};

const DIMS: usize = 8;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

fn float_vec(x: &mut u64) -> Vec<f32> {
    (0..DIMS)
        .map(|_| ((lcg(x) >> 40) as i32 % 1000) as f32 / 500.0)
        .collect()
}

fn store(n: usize, seed: u64) -> VectorStore {
    let mut s = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        s.push(&float_vec(&mut x));
    }
    s
}

fn device(store: &VectorStore) -> SsamDevice {
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_vectors(store);
    dev
}

/// The true top-k over an arbitrary covered id set, under the device's
/// own distance semantics: reload exactly the covered vectors into a
/// fresh (fault-free) device and map its ids back. Per-vector
/// quantization does not depend on shard placement, and the id remap is
/// monotone, so the `(dist, id)` merge order is preserved exactly.
fn reference_topk(
    full: &VectorStore,
    covered: &[u32],
    queries: &[Vec<f32>],
    k: usize,
) -> Vec<Vec<(u32, f32)>> {
    let mut sub = VectorStore::with_capacity(DIMS, covered.len());
    for &id in covered {
        sub.push(full.get(id));
    }
    let mut dev = device(&sub);
    let qs: Vec<DeviceQuery<'_>> = queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
    let batch = dev.query_batch(&qs, k).expect("reference batch");
    batch
        .results
        .iter()
        .map(|r| {
            r.neighbors
                .iter()
                .map(|n| (covered[n.id as usize], n.dist))
                .collect()
        })
        .collect()
}

fn chaos_plan(seed: u64, knobs: (f64, f64, f64, f64)) -> FaultPlan {
    let (bit_flip, crc, vault_out, straggle) = knobs;
    FaultPlan {
        seed,
        bit_flip_rate: bit_flip,
        double_bit_fraction: 0.3,
        crc_corruption_rate: crc,
        vault_outage_rate: vault_out,
        straggler_rate: straggle,
        straggler_slowdown: 3.0,
        ..FaultPlan::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under an arbitrary seeded fault plan, every query's neighbors are
    /// exactly the true top-k over its covered fraction, its coverage is
    /// the honest surviving-shard ratio, its fault record closes, and
    /// the telemetry sink's `verify_record` finds nothing to flag.
    #[test]
    fn chaos_results_are_exact_over_covered_fraction(
        seed in any::<u64>(),
        data_seed in any::<u64>(),
        bit_flip in 0.0f64..1.5,
        crc in 0.0f64..0.4,
        vault_out in 0.0f64..0.15,
        straggle in 0.0f64..0.3,
        nq in 1usize..4,
    ) {
        let n = 192;
        let k = 5;
        let full = store(n, data_seed);
        let mut dev = device(&full);
        let sink = Telemetry::default();
        dev.attach_telemetry(&sink);
        dev.set_fault_plan(Some(Arc::new(chaos_plan(
            seed,
            (bit_flip, crc, vault_out, straggle),
        ))));

        let mut x = seed ^ 0x9e3779b97f4a7c15;
        let queries: Vec<Vec<f32>> = (0..nq).map(|_| float_vec(&mut x)).collect();
        let qs: Vec<DeviceQuery<'_>> =
            queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        let spans = dev.shard_spans();
        let batch = dev.query_batch(&qs, k).expect("chaos batch");

        for (qi, r) in batch.results.iter().enumerate() {
            // Accounting closes, per query and at batch scope.
            r.faults.check_closure().expect("per-query closure");

            // Coverage is the honest surviving-shard fraction.
            let lost: Vec<u32> = r.faults.lost_units.clone();
            let covered_vectors: usize = spans
                .iter()
                .enumerate()
                .filter(|(v, _)| !lost.contains(&(*v as u32)))
                .map(|(_, (_, len))| *len)
                .sum();
            prop_assert_eq!(r.faults.covered_vectors, covered_vectors as u64);
            prop_assert_eq!(r.faults.total_vectors, n as u64);
            prop_assert!((r.coverage() - covered_vectors as f64 / n as f64).abs() < 1e-12);

            // Returned neighbors are exactly the true top-k over the
            // covered ids (skip the degenerate all-lost case).
            if covered_vectors == 0 {
                prop_assert!(r.neighbors.is_empty());
                continue;
            }
            let covered_ids: Vec<u32> = spans
                .iter()
                .enumerate()
                .filter(|(v, _)| !lost.contains(&(*v as u32)))
                .flat_map(|(_, (first, len))| *first..*first + *len as u32)
                .collect();
            let expect =
                reference_topk(&full, &covered_ids, &queries[qi..qi + 1], k);
            let got: Vec<(u32, f32)> =
                r.neighbors.iter().map(|nb| (nb.id, nb.dist)).collect();
            prop_assert_eq!(&got, &expect[0], "query {} (lost vaults {:?})", qi, lost);
        }
        batch.faults.check_closure().expect("batch closure");
        prop_assert!(
            sink.violations().is_empty(),
            "telemetry violations under chaos: {:?}",
            sink.violations()
        );
    }

    /// A plan that injects nothing is indistinguishable — bitwise — from
    /// no plan at all. Neighbors, distances, and modeled seconds must
    /// all be identical; the fault machinery may not perturb a healthy
    /// run by even an ulp.
    #[test]
    fn zero_fault_plan_is_bit_identical(
        data_seed in any::<u64>(),
        seed in any::<u64>(),
        nq in 1usize..4,
    ) {
        let full = store(128, data_seed);
        let mut plain = device(&full);
        let mut gated = device(&full);
        gated.set_fault_plan(Some(Arc::new(FaultPlan {
            seed,
            ..FaultPlan::default()
        })));

        let mut x = seed | 1;
        let queries: Vec<Vec<f32>> = (0..nq).map(|_| float_vec(&mut x)).collect();
        let qs: Vec<DeviceQuery<'_>> =
            queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        let a = plain.query_batch(&qs, 4).expect("plain");
        let b = gated.query_batch(&qs, 4).expect("gated");

        prop_assert_eq!(a.timing.seconds.to_bits(), b.timing.seconds.to_bits());
        prop_assert!(b.faults.is_trivial());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            prop_assert_eq!(ra.timing.seconds.to_bits(), rb.timing.seconds.to_bits());
            prop_assert_eq!(ra.neighbors.len(), rb.neighbors.len());
            for (na, nb) in ra.neighbors.iter().zip(&rb.neighbors) {
                prop_assert_eq!(na.id, nb.id);
                prop_assert_eq!(na.dist.to_bits(), nb.dist.to_bits());
            }
            prop_assert!(rb.faults.is_trivial());
            prop_assert!((rb.coverage() - 1.0).abs() == 0.0);
        }
    }
}

fn sharded(shards: usize, replicas: usize, full: &VectorStore) -> ShardedStore {
    let mut config = StoreConfig::new(DIMS);
    config.memtable_capacity = 16;
    let mut s = ShardedStore::create(ShardedStoreConfig::new(shards, replicas, config));
    for uid in 0..full.len() as u32 {
        s.insert(uid, full.get(uid)).expect("fault-free ingest");
    }
    s
}

fn read(s: &mut ShardedStore, x: &mut u64) -> FaultRecord {
    let q = float_vec(x);
    s.query(&q, DeviceMetric::Euclidean, 4)
        .expect("sharded read")
        .faults
}

/// Sharded read chaos: module outages fail a shard over to its standby
/// replica (or lose the shard's coverage), every read's record closes,
/// outage retries show up as recovery time, and the telemetry sink stays
/// clean.
#[test]
fn sharded_read_chaos_accounting_closes() {
    let full = store(128, 11);
    let mut s = sharded(4, 2, &full);
    let sink = Telemetry::default();
    s.attach_telemetry(&sink);
    let plan = FaultPlan {
        seed: 17,
        module_outage_rate: 0.35,
        bit_flip_rate: 0.5,
        crc_corruption_rate: 0.1,
        ..FaultPlan::default()
    };
    let (policy, link_penalty) = (plan.policy, plan.link_retry_penalty);
    s.set_fault_plan(Some(Arc::new(plan)));

    let mut x = 23u64;
    let mut saw_failover = false;
    let mut saw_shard_loss = false;
    for round in 0..48 {
        let faults = read(&mut s, &mut x);
        faults.check_closure().expect("sharded read closure");
        if faults.module_outages > 0 {
            // A sampled outage is always retried at least once, so at
            // least one backoff step sits on top of the time the link
            // retransmissions charged.
            let backoff = faults.recovery_seconds - faults.crc_corruptions as f64 * link_penalty;
            assert!(
                backoff > 0.5 * policy.backoff_base,
                "module outage without backoff charged (round {round})"
            );
        }
        saw_failover |= faults.failed_over > 0;
        if faults.lost_module > 0 {
            saw_shard_loss = true;
            assert!(faults.coverage() < 1.0);
        }
    }
    assert!(
        saw_failover && saw_shard_loss,
        "chaos rates never produced both a failover and a lost shard in 48 reads \
         (failover {saw_failover}, loss {saw_shard_loss}) — plan too weak"
    );
    assert!(
        sink.violations().is_empty(),
        "sharded telemetry violations: {:?}",
        sink.violations()
    );
}

/// A downed replica is degraded after `degrade_after` missed reads, is
/// routed around without being sampled, and is probed back to health.
#[test]
fn sharded_replica_degrades_and_is_probed_back() {
    let full = store(64, 5);
    let mut s = sharded(2, 2, &full);
    let policy = RecoveryPolicy::default();
    let mut x = 31u64;

    // Shard 0's primary (module 0) is down: each read samples it, misses,
    // and fails the shard over to its replica at full coverage.
    s.kill_module(0);
    for _ in 0..policy.degrade_after {
        let faults = read(&mut s, &mut x);
        assert_eq!(faults.module_outages, 1);
        assert_eq!(faults.failed_over, 1);
        assert_eq!(faults.coverage(), 1.0);
    }
    assert_eq!(s.degraded_modules(), vec![true, false, false, false]);

    // Revived but still degraded: the next `probe_interval - 1` reads
    // route around module 0 without touching it.
    s.revive_module(0);
    for _ in 1..policy.probe_interval {
        let faults = read(&mut s, &mut x);
        assert_eq!(faults.module_outages, 0);
        assert_eq!(faults.failed_over, 1);
    }
    assert_eq!(s.degraded_modules(), vec![true, false, false, false]);

    // The probe reaches the primary again and clears its health.
    let faults = read(&mut s, &mut x);
    assert_eq!(faults.module_outages, 0);
    assert_eq!(faults.failed_over, 0);
    assert_eq!(s.degraded_modules(), vec![false; 4]);
}
