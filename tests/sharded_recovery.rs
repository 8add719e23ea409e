//! Sharded crash-recovery properties: multi-WAL replay with per-module
//! torn tails and a module outage mid-stream restores a state that is
//! deterministic, idempotent, and per-shard prefix-consistent with the
//! acknowledged write history.
//!
//! The guarantees, each asserted at `to_bits` level:
//!
//! 1. **Full-image recovery**: [`ssam::store::ShardedStore::open`] over
//!    every module's complete WAL reproduces the acknowledged live set
//!    exactly — even when a replica is still missing writes it never saw
//!    (the anti-entropy pass merges them from its shard-mates).
//! 2. **Torn-tail prefix consistency**: with independent per-module cut
//!    points from [`ssam::faults::CrashSpec::torn_tail_for`], each
//!    shard's recovered live set equals the acknowledged state of that
//!    shard after *some* prefix of its write sequence — recovery never
//!    invents, reorders, or partially applies a record, and no shard's
//!    records bleed into another's.
//! 3. **Determinism + idempotence**: opening the same images twice gives
//!    bit-identical stores; re-opening a recovered store's own WALs is a
//!    fixed point with zero catch-up records.
//! 4. **Post-failover exactness**: with one module killed after
//!    recovery, queries remain bit-identical to a fresh single-module
//!    store over the same live set, at full coverage, with the ledger
//!    closed and zero telemetry violations.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ssam::core::device::DeviceMetric;
use ssam::core::telemetry::Telemetry;
use ssam::faults::CrashSpec;
use ssam::store::{ShardedStore, ShardedStoreConfig, Store, StoreConfig};

const DIMS: usize = 4;
const UIDS: u32 = 18;
const SHARDS: usize = 3;
const REPLICAS: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Vec<f32>),
    Delete(u32),
    Seal,
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest has no weighted `prop_oneof!`; duplicated
    // arms bias the mix toward inserts.
    let insert = || {
        (0u32..UIDS, prop::collection::vec(-1.0f32..1.0, DIMS))
            .prop_map(|(uid, v)| Op::Insert(uid, v))
    };
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        (0u32..UIDS).prop_map(Op::Delete),
        (0u32..UIDS).prop_map(Op::Delete),
        Just(Op::Seal),
        Just(Op::Compact),
    ]
}

fn config() -> ShardedStoreConfig {
    let mut store = StoreConfig::new(DIMS);
    store.memtable_capacity = 3;
    store.fanout = 2;
    ShardedStoreConfig::new(SHARDS, REPLICAS, store)
}

/// A live set as a comparable image: uid → f32 bit patterns.
type LiveModel = BTreeMap<u32, Vec<u32>>;

fn live_bits(store: &ShardedStore) -> LiveModel {
    store
        .live_set()
        .into_iter()
        .map(|(uid, v)| (uid, v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

fn shard_slice(model: &LiveModel, shard: usize) -> LiveModel {
    model
        .iter()
        .filter(|(uid, _)| (**uid as usize) % SHARDS == shard)
        .map(|(uid, bits)| (*uid, bits.clone()))
        .collect()
}

/// Asserts two query results agree on ids and distance bit patterns.
fn assert_bit_identical(a: &[ssam::knn::Neighbor], b: &[ssam::knn::Neighbor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.dist.to_bits(), y.dist.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random op interleavings with a seeded module outage mid-stream,
    /// then per-module torn-tail crashes: recovery must be
    /// deterministic, idempotent, per-shard prefix-consistent, and the
    /// recovered store must answer queries exactly over the surviving
    /// replicas.
    #[test]
    fn sharded_torn_recovery_is_prefix_consistent_and_idempotent(
        ops in prop::collection::vec(arb_op(), 4..32),
        seed in any::<u64>(),
    ) {
        let mut st = ShardedStore::create(config());
        // Per-shard acknowledged history: shard_models[s][j] is shard
        // s's live set after its first j data records. Each replica's
        // WAL holds its shard's data records in ascending sequence
        // order (catch-up replays preserve it), so any torn prefix of
        // any replica — and the union across replicas — lands exactly
        // on one of these models.
        let mut model: Vec<LiveModel> = vec![BTreeMap::new(); SHARDS];
        let mut shard_models: Vec<Vec<LiveModel>> =
            (0..SHARDS).map(|s| vec![model[s].clone()]).collect();

        // Outage drill: one module down for the middle third of the
        // stream. Replication must keep every write acknowledged.
        let victim = (seed as usize) % (SHARDS * REPLICAS);
        let kill_at = ops.len() / 3;
        let revive_at = 2 * ops.len() / 3;

        for (i, op) in ops.iter().enumerate() {
            if i == kill_at {
                st.kill_module(victim);
            }
            if i == revive_at {
                st.revive_module(victim);
            }
            match op {
                Op::Insert(uid, v) => {
                    let ack = st.insert(*uid, v).expect("replicated insert");
                    prop_assert_eq!(ack.shard, (*uid as usize) % SHARDS);
                    model[ack.shard]
                        .insert(*uid, v.iter().map(|x| x.to_bits()).collect());
                    shard_models[ack.shard].push(model[ack.shard].clone());
                }
                Op::Delete(uid) => {
                    let ack = st.delete(*uid).expect("replicated delete");
                    model[ack.shard].remove(uid);
                    shard_models[ack.shard].push(model[ack.shard].clone());
                }
                Op::Seal => {
                    st.seal_all();
                }
                Op::Compact => {
                    st.compact_step();
                }
            }
        }
        let full_model: LiveModel = model
            .iter()
            .flat_map(|m| m.iter().map(|(u, b)| (*u, b.clone())))
            .collect();

        // Full-image recovery merges the diverged replica WALs back to
        // the acknowledged state — even though the victim module may
        // still be missing writes it never saw.
        let pending = st.pending_total() as u64;
        let images = st.wal_images();
        let (full, rec) = ShardedStore::open(config(), &images).expect("full recovery");
        prop_assert_eq!(live_bits(&full), full_model.clone());
        prop_assert_eq!(rec.total.truncated, 0);
        prop_assert!(
            rec.catch_up_records >= pending,
            "anti-entropy must replay at least the still-pending writes"
        );

        // Torn tails: independent per-module cut points.
        let crash = CrashSpec::new(seed);
        for event in 0..4u64 {
            let images = st.crash_images(&crash, event);
            let (recovered, _) =
                ShardedStore::open(config(), &images).expect("torn recovery");

            // Determinism: the same images recover bit-identically.
            let (twin, _) =
                ShardedStore::open(config(), &images).expect("twin recovery");
            prop_assert_eq!(twin.snapshot(), recovered.snapshot());

            // Idempotence: a recovered store's own WALs are a fixed
            // point — fully caught up, nothing truncated.
            let (again, rec2) = ShardedStore::open(config(), &recovered.wal_images())
                .expect("re-recovery");
            prop_assert_eq!(rec2.catch_up_records, 0);
            prop_assert_eq!(rec2.total.truncated, 0);
            prop_assert_eq!(again.snapshot(), recovered.snapshot());

            // Per-shard prefix consistency.
            let got = live_bits(&recovered);
            for (shard, models) in shard_models.iter().enumerate() {
                let got_shard = shard_slice(&got, shard);
                prop_assert!(
                    models.contains(&got_shard),
                    "shard {} recovered to a live set that was never \
                     acknowledged (event {})",
                    shard,
                    event
                );
            }
        }
    }

    /// A recovered sharded store with one module killed still answers
    /// bit-identically to a fresh single-module store over the same
    /// live set, at full coverage, with a closed ledger and clean
    /// telemetry.
    #[test]
    fn post_failover_queries_stay_exact_over_surviving_replicas(
        ops in prop::collection::vec(arb_op(), 4..24),
        seed in any::<u64>(),
    ) {
        let mut st = ShardedStore::create(config());
        for op in &ops {
            match op {
                Op::Insert(uid, v) => {
                    st.insert(*uid, v).expect("insert");
                }
                Op::Delete(uid) => {
                    st.delete(*uid).expect("delete");
                }
                Op::Seal => {
                    st.seal_all();
                }
                Op::Compact => {
                    st.compact_step();
                }
            }
        }
        let images = st.crash_images(&CrashSpec::new(seed), 1);
        let (mut recovered, _) =
            ShardedStore::open(config(), &images).expect("recovery");
        let sink = Telemetry::new();
        recovered.attach_telemetry(&sink);

        // Reference: a fresh single-module store over the recovered
        // live set.
        let mut single = Store::create(config().store);
        for (uid, v) in recovered.live_set() {
            single.insert(uid, &v).expect("reference insert");
        }

        recovered.kill_module((seed as usize) % (SHARDS * REPLICAS));
        for qi in 0..3u32 {
            let q: Vec<f32> = (0..DIMS)
                .map(|d| ((qi * 5 + d as u32) as f32 * 0.37).sin())
                .collect();
            for k in [1usize, 4, 16] {
                let a = recovered
                    .query(&q, DeviceMetric::Euclidean, k)
                    .expect("sharded query");
                let b = single
                    .query(&q, DeviceMetric::Euclidean, k)
                    .expect("reference query");
                assert_bit_identical(&a.neighbors, &b.neighbors);
                // Full coverage: the surviving replica serves every
                // shard; nothing is lost, nothing phantom-lost.
                prop_assert!(a.faults.lost_units.is_empty());
                prop_assert_eq!(a.faults.covered_vectors, a.faults.total_vectors);
            }
        }
        recovered.record_account("post_failover_proptest");
        prop_assert!(sink.violations().is_empty());
        recovered
            .check_write_ledger()
            .unwrap_or_else(|e| panic!("write ledger does not close: {e}"));
    }
}

/// Satellite drill: kill a shard's primary mid-insert-stream via the
/// seeded outage hook, verify writes land on the replica's WAL with
/// `failed_over` acks, then revive, catch up, and prove recovery merges
/// both WALs deterministically with a closed fault ledger.
#[test]
fn failover_ingest_lands_on_replica_and_recovery_merges_wals() {
    let mut st = ShardedStore::create(config());
    let vec_for = |i: u32| -> Vec<f32> {
        (0..DIMS)
            .map(|d| (((i * 7 + d as u32 * 3) % 19) as f32 - 9.0) / 10.0)
            .collect()
    };
    for i in 0..12u32 {
        st.insert(i, &vec_for(i)).expect("preload");
    }
    assert_eq!(st.pending_total(), 0);

    // Kill shard 0's primary (module 0), then keep ingesting.
    st.kill_module(0);
    let mut shard0_writes = 0u64;
    for i in 12..36u32 {
        let ack = st.insert(i, &vec_for(i)).expect("insert during outage");
        if ack.shard == 0 {
            shard0_writes += 1;
            assert!(ack.failed_over, "shard 0's primary is down");
            assert_eq!(ack.replicas_acked, 1, "only the standby can ack");
        } else {
            assert!(!ack.failed_over);
            assert_eq!(ack.replicas_acked, REPLICAS);
        }
    }
    assert!(shard0_writes > 0, "the uid walk must hit shard 0");
    let ledger = st.write_ledger().clone();
    assert_eq!(ledger.failed_over_writes, shard0_writes);
    assert_eq!(ledger.refused_writes, 0);
    assert_eq!(st.pending_depths()[0], shard0_writes as usize);

    // Every write during the outage is acknowledged and queryable.
    assert_eq!(st.live_len(), 36);

    // Recovery from the diverged WALs — before any catch-up — merges
    // the primary's stale log with the standby's complete one, twice,
    // bit-identically.
    let images = st.wal_images();
    let (merged_a, rec_a) = ShardedStore::open(config(), &images).expect("merge A");
    let (merged_b, rec_b) = ShardedStore::open(config(), &images).expect("merge B");
    assert_eq!(merged_a.snapshot(), merged_b.snapshot());
    assert_eq!(rec_a, rec_b);
    assert_eq!(merged_a.live_len(), 36);
    assert!(
        rec_a.catch_up_records >= shard0_writes,
        "anti-entropy must replay the writes module 0 missed"
    );

    // Revive: the next write to shard 0 drains the pending queue onto
    // the primary's WAL before appending.
    st.revive_module(0);
    st.insert(36, &vec_for(36)).expect("post-revive insert");
    assert_eq!(st.pending_total(), 0);
    let ledger = st.write_ledger();
    assert_eq!(ledger.catch_up_records, shard0_writes);
    st.check_write_ledger()
        .expect("ledger closes after catch-up");

    // With both WALs caught up, recovery is a pure replay: no
    // anti-entropy needed, and the live set is intact.
    let (clean, rec) = ShardedStore::open(config(), &st.wal_images()).expect("clean open");
    assert_eq!(rec.catch_up_records, 0);
    assert_eq!(clean.live_len(), 37);
    assert_eq!(live_bits(&clean), live_bits(&st));
}
