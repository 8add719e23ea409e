//! Differential property: scatter-gather over shards answers queries
//! exactly as a single-module store holding the same live set.
//!
//! After any interleaving of inserts, deletes, seals, and compactions,
//! [`ssam::store::ShardedStore::query`] must return the same neighbors —
//! id for id, distance bit for bit — as a fresh single-module
//! [`ssam::store::Store`] fed the identical op stream. This pins the
//! shard placement, the per-shard top-k gather, and the global
//! `(distance, id)` merge at once: every top-k that straddles a shard
//! boundary must interleave exactly as the unsharded scan would, and a
//! downed replica must change *nothing* about the answer as long as a
//! shard-mate survives.
//!
//! A second property pins the degenerate 1 shard × 1 replica topology —
//! the backend of every single-module server — against a plain
//! [`ssam::store::Store`]: same answers, same device accounting, same
//! fault record, and the same seal/WAL-length acks.
//!
//! Values are drawn from (-1, 1) for the same fixed-point-ordering
//! precondition the other differential suites rely on.

use proptest::prelude::*;

use ssam::core::device::DeviceMetric;
use ssam::store::{ShardedStore, ShardedStoreConfig, Store, StoreConfig};

const DIMS: usize = 6;
const UIDS: u32 = 40;
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

/// Tiny memtable and fanout so short op sequences still cross every
/// lifecycle edge on every module.
fn store_config() -> StoreConfig {
    let mut c = StoreConfig::new(DIMS);
    c.memtable_capacity = 4;
    c.fanout = 2;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded store and a single-module twin fed the same op
    /// stream answer every query bit-identically — healthy, and again
    /// with one replica module down (reads fail over to shard-mates).
    #[test]
    fn sharded_query_is_bit_identical_to_single_module(
        ops in prop::collection::vec(arb_op(), 1..48),
        shards in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut sharded = ShardedStore::create(ShardedStoreConfig::new(
            shards,
            REPLICAS,
            store_config(),
        ));
        let mut single = Store::create(store_config());
        for op in &ops {
            match op {
                Op::Insert(uid, v) => {
                    sharded.insert(*uid, v).expect("sharded insert");
                    single.insert(*uid, v).expect("single insert");
                }
                Op::Delete(uid) => {
                    sharded.delete(*uid).expect("sharded delete");
                    single.delete(*uid).expect("single delete");
                }
                Op::Seal => {
                    sharded.seal_all();
                    single.seal();
                }
                Op::Compact => {
                    sharded.compact_step();
                    single.compact_step();
                }
            }
        }
        prop_assert_eq!(sharded.live_len(), single.live_set().len());

        // k values chosen so the top-k regularly spans several shards:
        // k = live_len ranks the entire live set, so the merged order
        // must interleave across every shard boundary.
        let live = sharded.live_len();
        let ks = [1usize, 3, live.max(1), 2 * live.max(1)];
        let check = |sharded: &mut ShardedStore, single: &mut Store| {
            for qi in 0..3u32 {
                let q: Vec<f32> = (0..DIMS)
                    .map(|d| (((qi * 11 + d as u32 * 5) % 17) as f32 - 8.0) / 9.0)
                    .collect();
                for metric in [DeviceMetric::Euclidean, DeviceMetric::Manhattan] {
                    for &k in &ks {
                        let a = sharded.query(&q, metric, k).expect("sharded query");
                        let b = single.query(&q, metric, k).expect("single query");
                        assert_eq!(a.neighbors.len(), b.neighbors.len());
                        for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
                            assert_eq!(x.id, y.id);
                            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                        }
                        // Replication means no coverage is ever lost.
                        assert_eq!(a.faults.covered_vectors, a.faults.total_vectors);
                        assert!(a.faults.lost_units.is_empty());
                    }
                }
            }
        };
        check(&mut sharded, &mut single);

        // One replica down: reads route to its shard-mate; the merged
        // answer must not move by a bit.
        sharded.kill_module((seed as usize) % (shards * REPLICAS));
        check(&mut sharded, &mut single);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A 1 × 1 sharded store is a `Store` with a router in front: fed
    /// the same op stream, every ack agrees on `sealed` and `wal_len`
    /// (its `seq` only has to keep increasing — the sharded store numbers
    /// data records alone), and after every op a query agrees on
    /// neighbors bit for bit and on the whole device/fault account.
    #[test]
    fn one_by_one_topology_is_bit_identical_to_store(
        ops in prop::collection::vec(arb_op(), 1..48),
        qseed in 0u32..17,
    ) {
        let mut sharded = ShardedStore::create(ShardedStoreConfig::new(1, 1, store_config()));
        let mut single = Store::create(store_config());
        let mut last_seq = 0u64;
        for op in &ops {
            let acks = match op {
                Op::Insert(uid, v) => Some((
                    sharded.insert(*uid, v).expect("sharded insert"),
                    single.insert(*uid, v).expect("single insert"),
                )),
                Op::Delete(uid) => Some((
                    sharded.delete(*uid).expect("sharded delete"),
                    single.delete(*uid).expect("single delete"),
                )),
                Op::Seal => {
                    sharded.seal_all();
                    single.seal();
                    None
                }
                Op::Compact => {
                    sharded.compact_step();
                    single.compact_step();
                    None
                }
            };
            if let Some((a, b)) = acks {
                prop_assert_eq!(a.sealed, b.sealed);
                prop_assert_eq!(a.wal_len, b.wal_len);
                prop_assert!(a.seq > last_seq, "seq {} after {}", a.seq, last_seq);
                last_seq = a.seq;
            }

            let live = sharded.live_len();
            prop_assert_eq!(live, single.live_len());
            let q: Vec<f32> = (0..DIMS)
                .map(|d| (((qseed * 11 + d as u32 * 5) % 17) as f32 - 8.0) / 9.0)
                .collect();
            for metric in [DeviceMetric::Euclidean, DeviceMetric::Manhattan] {
                // k = 2 × live ranks the whole live set plus slack.
                for k in [1usize, 2 * live.max(1)] {
                    let a = sharded.query(&q, metric, k).expect("sharded query");
                    let b = single.query(&q, metric, k).expect("single query");
                    prop_assert_eq!(a.neighbors.len(), b.neighbors.len());
                    for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
                        prop_assert_eq!(x.id, y.id);
                        prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    }
                    prop_assert_eq!(a.device_seconds.to_bits(), b.device_seconds.to_bits());
                    prop_assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
                    prop_assert_eq!(a.segments_scanned, b.segments_scanned);
                    prop_assert_eq!(a.suppressed, b.suppressed);
                    prop_assert_eq!(&a.faults, &b.faults);
                }
            }
        }
    }
}
