//! Differential property: the mutable store answers queries exactly as
//! if the dataset had been loaded immutably.
//!
//! After any interleaving of inserts, deletes, seals, and compactions,
//! `Store::query()` must return the same neighbors — id for id, distance
//! bit for bit — as a fresh `SsamDevice` built from the store's live set
//! (latest version of every non-deleted uid). This pins the whole
//! visibility machinery at once: tombstone suppression across memtable
//! and segments, dedup-by-latest-version, the stale-aware per-segment
//! over-fetch, and the host memtable scan ranking identically to staged
//! vectors.
//!
//! Values are drawn from (-1, 1) so Q16.16 squared distances stay below
//! 2²⁴, the range where the raw fixed-point accumulator and its f32
//! image order identically — the same precondition the seed corpus's
//! differential tests rely on.

use proptest::prelude::*;

use ssam::core::device::{DeviceMetric, DeviceQuery, SsamConfig, SsamDevice};
use ssam::knn::VectorStore;
use ssam::store::{Store, StoreConfig};

const DIMS: usize = 6;
const UIDS: u32 = 40;

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
/// lifecycle edge: auto-seals, multi-level trees, mid-compaction reads.
fn small_store() -> Store {
    let mut c = StoreConfig::new(DIMS);
    c.memtable_capacity = 5;
    c.fanout = 2;
    Store::create(c)
}

/// An immutable device over exactly the live set; its neighbor ids are
/// positions in the uid-ascending `live` vector.
fn rebuild(live: &[(u32, Vec<f32>)]) -> SsamDevice {
    let mut flat = VectorStore::new(DIMS);
    for (_, v) in live {
        flat.push(v);
    }
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_vectors(&flat);
    dev
}

fn check_against_rebuild(store: &mut Store, q: &[f32], metric: DeviceMetric, k: usize) {
    let live = store.live_set();
    let got = store.query(q, metric, k).expect("store query");
    if live.is_empty() {
        prop_assert!(got.neighbors.is_empty());
        return;
    }
    let mut dev = rebuild(&live);
    let dq = match metric {
        DeviceMetric::Euclidean => DeviceQuery::Euclidean(q),
        DeviceMetric::Manhattan => DeviceQuery::Manhattan(q),
        _ => unreachable!("linear metrics only"),
    };
    let want = dev.query(&dq, k).expect("rebuild query");
    prop_assert_eq!(got.neighbors.len(), want.neighbors.len());
    for (g, w) in got.neighbors.iter().zip(&want.neighbors) {
        prop_assert_eq!(g.id, live[w.id as usize].0, "neighbor identity diverged");
        prop_assert_eq!(
            g.dist.to_bits(),
            w.dist.to_bits(),
            "distance diverged for uid {}",
            g.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The store is queried after *every* op, so the equivalence holds at
    /// each intermediate lifecycle state, not just the settled end state.
    #[test]
    fn store_query_equals_immutable_rebuild(
        ops in prop::collection::vec(arb_op(), 1..40),
        q in prop::collection::vec(-1.0f32..1.0, DIMS),
        k in 1usize..8,
    ) {
        let mut store = small_store();
        for op in &ops {
            match op {
                Op::Insert(uid, v) => { store.insert(*uid, v).expect("insert"); }
                Op::Delete(uid) => { store.delete(*uid).expect("delete"); }
                Op::Seal => { store.seal(); }
                Op::Compact => { store.compact_step(); }
            }
            check_against_rebuild(&mut store, &q, DeviceMetric::Euclidean, k);
        }
        // The settled end state must also agree under the other linear
        // metric (a distinct kernel on both sides).
        while store.compact_step() {}
        check_against_rebuild(&mut store, &q, DeviceMetric::Manhattan, k);
    }
}
