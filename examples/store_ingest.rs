//! Quickstart for the mutable dataset subsystem: ingest vectors while
//! serving queries, survive a crash, and recover bit-identically.
//!
//! The [`ssam::store::Store`] is a WAL-first LSM-lite vector store —
//! writes land in an append-only log and a host-scanned memtable; full
//! memtables seal into immutable segments staged onto vault shards;
//! background compaction folds segments down the levels while queries
//! keep serving a consistent view (memtable ∪ segments, tombstones
//! suppressed, latest version wins).
//!
//! ```text
//! cargo run --release --example store_ingest
//! ```

use std::time::Duration;

use ssam::core::device::DeviceMetric;
use ssam::core::telemetry::Telemetry;
use ssam::serve::{OwnedQuery, Request, ServeConfig, Server};
use ssam::store::{ShardedStore, ShardedStoreConfig, Store, StoreConfig};

fn vector(i: u32, dims: usize) -> Vec<f32> {
    (0..dims)
        .map(|d| ((i as f32 * 0.31) + d as f32 * 0.17).sin())
        .collect()
}

fn main() {
    let dims = 16;
    let mut config = StoreConfig::new(dims);
    config.memtable_capacity = 64; // seal every 64 inserts
    config.fanout = 4; // compact a level once it holds > 4 segments
    let sink = Telemetry::new();

    // ---- Offline ingest: WAL-first writes, auto-sealing memtable.
    let mut store = Store::create(config.clone());
    store.attach_telemetry(&sink);
    for i in 0..500 {
        store.insert(i, &vector(i, dims)).expect("insert");
    }
    for i in (0..500).step_by(7) {
        store.delete(i).expect("delete"); // tombstone, purged by compaction
    }
    while store.compact_step() {} // drain compaction debt
    let stats = store.stats();
    println!(
        "ingested 500, deleted {}: {} live across {} segments on {} levels \
         ({} seals, {} compactions, {} WAL records)",
        500 / 7 + 1,
        store.live_len(),
        stats.segments,
        stats.levels,
        stats.seals,
        stats.compactions,
        stats.wal_records,
    );

    // ---- Query the mutable store directly (Euclidean or Manhattan).
    let r = store
        .query(&vector(123, dims), DeviceMetric::Euclidean, 3)
        .expect("query");
    println!(
        "nearest to vector 123: {:?} ({} segments + {} memtable vectors scanned)",
        r.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
        r.segments_scanned,
        r.memtable_scanned,
    );

    // ---- Crash and recover: the WAL is the only durable state. A torn
    // tail (here: half the log) truncates to the last whole record and
    // replays to exactly the state those records describe.
    let wal = store.wal_bytes().to_vec();
    let (recovered, recovery) = Store::open(config.clone(), &wal).expect("recover");
    assert_eq!(recovered.snapshot(), store.snapshot());
    println!(
        "full recovery: {} records replayed, state bit-identical",
        recovery.replayed
    );
    let (partial, recovery) = Store::open(config.clone(), &wal[..wal.len() / 2]).expect("recover");
    println!(
        "torn-tail recovery at half the log: {} records replayed, {} bytes \
         truncated, {} live",
        recovery.replayed,
        recovery.truncated,
        partial.live_len(),
    );

    // ---- Serve it online: inserts/deletes/queries through the runtime,
    // with a maintenance thread compacting in the background. The server
    // takes a sharded store; one module is the 1 x 1 topology, opened
    // here from the store's WAL.
    let (mut served, _) =
        ShardedStore::open(ShardedStoreConfig::new(1, 1, config), &[wal]).expect("open 1 x 1");
    served.attach_telemetry(&sink);
    let server = Server::start_sharded_store(
        served,
        ServeConfig {
            workers: 2,
            max_linger: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    for i in 500..600 {
        handle
            .insert_routed(i, &vector(i, dims))
            .expect("online insert");
    }
    handle.delete_routed(123).expect("online delete");
    let resp = handle
        .query(Request::new(OwnedQuery::Euclidean(vector(123, dims)), 3))
        .expect("online query");
    assert!(
        resp.neighbors.iter().all(|n| n.id != 123),
        "tombstone hides 123"
    );
    println!(
        "online: neighbors of deleted 123 -> {:?}",
        resp.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
    );
    let stats = server.shutdown();
    println!(
        "served {} queries, {} inserts, {} deletes; {} telemetry records, {} violations",
        stats.served,
        stats.inserts,
        stats.deletes,
        sink.len(),
        sink.violations().len(),
    );
}
