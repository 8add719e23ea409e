//! Serving a mutable store: online writes interleaved with queries,
//! consistency across seals and background compaction, and the framed
//! TCP write path.

use std::time::Duration;

use ssam_core::device::{DeviceMetric, SsamConfig, SsamDevice};
use ssam_knn::VectorStore;
use ssam_serve::net::{ClientError, NetClient, NetServer, RemoteError};
use ssam_serve::{OwnedQuery, Request, ServeConfig, ServeError, Server};
use ssam_store::{ShardedStore, ShardedStoreConfig, Store, StoreConfig};

fn store_config(dims: usize, capacity: usize, fanout: usize) -> StoreConfig {
    let mut c = StoreConfig::new(dims);
    c.memtable_capacity = capacity;
    c.fanout = fanout;
    c.device.fast_path = true;
    c
}

/// A single-module store: the 1 × 1 sharded topology.
fn single_store(config: StoreConfig) -> ShardedStore {
    ShardedStore::create(ShardedStoreConfig::new(1, 1, config))
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_linger: Duration::from_millis(1),
        workers: 2,
        ..ServeConfig::default()
    }
}

fn vector(i: usize, dims: usize) -> Vec<f32> {
    (0..dims)
        .map(|d| (((i * 31 + d * 7) % 200) as f32 - 100.0) / 100.0)
        .collect()
}

/// Writes through the handle become visible to queries immediately, and
/// the served top-k over memtable ∪ segments is bit-identical to an
/// immutable device rebuilt from the store's live set — while the
/// maintenance thread compacts in the background.
#[test]
fn served_store_matches_immutable_rebuild_under_churn() {
    let dims = 6;
    let server =
        Server::start_sharded_store(single_store(store_config(dims, 8, 2)), serve_config());
    let handle = server.handle();

    for round in 0..6 {
        // A churn wave: inserts (some overwriting), a few deletes.
        for i in 0..24 {
            let uid = (round * 16 + i) % 48;
            handle
                .insert_routed(uid as u32, &vector(round * 100 + i, dims))
                .expect("insert accepted");
        }
        for i in 0..4 {
            handle
                .delete_routed(((round * 13 + i * 5) % 48) as u32)
                .expect("delete accepted");
        }

        let store = server.sharded_store().expect("store backend");
        let (reference, live) = {
            let st = store.lock().unwrap();
            let live = st.live_set();
            let mut flat = VectorStore::new(dims);
            for (_, v) in &live {
                flat.push(v);
            }
            let mut device = SsamDevice::new(SsamConfig {
                fast_path: true,
                ..SsamConfig::default()
            });
            device.load_vectors(&flat);
            (device, live)
        };
        let mut reference = reference;

        let q = vector(round * 997 + 3, dims);
        let k = 5;
        let served = handle
            .query(Request::new(OwnedQuery::Euclidean(q.clone()), k))
            .expect("served");
        let expect = reference
            .query(&ssam_core::device::DeviceQuery::Euclidean(&q), k)
            .expect("reference query");
        assert_eq!(served.neighbors.len(), expect.neighbors.len());
        for (got, want) in served.neighbors.iter().zip(&expect.neighbors) {
            // Reference ids are positions in the uid-sorted live set.
            assert_eq!(got.id, live[want.id as usize].0, "round {round}");
            assert_eq!(
                got.dist.to_bits(),
                want.dist.to_bits(),
                "round {round}: distance drifted"
            );
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.inserts, 6 * 24);
    assert_eq!(stats.deletes, 6 * 4);
    assert!(stats.served >= 6);
}

/// The background maintenance thread drains compaction debt without any
/// explicit compact calls.
#[test]
fn maintenance_thread_compacts_in_background() {
    let server = Server::start_sharded_store(
        single_store(store_config(4, 4, 2)),
        ServeConfig {
            maintenance_interval: Duration::from_micros(100),
            ..serve_config()
        },
    );
    let handle = server.handle();
    for i in 0..64 {
        handle
            .insert_routed(i, &vector(i as usize, 4))
            .expect("insert");
    }
    // 16 seals landed on level 0; give maintenance a moment to merge.
    let store = server.sharded_store().expect("store backend");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        {
            let st = store.lock().unwrap();
            if !st.compaction_needed() {
                assert!(st.stats().compactions > 0);
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "maintenance never caught up"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Everything is still served correctly after the merges.
    let r = handle
        .query(Request::new(OwnedQuery::Euclidean(vector(13, 4)), 1))
        .expect("served");
    assert_eq!(r.neighbors[0].id, 13);
    assert_eq!(r.neighbors[0].dist, 0.0);
    server.shutdown();
}

/// Admission rejects what the store cannot serve: cosine queries,
/// binary queries, wrong-length vectors — and writes against an
/// immutable backend.
#[test]
fn admission_rejects_unsupported_store_requests() {
    let server = Server::start_sharded_store(single_store(store_config(4, 8, 2)), serve_config());
    let handle = server.handle();
    handle.insert_routed(0, &vector(0, 4)).expect("insert");

    assert!(handle
        .query(Request::new(OwnedQuery::Cosine(vector(1, 4)), 1))
        .is_err());
    assert!(handle
        .query(Request::new(OwnedQuery::Hamming(vec![1, 2]), 1))
        .is_err());
    assert!(handle.insert_routed(1, &[0.0; 3]).is_err());
    // Manhattan is a linear kernel: accepted.
    assert!(handle
        .query(Request::new(OwnedQuery::Manhattan(vector(2, 4)), 1))
        .is_ok());
    server.shutdown();

    // Immutable backend: writes are a typed BadRequest.
    let mut flat = VectorStore::new(4);
    for i in 0..8 {
        flat.push(&vector(i, 4));
    }
    let mut device = SsamDevice::new(SsamConfig::default());
    device.load_vectors(&flat);
    let server = Server::start(device, serve_config());
    assert!(server.handle().insert_routed(0, &vector(0, 4)).is_err());
    assert!(server.handle().delete_routed(0).is_err());
    server.shutdown();
}

/// Full TCP loop: insert/delete/query frames against a store-backed
/// server, including the typed error for writes to an immutable one.
#[test]
fn tcp_write_path_round_trips() {
    let server = Server::start_sharded_store(single_store(store_config(4, 8, 2)), serve_config());
    let net = NetServer::bind("127.0.0.1:0", server).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");

    let mut last_seq = 0;
    for i in 0..12u32 {
        let ack = client
            .insert_routed(i, &vector(i as usize, 4))
            .expect("insert");
        assert!(ack.seq > last_seq);
        last_seq = ack.seq;
    }
    client.delete_routed(3).expect("delete");

    let resp = client
        .query(&Request::new(OwnedQuery::Euclidean(vector(7, 4)), 2))
        .expect("served");
    assert_eq!(resp.neighbors[0].id, 7);
    assert_eq!(resp.neighbors[0].dist, 0.0);
    assert!(resp.neighbors.iter().all(|n| n.id != 3));

    // Exact-match query for the deleted uid must not return it.
    let resp = client
        .query(&Request::new(OwnedQuery::Euclidean(vector(3, 4)), 3))
        .expect("served");
    assert!(resp.neighbors.iter().all(|n| n.id != 3));

    let stats = net.shutdown();
    assert_eq!(stats.inserts, 12);
    assert_eq!(stats.deletes, 1);

    // Immutable backend over TCP: write comes back BadRequest.
    let mut flat = VectorStore::new(4);
    for i in 0..8 {
        flat.push(&vector(i, 4));
    }
    let mut device = SsamDevice::new(SsamConfig::default());
    device.load_vectors(&flat);
    let net = NetServer::bind("127.0.0.1:0", Server::start(device, serve_config())).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    match client.insert_routed(0, &vector(0, 4)) {
        Err(ClientError::Remote(RemoteError::BadRequest(_))) => {}
        other => panic!("expected remote BadRequest, got {other:?}"),
    }
    net.shutdown();
}

/// Store queries work for Manhattan through the device path too (the
/// metric is part of the batch key, so mixed-metric load batches
/// separately but serves consistently).
#[test]
fn manhattan_store_queries_match_euclidean_visibility() {
    let server = Server::start_sharded_store(single_store(store_config(4, 4, 2)), serve_config());
    let handle = server.handle();
    for i in 0..20u32 {
        handle
            .insert_routed(i, &vector(i as usize, 4))
            .expect("insert");
    }
    handle.delete_routed(11).expect("delete");
    let e = handle
        .query(Request::new(OwnedQuery::Euclidean(vector(11, 4)), 4))
        .expect("served");
    let m = handle
        .query(Request::new(OwnedQuery::Manhattan(vector(11, 4)), 4))
        .expect("served");
    assert!(e.neighbors.iter().all(|n| n.id != 11));
    assert!(m.neighbors.iter().all(|n| n.id != 11));
    server.shutdown();
}

/// A sharded backend behind the server: startup surfaces the recovery
/// report, routed writes carry shard/replica detail, a downed primary
/// fails writes over, a whole shard down is a typed refusal, and after
/// revive + catch-up the write-failover ledger closes.
#[test]
fn sharded_server_routes_writes_and_surfaces_recovery() {
    let cfg = ShardedStoreConfig::new(2, 2, store_config(4, 4, 2));
    let mut seeded = ShardedStore::create(cfg.clone());
    for i in 0..16u32 {
        seeded.insert(i, &vector(i as usize, 4)).expect("seed");
    }
    let (reopened, rec) = ShardedStore::open(cfg, &seeded.wal_images()).expect("open");
    assert!(rec.total.replayed > 0);

    let server = Server::start_sharded_store(reopened, serve_config());
    assert_eq!(server.stats().recovered_records, rec.total.replayed as u64);
    let handle = server.handle();

    let ack = handle
        .insert_routed(20, &vector(20, 4))
        .expect("routed insert");
    assert_eq!(ack.shard, 0);
    assert_eq!(ack.replicas_acked, 2);
    assert!(!ack.failed_over);

    // Kill shard 1's primary (module 2): its writes land on the
    // standby, acked as failed over.
    let st = server.sharded_store().expect("sharded backend");
    st.lock().unwrap().kill_module(2);
    let ack = handle
        .insert_routed(21, &vector(21, 4))
        .expect("failover insert");
    assert_eq!(ack.shard, 1);
    assert!(ack.failed_over);
    assert_eq!(ack.replicas_acked, 1);

    // Reads fail over too: the write is immediately visible.
    let r = handle
        .query(Request::new(OwnedQuery::Euclidean(vector(21, 4)), 1))
        .expect("served");
    assert_eq!(r.neighbors[0].id, 21);
    assert_eq!(r.neighbors[0].dist, 0.0);

    // The standby goes down as well: the whole shard refuses, typed.
    st.lock().unwrap().kill_module(3);
    match handle.insert_routed(23, &vector(23, 4)) {
        Err(ServeError::ShardUnavailable { shard: 1 }) => {}
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }

    // Revive both; the next shard-1 write drains the pending queues
    // and the ledger closes.
    {
        let mut guard = st.lock().unwrap();
        guard.revive_module(2);
        guard.revive_module(3);
    }
    handle
        .insert_routed(25, &vector(25, 4))
        .expect("catch-up insert");
    {
        let guard = st.lock().unwrap();
        assert_eq!(guard.pending_total(), 0);
        guard.check_write_ledger().expect("ledger closes");
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected_shard_down, 1);
    assert_eq!(stats.inserts, 3);
}

/// Routed write frames over TCP: status-10 acks carry shard + replica
/// detail, and a whole-shard outage comes back as the typed remote
/// refusal.
#[test]
fn tcp_sharded_write_frames_round_trip() {
    let cfg = ShardedStoreConfig::new(2, 2, store_config(4, 8, 2));
    let server = Server::start_sharded_store(ShardedStore::create(cfg), serve_config());
    let st = server.sharded_store().expect("sharded backend");
    let net = NetServer::bind("127.0.0.1:0", server).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");

    let ack = client.insert_routed(5, &vector(5, 4)).expect("routed");
    assert_eq!(ack.shard, 1);
    assert_eq!(ack.replicas_acked, 2);
    assert!(!ack.failed_over);

    let next = client.insert_routed(6, &vector(6, 4)).expect("routed");
    assert!(next.seq > ack.seq);

    {
        let mut guard = st.lock().unwrap();
        guard.kill_module(0);
        guard.kill_module(1);
    }
    match client.insert_routed(8, &vector(8, 4)) {
        Err(ClientError::Remote(RemoteError::ShardUnavailable { shard: 0 })) => {}
        other => panic!("expected remote ShardUnavailable, got {other:?}"),
    }
    let stats = net.shutdown();
    assert_eq!(stats.inserts, 2);
    assert_eq!(stats.rejected_shard_down, 1);
}

/// The store module itself rejects non-linear metrics (cosine) and
/// accepts the linear ones — the store-side rule that serving
/// admission's Euclidean/Manhattan-only check mirrors.
#[test]
fn store_metric_enum_is_linear_only_for_serving() {
    let mut store = Store::create(store_config(2, 4, 2));
    store.insert(0, &[0.1, 0.2]).unwrap();
    assert!(store.query(&[0.0, 0.0], DeviceMetric::Cosine, 1).is_err());
    assert!(store.query(&[0.0, 0.0], DeviceMetric::Euclidean, 1).is_ok());
}
