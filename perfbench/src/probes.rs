//! Per-layer probes for the traced run: each one calls a single layer's
//! public API on the workload's own data and reads what that API
//! returns. Every probe runs for a bounded time or operation count.

use std::time::{Duration, Instant};

use ssam_core::device::DeviceMetric;
use ssam_knn::linear::knn_exact;
use ssam_knn::simd::fold_terms;
use ssam_knn::topk::TopK;
use ssam_knn::{Metric as KnnMetric, Neighbor, VectorStore};
use ssam_serve::net::{
    decode_reply, decode_request, encode_reply, encode_request, NetClient, NetServer,
};
use ssam_serve::{OwnedQuery, Request, Response, ServeConfig, Server, ServerHandle, ServerStats};
use ssam_store::{ShardedStore, ShardedStoreConfig, StoreConfig, StoreStats};

use crate::inputs::{build_device, device_config, euclidean, same_answer};
use crate::stats::{Metric, Rng, Samples};
use crate::trace::Tracer;

/// The serving configuration of every workload that serves: two
/// workers, batches of up to 16, 500 µs linger, no faults.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 16,
        max_linger: Duration::from_micros(500),
        ..ServeConfig::default()
    }
}

pub fn request(q: &[f32], k: usize) -> Request {
    Request::new(OwnedQuery::Euclidean(q.to_vec()), k)
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Runs `f` at least `min` times and until `budget` has elapsed;
/// returns the call count and the elapsed seconds.
fn budgeted(budget: Duration, min: usize, mut f: impl FnMut(usize)) -> (usize, f64) {
    let t = Instant::now();
    let mut n = 0;
    while n < min || t.elapsed() < budget {
        f(n);
        n += 1;
    }
    (n, t.elapsed().as_secs_f64())
}

/// `core::device`, `core::sim` and the `knn` reference bounds.
pub fn device_layers(
    train: &VectorStore,
    pool: &[Vec<f32>],
    k: usize,
    budget: Duration,
) -> Vec<Metric> {
    let mut dev = build_device(train, true);
    let at = |i: usize| &pool[i % pool.len()];
    // Warm the kernel cache so neither batch size pays the build.
    dev.query_batch(&euclidean(&pool[..1]), k)
        .expect("warm-up query");

    let (n1, s1) = budgeted(budget, 16, |i| {
        std::hint::black_box(
            dev.query_batch(&euclidean(std::slice::from_ref(at(i))), k)
                .expect("b1"),
        );
    });
    let b1_us = s1 / n1 as f64 * 1e6;

    let batch: Vec<Vec<f32>> = (0..16).map(|i| at(i).clone()).collect();
    let mut timing = None;
    let (n16, s16) = budgeted(budget, 4, |_| {
        let r = dev.query_batch(&euclidean(&batch), k).expect("b16");
        timing = Some(r.timing);
    });
    let b16_us = s16 / (16 * n16) as f64 * 1e6;
    let timing = timing.expect("at least one batch");

    let mut sim = build_device(train, false);
    let sim_batch = &batch[..4];
    let mut instructions = 0u64;
    let (ns, ss) = budgeted(budget, 1, |_| {
        let r = sim
            .query_batch(&euclidean(sim_batch), k)
            .expect("sim batch");
        instructions += r
            .results
            .iter()
            .flat_map(|q| &q.vault_stats)
            .map(|v| v.instructions)
            .sum::<u64>();
    });
    let sim_queries = (ns * sim_batch.len()) as f64;

    let (ne, se) = budgeted(budget, 8, |i| {
        std::hint::black_box(knn_exact(train, at(i), k, KnnMetric::Euclidean));
    });
    let (nf, sf) = budgeted(budget, 8, |i| {
        std::hint::black_box(f32x8_scan(train, at(i), k));
    });
    let f32x8_us = sf / nf as f64 * 1e6;

    vec![
        metric("device.b1_us_per_q", "us", b1_us),
        metric("device.b16_us_per_q", "us", b16_us),
        metric("device.tile_fixed_us", "us", (b1_us - b16_us) * 16.0 / 15.0),
        metric(
            "device.cycles_per_q",
            "count",
            timing.total_cycles as f64 / timing.batch as f64,
        ),
        metric(
            "device.bytes_per_q",
            "bytes",
            timing.total_bytes as f64 / timing.batch as f64,
        ),
        metric("device.roofline_ratio", "ratio", b16_us / f32x8_us),
        metric("model_qps", "1/s", timing.queries_per_second),
        metric("sim.us_per_q", "us", ss / sim_queries * 1e6),
        metric("sim.minst_per_s", "Minst/s", instructions as f64 / ss / 1e6),
        metric("knn.exact_us_per_q", "us", se / ne as f64 * 1e6),
        metric("knn.f32x8_us_per_q", "us", f32x8_us),
    ]
}

/// A raw 8-lane f32 Euclidean scan with a bounded heap: the host-side
/// roofline the device's scan is compared against.
fn f32x8_scan(train: &VectorStore, q: &[f32], k: usize) -> Vec<Neighbor> {
    let mut top = TopK::new(k);
    for (id, row) in train.iter() {
        let d = fold_terms(row, q, |a, b| {
            let t = a - b;
            t * t
        })
        .hsum();
        top.offer(id, d);
    }
    top.into_sorted()
}

/// `serve::net` wire codec: one request and one reply through encode
/// and decode, on the workload's own payload and a real response.
fn codec_us(handle: &ServerHandle, q: &[f32], k: usize) -> f64 {
    let req = request(q, k);
    let resp: Response = handle.query(req.clone()).expect("codec probe query");
    let reply = Ok(resp);
    let (n, s) = budgeted(Duration::from_millis(200), 200, |_| {
        let wire = encode_request(&req);
        std::hint::black_box(decode_request(&wire).expect("decode request"));
        let wire = encode_reply(&reply);
        let _ = std::hint::black_box(decode_reply(&wire).expect("decode reply"));
    });
    s / n as f64 * 1e6
}

/// What a serving window saw, from the responses and `ServerStats`.
#[derive(Default)]
pub struct ServeWindow {
    pub queue_ms: Samples,
    pub service_ms: Samples,
    pub overhead_ms: Samples,
    pub before: ServerStats,
    pub after: ServerStats,
}

impl ServeWindow {
    pub fn note(&mut self, round_trip_ms: f64, queue_s: f64, service_s: f64) {
        self.queue_ms.push(queue_s * 1e3);
        self.service_ms.push(service_s * 1e3);
        self.overhead_ms
            .push(round_trip_ms - (queue_s + service_s) * 1e3);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let (a, b) = (&self.after, &self.before);
        let served = a.served - b.served;
        let batches = a.batches - b.batches;
        let rejected = |s: &ServerStats| {
            s.rejected_overload
                + s.rejected_rate_limited
                + s.rejected_deadline
                + s.rejected_shard_down
        };
        vec![
            metric("serve.queue_p50_ms", "ms", self.queue_ms.median()),
            metric("serve.queue_p99_ms", "ms", self.queue_ms.tail()),
            metric("serve.service_p50_ms", "ms", self.service_ms.median()),
            metric("serve.service_p99_ms", "ms", self.service_ms.tail()),
            metric(
                "serve.mean_batch",
                "queries",
                served as f64 / batches.max(1) as f64,
            ),
            metric("serve.batches", "count", batches as f64),
            metric(
                "serve.rejected",
                "count",
                (rejected(a) - rejected(b)) as f64,
            ),
            metric("serve.failed", "count", (a.failed - b.failed) as f64),
        ]
    }
}

/// `serve::net` and `serve` on a workload that does not cross them
/// itself: one client, closed loop, over a fast-path device on the
/// workload's data. Returns the metrics and the number of wrong answers.
pub fn net_serve_probe(
    train: &VectorStore,
    pool: &[Vec<f32>],
    refs: &[Vec<Neighbor>],
    k: usize,
    budget: Duration,
) -> (Vec<Metric>, u64) {
    let server = Server::start(build_device(train, true), serve_config());
    let net = NetServer::bind("127.0.0.1:0", server).expect("bind probe server");
    let mut client = NetClient::connect(net.local_addr()).expect("connect probe client");
    let codec = codec_us(&net.handle(), &pool[0], k);
    let mut w = ServeWindow {
        before: net.stats(),
        ..ServeWindow::default()
    };
    let mut wrong = 0;
    budgeted(budget, 8, |i| {
        let i = i % refs.len();
        let t = Instant::now();
        let r = client.query(&request(&pool[i], k)).expect("probe query");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        w.note(ms, r.queue_seconds, r.service_seconds);
        if !same_answer(&r.neighbors, &refs[i]) {
            wrong += 1;
        }
    });
    w.after = net.stats();
    drop(client);
    net.shutdown();
    let mut m = vec![
        metric("net.codec_us", "us", codec),
        metric("net.overhead_p50_ms", "ms", w.overhead_ms.median()),
    ];
    m.extend(w.metrics());
    (m, wrong)
}

/// One operation of a mixed read/write stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Query pool entry.
    Read(usize),
    /// Insert or overwrite `uid` with pool entry `.1`.
    Insert(u32, usize),
    Delete(u32),
}

/// `n` operations, exactly 60 % reads, 30 % inserts and 10 % deletes in
/// seeded order, with write uids churning over `[0, 2 rows)`. Reads walk
/// the pool from a seeded start, so none repeats until the pool wraps.
pub fn op_stream(seed: u64, n: usize, rows: usize, pool: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 3);
    let inserts = n * 3 / 10;
    let deletes = n / 10;
    let churn = 2 * rows as u64;
    let mut ops: Vec<Op> = (0..inserts + deletes)
        .map(|i| {
            if i < inserts {
                Op::Insert(rng.below(churn) as u32, rng.below(pool as u64) as usize)
            } else {
                Op::Delete(rng.below(churn) as u32)
            }
        })
        .collect();
    ops.extend((0..n - inserts - deletes).map(|_| Op::Read(0)));
    rng.shuffle(&mut ops);
    let mut next = rng.below(pool as u64) as usize;
    for op in &mut ops {
        if let Op::Read(i) = op {
            *i = next % pool;
            next += 1;
        }
    }
    ops
}

/// The sharded store every store workload uses: 2 shards × 2 replicas,
/// a memtable small enough to seal and compact many times per run.
fn store_config(dims: usize) -> ShardedStoreConfig {
    let mut store = StoreConfig::new(dims);
    store.device = device_config(true);
    store.memtable_capacity = 16;
    store.fanout = 4;
    ShardedStoreConfig::new(2, 2, store)
}

/// A sharded store holding `train` (uids = row ids), load-time
/// compaction debt drained.
pub fn loaded_store(train: &VectorStore) -> ShardedStore {
    let mut store = ShardedStore::create(store_config(train.dims()));
    for (uid, row) in train.iter() {
        store.insert(uid, row).expect("bulk load");
    }
    while store.compact_step() {}
    store
}

/// Store counters as per-layer metrics: the delta `after - before`.
fn store_counters(before: &StoreStats, after: &StoreStats, writes: u64) -> Vec<Metric> {
    let payload = (after.payload_bytes - before.payload_bytes).max(1) as f64;
    vec![
        metric("store.seals", "count", (after.seals - before.seals) as f64),
        metric(
            "store.seal_s_total",
            "s",
            after.seal_seconds - before.seal_seconds,
        ),
        metric(
            "store.compactions",
            "count",
            (after.compactions - before.compactions) as f64,
        ),
        metric(
            "store.compact_s_total",
            "s",
            after.compact_seconds - before.compact_seconds,
        ),
        metric("store.compact_s_max", "s", after.max_compact_seconds),
        metric(
            "store.write_amp",
            "ratio",
            (after.staged_bytes - before.staged_bytes) as f64 / payload,
        ),
        metric(
            "store.wal_bytes_per_write",
            "bytes",
            (after.wal_bytes - before.wal_bytes) as f64 / writes.max(1) as f64,
        ),
    ]
}

/// Result of replaying an op stream against a bare `ShardedStore`.
pub struct StoreReplay {
    pub metrics: Vec<Metric>,
    /// Mean bare write time, milliseconds.
    pub write_ms_mean: f64,
}

/// `store`: replays `ops` against a bare `ShardedStore` on one thread,
/// timing every call, then drains compaction.
pub fn store_replay(
    train: &VectorStore,
    pool: &[Vec<f32>],
    k: usize,
    ops: &[Op],
    tracer: &Tracer,
) -> StoreReplay {
    let mut store = loaded_store(train);
    let before = store.stats();
    let (mut q, mut ins, mut del) = (Samples::default(), Samples::default(), Samples::default());
    let (mut segments, mut suppressed, mut returned) = (0usize, 0usize, 0usize);
    let mut writes = 0u64;
    for (rid, op) in ops.iter().enumerate() {
        let rid = rid as u64 + 1;
        let t = Instant::now();
        match *op {
            Op::Read(i) => {
                let r = tracer.span("store.query", 0, rid, || {
                    store
                        .query(&pool[i], DeviceMetric::Euclidean, k)
                        .expect("store query")
                });
                q.push(t.elapsed().as_secs_f64() * 1e6);
                segments += r.segments_scanned;
                suppressed += r.suppressed;
                returned += r.neighbors.len();
            }
            Op::Insert(uid, i) => {
                tracer.span("store.insert", 0, rid, || {
                    store.insert(uid, &pool[i]).expect("insert")
                });
                ins.push(t.elapsed().as_secs_f64() * 1e6);
                writes += 1;
            }
            Op::Delete(uid) => {
                tracer.span("store.delete", 0, rid, || {
                    store.delete(uid).expect("delete")
                });
                del.push(t.elapsed().as_secs_f64() * 1e6);
                writes += 1;
            }
        }
    }
    while store.compact_step() {}
    let after = store.stats();
    let reads = q.len().max(1) as f64;
    let mut metrics = vec![
        metric("store.query_p50_us", "us", q.median()),
        metric("store.query_p99_us", "us", q.tail()),
        metric("store.insert_p50_us", "us", ins.median()),
        metric("store.insert_p99_us", "us", ins.tail()),
        metric("store.delete_p50_us", "us", del.median()),
        metric("store.segments_per_read", "count", segments as f64 / reads),
        metric(
            "store.suppressed_ratio",
            "ratio",
            suppressed as f64 / returned.max(1) as f64,
        ),
    ];
    metrics.extend(store_counters(&before, &after, writes));
    let mut all = ins.clone();
    all.extend(&del);
    StoreReplay {
        metrics,
        write_ms_mean: all.mean() / 1e3,
    }
}

/// Mean write latency through `Server::start_sharded_store`, sequential
/// (no concurrent reads), over the writes of `ops`.
pub fn served_write_ms(train: &VectorStore, pool: &[Vec<f32>], ops: &[Op]) -> Samples {
    let server = Server::start_sharded_store(loaded_store(train), serve_config());
    let handle = server.handle();
    let mut ms = Samples::default();
    for op in ops {
        let t = Instant::now();
        match *op {
            Op::Insert(uid, i) => {
                handle.insert_routed(uid, &pool[i]).expect("served insert");
            }
            Op::Delete(uid) => {
                handle.delete_routed(uid).expect("served delete");
            }
            Op::Read(_) => continue,
        }
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    server.shutdown();
    ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate_inputs;
    use ssam_datasets::PaperDataset;

    #[test]
    fn op_stream_has_the_exact_mix_and_repeats_per_seed() {
        let ops = op_stream(4, 1000, 100, 50);
        assert_eq!(ops, op_stream(4, 1000, 100, 50));
        assert_ne!(ops, op_stream(5, 1000, 100, 50));
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(..))).count();
        assert_eq!((reads, inserts, 1000 - reads - inserts), (600, 300, 100));
        let reads: Vec<usize> = ops
            .iter()
            .filter_map(|o| if let Op::Read(i) = *o { Some(i) } else { None })
            .collect();
        assert!(
            reads.windows(2).all(|w| w[1] == (w[0] + 1) % 50),
            "reads walk the pool"
        );
        assert!(ops.iter().all(|o| match *o {
            Op::Read(i) | Op::Insert(_, i) => i < 50,
            Op::Delete(u) => u < 200,
        }));
    }

    #[test]
    fn f32x8_scan_matches_the_exact_scan() {
        let inp = generate_inputs(PaperDataset::GloVe, 300, 8, 1);
        for q in &inp.pool {
            let got: Vec<u32> = f32x8_scan(&inp.train, q, inp.k)
                .iter()
                .map(|n| n.id)
                .collect();
            let want: Vec<u32> = knn_exact(&inp.train, q, inp.k, KnnMetric::Euclidean)
                .iter()
                .map(|n| n.id)
                .collect();
            assert_eq!(got, want);
        }
    }
}
