//! `mixed_rw`: independent users (open loop) against
//! `Server::start_sharded_store`, 2 shards × 2 replicas. Poisson
//! arrivals on an absolute schedule from one generator thread; 60 %
//! reads, 30 % inserts, 10 % deletes, uids churning over `[0, 2n)`.
//! The only workload that writes: reads fan out over memtable and
//! segments under one store lock while writes append to replicated WALs
//! and trigger seals and compactions.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ssam_core::device::{DeviceMetric, DeviceQuery};
use ssam_datasets::PaperDataset;
use ssam_knn::{Neighbor, VectorStore};
use ssam_serve::{Server, ServerHandle, Ticket};

use super::{Finish, Window, Workload};
use crate::inputs::{build_device, generate_inputs, references, same_answer, Inputs};
use crate::probes::{self, metric, op_stream, request, serve_config, Op, ServeWindow};
use crate::stats::{Rng, Samples};
use crate::trace::Tracer;

pub struct Sizes {
    pub rows: usize,
    pub pool: usize,
    /// Offered operations per second.
    pub rate: f64,
    /// Queries checked against a rebuilt device after the run.
    pub check: usize,
    pub probe: Duration,
}

pub const FULL: Sizes = Sizes {
    rows: 2400,
    pool: 4096,
    rate: 60.0,
    check: 16,
    probe: Duration::from_millis(600),
};

/// The generator may fall this far behind its schedule before the run
/// is failed (the `serve_load` rule).
const MAX_DIVERGENCE: f64 = 0.05;

pub struct MixedRw {
    inputs: Inputs,
    first_ref: Vec<Neighbor>,
    seed: u64,
    sizes: Sizes,
}

/// Where a live uid's vector came from, for the shadow model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Row(u32),
    Pool(usize),
}

pub struct System {
    server: Server,
    /// The live set every acknowledged write implies.
    shadow: BTreeMap<u32, Source>,
    windows: u64,
    /// The op stream of the last window, replayed by the store probe.
    last_ops: Vec<Op>,
    /// Writes of the last window, for the write-wait estimate.
    last_writes_ms: Samples,
}

impl MixedRw {
    pub fn new(seed: u64, sizes: Sizes) -> Self {
        let inputs = generate_inputs(PaperDataset::GloVe, sizes.rows, sizes.pool, seed);
        let first_ref = references(&inputs.train, &inputs.pool[..1], inputs.k).remove(0);
        MixedRw {
            inputs,
            first_ref,
            seed,
            sizes,
        }
    }

    fn vector(&self, src: Source) -> &[f32] {
        match src {
            Source::Row(r) => self.inputs.train.get(r),
            Source::Pool(i) => &self.inputs.pool[i],
        }
    }

    /// Sorted arrival offsets of `n` Poisson arrivals conditioned on
    /// landing in `[0, seconds)`: `n` sorted uniform draws.
    fn schedule(&self, window: u64, n: usize, seconds: f64) -> Vec<Duration> {
        let mut rng = Rng::new(self.seed ^ window, 5);
        let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
        at.sort_by(f64::total_cmp);
        at.into_iter().map(Duration::from_secs_f64).collect()
    }

    /// Checks the quiesced store against the shadow model and a device
    /// rebuilt over its live set.
    fn check_end_state(&self, sys: &System) -> Vec<String> {
        let store = sys.server.sharded_store().expect("sharded backend");
        let mut store = store.lock().expect("store lock");
        while store.compact_step() {}
        let live = store.live_set();
        let mut errors = Vec::new();
        let shadow_ok = live.len() == sys.shadow.len()
            && live.iter().zip(&sys.shadow).all(|((uid, v), (suid, src))| {
                uid == suid
                    && v.len() == self.vector(*src).len()
                    && v.iter()
                        .zip(self.vector(*src))
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
        if !shadow_ok {
            errors.push(format!(
                "live set ({} rows) differs from the acknowledged writes ({} rows)",
                live.len(),
                sys.shadow.len()
            ));
        }
        let mut flat = VectorStore::new(self.inputs.train.dims());
        for (_, v) in &live {
            flat.push(v);
        }
        let mut fresh = build_device(&flat, true);
        let k = self.inputs.k;
        let step = (self.inputs.pool.len() / self.sizes.check.max(1)).max(1);
        for i in (0..self.inputs.pool.len())
            .step_by(step)
            .take(self.sizes.check)
        {
            let q = &self.inputs.pool[i];
            let got = store
                .query(q, DeviceMetric::Euclidean, k)
                .map(|r| r.neighbors);
            let want: Vec<Neighbor> = fresh
                .query(&DeviceQuery::Euclidean(q), k)
                .expect("rebuilt device query")
                .neighbors
                .into_iter()
                .map(|n| Neighbor::new(live[n.id as usize].0, n.dist))
                .collect();
            if !got.is_ok_and(|g| same_answer(&g, &want)) {
                errors.push(format!(
                    "store answer for pool query {i} differs from a rebuilt device"
                ));
            }
        }
        errors
    }

    /// Issues one write synchronously; `Err` carries the failure.
    fn write(&self, handle: &ServerHandle, op: Op) -> Result<(), String> {
        let ack = match op {
            Op::Insert(uid, i) => handle.insert_routed(uid, &self.inputs.pool[i]),
            Op::Delete(uid) => handle.delete_routed(uid),
            Op::Read(_) => unreachable!("reads are submitted, not written"),
        }
        .map_err(|e| format!("write failed: {e}"))?;
        if ack.replicas_acked != 2 || ack.failed_over {
            return Err(format!(
                "write acknowledged by {} replicas",
                ack.replicas_acked
            ));
        }
        Ok(())
    }

    /// Resident rows over live rows, counting one replica per shard.
    fn space_amp(sys: &System) -> f64 {
        let store = sys.server.sharded_store().expect("sharded backend");
        let store = store.lock().expect("store lock");
        let replicas = store.replicas();
        let resident: usize = store
            .snapshot()
            .iter()
            .step_by(replicas)
            .map(|s| {
                s.memtable.len()
                    + s.levels
                        .iter()
                        .flatten()
                        .map(|seg| seg.entries.len())
                        .sum::<usize>()
            })
            .sum();
        resident as f64 / store.live_len().max(1) as f64
    }
}

/// A read in flight: its ticket, scheduled send time and submit time.
type InFlight = (Ticket, Instant, Instant);

/// Settles submitted reads. A read's latency runs from its scheduled
/// send time: the generator's lag to submit it, then the queue and
/// service time the server measured (handing the reply to the waiting
/// ticket is a channel send, and is not counted).
fn settle_reads(in_flight: Vec<InFlight>, k: usize) -> (Samples, ServeWindow, u64, Vec<String>) {
    let mut reads = Samples::default();
    let mut serve = ServeWindow::default();
    let mut failed = 0;
    let mut errors = Vec::new();
    for (ticket, scheduled, submitted) in in_flight {
        match ticket.wait() {
            Ok(r) => {
                let sorted = r.neighbors.windows(2).all(|p| p[0] <= p[1]);
                if r.neighbors.len() == k && sorted && r.coverage == 1.0 {
                    let served_ms = (r.queue_seconds + r.service_seconds) * 1e3;
                    reads.push((submitted - scheduled).as_secs_f64() * 1e3 + served_ms);
                    serve.note(served_ms, r.queue_seconds, r.service_seconds);
                } else {
                    failed += 1;
                    errors.push("malformed read answer".to_string());
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("read failed: {e}"));
            }
        }
    }
    (reads, serve, failed, errors)
}

/// What one issuing thread saw.
#[derive(Default)]
struct Lane {
    gen_lag_ms: Samples,
    writes_ms: Samples,
    in_flight: Vec<InFlight>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    last_issue: Duration,
}

/// Sleeps until `t0 + offset`; returns the scheduled and the actual
/// issue instant.
fn pace(t0: Instant, offset: Duration) -> (Instant, Instant) {
    let scheduled = t0 + offset;
    if let Some(d) = scheduled.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
    (scheduled, Instant::now())
}

impl Workload for MixedRw {
    type System = System;

    fn setup(&self) -> Result<System, String> {
        let Inputs { train, pool, k } = &self.inputs;
        let server = Server::start_sharded_store(probes::loaded_store(train), serve_config());
        let first = server
            .handle()
            .query(request(&pool[0], *k))
            .map_err(|e| format!("first query: {e}"))?;
        if !same_answer(&first.neighbors, &self.first_ref) {
            return Err("first answer differs from the reference".into());
        }
        Ok(System {
            server,
            shadow: (0..train.len() as u32)
                .map(|u| (u, Source::Row(u)))
                .collect(),
            windows: 0,
            last_ops: Vec::new(),
            last_writes_ms: Samples::default(),
        })
    }

    fn teardown(&self, sys: System) {
        sys.server.shutdown();
    }

    /// Reads are submitted by this thread and writes issued by a second
    /// one, each on the shared absolute schedule: a synchronous write
    /// must not hold back the arrivals of independent readers.
    fn measure(&self, sys: &mut System, seconds: f64, tracer: &Tracer) -> Window {
        let Inputs { train, pool, k } = &self.inputs;
        sys.windows += 1;
        let n = ((self.sizes.rate * seconds).round() as usize).max(10);
        let ops = op_stream(self.seed ^ sys.windows, n, train.len(), pool.len());
        let at = self.schedule(sys.windows, n, seconds);
        let handle = sys.server.handle();
        let before = sys.server.stats();
        let (reads, writes): (Vec<_>, Vec<_>) = ops
            .iter()
            .copied()
            .zip(at.iter().copied())
            .enumerate()
            .map(|(rid, (op, offset))| (rid as u64 + 1, op, offset))
            .partition(|(_, op, _)| matches!(op, Op::Read(_)));
        let shadow = &mut sys.shadow;
        let t0 = Instant::now() + Duration::from_millis(1);
        let (read_lane, write_lane) = std::thread::scope(|s| {
            let handle = &handle;
            let writer = s.spawn(move || {
                let mut lane = Lane::default();
                for (rid, op, offset) in writes {
                    let (scheduled, issued) = pace(t0, offset);
                    lane.gen_lag_ms
                        .push((issued - scheduled).as_secs_f64() * 1e3);
                    lane.attempted += 1;
                    let name = if matches!(op, Op::Delete(_)) {
                        "serve.delete"
                    } else {
                        "serve.insert"
                    };
                    match tracer.span(name, 0, rid, || self.write(handle, op)) {
                        Ok(()) => {
                            lane.writes_ms
                                .push((Instant::now() - scheduled).as_secs_f64() * 1e3);
                            match op {
                                Op::Insert(uid, i) => shadow.insert(uid, Source::Pool(i)),
                                Op::Delete(uid) => shadow.remove(&uid),
                                Op::Read(_) => None,
                            };
                        }
                        Err(e) => {
                            lane.failed += 1;
                            lane.errors.push(e);
                        }
                    }
                    lane.last_issue = issued - t0;
                }
                lane
            });
            let mut lane = Lane::default();
            for (rid, op, offset) in reads {
                let Op::Read(i) = op else {
                    unreachable!("partitioned")
                };
                let (scheduled, issued) = pace(t0, offset);
                lane.gen_lag_ms
                    .push((issued - scheduled).as_secs_f64() * 1e3);
                lane.attempted += 1;
                match tracer.span("serve.submit", 0, rid, || {
                    handle.submit(request(&pool[i], *k))
                }) {
                    Ok(ticket) => lane.in_flight.push((ticket, scheduled, issued)),
                    Err(e) => {
                        lane.failed += 1;
                        lane.errors.push(format!("read refused: {e}"));
                    }
                }
                lane.last_issue = issued - t0;
            }
            (lane, writer.join().expect("writer thread"))
        });
        let (reads_ms, mut serve, read_failed, read_errors) = settle_reads(read_lane.in_flight, *k);
        let mut w = Window {
            reads_ms,
            writes_ms: write_lane.writes_ms,
            gen_lag_ms: read_lane.gen_lag_ms,
            attempted: read_lane.attempted + write_lane.attempted,
            failed: read_lane.failed + write_lane.failed + read_failed,
            issue_span_s: read_lane
                .last_issue
                .max(write_lane.last_issue)
                .as_secs_f64(),
            ..Window::default()
        };
        w.gen_lag_ms.extend(&write_lane.gen_lag_ms);
        for errs in [read_lane.errors, write_lane.errors, read_errors] {
            w.errors.extend(errs.into_iter().take(3));
        }
        let last = at.last().map_or(seconds, Duration::as_secs_f64);
        let offered = n as f64 / last;
        w.offered_per_s = Some(offered);
        let achieved = n as f64 / w.issue_span_s;
        if (achieved / offered - 1.0).abs() > MAX_DIVERGENCE {
            w.errors.push(format!(
                "generator diverged from its schedule: offered {offered:.1}/s, achieved {achieved:.1}/s"
            ));
        }
        w.queries = w.reads_ms.len() as u64;
        serve.before = before;
        serve.after = sys.server.stats();
        if tracer.enabled() {
            w.layers.extend(serve.metrics());
            w.layers
                .push(metric("serve.write_p50_ms", "ms", w.writes_ms.median()));
            w.layers
                .push(metric("serve.write_p99_ms", "ms", w.writes_ms.tail()));
        }
        sys.last_ops = ops;
        sys.last_writes_ms = w.writes_ms.clone();
        w
    }

    fn finish(&self, sys: System, traced: Option<&Window>, tracer: &Tracer) -> Finish {
        let Inputs { train, pool, k } = &self.inputs;
        let errors = self.check_end_state(&sys);
        let space_amp = Self::space_amp(&sys);
        let mut f = Finish {
            space_amp,
            failed: errors.len() as u64,
            errors,
            ..Finish::default()
        };
        let writes = sys.last_writes_ms.clone();
        let ops = sys.last_ops.clone();
        sys.server.shutdown();
        if traced.is_none() {
            return f;
        }
        let replay = probes::store_replay(train, pool, *k, &ops, tracer);
        f.layers.push(metric(
            "serve.write_wait_ms_mean",
            "ms",
            writes.mean() - replay.write_ms_mean,
        ));
        f.layers.extend(replay.metrics);
        let refs = references(train, &pool[..256.min(pool.len())], *k);
        let (net, wrong) = probes::net_serve_probe(train, pool, &refs, *k, self.sizes.probe);
        if wrong > 0 {
            f.failed += wrong;
            f.errors
                .push(format!("{wrong} wrong answers through the net probe"));
        }
        f.layers
            .extend(net.into_iter().filter(|m| m.name.starts_with("net.")));
        f.layers
            .extend(probes::device_layers(train, pool, *k, self.sizes.probe));
        f
    }
}
