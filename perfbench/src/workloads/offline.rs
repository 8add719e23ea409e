//! The offline workload, `bulk_scan`: one caller thread issuing
//! `SsamDevice::query_batch` at batch 16 on the analytic fast path over
//! GIST-shaped data larger than L2, bypassing serve, net and store. The
//! distance scan and queue inserts do most of the work, and per-tile
//! synthesis is amortized over 16 queries.

use std::time::{Duration, Instant};

use ssam_core::device::SsamDevice;
use ssam_datasets::PaperDataset;
use ssam_knn::Neighbor;

use super::{Finish, Window, Workload};
use crate::inputs::{
    build_device, euclidean, generate_inputs, oracle_check, references, same_answer, Inputs,
};
use crate::probes::{self, metric};
use crate::stats::Rng;
use crate::trace::Tracer;

const BATCH: usize = 16;

pub struct Sizes {
    pub dataset: PaperDataset,
    pub rows: usize,
    pub pool: usize,
    pub oracle: usize,
    pub store_ops: usize,
    pub probe: Duration,
}

pub const BULK_SCAN: Sizes = Sizes {
    dataset: PaperDataset::Gist,
    rows: 5000,
    pool: 1024,
    oracle: 2,
    store_ops: 600,
    probe: Duration::from_millis(600),
};

pub struct Offline {
    inputs: Inputs,
    refs: Vec<Vec<Neighbor>>,
    order: Vec<usize>,
    seed: u64,
    sizes: Sizes,
    oracle_errors: Vec<String>,
}

pub struct System {
    device: SsamDevice,
    cursor: usize,
}

impl Offline {
    pub fn new(seed: u64, sizes: Sizes) -> Self {
        let inputs = generate_inputs(sizes.dataset, sizes.rows, sizes.pool, seed);
        let refs = references(&inputs.train, &inputs.pool, inputs.k);
        let oracle_errors =
            oracle_check(&inputs.train, &inputs.pool, &refs, inputs.k, sizes.oracle);
        let mut order: Vec<usize> = (0..inputs.pool.len()).collect();
        Rng::new(seed, 4).shuffle(&mut order);
        Offline {
            inputs,
            refs,
            order,
            seed,
            sizes,
            oracle_errors,
        }
    }

    /// The next batch of pool indices in visiting order.
    fn next_batch(&self, cursor: &mut usize) -> Vec<usize> {
        let b = (0..BATCH)
            .map(|j| self.order[(*cursor + j) % self.order.len()])
            .collect();
        *cursor += BATCH;
        b
    }

    /// Runs one batch; returns the indices whose answers are wrong.
    fn run_batch(
        &self,
        device: &mut SsamDevice,
        idx: &[usize],
        tracer: &Tracer,
        rid: u64,
    ) -> Result<Vec<usize>, String> {
        let queries: Vec<Vec<f32>> = idx.iter().map(|&i| self.inputs.pool[i].clone()).collect();
        let root = tracer.open("batch", 0, rid);
        let parent = root.as_ref().map_or(0, |o| o.id());
        let r = tracer
            .span("device.query_batch", parent, rid, || {
                device.query_batch(&euclidean(&queries), self.inputs.k)
            })
            .map_err(|e| format!("query_batch: {e}"))?;
        let wrong = tracer.span("check", parent, rid, || {
            idx.iter()
                .zip(&r.results)
                .filter(|(&i, res)| {
                    !same_answer(&res.neighbors, &self.refs[i]) || res.coverage() != 1.0
                })
                .map(|(&i, _)| i)
                .collect()
        });
        tracer.close(root);
        Ok(wrong)
    }
}

impl Workload for Offline {
    type System = System;

    fn setup(&self) -> Result<System, String> {
        let mut device = build_device(&self.inputs.train, true);
        let mut cursor = 0;
        let first = self.next_batch(&mut cursor);
        let wrong = self.run_batch(&mut device, &first, &Tracer::new(false), 0)?;
        if !wrong.is_empty() {
            return Err(format!(
                "first batch answers differ from the reference: {wrong:?}"
            ));
        }
        Ok(System { device, cursor })
    }

    fn teardown(&self, _sys: System) {}

    fn measure(&self, sys: &mut System, seconds: f64, tracer: &Tracer) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut prev_end = start;
        while Instant::now() < deadline {
            let idx = self.next_batch(&mut sys.cursor);
            let t = Instant::now();
            w.gen_lag_ms.push((t - prev_end).as_secs_f64() * 1e3);
            let rid = sys.cursor as u64;
            let outcome = self.run_batch(&mut sys.device, &idx, tracer, rid);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            w.attempted += BATCH as u64;
            match outcome {
                Ok(wrong) if wrong.is_empty() => {
                    w.reads_ms.push(ms);
                    w.queries += BATCH as u64;
                }
                Ok(wrong) => {
                    w.failed += wrong.len() as u64;
                    w.errors
                        .push(format!("wrong answers for pool queries {wrong:?}"));
                }
                Err(e) => {
                    w.failed += BATCH as u64;
                    w.errors.push(e);
                }
            }
            prev_end = Instant::now();
        }
        w.issue_span_s = start.elapsed().as_secs_f64();
        w
    }

    fn finish(&self, sys: System, traced: Option<&Window>, tracer: &Tracer) -> Finish {
        let Inputs { train, pool, k } = &self.inputs;
        let mut f = Finish {
            // An immutable device holds exactly the rows it was loaded with.
            space_amp: sys.device.len() as f64 / train.len() as f64,
            errors: self.oracle_errors.clone(),
            ..Finish::default()
        };
        if traced.is_none() {
            return f;
        }
        let (net, wrong) = probes::net_serve_probe(train, pool, &self.refs, *k, self.sizes.probe);
        if wrong > 0 {
            f.failed += wrong;
            f.errors
                .push(format!("{wrong} wrong answers through the serve probe"));
        }
        f.layers.extend(net);
        let ops = probes::op_stream(self.seed, self.sizes.store_ops, train.len(), pool.len());
        let replay = probes::store_replay(train, pool, *k, &ops, tracer);
        let served = probes::served_write_ms(train, pool, &ops);
        f.layers.extend([
            metric("serve.write_p50_ms", "ms", served.median()),
            metric("serve.write_p99_ms", "ms", served.tail()),
            metric(
                "serve.write_wait_ms_mean",
                "ms",
                served.mean() - replay.write_ms_mean,
            ),
        ]);
        f.layers.extend(replay.metrics);
        f.layers
            .extend(probes::device_layers(train, pool, *k, self.sizes.probe));
        f
    }
}
