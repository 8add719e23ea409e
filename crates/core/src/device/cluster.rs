//! Multi-module SSAM scaling (paper Section III-A / Fig. 3).
//!
//! "Since HMC modules can be composed together, these additional links
//! and SSAM modules allows us to scale up the capacity of the system. …
//! These external data links allow one or more HMC modules to be composed
//! to effectively form a larger network of SSAMs if data exceeds the
//! capacity of a single SSAM module. … If a kNN query must touch multiple
//! vaults, the host processor broadcasts the search across SSAM
//! processing units and performs the final set of global top-k reductions
//! on the host processor."
//!
//! The cluster splits the dataset across modules by capacity, broadcasts
//! each query over the link fabric (a daisy chain, as in Fig. 3), runs
//! every module concurrently, and reduces the per-module top-k on the
//! host. Query latency is therefore
//! `broadcast + max(module time) + collection`, where the link terms grow
//! with chain depth and the result volume is `modules × k` tuples — "a
//! fraction of the original dataset size".
//!
//! This is a timing model only: module failover is not part of the
//! paper's design. The repository's module-level failover and health
//! machine lives in the sharded mutable store (`ssam-store`).

use rayon::prelude::*;
use ssam_faults::FaultRecord;
use ssam_knn::topk::{Neighbor, TopK};
use ssam_knn::VectorStore;

use crate::sim::pu::SimError;
use crate::telemetry::{self, Phases, QueryRecord, RecordKind, Telemetry, VaultAccount};

use super::{BatchResult, DeviceQuery, SsamConfig, SsamDevice};

/// A daisy chain of SSAM modules behind one host.
#[derive(Debug, Clone)]
pub struct SsamCluster {
    modules: Vec<SsamDevice>,
    /// First global id held by each module.
    first_ids: Vec<u32>,
    vectors: usize,
    config: SsamConfig,
    telemetry: Option<Telemetry>,
}

/// Timing for one cluster query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTiming {
    /// End-to-end seconds (broadcast + slowest module + collection).
    pub seconds: f64,
    /// Seconds spent broadcasting the query down the chain.
    pub broadcast_seconds: f64,
    /// Slowest module's query time.
    pub module_seconds: f64,
    /// Seconds collecting per-module results back up the chain.
    pub collect_seconds: f64,
    /// Total energy across modules, millijoules.
    pub energy_mj: f64,
}

impl SsamCluster {
    /// Builds a cluster of `modules` identical devices and shards `store`
    /// evenly across them.
    ///
    /// # Panics
    /// Panics if `modules == 0` or the store is empty.
    pub fn build(config: SsamConfig, modules: usize, store: &VectorStore) -> Self {
        assert!(modules > 0, "need at least one module");
        assert!(!store.is_empty(), "cannot load an empty dataset");
        let modules = modules.min(store.len());
        let per = store.len().div_ceil(modules);
        let mut devs = Vec::with_capacity(modules);
        let mut first_ids = Vec::with_capacity(modules);
        let mut next = 0usize;
        while next < store.len() {
            let count = per.min(store.len() - next);
            let ids: Vec<u32> = (next as u32..(next + count) as u32).collect();
            let sub = store.subset(&ids);
            let mut dev = SsamDevice::new(config);
            dev.load_vectors(&sub);
            devs.push(dev);
            first_ids.push(next as u32);
            next += count;
        }
        Self {
            modules: devs,
            first_ids,
            vectors: store.len(),
            config,
            telemetry: None,
        }
    }

    /// Attaches a telemetry sink; every subsequent query records a
    /// checked [`RecordKind::Cluster`] account (one [`VaultAccount`] per
    /// *module* — the cluster treats each module the way a module treats
    /// a vault). The member modules are not attached; attach them
    /// individually for per-vault depth.
    pub fn attach_telemetry(&mut self, sink: &Telemetry) {
        self.telemetry = Some(sink.clone());
    }

    /// Number of modules in the chain.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Total vectors held.
    pub fn len(&self) -> usize {
        self.vectors
    }

    /// Whether the cluster holds no data.
    pub fn is_empty(&self) -> bool {
        self.vectors == 0
    }

    /// Executes one Euclidean query across the whole cluster — the
    /// single-query special case of [`SsamCluster::query_batch`].
    ///
    /// # Errors
    /// Returns [`SimError::ZeroK`] when `k == 0`.
    pub fn query(
        &mut self,
        query: &[f32],
        k: usize,
    ) -> Result<(Vec<Neighbor>, ClusterTiming), SimError> {
        let mut out = self.query_batch(&[query], k)?;
        Ok(out.pop().expect("one result per query"))
    }

    /// Executes a batch of Euclidean queries across the whole cluster:
    /// every module runs the batch through its batched engine
    /// ([`SsamDevice::query_batch`]), then each query's per-module top-k
    /// sets are reduced on the host and charged the chain's broadcast and
    /// collection link terms.
    ///
    /// # Errors
    /// Returns [`SimError::EmptyBatch`] for an empty query slice and
    /// [`SimError::ZeroK`] for `k == 0` (typed rejections for online
    /// callers, matching
    /// [`SsamDevice::query_batch`](super::SsamDevice::query_batch)).
    pub fn query_batch(
        &mut self,
        queries: &[&[f32]],
        k: usize,
    ) -> Result<Vec<(Vec<Neighbor>, ClusterTiming)>, SimError> {
        if queries.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        if k == 0 {
            return Err(SimError::ZeroK);
        }
        let dq: Vec<DeviceQuery<'_>> = queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        let batches = self
            .modules
            .par_iter_mut()
            .map(|dev| dev.query_batch(&dq, k))
            .collect::<Result<Vec<BatchResult>, SimError>>()?;

        let depth = self.modules.len() as u64;
        let link_bw = self.config.hmc.external_bandwidth;
        let result_bytes = (self.modules.len() * k * 8) as u64;

        let mut out = Vec::with_capacity(queries.len());
        for (qi, query) in queries.iter().enumerate() {
            let mut top = TopK::new(k);
            let mut module_seconds = 0.0f64;
            let mut energy_mj = 0.0;
            for (batch, &first_id) in batches.iter().zip(&self.first_ids) {
                let r = &batch.results[qi];
                for n in &r.neighbors {
                    top.offer(first_id + n.id, n.dist);
                }
                module_seconds = module_seconds.max(r.timing.seconds);
                energy_mj += r.timing.energy_mj;
            }

            // Link fabric: the query travels down the chain (depth hops),
            // the per-module k-tuple results travel back up; the host
            // then merges modules × k tuples.
            let query_bytes = (query.len() * 4) as u64;
            let broadcast_seconds =
                depth as f64 * ssam_hmc::packet::bulk_wire_bytes(query_bytes) as f64 / link_bw;
            let collect_wire_seconds =
                depth as f64 * ssam_hmc::packet::bulk_wire_bytes(result_bytes) as f64 / link_bw;
            let merge_seconds = (self.modules.len() * k) as f64 * 1e-9;
            let collect_seconds = collect_wire_seconds + merge_seconds;

            let timing = ClusterTiming {
                seconds: broadcast_seconds + module_seconds + collect_seconds,
                broadcast_seconds,
                module_seconds,
                collect_seconds,
                energy_mj,
            };

            if let Some(sink) = &self.telemetry {
                let link_seconds = broadcast_seconds + collect_wire_seconds;
                sink.record(self.cluster_record(qi, k, &batches, &timing, link_seconds));
            }
            out.push((top.into_sorted(), timing));
        }
        Ok(out)
    }

    /// Builds the checked telemetry record for query `qi`: one
    /// [`VaultAccount`] per *module*, with each module's end-to-end time
    /// standing in for the roofline term its own classification came
    /// from (so [`telemetry::critical_path`] over the accounts reproduces
    /// both the slowest-module span and its memory-vs-compute verdict).
    fn cluster_record(
        &self,
        qi: usize,
        k: usize,
        batches: &[BatchResult],
        timing: &ClusterTiming,
        link_seconds: f64,
    ) -> QueryRecord {
        let mut accounts = Vec::with_capacity(batches.len());
        let mut total_cycles = 0u64;
        let mut total_bytes = 0u64;
        let mut pus_per_vault = 1usize;
        for (mi, batch) in batches.iter().enumerate() {
            let t = &batch.results[qi].timing;
            accounts.push(VaultAccount {
                vault: mi,
                cycles: t.total_cycles,
                bytes: t.total_bytes,
                instructions: 0,
                pqueue_ops: 0,
                stack_ops: 0,
                scratchpad_accesses: 0,
                mem_seconds: if t.compute_bound { 0.0 } else { t.seconds },
                comp_seconds: if t.compute_bound { t.seconds } else { 0.0 },
                compute_bound: t.compute_bound,
                energy_mj: t.energy_mj,
            });
            total_cycles += t.total_cycles;
            total_bytes += t.total_bytes;
            pus_per_vault = pus_per_vault.max(t.pus_per_vault);
        }
        let (_, _, compute_bound) = telemetry::critical_path(&accounts).unwrap_or((0, 0.0, false));
        QueryRecord {
            seq: 0,
            kind: RecordKind::Cluster,
            label: format!("cluster[{}]", self.modules.len()),
            batch: 1,
            k,
            pus_per_vault,
            vaults: accounts,
            phases: Phases {
                stage_seconds: 0.0,
                simulate_seconds: timing.module_seconds,
                link_seconds,
                merge_seconds: (self.modules.len() * k) as f64 * 1e-9,
                fault_seconds: 0.0,
            },
            seconds: timing.seconds,
            compute_bound,
            total_cycles,
            total_bytes,
            energy_mj: timing.energy_mj,
            faults: FaultRecord::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssam_knn::linear::knn_exact;
    use ssam_knn::Metric;

    use rand::rngs::StdRng;
    use rand::RngExt;
    use rand::SeedableRng;

    fn random_store(n: usize, dims: usize, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dims, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dims).map(|_| rng.random_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn cluster_matches_exact_search() {
        let store = random_store(600, 8, 1);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 4, &store);
        let q: Vec<f32> = store.get(222).to_vec();
        let (ns, _) = cluster.query(&q, 7).expect("runs");
        let expect: Vec<u32> = knn_exact(&store, &q, 7, Metric::Euclidean)
            .iter()
            .map(|n| n.id)
            .collect();
        let got: Vec<u32> = ns.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn cluster_matches_single_module() {
        let store = random_store(300, 6, 2);
        let q = [0.1f32; 6];
        let mut one = SsamCluster::build(SsamConfig::default(), 1, &store);
        let mut four = SsamCluster::build(SsamConfig::default(), 4, &store);
        let (n1, _) = one.query(&q, 5).expect("runs");
        let (n4, _) = four.query(&q, 5).expect("runs");
        assert_eq!(
            n1.iter().map(|n| n.id).collect::<Vec<_>>(),
            n4.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn modules_split_capacity() {
        let store = random_store(500, 4, 3);
        let cluster = SsamCluster::build(SsamConfig::default(), 4, &store);
        assert_eq!(cluster.num_modules(), 4);
        assert_eq!(cluster.len(), 500);
        let held: usize = cluster.modules.iter().map(|m| m.len()).sum();
        assert_eq!(held, 500);
    }

    #[test]
    fn more_modules_cut_per_module_time() {
        let store = random_store(1000, 16, 4);
        let q = [0.0f32; 16];
        let mut one = SsamCluster::build(SsamConfig::default(), 1, &store);
        let mut four = SsamCluster::build(SsamConfig::default(), 4, &store);
        let (_, t1) = one.query(&q, 5).expect("runs");
        let (_, t4) = four.query(&q, 5).expect("runs");
        assert!(
            t4.module_seconds < t1.module_seconds,
            "sharding across modules must shrink per-module scan time"
        );
    }

    #[test]
    fn link_terms_grow_with_chain_depth() {
        let store = random_store(400, 8, 5);
        let q = [0.0f32; 8];
        let mut two = SsamCluster::build(SsamConfig::default(), 2, &store);
        let mut eight = SsamCluster::build(SsamConfig::default(), 8, &store);
        let (_, t2) = two.query(&q, 5).expect("runs");
        let (_, t8) = eight.query(&q, 5).expect("runs");
        assert!(t8.broadcast_seconds > t2.broadcast_seconds);
        assert!(t8.collect_seconds > t2.collect_seconds);
    }

    #[test]
    fn result_traffic_is_tiny_relative_to_data() {
        // The paper's claim that external links never bottleneck: result
        // volume is modules × k tuples vs the full dataset streamed
        // internally.
        let store = random_store(800, 32, 6);
        let q = [0.0f32; 32];
        let mut cluster = SsamCluster::build(SsamConfig::default(), 4, &store);
        let (_, t) = cluster.query(&q, 10).expect("runs");
        assert!(t.broadcast_seconds + t.collect_seconds < 0.15 * t.seconds);
    }

    #[test]
    fn cluster_batch_matches_serial_loop() {
        let store = random_store(400, 6, 8);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 3, &store);
        let qs: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..6).map(|j| ((i + 2 * j) as f32 * 0.4).cos()).collect())
            .collect();
        let refs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
        let batch = cluster.query_batch(&refs, 5).expect("batch runs");
        assert_eq!(batch.len(), 4);
        for (q, (neighbors, timing)) in refs.iter().zip(&batch) {
            let (sn, st) = cluster.query(q, 5).expect("serial runs");
            assert_eq!(&sn, neighbors);
            assert_eq!(&st, timing);
        }
    }

    /// Vectors on a line: vector `i` is `[0.1·i, 0, …]`, so nearest
    /// neighbors of a point are the ids around it and module boundaries
    /// fall at known ids.
    fn line_store(n: usize, dims: usize) -> VectorStore {
        let mut s = VectorStore::with_capacity(dims, n);
        for i in 0..n {
            let mut v = vec![0.0f32; dims];
            v[0] = i as f32 * 0.1;
            s.push(&v);
        }
        s
    }

    #[test]
    fn topk_straddling_a_module_boundary_remaps_global_ids() {
        let store = line_store(100, 4);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 2, &store);
        // The module boundary is at id 50; a query at 4.96 pulls its
        // top-6 from both sides, so every id from module 1 must come back
        // offset by its base (a module-local id would collide with
        // module 0's range).
        let q = [4.96f32, 0.0, 0.0, 0.0];
        let (ns, _) = cluster.query(&q, 6).expect("runs");
        let got: Vec<u32> = ns.iter().map(|n| n.id).collect();
        let expect: Vec<u32> = knn_exact(&store, &q, 6, Metric::Euclidean)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(got, expect);
        assert!(
            got.iter().any(|&id| id < 50) && got.iter().any(|&id| id >= 50),
            "top-k must straddle the boundary: {got:?}"
        );
        let unique: std::collections::HashSet<u32> = got.iter().copied().collect();
        assert_eq!(unique.len(), got.len(), "global ids must not collide");
    }

    #[test]
    fn batched_boundary_queries_remap_global_ids() {
        let store = line_store(100, 4);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 4, &store);
        // Boundaries at ids 25, 50, 75 — one query lands on each.
        let centers = [(2.46f32, 25u32), (4.96, 50), (7.46, 75)];
        let qs: Vec<Vec<f32>> = centers
            .iter()
            .map(|&(x, _)| vec![x, 0.0, 0.0, 0.0])
            .collect();
        let refs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
        let batch = cluster.query_batch(&refs, 4).expect("runs");
        assert_eq!(batch.len(), 3);
        for ((q, &(_, boundary)), (ns, _)) in refs.iter().zip(&centers).zip(&batch) {
            let got: Vec<u32> = ns.iter().map(|n| n.id).collect();
            let expect: Vec<u32> = knn_exact(&store, q, 4, Metric::Euclidean)
                .iter()
                .map(|n| n.id)
                .collect();
            assert_eq!(got, expect, "boundary {boundary}");
            assert!(
                got.iter().any(|&id| id < boundary) && got.iter().any(|&id| id >= boundary),
                "top-k must straddle boundary {boundary}: {got:?}"
            );
            let unique: std::collections::HashSet<u32> = got.iter().copied().collect();
            assert_eq!(unique.len(), got.len(), "global ids must not collide");
        }
    }

    #[test]
    fn telemetry_records_checked_cluster_accounts() {
        let store = random_store(400, 6, 9);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 3, &store);
        let sink = Telemetry::default();
        cluster.attach_telemetry(&sink);
        let qs: Vec<Vec<f32>> = (0..2)
            .map(|i| (0..6).map(|j| ((i + 3 * j) as f32 * 0.3).sin()).collect())
            .collect();
        let refs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
        let batch = cluster.query_batch(&refs, 5).expect("runs");
        assert_eq!(sink.len(), 2);
        assert!(
            sink.violations().is_empty(),
            "cluster accounts must self-check clean: {:?}",
            sink.violations()
        );
        for (r, (_, t)) in sink.records().iter().zip(&batch) {
            assert_eq!(r.kind, RecordKind::Cluster);
            assert_eq!(r.vaults.len(), 3, "one account per module");
            assert_eq!(r.seconds, t.seconds);
            assert_eq!(r.energy_mj, t.energy_mj);
            assert_eq!(r.phases.simulate_seconds, t.module_seconds);
            telemetry::verify_record(r).expect("record passes verification");
        }
    }

    #[test]
    fn degenerate_batches_return_typed_errors() {
        // Regression: the cluster entry point used to panic on an empty
        // batch or k == 0; both are now typed rejections.
        let store = random_store(60, 4, 10);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 2, &store);
        let empty: [&[f32]; 0] = [];
        assert_eq!(
            cluster.query_batch(&empty, 3).unwrap_err(),
            SimError::EmptyBatch
        );
        let q = [0.0f32; 4];
        assert_eq!(cluster.query_batch(&[&q], 0).unwrap_err(), SimError::ZeroK);
        assert_eq!(cluster.query(&q, 0).unwrap_err(), SimError::ZeroK);
    }

    #[test]
    fn more_modules_than_vectors_is_clamped() {
        let store = random_store(3, 4, 7);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 8, &store);
        assert!(cluster.num_modules() <= 3);
        let (ns, _) = cluster.query(&[0.0; 4], 2).expect("runs");
        assert_eq!(ns.len(), 2);
    }
}
