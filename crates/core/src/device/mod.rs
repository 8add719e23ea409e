//! Module-level SSAM device: sharding, replication, query execution.
//!
//! Assembles the full Section III system: the dataset is sharded
//! contiguously across HMC vaults; each vault's SSAM accelerator runs
//! replicated processing units over its shard ("we replicate processing
//! units to fully use the memory bandwidth by measuring the peak bandwidth
//! needs of each processing unit"); per-vault top-k results are reduced on
//! the host ("the host processor broadcasts the search across SSAM
//! processing units and performs the final set of global top-k reductions
//! on the host processor").
//!
//! Execution is *functionally* exact — every vault's kernel is simulated
//! instruction-by-instruction over its real shard, and the merged neighbor
//! set is validated against the `ssam-knn` reference in tests — while
//! *timing* combines the simulated cycle counts with the vault-bandwidth
//! roofline of `ssam-hmc`.

pub mod cluster;
mod fastpath;
pub mod indexed;
pub mod memregion;

pub use fastpath::raw_distance;

use std::collections::HashMap;
use std::sync::Arc;

use rayon::prelude::*;
use ssam_faults::{FaultPlan, FaultRecord, VaultFault};
use ssam_hmc::dram::{Secded32, SecdedOutcome, SECDED_CODE_BITS};
use ssam_hmc::HmcConfig;
use ssam_knn::binary::BinaryStore;
use ssam_knn::distance::norm_sq;
use ssam_knn::fixed::Fix32;
use ssam_knn::topk::{Neighbor, TopK};
use ssam_knn::VectorStore;

use crate::energy::{effective_power, Activity};
use crate::isa::inst::Instruction;
use crate::isa::{DRAM_BASE, PQUEUE_DEPTH};
use crate::kernels::{linear, Kernel};
use crate::sim::pu::{ProcessingUnit, RunStats, SimError};
use crate::telemetry::{self, Phases, QueryRecord, RecordKind, Telemetry, VaultAccount};

/// Device configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsamConfig {
    /// The memory module geometry.
    pub hmc: HmcConfig,
    /// Processing-unit vector length (2/4/8/16).
    pub vector_length: usize,
    /// Logic-layer clock frequency in Hz.
    pub freq_hz: f64,
    /// Cap on processing units per vault accelerator.
    pub max_pus_per_vault: usize,
    /// Use the hardware priority queue (false = Section V-B software-queue
    /// ablation).
    pub use_hw_queue: bool,
    /// Stage the optimizer's output (default). `false` stages each
    /// kernel's [`crate::kernels::Kernel::raw_program`] instead — the
    /// A/B escape hatch used by the differential tests and
    /// `serve_load --no-opt`.
    pub optimize_kernels: bool,
    /// Execute eligible queries through the analytic fast path
    /// ([`fastpath`]): distances computed host-side, counters synthesized
    /// by the static cost model, selection through the same hardware
    /// priority queue — bit-identical results without per-instruction
    /// interpretation. Applies to the hardware-queue Euclidean /
    /// Manhattan / Hamming kernels; cosine and software-queue queries
    /// fall back to the cycle simulator per query. Default `false` (the
    /// simulator remains authoritative; `serve_load --fast-path` and the
    /// equivalence tests flip this on).
    pub fast_path: bool,
}

impl Default for SsamConfig {
    fn default() -> Self {
        Self {
            hmc: HmcConfig::hmc2(),
            vector_length: 4,
            freq_hz: 1.0e9,
            max_pus_per_vault: 8,
            use_hw_queue: true,
            optimize_kernels: true,
            fast_path: false,
        }
    }
}

/// Which kernel family a query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceMetric {
    /// Squared Euclidean (canonical).
    Euclidean,
    /// Manhattan (L1).
    Manhattan,
    /// Cosine distance with software division.
    Cosine,
    /// Hamming over binarized codes via `VFXP`.
    Hamming,
}

/// A query in the representation its kernel consumes.
#[derive(Debug, Clone)]
pub enum DeviceQuery<'a> {
    /// Float query for the Euclidean kernel.
    Euclidean(&'a [f32]),
    /// Float query for the Manhattan kernel.
    Manhattan(&'a [f32]),
    /// Float query for the cosine kernel.
    Cosine(&'a [f32]),
    /// Packed binary query for the Hamming kernel.
    Hamming(&'a [u32]),
}

impl DeviceQuery<'_> {
    /// The metric this query selects.
    pub fn metric(&self) -> DeviceMetric {
        match self {
            DeviceQuery::Euclidean(_) => DeviceMetric::Euclidean,
            DeviceQuery::Manhattan(_) => DeviceMetric::Manhattan,
            DeviceQuery::Cosine(_) => DeviceMetric::Cosine,
            DeviceQuery::Hamming(_) => DeviceMetric::Hamming,
        }
    }
}

/// One vault's slice of the dataset.
#[derive(Debug, Clone)]
struct Shard {
    words: Arc<Vec<i32>>,
    first_id: u32,
    vectors: usize,
}

/// One query staged for batched execution.
struct StagedQuery {
    /// Padded scratchpad image of the query.
    words: Vec<i32>,
    /// Cosine `s10` query norm, when the kernel needs it.
    norm: Option<i32>,
    /// Metric the query selects (fast-path eligibility).
    metric: DeviceMetric,
    /// Kernel the query runs.
    kernel: Arc<Kernel>,
    /// Shared instruction image — one allocation per distinct kernel per
    /// batch, handed to every recycled PU by `Arc` clone.
    program: Arc<Vec<Instruction>>,
}

/// Converts a kernel's raw distance word into host float units: feature
/// vectors compute Q16.16 fixed-point distances, binary codes raw
/// popcount counts.
fn host_dist(payload: Payload, raw: i32) -> f32 {
    match payload {
        Payload::Fixed { .. } => Fix32(raw).to_f32(),
        Payload::Binary { .. } => raw as f32,
    }
}

/// What kind of payload is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    /// Q16.16 feature vectors of the given dimensionality.
    Fixed {
        /// Original dimensionality.
        dims: usize,
    },
    /// Packed binary codes of the given word count.
    Binary {
        /// Packed words per code.
        words: usize,
    },
}

/// Timing/energy account for one device query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTiming {
    /// Wall-clock seconds for the query (slowest vault + host reduce +
    /// link transfer).
    pub seconds: f64,
    /// Processing units instantiated per vault for this kernel.
    pub pus_per_vault: usize,
    /// True when compute cycles (not vault bandwidth) set the pace.
    pub compute_bound: bool,
    /// Aggregate simulated cycles across all PUs.
    pub total_cycles: u64,
    /// Aggregate DRAM bytes streamed.
    pub total_bytes: u64,
    /// Device energy for the query in millijoules (all accelerators).
    pub energy_mj: f64,
}

/// Result of one device query.
#[derive(Debug, Clone)]
pub struct DeviceResult {
    /// Global top-k, best first — exact over the covered fraction of the
    /// dataset (the whole dataset unless faults lost vaults).
    pub neighbors: Vec<Neighbor>,
    /// Timing/energy account.
    pub timing: QueryTiming,
    /// Per-vault simulation statistics (vault 0 first).
    pub vault_stats: Vec<RunStats>,
    /// Fault accounting for this query: injected/corrected/retried/lost
    /// counters plus the covered-vector tally. Trivial when no fault plan
    /// is attached or nothing fired.
    pub faults: FaultRecord,
}

impl DeviceResult {
    /// Fraction of candidate vectors actually scanned for this query.
    pub fn coverage(&self) -> f64 {
        self.faults.coverage()
    }
}

/// The SSAM device.
#[derive(Debug, Clone)]
pub struct SsamDevice {
    config: SsamConfig,
    shards: Vec<Shard>,
    payload: Option<Payload>,
    vec_words: usize,
    vectors: usize,
    kernel_cache: HashMap<(DeviceMetric, usize), Arc<Kernel>>,
    telemetry: Option<Telemetry>,
    faults: Option<Arc<FaultPlan>>,
    /// Disambiguates fault-key streams across device clones (serve
    /// worker index, store segment id).
    fault_scope: u64,
    /// Monotonic query counter keying per-(query, vault) fault decisions.
    query_seq: u64,
}

impl SsamDevice {
    /// Creates an empty device.
    ///
    /// # Panics
    /// Panics if the vector length is not a supported design point.
    pub fn new(config: SsamConfig) -> Self {
        assert!(
            crate::isa::VECTOR_LENGTHS.contains(&config.vector_length),
            "vector length {} not supported",
            config.vector_length
        );
        Self {
            config,
            shards: Vec::new(),
            payload: None,
            vec_words: 0,
            vectors: 0,
            kernel_cache: HashMap::new(),
            telemetry: None,
            faults: None,
            fault_scope: 0,
            query_seq: 0,
        }
    }

    /// Attaches (or clears) a fault-injection plan. Every subsequent query
    /// samples the plan's channels per (query, vault), keyed by the
    /// device's seed/scope/sequence state, so a run is bit-reproducible.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Sets the fault key scope (serve worker index, store segment id)
    /// so device clones sample decorrelated fault streams.
    pub fn set_fault_scope(&mut self, scope: u64) {
        self.fault_scope = scope;
    }

    /// The next query sequence number (how many queries this device has
    /// executed).
    pub fn query_seq(&self) -> u64 {
        self.query_seq
    }

    /// Per-vault shard spans as `(first_id, vectors)`, vault 0 first.
    /// Fault-tolerance tests use this to reconstruct the covered id set
    /// from a result's lost vaults.
    pub fn shard_spans(&self) -> Vec<(u32, usize)> {
        self.shards
            .iter()
            .map(|s| (s.first_id, s.vectors))
            .collect()
    }

    /// Device configuration.
    pub fn config(&self) -> &SsamConfig {
        &self.config
    }

    /// Attaches a telemetry sink: every subsequent
    /// [`SsamDevice::query_batch`] emits one verified [`QueryRecord`] per
    /// query plus one batch-level record into it. The sink is
    /// `Arc`-shared, so one handle may observe many devices.
    pub fn attach_telemetry(&mut self, sink: &Telemetry) {
        self.telemetry = Some(sink.clone());
    }

    /// Detaches the telemetry sink, if any.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Number of vectors loaded.
    pub fn len(&self) -> usize {
        self.vectors
    }

    /// Whether no dataset is loaded.
    pub fn is_empty(&self) -> bool {
        self.vectors == 0
    }

    /// Words per (padded) stored vector.
    pub fn vec_words(&self) -> usize {
        self.vec_words
    }

    /// Expected query length for the loaded payload: feature
    /// dimensionality for float datasets, packed 32-bit words for binary
    /// codes. `None` before a dataset is loaded. Host-side layers (the
    /// serving runtime's admission control) use this to reject malformed
    /// queries before they reach a worker thread.
    pub fn query_len(&self) -> Option<usize> {
        self.payload.map(|p| match p {
            Payload::Fixed { dims } => dims,
            Payload::Binary { words } => words,
        })
    }

    /// Whether the loaded payload is packed binary codes (Hamming
    /// kernels) rather than fixed-point feature vectors. `None` before a
    /// dataset is loaded.
    pub fn payload_is_binary(&self) -> Option<bool> {
        self.payload.map(|p| matches!(p, Payload::Binary { .. }))
    }

    /// Loads a float dataset: quantizes to Q16.16 (`nmemcpy` semantics),
    /// pads each vector to a vector-length multiple, and shards evenly
    /// across vaults.
    pub fn load_vectors(&mut self, store: &VectorStore) {
        assert!(!store.is_empty(), "cannot load an empty dataset");
        let vl = self.config.vector_length;
        let dims = store.dims();
        let vw = dims.div_ceil(vl) * vl;
        self.stage(store.len(), vw, Payload::Fixed { dims }, |id, out| {
            let v = store.get(id);
            for &x in v {
                out.push(Fix32::from_f32(x).0);
            }
            out.resize(out.len() + (vw - v.len()), 0);
        });
    }

    /// Loads a binarized dataset for Hamming kernels.
    pub fn load_binary(&mut self, store: &BinaryStore) {
        assert!(!store.is_empty(), "cannot load an empty dataset");
        let vl = self.config.vector_length;
        let words = store.words_per_vec();
        let vw = words.div_ceil(vl) * vl;
        self.stage(store.len(), vw, Payload::Binary { words }, |id, out| {
            for &w in store.get(id) {
                out.push(w as i32);
            }
            out.resize(out.len() + (vw - words), 0);
        });
    }

    fn stage(
        &mut self,
        n: usize,
        vec_words: usize,
        payload: Payload,
        mut emit: impl FnMut(u32, &mut Vec<i32>),
    ) {
        let vaults = self.config.hmc.vaults.min(n);
        let per = n.div_ceil(vaults);
        let mut shards = Vec::with_capacity(vaults);
        let mut next = 0usize;
        while next < n {
            let count = per.min(n - next);
            let mut words = Vec::with_capacity(count * vec_words);
            for id in next..next + count {
                emit(id as u32, &mut words);
            }
            shards.push(Shard {
                words: Arc::new(words),
                first_id: next as u32,
                vectors: count,
            });
            next += count;
        }
        // Shard byte span must stay within the PU's positive address space.
        let max_bytes = shards.iter().map(|s| s.words.len() * 4).max().unwrap_or(0);
        assert!(
            (DRAM_BASE as usize + max_bytes) < i32::MAX as usize,
            "shard too large for the PU address space; use more vaults"
        );
        self.shards = shards;
        self.payload = Some(payload);
        self.vec_words = vec_words;
        self.vectors = n;
        self.kernel_cache.clear();
    }

    /// Builds (or reuses) the kernel for a metric at the loaded layout.
    fn kernel_for(&mut self, metric: DeviceMetric, k: usize) -> Arc<Kernel> {
        let payload = self.payload.expect("dataset loaded");
        let vl = self.config.vector_length;
        let cache_k = if self.config.use_hw_queue { 0 } else { k };
        if let Some(kn) = self.kernel_cache.get(&(metric, cache_k)) {
            return Arc::clone(kn);
        }
        let kernel = match (metric, payload) {
            (DeviceMetric::Euclidean, Payload::Fixed { dims }) => {
                if self.config.use_hw_queue {
                    linear::euclidean(dims, vl)
                } else {
                    linear::euclidean_swqueue(dims, vl, k)
                }
            }
            (DeviceMetric::Manhattan, Payload::Fixed { dims }) => {
                if self.config.use_hw_queue {
                    linear::manhattan(dims, vl)
                } else {
                    linear::manhattan_swqueue(dims, vl, k)
                }
            }
            (DeviceMetric::Cosine, Payload::Fixed { dims }) => {
                if self.config.use_hw_queue {
                    linear::cosine(dims, vl)
                } else {
                    linear::cosine_swqueue(dims, vl, k)
                }
            }
            (DeviceMetric::Hamming, Payload::Binary { words }) => {
                if self.config.use_hw_queue {
                    linear::hamming(words, vl)
                } else {
                    linear::hamming_swqueue(words, vl, k)
                }
            }
            (m, p) => panic!("metric {m:?} incompatible with loaded payload {p:?}"),
        };
        debug_assert_eq!(kernel.layout.vec_words, self.vec_words);
        let kernel = Arc::new(kernel);
        self.kernel_cache
            .insert((metric, cache_k), Arc::clone(&kernel));
        kernel
    }

    /// Quantizes a float query to the scratchpad image (padded).
    fn quantize_query(&self, q: &[f32]) -> Vec<i32> {
        let mut out: Vec<i32> = q.iter().map(|&x| Fix32::from_f32(x).0).collect();
        out.resize(self.vec_words, 0);
        out
    }

    /// Queries per (vault, tile) work item: one simulated PU is recycled
    /// across this many queries of a batch before the scheduler moves to
    /// the next item (balances PU reuse against parallel slack across
    /// worker threads).
    const QUERY_TILE: usize = 16;

    /// Stages one query: the padded scratchpad image plus any extra
    /// driver register state (cosine's `s10` query norm).
    fn stage_query(&self, query: &DeviceQuery<'_>, payload: Payload) -> (Vec<i32>, Option<i32>) {
        match (query, payload) {
            (DeviceQuery::Euclidean(q) | DeviceQuery::Manhattan(q), Payload::Fixed { dims }) => {
                assert_eq!(q.len(), dims, "query dimensionality mismatch");
                (self.quantize_query(q), None)
            }
            (DeviceQuery::Cosine(q), Payload::Fixed { dims }) => {
                assert_eq!(q.len(), dims, "query dimensionality mismatch");
                (self.quantize_query(q), Some(Fix32::from_f32(norm_sq(q)).0))
            }
            (DeviceQuery::Hamming(q), Payload::Binary { words }) => {
                assert_eq!(q.len(), words, "query code-length mismatch");
                let mut out: Vec<i32> = q.iter().map(|&w| w as i32).collect();
                out.resize(self.vec_words, 0);
                (out, None)
            }
            _ => panic!("query representation incompatible with loaded payload"),
        }
    }

    /// Executes one query across all vaults and merges the result
    /// (`nexec` + `nread_result` semantics) — the single-query special
    /// case of [`SsamDevice::query_batch`].
    ///
    /// # Errors
    /// Returns [`SimError::ZeroK`] when `k == 0`.
    ///
    /// # Panics
    /// Panics if no dataset is loaded or the query shape mismatches it.
    pub fn query(&mut self, query: &DeviceQuery<'_>, k: usize) -> Result<DeviceResult, SimError> {
        let mut batch = self.query_batch(std::slice::from_ref(query), k)?;
        Ok(batch.results.pop().expect("one result per query"))
    }

    /// Executes a batch of queries across all vaults and merges each
    /// query's per-vault top-k on the host (Section III-E: queries are
    /// aggregated into batches before being issued to the accelerator).
    ///
    /// Functionally every query sees exactly the serial
    /// [`SsamDevice::query`] semantics — neighbors and per-query stats are
    /// bit-identical to a serial loop — but the engine parallelizes over
    /// (vault × query-tile) work items, recycles one processing unit per
    /// work item across its tile (architectural-state reset plus query
    /// rewrite instead of reconstruction), and shares one instruction
    /// image per distinct kernel instead of cloning it per (query, vault).
    /// The batch-level account in [`BatchResult::timing`] additionally
    /// pipelines each vault's runs over a single provisioning decision.
    ///
    /// # Errors
    /// Returns [`SimError::EmptyBatch`] for an empty query slice and
    /// [`SimError::ZeroK`] for `k == 0` — degenerate requests are typed
    /// rejections, not panics, so online callers (the serving runtime)
    /// can surface them without unwinding a worker.
    ///
    /// # Panics
    /// Panics if no dataset is loaded or a query shape mismatches the
    /// loaded payload (both are caller programming errors, not request
    /// data).
    pub fn query_batch(
        &mut self,
        queries: &[DeviceQuery<'_>],
        k: usize,
    ) -> Result<BatchResult, SimError> {
        assert!(!self.is_empty(), "no dataset loaded");
        if queries.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        if k == 0 {
            return Err(SimError::ZeroK);
        }
        let payload = self.payload.expect("dataset loaded");

        // Stage every query up front; distinct kernels share one
        // instruction image across the whole batch.
        let stage_start = std::time::Instant::now();
        let mut programs: HashMap<String, Arc<Vec<Instruction>>> = HashMap::new();
        let staged: Vec<StagedQuery> = queries
            .iter()
            .map(|q| {
                let (words, norm) = self.stage_query(q, payload);
                let kernel = self.kernel_for(q.metric(), k);
                let optimize = self.config.optimize_kernels;
                let program =
                    Arc::clone(programs.entry(kernel.name.clone()).or_insert_with(|| {
                        Arc::new(if optimize {
                            kernel.program.clone()
                        } else {
                            kernel.raw_program.clone()
                        })
                    }));
                StagedQuery {
                    words,
                    norm,
                    metric: q.metric(),
                    kernel,
                    program,
                }
            })
            .collect();
        let stage_seconds = stage_start.elapsed().as_secs_f64();

        // Sample the per-(query, vault) fault grid up front, keyed by
        // `(seed, scope, query_seq, vault)` so any run is
        // bit-reproducible. `None` — no plan attached, or nothing fired —
        // keeps execution on the legacy fault-free path, so a zero-fault
        // plan stays bit-identical to no plan at all.
        let base_seq = self.query_seq;
        self.query_seq += queries.len() as u64;
        let fault_grid: Option<Vec<Vec<VaultFault>>> = self.faults.as_ref().and_then(|plan| {
            let grid: Vec<Vec<VaultFault>> = (0..queries.len())
                .map(|qi| {
                    (0..self.shards.len())
                        .map(|v| plan.vault_fault(self.fault_scope, base_seq + qi as u64, v as u64))
                        .collect()
                })
                .collect();
            if grid.iter().flatten().all(VaultFault::is_trivial) {
                None
            } else {
                Some(grid)
            }
        });
        let fg = fault_grid.as_deref();

        let vl = self.config.vector_length;
        let use_hw = self.config.use_hw_queue;
        let fast_enabled = self.config.fast_path && use_hw;
        let vec_words = self.vec_words;
        let pq_chain = k.div_ceil(PQUEUE_DEPTH);
        // Generous runaway guard: the rolled chunk loop executes ~9
        // instructions per vector-length chunk plus per-vector
        // reduction/queue overhead (worst case: the software-queue
        // shifting loop).
        let per_vec = 16 * self.vec_words as u64 + 64 * k as u64 + 2048;
        let swinit: Vec<i32> = if use_hw {
            Vec::new()
        } else {
            (0..k).flat_map(|_| [i32::MAX, -1]).collect()
        };
        let shards = &self.shards;

        // (vault × query-tile) work items.
        let mut items: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for si in 0..shards.len() {
            let mut q0 = 0;
            while q0 < staged.len() {
                let q1 = (q0 + Self::QUERY_TILE).min(staged.len());
                items.push((si, q0..q1));
                q0 = q1;
            }
        }

        // Simulate every work item (in parallel threads; each vault is an
        // independent accelerator and each tile its own PU).
        type TileOut = (usize, usize, Vec<(Vec<Neighbor>, RunStats)>);
        let tiles: Result<Vec<TileOut>, SimError> = items
            .par_iter()
            .map(|(si, range)| {
                let shard = &shards[*si];
                let mut pu = ProcessingUnit::new(vl, Arc::clone(&shard.words));
                if use_hw {
                    pu.chain_pqueue(pq_chain);
                }
                let budget = 10_000u64 + shard.vectors as u64 * per_vec;
                let mut loaded: Option<&str> = None;
                // Fast-path counters depend only on (program, vl, n), so
                // one synthesis per distinct kernel serves the whole tile.
                let mut synth: HashMap<&str, Option<RunStats>> = HashMap::new();
                let mut out = Vec::with_capacity(range.len());
                for (off, sq) in staged[range.clone()].iter().enumerate() {
                    // A vault outage means this (query, vault) run never
                    // executes: no neighbors, no retired work.
                    if fg.is_some_and(|g| g[range.start + off][*si].outage) {
                        out.push((Vec::new(), RunStats::default()));
                        continue;
                    }
                    // Analytic fast path: host-side Q16.16 distances, the
                    // same hardware priority queue, counters from the
                    // static cost model — bit-identical to the simulator
                    // without interpreting instructions. Queries whose
                    // counters do not resolve exactly (or that would trip
                    // the simulator's runaway budget) fall through to the
                    // cycle simulator below.
                    if fast_enabled && fastpath::supported(sq.metric) {
                        let stats = *synth.entry(sq.kernel.name.as_str()).or_insert_with(|| {
                            fastpath::synthesize_stats(&sq.program, vl, shard.vectors as u64)
                        });
                        if let Some(stats) = stats.filter(|s| s.instructions <= budget) {
                            let neighbors = fastpath::scan_shard(
                                sq.metric,
                                &sq.words,
                                &shard.words,
                                vec_words,
                                k,
                                pq_chain,
                            )
                            .into_iter()
                            .map(|(id, value)| {
                                Neighbor::new(shard.first_id + id as u32, host_dist(payload, value))
                            })
                            .collect();
                            out.push((neighbors, stats));
                            continue;
                        }
                    }
                    if loaded.is_some() {
                        pu.reset_state();
                    }
                    if loaded != Some(sq.kernel.name.as_str()) {
                        pu.load_program(Arc::clone(&sq.program));
                        loaded = Some(sq.kernel.name.as_str());
                    }
                    pu.scratchpad_mut()
                        .write_block(sq.kernel.layout.query_addr, &sq.words)
                        .expect("query fits scratchpad");
                    if !use_hw {
                        // Initialize the software queue: k (MAX, -1) pairs.
                        pu.scratchpad_mut()
                            .write_block(sq.kernel.layout.swqueue_addr, &swinit)
                            .expect("queue fits scratchpad");
                    }
                    pu.set_sreg(1, DRAM_BASE as i32);
                    pu.set_sreg(2, DRAM_BASE as i32 + (shard.words.len() * 4) as i32);
                    pu.set_sreg(3, 0); // local ids; remapped below
                    if let Some(norm) = sq.norm {
                        pu.set_sreg(10, norm);
                    }
                    let stats = pu.run(budget)?;

                    let neighbors: Vec<Neighbor> = if use_hw {
                        pu.pqueue()
                            .entries()
                            .iter()
                            .take(k)
                            .map(|e| {
                                Neighbor::new(
                                    shard.first_id + e.id as u32,
                                    host_dist(payload, e.value),
                                )
                            })
                            .collect()
                    } else {
                        pu.scratchpad()
                            .read_block(sq.kernel.layout.swqueue_addr, 2 * k)
                            .expect("queue readable")
                            .chunks_exact(2)
                            .filter(|pair| pair[1] >= 0)
                            .map(|pair| {
                                Neighbor::new(
                                    shard.first_id + pair[1] as u32,
                                    host_dist(payload, pair[0]),
                                )
                            })
                            .collect()
                    };
                    out.push((neighbors, stats));
                }
                Ok((*si, range.start, out))
            })
            .collect();
        let tiles = tiles?;

        // Reassemble the (query, vault) grid in vault order.
        let n_vaults = shards.len();
        let batch = staged.len();
        type Cell = Option<(Vec<Neighbor>, RunStats)>;
        let mut grid: Vec<Vec<Cell>> = (0..batch)
            .map(|_| (0..n_vaults).map(|_| None).collect())
            .collect();
        for (si, q0, rows) in tiles {
            for (off, cell) in rows.into_iter().enumerate() {
                grid[q0 + off][si] = Some(cell);
            }
        }

        // Per-query host-side global top-k reduction + serial-equivalent
        // timing, then the batch-level pipelined account.
        let mut results = Vec::with_capacity(batch);
        let mut per_query_stats: Vec<Vec<RunStats>> = Vec::with_capacity(batch);
        let mut query_records: Vec<QueryRecord> = Vec::new();
        let mut per_query_faults: Vec<FaultRecord> = Vec::with_capacity(batch);
        for (qi, row) in grid.into_iter().enumerate() {
            let mut vault_stats = Vec::with_capacity(n_vaults);
            let mut vault_neighbors = Vec::with_capacity(n_vaults);
            for cell in row {
                let (neighbors, stats) = cell.expect("every (vault, query) item simulated");
                vault_neighbors.push(neighbors);
                vault_stats.push(stats);
            }
            let fault_row = fault_grid
                .as_ref()
                .map(|g| (base_seq + qi as u64, g[qi].as_slice()));
            let (timing, accounts, mut phases, frec) =
                self.account_query(&vault_stats, k, fault_row);
            // Merge per-vault candidates, dropping vaults whose results
            // were lost (outage, uncorrectable ECC, exhausted link
            // retries): the answer is exact over the covered fraction.
            let mut top = TopK::new(k);
            for (vi, neighbors) in vault_neighbors.iter().enumerate() {
                if fault_grid.as_ref().is_some_and(|g| g[qi][vi].lost()) {
                    continue;
                }
                for n in neighbors {
                    top.offer(n.id, n.dist);
                }
            }
            if self.telemetry.is_some() {
                phases.stage_seconds = stage_seconds / batch as f64;
                query_records.push(QueryRecord {
                    seq: 0,
                    kind: RecordKind::Query,
                    label: staged[qi].kernel.name.clone(),
                    batch: 1,
                    k,
                    pus_per_vault: timing.pus_per_vault,
                    vaults: accounts,
                    phases,
                    seconds: timing.seconds,
                    compute_bound: timing.compute_bound,
                    total_cycles: timing.total_cycles,
                    total_bytes: timing.total_bytes,
                    energy_mj: timing.energy_mj,
                    faults: frec.clone(),
                });
            }
            per_query_stats.push(vault_stats.clone());
            per_query_faults.push(frec.clone());
            results.push(DeviceResult {
                neighbors: top.into_sorted(),
                timing,
                vault_stats,
                faults: frec,
            });
        }
        let batch_faults = fault_grid
            .as_ref()
            .map(|g| (g.as_slice(), per_query_faults.as_slice()));
        let (timing, accounts, mut phases, batch_frec) =
            self.account_batch(&per_query_stats, k, batch_faults);
        if let Some(sink) = &self.telemetry {
            for r in &query_records {
                sink.record(r.clone());
            }
            phases.stage_seconds = stage_seconds;
            let batch_record = QueryRecord {
                seq: 0,
                kind: RecordKind::Batch,
                label: format!("batch[{batch}]"),
                batch,
                k,
                pus_per_vault: timing.pus_per_vault,
                vaults: accounts,
                phases,
                seconds: timing.seconds,
                compute_bound: timing.compute_bound,
                total_cycles: timing.total_cycles,
                total_bytes: timing.total_bytes,
                energy_mj: timing.energy_mj,
                faults: batch_frec.clone(),
            };
            sink.record_batch(batch_record, &query_records);
        }
        Ok(BatchResult {
            results,
            timing,
            faults: batch_frec,
        })
    }

    /// Derives query time and energy from per-vault simulation statistics.
    ///
    /// Per vault: the shard can be split across up to `max_pus_per_vault`
    /// PUs; replication is provisioned so PU compute no longer trails the
    /// vault's 10 GB/s ("replicate processing units to fully use the
    /// memory bandwidth"). Vault time is the roofline
    /// `max(bytes / vault_bw, cycles / (n_pu · freq))`; the query ends
    /// when the slowest vault does, plus the external-link transfer of
    /// the k-tuple results and a host merge allowance.
    /// Provisions PUs from the densest vault's streaming demand.
    fn provision_pus(&self, vault_stats: &[RunStats]) -> usize {
        let cfg = &self.config;
        let mut pus = 1usize;
        for s in vault_stats {
            // A vault that retired nothing (outage-injected) exerts no
            // streaming demand; without this skip its 0/0 roofline would
            // read as insatiable and force max provisioning. Fault-free
            // runs always retire cycles, so the legacy path is untouched.
            if s.cycles == 0 && s.dram.bytes_read == 0 {
                continue;
            }
            let bytes = s.dram.bytes_read.max(1) as f64;
            let secs = s.cycles.max(1) as f64 / cfg.freq_hz;
            let demand = bytes / secs; // one PU's streaming demand
            let need = (cfg.hmc.vault_bandwidth / demand).ceil() as usize;
            pus = pus.max(need.clamp(1, cfg.max_pus_per_vault));
        }
        pus
    }

    /// Timing-only view of [`SsamDevice::account_query`] (test seam for
    /// the classification regression tests).
    #[cfg(test)]
    fn derive_timing(&self, vault_stats: &[RunStats], k: usize) -> QueryTiming {
        self.account_query(vault_stats, k, None).0
    }

    /// Derives the query account: the summary [`QueryTiming`] plus the
    /// per-vault [`VaultAccount`]s and phase spans backing it. The
    /// memory-vs-compute classification comes from
    /// [`telemetry::critical_path`] — the vault that actually sets the
    /// critical path (strictly-greater keeps the first argmax on ties).
    fn account_query(
        &self,
        vault_stats: &[RunStats],
        k: usize,
        fault_row: Option<(u64, &[VaultFault])>,
    ) -> (QueryTiming, Vec<VaultAccount>, Phases, FaultRecord) {
        let cfg = &self.config;
        let pus = self.provision_pus(vault_stats);

        let mut vaults: Vec<VaultAccount> = vault_stats
            .iter()
            .enumerate()
            .map(|(i, s)| VaultAccount::from_stats(i, s, cfg.hmc.vault_bandwidth, cfg.freq_hz, pus))
            .collect();
        let rec = self.settle_faults(&mut vaults, k, fault_row);
        let (_, worst, compute_bound) =
            telemetry::critical_path(&vaults).unwrap_or((0, 0.0, false));

        // Result collection: each vault that completed its scan and had
        // data to send returns k (id, value) tuples (outage and
        // uncorrectable-ECC vaults never transmit); the host then merges
        // one k-list per vault whose transfer survived. Without faults
        // both counts equal the vault count, so the fault-free expression
        // is unchanged.
        let transfers = vault_stats.len() as u64 - rec.vault_outages - rec.lost_ecc;
        let merged = vault_stats.len() as u64 - rec.lost_units.len() as u64;
        let result_bytes = transfers * k as u64 * 8;
        let link_t =
            ssam_hmc::packet::bulk_wire_bytes(result_bytes) as f64 / cfg.hmc.external_bandwidth;
        // Host merge: ~log-depth reduction over vaults·k tuples at ~1 ns each.
        let merge_t = (merged * k as u64) as f64 * 1e-9;

        // `recovery_seconds` is 0.0 on the fault-free path, and adding
        // 0.0 to a finite non-negative sum is bitwise identity.
        let seconds = worst + link_t + merge_t + rec.recovery_seconds;

        // Energy: per-vault accelerator power at observed activity, over
        // the query duration, for every active PU.
        let mut energy_mj = 0.0;
        let mut total_cycles = 0u64;
        let mut total_bytes = 0u64;
        for (v, s) in vaults.iter_mut().zip(vault_stats) {
            let act = Activity::from_stats(s);
            let power_mw = effective_power(cfg.vector_length, &act);
            v.energy_mj = power_mw * seconds * pus as f64;
            energy_mj += v.energy_mj;
            total_cycles += s.cycles;
            total_bytes += s.dram.bytes_read;
        }

        let timing = QueryTiming {
            seconds,
            pus_per_vault: pus,
            compute_bound,
            total_cycles,
            total_bytes,
            energy_mj,
        };
        let phases = Phases {
            stage_seconds: 0.0,
            simulate_seconds: worst,
            link_seconds: link_t,
            merge_seconds: merge_t,
            fault_seconds: rec.recovery_seconds,
        };
        (timing, vaults, phases, rec)
    }

    /// Applies one query's fault row to its per-vault accounts and builds
    /// the closed [`FaultRecord`]: stragglers stretch their vault's
    /// roofline, every injected bit-flip event is pushed through the real
    /// SECDED codec over the actual shard words, CRC retries accrue
    /// recovery time, and each lost vault is attributed to exactly one
    /// cause (outage ≻ uncorrectable ECC ≻ link failure).
    fn settle_faults(
        &self,
        vaults: &mut [VaultAccount],
        k: usize,
        fault_row: Option<(u64, &[VaultFault])>,
    ) -> FaultRecord {
        let mut rec = FaultRecord::default();
        let Some((seq, row)) = fault_row else {
            return rec;
        };
        let plan = self
            .faults
            .as_ref()
            .expect("a sampled fault row implies an attached plan");
        rec.total_vectors = self.vectors as u64;
        // Retransmissions re-send this vault's k-tuple result payload.
        let per_vault_wire = ssam_hmc::packet::bulk_wire_bytes((k * 8) as u64) as f64
            / self.config.hmc.external_bandwidth;
        for (vi, f) in row.iter().enumerate() {
            if f.outage {
                rec.vault_outages += 1;
                rec.lost_outage += 1;
                rec.lost_units.push(vi as u32);
                continue;
            }
            if f.slowdown != 1.0 {
                // The straggling vault still scans — only slower; its
                // results remain valid, so it stretches the critical path
                // rather than shrinking coverage.
                vaults[vi].mem_seconds *= f.slowdown;
                vaults[vi].comp_seconds *= f.slowdown;
                rec.stragglers += 1;
            }
            rec.bit_flip_events += u64::from(f.bit_flip_events);
            if f.bit_flip_events > 0 {
                let words = &self.shards[vi].words;
                for e in 0..f.bit_flip_events {
                    // Which events are double matters only in aggregate;
                    // exercise the first `double_bit_events` as doubles.
                    let double = e < f.double_bit_events;
                    let widx = (plan.victim_index(self.fault_scope, seq, vi as u64, e)
                        % words.len() as u64) as usize;
                    let clean = words[widx] as u32;
                    let code = Secded32::encode(clean);
                    let (p0, p1) = plan.flip_positions(
                        self.fault_scope,
                        seq,
                        vi as u64,
                        e,
                        SECDED_CODE_BITS,
                        double,
                    );
                    let mut corrupted = code ^ (1u64 << p0);
                    if double {
                        corrupted ^= 1u64 << p1;
                    }
                    match Secded32::decode(corrupted) {
                        SecdedOutcome::Corrected { data, .. } => {
                            debug_assert!(!double, "double flip slipped past detection");
                            debug_assert_eq!(data, clean, "miscorrected word");
                            rec.ecc_corrected += 1;
                        }
                        SecdedOutcome::DoubleError => {
                            debug_assert!(double, "single flip flagged uncorrectable");
                            rec.ecc_uncorrectable += 1;
                        }
                        SecdedOutcome::Clean(_) => {
                            debug_assert!(false, "injected flip decoded clean");
                        }
                    }
                }
            }
            if f.uncorrectable() {
                // The vault detects the poisoned data and withholds its
                // result; the transfer never happens, so the CRC channel
                // had no opportunity to fire.
                rec.lost_ecc += 1;
                rec.lost_units.push(vi as u32);
                continue;
            }
            rec.crc_corruptions += u64::from(f.crc_corruptions);
            rec.recovery_seconds +=
                f64::from(f.crc_corruptions) * (per_vault_wire + plan.link_retry_penalty);
            if f.link_failed {
                rec.link_failures += 1;
                rec.link_failed_attempts += u64::from(f.crc_corruptions);
                rec.lost_link += 1;
                rec.lost_units.push(vi as u32);
            } else {
                rec.link_retries_ok += u64::from(f.crc_corruptions);
            }
        }
        for (vi, shard) in self.shards.iter().enumerate() {
            if !row[vi].lost() {
                rec.covered_vectors += shard.vectors as u64;
            }
        }
        rec
    }

    /// Derives the batch-level time/energy account: one PU-provisioning
    /// decision covers every (query, vault) run; each vault pipelines its
    /// `B` kernel runs, so per-vault time is `max(Σ mem, Σ comp)` rather
    /// than `Σ max`; the external-link transfer and host merge are paid
    /// once per query.
    /// Derives the batch account: summary [`BatchTiming`] plus per-vault
    /// accounts (each vault's counters summed over its `B` pipelined
    /// runs via [`RunStats::accumulate`]) and phase spans. Like
    /// [`SsamDevice::account_query`], the classification comes from the
    /// argmax vault of [`telemetry::critical_path`].
    fn account_batch(
        &self,
        per_query_stats: &[Vec<RunStats>],
        k: usize,
        batch_faults: Option<(&[Vec<VaultFault>], &[FaultRecord])>,
    ) -> (BatchTiming, Vec<VaultAccount>, Phases, FaultRecord) {
        let cfg = &self.config;
        let freq = cfg.freq_hz;
        let batch = per_query_stats.len();
        let n_vaults = per_query_stats.first().map_or(0, Vec::len);

        // One provisioning decision across every (query, vault) run.
        let mut pus = 1usize;
        for q in per_query_stats {
            pus = pus.max(self.provision_pus(q));
        }

        // Each vault pipelines its `B` runs: per-vault time is
        // `max(Σ mem, Σ comp)`, i.e. the roofline over the summed
        // counters.
        let mut vaults: Vec<VaultAccount> = (0..n_vaults)
            .map(|v| {
                let mut summed = RunStats::default();
                for q in per_query_stats {
                    summed.accumulate(&q[v]);
                }
                VaultAccount::from_stats(v, &summed, cfg.hmc.vault_bandwidth, freq, pus)
            })
            .collect();
        let mut batch_rec = FaultRecord::default();
        if let Some((grid, recs)) = batch_faults {
            // Stragglers stretch only their own run's share of the
            // pipelined vault time: add `(slowdown − 1) · run_time` on
            // top of the already-summed nominal counters.
            for (q, row) in per_query_stats.iter().zip(grid) {
                for (v, (s, f)) in q.iter().zip(row).enumerate() {
                    if f.outage || f.slowdown == 1.0 {
                        continue;
                    }
                    let extra = f.slowdown - 1.0;
                    vaults[v].mem_seconds +=
                        extra * s.dram.bytes_read as f64 / cfg.hmc.vault_bandwidth;
                    vaults[v].comp_seconds += extra * s.cycles as f64 / (pus as f64 * freq);
                }
            }
            for v in vaults.iter_mut() {
                v.compute_bound = v.comp_seconds > v.mem_seconds;
            }
            for r in recs {
                batch_rec.accumulate(r);
            }
        }
        let (_, worst, compute_bound) =
            telemetry::critical_path(&vaults).unwrap_or((0, 0.0, false));

        let mut total_cycles = 0u64;
        let mut total_bytes = 0u64;
        for v in &vaults {
            total_cycles += v.cycles;
            total_bytes += v.bytes;
        }

        // Each query still returns vaults·k (id, value) tuples over the
        // external link and pays its own host merge — minus the vaults
        // whose transfers a fault suppressed. Without faults this reduces
        // to the legacy `batch · (link + merge)` expression exactly.
        let result_bytes = (n_vaults * k * 8) as u64;
        let link_t =
            ssam_hmc::packet::bulk_wire_bytes(result_bytes) as f64 / cfg.hmc.external_bandwidth;
        let merge_t = (n_vaults * k) as f64 * 1e-9;
        let (host_t, link_total, merge_total) = match batch_faults {
            // Fault-free: keep the exact legacy expression (grouping and
            // all) so the zero-fault batch account stays bit-identical.
            None => (
                batch as f64 * (link_t + merge_t),
                batch as f64 * link_t,
                batch as f64 * merge_t,
            ),
            Some((_, recs)) => {
                let mut lt = 0.0;
                let mut mt = 0.0;
                for r in recs {
                    let transfers = n_vaults as u64 - r.vault_outages - r.lost_ecc;
                    let merged = n_vaults as u64 - r.lost_units.len() as u64;
                    lt += ssam_hmc::packet::bulk_wire_bytes(transfers * k as u64 * 8) as f64
                        / cfg.hmc.external_bandwidth;
                    mt += (merged * k as u64) as f64 * 1e-9;
                }
                (lt + mt, lt, mt)
            }
        };
        let seconds = worst + host_t + batch_rec.recovery_seconds;

        // Energy: every (query, vault) run burns its activity-scaled PU
        // power over its share of the batch window, charged to its vault.
        let mut energy_mj = 0.0;
        let per_query_window = seconds / batch.max(1) as f64;
        for q in per_query_stats {
            for (v, s) in vaults.iter_mut().zip(q) {
                let act = Activity::from_stats(s);
                let e = effective_power(cfg.vector_length, &act) * per_query_window * pus as f64;
                v.energy_mj += e;
                energy_mj += e;
            }
        }

        let timing = BatchTiming {
            batch,
            seconds,
            seconds_per_query: seconds / batch.max(1) as f64,
            queries_per_second: batch as f64 / seconds,
            pus_per_vault: pus,
            compute_bound,
            total_cycles,
            total_bytes,
            energy_mj,
        };
        let phases = Phases {
            stage_seconds: 0.0,
            simulate_seconds: worst,
            link_seconds: link_total,
            merge_seconds: merge_total,
            fault_seconds: batch_rec.recovery_seconds,
        };
        (timing, vaults, phases, batch_rec)
    }

    /// Throughput estimate for a batch, from one batched execution
    /// ([`SsamDevice::query_batch`]).
    pub fn estimate_throughput(
        &mut self,
        queries: &[DeviceQuery<'_>],
        k: usize,
    ) -> Result<BatchEstimate, SimError> {
        assert!(!queries.is_empty(), "need at least one sample query");
        let b = self.query_batch(queries, k)?;
        Ok(BatchEstimate {
            seconds_per_query: b.timing.seconds_per_query,
            queries_per_second: b.timing.queries_per_second,
            energy_mj_per_query: b.timing.energy_mj / b.results.len() as f64,
            pus_per_vault: b.timing.pus_per_vault,
        })
    }
}

/// Batch-level timing/energy account from one [`SsamDevice::query_batch`]
/// execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchTiming {
    /// Queries in the batch.
    pub batch: usize,
    /// Wall-clock seconds for the whole batch: the slowest vault's
    /// pipelined run of all queries, plus per-query link transfer and
    /// host merge.
    pub seconds: f64,
    /// `seconds / batch`.
    pub seconds_per_query: f64,
    /// `batch / seconds`.
    pub queries_per_second: f64,
    /// Processing units provisioned per vault for the whole batch.
    pub pus_per_vault: usize,
    /// True when compute cycles (not vault bandwidth) set the pace on the
    /// critical vault.
    pub compute_bound: bool,
    /// Aggregate simulated cycles across all (query, vault) runs.
    pub total_cycles: u64,
    /// Aggregate DRAM bytes streamed across the batch.
    pub total_bytes: u64,
    /// Device energy for the whole batch in millijoules.
    pub energy_mj: f64,
}

/// Result of one batched device execution.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query results in submission order. Each result's `timing`
    /// describes that query as if executed alone (serial-equivalent);
    /// the batch-level account is in [`BatchResult::timing`].
    pub results: Vec<DeviceResult>,
    /// Batch-level pipelined timing/energy.
    pub timing: BatchTiming,
    /// Accumulated fault accounting over every query in the batch.
    pub faults: FaultRecord,
}

/// Batch throughput/energy estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchEstimate {
    /// Mean seconds per query.
    pub seconds_per_query: f64,
    /// Queries per second.
    pub queries_per_second: f64,
    /// Mean energy per query (mJ).
    pub energy_mj_per_query: f64,
    /// PUs provisioned per vault.
    pub pus_per_vault: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssam_knn::binary::{knn_hamming, BinaryStore};
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

    fn device(vl: usize) -> SsamDevice {
        SsamDevice::new(SsamConfig {
            vector_length: vl,
            ..SsamConfig::default()
        })
    }

    #[test]
    fn euclidean_device_matches_reference_exactly() {
        let store = random_store(300, 10, 1);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q: Vec<f32> = store.get(7).to_vec();
        let result = dev.query(&DeviceQuery::Euclidean(&q), 5).expect("runs");
        let expect: Vec<u32> = knn_exact(&store, &q, 5, Metric::Euclidean)
            .iter()
            .map(|n| n.id)
            .collect();
        let got: Vec<u32> = result.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
        assert_eq!(result.neighbors[0].id, 7);
        assert_eq!(result.neighbors[0].dist, 0.0);
    }

    #[test]
    fn all_vector_lengths_agree() {
        let store = random_store(120, 7, 2);
        let q: Vec<f32> = (0..7).map(|i| 0.05 * i as f32).collect();
        let mut ids_by_vl = Vec::new();
        for vl in [2, 4, 8, 16] {
            let mut dev = device(vl);
            dev.load_vectors(&store);
            let r = dev.query(&DeviceQuery::Euclidean(&q), 8).expect("runs");
            ids_by_vl.push(r.neighbors.iter().map(|n| n.id).collect::<Vec<_>>());
        }
        for w in ids_by_vl.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn manhattan_device_matches_reference() {
        let store = random_store(200, 6, 3);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q: Vec<f32> = (0..6).map(|i| -0.1 * i as f32).collect();
        let r = dev.query(&DeviceQuery::Manhattan(&q), 6).expect("runs");
        let expect: Vec<u32> = knn_exact(&store, &q, 6, Metric::Manhattan)
            .iter()
            .map(|n| n.id)
            .collect();
        let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn cosine_device_ranks_by_cosine_distance() {
        let store = random_store(150, 8, 4);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).sin()).collect();
        let r = dev.query(&DeviceQuery::Cosine(&q), 5).expect("runs");
        let expect: Vec<u32> = knn_exact(&store, &q, 5, Metric::Cosine)
            .iter()
            .map(|n| n.id)
            .collect();
        let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        // cos² ranking may permute near-ties; demand ≥4/5 overlap and an
        // exact best match.
        let overlap = got.iter().filter(|id| expect.contains(id)).count();
        assert!(overlap >= 4, "got {got:?} expect {expect:?}");
        assert_eq!(got[0], expect[0]);
    }

    #[test]
    fn hamming_device_matches_reference() {
        let mut codes = BinaryStore::new(64);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            codes.push(&[rng.random::<u32>(), rng.random::<u32>()]);
        }
        let mut dev = device(4);
        dev.load_binary(&codes);
        let q = [0xDEAD_BEEFu32, 0x1234_5678];
        let r = dev.query(&DeviceQuery::Hamming(&q), 7).expect("runs");
        let expect: Vec<u32> = knn_hamming(&codes, &q, 7).iter().map(|n| n.id).collect();
        let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn software_queue_matches_hardware_queue() {
        let store = random_store(250, 5, 6);
        let q: Vec<f32> = (0..5).map(|i| 0.2 * i as f32).collect();
        let mut hw = device(4);
        hw.load_vectors(&store);
        let mut sw = SsamDevice::new(SsamConfig {
            use_hw_queue: false,
            ..SsamConfig::default()
        });
        sw.load_vectors(&store);
        let rh = hw.query(&DeviceQuery::Euclidean(&q), 8).expect("hw runs");
        let rs = sw.query(&DeviceQuery::Euclidean(&q), 8).expect("sw runs");
        let ih: Vec<u32> = rh.neighbors.iter().map(|n| n.id).collect();
        let is: Vec<u32> = rs.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ih, is);
        // The ablation claim: software queue costs cycles.
        assert!(rs.timing.total_cycles > rh.timing.total_cycles);
    }

    #[test]
    fn large_k_chains_priority_queues() {
        let store = random_store(300, 4, 7);
        let mut dev = device(2);
        dev.load_vectors(&store);
        let q = [0.0f32; 4];
        let r = dev.query(&DeviceQuery::Euclidean(&q), 40).expect("runs");
        assert_eq!(r.neighbors.len(), 40);
        let expect: Vec<u32> = knn_exact(&store, &q, 40, Metric::Euclidean)
            .iter()
            .map(|n| n.id)
            .collect();
        let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn sharding_spreads_across_vaults() {
        let store = random_store(320, 4, 8);
        let mut dev = device(4);
        dev.load_vectors(&store);
        assert_eq!(dev.shards.len(), 32);
        let covered: usize = dev.shards.iter().map(|s| s.vectors).sum();
        assert_eq!(covered, 320);
    }

    #[test]
    fn tiny_dataset_uses_fewer_vaults() {
        let store = random_store(5, 4, 9);
        let mut dev = device(4);
        dev.load_vectors(&store);
        assert!(dev.shards.len() <= 5);
        let q = [0.0f32; 4];
        let r = dev.query(&DeviceQuery::Euclidean(&q), 3).expect("runs");
        assert_eq!(r.neighbors.len(), 3);
    }

    #[test]
    fn timing_is_positive_and_consistent() {
        let store = random_store(200, 16, 10);
        let mut dev = device(8);
        dev.load_vectors(&store);
        let q = [0.1f32; 16];
        let r = dev.query(&DeviceQuery::Euclidean(&q), 5).expect("runs");
        assert!(r.timing.seconds > 0.0);
        assert!(r.timing.energy_mj > 0.0);
        assert!(r.timing.pus_per_vault >= 1);
        assert!(r.timing.total_bytes >= (200 * 16 * 4) as u64);
    }

    #[test]
    fn estimate_throughput_averages_queries() {
        let store = random_store(100, 8, 11);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q1 = [0.0f32; 8];
        let q2 = [0.5f32; 8];
        let est = dev
            .estimate_throughput(
                &[DeviceQuery::Euclidean(&q1), DeviceQuery::Euclidean(&q2)],
                4,
            )
            .expect("runs");
        assert!(est.queries_per_second > 0.0);
        assert!((est.seconds_per_query * est.queries_per_second - 1.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "query dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let store = random_store(10, 4, 12);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q = [0.0f32; 5];
        let _ = dev.query(&DeviceQuery::Euclidean(&q), 1);
    }

    #[test]
    fn all_metrics_return_exact_results_under_software_queue() {
        // Regression: `kernel_for` used to fall through to the HW-queue
        // kernels for Manhattan/Cosine/Hamming when `use_hw_queue` was
        // off, while the driver read the never-written software-queue
        // region — every non-Euclidean software-queue query came back
        // empty.
        let store = random_store(200, 6, 21);
        let mut dev = SsamDevice::new(SsamConfig {
            use_hw_queue: false,
            ..SsamConfig::default()
        });
        dev.load_vectors(&store);
        let q: Vec<f32> = (0..6).map(|i| 0.15 * i as f32 - 0.3).collect();
        for (query, metric) in [
            (DeviceQuery::Euclidean(&q), Metric::Euclidean),
            (DeviceQuery::Manhattan(&q), Metric::Manhattan),
        ] {
            let r = dev.query(&query, 5).expect("runs");
            let expect: Vec<u32> = knn_exact(&store, &q, 5, metric)
                .iter()
                .map(|n| n.id)
                .collect();
            let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
            assert_eq!(got, expect, "{metric:?} under software queue");
        }
        // Cosine: the device's cos² transform may permute near-ties;
        // demand a full result set, an exact best match, and ≥4/5 overlap.
        let r = dev.query(&DeviceQuery::Cosine(&q), 5).expect("runs");
        assert_eq!(r.neighbors.len(), 5);
        let expect: Vec<u32> = knn_exact(&store, &q, 5, Metric::Cosine)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(r.neighbors[0].id, expect[0]);
        let overlap = r
            .neighbors
            .iter()
            .filter(|n| expect.contains(&n.id))
            .count();
        assert!(overlap >= 4, "cosine under software queue: {overlap}/5");

        let mut codes = BinaryStore::new(64);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..150 {
            codes.push(&[rng.random::<u32>(), rng.random::<u32>()]);
        }
        let mut dev = SsamDevice::new(SsamConfig {
            use_hw_queue: false,
            ..SsamConfig::default()
        });
        dev.load_binary(&codes);
        let qc = [0xFACE_FEEDu32, 0x0BAD_F00D];
        let r = dev.query(&DeviceQuery::Hamming(&qc), 6).expect("runs");
        let expect: Vec<u32> = knn_hamming(&codes, &qc, 6).iter().map(|n| n.id).collect();
        let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, expect, "Hamming under software queue");
    }

    #[test]
    fn device_distances_are_in_float_units() {
        // Regression: readout used to cast the raw Q16.16 word to f32,
        // reporting distances 65536× the CPU baseline.
        let store = random_store(120, 8, 23);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q: Vec<f32> = store.get(3).to_vec();
        for query in [DeviceQuery::Euclidean(&q), DeviceQuery::Manhattan(&q)] {
            let metric = match query.metric() {
                DeviceMetric::Euclidean => Metric::Euclidean,
                _ => Metric::Manhattan,
            };
            let r = dev.query(&query, 5).expect("runs");
            let expect = knn_exact(&store, &q, 5, metric);
            for (got, want) in r.neighbors.iter().zip(&expect) {
                assert!(
                    (got.dist - want.dist).abs() < 1e-2,
                    "{metric:?}: device {} vs reference {}",
                    got.dist,
                    want.dist
                );
            }
        }
        // Hamming distances stay in raw popcount units.
        let mut codes = BinaryStore::new(32);
        for w in 0u32..50 {
            codes.push(&[w.wrapping_mul(0x9E37_79B9)]);
        }
        let mut dev = device(4);
        dev.load_binary(&codes);
        let qc = [codes.get(11)[0]];
        let r = dev.query(&DeviceQuery::Hamming(&qc), 3).expect("runs");
        assert_eq!(r.neighbors[0].id, 11);
        assert_eq!(r.neighbors[0].dist, 0.0);
        assert_eq!(r.neighbors[1].dist, r.neighbors[1].dist.round());
    }

    #[test]
    fn query_batch_matches_serial_loop() {
        let store = random_store(180, 6, 24);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let qs: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..6).map(|j| ((i * 7 + j) as f32 * 0.3).sin()).collect())
            .collect();
        let queries: Vec<DeviceQuery<'_>> = qs.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        let batch = dev.query_batch(&queries, 4).expect("batch runs");
        assert_eq!(batch.results.len(), 5);
        assert_eq!(batch.timing.batch, 5);
        for (q, r) in queries.iter().zip(&batch.results) {
            let serial = dev.query(q, 4).expect("serial runs");
            assert_eq!(serial.neighbors, r.neighbors);
            assert_eq!(serial.vault_stats, r.vault_stats);
            assert_eq!(serial.timing, r.timing);
        }
    }

    #[test]
    fn mixed_metric_batch_matches_serial_loop() {
        // Kernel switches inside one tile exercise the program-reload path
        // of the recycled PUs.
        let store = random_store(100, 6, 26);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q1: Vec<f32> = (0..6).map(|i| 0.2 * i as f32).collect();
        let q2: Vec<f32> = (0..6).map(|i| -0.1 * i as f32).collect();
        let queries = [
            DeviceQuery::Euclidean(&q1),
            DeviceQuery::Manhattan(&q2),
            DeviceQuery::Euclidean(&q2),
        ];
        let batch = dev.query_batch(&queries, 3).expect("runs");
        for (q, r) in queries.iter().zip(&batch.results) {
            let serial = dev.query(q, 3).expect("runs");
            assert_eq!(serial.neighbors, r.neighbors);
            assert_eq!(serial.vault_stats, r.vault_stats);
        }
    }

    #[test]
    fn batch_timing_amortizes_over_serial_execution() {
        let store = random_store(160, 8, 25);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let qs: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..8).map(|j| 0.1 * (i + j) as f32).collect())
            .collect();
        let queries: Vec<DeviceQuery<'_>> = qs.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        let batch = dev.query_batch(&queries, 4).expect("runs");
        // Pipelining can only help: max(Σ mem, Σ comp) ≤ Σ max(mem, comp).
        let serial_total: f64 = batch.results.iter().map(|r| r.timing.seconds).sum();
        assert!(batch.timing.seconds > 0.0);
        assert!(batch.timing.seconds <= serial_total + 1e-12);
        assert!(
            (batch.timing.queries_per_second * batch.timing.seconds_per_query - 1.0).abs() < 1e-9
        );
        assert!(batch.timing.energy_mj > 0.0);
        assert!(batch.timing.total_bytes >= 4 * (160 * 8 * 4) as u64);
    }

    fn stat(bytes: u64, cycles: u64) -> RunStats {
        RunStats {
            cycles,
            dram: crate::sim::memif::DramStats {
                bytes_read: bytes,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn compute_bound_tracks_memory_bound_critical_vault() {
        // Vault 0 sets the critical path and is memory-bound; vault 1 is
        // compute-bound but far from critical. Provisioning lands on 8 PUs
        // (vault 1's streaming demand), so vault 1 stays compute-bound.
        let dev = device(4);
        let t = dev.derive_timing(&[stat(80_000, 800), stat(1_000, 1_000)], 4);
        assert_eq!(t.pus_per_vault, 8);
        assert!(!t.compute_bound, "critical vault is memory-bound");
    }

    #[test]
    fn compute_bound_tracks_compute_bound_critical_vault() {
        let dev = device(4);
        let t = dev.derive_timing(&[stat(8_000, 80), stat(1_000, 100_000)], 4);
        assert_eq!(t.pus_per_vault, 8);
        assert!(t.compute_bound, "critical vault is compute-bound");
    }

    #[test]
    fn compute_bound_ties_resolve_to_first_critical_vault() {
        // Regression: both vaults reach the same critical time (1e-5 s),
        // vault 0 memory-bound, vault 1 compute-bound. The old stale-worst
        // comparison let the later, non-argmax vault flip the flag.
        let dev = device(4);
        let t = dev.derive_timing(&[stat(100_000, 100), stat(1_000, 80_000)], 4);
        assert_eq!(t.pus_per_vault, 8);
        assert!(
            !t.compute_bound,
            "first vault to set the path is memory-bound"
        );
    }

    #[test]
    fn payload_shape_getters_reflect_loaded_dataset() {
        let mut dev = device(4);
        assert_eq!(dev.query_len(), None);
        assert_eq!(dev.payload_is_binary(), None);
        dev.load_vectors(&random_store(20, 6, 30));
        assert_eq!(dev.query_len(), Some(6));
        assert_eq!(dev.payload_is_binary(), Some(false));
        let mut codes = BinaryStore::new(64);
        codes.push(&[1, 2]);
        let mut dev = device(4);
        dev.load_binary(&codes);
        assert_eq!(dev.query_len(), Some(2));
        assert_eq!(dev.payload_is_binary(), Some(true));
    }

    #[test]
    fn empty_batch_returns_typed_error() {
        // Regression: `query_batch` used to panic on degenerate requests;
        // the serving runtime needs typed rejections.
        let store = random_store(40, 4, 28);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let empty: [DeviceQuery<'_>; 0] = [];
        assert_eq!(
            dev.query_batch(&empty, 3).unwrap_err(),
            SimError::EmptyBatch
        );
    }

    #[test]
    fn zero_k_returns_typed_error() {
        let store = random_store(40, 4, 29);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q = [0.0f32; 4];
        assert_eq!(
            dev.query_batch(&[DeviceQuery::Euclidean(&q)], 0)
                .unwrap_err(),
            SimError::ZeroK
        );
        assert_eq!(
            dev.query(&DeviceQuery::Euclidean(&q), 0).unwrap_err(),
            SimError::ZeroK
        );
    }

    #[test]
    fn batch_of_one_matches_single_query_account() {
        let store = random_store(90, 6, 27);
        let mut dev = device(4);
        dev.load_vectors(&store);
        let q: Vec<f32> = (0..6).map(|i| 0.3 * i as f32).collect();
        let batch = dev
            .query_batch(&[DeviceQuery::Euclidean(&q)], 3)
            .expect("runs");
        let serial = dev.query(&DeviceQuery::Euclidean(&q), 3).expect("runs");
        assert_eq!(batch.results.len(), 1);
        assert_eq!(batch.results[0].neighbors, serial.neighbors);
        assert_eq!(batch.timing.pus_per_vault, serial.timing.pus_per_vault);
        assert_eq!(batch.timing.compute_bound, serial.timing.compute_bound);
        assert!((batch.timing.seconds - serial.timing.seconds).abs() < 1e-12);
    }
}
