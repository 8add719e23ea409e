//! Sharded, replicated mutable store: N store shards × R replica
//! modules with failover ingest and exact scatter-gather reads.
//!
//! The single-module [`Store`] has no survival story when its module
//! dies mid-ingest: one WAL, one segment set. This module scales it out
//! the way the paper scales the immutable path across a daisy chain of
//! SSAM modules (§III-A), and adds what the paper leaves out: module
//! outages as a first-class recovery drill. It is the repository's only
//! module-level failover and health machine:
//!
//! * **Placement** — uids hash onto shards through the *existing* HMC
//!   interleaving math: [`AddressMap::BlockInterleave`] with a block of
//!   one "byte" per uid, so `shard_of(uid) = uid % shards` is computed
//!   by the same code path that spreads physical addresses over vaults.
//! * **Replication** — each shard is `replicas` full [`Store`] modules
//!   (WAL-per-module). A write is assigned one global sequence number
//!   and applied to every reachable replica; replicas a seeded
//!   [`FaultPlan`] outage makes unreachable miss the write, which is
//!   queued and replayed (in order) the moment the module is reachable
//!   again — writes *fail over to the replica WAL* rather than failing.
//! * **Reads** — scatter-gather: one healthy, caught-up replica per
//!   shard executes the query; per-shard exact top-k merge through the
//!   shared `(distance, id)` order is bit-identical to a single-module
//!   store over the union live set. Downed replicas degrade-and-reprobe
//!   with capped backoff under the plan's [`RecoveryPolicy`]
//!   (`degrade_after` consecutive misses degrade a module; a degraded
//!   module is probed once every `probe_interval` reads). A shard with
//!   *no* reachable replica is reported as lost coverage — honest
//!   per-query coverage.
//! * **Recovery** — [`ShardedStore::open`] recovers each module from
//!   its own WAL prefix (any vector of prefixes: crashes tear each
//!   module independently via [`CrashSpec::torn_tail_for`]), then runs
//!   anti-entropy per shard: the union of surviving data records across
//!   a shard's replicas, keyed by sequence number, is replayed onto
//!   every replica that missed it. Recovery is deterministic (a pure
//!   function of the images), bit-identical across twin runs, and
//!   idempotent — re-opening a recovered store's WALs is a fixed point.
//!
//! The write-path fault accounting lives in a [`WriteFaultLedger`]
//! (outages, failovers, refusals, catch-up) kept separate from the
//! per-query [`FaultRecord`]s so the telemetry sink's closure invariants
//! stay exact.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use ssam_core::device::DeviceMetric;
use ssam_core::telemetry::{ModuleShardAccount, ShardAccount, Telemetry};
use ssam_faults::{CrashSpec, FaultPlan, FaultRecord, RecoveryPolicy};
use ssam_hmc::address::AddressMap;
use ssam_knn::topk::TopK;

use crate::{
    decode_stream, Recovery, Snapshot, Store, StoreConfig, StoreError, StoreQueryResult,
    StoreStats, WalRecord, WriteAck,
};

/// Outage-sampling scope for the sharded write path (distinct from the
/// read scope below, so the two channels are decorrelated under one
/// plan; the values are fixed so seeded runs replay exactly).
const WRITE_OUTAGE_SCOPE: u64 = 0x5353_5457; // "SSTW"
/// Outage-sampling scope for the sharded read path.
const READ_OUTAGE_SCOPE: u64 = 0x5353_5452; // "SSTR"

/// Configuration for a [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct ShardedStoreConfig {
    /// Number of shards the uid space is interleaved over.
    pub shards: usize,
    /// Replica modules per shard (1 = no redundancy).
    pub replicas: usize,
    /// Per-module store configuration (every module is a full
    /// [`Store`]: own WAL, memtable, segment tree).
    pub store: StoreConfig,
}

impl ShardedStoreConfig {
    /// `shards × replicas` modules over `store`-configured modules.
    pub fn new(shards: usize, replicas: usize, store: StoreConfig) -> Self {
        ShardedStoreConfig {
            shards,
            replicas,
            store,
        }
    }
}

/// Acknowledgment for one accepted sharded write: which shard took it,
/// how many replicas applied it, and whether the primary was routed
/// around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWriteAck {
    /// Shard the uid hashed onto.
    pub shard: usize,
    /// Globally-assigned sequence number (shared by every replica WAL).
    pub seq: u64,
    /// True when the serving replica tripped an automatic memtable seal.
    pub sealed: bool,
    /// Serving replica's WAL length after the write.
    pub wal_len: u64,
    /// Replicas that applied the write synchronously (the rest catch up
    /// from their pending queue when reachable).
    pub replicas_acked: usize,
    /// True when the primary replica was down and the write landed on a
    /// standby's WAL instead.
    pub failed_over: bool,
}

/// What [`ShardedStore::open`] recovered across all modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecovery {
    /// Per-module recovery reports, module order.
    pub modules: Vec<Recovery>,
    /// Aggregate over `modules`.
    pub total: Recovery,
    /// Anti-entropy records replayed onto replicas that missed them
    /// (writes that survived only on a sibling's WAL).
    pub catch_up_records: u64,
}

/// Write-path fault accounting. Kept apart from the per-query
/// [`FaultRecord`] ledger: these counters describe ingest-side events
/// (missed replicas, refusals, catch-up) whose closure rule is "every
/// missed write is eventually replayed", checked by
/// [`WriteFaultLedger::check_closure`] against the live pending depth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteFaultLedger {
    /// Replica write attempts that found the module unreachable
    /// (including retries).
    pub write_outages: u64,
    /// Writes whose primary replica was down but that landed on a
    /// standby replica's WAL.
    pub failed_over_writes: u64,
    /// Writes refused outright: every replica of the target shard was
    /// down, so no WAL could make the write durable.
    pub refused_writes: u64,
    /// Missed records replayed onto revived replicas so far.
    pub catch_up_records: u64,
    /// Deepest pending (missed-write) queue observed on any module.
    pub pending_peak: usize,
    /// Modeled capped-exponential backoff spent between write retries.
    pub backoff_seconds: f64,
}

impl WriteFaultLedger {
    /// The ledger closes when no missed write is still outstanding
    /// (`pending_now == 0` — every failover was caught up) and the
    /// counters are mutually consistent.
    pub fn check_closure(&self, pending_now: usize) -> Result<(), String> {
        let mut errs = Vec::new();
        if pending_now != 0 {
            errs.push(format!(
                "{pending_now} missed writes still pending catch-up"
            ));
        }
        if self.failed_over_writes + self.refused_writes > self.write_outages {
            errs.push(format!(
                "outage leak: {} failovers + {} refusals > {} outage events",
                self.failed_over_writes, self.refused_writes, self.write_outages
            ));
        }
        if !self.backoff_seconds.is_finite() || self.backoff_seconds < 0.0 {
            errs.push(format!("bad backoff_seconds: {}", self.backoff_seconds));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs.join("; "))
        }
    }
}

/// Health machine per module: degrade after `degrade_after` consecutive
/// misses, then reprobe every `probe_interval` reads.
#[derive(Debug, Clone, Default)]
struct ModuleHealth {
    /// Consecutive touches (read or write) that found the module down.
    consecutive_faults: u32,
    /// A degraded module is routed around on reads except for probes.
    degraded: bool,
    /// Read batches skipped since the last probe of a degraded module.
    batches_since_probe: u64,
}

/// One replica module: a full store plus failover state.
#[derive(Debug, Clone)]
struct ModuleState {
    store: Store,
    health: ModuleHealth,
    /// Test/drill hook: a forced-down module fails every availability
    /// check until revived.
    forced_down: bool,
    /// Writes this module missed while unreachable, in sequence order;
    /// drained through the normal apply path when it is next reachable.
    pending: VecDeque<WalRecord>,
}

/// N shards × R replicas of mutable [`Store`] modules with failover
/// ingest, exact scatter-gather reads, and deterministic multi-WAL
/// recovery. Single-writer like [`Store`]; share behind a `Mutex`.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    config: ShardedStoreConfig,
    /// The uid→shard interleaving (the HMC block-interleave math with a
    /// one-unit block).
    placement: AddressMap,
    modules: Vec<ModuleState>,
    /// Globally monotonic sequence assigner shared by all shards.
    next_seq: u64,
    /// Authoritative per-shard live uid sets (acknowledged writes only);
    /// the honest-coverage denominator for lost shards.
    shard_live: Vec<BTreeSet<u32>>,
    faults: Option<Arc<FaultPlan>>,
    telemetry: Option<Telemetry>,
    /// Read counter keying the read path's outage samples.
    read_batches: u64,
    write_ledger: WriteFaultLedger,
    recovery: Option<ShardRecovery>,
}

impl ShardedStore {
    /// Creates an empty sharded store.
    ///
    /// # Panics
    /// Panics if `shards` or `replicas` is zero (or the per-module
    /// store config is invalid, per [`Store::create`]).
    pub fn create(config: ShardedStoreConfig) -> Self {
        assert!(config.shards > 0, "shards must be positive");
        assert!(config.replicas > 0, "replicas must be positive");
        let placement = AddressMap::BlockInterleave {
            block_bytes: 1,
            vaults: config.shards as u32,
        };
        let modules = (0..config.shards * config.replicas)
            .map(|m| {
                let mut store = Store::create(config.store.clone());
                // Disjoint fault-scope bases: replicas of the same data
                // must draw independent segment fault streams.
                store.set_fault_scope_base((m as u64) << 32);
                ModuleState {
                    store,
                    health: ModuleHealth::default(),
                    forced_down: false,
                    pending: VecDeque::new(),
                }
            })
            .collect();
        let shard_live = vec![BTreeSet::new(); config.shards];
        ShardedStore {
            config,
            placement,
            modules,
            next_seq: 1,
            shard_live,
            faults: None,
            telemetry: None,
            read_batches: 0,
            write_ledger: WriteFaultLedger::default(),
            recovery: None,
        }
    }

    /// Recovers a sharded store from one WAL image per module (module
    /// order: `shard * replicas + replica`). Each module recovers its
    /// own prefix exactly as [`Store::open`] does; then, per shard, the
    /// union of surviving data records across the shard's replicas
    /// (keyed by the globally-unique sequence number) is replayed onto
    /// every replica that missed it — anti-entropy, WAL-appending, so a
    /// re-open finds nothing left to merge. Deterministic and
    /// idempotent: twin opens of the same images are bit-identical, and
    /// opening the recovered WALs is a fixed point.
    ///
    /// # Panics
    /// Panics if `images.len() != shards * replicas`.
    ///
    /// # Errors
    /// [`StoreError::DimsMismatch`] when an image belongs to a store of
    /// different dimensionality.
    pub fn open(
        config: ShardedStoreConfig,
        images: &[Vec<u8>],
    ) -> Result<(Self, ShardRecovery), StoreError> {
        let mut sharded = ShardedStore::create(config);
        let (shards, replicas) = (sharded.config.shards, sharded.config.replicas);
        assert_eq!(
            images.len(),
            shards * replicas,
            "need one WAL image per module"
        );
        let mut recoveries = Vec::with_capacity(images.len());
        let mut total = Recovery::default();
        for (m, image) in images.iter().enumerate() {
            let (mut store, rec) = Store::open(sharded.config.store.clone(), image)?;
            store.set_fault_scope_base((m as u64) << 32);
            sharded.modules[m].store = store;
            recoveries.push(rec);
            total.accumulate(&rec);
        }
        let mut catch_up = 0u64;
        for shard in 0..shards {
            // Union of surviving data records across the shard's
            // replicas. Sequence numbers are globally unique, so two
            // replicas holding the same seq hold the same record.
            let mut union: BTreeMap<u64, WalRecord> = BTreeMap::new();
            let mut have: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); replicas];
            for (r, have_r) in have.iter_mut().enumerate() {
                let m = shard * replicas + r;
                let (records, _) = decode_stream(sharded.modules[m].store.wal_bytes());
                for rec in records {
                    if matches!(rec, WalRecord::Insert { .. } | WalRecord::Delete { .. }) {
                        have_r.insert(rec.seq());
                        union.entry(rec.seq()).or_insert(rec);
                    }
                }
            }
            // Replay missed records in ascending sequence order through
            // the live apply path (WAL-appending; stale versions cannot
            // regress newer ones — the apply path is seq-aware).
            for (seq, rec) in &union {
                for (r, have_r) in have.iter().enumerate() {
                    if have_r.contains(seq) {
                        continue;
                    }
                    let m = shard * replicas + r;
                    match rec {
                        WalRecord::Insert { uid, seq, vector } => {
                            sharded.modules[m].store.insert_at_seq(*uid, *seq, vector)?;
                        }
                        WalRecord::Delete { uid, seq } => {
                            sharded.modules[m].store.delete_at_seq(*uid, *seq)?;
                        }
                        _ => unreachable!("union holds data records only"),
                    }
                    catch_up += 1;
                }
            }
            // Authoritative live set: ascending-seq replay of the union.
            for rec in union.values() {
                match rec {
                    WalRecord::Insert { uid, .. } => {
                        sharded.shard_live[shard].insert(*uid);
                    }
                    WalRecord::Delete { uid, .. } => {
                        sharded.shard_live[shard].remove(uid);
                    }
                    _ => {}
                }
            }
        }
        sharded.next_seq = sharded
            .modules
            .iter()
            .map(|m| m.store.next_seq())
            .max()
            .unwrap_or(1);
        let report = ShardRecovery {
            modules: recoveries,
            total,
            catch_up_records: catch_up,
        };
        sharded.recovery = Some(report.clone());
        Ok((sharded, report))
    }

    /// The configuration.
    pub fn config(&self) -> &ShardedStoreConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Replicas per shard.
    pub fn replicas(&self) -> usize {
        self.config.replicas
    }

    /// The recovery report from [`ShardedStore::open`]; `None` for a
    /// created store.
    pub fn recovery(&self) -> Option<&ShardRecovery> {
        self.recovery.as_ref()
    }

    /// Shard owning `uid` — the HMC block-interleave with one uid per
    /// block, i.e. `uid % shards` computed by the address-map path.
    pub fn shard_of(&self, uid: u32) -> usize {
        self.placement.vault_of(u64::from(uid)) as usize
    }

    /// Visible (acknowledged-live) vectors across all shards.
    pub fn live_len(&self) -> usize {
        self.shard_live.iter().map(BTreeSet::len).sum()
    }

    /// True when no vector is visible.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// The effective recovery policy (the plan's, or the default when
    /// running fault-free — forced kills still degrade and reprobe).
    fn policy(&self) -> RecoveryPolicy {
        self.faults.as_ref().map(|p| p.policy).unwrap_or_default()
    }

    /// Installs (or clears) a fault plan on every module. Module
    /// outages on the sharded read/write paths sample decorrelated
    /// scopes; segment-level faults inherit each module's disjoint
    /// scope base.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan.clone();
        for module in &mut self.modules {
            module.store.set_fault_plan(plan.clone());
            module.health = ModuleHealth::default();
        }
    }

    /// Attaches a telemetry sink to every module (segment devices
    /// report query records) and to [`ShardedStore::record_account`].
    pub fn attach_telemetry(&mut self, sink: &Telemetry) {
        self.telemetry = Some(sink.clone());
        for module in &mut self.modules {
            module.store.attach_telemetry(sink);
        }
    }

    /// Drill hook: forces module `m` down — every availability check
    /// fails until [`ShardedStore::revive_module`]. Deterministic, so
    /// failover tests and the serve_load outage drill replay exactly.
    pub fn kill_module(&mut self, m: usize) {
        self.modules[m].forced_down = true;
    }

    /// Drill hook: lifts a forced outage; the module catches up on its
    /// missed writes at the next touch.
    pub fn revive_module(&mut self, m: usize) {
        self.modules[m].forced_down = false;
    }

    /// True when module `m` is forced down.
    pub fn module_down(&self, m: usize) -> bool {
        self.modules[m].forced_down
    }

    /// Per-module degraded flags (reads route around `true` modules
    /// except for periodic probes).
    pub fn degraded_modules(&self) -> Vec<bool> {
        self.modules.iter().map(|m| m.health.degraded).collect()
    }

    /// Per-module missed-write queue depths.
    pub fn pending_depths(&self) -> Vec<usize> {
        self.modules.iter().map(|m| m.pending.len()).collect()
    }

    /// Total missed writes not yet replayed onto their module.
    pub fn pending_total(&self) -> usize {
        self.modules.iter().map(|m| m.pending.len()).sum()
    }

    /// The write-path fault ledger.
    pub fn write_ledger(&self) -> &WriteFaultLedger {
        &self.write_ledger
    }

    /// Checks the write ledger against the live pending depth: closed
    /// means every missed write was caught up and counters balance.
    pub fn check_write_ledger(&self) -> Result<(), String> {
        self.write_ledger.check_closure(self.pending_total())
    }

    /// Availability of module `m` for one touch: forced outages fail
    /// immediately; otherwise the fault plan's module-outage channel is
    /// sampled with up to `max_module_retries` retries under capped
    /// exponential backoff (accumulated into `backoff`); each retry bumps
    /// the sampled attempt.
    fn module_available(
        &self,
        m: usize,
        scope: u64,
        seq: u64,
        outages: &mut u64,
        backoff: &mut f64,
    ) -> bool {
        if self.modules[m].forced_down {
            *outages += 1;
            return false;
        }
        let Some(plan) = &self.faults else {
            return true;
        };
        let policy = plan.policy;
        let mut attempt = 0u64;
        loop {
            if plan.module_outage(scope, seq, m as u64, attempt) {
                attempt += 1;
                *outages += 1;
                if attempt > u64::from(policy.max_module_retries) {
                    return false;
                }
                *backoff += policy.backoff(attempt as u32);
                continue;
            }
            return true;
        }
    }

    /// One more failed touch on module `m`: degrade after
    /// `degrade_after` consecutive misses.
    fn note_miss(&mut self, m: usize) {
        let degrade_after = self.policy().degrade_after;
        let h = &mut self.modules[m].health;
        h.consecutive_faults += 1;
        if h.consecutive_faults >= degrade_after {
            h.degraded = true;
        }
    }

    /// Replays every write module `m` missed, in sequence order,
    /// through the normal apply path (WAL-appending).
    fn drain_pending(&mut self, m: usize) -> Result<(), StoreError> {
        while let Some(rec) = self.modules[m].pending.pop_front() {
            match rec {
                WalRecord::Insert { uid, seq, vector } => {
                    self.modules[m].store.insert_at_seq(uid, seq, &vector)?;
                }
                WalRecord::Delete { uid, seq } => {
                    self.modules[m].store.delete_at_seq(uid, seq)?;
                }
                _ => unreachable!("only data records are queued"),
            }
            self.write_ledger.catch_up_records += 1;
        }
        Ok(())
    }

    /// Inserts (or updates) `uid`: one global sequence number, applied
    /// to every reachable replica of the owning shard. Unreachable
    /// replicas miss the write and catch up later; if *no* replica is
    /// reachable the write is refused ([`StoreError::ShardUnavailable`])
    /// and no sequence number is consumed.
    ///
    /// # Errors
    /// [`StoreError::DimsMismatch`] on a wrong-length vector,
    /// [`StoreError::ShardUnavailable`] when the whole replica set is
    /// down.
    pub fn insert(&mut self, uid: u32, vector: &[f32]) -> Result<ShardWriteAck, StoreError> {
        if vector.len() != self.config.store.dims {
            return Err(StoreError::DimsMismatch {
                expected: self.config.store.dims,
                got: vector.len(),
            });
        }
        self.write(uid, Some(vector.to_vec()))
    }

    /// Deletes `uid` (blind deletes accepted, as in [`Store::delete`]).
    ///
    /// # Errors
    /// [`StoreError::ShardUnavailable`] when the whole replica set is
    /// down.
    pub fn delete(&mut self, uid: u32) -> Result<ShardWriteAck, StoreError> {
        self.write(uid, None)
    }

    fn write(&mut self, uid: u32, vector: Option<Vec<f32>>) -> Result<ShardWriteAck, StoreError> {
        let shard = self.shard_of(uid);
        let replicas = self.config.replicas;
        let seq = self.next_seq;
        let mut outages = 0u64;
        let mut backoff = 0.0f64;
        let up: Vec<bool> = (0..replicas)
            .map(|r| {
                self.module_available(
                    shard * replicas + r,
                    WRITE_OUTAGE_SCOPE,
                    seq,
                    &mut outages,
                    &mut backoff,
                )
            })
            .collect();
        self.write_ledger.write_outages += outages;
        self.write_ledger.backoff_seconds += backoff;
        if !up.iter().any(|&u| u) {
            // Refused: nothing was made durable, the sequence number is
            // not consumed, and every replica's health takes the miss.
            self.write_ledger.refused_writes += 1;
            for r in 0..replicas {
                self.note_miss(shard * replicas + r);
            }
            return Err(StoreError::ShardUnavailable { shard });
        }
        self.next_seq = seq + 1;
        let record = match &vector {
            Some(v) => WalRecord::Insert {
                uid,
                seq,
                vector: v.clone(),
            },
            None => WalRecord::Delete { uid, seq },
        };
        let mut acked = 0usize;
        let mut lead: Option<WriteAck> = None;
        for (r, &is_up) in up.iter().enumerate() {
            let m = shard * replicas + r;
            if is_up {
                // A reachable replica first replays anything it missed,
                // so its WAL stays in ascending sequence order.
                self.drain_pending(m)?;
                let ack = match &vector {
                    Some(v) => self.modules[m].store.insert_at_seq(uid, seq, v)?,
                    None => self.modules[m].store.delete_at_seq(uid, seq)?,
                };
                acked += 1;
                if lead.is_none() {
                    lead = Some(ack);
                }
                let h = &mut self.modules[m].health;
                h.consecutive_faults = 0;
                h.degraded = false;
            } else {
                self.modules[m].pending.push_back(record.clone());
                let depth = self.modules[m].pending.len();
                self.write_ledger.pending_peak = self.write_ledger.pending_peak.max(depth);
                self.note_miss(m);
            }
        }
        match &vector {
            Some(_) => {
                self.shard_live[shard].insert(uid);
            }
            None => {
                self.shard_live[shard].remove(&uid);
            }
        }
        let failed_over = !up[0];
        if failed_over {
            self.write_ledger.failed_over_writes += 1;
        }
        let lead = lead.expect("at least one replica acked");
        Ok(ShardWriteAck {
            shard,
            seq,
            sealed: lead.sealed,
            wal_len: lead.wal_len,
            replicas_acked: acked,
            failed_over,
        })
    }

    /// Exact scatter-gather top-k: the first healthy, caught-up replica
    /// of each shard executes the query and the per-shard results merge
    /// through the shared `(distance, id)` order — bit-identical to a
    /// single-module store over the union live set. Degraded replicas
    /// are routed around except for periodic probes; a downed primary
    /// fails the read over to the next replica; a shard with no
    /// reachable replica is reported as lost coverage in the returned
    /// [`FaultRecord`] (covered < total, `lost_units` names the shard).
    ///
    /// # Errors
    /// As [`Store::query`].
    pub fn query(
        &mut self,
        q: &[f32],
        metric: DeviceMetric,
        k: usize,
    ) -> Result<StoreQueryResult, StoreError> {
        if k == 0 {
            return Err(StoreError::ZeroK);
        }
        if q.len() != self.config.store.dims {
            return Err(StoreError::DimsMismatch {
                expected: self.config.store.dims,
                got: q.len(),
            });
        }
        if !matches!(metric, DeviceMetric::Euclidean | DeviceMetric::Manhattan) {
            return Err(StoreError::UnsupportedMetric);
        }
        let batch_seq = self.read_batches;
        self.read_batches += 1;
        let policy = self.policy();
        let mut top = TopK::new(k);
        let mut faults = FaultRecord::default();
        let mut device_seconds = 0.0f64;
        let mut energy_mj = 0.0f64;
        let mut segments_scanned = 0usize;
        let mut memtable_scanned = 0usize;
        let mut suppressed = 0usize;
        let mut outages = 0u64;
        let mut backoff = 0.0f64;
        let mut failed_over = 0u64;
        for shard in 0..self.config.shards {
            let mut served = false;
            for r in 0..self.config.replicas {
                let m = shard * self.config.replicas + r;
                // Degrade-and-reprobe: routed around until the probe
                // interval elapses, then given a live attempt.
                if self.modules[m].health.degraded
                    && self.modules[m].health.batches_since_probe + 1 < policy.probe_interval
                {
                    self.modules[m].health.batches_since_probe += 1;
                    continue;
                }
                if !self.module_available(
                    m,
                    READ_OUTAGE_SCOPE,
                    batch_seq,
                    &mut outages,
                    &mut backoff,
                ) {
                    self.modules[m].health.batches_since_probe = 0;
                    self.note_miss(m);
                    continue;
                }
                // Reachable: replay missed writes, then serve the shard.
                self.drain_pending(m)?;
                let result = self.modules[m].store.query(q, metric, k)?;
                for n in &result.neighbors {
                    top.offer(n.id, n.dist);
                }
                device_seconds = device_seconds.max(result.device_seconds);
                energy_mj += result.energy_mj;
                segments_scanned += result.segments_scanned;
                memtable_scanned += result.memtable_scanned;
                suppressed += result.suppressed;
                faults.accumulate(&result.faults);
                let h = &mut self.modules[m].health;
                h.batches_since_probe = 0;
                h.consecutive_faults = 0;
                h.degraded = false;
                if r > 0 {
                    failed_over += 1;
                }
                served = true;
                break;
            }
            if !served {
                // Honest coverage: the shard's acknowledged live count
                // goes uncovered. An empty lost shard loses nothing (and
                // must not claim a phantom lost unit).
                let live = self.shard_live[shard].len() as u64;
                faults.total_vectors += live;
                if live > 0 {
                    faults.lost_module += 1;
                    faults.lost_units.push(shard as u32);
                }
            }
        }
        faults.module_outages += outages;
        faults.failed_over += failed_over;
        faults.recovery_seconds += backoff;
        Ok(StoreQueryResult {
            neighbors: top.into_sorted(),
            device_seconds,
            energy_mj,
            segments_scanned,
            memtable_scanned,
            suppressed,
            faults,
        })
    }

    /// Seals every module's memtable; returns how many sealed.
    pub fn seal_all(&mut self) -> usize {
        self.modules
            .iter_mut()
            .map(|m| m.store.seal())
            .filter(|&sealed| sealed)
            .count()
    }

    /// True when any module owes a compaction.
    pub fn compaction_needed(&self) -> bool {
        self.modules.iter().any(|m| m.store.compaction_needed())
    }

    /// Runs one compaction on the first module owing one; `false` when
    /// no module does. The maintenance loop calls this until it drains.
    pub fn compact_step(&mut self) -> bool {
        self.modules.iter_mut().any(|m| m.store.compact_step())
    }

    /// The visible set, uid-ascending, assembled from one caught-up
    /// replica per shard (shards partition the uid space, so the merge
    /// is a disjoint union).
    pub fn live_set(&self) -> Vec<(u32, Vec<f32>)> {
        let mut out = Vec::with_capacity(self.live_len());
        for shard in 0..self.config.shards {
            let m = self
                .caught_up_replica(shard)
                .expect("every shard has a caught-up replica");
            out.extend(self.modules[m].store.live_set());
        }
        out.sort_by_key(|(uid, _)| *uid);
        out
    }

    /// First replica of `shard` with an empty pending queue — by
    /// construction at least one exists (the replica that acked the
    /// shard's last write drained its queue first).
    fn caught_up_replica(&self, shard: usize) -> Option<usize> {
        (0..self.config.replicas)
            .map(|r| shard * self.config.replicas + r)
            .find(|&m| self.modules[m].pending.is_empty())
    }

    /// Per-module deep snapshots (see [`Store::snapshot`]); two sharded
    /// stores with equal snapshot vectors answer identically.
    pub fn snapshot(&self) -> Vec<Snapshot> {
        self.modules.iter().map(|m| m.store.snapshot()).collect()
    }

    /// Per-module full WAL images, module order.
    pub fn wal_images(&self) -> Vec<Vec<u8>> {
        self.modules
            .iter()
            .map(|m| m.store.wal_bytes().to_vec())
            .collect()
    }

    /// Per-module crash images for crash event `event`: each module's
    /// WAL is torn at an independent [`CrashSpec::torn_tail_for`] cut,
    /// clamped to its synced watermark. Feed to [`ShardedStore::open`].
    pub fn crash_images(&self, crash: &CrashSpec, event: u64) -> Vec<Vec<u8>> {
        self.modules
            .iter()
            .enumerate()
            .map(|(m, ms)| {
                let cut = crash.torn_tail_for(m as u64, event, ms.store.wal_bytes().len() as u64);
                ms.store.crash_wal_image(cut).to_vec()
            })
            .collect()
    }

    /// Aggregate lifecycle counters over all modules (seconds are
    /// summed; `levels` is the deepest module's).
    pub fn stats(&self) -> StoreStats {
        let mut agg: Option<StoreStats> = None;
        for m in &self.modules {
            let s = m.store.stats();
            agg = Some(match agg {
                None => s,
                Some(a) => StoreStats {
                    wal_records: a.wal_records + s.wal_records,
                    wal_bytes: a.wal_bytes + s.wal_bytes,
                    wal_durable_bytes: a.wal_durable_bytes + s.wal_durable_bytes,
                    payload_bytes: a.payload_bytes + s.payload_bytes,
                    staged_bytes: a.staged_bytes + s.staged_bytes,
                    seals: a.seals + s.seals,
                    compactions: a.compactions + s.compactions,
                    seal_seconds: a.seal_seconds + s.seal_seconds,
                    compact_seconds: a.compact_seconds + s.compact_seconds,
                    max_compact_seconds: a.max_compact_seconds.max(s.max_compact_seconds),
                    segments: a.segments + s.segments,
                    levels: a.levels.max(s.levels),
                },
            });
        }
        agg.expect("at least one module")
    }

    /// Per-module lifecycle counters.
    pub fn module_stats(&self, m: usize) -> StoreStats {
        self.modules[m].store.stats()
    }

    /// Builds the sharded account (cross-checked by
    /// [`ssam_core::telemetry::verify_shard_account`]); `seq` is left 0
    /// for the sink to assign.
    pub fn account(&self, label: &str) -> ShardAccount {
        let replicas = self.config.replicas;
        let modules = self
            .modules
            .iter()
            .enumerate()
            .map(|(m, ms)| ModuleShardAccount {
                module: m,
                shard: m / replicas,
                replica: m % replicas,
                behind: ms.pending.len(),
                degraded: ms.health.degraded,
                down: ms.forced_down,
                store: ms.store.account(&format!("{label}/m{m}")),
            })
            .collect();
        ShardAccount {
            seq: 0,
            label: label.to_string(),
            shards: self.config.shards,
            replicas,
            live: self.live_len(),
            shard_live: self.shard_live.iter().map(BTreeSet::len).collect(),
            modules,
        }
    }

    /// Posts the current account to the attached telemetry sink (no-op
    /// without one), where it is verified like a store account.
    pub fn record_account(&self, label: &str) {
        if let Some(sink) = &self.telemetry {
            sink.record_shard(self.account(label));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(shards: usize, replicas: usize) -> ShardedStoreConfig {
        let mut store = StoreConfig::new(3);
        store.memtable_capacity = 4;
        store.fanout = 2;
        store.device.fast_path = true;
        ShardedStoreConfig::new(shards, replicas, store)
    }

    fn vec_for(i: u32) -> Vec<f32> {
        (0..3)
            .map(|d| (((i * 13 + d * 7) % 19) as f32 - 9.0) / 10.0)
            .collect()
    }

    #[test]
    fn placement_reuses_interleaving_math() {
        let s = ShardedStore::create(config(4, 2));
        for uid in 0..64u32 {
            assert_eq!(s.shard_of(uid), (uid % 4) as usize);
        }
    }

    #[test]
    fn writes_spread_and_queries_merge_across_shards() {
        let mut s = ShardedStore::create(config(3, 2));
        for i in 0..30u32 {
            let ack = s.insert(i, &vec_for(i)).unwrap();
            assert_eq!(ack.shard, (i % 3) as usize);
            assert_eq!(ack.replicas_acked, 2);
            assert!(!ack.failed_over);
        }
        assert_eq!(s.live_len(), 30);
        let r = s.query(&vec_for(7), DeviceMetric::Euclidean, 1).unwrap();
        assert_eq!(r.neighbors[0].id, 7);
        assert_eq!(r.neighbors[0].dist, 0.0);
        assert_eq!(r.coverage(), 1.0);
        s.delete(7).unwrap();
        let r = s.query(&vec_for(7), DeviceMetric::Euclidean, 1).unwrap();
        assert_ne!(r.neighbors[0].id, 7);
        assert_eq!(s.live_len(), 29);
    }

    #[test]
    fn killed_primary_fails_writes_over_and_catches_up_on_revive() {
        let mut s = ShardedStore::create(config(2, 2));
        for i in 0..8u32 {
            s.insert(i, &vec_for(i)).unwrap();
        }
        // Kill shard 0's primary (module 0); writes to shard 0 keep
        // landing — on the replica's WAL.
        s.kill_module(0);
        let ack = s.insert(10, &vec_for(10)).unwrap();
        assert_eq!(ack.shard, 0);
        assert!(ack.failed_over);
        assert_eq!(ack.replicas_acked, 1);
        assert_eq!(s.pending_depths()[0], 1);
        assert!(s.write_ledger().failed_over_writes >= 1);
        // Reads still see the write (served by the replica).
        let r = s.query(&vec_for(10), DeviceMetric::Euclidean, 1).unwrap();
        assert_eq!(r.neighbors[0].id, 10);
        assert_eq!(r.coverage(), 1.0);
        // Revive: the next write drains the pending queue first.
        s.revive_module(0);
        s.insert(12, &vec_for(12)).unwrap();
        assert_eq!(s.pending_total(), 0);
        s.check_write_ledger()
            .expect("ledger closes after catch-up");
    }

    #[test]
    fn whole_shard_down_refuses_writes_and_loses_coverage_honestly() {
        let mut s = ShardedStore::create(config(2, 2));
        for i in 0..8u32 {
            s.insert(i, &vec_for(i)).unwrap();
        }
        s.kill_module(0);
        s.kill_module(1);
        let err = s.insert(14, &vec_for(14)).unwrap_err();
        assert_eq!(err, StoreError::ShardUnavailable { shard: 0 });
        assert_eq!(s.write_ledger().refused_writes, 1);
        // Shard 1 writes still work.
        s.insert(15, &vec_for(15)).unwrap();
        // Reads lose shard 0's live set, honestly.
        let r = s.query(&vec_for(0), DeviceMetric::Euclidean, 2).unwrap();
        assert!(r.coverage() < 1.0);
        assert_eq!(r.faults.lost_units, vec![0]);
        r.faults
            .check_closure()
            .expect("lost coverage still closes");
        assert!(r.neighbors.iter().all(|n| n.id % 2 == 1));
    }

    #[test]
    fn recovery_is_deterministic_and_idempotent_over_torn_images() {
        let mut s = ShardedStore::create(config(2, 2));
        for i in 0..24u32 {
            s.insert(i % 12, &vec_for(i)).unwrap();
            if i % 5 == 0 {
                s.delete(i % 7).unwrap();
            }
        }
        let crash = CrashSpec::new(0xFEED);
        let images = s.crash_images(&crash, 3);
        // Per-module cuts are independent somewhere.
        let (a, ra) = ShardedStore::open(config(2, 2), &images).unwrap();
        let (b, rb) = ShardedStore::open(config(2, 2), &images).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.snapshot(), b.snapshot());
        // Idempotent: re-opening the recovered WALs merges nothing new.
        let (c, rc) = ShardedStore::open(config(2, 2), &a.wal_images()).unwrap();
        assert_eq!(rc.catch_up_records, 0);
        assert_eq!(rc.total.truncated, 0);
        assert_eq!(c.snapshot(), a.snapshot());
    }

    #[test]
    fn account_verifies_through_failover() {
        use ssam_core::telemetry::Telemetry;
        let sink = Telemetry::new();
        let mut s = ShardedStore::create(config(2, 2));
        s.attach_telemetry(&sink);
        for i in 0..10u32 {
            s.insert(i, &vec_for(i)).unwrap();
        }
        s.record_account("steady");
        s.kill_module(2);
        for i in 10..16u32 {
            s.insert(i, &vec_for(i)).unwrap();
        }
        s.record_account("one_down");
        s.revive_module(2);
        s.query(&vec_for(1), DeviceMetric::Euclidean, 3).unwrap();
        s.record_account("healed");
        assert!(sink.violations().is_empty(), "{:?}", sink.violations());
        assert_eq!(sink.shard_accounts().len(), 3);
    }
}
