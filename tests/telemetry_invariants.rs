//! Integration tests for the query-scoped telemetry layer: every
//! execution path (module device, on-device index, cluster) must emit
//! records that (a) pass every `verify_record` accounting invariant,
//! (b) reconcile with the `QueryTiming`/`BatchTiming` the device itself
//! reported, and (c) round-trip through the JSONL export. The corruption
//! tests take a *real* device-produced record, break exactly one account,
//! and assert the matching invariant fires.

use ssam::core::device::cluster::SsamCluster;
use ssam::core::device::indexed::IndexedSsamDevice;
use ssam::core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam::core::telemetry::{verify_record, AccountingError, QueryRecord, RecordKind, Telemetry};
use ssam::datasets::json;
use ssam::knn::VectorStore;

const DIMS: usize = 8;
const REL_TOL: f64 = 1e-9;

fn store(n: usize, seed: u64) -> VectorStore {
    let mut s = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        let v: Vec<f32> = (0..DIMS)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as i32 % 1000) as f32 / 500.0
            })
            .collect();
        s.push(&v);
    }
    s
}

fn queries(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..DIMS)
                .map(|j| ((i + 3 * j) as f32 * 0.37).sin())
                .collect()
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()) + 1e-18
}

/// Runs a batch through `SsamDevice` with a sink attached and returns
/// the collected records (all of which already survived collection-time
/// checking — a violation would have panicked in this debug build).
fn device_records(batch: usize) -> (Telemetry, Vec<QueryRecord>) {
    let mut dev = SsamDevice::new(SsamConfig {
        fast_path: false,
        ..SsamConfig::default()
    });
    dev.load_vectors(&store(300, 17));
    let sink = Telemetry::default();
    dev.attach_telemetry(&sink);
    let qs = queries(batch);
    let dq: Vec<DeviceQuery<'_>> = qs.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
    let out = dev.query_batch(&dq, 5).expect("batch runs");

    let records = sink.records();
    assert_eq!(records.len(), batch + 1, "per-query records + batch record");
    assert!(sink.violations().is_empty(), "{:?}", sink.violations());

    // Per-query records reconcile with the serial-equivalent timings.
    for (r, res) in records.iter().zip(&out.results) {
        assert_eq!(r.kind, RecordKind::Query);
        assert!(close(r.seconds, res.timing.seconds));
        assert_eq!(r.total_cycles, res.timing.total_cycles);
        assert_eq!(r.total_bytes, res.timing.total_bytes);
        assert!(close(r.energy_mj, res.timing.energy_mj));
        assert_eq!(r.compute_bound, res.timing.compute_bound);
        assert_eq!(r.vaults.len(), res.vault_stats.len());
    }
    // The batch record reconciles with the pipelined BatchTiming.
    let b = records.last().expect("batch record");
    assert_eq!(b.kind, RecordKind::Batch);
    assert_eq!(b.batch, batch);
    assert!(close(b.seconds, out.timing.seconds));
    assert_eq!(b.total_cycles, out.timing.total_cycles);
    assert_eq!(b.total_bytes, out.timing.total_bytes);
    assert!(close(b.energy_mj, out.timing.energy_mj));
    (sink, records)
}

#[test]
fn device_records_verify_and_reconcile() {
    let (_, records) = device_records(3);
    for r in &records {
        verify_record(r).expect("every record passes verification");
    }
}

#[test]
fn indexed_records_verify_and_reconcile() {
    let mut dev = IndexedSsamDevice::build(SsamConfig::default(), &store(400, 23), 16);
    let sink = Telemetry::default();
    dev.attach_telemetry(&sink);
    let mut timings = Vec::new();
    for q in queries(3) {
        let (_, t, _) = dev.query(&q, 5, 8).expect("query runs");
        timings.push(t);
    }
    assert_eq!(sink.len(), 3);
    assert!(sink.violations().is_empty(), "{:?}", sink.violations());
    for (r, t) in sink.records().iter().zip(&timings) {
        assert_eq!(r.kind, RecordKind::Indexed);
        assert!(close(r.seconds, t.seconds));
        assert_eq!(r.total_cycles, t.total_cycles);
        assert_eq!(r.total_bytes, t.total_bytes);
        assert!(close(r.energy_mj, t.energy_mj));
        assert_eq!(r.compute_bound, t.compute_bound);
        verify_record(r).expect("record passes verification");
    }
}

#[test]
fn cluster_records_verify_and_reconcile() {
    let mut cluster = SsamCluster::build(SsamConfig::default(), 3, &store(450, 31));
    let sink = Telemetry::default();
    cluster.attach_telemetry(&sink);
    let qs = queries(2);
    let refs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
    let out = cluster.query_batch(&refs, 4).expect("cluster runs");
    assert_eq!(sink.len(), 2);
    assert!(sink.violations().is_empty(), "{:?}", sink.violations());
    for (r, (_, t)) in sink.records().iter().zip(&out) {
        assert_eq!(r.kind, RecordKind::Cluster);
        assert_eq!(r.vaults.len(), 3, "one account per module");
        assert!(close(r.seconds, t.seconds));
        assert!(close(r.energy_mj, t.energy_mj));
        assert!(close(r.phases.simulate_seconds, t.module_seconds));
        verify_record(r).expect("record passes verification");
    }
}

#[test]
fn jsonl_export_parses_and_round_trips() {
    let (sink, records) = device_records(2);
    let jsonl = sink.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), records.len());
    for (line, r) in lines.iter().zip(&records) {
        let v = json::from_str(line).expect("line is valid JSON");
        let obj = v.as_object().expect("record is an object");
        assert_eq!(obj["seq"].as_f64().expect("seq") as u64, r.seq);
        assert_eq!(obj["kind"].as_str().expect("kind"), r.kind.name());
        assert_eq!(obj["label"].as_str().expect("label"), r.label);
        assert!(close(obj["seconds"].as_f64().expect("seconds"), r.seconds));
        assert_eq!(
            obj["total_cycles"].as_f64().expect("cycles") as u64,
            r.total_cycles
        );
        assert_eq!(
            obj["total_bytes"].as_f64().expect("bytes") as u64,
            r.total_bytes
        );
        let vaults = obj["vaults"].as_array().expect("vaults array");
        assert_eq!(vaults.len(), r.vaults.len());
        // Σ per-vault bytes in the *export* still equals the exported
        // total — the invariant survives serialization.
        let sum: u64 = vaults
            .iter()
            .map(|v| {
                v.as_object().expect("vault object")["bytes"]
                    .as_f64()
                    .expect("vault bytes") as u64
            })
            .sum();
        assert_eq!(sum, r.total_bytes);
    }
}

#[test]
fn corrupted_bytes_sum_fires_on_real_record() {
    let (_, records) = device_records(1);
    let mut r = records[0].clone();
    r.vaults[0].bytes += 1;
    assert!(matches!(
        verify_record(&r),
        Err(AccountingError::BytesMismatch { .. })
    ));
}

#[test]
fn corrupted_classification_fires_on_real_record() {
    let (_, records) = device_records(1);
    let mut r = records[0].clone();
    r.compute_bound = !r.compute_bound;
    assert!(matches!(
        verify_record(&r),
        Err(AccountingError::ClassificationMismatch { .. })
    ));
}

#[test]
fn corrupted_energy_sign_fires_on_real_record() {
    let (_, records) = device_records(1);
    let mut r = records[0].clone();
    r.energy_mj = -r.energy_mj;
    assert!(matches!(
        verify_record(&r),
        Err(AccountingError::BadEnergy { .. })
    ));
}

#[test]
fn corrupted_seconds_fires_on_real_record() {
    let (_, records) = device_records(1);
    let mut r = records[0].clone();
    r.seconds *= 1.5;
    assert!(matches!(
        verify_record(&r),
        Err(AccountingError::SecondsMismatch { .. })
    ));
}
