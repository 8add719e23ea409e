//! Deterministic integration tests for the serving runtime: every
//! trigger of the batcher state machine exercised through the real
//! threaded server, plus admission control, shutdown drain, panic
//! isolation, and telemetry cross-checking.

use std::time::{Duration, Instant};

use ssam_core::device::{SsamConfig, SsamDevice};
use ssam_core::telemetry::Telemetry;
use ssam_knn::binary::BinaryStore;
use ssam_knn::VectorStore;
use ssam_serve::{OwnedQuery, Request, ServeConfig, ServeError, ServeFaults, Server};

const DIMS: usize = 8;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

fn float_vec(x: &mut u64) -> Vec<f32> {
    (0..DIMS)
        .map(|_| ((lcg(x) >> 40) as i32 % 1000) as f32 / 500.0)
        .collect()
}

fn float_device(n: usize, seed: u64) -> SsamDevice {
    let mut store = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        store.push(&float_vec(&mut x));
    }
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_vectors(&store);
    dev
}

/// A long-linger config with one worker: nothing flushes until the
/// trigger under test fires, and scheduling is single-file.
fn slow_config() -> ServeConfig {
    ServeConfig {
        max_batch: 64,
        max_linger: Duration::from_secs(3600),
        workers: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn served_responses_match_serial_queries() {
    let mut reference = float_device(96, 7);
    let server = Server::start(
        float_device(96, 7),
        ServeConfig {
            max_batch: 4,
            max_linger: Duration::from_millis(5),
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();

    let mut x = 99u64;
    let queries: Vec<Vec<f32>> = (0..10).map(|_| float_vec(&mut x)).collect();
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| {
            handle
                .submit(Request::new(OwnedQuery::Euclidean(q.clone()), 5))
                .expect("admitted")
        })
        .collect();
    for (q, t) in queries.iter().zip(tickets) {
        let resp = t.wait().expect("served");
        let serial = reference
            .query(&ssam_core::device::DeviceQuery::Euclidean(q), 5)
            .expect("serial");
        assert_eq!(resp.neighbors, serial.neighbors, "serving changed results");
        assert!(resp.batch_size >= 1);
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, 10);
    assert_eq!(stats.failed, 0);
}

#[test]
fn linger_timeout_flushes_partial_batch() {
    let server = Server::start(
        float_device(48, 3),
        ServeConfig {
            max_batch: 64,
            max_linger: Duration::from_millis(100),
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 5u64;
    // Submissions are non-blocking, so all three requests sit queued
    // long before the 100 ms linger bound of the first: one batch of 3.
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            handle
                .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        let r = t.wait().expect("served");
        assert_eq!(r.batch_size, 3);
    }
    let stats = server.shutdown();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.batch_hist.get(3), Some(&1));
}

#[test]
fn full_batch_flushes_without_waiting_for_linger() {
    let started = Instant::now();
    let server = Server::start(
        float_device(48, 4),
        ServeConfig {
            max_batch: 3,
            ..slow_config()
        },
    );
    let handle = server.handle();
    let mut x = 11u64;
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            handle
                .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        assert_eq!(t.wait().expect("served").batch_size, 3);
    }
    // The linger bound is an hour; only the size trigger can explain a
    // prompt flush.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "batch waited out the linger despite being full"
    );
    let stats = server.shutdown();
    assert_eq!(stats.batch_hist.get(3), Some(&1));
}

#[test]
fn expired_deadline_rejects_promptly_without_flushing() {
    let started = Instant::now();
    let server = Server::start(float_device(48, 5), slow_config());
    let handle = server.handle();
    let mut x = 13u64;
    // A lone request can only leave the hour-long linger window through
    // its deadline — as a typed rejection, never a hang.
    let err = handle
        .query(
            Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4)
                .with_timeout(Duration::from_millis(50)),
        )
        .expect_err("deadline must reject");
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "deadline rejection waited out the linger"
    );
    let stats = server.shutdown();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.served, 0);
}

#[test]
fn default_timeout_applies_when_request_has_none() {
    let server = Server::start(
        float_device(48, 6),
        ServeConfig {
            default_timeout: Some(Duration::from_millis(50)),
            ..slow_config()
        },
    );
    let mut x = 17u64;
    let err = server
        .handle()
        .query(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect_err("server-wide deadline must reject");
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
}

#[test]
fn shutdown_drains_queued_requests() {
    let server = Server::start(float_device(48, 8), slow_config());
    let handle = server.handle();
    let mut x = 19u64;
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            handle
                .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
                .expect("admitted")
        })
        .collect();
    // None of the three can flush on its own inside the hour-long
    // linger; shutdown must drain them, not abandon them.
    let stats = server.shutdown();
    assert_eq!(stats.served, 3);
    for t in tickets {
        t.wait().expect("drained requests are served");
    }
    // The handle outlives the server and reports closure.
    let err = handle
        .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect_err("closed");
    assert_eq!(err, ServeError::ShuttingDown);
}

#[test]
fn bounded_queue_rejects_overload_with_typed_error() {
    let server = Server::start(
        float_device(48, 9),
        ServeConfig {
            queue_capacity: 2,
            ..slow_config()
        },
    );
    let handle = server.handle();
    let mut x = 23u64;
    // The worker lingers for an hour, so the first two requests occupy
    // the whole queue; the third must bounce immediately.
    let _t1 = handle
        .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect("admitted");
    let _t2 = handle
        .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect("admitted");
    let err = handle
        .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect_err("overloaded");
    assert_eq!(err, ServeError::Overloaded { capacity: 2 });
    let stats = server.shutdown();
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(stats.served, 2);
}

#[test]
fn malformed_requests_rejected_at_admission() {
    let server = Server::start(float_device(48, 10), slow_config());
    let handle = server.handle();
    let cases = [
        Request::new(OwnedQuery::Euclidean(vec![0.0; DIMS]), 0),
        Request::new(OwnedQuery::Euclidean(vec![]), 4),
        Request::new(OwnedQuery::Euclidean(vec![0.0; DIMS + 1]), 4),
        Request::new(OwnedQuery::Hamming(vec![0; 2]), 4),
    ];
    for req in cases {
        let err = handle.submit(req.clone()).expect_err("must reject");
        assert!(matches!(err, ServeError::BadRequest(_)), "{req:?}: {err}");
    }
    assert_eq!(server.shutdown().submitted, 0);
}

#[test]
fn binary_device_serves_hamming_and_rejects_floats() {
    let mut store = BinaryStore::new(64);
    let mut x = 31u64;
    for _ in 0..48 {
        store.push(&[(lcg(&mut x) >> 16) as u32, (lcg(&mut x) >> 16) as u32]);
    }
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_binary(&store);
    let mut reference = dev.clone();

    let server = Server::start(
        dev,
        ServeConfig {
            max_linger: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let err = handle
        .submit(Request::new(OwnedQuery::Euclidean(vec![0.0; 2]), 4))
        .expect_err("float query against binary payload");
    assert!(matches!(err, ServeError::BadRequest(_)));

    let code = vec![(lcg(&mut x) >> 16) as u32, (lcg(&mut x) >> 16) as u32];
    let resp = handle
        .query(Request::new(OwnedQuery::Hamming(code.clone()), 6))
        .expect("served");
    let serial = reference
        .query(&ssam_core::device::DeviceQuery::Hamming(&code), 6)
        .expect("serial");
    assert_eq!(resp.neighbors, serial.neighbors);
}

#[test]
fn mixed_k_requests_batch_separately_but_all_serve() {
    let server = Server::start(
        float_device(64, 12),
        ServeConfig {
            max_batch: 8,
            max_linger: Duration::from_millis(20),
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 37u64;
    let tickets: Vec<(usize, _)> = (0..6)
        .map(|i| {
            let k = if i % 2 == 0 { 3 } else { 9 };
            let t = handle
                .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), k))
                .expect("admitted");
            (k, t)
        })
        .collect();
    for (k, t) in tickets {
        let r = t.wait().expect("served");
        assert_eq!(r.neighbors.len(), k);
        // k is part of the batch key: a batch never mixes depths.
        assert!(r.batch_size <= 3, "incompatible requests coalesced");
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, 6);
    assert!(stats.batches >= 2);
}

#[test]
fn worker_panic_is_isolated_and_server_recovers() {
    let server = Server::start(
        float_device(48, 14),
        ServeConfig {
            max_batch: 1, // every request is its own batch
            max_linger: Duration::from_millis(1),
            workers: 1,
            faults: ServeFaults {
                panic_on_batch: Some(0),
                ..ServeFaults::default()
            },
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 41u64;
    let err = handle
        .query(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect_err("injected fault");
    assert_eq!(err, ServeError::WorkerPanicked);
    // The worker recovered on a pristine device clone; the queue is not
    // wedged and subsequent requests serve normally.
    let resp = handle
        .query(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect("server recovered");
    assert_eq!(resp.neighbors.len(), 4);
    let stats = server.shutdown();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.served, 1);
}

#[test]
fn served_batches_record_verified_telemetry() {
    let sink = Telemetry::new();
    let mut dev = float_device(64, 15);
    dev.attach_telemetry(&sink);
    let server = Server::start(
        dev,
        ServeConfig {
            max_batch: 4,
            max_linger: Duration::from_millis(5),
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 47u64;
    let tickets: Vec<_> = (0..8)
        .map(|_| {
            handle
                .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 5))
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("served");
    }
    server.shutdown();
    // Worker device clones share the sink attached before start: every
    // served query left a self-checked record, and none was retained as
    // a violation.
    assert!(sink.records().len() >= 8, "served queries left no records");
    assert!(
        sink.violations().is_empty(),
        "serve-path accounting violated telemetry invariants: {:?}",
        sink.violations()
    );
}

#[test]
fn panicked_batch_requests_are_reenqueued_once() {
    // Four requests share the panicking batch; none of them is the
    // proven culprit (the batch had company), so each gets one retry
    // and the rebuilt batch serves them all.
    let server = Server::start(
        float_device(48, 14),
        ServeConfig {
            max_batch: 4,
            max_linger: Duration::from_secs(3600),
            workers: 1,
            faults: ServeFaults {
                panic_on_batch: Some(0),
                ..ServeFaults::default()
            },
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 51u64;
    let tickets: Vec<_> = (0..4)
        .map(|_| {
            handle
                .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        let resp = t.wait().expect("re-enqueued after panic, then served");
        assert_eq!(resp.neighbors.len(), 4);
        assert_eq!(resp.coverage, 1.0);
    }
    let stats = server.shutdown();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.retried_panic, 4);
    assert_eq!(stats.served, 4);
    assert_eq!(stats.failed, 0);
}

#[test]
fn degraded_coverage_surfaces_after_retry_budget() {
    use ssam_faults::FaultPlan;
    use std::sync::Arc;
    // Vault 0 is permanently dead: every execution loses its shard, so
    // coverage is deterministically below 1.0 on the first try and on
    // the retry. With the default min_coverage of 1.0 and the default
    // retry budget of 1, the request retries once and then surfaces as
    // Degraded with the honest coverage fraction.
    let plan = FaultPlan::parse("dead_vaults=0").expect("valid spec");
    let server = Server::start(
        float_device(256, 21),
        ServeConfig {
            max_batch: 1,
            max_linger: Duration::from_millis(1),
            workers: 1,
            faults: ServeFaults {
                plan: Some(Arc::new(plan)),
                ..ServeFaults::default()
            },
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 61u64;
    let err = handle
        .query(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect_err("dead vault can never reach full coverage");
    match err {
        ServeError::Degraded { coverage } => {
            assert!(coverage > 0.0 && coverage < 1.0, "coverage = {coverage}");
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.retried_degraded, 1);
    assert_eq!(stats.served, 0);
    assert_eq!(stats.failed, 0);
}

#[test]
fn rate_limited_tenant_bounces_without_occupying_the_queue() {
    use ssam_serve::{QosConfig, TenantId, TenantQos};
    let tenant = TenantId(5);
    let server = Server::start(
        float_device(48, 27),
        ServeConfig {
            qos: QosConfig::default().with_tenant(
                tenant,
                TenantQos {
                    rate: Some(0.001),
                    burst: 2.0,
                    ..TenantQos::default()
                },
            ),
            ..slow_config()
        },
    );
    let handle = server.handle();
    let mut x = 67u64;
    // The bucket starts full: exactly `burst` admissions, then typed
    // rejection naming the tenant — while an unlimited tenant admits
    // freely throughout.
    let mut tickets = Vec::new();
    for _ in 0..2 {
        tickets.push(
            handle
                .submit(
                    Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4).with_tenant(tenant),
                )
                .expect("burst admits"),
        );
    }
    let err = handle
        .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4).with_tenant(tenant))
        .expect_err("bucket empty");
    assert_eq!(err, ServeError::RateLimited { tenant });
    tickets.push(
        handle
            .submit(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
            .expect("unlimited tenant admits"),
    );
    let stats = server.shutdown();
    for t in tickets {
        t.wait().expect("admitted requests drain");
    }
    assert_eq!(stats.rejected_rate_limited, 1);
    assert_eq!(stats.served, 3);
}

#[test]
fn per_tenant_default_timeout_overrides_server_default() {
    use ssam_serve::{QosConfig, TenantId, TenantQos};
    let strict = TenantId(6);
    let server = Server::start(
        float_device(48, 28),
        ServeConfig {
            default_timeout: Some(Duration::from_secs(3600)),
            qos: QosConfig::default().with_tenant(
                strict,
                TenantQos {
                    default_timeout: Some(Duration::from_millis(40)),
                    ..TenantQos::default()
                },
            ),
            ..slow_config()
        },
    );
    let handle = server.handle();
    let mut x = 71u64;
    // The strict tenant's 40 ms budget beats the hour-long server
    // default; inside the hour-long linger only a deadline can end the
    // wait, so a prompt DeadlineExceeded proves the tenant SLO applied.
    let started = Instant::now();
    let err = handle
        .query(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4).with_tenant(strict))
        .expect_err("tenant deadline must fire");
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
    assert!(started.elapsed() < Duration::from_secs(60));
    // An explicit request timeout still wins over the tenant default.
    let started = Instant::now();
    let err = handle
        .query(
            Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4)
                .with_tenant(strict)
                .with_timeout(Duration::from_millis(5)),
        )
        .expect_err("request deadline must fire");
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
    assert!(started.elapsed() < Duration::from_secs(1));
    server.shutdown();
}

#[test]
fn per_tenant_min_coverage_relaxes_the_global_slo() {
    use ssam_faults::FaultPlan;
    use ssam_serve::{QosConfig, ServeFaults, TenantId, TenantQos};
    use std::sync::Arc;
    // Global SLO demands full coverage; the tolerant tenant opts down to
    // 0.5. Under a dead vault the tolerant tenant serves with honest
    // partial coverage while a default tenant degrades.
    let tolerant = TenantId(7);
    let plan = FaultPlan::parse("dead_vaults=0").expect("valid spec");
    let server = Server::start(
        float_device(256, 21),
        ServeConfig {
            max_batch: 1,
            max_linger: Duration::from_millis(1),
            workers: 1,
            faults: ServeFaults {
                plan: Some(Arc::new(plan)),
                min_coverage: 1.0,
                ..ServeFaults::default()
            },
            qos: QosConfig::default().with_tenant(
                tolerant,
                TenantQos {
                    min_coverage: Some(0.5),
                    ..TenantQos::default()
                },
            ),
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 73u64;
    let resp = handle
        .query(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4).with_tenant(tolerant))
        .expect("tolerant tenant accepts partial coverage");
    assert!(resp.coverage >= 0.5 && resp.coverage < 1.0);
    let err = handle
        .query(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect_err("default tenant keeps the strict SLO");
    assert!(matches!(err, ServeError::Degraded { .. }), "{err}");
    let stats = server.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.degraded, 1);
}

#[test]
fn relaxed_min_coverage_serves_with_honest_coverage() {
    use ssam_faults::FaultPlan;
    use std::sync::Arc;
    // Same dead vault, but the operator accepts partial answers: the
    // response arrives with coverage < 1.0 reported truthfully.
    let plan = FaultPlan::parse("dead_vaults=0").expect("valid spec");
    let server = Server::start(
        float_device(256, 21),
        ServeConfig {
            max_batch: 1,
            max_linger: Duration::from_millis(1),
            workers: 1,
            faults: ServeFaults {
                plan: Some(Arc::new(plan)),
                min_coverage: 0.5,
                ..ServeFaults::default()
            },
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 61u64;
    let resp = handle
        .query(Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect("partial coverage accepted");
    assert_eq!(resp.neighbors.len(), 4);
    assert!(
        resp.coverage >= 0.5 && resp.coverage < 1.0,
        "coverage = {}",
        resp.coverage
    );
    let stats = server.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.degraded, 0);
}
