//! Property tests for the QoS layer — weighted-fair dequeue (no
//! starvation, bounded unfairness, strict tiers) and deterministic
//! token-bucket admission — plus the end-to-end isolation test: a fault
//! storm confined to tenant A must not move tenant B's tail latency
//! beyond a tested bound.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use ssam_core::device::{DeviceMetric, SsamConfig, SsamDevice};
use ssam_faults::FaultPlan;
use ssam_knn::VectorStore;
use ssam_serve::batcher::{plan, Action, BatchKey, PendingMeta};
use ssam_serve::qos::{refill, FairState, TokenBucket};
use ssam_serve::{
    OwnedQuery, QosConfig, Request, ServeConfig, ServeError, ServeFaults, Server, TenantId,
    TenantQos,
};

fn key(tenant: TenantId) -> BatchKey {
    BatchKey {
        metric: DeviceMetric::Euclidean,
        k: 4,
        hw_queue: false,
        tenant,
    }
}

/// Drives `plan()` like a worker would: every tenant keeps `max_batch`
/// requests backlogged at all times (refilled after each flush), `drain`
/// makes every group ripe, and each flush charges the tenant's fair
/// state. Returns per-tenant flushed-request counts and asserts the
/// scheduler invariants at every step.
fn run_backlogged(weights_tiers: &[(f64, u8)], max_batch: usize, steps: usize) -> Vec<u64> {
    let t0 = Instant::now();
    let qos =
        weights_tiers
            .iter()
            .enumerate()
            .fold(QosConfig::default(), |cfg, (i, &(weight, tier))| {
                cfg.with_tenant(
                    TenantId(i as u32),
                    TenantQos {
                        weight,
                        tier,
                        ..TenantQos::default()
                    },
                )
            });
    let mut fair = FairState::default();
    let mut served = vec![0u64; weights_tiers.len()];
    let min_weight = weights_tiers
        .iter()
        .map(|&(w, _)| w)
        .fold(f64::INFINITY, f64::min);
    let unfairness_bound = max_batch as f64 / min_weight + 1e-6;

    for _ in 0..steps {
        // Snapshot: max_batch pending requests per tenant, all ripe.
        let pending: Vec<PendingMeta> = (0..weights_tiers.len())
            .flat_map(|i| {
                (0..max_batch).map(move |_| PendingMeta {
                    key: key(TenantId(i as u32)),
                    enqueued: t0,
                    deadline: None,
                })
            })
            .collect();
        let decision = plan(
            &pending,
            t0 + Duration::from_millis(1),
            max_batch,
            Duration::from_secs(3600),
            true,
            &qos,
            &fair,
        );
        prop_assert!(decision.expired.is_empty());
        let Action::Flush(indices) = decision.action else {
            panic!("backlogged queue must flush");
        };
        prop_assert_eq!(indices.len(), max_batch);
        let tenant = pending[indices[0]].key.tenant;
        for &i in &indices {
            prop_assert_eq!(pending[i].key.tenant, tenant, "batch mixed tenants");
        }

        // Strict priority: the flushed tenant's tier is the minimum tier
        // with ripe work (every tenant is ripe here).
        let min_tier = weights_tiers.iter().map(|&(_, t)| t).min().unwrap();
        prop_assert_eq!(
            weights_tiers[tenant.0 as usize].1,
            min_tier,
            "a ripe lower-tier group was bypassed"
        );

        fair.charge(tenant, indices.len(), weights_tiers[tenant.0 as usize].0);
        served[tenant.0 as usize] += indices.len() as u64;

        // Bounded unfairness among the continuously backlogged tenants of
        // the serving tier: virtual-service spread ≤ max_batch/min weight.
        let services: Vec<f64> = weights_tiers
            .iter()
            .enumerate()
            .filter(|(_, &(_, t))| t == min_tier)
            .map(|(i, _)| fair.service(TenantId(i as u32)))
            .collect();
        let spread = services.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - services.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        prop_assert!(
            spread <= unfairness_bound,
            "virtual-service spread {spread} exceeds bound {unfairness_bound}"
        );
    }
    served
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same tier, arbitrary weights: nobody starves, service stays
    /// within the documented bound, and flushed requests are
    /// proportional to weight within that slack.
    #[test]
    fn weighted_fair_dequeue_has_no_starvation_and_bounded_unfairness(
        weights in prop::collection::vec(0.25f64..8.0, 2..5),
        max_batch in 1usize..8,
    ) {
        let weights_tiers: Vec<(f64, u8)> = weights.iter().map(|&w| (w, 1)).collect();
        let steps = 60 * weights.len();
        let served = run_backlogged(&weights_tiers, max_batch, steps);
        for (i, &s) in served.iter().enumerate() {
            prop_assert!(s > 0, "tenant {i} starved over {steps} flushes");
        }
        // served_i / weight_i is each tenant's virtual service; the
        // run_backlogged bound already pins the spread, so here check the
        // macroscopic consequence: shares track weights.
        let total: u64 = served.iter().sum();
        let weight_sum: f64 = weights.iter().sum();
        for (i, &s) in served.iter().enumerate() {
            let expected = total as f64 * weights[i] / weight_sum;
            let slack = (max_batch as f64) * (weights[i] / weights.iter().fold(f64::INFINITY, |a, &b| a.min(b))) + max_batch as f64;
            prop_assert!(
                (s as f64 - expected).abs() <= slack,
                "tenant {i}: served {s}, expected ≈{expected:.1} (slack {slack:.1})"
            );
        }
    }

    /// Mixed tiers: strict priority between tiers (asserted every step
    /// inside the driver), and nobody in the top tier starves.
    #[test]
    fn strict_tiers_preempt_and_top_tier_stays_fair(
        weights in prop::collection::vec(0.5f64..4.0, 2..5),
        tiers in prop::collection::vec(0u8..3, 2..5),
        max_batch in 1usize..6,
    ) {
        let n = weights.len().min(tiers.len());
        let weights_tiers: Vec<(f64, u8)> =
            weights[..n].iter().zip(&tiers[..n]).map(|(&w, &t)| (w, t)).collect();
        let served = run_backlogged(&weights_tiers, max_batch, 40 * n);
        let min_tier = weights_tiers.iter().map(|&(_, t)| t).min().unwrap();
        for (i, &s) in served.iter().enumerate() {
            if weights_tiers[i].1 == min_tier {
                prop_assert!(s > 0, "top-tier tenant {i} starved");
            } else {
                // Lower tiers never ran: every snapshot had ripe
                // top-tier work (strict priority is absolute).
                prop_assert_eq!(s, 0);
            }
        }
    }

    /// The pure refill function: splitting an interval refills exactly
    /// as much as taking it whole (no spends in between), and the token
    /// count is always inside [0, max(burst, 1)].
    #[test]
    fn token_refill_is_split_invariant_and_clamped(
        rate in 0.1f64..1000.0,
        burst in 0.0f64..100.0,
        dts in prop::collection::vec(0.0f64..0.5, 1..20),
    ) {
        let mut split = 0.0f64;
        for &dt in &dts {
            split = refill(split, rate, burst, dt);
            prop_assert!((0.0..=burst.max(1.0)).contains(&split));
        }
        let whole = refill(0.0, rate, burst, dts.iter().sum());
        prop_assert!(
            (split - whole).abs() <= 1e-9 * whole.max(1.0),
            "split {split} vs whole {whole}"
        );
    }

    /// The stateful bucket: over any arrival pattern, admissions never
    /// exceed burst + rate·elapsed (+1 for the token in flight), and the
    /// whole trajectory is a deterministic function of the pattern.
    #[test]
    fn token_bucket_is_deterministic_and_rate_bounded(
        rate in 1.0f64..500.0,
        burst in 1.0f64..20.0,
        gaps in prop::collection::vec(0.0f64..0.05, 1..200),
    ) {
        let qos = TenantQos { rate: Some(rate), burst, ..TenantQos::default() };
        let t0 = Instant::now();
        let replay = |qos: &TenantQos| -> Vec<bool> {
            let mut bucket = TokenBucket::new(qos, t0);
            let mut now = t0;
            gaps.iter().map(|&g| {
                now += Duration::from_secs_f64(g);
                bucket.try_admit(qos, now)
            }).collect()
        };
        let first = replay(&qos);
        prop_assert_eq!(&first, &replay(&qos), "identical history, different admissions");
        let admitted = first.iter().filter(|&&a| a).count() as f64;
        let elapsed: f64 = gaps.iter().sum();
        prop_assert!(
            admitted <= burst.max(1.0) + rate * elapsed + 1.0,
            "admitted {admitted} over {elapsed}s at rate {rate} burst {burst}"
        );
    }
}

// ---------------------------------------------------------------------
// Isolation under a per-tenant fault storm
// ---------------------------------------------------------------------

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

fn device(n: usize, seed: u64) -> SsamDevice {
    let mut store = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        store.push(&float_vec(&mut x));
    }
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_vectors(&store);
    dev
}

/// Runs two tenants against one server — A optionally under a confined
/// fault storm — and returns tenant B's sorted serve latencies (ms).
fn two_tenant_run(storm_on_a: bool) -> Vec<f64> {
    const PER_TENANT: usize = 120;
    let a = TenantId(1);
    let b = TenantId(2);
    let faults = if storm_on_a {
        ServeFaults {
            plan: Some(Arc::new(
                FaultPlan::parse("dead_vaults=0").expect("valid spec"),
            )),
            storm_tenants: Some(vec![a]),
            ..ServeFaults::default()
        }
    } else {
        ServeFaults::default()
    };
    let server = Server::start(
        device(256, 33),
        ServeConfig {
            max_batch: 8,
            max_linger: Duration::from_micros(200),
            workers: 2,
            faults,
            // Tenant A keeps the strict global coverage SLO (so the storm
            // really costs retries); B inherits the same default — its
            // batches never see the plan, so it always reaches 1.0.
            qos: QosConfig::default(),
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let mut x = 77u64;
    let tickets: Vec<(TenantId, ssam_serve::Ticket)> = (0..2 * PER_TENANT)
        .map(|i| {
            let tenant = if i % 2 == 0 { a } else { b };
            let t = handle
                .submit(
                    Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4).with_tenant(tenant),
                )
                .expect("admitted");
            (tenant, t)
        })
        .collect();
    let mut b_latencies = Vec::new();
    for (tenant, ticket) in tickets {
        match ticket.wait() {
            Ok(resp) => {
                if tenant == b {
                    // The storm never leaks into B's batches: full
                    // coverage, always.
                    assert_eq!(resp.coverage, 1.0, "fault storm leaked into tenant B");
                    b_latencies.push((resp.queue_seconds + resp.service_seconds) * 1e3);
                } else {
                    assert!(
                        !storm_on_a,
                        "tenant A under a dead vault cannot reach full coverage"
                    );
                }
            }
            Err(ServeError::Degraded { coverage }) => {
                assert_eq!(tenant, a, "only the storm tenant may degrade");
                assert!(storm_on_a && coverage < 1.0);
            }
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.served + stats.degraded, 2 * PER_TENANT as u64);
    assert_eq!(b_latencies.len(), PER_TENANT);
    b_latencies.sort_by(|p, q| p.total_cmp(q));
    b_latencies
}

/// The acceptance bound of this PR: a seeded fault storm confined to
/// tenant A (dead vault → every A batch degrades and burns its retry
/// budget) must leave tenant B's p99 within a tested bound of its
/// storm-free baseline. The bound is deliberately generous — shared
/// workers mean *some* interference — but a QoS regression that lets
/// A's retry storm wedge B (the failure mode this guards) blows past it
/// by orders of magnitude.
#[test]
fn tenant_b_p99_survives_tenant_a_fault_storm() {
    let baseline = two_tenant_run(false);
    let stormy = two_tenant_run(true);
    let p99 = |v: &[f64]| v[((0.99 * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
    let (base, storm) = (p99(&baseline), p99(&stormy));
    assert!(
        storm <= base * 5.0 + 100.0,
        "tenant B p99 moved from {base:.2} ms to {storm:.2} ms under tenant A's storm"
    );
}
