//! **serve-load** — load generator for the online serving runtime.
//!
//! Drives [`ssam_serve::Server`] over a scaled GloVe device two ways:
//!
//! * **Closed loop**: a sweep over client concurrencies; each client
//!   thread issues its next query the moment the previous one returns.
//!   Reported per point: sustained throughput, p50/p95/p99 latency, and
//!   the batch-size histogram the dynamic batcher actually formed. The
//!   highest-concurrency point is repeated against a `max_batch = 1`
//!   server (batch-of-1 serial serving) and against the *offline*
//!   `query_batch` path at the same mean batch size, so the run directly
//!   answers "what does dynamic batching buy, and how close is serving
//!   to the offline ceiling?".
//! * **Open loop**: a Poisson arrival process at a fixed rate (default:
//!   70% of the best closed-loop throughput) with non-blocking
//!   submission, the regime where admission control matters — rejected
//!   and deadline-expired requests are counted, never waited on.
//!   Arrivals follow an **absolute schedule** (each tenant's next-arrival
//!   instant is the previous one plus an exponential draw, paced with
//!   sleep-until plus a short spin tail), so the offered rate has no
//!   per-request sleep floor and no drift; the run **fails if achieved
//!   diverges from offered by more than 5%**. Tail percentiles are
//!   reported both over completed requests and over completed+expired
//!   (each expired request counted at its deadline), so shedding load
//!   cannot cosmetically improve the reported p99.
//!
//! With `--tenants <spec>` the open loop becomes a multi-tenant QoS
//! harness: `name:rate=R[,weight=W][,tier=T][,limit=L][,burst=B]`
//! `[,timeout_ms=MS][,min_cov=F][,storm];...` — each tenant is an
//! independent Poisson stream at `rate` q/s, scheduled with per-tenant
//! weight/tier/token-bucket admission (`limit`/`burst`), and `storm`
//! confines the `--faults` plan to that tenant
//! ([`ssam_serve::ServeFaults::storm_tenants`]). The report gains
//! per-tenant p50/p95/p99, goodput, and a Jain fairness index over the
//! fraction of each tenant's demand that was served.
//!
//! Every served query flows through the device's self-checking telemetry
//! ([`ssam_core::telemetry`]); the run **fails** if any accounting
//! violation is retained, so the load test doubles as an end-to-end
//! audit of the serve path. Results go to `BENCH_serve.json` (see
//! `--json`), optionally with the raw per-query records as JSONL
//! (`--telemetry`).
//!
//! With `--faults <spec>` (a [`ssam_faults::FaultPlan::parse`] spec such
//! as `chaos:7` or `seed=3,bit_flip=0.5,vault_out=0.02`) every worker
//! device injects seeded faults; the run then also audits the fault
//! accounting — aggregate injected/corrected/retried/lost counters must
//! close exactly or the run fails — and emits them under `"faults"` in
//! the JSON report.
//!
//! ```text
//! serve_load [--seconds N] [--concurrency 1,4,16,64] [--workers N]
//!            [--max-batch N] [--linger-us N] [--scale F] [--k N]
//!            [--rate QPS] [--timeout-ms N] [--tenants SPEC]
//!            [--min-jain F] [--mutate SPEC] [--memtable N]
//!            [--shards N] [--replicas R] [--faults SPEC]
//!            [--json PATH] [--telemetry PATH] [--csv]
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ssam_bench::{fmt, print_table};
use ssam_core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam_core::telemetry::Telemetry;
use ssam_datasets::json::{self, Value};
use ssam_datasets::PaperDataset;
use ssam_faults::{FaultPlan, FaultRecord};
use ssam_knn::VectorStore;
use ssam_serve::qos::jain_index;
use ssam_serve::{
    OwnedQuery, QosConfig, Request, ServeConfig, ServeError, ServeFaults, Server, TenantId,
    TenantQos,
};

struct Args {
    seconds: f64,
    concurrency: Vec<usize>,
    workers: usize,
    max_batch: usize,
    linger: Duration,
    scale: f64,
    k: Option<usize>,
    rate: Option<f64>,
    timeout: Option<Duration>,
    tenants: Option<String>,
    min_jain: Option<f64>,
    mutate: Option<String>,
    memtable: Option<usize>,
    shards: usize,
    replicas: usize,
    faults: Option<String>,
    json: String,
    telemetry: Option<String>,
    csv: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        seconds: 5.0,
        concurrency: vec![1, 4, 16, 64],
        workers: 2,
        max_batch: 16,
        linger: Duration::from_micros(500),
        scale: 0.001,
        k: None,
        rate: None,
        timeout: None,
        tenants: None,
        min_jain: None,
        mutate: None,
        memtable: None,
        shards: 1,
        replicas: 1,
        faults: None,
        json: "BENCH_serve.json".to_string(),
        telemetry: None,
        csv: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |i: &mut usize, what: &str| -> String {
        *i += 1;
        argv.get(*i)
            .cloned()
            .unwrap_or_else(|| panic!("{what} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seconds" => a.seconds = take(&mut i, "--seconds").parse().expect("float"),
            "--concurrency" => {
                a.concurrency = take(&mut i, "--concurrency")
                    .split(',')
                    .map(|s| s.trim().parse().expect("integer list"))
                    .collect();
                assert!(
                    !a.concurrency.is_empty(),
                    "--concurrency needs at least one"
                );
            }
            "--workers" => a.workers = take(&mut i, "--workers").parse().expect("integer"),
            "--max-batch" => a.max_batch = take(&mut i, "--max-batch").parse().expect("integer"),
            "--linger-us" => {
                a.linger = Duration::from_micros(take(&mut i, "--linger-us").parse().expect("µs"));
            }
            "--scale" => a.scale = take(&mut i, "--scale").parse().expect("float"),
            "--k" => a.k = Some(take(&mut i, "--k").parse().expect("integer")),
            "--rate" => a.rate = Some(take(&mut i, "--rate").parse().expect("float")),
            "--timeout-ms" => {
                a.timeout = Some(Duration::from_millis(
                    take(&mut i, "--timeout-ms").parse().expect("ms"),
                ));
            }
            "--tenants" => a.tenants = Some(take(&mut i, "--tenants")),
            "--min-jain" => {
                a.min_jain = Some(take(&mut i, "--min-jain").parse().expect("float"));
            }
            "--mutate" => a.mutate = Some(take(&mut i, "--mutate")),
            "--memtable" => {
                a.memtable = Some(take(&mut i, "--memtable").parse().expect("integer"));
            }
            "--shards" => a.shards = take(&mut i, "--shards").parse().expect("integer"),
            "--replicas" => a.replicas = take(&mut i, "--replicas").parse().expect("integer"),
            "--faults" => a.faults = Some(take(&mut i, "--faults")),
            "--json" => a.json = take(&mut i, "--json"),
            "--telemetry" => a.telemetry = Some(take(&mut i, "--telemetry")),
            "--csv" => a.csv = true,
            "-h" | "--help" => {
                println!(
                    "usage: serve_load [--seconds N] [--concurrency 1,4,16,64] [--workers N]\n\
                     \x20                 [--max-batch N] [--linger-us N] [--scale F] [--k N]\n\
                     \x20                 [--rate QPS] [--timeout-ms N] [--tenants SPEC]\n\
                     \x20                 [--min-jain F] [--mutate SPEC] [--memtable N]\n\
                     \x20                 [--shards N] [--replicas R] [--faults SPEC]\n\
                     \x20                 [--json PATH] [--telemetry PATH] [--csv]\n\
                     \x20  --tenants name:rate=R[,weight=W][,tier=T][,limit=L][,burst=B]\n\
                     \x20            [,timeout_ms=MS][,min_cov=F][,storm];... runs the open\n\
                     \x20  loop as a multi-tenant QoS harness (storm confines --faults to\n\
                     \x20  that tenant)\n\
                     \x20  --min-jain fails the run if Jain fairness over per-tenant\n\
                     \x20  demand-met falls below F (CI gate; needs >= 2 tenants)\n\
                     \x20  --mutate insert=F,delete=F runs an open-loop mixed read/write\n\
                     \x20  workload against a mutable sharded-store backend instead of the\n\
                     \x20  read-only sweeps: fractions are per-arrival probabilities (the\n\
                     \x20  rest are reads), writes churn uids in [0, 2n), and the report\n\
                     \x20  gains write tails, compaction stall time, and read-during-\n\
                     \x20  compaction tails (--memtable N overrides the seal threshold)\n\
                     \x20  --shards N --replicas R shard the store of every --mutate run\n\
                     \x20  over N*R modules with replicated WALs (default 1 x 1); after\n\
                     \x20  the run the harness replays the WAL images through\n\
                     \x20  ShardedStore::open and reports the recovery + write-failover\n\
                     \x20  ledger in the JSON; with R > 1 it also kills a replica module\n\
                     \x20  mid-run and revives it (a failover drill)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument `{other}` (try --help)"),
        }
        i += 1;
    }
    assert!(a.seconds > 0.0, "--seconds must be positive");
    a
}

/// Process CPU seconds (all threads, user + system) from
/// `/proc/self/stat`; `None` off-Linux. On a shared host, wall-clock
/// throughput swings with neighbor load — CPU time is the stable basis
/// for comparing serving configurations.
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized comm (which may contain spaces):
    // state is the first, utime/stime are the 12th and 13th.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // Linux exports these in clock ticks; CLK_TCK is 100 on every
    // mainstream configuration.
    Some((utime + stime) / 100.0)
}

/// Latency distribution + rates over one measured window.
///
/// Three throughputs are reported. `qps` is host wall-clock — it is
/// dominated by executor cost and by whatever else shares the machine,
/// so it mostly measures the harness.
/// `cpu_qps` divides by process CPU time, the stable measure of host
/// work per query (where batching's amortization of staging and
/// processing-unit setup shows). `device_qps` divides by *modeled
/// device-busy seconds* (each batch's pipelined
/// [`ssam_core::device::BatchTiming::seconds`], apportioned per query) —
/// the paper-faithful device metric.
struct Measured {
    served: u64,
    elapsed: f64,
    cpu_seconds: Option<f64>,
    device_seconds: f64,
    latencies_ms: Vec<f64>,
}

impl Measured {
    fn qps(&self) -> f64 {
        self.served as f64 / self.elapsed
    }

    fn cpu_qps(&self) -> f64 {
        match self.cpu_seconds {
            Some(s) if s > 0.0 => self.served as f64 / s,
            _ => f64::NAN,
        }
    }

    fn device_qps(&self) -> f64 {
        if self.device_seconds == 0.0 {
            return f64::NAN;
        }
        self.served as f64 / self.device_seconds
    }

    fn percentile(&self, q: f64) -> f64 {
        percentile_of(&self.latencies_ms, q)
    }
}

/// Nearest-rank percentile index: the smallest rank whose cumulative
/// share of the sample is ≥ `q`, i.e. `⌈q·len⌉ − 1` zero-based.
///
/// The previous `((len − 1) · q).round()` form *interpolated the index*
/// and systematically understated the tail: with 100 samples it reported
/// the 95th-smallest value as p95 (rank 95 covers only 95% of the mass
/// when exactly the 95th order statistic is the first to reach it — but
/// at e.g. len = 10, `round(9 · 0.95) = 9` vs `round(9 · 0.99) = 9`
/// collapsed p95 and p99, and at len = 20 it reported the 19th value for
/// p99 instead of the maximum). Nearest-rank is the standard
/// conservative definition: p99 of 20 samples is the sample maximum.
fn percentile_rank(len: usize, q: f64) -> usize {
    debug_assert!(len > 0 && (0.0..=1.0).contains(&q));
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Tail percentile over completed *and* expired requests: each expired
/// request contributes its deadline as a latency sample (it waited at
/// least that long before the server gave up on it). Without this, an
/// overloaded server that sheds more load reports a *better* p99 — the
/// slowest requests are exactly the ones deleted from the sample.
fn tail_percentile(completed_ms: &[f64], expired_at_ms: &[f64], q: f64) -> f64 {
    let total = completed_ms.len() + expired_at_ms.len();
    if total == 0 {
        return f64::NAN;
    }
    let mut all: Vec<f64> = completed_ms.iter().chain(expired_at_ms).copied().collect();
    all.sort_by(|a, b| a.total_cmp(b));
    all[percentile_rank(total, q)]
}

/// Which stored query the `cursor`-th arrival issues. The cursor is
/// `u64`: the previous `u32` counter wrapped at 2³² arrivals, which a
/// million-q/s fast-path run reaches in ~71 minutes — after the wrap the
/// modulo walk restarts mid-sequence (and with `i += 1` on the `u32`
/// itself, overflow panics in debug builds).
fn query_index(cursor: u64, n: u32) -> u32 {
    debug_assert!(n > 0);
    (cursor % u64::from(n)) as u32
}

/// Sleep-until with a short spin tail. `thread::sleep` alone rounds up
/// to OS timer granularity (≈1 ms under a 1000 Hz tick — the bug that
/// capped the old per-arrival-sleep pacing at ~1k q/s); spinning the
/// final stretch hits the target instant to microseconds while still
/// sleeping away the bulk of long waits. Already-past targets return
/// immediately, so a generator that falls behind catches up instead of
/// accumulating drift.
const SPIN_TAIL: Duration = Duration::from_micros(200);

fn pace_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > SPIN_TAIL {
            std::thread::sleep(left - SPIN_TAIL);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One tenant of the open-loop harness, parsed from `--tenants`.
struct TenantSpec {
    name: String,
    id: TenantId,
    /// Offered Poisson arrival rate, q/s.
    rate: f64,
    weight: f64,
    tier: u8,
    /// Server-side admission limit (token-bucket rate), q/s.
    limit: Option<f64>,
    burst: f64,
    timeout: Option<Duration>,
    min_cov: Option<f64>,
    /// Confine the `--faults` plan to this tenant's batches.
    storm: bool,
}

impl TenantSpec {
    fn qos(&self) -> TenantQos {
        TenantQos {
            rate: self.limit,
            burst: self.burst,
            weight: self.weight,
            tier: self.tier,
            min_coverage: self.min_cov,
            default_timeout: None,
            write_rate: None,
        }
    }
}

/// Parses `name:rate=R[,weight=W][,tier=T][,limit=L][,burst=B]`
/// `[,timeout_ms=MS][,min_cov=F][,storm];...`. Tenant ids are assigned
/// in declaration order.
fn parse_tenant_specs(spec: &str, default_timeout: Option<Duration>) -> Vec<TenantSpec> {
    let specs: Vec<TenantSpec> = spec
        .split(';')
        .filter(|part| !part.trim().is_empty())
        .enumerate()
        .map(|(idx, part)| {
            let (name, rest) = part
                .trim()
                .split_once(':')
                .unwrap_or_else(|| panic!("tenant spec `{part}` needs `name:key=value,...`"));
            let mut t = TenantSpec {
                name: name.trim().to_string(),
                id: TenantId(idx as u32),
                rate: 0.0,
                weight: 1.0,
                tier: 1,
                limit: None,
                burst: 1.0,
                timeout: default_timeout,
                min_cov: None,
                storm: false,
            };
            for kv in rest.split(',') {
                let kv = kv.trim();
                if kv.is_empty() {
                    continue;
                }
                match kv.split_once('=') {
                    Some(("rate", v)) => t.rate = v.parse().expect("rate=QPS"),
                    Some(("weight", v)) => t.weight = v.parse().expect("weight=F"),
                    Some(("tier", v)) => t.tier = v.parse().expect("tier=N"),
                    Some(("limit", v)) => t.limit = Some(v.parse().expect("limit=QPS")),
                    Some(("burst", v)) => t.burst = v.parse().expect("burst=F"),
                    Some(("timeout_ms", v)) => {
                        t.timeout = Some(Duration::from_millis(v.parse().expect("timeout_ms=N")));
                    }
                    Some(("min_cov", v)) => t.min_cov = Some(v.parse().expect("min_cov=F")),
                    None if kv == "storm" => t.storm = true,
                    _ => panic!("unknown tenant key `{kv}` in `{part}` (try --help)"),
                }
            }
            assert!(t.rate > 0.0, "tenant `{}` needs rate=QPS > 0", t.name);
            t
        })
        .collect();
    assert!(!specs.is_empty(), "--tenants spec names no tenants");
    specs
}

/// Everything the open loop observed about one tenant.
struct TenantResult {
    name: String,
    id: TenantId,
    offered: f64,
    timeout_ms: Option<f64>,
    arrivals: u64,
    rejected_overload: u64,
    rejected_rate_limited: u64,
    expired: u64,
    degraded: u64,
    latencies_ms: Vec<f64>,
    device_seconds: f64,
    elapsed: f64,
}

impl TenantResult {
    fn served(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    fn goodput(&self) -> f64 {
        self.served() as f64 / self.elapsed
    }

    /// Fraction of this tenant's offered demand that completed — the
    /// allocation the Jain index is computed over (1.0 for every tenant
    /// means the server met everyone's demand equally well).
    fn demand_met(&self) -> f64 {
        (self.goodput() / self.offered).min(1.0)
    }

    /// Deadline values of expired requests, one sample each, for the
    /// completed+expired tail.
    fn expired_at_ms(&self) -> Vec<f64> {
        let at = self.timeout_ms.unwrap_or(f64::NAN);
        vec![at; self.expired as usize]
    }

    fn percentile(&self, q: f64) -> f64 {
        tail_percentile(&self.latencies_ms, &[], q)
    }

    fn percentile_with_expired(&self, q: f64) -> f64 {
        tail_percentile(&self.latencies_ms, &self.expired_at_ms(), q)
    }
}

/// The open-loop run as a whole.
struct OpenOutcome {
    tenants: Vec<TenantResult>,
    arrivals: u64,
    offered_qps: f64,
    achieved_qps: f64,
    measured: Measured,
}

/// Multi-tenant open loop: per-tenant Poisson arrival streams merged on
/// an absolute schedule, non-blocking submission, per-tenant waiter
/// threads draining tickets as they complete (bounded memory at millions
/// of arrivals). Fails the run if the achieved arrival rate diverges
/// from the offered rate by more than 5% (only checked when the expected
/// arrival count is large enough that Poisson noise sits well inside
/// that band).
fn open_loop(
    server: &Arc<Server>,
    queries: &Arc<VectorStore>,
    k: usize,
    specs: &[TenantSpec],
    seconds: f64,
) -> OpenOutcome {
    let handle = server.handle();
    let nq = queries.len() as u32;

    // One waiter thread + ticket channel per tenant: tickets are
    // consumed as they resolve instead of accumulating for the whole
    // run.
    let mut senders = Vec::new();
    let mut waiters = Vec::new();
    for _ in specs {
        let (tx, rx) = mpsc::channel::<ssam_serve::Ticket>();
        senders.push(tx);
        waiters.push(std::thread::spawn(move || {
            let mut lat = Vec::new();
            let mut dev = 0.0f64;
            let mut expired = 0u64;
            let mut degraded = 0u64;
            for ticket in rx {
                match ticket.wait() {
                    Ok(r) => {
                        lat.push((r.queue_seconds + r.service_seconds) * 1e3);
                        dev += device_share_seconds(&r);
                    }
                    Err(ServeError::DeadlineExceeded { .. }) => expired += 1,
                    Err(ServeError::Degraded { .. }) => degraded += 1,
                    Err(e) => panic!("open-loop request failed: {e}"),
                }
            }
            (lat, dev, expired, degraded)
        }));
    }

    // Absolute arrival schedule: a min-heap of (next instant, tenant)
    // seeded with one exponential draw per tenant; every pop schedules
    // that tenant's next arrival relative to the *scheduled* (not
    // actual) time, so pacing error never compounds.
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let cpu0 = process_cpu_seconds();
    let mut rngs: Vec<StdRng> = (0..specs.len())
        .map(|i| StdRng::seed_from_u64(0x5e7e ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    let mut heap: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    let draw = |rngs: &mut Vec<StdRng>, idx: usize, rate: f64| -> Duration {
        let u: f64 = rngs[idx].random_range(f64::MIN_POSITIVE..1.0);
        Duration::from_secs_f64((-u.ln() / rate).min(1.0))
    };
    for (idx, spec) in specs.iter().enumerate() {
        heap.push(Reverse((t0 + draw(&mut rngs, idx, spec.rate), idx)));
    }
    let mut arrivals = vec![0u64; specs.len()];
    let mut rejected_overload = vec![0u64; specs.len()];
    let mut rejected_rate_limited = vec![0u64; specs.len()];
    let mut cursor = 0u64;
    while let Some(Reverse((at, idx))) = heap.pop() {
        if at >= deadline {
            break;
        }
        pace_until(at);
        let spec = &specs[idx];
        let q = queries.get(query_index(cursor, nq)).to_vec();
        cursor += 1;
        let mut req = Request::new(OwnedQuery::Euclidean(q), k).with_tenant(spec.id);
        if let Some(t) = spec.timeout {
            req = req.with_timeout(t);
        }
        match handle.submit(req) {
            Ok(ticket) => senders[idx].send(ticket).expect("waiter alive"),
            Err(ServeError::Overloaded { .. }) => rejected_overload[idx] += 1,
            Err(ServeError::RateLimited { .. }) => rejected_rate_limited[idx] += 1,
            Err(e) => panic!("open-loop submission failed: {e}"),
        }
        arrivals[idx] += 1;
        heap.push(Reverse((at + draw(&mut rngs, idx, spec.rate), idx)));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(senders);

    let mut tenants = Vec::new();
    let mut all_latencies = Vec::new();
    let mut device_seconds = 0.0f64;
    for (idx, waiter) in waiters.into_iter().enumerate() {
        let (lat, dev, expired, degraded) = waiter.join().expect("waiter thread");
        all_latencies.extend_from_slice(&lat);
        device_seconds += dev;
        let spec = &specs[idx];
        tenants.push(TenantResult {
            name: spec.name.clone(),
            id: spec.id,
            offered: spec.rate,
            timeout_ms: spec.timeout.map(|t| t.as_secs_f64() * 1e3),
            arrivals: arrivals[idx],
            rejected_overload: rejected_overload[idx],
            rejected_rate_limited: rejected_rate_limited[idx],
            expired,
            degraded,
            latencies_ms: lat,
            device_seconds: dev,
            elapsed,
        });
    }
    let cpu_seconds = process_cpu_seconds().zip(cpu0).map(|(a, b)| a - b);
    let total_arrivals: u64 = arrivals.iter().sum();
    let offered_qps: f64 = specs.iter().map(|s| s.rate).sum();
    let achieved_qps = total_arrivals as f64 / elapsed;

    // Pacing acceptance: achieved must track offered. Poisson count
    // noise is √N, so only enforce once the expected count puts 5%
    // beyond ~4σ; below that the check would flake on randomness, not
    // pacing.
    let expected = offered_qps * seconds;
    if expected >= 2000.0 {
        let divergence = (achieved_qps - offered_qps).abs() / offered_qps;
        assert!(
            divergence <= 0.05,
            "open-loop pacing failed: offered {offered_qps:.0} q/s but achieved \
             {achieved_qps:.0} q/s ({:.1}% divergence; the generator could not \
             sustain the schedule)",
            divergence * 100.0
        );
    }

    OpenOutcome {
        arrivals: total_arrivals,
        offered_qps,
        achieved_qps,
        measured: Measured {
            served: all_latencies.len() as u64,
            elapsed,
            cpu_seconds,
            device_seconds,
            latencies_ms: all_latencies,
        },
        tenants,
    }
}

/// Closed loop: `clients` threads, each issuing back-to-back blocking
/// queries against `server` for `seconds` of wall clock.
fn closed_loop(
    server: &Arc<Server>,
    queries: &Arc<VectorStore>,
    k: usize,
    clients: usize,
    seconds: f64,
) -> Measured {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let cpu0 = process_cpu_seconds();
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            let handle = server.handle();
            let queries = Arc::clone(queries);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut dev_secs = 0.0f64;
                let n = queries.len() as u32;
                let mut i = (c as u32) % n;
                while !stop.load(Ordering::Relaxed) {
                    let q = queries.get(i).to_vec();
                    i = (i + 1) % n;
                    let t0 = Instant::now();
                    let resp = handle
                        .query(Request::new(OwnedQuery::Euclidean(q), k))
                        .expect("closed-loop request served");
                    lat.push(t0.elapsed().as_secs_f64() * 1e3);
                    dev_secs += device_share_seconds(&resp);
                }
                (lat, dev_secs)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    let mut latencies_ms = Vec::new();
    let mut device_seconds = 0.0f64;
    for j in joins {
        let (lat, dev_secs) = j.join().expect("client thread");
        latencies_ms.extend(lat);
        device_seconds += dev_secs;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_seconds = process_cpu_seconds().zip(cpu0).map(|(a, b)| a - b);
    Measured {
        served: latencies_ms.len() as u64,
        elapsed,
        cpu_seconds,
        device_seconds,
        latencies_ms,
    }
}

/// This response's share of its batch's modeled (pipelined) device time:
/// summed over a batch's responses it totals the batch's
/// `BatchTiming::seconds`, so summed over a run it is device-busy time.
fn device_share_seconds(resp: &ssam_serve::Response) -> f64 {
    match &resp.account {
        ssam_serve::DeviceAccount::Device { batch, .. } => batch.seconds_per_query,
        ssam_serve::DeviceAccount::Sharded { seconds, .. } => *seconds,
    }
}

/// Mixed read/write workload mix, parsed from `--mutate`. Fractions are
/// per-arrival probabilities; everything left over is a read.
struct MutateSpec {
    insert: f64,
    delete: f64,
}

/// Parses `insert=F,delete=F` (either key may be omitted; defaults are a
/// 20% insert / 5% delete mix).
fn parse_mutate_spec(s: &str) -> MutateSpec {
    let mut m = MutateSpec {
        insert: 0.2,
        delete: 0.05,
    };
    for kv in s.split(',') {
        let kv = kv.trim();
        if kv.is_empty() {
            continue;
        }
        match kv.split_once('=') {
            Some(("insert", v)) => m.insert = v.parse().expect("insert=F"),
            Some(("delete", v)) => m.delete = v.parse().expect("delete=F"),
            _ => panic!("unknown mutate key `{kv}` (want insert=F,delete=F)"),
        }
    }
    assert!(
        m.insert >= 0.0 && m.delete >= 0.0 && m.insert + m.delete <= 1.0,
        "mutate fractions must be non-negative and sum to at most 1"
    );
    m
}

fn lock_sharded(
    store: &std::sync::Mutex<ssam_store::ShardedStore>,
) -> std::sync::MutexGuard<'_, ssam_store::ShardedStore> {
    store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn percentile_of(samples: &[f64], q: f64) -> f64 {
    tail_percentile(samples, &[], q)
}

/// JSON-safe float: the serializer rejects non-finite values, so the
/// NaN percentile or rate of an empty sample set reports 0.0 (its count
/// field disambiguates).
fn finite_json(x: f64) -> Value {
    json::number_f64(if x.is_finite() { x } else { 0.0 })
}

fn percentile_json(samples: &[f64], q: f64) -> Value {
    finite_json(percentile_of(samples, q))
}

/// The `--mutate` harness: an open-loop Poisson stream where each
/// arrival is an insert, a delete, or a read, against a mutable
/// [`ssam_store::ShardedStore`] behind the serving runtime (so reads batch
/// through the normal path and compaction runs on the maintenance
/// thread, sharing the store lock with every query and write).
///
/// Reported: write tails (inserts and deletes block on the store lock,
/// so a write landing mid-compaction eats the stall — the write p99 *is*
/// the user-visible compaction cost), total/worst compaction stall, and
/// read tails split into all reads vs reads that overlapped a compaction
/// (classified by the store's compaction counter moving between a read's
/// submission and completion).
fn run_mutate(args: &Args, spec: &MutateSpec) {
    use ssam_store::{ShardedStore, ShardedStoreConfig, StoreConfig};

    let ds = PaperDataset::GloVe.scaled_spec(args.scale);
    let bench = ssam_datasets::Benchmark::from_spec(ds);
    let k = args.k.unwrap_or_else(|| bench.k());
    let dims = bench.train.dims();
    let n = bench.train.len();
    let queries = bench.queries;
    let nq = queries.len() as u32;
    let sink = Telemetry::new();

    let mut store_config = StoreConfig::new(dims);
    // Small enough that a few seconds of writes seal repeatedly, big
    // enough that the memtable amortizes device staging.
    store_config.memtable_capacity = args.memtable.unwrap_or((n / 8).max(64));
    store_config.fanout = 4;
    let memtable_capacity = store_config.memtable_capacity;

    assert!(
        args.shards >= 1 && args.replicas >= 1,
        "--shards and --replicas must be at least 1"
    );

    let fault_plan = args.faults.as_deref().map(|fs| {
        Arc::new(FaultPlan::parse(fs).unwrap_or_else(|e| panic!("bad --faults spec: {e}")))
    });
    let serve_config = ServeConfig {
        max_batch: args.max_batch,
        max_linger: args.linger,
        workers: args.workers,
        faults: ServeFaults {
            plan: fault_plan.clone(),
            min_coverage: 0.0,
            ..ServeFaults::default()
        },
        ..ServeConfig::default()
    };
    let mut store = ShardedStore::create(ShardedStoreConfig::new(
        args.shards,
        args.replicas,
        store_config,
    ));
    let device_config = store.config().store.device;
    store.attach_telemetry(&sink);
    for i in 0..n as u32 {
        store
            .insert(i, queries_or_train(&bench.train, i))
            .expect("initial load");
    }
    // Drain load-time compaction debt so the measured window starts
    // from a settled tree.
    while store.compact_step() {}
    let server = Arc::new(Server::start_sharded_store(store, serve_config));
    let handle = server.handle();
    let store = server.sharded_store().expect("store backend");
    let base = lock_sharded(&store).stats();

    let rate = args.rate.unwrap_or(500.0).max(1.0);
    println!(
        "serve-load --mutate: {} initial vectors ({dims}-d), k={k}, \
         memtable {memtable_capacity}, fanout 4, {} q/s offered \
         (insert {:.0}%, delete {:.0}%, read {:.0}%), \
         {} shards x {} replicas ({} modules)",
        n,
        fmt(rate),
        spec.insert * 100.0,
        spec.delete * 100.0,
        (1.0 - spec.insert - spec.delete) * 100.0,
        args.shards,
        args.replicas,
        args.shards * args.replicas
    );

    // Waiter thread: drains read tickets as they resolve, classifying
    // each read by whether the compaction counter moved while it was in
    // flight.
    let (tx, rx) = mpsc::channel::<(ssam_serve::Ticket, u64)>();
    let store_w = Arc::clone(&store);
    let waiter = std::thread::spawn(move || {
        let mut read_ms = Vec::new();
        let mut during_ms = Vec::new();
        let mut dev = 0.0f64;
        let mut expired = 0u64;
        let mut degraded = 0u64;
        for (ticket, c0) in rx {
            match ticket.wait() {
                Ok(r) => {
                    let ms = (r.queue_seconds + r.service_seconds) * 1e3;
                    dev += device_share_seconds(&r);
                    let c1 = lock_sharded(&store_w).stats().compactions;
                    if c1 != c0 {
                        during_ms.push(ms);
                    }
                    read_ms.push(ms);
                }
                Err(ServeError::DeadlineExceeded { .. }) => expired += 1,
                Err(ServeError::Degraded { .. }) => degraded += 1,
                Err(e) => panic!("mutate read failed: {e}"),
            }
        }
        (read_ms, during_ms, dev, expired, degraded)
    });

    // One merged Poisson stream; each arrival draws its op kind. Writes
    // churn uids over [0, 2n) so the live set both grows (fresh uids)
    // and turns over (overwrites + deletes of resident uids).
    let churn_uids = (2 * n.max(1)) as u32;
    let mut rng = StdRng::seed_from_u64(0x5e7e_a11d);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let cpu0 = process_cpu_seconds();
    let mut next = t0;
    let mut cursor = 0u64;
    let mut arrivals = 0u64;
    let mut reads = 0u64;
    let mut rejected = 0u64;
    let mut insert_ms = Vec::new();
    let mut delete_ms = Vec::new();
    // Failover drill (replicated topologies only): kill one replica
    // module at half time, revive it at three quarters. While it is down
    // its shard's writes fail over to the surviving replicas' WALs; on
    // revive the queued records catch it back up.
    let drill = args.replicas > 1;
    let kill_at = t0 + Duration::from_secs_f64(args.seconds * 0.5);
    let revive_at = t0 + Duration::from_secs_f64(args.seconds * 0.75);
    let drill_module = 0usize;
    let mut killed = false;
    let mut revived = false;
    let mut acked_failed_over = 0u64;
    let mut refused = 0u64;
    loop {
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        next += Duration::from_secs_f64((-u.ln() / rate).min(1.0));
        if next >= deadline {
            break;
        }
        pace_until(next);
        if drill {
            let now = Instant::now();
            if !killed && now >= kill_at {
                lock_sharded(&store).kill_module(drill_module);
                killed = true;
                println!(
                    "drill: killed module {drill_module} (shard 0, replica 0) \
                     at t={:.1}s",
                    (now - t0).as_secs_f64()
                );
            }
            if killed && !revived && now >= revive_at {
                lock_sharded(&store).revive_module(drill_module);
                revived = true;
                println!(
                    "drill: revived module {drill_module} at t={:.1}s",
                    (now - t0).as_secs_f64()
                );
            }
        }
        arrivals += 1;
        let op: f64 = rng.random_range(0.0..1.0);
        if op < spec.insert {
            let uid = rng.random_range(0..churn_uids);
            let v = queries.get(query_index(cursor, nq)).to_vec();
            cursor += 1;
            let w0 = Instant::now();
            match handle.insert_routed(uid, &v) {
                Ok(ack) => {
                    insert_ms.push(w0.elapsed().as_secs_f64() * 1e3);
                    acked_failed_over += u64::from(ack.failed_over);
                }
                Err(ServeError::ShardUnavailable { .. }) => refused += 1,
                Err(e) => panic!("mutate insert failed: {e}"),
            }
        } else if op < spec.insert + spec.delete {
            let uid = rng.random_range(0..churn_uids);
            let w0 = Instant::now();
            match handle.delete_routed(uid) {
                Ok(ack) => {
                    delete_ms.push(w0.elapsed().as_secs_f64() * 1e3);
                    acked_failed_over += u64::from(ack.failed_over);
                }
                Err(ServeError::ShardUnavailable { .. }) => refused += 1,
                Err(e) => panic!("mutate delete failed: {e}"),
            }
        } else {
            let q = queries.get(query_index(cursor, nq)).to_vec();
            cursor += 1;
            let c0 = lock_sharded(&store).stats().compactions;
            let mut req = Request::new(OwnedQuery::Euclidean(q), k);
            if let Some(t) = args.timeout {
                req = req.with_timeout(t);
            }
            match handle.submit(req) {
                Ok(ticket) => {
                    tx.send((ticket, c0)).expect("waiter alive");
                    reads += 1;
                }
                Err(ServeError::Overloaded { .. }) => rejected += 1,
                Err(e) => panic!("mutate read submission failed: {e}"),
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(tx);
    let (read_ms, during_ms, device_seconds, expired, degraded) =
        waiter.join().expect("waiter thread");
    let cpu_seconds = process_cpu_seconds().zip(cpu0).map(|(a, b)| a - b);

    // Epilogue: revive anything still down, then drain every fail-over
    // queue with scratch writes (a write catches up all live replicas of
    // its shard before appending), so the write ledger can close over
    // pending_now == 0.
    {
        let mut st = lock_sharded(&store);
        if killed && !revived {
            st.revive_module(drill_module);
        }
        let sh = args.shards as u32;
        let scratch0 = churn_uids.div_ceil(sh) * sh;
        let v0 = queries.get(0).to_vec();
        let mut rounds = 0;
        while st.pending_total() > 0 {
            rounds += 1;
            assert!(
                rounds <= 16,
                "fail-over queues did not drain after 16 catch-up rounds"
            );
            for s in 0..sh {
                // A chaos plan can refuse a scratch write; the next
                // round retries it.
                let _ = st.insert(scratch0 + s, &v0);
                let _ = st.delete(scratch0 + s);
            }
        }
    }

    // Post-run store accounting: post one verified account record, then
    // read the raw stats for the report. Violations fail the run below.
    struct StoreSummary {
        live: usize,
        resident: usize,
        dead_ratio: f64,
        write_amp: f64,
        compaction_debt: u64,
    }
    let (stats, summary, sharded_json, sharded_line) = {
        let st = lock_sharded(&store);
        st.record_account("serve_load_mutate");
        let a = st.account("serve_load_mutate");
        st.check_write_ledger()
            .unwrap_or_else(|e| panic!("write-failover ledger does not close: {e}"));
        let ledger = st.write_ledger().clone();
        // Recovery drill: replay the live WAL images through a fresh
        // open and demand the twin agrees on the live set.
        let (twin, rec) = ShardedStore::open(st.config().clone(), &st.wal_images())
            .expect("recovery drill: reopen from WAL images");
        assert_eq!(
            twin.live_len(),
            st.live_len(),
            "recovery drill: reopened store disagrees on the live set"
        );
        let resident: usize = a.modules.iter().map(|m| m.store.resident()).sum();
        let dead: f64 = a
            .modules
            .iter()
            .map(|m| m.store.dead_ratio() * m.store.resident() as f64)
            .sum();
        let payload: u64 = a.modules.iter().map(|m| m.store.payload_bytes).sum();
        let durable: u64 = a
            .modules
            .iter()
            .map(|m| m.store.wal_bytes + m.store.staged_bytes)
            .sum();
        let summary = StoreSummary {
            live: a.live,
            resident,
            dead_ratio: if resident == 0 {
                0.0
            } else {
                dead / resident as f64
            },
            write_amp: if payload == 0 {
                0.0
            } else {
                durable as f64 / payload as f64
            },
            compaction_debt: a.modules.iter().map(|m| m.store.compaction_debt()).sum(),
        };
        let mut o = BTreeMap::new();
        o.insert("shards".into(), json::number_usize(st.shards()));
        o.insert("replicas".into(), json::number_usize(st.replicas()));
        o.insert("drill".into(), Value::Bool(drill));
        o.insert("drill_module".into(), json::number_usize(drill_module));
        o.insert(
            "write_outages".into(),
            json::number_u64(ledger.write_outages),
        );
        o.insert(
            "failed_over_writes".into(),
            json::number_u64(ledger.failed_over_writes),
        );
        o.insert(
            "refused_writes".into(),
            json::number_u64(ledger.refused_writes),
        );
        o.insert(
            "catch_up_records".into(),
            json::number_u64(ledger.catch_up_records),
        );
        o.insert(
            "pending_peak".into(),
            json::number_usize(ledger.pending_peak),
        );
        o.insert(
            "backoff_seconds".into(),
            json::number_f64(ledger.backoff_seconds),
        );
        o.insert("ledger_closed".into(), Value::Bool(true));
        o.insert(
            "acked_failed_over".into(),
            json::number_u64(acked_failed_over),
        );
        o.insert("refused_client".into(), json::number_u64(refused));
        o.insert("behind_total".into(), json::number_usize(a.behind_total()));
        let mut rec_o = BTreeMap::new();
        rec_o.insert(
            "records_replayed".into(),
            json::number_usize(rec.total.replayed),
        );
        rec_o.insert(
            "truncated_bytes".into(),
            json::number_u64(rec.total.truncated),
        );
        rec_o.insert(
            "segments_rebuilt".into(),
            json::number_usize(rec.total.segments_rebuilt),
        );
        rec_o.insert(
            "catch_up_records".into(),
            json::number_u64(rec.catch_up_records),
        );
        o.insert("recovery_drill".into(), Value::Object(rec_o));
        let line = format!(
            "sharded: {} shards x {} replicas; {} write outages, {} writes \
                 failed over ({} acked as such), {} refused, {} catch-up records \
                 (peak pending {}), {:.3}s modeled backoff; recovery drill \
                 replayed {} records / rebuilt {} segments ({} catch-up), live \
                 set agrees",
            st.shards(),
            st.replicas(),
            ledger.write_outages,
            ledger.failed_over_writes,
            acked_failed_over,
            ledger.refused_writes,
            ledger.catch_up_records,
            ledger.pending_peak,
            ledger.backoff_seconds,
            rec.total.replayed,
            rec.total.segments_rebuilt,
            rec.catch_up_records,
        );
        (st.stats(), summary, Value::Object(o), line)
    };
    let write_ms: Vec<f64> = insert_ms.iter().chain(&delete_ms).copied().collect();
    let stall = stats.compact_seconds - base.compact_seconds;
    let seal_stall = stats.seal_seconds - base.seal_seconds;
    let writes = insert_ms.len() + delete_ms.len();

    println!(
        "\nmutate open loop: {arrivals} arrivals in {elapsed:.1}s -> {writes} writes \
         (p50 {:.3} ms, p99 {:.3} ms), {} reads served of {reads} submitted \
         (p50 {:.2} ms, p99 {:.2} ms), {rejected} overloaded, {expired} expired, \
         {degraded} degraded",
        percentile_of(&write_ms, 0.50),
        percentile_of(&write_ms, 0.99),
        read_ms.len(),
        percentile_of(&read_ms, 0.50),
        percentile_of(&read_ms, 0.99),
    );
    println!(
        "compaction: {} merges over the run, {stall:.3}s total stall \
         (worst single {:.3}s), {} seals ({seal_stall:.3}s); {} of {} reads \
         overlapped a compaction (p99 {:.2} ms vs {:.2} ms clear)",
        stats.compactions - base.compactions,
        stats.max_compact_seconds,
        stats.seals - base.seals,
        during_ms.len(),
        read_ms.len(),
        percentile_of(&during_ms, 0.99),
        percentile_of(&read_ms, 0.99),
    );
    println!(
        "store: {} segments on {} levels, {} live / {} resident \
         (dead ratio {:.3}), write-amp {:.2}, compaction debt {}",
        stats.segments,
        stats.levels,
        summary.live,
        summary.resident,
        summary.dead_ratio,
        summary.write_amp,
        summary.compaction_debt,
    );
    println!("{sharded_line}");

    let server_stats = Arc::into_inner(server).expect("sole owner").shutdown();
    let (fault_totals, telemetry_json) = audit_telemetry(&sink, args.telemetry.as_deref());

    let m = Measured {
        served: read_ms.len() as u64,
        elapsed,
        cpu_seconds,
        device_seconds,
        latencies_ms: read_ms.clone(),
    };
    let mut mutate_o = BTreeMap::new();
    mutate_o.insert("insert_fraction".into(), json::number_f64(spec.insert));
    mutate_o.insert("delete_fraction".into(), json::number_f64(spec.delete));
    mutate_o.insert("offered_qps".into(), json::number_f64(rate));
    mutate_o.insert("arrivals".into(), json::number_u64(arrivals));
    mutate_o.insert("inserts".into(), json::number_u64(server_stats.inserts));
    mutate_o.insert("deletes".into(), json::number_u64(server_stats.deletes));
    mutate_o.insert("reads_submitted".into(), json::number_u64(reads));
    mutate_o.insert("rejected_overload".into(), json::number_u64(rejected));
    mutate_o.insert(
        "rejected_shard_down".into(),
        json::number_u64(server_stats.rejected_shard_down),
    );
    let mut recovery_o = BTreeMap::new();
    recovery_o.insert(
        "records_replayed".into(),
        json::number_u64(server_stats.recovered_records),
    );
    recovery_o.insert(
        "truncated_bytes".into(),
        json::number_u64(server_stats.recovered_truncated_bytes),
    );
    recovery_o.insert(
        "segments_rebuilt".into(),
        json::number_u64(server_stats.recovered_segments),
    );
    mutate_o.insert("startup_recovery".into(), Value::Object(recovery_o));
    mutate_o.insert("expired".into(), json::number_u64(expired));
    mutate_o.insert("degraded".into(), json::number_u64(degraded));
    mutate_o.insert("write_p50_ms".into(), percentile_json(&write_ms, 0.50));
    mutate_o.insert("write_p99_ms".into(), percentile_json(&write_ms, 0.99));
    mutate_o.insert("insert_p99_ms".into(), percentile_json(&insert_ms, 0.99));
    mutate_o.insert("delete_p99_ms".into(), percentile_json(&delete_ms, 0.99));
    mutate_o.insert(
        "reads_during_compaction".into(),
        json::number_usize(during_ms.len()),
    );
    mutate_o.insert(
        "read_during_compaction_p99_ms".into(),
        percentile_json(&during_ms, 0.99),
    );
    let mut compaction_o = BTreeMap::new();
    compaction_o.insert(
        "compactions".into(),
        json::number_u64(stats.compactions - base.compactions),
    );
    compaction_o.insert("stall_seconds".into(), json::number_f64(stall));
    compaction_o.insert(
        "max_stall_seconds".into(),
        json::number_f64(stats.max_compact_seconds),
    );
    compaction_o.insert("seals".into(), json::number_u64(stats.seals - base.seals));
    compaction_o.insert("seal_seconds".into(), json::number_f64(seal_stall));
    mutate_o.insert("compaction".into(), Value::Object(compaction_o));
    let mut store_o = BTreeMap::new();
    store_o.insert("segments".into(), json::number_usize(stats.segments));
    store_o.insert("levels".into(), json::number_usize(stats.levels));
    store_o.insert("live".into(), json::number_usize(summary.live));
    store_o.insert("resident".into(), json::number_usize(summary.resident));
    store_o.insert("dead_ratio".into(), json::number_f64(summary.dead_ratio));
    store_o.insert("write_amp".into(), json::number_f64(summary.write_amp));
    store_o.insert(
        "compaction_debt".into(),
        json::number_u64(summary.compaction_debt),
    );
    store_o.insert("wal_records".into(), json::number_u64(stats.wal_records));
    store_o.insert("wal_bytes".into(), json::number_u64(stats.wal_bytes));
    store_o.insert("staged_bytes".into(), json::number_u64(stats.staged_bytes));
    mutate_o.insert("store".into(), Value::Object(store_o));
    mutate_o.insert("sharded".into(), sharded_json);

    let mut root = BTreeMap::new();
    root.insert(
        "dataset".into(),
        Value::String(format!("GloVe scaled ({n} train / {nq} queries, {dims}-d)")),
    );
    root.insert("mode".into(), Value::String("mutate".into()));
    root.insert("scale".into(), json::number_f64(args.scale));
    root.insert("shards".into(), json::number_usize(args.shards));
    root.insert("replicas".into(), json::number_usize(args.replicas));
    root.insert("k".into(), json::number_usize(k));
    root.insert("workers".into(), json::number_usize(args.workers));
    root.insert("max_batch".into(), json::number_usize(args.max_batch));
    root.insert("seconds".into(), json::number_f64(args.seconds));
    root.insert("fast_path".into(), Value::Bool(device_config.fast_path));
    root.insert(
        "open_loop".into(),
        measured_object(&m, &[("offered_qps", json::number_f64(rate))]),
    );
    root.insert("mutate".into(), Value::Object(mutate_o));
    if let Some(plan) = &fault_plan {
        root.insert("faults".into(), faults_json(args, plan, &fault_totals));
    }
    root.insert("telemetry".into(), telemetry_json);

    let payload = json::to_string(&Value::Object(root));
    std::fs::write(&args.json, payload + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.json));
    println!("wrote {}", args.json);
}

/// Initial-load vectors come from the train split (the queries split
/// feeds the runtime churn), cycled if uids outrun it.
fn queries_or_train(train: &VectorStore, i: u32) -> &[f32] {
    train.get(i % train.len() as u32)
}

fn measured_object(m: &Measured, extra: &[(&str, Value)]) -> Value {
    let mut o = BTreeMap::new();
    o.insert("served".into(), json::number_u64(m.served));
    o.insert("qps".into(), finite_json(m.qps()));
    o.insert("cpu_qps".into(), finite_json(m.cpu_qps()));
    o.insert("device_qps".into(), finite_json(m.device_qps()));
    o.insert("p50_ms".into(), finite_json(m.percentile(0.50)));
    o.insert("p95_ms".into(), finite_json(m.percentile(0.95)));
    o.insert("p99_ms".into(), finite_json(m.percentile(0.99)));
    for (k, v) in extra {
        o.insert((*k).to_string(), v.clone());
    }
    Value::Object(o)
}

/// End-of-run telemetry audit: any retained `verify_record` violation
/// or an unclosed fault ledger fails the run. Writes the JSONL export
/// when `--telemetry` asks for it and returns the aggregate fault record
/// with the report's `telemetry` object.
fn audit_telemetry(sink: &Telemetry, jsonl: Option<&str>) -> (FaultRecord, Value) {
    let violations = sink.violations();
    assert!(
        violations.is_empty(),
        "telemetry accounting violations: {violations:#?}"
    );
    let totals = sink.fault_totals();
    totals
        .check_closure()
        .unwrap_or_else(|e| panic!("fault accounting does not close: {e}"));
    println!("telemetry: {} verified records, 0 violations", sink.len());
    if let Some(path) = jsonl {
        sink.write_jsonl(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("cannot write telemetry JSONL to {path}: {e}"));
        println!("telemetry: {} records -> {path}", sink.len());
    }
    let mut o = BTreeMap::new();
    o.insert("records".into(), json::number_usize(sink.len()));
    o.insert("violations".into(), json::number_usize(0));
    (totals, Value::Object(o))
}

/// The report's `faults` object: the `--faults` plan and its aggregate
/// ledger.
fn faults_json(args: &Args, plan: &FaultPlan, totals: &FaultRecord) -> Value {
    let counters = [
        ("injected", totals.injected()),
        ("bit_flips", totals.bit_flip_events),
        ("ecc_corrected", totals.ecc_corrected),
        ("ecc_uncorrectable", totals.ecc_uncorrectable),
        ("crc_corruptions", totals.crc_corruptions),
        ("link_retries_ok", totals.link_retries_ok),
        ("link_failures", totals.link_failures),
        ("vault_outages", totals.vault_outages),
        ("module_outages", totals.module_outages),
        ("stragglers", totals.stragglers),
        ("failed_over", totals.failed_over),
        ("seed", plan.seed),
    ];
    let mut f: BTreeMap<String, Value> = counters
        .into_iter()
        .map(|(key, n)| (key.to_string(), json::number_u64(n)))
        .collect();
    let spec = args.faults.clone().expect("a plan implies --faults");
    f.insert("spec".into(), Value::String(spec));
    f.insert("coverage".into(), json::number_f64(totals.coverage()));
    f.insert(
        "recovery_seconds".into(),
        json::number_f64(totals.recovery_seconds),
    );
    Value::Object(f)
}

fn hist_value(hist: &[u64]) -> Value {
    Value::Array(hist.iter().map(|&n| json::number_u64(n)).collect())
}

fn main() {
    let args = parse_args();
    if let Some(mutate) = args.mutate.as_deref().map(parse_mutate_spec) {
        assert!(
            args.tenants.is_none(),
            "--mutate and --tenants are separate harnesses; pick one"
        );
        run_mutate(&args, &mutate);
        return;
    }
    let spec = PaperDataset::GloVe.scaled_spec(args.scale);
    let bench = ssam_datasets::Benchmark::from_spec(spec);
    let k = args.k.unwrap_or_else(|| bench.k());
    let sink = Telemetry::new();
    let mut device = SsamDevice::new(SsamConfig::default());
    device.load_vectors(&bench.train);
    device.attach_telemetry(&sink);
    let device_config = *device.config();
    let dataset_label = format!(
        "{} ({} train / {} queries, {}-d)",
        bench.spec.name,
        bench.train.len(),
        bench.queries.len(),
        bench.train.dims()
    );
    let queries = Arc::new(bench.queries);

    println!(
        "serve-load: {dataset_label}, k={k}, workers={}, max_batch={}, linger={:?}",
        args.workers, args.max_batch, args.linger,
    );

    // ---- Offline ceiling: the device's batch engine, no serving layer.
    // `offline_model` is the modeled pipelined throughput at this batch
    // size (deterministic); `offline_host` is host wall-clock.
    let offline_batch = args.max_batch.min(queries.len()).max(1);
    let (offline_host, offline_cpu, offline_model) = {
        let mut dev: SsamDevice = device.clone();
        let qs: Vec<Vec<f32>> = (0..offline_batch as u32)
            .map(|i| queries.get(i % queries.len() as u32).to_vec())
            .collect();
        let dq: Vec<DeviceQuery<'_>> = qs.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        // Warm the kernel cache, then measure repeated batches for at
        // least a second of host wall clock.
        let warm = dev.query_batch(&dq, k).expect("offline batch");
        let model_qps = warm.timing.queries_per_second;
        let t0 = Instant::now();
        let cpu0 = process_cpu_seconds();
        let mut served = 0u64;
        while t0.elapsed().as_secs_f64() < (args.seconds * 0.5).min(2.0) {
            dev.query_batch(&dq, k).expect("offline batch");
            served += offline_batch as u64;
        }
        let cpu = process_cpu_seconds()
            .zip(cpu0)
            .map(|(a, b)| a - b)
            .filter(|&s| s > 0.0)
            .map_or(f64::NAN, |s| served as f64 / s);
        (served as f64 / t0.elapsed().as_secs_f64(), cpu, model_qps)
    };
    println!(
        "offline query_batch ceiling at batch {offline_batch}: {} modeled q/s, \
         {} cpu q/s, {} host q/s",
        fmt(offline_model),
        fmt(offline_cpu),
        fmt(offline_host)
    );

    let fault_plan = args.faults.as_deref().map(|spec| {
        Arc::new(FaultPlan::parse(spec).unwrap_or_else(|e| panic!("bad --faults spec: {e}")))
    });
    if let Some(plan) = &fault_plan {
        println!(
            "fault injection: seed={} bit_flip={} crc={} vault_out={} straggle={} module_out={}",
            plan.seed,
            plan.bit_flip_rate,
            plan.crc_corruption_rate,
            plan.vault_outage_rate,
            plan.straggler_rate,
            plan.module_outage_rate
        );
    }
    let serve_config = ServeConfig {
        max_batch: args.max_batch,
        max_linger: args.linger,
        workers: args.workers,
        faults: ServeFaults {
            plan: fault_plan.clone(),
            // The load generator accepts partial answers and reports
            // coverage honestly; the retry/degrade path is exercised by
            // the runtime's own tests.
            min_coverage: 0.0,
            ..ServeFaults::default()
        },
        ..ServeConfig::default()
    };

    // ---- Closed-loop concurrency sweep (one server across the sweep:
    // the batch histogram then spans all points; per-point stats are
    // deltas).
    let mut sweep_rows = Vec::new();
    let mut sweep_json = Vec::new();
    let server = Arc::new(Server::start(device.clone(), serve_config.clone()));
    let mut prev = server.stats();
    let mut best_qps = 0.0f64;
    let mut top: Option<(usize, Measured, f64)> = None;
    for &c in &args.concurrency {
        let m = closed_loop(&server, &queries, k, c, args.seconds);
        let now = server.stats();
        let batches = now.batches - prev.batches;
        let served_batched = now.served - prev.served;
        let mean_batch = if batches == 0 {
            0.0
        } else {
            served_batched as f64 / batches as f64
        };
        prev = now;
        best_qps = best_qps.max(m.qps());
        sweep_rows.push(vec![
            c.to_string(),
            m.served.to_string(),
            fmt(m.qps()),
            fmt(m.cpu_qps()),
            fmt(m.device_qps()),
            format!("{:.2}", m.percentile(0.50)),
            format!("{:.2}", m.percentile(0.95)),
            format!("{:.2}", m.percentile(0.99)),
            format!("{mean_batch:.2}"),
        ]);
        sweep_json.push(measured_object(
            &m,
            &[
                ("concurrency", json::number_usize(c)),
                ("mean_batch", json::number_f64(mean_batch)),
            ],
        ));
        top = Some((c, m, mean_batch));
    }
    let final_stats = server.stats();
    println!("\nclosed-loop sweep ({}s per point):", args.seconds);
    print_table(
        args.csv,
        &[
            "clients",
            "served",
            "host q/s",
            "cpu q/s",
            "device q/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "mean batch",
        ],
        &sweep_rows,
    );

    // ---- Batch-of-1 baseline at the highest concurrency: the same
    // serving stack with dynamic batching disabled.
    let (top_c, top_m, top_mean_batch) = top.expect("at least one sweep point");
    let serial_server = Arc::new(Server::start(
        device.clone(),
        ServeConfig {
            max_batch: 1,
            ..serve_config.clone()
        },
    ));
    let serial = closed_loop(&serial_server, &queries, k, top_c, args.seconds);
    let serial_stats = Arc::into_inner(serial_server)
        .expect("sole owner")
        .shutdown();
    assert_eq!(
        serial_stats.max_batch().max(1),
        1,
        "baseline must serve batches of 1"
    );
    let speedup_cpu = top_m.cpu_qps() / serial.cpu_qps();
    let speedup_model = top_m.device_qps() / serial.device_qps();
    let speedup_host = top_m.qps() / serial.qps();
    let offline_fraction = top_m.cpu_qps() / offline_cpu;
    println!(
        "\nat {top_c} clients: dynamic batching {} cpu q/s (mean batch {top_mean_batch:.1}) \
         vs batch-of-1 {} cpu q/s -> {speedup_cpu:.2}x per host cpu-second \
         ({speedup_host:.2}x wall-clock, {speedup_model:.2}x on the device model — uniform \
         same-kernel queries pipeline with no modeled stall, the paper's 'SSAM needs no \
         batching' premise); {:.0}% of the offline query_batch ceiling at batch \
         {offline_batch} (cpu basis)",
        fmt(top_m.cpu_qps()),
        fmt(serial.cpu_qps()),
        offline_fraction * 100.0
    );

    // ---- Open loop: Poisson arrivals on an absolute schedule,
    // non-blocking submission; rejections are counted, never waited on.
    // `--tenants` turns this into the multi-tenant QoS harness; without
    // it, one default tenant at `--rate` (or 70% of the best closed-loop
    // throughput) reproduces the single-tenant run.
    let specs = match &args.tenants {
        Some(spec) => parse_tenant_specs(spec, args.timeout),
        None => vec![TenantSpec {
            name: "default".to_string(),
            id: TenantId::DEFAULT,
            rate: args.rate.unwrap_or(best_qps * 0.7).max(1.0),
            weight: 1.0,
            tier: 1,
            limit: None,
            burst: 1.0,
            timeout: args.timeout,
            min_cov: None,
            storm: false,
        }],
    };
    let storm_tenants: Vec<TenantId> = specs.iter().filter(|s| s.storm).map(|s| s.id).collect();
    assert!(
        storm_tenants.is_empty() || fault_plan.is_some(),
        "--tenants marks a storm tenant but no --faults plan was given"
    );
    let mut open_config = serve_config.clone();
    open_config.qos = specs.iter().fold(QosConfig::default(), |cfg, s| {
        cfg.with_tenant(s.id, s.qos())
    });
    if !storm_tenants.is_empty() {
        open_config.faults.storm_tenants = Some(storm_tenants.clone());
    }
    let open_server = Arc::new(Server::start(device, open_config));
    let outcome = open_loop(&open_server, &queries, k, &specs, args.seconds);
    let open = {
        let m = &outcome.measured;
        let rejected_overload: u64 = outcome.tenants.iter().map(|t| t.rejected_overload).sum();
        let rejected_rate: u64 = outcome
            .tenants
            .iter()
            .map(|t| t.rejected_rate_limited)
            .sum();
        let expired: u64 = outcome.tenants.iter().map(|t| t.expired).sum();
        let expired_all: Vec<f64> = outcome
            .tenants
            .iter()
            .flat_map(|t| t.expired_at_ms())
            .collect();
        let jain = jain_index(
            &outcome
                .tenants
                .iter()
                .map(TenantResult::demand_met)
                .collect::<Vec<_>>(),
        );
        println!(
            "\nopen loop: Poisson {} q/s offered for {:.1}s -> {} arrivals \
             ({} q/s achieved), {} served ({} q/s goodput), p50 {:.2} ms, \
             p99 {:.2} ms (with expired: {:.2} ms), {} overloaded, \
             {} rate-limited, {} deadline-expired",
            fmt(outcome.offered_qps),
            m.elapsed,
            outcome.arrivals,
            fmt(outcome.achieved_qps),
            m.served,
            fmt(m.qps()),
            m.percentile(0.50),
            m.percentile(0.99),
            tail_percentile(&m.latencies_ms, &expired_all, 0.99),
            rejected_overload,
            rejected_rate,
            expired,
        );
        if outcome.tenants.len() > 1 {
            println!(
                "\nper-tenant ({} tenants, Jain fairness {jain:.4}):",
                outcome.tenants.len()
            );
            let rows: Vec<Vec<String>> = outcome
                .tenants
                .iter()
                .map(|t| {
                    vec![
                        t.name.clone(),
                        fmt(t.offered),
                        t.arrivals.to_string(),
                        fmt(t.goodput()),
                        format!("{:.3}", t.demand_met()),
                        format!("{:.2}", t.percentile(0.50)),
                        format!("{:.2}", t.percentile(0.99)),
                        format!("{:.2}", t.percentile_with_expired(0.99)),
                        t.rejected_rate_limited.to_string(),
                        t.expired.to_string(),
                        t.degraded.to_string(),
                    ]
                })
                .collect();
            print_table(
                args.csv,
                &[
                    "tenant",
                    "offered q/s",
                    "arrivals",
                    "goodput q/s",
                    "demand met",
                    "p50 ms",
                    "p99 ms",
                    "p99+exp ms",
                    "rate-limited",
                    "expired",
                    "degraded",
                ],
                &rows,
            );
        }
        if let Some(min) = args.min_jain {
            assert!(
                outcome.tenants.len() > 1,
                "--min-jain needs at least two tenants (got {})",
                outcome.tenants.len()
            );
            assert!(
                jain >= min,
                "Jain fairness {jain:.4} fell below the --min-jain {min} gate"
            );
        }
        let tenants_json: Vec<Value> = outcome
            .tenants
            .iter()
            .map(|t| {
                let mut o = BTreeMap::new();
                o.insert("name".into(), Value::String(t.name.clone()));
                o.insert("tenant".into(), json::number_u64(u64::from(t.id.0)));
                o.insert("offered_qps".into(), json::number_f64(t.offered));
                o.insert("arrivals".into(), json::number_u64(t.arrivals));
                o.insert("served".into(), json::number_u64(t.served()));
                o.insert("goodput_qps".into(), json::number_f64(t.goodput()));
                o.insert("demand_met".into(), json::number_f64(t.demand_met()));
                o.insert("p50_ms".into(), finite_json(t.percentile(0.50)));
                o.insert("p95_ms".into(), finite_json(t.percentile(0.95)));
                o.insert("p99_ms".into(), finite_json(t.percentile(0.99)));
                o.insert(
                    "p99_with_expired_ms".into(),
                    finite_json(t.percentile_with_expired(0.99)),
                );
                o.insert(
                    "rejected_overload".into(),
                    json::number_u64(t.rejected_overload),
                );
                o.insert(
                    "rejected_rate_limited".into(),
                    json::number_u64(t.rejected_rate_limited),
                );
                o.insert("expired".into(), json::number_u64(t.expired));
                o.insert("degraded".into(), json::number_u64(t.degraded));
                o.insert("device_seconds".into(), json::number_f64(t.device_seconds));
                Value::Object(o)
            })
            .collect();
        measured_object(
            m,
            &[
                ("offered_qps", json::number_f64(outcome.offered_qps)),
                ("achieved_qps", json::number_f64(outcome.achieved_qps)),
                ("arrivals", json::number_u64(outcome.arrivals)),
                ("rejected_overload", json::number_u64(rejected_overload)),
                ("rejected_rate_limited", json::number_u64(rejected_rate)),
                ("rejected_deadline", json::number_u64(expired)),
                (
                    "p50_with_expired_ms",
                    finite_json(tail_percentile(&m.latencies_ms, &expired_all, 0.50)),
                ),
                (
                    "p95_with_expired_ms",
                    finite_json(tail_percentile(&m.latencies_ms, &expired_all, 0.95)),
                ),
                (
                    "p99_with_expired_ms",
                    finite_json(tail_percentile(&m.latencies_ms, &expired_all, 0.99)),
                ),
                ("jain_fairness", json::number_f64(jain)),
                ("tenants", Value::Array(tenants_json)),
            ],
        )
    };
    let open_stats = Arc::into_inner(open_server).expect("sole owner").shutdown();
    let dyn_stats = Arc::into_inner(server).expect("sole owner").shutdown();

    // ---- Telemetry and fault audit: every served batch left verified
    // records, and no injected fault may vanish unaccounted.
    println!();
    let (fault_totals, telemetry_json) = audit_telemetry(&sink, args.telemetry.as_deref());
    if fault_plan.is_some() {
        println!(
            "faults: {} injected = {} ecc-corrected + {} ecc-uncorrectable + \
             {} crc (of which {} retried ok, {} link-failed) + {} vault outages + \
             {} module outages + {} stragglers; {} failed over; coverage {:.4}",
            fault_totals.injected(),
            fault_totals.ecc_corrected,
            fault_totals.ecc_uncorrectable,
            fault_totals.crc_corruptions,
            fault_totals.link_retries_ok,
            fault_totals.link_failures,
            fault_totals.vault_outages,
            fault_totals.module_outages,
            fault_totals.stragglers,
            fault_totals.failed_over,
            fault_totals.coverage(),
        );
        assert!(
            fault_totals.injected() > 0,
            "--faults was given but no fault was ever injected; \
             the chaos run exercised nothing"
        );
    }

    // ---- BENCH_serve.json
    let mut root = BTreeMap::new();
    root.insert("dataset".into(), Value::String(dataset_label));
    root.insert("scale".into(), json::number_f64(args.scale));
    root.insert("k".into(), json::number_usize(k));
    root.insert("workers".into(), json::number_usize(args.workers));
    root.insert("max_batch".into(), json::number_usize(args.max_batch));
    root.insert(
        "linger_us".into(),
        json::number_u64(args.linger.as_micros() as u64),
    );
    root.insert("seconds_per_point".into(), json::number_f64(args.seconds));
    root.insert(
        "optimize_kernels".into(),
        Value::Bool(device_config.optimize_kernels),
    );
    root.insert("fast_path".into(), Value::Bool(device_config.fast_path));
    let mut offline_o = BTreeMap::new();
    offline_o.insert("batch".into(), json::number_usize(offline_batch));
    offline_o.insert("host_qps".into(), json::number_f64(offline_host));
    offline_o.insert("cpu_qps".into(), json::number_f64(offline_cpu));
    offline_o.insert("model_qps".into(), json::number_f64(offline_model));
    root.insert("offline".into(), Value::Object(offline_o));
    root.insert("closed_loop".into(), Value::Array(sweep_json));
    root.insert(
        "serial_baseline".into(),
        measured_object(&serial, &[("concurrency", json::number_usize(top_c))]),
    );
    root.insert(
        "speedup_vs_serial_cpu".into(),
        json::number_f64(speedup_cpu),
    );
    root.insert(
        "speedup_vs_serial_model".into(),
        json::number_f64(speedup_model),
    );
    root.insert(
        "speedup_vs_serial_host".into(),
        json::number_f64(speedup_host),
    );
    root.insert(
        "fraction_of_offline_cpu".into(),
        json::number_f64(offline_fraction),
    );
    root.insert("open_loop".into(), open);
    root.insert("batch_hist".into(), hist_value(&final_stats.batch_hist));
    root.insert("telemetry".into(), telemetry_json);
    if let Some(plan) = &fault_plan {
        root.insert("faults".into(), faults_json(&args, plan, &fault_totals));
    }
    let mut stats_o = BTreeMap::new();
    for (name, s) in [("dynamic", &dyn_stats), ("open_loop", &open_stats)] {
        let mut o = BTreeMap::new();
        o.insert("submitted".into(), json::number_u64(s.submitted));
        o.insert("served".into(), json::number_u64(s.served));
        o.insert("failed".into(), json::number_u64(s.failed));
        o.insert(
            "rejected_overload".into(),
            json::number_u64(s.rejected_overload),
        );
        o.insert(
            "rejected_deadline".into(),
            json::number_u64(s.rejected_deadline),
        );
        o.insert(
            "rejected_rate_limited".into(),
            json::number_u64(s.rejected_rate_limited),
        );
        o.insert("batches".into(), json::number_u64(s.batches));
        o.insert("mean_batch".into(), json::number_f64(s.mean_batch()));
        o.insert("degraded".into(), json::number_u64(s.degraded));
        o.insert(
            "retried_degraded".into(),
            json::number_u64(s.retried_degraded),
        );
        o.insert("retried_panic".into(), json::number_u64(s.retried_panic));
        o.insert("worker_panics".into(), json::number_u64(s.worker_panics));
        stats_o.insert(name.to_string(), Value::Object(o));
    }
    root.insert("server_stats".into(), Value::Object(stats_o));

    let payload = json::to_string(&Value::Object(root));
    std::fs::write(&args.json, payload + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.json));
    println!("wrote {}", args.json);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(latencies_ms: Vec<f64>) -> Measured {
        Measured {
            served: latencies_ms.len() as u64,
            elapsed: 1.0,
            cpu_seconds: None,
            device_seconds: 0.0,
            latencies_ms,
        }
    }

    /// At small sample counts the old `round((len−1)·q)` index collapsed
    /// p95 into p99 and neither reached the maximum; nearest-rank must
    /// report the sample maximum for any q past (len−1)/len.
    #[test]
    fn small_sample_tails_reach_the_maximum() {
        let m = measured((1..=10).map(f64::from).collect());
        assert_eq!(m.percentile(0.50), 5.0);
        assert_eq!(m.percentile(0.95), 10.0);
        assert_eq!(m.percentile(0.99), 10.0);
        assert_eq!(m.percentile(1.0), 10.0);

        // len = 20: old formula gave round(19 · 0.99) = 19 → 19.0 for
        // p99, silently discarding the worst observation.
        let m = measured((1..=20).map(f64::from).collect());
        assert_eq!(m.percentile(0.95), 19.0);
        assert_eq!(m.percentile(0.99), 20.0);
    }

    /// At len = 100 the q-th percentile is exactly the ⌈100q⌉-th order
    /// statistic, and p95/p99 are distinct.
    #[test]
    fn hundred_samples_hit_the_exact_order_statistic() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse(); // percentile() sorts; feed it unsorted data.
        let m = measured(v);
        assert_eq!(m.percentile(0.50), 50.0);
        assert_eq!(m.percentile(0.95), 95.0);
        assert_eq!(m.percentile(0.99), 99.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(measured(vec![]).percentile(0.99).is_nan());
        let one = measured(vec![7.5]);
        assert_eq!(one.percentile(0.0), 7.5);
        assert_eq!(one.percentile(0.99), 7.5);
        assert_eq!(percentile_rank(1, 0.0), 0);
        assert_eq!(percentile_rank(5, 1.0), 4);
    }

    /// A write-only `--mutate` mix serves zero reads; its `open_loop`
    /// object must still serialize (NaN percentiles and device q/s
    /// report 0.0) instead of panicking in the JSON writer.
    #[test]
    fn empty_measurement_serializes() {
        let payload = json::to_string(&measured_object(&measured(vec![]), &[]));
        assert!(payload.contains("\"served\":0"), "{payload}");
        assert!(payload.contains("\"p99_ms\":0.0"), "{payload}");
        assert!(payload.contains("\"device_qps\":0.0"), "{payload}");
    }

    /// The cursor the open loop indexes queries with must survive past
    /// 2³² arrivals: the old `u32` counter wrapped there (~71 minutes at
    /// 1M q/s), restarting the modulo walk mid-sequence.
    #[test]
    fn query_cursor_survives_u32_overflow() {
        let n = 1000u32;
        let at_wrap = u64::from(u32::MAX) + 1;
        assert_eq!(query_index(at_wrap, n), (at_wrap % u64::from(n)) as u32);
        assert_eq!(
            query_index(at_wrap + 1, n),
            query_index(at_wrap, n) + 1,
            "the walk must continue across the u32 boundary, not restart"
        );
        // The failure mode the u32 counter had: after the wrap the
        // counter restarts at 0, so the walk jumps to query 0 — but the
        // true u64 walk is at 2³² mod 1000 = 296.
        assert_eq!(query_index(at_wrap, n), 296);
        let wrapped_u32 = (at_wrap as u32) % n;
        assert_ne!(query_index(at_wrap, n), wrapped_u32);
    }

    /// Expired requests count at their deadline in the combined tail:
    /// shedding load must never *improve* reported p99.
    #[test]
    fn expired_requests_count_at_their_deadline() {
        // 98 fast completions; 2 requests expired at a 100 ms deadline.
        let completed: Vec<f64> = (1..=98).map(|i| f64::from(i) * 0.1).collect();
        let expired = vec![100.0, 100.0];
        // Completed-only p99 pretends the tail is sub-10 ms...
        assert!(tail_percentile(&completed, &[], 0.99) < 10.0);
        // ...but the honest tail is the deadline itself.
        assert_eq!(tail_percentile(&completed, &expired, 0.99), 100.0);
        assert_eq!(tail_percentile(&completed, &expired, 0.50), 5.0);
        // More shedding (fewer completions, more expiries) must not
        // lower the combined p99.
        let fewer: Vec<f64> = (1..=50).map(|i| f64::from(i) * 0.1).collect();
        let more_expired = vec![100.0; 50];
        assert!(
            tail_percentile(&fewer, &more_expired, 0.99)
                >= tail_percentile(&completed, &expired, 0.99)
        );
        assert!(tail_percentile(&[], &[], 0.99).is_nan());
    }

    #[test]
    fn tenant_spec_parses_full_grammar() {
        let specs = parse_tenant_specs(
            "gold:rate=100,weight=4,tier=0,timeout_ms=20,min_cov=0.9; \
             bronze:rate=50,limit=40,burst=8,storm",
            Some(Duration::from_millis(5)),
        );
        assert_eq!(specs.len(), 2);
        let g = &specs[0];
        assert_eq!((g.name.as_str(), g.id), ("gold", TenantId(0)));
        assert_eq!((g.rate, g.weight, g.tier), (100.0, 4.0, 0));
        assert_eq!(g.timeout, Some(Duration::from_millis(20)));
        assert_eq!(g.min_cov, Some(0.9));
        assert!(g.limit.is_none() && !g.storm);
        let b = &specs[1];
        assert_eq!((b.name.as_str(), b.id), ("bronze", TenantId(1)));
        assert_eq!((b.limit, b.burst), (Some(40.0), 8.0));
        // Unspecified timeout inherits the harness default.
        assert_eq!(b.timeout, Some(Duration::from_millis(5)));
        assert!(b.storm);
        let qos = b.qos();
        assert_eq!((qos.rate, qos.burst, qos.tier), (Some(40.0), 8.0, 1));
    }
}
