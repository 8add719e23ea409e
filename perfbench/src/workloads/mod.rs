//! The workloads and the driver they share.
//!
//! A workload builds its system from generated inputs (timed as
//! set-up, through the first answered query), measures one window, and
//! checks the system's end state. The driver repeats set-up, and in a
//! traced run measures an untraced and a traced half-window so the
//! tracing overhead is its own number.

pub mod mixed_rw;
pub mod offline;

use std::time::{Duration, Instant};

use crate::probes::metric;
use crate::stats::{process_cpu_seconds, Metric, Samples};
use crate::trace::Tracer;

/// What one measured window saw.
#[derive(Default)]
pub struct Window {
    /// Read latencies, milliseconds (an offline batch counts as one read
    /// of 16 queries).
    pub reads_ms: Samples,
    /// Queries answered (16 per offline batch).
    pub queries: u64,
    /// Write latencies, milliseconds.
    pub writes_ms: Samples,
    /// How late each operation was issued: behind its schedule in an
    /// open loop, after the previous completion in a closed loop.
    pub gen_lag_ms: Samples,
    /// Scheduled arrivals per second (open loop); `None` when the loop
    /// offers exactly what it completes.
    pub offered_per_s: Option<f64>,
    /// Seconds from the first issue to the last issue.
    pub issue_span_s: f64,
    pub seconds: f64,
    pub cpu_s: f64,
    pub attempted: u64,
    /// Operations that failed, were rejected or expired, or answered
    /// wrongly.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Layer metrics the window itself yields.
    pub layers: Vec<Metric>,
}

impl Window {
    fn ops(&self) -> u64 {
        self.attempted - self.failed
    }

    fn achieved_per_s(&self) -> f64 {
        self.attempted as f64 / self.issue_span_s.max(1e-9)
    }
}

/// End-of-run state and checks.
#[derive(Default)]
pub struct Finish {
    /// Resident rows over live rows.
    pub space_amp: f64,
    pub errors: Vec<String>,
    pub layers: Vec<Metric>,
    pub failed: u64,
}

pub trait Workload {
    type System;

    /// Builds the system from the generated inputs through the first
    /// answered query.
    fn setup(&self) -> Result<Self::System, String>;

    /// Releases a system that will not be measured.
    fn teardown(&self, sys: Self::System);

    fn measure(&self, sys: &mut Self::System, seconds: f64, tracer: &Tracer) -> Window;

    /// Checks the end state and releases the system; `traced` is the
    /// traced window when the run is traced, and the probes run then.
    fn finish(&self, sys: Self::System, traced: Option<&Window>, tracer: &Tracer) -> Finish;
}

/// How a run is driven.
pub struct Plan {
    pub seconds: f64,
    /// Untraced runs set up at least this many times, and keep setting
    /// up until `setup_budget` has passed (at most ten times as many).
    pub setups: usize,
    pub setup_budget: Duration,
    pub trace: bool,
}

/// Everything a run reports.
pub struct Outcome {
    pub setup_s: Samples,
    pub window: Window,
    pub finish: Finish,
    /// Spans recorded by a traced run.
    pub tracer: Tracer,
}

/// Measures one window and fills in its CPU time and duration.
fn timed_window<W: Workload>(w: &W, sys: &mut W::System, seconds: f64, tracer: &Tracer) -> Window {
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let mut win = w.measure(sys, seconds, tracer);
    win.seconds = t0.elapsed().as_secs_f64();
    win.cpu_s = process_cpu_seconds() - cpu0;
    win
}

pub fn drive<W: Workload>(w: &W, plan: &Plan) -> Result<Outcome, String> {
    let (min, max) = if plan.trace {
        (1, 1)
    } else {
        (plan.setups.max(1), 10 * plan.setups.max(1))
    };
    let mut setup_s = Samples::default();
    let mut sys = None;
    let started = Instant::now();
    while setup_s.len() < min || (setup_s.len() < max && started.elapsed() < plan.setup_budget) {
        if let Some(old) = sys.take() {
            w.teardown(old);
        }
        let t = Instant::now();
        let s = w.setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        sys = Some(s);
    }
    let mut sys = sys.expect("at least one set-up");
    let off = Tracer::new(false);
    if !plan.trace {
        let window = timed_window(w, &mut sys, plan.seconds, &off);
        let finish = w.finish(sys, None, &off);
        return Ok(Outcome {
            setup_s,
            window,
            finish,
            tracer: off,
        });
    }
    let plain = timed_window(w, &mut sys, plan.seconds / 2.0, &off);
    let tracer = Tracer::new(true);
    let mut traced = timed_window(w, &mut sys, plan.seconds / 2.0, &tracer);
    let finish = w.finish(sys, Some(&traced), &tracer);
    let fail_frac =
        (plain.failed + traced.failed) as f64 / (plain.attempted + traced.attempted).max(1) as f64;
    let overhead = (traced.reads_ms.median() / plain.reads_ms.median() - 1.0) * 100.0;
    let achieved = traced.achieved_per_s();
    traced.layers.extend([
        metric("bench.read_p50_ms", "ms", traced.reads_ms.median()),
        metric("bench.read_p99_ms", "ms", traced.reads_ms.tail()),
        metric("bench.gen_lag_p99_ms", "ms", traced.gen_lag_ms.tail()),
        metric(
            "bench.offered_per_s",
            "1/s",
            traced.offered_per_s.unwrap_or(achieved),
        ),
        metric("bench.achieved_per_s", "1/s", achieved),
        metric("bench.fail_frac", "ratio", fail_frac),
        metric("bench.trace_overhead_pct", "%", overhead),
        metric("bench.spans", "count", tracer.len() as f64),
    ]);
    traced.errors.extend(plain.errors);
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    Ok(Outcome {
        setup_s,
        window: traced,
        finish,
        tracer,
    })
}

/// The end-to-end metrics of an untraced run. Read latencies are
/// reported by the traced run instead (`bench.read_p50_ms`,
/// `bench.read_p99_ms`): on a shared two-vCPU host with CPU steal they
/// swung between runs by more than any useful bound.
pub fn end_to_end(o: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let w = &o.window;
    vec![
        metric("setup_s", "s", o.setup_s.median()),
        metric("read_qps", "1/s", w.queries as f64 / w.seconds),
        metric("cpu_ms_per_op", "ms", w.cpu_s * 1e3 / w.ops().max(1) as f64),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
        metric("space_amp", "ratio", o.finish.space_amp),
    ]
}

/// The per-layer metrics of a traced run, in a fixed order.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let mut m = o.window.layers.clone();
    m.extend(o.finish.layers.iter().cloned());
    m
}
