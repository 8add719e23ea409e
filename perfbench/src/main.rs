//! The repository benchmark: one command that runs a named workload of
//! the SSAM serving stack from a seed, checks every answer, and prints
//! every metric by name with its unit. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed_rw --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics and writes the recorded spans to
//! `perfbench/traces/<workload>-seed<seed>.jsonl`.

mod inputs;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use stats::{peak_rss_mb, Report};
use workloads::{drive, end_to_end, mixed_rw, offline, per_layer, Outcome, Plan, Workload};

const WORKLOADS: [&str; 2] = ["bulk_scan", "mixed_rw"];

/// Set-ups per untraced run (at least), and the time they may take;
/// the median is reported.
const SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The metric names a traced run must emit, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 48] = [
    "net.codec_us",
    "net.overhead_p50_ms",
    "serve.queue_p50_ms",
    "serve.queue_p99_ms",
    "serve.service_p50_ms",
    "serve.service_p99_ms",
    "serve.mean_batch",
    "serve.batches",
    "serve.rejected",
    "serve.failed",
    "serve.write_p50_ms",
    "serve.write_p99_ms",
    "serve.write_wait_ms_mean",
    "device.b1_us_per_q",
    "device.b16_us_per_q",
    "device.tile_fixed_us",
    "device.cycles_per_q",
    "device.bytes_per_q",
    "device.roofline_ratio",
    "model_qps",
    "sim.us_per_q",
    "sim.minst_per_s",
    "knn.exact_us_per_q",
    "knn.f32x8_us_per_q",
    "store.query_p50_us",
    "store.query_p99_us",
    "store.insert_p50_us",
    "store.insert_p99_us",
    "store.delete_p50_us",
    "store.seals",
    "store.seal_s_total",
    "store.compactions",
    "store.compact_s_total",
    "store.compact_s_max",
    "store.write_amp",
    "store.wal_bytes_per_write",
    "store.segments_per_read",
    "store.suppressed_ratio",
    "bench.read_p50_ms",
    "bench.read_p99_ms",
    "bench.gen_lag_p99_ms",
    "bench.offered_per_s",
    "bench.achieved_per_s",
    "bench.fail_frac",
    "bench.trace_overhead_pct",
    "bench.spans",
    "bench.pool_repeat_share",
    "bench.tail_quantile",
];

const END_TO_END: [&str; 5] = [
    "setup_s",
    "read_qps",
    "cpu_ms_per_op",
    "peak_rss_mb",
    "space_amp",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Share of reads in the window that revisit a pool query, when the
/// visiting order walks a pool of `pool` queries.
fn repeat_share(queries: u64, pool: usize) -> f64 {
    queries.saturating_sub(pool as u64) as f64 / queries.max(1) as f64
}

fn run_workload<W: Workload>(w: &W, pool: usize, a: &Args) -> Result<Report, String> {
    let plan = Plan {
        seconds: a.seconds,
        setups: SETUPS,
        setup_budget: SETUP_BUDGET,
        trace: a.trace,
    };
    let o = drive(w, &plan)?;
    report(&o, pool, a)
}

fn report(o: &Outcome, pool: usize, a: &Args) -> Result<Report, String> {
    let mut errors = o.window.errors.clone();
    errors.extend(o.finish.errors.iter().cloned());
    let metrics = if a.trace {
        let mut m = per_layer(o);
        m.push(probes::metric(
            "bench.pool_repeat_share",
            "ratio",
            repeat_share(o.window.queries, pool),
        ));
        m.push(probes::metric(
            "bench.tail_quantile",
            "ratio",
            stats::tail_quantile(o.window.reads_ms.len()),
        ));
        let path = format!(
            "{}/traces/{}-seed{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            a.workload,
            a.seed
        );
        o.tracer
            .write_jsonl(Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        m
    } else {
        end_to_end(o, peak_rss_mb())
    };
    let expected: &[&str] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if names != want {
        return Err(format!("metric set mismatch: emitted {names:?}"));
    }
    Ok(Report {
        correct: errors.is_empty(),
        attempted: o.window.attempted,
        failed: o.window.failed + o.finish.failed,
        metrics,
        errors,
    })
}

fn run(a: &Args) -> Result<Report, String> {
    match a.workload.as_str() {
        "bulk_scan" => run_workload(
            &offline::Offline::new(a.seed, offline::BULK_SCAN),
            offline::BULK_SCAN.pool,
            a,
        ),
        "mixed_rw" => run_workload(
            &mixed_rw::MixedRw::new(a.seed, mixed_rw::FULL),
            mixed_rw::FULL.pool,
            a,
        ),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {} ({}): attempted {}, failed {}, correct {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed,
        report.correct
    );
    for e in report.errors.iter().take(10) {
        println!("  error: {e}");
    }
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    match report.to_json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 3,
            seconds: 0.4,
            trace,
        }
    }

    fn smoke<W: Workload>(w: &W, pool: usize, workload: &str) {
        for trace in [false, true] {
            let a = args(workload, trace);
            let o = drive(
                w,
                &Plan {
                    seconds: a.seconds,
                    setups: 2,
                    setup_budget: Duration::ZERO,
                    trace,
                },
            )
            .expect("run");
            let r = report(
                &o,
                pool,
                &Args {
                    workload: format!("smoke-{workload}"),
                    ..a
                },
            )
            .expect("report");
            assert!(r.correct, "{workload} trace={trace}: {:?}", r.errors);
            assert_eq!(r.failed, 0, "{workload}");
            assert!(r.attempted > 0, "{workload}");
            let line = r.to_json().expect("finite metrics");
            for m in &r.metrics {
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
            }
            if !trace {
                assert!(
                    r.metrics.iter().all(|m| m.value > 0.0),
                    "{workload}: {:?}",
                    r.metrics
                );
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload bulk_scan --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("bulk_scan", 7, 2.0, true)
        );
        assert!(parse_args(&v("--workload nope")).is_err());
        assert!(parse_args(&v("--workload bulk_scan --trace 2")).is_err());
        assert!(parse_args(&v("--workload bulk_scan --seconds")).is_err());
    }

    #[test]
    fn repeat_share_counts_revisits() {
        assert_eq!(repeat_share(100, 400), 0.0);
        assert_eq!(repeat_share(400, 100), 0.75);
        assert_eq!(repeat_share(0, 10), 0.0);
    }

    #[test]
    fn smoke_bulk_scan() {
        let sizes = offline::Sizes {
            rows: 256,
            pool: 48,
            oracle: 1,
            store_ops: 100,
            probe: Duration::from_millis(20),
            ..offline::BULK_SCAN
        };
        smoke(&offline::Offline::new(3, sizes), 48, "bulk_scan");
    }

    #[test]
    fn smoke_mixed_rw() {
        let sizes = mixed_rw::Sizes {
            rows: 256,
            pool: 64,
            rate: 100.0,
            check: 4,
            probe: Duration::from_millis(20),
        };
        smoke(&mixed_rw::MixedRw::new(3, sizes), 64, "mixed_rw");
    }
}
