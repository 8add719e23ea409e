//! Sample statistics, the seeded generator, process counters and the
//! result line the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank index of quantile `q` in `len` sorted samples:
/// `ceil(q * len) - 1`, clamped to the sample range.
pub fn rank(len: usize, q: f64) -> usize {
    assert!(len > 0, "rank of an empty sample");
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// The highest quantile, capped at 0.99, that leaves at least ten
/// samples beyond its nearest-rank order statistic. With fewer than
/// twenty samples no such quantile reaches the median, and the median is
/// reported as the tail.
pub fn tail_quantile(len: usize) -> f64 {
    if len < 20 {
        return 0.5;
    }
    // The rank of q must be at most len - 11 (zero-based), so
    // ceil(q * len) <= len - 10.
    ((len - 10) as f64 / len as f64).min(0.99)
}

/// Latency (or any) samples with nearest-rank percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile `q`; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.sorted()[rank(self.0.len(), q)]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The tail the sample supports ([`tail_quantile`]).
    pub fn tail(&self) -> f64 {
        self.quantile(tail_quantile(self.0.len()))
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Process CPU seconds (user + system) from `/proc/self/stat`.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 12th and 13th, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, for the log.
    pub errors: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    /// A metric that is not finite has no JSON form.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` keeps every digit and a decimal point on whole numbers.
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        // ceil(q * n) - 1 on 1..=100: p50 is the 50th value, p99 the 99th.
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(rank(1, 0.99), 0);
        assert_eq!(rank(3, 0.5), 1);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        for n in [20usize, 21, 57, 100, 640, 999, 1000, 1001, 5000] {
            let q = tail_quantile(n);
            let beyond = n - 1 - rank(n, q);
            assert!(beyond >= 10, "n={n} q={q} leaves {beyond}");
            // And it is the highest such quantile, up to p99.
            if q < 0.99 {
                assert_eq!(beyond, 10, "n={n} q={q}");
            }
        }
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(10), 0.5);
    }

    #[test]
    fn unsorted_input_and_empty_samples() {
        let mut s = Samples::default();
        assert_eq!(s.median(), 0.0);
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let r = Report {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "read_p50_ms",
                    unit: "ms",
                    value: 1.25,
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 3.0,
                },
            ],
            errors: Vec::new(),
        };
        assert_eq!(
            r.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"read_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
        let mut bad = r.clone();
        bad.metrics[0].value = f64::NAN;
        assert!(bad.to_json().is_err());
    }
}
