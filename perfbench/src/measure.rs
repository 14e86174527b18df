//! Measurement helpers shared by every workload: exact percentiles over
//! sorted per-item samples, medians, peak RSS, and the result line.

use std::time::{Duration, Instant};

/// Consecutive groups a measured phase is split into for its timing
/// metrics.
pub const GROUPS: usize = 10;

/// Per-item samples of one measured phase, in completion order: when each
/// item completed (seconds into the phase) and its latency (microseconds).
#[derive(Debug, Default)]
pub struct Samples {
    done_s: Vec<f64>,
    micros: Vec<f64>,
}

/// The timing of one group of consecutive items.
#[derive(Debug, Clone, Copy)]
pub struct Group {
    /// Items completed per second over the group's span.
    pub rate: f64,
    pub p50_us: f64,
    pub p90_us: f64,
}

impl Samples {
    /// Records an item that completed `done` into the phase after
    /// `latency`.
    pub fn push(&mut self, done: Duration, latency: Duration) {
        self.done_s.push(done.as_secs_f64());
        self.micros.push(latency.as_nanos() as f64 / 1000.0);
    }

    /// Appends a later phase, shifting its completion times to follow on.
    pub fn extend(&mut self, other: Samples) {
        let offset = self.done_s.last().copied().unwrap_or(0.0);
        self.done_s.extend(other.done_s.iter().map(|t| t + offset));
        self.micros.extend(other.micros);
    }

    pub fn len(&self) -> usize {
        self.micros.len()
    }

    /// Nearest-rank percentile of the sorted samples (`q` in `(0, 1]`).
    pub fn percentile(&self, q: f64) -> f64 {
        percentile(&self.micros, q)
    }

    /// The phase split into [`GROUPS`] runs of consecutive items of equal
    /// count (fewer if there are fewer items). A group spans from the
    /// previous group's last completion (the phase start for the first) to
    /// its own last completion.
    pub fn groups(&self) -> Vec<Group> {
        let n = self.len();
        assert!(n > 0, "no items to group");
        let k = GROUPS.min(n);
        (0..k)
            .map(|g| {
                let (lo, hi) = (g * n / k, (g + 1) * n / k);
                let begin = if lo == 0 { 0.0 } else { self.done_s[lo - 1] };
                let latencies = &self.micros[lo..hi];
                Group {
                    rate: (hi - lo) as f64 / (self.done_s[hi - 1] - begin),
                    p50_us: percentile(latencies, 0.5),
                    p90_us: percentile(latencies, 0.9),
                }
            })
            .collect()
    }

    /// Prints each group's rate and percentiles, so a host slowdown that
    /// covers part of a run shows in its log.
    pub fn print_groups(&self) {
        let groups = self.groups();
        let list = |f: fn(&Group) -> f64| -> String {
            let v: Vec<String> = groups.iter().map(|g| format!("{:.0}", f(g))).collect();
            v.join(" ")
        };
        println!("groups: rate/s [{}]", list(|g| g.rate));
        println!("groups: p50 us [{}]", list(|g| g.p50_us));
        println!("groups: p90 us [{}]", list(|g| g.p90_us));
    }

    /// The median over the groups of one group figure. A host slowdown
    /// that covers a few groups leaves it alone; a slower program moves
    /// every group.
    pub fn group_median(&self, figure: impl Fn(&Group) -> f64) -> f64 {
        median(&self.groups().iter().map(figure).collect::<Vec<_>>())
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (lower median for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `start`.
pub fn millis(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e6
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The outcome of one benchmark run: the fields of the result line.
#[derive(Debug)]
pub struct Outcome {
    checks_pass: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            checks_pass: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Outcome {
    /// Counts `attempted` items, of which `failed` failed their output
    /// check.
    pub fn items(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a check that is not per item, such as a check's self-test.
    pub fn check(&mut self, what: &str, pass: bool) {
        if !pass {
            println!("CHECK FAILED: {what}");
        }
        self.checks_pass &= pass;
    }

    /// Adds one metric; also prints it on its own line for people.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("  {name:<32} {value:>14.4} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Puts the metrics in the order of `expected`; panics unless they are
    /// exactly those.
    pub fn order_metrics(&mut self, expected: &[&str]) {
        let rank = |name: &str| expected.iter().position(|e| *e == name);
        self.metrics.sort_by_key(|(name, _, _)| rank(name));
        let names: Vec<&str> = self.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names, expected,
            "the run's metrics differ from the manifest's"
        );
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, numbers printed with every digit (`{:?}`
    /// keeps a decimal point on whole values, so every metric reads as a
    /// JSON float). `correct` holds when every item and every other check
    /// passed.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks_pass && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Wall times of a run's set-ups; `setup_s` is their median.
///
/// A run times its first set-up before the measured phase and repeats the
/// set-up after it, once the peak RSS has been read. The repeats thus
/// leave the reported memory alone, and the set-ups sample the host at two
/// moments of the run.
#[derive(Debug, Default)]
pub struct Setups {
    walls: Vec<f64>,
}

impl Setups {
    /// Times one set-up and returns its value.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = setup();
        self.walls.push(secs(start));
        value
    }

    /// Times set-ups until there are `total`, dropping each value (outside
    /// the timing) before the next starts.
    pub fn repeat<T>(&mut self, total: usize, mut setup: impl FnMut() -> T) {
        while self.walls.len() < total {
            drop(self.time(&mut setup));
        }
    }

    /// The median set-up time in seconds; prints the set-ups' range.
    pub fn median(&self) -> f64 {
        let min = self.walls.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.walls.iter().copied().fold(0.0, f64::max);
        let med = median(&self.walls);
        println!(
            "{} set-ups: median {med:.4} s, min {min:.4} s, max {max:.4} s",
            self.walls.len()
        );
        med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn groups_split_by_count_and_span() {
        let mut s = Samples::default();
        for i in 1..=20u64 {
            // Ten items a second for the first half, five for the second.
            let done = if i <= 10 {
                i * 100
            } else {
                1000 + (i - 10) * 200
            };
            s.push(Duration::from_millis(done), Duration::from_micros(i));
        }
        let rates: Vec<f64> = s.groups().iter().map(|g| g.rate).collect();
        assert_eq!(rates.len(), GROUPS);
        assert!(rates[..5].iter().all(|r| (r - 10.0).abs() < 1e-9));
        assert!(rates[5..].iter().all(|r| (r - 5.0).abs() < 1e-9));
        assert_eq!(s.groups()[0].p90_us, 2.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.items(3, 0);
        o.metric("latency_p50_us", 12.5, "us");
        o.metric("success_ratio", 1.0, "ratio");
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"success_ratio\": {\"value\": 1.0, \"unit\": \"ratio\"}}}"
        );
        o.check("self-test", false);
        assert!(o.json_line().starts_with("{\"correct\": false,"));
    }
}
