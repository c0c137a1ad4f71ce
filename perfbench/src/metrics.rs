//! Metric names and units, the result line, and the small statistics and
//! process probes (CPU time, peak RSS, host description) the workloads
//! share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tcp_core::hist::LatencyHistogram;

/// End-to-end metrics, printed with `--trace 0`: what a user of the
/// service sees. Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_s", "1/s"),
    ("p50_us", "us"),
    ("ok_pct", "%"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`, named `<module>.<what>`.
/// A layer a workload does not run reports 0 (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.fail_pct", "%"),
    ("client.lag_pct", "%"),
    ("router.capacity_sheds", "count"),
    ("router.slo_sheds", "count"),
    ("router.invalid_sheds", "count"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("queue.depth_max", "count"),
    ("executor.service_p50_us", "us"),
    ("executor.service_p99_us", "us"),
    ("executor.sojourn_p95_us", "us"),
    ("executor.sojourn_p99_us", "us"),
    ("executor.batch_mean", "count"),
    ("executor.steal_share", "ratio"),
    ("executor.idle_parks_per_kop", "count"),
    ("executor.execute_ns", "ns"),
    ("executor.reply_ns", "ns"),
    ("stm.attempts_per_commit", "ratio"),
    ("stm.clock_bumps_per_commit", "ratio"),
    ("stm.acquire_ns", "ns"),
    ("stm.validate_ns", "ns"),
    ("stm.publish_ns", "ns"),
    ("stm.snapshot_share", "ratio"),
    ("stm.snapshot_restarts", "count"),
    ("stm.rw_tx_ns", "ns"),
    ("stm.snapshot_tx_ns", "ns"),
    ("engine.arbiter_consults_per_kop", "count"),
    ("engine.grace_wait_us_per_kop", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped", "count"),
    ("trace.unreconciled_pct", "%"),
];

/// Metric values by name, filled by a workload and printed against one
/// of the name tables above.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Everything one benchmark invocation produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness violations; empty means the outputs checked out.
    pub errors: Vec<String>,
    /// Operations attempted in the measured (untraced) runs.
    pub attempted: u64,
    /// Of those, operations that failed: shed, unanswered or misdelivered.
    pub failed: u64,
    /// Measured runs (server chunks or STM rounds) the medians come from.
    pub runs: usize,
    pub metrics: Metrics,
}

/// The result line: one JSON object holding `table`'s metrics. Fails if
/// a metric is missing or not a finite number.
pub fn result_json(out: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.errors.is_empty(),
        out.attempted,
        out.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints an f64 with every digit needed to round-trip, and
        // never in exponent form, so the text is always a JSON number.
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}

/// Median of `xs` (0 when empty); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (0 when empty); sorts in
/// place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[((xs.len() - 1) as f64 * q).round() as usize]
}

/// Percentile `p ∈ [0, 100]` of a log-bucketed histogram, interpolated
/// linearly inside the holding bucket. The histogram's own
/// [`LatencyHistogram::percentile`] returns the bucket's upper edge, so
/// its answers move in ~3% steps; interpolation keeps a median of them
/// from reading the same on every run while staying within the bucket.
pub fn hist_percentile(h: &LatencyHistogram, p: f64) -> f64 {
    let n = h.count();
    let v = h.percentile(p);
    // Below 64 the buckets are exact, one value wide.
    if n == 0 || v < 64 {
        return v as f64;
    }
    // The bucket geometry of `tcp_core::hist`: each octave [2^m, 2^m+1)
    // splits into 32 equal buckets.
    let msb = 63 - v.leading_zeros();
    let width = 1u64 << (msb - 5);
    let base = 1u64 << msb;
    let first = base + (v - base) / width * width;
    let last = first + width - 1;
    let below = (h.fraction_at_or_below(first - 1) * n as f64).round();
    let within = (h.fraction_at_or_below(last) * n as f64).round() - below;
    if within <= 0.0 {
        return v as f64;
    }
    let rank = ((p / 100.0) * (n - 1) as f64).round() + 1.0;
    let frac = ((rank - below - 0.5) / within).clamp(0.0, 1.0);
    let (lo, hi) = (first.max(h.min()), last.min(h.max()));
    lo as f64 + frac * hi.saturating_sub(lo) as f64
}

/// CPU time (user + system) consumed by this process so far, in
/// nanoseconds, across all its threads.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// CPU time the hypervisor took from this machine's CPUs so far (the
/// `steal` column of `/proc/stat`), in clock ticks; 0 where unavailable.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// One line naming the host the numbers came from.
pub fn host_line() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("available_parallelism={cpus} cpu=\"{model}\" profile={profile}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: 1–64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_legal_and_used_once() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "illegal metric name {name}");
        }
        let mut uniq = all.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), all.len(), "a metric name is used twice");
        assert!(!valid_name("p99 us") && !valid_name("_x") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let decl = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(decl.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = decl.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_metric_and_rejects_gaps() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Default::default()
        };
        for (name, _) in END_TO_END {
            out.metrics.set(name, 1.5);
        }
        let line = result_json(&out, END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(result_json(&out, PER_LAYER).is_err(), "missing metrics");
        out.metrics.set("ops_s", f64::NAN);
        assert!(result_json(&out, END_TO_END).is_err(), "non-finite value");
    }

    #[test]
    fn interpolated_percentile_stays_inside_the_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        for p in [1.0, 50.0, 99.0] {
            let edge = h.percentile(p) as f64;
            let v = hist_percentile(&h, p);
            let exact = 1_000.0 + p / 100.0 * 999.0;
            assert!(
                v <= edge && v >= edge * (1.0 - 1.0 / 32.0) - 1.0,
                "{p}: {v} vs {edge}"
            );
            assert!(
                (v - exact).abs() <= exact / 32.0,
                "{p}: {v} vs exact {exact}"
            );
        }
        let mut small = LatencyHistogram::new();
        small.record(7);
        assert_eq!(hist_percentile(&small, 50.0), 7.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut xs), 3.0);
        assert_eq!(quantile(&mut xs, 1.0), 5.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
