//! Bench trend checker: compare freshly produced serve reports against
//! the previously committed ones and warn when the quick-config ops/s
//! regressed by more than a threshold.
//!
//! This is deliberately tiny — no serde in the vendored dependency set,
//! and the reports are machine-written compact JSON (`tcp_bench::report`),
//! so a key-scanning extractor is exact for the files it reads. The
//! checker *warns* by default (a 1-core CI runner's throughput is noisy);
//! `--strict` turns a regression into a non-zero exit for hosts with
//! stable baselines (CI gates it on the `TREND_STRICT` env var through
//! `scripts/check_bench_trend.sh`).
//!
//! ```text
//! trend_check --prev <old.json> --cur <new.json> \
//!             [--prev-load <old_load.json> --cur-load <new_load.json>] \
//!             [--prev-skew <old_skew.json> --cur-skew <new_skew.json>] \
//!             [--threshold 15] [--strict]
//! ```
//!
//! Comparison rules, each applied only when both reports of a pair were
//! produced with the same `quick` flag (comparing a quick run against a
//! full run would be meaningless, and is reported as a skip):
//!
//! * **serve** (closed loop): mean of the main sweep rows' `ops_per_sec`
//!   values (the report is sliced *before* its appended sections so they
//!   don't pollute each other's means);
//! * **serve_read_heavy**: mean `ops_per_sec` over the report's
//!   `read_heavy` section rows — the snapshot-read fast path's sweep.
//!   Always warn-only (never escalated by `--strict`): the section is
//!   newer than some baselines and its quick rows are small;
//! * **serve_load** (open loop): mean `ops_per_sec` over the rows at the
//!   *highest* offered-load point only — the capacity-bound cell, the one
//!   a serving regression actually moves (low-load cells just track the
//!   arrival schedule);
//! * **serve_skew** (open loop at overload): mean `ops_per_sec` over the
//!   main sweep rows (all theta × steal × admission cells). Always
//!   warn-only: overload cells on a shared runner are the noisiest
//!   numbers this checker reads;
//! * **serve_layout** / **stm_hot**: the serve report's `layout` probe
//!   (uncontended read/commit, inverted to ops/s) and the `stm_hot`
//!   microbench rows. Always warn-only — single-threaded nanosecond
//!   timings jitter hardest of all on shared runners.
//!
//! Every comparison carries per-row names (`RRW/shards=4`,
//! `theta=1.2/steal=on/slo`, ...), and a regression warning names the
//! offending rows with their individual deltas — not just the mean.

use tcp_bench::cli::Flags;

/// Extract every value of compact-JSON key `"key":<number>` from `json`.
/// Exact for the writer in `tcp_bench::report` (no whitespace, keys
/// quoted); keys that merely share a prefix (`ops_per_sec_steal_on`) do
/// not match because the pattern includes the closing quote and colon.
fn extract_numbers(json: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&pat) {
        rest = &rest[pos + pat.len()..];
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// Extract every string value of compact-JSON key `"key":"value"`.
fn extract_strings(json: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\":\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&pat) {
        rest = &rest[pos + pat.len()..];
        let end = rest.find('"').unwrap_or(rest.len());
        out.push(rest[..end].to_string());
    }
    out
}

/// Extract every boolean value of compact-JSON key `"key":true|false`.
fn extract_bools(json: &str, key: &str) -> Vec<bool> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&pat) {
        rest = &rest[pos + pat.len()..];
        if rest.starts_with("true") {
            out.push(true);
        } else if rest.starts_with("false") {
            out.push(false);
        }
    }
    out
}

/// Extract the first boolean value of compact-JSON key `"key":true|false`.
fn extract_bool(json: &str, key: &str) -> Option<bool> {
    extract_bools(json, key).first().copied()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A named sweep row: `(row label, ops_per_sec)`.
type Row = (String, f64);

/// The serve report's main-sweep slice: everything before the first
/// appended section (a report that predates the sections is returned
/// whole — its rows *are* the main sweep). `group_commit_ab` is a section
/// older baselines still carry ahead of `read_heavy`.
fn main_sweep(json: &str) -> &str {
    let end = ["\"group_commit_ab\"", "\"read_heavy\""]
        .iter()
        .filter_map(|s| json.find(s))
        .min()
        .unwrap_or(json.len());
    &json[..end]
}

/// The serve report's `read_heavy` section slice; empty when the report
/// predates the section (the caller then skips the comparison).
fn read_heavy_section(json: &str) -> &str {
    let Some(start) = json.find("\"read_heavy\"") else {
        return "";
    };
    let rest = &json[start..];
    match rest.find("\"snapshot_ab\"") {
        Some(end) => &rest[..end],
        None => rest,
    }
}

/// The serve_skew report's main-sweep slice: from its `rows` array to
/// the appended `comparisons` section (whose `theta` keys would
/// otherwise leak into the labels).
fn skew_sweep(json: &str) -> &str {
    let start = json.find("\"rows\"").unwrap_or(0);
    let end = json.find("\"comparisons\"").unwrap_or(json.len());
    &json[start..end.max(start)]
}

/// Closed-loop rows named `policy/shards=N`. Relies on the writer
/// emitting the keys once per row, in row order, so the flat extractions
/// zip positionally.
fn policy_shard_rows(json: &str) -> Vec<Row> {
    let policies = extract_strings(json, "policy");
    let shards = extract_numbers(json, "shards");
    extract_numbers(json, "ops_per_sec")
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let policy = policies.get(i).map(String::as_str).unwrap_or("?");
            let shard = shards
                .get(i)
                .map(|s| format!("/shards={s}"))
                .unwrap_or_default();
            (format!("{policy}{shard}"), v)
        })
        .collect()
}

/// Open-loop rows at the report's highest `offered_per_sec` point,
/// named `policy@offered`.
fn ops_at_peak_offered(json: &str) -> Vec<Row> {
    let offered = extract_numbers(json, "offered_per_sec");
    let ops = extract_numbers(json, "ops_per_sec");
    let policies = extract_strings(json, "policy");
    let Some(peak) = offered.iter().copied().reduce(f64::max) else {
        return Vec::new();
    };
    offered
        .iter()
        .enumerate()
        .zip(ops.iter())
        .filter(|&((_, &o), _)| o == peak)
        .map(|((i, _), &v)| {
            let policy = policies.get(i).map(String::as_str).unwrap_or("?");
            (format!("{policy}@{peak}"), v)
        })
        .collect()
}

/// The serve report's `layout` section as rate rows: the uncontended
/// read/commit ns probes inverted to ops/s so the shared "higher is
/// better" comparison applies. Empty when the report predates the
/// section.
fn layout_rows(json: &str) -> Vec<Row> {
    let Some(start) = json.find("\"layout\"") else {
        return Vec::new();
    };
    let section = &json[start..];
    let mut rows = Vec::new();
    for key in ["uncontended_read_ns", "uncontended_commit_ns"] {
        if let Some(&ns) = extract_numbers(section, key).first() {
            if ns > 0.0 {
                rows.push((key.trim_end_matches("_ns").to_string(), 1e9 / ns));
            }
        }
    }
    rows
}

/// `stm_hot` rows named `layout/op` on their `ops_per_sec` values.
fn stm_hot_rows(json: &str) -> Vec<Row> {
    let layouts = extract_strings(json, "layout");
    let ops_names = extract_strings(json, "op");
    extract_numbers(json, "ops_per_sec")
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let layout = layouts.get(i).map(String::as_str).unwrap_or("?");
            let op = ops_names.get(i).map(String::as_str).unwrap_or("?");
            (format!("{layout}/{op}"), v)
        })
        .collect()
}

/// Skew-sweep rows named `theta=T/steal=on|off/adm`.
fn skew_rows(json: &str) -> Vec<Row> {
    let json = skew_sweep(json);
    let thetas = extract_numbers(json, "theta");
    let steals = extract_bools(json, "steal");
    let admissions = extract_strings(json, "admission");
    extract_numbers(json, "ops_per_sec")
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let theta = thetas.get(i).copied().unwrap_or(f64::NAN);
            let steal = if steals.get(i) == Some(&true) {
                "on"
            } else {
                "off"
            };
            let adm = admissions.get(i).map(String::as_str).unwrap_or("?");
            (format!("theta={theta}/steal={steal}/{adm}"), v)
        })
        .collect()
}

/// Compare one baseline/current pair on the named rows `select`
/// extracts. Returns `true` when the mean regressed beyond `threshold`%;
/// the warning names every offending row (matched by label) alongside
/// the mean delta.
fn compare(
    label: &str,
    prev_path: &str,
    cur_path: &str,
    threshold: f64,
    select: impl Fn(&str) -> Vec<Row>,
) -> bool {
    let prev = match std::fs::read_to_string(prev_path) {
        Ok(s) => s,
        Err(e) => {
            // No baseline (first run, shallow checkout): nothing to
            // compare, and that is not an error.
            println!("trend_check[{label}]: no baseline at {prev_path} ({e}); skipping");
            return false;
        }
    };
    let cur = match std::fs::read_to_string(cur_path) {
        Ok(s) => s,
        Err(e) => {
            println!("trend_check[{label}]: cannot read {cur_path} ({e}); skipping");
            return false;
        }
    };
    let (pq, cq) = (extract_bool(&prev, "quick"), extract_bool(&cur, "quick"));
    if pq != cq {
        println!(
            "trend_check[{label}]: config mismatch (prev quick={pq:?}, cur quick={cq:?}); skipping"
        );
        return false;
    }
    let (prev_rows, cur_rows) = (select(&prev), select(&cur));
    if prev_rows.is_empty() || cur_rows.is_empty() {
        println!(
            "trend_check[{label}]: missing ops_per_sec rows (prev {}, cur {}); skipping",
            prev_rows.len(),
            cur_rows.len()
        );
        return false;
    }
    let prev_ops: Vec<f64> = prev_rows.iter().map(|r| r.1).collect();
    let cur_ops: Vec<f64> = cur_rows.iter().map(|r| r.1).collect();
    let (prev_mean, cur_mean) = (mean(&prev_ops), mean(&cur_ops));
    let delta_pct = (cur_mean - prev_mean) / prev_mean * 100.0;
    println!(
        "trend_check[{label}]: mean ops/s {prev_mean:.0} -> {cur_mean:.0} ({delta_pct:+.1}%) \
         over {} prev / {} cur rows",
        prev_rows.len(),
        cur_rows.len()
    );
    if delta_pct >= -threshold {
        return false;
    }
    // Name the rows that actually regressed (matched by label, so a
    // reordered or re-swept report still attributes correctly).
    let offenders: Vec<String> = cur_rows
        .iter()
        .filter_map(|(name, cur_v)| {
            let (_, prev_v) = prev_rows.iter().find(|(p, _)| p == name)?;
            let row_delta = (cur_v - prev_v) / prev_v * 100.0;
            (row_delta < -threshold)
                .then(|| format!("{name} {prev_v:.0}->{cur_v:.0} ({row_delta:+.1}%)"))
        })
        .collect();
    let detail = if offenders.is_empty() {
        "no single row beyond threshold (mean moved by many small drops)".to_string()
    } else {
        format!("offending rows: {}", offenders.join(", "))
    };
    println!(
        "::warning::{label} throughput regressed {:.1}% (> {threshold}% threshold) \
         vs committed baseline {prev_path} — {detail}",
        -delta_pct
    );
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args).unwrap_or_else(|e| {
        eprintln!("trend_check: {e}");
        std::process::exit(2);
    });
    let prev_path = flags.get("prev").unwrap_or("BENCH_serve.prev.json");
    let cur_path = flags.get("cur").unwrap_or("BENCH_serve.json");
    let prev_load = flags
        .get("prev-load")
        .unwrap_or("BENCH_serve_load.prev.json");
    let cur_load = flags.get("cur-load").unwrap_or("BENCH_serve_load.json");
    let prev_skew = flags
        .get("prev-skew")
        .unwrap_or("BENCH_serve_skew.prev.json");
    let cur_skew = flags.get("cur-skew").unwrap_or("BENCH_serve_skew.json");
    let prev_hot = flags.get("prev-hot").unwrap_or("BENCH_stm_hot.prev.json");
    let cur_hot = flags.get("cur-hot").unwrap_or("BENCH_stm_hot.json");
    let threshold: f64 = flags.num("threshold", 15.0).unwrap();
    let strict = flags.flag("strict");

    let mut regressed = compare(SERVE, prev_path, cur_path, threshold, |j| {
        policy_shard_rows(main_sweep(j))
    });
    // Read-heavy section: warn-only — a regression here prints the
    // ::warning annotation but never fails the run, even under --strict
    // (older baselines lack the section entirely; compare() skips those).
    compare(SERVE_READ_HEAVY, prev_path, cur_path, threshold, |j| {
        policy_shard_rows(read_heavy_section(j))
    });
    regressed |= compare(
        SERVE_LOAD,
        prev_load,
        cur_load,
        threshold,
        ops_at_peak_offered,
    );
    // Skew sweep: warn-only like read_heavy — overload cells are the
    // noisiest numbers here, and older baselines may predate the file.
    compare(SERVE_SKEW, prev_skew, cur_skew, threshold, skew_rows);
    // Layout probe and stm_hot microbench: warn-only — single-threaded
    // nanosecond timings on a shared runner jitter well beyond the
    // serving sweeps, and older baselines predate both sections.
    compare(SERVE_LAYOUT, prev_path, cur_path, threshold, layout_rows);
    compare(STM_HOT, prev_hot, cur_hot, threshold, stm_hot_rows);
    if regressed && strict {
        std::process::exit(1);
    }
}

const SERVE: &str = "serve";
const SERVE_READ_HEAVY: &str = "serve_read_heavy";
const SERVE_LOAD: &str = "serve_load";
const SERVE_SKEW: &str = "serve_skew";
const SERVE_LAYOUT: &str = "serve_layout";
const STM_HOT: &str = "stm_hot";

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"bench":"serve","config":{"quick":true,"seed":42},"rows":[{"policy":"DET","shards":2,"ops_per_sec":1000.5,"ops_per_sec_steal_on":9.9},{"policy":"RRW","shards":2,"ops_per_sec":2000}]}"#;

    #[test]
    fn extracts_exact_key_occurrences_only() {
        let v = extract_numbers(SAMPLE, "ops_per_sec");
        assert_eq!(
            v,
            vec![1000.5, 2000.0],
            "prefix-sharing keys must not match"
        );
        assert_eq!(extract_numbers(SAMPLE, "missing"), Vec::<f64>::new());
        assert_eq!(extract_numbers(SAMPLE, "seed"), vec![42.0]);
    }

    #[test]
    fn extracts_quick_flag() {
        assert_eq!(extract_bool(SAMPLE, "quick"), Some(true));
        assert_eq!(
            extract_bool(r#"{"config":{"quick":false}}"#, "quick"),
            Some(false)
        );
        assert_eq!(extract_bool(SAMPLE, "absent"), None);
    }

    #[test]
    fn mean_of_rows() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rows_carry_policy_and_shard_labels() {
        let rows = policy_shard_rows(main_sweep(SAMPLE));
        assert_eq!(
            rows,
            vec![
                ("DET/shards=2".to_string(), 1000.5),
                ("RRW/shards=2".to_string(), 2000.0),
            ]
        );
    }

    const LOAD_SAMPLE: &str = r#"{"bench":"serve_load","config":{"quick":true},"rows":[
        {"policy":"DET","offered_per_sec":20000,"ops_per_sec":19000},
        {"policy":"RRW","offered_per_sec":20000,"ops_per_sec":19500},
        {"policy":"DET","offered_per_sec":120000,"ops_per_sec":90000},
        {"policy":"RRW","offered_per_sec":120000,"ops_per_sec":100000}]}"#;

    const SECTIONED: &str = r#"{"bench":"serve","config":{"quick":true},"rows":[{"policy":"DET","shards":2,"ops_per_sec":100},{"policy":"RRW","shards":4,"ops_per_sec":200}],"group_commit_ab":{"policy":"NO_DELAY","shards":2,"ops_per_sec_group_off":5,"ops_per_sec_group_on":6},"read_heavy":{"rows":[{"policy":"NO_DELAY","shards":2,"ops_per_sec":900},{"policy":"NO_DELAY","shards":4,"ops_per_sec":1100}]},"snapshot_ab":{"ops_per_sec_snapshot_off":7,"ops_per_sec_snapshot_on":8,"pure_read_ops_per_sec":9}}"#;

    #[test]
    fn section_slicing_keeps_sweeps_apart() {
        assert_eq!(
            policy_shard_rows(main_sweep(SECTIONED)),
            vec![
                ("DET/shards=2".to_string(), 100.0),
                ("RRW/shards=4".to_string(), 200.0),
            ],
            "main sweep must exclude section rows"
        );
        assert_eq!(
            policy_shard_rows(read_heavy_section(SECTIONED)),
            vec![
                ("NO_DELAY/shards=2".to_string(), 900.0),
                ("NO_DELAY/shards=4".to_string(), 1100.0),
            ],
            "read_heavy compare must see only its own rows"
        );
        // A baseline that predates the sections: whole file is the main
        // sweep, read_heavy compare sees nothing and is skipped.
        assert_eq!(policy_shard_rows(main_sweep(SAMPLE)).len(), 2);
        assert!(policy_shard_rows(read_heavy_section(SAMPLE)).is_empty());
    }

    #[test]
    fn peak_offered_selects_only_the_highest_load_point() {
        let rows = ops_at_peak_offered(LOAD_SAMPLE);
        assert_eq!(
            rows,
            vec![
                ("DET@120000".to_string(), 90000.0),
                ("RRW@120000".to_string(), 100000.0),
            ],
            "low-load rows must be excluded"
        );
        assert!(ops_at_peak_offered("{}").is_empty());
    }

    const SKEW_SAMPLE: &str = r#"{"bench":"serve_skew","config":{"quick":true,"policy":"rand-rw","thetas":[0.6,1.2]},"rows":[{"theta":0.6,"steal":false,"slo_us":0,"admission":"fixed","policy":"rand-rw","ops_per_sec":50000},{"theta":1.2,"steal":true,"slo_us":200,"admission":"slo","policy":"rand-rw","ops_per_sec":70000}],"comparisons":[{"theta":1.2,"ops_per_sec_steal_off":1,"ops_per_sec_steal_on":2}]}"#;

    #[test]
    fn layout_rows_invert_ns_probes_and_skip_old_baselines() {
        let json = r#"{"bench":"serve","config":{"quick":true},"rows":[],"layout":{"shards":2,"words":1024,"uncontended_read_ns":50.0,"uncontended_commit_ns":200.0}}"#;
        let rows = layout_rows(json);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "uncontended_read");
        assert!((rows[0].1 - 2e7).abs() < 1.0);
        assert_eq!(rows[1].0, "uncontended_commit");
        assert!((rows[1].1 - 5e6).abs() < 1.0);
        assert!(layout_rows(SAMPLE).is_empty(), "pre-layout baselines skip");
    }

    #[test]
    fn stm_hot_rows_are_labeled_by_layout_and_op() {
        let json = r#"{"bench":"stm_hot","config":{"quick":true},"rows":[{"layout":"flat","op":"read_txn","ns_per_op":100.0,"ops_per_sec":1e7},{"layout":"shard_major_8","op":"commit_txn","ns_per_op":250.0,"ops_per_sec":4e6}]}"#;
        let rows = stm_hot_rows(json);
        assert_eq!(
            rows,
            vec![
                ("flat/read_txn".to_string(), 1e7),
                ("shard_major_8/commit_txn".to_string(), 4e6),
            ]
        );
    }

    #[test]
    fn skew_rows_are_labeled_and_exclude_comparisons() {
        let rows = skew_rows(SKEW_SAMPLE);
        assert_eq!(
            rows,
            vec![
                ("theta=0.6/steal=off/fixed".to_string(), 50000.0),
                ("theta=1.2/steal=on/slo".to_string(), 70000.0),
            ],
            "comparisons section must not leak into the sweep rows"
        );
    }
}
