//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_saturated|paced_reads|paced_rmw|stm_direct|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload for `--seconds`, checks its outputs, and prints a
//! description of the run (host, config, seed, run count), one line per
//! metric, and as the last line a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. `--workload all` runs every workload,
//! each in its own process. Exits 1 when a correctness check fails and 2
//! on bad arguments. See README.md for the workloads and metrics.

mod fold;
mod gate;
mod metrics;
mod serve;
mod stm;

use std::process::{Command, ExitCode};

use metrics::{host_line, host_steal_ticks, result_json, Outcome, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 4] = ["hot_saturated", "paced_reads", "paced_rmw", "stm_direct"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The config line printed with the results.
fn describe(args: &Args) -> String {
    match args.workload.as_str() {
        "hot_saturated" => describe_server(&serve::HOT_SATURATED, args.seed),
        "paced_reads" => describe_server(&serve::PACED_READS, args.seed),
        "paced_rmw" => describe_server(&serve::PACED_RMW, args.seed),
        _ => format!(
            "stm_direct: 1 thread, Stm::with_layout({} words, 2 threads, 2 shards), RandRw; \
             4-key RMW (TxCtx::run) alternating with 16-word snapshot scans \
             (TxCtx::run_snapshot), uniform keys, timed in blocks of 512",
            stm::KEYS
        ),
    }
}

fn describe_server(w: &serve::ServerWorkload, seed: u64) -> String {
    let cfg = (w.config)(serve::chunk_seed(seed, 0), w.chunk_ops);
    format!("policy=RandRw chunk={cfg:?} (seed differs per chunk)")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# host: {}", host_line());
    println!("# config: {}", describe(&args));
    let steal0 = host_steal_ticks();
    let out: Outcome = match args.workload.as_str() {
        "hot_saturated" => serve::run(&serve::HOT_SATURATED, args.seed, args.seconds, args.trace),
        "paced_reads" => serve::run(&serve::PACED_READS, args.seed, args.seconds, args.trace),
        "paced_rmw" => serve::run(&serve::PACED_RMW, args.seed, args.seconds, args.trace),
        _ => stm::run(args.seed, args.seconds, args.trace),
    };
    println!(
        "# runs={} attempted={} failed={} host_steal_ticks={}",
        out.runs,
        out.attempted,
        out.failed,
        host_steal_ticks().saturating_sub(steal0)
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        if let Some(v) = out.metrics.get(name) {
            println!("{name:<32} {v:>16.4} {unit}");
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: CORRECTNESS VIOLATION: {e}");
    }
    match result_json(&out, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a process of its own so that peak memory
/// does not carry over; fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload paced_reads --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("paced_reads", 7, 3, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload stm_direct --trace 2").is_err());
        assert!(parse("--workload stm_direct --seed").is_err());
        assert!(parse("--workload stm_direct --bogus 1").is_err());
        assert!(parse("").is_err());
    }
}
