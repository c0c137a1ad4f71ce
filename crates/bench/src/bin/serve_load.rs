//! Extension: the latency-vs-offered-load sweep. Drive the sharded KV
//! service **open loop** — a deterministic seeded Poisson arrival schedule
//! whose rate is independent of service completions — across offered-load
//! points × grace policies, and report where the sojourn time goes:
//! queue wait (enqueue → pop) vs service (pop → response).
//!
//! This is the scenario family the closed-loop `serve` sweep cannot open:
//! under closed-loop load the in-flight population is bounded by the
//! client count, so queueing delay — the quantity wait-vs-abort policies
//! move at the tail — never builds. Open loop offers it on purpose; as
//! the offered rate approaches capacity, queue-wait percentiles should
//! dominate sojourn and the policies separate.
//!
//! Arms: `NO_DELAY`, `DET`, `RRW` (as in `serve`). Output: TSV +
//! `BENCH_serve_load.json`. Workload-shape flags match `serve`:
//! `--read-fraction <f>` overrides the base mix, `--read-heavy` applies
//! the 90/10-with-scans preset, `--trace <path>` adds one fully-traced
//! run at the top offered rate (Perfetto export + `trace_summary` /
//! `timeseries` report sections).

use std::sync::Arc;

use tcp_bench::cli::Flags;
use tcp_bench::perfetto::{timeseries_json, trace_summary_json, write_perfetto};
use tcp_bench::report::{bench_report, write_report, Json};
use tcp_bench::table;
use tcp_core::policy::{DetRw, GracePolicy, NoDelay};
use tcp_core::randomized::RandRw;
use tcp_core::trace::TraceConfig;
use tcp_server::prelude::{run_server, LoadMode, ServeConfig, ServeReport};

fn json_row(name: &str, offered: f64, r: &ServeReport) -> Json {
    let m = r.stats.merged();
    Json::obj([
        ("policy", Json::from(name)),
        ("offered_per_sec", Json::from(offered)),
        ("commits", Json::from(m.commits)),
        ("aborts", Json::from(m.aborts)),
        ("sheds", Json::from(m.sheds)),
        ("reply_faults", Json::from(r.reply_faults)),
        ("wall_ns", Json::from(r.wall_ns)),
        ("ops_per_sec", Json::from(r.ops_per_sec())),
        ("queue_depth_max", Json::from(m.queue_depth_max)),
        ("clock_bumps", Json::from(r.clock_bumps)),
        ("bumps_per_commit", Json::from(r.clock_bumps_per_commit())),
        ("snapshot_reads", Json::from(m.snapshot_reads)),
        ("snapshot_restarts", Json::from(m.snapshot_restarts)),
        ("chain_misses", Json::from(m.chain_misses)),
        ("read_aborts", Json::from(m.read_aborts)),
        (
            "queue_wait_ns",
            Json::obj([
                ("p50", Json::from(m.queue_wait_percentile(50.0))),
                ("p99", Json::from(m.queue_wait_percentile(99.0))),
                ("p999", Json::from(m.queue_wait_percentile(99.9))),
            ]),
        ),
        (
            "service_ns",
            Json::obj([
                ("p50", Json::from(m.service_percentile(50.0))),
                ("p99", Json::from(m.service_percentile(99.0))),
                ("p999", Json::from(m.service_percentile(99.9))),
            ]),
        ),
        (
            "sojourn_ns",
            Json::obj([
                ("p50", Json::from(m.latency_percentile(50.0))),
                ("p99", Json::from(m.latency_percentile(99.0))),
                ("p999", Json::from(m.latency_percentile(99.9))),
            ]),
        ),
        (
            "throughput_samples",
            Json::arr(m.throughput_samples().into_iter().map(Json::from)),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args).unwrap_or_else(|e| {
        eprintln!("serve_load: {e}");
        std::process::exit(2);
    });
    let quick = table::quick();
    let clients = 4;
    let shards = 2;
    // Offered load points, total requests/second across the fleet. The top
    // point is chosen to exceed a single core's service capacity so the
    // queue-wait tail actually appears; the horizon (ops at each rate) is
    // sized to keep every cell under a couple of seconds.
    let offered: &[f64] = if quick {
        &[20_000.0, 60_000.0, 120_000.0]
    } else {
        &[20_000.0, 40_000.0, 80_000.0, 120_000.0, 160_000.0]
    };
    let horizon_secs = if quick { 0.15 } else { 0.5 };
    let mut base = ServeConfig {
        shards,
        clients,
        keys: 1024,
        zipf_s: 1.1,
        read_fraction: 0.5,
        rmw_fraction: 0.25,
        rmw_span: 4,
        think_ns: 0, // unused in open loop
        work_ns: 2_000,
        queue_capacity: 256,
        seed: 42,
        ..Default::default()
    };
    if flags.flag("read-heavy") {
        // The same 90/10-with-scans preset as `serve --read-heavy`.
        base.read_fraction = 0.9;
        base.rmw_fraction = 0.05;
        base.scan_fraction = 0.1;
        base.scan_span = 16;
    }
    if let Some(v) = flags.get("read-fraction") {
        base.read_fraction = v.parse().unwrap_or_else(|_| {
            eprintln!("serve_load: --read-fraction: cannot parse '{v}'");
            std::process::exit(2);
        });
    }
    base.validate();
    println!(
        "# serve_load: open-loop sharded KV, {clients} clients, {shards} shards, \
         keys={}, zipf_s={}, read={}, rmw={}@{} keys, work={}ns, cap={}, batch={}, \
         window=64, horizon={horizon_secs}s/point \
         (latencies in ns; qw = queue wait, svc = service, p = sojourn)",
        base.keys,
        base.zipf_s,
        base.read_fraction,
        base.rmw_fraction,
        base.rmw_span,
        base.work_ns,
        base.queue_capacity,
        base.batch_max
    );
    table::header(&[
        "policy", "offered", "commits", "sheds", "ops/s", "qw50", "qw99", "qw999", "svc50",
        "svc99", "p50", "p99", "p999",
    ]);
    let mut rows = Vec::new();
    for &rate in offered {
        let rate_per_client = rate / clients as f64;
        let ops_per_client = (rate_per_client * horizon_secs).max(200.0) as u64;
        let arms: Vec<(&str, Arc<dyn GracePolicy>)> = vec![
            ("NO_DELAY", Arc::new(NoDelay::requestor_wins())),
            ("DET", Arc::new(DetRw)),
            ("RRW", Arc::new(RandRw)),
        ];
        for (name, policy) in arms {
            let cfg = ServeConfig {
                ops_per_client,
                mode: LoadMode::Open {
                    rate_per_client,
                    window: 64,
                },
                ..base.clone()
            };
            let r = run_server(&cfg, policy);
            let m = r.stats.merged();
            assert_eq!(
                m.commits + m.sheds,
                cfg.total_requests(),
                "lost requests under {name} at {rate} req/s"
            );
            assert_eq!(r.reply_faults, 0, "misdelivered replies under {name}");
            table::row(&[
                name.into(),
                table::num(rate),
                m.commits.to_string(),
                m.sheds.to_string(),
                table::num(r.ops_per_sec()),
                m.queue_wait_percentile(50.0).to_string(),
                m.queue_wait_percentile(99.0).to_string(),
                m.queue_wait_percentile(99.9).to_string(),
                m.service_percentile(50.0).to_string(),
                m.service_percentile(99.0).to_string(),
                m.latency_percentile(50.0).to_string(),
                m.latency_percentile(99.0).to_string(),
                m.latency_percentile(99.9).to_string(),
            ]);
            rows.push(json_row(name, rate, &r));
        }
    }
    let config = Json::obj([
        ("mode", Json::from("open")),
        ("quick", Json::from(quick)),
        ("clients", Json::from(clients)),
        ("shards", Json::from(shards)),
        ("window", Json::from(64u64)),
        ("horizon_secs", Json::from(horizon_secs)),
        ("keys", Json::from(base.keys)),
        ("zipf_s", Json::from(base.zipf_s)),
        ("read_fraction", Json::from(base.read_fraction)),
        ("rmw_fraction", Json::from(base.rmw_fraction)),
        ("rmw_span", Json::from(base.rmw_span)),
        ("scan_fraction", Json::from(base.scan_fraction)),
        ("scan_span", Json::from(base.scan_span)),
        ("snapshot_reads", Json::from(base.snapshot_reads)),
        ("work_ns", Json::from(base.work_ns)),
        ("queue_capacity", Json::from(base.queue_capacity)),
        ("batch_max", Json::from(base.batch_max)),
        ("seed", Json::from(base.seed)),
    ]);
    let mut report = bench_report("serve_load", config, rows);
    // `--trace <path>`: one fully-traced run at the top offered rate
    // under RRW — where queue-wait spans are deepest and most worth
    // looking at in the viewer.
    if let Some(path) = flags.get("trace") {
        let top = offered[offered.len() - 1];
        let rate_per_client = top / clients as f64;
        let cfg = ServeConfig {
            ops_per_client: (rate_per_client * horizon_secs).max(200.0) as u64,
            mode: LoadMode::Open {
                rate_per_client,
                window: 64,
            },
            trace: TraceConfig {
                enabled: true,
                ..TraceConfig::default()
            },
            ..base.clone()
        };
        let r = run_server(&cfg, RandRw);
        let rep = r.trace.as_ref().expect("tracing was enabled");
        write_perfetto(path, rep);
        println!(
            "# trace: {} events ({} dropped) at {top} req/s -> {path}",
            rep.events.len(),
            rep.dropped_total()
        );
        if let Json::Obj(pairs) = &mut report {
            pairs.push(("trace_summary".into(), trace_summary_json(rep)));
            pairs.push((
                "timeseries".into(),
                timeseries_json(rep, cfg.stats_interval_ns.max(1_000_000)),
            ));
        }
    }
    write_report("BENCH_serve_load.json", &report);
}
