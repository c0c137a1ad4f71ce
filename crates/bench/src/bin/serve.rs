//! Extension: the serving-path sweep. Run the sharded transactional KV
//! service under closed-loop load and compare grace policies on
//! throughput *and* tail latency across shard counts — the paper's
//! wait-vs-abort trade-off measured on a service instead of a simulator.
//!
//! Arms: always-abort (`NO_DELAY`, the HTM default), the deterministic §6
//! strategy (`DET`), and the randomized §5 strategy (`RRW`).
//!
//! Besides the TSV table, the sweep is persisted as `BENCH_serve.json`
//! (see `tcp_bench::report`) so the repo's perf trajectory is
//! machine-readable. Latency columns decompose the sojourn time the
//! executors measure: `qw*` = queue wait (enqueue → pop), `p*` = sojourn
//! (enqueue → response).
//!
//! Workload-shape flags: `--read-fraction <f>` overrides the base mix;
//! `--read-heavy` applies the 90/10-with-scans preset (`read=0.9`,
//! `rmw=0.05`, `scan=0.1@16` keys). Independently of those, the report
//! always carries a `read_heavy` row section (the preset swept under
//! NO_DELAY, what `trend_check` tracks) and a `snapshot_ab` section: an
//! interleaved snapshot-on/off A/B on the read-heavy mix whose arms must
//! agree on the final heap checksum, with the snapshot arm
//! counter-verified to take zero read-side aborts — plus a pure-read run
//! asserting the fast path never consults the conflict arbiter.

use std::sync::Arc;

use tcp_bench::cli::Flags;

use tcp_bench::perfetto::{timeseries_json, trace_summary_json, write_perfetto};
use tcp_bench::report::{bench_report, write_report, Json};
use tcp_bench::table;
use tcp_core::policy::{DetRw, GracePolicy, NoDelay};
use tcp_core::randomized::RandRw;
use tcp_core::trace::{TraceCause, TraceConfig};
use tcp_server::prelude::{run_server, ServeConfig, ServeReport};

/// One sweep row as JSON, shared with `serve_load` in spirit: counters as
/// exact integers, latencies in nanoseconds.
fn json_row(name: &str, shards: usize, r: &ServeReport) -> Json {
    let m = r.stats.merged();
    Json::obj([
        ("policy", Json::from(name)),
        ("shards", Json::from(shards)),
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
        ("arbiter_consults", Json::from(m.arbiter_consults)),
        (
            "queue_wait_ns",
            Json::obj([
                ("p50", Json::from(m.queue_wait_percentile(50.0))),
                ("p90", Json::from(m.queue_wait_percentile(90.0))),
                ("p99", Json::from(m.queue_wait_percentile(99.0))),
                ("p999", Json::from(m.queue_wait_percentile(99.9))),
            ]),
        ),
        (
            "service_ns",
            Json::obj([
                ("p50", Json::from(m.service_percentile(50.0))),
                ("p90", Json::from(m.service_percentile(90.0))),
                ("p99", Json::from(m.service_percentile(99.0))),
                ("p999", Json::from(m.service_percentile(99.9))),
            ]),
        ),
        (
            "sojourn_ns",
            Json::obj([
                ("p50", Json::from(m.latency_percentile(50.0))),
                ("p90", Json::from(m.latency_percentile(90.0))),
                ("p99", Json::from(m.latency_percentile(99.0))),
                ("p999", Json::from(m.latency_percentile(99.9))),
            ]),
        ),
        (
            "throughput_samples",
            Json::arr(m.throughput_samples().into_iter().map(Json::from)),
        ),
        ("trace_dropped", Json::from(r.trace_dropped)),
        ("hot_keys", Json::from(r.hot_keys)),
    ])
}

/// Interleaved tracing A/B under NO_DELAY: alternate tracing-off/on
/// rounds on one config (seed varies per round, shared within a round).
/// Tracing is an observer, so each round's arms must land the identical
/// heap checksum; the section reports the measured overhead of the
/// *enabled* path (the disabled path is a single never-taken branch,
/// tracked by `trend_check` against the committed baseline).
fn trace_ab(base: &ServeConfig, shards: usize, rounds: u64) -> Json {
    let mut ops = [Vec::new(), Vec::new()]; // [off, on]
    let (mut events, mut dropped) = (0u64, 0u64);
    for round in 0..rounds {
        let mut checksums = [0u64; 2];
        for (arm, on) in [(0usize, false), (1usize, true)] {
            let cfg = ServeConfig {
                shards,
                trace: TraceConfig {
                    enabled: on,
                    ..TraceConfig::default()
                },
                seed: base.seed + round,
                ..base.clone()
            };
            let r = run_server(&cfg, NoDelay::requestor_wins());
            let m = r.stats.merged();
            assert_eq!(m.commits + m.sheds, cfg.total_requests());
            ops[arm].push(r.ops_per_sec());
            checksums[arm] = r.state_checksum;
            if let Some(rep) = &r.trace {
                events += rep.events.len() as u64;
                dropped += rep.dropped_total();
                // The acceptance cross-check, live on every traced
                // round: attribution equals the engine counters.
                assert_eq!(rep.abort_total(TraceCause::Conflict), m.conflict_aborts);
                assert_eq!(rep.abort_total(TraceCause::Validation), m.validation_aborts);
                assert_eq!(rep.abort_total(TraceCause::RemoteKill), m.remote_kills);
                assert_eq!(rep.shed_total(TraceCause::ShedCapacity), m.capacity_sheds);
            }
        }
        assert_eq!(
            checksums[0], checksums[1],
            "tracing must not change the final heap (round {round})"
        );
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (off, on) = (mean(&ops[0]), mean(&ops[1]));
    let overhead_pct = (off - on) / off * 100.0;
    if overhead_pct > 3.0 {
        println!(
            "::warning::tracing-enabled overhead {overhead_pct:.2}% exceeds the 3% budget \
             ({on:.0} vs {off:.0} ops/s)"
        );
    }
    Json::obj([
        ("policy", Json::from("NO_DELAY")),
        ("shards", Json::from(shards)),
        ("rounds", Json::from(rounds)),
        ("interleaved", Json::from(true)),
        ("ops_per_sec_trace_off", Json::from(off)),
        ("ops_per_sec_trace_on", Json::from(on)),
        ("overhead_pct", Json::from(overhead_pct)),
        ("events", Json::from(events)),
        ("trace_dropped", Json::from(dropped)),
        ("checksums_agree", Json::from(true)),
    ])
}

/// The 90/10-with-scans preset of the `--read-heavy` flag: 90% of non-RMW
/// draws read, 10% of them as multi-key scans, and RMWs trimmed to 5% —
/// the mix where the MVCC snapshot read path carries most of the load.
fn read_heavy_preset(base: &ServeConfig) -> ServeConfig {
    ServeConfig {
        read_fraction: 0.9,
        rmw_fraction: 0.05,
        scan_fraction: 0.1,
        scan_span: 16,
        ..base.clone()
    }
}

/// Interleaved snapshot-read A/B on the read-heavy mix under NO_DELAY:
/// alternate validated/snapshot rounds on one config (seed varies per
/// round, shared within a round). Every round must end on the same heap
/// checksum in both read modes, and the snapshot arm is counter-verified:
/// its reads ride the MVCC fast path (`snapshot_reads > 0`) and never
/// abort (`read_aborts == 0`). A final pure-read run (no writers at all)
/// additionally asserts zero aborts and zero arbiter consultations — the
/// practical-wait-freedom claim of the read path, checked, not assumed.
fn snapshot_ab(base: &ServeConfig, shards: usize, rounds: u64) -> Json {
    let read_heavy = read_heavy_preset(base);
    let mut ops = [Vec::new(), Vec::new()]; // [validated, snapshot]
    let (mut snapshot_reads, mut restarts, mut misses) = (0u64, 0u64, 0u64);
    for round in 0..rounds {
        let mut checksums = [0u64; 2];
        for (arm, on) in [(0usize, false), (1usize, true)] {
            let cfg = ServeConfig {
                shards,
                snapshot_reads: on,
                seed: read_heavy.seed + round,
                ..read_heavy.clone()
            };
            let r = run_server(&cfg, NoDelay::requestor_wins());
            let m = r.stats.merged();
            assert_eq!(m.commits + m.sheds, cfg.total_requests());
            assert_eq!(r.reply_faults, 0, "misdelivered replies in snapshot A/B");
            if on {
                assert!(
                    m.snapshot_reads > 0,
                    "snapshot arm never took the fast path"
                );
                assert_eq!(m.read_aborts, 0, "snapshot reads must never abort");
            } else {
                assert_eq!(
                    m.snapshot_reads, 0,
                    "validated arm leaked onto the fast path"
                );
            }
            ops[arm].push(r.ops_per_sec());
            checksums[arm] = r.state_checksum;
            if on {
                snapshot_reads += m.snapshot_reads;
                restarts += m.snapshot_restarts;
                misses += m.chain_misses;
            }
        }
        assert_eq!(
            checksums[0], checksums[1],
            "read mode must not change the final heap (round {round})"
        );
    }
    // Pure-read run: with every request read-only, the snapshot path must
    // be wait-free in practice — no aborts, no arbiter, no heap writes.
    let pure = ServeConfig {
        shards,
        snapshot_reads: true,
        read_fraction: 1.0,
        rmw_fraction: 0.0,
        ..read_heavy.clone()
    };
    let pr = run_server(&pure, NoDelay::requestor_wins());
    let pm = pr.stats.merged();
    assert_eq!(pm.aborts, 0, "pure snapshot reads must never abort");
    assert_eq!(
        pm.arbiter_consults, 0,
        "snapshot reads must never consult the conflict arbiter"
    );
    assert_eq!(
        pm.read_aborts, 0,
        "pure snapshot reads must never read-abort"
    );
    assert_eq!(
        pr.state_sum, 0,
        "read-only requests must not write the heap"
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    Json::obj([
        ("policy", Json::from("NO_DELAY")),
        ("shards", Json::from(shards)),
        ("rounds", Json::from(rounds)),
        ("interleaved", Json::from(true)),
        ("ops_per_sec_snapshot_off", Json::from(mean(&ops[0]))),
        ("ops_per_sec_snapshot_on", Json::from(mean(&ops[1]))),
        ("snapshot_reads", Json::from(snapshot_reads)),
        ("snapshot_restarts", Json::from(restarts)),
        ("chain_misses", Json::from(misses)),
        ("read_aborts", Json::from(0u64)),
        ("pure_read_ops_per_sec", Json::from(pr.ops_per_sec())),
        ("pure_read_aborts", Json::from(pm.aborts)),
        (
            "pure_read_arbiter_consults",
            Json::from(pm.arbiter_consults),
        ),
        ("checksums_agree", Json::from(true)),
    ])
}

/// The `layout` section: geometry of the serve heap under the shard-major
/// SoA layout (padding overhead, line counts) plus a quick uncontended
/// read/commit ns/op probe on exactly that layout. `trend_check` tracks
/// these warn-only; the deep layout sweep lives in the `stm_hot` bin.
fn layout_section(base: &ServeConfig, shards: usize) -> Json {
    use tcp_core::conflict::ResolutionMode;
    use tcp_core::policy::NoDelay as StmNoDelay;
    use tcp_core::rng::Xoshiro256StarStar;
    use tcp_stm::prelude::{ShardLayout, Stm, TxCtx, PAIRS_PER_LINE};

    let words = base.keys as usize;
    let layout = ShardLayout::new(words, shards);
    let lines = layout.slots() / PAIRS_PER_LINE;
    let padding_pct = (layout.slots() - words) as f64 / words as f64 * 100.0;

    let stm = Stm::with_layout(words, 1, shards, ResolutionMode::RequestorWins);
    for k in 0..words {
        stm.write_direct(k, k as u64);
    }
    let mut ctx = TxCtx::new(
        &stm,
        0,
        StmNoDelay::requestor_wins(),
        Xoshiro256StarStar::new(base.seed),
    );
    let iters = 50_000u64;
    let time = |f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    let mut k = 0usize;
    let read_ns = time(&mut || {
        k = (k + 97) % words;
        let key = k;
        std::hint::black_box(ctx.run(|tx| tx.read(key)));
    });
    let mut k = 0usize;
    let commit_ns = time(&mut || {
        k = (k + 97) % words;
        let key = k;
        ctx.run(|tx| tx.write(key, key as u64));
    });
    assert_eq!(ctx.stats.aborts, 0, "uncontended layout probe aborted");
    Json::obj([
        ("shards", Json::from(shards)),
        ("words", Json::from(words)),
        ("slots", Json::from(layout.slots())),
        ("hot_lines", Json::from(lines)),
        ("pairs_per_line", Json::from(PAIRS_PER_LINE)),
        ("padding_overhead_pct", Json::from(padding_pct)),
        ("uncontended_read_ns", Json::from(read_ns)),
        ("uncontended_commit_ns", Json::from(commit_ns)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(2);
    });
    let quick = table::quick();
    let read_heavy = flags.flag("read-heavy");
    let trace_path = flags.get("trace").map(str::to_string);
    let read_fraction_override: Option<f64> = flags.get("read-fraction").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("serve: --read-fraction: cannot parse '{v}'");
            std::process::exit(2);
        })
    });
    let ops_per_client = if quick { 1_500 } else { 15_000 };
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let clients = 8;
    let mut base = ServeConfig {
        clients,
        ops_per_client,
        keys: 1024,
        zipf_s: 1.1,
        read_fraction: 0.5,
        rmw_fraction: 0.25,
        rmw_span: 4,
        think_ns: 500,
        // In-transaction compute widens the conflict window so the grace
        // policies actually arbitrate (on multicore hosts; a single-core
        // runner only overlaps at preemption boundaries).
        work_ns: 2_000,
        queue_capacity: 64,
        seed: 42,
        ..Default::default()
    };
    if read_heavy {
        base = read_heavy_preset(&base);
    }
    if let Some(f) = read_fraction_override {
        base.read_fraction = f;
    }
    base.validate();
    println!(
        "# serve: sharded KV, {clients} closed-loop clients x {ops_per_client} ops, \
         keys={}, zipf_s={}, read={}, rmw={}@{} keys, work={}ns, cap={}, batch={} \
         (latencies in ns; qw = queue wait, p = sojourn)",
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
        "policy", "shards", "commits", "aborts", "sheds", "ops/s", "qw50", "qw99", "p50", "p90",
        "p99", "p999",
    ]);
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let arms: Vec<(&str, Arc<dyn GracePolicy>)> = vec![
            ("NO_DELAY", Arc::new(NoDelay::requestor_wins())),
            ("DET", Arc::new(DetRw)),
            ("RRW", Arc::new(RandRw)),
        ];
        for (name, policy) in arms {
            let cfg = ServeConfig {
                shards,
                ..base.clone()
            };
            let r = run_server(&cfg, policy);
            let m = r.stats.merged();
            assert_eq!(
                m.commits + m.sheds,
                cfg.total_requests(),
                "lost requests under {name}"
            );
            assert_eq!(r.reply_faults, 0, "misdelivered replies under {name}");
            table::row(&[
                name.into(),
                shards.to_string(),
                m.commits.to_string(),
                m.aborts.to_string(),
                m.sheds.to_string(),
                table::num(r.ops_per_sec()),
                m.queue_wait_percentile(50.0).to_string(),
                m.queue_wait_percentile(99.0).to_string(),
                m.latency_percentile(50.0).to_string(),
                m.latency_percentile(90.0).to_string(),
                m.latency_percentile(99.0).to_string(),
                m.latency_percentile(99.9).to_string(),
            ]);
            rows.push(json_row(name, shards, &r));
        }
    }
    let config = Json::obj([
        ("mode", Json::from("closed")),
        ("quick", Json::from(quick)),
        ("clients", Json::from(clients)),
        ("ops_per_client", Json::from(ops_per_client)),
        ("keys", Json::from(base.keys)),
        ("zipf_s", Json::from(base.zipf_s)),
        ("read_fraction", Json::from(base.read_fraction)),
        ("rmw_fraction", Json::from(base.rmw_fraction)),
        ("rmw_span", Json::from(base.rmw_span)),
        ("scan_fraction", Json::from(base.scan_fraction)),
        ("scan_span", Json::from(base.scan_span)),
        ("snapshot_reads", Json::from(base.snapshot_reads)),
        ("think_ns", Json::from(base.think_ns)),
        ("work_ns", Json::from(base.work_ns)),
        ("queue_capacity", Json::from(base.queue_capacity)),
        ("batch_max", Json::from(base.batch_max)),
        ("seed", Json::from(base.seed)),
    ]);
    // The read-heavy preset swept under NO_DELAY — always included so the
    // committed report carries the row `trend_check` tracks even when the
    // main sweep ran another mix.
    let mut rh_rows = Vec::new();
    for &shards in shard_counts {
        let cfg = ServeConfig {
            shards,
            ..read_heavy_preset(&base)
        };
        let r = run_server(&cfg, NoDelay::requestor_wins());
        let m = r.stats.merged();
        assert_eq!(
            m.commits + m.sheds,
            cfg.total_requests(),
            "lost requests in the read-heavy sweep"
        );
        assert_eq!(
            r.reply_faults, 0,
            "misdelivered replies in the read-heavy sweep"
        );
        println!(
            "# read_heavy shards={shards}: {} ops/s, {} snapshot reads, {} restarts",
            table::num(r.ops_per_sec()),
            m.snapshot_reads,
            m.snapshot_restarts
        );
        rh_rows.push(json_row("NO_DELAY", shards, &r));
    }
    // Interleaved snapshot-on/off A/B on the read-heavy mix at the first
    // shard count: equal checksums per round, zero read-side aborts, zero
    // arbiter consultations on the pure-read run — counter-asserted.
    let snap_ab = snapshot_ab(&base, shard_counts[0], if quick { 3 } else { 5 });
    println!("# snapshot_ab: {}", snap_ab.render());
    // Interleaved tracing-on/off A/B at the first shard count, always
    // included so every committed report carries the measured overhead
    // of the enabled path (and re-asserts observer neutrality).
    let tr_ab = trace_ab(&base, shard_counts[0], if quick { 3 } else { 5 });
    println!("# trace_ab: {}", tr_ab.render());
    // Heap-layout geometry and uncontended hot-path probe at the first
    // shard count (after trace_ab so `trend_check`'s section markers for
    // the earlier slices stay where they were).
    let layout = layout_section(&base, shard_counts[0]);
    println!("# layout: {}", layout.render());
    // `--trace <path>`: one fully-traced run (first shard count, RRW —
    // the arm whose aborts are most interesting to attribute) exported
    // as a Perfetto/chrome://tracing file, with its summary and
    // per-interval rates folded into the report.
    let trace_sections = trace_path.map(|path| {
        let cfg = ServeConfig {
            shards: shard_counts[0],
            trace: TraceConfig {
                enabled: true,
                ..TraceConfig::default()
            },
            ..base.clone()
        };
        let r = run_server(&cfg, RandRw);
        let rep = r.trace.as_ref().expect("tracing was enabled");
        write_perfetto(&path, rep);
        println!(
            "# trace: {} events ({} dropped), {} hot-key slots -> {path}",
            rep.events.len(),
            rep.dropped_total(),
            rep.hot_key_slots()
        );
        (
            trace_summary_json(rep),
            timeseries_json(rep, cfg.stats_interval_ns.max(1_000_000)),
        )
    });
    let mut report = bench_report("serve", config, rows);
    if let Json::Obj(pairs) = &mut report {
        pairs.push((
            "read_heavy".into(),
            Json::obj([("rows", Json::arr(rh_rows))]),
        ));
        pairs.push(("snapshot_ab".into(), snap_ab));
        pairs.push(("trace_ab".into(), tr_ab));
        pairs.push(("layout".into(), layout));
        if let Some((summary, timeseries)) = trace_sections {
            pairs.push(("trace_summary".into(), summary));
            pairs.push(("timeseries".into(), timeseries));
        }
    }
    write_report("BENCH_serve.json", &report);
}
