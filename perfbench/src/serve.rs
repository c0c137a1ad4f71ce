//! The server workloads, driven through `run_server`.
//!
//! A measured run is a sequence of equal *chunks*: one complete
//! `run_server` call each, on its own seed drawn from the workload seed,
//! repeated until the run's time is used up. Threads are spawned afresh
//! per chunk, so where the scheduler places them is re-drawn too; the
//! end-to-end figures are medians over chunks, which is what keeps them
//! steady on a small shared host.

use std::time::{Duration, Instant};

use tcp_core::engine::{EngineStats, SeedFanout};
use tcp_core::hist::LatencyHistogram;
use tcp_core::randomized::RandRw;
use tcp_core::trace::TraceConfig;
use tcp_server::client::{draw_schedule, RequestGen};
use tcp_server::config::{LoadMode, ServeConfig};
use tcp_server::server::{run_server, ServeReport};

use crate::fold::fold;
use crate::gate::{check_serve, failed_requests};
use crate::metrics::{hist_percentile, median, peak_rss_mb, process_cpu_ns, quantile, Outcome};

/// One server workload: how to build its config and how big its runs are.
pub struct ServerWorkload {
    /// The config of a run with `ops_per_client` requests per client.
    pub config: fn(seed: u64, ops_per_client: u64) -> ServeConfig,
    /// Requests per client in one measured chunk.
    pub chunk_ops: u64,
    /// Requests per client in the traced run (and its untraced twin).
    pub traced_ops: u64,
}

/// 2 clients keeping 16 requests in flight each (an open loop offered far
/// above capacity), 2 shards, 1,024 Zipf-1.2 keys; half the requests are
/// 4-key cross-shard RMWs, the rest split Get/Add.
pub fn hot_saturated(seed: u64, ops_per_client: u64) -> ServeConfig {
    ServeConfig {
        shards: 2,
        clients: 2,
        ops_per_client,
        keys: 1024,
        zipf_s: 1.2,
        read_fraction: 0.5,
        rmw_fraction: 0.5,
        rmw_span: 4,
        work_ns: 0,
        mode: LoadMode::Open {
            rate_per_client: 1e9,
            window: 16,
        },
        seed,
        ..Default::default()
    }
}

/// 1 client sending a Poisson open loop at 100,000 req/s, 2 shards, 4,096
/// Zipf-0.9 keys; 5% RMWs, and of the rest 10% 16-key scans and 90% of
/// the remainder Gets.
pub fn paced_reads(seed: u64, ops_per_client: u64) -> ServeConfig {
    ServeConfig {
        shards: 2,
        clients: 1,
        ops_per_client,
        keys: 4096,
        zipf_s: 0.9,
        read_fraction: 0.9,
        rmw_fraction: 0.05,
        scan_fraction: 0.1,
        scan_span: 16,
        work_ns: 0,
        mode: LoadMode::Open {
            rate_per_client: 100_000.0,
            window: 64,
        },
        seed,
        ..Default::default()
    }
}

/// `hot_saturated`'s data and mix (1,024 Zipf-1.2 keys, half 4-key
/// cross-shard RMWs, the rest Get/Add) offered as `paced_reads` offers its
/// load: 1 client, Poisson open loop at 100,000 req/s, 2 shards. The
/// write-heavy counterpart of `paced_reads`: every other request commits
/// through TL2 instead of reading a snapshot.
pub fn paced_rmw(seed: u64, ops_per_client: u64) -> ServeConfig {
    ServeConfig {
        clients: 1,
        mode: LoadMode::Open {
            rate_per_client: 100_000.0,
            window: 64,
        },
        ..hot_saturated(seed, ops_per_client)
    }
}

pub const HOT_SATURATED: ServerWorkload = ServerWorkload {
    config: hot_saturated,
    chunk_ops: 300_000,
    traced_ops: 25_000,
};

pub const PACED_READS: ServerWorkload = ServerWorkload {
    config: paced_reads,
    chunk_ops: 50_000,
    traced_ops: 50_000,
};

pub const PACED_RMW: ServerWorkload = ServerWorkload {
    config: paced_rmw,
    chunk_ops: 50_000,
    traced_ops: 50_000,
};

/// Set-up runs (one request per client each) made before every chunk, so
/// that the reported median samples the whole run, not one moment of it.
const SETUP_RUNS_PER_CHUNK: usize = 5;
/// A measured run has at least this many chunks, however short `seconds`.
const MIN_CHUNKS: usize = 3;
/// Trace ring slots per request issued, per shard: an executor emits at
/// most ~6 events per request without aborts, so this leaves headroom for
/// every request's events landing on one ring.
const TRACE_SLOTS_PER_REQUEST: u64 = 8;
/// Tolerance of median queue wait + median service against the median
/// sojourn: the medians of two parts need not add up to the median of
/// their sum, and the histogram buckets are ~3% wide.
const SOJOURN_TOLERANCE: f64 = 0.15;

/// The seed of chunk `i` of a run seeded `seed` (SplitMix64 finaliser, so
/// neighbouring seeds give unrelated chunks).
pub fn chunk_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One measured chunk.
struct Chunk {
    report: ServeReport,
    issued: u64,
    cpu_ns: u64,
    /// How far the run's wall time overran the latest scheduled arrival,
    /// as a share of that schedule (only computed for traced invocations).
    lag_pct: f64,
}

/// Run a server workload for `seconds` and measure it; with `traced`,
/// also make the traced run and report the per-layer metrics.
pub fn run(w: &ServerWorkload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup: Vec<f64> = Vec::new();

    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut peak_rss = 0.0;
    while chunks.len() < MIN_CHUNKS || t0.elapsed() < budget {
        for _ in 0..SETUP_RUNS_PER_CHUNK {
            let setup_seed = chunk_seed(!seed, setup.len() as u64);
            setup.push(setup_run(w, setup_seed, &mut out.errors));
        }
        let cfg = (w.config)(chunk_seed(seed, chunks.len() as u64), w.chunk_ops);
        let cpu0 = process_cpu_ns();
        let report = run_server(&cfg, RandRw);
        let cpu_ns = process_cpu_ns() - cpu0;
        let issued = cfg.total_requests();
        out.errors.extend(check_serve(&report, issued));
        let lag_pct = if traced {
            schedule_lag_pct(&cfg, report.wall_ns)
        } else {
            0.0
        };
        let merged = report.stats.merged();
        let sojourn = &merged.latency_hist;
        eprintln!(
            "chunk {}: {:.0} ops/s, sojourn p50 {:.2} us p95 {:.2} us p99 {:.2} us, {} shed",
            chunks.len(),
            report.ops_per_sec(),
            hist_percentile(sojourn, 50.0) / 1e3,
            hist_percentile(sojourn, 95.0) / 1e3,
            hist_percentile(sojourn, 99.0) / 1e3,
            report.stats.sheds()
        );
        chunks.push(Chunk {
            report,
            issued,
            cpu_ns,
            lag_pct,
        });
        if chunks.len() == 1 {
            // Taken after the first chunk: later chunks reuse freed
            // allocator arenas more or less fully from run to run.
            peak_rss = peak_rss_mb();
        }
    }
    out.runs = chunks.len();
    out.attempted = chunks.iter().map(|c| c.issued).sum();
    out.failed = chunks
        .iter()
        .map(|c| failed_requests(&c.report, c.issued))
        .sum();

    let per_chunk =
        |f: &dyn Fn(&Chunk) -> f64| median(&mut chunks.iter().map(f).collect::<Vec<_>>());
    // Percentile `p` of one of a chunk's histograms, in µs.
    let pct = |p: f64, hist: fn(&EngineStats) -> &LatencyHistogram| {
        move |c: &Chunk| hist_percentile(hist(&c.report.stats.merged()), p) / 1e3
    };
    let sojourn = |p: f64| pct(p, |s| &s.latency_hist);
    let m = &mut out.metrics;
    m.set("ops_s", per_chunk(&|c| c.report.ops_per_sec()));
    // The upper quartile over chunks, not the median: on a shared host a
    // share of chunks, varying from run to run, runs while the vCPUs are
    // uncontended and reads up to 2x faster. The median over chunks jumps
    // with that share; the upper quartile stays with the common case.
    m.set(
        "p50_us",
        quantile(
            &mut chunks.iter().map(sojourn(50.0)).collect::<Vec<_>>(),
            0.75,
        ),
    );
    m.set(
        "ok_pct",
        100.0 * (out.attempted - out.failed) as f64 / out.attempted as f64,
    );
    m.set(
        "cpu_us_per_op",
        per_chunk(&|c| c.cpu_ns as f64 / 1e3 / c.report.stats.commits().max(1) as f64),
    );
    m.set("peak_rss_mb", peak_rss);
    m.set("setup_s", median(&mut setup));
    if !traced {
        return out;
    }

    // Per-layer counters, from every chunk's report.
    let sum =
        |f: &dyn Fn(&ServeReport) -> u64| chunks.iter().map(|c| f(&c.report)).sum::<u64>() as f64;
    let commits = sum(&|r| r.stats.commits()).max(1.0);
    let ok_pct = m.get("ok_pct").unwrap_or(0.0);
    m.set("client.fail_pct", 100.0 - ok_pct);
    m.set("executor.sojourn_p95_us", per_chunk(&sojourn(95.0)));
    m.set("executor.sojourn_p99_us", per_chunk(&sojourn(99.0)));
    m.set("client.lag_pct", per_chunk(&|c| c.lag_pct));
    m.set("router.capacity_sheds", sum(&|r| r.stats.capacity_sheds()));
    m.set("router.slo_sheds", sum(&|r| r.stats.slo_sheds()));
    m.set("router.invalid_sheds", sum(&|r| r.stats.invalid_sheds()));
    m.set(
        "queue.wait_p50_us",
        per_chunk(&pct(50.0, |s| &s.queue_wait_hist)),
    );
    m.set(
        "queue.wait_p99_us",
        per_chunk(&pct(99.0, |s| &s.queue_wait_hist)),
    );
    m.set(
        "queue.depth_max",
        per_chunk(&|c| c.report.stats.merged().queue_depth_max as f64),
    );
    m.set(
        "executor.service_p50_us",
        per_chunk(&pct(50.0, |s| &s.service_hist)),
    );
    m.set(
        "executor.service_p99_us",
        per_chunk(&pct(99.0, |s| &s.service_hist)),
    );
    m.set("executor.steal_share", sum(&|r| r.stats.steals()) / commits);
    m.set(
        "executor.idle_parks_per_kop",
        1e3 * sum(&|r| r.stats.per_thread.iter().map(|s| s.idle_parks).sum()) / commits,
    );
    m.set(
        "stm.attempts_per_commit",
        (commits + sum(&|r| r.stats.aborts())) / commits,
    );
    m.set(
        "stm.clock_bumps_per_commit",
        sum(&|r| r.clock_bumps) / commits,
    );
    m.set(
        "stm.snapshot_share",
        sum(&|r| r.stats.snapshot_reads()) / commits,
    );
    m.set(
        "stm.snapshot_restarts",
        sum(&|r| r.stats.snapshot_restarts()),
    );
    m.set(
        "engine.arbiter_consults_per_kop",
        1e3 * sum(&|r| r.stats.arbiter_consults()) / commits,
    );
    // Grace waits are recorded in ns; ns per request = µs per 1,000.
    m.set(
        "engine.grace_wait_us_per_kop",
        sum(&|r| r.stats.wait_cycles()) / commits,
    );

    traced_run(w, seed, &mut out);
    out
}

/// The wall time of `run_server` at the workload's config with one
/// request per client: heap allocation, ring and executor start-up, join.
fn setup_run(w: &ServerWorkload, seed: u64, errors: &mut Vec<String>) -> f64 {
    let cfg = (w.config)(seed, 1);
    let t = Instant::now();
    let r = run_server(&cfg, RandRw);
    let dt = t.elapsed().as_secs_f64();
    errors.extend(check_serve(&r, cfg.total_requests()));
    dt
}

/// How late the run ended against its arrival schedule, in percent of
/// the schedule's span. The schedules are re-drawn here exactly as the
/// clients drew them: `run_server` fans the seed out to the shards first,
/// then to the clients.
fn schedule_lag_pct(cfg: &ServeConfig, wall_ns: u64) -> f64 {
    let LoadMode::Open {
        rate_per_client, ..
    } = cfg.mode
    else {
        return 0.0;
    };
    let gen = RequestGen::from_config(cfg);
    let mut fan = SeedFanout::new(cfg.seed);
    for _ in 0..cfg.shards {
        fan.stream();
    }
    let span = (0..cfg.clients)
        .map(|_| {
            let mut rng = fan.stream();
            let schedule = draw_schedule(&gen, cfg.ops_per_client, rate_per_client, &mut rng);
            schedule.last().map_or(0, |a| a.1)
        })
        .max()
        .unwrap_or(0)
        .max(1);
    100.0 * (wall_ns as f64 - span as f64) / span as f64
}

/// One untraced and one traced run of the same config and seed: the
/// per-layer spans, tracing's overhead, and the fold's reconciliation.
fn traced_run(w: &ServerWorkload, seed: u64, out: &mut Outcome) {
    let mut cfg = (w.config)(chunk_seed(seed, u64::MAX), w.traced_ops);
    let issued = cfg.total_requests();
    let plain = run_server(&cfg, RandRw);
    out.errors.extend(check_serve(&plain, issued));
    cfg.trace = TraceConfig {
        enabled: true,
        ring_capacity: (TRACE_SLOTS_PER_REQUEST * issued).next_power_of_two() as usize,
    };
    let traced = run_server(&cfg, RandRw);
    out.errors.extend(check_serve(&traced, issued));
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.ops_per_sec() / plain.ops_per_sec()),
    );
    m.set("trace.dropped", traced.trace_dropped as f64);
    if traced.trace_dropped != 0 {
        out.errors
            .push(format!("the trace dropped {} events", traced.trace_dropped));
    }
    let report = traced.trace.as_ref().expect("tracing was enabled");
    let mut f = match fold(&report.events, cfg.shards) {
        Ok(f) => f,
        Err(e) => {
            out.errors.push(format!("trace fold: {e}"));
            Default::default()
        }
    };
    if let Err(e) = f.reconcile() {
        out.errors.push(format!("trace fold: {e}"));
    }
    // Median queue wait + median service against the median sojourn.
    let parts = median(&mut f.queue_wait) + median(&mut f.service);
    let sojourn = hist_percentile(&traced.stats.merged().latency_hist, 50.0);
    if (parts - sojourn).abs() > SOJOURN_TOLERANCE * sojourn {
        out.errors.push(format!(
            "median queue wait + service = {parts:.0} ns, median sojourn = {sojourn:.0} ns"
        ));
    }
    m.set("trace.unreconciled_pct", f.unreconciled_pct());
    m.set("executor.batch_mean", f.batch_mean());
    m.set("executor.execute_ns", median(&mut f.execute));
    m.set("executor.reply_ns", median(&mut f.reply));
    m.set("stm.acquire_ns", median(&mut f.acquire));
    m.set("stm.validate_ns", median(&mut f.validate));
    m.set("stm.publish_ns", median(&mut f.publish));
    m.set("stm.rw_tx_ns", median(&mut f.rw_tx));
    m.set("stm.snapshot_tx_ns", median(&mut f.snapshot_tx));
}
