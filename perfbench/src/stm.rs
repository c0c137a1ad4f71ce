//! `stm_direct`: one thread driving the STM through `TxCtx::run` and
//! `TxCtx::run_snapshot`, with no server layer in the way.
//!
//! A transaction takes ~100 ns, close to what one clock read can resolve,
//! so time is only ever read around *blocks* of transactions. Keys are
//! drawn before a block starts and results are checked after it ends,
//! against a plain shadow copy of the heap: the thread is alone, so every
//! snapshot scan must equal the words it covered at that point, and every
//! RMW must return the incremented values.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcp_core::conflict::Conflict;
use tcp_core::engine::SeedFanout;
use tcp_core::policy::GracePolicy;
use tcp_core::randomized::RandRw;
use tcp_core::rng::{uniform_u64_below, Xoshiro256StarStar};
use tcp_core::trace::{Trace, TraceConfig, TraceKind};
use tcp_stm::runtime::{Stm, TxCtx};

use crate::fold::fold;
use crate::metrics::{median, peak_rss_mb, process_cpu_ns, quantile, Outcome};

/// Heap words, and shards/threads of its layout — as `run_server` builds
/// the heap for 2 shards.
pub const KEYS: usize = 4096;
const SHARDS: usize = 2;
/// Words one RMW increments and one snapshot scan sums.
const RMW_SPAN: usize = 4;
const SCAN_SPAN: usize = 16;
/// RMW + scan pairs per timed block (512 transactions, ~50 µs).
const BLOCK: usize = 256;
/// A measured run is split into rounds this long; `ops_s` is the median
/// of the rounds'.
const ROUND: Duration = Duration::from_millis(500);
const MIN_ROUNDS: usize = 3;
/// Heaps built and seeded before every round, for the `setup_s` median
/// (spread over the run so that it samples the whole run).
const SETUP_RUNS_PER_ROUND: usize = 5;
/// Blocks in each per-layer phase (rw-only/scan-only timing, tracing).
const LAYER_BLOCKS: usize = 200;

/// The heap's initial contents: small random words, so the sums the
/// checks compare are not all zero.
fn build_heap(rng: &mut Xoshiro256StarStar) -> Stm {
    let stm = Stm::with_layout(KEYS, SHARDS, SHARDS, RandRw.mode(&Conflict::pair(1000.0)));
    for a in 0..KEYS {
        stm.write_direct(a, uniform_u64_below(rng, 1000));
    }
    stm
}

/// The wall time of building and seeding the heap (the same heap each
/// time: `rng` is cloned, not advanced).
fn setup_run(rng: &Xoshiro256StarStar) -> f64 {
    let mut rng = rng.clone();
    let t = Instant::now();
    let stm = build_heap(&mut rng);
    let dt = t.elapsed().as_secs_f64();
    std::hint::black_box(&stm);
    dt
}

/// One block's inputs and outputs, reused across blocks.
struct Block {
    keys: Vec<[usize; RMW_SPAN]>,
    starts: Vec<usize>,
    rw_out: Vec<u64>,
    scan_out: Vec<u64>,
}

impl Block {
    fn new() -> Self {
        Self {
            keys: vec![[0; RMW_SPAN]; BLOCK],
            starts: vec![0; BLOCK],
            rw_out: vec![0; BLOCK],
            scan_out: vec![0; BLOCK],
        }
    }

    /// Uniform keys for the next block.
    fn draw(&mut self, rng: &mut Xoshiro256StarStar) {
        for ks in &mut self.keys {
            for k in ks.iter_mut() {
                *k = uniform_u64_below(rng, KEYS as u64) as usize;
            }
        }
        for s in &mut self.starts {
            *s = uniform_u64_below(rng, (KEYS - SCAN_SPAN + 1) as u64) as usize;
        }
    }
}

fn rmw<P: GracePolicy>(ctx: &mut TxCtx<'_, P>, keys: &[usize; RMW_SPAN]) -> u64 {
    ctx.run(|tx| {
        let mut sum = 0u64;
        for &k in keys {
            sum = sum.wrapping_add(tx.write_add(k, 1)?);
        }
        Ok(sum)
    })
}

fn scan<P: GracePolicy>(ctx: &mut TxCtx<'_, P>, start: usize) -> u64 {
    ctx.run_snapshot(|s| {
        let mut sum = 0u64;
        for a in start..start + SCAN_SPAN {
            sum = sum.wrapping_add(s.read(a)?);
        }
        Ok(sum)
    })
}

/// The heap as the benchmark believes it to be, and the violations found.
struct Shadow {
    words: Vec<u64>,
    increments: u64,
    errors: Vec<String>,
}

impl Shadow {
    fn rmw(&mut self, keys: &[usize; RMW_SPAN], got: u64) {
        let mut want = 0u64;
        for &k in keys {
            self.words[k] += 1;
            want = want.wrapping_add(self.words[k]);
        }
        self.increments += RMW_SPAN as u64;
        if got != want {
            self.fail(format!("RMW on {keys:?} returned {got}, expected {want}"));
        }
    }

    fn scan(&mut self, start: usize, got: u64) {
        let want: u64 = self.words[start..start + SCAN_SPAN].iter().sum();
        if got != want {
            self.fail(format!("scan at {start} summed {got}, expected {want}"));
        }
    }

    /// Compare every word against a non-transactional read of the heap.
    fn check_heap(&mut self, stm: &Stm) {
        if let Some(a) = (0..KEYS).find(|&a| stm.read_direct(a) != self.words[a]) {
            let got = stm.read_direct(a);
            self.fail(format!("word {a} reads {got}, expected {}", self.words[a]));
        }
    }

    fn fail(&mut self, e: String) {
        // The first few violations say enough.
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Run `stm_direct` for `seconds`; with `traced`, add the per-layer
/// phases: rw-only and scan-only blocks, then a traced run.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut fan = SeedFanout::new(seed);
    let (mut heap_rng, ctx_rng, mut key_rng) = (fan.stream(), fan.stream(), fan.stream());

    let stm = build_heap(&mut heap_rng);
    let initial: u64 = stm.snapshot_direct().iter().sum();
    let mut shadow = Shadow {
        words: stm.snapshot_direct(),
        increments: 0,
        errors: Vec::new(),
    };
    let mut ctx = TxCtx::new(&stm, 0, RandRw, ctx_rng);
    let mut block = Block::new();

    // Measured rounds of alternating RMW / scan pairs.
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let (mut round_ops, mut round_p50) = (Vec::new(), Vec::new());
    let (mut txs, mut cpu_ns) = (0u64, 0u64);
    let mut setup = Vec::new();
    while round_ops.len() < MIN_ROUNDS || t0.elapsed() < budget {
        for _ in 0..SETUP_RUNS_PER_ROUND {
            setup.push(setup_run(&heap_rng));
        }
        let (round_start, mut timed_ns, mut round_txs) = (Instant::now(), 0u64, 0u64);
        let mut per_tx_ns = Vec::new();
        while round_start.elapsed() < ROUND {
            block.draw(&mut key_rng);
            let cpu0 = process_cpu_ns();
            let t = Instant::now();
            for i in 0..BLOCK {
                block.rw_out[i] = rmw(&mut ctx, &block.keys[i]);
                block.scan_out[i] = scan(&mut ctx, block.starts[i]);
            }
            let ns = t.elapsed().as_nanos() as u64;
            cpu_ns += process_cpu_ns() - cpu0;
            for i in 0..BLOCK {
                shadow.rmw(&block.keys[i], block.rw_out[i]);
                shadow.scan(block.starts[i], block.scan_out[i]);
            }
            per_tx_ns.push(ns as f64 / (2 * BLOCK) as f64);
            timed_ns += ns;
            round_txs += 2 * BLOCK as u64;
        }
        shadow.check_heap(&stm);
        let ops = round_txs as f64 / (timed_ns as f64 / 1e9);
        let (p50, p95) = (
            quantile(&mut per_tx_ns, 0.5),
            quantile(&mut per_tx_ns, 0.95),
        );
        eprintln!(
            "round {}: {ops:.0} tx/s, per-tx block time p50 {p50:.1} ns p95 {p95:.1} ns",
            round_ops.len()
        );
        round_ops.push(ops);
        round_p50.push(p50 / 1e3);
        txs += round_txs;
    }
    let peak_rss = peak_rss_mb();
    out.runs = round_ops.len();
    out.attempted = txs;
    let m = &mut out.metrics;
    m.set("ops_s", median(&mut round_ops));
    m.set("p50_us", median(&mut round_p50));
    m.set("ok_pct", 100.0);
    m.set("cpu_us_per_op", cpu_ns as f64 / 1e3 / txs as f64);
    m.set("peak_rss_mb", peak_rss);
    m.set("setup_s", median(&mut setup));

    if traced {
        layer_phases(
            &stm,
            &mut ctx,
            &mut block,
            &mut key_rng,
            &mut shadow,
            &mut out,
        );
    }

    if ctx.stats.commits != shadow.increments / RMW_SPAN as u64 * 2 {
        shadow.fail(format!(
            "{} commits for {} transactions",
            ctx.stats.commits,
            shadow.increments / RMW_SPAN as u64 * 2
        ));
    }
    let total: u64 = stm.snapshot_direct().iter().sum();
    if total != initial + shadow.increments {
        shadow.fail(format!(
            "heap sums to {total}, expected {initial} + {} increments",
            shadow.increments
        ));
    }
    out.errors.append(&mut shadow.errors);
    out
}

/// The per-layer phases: batch-timed RMW-only and scan-only blocks, the
/// run's STM counters, and a traced run whose events the benchmark
/// brackets itself (Pop per block, Done per transaction, as an executor
/// does), so the server workloads' fold applies unchanged.
fn layer_phases(
    stm: &Stm,
    ctx: &mut TxCtx<'_, RandRw>,
    block: &mut Block,
    key_rng: &mut Xoshiro256StarStar,
    shadow: &mut Shadow,
    out: &mut Outcome,
) {
    let (mut rw_ns, mut scan_ns) = (Vec::new(), Vec::new());
    for _ in 0..LAYER_BLOCKS {
        block.draw(key_rng);
        let t = Instant::now();
        for i in 0..BLOCK {
            block.rw_out[i] = rmw(ctx, &block.keys[i]);
        }
        rw_ns.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
        let t = Instant::now();
        for i in 0..BLOCK {
            block.scan_out[i] = scan(ctx, block.starts[i]);
        }
        scan_ns.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
        for i in 0..BLOCK {
            shadow.rmw(&block.keys[i], block.rw_out[i]);
        }
        for i in 0..BLOCK {
            shadow.scan(block.starts[i], block.scan_out[i]);
        }
    }
    shadow.check_heap(stm);

    let s = &ctx.stats;
    let commits = s.commits.max(1) as f64;
    let m = &mut out.metrics;
    m.set("stm.rw_tx_ns", median(&mut rw_ns));
    m.set("stm.snapshot_tx_ns", median(&mut scan_ns));
    m.set(
        "stm.attempts_per_commit",
        (s.commits + s.aborts) as f64 / commits,
    );
    m.set(
        "stm.clock_bumps_per_commit",
        stm.clock_value() as f64 / commits,
    );
    m.set("stm.snapshot_share", s.snapshot_reads as f64 / commits);
    m.set("stm.snapshot_restarts", s.snapshot_restarts as f64);
    m.set(
        "engine.arbiter_consults_per_kop",
        1e3 * s.arbiter_consults as f64 / commits,
    );
    m.set(
        "engine.grace_wait_us_per_kop",
        s.wait_cycles as f64 / commits,
    );
    // No client, router, queue or server executor runs here.
    for name in [
        "client.fail_pct",
        "client.lag_pct",
        "router.capacity_sheds",
        "router.slo_sheds",
        "router.invalid_sheds",
        "queue.wait_p50_us",
        "queue.wait_p99_us",
        "queue.depth_max",
        "executor.service_p50_us",
        "executor.service_p99_us",
        "executor.sojourn_p95_us",
        "executor.sojourn_p99_us",
        "executor.steal_share",
        "executor.idle_parks_per_kop",
    ] {
        m.set(name, 0.0);
    }

    // Untraced and traced blocks, timed alike.
    let untraced_ops = timed_blocks(ctx, block, key_rng, shadow, false);
    let events_per_block = 6 * BLOCK + 1;
    let trace = Arc::new(Trace::new(
        1,
        &TraceConfig {
            enabled: true,
            ring_capacity: (LAYER_BLOCKS * events_per_block).next_power_of_two(),
        },
    ));
    ctx.set_trace(Arc::clone(&trace));
    let traced_ops = timed_blocks(ctx, block, key_rng, shadow, true);
    shadow.check_heap(stm);
    let report = trace.finish();
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_ops / untraced_ops),
    );
    m.set("trace.dropped", report.dropped_total() as f64);
    if report.dropped_total() != 0 {
        out.errors.push(format!(
            "the trace dropped {} events",
            report.dropped_total()
        ));
    }
    let mut f = match fold(&report.events, 1) {
        Ok(f) => f,
        Err(e) => {
            out.errors.push(format!("trace fold: {e}"));
            Default::default()
        }
    };
    if let Err(e) = f.reconcile() {
        out.errors.push(format!("trace fold: {e}"));
    }
    m.set("trace.unreconciled_pct", f.unreconciled_pct());
    m.set("executor.batch_mean", f.batch_mean());
    m.set("executor.execute_ns", median(&mut f.execute));
    m.set("executor.reply_ns", median(&mut f.reply));
    m.set("stm.acquire_ns", median(&mut f.acquire));
    m.set("stm.validate_ns", median(&mut f.validate));
    m.set("stm.publish_ns", median(&mut f.publish));
}

/// `LAYER_BLOCKS` blocks of RMW / scan pairs, each transaction bracketed
/// by an `Instant` read and — with `emit` — a `Done` event carrying its
/// service time. Returns transactions per second of block time.
fn timed_blocks(
    ctx: &mut TxCtx<'_, RandRw>,
    block: &mut Block,
    key_rng: &mut Xoshiro256StarStar,
    shadow: &mut Shadow,
    emit: bool,
) -> f64 {
    let mut timed_ns = 0u64;
    for _ in 0..LAYER_BLOCKS {
        block.draw(key_rng);
        let t = Instant::now();
        if emit {
            ctx.set_trace_tag(0, 0);
            ctx.trace_event(TraceKind::Pop, 2 * BLOCK as u64, 0);
        }
        let mut start = Instant::now();
        let mut done = |ctx: &mut TxCtx<'_, RandRw>| {
            let now = Instant::now();
            if emit {
                let service = now.saturating_duration_since(start).as_nanos() as u64;
                ctx.trace_event(TraceKind::Done, 0, service);
            }
            start = now;
        };
        for i in 0..BLOCK {
            ctx.set_trace_tag(2 * i as u64 + 1, block.keys[i][0] as u64);
            block.rw_out[i] = rmw(ctx, &block.keys[i]);
            done(ctx);
            ctx.set_trace_tag(2 * i as u64 + 2, block.starts[i] as u64);
            block.scan_out[i] = scan(ctx, block.starts[i]);
            done(ctx);
        }
        timed_ns += t.elapsed().as_nanos() as u64;
        for i in 0..BLOCK {
            shadow.rmw(&block.keys[i], block.rw_out[i]);
            shadow.scan(block.starts[i], block.scan_out[i]);
        }
    }
    (LAYER_BLOCKS * 2 * BLOCK) as f64 / (timed_ns as f64 / 1e9)
}
