//! Service configuration: shard/client topology, workload shape, the load
//! model (closed vs open loop), and the admission-control knob.

use tcp_core::trace::TraceConfig;

/// How the client fleet offers load.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum LoadMode {
    /// Closed loop: each client keeps exactly one request outstanding and
    /// thinks `think_ns` between response and next request. Offered load
    /// self-clocks to service capacity, so queueing delay never builds —
    /// the mode for measuring peak throughput.
    #[default]
    Closed,
    /// Open loop: each client submits on a deterministic seeded Poisson
    /// arrival schedule at `rate_per_client` requests/second, regardless of
    /// completions, with at most `window` requests outstanding (the
    /// schedule stalls on the oldest outstanding request when the window
    /// is full). Offered load is independent of service rate, so queueing
    /// delay — the quantity grace policies move at the tail — is actually
    /// offered and measured.
    Open {
        /// Offered arrival rate per client, requests per second.
        rate_per_client: f64,
        /// Maximum outstanding requests per client.
        window: usize,
    },
}

/// Everything a serving run needs, reproducible from one `seed`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shard (worker thread) count; keys partition across shards by
    /// `key % shards`.
    pub shards: usize,
    /// Client thread count (one outstanding request each in closed loop,
    /// up to `window` in open loop).
    pub clients: usize,
    /// Requests each client issues before the run ends.
    pub ops_per_client: u64,
    /// Key-space size (= words in the shared STM heap).
    pub keys: u64,
    /// Zipf skew exponent for key selection; `0.0` = uniform.
    pub zipf_s: f64,
    /// Fraction of non-RMW requests that are reads (`Get` vs `Add`).
    pub read_fraction: f64,
    /// Fraction of all requests that are multi-key RMW transactions.
    pub rmw_fraction: f64,
    /// Keys touched by one RMW transaction (may span shards).
    pub rmw_span: usize,
    /// Fraction of non-RMW requests that are multi-key read-only scans
    /// (`GetRange`/`GetMany`, drawn 50/50), carved out *before* the
    /// Get/Add split. `0.0` (default) keeps the classic single-key mix.
    pub scan_fraction: f64,
    /// Keys covered by one scan request.
    pub scan_span: usize,
    /// Serve read-only requests through the MVCC snapshot fast path (no
    /// locks, no validation, no arbiter); off routes them through the
    /// classic validated TL2 read path. On by default — the validated
    /// path remains as the A/B baseline.
    pub snapshot_reads: bool,
    /// Closed-loop think time between requests, in nanoseconds (spin).
    /// Ignored in open-loop mode, where the arrival schedule paces clients.
    pub think_ns: u64,
    /// Per-request compute performed *inside* the transaction (between the
    /// reads and the writes), in nanoseconds — the service analogue of the
    /// paper's transaction length µ. Longer transactions widen the window
    /// in which concurrent committers conflict, so this knob controls how
    /// hard the serving path exercises the grace policies.
    pub work_ns: u64,
    /// Bounded per-shard queue capacity — the backpressure knob. A full
    /// queue sheds incoming requests (counted in `EngineStats::sheds`).
    pub queue_capacity: usize,
    /// Load model: closed loop (default) or open loop with a seeded
    /// arrival schedule.
    pub mode: LoadMode,
    /// Most envelopes a shard executor pops per batch. Batching amortizes
    /// the queue's wakeup handshake and the timestamp read across
    /// requests; `1` degenerates to the old one-at-a-time worker loop.
    pub batch_max: usize,
    /// Work stealing: an executor whose own ring is empty claims batches
    /// from sibling rings through the steal-safe consumer protocol, so
    /// Zipf-hot shards spill onto idle siblings instead of queueing.
    /// Stolen transactions run on the stealer's STM context; the conflicts
    /// that can introduce stay governed by the grace policy. Disable for
    /// strictly partitioned execution (exact per-shard stats
    /// determinism).
    pub steal: bool,
    /// Adaptive steal enable: only attempt a steal when the deepest
    /// sibling ring holds at least this many envelopes. `0` (default)
    /// scans on every idle pass — the original behavior; a small
    /// threshold (e.g. `2 × batch_max`) skips speculative claim traffic
    /// when siblings are barely backlogged, recovering part of the
    /// steal-on cost measured on small hosts.
    pub steal_min_depth: usize,
    /// Queue-wait SLO for adaptive admission, microseconds; `0` keeps the
    /// fixed shed-on-full-only behavior. When set, a shard sheds while its
    /// windowed p99 queue wait exceeds the SLO (with hysteresis — see
    /// `Router::with_slo_us`), converting queueing time into cheap early
    /// rejections at overload.
    pub slo_us: u64,
    /// Width of one per-interval throughput sample in nanoseconds;
    /// `0` disables interval sampling.
    pub stats_interval_ns: u64,
    /// Lifecycle tracing (per-shard event rings, conflict attribution,
    /// hot-key heatmaps). Disabled by default: every emission point in
    /// the router, executors, and STM stays a single never-taken branch.
    pub trace: TraceConfig,
    /// Master seed fanned out to every shard worker and client.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            clients: 8,
            ops_per_client: 10_000,
            keys: 4096,
            zipf_s: 0.9,
            read_fraction: 0.6,
            rmw_fraction: 0.1,
            rmw_span: 3,
            scan_fraction: 0.0,
            scan_span: 8,
            snapshot_reads: true,
            think_ns: 500,
            work_ns: 0,
            queue_capacity: 64,
            mode: LoadMode::Closed,
            batch_max: 16,
            steal: true,
            steal_min_depth: 0,
            slo_us: 0,
            stats_interval_ns: 10_000_000,
            trace: TraceConfig::default(),
            seed: 42,
        }
    }
}

impl ServeConfig {
    /// Panic on nonsensical configurations (caught at run start, not deep
    /// inside a worker).
    pub fn validate(&self) {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.clients >= 1, "need at least one client");
        assert!(self.keys >= self.shards as u64, "every shard needs a key");
        assert!(
            (0.0..=1.0).contains(&self.read_fraction)
                && (0.0..=1.0).contains(&self.rmw_fraction)
                && (0.0..=1.0).contains(&self.scan_fraction),
            "fractions must lie in [0, 1]"
        );
        assert!(self.zipf_s >= 0.0, "zipf exponent must be non-negative");
        assert!(
            (1..=self.keys as usize).contains(&self.rmw_span),
            "rmw_span must be in 1..=keys"
        );
        assert!(
            (1..=self.keys as usize).contains(&self.scan_span),
            "scan_span must be in 1..=keys"
        );
        assert!(self.queue_capacity >= 1, "queue capacity must be positive");
        assert!(self.batch_max >= 1, "batch_max must be positive");
        if let LoadMode::Open {
            rate_per_client,
            window,
        } = self.mode
        {
            assert!(
                rate_per_client.is_finite() && rate_per_client > 0.0,
                "open-loop rate must be a positive finite rate"
            );
            assert!(window >= 1, "open-loop window must admit one request");
        }
    }

    /// Total requests the client fleet issues.
    pub fn total_requests(&self) -> u64 {
        self.clients as u64 * self.ops_per_client
    }

    /// Total offered arrival rate in requests/second (open loop only;
    /// `None` for closed loop, where the rate self-clocks).
    pub fn offered_rate(&self) -> Option<f64> {
        match self.mode {
            LoadMode::Closed => None,
            LoadMode::Open {
                rate_per_client, ..
            } => Some(rate_per_client * self.clients as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_rejected() {
        ServeConfig {
            queue_capacity: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "batch_max")]
    fn zero_batch_rejected() {
        ServeConfig {
            batch_max: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "open-loop rate")]
    fn non_positive_open_rate_rejected() {
        ServeConfig {
            mode: LoadMode::Open {
                rate_per_client: 0.0,
                window: 4,
            },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "open-loop window")]
    fn zero_window_rejected() {
        ServeConfig {
            mode: LoadMode::Open {
                rate_per_client: 1e4,
                window: 0,
            },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn default_config_steals_without_slo() {
        let cfg = ServeConfig::default();
        assert!(cfg.steal, "work stealing is the default serving behavior");
        assert_eq!(cfg.slo_us, 0, "adaptive admission is opt-in");
        assert_eq!(cfg.steal_min_depth, 0, "steal gating is opt-in");
        assert!(cfg.snapshot_reads, "MVCC snapshot reads are the default");
        assert_eq!(cfg.scan_fraction, 0.0, "scans are opt-in");
        assert!(!cfg.trace.enabled, "lifecycle tracing is opt-in");
    }

    #[test]
    #[should_panic(expected = "scan_span")]
    fn zero_scan_span_rejected() {
        ServeConfig {
            scan_span: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn out_of_range_scan_fraction_rejected() {
        ServeConfig {
            scan_fraction: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn offered_rate_totals_across_clients() {
        assert_eq!(ServeConfig::default().offered_rate(), None);
        let open = ServeConfig {
            clients: 4,
            mode: LoadMode::Open {
                rate_per_client: 2_500.0,
                window: 8,
            },
            ..Default::default()
        };
        assert_eq!(open.offered_rate(), Some(10_000.0));
    }
}
