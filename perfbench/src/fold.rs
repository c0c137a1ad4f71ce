//! Folding a traced run's lifecycle events into per-phase spans.
//!
//! Each executor emits its events in program order onto its own ring:
//!
//! ```text
//! Pop|Steal ─▶ [Abort ─▶]* Acquire ─▶ Validate ─▶ Publish ─▶ Done ─▶ … ─▶ Done ─▶ Pop|Steal
//!          └─▶ [SnapshotRestart ─▶]* SnapshotRead ───────────▶ Done
//! ```
//!
//! A span runs between two adjacent events of one executor and is named
//! after the event that ends it. A request's spans run from its service
//! start (the batch's Pop/Steal, or the previous request's Done) to its
//! own Done, so they must add up to the service time that Done carries.
//! There is no event where a commit starts, so the span ending at Acquire
//! holds the transaction body *and* its lock acquisition.

use tcp_core::trace::{TraceEvent, TraceKind};

/// A request's span sum may differ from its Done service time by this much
/// (absolute ns) or this share, whichever is larger. The executor stops
/// the service clock, then records the request's latencies, and only then
/// emits Done: that bookkeeping (a few hundred ns) lands in the request's
/// reply span but in no service time, and shifts the next request's start.
const TOL_NS: u64 = 1_000;
const TOL_SHARE: f64 = 0.05;
/// Share of requests allowed outside that tolerance. Preemption can land
/// in the bookkeeping, and so does the queue-wait estimator's window sweep
/// (~15 µs, once per 5 ms window per shard; see README.md).
const MAX_UNRECONCILED_SHARE: f64 = 0.05;

/// The per-phase spans of one traced run, in nanoseconds.
#[derive(Debug, Default)]
pub struct Fold {
    /// Request start (Pop, Steal or the previous Done) → first Acquire or
    /// SnapshotRead: running the transaction body.
    pub execute: Vec<f64>,
    /// Any event → Acquire: the body (or its retry) plus lock acquisition.
    pub acquire: Vec<f64>,
    /// Acquire → Validate.
    pub validate: Vec<f64>,
    /// Validate → Publish.
    pub publish: Vec<f64>,
    /// Publish or SnapshotRead → Done: recording latency and replying.
    pub reply: Vec<f64>,
    /// Per writing request: its spans up to the last STM event (aborted
    /// attempts included).
    pub rw_tx: Vec<f64>,
    /// Per read-only request served from a snapshot: the same.
    pub snapshot_tx: Vec<f64>,
    /// Per request: the queue wait and service time its Done carries.
    pub queue_wait: Vec<f64>,
    pub service: Vec<f64>,
    /// Pop and Steal events, and the envelopes they claimed.
    pub batches: u64,
    pub batch_items: u64,
    /// Requests folded (Done events).
    pub requests: u64,
    /// Requests whose span sum missed their service time.
    pub unreconciled: u64,
}

/// The request being folded on one executor.
#[derive(Default)]
struct Open {
    started: bool,
    total: u64,
    stm: u64,
    writes: bool,
    snapshot: bool,
}

/// Router events land on the home shard's ring too; only these come from
/// the executor that owns the ring.
fn is_executor_event(kind: TraceKind) -> bool {
    !matches!(kind, TraceKind::Enqueue | TraceKind::Shed)
}

/// Fold `events` (timestamp-ordered, as [`tcp_core::trace::Trace::finish`]
/// returns them) of executors `0..shards`. Fails on a sequence no executor
/// emits.
pub fn fold(events: &[TraceEvent], shards: usize) -> Result<Fold, String> {
    use TraceKind::*;
    let mut f = Fold::default();
    for shard in 0..shards {
        let mut prev: Option<&TraceEvent> = None;
        let mut req = Open::default();
        let own = events
            .iter()
            .filter(|e| e.shard as usize == shard && is_executor_event(e.kind));
        for ev in own {
            if matches!(ev.kind, Pop | Steal) {
                if req.started {
                    return Err(format!("shard {shard}: batch claimed inside a request"));
                }
                f.batches += 1;
                f.batch_items += ev.a;
                prev = Some(ev);
                continue;
            }
            let Some(p) = prev else {
                return Err(format!(
                    "shard {shard}: {:?} before any Pop or Steal",
                    ev.kind
                ));
            };
            let span = ev.ts_ns.saturating_sub(p.ts_ns);
            let starts_request = matches!(p.kind, Pop | Steal | Done);
            req.started = true;
            req.total += span;
            if ev.kind != Done {
                req.stm += span;
            }
            match ev.kind {
                Acquire => {
                    f.acquire.push(span as f64);
                    if starts_request {
                        f.execute.push(span as f64);
                    }
                    req.writes = true;
                }
                SnapshotRead => {
                    if starts_request {
                        f.execute.push(span as f64);
                    }
                    req.snapshot = true;
                }
                Validate => f.validate.push(span as f64),
                Publish => f.publish.push(span as f64),
                Done => {
                    if matches!(p.kind, Publish | SnapshotRead) {
                        f.reply.push(span as f64);
                    }
                    f.finish(&req, ev);
                    req = Open::default();
                }
                // Aborted attempts, snapshot restarts and group-commit
                // steps: STM time of the request, no phase of their own.
                _ => {}
            }
            prev = Some(ev);
        }
        if req.started {
            return Err(format!("shard {shard}: trace ends inside a request"));
        }
    }
    Ok(f)
}

impl Fold {
    fn finish(&mut self, req: &Open, done: &TraceEvent) {
        self.requests += 1;
        self.queue_wait.push(done.a as f64);
        self.service.push(done.b as f64);
        let tol = TOL_NS.max((done.b as f64 * TOL_SHARE) as u64);
        if req.total.abs_diff(done.b) > tol {
            self.unreconciled += 1;
        }
        if req.writes {
            self.rw_tx.push(req.stm as f64);
        } else if req.snapshot {
            self.snapshot_tx.push(req.stm as f64);
        }
    }

    /// Mean envelopes per claimed batch.
    pub fn batch_mean(&self) -> f64 {
        self.batch_items as f64 / self.batches.max(1) as f64
    }

    /// Percent of requests whose spans miss their service time.
    pub fn unreconciled_pct(&self) -> f64 {
        100.0 * self.unreconciled as f64 / self.requests.max(1) as f64
    }

    /// Check that the requests' spans add up to the service time their
    /// Done events carry, all but a few of them.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("the traced run folded no request".into());
        }
        if self.unreconciled_pct() > 100.0 * MAX_UNRECONCILED_SHARE {
            return Err(format!(
                "{} of {} requests' spans do not add up to their service time",
                self.unreconciled, self.requests
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::trace::{TraceCause, TraceTag};

    fn ev(shard: u16, ts_ns: u64, kind: TraceKind, a: u64, b: u64) -> TraceEvent {
        let tag = TraceTag {
            shard,
            tx: 0,
            key: 0,
        };
        TraceEvent {
            ts_ns,
            ..TraceEvent::lifecycle(kind, tag, a, b)
        }
    }

    /// Shard 0 steals a batch of two (a write, then a snapshot read),
    /// then pops one write that aborts once; shard 1 pops a snapshot read
    /// that restarts once. Router events are interleaved and ignored.
    fn sequence() -> Vec<TraceEvent> {
        use TraceKind::*;
        let mut evs = vec![
            ev(0, 0, Steal, 2, 1),
            ev(0, 5, Enqueue, 3, 0),
            ev(0, 100, Acquire, 1, 0),
            ev(0, 130, Validate, 1, 0),
            ev(0, 150, Publish, 1, 0),
            ev(0, 200, Done, 50, 200),
            ev(0, 260, SnapshotRead, 0, 0),
            ev(0, 300, Done, 70, 100),
            ev(0, 1000, Pop, 1, 0),
            ev(0, 1300, Acquire, 4, 0),
            ev(0, 1310, Validate, 4, 0),
            ev(0, 1320, Publish, 4, 0),
            ev(0, 1400, Done, 9, 400),
            ev(1, 10, Pop, 1, 0),
            ev(1, 12, Shed, 0, 0),
            ev(1, 20, SnapshotRestart, 1, 0),
            ev(1, 50, SnapshotRead, 0, 0),
            ev(1, 70, Done, 3, 60),
        ];
        evs.insert(
            9,
            TraceEvent {
                ts_ns: 1100,
                cause: TraceCause::Conflict,
                ..ev(0, 0, Abort, 0, 0)
            },
        );
        evs.sort_by_key(|e| (e.ts_ns, e.shard));
        evs
    }

    #[test]
    fn fold_splits_steal_and_snapshot_requests_into_phases() {
        let f = fold(&sequence(), 2).expect("well-formed sequence");
        assert_eq!((f.batches, f.batch_items, f.requests), (3, 4, 4));
        assert_eq!(f.batch_mean(), 4.0 / 3.0);
        // Steal→Acquire and Done→SnapshotRead start requests; the retry
        // after the abort and the read after the restart do not.
        assert_eq!(f.execute, vec![100.0, 60.0]);
        assert_eq!(f.acquire, vec![100.0, 200.0]);
        assert_eq!(f.validate, vec![30.0, 10.0]);
        assert_eq!(f.publish, vec![20.0, 10.0]);
        assert_eq!(f.reply, vec![50.0, 40.0, 80.0, 20.0]);
        assert_eq!(f.rw_tx, vec![150.0, 320.0]);
        assert_eq!(f.snapshot_tx, vec![60.0, 40.0]);
        assert_eq!(f.queue_wait, vec![50.0, 70.0, 9.0, 3.0]);
        assert_eq!(f.unreconciled, 0);
        f.reconcile().expect("spans add up to service");
    }

    #[test]
    fn reconcile_catches_spans_that_miss_the_service_time() {
        let mut evs = sequence();
        let done = evs
            .iter_mut()
            .find(|e| e.kind == TraceKind::Done && e.ts_ns == 1400)
            .expect("the aborting write's Done");
        done.b = 9_000;
        let f = fold(&evs, 2).expect("still well-formed");
        assert_eq!(f.unreconciled, 1);
        assert_eq!(f.unreconciled_pct(), 25.0);
        assert!(f.reconcile().is_err());
    }

    #[test]
    fn fold_rejects_sequences_no_executor_emits() {
        use TraceKind::*;
        let orphan = [ev(0, 5, Acquire, 1, 0)];
        assert!(fold(&orphan, 1).is_err(), "event before any batch");
        let open = [ev(0, 0, Pop, 1, 0), ev(0, 5, SnapshotRead, 0, 0)];
        assert!(fold(&open, 1).is_err(), "request without Done");
        let nested = [
            ev(0, 0, Pop, 2, 0),
            ev(0, 5, Acquire, 1, 0),
            ev(0, 9, Pop, 1, 0),
        ];
        assert!(fold(&nested, 1).is_err(), "batch inside a request");
        assert!(fold(&[], 1).expect("empty").reconcile().is_err());
    }
}
