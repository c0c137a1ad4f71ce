//! Bounded lock-free per-shard request queues (the admission-control knob)
//! and the generation-tagged reply cell.
//!
//! Each shard owns one [`ShardQueue`]: a hand-rolled bounded ring in the
//! style of Vyukov's bounded queue (per-slot sequence numbers, CAS on the
//! producer cursor) with `thread::park`/`unpark` for the idle shard
//! worker — no `Mutex`, no `Condvar` on the request path, which is exactly
//! the concern of "Are Lock-Free Concurrent Algorithms Practically
//! Wait-Free?": under load the synchronization substrate itself dominates.
//!
//! The consumer side is **steal-safe**: the head cursor is CAS-claimed,
//! so besides the owning shard executor, idle sibling executors may pop
//! batches with [`try_pop_batch`](ShardQueue::try_pop_batch) (work
//! stealing). The claim protocol is the classic Vyukov MPMC dequeue — a
//! consumer only CASes the head after observing the slot published, and
//! ownership of the payload transfers with the CAS — so an owner pop and
//! a concurrent steal can race without loss, duplication, or tearing.
//! Only the *owner* ever parks; stealers are strictly non-blocking.
//!
//! Clients submit with [`try_push`](ShardQueue::try_push), which **sheds on
//! full** rather than blocking — the backpressure policy of the service
//! layer. A shed request is counted in `EngineStats::sheds` by the client
//! and never reaches the STM. Each queue also carries a
//! [`QueueWaitEstimator`]: executors feed it the queue wait of every
//! envelope they pop, and SLO-aware adaptive admission (see
//! `crate::router`) reads its windowed p99 to decide whether to shed
//! *before* the ring fills.
//!
//! Responses travel back through a reusable [`ReplyCell`] per client slot,
//! tagged with a per-request generation so a double-delivery or a stale
//! delivery is *reported* (counted, surfaced in `ServeReport`) instead of
//! silently dropped or `debug_assert`ed away.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use tcp_core::engine::QueueWaitEstimator;

use crate::protocol::{Request, Response};

/// A request in flight: the payload, where to deliver the response, the
/// reply cell's generation tag for this request, and the admission
/// timestamp that lets latency decompose into queue-wait + service.
pub struct Envelope {
    pub req: Request,
    pub reply: Arc<ReplyCell>,
    /// Generation the reply must carry (see [`ReplyCell::issue`]).
    pub gen: u64,
    /// When admission control accepted this request into the shard queue.
    pub enqueued_at: Instant,
}

impl Envelope {
    /// Wrap `req` for submission, stamping the enqueue timestamp now.
    pub fn new(req: Request, reply: Arc<ReplyCell>, gen: u64) -> Self {
        Self {
            req,
            reply,
            gen,
            enqueued_at: Instant::now(),
        }
    }
}

/// One ring slot: a sequence number gating ownership plus the payload.
///
/// Invariant (Vyukov): `seq == pos` means the slot is free for the producer
/// that wins ticket `pos`; `seq == pos + 1` means the payload is published
/// and readable by the consumer at position `pos`; after consumption the
/// consumer stores `seq = pos + ring_len`, freeing the slot for the next
/// lap.
struct Slot {
    seq: AtomicUsize,
    env: UnsafeCell<MaybeUninit<Envelope>>,
}

/// A bounded lock-free queue feeding one shard worker, steal-safe on the
/// consumer side.
///
/// * **Producers** (any number of client threads) reserve a ticket with a
///   CAS on `tail`; admission is capped at `capacity` outstanding
///   envelopes, shedding beyond it.
/// * **Consumers**: the owning shard worker pops (blocking, with
///   park/unpark), and idle sibling workers may steal batches
///   (non-blocking). Every consumer claims positions with a CAS on
///   `head` *after* observing the slot published, so concurrent pops
///   partition the envelopes — each is delivered exactly once.
pub struct ShardQueue {
    slots: Box<[Slot]>,
    /// Ring-index mask (`slots.len()` is a power of two ≥ `capacity`).
    mask: usize,
    /// Logical bound: `tail − head` never exceeds this (shed beyond it).
    capacity: usize,
    /// Producer ticket cursor, with [`CLOSED_BIT`] folded into the same
    /// word: the ticket CAS and the closed check are one atomic step, so
    /// no producer can win a ticket after `close()` — closing is a true
    /// linearization point, not a racy flag read.
    tail: AtomicUsize,
    /// Consumer position, CAS-claimed by the owner and by stealers.
    head: AtomicUsize,
    /// The owning consumer thread's handle, registered on its first
    /// blocking pop so producers can unpark it. Stealers never park and
    /// never register here.
    consumer: OnceLock<Thread>,
    /// True while the owner is parked (or about to park); producers clear
    /// it with a swap so only one of them pays the unpark syscall.
    sleeping: AtomicBool,
    /// High-water mark of the post-push depth snapshots — the per-shard
    /// backlog indicator the skew bench reports.
    depth_max: AtomicU64,
    /// Windowed p99 queue-wait sensor feeding SLO-aware admission.
    /// Executors record into it for every envelope popped *from this
    /// ring* (stolen or not), so the estimate tracks the ring the request
    /// actually waited in.
    estimator: QueueWaitEstimator,
}

/// High bit of `tail`: set by [`ShardQueue::close`]. Ticket positions use
/// the remaining 63 bits (exhausting them would take centuries of pushes).
const CLOSED_BIT: usize = 1 << (usize::BITS - 1);
/// Mask extracting the ticket position from the `tail` word.
const TICKET_MASK: usize = CLOSED_BIT - 1;

// SAFETY: the `UnsafeCell<MaybeUninit<Envelope>>` slots are handed between
// threads under the per-slot `seq` protocol above — a slot's payload is
// written exactly once by the producer holding its ticket (before the
// `Release` store that publishes `seq = pos + 1`) and read exactly once by
// whichever consumer wins the head CAS for that position (claiming only
// after the `Acquire` load observing the publication). `Envelope` itself
// is `Send`.
unsafe impl Send for ShardQueue {}
unsafe impl Sync for ShardQueue {}

impl ShardQueue {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue would shed everything");
        let ring = capacity.next_power_of_two();
        Self {
            slots: (0..ring)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    env: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: ring - 1,
            capacity,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            consumer: OnceLock::new(),
            sleeping: AtomicBool::new(false),
            depth_max: AtomicU64::new(0),
            estimator: QueueWaitEstimator::default(),
        }
    }

    /// Deepest post-push depth snapshot observed on this ring.
    pub fn depth_max(&self) -> u64 {
        self.depth_max.load(Ordering::Relaxed)
    }

    /// Record the queue wait (enqueue → pop, nanoseconds) of an envelope
    /// popped from this ring, feeding the windowed p99 the router's
    /// SLO-aware admission reads. Called by whichever executor popped the
    /// envelope — owner or stealer — so the sensor tracks the ring the
    /// request actually waited in.
    pub fn record_queue_wait(&self, ns: u64) {
        self.estimator.record(ns);
    }

    /// Windowed p99 queue wait of this ring, nanoseconds (see
    /// [`QueueWaitEstimator`]). 0 until the first completed window.
    pub fn queue_wait_p99(&self) -> u64 {
        self.estimator.p99()
    }

    /// Envelopes currently admitted but not yet popped (racy snapshot,
    /// clamped to `0..=capacity`).
    pub fn depth(&self) -> usize {
        let tail = self.tail.load(Ordering::SeqCst) & TICKET_MASK;
        let head = self.head.load(Ordering::SeqCst);
        (tail.wrapping_sub(head) as isize).clamp(0, self.capacity as isize) as usize
    }

    /// Admit `env` unless the queue is full or closed. Returns the queue
    /// depth after the push on success (exact when uncontended, a snapshot
    /// under concurrency — but never above `capacity`); hands the envelope
    /// back on shed so the caller retains ownership of the request.
    ///
    /// Lock-free among producers: a producer finishes in a bounded number
    /// of steps unless other producers keep winning the ticket CAS. The
    /// one wait is on a consumer: a producer whose slot was claimed last
    /// lap but not yet freed yields until the claiming consumer stores the
    /// freed sequence number — the last step of its pop.
    pub fn try_push(&self, env: Envelope) -> Result<usize, Envelope> {
        let mut tail_word = self.tail.load(Ordering::SeqCst);
        loop {
            // The closed bit lives in the ticket word, so this check and
            // the CAS below are one atomic admission decision: once close()
            // sets the bit, no CAS against a clean expected value can win.
            if tail_word & CLOSED_BIT != 0 {
                return Err(env);
            }
            let tail = tail_word;
            // Admission check against the logical capacity. `head` only
            // advances, so a depth that passes here can only have shrunk by
            // the time the CAS wins: the bound is never exceeded.
            let head = self.head.load(Ordering::SeqCst);
            let depth = tail.wrapping_sub(head);
            if (depth as isize) < 0 {
                // Stale `tail`: since we read it, other producers pushed
                // and consumers popped past it. The distance is
                // meaningless (it underflowed); read the cursor again.
                tail_word = self.tail.load(Ordering::SeqCst);
                continue;
            }
            if depth >= self.capacity {
                return Err(env);
            }
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = (seq as isize).wrapping_sub(tail as isize);
            match dif.cmp(&0) {
                std::cmp::Ordering::Equal => {
                    match self.tail.compare_exchange_weak(
                        tail,
                        tail + 1,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            // Ticket won: publish the payload, then the seq.
                            unsafe { (*slot.env.get()).write(env) };
                            slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                            // Post-push depth snapshot: the consumer (and
                            // later producers) may already have moved on,
                            // so clamp instead of trusting the subtraction.
                            let head_now = self.head.load(Ordering::SeqCst);
                            let depth = ((tail + 1).wrapping_sub(head_now) as isize)
                                .clamp(0, self.capacity as isize)
                                as usize;
                            self.depth_max.fetch_max(depth as u64, Ordering::Relaxed);
                            self.wake_consumer();
                            return Ok(depth);
                        }
                        Err(t) => tail_word = t,
                    }
                }
                // The slot still carries last lap's sequence number. The
                // depth check passed, so `head` is past last lap's
                // position: a consumer won the claim on it but has not yet
                // stored the freed seq. The ring is not full — wait for
                // that store instead of shedding. (Other consumers can
                // keep `head` moving meanwhile, which is how a producer
                // laps onto such a slot well below capacity.)
                std::cmp::Ordering::Less => {
                    std::thread::yield_now();
                    tail_word = self.tail.load(Ordering::SeqCst);
                }
                // Another producer lapped us between the loads; refresh.
                std::cmp::Ordering::Greater => tail_word = self.tail.load(Ordering::SeqCst),
            }
        }
    }

    /// Claim and take the envelope at `head` if one is published.
    /// Steal-safe (the Vyukov MPMC dequeue): a consumer only CASes `head`
    /// forward after observing the slot published for that position, and
    /// the CAS transfers payload ownership — so any number of concurrent
    /// consumers partition the envelopes exactly-once.
    fn try_pop_one(&self) -> Option<Envelope> {
        let mut head = self.head.load(Ordering::SeqCst);
        loop {
            let slot = &self.slots[head & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = (seq as isize).wrapping_sub(head.wrapping_add(1) as isize);
            match dif.cmp(&0) {
                // Published: try to claim this position.
                std::cmp::Ordering::Equal => {
                    match self.head.compare_exchange_weak(
                        head,
                        head.wrapping_add(1),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            let env = unsafe { (*slot.env.get()).assume_init_read() };
                            // Free the slot for the producers' next lap.
                            slot.seq
                                .store(head.wrapping_add(self.slots.len()), Ordering::Release);
                            return Some(env);
                        }
                        Err(h) => head = h, // another consumer claimed; retry
                    }
                }
                // Not yet published at this position: the ring is empty
                // here (or the producer is mid-publish — the blocking
                // paths spin that out; a non-blocking caller just leaves).
                std::cmp::Ordering::Less => return None,
                // A consumer already consumed this lap's slot; reload.
                std::cmp::Ordering::Greater => head = self.head.load(Ordering::SeqCst),
            }
        }
    }

    /// Non-blocking batch pop: claim up to `max` published envelopes into
    /// `out` and return the number appended (0 when nothing is claimable
    /// right now). Safe to call from *any* thread concurrently with the
    /// owner — this is the steal entry point of the work-stealing
    /// executors, and also the owner's fast path when stealing is on.
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<Envelope>) -> usize {
        let mut n = 0;
        while n < max {
            match self.try_pop_one() {
                Some(env) => {
                    out.push(env);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Block until at least one envelope is available or the queue is
    /// closed *and* drained; `None` signals the worker to exit.
    pub fn pop(&self) -> Option<Envelope> {
        loop {
            if let Some(env) = self.try_pop_one() {
                return Some(env);
            }
            if !self.block_until_ready() {
                return None;
            }
        }
    }

    /// Pop up to `max` envelopes into `out`, blocking until at least one is
    /// available or the queue is closed *and* drained. Returns the number
    /// appended; `0` signals the worker to exit. Batching amortizes the
    /// park/unpark handshake and the executor's per-wakeup setup across
    /// the whole batch. Owner-only (it parks); stealers use
    /// [`try_pop_batch`](Self::try_pop_batch).
    pub fn pop_batch(&self, max: usize, out: &mut Vec<Envelope>) -> usize {
        assert!(max > 0, "popping a zero-sized batch would spin forever");
        loop {
            let n = self.try_pop_batch(max, out);
            if n > 0 {
                return n;
            }
            if !self.block_until_ready() {
                return 0;
            }
        }
    }

    /// True once the queue is closed *and* every won ticket has been
    /// claimed by some consumer — the collective exit condition of the
    /// work-stealing executors (a stolen batch may be mid-execution on a
    /// sibling, but it is that sibling's responsibility; nothing remains
    /// *here*). Exact for the same reason `block_until_ready`'s exit is:
    /// the closed bit shares the ticket word, so no later ticket can win.
    pub fn is_finished(&self) -> bool {
        let tail_word = self.tail.load(Ordering::SeqCst);
        tail_word & CLOSED_BIT != 0 && self.head.load(Ordering::SeqCst) == tail_word & TICKET_MASK
    }

    /// True once [`close`](Self::close) was called (admission permanently
    /// rejects; a backlog may remain to drain).
    pub fn is_closed(&self) -> bool {
        self.tail.load(Ordering::SeqCst) & CLOSED_BIT != 0
    }

    /// Owner-only idle wait with a deadline: park until a producer pushes,
    /// the queue closes, or `timeout` elapses — whichever comes first.
    /// The work-stealing executor uses this between steal scans so a
    /// backlog appearing on a *sibling* ring (which never unparks this
    /// thread) is still noticed within `timeout`.
    pub fn park_consumer_timeout(&self, timeout: Duration) {
        let _ = self.consumer.set(std::thread::current());
        self.sleeping.store(true, Ordering::SeqCst);
        // Recheck under the sleeping flag (same lost-wakeup protocol as
        // `block_until_ready`): anything already available or a concurrent
        // close skips the park entirely.
        let tail_word = self.tail.load(Ordering::SeqCst);
        if self.head.load(Ordering::SeqCst) != tail_word & TICKET_MASK
            || tail_word & CLOSED_BIT != 0
        {
            self.sleeping.store(false, Ordering::SeqCst);
            return;
        }
        std::thread::park_timeout(timeout);
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// Park until the envelope at `head` is published. Returns `false`
    /// when the queue is closed and fully drained — the worker's exit
    /// signal (exact, because the closed bit shares the ticket word: once
    /// set, no further ticket can be won, so `head == tickets` is final).
    fn block_until_ready(&self) -> bool {
        let _ = self.consumer.set(std::thread::current());
        let mut spins = 0u32;
        loop {
            let head = self.head.load(Ordering::SeqCst);
            let tail_word = self.tail.load(Ordering::SeqCst);
            if head != tail_word & TICKET_MASK {
                // A ticket is reserved. If its payload is published the
                // caller can pop right away; otherwise the producer is
                // mid-publish (at most a few instructions, unless it got
                // descheduled) — spin politely, then yield the core to it.
                if self.slots[head & self.mask].seq.load(Ordering::Acquire) == head.wrapping_add(1)
                {
                    return true;
                }
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            if tail_word & CLOSED_BIT != 0 {
                return false; // closed and every won ticket consumed
            }
            self.sleeping.store(true, Ordering::SeqCst);
            // Recheck under the sleeping flag to close the lost-wakeup
            // window: any producer that publishes after this point sees
            // `sleeping == true` and unparks us (and unpark tokens are
            // sticky, so even a pre-park unpark is not lost).
            let tail_word = self.tail.load(Ordering::SeqCst);
            if self.head.load(Ordering::SeqCst) != tail_word & TICKET_MASK
                || tail_word & CLOSED_BIT != 0
            {
                self.sleeping.store(false, Ordering::SeqCst);
                continue;
            }
            std::thread::park();
            self.sleeping.store(false, Ordering::SeqCst);
        }
    }

    /// Unpark the consumer if it is (about to be) parked.
    fn wake_consumer(&self) {
        if self.sleeping.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.consumer.get() {
                t.unpark();
            }
        }
    }

    /// Stop admitting requests; the worker drains the backlog and exits.
    /// Linearizes with admission: the closed bit is set in the same word
    /// producers CAS their tickets from, so every push either won its
    /// ticket before this call (and will be drained) or sheds.
    pub fn close(&self) {
        self.tail.fetch_or(CLOSED_BIT, Ordering::SeqCst);
        // Unconditional unpark: the consumer must observe the bit even if
        // it raced past the sleeping flag.
        if let Some(t) = self.consumer.get() {
            t.unpark();
        }
    }
}

impl Drop for ShardQueue {
    fn drop(&mut self) {
        // Release any envelopes that were admitted but never popped.
        while self.try_pop_one().is_some() {}
    }
}

/// Delivery outcome of a [`ReplyCell::put`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutStatus {
    /// The response was delivered to a waiting (or about-to-wait) client.
    Delivered,
    /// The cell already held an undelivered response for this generation —
    /// a double-`put`. The first response is kept, this one is dropped,
    /// and the fault is counted.
    Duplicate,
    /// The generation tag did not match the cell's current one — a stale
    /// reply to a request the client has already abandoned or superseded.
    /// Dropped and counted.
    Stale,
}

#[derive(Default)]
struct CellState {
    /// Generation of the request currently allowed to deliver here.
    gen: u64,
    slot: Option<Response>,
    duplicate_puts: u64,
    stale_puts: u64,
}

/// A one-slot rendezvous for a client's outstanding request, reusable
/// across requests via a generation tag.
///
/// Closed-loop clients reuse one cell for every request; open-loop clients
/// reuse one cell per window slot (each cell cycles through `ops/window`
/// requests). [`issue`](Self::issue) arms the cell and returns the
/// generation the matching [`put`](Self::put) must present; mismatches and
/// double-deliveries are counted, not asserted, and surfaced through
/// [`faults`](Self::faults).
#[derive(Default)]
pub struct ReplyCell {
    state: Mutex<CellState>,
    ready: Condvar,
}

impl ReplyCell {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the cell for the next request: bump the generation, clear any
    /// undelivered (now stale) response, and return the new tag.
    pub fn issue(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        st.gen += 1;
        st.slot = None;
        st.gen
    }

    /// Deliver the response for generation `gen` (worker side).
    pub fn put(&self, gen: u64, resp: Response) -> PutStatus {
        let mut st = self.state.lock().unwrap();
        if gen != st.gen {
            st.stale_puts += 1;
            return PutStatus::Stale;
        }
        if st.slot.is_some() {
            st.duplicate_puts += 1;
            return PutStatus::Duplicate;
        }
        st.slot = Some(resp);
        drop(st);
        self.ready.notify_one();
        PutStatus::Delivered
    }

    /// Block until the current generation's response arrives and take it
    /// (client side).
    pub fn take(&self) -> Response {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(resp) = st.slot.take() {
                return resp;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Misdelivery counters: `(duplicate_puts, stale_puts)`.
    pub fn faults(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        (st.duplicate_puts, st.stale_puts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(k: u64) -> Envelope {
        Envelope::new(Request::Get(k), Arc::new(ReplyCell::new()), 1)
    }

    #[test]
    fn sheds_on_full_and_returns_the_envelope() {
        let q = ShardQueue::new(2);
        assert_eq!(q.try_push(env(0)).ok(), Some(1));
        assert_eq!(q.try_push(env(1)).ok(), Some(2));
        let shed = match q.try_push(env(7)) {
            Err(e) => e,
            Ok(_) => panic!("full queue must shed"),
        };
        assert_eq!(shed.req, Request::Get(7), "shed hands the request back");
        // Draining frees capacity again.
        assert!(q.pop().is_some());
        assert_eq!(q.try_push(env(8)).ok(), Some(2));
    }

    #[test]
    fn capacity_is_logical_not_ring_size() {
        // Ring size rounds 3 up to 4, but admission must stop at 3.
        let q = ShardQueue::new(3);
        for k in 0..3 {
            assert!(q.try_push(env(k)).is_ok());
        }
        assert!(q.try_push(env(9)).is_err(), "logical capacity is 3");
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn close_drains_backlog_then_signals_exit() {
        let q = ShardQueue::new(4);
        q.try_push(env(1)).unwrap_or_else(|_| panic!("push"));
        q.try_push(env(2)).unwrap_or_else(|_| panic!("push"));
        q.close();
        assert!(q.try_push(env(3)).is_err(), "closed queue admits nothing");
        assert_eq!(q.pop().map(|e| e.req), Some(Request::Get(1)));
        assert_eq!(q.pop().map(|e| e.req), Some(Request::Get(2)));
        assert!(q.pop().is_none(), "drained + closed ⇒ worker exit signal");
    }

    #[test]
    fn pop_batch_respects_max_and_drains_fifo() {
        let q = ShardQueue::new(8);
        for k in 0..6 {
            q.try_push(env(k)).unwrap_or_else(|_| panic!("push"));
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(4, &mut out), 4);
        assert_eq!(q.pop_batch(4, &mut out), 2);
        let keys: Vec<_> = out.iter().map(|e| e.req.clone()).collect();
        assert_eq!(
            keys,
            (0..6).map(Request::Get).collect::<Vec<_>>(),
            "batch pops preserve queue order"
        );
        q.close();
        assert_eq!(q.pop_batch(4, &mut out), 0, "closed + drained ⇒ 0");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(ShardQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().map(|e| e.req));
        // Give the popper a moment to park, then feed it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(env(9)).unwrap_or_else(|_| panic!("push"));
        assert_eq!(h.join().unwrap(), Some(Request::Get(9)));
    }

    #[test]
    fn ring_wraps_across_many_laps() {
        let q = ShardQueue::new(2);
        for lap in 0..100u64 {
            q.try_push(env(lap)).unwrap_or_else(|_| panic!("push"));
            assert_eq!(q.pop().map(|e| e.req), Some(Request::Get(lap)));
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn dropping_a_nonempty_queue_releases_envelopes() {
        let q = ShardQueue::new(4);
        let reply = Arc::new(ReplyCell::new());
        for k in 0..3 {
            q.try_push(Envelope::new(Request::Get(k), Arc::clone(&reply), k))
                .unwrap_or_else(|_| panic!("push"));
        }
        drop(q);
        // All envelope Arcs released: ours is the only strong ref left.
        assert_eq!(Arc::strong_count(&reply), 1);
    }

    #[test]
    fn reply_cell_roundtrip_across_threads() {
        let cell = Arc::new(ReplyCell::new());
        let gen = cell.issue();
        let c2 = Arc::clone(&cell);
        let h = std::thread::spawn(move || c2.take());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(cell.put(gen, Response::Added(5)), PutStatus::Delivered);
        assert_eq!(h.join().unwrap(), Response::Added(5));
        // Reusable for the next request in the closed loop.
        let gen2 = cell.issue();
        assert_eq!(cell.put(gen2, Response::Written), PutStatus::Delivered);
        assert_eq!(cell.take(), Response::Written);
        assert_eq!(cell.faults(), (0, 0));
    }

    #[test]
    fn reply_cell_reports_double_put() {
        let cell = ReplyCell::new();
        let gen = cell.issue();
        assert_eq!(cell.put(gen, Response::Written), PutStatus::Delivered);
        // Same generation, slot still occupied: a double-delivery. The
        // first response must win; the fault is counted, not asserted.
        assert_eq!(cell.put(gen, Response::Added(9)), PutStatus::Duplicate);
        assert_eq!(cell.take(), Response::Written, "first delivery wins");
        assert_eq!(cell.faults(), (1, 0));
    }

    #[test]
    fn reply_cell_detects_stale_generation() {
        let cell = ReplyCell::new();
        let old = cell.issue();
        let current = cell.issue(); // the client moved on
        assert_eq!(cell.put(old, Response::Written), PutStatus::Stale);
        assert_eq!(cell.faults(), (0, 1));
        // The current generation still delivers normally.
        assert_eq!(cell.put(current, Response::Added(1)), PutStatus::Delivered);
        assert_eq!(cell.take(), Response::Added(1));
    }

    #[test]
    fn reissue_discards_undelivered_stale_response() {
        let cell = ReplyCell::new();
        let gen = cell.issue();
        assert_eq!(cell.put(gen, Response::Written), PutStatus::Delivered);
        // Client abandons the request (e.g. it timed it out) and reissues:
        // the undelivered response must not leak into the next take.
        let gen2 = cell.issue();
        assert_eq!(cell.put(gen2, Response::Added(2)), PutStatus::Delivered);
        assert_eq!(cell.take(), Response::Added(2));
    }
}
