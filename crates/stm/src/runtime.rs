//! A TL2-style word-based software transactional memory with pluggable
//! grace-period conflict management.
//!
//! The paper's policies are derived for HTM, where decisions are local,
//! immediate, and unchangeable (§1). This runtime exercises the same
//! decision rule on real threads: when a transaction encounters a locked
//! word, the policy chooses how long to wait before resolving the conflict
//! — by aborting itself (requestor aborts) or by flagging the lock owner
//! for remote abort (requestor wins).
//!
//! Design (classic TL2):
//! * a global version clock;
//! * per-word versioned write-locks (version + lock bit + owner id packed
//!   into one `AtomicU64`), values in a second `AtomicU64`;
//! * reads validate against the snapshot version and are recorded in a read
//!   set; writes are buffered as [`WriteEntry`]s, one per address;
//! * commit runs three explicit phases per transaction — **acquire** write
//!   locks in address order, **validate** the read set, **publish** under
//!   one clock bump. A held lock met in phase 1 goes to the
//!   [`ConflictArbiter`], which decides how long to wait before aborting.
//!
//! **Memory layout** (see the README's "Memory layout" section for the
//! full diagram): the heap is a structure-of-arrays. The *hot* array
//! holds cache-line-aligned [`HotLine`]s of four `(meta, value)` pairs
//! each — everything the read/validate/publish fast paths touch — laid
//! out **shard-major** through a bijective [`ShardLayout`] `key → slot`
//! mapping, so one shard's words are contiguous and never share a cache
//! line with another shard's (no false sharing between shard executors).
//! The *cold* array holds `chain_head` + the bounded MVCC chains, which
//! only publishes and snapshot readers touch. Atomic orderings follow
//! the seqlock / PUBLISH_BIT protocols; every load/store below is
//! annotated with the invariant its ordering preserves.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tcp_core::conflict::ResolutionMode;
use tcp_core::engine::{AbortKind, ConflictArbiter, EngineStats};
use tcp_core::policy::GracePolicy;
use tcp_core::rng::Xoshiro256StarStar;
use tcp_core::smallset::{InlineVec, KeyFilter};
use tcp_core::trace::{Trace, TraceEvent, TraceKind, TraceTag};

/// Word addresses within an [`Stm`] heap.
pub type Addr = usize;

/// Why a transaction attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Abort {
    /// Read-set validation failed (a word changed under us).
    Validation,
    /// Lost a conflict on a locked word.
    Conflict,
    /// Another transaction's requestor-wins resolution flagged us.
    RemoteKill,
}

impl From<Abort> for AbortKind {
    fn from(a: Abort) -> Self {
        match a {
            Abort::Validation => AbortKind::Validation,
            Abort::Conflict => AbortKind::Conflict,
            Abort::RemoteKill => AbortKind::RemoteKill,
        }
    }
}

const LOCK_BIT: u64 = 1 << 63;
/// Owner id occupies bits 48..62 — 15 bits, up to 32k threads. Bit 63 is
/// [`LOCK_BIT`], so the owner field must stay clear of it: packing the
/// maximal owner id must not read back as an unlocked word.
const OWNER_SHIFT: u32 = 48;
const OWNER_BITS: u32 = 15;
const OWNER_MASK: u64 = ((1 << OWNER_BITS) - 1) << OWNER_SHIFT;
/// Largest packable owner id (inclusive).
pub(crate) const MAX_OWNER: usize = (1 << OWNER_BITS) - 1;
const VERSION_MASK: u64 = (1 << OWNER_SHIFT) - 1;
/// Set on a *locked* meta word while its owner is inside the publish
/// sequence (version bits are dead while the lock bit is held, so bit 0
/// is free). Snapshot readers that meet the flag spin briefly — the
/// owner's clock bump and chain push are instants away and the publish
/// phase never blocks — instead of consulting the chain, which does not
/// yet hold the in-flight write.
const PUBLISH_BIT: u64 = 1;
/// Retained `(version, value)` entries per word: the current state plus
/// up to `CHAIN_LEN - 1` distinct prior versions.
const CHAIN_LEN: usize = 4;

#[inline]
fn pack_locked(owner: usize) -> u64 {
    debug_assert!(owner <= MAX_OWNER, "owner id exceeds the 15-bit field");
    LOCK_BIT | ((owner as u64) << OWNER_SHIFT)
}

#[inline]
fn is_locked(meta: u64) -> bool {
    meta & LOCK_BIT != 0
}

#[inline]
fn owner_of(meta: u64) -> usize {
    ((meta & OWNER_MASK) >> OWNER_SHIFT) as usize
}

#[inline]
fn version_of(meta: u64) -> u64 {
    meta & VERSION_MASK
}

/// Hot `(meta, value)` pairs per cache line: 2 × 8 bytes each, four to a
/// 64-byte line.
pub const PAIRS_PER_LINE: usize = 4;

/// One hot word: version + lock bit + owner id, and the value. 16 bytes;
/// the read / validate / publish fast paths touch nothing else.
struct HotPair {
    meta: AtomicU64,
    value: AtomicU64,
}

impl HotPair {
    fn new() -> Self {
        Self {
            meta: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

/// One cache line of the hot array. The alignment + size pin (asserted
/// below) is what makes [`ShardLayout`]'s line-granular shard segments a
/// no-false-sharing guarantee rather than a hope.
#[repr(C, align(64))]
struct HotLine {
    pairs: [HotPair; PAIRS_PER_LINE],
}

impl HotLine {
    fn new() -> Self {
        Self {
            pairs: std::array::from_fn(|_| HotPair::new()),
        }
    }
}

// Layout pins: a HotLine is exactly one 64-byte cache line. If HotPair
// ever grows, PAIRS_PER_LINE must shrink with it — fail the build, not
// the benchmark.
const _: () = assert!(std::mem::size_of::<HotLine>() == 64);
const _: () = assert!(std::mem::align_of::<HotLine>() == 64);
const _: () = assert!(std::mem::size_of::<HotPair>() * PAIRS_PER_LINE == 64);

/// The cold per-word state: everything only publishes and snapshot
/// readers touch. Kept out of the hot array so commit-path cache misses
/// are one line per word, not two.
struct ColdCell {
    /// Monotone count of chain pushes; the newest entry lives at slot
    /// `(chain_head - 1) % CHAIN_LEN`. Zero means "never written": the
    /// word has held its version-0 zero since the heap was built.
    chain_head: AtomicU64,
    /// Bounded MVCC version chain, a ring of `(version, value)` pairs.
    /// Written only by the word's lock holder (publish) or under test
    /// quiescence ([`Stm::write_direct`]); read lock-free by snapshot
    /// readers via a per-slot seqlock (`u64::MAX` = mid-write sentinel,
    /// never a real version — versions fit [`VERSION_MASK`]).
    chain: [(AtomicU64, AtomicU64); CHAIN_LEN],
}

impl ColdCell {
    fn new() -> Self {
        Self {
            chain_head: AtomicU64::new(0),
            chain: std::array::from_fn(|_| (AtomicU64::new(u64::MAX), AtomicU64::new(0))),
        }
    }

    /// Append `(ver, val)` to the version chain. Single-writer: callers
    /// hold the word's write lock or run quiesced, and successive lock
    /// holders are ordered by the meta Release-store → CAS-Acquire
    /// handoff, so every load here may be Relaxed with respect to other
    /// *writers*. The store sequence is the per-slot seqlock protocol
    /// for concurrent *readers*:
    ///
    /// 1. sentinel (`u64::MAX`) into the version word — marks the slot
    ///    torn for any reader mid-scan;
    /// 2. the value, `Release` — orders the sentinel before it, so a
    ///    reader that Acquire-loads the new value must also see the
    ///    sentinel (or the final version) on its recheck, never the
    ///    stale version paired with the new value;
    /// 3. the real version, `Release` — publishes the value to readers
    ///    that Acquire-load the version word;
    /// 4. `chain_head + 1`, `Release` — publishes the completed entry to
    ///    chain scanners that Acquire-load the head.
    fn push_chain(&self, ver: u64, val: u64) {
        // Relaxed: single-writer; the previous holder's store is visible
        // via the lock handoff described above.
        let h = self.chain_head.load(Ordering::Relaxed);
        let slot = &self.chain[(h as usize) % CHAIN_LEN];
        slot.0.store(u64::MAX, Ordering::Relaxed);
        slot.1.store(val, Ordering::Release);
        slot.0.store(ver, Ordering::Release);
        self.chain_head.store(h + 1, Ordering::Release);
    }
}

/// The bijective shard-major `key → slot` mapping of the hot array.
///
/// Keys are routed to shards as `key % shards` (the router's rule); the
/// layout gives each shard a *contiguous segment* of slots, padded up to
/// whole [`PAIRS_PER_LINE`]-pair cache lines, and places key `k` at
/// `base[k % shards] + k / shards`. Within a shard the quotients
/// `k / shards` are distinct and dense, segments are disjoint by
/// construction, so the mapping is a bijection onto per-shard ranges —
/// property-tested in `tests/properties.rs`. The padding means two
/// different shards' words can never share a cache line: a publish on
/// shard A never invalidates a line shard B is reading.
#[derive(Clone, Debug)]
pub struct ShardLayout {
    shards: usize,
    words: usize,
    /// First slot of each shard's segment; each base is line-aligned.
    base: Vec<usize>,
    /// Total padded slots (the hot/cold array length).
    slots: usize,
}

impl ShardLayout {
    pub fn new(words: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut base = Vec::with_capacity(shards);
        let mut acc = 0usize;
        for s in 0..shards {
            base.push(acc);
            // Keys with k % shards == s, i.e. k in {s, s+shards, ...} ∩ [0, words).
            let count = if words > s {
                (words - s).div_ceil(shards)
            } else {
                0
            };
            // Pad the segment to whole cache lines so the next shard
            // starts on a fresh line.
            acc += count.div_ceil(PAIRS_PER_LINE) * PAIRS_PER_LINE;
        }
        Self {
            shards,
            words,
            base,
            slots: acc,
        }
    }

    /// The slot of key `k` (bijective over `0..words()`).
    #[inline]
    pub fn slot(&self, k: Addr) -> usize {
        debug_assert!(k < self.words);
        self.base[k % self.shards] + k / self.shards
    }

    /// Total slots including line padding (≥ `words()`).
    pub fn slots(&self) -> usize {
        self.slots
    }

    pub fn words(&self) -> usize {
        self.words
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The cache line a slot lives on (for the no-sharing property test).
    pub fn line_of_slot(slot: usize) -> usize {
        slot / PAIRS_PER_LINE
    }
}

/// Snapshot-read failure: every *retained* version of some word is newer
/// than the reader's clock sample. The read-only transaction resamples
/// the clock and restarts ([`TxCtx::run_snapshot`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotMiss;

/// The shared STM heap plus runtime state: the SoA hot/cold arrays and
/// the shard-major layout mapping keys into them.
pub struct Stm {
    /// Cache-line-aligned hot `(meta, value)` pairs, shard-major.
    hot: Vec<HotLine>,
    /// MVCC chains, indexed by the same slot as the hot pair.
    cold: Vec<ColdCell>,
    layout: ShardLayout,
    clock: AtomicU64,
    /// Remote-abort flags, one per registered thread (requestor-wins).
    kill_flags: Vec<AtomicBool>,
    /// Conflict-resolution mode applied on grace expiry.
    pub mode: ResolutionMode,
}

impl Stm {
    /// A heap of `words` zero-initialized words supporting up to
    /// `max_threads` concurrent transaction contexts, laid out as a
    /// single shard (adjacent keys pack densely).
    pub fn new(words: usize, max_threads: usize) -> Self {
        Self::with_layout(words, max_threads, 1, ResolutionMode::RequestorAborts)
    }

    pub fn with_mode(words: usize, max_threads: usize, mode: ResolutionMode) -> Self {
        Self::with_layout(words, max_threads, 1, mode)
    }

    /// A heap laid out shard-major for `shards` shards (router rule
    /// `key % shards`): each shard's words occupy their own contiguous,
    /// line-padded slot range, so no cache line is shared across shards.
    pub fn with_layout(
        words: usize,
        max_threads: usize,
        shards: usize,
        mode: ResolutionMode,
    ) -> Self {
        assert!(
            max_threads <= MAX_OWNER + 1,
            "thread ids must pack into the owner field"
        );
        let layout = ShardLayout::new(words, shards);
        let lines = layout.slots().div_ceil(PAIRS_PER_LINE);
        Self {
            hot: (0..lines).map(|_| HotLine::new()).collect(),
            cold: (0..layout.slots()).map(|_| ColdCell::new()).collect(),
            layout,
            clock: AtomicU64::new(0),
            kill_flags: (0..max_threads).map(|_| AtomicBool::new(false)).collect(),
            mode,
        }
    }

    /// The hot pair of key `a`.
    #[inline]
    fn pair(&self, a: Addr) -> &HotPair {
        let slot = self.layout.slot(a);
        &self.hot[slot / PAIRS_PER_LINE].pairs[slot % PAIRS_PER_LINE]
    }

    /// The hot pair and cold cell of key `a` (one slot computation).
    #[inline]
    fn parts(&self, a: Addr) -> (&HotPair, &ColdCell) {
        let slot = self.layout.slot(a);
        (
            &self.hot[slot / PAIRS_PER_LINE].pairs[slot % PAIRS_PER_LINE],
            &self.cold[slot],
        )
    }

    /// The key → slot layout this heap was built with.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    pub fn len(&self) -> usize {
        self.layout.words()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-transactional read (only safe when no transaction is running,
    /// e.g. to inspect final state in tests). Acquire pairs with the
    /// publisher's Release value store; callers additionally quiesce
    /// (thread join), which is the real ordering here.
    pub fn read_direct(&self, a: Addr) -> u64 {
        self.pair(a).value.load(Ordering::Acquire)
    }

    /// Non-transactional write (test setup only). Mirrors the value into
    /// the version chain at the word's current version so snapshot reads
    /// see pre-seeded state. Release mirrors the transactional publish
    /// protocol, though callers run quiesced by contract.
    pub fn write_direct(&self, a: Addr, v: u64) {
        let (pair, cold) = self.parts(a);
        pair.value.store(v, Ordering::Release);
        let ver = version_of(pair.meta.load(Ordering::Acquire));
        cold.push_chain(ver, v);
    }

    /// Current value of the global version clock — equivalently, the
    /// number of clock bumps (write publishes) so far. Acquire: pairs
    /// with committers' AcqRel bumps, so state published at the returned
    /// clock value is visible.
    pub fn clock_value(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Number of transaction contexts this heap supports (the size of the
    /// remote-kill flag table).
    pub fn max_threads(&self) -> usize {
        self.kill_flags.len()
    }

    /// Non-transactional snapshot of every word in key order (only
    /// meaningful once all transactions have quiesced — end-of-run state
    /// inspection; checksums depend on this staying key-ordered).
    pub fn snapshot_direct(&self) -> Vec<u64> {
        (0..self.len()).map(|a| self.read_direct(a)).collect()
    }

    /// MVCC read of word `a` at snapshot `rv`: the value of the newest
    /// version `<= rv`. Never locks, never validates, never aborts — the
    /// only failure is [`SnapshotMiss`] (every retained version is newer
    /// than `rv`), which the caller handles by resampling the clock.
    ///
    /// Why a flagless lock implies "pending version > rv": publishers set
    /// [`PUBLISH_BIT`] *before* bumping the clock, so if our meta load
    /// sees a lock without the flag, that owner's bump had not happened
    /// at the load — it is ordered after our earlier clock sample, hence
    /// its write version exceeds `rv` and the chain (which holds every
    /// published version) is the authority. Unlocked-but-newer means the
    /// same thing directly.
    fn snapshot_cell(&self, a: Addr, rv: u64) -> Result<u64, SnapshotMiss> {
        let (pair, cold) = self.parts(a);
        loop {
            // Acquire: pairs with the publisher's final Release meta
            // store, so observing version m1 makes the value stored for
            // m1 visible to the load below.
            let m1 = pair.meta.load(Ordering::Acquire);
            if !is_locked(m1) && version_of(m1) <= rv {
                // Fast path: the current value is within the snapshot.
                // Classic TL2 double-check against a concurrent locker.
                // Acquire on the value: (a) the m2 load below cannot be
                // hoisted above it, and (b) if it returns a value stored
                // by an in-flight publisher, it synchronizes with that
                // Release store, making the publisher's earlier locked
                // meta visible — so m2 must differ from m1 and the torn
                // read is detected.
                let v = pair.value.load(Ordering::Acquire);
                // Relaxed: ordered after the value load by its Acquire;
                // only meta's own coherence (compare with m1) matters.
                if pair.meta.load(Ordering::Relaxed) == m1 {
                    return Ok(v);
                }
                continue;
            }
            if is_locked(m1) && m1 & PUBLISH_BIT != 0 {
                // Owner is mid-publish; its chain push is instants away
                // and the publish sequence never blocks. Wait it out so
                // the chain scan below cannot miss the in-flight write.
                std::hint::spin_loop();
                continue;
            }
            // The value we need is a published prior version. Acquire:
            // pairs with push_chain's Release head store, so entries
            // < h are fully written before we scan them.
            let h = cold.chain_head.load(Ordering::Acquire);
            if h == 0 {
                // Never written: version-0 zero is within any snapshot.
                return Ok(0);
            }
            let oldest = h.saturating_sub(CHAIN_LEN as u64);
            let mut push = h;
            let mut torn = false;
            while push > oldest {
                let slot = &cold.chain[((push - 1) as usize) % CHAIN_LEN];
                // Per-slot seqlock read. v1 Acquire pairs with the
                // writer's Release version store (value visible when v1
                // is real); val Acquire orders the two recheck loads
                // after it AND, when it returns a mid-push value,
                // makes the writer's sentinel visible to the v2 load —
                // a new value can never be paired with the stale
                // version. v2/head Relaxed: coherence-only rechecks,
                // ordered by val's Acquire.
                let v1 = slot.0.load(Ordering::Acquire);
                let val = slot.1.load(Ordering::Acquire);
                let v2 = slot.0.load(Ordering::Relaxed);
                if v1 == u64::MAX || v1 != v2 || cold.chain_head.load(Ordering::Relaxed) != h {
                    torn = true; // raced a writer's push; rescan from meta
                    break;
                }
                if v1 <= rv {
                    return Ok(val);
                }
                push -= 1;
            }
            if torn {
                std::hint::spin_loop();
                continue;
            }
            if h <= CHAIN_LEN as u64 {
                // The chain still holds every write this word ever took
                // and all are newer than rv: the pre-history is the
                // version-0 zero.
                return Ok(0);
            }
            return Err(SnapshotMiss);
        }
    }
}

/// One buffered write: the value this transaction publishes at `addr`.
/// Entries are unique per address within a transaction (later writes
/// update the entry in place). `Copy + Default` so write sets fit
/// [`InlineVec`]'s always-initialized inline storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteEntry {
    pub addr: Addr,
    pub val: u64,
}

/// How a failed lock acquisition failed.
enum LockFail {
    /// Locked by another transaction (its meta word, for the owner id).
    Busy(u64),
    /// Unlocked, but the version is newer than the acquirer's snapshot.
    Stale,
}

/// Commit phase 1 primitive: try to acquire `a`'s write lock for `owner`,
/// retrying internal CAS races. A version newer than the acquirer's
/// snapshot `rv` fails as [`LockFail::Stale`]. Returns the pre-lock meta
/// for the restore table.
fn lock_cell(stm: &Stm, a: Addr, owner: usize, rv: u64) -> Result<u64, LockFail> {
    let pair = stm.pair(a);
    loop {
        // Relaxed screening load: the CAS below is the authoritative
        // read (it fails if meta moved), so this load only routes us to
        // the right arm; Busy/Stale verdicts on a concurrently moving
        // meta are inherently racy at any ordering and the caller
        // (contend / abort) re-examines.
        let meta = pair.meta.load(Ordering::Relaxed);
        if is_locked(meta) {
            return Err(LockFail::Busy(meta));
        }
        if version_of(meta) > rv {
            return Err(LockFail::Stale);
        }
        // Acquire on success: pairs with the previous owner's Release
        // meta store (publish or unlock-restore), making its value and
        // chain writes visible to this lock holder.
        // Relaxed on failure: we just re-examine.
        if pair
            .meta
            .compare_exchange(
                meta,
                pack_locked(owner),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            return Ok(meta);
        }
        // Raced with a concurrent locker; re-examine.
        std::hint::spin_loop();
    }
}

/// Inline capacity of the transaction-local sets: the serve workloads'
/// largest transaction touches `rmw_span` (default 4) words, so 8 keeps
/// every standard read/write set on the stack; bigger transactions spill
/// to a capacity-retaining heap vec.
const INLINE_SET: usize = 8;

/// A transaction's read set: `(addr, observed meta)` pairs.
type ReadSet = InlineVec<(Addr, u64), INLINE_SET>;
/// A transaction's buffered writes (unique per address).
type WriteSet = InlineVec<WriteEntry, INLINE_SET>;
/// Pre-lock meta words, parallel to the sorted write set's prefix.
type MetaSet = InlineVec<u64, INLINE_SET>;

/// Per-thread transaction execution context.
pub struct TxCtx<'s, P: GracePolicy> {
    stm: &'s Stm,
    pub id: usize,
    /// The shared engine-layer consultation loop: policy + §7 backoff.
    pub arbiter: ConflictArbiter<P>,
    /// Concrete (devirtualized) PRNG: grace-period sampling makes no
    /// virtual calls and the generator sits inline in the context, not
    /// behind a `Box<dyn RngCore>` pointer chase.
    rng: Xoshiro256StarStar,
    pub stats: EngineStats,
    /// Fixed component of the abort cost, in nanoseconds (models the
    /// restart overhead; the elapsed running time is added per conflict).
    pub cleanup_ns: f64,
    /// Recycled read set, handed to each transaction attempt and
    /// reclaimed afterwards; inline up to [`INLINE_SET`] entries, and the
    /// heap spill of larger footprints is retained across transactions so
    /// batch executors never reallocate the hot-path sets.
    read_buf: ReadSet,
    /// Recycled write set (same lifecycle as `read_buf`).
    write_buf: WriteSet,
    /// Recycled pre-lock meta table for the commit's acquire phase.
    restore_buf: MetaSet,
    /// Lifecycle trace sink, when tracing is enabled for the run. `None`
    /// keeps every emission point a single never-taken branch.
    trace: Option<Arc<Trace>>,
    /// Identity stamped onto emitted events (shard = this context's id;
    /// tx/key re-stamped per request by the executor).
    trace_tag: TraceTag,
    /// Grace period (ns) granted by the most recent arbiter consult of
    /// the current attempt, attached to the next abort event. Only
    /// maintained while tracing.
    last_grace_ns: u64,
}

/// The view a transaction body gets: transactional reads and writes.
pub struct Tx<'c, 's, P: GracePolicy> {
    ctx: &'c mut TxCtx<'s, P>,
    rv: u64,
    start: Instant,
    reads: ReadSet,
    writes: WriteSet,
    /// Membership filter over `writes`' addresses: the read-your-writes
    /// probe — almost always negative — short-circuits on one AND
    /// instead of scanning the write set.
    wfilter: KeyFilter,
}

/// The view a read-only snapshot body gets: MVCC reads at one fixed
/// clock sample. No read set, no validation, no locks, no arbiter — a
/// snapshot transaction cannot abort, only restart on a chain miss.
pub struct SnapshotTx<'s> {
    stm: &'s Stm,
    rv: u64,
    chain_misses: u64,
}

impl SnapshotTx<'_> {
    /// The clock sample this snapshot reads at.
    pub fn rv(&self) -> u64 {
        self.rv
    }

    /// Snapshot read of word `a` (newest version `<= rv()`).
    pub fn read(&mut self, a: Addr) -> Result<u64, SnapshotMiss> {
        match self.stm.snapshot_cell(a, self.rv) {
            Ok(v) => Ok(v),
            Err(m) => {
                self.chain_misses += 1;
                Err(m)
            }
        }
    }
}

impl<'s, P: GracePolicy> TxCtx<'s, P> {
    pub fn new(stm: &'s Stm, id: usize, policy: P, rng: Xoshiro256StarStar) -> Self {
        assert!(id < stm.kill_flags.len(), "thread id beyond max_threads");
        Self {
            stm,
            id,
            arbiter: ConflictArbiter::new(policy),
            rng,
            stats: EngineStats::default(),
            cleanup_ns: 500.0,
            read_buf: ReadSet::new(),
            write_buf: WriteSet::new(),
            restore_buf: MetaSet::new(),
            trace: None,
            trace_tag: TraceTag::default(),
            last_grace_ns: 0,
        }
    }

    /// Enable lifecycle tracing: events emitted by this context land on
    /// shard `id`'s ring of `trace`.
    pub fn set_trace(&mut self, trace: Arc<Trace>) {
        self.trace_tag.shard = self.id as u16;
        self.trace = Some(trace);
    }

    /// Stamp the (tx, key) identity carried by subsequent events — the
    /// executor calls this per envelope. No-op while tracing is off.
    pub fn set_trace_tag(&mut self, tx: u64, key: u64) {
        if self.trace.is_some() {
            self.trace_tag.tx = tx;
            self.trace_tag.key = key;
        }
    }

    /// Emit a causeless lifecycle event under the current tag (single
    /// branch while tracing is off).
    pub fn trace_event(&self, kind: TraceKind, a: u64, b: u64) {
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::lifecycle(kind, self.trace_tag, a, b));
        }
    }

    /// Emit an abort event carrying the cause and the grace period the
    /// arbiter granted on this attempt's last consult (0 when the abort
    /// was not preceded by a consult).
    pub fn trace_abort(&mut self, kind: AbortKind) {
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::abort(self.trace_tag, kind, self.last_grace_ns));
            self.last_grace_ns = 0;
        }
    }

    /// Run `body` as a transaction, retrying on abort, and return its
    /// result.
    pub fn run<T>(&mut self, mut body: impl FnMut(&mut Tx<'_, 's, P>) -> Result<T, Abort>) -> T {
        loop {
            // Relaxed: clearing our own advisory kill flag; a contender's
            // racing store is indistinguishable from one landing a moment
            // later, and either just costs one benign retry.
            self.stm.kill_flags[self.id].store(false, Ordering::Relaxed);
            // Acquire: pairs with committers' AcqRel clock bumps, so
            // every publish at a version ≤ rv happens-before this
            // attempt — reads validated against rv observe fully
            // published state.
            let rv = self.stm.clock.load(Ordering::Acquire);
            let mut reads = std::mem::take(&mut self.read_buf);
            let mut writes = std::mem::take(&mut self.write_buf);
            reads.clear();
            writes.clear();
            let mut tx = Tx {
                ctx: self,
                rv,
                start: Instant::now(),
                reads,
                writes,
                wfilter: KeyFilter::new(),
            };
            let outcome = body(&mut tx).and_then(|v| tx.commit().map(|_| v));
            // Reclaim the set allocations for the next transaction (the
            // whole point of keeping them on the context).
            let Tx { reads, writes, .. } = tx;
            self.read_buf = reads;
            self.write_buf = writes;
            match outcome {
                Ok(v) => {
                    self.stats.commits += 1;
                    self.arbiter.on_commit();
                    return v;
                }
                Err(a) => {
                    self.stats.record_abort(a.into(), 0);
                    self.trace_abort(a.into());
                    self.arbiter.on_abort();
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Number of words in the underlying heap (for request-argument
    /// clamping at the server layer).
    pub fn heap_len(&self) -> usize {
        self.stm.len()
    }

    /// Run `body` as a **read-only snapshot transaction**: sample the
    /// clock once, serve every read from the newest version `<= rv` via
    /// the per-word chains, and restart (fresh sample) on a chain miss.
    /// The fast path takes no locks, records no read set, performs no
    /// validation, and never consults the [`ConflictArbiter`] — under a
    /// bounded chain the read side is wait-free in practice: its only
    /// delay is a writer racing `CHAIN_LEN` publishes past it.
    ///
    /// Counted as a commit (plus `snapshot_reads`) so engine-level
    /// conservation invariants hold regardless of read mode.
    pub fn run_snapshot<T>(
        &mut self,
        mut body: impl FnMut(&mut SnapshotTx<'s>) -> Result<T, SnapshotMiss>,
    ) -> T {
        loop {
            // Acquire: same edge as `run` — publishes at versions ≤ rv
            // are visible, and the PUBLISH_BIT inference in
            // `snapshot_cell` (flagless lock ⇒ pending version > rv)
            // relies on this sample synchronizing with each bump.
            let rv = self.stm.clock.load(Ordering::Acquire);
            let mut snap = SnapshotTx {
                stm: self.stm,
                rv,
                chain_misses: 0,
            };
            let out = body(&mut snap);
            self.stats.chain_misses += snap.chain_misses;
            match out {
                Ok(v) => {
                    self.stats.commits += 1;
                    self.stats.snapshot_reads += 1;
                    self.trace_event(TraceKind::SnapshotRead, snap.chain_misses, 0);
                    return v;
                }
                Err(SnapshotMiss) => {
                    self.stats.snapshot_restarts += 1;
                    self.trace_event(TraceKind::SnapshotRestart, snap.chain_misses, 0);
                    std::hint::spin_loop();
                }
            }
        }
    }
}

impl<'s, P: GracePolicy> Tx<'_, 's, P> {
    fn killed(&self) -> bool {
        // Relaxed: the flag is advisory (carries no data); coherence
        // guarantees a contender's store becomes visible to this
        // periodically-polled load in finite time, and the abort path's
        // Release lock restores carry the actual ordering.
        self.ctx.stm.kill_flags[self.ctx.id].load(Ordering::Relaxed)
    }

    /// Elapsed running time of this attempt, in nanoseconds.
    fn elapsed_ns(&self) -> f64 {
        self.start.elapsed().as_nanos() as f64
    }

    /// Handle an encounter with a word locked by `owner`: wait out a
    /// policy-chosen grace period hoping for release; on expiry resolve
    /// according to the runtime mode. Returns `Ok(())` if the lock was
    /// released within the grace period (caller retries the access).
    fn contend(&mut self, a: Addr, owner: usize) -> Result<(), Abort> {
        let stm = self.ctx.stm;
        // Abort cost of the side that would die: in requestor-aborts, us;
        // in requestor-wins we cannot observe the owner's elapsed time
        // locally, so our own serves as the proxy (both sides run the same
        // workload — documented simplification). The arbiter inflates it
        // by §7 backoff and sanitizes the sampled grace.
        self.ctx.stats.arbiter_consults += 1;
        let decision = self.ctx.arbiter.decide(
            self.elapsed_ns() + self.ctx.cleanup_ns,
            2,
            &mut self.ctx.rng,
        );
        if self.ctx.trace.is_some() {
            // Remembered so the abort event (if this attempt dies) can
            // report the grace the arbiter granted it.
            self.ctx.last_grace_ns = decision.grace as u64;
        }
        let deadline = self.start.elapsed().as_nanos() as f64 + decision.grace;
        let wait_start = Instant::now();
        loop {
            // Relaxed spin: we only watch for the lock bit to drop; the
            // caller's retried access performs its own Acquire load, so
            // no data is consumed under this ordering.
            let meta = stm.pair(a).meta.load(Ordering::Relaxed);
            if !is_locked(meta) {
                self.ctx.stats.wait_cycles += wait_start.elapsed().as_nanos() as u64;
                return Ok(());
            }
            if self.killed() {
                self.ctx.stats.wait_cycles += wait_start.elapsed().as_nanos() as u64;
                return Err(Abort::RemoteKill);
            }
            if self.start.elapsed().as_nanos() as f64 >= deadline {
                self.ctx.stats.wait_cycles += wait_start.elapsed().as_nanos() as u64;
                return match stm.mode {
                    ResolutionMode::RequestorAborts => Err(Abort::Conflict),
                    ResolutionMode::RequestorWins => {
                        // Flag the owner; it self-aborts at its next safe
                        // point and releases its locks. Spin for release.
                        // Relaxed: advisory flag (see `killed`).
                        stm.kill_flags[owner_of(meta).min(stm.kill_flags.len() - 1)]
                            .store(true, Ordering::Relaxed);
                        let _ = owner;
                        loop {
                            // Relaxed spin, as above.
                            let m = stm.pair(a).meta.load(Ordering::Relaxed);
                            if !is_locked(m) {
                                return Ok(());
                            }
                            if self.killed() {
                                return Err(Abort::RemoteKill);
                            }
                            std::hint::spin_loop();
                        }
                    }
                };
            }
            std::hint::spin_loop();
        }
    }

    /// Transactional read.
    pub fn read(&mut self, a: Addr) -> Result<u64, Abort> {
        if self.killed() {
            return Err(Abort::RemoteKill);
        }
        // Read-your-writes (entries are unique per address). The filter
        // short-circuits the common not-written-by-us case in one AND;
        // a hit (possibly false-positive) confirms against the set.
        if self.wfilter.may_contain(a as u64) {
            if let Some(e) = self.writes.iter().find(|e| e.addr == a) {
                return Ok(e.val);
            }
        }
        let pair = self.ctx.stm.pair(a);
        loop {
            // Seqlock word read (TL2 double-check). m1 Acquire: pairs
            // with the publisher's final Release meta store, so seeing
            // version m1 makes m1's value visible below.
            let m1 = pair.meta.load(Ordering::Acquire);
            if is_locked(m1) {
                self.contend(a, owner_of(m1))?;
                continue;
            }
            // Acquire on the value: the m2 load cannot be hoisted above
            // it, and a value stored by an in-flight publisher makes
            // that publisher's locked meta visible to m2 (the publisher
            // locks before storing the value), so m2 != m1 and the torn
            // read is retried.
            let v = pair.value.load(Ordering::Acquire);
            // Relaxed: ordered after the value load by its Acquire; only
            // meta's own coherence (comparison with m1) is consumed.
            let m2 = pair.meta.load(Ordering::Relaxed);
            if m1 != m2 {
                continue; // concurrent writer; retry the read
            }
            if version_of(m1) > self.rv {
                return Err(Abort::Validation); // newer than our snapshot
            }
            self.reads.push((a, m1));
            return Ok(v);
        }
    }

    /// Transactional absolute write (buffered until commit; last write
    /// wins).
    pub fn write(&mut self, a: Addr, v: u64) -> Result<(), Abort> {
        if self.killed() {
            return Err(Abort::RemoteKill);
        }
        if self.wfilter.may_contain(a as u64) {
            if let Some(e) = self.writes.iter_mut().find(|e| e.addr == a) {
                e.val = v;
                return Ok(());
            }
        }
        self.wfilter.insert(a as u64);
        self.writes.push(WriteEntry { addr: a, val: v });
        Ok(())
    }

    /// Transactional increment: read the word (read-your-writes), buffer
    /// its value plus `delta` as a write, and return the incremented value.
    pub fn write_add(&mut self, a: Addr, delta: u64) -> Result<u64, Abort> {
        let val = self.read(a)?.wrapping_add(delta);
        self.write(a, val)?;
        Ok(val)
    }

    /// TL2 commit: the three explicit phases — acquire write locks,
    /// validate the read set, publish under one clock bump. Read-only
    /// transactions commit without locking or bumping.
    fn commit(&mut self) -> Result<(), Abort> {
        if self.writes.is_empty() {
            return Ok(());
        }
        // Address order prevents lock-order deadlocks between committers
        // (entries are already unique per address).
        self.writes.sort_unstable_by_key(|e| e.addr);
        let mut restore = std::mem::take(&mut self.ctx.restore_buf);
        restore.clear();
        let out = self.commit_phases(&mut restore);
        self.ctx.restore_buf = restore;
        out
    }

    /// Phase 1: acquire every write lock in address order, recording the
    /// pre-lock metas in `restore` (parallel to the sorted write set). On
    /// a held lock, contend under the grace policy; on failure, release
    /// everything acquired so far.
    fn acquire_write_locks(&mut self, restore: &mut MetaSet) -> Result<(), Abort> {
        while restore.len() < self.writes.len() {
            let a = self.writes[restore.len()].addr;
            match lock_cell(self.ctx.stm, a, self.ctx.id, self.rv) {
                Ok(prev) => restore.push(prev),
                Err(LockFail::Busy(meta)) => {
                    if let Err(e) = self.contend(a, owner_of(meta)) {
                        self.release_locks(restore);
                        return Err(e);
                    }
                    // Released within grace; retry the acquisition.
                }
                Err(LockFail::Stale) => {
                    self.release_locks(restore);
                    return Err(Abort::Validation);
                }
            }
        }
        Ok(())
    }

    /// Phase 2: every recorded read must still hold at our snapshot. A
    /// word we hold locked ourselves is valid when its *pre-lock* version
    /// (from `restore`, parallel to the sorted write set) was within the
    /// snapshot.
    fn validate_read_set(&self, restore: &[u64]) -> Result<(), Abort> {
        let stm = self.ctx.stm;
        for &(a, m1) in &self.reads {
            // Acquire: pairs with writers' Release meta stores, so a meta
            // equal to m1 proves no publish completed on this word since
            // the read — the TL2 phase-2 invariant that the value read
            // earlier still belongs to version m1.
            let m = stm.pair(a).meta.load(Ordering::Acquire);
            let valid = if is_locked(m) {
                owner_of(m) == self.ctx.id
                    && self.writes[..restore.len()]
                        .binary_search_by_key(&a, |e| e.addr)
                        .is_ok_and(|i| version_of(restore[i]) <= self.rv)
            } else {
                m == m1
            };
            if !valid {
                return Err(Abort::Validation);
            }
        }
        Ok(())
    }

    /// Phase 3: flag the held locks as publishing, one clock bump, then
    /// chain pushes + value stores, then version-release stores. The
    /// [`PUBLISH_BIT`] must go up *before* the bump: a snapshot reader
    /// that sees a flagless lock may conclude the pending version
    /// exceeds its clock sample and trust the chain.
    fn publish_writes(&self) {
        let stm = self.ctx.stm;
        for e in self.writes.iter() {
            // Relaxed: we already own the lock, so no third party may
            // write meta; visibility of the flag to snapshot readers is
            // carried by the AcqRel clock bump below — a reader whose rv
            // covers our bump synchronizes with it and therefore sees
            // the flag (or a later meta) at its own Acquire load. That
            // is exactly the "flagless lock ⇒ pending version > rv"
            // inference.
            stm.pair(e.addr)
                .meta
                .store(pack_locked(self.ctx.id) | PUBLISH_BIT, Ordering::Relaxed);
        }
        // AcqRel: the Release half publishes the PUBLISH_BIT stores
        // above to clock samplers; the Acquire half keeps this bump (and
        // the stores after it) ordered after every earlier committer's
        // publication, preserving version monotonicity per word.
        let wv = stm.clock.fetch_add(1, Ordering::AcqRel) + 1;
        for e in self.writes.iter() {
            let (pair, cold) = stm.parts(e.addr);
            cold.push_chain(wv & VERSION_MASK, e.val);
            // Release: a reader that Acquire-loads this value also sees
            // our locked meta (stored before it), which is what makes
            // the seqlock double-check sound.
            pair.value.store(e.val, Ordering::Release);
        }
        for e in self.writes.iter() {
            // Release — THE publication point: pairs with readers' and
            // validators' Acquire meta loads; observing version wv makes
            // the value and chain stores above visible.
            stm.pair(e.addr)
                .meta
                .store(wv & VERSION_MASK, Ordering::Release);
        }
    }

    fn release_locks(&self, restore: &[u64]) {
        for (e, &prev) in self.writes.iter().zip(restore.iter()) {
            // Release: the unlock side of the meta handoff — pairs with
            // the next acquirer's CAS-Acquire (uniform with the publish
            // store, though an aborting release published nothing).
            self.ctx
                .stm
                .pair(e.addr)
                .meta
                .store(prev, Ordering::Release);
        }
    }

    fn commit_phases(&mut self, restore: &mut MetaSet) -> Result<(), Abort> {
        self.acquire_write_locks(restore)?;
        if !self.writes.is_empty() {
            self.ctx
                .trace_event(TraceKind::Acquire, self.writes.len() as u64, 0);
        }
        if let Err(e) = self.validate_read_set(restore) {
            self.release_locks(restore);
            return Err(e);
        }
        self.ctx
            .trace_event(TraceKind::Validate, self.reads.len() as u64, 0);
        if self.killed() {
            self.release_locks(restore);
            return Err(Abort::RemoteKill);
        }
        self.publish_writes();
        if !self.writes.is_empty() {
            self.ctx
                .trace_event(TraceKind::Publish, self.writes.len() as u64, 0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcp_core::policy::NoDelay;
    use tcp_core::randomized::{RandRa, RandRw};
    use tcp_core::rng::Xoshiro256StarStar;

    fn ctx<P: GracePolicy>(stm: &Stm, id: usize, p: P) -> TxCtx<'_, P> {
        TxCtx::new(stm, id, p, Xoshiro256StarStar::new(id as u64 + 1))
    }

    #[test]
    fn single_thread_read_write() {
        let stm = Stm::new(16, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let out = t.run(|tx| {
            tx.write(3, 7)?;
            tx.write(4, 8)?;
            let a = tx.read(3)?;
            let b = tx.read(4)?;
            Ok(a + b)
        });
        assert_eq!(out, 15);
        assert_eq!(stm.read_direct(3), 7);
        assert_eq!(stm.read_direct(4), 8);
        assert_eq!(t.stats.commits, 1);
        assert_eq!(t.stats.aborts, 0);
    }

    #[test]
    fn read_your_writes_and_last_write_wins() {
        let stm = Stm::new(4, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let v = t.run(|tx| {
            tx.write(0, 1)?;
            tx.write(0, 2)?;
            tx.read(0)
        });
        assert_eq!(v, 2);
        assert_eq!(stm.read_direct(0), 2);
    }

    #[test]
    fn write_add_reads_folds_and_publishes() {
        let stm = Stm::new(8, 1);
        stm.write_direct(2, 10);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let v = t.run(|tx| {
            let a = tx.write_add(2, 5)?; // 15
            let b = tx.write_add(2, 1)?; // folds in-tx: 16
            assert_eq!((a, b), (15, 16));
            tx.read(2) // read-your-writes sees the folded value
        });
        assert_eq!(v, 16);
        assert_eq!(stm.read_direct(2), 16);
        // Set-then-add updates the one entry to the summed value.
        let v = t.run(|tx| {
            tx.write(3, 100)?;
            tx.write_add(3, 7)
        });
        assert_eq!(v, 107);
        assert_eq!(stm.read_direct(3), 107);
    }

    #[test]
    fn read_only_txn_commits_without_clock_bump() {
        let stm = Stm::new(4, 1);
        stm.write_direct(1, 42);
        let before = stm.clock_value();
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let v = t.run(|tx| tx.read(1));
        assert_eq!(v, 42);
        assert_eq!(stm.clock_value(), before);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let stm = Arc::new(Stm::new(4, 8));
        let threads = 8;
        let per = 2_000u64;
        std::thread::scope(|s| {
            for id in 0..threads {
                let stm = Arc::clone(&stm);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRa);
                    for _ in 0..per {
                        t.run(|tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(stm.read_direct(0), threads as u64 * per);
    }

    #[test]
    fn concurrent_counter_requestor_wins_mode() {
        let stm = Arc::new(Stm::with_mode(4, 8, ResolutionMode::RequestorWins));
        let threads = 8;
        let per = 2_000u64;
        let kills: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for id in 0..threads {
                let stm = Arc::clone(&stm);
                let kills = Arc::clone(&kills);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRw);
                    for _ in 0..per {
                        t.run(|tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                    }
                    kills.fetch_add(t.stats.remote_kills, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(stm.read_direct(0), threads as u64 * per);
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let stm = Arc::new(Stm::new(64, 4));
        std::thread::scope(|s| {
            for id in 0..4usize {
                let stm = Arc::clone(&stm);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, NoDelay::requestor_aborts());
                    for i in 0..500u64 {
                        t.run(|tx| tx.write(id * 16, i));
                    }
                    assert_eq!(t.stats.validation_aborts, 0);
                });
            }
        });
    }

    #[test]
    fn snapshot_isolation_of_two_words() {
        // A writer keeps the invariant x == y; readers must never observe
        // x != y (TL2 opacity on the read path).
        let stm = Arc::new(Stm::new(8, 4));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let stm = Arc::clone(&stm);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut t = ctx(&stm, 0, RandRa);
                    let mut i = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        i += 1;
                        t.run(|tx| {
                            tx.write(0, i)?;
                            tx.write(1, i)
                        });
                    }
                });
            }
            for id in 1..4usize {
                let stm = Arc::clone(&stm);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRa);
                    for _ in 0..3_000 {
                        let (x, y) = t.run(|tx| {
                            let x = tx.read(0)?;
                            let y = tx.read(1)?;
                            Ok((x, y))
                        });
                        assert_eq!(x, y, "torn snapshot observed");
                    }
                    stop.store(true, Ordering::SeqCst);
                });
            }
        });
    }

    #[test]
    fn tx_sets_reuse_context_allocations() {
        // A footprint above INLINE_SET spills to the heap; once spilled to
        // the workload's footprint the spill allocation must be recycled
        // verbatim across transactions — no per-txn allocation on the
        // batch-executor hot path.
        let stm = Stm::new(64, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        t.run(|tx| {
            for a in 0..32 {
                tx.write(a, a as u64)?;
                tx.read(a + 32)?; // disjoint: read-your-writes skips the read set
            }
            Ok(())
        });
        assert!(t.read_buf.is_spilled() && t.write_buf.is_spilled());
        let (rp, wp) = (
            t.read_buf.as_slice().as_ptr(),
            t.write_buf.as_slice().as_ptr(),
        );
        for _ in 0..100 {
            t.run(|tx| {
                for a in 0..32 {
                    tx.write(a, 1)?;
                    tx.read(a + 32)?;
                }
                Ok(())
            });
        }
        assert_eq!(
            t.read_buf.as_slice().as_ptr(),
            rp,
            "read set must not reallocate"
        );
        assert_eq!(
            t.write_buf.as_slice().as_ptr(),
            wp,
            "write set must not reallocate"
        );
        assert_eq!(t.stats.commits, 101);
    }

    #[test]
    fn small_footprint_tx_sets_stay_inline() {
        // The serve mix's typical transaction touches ≤ INLINE_SET words;
        // those must never touch the heap at all.
        let stm = Stm::new(64, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        for _ in 0..10 {
            t.run(|tx| {
                for a in 0..INLINE_SET {
                    tx.write(a, 1)?;
                }
                Ok(())
            });
            assert!(!t.write_buf.is_spilled(), "≤N writes must stay inline");
        }
    }

    #[test]
    fn shard_layout_is_a_bijection_and_isolates_shards() {
        for (words, shards) in [(1usize, 1usize), (7, 3), (64, 4), (100, 7), (16, 32)] {
            let l = ShardLayout::new(words, shards);
            let mut seen = std::collections::HashSet::new();
            for k in 0..words {
                let s = l.slot(k);
                assert!(s < l.slots(), "slot {s} out of range for {words}/{shards}");
                assert!(seen.insert(s), "key {k} collides at slot {s}");
                // No two keys of different shards may share a cache line.
                for k2 in 0..words {
                    if k2 % l.shards() != k % l.shards() {
                        assert_ne!(
                            ShardLayout::line_of_slot(l.slot(k2)),
                            ShardLayout::line_of_slot(s),
                            "keys {k}/{k2} of different shards share a line"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hot_line_is_exactly_one_padded_cache_line() {
        assert_eq!(std::mem::size_of::<HotLine>(), 64);
        assert_eq!(std::mem::align_of::<HotLine>(), 64);
        // The Stm allocates lines contiguously, so alignment of the Vec's
        // elements follows from the type's alignment.
        let stm = Stm::with_layout(10, 2, 3, ResolutionMode::RequestorWins);
        assert_eq!(stm.hot.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn version_packing_roundtrip() {
        let m = pack_locked(1234);
        assert!(is_locked(m));
        assert_eq!(owner_of(m), 1234);
        assert!(!is_locked(42));
        assert_eq!(version_of(42), 42);
    }

    #[test]
    fn max_owner_id_does_not_clobber_the_lock_bit() {
        // The owner field is 15 bits (48..62); bit 63 is the lock bit. A
        // 16-bit owner field would let owner ids >= 2^15 flip the lock bit
        // and corrupt every is_locked/owner_of/version_of read.
        let m = pack_locked(MAX_OWNER);
        assert!(is_locked(m), "packing the max owner must stay locked");
        assert_eq!(owner_of(m), MAX_OWNER);
        assert_eq!(version_of(m), 0, "owner bits must not leak into version");
        // The full round trip at every field boundary.
        for owner in [0, 1, MAX_OWNER / 2, MAX_OWNER - 1, MAX_OWNER] {
            let m = pack_locked(owner);
            assert!(is_locked(m));
            assert_eq!(owner_of(m), owner);
        }
    }

    // ---- snapshot (MVCC) reads ----

    #[test]
    fn snapshot_read_sees_seeded_and_committed_state() {
        let stm = Stm::new(8, 1);
        stm.write_direct(0, 5); // seeded at version 0 → chain-visible
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        t.run(|tx| tx.write(1, 7));
        let sum = t.run_snapshot(|snap| Ok(snap.read(0)? + snap.read(1)?));
        assert_eq!(sum, 12);
        assert_eq!(t.stats.snapshot_reads, 1);
        assert_eq!(t.stats.snapshot_restarts, 0);
        assert_eq!(t.stats.chain_misses, 0);
        assert_eq!(t.stats.aborts, 0);
        // Snapshot commits count as commits (conservation invariant).
        assert_eq!(t.stats.commits, 2);
    }

    #[test]
    fn snapshot_read_serves_historical_versions_from_the_chain() {
        let stm = Stm::new(4, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        // Versions 1..=6 carry values 1..=6 on word 0.
        for i in 1..=6u64 {
            t.run(|tx| tx.write(0, i));
        }
        // rv = 4 is retained (chain holds versions 3..=6): value 4.
        let mut snap = SnapshotTx {
            stm: &stm,
            rv: 4,
            chain_misses: 0,
        };
        assert_eq!(snap.read(0), Ok(4));
        // rv = 1 fell off the bounded chain: a miss, not a wrong value.
        let mut snap = SnapshotTx {
            stm: &stm,
            rv: 1,
            chain_misses: 0,
        };
        assert_eq!(snap.read(0), Err(SnapshotMiss));
        assert_eq!(snap.chain_misses, 1);
        // An unwritten word is version-0 zero at any snapshot.
        let mut snap = SnapshotTx {
            stm: &stm,
            rv: 0,
            chain_misses: 0,
        };
        assert_eq!(snap.read(3), Ok(0));
    }

    #[test]
    fn snapshot_readers_never_tear_under_concurrent_writers() {
        // The writer keeps x == y transactionally; snapshot readers must
        // observe the invariant at every sampled clock — without a single
        // abort, validation, or arbiter consultation on the read side.
        let stm = Arc::new(Stm::new(8, 4));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let stm = Arc::clone(&stm);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut t = ctx(&stm, 0, RandRa);
                    let mut i = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        i += 1;
                        t.run(|tx| {
                            tx.write(0, i)?;
                            tx.write(1, i)
                        });
                    }
                });
            }
            for id in 1..4usize {
                let stm = Arc::clone(&stm);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRa);
                    for _ in 0..3_000 {
                        let (x, y) = t.run_snapshot(|snap| Ok((snap.read(0)?, snap.read(1)?)));
                        assert_eq!(x, y, "torn snapshot observed");
                    }
                    assert_eq!(t.stats.aborts, 0, "snapshot reads must not abort");
                    assert_eq!(t.stats.arbiter_consults, 0);
                    assert_eq!(t.stats.snapshot_reads, 3_000);
                    stop.store(true, Ordering::SeqCst);
                });
            }
        });
    }
}
