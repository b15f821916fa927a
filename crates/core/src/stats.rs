//! Process-wide BRAVO statistics.
//!
//! The paper's discussion (and its TODO list) calls for reporting the
//! fast-read fraction `NFast / (NFast + NSlow)` and a breakdown of why slow
//! reads happened (bias disabled vs. collision vs. losing the race with a
//! writer), plus how often writers had to revoke. The reproduction
//! experiments use these numbers to show *why* BRAVO wins even when absolute
//! scalability is limited by the host.
//!
//! Counters are sharded per thread (each registered thread owns a cache-
//! padded block of atomics and only ever writes its own block) so that the
//! instrumentation itself does not introduce the write-sharing BRAVO is
//! designed to remove — the same reason the paper keeps `lockstat` disabled
//! while measuring.
//!
//! Cost model: a fast read is counted once, as a publication into its table
//! shard (`fast_reads` is the sum of `shard_publishes`). That is one plain
//! load + store into the thread's own block — no atomic read-modify-write,
//! because nothing else ever writes the block — plus, under a
//! [`StatsSink::PerLock`] sink, one `fetch_add` on the lock's stripe, which
//! threads with the same `id % 8` share. Every count stays exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use topology::CachePadded;

use crate::vrt::{tracked_shard, Revocation, MAX_TRACKED_SHARDS};

/// Who writes a counter block, which decides how [`ThreadCounters::bump`]
/// increments it.
#[derive(Default)]
enum Writers {
    /// Every thread whose id hashes to it (a [`LockStats`] stripe):
    /// increments are atomic `fetch_add`s.
    #[default]
    Shared,
    /// Only the thread that registered it (a registry block): increments are
    /// a plain load + store. Debug builds remember the owner and check every
    /// increment against it.
    Owner {
        #[cfg(debug_assertions)]
        thread: topology::ThreadId,
    },
}

/// One thread's (or stripe's) counter block.
#[derive(Default)]
struct ThreadCounters {
    writers: Writers,
    slow_reads_disabled: AtomicU64,
    slow_reads_collision: AtomicU64,
    slow_reads_raced: AtomicU64,
    writes: AtomicU64,
    revocations: AtomicU64,
    revocation_wait_conflicts: AtomicU64,
    revocation_scan_slots: AtomicU64,
    bias_enabled: AtomicU64,
    parked_waits: AtomicU64,
    futex_waits: AtomicU64,
    futex_wakes: AtomicU64,
    futex_eagain: AtomicU64,
    adapt_flips: AtomicU64,
    /// Fast reads, by the table shard they published into.
    shard_publishes: [AtomicU64; MAX_TRACKED_SHARDS],
    shard_collisions: [AtomicU64; MAX_TRACKED_SHARDS],
    shard_conflicts: [AtomicU64; MAX_TRACKED_SHARDS],
}

impl ThreadCounters {
    /// Adds `n` to one of this block's counters. An owner-only block has a
    /// single writer, so a load + store loses no update and the aggregator's
    /// Relaxed loads still read whole values; shared stripes need the RMW.
    #[inline]
    fn bump(&self, counter: &AtomicU64, n: u64) {
        match self.writers {
            Writers::Shared => {
                counter.fetch_add(n, Ordering::Relaxed);
            }
            Writers::Owner {
                #[cfg(debug_assertions)]
                thread,
            } => {
                #[cfg(debug_assertions)]
                assert_eq!(
                    thread,
                    topology::current_thread_id(),
                    "stats block written by a thread that does not own it"
                );
                counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn add_fast_read(&self, shard: usize) {
        self.bump(&self.shard_publishes[tracked_shard(shard)], 1);
    }

    #[inline]
    fn add_slow_read(&self, reason: SlowReadReason) {
        let counter = match reason {
            SlowReadReason::BiasDisabled => &self.slow_reads_disabled,
            SlowReadReason::Collision => &self.slow_reads_collision,
            SlowReadReason::Raced => &self.slow_reads_raced,
        };
        self.bump(counter, 1);
    }

    #[inline]
    fn add_write(&self, revoked: bool, wait_conflicts: u64) {
        self.bump(&self.writes, 1);
        if revoked {
            self.bump(&self.revocations, 1);
            self.bump(&self.revocation_wait_conflicts, wait_conflicts);
        }
    }

    #[inline]
    fn add_revocation_scan(&self, slots: usize) {
        self.bump(&self.revocation_scan_slots, slots as u64);
    }

    #[inline]
    fn add_bias_enabled(&self) {
        self.bump(&self.bias_enabled, 1);
    }

    #[inline]
    fn add_parked_wait(&self) {
        self.bump(&self.parked_waits, 1);
    }

    #[inline]
    fn add_futex_wait(&self) {
        self.bump(&self.futex_waits, 1);
    }

    #[inline]
    fn add_futex_wake(&self) {
        self.bump(&self.futex_wakes, 1);
    }

    #[inline]
    fn add_futex_eagain(&self) {
        self.bump(&self.futex_eagain, 1);
    }

    #[inline]
    fn add_adapt_flip(&self) {
        self.bump(&self.adapt_flips, 1);
    }

    #[inline]
    fn add_shard_collision(&self, shard: usize) {
        self.bump(&self.shard_collisions[tracked_shard(shard)], 1);
    }

    #[inline]
    fn add_shard_conflicts(&self, per_shard: &[u64; MAX_TRACKED_SHARDS]) {
        for (counter, &n) in self.shard_conflicts.iter().zip(per_shard) {
            if n > 0 {
                self.bump(counter, n);
            }
        }
    }

    fn accumulate_into(&self, out: &mut Snapshot) {
        out.slow_reads_disabled += self.slow_reads_disabled.load(Ordering::Relaxed);
        out.slow_reads_collision += self.slow_reads_collision.load(Ordering::Relaxed);
        out.slow_reads_raced += self.slow_reads_raced.load(Ordering::Relaxed);
        out.writes += self.writes.load(Ordering::Relaxed);
        out.revocations += self.revocations.load(Ordering::Relaxed);
        out.revocation_wait_conflicts += self.revocation_wait_conflicts.load(Ordering::Relaxed);
        out.revocation_scan_slots += self.revocation_scan_slots.load(Ordering::Relaxed);
        out.bias_enabled += self.bias_enabled.load(Ordering::Relaxed);
        out.parked_waits += self.parked_waits.load(Ordering::Relaxed);
        out.futex_waits += self.futex_waits.load(Ordering::Relaxed);
        out.futex_wakes += self.futex_wakes.load(Ordering::Relaxed);
        out.futex_eagain += self.futex_eagain.load(Ordering::Relaxed);
        out.adapt_flips += self.adapt_flips.load(Ordering::Relaxed);
        for shard in 0..MAX_TRACKED_SHARDS {
            let published = self.shard_publishes[shard].load(Ordering::Relaxed);
            out.shard_publishes[shard] += published;
            out.fast_reads += published;
            out.shard_collisions[shard] += self.shard_collisions[shard].load(Ordering::Relaxed);
            out.shard_conflicts[shard] += self.shard_conflicts[shard].load(Ordering::Relaxed);
        }
    }
}

/// Why a reader ended up on the slow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowReadReason {
    /// The lock's bias flag was not set when the reader arrived.
    BiasDisabled,
    /// The hashed slot in the visible readers table was already occupied.
    Collision,
    /// The CAS succeeded but a writer cleared the bias flag concurrently and
    /// the reader lost the race on the re-check.
    Raced,
}

/// Immutable snapshot of the aggregated counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Reads that completed on the BRAVO fast path: the sum of
    /// [`shard_publishes`](Self::shard_publishes), since each fast read is
    /// recorded once, as its publication.
    pub fast_reads: u64,
    /// Slow reads because bias was disabled.
    pub slow_reads_disabled: u64,
    /// Slow reads because of a slot collision.
    pub slow_reads_collision: u64,
    /// Slow reads because the reader lost the race with a revoking writer.
    pub slow_reads_raced: u64,
    /// Write acquisitions.
    pub writes: u64,
    /// Write acquisitions that performed revocation.
    pub revocations: u64,
    /// Fast-path readers that revoking writers had to wait for.
    pub revocation_wait_conflicts: u64,
    /// Total slots visited by revocation scans.
    pub revocation_scan_slots: u64,
    /// Times a slow-path reader re-enabled bias.
    pub bias_enabled: u64,
    /// Wait episodes that actually parked the thread (a `wait=park` lock
    /// whose spin grace period expired). Zero under `wait=spin`.
    pub parked_waits: u64,
    /// `FUTEX_WAIT` syscalls issued by `wait=futex` locks (each one is a
    /// kernel transition the spin grace period failed to avoid). Sleeps that
    /// actually blocked are *also* counted in [`parked_waits`](Self::parked_waits)
    /// so wait modes stay comparable on one column.
    pub futex_waits: u64,
    /// `FUTEX_WAKE` syscalls issued on `wait=futex` notify paths (skipped
    /// entirely when no waiter was registered — the uncontended fast path).
    pub futex_wakes: u64,
    /// `FUTEX_WAIT` calls that returned `EAGAIN`: the wake generation moved
    /// between the user-space check and the kernel's atomic re-check, i.e. a
    /// wake raced ahead of the sleep and the syscall never blocked.
    pub futex_eagain: u64,
    /// Adaptive-bias policy flips (enable or disable decisions taken by an
    /// `adapt=on` lock's epoch sampler).
    pub adapt_flips: u64,
    /// Fast reads per tracked table shard they published into (occupancy
    /// pressure; flat tables attribute everything to shard 0, shards beyond
    /// [`MAX_TRACKED_SHARDS`] fold into the last bucket). Sums to
    /// [`fast_reads`](Self::fast_reads).
    pub shard_publishes: [u64; MAX_TRACKED_SHARDS],
    /// Slot collisions per tracked table shard — the cross-lock conflicts
    /// the interference experiment reports.
    pub shard_collisions: [u64; MAX_TRACKED_SHARDS],
    /// Revocation-wait conflicts per tracked table shard.
    pub shard_conflicts: [u64; MAX_TRACKED_SHARDS],
}

impl Snapshot {
    /// Total read acquisitions, fast and slow.
    pub fn total_reads(&self) -> u64 {
        self.fast_reads + self.slow_reads()
    }

    /// Total slow-path read acquisitions.
    pub fn slow_reads(&self) -> u64 {
        self.slow_reads_disabled + self.slow_reads_collision + self.slow_reads_raced
    }

    /// Fraction of reads that used the fast path (0 when there were no
    /// reads).
    pub fn fast_read_fraction(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            0.0
        } else {
            self.fast_reads as f64 / total as f64
        }
    }

    /// Fraction of writes that had to revoke bias (0 when there were no
    /// writes).
    pub fn revocation_fraction(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.revocations as f64 / self.writes as f64
        }
    }

    /// Total cross-lock slot collisions over the tracked shards.
    pub fn total_shard_collisions(&self) -> u64 {
        self.shard_collisions.iter().sum()
    }

    /// Average slots visited per revocation scan (0 when there were none).
    pub fn scan_slots_per_revocation(&self) -> f64 {
        if self.revocations == 0 {
            0.0
        } else {
            self.revocation_scan_slots as f64 / self.revocations as f64
        }
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            fast_reads: self.fast_reads - earlier.fast_reads,
            slow_reads_disabled: self.slow_reads_disabled - earlier.slow_reads_disabled,
            slow_reads_collision: self.slow_reads_collision - earlier.slow_reads_collision,
            slow_reads_raced: self.slow_reads_raced - earlier.slow_reads_raced,
            writes: self.writes - earlier.writes,
            revocations: self.revocations - earlier.revocations,
            revocation_wait_conflicts: self.revocation_wait_conflicts
                - earlier.revocation_wait_conflicts,
            revocation_scan_slots: self.revocation_scan_slots - earlier.revocation_scan_slots,
            bias_enabled: self.bias_enabled - earlier.bias_enabled,
            parked_waits: self.parked_waits - earlier.parked_waits,
            futex_waits: self.futex_waits - earlier.futex_waits,
            futex_wakes: self.futex_wakes - earlier.futex_wakes,
            futex_eagain: self.futex_eagain - earlier.futex_eagain,
            adapt_flips: self.adapt_flips - earlier.adapt_flips,
            shard_publishes: array_sub(&self.shard_publishes, &earlier.shard_publishes),
            shard_collisions: array_sub(&self.shard_collisions, &earlier.shard_collisions),
            shard_conflicts: array_sub(&self.shard_conflicts, &earlier.shard_conflicts),
        }
    }

    /// Elementwise sum of two snapshots (used to aggregate a pool of
    /// per-lock sinks into one view).
    pub fn merged(&self, other: &Snapshot) -> Snapshot {
        Snapshot {
            fast_reads: self.fast_reads + other.fast_reads,
            slow_reads_disabled: self.slow_reads_disabled + other.slow_reads_disabled,
            slow_reads_collision: self.slow_reads_collision + other.slow_reads_collision,
            slow_reads_raced: self.slow_reads_raced + other.slow_reads_raced,
            writes: self.writes + other.writes,
            revocations: self.revocations + other.revocations,
            revocation_wait_conflicts: self.revocation_wait_conflicts
                + other.revocation_wait_conflicts,
            revocation_scan_slots: self.revocation_scan_slots + other.revocation_scan_slots,
            bias_enabled: self.bias_enabled + other.bias_enabled,
            parked_waits: self.parked_waits + other.parked_waits,
            futex_waits: self.futex_waits + other.futex_waits,
            futex_wakes: self.futex_wakes + other.futex_wakes,
            futex_eagain: self.futex_eagain + other.futex_eagain,
            adapt_flips: self.adapt_flips + other.adapt_flips,
            shard_publishes: array_add(&self.shard_publishes, &other.shard_publishes),
            shard_collisions: array_add(&self.shard_collisions, &other.shard_collisions),
            shard_conflicts: array_add(&self.shard_conflicts, &other.shard_conflicts),
        }
    }
}

fn array_sub(
    a: &[u64; MAX_TRACKED_SHARDS],
    b: &[u64; MAX_TRACKED_SHARDS],
) -> [u64; MAX_TRACKED_SHARDS] {
    std::array::from_fn(|i| a[i] - b[i])
}

fn array_add(
    a: &[u64; MAX_TRACKED_SHARDS],
    b: &[u64; MAX_TRACKED_SHARDS],
) -> [u64; MAX_TRACKED_SHARDS] {
    std::array::from_fn(|i| a[i] + b[i])
}

/// Formats the first `shards` tracked buckets of a per-shard counter array
/// as a compact `a:b:…` cell for result tables.
pub fn format_shard_counts(counts: &[u64; MAX_TRACKED_SHARDS], shards: usize) -> String {
    counts
        .iter()
        .take(shards.clamp(1, MAX_TRACKED_SHARDS))
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(":")
}

/// Registry of every thread's counter block.
///
/// Blocks are leaked deliberately: a thread may exit while an aggregator
/// still wants to read its totals, and the per-thread block is ~128 bytes.
struct Registry {
    blocks: Mutex<Vec<&'static CachePadded<ThreadCounters>>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        blocks: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static LOCAL: &'static CachePadded<ThreadCounters> = {
        let block: &'static CachePadded<ThreadCounters> =
            Box::leak(Box::new(CachePadded::new(ThreadCounters {
                writers: Writers::Owner {
                    #[cfg(debug_assertions)]
                    thread: topology::current_thread_id(),
                },
                ..ThreadCounters::default()
            })));
        registry().blocks.lock().expect("stats registry poisoned").push(block);
        block
    };
}

#[inline]
fn with_local<F: FnOnce(&ThreadCounters)>(f: F) {
    LOCAL.with(|c| f(c));
}

/// Records a fast-path read acquisition, attributed to shard 0 as a flat
/// table's publications are.
#[inline]
pub fn record_fast_read() {
    with_local(|c| c.add_fast_read(0));
}

/// Records a slow-path read acquisition and the reason it was slow.
#[inline]
pub fn record_slow_read(reason: SlowReadReason) {
    with_local(|c| c.add_slow_read(reason));
}

/// Records a write acquisition; `revoked` says whether bias revocation was
/// necessary and `wait_conflicts` how many fast-path readers had to be
/// waited for.
#[inline]
pub fn record_write(revoked: bool, wait_conflicts: u64) {
    with_local(|c| c.add_write(revoked, wait_conflicts));
}

/// Records the number of slots visited by one revocation scan.
#[inline]
pub fn record_revocation_scan(slots: usize) {
    with_local(|c| c.add_revocation_scan(slots));
}

/// Records that a slow-path reader re-enabled bias.
#[inline]
pub fn record_bias_enabled() {
    with_local(|c| c.add_bias_enabled());
}

/// Records one wait episode that parked the calling thread (recorded by the
/// [`crate::wait`] queues; raw locks have no per-lock sink, so parks are
/// process-global only).
#[inline]
pub fn record_parked_wait() {
    with_local(|c| c.add_parked_wait());
}

/// Records one `FUTEX_WAIT` syscall issued by the futex wait backend (same
/// process-global-only attribution as [`record_parked_wait`]).
#[inline]
pub fn record_futex_wait() {
    with_local(|c| c.add_futex_wait());
}

/// Records one `FUTEX_WAKE` syscall issued by the futex notify path.
#[inline]
pub fn record_futex_wake() {
    with_local(|c| c.add_futex_wake());
}

/// Records one `FUTEX_WAIT` that returned `EAGAIN` (wake raced the sleep).
#[inline]
pub fn record_futex_eagain() {
    with_local(|c| c.add_futex_eagain());
}

/// Records one adaptive-bias policy flip.
#[inline]
pub fn record_adapt_flip() {
    with_local(|c| c.add_adapt_flip());
}

/// Records a slot collision in a table shard (the reader found the slot
/// occupied and fell back to the slow path).
#[inline]
pub fn record_shard_collision(shard: usize) {
    with_local(|c| c.add_shard_collision(shard));
}

/// Records the per-shard conflict breakdown of one revocation scan.
#[inline]
pub fn record_shard_conflicts(per_shard: &[u64; MAX_TRACKED_SHARDS]) {
    with_local(|c| c.add_shard_conflicts(per_shard));
}

/// Aggregates all threads' counters into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    let blocks = registry().blocks.lock().expect("stats registry poisoned");
    for c in blocks.iter() {
        c.accumulate_into(&mut out);
    }
    out
}

/// Number of counter stripes in a [`LockStats`] block. Threads hash over the
/// stripes by id, so up to this many recording threads proceed without
/// write-sharing a counter line.
const LOCK_STAT_STRIPES: usize = 8;

/// Per-lock statistics: a small striped set of counter blocks owned by one
/// lock instance.
///
/// The process-global counters answer "what did BRAVO do in this process";
/// they cannot attribute events to individual locks, so two locks measured
/// in one run smear each other's fast-read fractions. A `LockStats` block is
/// owned by a single lock (via [`StatsSink::PerLock`]) and aggregates only
/// that lock's events. Recording threads are striped over
/// `LOCK_STAT_STRIPES` cache-padded blocks by thread id — coarser than the
/// global registry's block-per-thread, in exchange for a bounded per-lock
/// footprint. Threads that share a stripe increment it with `fetch_add`.
pub struct LockStats {
    stripes: Box<[CachePadded<ThreadCounters>]>,
}

impl LockStats {
    /// Creates a zeroed per-lock counter block.
    pub fn new() -> Self {
        Self {
            stripes: (0..LOCK_STAT_STRIPES)
                .map(|_| CachePadded::new(ThreadCounters::default()))
                .collect(),
        }
    }

    #[inline]
    fn stripe(&self) -> &ThreadCounters {
        &self.stripes[topology::current_thread_id().as_usize() % LOCK_STAT_STRIPES]
    }

    /// Aggregates this lock's counters into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut out = Snapshot::default();
        for stripe in self.stripes.iter() {
            stripe.accumulate_into(&mut out);
        }
        out
    }
}

impl Default for LockStats {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LockStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// Where a lock's instrumentation events go.
///
/// Every recording method also feeds the process-global registry, so
/// whole-run aggregates (e.g. `repro_all`'s summary) stay meaningful no
/// matter how individual locks are configured; a [`StatsSink::PerLock`] sink
/// *additionally* attributes the events to its own [`LockStats`] block,
/// which [`StatsSink::snapshot`] then reads instead of the global counters.
#[derive(Clone, Default)]
pub enum StatsSink {
    /// Record into the process-global sharded counters only.
    #[default]
    Global,
    /// Record into a per-lock counter block (and tee into the globals).
    PerLock(Arc<LockStats>),
}

impl StatsSink {
    /// Creates a sink with a fresh per-lock counter block.
    pub fn per_lock() -> Self {
        StatsSink::PerLock(Arc::new(LockStats::new()))
    }

    /// Whether this sink attributes events to a single lock.
    pub fn is_per_lock(&self) -> bool {
        matches!(self, StatsSink::PerLock(_))
    }

    /// The counters this sink resolves to: the per-lock block for
    /// [`StatsSink::PerLock`], the process-global aggregate for
    /// [`StatsSink::Global`].
    pub fn snapshot(&self) -> Snapshot {
        match self {
            StatsSink::Global => snapshot(),
            StatsSink::PerLock(stats) => stats.snapshot(),
        }
    }

    /// Records a slow-path read acquisition and why it was slow.
    #[inline]
    pub fn record_slow_read(&self, reason: SlowReadReason) {
        record_slow_read(reason);
        if let StatsSink::PerLock(stats) = self {
            stats.stripe().add_slow_read(reason);
        }
    }

    /// Records a write acquisition (see [`record_write`]).
    #[inline]
    pub fn record_write(&self, revoked: bool, wait_conflicts: u64) {
        record_write(revoked, wait_conflicts);
        if let StatsSink::PerLock(stats) = self {
            stats.stripe().add_write(revoked, wait_conflicts);
        }
    }

    /// Records the slot count of one revocation scan.
    #[inline]
    pub fn record_revocation_scan(&self, slots: usize) {
        record_revocation_scan(slots);
        if let StatsSink::PerLock(stats) = self {
            stats.stripe().add_revocation_scan(slots);
        }
    }

    /// Records that a slow-path reader re-enabled bias.
    #[inline]
    pub fn record_bias_enabled(&self) {
        record_bias_enabled();
        if let StatsSink::PerLock(stats) = self {
            stats.stripe().add_bias_enabled();
        }
    }

    /// Records one adaptive-bias policy flip.
    #[inline]
    pub fn record_adapt_flip(&self) {
        record_adapt_flip();
        if let StatsSink::PerLock(stats) = self {
            stats.stripe().add_adapt_flip();
        }
    }

    /// Records a fast-path read acquisition that published into the given
    /// table shard. This one event is both the fast read and the shard
    /// publication: one store into the thread's own block, plus one
    /// `fetch_add` on the lock's stripe under a per-lock sink.
    #[inline]
    pub fn record_fast_read_in(&self, shard: usize) {
        with_local(|c| c.add_fast_read(shard));
        if let StatsSink::PerLock(stats) = self {
            stats.stripe().add_fast_read(shard);
        }
    }

    /// Records a slot collision in a table shard. The matching
    /// [`SlowReadReason::Collision`] slow read is recorded separately by
    /// the fallback path.
    #[inline]
    pub fn record_shard_collision(&self, shard: usize) {
        record_shard_collision(shard);
        if let StatsSink::PerLock(stats) = self {
            stats.stripe().add_shard_collision(shard);
        }
    }

    /// Records the table-side outcome of one revocation scan: the slots it
    /// visited and the per-shard conflict breakdown. The write acquisition
    /// itself is recorded by [`StatsSink::record_write`].
    #[inline]
    pub fn record_revocation(&self, rev: &Revocation) {
        record_revocation_scan(rev.scanned_slots);
        record_shard_conflicts(&rev.conflicts_per_shard);
        if let StatsSink::PerLock(stats) = self {
            let stripe = stats.stripe();
            stripe.add_revocation_scan(rev.scanned_slots);
            stripe.add_shard_conflicts(&rev.conflicts_per_shard);
        }
    }
}

impl std::fmt::Debug for StatsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsSink::Global => write!(f, "StatsSink::Global"),
            StatsSink::PerLock(_) => write!(f, "StatsSink::PerLock"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let before = snapshot();
        record_fast_read();
        record_fast_read();
        record_slow_read(SlowReadReason::Collision);
        record_write(true, 3);
        record_write(false, 0);
        record_bias_enabled();
        let delta = snapshot().since(&before);
        // Other tests in this crate may record counters concurrently, so the
        // assertions are lower bounds rather than exact equalities.
        assert!(delta.fast_reads >= 2);
        assert!(delta.slow_reads_collision >= 1);
        assert!(delta.slow_reads() >= 1);
        assert!(delta.total_reads() >= 3);
        assert!(delta.writes >= 2);
        assert!(delta.revocations >= 1);
        assert!(delta.revocation_wait_conflicts >= 3);
        assert!(delta.bias_enabled >= 1);
    }

    /// The calling thread's own registry block. Nothing else writes it, so
    /// deltas over it are exact even while other tests record concurrently.
    fn local_snapshot() -> Snapshot {
        let mut out = Snapshot::default();
        LOCAL.with(|c| c.accumulate_into(&mut out));
        out
    }

    #[test]
    fn flat_fast_reads_land_in_shard_zero() {
        let before = local_snapshot();
        record_fast_read();
        record_fast_read();
        let delta = local_snapshot().since(&before);
        assert_eq!(delta.shard_publishes[0], 2);
        assert_eq!(delta.shard_publishes.iter().sum::<u64>(), 2);
        assert_eq!(delta.fast_reads, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "does not own")]
    fn owner_only_blocks_reject_other_writers() {
        let block = ThreadCounters {
            writers: Writers::Owner {
                thread: topology::ThreadId(usize::MAX),
            },
            ..ThreadCounters::default()
        };
        block.add_write(false, 0);
    }

    #[test]
    fn fractions_handle_zero_denominators() {
        let s = Snapshot::default();
        assert_eq!(s.fast_read_fraction(), 0.0);
        assert_eq!(s.revocation_fraction(), 0.0);
    }

    #[test]
    fn counts_from_other_threads_are_visible() {
        let before = snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        record_fast_read();
                    }
                });
            }
        });
        let delta = snapshot().since(&before);
        assert!(delta.fast_reads >= 400);
    }

    #[test]
    fn per_lock_sinks_do_not_bleed_into_each_other() {
        let a = StatsSink::per_lock();
        let b = StatsSink::per_lock();
        a.record_fast_read_in(0);
        a.record_fast_read_in(0);
        b.record_write(true, 1);
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa.fast_reads, 2);
        assert_eq!(sa.writes, 0);
        assert_eq!(sb.writes, 1);
        assert_eq!(sb.revocations, 1);
        assert_eq!(sb.total_reads(), 0);
    }

    #[test]
    fn per_lock_sink_tees_into_the_global_registry() {
        let before = snapshot();
        let sink = StatsSink::per_lock();
        sink.record_slow_read(SlowReadReason::Collision);
        sink.record_bias_enabled();
        let delta = snapshot().since(&before);
        assert!(delta.slow_reads_collision >= 1);
        assert!(delta.bias_enabled >= 1);
    }

    #[test]
    fn per_lock_counts_from_other_threads_aggregate() {
        let sink = StatsSink::per_lock();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        sink.record_fast_read_in(0);
                    }
                });
            }
        });
        assert_eq!(sink.snapshot().fast_reads, 200);
    }

    #[test]
    fn global_sink_snapshot_matches_process_totals() {
        let sink = StatsSink::default();
        assert!(!sink.is_per_lock());
        sink.record_fast_read_in(0);
        // A Global sink resolves to the process aggregate.
        assert!(sink.snapshot().fast_reads >= 1);
    }

    #[test]
    fn shard_counters_attribute_fold_and_diff() {
        let sink = StatsSink::per_lock();
        sink.record_fast_read_in(1);
        sink.record_fast_read_in(1);
        sink.record_shard_collision(0);
        // Shards past the tracked range fold into the last bucket.
        sink.record_shard_collision(MAX_TRACKED_SHARDS + 3);
        let mut per_shard = [0u64; MAX_TRACKED_SHARDS];
        per_shard[2] = 4;
        sink.record_revocation(&Revocation {
            conflicts: 4,
            scanned_slots: 128,
            conflicts_per_shard: per_shard,
        });
        let s = sink.snapshot();
        assert_eq!(s.fast_reads, 2);
        assert_eq!(s.shard_publishes[1], 2);
        assert_eq!(s.shard_collisions[0], 1);
        assert_eq!(s.shard_collisions[MAX_TRACKED_SHARDS - 1], 1);
        assert_eq!(s.total_shard_collisions(), 2);
        assert_eq!(s.shard_conflicts[2], 4);
        assert_eq!(s.revocation_scan_slots, 128);
        // Diff and merge stay elementwise.
        let d = s.since(&Snapshot::default());
        assert_eq!(d.shard_publishes, s.shard_publishes);
        let m = s.merged(&s);
        assert_eq!(m.shard_conflicts[2], 8);
        assert_eq!(m.fast_reads, 4);
    }

    #[test]
    fn shard_cells_format_compactly() {
        let mut counts = [0u64; MAX_TRACKED_SHARDS];
        counts[0] = 3;
        counts[1] = 1;
        assert_eq!(format_shard_counts(&counts, 2), "3:1");
        assert_eq!(format_shard_counts(&counts, 1), "3");
        assert_eq!(format_shard_counts(&counts, 0), "3");
        assert_eq!(
            format_shard_counts(&counts, MAX_TRACKED_SHARDS + 4),
            "3:1:0:0:0:0:0:0"
        );
    }

    #[test]
    fn scan_slots_per_revocation_handles_zero() {
        assert_eq!(Snapshot::default().scan_slots_per_revocation(), 0.0);
        let s = Snapshot {
            revocations: 2,
            revocation_scan_slots: 100,
            ..Snapshot::default()
        };
        assert_eq!(s.scan_slots_per_revocation(), 50.0);
    }

    #[test]
    fn fast_read_fraction_is_bounded() {
        let before = snapshot();
        record_fast_read();
        record_slow_read(SlowReadReason::BiasDisabled);
        let delta = snapshot().since(&before);
        let f = delta.fast_read_fraction();
        assert!((0.0..=1.0).contains(&f));
    }
}
