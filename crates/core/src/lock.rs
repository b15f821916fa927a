//! The raw BRAVO lock: Listing 1 of the paper, generic over the underlying
//! reader-writer lock.
//!
//! This is the token-based form of the algorithm: `read_lock` returns a
//! [`ReadToken`] that records whether the acquisition used the fast path
//! (and if so, which slot of the visible readers table it occupies), and the
//! token must be handed back to `read_unlock`. The guard-based, data-carrying
//! form lives in [`crate::rwlock`]; kernel-style integrations (`rwsem`) use
//! this raw form directly, exactly as the Linux patch threads the slot from
//! acquisition to release.

use std::sync::Arc;
use std::time::Duration;

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::clock::now_ns;
use crate::policy::{AdaptiveBias, BiasPolicy};
use crate::raw::{DefaultRwLock, RawRwLock, RawTryRwLock};
use crate::stats::{SlowReadReason, StatsSink};
use crate::vrt::TableHandle;
use crate::wait::{WaitMode, WaitStrategy};

/// Fault injection for the model checker's self-test.
///
/// `schedcheck`'s value rests on actually finding the bugs this codebase has
/// already had, or could easily get. This module re-introduces two
/// missing-wakeup bugs on the fast path, each of which leaves a revoking
/// writer parked forever on a slot that already emptied; the checker must
/// drive the deadlock within its schedule budget — see
/// `tests/schedcheck_mutation.rs`.
///
/// * *Lost wakeup* (fixed when revokers learned to park): a fast-path
///   reader that publishes its table slot, loses the race with a revoking
///   writer, and backs out *without* waking the writer.
/// * *Early bias check*: `read_unlock` loads the bias flag *before* clearing
///   its slot instead of after, so a revoker that clears the flag and scans
///   in between is never notified.
///
/// Compiled only under the `schedcheck` feature, so release builds carry no
/// trace of it. Enabled programmatically via the setters, or by setting the
/// `BRAVO_MUTATE_LOST_WAKEUP` / `BRAVO_MUTATE_EARLY_BIAS_CHECK` environment
/// variables.
#[cfg(feature = "schedcheck")]
pub mod mutation {
    use crate::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    static LOST_WAKEUP: AtomicBool = AtomicBool::new(false);
    static LOST_WAKEUP_ENV: OnceLock<bool> = OnceLock::new();
    static EARLY_BIAS_CHECK: AtomicBool = AtomicBool::new(false);
    static EARLY_BIAS_CHECK_ENV: OnceLock<bool> = OnceLock::new();

    fn enabled(flag: &AtomicBool, env: &OnceLock<bool>, var: &str) -> bool {
        flag.load(Ordering::SeqCst) || *env.get_or_init(|| std::env::var_os(var).is_some())
    }

    /// Enables or disables the lost-wakeup mutation process-wide.
    pub fn set_lost_wakeup(enabled: bool) {
        LOST_WAKEUP.store(enabled, Ordering::SeqCst);
    }

    /// Whether the back-out path should skip its wakeup.
    pub(crate) fn lost_wakeup() -> bool {
        enabled(&LOST_WAKEUP, &LOST_WAKEUP_ENV, "BRAVO_MUTATE_LOST_WAKEUP")
    }

    /// Enables or disables the early-bias-check mutation process-wide.
    pub fn set_early_bias_check(enabled: bool) {
        EARLY_BIAS_CHECK.store(enabled, Ordering::SeqCst);
    }

    /// Whether `read_unlock` should check the bias flag before clearing
    /// its slot.
    pub(crate) fn early_bias_check() -> bool {
        enabled(
            &EARLY_BIAS_CHECK,
            &EARLY_BIAS_CHECK_ENV,
            "BRAVO_MUTATE_EARLY_BIAS_CHECK",
        )
    }
}

/// How long [`BravoLock::try_write_lock`] may wait for fast-path readers to
/// drain before giving up.
///
/// The paper's revocation scans complete in single-digit microseconds
/// (§3: ~1.1 ns per slot); 200 µs covers even a heavily preempted reader on
/// an oversubscribed host while remaining far below any blocking
/// acquisition a caller could confuse it with.
pub const TRY_WRITE_BUDGET: Duration = Duration::from_micros(200);

/// Proof that read permission is held on a [`BravoLock`], and how it was
/// obtained.
///
/// The token must be passed back to [`BravoLock::read_unlock`]. Dropping it
/// without unlocking leaks the read permission (the lock stays read-held),
/// mirroring `std::mem::forget` on a guard; it never causes unsoundness in
/// the lock itself.
#[derive(Debug)]
#[must_use = "a ReadToken must be returned to BravoLock::read_unlock"]
pub struct ReadToken {
    /// Slot in the visible readers table when the fast path was used;
    /// `None` when read permission came from the underlying lock.
    slot: Option<usize>,
}

impl ReadToken {
    /// Whether the acquisition used the BRAVO fast path.
    pub fn is_fast(&self) -> bool {
        self.slot.is_some()
    }

    /// The occupied table slot, when the fast path was used.
    pub fn slot(&self) -> Option<usize> {
        self.slot
    }
}

/// A reader-writer lock `A` transformed into `BRAVO-A`.
///
/// The structure adds exactly the two fields the paper describes — the
/// reader-bias flag and the inhibit-until timestamp — plus the handle to the
/// visible readers table (globally shared by default, hence zero bytes of
/// per-lock state in the paper's C embodiment) and the bias policy. The
/// lock is written against the [`ReaderTable`](crate::vrt::ReaderTable) abstraction, so any layout —
/// flat, sectored, NUMA-sharded — can stand behind the handle. The paper's
/// BRAVO-2D (§7) is this lock over the sectored layout
/// ([`TableHandle::global_sectored`]): only the table differs.
pub struct BravoLock<L = DefaultRwLock> {
    rbias: AtomicBool,
    inhibit_until: AtomicU64,
    underlying: L,
    table: TableHandle,
    policy: BiasPolicy,
    stats: StatsSink,
    wait: WaitStrategy,
    adapt: Option<Arc<AdaptiveBias>>,
}

impl<L: RawRwLock> Default for BravoLock<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: RawRwLock> BravoLock<L> {
    /// Creates a BRAVO lock over a fresh underlying lock, publishing fast
    /// readers in the process-global table and using the paper's default
    /// policy (`N = 9`).
    pub fn new() -> Self {
        Self::with_parts(L::new(), TableHandle::global(), BiasPolicy::paper_default())
    }

    /// Creates a BRAVO lock with an explicit underlying lock, table handle
    /// and bias policy, recording statistics into the process-global
    /// counters.
    ///
    /// Private tables ([`TableHandle::private`]) reproduce the idealized
    /// per-instance-table comparator of the paper's Figure 1;
    /// [`BiasPolicy::Disabled`] turns the wrapper into a pass-through.
    pub fn with_parts(underlying: L, table: TableHandle, policy: BiasPolicy) -> Self {
        Self::with_instrumented(underlying, table, policy, StatsSink::Global)
    }

    /// Creates a BRAVO lock with every part explicit, including the
    /// statistics sink. This is the constructor the catalog's spec-driven
    /// builder uses: a [`crate::spec::LockSpec`] resolves to exactly these
    /// four arguments.
    pub fn with_instrumented(
        underlying: L,
        table: TableHandle,
        policy: BiasPolicy,
        stats: StatsSink,
    ) -> Self {
        Self {
            rbias: AtomicBool::new(false),
            inhibit_until: AtomicU64::new(0),
            underlying,
            table,
            policy,
            stats,
            wait: WaitStrategy::spin(),
            adapt: None,
        }
    }

    /// Sets how this lock's *revocation* waits behave (its own only wait
    /// site; readers' waits live in the underlying lock, which the catalog
    /// constructs with the same mode). In park and futex mode, a fast-path
    /// reader that clears its slot notifies the lock address only when it
    /// then observes bias revoked. That is the only time a revoker can be
    /// waiting on it, and the SeqCst clear and re-check pair with the
    /// revoker's SeqCst bias clear and scan, so no wakeup is lost (see
    /// [`read_unlock`](BravoLock::read_unlock)). A read-only run therefore
    /// publishes no wakeup at all.
    pub fn with_wait_mode(mut self, mode: WaitMode) -> Self {
        self.wait = WaitStrategy::new(mode);
        self
    }

    /// Attaches an adaptive bias gate (the `adapt=on` spec knob): bias may
    /// only be (re-)enabled while the gate allows it.
    pub fn with_adaptive(mut self, adapt: Arc<AdaptiveBias>) -> Self {
        self.adapt = Some(adapt);
        self
    }

    /// The statistics sink this lock records into.
    pub fn stats(&self) -> &StatsSink {
        &self.stats
    }

    /// The wait mode this lock's revocation scans use.
    pub fn wait_mode(&self) -> WaitMode {
        self.wait.mode()
    }

    /// The adaptive bias gate, when one is attached.
    pub fn adaptive(&self) -> Option<&Arc<AdaptiveBias>> {
        self.adapt.as_ref()
    }

    /// Creates a BRAVO lock with a given policy over the global table.
    pub fn with_policy(policy: BiasPolicy) -> Self {
        Self::with_parts(L::new(), TableHandle::global(), policy)
    }

    /// Creates a BRAVO lock that publishes into a private table of
    /// `table_size` slots (the "BRAVO-BA-Prime" idealized form of Figure 1).
    pub fn with_private_table(table_size: usize) -> Self {
        Self::with_parts(
            L::new(),
            TableHandle::private(table_size),
            BiasPolicy::paper_default(),
        )
    }

    /// The address used to identify this lock in the visible readers table.
    #[inline]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Whether reader bias is currently enabled (racy snapshot; primarily for
    /// tests and statistics).
    pub fn is_reader_biased(&self) -> bool {
        self.rbias.load(Ordering::Relaxed)
    }

    /// The bias policy this lock was constructed with.
    pub fn policy(&self) -> BiasPolicy {
        self.policy
    }

    /// A reference to the underlying lock. Exposed for tests and for
    /// benchmarks that want to inspect or label the underlying algorithm;
    /// acquiring the underlying lock directly bypasses BRAVO and defeats the
    /// fast-path bookkeeping, so don't.
    pub fn underlying(&self) -> &L {
        &self.underlying
    }

    /// Acquires read (shared) permission, using the fast path when possible.
    pub fn read_lock(&self) -> ReadToken {
        match self.try_fast_read() {
            Ok(token) => token,
            Err(reason) => {
                self.underlying.lock_shared();
                self.admit_slow_read(reason)
            }
        }
    }

    /// The fast-path attempt shared by [`read_lock`](BravoLock::read_lock)
    /// and [`try_read_lock`](BravoLock::try_read_lock): constant time (one
    /// flag check, one hash, one CAS, one re-check) and never blocking. On
    /// failure, returns why the reader must fall back to the underlying lock.
    #[inline]
    fn try_fast_read(&self) -> Result<ReadToken, SlowReadReason> {
        if !self.rbias.load(Ordering::Acquire) {
            return Err(SlowReadReason::BiasDisabled);
        }
        let table = self.table.table();
        let addr = self.addr();
        let slot = table.slot_for_current(addr);
        if !table.try_publish(slot, addr) {
            // Slot occupied: a collision with another (lock, thread) pair.
            self.stats.record_shard_collision(table.shard_of_slot(slot));
            return Err(SlowReadReason::Collision);
        }
        // The successful CAS is SeqCst and doubles as the store-load fence
        // between publishing our slot and re-checking RBias (Dekker-style
        // with the writer's clear-then-scan sequence).
        if self.rbias.load(Ordering::SeqCst) {
            self.stats.record_fast_read_in(table.shard_of_slot(slot));
            return Ok(ReadToken { slot: Some(slot) });
        }
        // A writer revoked bias between our publication and the re-check;
        // undo the publication. The racing revoker may already have seen
        // our slot and parked on it, and we already saw bias revoked, so the
        // clear always publishes a wakeup (no-op in spin mode).
        table.clear(slot, addr);
        #[cfg(feature = "schedcheck")]
        if mutation::lost_wakeup() {
            // Seeded bug: back out silently. The parked revoker never
            // learns the slot emptied.
            return Err(SlowReadReason::Raced);
        }
        self.wait.notify_all(addr);
        Err(SlowReadReason::Raced)
    }

    /// Bookkeeping for a reader that obtained read permission from the
    /// underlying lock: the slow paths are where the adaptive gate ticks and
    /// where bias gets re-enabled.
    fn admit_slow_read(&self, reason: SlowReadReason) -> ReadToken {
        self.tick_adaptive();
        self.maybe_enable_bias();
        self.stats.record_slow_read(reason);
        ReadToken { slot: None }
    }

    /// Offers the adaptive gate (if any) a chance to close its epoch.
    /// Called from slow paths only, never from the read fast path.
    #[inline]
    fn tick_adaptive(&self) {
        if let Some(adapt) = &self.adapt {
            adapt.tick(now_ns(), &self.stats);
        }
    }

    /// Re-enables bias if the policy (and the adaptive gate, when attached)
    /// allows. Must only be called while the caller holds read permission on
    /// the underlying lock: that is what makes the store race-free against
    /// writers (they hold the underlying lock exclusively while revoking).
    /// Other slow readers may race here too; the swap lets exactly one of
    /// them record the false-to-true transition.
    fn maybe_enable_bias(&self) {
        if !self.rbias.load(Ordering::Relaxed)
            && self.adapt.as_ref().map_or(true, |a| a.allows_bias())
            && self
                .policy
                .should_enable(now_ns(), self.inhibit_until.load(Ordering::Relaxed))
            && !self.rbias.swap(true, Ordering::Release)
        {
            self.stats.record_bias_enabled();
        }
    }

    /// Releases read permission previously obtained from [`read_lock`] or
    /// [`try_read_lock`].
    ///
    /// [`read_lock`]: BravoLock::read_lock
    /// [`try_read_lock`]: BravoLock::try_read_lock
    pub fn read_unlock(&self, token: ReadToken) {
        match token.slot {
            Some(slot) => {
                let addr = self.addr();
                #[cfg(feature = "schedcheck")]
                if mutation::early_bias_check() {
                    // Seeded bug: the bias check runs before the clear, so
                    // a revoker that clears RBias and scans in between parks
                    // on our slot and is never woken.
                    let biased = self.rbias.load(Ordering::SeqCst);
                    self.table.table().clear(slot, addr);
                    if !biased {
                        self.wait.notify_all(addr);
                    }
                    return;
                }
                self.table.table().clear(slot, addr);
                // A revoker can only be waiting on our slot while RBias is
                // clear: it clears RBias (SeqCst) before scanning, and holds
                // the underlying lock until it restores bias or finishes, so
                // no slow reader can set RBias in between. The SeqCst clear
                // above and this SeqCst load pair with that clear-then-scan
                // (Dekker): either we see RBias false and wake it, or its
                // scan follows our clear and never waits on this slot. So a
                // biased release publishes no wakeup and writes no shared
                // line besides its own slot.
                if !self.rbias.load(Ordering::SeqCst) {
                    self.wait.notify_all(addr);
                }
            }
            None => self.underlying.unlock_shared(),
        }
    }

    /// Acquires write (exclusive) permission, revoking reader bias if it was
    /// enabled.
    pub fn write_lock(&self) {
        self.underlying.lock_exclusive();
        let revoked = self.revoke_if_biased(u64::MAX);
        debug_assert!(revoked, "an unbounded revocation cannot time out");
    }

    /// Revocation: runs with the underlying lock held exclusively, and
    /// gives up once the clock passes `deadline_ns` (`u64::MAX` waits for
    /// every fast reader). Returns whether the writer may proceed.
    ///
    /// On timeout the bias flag is restored before returning. That restore
    /// is load-bearing: the conflicting fast readers are still published,
    /// and every write path gates its scan on `RBias`, so leaving it clear
    /// would let the *next* writer skip the scan and run concurrently with
    /// those readers. The caller still holds the underlying lock
    /// exclusively, so a subsequent writer is guaranteed to observe it.
    fn revoke_if_biased(&self, deadline_ns: u64) -> bool {
        self.tick_adaptive();
        if !self.rbias.load(Ordering::Relaxed) {
            self.stats.record_write(false, 0);
            return true;
        }
        // Clearing RBias must be ordered before the table scan (store-load);
        // the SeqCst store pairs with the fast-path reader's SeqCst publish
        // + re-check.
        self.rbias.store(false, Ordering::SeqCst);
        let start = now_ns();
        let outcome = self
            .table
            .table()
            .revoke_until_with(self.addr(), deadline_ns, self.wait);
        let now = now_ns();
        // Primum non nocere: inhibit re-enabling bias long enough to
        // amortize this revocation's cost down to the configured bound. A
        // timed-out revocation is charged too: the window only gates
        // *re-enabling* by slow readers, not the restore below.
        self.inhibit_until.store(
            self.policy.inhibit_until_after_revocation(start, now),
            Ordering::Relaxed,
        );
        match outcome {
            Some(rev) => {
                self.stats.record_revocation(&rev);
                self.stats.record_write(true, rev.conflicts);
                true
            }
            None => {
                self.rbias.store(true, Ordering::SeqCst);
                false
            }
        }
    }

    /// Releases write permission previously obtained from
    /// [`write_lock`](BravoLock::write_lock) or a successful
    /// [`try_write_lock`](BravoLock::try_write_lock).
    pub fn write_unlock(&self) {
        self.underlying.unlock_exclusive();
    }
}

impl<L: RawTryRwLock> BravoLock<L> {
    /// Attempts to acquire read permission without blocking.
    ///
    /// Only available when the underlying lock offers a non-blocking read
    /// path ([`RawTryRwLock`]); the fast path itself is always
    /// non-blocking, but the fallback needs the underlying try operation,
    /// as described in §3.
    pub fn try_read_lock(&self) -> Option<ReadToken> {
        match self.try_fast_read() {
            Ok(token) => Some(token),
            Err(reason) => {
                self.underlying.try_lock_shared().ok()?;
                Some(self.admit_slow_read(reason))
            }
        }
    }

    /// Attempts to acquire write permission with a bounded wait.
    ///
    /// A writer must revoke reader bias before it owns the lock, and
    /// revocation waits for published fast readers to depart, which is an
    /// unbounded wait in general. So the try path takes the underlying lock
    /// with its try operation, then revokes with a deadline of
    /// [`TRY_WRITE_BUDGET`] from now. On timeout the bias flag is restored,
    /// the underlying lock is released, and the acquisition fails cleanly.
    /// On success, bias is revoked exactly as in
    /// [`write_lock`](BravoLock::write_lock).
    pub fn try_write_lock(&self) -> bool {
        if self.underlying.try_lock_exclusive().is_err() {
            return false;
        }
        let budget = TRY_WRITE_BUDGET.as_nanos() as u64;
        if self.revoke_if_biased(now_ns().saturating_add(budget)) {
            true
        } else {
            self.underlying.unlock_exclusive();
            false
        }
    }
}

impl<L: RawRwLock> std::fmt::Debug for BravoLock<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BravoLock")
            .field("rbias", &self.is_reader_biased())
            .field("inhibit_until", &self.inhibit_until.load(Ordering::Relaxed))
            .field("policy", &self.policy)
            .field("table", &self.table)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicU64;

    type Bravo = BravoLock<DefaultRwLock>;

    #[test]
    fn first_read_is_slow_then_bias_enables() {
        let l = Bravo::new();
        assert!(!l.is_reader_biased());
        let t = l.read_lock();
        // The very first reader finds bias disabled, goes slow, and enables
        // bias for subsequent readers.
        assert!(!t.is_fast());
        assert!(l.is_reader_biased());
        l.read_unlock(t);

        let t2 = l.read_lock();
        assert!(t2.is_fast(), "second read should take the fast path");
        l.read_unlock(t2);
    }

    #[test]
    fn writer_revokes_bias() {
        let l = Bravo::new();
        let t = l.read_lock();
        l.read_unlock(t);
        assert!(l.is_reader_biased());
        l.write_lock();
        assert!(!l.is_reader_biased(), "write_lock must revoke bias");
        l.write_unlock();
    }

    #[test]
    fn writer_waits_for_fast_reader() {
        let l = Arc::new(Bravo::new());
        // Prime the bias.
        let t = l.read_lock();
        l.read_unlock(t);
        // Hold a fast read, then start a writer; the writer must not get in
        // until the reader departs.
        let t = l.read_lock();
        assert!(t.is_fast());

        let l2 = Arc::clone(&l);
        let entered = Arc::new(AtomicU64::new(0));
        let entered2 = Arc::clone(&entered);
        let writer = std::thread::spawn(move || {
            l2.write_lock();
            entered2.store(now_ns(), Ordering::SeqCst);
            l2.write_unlock();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            entered.load(Ordering::SeqCst),
            0,
            "writer entered while fast reader held"
        );
        let released_at = now_ns();
        l.read_unlock(t);
        writer.join().unwrap();
        assert!(entered.load(Ordering::SeqCst) >= released_at);
    }

    #[test]
    fn reads_after_revocation_are_inhibited() {
        let l = Bravo::new();
        // Enable bias, then have a writer revoke it. Because a fast reader
        // was held during part of the revocation scan, the revocation takes
        // measurable time and the inhibit window is non-zero.
        let t = l.read_lock();
        l.read_unlock(t);
        let held = l.read_lock();
        assert!(held.is_fast());
        let l_ref = &l;
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                l_ref.read_unlock(held);
            });
            l.write_lock();
            l.write_unlock();
        });
        assert!(!l.is_reader_biased());
        // Immediately after a costly revocation the next slow reader must NOT
        // re-enable bias.
        let t = l.read_lock();
        assert!(!t.is_fast());
        l.read_unlock(t);
        assert!(
            !l.is_reader_biased(),
            "bias re-enabled inside the inhibition window"
        );
    }

    #[test]
    fn disabled_policy_never_uses_fast_path() {
        let l = Bravo::with_policy(BiasPolicy::Disabled);
        for _ in 0..10 {
            let t = l.read_lock();
            assert!(!t.is_fast());
            l.read_unlock(t);
        }
        assert!(!l.is_reader_biased());
    }

    #[test]
    fn try_write_succeeds_and_revokes() {
        let l = Bravo::new();
        let t = l.read_lock();
        l.read_unlock(t);
        assert!(l.is_reader_biased());
        assert!(l.try_write_lock());
        assert!(!l.is_reader_biased());
        l.write_unlock();
    }

    #[test]
    fn try_write_fails_under_a_slow_reader() {
        let l = Bravo::with_policy(BiasPolicy::Disabled);
        let t = l.read_lock();
        assert!(!l.try_write_lock());
        l.read_unlock(t);
        assert!(l.try_write_lock());
        l.write_unlock();
    }

    #[test]
    fn try_read_fails_while_write_held() {
        let l = Bravo::new();
        l.write_lock();
        assert!(l.try_read_lock().is_none());
        l.write_unlock();
        let t = l
            .try_read_lock()
            .expect("uncontended try_read must succeed");
        l.read_unlock(t);
    }

    #[test]
    fn same_thread_can_hold_multiple_locks() {
        // §3: BRAVO fully supports a thread holding several locks at once;
        // each occupies its own table slot.
        let a = Bravo::new();
        let b = Bravo::new();
        // Prime both.
        a.read_unlock(a.read_lock());
        b.read_unlock(b.read_lock());
        let ta = a.read_lock();
        let tb = b.read_lock();
        assert!(ta.is_fast() && tb.is_fast());
        a.read_unlock(ta);
        b.read_unlock(tb);
    }

    #[test]
    fn private_table_isolation() {
        let l = Bravo::with_private_table(64);
        l.read_unlock(l.read_lock());
        let t = l.read_lock();
        assert!(t.is_fast());
        // The global table must not contain this lock's address.
        assert_eq!(
            crate::vrt::global_table().count_for(&l as *const _ as usize),
            0
        );
        l.read_unlock(t);
    }

    #[test]
    fn concurrent_readers_and_writers_preserve_exclusion() {
        // The classic lost-update check: writers increment a plain counter
        // under write permission; readers verify they never observe a torn
        // intermediate (here: that the counter only grows).
        let l = Arc::new(Bravo::new());
        let value = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..6 {
            let l = Arc::clone(&l);
            let value = Arc::clone(&value);
            handles.push(std::thread::spawn(move || {
                if i % 3 == 0 {
                    for _ in 0..2_000 {
                        l.write_lock();
                        let v = value.load(Ordering::Relaxed);
                        value.store(v + 1, Ordering::Relaxed);
                        l.write_unlock();
                    }
                } else {
                    let mut last = 0;
                    for _ in 0..2_000 {
                        let t = l.read_lock();
                        let v = value.load(Ordering::Relaxed);
                        assert!(v >= last);
                        last = v;
                        l.read_unlock(t);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), 2 * 2_000);
    }

    #[test]
    fn adaptive_gate_defers_bias_until_reads_dominate() {
        let adapt = Arc::new(crate::policy::AdaptiveBias::with_epoch(1));
        let l = BravoLock::<DefaultRwLock>::with_instrumented(
            DefaultRwLock::new(),
            TableHandle::private(64),
            BiasPolicy::paper_default(),
            StatsSink::per_lock(),
        )
        .with_adaptive(Arc::clone(&adapt));
        // With the gate still closed the first reads stay slow and do NOT
        // enable bias (an un-gated lock enables it on the first slow read).
        let t = l.read_lock();
        assert!(!t.is_fast());
        l.read_unlock(t);
        assert!(!l.is_reader_biased(), "closed gate must block bias");
        // A read-dominated stream opens the gate within an epoch or two
        // (epoch = 1 ns here, so every slow read gets to evaluate).
        for _ in 0..100 {
            let t = l.read_lock();
            l.read_unlock(t);
        }
        assert!(adapt.allows_bias(), "read-only workload must open the gate");
        assert!(adapt.flips() >= 1);
        assert!(l.is_reader_biased());
        let t = l.read_lock();
        assert!(t.is_fast(), "open gate restores the fast path");
        l.read_unlock(t);
        assert!(l.stats().snapshot().adapt_flips >= 1);
        assert_eq!(l.adaptive().unwrap().flips(), adapt.flips());
    }

    #[test]
    fn park_mode_writer_waits_for_fast_reader() {
        let l = Arc::new(
            BravoLock::with_instrumented(
                DefaultRwLock::with_wait(WaitMode::Park),
                TableHandle::private(64),
                BiasPolicy::paper_default(),
                StatsSink::per_lock(),
            )
            .with_wait_mode(WaitMode::Park),
        );
        assert_eq!(l.wait_mode(), WaitMode::Park);
        // Prime the bias, then hold a fast read while a writer revokes: the
        // parked revocation must be woken by the reader's departure.
        l.read_unlock(l.read_lock());
        let t = l.read_lock();
        assert!(t.is_fast());
        let l2 = Arc::clone(&l);
        let entered = Arc::new(AtomicU64::new(0));
        let entered2 = Arc::clone(&entered);
        let writer = std::thread::spawn(move || {
            l2.write_lock();
            entered2.store(now_ns(), Ordering::SeqCst);
            l2.write_unlock();
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(
            entered.load(Ordering::SeqCst),
            0,
            "writer entered while fast reader held"
        );
        let released_at = now_ns();
        l.read_unlock(t);
        writer.join().unwrap();
        assert!(entered.load(Ordering::SeqCst) >= released_at);
    }

    #[test]
    fn biased_reads_publish_no_futex_wakeup() {
        // A fast-path release notifies only when it sees bias revoked, so a
        // read-only run must leave the lock's futex bucket untouched. The
        // underlying lock spins, so only BRAVO's own wait site can bump it.
        // The 64 buckets are process-global and other tests notify their
        // own keys concurrently, so a bucket shared with one of them can
        // move; a fresh lock (a fresh address, hence another bucket) gets
        // a few tries. An unconditional notify moves it 200 000 times on
        // every try.
        const PAIRS: usize = 100_000;
        for _ in 0..3 {
            let l = Bravo::with_instrumented(
                DefaultRwLock::new(),
                TableHandle::private(64),
                BiasPolicy::paper_default(),
                StatsSink::per_lock(),
            )
            .with_wait_mode(WaitMode::Futex);
            l.read_unlock(l.read_lock());
            assert!(l.is_reader_biased());
            let before = crate::wait::futex_bucket_generation(l.addr());
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for _ in 0..PAIRS {
                            l.read_unlock(l.read_lock());
                        }
                    });
                }
            });
            assert!(l.stats().snapshot().fast_reads > 0);
            if crate::wait::futex_bucket_generation(l.addr()) == before {
                return;
            }
        }
        panic!("biased fast-path reads bumped the futex bucket generation");
    }

    #[test]
    fn bias_enables_never_outnumber_revocations() {
        // Bias goes false-to-true once at first use, then once more per
        // revocation at most, so counting enables as transitions bounds
        // them by revocations + 1. Two slow readers that both see bias off
        // when an inhibit window ends must not both count the one
        // transition.
        const OPS: u64 = 200_000;
        let l = Bravo::with_instrumented(
            DefaultRwLock::new(),
            TableHandle::private(64),
            BiasPolicy::paper_default(),
            StatsSink::per_lock(),
        );
        std::thread::scope(|s| {
            for seed in [0x9E37_79B9_7F4A_7C15u64, 0xD1B5_4A32_D192_ED03] {
                let l = &l;
                s.spawn(move || {
                    let mut x = seed;
                    for _ in 0..OPS {
                        // xorshift64: about one write per 1000 operations.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x % 1000 == 0 {
                            l.write_lock();
                            l.write_unlock();
                        } else {
                            l.read_unlock(l.read_lock());
                        }
                    }
                });
            }
        });
        let stats = l.stats().snapshot();
        assert!(stats.revocations > 0, "no revocation happened: {stats:?}");
        assert!(
            stats.bias_enabled <= stats.revocations + 1,
            "{} bias enables for {} revocations",
            stats.bias_enabled,
            stats.revocations
        );
    }

    #[test]
    fn bravo_over_bravo_composes() {
        // The transformation is generic, so BRAVO-(BRAVO-A) must also work.
        // (ReentrantBravo in `compat` provides the RawRwLock impl.)
        let l: BravoLock<crate::compat::ReentrantBravo<DefaultRwLock>> = BravoLock::new();
        l.read_unlock(l.read_lock());
        let t = l.read_lock();
        l.read_unlock(t);
        l.write_lock();
        l.write_unlock();
    }

    /// A lock over a private sectored table: the BRAVO-2D layout, with slot
    /// choice independent of other tests' locks.
    fn sectored() -> Bravo {
        BravoLock::with_instrumented(
            DefaultRwLock::new(),
            TableHandle::sectored(4, 16),
            BiasPolicy::paper_default(),
            StatsSink::per_lock(),
        )
    }

    #[test]
    fn read_write_cycle_over_a_sectored_table() {
        let l = sectored();
        let t = l.read_lock();
        assert!(!t.is_fast());
        l.read_unlock(t);
        let t = l.read_lock();
        assert!(t.is_fast());
        l.read_unlock(t);
        l.write_lock();
        assert!(!l.is_reader_biased());
        l.write_unlock();
    }

    #[test]
    fn bounded_try_write_succeeds_uncontended_and_revokes() {
        let l = sectored();
        l.read_unlock(l.read_lock());
        assert!(l.is_reader_biased());
        assert!(l.try_write_lock());
        assert!(!l.is_reader_biased(), "try-write must revoke bias");
        l.write_unlock();
    }

    #[test]
    fn try_read_mirrors_the_blocking_path() {
        let l = sectored();
        let t = l.try_read_lock().expect("uncontended try-read");
        l.read_unlock(t);
        l.write_lock();
        // A writer holds the underlying lock: try-read must fail, not block.
        assert!(l.try_read_lock().is_none());
        l.write_unlock();
    }

    #[test]
    fn exclusion_under_mixed_load() {
        let l = Arc::new(sectored());
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for i in 0..4 {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        if i == 0 {
                            l.write_lock();
                            let v = counter.load(Ordering::Relaxed);
                            counter.store(v + 1, Ordering::Relaxed);
                            l.write_unlock();
                        } else {
                            let t = l.read_lock();
                            let _ = counter.load(Ordering::Relaxed);
                            l.read_unlock(t);
                        }
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn writer_waits_for_fast_reader_via_column_scan() {
        let l = Arc::new(sectored());
        l.read_unlock(l.read_lock());
        let held = l.read_lock();
        assert!(held.is_fast());
        let l2 = Arc::clone(&l);
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let writer = std::thread::spawn(move || {
            l2.write_lock();
            done2.store(true, Ordering::SeqCst);
            l2.write_unlock();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!done.load(Ordering::SeqCst));
        l.read_unlock(held);
        writer.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn bounded_try_write_times_out_under_a_fast_reader_then_recovers() {
        let l = sectored();
        l.read_unlock(l.read_lock());
        let held = l.read_lock();
        assert!(held.is_fast());
        // The fast reader never departs within the budget: the try must
        // fail and release the underlying lock.
        assert!(!l.try_write_lock());
        // The reader's permission is intact and the lock is not wedged.
        l.read_unlock(held);
        assert!(l.try_write_lock());
        l.write_unlock();
        // Readers still work after the whole episode.
        l.read_unlock(l.read_lock());
    }

    #[test]
    fn timed_out_try_write_does_not_disarm_later_writers() {
        // A timed-out bounded revocation must not leave RBias clear while
        // the conflicting fast reader is still published, or the *next*
        // write acquisition would skip the revocation scan and run
        // concurrently with that reader. With the reader still held, every
        // subsequent try must keep failing.
        let l = sectored();
        l.read_unlock(l.read_lock());
        let held = l.read_lock();
        assert!(held.is_fast());
        assert!(!l.try_write_lock());
        assert!(
            !l.try_write_lock(),
            "second try-write was granted while a fast reader is still published"
        );
        assert!(l.is_reader_biased(), "bias flag not restored after timeout");
        l.read_unlock(held);
        assert!(l.try_write_lock());
        l.write_unlock();
    }

    #[test]
    fn exclusion_holds_over_a_numa_table() {
        let l = Bravo::with_instrumented(
            DefaultRwLock::new(),
            TableHandle::numa(2, 64),
            BiasPolicy::paper_default(),
            StatsSink::per_lock(),
        );
        l.read_unlock(l.read_lock());
        let t = l.read_lock();
        assert!(t.is_fast());
        l.read_unlock(t);
        l.write_lock();
        assert!(!l.is_reader_biased());
        l.write_unlock();
        assert!(l.stats().snapshot().fast_reads >= 1);
        assert!(l.stats().snapshot().revocations >= 1);
    }
}
