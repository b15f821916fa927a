//! The blocking layer: parking waiter queues and the futex backend.
//!
//! Every lock in the catalog originally waited by spinning (with the
//! yield-escalating [`Backoff`]). That is the right call when the host has
//! spare cores, but under oversubscription — more runnable threads than
//! logical CPUs, exactly the regime the `fig10_server` sweep provokes —
//! spinning readers steal the quanta the lock holder needs to finish its
//! critical section. This module provides the alternatives the ROADMAP
//! calls for: a [`WaitQueue`] of parked threads over [`std::thread::park`] /
//! `unpark`, a [`FutexEventCount`] that blocks straight in the kernel via
//! [`crate::sys::futex`] on Linux, and a [`WaitStrategy`] that lets every
//! spin site in the repo dispatch between the behaviours from one
//! `wait=spin|park|futex` knob in the lock spec grammar.
//!
//! # The futex backend
//!
//! `wait=futex` packs a per-bucket *wake generation* into a `u32` futex
//! word: waiters register in a counter, snapshot the generation, re-check
//! their condition, and `FUTEX_WAIT` on the snapshot; notifiers bump the
//! generation and `FUTEX_WAKE` only if the waiter counter is non-zero. The
//! kernel's atomic compare of the word closes the sleep/wake race (a wake
//! that bumps the generation first makes the sleep return `EAGAIN`), so
//! there is no per-waiter `Arc` allocation and no bucket mutex — the two
//! costs the park path pays per blocked thread. Where the syscall is
//! unavailable (non-Linux targets, or [`FUTEX_FALLBACK_ENV`] set for
//! testing) `wait=futex` degrades to the park path transparently. Under
//! `--features schedcheck` the backend routes through the checker's virtual
//! futex instead of the kernel, making wait/wake schedulable yield points.
//!
//! # Protocol
//!
//! The queue implements the classic "check, register, re-check" handshake so
//! a wakeup can never be lost between the waiter's last look at the
//! condition and its park:
//!
//! 1. The waiter spins a short grace period first (uncontended waits stay in
//!    the µs range and never pay a context switch).
//! 2. It then increments the `registered` count and pushes a node (key +
//!    [`Thread`] handle + wake flag) onto the queue, both under the queue
//!    mutex, executes a `SeqCst` fence, and **re-checks the condition**.
//!    Only if the condition is still false does it park.
//! 3. The waker changes the lock state first, executes a `SeqCst` fence, and
//!    reads `registered`. If it sees zero it is done — the fence pair
//!    guarantees that a concurrently-registering waiter's re-check sees the
//!    new state. Otherwise it takes the queue mutex, marks matching nodes
//!    woken, and unparks them.
//!
//! The two fences form a Dekker-style store/load pattern: either the waker
//! observes the registration (and unparks), or the waiter's re-check
//! observes the state change (and never parks). Spurious unparks are
//! harmless because every park sits in a re-check loop.
//!
//! Waiters are keyed by an address (normally the lock's address; MCS queue
//! nodes use the node address) and hashed over a small global array of
//! queues, the same bucket-table shape `parking_lot` and the Linux futex
//! hash use, so a parked-capable lock costs one byte of configuration rather
//! than an embedded queue.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::clock::{now_ns, Backoff};
use crate::hash::mix64;
use crate::stats;
use crate::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicUsize, Ordering};
use crate::sync::thread::{self, Thread};
use crate::sync::{Mutex, MutexGuard};

/// How a lock waits when it cannot make progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WaitMode {
    /// Spin with the yield-escalating [`Backoff`] (the original behaviour).
    #[default]
    Spin,
    /// Spin briefly, then park the thread until a releaser wakes it.
    Park,
    /// Spin briefly, then block in the kernel on a futex word (Linux).
    /// Degrades to [`WaitMode::Park`] where the syscall is unavailable.
    Futex,
}

impl WaitMode {
    /// The spec-grammar token for this mode (`spin` / `park` / `futex`).
    pub fn as_str(self) -> &'static str {
        match self {
            WaitMode::Spin => "spin",
            WaitMode::Park => "park",
            WaitMode::Futex => "futex",
        }
    }
}

impl std::fmt::Display for WaitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for WaitMode {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "spin" => Ok(WaitMode::Spin),
            "park" => Ok(WaitMode::Park),
            "futex" => Ok(WaitMode::Futex),
            _ => Err(()),
        }
    }
}

/// One registered waiter: who to unpark, what it waits on, and whether a
/// waker has already claimed it.
struct WaitNode {
    key: usize,
    thread: Thread,
    woken: AtomicBool,
}

/// A FIFO queue of parked threads.
///
/// Multiple keys share one queue (buckets are hashed), so wake operations
/// filter by key. FIFO order is preserved per key: [`WaitQueue::wake_one`]
/// always releases the longest-waiting matching thread.
pub struct WaitQueue {
    /// Number of nodes currently in `waiters`. Maintained with `SeqCst`
    /// RMWs so wakers can skip the mutex when nobody waits (see the module
    /// docs for the fence pairing).
    registered: AtomicUsize,
    waiters: Mutex<VecDeque<Arc<WaitNode>>>,
}

/// How many [`Backoff`] steps a waiter spins before its first registration.
/// `Backoff` starts yielding after 64 snoozes, so this covers a short pure
/// spin phase plus a few yields before the thread commits to parking.
const SPIN_GRACE: u32 = 96;

/// The effective spin grace. Under the model checker, bounded spins are
/// pure schedule noise (each `ready()` poll is a yield point), so managed
/// threads commit to parking almost immediately — this keeps explored
/// schedules short without changing the protocol.
#[inline]
fn spin_grace() -> u32 {
    #[cfg(feature = "schedcheck")]
    if schedcheck::is_managed() {
        return 2;
    }
    SPIN_GRACE
}

impl WaitQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            registered: AtomicUsize::new(0),
            waiters: Mutex::new(VecDeque::new()),
        }
    }

    /// Number of threads currently registered (racy; for tests/diagnostics).
    pub fn len(&self) -> usize {
        self.registered.load(Ordering::SeqCst)
    }

    /// Whether no thread is currently registered (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<Arc<WaitNode>>> {
        self.waiters.lock().expect("wait queue poisoned")
    }

    /// Drops one node from the `registered` count. Called with the queue
    /// mutex held, after removing that node.
    fn unregister_one(&self) {
        let before = self.registered.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(before > 0, "wait-queue registered count wrapped");
    }

    /// Registers the current thread under `key`. Returns the node; the
    /// caller must re-check its condition before parking.
    fn register(&self, key: usize) -> Arc<WaitNode> {
        let node = Arc::new(WaitNode {
            key,
            thread: thread::current(),
            woken: AtomicBool::new(false),
        });
        {
            let mut queue = self.queue();
            // Invariant: one live entry per thread. A thread re-registers
            // only after its previous node was dequeued (by a waker) or
            // deregistered (by itself), so a duplicate here means a node
            // leaked — the shape of bug that turns into a phantom wakeup
            // eating a real one.
            debug_assert!(
                !queue.iter().any(|n| n.thread.id() == node.thread.id()),
                "duplicate wait-queue registration for one thread"
            );
            #[cfg(feature = "schedcheck")]
            if mutation::late_register() {
                // Seeded bug: the node is visible before it is counted.
                queue.push_back(Arc::clone(&node));
                drop(queue);
                self.registered.fetch_add(1, Ordering::SeqCst);
                return node;
            }
            // Count before the node becomes visible, under the mutex: a
            // waker can dequeue (and decrement for) the node as soon as the
            // mutex drops, and an increment after that would let the count
            // wrap and then read 0 while a later waiter is parked.
            self.registered.fetch_add(1, Ordering::SeqCst);
            queue.push_back(Arc::clone(&node));
        }
        node
    }

    /// Removes `node` from the queue if a waker has not already claimed it.
    fn deregister(&self, node: &Arc<WaitNode>) {
        let mut queue = self.queue();
        if let Some(pos) = queue.iter().position(|n| Arc::ptr_eq(n, node)) {
            queue.remove(pos);
            self.unregister_one();
        }
        // If the node is gone a waker already dequeued it and will (or did)
        // unpark us; the banked token at worst ends one future park early,
        // and every park in this module sits in a re-check loop.
    }

    /// Blocks the current thread until `ready()` returns true. Wakers that
    /// make the condition true must call [`WaitQueue::wake_all`] (or
    /// [`WaitQueue::wake_one`]) with the same `key` after changing state.
    pub fn wait_until(&self, key: usize, mut ready: impl FnMut() -> bool) {
        let mut backoff = Backoff::new();
        for _ in 0..spin_grace() {
            if ready() {
                return;
            }
            backoff.snooze();
        }
        loop {
            let node = self.register(key);
            fence(Ordering::SeqCst);
            if ready() {
                self.deregister(&node);
                return;
            }
            stats::record_parked_wait();
            while !node.woken.load(Ordering::Acquire) {
                thread::park();
                if !node.woken.load(Ordering::Acquire) && ready() {
                    // Spurious wakeup, but the condition holds now.
                    self.deregister(&node);
                    return;
                }
            }
            if ready() {
                return;
            }
            // Woken but the condition is false again (another waiter won the
            // race); re-register and go back to sleep.
        }
    }

    /// Like [`WaitQueue::wait_until`], but gives up at `deadline_ns` (on the
    /// [`now_ns`] clock). Returns `true` if the condition was observed true,
    /// `false` on timeout.
    pub fn wait_until_deadline(
        &self,
        key: usize,
        mut ready: impl FnMut() -> bool,
        deadline_ns: u64,
    ) -> bool {
        let mut backoff = Backoff::new();
        for _ in 0..spin_grace() {
            if ready() {
                return true;
            }
            if now_ns() >= deadline_ns {
                return ready();
            }
            backoff.snooze();
        }
        loop {
            let node = self.register(key);
            fence(Ordering::SeqCst);
            if ready() {
                self.deregister(&node);
                return true;
            }
            let now = now_ns();
            if now >= deadline_ns {
                self.deregister(&node);
                return ready();
            }
            stats::record_parked_wait();
            while !node.woken.load(Ordering::Acquire) {
                let now = now_ns();
                if now >= deadline_ns {
                    self.deregister(&node);
                    return ready();
                }
                thread::park_timeout(Duration::from_nanos(deadline_ns - now));
                if !node.woken.load(Ordering::Acquire) && ready() {
                    self.deregister(&node);
                    return true;
                }
            }
            if ready() {
                return true;
            }
            if now_ns() >= deadline_ns {
                return false;
            }
        }
    }

    /// Wakes every waiter registered under `key`. Returns how many were
    /// unparked. Call *after* making the awaited condition true.
    pub fn wake_all(&self, key: usize) -> usize {
        fence(Ordering::SeqCst);
        if self.registered.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut woken = Vec::new();
        {
            let mut queue = self.queue();
            let mut i = 0;
            while i < queue.len() {
                if queue[i].key == key {
                    let node = queue.remove(i).expect("index in bounds");
                    self.unregister_one();
                    node.woken.store(true, Ordering::Release);
                    woken.push(node);
                } else {
                    i += 1;
                }
            }
        }
        for node in &woken {
            // Invariant: the wake flag must be published before the unpark,
            // or the waiter's `woken` re-check loop can absorb the token and
            // park again forever.
            debug_assert!(
                node.woken.load(Ordering::Acquire),
                "unpark without wake flag set"
            );
            node.thread.unpark();
        }
        woken.len()
    }

    /// Wakes the longest-waiting waiter registered under `key` (FIFO).
    /// Returns whether a waiter was unparked.
    pub fn wake_one(&self, key: usize) -> bool {
        fence(Ordering::SeqCst);
        if self.registered.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let node = {
            let mut queue = self.queue();
            let pos = queue.iter().position(|n| n.key == key);
            match pos {
                Some(pos) => {
                    let node = queue.remove(pos).expect("index in bounds");
                    self.unregister_one();
                    node.woken.store(true, Ordering::Release);
                    node
                }
                None => return false,
            }
        };
        debug_assert!(
            node.woken.load(Ordering::Acquire),
            "unpark without wake flag set"
        );
        node.thread.unpark();
        true
    }
}

impl Default for WaitQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WaitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitQueue")
            .field("registered", &self.len())
            .finish()
    }
}

/// Number of global wait-queue buckets addresses hash over. Collisions are
/// benign (a wake scans a few extra nodes); 64 buckets keep unrelated locks
/// from serializing on one queue mutex.
const WAIT_BUCKETS: usize = 64;

static BUCKETS: OnceLock<Box<[WaitQueue]>> = OnceLock::new();

/// The global wait-queue bucket for an address key.
fn bucket_for(key: usize) -> &'static WaitQueue {
    let buckets = BUCKETS.get_or_init(|| (0..WAIT_BUCKETS).map(|_| WaitQueue::new()).collect());
    &buckets[(mix64(key as u64) as usize) & (WAIT_BUCKETS - 1)]
}

/// Environment variable that forces `wait=futex` locks onto the portable
/// park fallback even where the native futex is available — how the
/// non-Linux path gets exercised on Linux CI. Read once per process (any
/// non-empty value other than `0` forces the fallback); changing it after
/// the first `wait=futex` wait has no effect.
pub const FUTEX_FALLBACK_ENV: &str = "BRAVO_FUTEX_FALLBACK";

/// The process-wide fallback decision, resolved on first use so the check
/// costs one load per wait instead of an environment probe.
static FUTEX_FALLBACK: OnceLock<bool> = OnceLock::new();

/// Pure parse of the fallback env var's value (unit-testable without
/// mutating the process environment).
fn fallback_env_requested(value: Option<&std::ffi::OsStr>) -> bool {
    match value {
        None => false,
        Some(v) => !v.is_empty() && v.to_str() != Some("0"),
    }
}

fn fallback_forced() -> bool {
    *FUTEX_FALLBACK
        .get_or_init(|| fallback_env_requested(std::env::var_os(FUTEX_FALLBACK_ENV).as_deref()))
}

/// Whether `wait=futex` locks in this process actually use the futex
/// backend (`true`), or the portable park fallback (`false`: the target has
/// no bound syscall, or [`FUTEX_FALLBACK_ENV`] forced it). Fixed for the
/// life of the process so wait and notify sides can never disagree.
pub fn futex_backend_active() -> bool {
    if fallback_forced() {
        return false;
    }
    #[cfg(feature = "schedcheck")]
    {
        // The checker's virtual futex exists on every target.
        true
    }
    #[cfg(not(feature = "schedcheck"))]
    {
        crate::sys::futex::NATIVE
    }
}

/// Outcome of one low-level futex wait, unified across the native syscall
/// and the schedcheck emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FutexWait {
    /// Slept and was woken (or interrupted); re-check the condition.
    Woken,
    /// The word moved before the sleep (`EAGAIN`): a wake raced ahead.
    Stale,
    /// The relative timeout expired.
    TimedOut,
}

#[cfg(feature = "schedcheck")]
fn futex_wait_raw(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> FutexWait {
    use schedcheck::sync::futex as vf;
    match vf::wait(word, expected, timeout) {
        vf::WaitOutcome::Woken => FutexWait::Woken,
        vf::WaitOutcome::Stale => FutexWait::Stale,
        vf::WaitOutcome::TimedOut => FutexWait::TimedOut,
    }
}

#[cfg(not(feature = "schedcheck"))]
fn futex_wait_raw(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> FutexWait {
    use crate::sys::futex as sf;
    match sf::wait(word, expected, timeout) {
        sf::WaitOutcome::Woken | sf::WaitOutcome::Interrupted => FutexWait::Woken,
        sf::WaitOutcome::Stale => FutexWait::Stale,
        sf::WaitOutcome::TimedOut => FutexWait::TimedOut,
    }
}

#[cfg(feature = "schedcheck")]
fn futex_wake_raw(word: &AtomicU32, n: u32) -> usize {
    schedcheck::sync::futex::wake(word, n as usize)
}

#[cfg(not(feature = "schedcheck"))]
fn futex_wake_raw(word: &AtomicU32, n: u32) -> usize {
    crate::sys::futex::wake(word, n)
}

/// Seeded-bug hooks for the checker's self-tests, compiled only under the
/// `schedcheck` feature. Mirrors `crate::lock::mutation`: process-wide
/// flags (programmatic setter OR'd with an environment variable), each
/// re-introducing a specific already-understood bug class.
#[cfg(feature = "schedcheck")]
pub mod mutation {
    use crate::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    static DROP_FUTEX_WAKE: AtomicBool = AtomicBool::new(false);
    static ENV: OnceLock<bool> = OnceLock::new();
    static LATE_REGISTER: AtomicBool = AtomicBool::new(false);
    static LATE_REGISTER_ENV: OnceLock<bool> = OnceLock::new();

    /// Moves `WaitQueue::register`'s `registered` increment after the
    /// queue mutex drops: the node is visible to wakers before it is
    /// counted, so a wake can dequeue it and decrement first, wrapping the
    /// count; a later re-registration brings it back to 0 while a waiter
    /// is parked, and the next wake's `registered == 0` fast exit skips
    /// that waiter. Also enabled by setting `BRAVO_MUTATE_LATE_REGISTER` in
    /// the environment.
    pub fn set_late_register(enabled: bool) {
        LATE_REGISTER.store(enabled, Ordering::SeqCst);
    }

    pub(crate) fn late_register() -> bool {
        LATE_REGISTER.load(Ordering::SeqCst)
            || *LATE_REGISTER_ENV
                .get_or_init(|| std::env::var_os("BRAVO_MUTATE_LATE_REGISTER").is_some())
    }

    /// Drops the `FUTEX_WAKE` from [`FutexEventCount::notify_all`] when a
    /// waiter is registered: the generation still advances but nobody is
    /// roused — the futex-path rendition of the PR 6 lost-wakeup bug. Also
    /// enabled by setting `BRAVO_MUTATE_DROP_FUTEX_WAKE` in the
    /// environment.
    ///
    /// [`FutexEventCount::notify_all`]: super::FutexEventCount::notify_all
    pub fn set_drop_futex_wake(enabled: bool) {
        DROP_FUTEX_WAKE.store(enabled, Ordering::SeqCst);
    }

    pub(crate) fn drop_futex_wake() -> bool {
        DROP_FUTEX_WAKE.load(Ordering::SeqCst)
            || *ENV.get_or_init(|| std::env::var_os("BRAVO_MUTATE_DROP_FUTEX_WAKE").is_some())
    }
}

/// A futex-backed eventcount: the blocking primitive behind `wait=futex`.
///
/// The whole state is one `u32` *wake generation* (the futex word) plus a
/// waiter counter — no queue, no mutex, no per-waiter allocation. Waiters
/// announce themselves in `waiters`, snapshot the generation, re-check
/// their condition, and sleep in the kernel on the snapshot; notifiers bump
/// the generation unconditionally and issue the wake syscall only when
/// `waiters` is non-zero. `SeqCst` on both sides puts the four accesses in
/// one total order, so either the notifier sees the waiter (and wakes) or
/// the waiter sees the bumped generation / new state (and never sleeps);
/// the kernel's atomic word-compare closes the remaining window between the
/// user-space snapshot and the sleep.
///
/// Generation wraparound is benign: the comparison is equality-only, so a
/// waiter confuses `g` with `g + 2³²` only if exactly 2³² notifications
/// land inside its single check-to-sleep window.
pub struct FutexEventCount {
    /// The futex word: bumped by every notify.
    gen: AtomicU32,
    /// How many threads are between announce and sleep-return. Lets
    /// notifiers skip the wake syscall when nobody can be sleeping.
    waiters: AtomicUsize,
}

impl FutexEventCount {
    /// An eventcount starting at generation 0.
    pub const fn new() -> Self {
        Self::with_generation(0)
    }

    /// An eventcount starting at an arbitrary generation — lets tests place
    /// the counter next to `u32::MAX` and prove wraparound is benign.
    pub const fn with_generation(gen: u32) -> Self {
        Self {
            gen: AtomicU32::new(gen),
            waiters: AtomicUsize::new(0),
        }
    }

    /// The current wake generation (racy; for tests/diagnostics).
    pub fn generation(&self) -> u32 {
        self.gen.load(Ordering::SeqCst)
    }

    /// How many threads are currently announced as waiting (racy snapshot).
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Blocks the current thread until `ready()` returns true. Notifiers
    /// that make the condition true must call
    /// [`notify_all`](Self::notify_all) after changing state.
    pub fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        let mut backoff = Backoff::new();
        for _ in 0..spin_grace() {
            if ready() {
                return;
            }
            backoff.snooze();
        }
        loop {
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let observed = self.gen.load(Ordering::SeqCst);
            if ready() {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            stats::record_futex_wait();
            let outcome = futex_wait_raw(&self.gen, observed, None);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            match outcome {
                FutexWait::Stale => stats::record_futex_eagain(),
                // The syscall actually slept: count it on the same column
                // the park path uses so wait modes stay comparable.
                _ => stats::record_parked_wait(),
            }
        }
    }

    /// Like [`wait_until`](Self::wait_until), but gives up at `deadline_ns`
    /// (on the [`now_ns`] clock). Returns `true` if the condition was
    /// observed true, `false` on timeout.
    pub fn wait_until_deadline(&self, mut ready: impl FnMut() -> bool, deadline_ns: u64) -> bool {
        let mut backoff = Backoff::new();
        for _ in 0..spin_grace() {
            if ready() {
                return true;
            }
            if now_ns() >= deadline_ns {
                return ready();
            }
            backoff.snooze();
        }
        loop {
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let observed = self.gen.load(Ordering::SeqCst);
            if ready() {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                return true;
            }
            let now = now_ns();
            if now >= deadline_ns {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                return ready();
            }
            stats::record_futex_wait();
            let outcome = futex_wait_raw(
                &self.gen,
                observed,
                Some(Duration::from_nanos(deadline_ns - now)),
            );
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            match outcome {
                FutexWait::Stale => stats::record_futex_eagain(),
                _ => stats::record_parked_wait(),
            }
            if ready() {
                return true;
            }
            if outcome == FutexWait::TimedOut {
                return ready();
            }
        }
    }

    /// Publishes a wakeup: bumps the generation (always — a concurrent
    /// waiter between snapshot and sleep must see the word move) and wakes
    /// sleepers only when the waiter counter says there may be any. Call
    /// *after* the state change that makes waiters ready.
    pub fn notify_all(&self) {
        self.gen.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        #[cfg(feature = "schedcheck")]
        if mutation::drop_futex_wake() {
            return;
        }
        stats::record_futex_wake();
        futex_wake_raw(&self.gen, u32::MAX);
    }
}

impl Default for FutexEventCount {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FutexEventCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FutexEventCount")
            .field("generation", &self.generation())
            .field("waiters", &self.waiters())
            .finish()
    }
}

static FUTEX_BUCKETS: OnceLock<Box<[FutexEventCount]>> = OnceLock::new();

/// The global futex-eventcount bucket for an address key. Distinct keys
/// sharing a bucket cost spurious re-checks (every sleeper of the bucket
/// wakes), never lost wakeups — the same trade the park buckets make.
fn futex_bucket_for(key: usize) -> &'static FutexEventCount {
    let buckets =
        FUTEX_BUCKETS.get_or_init(|| (0..WAIT_BUCKETS).map(|_| FutexEventCount::new()).collect());
    &buckets[(mix64(key as u64) as usize) & (WAIT_BUCKETS - 1)]
}

/// The wake generation of the global futex bucket `key` hashes to: lets
/// tests prove a code path publishes no futex wakeup.
#[cfg(test)]
pub(crate) fn futex_bucket_generation(key: usize) -> u32 {
    futex_bucket_for(key).generation()
}

/// A one-byte dispatcher between spinning, parking and futex-blocking,
/// resolved once from the lock spec's `wait=` knob and stored inside each
/// lock.
///
/// In [`WaitMode::Spin`] every wait is the original [`Backoff`] loop and
/// every notification is a no-op, so spin-configured locks keep their old
/// behaviour (and cost) exactly. In [`WaitMode::Park`] waits go through the
/// global [`WaitQueue`] buckets and releases publish wakeups keyed by the
/// lock's address. In [`WaitMode::Futex`] waits block in the kernel through
/// the global [`FutexEventCount`] buckets when
/// [`futex_backend_active`] — and through the park buckets otherwise, so a
/// `wait=futex` spec is valid on every target.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStrategy {
    mode: WaitMode,
}

impl WaitStrategy {
    /// A strategy for the given mode.
    pub const fn new(mode: WaitMode) -> Self {
        Self { mode }
    }

    /// The always-spin strategy (the historical behaviour).
    pub const fn spin() -> Self {
        Self::new(WaitMode::Spin)
    }

    /// The spin-then-park strategy.
    pub const fn park() -> Self {
        Self::new(WaitMode::Park)
    }

    /// The spin-then-futex strategy (park fallback off Linux).
    pub const fn futex() -> Self {
        Self::new(WaitMode::Futex)
    }

    /// The configured mode.
    pub fn mode(&self) -> WaitMode {
        self.mode
    }

    /// Waits until `ready()` is true: by spinning, or by parking under
    /// `key` after the spin grace period.
    #[inline]
    pub fn wait_until(&self, key: usize, mut ready: impl FnMut() -> bool) {
        match self.mode {
            WaitMode::Spin => {
                let mut backoff = Backoff::new();
                while !ready() {
                    backoff.snooze();
                }
            }
            WaitMode::Park => bucket_for(key).wait_until(key, ready),
            WaitMode::Futex => {
                if futex_backend_active() {
                    futex_bucket_for(key).wait_until(ready)
                } else {
                    bucket_for(key).wait_until(key, ready)
                }
            }
        }
    }

    /// Bounded wait: gives up at `deadline_ns` on the [`now_ns`] clock.
    /// Returns whether the condition was observed true.
    #[inline]
    pub fn wait_until_deadline(
        &self,
        key: usize,
        mut ready: impl FnMut() -> bool,
        deadline_ns: u64,
    ) -> bool {
        match self.mode {
            WaitMode::Spin => {
                let mut backoff = Backoff::new();
                loop {
                    if ready() {
                        return true;
                    }
                    if now_ns() >= deadline_ns {
                        return ready();
                    }
                    backoff.snooze();
                }
            }
            WaitMode::Park => bucket_for(key).wait_until_deadline(key, ready, deadline_ns),
            WaitMode::Futex => {
                if futex_backend_active() {
                    futex_bucket_for(key).wait_until_deadline(ready, deadline_ns)
                } else {
                    bucket_for(key).wait_until_deadline(key, ready, deadline_ns)
                }
            }
        }
    }

    /// Publishes a wakeup to every thread blocked under `key`. No-op when
    /// spinning; call it *after* the state change that makes waiters ready.
    #[inline]
    pub fn notify_all(&self, key: usize) {
        match self.mode {
            WaitMode::Spin => {}
            WaitMode::Park => {
                bucket_for(key).wake_all(key);
            }
            WaitMode::Futex => {
                if futex_backend_active() {
                    futex_bucket_for(key).notify_all();
                } else {
                    bucket_for(key).wake_all(key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicU64;

    #[test]
    fn wait_mode_round_trips_through_strings() {
        for mode in [WaitMode::Spin, WaitMode::Park, WaitMode::Futex] {
            assert_eq!(mode.as_str().parse::<WaitMode>(), Ok(mode));
        }
        assert!("busy".parse::<WaitMode>().is_err());
        assert_eq!(WaitMode::default(), WaitMode::Spin);
    }

    #[test]
    fn fallback_env_values_parse_like_booleans() {
        use std::ffi::OsStr;
        assert!(!fallback_env_requested(None));
        assert!(!fallback_env_requested(Some(OsStr::new(""))));
        assert!(!fallback_env_requested(Some(OsStr::new("0"))));
        assert!(fallback_env_requested(Some(OsStr::new("1"))));
        assert!(fallback_env_requested(Some(OsStr::new("yes"))));
    }

    #[test]
    fn futex_event_count_ready_condition_returns_without_sleeping() {
        // An already-true condition is satisfied inside the spin grace: the
        // waiter never announces itself, so a notifier observing
        // waiters() == 0 skips the wake syscall. (The process-wide
        // zero-syscall pin lives in tests/perf_floor.rs, where the whole
        // binary is uncontended; global counters race with the storm tests
        // here.)
        let ec = FutexEventCount::new();
        ec.wait_until(|| true);
        assert!(ec.wait_until_deadline(|| true, now_ns() + 1_000_000));
        assert_eq!(ec.waiters(), 0);
        assert_eq!(ec.generation(), 0, "a pure wait must not move the word");
    }

    #[test]
    fn futex_notify_without_waiters_bumps_only_the_word() {
        let ec = FutexEventCount::new();
        for _ in 0..100 {
            ec.notify_all();
        }
        assert_eq!(ec.generation(), 100, "every notify must bump the word");
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn futex_event_count_deadline_expires_when_never_ready() {
        let ec = FutexEventCount::new();
        let deadline = now_ns() + 5_000_000; // 5 ms
        assert!(!ec.wait_until_deadline(|| false, deadline));
        assert!(now_ns() >= deadline);
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn futex_event_count_survives_a_contended_handoff_storm() {
        // The FutexEventCount analogue of the park storm: many threads
        // ping-ponging one counter through the same eventcount must never
        // lose a wakeup.
        let ec = Arc::new(FutexEventCount::new());
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let ec = Arc::clone(&ec);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for round in 0..200u64 {
                        let target = round * 8 + t + 1;
                        ec.wait_until(|| counter.load(Ordering::SeqCst) >= target - 1);
                        counter.fetch_add(1, Ordering::SeqCst);
                        ec.notify_all();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 200);
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn generation_wraparound_is_benign() {
        // Start the word just under u32::MAX and drive handoffs across the
        // wrap: equality-only comparison means nothing special happens.
        let ec = Arc::new(FutexEventCount::with_generation(u32::MAX - 8));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ec = Arc::clone(&ec);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for round in 0..8u64 {
                        let target = round * 4 + t + 1;
                        ec.wait_until(|| counter.load(Ordering::SeqCst) >= target - 1);
                        counter.fetch_add(1, Ordering::SeqCst);
                        ec.notify_all();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4 * 8);
        // 32 notifies from u32::MAX - 8 lands past the wrap.
        assert_eq!(ec.generation(), (u32::MAX - 8).wrapping_add(32));
    }

    #[test]
    fn futex_waits_are_counted_when_a_sleeper_blocks() {
        // Mirrors parked_waits_are_counted for the futex columns: a waiter
        // that genuinely sleeps must record futex_waits (and parked_waits,
        // the cross-mode column).
        for _ in 0..20 {
            let before = crate::stats::snapshot();
            let ec = Arc::new(FutexEventCount::new());
            let flag = Arc::new(AtomicBool::new(false));
            std::thread::scope(|s| {
                let ec2 = Arc::clone(&ec);
                let flag2 = Arc::clone(&flag);
                let waiter = s.spawn(move || ec2.wait_until(|| flag2.load(Ordering::SeqCst)));
                let mut backoff = Backoff::new();
                while ec.waiters() == 0 {
                    backoff.snooze();
                }
                std::thread::sleep(Duration::from_millis(10));
                flag.store(true, Ordering::SeqCst);
                ec.notify_all();
                waiter.join().unwrap();
            });
            let delta = crate::stats::snapshot().since(&before);
            if delta.futex_waits >= 1 && delta.parked_waits >= 1 {
                return;
            }
        }
        panic!("no futex wait was recorded in 20 episodes");
    }

    #[test]
    fn futex_strategy_handles_contended_handoffs() {
        // The full wait=futex dispatch path (bucket lookup included), on
        // whichever backend this process resolved to.
        let strategy = WaitStrategy::futex();
        assert_eq!(strategy.mode(), WaitMode::Futex);
        let counter = Arc::new(AtomicU64::new(0));
        let key = Arc::as_ptr(&counter) as usize;
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for round in 0..200u64 {
                        let target = round * 8 + t + 1;
                        strategy.wait_until(key, || counter.load(Ordering::SeqCst) >= target - 1);
                        counter.fetch_add(1, Ordering::SeqCst);
                        strategy.notify_all(key);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 200);
    }

    #[test]
    fn ready_condition_returns_without_parking() {
        let q = WaitQueue::new();
        q.wait_until(1, || true);
        assert!(q.is_empty());
        assert!(q.wait_until_deadline(1, || true, now_ns() + 1_000_000));
    }

    #[test]
    fn deadline_expires_when_never_ready() {
        let q = WaitQueue::new();
        let deadline = now_ns() + 5_000_000; // 5 ms
        assert!(!q.wait_until_deadline(7, || false, deadline));
        assert!(now_ns() >= deadline);
        assert!(q.is_empty());
    }

    #[test]
    fn wake_all_releases_every_matching_waiter() {
        let q = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let released = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = Arc::clone(&q);
                let flag = Arc::clone(&flag);
                let released = Arc::clone(&released);
                s.spawn(move || {
                    q.wait_until(42, || flag.load(Ordering::SeqCst));
                    released.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Wait for all four to actually park (registration is visible
            // via len()), then release them with one wake.
            let mut backoff = Backoff::new();
            while q.len() < 4 {
                backoff.snooze();
            }
            flag.store(true, Ordering::SeqCst);
            q.wake_all(42);
        });
        assert_eq!(released.load(Ordering::SeqCst), 4);
        assert!(q.is_empty());
    }

    #[test]
    fn wake_one_is_fifo_per_key() {
        let q = Arc::new(WaitQueue::new());
        let turn = Arc::new(AtomicU64::new(0));
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for i in 0..3u64 {
                let waiter_q = Arc::clone(&q);
                let turn = Arc::clone(&turn);
                let order = Arc::clone(&order);
                s.spawn(move || {
                    waiter_q.wait_until(9, || turn.load(Ordering::SeqCst) > i);
                    order.lock().unwrap().push(i);
                });
                // Stagger registrations so queue order is deterministic.
                let mut backoff = Backoff::new();
                while q.len() < (i + 1) as usize {
                    backoff.snooze();
                }
            }
            for next in 0..3u64 {
                turn.store(next + 1, Ordering::SeqCst);
                assert!(q.wake_one(9), "waiter {next} should be parked");
                let mut backoff = Backoff::new();
                while order.lock().unwrap().len() < (next + 1) as usize {
                    backoff.snooze();
                }
            }
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn wakes_filter_by_key() {
        let q = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let waiter = {
                let q = Arc::clone(&q);
                let flag = Arc::clone(&flag);
                s.spawn(move || q.wait_until(5, || flag.load(Ordering::SeqCst)))
            };
            let mut backoff = Backoff::new();
            while q.is_empty() {
                backoff.snooze();
            }
            // A wake for a different key must not release the waiter.
            assert_eq!(q.wake_all(6), 0);
            assert!(!q.is_empty());
            flag.store(true, Ordering::SeqCst);
            assert_eq!(q.wake_all(5), 1);
            waiter.join().unwrap();
        });
    }

    #[test]
    fn park_strategy_survives_a_contended_handoff_storm() {
        // No lost wakeups under churn: many waiters, many wakes, all on the
        // same key, must all terminate.
        let strategy = WaitStrategy::park();
        let counter = Arc::new(AtomicU64::new(0));
        let key = Arc::as_ptr(&counter) as usize;
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for round in 0..200u64 {
                        let target = round * 8 + t + 1;
                        strategy.wait_until(key, || counter.load(Ordering::SeqCst) >= target - 1);
                        counter.fetch_add(1, Ordering::SeqCst);
                        strategy.notify_all(key);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 200);
    }

    #[test]
    fn spin_strategy_never_registers() {
        let strategy = WaitStrategy::spin();
        let n = AtomicU64::new(0);
        strategy.wait_until(99, || n.fetch_add(1, Ordering::Relaxed) > 3);
        assert!(strategy.wait_until_deadline(99, || true, now_ns()));
        strategy.notify_all(99); // no-op
        assert_eq!(strategy.mode(), WaitMode::Spin);
    }

    #[test]
    fn parked_waits_are_counted() {
        // A waiter that registers but sees the flag set during its re-check
        // returns without recording a park, so retry a few episodes until
        // one genuinely parks (in practice the first one does).
        for _ in 0..20 {
            let before = crate::stats::snapshot();
            let q = Arc::new(WaitQueue::new());
            let flag = Arc::new(AtomicBool::new(false));
            std::thread::scope(|s| {
                let q2 = Arc::clone(&q);
                let flag2 = Arc::clone(&flag);
                let waiter = s.spawn(move || q2.wait_until(11, || flag2.load(Ordering::SeqCst)));
                let mut backoff = Backoff::new();
                while q.is_empty() {
                    backoff.snooze();
                }
                // Give the waiter time to pass its re-check and park.
                std::thread::sleep(Duration::from_millis(10));
                flag.store(true, Ordering::SeqCst);
                q.wake_all(11);
                waiter.join().unwrap();
            });
            if crate::stats::snapshot().since(&before).parked_waits >= 1 {
                return;
            }
        }
        panic!("no parked wait was recorded in 20 episodes");
    }

    #[test]
    fn deadline_already_past_returns_immediately() {
        // A deadline at-or-before "now" must not register, must not park,
        // and must report the condition's value at that instant.
        let q = WaitQueue::new();
        assert!(!q.wait_until_deadline(3, || false, 0));
        assert!(q.is_empty());
        assert!(!q.wait_until_deadline(3, || false, now_ns().saturating_sub(1)));
        assert!(q.is_empty());
        // If the condition is already true the expired deadline is moot.
        assert!(q.wait_until_deadline(3, || true, 0));
        assert!(q.is_empty());
    }

    #[test]
    fn wake_racing_timeout_leaves_queue_consistent() {
        // A wake that lands around the waiter's deadline must never corrupt
        // the queue: whichever side wins, `true` is returned only with the
        // condition actually true, the queue ends empty, and the next round
        // still works (no node leaked, no wakeup eaten).
        let q = Arc::new(WaitQueue::new());
        let mut wake_won = 0u32;
        for round in 0..50u64 {
            let flag = Arc::new(AtomicBool::new(false));
            std::thread::scope(|s| {
                let waiter = {
                    let q = Arc::clone(&q);
                    let flag = Arc::clone(&flag);
                    s.spawn(move || {
                        // Sub-millisecond deadline so timeout genuinely races
                        // the main thread's wake on loaded hosts.
                        let deadline = now_ns() + 200_000 + (round % 7) * 50_000;
                        let won =
                            q.wait_until_deadline(13, || flag.load(Ordering::SeqCst), deadline);
                        (won, flag.load(Ordering::SeqCst))
                    })
                };
                flag.store(true, Ordering::SeqCst);
                q.wake_all(13);
                let (won, flag_at_return) = waiter.join().unwrap();
                if won {
                    wake_won += 1;
                    assert!(flag_at_return, "returned true with the condition false");
                }
                // `false` is legitimate only when the deadline beat the
                // store; either way nothing may linger in the queue.
            });
            assert!(q.is_empty(), "round {round} leaked a waiter node");
        }
        // The store happens within microseconds of spawn, so the wake side
        // must win at least once across 50 rounds.
        assert!(wake_won > 0, "wake never beat the timeout in 50 rounds");
    }

    #[test]
    fn stale_wake_token_does_not_break_later_waits() {
        // deregister() races a waker: the waker may dequeue the node and
        // bank an unpark token after the waiter already timed out. The next
        // wait on the same thread must still obey its own condition.
        let q = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let q2 = Arc::clone(&q);
            let flag2 = Arc::clone(&flag);
            let waiter = s.spawn(move || {
                // Phase 1: time out (condition never true), possibly
                // collecting a stale unpark token from the main thread.
                let timed_out = !q2.wait_until_deadline(21, || false, now_ns() + 2_000_000);
                // Phase 2: a real wait that must not terminate early off the
                // banked token alone.
                q2.wait_until(21, || flag2.load(Ordering::SeqCst));
                (timed_out, flag2.load(Ordering::SeqCst))
            });
            // Fire wakes at the (probably parked, possibly timing-out)
            // waiter without making it ready: these tokens are stale.
            for _ in 0..10 {
                q.wake_all(21);
                std::thread::sleep(Duration::from_micros(300));
            }
            // Now make phase 2 genuinely ready and wake.
            flag.store(true, Ordering::SeqCst);
            let mut backoff = Backoff::new();
            loop {
                q.wake_all(21);
                if waiter.is_finished() {
                    break;
                }
                backoff.snooze();
            }
            let (timed_out, saw_flag) = waiter.join().unwrap();
            assert!(timed_out, "phase 1 condition was never true");
            assert!(saw_flag, "phase 2 returned before its condition held");
        });
        assert!(q.is_empty());
    }
}
