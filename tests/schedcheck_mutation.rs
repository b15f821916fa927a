//! The model checker's self-test: re-introduce real wakeup bugs and prove
//! schedcheck finds them.
//!
//! Each test plants one seeded bug behind the `schedcheck` feature and
//! asserts the checker (a) passes the clean scenario, (b) drives the seeded
//! bug to its deadlock within the same schedule budget, and (c) prints a
//! seed token that replays the failing interleaving byte-for-byte, which
//! (d) the clean code survives. The planted bugs:
//!
//! * the missing wakeup on BRAVO's fast-path back-out, fixed by the
//!   parking-waiter change: a reader that published its visible-readers-table
//!   slot, lost the race with a revoking writer, and cleared the slot
//!   *without* waking the writer parked on it (`BRAVO_MUTATE_LOST_WAKEUP`);
//! * a fast-path release that checks the bias flag *before* clearing its
//!   slot, so a revoker that clears the flag and scans in between is never
//!   woken (`BRAVO_MUTATE_EARLY_BIAS_CHECK`);
//! * `WaitQueue::register` counting its node only after the queue mutex
//!   drops, so a wake can decrement first and a later waiter is skipped by
//!   the `registered == 0` fast exit (`BRAVO_MUTATE_LATE_REGISTER`).
//!
//! The mutation flags are process-wide, so the tests take turns through
//! one mutex.
#![cfg(feature = "schedcheck")]

use std::sync::{Arc, Mutex};

use bravo::sync::atomic::{AtomicU64, Ordering};
use bravo::{lock, wait};
use bravo::{BiasPolicy, BravoLock, DefaultRwLock, RawRwLock, TableHandle, WaitMode};
use schedcheck::{Config, FailureKind};

static SERIAL: Mutex<()> = Mutex::new(());

/// A single-slot private table in park mode: slot choice (and with it the
/// schedule shape) cannot depend on address-space layout, keeping replays
/// exact. Reader bias is primed from the root so the spawned reader takes
/// the fast path.
fn parked_bravo() -> Arc<BravoLock<DefaultRwLock>> {
    let lock = Arc::new(
        BravoLock::<DefaultRwLock>::with_parts(
            DefaultRwLock::with_wait(WaitMode::Park),
            TableHandle::private(1),
            BiasPolicy::paper_default(),
        )
        .with_wait_mode(WaitMode::Park),
    );
    lock.read_unlock(lock.read_lock());
    lock
}

/// A writer that revokes bias and parks on the reader's slot.
fn spawn_writer(lock: &Arc<BravoLock<DefaultRwLock>>) -> schedcheck::JoinHandle<()> {
    let lock = Arc::clone(lock);
    schedcheck::spawn(move || {
        lock.write_lock();
        lock.write_unlock();
    })
}

/// The revocation handshake, built so the lost-wakeup mutation turns into a
/// *global* deadlock the checker can prove: the reader uses
/// `try_read_lock`, so after backing out against the writer (which holds
/// the underlying lock) it exits instead of blocking, leaving the parked
/// writer alone with provably no waker.
fn revocation_scenario() {
    let lock = parked_bravo();
    let reader = {
        let lock = Arc::clone(&lock);
        schedcheck::spawn(move || {
            if let Some(token) = lock.try_read_lock() {
                lock.read_unlock(token);
            }
        })
    };
    let writer = spawn_writer(&lock);
    reader.join();
    writer.join();
}

/// A fast reader holds across a revoking writer: the writer clears the
/// bias flag, finds the reader's slot published and parks on it, and only
/// the reader's release can wake it.
fn held_read_scenario() {
    let lock = parked_bravo();
    let reader = {
        let lock = Arc::clone(&lock);
        schedcheck::spawn(move || {
            let token = lock.read_lock();
            lock.read_unlock(token);
        })
    };
    let writer = spawn_writer(&lock);
    reader.join();
    writer.join();
}

/// Two park-mode waiters and one waker on one key: the waker wakes both,
/// then the late waiter again (the scenario of
/// `schedcheck_locks::wait_queue_count_survives_two_waiters_and_a_waker`).
fn wait_queue_count_scenario() {
    let q = Arc::new(bravo::WaitQueue::new());
    let turn = Arc::new(AtomicU64::new(0));
    let key = 0x3a17usize;
    let waiters: Vec<_> = (1..=2u64)
        .map(|want| {
            let q = Arc::clone(&q);
            let turn = Arc::clone(&turn);
            schedcheck::spawn(move || {
                q.wait_until(key, || turn.load(Ordering::SeqCst) >= want);
            })
        })
        .collect();
    let waker = {
        let q = Arc::clone(&q);
        let turn = Arc::clone(&turn);
        schedcheck::spawn(move || {
            for next in 1..=2 {
                turn.store(next, Ordering::SeqCst);
                q.wake_all(key);
            }
        })
    };
    for w in waiters {
        w.join();
    }
    waker.join();
}

/// Clears a mutation flag when dropped, so a failing hunt cannot leave it
/// planted for the next test.
struct Planted(fn(bool));

impl Planted {
    fn plant(set: fn(bool)) -> Self {
        set(true);
        Self(set)
    }
}

impl Drop for Planted {
    fn drop(&mut self) {
        (self.0)(false);
    }
}

/// How a planted lost wakeup surfaces: a global deadlock whose dump shows
/// the thread parked forever.
const DEADLOCK: (FailureKind, &str) = (FailureKind::Deadlock, "parked");

/// Runs the clean / hunt / replay / clean-replay sequence for one seeded
/// bug. `set` toggles the mutation; `config` is the PCT budget both the
/// clean run and the hunt get; `expect` is the failure kind and a phrase
/// its dump must contain.
fn hunt(set: fn(bool), config: &Config, scenario: fn(), expect: (FailureKind, &str)) {
    let (kind, phrase) = expect;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set(false);
    let report =
        schedcheck::run(config, scenario).unwrap_or_else(|f| panic!("clean scenario failed: {f}"));
    assert_eq!(report.schedules, config.schedules);

    let failure = {
        let _bug = Planted::plant(set);
        schedcheck::run(config, scenario).expect_err("the seeded bug must fail some schedule")
    };
    assert_eq!(failure.kind, kind, "failure: {failure}");
    assert!(
        failure.seed_token.starts_with("pct3:"),
        "unexpected seed token {}",
        failure.seed_token
    );
    assert!(
        failure.detail.contains(phrase),
        "failure dump should mention {phrase:?}: {}",
        failure.detail
    );

    // The printed token replays the identical interleaving: same failure
    // kind, same step count, same hand-off trace, twice over.
    let (replay1, replay2) = {
        let _bug = Planted::plant(set);
        let replay = || {
            schedcheck::run(&Config::replay(&failure.seed_token), scenario)
                .expect_err("replay must reproduce the failure")
        };
        (replay(), replay())
    };
    assert_eq!(replay1.kind, kind);
    assert_eq!(
        replay1.trace, failure.trace,
        "replay diverged from original"
    );
    assert_eq!(replay1.trace, replay2.trace, "two replays diverged");
    assert_eq!(replay1.step, failure.step);

    // And with the mutation off, the very interleaving that failed is
    // harmless: the planted reordering is the whole difference.
    let report = schedcheck::run(&Config::replay(&failure.seed_token), scenario)
        .unwrap_or_else(|f| panic!("fixed code failed the bug's own schedule: {f}"));
    assert_eq!(report.schedules, 1);
}

#[test]
fn checker_finds_reintroduced_lost_wakeup() {
    // The interleaving needs the reader suspended from its publish CAS
    // until the writer has scanned the table and parked: a long
    // descheduling window only priority-based (PCT) exploration finds in
    // reasonable budgets.
    hunt(
        lock::mutation::set_lost_wakeup,
        &Config::pct(0xB0A7, 3).with_schedules(3_000),
        revocation_scenario,
        DEADLOCK,
    );
}

#[test]
fn checker_finds_a_bias_check_before_the_slot_clear() {
    // The reader must read the bias flag as set, then stay suspended while
    // the writer clears it, scans, finds the slot and parks; the reader's
    // clear then wakes nobody.
    hunt(
        lock::mutation::set_early_bias_check,
        &Config::pct(0xB1A5, 3).with_schedules(3_000),
        held_read_scenario,
        DEADLOCK,
    );
}

#[test]
fn checker_finds_a_late_wait_queue_register() {
    // The waker must dequeue the late waiter's uncounted node (wrapping
    // the count), and the other waiter must re-register and park, and the
    // second wake must see the count back at 0, all before the late
    // increment lands. In debug builds `WaitQueue`'s own invariant check
    // catches the wrap first, which the checker reports as a panic.
    let expect = if cfg!(debug_assertions) {
        (FailureKind::Panic, "registered count wrapped")
    } else {
        DEADLOCK
    };
    hunt(
        wait::mutation::set_late_register,
        &Config::pct(0x30, 3).with_schedules(3_000),
        wait_queue_count_scenario,
        expect,
    );
}
