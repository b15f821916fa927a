//! Deterministic model-checking corpus over the lock catalog.
//!
//! Build with `--features schedcheck`: the `bravo::sync` facade then routes
//! every atomic, mutex, and park through schedcheck's instrumented shims, and
//! each test below explores a fixed-seed set of thread interleavings with the
//! checker's serialized scheduler. Every test is deterministic: a failure
//! prints a `SCHEDCHECK_SEED` token that replays the exact interleaving.
#![cfg(feature = "schedcheck")]

use std::collections::HashSet;
use std::sync::Arc;

use bravo::stats::StatsSink;
use bravo::sync::atomic::{AtomicU64, Ordering};
use bravo::{BiasPolicy, BravoLock, DefaultRwLock, RawRwLock, TableHandle, WaitMode, WaitStrategy};
use rwlocks::{CounterRwLock, RawMutex, TicketMutex};
use schedcheck::{Config, FailureKind};

/// Readers and one non-atomically-incrementing writer over a raw rwlock.
/// Exclusion violations surface as a lost update; lost wakeups or deadlocks
/// surface as the checker's global-deadlock detection.
fn rwlock_scenario<L>(make: fn() -> L) -> impl Fn() + Send + Sync + 'static
where
    L: RawRwLock + Send + Sync + 'static,
{
    move || {
        let lock = Arc::new(make());
        let data = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let lock = Arc::clone(&lock);
            let data = Arc::clone(&data);
            handles.push(schedcheck::spawn(move || {
                lock.lock_shared();
                let _ = data.load(Ordering::SeqCst);
                lock.unlock_shared();
            }));
        }
        for _ in 0..2 {
            let lock = Arc::clone(&lock);
            let data = Arc::clone(&data);
            handles.push(schedcheck::spawn(move || {
                lock.lock_exclusive();
                // Deliberately non-atomic read-modify-write: only mutual
                // exclusion makes the final count come out right.
                let v = data.load(Ordering::SeqCst);
                data.store(v + 1, Ordering::SeqCst);
                lock.unlock_exclusive();
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(data.load(Ordering::SeqCst), 2, "writer update lost");
    }
}

#[test]
fn default_rwlock_park_mode_survives_pct() {
    let report = schedcheck::check(
        &Config::pct(0xD3F0, 3).with_schedules(200),
        rwlock_scenario(|| DefaultRwLock::with_wait(WaitMode::Park)),
    );
    assert_eq!(report.schedules, 200);
}

#[test]
fn counter_rwlock_park_mode_survives_pct() {
    schedcheck::check(
        &Config::pct(0xC0FE, 3).with_schedules(200),
        rwlock_scenario(|| CounterRwLock::with_wait(WaitMode::Park)),
    );
}

#[test]
fn ticket_mutex_park_mode_excludes_under_pct() {
    schedcheck::check(&Config::pct(0x71C4, 3).with_schedules(200), || {
        let m = Arc::new(TicketMutex::with_wait(WaitMode::Park));
        let c = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                let c = Arc::clone(&c);
                schedcheck::spawn(move || {
                    m.lock();
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                    m.unlock();
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.load(Ordering::SeqCst), 3, "ticket mutex admitted two");
    });
}

#[test]
fn bravo_revocation_handshake_survives_pct() {
    // The clean version of the scenario `tests/schedcheck_mutation.rs`
    // breaks: a fast-path reader backing out against a parked revoking
    // writer. With the wakeup in place no interleaving may deadlock.
    for seed in [0xB1A5, 0xB1A6] {
        schedcheck::check(&Config::pct(seed, 3).with_schedules(200), || {
            let lock = Arc::new(
                BravoLock::<DefaultRwLock>::with_parts(
                    DefaultRwLock::with_wait(WaitMode::Park),
                    TableHandle::private(1),
                    BiasPolicy::paper_default(),
                )
                .with_wait_mode(WaitMode::Park),
            );
            // Prime reader bias from the root before racing.
            lock.read_unlock(lock.read_lock());
            let reader = {
                let lock = Arc::clone(&lock);
                schedcheck::spawn(move || lock.read_unlock(lock.read_lock()))
            };
            let writer = {
                let lock = Arc::clone(&lock);
                schedcheck::spawn(move || {
                    lock.write_lock();
                    lock.write_unlock();
                })
            };
            reader.join();
            writer.join();
        });
    }
}

#[test]
fn racing_slow_readers_enable_bias_once() {
    // Two readers on a fresh lock both find bias off and go slow, so both
    // may reach the re-enable check while holding the underlying lock
    // shared. Only one of them may count the false-to-true transition. With
    // a check-then-store enable both count it, and this walk finds that on
    // its second schedule (`SCHEDCHECK_SEED=rw:2`).
    schedcheck::check(&Config::random_walk(1).with_schedules(200), || {
        let lock = Arc::new(
            BravoLock::<DefaultRwLock>::with_instrumented(
                DefaultRwLock::with_wait(WaitMode::Park),
                TableHandle::private(64),
                BiasPolicy::paper_default(),
                StatsSink::per_lock(),
            )
            .with_wait_mode(WaitMode::Park),
        );
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                schedcheck::spawn(move || lock.read_unlock(lock.read_lock()))
            })
            .collect();
        for r in readers {
            r.join();
        }
        assert_eq!(
            lock.stats().snapshot().bias_enabled,
            1,
            "bias enabled twice"
        );
    });
}

#[test]
fn park_handoff_never_loses_wakeups() {
    // Replays the exact protocol the parking-waiter PR pinned down: state
    // change, fence, wake. A dropped wakeup parks the waiter forever and
    // the checker reports the deadlock with a replay seed.
    for seed in [3, 17] {
        let report = schedcheck::check(&Config::pct(seed, 2).with_schedules(200), || {
            let strategy = WaitStrategy::park();
            let flag = Arc::new(AtomicU64::new(0));
            let key = 0x5eed_f1a6usize;
            let waiter = {
                let flag = Arc::clone(&flag);
                schedcheck::spawn(move || {
                    strategy.wait_until(key, || flag.load(Ordering::SeqCst) == 1);
                })
            };
            let setter = {
                let flag = Arc::clone(&flag);
                schedcheck::spawn(move || {
                    flag.store(1, Ordering::SeqCst);
                    strategy.notify_all(key);
                })
            };
            waiter.join();
            setter.join();
        });
        assert_eq!(report.schedules, 200);
    }
}

#[test]
fn wait_queue_count_survives_two_waiters_and_a_waker() {
    // Two park-mode waiters and one waker on one key. The waker wakes
    // both, then the late waiter again. If a waiter counted itself only
    // after publishing its node (outside the queue mutex), the first wake
    // could dequeue that node and decrement before the increment, wrapping
    // the count; the early waiter's re-registration then brings it back to
    // 0 while it is parked, and the second wake's `registered == 0` fast
    // exit skips it. The 2-thread handoff above cannot reach that window.
    // `schedcheck_mutation.rs` re-plants that ordering
    // (`BRAVO_MUTATE_LATE_REGISTER`) and proves PCT finds the deadlock.
    let report = schedcheck::check(&Config::pct(0x30, 3).with_schedules(400), || {
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
    });
    assert_eq!(report.schedules, 400);
}

#[test]
fn futex_handoff_never_loses_wakeups() {
    // The futex twin of the park handoff case: the schedcheck virtual
    // futex makes wait/wake yield points, so every interleaving of the
    // announce/snapshot/recheck/sleep protocol against the generation bump
    // is explored. A lost wakeup sleeps the waiter forever and surfaces as
    // a reported deadlock.
    for seed in [3, 17] {
        let report = schedcheck::check(&Config::pct(seed, 2).with_schedules(200), || {
            let strategy = WaitStrategy::futex();
            let flag = Arc::new(AtomicU64::new(0));
            let key = 0x5eed_f1a6usize;
            let waiter = {
                let flag = Arc::clone(&flag);
                schedcheck::spawn(move || {
                    strategy.wait_until(key, || flag.load(Ordering::SeqCst) == 1);
                })
            };
            let setter = {
                let flag = Arc::clone(&flag);
                schedcheck::spawn(move || {
                    flag.store(1, Ordering::SeqCst);
                    strategy.notify_all(key);
                })
            };
            waiter.join();
            setter.join();
        });
        assert_eq!(report.schedules, 200);
    }
}

#[test]
fn futex_generation_wraparound_is_benign_under_the_checker() {
    // Litmus: park the eventcount's 32-bit generation right at u32::MAX so
    // the bump in every explored schedule crosses the wrap. The protocol
    // compares generations for equality only, so the wrap must be
    // unobservable — any schedule where a waiter keyed on a pre-wrap
    // generation misses a post-wrap wake would deadlock here.
    for seed in [5, 23] {
        let report = schedcheck::check(&Config::pct(seed, 2).with_schedules(200), || {
            let ec = Arc::new(bravo::FutexEventCount::with_generation(u32::MAX));
            let flag = Arc::new(AtomicU64::new(0));
            let waiter = {
                let ec = Arc::clone(&ec);
                let flag = Arc::clone(&flag);
                schedcheck::spawn(move || {
                    ec.wait_until(|| flag.load(Ordering::SeqCst) == 1);
                })
            };
            let setter = {
                let ec = Arc::clone(&ec);
                let flag = Arc::clone(&flag);
                schedcheck::spawn(move || {
                    flag.store(1, Ordering::SeqCst);
                    ec.notify_all();
                })
            };
            waiter.join();
            setter.join();
        });
        assert_eq!(report.schedules, 200);
    }
}

#[test]
fn wait_queue_wake_one_is_fifo_under_the_checker() {
    schedcheck::check(&Config::random_walk(11).with_schedules(64), || {
        let q = Arc::new(bravo::WaitQueue::new());
        let turn = Arc::new(AtomicU64::new(0));
        let order = Arc::new(bravo::sync::Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for i in 0..2u64 {
            let q2 = Arc::clone(&q);
            let turn = Arc::clone(&turn);
            let order = Arc::clone(&order);
            waiters.push(schedcheck::spawn(move || {
                q2.wait_until(9, || turn.load(Ordering::SeqCst) > i);
                order.lock().unwrap().push(i);
            }));
            // Stagger registrations so queue order is deterministic; the
            // len() poll is an instrumented load, i.e. a yield point.
            while q.len() < (i + 1) as usize {
                std::hint::spin_loop();
            }
        }
        for next in 0..2u64 {
            turn.store(next + 1, Ordering::SeqCst);
            assert!(q.wake_one(9), "waiter {next} should be parked");
            while order.lock().unwrap().len() < (next + 1) as usize {
                std::hint::spin_loop();
            }
        }
        for w in waiters {
            w.join();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1], "wake_one broke FIFO");
    });
}

#[test]
fn store_buffering_litmus_is_sequentially_consistent() {
    // Two threads store-then-load opposing variables. The serialized
    // scheduler implements sequential consistency, so (0, 0) must be
    // unreachable while the other three outcomes must all be discovered by
    // a complete exhaustive exploration.
    static OUTCOMES: std::sync::Mutex<Vec<(u64, u64)>> = std::sync::Mutex::new(Vec::new());
    OUTCOMES.lock().unwrap().clear();
    let report = schedcheck::run(&Config::exhaustive().with_schedules(10_000), || {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let t1 = {
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            schedcheck::spawn(move || {
                x.store(1, Ordering::SeqCst);
                y.load(Ordering::SeqCst)
            })
        };
        let t2 = {
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            schedcheck::spawn(move || {
                y.store(1, Ordering::SeqCst);
                x.load(Ordering::SeqCst)
            })
        };
        let r1 = t1.join();
        let r2 = t2.join();
        OUTCOMES.lock().unwrap().push((r1, r2));
    })
    .unwrap_or_else(|f| panic!("litmus schedule failed: {f}"));
    assert!(
        report.complete,
        "exhaustive exploration did not finish in {} schedules",
        report.schedules
    );
    let outcomes: HashSet<(u64, u64)> = OUTCOMES.lock().unwrap().iter().copied().collect();
    assert!(
        !outcomes.contains(&(0, 0)),
        "store buffering observed under a sequentially consistent scheduler"
    );
    for want in [(0, 1), (1, 0), (1, 1)] {
        assert!(outcomes.contains(&want), "never explored outcome {want:?}");
    }
}

#[test]
fn racy_increment_is_caught_and_replays_byte_for_byte() {
    // A deliberate exclusion bug: two unsynchronized load-then-store
    // increments. The checker must find the lost update, and its seed token
    // must reproduce the identical schedule (same trace, same step).
    let racy = || {
        let c = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                schedcheck::spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
    };
    let failure = schedcheck::run(&Config::random_walk(1).with_schedules(256), racy)
        .expect_err("the lost update must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.seed_token.starts_with("rw:"),
        "unexpected token {}",
        failure.seed_token
    );
    let replay1 = schedcheck::run(&Config::replay(&failure.seed_token), racy)
        .expect_err("replay must reproduce the failure");
    let replay2 = schedcheck::run(&Config::replay(&failure.seed_token), racy)
        .expect_err("replay must reproduce the failure");
    assert_eq!(replay1.kind, FailureKind::Panic);
    assert_eq!(
        replay1.trace, failure.trace,
        "replay diverged from original"
    );
    assert_eq!(replay1.trace, replay2.trace, "two replays diverged");
    assert_eq!(replay1.step, failure.step);
}
