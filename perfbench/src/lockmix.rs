//! The closed-loop lock harness behind `lock_read_mostly` and the traced
//! lock probes.
//!
//! Each thread walks its own seeded stream of write positions: the number
//! of reads before its next write, drawn from a geometric distribution with
//! the configured write probability. Writers bump two guarded words under
//! the exclusive lock; readers check under the shared lock that the words
//! match, so a lock that admits a reader beside a writer fails the run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bravo::spec::LockHandle;
use bravo::stats::{self, Snapshot};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::trace;

/// Length of each thread's cyclic stream of write positions.
const STREAM_LEN: usize = 1 << 14;
/// Operations between two looks at the stop flag.
const CHECK_EVERY: u32 = 256;

/// The seeded input of one run: per thread, how many reads precede each
/// write.
pub struct Streams(Vec<Vec<u32>>);

impl Streams {
    /// Draws `threads` streams of write positions for write probability
    /// `p_write` (0 never writes, 1 always writes).
    pub fn generate(seed: u64, threads: usize, p_write: f64) -> Self {
        Streams(
            (0..threads)
                .map(|t| {
                    let mut rng = SmallRng::seed_from_u64(seed ^ ((t as u64 + 1) * 0x9e37_79b9));
                    (0..STREAM_LEN)
                        .map(|_| geometric(&mut rng, p_write))
                        .collect()
                })
                .collect(),
        )
    }
}

fn geometric(rng: &mut SmallRng, p: f64) -> u32 {
    if p <= 0.0 {
        return u32::MAX;
    }
    if p >= 1.0 {
        return 0;
    }
    // 1 - u lies in (0, 1], so the logarithm is finite.
    let u = 1.0 - (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (u.ln() / (1.0 - p).ln()).min(u32::MAX as f64) as u32
}

/// Outcome of one timed run.
pub struct MixRun {
    pub ops: u64,
    pub elapsed: Duration,
    /// Nanoseconds from each `lock_exclusive` call to acquisition.
    pub write_wait_ns: Vec<u64>,
    /// Reads that saw the two guarded words disagree.
    pub mismatches: u64,
    /// The handle's own counters over the run.
    pub lock: Snapshot,
    /// The process-wide counters over the run (wait-layer events are only
    /// recorded there).
    pub global: Snapshot,
}

impl MixRun {
    /// Nanoseconds per operation on one thread.
    pub fn ns_per_op(&self, threads: usize) -> f64 {
        self.elapsed.as_nanos() as f64 * threads as f64 / self.ops as f64
    }
}

struct Guarded {
    a: AtomicU64,
    b: AtomicU64,
}

/// Runs every stream on its own thread against `handle` for `duration`.
/// `layer` names the layer the lock calls belong to in traced spans.
pub fn run(
    handle: &LockHandle,
    streams: &Streams,
    duration: Duration,
    layer: &'static str,
) -> MixRun {
    let threads = streams.0.len();
    let words = Guarded {
        a: AtomicU64::new(0),
        b: AtomicU64::new(0),
    };
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let traced = trace::enabled();
    let parent = trace::current();
    let lock_before = handle.snapshot();
    let global_before = stats::snapshot();
    let (elapsed, outs) = std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .0
            .iter()
            .map(|stream| {
                let (words, stop, barrier) = (&words, &stop, &barrier);
                s.spawn(move || {
                    trace::adopt(parent);
                    barrier.wait();
                    let out = if traced {
                        worker::<true>(handle, stream, words, stop, layer)
                    } else {
                        worker::<false>(handle, stream, words, stop, layer)
                    };
                    trace::flush_thread();
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let outs: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("lock harness thread panicked"))
            .collect();
        (start.elapsed(), outs)
    });
    let mut run = MixRun {
        ops: 0,
        elapsed,
        write_wait_ns: Vec::new(),
        mismatches: 0,
        lock: handle.snapshot().since(&lock_before),
        global: stats::snapshot().since(&global_before),
    };
    for out in outs {
        run.ops += out.ops;
        run.mismatches += out.mismatches;
        run.write_wait_ns.extend(out.write_wait_ns);
    }
    run
}

struct WorkerOut {
    ops: u64,
    write_wait_ns: Vec<u64>,
    mismatches: u64,
}

fn worker<const TRACED: bool>(
    handle: &LockHandle,
    stream: &[u32],
    words: &Guarded,
    stop: &AtomicBool,
    layer: &'static str,
) -> WorkerOut {
    let mut out = WorkerOut {
        ops: 0,
        write_wait_ns: Vec::new(),
        mismatches: 0,
    };
    let mut pos = 0;
    let mut gap = stream[0];
    let mut sampled = 0u64;
    loop {
        for _ in 0..CHECK_EVERY {
            let write = gap == 0;
            if write {
                pos = (pos + 1) % stream.len();
                gap = stream[pos];
            } else {
                gap -= 1;
            }
            sampled += 1;
            if TRACED && sampled.is_multiple_of(trace::SAMPLE_EVERY) {
                one_op::<true>(handle, words, write, layer, &mut out);
            } else {
                one_op::<false>(handle, words, write, layer, &mut out);
            }
        }
        out.ops += u64::from(CHECK_EVERY);
        if stop.load(Ordering::Relaxed) {
            return out;
        }
    }
}

#[inline(always)]
fn one_op<const SPANS: bool>(
    handle: &LockHandle,
    words: &Guarded,
    write: bool,
    layer: &'static str,
    out: &mut WorkerOut,
) {
    let w = trace::SAMPLE_EVERY;
    if write {
        let t0 = Instant::now();
        if SPANS {
            trace::weighted(layer, "lock_exclusive", w, || handle.lock_exclusive());
        } else {
            handle.lock_exclusive();
        }
        out.write_wait_ns.push(t0.elapsed().as_nanos() as u64);
        let v = words.a.load(Ordering::Relaxed) + 1;
        words.a.store(v, Ordering::Relaxed);
        words.b.store(v, Ordering::Relaxed);
        if SPANS {
            trace::weighted(layer, "unlock_exclusive", w, || handle.unlock_exclusive());
        } else {
            handle.unlock_exclusive();
        }
    } else {
        if SPANS {
            trace::weighted(layer, "lock_shared", w, || handle.lock_shared());
        } else {
            handle.lock_shared();
        }
        let a = words.a.load(Ordering::Relaxed);
        let b = words.b.load(Ordering::Relaxed);
        if SPANS {
            trace::weighted(layer, "unlock_shared", w, || handle.unlock_shared());
        } else {
            handle.unlock_shared();
        }
        out.mismatches += u64::from(a != b);
    }
}
