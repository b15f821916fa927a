//! The per-layer probes of the traced run. Each probe drives one layer
//! through its public functions only, inside spans named after the layer.

use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bravo::stats::Snapshot;
use bravo::vrt::{global_sectored_table, global_table, shared_numa_table, ReaderTable};
use bravo::{WaitMode, WaitStrategy};
use kvstore::Db;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use server::{FrameDecoder, Request, Response};

use crate::report::{hist_quantile_us, median, quantile, Report};
use crate::serve::{self, Served};
use crate::{lock_handle, lockmix, trace, LOCK_THREADS, MODES};

/// The layers spans are attributed to, named after the repository's
/// modules; `perfbench` is the benchmark's own code around the calls.
pub const LAYERS: [&str; 9] = [
    "perfbench",
    "bravo::lock",
    "bravo::vrt",
    "bravo::wait",
    "rwlocks",
    "kvstore",
    "server::protocol",
    "server",
    "server::loadgen",
];

/// Write probability of the write-mix probes.
const MIX_P_WRITE: f64 = 1e-2;
const SAMPLE: u64 = trace::SAMPLE_EVERY;

/// Runs every probe within about `budget` seconds.
pub fn probes(seed: u64, budget: f64) -> io::Result<Report> {
    // Time units: lock 14, vrt 1.5, wait 3, kvstore 4, protocol 2, server 11.
    let unit = Duration::from_secs_f64(budget / 36.0);
    let mut out = Report::default();
    trace::span("perfbench", "lock_probes", || {
        lock_probes(seed, unit, &mut out)
    });
    trace::span("perfbench", "vrt_probes", || vrt_probes(unit, &mut out));
    trace::span("perfbench", "wait_probes", || wait_probes(unit, &mut out));
    trace::span("perfbench", "kvstore_probe", || {
        kvstore_probe(seed, unit * 4, &mut out)
    })?;
    trace::span("perfbench", "protocol_probes", || {
        protocol_probes(unit, &mut out)
    });
    trace::span("perfbench", "server_probes", || {
        server_probes(seed, unit, &mut out)
    })?;
    Ok(out)
}

fn ledger(out: &mut Report, run: &lockmix::MixRun) {
    out.attempted += run.ops;
    out.failed += run.mismatches;
}

fn per_s(count: u64, run: &lockmix::MixRun) -> f64 {
    count as f64 / run.elapsed.as_secs_f64()
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `bravo::lock` read pairs at 1 and 2 threads and on the write mix, the
/// mix's counters for `bravo::vrt` and `bravo::wait`, and plain `BA` for
/// `rwlocks`.
fn lock_probes(seed: u64, unit: Duration, out: &mut Report) {
    let reads_only = |threads| lockmix::Streams::generate(seed, threads, 0.0);
    for mode in MODES {
        let handle = lock_handle(&format!("BRAVO-BA?wait={mode}"));
        for (threads, name) in [(LOCK_THREADS, "read_pair_ns"), (1, "read_pair_1t_ns")] {
            let run = lockmix::run(&handle, &reads_only(threads), unit, "bravo::lock");
            ledger(out, &run);
            out.metric(format!("lock.{name}.{mode}"), run.ns_per_op(threads), "ns");
        }
    }
    let mix = lockmix::Streams::generate(seed, LOCK_THREADS, MIX_P_WRITE);
    let mut totals = Snapshot::default();
    for mode in MODES {
        let handle = lock_handle(&format!("BRAVO-BA?wait={mode}"));
        let run = lockmix::run(&handle, &mix, unit * 2, "bravo::lock");
        ledger(out, &run);
        out.metric(
            format!("lock.fast_read_ratio.{mode}"),
            run.lock.fast_read_fraction(),
            "ratio",
        );
        out.metric(
            format!("lock.revocations_per_s.{mode}"),
            per_s(run.lock.revocations, &run),
            "1/s",
        );
        let mut waits = run.write_wait_ns.clone();
        waits.sort_unstable();
        out.metric(
            format!("lock.write_p99_us.{mode}"),
            quantile(&waits, 0.99) / 1e3,
            "us",
        );
        if mode != WaitMode::Spin {
            // Sleeps that blocked are counted as parked waits in both modes.
            out.metric(
                format!("wait.sleeps_per_s.{mode}"),
                per_s(run.global.parked_waits, &run),
                "1/s",
            );
        }
        if mode == WaitMode::Futex {
            out.metric(
                "wait.futex_wakes_per_s",
                per_s(run.global.futex_wakes, &run),
                "1/s",
            );
            let eagain = ratio(run.global.futex_eagain, run.global.futex_waits);
            out.metric("wait.futex_eagain_ratio", eagain, "ratio");
        }
        totals = totals.merged(&run.lock);
    }
    let reads = totals.total_reads();
    for (reason, count) in [
        ("disabled", totals.slow_reads_disabled),
        ("collision", totals.slow_reads_collision),
        ("raced", totals.slow_reads_raced),
    ] {
        out.metric(
            format!("lock.slow_reads_per_mread.{reason}"),
            ratio(count, reads) * 1e6,
            "count",
        );
    }
    out.metric(
        "vrt.scan_slots_per_revocation",
        totals.scan_slots_per_revocation(),
        "count",
    );
    let ba = lock_handle("BA");
    for (p_write, name) in [(0.0, "read_pair_ns"), (1.0, "write_pair_ns")] {
        let streams = lockmix::Streams::generate(seed, LOCK_THREADS, p_write);
        let run = lockmix::run(&ba, &streams, unit, "rwlocks");
        ledger(out, &run);
        out.metric(format!("rwlocks.{name}"), run.ns_per_op(LOCK_THREADS), "ns");
    }
}

/// Calls `op` in batches of `SAMPLE` until `dur` has passed, with one
/// sampled span per batch; returns nanoseconds per call.
fn timed_loop(dur: Duration, layer: &'static str, name: &'static str, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < dur {
        trace::weighted(layer, name, SAMPLE, &mut op);
        for _ in 1..SAMPLE {
            op();
        }
        calls += SAMPLE;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// `bravo::vrt`: a direct revocation with no readers present, per layout.
fn vrt_probes(unit: Duration, out: &mut Report) {
    let lock = Box::new(0u64);
    let addr = &*lock as *const u64 as usize;
    let tables: [(&str, &dyn ReaderTable); 3] = [
        ("global", global_table()),
        ("sectored", global_sectored_table()),
        ("numa", shared_numa_table(2, 1024)),
    ];
    for (name, table) in tables {
        let ns = timed_loop(unit / 2, "bravo::vrt", "revoke", || {
            black_box(table.revoke(black_box(addr)));
        });
        out.metric(format!("vrt.revoke_ns.{name}"), ns, "ns");
    }
}

/// `bravo::wait`: the release tax of `notify_all` with no waiters from both
/// threads at once, and a two-thread ping-pong handoff.
fn wait_probes(unit: Duration, out: &mut Report) {
    for mode in [WaitMode::Park, WaitMode::Futex] {
        let wait = WaitStrategy::new(mode);
        let key = Box::new(0u64);
        let key = &*key as *const u64 as usize;
        let parent = trace::current();
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..LOCK_THREADS)
                .map(|_| {
                    s.spawn(move || {
                        trace::adopt(parent);
                        let ns = timed_loop(unit / 2, "bravo::wait", "notify_all", || {
                            wait.notify_all(black_box(key))
                        });
                        trace::flush_thread();
                        ns
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("notify thread panicked"))
                .collect()
        });
        out.metric(format!("wait.notify_ns.{mode}"), median(&per_thread), "ns");
        out.metric(
            format!("wait.handoff_us.{mode}"),
            handoff_us(wait, unit),
            "us",
        );
    }
}

fn handoff_us(wait: WaitStrategy, dur: Duration) -> f64 {
    let turn = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let key = &turn as *const AtomicU64 as usize;
    let parent = trace::current();
    let start = Instant::now();
    std::thread::scope(|s| {
        for me in 0..2u64 {
            let (turn, stop) = (&turn, &stop);
            s.spawn(move || {
                trace::adopt(parent);
                let mut n = 0u64;
                loop {
                    let ready =
                        || turn.load(Ordering::Acquire) % 2 == me || stop.load(Ordering::Acquire);
                    n += 1;
                    if n.is_multiple_of(SAMPLE) {
                        trace::weighted("bravo::wait", "wait_until", SAMPLE, || {
                            wait.wait_until(key, ready)
                        });
                    } else {
                        wait.wait_until(key, ready);
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    turn.fetch_add(1, Ordering::AcqRel);
                    wait.notify_all(key);
                }
                trace::flush_thread();
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Release);
        wait.notify_all(key);
    });
    start.elapsed().as_secs_f64() * 1e6 / turn.load(Ordering::Acquire).max(1) as f64
}

/// Draws a key with the load generator's power-law skew (its
/// `skewed_key`): `⌊keys · u^(1/(1−θ))⌋`.
fn skewed_key(rng: &mut SmallRng, keys: u64, skew: f64) -> u64 {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    ((unit.powf(1.0 / (1.0 - skew)) * keys as f64) as u64).min(keys - 1)
}

/// `kvstore`: `serve_kv`'s op stream replayed through `Db` on one thread
/// (the server's single worker), checked against a model map.
fn kvstore_probe(seed: u64, dur: Duration, out: &mut Report) -> io::Result<()> {
    let spec = serve::spec(WaitMode::Futex);
    let db = trace::span("kvstore", "Db::open_prepopulated", || {
        Db::open_prepopulated(
            spec.parse::<bravo::LockSpec>().expect("serve spec parses"),
            serve::KEYS,
        )
    })
    .map_err(|e| io::Error::other(e.to_string()))?;
    let mut model: HashMap<u64, [u64; 4]> =
        (0..serve::KEYS).map(|k| (k, [k, k ^ 0xff, 0, 0])).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b76);
    // ns and count per op: get, put, merge, delete, scan.
    let mut cost = [(0u64, 0u64); 5];
    let mut bad = 0u64;
    let stats_before = db.lock_stats();
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < dur {
        n += 1;
        let key = skewed_key(&mut rng, serve::KEYS, 0.6);
        let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let kind = if draw < 0.02 {
            4
        } else if draw < 0.95 {
            0
        } else {
            1 + (rng.next_u64() % 3) as usize
        };
        let weight = if kind == 4 { 1 } else { SAMPLE };
        let t = Instant::now();
        let traced = |name: &'static str, f: &mut dyn FnMut()| {
            if weight == 1 || n.is_multiple_of(SAMPLE) {
                trace::weighted("kvstore", name, weight, f)
            } else {
                f()
            }
        };
        match kind {
            0 => {
                let mut got = None;
                traced("Db::get", &mut || got = db.get(key));
                bad += u64::from(got != model.get(&key).copied());
            }
            1 => {
                traced("Db::put", &mut || db.put(key, [key, !key, 0, 0]));
                model.insert(key, [key, !key, 0, 0]);
            }
            2 => {
                let add = |v: &mut [u64; 4]| v.iter_mut().for_each(|w| *w = w.wrapping_add(1));
                traced("Db::merge", &mut || db.merge(key, add));
                add(model.entry(key).or_insert([0; 4]));
            }
            3 => {
                let mut present = false;
                traced("Db::delete", &mut || present = db.delete(key));
                bad += u64::from(present != model.remove(&key).is_some());
            }
            _ => {
                let mut len = 0;
                traced("Db::scan", &mut || len = black_box(db.scan(key, 64)).len());
                let expected = model.keys().filter(|k| **k >= key).count().min(64);
                bad += u64::from(len != expected);
            }
        }
        let c = &mut cost[kind];
        c.0 += t.elapsed().as_nanos() as u64;
        c.1 += 1;
    }
    out.attempted += n;
    out.failed += bad;
    let mean = |i: usize| cost[i].0 as f64 / cost[i].1.max(1) as f64;
    for (i, name) in ["get", "put", "merge", "delete"].iter().enumerate() {
        out.metric(format!("kvstore.{name}_ns"), mean(i), "ns");
    }
    out.metric("kvstore.scan_us", mean(4) / 1e3, "us");
    let stats = db.lock_stats().since(&stats_before);
    out.metric(
        "kvstore.fast_read_ratio",
        stats.fast_read_fraction(),
        "ratio",
    );
    Ok(())
}

/// `server::protocol`: incremental frame decode plus request decode, and
/// response encode.
fn protocol_probes(unit: Duration, out: &mut Report) {
    let value = [1, 2, 3, 4];
    let requests = [
        ("get", Request::Get { key: 42 }),
        ("put", Request::Put { key: 42, value }),
        (
            "scan",
            Request::Scan {
                start: 42,
                limit: 64,
            },
        ),
    ];
    for (name, request) in requests {
        let mut body = Vec::new();
        request.encode(&mut body);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        let mut decoder = FrameDecoder::new();
        let mut ok = true;
        let ns = timed_loop(unit * 2 / 5, "server::protocol", "decode", || {
            let (used, got) = decoder
                .advance(black_box(&frame))
                .expect("well-formed frame");
            let decoded = Request::decode(got.expect("one whole frame")).expect("decodes");
            ok &= used == frame.len() && decoded == request;
        });
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.metric(format!("protocol.decode_ns.{name}"), ns, "ns");
    }
    let entries: Vec<(u64, [u64; 4])> = (0..64).map(|k| (k, [k, !k, 0, 0])).collect();
    let responses = [
        ("value", Response::Value(value)),
        ("entries", Response::Entries(entries)),
    ];
    for (name, response) in responses {
        let mut buf = Vec::new();
        let ns = timed_loop(unit * 2 / 5, "server::protocol", "encode", || {
            buf.clear();
            black_box(&response).encode(&mut buf);
        });
        out.metric(format!("protocol.encode_ns.{name}"), ns, "ns");
    }
}

/// `server`: closed-loop round trips from one client; `server::loadgen`:
/// the two fixed rates through `loadgen::run`.
fn server_probes(seed: u64, unit: Duration, out: &mut Report) -> io::Result<()> {
    let mut served = Served::start(WaitMode::Futex)?;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7274);
    for name in ["ping", "get", "scan"] {
        let mut rtts = Vec::new();
        let start = Instant::now();
        while start.elapsed() < unit {
            let key = rng.next_u64() % serve::KEYS;
            let client = &mut served.client;
            let t = Instant::now();
            let ok = trace::span("server", "Client::call", || match name {
                "ping" => client.ping().is_ok(),
                "get" => client.get(key).is_ok(),
                _ => client.scan(key, 64).is_ok(),
            });
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        out.metric(format!("server.rtt_us.{name}"), median(&rtts), "us");
    }
    let mut abandoned = 0;
    for (name, rate) in [("low", serve::LOW_RATE), ("high", serve::HIGH_RATE)] {
        let r = serve::load(served.addr(), &serve::mix(rate, unit * 4, seed))?;
        out.attempted += r.scheduled;
        out.failed += serve::failures(&r);
        abandoned += r.abandoned;
        out.metric(
            format!("loadgen.achieved_ratio.{name}"),
            r.rate_fraction(),
            "ratio",
        );
        out.metric(
            format!("loadgen.p99_us.{name}"),
            hist_quantile_us(&r.latencies, 0.99),
            "us",
        );
    }
    out.metric("loadgen.abandoned", abandoned as f64, "count");
    out.attempted += serve::CHECK_KEYS as u64;
    out.failed += served.check(seed);
    served.server.shutdown();
    Ok(())
}
