//! `serve_kv`: an in-process `bravod` (mux backend, one worker) over
//! loopback, driven in open loop by `server::loadgen::run`.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bravo::WaitMode;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use server::{loadgen, BackendKind, Client, LoadConfig, LoadReport, Server, ServerConfig};

use crate::report::{hist_quantile_us, median, Report};
use crate::{trace, MODES};

/// Keys loaded before serving (the paper's `--num`).
pub const KEYS: u64 = 10_000;
/// Load-generator connections.
pub const CONNECTIONS: usize = 2;
/// The fixed offered rates, operations per second.
pub const LOW_RATE: f64 = 5_000.0;
pub const HIGH_RATE: f64 = 15_000.0;
/// Latency limit on a knee probe's p95.
const KNEE_P95: Duration = Duration::from_millis(5);
/// Share of the offered rate a knee probe must achieve.
const KNEE_ACHIEVED: f64 = 0.99;
/// The offered rates the knee search climbs: `KNEE_FROM + k·KNEE_STEP`
/// for `k < KNEE_RUNGS`, and the rung the first search starts on.
const KNEE_FROM: f64 = 20_000.0;
const KNEE_STEP: f64 = 2_500.0;
const KNEE_RUNGS: usize = 16;
const KNEE_START: usize = 4;
/// Keys read back through the wire and compared with the store after each
/// phase.
pub const CHECK_KEYS: usize = 64;

pub fn spec(mode: WaitMode) -> String {
    format!("BRAVO-BA?wait={mode}&adapt=on")
}

/// The `serve_kv` mix at `rate` for `duration`: 95% reads, of which scans
/// are 2% of all operations, the rest Put/Merge/Delete, skew 0.6.
pub fn mix(rate: f64, duration: Duration, seed: u64) -> LoadConfig {
    LoadConfig {
        connections: CONNECTIONS,
        rate,
        read_ratio: 0.95,
        scan_ratio: 0.02,
        scan_limit: 64,
        keys: KEYS,
        skew: 0.6,
        duration,
        seed,
        batch: 1,
    }
}

/// A served store plus the client the correctness checks read through.
pub struct Served {
    pub server: Server,
    pub client: Client,
}

impl Served {
    /// Binds a server for `mode` on an ephemeral loopback port and connects
    /// the checking client.
    pub fn start(mode: WaitMode) -> io::Result<Self> {
        let spec = spec(mode).parse().expect("serve spec parses");
        let mut config = ServerConfig::new(spec).with_backend(BackendKind::Mux);
        config.prepopulate = KEYS;
        config.mux_workers = 1;
        let server = trace::span("server", "Server::bind", || {
            Server::bind("127.0.0.1:0", config)
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
        let client = trace::span("server", "Client::connect", || {
            Client::connect(server.local_addr())
        })?;
        Ok(Served { server, client })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Reads a seeded sample of keys through the wire and compares each
    /// with the store; returns how many disagreed (a failed read counts).
    pub fn check(&mut self, seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bad = 0;
        for _ in 0..CHECK_KEYS {
            let key = rng.next_u64() % KEYS;
            let wire = trace::span("server", "Client::get", || self.client.get(key));
            let local = trace::span("kvstore", "Db::get", || self.server.db().get(key));
            bad += u64::from(!matches!(wire, Ok(v) if v == local));
        }
        bad
    }
}

/// One open-loop phase through `loadgen::run`.
pub fn load(addr: SocketAddr, config: &LoadConfig) -> io::Result<LoadReport> {
    trace::span("server::loadgen", "loadgen::run", || {
        loadgen::run(addr, config)
    })
}

/// Operations the report says failed: errors plus abandoned arrivals.
pub fn failures(r: &LoadReport) -> u64 {
    r.errors + r.abandoned
}

/// Whether a knee probe at `rung` keeps up: it achieves 99% of the offered
/// rate with p95 within the limit and no failures. A probe that misses is
/// run once more before the rung counts as missed: overload misses every
/// time, while a rare stall of the host misses once. Returns the rate
/// achieved by the last probe.
fn keeps_up(
    addr: SocketAddr,
    rung: usize,
    probe: Duration,
    seed: u64,
    out: &mut Report,
) -> io::Result<(bool, f64)> {
    let rate = KNEE_FROM + rung as f64 * KNEE_STEP;
    let mut achieved = 0.0;
    for attempt in 0..2 {
        let r = load(addr, &mix(rate, probe, seed ^ (rung * 2 + attempt) as u64))?;
        out.attempted += r.scheduled;
        out.failed += failures(&r);
        achieved = r.achieved_rate();
        if r.rate_fraction() >= KNEE_ACHIEVED
            && r.latencies.percentile(0.95) <= KNEE_P95
            && failures(&r) == 0
        {
            return Ok((true, achieved));
        }
    }
    Ok((false, achieved))
}

/// Finds the highest rung that keeps up, starting from `start`: steps down
/// while the rung misses, then climbs while the next one keeps up. Returns
/// the rate achieved there and the rung. A ladder, unlike a bisection,
/// cannot jump far on one borderline probe: a wrong call moves the result
/// by one rung.
fn knee(
    addr: SocketAddr,
    start: usize,
    probe: Duration,
    seed: u64,
    out: &mut Report,
) -> io::Result<(f64, usize)> {
    let mut rung = start;
    let mut best = loop {
        let (kept, achieved) = keeps_up(addr, rung, probe, seed, out)?;
        if kept || rung == 0 {
            // Not even the bottom rung kept up: report what it achieved.
            break (achieved, rung);
        }
        rung -= 1;
    };
    while best.1 + 1 < KNEE_RUNGS {
        match keeps_up(addr, best.1 + 1, probe, seed, out)? {
            (true, achieved) => best = (achieved, best.1 + 1),
            (false, _) => break,
        }
    }
    Ok(best)
}

/// The `serve_kv` workload: per repetition, every wait mode in rotated
/// order gets a fresh server, a phase at the fixed rate `LOW_RATE` and a
/// knee search, in an order that also rotates. Each metric is the median
/// over repetitions, so one phase disturbed by the host does not move it.
///
/// Most of the time goes to the knee: every `loadgen::run` opens new
/// connections, and a new connection can wait up to the mux worker's 10 ms
/// poll timeout before it is registered, so a short probe near capacity
/// cannot drain that backlog and misses. A mode's later searches start one
/// rung below its previous knee.
pub fn workload(seed: u64, seconds: f64) -> io::Result<Report> {
    const REPS: usize = 6;
    let slot = seconds / (REPS * MODES.len()) as f64;
    let fixed = Duration::from_secs_f64(slot * 0.25);
    // A first search runs about eight probes, a later one about four.
    let probe = Duration::from_secs_f64(slot * 0.75 / 6.0);
    let mut start = [KNEE_START; MODES.len()];
    let mut out = Report::default();
    let mut setup = Vec::new();
    let mut knees = vec![Vec::new(); MODES.len()];
    let mut p50 = vec![Vec::new(); MODES.len()];
    for rep in 0..REPS {
        for i in 0..MODES.len() {
            let m = (rep + i) % MODES.len();
            let phase_seed = seed ^ ((rep * MODES.len() + m) as u64) << 40;
            let t = Instant::now();
            let mut served = Served::start(MODES[m])?;
            setup.push(t.elapsed().as_secs_f64());
            for phase in 0..2 {
                if (phase + rep) % 2 == 0 {
                    let r = load(served.addr(), &mix(LOW_RATE, fixed, phase_seed))?;
                    out.attempted += r.scheduled;
                    out.failed += failures(&r);
                    p50[m].push(hist_quantile_us(&r.latencies, 0.5));
                } else {
                    let (achieved, rung) =
                        knee(served.addr(), start[m], probe, phase_seed, &mut out)?;
                    knees[m].push(achieved);
                    start[m] = rung.saturating_sub(1);
                }
            }
            out.attempted += CHECK_KEYS as u64;
            out.failed += served.check(phase_seed);
            served.server.shutdown();
        }
    }
    for (m, mode) in MODES.iter().enumerate() {
        out.metric(format!("throughput.{mode}"), median(&knees[m]), "ops/s");
        out.metric(format!("p50_us.{mode}"), median(&p50[m]), "us");
        println!("knee wait={mode} per repetition: {:.0?}", knees[m]);
    }
    out.metric("setup_s", median(&setup), "s");
    Ok(out)
}
