//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <lock_read_mostly|serve_kv>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics with
//! tracing off. With `--trace 1` it runs the per-layer probes with spans on,
//! runs the workload with and without spans to measure the tracing
//! overhead, writes the spans to `perfbench/out/`, and reports the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Every input is drawn
//! from `--seed`.

mod layers;
mod lockmix;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bravo::WaitMode;
use report::{median, quantile, Report};

/// The wait modes every workload is measured under, interleaved.
pub const MODES: [WaitMode; 3] = [WaitMode::Spin, WaitMode::Park, WaitMode::Futex];
/// Closed-loop threads of the lock workloads.
pub const LOCK_THREADS: usize = 2;

const WORKLOADS: [&str; 2] = ["lock_read_mostly", "serve_kv"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = LOCK_THREADS.max(serve::CONNECTIONS);
    if threads > nproc {
        eprintln!("perfbench: needs {threads} cores for its load threads, found {nproc}");
        return ExitCode::from(2);
    }
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"lock_threads\": {LOCK_THREADS}, \"connections\": {}, \"trace_sample_every\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serve::CONNECTIONS,
        trace::SAMPLE_EVERY
    );
    println!("context {context}");
    let result = if args.trace {
        traced(&args, &context)
    } else {
        run_workload(&args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                println!("{name:<36} {value:>16.4} {unit}");
            }
            for problem in &report.problems {
                println!("check failed: {problem}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_workload(workload: &str, seed: u64, seconds: f64) -> std::io::Result<Report> {
    match workload {
        "lock_read_mostly" => Ok(lock_workload(seed, seconds)),
        "serve_kv" => serve::workload(seed, seconds),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// `lock_read_mostly`: per repetition, a fresh `BRAVO-BA?wait=<mode>`
/// handle (global table, n=9) for every mode in rotated order, two
/// closed-loop threads, and a write probability of 1e-5.
///
/// The same harness at a write probability of 1e-2 runs only in the traced
/// probes: there the threads sleep and wake thousands of times a second
/// under `park` and `futex`, and on a 2-vCPU VM whose host steals 10-20% of
/// CPU time that throughput halved for minutes at a time, so it cannot hold
/// a regression bound.
fn lock_workload(seed: u64, seconds: f64) -> Report {
    const P_WRITE: f64 = 1e-5;
    const REPS: usize = 8;
    let slot = Duration::from_secs_f64(seconds / (REPS * MODES.len()) as f64);
    let mut out = Report::default();
    let mut setup = Vec::new();
    let mut mops = vec![Vec::new(); MODES.len()];
    let mut waits = vec![Vec::new(); MODES.len()];
    for rep in 0..REPS {
        for i in 0..MODES.len() {
            let m = (rep + i) % MODES.len();
            let t = Instant::now();
            let handle = lock_handle(&format!("BRAVO-BA?wait={}", MODES[m]));
            let run_seed = seed ^ ((rep * MODES.len() + m) as u64) << 40;
            let streams = lockmix::Streams::generate(run_seed, LOCK_THREADS, P_WRITE);
            setup.push(t.elapsed().as_secs_f64());
            let run = lockmix::run(&handle, &streams, slot, "bravo::lock");
            out.attempted += run.ops;
            out.failed += run.mismatches;
            mops[m].push(run.ops as f64 / run.elapsed.as_secs_f64());
            waits[m].extend(run.write_wait_ns);
        }
    }
    for (m, mode) in MODES.iter().enumerate() {
        let w = &mut waits[m];
        w.sort_unstable();
        if w.is_empty() {
            out.problems
                .push(format!("no writes completed under wait={mode}"));
        }
        out.metric(format!("throughput.{mode}"), median(&mops[m]), "ops/s");
        out.metric(format!("p50_us.{mode}"), quantile(w, 0.5) / 1e3, "us");
        println!("write samples wait={mode}: {}", w.len());
    }
    out.metric("setup_s", median(&setup), "s");
    out
}

pub fn lock_handle(spec: &str) -> bravo::LockHandle {
    let spec = spec.parse().expect("benchmark lock specs parse");
    rwlocks::build_lock(&spec).expect("benchmark lock specs build")
}

/// The traced run: per-layer probes with spans on, then the workload with
/// spans off and on in alternating halves for the tracing overhead.
fn traced(args: &Args, context: &str) -> std::io::Result<Report> {
    trace::set_enabled(true);
    let mut out = trace::span("perfbench", "layer_probes", || {
        layers::probes(args.seed, args.seconds * 0.5)
    })?;
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    for half in 0..2 {
        for on in [half == 1, half == 0] {
            trace::set_enabled(on);
            let r = trace::span("perfbench", "workload", || {
                run_workload(
                    &args.workload,
                    args.seed ^ (half << 8),
                    args.seconds * 0.125,
                )
            })?;
            let mean: Vec<f64> = MODES
                .iter()
                .filter_map(|m| r.metrics.iter().find(|x| x.0 == format!("throughput.{m}")))
                .map(|x| x.1)
                .collect();
            let mean = mean.iter().sum::<f64>() / mean.len() as f64;
            if on { &mut spanned } else { &mut plain }.push(mean);
            out.attempted += r.attempted;
            out.failed += r.failed;
            out.problems.extend(r.problems);
        }
    }
    trace::flush_thread();
    let (plain, spanned) = (median(&plain), median(&spanned));
    out.metric("trace.overhead_pct", (plain - spanned) / plain * 100.0, "%");
    let (self_ms, spans) = trace::self_ms();
    for layer in layers::LAYERS {
        let ms = self_ms.get(layer).copied().unwrap_or(0.0);
        out.metric(format!("self_ms.{}", layer.replace("::", "_")), ms, "ms");
    }
    let path =
        PathBuf::from("perfbench/out").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    trace::write(&path, context)?;
    println!(
        "{spans} spans recorded; the kept ones are in {}",
        path.display()
    );
    Ok(out)
}
