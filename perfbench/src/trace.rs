//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around its own call into one layer's
//! public functions: name, layer, start, end, the span that caused it and
//! the thread it ran on. Calls that take nanoseconds are sampled at 1 in
//! [`SAMPLE_EVERY`]; a sampled span carries that weight so self time stays
//! an estimate of the whole. Spans stay in per-thread buffers until the
//! thread flushes them, and are written out once at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One sampled span stands for this many calls.
pub const SAMPLE_EVERY: u64 = 128;

/// Spans each thread, and the whole run, keep in memory; later spans still
/// count toward self time and the span total but are not written out.
const MAX_KEPT: usize = 20_000;
const MAX_KEPT_TOTAL: usize = 50_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static COLLECTED: Mutex<Collected> = Mutex::new(Collected::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One span: a call made by the benchmark into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub thread: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub weight: u64,
}

struct Collected {
    kept: Vec<Span>,
    /// Self time per layer, in weighted nanoseconds, over every span.
    self_ns: BTreeMap<&'static str, u64>,
    total: u64,
}

impl Collected {
    const fn new() -> Self {
        Self {
            kept: Vec::new(),
            self_ns: BTreeMap::new(),
            total: 0,
        }
    }
}

struct Local {
    thread: u64,
    /// Open spans, innermost last: (id, weight, weighted nanoseconds
    /// covered by closed children).
    stack: Vec<(u64, u64, u64)>,
    /// The span a new root on this thread reports as its parent (set when
    /// a worker thread starts on behalf of a span on another thread).
    adopted: u64,
    done: Vec<Span>,
    recorded: u64,
    /// Weighted self nanoseconds per layer (a handful of layers, so a
    /// linear search beats hashing on the sampled fast path).
    self_ns: Vec<(&'static str, u64)>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        adopted: 0,
        done: Vec::new(),
        recorded: 0,
        self_ns: Vec::new(),
    });
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread (0 when none), to hand to
/// worker threads through [`adopt`].
pub fn current() -> u64 {
    LOCAL.with(|l| {
        let l = l.borrow();
        l.stack.last().map_or(l.adopted, |s| s.0)
    })
}

/// Makes `parent` the parent of this thread's root spans.
pub fn adopt(parent: u64) {
    LOCAL.with(|l| l.borrow_mut().adopted = parent);
}

/// Runs `f` inside a span of weight 1 when tracing is on.
#[inline]
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    weighted(layer, name, 1, f)
}

/// Runs `f` inside a span standing for `weight` calls when tracing is on.
#[inline]
pub fn weighted<R>(
    layer: &'static str,
    name: &'static str,
    weight: u64,
    f: impl FnOnce() -> R,
) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| l.borrow_mut().stack.push((id, weight, 0)));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (_, _, covered) = l.stack.pop().expect("span stack underflow");
        let dur = end - start;
        let parent = match l.stack.last_mut() {
            Some(open) => {
                open.2 += dur * weight;
                open.0
            }
            None => l.adopted,
        };
        let self_ns = (dur * weight).saturating_sub(covered);
        match l.self_ns.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, total)) => *total += self_ns,
            None => l.self_ns.push((layer, self_ns)),
        }
        l.recorded += 1;
        if l.done.len() >= MAX_KEPT {
            return;
        }
        let thread = l.thread;
        l.done.push(Span {
            id,
            parent,
            thread,
            layer,
            name,
            start_ns: start,
            end_ns: end,
            weight,
        });
    });
    out
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Moves this thread's finished spans into the process-wide collection.
/// Every thread that records spans calls this before it ends.
pub fn flush_thread() {
    let (done, recorded, self_ns) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        (
            std::mem::take(&mut l.done),
            std::mem::take(&mut l.recorded),
            std::mem::take(&mut l.self_ns),
        )
    });
    let mut c = COLLECTED.lock().expect("span collection poisoned");
    c.total += recorded;
    let room = MAX_KEPT_TOTAL.saturating_sub(c.kept.len());
    c.kept.extend(done.into_iter().take(room));
    for (layer, ns) in self_ns {
        *c.self_ns.entry(layer).or_insert(0) += ns;
    }
}

/// Self time per layer in milliseconds, and the number of spans recorded.
pub fn self_ms() -> (BTreeMap<&'static str, f64>, u64) {
    let c = COLLECTED.lock().expect("span collection poisoned");
    let ms = c
        .self_ns
        .iter()
        .map(|(k, v)| (*k, *v as f64 / 1e6))
        .collect();
    (ms, c.total)
}

/// Writes the kept spans as JSON lines, preceded by one header line.
pub fn write(path: &Path, header: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let c = COLLECTED.lock().expect("span collection poisoned");
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in &c.kept {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"thread\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"weight\":{}}}",
            s.id, s.parent, s.thread, s.layer, s.name, s.start_ns, s.end_ns, s.weight
        )?;
    }
    out.flush()
}
