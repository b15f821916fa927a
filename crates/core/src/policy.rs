//! Bias-enabling policies.
//!
//! Deciding *when* a lock should be reader-biased is the ski-rental-shaped
//! problem at the centre of BRAVO's cost model: enabling bias pays off when
//! many fast readers follow, but costs a full revocation scan as soon as a
//! writer shows up. The paper describes two policies and we implement both:
//!
//! * **Inhibit-until** (the published design): a slow-path reader re-enables
//!   bias only when the current time has passed `InhibitUntil`; a revoking
//!   writer sets `InhibitUntil = now + N × revocation_duration`, which bounds
//!   the worst-case writer slow-down to about `1/(N+1)`. The paper uses
//!   `N = 9` (≈ 10 % bound) for every experiment.
//! * **Bernoulli** (the early prototype): a slow-path reader enables bias
//!   with fixed probability `1/P` using a thread-local xorshift generator,
//!   with no slow-down guard. Kept for the policy-ablation benchmarks.
//!
//! Layered on top of either policy, [`AdaptiveBias`] (the `adapt=on` spec
//! knob) samples a lock's own read/write counters on epoch boundaries and
//! gates whether bias may be enabled *at all*, turning the static
//! "which spec?" question into an online per-lock answer.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::stats::StatsSink;

/// The paper's slow-down multiplier: revocation cost is amortized over
/// `N = 9` quiet periods, bounding writer slow-down to roughly 10 %.
pub const DEFAULT_INHIBIT_MULTIPLIER: u64 = 9;

/// Policy controlling when slow-path readers may (re-)enable reader bias.
///
/// # Examples
///
/// The published inhibit-until policy bounds writer slow-down: after a
/// revocation that took `d` nanoseconds, bias stays off for `N × d`, so
/// revocation can consume at most `1/(N+1)` of a writer's time.
///
/// ```
/// use bravo::policy::BiasPolicy;
///
/// let policy = BiasPolicy::paper_default(); // InhibitUntil { n: 9 }
/// assert_eq!(policy.slowdown_bound(), Some(0.1));
///
/// // A revocation ran from t=1000 to t=1200 (200 ns): bias is inhibited
/// // for 9 × 200 ns beyond the finish time.
/// let until = policy.inhibit_until_after_revocation(1000, 1200);
/// assert_eq!(until, 1200 + 9 * 200);
/// assert!(!policy.should_enable(until - 1, until));
/// assert!(policy.should_enable(until, until));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasPolicy {
    /// Never enable bias: the BRAVO wrapper degenerates to the underlying
    /// lock. Used as the "RBias disabled" control in the kernel experiments.
    Disabled,
    /// The published inhibit-until policy with slow-down multiplier `n`.
    InhibitUntil {
        /// Multiplier applied to the measured revocation duration.
        n: u64,
    },
    /// The early-prototype policy: enable bias on the slow path with
    /// probability `1 / inverse_p`, and never inhibit.
    Bernoulli {
        /// Inverse of the enable probability (the paper used 100).
        inverse_p: u32,
    },
}

impl Default for BiasPolicy {
    fn default() -> Self {
        BiasPolicy::InhibitUntil {
            n: DEFAULT_INHIBIT_MULTIPLIER,
        }
    }
}

impl BiasPolicy {
    /// The inhibit-until policy with the paper's default `N = 9`.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Should a slow-path reader that currently holds read permission enable
    /// bias now? `now_ns` is the current monotonic time and
    /// `inhibit_until_ns` the lock's stored threshold.
    #[inline]
    pub fn should_enable(&self, now_ns: u64, inhibit_until_ns: u64) -> bool {
        match self {
            BiasPolicy::Disabled => false,
            BiasPolicy::InhibitUntil { .. } => now_ns >= inhibit_until_ns,
            BiasPolicy::Bernoulli { inverse_p } => bernoulli_trial(*inverse_p),
        }
    }

    /// New value for the lock's `InhibitUntil` field after a revocation that
    /// started at `start_ns` and finished at `now_ns`.
    #[inline]
    pub fn inhibit_until_after_revocation(&self, start_ns: u64, now_ns: u64) -> u64 {
        match self {
            // The field is unused by these policies, but storing "now" keeps
            // the value monotone and harmless if the policy is later changed.
            BiasPolicy::Disabled | BiasPolicy::Bernoulli { .. } => now_ns,
            BiasPolicy::InhibitUntil { n } => {
                now_ns.saturating_add(now_ns.saturating_sub(start_ns).saturating_mul(*n))
            }
        }
    }

    /// Upper bound on the relative writer slow-down this policy admits, as a
    /// fraction (e.g. `0.1` for `N = 9`). `None` when the policy provides no
    /// bound.
    pub fn slowdown_bound(&self) -> Option<f64> {
        match self {
            BiasPolicy::Disabled => Some(0.0),
            BiasPolicy::InhibitUntil { n } => Some(1.0 / (*n as f64 + 1.0)),
            BiasPolicy::Bernoulli { .. } => None,
        }
    }
}

/// Epoch length the adaptive sampler re-evaluates on, in nanoseconds. Short
/// enough that even a `--quick` benchmark interval spans many epochs, long
/// enough that each epoch accumulates a meaningful ratio.
pub const DEFAULT_ADAPT_EPOCH_NS: u64 = 2_000_000;

/// Read ratio at or above which a disabled adaptive gate opens.
const ADAPT_ENABLE_THRESHOLD: f64 = 0.9;

/// Read ratio below which an open adaptive gate closes (hysteresis: between
/// the two thresholds the previous decision stands).
const ADAPT_DISABLE_THRESHOLD: f64 = 0.5;

/// One recorded decision of the adaptive sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyFlip {
    /// Monotonic time of the decision ([`crate::clock::now_ns`]).
    pub at_ns: u64,
    /// Epoch ordinal (1 = first evaluated epoch) the decision closed.
    pub epoch: u64,
    /// Read fraction `reads / (reads + writes)` observed over that epoch.
    pub read_ratio: f64,
    /// The new state: `true` means fast-path publishing is now allowed.
    pub enabled: bool,
}

/// Online per-lock bias gating from observed read/write ratios.
///
/// The static [`BiasPolicy`] answers *when after a revocation* bias may
/// return; it has no opinion about whether this lock's workload wants bias
/// at all. `AdaptiveBias` adds that second gate: on each epoch boundary one
/// thread samples the lock's [`StatsSink`] counters, computes the epoch's
/// read ratio, and opens the gate when reads dominate (≥ 90 %) or closes
/// it when writers take over (< 50 %); the gap between the two thresholds
/// is hysteresis.
///
/// The gate starts **closed**: a read-dominated workload earns bias within
/// an epoch or two (recording the flip that proves the sampler ran), while
/// a write-heavy workload never pays the first revocation.
///
/// Closing the gate never touches the lock's `rbias` flag directly — that
/// may only be cleared by a writer holding the underlying lock exclusively.
/// The gate merely stops slow-path readers from re-enabling bias, so an
/// already-biased lock decays at its next revocation.
pub struct AdaptiveBias {
    allowed: AtomicBool,
    epoch_ns: u64,
    /// End of the epoch currently being accumulated; 0 until the first tick.
    next_epoch_ns: AtomicU64,
    epochs: AtomicU64,
    last_reads: AtomicU64,
    last_writes: AtomicU64,
    flips: AtomicU64,
    log: Mutex<Vec<PolicyFlip>>,
}

impl AdaptiveBias {
    /// A sampler with the default epoch ([`DEFAULT_ADAPT_EPOCH_NS`]).
    pub fn new() -> Self {
        Self::with_epoch(DEFAULT_ADAPT_EPOCH_NS)
    }

    /// A sampler that re-evaluates every `epoch_ns` nanoseconds.
    pub fn with_epoch(epoch_ns: u64) -> Self {
        Self {
            allowed: AtomicBool::new(false),
            epoch_ns: epoch_ns.max(1),
            next_epoch_ns: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            last_reads: AtomicU64::new(0),
            last_writes: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Whether the gate currently lets slow-path readers enable bias.
    #[inline]
    pub fn allows_bias(&self) -> bool {
        self.allowed.load(Ordering::Relaxed)
    }

    /// Number of enable/disable flips taken so far.
    pub fn flips(&self) -> u64 {
        self.flips.load(Ordering::Relaxed)
    }

    /// The recorded flip history (epoch, ratio, decision per entry).
    pub fn log(&self) -> Vec<PolicyFlip> {
        self.log.lock().expect("adaptive log poisoned").clone()
    }

    /// Offers the sampler a chance to close the current epoch. Called from
    /// lock slow paths (never the read fast path); returns immediately
    /// unless `now_ns` crossed the epoch boundary, and elects exactly one
    /// caller per boundary to evaluate.
    #[inline]
    pub fn tick(&self, now_ns: u64, sink: &StatsSink) {
        let next = self.next_epoch_ns.load(Ordering::Relaxed);
        if now_ns < next {
            return;
        }
        if self
            .next_epoch_ns
            .compare_exchange(
                next,
                now_ns + self.epoch_ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        if next == 0 {
            // First tick: start the clock, establish the baseline counters.
            let snap = sink.snapshot();
            self.last_reads.store(snap.total_reads(), Ordering::Relaxed);
            self.last_writes.store(snap.writes, Ordering::Relaxed);
            return;
        }
        self.evaluate(now_ns, sink);
    }

    fn evaluate(&self, now_ns: u64, sink: &StatsSink) {
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        let snap = sink.snapshot();
        let reads = snap.total_reads();
        let writes = snap.writes;
        let delta_reads = reads.saturating_sub(self.last_reads.swap(reads, Ordering::Relaxed));
        let delta_writes = writes.saturating_sub(self.last_writes.swap(writes, Ordering::Relaxed));
        if delta_reads + delta_writes == 0 {
            // Idle epoch: no evidence either way.
            return;
        }
        let read_ratio = delta_reads as f64 / (delta_reads + delta_writes) as f64;
        let currently = self.allowed.load(Ordering::Relaxed);
        let decision = if currently {
            read_ratio >= ADAPT_DISABLE_THRESHOLD
        } else {
            read_ratio >= ADAPT_ENABLE_THRESHOLD
        };
        if decision != currently {
            self.allowed.store(decision, Ordering::Relaxed);
            self.flips.fetch_add(1, Ordering::Relaxed);
            sink.record_adapt_flip();
            self.log
                .lock()
                .expect("adaptive log poisoned")
                .push(PolicyFlip {
                    at_ns: now_ns,
                    epoch,
                    read_ratio,
                    enabled: decision,
                });
        }
    }
}

impl Default for AdaptiveBias {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AdaptiveBias {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveBias")
            .field("allowed", &self.allows_bias())
            .field("flips", &self.flips())
            .finish()
    }
}

thread_local! {
    static XORSHIFT_STATE: Cell<u64> = const { Cell::new(0) };
}

/// One Bernoulli trial with probability `1 / inverse_p`, driven by a
/// thread-local Marsaglia xorshift generator (as in the paper's prototype).
fn bernoulli_trial(inverse_p: u32) -> bool {
    if inverse_p <= 1 {
        return true;
    }
    XORSHIFT_STATE.with(|state| {
        let mut x = state.get();
        if x == 0 {
            // Seed lazily from the thread id so every thread gets a distinct,
            // deterministic-enough stream without any global coordination.
            x = 0x9e37_79b9_7f4a_7c15 ^ (topology::current_thread_id().as_usize() as u64 + 1);
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        x % (inverse_p as u64) == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_policy() {
        assert_eq!(BiasPolicy::default(), BiasPolicy::InhibitUntil { n: 9 });
        assert_eq!(BiasPolicy::default().slowdown_bound(), Some(0.1));
    }

    #[test]
    fn disabled_never_enables() {
        let p = BiasPolicy::Disabled;
        assert!(!p.should_enable(100, 0));
        assert!(!p.should_enable(0, 0));
    }

    #[test]
    fn inhibit_until_gates_on_time() {
        let p = BiasPolicy::paper_default();
        assert!(p.should_enable(100, 100));
        assert!(p.should_enable(101, 100));
        assert!(!p.should_enable(99, 100));
    }

    #[test]
    fn inhibit_window_is_n_times_revocation_cost() {
        let p = BiasPolicy::InhibitUntil { n: 9 };
        // Revocation took 50ns, finishing at t=150: inhibit until 150 + 9*50.
        assert_eq!(p.inhibit_until_after_revocation(100, 150), 150 + 9 * 50);
        // Zero-duration revocation leaves bias immediately re-enableable.
        assert_eq!(p.inhibit_until_after_revocation(100, 100), 100);
    }

    #[test]
    fn inhibit_window_saturates_instead_of_overflowing() {
        let p = BiasPolicy::InhibitUntil { n: u64::MAX };
        assert_eq!(p.inhibit_until_after_revocation(0, u64::MAX), u64::MAX);
    }

    #[test]
    fn bernoulli_rate_is_roughly_one_over_p() {
        let p = BiasPolicy::Bernoulli { inverse_p: 100 };
        let trials = 200_000;
        let hits = (0..trials).filter(|_| p.should_enable(0, u64::MAX)).count();
        let rate = hits as f64 / trials as f64;
        assert!(
            (0.005..0.02).contains(&rate),
            "Bernoulli(1/100) produced rate {rate}"
        );
    }

    #[test]
    fn bernoulli_with_p_one_always_enables() {
        let p = BiasPolicy::Bernoulli { inverse_p: 1 };
        assert!(p.should_enable(0, u64::MAX));
    }

    #[test]
    fn adaptive_gate_opens_on_read_dominance_and_closes_under_writes() {
        let adapt = AdaptiveBias::with_epoch(1);
        let sink = StatsSink::per_lock();
        assert!(!adapt.allows_bias(), "gate starts closed");

        // First tick establishes the baseline without deciding anything.
        adapt.tick(10, &sink);
        assert_eq!(adapt.flips(), 0);

        // A read-only epoch opens the gate.
        for _ in 0..100 {
            sink.record_fast_read_in(0);
        }
        adapt.tick(20, &sink);
        assert!(adapt.allows_bias());
        assert_eq!(adapt.flips(), 1);

        // A balanced epoch (ratio 0.5) keeps it open (hysteresis)...
        for _ in 0..10 {
            sink.record_fast_read_in(0);
            sink.record_write(false, 0);
        }
        adapt.tick(30, &sink);
        assert!(adapt.allows_bias());
        assert_eq!(adapt.flips(), 1);

        // ...but a write-dominated epoch closes it again.
        for _ in 0..100 {
            sink.record_write(false, 0);
        }
        adapt.tick(40, &sink);
        assert!(!adapt.allows_bias());
        assert_eq!(adapt.flips(), 2);

        let log = adapt.log();
        assert_eq!(log.len(), 2);
        assert!(log[0].enabled && log[0].read_ratio >= 0.9);
        assert!(!log[1].enabled && log[1].read_ratio < 0.5);
        assert!(log[0].epoch < log[1].epoch);

        // Flips were teed into the sink's counters.
        assert_eq!(sink.snapshot().adapt_flips, 2);
    }

    #[test]
    fn adaptive_idle_epochs_do_not_flip() {
        let adapt = AdaptiveBias::with_epoch(1);
        let sink = StatsSink::per_lock();
        adapt.tick(10, &sink);
        adapt.tick(20, &sink);
        adapt.tick(30, &sink);
        assert_eq!(adapt.flips(), 0);
        assert!(!adapt.allows_bias());
        assert!(adapt.log().is_empty());
    }

    #[test]
    fn adaptive_tick_is_cheap_before_the_boundary() {
        let adapt = AdaptiveBias::with_epoch(1_000_000);
        let sink = StatsSink::per_lock();
        adapt.tick(10, &sink); // arms next_epoch = 10 + 1ms
        for _ in 0..100 {
            sink.record_fast_read_in(0);
        }
        adapt.tick(500_000, &sink); // inside the epoch: no evaluation
        assert_eq!(adapt.flips(), 0);
        adapt.tick(1_000_011, &sink); // boundary crossed: evaluates
        assert!(adapt.allows_bias());
    }

    #[test]
    fn slowdown_bounds() {
        assert_eq!(BiasPolicy::Disabled.slowdown_bound(), Some(0.0));
        assert_eq!(
            BiasPolicy::InhibitUntil { n: 99 }.slowdown_bound(),
            Some(0.01)
        );
        assert_eq!(
            BiasPolicy::Bernoulli { inverse_p: 100 }.slowdown_bound(),
            None
        );
    }
}
