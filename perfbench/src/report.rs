//! Result bookkeeping: metrics with units, the attempted/failed ledger, and
//! the order statistics the metrics are built from.

use server::LatencyHistogram;

/// What a run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is incorrect, when a check failed.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a finite number"));
        }
        self.metrics.push((name, value, unit));
    }

    /// The final line: one JSON object with exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of exact samples (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The `q` quantile of a latency histogram in microseconds, interpolated
/// linearly by rank inside the bucket that holds it.
///
/// `LatencyHistogram::percentile` reports a bucket's upper bound, which is
/// exact to 6.25% but steps between a few fixed values; the interpolation
/// uses the ranks where the bucket starts and ends, which the public
/// percentile function reveals.
pub fn hist_quantile_us(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return f64::NAN;
    }
    // Half a rank below `rank`, so the percentile's ceiling lands on it.
    let at = |rank: u64| h.percentile((rank as f64 - 0.5) / n as f64).as_nanos() as f64;
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    let upper = at(target);
    // First and last ranks whose value equals the target's bucket bound.
    let first = partition(1, target, |r| at(r) >= upper);
    let last = partition(target, n + 1, |r| at(r) > upper) - 1;
    let lower = if first > 1 { at(first - 1) } else { 0.0 };
    let frac = (target - first + 1) as f64 / (last - first + 1) as f64;
    (lower + (upper - lower) * frac) / 1e3
}

/// The smallest `r` in `lo..hi` with `pred(r)`, or `hi` (for a monotone
/// predicate).
fn partition(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}
