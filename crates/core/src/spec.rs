//! Declarative lock construction and instrumentation: [`LockSpec`] and
//! [`LockHandle`].
//!
//! The paper's central claim is that BRAVO is a *policy layer* wrapped
//! around any reader-writer lock, tuned by two knobs it sweeps explicitly:
//! the bias policy (`N`, the inhibit window) and the visible-readers-table
//! layout (one global table vs. the sectored BRAVO-2D variant). A
//! [`LockSpec`] captures exactly that tuple — *which lock, configured how,
//! instrumented where* — as a value that round-trips through a compact
//! string form, so every benchmark binary can accept a uniform `--lock SPEC`
//! flag and a scenario sweep is just a list of strings:
//!
//! ```text
//! BRAVO-BA
//! BRAVO-BA?n=99
//! BRAVO-BA?bias=disabled&stats=global
//! BRAVO-BA?table=private:4096
//! BRAVO-2D-BA?table=sectored:4x256
//! BRAVO-BA?table=numa:2x1024
//! ```
//!
//! Grammar: `KIND[?param&param...]` with parameters
//!
//! | key | values | selects |
//! |-----|--------|---------|
//! | `n` | integer | [`BiasPolicy::InhibitUntil`] with that multiplier |
//! | `bias` | `disabled`, `bernoulli:<inverse_p>`, `inhibit:<n>` | the other [`BiasPolicy`] forms (`inhibit:<n>` is the long form of `n=<n>`) |
//! | `table` | `global`, `private:<slots>`, `sectored:<sectors>x<slots>`, `numa:<nodes>x<slots>`, bare `numa` | the [`TableSpec`] (bare `numa` auto-sizes from the machine topology, see [`TableSpec::numa_auto`]) |
//! | `stats` | `per-lock`, `global` | the [`StatsMode`] |
//! | `wait` | `spin`, `park`, `futex` | the [`WaitMode`] contended waiters use (parking queues or kernel futex sleeps instead of spinning; `futex` falls back to `park` where the syscall is unavailable) |
//! | `adapt` | `on`, `off` | whether an [`AdaptiveBias`] controller gates bias on the sampled read ratio (BRAVO composites only) |
//! | `shards` | integer ≥ 1 | how many key-hashed data shards a spec-driven store (e.g. `kvstore::Db`) partitions itself into, each shard guarded by its own lock built from this spec; `1` (the default) keeps the single-lock layout |
//!
//! A spec is resolved into a live lock by the catalog (`rwlocks::catalog`),
//! which returns a [`LockHandle`]: the harness-facing object carrying the
//! spec, its display label, the lock itself behind the blocking
//! [`RawRwLock`] interface (plus the non-blocking [`RawTryRwLock`] interface
//! when the algorithm honestly supports one), and the lock's own statistics
//! channel.

use std::str::FromStr;
use std::sync::Arc;

use crate::policy::{AdaptiveBias, BiasPolicy, DEFAULT_INHIBIT_MULTIPLIER};
use crate::raw::{RawRwLock, RawTryRwLock, TryLockError};
use crate::stats::{Snapshot, StatsSink};
use crate::wait::WaitMode;

/// Layout of the visible readers table a BRAVO composite publishes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableSpec {
    /// The process-global table shared by all locks (the paper's production
    /// embodiment; zero per-lock table state).
    #[default]
    Global,
    /// A table owned by this lock instance — the idealized per-instance
    /// comparator of the paper's Figure 1, immune to inter-lock conflicts.
    Private {
        /// Number of slots (rounded up to a power of two at construction).
        slots: usize,
    },
    /// A sectored (BRAVO-2D) table owned by this lock instance: `sectors`
    /// rows of `slots` columns, writers revoke by scanning one column.
    Sectored {
        /// Number of rows (one per logical CPU in the global default).
        sectors: usize,
        /// Slots per row (rounded up to a power of two at construction).
        slots: usize,
    },
    /// A NUMA-sharded table, **process-shared** per geometry like the
    /// global flat table: `nodes` shards of `slots` slots, readers publish
    /// into their home-node shard, writers skip empty shards during
    /// revocation.
    Numa {
        /// Number of shards (one per NUMA node; nodes wrap round-robin if
        /// the machine has more).
        nodes: usize,
        /// Slots per shard (rounded up to a power of two at construction).
        slots: usize,
    },
}

impl TableSpec {
    /// The auto-sized NUMA layout selected by the bare `table=numa` spec
    /// form: one shard per node of [`topology::machine`], with
    /// `DEFAULT_TABLE_SIZE / nodes × 2` slots per shard, so the sharded
    /// layout carries twice the flat global table's aggregate slot budget
    /// and in-shard collision counts stay comparable under same-node load.
    ///
    /// The geometry is resolved *when the spec is parsed* (freezing the
    /// process-global machine if it was not already frozen), so the
    /// resulting spec prints its concrete `numa:<nodes>x<slots>` form and
    /// the Display ↔ FromStr round-trip is preserved.
    pub fn numa_auto() -> Self {
        let nodes = topology::numa_nodes().max(1);
        TableSpec::Numa {
            nodes,
            slots: (crate::vrt::DEFAULT_TABLE_SIZE / nodes).max(1) * 2,
        }
    }

    /// Whether this layout resolves to a *process-shared* table (one table
    /// for every lock built with the same spec) rather than a table owned
    /// per lock instance. The interference experiment requires a shared
    /// base layout — an owned base would be interference-free by
    /// construction.
    pub fn is_process_shared(&self) -> bool {
        matches!(self, TableSpec::Global | TableSpec::Numa { .. })
    }

    /// Number of shards the layout's revocation scan distinguishes (what
    /// the per-shard statistics report against): 1 for flat layouts, one
    /// per row/node otherwise.
    pub fn shards(&self) -> usize {
        match self {
            TableSpec::Global | TableSpec::Private { .. } => 1,
            TableSpec::Sectored { sectors, .. } => *sectors,
            TableSpec::Numa { nodes, .. } => (*nodes).max(1),
        }
    }
}

impl std::fmt::Display for TableSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableSpec::Global => f.write_str("global"),
            TableSpec::Private { slots } => write!(f, "private:{slots}"),
            TableSpec::Sectored { sectors, slots } => write!(f, "sectored:{sectors}x{slots}"),
            TableSpec::Numa { nodes, slots } => write!(f, "numa:{nodes}x{slots}"),
        }
    }
}

/// Where a lock's instrumentation events are attributed.
///
/// This is the declarative form of [`StatsSink`]: the spec describes *which
/// kind* of sink to create; the actual [`StatsSink`] (which may own an
/// allocation) is minted per lock instance at build time via
/// [`LockSpec::make_sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StatsMode {
    /// Each built lock gets its own counter block, so two locks measured in
    /// one process no longer smear each other's fast-read fractions. The
    /// default.
    #[default]
    PerLock,
    /// Record into the process-global counters only.
    Global,
}

impl std::fmt::Display for StatsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsMode::PerLock => f.write_str("per-lock"),
            StatsMode::Global => f.write_str("global"),
        }
    }
}

/// A declarative description of one lock: algorithm, bias policy, table
/// layout and statistics attribution.
///
/// Construct with [`LockSpec::new`] plus the `with_*` builder methods, or
/// parse the compact string form (see the [module docs](self)); `Display`
/// emits the same form back (omitting parameters at their defaults), so
/// specs round-trip and double as result-table labels.
///
/// ```
/// use bravo::spec::{LockSpec, TableSpec};
///
/// let spec: LockSpec = "BRAVO-BA?n=99&table=numa:2x1024&wait=park"
///     .parse()
///     .unwrap();
/// assert_eq!(spec.kind(), "BRAVO-BA");
/// assert_eq!(spec.table(), TableSpec::Numa { nodes: 2, slots: 1024 });
///
/// // Display omits defaults, so any result-table label round-trips.
/// assert_eq!(spec.to_string(), "BRAVO-BA?n=99&table=numa:2x1024&wait=park");
/// assert_eq!(spec.to_string().parse::<LockSpec>().unwrap(), spec);
///
/// // Explicitly-spelled defaults collapse back to the bare kind...
/// let plain: LockSpec = "BA?n=9&stats=per-lock&shards=1".parse().unwrap();
/// assert_eq!(plain, LockSpec::new("BA"));
/// assert_eq!(plain.to_string(), "BA");
///
/// // ...and malformed specs are rejected, never silently ignored.
/// assert!("BA?frobnicate=1".parse::<LockSpec>().is_err());
/// assert!("BRAVO-BA?shards=0".parse::<LockSpec>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LockSpec {
    kind: String,
    bias: BiasPolicy,
    table: TableSpec,
    stats: StatsMode,
    wait: WaitMode,
    adapt: bool,
    shards: usize,
}

impl LockSpec {
    /// A spec for the named algorithm with the paper-default bias policy,
    /// the global table and per-lock statistics.
    ///
    /// `kind` is the catalog name (e.g. `"BRAVO-BA"`); it is validated when
    /// the spec is built into a lock, not here.
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            bias: BiasPolicy::paper_default(),
            table: TableSpec::Global,
            stats: StatsMode::PerLock,
            wait: WaitMode::Spin,
            adapt: false,
            shards: 1,
        }
    }

    /// Replaces the bias policy.
    pub fn with_bias(mut self, bias: BiasPolicy) -> Self {
        self.bias = bias;
        self
    }

    /// Replaces the table layout.
    pub fn with_table(mut self, table: TableSpec) -> Self {
        self.table = table;
        self
    }

    /// Replaces the statistics mode.
    pub fn with_stats(mut self, stats: StatsMode) -> Self {
        self.stats = stats;
        self
    }

    /// Replaces the wait mode contended waiters use.
    pub fn with_wait(mut self, wait: WaitMode) -> Self {
        self.wait = wait;
        self
    }

    /// Enables or disables the adaptive bias controller.
    pub fn with_adapt(mut self, adapt: bool) -> Self {
        self.adapt = adapt;
        self
    }

    /// Replaces the data-shard count a spec-driven store partitions itself
    /// into (each shard gets its own lock built from this spec). Panics on
    /// zero: a store needs at least one shard to put the data somewhere.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a spec needs at least one data shard");
        self.shards = shards;
        self
    }

    /// The algorithm name.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The bias policy.
    pub fn bias(&self) -> BiasPolicy {
        self.bias
    }

    /// The table layout.
    pub fn table(&self) -> TableSpec {
        self.table
    }

    /// The statistics mode.
    pub fn stats(&self) -> StatsMode {
        self.stats
    }

    /// The wait mode contended waiters use.
    pub fn wait(&self) -> WaitMode {
        self.wait
    }

    /// Whether the adaptive bias controller is enabled.
    pub fn adapt(&self) -> bool {
        self.adapt
    }

    /// How many key-hashed data shards a spec-driven store partitions
    /// itself into (1 — the default — means the single-lock layout). This
    /// knob configures the *store around* the lock, not the lock itself:
    /// the catalog builds one independent lock per shard from the same
    /// spec. Distinct from [`TableSpec::shards`], which counts a reader
    /// *table*'s revocation-scan shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Mints the [`StatsSink`] this spec prescribes. Each call produces an
    /// independent sink: one per built lock instance.
    pub fn make_sink(&self) -> StatsSink {
        match self.stats {
            StatsMode::PerLock => StatsSink::per_lock(),
            StatsMode::Global => StatsSink::Global,
        }
    }
}

impl From<&LockSpec> for LockSpec {
    fn from(spec: &LockSpec) -> Self {
        spec.clone()
    }
}

impl std::fmt::Display for LockSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.kind)?;
        let mut sep = '?';
        let mut param = |f: &mut std::fmt::Formatter<'_>, text: String| {
            let r = write!(f, "{sep}{text}");
            sep = '&';
            r
        };
        match self.bias {
            BiasPolicy::InhibitUntil {
                n: DEFAULT_INHIBIT_MULTIPLIER,
            } => {}
            BiasPolicy::InhibitUntil { n } => param(f, format!("n={n}"))?,
            BiasPolicy::Disabled => param(f, "bias=disabled".to_string())?,
            BiasPolicy::Bernoulli { inverse_p } => param(f, format!("bias=bernoulli:{inverse_p}"))?,
        }
        if self.table != TableSpec::Global {
            param(f, format!("table={}", self.table))?;
        }
        if self.stats != StatsMode::PerLock {
            param(f, format!("stats={}", self.stats))?;
        }
        if self.wait != WaitMode::Spin {
            param(f, format!("wait={}", self.wait))?;
        }
        if self.adapt {
            param(f, "adapt=on".to_string())?;
        }
        if self.shards != 1 {
            param(f, format!("shards={}", self.shards))?;
        }
        Ok(())
    }
}

/// Error parsing the compact string form of a [`LockSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    message: String,
}

impl SpecParseError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid lock spec: {}", self.message)
    }
}

impl std::error::Error for SpecParseError {}

impl FromStr for LockSpec {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, params) = match s.split_once('?') {
            Some((kind, params)) => (kind, Some(params)),
            None => (s, None),
        };
        let kind = kind.trim();
        if kind.is_empty() {
            return Err(SpecParseError::new("empty lock kind"));
        }
        if kind.contains(['&', '=', ' ']) {
            return Err(SpecParseError::new(format!(
                "lock kind '{kind}' contains a reserved character"
            )));
        }
        let mut spec = LockSpec::new(kind);
        let Some(params) = params else {
            return Ok(spec);
        };
        for param in params.split('&') {
            let Some((key, value)) = param.split_once('=') else {
                return Err(SpecParseError::new(format!(
                    "parameter '{param}' is not of the form key=value"
                )));
            };
            match key.trim() {
                "n" => {
                    let n = value.trim().parse::<u64>().map_err(|_| {
                        SpecParseError::new(format!("n must be an integer, got '{value}'"))
                    })?;
                    spec.bias = BiasPolicy::InhibitUntil { n };
                }
                "bias" => {
                    spec.bias = parse_bias(value.trim())?;
                }
                "table" => {
                    spec.table = parse_table(value.trim())?;
                }
                "stats" => {
                    spec.stats = match value.trim() {
                        "per-lock" => StatsMode::PerLock,
                        "global" => StatsMode::Global,
                        other => {
                            return Err(SpecParseError::new(format!(
                                "stats must be 'per-lock' or 'global', got '{other}'"
                            )))
                        }
                    };
                }
                "wait" => {
                    spec.wait = value.trim().parse::<WaitMode>().map_err(|_| {
                        SpecParseError::new(format!(
                            "wait must be 'spin', 'park' or 'futex', got '{value}'"
                        ))
                    })?;
                }
                "adapt" => {
                    spec.adapt = match value.trim() {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(SpecParseError::new(format!(
                                "adapt must be 'on' or 'off', got '{other}'"
                            )))
                        }
                    };
                }
                "shards" => {
                    let shards = value.trim().parse::<usize>().map_err(|_| {
                        SpecParseError::new(format!("shards must be an integer, got '{value}'"))
                    })?;
                    if shards == 0 {
                        return Err(SpecParseError::new("shards must be at least 1"));
                    }
                    spec.shards = shards;
                }
                other => {
                    return Err(SpecParseError::new(format!(
                        "unknown parameter '{other}' (expected n, bias, table, stats, wait, \
                         adapt or shards)"
                    )));
                }
            }
        }
        Ok(spec)
    }
}

fn parse_bias(value: &str) -> Result<BiasPolicy, SpecParseError> {
    if value == "disabled" {
        return Ok(BiasPolicy::Disabled);
    }
    if let Some(p) = value.strip_prefix("bernoulli:") {
        let inverse_p = p.parse::<u32>().map_err(|_| {
            SpecParseError::new(format!(
                "bernoulli inverse probability '{p}' is not an integer"
            ))
        })?;
        return Ok(BiasPolicy::Bernoulli { inverse_p });
    }
    if let Some(n) = value.strip_prefix("inhibit:") {
        let n = n.parse::<u64>().map_err(|_| {
            SpecParseError::new(format!("inhibit multiplier '{n}' is not an integer"))
        })?;
        return Ok(BiasPolicy::InhibitUntil { n });
    }
    Err(SpecParseError::new(format!(
        "bias must be 'disabled', 'bernoulli:<inverse_p>' or 'inhibit:<n>', got '{value}'"
    )))
}

fn parse_table(value: &str) -> Result<TableSpec, SpecParseError> {
    if value == "global" {
        return Ok(TableSpec::Global);
    }
    if let Some(slots) = value.strip_prefix("private:") {
        let slots = slots.parse::<usize>().map_err(|_| {
            SpecParseError::new(format!("private table size '{slots}' is not an integer"))
        })?;
        if slots == 0 {
            return Err(SpecParseError::new("private table size must be at least 1"));
        }
        return Ok(TableSpec::Private { slots });
    }
    if let Some(geometry) = value.strip_prefix("sectored:") {
        let (sectors, slots) = parse_geometry("sectored", geometry)?;
        return Ok(TableSpec::Sectored { sectors, slots });
    }
    if value == "numa" {
        return Ok(TableSpec::numa_auto());
    }
    if let Some(geometry) = value.strip_prefix("numa:") {
        let (nodes, slots) = parse_geometry("numa", geometry)?;
        return Ok(TableSpec::Numa { nodes, slots });
    }
    Err(SpecParseError::new(format!(
        "table must be 'global', 'private:<slots>', 'sectored:<sectors>x<slots>', \
         'numa:<nodes>x<slots>' or bare 'numa' (auto-sized from the machine topology), \
         got '{value}'"
    )))
}

/// Parses a `<a>x<b>` table geometry, rejecting zero dimensions.
fn parse_geometry(layout: &str, geometry: &str) -> Result<(usize, usize), SpecParseError> {
    let Some((a, b)) = geometry.split_once('x') else {
        return Err(SpecParseError::new(format!(
            "{layout} table geometry '{geometry}' is not of the form <a>x<b>"
        )));
    };
    let a = a.parse::<usize>().map_err(|_| {
        SpecParseError::new(format!(
            "{layout} geometry component '{a}' is not an integer"
        ))
    })?;
    let b = b.parse::<usize>().map_err(|_| {
        SpecParseError::new(format!(
            "{layout} geometry component '{b}' is not an integer"
        ))
    })?;
    if a == 0 || b == 0 {
        return Err(SpecParseError::new(format!(
            "{layout} table geometry must be at least 1x1"
        )));
    }
    Ok((a, b))
}

/// Error turning a (syntactically valid) [`LockSpec`] into a live lock.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec's kind names no algorithm in the catalog.
    UnknownKind {
        /// The unrecognized kind string.
        kind: String,
        /// The catalog's valid kind names, for the error message.
        known: Vec<&'static str>,
    },
    /// The spec's table layout is not supported by this algorithm (any
    /// non-global table on a lock that is not a BRAVO composite — BRAVO
    /// composites accept every layout) or by this workload (e.g. an owned
    /// layout as the interference experiment's shared base).
    UnsupportedTable {
        /// The algorithm the spec named.
        kind: String,
        /// The offending layout.
        table: TableSpec,
    },
    /// The spec sets a bias policy but the algorithm is not a BRAVO
    /// composite, so the policy could never take effect.
    UnsupportedBias {
        /// The algorithm the spec named.
        kind: String,
    },
    /// The spec enables adaptive bias (`adapt=on`) but the algorithm is not
    /// a BRAVO composite, so there is no bias to adapt.
    UnsupportedAdapt {
        /// The algorithm the spec named.
        kind: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownKind { kind, known } => {
                write!(
                    f,
                    "unknown lock kind '{kind}'; known kinds: {}",
                    known.join(", ")
                )
            }
            SpecError::UnsupportedTable { kind, table } => {
                write!(
                    f,
                    "lock kind '{kind}' does not support table layout '{table}'"
                )
            }
            SpecError::UnsupportedBias { kind } => {
                write!(
                    f,
                    "lock kind '{kind}' is not a BRAVO composite; a bias policy has no effect on it"
                )
            }
            SpecError::UnsupportedAdapt { kind } => {
                write!(
                    f,
                    "lock kind '{kind}' is not a BRAVO composite; adapt=on has no bias to adapt"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A live lock built from a [`LockSpec`]: the object the benchmark harness
/// passes around.
///
/// The handle carries the spec it was built from, a display label for result
/// tables, the lock behind the blocking [`RawRwLock`] interface, the
/// non-blocking [`RawTryRwLock`] interface *when the algorithm honestly
/// provides one* (see [`LockHandle::supports_try_write`]), and the lock's
/// statistics channel. Cloning is cheap (the lock is shared).
#[derive(Clone)]
pub struct LockHandle {
    spec: LockSpec,
    label: String,
    blocking: Arc<dyn RawRwLock>,
    non_blocking: Option<Arc<dyn RawTryRwLock>>,
    stats: StatsSink,
    adapt: Option<Arc<AdaptiveBias>>,
}

impl LockHandle {
    /// Wraps a lock that supports both blocking and non-blocking
    /// acquisition.
    pub fn from_try_lock<L>(spec: LockSpec, lock: Arc<L>, stats: StatsSink) -> Self
    where
        L: RawTryRwLock + 'static,
    {
        let label = spec.to_string();
        Self {
            spec,
            label,
            blocking: lock.clone(),
            non_blocking: Some(lock),
            stats,
            adapt: None,
        }
    }

    /// Wraps a lock that only supports blocking acquisition; the handle's
    /// try operations will report [`TryLockError::Unsupported`].
    pub fn from_blocking<L>(spec: LockSpec, lock: Arc<L>, stats: StatsSink) -> Self
    where
        L: RawRwLock + 'static,
    {
        let label = spec.to_string();
        Self {
            spec,
            label,
            blocking: lock,
            non_blocking: None,
            stats,
            adapt: None,
        }
    }

    /// Attaches the adaptive bias controller shared with the built lock, so
    /// harnesses can read its flip log and count after a run.
    pub fn with_adaptive(mut self, adapt: Arc<AdaptiveBias>) -> Self {
        self.adapt = Some(adapt);
        self
    }

    /// The adaptive bias controller, when the spec said `adapt=on`.
    pub fn adaptive(&self) -> Option<&Arc<AdaptiveBias>> {
        self.adapt.as_ref()
    }

    /// The spec this lock was built from.
    pub fn spec(&self) -> &LockSpec {
        &self.spec
    }

    /// Returns a handle sharing this lock (and its statistics channel) but
    /// carrying a different display label.
    ///
    /// This is the labelling surface multi-client harnesses use with
    /// `stats=per-lock` specs: the `bravod` server hands each connection a
    /// relabelled clone (e.g. `BRAVO-BA@conn7`) so per-connection log lines
    /// and result rows stay distinguishable. Note the statistics are *not*
    /// split: every clone records into — and snapshots — the one shared
    /// per-lock sink.
    pub fn labeled(&self, label: impl Into<String>) -> LockHandle {
        LockHandle {
            label: label.into(),
            ..self.clone()
        }
    }

    /// The display label for result tables (the spec's compact string form).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The lock's statistics sink.
    pub fn stats(&self) -> &StatsSink {
        &self.stats
    }

    /// The lock's statistics: its own counters when the spec said
    /// `stats=per-lock` (the default), the process-global aggregate
    /// otherwise.
    pub fn snapshot(&self) -> Snapshot {
        self.stats.snapshot()
    }

    /// Whether this lock provides an honest non-blocking write path. When
    /// `false`, [`LockHandle::try_lock_exclusive`] always returns
    /// [`TryLockError::Unsupported`] instead of failing silently.
    pub fn supports_try_write(&self) -> bool {
        self.non_blocking.is_some()
    }

    /// Acquires shared (read) permission, blocking until granted.
    pub fn lock_shared(&self) {
        self.blocking.lock_shared();
    }

    /// Releases shared permission.
    pub fn unlock_shared(&self) {
        self.blocking.unlock_shared();
    }

    /// Acquires exclusive (write) permission, blocking until granted.
    pub fn lock_exclusive(&self) {
        self.blocking.lock_exclusive();
    }

    /// Releases exclusive permission.
    pub fn unlock_exclusive(&self) {
        self.blocking.unlock_exclusive();
    }

    /// Attempts to acquire shared permission without blocking.
    pub fn try_lock_shared(&self) -> Result<(), TryLockError> {
        match &self.non_blocking {
            Some(lock) => lock.try_lock_shared(),
            None => Err(TryLockError::Unsupported),
        }
    }

    /// Attempts to acquire exclusive permission without blocking
    /// indefinitely (implementations may use a short bounded wait).
    pub fn try_lock_exclusive(&self) -> Result<(), TryLockError> {
        match &self.non_blocking {
            Some(lock) => lock.try_lock_exclusive(),
            None => Err(TryLockError::Unsupported),
        }
    }
}

impl std::fmt::Debug for LockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockHandle")
            .field("label", &self.label)
            .field("supports_try_write", &self.supports_try_write())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::DefaultRwLock;

    #[test]
    fn default_spec_prints_just_the_kind() {
        let spec = LockSpec::new("BRAVO-BA");
        assert_eq!(spec.to_string(), "BRAVO-BA");
        assert_eq!(spec.bias(), BiasPolicy::paper_default());
        assert_eq!(spec.table(), TableSpec::Global);
        assert_eq!(spec.stats(), StatsMode::PerLock);
    }

    #[test]
    fn issue_example_parses() {
        let spec: LockSpec = "BRAVO-BA?n=9&table=sectored:4x256".parse().unwrap();
        assert_eq!(spec.kind(), "BRAVO-BA");
        assert_eq!(spec.bias(), BiasPolicy::InhibitUntil { n: 9 });
        assert_eq!(
            spec.table(),
            TableSpec::Sectored {
                sectors: 4,
                slots: 256
            }
        );
    }

    #[test]
    fn non_default_params_round_trip() {
        let specs = [
            LockSpec::new("BA"),
            LockSpec::new("BRAVO-BA").with_bias(BiasPolicy::InhibitUntil { n: 99 }),
            LockSpec::new("BRAVO-BA").with_bias(BiasPolicy::Disabled),
            LockSpec::new("BRAVO-pthread").with_bias(BiasPolicy::Bernoulli { inverse_p: 100 }),
            LockSpec::new("BRAVO-BA").with_table(TableSpec::Private { slots: 4096 }),
            LockSpec::new("BRAVO-2D-BA").with_table(TableSpec::Sectored {
                sectors: 4,
                slots: 256,
            }),
            LockSpec::new("BRAVO-BA").with_table(TableSpec::Numa {
                nodes: 2,
                slots: 1024,
            }),
            LockSpec::new("BRAVO-BA").with_stats(StatsMode::Global),
            LockSpec::new("BA").with_wait(WaitMode::Park),
            LockSpec::new("BRAVO-BA").with_adapt(true),
            LockSpec::new("BRAVO-BA")
                .with_wait(WaitMode::Park)
                .with_adapt(true),
            LockSpec::new("BRAVO-BA").with_shards(8),
            LockSpec::new("BA").with_wait(WaitMode::Park).with_shards(4),
            LockSpec::new("BA").with_wait(WaitMode::Futex),
            LockSpec::new("BRAVO-BA")
                .with_wait(WaitMode::Futex)
                .with_adapt(true),
            LockSpec::new("BRAVO-BA")
                .with_wait(WaitMode::Futex)
                .with_shards(8),
            LockSpec::new("BRAVO-BA")
                .with_bias(BiasPolicy::InhibitUntil { n: 3 })
                .with_table(TableSpec::Private { slots: 64 })
                .with_stats(StatsMode::Global)
                .with_wait(WaitMode::Park)
                .with_adapt(true)
                .with_shards(16),
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: LockSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, spec, "{text} did not round-trip");
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for text in [
            "",
            "?n=9",
            "BA?",
            "BA?n",
            "BA?n=x",
            "BA?frobnicate=1",
            "BA?table=sectored:4",
            "BA?table=private:0",
            "BA?table=sectored:0x8",
            "BA?table=numa:2",
            "BA?table=numa:0x64",
            "BA?table=numa:2x0",
            "BA?table=numa:axb",
            "BA?bias=sometimes",
            "BA?stats=maybe",
            "BA?wait=swim",
            "BA?wait=",
            "BA?adapt=maybe",
            "BA?shards=0",
            "BA?shards=x",
            "BA?shards=",
            "B A?n=9",
        ] {
            assert!(
                text.parse::<LockSpec>().is_err(),
                "'{text}' should not parse"
            );
        }
    }

    #[test]
    fn numa_layout_parses_and_classifies_as_shared() {
        let spec: LockSpec = "BRAVO-BA?table=numa:2x1024".parse().unwrap();
        assert_eq!(
            spec.table(),
            TableSpec::Numa {
                nodes: 2,
                slots: 1024
            }
        );
        assert!(spec.table().is_process_shared());
        assert_eq!(spec.table().shards(), 2);
        assert_eq!(spec.to_string(), "BRAVO-BA?table=numa:2x1024");
        assert!(TableSpec::Global.is_process_shared());
        assert!(!TableSpec::Private { slots: 64 }.is_process_shared());
        assert!(!TableSpec::Sectored {
            sectors: 4,
            slots: 64
        }
        .is_process_shared());
        assert_eq!(TableSpec::Global.shards(), 1);
        assert_eq!(
            TableSpec::Sectored {
                sectors: 4,
                slots: 64
            }
            .shards(),
            4
        );
    }

    #[test]
    fn bare_numa_auto_sizes_from_the_machine_topology() {
        let spec: LockSpec = "BRAVO-BA?table=numa".parse().unwrap();
        let nodes = topology::numa_nodes().max(1);
        let slots = (crate::vrt::DEFAULT_TABLE_SIZE / nodes).max(1) * 2;
        assert_eq!(spec.table(), TableSpec::Numa { nodes, slots });
        assert_eq!(spec.table(), TableSpec::numa_auto());
        // The resolved geometry is concrete, so Display prints it and the
        // round-trip invariant holds.
        let text = spec.to_string();
        assert_eq!(text, format!("BRAVO-BA?table=numa:{nodes}x{slots}"));
        assert_eq!(text.parse::<LockSpec>().unwrap(), spec);
    }

    #[test]
    fn labeled_handles_share_the_lock_and_sink() {
        let spec = LockSpec::new("default-spin");
        let sink = spec.make_sink();
        let handle = LockHandle::from_try_lock(spec, Arc::new(DefaultRwLock::new()), sink);
        let conn = handle.labeled("default-spin@conn3");
        assert_eq!(conn.label(), "default-spin@conn3");
        assert_eq!(handle.label(), "default-spin");
        // Same underlying lock: an exclusive hold through one handle blocks
        // try-acquisition through the other.
        conn.lock_exclusive();
        assert!(handle.try_lock_shared().is_err());
        conn.unlock_exclusive();
        // Same statistics channel: events recorded through the relabelled
        // clone are visible through the original.
        conn.stats().record_fast_read_in(0);
        assert_eq!(handle.snapshot().fast_reads, 1);
    }

    #[test]
    fn explicit_defaults_parse_to_the_default_spec() {
        let spec: LockSpec = "BA?n=9&table=global&stats=per-lock&wait=spin&adapt=off&shards=1"
            .parse()
            .unwrap();
        assert_eq!(spec, LockSpec::new("BA"));
    }

    #[test]
    fn shards_knob_parses_prints_and_defaults() {
        let spec: LockSpec = "BRAVO-BA?shards=8".parse().unwrap();
        assert_eq!(spec.shards(), 8);
        assert_eq!(spec.to_string(), "BRAVO-BA?shards=8");
        // The default is a single shard and prints nothing.
        assert_eq!(LockSpec::new("BRAVO-BA").shards(), 1);
        assert_eq!(LockSpec::new("BRAVO-BA").to_string(), "BRAVO-BA");
        // Composes with the other knobs in Display order.
        let spec: LockSpec = "BRAVO-BA?wait=park&adapt=on&shards=4".parse().unwrap();
        assert_eq!(spec.shards(), 4);
        assert_eq!(spec.to_string(), "BRAVO-BA?wait=park&adapt=on&shards=4");
    }

    #[test]
    fn wait_and_adapt_knobs_parse_and_print() {
        let spec: LockSpec = "BRAVO-BA?wait=park&adapt=on".parse().unwrap();
        assert_eq!(spec.wait(), WaitMode::Park);
        assert!(spec.adapt());
        assert_eq!(spec.to_string(), "BRAVO-BA?wait=park&adapt=on");
        let spin: LockSpec = "BA?wait=park".parse().unwrap();
        assert_eq!(spin.to_string(), "BA?wait=park");
        assert!(!spin.adapt());
        let futex: LockSpec = "BRAVO-BA?wait=futex&adapt=on".parse().unwrap();
        assert_eq!(futex.wait(), WaitMode::Futex);
        assert_eq!(futex.to_string(), "BRAVO-BA?wait=futex&adapt=on");
    }

    #[test]
    fn handle_delegates_and_reports_capability() {
        let spec = LockSpec::new("default-spin");
        let sink = spec.make_sink();
        let handle = LockHandle::from_try_lock(spec.clone(), Arc::new(DefaultRwLock::new()), sink);
        assert!(handle.supports_try_write());
        assert_eq!(handle.label(), "default-spin");
        handle.lock_shared();
        assert!(handle.try_lock_exclusive().is_err());
        handle.unlock_shared();
        assert!(handle.try_lock_exclusive().is_ok());
        handle.unlock_exclusive();
        handle.lock_exclusive();
        handle.unlock_exclusive();

        let blocking_only =
            LockHandle::from_blocking(spec, Arc::new(DefaultRwLock::new()), StatsSink::Global);
        assert!(!blocking_only.supports_try_write());
        assert_eq!(
            blocking_only.try_lock_exclusive(),
            Err(TryLockError::Unsupported)
        );
        assert_eq!(
            blocking_only.try_lock_shared(),
            Err(TryLockError::Unsupported)
        );
    }

    #[test]
    fn per_lock_handles_have_independent_snapshots() {
        let spec = LockSpec::new("default-spin");
        let a = LockHandle::from_try_lock(
            spec.clone(),
            Arc::new(DefaultRwLock::new()),
            spec.make_sink(),
        );
        let b = LockHandle::from_try_lock(
            spec.clone(),
            Arc::new(DefaultRwLock::new()),
            spec.make_sink(),
        );
        a.stats().record_fast_read_in(0);
        assert_eq!(a.snapshot().fast_reads, 1);
        assert_eq!(b.snapshot().fast_reads, 0);
    }
}
