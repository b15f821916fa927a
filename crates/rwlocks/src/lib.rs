//! The reader-writer lock zoo used in the BRAVO paper's evaluation.
//!
//! Every lock here implements [`bravo::RawRwLock`], so any of them can be
//! used directly, wrapped by the BRAVO transformation, or selected at run
//! time through the [`catalog`]. The inventory mirrors §2 and §5 of the
//! paper:
//!
//! | Paper name  | Type | Reader indicator | Preference |
//! |-------------|------|------------------|------------|
//! | — | [`CounterRwLock`] | single central word | writer-pending gate |
//! | PF-T | [`PhaseFairTicketLock`] | central ingress/egress counters | phase-fair |
//! | BA (PF-Q) | [`PhaseFairQueueLock`] | central ingress/egress counters, queued writers | phase-fair |
//! | pthread | [`PthreadRwLock`] | central count, blocking waiters | strong reader preference |
//! | Cohort-RW (C-RW-WP) | [`CohortRwLock`] | one per NUMA node | writer preference |
//! | Per-CPU | [`PerCpuRwLock`] | one sub-lock per logical CPU | reader-friendly, writer scans all |
//! | MCS fair | [`FairRwLock`] | central counters, FIFO phases | task-fair |
//!
//! Supporting mutual-exclusion locks (ticket, MCS, and the NUMA-aware cohort
//! mutex used by Cohort-RW) live in [`mutex`]. [`RwLock`] is a small
//! data-carrying wrapper, generic over the raw lock, mirroring
//! `std::sync::RwLock` without poisoning. [`footprint`] reports per-instance
//! memory footprints, reproducing the size accounting of §5.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bytelock;
pub mod catalog;
pub mod cohort;
pub mod counter;
pub mod fair;
pub mod footprint;
pub mod mutex;
pub mod percpu;
pub mod pf_q;
pub mod pf_t;
pub mod pthread_like;
pub mod rwlock;
pub mod seqlock;

pub use bravo::{RawRwLock, RawTryRwLock, TryLockError};
pub use bytelock::ByteLock;
pub use catalog::{build_lock, LockKind};
pub use cohort::CohortRwLock;
pub use counter::CounterRwLock;
pub use fair::FairRwLock;
pub use mutex::{CohortMutex, McsMutex, RawMutex, TicketMutex};
pub use percpu::PerCpuRwLock;
pub use pf_q::PhaseFairQueueLock;
pub use pf_t::PhaseFairTicketLock;
pub use pthread_like::PthreadRwLock;
pub use rwlock::{ReadGuard, RwLock, WriteGuard};
pub use seqlock::SeqLock;

/// "BA" is how the paper refers to the Brandenburg–Anderson PF-Q lock.
pub type Ba = PhaseFairQueueLock;

/// BRAVO-BA: the paper's primary composite lock.
pub type BravoBa = bravo::ReentrantBravo<PhaseFairQueueLock>;

/// BRAVO-pthread: BRAVO over the pthread-like reader-preference lock.
pub type BravoPthread = bravo::ReentrantBravo<PthreadRwLock>;
