//! Deterministic parallel execution for the deep-healing Monte-Carlo
//! sweeps.
//!
//! Every headline result in this reproduction is a population statistic —
//! CET trap ensembles, EM wire populations, lifetime guardband
//! distributions — and all of them share two needs that plain thread
//! pools don't meet:
//!
//! 1. **Bit-identical output at any thread count.** Each work item draws
//!    its randomness from an RNG derived from `(base_seed, label, index)`
//!    via [`dh_units::rng::seeded_stream_rng`], never from a shared
//!    stream, and results are reassembled in index order. Running on one
//!    thread, eight threads, or under a different OS scheduler produces
//!    the same bytes.
//! 2. **Load balancing for skewed item costs.** Early-failing seeds
//!    finish orders of magnitude faster than survivors, so static
//!    chunking idles most of the pool. Work is handed out one item (or
//!    one fixed chunk) at a time from an atomic counter, so free workers
//!    always pull the next pending item.
//!
//! The [`Memo`] cache rounds this out: expensive fitted artifacts (the
//! CET emission-CDF knot fit, most prominently) are computed once per
//! distinct key and shared behind an [`std::sync::Arc`].
//!
//! Every parallel call runs on its calling thread plus helpers from one
//! lazily started, process-wide pool of parked threads, so a call costs a
//! wake-up rather than a thread spawn. Thread counts come from
//! `DH_NUM_THREADS`, then the machine's available parallelism;
//! [`set_max_threads`] overrides both at runtime.

#![warn(missing_docs)]

mod memo;
mod pool;
mod supervise;
mod workers;

pub use memo::{Memo, MEMO_DEFAULT_CAPACITY};
pub use pool::{
    max_threads, par_chunks_mut, par_chunks_mut2, par_map, par_map_fold, par_map_indexed,
    par_map_seeded, par_try_map, set_max_threads,
};
pub use supervise::{
    par_map_fold_supervised, run_attempts, RetryPolicy, ShardError, SupervisedOutcome,
};
