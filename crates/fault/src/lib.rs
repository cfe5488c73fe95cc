//! Deterministic fault injection for the deep-healing workspace.
//!
//! The fleet layer runs million-chip simulations for hours across a
//! thread pool with periodic checkpoints, and the scheduler layer trusts
//! in-situ aging sensors. Hardening those paths is only testable if the
//! faults themselves are reproducible, so everything here is driven by a
//! seeded [`FaultPlan`]: every injection decision — "does shard 17 panic
//! on attempt 2?", "which byte of checkpoint write 3 gets flipped?",
//! "is chip 905's sensor stuck?" — is a pure function of
//! `(seed, named stream, index)` via [`dh_units::rng::seeded_stream_rng`].
//! Running the same plan twice, at any thread count, injects the same
//! faults in the same places.
//!
//! The crate deliberately has no dependency on the execution, fleet, or
//! scheduler crates: those layers *consume* a plan (asking it yes/no
//! questions at their own injection points) and *produce* a
//! [`DegradedReport`] describing what the run survived. A plan parsed
//! from an empty spec injects nothing, so production paths can thread an
//! `Option<&FaultPlan>` through unconditionally.
//!
//! Spec strings are compact `key=value` lists, e.g.
//! `"panic=0.01,ckpt-flip=2,stuck-chip=5"` — see [`FaultSpec::parse`]
//! for the full grammar. The same string works in tests, on the bench
//! CLI (`fleet --inject <spec>`), and in the CI chaos job.
//!
//! The crate also owns the layer those faults are injected into: the
//! [`wire`] primitives every checkpoint format is written with, the
//! [`CheckpointStore`] of fsynced, rotated generations with newest-valid
//! fallback, its write-behind writer thread, and [`drive`] — the one
//! step → write → absorb loop every engine and surface runs through.
//! Each engine's run type implements [`Run`], and its caller hands
//! `drive` one step as a closure over the engine's own supervised step,
//! so this crate needs neither the engines nor their executor.

#![warn(missing_docs)]

mod checkpoint;
mod drive;
mod plan;
mod report;
mod spec;
mod temp;
pub mod wire;

#[doc(hidden)]
pub use checkpoint::expected_generations;
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointFile, CheckpointStore, Written};
pub use drive::{drive, Run};
pub use plan::{CheckpointCorruption, FaultPlan, PoisonKind};
pub use report::{
    CheckpointFallback, DegradedReport, DiskFaultKind, DiskIncident, SensorFaultKind,
    SensorIncident, ShardFailure,
};
pub use spec::{FaultSpec, FaultSpecError};
#[doc(hidden)]
pub use temp::TempDir;
