//! Fleet-scale lifetime simulation: the deployment-management layer on top
//! of the per-device physics.
//!
//! The paper's system-level claim is distributional — scheduled BTI/EM
//! active recovery shrinks the wearout guardband *across a population* of
//! chips — and a datacenter operator acts on that distribution under a
//! maintenance budget: only so many machines may be pulled into a recovery
//! window at once. This crate simulates 10⁴–10⁶ heterogeneous chip
//! instances end-to-end to make those statements quantitative:
//!
//! * [`FleetConfig`] describes the population: size, per-chip
//!   process/temperature/workload variation (drawn deterministically from
//!   per-chip RNG streams, so chip *i* is the same chip at any shard size
//!   or thread count), the maintenance-group geometry, and the recovery
//!   policy mix.
//! * The population is partitioned into shards executed in parallel by
//!   `dh-exec`; shard results are folded **in canonical chip order** by
//!   [`dh_exec::par_map_fold`] into streaming one-pass aggregates
//!   ([`stats::StreamingMoments`] and the P² quantile estimators of
//!   [`stats::P2Quantile`]), so memory stays O(shards in flight), never
//!   O(devices), and the final [`FleetReport`] is bit-identical however
//!   the work was partitioned.
//! * [`checkpoint::Snapshot`] is a versioned, hand-rolled binary image of
//!   the shard cursor plus the aggregate state, written at shard
//!   boundaries into a [`dh_fault::CheckpointStore`]: a million-device
//!   run can be killed and resumed with a byte-identical final report.
//! * Every run is supervised ([`run_fleet_supervised`]): shard panics are
//!   retried and quarantined, non-finite samples rejected, bad wear
//!   sensors degraded to conservative always-heal, and corrupt checkpoint
//!   generations fallen back over — the run completes with a
//!   [`dh_fault::DegradedReport`] instead of aborting.
//! * [`MaintenanceBudget`] caps how many chips per maintenance group may
//!   enter active recovery each epoch and [`FleetPolicy`] selects which —
//!   a fixed set ([`FleetPolicy::Static`]), a rotating window
//!   ([`FleetPolicy::RoundRobin`]), or the most-degraded survivors
//!   ([`FleetPolicy::WorstFirst`]).
//!
//! ```
//! use dh_fleet::{run_fleet, FleetConfig};
//!
//! let config = FleetConfig {
//!     devices: 2_000,
//!     years: 1.0,
//!     ..FleetConfig::default()
//! };
//! let report = run_fleet(&config).unwrap();
//! assert_eq!(report.guardband.count, 2_000);
//! ```

#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(v > 0.0)` deliberately catches NaN
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod chip;
pub mod error;
pub(crate) mod kernel;
pub mod policy;
pub mod sim;
pub mod stats;
pub(crate) mod store;

pub use checkpoint::Snapshot;
pub use chip::{ChipOutcome, ChipSpec, VariationModel, SENSOR_STALE_EPOCHS};
pub use dh_fault::CheckpointStore;
pub use error::FleetError;
pub use policy::{FleetPolicy, MaintenanceBudget};
pub use sim::{
    run_fleet, run_fleet_reference, run_fleet_supervised, FleetConfig, FleetProgress, FleetReport,
    FleetRun,
};
pub use stats::{NonFinite, P2Quantile, StreamingMoments, StreamingSummary, SummaryStats};
pub use store::StoreView;

/// Streams the guardbands of a Monte-Carlo seed sweep through the same
/// one-pass aggregation the fleet engine uses, so per-seed
/// ([`dh_sched::lifetime::monte_carlo_guardband`]) and per-chip (fleet)
/// populations are summarized identically.
pub fn summarize_guardbands(outcomes: &[dh_sched::SeedOutcome]) -> SummaryStats {
    let mut summary = StreamingSummary::new();
    for o in outcomes {
        summary.push(o.guardband);
    }
    summary.finalize()
}

#[cfg(test)]
mod tests {
    use dh_sched::lifetime::monte_carlo_guardband;
    use dh_sched::{LifetimeConfig, Policy};

    #[test]
    fn seed_sweeps_flow_through_the_fleet_aggregation_path() {
        let config = LifetimeConfig {
            years: 0.05,
            sample_every: 4,
            ..LifetimeConfig::default()
        };
        let outcomes = monte_carlo_guardband(&config, Policy::PassiveIdle, 0..6).unwrap();
        let stats = super::summarize_guardbands(&outcomes);
        assert_eq!(stats.count, 6);
        let exact_mean = outcomes.iter().map(|o| o.guardband).sum::<f64>() / 6.0;
        assert!((stats.mean - exact_mean).abs() < 1e-12);
        assert!(stats.min <= stats.p50 && stats.p50 <= stats.max);
    }
}
