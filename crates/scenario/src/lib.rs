//! `dh-scenario`: data-driven wearout scenarios.
//!
//! The earlier crates model one device ([`dh_bti`]) and one synthetic
//! fleet (`dh-fleet`); this crate closes the loop with the paper's
//! *victim circuits*: what actually wears out in a deployed design, and
//! what the recovery knobs buy for each. It ships three victim models —
//!
//! * [`SramDecoder`] — SRAM row decoders aging under the inverse of the
//!   address-access histogram, healed by idle-row inversion;
//! * [`WeightMemory`] — DNN weight banks aging under the stored weight
//!   distribution (DNN-Life style), healed by periodic weight
//!   inversion; and
//! * [`AgedMultiplier`] — multiplier critical paths slowing down with
//!   NBTI ΔVth across process corners, healed by power gating —
//!
//! each as a scalar [`dh_bti::WearModel`] reference plus a
//! [`dh_simd::dispatch!`]-compiled epoch kernel (scalar, AVX2 and
//! AVX-512 bodies, bit-identical) that steps the one columnar
//! [`VictimStore`].
//!
//! Experiments are described by **scenario packs**: JSON documents
//! ([`ScenarioPack`]) naming the block mix, workload trace, maintenance
//! policy, and epoch grid. A [`ScenarioRegistry`] serves three built-in
//! packs and any `--scenario-dir` overrides; [`ScenarioRun`] integrates
//! a pack deterministically (bit-identical at any thread count),
//! checkpoints mid-run, and reports a fingerprint CI can pin. Every run is
//! supervised: shard panics, poisoned samples, stuck sensors, checkpoint
//! corruption and disk faults, real or injected by a
//! [`dh_fault::FaultPlan`], are contained by retry, quarantine, and the
//! multi-generation fallback of the shared [`dh_fault::CheckpointStore`],
//! so the run completes with a [`dh_fault::DegradedReport`] instead of
//! aborting ([`run_pack_supervised`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod models;
mod pack;
mod registry;
mod run;

pub use error::ScenarioError;
pub use models::{AgedMultiplier, EpochCtx, GroupCtx, SramDecoder, VictimStore, WeightMemory};
pub use pack::{
    BlockGroup, BlockModel, Corner, Maintenance, MaintenancePolicy, ScenarioPack, Workload,
};
pub use registry::{load_pack_file, PackSource, RegisteredPack, ScenarioRegistry};
pub use run::{
    run_pack, run_pack_supervised, GroupReport, Progress, ScenarioCheckpointStore, ScenarioReport,
    ScenarioRun,
};
