//! Bias Temperature Instability (BTI) wearout and **active recovery** models.
//!
//! This crate reproduces the BTI half of Guo & Stan, *"Deep Healing: Ease the
//! BTI and EM Wearout Crisis by Activating Recovery"* (2017). The paper
//! demonstrates, on 40 nm FPGA ring oscillators, that BTI recovery can be
//!
//! * **activated** by applying a negative gate–source voltage during idle
//!   periods (reversing the stress direction), and
//! * **accelerated** by elevated temperature,
//!
//! and that **in-time scheduled recovery eliminates the permanent wearout
//! component** that otherwise accumulates (the paper's Fig. 4).
//!
//! Two cross-validated models are provided, mirroring the paper's Table I
//! "Measurement" and "Model" columns:
//!
//! * [`analytic::AnalyticBtiModel`] — a universal-relaxation (Kaczer-style)
//!   analytic model whose four calibration constants are solved in closed
//!   form from Table I ([`calibration::TableOneTargets`]).
//! * [`cet::TrapEnsemble`] — a capture–emission-time (CET) map Monte-Carlo
//!   trap ensemble; the emission-time distribution is fitted so that the
//!   ensemble reproduces the measured recovery percentages, and the
//!   heavy-tailed emission times *are* the permanent component.
//!
//! On top of the models, [`device::BtiDevice`] is a stateful
//! wearout/recovery integrator usable by circuit- and system-level
//! simulations, and [`schedule`] runs stress-vs-recovery cycling experiments
//! (the paper's Fig. 4).
//!
//! # Quick start
//!
//! ```
//! use dh_bti::analytic::AnalyticBtiModel;
//! use dh_bti::condition::RecoveryCondition;
//! use dh_units::Seconds;
//!
//! let model = AnalyticBtiModel::paper_calibrated();
//! // Table I, condition 4: 110 °C and −0.3 V for 6 h after 24 h stress.
//! let r = model.recovery_fraction(
//!     Seconds::from_hours(24.0),
//!     Seconds::from_hours(6.0),
//!     RecoveryCondition::ACTIVE_ACCELERATED,
//! );
//! assert!((r.as_percent() - 72.7).abs() < 1.0);
//! ```

#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(v > 0.0)` deliberately catches NaN
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ac;
pub mod acceleration;
pub mod analytic;
pub mod calibration;
pub mod cet;
pub mod condition;
pub mod device;
pub mod error;
mod memo;
pub mod schedule;
pub mod variability;
pub mod wear;

pub use analytic::AnalyticBtiModel;
pub use cet::TrapEnsemble;
pub use condition::{RecoveryCondition, StressCondition};
pub use device::BtiDevice;
pub use error::BtiError;
pub use wear::WearModel;
