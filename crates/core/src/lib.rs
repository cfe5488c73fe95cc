//! # Deep Healing
//!
//! A Rust reproduction of Guo & Stan, *"Deep Healing: Ease the BTI and EM
//! Wearout Crisis by Activating Recovery"* (2017).
//!
//! The paper demonstrates that the two dominant wearout mechanisms of
//! nanoscale VLSI — **Bias Temperature Instability** (transistors) and
//! **Electromigration** (interconnect) — can be *actively healed*:
//! reversing the stress direction (negative gate bias / reverse current)
//! **activates** recovery, elevated temperature **accelerates** it, and
//! *in-time scheduled* recovery eliminates the otherwise-permanent wearout
//! component. It proposes assist circuitry and system-level scheduling
//! that exploit this to shrink wearout guardbands.
//!
//! This workspace implements every layer of that story:
//!
//! | crate | contents |
//! |---|---|
//! | [`units`] | physical-quantity newtypes, constants, time series |
//! | [`simd`] | batched `exp(−x)`/`1−exp(−x)` kernels with runtime AVX-512/AVX2/scalar dispatch |
//! | [`bti`] | BTI models: analytic universal relaxation + CET trap ensemble (Table I, Fig. 4) |
//! | [`em`] | EM models: Korhonen stress PDE, void growth/healing, Black statistics (Figs. 5–7) |
//! | [`thermal`] | thermal chamber and RC floorplan grid (dark-silicon healing) |
//! | [`circuit`] | MOSFET, ring oscillators, the three-mode assist circuitry (Figs. 8–10) |
//! | [`pdn`] | layered PDN mesh, IR-drop solver, EM hazard maps (Fig. 11) |
//! | [`sched`] | workloads, sensors, recovery policies, lifetime simulation (Fig. 12) |
//! | [`fleet`] | fleet-scale population simulation: shards, streaming statistics, checkpoint/resume |
//! | [`fault`] | deterministic fault injection and degraded-run reporting (chaos testing) |
//!
//! The [`experiments`] module packages each of the paper's tables and
//! figures as a one-call reproduction with the paper's claims about it;
//! the `deep-healing` binary prints them (`deep-healing all`), and
//! `EXPERIMENTS.md` records paper-vs-measured.
//!
//! # Quick start
//!
//! ```
//! use deep_healing::experiments::{self, Reproduction};
//!
//! // Reproduce Table I (BTI recovery percentages under 4 conditions).
//! let table1 = experiments::table1();
//! // Condition 4 (110 °C, −0.3 V): the paper measured 72.4 %.
//! assert!((table1.rows[3].simulated_measurement - 72.4).abs() < 2.0);
//! println!("{}", table1.render());
//! assert!(table1.claims().iter().all(|c| c.holds));
//! ```

#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(v > 0.0)` deliberately catches NaN
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod guardband;
pub mod rig;

pub use dh_bti as bti;
pub use dh_circuit as circuit;
pub use dh_em as em;
pub use dh_fault as fault;
pub use dh_fleet as fleet;
pub use dh_obs as obs;
pub use dh_pdn as pdn;
pub use dh_sched as sched;
pub use dh_simd as simd;
pub use dh_thermal as thermal;
pub use dh_units as units;

/// Commonly used items for downstream code.
pub mod prelude {
    pub use dh_bti::{
        AnalyticBtiModel, BtiDevice, RecoveryCondition, StressCondition, TrapEnsemble,
    };
    pub use dh_circuit::{AssistCircuit, Mode, RingOscillator};
    pub use dh_em::{black::BlackModel, network::EmNetwork, EmWire, WireEnd};
    pub use dh_fleet::{run_fleet, FleetConfig, FleetPolicy, FleetReport, MaintenanceBudget};
    pub use dh_pdn::{PdnConfig, PdnMesh, Tower};
    pub use dh_sched::{
        run_lifetime, LifetimeConfig, ManyCoreSystem, MetricsReport, Policy, SystemConfig,
    };
    pub use dh_thermal::{GridConfig, ThermalChamber, ThermalGrid};
    pub use dh_units::{
        Celsius, CurrentDensity, Fraction, Kelvin, Ohms, Seconds, TimeSeries, Volts,
    };
}
