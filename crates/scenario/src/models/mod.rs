//! The three scenario victim models and the physics they share.
//!
//! Each model's math exists twice:
//!
//! * a **scalar unit** (one decoder row, one weight-memory bank, one
//!   multiplier instance) implementing [`dh_bti::WearModel`] — the
//!   readable reference the property tests integrate element by
//!   element; and
//! * an **epoch kernel** compiled through [`dh_simd::dispatch!`] that
//!   steps a shard of elements in the one columnar [`VictimStore`], so
//!   the batch engine gets the auto-vectorized path (eight `f64` lanes
//!   under AVX-512, four under AVX2) with the crate's usual bit-identity
//!   contract across the scalar and vector bodies. The store holds `(r, p)`
//!   per stressed device for every model; a model adds only its
//!   per-element duty and rate draw and its kernel's duty rule.
//!
//! The shared physics is the paper's recoverable/permanent BTI split
//! reduced to an epoch-granular form: under stress the total shift
//! relaxes toward a saturated ceiling with a first-order capture rate
//! (voltage-cubed, Arrhenius in temperature), a fixed fraction of every
//! captured increment locking in permanently; under recovery the
//! recoverable part decays exponentially, faster when the maintenance
//! policy applies a reverse gate bias (the paper's *active recovery*).

pub mod multiplier;
pub mod sram;
mod store;
pub mod weight;

pub use multiplier::AgedMultiplier;
pub use sram::SramDecoder;
pub(crate) use store::Saved;
pub use store::VictimStore;
pub use weight::WeightMemory;

use dh_fault::wire::{fnv1a, fnv1a_u64, FNV_OFFSET};

/// Boltzmann constant in eV/K.
const BOLTZMANN_EV: f64 = 8.617_333_262e-5;
/// Arrhenius reference temperature: rates are calibrated at 300 K.
const T_REF_K: f64 = 300.0;
/// Reference gate overdrive for the voltage-cubed stress law.
const V_REF: f64 = 0.9;
/// Activation energy of trap capture (stress), eV.
const EA_STRESS_EV: f64 = 0.08;
/// Activation energy of trap emission (recovery), eV.
const EA_RECOVERY_EV: f64 = 0.12;
/// Trap-capture rate at `(V_REF, T_REF_K)`, per hour of full-duty stress.
const STRESS_RATE_PER_HOUR: f64 = 4.0e-5;
/// Detrap rate at `T_REF_K` under 0 V, per hour.
const RECOVERY_RATE_PER_HOUR: f64 = 2.0e-3;
/// Recovery-rate gain per volt of reverse gate bias (active recovery).
const ACTIVE_GAIN_PER_VOLT: f64 = 4.0;
/// Saturated total |ΔVth| shift, mV.
pub(crate) const DELTA_VTH_MAX_MV: f64 = 120.0;
/// Fraction of each captured increment that locks in permanently.
const PERMANENT_FRACTION: f64 = 0.08;
/// Critical-path delay sensitivity of the aged multiplier, fractional
/// slowdown per mV of |ΔVth|.
pub(crate) const DELAY_PER_MV: f64 = 1.0e-3;

/// Arrhenius acceleration relative to [`T_REF_K`]:
/// `exp(Ea/k · (1/T_ref − 1/T))`. Built on [`dh_simd::exp_neg`] so
/// every rate in the crate flows through the same primitive; the
/// exponent stays far from the underflow clamp for any validated
/// temperature (−55 °C … 225 °C).
#[inline(always)]
fn arrhenius(temperature_k: f64, ea_ev: f64) -> f64 {
    let x = (ea_ev / BOLTZMANN_EV) * (1.0 / T_REF_K - 1.0 / temperature_k);
    let e = dh_simd::exp_neg(x.abs());
    if x >= 0.0 {
        1.0 / e
    } else {
        e
    }
}

/// Trap-capture rate per hour at a gate overdrive and temperature:
/// voltage-cubed, Arrhenius-accelerated.
#[inline(always)]
pub(crate) fn stress_rate_per_hour(gate_v: f64, temperature_k: f64) -> f64 {
    let v = gate_v / V_REF;
    STRESS_RATE_PER_HOUR * v * v * v * arrhenius(temperature_k, EA_STRESS_EV)
}

/// Detrap rate per hour at a reverse gate bias and temperature. A
/// positive reverse bias is the paper's active recovery; zero is
/// conventional passive recovery.
#[inline(always)]
pub(crate) fn recovery_rate_per_hour(reverse_bias_v: f64, temperature_k: f64) -> f64 {
    RECOVERY_RATE_PER_HOUR
        * (1.0 + ACTIVE_GAIN_PER_VOLT * reverse_bias_v.max(0.0))
        * arrhenius(temperature_k, EA_RECOVERY_EV)
}

/// One stress interval: first-order capture toward the saturated shift,
/// with [`PERMANENT_FRACTION`] of the increment locking in. Non-positive
/// durations are no-ops (the `WearModel` contract).
#[inline(always)]
pub(crate) fn stress_step(r: f64, p: f64, rate_per_hour: f64, hours: f64) -> (f64, f64) {
    if hours <= 0.0 {
        return (r, p);
    }
    let grow = (DELTA_VTH_MAX_MV - (r + p)) * dh_simd::one_minus_exp_neg(rate_per_hour * hours);
    (
        r + (1.0 - PERMANENT_FRACTION) * grow,
        p + PERMANENT_FRACTION * grow,
    )
}

/// One recovery interval: exponential decay of the recoverable part.
/// Non-positive durations are no-ops.
#[inline(always)]
pub(crate) fn recovery_step(r: f64, rate_per_hour: f64, hours: f64) -> f64 {
    if hours <= 0.0 {
        return r;
    }
    r * dh_simd::exp_neg(rate_per_hour * hours)
}

/// Clamp into the closed unit interval (duties).
#[inline(always)]
pub(crate) fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// A group's per-hour rates at unit variation, which the epoch kernels
/// scale by each element's variation multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rates {
    /// Trap capture under stress, at the group's gate overdrive.
    pub stress: f64,
    /// Passive recovery, at 0 V.
    pub recovery: f64,
    /// Active recovery, under the maintenance reverse bias.
    pub active: f64,
}

impl Rates {
    /// The rates at the group's operating point.
    pub(crate) fn of(ctx: GroupCtx) -> Self {
        Self {
            stress: stress_rate_per_hour(ctx.vdd_v, ctx.temperature_k),
            recovery: recovery_rate_per_hour(0.0, ctx.temperature_k),
            active: recovery_rate_per_hour(ctx.maintenance_bias_v, ctx.temperature_k),
        }
    }

    /// The recovery rate an epoch runs at: active or passive.
    #[inline(always)]
    pub(crate) fn recovery_at(self, ctx: EpochCtx) -> f64 {
        if ctx.active_recovery {
            self.active
        } else {
            self.recovery
        }
    }
}

/// The per-group constants a store is built from: the pack's block
/// group flattened to raw scalars, plus the scenario seed and the
/// group's position (both feed the deterministic variation hash).
#[derive(Debug, Clone, Copy)]
pub struct GroupCtx {
    /// Scenario seed (packs fix it; the hash stream derives from it).
    pub seed: u64,
    /// Index of the group within the pack's block list.
    pub group_index: u64,
    /// Gate overdrive during stress, volts.
    pub vdd_v: f64,
    /// Operating temperature, kelvin.
    pub temperature_k: f64,
    /// Half-width of the uniform process-variation band (0.1 → ±10 %).
    pub variability: f64,
    /// Reverse gate bias applied during maintenance recovery, volts.
    pub maintenance_bias_v: f64,
}

/// The label of the process-variation draw.
pub(crate) const VARIATION: &str = "variation";

/// A per-element hash stream: FNV-1a over `(seed, label)`, hashed once,
/// so each draw folds only its element index. Draw `index` takes the top
/// 53 bits of `fnv1a(fnv1a(fnv1a(OFFSET, seed), label), index)` as the
/// mantissa of a unit in `[0, 1)`. This is how packs spread process
/// variation, duty jitter, and corner assignment across a population
/// without an RNG stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrawStream(u64);

impl DrawStream {
    fn new(seed: u64, label: &str) -> Self {
        Self(fnv1a(fnv1a_u64(FNV_OFFSET, seed), label.as_bytes()))
    }

    /// The unit draw of element `index`, in `[0, 1)`.
    pub(crate) fn unit(self, index: u64) -> f64 {
        (fnv1a_u64(self.0, index) >> 11) as f64 * 2f64.powi(-53)
    }
}

impl GroupCtx {
    /// The deterministic process-variation multiplier of element
    /// `index`: uniform in `1 ± variability`, drawn from the
    /// `(seed, group)` hash stream.
    pub fn variation(&self, index: u64) -> f64 {
        self.spread(self.stream(VARIATION).unit(index))
    }

    /// The process-variation multiplier of a [`VARIATION`] unit draw.
    pub(crate) fn spread(&self, unit: f64) -> f64 {
        1.0 + self.variability * (2.0 * unit - 1.0)
    }

    /// The group's hash stream for `label`, for a caller that draws many
    /// elements (duty jitter, corner assignment, variation), each label
    /// decorrelating its draws.
    pub(crate) fn stream(&self, label: &str) -> DrawStream {
        DrawStream::new(fnv1a_u64(self.seed, self.group_index), label)
    }

    /// Element `index`'s unit draw in `[0, 1)` from the `label` stream.
    pub(crate) fn draw(&self, label: &str, index: u64) -> f64 {
        self.stream(label).unit(index)
    }

    /// The group's operating point as a [`dh_bti::StressCondition`] —
    /// exact-kelvin, so the scalar reference units see bit-identical
    /// rates to the store columns.
    pub fn stress_condition(&self) -> dh_bti::StressCondition {
        dh_bti::StressCondition {
            gate_voltage: dh_units::Volts::new(self.vdd_v),
            temperature: dh_units::Kelvin::new(self.temperature_k),
        }
    }

    /// The group's `(passive, active)` recovery conditions: 0 V at the
    /// operating temperature, and the maintenance reverse bias at the
    /// same temperature.
    pub fn recovery_conditions(&self) -> (dh_bti::RecoveryCondition, dh_bti::RecoveryCondition) {
        let passive = dh_bti::RecoveryCondition {
            gate_voltage: dh_units::Volts::new(0.0),
            temperature: dh_units::Kelvin::new(self.temperature_k),
        };
        let active = dh_bti::RecoveryCondition {
            gate_voltage: dh_units::Volts::new(-self.maintenance_bias_v),
            temperature: dh_units::Kelvin::new(self.temperature_k),
        };
        (passive, active)
    }
}

/// Scalar per-epoch context for the columnar kernels: everything about
/// "this epoch" that is uniform across a shard, crossing the
/// [`dh_simd::dispatch!`] boundary by value.
#[derive(Debug, Clone, Copy)]
pub struct EpochCtx {
    /// Wall-clock hours in the epoch.
    pub epoch_hours: f64,
    /// Workload activity for the epoch (the cycled trace value).
    pub activity: f64,
    /// Maintenance: duty inversion is in effect this epoch.
    pub inverted: bool,
    /// Maintenance: the block is power-gated this epoch (duty 0).
    pub gated: bool,
    /// Whether recovery runs *active* (reverse-biased) this epoch —
    /// selects the active-rate column over the passive one.
    pub active_recovery: bool,
    /// Failure threshold on the model's ΔVth metric, mV.
    pub fail_threshold_mv: f64,
    /// 1-based epoch number recorded on a first threshold crossing.
    pub epoch: u64,
}

/// Records a first threshold crossing: `failed` keeps the 1-based epoch
/// of the first crossing, 0 meaning still alive.
#[inline(always)]
pub(crate) fn note_failure(failed: &mut u64, metric_mv: f64, ctx: EpochCtx) {
    if *failed == 0 && metric_mv >= ctx.fail_threshold_mv {
        *failed = ctx.epoch;
    }
}

#[cfg(test)]
mod tests {
    /// The per-draw hash the hoisted [`super::DrawStream`] must equal:
    /// `(seed, label, index)` through FNV-1a in one pass.
    fn unit_hash(seed: u64, label: &str, index: u64) -> f64 {
        use dh_fault::wire::{fnv1a, fnv1a_u64, FNV_OFFSET};
        let h = fnv1a_u64(fnv1a(fnv1a_u64(FNV_OFFSET, seed), label.as_bytes()), index);
        (h >> 11) as f64 * 2f64.powi(-53)
    }

    #[test]
    fn unit_hash_is_deterministic_and_in_range() {
        let ctx = |seed, group_index| super::GroupCtx {
            seed,
            group_index,
            vdd_v: 0.9,
            temperature_k: 358.15,
            variability: 0.1,
            maintenance_bias_v: 0.3,
        };
        for (seed, group) in [(42, 0), (42, 3), (7, 1)] {
            let g = ctx(seed, group);
            let group_seed = dh_fault::wire::fnv1a_u64(seed, group);
            for label in ["variation", "duty", "corner", "zero-duty"] {
                let stream = g.stream(label);
                for i in (0..1_000).chain([u64::MAX - 1, u64::MAX]) {
                    let u = stream.unit(i);
                    assert!((0.0..1.0).contains(&u), "u = {u}");
                    assert_eq!(u.to_bits(), unit_hash(group_seed, label, i).to_bits());
                    assert_eq!(u.to_bits(), g.draw(label, i).to_bits());
                }
            }
        }
        // Different labels and seeds decorrelate.
        assert_ne!(unit_hash(42, "rate", 7), unit_hash(42, "duty", 7));
        assert_ne!(unit_hash(42, "rate", 7), unit_hash(43, "rate", 7));
    }

    use super::*;

    #[test]
    fn arrhenius_is_one_at_reference_and_monotone() {
        assert!((arrhenius(T_REF_K, EA_STRESS_EV) - 1.0).abs() < 1e-12);
        let cold = arrhenius(233.15, EA_STRESS_EV);
        let hot = arrhenius(398.15, EA_STRESS_EV);
        assert!(cold < 1.0, "cold factor {cold}");
        assert!(hot > 1.0, "hot factor {hot}");
        assert!((arrhenius(398.15, 0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn stress_saturates_and_recovery_decays() {
        let (mut r, mut p) = (0.0, 0.0);
        for _ in 0..100_000 {
            (r, p) = stress_step(r, p, 1e-3, 730.0);
        }
        assert!(r + p <= DELTA_VTH_MAX_MV * (1.0 + 1e-12));
        assert!(r + p > 0.99 * DELTA_VTH_MAX_MV);
        let r2 = recovery_step(r, 1e-2, 730.0);
        assert!(r2 < r && r2 > 0.0);
        // No-op contract on non-positive durations.
        assert_eq!(stress_step(r, p, 1e-3, 0.0), (r, p));
        assert_eq!(recovery_step(r, 1e-2, -1.0), r);
    }

    #[test]
    fn active_recovery_is_faster_than_passive() {
        let passive = recovery_rate_per_hour(0.0, 358.15);
        let active = recovery_rate_per_hour(0.3, 358.15);
        assert!(active > passive * 2.0);
        // A positive gate voltage contributes no activation.
        assert_eq!(recovery_rate_per_hour(-0.2, 358.15), passive);
    }
}
