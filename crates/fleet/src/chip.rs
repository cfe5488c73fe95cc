//! The per-chip wear model the fleet engine steps 10⁴–10⁶ times over.
//!
//! A fleet chip is deliberately lighter than a full
//! `dh_sched::ManyCoreSystem`: one paper-calibrated analytic
//! [`BtiDevice`] stands in for the chip's critical path and a scalar
//! Miner's-rule accumulator (rate set by the calibrated Black model)
//! stands in for its worst EM wire — the same physics the system layer
//! resolves per core, collapsed to per chip so a million instances step
//! in seconds. Chip-to-chip heterogeneity enters through
//! [`ChipSpec::draw`]: process corner, EM current-density corner,
//! placement temperature, and utilization are drawn from the chip's own
//! RNG stream `(seed, "fleet/chip", index)`, so chip *i* is the **same
//! chip** at any shard size, thread count, or resume point.

use dh_bti::{BtiDevice, RecoveryCondition, StressCondition};
use dh_circuit::RingOscillator;
use dh_em::black::BlackModel;
use dh_fault::SensorFaultKind;
use dh_units::rng::{standard_normal, StreamSeed};
use dh_units::{CurrentDensity, Fraction, Kelvin, Seconds, Volts};

/// The per-chip RNG stream label; combined with the fleet seed and the
/// chip index this fully determines a chip's identity.
pub(crate) const CHIP_STREAM: &str = "fleet/chip";

/// Epochs of bit-identical (or missing) readings before a chip's wear
/// sensor is declared bad and the scheduler stops trusting it. Healthy
/// chips re-measure a continuously evolving score every epoch, so a
/// handful of exact repeats is diagnostic, not coincidence.
pub const SENSOR_STALE_EPOCHS: u32 = 4;

/// Chip-to-chip variation knobs (lognormal corners, Gaussian placement
/// temperature, clamped-Gaussian utilization).
#[derive(Debug, Clone, PartialEq)]
pub struct VariationModel {
    /// σ of the lognormal BTI wear-rate corner (multiplies effective
    /// stress time; ~0.08 ⇒ ±8 % process spread).
    pub process_sigma: f64,
    /// σ of the lognormal EM damage-rate corner (void-growth spread is
    /// famously wide; the paper's population fits use σ ≈ 0.5).
    pub em_sigma: f64,
    /// σ of the Gaussian placement/ambient temperature offset, °C
    /// (hot-aisle vs cold-aisle spread).
    pub temp_sigma_c: f64,
    /// Mean chip utilization (fraction of each epoch spent executing).
    pub utilization_mean: f64,
    /// σ of the Gaussian utilization spread (clamped to [0.05, 1]).
    pub utilization_sigma: f64,
}

impl Default for VariationModel {
    fn default() -> Self {
        Self {
            process_sigma: 0.08,
            em_sigma: 0.5,
            temp_sigma_c: 8.0,
            utilization_mean: 0.6,
            utilization_sigma: 0.15,
        }
    }
}

/// One chip's identity: everything that distinguishes it from its fleet
/// siblings, drawn deterministically from its index.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Global chip index in `0..devices`.
    pub index: u64,
    /// Lognormal BTI wear-rate corner (1 = typical).
    pub wear_factor: f64,
    /// Lognormal EM damage-rate corner (1 = typical).
    pub em_factor: f64,
    /// Operating temperature (base + placement offset).
    pub temperature: Kelvin,
    /// Fraction of each epoch this chip spends executing.
    pub utilization: Fraction,
}

impl ChipSpec {
    /// Draws chip `index`'s identity from its dedicated RNG stream.
    ///
    /// The four draws happen in a fixed order from a stream that no other
    /// chip shares, which is what makes every partitioning of the fleet
    /// produce bit-identical chips. This is the per-chip oracle: the
    /// engine draws a whole maintenance group at once in stage passes
    /// (`ChipStore::reset`), over the same Box–Muller halves, and a test
    /// pins the two together bit for bit.
    pub fn draw(seed: u64, index: u64, base_temperature: Kelvin, v: &VariationModel) -> Self {
        let mut rng = StreamSeed::new(seed, CHIP_STREAM).rng(index);
        let wear_factor = (v.process_sigma * standard_normal(&mut rng)).exp();
        let em_factor = (v.em_sigma * standard_normal(&mut rng)).exp();
        let temperature =
            Kelvin::new(base_temperature.value() + v.temp_sigma_c * standard_normal(&mut rng));
        let utilization = Fraction::clamped(
            (v.utilization_mean + v.utilization_sigma * standard_normal(&mut rng)).max(0.05),
        );
        Self {
            index,
            wear_factor,
            em_factor,
            temperature,
            utilization,
        }
    }
}

/// Run-wide constants every chip steps against, hoisted out of the hot
/// loop (the ring oscillator and Black model are identical across chips;
/// only the operating point varies).
#[derive(Debug)]
pub(crate) struct ChipContext {
    pub ro: RingOscillator,
    pub fresh_hz: f64,
    pub black: BlackModel,
    pub epoch: Seconds,
    /// Deep-recovery time inside a healing epoch.
    pub heal_time: Seconds,
    pub vdd: Volts,
    pub recovery_bias: Volts,
    pub j_local: CurrentDensity,
    /// Miner's-rule wear factor while current reversal runs:
    /// `(1 − d) − η·d` (negative duty share actively heals).
    pub em_wear_heal: f64,
    pub em_pinned_floor: f64,
    pub fail_guardband: f64,
}

/// One chip's live state while its maintenance group steps through the
/// lifetime.
#[derive(Debug, Clone)]
pub(crate) struct ChipState {
    pub spec: ChipSpec,
    device: BtiDevice,
    stress_cond: StressCondition,
    passive_cond: RecoveryCondition,
    deep_cond: RecoveryCondition,
    /// Miner's-rule damage added by one normal epoch.
    em_normal_delta: f64,
    /// Miner's-rule damage added by the run fraction of a healing epoch.
    em_heal_delta: f64,
    pub em_damage: f64,
    em_peak: f64,
    /// Worst frequency degradation observed so far (the chip's required
    /// guardband).
    pub guardband: f64,
    /// Wear score the worst-first selector ranks by. Under fault
    /// injection this is the *sensed* value (a stuck sensor freezes it);
    /// without a fault plan it is always the true score.
    pub score: f64,
    /// Staleness detection latched this chip's sensor as bad; the
    /// scheduler degrades to conservative always-heal for it.
    pub sensor_flagged: bool,
    /// Consecutive epochs the sensed score repeated bit-exactly (or went
    /// missing).
    stale_epochs: u32,
    /// Bit pattern of the previous sensed score (NaN sentinel before the
    /// first reading, which no finite reading can match).
    last_sensed_bits: u64,
    pub epochs_run: u64,
    pub healed_epochs: u64,
    pub failed_at: Option<Seconds>,
}

impl ChipState {
    pub fn new(spec: ChipSpec, ctx: &ChipContext) -> Self {
        let ttf = ctx.black.median_ttf(ctx.j_local, spec.temperature);
        let util = spec.utilization.value();
        let epoch = ctx.epoch.value();
        let run_heal = epoch - ctx.heal_time.value();
        // Both epoch flavors add a constant damage increment for this chip;
        // precomputing them removes the Black-model transcendentals from
        // the per-epoch path entirely.
        let em_normal_delta = epoch * util / ttf.value() * spec.em_factor;
        let em_heal_delta = run_heal * util / ttf.value() * spec.em_factor * ctx.em_wear_heal;
        Self {
            stress_cond: StressCondition {
                gate_voltage: ctx.vdd,
                temperature: spec.temperature,
            },
            passive_cond: RecoveryCondition {
                gate_voltage: Volts::ZERO,
                temperature: spec.temperature,
            },
            deep_cond: RecoveryCondition {
                gate_voltage: ctx.recovery_bias,
                temperature: spec.temperature,
            },
            spec,
            device: BtiDevice::paper_calibrated(),
            em_normal_delta,
            em_heal_delta,
            em_damage: 0.0,
            em_peak: 0.0,
            guardband: 0.0,
            score: 0.0,
            sensor_flagged: false,
            stale_epochs: 0,
            last_sensed_bits: f64::NAN.to_bits(),
            epochs_run: 0,
            healed_epochs: 0,
            failed_at: None,
        }
    }

    pub fn alive(&self) -> bool {
        self.failed_at.is_none()
    }

    /// Steps one epoch: a healing epoch spends `heal_time` behind the rail
    /// swap (deep BTI recovery) and runs with EM current reversal for the
    /// rest; a normal epoch splits between stress at the chip's
    /// utilization and passive idle recovery.
    pub fn step(&mut self, ctx: &ChipContext, heal: bool) {
        debug_assert!(self.alive());
        let epoch = ctx.epoch.value();
        let run_time = if heal {
            self.healed_epochs += 1;
            self.device.recover(ctx.heal_time, self.deep_cond);
            self.em_damage += self.em_heal_delta;
            epoch - ctx.heal_time.value()
        } else {
            self.em_damage += self.em_normal_delta;
            epoch
        };
        let stress_time = run_time * self.spec.utilization.value();
        // The process corner scales effective stress time: a fast-aging
        // corner accumulates wearout as if it had run longer.
        self.device.stress(
            Seconds::new(stress_time * self.spec.wear_factor),
            self.stress_cond,
        );
        let idle_time = run_time - stress_time;
        if idle_time > 0.0 {
            self.device
                .recover(Seconds::new(idle_time), self.passive_cond);
        }

        // Pinned-floor clamp: healing cannot reverse damage below a fixed
        // fraction of the worst damage ever reached (voids re-nucleate).
        self.em_peak = self.em_peak.max(self.em_damage);
        let floor = ctx.em_pinned_floor * self.em_peak;
        self.em_damage = self.em_damage.clamp(floor, 1.0);

        let degradation = 1.0 - ctx.ro.frequency(self.device.delta_vth_mv()).value() / ctx.fresh_hz;
        self.guardband = self.guardband.max(degradation);
        self.score = degradation + self.em_damage;
        self.epochs_run += 1;
        if self.em_damage >= 1.0 || degradation >= ctx.fail_guardband {
            self.failed_at = Some(Seconds::new(self.epochs_run as f64 * epoch));
        }
    }

    /// The score the worst-first selector ranks this chip by: a chip
    /// whose sensor has been flagged ranks worst-of-all, so the
    /// scheduler heals it every epoch rather than silently skipping a
    /// chip it can no longer see (conservative degradation).
    pub(crate) fn rank_score(&self) -> f64 {
        if self.sensor_flagged {
            f64::INFINITY
        } else {
            self.score
        }
    }

    /// Re-reads this chip's wear sensor after an epoch step, applying
    /// `fault` and running staleness detection. Returns `true` on the
    /// epoch the sensor is first flagged as bad.
    ///
    /// Only called when a fault plan is active; fault-free runs keep
    /// [`ChipState::step`]'s exact score and never enter this path, so
    /// their schedules are byte-identical to builds without injection.
    pub(crate) fn sense(&mut self, fault: Option<SensorFaultKind>) -> bool {
        let reading = match fault {
            None | Some(SensorFaultKind::Noisy(_)) => self.score,
            // A latched ring-oscillator monitor reads "fresh" forever.
            Some(SensorFaultKind::Stuck) => 0.0,
            Some(SensorFaultKind::Dropped) => f64::NAN,
        };
        let stale = !reading.is_finite() || reading.to_bits() == self.last_sensed_bits;
        self.stale_epochs = if stale { self.stale_epochs + 1 } else { 0 };
        self.last_sensed_bits = reading.to_bits();
        if reading.is_finite() {
            self.score = reading;
        }
        if !self.sensor_flagged && self.stale_epochs >= SENSOR_STALE_EPOCHS {
            self.sensor_flagged = true;
            return true;
        }
        false
    }

    pub fn outcome(&self) -> ChipOutcome {
        ChipOutcome {
            index: self.spec.index,
            guardband: self.guardband,
            ttf: self.failed_at,
            epochs_run: self.epochs_run,
            healed_epochs: self.healed_epochs,
        }
    }
}

/// What one chip contributes to the fleet aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipOutcome {
    /// Global chip index.
    pub index: u64,
    /// The frequency guardband this chip required over its life.
    pub guardband: f64,
    /// Time to failure (EM damage reached 1 or degradation crossed the
    /// failure threshold); `None` if the chip survived the horizon
    /// (censored).
    pub ttf: Option<Seconds>,
    /// Epochs actually stepped (short of the horizon when failed).
    pub epochs_run: u64,
    /// Epochs this chip was granted a maintenance slot.
    pub healed_epochs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_specs_are_a_pure_function_of_seed_and_index() {
        let v = VariationModel::default();
        let base = Kelvin::new(333.15);
        let a = ChipSpec::draw(42, 17, base, &v);
        let b = ChipSpec::draw(42, 17, base, &v);
        assert_eq!(a, b);
        let c = ChipSpec::draw(42, 18, base, &v);
        assert_ne!(a.wear_factor.to_bits(), c.wear_factor.to_bits());
        let d = ChipSpec::draw(43, 17, base, &v);
        assert_ne!(a.wear_factor.to_bits(), d.wear_factor.to_bits());
    }

    #[test]
    fn variation_spreads_are_centered_where_configured() {
        let v = VariationModel::default();
        let base = Kelvin::new(333.15);
        let n = 2000;
        let mut wear = 0.0;
        let mut util = 0.0;
        for i in 0..n {
            let s = ChipSpec::draw(7, i, base, &v);
            wear += s.wear_factor.ln();
            util += s.utilization.value();
            assert!(s.utilization.value() >= 0.05);
        }
        assert!(
            (wear / n as f64).abs() < 0.02,
            "ln wear mean {}",
            wear / n as f64
        );
        assert!(
            (util / n as f64 - v.utilization_mean).abs() < 0.02,
            "util mean {}",
            util / n as f64
        );
    }
}
