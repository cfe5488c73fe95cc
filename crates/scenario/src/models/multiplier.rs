//! Aged-multiplier critical-path model: NBTI ΔVth accumulated on the
//! partial-product tree translated into delay slowdown, across
//! per-chip process-variation corners.
//!
//! Each element is one multiplier instance on one chip. The pack names
//! a set of process corners (`slow`/`typical`/`fast`, arbitrary names);
//! instances are assigned to corners by a weighted deterministic hash,
//! and each corner scales both the fresh critical-path delay and the
//! aging rates. The delivered delay is
//! `d0 · (1 + DELAY_PER_MV · ΔVth)`, the usual first-order
//! delay-per-millivolt linearization. Maintenance options are power
//! gating (duty to zero) and operand inversion, which alternates the
//! stressed device of each complementary pair and so halves the
//! effective per-device duty.

use dh_bti::{RecoveryCondition, StressCondition, WearModel};
use dh_units::Seconds;

use super::{
    clamp01, note_failure, recovery_rate_per_hour, recovery_step, stress_rate_per_hour,
    stress_step, EpochCtx, GroupCtx, Rates, DELAY_PER_MV,
};
use crate::pack::Corner;

/// Per-instance duty jitter band around the epoch activity: an
/// instance's utilization is `activity · (1 ± DUTY_JITTER/2)`.
const DUTY_JITTER: f64 = 0.3;

/// The label of the corner draw.
pub(crate) const CORNER: &str = "corner";
/// The label of the duty-jitter draw.
pub(crate) const DUTY: &str = "duty";

/// The corner index an instance lands in: a weighted draw, `unit` being
/// its [`CORNER`] draw from the group's deterministic hash stream.
pub(crate) fn corner_of(corners: &[Corner], unit: f64) -> usize {
    let total: f64 = corners.iter().map(|c| c.weight).sum();
    let mut target = unit * total;
    for (i, c) in corners.iter().enumerate() {
        target -= c.weight;
        if target < 0.0 {
            return i;
        }
    }
    corners.len() - 1
}

/// An instance's utilization scale (applied to the epoch activity) from
/// its [`DUTY`] draw.
#[inline(always)]
pub(crate) fn duty_scale(unit: f64) -> f64 {
    1.0 + DUTY_JITTER * (unit - 0.5)
}

/// The effective stressed duty of an instance in one epoch.
#[inline(always)]
fn effective_duty(scale: f64, ctx: EpochCtx) -> f64 {
    if ctx.gated {
        return 0.0;
    }
    let duty = clamp01(scale * ctx.activity);
    if ctx.inverted {
        duty * 0.5
    } else {
        duty
    }
}

/// Scalar reference unit: one multiplier instance as a [`WearModel`].
#[derive(Debug, Clone)]
pub struct AgedMultiplier {
    /// Utilization scale on the epoch activity.
    pub duty_scale: f64,
    /// Combined rate multiplier: process variation × corner rate scale.
    pub variation: f64,
    /// Fresh critical-path delay at this instance's corner, ps.
    pub fresh_delay_ps: f64,
    r: f64,
    p: f64,
}

impl AgedMultiplier {
    /// A fresh instance.
    pub fn new(duty_scale: f64, variation: f64, fresh_delay_ps: f64) -> Self {
        Self {
            duty_scale,
            variation,
            fresh_delay_ps,
            r: 0.0,
            p: 0.0,
        }
    }

    /// The instance the store would build at `(ctx, rank)` — the
    /// reference path for the columnar proptests.
    pub fn from_group(ctx: GroupCtx, base_delay_ps: f64, corners: &[Corner], rank: u64) -> Self {
        let corner = &corners[corner_of(corners, ctx.draw(CORNER, rank))];
        Self::new(
            duty_scale(ctx.draw(DUTY, rank)),
            ctx.variation(rank) * corner.rate_scale,
            base_delay_ps * corner.delay_scale,
        )
    }

    /// The delivered critical-path delay after aging, ps.
    pub fn delay_ps(&self) -> f64 {
        self.fresh_delay_ps * (1.0 + DELAY_PER_MV * (self.r + self.p))
    }

    /// Integrates one scenario epoch through the [`WearModel`] calls.
    pub fn run_epoch(
        &mut self,
        ctx: EpochCtx,
        stress: StressCondition,
        recovery: RecoveryCondition,
    ) {
        let duty = effective_duty(self.duty_scale, ctx);
        self.stress(Seconds::from_hours(ctx.epoch_hours * duty), stress);
        self.recover(
            Seconds::from_hours(ctx.epoch_hours * (1.0 - duty)),
            recovery,
        );
    }
}

impl WearModel for AgedMultiplier {
    fn stress(&mut self, dt: Seconds, cond: StressCondition) {
        let rate = stress_rate_per_hour(cond.gate_voltage.value(), cond.temperature.value())
            * self.variation;
        (self.r, self.p) = stress_step(self.r, self.p, rate, dt.as_hours());
    }

    fn recover(&mut self, dt: Seconds, cond: RecoveryCondition) {
        let rate = recovery_rate_per_hour(cond.reverse_bias().value(), cond.temperature.value())
            * self.variation;
        self.r = recovery_step(self.r, rate, dt.as_hours());
    }

    fn delta_vth_mv(&self) -> f64 {
        self.r + self.p
    }

    fn permanent_mv(&self) -> f64 {
        self.p
    }
}

dh_simd::dispatch! {
    /// One epoch over a shard of multiplier instances — the columnar
    /// twin of [`AgedMultiplier::run_epoch`]. Each rate is the group's,
    /// times the instance's variation (its corner's rate scale included).
    pub(crate) fn multiplier_epoch_kernel(
        duty_scale: &[f64],
        variation: &[f64],
        rates: Rates,
        r: &mut [f64],
        p: &mut [f64],
        failed: &mut [u64],
        ctx: EpochCtx,
    ) {
        let recovery = rates.recovery_at(ctx);
        for i in 0..r.len() {
            let duty = effective_duty(duty_scale[i], ctx);
            let (rate_s, rate_r) = (rates.stress * variation[i], recovery * variation[i]);
            let (nr, np) = stress_step(r[i], p[i], rate_s, ctx.epoch_hours * duty);
            let nr = recovery_step(nr, rate_r, ctx.epoch_hours * (1.0 - duty));
            r[i] = nr;
            p[i] = np;
            note_failure(&mut failed[i], nr + np, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::VictimStore;
    use crate::pack::BlockModel;

    fn corners() -> Vec<Corner> {
        vec![
            Corner {
                name: "slow".into(),
                weight: 0.2,
                delay_scale: 1.15,
                rate_scale: 1.3,
            },
            Corner {
                name: "typical".into(),
                weight: 0.6,
                delay_scale: 1.0,
                rate_scale: 1.0,
            },
            Corner {
                name: "fast".into(),
                weight: 0.2,
                delay_scale: 0.9,
                rate_scale: 0.8,
            },
        ]
    }

    fn group() -> GroupCtx {
        GroupCtx {
            seed: 19,
            group_index: 0,
            vdd_v: 1.0,
            temperature_k: 368.15,
            variability: 0.05,
            maintenance_bias_v: 0.3,
        }
    }

    #[test]
    fn corner_assignment_tracks_weights() {
        let g = group();
        let cs = corners();
        let mut counts = [0usize; 3];
        for rank in 0..10_000 {
            counts[corner_of(&cs, g.draw(CORNER, rank))] += 1;
        }
        assert!(
            (counts[0] as f64 / 10_000.0 - 0.2).abs() < 0.02,
            "{counts:?}"
        );
        assert!(
            (counts[1] as f64 / 10_000.0 - 0.6).abs() < 0.02,
            "{counts:?}"
        );
    }

    #[test]
    fn aging_slows_the_delivered_delay() {
        let g = group();
        let stress = g.stress_condition();
        let (passive, _) = g.recovery_conditions();
        for rank in 0..32 {
            let mut unit = AgedMultiplier::from_group(g, 800.0, &corners(), rank);
            let fresh_ps = unit.delay_ps();
            for e in 1..=36 {
                let ctx = EpochCtx {
                    epoch_hours: 730.0,
                    activity: 0.8,
                    inverted: false,
                    gated: false,
                    active_recovery: false,
                    fail_threshold_mv: 80.0,
                    epoch: e,
                };
                unit.run_epoch(ctx, stress, passive);
            }
            assert!(unit.delay_ps() > fresh_ps, "instance {rank}");
        }
    }

    #[test]
    fn store_matches_the_wear_model_reference() {
        let g = group();
        let cs = corners();
        let model = BlockModel::AgedMultiplier {
            base_delay_ps: 650.0,
            corners: cs.clone(),
        };
        let mut store = VictimStore::build(&model, g, &[], 17, 29);
        let stress = g.stress_condition();
        let (passive, active) = g.recovery_conditions();
        let mut units: Vec<AgedMultiplier> = (0..29)
            .map(|k| AgedMultiplier::from_group(g, 650.0, &cs, 17 + k))
            .collect();
        for e in 1..=22 {
            let ctx = EpochCtx {
                epoch_hours: 650.0,
                activity: 0.75,
                inverted: e % 6 == 0,
                gated: e == 11,
                active_recovery: e % 6 == 0,
                fail_threshold_mv: 70.0,
                epoch: e,
            };
            store.step_epoch(ctx);
            for unit in &mut units {
                unit.run_epoch(
                    ctx,
                    stress,
                    if ctx.active_recovery { active } else { passive },
                );
            }
        }
        for (i, unit) in units.iter().enumerate() {
            let err = (store.metric(i) - unit.delta_vth_mv()).abs();
            assert!(err <= 1e-12, "instance {i}: {err:e}");
        }
    }
}
