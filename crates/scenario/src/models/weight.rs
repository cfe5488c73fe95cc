//! DNN weight-memory aging: per-bank BTI stress set by the stored
//! weight distribution, DNN-Life-style.
//!
//! A 6T cell holding a constant bit stresses one pull-up pMOS for as
//! long as the bit is held; which side depends on the bit value. DNN
//! inference weights are effectively static, so a bank's zero-fraction
//! — read from the pack's workload trace — fixes a *complementary* duty
//! pair: side A ages with the zero-duty, side B with the one-duty. The
//! DNN-Life rejuvenation knob is periodic weight inversion (store the
//! complement, flip on read), which swaps the two duties and lets the
//! worn side recover. The failure metric is the worse of the two sides,
//! since either pull-up degrades the cell's static noise margin.

use dh_bti::{RecoveryCondition, StressCondition, WearModel};
use dh_units::Seconds;

use super::{
    clamp01, note_failure, recovery_rate_per_hour, recovery_step, stress_rate_per_hour,
    stress_step, EpochCtx, GroupCtx, Rates,
};

/// The per-epoch stressed-duty pair `(side A, side B)` of a bank.
#[inline(always)]
fn side_duties(zero_duty: f64, ctx: EpochCtx) -> (f64, f64) {
    if ctx.gated {
        return (0.0, 0.0);
    }
    let a = clamp01(zero_duty * ctx.activity);
    let b = clamp01((1.0 - zero_duty) * ctx.activity);
    if ctx.inverted {
        (b, a)
    } else {
        (a, b)
    }
}

/// The label of the zero-fraction jitter draw.
pub(crate) const ZERO_DUTY: &str = "zero-duty";

/// The zero-fraction of bank `rank`: the cycled workload-trace value
/// plus a deterministic per-bank jitter of `± variability / 2`, `unit`
/// being the bank's [`ZERO_DUTY`] draw.
#[inline(always)]
pub(crate) fn bank_zero_duty(ctx: GroupCtx, trace: &[f64], rank: u64, unit: f64) -> f64 {
    let base = if trace.is_empty() {
        0.5
    } else {
        trace[(rank % trace.len() as u64) as usize]
    };
    clamp01(base + ctx.variability * (unit - 0.5))
}

/// Scalar reference unit: one weight-memory bank (its worst cell pair)
/// as a [`WearModel`].
///
/// The trait view addresses side A — the side stressed while a zero is
/// stored — which is the canonical stressed device for trait-level
/// experiments; [`WearModel::delta_vth_mv`] still reports the worse
/// side, matching the store's failure metric.
#[derive(Debug, Clone)]
pub struct WeightMemory {
    /// Fraction of held time this bank stores zeros.
    pub zero_duty: f64,
    /// Process-variation multiplier on both rates.
    pub variation: f64,
    r_a: f64,
    p_a: f64,
    r_b: f64,
    p_b: f64,
}

impl WeightMemory {
    /// A fresh bank with the given zero-duty and variation factor.
    pub fn new(zero_duty: f64, variation: f64) -> Self {
        Self {
            zero_duty,
            variation,
            r_a: 0.0,
            p_a: 0.0,
            r_b: 0.0,
            p_b: 0.0,
        }
    }

    /// The bank the store would build at `(ctx, rank)` — the reference
    /// path for the columnar proptests.
    pub fn from_group(ctx: GroupCtx, trace: &[f64], rank: u64) -> Self {
        let zero_duty = bank_zero_duty(ctx, trace, rank, ctx.draw(ZERO_DUTY, rank));
        Self::new(zero_duty, ctx.variation(rank))
    }

    /// |ΔVth| of the zero-side device, mV.
    pub fn side_a_mv(&self) -> f64 {
        self.r_a + self.p_a
    }

    /// |ΔVth| of the one-side device, mV.
    pub fn side_b_mv(&self) -> f64 {
        self.r_b + self.p_b
    }

    /// Integrates one scenario epoch: each side stresses for its duty
    /// and recovers for the remainder under `recovery`.
    pub fn run_epoch(
        &mut self,
        ctx: EpochCtx,
        stress: StressCondition,
        recovery: RecoveryCondition,
    ) {
        let rate_s = stress_rate_per_hour(stress.gate_voltage.value(), stress.temperature.value())
            * self.variation;
        let rate_r = recovery_rate_per_hour(
            recovery.reverse_bias().value(),
            recovery.temperature.value(),
        ) * self.variation;
        let (duty_a, duty_b) = side_duties(self.zero_duty, ctx);
        (self.r_a, self.p_a) = stress_step(self.r_a, self.p_a, rate_s, ctx.epoch_hours * duty_a);
        self.r_a = recovery_step(self.r_a, rate_r, ctx.epoch_hours * (1.0 - duty_a));
        (self.r_b, self.p_b) = stress_step(self.r_b, self.p_b, rate_s, ctx.epoch_hours * duty_b);
        self.r_b = recovery_step(self.r_b, rate_r, ctx.epoch_hours * (1.0 - duty_b));
    }
}

impl WearModel for WeightMemory {
    fn stress(&mut self, dt: Seconds, cond: StressCondition) {
        let rate = stress_rate_per_hour(cond.gate_voltage.value(), cond.temperature.value())
            * self.variation;
        (self.r_a, self.p_a) = stress_step(self.r_a, self.p_a, rate, dt.as_hours());
    }

    fn recover(&mut self, dt: Seconds, cond: RecoveryCondition) {
        let rate = recovery_rate_per_hour(cond.reverse_bias().value(), cond.temperature.value())
            * self.variation;
        self.r_a = recovery_step(self.r_a, rate, dt.as_hours());
    }

    fn delta_vth_mv(&self) -> f64 {
        self.side_a_mv().max(self.side_b_mv())
    }

    fn permanent_mv(&self) -> f64 {
        if self.side_a_mv() >= self.side_b_mv() {
            self.p_a
        } else {
            self.p_b
        }
    }
}

dh_simd::dispatch! {
    /// One epoch over a shard of weight banks — the columnar twin of
    /// [`WeightMemory::run_epoch`]. Each rate is the group's, times the
    /// bank's variation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn weight_epoch_kernel(
        zero_duty: &[f64],
        variation: &[f64],
        rates: Rates,
        r_a: &mut [f64],
        p_a: &mut [f64],
        r_b: &mut [f64],
        p_b: &mut [f64],
        failed: &mut [u64],
        ctx: EpochCtx,
    ) {
        let recovery = rates.recovery_at(ctx);
        for i in 0..r_a.len() {
            let (duty_a, duty_b) = side_duties(zero_duty[i], ctx);
            let (rate_s, rate_r) = (rates.stress * variation[i], recovery * variation[i]);
            let (na, npa) = stress_step(r_a[i], p_a[i], rate_s, ctx.epoch_hours * duty_a);
            let na = recovery_step(na, rate_r, ctx.epoch_hours * (1.0 - duty_a));
            let (nb, npb) = stress_step(r_b[i], p_b[i], rate_s, ctx.epoch_hours * duty_b);
            let nb = recovery_step(nb, rate_r, ctx.epoch_hours * (1.0 - duty_b));
            r_a[i] = na;
            p_a[i] = npa;
            r_b[i] = nb;
            p_b[i] = npb;
            note_failure(&mut failed[i], (na + npa).max(nb + npb), ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::VictimStore;
    use crate::pack::BlockModel;

    #[test]
    fn skewed_banks_age_one_side_and_inversion_balances() {
        let g = GroupCtx {
            seed: 7,
            group_index: 1,
            vdd_v: 0.9,
            temperature_k: 348.15,
            variability: 0.0,
            maintenance_bias_v: 0.3,
        };
        // All-zeros trace: side A takes all the stress.
        let trace = [0.95];
        let mk = |inverted_every: u64| {
            let mut s = VictimStore::build(&BlockModel::WeightMemory, g, &trace, 0, 16);
            for e in 1..=48u64 {
                let inv = inverted_every != 0 && e % inverted_every == 0;
                s.step_epoch(EpochCtx {
                    epoch_hours: 730.0,
                    activity: 1.0,
                    inverted: inv,
                    gated: false,
                    active_recovery: inv,
                    fail_threshold_mv: 60.0,
                    epoch: e,
                });
            }
            s
        };
        let plain = mk(0);
        let healed = mk(2);
        assert!(healed.metric(0) < plain.metric(0));
    }

    #[test]
    fn store_matches_the_wear_model_reference() {
        let g = GroupCtx {
            seed: 3,
            group_index: 2,
            vdd_v: 1.0,
            temperature_k: 358.15,
            variability: 0.12,
            maintenance_bias_v: 0.25,
        };
        let trace = [0.2, 0.8, 0.5];
        let mut store = VictimStore::build(&BlockModel::WeightMemory, g, &trace, 9, 21);
        let stress = g.stress_condition();
        let (passive, active) = g.recovery_conditions();
        let mut units: Vec<WeightMemory> = (0..21)
            .map(|k| WeightMemory::from_group(g, &trace, 9 + k))
            .collect();
        for e in 1..=20 {
            let ctx = EpochCtx {
                epoch_hours: 500.0,
                activity: 0.85,
                inverted: e % 3 == 0,
                gated: e == 10,
                active_recovery: e % 3 == 0,
                fail_threshold_mv: 50.0,
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
            assert!(err <= 1e-12, "bank {i}: {err:e}");
        }
    }
}
