//! SRAM address-decoder aging: per-row BTI stress from address-access
//! duty cycles, rejuvenated by idle-interval inversion.
//!
//! In a static CMOS row decoder the devices of *unselected* rows sit
//! under DC bias, so the rows a workload rarely addresses age fastest —
//! the inverse of the access histogram. The rejuvenation knob from the
//! SRAM-decoder aging literature is to invert the idle rows' inputs
//! during maintenance windows, swapping which device of each pair is
//! stressed and letting the worn one run active recovery.
//!
//! The access histogram is modeled as a Zipf distribution over row
//! rank: row `k` is accessed with relative frequency `(k+1)^−skew`, so
//! its decoder sits stressed for roughly `1 − (k+1)^−skew` of the
//! epoch, scaled by the workload trace's per-epoch activity.

use dh_bti::{RecoveryCondition, StressCondition, WearModel};
use dh_units::Seconds;

use super::{
    clamp01, note_failure, recovery_rate_per_hour, recovery_step, stress_rate_per_hour,
    stress_step, EpochCtx, GroupCtx, Rates,
};
/// Duty cycles are clamped to this band so even the hottest row keeps a
/// trickle of stress and the coldest keeps a recovery window.
const DUTY_FLOOR: f64 = 0.02;
const DUTY_CEIL: f64 = 0.98;

/// The base (workload-independent) stressed duty of row `rank` under a
/// Zipf-`skew` access histogram.
#[inline(always)]
pub(crate) fn zipf_duty(rank: u64, skew: f64) -> f64 {
    let access = ((rank + 1) as f64).powf(-skew);
    (1.0 - access).clamp(DUTY_FLOOR, DUTY_CEIL)
}

/// The effective stressed duty of a row in one epoch: the base duty
/// scaled by the epoch's workload activity, then inverted or gated by
/// the maintenance policy.
#[inline(always)]
fn effective_duty(base_duty: f64, ctx: EpochCtx) -> f64 {
    if ctx.gated {
        return 0.0;
    }
    let duty = clamp01(base_duty * ctx.activity);
    if ctx.inverted {
        1.0 - duty
    } else {
        duty
    }
}

/// Scalar reference unit: one decoder row as a [`WearModel`].
///
/// Holds its base duty and a per-row process-variation factor; the
/// [`VictimStore`](super::VictimStore) kernel is the batched restatement
/// of exactly this element's arithmetic.
#[derive(Debug, Clone)]
pub struct SramDecoder {
    /// Workload-independent stressed duty of this row.
    pub base_duty: f64,
    /// Process-variation multiplier on both rates.
    pub variation: f64,
    r: f64,
    p: f64,
}

impl SramDecoder {
    /// A fresh row with the given duty and variation factor.
    pub fn new(base_duty: f64, variation: f64) -> Self {
        Self {
            base_duty,
            variation,
            r: 0.0,
            p: 0.0,
        }
    }

    /// The row the store would build at `(ctx, rank)` — the reference
    /// path for the columnar proptests.
    pub fn from_group(ctx: GroupCtx, skew: f64, rank: u64) -> Self {
        Self::new(zipf_duty(rank, skew), ctx.variation(rank))
    }

    /// Integrates one scenario epoch through the [`WearModel`] calls:
    /// stressed for the effective duty, recovering for the remainder
    /// under `recovery` (passive or the maintenance bias).
    pub fn run_epoch(
        &mut self,
        ctx: EpochCtx,
        stress: StressCondition,
        recovery: RecoveryCondition,
    ) {
        let duty = effective_duty(self.base_duty, ctx);
        self.stress(Seconds::from_hours(ctx.epoch_hours * duty), stress);
        self.recover(
            Seconds::from_hours(ctx.epoch_hours * (1.0 - duty)),
            recovery,
        );
    }
}

impl WearModel for SramDecoder {
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
    /// One epoch over a shard of decoder rows — the columnar twin of
    /// [`SramDecoder::run_epoch`], compiled scalar, AVX2 and AVX-512
    /// from the same source. Each rate is the group's, times the row's
    /// variation.
    pub(crate) fn sram_epoch_kernel(
        base_duty: &[f64],
        variation: &[f64],
        rates: Rates,
        r: &mut [f64],
        p: &mut [f64],
        failed: &mut [u64],
        ctx: EpochCtx,
    ) {
        let recovery = rates.recovery_at(ctx);
        for i in 0..r.len() {
            let duty = effective_duty(base_duty[i], ctx);
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

    fn build(skew: f64, lo: u64, len: usize) -> VictimStore {
        VictimStore::build(&BlockModel::SramDecoder { skew }, ctx(), &[], lo, len)
    }

    fn ctx() -> GroupCtx {
        GroupCtx {
            seed: 11,
            group_index: 0,
            vdd_v: 0.95,
            temperature_k: 358.15,
            variability: 0.08,
            maintenance_bias_v: 0.3,
        }
    }

    fn epoch_ctx(epoch: u64, inverted: bool) -> EpochCtx {
        EpochCtx {
            epoch_hours: 730.0,
            activity: 0.9,
            inverted,
            gated: false,
            active_recovery: inverted,
            fail_threshold_mv: 45.0,
            epoch,
        }
    }

    #[test]
    fn cold_rows_age_faster_than_hot_rows() {
        let mut store = build(1.1, 0, 256);
        for e in 1..=24 {
            store.step_epoch(epoch_ctx(e, false));
        }
        // Row 0 is the hottest (lowest stressed duty), row 255 nearly idle.
        assert!(store.metric(255) > store.metric(0) * 2.0);
    }

    #[test]
    fn inversion_epochs_slow_the_cold_rows() {
        let mut plain = build(1.1, 0, 64);
        let mut healed = build(1.1, 0, 64);
        for e in 1..=36 {
            plain.step_epoch(epoch_ctx(e, false));
            healed.step_epoch(epoch_ctx(e, e % 4 == 0));
        }
        assert!(healed.metric(63) < plain.metric(63));
    }

    #[test]
    fn store_matches_the_wear_model_reference() {
        let g = ctx();
        let mut store = build(1.3, 5, 33);
        let stress = g.stress_condition();
        let (passive, active) = g.recovery_conditions();
        let mut units: Vec<SramDecoder> = (0..33)
            .map(|k| SramDecoder::from_group(g, 1.3, 5 + k))
            .collect();
        for e in 1..=18 {
            let ctx = epoch_ctx(e, e % 5 == 0);
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
            assert!(err <= 1e-12, "row {i}: {err:e}");
        }
    }
}
