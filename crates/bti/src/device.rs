//! A stateful BTI device that integrates arbitrary stress/recovery
//! schedules.
//!
//! [`BtiDevice`] wraps the analytic model of [`crate::analytic`] in a state
//! machine usable by circuit- and system-level simulations: call
//! [`BtiDevice::stress`] and [`BtiDevice::recover`] with arbitrary interval
//! lengths and conditions and read back the threshold-voltage shift.
//!
//! Internally the device tracks three wearout pools (all in millivolts of
//! |ΔVth|):
//!
//! * **recoverable** — relaxes under any recovery condition at the
//!   universal-relaxation rate scaled by θ(V,T);
//! * **soft permanent** — damage on its way to permanence; annealed only by
//!   deep (condition-4-like) recovery applied in time;
//! * **hard permanent** — consolidated damage, unrecoverable by any
//!   condition.
//!
//! Constant-condition stress uses exact equivalent-age reconstruction, so
//! results are independent of step size; recovery within one condition
//! segment follows the exact universal-relaxation curve.

use dh_units::{Fraction, Seconds};

use crate::analytic::AnalyticBtiModel;
use crate::condition::{RecoveryCondition, StressCondition};
use crate::wear::WearModel;

/// Phase bookkeeping for piecewise-exact integration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Stressing,
    Recovering {
        condition: RecoveryCondition,
        /// Total wearout at the start of this recovery segment — the
        /// universal-relaxation fraction is calibrated against *total*
        /// wearout, with the permanent pool acting as a floor.
        start_total_mv: f64,
        /// Equivalent stress age at the start of this segment (sets ξ).
        stress_age: Seconds,
        /// Time spent in this recovery segment.
        elapsed: Seconds,
    },
}

/// A stateful BTI-degrading device (e.g. one transistor, one ring
/// oscillator, or one core treated in aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct BtiDevice {
    model: AnalyticBtiModel,
    recoverable_mv: f64,
    soft_permanent_mv: f64,
    hard_permanent_mv: f64,
    /// Continuous-stress window (time under stress since the last deep
    /// recovery reset) — drives permanent-damage onset.
    window: Seconds,
    phase: Phase,
    total_stress_time: Seconds,
    total_recovery_time: Seconds,
}

impl BtiDevice {
    /// Creates a fresh (never stressed) device using the given model.
    pub fn new(model: AnalyticBtiModel) -> Self {
        Self {
            model,
            recoverable_mv: 0.0,
            soft_permanent_mv: 0.0,
            hard_permanent_mv: 0.0,
            window: Seconds::ZERO,
            phase: Phase::Idle,
            total_stress_time: Seconds::ZERO,
            total_recovery_time: Seconds::ZERO,
        }
    }

    /// Creates a fresh device with the paper-calibrated model.
    pub fn paper_calibrated() -> Self {
        Self::new(AnalyticBtiModel::paper_calibrated())
    }

    /// The model in use.
    pub fn model(&self) -> &AnalyticBtiModel {
        &self.model
    }

    /// Total |ΔVth| shift in millivolts.
    pub fn delta_vth_mv(&self) -> f64 {
        self.recoverable_mv + self.soft_permanent_mv + self.hard_permanent_mv
    }

    /// The permanent portion (soft + hard) of the shift, in millivolts.
    pub fn permanent_mv(&self) -> f64 {
        self.soft_permanent_mv + self.hard_permanent_mv
    }

    /// The consolidated (unrecoverable) portion of the shift, in millivolts.
    pub fn hard_permanent_mv(&self) -> f64 {
        self.hard_permanent_mv
    }

    /// The recoverable portion of the shift, in millivolts.
    pub fn recoverable_mv(&self) -> f64 {
        self.recoverable_mv
    }

    /// Cumulative time spent under stress.
    pub fn total_stress_time(&self) -> Seconds {
        self.total_stress_time
    }

    /// Cumulative time spent in recovery.
    pub fn total_recovery_time(&self) -> Seconds {
        self.total_recovery_time
    }

    /// Applies `dt` of stress at `cond`.
    ///
    /// Constant-condition stress is step-size independent: the device
    /// reconstructs its equivalent stress age and advances along the power
    /// law.
    pub fn stress(&mut self, dt: Seconds, cond: StressCondition) {
        if !(dt.value() > 0.0) || !cond.is_finite() {
            return;
        }
        self.phase = Phase::Stressing;
        let law = self.model.stress_law();

        let total = self.delta_vth_mv();
        let new_total = law.advance_wearout(total, dt, cond);
        self.apply_stress_totals(total, new_total, dt);
    }

    /// Distributes a stress step's wearout increment over the three pools.
    fn apply_stress_totals(&mut self, total: f64, new_total: f64, dt: Seconds) {
        let generated = (new_total - total).max(0.0);

        let new_window = self.window + dt;
        // Permanent target tracks the continuous-stress window.
        let p_target = self.model.permanent_fraction(new_window).value() * new_total;
        let p_current = self.permanent_mv();
        let dp = (p_target - p_current).clamp(0.0, generated);
        self.soft_permanent_mv += dp;
        self.recoverable_mv += generated - dp;

        // Soft → hard consolidation.
        let tau_h = self.model.permanent_params().tau_harden;
        let transfer = self.soft_permanent_mv * (1.0 - (-(dt / tau_h)).exp());
        self.soft_permanent_mv -= transfer;
        self.hard_permanent_mv += transfer;

        self.window = new_window;
        self.total_stress_time += dt;
    }

    /// Applies `dt` of recovery at `cond`.
    ///
    /// Within a constant-condition recovery segment the relaxation follows
    /// the exact universal-relaxation curve (step-size independent); a new
    /// segment starts whenever the condition changes or stress intervened.
    pub fn recover(&mut self, dt: Seconds, cond: RecoveryCondition) {
        if !(dt.value() > 0.0) || !cond.is_finite() {
            return;
        }
        // Small measurement-grade fluctuations (e.g. the paper's ±0.3 °C
        // thermal chamber) must not restart the relaxation segment: treat
        // conditions within 2 K and 10 mV as the same segment, keeping the
        // original segment condition for θ.
        let same_segment = |a: RecoveryCondition, b: RecoveryCondition| {
            (a.temperature.value() - b.temperature.value()).abs() < 2.0
                && (a.gate_voltage.value() - b.gate_voltage.value()).abs() < 0.010
        };

        let (cond, start_total_mv, stress_age, elapsed) = match self.phase {
            Phase::Recovering {
                condition,
                start_total_mv,
                stress_age,
                elapsed,
            } if same_segment(condition, cond) => (condition, start_total_mv, stress_age, elapsed),
            _ => {
                // New relaxation segment: ξ is referenced to the equivalent
                // age of the accumulated wearout at the reference stress
                // condition (floored at 1 s so a fresh device is well
                // defined).
                let age = self
                    .model
                    .stress_law()
                    .equivalent_age(
                        self.delta_vth_mv(),
                        crate::condition::StressCondition::ACCELERATED,
                    )
                    .max(Seconds::new(1.0));
                (cond, self.delta_vth_mv(), age, Seconds::ZERO)
            }
        };
        let theta = self.model.theta(cond);

        // Deep-recovery annealing of soft permanent damage and window reset.
        let params = self.model.permanent_params();
        let depth = theta / self.model.theta4();
        let soft_factor = (-depth * dt.value() / params.tau_soft_anneal.value()).exp();
        let window_factor = if params.tau_window_reset == params.tau_soft_anneal {
            soft_factor
        } else {
            (-depth * dt.value() / params.tau_window_reset.value()).exp()
        };
        self.soft_permanent_mv *= soft_factor;
        self.window = self.window * window_factor;

        // Universal relaxation of the total wearout, floored by the
        // (possibly annealed) permanent pool — the same semantics as the
        // one-shot `AnalyticBtiModel::recovery_fraction`.
        let elapsed = elapsed + dt;
        let xi_eff = theta * (elapsed / stress_age);
        let r = self.model.relaxation().recovery_fraction_at(xi_eff).value();
        let permanent_now = self.permanent_mv();
        let remaining = (start_total_mv * (1.0 - r)).max(permanent_now);
        self.recoverable_mv = (remaining - permanent_now).max(0.0);

        self.phase = Phase::Recovering {
            condition: cond,
            start_total_mv,
            stress_age,
            elapsed,
        };
        self.total_recovery_time += dt;
    }

    /// Fraction of the wearout present at the start of the current recovery
    /// segment that has been recovered so far; [`Fraction::ZERO`] outside a
    /// recovery segment.
    pub fn segment_recovery(&self) -> Fraction {
        match self.phase {
            Phase::Recovering { start_total_mv, .. } if start_total_mv > 0.0 => {
                Fraction::clamped(1.0 - self.delta_vth_mv() / start_total_mv)
            }
            _ => Fraction::ZERO,
        }
    }
}

impl WearModel for BtiDevice {
    fn stress(&mut self, dt: Seconds, cond: StressCondition) {
        BtiDevice::stress(self, dt, cond);
    }

    fn recover(&mut self, dt: Seconds, cond: RecoveryCondition) {
        BtiDevice::recover(self, dt, cond);
    }

    fn delta_vth_mv(&self) -> f64 {
        BtiDevice::delta_vth_mv(self)
    }

    fn permanent_mv(&self) -> f64 {
        BtiDevice::permanent_mv(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_table_one(cond: RecoveryCondition) -> f64 {
        let mut d = BtiDevice::paper_calibrated();
        // Stress in many chunks to exercise step independence.
        for _ in 0..24 {
            d.stress(Seconds::from_hours(1.0), StressCondition::ACCELERATED);
        }
        let w0 = d.delta_vth_mv();
        for _ in 0..12 {
            d.recover(Seconds::from_minutes(30.0), cond);
        }
        (w0 - d.delta_vth_mv()) / w0 * 100.0
    }

    #[test]
    fn device_reproduces_table_one_within_tolerance() {
        // The stateful integrator should track the one-shot analytic answer
        // for the Table I protocol.
        let targets = [1.0, 14.4, 29.2, 72.7];
        for (cond, want) in RecoveryCondition::table_one().iter().zip(targets) {
            let got = run_table_one(*cond);
            assert!(
                (got - want).abs() < 3.0,
                "{cond}: device says {got:.2}%, table says {want}%"
            );
        }
    }

    #[test]
    fn stress_is_step_size_independent() {
        let mut coarse = BtiDevice::paper_calibrated();
        coarse.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);

        let mut fine = BtiDevice::paper_calibrated();
        for _ in 0..96 {
            fine.stress(Seconds::from_minutes(15.0), StressCondition::ACCELERATED);
        }
        let rel = (coarse.delta_vth_mv() - fine.delta_vth_mv()).abs() / coarse.delta_vth_mv();
        assert!(
            rel < 0.02,
            "coarse {} vs fine {}",
            coarse.delta_vth_mv(),
            fine.delta_vth_mv()
        );
    }

    #[test]
    fn recovery_is_step_size_independent_within_a_segment() {
        let mk = || {
            let mut d = BtiDevice::paper_calibrated();
            d.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
            d
        };
        let mut coarse = mk();
        coarse.recover(
            Seconds::from_hours(6.0),
            RecoveryCondition::ACTIVE_ACCELERATED,
        );
        let mut fine = mk();
        for _ in 0..360 {
            fine.recover(
                Seconds::from_minutes(1.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
        }
        let rel =
            (coarse.delta_vth_mv() - fine.delta_vth_mv()).abs() / coarse.delta_vth_mv().max(1e-12);
        assert!(
            rel < 1e-6,
            "coarse {} vs fine {}",
            coarse.delta_vth_mv(),
            fine.delta_vth_mv()
        );
    }

    #[test]
    fn fresh_device_has_no_wearout_and_recovery_is_harmless() {
        let mut d = BtiDevice::paper_calibrated();
        assert_eq!(d.delta_vth_mv(), 0.0);
        d.recover(
            Seconds::from_hours(1.0),
            RecoveryCondition::ACTIVE_ACCELERATED,
        );
        assert_eq!(d.delta_vth_mv(), 0.0);
        assert_eq!(d.permanent_mv(), 0.0);
    }

    #[test]
    fn zero_length_intervals_are_no_ops() {
        let mut d = BtiDevice::paper_calibrated();
        d.stress(Seconds::from_hours(1.0), StressCondition::ACCELERATED);
        let w = d.delta_vth_mv();
        d.stress(Seconds::ZERO, StressCondition::ACCELERATED);
        d.recover(Seconds::ZERO, RecoveryCondition::PASSIVE);
        assert_eq!(d.delta_vth_mv(), w);
    }

    #[test]
    fn wearout_grows_sublinearly_with_stress_time() {
        let mut d = BtiDevice::paper_calibrated();
        d.stress(Seconds::from_hours(1.0), StressCondition::ACCELERATED);
        let w1 = d.delta_vth_mv();
        d.stress(Seconds::from_hours(23.0), StressCondition::ACCELERATED);
        let w24 = d.delta_vth_mv();
        // Power law with n = 1/6: w(24h)/w(1h) = 24^(1/6) ≈ 1.70.
        let ratio = w24 / w1;
        assert!(
            (ratio - 24f64.powf(1.0 / 6.0)).abs() < 0.05,
            "ratio = {ratio}"
        );
    }

    #[test]
    fn permanent_damage_accumulates_only_under_long_windows() {
        let model = AnalyticBtiModel::paper_calibrated();
        // Long continuous stress: substantial permanent component.
        let mut cont = BtiDevice::new(model);
        cont.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let p_cont = cont.permanent_mv() / cont.delta_vth_mv();
        assert!(p_cont > 0.25, "continuous permanent fraction {p_cont}");

        // Same total stress in 1 h slices with deep recovery between:
        // negligible permanent damage (the Fig. 4 claim).
        let mut cycled = BtiDevice::new(model);
        for _ in 0..24 {
            cycled.stress(Seconds::from_hours(1.0), StressCondition::ACCELERATED);
            cycled.recover(
                Seconds::from_hours(1.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
        }
        let p_cycled = cycled.permanent_mv();
        assert!(
            p_cycled < 0.15 * cont.permanent_mv(),
            "cycled permanent {p_cycled} vs continuous {}",
            cont.permanent_mv()
        );
    }

    #[test]
    fn passive_recovery_does_not_anneal_permanent_damage() {
        let mut d = BtiDevice::paper_calibrated();
        d.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let p0 = d.permanent_mv();
        d.recover(Seconds::from_hours(24.0), RecoveryCondition::PASSIVE);
        assert!((d.permanent_mv() - p0).abs() / p0 < 1e-6);
    }

    #[test]
    fn segment_recovery_reports_progress() {
        let mut d = BtiDevice::paper_calibrated();
        assert_eq!(d.segment_recovery(), Fraction::ZERO);
        d.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        d.recover(
            Seconds::from_hours(6.0),
            RecoveryCondition::ACTIVE_ACCELERATED,
        );
        let r = d.segment_recovery().as_percent();
        assert!(r > 60.0 && r < 90.0, "segment recovery {r}%");
    }

    #[test]
    fn bookkeeping_tracks_cumulative_times() {
        let mut d = BtiDevice::paper_calibrated();
        d.stress(Seconds::from_hours(2.0), StressCondition::ACCELERATED);
        d.recover(Seconds::from_hours(1.0), RecoveryCondition::PASSIVE);
        d.stress(Seconds::from_hours(3.0), StressCondition::ACCELERATED);
        assert_eq!(d.total_stress_time(), Seconds::from_hours(5.0));
        assert_eq!(d.total_recovery_time(), Seconds::from_hours(1.0));
    }

    #[test]
    fn non_finite_inputs_are_rejected_at_the_kernel_boundary() {
        use dh_units::{Kelvin, Volts};
        let mut d = BtiDevice::paper_calibrated();
        d.stress(Seconds::from_hours(2.0), StressCondition::ACCELERATED);
        let before = d.delta_vth_mv();
        assert!(before.is_finite() && before > 0.0);

        d.stress(Seconds::new(f64::NAN), StressCondition::ACCELERATED);
        d.stress(
            Seconds::from_hours(1.0),
            StressCondition {
                gate_voltage: Volts::new(f64::NAN),
                temperature: StressCondition::ACCELERATED.temperature,
            },
        );
        d.recover(
            Seconds::from_hours(1.0),
            RecoveryCondition {
                gate_voltage: Volts::ZERO,
                temperature: Kelvin::new(f64::INFINITY),
            },
        );
        assert_eq!(
            d.delta_vth_mv(),
            before,
            "poisoned inputs must be no-ops, not NaN propagation"
        );
        assert_eq!(d.total_stress_time(), Seconds::from_hours(2.0));
    }
}
