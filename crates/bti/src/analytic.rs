//! The analytic BTI model (the paper's Table I "Model" column).
//!
//! Three ingredients:
//!
//! 1. **Stress (wearout generation)** — a power law
//!    `ΔVth(t) = A_eff · t^n` with `n = 1/6`, the classic reaction–diffusion
//!    exponent. `A_eff` scales with stress voltage and temperature via an
//!    exponential voltage-acceleration law and an Arrhenius factor, so
//!    accelerated-test results can be de-rated to use conditions.
//! 2. **Recovery (universal relaxation)** — the Kaczer universal-relaxation
//!    form `r(ξ_eff) = 1/(1 + B·ξ_eff^{−β})` with
//!    `ξ_eff = θ(V,T) · t_rec / t_stress`, where θ is the activation /
//!    acceleration factor of [`crate::acceleration`]. `B`, γ, `Ea_r`, η are
//!    calibrated in closed form from Table I by [`crate::calibration`].
//! 3. **Permanent component** — a slowly-growing fraction of the wearout
//!    becomes permanent; it *consolidates* (hardens) with a ~2 h time
//!    constant, after which no recovery condition can remove it. Freshly
//!    generated ("soft") permanent damage **can** be annealed, but only by
//!    deep (active + accelerated) recovery applied in time — this is the
//!    mechanism behind the paper's Fig. 4 result that a balanced 1 h : 1 h
//!    stress/recovery schedule keeps the permanent component at ~0 while a
//!    one-time recovery after 24 h of stress is stuck above ~27 %.

use dh_units::arrhenius;
use dh_units::{Fraction, Seconds, Volts};

use crate::calibration::{self, TableOneTargets, UniversalRelaxation, DEFAULT_BETA};
use crate::condition::{RecoveryCondition, StressCondition};
use crate::error::BtiError;

/// Parameters of the permanent-component dynamics.
///
/// The *permanent fraction* of total wearout follows
/// `p(t_w) = p_max · (1 − exp(−(t_w/τ_p)^m))` in the continuous-stress window
/// time `t_w`; the superlinear onset (`m = 2`) captures that permanent damage
/// is a secondary process seeded by sustained trap occupancy — short stress
/// windows generate almost none, which is exactly why the paper's in-time
/// scheduled recovery avoids it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermanentParams {
    /// Saturated permanent fraction of total wearout.
    pub p_max: f64,
    /// Characteristic window time of permanent-damage onset.
    pub tau_onset: Seconds,
    /// Onset shape exponent (superlinear for m > 1).
    pub m: f64,
    /// Consolidation (hardening) time constant: soft permanent damage
    /// becomes unrecoverable with this time constant under continued stress.
    pub tau_harden: Seconds,
    /// Annealing time constant of *soft* permanent damage under the deepest
    /// calibrated recovery condition (condition 4). Scales as θ/θ₄ for other
    /// conditions, so passive recovery effectively never anneals it.
    pub tau_soft_anneal: Seconds,
    /// Decay time constant of the continuous-stress window under deep
    /// recovery (precursor reset).
    pub tau_window_reset: Seconds,
}

impl Default for PermanentParams {
    fn default() -> Self {
        Self {
            // p(24 h) ≈ 0.276, matching Table I's >27 % unrecoverable
            // component after the 24 h accelerated stress.
            p_max: 0.285,
            tau_onset: Seconds::from_hours(13.0),
            m: 2.0,
            tau_harden: Seconds::from_hours(2.0),
            tau_soft_anneal: Seconds::new(1200.0),
            tau_window_reset: Seconds::new(1200.0),
        }
    }
}

/// Parameters of the stress (generation) power law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressLaw {
    /// Prefactor: ΔVth in millivolts at 1 s of reference accelerated stress.
    pub a_mv: f64,
    /// Time exponent n (≈ 1/6 for reaction–diffusion BTI).
    pub n: f64,
    /// Voltage acceleration coefficient, 1/V (ΔVth ∝ exp(γ_s·V)).
    pub gamma_stress_per_volt: f64,
    /// Effective activation energy of wearout generation, eV (weakly
    /// temperature-activated compared to recovery).
    pub ea_stress_ev: f64,
    /// Reference (accelerated) stress condition at which `a_mv` is defined.
    pub reference: StressCondition,
}

impl Default for StressLaw {
    fn default() -> Self {
        Self {
            // ΔVth(24 h) = a · 86400^(1/6) ≈ 50 mV at the reference
            // accelerated condition — a typical magnitude for a 40 nm
            // accelerated BTI test.
            a_mv: 50.0 / 86_400f64.powf(1.0 / 6.0),
            n: 1.0 / 6.0,
            gamma_stress_per_volt: 6.0,
            ea_stress_ev: 0.08,
            reference: StressCondition::ACCELERATED,
        }
    }
}

impl StressLaw {
    /// The amplitude scaling of wearout generation at `cond` relative to the
    /// reference accelerated condition (1.0 at the reference; < 1 at use
    /// conditions).
    pub fn amplitude_scale(&self, cond: StressCondition) -> f64 {
        // At the reference condition both exponents are exactly zero, so
        // skip the two `exp`s (hot in equivalent-age reconstruction).
        if cond == self.reference {
            return 1.0;
        }
        self.amplitude_scale_at(cond, self.voltage_scale(cond.gate_voltage))
    }

    /// The voltage half of [`Self::amplitude_scale`]:
    /// `exp(γ_s·(V − V_ref))`. A caller that scales many temperatures at
    /// one voltage computes it once for [`Self::amplitude_scale_at`].
    pub fn voltage_scale(&self, gate_voltage: Volts) -> f64 {
        let dv = gate_voltage.value() - self.reference.gate_voltage.value();
        (self.gamma_stress_per_volt * dv).exp()
    }

    /// [`Self::amplitude_scale`] with its voltage half supplied:
    /// `voltage_scale` must be `self.voltage_scale(cond.gate_voltage)`.
    /// Bit-identical to `amplitude_scale(cond)`, 1.0 at the reference
    /// included.
    pub fn amplitude_scale_at(&self, cond: StressCondition, voltage_scale: f64) -> f64 {
        if cond == self.reference {
            return 1.0;
        }
        let t_term = arrhenius::acceleration_factor(
            self.ea_stress_ev,
            self.reference.temperature,
            cond.temperature,
        );
        voltage_scale * t_term
    }

    /// Fresh-device wearout in millivolts after `t` of stress at `cond`.
    pub fn wearout_mv(&self, t: Seconds, cond: StressCondition) -> f64 {
        if t.value() <= 0.0 {
            return 0.0;
        }
        self.a_mv * self.amplitude_scale(cond) * t.value().powf(self.n)
    }

    /// The equivalent stress age (at condition `cond`) that would produce a
    /// given wearout level — the inverse of [`Self::wearout_mv`].
    pub fn equivalent_age(&self, wearout_mv: f64, cond: StressCondition) -> Seconds {
        if wearout_mv <= 0.0 {
            return Seconds::ZERO;
        }
        let a = self.a_mv * self.amplitude_scale(cond);
        Seconds::new((wearout_mv / a).powf(1.0 / self.n))
    }

    /// Advances a wearout level by `dt` of stress at `cond`: the composition
    /// of [`Self::equivalent_age`] and [`Self::wearout_mv`], evaluating the
    /// (two-`exp`) amplitude scale once instead of twice. Bit-identical to
    /// the composition.
    pub fn advance_wearout(&self, current_mv: f64, dt: Seconds, cond: StressCondition) -> f64 {
        let a = self.a_mv * self.amplitude_scale(cond);
        let age = if current_mv <= 0.0 {
            Seconds::ZERO
        } else {
            Seconds::new((current_mv / a).powf(1.0 / self.n))
        };
        a * (age + dt).value().powf(self.n)
    }
}

/// The calibrated analytic BTI model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticBtiModel {
    relaxation: UniversalRelaxation,
    stress_law: StressLaw,
    permanent: PermanentParams,
    /// θ at the deepest calibrated condition (condition 4), used to
    /// normalise soft-permanent annealing rates.
    theta4: f64,
}

impl AnalyticBtiModel {
    /// Builds the model calibrated to the paper's Table I model column with
    /// default stress-law and permanent-component parameters.
    ///
    /// # Panics
    ///
    /// Never panics: the built-in targets are known-solvable (covered by
    /// tests).
    pub fn paper_calibrated() -> Self {
        Self::from_targets(&TableOneTargets::model_column())
            .expect("paper targets are solvable by construction")
    }

    /// Builds the model from custom Table I-style calibration targets.
    ///
    /// # Errors
    ///
    /// Returns [`BtiError::UnsolvableCalibration`] for non-monotone or
    /// degenerate targets.
    pub fn from_targets(targets: &TableOneTargets) -> Result<Self, BtiError> {
        let relaxation = calibration::solve(targets, DEFAULT_BETA)?;
        let theta4 = relaxation.acceleration.factor(RecoveryCondition {
            gate_voltage: -targets.reverse_bias,
            temperature: targets.hot,
        });
        Ok(Self {
            relaxation,
            stress_law: StressLaw::default(),
            permanent: PermanentParams::default(),
            theta4,
        })
    }

    /// The calibrated universal-relaxation parameters.
    pub fn relaxation(&self) -> &UniversalRelaxation {
        &self.relaxation
    }

    /// The stress (generation) law.
    pub fn stress_law(&self) -> &StressLaw {
        &self.stress_law
    }

    /// The permanent-component parameters.
    pub fn permanent_params(&self) -> &PermanentParams {
        &self.permanent
    }

    /// The recovery acceleration factor θ(V, T) for a condition.
    pub fn theta(&self, condition: RecoveryCondition) -> f64 {
        self.relaxation.acceleration.factor(condition)
    }

    /// θ at the deepest calibrated (condition 4) recovery condition.
    pub fn theta4(&self) -> f64 {
        self.theta4
    }

    /// The permanent fraction of total wearout after a continuous stress
    /// window of length `t_w`.
    pub fn permanent_fraction(&self, t_w: Seconds) -> Fraction {
        let p = &self.permanent;
        if t_w.value() <= 0.0 {
            return Fraction::ZERO;
        }
        let base = t_w / p.tau_onset;
        // m = 2 is the default shape and this sits inside every stress
        // step, so square directly instead of `powf`.
        let x = if p.m == 2.0 {
            base * base
        } else {
            base.powf(p.m)
        };
        Fraction::clamped(p.p_max * (1.0 - (-x).exp()))
    }

    /// The consolidated ("hard") share of the permanent component after a
    /// continuous stress window `t_w`, computed by integrating the hardening
    /// kernel over the permanent-generation history.
    pub fn hardened_share(&self, t_w: Seconds) -> Fraction {
        let p_total = self.permanent_fraction(t_w).value();
        if p_total <= 0.0 {
            return Fraction::ZERO;
        }
        // H = ∫₀ᵗ p'(u) (1 − e^{−(t−u)/τ_h}) du / p(t)
        let steps = 400;
        let dt = t_w.value() / steps as f64;
        let mut hardened = 0.0;
        let mut prev_p = 0.0;
        for i in 1..=steps {
            let u = i as f64 * dt;
            let p_u = self.permanent_fraction(Seconds::new(u)).value();
            let dp = p_u - prev_p;
            prev_p = p_u;
            let age = t_w.value() - (u - 0.5 * dt);
            hardened += dp * (1.0 - (-age / self.permanent.tau_harden.value()).exp());
        }
        Fraction::clamped(hardened / p_total)
    }

    /// One-shot recovery fraction: the fraction of wearout recovered after
    /// `recovery_time` of recovery at `condition`, following a continuous
    /// stress of `stress_time` (the paper's Table I protocol).
    ///
    /// The result is the universal-relaxation fraction capped by the
    /// (condition-dependent) unrecoverable permanent component.
    pub fn recovery_fraction(
        &self,
        stress_time: Seconds,
        recovery_time: Seconds,
        condition: RecoveryCondition,
    ) -> Fraction {
        if stress_time.value() <= 0.0 {
            return Fraction::ZERO;
        }
        let theta = self.theta(condition);
        let xi_eff = theta * (recovery_time / stress_time);
        let r_univ = self.relaxation.recovery_fraction_at(xi_eff).value();

        // Unrecoverable floor: hardened permanent damage plus soft permanent
        // damage that this condition fails to anneal within recovery_time.
        let p_total = self.permanent_fraction(stress_time).value();
        let hard = self.hardened_share(stress_time).value();
        let soft_remaining = (-(theta / self.theta4) * recovery_time.value()
            / self.permanent.tau_soft_anneal.value())
        .exp();
        let unrecoverable = p_total * (hard + (1.0 - hard) * soft_remaining);
        Fraction::clamped(r_univ.min(1.0 - unrecoverable))
    }
}

impl Default for AnalyticBtiModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_units::{Celsius, Volts};

    const STRESS_24H: Seconds = Seconds::new(24.0 * 3600.0);
    const RECOVERY_6H: Seconds = Seconds::new(6.0 * 3600.0);

    #[test]
    fn table_one_model_column_is_reproduced() {
        let model = AnalyticBtiModel::paper_calibrated();
        let targets = [1.0, 14.4, 29.2, 72.7];
        for (cond, want) in RecoveryCondition::table_one().iter().zip(targets) {
            let got = model
                .recovery_fraction(STRESS_24H, RECOVERY_6H, *cond)
                .as_percent();
            assert!(
                (got - want).abs() < 0.5,
                "{cond}: got {got:.2}% want {want}%"
            );
        }
    }

    #[test]
    fn permanent_cap_does_not_clip_condition_four() {
        // The calibration puts the 6 h condition-4 point (72.7 %) just below
        // the permanent cap; if the cap clipped it, Table I would be off.
        let model = AnalyticBtiModel::paper_calibrated();
        let cap = 1.0
            - model.permanent_fraction(STRESS_24H).value()
                * model.hardened_share(STRESS_24H).value();
        assert!(cap > 0.727, "cap {cap} must exceed the condition-4 target");
    }

    #[test]
    fn extended_deep_recovery_saturates_near_27_percent_permanent() {
        // Paper: "there is still a permanent component (>27%) which cannot
        // be recovered with the extended recovery period (much longer than
        // 6 hours)".
        let model = AnalyticBtiModel::paper_calibrated();
        let r_48h = model.recovery_fraction(
            STRESS_24H,
            Seconds::from_hours(48.0),
            RecoveryCondition::ACTIVE_ACCELERATED,
        );
        assert!(
            r_48h.as_percent() < 78.0,
            "extended recovery should saturate below ~78%, got {:.1}%",
            r_48h.as_percent()
        );
        assert!(r_48h.as_percent() > 72.0);
    }

    #[test]
    fn short_stress_produces_negligible_permanent_damage() {
        // The Fig. 4 mechanism: a 1 h stress window generates almost no
        // permanent damage, so in-time recovery can keep the device fresh.
        let model = AnalyticBtiModel::paper_calibrated();
        let p_1h = model.permanent_fraction(Seconds::from_hours(1.0)).value();
        let p_24h = model.permanent_fraction(STRESS_24H).value();
        assert!(p_1h < 0.005, "p(1h) = {p_1h}");
        assert!((p_24h - 0.276).abs() < 0.01, "p(24h) = {p_24h}");
    }

    #[test]
    fn recovery_fraction_monotone_in_recovery_time() {
        let model = AnalyticBtiModel::paper_calibrated();
        let mut prev = Fraction::ZERO;
        for hours in [0.5, 1.0, 2.0, 6.0, 12.0, 24.0] {
            let r = model.recovery_fraction(
                STRESS_24H,
                Seconds::from_hours(hours),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn recovery_fraction_zero_for_degenerate_inputs() {
        let model = AnalyticBtiModel::paper_calibrated();
        let r = model.recovery_fraction(Seconds::ZERO, RECOVERY_6H, RecoveryCondition::PASSIVE);
        assert_eq!(r, Fraction::ZERO);
        let r = model.recovery_fraction(STRESS_24H, Seconds::ZERO, RecoveryCondition::PASSIVE);
        assert_eq!(r, Fraction::ZERO);
    }

    #[test]
    fn stress_law_reference_wearout_is_50mv_at_24h() {
        let law = StressLaw::default();
        let w = law.wearout_mv(STRESS_24H, StressCondition::ACCELERATED);
        assert!((w - 50.0).abs() < 1e-9, "w = {w}");
    }

    #[test]
    fn stress_law_derates_at_use_conditions() {
        let law = StressLaw::default();
        let w_use = law.wearout_mv(STRESS_24H, StressCondition::NOMINAL_USE);
        let w_acc = law.wearout_mv(STRESS_24H, StressCondition::ACCELERATED);
        assert!(w_use < 0.5 * w_acc, "use {w_use} vs accelerated {w_acc}");
        assert!(w_use > 0.0);
    }

    #[test]
    fn amplitude_scale_at_one_voltage_is_bit_identical() {
        let law = StressLaw::default();
        let reference = law.reference;
        for v in [0.9, 1.0, reference.gate_voltage.value(), 1.4] {
            let v = Volts::new(v);
            let v_scale = law.voltage_scale(v);
            for t in [233.15, 300.0, reference.temperature.value(), 398.15] {
                let cond = StressCondition {
                    gate_voltage: v,
                    temperature: dh_units::Kelvin::new(t),
                };
                let split = law.amplitude_scale_at(cond, v_scale);
                assert_eq!(
                    split.to_bits(),
                    law.amplitude_scale(cond).to_bits(),
                    "{cond:?}"
                );
            }
        }
        // The reference keeps its exact 1.0, whatever voltage half is passed.
        assert_eq!(law.amplitude_scale_at(reference, f64::NAN), 1.0);
    }

    #[test]
    fn equivalent_age_round_trips() {
        let law = StressLaw::default();
        let cond = StressCondition::ACCELERATED;
        for t in [60.0, 3600.0, 86_400.0] {
            let w = law.wearout_mv(Seconds::new(t), cond);
            let age = law.equivalent_age(w, cond);
            assert!((age.value() - t).abs() / t < 1e-9);
        }
        assert_eq!(law.equivalent_age(0.0, cond), Seconds::ZERO);
        assert_eq!(law.equivalent_age(-1.0, cond), Seconds::ZERO);
    }

    #[test]
    fn advance_wearout_is_bit_identical_to_the_composition() {
        let law = StressLaw::default();
        let between = StressCondition::new(Volts::new(1.0), Celsius::new(85.0));
        for cond in [
            StressCondition::ACCELERATED,
            StressCondition::NOMINAL_USE,
            between,
        ] {
            for w in [-1.0, 0.0, 1e-9, 1e-3, 0.7, 12.5, 50.0, 333.0] {
                for dt in [1e-3, 1.0, 60.0, 3600.0, 86_400.0, 3.15e7, 3.15e8] {
                    let dt = Seconds::new(dt);
                    let fused = law.advance_wearout(w, dt, cond);
                    let composed = law.wearout_mv(law.equivalent_age(w, cond) + dt, cond);
                    assert_eq!(
                        fused.to_bits(),
                        composed.to_bits(),
                        "w {w} mV, dt {dt:?}, {cond:?}: {fused} vs {composed}"
                    );
                }
            }
        }
    }

    #[test]
    fn hardened_share_increases_with_window() {
        let model = AnalyticBtiModel::paper_calibrated();
        let h1 = model.hardened_share(Seconds::from_hours(1.0)).value();
        let h24 = model.hardened_share(STRESS_24H).value();
        assert!(h1 < h24);
        assert!(h24 > 0.85, "h24 = {h24}");
        assert_eq!(model.hardened_share(Seconds::ZERO), Fraction::ZERO);
    }

    #[test]
    fn theta_ordering_matches_conditions() {
        let model = AnalyticBtiModel::paper_calibrated();
        let t = RecoveryCondition::table_one().map(|c| model.theta(c));
        assert!((t[0] - 1.0).abs() < 1e-9);
        assert!(t[1] > 1e5 && t[1] < 1e8, "theta_V = {}", t[1]);
        assert!(t[2] > 1e7 && t[2] < 1e10, "theta_T = {}", t[2]);
        assert!(t[3] > 1e12 && t[3] < 1e15, "theta4 = {}", t[3]);
        assert_eq!(t[3], model.theta4());
    }

    #[test]
    fn intermediate_conditions_interpolate_smoothly() {
        let model = AnalyticBtiModel::paper_calibrated();
        // A 65 °C, −0.15 V condition should land strictly between passive
        // and condition 4.
        let mid = RecoveryCondition::new(Volts::new(-0.15), Celsius::new(65.0));
        let r = model.recovery_fraction(STRESS_24H, RECOVERY_6H, mid);
        assert!(r.as_percent() > 1.0 && r.as_percent() < 72.7, "r = {r}");
    }
}
