//! Always-on scheduling metrics: per-mode epoch counts, mode transitions,
//! and the paper's headline trade-off — recovery time scheduled versus
//! wearout avoided.
//!
//! Every [`crate::ManyCoreSystem`] accumulates a [`MetricsReport`]: the
//! arithmetic is a handful of integer and float adds per core-epoch,
//! invisible next to the BTI/EM/thermal models. The system also mirrors
//! the per-epoch deltas into the global `dh-obs` registry under
//! per-policy names (`sched.<policy>.<metric>`), so a metrics snapshot can
//! compare policies that ran in the same process.

use core::fmt;

use crate::policy::EpochPlan;

/// The operating mode of one core in one epoch, classified from its
/// [`EpochPlan`]. Mirrors the three assist-circuitry modes of the paper's
/// Fig. 8: a core scheduled for deep recovery sits behind the rail swap
/// (BTI-AR), a core running with reversal duty is in EM-AR, and everything
/// else is conventional power-gated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreMode {
    /// Conventional operation (run + passive idle only).
    Normal,
    /// Running with EM current-reversal duty scheduled.
    EmActiveRecovery,
    /// Deep BTI recovery scheduled (any non-zero fraction of the epoch).
    BtiActiveRecovery,
}

impl CoreMode {
    /// Classifies an epoch plan. Deep BTI recovery dominates: a plan that
    /// schedules both uses the rail swap, which implies the idle load.
    pub fn classify(plan: &EpochPlan) -> Self {
        if plan.bti_recovery.value() > 0.0 {
            Self::BtiActiveRecovery
        } else if plan.em_recovery_duty.value() > 0.0 {
            Self::EmActiveRecovery
        } else {
            Self::Normal
        }
    }

    /// Stable lowercase name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Self::Normal => "normal",
            Self::EmActiveRecovery => "em_ar",
            Self::BtiActiveRecovery => "bti_ar",
        }
    }
}

impl fmt::Display for CoreMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregate accounting of what a [`crate::ManyCoreSystem`] scheduled and
/// what the scheduling bought, accumulated over every epoch stepped so far.
///
/// A core "transitions" when its classified [`CoreMode`] differs from the
/// previous epoch's; the first epoch counts as a transition into its
/// initial mode (from power-on), so even a constant-mode policy reports
/// one transition per core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Epochs stepped.
    pub epochs: u64,
    /// Core-epochs simulated (`epochs × cores`).
    pub core_epochs: u64,
    /// Core-epochs classified as [`CoreMode::Normal`].
    pub epochs_normal: u64,
    /// Core-epochs classified as [`CoreMode::EmActiveRecovery`].
    pub epochs_em_ar: u64,
    /// Core-epochs classified as [`CoreMode::BtiActiveRecovery`].
    pub epochs_bti_ar: u64,
    /// Mode transitions into [`CoreMode::Normal`].
    pub transitions_to_normal: u64,
    /// Mode transitions into [`CoreMode::EmActiveRecovery`].
    pub transitions_to_em_ar: u64,
    /// Mode transitions into [`CoreMode::BtiActiveRecovery`].
    pub transitions_to_bti_ar: u64,
    /// Deep-recovery time scheduled across all cores, seconds.
    pub bti_recovery_seconds: f64,
    /// Core-seconds of execution under EM current reversal
    /// (`stress time × duty`), across all cores.
    pub em_recovery_core_seconds: f64,
    /// |ΔVth| removed by scheduled deep-recovery intervals, millivolts,
    /// summed across cores — the BTI wearout avoided.
    pub bti_healed_mv: f64,
    /// Miner's-rule damage units healed by EM current reversal (before the
    /// pinned-floor clamp) — the EM wearout avoided.
    pub em_damage_healed: f64,
    /// Wear sensors flagged as bad by staleness detection (each sensor
    /// counts once, when its verdict latches).
    pub sensor_faults_detected: u64,
    /// Core-epochs scheduled by the conservative fallback policy because
    /// the core's sensor was distrusted.
    pub conservative_core_epochs: u64,
}

impl MetricsReport {
    /// Total mode transitions across all modes.
    pub fn mode_transitions(&self) -> u64 {
        self.transitions_to_normal + self.transitions_to_em_ar + self.transitions_to_bti_ar
    }

    /// Records one core-epoch spent in `mode`, with `transitioned` set when
    /// the core's previous epoch (if any) was in a different mode.
    pub(crate) fn observe_core_epoch(&mut self, mode: CoreMode, transitioned: bool) {
        self.core_epochs += 1;
        let (epochs, transitions) = match mode {
            CoreMode::Normal => (&mut self.epochs_normal, &mut self.transitions_to_normal),
            CoreMode::EmActiveRecovery => (&mut self.epochs_em_ar, &mut self.transitions_to_em_ar),
            CoreMode::BtiActiveRecovery => {
                (&mut self.epochs_bti_ar, &mut self.transitions_to_bti_ar)
            }
        };
        *epochs += 1;
        if transitioned {
            *transitions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_units::Fraction;

    #[test]
    fn classification_follows_the_plan() {
        let run = |r, b, d| EpochPlan {
            run: Fraction::clamped(r),
            bti_recovery: Fraction::clamped(b),
            em_recovery_duty: Fraction::clamped(d),
        };
        assert_eq!(CoreMode::classify(&run(1.0, 0.0, 0.0)), CoreMode::Normal);
        assert_eq!(
            CoreMode::classify(&run(0.8, 0.0, 0.3)),
            CoreMode::EmActiveRecovery
        );
        assert_eq!(
            CoreMode::classify(&run(0.8, 0.2, 0.0)),
            CoreMode::BtiActiveRecovery
        );
        // Deep recovery dominates a mixed plan.
        assert_eq!(
            CoreMode::classify(&run(0.5, 0.2, 0.3)),
            CoreMode::BtiActiveRecovery
        );
    }

    #[test]
    fn observation_splits_epochs_and_transitions_by_mode() {
        let mut m = MetricsReport::default();
        m.observe_core_epoch(CoreMode::Normal, true);
        m.observe_core_epoch(CoreMode::Normal, false);
        m.observe_core_epoch(CoreMode::BtiActiveRecovery, true);
        m.observe_core_epoch(CoreMode::EmActiveRecovery, true);
        assert_eq!(m.core_epochs, 4);
        assert_eq!(m.epochs_normal, 2);
        assert_eq!(m.epochs_bti_ar, 1);
        assert_eq!(m.epochs_em_ar, 1);
        assert_eq!(m.transitions_to_normal, 1);
        assert_eq!(m.mode_transitions(), 3);
    }

    #[test]
    fn mode_names_are_stable_metric_keys() {
        assert_eq!(CoreMode::Normal.to_string(), "normal");
        assert_eq!(CoreMode::EmActiveRecovery.name(), "em_ar");
        assert_eq!(CoreMode::BtiActiveRecovery.name(), "bti_ar");
    }
}
