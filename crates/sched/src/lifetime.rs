//! Multi-year lifetime runs and guardband analysis (the paper's
//! Fig. 12(b)).
//!
//! The paper's Fig. 12(b) sketches performance over time: without recovery,
//! degradation eats into a worst-case margin; with scheduled BTI/EM active
//! recovery, the system "always runs in a refreshing mode" and the
//! guardband shrinks. [`run_lifetime`] produces that picture quantitatively
//! for any policy, and [`monte_carlo_guardband`] sweeps seeds in parallel
//! (the `dh-exec` self-scheduling engine) for distributional statements.

use dh_circuit::RingOscillator;
use dh_units::{Fraction, Seconds, TimeSeries};

use crate::error::SchedError;
use crate::metrics::MetricsReport;
use crate::policy::Policy;
use crate::system::{ManyCoreSystem, SystemConfig};

/// Configuration for a lifetime run.
#[derive(Debug, Clone)]
pub struct LifetimeConfig {
    /// Simulated lifetime, years.
    pub years: f64,
    /// The system under test.
    pub system: SystemConfig,
    /// How many epochs between recorded samples of the performance series.
    pub sample_every: usize,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        Self {
            years: 3.0,
            system: SystemConfig::default(),
            sample_every: 8,
        }
    }
}

/// The outcome of one lifetime run.
#[derive(Debug, Clone)]
pub struct LifetimeOutcome {
    /// Policy name.
    pub policy: &'static str,
    /// Worst-core frequency degradation over time (fraction of fresh
    /// frequency lost), sampled every `sample_every` epochs.
    pub degradation_series: TimeSeries,
    /// The frequency guardband this lifetime requires: the maximum
    /// worst-core degradation ever observed (plus nothing else — sensor
    /// margins are studied separately).
    pub required_guardband: f64,
    /// Final worst-core EM damage fraction.
    pub final_em_damage: Fraction,
    /// Projected EM time-to-failure extrapolated from the average damage
    /// rate (`None` if no damage accumulated).
    pub projected_em_ttf: Option<Seconds>,
    /// Final worst-core permanent BTI component, millivolts.
    pub final_permanent_mv: f64,
    /// The policy's scheduled recovery overhead (fraction of core time).
    pub recovery_overhead: Fraction,
    /// The work actually displaced by recovery over the lifetime, as a
    /// fraction of the work demanded — usually far below the scheduled
    /// overhead because recovery intervals absorb idle time first.
    pub throughput_loss: Fraction,
    /// What the scheduler did and what it bought: per-mode epoch counts,
    /// mode transitions, recovery time scheduled, and wearout healed.
    pub metrics: MetricsReport,
}

/// Runs one lifetime simulation.
///
/// # Errors
///
/// Propagates [`SchedError`] from system construction.
pub fn run_lifetime(
    config: &LifetimeConfig,
    policy: Policy,
    seed: u64,
) -> Result<LifetimeOutcome, SchedError> {
    if !(config.years > 0.0) || !config.years.is_finite() {
        return Err(SchedError::InvalidConfig(format!(
            "lifetime must be positive, got {} years",
            config.years
        )));
    }
    let mut system_config = config.system.clone();
    system_config.seed = seed;
    let mut system = ManyCoreSystem::new(system_config)?;
    let ro = RingOscillator::paper_75_stage();

    let total_epochs = (Seconds::from_years(config.years) / config.system.epoch)
        .ceil()
        .max(1.0) as usize;
    let mut series = TimeSeries::new(format!(
        "worst-core frequency degradation, {}",
        policy.name()
    ));
    let mut guardband: f64 = 0.0;
    let mut displaced = 0.0;
    let mut demanded = 0.0;

    // The fresh frequency never changes, so it is derived once.
    let fresh = ro.frequency(0.0).value();
    for epoch in 0..total_epochs {
        let status = system.step(policy)?;
        for s in &status {
            displaced += s.displaced_work.value();
            demanded += s.demanded_work.value();
        }
        let degradation = 1.0 - ro.frequency(system.worst_delta_vth_mv()).value() / fresh;
        guardband = guardband.max(degradation);
        if epoch % config.sample_every.max(1) == 0 {
            series.push(system.time(), degradation);
        }
    }

    publish(policy.name(), system.metrics());
    let final_em = system.worst_em_damage();
    let projected =
        (final_em.value() > 0.0).then(|| Seconds::new(system.time().value() / final_em.value()));
    Ok(LifetimeOutcome {
        policy: policy.name(),
        degradation_series: series,
        required_guardband: guardband,
        final_em_damage: final_em,
        projected_em_ttf: projected,
        final_permanent_mv: system.worst_permanent_mv(),
        recovery_overhead: policy.recovery_overhead(),
        throughput_loss: Fraction::clamped(displaced / demanded.max(1e-300)),
        metrics: system.metrics().clone(),
    })
}

/// Adds one lifetime's scheduler counts to the registry's
/// `sched.{policy}.*` counters, so a snapshot can compare the policies
/// one process ran.
fn publish(policy: &str, metrics: &MetricsReport) {
    for (leaf, count) in [
        ("epochs", metrics.epochs),
        ("transitions_to_normal", metrics.transitions_to_normal),
        ("transitions_to_em_ar", metrics.transitions_to_em_ar),
        ("transitions_to_bti_ar", metrics.transitions_to_bti_ar),
        ("core_epochs_normal", metrics.epochs_normal),
        ("core_epochs_em_ar", metrics.epochs_em_ar),
        ("core_epochs_bti_ar", metrics.epochs_bti_ar),
        ("sensor_faults_detected", metrics.sensor_faults_detected),
        ("conservative_core_epochs", metrics.conservative_core_epochs),
    ] {
        dh_obs::counter(&format!("sched.{policy}.{leaf}")).add(count);
    }
}

/// Runs the same lifetime under several policies (the Fig. 12(b)
/// comparison).
///
/// # Errors
///
/// Propagates the first error from any run.
pub fn compare_policies(
    config: &LifetimeConfig,
    policies: &[Policy],
    seed: u64,
) -> Result<Vec<LifetimeOutcome>, SchedError> {
    policies
        .iter()
        .map(|&p| run_lifetime(config, p, seed))
        .collect()
}

/// One seed's result in a Monte-Carlo guardband sweep: the seed that drove
/// it, the guardband it required, and the full lifetime outcome behind that
/// number. Keeping the triple together lets every consumer — the fleet
/// layer's streaming aggregates, plotting — share one aggregation path
/// instead of re-deriving context from a bare `Vec<f64>`.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The RNG seed this lifetime ran under.
    pub seed: u64,
    /// The run's required frequency guardband
    /// ([`LifetimeOutcome::required_guardband`], duplicated for cheap
    /// aggregation without touching the outcome).
    pub guardband: f64,
    /// The full lifetime outcome.
    pub outcome: LifetimeOutcome,
}

/// Runs `seeds` independent lifetimes in parallel and returns each run's
/// [`SeedOutcome`], in seed order.
///
/// Seeds are handed out one at a time by [`dh_exec::par_map`]'s
/// self-scheduling queue rather than pre-chunked: per-seed cost is
/// heavily skewed (early-failing seeds finish fast), so static
/// contiguous chunks leave most workers idle behind the unluckiest one.
/// Each seed's run is independent of thread count, so the output vector
/// is bit-identical however many workers participate.
///
/// # Errors
///
/// Propagates the error of the lowest failing seed.
pub fn monte_carlo_guardband(
    config: &LifetimeConfig,
    policy: Policy,
    seeds: std::ops::Range<u64>,
) -> Result<Vec<SeedOutcome>, SchedError> {
    let seeds: Vec<u64> = seeds.collect();
    dh_exec::par_map(&seeds, |&seed| {
        run_lifetime(config, policy, seed).map(|outcome| SeedOutcome {
            seed,
            guardband: outcome.required_guardband,
            outcome,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short() -> LifetimeConfig {
        LifetimeConfig {
            years: 0.2,
            sample_every: 4,
            ..LifetimeConfig::default()
        }
    }

    #[test]
    fn guardband_ordering_matches_the_papers_story() {
        let config = short();
        let none = run_lifetime(&config, Policy::NoRecovery, 3).unwrap();
        let passive = run_lifetime(&config, Policy::PassiveIdle, 3).unwrap();
        let deep = run_lifetime(&config, Policy::periodic_deep_default(), 3).unwrap();
        assert!(
            none.required_guardband > passive.required_guardband,
            "none {} passive {}",
            none.required_guardband,
            passive.required_guardband
        );
        assert!(
            passive.required_guardband > deep.required_guardband,
            "passive {} deep {}",
            passive.required_guardband,
            deep.required_guardband
        );
    }

    #[test]
    fn deep_recovery_extends_projected_em_ttf() {
        let config = short();
        let passive = run_lifetime(&config, Policy::PassiveIdle, 3).unwrap();
        let deep = run_lifetime(&config, Policy::periodic_deep_default(), 3).unwrap();
        let (p, d) = (
            passive.projected_em_ttf.expect("damage accumulated"),
            deep.projected_em_ttf.expect("damage accumulated"),
        );
        assert!(
            d > p,
            "deep TTF {} y vs passive {} y",
            d.as_years(),
            p.as_years()
        );
    }

    #[test]
    fn series_is_sampled_and_bounded() {
        let config = short();
        let out = run_lifetime(&config, Policy::PassiveIdle, 1).unwrap();
        assert!(out.degradation_series.len() > 10);
        for s in &out.degradation_series {
            assert!((0.0..1.0).contains(&s.value));
        }
        assert!(
            out.required_guardband < 0.2,
            "guardband {}",
            out.required_guardband
        );
    }

    #[test]
    fn compare_policies_returns_one_outcome_each() {
        let config = short();
        let outs = compare_policies(
            &config,
            &[
                Policy::NoRecovery,
                Policy::PassiveIdle,
                Policy::periodic_deep_default(),
            ],
            7,
        )
        .unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].policy, "no-recovery");
        assert_eq!(outs[2].policy, "periodic-deep");
    }

    #[test]
    fn monte_carlo_runs_all_seeds_in_parallel() {
        let config = LifetimeConfig {
            years: 0.05,
            ..short()
        };
        let outs = monte_carlo_guardband(&config, Policy::PassiveIdle, 0..6).unwrap();
        assert_eq!(outs.len(), 6);
        assert!(outs.iter().all(|o| o.guardband > 0.0));
        // Results come back in seed order, carrying their seed and the
        // guardband duplicated out of the full outcome.
        for (o, seed) in outs.iter().zip(0u64..) {
            assert_eq!(o.seed, seed);
            assert_eq!(o.guardband, o.outcome.required_guardband);
        }
        // Seeds differ, so outcomes differ (workload randomness).
        let min = outs
            .iter()
            .map(|o| o.guardband)
            .fold(f64::INFINITY, f64::min);
        let max = outs.iter().map(|o| o.guardband).fold(0.0, f64::max);
        assert!(max > min);
    }

    #[test]
    fn monte_carlo_matches_sequential_runs() {
        let config = LifetimeConfig {
            years: 0.05,
            ..short()
        };
        let parallel = monte_carlo_guardband(&config, Policy::PassiveIdle, 10..13).unwrap();
        for (i, seed) in (10u64..13).enumerate() {
            let seq = run_lifetime(&config, Policy::PassiveIdle, seed).unwrap();
            assert_eq!(parallel[i].seed, seed);
            assert_eq!(parallel[i].guardband, seq.required_guardband);
            assert_eq!(
                parallel[i].outcome.final_permanent_mv,
                seq.final_permanent_mv
            );
        }
    }

    #[test]
    fn throughput_loss_is_far_below_the_scheduled_overhead() {
        // The paper's recovery intervals come out of the idle budget: the
        // periodic policy schedules 15 % of core time but displaces almost
        // none of the demanded work (only the >85 %-utilized cores lose
        // anything).
        let config = short();
        let deep = run_lifetime(&config, Policy::periodic_deep_default(), 3).unwrap();
        assert!(
            deep.throughput_loss.value() < 0.5 * deep.recovery_overhead.value(),
            "loss {} vs overhead {}",
            deep.throughput_loss.value(),
            deep.recovery_overhead.value()
        );
        // Baselines displace nothing.
        let passive = run_lifetime(&config, Policy::PassiveIdle, 3).unwrap();
        assert_eq!(passive.throughput_loss.value(), 0.0);
    }

    #[test]
    fn outcome_carries_the_scheduling_metrics() {
        let config = short();
        let deep = run_lifetime(&config, Policy::periodic_deep_default(), 3).unwrap();
        let m = &deep.metrics;
        let expected = (dh_units::Seconds::from_years(config.years) / config.system.epoch)
            .ceil()
            .max(1.0) as u64;
        assert_eq!(m.epochs, expected);
        assert_eq!(m.core_epochs, m.epochs * 16);
        assert!(m.bti_recovery_seconds > 0.0);
        assert!(m.bti_healed_mv > 0.0);
        let none = run_lifetime(&config, Policy::NoRecovery, 3).unwrap();
        assert_eq!(none.metrics.bti_recovery_seconds, 0.0);
        assert_eq!(none.metrics.epochs_normal, none.metrics.core_epochs);
    }

    #[test]
    fn each_lifetime_adds_its_counts_to_the_policy_counters_once() {
        // No other test here runs a rotation lifetime, and a system
        // stepped directly publishes nothing, so only the two lifetimes
        // below move these counters.
        let read = |leaf: &str| dh_obs::counter(&format!("sched.rotation.{leaf}")).get();
        let leaves = [
            "epochs",
            "core_epochs_normal",
            "core_epochs_bti_ar",
            "transitions_to_bti_ar",
        ];
        let before = leaves.map(read);
        let config = LifetimeConfig {
            years: 0.05,
            ..short()
        };
        let runs = [1, 2].map(|seed| {
            run_lifetime(&config, Policy::rotation_default(), seed)
                .unwrap()
                .metrics
        });
        ManyCoreSystem::new(config.system.clone())
            .unwrap()
            .step(Policy::rotation_default())
            .unwrap();
        let totals = [
            runs[0].epochs + runs[1].epochs,
            runs[0].epochs_normal + runs[1].epochs_normal,
            runs[0].epochs_bti_ar + runs[1].epochs_bti_ar,
            runs[0].transitions_to_bti_ar + runs[1].transitions_to_bti_ar,
        ];
        assert!(totals[2] > 0, "rotation schedules deep recovery");
        for ((leaf, before), total) in leaves.into_iter().zip(before).zip(totals) {
            assert_eq!(read(leaf) - before, total, "sched.rotation.{leaf}");
        }
    }

    #[test]
    fn invalid_lifetime_is_rejected() {
        let mut config = short();
        config.years = 0.0;
        assert!(run_lifetime(&config, Policy::NoRecovery, 0).is_err());
        config.years = f64::NAN;
        assert!(run_lifetime(&config, Policy::NoRecovery, 0).is_err());
    }

    #[test]
    fn adaptive_tracks_passive_worst_case_with_lagged_sensing() {
        // The adaptive policy's sensor lags one epoch, so its guardband is
        // set by the same first-epoch transient as passive idle (within a
        // few percent of thermal-coupling noise); after triggering it
        // behaves like the periodic policy.
        let config = short();
        let adaptive = run_lifetime(&config, Policy::adaptive_default(), 3).unwrap();
        let passive = run_lifetime(&config, Policy::PassiveIdle, 3).unwrap();
        assert!(adaptive.required_guardband <= passive.required_guardband * 1.05);
        // But it prevents permanent accumulation, unlike passive idle.
        assert!(adaptive.final_permanent_mv < passive.final_permanent_mv);
    }
}
