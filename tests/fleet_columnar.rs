//! The columnar fleet engine's bit-identity contract against the
//! per-chip reference path.
//!
//! The production engine steps shards as structure-of-arrays column
//! sweeps ([`dh_fleet`]'s `ChipStore` + `dispatch!` kernels); the
//! original per-chip implementation survives as a `#[doc(hidden)]`
//! reference oracle. These tests pin the two together:
//!
//! * property-tested over random population geometries, seeds, policy
//!   mixes, budgets, horizons up to 1.5 years, the physics corners that
//!   steer the kernel's branches (recovery bias, heal fraction, failure
//!   guardband), variation models that reach the corner draw's edges
//!   (zero σ's, both utilization clamps) and sensor/poison fault plans, the columnar report and
//!   degraded-report fingerprints equal the reference's **bit for bit**
//!   (and the headline statistics agree to ≤ 1e-12, which bit identity
//!   makes trivial);
//! * fixed configs reach each rare kernel branch — a deep-recovery call
//!   that continues the open passive segment, a deep call that is a
//!   no-op, chips failing mid-run — and match the reference there too;
//! * every SIMD backend the host runs reproduces the same fingerprints
//!   as the default one (the `DH_SIMD=scalar` CI job runs the whole suite
//!   forced scalar; this test flips the override at runtime).

use deep_healing::fault::FaultPlan;
use deep_healing::fleet::{
    run_fleet, run_fleet_reference, run_fleet_supervised, FleetConfig, FleetPolicy,
    MaintenanceBudget, VariationModel,
};
use deep_healing::units::{Fraction, Volts};
use dh_exec::RetryPolicy;
use proptest::prelude::*;

/// Recovery biases: the paper's −0.3 V, and two within the 10 mV the
/// device treats as the passive condition, where a deep call continues
/// an open passive segment (and the reverse).
const BIASES: [f64; 3] = [-0.3, -0.004, 0.0];
/// Heal fractions: 0 makes every deep-recovery call a no-op.
const HEAL_FRACTIONS: [f64; 3] = [0.0, 0.15, 0.6];
/// Failure guardbands: at 0.01 chips fail mid-run.
const FAIL_GUARDBANDS: [f64; 2] = [0.1, 0.01];

/// Variation models: the default, every σ zero (each corner is its
/// mean), and a utilization spread wide enough to hit both the 0.05
/// floor and the clamp at 1.
fn variations() -> [VariationModel; 3] {
    [
        VariationModel::default(),
        VariationModel {
            process_sigma: 0.0,
            em_sigma: 0.0,
            temp_sigma_c: 0.0,
            utilization_mean: 0.6,
            utilization_sigma: 0.0,
        },
        VariationModel {
            utilization_mean: 0.5,
            utilization_sigma: 1.0,
            ..VariationModel::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any population, any geometry, any (non-killing) fault plan: the
    /// columnar engine folds the exact bits the reference path folds.
    #[test]
    fn columnar_engine_matches_the_reference_path(
        devices in 1u64..160,
        group_size in 1u64..24,
        shard_groups in 1u64..4,
        seed in 0u64..1_000,
        policy_mix in 0usize..4,
        slots in 0u64..4,
        years in 0.05f64..1.5,
        plan_sel in 0usize..4,
        corner in (0..BIASES.len(), 0..HEAL_FRACTIONS.len(), 0..FAIL_GUARDBANDS.len(), 0..3usize),
    ) {
        let (bias, heal, guard, variation) = corner;
        let config = FleetConfig {
            devices,
            seed,
            years,
            recovery_bias: Volts::new(BIASES[bias]),
            heal_fraction: Fraction::clamped(HEAL_FRACTIONS[heal]),
            fail_guardband: FAIL_GUARDBANDS[guard],
            variation: variations()[variation].clone(),
            shard_size: group_size * shard_groups,
            group_size,
            policies: match policy_mix {
                0 => vec![FleetPolicy::WorstFirst],
                1 => vec![FleetPolicy::Static],
                2 => vec![FleetPolicy::RoundRobin],
                _ => vec![
                    FleetPolicy::WorstFirst,
                    FleetPolicy::RoundRobin,
                    FleetPolicy::Static,
                ],
            },
            budget: MaintenanceBudget { slots_per_group: slots },
            ..FleetConfig::default()
        };
        // Sensor and poison faults only — kill/panic faults exercise the
        // retry machinery the serial reference deliberately lacks.
        let plan = match plan_sel {
            1 => Some(FaultPlan::parse("stuck-chip=3,stuck=0.05", seed).unwrap()),
            2 => Some(FaultPlan::parse("poison-chip=5,poison=0.3", seed).unwrap()),
            3 => Some(FaultPlan::parse("stuck=0.1,poison=0.2", seed).unwrap()),
            _ => None,
        };

        let (ref_report, ref_degraded) =
            run_fleet_reference(&config, plan.as_ref()).unwrap();
        let (col_report, col_degraded) =
            run_fleet_supervised(&config, plan.as_ref(), &RetryPolicy::immediate(1), None)
                .unwrap();

        prop_assert!(
            ref_report.fingerprint() == col_report.fingerprint(),
            "report fingerprints diverged:\n{}\nvs\n{}",
            ref_report.render(),
            col_report.render()
        );
        prop_assert!(ref_report.render() == col_report.render());
        prop_assert!(
            ref_degraded.fingerprint() == col_degraded.fingerprint(),
            "degraded fingerprints diverged:\n{}\nvs\n{}",
            ref_degraded.render(),
            col_degraded.render()
        );
        // The ≤ 1e-12 agreement the issue asks for is implied by bit
        // identity; assert it anyway so a future loosening of the
        // fingerprint comparison cannot silently weaken this bound.
        prop_assert!((ref_report.guardband.mean - col_report.guardband.mean).abs() <= 1e-12);
        prop_assert!((ref_report.guardband.max - col_report.guardband.max).abs() <= 1e-12);
    }
}

/// The three rare paths through the epoch kernel, each on a fixed config
/// that the report shows reaches it, must match the reference bit for
/// bit (the proptest above draws these corners too; this pins that they
/// are reached):
/// * a recovery bias within 10 mV of the passive condition: from the
///   second epoch on, a chip granted a slot continues the passive
///   segment its previous epoch's idle recovery left open;
/// * a heal fraction of 0: every deep-recovery call is a no-op;
/// * a 1% failure guardband: chips fail mid-run while the rest of their
///   group keeps stepping.
#[test]
fn each_rare_kernel_branch_is_reached_and_matches_the_reference() {
    let base = FleetConfig {
        devices: 512,
        seed: 1,
        years: 1.5,
        shard_size: 64,
        group_size: 32,
        policies: vec![
            FleetPolicy::WorstFirst,
            FleetPolicy::RoundRobin,
            FleetPolicy::Static,
        ],
        budget: MaintenanceBudget { slots_per_group: 4 },
        ..FleetConfig::default()
    };
    let cases = [
        (
            "cross-condition continuation",
            FleetConfig {
                recovery_bias: Volts::new(-0.004),
                ..base.clone()
            },
        ),
        (
            "deep no-op",
            FleetConfig {
                heal_fraction: Fraction::clamped(0.0),
                ..base.clone()
            },
        ),
        (
            "mid-run failure",
            FleetConfig {
                fail_guardband: 0.01,
                ..base.clone()
            },
        ),
    ];
    for (branch, config) in &cases {
        let (reference, _) = run_fleet_reference(config, None).unwrap();
        let columnar = run_fleet(config).unwrap();
        assert_eq!(
            reference.fingerprint(),
            columnar.fingerprint(),
            "{branch}: columnar diverged from the reference"
        );
        // Slots were used after the first epoch (for the continuation:
        // an idle segment was open to continue).
        assert!(config.total_epochs() > 1, "{branch}");
        assert!(reference.healed_chip_epochs > reference.devices, "{branch}");
    }
    let failing = &cases[2].1;
    let report = run_fleet(failing).unwrap();
    assert!(
        report.failed > 0 && report.failed < report.devices,
        "mid-run failure: {} of {} failed",
        report.failed,
        report.devices
    );
    assert!(
        report.ttf_years.min < failing.years * 0.5 && report.ttf_years.max > report.ttf_years.min,
        "chips must fail at different epochs well before the horizon: {} to {} y",
        report.ttf_years.min,
        report.ttf_years.max
    );
}

#[test]
fn forced_scalar_backend_reproduces_the_simd_fingerprint() {
    let config = FleetConfig {
        devices: 96,
        years: 0.25,
        shard_size: 16,
        group_size: 16,
        policies: vec![FleetPolicy::WorstFirst, FleetPolicy::RoundRobin],
        budget: MaintenanceBudget { slots_per_group: 2 },
        ..FleetConfig::default()
    };
    let native = run_fleet(&config).unwrap();
    for (b, report) in dh_simd::each_backend(|_| run_fleet(&config).unwrap()) {
        assert_eq!(
            native.fingerprint(),
            report.fingerprint(),
            "{b} and the default ({}) backend must agree bit for bit",
            dh_simd::backend_name()
        );
        assert_eq!(native.render(), report.render());
    }
}
