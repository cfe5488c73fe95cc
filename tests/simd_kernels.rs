//! SIMD kernel acceptance: the vectorized wear kernels agree with their
//! scalar references.
//!
//! * The `dh-simd` batched exponentials match libm to ≤ 1e-12 relative
//!   error over the whole wear-kernel domain, including the exact
//!   saturation cutoffs.
//! * The CET structure-of-arrays SIMD kernels reproduce the scalar
//!   `stress_reference`/`recover_reference` oracle to ≤ 1e-12 relative
//!   occupancy error, property-tested across random trap ensembles,
//!   lane-remainder ensemble sizes (not multiples of
//!   [`deep_healing::simd::LANES`]), and stress times that straddle the
//!   saturated-exponent boundary.
//! * Every backend the host runs (AVX-512, AVX2, scalar) is
//!   bit-identical to the others through a full stress/recover cycle —
//!   the runtime dispatch can never change a trajectory.

use std::sync::{Mutex, MutexGuard, OnceLock};

use deep_healing::bti::{RecoveryCondition, StressCondition, TrapEnsemble};
use deep_healing::simd;
use deep_healing::units::rng::seeded_rng;
use deep_healing::units::{Kelvin, Seconds, Volts};
use proptest::prelude::*;

/// Serialises tests that flip the process-global backend override.
fn dispatch_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-30)
}

/// A random-but-calibrated ensemble: paper-fitted rates with per-trap
/// variation drawn from `seed`. `n_traps` deliberately ranges over
/// non-multiples of the SIMD lane width so remainder lanes are covered.
/// `None` when the Table I fit diverges at this size (too few traps to
/// hit the calibration tolerance) — callers skip those sizes.
fn random_ensemble(n_traps: usize, seed: u64) -> Option<TrapEnsemble> {
    let mut rng = seeded_rng(seed, "simd-kernel-acceptance");
    TrapEnsemble::paper_calibrated(n_traps)
        .ok()
        .map(|e| e.with_variation(0.3, &mut rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The SIMD stress/recover kernels track the scalar oracle to
    /// ≤ 1e-12 relative occupancy error over random ensembles, lane
    /// remainders, and stress times from seconds to days (the long end
    /// drives capture exponents across the saturation boundary).
    ///
    /// Per trap the hard occupancy `h` and the total `s + h` are compared.
    /// The soft occupancy alone is not: for a nearly hardened trap it is
    /// `1 − h`, so one ulp of `h` is up to ~2e-11 relative error in `s`.
    #[test]
    fn simd_kernels_match_scalar_reference_over_random_ensembles(
        n_traps in 128usize..400,
        seed in 0u64..1_000,
        stress_hours in 0.001f64..48.0,
        recover_minutes in 0.5f64..240.0,
    ) {
        let ensemble = random_ensemble(n_traps, seed);
        prop_assume!(ensemble.is_some());
        let mut fast = ensemble.unwrap();
        let mut reference = fast.clone();
        let stress = StressCondition::ACCELERATED;
        let recover = RecoveryCondition::ACTIVE_ACCELERATED;
        for _ in 0..3 {
            fast.stress(Seconds::from_hours(stress_hours), stress);
            fast.recover(Seconds::from_minutes(recover_minutes), recover);
            reference.stress_reference(Seconds::from_hours(stress_hours), stress);
            reference.recover_reference(Seconds::from_minutes(recover_minutes), recover);
        }
        let (soft_a, hard_a) = fast.occupancy_columns();
        let (soft_b, hard_b) = reference.occupancy_columns();
        for i in 0..soft_a.len() {
            let (ha, hb) = (hard_a[i], hard_b[i]);
            prop_assert!(
                rel_diff(ha, hb) <= 1e-12,
                "hard occupancy {i}: {ha} vs {hb} (n={n_traps})"
            );
            let (ta, tb) = (soft_a[i] + ha, soft_b[i] + hb);
            prop_assert!(
                rel_diff(ta, tb) <= 1e-12,
                "total occupancy {i}: {ta} vs {tb} (n={n_traps})"
            );
        }
        prop_assert!(rel_diff(fast.delta_vth_mv(), reference.delta_vth_mv()) <= 1e-12);
    }

    /// The batched exponentials match libm to ≤ 1e-12 relative error,
    /// with extra density right at the saturated-exponent boundaries
    /// where the fast paths switch on.
    #[test]
    fn batched_exponentials_match_libm(
        x in 0.0f64..800.0,
        boundary_offset in -1e-9f64..1e-9,
    ) {
        prop_assert!(rel_diff(simd::exp_neg(x), (-x).exp()) <= 1e-12, "exp_neg({x})");
        prop_assert!(
            rel_diff(simd::one_minus_exp_neg(x), -(-x).exp_m1()) <= 1e-12,
            "one_minus_exp_neg({x})"
        );
        // Straddle the exact cutoffs: below them the polynomial runs,
        // at/above them the result is exactly 1.0 / 0.0.
        let near_sat = simd::ONE_MINUS_EXP_NEG_SATURATE + boundary_offset;
        let v = simd::one_minus_exp_neg(near_sat);
        prop_assert!((v - 1.0).abs() <= f64::EPSILON, "near saturation: {v}");
        if near_sat >= simd::ONE_MINUS_EXP_NEG_SATURATE {
            prop_assert!(v == 1.0, "at/after the cutoff the result is exact");
        }
        let near_under = simd::EXP_NEG_UNDERFLOW + boundary_offset;
        let u = simd::exp_neg(near_under);
        prop_assert!((0.0..=1e-300).contains(&u), "near underflow: {u}");
        if near_under >= simd::EXP_NEG_UNDERFLOW {
            prop_assert!(u == 0.0);
        }
    }
}

#[test]
fn dispatch_backends_are_bit_identical_through_a_wear_cycle() {
    let _g = dispatch_lock();
    let runs = simd::each_backend(|_| {
        // 203 = 50 lane groups of 4 plus a 3-lane remainder.
        let mut e = random_ensemble(203, 77).expect("calibration converges");
        for _ in 0..4 {
            e.stress(Seconds::from_hours(6.0), StressCondition::ACCELERATED);
            e.recover(
                Seconds::from_minutes(30.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
        }
        let (soft, hard) = e.occupancy_columns();
        let bits: Vec<(u64, u64)> = soft
            .iter()
            .zip(hard)
            .map(|(s, h)| (s.to_bits(), h.to_bits()))
            .collect();
        (bits, e.delta_vth_mv().to_bits())
    });
    let (_, scalar) = &runs[0];
    for (b, run) in &runs[1..] {
        assert_eq!(
            run, scalar,
            "backend dispatch must never change a trajectory ({b} vs scalar)"
        );
    }
}

#[test]
fn saturated_fast_path_is_a_rounding_identity() {
    let _g = dispatch_lock();
    // A two-day accelerated stress drives every capture exponent far past
    // the saturation cutoff: the group fast path handles whole lanes.
    // The scalar oracle has no fast path; ≤ 1e-12 agreement here means
    // the lane-granular decision changed nothing.
    let mut fast = random_ensemble(128, 5).expect("calibration converges");
    let mut reference = fast.clone();
    let two_days = Seconds::from_hours(48.0);
    fast.stress(two_days, StressCondition::ACCELERATED);
    reference.stress_reference(two_days, StressCondition::ACCELERATED);
    let (soft_a, _) = fast.occupancy_columns();
    let (soft_b, _) = reference.occupancy_columns();
    for (a, b) in soft_a.iter().zip(soft_b) {
        assert!(rel_diff(*a, *b) <= 1e-12, "{a} vs {b}");
    }

    // An artificial condition right at the knee: weak overdrive and a
    // short step leave most exponents *below* the cutoff; both kernels
    // must still agree (the fast path simply never fires).
    let knee = StressCondition {
        gate_voltage: Volts::new(0.4),
        temperature: Kelvin::new(25.0 + 273.15),
    };
    let mut fast = random_ensemble(299, 9).expect("calibration converges");
    let mut reference = fast.clone();
    fast.stress(Seconds::new(2.0), knee);
    reference.stress_reference(Seconds::new(2.0), knee);
    let (soft_a, _) = fast.occupancy_columns();
    let (soft_b, _) = reference.occupancy_columns();
    for (a, b) in soft_a.iter().zip(soft_b) {
        assert!(rel_diff(*a, *b) <= 1e-12, "{a} vs {b}");
    }
}
