//! Wearout sensors: noisy observers of the true degradation state.
//!
//! The paper's run-time scheduling loop (Fig. 12b) closes through sensors:
//! "novel BTI and EM sensors can be employed to track wearout and feed back
//! the run-time degradation information". Here a BTI sensor is a replica
//! ring oscillator whose frequency is measured with finite precision; an EM
//! sensor measures grid resistance change with a relative error. Sensor
//! noise is what separates the adaptive policy from an oracle — and what
//! the ablation benches sweep.

use rand::rngs::StdRng;

use dh_circuit::RingOscillator;
use dh_units::rng::{seeded_rng, standard_normal};
use dh_units::Fraction;

/// A replica-ring-oscillator BTI sensor.
#[derive(Debug, Clone)]
pub struct BtiSensor {
    ro: RingOscillator,
    /// 1-sigma relative error of the frequency measurement.
    noise_rel: f64,
    /// Fresh (ΔVth = 0) frequency, cached: the inversion needs it on every
    /// measurement and it never changes.
    fresh: dh_units::Hertz,
    rng: StdRng,
}

impl BtiSensor {
    /// Creates a sensor with a given relative frequency-measurement noise
    /// (e.g. `0.002` for 0.2 % counters).
    pub fn new(ro: RingOscillator, noise_rel: f64, seed: u64) -> Self {
        let fresh = ro.frequency(0.0);
        Self {
            ro,
            noise_rel: noise_rel.abs(),
            fresh,
            rng: seeded_rng(seed, "bti-sensor"),
        }
    }

    /// A 0.2 %-accurate sensor on the paper's 75-stage RO.
    pub fn standard(seed: u64) -> Self {
        Self::new(RingOscillator::paper_75_stage(), 0.002, seed)
    }

    /// Measures a device whose true threshold shift is `true_dvth_mv`,
    /// returning the estimated shift in millivolts (≥ 0).
    pub fn measure(&mut self, true_dvth_mv: f64) -> f64 {
        let f_true = self.ro.frequency(true_dvth_mv.max(0.0));
        let noisy = f_true * (1.0 + self.noise_rel * standard_normal(&mut self.rng));
        self.ro
            .infer_delta_vth_mv_given_fresh(noisy, self.fresh)
            .unwrap_or(0.0)
    }
}

/// A resistance-change EM sensor.
#[derive(Debug, Clone)]
pub struct EmSensor {
    /// 1-sigma relative error on the damage estimate.
    noise_rel: f64,
    rng: StdRng,
}

impl EmSensor {
    /// Creates a sensor with a relative error (e.g. `0.05` for 5 %).
    pub fn new(noise_rel: f64, seed: u64) -> Self {
        Self {
            noise_rel: noise_rel.abs(),
            rng: seeded_rng(seed, "em-sensor"),
        }
    }

    /// Measures an accumulated EM damage fraction (0 = fresh, 1 = failed).
    pub fn measure(&mut self, true_damage: Fraction) -> Fraction {
        let noisy = true_damage.value() * (1.0 + self.noise_rel * standard_normal(&mut self.rng));
        Fraction::clamped(noisy.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bti_sensor_tracks_the_true_shift() {
        let mut s = BtiSensor::standard(11);
        for true_mv in [0.0, 10.0, 30.0, 60.0] {
            let estimates: Vec<f64> = (0..200).map(|_| s.measure(true_mv)).collect();
            let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
            assert!((mean - true_mv).abs() < 2.0, "true {true_mv} mean {mean}");
        }
    }

    #[test]
    fn bti_sensor_noise_scales_with_configured_error() {
        let spread = |noise: f64| {
            let mut s = BtiSensor::new(RingOscillator::paper_75_stage(), noise, 5);
            let xs: Vec<f64> = (0..300).map(|_| s.measure(30.0)).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let tight = spread(0.001);
        let loose = spread(0.01);
        assert!(loose > 3.0 * tight, "tight {tight} loose {loose}");
    }

    #[test]
    fn em_sensor_is_clamped_and_unbiased() {
        let mut s = EmSensor::new(0.05, 3);
        let xs: Vec<f64> = (0..500)
            .map(|_| s.measure(Fraction::clamped(0.4)).value())
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.4).abs() < 0.01, "mean {mean}");
        assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn noiseless_sensors_are_exact() {
        let mut bti = BtiSensor::new(RingOscillator::paper_75_stage(), 0.0, 1);
        assert!((bti.measure(25.0) - 25.0).abs() < 1e-6);
        let mut em = EmSensor::new(0.0, 1);
        assert_eq!(em.measure(Fraction::clamped(0.7)), Fraction::clamped(0.7));
    }

    #[test]
    fn sensors_are_reproducible_per_seed() {
        let mut a = BtiSensor::standard(77);
        let mut b = BtiSensor::standard(77);
        for _ in 0..20 {
            assert_eq!(a.measure(12.0), b.measure(12.0));
        }
    }
}
