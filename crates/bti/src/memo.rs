//! The calibration cache: every CET ensemble this process has fitted, one
//! per distinct `(n_traps, targets)`.
//!
//! The emission-CDF knot fit simulates the full 24 h-stress / 6 h-recovery
//! protocol up to 40 times, so every test, bench and repro binary that
//! builds an ensemble fits it once and shares the result behind an
//! [`Arc`]. A process builds a handful of calibrations, so the cache is a
//! list searched linearly and never evicts.

use std::sync::{Arc, Mutex, PoisonError};

use crate::calibration::TableOneTargets;
use crate::cet::TrapEnsemble;
use crate::error::BtiError;

/// Identity of one calibration: the trap count plus the exact bit
/// patterns of every target parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CalibrationKey {
    n_traps: usize,
    bits: [u64; 9],
}

static FITTED: Mutex<Vec<(CalibrationKey, Arc<TrapEnsemble>)>> = Mutex::new(Vec::new());

/// The ensemble fitted for `n_traps` traps against `targets`: the cached
/// one, else the one `fit` returns, which is cached.
///
/// The lock is held across `fit`, so callers racing on one key fit once
/// and the others receive the winner's `Arc`. A failed fit is returned
/// and not stored, so a later call fits again. A lock poisoned by a
/// panicking fit is recovered: the list only ever gains whole entries.
pub(crate) fn fitted(
    n_traps: usize,
    targets: &TableOneTargets,
    fit: impl FnOnce() -> Result<TrapEnsemble, BtiError>,
) -> Result<Arc<TrapEnsemble>, BtiError> {
    let key = CalibrationKey {
        n_traps,
        bits: targets.bit_key(),
    };
    let mut cache = FITTED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, ensemble)) = cache.iter().find(|(cached, _)| *cached == key) {
        return Ok(Arc::clone(ensemble));
    }
    let ensemble = Arc::new(fit()?);
    cache.push((key, Arc::clone(&ensemble)));
    Ok(ensemble)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// An ensemble for stand-in fits to return. The stand-ins run under
    /// trap counts above 10⁶, which no real calibration uses.
    fn ensemble() -> TrapEnsemble {
        TrapEnsemble::paper_calibrated(500).expect("calibration converges")
    }

    #[test]
    fn computes_once_per_key() {
        let targets = TableOneTargets::measurement_column();
        let value = ensemble();
        let fits = AtomicUsize::new(0);
        let fit = || {
            fits.fetch_add(1, Ordering::SeqCst);
            Ok(value.clone())
        };
        let a = fitted(1_000_001, &targets, fit).unwrap();
        let b = fitted(1_000_001, &targets, fit).unwrap();
        let c = fitted(1_000_002, &targets, fit).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "the second call must be a cache hit");
        assert!(!Arc::ptr_eq(&a, &c), "another key fits its own ensemble");
        assert_eq!(fits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let targets = TableOneTargets::measurement_column();
        let value = ensemble();
        let attempts = AtomicUsize::new(0);
        let failing = || {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err(BtiError::UnsolvableCalibration("stand-in".into()))
        };
        assert!(fitted(1_000_003, &targets, failing).is_err());
        assert!(fitted(1_000_003, &targets, failing).is_err());
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "each call fits again");
        let stored = fitted(1_000_003, &targets, || Ok(value.clone())).unwrap();
        let hit = fitted(1_000_003, &targets, failing).unwrap();
        assert!(Arc::ptr_eq(&stored, &hit));
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn racing_callers_share_one_compute() {
        // A trap count no other test uses, so the racers really fit, and
        // one the fit converges at.
        let targets = TableOneTargets::measurement_column();
        let start = Barrier::new(4);
        let shared: Vec<Arc<TrapEnsemble>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        TrapEnsemble::calibrated_shared(333, &targets).unwrap()
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().expect("racer panicked"))
                .collect()
        });
        for ensemble in &shared {
            assert!(Arc::ptr_eq(ensemble, &shared[0]), "a racer fit its own");
        }
    }
}
