//! Supervised parallel fold: worker panics become structured errors,
//! failing shards retry with bounded exponential backoff, and shards
//! that keep failing are quarantined so the run completes degraded
//! instead of aborting.
//!
//! The supervised fold *is* [`crate::par_map_fold`] over each item's
//! supervised attempts — same hand-out, reorder window and backpressure,
//! with successes folded in index order — so a supervised run whose tasks
//! never panic performs *exactly* the same fold sequence and produces
//! bit-identical accumulator state. That property is what lets the fleet
//! layer route every run (chaos or production) through one code path.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

/// Bounded-retry policy for supervised shard execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per shard (first try included). Clamped to at
    /// least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts with 10 ms → 500 ms exponential backoff.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and no backoff sleeps —
    /// what tests and deterministic chaos replays want.
    pub fn immediate(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The sleep before retry number `retry` (1-based):
    /// `base * 2^(retry-1)`, capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let doublings = retry.saturating_sub(1).min(20);
        self.base_backoff
            .checked_mul(1 << doublings)
            .map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }
}

/// A shard that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// The item index that kept failing.
    pub index: usize,
    /// Attempts made (equals the policy's `max_attempts`).
    pub attempts: u32,
    /// Panic message from the final attempt.
    pub message: String,
}

impl core::fmt::Display for ShardError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "shard {} failed after {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

impl std::error::Error for ShardError {}

/// What a supervised fold produced: the accumulator over every
/// successful shard, plus the shards that were quarantined and how many
/// attempts had to be retried along the way.
#[derive(Debug)]
pub struct SupervisedOutcome<A> {
    /// The fold result over all non-quarantined shards, in index order.
    pub acc: A,
    /// Quarantined shards, sorted by index.
    pub failures: Vec<ShardError>,
    /// Attempts that panicked and were re-executed (across all shards,
    /// whether or not the shard eventually succeeded).
    pub retries: u64,
}

thread_local! {
    /// True while the current thread is inside a supervised
    /// `catch_unwind`, so the panic hook stays quiet for
    /// injected/expected panics.
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr backtrace for panics the supervisor is about to catch, and
/// chains to the previous hook for everything else.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Renders a caught panic payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `f(attempt)` (1-based) under `catch_unwind` with the retry policy
/// and a quiet panic hook; returns the value or the final failure, as item
/// `index`, plus how many attempts were retried. A retried `f` must first
/// undo what the panicking attempt left half done.
pub fn run_attempts<U>(
    index: usize,
    retry: &RetryPolicy,
    mut f: impl FnMut(u32) -> U,
) -> (Result<U, ShardError>, u64) {
    install_quiet_hook();
    let max_attempts = retry.max_attempts.max(1);
    let mut failed = 0u32;
    loop {
        let attempt = failed + 1;
        SUPERVISED.with(|flag| flag.set(true));
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(attempt)));
        SUPERVISED.with(|flag| flag.set(false));
        match result {
            Ok(value) => return (Ok(value), u64::from(failed)),
            Err(payload) => {
                dh_obs::counter!("exec.supervisor.panics").incr();
                failed += 1;
                if failed >= max_attempts {
                    return (
                        Err(ShardError {
                            index,
                            attempts: failed,
                            message: panic_message(payload),
                        }),
                        u64::from(failed - 1),
                    );
                }
                dh_obs::counter!("exec.supervisor.retries").incr();
                let backoff = retry.backoff(failed);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

/// Supervised version of [`crate::par_map_fold`]: maps `f(index,
/// attempt)` over `0..n`, folding successes **in index order** on the
/// calling thread, converting panics into [`ShardError`]s with bounded
/// retry, and quarantining shards that exhaust their attempts.
///
/// `attempt` is 1-based and increments on retry, so deterministic fault
/// injection keyed on `(index, attempt)` can model transient failures
/// that succeed when retried.
///
/// The run always completes: quarantined shards are simply absent from
/// the fold and enumerated in [`SupervisedOutcome::failures`] (sorted
/// by index, identical at any thread count). When no task panics the
/// fold sequence — and therefore the accumulator — is bit-identical to
/// [`crate::par_map_fold`].
pub fn par_map_fold_supervised<U, A, F, G>(
    n: usize,
    f: F,
    init: A,
    mut fold: G,
    retry: &RetryPolicy,
) -> SupervisedOutcome<A>
where
    U: Send,
    F: Fn(usize, u32) -> U + Sync,
    G: FnMut(A, usize, U) -> A,
{
    let mut failures = Vec::new();
    let mut retries = 0u64;
    let acc = crate::par_map_fold(
        n,
        |index| run_attempts(index, retry, |attempt| f(index, attempt)),
        init,
        |acc, index, (result, retried)| {
            retries += retried;
            match result {
                Ok(value) => fold(acc, index, value),
                Err(error) => {
                    failures.push(error);
                    acc
                }
            }
        },
    );

    dh_obs::counter!("exec.supervisor.quarantined").add(failures.len() as u64);
    SupervisedOutcome {
        acc,
        failures,
        retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::override_guard;
    use crate::{par_map_fold, set_max_threads};

    #[test]
    fn clean_run_matches_unsupervised_fold_bit_for_bit() {
        let _guard = override_guard();
        let task = |i: usize| (i as f64).sqrt() + 0.125;
        let plain = par_map_fold(257, task, 0.0f64, |acc, _, v| acc * 1.0000001 + v);
        for threads in [1, 4] {
            set_max_threads(Some(threads));
            let outcome = par_map_fold_supervised(
                257,
                |i, _attempt| task(i),
                0.0f64,
                |acc, _, v| acc * 1.0000001 + v,
                &RetryPolicy::default(),
            );
            assert_eq!(outcome.acc.to_bits(), plain.to_bits());
            assert!(outcome.failures.is_empty());
            assert_eq!(outcome.retries, 0);
        }
        set_max_threads(None);
    }

    #[test]
    fn persistent_panic_is_quarantined_not_fatal() {
        let _guard = override_guard();
        for threads in [1, 4] {
            set_max_threads(Some(threads));
            let outcome = par_map_fold_supervised(
                64,
                |i, _attempt| {
                    if i == 13 || i == 40 {
                        panic!("injected fault: shard {i}");
                    }
                    1u64
                },
                0u64,
                |acc, _, v| acc + v,
                &RetryPolicy::immediate(3),
            );
            assert_eq!(outcome.acc, 62, "two shards quarantined");
            let failed: Vec<usize> = outcome.failures.iter().map(|e| e.index).collect();
            assert_eq!(failed, vec![13, 40], "failures sorted by index");
            assert!(outcome.failures[0].message.contains("shard 13"));
            assert_eq!(outcome.failures[0].attempts, 3);
            // Two shards, each retried twice before quarantine.
            assert_eq!(outcome.retries, 4);
        }
        set_max_threads(None);
    }

    #[test]
    fn transient_panic_succeeds_on_retry() {
        let _guard = override_guard();
        set_max_threads(Some(2));
        let outcome = par_map_fold_supervised(
            32,
            |i, attempt| {
                // Shard 5 fails its first two attempts, then succeeds.
                if i == 5 && attempt < 3 {
                    panic!("transient wobble");
                }
                i as u64
            },
            0u64,
            |acc, _, v| acc + v,
            &RetryPolicy::immediate(3),
        );
        set_max_threads(None);
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.acc, (0..32u64).sum::<u64>());
        assert_eq!(outcome.retries, 2);
    }

    #[test]
    fn non_string_panic_payloads_are_described() {
        let _guard = override_guard();
        set_max_threads(Some(1));
        let outcome = par_map_fold_supervised(
            1,
            |_, _| -> u64 { std::panic::panic_any(42_i32) },
            0u64,
            |acc, _, v| acc + v,
            &RetryPolicy::immediate(1),
        );
        set_max_threads(None);
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].message.contains("non-string"));
    }

    #[test]
    fn zero_items_is_a_clean_noop() {
        let outcome = par_map_fold_supervised(
            0,
            |i, _| i,
            7usize,
            |acc, _, v| acc + v,
            &RetryPolicy::default(),
        );
        assert_eq!(outcome.acc, 7);
        assert!(outcome.failures.is_empty());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(35));
        assert_eq!(policy.backoff(30), Duration::from_millis(35));
    }

    #[test]
    fn zero_attempt_policy_still_runs_once() {
        let outcome = par_map_fold_supervised(
            4,
            |i, _| i,
            0usize,
            |acc, _, v| acc + v,
            &RetryPolicy::immediate(0),
        );
        assert_eq!(outcome.acc, 6);
    }
}
