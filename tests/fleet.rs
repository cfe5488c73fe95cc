//! The fleet subsystem's acceptance contract:
//!
//! * streaming one-pass aggregates agree with exact whole-population
//!   statistics (property-tested over random populations);
//! * the fleet report is **bit-identical** across thread counts and shard
//!   partitionings — a 1-shard serial run equals an N-shard parallel run;
//! * a run killed mid-flight and resumed from its checkpoint produces a
//!   byte-identical final report.
//!
//! Byte identity is compared through [`FleetReport::fingerprint`] (an
//! FNV-1a hash of every field's exact bit pattern — derived `==` would
//! reject the NaN quantiles of an empty TTF distribution) plus the full
//! rendered report text.

use std::sync::{Mutex, MutexGuard, OnceLock};

use deep_healing::fault::TempDir;
use deep_healing::fleet::{
    run_fleet_supervised, CheckpointStore, FleetConfig, FleetPolicy, FleetReport, FleetRun,
    MaintenanceBudget, Snapshot, StreamingSummary,
};
use deep_healing::prelude::*;
use proptest::prelude::*;

/// Serialises tests that touch the global thread cap.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with the engine pinned to `threads` workers (`None` restores
/// the default count), resetting the cap afterwards.
fn with_threads<T>(threads: Option<usize>, f: impl FnOnce() -> T) -> T {
    dh_exec::set_max_threads(threads);
    let out = f();
    dh_exec::set_max_threads(None);
    out
}

fn assert_reports_identical(a: &FleetReport, b: &FleetReport, what: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprints");
    assert_eq!(a.render(), b.render(), "{what}: rendered reports");
}

fn small_fleet() -> FleetConfig {
    FleetConfig {
        devices: 96,
        years: 0.25,
        shard_size: 16,
        group_size: 16,
        policies: vec![FleetPolicy::WorstFirst, FleetPolicy::RoundRobin],
        budget: MaintenanceBudget { slots_per_group: 2 },
        ..FleetConfig::default()
    }
}

/// Exact whole-population quantile by linear interpolation on the sorted
/// sample.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let t = rank - lo as f64;
    sorted[lo] * (1.0 - t) + sorted[hi] * t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any population streamed through the one-pass summary matches the
    /// exact two-pass statistics: moments to numerical precision, P²
    /// quantile estimates to well within the spread of the data.
    #[test]
    fn streaming_summary_matches_exact_population_statistics(
        values in proptest::collection::vec(0.0f64..1.0, 1..400),
    ) {
        let mut summary = StreamingSummary::new();
        for &v in &values {
            summary.push(v);
        }
        let stats = summary.finalize();
        let n = values.len() as f64;

        let mean = values.iter().sum::<f64>() / n;
        prop_assert!(stats.count == values.len() as u64);
        prop_assert!((stats.mean - mean).abs() < 1e-10, "mean {} vs {}", stats.mean, mean);
        if values.len() >= 2 {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!(
                (stats.std_dev - var.sqrt()).abs() < 1e-8,
                "std {} vs {}", stats.std_dev, var.sqrt()
            );
        }

        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert!(stats.min.to_bits() == sorted[0].to_bits());
        prop_assert!(stats.max.to_bits() == sorted[sorted.len() - 1].to_bits());

        // Quantile estimates always stay inside the observed range, are
        // exact for ≤5 observations, and track the exact quantiles once
        // the markers have data to work with.
        for (est, q) in [(stats.p50, 0.5), (stats.p90, 0.9), (stats.p99, 0.99)] {
            let exact = exact_quantile(&sorted, q);
            prop_assert!(
                stats.min <= est && est <= stats.max,
                "p{} estimate {} outside [{}, {}]", q * 100.0, est, stats.min, stats.max
            );
            if values.len() <= 5 {
                prop_assert!(
                    est == exact,
                    "p{} estimate {} must be the exact order statistic {} for n={}",
                    q * 100.0, est, exact, values.len()
                );
            }
            if values.len() >= 50 {
                prop_assert!(
                    (est - exact).abs() < 0.25,
                    "p{} estimate {} far from exact {} (n={})",
                    q * 100.0, est, exact, values.len()
                );
            }
        }
    }
}

#[test]
fn fleet_report_is_identical_serial_one_shard_vs_parallel_many_shards() {
    let _g = lock();
    // One shard holding the whole fleet, folded on a single worker...
    let one_shard = FleetConfig {
        shard_size: 96,
        ..small_fleet()
    };
    let serial = with_threads(Some(1), || run_fleet(&one_shard).unwrap());
    // ...versus six shards raced across the default worker count.
    let parallel = with_threads(None, || run_fleet(&small_fleet()).unwrap());
    let again = with_threads(None, || run_fleet(&small_fleet()).unwrap());

    assert_reports_identical(&serial, &parallel, "1-shard serial vs N-shard parallel");
    assert_reports_identical(&parallel, &again, "same config twice");
    assert_eq!(serial.devices, 96);
}

/// Clean supervision: one attempt per shard, no backoff.
fn retry() -> dh_exec::RetryPolicy {
    dh_exec::RetryPolicy::immediate(1)
}

/// Resumes `config` from `store` and finishes it, checkpointing every
/// `every` shards.
fn resume(config: &FleetConfig, store: &CheckpointStore, every: u64) -> FleetReport {
    let (report, degraded) =
        run_fleet_supervised(config, None, &retry(), Some((store, every))).unwrap();
    assert!(!degraded.is_degraded(), "{}", degraded.render());
    report
}

/// The cursor of the newest generation in `store`.
fn newest_cursor(store: &CheckpointStore) -> u64 {
    let bytes = std::fs::read(store.base_path()).unwrap();
    Snapshot::decode(&bytes).unwrap().cursor
}

#[test]
fn killed_and_resumed_run_reports_byte_identically() {
    let _g = lock();
    let config = small_fleet();
    let uninterrupted = run_fleet(&config).unwrap();

    let dir = TempDir::new("fleet-resume-test");
    let store = CheckpointStore::new(dir.join("run.dhfl"), 3);

    // "Kill" a run partway: fold two of the six shards, checkpoint, and
    // drop the run without finishing it.
    {
        let mut run = FleetRun::new(config.clone()).unwrap();
        assert!(
            !run.step_supervised(2, None, &retry()),
            "two of six shards must not finish the run"
        );
        store.write(&run.snapshot()).unwrap();
    }
    assert_eq!(
        newest_cursor(&store),
        2,
        "checkpoint records the shard boundary"
    );

    // A fresh process resumes from the store and finishes.
    let resumed = resume(&config, &store, 1);
    assert_reports_identical(&uninterrupted, &resumed, "uninterrupted vs killed+resumed");

    // The newest checkpoint left on disk is the completed run.
    assert_eq!(newest_cursor(&store), config.shard_count());
}

#[test]
fn legacy_v2_checkpoint_fixture_resumes_to_the_pinned_report() {
    let _g = lock();
    let config = small_fleet();
    // The fixture was generated from exactly this config by a DHFL v2
    // build; if the config fingerprint drifts the fixture must be
    // regenerated, not the assertion loosened.
    assert_eq!(
        config.fingerprint(),
        0xc13c_bfe2_456c_6849,
        "fixture config drifted"
    );
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/fleet_v2.dhfl");
    let bytes = std::fs::read(&fixture).expect("checked-in v2 checkpoint");
    let snap = Snapshot::decode(&bytes).expect("checked-in v2 checkpoint decodes");
    assert_eq!(snap.cursor, 2, "fixture holds two of six folded shards");

    let mut run = FleetRun::resume(config.clone(), snap).unwrap();
    while !run.step_supervised(1, None, &retry()) {}
    let resumed = run.report().unwrap();
    let whole = run_fleet(&config).unwrap();
    assert_reports_identical(&whole, &resumed, "v2 fixture resume vs fresh run");
    assert_eq!(
        resumed.fingerprint(),
        0x14f3_6d23_87f3_7887,
        "pinned v2-resume report fingerprint"
    );
}

#[test]
fn resume_is_thread_count_invariant() {
    let _g = lock();
    let config = small_fleet();
    let dir = TempDir::new("fleet-resume-threads-test");

    // Start serially, checkpoint, then resume on the full worker pool —
    // the partitioning of work before and after the kill is irrelevant.
    let store = CheckpointStore::new(dir.join("run.dhfl"), 1);
    with_threads(Some(1), || {
        let mut run = FleetRun::new(config.clone()).unwrap();
        run.step_supervised(3, None, &retry());
        store.write(&run.snapshot()).unwrap();
    });
    let resumed = with_threads(None, || resume(&config, &store, 2));
    let whole = with_threads(None, || run_fleet(&config).unwrap());
    assert_reports_identical(&whole, &resumed, "serial start, parallel finish");
}
