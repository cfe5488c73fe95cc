//! Workspace-level observability contract.
//!
//! The `dh-obs` registry is always compiled in, and one run must show the
//! cross-crate story (scheduler modes, thermal solves, CET kernels,
//! memoization) in it. The [`MetricsReport`] carried by every lifetime
//! outcome is the per-run view of the same scheduler accounting.

use deep_healing::prelude::*;

fn short_lifetime() -> LifetimeConfig {
    LifetimeConfig {
        years: 0.05,
        ..LifetimeConfig::default()
    }
}

#[test]
fn metrics_report_rides_every_outcome_regardless_of_features() {
    let deep = run_lifetime(&short_lifetime(), Policy::periodic_deep_default(), 9).unwrap();
    let m = &deep.metrics;
    assert!(m.epochs > 0);
    assert_eq!(m.core_epochs, m.epochs * 16);
    assert_eq!(
        m.epochs_normal + m.epochs_em_ar + m.epochs_bti_ar,
        m.core_epochs
    );
    assert!(m.bti_recovery_seconds > 0.0);
    assert!(m.bti_healed_mv > 0.0);
    assert!(m.mode_transitions() >= 16, "one power-on entry per core");
}

#[test]
fn snapshot_json_is_always_well_formed() {
    let json = deep_healing::obs::snapshot().to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"histograms\""));
}

/// One end-to-end run, then every layer's instrumentation is checked
/// against the same snapshot. A single test keeps the global registry
/// free of cross-test interleaving.
#[test]
fn one_run_is_visible_across_every_layer_when_enabled() {
    let mut system = ManyCoreSystem::new(SystemConfig::default())
        .unwrap()
        .with_trap_monitor(400)
        .unwrap();
    let epochs = 6u64;
    for _ in 0..epochs {
        system.step(Policy::periodic_deep_default()).unwrap();
    }

    let snap = deep_healing::obs::snapshot();
    // Scheduler: per-policy mode accounting mirrors the MetricsReport.
    assert!(snap.counter("sched.periodic-deep.epochs") >= epochs);
    assert!(snap.counter("sched.periodic-deep.transitions_to_bti_ar") >= 16);
    assert!(snap.counter("sched.periodic-deep.core_epochs_bti_ar") >= epochs * 16);
    // Thermal: one LU settle per epoch.
    assert!(snap.counter("thermal.settle.lu_solves") >= epochs);
    // BTI: the trap monitor drives the CET kernels.
    assert!(snap.counter("bti.cet.stress_calls") >= epochs);
    assert!(snap.counter("bti.cet.sub_steps") >= epochs);
    assert!(snap.counter("bti.cet.traps_stressed") >= epochs * 400);
    // Exec: calibrating the monitor went through the bounded memo.
    assert!(snap.counter("exec.memo.hits") + snap.counter("exec.memo.misses") >= 1);
    // Timing histograms recorded real durations.
    let steps = snap
        .histogram("bti.cet.step_seconds")
        .expect("stress records step sizes");
    assert!(steps.count >= epochs);
    assert!(steps.sum > 0.0);
    // And the prefix-sum helper sees the per-policy family.
    assert!(snap.counter_sum("sched.periodic-deep.") > 0);
}
