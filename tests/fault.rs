//! Chaos acceptance: the fault-injection contract across the stack.
//!
//! * **Checkpoint hardening** (property-tested): flip a random bit of, or
//!   truncate, any retained checkpoint generation — the supervised resume
//!   falls back to the newest generation that validates, replays the lost
//!   shards, and the final report is **fingerprint-identical** to an
//!   uninterrupted run.
//! * **Supervised parity**: with no faults injected — no plan or a no-op
//!   plan — every entry point folds the exact same values in the exact
//!   same order — reports are bit-identical, the degraded report is clean.
//! * **Graceful degradation**: killed shards are quarantined after the
//!   retry budget, poisoned samples are rejected at the fold, stuck
//!   sensors are flagged and reported — and in every case the run
//!   *completes* instead of aborting.
//! * **Determinism**: an identically-seeded chaos campaign produces
//!   bit-identical fleet *and* degraded fingerprints run to run.

use deep_healing::fault::wire::{fnv1a, FNV_OFFSET};
use deep_healing::fault::{FaultPlan, SensorFaultKind, TempDir};
use deep_healing::fleet::{
    run_fleet, run_fleet_supervised, CheckpointStore, FleetConfig, FleetPolicy, FleetRun,
    MaintenanceBudget, SENSOR_STALE_EPOCHS,
};
use dh_exec::RetryPolicy;
use dh_scenario::{
    run_pack, run_pack_supervised, ScenarioCheckpointStore, ScenarioPack, ScenarioRegistry,
    ScenarioRun,
};
use proptest::prelude::*;

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

/// Steps a run one shard at a time, checkpointing after each of the
/// first three shards, so the store holds three generations (newest at
/// cursor 3, oldest at cursor 1). The run is then dropped mid-flight.
fn seed_generations(config: &FleetConfig, store: &CheckpointStore) {
    let mut run = FleetRun::new(config.clone()).unwrap();
    for _ in 0..3 {
        assert!(
            !run.step_supervised(1, None, &RetryPolicy::immediate(1)),
            "three shards must not finish"
        );
        store.write(&run.snapshot()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Damage any one retained generation, any way: the resume still
    /// reproduces the uninterrupted run bit for bit, and records a
    /// fallback exactly when the newest generation was the victim.
    #[test]
    fn corrupted_generations_fall_back_to_fingerprint_identical_resume(
        generation in 0usize..3,
        mode in 0u8..2,
        damage in 0u64..u64::MAX,
    ) {
        let truncate = mode == 1;
        let config = small_fleet();
        let baseline = run_fleet(&config).unwrap();

        let dir = TempDir::new("fault-test-proptest");
        let store = CheckpointStore::new(dir.join("run.dhfl"), 3);
        seed_generations(&config, &store);

        // Damage the chosen generation on disk.
        let victim = store.generation_path(generation);
        let mut bytes = std::fs::read(&victim).unwrap();
        prop_assume!(!bytes.is_empty());
        if truncate {
            bytes.truncate((damage % bytes.len() as u64) as usize);
        } else {
            let byte = (damage % bytes.len() as u64) as usize;
            let bit = ((damage >> 8) % 8) as u8;
            bytes[byte] ^= 1 << bit;
        }
        std::fs::write(&victim, &bytes).unwrap();

        let (resumed, degraded) = run_fleet_supervised(
            &config,
            None,
            &RetryPolicy::immediate(1),
            Some((&store, 1)),
        )
        .unwrap();

        prop_assert!(
            resumed.fingerprint() == baseline.fingerprint(),
            "resume after damaging generation {} ({}): {:#018x} vs {:#018x}",
            generation,
            if truncate { "truncate" } else { "bit flip" },
            resumed.fingerprint(),
            baseline.fingerprint(),
        );
        prop_assert!(resumed.render() == baseline.render());

        if generation == 0 {
            // The newest generation was the victim: the resume must say
            // so, and must have skipped exactly that one.
            prop_assert!(degraded.checkpoint_fallbacks.len() == 1);
            prop_assert!(degraded.checkpoint_fallbacks[0].generation == 0);
        } else {
            // The newest generation still validates; older damage is
            // never even read.
            prop_assert!(degraded.checkpoint_fallbacks.is_empty());
        }
    }
}

const BUILTIN_PACKS: [&str; 3] = ["sram-decoder", "dnn-weight-memory", "aged-multiplier"];

/// A shrunk copy of a built-in pack: same victim model, workload, and
/// maintenance policy, but few enough elements that a 24-case proptest
/// stays fast in debug builds.
fn small_pack(name: &str) -> ScenarioPack {
    let mut pack = ScenarioRegistry::builtin()
        .resolve(name)
        .expect("built-in pack");
    pack.epochs = 3;
    pack.shard_size = 64;
    for block in &mut pack.blocks {
        block.count = block.count.min(160);
    }
    pack.validate().expect("shrunk pack stays valid");
    pack
}

/// The DHSP twin of [`seed_generations`]: three one-shard steps, a
/// checkpoint after each, run dropped mid-flight.
fn seed_scenario_generations(pack: &ScenarioPack, store: &ScenarioCheckpointStore) {
    let mut run = ScenarioRun::new(pack.clone());
    for _ in 0..3 {
        let retry = RetryPolicy::immediate(1);
        assert!(
            !run.step_supervised(1, None, &retry).done,
            "three shards must not finish the run"
        );
        store.write(&run).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The DHSP twin of the generation-damage property above, across
    /// all three built-in victim models: damage any retained scenario
    /// checkpoint generation, any way — the supervised resume falls
    /// back and still lands on the uninterrupted fingerprint.
    #[test]
    fn corrupted_scenario_generations_fall_back_to_fingerprint_identical_resume(
        pack_index in 0usize..3,
        generation in 0usize..3,
        mode in 0u8..2,
        damage in 0u64..u64::MAX,
    ) {
        let truncate = mode == 1;
        let name = BUILTIN_PACKS[pack_index];
        let pack = small_pack(name);
        let baseline = run_pack(pack.clone()).unwrap();

        let dir = TempDir::new(&format!("fault-test-scenario-proptest-{name}"));
        let store = ScenarioCheckpointStore::new(dir.join("run.dhsp"), 3);
        seed_scenario_generations(&pack, &store);

        let victim = store.generation_path(generation);
        let mut bytes = std::fs::read(&victim).unwrap();
        prop_assume!(!bytes.is_empty());
        if truncate {
            bytes.truncate((damage % bytes.len() as u64) as usize);
        } else {
            let byte = (damage % bytes.len() as u64) as usize;
            let bit = ((damage >> 8) % 8) as u8;
            bytes[byte] ^= 1 << bit;
        }
        std::fs::write(&victim, &bytes).unwrap();

        let (resumed, degraded) = run_pack_supervised(
            pack.clone(),
            None,
            &RetryPolicy::immediate(1),
            Some((&store, 1)),
        )
        .unwrap();

        prop_assert!(
            resumed.fingerprint == baseline.fingerprint,
            "{name}: resume after damaging generation {} ({}): {:#018x} vs {:#018x}",
            generation,
            if truncate { "truncate" } else { "bit flip" },
            resumed.fingerprint,
            baseline.fingerprint,
        );
        prop_assert!(resumed.render() == baseline.render());

        if generation == 0 {
            prop_assert!(degraded.checkpoint_fallbacks.len() == 1);
            prop_assert!(degraded.checkpoint_fallbacks[0].generation == 0);
        } else {
            prop_assert!(degraded.checkpoint_fallbacks.is_empty());
        }
    }

    /// No plan and a no-op plan must fold the exact same sequence as
    /// the strict scenario engine — for every built-in victim model.
    #[test]
    fn supervised_scenario_without_faults_is_bit_identical_to_strict_run(
        pack_index in 0usize..3,
        epochs in 1u64..4,
    ) {
        let mut pack = small_pack(BUILTIN_PACKS[pack_index]);
        pack.epochs = epochs;
        let strict = run_pack(pack.clone()).unwrap();

        let noop = FaultPlan::parse("", 99).unwrap();
        for plan in [None, Some(&noop)] {
            let (report, degraded) =
                run_pack_supervised(pack.clone(), plan, &RetryPolicy::immediate(1), None).unwrap();
            prop_assert!(report.fingerprint == strict.fingerprint);
            prop_assert!(report.render() == strict.render());
            prop_assert!(!degraded.is_degraded(), "clean run must report clean");
        }
    }
}

#[test]
fn supervised_run_without_faults_is_bit_identical_to_strict_run() {
    let config = small_fleet();
    let strict = run_fleet(&config).unwrap();

    // No plan at all, and an explicitly empty (no-op) plan: both must
    // fold the exact same sequence as the strict engine.
    let noop = FaultPlan::parse("", 99).unwrap();
    for plan in [None, Some(&noop)] {
        let (report, degraded) =
            run_fleet_supervised(&config, plan, &RetryPolicy::immediate(1), None).unwrap();
        assert_eq!(report.fingerprint(), strict.fingerprint());
        assert_eq!(report.render(), strict.render());
        assert!(!degraded.is_degraded(), "clean run must report clean");
    }
}

#[test]
fn killed_shard_is_quarantined_and_the_run_still_completes() {
    let config = small_fleet();
    let plan = FaultPlan::parse("kill-shard=2", 7).unwrap();
    let (report, degraded) =
        run_fleet_supervised(&config, Some(&plan), &RetryPolicy::immediate(2), None).unwrap();

    assert_eq!(degraded.quarantined.len(), 1);
    assert_eq!(degraded.quarantined[0].shard, 2);
    assert_eq!(degraded.quarantined[0].attempts, 2);
    assert!(degraded.retries >= 1, "the kill must have been retried");
    // The quarantined shard's 16 chips are excluded, not fabricated.
    assert_eq!(report.devices, 96 - 16);
    assert!(report.guardband.mean.is_finite());
}

#[test]
fn poisoned_sample_is_rejected_at_the_fold() {
    let config = small_fleet();
    let plan = FaultPlan::parse("poison-chip=7", 7).unwrap();
    let (report, degraded) =
        run_fleet_supervised(&config, Some(&plan), &RetryPolicy::immediate(1), None).unwrap();

    assert_eq!(degraded.rejected_samples, 1);
    assert_eq!(report.devices, 95, "one chip rejected, the rest folded");
    assert!(
        report.guardband.mean.is_finite() && report.guardband.max.is_finite(),
        "the NaN must not reach the aggregates: {}",
        report.guardband.render("")
    );
}

#[test]
fn stuck_sensor_is_flagged_and_reported() {
    let config = small_fleet();
    let plan = FaultPlan::parse("stuck-chip=5", 7).unwrap();
    let (report, degraded) =
        run_fleet_supervised(&config, Some(&plan), &RetryPolicy::immediate(1), None).unwrap();

    assert_eq!(degraded.sensor_incidents.len(), 1);
    let incident = &degraded.sensor_incidents[0];
    assert_eq!(incident.chip, 5);
    assert_eq!(incident.kind, SensorFaultKind::Stuck);
    assert_eq!(incident.epoch, u64::from(SENSOR_STALE_EPOCHS));
    // The afflicted chip still folds (conservatively healed, not dropped).
    assert_eq!(report.devices, 96);
}

#[test]
fn slab_checksum_catches_corruption_the_file_checksum_misses() {
    let config = small_fleet();
    let baseline = run_fleet(&config).unwrap();
    let dir = TempDir::new("fault-test-slab");
    let store = CheckpointStore::new(dir.join("run.dhfl"), 3);
    seed_generations(&config, &store);

    // Flip one bit inside the newest generation's accumulator slab body
    // (29-byte envelope header, then slab count + tag + body length),
    // then forge the file checksum so only the per-slab checksum can
    // object — the adversarial case DHFL v3 added the slab checksums for.
    let victim = store.generation_path(0);
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[29 + 24 + 4] ^= 0x08;
    let body_len = bytes.len() - 8;
    let sum = fnv1a(FNV_OFFSET, &bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&victim, &bytes).unwrap();

    let (resumed, degraded) =
        run_fleet_supervised(&config, None, &RetryPolicy::immediate(1), Some((&store, 1))).unwrap();
    assert_eq!(resumed.fingerprint(), baseline.fingerprint());
    assert_eq!(degraded.checkpoint_fallbacks.len(), 1);
    assert_eq!(degraded.checkpoint_fallbacks[0].generation, 0);
    assert!(
        degraded.checkpoint_fallbacks[0].reason.contains("slab"),
        "the slab checksum must be what rejected it: {}",
        degraded.checkpoint_fallbacks[0].reason
    );
}

/// Every failure path counts in the obs registry: retries, quarantines,
/// checkpoint fallbacks, injected disk faults, and the retention trims
/// that absorb them — on both the fleet (DHFL) and scenario (DHSP)
/// engines.
#[test]
fn failure_path_counters_light_up_the_obs_snapshot() {
    // Fleet chaos: a killed shard, corrupt + missing generations, and
    // seeded disk faults under the checkpoint writer.
    let config = small_fleet();
    let dir = TempDir::new("fault-test-obs-chaos-fleet");
    let store = CheckpointStore::new(dir.join("run.dhfl"), 3);
    std::fs::write(store.generation_path(0), b"not a checkpoint").unwrap();
    let plan = FaultPlan::parse("kill-shard=1,disk-full=0.5,disk-torn=2", 7).unwrap();
    run_fleet_supervised(
        &config,
        Some(&plan),
        &RetryPolicy::immediate(2),
        Some((&store, 1)),
    )
    .unwrap();

    // Scenario chaos, same shape, through the DHSP store.
    let pack = small_pack("sram-decoder");
    let sdir = TempDir::new("fault-test-obs-chaos-scenario");
    let sstore = ScenarioCheckpointStore::new(sdir.join("run.dhsp"), 3);
    std::fs::write(sstore.generation_path(0), b"not a checkpoint").unwrap();
    let splan = FaultPlan::parse("panic=0.3,disk-full=0.5,disk-torn=2", 17).unwrap();
    run_pack_supervised(
        pack,
        Some(&splan),
        &RetryPolicy::immediate(8),
        Some((&sstore, 1)),
    )
    .unwrap();

    let snap = deep_healing::obs::snapshot();
    for counter in [
        "fleet.shards_quarantined",
        "fleet.checkpoint_fallbacks",
        "fleet.disk_fault_enospc",
        "fleet.disk_fault_torn",
        "fleet.retention_trims",
        "scenario.shard_retries",
        "scenario.checkpoint_fallbacks",
        "scenario.disk_fault_enospc",
        "scenario.disk_fault_torn",
        "scenario.retention_trims",
    ] {
        assert!(
            snap.counter(counter) >= 1,
            "{counter} must count at least one event: {}",
            snap.to_json()
        );
    }
}

#[test]
fn identically_seeded_chaos_campaigns_are_bit_identical() {
    let config = small_fleet();
    let run = |tag: &str| {
        let dir = TempDir::new(&format!("fault-test-{tag}"));
        let store = CheckpointStore::new(dir.join("run.dhfl"), 3);
        let plan = FaultPlan::parse("panic=0.35,ckpt-flip=2,stuck-chip=5", 99).unwrap();
        run_fleet_supervised(
            &config,
            Some(&plan),
            &RetryPolicy::immediate(2),
            Some((&store, 1)),
        )
        .unwrap()
    };
    let (report_a, degraded_a) = run("campaign-a");
    let (report_b, degraded_b) = run("campaign-b");
    assert_eq!(report_a.fingerprint(), report_b.fingerprint());
    assert_eq!(degraded_a.fingerprint(), degraded_b.fingerprint());
    assert_eq!(degraded_a.render(), degraded_b.render());
}
