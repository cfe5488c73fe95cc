//! Performance snapshot: each optimized kernel timed against its oracle.
//!
//! Every row runs both sides **in the same run** (same binary, same
//! machine, same optimization flags) and asserts that they agree before
//! it reports a time. The snapshot is JSON on stdout; a readable table
//! goes to stderr. End-to-end throughput, latency and memory are
//! measured by the `benchmark/` package, not here.
//!
//! * CET ensemble stress, pinned to 1 thread: the lane-batched `dh-simd`
//!   kernel (group-granular saturated fast path, reused thread-local gate
//!   scratch) vs the scalar `stress_reference` oracle — the acceptance
//!   metric is a ≥2× single-thread speedup with ≤1e-12 relative dVth
//!   agreement. The row also reports warm per-call allocation counts.
//! * The same comparison at the default thread count.
//! * CET ensemble recovery: the `dh-simd` `exp(−x)` kernel vs the scalar
//!   `recover_reference` oracle (≤1e-12 relative dVth agreement).
//! * EM stress-PDE stencil: `advance` (hoisted reciprocal tables, one
//!   flux buffer per call) vs the `advance_reference` oracle, which
//!   allocates and re-derives them every substep; the wires must be
//!   bit-identical.
//! * Calibration memo: a cold (fitting) vs a warm (memoized) call.
//! * Fleet simulation: the **per-chip reference path**
//!   (`run_fleet_reference`, serial AoS chip stepping) vs the columnar
//!   `ChipStore` engine at the default thread count, with
//!   device·epochs/s for both. The row asserts the reports are
//!   bit-identical, that the fingerprint is the same under every SIMD
//!   backend the host runs, and that the columnar engine's allocations/run,
//!   counted on one worker, are the same at twice the devices (nothing
//!   allocates per shard or per group) and stay well below the 17,557
//!   the engine made before its slab pool.
//! * Scenario pack: the built-in SRAM-decoder pack integrated element by
//!   element through the scalar `WearModel` reference vs the sharded
//!   columnar scenario engine (element·epochs/s, mean ΔVth agreement
//!   ≤1e-9 mV, run fingerprint recorded).
//!
//! The snapshot also embeds the `dh-obs` metrics registry under a
//! `"metrics"` key: what the rows above recorded. It takes no arguments.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use deep_healing::bti::calibration::TableOneTargets;
use deep_healing::fleet::run_fleet_reference;
use deep_healing::prelude::*;

/// Counts every heap allocation so the scratch-reuse rows can report
/// before/after allocation counts, not just wall time.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations performed while `f` ran (this thread and every
/// worker — the counter is process-global).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let v = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, v)
}

/// Times a closure, returning (seconds, result).
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// Times a closure over several repetitions, returning the fastest time and
/// the last result. Scheduler noise is strictly additive, so the minimum is
/// the estimator closest to the true cost.
fn timed_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best, mut out) = timed(&mut f);
    for _ in 1..reps {
        let (s, v) = timed(&mut f);
        if s < best {
            best = s;
        }
        out = v;
    }
    (best, out)
}

struct Row {
    name: &'static str,
    baseline_s: f64,
    optimized_s: f64,
    note: String,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.baseline_s / self.optimized_s.max(1e-12)
    }
}

const TRAPS: usize = 2000;
const STRESS_HOURS: f64 = 6.0;
const REPS: usize = 9;

/// Device·epochs folded per second — the fleet throughput headline.
fn throughput(config: &FleetConfig, secs: f64) -> f64 {
    (config.devices * config.total_epochs()) as f64 / secs.max(1e-12)
}

/// Benchmarks one stress configuration: the scalar oracle as the
/// baseline and the SIMD kernel as the optimized path (same adaptive
/// schedule as both).
fn stress_row(name: &'static str, ensemble: &TrapEnsemble, threads: usize) -> Row {
    let dt = Seconds::from_hours(STRESS_HOURS);
    let cond = StressCondition::ACCELERATED;

    let (base_s, ref_mv) = timed_best(REPS, || {
        let mut e = ensemble.clone();
        e.stress_reference(dt, cond);
        e.delta_vth_mv()
    });
    let (opt_s, opt_mv) = timed_best(REPS, || {
        let mut e = ensemble.clone();
        e.stress(dt, cond);
        e.delta_vth_mv()
    });
    let rel = (ref_mv - opt_mv).abs() / ref_mv.max(1e-12);
    assert!(
        rel <= 1e-12,
        "SIMD kernel must match the scalar reference: rel {rel:e}"
    );

    // Per-call allocation counts, measured warm (the thread-local gate
    // scratch is already grown). The oracle allocates its gate trajectory
    // every call; the SIMD kernel reuses the thread-local buffer.
    let mut warm = ensemble.clone();
    warm.stress(dt, cond); // grow the scratch once
    let mut e = ensemble.clone();
    let (opt_allocs, _) = count_allocs(|| e.stress(dt, cond));
    let mut e = ensemble.clone();
    let (base_allocs, _) = count_allocs(|| e.stress_reference(dt, cond));

    Row {
        name,
        baseline_s: base_s,
        optimized_s: opt_s,
        note: format!(
            "{TRAPS} traps x {STRESS_HOURS} h, {threads} thread(s), {} backend; \
             scalar oracle vs dh-simd lane kernel; dVth agrees to {rel:.1e} rel; \
             warm allocs/call {base_allocs} -> {opt_allocs}",
            deep_healing::simd::backend_name(),
        ),
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("usage: perf-snapshot (takes no arguments, got {arg:?})");
        std::process::exit(2);
    }
    let default_threads = dh_exec::max_threads();
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rows = Vec::new();

    let ensemble = TrapEnsemble::paper_calibrated(TRAPS).unwrap();

    // --- CET stress, single thread (the acceptance metric) ----------------
    dh_exec::set_max_threads(Some(1));
    let single = stress_row("cet_stress", &ensemble, 1);
    dh_exec::set_max_threads(None);
    assert!(
        single.speedup() >= 2.0,
        "single-thread cet_stress speedup {:.2}x is below the 2x target",
        single.speedup()
    );
    rows.push(single);

    // --- CET stress, default threads ---------------------------------------
    rows.push(stress_row(
        "cet_stress_parallel",
        &ensemble,
        default_threads,
    ));

    // --- CET recovery -------------------------------------------------------
    let stressed = {
        let mut e = ensemble.clone();
        e.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        e
    };
    let recover_dt = Seconds::from_hours(STRESS_HOURS);
    let (base_s, ref_mv) = timed_best(REPS, || {
        let mut e = stressed.clone();
        e.recover_reference(recover_dt, RecoveryCondition::ACTIVE_ACCELERATED);
        e.delta_vth_mv()
    });
    let (opt_s, opt_mv) = timed_best(REPS, || {
        let mut e = stressed.clone();
        e.recover(recover_dt, RecoveryCondition::ACTIVE_ACCELERATED);
        e.delta_vth_mv()
    });
    let rel = (ref_mv - opt_mv).abs() / ref_mv.max(1e-12);
    assert!(
        rel <= 1e-12,
        "recovery kernel must match the scalar reference: rel {rel:e}"
    );
    rows.push(Row {
        name: "cet_recover",
        baseline_s: base_s,
        optimized_s: opt_s,
        note: format!(
            "{TRAPS} traps x {STRESS_HOURS} h active-accelerated recovery; \
             scalar oracle vs dh-simd exp(-x) kernel; dVth agrees to {rel:.1e} rel"
        ),
    });

    // --- EM stress-PDE stencil ----------------------------------------------
    let j = CurrentDensity::from_ma_per_cm2(7.96);
    let em_dt = Seconds::from_minutes(60.0);
    let (base_s, base_w) = timed_best(REPS, || {
        let mut w = EmWire::paper_wire();
        w.advance_reference(em_dt, j);
        w
    });
    let (opt_s, opt_w) = timed_best(REPS, || {
        let mut w = EmWire::paper_wire();
        w.advance(em_dt, j);
        w
    });
    assert_eq!(
        base_w, opt_w,
        "hoisted advance must be bit-identical to the oracle"
    );
    rows.push(Row {
        name: "em_stencil",
        baseline_s: base_s,
        optimized_s: opt_s,
        note: "paper wire, 60 min stress; per-substep reference vs hoisted \
               reciprocal tables; wire state bit-identical"
            .into(),
    });

    // --- Calibration memo ----------------------------------------------------
    // A trap count nothing else in this process uses, so the first call
    // really fits and the second really hits the bounded cache.
    let targets = TableOneTargets::measurement_column();
    let fits_before = deep_healing::bti::cet::calibration_fit_runs();
    let (cold_s, _) = timed(|| TrapEnsemble::calibrated(1234, &targets).unwrap());
    let (warm_s, _) = timed(|| TrapEnsemble::calibrated(1234, &targets).unwrap());
    let fits_after = deep_healing::bti::cet::calibration_fit_runs();
    assert_eq!(
        fits_after - fits_before,
        1,
        "exactly one fit for two calibrated() calls"
    );
    rows.push(Row {
        name: "calibration_memo",
        baseline_s: cold_s,
        optimized_s: warm_s,
        note: "cold (fitting) vs warm (memoized) calibrated() call, 1234 traps".into(),
    });

    // --- Fleet simulation: per-chip reference vs the columnar engine ---------
    let fleet_config = FleetConfig {
        devices: 8_192,
        years: 0.5,
        shard_size: 512,
        ..FleetConfig::default()
    };
    let (serial_s, (serial_report, _)) =
        timed_best(REPS, || run_fleet_reference(&fleet_config, None).unwrap());
    let (opt_s, parallel_report) = timed_best(REPS, || run_fleet(&fleet_config).unwrap());
    // Allocations are counted on one worker: with more, the count follows
    // how many slabs the run happens to create, not what a shard costs.
    let one_worker_allocs = |devices: u64| {
        let config = FleetConfig {
            devices,
            ..fleet_config.clone()
        };
        dh_exec::set_max_threads(Some(1));
        let (allocs, _) = count_allocs(|| run_fleet(&config).unwrap());
        dh_exec::set_max_threads(None);
        allocs
    };
    let fleet_allocs = one_worker_allocs(fleet_config.devices);
    let doubled_allocs = one_worker_allocs(2 * fleet_config.devices);
    let (ref_allocs, _) = count_allocs(|| run_fleet_reference(&fleet_config, None).unwrap());
    assert_eq!(
        serial_report.fingerprint(),
        parallel_report.fingerprint(),
        "columnar fleet report must be bit-identical to the per-chip reference"
    );
    // Twice the shards at the same shard size, the same allocations:
    // nothing allocates per shard or per group.
    assert_eq!(
        fleet_allocs,
        doubled_allocs,
        "columnar fleet run allocated {fleet_allocs} times for {} devices and \
         {doubled_allocs} for {}: something allocates per shard or per group",
        fleet_config.devices,
        2 * fleet_config.devices
    );
    // The slab pool reuses every column and outcome buffer across shards,
    // so the columnar engine must run in a small fraction of the 17,557
    // allocations/run it made before the pool.
    assert!(
        fleet_allocs < 17_557 / 2,
        "columnar fleet run allocated {fleet_allocs} times; the slab pool \
         must cut the pre-pool count (17,557) by well over half"
    );
    // SIMD-backend invariance: forcing any backend the host runs must not
    // move a single bit of the fleet report.
    for (b, report) in deep_healing::simd::each_backend(|_| run_fleet(&fleet_config).unwrap()) {
        assert_eq!(
            serial_report.fingerprint(),
            report.fingerprint(),
            "fleet report must be bit-identical with the {b} backend forced"
        );
    }
    rows.push(Row {
        name: "fleet_sim",
        baseline_s: serial_s,
        optimized_s: opt_s,
        note: format!(
            "{} devices x {} epochs, worst-first; per-chip reference {:.2e} vs \
             columnar on {} threads {:.2e} device-epochs/s; allocs/run \
             {ref_allocs} -> {fleet_allocs} on 1 worker, equal at twice the \
             devices (pre-pool: 17557); fingerprints \
             bit-identical across engines, thread counts and SIMD backends \
             ({:#018x})",
            fleet_config.devices,
            fleet_config.total_epochs(),
            throughput(&fleet_config, serial_s),
            default_threads,
            throughput(&fleet_config, opt_s),
            parallel_report.fingerprint(),
        ),
    });

    // --- Scenario pack: scalar WearModel reference vs columnar engine --------
    // The built-in SRAM-decoder pack, integrated twice: element by
    // element through the scalar `WearModel` reference units, and
    // through the sharded columnar engine. The two are the same math by
    // the crate's proptest contract; the row records what the batched
    // path buys at pack scale (metric: element-epochs/s).
    let scenario_pack = dh_scenario::ScenarioRegistry::builtin()
        .get("sram-decoder")
        .expect("builtin pack")
        .pack
        .clone();
    let scenario_work = scenario_pack.total_elements() * scenario_pack.epochs;
    let (scalar_s, scalar_mean) = timed_best(REPS, || {
        let mut sum = 0.0f64;
        for (gi, block) in scenario_pack.blocks.iter().enumerate() {
            let g = scenario_pack.group_ctx(gi);
            let stress = g.stress_condition();
            let (passive, active) = g.recovery_conditions();
            let dh_scenario::BlockModel::SramDecoder { skew } = &block.model else {
                panic!("sram-decoder pack grew a non-SRAM group");
            };
            for rank in 0..block.count {
                let mut unit = dh_scenario::SramDecoder::from_group(g, *skew, rank);
                for e in 1..=scenario_pack.epochs {
                    let ctx = scenario_pack.epoch_ctx(e);
                    let rec = if ctx.active_recovery { active } else { passive };
                    unit.run_epoch(ctx, stress, rec);
                }
                sum += dh_bti::WearModel::delta_vth_mv(&unit);
            }
        }
        sum / scenario_pack.total_elements() as f64
    });
    let (columnar_s, scenario_report) = timed_best(REPS, || {
        dh_scenario::run_pack(scenario_pack.clone()).expect("a built-in pack runs clean")
    });
    let columnar_mean = {
        let total: f64 = scenario_report
            .groups
            .iter()
            .map(|g| g.mean_metric_mv * g.count as f64)
            .sum();
        total / scenario_pack.total_elements() as f64
    };
    assert!(
        (scalar_mean - columnar_mean).abs() <= 1e-9,
        "scenario engine drifted from the scalar reference: {scalar_mean} vs {columnar_mean}"
    );
    rows.push(Row {
        name: "scenario_pack",
        baseline_s: scalar_s,
        optimized_s: columnar_s,
        note: format!(
            "built-in {} pack ({} elements x {} epochs): scalar WearModel \
             reference vs sharded columnar engine; {:.2e} vs {:.2e} \
             element-epochs/s; mean dVth agrees to <=1e-9 mV ({:.3} mV), run \
             fingerprint {:#018x}",
            scenario_report.scenario,
            scenario_pack.total_elements(),
            scenario_pack.epochs,
            scenario_work as f64 / scalar_s.max(1e-12),
            scenario_work as f64 / columnar_s.max(1e-12),
            columnar_mean,
            scenario_report.fingerprint,
        ),
    });

    // --- Report -------------------------------------------------------------
    let mut json = String::from("{\n  \"threads\": ");
    json.push_str(&default_threads.to_string());
    json.push_str(",\n  \"host_cores\": ");
    json.push_str(&host_cores.to_string());
    json.push_str(",\n  \"simd_backend\": \"");
    json.push_str(deep_healing::simd::backend_name());
    json.push_str("\",\n");
    for row in &rows {
        json.push_str(&format!(
            "  \"{}\": {{\"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.2}, \"note\": \"{}\"}},\n",
            row.name,
            row.baseline_s,
            row.optimized_s,
            row.speedup(),
            row.note,
        ));
    }
    json.push_str("  \"metrics\": ");
    json.push_str(&dh_obs::snapshot().to_json());
    json.push_str("\n}\n");

    print!("{json}");
    for row in &rows {
        eprintln!(
            "{:<20} baseline {:>9.3} ms   optimized {:>9.3} ms   speedup {:>6.2}x   ({})",
            row.name,
            row.baseline_s * 1e3,
            row.optimized_s * 1e3,
            row.speedup(),
            row.note,
        );
    }
}
