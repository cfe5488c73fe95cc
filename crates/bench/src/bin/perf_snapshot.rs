//! Performance snapshot for the `dh-serve` daemon PR.
//!
//! Measures the optimized engine against its in-tree baselines **in the
//! same run** (same binary, same machine, same optimization flags) and
//! writes the results to `BENCH_pr9.json` in the workspace root
//! (`BENCH_pr1.json`–`BENCH_pr7.json` are kept as history). The headline
//! metric for the fleet rows is **device·epochs per second**.
//!
//! * CET ensemble stress, pinned to 1 thread: the lane-batched `dh-simd`
//!   kernel (group-granular saturated fast path, reused thread-local gate
//!   scratch) vs the retained PR 2 SoA libm kernel — the acceptance
//!   metric is a ≥2× single-thread speedup with ≤1e-12 relative dVth
//!   agreement against the scalar reference. The row also reports the
//!   per-call allocation counts before/after the scratch-reuse change.
//! * The same comparison at the default thread count.
//! * CET ensemble recovery: the `dh-simd` `exp(−x)` kernel vs the PR 2
//!   per-trap libm kernel.
//! * EM stress-PDE stencil: the vectorized flux/update stencil with
//!   hoisted reciprocal tables vs the retained PR 4 division-based
//!   substep (≤1e-9 relative resistance agreement — the two differ only
//!   in rounding).
//! * Guardband Monte-Carlo and calibration memo: unchanged from PR 2/4,
//!   re-measured for history.
//! * Fleet simulation: the retained **per-chip reference path**
//!   (`run_fleet_reference`, serial AoS chip stepping) vs the columnar
//!   `ChipStore` engine at the default thread count, with
//!   device·epochs/s for both. The row asserts the reports are
//!   bit-identical, that the fingerprint is invariant under `DH_SIMD`
//!   backend forcing, and — the allocation satellite — that the
//!   columnar engine's steady-state allocations/run dropped well below
//!   the PR 6 count (17,557/run): the slab pool reuses every column and
//!   outcome buffer across shards.
//! * Fleet thread-scaling rows at 4/8/16 workers against the same serial
//!   reference (all fingerprints equal). The JSON records the host core
//!   count — on a 1-core host the extra workers cannot speed anything up
//!   and the rows measure scheduling overhead honestly.
//! * Fleet scale rows: 10^6 devices, and a completed 10^7-device row
//!   (one epoch), both with device·epochs/s and shards sized by
//!   `auto_shard_size` from the worker count (the PR 6 fixed 8,192-chip
//!   shards are what regressed the 10^6 parallel row to 0.89×).
//! * `dh-serve` daemon row: an in-process server driven by concurrent
//!   HTTP clients over real sockets — sustained jobs/sec and the p99
//!   submit→first-event latency, with every job's fingerprint checked
//!   against a direct in-process engine run of the same config.
//! * Scenario pack row: the built-in SRAM-decoder pack integrated
//!   element by element through the scalar `WearModel` reference vs the
//!   sharded columnar scenario engine (element·epochs/s, mean ΔVth
//!   agreement ≤1e-9 mV, run fingerprint recorded).
//!
//! With `--obs` (and the `obs` feature compiled in), the snapshot also
//! embeds the full `dh-obs` metrics registry under a `"metrics"` key.
//! Without the feature the flag only prints a warning: the default build
//! must stay instrumentation-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use deep_healing::bti::calibration::TableOneTargets;
use deep_healing::fleet::run_fleet_reference;
use deep_healing::prelude::*;
use dh_serve::{client as serve_client, ServeConfig, Server};

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

/// Submits one job to a `dh-serve` daemon and tails its SSE stream on a
/// raw socket. Returns the submit→first-event latency in seconds and
/// the fingerprint string from the terminal `completed` event.
fn serve_job_round_trip(addr: SocketAddr, body: &str) -> (f64, String) {
    let t0 = Instant::now();
    let accepted = serve_client::request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(accepted.status, 202, "submit refused: {}", accepted.body);
    let id: u64 = accepted
        .body
        .split("\"id\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("202 body carries the job id");

    // Stream the events endpoint line by line so the first-event
    // timestamp is real, not read-to-EOF time.
    let mut stream = TcpStream::connect(addr).expect("connect SSE");
    let head = format!(
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: dh-serve\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes()).expect("send SSE request");
    let mut reader = BufReader::new(stream);
    let mut first_event_s = None;
    let mut last_data = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read SSE") == 0 {
            break;
        }
        if let Some(data) = line.strip_prefix("data: ") {
            first_event_s.get_or_insert_with(|| t0.elapsed().as_secs_f64());
            last_data = data.trim_end().to_string();
        }
    }
    let fingerprint = last_data
        .split("\"fingerprint\": \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("terminal event carries the fingerprint")
        .to_string();
    (first_event_s.expect("at least one event"), fingerprint)
}

/// Benchmarks one stress configuration: the PR 2 SoA libm kernel as the
/// baseline, the SIMD kernel as the optimized path, and the scalar
/// reference as the agreement anchor (same adaptive schedule as both).
fn stress_row(name: &'static str, ensemble: &TrapEnsemble, threads: usize) -> Row {
    let dt = Seconds::from_hours(STRESS_HOURS);
    let cond = StressCondition::ACCELERATED;

    let (base_s, _pr2_mv) = timed_best(REPS, || {
        let mut e = ensemble.clone();
        e.stress_pr2(dt, cond);
        e.delta_vth_mv()
    });
    let (opt_s, opt_mv) = timed_best(REPS, || {
        let mut e = ensemble.clone();
        e.stress(dt, cond);
        e.delta_vth_mv()
    });
    let ref_mv = {
        let mut e = ensemble.clone();
        e.stress_reference(dt, cond);
        e.delta_vth_mv()
    };
    let rel = (ref_mv - opt_mv).abs() / ref_mv.max(1e-12);
    assert!(
        rel <= 1e-12,
        "SIMD kernel must match the scalar reference: rel {rel:e}"
    );

    // Scratch-reuse satellite: per-call allocation counts, measured warm
    // (the thread-local gate scratch is already grown). The PR 2 kernel
    // allocates its gate trajectory every call; the SIMD kernel must not.
    let mut warm = ensemble.clone();
    warm.stress(dt, cond); // grow the scratch once
    let mut e = ensemble.clone();
    let (opt_allocs, _) = count_allocs(|| e.stress(dt, cond));
    let mut e = ensemble.clone();
    let (base_allocs, _) = count_allocs(|| e.stress_pr2(dt, cond));

    Row {
        name,
        baseline_s: base_s,
        optimized_s: opt_s,
        note: format!(
            "{TRAPS} traps x {STRESS_HOURS} h, {threads} thread(s), {} backend; \
             PR2 SoA libm kernel vs dh-simd lane kernel; dVth agrees with reference \
             to {rel:.1e} rel; warm allocs/call {base_allocs} -> {opt_allocs}",
            deep_healing::simd::backend_name(),
        ),
    }
}

fn main() {
    let want_obs = std::env::args().skip(1).any(|a| a == "--obs");
    if want_obs && !dh_obs::ENABLED {
        eprintln!(
            "warning: --obs requested but the `obs` feature is not compiled in; \
             rebuild with `--features obs` to embed a metrics snapshot"
        );
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
    let (base_s, _pr2_mv) = timed_best(REPS, || {
        let mut e = stressed.clone();
        e.recover_pr2(recover_dt, RecoveryCondition::ACTIVE_ACCELERATED);
        e.delta_vth_mv()
    });
    let (opt_s, opt_mv) = timed_best(REPS, || {
        let mut e = stressed.clone();
        e.recover(recover_dt, RecoveryCondition::ACTIVE_ACCELERATED);
        e.delta_vth_mv()
    });
    let ref_mv = {
        let mut e = stressed.clone();
        e.recover_reference(recover_dt, RecoveryCondition::ACTIVE_ACCELERATED);
        e.delta_vth_mv()
    };
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
             PR2 per-trap libm kernel vs dh-simd exp(-x) kernel; dVth agrees \
             with reference to {rel:.1e} rel"
        ),
    });

    // --- EM stress-PDE stencil ----------------------------------------------
    let j = CurrentDensity::from_ma_per_cm2(7.96);
    let em_dt = Seconds::from_minutes(60.0);
    let (base_s, base_r) = timed_best(REPS, || {
        let mut w = EmWire::paper_wire();
        w.advance_pr4(em_dt, j);
        w.resistance().value()
    });
    let (opt_s, opt_r) = timed_best(REPS, || {
        let mut w = EmWire::paper_wire();
        w.advance(em_dt, j);
        w.resistance().value()
    });
    let rel = (base_r - opt_r).abs() / base_r.max(1e-12);
    assert!(
        rel <= 1e-9,
        "vectorized stencil must track the PR4 substep: rel {rel:e}"
    );
    rows.push(Row {
        name: "em_stencil",
        baseline_s: base_s,
        optimized_s: opt_s,
        note: format!(
            "paper wire, 60 min stress; PR4 division substep vs vectorized stencil \
             with hoisted reciprocals; resistance agrees to {rel:.1e} rel"
        ),
    });

    // --- Guardband Monte-Carlo ----------------------------------------------
    let lifetime = LifetimeConfig {
        years: 0.2,
        ..LifetimeConfig::default()
    };
    let policy = Policy::periodic_deep_default();
    let (base_s, base_gb) = timed(|| {
        deep_healing::sched::lifetime::monte_carlo_guardband_baseline(&lifetime, policy, 0..8)
            .unwrap()
    });
    let (opt_s, opt_gb) = timed(|| {
        deep_healing::sched::lifetime::monte_carlo_guardband(&lifetime, policy, 0..8).unwrap()
    });
    let rel = base_gb
        .iter()
        .zip(&opt_gb)
        .map(|(b, o)| (b.guardband - o.guardband).abs() / b.guardband.max(1e-12))
        .fold(0.0, f64::max);
    assert!(
        rel <= 1e-8,
        "parallel guardbands must match the serial reference: rel {rel:e}"
    );
    rows.push(Row {
        name: "guardband_mc",
        baseline_s: base_s,
        optimized_s: opt_s,
        note: format!(
            "8 seeds x 0.2 y, periodic-deep policy; serial reference loop vs \
             self-scheduling parallel sweep; guardbands agree to {rel:.1e} rel"
        ),
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
        timed(|| run_fleet_reference(&fleet_config, None).unwrap());
    let (opt_s, parallel_report) = timed(|| run_fleet(&fleet_config).unwrap());
    let (fleet_allocs, _) = count_allocs(|| run_fleet(&fleet_config).unwrap());
    let (ref_allocs, _) = count_allocs(|| run_fleet_reference(&fleet_config, None).unwrap());
    assert_eq!(
        serial_report.fingerprint(),
        parallel_report.fingerprint(),
        "columnar fleet report must be bit-identical to the per-chip reference"
    );
    // Allocation satellite: the slab pool reuses every column and outcome
    // buffer across shards, so the columnar engine must run in a small
    // fraction of the PR 6 steady-state allocation count (17,557/run).
    assert!(
        fleet_allocs < 17_557 / 2,
        "columnar fleet run allocated {fleet_allocs} times; the slab pool \
         must cut the PR 6 count (17,557) by well over half"
    );
    // SIMD-backend invariance: forcing the scalar backend must not move a
    // single bit of the fleet report.
    deep_healing::simd::force_scalar(true);
    let scalar_report = run_fleet(&fleet_config).unwrap();
    deep_healing::simd::force_scalar(false);
    assert_eq!(
        serial_report.fingerprint(),
        scalar_report.fingerprint(),
        "fleet report must be bit-identical with the SIMD backend forced off"
    );
    rows.push(Row {
        name: "fleet_sim",
        baseline_s: serial_s,
        optimized_s: opt_s,
        note: format!(
            "{} devices x {} epochs, worst-first; per-chip reference {:.2e} vs \
             columnar on {} threads {:.2e} device-epochs/s; allocs/run \
             {ref_allocs} -> {fleet_allocs} (PR6: 17557); fingerprints \
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

    // --- Fleet thread scaling: 4 / 8 / 16 workers ----------------------------
    for &threads in &[4usize, 8, 16] {
        dh_exec::set_max_threads(Some(threads));
        let (t_s, report) = timed(|| run_fleet(&fleet_config).unwrap());
        dh_exec::set_max_threads(None);
        assert_eq!(
            report.fingerprint(),
            serial_report.fingerprint(),
            "fleet report must be bit-identical at {threads} threads"
        );
        rows.push(Row {
            name: match threads {
                4 => "fleet_threads_4",
                8 => "fleet_threads_8",
                _ => "fleet_threads_16",
            },
            baseline_s: serial_s,
            optimized_s: t_s,
            note: format!(
                "{} devices x {} epochs on {threads} workers ({host_cores} host \
                 core(s)): {:.2e} device-epochs/s, fingerprint identical to the \
                 serial reference",
                fleet_config.devices,
                fleet_config.total_epochs(),
                throughput(&fleet_config, t_s),
            ),
        });
    }

    // --- Fleet scale: 10^6 and 10^7 devices ----------------------------------
    // Shards are sized from the worker count (`auto_shard_size`) exactly
    // as the fleet bin now does by default; the serial baseline gets the
    // 1-worker sizing so each path runs its own best configuration. The
    // report is shard-size invariant, so the fingerprints must still match.
    let mega_base = FleetConfig {
        devices: 1_000_000,
        years: 0.1,
        ..FleetConfig::default()
    };
    let mega_serial_cfg = FleetConfig {
        shard_size: mega_base.auto_shard_size(1),
        ..mega_base.clone()
    };
    let mega = FleetConfig {
        shard_size: mega_base.auto_shard_size(default_threads),
        ..mega_base
    };
    dh_exec::set_max_threads(Some(1));
    let (mega_serial_s, mega_serial) = timed_best(3, || run_fleet(&mega_serial_cfg).unwrap());
    dh_exec::set_max_threads(None);
    let (mega_s, mega_report) = timed_best(3, || run_fleet(&mega).unwrap());
    assert_eq!(mega_serial.fingerprint(), mega_report.fingerprint());
    rows.push(Row {
        name: "fleet_scale_1e6",
        baseline_s: mega_serial_s,
        optimized_s: mega_s,
        note: format!(
            "10^6 devices x {} epochs, auto-sized shards ({} serial / {} on \
             {} workers): serial {:.2e} vs parallel {:.2e} device-epochs/s",
            mega.total_epochs(),
            mega_serial_cfg.shard_size,
            mega.shard_size,
            default_threads,
            throughput(&mega, mega_serial_s),
            throughput(&mega, mega_s),
        ),
    });

    let deca_base = FleetConfig {
        devices: 10_000_000,
        years: 0.01, // one scheduling epoch: the row must *complete*
        ..FleetConfig::default()
    };
    let deca_serial_cfg = FleetConfig {
        shard_size: deca_base.auto_shard_size(1),
        ..deca_base.clone()
    };
    let deca = FleetConfig {
        shard_size: deca_base.auto_shard_size(default_threads),
        ..deca_base
    };
    dh_exec::set_max_threads(Some(1));
    let (deca_serial_s, deca_serial) = timed_best(3, || run_fleet(&deca_serial_cfg).unwrap());
    dh_exec::set_max_threads(None);
    let (deca_s, deca_report) = timed_best(3, || run_fleet(&deca).unwrap());
    assert_eq!(deca_serial.fingerprint(), deca_report.fingerprint());
    rows.push(Row {
        name: "fleet_scale_1e7",
        baseline_s: deca_serial_s,
        optimized_s: deca_s,
        note: format!(
            "10^7 devices x {} epoch(s), completed, auto-sized shards \
             ({} serial / {} on {} workers): serial {:.2e} vs parallel \
             {:.2e} device-epochs/s (fingerprint {:#018x})",
            deca.total_epochs(),
            deca_serial_cfg.shard_size,
            deca.shard_size,
            default_threads,
            throughput(&deca, deca_serial_s),
            throughput(&deca, deca_s),
            deca_report.fingerprint(),
        ),
    });

    // --- dh-serve daemon: jobs/sec and submit -> first-event latency ----------
    let serve_dir = std::env::temp_dir().join("dh-perf-snapshot-serve");
    let _ = std::fs::remove_dir_all(&serve_dir);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 64,
        concurrency: 2,
        step_shards: 8,
        pace: std::time::Duration::ZERO,
        data_dir: serve_dir.clone(),
        scenario_dir: None,
        job_deadline: None,
    })
    .expect("start dh-serve");
    let serve_addr = server.local_addr();
    // The job the clients hammer: defaults except where stated, so the
    // daemon and the in-process engine build the identical FleetConfig.
    let serve_config = FleetConfig {
        devices: 2_048,
        years: 0.1,
        shard_size: 256,
        ..FleetConfig::default()
    };
    let serve_body =
        "{\"config\": {\"devices\": 2048, \"years\": 0.1, \"shard_size\": 256}}".to_string();
    let (direct_s, direct_report) = timed(|| run_fleet(&serve_config).unwrap());
    let expected_fp = format!("{:#018x}", direct_report.fingerprint());

    const SERVE_CLIENTS: usize = 4;
    const SERVE_JOBS_PER_CLIENT: usize = 8;
    let (serve_wall_s, mut latencies) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SERVE_CLIENTS)
                .map(|_| {
                    let body = &serve_body;
                    let expected = &expected_fp;
                    scope.spawn(move || {
                        (0..SERVE_JOBS_PER_CLIENT)
                            .map(|_| {
                                let (latency_s, fp) = serve_job_round_trip(serve_addr, body);
                                assert_eq!(
                                    &fp, expected,
                                    "daemon job fingerprint diverged from the engine"
                                );
                                latency_s
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("serve client thread"))
                .collect::<Vec<f64>>()
        })
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(&serve_dir);
    latencies.sort_by(f64::total_cmp);
    let total_jobs = latencies.len();
    let quantile = |q: f64| latencies[((total_jobs - 1) as f64 * q).round() as usize];
    let jobs_per_sec = total_jobs as f64 / serve_wall_s.max(1e-12);
    rows.push(Row {
        name: "serve_daemon",
        baseline_s: direct_s,
        optimized_s: serve_wall_s / total_jobs as f64,
        note: format!(
            "{total_jobs} jobs ({} devices x {} epochs each) from {SERVE_CLIENTS} \
             concurrent HTTP clients over 2 workers: {jobs_per_sec:.2} jobs/s \
             sustained, submit->first-event p50 {:.1} ms / p99 {:.1} ms; every \
             job's fingerprint equals the in-process engine's ({expected_fp}); \
             baseline is one direct run_fleet of the same config",
            serve_config.devices,
            serve_config.total_epochs(),
            quantile(0.50) * 1e3,
            quantile(0.99) * 1e3,
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
    let (scalar_s, scalar_mean) = timed(|| {
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
    let (columnar_s, scenario_report) = timed(|| dh_scenario::run_pack(scenario_pack.clone()));
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
    let embed_metrics = want_obs && dh_obs::ENABLED;
    let mut json = String::from("{\n  \"pr\": 9,\n  \"threads\": ");
    json.push_str(&default_threads.to_string());
    json.push_str(",\n  \"host_cores\": ");
    json.push_str(&host_cores.to_string());
    json.push_str(",\n  \"simd_backend\": \"");
    json.push_str(deep_healing::simd::backend_name());
    json.push_str("\",\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  \"{}\": {{\"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.2}, \"note\": \"{}\"}}{}\n",
            row.name,
            row.baseline_s,
            row.optimized_s,
            row.speedup(),
            row.note,
            if i + 1 < rows.len() || embed_metrics { "," } else { "" },
        ));
    }
    if embed_metrics {
        json.push_str("  \"metrics\": ");
        json.push_str(&dh_obs::snapshot().to_json());
        json.push('\n');
    }
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json");
    std::fs::write(path, &json).expect("write BENCH_pr9.json");

    for row in &rows {
        println!(
            "{:<20} baseline {:>9.3} ms   optimized {:>9.3} ms   speedup {:>6.2}x   ({})",
            row.name,
            row.baseline_s * 1e3,
            row.optimized_s * 1e3,
            row.speedup(),
            row.note,
        );
    }
    println!("wrote {path}");
}
