//! The two passes over a workload. The end-to-end pass times the shipped
//! surfaces from outside; the traced pass splits the same work by layer.
//! Both check every report fingerprint.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{median, percentile};
use crate::surface::{cli_setup, closed_loop, run_cli, with_rss, CliRun, Daemon, JobSample, Load};
use crate::trace::{self, probe_ckpt, trace_job, CkptProbe, Final, Span, Tracer};
use crate::workload::{
    self, fold, serve_body, Inputs, Job, Workload, DAEMON_STEP_SHARDS, SERVE_FLEET_BODIES,
    SERVE_JOBS_PER_SECOND,
};

/// End-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("engine.new_us", "us"),
    ("engine.step_ns_per_unit_epoch", "ns"),
    ("engine.report_us", "us"),
    ("engine.step_share", "ratio"),
    ("ckpt.share", "ratio"),
    ("ckpt.write_ms_p50", "ms"),
    ("ckpt.encode_us", "us"),
    ("ckpt.bytes", "bytes"),
    ("fleet.draw_ns_per_chip", "ns"),
    ("exec.parallel_efficiency", "ratio"),
    ("surface.accept_ms_p50", "ms"),
    ("surface.run_ms_p50", "ms"),
    ("surface.close_ms_p50", "ms"),
    ("surface.wait_share", "ratio"),
    ("surface.events_per_op", "count"),
    ("surface.refused", "count"),
    ("trace.wall_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
];

/// A CLI workload runs at least this many timed invocations, however
/// short `--seconds` is, so its medians have a middle.
const MIN_RUNS: usize = 3;

/// Start-ups timed to the ready line and then stopped, so `setup_s` is a
/// median of many samples: this many per daemon pass, and
/// [`SETUP_PROBES_PER_RUN`] after every timed CLI run.
const SETUP_PROBES: usize = 20;
const SETUP_PROBES_PER_RUN: usize = 3;

/// The share of each traced job's wall its child spans must explain; below
/// it, work runs between the traced calls and the layer split is wrong.
const MIN_SPAN_COVERAGE: f64 = 0.98;

/// Where and how the passes run.
#[derive(Debug)]
pub struct Ctx {
    pub fleet: PathBuf,
    pub serve: PathBuf,
    /// Scratch space; every file the benchmark writes lives under it.
    pub work: PathBuf,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    fn packs(&self) -> PathBuf {
        self.work.join("packs")
    }
}

/// Attempted and failed operations. Each failure is reported on stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAIL {what}: {why}");
                None
            }
        }
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

fn put(m: &mut Metrics, name: &'static str, value: Option<f64>) {
    if let Some(v) = value {
        m.insert(name, v);
    }
}

/// Checks that every fingerprint of a workload agrees, and under
/// `--seed 1` that it equals the pinned one.
struct Fingerprints {
    pin: Option<u64>,
    seen: Option<u64>,
}

impl Fingerprints {
    fn new(w: Workload, seed: u64) -> Self {
        Self {
            pin: (seed == 1).then(|| w.pin()),
            seen: None,
        }
    }

    fn check(&mut self, fingerprint: u64) -> Result<(), String> {
        let expected = *self.seen.get_or_insert(self.pin.unwrap_or(fingerprint));
        if fingerprint == expected {
            Ok(())
        } else {
            Err(format!(
                "fingerprint {fingerprint:#018x}, expected {expected:#018x}"
            ))
        }
    }
}

/// Writes the workload's pack files; each is checked by the registry's
/// own loader first.
fn write_packs(inputs: &Inputs, ctx: &Ctx) -> Result<(), String> {
    let dir = ctx.packs();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for pack in &inputs.packs {
        let text = pack.to_json();
        dh_scenario::ScenarioPack::load(&text).map_err(|e| format!("pack {}: {e}", pack.name))?;
        let path = dir.join(format!("{}.json", pack.name));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs the traced pass of `w` when `traced` is set, else its end-to-end
/// pass.
pub fn run(w: Workload, ctx: &Ctx, traced: bool) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let inputs = workload::inputs(w, ctx.seed, ctx.nproc);
    let mut m = Metrics::new();
    if tally
        .check("pack files", write_packs(&inputs, ctx))
        .is_some()
    {
        let t = &mut tally;
        match (w, traced) {
            (Workload::ServeMixed, false) => serve_end_to_end(&inputs, ctx, t, &mut m),
            (Workload::ServeMixed, true) => serve_traced(&inputs, ctx, t, &mut m),
            (_, false) => cli_end_to_end(w, &inputs, ctx, t, &mut m),
            (_, true) => cli_traced(w, &inputs, ctx, t, &mut m),
        }
    }
    (tally, m)
}

fn cli_run(job: &Job, ctx: &Ctx, fps: Option<&mut Fingerprints>) -> Result<CliRun, String> {
    let run = run_cli(&ctx.fleet, job, &ctx.work.join("cli"), &ctx.packs())?;
    if let Some(fps) = fps {
        fps.check(run.fingerprint)?;
    }
    Ok(run)
}

/// Untimed warm-up runs for a tenth of `--seconds`, then timed `fleet`
/// runs until `--seconds` have passed. The first second of work after an
/// idle spell runs up to 1.5x slower on a shared host, so the warm-up is
/// sized in time, not in runs.
fn timed_cli_runs(
    w: Workload,
    inputs: &Inputs,
    ctx: &Ctx,
    tally: &mut Tally,
    mut each: impl FnMut(&mut Tally, &mut Fingerprints),
) -> Vec<CliRun> {
    let warm_until = Instant::now() + Duration::from_secs_f64(ctx.seconds / 10.0);
    loop {
        for job in &inputs.warmup {
            tally.check("warm-up fleet run", cli_run(job, ctx, None));
        }
        if Instant::now() >= warm_until {
            break;
        }
    }
    let mut fps = Fingerprints::new(w, ctx.seed);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut runs = Vec::new();
    let mut attempts = 0;
    while attempts < MIN_RUNS || Instant::now() < deadline {
        attempts += 1;
        if let Some(run) = tally.check("fleet run", cli_run(&inputs.jobs[0], ctx, Some(&mut fps))) {
            println!(
                "fleet run: setup {:.2} ms, wall {:.3} s, peak rss {} kB",
                run.setup * 1e3,
                run.wall,
                run.rss_kb.map_or("?".into(), |kb| kb.to_string())
            );
            runs.push(run);
        }
        each(tally, &mut fps);
    }
    runs
}

fn cli_end_to_end(w: Workload, inputs: &Inputs, ctx: &Ctx, tally: &mut Tally, m: &mut Metrics) {
    let job = &inputs.jobs[0];
    let mut setups = Vec::new();
    let runs = timed_cli_runs(w, inputs, ctx, tally, |tally, _| {
        for _ in 0..SETUP_PROBES_PER_RUN {
            let probe = cli_setup(&ctx.fleet, job, &ctx.work.join("cli"), &ctx.packs());
            setups.extend(tally.check("fleet start-up", probe));
        }
    });
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let rss: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.rss_kb)
        .map(|kb| kb as f64)
        .collect();
    setups.extend(runs.iter().map(|r| r.setup));
    put(m, "setup_s", median(&setups));
    let wall = median(&walls);
    put(
        m,
        "throughput_per_s",
        wall.map(|wall| job.unit_epochs() as f64 / wall),
    );
    put(m, "latency_p50_ms", wall.map(|wall| wall * 1e3));
    // How many shard slabs are in flight at once depends on scheduling
    // (fleet-steady peaks at 47 or 62 MB from run to run), so the leanest
    // run's peak is the one that repeats.
    let least = rss.iter().copied().min_by(f64::total_cmp);
    put(m, "peak_rss_mb", least.map(|kb| kb / 1024.0));
}

/// Jobs the daemon runs in a pass of `seconds`.
fn serve_jobs(seconds: f64) -> u64 {
    (SERVE_JOBS_PER_SECOND * seconds).round().max(100.0) as u64
}

/// The `fleet` CLI's fingerprint for every distinct job body, computed
/// before anything is timed; the daemon must reproduce each one.
fn serve_expected(inputs: &Inputs, ctx: &Ctx, tally: &mut Tally) -> Option<Vec<u64>> {
    let mut expected = Vec::new();
    for job in &inputs.jobs {
        expected.push(
            tally
                .check("fleet run", cli_run(job, ctx, None))?
                .fingerprint,
        );
    }
    let mut fps = Fingerprints::new(Workload::ServeMixed, ctx.seed);
    tally.check(
        "serve-mixed fingerprints",
        fps.check(fold(expected.iter().copied())),
    )?;
    Some(expected)
}

/// Job body `body` must report the fingerprint the CLI gave for it.
fn check_body(body: usize, fingerprint: u64, expected: &[u64]) -> Result<(), String> {
    let want = expected[body];
    if fingerprint == want {
        Ok(())
    } else {
        Err(format!(
            "body {body}: fingerprint {fingerprint:#018x}, the CLI gave {want:#018x}"
        ))
    }
}

fn check_job(sample: &JobSample, expected: &[u64]) -> Result<(), String> {
    match &sample.error {
        Some(why) => Err(why.clone()),
        None => check_body(sample.body, sample.fingerprint, expected),
    }
}

/// Starts a daemon, warms it up on a tenth of `jobs`, drives `jobs`
/// through it, and shuts it down. Returns the timed load and the daemon's
/// peak RSS.
fn serve_load(
    inputs: &Inputs,
    expected: &[u64],
    ctx: &Ctx,
    tally: &mut Tally,
    jobs: u64,
    setups: &mut Vec<f64>,
) -> Option<(Load, Option<u64>)> {
    let daemon = tally.check(
        "dh-serve start",
        Daemon::start(&ctx.serve, &ctx.work.join("serve"), &ctx.packs(), ctx.nproc),
    )?;
    setups.push(daemon.setup);
    let bodies: Vec<String> = inputs.jobs.iter().map(Job::body).collect();
    let warm = jobs / 10;
    let ((warmup, load), rss) = with_rss(daemon.pid(), || {
        let warmup = closed_loop(daemon.addr, &bodies, serve_body, 0..warm, ctx.nproc);
        let load = closed_loop(
            daemon.addr,
            &bodies,
            serve_body,
            warm..warm + jobs,
            ctx.nproc,
        );
        (warmup, load)
    });
    tally.check("dh-serve shutdown", daemon.shutdown());
    for l in [&warmup, &load] {
        for (k, sample) in &l.jobs {
            tally.check(&format!("job {k}"), check_job(sample, expected));
        }
        tally.attempted += l.healthz.len() as u64;
        for e in &l.errors {
            tally.check("GET /healthz", Err::<(), _>(e.clone()));
        }
    }
    Some((load, rss))
}

fn serve_end_to_end(inputs: &Inputs, ctx: &Ctx, tally: &mut Tally, m: &mut Metrics) {
    let Some(expected) = serve_expected(inputs, ctx, tally) else {
        return;
    };
    let mut setups = Vec::new();
    for i in 0..SETUP_PROBES {
        let started = Daemon::start(
            &ctx.serve,
            &ctx.work.join(format!("serve-probe-{i}")),
            &ctx.packs(),
            ctx.nproc,
        );
        if let Some(daemon) = tally.check("dh-serve start", started) {
            setups.push(daemon.setup);
            tally.check("dh-serve shutdown", daemon.shutdown());
        }
    }
    let Some((load, rss)) = serve_load(
        inputs,
        &expected,
        ctx,
        tally,
        serve_jobs(ctx.seconds),
        &mut setups,
    ) else {
        return;
    };
    let ok: Vec<&JobSample> = load
        .jobs
        .iter()
        .map(|(_, s)| s)
        .filter(|s| s.error.is_none())
        .collect();
    let latency: Vec<f64> = ok.iter().map(|s| s.latency).collect();
    // The two job kinds are sized to take about the same time; their
    // medians show whether they still do.
    let kind_p50 = |scenario: bool| {
        let of_kind: Vec<f64> = ok
            .iter()
            .filter(|s| (s.body == SERVE_FLEET_BODIES) == scenario)
            .map(|s| s.latency)
            .collect();
        median(&of_kind).unwrap_or(f64::NAN) * 1e3
    };
    println!(
        "serve-mixed: {} jobs in {:.3} s, latency p50 {:.2} ms (fleet jobs {:.2}, scenario jobs {:.2}), p99 {}, /healthz p50 {:.2} ms over {}, peak rss {} kB",
        ok.len(),
        load.wall,
        median(&latency).unwrap_or(f64::NAN) * 1e3,
        kind_p50(false),
        kind_p50(true),
        percentile(&latency, 99.0).map_or("n/a (too few jobs)".into(), |p| format!("{:.2} ms", p * 1e3)),
        median(&load.healthz).unwrap_or(f64::NAN) * 1e3,
        load.healthz.len(),
        rss.map_or("?".into(), |kb| kb.to_string()),
    );
    put(m, "setup_s", median(&setups));
    put(m, "throughput_per_s", Some(ok.len() as f64 / load.wall));
    put(m, "latency_p50_ms", median(&latency).map(|l| l * 1e3));
    put(m, "peak_rss_mb", rss.map(|kb| kb as f64 / 1024.0));
}

/// The client-side stage times of the surface runs in a traced pass.
#[derive(Debug, Default)]
struct SurfaceStats {
    accept: Vec<f64>,
    run: Vec<f64>,
    close: Vec<f64>,
    /// The surface's wall for one op, the traced op's counterpart.
    wall: Vec<f64>,
    events: Vec<f64>,
    wait_share: f64,
    refused: u64,
}

/// Everything the layer metrics are computed from.
struct Layers<'a> {
    spans: &'a [Span],
    unit_epochs: f64,
    probes: &'a [CkptProbe],
    draw_ns: f64,
    efficiency: Option<f64>,
    surface: SurfaceStats,
}

fn layer_metrics(l: Layers<'_>, tally: &mut Tally, m: &mut Metrics) {
    let spans = l.spans;
    let op_total = trace::total(spans, trace::OP);
    let share =
        |names: &[&str]| names.iter().map(|n| trace::total(spans, n)).sum::<f64>() / op_total;
    let mut writes = trace::durations(spans, trace::WRITE);
    if writes.is_empty() {
        writes = l
            .probes
            .iter()
            .flat_map(|p| p.writes.iter().copied())
            .collect();
    }
    let us = |name| median(&trace::durations(spans, name)).map(|s| s * 1e6);
    put(m, "engine.new_us", us(trace::NEW));
    put(
        m,
        "engine.step_ns_per_unit_epoch",
        Some(trace::total(spans, trace::STEP) * 1e9 / l.unit_epochs),
    );
    put(m, "engine.report_us", us(trace::REPORT));
    put(m, "engine.step_share", Some(share(&[trace::STEP])));
    put(
        m,
        "ckpt.share",
        Some(share(&[trace::SNAPSHOT, trace::WRITE])),
    );
    put(m, "ckpt.write_ms_p50", median(&writes).map(|s| s * 1e3));
    let encode: Vec<f64> = l.probes.iter().map(|p| p.encode * 1e6).collect();
    let bytes: Vec<f64> = l.probes.iter().map(|p| p.bytes as f64).collect();
    put(m, "ckpt.encode_us", median(&encode));
    put(m, "ckpt.bytes", median(&bytes));
    put(m, "fleet.draw_ns_per_chip", Some(l.draw_ns));
    put(m, "exec.parallel_efficiency", l.efficiency);
    let s = &l.surface;
    let ms = |v: &[f64]| median(v).map(|x| x * 1e3);
    put(m, "surface.accept_ms_p50", ms(&s.accept));
    put(m, "surface.run_ms_p50", ms(&s.run));
    put(m, "surface.close_ms_p50", ms(&s.close));
    put(m, "surface.wait_share", Some(s.wait_share));
    put(m, "surface.events_per_op", median(&s.events));
    put(m, "surface.refused", Some(s.refused as f64));
    let traced_op = median(&trace::durations(spans, trace::OP));
    put(
        m,
        "trace.wall_ratio",
        traced_op.zip(median(&s.wall)).map(|(t, e)| t / e),
    );
    let coverage = share(&trace::CHILDREN);
    put(m, "trace.span_coverage", Some(coverage));
    tally.check(
        "span coverage",
        if coverage >= MIN_SPAN_COVERAGE {
            Ok(())
        } else {
            Err(format!(
                "child spans cover {coverage:.4} of the traced wall, below {MIN_SPAN_COVERAGE}"
            ))
        },
    );
    print!("{}", trace::summary(spans));
}

fn cli_traced(w: Workload, inputs: &Inputs, ctx: &Ctx, tally: &mut Tally, m: &mut Metrics) {
    let job = &inputs.jobs[0];
    let dir = ctx.work.join("trace");
    let mut warm = Tracer::new(Instant::now());
    for (i, j) in inputs.warmup.iter().enumerate() {
        tally.check(
            "warm-up traced run",
            trace_job(j, None, &dir, &mut warm, i as u64).map(drop),
        );
    }
    let efficiency = tally.check(
        "parallel efficiency",
        trace::parallel_efficiency(&inputs.warmup, None, &dir, ctx.nproc),
    );
    // Alternate a CLI run with a traced run of the same job until the
    // time is up, so both see the same machine state.
    let mut tr = Tracer::new(Instant::now());
    let mut fin = None;
    let mut op = 0;
    let runs = timed_cli_runs(w, inputs, ctx, tally, |tally, fps| {
        let traced =
            trace_job(job, None, &dir, &mut tr, op).and_then(|(fp, f)| fps.check(fp).map(|()| f));
        op += 1;
        if let Some(f) = tally.check("traced run", traced) {
            fin = Some(f);
        }
    });
    let probe = fin.map(|f| probe_ckpt(&f, job.durable.is_none(), &dir.join("probe")));
    let probes: Vec<CkptProbe> = probe
        .and_then(|p| tally.check("checkpoint probe", p))
        .into_iter()
        .collect();
    let surface = SurfaceStats {
        accept: runs.iter().map(|r| r.setup).collect(),
        run: runs.iter().map(|r| r.run).collect(),
        close: runs.iter().map(|r| r.close).collect(),
        wall: runs.iter().map(|r| r.wall).collect(),
        events: runs.iter().map(|r| r.lines as f64).collect(),
        wait_share: 0.0,
        refused: 0,
    };
    let unit_epochs =
        job.unit_epochs() as f64 * trace::durations(&tr.spans, trace::OP).len() as f64;
    layer_metrics(
        Layers {
            spans: &tr.spans,
            unit_epochs,
            probes: &probes,
            draw_ns: trace::draw_ns_per_chip(ctx.seed),
            efficiency,
            surface,
        },
        tally,
        m,
    );
}

fn serve_traced(inputs: &Inputs, ctx: &Ctx, tally: &mut Tally, m: &mut Metrics) {
    let Some(expected) = serve_expected(inputs, ctx, tally) else {
        return;
    };
    let jobs = serve_jobs(ctx.seconds) / 2;
    let Some((load, _)) = serve_load(inputs, &expected, ctx, tally, jobs, &mut Vec::new()) else {
        return;
    };
    let ok: Vec<&JobSample> = load
        .jobs
        .iter()
        .map(|(_, s)| s)
        .filter(|s| s.error.is_none())
        .collect();
    let of = |f: fn(&JobSample) -> f64| ok.iter().map(|&s| f(s)).collect::<Vec<f64>>();
    let surface = SurfaceStats {
        accept: of(|s| s.submit),
        run: of(|s| s.run),
        close: of(|s| s.close),
        wall: of(|s| s.run),
        events: of(|s| s.frames as f64),
        wait_share: of(|s| s.wait).iter().sum::<f64>() / of(|s| s.latency).iter().sum::<f64>(),
        refused: load.jobs.iter().filter(|(_, s)| s.refused).count() as u64,
    };

    // The same job mix in-process, on as many threads as the daemon has
    // job slots, stepping as the daemon steps.
    let dir = ctx.work.join("trace");
    let origin = Instant::now();
    let next = AtomicU64::new(0);
    type Worker = (Tracer, Vec<(u64, Result<(), String>)>);
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.nproc)
            .map(|_| {
                s.spawn(|| {
                    let mut tr = Tracer::new(origin);
                    let mut outcomes = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= jobs {
                            break;
                        }
                        let body = serve_body(k);
                        let outcome = trace_job(
                            &inputs.jobs[body],
                            Some(DAEMON_STEP_SHARDS),
                            &dir,
                            &mut tr,
                            k,
                        )
                        .and_then(|(fp, _)| check_body(body, fp, &expected));
                        outcomes.push((k, outcome));
                    }
                    (tr, outcomes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a traced worker does not panic"))
            .collect()
    });
    let mut spans = Vec::new();
    for (tr, outcomes) in workers {
        spans.extend(tr.spans);
        for (k, outcome) in outcomes {
            tally.check(&format!("traced job {k}"), outcome);
        }
    }
    let unit_epochs: f64 = (0..jobs)
        .map(|k| inputs.jobs[serve_body(k)].unit_epochs() as f64)
        .sum();

    let mut probes = Vec::new();
    let mut scratch = Tracer::new(Instant::now());
    for (i, job) in inputs.jobs.iter().enumerate() {
        let fin: Option<Final> = tally.check(
            "probe run",
            trace_job(job, Some(DAEMON_STEP_SHARDS), &dir, &mut scratch, i as u64).map(|(_, f)| f),
        );
        if let Some(p) = fin
            .and_then(|f| tally.check("checkpoint probe", probe_ckpt(&f, true, &dir.join("probe"))))
        {
            probes.push(p);
        }
    }
    let efficiency = tally.check(
        "parallel efficiency",
        trace::parallel_efficiency(&inputs.jobs, Some(DAEMON_STEP_SHARDS), &dir, ctx.nproc),
    );
    layer_metrics(
        Layers {
            spans: &spans,
            unit_epochs,
            probes: &probes,
            draw_ns: trace::draw_ns_per_chip(ctx.seed),
            efficiency,
            surface,
        },
        tally,
        m,
    );
}

/// The result line: `correct`, `attempted`, `failed`, and every declared
/// metric with its unit. A declared metric that was not measured counts
/// as a failure.
pub fn render(declared: &[(&str, &str)], tally: &Tally, m: &Metrics) -> (String, bool) {
    let mut failed = tally.failed;
    let fields: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            let value = match m.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    eprintln!("FAIL metric {name}: not measured");
                    failed += 1;
                    0.0
                }
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        fields.join(", ")
    );
    (line, correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_declared() {
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (name, _) in list {
                assert!(
                    !name.is_empty()
                        && name
                            .bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                    "{name}"
                );
            }
            assert_eq!(emitted(list), declared(section), "{section}");
        }
        let workloads: Vec<String> = Json::parse(include_str!("../../BENCHMARK.json"))
            .unwrap()
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(ours, workloads);
    }

    #[test]
    fn a_missing_metric_fails_the_result() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let mut m = Metrics::new();
        m.insert("setup_s", 0.5);
        let (line, correct) = render(&[("setup_s", "s")], &tally, &m);
        assert!(correct);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let (line, correct) = render(&[("setup_s", "s"), ("peak_rss_mb", "MB")], &tally, &m);
        assert!(!correct);
        assert_eq!(
            Json::parse(&line)
                .unwrap()
                .get("failed")
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}
