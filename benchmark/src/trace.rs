//! The traced pass: each job re-run in-process, with a span around every
//! call into the public API of `dh-fleet` and `dh-scenario`, plus probes
//! of single layers. Spans are kept in memory and summarized at the end.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use dh_exec::RetryPolicy;
use dh_fault::FaultPlan;
use dh_fleet::{CheckpointStore, ChipSpec, FleetConfig, FleetRun};
use dh_scenario::{ScenarioCheckpointStore, ScenarioPack, ScenarioRun};

use crate::workload::{Durable, Engine, Job, NOOP_INJECT};

/// One whole job; every other span is one of its children.
pub const OP: &str = "op";
/// `FleetRun::new` / `ScenarioRun::new`.
pub const NEW: &str = "engine.new";
/// `FleetRun::step_supervised` / `ScenarioRun::step_supervised`.
pub const STEP: &str = "engine.step";
/// `FleetRun::snapshot`.
pub const SNAPSHOT: &str = "ckpt.snapshot";
/// `CheckpointStore::write` / `ScenarioCheckpointStore::write`: rotate,
/// encode, write, fsync. Under the no-op fault plan the CLI's injecting
/// writers do the same work.
pub const WRITE: &str = "ckpt.write";
/// `FleetRun::report` / `ScenarioRun::report`.
pub const REPORT: &str = "engine.report";
/// The children of [`OP`], which together should cover its wall.
pub const CHILDREN: [&str; 5] = [NEW, STEP, SNAPSHOT, WRITE, REPORT];

/// Chips the corner-draw probe draws.
const DRAW_CHIPS: u64 = 1_000_000;
/// Synchronous checkpoint writes a probe makes of a job's final state.
const PROBE_WRITES: usize = 8;

/// A timed call: `op` names the job it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn record(&mut self, name: &'static str, op: u64, start: f64) {
        let end = self.now();
        self.spans.push(Span {
            name,
            op,
            start,
            end,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.record(name, op, start);
        out
    }
}

/// Durations of every span named `name`, seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Total seconds spent in spans named `name` (0 without any).
pub fn total(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().fold(0.0, |a, d| a + d)
}

/// The state a traced job ends in, kept for the layer probes.
#[derive(Debug)]
pub enum Final {
    Fleet(Box<FleetRun>),
    Scenario(Box<ScenarioRun>),
}

/// Runs `job` in-process as the CLI does (`daemon_stride` `None`) or as
/// the daemon does (`Some(shards per step)`), checkpointing a durable job
/// synchronously into a fresh directory under `dir`. Returns the report
/// fingerprint and the final state. A degraded run (a quarantined shard)
/// reports another fingerprint than the CLI's clean run, which the caller
/// checks.
pub fn trace_job(
    job: &Job,
    daemon_stride: Option<u64>,
    dir: &Path,
    tr: &mut Tracer,
    op: u64,
) -> Result<(u64, Final), String> {
    let ckpt_dir = dir.join(format!("trace-{op}"));
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("{}: {e}", ckpt_dir.display()))?;
    let start = tr.now();
    let out = match &job.engine {
        Engine::Fleet(config) => fleet(config, job.durable, daemon_stride, &ckpt_dir, tr, op),
        Engine::Scenario(pack) => scenario(pack, job.durable, daemon_stride, &ckpt_dir, tr, op),
    };
    tr.record(OP, op, start);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    out
}

/// The fleet CLI's engine loop: one step over every shard, or (durable)
/// `run_fleet_supervised_with`'s step → snapshot → write cadence with the
/// writes made synchronously so each is timed.
fn fleet(
    config: &FleetConfig,
    durable: Option<Durable>,
    daemon_stride: Option<u64>,
    dir: &Path,
    tr: &mut Tracer,
    op: u64,
) -> Result<(u64, Final), String> {
    let retry = RetryPolicy::default();
    let mut run = tr
        .span(NEW, op, || FleetRun::new(config.clone()))
        .map_err(|e| e.to_string())?;
    match durable {
        None => {
            let stride = daemon_stride.unwrap_or(u64::MAX);
            while !tr.span(STEP, op, || run.step_supervised(stride, None, &retry)) {}
        }
        Some(d) => {
            let plan = FaultPlan::parse(NOOP_INJECT, config.seed).map_err(|e| e.to_string())?;
            let store = CheckpointStore::new(dir.join("f.dhfl"), d.keep);
            loop {
                let done = tr.span(STEP, op, || {
                    run.step_supervised(d.every, Some(&plan), &retry)
                });
                let snapshot = tr.span(SNAPSHOT, op, || run.snapshot());
                tr.span(WRITE, op, || store.write(&snapshot))
                    .map_err(|e| e.to_string())?;
                if done {
                    break;
                }
            }
        }
    }
    let report = tr
        .span(REPORT, op, || run.report())
        .map_err(|e| e.to_string())?;
    Ok((report.fingerprint(), Final::Fleet(Box::new(run))))
}

/// `run_pack_supervised`'s loop (CLI) or the daemon's scenario loop, each
/// call under its own span.
fn scenario(
    pack: &ScenarioPack,
    durable: Option<Durable>,
    daemon_stride: Option<u64>,
    dir: &Path,
    tr: &mut Tracer,
    op: u64,
) -> Result<(u64, Final), String> {
    let retry = RetryPolicy::default();
    let mut run = tr.span(NEW, op, || ScenarioRun::new(pack.clone()));
    let plan = match durable {
        Some(_) => Some(FaultPlan::parse(NOOP_INJECT, pack.seed).map_err(|e| e.to_string())?),
        None => None,
    };
    let store = durable.map(|d| {
        (
            ScenarioCheckpointStore::new(dir.join("s.dhsp"), d.keep),
            d.every,
        )
    });
    let batch = daemon_stride.map_or_else(dh_exec::max_threads, |s| s as usize);
    let mut steps = 0u64;
    let write = |tr: &mut Tracer, run: &ScenarioRun, store: &ScenarioCheckpointStore| {
        tr.span(WRITE, op, || store.write(run))
            .map(drop)
            .map_err(|e| e.to_string())
    };
    loop {
        let progress = tr.span(STEP, op, || {
            run.step_supervised(batch, plan.as_ref(), &retry)
        });
        if progress.done {
            break;
        }
        steps += 1;
        if let Some((store, every)) = &store {
            if steps.is_multiple_of(*every) {
                write(tr, &run, store)?;
            }
        }
    }
    if let Some((store, _)) = &store {
        write(tr, &run, store)?;
    }
    let report = tr.span(REPORT, op, || run.report());
    Ok((report.fingerprint, Final::Scenario(Box::new(run))))
}

/// Mean seconds per call of `f`, repeated for at least 20 ms and 3 calls.
fn mean_call(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || started.elapsed() < Duration::from_millis(20) {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(calls)
}

/// What the checkpoint layer costs for one final state.
#[derive(Debug)]
pub struct CkptProbe {
    /// Seconds per encode.
    pub encode: f64,
    pub bytes: usize,
    /// Synchronous store writes, seconds (only for jobs that wrote none).
    pub writes: Vec<f64>,
}

/// Encodes `fin` repeatedly and, when `write` is set, writes it
/// [`PROBE_WRITES`] times through its checkpoint store under `dir`.
pub fn probe_ckpt(fin: &Final, write: bool, dir: &Path) -> Result<CkptProbe, String> {
    fn timed<E: std::fmt::Display>(write: impl FnOnce() -> Result<u64, E>) -> Result<f64, String> {
        let started = Instant::now();
        write().map_err(|e| e.to_string())?;
        Ok(started.elapsed().as_secs_f64())
    }
    let writes = if write { PROBE_WRITES } else { 0 };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let probe = match fin {
        Final::Fleet(run) => {
            let snapshot = run.snapshot();
            let mut buf = Vec::new();
            let encode = mean_call(|| {
                snapshot.encode_into(&mut buf);
                black_box(&buf);
            });
            let store = CheckpointStore::new(dir.join("probe.dhfl"), 3);
            let writes = (0..writes)
                .map(|_| timed(|| store.write(&snapshot)))
                .collect::<Result<_, _>>()?;
            CkptProbe {
                encode,
                bytes: buf.len(),
                writes,
            }
        }
        Final::Scenario(run) => {
            let encode = mean_call(|| {
                black_box(run.encode_checkpoint());
            });
            let store = ScenarioCheckpointStore::new(dir.join("probe.dhsp"), 2);
            let writes = (0..writes)
                .map(|_| timed(|| store.write(run)))
                .collect::<Result<_, _>>()?;
            CkptProbe {
                encode,
                bytes: run.encode_checkpoint().len(),
                writes,
            }
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    Ok(probe)
}

/// Nanoseconds per `ChipSpec::draw` (the per-chip corner draw behind
/// `ChipStore::reset`), on this thread alone. Every fleet workload draws
/// from the default temperature and variation, so the probe depends on
/// no workload; on the scenario workload it is a no-move control.
pub fn draw_ns_per_chip(seed: u64) -> f64 {
    let config = FleetConfig {
        seed,
        ..FleetConfig::default()
    };
    let started = Instant::now();
    for index in 0..DRAW_CHIPS {
        black_box(ChipSpec::draw(
            config.seed,
            index,
            config.base_temperature,
            &config.variation,
        ));
    }
    started.elapsed().as_secs_f64() * 1e9 / DRAW_CHIPS as f64
}

/// Step time of `jobs` on one worker thread ÷ (`nproc` × step time on
/// every thread): 1 is perfect scaling.
pub fn parallel_efficiency(
    jobs: &[Job],
    daemon_stride: Option<u64>,
    dir: &Path,
    nproc: usize,
) -> Result<f64, String> {
    let step_seconds = |threads: Option<usize>| -> Result<f64, String> {
        dh_exec::set_max_threads(threads);
        let mut tr = Tracer::new(Instant::now());
        let ran = jobs.iter().enumerate().try_for_each(|(i, job)| {
            trace_job(job, daemon_stride, dir, &mut tr, i as u64).map(drop)
        });
        dh_exec::set_max_threads(None);
        ran.map(|()| total(&tr.spans, STEP))
    };
    let serial = step_seconds(Some(1))?;
    let parallel = step_seconds(None)?;
    Ok(serial / (nproc as f64 * parallel))
}

/// One line per span name: count, the jobs it occurs in, total, and
/// median.
pub fn summary(spans: &[Span]) -> String {
    let mut out = String::new();
    for name in std::iter::once(OP).chain(CHILDREN) {
        let d = durations(spans, name);
        let jobs: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.op)
            .collect();
        if let Some(median) = crate::stats::median(&d) {
            out.push_str(&format!(
                "span {name:<14} count {:>6} in {:>4} jobs  total {:>9.3} s  median {:>10.1} us\n",
                d.len(),
                jobs.len(),
                d.iter().sum::<f64>(),
                median * 1e6
            ));
        }
    }
    out
}
