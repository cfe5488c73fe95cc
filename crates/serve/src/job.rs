//! Jobs, the bounded queue, and the runner that executes them.
//!
//! A job is a [`JobSpec`] plus observable state: a status, a progress
//! cursor, and an append-only event log that the SSE endpoint replays
//! and tails. The registry holds every job ever submitted (the daemon
//! is an operator tool, not a public service; completed jobs stay
//! queryable until shutdown) and a bounded pending queue drained by a
//! fixed worker pool — the submit path refuses with a 429 rather than
//! queueing unboundedly.
//!
//! Both job kinds run through [`dh_fault::drive`], the loop the library
//! and the CLI use: the step is a closure over the engine's own
//! `step_into`, which also fills the write's temp file when the job has
//! a store, and the daemon's concerns are the other callbacks, a cancel
//! check before every step and a progress event after it. A job
//! that is killed and resubmitted resumes from disk and lands on a report
//! byte-identical to an uninterrupted run.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dh_exec::RetryPolicy;
use dh_fault::{drive, CheckpointFile, CheckpointStore, DegradedReport, FaultPlan, Run};
use dh_fleet::{FleetConfig, FleetRun};
use dh_scenario::{ScenarioPack, ScenarioRegistry, ScenarioRun};

use crate::api::{parse_spec, retry_after_hint, JobSpec, ServeError};
use crate::json::{escape, num, Json};

/// At most this many per-shard summaries ride on one progress event;
/// a 100k-device run should not emit megabyte frames.
const MAX_SHARD_VIEWS: usize = 8;

/// A simulation job runs panic-supervised, so a poisoned lock means a
/// sibling died mid-section, not that the data is bad — recover the
/// guard, same as the fleet layer's slab pool.
fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker slot.
    Queued,
    /// A worker is stepping it.
    Running,
    /// Finished; the fingerprint is final.
    Completed,
    /// Finished in a degraded state: the run survived injected or real
    /// faults (quarantined shards, disk incidents, checkpoint
    /// fallbacks), or the watchdog gave up on a stalled runner. The
    /// fingerprint, when present, is final.
    Degraded,
    /// Aborted on an error (I/O, config mismatch on resume, …).
    Failed,
    /// Stopped by `DELETE /jobs/{id}` (or daemon shutdown).
    Cancelled,
    /// Restored from a previous daemon life's meta file: interrupted
    /// (or cancelled with a checkpoint on disk), so resubmitting the
    /// same spec resumes it. Terminal in this life — a restored job is
    /// a record, not a runnable.
    Resumable,
}

impl JobStatus {
    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Degraded => "degraded",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
            Self::Resumable => "resumable",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            Self::Completed | Self::Degraded | Self::Failed | Self::Cancelled | Self::Resumable
        )
    }
}

#[derive(Debug)]
struct JobInner {
    status: JobStatus,
    shards_done: u64,
    shard_count: u64,
    /// Set once on completion.
    fingerprint: Option<u64>,
    /// Set once on failure.
    error: Option<String>,
    /// Last sign of life from the runner; the watchdog compares this
    /// against the job deadline.
    heartbeat: Instant,
    /// `(event name, single-line JSON data)`, append-only.
    events: Vec<(String, String)>,
}

/// One submitted job and everything observable about it.
#[derive(Debug)]
pub struct Job {
    /// Daemon-unique id, assigned at submit.
    pub id: u64,
    /// The validated submission.
    pub spec: JobSpec,
    cancel: AtomicBool,
    inner: Mutex<JobInner>,
    /// Signals event-log growth and terminal transitions.
    cond: Condvar,
}

impl Job {
    fn new(id: u64, spec: JobSpec) -> Self {
        // Scenario jobs sweep every shard once per epoch, so the
        // progress denominator is the full run, not one pass.
        let shard_count = match &spec.scenario {
            Some(pack) => pack.shard_count().saturating_mul(pack.epochs),
            None => spec.shard_count(),
        };
        Self {
            id,
            spec,
            cancel: AtomicBool::new(false),
            inner: Mutex::new(JobInner {
                status: JobStatus::Queued,
                shards_done: 0,
                shard_count,
                fingerprint: None,
                error: None,
                heartbeat: Instant::now(),
                events: Vec::new(),
            }),
            cond: Condvar::new(),
        }
    }

    /// Asks the runner to stop at the next batch boundary. Idempotent.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The job's current status.
    pub fn status(&self) -> JobStatus {
        lock(&self.inner).status
    }

    fn set_running(&self) {
        let mut inner = lock(&self.inner);
        inner.status = JobStatus::Running;
        inner.heartbeat = Instant::now();
    }

    /// How long since the runner last showed a sign of life.
    pub fn heartbeat_elapsed(&self) -> Duration {
        lock(&self.inner).heartbeat.elapsed()
    }

    /// Appends an event and wakes every SSE tail. Every event doubles
    /// as a heartbeat. No-op once terminal: a runner the watchdog
    /// already gave up on must not reanimate the stream.
    fn push_event(&self, event: &str, data: String) {
        let mut inner = lock(&self.inner);
        if inner.status.is_terminal() {
            return;
        }
        inner.heartbeat = Instant::now();
        inner.events.push((event.to_string(), data));
        self.cond.notify_all();
    }

    /// Transitions to a terminal status with its terminal event. First
    /// writer wins: a late finish from a runner the watchdog already
    /// declared dead (or a watchdog racing a clean completion) is
    /// dropped.
    fn finish(&self, status: JobStatus, event: &str, data: String) {
        let mut inner = lock(&self.inner);
        if inner.status.is_terminal() {
            return;
        }
        inner.status = status;
        inner.events.push((event.to_string(), data));
        self.cond.notify_all();
    }

    /// Returns event `index`, blocking until it exists. `None` means the
    /// job reached a terminal state and the log is fully drained — the
    /// SSE handler's signal to hang up.
    pub fn next_event(&self, index: usize) -> Option<(String, String)> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(frame) = inner.events.get(index) {
                return Some(frame.clone());
            }
            if inner.status.is_terminal() {
                return None;
            }
            inner = self
                .cond
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the job reaches a terminal state and returns it.
    pub fn wait_terminal(&self) -> JobStatus {
        let mut inner = lock(&self.inner);
        while !inner.status.is_terminal() {
            inner = self
                .cond
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.status
    }

    /// The job's status document (the `GET /jobs/{id}` body).
    pub fn status_json(&self) -> String {
        let inner = lock(&self.inner);
        let fingerprint = match inner.fingerprint {
            Some(fp) => format!("\"{fp:#018x}\""),
            None => "null".to_string(),
        };
        let error = match &inner.error {
            Some(e) => format!("\"{}\"", escape(e)),
            None => "null".to_string(),
        };
        let scenario = match &self.spec.scenario {
            Some(pack) => format!("\"{}\"", escape(&pack.name)),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\": {}, \"status\": \"{}\", \"shards_done\": {}, \"shard_count\": {}, \
             \"devices\": {}, \"scenario\": {}, \"fingerprint\": {}, \"error\": {}}}",
            self.id,
            inner.status.name(),
            inner.shards_done,
            inner.shard_count,
            self.spec.devices(),
            scenario,
            fingerprint,
            error,
        )
    }
}

/// Knobs the runner and queue need from the server configuration.
#[derive(Debug, Clone)]
pub struct RunnerSettings {
    /// Queued-job bound; the submit path 429s beyond it.
    pub queue_capacity: usize,
    /// Shards per step when the job does not checkpoint (checkpointing
    /// jobs step by their `checkpoint_every`).
    pub step_shards: u64,
    /// Artificial delay between batches. Zero in production; tests use
    /// it to hold jobs observably in-flight.
    pub pace: Duration,
    /// Directory for job checkpoint and meta files.
    pub data_dir: PathBuf,
    /// The scenario registry `{"scenario": …}` submissions resolve
    /// against.
    pub scenarios: Arc<ScenarioRegistry>,
    /// How long a running job may go without a heartbeat before the
    /// watchdog declares it degraded and frees its slot. `None`
    /// disables the watchdog.
    pub job_deadline: Option<Duration>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    jobs: Vec<Arc<Job>>,
    pending: VecDeque<Arc<Job>>,
    next_id: u64,
    shutdown: bool,
}

/// Every job the daemon knows about, plus the bounded pending queue.
#[derive(Debug)]
pub struct JobRegistry {
    settings: RunnerSettings,
    inner: Mutex<RegistryInner>,
    /// Wakes workers when the queue grows or shutdown begins.
    queue_cond: Condvar,
    /// Times the watchdog declared a stalled job degraded.
    watchdog_fires: AtomicU64,
    /// Set once any job records a disk incident; `/healthz` reports it.
    disk_degraded: AtomicBool,
}

impl JobRegistry {
    /// A registry primed with every job recorded in the data dir's meta
    /// files — a restarted daemon answers `GET /jobs/{id}` for its
    /// previous life's jobs (`resumable` where a checkpoint allows it)
    /// instead of 404ing.
    pub fn new(settings: RunnerSettings) -> Self {
        let jobs = restore_jobs(&settings);
        let next_id = jobs.iter().map(|j| j.id).max().unwrap_or(0) + 1;
        Self {
            settings,
            inner: Mutex::new(RegistryInner {
                jobs,
                next_id,
                ..RegistryInner::default()
            }),
            queue_cond: Condvar::new(),
            watchdog_fires: AtomicU64::new(0),
            disk_degraded: AtomicBool::new(false),
        }
    }

    /// The runner/queue settings this registry was built with.
    pub fn settings(&self) -> &RunnerSettings {
        &self.settings
    }

    /// Accepts a job into the queue, or refuses: 429 when the pending
    /// queue is at capacity (running jobs do not count — their slots are
    /// the concurrency bound, not the queue bound), 409 during shutdown.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, ServeError> {
        let mut inner = lock(&self.inner);
        if inner.shutdown {
            return Err(ServeError::Conflict("daemon is shutting down".into()));
        }
        if inner.pending.len() >= self.settings.queue_capacity {
            return Err(ServeError::QueueFull {
                retry_after: retry_after_hint(self.settings.pace),
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let job = Arc::new(Job::new(id, spec));
        inner.jobs.push(Arc::clone(&job));
        inner.pending.push_back(Arc::clone(&job));
        self.queue_cond.notify_one();
        drop(inner);
        write_meta(&job, &self.settings.data_dir);
        Ok(job)
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        lock(&self.inner).jobs.iter().find(|j| j.id == id).cloned()
    }

    /// Cancels a job: a queued job is removed from the queue and goes
    /// terminal immediately; a running one stops at its next batch
    /// boundary. Terminal jobs are left untouched (cancel is
    /// idempotent). Returns the job for a status body.
    pub fn cancel(&self, id: u64) -> Result<Arc<Job>, ServeError> {
        let job = self
            .get(id)
            .ok_or_else(|| ServeError::NotFound(format!("no job {id}")))?;
        job.request_cancel();
        let mut inner = lock(&self.inner);
        if let Some(at) = inner.pending.iter().position(|j| j.id == id) {
            let queued = inner.pending.remove(at).expect("position just found");
            drop(inner);
            queued.finish(
                JobStatus::Cancelled,
                "cancelled",
                format!("{{\"job\": {id}, \"shards_done\": 0}}"),
            );
            write_meta(&queued, &self.settings.data_dir);
        }
        Ok(job)
    }

    /// The `GET /jobs` body.
    pub fn list_json(&self) -> String {
        let jobs = lock(&self.inner).jobs.clone();
        let rows: Vec<String> = jobs.iter().map(|j| j.status_json()).collect();
        format!("{{\"jobs\": [{}]}}", rows.join(", "))
    }

    /// Begins shutdown: refuses new submissions, cancels queued jobs,
    /// asks running jobs to stop, and releases every worker.
    pub fn shutdown(&self) {
        let drained: Vec<Arc<Job>> = {
            let mut inner = lock(&self.inner);
            inner.shutdown = true;
            let drained = inner.pending.drain(..).collect();
            for job in &inner.jobs {
                job.request_cancel();
            }
            self.queue_cond.notify_all();
            drained
        };
        for job in drained {
            job.finish(
                JobStatus::Cancelled,
                "cancelled",
                format!("{{\"job\": {}, \"shards_done\": 0}}", job.id),
            );
            write_meta(&job, &self.settings.data_dir);
        }
    }

    /// One worker thread's life: claim, run, repeat, exit on shutdown.
    pub fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut inner = lock(&self.inner);
                loop {
                    if let Some(job) = inner.pending.pop_front() {
                        break job;
                    }
                    if inner.shutdown {
                        return;
                    }
                    inner = self
                        .queue_cond
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            run_job(&job, &self.settings, &self.disk_degraded);
            write_meta(&job, &self.settings.data_dir);
        }
    }

    /// One watchdog pass: every running job whose heartbeat is older
    /// than the deadline goes terminal-degraded (its runner is asked to
    /// cancel, in case it is merely slow rather than dead). Returns the
    /// jobs fired on, so the server can spawn replacement workers for
    /// the slots their runners still occupy.
    pub fn watchdog_scan(&self, deadline: Duration) -> usize {
        let stalled: Vec<Arc<Job>> = lock(&self.inner)
            .jobs
            .iter()
            .filter(|j| j.status() == JobStatus::Running && j.heartbeat_elapsed() > deadline)
            .cloned()
            .collect();
        for job in &stalled {
            job.request_cancel();
            self.watchdog_fires.fetch_add(1, Ordering::Relaxed);
            dh_obs::counter!("serve.watchdog_fires").incr();
            job.finish(
                JobStatus::Degraded,
                "degraded",
                format!(
                    "{{\"job\": {}, \"reason\": \"watchdog: no heartbeat in {} ms\"}}",
                    job.id,
                    deadline.as_millis(),
                ),
            );
            write_meta(job, &self.settings.data_dir);
        }
        stalled.len()
    }

    /// Times the watchdog has fired since boot.
    pub fn watchdog_fire_count(&self) -> u64 {
        self.watchdog_fires.load(Ordering::Relaxed)
    }

    /// Whether any job has recorded a disk incident since boot.
    pub fn disk_degraded(&self) -> bool {
        self.disk_degraded.load(Ordering::Relaxed)
    }
}

/// Persists a job's observable outcome to `job-{id}.meta.json` under
/// the data dir (tmp + atomic rename, best-effort: a meta write failure
/// never fails the job, it only costs post-restart visibility).
fn write_meta(job: &Job, data_dir: &Path) {
    let (status, shards_done, fingerprint, error) = {
        let inner = lock(&job.inner);
        (
            inner.status,
            inner.shards_done,
            inner.fingerprint,
            inner.error.clone(),
        )
    };
    let fingerprint = match fingerprint {
        Some(fp) => format!("\"{fp:#018x}\""),
        None => "null".to_string(),
    };
    let error = match error {
        Some(e) => format!("\"{}\"", escape(&e)),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"id\": {}, \"status\": \"{}\", \"shards_done\": {}, \"fingerprint\": {}, \
         \"error\": {}, \"spec\": \"{}\"}}",
        job.id,
        status.name(),
        shards_done,
        fingerprint,
        error,
        escape(&job.spec.raw),
    );
    let path = data_dir.join(format!("job-{}.meta.json", job.id));
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, body).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

/// Rebuilds the job list from the data dir's meta files on boot.
/// Unreadable or stale files (bad JSON, a spec whose scenario left the
/// registry) are skipped, not fatal — boot must always succeed.
fn restore_jobs(settings: &RunnerSettings) -> Vec<Arc<Job>> {
    let Ok(entries) = std::fs::read_dir(&settings.data_dir) else {
        return Vec::new();
    };
    let mut jobs = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(id) = name
            .strip_prefix("job-")
            .and_then(|rest| rest.strip_suffix(".meta.json"))
            .and_then(|rest| rest.parse::<u64>().ok())
        else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        if let Some(job) = restore_job(id, &text, settings) {
            jobs.push(Arc::new(job));
        }
    }
    jobs.sort_by_key(|j| j.id);
    jobs
}

fn restore_job(id: u64, text: &str, settings: &RunnerSettings) -> Option<Job> {
    let doc = Json::parse(text).ok()?;
    let raw = doc.get("spec")?.as_str()?;
    let spec = parse_spec(
        raw.as_bytes(),
        dh_exec::max_threads(),
        &settings.scenarios,
        true,
    )
    .ok()?;
    let status = match doc.get("status")?.as_str()? {
        "completed" => JobStatus::Completed,
        "degraded" => JobStatus::Degraded,
        "failed" => JobStatus::Failed,
        // A cancel with a checkpoint on disk is resumable by design;
        // without one the cancel is final.
        "cancelled" if spec.checkpoint.is_some() => JobStatus::Resumable,
        "cancelled" => JobStatus::Cancelled,
        // Queued or running when the previous daemon died: interrupted,
        // and a resubmission of the same spec picks the work back up.
        _ => JobStatus::Resumable,
    };
    let fingerprint = doc
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok());
    let error = doc.get("error").and_then(Json::as_str).map(str::to_string);
    let shards_done = doc
        .get("shards_done")
        .and_then(Json::as_u64)
        .unwrap_or_default();
    let job = Job::new(id, spec);
    {
        let mut inner = lock(&job.inner);
        inner.status = status;
        inner.shards_done = shards_done;
        inner.fingerprint = fingerprint;
        inner.error = error;
    }
    Some(job)
}

fn progress_event(job: &Job, run: &FleetRun) -> String {
    let p = run.progress();
    let shards = run.with_store_views(|views| {
        let rows: Vec<String> = views
            .iter()
            .filter(|v| !v.is_empty())
            .take(MAX_SHARD_VIEWS)
            .map(|v| {
                format!(
                    "{{\"lo\": {}, \"chips\": {}, \"alive\": {}, \"failed\": {}, \
                     \"worst_guardband\": {}, \"mean_guardband\": {}}}",
                    v.lo(),
                    v.len(),
                    v.alive(),
                    v.failed(),
                    num(v.worst_guardband()),
                    num(v.mean_guardband()),
                )
            })
            .collect();
        rows.join(", ")
    });
    format!(
        "{{\"job\": {}, \"shards_done\": {}, \"shard_count\": {}, \"devices_done\": {}, \
         \"failed\": {}, \"guardband\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \
         \"p90\": {}, \"p99\": {}}}, \"shards\": [{}]}}",
        job.id,
        p.shards_done,
        p.shard_count,
        p.devices_done,
        p.failed,
        p.guardband.count,
        num(p.guardband.mean),
        num(p.guardband.p50),
        num(p.guardband.p90),
        num(p.guardband.p99),
        shards,
    )
}

fn fail_job(job: &Job, why: String) {
    let mut inner = lock(&job.inner);
    if inner.status.is_terminal() {
        return;
    }
    inner.status = JobStatus::Failed;
    inner.error = Some(why.clone());
    inner.events.push((
        "failed".to_string(),
        format!("{{\"job\": {}, \"error\": \"{}\"}}", job.id, escape(&why)),
    ));
    job.cond.notify_all();
}

/// Executes one job start to finish on the calling worker thread. Every
/// outcome — completion, failure, cancellation — lands as a terminal
/// event; nothing here panics the worker (the shard loop underneath is
/// the supervised one). A run that recorded disk incidents sets
/// `disk_degraded` before its terminal frame goes out, so `/healthz`
/// never lags the frame.
fn run_job(job: &Arc<Job>, settings: &RunnerSettings, disk_degraded: &AtomicBool) {
    job.set_running();
    let spec = &job.spec;
    let plan = spec.fault_plan();
    let retry = RetryPolicy {
        max_attempts: spec.retry,
        ..RetryPolicy::default()
    };
    let store = spec
        .checkpoint
        .as_ref()
        .map(|name| CheckpointStore::new(settings.data_dir.join(name), spec.keep));
    let runner = Runner {
        job,
        settings,
        disk_degraded,
        plan: plan.as_ref(),
        retry: &retry,
        store: store.as_ref(),
    };
    let outcome = match &spec.scenario {
        Some(pack) => runner.scenario(pack.clone()),
        None => runner.fleet(
            spec.config
                .clone()
                .expect("non-scenario jobs carry a config"),
        ),
    };
    let finished = match outcome {
        Ok(Some(finished)) => finished,
        // A cancel has already ended the job.
        Ok(None) => return,
        Err(why) => {
            fail_job(job, why);
            return;
        }
    };
    let degraded = &finished.degraded;
    lock(&job.inner).fingerprint = Some(finished.fingerprint);
    let data = format!(
        "{{\"job\": {}, {}, \"degraded\": {}, \"quarantined_shards\": {}, \"retries\": {}, \
         \"rejected_samples\": {}, \"checkpoint_fallbacks\": {}, \"disk_incidents\": {}}}",
        job.id,
        finished.fields,
        degraded.is_degraded(),
        degraded.quarantined.len(),
        degraded.retries,
        degraded.rejected_samples,
        degraded.checkpoint_fallbacks.len(),
        degraded.disk_incidents.len(),
    );
    // A run that survived faults ends on the `degraded` frame, with the
    // same payload `completed` would carry.
    if degraded.is_degraded() {
        job.finish(JobStatus::Degraded, "degraded", data);
    } else {
        job.finish(JobStatus::Completed, "completed", data);
    }
}

/// What a job's run needs besides its engine input.
struct Runner<'a> {
    job: &'a Job,
    settings: &'a RunnerSettings,
    /// The registry's `/healthz` disk flag.
    disk_degraded: &'a AtomicBool,
    plan: Option<&'a FaultPlan>,
    retry: &'a RetryPolicy,
    store: Option<&'a CheckpointStore>,
}

/// A run that reached its end: what its terminal frame reports.
struct Finished {
    fingerprint: u64,
    /// The engine's own terminal-frame fields, after `"job"`.
    fields: String,
    degraded: DegradedReport,
}

impl Runner<'_> {
    /// A fleet job: resume or start, drive, report.
    fn fleet(&self, config: FleetConfig) -> Result<Option<Finished>, String> {
        let job = self.job;
        let opened = match self.store {
            Some(store) => FleetRun::resume_from_store(config, store),
            None => FleetRun::new(config),
        };
        let mut run = opened.map_err(|e| e.to_string())?;
        lock(&job.inner).shards_done = run.cursor();
        job.push_event(
            "started",
            format!(
                "{{\"job\": {}, \"resumed_from\": {}, \"shard_count\": {}, \"checkpoint_fallbacks\": {}}}",
                job.id,
                run.cursor(),
                run.config().shard_count(),
                run.degraded().checkpoint_fallbacks.len(),
            ),
        );
        if !self.drive(
            &mut run,
            |run, shards, file| run.step_into(shards, self.plan, self.retry, file),
            |run| (run.cursor(), progress_event(job, run)),
        )? {
            return Ok(None);
        }
        let report = run.report().map_err(|e| e.to_string())?;
        Ok(Some(Finished {
            fingerprint: report.fingerprint(),
            fields: format!(
                "\"fingerprint\": \"{:#018x}\", \"devices\": {}, \"failed\": {}",
                report.fingerprint(),
                report.devices,
                report.failed,
            ),
            degraded: run.degraded().clone(),
        }))
    }

    /// A scenario job: the fleet path's twin, with the same cancel
    /// points, supervision and checkpoint discipline, so a kill resumes
    /// from the last boundary and still lands on the byte-identical final
    /// state the determinism tests pin.
    fn scenario(&self, pack: ScenarioPack) -> Result<Option<Finished>, String> {
        let job = self.job;
        dh_obs::label("scenario", &pack.name);
        dh_obs::label("scenario.blocks", &pack.blocks.len().to_string());
        dh_obs::label("scenario.elements", &pack.total_elements().to_string());
        let opened = match self.store {
            Some(store) => ScenarioRun::resume_from_store(pack.clone(), store),
            None => Ok(ScenarioRun::new(pack.clone())),
        };
        let mut run = opened.map_err(|e| e.to_string())?;
        let per_epoch = run.progress().shards as u64;
        let shards_done = |run: &ScenarioRun| {
            let p = run.progress();
            p.epoch * per_epoch + p.shard_cursor as u64
        };
        lock(&job.inner).shards_done = shards_done(&run);
        job.push_event(
            "started",
            format!(
                "{{\"job\": {}, \"scenario\": \"{}\", \"pack_fingerprint\": \"{:#018x}\", \
                 \"resumed_epoch\": {}, \"total_epochs\": {}, \"shards\": {}, \
                 \"checkpoint_fallbacks\": {}}}",
                job.id,
                escape(&pack.name),
                run.pack_fingerprint(),
                run.progress().epoch,
                pack.epochs,
                per_epoch,
                run.degraded.checkpoint_fallbacks.len(),
            ),
        );
        let step = |run: &mut ScenarioRun, shards: u64, file: Option<&CheckpointFile>| {
            let shards = usize::try_from(shards).unwrap_or(usize::MAX);
            run.step_into(shards, self.plan, self.retry, file).done
        };
        if !self.drive(&mut run, step, |run| {
            (shards_done(run), scenario_progress_event(job, run))
        })? {
            return Ok(None);
        }
        let report = run.report();
        Ok(Some(Finished {
            fingerprint: report.fingerprint,
            fields: format!(
                "\"scenario\": \"{}\", \"fingerprint\": \"{:#018x}\", \"elements\": {}, \
                 \"failed\": {}, \"epochs\": {}",
                escape(&report.scenario),
                report.fingerprint,
                pack.total_elements(),
                report.groups.iter().map(|g| g.failed).sum::<u64>(),
                report.epochs_run,
            ),
            degraded: run.degraded,
        }))
    }

    /// Drives a job's run the daemon's way: `step` takes `checkpoint_every`
    /// shards, with a write after it, when the job checkpoints,
    /// `--step-shards` otherwise; a cancel check before every step; and
    /// after it the shard count from `progress`, its progress event, and
    /// the pace sleep. Raises the registry's disk flag, before any
    /// terminal frame, when the run survived disk incidents, and returns
    /// whether the run finished — a cancel ends the job here.
    fn drive<R: Run>(
        &self,
        run: &mut R,
        mut step: impl FnMut(&mut R, u64, Option<&CheckpointFile>) -> bool,
        progress: impl Fn(&R) -> (u64, String),
    ) -> Result<bool, String> {
        let (job, settings) = (self.job, self.settings);
        let shards = match self.store {
            Some(_) => job.spec.checkpoint_every,
            None => settings.step_shards,
        };
        let finished = drive(
            run,
            |run, file| step(run, shards, file),
            self.store,
            self.plan,
            || job.cancel_requested(),
            |run| {
                let (shards_done, event) = progress(run);
                let done = {
                    let mut inner = lock(&job.inner);
                    inner.shards_done = shards_done;
                    shards_done >= inner.shard_count
                };
                job.push_event("progress", event);
                if !done && !settings.pace.is_zero() {
                    std::thread::sleep(settings.pace);
                }
            },
        )
        .map_err(|e| e.to_string())?;
        if !run.degraded().disk_incidents.is_empty() {
            self.disk_degraded.store(true, Ordering::Relaxed);
        }
        if !finished {
            let shards_done = lock(&job.inner).shards_done;
            job.finish(
                JobStatus::Cancelled,
                "cancelled",
                format!("{{\"job\": {}, \"shards_done\": {shards_done}}}", job.id),
            );
        }
        Ok(finished)
    }
}

fn scenario_progress_event(job: &Job, run: &ScenarioRun) -> String {
    let p = run.progress();
    format!(
        "{{\"job\": {}, \"scenario\": \"{}\", \"epoch\": {}, \"total_epochs\": {}, \
         \"shard_cursor\": {}, \"shards\": {}}}",
        job.id,
        escape(&run.pack().name),
        p.epoch,
        p.total_epochs,
        p.shard_cursor,
        p.shards,
    )
}
