//! # dh-serve: fleet reliability simulation as a daemon
//!
//! A small HTTP service wrapping the `dh-fleet` engine: operators
//! submit fleet/guardband jobs as JSON, the daemon runs them on a
//! bounded worker pool with the same supervised, checkpointed semantics
//! as the `fleet` CLI, and progress streams back over server-sent
//! events. The intended deployment is one daemon per reliability lab
//! box behind a reverse proxy; there is no auth, TLS, or multi-tenancy
//! here by design.
//!
//! ```text
//! POST   /jobs             submit (202, body echoes the job id)
//!                          400 malformed | 422 invalid config
//!                          429 + Retry-After when the queue is full
//! GET    /jobs             list every known job
//! GET    /jobs/{id}        status document
//! GET    /jobs/{id}/events SSE: started/progress/completed/failed/cancelled
//! DELETE /jobs/{id}        cancel (queued: immediate; running: next batch)
//! GET    /scenarios        the scenario registry (built-ins + --scenario-dir)
//! GET    /healthz          liveness
//! POST   /shutdown         graceful stop (CI smoke uses this)
//! ```
//!
//! Jobs come in two shapes: a `config` object runs the fleet engine, a
//! `{"scenario": "<name>"}` reference runs a `dh-scenario` pack from
//! the registry. Both checkpoint under `--data-dir`, and the daemon
//! records each job's outcome in a meta file there, so a restarted
//! daemon still answers `GET /jobs/{id}` for its previous life — an
//! interrupted checkpointing job reports `resumable` instead of 404.
//!
//! Everything is hand-rolled on `std::net` — the build vendors no HTTP
//! or JSON dependency — and every fault-tolerance property of the
//! engine carries through: injected shard panics degrade the job (the
//! `completed` event says what it survived), they never kill the
//! daemon, and a cancelled checkpointing job can be resubmitted to
//! resume from disk with a byte-identical final fingerprint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;
pub mod job;
/// The JSON codec the daemon speaks, re-exported from [`dh_json`] (it
/// moved there so `dh-scenario` could parse packs without linking the
/// HTTP daemon).
pub use dh_json as json;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use api::{parse_job_spec, ServeError};
use http::{read_request, respond_json, Request, SseWriter};
use job::{JobRegistry, RunnerSettings};

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Queued-job bound; submissions beyond it get a 429.
    pub queue_capacity: usize,
    /// Worker threads running jobs concurrently.
    pub concurrency: usize,
    /// Shards per step (one progress event each) for non-checkpointing
    /// jobs; a scenario step counts shard-epochs across epoch ends.
    pub step_shards: u64,
    /// Artificial delay between batches (tests; zero in production).
    pub pace: Duration,
    /// Directory holding job checkpoint files (created on start).
    pub data_dir: PathBuf,
    /// Extra scenario packs loaded from `*.json` files in this
    /// directory (they shadow same-named built-ins).
    pub scenario_dir: Option<PathBuf>,
    /// How long a running job may go without a heartbeat before the
    /// watchdog declares it `degraded` and frees its worker slot.
    /// `None` disables the watchdog.
    pub job_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7477".into(),
            queue_capacity: 16,
            concurrency: 2,
            step_shards: 4,
            pace: Duration::ZERO,
            data_dir: PathBuf::from("dh-serve-data"),
            scenario_dir: None,
            job_deadline: None,
        }
    }
}

/// A running daemon: the listener, its worker pool, and the shared job
/// registry.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<JobRegistry>,
    accept_stop: Arc<AtomicBool>,
    shutdown_signal: Arc<(Mutex<bool>, Condvar)>,
    accept_handle: Option<JoinHandle<()>>,
    watchdog_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Socket bind / data-dir creation failures.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        std::fs::create_dir_all(&config.data_dir)?;
        let scenarios = match &config.scenario_dir {
            Some(dir) => dh_scenario::ScenarioRegistry::with_dir(dir)
                .map_err(|e| io::Error::other(e.to_string()))?,
            None => dh_scenario::ScenarioRegistry::builtin(),
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(JobRegistry::new(RunnerSettings {
            queue_capacity: config.queue_capacity,
            step_shards: config.step_shards,
            pace: config.pace,
            data_dir: config.data_dir.clone(),
            scenarios: Arc::new(scenarios),
            job_deadline: config.job_deadline,
        }));
        let shutdown_signal = Arc::new((Mutex::new(false), Condvar::new()));
        let accept_stop = Arc::new(AtomicBool::new(false));

        let worker_handles = (0..config.concurrency.max(1))
            .map(|i| {
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("dh-serve-worker-{i}"))
                    .spawn(move || registry.worker_loop())
                    .expect("failed to spawn worker thread")
            })
            .collect();

        let accept_handle = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&accept_stop);
            let signal = Arc::clone(&shutdown_signal);
            std::thread::Builder::new()
                .name("dh-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let registry = Arc::clone(&registry);
                        let signal = Arc::clone(&signal);
                        // Thread per connection: every request is one
                        // short exchange (or a job-lifetime SSE tail),
                        // and the operator population is tiny.
                        let _ = std::thread::Builder::new()
                            .name("dh-serve-conn".into())
                            .spawn(move || handle_connection(stream, &registry, &signal));
                    }
                })
                .expect("failed to spawn accept thread")
        };

        // The watchdog: a supervisor thread that periodically scans for
        // running jobs whose runner stopped heartbeating, marks them
        // `degraded` (terminal SSE frame), and spawns one replacement
        // worker per fire so the stalled runner's slot is not lost —
        // the hung thread itself is left to die on its own (it cannot
        // be killed safely), but the daemon's concurrency recovers.
        let watchdog_handle = config.job_deadline.map(|deadline| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&accept_stop);
            let tick = (deadline / 4).max(Duration::from_millis(5));
            std::thread::Builder::new()
                .name("dh-serve-watchdog".into())
                .spawn(move || {
                    let mut replacements = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(tick);
                        for _ in 0..registry.watchdog_scan(deadline) {
                            let registry = Arc::clone(&registry);
                            if let Ok(handle) = std::thread::Builder::new()
                                .name("dh-serve-worker-r".into())
                                .spawn(move || registry.worker_loop())
                            {
                                replacements.push(handle);
                            }
                        }
                    }
                    // Shutdown: the registry has been (or is being)
                    // drained; replacement workers exit on its signal.
                    for handle in replacements {
                        let _ = handle.join();
                    }
                })
                .expect("failed to spawn watchdog thread")
        });

        Ok(Self {
            addr,
            registry,
            accept_stop,
            shutdown_signal,
            accept_handle: Some(accept_handle),
            watchdog_handle,
            worker_handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry (tests poke it directly).
    pub fn registry(&self) -> &Arc<JobRegistry> {
        &self.registry
    }

    /// Blocks until some client POSTs `/shutdown`.
    pub fn wait_for_shutdown(&self) {
        let (flag, cond) = &*self.shutdown_signal;
        let mut requested = flag.lock().unwrap_or_else(PoisonError::into_inner);
        while !*requested {
            requested = cond.wait(requested).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops accepting, cancels queued work, asks running jobs to stop,
    /// and joins every thread the server owns.
    pub fn shutdown(mut self) {
        self.accept_stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.registry.shutdown();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        // After registry.shutdown(): replacement workers need the
        // shutdown signal to exit before the watchdog can join them.
        if let Some(handle) = self.watchdog_handle.take() {
            let _ = handle.join();
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &Arc<JobRegistry>,
    shutdown_signal: &Arc<(Mutex<bool>, Condvar)>,
) {
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(why) => {
            let err = ServeError::BadRequest(why);
            respond_json(&mut stream, err.status(), &[], &err.to_json());
            return;
        }
    };
    match route(&request, registry, &mut stream) {
        Ok(Routed::Done) => {}
        Ok(Routed::Shutdown) => {
            let (flag, cond) = &**shutdown_signal;
            *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cond.notify_all();
        }
        Err(err) => {
            let extra: Vec<(&str, String)> = match &err {
                ServeError::QueueFull { retry_after } => {
                    vec![("Retry-After", retry_after.to_string())]
                }
                _ => Vec::new(),
            };
            respond_json(&mut stream, err.status(), &extra, &err.to_json());
        }
    }
}

enum Routed {
    Done,
    Shutdown,
}

fn route(
    request: &Request,
    registry: &Arc<JobRegistry>,
    stream: &mut TcpStream,
) -> Result<Routed, ServeError> {
    let method = request.method.as_str();
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => {
            // Liveness plus the degraded-disk signal: once any job has
            // survived a disk incident, operators should check the
            // data-dir volume even though the daemon itself is fine.
            let disk = if registry.disk_degraded() {
                "degraded"
            } else {
                "ok"
            };
            respond_json(
                stream,
                200,
                &[],
                &format!(
                    "{{\"status\": \"ok\", \"disk\": \"{disk}\", \"watchdog_fires\": {}}}",
                    registry.watchdog_fire_count(),
                ),
            );
            Ok(Routed::Done)
        }
        ("POST", ["shutdown"]) => {
            respond_json(stream, 200, &[], "{\"status\": \"shutting down\"}");
            Ok(Routed::Shutdown)
        }
        ("POST", ["jobs"]) => {
            let spec = parse_job_spec(
                &request.body,
                dh_exec::max_threads(),
                &registry.settings().scenarios,
            )?;
            let job = registry.submit(spec)?;
            respond_json(stream, 202, &[], &job.status_json());
            Ok(Routed::Done)
        }
        ("GET", ["jobs"]) => {
            respond_json(stream, 200, &[], &registry.list_json());
            Ok(Routed::Done)
        }
        ("GET", ["jobs", id]) => {
            let job = registry
                .get(parse_id(id)?)
                .ok_or_else(|| ServeError::NotFound(format!("no job {id}")))?;
            respond_json(stream, 200, &[], &job.status_json());
            Ok(Routed::Done)
        }
        ("DELETE", ["jobs", id]) => {
            let job = registry.cancel(parse_id(id)?)?;
            respond_json(stream, 200, &[], &job.status_json());
            Ok(Routed::Done)
        }
        ("GET", ["jobs", id, "events"]) => {
            let job = registry
                .get(parse_id(id)?)
                .ok_or_else(|| ServeError::NotFound(format!("no job {id}")))?;
            let mut sse = SseWriter::begin(stream);
            let mut index = 0usize;
            while let Some((event, data)) = job.next_event(index) {
                sse.event(&event, &data);
                if sse.is_broken() {
                    break;
                }
                index += 1;
            }
            Ok(Routed::Done)
        }
        ("GET", ["scenarios"]) => {
            respond_json(
                stream,
                200,
                &[],
                &scenarios_json(&registry.settings().scenarios),
            );
            Ok(Routed::Done)
        }
        (
            _,
            ["healthz"]
            | ["shutdown"]
            | ["scenarios"]
            | ["jobs"]
            | ["jobs", _]
            | ["jobs", _, "events"],
        ) => Err(ServeError::MethodNotAllowed(format!(
            "{method} is not supported here"
        ))),
        _ => Err(ServeError::NotFound(format!(
            "no route for {}",
            request.path
        ))),
    }
}

fn parse_id(raw: &str) -> Result<u64, ServeError> {
    raw.parse()
        .map_err(|_| ServeError::BadRequest(format!("bad job id {raw:?}")))
}

/// The `GET /scenarios` body: one row per registered pack.
fn scenarios_json(registry: &dh_scenario::ScenarioRegistry) -> String {
    let rows: Vec<String> = registry
        .entries()
        .iter()
        .map(|entry| {
            format!(
                "{{\"name\": \"{}\", \"description\": \"{}\", \"source\": \"{}\", \
                 \"epochs\": {}, \"elements\": {}, \"blocks\": {}}}",
                json::escape(&entry.pack.name),
                json::escape(&entry.pack.description),
                entry.source.name(),
                entry.pack.epochs,
                entry.pack.total_elements(),
                entry.pack.blocks.len(),
            )
        })
        .collect();
    format!("{{\"scenarios\": [{}]}}", rows.join(", "))
}
