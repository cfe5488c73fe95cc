//! The shipped surfaces, driven from outside: `fleet` CLI processes and a
//! `dh-serve` daemon over HTTP. Every time here is a client-side
//! timestamp; nothing inside the programs is instrumented.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dh_json::Json;

use crate::workload::Job;

/// How often a child's peak RSS is sampled.
const RSS_POLL: Duration = Duration::from_millis(10);

/// How long any single HTTP read may block before the exchange fails.
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);

/// The child's `VmHWM` (peak resident set), kB. `None` off Linux or once
/// the process has exited.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Samples `VmHWM` every 10 ms until `stop` is set; returns the largest.
fn poll_hwm(pid: u32, stop: &AtomicBool) -> Option<u64> {
    let mut peak = None;
    loop {
        if let Some(kb) = vm_hwm_kb(pid) {
            peak = peak.max(Some(kb));
        }
        if stop.load(Ordering::SeqCst) {
            return peak;
        }
        std::thread::sleep(RSS_POLL);
    }
}

/// Runs `body` while a thread polls the peak RSS of `pid`.
pub fn with_rss<R>(pid: u32, body: impl FnOnce() -> R) -> (R, Option<u64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let poller = s.spawn(|| poll_hwm(pid, &stop));
        let out = body();
        stop.store(true, Ordering::SeqCst);
        (out, poller.join().expect("the RSS poller does not panic"))
    })
}

/// One `fleet` CLI run, timed from spawn.
#[derive(Debug)]
pub struct CliRun {
    /// Spawn to the ready line, seconds.
    pub setup: f64,
    /// Ready line to the report fingerprint line, seconds.
    pub run: f64,
    /// Report fingerprint line to process exit, seconds.
    pub close: f64,
    /// Spawn to exit, seconds.
    pub wall: f64,
    pub rss_kb: Option<u64>,
    /// Lines printed to stdout.
    pub lines: usize,
    pub fingerprint: u64,
}

/// Runs `fleet` on `job`, checkpointing (if the job is durable) into the
/// fresh directory `ckpt_dir`, which is removed afterwards.
pub fn run_cli(fleet: &Path, job: &Job, ckpt_dir: &Path, packs: &Path) -> Result<CliRun, String> {
    std::fs::create_dir_all(ckpt_dir).map_err(|e| format!("{}: {e}", ckpt_dir.display()))?;
    let args = job.cli_args(ckpt_dir, packs);
    let result = run_cli_args(fleet, job, &args);
    let _ = std::fs::remove_dir_all(ckpt_dir);
    result.map_err(|e| format!("fleet {}: {e}", args.join(" ")))
}

fn run_cli_args(fleet: &Path, job: &Job, args: &[String]) -> Result<CliRun, String> {
    let started = Instant::now();
    let mut child = Command::new(fleet)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (read, rss_kb) = with_rss(child.id(), || {
        let read = read_cli_output(stdout, job, started);
        let status = child.wait();
        (read, status, started.elapsed().as_secs_f64())
    });
    let (read, status, wall) = read;
    let status = status.map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    let (ready, report, fingerprint, lines, clean) = read?;
    let ready = ready.ok_or("no ready line")?;
    let (report, fingerprint) = report.zip(fingerprint).ok_or("no report fingerprint")?;
    if job.durable.is_some() && !clean {
        return Err("the degraded report is not clean".into());
    }
    Ok(CliRun {
        setup: ready,
        run: report - ready,
        close: wall - report,
        wall,
        rss_kb,
        lines,
        fingerprint,
    })
}

/// Spawn to the ready line of a `fleet` run on `job` that is then killed:
/// the start-up cost alone, seconds.
pub fn cli_setup(fleet: &Path, job: &Job, ckpt_dir: &Path, packs: &Path) -> Result<f64, String> {
    std::fs::create_dir_all(ckpt_dir).map_err(|e| format!("{}: {e}", ckpt_dir.display()))?;
    let started = Instant::now();
    let mut child = Command::new(fleet)
        .args(job.cli_args(ckpt_dir, packs))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn fleet: {e}"))?;
    let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let ready = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break None,
            Ok(_) if job.is_ready_line(&line) => break Some(started.elapsed().as_secs_f64()),
            Ok(_) => {}
        }
    };
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(ckpt_dir);
    ready.ok_or_else(|| "fleet printed no ready line".to_string())
}

type CliOutput = (Option<f64>, Option<f64>, Option<u64>, usize, bool);

/// Reads the CLI's stdout to EOF, timestamping the ready line and the
/// report fingerprint line.
fn read_cli_output(stdout: ChildStdout, job: &Job, started: Instant) -> Result<CliOutput, String> {
    let mut reader = BufReader::new(stdout);
    let (mut ready, mut report, mut fingerprint) = (None, None, None);
    let (mut lines, mut clean) = (0, false);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("stdout: {e}"))?;
        if n == 0 {
            break;
        }
        let at = started.elapsed().as_secs_f64();
        lines += 1;
        if ready.is_none() && job.is_ready_line(&line) {
            ready = Some(at);
        }
        if let Some(hex) = line.trim().strip_prefix("report fingerprint: ") {
            fingerprint = Some(parse_hex(hex)?);
            report = Some(at);
        }
        clean |= line.starts_with("degraded report: clean run");
    }
    Ok((ready, report, fingerprint, lines, clean))
}

fn parse_hex(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text.trim_start_matches("0x"), 16)
        .map_err(|e| format!("bad fingerprint {text:?}: {e}"))
}

/// A running `dh-serve` daemon; dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn to the `listening on` line, seconds.
    pub setup: f64,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts the daemon with `nproc` job slots on an OS-chosen port.
    pub fn start(
        serve: &Path,
        data_dir: &Path,
        packs: &Path,
        nproc: usize,
    ) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(serve)
            .args(["--addr", "127.0.0.1:0", "--queue", "64"])
            .arg("--concurrency")
            .arg(nproc.to_string())
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--scenario-dir")
            .arg(packs)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn dh-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line);
        let setup = started.elapsed().as_secs_f64();
        let addr = line
            .trim()
            .strip_prefix("dh-serve listening on ")
            .and_then(|a| a.parse().ok());
        let mut daemon = Self {
            child,
            addr: "127.0.0.1:0".parse().expect("a literal address"),
            setup,
            stdout,
        };
        match (ready, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!("dh-serve did not come up (first line {line:?})")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let (status, _) = request(self.addr, "POST", "/shutdown", "")
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        if status != 200 {
            return Err(format!("POST /shutdown answered {status}"));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait dh-serve: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("dh-serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One HTTP/1.1 exchange (the daemon closes every connection): returns
/// the status and a reader positioned at the body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, BufReader<TcpStream>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: dh-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
    }
    Ok((status, reader))
}

/// One daemon job, timed from the moment its POST is sent.
#[derive(Debug, Default, Clone)]
pub struct JobSample {
    /// Index of the job body.
    pub body: usize,
    /// POST sent to the 202, seconds.
    pub submit: f64,
    /// 202 to the `started` frame.
    pub wait: f64,
    /// `started` frame to the terminal frame.
    pub run: f64,
    /// Terminal frame to EOF.
    pub close: f64,
    /// POST sent to the terminal frame.
    pub latency: f64,
    pub frames: usize,
    pub fingerprint: u64,
    /// The POST was refused with a 429.
    pub refused: bool,
    pub error: Option<String>,
}

/// Submits `body`, then tails the job's SSE stream to EOF.
fn run_job(addr: SocketAddr, body: &str) -> JobSample {
    let mut sample = JobSample::default();
    if let Err(e) = tail_job(addr, body, &mut sample) {
        sample.error = Some(e);
    }
    sample
}

fn tail_job(addr: SocketAddr, body: &str, sample: &mut JobSample) -> Result<(), String> {
    let sent = Instant::now();
    let (status, mut reader) =
        request(addr, "POST", "/jobs", body).map_err(|e| format!("POST /jobs: {e}"))?;
    sample.submit = sent.elapsed().as_secs_f64();
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| format!("POST /jobs body: {e}"))?;
    if status != 202 {
        sample.refused = status == 429;
        return Err(format!("POST /jobs answered {status}: {text}"));
    }
    let id = Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("no job id in {text:?}"))?;

    let path = format!("/jobs/{id}/events");
    let (status, mut reader) =
        request(addr, "GET", &path, "").map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}"));
    }
    let (mut started, mut terminal) = (None, None);
    let mut event = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if n == 0 {
            break;
        }
        if let Some(name) = line.trim_end().strip_prefix("event: ") {
            event = name.to_string();
        } else if let Some(data) = line.trim_end().strip_prefix("data: ") {
            let at = sent.elapsed().as_secs_f64();
            sample.frames += 1;
            match event.as_str() {
                "started" => started = Some(at),
                "completed" | "degraded" | "failed" | "cancelled" => {
                    if event != "completed" {
                        return Err(format!("job {id} ended {event}: {data}"));
                    }
                    terminal = Some(at);
                    sample.fingerprint = Json::parse(data)
                        .ok()
                        .and_then(|doc| {
                            doc.get("fingerprint").and_then(Json::as_str).map(parse_hex)
                        })
                        .ok_or_else(|| format!("no fingerprint in {data}"))??;
                }
                _ => {}
            }
        }
    }
    let eof = sent.elapsed().as_secs_f64();
    let started = started.ok_or_else(|| format!("job {id}: no started frame"))?;
    let terminal = terminal.ok_or_else(|| format!("job {id}: no terminal frame"))?;
    sample.wait = started - sample.submit;
    sample.run = terminal - started;
    sample.close = eof - terminal;
    sample.latency = terminal;
    Ok(())
}

/// `GET /healthz`, timed.
fn healthz(addr: SocketAddr) -> Result<f64, String> {
    let sent = Instant::now();
    let (status, mut reader) =
        request(addr, "GET", "/healthz", "").map_err(|e| format!("GET /healthz: {e}"))?;
    let mut text = String::new();
    let _ = reader.read_to_string(&mut text);
    let took = sent.elapsed().as_secs_f64();
    if status == 200 {
        Ok(took)
    } else {
        Err(format!("GET /healthz answered {status}: {text}"))
    }
}

/// What a closed loop saw.
#[derive(Debug, Default)]
pub struct Load {
    /// One sample per job, in job order.
    pub jobs: Vec<(u64, JobSample)>,
    /// `GET /healthz` times, every hundredth job.
    pub healthz: Vec<f64>,
    pub errors: Vec<String>,
    /// First POST to the last client finishing, seconds.
    pub wall: f64,
}

/// Drives jobs `first..end` through the daemon from `clients` threads,
/// each sending its next job only once the previous one has finished
/// (a closed loop: at most `clients` connections are ever open). Job `k`
/// uses `bodies[body_of(k)]`; every hundredth also polls `/healthz`.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    body_of: fn(u64) -> usize,
    jobs: std::ops::Range<u64>,
    clients: usize,
) -> Load {
    let next = AtomicU64::new(jobs.start);
    let started = Instant::now();
    let parts: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut part = Load::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= jobs.end {
                            break;
                        }
                        let mut sample = run_job(addr, &bodies[body_of(k)]);
                        sample.body = body_of(k);
                        part.jobs.push((k, sample));
                        if k.is_multiple_of(100) {
                            match healthz(addr) {
                                Ok(t) => part.healthz.push(t),
                                Err(e) => part.errors.push(e),
                            }
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client does not panic"))
            .collect()
    });
    let mut load = Load {
        wall: started.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for part in parts {
        load.jobs.extend(part.jobs);
        load.healthz.extend(part.healthz);
        load.errors.extend(part.errors);
    }
    load.jobs.sort_by_key(|(k, _)| *k);
    load
}

/// Where the benchmark keeps its files: a fresh directory removed on drop.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
