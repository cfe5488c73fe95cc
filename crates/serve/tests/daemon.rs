//! End-to-end daemon tests over real sockets: backpressure, cancel,
//! SSE lifecycle, validation, checkpoint resume byte-identity, and the
//! fault-injection path. Every test runs its own server on an
//! OS-assigned port with its own data directory.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dh_fault::TempDir;
use dh_fleet::{run_fleet, FleetConfig, FleetPolicy, MaintenanceBudget};
use dh_serve::client::{request, sse, Response};
use dh_serve::{ServeConfig, Server};

/// A fresh directory for one test, removed when the guard drops.
fn temp_data_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("serve-test-{tag}"))
}

/// Starts a daemon on its own data directory. The guard comes first, so
/// a `let (dir, server, addr)` binding drops the server before the
/// directory it writes into.
fn start(tag: &str, tweak: impl FnOnce(&mut ServeConfig)) -> (TempDir, Server, SocketAddr) {
    let data_dir = temp_data_dir(tag);
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        ..ServeConfig::default()
    };
    tweak(&mut config);
    let server = Server::start(config).expect("server should bind");
    let addr = server.local_addr();
    (data_dir, server, addr)
}

/// A job body matching [`test_config`]: 256 devices in 8 shards of 32,
/// short horizon, fixed shard size so the report's checkpoint cursor is
/// machine-independent.
fn job_body(extra: &str) -> String {
    format!(
        "{{\"config\": {{\"devices\": 256, \"years\": 0.2, \"shard_size\": 32, \
         \"group_size\": 16, \"budget\": 2, \"seed\": 11}}{extra}}}"
    )
}

fn test_config() -> FleetConfig {
    FleetConfig {
        devices: 256,
        years: 0.2,
        shard_size: 32,
        group_size: 16,
        budget: MaintenanceBudget { slots_per_group: 2 },
        seed: 11,
        policies: vec![FleetPolicy::WorstFirst],
        ..FleetConfig::default()
    }
}

fn submit(addr: SocketAddr, body: &str) -> Response {
    request(addr, "POST", "/jobs", Some(body)).expect("submit request should complete")
}

fn job_field(body: &str, field: &str) -> String {
    // Fish a scalar field out of a status document without a JSON dep
    // in the test: `"field": value` with value ending at `,` or `}`.
    let needle = format!("\"{field}\": ");
    let at = body.find(&needle).unwrap_or_else(|| {
        panic!("no field {field:?} in {body}");
    }) + needle.len();
    body[at..]
        .split([',', '}'])
        .next()
        .expect("split yields at least one piece")
        .trim()
        .trim_matches('"')
        .to_string()
}

fn wait_for<T>(what: &str, timeout: Duration, mut poll: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = poll() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_status(addr: SocketAddr, id: &str, wanted: &str) -> String {
    wait_for(
        &format!("job {id} to reach {wanted}"),
        Duration::from_secs(30),
        || {
            let r = request(addr, "GET", &format!("/jobs/{id}"), None).ok()?;
            (job_field(&r.body, "status") == wanted).then_some(r.body)
        },
    )
}

#[test]
fn health_and_unknown_routes() {
    let (_dir, server, addr) = start("health", |_| {});
    let ok = request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(ok.status, 200);
    assert!(ok.body.contains("ok"));

    let missing = request(addr, "GET", "/nowhere", None).unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = request(addr, "DELETE", "/healthz", None).unwrap();
    assert_eq!(wrong_method.status, 405);
    let no_such_job = request(addr, "GET", "/jobs/999", None).unwrap();
    assert_eq!(no_such_job.status, 404);
    let bad_id = request(addr, "GET", "/jobs/banana", None).unwrap();
    assert_eq!(bad_id.status, 400);
    server.shutdown();
}

#[test]
fn an_unterminated_request_line_is_refused_at_the_head_limit() {
    let (_dir, server, addr) = start("head-limit", |_| {});
    let mut stream = TcpStream::connect(addr).unwrap();
    // 20 KiB with no newline, and the socket stays open: the 400 must not
    // wait for a line end or for the daemon's read timeout.
    stream.write_all(&[b'A'; 20 * 1024]).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let started = Instant::now();
    let mut response = Vec::new();
    let read = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "after {:?} ({read:?}): {response:?}",
        started.elapsed()
    );
    assert!(response.contains("16384-byte limit"), "{response}");
    assert!(started.elapsed() < Duration::from_secs(2));
    server.shutdown();
}

#[test]
fn submissions_are_validated_with_typed_errors() {
    let (_dir, server, addr) = start("validate", |_| {});
    let zero_devices = submit(addr, "{\"config\": {\"devices\": 0}}");
    assert_eq!(zero_devices.status, 422);
    assert_eq!(job_field(&zero_devices.body, "error"), "invalid_config");

    let malformed = submit(addr, "this is not json");
    assert_eq!(malformed.status, 400);
    assert_eq!(job_field(&malformed.body, "error"), "bad_request");

    let unknown_field = submit(addr, "{\"config\": {\"devices\": 64}, \"spline\": 1}");
    assert_eq!(unknown_field.status, 400);
    assert!(unknown_field.body.contains("spline"));

    let nan_corner = submit(
        addr,
        "{\"config\": {\"devices\": 64, \"fail_guardband\": 0.0}}",
    );
    assert_eq!(nan_corner.status, 422);
    server.shutdown();
}

#[test]
fn a_job_streams_events_and_completes() {
    let (_dir, server, addr) = start("sse", |c| c.step_shards = 2);
    let accepted = submit(addr, &job_body(""));
    assert_eq!(accepted.status, 202);
    let id = job_field(&accepted.body, "id");

    // The SSE stream replays from the first event, tails to the
    // terminal one, and then the server hangs up (read-to-EOF returns).
    let frames = sse(addr, &format!("/jobs/{id}/events")).unwrap();
    assert_eq!(frames.first().map(|(e, _)| e.as_str()), Some("started"));
    assert_eq!(frames.last().map(|(e, _)| e.as_str()), Some("completed"));
    let progress: Vec<&(String, String)> = frames.iter().filter(|(e, _)| e == "progress").collect();
    // 8 shards in steps of 2.
    assert_eq!(progress.len(), 4, "frames: {frames:?}");
    // A frame carries its job's progress, never the process-wide registry
    // (every frame is kept for replay).
    assert!(progress.iter().all(|(_, data)| !data.contains("\"obs\"")));
    assert!(progress[0].1.contains("\"shards_done\": 2"));
    assert!(progress.last().unwrap().1.contains("\"devices_done\": 256"));

    // The status document agrees with the in-process engine.
    let status = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(job_field(&status.body, "status"), "completed");
    let expected = run_fleet(&test_config()).unwrap().fingerprint();
    assert_eq!(
        job_field(&status.body, "fingerprint"),
        format!("{expected:#018x}"),
    );
    server.shutdown();
}

#[test]
fn a_full_queue_backpressures_with_429_not_a_crash() {
    let (_dir, server, addr) = start("backpressure", |c| {
        c.concurrency = 1;
        c.queue_capacity = 1;
        c.step_shards = 1;
        c.pace = Duration::from_millis(150);
    });
    // Job 1 occupies the single worker (8 shards x 150 ms pace), job 2
    // fills the one queue slot, job 3 must bounce.
    let first = submit(addr, &job_body(""));
    assert_eq!(first.status, 202);
    wait_status(addr, &job_field(&first.body, "id"), "running");
    let second = submit(addr, &job_body(""));
    assert_eq!(second.status, 202);
    let third = submit(addr, &job_body(""));
    assert_eq!(third.status, 429);
    assert_eq!(job_field(&third.body, "error"), "queue_full");
    let retry_after: u64 = third
        .header("Retry-After")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("Retry-After must be integral seconds");
    assert!(retry_after >= 1);

    // The daemon is still fully alive behind the 429.
    assert_eq!(request(addr, "GET", "/healthz", None).unwrap().status, 200);
    server.shutdown();
}

#[test]
fn cancelling_a_running_job_releases_its_slot() {
    let (_dir, server, addr) = start("cancel", |c| {
        c.concurrency = 1;
        c.queue_capacity = 2;
        c.step_shards = 1;
        c.pace = Duration::from_millis(150);
    });
    let slow = submit(addr, &job_body(""));
    let slow_id = job_field(&slow.body, "id");
    wait_status(addr, &slow_id, "running");
    let queued = submit(addr, &job_body(""));
    assert_eq!(queued.status, 202);
    let queued_id = job_field(&queued.body, "id");

    let cancelled = request(addr, "DELETE", &format!("/jobs/{slow_id}"), None).unwrap();
    assert_eq!(cancelled.status, 200);
    wait_status(addr, &slow_id, "cancelled");
    // The worker slot freed: the queued job runs to completion.
    let final_status = wait_status(addr, &queued_id, "completed");
    assert_ne!(job_field(&final_status, "fingerprint"), "null");

    // Cancelling a queued job removes it before it ever runs.
    let third = submit(addr, &job_body(""));
    let fourth = submit(addr, &job_body(""));
    let fourth_id = job_field(&fourth.body, "id");
    let _ = request(addr, "DELETE", &format!("/jobs/{fourth_id}"), None).unwrap();
    wait_status(addr, &fourth_id, "cancelled");
    wait_status(addr, &job_field(&third.body, "id"), "completed");
    server.shutdown();
}

#[test]
fn resume_from_checkpoint_matches_the_uninterrupted_fingerprint() {
    let (data_dir, server, addr) = start("resume", |c| {
        c.concurrency = 1;
        c.step_shards = 1;
        c.pace = Duration::from_millis(120);
    });
    let body =
        job_body(", \"checkpoint\": \"resume-me.dhfl\", \"checkpoint_every\": 1, \"keep\": 3");

    // Kill the first attempt mid-run, after at least one checkpoint.
    let first = submit(addr, &body);
    let first_id = job_field(&first.body, "id");
    wait_for("a checkpointed shard", Duration::from_secs(30), || {
        let r = request(addr, "GET", &format!("/jobs/{first_id}"), None).ok()?;
        let done: u64 = job_field(&r.body, "shards_done").parse().ok()?;
        (done >= 2).then_some(())
    });
    let _ = request(addr, "DELETE", &format!("/jobs/{first_id}"), None).unwrap();
    let killed = wait_status(addr, &first_id, "cancelled");
    let done_at_kill: u64 = job_field(&killed, "shards_done").parse().unwrap();
    assert!(
        done_at_kill < 8,
        "the job finished before it could be killed; raise the pace"
    );
    assert!(data_dir.join("resume-me.dhfl").exists());

    // Resubmit the identical body: the daemon resumes from disk...
    let second = submit(addr, &body);
    let second_id = job_field(&second.body, "id");
    let frames = sse(addr, &format!("/jobs/{second_id}/events")).unwrap();
    let started = &frames.first().expect("started frame").1;
    let resumed_from: u64 = job_field(started, "resumed_from").parse().unwrap();
    assert!(resumed_from > 0, "second attempt did not resume: {started}");
    assert_eq!(frames.last().unwrap().0, "completed");

    // ...and the stitched run's report is byte-identical to an
    // uninterrupted in-process run of the same config.
    let expected = run_fleet(&test_config()).unwrap().fingerprint();
    assert_eq!(
        job_field(&frames.last().unwrap().1, "fingerprint"),
        format!("{expected:#018x}"),
    );
    server.shutdown();
}

#[test]
fn injected_shard_kills_degrade_the_job_not_the_daemon() {
    let (_dir, server, addr) = start("chaos", |c| c.step_shards = 4);
    // kill-shard=1 makes one shard panic on every attempt: it must end
    // quarantined while the other 7 shards complete.
    let accepted = submit(
        addr,
        &job_body(", \"inject\": \"kill-shard=1\", \"retry\": 2, \"inject_seed\": 99"),
    );
    assert_eq!(accepted.status, 202);
    let id = job_field(&accepted.body, "id");
    let frames = sse(addr, &format!("/jobs/{id}/events")).unwrap();
    let (last_event, last_data) = frames.last().unwrap();
    // A run that survived faults ends on the `degraded` terminal frame
    // (same payload as `completed`), and the status document agrees.
    assert_eq!(last_event, "degraded", "frames: {frames:?}");
    assert_eq!(job_field(last_data, "degraded"), "true");
    assert_eq!(job_field(last_data, "quarantined_shards"), "1");
    assert_eq!(job_field(last_data, "devices"), "224");
    let status = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(job_field(&status.body, "status"), "degraded");
    assert_ne!(job_field(&status.body, "fingerprint"), "null");

    // The daemon shrugged it off: health is green and a clean job still
    // produces the engine's exact fingerprint.
    assert_eq!(request(addr, "GET", "/healthz", None).unwrap().status, 200);
    let clean = submit(addr, &job_body(""));
    let clean_done = wait_status(addr, &job_field(&clean.body, "id"), "completed");
    let expected = run_fleet(&test_config()).unwrap().fingerprint();
    assert_eq!(
        job_field(&clean_done, "fingerprint"),
        format!("{expected:#018x}"),
    );
    server.shutdown();
}

/// A small scenario pack (a shrunk `sram-decoder`) written to a temp
/// `--scenario-dir` so the daemon tests stay fast. Shadows nothing.
fn write_test_pack(dir: &std::path::Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("scenario dir");
    let path = dir.join("mini-sram.json");
    std::fs::write(
        &path,
        r#"{
            "name": "mini-sram",
            "description": "shrunk sram-decoder pack for daemon tests",
            "seed": 1101,
            "epochs": 12,
            "epoch_hours": 730.0,
            "shard_size": 256,
            "fail_threshold_mv": 45.0,
            "workload": {"trace": [0.95, 0.7, 0.5, 0.85]},
            "maintenance": {"policy": "invert", "interval_epochs": 4, "recovery_bias_v": 0.3},
            "blocks": [
                {"model": "sram-decoder", "count": 1024, "vdd_v": 0.95,
                 "temperature_c": 85.0, "variability": 0.08, "skew": 1.1},
                {"model": "sram-decoder", "count": 512, "vdd_v": 0.9,
                 "temperature_c": 70.0, "variability": 0.1, "skew": 1.6}
            ]
        }"#,
    )
    .expect("write test pack");
    path
}

#[test]
fn scenario_jobs_list_run_and_match_the_engine() {
    let scenario_dir = temp_data_dir("scenario-packs");
    let pack_path = write_test_pack(&scenario_dir);
    let (_dir, server, addr) = start("scenario", |c| {
        c.scenario_dir = Some(scenario_dir.to_path_buf());
        c.step_shards = 3;
    });

    // The registry endpoint lists built-ins plus the directory pack.
    let listed = request(addr, "GET", "/scenarios", None).unwrap();
    assert_eq!(listed.status, 200);
    for name in ["sram-decoder", "dnn-weight-memory", "aged-multiplier"] {
        assert!(
            listed.body.contains(name),
            "{name} missing: {}",
            listed.body
        );
    }
    assert!(listed.body.contains("\"mini-sram\""));
    assert!(listed.body.contains("\"source\": \"directory\""));

    let accepted = submit(addr, "{\"scenario\": \"mini-sram\"}");
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = job_field(&accepted.body, "id");
    assert_eq!(job_field(&accepted.body, "scenario"), "mini-sram");

    // SSE frames identify the pack, and the final fingerprint matches
    // an in-process integration of the same file.
    let frames = sse(addr, &format!("/jobs/{id}/events")).unwrap();
    let (first_event, first_data) = frames.first().expect("started frame");
    assert_eq!(first_event, "started");
    assert_eq!(job_field(first_data, "scenario"), "mini-sram");
    let progress: Vec<_> = frames.iter().filter(|(e, _)| e == "progress").collect();
    assert!(!progress.is_empty());
    assert_eq!(job_field(&progress[0].1, "scenario"), "mini-sram");
    assert!(progress.iter().all(|(_, data)| !data.contains("\"obs\"")));
    let (last_event, last_data) = frames.last().unwrap();
    assert_eq!(last_event, "completed", "frames: {frames:?}");
    let pack = dh_scenario::load_pack_file(&pack_path).unwrap();
    let expected = dh_scenario::run_pack(pack).unwrap().fingerprint;
    assert_eq!(
        job_field(last_data, "fingerprint"),
        format!("{expected:#018x}"),
    );
    server.shutdown();
}

#[test]
fn scenario_submissions_are_validated_with_typed_errors() {
    let (_dir, server, addr) = start("scenario-validate", |_| {});
    let unknown = submit(addr, "{\"scenario\": \"no-such-pack\"}");
    assert_eq!(unknown.status, 422);
    assert_eq!(job_field(&unknown.body, "error"), "invalid_config");
    let both = submit(
        addr,
        "{\"scenario\": \"sram-decoder\", \"config\": {\"devices\": 64}}",
    );
    assert_eq!(both.status, 400);
    // Fault injection is supported for scenario jobs now, but the spec
    // string is still parse-checked at submit time...
    let bad_inject = submit(
        addr,
        "{\"scenario\": \"sram-decoder\", \"inject\": \"gremlins=1\"}",
    );
    assert_eq!(bad_inject.status, 422);
    // ...and the retired writer-mode knob is an unknown field.
    let bad_mode = submit(
        addr,
        "{\"scenario\": \"sram-decoder\", \"checkpoint_mode\": \"async\"}",
    );
    assert_eq!(bad_mode.status, 400);
    server.shutdown();
}

#[test]
fn scenario_kill_resume_lands_on_the_uninterrupted_fingerprint() {
    let scenario_dir = temp_data_dir("scenario-resume-packs");
    let pack_path = write_test_pack(&scenario_dir);
    let (data_dir, server, addr) = start("scenario-resume", |c| {
        c.scenario_dir = Some(scenario_dir.to_path_buf());
        c.concurrency = 1;
        c.pace = Duration::from_millis(60);
    });
    let body = "{\"scenario\": \"mini-sram\", \"checkpoint\": \"mini.dhsp\", \
                \"checkpoint_every\": 2}";

    // Kill the first attempt mid-run, after a checkpoint past the first
    // epoch boundary (6 shards per epoch in the test pack).
    let first = submit(addr, body);
    let first_id = job_field(&first.body, "id");
    wait_for("a second-epoch checkpoint", Duration::from_secs(30), || {
        let r = request(addr, "GET", &format!("/jobs/{first_id}"), None).ok()?;
        let done: u64 = job_field(&r.body, "shards_done").parse().ok()?;
        (done >= 8).then_some(())
    });
    let _ = request(addr, "DELETE", &format!("/jobs/{first_id}"), None).unwrap();
    let killed = wait_status(addr, &first_id, "cancelled");
    let done_at_kill: u64 = job_field(&killed, "shards_done").parse().unwrap();
    let total: u64 = job_field(&killed, "shard_count").parse().unwrap();
    assert!(
        done_at_kill < total,
        "the job finished before it could be killed; raise the pace"
    );
    assert!(data_dir.join("mini.dhsp").exists());

    // The resubmitted body resumes from the checkpoint and stitches to
    // the same fingerprint as an uninterrupted in-process run.
    let second = submit(addr, body);
    let second_id = job_field(&second.body, "id");
    let frames = sse(addr, &format!("/jobs/{second_id}/events")).unwrap();
    let started = &frames.first().expect("started frame").1;
    let resumed_epoch: u64 = job_field(started, "resumed_epoch").parse().unwrap();
    assert!(
        resumed_epoch > 0,
        "second attempt did not resume: {started}"
    );
    let (last_event, last_data) = frames.last().unwrap();
    assert_eq!(last_event, "completed", "frames: {frames:?}");
    let pack = dh_scenario::load_pack_file(&pack_path).unwrap();
    let expected = dh_scenario::run_pack(pack).unwrap().fingerprint;
    assert_eq!(
        job_field(last_data, "fingerprint"),
        format!("{expected:#018x}"),
    );
    server.shutdown();
}

#[test]
fn a_restarted_daemon_reports_previous_jobs_instead_of_404() {
    let data_dir = temp_data_dir("restart");
    let scenario_dir = temp_data_dir("restart-packs");
    write_test_pack(&scenario_dir);
    let tweak = |c: &mut ServeConfig| {
        c.scenario_dir = Some(scenario_dir.to_path_buf());
    };

    // Life 1: one completed fleet job, one checkpointing scenario job
    // cancelled mid-run (the stand-in for "interrupted").
    let (completed_fp, cancelled_id, completed_id) = {
        let mut config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: data_dir.to_path_buf(),
            concurrency: 1,
            pace: Duration::from_millis(60),
            ..ServeConfig::default()
        };
        tweak(&mut config);
        let server = Server::start(config).expect("server should bind");
        let addr = server.local_addr();
        let done = submit(addr, &job_body(""));
        let done_id = job_field(&done.body, "id");
        let done_body = wait_status(addr, &done_id, "completed");
        let fp = job_field(&done_body, "fingerprint");

        let body = "{\"scenario\": \"mini-sram\", \"checkpoint\": \"restart.dhsp\", \
                    \"checkpoint_every\": 2}";
        let interrupted = submit(addr, body);
        let interrupted_id = job_field(&interrupted.body, "id");
        wait_for("a checkpointed batch", Duration::from_secs(30), || {
            let r = request(addr, "GET", &format!("/jobs/{interrupted_id}"), None).ok()?;
            let done: u64 = job_field(&r.body, "shards_done").parse().ok()?;
            (done >= 2).then_some(())
        });
        let _ = request(addr, "DELETE", &format!("/jobs/{interrupted_id}"), None).unwrap();
        wait_status(addr, &interrupted_id, "cancelled");
        server.shutdown();
        (fp, interrupted_id, done_id)
    };
    // A crashed daemon leaves a meta file still saying "running"; fake
    // one to cover the crash arm alongside the clean-cancel arm.
    std::fs::write(
        data_dir.join("job-9.meta.json"),
        "{\"id\": 9, \"status\": \"running\", \"shards_done\": 3, \"fingerprint\": null, \
         \"error\": null, \"spec\": \"{\\\"scenario\\\": \\\"mini-sram\\\", \
         \\\"checkpoint\\\": \\\"crash.dhsp\\\"}\"}",
    )
    .unwrap();
    // An earlier release persisted a fleet body carrying the since
    // retired `checkpoint_mode`; the completed job must survive the
    // upgrade.
    std::fs::write(
        data_dir.join("job-8.meta.json"),
        "{\"id\": 8, \"status\": \"completed\", \"shards_done\": 8, \
         \"fingerprint\": \"0x00000000000000ab\", \"error\": null, \"spec\": \
         \"{\\\"config\\\": {\\\"devices\\\": 64}, \\\"checkpoint_mode\\\": \\\"async\\\"}\"}",
    )
    .unwrap();

    // Life 2: same data dir, fresh process.
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        ..ServeConfig::default()
    };
    tweak(&mut config);
    let server = Server::start(config).expect("restart should bind");
    let addr = server.local_addr();

    let done = request(addr, "GET", &format!("/jobs/{completed_id}"), None).unwrap();
    assert_eq!(done.status, 200);
    assert_eq!(job_field(&done.body, "status"), "completed");
    assert_eq!(job_field(&done.body, "fingerprint"), completed_fp);

    // Cancelled with a checkpoint on disk, and crashed mid-run: both
    // resumable, not 404.
    let interrupted = request(addr, "GET", &format!("/jobs/{cancelled_id}"), None).unwrap();
    assert_eq!(interrupted.status, 200);
    assert_eq!(job_field(&interrupted.body, "status"), "resumable");
    assert_eq!(job_field(&interrupted.body, "scenario"), "mini-sram");
    let crashed = request(addr, "GET", "/jobs/9", None).unwrap();
    assert_eq!(crashed.status, 200);
    assert_eq!(job_field(&crashed.body, "status"), "resumable");
    let upgraded = request(addr, "GET", "/jobs/8", None).unwrap();
    assert_eq!(upgraded.status, 200);
    assert_eq!(job_field(&upgraded.body, "status"), "completed");
    assert_eq!(
        job_field(&upgraded.body, "fingerprint"),
        "0x00000000000000ab"
    );

    // New submissions never collide with restored ids.
    let fresh = submit(addr, &job_body(""));
    let fresh_id: u64 = job_field(&fresh.body, "id").parse().unwrap();
    assert!(fresh_id >= 10, "id {fresh_id} collides with restored jobs");
    server.shutdown();
}

#[test]
fn the_watchdog_degrades_a_stalled_job_and_frees_its_slot() {
    let (_dir, server, addr) = start("watchdog", |c| {
        c.concurrency = 1;
        // Un-checkpointed jobs fold all 8 shards in one batch and never
        // hit the pace sleep; the checkpointing job below batches per
        // shard and stalls 2 s between batches against a 150 ms
        // heartbeat deadline.
        c.step_shards = 8;
        c.pace = Duration::from_millis(2_000);
        c.job_deadline = Some(Duration::from_millis(150));
    });
    let hung = submit(
        addr,
        &job_body(", \"checkpoint\": \"hang.dhfl\", \"checkpoint_every\": 1"),
    );
    assert_eq!(hung.status, 202);
    let hung_id = job_field(&hung.body, "id");

    // The watchdog declares the job degraded well before the runner
    // would have finished (8 shards x 2 s), and the SSE stream ends on
    // the terminal `degraded` frame naming the watchdog.
    let status = wait_status(addr, &hung_id, "degraded");
    assert_eq!(job_field(&status, "status"), "degraded");
    let frames = sse(addr, &format!("/jobs/{hung_id}/events")).unwrap();
    let (last_event, last_data) = frames.last().unwrap();
    assert_eq!(last_event, "degraded", "frames: {frames:?}");
    assert!(last_data.contains("watchdog"), "{last_data}");

    // The slot was freed: a fresh job runs to completion on the
    // replacement worker while the stalled runner is still asleep.
    let fresh = submit(addr, &job_body(""));
    let fresh_done = wait_status(addr, &job_field(&fresh.body, "id"), "completed");
    assert_ne!(job_field(&fresh_done, "fingerprint"), "null");

    // And /healthz counts the fire.
    let health = request(addr, "GET", "/healthz", None).unwrap();
    let fires: u64 = job_field(&health.body, "watchdog_fires").parse().unwrap();
    assert!(fires >= 1, "{}", health.body);
    server.shutdown();
}

#[test]
fn scenario_chaos_degrades_the_job_and_healthz_reports_the_disk() {
    let scenario_dir = temp_data_dir("scenario-chaos-packs");
    let pack_path = write_test_pack(&scenario_dir);
    let (_dir, server, addr) = start("scenario-chaos", |c| {
        c.scenario_dir = Some(scenario_dir.to_path_buf());
    });

    // Before any disk incident the health document says the disk is ok.
    let health = request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(job_field(&health.body, "disk"), "ok");

    // Recoverable chaos only: panics are retried away, disk faults are
    // absorbed by generation fallback — the fingerprint must match a
    // clean in-process run of the same pack.
    let body = "{\"scenario\": \"mini-sram\", \"checkpoint\": \"chaos.dhsp\", \
                \"checkpoint_every\": 1, \"keep\": 3, \"retry\": 8, \
                \"inject\": \"panic=0.1,ckpt-flip=3,disk-full=0.4,disk-torn=3\", \
                \"inject_seed\": 42}";
    let accepted = submit(addr, body);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = job_field(&accepted.body, "id");
    let frames = sse(addr, &format!("/jobs/{id}/events")).unwrap();
    let (last_event, last_data) = frames.last().unwrap();
    assert_eq!(last_event, "degraded", "frames: {frames:?}");
    assert_eq!(job_field(last_data, "quarantined_shards"), "0");
    let incidents: u64 = job_field(last_data, "disk_incidents").parse().unwrap();
    assert!(incidents > 0, "{last_data}");
    let pack = dh_scenario::load_pack_file(&pack_path).unwrap();
    let expected = dh_scenario::run_pack(pack).unwrap().fingerprint;
    assert_eq!(
        job_field(last_data, "fingerprint"),
        format!("{expected:#018x}"),
    );

    // The daemon is alive, but the health document now carries the
    // degraded-disk signal for the operator.
    let health = request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(job_field(&health.body, "disk"), "degraded");
    server.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_daemon() {
    let (_dir, server, addr) = start("shutdown", |_| {});
    let r = request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(r.status, 200);
    server.wait_for_shutdown();
    server.shutdown();
    // New submissions are refused once the registry is gone; the socket
    // may or may not still accept before the listener thread exits, so
    // the strong assertion is just that wait_for_shutdown returned.
}
