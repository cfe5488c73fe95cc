//! A default-build `fleet` run answers "what degraded" from its own
//! output: the metrics block counts the same quarantines, retries and
//! heals that the report and the degraded block print. A reader that
//! stops reading (`fleet … | grep -q …`) ends the printing, not the run.

use std::process::{Command, ExitStatus, Stdio};

use deep_healing::fault::TempDir;

/// The integer that follows the first occurrence of `label` in `text`.
fn number_after(text: &str, label: &str) -> u64 {
    let at = text
        .find(label)
        .unwrap_or_else(|| panic!("{label:?} missing from the output:\n{text}"))
        + label.len();
    text[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no number after {label:?} in the output:\n{text}"))
}

#[test]
fn the_metrics_block_counts_what_the_degraded_report_shows() {
    // The shard size is pinned because fault draws are keyed per (shard,
    // attempt), and the automatic size follows the worker count.
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--devices", "4096", "--years", "0.05", "--seed", "1"])
        .args(["--shard-size", "512", "--retry", "2"])
        .args(["--inject", "kill-shard=1,panic=0.3", "--inject-seed", "3"])
        .output()
        .expect("fleet runs");
    assert!(out.status.success(), "fleet exited {}", out.status);
    let text = String::from_utf8(out.stdout).expect("UTF-8 output");
    let (report, metrics) = text
        .split_once("\nmetrics:\n")
        .unwrap_or_else(|| panic!("no metrics block in the output:\n{text}"));

    let quarantined = number_after(report, "quarantined shards : ");
    let retried = number_after(report, "retried attempts   : ");
    let healed = number_after(report, "healing: ");
    assert!(quarantined > 0 && retried > 0 && healed > 0, "{report}");
    assert_eq!(
        number_after(metrics, "\"fleet.shards_quarantined\": "),
        quarantined
    );
    assert_eq!(
        number_after(metrics, "\"exec.supervisor.retries\": "),
        retried
    );
    assert_eq!(number_after(metrics, "\"fleet.chips_healed\": "), healed);
}

/// Runs `fleet` with `args`, its stdout the write end of a pipe whose
/// reader is already gone.
fn run_with_stdout_closed(args: &[&str]) -> ExitStatus {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--devices", "4096", "--years", "0.05", "--seed", "1"])
        .args(args)
        .stdout(writer)
        .stderr(Stdio::null())
        .status()
        .expect("fleet runs")
}

#[test]
fn a_closed_stdout_ends_the_printing_and_the_run_keeps_its_exit_code() {
    let dir = TempDir::new("fleet-cli-closed-stdout");
    let checkpoint = dir.join("run.dhfl");
    let path = checkpoint.to_str().expect("a UTF-8 temp path");
    let status = run_with_stdout_closed(&["--checkpoint", path]);
    assert_eq!(status.code(), Some(0), "{status}");
    assert!(checkpoint.exists(), "the run finished and checkpointed");
    let degraded = ["--inject", "kill-shard=1", "--fail-on-degraded"];
    let status = run_with_stdout_closed(&degraded);
    assert_eq!(status.code(), Some(3), "{status}");
}
