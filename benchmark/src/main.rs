//! `benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It builds the `fleet` and `dh-serve` binaries from source, derives every
//! input from `--seed`, and drives the shipped surfaces from outside. With
//! `--trace 1` it re-runs the same work in-process with spans around each
//! call into `dh-fleet`, `dh-scenario` and `dh-exec`. Each workload ends in
//! one JSON line — `correct`, `attempted`, `failed`, and the declared
//! metrics with their units — and any failed check makes the exit code 1.
//! All files live under the cargo target directory and are removed on
//! exit. See README.md for the workloads and metrics.

mod pass;
mod stats;
mod surface;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use pass::{Ctx, END_TO_END, PER_LAYER};
use surface::WorkDir;
use workload::Workload;

const USAGE: &str = "\
usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
  --workload NAME  fleet-steady | fleet-wide | fleet-durable | scenario-durable
                   | serve-mixed (repeatable; default: all, in that order)
  --seed N         input seed, at most 2^53              (default 1)
  --seconds S      measuring time per workload           (default 10)
  --trace [0|1]    1: per-layer pass instead of end-to-end (default 0)
";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            args.trace = it.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workloads.push(
                Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
            ),
            "--seed" => {
                args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?;
                // Scenario packs carry the seed as a JSON number.
                if args.seed > 1 << 53 {
                    return Err(format!("--seed {value} exceeds 2^53"));
                }
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds {value} must lie in (0, 3600]"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// Builds `fleet` and `dh-serve` from the repository at `root` and
/// returns their paths.
fn build(root: &Path, target: &Path) -> Result<(PathBuf, PathBuf), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "-p", "dh-bench", "--bin", "fleet", "-p", "dh-serve", "--bin", "dh-serve",
        ])
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build exited with {status}"));
    }
    let release = target.join("release");
    Ok((release.join("fleet"), release.join("dh-serve")))
}

fn main() -> ExitCode {
    // The program picks its thread count and SIMD backend itself; stray
    // settings in the caller's environment would change what is measured.
    // Removed before any thread starts, so children inherit the clean
    // environment too.
    for var in ["DH_NUM_THREADS", "RAYON_NUM_THREADS", "DH_SIMD"] {
        std::env::remove_var(var);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_default();
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        eprintln!("error: run the benchmark from the repository root\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), |dir| root.join(dir));
    let (fleet, serve) = match build(&root, &target) {
        Ok(bins) => bins,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::FAILURE;
        }
    };
    let work = match WorkDir::create(target.join(format!("benchmark-work-{}", std::process::id())))
    {
        Ok(work) => work,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: {nproc} cores, {} worker threads, simd backend {}",
        dh_exec::max_threads(),
        dh_simd::backend_name()
    );
    let ctx = Ctx {
        fleet,
        serve,
        work: work.0.clone(),
        nproc,
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut all_correct = true;
    for &w in &args.workloads {
        println!(
            "workload {} (seed {}, trace {})",
            w.name(),
            args.seed,
            u8::from(args.trace)
        );
        let (tally, metrics) = pass::run(w, &ctx, args.trace);
        let declared = if args.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let (line, correct) = pass::render(declared, &tally, &metrics);
        all_correct &= correct;
        println!("{line}");
    }
    drop(work);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn flags_parse_with_and_without_a_trace_value() {
        let args = parse("--workload serve-mixed --seed 4 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workloads, [Workload::ServeMixed]);
        assert_eq!((args.seed, args.seconds, args.trace), (4, 10.0, true));
        let args = parse("--trace --seed 2").unwrap();
        assert!(args.trace);
        assert_eq!(args.workloads.len(), 5);
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 9007199254740993").is_err());
        assert!(parse("--seconds 0").is_err());
    }
}
