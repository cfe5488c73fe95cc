//! Fleet-scale lifetime simulation driver.
//!
//! Runs a `dh-fleet` population end to end and prints the streaming
//! report, the throughput, and last the `dh-obs` metrics the run
//! recorded (retries, quarantines, heals, step timings). This is the
//! acceptance harness for the fleet subsystem: a 100k-device run
//! completes in one command, and with `--checkpoint` the run can be
//! killed at any point and re-invoked to resume from the last shard
//! boundary — the final report is byte-identical to an uninterrupted
//! run (compare the printed report fingerprints).
//!
//! ```text
//! fleet --devices 100000 --years 3 --policy worst-first --budget 8
//! fleet --devices 100000 --checkpoint /tmp/fleet.dhfl --checkpoint-every 4
//! fleet --devices 20000 --inject panic=0.01,stuck-chip=5 --inject-seed 99
//! ```
//!
//! Every fleet run is supervised: shard panics are caught and retried,
//! poisoned kernel outputs are rejected, corrupted checkpoints fall back
//! to the newest valid generation, and the run finishes with a degraded
//! report instead of aborting. `--inject` adds a seeded fault plan.
//!
//! `--scenario` switches to the `dh-scenario` engine instead: the named
//! (or file-loaded) scenario pack is integrated end to end, with the
//! same kill/resume contract and generation fallback through
//! `--checkpoint`, and the same supervision: a shard that keeps panicking
//! is quarantined and the run finishes degraded, with or without
//! `--inject`:
//!
//! ```text
//! fleet --list-scenarios
//! fleet --scenario sram-decoder
//! fleet --scenario ./my-pack.json --checkpoint /tmp/run.dhsp
//! ```

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use std::time::Instant;

use deep_healing::fault::{DegradedReport, FaultPlan};
use deep_healing::fleet::{
    run_fleet_supervised, CheckpointStore, FleetConfig, FleetPolicy, MaintenanceBudget,
};
use dh_bench::Banner;
use dh_exec::RetryPolicy;
use dh_scenario::{run_pack_supervised, ScenarioRegistry};

const USAGE: &str = "\
usage: fleet [flags]
  --devices N           population size                  (default 100000)
  --years Y             simulated lifetime, years        (default 3)
  --policy NAME[,NAME]  policy mix: static | worst-first | round-robin
                        (groups cycle through the list;  default worst-first)
  --budget N            recovery slots per group-epoch   (default 8)
  --group N             chips per maintenance group      (default 64)
  --shard-size N        chips per shard (multiple of --group;
                        default: sized from --devices and the worker count)
  --seed N              root seed                        (default 7)
  --checkpoint PATH     resume from / checkpoint to PATH (resumes from the
                        newest of --keep generations that validates)
  --checkpoint-every N  writes: one per N shards folded; in scenario mode,
                        one per N x nproc shard-epochs   (default 8, N >= 1)
  --inject SPEC         fault plan, e.g. panic=0.01,ckpt-flip=1,stuck-chip=5
                        (works in scenario mode too; see dh-fault for the
                        spec grammar)
  --inject-seed N       fault-stream seed  (default: --seed / the pack seed)
  --retry N             attempts per shard before quarantine (default 3)
  --keep N              checkpoint generations retained  (default 3)
  --fail-on-degraded    exit 3 when the run finishes with a non-empty
                        degraded report (for CI gating)
  --scenario NAME|PATH  run a dh-scenario pack instead of a fleet config
  --scenario-dir DIR    extra pack files (*.json) joining the registry
  --epochs N            override the pack's epoch count (scenario mode)
  --list-scenarios      print the scenario registry and exit
The worker count is DH_NUM_THREADS (unset or 0: all cores).
";

struct Args {
    config: FleetConfig,
    shard_size_given: bool,
    checkpoint: Option<std::path::PathBuf>,
    checkpoint_every: u64,
    inject: Option<String>,
    inject_seed: Option<u64>,
    retry: u32,
    keep: usize,
    scenario: Option<String>,
    scenario_dir: Option<std::path::PathBuf>,
    epochs: Option<u64>,
    list_scenarios: bool,
    fail_on_degraded: bool,
}

/// The CLI's stdout, which every line goes through. When the reader
/// goes away (`fleet … | grep -q …`), printing stops and the run goes on
/// to its own exit code; any other write error fails the invocation once
/// the run has ended.
#[derive(Default)]
struct Out {
    /// The write error that stopped the printing, if any.
    error: Option<std::io::Error>,
}

impl Out {
    fn print(&mut self, text: std::fmt::Arguments<'_>) {
        if self.error.is_none() {
            self.error = std::io::stdout().write_fmt(text).err();
        }
    }

    /// The invocation's exit code: the run's `code`, or 1 after a stdout
    /// error other than a closed reader.
    fn exit(self, code: ExitCode) -> ExitCode {
        match self.error {
            Some(e) if e.kind() != ErrorKind::BrokenPipe => {
                eprintln!("error: writing to stdout: {e}");
                ExitCode::FAILURE
            }
            _ => code,
        }
    }
}

/// `println!` through an [`Out`].
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        $out.print(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Exit code for `--fail-on-degraded`: the run *finished* (the report
/// printed is real), but it only survived by degrading — distinct from
/// 1 (runtime failure) and 2 (usage error) so CI can tell them apart.
const DEGRADED_EXIT: u8 = 3;

/// The fault plan `--inject` asks for (seeded by `--inject-seed`, else
/// `seed`), announced on stdout; `None` without `--inject`.
fn fault_plan(out: &mut Out, args: &Args, seed: u64) -> Result<Option<FaultPlan>, ExitCode> {
    let Some(spec) = &args.inject else {
        return Ok(None);
    };
    let seed = args.inject_seed.unwrap_or(seed);
    match FaultPlan::parse(spec, seed) {
        Ok(plan) => {
            outln!(out, "injecting faults [{spec}] with fault seed {seed}\n");
            Ok(Some(plan))
        }
        Err(why) => {
            eprintln!("error: --inject {spec}: {why}");
            Err(ExitCode::from(2))
        }
    }
}

/// The `--checkpoint` store, announced on stdout with its cadence.
fn checkpoint_store(out: &mut Out, args: &Args, cadence: &str) -> Option<CheckpointStore> {
    let path = args.checkpoint.as_ref()?;
    outln!(
        out,
        "checkpointing to {} every {} {cadence}, keeping {} generation(s)\n",
        path.display(),
        args.checkpoint_every,
        args.keep
    );
    Some(CheckpointStore::new(path, args.keep))
}

/// The `--retry` policy.
fn retry_policy(args: &Args) -> RetryPolicy {
    RetryPolicy {
        max_attempts: args.retry,
        ..RetryPolicy::default()
    }
}

/// The epilogue shared by the fleet and scenario paths: the degraded
/// block (always under `--inject`, otherwise only when non-empty), the
/// wall-time line, the metrics, and the `--fail-on-degraded` exit code.
fn finish(
    out: &mut Out,
    args: &Args,
    degraded: &DegradedReport,
    work: f64,
    unit: &str,
    elapsed: f64,
) -> ExitCode {
    if args.inject.is_some() || degraded.is_degraded() {
        outln!(out, "\n{}", degraded.render());
    }
    outln!(
        out,
        "\nwall time: {:.2} s ({:.0} {unit}/s this invocation)",
        elapsed,
        work / elapsed.max(1e-9)
    );
    outln!(out, "\nmetrics:\n{}", dh_obs::snapshot().to_json());
    if args.fail_on_degraded && degraded.is_degraded() {
        eprintln!("error: run degraded (--fail-on-degraded)");
        return ExitCode::from(DEGRADED_EXIT);
    }
    ExitCode::SUCCESS
}

fn parse_args() -> Result<Args, String> {
    let mut config = FleetConfig {
        devices: 100_000,
        ..FleetConfig::default()
    };
    let mut shard_size_given = false;
    let mut checkpoint = None;
    let mut checkpoint_every = 8;
    let mut inject = None;
    let mut inject_seed = None;
    let mut retry = 3;
    let mut keep = 3;
    let mut scenario = None;
    let mut scenario_dir = None;
    let mut epochs = None;
    let mut list_scenarios = false;
    let mut fail_on_degraded = false;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        if flag == "--list-scenarios" {
            list_scenarios = true;
            continue;
        }
        if flag == "--fail-on-degraded" {
            fail_on_degraded = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--devices" => config.devices = value.parse().map_err(|e| bad(&e))?,
            "--years" => config.years = value.parse().map_err(|e| bad(&e))?,
            "--policy" => {
                config.policies = value
                    .split(',')
                    .map(|name| {
                        FleetPolicy::parse(name)
                            .ok_or_else(|| bad(&format_args!("unknown policy {name:?}")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--budget" => {
                config.budget = MaintenanceBudget {
                    slots_per_group: value.parse().map_err(|e| bad(&e))?,
                }
            }
            "--group" => config.group_size = value.parse().map_err(|e| bad(&e))?,
            "--shard-size" => {
                config.shard_size = value.parse().map_err(|e| bad(&e))?;
                shard_size_given = true;
            }
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--checkpoint" => checkpoint = Some(value.into()),
            "--checkpoint-every" => {
                checkpoint_every = value.parse().map_err(|e| bad(&e))?;
                if checkpoint_every == 0 {
                    return Err(bad(&"must be at least 1"));
                }
            }
            "--inject" => inject = Some(value),
            "--inject-seed" => inject_seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--retry" => retry = value.parse().map_err(|e| bad(&e))?,
            "--keep" => keep = value.parse().map_err(|e| bad(&e))?,
            "--scenario" => scenario = Some(value),
            "--scenario-dir" => scenario_dir = Some(value.into()),
            "--epochs" => epochs = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        config,
        shard_size_given,
        checkpoint,
        checkpoint_every,
        inject,
        inject_seed,
        retry,
        keep,
        scenario,
        scenario_dir,
        epochs,
        list_scenarios,
        fail_on_degraded,
    })
}

/// Builds the registry the `--scenario*` flags ask for.
fn scenario_registry(args: &Args) -> Result<ScenarioRegistry, dh_scenario::ScenarioError> {
    match &args.scenario_dir {
        Some(dir) => ScenarioRegistry::with_dir(dir),
        None => Ok(ScenarioRegistry::builtin()),
    }
}

/// The `--list-scenarios` table.
fn list_scenarios(out: &mut Out, args: &Args) -> ExitCode {
    let registry = match scenario_registry(args) {
        Ok(reg) => reg,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    outln!(out, "{}", Banner("Scenario registry"));
    for entry in registry.entries() {
        let p = &entry.pack;
        outln!(
            out,
            "{:<20} [{:<9}] {} epochs, {} elements in {} group(s)\n    {}",
            p.name,
            entry.source.name(),
            p.epochs,
            p.total_elements(),
            p.blocks.len(),
            p.description,
        );
    }
    ExitCode::SUCCESS
}

/// The `--scenario` run path: resolve the pack, then run it (resuming
/// from `--checkpoint` when a generation validates) and report.
fn run_scenario(out: &mut Out, args: &Args, arg: &str) -> ExitCode {
    let pack = match scenario_registry(args).and_then(|reg| reg.resolve(arg)) {
        Ok(mut pack) => {
            if let Some(epochs) = args.epochs {
                pack.epochs = epochs;
            }
            match pack.validate() {
                Ok(()) => pack,
                Err(why) => {
                    eprintln!("error: {why}");
                    return ExitCode::from(2);
                }
            }
        }
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };

    outln!(out, "{}", Banner("Scenario run"));
    outln!(
        out,
        "scenario {:?} (pack fingerprint {:#018x}): {} elements in {} group(s), \
         {} epochs of {} h, maintenance {} every {} epoch(s)\n",
        pack.name,
        pack.fingerprint(),
        pack.total_elements(),
        pack.blocks.len(),
        pack.epochs,
        pack.epoch_hours,
        pack.maintenance.policy.name(),
        pack.maintenance.interval_epochs,
    );

    let plan = match fault_plan(out, args, pack.seed) {
        Ok(plan) => plan,
        Err(code) => return code,
    };
    let store = checkpoint_store(
        out,
        args,
        &format!("step(s) of {} shards", dh_exec::max_threads()),
    );
    let element_epochs = pack.total_elements() * pack.epochs;
    let started = Instant::now();
    let outcome = run_pack_supervised(
        pack,
        plan.as_ref(),
        &retry_policy(args),
        store.as_ref().map(|s| (s, args.checkpoint_every)),
    );
    let (report, degraded) = match outcome {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed().as_secs_f64();
    outln!(out, "{}", report.render());
    finish(
        out,
        args,
        &degraded,
        element_epochs as f64,
        "element-epochs",
        elapsed,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(u8::from(!why.is_empty()) * 2);
        }
    };
    let mut out = Out::default();
    let code = if args.list_scenarios {
        list_scenarios(&mut out, &args)
    } else if let Some(arg) = &args.scenario {
        run_scenario(&mut out, &args, arg)
    } else {
        run_fleet(&mut out, &args)
    };
    out.exit(code)
}

/// The fleet run path: size and check the config, then run it (resuming
/// from `--checkpoint` when a generation validates) and report.
fn run_fleet(out: &mut Out, args: &Args) -> ExitCode {
    let mut config = args.config.clone();
    if !args.shard_size_given {
        // Size shards from the population and worker count (about four
        // shards per worker, capped for cache residency). The report is
        // shard-size invariant, but a checkpoint's cursor is not: pass an
        // explicit --shard-size when resuming across a DH_NUM_THREADS change.
        config.shard_size = config.auto_shard_size(dh_exec::max_threads());
    }
    // Reject bad numeric input at the CLI boundary with the field named,
    // instead of panicking (or NaN-poisoning an aggregate) deep in the
    // kernels. The run_fleet* entry points validate again; this check
    // just fails before the banner goes out.
    if let Err(why) = config.validate() {
        eprintln!("error: {why}");
        return ExitCode::from(2);
    }
    let policy_names: Vec<&str> = config.policies.iter().map(|p| p.name()).collect();
    outln!(out, "{}", Banner("Fleet lifetime simulation"));
    outln!(
        out,
        "{} devices, {} y horizon ({} epochs), policy mix [{}], \
         {} slots per {}-chip group, {} shards of {}, seed {}\n",
        config.devices,
        config.years,
        config.total_epochs(),
        policy_names.join(", "),
        config.budget.slots_per_group,
        config.group_size,
        config.shard_count(),
        config.shard_size,
        config.seed,
    );

    let plan = match fault_plan(out, args, config.seed) {
        Ok(plan) => plan,
        Err(code) => return code,
    };
    let store = checkpoint_store(out, args, "shard(s)");
    let started = Instant::now();
    let outcome = run_fleet_supervised(
        &config,
        plan.as_ref(),
        &retry_policy(args),
        store.as_ref().map(|s| (s, args.checkpoint_every)),
    );
    let (report, degraded) = match outcome {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed().as_secs_f64();
    outln!(out, "{}", report.render());
    finish(
        out,
        args,
        &degraded,
        report.devices as f64,
        "devices",
        elapsed,
    )
}
