//! The `dh-serve` daemon binary: bind, serve fleet jobs, exit cleanly
//! when a client POSTs `/shutdown`.
//!
//! ```text
//! dh-serve --addr 127.0.0.1:7477 --data-dir /var/lib/dh-serve
//! curl -s localhost:7477/healthz
//! ```

use std::process::ExitCode;
use std::time::Duration;

use dh_serve::{ServeConfig, Server};

const USAGE: &str = "\
usage: dh-serve [flags]
  --addr HOST:PORT   bind address                        (default 127.0.0.1:7477)
  --queue N          queued-job bound before 429s        (default 16)
  --concurrency N    jobs running at once                (default 2)
  --step-shards N    shards per step, one progress event each; a scenario
                     step's shard-epochs run on across epoch ends (default 4)
  --pace-ms N        artificial delay between batches    (default 0)
  --data-dir PATH    checkpoint directory                (default dh-serve-data)
  --scenario-dir DIR extra scenario packs (*.json; shadow built-ins)
  --job-deadline-ms N mark a job degraded after N ms without a heartbeat
                     (default: watchdog off)
";

fn parse_args() -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--addr" => config.addr = value,
            "--queue" => config.queue_capacity = value.parse().map_err(|e| bad(&e))?,
            "--concurrency" => config.concurrency = value.parse().map_err(|e| bad(&e))?,
            "--step-shards" => config.step_shards = value.parse().map_err(|e| bad(&e))?,
            "--pace-ms" => config.pace = Duration::from_millis(value.parse().map_err(|e| bad(&e))?),
            "--data-dir" => config.data_dir = value.into(),
            "--scenario-dir" => config.scenario_dir = Some(value.into()),
            "--job-deadline-ms" => {
                config.job_deadline =
                    Some(Duration::from_millis(value.parse().map_err(|e| bad(&e))?));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(u8::from(!why.is_empty()) * 2);
        }
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::FAILURE;
        }
    };
    println!("dh-serve listening on {}", server.local_addr());
    server.wait_for_shutdown();
    println!("dh-serve shutting down");
    server.shutdown();
    ExitCode::SUCCESS
}
