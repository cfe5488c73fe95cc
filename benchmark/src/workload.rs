//! The five workloads: what each one runs, the inputs it derives from the
//! seed, and the `--seed 1` fingerprints the correctness gate pins.

use std::path::Path;

use dh_fleet::{FleetConfig, FleetPolicy};
use dh_scenario::{
    BlockGroup, BlockModel, Corner, Maintenance, MaintenancePolicy, ScenarioPack, Workload as Trace,
};

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Worst-first fleet over 157 epochs: epoch kernel and ranking.
    FleetSteady,
    /// Millions of chips for one epoch: per-chip corner draw and store reset.
    FleetWide,
    /// Supervised round-robin fleet with ~780 small fsynced checkpoints.
    FleetDurable,
    /// Three-model scenario pack with ten large checkpoints.
    ScenarioDurable,
    /// Closed-loop job mix against the `dh-serve` daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order a bare invocation runs them.
    pub const ALL: [Workload; 5] = [
        Self::FleetSteady,
        Self::FleetWide,
        Self::FleetDurable,
        Self::ScenarioDurable,
        Self::ServeMixed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Self::FleetSteady => "fleet-steady",
            Self::FleetWide => "fleet-wide",
            Self::FleetDurable => "fleet-durable",
            Self::ScenarioDurable => "scenario-durable",
            Self::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The report fingerprint of the workload's job under `--seed 1`
    /// (`serve-mixed`: the [`fold`] of its job fingerprints). Any engine
    /// change that alters a report shows up here.
    pub fn pin(self) -> u64 {
        match self {
            Self::FleetSteady => 0x3e9b_28fa_aa1b_382c,
            Self::FleetWide => 0x3928_bb71_83e0_e11e,
            Self::FleetDurable => 0x22a7_d894_2b8d_35a1,
            Self::ScenarioDurable => 0x5dc0_6634_4940_d230,
            Self::ServeMixed => 0x8261_2320_0fcd_d32f,
        }
    }
}

/// The checkpoint cadence of a durable job. Durable jobs also run the
/// supervised engine under a no-op fault plan (`--inject panic=0`), the
/// path the daemon takes.
#[derive(Debug, Clone, Copy)]
pub struct Durable {
    /// Steps between checkpoint writes (fleet: shards; scenario: batches).
    pub every: u64,
    /// Checkpoint generations kept.
    pub keep: usize,
}

/// Which engine a job runs, with its input.
#[derive(Debug, Clone)]
pub enum Engine {
    /// A `dh-fleet` population.
    Fleet(FleetConfig),
    /// A `dh-scenario` pack (its file lives in the packs directory).
    Scenario(ScenarioPack),
}

/// One engine run: a `fleet` CLI invocation, a daemon job, or a traced
/// in-process run — the same work on every surface.
#[derive(Debug, Clone)]
pub struct Job {
    pub engine: Engine,
    pub durable: Option<Durable>,
    /// The worker count the CLI sizes shards from when none is given.
    pub nproc: usize,
}

/// The no-op fault plan durable jobs run under.
pub const NOOP_INJECT: &str = "panic=0";

/// Shards the daemon folds between progress events (its default).
pub const DAEMON_STEP_SHARDS: u64 = 4;

impl Job {
    /// Units times epochs: device·epochs or element·epochs.
    pub fn unit_epochs(&self) -> u64 {
        match &self.engine {
            Engine::Fleet(c) => c.devices * c.total_epochs(),
            Engine::Scenario(p) => p.total_elements() * p.epochs,
        }
    }

    /// `fleet` CLI arguments. A durable job checkpoints into `ckpt_dir`;
    /// scenario packs are read from `packs`.
    pub fn cli_args(&self, ckpt_dir: &Path, packs: &Path) -> Vec<String> {
        let mut args: Vec<String> = Vec::new();
        let mut push = |flag: &str, value: String| {
            args.push(flag.to_string());
            args.push(value);
        };
        match &self.engine {
            Engine::Fleet(c) => {
                push("--devices", c.devices.to_string());
                push("--years", c.years.to_string());
                push("--seed", c.seed.to_string());
                let names: Vec<&str> = c.policies.iter().map(|p| p.name()).collect();
                push("--policy", names.join(","));
                if c.shard_size != c.auto_shard_size(self.nproc) {
                    push("--shard-size", c.shard_size.to_string());
                }
                if let Some(d) = self.durable {
                    push(
                        "--checkpoint",
                        ckpt_dir.join("f.dhfl").display().to_string(),
                    );
                    push("--checkpoint-every", d.every.to_string());
                    push("--keep", d.keep.to_string());
                    push("--inject", NOOP_INJECT.to_string());
                }
            }
            Engine::Scenario(p) => {
                push("--scenario-dir", packs.display().to_string());
                push("--scenario", p.name.clone());
                if let Some(d) = self.durable {
                    push("--inject", NOOP_INJECT.to_string());
                    push(
                        "--checkpoint",
                        ckpt_dir.join("s.dhsp").display().to_string(),
                    );
                    push("--keep", d.keep.to_string());
                    push("--checkpoint-every", d.every.to_string());
                }
            }
        }
        args
    }

    /// The `POST /jobs` body that submits this job to the daemon.
    pub fn body(&self) -> String {
        match &self.engine {
            Engine::Fleet(c) => format!(
                "{{\"config\":{{\"devices\":{},\"years\":{},\"shard_size\":{},\"seed\":{}}}}}",
                c.devices, c.years, c.shard_size, c.seed
            ),
            Engine::Scenario(p) => format!("{{\"scenario\":\"{}\"}}", p.name),
        }
    }

    /// Whether `line` is the CLI's ready line: the config line of a
    /// fleet run, or the pack line printed once the pack has loaded.
    pub fn is_ready_line(&self, line: &str) -> bool {
        match self.engine {
            Engine::Fleet(_) => line.contains(" y horizon ("),
            Engine::Scenario(_) => {
                line.starts_with("scenario \"") && line.contains("(pack fingerprint")
            }
        }
    }
}

/// Everything a workload runs, derived from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The measured jobs: one for the CLI workloads, the distinct job
    /// bodies for `serve-mixed`.
    pub jobs: Vec<Job>,
    /// The untimed warm-up: the same job at a tenth of the size (empty for
    /// `serve-mixed`, whose daemon warms up on a tenth of the job count).
    pub warmup: Vec<Job>,
    /// Pack files to write into the packs directory.
    pub packs: Vec<ScenarioPack>,
}

/// Fleet jobs in the serve mix; the scenario job is the last body.
pub const SERVE_FLEET_BODIES: usize = 8;

/// Jobs the daemon runs per second of `--seconds` (after a warm-up of a
/// tenth as many). A fixed count, not a deadline, so the daemon's job
/// history — and with it its memory — is the same on every commit.
pub const SERVE_JOBS_PER_SECOND: f64 = 300.0;

/// The body index of the `k`-th daemon job: fleet and scenario jobs
/// alternate, and the fleet jobs cycle through eight seeds.
pub fn serve_body(k: u64) -> usize {
    if k % 2 == 1 {
        SERVE_FLEET_BODIES
    } else {
        ((k / 2) % SERVE_FLEET_BODIES as u64) as usize
    }
}

/// The inputs of workload `w` under `seed`, for `nproc` worker threads.
pub fn inputs(w: Workload, seed: u64, nproc: usize) -> Inputs {
    let fleet = |devices: u64, years: f64, policy: FleetPolicy, shard: Option<u64>, seed: u64| {
        let mut config = FleetConfig {
            devices,
            years,
            seed,
            policies: vec![policy],
            ..FleetConfig::default()
        };
        config.shard_size = shard.unwrap_or_else(|| config.auto_shard_size(nproc));
        config
    };
    let job = |engine: Engine, durable: Option<Durable>| Job {
        engine,
        durable,
        nproc,
    };
    let sized = |scale: u64| -> (Vec<Job>, Vec<ScenarioPack>) {
        match w {
            Workload::FleetSteady => {
                let c = fleet(400_000 / scale, 3.0, FleetPolicy::WorstFirst, None, seed);
                (vec![job(Engine::Fleet(c), None)], Vec::new())
            }
            Workload::FleetWide => {
                let c = fleet(
                    10_000_000 / scale,
                    0.01,
                    FleetPolicy::WorstFirst,
                    None,
                    seed,
                );
                (vec![job(Engine::Fleet(c), None)], Vec::new())
            }
            Workload::FleetDurable => {
                let c = fleet(
                    800_000 / scale,
                    0.5,
                    FleetPolicy::RoundRobin,
                    Some(512),
                    seed,
                );
                let durable = Durable { every: 2, keep: 3 };
                (vec![job(Engine::Fleet(c), Some(durable))], Vec::new())
            }
            Workload::ScenarioDurable => {
                let name = if scale == 1 {
                    "bench-mix"
                } else {
                    "bench-mix-warmup"
                };
                let pack = mix_pack(name, seed, 262_144 / scale, 240, 4096);
                // A checkpoint every 24 epochs: one CLI step advances
                // `nproc` shards, so an epoch takes ceil(shards / nproc).
                let every = 24 * pack.shard_count().div_ceil(nproc as u64);
                let durable = Durable { every, keep: 2 };
                let j = job(Engine::Scenario(pack.clone()), Some(durable));
                (vec![j], vec![pack])
            }
            Workload::ServeMixed => {
                let mut jobs: Vec<Job> = (0..SERVE_FLEET_BODIES as u64)
                    .map(|k| {
                        let c = fleet(2048, 0.1, FleetPolicy::WorstFirst, Some(256), seed + k);
                        job(Engine::Fleet(c), None)
                    })
                    .collect();
                // Eight epochs (one of them an inversion) make a scenario
                // job take as long as a fleet job in the daemon: the median
                // latencies were 6.3 and 5.8 ms on a 2-core host, against
                // 9.0 and 4.7 ms at 24 epochs, where the mix's p50 fell
                // between two modes.
                let pack = mix_pack("serve-mini", seed, 2048, 8, 2048);
                jobs.push(job(Engine::Scenario(pack.clone()), None));
                (jobs, vec![pack])
            }
        }
    };
    let (jobs, mut packs) = sized(1);
    let mut warmup = Vec::new();
    if w != Workload::ServeMixed {
        let (jobs, warmup_packs) = sized(10);
        warmup = jobs;
        packs.extend(warmup_packs);
    }
    Inputs {
        jobs,
        warmup,
        packs,
    }
}

/// A pack of equal sram-decoder, weight-memory and aged-multiplier groups
/// under idle-row/weight inversion every 8 epochs. The seed drives both
/// the pack's variation stream and its 12-sample activity trace.
pub fn mix_pack(
    name: &str,
    seed: u64,
    per_block: u64,
    epochs: u64,
    shard_size: u64,
) -> ScenarioPack {
    let mut state = seed;
    let trace = (0..12)
        .map(|_| {
            let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            ((0.5 + 0.45 * unit) * 1000.0).round() / 1000.0
        })
        .collect();
    let group = |model: BlockModel, vdd_v: f64, temperature_c: f64, variability: f64| BlockGroup {
        model,
        count: per_block,
        vdd_v,
        temperature_c,
        variability,
    };
    let corner = |name: &str, weight: f64, delay_scale: f64, rate_scale: f64| Corner {
        name: name.to_string(),
        weight,
        delay_scale,
        rate_scale,
    };
    ScenarioPack {
        name: name.to_string(),
        description: format!("benchmark block mix, seed {seed}"),
        seed,
        epochs,
        epoch_hours: 730.0,
        shard_size,
        fail_threshold_mv: 45.0,
        workload: Trace { trace },
        maintenance: Maintenance {
            policy: MaintenancePolicy::Invert,
            interval_epochs: 8,
            recovery_bias_v: 0.3,
        },
        blocks: vec![
            group(BlockModel::SramDecoder { skew: 1.1 }, 0.95, 85.0, 0.08),
            group(BlockModel::WeightMemory, 0.9, 75.0, 0.1),
            group(
                BlockModel::AgedMultiplier {
                    base_delay_ps: 820.0,
                    corners: vec![
                        corner("slow", 0.2, 1.15, 1.3),
                        corner("typical", 0.6, 1.0, 1.0),
                        corner("fast", 0.2, 0.9, 0.8),
                    ],
                },
                1.0,
                95.0,
                0.06,
            ),
        ],
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over report fingerprints, in job order: one number per workload.
pub fn fold(fingerprints: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for fp in fingerprints {
        for byte in fp.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_scenario::ScenarioRegistry;

    fn temp_packs(tag: &str, packs: &[ScenarioPack]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dh-benchmark-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for pack in packs {
            std::fs::write(dir.join(format!("{}.json", pack.name)), pack.to_json()).unwrap();
        }
        dir
    }

    #[test]
    fn generated_packs_load_and_depend_on_the_seed() {
        for w in Workload::ALL {
            for pack in inputs(w, 7, 2).packs {
                assert_eq!(ScenarioPack::load(&pack.to_json()).unwrap(), pack);
            }
        }
        let a = mix_pack("x", 1, 16, 4, 8);
        let b = mix_pack("x", 2, 16, 4, 8);
        assert_ne!(a.workload.trace, b.workload.trace);
        assert_eq!(a, mix_pack("x", 1, 16, 4, 8));
    }

    #[test]
    fn job_bodies_pass_the_daemon_parser() {
        let inputs = inputs(Workload::ServeMixed, 3, 2);
        let dir = temp_packs("bodies", &inputs.packs);
        let registry = ScenarioRegistry::with_dir(&dir).unwrap();
        for (i, job) in inputs.jobs.iter().enumerate() {
            let spec = dh_serve::api::parse_job_spec(job.body().as_bytes(), 2, &registry)
                .unwrap_or_else(|e| panic!("body {i} {}: {e:?}", job.body()));
            match &job.engine {
                Engine::Fleet(c) => assert_eq!(spec.config.as_ref(), Some(c)),
                Engine::Scenario(p) => assert_eq!(spec.scenario.as_ref(), Some(p)),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_serve_mix_alternates_job_kinds() {
        let kinds: Vec<usize> = (0..6).map(serve_body).collect();
        assert_eq!(kinds, [0, 8, 1, 8, 2, 8]);
        assert_eq!(serve_body(16), 0);
    }
}
