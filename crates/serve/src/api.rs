//! Request/response vocabulary: typed errors and the job spec parser.
//!
//! A job submission is either a `FleetConfig`-shaped JSON document or a
//! `{"scenario": "<name>"}` reference into the scenario registry, plus
//! execution knobs (fault injection, retry, checkpointing). Parsing is
//! strict in both directions: unknown fields are a 400 (a typo'd knob
//! silently ignored is a mis-run, the worst failure mode a reliability
//! service can have), and structurally valid configs still pass through
//! [`FleetConfig::validate`] so a zero-device or NaN-cornered job is
//! rejected at submit time with a 422 naming the field — never accepted
//! and then failed asynchronously.

use std::time::Duration;

use dh_fault::FaultPlan;
use dh_fleet::{FleetConfig, FleetPolicy, MaintenanceBudget};
use dh_scenario::{ScenarioPack, ScenarioRegistry};
use dh_units::{CurrentDensity, Fraction, Kelvin, Seconds, Volts};

use crate::json::{escape, Json};

/// Everything the HTTP layer can refuse a request with. Each variant
/// maps to exactly one status code, and the body always carries
/// `{"error": name, "message": …}` so clients can branch without
/// parsing prose.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// 400 — the request itself is malformed (bad JSON, unknown field,
    /// wrong type).
    BadRequest(String),
    /// 422 — well-formed, but the config it describes is invalid.
    InvalidConfig(String),
    /// 429 — the job queue is full; retry after the hinted seconds.
    QueueFull {
        /// The `Retry-After` hint, seconds.
        retry_after: u64,
    },
    /// 404 — no such job (or route).
    NotFound(String),
    /// 405 — the route exists but not for this method.
    MethodNotAllowed(String),
    /// 409 — the request races the daemon's lifecycle (submit during
    /// shutdown).
    Conflict(String),
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            Self::BadRequest(_) => 400,
            Self::InvalidConfig(_) => 422,
            Self::QueueFull { .. } => 429,
            Self::NotFound(_) => 404,
            Self::MethodNotAllowed(_) => 405,
            Self::Conflict(_) => 409,
        }
    }

    /// The stable machine-readable name carried in the body.
    pub fn name(&self) -> &'static str {
        match self {
            Self::BadRequest(_) => "bad_request",
            Self::InvalidConfig(_) => "invalid_config",
            Self::QueueFull { .. } => "queue_full",
            Self::NotFound(_) => "not_found",
            Self::MethodNotAllowed(_) => "method_not_allowed",
            Self::Conflict(_) => "conflict",
        }
    }

    /// The human-readable half of the body.
    pub fn message(&self) -> String {
        match self {
            Self::BadRequest(m)
            | Self::InvalidConfig(m)
            | Self::NotFound(m)
            | Self::MethodNotAllowed(m)
            | Self::Conflict(m) => m.clone(),
            Self::QueueFull { retry_after } => {
                format!("job queue is full; retry after {retry_after} s")
            }
        }
    }

    /// The JSON error body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"error\": \"{}\", \"message\": \"{}\"}}",
            self.name(),
            escape(&self.message())
        )
    }
}

/// A validated job submission: the fleet config (or scenario pack) plus
/// execution knobs, ready for the runner.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The validated fleet configuration (fleet jobs).
    pub config: Option<FleetConfig>,
    /// The resolved scenario pack (scenario jobs). Exactly one of
    /// `config` / `scenario` is set.
    pub scenario: Option<ScenarioPack>,
    /// The original request body, persisted to the job's meta file so a
    /// restarted daemon can rebuild the spec.
    pub raw: String,
    /// Fault-injection spec (already parse-checked at submit).
    pub inject: Option<String>,
    /// Seed for the fault stream (defaults to the config seed).
    pub inject_seed: u64,
    /// Attempts per shard before quarantine.
    pub retry: u32,
    /// Checkpoint file name (sanitized; lives under the daemon's data
    /// dir). `None` disables checkpointing.
    pub checkpoint: Option<String>,
    /// Shards folded between checkpoint writes (also the progress-event
    /// granularity while checkpointing).
    pub checkpoint_every: u64,
    /// Checkpoint generations retained.
    pub keep: usize,
}

impl JobSpec {
    /// Builds the job's fault plan (`None` when no injection was
    /// requested). Cannot fail: the spec string was parse-checked at
    /// submit time.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inject
            .as_ref()
            .map(|spec| FaultPlan::parse(spec, self.inject_seed).expect("spec checked at submit"))
    }

    /// Elements the job simulates: fleet devices or scenario elements.
    pub fn devices(&self) -> u64 {
        match (&self.config, &self.scenario) {
            (Some(config), _) => config.devices,
            (None, Some(pack)) => pack.total_elements(),
            (None, None) => 0,
        }
    }

    /// The job's shard count (the progress denominator for fleet jobs;
    /// scenario jobs step `shard_count` shards per epoch).
    pub fn shard_count(&self) -> u64 {
        match (&self.config, &self.scenario) {
            (Some(config), _) => config.shard_count(),
            (None, Some(pack)) => pack.shard_count(),
            (None, None) => 0,
        }
    }
}

fn bad(why: impl Into<String>) -> ServeError {
    ServeError::BadRequest(why.into())
}

fn invalid(why: impl Into<String>) -> ServeError {
    ServeError::InvalidConfig(why.into())
}

fn need_f64(v: &Json, field: &str) -> Result<f64, ServeError> {
    v.as_f64()
        .ok_or_else(|| bad(format!("`{field}` must be a number")))
}

fn need_u64(v: &Json, field: &str) -> Result<u64, ServeError> {
    v.as_u64()
        .ok_or_else(|| bad(format!("`{field}` must be a non-negative integer")))
}

fn fraction(v: f64, field: &str) -> Result<Fraction, ServeError> {
    Fraction::new(v).map_err(|e| invalid(format!("`{field}`: {e}")))
}

/// Parses the `config` object into a [`FleetConfig`]. `shard_size: 0`
/// (or absent) means "size shards automatically for this machine".
fn parse_config(obj: &Json, workers: usize) -> Result<FleetConfig, ServeError> {
    let mut config = FleetConfig::default();
    let mut shard_size_given = false;
    let fields = obj
        .as_obj()
        .ok_or_else(|| bad("`config` must be an object"))?;
    for (key, value) in fields {
        match key.as_str() {
            "devices" => config.devices = need_u64(value, key)?,
            "seed" => config.seed = need_u64(value, key)?,
            "years" => config.years = need_f64(value, key)?,
            "epoch_hours" => config.epoch = Seconds::from_hours(need_f64(value, key)?),
            "shard_size" => {
                config.shard_size = need_u64(value, key)?;
                shard_size_given = config.shard_size != 0;
            }
            "group_size" => config.group_size = need_u64(value, key)?,
            "policies" => {
                let names = value
                    .as_arr()
                    .ok_or_else(|| bad("`policies` must be an array of policy names"))?;
                config.policies = names
                    .iter()
                    .map(|n| {
                        let name = n
                            .as_str()
                            .ok_or_else(|| bad("`policies` entries must be strings"))?;
                        FleetPolicy::parse(name)
                            .ok_or_else(|| invalid(format!("unknown policy {name:?}")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "budget" => {
                config.budget = MaintenanceBudget {
                    slots_per_group: need_u64(value, key)?,
                }
            }
            "heal_fraction" => config.heal_fraction = fraction(need_f64(value, key)?, key)?,
            "recovery_bias_v" => config.recovery_bias = Volts::new(need_f64(value, key)?),
            "em_reversal_duty" => config.em_reversal_duty = fraction(need_f64(value, key)?, key)?,
            "em_heal_efficiency" => {
                config.em_heal_efficiency = fraction(need_f64(value, key)?, key)?
            }
            "em_pinned_floor" => config.em_pinned_floor = fraction(need_f64(value, key)?, key)?,
            "vdd_v" => config.vdd = Volts::new(need_f64(value, key)?),
            "base_temperature_k" => config.base_temperature = Kelvin::new(need_f64(value, key)?),
            "j_local_ma_cm2" => {
                config.j_local = CurrentDensity::from_ma_per_cm2(need_f64(value, key)?)
            }
            "fail_guardband" => config.fail_guardband = need_f64(value, key)?,
            other => return Err(bad(format!("unknown config field `{other}`"))),
        }
    }
    if !shard_size_given {
        config.shard_size = config.auto_shard_size(workers);
    }
    config.validate().map_err(|e| invalid(e.to_string()))?;
    Ok(config)
}

/// Checkpoint names become file names under the daemon's data dir, so
/// only a conservative character set is allowed — no separators, no
/// dotfiles, nothing that could escape the directory.
fn parse_checkpoint_name(name: &str) -> Result<String, ServeError> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(name.to_string())
    } else {
        Err(bad(format!(
            "`checkpoint` name {name:?} must be 1-128 chars of [A-Za-z0-9._-] and not start with a dot"
        )))
    }
}

/// Parses a `POST /jobs` body into a validated [`JobSpec`].
///
/// The body carries either a `config` object (fleet job) or a
/// `scenario` name resolved against `scenarios` (scenario job) —
/// exactly one of the two.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for malformed JSON / unknown fields /
/// type mismatches; [`ServeError::InvalidConfig`] when the described
/// run is semantically invalid (zero devices, NaN corners, bad policy
/// or fault spec values, unknown scenario, knobs a scenario job does
/// not support).
pub fn parse_job_spec(
    body: &[u8],
    workers: usize,
    scenarios: &ScenarioRegistry,
) -> Result<JobSpec, ServeError> {
    parse_spec(body, workers, scenarios, false)
}

/// [`parse_job_spec`]; with `persisted` (a spec an earlier daemon wrote
/// to its data dir), fields that earlier releases accepted and this one
/// retired are skipped rather than refused, so the job survives an
/// upgrade.
pub(crate) fn parse_spec(
    body: &[u8],
    workers: usize,
    scenarios: &ScenarioRegistry,
    persisted: bool,
) -> Result<JobSpec, ServeError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let doc = Json::parse(text).map_err(|e| bad(format!("bad JSON: {e}")))?;
    let fields = doc
        .as_obj()
        .ok_or_else(|| bad("body must be a JSON object"))?;

    let mut config = None;
    let mut scenario: Option<ScenarioPack> = None;
    let mut inject: Option<String> = None;
    let mut inject_seed = None;
    let mut retry = 3u32;
    let mut checkpoint = None;
    let mut checkpoint_every = 8u64;
    let mut keep = 3usize;

    for (key, value) in fields {
        match key.as_str() {
            "config" => config = Some(parse_config(value, workers)?),
            "scenario" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| bad("`scenario` must be a registered scenario name"))?;
                let pack = scenarios
                    .get(name)
                    .ok_or_else(|| {
                        invalid(format!(
                            "unknown scenario {name:?}; try GET /scenarios for the registry"
                        ))
                    })?
                    .pack
                    .clone();
                scenario = Some(pack);
            }
            "inject" => {
                let spec = value
                    .as_str()
                    .ok_or_else(|| bad("`inject` must be a fault-spec string"))?;
                inject = Some(spec.to_string());
            }
            "inject_seed" => inject_seed = Some(need_u64(value, key)?),
            "retry" => {
                retry = u32::try_from(need_u64(value, key)?)
                    .map_err(|_| bad("`retry` is out of range"))?;
                if retry == 0 {
                    return Err(invalid("`retry` must be at least 1"));
                }
            }
            "checkpoint" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| bad("`checkpoint` must be a file-name string"))?;
                checkpoint = Some(parse_checkpoint_name(name)?);
            }
            "checkpoint_every" => {
                checkpoint_every = need_u64(value, key)?.max(1);
            }
            "keep" => {
                keep = need_u64(value, key)?.max(1) as usize;
            }
            // Retired with the synchronous checkpoint writer.
            "checkpoint_mode" if persisted => {}
            other => return Err(bad(format!("unknown field `{other}`"))),
        }
    }

    if config.is_some() && scenario.is_some() {
        return Err(bad("`config` and `scenario` are mutually exclusive"));
    }
    let seed = match (&config, &scenario) {
        (Some(config), _) => config.seed,
        (None, Some(pack)) => pack.seed,
        (None, None) => return Err(bad("missing required field `config` (or `scenario`)")),
    };
    let inject_seed = inject_seed.unwrap_or(seed);
    if let Some(spec) = &inject {
        FaultPlan::parse(spec, inject_seed)
            .map_err(|e| invalid(format!("`inject` {spec:?}: {e}")))?;
    }
    Ok(JobSpec {
        config,
        scenario,
        raw: text.to_string(),
        inject,
        inject_seed,
        retry,
        checkpoint,
        checkpoint_every,
        keep,
    })
}

/// How long a 429'd client should wait before retrying: one pace of the
/// queue, floored at a second.
pub fn retry_after_hint(pace: Duration) -> u64 {
    pace.as_secs().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<JobSpec, ServeError> {
        parse_job_spec(body.as_bytes(), 4, &ScenarioRegistry::builtin())
    }

    #[test]
    fn a_minimal_submission_fills_defaults() {
        let spec = parse(r#"{"config": {"devices": 256, "years": 0.2}}"#).unwrap();
        let config = spec.config.as_ref().unwrap();
        assert_eq!(config.devices, 256);
        assert_eq!(config.years, 0.2);
        // Auto shard sizing kicked in and respects group alignment.
        assert!(config.shard_size > 0);
        assert_eq!(config.shard_size % config.group_size, 0);
        assert_eq!(spec.retry, 3);
        assert!(spec.inject.is_none() && spec.checkpoint.is_none());
        assert!(spec.scenario.is_none());
        assert_eq!(spec.devices(), 256);
    }

    #[test]
    fn the_full_knob_surface_round_trips() {
        let spec = parse(
            r#"{
              "config": {
                "devices": 512, "seed": 11, "years": 0.5, "epoch_hours": 84,
                "shard_size": 128, "group_size": 32,
                "policies": ["round-robin", "static"], "budget": 4,
                "heal_fraction": 0.2, "recovery_bias_v": -0.25,
                "em_reversal_duty": 0.3, "em_heal_efficiency": 0.8,
                "em_pinned_floor": 0.1, "vdd_v": 0.85,
                "base_temperature_k": 350.0, "j_local_ma_cm2": 5.0,
                "fail_guardband": 0.12
              },
              "inject": "panic=0.5", "inject_seed": 99, "retry": 5,
              "checkpoint": "job-a.dhfl", "checkpoint_every": 2, "keep": 4
            }"#,
        )
        .unwrap();
        let config = spec.config.as_ref().unwrap();
        assert_eq!(config.policies.len(), 2);
        assert_eq!(config.shard_size, 128);
        assert_eq!(spec.inject.as_deref(), Some("panic=0.5"));
        assert_eq!(spec.inject_seed, 99);
        assert!(spec.fault_plan().is_some());
        assert_eq!(spec.checkpoint.as_deref(), Some("job-a.dhfl"));
        assert_eq!((spec.checkpoint_every, spec.keep), (2, 4));
    }

    #[test]
    fn malformed_requests_are_400s() {
        for body in [
            "not json",
            "[]",
            r#"{"config": {"devices": 64}, "tpyo": 1}"#,
            r#"{"config": {"devicez": 64}}"#,
            r#"{"config": {"devices": -3}}"#,
            r#"{"config": {"devices": 64}, "checkpoint": "../escape"}"#,
            r#"{"config": {"devices": 64}, "checkpoint": ".hidden"}"#,
            r#"{"config": {"devices": 64}, "checkpoint_mode": "sync"}"#,
            r#"{}"#,
        ] {
            let err = parse(body).unwrap_err();
            assert_eq!(err.status(), 400, "body {body:?} gave {err:?}");
        }
    }

    #[test]
    fn invalid_configs_are_422s() {
        for body in [
            r#"{"config": {"devices": 0}}"#,
            r#"{"config": {"devices": 64, "years": 0}}"#,
            r#"{"config": {"devices": 64, "heal_fraction": 1.5}}"#,
            r#"{"config": {"devices": 64, "fail_guardband": 0}}"#,
            r#"{"config": {"devices": 64, "shard_size": 100, "group_size": 64}}"#,
            r#"{"config": {"devices": 64, "policies": ["best-effort"]}}"#,
            r#"{"config": {"devices": 64}, "inject": "gremlins=1"}"#,
            r#"{"config": {"devices": 64}, "retry": 0}"#,
        ] {
            let err = parse(body).unwrap_err();
            assert_eq!(err.status(), 422, "body {body:?} gave {err:?}");
        }
    }

    #[test]
    fn scenario_jobs_resolve_against_the_registry() {
        let spec = parse(r#"{"scenario": "sram-decoder", "checkpoint": "s.dhsp"}"#).unwrap();
        assert!(spec.config.is_none());
        let pack = spec.scenario.as_ref().unwrap();
        assert_eq!(pack.name, "sram-decoder");
        assert_eq!(spec.devices(), pack.total_elements());
        assert_eq!(spec.shard_count(), pack.shard_count());
        assert_eq!(spec.checkpoint.as_deref(), Some("s.dhsp"));
        // The seed defaulting falls through to the pack seed.
        assert_eq!(spec.inject_seed, pack.seed);
    }

    #[test]
    fn scenario_jobs_reject_fleet_only_knobs() {
        for body in [
            r#"{"scenario": "no-such-pack"}"#,
            r#"{"scenario": "sram-decoder", "inject": "gremlins=1"}"#,
        ] {
            let err = parse(body).unwrap_err();
            assert_eq!(err.status(), 422, "body {body:?} gave {err:?}");
        }
        for body in [
            r#"{"scenario": "sram-decoder", "config": {"devices": 4}}"#,
            r#"{"scenario": "sram-decoder", "checkpoint_mode": "sync"}"#,
            r#"{"scenario": 3}"#,
        ] {
            let err = parse(body).unwrap_err();
            assert_eq!(err.status(), 400, "body {body:?} gave {err:?}");
        }
    }

    #[test]
    fn scenario_jobs_accept_fault_injection_knobs() {
        let spec = parse(
            r#"{"scenario": "sram-decoder", "inject": "panic=0.2,disk-full=0.3",
                "inject_seed": 7, "retry": 5, "checkpoint": "s.dhsp", "keep": 4}"#,
        )
        .unwrap();
        assert_eq!(spec.inject.as_deref(), Some("panic=0.2,disk-full=0.3"));
        assert_eq!(spec.inject_seed, 7);
        assert!(spec.fault_plan().is_some());
        assert_eq!((spec.retry, spec.keep), (5, 4));
    }

    #[test]
    fn error_bodies_are_machine_readable() {
        let err = parse(r#"{"config": {"devices": 0}}"#).unwrap_err();
        let body = Json::parse(&err.to_json()).unwrap();
        assert_eq!(body.get("error").unwrap().as_str(), Some("invalid_config"));
        assert!(body
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("devices"));
    }
}
