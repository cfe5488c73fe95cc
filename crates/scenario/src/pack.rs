//! The scenario-pack document: schema, validation, canonical encoding,
//! and fingerprinting.
//!
//! A pack is a JSON file describing one complete wearout experiment:
//! which victim blocks exist (and how many), the workload trace that
//! drives them, the maintenance policy that heals them, and the epoch
//! grid to integrate over. Parsing is strict in the daemon's style —
//! unknown fields are rejected, every field is typed, and semantic
//! validation is a separate pass with its own error variant so callers
//! can distinguish "not a pack" from "an impossible pack".

use dh_fault::wire::{fnv1a, FNV_OFFSET};
use dh_json::{escape, num, Json};

use crate::error::{invalid, schema, ScenarioError};
use crate::models::{EpochCtx, GroupCtx};

/// Temperatures a pack may ask for, °C (military range plus margin).
const TEMP_MIN_C: f64 = -55.0;
const TEMP_MAX_C: f64 = 225.0;

/// A complete, validated scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPack {
    /// Registry name (also the CLI handle).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Seed of the deterministic variation stream.
    pub seed: u64,
    /// Number of epochs a full run integrates.
    pub epochs: u64,
    /// Wall-clock hours per epoch.
    pub epoch_hours: f64,
    /// Elements per engine shard (parallelism grain).
    pub shard_size: u64,
    /// |ΔVth| failure threshold applied to every block's metric, mV.
    pub fail_threshold_mv: f64,
    /// The workload driving the blocks.
    pub workload: Workload,
    /// The maintenance (healing) policy.
    pub maintenance: Maintenance,
    /// The victim-block mix.
    pub blocks: Vec<BlockGroup>,
}

/// The workload description: a cyclic activity trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Per-epoch activity (and, for weight memories, zero-fraction)
    /// samples in `[0, 1]`; the engine cycles through them.
    pub trace: Vec<f64>,
}

/// When and how the scenario heals its blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Maintenance {
    /// The healing action taken on maintenance epochs.
    pub policy: MaintenancePolicy,
    /// Every how many epochs the action fires (maintenance epochs are
    /// the multiples of this). Ignored when the policy is `None`.
    pub interval_epochs: u64,
    /// Reverse gate bias applied during maintenance recovery, volts
    /// (the paper's active-recovery knob; 0 = passive only).
    pub recovery_bias_v: f64,
}

/// The healing action of a maintenance epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// No maintenance; blocks age under the raw workload.
    None,
    /// Duty inversion (address/weight/operand complementing).
    Invert,
    /// Power gating: the block idles the whole maintenance epoch.
    PowerGate,
}

impl MaintenancePolicy {
    /// The wire name used in pack JSON.
    pub fn name(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Invert => "invert",
            Self::PowerGate => "power-gate",
        }
    }
}

/// One homogeneous group of victim blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockGroup {
    /// Which victim model (with its model-specific knobs).
    pub model: BlockModel,
    /// Number of elements in the group.
    pub count: u64,
    /// Gate overdrive during stress, volts.
    pub vdd_v: f64,
    /// Operating temperature, °C.
    pub temperature_c: f64,
    /// Half-width of the uniform process-variation band.
    pub variability: f64,
}

/// The victim model of a block group.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockModel {
    /// SRAM address decoder: per-row duty from a Zipf access histogram.
    SramDecoder {
        /// Zipf exponent of the access histogram.
        skew: f64,
    },
    /// DNN weight memory: per-bank duty pair from the workload trace.
    WeightMemory,
    /// Aged multiplier: delay slowdown across process corners.
    AgedMultiplier {
        /// Fresh critical-path delay at the typical corner, ps.
        base_delay_ps: f64,
        /// The process corners instances are distributed over.
        corners: Vec<Corner>,
    },
}

impl BlockModel {
    /// The wire name used in pack JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Self::SramDecoder { .. } => "sram-decoder",
            Self::WeightMemory => "weight-memory",
            Self::AgedMultiplier { .. } => "aged-multiplier",
        }
    }
}

/// One process-variation corner of an aged-multiplier group.
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    /// Corner name (`slow`, `typical`, …) — reporting only.
    pub name: String,
    /// Relative share of instances landing in this corner.
    pub weight: f64,
    /// Multiplier on the fresh critical-path delay.
    pub delay_scale: f64,
    /// Multiplier on both aging rates.
    pub rate_scale: f64,
}

// ---------------------------------------------------------------- parsing

/// A strict object walker: every field must be consumed exactly once.
struct Fields<'a> {
    path: &'a str,
    fields: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Json, path: &'a str) -> Result<Self, ScenarioError> {
        let fields = v
            .as_obj()
            .ok_or_else(|| schema(path, "expected an object"))?;
        Ok(Self {
            path,
            fields,
            used: vec![false; fields.len()],
        })
    }

    fn take(&mut self, key: &str) -> Option<&'a Json> {
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn req(&mut self, key: &str) -> Result<&'a Json, ScenarioError> {
        self.take(key)
            .ok_or_else(|| schema(self.at(key), "missing required field"))
    }

    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Errors on the first field no `take`/`req` consumed.
    fn finish(self) -> Result<(), ScenarioError> {
        for (i, (k, _)) in self.fields.iter().enumerate() {
            if !self.used[i] {
                return Err(schema(self.at(k), "unknown field"));
            }
        }
        Ok(())
    }
}

fn want_str(v: &Json, path: String) -> Result<String, ScenarioError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| schema(path, "expected a string"))
}

fn want_u64(v: &Json, path: String) -> Result<u64, ScenarioError> {
    v.as_u64()
        .ok_or_else(|| schema(path, "expected a non-negative integer"))
}

fn want_f64(v: &Json, path: String) -> Result<f64, ScenarioError> {
    v.as_f64().ok_or_else(|| schema(path, "expected a number"))
}

impl ScenarioPack {
    /// Parses pack JSON, strictly: unknown or mistyped fields are
    /// [`ScenarioError::Schema`], syntax errors [`ScenarioError::Json`].
    /// Call [`ScenarioPack::validate`] afterwards (or use
    /// [`ScenarioPack::load`]) for the semantic pass.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let doc = Json::parse(text).map_err(ScenarioError::Json)?;
        let mut f = Fields::new(&doc, "")?;
        let pack = Self {
            name: want_str(f.req("name")?, f.at("name"))?,
            description: want_str(f.req("description")?, f.at("description"))?,
            seed: want_u64(f.req("seed")?, f.at("seed"))?,
            epochs: want_u64(f.req("epochs")?, f.at("epochs"))?,
            epoch_hours: want_f64(f.req("epoch_hours")?, f.at("epoch_hours"))?,
            shard_size: want_u64(f.req("shard_size")?, f.at("shard_size"))?,
            fail_threshold_mv: want_f64(f.req("fail_threshold_mv")?, f.at("fail_threshold_mv"))?,
            workload: Workload::from_json(f.req("workload")?, &f.at("workload"))?,
            maintenance: Maintenance::from_json(f.req("maintenance")?, &f.at("maintenance"))?,
            blocks: {
                let path = f.at("blocks");
                let items = f
                    .req("blocks")?
                    .as_arr()
                    .ok_or_else(|| schema(path.clone(), "expected an array"))?;
                items
                    .iter()
                    .enumerate()
                    .map(|(i, b)| BlockGroup::from_json(b, &format!("{path}[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?
            },
        };
        f.finish()?;
        Ok(pack)
    }

    /// Parses *and* validates: the one-call path the registry and the
    /// daemon use.
    pub fn load(text: &str) -> Result<Self, ScenarioError> {
        let pack = Self::parse(text)?;
        pack.validate()?;
        Ok(pack)
    }

    /// The semantic pass: every way a well-formed pack can still be
    /// impossible gets a typed [`ScenarioError::Invalid`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() || self.name.len() > 64 {
            return Err(invalid("name", "must be 1–64 characters"));
        }
        if self
            .name
            .bytes()
            .any(|b| !(b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_'))
        {
            return Err(invalid("name", "use lowercase letters, digits, `-`, `_`"));
        }
        if self.epochs == 0 {
            return Err(invalid("epochs", "must be at least 1"));
        }
        if !(self.epoch_hours.is_finite() && self.epoch_hours > 0.0) {
            return Err(invalid("epoch_hours", "must be finite and positive"));
        }
        if self.shard_size == 0 {
            return Err(invalid("shard_size", "must be at least 1"));
        }
        if !(self.fail_threshold_mv.is_finite() && self.fail_threshold_mv > 0.0) {
            return Err(invalid("fail_threshold_mv", "must be finite and positive"));
        }
        if self.workload.trace.is_empty() {
            return Err(invalid("workload.trace", "must have at least one sample"));
        }
        for (i, &v) in self.workload.trace.iter().enumerate() {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(invalid(
                    format!("workload.trace[{i}]"),
                    "samples must lie in [0, 1]",
                ));
            }
        }
        if self.maintenance.policy != MaintenancePolicy::None
            && self.maintenance.interval_epochs == 0
        {
            return Err(invalid(
                "maintenance.interval_epochs",
                "must be at least 1 when a policy is set",
            ));
        }
        if !(self.maintenance.recovery_bias_v.is_finite()
            && (0.0..=1.0).contains(&self.maintenance.recovery_bias_v))
        {
            return Err(invalid(
                "maintenance.recovery_bias_v",
                "must lie in [0, 1] volts",
            ));
        }
        if self.blocks.is_empty() {
            return Err(invalid("blocks", "must have at least one group"));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            b.validate(&format!("blocks[{i}]"))?;
        }
        Ok(())
    }

    /// Canonical single-line JSON encoding: field order is fixed, so
    /// `parse(to_json(p)) == p` and the encoding is a stable
    /// fingerprint input.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"description\":\"{}\",\"seed\":{},\"epochs\":{},\
             \"epoch_hours\":{},\"shard_size\":{},\"fail_threshold_mv\":{},",
            escape(&self.name),
            escape(&self.description),
            self.seed,
            self.epochs,
            num(self.epoch_hours),
            self.shard_size,
            num(self.fail_threshold_mv),
        ));
        out.push_str("\"workload\":{\"trace\":[");
        for (i, v) in self.workload.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&num(*v));
        }
        out.push_str("]},");
        out.push_str(&format!(
            "\"maintenance\":{{\"policy\":\"{}\",\"interval_epochs\":{},\"recovery_bias_v\":{}}},",
            self.maintenance.policy.name(),
            self.maintenance.interval_epochs,
            num(self.maintenance.recovery_bias_v),
        ));
        out.push_str("\"blocks\":[");
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            b.encode(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// FNV-1a over the canonical encoding: the pack identity the
    /// engine, checkpoints, and CI pins key on.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.to_json().as_bytes())
    }

    /// Total elements across all block groups.
    pub fn total_elements(&self) -> u64 {
        self.blocks.iter().map(|b| b.count).sum()
    }

    /// Shards the engine splits this pack into: each group contributes
    /// `ceil(count / shard_size)` shards.
    pub fn shard_count(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.count.div_ceil(self.shard_size.max(1)))
            .sum()
    }

    /// The [`GroupCtx`] the engine builds group `index`'s stores from.
    pub fn group_ctx(&self, index: usize) -> GroupCtx {
        let b = &self.blocks[index];
        GroupCtx {
            seed: self.seed,
            group_index: index as u64,
            vdd_v: b.vdd_v,
            temperature_k: b.temperature_c + 273.15,
            variability: b.variability,
            maintenance_bias_v: self.maintenance.recovery_bias_v,
        }
    }

    /// Whether 1-based `epoch` is a maintenance epoch.
    pub fn is_maintenance_epoch(&self, epoch: u64) -> bool {
        self.maintenance.policy != MaintenancePolicy::None
            && self.maintenance.interval_epochs > 0
            && epoch.is_multiple_of(self.maintenance.interval_epochs)
    }

    /// The kernel context of 1-based `epoch`: trace activity plus the
    /// maintenance policy resolved to flags.
    pub fn epoch_ctx(&self, epoch: u64) -> EpochCtx {
        let maint = self.is_maintenance_epoch(epoch);
        let trace = &self.workload.trace;
        EpochCtx {
            epoch_hours: self.epoch_hours,
            activity: trace[((epoch - 1) % trace.len() as u64) as usize],
            inverted: maint && self.maintenance.policy == MaintenancePolicy::Invert,
            gated: maint && self.maintenance.policy == MaintenancePolicy::PowerGate,
            active_recovery: maint && self.maintenance.recovery_bias_v > 0.0,
            fail_threshold_mv: self.fail_threshold_mv,
            epoch,
        }
    }
}

impl Workload {
    fn from_json(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        let mut f = Fields::new(v, path)?;
        let trace_path = f.at("trace");
        let items = f
            .req("trace")?
            .as_arr()
            .ok_or_else(|| schema(trace_path.clone(), "expected an array"))?;
        let trace = items
            .iter()
            .enumerate()
            .map(|(i, v)| want_f64(v, format!("{trace_path}[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        f.finish()?;
        Ok(Self { trace })
    }
}

impl Maintenance {
    fn from_json(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        let mut f = Fields::new(v, path)?;
        let policy_path = f.at("policy");
        let policy = match want_str(f.req("policy")?, policy_path.clone())?.as_str() {
            "none" => MaintenancePolicy::None,
            "invert" => MaintenancePolicy::Invert,
            "power-gate" => MaintenancePolicy::PowerGate,
            other => {
                return Err(schema(
                    policy_path,
                    format!("unknown policy {other:?} (none | invert | power-gate)"),
                ))
            }
        };
        let m = Self {
            policy,
            interval_epochs: want_u64(f.req("interval_epochs")?, f.at("interval_epochs"))?,
            recovery_bias_v: want_f64(f.req("recovery_bias_v")?, f.at("recovery_bias_v"))?,
        };
        f.finish()?;
        Ok(m)
    }
}

impl BlockGroup {
    fn from_json(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        let mut f = Fields::new(v, path)?;
        let model_path = f.at("model");
        let model_name = want_str(f.req("model")?, model_path.clone())?;
        let count = want_u64(f.req("count")?, f.at("count"))?;
        let vdd_v = want_f64(f.req("vdd_v")?, f.at("vdd_v"))?;
        let temperature_c = want_f64(f.req("temperature_c")?, f.at("temperature_c"))?;
        let variability = want_f64(f.req("variability")?, f.at("variability"))?;
        let model = match model_name.as_str() {
            "sram-decoder" => BlockModel::SramDecoder {
                skew: want_f64(f.req("skew")?, f.at("skew"))?,
            },
            "weight-memory" => BlockModel::WeightMemory,
            "aged-multiplier" => {
                let corners_path = f.at("corners");
                let items = f
                    .req("corners")?
                    .as_arr()
                    .ok_or_else(|| schema(corners_path.clone(), "expected an array"))?;
                BlockModel::AgedMultiplier {
                    base_delay_ps: want_f64(f.req("base_delay_ps")?, f.at("base_delay_ps"))?,
                    corners: items
                        .iter()
                        .enumerate()
                        .map(|(i, c)| Corner::from_json(c, &format!("{corners_path}[{i}]")))
                        .collect::<Result<Vec<_>, _>>()?,
                }
            }
            other => {
                return Err(schema(
                    model_path,
                    format!(
                        "unknown model {other:?} (sram-decoder | weight-memory | aged-multiplier)"
                    ),
                ))
            }
        };
        f.finish()?;
        Ok(Self {
            model,
            count,
            vdd_v,
            temperature_c,
            variability,
        })
    }

    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if self.count == 0 {
            return Err(invalid(format!("{path}.count"), "must be at least 1"));
        }
        if !(self.vdd_v.is_finite() && self.vdd_v > 0.0 && self.vdd_v <= 2.0) {
            return Err(invalid(format!("{path}.vdd_v"), "must lie in (0, 2] volts"));
        }
        if !(self.temperature_c.is_finite()
            && (TEMP_MIN_C..=TEMP_MAX_C).contains(&self.temperature_c))
        {
            return Err(invalid(
                format!("{path}.temperature_c"),
                "must lie in [-55, 225] °C",
            ));
        }
        if !(self.variability.is_finite() && (0.0..=0.5).contains(&self.variability)) {
            return Err(invalid(
                format!("{path}.variability"),
                "must lie in [0, 0.5]",
            ));
        }
        match &self.model {
            BlockModel::SramDecoder { skew } => {
                if !(skew.is_finite() && *skew > 0.0 && *skew <= 8.0) {
                    return Err(invalid(format!("{path}.skew"), "must lie in (0, 8]"));
                }
            }
            BlockModel::WeightMemory => {}
            BlockModel::AgedMultiplier {
                base_delay_ps,
                corners,
            } => {
                if !(base_delay_ps.is_finite() && *base_delay_ps > 0.0) {
                    return Err(invalid(
                        format!("{path}.base_delay_ps"),
                        "must be finite and positive",
                    ));
                }
                if corners.is_empty() {
                    return Err(invalid(
                        format!("{path}.corners"),
                        "must have at least one corner",
                    ));
                }
                for (i, c) in corners.iter().enumerate() {
                    c.validate(&format!("{path}.corners[{i}]"))?;
                }
            }
        }
        Ok(())
    }

    fn encode(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"model\":\"{}\",\"count\":{},\"vdd_v\":{},\"temperature_c\":{},\"variability\":{}",
            self.model.name(),
            self.count,
            num(self.vdd_v),
            num(self.temperature_c),
            num(self.variability),
        ));
        match &self.model {
            BlockModel::SramDecoder { skew } => {
                out.push_str(&format!(",\"skew\":{}", num(*skew)));
            }
            BlockModel::WeightMemory => {}
            BlockModel::AgedMultiplier {
                base_delay_ps,
                corners,
            } => {
                out.push_str(&format!(
                    ",\"base_delay_ps\":{},\"corners\":[",
                    num(*base_delay_ps)
                ));
                for (i, c) in corners.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",\"weight\":{},\"delay_scale\":{},\"rate_scale\":{}}}",
                        escape(&c.name),
                        num(c.weight),
                        num(c.delay_scale),
                        num(c.rate_scale),
                    ));
                }
                out.push(']');
            }
        }
        out.push('}');
    }
}

impl Corner {
    fn from_json(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        let mut f = Fields::new(v, path)?;
        let c = Self {
            name: want_str(f.req("name")?, f.at("name"))?,
            weight: want_f64(f.req("weight")?, f.at("weight"))?,
            delay_scale: want_f64(f.req("delay_scale")?, f.at("delay_scale"))?,
            rate_scale: want_f64(f.req("rate_scale")?, f.at("rate_scale"))?,
        };
        f.finish()?;
        Ok(c)
    }

    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(invalid(format!("{path}.name"), "must not be empty"));
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(invalid(format!("{path}.weight"), "must be positive"));
        }
        if !(self.delay_scale.is_finite() && self.delay_scale > 0.0) {
            return Err(invalid(format!("{path}.delay_scale"), "must be positive"));
        }
        if !(self.rate_scale.is_finite() && self.rate_scale > 0.0) {
            return Err(invalid(format!("{path}.rate_scale"), "must be positive"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        r#"{
            "name": "test-pack",
            "description": "a test",
            "seed": 42,
            "epochs": 12,
            "epoch_hours": 730.0,
            "shard_size": 256,
            "fail_threshold_mv": 50.0,
            "workload": {"trace": [0.9, 0.6, 0.3]},
            "maintenance": {"policy": "invert", "interval_epochs": 4, "recovery_bias_v": 0.3},
            "blocks": [
                {"model": "sram-decoder", "count": 1024, "vdd_v": 0.95,
                 "temperature_c": 85.0, "variability": 0.08, "skew": 1.1},
                {"model": "weight-memory", "count": 512, "vdd_v": 0.9,
                 "temperature_c": 75.0, "variability": 0.1},
                {"model": "aged-multiplier", "count": 256, "vdd_v": 1.0,
                 "temperature_c": 95.0, "variability": 0.05, "base_delay_ps": 800.0,
                 "corners": [
                    {"name": "slow", "weight": 0.2, "delay_scale": 1.15, "rate_scale": 1.3},
                    {"name": "typical", "weight": 0.8, "delay_scale": 1.0, "rate_scale": 1.0}
                 ]}
            ]
        }"#
        .to_string()
    }

    #[test]
    fn parses_validates_and_round_trips() {
        let pack = ScenarioPack::load(&sample()).unwrap();
        assert_eq!(pack.name, "test-pack");
        assert_eq!(pack.total_elements(), 1024 + 512 + 256);
        let encoded = pack.to_json();
        let again = ScenarioPack::load(&encoded).unwrap();
        assert_eq!(pack, again);
        assert_eq!(pack.fingerprint(), again.fingerprint());
        assert_eq!(encoded, again.to_json());
    }

    #[test]
    fn rejects_unknown_and_missing_fields() {
        let doc = sample().replace("\"seed\": 42", "\"seed\": 42, \"extra\": 1");
        match ScenarioPack::parse(&doc) {
            Err(ScenarioError::Schema { field, .. }) => assert_eq!(field, "extra"),
            other => panic!("expected Schema, got {other:?}"),
        }
        let doc = sample().replace("\"seed\": 42,", "");
        assert!(matches!(
            ScenarioPack::parse(&doc),
            Err(ScenarioError::Schema { .. })
        ));
        assert!(matches!(
            ScenarioPack::parse("{not json"),
            Err(ScenarioError::Json(_))
        ));
    }

    #[test]
    fn rejects_semantically_invalid_packs() {
        let mut pack = ScenarioPack::load(&sample()).unwrap();
        pack.epochs = 0;
        assert!(matches!(
            pack.validate(),
            Err(ScenarioError::Invalid { ref field, .. }) if field == "epochs"
        ));
        let mut pack = ScenarioPack::load(&sample()).unwrap();
        pack.workload.trace[1] = 1.5;
        assert!(pack.validate().is_err());
        let mut pack = ScenarioPack::load(&sample()).unwrap();
        pack.blocks[0].temperature_c = 400.0;
        assert!(pack.validate().is_err());
        let mut pack = ScenarioPack::load(&sample()).unwrap();
        pack.name = "Has Spaces".into();
        assert!(pack.validate().is_err());
    }

    #[test]
    fn epoch_ctx_resolves_the_policy() {
        let pack = ScenarioPack::load(&sample()).unwrap();
        let plain = pack.epoch_ctx(1);
        assert!(!plain.inverted && !plain.gated && !plain.active_recovery);
        assert_eq!(plain.activity, 0.9);
        let maint = pack.epoch_ctx(4);
        assert!(maint.inverted && !maint.gated && maint.active_recovery);
        // Trace cycles.
        assert_eq!(pack.epoch_ctx(5).activity, 0.6);
    }
}
