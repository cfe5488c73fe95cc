//! The structured record of everything a supervised run survived.

use core::fmt;

use crate::wire::{fnv1a, fnv1a_u64, put_str, put_u64, take_str, take_u64, WireError, FNV_OFFSET};

/// The ways an aging sensor misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFaultKind {
    /// The reading latches at its current value and never moves again
    /// (a ring-oscillator monitor that stopped toggling).
    Stuck,
    /// The reading goes away entirely (dead monitor, no sample).
    Dropped,
    /// The reading is still live but its noise is amplified by this
    /// factor.
    Noisy(f64),
}

impl SensorFaultKind {
    /// Stable wire discriminant (checkpoints persist incidents).
    pub fn discriminant(self) -> u8 {
        match self {
            Self::Stuck => 0,
            Self::Dropped => 1,
            Self::Noisy(_) => 2,
        }
    }

    /// The noise-amplification payload (0 for the other kinds).
    pub fn payload(self) -> f64 {
        match self {
            Self::Noisy(factor) => factor,
            _ => 0.0,
        }
    }

    /// Rebuilds a kind from its wire pair. Returns `None` for an
    /// unknown discriminant.
    pub fn from_wire(discriminant: u8, payload: f64) -> Option<Self> {
        match discriminant {
            0 => Some(Self::Stuck),
            1 => Some(Self::Dropped),
            2 => Some(Self::Noisy(payload)),
            _ => None,
        }
    }
}

impl fmt::Display for SensorFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Stuck => write!(f, "stuck"),
            Self::Dropped => write!(f, "dropped"),
            Self::Noisy(factor) => write!(f, "noisy(x{factor})"),
        }
    }
}

/// The ways a checkpoint write can fail at the disk layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The write failed with ENOSPC: nothing reached the disk and the
    /// previous generation survives.
    Enospc,
    /// Only a prefix of the file reached the disk (power loss mid-write
    /// with no fsync barrier).
    TornWrite,
    /// The post-write fsync failed: the temp file is abandoned and the
    /// previous generation survives.
    FsyncFail,
    /// The write stalled long enough to trip slow-disk watchdogs but
    /// eventually completed intact.
    SlowWrite,
}

impl DiskFaultKind {
    /// Stable wire discriminant (checkpoints persist incidents).
    pub fn discriminant(self) -> u8 {
        match self {
            Self::Enospc => 0,
            Self::TornWrite => 1,
            Self::FsyncFail => 2,
            Self::SlowWrite => 3,
        }
    }

    /// Rebuilds a kind from its wire discriminant. Returns `None` for
    /// an unknown discriminant.
    pub fn from_wire(discriminant: u8) -> Option<Self> {
        match discriminant {
            0 => Some(Self::Enospc),
            1 => Some(Self::TornWrite),
            2 => Some(Self::FsyncFail),
            3 => Some(Self::SlowWrite),
            _ => None,
        }
    }
}

impl fmt::Display for DiskFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Enospc => write!(f, "enospc"),
            Self::TornWrite => write!(f, "torn write"),
            Self::FsyncFail => write!(f, "fsync failed"),
            Self::SlowWrite => write!(f, "slow write"),
        }
    }
}

/// A checkpoint write that hit a disk fault and was contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskIncident {
    /// What the disk did.
    pub kind: DiskFaultKind,
    /// Which write (0-based, counted per process invocation) it hit.
    pub write_index: u64,
}

/// A shard that exhausted its retry budget and was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The shard's index in the run.
    pub shard: u64,
    /// How many attempts were made before giving up.
    pub attempts: u32,
    /// The panic (or error) message from the final attempt.
    pub error: String,
}

/// A sensor the simulation detected as bad and stopped trusting.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorIncident {
    /// Global chip (fleet layer) or core (sched layer) index.
    pub chip: u64,
    /// What the sensor was doing.
    pub kind: SensorFaultKind,
    /// The epoch at which staleness detection flagged it.
    pub epoch: u64,
}

/// A checkpoint generation that failed validation during resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFallback {
    /// Which generation was skipped (0 = newest).
    pub generation: u64,
    /// Why it was rejected.
    pub reason: String,
}

/// What a supervised run survived: quarantined shards, retries that
/// eventually succeeded, rejected non-finite samples, distrusted
/// sensors, and checkpoint generations that were skipped during resume.
///
/// An all-empty report (`!is_degraded()`) certifies the run took every
/// fast path and its fleet aggregate is bit-identical to an
/// unsupervised run of the same config.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradedReport {
    /// Shards dropped from the aggregate after exhausting retries.
    pub quarantined: Vec<ShardFailure>,
    /// Task attempts that panicked and were re-executed (whether or not
    /// the shard eventually succeeded).
    pub retries: u64,
    /// Chip samples rejected by the non-finite guards.
    pub rejected_samples: u64,
    /// Sensors flagged by staleness detection and degraded to the
    /// conservative policy.
    pub sensor_incidents: Vec<SensorIncident>,
    /// Checkpoint generations skipped on resume.
    pub checkpoint_fallbacks: Vec<CheckpointFallback>,
    /// Checkpoint writes that hit a disk fault and were contained
    /// (previous generation kept, retention trimmed, or write torn and
    /// left for resume-time fallback).
    pub disk_incidents: Vec<DiskIncident>,
    /// Old checkpoint generations deleted to relieve disk pressure.
    pub retention_trims: u64,
}

impl DegradedReport {
    /// True when anything at all went wrong (or was injected).
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
            || self.retries > 0
            || self.rejected_samples > 0
            || !self.sensor_incidents.is_empty()
            || !self.checkpoint_fallbacks.is_empty()
            || !self.disk_incidents.is_empty()
            || self.retention_trims > 0
    }

    /// Folds another report into this one (used when a resumed run
    /// merges the persisted degraded state with fresh incidents).
    pub fn absorb(&mut self, other: DegradedReport) {
        self.quarantined.extend(other.quarantined);
        self.retries += other.retries;
        self.rejected_samples += other.rejected_samples;
        self.sensor_incidents.extend(other.sensor_incidents);
        self.checkpoint_fallbacks.extend(other.checkpoint_fallbacks);
        self.disk_incidents.extend(other.disk_incidents);
        self.retention_trims += other.retention_trims;
    }

    /// A stable FNV-1a fingerprint over every field — the golden value
    /// the CI chaos job pins. Strings hash by their bytes, floats by
    /// their bit patterns, so equal fingerprints mean equal reports.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, b"dh-degraded-report-v1");
        h = fnv1a_u64(h, self.quarantined.len() as u64);
        for q in &self.quarantined {
            h = fnv1a_u64(h, q.shard);
            h = fnv1a_u64(h, u64::from(q.attempts));
            h = fnv1a(h, q.error.as_bytes());
        }
        h = fnv1a_u64(h, self.retries);
        h = fnv1a_u64(h, self.rejected_samples);
        h = fnv1a_u64(h, self.sensor_incidents.len() as u64);
        for s in &self.sensor_incidents {
            h = fnv1a_u64(h, s.chip);
            h = fnv1a_u64(h, u64::from(s.kind.discriminant()));
            h = fnv1a_u64(h, s.kind.payload().to_bits());
            h = fnv1a_u64(h, s.epoch);
        }
        h = fnv1a_u64(h, self.checkpoint_fallbacks.len() as u64);
        for c in &self.checkpoint_fallbacks {
            h = fnv1a_u64(h, c.generation);
            h = fnv1a(h, c.reason.as_bytes());
        }
        h = fnv1a_u64(h, self.disk_incidents.len() as u64);
        for d in &self.disk_incidents {
            h = fnv1a_u64(h, u64::from(d.kind.discriminant()));
            h = fnv1a_u64(h, d.write_index);
        }
        h = fnv1a_u64(h, self.retention_trims);
        h
    }

    /// Appends the report as the degraded-state section every checkpoint
    /// format embeds, so a kill/resume cycle cannot launder a degraded
    /// run into a clean one.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.retries);
        put_u64(buf, self.rejected_samples);
        put_u64(buf, self.quarantined.len() as u64);
        for q in &self.quarantined {
            put_u64(buf, q.shard);
            put_u64(buf, u64::from(q.attempts));
            put_str(buf, &q.error);
        }
        put_u64(buf, self.sensor_incidents.len() as u64);
        for s in &self.sensor_incidents {
            put_u64(buf, s.chip);
            put_u64(buf, u64::from(s.kind.discriminant()));
            put_u64(buf, s.kind.payload().to_bits());
            put_u64(buf, s.epoch);
        }
        put_u64(buf, self.checkpoint_fallbacks.len() as u64);
        for c in &self.checkpoint_fallbacks {
            put_u64(buf, c.generation);
            put_str(buf, &c.reason);
        }
        put_u64(buf, self.disk_incidents.len() as u64);
        for i in &self.disk_incidents {
            put_u64(buf, u64::from(i.kind.discriminant()));
            put_u64(buf, i.write_index);
        }
        put_u64(buf, self.retention_trims);
    }

    /// Reads a section written by [`DegradedReport::encode`] back from
    /// the front of `bytes`. Sections written before disk-fault tracking
    /// end after the fallback list; their disk fields read as empty.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or an unknown fault discriminant.
    pub fn decode(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let mut d = Self {
            retries: take_u64(bytes, "degraded.retries")?,
            rejected_samples: take_u64(bytes, "degraded.rejected")?,
            ..Self::default()
        };
        for _ in 0..take_u64(bytes, "degraded.quarantined.len")? {
            d.quarantined.push(ShardFailure {
                shard: take_u64(bytes, "degraded.quarantined.shard")?,
                attempts: take_u64(bytes, "degraded.quarantined.attempts")? as u32,
                error: take_str(bytes, "degraded.quarantined.error")?,
            });
        }
        for _ in 0..take_u64(bytes, "degraded.incidents.len")? {
            let chip = take_u64(bytes, "degraded.incidents.chip")?;
            let disc = take_u64(bytes, "degraded.incidents.kind")?;
            let payload = f64::from_bits(take_u64(bytes, "degraded.incidents.payload")?);
            let epoch = take_u64(bytes, "degraded.incidents.epoch")?;
            let kind = SensorFaultKind::from_wire(disc as u8, payload)
                .ok_or_else(|| WireError(format!("unknown sensor-fault discriminant {disc}")))?;
            d.sensor_incidents
                .push(SensorIncident { chip, kind, epoch });
        }
        for _ in 0..take_u64(bytes, "degraded.fallbacks.len")? {
            d.checkpoint_fallbacks.push(CheckpointFallback {
                generation: take_u64(bytes, "degraded.fallbacks.generation")?,
                reason: take_str(bytes, "degraded.fallbacks.reason")?,
            });
        }
        if bytes.is_empty() {
            return Ok(d);
        }
        for _ in 0..take_u64(bytes, "degraded.disk.len")? {
            let disc = take_u64(bytes, "degraded.disk.kind")?;
            let write_index = take_u64(bytes, "degraded.disk.write_index")?;
            let kind = DiskFaultKind::from_wire(disc as u8)
                .ok_or_else(|| WireError(format!("unknown disk-fault discriminant {disc}")))?;
            d.disk_incidents.push(DiskIncident { kind, write_index });
        }
        d.retention_trims = take_u64(bytes, "degraded.trims")?;
        Ok(d)
    }

    /// Renders the report as the human-readable block the bench CLI and
    /// chaos CI print.
    pub fn render(&self) -> String {
        if !self.is_degraded() {
            return "degraded report: clean run (no faults observed)".to_string();
        }
        let mut out = String::from("degraded report:\n");
        out.push_str(&format!(
            "  quarantined shards : {}\n",
            self.quarantined.len()
        ));
        for q in &self.quarantined {
            out.push_str(&format!(
                "    shard {:>6}  after {} attempts: {}\n",
                q.shard, q.attempts, q.error
            ));
        }
        out.push_str(&format!("  retried attempts   : {}\n", self.retries));
        out.push_str(&format!(
            "  rejected samples   : {}\n",
            self.rejected_samples
        ));
        out.push_str(&format!(
            "  sensor incidents   : {}\n",
            self.sensor_incidents.len()
        ));
        for s in &self.sensor_incidents {
            out.push_str(&format!(
                "    chip {:>7}  {} (flagged at epoch {})\n",
                s.chip, s.kind, s.epoch
            ));
        }
        out.push_str(&format!(
            "  ckpt fallbacks     : {}\n",
            self.checkpoint_fallbacks.len()
        ));
        for c in &self.checkpoint_fallbacks {
            out.push_str(&format!("    generation {}  {}\n", c.generation, c.reason));
        }
        out.push_str(&format!(
            "  disk incidents     : {}\n",
            self.disk_incidents.len()
        ));
        for d in &self.disk_incidents {
            out.push_str(&format!("    write {:>6}  {}\n", d.write_index, d.kind));
        }
        out.push_str(&format!(
            "  retention trims    : {}\n",
            self.retention_trims
        ));
        out.push_str(&format!(
            "  fingerprint        : {:#018x}",
            self.fingerprint()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DegradedReport {
        DegradedReport {
            quarantined: vec![ShardFailure {
                shard: 4,
                attempts: 3,
                error: "injected fault: shard 4".to_string(),
            }],
            retries: 2,
            rejected_samples: 1,
            sensor_incidents: vec![SensorIncident {
                chip: 11,
                kind: SensorFaultKind::Stuck,
                epoch: 9,
            }],
            checkpoint_fallbacks: vec![CheckpointFallback {
                generation: 0,
                reason: "checksum mismatch".to_string(),
            }],
            disk_incidents: vec![DiskIncident {
                kind: DiskFaultKind::Enospc,
                write_index: 6,
            }],
            retention_trims: 1,
        }
    }

    #[test]
    fn empty_report_is_clean() {
        let r = DegradedReport::default();
        assert!(!r.is_degraded());
        assert!(r.render().contains("clean run"));
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = sample();
        assert!(base.is_degraded());
        let mut variants = vec![base.clone()];
        let mut v = base.clone();
        v.quarantined[0].shard = 5;
        variants.push(v);
        let mut v = base.clone();
        v.retries = 3;
        variants.push(v);
        let mut v = base.clone();
        v.rejected_samples = 0;
        variants.push(v);
        let mut v = base.clone();
        v.sensor_incidents[0].kind = SensorFaultKind::Noisy(8.0);
        variants.push(v);
        let mut v = base.clone();
        v.checkpoint_fallbacks[0].reason = "bad magic".to_string();
        variants.push(v);
        let mut v = base.clone();
        v.disk_incidents[0].kind = DiskFaultKind::TornWrite;
        variants.push(v);
        let mut v = base.clone();
        v.retention_trims = 2;
        variants.push(v);
        let prints: Vec<u64> = variants.iter().map(DegradedReport::fingerprint).collect();
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(prints[i], prints[j], "variants {i} and {j} collide");
            }
        }
        assert_eq!(base.fingerprint(), sample().fingerprint());
    }

    #[test]
    fn absorb_merges_counts_and_lists() {
        let mut a = sample();
        a.absorb(sample());
        assert_eq!(a.quarantined.len(), 2);
        assert_eq!(a.retries, 4);
        assert_eq!(a.rejected_samples, 2);
        assert_eq!(a.sensor_incidents.len(), 2);
        assert_eq!(a.checkpoint_fallbacks.len(), 2);
        assert_eq!(a.disk_incidents.len(), 2);
        assert_eq!(a.retention_trims, 2);
    }

    #[test]
    fn disk_kind_wire_round_trips() {
        for kind in [
            DiskFaultKind::Enospc,
            DiskFaultKind::TornWrite,
            DiskFaultKind::FsyncFail,
            DiskFaultKind::SlowWrite,
        ] {
            assert_eq!(DiskFaultKind::from_wire(kind.discriminant()), Some(kind));
        }
        assert_eq!(DiskFaultKind::from_wire(9), None);
    }

    #[test]
    fn disk_only_report_is_degraded() {
        let r = DegradedReport {
            disk_incidents: vec![DiskIncident {
                kind: DiskFaultKind::FsyncFail,
                write_index: 0,
            }],
            ..DegradedReport::default()
        };
        assert!(r.is_degraded());
        assert!(r.render().contains("fsync failed"));
    }

    #[test]
    fn sensor_kind_wire_round_trips() {
        for kind in [
            SensorFaultKind::Stuck,
            SensorFaultKind::Dropped,
            SensorFaultKind::Noisy(8.0),
        ] {
            let back = SensorFaultKind::from_wire(kind.discriminant(), kind.payload())
                .expect("known discriminant");
            assert_eq!(back, kind);
        }
        assert_eq!(SensorFaultKind::from_wire(9, 0.0), None);
    }

    #[test]
    fn render_enumerates_incidents() {
        let text = sample().render();
        assert!(text.contains("shard      4"));
        assert!(text.contains("stuck"));
        assert!(text.contains("checksum mismatch"));
        assert!(text.contains("enospc"));
        assert!(text.contains("retention trims"));
        assert!(text.contains("fingerprint"));
    }
}
