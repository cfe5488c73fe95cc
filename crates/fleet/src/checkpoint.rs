//! Versioned, hand-rolled checkpointing for fleet runs (the build has no
//! serde; the format is a few dozen lines of explicit little-endian
//! fields, which is also what makes it auditable).
//!
//! Layout, all integers little-endian:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `"DHFL"` |
//! | 4      | 1    | format version (currently 3) |
//! | 5      | 8    | config fingerprint ([`crate::FleetConfig::fingerprint`]) |
//! | 13     | 8    | shard cursor (shards fully folded) |
//! | 21     | 8    | payload length `L` |
//! | 29     | `L`  | payload (see below) |
//! | 29+L   | 8    | FNV-1a checksum of bytes `0..29+L` |
//!
//! The **version 3** payload is a sequence of independently checksummed
//! slabs — each a contiguous little-endian dump appended with one
//! `extend_from_slice`-class memcpy, no per-field framing:
//!
//! | field | size | |
//! |-------|------|---|
//! | slab count | 8 | currently 2 |
//! | per slab: tag | 8 | [`SLAB_ACC`] / [`SLAB_DEGRADED`] |
//! | per slab: body length `B` | 8 | |
//! | per slab: body | `B` | the slab's linear state dump |
//! | per slab: checksum | 8 | FNV-1a of the body alone |
//!
//! The per-slab checksums localize corruption (a flipped bit names the
//! slab it hit, under the whole-file checksum that already rejects the
//! file) and let the writer assemble the payload as straight memcpys of
//! pre-encoded state.
//!
//! **Version 2** (the legacy format this build still resumes from) holds
//! the same two sections bare: [`FleetAccumulator`] state immediately
//! followed by the degraded-state section ([`DegradedReport::encode`]),
//! no slab framing. The degraded-state section carries retry and
//! rejected-sample counts, quarantined shards (with their panic
//! messages), sensor incidents, and checkpoint fallbacks, so a
//! kill/resume cycle cannot launder a degraded run into a clean one — the
//! quarantine record survives the process.
//!
//! Snapshots land through [`dh_fault::CheckpointStore`]: fsynced atomic
//! writes into rotated generations, with newest-valid fallback on resume
//! ([`crate::FleetRun::resume_from_store`]), so one corrupted write costs
//! a replay window, never the run.

use dh_fault::wire::{fnv1a, put_u64, take_u64, FNV_OFFSET};
use dh_fault::{Checkpoint, DegradedReport};

use crate::error::FleetError;
use crate::sim::FleetAccumulator;

/// File magic.
pub const MAGIC: [u8; 4] = *b"DHFL";
/// Format version this build writes.
pub const VERSION: u8 = 3;
/// Oldest format version this build still resumes from.
pub const LEGACY_VERSION: u8 = 2;

/// Slab tag: the [`FleetAccumulator`] linear dump.
const SLAB_ACC: u64 = 1;
/// Slab tag: the degraded-state section.
const SLAB_DEGRADED: u64 = 2;

/// A point-in-time image of a fleet run: everything needed to continue
/// folding shards as if the process had never died.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Fingerprint of the config that produced this state.
    pub config_fingerprint: u64,
    /// Shards fully folded into the aggregates.
    pub cursor: u64,
    /// The streaming aggregate state.
    pub(crate) acc: FleetAccumulator,
    /// Everything the run has survived so far (empty for a clean run).
    pub degraded: DegradedReport,
}

/// Appends one v3 slab to `buf`: tag, body length (patched after the
/// fill), the body itself, and the FNV-1a checksum of the body alone.
fn encode_slab(buf: &mut Vec<u8>, tag: u64, fill: impl FnOnce(&mut Vec<u8>)) {
    put_u64(buf, tag);
    let len_at = buf.len();
    put_u64(buf, 0); // body length, patched below
    let start = buf.len();
    fill(buf);
    let body_len = (buf.len() - start) as u64;
    buf[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
    let checksum = fnv1a(FNV_OFFSET, &buf[start..]);
    put_u64(buf, checksum);
}

/// Splits the next v3 slab off the front of `bytes`, verifying its body
/// checksum, and returns `(tag, body)`.
fn take_slab<'a>(bytes: &mut &'a [u8]) -> Result<(u64, &'a [u8]), FleetError> {
    let tag = take_u64(bytes, "slab.tag")?;
    let body_len = take_u64(bytes, "slab.len")? as usize;
    if bytes.len() < body_len + 8 {
        return Err(FleetError::Corrupt(format!(
            "slab {tag} claims {body_len} bytes but only {} remain",
            bytes.len().saturating_sub(8)
        )));
    }
    let (body, rest) = bytes.split_at(body_len);
    *bytes = rest;
    let stored = take_u64(bytes, "slab.checksum")?;
    let computed = fnv1a(FNV_OFFSET, body);
    if stored != computed {
        return Err(FleetError::Corrupt(format!(
            "slab {tag} checksum {stored:#018x} does not match body {computed:#018x}"
        )));
    }
    Ok((tag, body))
}

impl Snapshot {
    /// Serializes to the wire format described in the module docs.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// [`Snapshot::encode`] into a caller-owned buffer (cleared first),
    /// so a long run's checkpoint cadence reuses one allocation. The
    /// payload is encoded in place and the length field patched
    /// afterwards — no temporary payload vector either.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        put_u64(buf, self.config_fingerprint);
        put_u64(buf, self.cursor);
        let len_at = buf.len();
        put_u64(buf, 0); // payload length, patched below
        let payload_start = buf.len();
        put_u64(buf, 2); // slab count
        encode_slab(buf, SLAB_ACC, |b| self.acc.encode(b));
        encode_slab(buf, SLAB_DEGRADED, |b| self.degraded.encode(b));
        let payload_len = (buf.len() - payload_start) as u64;
        buf[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a(FNV_OFFSET, buf);
        put_u64(buf, checksum);
    }

    /// Parses and fully validates the wire format.
    ///
    /// # Errors
    ///
    /// [`FleetError::Corrupt`] on bad magic, truncation, or checksum
    /// mismatch; [`FleetError::Version`] on a format this build cannot
    /// read.
    pub fn decode(bytes: &[u8]) -> Result<Self, FleetError> {
        if bytes.len() < 37 {
            return Err(FleetError::Corrupt(format!(
                "{} bytes is shorter than the fixed header",
                bytes.len()
            )));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut tail = tail;
        let stored = take_u64(&mut tail, "checksum")?;
        let computed = fnv1a(FNV_OFFSET, body);
        if stored != computed {
            return Err(FleetError::Corrupt(format!(
                "checksum {stored:#018x} does not match contents {computed:#018x}"
            )));
        }
        if body[..4] != MAGIC {
            return Err(FleetError::Corrupt(format!(
                "bad magic {:02x?}",
                &body[..4]
            )));
        }
        let version = body[4];
        if version != VERSION && version != LEGACY_VERSION {
            return Err(FleetError::Version {
                found: version,
                expected: VERSION,
            });
        }
        let mut view = &body[5..];
        let config_fingerprint = take_u64(&mut view, "config fingerprint")?;
        let cursor = take_u64(&mut view, "cursor")?;
        let payload_len = take_u64(&mut view, "payload length")? as usize;
        if view.len() != payload_len {
            return Err(FleetError::Corrupt(format!(
                "payload length {payload_len} but {} bytes present",
                view.len()
            )));
        }
        let (acc, degraded) = if version == LEGACY_VERSION {
            // v2: the two sections bare, back to back, no slab framing.
            (
                FleetAccumulator::decode(&mut view)?,
                DegradedReport::decode(&mut view)?,
            )
        } else {
            let count = take_u64(&mut view, "slab count")?;
            let mut acc = None;
            let mut degraded = None;
            for _ in 0..count {
                let (tag, mut slab) = take_slab(&mut view)?;
                let taken = match tag {
                    SLAB_ACC if acc.is_none() => {
                        acc = Some(FleetAccumulator::decode(&mut slab)?);
                        true
                    }
                    SLAB_DEGRADED if degraded.is_none() => {
                        degraded = Some(DegradedReport::decode(&mut slab)?);
                        true
                    }
                    _ => false,
                };
                if !taken {
                    return Err(FleetError::Corrupt(format!(
                        "unexpected or duplicate slab tag {tag}"
                    )));
                }
                if !slab.is_empty() {
                    return Err(FleetError::Corrupt(format!(
                        "{} trailing bytes in slab {tag}",
                        slab.len()
                    )));
                }
            }
            match (acc, degraded) {
                (Some(a), Some(d)) => (a, d),
                _ => {
                    return Err(FleetError::Corrupt(
                        "v3 payload is missing a required slab".into(),
                    ));
                }
            }
        };
        if !view.is_empty() {
            return Err(FleetError::Corrupt(format!(
                "{} trailing payload bytes",
                view.len()
            )));
        }
        Ok(Self {
            config_fingerprint,
            cursor,
            acc,
            degraded,
        })
    }
}

impl Checkpoint for Snapshot {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        Snapshot::encode_into(self, buf);
    }
}

#[cfg(test)]
mod tests {
    use dh_fault::{DiskFaultKind, DiskIncident, SensorFaultKind, TempDir};

    use super::*;
    use crate::sim::{FleetConfig, FleetRun};

    fn snapshot_after_one_step() -> (FleetConfig, Snapshot) {
        let config = FleetConfig {
            devices: 64,
            years: 0.2,
            shard_size: 32,
            group_size: 16,
            ..FleetConfig::default()
        };
        let mut run = FleetRun::new(config.clone()).unwrap();
        run.step_supervised(1, None, &dh_exec::RetryPolicy::immediate(1));
        (config, run.snapshot())
    }

    /// Re-computes the whole-file checksum after a deliberate edit.
    fn refix_checksum(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let sum = fnv1a(FNV_OFFSET, &bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn snapshots_round_trip_bit_exactly() {
        let (_config, mut snap) = snapshot_after_one_step();
        // Populate the degraded section so the round trip covers it.
        snap.degraded.retries = 3;
        snap.degraded.quarantined.push(dh_fault::ShardFailure {
            shard: 1,
            attempts: 3,
            error: "injected fault".to_string(),
        });
        snap.degraded
            .sensor_incidents
            .push(dh_fault::SensorIncident {
                chip: 9,
                kind: SensorFaultKind::Noisy(8.0),
                epoch: 4,
            });
        snap.degraded
            .checkpoint_fallbacks
            .push(dh_fault::CheckpointFallback {
                generation: 0,
                reason: "checksum mismatch".to_string(),
            });
        snap.degraded.disk_incidents.push(DiskIncident {
            kind: DiskFaultKind::TornWrite,
            write_index: 4,
        });
        snap.degraded.retention_trims = 2;
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.cursor, snap.cursor);
        assert_eq!(back.config_fingerprint, snap.config_fingerprint);
        assert_eq!(back.acc, snap.acc);
        assert_eq!(back.degraded, snap.degraded);
        // Re-encoding is byte-identical: the format is canonical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let (_config, snap) = snapshot_after_one_step();
        let bytes = snap.encode();

        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            Snapshot::decode(&flipped),
            Err(FleetError::Corrupt(_))
        ));

        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 5);
        assert!(Snapshot::decode(&truncated).is_err());

        let mut wrong_version = bytes.clone();
        wrong_version[4] = VERSION + 1;
        // Fix the checksum so only the version differs.
        refix_checksum(&mut wrong_version);
        assert!(matches!(
            Snapshot::decode(&wrong_version),
            Err(FleetError::Version { found, expected })
                if found == VERSION + 1 && expected == VERSION
        ));
    }

    /// Encodes `snap` in the legacy v2 layout (bare sections, no slabs).
    fn encode_v2(snap: &Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(LEGACY_VERSION);
        put_u64(&mut buf, snap.config_fingerprint);
        put_u64(&mut buf, snap.cursor);
        let len_at = buf.len();
        put_u64(&mut buf, 0);
        let start = buf.len();
        snap.acc.encode(&mut buf);
        snap.degraded.encode(&mut buf);
        let payload_len = (buf.len() - start) as u64;
        buf[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
        put_u64(&mut buf, 0);
        refix_checksum(&mut buf);
        buf
    }

    #[test]
    fn legacy_v2_snapshots_still_decode() {
        let (_config, mut snap) = snapshot_after_one_step();
        snap.degraded.retries = 2;
        snap.degraded
            .sensor_incidents
            .push(dh_fault::SensorIncident {
                chip: 3,
                kind: SensorFaultKind::Dropped,
                epoch: 7,
            });
        let bytes = encode_v2(&snap);
        assert_eq!(bytes[4], LEGACY_VERSION);
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.cursor, snap.cursor);
        assert_eq!(back.config_fingerprint, snap.config_fingerprint);
        assert_eq!(back.acc, snap.acc);
        assert_eq!(back.degraded, snap.degraded);
        // Re-encoding upgrades to the current version.
        assert_eq!(back.encode()[4], VERSION);
        assert_eq!(back.encode(), snap.encode());
    }

    #[test]
    fn slab_corruption_is_detected_under_a_fixed_file_checksum() {
        let (_config, snap) = snapshot_after_one_step();
        let mut bytes = snap.encode();
        // Flip one bit inside the first slab body (header is 29 bytes,
        // then slab count, tag, and body length precede the body), then
        // re-fix the *file* checksum so only the slab checksum can catch
        // it.
        bytes[29 + 24 + 4] ^= 0x10;
        refix_checksum(&mut bytes);
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(
            matches!(&err, FleetError::Corrupt(m) if m.contains("slab")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn files_round_trip_and_missing_files_are_none() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = TempDir::new("fleet-ckpt-single");
        let store = dh_fault::CheckpointStore::new(dir.join("snap.dhfl"), 1);
        let bytes = store.write(&snap).unwrap();
        assert_eq!(bytes, snap.encode().len() as u64);
        let (back, fallbacks) = store.read_newest_valid(Snapshot::decode);
        assert_eq!(back.unwrap().acc, snap.acc);
        assert!(fallbacks.is_empty());
        std::fs::remove_file(store.base_path()).unwrap();
        assert!(store.read_newest_valid(Snapshot::decode).0.is_none());
    }

    #[test]
    fn resume_rejects_a_foreign_config() {
        let (config, snap) = snapshot_after_one_step();
        let mut other = config;
        other.seed += 1;
        assert!(matches!(
            FleetRun::resume(other, snap),
            Err(FleetError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let (_config, mut snap) = snapshot_after_one_step();
        let mut buf = Vec::new();
        snap.encode_into(&mut buf);
        assert_eq!(buf, snap.encode());
        let capacity = buf.capacity();
        // A second encode of a slightly-advanced snapshot reuses the
        // allocation (same payload size → no growth).
        snap.cursor += 1;
        snap.encode_into(&mut buf);
        assert_eq!(buf.capacity(), capacity);
        assert_eq!(buf, snap.encode());
    }

    #[test]
    fn injected_writes_corrupt_exactly_the_planned_generations() {
        let (_config, snap) = snapshot_after_one_step();
        let dir = TempDir::new("fleet-ckpt-inject");
        let store = dh_fault::CheckpointStore::new(dir.join("snap.dhfl"), 2);
        let plan = dh_fault::FaultPlan::parse("ckpt-flip=2", 5).unwrap();
        let newest = || Snapshot::decode(&std::fs::read(store.base_path()).unwrap());
        store.write_bytes(&snap.encode(), Some(&plan), 0).unwrap();
        assert!(newest().is_ok());
        store.write_bytes(&snap.encode(), Some(&plan), 1).unwrap();
        assert!(newest().is_err(), "write 1 is flipped");
        // The previous (clean) generation still resumes the run.
        let (found, fallbacks) = store.read_newest_valid(Snapshot::decode);
        assert!(found.is_some());
        assert_eq!(fallbacks.len(), 1);
    }

    #[test]
    fn degraded_sections_without_disk_fields_still_decode() {
        // Checkpoints written before disk-fault tracking end their
        // degraded section at the fallback list.
        let mut buf = Vec::new();
        put_u64(&mut buf, 2); // retries
        put_u64(&mut buf, 1); // rejected samples
        put_u64(&mut buf, 0); // quarantined
        put_u64(&mut buf, 0); // sensor incidents
        put_u64(&mut buf, 0); // checkpoint fallbacks
        let mut view = buf.as_slice();
        let d = DegradedReport::decode(&mut view).unwrap();
        assert!(view.is_empty());
        assert_eq!(d.retries, 2);
        assert_eq!(d.rejected_samples, 1);
        assert!(d.disk_incidents.is_empty());
        assert_eq!(d.retention_trims, 0);
    }
}
