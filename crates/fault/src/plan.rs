//! The seeded plan that turns a [`FaultSpec`] into reproducible
//! injection decisions.

use rand::Rng;

use crate::report::{DiskFaultKind, SensorFaultKind};
use crate::spec::{FaultSpec, FaultSpecError};

/// Named RNG stream for per-`(shard, attempt)` panic decisions.
const PANIC_STREAM: &str = "fault/panic";
/// Named RNG stream for per-`(shard, attempt)` poisoning decisions.
const POISON_STREAM: &str = "fault/poison";
/// Named RNG stream for per-write checkpoint corruption.
const CKPT_STREAM: &str = "fault/ckpt";
/// Named RNG stream for per-chip (per-core) sensor faults.
const STUCK_STREAM: &str = "fault/stuck";
/// Named RNG stream for per-write disk faults (ENOSPC, torn writes,
/// failed fsyncs, stalls). Each write consumes three indices: `3i` for
/// the ENOSPC coin, `3i + 1` for the fsync coin, `3i + 2` for the torn
/// prefix length.
const DISK_STREAM: &str = "fault/disk";

/// The non-finite value a poisoning fault writes into a kernel output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonKind {
    /// Quiet NaN.
    Nan,
    /// Positive infinity.
    PosInf,
    /// Negative infinity.
    NegInf,
}

impl PoisonKind {
    /// The `f64` this poison writes.
    pub fn value(self) -> f64 {
        match self {
            Self::Nan => f64::NAN,
            Self::PosInf => f64::INFINITY,
            Self::NegInf => f64::NEG_INFINITY,
        }
    }
}

/// How a checkpoint write is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCorruption {
    /// One bit of the encoded file is flipped.
    BitFlip,
    /// The encoded file is cut short.
    Truncate,
}

/// What one corrupted checkpoint write does to its file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckpointDamage {
    /// Bit `bit` of byte `byte` is flipped.
    FlipBit {
        /// The byte's offset in the file.
        byte: usize,
        /// The bit within it, 0 the least significant.
        bit: u8,
    },
    /// Only the first `keep` bytes remain.
    Truncate {
        /// The bytes kept.
        keep: usize,
    },
}

/// A seeded, deterministic fault plan.
///
/// Every decision method is a pure function of the plan's seed and its
/// arguments; no internal state advances between calls. That means the
/// layers consuming a plan (pool supervisor, checkpoint store, chip
/// simulation, core scheduler) can query it from any thread in any
/// order and still inject an identical fault set run to run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
}

impl FaultPlan {
    /// Builds a plan from a parsed spec and an injection seed.
    ///
    /// The seed is independent of any simulation seed so the same chaos
    /// campaign can replay against different workloads.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        Self { spec, seed }
    }

    /// Parses `text` as a [`FaultSpec`] and builds the plan.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] when the spec string does not parse.
    pub fn parse(text: &str, seed: u64) -> Result<Self, FaultSpecError> {
        Ok(Self::new(FaultSpec::parse(text)?, seed))
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The injection seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan injects nothing (supervised paths behave
    /// exactly like unsupervised ones).
    pub fn is_noop(&self) -> bool {
        self.spec.is_empty()
    }

    /// True when the plan can fail or poison a shard step: a `panic`
    /// probability, a `kill-shard`, a `poison` probability or a
    /// `poison-chip`. Checkpoint, disk and sensor faults never touch a
    /// shard step, so an engine may step the shards of a plan without
    /// these exactly as it steps them without a plan.
    pub fn injects_shard_faults(&self) -> bool {
        let s = &self.spec;
        s.panic_probability > 0.0
            || s.kill_shard.is_some()
            || s.poison_probability > 0.0
            || s.poison_chip.is_some()
    }

    /// Mixes `(shard, attempt)` into one stream index so retries of the
    /// same shard draw fresh, but still deterministic, fault decisions.
    fn attempt_index(shard: u64, attempt: u32) -> u64 {
        shard
            .wrapping_mul(1_000_003)
            .wrapping_add(u64::from(attempt))
    }

    /// Draws a Bernoulli decision from a named stream.
    fn coin(&self, stream: &str, index: u64, probability: f64) -> bool {
        if probability <= 0.0 {
            return false;
        }
        if probability >= 1.0 {
            return true;
        }
        let mut rng = dh_units::rng::seeded_stream_rng(self.seed, stream, index);
        rng.gen::<f64>() < probability
    }

    /// Should attempt `attempt` (1-based) of `shard` panic mid-task?
    ///
    /// A `kill-shard` directive panics on every attempt; the `panic`
    /// probability is drawn fresh per `(shard, attempt)` so transient
    /// panics can succeed on retry.
    pub fn shard_panics(&self, shard: u64, attempt: u32) -> bool {
        if self.spec.kill_shard == Some(shard) {
            return true;
        }
        self.coin(
            PANIC_STREAM,
            Self::attempt_index(shard, attempt),
            self.spec.panic_probability,
        )
    }

    /// Does attempt `attempt` of `shard` poison one of its `chips`
    /// outcomes, and if so which offset with which non-finite value?
    ///
    /// Returns `None` when `chips == 0` or the draw misses. Directed
    /// poisoning (`poison-chip`) is separate — see
    /// [`FaultPlan::poisoned_chip`].
    pub fn poison(&self, shard: u64, attempt: u32, chips: u64) -> Option<(u64, PoisonKind)> {
        if chips == 0 || self.spec.poison_probability <= 0.0 {
            return None;
        }
        let mut rng = dh_units::rng::seeded_stream_rng(
            self.seed,
            POISON_STREAM,
            Self::attempt_index(shard, attempt),
        );
        if rng.gen::<f64>() >= self.spec.poison_probability {
            return None;
        }
        let offset = rng.gen_range(0..chips);
        let kind = match rng.gen_range(0..3_u8) {
            0 => PoisonKind::Nan,
            1 => PoisonKind::PosInf,
            _ => PoisonKind::NegInf,
        };
        Some((offset, kind))
    }

    /// The global chip index whose outcome is always poisoned (the
    /// `poison-chip` directive), if any.
    pub fn poisoned_chip(&self) -> Option<u64> {
        self.spec.poison_chip
    }

    /// How checkpoint write number `write_index` (0-based, counted per
    /// process invocation) is corrupted, if at all.
    ///
    /// Truncation wins when both periods land on the same write.
    pub fn checkpoint_corruption(&self, write_index: u64) -> Option<CheckpointCorruption> {
        let hits = |every: u64| every > 0 && (write_index + 1).is_multiple_of(every);
        if hits(self.spec.checkpoint_truncate_every) {
            Some(CheckpointCorruption::Truncate)
        } else if hits(self.spec.checkpoint_flip_every) {
            Some(CheckpointCorruption::BitFlip)
        } else {
            None
        }
    }

    /// What this write's corruption (if any) does to a file of `len`
    /// bytes.
    ///
    /// Bit position and truncation length are drawn from the `fault/ckpt`
    /// stream at `write_index`, so a replayed campaign damages the same
    /// bytes. An empty file takes no damage.
    pub(crate) fn checkpoint_damage(
        &self,
        write_index: u64,
        len: usize,
    ) -> Option<CheckpointDamage> {
        let kind = self.checkpoint_corruption(write_index)?;
        if len == 0 {
            return None;
        }
        let mut rng = dh_units::rng::seeded_stream_rng(self.seed, CKPT_STREAM, write_index);
        Some(match kind {
            CheckpointCorruption::BitFlip => CheckpointDamage::FlipBit {
                byte: rng.gen_range(0..len),
                bit: rng.gen_range(0..8_u8),
            },
            CheckpointCorruption::Truncate => CheckpointDamage::Truncate {
                keep: rng.gen_range(0..len),
            },
        })
    }

    /// Applies this write's [`FaultPlan::checkpoint_damage`] to the
    /// encoded bytes, returning a human-readable description of what was
    /// done.
    pub fn corrupt_checkpoint(&self, write_index: u64, bytes: &mut Vec<u8>) -> Option<String> {
        let total = bytes.len();
        match self.checkpoint_damage(write_index, total)? {
            CheckpointDamage::FlipBit { byte, bit } => {
                bytes[byte] ^= 1 << bit;
                Some(format!("flipped bit {bit} of byte {byte}/{total}"))
            }
            CheckpointDamage::Truncate { keep } => {
                bytes.truncate(keep);
                Some(format!("truncated to {keep}/{total} bytes"))
            }
        }
    }

    /// What write number `write_index` of `bytes` leaves on disk as the
    /// newest generation, worked out in memory: its corruption, then a
    /// torn write's prefix, or `None` when ENOSPC or a failed fsync lands
    /// nothing. The checkpoint store applies the same damage to the
    /// written file; this is the reference it is tested against.
    pub(crate) fn landed_bytes(&self, write_index: u64, mut bytes: Vec<u8>) -> Option<Vec<u8>> {
        self.corrupt_checkpoint(write_index, &mut bytes);
        match self.disk_fault(write_index) {
            Some(DiskFaultKind::Enospc | DiskFaultKind::FsyncFail) => return None,
            Some(DiskFaultKind::TornWrite) => {
                bytes.truncate(self.torn_length(write_index, bytes.len()));
            }
            Some(DiskFaultKind::SlowWrite) | None => {}
        }
        Some(bytes)
    }

    /// The disk fault afflicting checkpoint write number `write_index`
    /// (0-based, counted per process invocation), if any.
    ///
    /// At most one disk fault fires per write; when several directives
    /// land on the same write the most destructive wins, in the fixed
    /// order ENOSPC > torn write > failed fsync > stall. Decisions are
    /// pure functions of `(seed, write_index)`, so a replayed campaign
    /// starves the same writes.
    pub fn disk_fault(&self, write_index: u64) -> Option<DiskFaultKind> {
        let hits = |every: u64| every > 0 && (write_index + 1).is_multiple_of(every);
        let base = write_index.wrapping_mul(3);
        if self.coin(DISK_STREAM, base, self.spec.disk_full_probability) {
            Some(DiskFaultKind::Enospc)
        } else if hits(self.spec.disk_torn_every) {
            Some(DiskFaultKind::TornWrite)
        } else if self.coin(
            DISK_STREAM,
            base.wrapping_add(1),
            self.spec.disk_fsync_probability,
        ) {
            Some(DiskFaultKind::FsyncFail)
        } else if hits(self.spec.disk_slow_every) {
            Some(DiskFaultKind::SlowWrite)
        } else {
            None
        }
    }

    /// How many bytes of a torn write actually reach the disk.
    ///
    /// Draws a strict prefix (at least one byte short, possibly empty)
    /// from the `fault/disk` stream at `write_index`, so a replayed
    /// campaign tears the file at the same offset.
    pub fn torn_length(&self, write_index: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let mut rng = dh_units::rng::seeded_stream_rng(
            self.seed,
            DISK_STREAM,
            write_index.wrapping_mul(3).wrapping_add(2),
        );
        rng.gen_range(0..len)
    }

    /// The sensor fault afflicting chip (or core) `index`, if any.
    ///
    /// Plan-driven sensor faults are always [`SensorFaultKind::Stuck`] —
    /// the failure mode the paper's replica-path monitors actually
    /// exhibit when their ring oscillator latches up. Dropped and noisy
    /// faults can be injected directly at the scheduler layer.
    pub fn sensor_fault(&self, index: u64) -> Option<SensorFaultKind> {
        if self.spec.stuck_chip == Some(index)
            || self.coin(STUCK_STREAM, index, self.spec.stuck_probability)
        {
            return Some(SensorFaultKind::Stuck);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::parse(text, 99).expect("test spec parses")
    }

    #[test]
    fn decisions_are_reproducible_and_seed_dependent() {
        let a = plan("panic=0.3,poison=0.3,stuck=0.3");
        let b = plan("panic=0.3,poison=0.3,stuck=0.3");
        let c = FaultPlan::parse("panic=0.3,poison=0.3,stuck=0.3", 100).unwrap();
        let a_bits: Vec<bool> = (0..64).map(|s| a.shard_panics(s, 1)).collect();
        let b_bits: Vec<bool> = (0..64).map(|s| b.shard_panics(s, 1)).collect();
        let c_bits: Vec<bool> = (0..64).map(|s| c.shard_panics(s, 1)).collect();
        assert_eq!(a_bits, b_bits);
        assert_ne!(a_bits, c_bits, "a different seed must move the faults");
        assert_eq!(a.poison(5, 1, 16), b.poison(5, 1, 16));
        assert_eq!(a.sensor_fault(7), b.sensor_fault(7));
    }

    #[test]
    fn retries_draw_fresh_decisions() {
        let p = plan("panic=0.5");
        let per_attempt: Vec<bool> = (1..=16).map(|a| p.shard_panics(3, a)).collect();
        assert!(
            per_attempt.iter().any(|&x| x) && per_attempt.iter().any(|&x| !x),
            "attempts must not all share one fate: {per_attempt:?}"
        );
    }

    #[test]
    fn kill_shard_panics_every_attempt() {
        let p = plan("kill-shard=4");
        for attempt in 1..=8 {
            assert!(p.shard_panics(4, attempt));
        }
        assert!(!p.shard_panics(5, 1));
    }

    #[test]
    fn checkpoint_periods_select_writes() {
        let p = plan("ckpt-flip=2,ckpt-truncate=3");
        assert_eq!(p.checkpoint_corruption(0), None);
        assert_eq!(
            p.checkpoint_corruption(1),
            Some(CheckpointCorruption::BitFlip)
        );
        // Truncation wins on write 5 (hit by both periods).
        assert_eq!(
            p.checkpoint_corruption(5),
            Some(CheckpointCorruption::Truncate)
        );
    }

    #[test]
    fn corruption_damages_bytes_deterministically() {
        let p = plan("ckpt-flip=1");
        let clean: Vec<u8> = (0..64).collect();
        let mut a = clean.clone();
        let mut b = clean.clone();
        let wa = p
            .corrupt_checkpoint(0, &mut a)
            .expect("write 0 is corrupted");
        let wb = p
            .corrupt_checkpoint(0, &mut b)
            .expect("write 0 is corrupted");
        assert_eq!(a, b);
        assert_eq!(wa, wb);
        assert_ne!(a, clean);
        // Exactly one bit differs.
        let bits: u32 = a
            .iter()
            .zip(&clean)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(bits, 1);
    }

    #[test]
    fn truncation_shortens_the_file() {
        let p = plan("ckpt-truncate=1");
        let mut bytes: Vec<u8> = (0..64).collect();
        p.corrupt_checkpoint(0, &mut bytes)
            .expect("write 0 is corrupted");
        assert!(bytes.len() < 64);
    }

    #[test]
    fn noop_plan_injects_nothing() {
        let p = plan("");
        assert!(p.is_noop());
        for i in 0..32 {
            assert!(!p.shard_panics(i, 1));
            assert_eq!(p.poison(i, 1, 16), None);
            assert_eq!(p.checkpoint_corruption(i), None);
            assert_eq!(p.sensor_fault(i), None);
            assert_eq!(p.disk_fault(i), None);
        }
        assert!(!p.injects_shard_faults());
    }

    #[test]
    fn only_panic_kill_and_poison_faults_touch_shard_steps() {
        for spec in ["panic=0.1", "kill-shard=3", "poison=0.2", "poison-chip=7"] {
            assert!(plan(spec).injects_shard_faults(), "{spec}");
            assert!(plan(&format!("{spec},disk-full=0.5")).injects_shard_faults());
        }
        for spec in [
            "",
            "panic=0,poison=0",
            "ckpt-flip=2,ckpt-truncate=3",
            "stuck=0.5,stuck-chip=1",
            "disk-full=0.4,disk-torn=3,disk-fsync=0.1,disk-slow=2",
        ] {
            assert!(!plan(spec).injects_shard_faults(), "{spec:?}");
        }
    }

    #[test]
    fn disk_periods_and_coins_select_writes() {
        let p = plan("disk-torn=2,disk-slow=3");
        assert_eq!(p.disk_fault(0), None);
        assert_eq!(p.disk_fault(1), Some(DiskFaultKind::TornWrite));
        assert_eq!(p.disk_fault(2), Some(DiskFaultKind::SlowWrite));
        // Torn beats slow on write 5 (hit by both periods).
        assert_eq!(p.disk_fault(5), Some(DiskFaultKind::TornWrite));
        // ENOSPC beats a torn period on the writes its coin selects.
        let p = plan("disk-full=1,disk-torn=1");
        assert_eq!(p.disk_fault(0), Some(DiskFaultKind::Enospc));
    }

    #[test]
    fn disk_decisions_are_reproducible_and_seed_dependent() {
        let a = plan("disk-full=0.4,disk-fsync=0.4");
        let b = plan("disk-full=0.4,disk-fsync=0.4");
        let c = FaultPlan::parse("disk-full=0.4,disk-fsync=0.4", 100).unwrap();
        let a_hits: Vec<_> = (0..64).map(|i| a.disk_fault(i)).collect();
        let b_hits: Vec<_> = (0..64).map(|i| b.disk_fault(i)).collect();
        let c_hits: Vec<_> = (0..64).map(|i| c.disk_fault(i)).collect();
        assert_eq!(a_hits, b_hits);
        assert_ne!(a_hits, c_hits, "a different seed must move the faults");
        assert!(a_hits.contains(&Some(DiskFaultKind::Enospc)));
        assert!(a_hits.contains(&Some(DiskFaultKind::FsyncFail)));
    }

    #[test]
    fn torn_length_is_a_strict_prefix() {
        let p = plan("disk-torn=1");
        for i in 0..16 {
            let keep = p.torn_length(i, 64);
            assert!(keep < 64);
            assert_eq!(keep, p.torn_length(i, 64));
        }
        assert_eq!(p.torn_length(0, 0), 0);
    }

    #[test]
    fn directed_stuck_sensor() {
        let p = plan("stuck-chip=11");
        assert_eq!(p.sensor_fault(11), Some(SensorFaultKind::Stuck));
        assert_eq!(p.sensor_fault(12), None);
    }
}
