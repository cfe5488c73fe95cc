//! The scenario engine: shards a pack's block mix into columnar
//! stores, steps them epoch by epoch, and checkpoints the state.
//!
//! Determinism contract: every shard's epoch kernel touches only that
//! shard's columns, the per-epoch context is computed once from the
//! pack, and [`dh_exec::par_chunks_mut`] reassembles results in index
//! order — so the run is bit-identical at any thread count, and the
//! report fingerprint is a stable pin for CI. Checkpoints (`DHSP` v3)
//! carry only the mutable state columns plus the run's
//! [`DegradedReport`]; the constant parameter columns are rebuilt from the
//! pack, whose fingerprint the file embeds so a checkpoint cannot silently
//! resume under a different scenario. Each state column is written and
//! read as one slice, and the trailing checksum is
//! [`dh_fault::wire::checksum`], which runs at memory speed. v2 files have
//! the same layout with an FNV-1a trailer, and still resume.
//!
//! One supervised stepping path serves every surface, as in the fleet
//! engine: each window of steps is one parallel call that steps every
//! shard in place, shard-major, from a save of its state columns. Shard
//! panics, real or injected by a [`FaultPlan`], are retried and
//! quarantined, and an epoch that leaves a non-finite state value is
//! rejected. Checkpoints land through the shared
//! [`dh_fault::CheckpointStore`] ([`ScenarioCheckpointStore`]), and every
//! surface hands a [`ScenarioRun`] and a closure over its
//! [`ScenarioRun::step_into`] to [`dh_fault::drive`]. A step that writes
//! a checkpoint writes each shard's section into the write's file from
//! the window itself, so the state is never copied into a buffer.

use std::cell::RefCell;
use std::ops::RangeInclusive;

use dh_exec::{RetryPolicy, ShardError};
use dh_fault::wire::{
    checksum, fnv1a, fnv1a_u64, put_f64s, put_u64, put_u64s, take_f64s, take_u64, take_u64s,
    Checksum, FNV_OFFSET,
};
use dh_fault::{
    drive, Checkpoint, CheckpointFile, CheckpointStore, DegradedReport, FaultPlan, Run,
    SensorIncident, ShardFailure, Written,
};

use crate::error::ScenarioError;
use crate::models::{Saved, VictimStore};
use crate::pack::ScenarioPack;

/// Checkpoint magic: "DHSP" (Deep-Healing Scenario Pack state).
const MAGIC: &[u8; 4] = b"DHSP";
/// Checkpoint format version this build writes.
const VERSION: u64 = 3;
/// Oldest format version this build still resumes from: the same layout,
/// with an FNV-1a trailer in place of [`checksum`].
const LEGACY_VERSION: u64 = 2;
/// Bytes before the first shard section: the magic and five header words.
const HEADER_LEN: u64 = MAGIC.len() as u64 + 8 * 5;

/// One shard: a contiguous range of one block group's elements.
#[derive(Debug, Clone)]
struct Shard {
    group: usize,
    lo: u64,
    store: VictimStore,
}

impl Shard {
    /// The first words of the shard's DHSP section: group, lo, len.
    fn layout(&self) -> [u64; 3] {
        [self.group as u64, self.lo, self.store.len() as u64]
    }

    /// The byte length of the shard's DHSP section.
    fn section_len(&self) -> u64 {
        let (cols, failed) = self.store.state();
        8 * (3 + (cols.len() + 1) * failed.len()) as u64
    }

    /// Appends the shard's DHSP section: its layout, its state columns in
    /// order, and `failed`.
    fn encode_section(&self, buf: &mut Vec<u8>) {
        put_u64s(buf, &self.layout());
        let (cols, failed) = self.store.state();
        for col in cols {
            put_f64s(buf, col);
        }
        put_u64s(buf, failed);
    }

    /// Folds the bytes [`Shard::encode_section`] appends into `sum`, from
    /// the live columns.
    fn fold_section(&self, sum: &mut Checksum) {
        sum.update_u64s(&self.layout());
        let (cols, failed) = self.store.state();
        for col in cols {
            sum.update_f64s(col);
        }
        sum.update_u64s(failed);
    }
}

thread_local! {
    /// Each worker's save buffer, reused across shards and windows.
    static SAVED: RefCell<Saved> = RefCell::default();
    /// Each worker's buffer for a shard's DHSP section on its way to the
    /// checkpoint file.
    static SECTION: RefCell<Vec<u8>> = RefCell::default();
}

/// What one shard survived in a window: retried attempts (a failed fused
/// pass counts as one), rejected elements, and its quarantine epoch.
#[derive(Debug, Default)]
struct ShardLog {
    retries: u64,
    rejected: u64,
    quarantined: Option<(u64, ShardError)>,
}

/// What every shard of a window steps under (`shards`: the run's count).
struct Window<'a> {
    pack: &'a ScenarioPack,
    shards: usize,
    /// The plan, if it injects shard faults.
    plan: Option<&'a FaultPlan>,
    retry: &'a RetryPolicy,
}

impl Window<'_> {
    /// Steps `store`, shard `shard`, through the 1-based `epochs` in place.
    /// Without shard faults they run back to back under `catch_unwind`.
    /// With them, or when that pass panics or leaves a non-finite value,
    /// each epoch runs from its own save through
    /// [`dh_exec::run_attempts`], with the plan's faults keyed on
    /// `(epoch, shard, attempt)`.
    fn step_shard(
        &self,
        store: &mut VictimStore,
        shard: usize,
        epochs: RangeInclusive<u64>,
        saved: &mut Saved,
    ) -> ShardLog {
        let mut log = ShardLog::default();
        if self.plan.is_none() {
            store.save(saved);
            let (fused, _) = dh_exec::run_attempts(shard, &RetryPolicy::immediate(1), |_| {
                for e in epochs.clone() {
                    store.step_epoch(self.pack.epoch_ctx(e));
                }
            });
            if fused.is_ok() && store.non_finite() == 0 {
                return log;
            }
            store.restore(saved);
            log.retries = 1;
        }
        for e in epochs {
            // Epoch `e` follows `e - 1` completed ones, so the same shard
            // draws fresh fault decisions every epoch.
            let key = (e - 1) * self.shards as u64 + shard as u64;
            store.save(saved);
            let (outcome, retried) = dh_exec::run_attempts(shard, self.retry, |attempt| {
                if attempt > 1 {
                    store.restore(saved);
                }
                if self.plan.is_some_and(|p| p.shard_panics(key, attempt)) {
                    panic!("injected fault: scenario shard {shard} attempt {attempt}");
                }
                store.step_epoch(self.pack.epoch_ctx(e));
                let len = store.len() as u64;
                if let Some((offset, kind)) = self.plan.and_then(|p| p.poison(key, attempt, len)) {
                    store.state_mut().0[0][offset as usize] = kind.value();
                }
            });
            log.retries += retried;
            if let Err(failure) = outcome {
                store.restore(saved);
                log.quarantined = Some((e, failure));
                break;
            }
            let rejected = store.non_finite();
            if rejected > 0 {
                store.restore(saved);
                log.rejected += rejected as u64;
            }
        }
        log
    }
}

/// Progress of a stepped run, returned by [`ScenarioRun::step_supervised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Completed epochs.
    pub epoch: u64,
    /// Epochs the pack asks for.
    pub total_epochs: u64,
    /// Shards already stepped within the in-flight epoch.
    pub shard_cursor: usize,
    /// Total shards.
    pub shards: usize,
    /// Whether the run has integrated every epoch.
    pub done: bool,
}

/// Per-group aggregate of a [`ScenarioReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// The block model's wire name.
    pub model: String,
    /// Elements in the group.
    pub count: u64,
    /// Elements at or past the failure threshold.
    pub failed: u64,
    /// Earliest 1-based failure epoch (0 when nothing failed).
    pub first_fail_epoch: u64,
    /// Mean of the failure metric, mV.
    pub mean_metric_mv: f64,
    /// Worst failure metric, mV.
    pub max_metric_mv: f64,
}

/// The end-of-run (or mid-run) aggregate view.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Pack name.
    pub scenario: String,
    /// Completed epochs.
    pub epochs_run: u64,
    /// Per-group aggregates, in pack order.
    pub groups: Vec<GroupReport>,
    /// Order-independent-of-threading state digest: pack fingerprint
    /// folded with every state column bit, shard by shard.
    pub fingerprint: u64,
}

impl ScenarioReport {
    /// A human-readable multi-line summary (the CLI's output format).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {:?}: {} epoch(s) integrated",
            self.scenario, self.epochs_run
        );
        for (i, g) in self.groups.iter().enumerate() {
            let _ = write!(
                out,
                "  group {i} [{}]: {} elements, {} failed, \
                 mean {:.3} mV, worst {:.3} mV",
                g.model, g.count, g.failed, g.mean_metric_mv, g.max_metric_mv
            );
            if g.failed > 0 {
                let _ = write!(out, ", first failure at epoch {}", g.first_fail_epoch);
            }
            out.push('\n');
        }
        let _ = write!(out, "report fingerprint: {:#018x}", self.fingerprint);
        out
    }
}

/// A running (or resumable) scenario: the pack plus all shard state.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    pack: ScenarioPack,
    pack_fp: u64,
    shards: Vec<Shard>,
    epoch: u64,
    shard_cursor: usize,
    /// Everything the run has survived (empty for a clean run). Persisted
    /// in `DHSP` checkpoints so a kill/resume cycle cannot launder a
    /// degraded run into a clean one. Its quarantined shards stay frozen
    /// at their last good state.
    pub degraded: DegradedReport,
}

impl ScenarioRun {
    /// Builds the fresh (epoch-0) run for a validated pack.
    pub fn new(pack: ScenarioPack) -> Self {
        let pack_fp = pack.fingerprint();
        let mut shards = Vec::new();
        for (group, block) in pack.blocks.iter().enumerate() {
            let (ctx, trace) = (pack.group_ctx(group), &pack.workload.trace);
            let mut lo = 0u64;
            while lo < block.count {
                let len = (block.count - lo).min(pack.shard_size) as usize;
                shards.push(Shard {
                    group,
                    lo,
                    store: VictimStore::build(&block.model, ctx, trace, lo, len),
                });
                lo += len as u64;
            }
        }
        #[cfg(test)]
        tests::break_kernel(&mut shards);
        Self {
            pack,
            pack_fp,
            shards,
            epoch: 0,
            shard_cursor: 0,
            degraded: DegradedReport::default(),
        }
    }

    /// The pack this run integrates.
    pub fn pack(&self) -> &ScenarioPack {
        &self.pack
    }

    /// The pack fingerprint (checkpoint identity).
    pub fn pack_fingerprint(&self) -> u64 {
        self.pack_fp
    }

    /// Current progress.
    pub fn progress(&self) -> Progress {
        Progress {
            epoch: self.epoch,
            total_epochs: self.pack.epochs,
            shard_cursor: self.shard_cursor,
            shards: self.shards.len(),
            done: self.epoch >= self.pack.epochs,
        }
    }

    /// Steps the next `max_shards` shards in `(epoch, shard)` order (at
    /// least one, a no-op once done): shard-epochs that may run past the
    /// end of an epoch, in one parallel call where each shard steps all of
    /// its epochs in place, shard-major. Shard panics, injected by `plan`
    /// or real, are retried per `retry`; a shard that keeps failing is
    /// quarantined, frozen at its last good state. An epoch that leaves a
    /// non-finite state value is rejected, its element count added to
    /// `rejected_samples`. Every such event lands in
    /// [`ScenarioRun::degraded`] instead of aborting. No shard reads
    /// another's columns and every fault is keyed on `(epoch, shard,
    /// attempt)`, so one step of `a + b` shards reaches the state and
    /// degraded report of a step of `a` and then one of `b`. It is
    /// [`ScenarioRun::step_into`] with no file.
    pub fn step_supervised(
        &mut self,
        max_shards: usize,
        plan: Option<&FaultPlan>,
        retry: &RetryPolicy,
    ) -> Progress {
        self.step_into(max_shards, plan, retry, None)
    }

    /// [`ScenarioRun::step_supervised`] that, given the temp file of a
    /// checkpoint write, also leaves in it the run's `DHSP` checkpoint
    /// after the step, the bytes [`ScenarioRun::encode_checkpoint`] would
    /// return. Each shard's section sits at a fixed offset, so the worker
    /// that takes a shard writes its section as soon as the shard's window
    /// ends, while its columns are still in cache; the same parallel call
    /// writes the sections of the shards the step does not reach (past
    /// the step's end in the epoch, or quarantined). This thread then
    /// writes the header, the degraded section and the checksum, folded
    /// from the live columns, so the state is never copied into one
    /// buffer. A failed write surfaces when the file lands.
    pub fn step_into(
        &mut self,
        max_shards: usize,
        plan: Option<&FaultPlan>,
        retry: &RetryPolicy,
        file: Option<&CheckpointFile>,
    ) -> Progress {
        if self.shards.is_empty() {
            // No shard has an epoch to step, so the run ends at once.
            self.epoch = self.pack.epochs;
        } else {
            self.step_window(max_shards, plan, retry, file);
        }
        if let Some(file) = file {
            self.write_frame(file);
        }
        self.progress()
    }

    /// The body of [`ScenarioRun::step_into`] for a run with shards.
    fn step_window(
        &mut self,
        max_shards: usize,
        plan: Option<&FaultPlan>,
        retry: &RetryPolicy,
        file: Option<&CheckpointFile>,
    ) {
        let n = self.shards.len();
        let plan = plan.filter(|p| !p.is_noop());
        let (from_epoch, from_cursor) = (self.epoch, self.shard_cursor);
        let from = from_epoch
            .saturating_mul(n as u64)
            .saturating_add(from_cursor as u64);
        let end = self.pack.epochs.saturating_mul(n as u64);
        let to = from.saturating_add((max_shards as u64).max(1)).min(end);
        // A finished run has nothing to step, but its file still needs
        // every section.
        if to <= from && file.is_none() {
            return;
        }
        let (epoch, cursor) = (to / n as u64, (to % n as u64) as usize);
        // Register always-stuck wear sensors once, at the very start of the
        // run (resumes re-load them from the checkpoint).
        let incidents = &mut self.degraded.sensor_incidents;
        if (from_epoch, from_cursor) == (0, 0) && incidents.is_empty() {
            let stuck = |chip| {
                let kind = plan?.sensor_fault(chip)?;
                Some(SensorIncident {
                    chip,
                    kind,
                    epoch: 0,
                })
            };
            incidents.extend((0..n as u64).filter_map(stuck));
        }
        // Shard `s` has integrated `from_epoch + (s < from_cursor)` epochs
        // and ends the step at `epoch + (s < cursor)`. Only a step that
        // wraps into a later epoch reaches the shards before `from_cursor`,
        // and only a step that writes a file takes the shards it does not
        // reach.
        let (lo, hi) = if file.is_some() {
            (0, n)
        } else if epoch == from_epoch {
            (from_cursor, cursor)
        } else if epoch == from_epoch + 1 && cursor == 0 {
            (from_cursor, n)
        } else {
            (0, n)
        };
        let offsets = file.map(|_| self.section_offsets());
        let window = Window {
            pack: &self.pack,
            shards: n,
            // Checkpoint, disk and sensor faults never touch a shard step,
            // so a plan of only those steps the fused way, as no plan does.
            plan: plan.filter(|p| p.injects_shard_faults()),
            retry,
        };
        let quarantined = &self.degraded.quarantined;
        let logs = dh_exec::par_chunks_mut(&mut self.shards[lo..hi], 1, |i, chunk| {
            let (s, shard) = (lo + i, &mut chunk[0]);
            let epochs =
                from_epoch + 1 + u64::from(s < from_cursor)..=epoch + u64::from(s < cursor);
            // A quarantined shard stays frozen: no work, no faults.
            let log = if epochs.is_empty() || quarantined.iter().any(|q| q.shard == s as u64) {
                ShardLog::default()
            } else {
                SAVED.with_borrow_mut(|saved| window.step_shard(&mut shard.store, s, epochs, saved))
            };
            // A shard that panicked or was rejected has its state restored
            // by now, so its section holds its last good state.
            if let (Some(file), Some(offsets)) = (file, &offsets) {
                SECTION.with_borrow_mut(|buf| {
                    buf.clear();
                    shard.encode_section(buf);
                    file.write_at(buf, offsets[s]);
                });
            }
            log
        });
        let mut failures = Vec::new();
        for log in logs {
            self.degraded.retries += log.retries;
            self.degraded.rejected_samples += log.rejected;
            dh_obs::counter!("scenario.shard_retries").add(log.retries);
            dh_obs::counter!("scenario.rejected_samples").add(log.rejected);
            failures.extend(log.quarantined);
        }
        // Step-at-a-time stepping quarantines in `(epoch, shard)` order.
        failures.sort_by_key(|(epoch, failure)| (*epoch, failure.index));
        dh_obs::counter!("scenario.shards_quarantined").add(failures.len() as u64);
        for (_, failure) in failures {
            self.degraded.quarantined.push(ShardFailure {
                shard: failure.index as u64,
                attempts: failure.attempts,
                error: failure.message,
            });
        }
        dh_obs::counter!("scenario.shard_steps").add(to - from);
        if epoch > from_epoch {
            dh_obs::counter!("scenario.epochs").add(epoch - from_epoch);
        }
        self.epoch = epoch;
        self.shard_cursor = cursor;
    }

    /// Aggregates the current state into per-group reports plus the
    /// run fingerprint. Serial scan: the fold order is the shard
    /// order, independent of stepping parallelism.
    pub fn report(&self) -> ScenarioReport {
        let mut groups: Vec<GroupReport> = self
            .pack
            .blocks
            .iter()
            .map(|b| GroupReport {
                model: b.model.name().to_string(),
                count: b.count,
                failed: 0,
                first_fail_epoch: 0,
                mean_metric_mv: 0.0,
                max_metric_mv: 0.0,
            })
            .collect();
        let mut fp = fnv1a_u64(FNV_OFFSET, self.pack_fp);
        fp = fnv1a_u64(fp, self.epoch);
        fp = fnv1a_u64(fp, self.shard_cursor as u64);
        for shard in &self.shards {
            let g = &mut groups[shard.group];
            for i in 0..shard.store.len() {
                let metric = shard.store.metric(i);
                g.mean_metric_mv += metric;
                g.max_metric_mv = g.max_metric_mv.max(metric);
                let failed = shard.store.failed_epoch(i);
                if failed != 0 {
                    g.failed += 1;
                    if g.first_fail_epoch == 0 || failed < g.first_fail_epoch {
                        g.first_fail_epoch = failed;
                    }
                }
            }
            let (cols, failed) = shard.store.state();
            for col in cols {
                for &v in col {
                    fp = fnv1a_u64(fp, v.to_bits());
                }
            }
            for &v in failed {
                fp = fnv1a_u64(fp, v);
            }
        }
        for g in &mut groups {
            if g.count > 0 {
                g.mean_metric_mv /= g.count as f64;
            }
        }
        ScenarioReport {
            scenario: self.pack.name.clone(),
            epochs_run: self.epoch,
            groups,
            fingerprint: fp,
        }
    }

    // ------------------------------------------------------- checkpoints

    /// Serializes the mutable state (`DHSP` v3) — constant columns are
    /// rebuilt from the pack on resume; the degraded report rides along
    /// so quarantines and incidents survive a kill/resume cycle.
    pub fn encode_checkpoint(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the `DHSP` header: magic, version, pack fingerprint,
    /// position and shard count.
    fn encode_header(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(MAGIC);
        let shards = self.shards.len() as u64;
        let cursor = self.shard_cursor as u64;
        put_u64s(buf, &[VERSION, self.pack_fp, self.epoch, cursor, shards]);
    }

    /// The byte offset of every shard's section, then that of the
    /// degraded section after them.
    fn section_offsets(&self) -> Vec<u64> {
        let mut offsets = Vec::with_capacity(self.shards.len() + 1);
        let mut at = HEADER_LEN;
        for shard in &self.shards {
            offsets.push(at);
            at += shard.section_len();
        }
        offsets.push(at);
        offsets
    }

    /// Writes what a step's window leaves out of the checkpoint file: the
    /// header, the degraded section and the checksum of the whole file,
    /// folded from the live columns.
    fn write_frame(&self, file: &CheckpointFile) {
        let mut head = Vec::with_capacity(HEADER_LEN as usize);
        self.encode_header(&mut head);
        let mut tail = Vec::new();
        self.degraded.encode(&mut tail);
        let mut sum = Checksum::new();
        sum.update(&head);
        for shard in &self.shards {
            shard.fold_section(&mut sum);
        }
        sum.update(&tail);
        put_u64(&mut tail, sum.finish());
        file.write_at(&head, 0);
        let end = self
            .section_offsets()
            .pop()
            .expect("one offset past the shards");
        file.write_at(&tail, end);
    }

    /// Rebuilds a run from a pack and checkpoint bytes, verifying the
    /// format version, the checksum the version names (v3: [`checksum`],
    /// v2: FNV-1a), the pack fingerprint, the position and that every
    /// state value is finite. Both versions share one body layout and one
    /// parser.
    pub fn decode_checkpoint(pack: ScenarioPack, bytes: &[u8]) -> Result<Self, ScenarioError> {
        if bytes.len() < MAGIC.len() + 8 || &bytes[..4] != MAGIC {
            return Err(ScenarioError::Corrupt("bad magic".into()));
        }
        let (body, mut tail) = bytes.split_at(bytes.len() - 8);
        let mut view = &body[4..];
        let version = take_u64(&mut view, "version")?;
        let actual = match version {
            VERSION => checksum(body),
            LEGACY_VERSION => fnv1a(FNV_OFFSET, body),
            _ => {
                return Err(ScenarioError::Corrupt(format!(
                    "unsupported version {version} (want {VERSION} or {LEGACY_VERSION})"
                )))
            }
        };
        let expect = take_u64(&mut tail, "checksum")?;
        if expect != actual {
            return Err(ScenarioError::Corrupt(format!(
                "checksum mismatch: stored {expect:#018x}, computed {actual:#018x}"
            )));
        }
        let pack_fp = take_u64(&mut view, "pack fingerprint")?;
        let mut run = Self::new(pack);
        if pack_fp != run.pack_fp {
            return Err(ScenarioError::Mismatch(format!(
                "checkpoint is for pack {pack_fp:#018x}, this pack is {:#018x}",
                run.pack_fp
            )));
        }
        run.epoch = take_u64(&mut view, "epoch")?;
        let cursor = take_u64(&mut view, "shard cursor")?;
        let shard_count = take_u64(&mut view, "shard count")?;
        if shard_count != run.shards.len() as u64 {
            return Err(ScenarioError::Corrupt(format!(
                "layout mismatch: {shard_count} shards in file, {} from pack",
                run.shards.len()
            )));
        }
        // The writer keeps the cursor inside the epoch in flight (at 0 for
        // a pack with no shards) and stops at the pack's horizon; any other
        // position is a forged file.
        if cursor >= shard_count.max(1)
            || run.epoch > run.pack.epochs
            || (run.epoch == run.pack.epochs && cursor != 0)
        {
            return Err(ScenarioError::Corrupt(format!(
                "position epoch {} shard {cursor} is outside the {}-epoch, {shard_count}-shard run",
                run.epoch, run.pack.epochs
            )));
        }
        run.shard_cursor = cursor as usize;
        for (s, shard) in run.shards.iter_mut().enumerate() {
            let group = take_u64(&mut view, "shard group")?;
            let lo = take_u64(&mut view, "shard lo")?;
            let len = take_u64(&mut view, "shard len")?;
            if group != shard.group as u64 || lo != shard.lo || len != shard.store.len() as u64 {
                return Err(ScenarioError::Corrupt(format!(
                    "shard layout mismatch at group {group} lo {lo}"
                )));
            }
            let (cols, failed) = shard.store.state_mut();
            for (c, col) in cols.iter_mut().enumerate() {
                take_f64s(&mut view, col, "state column")?;
                // The engine rejects every epoch that leaves a non-finite
                // state value, so the writer never stores one.
                if let Some(i) = col.iter().position(|v| !v.is_finite()) {
                    let why = format!("non-finite state at shard {s} column {c} element {i}");
                    return Err(ScenarioError::Corrupt(why));
                }
            }
            take_u64s(&mut view, failed, "failed column")?;
        }
        run.degraded = DegradedReport::decode(&mut view)?;
        if !view.is_empty() {
            return Err(ScenarioError::Corrupt(format!(
                "{} trailing bytes",
                view.len()
            )));
        }
        Ok(run)
    }

    /// Resumes from the newest generation of `store` that decodes under
    /// `pack` (a fresh run when none does), recording every skipped
    /// generation in the degraded report.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Mismatch`] when the newest intact generation
    /// belongs to a different pack — resuming someone else's state
    /// silently would be worse than aborting.
    pub fn resume_from_store(
        pack: ScenarioPack,
        store: &ScenarioCheckpointStore,
    ) -> Result<Self, ScenarioError> {
        let (found, fallbacks) =
            store.read_newest_valid(|bytes| match Self::decode_checkpoint(pack.clone(), bytes) {
                Err(e @ ScenarioError::Mismatch(_)) => Ok(Err(e)),
                decoded => decoded.map(Ok),
            });
        dh_obs::counter!("scenario.checkpoint_fallbacks").add(fallbacks.len() as u64);
        let mut run = found.transpose()?.unwrap_or_else(|| Self::new(pack));
        run.degraded.checkpoint_fallbacks.extend(fallbacks);
        Ok(run)
    }
}

/// The generation store scenario checkpoints (DHSP) land in.
pub type ScenarioCheckpointStore = CheckpointStore;

/// Integrates a pack start to finish with no fault plan and reports.
/// Shard panics are contained as in [`run_pack_supervised`].
///
/// # Errors
///
/// A run that degraded anyway — a real shard panic or a non-finite state
/// value — is [`ScenarioError::Degraded`].
pub fn run_pack(pack: ScenarioPack) -> Result<ScenarioReport, ScenarioError> {
    let (report, degraded) = run_pack_supervised(pack, None, &RetryPolicy::immediate(1), None)?;
    if degraded.is_degraded() {
        return Err(ScenarioError::Degraded(Box::new(degraded)));
    }
    Ok(report)
}

/// Integrates a pack under supervision: shard panics, real or injected by
/// `plan`, are retried per `retry` and quarantined on exhaustion,
/// checkpoints (when a store is given) are written after every step of
/// `every` × [`dh_exec::max_threads`] shard-epochs through the
/// disk-fault-injecting writer, and a corrupt newest generation falls
/// back to an older one on resume. Each step is one parallel call,
/// shard-major; nothing observes a run without checkpoints until it ends,
/// so it is one step. Returns the report plus the accumulated
/// [`DegradedReport`]; a no-op plan produces a report bit-identical to
/// [`run_pack`].
///
/// # Errors
///
/// [`ScenarioError::Io`] on a genuine filesystem failure and
/// [`ScenarioError::Mismatch`] when an on-disk checkpoint belongs to a
/// different pack — injected faults degrade instead of erroring.
pub fn run_pack_supervised(
    pack: ScenarioPack,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    checkpoints: Option<(&ScenarioCheckpointStore, u64)>,
) -> Result<(ScenarioReport, DegradedReport), ScenarioError> {
    let Some((store, every)) = checkpoints else {
        let mut run = ScenarioRun::new(pack);
        run.step_supervised(usize::MAX, plan, retry);
        return Ok((run.report(), run.degraded));
    };
    let mut run = ScenarioRun::resume_from_store(pack, store)?;
    let shards = usize::try_from(every)
        .unwrap_or(usize::MAX)
        .saturating_mul(dh_exec::max_threads());
    let step = |run: &mut ScenarioRun, file: Option<&CheckpointFile>| {
        run.step_into(shards, plan, retry, file).done
    };
    // The report reads only state, which the writes' disk incidents never
    // touch, so it is taken while the last generation lands.
    let mut report = None;
    let take_report = |run: &ScenarioRun| {
        if run.progress().done {
            report = Some(run.report());
        }
    };
    drive(&mut run, step, Some(store), plan, || false, take_report)?;
    let report = report.unwrap_or_else(|| run.report());
    Ok((report, run.degraded))
}

impl Checkpoint for ScenarioRun {
    /// [`ScenarioRun::encode_checkpoint`] into a caller-owned buffer
    /// (cleared first). The buffer grows once, to the exact file size.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut degraded = Vec::new();
        self.degraded.encode(&mut degraded);
        let sections: u64 = self.shards.iter().map(Shard::section_len).sum();
        buf.clear();
        buf.reserve_exact((HEADER_LEN + sections) as usize + degraded.len() + 8);
        self.encode_header(buf);
        for shard in &self.shards {
            shard.encode_section(buf);
        }
        buf.extend_from_slice(&degraded);
        let sum = checksum(buf);
        put_u64(buf, sum);
    }
}

impl Run for ScenarioRun {
    fn degraded(&self) -> &DegradedReport {
        &self.degraded
    }

    fn absorb(&mut self, written: Written) {
        for (name, n) in written.metrics() {
            dh_obs::counter(&format!("scenario.{name}")).add(n);
        }
        self.degraded.absorb(written.disk);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use dh_fault::{DiskFaultKind, TempDir};

    use super::*;
    use crate::registry::ScenarioRegistry;

    thread_local! {
        /// The shard whose kernel [`ScenarioRun::new`] breaks on this
        /// thread, if any.
        static BROKEN_SHARD: Cell<Option<(usize, Sabotage)>> = const { Cell::new(None) };
    }

    /// A change to a freshly built store.
    type Sabotage = fn(&mut VictimStore);

    /// [`ScenarioRun::new`]'s test hook: sabotages the shard
    /// [`BROKEN_SHARD`] names.
    pub(super) fn break_kernel(shards: &mut [Shard]) {
        if let Some((s, sabotage)) = BROKEN_SHARD.get() {
            sabotage(&mut shards[s].store);
        }
    }

    /// Puts a NaN in the last state column (`p`, or a weight bank's `p_b`)
    /// of the shard's last element, which every epoch keeps.
    fn poison_state(store: &mut VictimStore) {
        let (cols, failed) = store.state_mut();
        cols.last_mut().unwrap()[failed.len() - 1] = f64::NAN;
    }

    fn small_pack() -> ScenarioPack {
        let mut pack = ScenarioRegistry::builtin()
            .get("sram-decoder")
            .unwrap()
            .pack
            .clone();
        pack.epochs = 6;
        pack.shard_size = 300;
        pack.blocks[0].count = 700;
        pack.blocks[1].count = 500;
        pack
    }

    /// `small_pack` with one block per victim model, each in two shards:
    /// SRAM decoder rows in shards 0–1, weight banks in 2–3 and
    /// multipliers in 4–5.
    fn mixed_pack() -> ScenarioPack {
        let registry = ScenarioRegistry::builtin();
        let block = |name| {
            let mut block = registry.get(name).unwrap().pack.blocks[0].clone();
            block.count = 400;
            block
        };
        let mut pack = small_pack();
        pack.blocks = vec![
            block("sram-decoder"),
            block("dnn-weight-memory"),
            block("aged-multiplier"),
        ];
        pack
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let pack = small_pack();
        dh_exec::set_max_threads(Some(1));
        let serial = run_pack(pack.clone()).unwrap();
        dh_exec::set_max_threads(None);
        let parallel = run_pack(pack).unwrap();
        assert_eq!(serial.fingerprint, parallel.fingerprint);
        assert_eq!(serial, parallel);
    }

    /// One step of up to `max_shards` shards without a fault plan.
    fn step(run: &mut ScenarioRun, max_shards: usize) -> Progress {
        run.step_supervised(max_shards, None, &RetryPolicy::immediate(1))
    }

    /// Steps every remaining epoch to completion.
    fn step_to_end(run: &mut ScenarioRun) {
        while !step(run, usize::MAX).done {}
    }

    #[test]
    fn checkpoint_round_trips_mid_epoch() {
        let pack = small_pack();
        let mut straight = ScenarioRun::new(pack.clone());
        step_to_end(&mut straight);

        let mut stepped = ScenarioRun::new(pack.clone());
        // Stop mid-epoch (5 shards total: 3 + 2).
        step(&mut stepped, 2);
        let bytes = stepped.encode_checkpoint();
        let mut resumed = ScenarioRun::decode_checkpoint(pack, &bytes).unwrap();
        assert_eq!(resumed.progress(), stepped.progress());
        step_to_end(&mut resumed);
        assert_eq!(resumed.report(), straight.report());
        // Byte identity of the final state, not just the digest.
        assert_eq!(resumed.encode_checkpoint(), {
            straight.encode_checkpoint()
        });
    }

    #[test]
    fn checkpoint_rejects_corruption_and_wrong_pack() {
        let pack = small_pack();
        let mut run = ScenarioRun::new(pack.clone());
        step(&mut run, usize::MAX);
        let mut bytes = run.encode_checkpoint();
        let last = bytes.len() - 9;
        bytes[last] ^= 1;
        assert!(matches!(
            ScenarioRun::decode_checkpoint(pack.clone(), &bytes),
            Err(ScenarioError::Corrupt(_))
        ));
        let mut other = pack.clone();
        other.seed += 1;
        assert!(matches!(
            ScenarioRun::decode_checkpoint(other, &run.encode_checkpoint()),
            Err(ScenarioError::Mismatch(_))
        ));
        assert!(matches!(
            ScenarioRun::decode_checkpoint(pack, b"DHXX"),
            Err(ScenarioError::Corrupt(_))
        ));
    }

    /// A clean checkpoint of `pack` moved to `(epoch, shard cursor)`,
    /// with the file checksum recomputed so only the position is wrong.
    fn forged(pack: &ScenarioPack, epoch: u64, cursor: u64) -> Vec<u8> {
        let mut bytes = ScenarioRun::new(pack.clone()).encode_checkpoint();
        bytes[20..28].copy_from_slice(&epoch.to_le_bytes());
        bytes[28..36].copy_from_slice(&cursor.to_le_bytes());
        reseal(&mut bytes);
        bytes
    }

    /// Recomputes a checkpoint's trailing checksum over its body.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    /// The forged position must be what the decoder objects to: a
    /// checksum mismatch would mean the forgery itself is stale.
    fn assert_forgery_rejected(epoch: u64, cursor: u64) {
        let pack = small_pack();
        let decoded = ScenarioRun::decode_checkpoint(pack.clone(), &forged(&pack, epoch, cursor));
        assert!(
            matches!(&decoded, Err(ScenarioError::Corrupt(why)) if why.contains("position epoch")),
            "epoch {epoch} cursor {cursor}: {:?}",
            decoded.map(|run| run.report().epochs_run)
        );
    }

    #[test]
    fn forged_cursor_at_the_shard_count_is_corrupt() {
        let pack = small_pack();
        let shards = ScenarioRun::new(pack.clone()).progress().shards as u64;
        assert_forgery_rejected(1, shards);
        // The writer's own positions still decode.
        let last = forged(&pack, 1, shards - 1);
        assert!(ScenarioRun::decode_checkpoint(pack, &last).is_ok());
    }

    #[test]
    fn forged_epoch_past_the_horizon_is_corrupt() {
        let pack = small_pack();
        assert_forgery_rejected(pack.epochs + 1, 0);
        let done = forged(&pack, pack.epochs, 0);
        assert!(ScenarioRun::decode_checkpoint(pack, &done).is_ok());
    }

    #[test]
    fn forged_cursor_in_a_finished_run_is_corrupt() {
        assert_forgery_rejected(small_pack().epochs, 1);
    }

    #[test]
    fn forged_non_finite_state_is_corrupt() {
        let pack = small_pack();
        let shards = ScenarioRun::new(pack.clone()).shards;
        // Element 5 of shard 1's second state column: past the header,
        // shard 0's record and shard 1's three layout words.
        let (cols, failed) = shards[0].store.state();
        let shard0 = 24 + 8 * (cols.iter().map(|c| c.len()).sum::<usize>() + failed.len());
        let at = 44 + shard0 + 24 + 8 * (shards[1].store.len() + 5);
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bytes = forged(&pack, 1, 0);
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            reseal(&mut bytes);
            let decoded = ScenarioRun::decode_checkpoint(pack.clone(), &bytes);
            assert!(
                matches!(&decoded, Err(ScenarioError::Corrupt(why))
                    if why.contains("non-finite") && why.contains("shard 1 column 1 element 5")),
                "{value}: {:?}",
                decoded.map(|run| run.report().epochs_run)
            );
        }
    }

    #[test]
    fn report_counts_failures_per_group() {
        let mut pack = small_pack();
        pack.epochs = 40;
        pack.fail_threshold_mv = 10.0;
        let report = run_pack(pack).unwrap();
        assert_eq!(report.groups.len(), 2);
        let total_failed: u64 = report.groups.iter().map(|g| g.failed).sum();
        assert!(total_failed > 0, "{report:?}");
        for g in &report.groups {
            assert!(g.max_metric_mv >= g.mean_metric_mv);
            if g.failed > 0 {
                assert!(g.first_fail_epoch >= 1);
            }
        }
    }

    // ------------------------------------------------- supervision

    fn plan(spec: &str, seed: u64) -> FaultPlan {
        FaultPlan::new(dh_fault::FaultSpec::parse(spec).unwrap(), seed)
    }

    #[test]
    fn supervised_noop_plan_is_bit_identical_to_the_strict_path() {
        let pack = small_pack();
        let clean = run_pack(pack.clone()).unwrap();
        let noop = plan("", 7);
        let retry = RetryPolicy::immediate(3);
        let (report, degraded) = run_pack_supervised(pack, Some(&noop), &retry, None).unwrap();
        assert_eq!(report, clean);
        assert!(!degraded.is_degraded(), "{degraded:?}");
    }

    #[test]
    fn always_panicking_shards_are_retried_then_quarantined_frozen() {
        let pack = small_pack();
        let p = plan("panic=1", 3);
        let retry = RetryPolicy::immediate(2);
        let (report, degraded) = run_pack_supervised(pack.clone(), Some(&p), &retry, None).unwrap();
        // Every shard panicked on every attempt: all 5 quarantined after
        // one retry each, and the state never advanced past epoch 0.
        assert_eq!(degraded.quarantined.len(), 5, "{degraded:?}");
        assert!(degraded.retries >= 5);
        for q in &degraded.quarantined {
            assert_eq!(q.attempts, 2);
            assert!(q.error.contains("injected fault"), "{}", q.error);
        }
        assert_eq!(report.epochs_run, pack.epochs);
        let init_report = ScenarioRun::new(pack).report();
        for (g, init) in report.groups.iter().zip(init_report.groups.iter()) {
            assert_eq!(g.mean_metric_mv.to_bits(), init.mean_metric_mv.to_bits());
        }
    }

    #[test]
    fn poisoned_epochs_are_rejected_and_the_shard_keeps_its_old_state() {
        for name in ["sram-decoder", "dnn-weight-memory", "aged-multiplier"] {
            let mut pack = ScenarioRegistry::builtin().get(name).unwrap().pack.clone();
            pack.epochs = 6;
            pack.shard_size = 300;
            for block in &mut pack.blocks {
                block.count = block.count.min(700);
            }
            let p = plan("poison=1", 11);
            let retry = RetryPolicy::immediate(2);
            let (report, degraded) =
                run_pack_supervised(pack.clone(), Some(&p), &retry, None).unwrap();
            // Every shard's every epoch is poisoned with a non-finite
            // value (NaN, +inf or -inf in the first state column), so
            // every epoch is rejected.
            assert!(degraded.rejected_samples > 0, "{name}: {degraded:?}");
            assert!(degraded.quarantined.is_empty(), "{name}: {degraded:?}");
            // Rejected epochs keep the pre-epoch state: the report equals
            // the initial state's.
            let init = ScenarioRun::new(pack).report();
            for (g, i) in report.groups.iter().zip(init.groups.iter()) {
                assert_eq!(
                    g.mean_metric_mv.to_bits(),
                    i.mean_metric_mv.to_bits(),
                    "{name}"
                );
            }
        }
    }

    /// The state columns of every shard, as bits.
    fn state_bits(run: &ScenarioRun) -> Vec<Vec<u64>> {
        run.shards
            .iter()
            .map(|shard| {
                let (cols, failed) = shard.store.state();
                cols.iter()
                    .flat_map(|col| col.iter().map(|v| v.to_bits()))
                    .chain(failed.iter().copied())
                    .collect()
            })
            .collect()
    }

    /// Runs `mixed_pack` the way `run_pack` and a plain `fleet
    /// --scenario` do, with shard `broken` sabotaged, at one thread and
    /// at every thread under each backend. Requires every run to agree,
    /// the broken shard to end at its first state and every other shard
    /// where a clean run ends; returns the degraded report.
    fn sabotaged_run(broken: usize, sabotage: Sabotage) -> DegradedReport {
        let pack = mixed_pack();
        let mut clean = ScenarioRun::new(pack.clone());
        step_to_end(&mut clean);
        let retry = RetryPolicy::immediate(2);
        BROKEN_SHARD.set(Some((broken, sabotage)));
        let fresh = state_bits(&ScenarioRun::new(pack.clone()));
        let run_once = |mode: &str| {
            let (report, degraded) = run_pack_supervised(pack.clone(), None, &retry, None).unwrap();
            let mut run = ScenarioRun::new(pack.clone());
            run.step_supervised(usize::MAX, None, &retry);
            let same = (report.fingerprint, &degraded);
            assert_eq!(same, (run.report().fingerprint, &run.degraded));
            assert_eq!(run.progress(), clean.progress());
            let (got, want) = (state_bits(&run), state_bits(&clean));
            for s in 0..got.len() {
                let want = if s == broken { &fresh[s] } else { &want[s] };
                assert_eq!(&got[s], want, "{mode}: shard {s}");
            }
            degraded
        };
        dh_exec::set_max_threads(Some(1));
        let one_thread = run_once("one thread");
        dh_exec::set_max_threads(None);
        let per_backend = dh_simd::each_backend(|b| run_once(b.name()));
        BROKEN_SHARD.set(None);
        for (b, degraded) in &per_backend {
            assert_eq!(&one_thread, degraded, "{b}");
        }
        one_thread
    }

    /// One shard of each victim model in `mixed_pack`.
    const ONE_SHARD_PER_MODEL: [usize; 3] = [1, 3, 5];

    #[test]
    fn a_real_kernel_panic_quarantines_its_shard_and_the_run_completes() {
        for broken in ONE_SHARD_PER_MODEL {
            let degraded = sabotaged_run(broken, VictimStore::truncate_variation);
            assert_eq!(degraded.quarantined.len(), 1, "{degraded:?}");
            let failure = &degraded.quarantined[0];
            assert_eq!((failure.shard, failure.attempts), (broken as u64, 2));
            assert!(
                failure.error.contains("index out of bounds"),
                "{}",
                failure.error
            );
            // The failed fused pass and the one retry of its first epoch.
            assert_eq!(degraded.retries, 2, "shard {broken}");
        }
    }

    #[test]
    fn a_shard_that_keeps_a_non_finite_value_has_every_epoch_rejected() {
        for broken in ONE_SHARD_PER_MODEL {
            let degraded = sabotaged_run(broken, poison_state);
            assert!(degraded.quarantined.is_empty(), "{degraded:?}");
            // The failed fused pass, then the poisoned element in each of
            // the pack's six epochs.
            let counts = (degraded.retries, degraded.rejected_samples);
            assert_eq!(counts, (1, 6), "shard {broken}");
        }
    }

    #[test]
    fn a_plan_without_shard_faults_steps_the_fused_window() {
        let pack = mixed_pack();
        let retry = RetryPolicy::immediate(2);
        let disk_only = plan("disk-full=0.4,disk-torn=3,ckpt-flip=2", 7);
        // A shard-fault plan whose one coin never lands: the per-epoch path.
        let spec = dh_fault::FaultSpec {
            panic_probability: f64::MIN_POSITIVE,
            ..Default::default()
        };
        let per_epoch = FaultPlan::new(spec, 7);
        assert!(!disk_only.injects_shard_faults() && per_epoch.injects_shard_faults());
        let run = |p: Option<&FaultPlan>| {
            let mut run = ScenarioRun::new(pack.clone());
            run.step_supervised(usize::MAX, p, &retry);
            run
        };
        let [fused, unplanned, stepped] = [Some(&disk_only), None, Some(&per_epoch)].map(run);
        assert_eq!(fused.encode_checkpoint(), unplanned.encode_checkpoint());
        assert_eq!(fused.encode_checkpoint(), stepped.encode_checkpoint());

        // A shard that keeps a NaN fails the fused pass once before its
        // epochs replay one by one; the per-epoch path never tries that
        // pass. The retry count tells the two paths apart.
        BROKEN_SHARD.set(Some((3, poison_state)));
        let [fused, unplanned, stepped] = [Some(&disk_only), None, Some(&per_epoch)].map(run);
        BROKEN_SHARD.set(None);
        assert_eq!(fused.degraded, unplanned.degraded);
        let counts = |r: &ScenarioRun| (r.degraded.retries, r.degraded.rejected_samples);
        assert_eq!(counts(&fused), (1, 6));
        assert_eq!(counts(&stepped), (0, 6));
        assert_eq!(state_bits(&fused), state_bits(&stepped));
        assert_eq!(fused.report(), stepped.report());
    }

    #[test]
    fn a_window_records_quarantines_in_step_order() {
        // From mid-epoch every shard panics on every attempt. The window
        // reaches shards 0 and 1 a whole epoch later than shards 2 to 4,
        // so their quarantines come last, as step-at-a-time stepping
        // records them.
        let p = plan("panic=1", 3);
        let retry = RetryPolicy::immediate(2);
        let mut fused = ScenarioRun::new(small_pack());
        step(&mut fused, 2);
        let mut stepped = fused.clone();
        while !stepped.step_supervised(1, Some(&p), &retry).done {}
        fused.step_supervised(usize::MAX, Some(&p), &retry);
        assert_eq!(fused.degraded, stepped.degraded);
        let order: Vec<u64> = fused.degraded.quarantined.iter().map(|q| q.shard).collect();
        assert_eq!(order, [2, 3, 4, 0, 1]);
    }

    #[test]
    fn a_faulted_window_takes_one_supervised_step_per_step() {
        let pack = small_pack();
        let p = plan("panic=0.3,poison=0.1", 9);
        let retry = RetryPolicy::immediate(4);
        for window in 1..=4 {
            let mut stepped = ScenarioRun::new(pack.clone());
            let mut fused = ScenarioRun::new(pack.clone());
            loop {
                for _ in 0..window {
                    if stepped.step_supervised(2, Some(&p), &retry).done {
                        break;
                    }
                }
                let done = fused.step_supervised(2 * window, Some(&p), &retry).done;
                assert_eq!(fused.progress(), stepped.progress(), "window {window}");
                // The bytes carry the degraded report as well as the state.
                assert_eq!(fused.encode_checkpoint(), stepped.encode_checkpoint());
                if done {
                    break;
                }
            }
            assert!(fused.degraded.is_degraded(), "the plan injected faults");
        }
    }

    #[test]
    fn a_step_runs_past_the_end_of_its_epoch() {
        let pack = small_pack();
        let shards = ScenarioRun::new(pack.clone()).progress().shards;
        let mut fused = ScenarioRun::new(pack.clone());
        let progress = step(&mut fused, shards + 2);
        assert_eq!((progress.epoch, progress.shard_cursor), (1, 2));
        let mut stepped = ScenarioRun::new(pack);
        for _ in 0..shards + 2 {
            step(&mut stepped, 1);
        }
        assert_eq!(fused.encode_checkpoint(), stepped.encode_checkpoint());
    }

    #[test]
    fn a_pack_with_no_shards_completes() {
        let mut pack = small_pack();
        pack.blocks.clear();
        let dir = TempDir::new("scenario-ckpt-empty");
        let store = ScenarioCheckpointStore::new(dir.join("scenario.dhsp"), 2);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let retry = RetryPolicy::immediate(1);
            let plain = run_pack(pack.clone()).unwrap();
            // The second checkpointed run resumes from the first's file.
            let checkpointed =
                [(); 2].map(|_| run_pack_supervised(pack.clone(), None, &retry, Some((&store, 1))));
            done.send((plain, checkpointed)).unwrap();
        });
        let timeout = std::time::Duration::from_secs(10);
        let (plain, checkpointed) = finished.recv_timeout(timeout).unwrap();
        assert_eq!(plain.epochs_run, small_pack().epochs);
        for (report, degraded) in checkpointed.map(Result::unwrap) {
            assert_eq!(report, plain);
            assert!(!degraded.is_degraded(), "{degraded:?}");
        }
    }

    #[test]
    fn run_pack_refuses_a_run_that_degraded() {
        let pack = mixed_pack();
        let retry = RetryPolicy::immediate(1);
        let (report, _) = run_pack_supervised(pack.clone(), None, &retry, None).unwrap();
        assert_eq!(run_pack(pack.clone()).unwrap(), report);
        BROKEN_SHARD.set(Some((3, VictimStore::truncate_variation)));
        let outcome = run_pack(pack);
        BROKEN_SHARD.set(None);
        let Err(ScenarioError::Degraded(degraded)) = outcome else {
            panic!("{:?}", outcome.map(|report| report.fingerprint));
        };
        let quarantined: Vec<u64> = degraded.quarantined.iter().map(|q| q.shard).collect();
        assert_eq!(quarantined, [3]);
    }

    #[test]
    fn v2_checkpoints_carry_the_degraded_report_and_quarantine_set() {
        let pack = small_pack();
        let p = plan("panic=1", 3);
        let retry = RetryPolicy::immediate(2);
        let mut run = ScenarioRun::new(pack.clone());
        run.step_supervised(2, Some(&p), &retry);
        assert!(!run.degraded.quarantined.is_empty());
        let bytes = run.encode_checkpoint();
        let mut resumed = ScenarioRun::decode_checkpoint(pack, &bytes).unwrap();
        assert_eq!(resumed.degraded, run.degraded);
        // The resumed run skips the same quarantined shards.
        step_to_end(&mut run);
        step_to_end(&mut resumed);
        assert_eq!(resumed.encode_checkpoint(), run.encode_checkpoint());
        // And the degraded section participates in the checksum.
        let mut torn = bytes.clone();
        let degraded_byte = torn.len() - 20;
        torn[degraded_byte] ^= 1;
        assert!(ScenarioRun::decode_checkpoint(resumed.pack().clone(), &torn).is_err());
    }

    #[test]
    fn v1_checkpoints_are_refused_as_corrupt_naming_the_version() {
        let pack = small_pack();
        let mut run = ScenarioRun::new(pack.clone());
        step(&mut run, usize::MAX);
        let v3 = run.encode_checkpoint();
        // A clean run's degraded section is 7 empty u64 fields; strip it
        // and rewrite the version to 1 to reconstruct a v1 file, whose
        // FNV-1a trailer is intact.
        let body_len = v3.len() - 8 - 56;
        let mut v1 = v3[..body_len].to_vec();
        v1[4..12].copy_from_slice(&1u64.to_le_bytes());
        let sum = fnv1a(FNV_OFFSET, &v1);
        put_u64(&mut v1, sum);
        let decoded = ScenarioRun::decode_checkpoint(pack, &v1);
        assert!(
            matches!(&decoded, Err(ScenarioError::Corrupt(why)) if why.contains("version 1")),
            "{:?}",
            decoded.map(|run| run.progress())
        );
    }

    #[test]
    fn store_falls_back_over_corrupt_generations_and_rejects_wrong_packs() {
        let dir = TempDir::new("scenario-ckpt-fallback");
        let store = ScenarioCheckpointStore::new(dir.join("scenario.dhsp"), 3);
        let pack = small_pack();
        let mut run = ScenarioRun::new(pack.clone());
        step(&mut run, 2);
        store.write(&run).unwrap();
        let older = run.progress();
        step(&mut run, usize::MAX);
        store.write(&run).unwrap();
        // Corrupt the newest generation on disk.
        let mut bytes = std::fs::read(store.base_path()).unwrap();
        let len = bytes.len();
        bytes[len / 2] ^= 0x40;
        std::fs::write(store.base_path(), &bytes).unwrap();
        let found = ScenarioRun::resume_from_store(pack.clone(), &store).unwrap();
        assert_eq!(found.progress(), older);
        let fallbacks = &found.degraded.checkpoint_fallbacks;
        assert_eq!(fallbacks.len(), 1);
        assert!(fallbacks[0].reason.contains("checksum"), "{fallbacks:?}");
        // A different pack is a hard mismatch, not a silent fallback.
        let mut other = pack;
        other.seed += 1;
        assert!(matches!(
            ScenarioRun::resume_from_store(other, &store),
            Err(ScenarioError::Mismatch(_))
        ));
    }

    #[test]
    fn enospc_and_fsync_faults_keep_the_previous_generation() {
        let dir = TempDir::new("scenario-ckpt-disk");
        let store = ScenarioCheckpointStore::new(dir.join("scenario.dhsp"), 3);
        let pack = small_pack();
        let mut run = ScenarioRun::new(pack.clone());
        step(&mut run, 2);
        store.write(&run).unwrap();
        let before = std::fs::read(store.base_path()).unwrap();
        step(&mut run, usize::MAX);
        // disk-full=1: every write draws ENOSPC.
        let p = plan("disk-full=1", 5);
        let write = |p: &FaultPlan, index| {
            store
                .write_bytes(&run.encode_checkpoint(), Some(p), index)
                .unwrap()
        };
        let outcome = write(&p, 0);
        assert_eq!(outcome.bytes, 0);
        assert_eq!(outcome.disk.disk_incidents.len(), 1);
        assert_eq!(outcome.disk.disk_incidents[0].kind, DiskFaultKind::Enospc);
        assert_eq!(std::fs::read(store.base_path()).unwrap(), before);
        // disk-fsync=1 (and no ENOSPC): abandoned before rename.
        let p = plan("disk-fsync=1", 5);
        let outcome = write(&p, 1);
        assert_eq!(outcome.bytes, 0);
        assert_eq!(
            outcome.disk.disk_incidents[0].kind,
            DiskFaultKind::FsyncFail
        );
        assert_eq!(std::fs::read(store.base_path()).unwrap(), before);
        // A torn write lands a strict prefix; resume falls back to the
        // intact older generation.
        let p = plan("disk-torn=1", 5);
        let outcome = write(&p, 0);
        assert_eq!(
            outcome.disk.disk_incidents[0].kind,
            DiskFaultKind::TornWrite
        );
        assert!((outcome.bytes as usize) < before.len() + 64);
        let found = ScenarioRun::resume_from_store(pack, &store).unwrap();
        let fallbacks = &found.degraded.checkpoint_fallbacks;
        assert_eq!(fallbacks.len(), 1, "{fallbacks:?}");
    }

    /// Drives `run` to its end, `shards` shard-epochs a step under the
    /// fault plan `spec` (none when empty), writing into a fresh store that
    /// keeps every generation. Returns the generations on disk, newest
    /// first, and those `encode_checkpoint` after every step and the
    /// plan's damage in memory give; requires no temp file to be left.
    fn landed_and_expected(
        mut run: ScenarioRun,
        shards: usize,
        spec: &str,
        retry: &RetryPolicy,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let dir = TempDir::new("scenario-ckpt-landed");
        let keep = 64;
        let store = ScenarioCheckpointStore::new(dir.join("s.dhsp"), keep);
        let p = (!spec.is_empty()).then(|| plan(spec, 13));
        let mut encoded = Vec::new();
        let step = |run: &mut ScenarioRun, file: Option<&CheckpointFile>| {
            run.step_into(shards, p.as_ref(), retry, file).done
        };
        let on_step = |run: &ScenarioRun| encoded.push(run.encode_checkpoint());
        assert!(drive(&mut run, step, Some(&store), p.as_ref(), || false, on_step).unwrap());
        let landed: Vec<Vec<u8>> = (0..keep)
            .map_while(|g| std::fs::read(store.generation_path(g)).ok())
            .collect();
        let files = std::fs::read_dir(&*dir).unwrap().count();
        assert_eq!(files, landed.len(), "{spec}: a temp file was left behind");
        let expected = dh_fault::expected_generations(p.as_ref(), encoded, keep);
        (landed, expected)
    }

    #[test]
    fn landed_generations_are_the_encoded_bytes_with_the_plans_damage() {
        let retry = RetryPolicy::immediate(4);
        let mut empty = small_pack();
        empty.blocks.clear();
        // Mid-epoch windows (2 of 5 shards, 4 of 6), whole epochs, a step
        // across two epoch ends, and a pack with no shards.
        let runs = [
            (small_pack(), 2),
            (small_pack(), 5),
            (mixed_pack(), 4),
            (mixed_pack(), 13),
            (empty, 1),
        ];
        for spec in [
            "",
            "ckpt-flip=2",
            "ckpt-truncate=3",
            "disk-torn=2",
            "disk-full=0.4",
            "disk-fsync=0.4",
            "disk-slow=5",
            "panic=0.3,poison=0.1,ckpt-flip=3,disk-torn=4",
        ] {
            for (pack, shards) in &runs {
                let run = ScenarioRun::new(pack.clone());
                let (landed, expected) = landed_and_expected(run, *shards, spec, &retry);
                assert!(!landed.is_empty(), "{spec}, {shards} shards a step");
                assert!(landed == expected, "{spec}, {shards} shards a step");
            }
        }
    }

    #[test]
    fn a_shard_that_fails_in_a_window_writes_its_restored_state() {
        let retry = RetryPolicy::immediate(2);
        let pack = mixed_pack();
        for broken in ONE_SHARD_PER_MODEL {
            // A real kernel panic in every attempt: the shard is
            // quarantined in its first window, among retried panics.
            BROKEN_SHARD.set(Some((broken, VictimStore::truncate_variation)));
            let fresh = state_bits(&ScenarioRun::new(pack.clone()));
            let landed = [("", 4), ("panic=0.3", 5)].map(|(spec, shards)| {
                let run = ScenarioRun::new(pack.clone());
                let (landed, expected) = landed_and_expected(run, shards, spec, &retry);
                assert!(landed == expected, "shard {broken}, {spec}");
                landed
            });
            BROKEN_SHARD.set(None);
            for generations in landed {
                let runs = generations
                    .iter()
                    .map(|bytes| ScenarioRun::decode_checkpoint(pack.clone(), bytes).unwrap());
                for run in runs {
                    assert_eq!(state_bits(&run)[broken], fresh[broken], "shard {broken}");
                }
                // The newest generation, at the run's end, records it.
                let last = ScenarioRun::decode_checkpoint(pack.clone(), &generations[0]).unwrap();
                let quarantined = &last.degraded.quarantined;
                assert!(quarantined.iter().any(|q| q.shard == broken as u64));
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_section_write_is_the_runs_io_error_not_a_panic() {
        // The first write's temp file is the full device: every section
        // write into it fails with ENOSPC, on the workers and the caller.
        let dir = TempDir::new("scenario-ckpt-write-error");
        let store = ScenarioCheckpointStore::new(dir.join("s.dhsp"), 2);
        std::os::unix::fs::symlink("/dev/full", store.temp_path(0)).unwrap();
        let retry = RetryPolicy::immediate(1);
        let outcome = run_pack_supervised(mixed_pack(), None, &retry, Some((&store, 1)));
        let Err(ScenarioError::Io { path, why }) = outcome else {
            panic!("{:?}", outcome.map(|(report, _)| report.fingerprint));
        };
        assert_eq!(path, store.temp_path(0).display().to_string(), "{why}");
        assert!(!store.base_path().exists());
        assert_eq!(std::fs::read_dir(&*dir).unwrap().count(), 0);
    }

    #[test]
    fn recoverable_faults_leave_the_report_fingerprint_unchanged() {
        let dir = TempDir::new("scenario-ckpt-recoverable");
        let store = ScenarioCheckpointStore::new(dir.join("scenario.dhsp"), 3);
        let pack = small_pack();
        let clean = run_pack(pack.clone()).unwrap();
        // Panics (fully retried), checkpoint corruption, and disk faults
        // are all recoverable: none of them may perturb the state.
        let p = plan("panic=0.2,ckpt-flip=2,disk-full=0.3,disk-torn=3", 17);
        let retry = RetryPolicy::immediate(12);
        let (report, degraded) =
            run_pack_supervised(pack.clone(), Some(&p), &retry, Some((&store, 1))).unwrap();
        assert!(degraded.quarantined.is_empty(), "{degraded:?}");
        assert_eq!(report.fingerprint, clean.fingerprint);
        assert_eq!(report, clean);
        assert!(degraded.is_degraded(), "expected disk/retry incidents");
        // And a resume from whatever generations survived converges to
        // the same fingerprint.
        let (resume_report, resume_degraded) =
            run_pack_supervised(pack, Some(&p), &retry, Some((&store, 1))).unwrap();
        assert_eq!(resume_report.fingerprint, clean.fingerprint);
        let _ = resume_degraded;
    }
}
