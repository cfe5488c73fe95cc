//! The checkpoint layer every engine writes through: a durable atomic
//! write, a K-generation store over encoded bytes with seeded disk faults
//! and newest-valid fallback, and one write-behind writer thread.
//!
//! The store knows nothing about payload formats. Engines encode their
//! state (DHFL, DHSP) into a byte buffer and hand it over; on resume they
//! pass a decoder, and the store walks the generations newest-first until
//! one decodes. What a write did — bytes landed, disk incidents survived,
//! generations trimmed — comes back as a [`Written`] report, which the
//! engines fold into their degraded report and publish under their own
//! metric names.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::report::{CheckpointFallback, DegradedReport, DiskFaultKind, DiskIncident};
use crate::FaultPlan;

/// How long an injected slow write stalls the writing thread — long
/// enough for heartbeat watchdogs to notice a pattern of them, short
/// enough not to dominate a chaos campaign.
const SLOW_WRITE_STALL: Duration = Duration::from_millis(100);

/// A genuine (not injected) checkpoint I/O failure.
#[derive(Debug)]
pub struct CheckpointError {
    /// The file or directory the failing operation touched.
    pub path: PathBuf,
    /// The OS error.
    pub source: std::io::Error,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for CheckpointError {}

/// A payload a [`CheckpointStore`] can persist.
pub trait Checkpoint {
    /// Encodes the payload into `buf`, clearing it first.
    fn encode_into(&self, buf: &mut Vec<u8>);
}

impl<C: Checkpoint + ?Sized> Checkpoint for Box<C> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        (**self).encode_into(buf);
    }
}

/// What checkpoint writes did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Written {
    /// Writes that reached the disk, intact or torn.
    pub writes: u64,
    /// Bytes those writes put on disk.
    pub bytes: u64,
    /// The disk incidents the writes survived and the generations trimmed
    /// to absorb them, ready to fold into the run's report.
    pub disk: DegradedReport,
}

impl Written {
    /// Adds another report's counts and incidents to this one.
    pub(crate) fn absorb(&mut self, other: Written) {
        self.writes += other.writes;
        self.bytes += other.bytes;
        self.disk.absorb(other.disk);
    }

    /// The non-zero counts as `(metric suffix, value)` pairs, for an
    /// engine to publish under its own prefix (`fleet.`, `scenario.`).
    pub fn metrics(&self) -> Vec<(&'static str, u64)> {
        let faults = |kind| {
            self.disk
                .disk_incidents
                .iter()
                .filter(|i| i.kind == kind)
                .count() as u64
        };
        [
            ("checkpoints_written", self.writes),
            ("checkpoint_bytes", self.bytes),
            ("retention_trims", self.disk.retention_trims),
            ("disk_fault_enospc", faults(DiskFaultKind::Enospc)),
            ("disk_fault_torn", faults(DiskFaultKind::TornWrite)),
            ("disk_fault_fsync", faults(DiskFaultKind::FsyncFail)),
            ("disk_fault_slow", faults(DiskFaultKind::SlowWrite)),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect()
    }
}

/// Writes `bytes` to `path` atomically *and durably*: temp file, fsync,
/// rename, then fsync of the parent directory. Without the two fsyncs
/// the rename can be persisted before the data (a torn write) or the new
/// directory entry lost entirely on power failure — "atomic" would only
/// hold against process death, not against the crashes checkpoints exist
/// for.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    let at = |path: &Path| {
        let path = path.to_path_buf();
        move |source| CheckpointError { path, source }
    };
    let mut file = std::fs::File::create(&tmp).map_err(at(&tmp))?;
    file.write_all(bytes).map_err(at(&tmp))?;
    file.sync_all().map_err(at(&tmp))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(at(path))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Directories cannot be fsynced on some platforms (e.g. Windows);
        // best-effort there, but real failures surface on unix.
        match std::fs::File::open(dir).and_then(|d| d.sync_all()) {
            Ok(()) => {}
            Err(e) if cfg!(unix) => return Err(at(dir)(e)),
            Err(_) => {}
        }
    }
    Ok(())
}

/// A checkpoint file plus its last `keep - 1` predecessor generations:
/// `base` is the newest, `base.1` the one before it, and so on. One
/// corrupted (or torn, or truncated) write then costs a replay from the
/// previous generation instead of the whole run.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    base: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// A store at `base` keeping `keep` generations (clamped to ≥ 1).
    pub fn new(base: impl Into<PathBuf>, keep: usize) -> Self {
        Self {
            base: base.into(),
            keep: keep.max(1),
        }
    }

    /// The newest generation's path.
    pub fn base_path(&self) -> &Path {
        &self.base
    }

    /// The path of generation `generation` (0 = newest).
    pub fn generation_path(&self, generation: usize) -> PathBuf {
        if generation == 0 {
            self.base.clone()
        } else {
            PathBuf::from(format!("{}.{generation}", self.base.display()))
        }
    }

    /// Shifts every generation one slot older (the oldest falls off).
    /// Missing generations are skipped.
    fn rotate(&self) -> Result<(), CheckpointError> {
        for generation in (0..self.keep - 1).rev() {
            let from = self.generation_path(generation);
            match std::fs::rename(&from, self.generation_path(generation + 1)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(source) => return Err(CheckpointError { path: from, source }),
            }
        }
        Ok(())
    }

    /// Deletes the oldest on-disk generation (never the newest) to
    /// relieve disk pressure. Returns whether anything was removed.
    fn trim_oldest(&self) -> bool {
        (1..self.keep)
            .rev()
            .any(|generation| std::fs::remove_file(self.generation_path(generation)).is_ok())
    }

    /// Rotates the generations and writes `payload` as the newest,
    /// returning the byte count.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any filesystem failure.
    pub fn write(&self, payload: &(impl Checkpoint + ?Sized)) -> Result<u64, CheckpointError> {
        let mut bytes = Vec::new();
        payload.encode_into(&mut bytes);
        Ok(self.write_bytes(&mut bytes, None, 0)?.bytes)
    }

    /// Rotates the generations and writes `bytes` as the newest, after
    /// `plan` has had its say on write number `write_index`. The plan may
    /// flip a bit or truncate the bytes, and may inject one disk fault,
    /// each contained rather than fatal:
    ///
    /// - **ENOSPC**: nothing lands; the previous generation stays newest
    ///   and the oldest generation is trimmed to relieve pressure.
    /// - **Torn write**: only a seeded prefix of the file reaches the
    ///   disk (resume-time generation fallback absorbs it).
    /// - **Failed fsync**: the write is abandoned before rename; the
    ///   previous generation stays newest.
    /// - **Slow write**: the write stalls briefly, then lands intact.
    ///
    /// Injected faults are reported in [`Written::disk`]; only genuine
    /// filesystem failures are errors.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any genuine filesystem failure.
    pub fn write_bytes(
        &self,
        bytes: &mut Vec<u8>,
        plan: Option<&FaultPlan>,
        write_index: u64,
    ) -> Result<Written, CheckpointError> {
        let mut out = Written::default();
        if let Some(plan) = plan {
            plan.corrupt_checkpoint(write_index, bytes);
            if let Some(kind) = plan.disk_fault(write_index) {
                out.disk
                    .disk_incidents
                    .push(DiskIncident { kind, write_index });
                match kind {
                    DiskFaultKind::Enospc => {
                        if self.trim_oldest() {
                            out.disk.retention_trims += 1;
                        }
                        return Ok(out);
                    }
                    DiskFaultKind::FsyncFail => return Ok(out),
                    DiskFaultKind::TornWrite => {
                        bytes.truncate(plan.torn_length(write_index, bytes.len()));
                    }
                    DiskFaultKind::SlowWrite => std::thread::sleep(SLOW_WRITE_STALL),
                }
            }
        }
        self.rotate()?;
        write_atomic(&self.base, bytes)?;
        out.writes = 1;
        out.bytes = bytes.len() as u64;
        Ok(out)
    }

    /// Walks the generations newest-first and returns the first one
    /// `decode` accepts, together with a [`CheckpointFallback`] record for
    /// every newer generation that was unreadable or that `decode`
    /// rejected (its error message is the reason).
    ///
    /// All generations missing (a fresh start) or all rejected both
    /// return `None` — the latter with the records saying why the run is
    /// starting over. A decoder that must stop the walk instead (a valid
    /// checkpoint of some *other* run) returns `Ok` with that verdict
    /// inside.
    pub fn read_newest_valid<T, E: std::fmt::Display>(
        &self,
        mut decode: impl FnMut(&[u8]) -> Result<T, E>,
    ) -> (Option<T>, Vec<CheckpointFallback>) {
        let mut fallbacks = Vec::new();
        for generation in 0..self.keep {
            let reason = match std::fs::read(self.generation_path(generation)) {
                Ok(bytes) => match decode(&bytes) {
                    Ok(found) => return (Some(found), fallbacks),
                    Err(e) => e.to_string(),
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => format!("unreadable: {e}"),
            };
            fallbacks.push(CheckpointFallback {
                generation: generation as u64,
                reason,
            });
        }
        (None, fallbacks)
    }
}

/// A write-behind checkpoint writer: one dedicated thread that lands
/// encoded checkpoints through a [`CheckpointStore`] while the caller
/// keeps stepping.
///
/// [`Writer::submit`] waits for the previous write, takes its buffer
/// back, encodes into it on the calling thread and hands it over, so at
/// most one write is ever in flight and one buffer serves the whole run.
/// Write indices count submissions from 0, so a fault plan corrupts the
/// same writes on every identically seeded run. Write errors surface at
/// the next [`Writer::submit`] or at [`Writer::finish`]; dropping the
/// writer also waits for the write in flight.
#[derive(Debug)]
pub(crate) struct Writer {
    base: PathBuf,
    jobs: Option<SyncSender<(Vec<u8>, u64)>>,
    landed: Receiver<(Vec<u8>, Result<Written, CheckpointError>)>,
    thread: Option<JoinHandle<()>>,
    /// The buffer to encode into next; `None` while a write is in flight.
    spare: Option<Vec<u8>>,
    next_index: u64,
    written: Written,
}

impl Writer {
    /// Spawns the writer thread for `store`, injecting `plan`'s
    /// checkpoint corruption and disk faults.
    pub(crate) fn spawn(store: CheckpointStore, plan: Option<FaultPlan>) -> Self {
        let (jobs, queue) = sync_channel::<(Vec<u8>, u64)>(1);
        let (done, landed) = sync_channel(1);
        let base = store.base.clone();
        let thread = std::thread::Builder::new()
            .name("dh-ckpt-writer".into())
            .spawn(move || {
                for (mut bytes, index) in queue {
                    let result = store.write_bytes(&mut bytes, plan.as_ref(), index);
                    if done.send((bytes, result)).is_err() {
                        return;
                    }
                }
            })
            .expect("failed to spawn checkpoint writer thread");
        Self {
            base,
            jobs: Some(jobs),
            landed,
            thread: Some(thread),
            spare: Some(Vec::new()),
            next_index: 0,
            written: Written::default(),
        }
    }

    fn vanished(&self) -> CheckpointError {
        CheckpointError {
            path: self.base.clone(),
            source: std::io::Error::other("checkpoint writer thread died"),
        }
    }

    /// Waits for the write in flight, if any, and takes its buffer back.
    fn wait(&mut self) -> Result<(), CheckpointError> {
        if self.spare.is_none() {
            let (bytes, result) = self.landed.recv().map_err(|_| self.vanished())?;
            self.spare = Some(bytes);
            self.written.absorb(result?);
        }
        Ok(())
    }

    /// Waits for the previous write, encodes the next checkpoint with
    /// `encode` into the buffer it returned, and hands it to the thread.
    ///
    /// # Errors
    ///
    /// The previous write's [`CheckpointError`].
    pub(crate) fn submit(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), CheckpointError> {
        self.wait()?;
        let mut bytes = self
            .spare
            .take()
            .expect("no write is in flight after a wait");
        bytes.clear();
        encode(&mut bytes);
        let sent = self
            .jobs
            .as_ref()
            .map(|jobs| jobs.send((bytes, self.next_index)));
        if !matches!(sent, Some(Ok(()))) {
            return Err(self.vanished());
        }
        self.next_index += 1;
        Ok(())
    }

    /// Waits for the last write and reports what every write did.
    ///
    /// # Errors
    ///
    /// The last write's [`CheckpointError`].
    pub(crate) fn finish(mut self) -> Result<Written, CheckpointError> {
        self.wait()?;
        Ok(std::mem::take(&mut self.written))
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        // Closing the queue lets the thread land its in-flight write and
        // exit; joining leaves the disk consistent on every exit path.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A store keeping its generations in a [`crate::TempDir`], which goes
/// when the store does.
#[cfg(test)]
pub(crate) struct TempStore {
    store: CheckpointStore,
    _dir: crate::TempDir,
}

#[cfg(test)]
impl std::ops::Deref for TempStore {
    type Target = CheckpointStore;

    fn deref(&self) -> &CheckpointStore {
        &self.store
    }
}

/// A store keeping `keep` generations in a fresh temp directory.
#[cfg(test)]
pub(crate) fn temp_store(tag: &str, keep: usize) -> TempStore {
    let dir = crate::TempDir::new(&format!("fault-{tag}"));
    let store = CheckpointStore::new(dir.join("run.ckpt"), keep);
    TempStore { store, _dir: dir }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{fnv1a, put_u64, take_u64, FNV_OFFSET};

    /// A checksummed one-number payload: the cursor, then its FNV-1a.
    struct Cursor(u64);

    impl Checkpoint for Cursor {
        fn encode_into(&self, buf: &mut Vec<u8>) {
            buf.clear();
            put_u64(buf, self.0);
            put_u64(buf, fnv1a(FNV_OFFSET, &self.0.to_le_bytes()));
        }
    }

    fn decode(bytes: &[u8]) -> Result<u64, String> {
        let mut view = bytes;
        let cursor = take_u64(&mut view, "cursor").map_err(|e| e.0)?;
        let sum = take_u64(&mut view, "checksum").map_err(|e| e.0)?;
        if sum != fnv1a(FNV_OFFSET, &cursor.to_le_bytes()) || !view.is_empty() {
            return Err("checksum mismatch".into());
        }
        Ok(cursor)
    }

    /// The cursor in generation `generation`, if it exists and decodes.
    fn read(store: &CheckpointStore, generation: usize) -> Option<u64> {
        let bytes = std::fs::read(store.generation_path(generation)).ok()?;
        decode(&bytes).ok()
    }

    /// Writes `Cursor(cursor)` as write 0 under the fault plan `spec`.
    fn inject(store: &CheckpointStore, cursor: u64, spec: &str) -> Written {
        let mut bytes = Vec::new();
        Cursor(cursor).encode_into(&mut bytes);
        let plan = FaultPlan::parse(spec, 7).unwrap();
        store.write_bytes(&mut bytes, Some(&plan), 0).unwrap()
    }

    fn write_cursors(store: &CheckpointStore, cursors: std::ops::Range<u64>) {
        for cursor in cursors {
            store.write(&Cursor(cursor)).unwrap();
        }
    }

    #[test]
    fn store_rotates_generations_oldest_off_the_end() {
        let store = temp_store("ckpt-rotate", 3);
        write_cursors(&store, 5..8);
        assert_eq!((read(&store, 0), read(&store, 1)), (Some(7), Some(6)));
        assert_eq!(read(&store, 2), Some(5));
        // A fourth write drops cursor 5 off the end.
        write_cursors(&store, 8..9);
        assert_eq!(read(&store, 2), Some(6));
        assert!(!store.generation_path(3).exists());
    }

    #[test]
    fn async_rotation_retains_exactly_keep_generations() {
        // The `--keep k` contract, across the writer thread: after any
        // number of writes exactly k generations exist, holding the k
        // newest checkpoints in order, and `base.k` never appears.
        let keep = 3;
        let store = temp_store("ckpt-async-retention", keep);
        let mut writer = Writer::spawn(store.clone(), None);
        for cursor in 1..=7 {
            writer
                .submit(|buf| Cursor(cursor).encode_into(buf))
                .unwrap();
        }
        assert_eq!(writer.finish().unwrap().writes, 7);
        for generation in 0..keep {
            assert_eq!(read(&store, generation), Some(7 - generation as u64));
        }
        assert!(!store.generation_path(keep).exists());
        assert!(!store.generation_path(keep + 1).exists());
    }

    #[test]
    fn truncated_newest_generation_falls_back_to_the_previous() {
        let store = temp_store("ckpt-truncated-newest", 3);
        write_cursors(&store, 1..3);
        let newest = store.generation_path(0);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (found, fallbacks) = store.read_newest_valid(decode);
        assert_eq!(found, Some(1), "fell back to generation 1");
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].generation, 0);
    }

    #[test]
    fn read_newest_valid_falls_back_over_corruption() {
        let store = temp_store("ckpt-fallback", 3);
        write_cursors(&store, 1..4);
        let newest = store.generation_path(0);
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes[3] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();
        let (found, fallbacks) = store.read_newest_valid(decode);
        assert_eq!(found, Some(2), "fell back to generation 1");
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].generation, 0);
        assert!(fallbacks[0].reason.contains("checksum"));
    }

    #[test]
    fn all_generations_invalid_restarts_with_the_record() {
        let store = temp_store("ckpt-all-bad", 2);
        write_cursors(&store, 0..2);
        for generation in 0..2 {
            std::fs::write(store.generation_path(generation), b"garbage").unwrap();
        }
        let (found, fallbacks) = store.read_newest_valid(decode);
        assert!(found.is_none());
        assert_eq!(fallbacks.len(), 2);
    }

    #[test]
    fn missing_generations_are_not_fallbacks() {
        let (found, fallbacks) = temp_store("ckpt-fresh", 3).read_newest_valid(decode);
        assert!(found.is_none());
        assert!(fallbacks.is_empty(), "a fresh start is not a fallback");
    }

    #[test]
    fn async_writer_surfaces_io_errors() {
        let dir = temp_store("ckpt-async-io-error", 1).generation_path(0);
        let doomed = CheckpointStore::new(dir.with_extension("d").join("run.ckpt"), 2);
        // A submit is accepted; its failure lands on the next submit, or
        // on the final drain.
        let mut writer = Writer::spawn(doomed.clone(), None);
        writer.submit(|buf| Cursor(1).encode_into(buf)).unwrap();
        let err = writer.submit(|buf| Cursor(2).encode_into(buf)).unwrap_err();
        assert!(err.to_string().contains("run.d"), "{err}");
        let mut writer = Writer::spawn(doomed, None);
        writer.submit(|buf| Cursor(1).encode_into(buf)).unwrap();
        assert!(writer.finish().is_err());
    }

    #[test]
    fn enospc_keeps_the_previous_generation_and_trims_the_oldest() {
        let store = temp_store("ckpt-enospc", 3);
        write_cursors(&store, 1..4);
        let out = inject(&store, 99, "disk-full=1");
        assert_eq!(out.writes, 0, "nothing may land under ENOSPC");
        assert_eq!(out.disk.disk_incidents[0].kind, DiskFaultKind::Enospc);
        assert_eq!(out.disk.retention_trims, 1);
        assert_eq!((read(&store, 0), read(&store, 1)), (Some(3), Some(2)));
        assert!(!store.generation_path(2).exists(), "the oldest was trimmed");
    }

    #[test]
    fn failed_fsync_abandons_the_write_cleanly() {
        let store = temp_store("ckpt-fsync-fail", 2);
        write_cursors(&store, 1..2);
        let out = inject(&store, 2, "disk-fsync=1");
        assert_eq!(out.bytes, 0);
        assert_eq!(out.disk.disk_incidents[0].kind, DiskFaultKind::FsyncFail);
        // No rotation: the previous write is still newest.
        assert_eq!(read(&store, 0), Some(1));
        assert!(!store.generation_path(1).exists());
    }

    #[test]
    fn torn_write_costs_one_generation_not_the_run() {
        let store = temp_store("ckpt-torn", 2);
        write_cursors(&store, 1..2);
        let out = inject(&store, 2, "disk-torn=1");
        assert_eq!(out.disk.disk_incidents[0].kind, DiskFaultKind::TornWrite);
        assert!(out.bytes < 16, "a strict prefix landed");
        let (found, fallbacks) = store.read_newest_valid(decode);
        assert_eq!(found, Some(1));
        assert_eq!(fallbacks.len(), 1);
        assert_eq!(fallbacks[0].generation, 0);
    }

    #[test]
    fn async_writer_reports_disk_incidents_at_finish() {
        let store = temp_store("ckpt-async-disk", 2);
        let plan = FaultPlan::parse("disk-fsync=1", 7).unwrap();
        let mut writer = Writer::spawn(store.clone(), Some(plan));
        for cursor in 0..3 {
            writer
                .submit(|buf| Cursor(cursor).encode_into(buf))
                .unwrap();
        }
        let written = writer.finish().unwrap();
        assert_eq!(written.writes, 0);
        let kinds: Vec<_> = written.disk.disk_incidents.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![DiskFaultKind::FsyncFail; 3]);
        assert_eq!(written.metrics(), vec![("disk_fault_fsync", 3)]);
    }
}
