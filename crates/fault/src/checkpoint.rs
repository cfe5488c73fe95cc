//! The checkpoint layer every engine writes through: a checkpoint's
//! temp file, a K-generation store that lands it durably with seeded disk
//! faults and newest-valid fallback, and one write-behind writer thread.
//!
//! The store knows nothing about payload formats. Engines write their
//! state (DHFL, DHSP) into a generation's [`CheckpointFile`], in one
//! piece or section by section from the workers of a parallel step, and
//! hand the filled file over; nothing holds a second copy of a
//! generation in memory. On resume they pass a decoder, and the store
//! walks the generations newest-first until one decodes. What a write did
//! — bytes landed, disk incidents survived, generations trimmed — comes
//! back as a [`Written`] report, which the engines fold into their
//! degraded report and publish under their own metric names.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::plan::CheckpointDamage;
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
    pub source: io::Error,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for CheckpointError {}

/// Maps an OS error on `path` into a [`CheckpointError`].
fn at(path: &Path) -> impl FnOnce(io::Error) -> CheckpointError + '_ {
    move |source| CheckpointError {
        path: path.to_path_buf(),
        source,
    }
}

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

/// Writes all of `bytes` at `offset`, leaving the file cursor alone, so
/// threads can write their own ranges of one file at once.
#[cfg(unix)]
fn write_all_at(file: &File, bytes: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, bytes, offset)
}

/// Reads exactly `buf.len()` bytes at `offset`.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn write_all_at(file: &File, mut bytes: &[u8], mut offset: u64) -> io::Result<()> {
    while !bytes.is_empty() {
        match std::os::windows::fs::FileExt::seek_write(file, bytes, offset) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => (bytes, offset) = (&bytes[n..], offset + n as u64),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    while !buf.is_empty() {
        match std::os::windows::fs::FileExt::seek_read(file, buf, offset) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => (buf, offset) = (&mut buf[n..], offset + n as u64),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The temp file one checkpoint generation is written into before it
/// lands. The caller fills it with positional writes, from any number of
/// threads at once — a parallel step writes each shard's section at its
/// own offset — and hands it to the store, which applies the fault
/// plan's damage to the file, fsyncs it and renames it over the newest
/// generation.
///
/// A failed write does not panic the writing thread: the first failure
/// is kept, and landing the file returns it as the write's
/// [`CheckpointError`]. A file that never lands is removed when it drops.
#[derive(Debug)]
pub struct CheckpointFile {
    file: File,
    path: PathBuf,
    /// The first failed write's error, if any.
    failed: OnceLock<io::Error>,
    /// Whether the file was renamed into place, so its path is no longer
    /// this file's to remove.
    landed: bool,
}

impl CheckpointFile {
    /// Creates (or empties) the temp file at `path`, readable too, so a
    /// bit flip can read the byte it flips.
    fn create(path: PathBuf) -> Result<Self, CheckpointError> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(at(&path))?;
        Ok(Self {
            file,
            path,
            failed: OnceLock::new(),
            landed: false,
        })
    }

    /// Writes `bytes` at byte `offset` of the file. A failure is kept for
    /// the landing to report, and the caller carries on.
    pub fn write_at(&self, bytes: &[u8], offset: u64) {
        if let Err(e) = write_all_at(&self.file, bytes, offset) {
            let _ = self.failed.set(e);
        }
    }

    /// Writes `payload`'s whole encoding from byte 0.
    pub fn write_checkpoint(&self, payload: &(impl Checkpoint + ?Sized)) {
        let mut bytes = Vec::new();
        payload.encode_into(&mut bytes);
        self.write_at(&bytes, 0);
    }

    /// The first failed write's error.
    fn check(&mut self) -> Result<(), CheckpointError> {
        self.failed
            .take()
            .map_or(Ok(()), |e| Err(at(&self.path)(e)))
    }

    /// The file's length in bytes.
    fn len(&self) -> Result<usize, CheckpointError> {
        let meta = self.file.metadata().map_err(at(&self.path))?;
        Ok(meta.len() as usize)
    }

    /// Cuts the file to its first `len` bytes.
    fn truncate(&self, len: usize) -> Result<(), CheckpointError> {
        self.file.set_len(len as u64).map_err(at(&self.path))
    }

    /// Applies a fault plan's damage to the file's bytes.
    fn damage(&self, damage: CheckpointDamage) -> Result<(), CheckpointError> {
        match damage {
            CheckpointDamage::FlipBit { byte, bit } => {
                let mut b = [0u8];
                read_exact_at(&self.file, &mut b, byte as u64)
                    .and_then(|()| write_all_at(&self.file, &[b[0] ^ (1 << bit)], byte as u64))
                    .map_err(at(&self.path))
            }
            CheckpointDamage::Truncate { keep } => self.truncate(keep),
        }
    }
}

impl Drop for CheckpointFile {
    fn drop(&mut self) {
        if !self.landed {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Fsyncs the directory holding `path`, so a rename into it survives a
/// power failure. Directories cannot be fsynced on some platforms (e.g.
/// Windows); best-effort there, but real failures surface on unix.
fn sync_dir(path: &Path) -> Result<(), CheckpointError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        match File::open(dir).and_then(|d| d.sync_all()) {
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

    /// The temp file write number `write_index` fills: `base.tmp0` and
    /// `base.tmp1` by turns, so one write can fill while the one before
    /// it lands.
    pub fn temp_path(&self, write_index: u64) -> PathBuf {
        PathBuf::from(format!("{}.tmp{}", self.base.display(), write_index % 2))
    }

    /// Creates the temp file of write number `write_index`.
    fn create(&self, write_index: u64) -> Result<CheckpointFile, CheckpointError> {
        CheckpointFile::create(self.temp_path(write_index))
    }

    /// Shifts every generation one slot older (the oldest falls off).
    /// Missing generations are skipped.
    fn rotate(&self) -> Result<(), CheckpointError> {
        for generation in (0..self.keep - 1).rev() {
            let from = self.generation_path(generation);
            match std::fs::rename(&from, self.generation_path(generation + 1)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
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
        let file = self.create(0)?;
        file.write_checkpoint(payload);
        Ok(self.land(file, None, 0)?.bytes)
    }

    /// [`CheckpointStore::land`]s `bytes` as write number `write_index`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any genuine filesystem failure.
    pub fn write_bytes(
        &self,
        bytes: &[u8],
        plan: Option<&FaultPlan>,
        write_index: u64,
    ) -> Result<Written, CheckpointError> {
        let file = self.create(write_index)?;
        file.write_at(bytes, 0);
        self.land(file, plan, write_index)
    }

    /// Lands a filled temp file as the newest generation, after `plan`
    /// has had its say on write number `write_index`: temp file fsync,
    /// rotation, rename, then fsync of the parent directory. Without the
    /// two fsyncs the rename can be persisted before the data (a torn
    /// write) or the new directory entry lost entirely on power failure —
    /// "atomic" would only hold against process death, not against the
    /// crashes checkpoints exist for.
    ///
    /// The plan may flip a bit of the file or truncate it, and may inject
    /// one disk fault, each contained rather than fatal:
    ///
    /// - **ENOSPC**: nothing lands (the temp file is discarded); the
    ///   previous generation stays newest and the oldest generation is
    ///   trimmed to relieve pressure.
    /// - **Torn write**: only a seeded prefix of the file reaches the
    ///   disk (resume-time generation fallback absorbs it).
    /// - **Failed fsync**: the write is abandoned before rename; the
    ///   previous generation stays newest.
    /// - **Slow write**: the write stalls briefly, then lands intact.
    ///
    /// Injected faults are reported in [`Written::disk`]; only genuine
    /// filesystem failures, a failed write into the file among them, are
    /// errors.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any genuine filesystem failure.
    fn land(
        &self,
        mut file: CheckpointFile,
        plan: Option<&FaultPlan>,
        write_index: u64,
    ) -> Result<Written, CheckpointError> {
        file.check()?;
        let mut out = Written::default();
        if let Some(plan) = plan {
            if let Some(damage) = plan.checkpoint_damage(write_index, file.len()?) {
                file.damage(damage)?;
            }
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
                        file.truncate(plan.torn_length(write_index, file.len()?))?;
                    }
                    DiskFaultKind::SlowWrite => std::thread::sleep(SLOW_WRITE_STALL),
                }
            }
        }
        let bytes = file.len()?;
        file.file.sync_all().map_err(at(&file.path))?;
        self.rotate()?;
        std::fs::rename(&file.path, &self.base).map_err(at(&self.base))?;
        file.landed = true;
        sync_dir(&self.base)?;
        out.writes = 1;
        out.bytes = bytes as u64;
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
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
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
/// filled [`CheckpointFile`]s through a [`CheckpointStore`] while the
/// caller keeps stepping.
///
/// The caller opens write `i`'s temp file with [`Writer::create`] and
/// fills it while write `i - 1` may still be landing under the other temp
/// name; [`Writer::submit`] then waits for write `i - 1` and hands write
/// `i` over, so at most one write is ever in flight and the writer holds
/// no bytes of its own. Write indices count submissions from 0, so a
/// fault plan corrupts the same writes on every identically seeded run.
/// Write errors surface at the next [`Writer::submit`] or at
/// [`Writer::finish`]; dropping the writer also waits for the write in
/// flight.
#[derive(Debug)]
pub(crate) struct Writer {
    store: CheckpointStore,
    jobs: Option<SyncSender<(CheckpointFile, u64)>>,
    landed: Receiver<Result<Written, CheckpointError>>,
    thread: Option<JoinHandle<()>>,
    in_flight: bool,
    next_index: u64,
    written: Written,
}

impl Writer {
    /// Spawns the writer thread for `store`, injecting `plan`'s
    /// checkpoint corruption and disk faults.
    pub(crate) fn spawn(store: CheckpointStore, plan: Option<FaultPlan>) -> Self {
        let (jobs, queue) = sync_channel::<(CheckpointFile, u64)>(1);
        let (done, landed) = sync_channel(1);
        let lands = store.clone();
        let thread = std::thread::Builder::new()
            .name("dh-ckpt-writer".into())
            .spawn(move || {
                for (file, index) in queue {
                    if done.send(lands.land(file, plan.as_ref(), index)).is_err() {
                        return;
                    }
                }
            })
            .expect("failed to spawn checkpoint writer thread");
        Self {
            store,
            jobs: Some(jobs),
            landed,
            thread: Some(thread),
            in_flight: false,
            next_index: 0,
            written: Written::default(),
        }
    }

    fn vanished(&self) -> CheckpointError {
        CheckpointError {
            path: self.store.base.clone(),
            source: io::Error::other("checkpoint writer thread died"),
        }
    }

    /// Waits for the write in flight, if any.
    fn wait(&mut self) -> Result<(), CheckpointError> {
        if self.in_flight {
            let result = self.landed.recv().map_err(|_| self.vanished())?;
            self.in_flight = false;
            self.written.absorb(result?);
        }
        Ok(())
    }

    /// Creates the temp file of the next write, which may fill while the
    /// write in flight lands.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the file cannot be created.
    pub(crate) fn create(&self) -> Result<CheckpointFile, CheckpointError> {
        self.store.create(self.next_index)
    }

    /// Waits for the previous write and hands `file`, filled, to the
    /// thread.
    ///
    /// # Errors
    ///
    /// The previous write's [`CheckpointError`].
    pub(crate) fn submit(&mut self, file: CheckpointFile) -> Result<(), CheckpointError> {
        self.wait()?;
        let sent = self
            .jobs
            .as_ref()
            .map(|jobs| jobs.send((file, self.next_index)));
        if !matches!(sent, Some(Ok(()))) {
            return Err(self.vanished());
        }
        self.in_flight = true;
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

/// The generations, newest first, that a store keeping `keep` holds
/// after it lands `writes` (write indices from 0) into an empty directory
/// under `plan`, worked out in memory: each write's bytes with the plan's
/// damage (`FaultPlan::landed_bytes`), rotation, and the oldest generation
/// trimmed on ENOSPC. The reference the file path is tested against.
#[doc(hidden)]
pub fn expected_generations(
    plan: Option<&FaultPlan>,
    writes: impl IntoIterator<Item = Vec<u8>>,
    keep: usize,
) -> Vec<Vec<u8>> {
    let mut generations: Vec<Vec<u8>> = Vec::new();
    for (index, bytes) in (0u64..).zip(writes) {
        let fault = plan.and_then(|p| p.disk_fault(index));
        let landed = match plan {
            Some(plan) => plan.landed_bytes(index, bytes),
            None => Some(bytes),
        };
        match landed {
            Some(landed) => generations.insert(0, landed),
            // ENOSPC trims the oldest generation, never the newest.
            None if fault == Some(DiskFaultKind::Enospc) => {
                generations.truncate(generations.len().saturating_sub(1).max(1));
            }
            None => {}
        }
        generations.truncate(keep);
    }
    generations
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
        store.write_bytes(&bytes, Some(&plan), 0).unwrap()
    }

    /// Fills the writer's next temp file with `Cursor(cursor)` and
    /// submits it.
    fn submit(writer: &mut Writer, cursor: u64) -> Result<(), CheckpointError> {
        let file = writer.create()?;
        file.write_checkpoint(&Cursor(cursor));
        writer.submit(file)
    }

    /// The names in the store's directory, sorted.
    fn files(store: &CheckpointStore) -> Vec<String> {
        let dir = store.base_path().parent().unwrap();
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
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
            submit(&mut writer, cursor).unwrap();
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
        // No temp file can be made in a missing directory.
        let doomed = CheckpointStore::new(dir.with_extension("d").join("run.ckpt"), 2);
        let writer = Writer::spawn(doomed, None);
        let err = writer.create().unwrap_err();
        assert!(err.to_string().contains("run.d"), "{err}");
        // A landing that fails (the newest generation's path is a
        // directory, so the rename cannot replace it) is accepted; its
        // failure lands on the next submit, or on the final drain.
        let store = temp_store("ckpt-async-land-error", 1);
        std::fs::create_dir(store.base_path()).unwrap();
        std::fs::write(store.base_path().join("keep"), b"x").unwrap();
        let mut writer = Writer::spawn(store.clone(), None);
        submit(&mut writer, 1).unwrap();
        let err = submit(&mut writer, 2).unwrap_err();
        assert!(err.to_string().contains("run.ckpt"), "{err}");
        let mut writer = Writer::spawn(store.clone(), None);
        submit(&mut writer, 1).unwrap();
        assert!(writer.finish().is_err());
        assert_eq!(files(&store), ["run.ckpt"], "no temp file is left behind");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_write_into_the_file_fails_its_landing_not_the_writer() {
        // The first temp file is the full device, so every write into it
        // fails with ENOSPC.
        let store = temp_store("ckpt-write-error", 2);
        std::os::unix::fs::symlink("/dev/full", store.temp_path(0)).unwrap();
        let mut writer = Writer::spawn(store.clone(), None);
        submit(&mut writer, 1).unwrap();
        let err = submit(&mut writer, 2).unwrap_err();
        assert_eq!(err.path, store.temp_path(0), "{err}");
        assert_eq!(err.source.raw_os_error(), Some(28), "{err}");
        assert!(store.generation_path(0).symlink_metadata().is_err());
        // The failed file is discarded; the next write's is too, unsent.
        drop(writer);
        assert!(files(&store).is_empty(), "{:?}", files(&store));
    }

    #[test]
    fn a_landed_file_carries_the_damage_the_plan_does_in_memory() {
        let specs = [
            "",
            "ckpt-flip=1",
            "ckpt-truncate=2",
            "disk-torn=1",
            "disk-full=0.5",
            "disk-fsync=0.5",
            "disk-slow=3",
            "ckpt-flip=2,disk-torn=3",
        ];
        let keep = 4;
        for spec in specs {
            let store = temp_store("ckpt-damage", keep);
            let plan = FaultPlan::parse(spec, 11).unwrap();
            let writes: Vec<Vec<u8>> = (0..6).map(|i| pattern(300 + 97 * i)).collect();
            for (index, bytes) in (0u64..).zip(&writes) {
                let out = store.write_bytes(bytes, Some(&plan), index).unwrap();
                let lands = plan.landed_bytes(index, bytes.clone()).is_some();
                assert_eq!(out.writes, u64::from(lands), "{spec} write {index}");
            }
            let expect = expected_generations(Some(&plan), writes, keep);
            assert_eq!(on_disk(&store), expect, "{spec}");
            let temps = files(&store).into_iter().filter(|f| f.contains("tmp"));
            assert_eq!(temps.count(), 0, "{spec}");
        }
    }

    /// Every generation on disk, newest first, up to the first missing.
    fn on_disk(store: &CheckpointStore) -> Vec<Vec<u8>> {
        (0..)
            .map_while(|g| std::fs::read(store.generation_path(g)).ok())
            .collect()
    }

    /// `n` bytes that are neither constant nor periodic within a word.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
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
            submit(&mut writer, cursor).unwrap();
        }
        let written = writer.finish().unwrap();
        assert_eq!(written.writes, 0);
        let kinds: Vec<_> = written.disk.disk_incidents.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![DiskFaultKind::FsyncFail; 3]);
        assert_eq!(written.metrics(), vec![("disk_fault_fsync", 3)]);
    }
}
