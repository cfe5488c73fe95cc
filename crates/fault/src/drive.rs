//! The one run driver: step → write → absorb, for every engine and
//! surface.
//!
//! The fleet engine, the scenario engine, the `fleet` CLI and both
//! `dh-serve` job kinds all run through [`drive`]. Each engine adapts its
//! run to [`Run`] on a small struct that borrows the run, its fault plan
//! and its retry policy; the driver owns the checkpoint cadence, the
//! write-index discipline fault plans key on, and the rule that a run's
//! own disk incidents never reach its checkpoints.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointStore, Writer, Written};
use crate::{DegradedReport, FaultPlan};

/// A resumable run the driver can step and checkpoint.
pub trait Run: Checkpoint {
    /// Steps up to `stride` more shards under supervision and returns
    /// whether the run is complete. Stepping a complete run is a no-op
    /// that returns `true`.
    fn step(&mut self, stride: u64) -> bool;

    /// The faults injected into the run's steps and checkpoint writes.
    fn plan(&self) -> Option<&FaultPlan>;

    /// Everything the run has survived so far.
    fn degraded(&self) -> &DegradedReport;

    /// Takes in what this [`drive`] call's checkpoint writes did, once,
    /// after the last of them landed: the disk incidents join the run's
    /// degraded report and the counts feed the engine's metrics.
    fn absorb(&mut self, written: Written);
}

/// Where and how often [`drive`] checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoints<'a> {
    /// The generation store the writes land in.
    pub store: &'a CheckpointStore,
    /// Steps between writes (0 counts as 1).
    pub every: u64,
}

/// Steps `run` `stride` shards at a time until it completes or `cancel`
/// (asked before every step) returns `true`, calling `on_step` after
/// every step. With `checkpoints`, a write-behind writer thread lands a
/// checkpoint after steps `every`, `2·every`, … and once after the final
/// step, with [`Run::plan`]'s checkpoint corruption and disk faults
/// injected. Write indices count from 0 on every call, so a fault plan
/// hits the same writes on every identically seeded process.
///
/// Once the writer has drained — on completion and on cancel — its
/// report goes to [`Run::absorb`]. No checkpoint written by this call
/// therefore holds this call's disk incidents, and a resume never counts
/// them twice. Returns whether the run completed.
///
/// # Errors
///
/// A genuine checkpoint I/O failure. The writer has drained by the time
/// the error is returned.
pub fn drive<R: Run>(
    run: &mut R,
    stride: u64,
    checkpoints: Option<Checkpoints<'_>>,
    mut cancel: impl FnMut() -> bool,
    mut on_step: impl FnMut(&R),
) -> Result<bool, CheckpointError> {
    let mut writer = checkpoints.map(|c| {
        (
            Writer::spawn(c.store.clone(), run.plan().cloned()),
            c.every.max(1),
        )
    });
    let mut steps = 0u64;
    let finished = loop {
        if cancel() {
            break false;
        }
        let done = run.step(stride);
        steps += 1;
        if let Some((writer, every)) = &mut writer {
            if done || steps.is_multiple_of(*every) {
                writer.submit(|buf| run.encode_into(buf))?;
            }
        }
        on_step(run);
        if done {
            break true;
        }
    };
    if let Some((writer, _)) = writer {
        run.absorb(writer.finish()?);
    }
    Ok(finished)
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use super::*;
    use crate::checkpoint::temp_store;
    use crate::wire::{put_u64, take_u64};

    /// A run of `total` one-shard steps whose checkpoint is its step
    /// count and the disk incidents in its report.
    #[derive(Default)]
    struct Fake {
        total: u64,
        steps: u64,
        plan: Option<FaultPlan>,
        degraded: DegradedReport,
        /// The step count at every encode, in order.
        encoded: RefCell<Vec<u64>>,
        absorbed: Option<Written>,
    }

    impl Checkpoint for Fake {
        fn encode_into(&self, buf: &mut Vec<u8>) {
            self.encoded.borrow_mut().push(self.steps);
            buf.clear();
            put_u64(buf, self.steps);
            put_u64(buf, self.degraded.disk_incidents.len() as u64);
        }
    }

    impl Run for Fake {
        fn step(&mut self, stride: u64) -> bool {
            self.steps = (self.steps + stride).min(self.total);
            self.steps == self.total
        }

        fn plan(&self) -> Option<&FaultPlan> {
            self.plan.as_ref()
        }

        fn degraded(&self) -> &DegradedReport {
            &self.degraded
        }

        fn absorb(&mut self, written: Written) {
            self.degraded.absorb(written.disk.clone());
            self.absorbed = Some(written);
        }
    }

    /// A fresh [`Fake`] of `total` steps.
    fn fake(total: u64) -> Fake {
        Fake {
            total,
            ..Fake::default()
        }
    }

    /// Drives `run` one shard per step, writing into `store` every
    /// `every` steps under the fault plan `spec`, until `cancel`.
    fn drive_into(
        run: &mut Fake,
        store: &CheckpointStore,
        every: u64,
        spec: &str,
        cancel: impl FnMut() -> bool,
    ) -> Result<bool, CheckpointError> {
        run.plan = Some(FaultPlan::parse(spec, 5).unwrap());
        drive(run, 1, Some(Checkpoints { store, every }), cancel, |_| {})
    }

    /// `(steps, disk incidents)` of every generation on disk, newest first.
    fn generations(store: &CheckpointStore, keep: usize) -> Vec<(u64, u64)> {
        (0..keep)
            .filter_map(|g| std::fs::read(store.generation_path(g)).ok())
            .map(|bytes| {
                let mut view = bytes.as_slice();
                let steps = take_u64(&mut view, "steps").unwrap();
                (steps, take_u64(&mut view, "disk").unwrap())
            })
            .collect()
    }

    #[test]
    fn writes_land_every_stride_and_once_after_the_final_step() {
        let store = temp_store("drive-cadence", 8);
        for (total, every, expect) in [
            (7, 3, vec![3, 6, 7]),
            (6, 3, vec![3, 6]),
            (2, 5, vec![2]),
            (3, 1, vec![1, 2, 3]),
            (3, 0, vec![1, 2, 3]),
        ] {
            let mut run = fake(total);
            let checkpoints = Checkpoints {
                store: &store,
                every,
            };
            let mut seen = 0;
            assert!(drive(&mut run, 1, Some(checkpoints), || false, |_| seen += 1).unwrap());
            assert_eq!(seen, total, "on_step runs after every step");
            assert_eq!(*run.encoded.borrow(), expect, "{total} steps every {every}");
            let written = run.absorbed.expect("absorbed once the writer drained");
            assert_eq!(written.writes, expect.len() as u64);
            assert_eq!(generations(&store, 1), vec![(total, 0)]);
        }
        // A complete run still steps once (a no-op) and writes once.
        let mut done = fake(2);
        done.steps = 2;
        assert!(drive_into(&mut done, &store, 4, "", || false).unwrap());
        assert_eq!(*done.encoded.borrow(), vec![2]);
    }

    #[test]
    fn write_indices_restart_at_zero_on_every_call() {
        let store = temp_store("drive-indices", 3);
        for _ in 0..2 {
            let mut run = fake(4);
            assert!(drive_into(&mut run, &store, 1, "disk-torn=2", || false).unwrap());
            let hit: Vec<u64> = run
                .degraded
                .disk_incidents
                .iter()
                .map(|i| i.write_index)
                .collect();
            assert_eq!(hit, vec![1, 3], "the second and fourth write of each call");
            assert_eq!(run.absorbed.unwrap().writes, 4, "torn writes still land");
        }
    }

    #[test]
    fn no_generation_holds_a_disk_incident_of_its_own_call() {
        let store = temp_store("drive-deferred", 6);
        let mut run = fake(5);
        assert!(drive_into(&mut run, &store, 1, "disk-slow=2", || false).unwrap());
        assert_eq!(run.degraded.disk_incidents.len(), 2, "slow writes 1 and 3");
        let on_disk = generations(&store, 6);
        assert_eq!(on_disk.len(), 5, "slow writes still land");
        assert!(on_disk.iter().all(|&(_, disk)| disk == 0), "{on_disk:?}");
    }

    #[test]
    fn cancel_stops_before_the_next_step_and_drains_the_writer() {
        let store = temp_store("drive-cancel", 2);
        let mut run = fake(10);
        let asked = Cell::new(0);
        let cancel = || {
            asked.set(asked.get() + 1);
            asked.get() > 3
        };
        assert!(!drive_into(&mut run, &store, 1, "disk-slow=1", cancel).unwrap());
        assert_eq!(run.steps, 3, "no step after the cancel");
        // The third (slow) write landed before `drive` returned.
        assert_eq!(generations(&store, 2), vec![(3, 0), (2, 0)]);
        let written = run.absorbed.expect("a cancelled call still absorbs");
        assert_eq!((written.writes, written.disk.disk_incidents.len()), (3, 3));
    }

    #[test]
    fn an_unwritable_directory_is_an_error_not_a_panic() {
        let dir = temp_store("drive-unwritable", 1).generation_path(0);
        let store = CheckpointStore::new(dir.join("missing").join("run.ckpt"), 2);
        for every in [1, 100] {
            let mut run = fake(4);
            let result = drive_into(&mut run, &store, every, "", || false);
            assert!(result.is_err(), "every {every}: {result:?}");
            assert!(run.absorbed.is_none());
        }
    }
}
