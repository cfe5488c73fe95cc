//! The one run driver: step → write → absorb, for every engine and
//! surface.
//!
//! The fleet engine, the scenario engine, the `fleet` CLI and both
//! `dh-serve` job kinds all run through [`drive`]. Each engine's run type
//! implements [`Run`], and its caller hands `drive` one step as a closure
//! over the engine's own file-writing step, with the fault plan, retry
//! policy and step size bound in. The driver owns the checkpoint cadence
//! (a write after every step), the write-index discipline fault plans key
//! on, and the rule that a run's own disk incidents never reach its
//! checkpoints.

use crate::checkpoint::{CheckpointError, CheckpointFile, CheckpointStore, Writer, Written};
use crate::{DegradedReport, FaultPlan};

/// A resumable run the driver can checkpoint.
pub trait Run {
    /// Everything the run has survived so far.
    fn degraded(&self) -> &DegradedReport;

    /// Takes in what this [`drive`] call's checkpoint writes did, once,
    /// after the last of them landed: the disk incidents join the run's
    /// degraded report and the counts feed the engine's metrics.
    fn absorb(&mut self, written: Written);
}

/// Calls `step` until it returns `true` (the run is complete) or `cancel`
/// returns `true`. `cancel` is asked before, and `on_step` called after,
/// every step. With a `store`, every step gets the temp file of a
/// checkpoint write and must leave the run's whole checkpoint in it; a
/// write-behind writer thread then lands it, the last one included, with
/// `plan`'s checkpoint corruption and disk faults applied, while the next
/// step fills the next file. Without a store, `step` gets no file. `step`
/// hands the plan to the engine itself for shard faults. Write indices
/// count from 0 on every call of `drive`, so a fault plan hits the same
/// writes on every identically seeded process.
///
/// Once the writer has drained — on completion and on cancel — its
/// report goes to [`Run::absorb`]. No checkpoint written by this call
/// therefore holds this call's disk incidents, and a resume never counts
/// them twice. Returns whether the run completed.
///
/// # Errors
///
/// A genuine checkpoint I/O failure, a failed write into a step's file
/// among them. The writer has drained by the time the error is returned.
pub fn drive<R: Run>(
    run: &mut R,
    mut step: impl FnMut(&mut R, Option<&CheckpointFile>) -> bool,
    store: Option<&CheckpointStore>,
    plan: Option<&FaultPlan>,
    mut cancel: impl FnMut() -> bool,
    mut on_step: impl FnMut(&R),
) -> Result<bool, CheckpointError> {
    let mut writer = store.map(|store| Writer::spawn(store.clone(), plan.cloned()));
    let finished = loop {
        if cancel() {
            break false;
        }
        let done = match &mut writer {
            Some(writer) => {
                let file = writer.create()?;
                let done = step(run, Some(&file));
                writer.submit(file)?;
                done
            }
            None => step(run, None),
        };
        on_step(run);
        if done {
            break true;
        }
    };
    if let Some(writer) = writer {
        run.absorb(writer.finish()?);
    }
    Ok(finished)
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use super::*;
    use crate::checkpoint::{temp_store, Checkpoint};
    use crate::wire::{put_u64, take_u64};

    /// A run of `total` shards whose checkpoint is its shard count and
    /// the disk incidents in its report.
    #[derive(Default)]
    struct Fake {
        total: u64,
        steps: u64,
        degraded: DegradedReport,
        /// The shards of every [`Fake::step`] call, in order.
        calls: Vec<u64>,
        /// The shard count at every encode, in order.
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

    impl Fake {
        /// Steps up to `shards` more shards, then writes the checkpoint
        /// into `file`; returns whether it is done.
        fn step(&mut self, shards: u64, file: Option<&CheckpointFile>) -> bool {
            self.calls.push(shards);
            self.steps = (self.steps + shards).min(self.total);
            if let Some(file) = file {
                file.write_checkpoint(self);
            }
            self.steps == self.total
        }
    }

    impl Run for Fake {
        fn degraded(&self) -> &DegradedReport {
            &self.degraded
        }

        fn absorb(&mut self, written: Written) {
            self.degraded.absorb(written.disk.clone());
            self.absorbed = Some(written);
        }
    }

    /// A fresh [`Fake`] of `total` shards.
    fn fake(total: u64) -> Fake {
        Fake {
            total,
            ..Fake::default()
        }
    }

    /// Drives `run` `every` shards per step, writing into `store` after
    /// every step under the fault plan `spec`, until `cancel`.
    fn drive_into(
        run: &mut Fake,
        store: &CheckpointStore,
        every: u64,
        spec: &str,
        cancel: impl FnMut() -> bool,
    ) -> Result<bool, CheckpointError> {
        let plan = FaultPlan::parse(spec, 5).unwrap();
        let step = |run: &mut Fake, file: Option<&CheckpointFile>| run.step(every, file);
        drive(run, step, Some(store), Some(&plan), cancel, |_| {})
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
        ] {
            let mut run = fake(total);
            let step = |run: &mut Fake, file: Option<&CheckpointFile>| run.step(every, file);
            let mut seen = 0;
            let on_step = |_: &Fake| seen += 1;
            assert!(drive(&mut run, step, Some(&store), None, || false, on_step).unwrap());
            assert_eq!(
                *run.encoded.borrow(),
                expect,
                "{total} shards every {every}"
            );
            // One write per step; the last step ends with the run.
            assert_eq!(run.calls, vec![every; expect.len()]);
            assert_eq!(seen, run.calls.len(), "on_step runs once per call");
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
    fn runs_without_checkpoints_take_one_step_per_call() {
        let mut run = fake(5);
        let mut asked = 0;
        let cancel = || {
            asked += 1;
            false
        };
        let step = |run: &mut Fake, file: Option<&CheckpointFile>| run.step(2, file);
        assert!(drive(&mut run, step, None, None, cancel, |_| {}).unwrap());
        assert_eq!(run.calls, vec![2, 2, 2]);
        assert_eq!(asked, 3, "cancel is asked once per call");
        assert!(run.encoded.borrow().is_empty());
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
        for (every, stopped_at) in [(1, 3), (4, 12)] {
            let mut run = fake(20);
            let asked = Cell::new(0);
            let cancel = || {
                asked.set(asked.get() + 1);
                asked.get() > 3
            };
            assert!(!drive_into(&mut run, &store, every, "disk-slow=1", cancel).unwrap());
            assert_eq!(asked.get(), 4, "asked once per call, then the cancel");
            assert_eq!(run.calls, vec![every; 3]);
            assert_eq!(run.steps, stopped_at, "no step after the cancel");
            // The third (slow) write landed before `drive` returned.
            let previous = stopped_at - every;
            assert_eq!(generations(&store, 2), vec![(stopped_at, 0), (previous, 0)]);
            let written = run.absorbed.expect("a cancelled call still absorbs");
            assert_eq!((written.writes, written.disk.disk_incidents.len()), (3, 3));
        }
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
