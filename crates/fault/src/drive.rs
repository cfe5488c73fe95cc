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
    /// Takes up to `steps` steps of up to `stride` more shards each under
    /// supervision, stopping early when the run completes, and returns
    /// whether it is complete. [`drive`] asks its `cancel` and calls its
    /// `on_step` once per call, so nothing observes the run between the
    /// steps of one call and a run may fuse them. Stepping a complete run
    /// is a no-op that returns `true`.
    fn step(&mut self, stride: u64, steps: u64) -> bool;

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
/// returns `true`. Without `checkpoints` every [`Run::step`] call takes
/// one step. With them, every call takes the `every` steps up to the next
/// write (fewer when the run ends first), and a write-behind writer
/// thread lands a checkpoint after each call: after steps `every`,
/// `2·every`, … and once after the final step, with [`Run::plan`]'s
/// checkpoint corruption and disk faults injected. `cancel` is asked
/// before, and `on_step` called after, every call — once per write
/// window. Write indices count from 0 on every call of `drive`, so a
/// fault plan hits the same writes on every identically seeded process.
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
    let steps = checkpoints.map_or(1, |c| c.every.max(1));
    let mut writer = checkpoints.map(|c| Writer::spawn(c.store.clone(), run.plan().cloned()));
    let finished = loop {
        if cancel() {
            break false;
        }
        let done = run.step(stride, steps);
        if let Some(writer) = &mut writer {
            writer.submit(|buf| run.encode_into(buf))?;
        }
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
        /// The `steps` of every [`Run::step`] call, in order.
        calls: Vec<u64>,
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
        fn step(&mut self, stride: u64, steps: u64) -> bool {
            self.calls.push(steps);
            self.steps = (self.steps + stride * steps).min(self.total);
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

    /// The step after which each write landed when the driver took one
    /// step per call: every `every`-th step and the final one.
    fn one_step_per_call(total: u64, every: u64) -> Vec<u64> {
        (1..=total)
            .filter(|s| s.is_multiple_of(every.max(1)) || *s == total)
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
            assert_eq!(*run.encoded.borrow(), expect, "{total} steps every {every}");
            // One call per write window, each asking for the `every` steps
            // up to the next write; the last window ends with the run.
            assert_eq!(run.calls, vec![every.max(1); expect.len()]);
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
    fn fused_windows_write_after_the_same_steps_with_the_same_indices() {
        let store = temp_store("drive-fused", 2);
        for total in 1..=9 {
            for every in 1..=4 {
                let mut run = fake(total);
                assert!(drive_into(&mut run, &store, every, "disk-torn=2", || false).unwrap());
                let expect = one_step_per_call(total, every);
                assert_eq!(*run.encoded.borrow(), expect, "{total} steps every {every}");
                // Every second write (indices 1, 3, …) is torn, as it was
                // when every call took one step.
                let torn: Vec<u64> = run
                    .degraded
                    .disk_incidents
                    .iter()
                    .map(|i| i.write_index)
                    .collect();
                let odd: Vec<u64> = (0..expect.len() as u64).filter(|i| i % 2 == 1).collect();
                assert_eq!(torn, odd, "{total} steps every {every}");
            }
        }
    }

    #[test]
    fn runs_without_checkpoints_take_one_step_per_call() {
        let mut run = fake(5);
        let mut asked = 0;
        let cancel = || {
            asked += 1;
            false
        };
        assert!(drive(&mut run, 2, None, cancel, |_| {}).unwrap());
        assert_eq!(run.calls, vec![1, 1, 1]);
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
