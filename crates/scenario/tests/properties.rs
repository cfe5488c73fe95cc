//! Property tests for the scenario crate's two correctness contracts:
//!
//! * every columnar epoch kernel is the batched restatement of its
//!   scalar [`dh_bti::WearModel`] reference — within 1e-12 of the
//!   unit-by-unit integration on both the auto-dispatched and the
//!   forced-scalar backend, with the two backends bit-identical; and
//! * the pack document is a fixed point of `parse ∘ to_json` — any
//!   valid pack round-trips identically (same value, same canonical
//!   encoding, same fingerprint), and malformed input of any shape
//!   comes back as a typed error, never a panic.
//!
//! Plus the per-built-in-pack engine pins: serial and parallel
//! integration agree bit-for-bit, a kill/resume through a DHSP
//! checkpoint lands on the byte-identical end state, faulted runs land
//! on pinned reports at any window size, and a fused write window lands
//! where step-at-a-time stepping does, faults and all.

use dh_bti::WearModel;
use dh_exec::RetryPolicy;
use dh_fault::{DegradedReport, FaultPlan};
use dh_scenario::{
    AgedMultiplier, BlockGroup, BlockModel, Corner, EpochCtx, GroupCtx, Maintenance,
    MaintenancePolicy, ScenarioCheckpointStore, ScenarioError, ScenarioPack, ScenarioRegistry,
    ScenarioRun, SramDecoder, VictimStore, WeightMemory, Workload,
};
use proptest::prelude::*;

// ---------------------------------------------------------- constructors
//
// The vendored proptest shim draws scalars, tuples, and vecs; everything
// structured is assembled from those draws by the helpers below.

fn group_ctx(
    (seed, group_index): (u64, u64),
    (vdd_v, temperature_k, variability, maintenance_bias_v): (f64, f64, f64, f64),
) -> GroupCtx {
    GroupCtx {
        seed,
        group_index,
        vdd_v,
        temperature_k,
        variability,
        maintenance_bias_v,
    }
}

/// Decodes one drawn `(activity, flag bits)` schedule entry into the
/// kernel context of 1-based `epoch`. Bit 0 inverts, bit 1 (1-in-4)
/// gates, bit 2 selects active recovery.
fn epoch_ctx(epoch_hours: f64, epoch: u64, (activity, bits): (f64, u8)) -> EpochCtx {
    EpochCtx {
        epoch_hours,
        activity,
        inverted: bits & 1 != 0,
        gated: bits & 2 != 0,
        active_recovery: bits & 4 != 0,
        fail_threshold_mv: 40.0,
        epoch,
    }
}

/// A pack-legal name from index draws.
fn pack_name(ix: &[usize]) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
    ix.iter().map(|i| CHARS[i % CHARS.len()] as char).collect()
}

/// Free-form text (descriptions, corner names) from raw code-point
/// draws: skips the surrogate gap, keeps control characters and quotes
/// so the JSON escaping is exercised on the awkward part of the space.
fn text(points: &[u32]) -> String {
    points.iter().filter_map(|&p| char::from_u32(p)).collect()
}

fn corner(name_points: &[u32], (weight, delay_scale, rate_scale): (f64, f64, f64)) -> Corner {
    let mut name = text(name_points);
    if name.is_empty() {
        name.push('c');
    }
    Corner {
        name,
        weight,
        delay_scale,
        rate_scale,
    }
}

/// The drawn tuple behind one block group: `(model_sel, count, skew)`
/// plus `(vdd_v, temperature_c, variability, base_delay_ps)`.
type BlockDraw = ((u8, u64, f64), (f64, f64, f64, f64));

/// One block group from a drawn tuple; `model_sel` picks the victim
/// model, multiplier groups take their corners from `corners`.
fn block_group(
    corners: &[Corner],
    ((model_sel, count, skew), (vdd_v, temperature_c, variability, base_delay_ps)): BlockDraw,
) -> BlockGroup {
    BlockGroup {
        model: match model_sel % 3 {
            0 => BlockModel::SramDecoder { skew },
            1 => BlockModel::WeightMemory,
            _ => BlockModel::AgedMultiplier {
                base_delay_ps,
                corners: corners.to_vec(),
            },
        },
        count,
        vdd_v,
        temperature_c,
        variability,
    }
}

// --------------------------------------- columnar kernels vs references

/// Runs `step` on a copy of the store under every backend the process
/// runs, asserts the end states are equal via `PartialEq` on the full
/// column set, and returns the result for the reference comparison. The
/// bit-identity of the backends is the `dispatch!` contract this crate
/// inherits; flipping the global switch mid-test is safe for exactly
/// that reason.
fn every_backend<S: Clone + PartialEq + std::fmt::Debug>(store: &S, step: impl Fn(&mut S)) -> S {
    let mut runs = dh_simd::each_backend(|_| {
        let mut s = store.clone();
        step(&mut s);
        s
    });
    let (_, scalar) = runs.remove(0);
    for (b, s) in runs {
        assert_eq!(s, scalar, "{b} and scalar kernels diverge");
    }
    scalar
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sram_store_tracks_the_scalar_reference(
        ids in (0u64..u64::MAX, 0u64..8),
        knobs in (0.5f64..1.3, 240.0f64..430.0, 0.0f64..0.3, 0.0f64..0.6),
        skew in 0.1f64..8.0,
        geometry in (0u64..100, 1usize..40),
        hours in 1.0f64..2000.0,
        schedule in collection::vec((0.0f64..1.0, 0u8..8), 1..16),
    ) {
        let g = group_ctx(ids, knobs);
        let (lo, len) = geometry;
        let fresh = VictimStore::build(&BlockModel::SramDecoder { skew }, g, &[], lo, len);
        let store = every_backend(&fresh, |s| {
            for (e, &step) in schedule.iter().enumerate() {
                s.step_epoch(epoch_ctx(hours, e as u64 + 1, step));
            }
        });
        let stress = g.stress_condition();
        let (passive, active) = g.recovery_conditions();
        for k in 0..len as u64 {
            let mut unit = SramDecoder::from_group(g, skew, lo + k);
            for (e, &step) in schedule.iter().enumerate() {
                let ctx = epoch_ctx(hours, e as u64 + 1, step);
                unit.run_epoch(ctx, stress, if ctx.active_recovery { active } else { passive });
            }
            let err = (store.metric(k as usize) - unit.delta_vth_mv()).abs();
            prop_assert!(err <= 1e-12, "row {k}: {err:e}");
        }
    }

    #[test]
    fn weight_store_tracks_the_scalar_reference(
        ids in (0u64..u64::MAX, 0u64..8),
        knobs in (0.5f64..1.3, 240.0f64..430.0, 0.0f64..0.3, 0.0f64..0.6),
        trace in collection::vec(0.0f64..1.0, 1..6),
        geometry in (0u64..100, 1usize..40),
        hours in 1.0f64..2000.0,
        schedule in collection::vec((0.0f64..1.0, 0u8..8), 1..16),
    ) {
        let g = group_ctx(ids, knobs);
        let (lo, len) = geometry;
        let fresh = VictimStore::build(&BlockModel::WeightMemory, g, &trace, lo, len);
        let store = every_backend(&fresh, |s| {
            for (e, &step) in schedule.iter().enumerate() {
                s.step_epoch(epoch_ctx(hours, e as u64 + 1, step));
            }
        });
        let stress = g.stress_condition();
        let (passive, active) = g.recovery_conditions();
        for k in 0..len as u64 {
            let mut unit = WeightMemory::from_group(g, &trace, lo + k);
            for (e, &step) in schedule.iter().enumerate() {
                let ctx = epoch_ctx(hours, e as u64 + 1, step);
                unit.run_epoch(ctx, stress, if ctx.active_recovery { active } else { passive });
            }
            let err = (store.metric(k as usize) - unit.delta_vth_mv()).abs();
            prop_assert!(err <= 1e-12, "bank {k}: {err:e}");
        }
    }

    #[test]
    fn multiplier_store_tracks_the_scalar_reference(
        ids in (0u64..u64::MAX, 0u64..8),
        knobs in (0.5f64..1.3, 240.0f64..430.0, 0.0f64..0.3, 0.0f64..0.6),
        base_delay_ps in 100.0f64..2000.0,
        corner_draws in collection::vec(
            (collection::vec(0u32..0xD7FF, 0..8), (0.01f64..10.0, 0.5f64..2.0, 0.5f64..2.0)),
            1..4,
        ),
        geometry in (0u64..100, 1usize..40),
        hours in 1.0f64..2000.0,
        schedule in collection::vec((0.0f64..1.0, 0u8..8), 1..16),
    ) {
        let g = group_ctx(ids, knobs);
        let (lo, len) = geometry;
        let corners: Vec<Corner> = corner_draws
            .iter()
            .map(|(points, scales)| corner(points, *scales))
            .collect();
        let model = BlockModel::AgedMultiplier { base_delay_ps, corners: corners.clone() };
        let fresh = VictimStore::build(&model, g, &[], lo, len);
        let store = every_backend(&fresh, |s| {
            for (e, &step) in schedule.iter().enumerate() {
                s.step_epoch(epoch_ctx(hours, e as u64 + 1, step));
            }
        });
        let stress = g.stress_condition();
        let (passive, active) = g.recovery_conditions();
        for k in 0..len as u64 {
            let mut unit = AgedMultiplier::from_group(g, base_delay_ps, &corners, lo + k);
            for (e, &step) in schedule.iter().enumerate() {
                let ctx = epoch_ctx(hours, e as u64 + 1, step);
                unit.run_epoch(ctx, stress, if ctx.active_recovery { active } else { passive });
            }
            let err = (store.metric(k as usize) - unit.delta_vth_mv()).abs();
            prop_assert!(err <= 1e-12, "instance {k}: {err:e}");
        }
    }
}

// ---------------------------------------------- pack JSON round-trip

/// Assembles a valid pack from shim-drawable pieces.
#[allow(clippy::type_complexity)]
fn assemble_pack(
    (name_ix, description_points): (Vec<usize>, Vec<u32>),
    (seed, epochs, epoch_hours, shard_size): (u64, u64, f64, u64),
    fail_threshold_mv: f64,
    trace: Vec<f64>,
    (policy_sel, interval_epochs, recovery_bias_v): (u8, u64, f64),
    corner_draws: &[(Vec<u32>, (f64, f64, f64))],
    block_draws: &[((u8, u64, f64), (f64, f64, f64, f64))],
) -> ScenarioPack {
    let corners: Vec<Corner> = corner_draws
        .iter()
        .map(|(points, scales)| corner(points, *scales))
        .collect();
    ScenarioPack {
        name: pack_name(&name_ix),
        description: text(&description_points),
        seed,
        epochs,
        epoch_hours,
        shard_size,
        fail_threshold_mv,
        workload: Workload { trace },
        maintenance: Maintenance {
            policy: match policy_sel % 3 {
                0 => MaintenancePolicy::None,
                1 => MaintenancePolicy::Invert,
                _ => MaintenancePolicy::PowerGate,
            },
            interval_epochs,
            recovery_bias_v,
        },
        blocks: block_draws
            .iter()
            .map(|&draw| block_group(&corners, draw))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packs_are_a_fixed_point_of_parse_to_json(
        naming in (collection::vec(0usize..38, 1..24), collection::vec(0u32..0xD7FF, 0..12)),
        grid in (0u64..(1 << 53), 1u64..50, 1.0f64..2000.0, 1u64..512),
        fail_threshold_mv in 1.0f64..200.0,
        trace in collection::vec(0.0f64..1.0, 1..8),
        maintenance in (0u8..3, 1u64..12, 0.0f64..1.0),
        corner_draws in collection::vec(
            (collection::vec(0u32..0xD7FF, 0..8), (0.01f64..10.0, 0.5f64..2.0, 0.5f64..2.0)),
            1..4,
        ),
        block_draws in collection::vec(
            ((0u8..3, 1u64..600, 0.1f64..8.0), (0.5f64..1.5, -55.0f64..225.0, 0.0f64..0.5, 100.0f64..2000.0)),
            1..4,
        ),
    ) {
        let pack = assemble_pack(
            naming,
            grid,
            fail_threshold_mv,
            trace,
            maintenance,
            &corner_draws,
            &block_draws,
        );
        prop_assert!(pack.validate().is_ok(), "generated pack invalid: {:?}", pack.validate());
        let encoded = pack.to_json();
        let again = match ScenarioPack::load(&encoded) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("re-parse failed: {e}"))),
        };
        prop_assert!(pack == again, "value drifted through the round trip");
        prop_assert!(pack.fingerprint() == again.fingerprint());
        prop_assert!(encoded == again.to_json(), "encoding is not canonical");
    }

    #[test]
    fn malformed_documents_never_panic(points in collection::vec(0u32..0xD7FF, 0..200)) {
        // Arbitrary garbage: a typed error or a valid pack, never a panic.
        let _ = ScenarioPack::load(&text(&points));
    }

    #[test]
    fn mutations_of_a_valid_pack_error_cleanly(
        grid in (0u64..(1 << 53), 1u64..50, 1.0f64..2000.0, 1u64..512),
        trace in collection::vec(0.0f64..1.0, 1..8),
        maintenance in (0u8..3, 1u64..12, 0.0f64..1.0),
        block_draws in collection::vec(
            ((0u8..2, 1u64..600, 0.1f64..8.0), (0.5f64..1.5, -55.0f64..225.0, 0.0f64..0.5, 100.0f64..2000.0)),
            1..4,
        ),
        cut in 0usize..10_000,
        flip in 0usize..10_000,
    ) {
        let pack = assemble_pack(
            (vec![0, 1, 2], vec![b'o' as u32, b'k' as u32]),
            grid,
            50.0,
            trace,
            maintenance,
            &[],
            &block_draws,
        );
        let encoded = pack.to_json();
        // Truncations lose a brace or quote: Json / Schema, not a panic.
        let truncated = &encoded[..cut % encoded.len()];
        if let Err(e) = ScenarioPack::load(truncated) {
            prop_assert!(
                e.is_malformed() || matches!(e, ScenarioError::Invalid { .. }),
                "unexpected error class: {e:?}"
            );
        }
        // Single-byte ASCII flips stay valid UTF-8 and must also come
        // back as a typed error (or still parse, e.g. a digit flip).
        let mut bytes = encoded.into_bytes();
        let i = flip % bytes.len();
        bytes[i] = if bytes[i] == b'x' { b'y' } else { b'x' };
        if let Ok(doc) = String::from_utf8(bytes) {
            let _ = ScenarioPack::load(&doc);
        }
    }
}

// ------------------------------------------------- built-in pack engine

/// Every built-in pack, shrunk to a few epochs so the full determinism
/// battery stays fast while still crossing maintenance boundaries.
fn shrunk_builtins() -> Vec<ScenarioPack> {
    let registry = ScenarioRegistry::builtin();
    registry
        .names()
        .iter()
        .map(|name| {
            let mut pack = registry.get(name).unwrap().pack.clone();
            pack.epochs = 9;
            pack.shard_size = 300;
            for b in &mut pack.blocks {
                b.count = b.count.min(700);
            }
            pack
        })
        .collect()
}

#[test]
fn builtin_packs_are_thread_count_invariant() {
    for pack in shrunk_builtins() {
        dh_exec::set_max_threads(Some(1));
        let serial = dh_scenario::run_pack(pack.clone()).unwrap();
        dh_exec::set_max_threads(None);
        let parallel = dh_scenario::run_pack(pack.clone()).unwrap();
        assert_eq!(
            serial.fingerprint, parallel.fingerprint,
            "{}: serial vs parallel",
            pack.name
        );
        assert_eq!(serial, parallel, "{}", pack.name);
    }
}

#[test]
fn builtin_packs_survive_a_kill_and_resume_byte_identically() {
    let dir = dh_fault::TempDir::new("scenario-props");
    let retry = dh_exec::RetryPolicy::immediate(1);
    let to_end =
        |run: &mut ScenarioRun| while !run.step_supervised(usize::MAX, None, &retry).done {};
    for pack in shrunk_builtins() {
        let mut straight = ScenarioRun::new(pack.clone());
        to_end(&mut straight);

        // "Kill" mid-epoch: step one epoch and one shard, checkpoint to
        // disk, drop the run, resume from the file, finish.
        let mut stepped = ScenarioRun::new(pack.clone());
        let shards = stepped.progress().shards;
        stepped.step_supervised(shards + 1, None, &retry);
        let store = ScenarioCheckpointStore::new(dir.join(format!("{}.dhsp", pack.name)), 1);
        store.write(&stepped).unwrap();
        let interrupted = stepped.progress();
        drop(stepped);

        let mut resumed = ScenarioRun::resume_from_store(pack.clone(), &store).unwrap();
        assert_eq!(resumed.progress(), interrupted, "{}", pack.name);
        to_end(&mut resumed);
        assert_eq!(resumed.report(), straight.report(), "{}", pack.name);
        assert_eq!(
            resumed.encode_checkpoint(),
            straight.encode_checkpoint(),
            "{}: end state not byte-identical",
            pack.name
        );
    }
}

/// Faulted runs of the shrunk built-in packs, each plan at seed 9 with
/// four attempts per shard: `(pack, plan, report fingerprint, degraded
/// fingerprint, quarantined shards, retries, rejected samples)`.
#[rustfmt::skip]
const FAULTED_RUNS: [(&str, &str, u64, u64, usize, u64, u64); 12] = [
    ("sram-decoder",      "panic=0.3",            0x289734201fc17423, 0x7ad28374aaed4f6f, 0, 24, 0),
    ("sram-decoder",      "panic=0.3,poison=0.1", 0x59519458a99d68a1, 0xdc367aaa381ab4ce, 0, 24, 1),
    ("sram-decoder",      "kill-shard=7",         0xbab01146db07748d, 0x9956838ce5e2f25e, 1,  3, 0),
    ("sram-decoder",      "panic=1",              0x8858bf8dd09f0e3a, 0xd39616597b7c9521, 6, 18, 0),
    ("dnn-weight-memory", "panic=0.3",            0xeafd6d14140873ef, 0x7ad28374aaed4f6f, 0, 24, 0),
    ("dnn-weight-memory", "panic=0.3,poison=0.1", 0xfc1b2cb5bcac6915, 0xdc367aaa381ab4ce, 0, 24, 1),
    ("dnn-weight-memory", "kill-shard=7",         0x8ff63cafb240fa04, 0x9956838ce5e2f25e, 1,  3, 0),
    ("dnn-weight-memory", "panic=1",              0xb655c2e9c6de41b2, 0xd39616597b7c9521, 6, 18, 0),
    ("aged-multiplier",   "panic=0.3",            0xa17e0b466f4cae5a, 0x7ad28374aaed4f6f, 0, 24, 0),
    ("aged-multiplier",   "panic=0.3,poison=0.1", 0x0ed00820b431b41a, 0xdc367aaa381ab4ce, 0, 24, 1),
    ("aged-multiplier",   "kill-shard=7",         0x40513944b31c5fa8, 0x9956838ce5e2f25e, 1,  3, 0),
    ("aged-multiplier",   "panic=1",              0xabb24222b68492a9, 0xd39616597b7c9521, 6, 18, 0),
];

/// Every faulted run lands on its pinned report and degraded report,
/// whether the run is one window or steps of one or two shards.
#[test]
fn faulted_runs_of_the_builtin_packs_are_pinned() {
    let packs = shrunk_builtins();
    let retry = RetryPolicy::immediate(4);
    for (name, spec, report, degraded, quarantined, retries, rejected) in FAULTED_RUNS {
        let pack = packs.iter().find(|p| p.name == name).unwrap();
        let plan = FaultPlan::parse(spec, 9).unwrap();
        let row = |report: u64, d: &DegradedReport| {
            format!(
                "report {report:#018x} degraded {:#018x} quarantined {} retries {} rejected {}",
                d.fingerprint(),
                d.quarantined.len(),
                d.retries,
                d.rejected_samples
            )
        };
        let want = format!(
            "report {report:#018x} degraded {degraded:#018x} quarantined {quarantined} \
             retries {retries} rejected {rejected}"
        );
        let (whole, d) = dh_scenario::run_pack_supervised(pack.clone(), Some(&plan), &retry, None)
            .expect("a run without checkpoints does no I/O");
        assert_eq!(
            row(whole.fingerprint, &d),
            want,
            "{name} {spec}: one window"
        );
        for stride in [1, 2] {
            let mut run = ScenarioRun::new(pack.clone());
            while !run.step_supervised(stride, Some(&plan), &retry).done {}
            let got = row(run.report().fingerprint, &run.degraded);
            assert_eq!(got, want, "{name} {spec}: stride {stride}");
        }
    }
}

/// Takes up to `steps` steps of up to `stride` shards under `plan`, one
/// parallel call each, stopping when the run completes.
fn step_at_a_time(run: &mut ScenarioRun, stride: usize, steps: u64, plan: Option<&FaultPlan>) {
    let retry = RetryPolicy::immediate(4);
    for _ in 0..steps {
        if run.step_supervised(stride, plan, &retry).done {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A write window stepped in one call, shard-major, reaches the state,
    /// report and checkpoint bytes (degraded report included) of the same
    /// steps taken one at a time, from any mid-epoch start (in memory or
    /// decoded from a checkpoint the per-step path wrote), with no fault
    /// plan or a drawn one, at one thread, at every thread, and on the
    /// forced-scalar backend.
    #[test]
    fn a_fused_window_matches_step_at_a_time_stepping(
        window_draws in (0usize..3, 0usize..64, 0u64..64),
        start_draws in (0usize..64, 0u64..256, 0u8..2, 0u8..3),
        plan_draws in (0u8..4, 0u64..4096),
    ) {
        let (pack_ix, stride_draw, window_draw) = window_draws;
        let (lead_stride_draw, lead_draw, from_file, mode) = start_draws;
        let (plan_sel, kill_draw) = plan_draws;
        let mut pack = shrunk_builtins().swap_remove(pack_ix);
        // Twelve epochs cross every built-in pack's maintenance interval.
        pack.epochs = 12;
        let shards = ScenarioRun::new(pack.clone()).progress().shards;
        // A kill-shard key names one `(epoch, shard)` of the run.
        let spec = match plan_sel {
            0 => None,
            1 => Some("panic=0.3".to_string()),
            2 => Some("panic=0.3,poison=0.1".to_string()),
            _ => Some(format!("kill-shard={}", kill_draw % (pack.epochs * shards as u64))),
        };
        let plan = spec.as_deref().map(|spec| FaultPlan::parse(spec, 9).unwrap());
        let plan = plan.as_ref();
        let stride = 1 + stride_draw % (shards + 1);
        let per_epoch = shards.div_ceil(stride) as u64;
        let window = 1 + window_draw % (3 * per_epoch);

        // Lead in with a stride of its own, so the window can start at any
        // shard of any epoch, not only at multiples of its stride.
        let lead_stride = 1 + lead_stride_draw % shards;
        let lead = lead_draw % (pack.epochs * shards as u64).div_ceil(lead_stride as u64);
        let mut start = ScenarioRun::new(pack.clone());
        step_at_a_time(&mut start, lead_stride, lead, plan);
        if from_file == 1 {
            start = ScenarioRun::decode_checkpoint(pack.clone(), &start.encode_checkpoint()).unwrap();
        }

        let mut stepped = start.clone();
        step_at_a_time(&mut stepped, stride, window, plan);
        let mut fused = start;
        match mode {
            0 => dh_exec::set_max_threads(Some(1)),
            1 => dh_exec::set_max_threads(None),
            _ => dh_simd::force_backend(Some(dh_simd::Backend::Scalar)),
        }
        let retry = RetryPolicy::immediate(4);
        let done = fused.step_supervised(stride * window as usize, plan, &retry).done;
        dh_exec::set_max_threads(None);
        dh_simd::force_backend(None);

        let case = format!("{} {spec:?} stride {stride} window {window} after {lead} steps of {lead_stride}, mode {mode}", pack.name);
        prop_assert!(done == stepped.progress().done, "{case}: done");
        prop_assert!(fused.progress() == stepped.progress(), "{case}: position");
        prop_assert!(fused.report() == stepped.report(), "{case}: report");
        // The checkpoint carries every state column, bit for bit.
        prop_assert!(fused.encode_checkpoint() == stepped.encode_checkpoint(), "{case}: checkpoint bytes");
    }
}
