//! Column-sweep epoch kernels over the [`ChipStore`] columns.
//!
//! Each kernel is compiled three times through [`dh_simd::dispatch!`] —
//! a scalar body and AVX2- and AVX-512-enabled bodies the compiler may
//! autovectorize — under the crate-wide bit-identity contract: every body
//! is the same Rust source, floating-point expressions are never
//! reassociated, and the transcendentals resolve to the same libm
//! symbols, so every backend produces bit-identical columns (pinned by
//! `dispatch_backends_agree` below and the `fleet_columnar` proptest
//! against the per-chip reference path). Those libm `pow`/`exp` calls
//! stay scalar calls under every backend, so these sweeps gain little
//! from the wider bodies; the scenario and CET kernels, whose
//! exponentials are `dh_simd` polynomials, are where the width pays.
//!
//! The math is [`crate::chip::ChipState::step`] / `BtiDevice::{stress,
//! recover}` / [`crate::chip::ChipState::sense`] on columns: same
//! operations, same guards, same clamps. Anything constant over a chip's
//! lifetime was hoisted into the store's constant columns by
//! [`ChipStore::reset`]; what remains per epoch is the stress power law,
//! the universal-relaxation curve, the ring-oscillator frequency map,
//! and the EM clamp.
//!
//! [`epoch_step_columns`] runs one epoch as seven **stage passes** over the
//! group store, each ending at no more than one libm transcendental
//! per chip. A chip's epoch is one dependent chain of five `pow`s and an
//! `exp`; fused into one loop body, the core waits out each call before
//! the next can start. Split into passes, consecutive chips' calls in a
//! pass are independent, so the core overlaps them. The split keeps the
//! bits because every chip still runs the same IEEE-754 operations in the
//! same order: a pass only touches its own chip's columns (plus the
//! group-local stress-age scratch handed from pass 3 to pass 4), so the
//! passes interleave independent chips and never reorder one chip's
//! arithmetic. Only the last pass changes the live set, so a chip failing
//! this epoch is stepped through every stage first, as in the reference.

use dh_units::Seconds;

use crate::chip::SENSOR_STALE_EPOCHS;
use crate::store::{
    ChipStore, ColumnarCtx, ALIVE, F_CROSS_PD, F_DEEP_NOOP, F_RUN_IDLE_H, F_RUN_IDLE_N, F_SAME_DD,
    F_SAME_PP, F_STRESS_NOOP_H, F_STRESS_NOOP_N, SEG_DEEP, SEG_NONE, SEG_PASSIVE,
};

/// Sensor fault codes for [`sensor_sweep_columns`] (`Noisy` reads the
/// true score, like no fault — the incident kind is resolved host-side).
pub(crate) const FAULT_NONE: u8 = 0;
pub(crate) const FAULT_STUCK: u8 = 1;
pub(crate) const FAULT_DROPPED: u8 = 2;

/// First half of `BtiDevice::stress` for chip `i`: closes the open
/// recovery segment (if any) and returns the equivalent stress age of
/// the accumulated wearout, exactly as `StressLaw::advance_wearout`
/// reconstructs it. Only called when the reference's input guard passes.
#[inline(always)]
fn stress_age(s: &mut ChipStore, ctx: &ColumnarCtx, i: usize) -> f64 {
    s.seg_kind[i] = SEG_NONE;
    let total = s.rec[i] + s.soft[i] + s.hard[i];
    if total <= 0.0 {
        0.0
    } else {
        (total / s.a_stress[i]).powf(ctx.inv_n)
    }
}

/// Second half of `BtiDevice::stress` + `apply_stress_totals` for chip
/// `i`: advances the power law from [`stress_age`]'s `age` by `sdt`,
/// splits the generated wearout between the soft-permanent and
/// recoverable pools, and applies the hardening transfer `hf`.
#[inline(always)]
fn stress_apply(s: &mut ChipStore, ctx: &ColumnarCtx, i: usize, age: f64, sdt: f64, hf: f64) {
    let total = s.rec[i] + s.soft[i] + s.hard[i];
    let new_total = s.a_stress[i] * (age + sdt).powf(ctx.n);
    let generated = (new_total - total).max(0.0);

    let new_window = s.window[i] + sdt;
    let p_target = ctx
        .model
        .permanent_fraction(Seconds::new(new_window))
        .value()
        * new_total;
    let p_current = s.soft[i] + s.hard[i];
    let dp = (p_target - p_current).clamp(0.0, generated);
    s.soft[i] += dp;
    s.rec[i] += generated - dp;

    let transfer = s.soft[i] * hf;
    s.soft[i] -= transfer;
    s.hard[i] += transfer;
    s.window[i] = new_window;
}

/// First half of `BtiDevice::recover` for chip `i` at `call_kind` ∈
/// {passive, deep}: the continuation check, and on a new relaxation
/// segment its start state. Afterwards `seg_kind[i]` is the kind of the
/// segment that survived (the *stored* segment's condition when it
/// continues, exactly like the reference), which [`recover_relax`] reads.
#[inline(always)]
fn recover_open(s: &mut ChipStore, ctx: &ColumnarCtx, i: usize, call_kind: u32) {
    let flags = s.flags[i];
    let continues = match (s.seg_kind[i], call_kind) {
        (SEG_PASSIVE, SEG_PASSIVE) => flags & F_SAME_PP != 0,
        (SEG_DEEP, SEG_DEEP) => flags & F_SAME_DD != 0,
        (SEG_PASSIVE, SEG_DEEP) | (SEG_DEEP, SEG_PASSIVE) => flags & F_CROSS_PD != 0,
        _ => false,
    };
    if !continues {
        // New relaxation segment: ξ referenced to the equivalent age of
        // the accumulated wearout at the reference condition, floored at
        // 1 s (f64::max semantics, so a NaN age also floors to 1).
        let total = s.rec[i] + s.soft[i] + s.hard[i];
        let age = if total <= 0.0 {
            0.0
        } else {
            (total / ctx.a_ref).powf(ctx.inv_n)
        };
        s.seg_start[i] = total;
        s.seg_age[i] = age.max(1.0);
        s.seg_elapsed[i] = 0.0;
        s.seg_kind[i] = call_kind;
    }
}

/// Second half of `BtiDevice::recover` for chip `i`: anneals the soft
/// pool and the stress window, then relaxes the recoverable pool along
/// the universal-relaxation curve over `dt` more seconds of the open
/// segment. The `sf_*`/`wf_*` pair is the anneal/window factor column
/// pair for this call's dt; which of the pair applies depends on the θ
/// of the open segment.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn recover_relax(
    s: &mut ChipStore,
    ctx: &ColumnarCtx,
    i: usize,
    dt: f64,
    sf_p: f64,
    sf_d: f64,
    wf_p: f64,
    wf_d: f64,
) {
    let (theta, sf, wf) = if s.seg_kind[i] == SEG_DEEP {
        (s.theta_d[i], sf_d, wf_d)
    } else {
        (s.theta_p[i], sf_p, wf_p)
    };
    s.soft[i] *= sf;
    s.window[i] *= wf;

    let elapsed = s.seg_elapsed[i] + dt;
    let xi_eff = theta * (elapsed / s.seg_age[i]);
    let r = ctx.model.relaxation().recovery_fraction_at(xi_eff).value();
    let permanent_now = s.soft[i] + s.hard[i];
    let remaining = (s.seg_start[i] * (1.0 - r)).max(permanent_now);
    s.rec[i] = (remaining - permanent_now).max(0.0);
    s.seg_elapsed[i] = elapsed;
}

dh_simd::dispatch! {
    /// Steps every live chip of the group store through one epoch
    /// (`ChipState::step` on columns), one stage pass at a time.
    /// `selected` says which chips hold a recovery slot this epoch; `age`
    /// is stress-age scratch. Both are at least the group's length.
    /// Returns how many chips failed during this sweep.
    // Each pass indexes a dozen columns by chip; `i` is the chip.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn epoch_step_columns(
        store: &mut ChipStore,
        ctx: ColumnarCtx,
        selected: &[bool],
        age: &mut [f64],
        epoch_index: u64,
    ) -> u64 {
        let s = store;
        let n = s.len;
        // 1. Deep-recovery open, for the chips holding a slot.
        for i in 0..n {
            if s.failed_epoch[i] != ALIVE || !selected[i] {
                continue;
            }
            s.healed[i] += 1;
            if s.flags[i] & F_DEEP_NOOP == 0 {
                recover_open(s, &ctx, i, SEG_DEEP);
            }
        }
        // 2. Deep-recovery relax.
        for i in 0..n {
            if s.failed_epoch[i] != ALIVE || !selected[i] || s.flags[i] & F_DEEP_NOOP != 0 {
                continue;
            }
            recover_relax(
                s, &ctx, i, ctx.heal_dt,
                s.sf_p_heal[i], s.sf_d_heal[i], s.wf_p_heal[i], s.wf_d_heal[i],
            );
        }
        // 3. EM increment, then the stress age.
        for i in 0..n {
            if s.failed_epoch[i] != ALIVE {
                continue;
            }
            let (em_delta, noop) = if selected[i] {
                (s.em_dh[i], F_STRESS_NOOP_H)
            } else {
                (s.em_dn[i], F_STRESS_NOOP_N)
            };
            s.em[i] += em_delta;
            if s.flags[i] & noop == 0 {
                age[i] = stress_age(s, &ctx, i);
            }
        }
        // 4. Stress apply: the new total, the permanent fraction and the
        //    hardening transfer.
        for i in 0..n {
            if s.failed_epoch[i] != ALIVE {
                continue;
            }
            let (noop, sdt, hf) = if selected[i] {
                (F_STRESS_NOOP_H, s.stress_dt_h[i], s.hf_h[i])
            } else {
                (F_STRESS_NOOP_N, s.stress_dt_n[i], s.hf_n[i])
            };
            if s.flags[i] & noop == 0 {
                stress_apply(s, &ctx, i, age[i], sdt, hf);
            }
        }
        // 5. Idle-recovery open.
        for i in 0..n {
            if s.failed_epoch[i] != ALIVE {
                continue;
            }
            let run_idle = if selected[i] { F_RUN_IDLE_H } else { F_RUN_IDLE_N };
            if s.flags[i] & run_idle != 0 {
                recover_open(s, &ctx, i, SEG_PASSIVE);
            }
        }
        // 6. Idle-recovery relax.
        for i in 0..n {
            if s.failed_epoch[i] != ALIVE {
                continue;
            }
            if selected[i] {
                if s.flags[i] & F_RUN_IDLE_H != 0 {
                    recover_relax(
                        s, &ctx, i, s.idle_h[i],
                        s.sf_p_idle_h[i], s.sf_d_idle_h[i], s.wf_p_idle_h[i], s.wf_d_idle_h[i],
                    );
                }
            } else if s.flags[i] & F_RUN_IDLE_N != 0 {
                recover_relax(
                    s, &ctx, i, s.idle_n[i],
                    s.sf_p_idle_n[i], s.sf_d_idle_n[i], s.wf_p_idle_n[i], s.wf_d_idle_n[i],
                );
            }
        }
        // 7. EM clamp, frequency, guardband, score and the failure latch:
        //    the only pass that changes the live set.
        let mut newly_failed = 0u64;
        for i in 0..n {
            if s.failed_epoch[i] != ALIVE {
                continue;
            }
            s.em_peak[i] = s.em_peak[i].max(s.em[i]);
            let floor = ctx.em_pinned_floor * s.em_peak[i];
            s.em[i] = s.em[i].clamp(floor, 1.0);

            let total = s.rec[i] + s.soft[i] + s.hard[i];
            let degradation = 1.0 - ctx.ro.frequency(total).value() / ctx.fresh_hz;
            s.guardband[i] = s.guardband[i].max(degradation);
            s.score[i] = degradation + s.em[i];
            s.epochs_run[i] += 1;
            if s.em[i] >= 1.0 || degradation >= ctx.fail_guardband {
                s.failed_epoch[i] = epoch_index.min(u64::from(u32::MAX) - 1) as u32;
                newly_failed += 1;
            }
        }
        newly_failed
    }
}

dh_simd::dispatch! {
    /// Re-reads every live chip's wear sensor (`ChipState::sense` on
    /// columns). `newly[i]` is set on the epoch chip `i`'s sensor is
    /// first flagged, and the host turns those marks into
    /// [`dh_fault::SensorIncident`]s in chip order. Only runs under a
    /// fault plan — fault-free runs never call it, exactly like the
    /// reference.
    pub(crate) fn sensor_sweep_columns(
        store: &mut ChipStore,
        fault_code: &[u8],
        newly: &mut [u8],
    ) {
        for i in 0..store.len {
            if store.failed_epoch[i] != ALIVE {
                continue;
            }
            let reading = match fault_code[i] {
                FAULT_STUCK => 0.0,
                FAULT_DROPPED => f64::NAN,
                _ => store.score[i],
            };
            let stale = !reading.is_finite() || reading.to_bits() == store.last_bits[i];
            store.stale[i] = if stale { store.stale[i] + 1 } else { 0 };
            store.last_bits[i] = reading.to_bits();
            if reading.is_finite() {
                store.score[i] = reading;
            }
            if store.flagged[i] == 0 && store.stale[i] >= SENSOR_STALE_EPOCHS {
                store.flagged[i] = 1;
                newly[i] = 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FleetConfig;

    #[test]
    fn dispatch_backends_agree() {
        // Step a small store a few epochs under every backend and compare
        // every state column bit for bit.
        let config = FleetConfig {
            devices: 16,
            shard_size: 16,
            group_size: 16,
            ..FleetConfig::default()
        };
        let runs = dh_simd::each_backend(|_| {
            let ctx = ColumnarCtx::new(&config);
            let mut store = ChipStore::new();
            store.reset(&config, &ctx, 0, 16);
            let selected: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
            let mut age = vec![0.0; 16];
            for e in 0..32 {
                epoch_step_columns(&mut store, ctx, &selected, &mut age, e);
            }
            store
        });
        let (_, scalar) = &runs[0];
        for (b, store) in &runs[1..] {
            for k in 0..16 {
                assert_eq!(
                    store.rec[k].to_bits(),
                    scalar.rec[k].to_bits(),
                    "{b} rec[{k}]"
                );
                assert_eq!(store.soft[k].to_bits(), scalar.soft[k].to_bits(), "{b}");
                assert_eq!(store.hard[k].to_bits(), scalar.hard[k].to_bits(), "{b}");
                assert_eq!(store.em[k].to_bits(), scalar.em[k].to_bits(), "{b}");
                assert_eq!(store.score[k].to_bits(), scalar.score[k].to_bits(), "{b}");
                let (g, gs) = (store.guardband[k], scalar.guardband[k]);
                assert_eq!(g.to_bits(), gs.to_bits(), "{b}");
            }
        }
    }
}
