//! The one columnar store every victim model steps in.
//!
//! Each model is the shared recovery physics applied per stressed device:
//! a recoverable part `r` and a permanent part `p` of |ΔVth|, driven up by
//! stress and drained (passively or under reverse bias) by recovery. So
//! one struct-of-arrays shard holds every model: a per-element duty
//! parameter, a per-element variation multiplier that scales the group's
//! three rates, `(r, p)` per stressed device, and the first-failure
//! epoch. What a model still owns is its per-element draw (in
//! [`VictimStore::build`]) and its duty rule (its dispatched epoch
//! kernel).

use super::multiplier::{corner_of, duty_scale, multiplier_epoch_kernel, CORNER, DUTY};
use super::sram::{sram_epoch_kernel, zipf_duty};
use super::weight::{bank_zero_duty, weight_epoch_kernel, ZERO_DUTY};
use super::{EpochCtx, GroupCtx, Rates, VARIATION};
use crate::pack::BlockModel;

/// The dispatched epoch kernel, the model's duty rule, that steps a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Sram,
    Weight,
    Multiplier,
}

/// A shard's saved state: its state columns back to back, and `failed`.
pub(crate) type Saved = (Vec<f64>, Vec<u64>);

/// Columnar state for a shard of one block group's elements: constant
/// parameter columns drawn at build time, and mutable state columns
/// stepped by the model's dispatched kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimStore {
    kernel: Kernel,
    /// Per-element duty parameter: a decoder row's base duty, a weight
    /// bank's zero fraction, or a multiplier's utilization scale.
    duty: Vec<f64>,
    /// Per-element rate multiplier: the process variation, times a
    /// multiplier's corner rate scale. An element's stress and recovery
    /// rates are the group's [`Rates`] times this, one product each.
    variation: Vec<f64>,
    rates: Rates,
    /// `r, p` per stressed device: `[r, p]` for a decoder row or a
    /// multiplier, `[r_a, p_a, r_b, p_b]` for a weight bank. Checkpoints
    /// and the report fingerprint take the columns in this order.
    state: Vec<Vec<f64>>,
    failed: Vec<u64>,
}

impl VictimStore {
    /// Builds the shard covering elements `lo .. lo + len` of a block
    /// group of `model`; `trace` is the pack's workload trace, which sets
    /// a weight bank's zero fraction. Each draw's hash stream is hashed
    /// once for the shard.
    pub fn build(model: &BlockModel, ctx: GroupCtx, trace: &[f64], lo: u64, len: usize) -> Self {
        let ranks = lo..lo + len as u64;
        let variation = ctx.stream(VARIATION);
        let vary = |rank| ctx.spread(variation.unit(rank));
        // Each element's (duty parameter, rate multiplier), and the
        // model's stressed devices per element.
        let (kernel, devices, (duty, variation)): (_, usize, (Vec<f64>, Vec<f64>)) = match model {
            BlockModel::SramDecoder { skew } => (
                Kernel::Sram,
                1,
                ranks
                    .map(|rank| (zipf_duty(rank, *skew), vary(rank)))
                    .unzip(),
            ),
            BlockModel::WeightMemory => {
                let zero = ctx.stream(ZERO_DUTY);
                let zero_duty = |rank| bank_zero_duty(ctx, trace, rank, zero.unit(rank));
                (
                    Kernel::Weight,
                    2,
                    ranks.map(|rank| (zero_duty(rank), vary(rank))).unzip(),
                )
            }
            BlockModel::AgedMultiplier { corners, .. } => {
                let (corner, scale) = (ctx.stream(CORNER), ctx.stream(DUTY));
                (
                    Kernel::Multiplier,
                    1,
                    ranks
                        .map(|rank| {
                            let corner = &corners[corner_of(corners, corner.unit(rank))];
                            (duty_scale(scale.unit(rank)), vary(rank) * corner.rate_scale)
                        })
                        .unzip(),
                )
            }
        };
        Self {
            kernel,
            duty,
            variation,
            rates: Rates::of(ctx),
            state: vec![vec![0.0; len]; 2 * devices],
            failed: vec![0; len],
        }
    }

    /// Elements in the shard.
    pub fn len(&self) -> usize {
        self.failed.len()
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// Advances every element by one epoch.
    pub fn step_epoch(&mut self, ctx: EpochCtx) {
        let (duty, variation, rates) = (&self.duty, &self.variation, self.rates);
        let failed = &mut self.failed;
        match (self.kernel, &mut self.state[..]) {
            (Kernel::Sram, [r, p]) => sram_epoch_kernel(duty, variation, rates, r, p, failed, ctx),
            (Kernel::Weight, [r_a, p_a, r_b, p_b]) => {
                weight_epoch_kernel(duty, variation, rates, r_a, p_a, r_b, p_b, failed, ctx)
            }
            (Kernel::Multiplier, [r, p]) => {
                multiplier_epoch_kernel(duty, variation, rates, r, p, failed, ctx)
            }
            _ => unreachable!("build gives each kernel its state columns"),
        }
    }

    /// The failure-relevant metric of element `i`: the worst stressed
    /// device's |ΔVth| in mV.
    pub fn metric(&self, i: usize) -> f64 {
        self.state
            .chunks(2)
            .map(|device| device[0][i] + device[1][i])
            .reduce(f64::max)
            .expect("every model stresses at least one device")
    }

    /// 1-based epoch element `i` first crossed the threshold (0 = alive).
    pub fn failed_epoch(&self, i: usize) -> u64 {
        self.failed[i]
    }

    /// The mutable state: the `r, p` columns in device order, and `failed`.
    pub(crate) fn state(&self) -> (&[Vec<f64>], &[u64]) {
        (&self.state, &self.failed)
    }

    /// [`VictimStore::state`], mutably.
    pub(crate) fn state_mut(&mut self) -> (&mut [Vec<f64>], &mut [u64]) {
        (&mut self.state, &mut self.failed)
    }

    /// Elements with a non-finite value in any state column.
    pub(crate) fn non_finite(&self) -> usize {
        let finite = |col: &Vec<f64>| col.iter().fold(true, |ok, v| ok & v.is_finite());
        if self.state.iter().all(finite) {
            return 0;
        }
        (0..self.len())
            .filter(|&i| self.state.iter().any(|col| !col[i].is_finite()))
            .count()
    }

    /// Copies the mutable state into `saved`.
    pub(crate) fn save(&self, (values, failed): &mut Saved) {
        values.clear();
        self.state
            .iter()
            .for_each(|col| values.extend_from_slice(col));
        failed.clear();
        failed.extend_from_slice(&self.failed);
    }

    /// Puts back the state [`VictimStore::save`] copied.
    pub(crate) fn restore(&mut self, (values, failed): &Saved) {
        for (col, saved) in self.state.iter_mut().zip(values.chunks(failed.len())) {
            col.copy_from_slice(saved);
        }
        self.failed.copy_from_slice(failed);
    }

    /// Test hook for the engine: drops the last variation multiplier, so
    /// the kernel's bounds check panics at the shard's last element.
    #[cfg(test)]
    pub(crate) fn truncate_variation(&mut self) {
        self.variation.pop();
    }
}
