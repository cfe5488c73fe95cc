//! The columnar (SoA) chip-state substrate the epoch kernels sweep.
//!
//! [`ChipStore`] holds one contiguous column per chip field for **one
//! maintenance group**, padded to the `dh-simd` lane width, so the epoch
//! loop touches memory linearly instead of hopping across `ChipState`
//! structs. A shard resets the store for a group, steps the group through
//! every epoch, then appends the group's four result columns to its
//! [`ShardOutcomes`] block and moves on to the next group: at 64 chips the
//! store is about 25 KB and stays cache-resident from reset through the
//! last epoch, and the only per-chip data a shard keeps is its 20-byte
//! outcome row.
//!
//! Every value a chip needs that is *constant over its lifetime* —
//! stress durations, EM damage increments, relaxation θ's, the
//! soft-anneal and hardening exponentials — is hoisted into per-chip
//! constant columns at [`ChipStore::reset`] time, leaving the per-epoch
//! kernels with pure column arithmetic plus the genuinely state-dependent
//! transcendentals (the stress power law and the universal-relaxation
//! curve). The reset itself runs as stage passes over the group (see
//! [`ChipStore::reset`]), so chips overlap their libm calls.
//!
//! The columnar code replicates the scalar reference
//! ([`crate::chip::ChipSpec::draw`] and [`crate::chip::ChipState`])
//! **operation for operation**: every float expression is evaluated in
//! the same order with the same libm calls, so reports are bit-identical
//! to the per-chip path — the property the `fleet_columnar` proptest and
//! the corner-draw test below pin.

use dh_bti::{AnalyticBtiModel, RecoveryCondition, StressCondition};
use dh_circuit::RingOscillator;
use dh_em::black::BlackModel;
use dh_units::rng::{normal_angle, normal_radius, normal_uniforms, StreamSeed};
use dh_units::{Fraction, Kelvin, Seconds, Volts};

use crate::chip::CHIP_STREAM;
use crate::sim::FleetConfig;

/// Sentinel in the `failed_epoch` column: the chip is still alive.
pub(crate) const ALIVE: u32 = u32::MAX;

/// `seg_kind` values: no recovery segment open (fresh or stressing),
/// a passive-idle segment, a deep (negative-bias) segment. The values
/// match the order `ChipState` opens segments in; only equality is
/// ever tested.
pub(crate) const SEG_NONE: u32 = 0;
pub(crate) const SEG_PASSIVE: u32 = 1;
pub(crate) const SEG_DEEP: u32 = 2;

/// Per-chip guard bits precomputed at reset (see `ChipStore::flags`).
/// "no-op" bits mirror the `BtiDevice` input guards: a non-positive dt
/// or non-finite condition makes the corresponding call return without
/// touching state.
pub(crate) const F_STRESS_NOOP_N: u32 = 1;
pub(crate) const F_STRESS_NOOP_H: u32 = 1 << 1;
pub(crate) const F_DEEP_NOOP: u32 = 1 << 2;
pub(crate) const F_RUN_IDLE_N: u32 = 1 << 3;
pub(crate) const F_RUN_IDLE_H: u32 = 1 << 4;
pub(crate) const F_SAME_PP: u32 = 1 << 5;
pub(crate) const F_SAME_DD: u32 = 1 << 6;
pub(crate) const F_CROSS_PD: u32 = 1 << 7;

/// Run-wide constants the columnar kernels close over. Everything is
/// `Copy` (no lifetimes) so the struct can cross the `dispatch!` macro's
/// per-backend function boundary by value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnarCtx {
    /// The paper-calibrated analytic BTI model — hoisted once per run
    /// instead of re-solved per chip like `BtiDevice::paper_calibrated`.
    pub model: AnalyticBtiModel,
    pub ro: RingOscillator,
    pub fresh_hz: f64,
    /// The Black model the EM increments are derived from.
    pub black: BlackModel,
    /// The fleet's chip stream (`(seed, CHIP_STREAM)`), hashed once per
    /// run; chip `i` draws from `chip_stream.rng(i)`.
    pub chip_stream: StreamSeed,
    /// Deep-recovery time inside a healing epoch, seconds.
    pub heal_dt: f64,
    /// `a_mv · amplitude_scale(ACCELERATED)` — the reference amplitude
    /// equivalent-age reconstruction divides by when a recovery segment
    /// opens.
    pub a_ref: f64,
    /// `voltage_scale(vdd)`: the voltage half of every chip's stress
    /// amplitude, one value for the fleet-wide `vdd`.
    pub vdd_scale: f64,
    /// Power-law exponent n and the reference's `1.0 / n`.
    pub n: f64,
    pub inv_n: f64,
    pub em_pinned_floor: f64,
    pub fail_guardband: f64,
}

impl ColumnarCtx {
    pub(crate) fn new(config: &FleetConfig) -> Self {
        let model = AnalyticBtiModel::paper_calibrated();
        let law = *model.stress_law();
        let ro = RingOscillator::paper_75_stage();
        let fresh_hz = ro.frequency(0.0).value();
        Self {
            model,
            ro,
            fresh_hz,
            black: BlackModel::calibrated_to_paper(),
            chip_stream: StreamSeed::new(config.seed, CHIP_STREAM),
            heal_dt: config.epoch.value() * config.heal_fraction.value(),
            a_ref: law.a_mv * law.amplitude_scale(StressCondition::ACCELERATED),
            vdd_scale: law.voltage_scale(config.vdd),
            n: law.n,
            inv_n: 1.0 / law.n,
            em_pinned_floor: config.em_pinned_floor.value(),
            fail_guardband: config.fail_guardband,
        }
    }
}

/// One maintenance group's chip state as structure-of-arrays columns.
///
/// Columns are plain `Vec`s (8-byte aligned, padded to a
/// [`dh_simd::LANES`] multiple) reused group after group and, through the
/// [`crate::sim::FleetRun`] slab pool, shard after shard, so steady-state
/// simulation allocates nothing. The first block is live state the
/// kernels mutate; the second is per-chip constants hoisted at reset; the
/// third is the corner draw the reset derives the constants from.
pub(crate) struct ChipStore {
    /// Global index of the group's first chip.
    pub lo: u64,
    /// Chips in `[lo, lo + len)`; columns may be padded past this.
    pub len: usize,

    // ---- live state ---------------------------------------------------
    /// Recoverable |ΔVth| pool, mV.
    pub rec: Vec<f64>,
    /// Soft-permanent |ΔVth| pool, mV.
    pub soft: Vec<f64>,
    /// Hard-permanent |ΔVth| pool, mV.
    pub hard: Vec<f64>,
    /// Continuous-stress window, seconds.
    pub window: Vec<f64>,
    /// Open recovery segment kind ([`SEG_NONE`]/[`SEG_PASSIVE`]/[`SEG_DEEP`]).
    pub seg_kind: Vec<u32>,
    /// Total wearout at segment start, mV.
    pub seg_start: Vec<f64>,
    /// Equivalent stress age at segment start, seconds.
    pub seg_age: Vec<f64>,
    /// Time spent in the open segment, seconds.
    pub seg_elapsed: Vec<f64>,
    /// Miner's-rule EM damage fraction.
    pub em: Vec<f64>,
    /// Worst EM damage ever reached (pinned-floor reference).
    pub em_peak: Vec<f64>,
    /// Worst frequency degradation observed (required guardband).
    pub guardband: Vec<f64>,
    /// Wear score the worst-first selector ranks by (sensed under faults).
    pub score: Vec<f64>,
    /// Epochs stepped; freezes at failure.
    pub epochs_run: Vec<u32>,
    /// Epochs granted a recovery slot.
    pub healed: Vec<u32>,
    /// Epoch index the chip failed at; [`ALIVE`] while alive.
    pub failed_epoch: Vec<u32>,
    /// Bit pattern of the previous sensed score (NaN sentinel initially).
    pub last_bits: Vec<u64>,
    /// Consecutive bit-identical (or missing) sensor readings.
    pub stale: Vec<u32>,
    /// Staleness detection latched this sensor as bad (0/1).
    pub flagged: Vec<u8>,

    // ---- per-chip constants hoisted at reset --------------------------
    /// Wear-scaled stress dt of a normal epoch, seconds.
    pub stress_dt_n: Vec<f64>,
    /// Wear-scaled stress dt of a healing epoch's run fraction.
    pub stress_dt_h: Vec<f64>,
    /// Idle-recovery dt of a normal / healing epoch, seconds.
    pub idle_n: Vec<f64>,
    pub idle_h: Vec<f64>,
    /// `a_mv · amplitude_scale(stress_cond)` — this chip's power-law
    /// amplitude at its operating point.
    pub a_stress: Vec<f64>,
    /// EM damage added by a normal / healing epoch.
    pub em_dn: Vec<f64>,
    pub em_dh: Vec<f64>,
    /// Relaxation θ at the passive / deep recovery condition.
    pub theta_p: Vec<f64>,
    pub theta_d: Vec<f64>,
    /// Soft-anneal factors `exp(-θ/θ₄ · dt / τ_soft)` for every
    /// (segment-θ, dt) pair an epoch can produce: the stored segment may
    /// be passive or deep, the dt is the heal window or either idle span.
    pub sf_p_heal: Vec<f64>,
    pub sf_d_heal: Vec<f64>,
    pub sf_p_idle_n: Vec<f64>,
    pub sf_d_idle_n: Vec<f64>,
    pub sf_p_idle_h: Vec<f64>,
    pub sf_d_idle_h: Vec<f64>,
    /// Matching window-reset factors (equal to the soft factors when
    /// τ_window_reset == τ_soft_anneal, as in the paper calibration).
    pub wf_p_heal: Vec<f64>,
    pub wf_d_heal: Vec<f64>,
    pub wf_p_idle_n: Vec<f64>,
    pub wf_d_idle_n: Vec<f64>,
    pub wf_p_idle_h: Vec<f64>,
    pub wf_d_idle_h: Vec<f64>,
    /// Soft→hard consolidation factors `1 - exp(-(dt/τ_harden))` per
    /// stress-dt flavor.
    pub hf_n: Vec<f64>,
    pub hf_h: Vec<f64>,
    /// Guard / segment-compatibility bits (`F_*`).
    pub flags: Vec<u32>,

    // ---- the corner draw, written by the reset's first passes ---------
    /// The eight uniforms of the chip's four Box–Muller normals, in
    /// `standard_normal`'s draw order (`u1, u2` per normal).
    pub uniforms: Vec<[f64; 8]>,
    /// The four standard normals: wear, EM, temperature, utilization.
    pub normals: Vec<[f64; 4]>,
    /// `ChipSpec`'s corners: lognormal wear and EM factors, temperature
    /// in kelvin, clamped utilization.
    pub wear_factor: Vec<f64>,
    pub em_factor: Vec<f64>,
    pub temperature: Vec<f64>,
    pub utilization: Vec<f64>,
}

/// One shard's per-chip results: the four columns the fold, the
/// poisoning and the progress views read, appended group by group as
/// each group finishes its lifetime (20 bytes per chip).
#[derive(Debug, Default)]
pub(crate) struct ShardOutcomes {
    /// Global index of the shard's first chip.
    pub lo: u64,
    pub guardband: Vec<f64>,
    pub failed_epoch: Vec<u32>,
    pub epochs_run: Vec<u32>,
    pub healed: Vec<u32>,
}

impl ShardOutcomes {
    /// Empties the block for the shard starting at chip `lo`, reserving
    /// room for `chips` rows (a no-op once the slab has held a full shard).
    pub(crate) fn start(&mut self, lo: u64, chips: usize) {
        self.lo = lo;
        self.guardband.clear();
        self.failed_epoch.clear();
        self.epochs_run.clear();
        self.healed.clear();
        self.guardband.reserve(chips);
        self.failed_epoch.reserve(chips);
        self.epochs_run.reserve(chips);
        self.healed.reserve(chips);
    }

    /// Appends a finished group's rows.
    pub(crate) fn append(&mut self, group: &ChipStore) {
        debug_assert_eq!(group.lo, self.lo + self.len() as u64);
        let n = group.len;
        self.guardband.extend_from_slice(&group.guardband[..n]);
        self.failed_epoch
            .extend_from_slice(&group.failed_epoch[..n]);
        self.epochs_run.extend_from_slice(&group.epochs_run[..n]);
        self.healed.extend_from_slice(&group.healed[..n]);
    }

    /// Chips in the block.
    pub(crate) fn len(&self) -> usize {
        self.guardband.len()
    }

    /// Borrows the block as a read-only [`StoreView`].
    pub(crate) fn view(&self) -> StoreView<'_> {
        StoreView {
            lo: self.lo,
            len: self.len(),
            guardband: &self.guardband,
            failed_epoch: &self.failed_epoch,
            healed: &self.healed,
            epochs_run: &self.epochs_run,
        }
    }
}

/// A read-only view over one shard slab's outcome block: the snapshot
/// surface the `dh-serve` progress endpoint renders per-shard summaries
/// from without copying columns or materializing per-chip structs.
/// Borrowed from the [`crate::FleetRun`] slab pool via
/// [`crate::FleetRun::with_store_views`], so a view always shows the
/// results of the most recently folded shard that slab ran.
#[derive(Debug, Clone, Copy)]
pub struct StoreView<'a> {
    lo: u64,
    len: usize,
    guardband: &'a [f64],
    failed_epoch: &'a [u32],
    healed: &'a [u32],
    epochs_run: &'a [u32],
}

impl StoreView<'_> {
    /// First global chip index covered by the view.
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Chips in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view covers no chips (a never-used slab).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chips still alive at the end of the shard's simulated lifetime.
    pub fn alive(&self) -> usize {
        self.failed_epoch[..self.len]
            .iter()
            .filter(|&&e| e == ALIVE)
            .count()
    }

    /// Chips that failed inside the horizon.
    pub fn failed(&self) -> usize {
        self.len - self.alive()
    }

    /// Largest required guardband across the shard (`-inf` when empty).
    pub fn worst_guardband(&self) -> f64 {
        self.guardband[..self.len]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean required guardband across the shard (0 when empty).
    pub fn mean_guardband(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.guardband[..self.len].iter().sum::<f64>() / self.len as f64
    }

    /// Recovery epochs granted across the shard.
    pub fn healed_epochs(&self) -> u64 {
        self.healed[..self.len].iter().map(|&h| u64::from(h)).sum()
    }

    /// Chip-epochs actually stepped across the shard.
    pub fn chip_epochs(&self) -> u64 {
        self.epochs_run[..self.len]
            .iter()
            .map(|&e| u64::from(e))
            .sum()
    }

    /// Chip `k`'s global index and required guardband.
    pub fn chip(&self, k: usize) -> (u64, f64) {
        (self.lo + k as u64, self.guardband[k])
    }
}

impl std::fmt::Debug for ChipStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChipStore")
            .field("lo", &self.lo)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl Default for ChipStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Calls `$m!(column, initial value)` for every column of the store.
macro_rules! for_each_column {
    ($self:ident, $m:ident) => {
        $m!($self.rec, 0.0);
        $m!($self.soft, 0.0);
        $m!($self.hard, 0.0);
        $m!($self.window, 0.0);
        $m!($self.seg_kind, SEG_NONE);
        $m!($self.seg_start, 0.0);
        $m!($self.seg_age, 0.0);
        $m!($self.seg_elapsed, 0.0);
        $m!($self.em, 0.0);
        $m!($self.em_peak, 0.0);
        $m!($self.guardband, 0.0);
        $m!($self.score, 0.0);
        $m!($self.epochs_run, 0);
        $m!($self.healed, 0);
        $m!($self.failed_epoch, ALIVE);
        $m!($self.last_bits, f64::NAN.to_bits());
        $m!($self.stale, 0);
        $m!($self.flagged, 0);
        $m!($self.stress_dt_n, 0.0);
        $m!($self.stress_dt_h, 0.0);
        $m!($self.idle_n, 0.0);
        $m!($self.idle_h, 0.0);
        $m!($self.a_stress, 0.0);
        $m!($self.em_dn, 0.0);
        $m!($self.em_dh, 0.0);
        $m!($self.theta_p, 0.0);
        $m!($self.theta_d, 0.0);
        $m!($self.sf_p_heal, 0.0);
        $m!($self.sf_d_heal, 0.0);
        $m!($self.sf_p_idle_n, 0.0);
        $m!($self.sf_d_idle_n, 0.0);
        $m!($self.sf_p_idle_h, 0.0);
        $m!($self.sf_d_idle_h, 0.0);
        $m!($self.wf_p_heal, 0.0);
        $m!($self.wf_d_heal, 0.0);
        $m!($self.wf_p_idle_n, 0.0);
        $m!($self.wf_d_idle_n, 0.0);
        $m!($self.wf_p_idle_h, 0.0);
        $m!($self.wf_d_idle_h, 0.0);
        $m!($self.hf_n, 0.0);
        $m!($self.hf_h, 0.0);
        $m!($self.flags, 0);
        $m!($self.uniforms, [0.0; 8]);
        $m!($self.normals, [0.0; 4]);
        $m!($self.wear_factor, 0.0);
        $m!($self.em_factor, 0.0);
        $m!($self.temperature, 0.0);
        $m!($self.utilization, 0.0);
    };
}

impl ChipStore {
    pub(crate) fn new() -> Self {
        Self {
            lo: 0,
            len: 0,
            rec: Vec::new(),
            soft: Vec::new(),
            hard: Vec::new(),
            window: Vec::new(),
            seg_kind: Vec::new(),
            seg_start: Vec::new(),
            seg_age: Vec::new(),
            seg_elapsed: Vec::new(),
            em: Vec::new(),
            em_peak: Vec::new(),
            guardband: Vec::new(),
            score: Vec::new(),
            epochs_run: Vec::new(),
            healed: Vec::new(),
            failed_epoch: Vec::new(),
            last_bits: Vec::new(),
            stale: Vec::new(),
            flagged: Vec::new(),
            stress_dt_n: Vec::new(),
            stress_dt_h: Vec::new(),
            idle_n: Vec::new(),
            idle_h: Vec::new(),
            a_stress: Vec::new(),
            em_dn: Vec::new(),
            em_dh: Vec::new(),
            theta_p: Vec::new(),
            theta_d: Vec::new(),
            sf_p_heal: Vec::new(),
            sf_d_heal: Vec::new(),
            sf_p_idle_n: Vec::new(),
            sf_d_idle_n: Vec::new(),
            sf_p_idle_h: Vec::new(),
            sf_d_idle_h: Vec::new(),
            wf_p_heal: Vec::new(),
            wf_d_heal: Vec::new(),
            wf_p_idle_n: Vec::new(),
            wf_d_idle_n: Vec::new(),
            wf_p_idle_h: Vec::new(),
            wf_d_idle_h: Vec::new(),
            hf_n: Vec::new(),
            hf_h: Vec::new(),
            flags: Vec::new(),
            uniforms: Vec::new(),
            normals: Vec::new(),
            wear_factor: Vec::new(),
            em_factor: Vec::new(),
            temperature: Vec::new(),
            utilization: Vec::new(),
        }
    }

    /// (Re)initializes the store for the group of chips `[lo, hi)` of
    /// `config`, reusing column capacity from the previous group, and
    /// hoists every lifetime-constant per-chip value the epoch kernels
    /// need.
    ///
    /// The work runs as six passes over the group, so consecutive chips'
    /// libm calls in a pass are independent and the core overlaps them:
    /// the uniforms (each chip's RNG stream), the Box–Muller normals, the
    /// corners (`ChipSpec::draw`), the temperature-dependent rates, the
    /// anneal and hardening factors, and the guard flags. A pass's libm
    /// calls read only columns earlier passes wrote, and each chip runs
    /// the same operations in the same order as the per-chip draw and
    /// `ChipState::new`, so the bits do not move.
    pub(crate) fn reset(&mut self, config: &FleetConfig, cctx: &ColumnarCtx, lo: u64, hi: u64) {
        let len = (hi - lo) as usize;
        // Pad to the SIMD lane width so column tails autovectorize
        // without a scalar epilogue.
        let padded = len.div_ceil(dh_simd::LANES) * dh_simd::LANES;
        self.lo = lo;
        self.len = len;
        debug_assert!(
            config.total_epochs() < u64::from(u32::MAX),
            "epoch counters are u32 columns"
        );

        macro_rules! fill {
            ($col:expr, $v:expr) => {
                $col.clear();
                $col.resize(padded, $v);
            };
        }
        for_each_column!(self, fill);
        // Padding chips are marked dead so any lane-width sweep that does
        // read the tail treats them as inert.
        self.failed_epoch[len..].fill(0);

        self.draw_corners(cctx.chip_stream, config);
        self.derive_rates(config, cctx);
        self.derive_factors(cctx);
        self.derive_flags(config, cctx);
    }

    /// Passes 1–3: `ChipSpec::draw` for the group, a stage at a time.
    fn draw_corners(&mut self, stream: StreamSeed, config: &FleetConfig) {
        let n = self.len;
        // 1. Uniforms: open each chip's stream and draw its four normals'
        //    uniforms in `standard_normal`'s order.
        for (k, u) in self.uniforms[..n].iter_mut().enumerate() {
            let mut rng = stream.rng(self.lo + k as u64);
            for pair in u.chunks_exact_mut(2) {
                (pair[0], pair[1]) = normal_uniforms(&mut rng);
            }
        }
        // 2. Normals: Box–Muller's radius and angle.
        for (z, u) in self.normals[..n].iter_mut().zip(&self.uniforms) {
            for (z, pair) in z.iter_mut().zip(u.chunks_exact(2)) {
                *z = normal_radius(pair[0]) * normal_angle(pair[1]);
            }
        }
        // 3. Corners.
        let v = &config.variation;
        let base = config.base_temperature.value();
        for k in 0..n {
            let [wear, em, temp, util] = self.normals[k];
            self.wear_factor[k] = (v.process_sigma * wear).exp();
            self.em_factor[k] = (v.em_sigma * em).exp();
            self.temperature[k] = base + v.temp_sigma_c * temp;
            self.utilization[k] =
                Fraction::clamped((v.utilization_mean + v.utilization_sigma * util).max(0.05))
                    .value();
        }
    }

    /// Pass 4: everything that depends only on the chip's temperature and
    /// utilization — exactly `ChipState::new`'s EM increments and
    /// `ChipState::step`'s interval arithmetic (stress_time = run_time ·
    /// util, wear-scaled dt, idle = run_time − stress), the stress
    /// amplitude and the two relaxation θ's.
    fn derive_rates(&mut self, config: &FleetConfig, cctx: &ColumnarCtx) {
        let model = &cctx.model;
        let law = model.stress_law();
        let epoch = config.epoch.value();
        let run_heal = epoch - cctx.heal_dt;
        let duty = config.em_reversal_duty.value();
        let em_wear_heal = (1.0 - duty) - config.em_heal_efficiency.value() * duty;
        for k in 0..self.len {
            let temperature = Kelvin::new(self.temperature[k]);
            let ttf = cctx.black.median_ttf(config.j_local, temperature);
            let util = self.utilization[k];
            self.em_dn[k] = epoch * util / ttf.value() * self.em_factor[k];
            self.em_dh[k] = run_heal * util / ttf.value() * self.em_factor[k] * em_wear_heal;

            let st_n = epoch * util;
            let st_h = run_heal * util;
            self.stress_dt_n[k] = st_n * self.wear_factor[k];
            self.stress_dt_h[k] = st_h * self.wear_factor[k];
            self.idle_n[k] = epoch - st_n;
            self.idle_h[k] = run_heal - st_h;

            let stress_cond = StressCondition {
                gate_voltage: config.vdd,
                temperature,
            };
            self.a_stress[k] = law.a_mv * law.amplitude_scale_at(stress_cond, cctx.vdd_scale);
            self.theta_p[k] = model.theta(RecoveryCondition {
                gate_voltage: Volts::ZERO,
                temperature,
            });
            self.theta_d[k] = model.theta(RecoveryCondition {
                gate_voltage: config.recovery_bias,
                temperature,
            });
        }
    }

    /// Pass 5: `BtiDevice::recover`'s anneal factors for every
    /// (stored-θ, dt) pair one epoch can request, and
    /// `apply_stress_totals`'s hardening transfer per dt flavor.
    fn derive_factors(&mut self, cctx: &ColumnarCtx) {
        let model = &cctx.model;
        let params = model.permanent_params();
        let theta4 = model.theta4();
        let tau_soft = params.tau_soft_anneal.value();
        let tau_window = params.tau_window_reset.value();
        let tau_eq = params.tau_window_reset == params.tau_soft_anneal;
        let tau_harden = params.tau_harden;
        let heal_dt = cctx.heal_dt;
        let sf = |depth: f64, dt: f64| (-depth * dt / tau_soft).exp();
        let wf = |s: f64, depth: f64, dt: f64| {
            if tau_eq {
                s
            } else {
                (-depth * dt / tau_window).exp()
            }
        };
        for k in 0..self.len {
            let depth_p = self.theta_p[k] / theta4;
            let depth_d = self.theta_d[k] / theta4;
            let (idle_n, idle_h) = (self.idle_n[k], self.idle_h[k]);
            self.sf_p_heal[k] = sf(depth_p, heal_dt);
            self.sf_d_heal[k] = sf(depth_d, heal_dt);
            self.sf_p_idle_n[k] = sf(depth_p, idle_n);
            self.sf_d_idle_n[k] = sf(depth_d, idle_n);
            self.sf_p_idle_h[k] = sf(depth_p, idle_h);
            self.sf_d_idle_h[k] = sf(depth_d, idle_h);
            self.wf_p_heal[k] = wf(self.sf_p_heal[k], depth_p, heal_dt);
            self.wf_d_heal[k] = wf(self.sf_d_heal[k], depth_d, heal_dt);
            self.wf_p_idle_n[k] = wf(self.sf_p_idle_n[k], depth_p, idle_n);
            self.wf_d_idle_n[k] = wf(self.sf_d_idle_n[k], depth_d, idle_n);
            self.wf_p_idle_h[k] = wf(self.sf_p_idle_h[k], depth_p, idle_h);
            self.wf_d_idle_h[k] = wf(self.sf_d_idle_h[k], depth_d, idle_h);

            self.hf_n[k] = 1.0 - (-(Seconds::new(self.stress_dt_n[k]) / tau_harden)).exp();
            self.hf_h[k] = 1.0 - (-(Seconds::new(self.stress_dt_h[k]) / tau_harden)).exp();
        }
    }

    /// Pass 6: input guards and segment-compatibility predicates, exactly
    /// as `BtiDevice` evaluates them per call.
    fn derive_flags(&mut self, config: &FleetConfig, cctx: &ColumnarCtx) {
        let heal_dt = cctx.heal_dt;
        let bias = config.recovery_bias;
        let bv = bias.value();
        for k in 0..self.len {
            let temperature = Kelvin::new(self.temperature[k]);
            let stress_finite = StressCondition {
                gate_voltage: config.vdd,
                temperature,
            }
            .is_finite();
            let passive_finite = RecoveryCondition {
                gate_voltage: Volts::ZERO,
                temperature,
            }
            .is_finite();
            let deep_finite = RecoveryCondition {
                gate_voltage: bias,
                temperature,
            }
            .is_finite();
            let mut flags = 0u32;
            if !(self.stress_dt_n[k] > 0.0) || !stress_finite {
                flags |= F_STRESS_NOOP_N;
            }
            if !(self.stress_dt_h[k] > 0.0) || !stress_finite {
                flags |= F_STRESS_NOOP_H;
            }
            if !(heal_dt > 0.0) || !deep_finite {
                flags |= F_DEEP_NOOP;
            }
            if self.idle_n[k] > 0.0 && passive_finite {
                flags |= F_RUN_IDLE_N;
            }
            if self.idle_h[k] > 0.0 && passive_finite {
                flags |= F_RUN_IDLE_H;
            }
            // `BtiDevice::recover`'s same_segment predicate, specialized
            // to the two conditions a fleet chip ever recovers at. Both
            // compare the chip against itself, so |x − x| < ε reduces to
            // x being finite (NaN/∞ self-differences compare false).
            let same_t = temperature.value().is_finite();
            if same_t {
                flags |= F_SAME_PP;
            }
            if same_t && bv.is_finite() {
                flags |= F_SAME_DD;
            }
            if same_t && (0.0 - bv).abs() < 0.010 {
                flags |= F_CROSS_PD;
            }
            self.flags[k] = flags;
        }
    }

    /// Every column's capacity, in [`for_each_column!`] order.
    #[cfg(test)]
    pub(crate) fn column_capacities(&self) -> Vec<usize> {
        let mut caps = Vec::new();
        macro_rules! cap {
            ($col:expr, $v:expr) => {
                caps.push($col.capacity());
            };
        }
        for_each_column!(self, cap);
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{ChipSpec, VariationModel};
    use proptest::prelude::*;

    /// Variation models that steer the draw's edges: the default, all
    /// σ's zero (every corner is its mean), and a utilization spread that
    /// hits both the 0.05 floor and the clamp at 1.
    fn variations() -> [VariationModel; 3] {
        [
            VariationModel::default(),
            VariationModel {
                process_sigma: 0.0,
                em_sigma: 0.0,
                temp_sigma_c: 0.0,
                utilization_mean: 0.6,
                utilization_sigma: 0.0,
            },
            VariationModel {
                utilization_mean: 0.5,
                utilization_sigma: 1.0,
                ..VariationModel::default()
            },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The group's corner columns are `ChipSpec::draw`, chip by chip,
        /// bit for bit, for any group bounds (lengths that are not a
        /// multiple of the lane width included).
        #[test]
        fn columnar_corner_draw_matches_chip_spec_draw(
            seed in 0u64..u64::MAX,
            lo in 0u64..u64::MAX / 2,
            len in 1u64..131,
            which in 0usize..3,
        ) {
            let config = FleetConfig {
                seed,
                variation: variations()[which].clone(),
                ..FleetConfig::default()
            };
            let cctx = ColumnarCtx::new(&config);
            let mut store = ChipStore::new();
            store.reset(&config, &cctx, lo, lo + len);
            prop_assert!(store.len == len as usize);
            for k in 0..store.len {
                let index = lo + k as u64;
                let spec = ChipSpec::draw(seed, index, config.base_temperature, &config.variation);
                let got = [
                    store.wear_factor[k],
                    store.em_factor[k],
                    store.temperature[k],
                    store.utilization[k],
                ];
                let want = [
                    spec.wear_factor,
                    spec.em_factor,
                    spec.temperature.value(),
                    spec.utilization.value(),
                ];
                prop_assert!(
                    got.map(f64::to_bits) == want.map(f64::to_bits),
                    "seed {seed}, chip {index} (group [{lo}, {})): corners {got:?} vs draw {want:?}",
                    lo + len
                );
            }
        }
    }

    #[test]
    fn the_wide_utilization_spread_reaches_both_clamps() {
        // The proptest's third model is only a clamp test if its draws
        // reach both ends: pin that they do, on the columnar side.
        let config = FleetConfig {
            seed: 3,
            variation: variations()[2].clone(),
            ..FleetConfig::default()
        };
        let mut store = ChipStore::new();
        store.reset(&config, &ColumnarCtx::new(&config), 1_000, 1_130);
        let util = &store.utilization[..store.len];
        assert!(util.iter().all(|&u| (0.05..=1.0).contains(&u)));
        assert!(util.contains(&0.05), "no chip hit the 0.05 floor");
        assert!(util.contains(&1.0), "no chip hit the clamp at 1");
    }
}
