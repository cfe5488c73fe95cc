//! The columnar (SoA) chip-state substrate the epoch kernels sweep.
//!
//! [`ChipStore`] holds one contiguous column per chip field for a whole
//! shard, padded to the `dh-simd` lane width, so the epoch loop touches
//! memory linearly instead of hopping across `ChipState` structs. Every
//! value a chip needs that is *constant over its lifetime* — stress
//! durations, EM damage increments, relaxation θ's, the soft-anneal and
//! hardening exponentials — is hoisted into per-chip constant columns at
//! [`ChipStore::reset`] time, leaving the per-epoch kernels with pure
//! column arithmetic plus the two genuinely state-dependent
//! transcendentals (the stress power law and the universal-relaxation
//! curve).
//!
//! The columnar kernels in [`crate::kernel`] replicate the scalar
//! reference ([`crate::chip::ChipState`]) **operation for operation**:
//! every float expression is evaluated in the same order with the same
//! libm calls, so reports are bit-identical to the per-chip path — the
//! property the `fleet_columnar` proptest pins.

use dh_bti::{AnalyticBtiModel, RecoveryCondition, StressCondition};
use dh_circuit::RingOscillator;
use dh_units::rng::StreamSeed;
use dh_units::{Seconds, Volts};

use crate::chip::{ChipSpec, CHIP_STREAM};
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
/// scalar/AVX2 function boundary by value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnarCtx {
    /// The paper-calibrated analytic BTI model — hoisted once per run
    /// instead of re-solved per chip like `BtiDevice::paper_calibrated`.
    pub model: AnalyticBtiModel,
    pub ro: RingOscillator,
    pub fresh_hz: f64,
    /// Deep-recovery time inside a healing epoch, seconds.
    pub heal_dt: f64,
    /// `a_mv · amplitude_scale(ACCELERATED)` — the reference amplitude
    /// equivalent-age reconstruction divides by when a recovery segment
    /// opens.
    pub a_ref: f64,
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
            heal_dt: config.epoch.value() * config.heal_fraction.value(),
            a_ref: law.a_mv * law.amplitude_scale(StressCondition::ACCELERATED),
            n: law.n,
            inv_n: 1.0 / law.n,
            em_pinned_floor: config.em_pinned_floor.value(),
            fail_guardband: config.fail_guardband,
        }
    }
}

/// One shard's chip state as structure-of-arrays columns.
///
/// Columns are plain `Vec`s (8-byte aligned, padded to a
/// [`dh_simd::LANES`] multiple) reused across shards via the
/// [`crate::sim::FleetRun`] slab pool, so steady-state simulation
/// allocates nothing. The first block is live state the kernels mutate;
/// the second block is per-chip constants hoisted at reset.
pub(crate) struct ChipStore {
    /// First global chip index covered by this store.
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
}

/// A read-only view over one shard slab's result columns: the snapshot
/// surface the `dh-serve` progress endpoint renders per-shard summaries
/// from without copying columns or materializing per-chip structs.
/// Borrowed from the [`crate::FleetRun`] slab pool via
/// [`crate::FleetRun::with_store_views`], so a view always shows the
/// state the most recently folded shard left behind.
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

macro_rules! for_each_f64_column {
    ($self:ident, $m:ident) => {
        $m!($self.rec, 0.0);
        $m!($self.soft, 0.0);
        $m!($self.hard, 0.0);
        $m!($self.window, 0.0);
        $m!($self.seg_start, 0.0);
        $m!($self.seg_age, 0.0);
        $m!($self.seg_elapsed, 0.0);
        $m!($self.em, 0.0);
        $m!($self.em_peak, 0.0);
        $m!($self.guardband, 0.0);
        $m!($self.score, 0.0);
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
    };
}

impl ChipStore {
    /// Borrows the result columns as a read-only [`StoreView`].
    pub(crate) fn view(&self) -> StoreView<'_> {
        StoreView {
            lo: self.lo,
            len: self.len,
            guardband: &self.guardband,
            failed_epoch: &self.failed_epoch,
            healed: &self.healed,
            epochs_run: &self.epochs_run,
        }
    }

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
        }
    }

    /// (Re)initializes the store for the chips `[lo, hi)` of `config`,
    /// reusing column capacity from the previous shard. Hoists every
    /// lifetime-constant per-chip value the epoch kernels need.
    pub(crate) fn reset(&mut self, config: &FleetConfig, cctx: &ColumnarCtx, lo: u64, hi: u64) {
        let len = (hi - lo) as usize;
        // Pad to the SIMD lane width so column tails autovectorize
        // without a scalar epilogue crossing into the next shard's data.
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
        for_each_f64_column!(self, fill);
        fill!(self.seg_kind, SEG_NONE);
        fill!(self.epochs_run, 0);
        fill!(self.healed, 0);
        fill!(self.failed_epoch, ALIVE);
        fill!(self.last_bits, f64::NAN.to_bits());
        fill!(self.stale, 0);
        fill!(self.flagged, 0);
        fill!(self.flags, 0);
        // Padding chips are marked dead so any lane-width sweep that does
        // read the tail treats them as inert.
        for k in len..padded {
            self.failed_epoch[k] = 0;
        }

        let model = &cctx.model;
        let law = model.stress_law();
        let params = model.permanent_params();
        let theta4 = model.theta4();
        let tau_soft = params.tau_soft_anneal.value();
        let tau_window = params.tau_window_reset.value();
        let tau_eq = params.tau_window_reset == params.tau_soft_anneal;
        let tau_harden = params.tau_harden;
        let epoch = config.epoch.value();
        let heal_dt = cctx.heal_dt;
        let run_heal = epoch - heal_dt;
        let duty = config.em_reversal_duty.value();
        let em_wear_heal = (1.0 - duty) - config.em_heal_efficiency.value() * duty;
        let black = dh_em::black::BlackModel::calibrated_to_paper();
        let bias = config.recovery_bias;
        let stream = StreamSeed::new(config.seed, CHIP_STREAM);

        for k in 0..len {
            let spec = ChipSpec::draw_from(
                &stream,
                lo + k as u64,
                config.base_temperature,
                &config.variation,
            );
            let stress_cond = StressCondition {
                gate_voltage: config.vdd,
                temperature: spec.temperature,
            };
            let passive_cond = RecoveryCondition {
                gate_voltage: Volts::ZERO,
                temperature: spec.temperature,
            };
            let deep_cond = RecoveryCondition {
                gate_voltage: bias,
                temperature: spec.temperature,
            };

            // Exactly `ChipState::new`'s EM increments.
            let ttf = black.median_ttf(config.j_local, spec.temperature);
            let util = spec.utilization.value();
            self.em_dn[k] = epoch * util / ttf.value() * spec.em_factor;
            self.em_dh[k] = run_heal * util / ttf.value() * spec.em_factor * em_wear_heal;

            // Exactly `ChipState::step`'s interval arithmetic: stress_time
            // = run_time · util, wear-scaled dt, idle = run_time − stress.
            let st_n = epoch * util;
            let st_h = run_heal * util;
            let sdt_n = st_n * spec.wear_factor;
            let sdt_h = st_h * spec.wear_factor;
            self.stress_dt_n[k] = sdt_n;
            self.stress_dt_h[k] = sdt_h;
            self.idle_n[k] = epoch - st_n;
            self.idle_h[k] = run_heal - st_h;

            self.a_stress[k] = law.a_mv * law.amplitude_scale(stress_cond);
            let theta_p = model.theta(passive_cond);
            let theta_d = model.theta(deep_cond);
            self.theta_p[k] = theta_p;
            self.theta_d[k] = theta_d;

            // `BtiDevice::recover`'s anneal factors for every (stored-θ,
            // dt) pair one epoch can request.
            let depth_p = theta_p / theta4;
            let depth_d = theta_d / theta4;
            let sf = |depth: f64, dt: f64| (-depth * dt / tau_soft).exp();
            let wf = |s: f64, depth: f64, dt: f64| {
                if tau_eq {
                    s
                } else {
                    (-depth * dt / tau_window).exp()
                }
            };
            self.sf_p_heal[k] = sf(depth_p, heal_dt);
            self.sf_d_heal[k] = sf(depth_d, heal_dt);
            self.sf_p_idle_n[k] = sf(depth_p, self.idle_n[k]);
            self.sf_d_idle_n[k] = sf(depth_d, self.idle_n[k]);
            self.sf_p_idle_h[k] = sf(depth_p, self.idle_h[k]);
            self.sf_d_idle_h[k] = sf(depth_d, self.idle_h[k]);
            self.wf_p_heal[k] = wf(self.sf_p_heal[k], depth_p, heal_dt);
            self.wf_d_heal[k] = wf(self.sf_d_heal[k], depth_d, heal_dt);
            self.wf_p_idle_n[k] = wf(self.sf_p_idle_n[k], depth_p, self.idle_n[k]);
            self.wf_d_idle_n[k] = wf(self.sf_d_idle_n[k], depth_d, self.idle_n[k]);
            self.wf_p_idle_h[k] = wf(self.sf_p_idle_h[k], depth_p, self.idle_h[k]);
            self.wf_d_idle_h[k] = wf(self.sf_d_idle_h[k], depth_d, self.idle_h[k]);

            // `apply_stress_totals`'s hardening transfer per dt flavor.
            self.hf_n[k] = 1.0 - (-(Seconds::new(sdt_n) / tau_harden)).exp();
            self.hf_h[k] = 1.0 - (-(Seconds::new(sdt_h) / tau_harden)).exp();

            // Input guards and segment-compatibility predicates, exactly
            // as `BtiDevice` evaluates them per call.
            let mut flags = 0u32;
            if !(sdt_n > 0.0) || !stress_cond.is_finite() {
                flags |= F_STRESS_NOOP_N;
            }
            if !(sdt_h > 0.0) || !stress_cond.is_finite() {
                flags |= F_STRESS_NOOP_H;
            }
            if !(heal_dt > 0.0) || !deep_cond.is_finite() {
                flags |= F_DEEP_NOOP;
            }
            if self.idle_n[k] > 0.0 && passive_cond.is_finite() {
                flags |= F_RUN_IDLE_N;
            }
            if self.idle_h[k] > 0.0 && passive_cond.is_finite() {
                flags |= F_RUN_IDLE_H;
            }
            // `BtiDevice::recover`'s same_segment predicate, specialized
            // to the two conditions a fleet chip ever recovers at. Both
            // compare the chip against itself, so |x − x| < ε reduces to
            // x being finite (NaN/∞ self-differences compare false).
            let same_t = spec.temperature.value().is_finite();
            let bv = bias.value();
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
}
