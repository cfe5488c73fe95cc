//! Capture–emission-time (CET) trap-ensemble BTI model (the paper's
//! Table I "Measurement" column).
//!
//! The ensemble represents the gate-oxide defect population of a device as
//! `N` traps, each with
//!
//! * an **emission time** `τ_e` (at the passive room-temperature reference
//!   condition) drawn from a heavy-tailed distribution spanning ~24 decades,
//! * a **capture time** `τ_c` (at the reference accelerated stress
//!   condition) correlated with `τ_e` — deep, slow-emitting traps are also
//!   slow to capture,
//! * soft (recoverable) and hard (consolidated) occupancy state.
//!
//! A recovery condition scales every emission rate by the acceleration
//! factor θ(V,T) shared with the analytic model, so "permanent" traps are
//! simply those whose `τ_e/θ` exceeds the recovery window — which is exactly
//! why the paper's *activated* recovery (θ ≫ 1) can empty traps passive
//! recovery never touches.
//!
//! Two mechanisms gate the permanent component, mirroring
//! [`crate::analytic::PermanentParams`]:
//!
//! * **window-gated deep capture** — capture into deep traps is a secondary
//!   process that requires sustained stress; its rate is scaled by
//!   `1 − exp(−(t_w/τ_p)^m)` in the continuous-stress window `t_w`. In-time
//!   scheduled recovery resets the window and thereby *prevents* permanent
//!   damage (Fig. 4);
//! * **hardening** — occupied deep traps consolidate (τ ≈ 2 h) after which
//!   no recovery condition can empty them (the >27 % residue of Table I).
//!
//! The emission-time distribution is a piecewise-linear CDF in `log₁₀ τ_e`
//! whose four interior knots are **fitted by simulating the paper's actual
//! measurement protocol** (24 h accelerated stress, 6 h recovery per
//! condition) until the ensemble reproduces the measured recovery
//! percentages.
//!
//! # Kernel layout
//!
//! Trap state lives in flat structure-of-arrays columns (`log_tau_e`,
//! `occ_soft`, `occ_hard`, …) rather than a `Vec<Trap>`. The expensive
//! per-trap quantities — the capture/emission base rates `10^−log τ` and
//! the deep-trap sigmoid weight — depend only on the trap parameters, so
//! they are precomputed once at construction (and after
//! [`TrapEnsemble::with_variation`]) into rate-table columns; the
//! stress/recover hot loops are then straight-line arithmetic plus one
//! exponential per trap-step, chunked across threads with fixed
//! boundaries (bit-identical at any worker count).
//!
//! The exponentials run through `dh-simd`: traps advance in lane groups
//! of [`dh_simd::LANES`] through branch-free polynomial
//! `exp(−x)`/`1 − exp(−x)` kernels that LLVM vectorizes under
//! `#[target_feature(enable = "avx512f")]` or `"avx2"`, whichever is the
//! widest the CPU runs, with a scalar compilation of the *same source*
//! selected at runtime when neither is available (or forced off) — every
//! backend executes the identical per-element IEEE op sequence, so
//! results are bit-identical under each. The saturated fast
//! path (skipping the polynomial once every lane of a group saturates) is
//! widened to lane granularity; because `dh_simd::one_minus_exp_neg`
//! returns exactly 1.0 at saturation, the skip is a pure optimization and
//! never changes a bit. Stress sub-stepping is adaptive:
//! the step count is chosen so the deep-capture gate moves by at most
//! [`GATE_STEP_TOL`] per step and hardening is resolved at `τ_harden/2`,
//! so long quiet intervals take few steps while transients stay resolved.

use std::sync::Arc;

use dh_units::rng::standard_normal;
use rand::Rng;

use dh_units::{Fraction, Seconds};

use crate::acceleration::RecoveryAcceleration;
use crate::analytic::{PermanentParams, StressLaw};
use crate::calibration::{self, TableOneTargets, DEFAULT_BETA};
use crate::condition::{RecoveryCondition, StressCondition};
use crate::error::BtiError;
use crate::memo;
use crate::wear::WearModel;

/// Lower edge of the emission-time distribution, log₁₀ seconds.
const LOG_TAU_MIN: f64 = -2.0;
/// Upper edge of the emission-time distribution, log₁₀ seconds.
const LOG_TAU_MAX: f64 = 22.0;
/// Correlation slope between capture and emission times (log–log).
const CAPTURE_SLOPE: f64 = 0.625;
/// Correlation intercept: log₁₀ τ_c = intercept + slope · log₁₀ τ_e.
const CAPTURE_INTERCEPT: f64 = -7.325;
/// Width (decades) of the shallow→deep transition of the gating sigmoid.
const DEEP_TRANSITION_DECADES: f64 = 0.8;
/// Voltage/temperature exponent mapping stress-amplitude scale to capture
/// rate (capture is more strongly field-accelerated than net wearout).
const CAPTURE_ACCEL_EXPONENT: f64 = 3.0;
/// Traps per parallel work unit in the stress/recover loops. Large enough
/// that chunk hand-out cost vanishes, small enough that a 2000-trap
/// ensemble still load-balances across a many-core box.
const TRAP_CHUNK: usize = 256;

/// Maximum movement of the deep-capture gate within one stress sub-step.
/// The gate is the only time-varying coefficient inside a constant-
/// condition stress call, and the kernel evaluates it at the step
/// midpoint, so the O(Δg²) midpoint-rule error per step stays below
/// `GATE_STEP_TOL²/8 ≈ 3e-5` of the gated rate — far inside the model's
/// own calibration tolerance.
const GATE_STEP_TOL: f64 = 1.0 / 64.0;
/// Gate level below which a stress interval is "quiet": deep capture and
/// hardening are negligible for the whole call, so one step suffices.
const GATE_QUIET: f64 = 1e-6;
/// Upper bound on stress sub-steps per call: keeps degenerate inputs
/// (decade-long single calls) from looping forever. At 4096 steps the
/// gate moves ≤ 2.5e-4 per step, far finer than `GATE_STEP_TOL`.
const MAX_SUB_STEPS: usize = 4096;
/// Capture exponent beyond which `1 − exp(−x)` rounds to exactly 1.0 in
/// f64 (`exp(−37) < 2⁻⁵³/2`), so the saturated kernel path may replace
/// the transcendental with the constant 1.0 **bit-exactly**.
const EXP_SATURATE: f64 = 37.0;
// The fast path leans on dh-simd returning exactly 1.0 at this same
// threshold; a drift between the two constants would silently break its
// bit-identity argument.
const _: () = assert!(EXP_SATURATE == dh_simd::ONE_MINUS_EXP_NEG_SATURATE);

/// Knot fits run in this process: the `bti.cet.calibration_fits`
/// counter.
static CALIBRATION_FITS: dh_obs::CounterCell = dh_obs::CounterCell::new("bti.cet.calibration_fits");

/// Number of emission-CDF knot fits executed so far in this process.
/// Hits in the calibration cache do not increment this — the count
/// exists so tests and `perf_snapshot` can verify the fit runs once per
/// distinct target set. The count is a relaxed atomic that publishes
/// nothing else: a thread sees the fits it ran, and those of threads it
/// has joined.
pub fn calibration_fit_runs() -> u64 {
    CALIBRATION_FITS.get().get()
}

/// Calibrated knots of the emission-time CDF: `(log₁₀ τ_e, cumulative
/// probability)` pairs, strictly increasing in both coordinates.
#[derive(Debug, Clone, PartialEq)]
struct EmissionCdf {
    knots: Vec<(f64, f64)>,
}

impl EmissionCdf {
    fn new(interior: &[(f64, f64)]) -> Self {
        let mut knots = Vec::with_capacity(interior.len() + 2);
        knots.push((LOG_TAU_MIN, 0.0));
        knots.extend_from_slice(interior);
        knots.push((LOG_TAU_MAX, 1.0));
        Self { knots }
    }

    /// Inverse CDF: the log₁₀ τ_e at cumulative probability `p ∈ [0, 1]`.
    ///
    /// Binary search for the bracketing segment (the knot list is sorted
    /// in probability), then the same linear interpolation a forward scan
    /// would produce.
    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        // First knot with cumulative probability ≥ p is the right end of
        // the bracketing segment; clamped to ≥ 1 so a left knot exists
        // (p = 0 lands on the first segment, as in a forward scan).
        let hi = self.knots.partition_point(|&(_, pk)| pk < p).max(1);
        if hi >= self.knots.len() {
            return LOG_TAU_MAX;
        }
        let (x0, p0) = self.knots[hi - 1];
        let (x1, p1) = self.knots[hi];
        if p1 == p0 {
            return x0;
        }
        x0 + (x1 - x0) * (p - p0) / (p1 - p0)
    }
}

/// A CET trap-ensemble BTI device.
///
/// Trap state is stored as structure-of-arrays columns (one `Vec<f64>`
/// per field, index = trap); see the module docs for the kernel layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TrapEnsemble {
    /// log₁₀ emission time at the passive room reference, seconds.
    log_tau_e: Vec<f64>,
    /// log₁₀ capture time at the reference accelerated stress, seconds.
    log_tau_c: Vec<f64>,
    /// Precomputed capture base rate `10^−log τ_c`, 1/s.
    capture_base: Vec<f64>,
    /// Precomputed emission base rate `10^−log τ_e`, 1/s.
    emit_base: Vec<f64>,
    /// Precomputed deep-trap gating weight (sigmoid of `log τ_e`).
    deep: Vec<f64>,
    /// Soft (recoverable) occupancy probability.
    occ_soft: Vec<f64>,
    /// Hard (consolidated, unrecoverable) occupancy probability.
    occ_hard: Vec<f64>,
    cdf: EmissionCdf,
    acceleration: RecoveryAcceleration,
    theta4: f64,
    stress_law: StressLaw,
    permanent: PermanentParams,
    /// ΔVth contribution (mV) of one fully occupied trap.
    per_trap_mv: f64,
    /// Continuous-stress window (drives deep-capture gating).
    window: Seconds,
    /// Boundary (log₁₀ τ_e) of the shallow→deep transition.
    deep_edge: f64,
}

/// The adaptive sub-step schedule for a constant-condition stress call:
/// `(steps, sub)` with `steps · sub = dt`.
///
/// The count resolves the two time-varying processes inside a stress
/// call: the deep-capture gate may move at most [`GATE_STEP_TOL`] per
/// step, and hardening is sampled at least every `τ_harden/2`. An
/// interval whose gate never exceeds [`GATE_QUIET`] is integrated in a
/// single step (the per-trap capture exponential is exact for constant
/// rates, so quiet intervals lose no accuracy).
fn stress_schedule(dt: f64, window0: f64, permanent: &PermanentParams) -> (usize, f64) {
    let tau_onset = permanent.tau_onset.value();
    let m = permanent.m;
    let g_end = gate_value(window0 + dt, tau_onset, m);
    if g_end <= GATE_QUIET {
        return (1, dt);
    }
    let g_start = gate_value(window0, tau_onset, m);
    let n_gate = ((g_end - g_start) / GATE_STEP_TOL).ceil();
    let n_harden = (dt / (0.5 * permanent.tau_harden.value())).ceil();
    let steps = (n_gate.max(n_harden) as usize).clamp(1, MAX_SUB_STEPS);
    (steps, dt / steps as f64)
}

/// The window-gating factor `1 − exp(−(w/τ_onset)^m)` of deep capture.
fn gate_value(window: f64, tau_onset: f64, m: f64) -> f64 {
    1.0 - (-((window / tau_onset).powf(m))).exp()
}

/// Lane-group width the stress kernel advances traps at (a source-level
/// width, not a register width). The saturated fast-path decision is made
/// per lane *group* (all lanes saturated), and because that decision is
/// part of the shared kernel body it is the same under every backend.
const LANES: usize = dh_simd::LANES;

/// Advances one lane group of traps through every sub-step of a stress
/// call. `gates` is non-decreasing, so if every lane's first-step capture
/// exponent saturates, every exponent of the whole group does — the
/// polynomial (which returns exactly 1.0 there) can be skipped without
/// changing a bit. Returns the number of lanes whose exponent saturates
/// (an observability statistic, not a control input).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stress_lane_group(
    s: &mut [f64; LANES],
    h: &mut [f64; LANES],
    c: &[f64; LANES],
    d: &[f64; LANES],
    gates: &[f64],
    amp_sub: f64,
    harden_step: f64,
    first_gate: f64,
) -> u64 {
    // Per-step capture exponent x = amp·c·((1−d) + d·g)·sub, split into
    // its gate-independent and gate-proportional parts so the inner loop
    // is one mul-add per lane.
    let mut x_shallow = [0.0; LANES];
    let mut x_deep = [0.0; LANES];
    let mut harden_scale = [0.0; LANES];
    let mut saturated = 0u64;
    let mut all_saturated = true;
    for l in 0..LANES {
        x_shallow[l] = amp_sub * c[l] * (1.0 - d[l]);
        x_deep[l] = amp_sub * c[l] * d[l];
        harden_scale[l] = d[l] * harden_step;
        let sat = x_shallow[l] + x_deep[l] * first_gate >= EXP_SATURATE;
        saturated += sat as u64;
        all_saturated &= sat;
    }
    if all_saturated {
        for &gate in gates {
            for l in 0..LANES {
                // What the full path computes with the polynomial pinned
                // at its exact saturated value 1.0.
                let captured = 1.0 - s[l] - h[l];
                let os = s[l] + captured;
                let harden = os * harden_scale[l] * gate;
                s[l] = os - harden;
                h[l] += harden;
            }
        }
    } else {
        for &gate in gates {
            for l in 0..LANES {
                let x = x_shallow[l] + x_deep[l] * gate;
                let captured = (1.0 - s[l] - h[l]) * dh_simd::one_minus_exp_neg(x);
                let os = s[l] + captured;
                let harden = os * harden_scale[l] * gate;
                s[l] = os - harden;
                h[l] += harden;
            }
        }
    }
    saturated
}

dh_simd::dispatch! {
    /// One parallel chunk of the stress kernel: traps advance in lane
    /// groups of [`LANES`]; the remainder group is padded with zero-rate
    /// lanes (`x = 0`: nothing is captured, nothing hardens, and a
    /// zero-exponent lane can never saturate, so padding never flips the
    /// group fast path — which would be harmless anyway, see
    /// [`stress_lane_group`]). Returns the chunk's saturated-lane count.
    #[allow(clippy::too_many_arguments)]
    fn stress_chunk_kernel(
        soft: &mut [f64],
        hard: &mut [f64],
        capture: &[f64],
        deepw: &[f64],
        gates: &[f64],
        amp_sub: f64,
        harden_step: f64,
        first_gate: f64,
    ) -> u64 {
        let n = soft.len();
        let mut saturated = 0u64;
        let mut i = 0;
        while i + LANES <= n {
            let mut s: [f64; LANES] = soft[i..i + LANES].try_into().unwrap();
            let mut h: [f64; LANES] = hard[i..i + LANES].try_into().unwrap();
            let c: [f64; LANES] = capture[i..i + LANES].try_into().unwrap();
            let d: [f64; LANES] = deepw[i..i + LANES].try_into().unwrap();
            saturated +=
                stress_lane_group(&mut s, &mut h, &c, &d, gates, amp_sub, harden_step, first_gate);
            soft[i..i + LANES].copy_from_slice(&s);
            hard[i..i + LANES].copy_from_slice(&h);
            i += LANES;
        }
        if i < n {
            let rem = n - i;
            let mut s = [0.0; LANES];
            let mut h = [0.0; LANES];
            let mut c = [0.0; LANES];
            let mut d = [0.0; LANES];
            s[..rem].copy_from_slice(&soft[i..]);
            h[..rem].copy_from_slice(&hard[i..]);
            c[..rem].copy_from_slice(&capture[i..]);
            d[..rem].copy_from_slice(&deepw[i..]);
            saturated +=
                stress_lane_group(&mut s, &mut h, &c, &d, gates, amp_sub, harden_step, first_gate);
            soft[i..].copy_from_slice(&s[..rem]);
            hard[i..].copy_from_slice(&h[..rem]);
        }
        saturated
    }
}

dh_simd::dispatch! {
    /// One parallel chunk of the recovery kernel: element-wise
    /// `s ← s · exp(−x)` with `dh_simd::exp_neg` flushing to exactly 0.0
    /// past the underflow threshold (occupancies are non-negative, so the
    /// multiply zeroes the lane). No group-granular decisions, so no
    /// padding is needed — the straight loop is bit-identical under every
    /// backend.
    fn recover_chunk_kernel(
        soft: &mut [f64],
        emit: &[f64],
        deepw: &[f64],
        theta: f64,
        anneal: f64,
        dt_s: f64,
    ) {
        for ((s, &e), &d) in soft.iter_mut().zip(emit).zip(deepw) {
            let x = (theta * e + anneal * d) * dt_s;
            *s *= dh_simd::exp_neg(x);
        }
    }
}

thread_local! {
    /// Reusable gate-trajectory buffer: `stress` fills it once per call,
    /// keeping the hot path allocation-free after the first call on each
    /// thread.
    static GATES_SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl TrapEnsemble {
    /// Builds an ensemble of `n_traps` calibrated against the paper's
    /// Table I **measurement** column by simulating the measurement protocol.
    ///
    /// Trap parameters are stratified (deterministic) samples of the fitted
    /// distribution; use [`TrapEnsemble::with_variation`] to add
    /// device-to-device randomness.
    ///
    /// # Errors
    ///
    /// Returns [`BtiError::EmptyEnsemble`] if `n_traps == 0`, or
    /// [`BtiError::CalibrationDiverged`] if the protocol fit fails to reach
    /// tolerance (does not happen for the built-in targets; covered by
    /// tests).
    pub fn paper_calibrated(n_traps: usize) -> Result<Self, BtiError> {
        Self::calibrated(n_traps, &TableOneTargets::measurement_column())
    }

    /// Builds an ensemble calibrated against custom Table I-style targets.
    ///
    /// The knot fit is memoized per `(n_traps, targets)`: the first
    /// construction runs the iterative protocol fit, later ones clone the
    /// cached result. Use [`calibration_fit_runs`] to observe the cache.
    ///
    /// # Errors
    ///
    /// See [`TrapEnsemble::paper_calibrated`]; additionally returns
    /// [`BtiError::UnsolvableCalibration`] if the closed-form seed
    /// calibration rejects the targets.
    pub fn calibrated(n_traps: usize, targets: &TableOneTargets) -> Result<Self, BtiError> {
        Self::calibrated_shared(n_traps, targets).map(|fitted| (*fitted).clone())
    }

    /// [`TrapEnsemble::calibrated`] without the final clone: returns the
    /// cached fitted ensemble itself. Two calls with identical arguments
    /// return the same `Arc`, which is also how tests verify the fit runs
    /// once per target set.
    ///
    /// # Errors
    ///
    /// See [`TrapEnsemble::calibrated`]. Errors are not cached — a failing
    /// target set re-runs the fit on every attempt.
    pub fn calibrated_shared(
        n_traps: usize,
        targets: &TableOneTargets,
    ) -> Result<Arc<Self>, BtiError> {
        if n_traps == 0 {
            return Err(BtiError::EmptyEnsemble);
        }
        memo::fitted(n_traps, targets, || {
            CALIBRATION_FITS.get().incr();
            let _timer = dh_obs::span("bti.cet.calibration_fit_seconds");
            Self::fit(n_traps, targets)
        })
    }

    /// The actual iterative knot fit behind [`TrapEnsemble::calibrated`].
    fn fit(n_traps: usize, targets: &TableOneTargets) -> Result<Self, BtiError> {
        // Seed the acceleration factors and initial knot positions from the
        // closed-form analytic solution for the same targets.
        let seed = calibration::solve(targets, DEFAULT_BETA)?;
        let acceleration = seed.acceleration;
        let theta4 = acceleration.factor(RecoveryCondition {
            gate_voltage: -targets.reverse_bias,
            temperature: targets.hot,
        });

        let thetas: [f64; 4] = RecoveryCondition::table_one().map(|c| acceleration.factor(c));
        let t_rec = targets.recovery_time.value();
        let mut knots: Vec<(f64, f64)> = thetas
            .iter()
            .zip(targets.fractions)
            .map(|(&theta, p)| ((t_rec * theta).log10(), p.value()))
            .collect();

        let tolerance = 0.0025;
        let mut worst = f64::INFINITY;
        for _ in 0..40 {
            let ensemble = Self::from_knots(n_traps, &knots, acceleration, theta4, targets);
            let simulated = ensemble.simulate_protocol(targets);
            worst = 0.0;
            for i in 0..4 {
                let err = simulated[i] - targets.fractions[i].value();
                worst = worst.max(err.abs());
                // Local CDF slope (probability per decade) around knot i.
                let (lo_x, lo_p) = if i == 0 {
                    (LOG_TAU_MIN, 0.0)
                } else {
                    knots[i - 1]
                };
                let (hi_x, hi_p) = if i == 3 {
                    (LOG_TAU_MAX, 1.0)
                } else {
                    knots[i + 1]
                };
                let slope = ((hi_p - lo_p) / (hi_x - lo_x)).max(1e-4);
                // If the ensemble recovers too much at condition i, push the
                // knot right (slower emission at that quantile). Damped.
                let mut x = knots[i].0 + 0.7 * err / slope;
                let lo = if i == 0 {
                    LOG_TAU_MIN + 0.1
                } else {
                    knots[i - 1].0 + 0.05
                };
                let hi = if i == 3 {
                    LOG_TAU_MAX - 0.1
                } else {
                    knots[i + 1].0 - 0.05
                };
                // A knot squeezed by its neighbours stays ordered.
                if lo < hi {
                    x = x.clamp(lo, hi);
                    knots[i].0 = x;
                }
            }
            if worst < tolerance {
                let mut ensemble = Self::from_knots(n_traps, &knots, acceleration, theta4, targets);
                ensemble.normalize_magnitude(targets);
                return Ok(ensemble);
            }
        }
        Err(BtiError::CalibrationDiverged {
            worst_error: worst,
            tolerance,
        })
    }

    fn from_knots(
        n_traps: usize,
        interior: &[(f64, f64)],
        acceleration: RecoveryAcceleration,
        theta4: f64,
        targets: &TableOneTargets,
    ) -> Self {
        let cdf = EmissionCdf::new(interior);
        // Deep traps are those beyond the deepest calibrated recovery reach.
        let deep_edge = (targets.recovery_time.value() * theta4).log10();
        let log_tau_e: Vec<f64> = (0..n_traps)
            .map(|k| {
                let u = (k as f64 + 0.5) / n_traps as f64;
                cdf.quantile(u)
            })
            .collect();
        let log_tau_c: Vec<f64> = log_tau_e
            .iter()
            .map(|&le| CAPTURE_INTERCEPT + CAPTURE_SLOPE * le)
            .collect();
        let mut ensemble = Self {
            log_tau_e,
            log_tau_c,
            capture_base: Vec::new(),
            emit_base: Vec::new(),
            deep: Vec::new(),
            occ_soft: vec![0.0; n_traps],
            occ_hard: vec![0.0; n_traps],
            cdf,
            acceleration,
            theta4,
            stress_law: StressLaw::default(),
            permanent: PermanentParams::default(),
            per_trap_mv: 1.0,
            window: Seconds::ZERO,
            deep_edge,
        };
        ensemble.rebuild_rate_tables();
        ensemble
    }

    /// Recomputes the derived rate-table columns (`capture_base`,
    /// `emit_base`, `deep`) from the trap parameters. Must be called after
    /// any mutation of `log_tau_e`/`log_tau_c` — this is the only place
    /// the hot-loop `powf`/sigmoid evaluations happen.
    fn rebuild_rate_tables(&mut self) {
        self.capture_base = self.log_tau_c.iter().map(|&lc| 10f64.powf(-lc)).collect();
        self.emit_base = self.log_tau_e.iter().map(|&le| 10f64.powf(-le)).collect();
        let deep_edge = self.deep_edge;
        self.deep = self
            .log_tau_e
            .iter()
            .map(|&le| deep_weight_at(deep_edge, le))
            .collect();
    }

    /// Scales the per-trap ΔVth contribution so the calibration protocol's
    /// end-of-stress wearout matches the analytic stress law.
    fn normalize_magnitude(&mut self, targets: &TableOneTargets) {
        let mut probe = self.clone();
        probe.per_trap_mv = 1.0;
        probe.stress(targets.stress_time, StressCondition::ACCELERATED);
        let occupied = probe.delta_vth_mv();
        if occupied > 0.0 {
            let want = self
                .stress_law
                .wearout_mv(targets.stress_time, StressCondition::ACCELERATED);
            self.per_trap_mv = want / occupied;
        }
    }

    /// Simulates the Table I protocol and returns the four recovery
    /// fractions in condition order.
    fn simulate_protocol(&self, targets: &TableOneTargets) -> [f64; 4] {
        let mut stressed = self.clone();
        stressed.stress(targets.stress_time, StressCondition::ACCELERATED);
        let w0 = stressed.delta_vth_mv();
        RecoveryCondition::table_one().map(|cond| {
            let mut d = stressed.clone();
            d.recover(targets.recovery_time, cond);
            if w0 > 0.0 {
                (w0 - d.delta_vth_mv()) / w0
            } else {
                0.0
            }
        })
    }

    /// Number of traps.
    pub fn len(&self) -> usize {
        self.log_tau_e.len()
    }

    /// Whether the ensemble has no traps (never true for constructed
    /// ensembles).
    pub fn is_empty(&self) -> bool {
        self.log_tau_e.is_empty()
    }

    /// Total |ΔVth| in millivolts.
    pub fn delta_vth_mv(&self) -> f64 {
        self.per_trap_mv
            * self
                .occ_soft
                .iter()
                .zip(&self.occ_hard)
                .map(|(s, h)| s + h)
                .sum::<f64>()
    }

    /// The consolidated (hard) permanent component in millivolts.
    pub fn permanent_mv(&self) -> f64 {
        self.per_trap_mv * self.occ_hard.iter().sum::<f64>()
    }

    /// Mean trap occupancy (soft + hard), a number in `[0, 1]`.
    pub fn mean_occupancy(&self) -> Fraction {
        if self.is_empty() {
            return Fraction::ZERO;
        }
        let total: f64 = self
            .occ_soft
            .iter()
            .zip(&self.occ_hard)
            .map(|(s, h)| s + h)
            .sum();
        Fraction::clamped(total / self.len() as f64)
    }

    /// Test-only view of the occupancy columns `(soft, hard)`.
    #[doc(hidden)]
    pub fn occupancy_columns(&self) -> (&[f64], &[f64]) {
        (&self.occ_soft, &self.occ_hard)
    }

    /// The capture-rate amplitude at `cond` relative to the reference
    /// accelerated condition.
    fn capture_amplitude(&self, cond: StressCondition) -> f64 {
        self.stress_law
            .amplitude_scale(cond)
            .powf(CAPTURE_ACCEL_EXPONENT)
            .min(1.0e3)
    }

    /// Midpoint gate values for each sub-step of a stress call, written
    /// into `buf` (cleared first; capacity is reused across calls).
    fn fill_gate_trajectory(&self, buf: &mut Vec<f64>, steps: usize, sub: f64) {
        let tau_onset = self.permanent.tau_onset.value();
        let m = self.permanent.m;
        let window0 = self.window.value();
        buf.clear();
        buf.extend((0..steps).map(|k| gate_value(window0 + (k as f64 + 0.5) * sub, tau_onset, m)));
    }

    /// Applies `dt` of stress at `cond`.
    ///
    /// Runs the SIMD structure-of-arrays kernel: the adaptive sub-step
    /// schedule and the per-step gate trajectory are computed once (into a
    /// reused thread-local buffer — no per-call allocation), then traps
    /// evolve through all steps in lane groups of [`LANES`] using their
    /// precomputed rate-table entries and the `dh-simd` polynomial
    /// `1 − exp(−x)`. Lane groups whose every capture exponent saturates
    /// (see [`EXP_SATURATE`]) skip the polynomial bit-exactly. The kernel
    /// body is compiled for AVX-512, AVX2 and plain scalar and dispatched
    /// at runtime; results are bit-identical at any thread count and under
    /// every backend.
    pub fn stress(&mut self, dt: Seconds, cond: StressCondition) {
        if !(dt.value() > 0.0) || !cond.is_finite() {
            return;
        }
        let (steps, sub) = stress_schedule(dt.value(), self.window.value(), &self.permanent);
        dh_obs::counter!("bti.cet.stress_calls").incr();
        dh_obs::counter!("bti.cet.sub_steps").add(steps as u64);
        dh_obs::histogram!("bti.cet.step_seconds").record(sub);
        GATES_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            self.fill_gate_trajectory(&mut buf, steps, sub);
            let gates: &[f64] = &buf;
            let first_gate = gates[0];
            let amp_sub = self.capture_amplitude(cond) * sub;
            let harden_step = 1.0 - (-sub / self.permanent.tau_harden.value()).exp();
            let capture_base = &self.capture_base;
            let deep = &self.deep;
            // Each chunk reports how many of its lanes saturated, so obs
            // can track the fraction of transcendental-free traps.
            let saturated_per_chunk = dh_exec::par_chunks_mut2(
                &mut self.occ_soft,
                &mut self.occ_hard,
                TRAP_CHUNK,
                |ci, soft, hard| {
                    let offset = ci * TRAP_CHUNK;
                    let capture = &capture_base[offset..offset + soft.len()];
                    let deepw = &deep[offset..offset + soft.len()];
                    stress_chunk_kernel(
                        soft,
                        hard,
                        capture,
                        deepw,
                        gates,
                        amp_sub,
                        harden_step,
                        first_gate,
                    )
                },
            );
            dh_obs::counter!("bti.cet.traps_saturated")
                .add(saturated_per_chunk.iter().sum::<u64>());
            dh_obs::counter!("bti.cet.traps_stressed").add(self.occ_soft.len() as u64);
        });
        self.window += Seconds::new(sub * steps as f64);
    }

    /// Scalar per-trap reference for [`TrapEnsemble::stress`]: the same
    /// adaptive schedule and model, but with every per-trap `powf` and
    /// sigmoid re-evaluated inside the loop and libm in place of the
    /// `dh-simd` polynomial. Capture uses `−expm1(−x)` rather than the
    /// naive `1 − exp(−x)`: for the small exponents of short, weak stress
    /// the subtraction cancels (up to 7e-2 relative per trap after 2 s at
    /// 0.4 V and 25 °C), which would make the oracle, not the kernel, the
    /// error being measured. The SoA kernel must agree with this to ≤1e-12
    /// relative on the aggregate observables. Not part of the API.
    #[doc(hidden)]
    pub fn stress_reference(&mut self, dt: Seconds, cond: StressCondition) {
        if !(dt.value() > 0.0) || !cond.is_finite() {
            return;
        }
        let (steps, sub) = stress_schedule(dt.value(), self.window.value(), &self.permanent);
        let mut gates = Vec::new();
        self.fill_gate_trajectory(&mut gates, steps, sub);
        let amp = self.capture_amplitude(cond);
        let harden_step = 1.0 - (-sub / self.permanent.tau_harden.value()).exp();
        let deep_edge = self.deep_edge;
        for (((&le, &lc), s), h) in self
            .log_tau_e
            .iter()
            .zip(&self.log_tau_c)
            .zip(&mut self.occ_soft)
            .zip(&mut self.occ_hard)
        {
            let deep = deep_weight_at(deep_edge, le);
            let base_rate = amp / 10f64.powf(lc);
            for &gate in &gates {
                let rate = base_rate * ((1.0 - deep) + deep * gate);
                let captured = (1.0 - *s - *h) * -(-rate * sub).exp_m1();
                *s += captured;
                let harden = *s * deep * gate * harden_step;
                *s -= harden;
                *h += harden;
            }
        }
        self.window += Seconds::new(sub * steps as f64);
    }

    /// Applies `dt` of recovery at `cond`.
    ///
    /// One exponential per trap over the precomputed emission-rate column,
    /// evaluated by the `dh-simd` polynomial `exp(−x)` (exactly 0.0 past
    /// [`dh_simd::EXP_NEG_UNDERFLOW`], which zeroes the occupancy). The
    /// kernel body is compiled for AVX-512, AVX2 and plain scalar and
    /// dispatched at runtime; bit-identical at any thread count and under
    /// every backend.
    pub fn recover(&mut self, dt: Seconds, cond: RecoveryCondition) {
        if !(dt.value() > 0.0) || !cond.is_finite() {
            return;
        }
        dh_obs::counter!("bti.cet.recover_calls").incr();
        let theta = self.acceleration.factor(cond);
        let depth = theta / self.theta4;
        // Deep recovery additionally relaxes precursor (soft) occupancy of
        // deep traps before it consolidates.
        let anneal = depth / self.permanent.tau_soft_anneal.value();
        let dt_s = dt.value();
        let emit_base = &self.emit_base;
        let deep = &self.deep;
        dh_exec::par_chunks_mut(&mut self.occ_soft, TRAP_CHUNK, |ci, soft| {
            let offset = ci * TRAP_CHUNK;
            let emit = &emit_base[offset..offset + soft.len()];
            let deepw = &deep[offset..offset + soft.len()];
            recover_chunk_kernel(soft, emit, deepw, theta, anneal, dt_s);
        });
        // Deep recovery resets the continuous-stress window.
        self.window = self.window * (-depth * dt_s / self.permanent.tau_window_reset.value()).exp();
    }

    /// Scalar per-trap reference for [`TrapEnsemble::recover`] (per-trap
    /// `powf` and sigmoid, serial). Not part of the API.
    #[doc(hidden)]
    pub fn recover_reference(&mut self, dt: Seconds, cond: RecoveryCondition) {
        if !(dt.value() > 0.0) || !cond.is_finite() {
            return;
        }
        let theta = self.acceleration.factor(cond);
        let depth = theta / self.theta4;
        let tau_soft = self.permanent.tau_soft_anneal.value();
        let deep_edge = self.deep_edge;
        let dt_s = dt.value();
        for (&le, s) in self.log_tau_e.iter().zip(&mut self.occ_soft) {
            let emit_rate = theta / 10f64.powf(le);
            let deep = deep_weight_at(deep_edge, le);
            let anneal_rate = deep * depth / tau_soft;
            *s *= (-(emit_rate + anneal_rate) * dt_s).exp();
        }
        self.window = self.window * (-depth * dt_s / self.permanent.tau_window_reset.value()).exp();
    }

    /// Adds device-to-device variation: jitters every trap's emission and
    /// capture times by log-normal perturbations (`sigma_decades` standard
    /// deviation in log₁₀ space) and rebuilds the precomputed rate tables.
    #[must_use]
    pub fn with_variation<R: Rng>(mut self, sigma_decades: f64, rng: &mut R) -> Self {
        for (le, lc) in self.log_tau_e.iter_mut().zip(&mut self.log_tau_c) {
            let ge: f64 = standard_normal(rng);
            let gc: f64 = standard_normal(rng);
            *le = (*le + sigma_decades * ge).clamp(LOG_TAU_MIN, LOG_TAU_MAX);
            *lc += sigma_decades * gc;
        }
        self.rebuild_rate_tables();
        self
    }

    /// Runs the Table I protocol on this (fresh) ensemble, returning the
    /// four recovery percentages in condition order — the crate's analogue
    /// of re-running the paper's measurement.
    pub fn table_one_percentages(&self) -> [f64; 4] {
        self.simulate_protocol(&TableOneTargets::measurement_column())
            .map(|f| f * 100.0)
    }
}

impl WearModel for TrapEnsemble {
    fn stress(&mut self, dt: Seconds, cond: StressCondition) {
        TrapEnsemble::stress(self, dt, cond);
    }

    fn recover(&mut self, dt: Seconds, cond: RecoveryCondition) {
        TrapEnsemble::recover(self, dt, cond);
    }

    fn delta_vth_mv(&self) -> f64 {
        TrapEnsemble::delta_vth_mv(self)
    }

    fn permanent_mv(&self) -> f64 {
        TrapEnsemble::permanent_mv(self)
    }
}

/// The deep-trap gating weight: 0 for shallow traps, →1 beyond `deep_edge`.
#[inline]
fn deep_weight_at(deep_edge: f64, log_tau_e: f64) -> f64 {
    1.0 / (1.0 + (-(log_tau_e - deep_edge) / DEEP_TRANSITION_DECADES).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_units::rng::seeded_rng;

    fn ensemble() -> TrapEnsemble {
        TrapEnsemble::paper_calibrated(2000).expect("calibration converges")
    }

    fn rel_diff(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1e-30)
    }

    #[test]
    fn calibration_reproduces_measurement_column() {
        let e = ensemble();
        let got = e.table_one_percentages();
        let want = [0.66, 16.7, 28.7, 72.4];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1.0, "got {got:?} want {want:?}");
        }
    }

    #[test]
    fn empty_ensemble_is_rejected() {
        assert!(matches!(
            TrapEnsemble::paper_calibrated(0),
            Err(BtiError::EmptyEnsemble)
        ));
    }

    #[test]
    fn quantile_function_is_monotone() {
        let e = ensemble();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = e.cdf.quantile(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
        assert_eq!(e.cdf.quantile(0.0), LOG_TAU_MIN);
        assert_eq!(e.cdf.quantile(1.0), LOG_TAU_MAX);
    }

    #[test]
    fn binary_search_quantile_matches_linear_scan() {
        // The pre-PR2 forward scan, kept verbatim as the semantics oracle.
        let linear = |cdf: &EmissionCdf, p: f64| -> f64 {
            let p = p.clamp(0.0, 1.0);
            for pair in cdf.knots.windows(2) {
                let (x0, p0) = pair[0];
                let (x1, p1) = pair[1];
                if p <= p1 {
                    if p1 == p0 {
                        return x0;
                    }
                    return x0 + (x1 - x0) * (p - p0) / (p1 - p0);
                }
            }
            LOG_TAU_MAX
        };
        let e = ensemble();
        let cdf = &e.cdf;
        for i in 0..=10_000 {
            let p = i as f64 / 10_000.0;
            assert_eq!(
                cdf.quantile(p).to_bits(),
                linear(cdf, p).to_bits(),
                "quantile({p}) diverged from the linear scan"
            );
        }
        // Hit every knot probability exactly (the boundary cases).
        for &(_, pk) in &cdf.knots {
            assert_eq!(cdf.quantile(pk).to_bits(), linear(cdf, pk).to_bits());
        }
    }

    #[test]
    fn stress_magnitude_matches_analytic_law() {
        let mut e = ensemble();
        e.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let w = e.delta_vth_mv();
        assert!((w - 50.0).abs() < 2.5, "24 h wearout = {w} mV");
    }

    #[test]
    fn extended_deep_recovery_leaves_permanent_residue() {
        // Paper: even with recovery "much longer than 6 hours" under
        // condition 4, >27 % cannot be recovered after a 24 h stress.
        let mut e = ensemble();
        e.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let w0 = e.delta_vth_mv();
        e.recover(
            Seconds::from_hours(48.0),
            RecoveryCondition::ACTIVE_ACCELERATED,
        );
        let recovered = (w0 - e.delta_vth_mv()) / w0;
        assert!(recovered < 0.80, "48 h deep recovery removed {recovered}");
        assert!(recovered > 0.70);
    }

    #[test]
    fn scheduled_recovery_prevents_permanent_component() {
        // Fig. 4 at trap granularity: 1 h : 1 h cycling leaves almost no
        // consolidated occupancy, continuous stress leaves a lot.
        let fresh = ensemble();

        let mut continuous = fresh.clone();
        continuous.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let p_cont = continuous.permanent_mv();

        let mut cycled = fresh;
        for _ in 0..24 {
            cycled.stress(Seconds::from_hours(1.0), StressCondition::ACCELERATED);
            cycled.recover(
                Seconds::from_hours(1.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
        }
        let p_cyc = cycled.permanent_mv();
        assert!(
            p_cyc < 0.2 * p_cont,
            "cycled permanent {p_cyc} vs continuous {p_cont}"
        );
    }

    #[test]
    fn passive_recovery_is_slow() {
        let mut e = ensemble();
        e.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let w0 = e.delta_vth_mv();
        e.recover(Seconds::from_hours(6.0), RecoveryCondition::PASSIVE);
        let r = (w0 - e.delta_vth_mv()) / w0;
        assert!(r < 0.02, "passive recovery {r}");
    }

    #[test]
    fn recovery_ordering_matches_conditions() {
        let mut stressed = ensemble();
        stressed.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let w0 = stressed.delta_vth_mv();
        let mut rs = Vec::new();
        for cond in RecoveryCondition::table_one() {
            let mut d = stressed.clone();
            d.recover(Seconds::from_hours(6.0), cond);
            rs.push((w0 - d.delta_vth_mv()) / w0);
        }
        assert!(
            rs[0] < rs[1] && rs[1] < rs[3] && rs[0] < rs[2] && rs[2] < rs[3],
            "{rs:?}"
        );
    }

    #[test]
    fn variation_changes_but_does_not_break_the_ensemble() {
        let mut rng = seeded_rng(42, "cet-variation");
        let base = ensemble();
        let varied = base.clone().with_variation(0.3, &mut rng);
        assert_eq!(varied.len(), base.len());
        let mut a = base.clone();
        let mut b = varied;
        a.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        b.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let (wa, wb) = (a.delta_vth_mv(), b.delta_vth_mv());
        assert!(wa != wb);
        assert!(
            (wa - wb).abs() / wa < 0.2,
            "variation too large: {wa} vs {wb}"
        );
    }

    #[test]
    fn variation_rebuilds_the_rate_tables() {
        // The jittered ensemble must behave identically whether its rate
        // tables were rebuilt (the kernel path) or derived on the fly (the
        // scalar reference path, which reads only the log-τ columns).
        let mut rng = seeded_rng(7, "cet-variation-tables");
        let varied = ensemble().with_variation(0.3, &mut rng);
        let mut fast = varied.clone();
        let mut reference = varied;
        fast.stress(Seconds::from_hours(6.0), StressCondition::ACCELERATED);
        reference.stress_reference(Seconds::from_hours(6.0), StressCondition::ACCELERATED);
        assert!(
            rel_diff(fast.delta_vth_mv(), reference.delta_vth_mv()) < 1e-12,
            "stale rate tables after with_variation"
        );
    }

    #[test]
    fn occupancy_stays_in_unit_interval() {
        let mut e = ensemble();
        for _ in 0..10 {
            e.stress(Seconds::from_hours(5.0), StressCondition::ACCELERATED);
            e.recover(
                Seconds::from_hours(1.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
        }
        let (soft, hard) = e.occupancy_columns();
        for (s, h) in soft.iter().zip(hard) {
            assert!(*s >= 0.0 && *h >= 0.0);
            assert!(s + h <= 1.0 + 1e-9);
        }
        assert!(e.mean_occupancy().value() <= 1.0);
    }

    #[test]
    fn calibration_fit_is_memoized() {
        // A trap count no other test or bench uses, so both constructions
        // below resolve against this test's own cache entry.
        let targets = TableOneTargets::measurement_column();
        let before = calibration_fit_runs();
        let a = TrapEnsemble::calibrated_shared(777, &targets).unwrap();
        let b = TrapEnsemble::calibrated_shared(777, &targets).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second construction must be a cache hit"
        );
        assert!(
            calibration_fit_runs() > before,
            "first construction must run the fit"
        );
        // The cloning constructor resolves against the same entry.
        let c = TrapEnsemble::calibrated(777, &targets).unwrap();
        assert_eq!(c, *a);
    }

    #[test]
    fn soa_kernel_matches_scalar_reference_tightly() {
        // Kernel and scalar reference share the adaptive schedule; the only
        // differences are float reassociation, `10^−x` vs `1/10^x`, and the
        // `dh-simd` polynomial vs libm — each bounded by an ulp or two per
        // step, so the aggregates must agree far inside 1e-12 relative.
        let mut fast = ensemble();
        let mut reference = fast.clone();
        for hours in [0.2, 1.0, 6.0, 24.0] {
            fast.stress(Seconds::from_hours(hours), StressCondition::ACCELERATED);
            reference.stress_reference(Seconds::from_hours(hours), StressCondition::ACCELERATED);
            let (wf, wr) = (fast.delta_vth_mv(), reference.delta_vth_mv());
            assert!(
                rel_diff(wf, wr) < 1e-12,
                "kernel {wf} vs reference {wr} after {hours} h stress"
            );
            let (pf, pr) = (fast.permanent_mv(), reference.permanent_mv());
            assert!(
                (pf - pr).abs() <= 1e-12 * pr.abs().max(1.0),
                "permanent {pf} vs {pr}"
            );
            fast.recover(
                Seconds::from_minutes(30.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
            reference.recover_reference(
                Seconds::from_minutes(30.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
            assert!(
                rel_diff(fast.delta_vth_mv(), reference.delta_vth_mv()) < 1e-12,
                "post-recovery divergence after {hours} h"
            );
        }
    }

    #[test]
    fn simd_and_scalar_backends_are_bit_identical() {
        // The dispatch!-generated kernels compile one body per backend;
        // flipping the backend mid-process must not change a single bit of
        // any occupancy column (this also makes the flip safe while other
        // tests run concurrently).
        let runs = dh_simd::each_backend(|_| {
            let mut e = ensemble();
            e.stress(Seconds::from_hours(6.0), StressCondition::ACCELERATED);
            e.recover(
                Seconds::from_hours(1.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
            e.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
            e.recover(Seconds::from_hours(6.0), RecoveryCondition::PASSIVE);
            e
        });
        let (ss, hs) = runs[0].1.occupancy_columns();
        for (b, e) in &runs[1..] {
            let (sa, ha) = e.occupancy_columns();
            for i in 0..sa.len() {
                assert_eq!(
                    sa[i].to_bits(),
                    ss[i].to_bits(),
                    "{b} soft occupancy lane {i}"
                );
                assert_eq!(
                    ha[i].to_bits(),
                    hs[i].to_bits(),
                    "{b} hard occupancy lane {i}"
                );
            }
        }
    }

    #[test]
    fn adaptive_stepping_is_step_size_independent() {
        // One 24 h call (≈62 adaptive steps) vs 96 fine calls: the
        // error-bounded schedule must keep the trajectories together.
        let mut coarse = ensemble();
        coarse.stress(Seconds::from_hours(24.0), StressCondition::ACCELERATED);
        let mut fine = ensemble();
        for _ in 0..96 {
            fine.stress(Seconds::from_minutes(15.0), StressCondition::ACCELERATED);
        }
        assert!(
            rel_diff(coarse.delta_vth_mv(), fine.delta_vth_mv()) < 0.02,
            "coarse {} vs fine {}",
            coarse.delta_vth_mv(),
            fine.delta_vth_mv()
        );
        assert!(
            rel_diff(coarse.permanent_mv(), fine.permanent_mv()) < 0.10,
            "coarse permanent {} vs fine {}",
            coarse.permanent_mv(),
            fine.permanent_mv()
        );
    }

    #[test]
    fn quiet_intervals_take_a_single_step() {
        let params = PermanentParams::default();
        // 30 s from a fresh window: gate(30 s) ≈ (30/46800)² ≪ 1e-6.
        let (steps, sub) = stress_schedule(30.0, 0.0, &params);
        assert_eq!(steps, 1);
        assert_eq!(sub, 30.0);
        // 6 h from a fresh window needs the gate resolved.
        let (steps, _) = stress_schedule(6.0 * 3600.0, 0.0, &params);
        assert!(steps > 1 && steps <= MAX_SUB_STEPS, "steps = {steps}");
        // Degenerate decade-long call stays bounded.
        let (steps, _) = stress_schedule(3.15e8, 0.0, &params);
        assert!(steps <= MAX_SUB_STEPS);
    }

    #[test]
    fn wear_model_trait_routes_to_inherent_methods() {
        fn age<W: WearModel>(w: &mut W) -> (f64, f64) {
            w.stress(Seconds::from_hours(6.0), StressCondition::ACCELERATED);
            w.recover(
                Seconds::from_hours(1.0),
                RecoveryCondition::ACTIVE_ACCELERATED,
            );
            (w.delta_vth_mv(), w.permanent_mv())
        }
        let mut via_trait = ensemble();
        let (w_t, p_t) = age(&mut via_trait);
        let mut direct = ensemble();
        direct.stress(Seconds::from_hours(6.0), StressCondition::ACCELERATED);
        direct.recover(
            Seconds::from_hours(1.0),
            RecoveryCondition::ACTIVE_ACCELERATED,
        );
        assert_eq!(w_t.to_bits(), direct.delta_vth_mv().to_bits());
        assert_eq!(p_t.to_bits(), direct.permanent_mv().to_bits());
    }

    #[test]
    fn zero_duration_operations_are_no_ops() {
        let mut e = ensemble();
        e.stress(Seconds::from_hours(1.0), StressCondition::ACCELERATED);
        let w = e.delta_vth_mv();
        e.stress(Seconds::ZERO, StressCondition::ACCELERATED);
        e.recover(Seconds::ZERO, RecoveryCondition::PASSIVE);
        assert_eq!(e.delta_vth_mv(), w);
    }
}
