//! Vectorizable transcendental kernels and runtime SIMD dispatch.
//!
//! The wear-model hot loops (CET capture/emission, EM stencil) spend most
//! of their time in `exp(−x)`-shaped math. libm's `exp`/`exp_m1` are
//! accurate but scalar: one call per trap-step, unvectorizable. This crate
//! provides
//!
//! * [`exp_neg`] / [`one_minus_exp_neg`] — branch-free polynomial
//!   evaluations of `exp(−x)` and `1 − exp(−x)` built from plain
//!   mul/add/bit ops only (no FMA, no table lookups, no libm), so LLVM can
//!   auto-vectorize a loop of them, **and** so the scalar and AVX2
//!   compilations of the same source produce bit-identical results
//!   (neither rustc nor LLVM contracts or reassociates IEEE float ops
//!   without explicit fast-math, which this crate never enables);
//! * [`dispatch!`] — a macro that compiles a kernel body twice, once
//!   plainly and once under `#[target_feature(enable = "avx2")]`, and
//!   picks the AVX2 copy at runtime when the CPU supports it;
//! * [`use_simd`] / [`force_scalar`] — the runtime switch behind the
//!   dispatch: on x86-64 the AVX2 copies are always compiled in,
//!   `is_x86_feature_detected!("avx2")` gates them at startup, the
//!   `DH_SIMD=scalar` environment variable disables them per process, and
//!   `force_scalar` toggles them per call site (benches compare backends
//!   inside one process with it).
//!
//! # Exact saturation contract
//!
//! The callers' saturated fast paths stay bit-identical to the full
//! evaluation because saturation is part of the function definition, not
//! an approximation:
//!
//! * `one_minus_exp_neg(x) == 1.0` exactly for every `x ≥ 37.0`
//!   ([`ONE_MINUS_EXP_NEG_SATURATE`]; `exp(−37) < 2⁻⁵³/2`, so 1.0 is also
//!   the correctly rounded value), and
//! * `exp_neg(x) == 0.0` exactly for every `x ≥ 700.0`
//!   ([`EXP_NEG_UNDERFLOW`], just inside the subnormal boundary).
//!
//! A caller may therefore skip the polynomial for a whole lane group once
//! the smallest exponent in the group saturates and substitute the
//! constant — the substitution is *exactly* what the full path returns, so
//! scalar-with-per-element-fast-path, scalar-with-group-fast-path, and
//! AVX2 all agree to the last bit.
//!
//! # Accuracy
//!
//! Cody–Waite range reduction (`x = k·ln2 − r`, `|r| ≤ ln2/2`) followed by
//! a degree-13 Taylor polynomial for `expm1(r)` and exact power-of-two
//! scaling through the exponent bits. Worst observed error against libm is
//! a few ulp (≈1e-15 relative) across the full `[0, 700]` domain — two
//! orders of magnitude inside the 1e-12 aggregate tolerance the wear
//! kernels are verified to.
//!
//! Domain: both functions expect `x ≥ 0` (rates × durations); `+∞` is
//! handled (saturates/underflows), negative inputs and NaN are clamped
//! into the saturated branch deterministically rather than supported.

use std::sync::atomic::{AtomicBool, Ordering};

/// Lanes per SIMD group: 4 × f64 = one AVX2 register. Callers that want
/// backend-independent results must make any group-granular decision
/// (e.g. the saturated fast path) at this width in their scalar fallback
/// too.
pub const LANES: usize = 4;

/// `one_minus_exp_neg(x)` returns exactly `1.0` for `x ≥` this.
pub const ONE_MINUS_EXP_NEG_SATURATE: f64 = 37.0;

/// `exp_neg(x)` returns exactly `0.0` for `x ≥` this.
pub const EXP_NEG_UNDERFLOW: f64 = 700.0;

/// log₂(e), the range-reduction multiplier.
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// High part of ln 2 with 21 trailing zero bits, so `k · LN2_HI` is exact
/// for every |k| < 2²⁰ that range reduction can produce. The literals are
/// the canonical Cody–Waite split digits; the extra decimals round to the
/// intended bit patterns.
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-1;
/// Low part: `ln 2 − LN2_HI`.
#[allow(clippy::excessive_precision)]
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
/// 1.5·2⁵², the round-to-nearest-integer magic constant: adding it pushes
/// the fraction bits off the mantissa (ties-to-even, the IEEE default
/// rounding this crate assumes), subtracting it recovers the integer.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `expm1(r)` for `|r| ≤ ln2/2` as `r + r²·q(r)`: a degree-11 Taylor
/// polynomial `q(r) = Σ rᵏ⁻²/k!` in Horner form. Plain mul/add only.
#[inline(always)]
fn expm1_poly(r: f64) -> f64 {
    const C2: f64 = 1.0 / 2.0;
    const C3: f64 = 1.0 / 6.0;
    const C4: f64 = 1.0 / 24.0;
    const C5: f64 = 1.0 / 120.0;
    const C6: f64 = 1.0 / 720.0;
    const C7: f64 = 1.0 / 5_040.0;
    const C8: f64 = 1.0 / 40_320.0;
    const C9: f64 = 1.0 / 362_880.0;
    const C10: f64 = 1.0 / 3_628_800.0;
    const C11: f64 = 1.0 / 39_916_800.0;
    const C12: f64 = 1.0 / 479_001_600.0;
    const C13: f64 = 1.0 / 6_227_020_800.0;
    let q = C2
        + r * (C3
            + r * (C4
                + r * (C5
                    + r * (C6
                        + r * (C7
                            + r * (C8
                                + r * (C9 + r * (C10 + r * (C11 + r * (C12 + r * C13))))))))));
    r + (r * r) * q
}

/// Range reduction shared by both kernels: for `z ∈ [−1011, 0]` returns
/// `(scale, p)` with `exp(z) = scale · (1 + p)`, `scale = 2ᵏ` exact and
/// `p = expm1(r)`. The power of two is assembled from the magic-shifted
/// sum's low mantissa bits — integer add/mask/shift, no float→int cast,
/// so the sequence vectorizes and is identical under every backend.
#[inline(always)]
fn reduce(z: f64) -> (f64, f64) {
    let t = z * LOG2E + SHIFT;
    let k = t - SHIFT;
    let r = (z - k * LN2_HI) - k * LN2_LO;
    // t ∈ [2⁵², 2⁵³), so its low mantissa bits are 2⁵¹ + k; adding 1023
    // and masking 11 bits yields the biased exponent of 2ᵏ (k ≥ −1011
    // keeps it normal).
    let e = t.to_bits().wrapping_add(1023) & 0x7FF;
    (f64::from_bits(e << 52), expm1_poly(r))
}

/// `exp(−x)` for `x ≥ 0`, exactly `0.0` once `x ≥` [`EXP_NEG_UNDERFLOW`].
#[inline(always)]
pub fn exp_neg(x: f64) -> f64 {
    let (scale, p) = reduce(-x.min(EXP_NEG_UNDERFLOW));
    let v = scale + scale * p;
    if x >= EXP_NEG_UNDERFLOW {
        0.0
    } else {
        v
    }
}

/// `1 − exp(−x)` for `x ≥ 0` without cancellation (computed as
/// `−expm1(−x)`), exactly `1.0` once `x ≥` [`ONE_MINUS_EXP_NEG_SATURATE`].
#[inline(always)]
pub fn one_minus_exp_neg(x: f64) -> f64 {
    let (scale, p) = reduce(-x.min(ONE_MINUS_EXP_NEG_SATURATE));
    // expm1(z) = 2ᵏ(1+p) − 1; for k = 0 this collapses to p exactly, so
    // no separate small-|z| branch is needed.
    let v = -(scale * p + (scale - 1.0));
    if x >= ONE_MINUS_EXP_NEG_SATURATE {
        1.0
    } else {
        v
    }
}

/// Forces the scalar bodies for subsequent [`use_simd`] calls in this
/// process. Benches and the SIMD-equivalence tests flip this to compare
/// both backends inside one run; production code never calls it.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Whether [`dispatch!`]-generated call sites should take their AVX2 copy:
/// the target is x86-64, the host CPU reports AVX2, `DH_SIMD` is not set
/// to `scalar`/`off`/`0`, and [`force_scalar`] is not active.
pub fn use_simd() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !FORCE_SCALAR.load(Ordering::Relaxed) && detected()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backend [`use_simd`] currently resolves to, for logs and bench
/// metadata.
pub fn backend_name() -> &'static str {
    if use_simd() {
        "avx2"
    } else {
        "scalar"
    }
}

#[cfg(target_arch = "x86_64")]
fn detected() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let env_off = std::env::var("DH_SIMD")
            .map(|v| matches!(v.as_str(), "scalar" | "off" | "0"))
            .unwrap_or(false);
        !env_off && std::arch::is_x86_feature_detected!("avx2")
    })
}

/// Compiles a kernel body twice — a plain copy and an
/// `#[target_feature(enable = "avx2")]` copy — and dispatches between them
/// through [`use_simd`] at each call. The body must be written so both
/// copies execute the same per-element IEEE operation sequence (no
/// data-dependent algorithm switches narrower than [`LANES`]); then the
/// two copies are bit-identical and the dispatch is invisible to callers.
///
/// ```
/// dh_simd::dispatch! {
///     /// Sums `exp(−x)` over a column.
///     pub fn exp_neg_sum(xs: &[f64]) -> f64 {
///         let mut acc = 0.0;
///         for &x in xs {
///             acc += dh_simd::exp_neg(x);
///         }
///         acc
///     }
/// }
/// assert!(exp_neg_sum(&[0.0, 0.0]) == 2.0);
/// ```
#[macro_export]
macro_rules! dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident( $($arg:ident : $ty:ty),* $(,)? ) $(-> $ret:ty)? $body:block) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn scalar_body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2_body($($arg: $ty),*) $(-> $ret)? $body

                if $crate::use_simd() {
                    // SAFETY: use_simd() is true only after
                    // is_x86_feature_detected!("avx2") succeeded on this
                    // CPU.
                    return unsafe { avx2_body($($arg),*) };
                }
            }
            scalar_body($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
    }

    #[test]
    fn matches_libm_over_the_domain() {
        // Dense log-spaced sweep of the whole usable domain.
        let mut worst = 0.0f64;
        for i in 0..200_000 {
            let x = 1e-12 * 1.000_171f64.powi(i); // up to ~10²⁰ … clamped paths
            let x = x.min(800.0);
            let e = rel(exp_neg(x), (-x).exp());
            let o = rel(one_minus_exp_neg(x), -(-x).exp_m1());
            if x < EXP_NEG_UNDERFLOW * 0.999 {
                worst = worst.max(e);
            }
            if x < ONE_MINUS_EXP_NEG_SATURATE * 0.999 {
                worst = worst.max(o);
            }
        }
        assert!(worst < 1e-13, "worst relative error {worst:e}");
    }

    #[test]
    fn saturation_is_exact() {
        for x in [37.0, 37.0001, 50.0, 700.0, 1e6, f64::INFINITY] {
            assert_eq!(one_minus_exp_neg(x).to_bits(), 1.0f64.to_bits());
        }
        for x in [700.0, 700.0001, 1e9, f64::INFINITY] {
            assert_eq!(exp_neg(x).to_bits(), 0.0f64.to_bits());
        }
        // Just below the thresholds the polynomial path is live.
        assert!(one_minus_exp_neg(36.999_999_999) < 1.0 + 1e-15);
        assert!(one_minus_exp_neg(36.999_999_999) > 0.999_999_999);
        assert!(exp_neg(699.999) > 0.0);
    }

    #[test]
    fn endpoints_are_sane() {
        assert_eq!(exp_neg(0.0), 1.0);
        assert_eq!(one_minus_exp_neg(0.0).abs(), 0.0);
        // Tiny arguments keep full relative precision (the expm1 form).
        let x = 1e-300;
        assert_eq!(one_minus_exp_neg(x), x);
    }

    proptest! {
        #[test]
        fn agrees_with_libm_on_random_inputs(x in 0.0f64..700.0) {
            prop_assert!(rel(exp_neg(x), (-x).exp()) < 1e-13);
            if x < ONE_MINUS_EXP_NEG_SATURATE {
                prop_assert!(rel(one_minus_exp_neg(x), -(-x).exp_m1()) < 1e-13);
            }
        }

        #[test]
        fn boundary_neighborhood_is_continuous(d in -1e-6f64..1e-6) {
            // Values straddling the saturation threshold stay within one
            // ulp of 1.0 — the fast path is a rounding identity, not a
            // step. (The polynomial side may legitimately round to
            // 1 − 2⁻⁵³, one ulp below.)
            let x = ONE_MINUS_EXP_NEG_SATURATE + d;
            let v = one_minus_exp_neg(x);
            prop_assert!((v - 1.0).abs() <= 2.0f64.powi(-52));
        }
    }

    dispatch! {
        /// Test kernel: in-place `exp_neg` over a column.
        fn exp_neg_column(xs: &mut [f64]) {
            for x in xs.iter_mut() {
                *x = exp_neg(*x);
            }
        }
    }

    #[test]
    fn dispatch_backends_are_bit_identical() {
        let inputs: Vec<f64> = (0..1_000).map(|i| i as f64 * 0.7).collect();
        let mut auto = inputs.clone();
        exp_neg_column(&mut auto);
        force_scalar(true);
        assert_eq!(backend_name(), "scalar");
        let mut scalar = inputs;
        exp_neg_column(&mut scalar);
        force_scalar(false);
        for (a, s) in auto.iter().zip(&scalar) {
            assert_eq!(a.to_bits(), s.to_bits());
        }
    }
}
