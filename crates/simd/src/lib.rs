//! Vectorizable transcendental kernels and runtime SIMD dispatch.
//!
//! The wear-model hot loops (CET capture/emission, EM stencil, the
//! scenario victim kernels) spend most of their time in `exp(−x)`-shaped
//! math. libm's `exp`/`exp_m1` are accurate but scalar: one call per
//! trap-step, unvectorizable. This crate provides
//!
//! * [`exp_neg`] / [`one_minus_exp_neg`] — branch-free polynomial
//!   evaluations of `exp(−x)` and `1 − exp(−x)` built from plain
//!   mul/add/bit ops only (no FMA, no table lookups, no libm), so LLVM can
//!   auto-vectorize a loop of them, **and** so the scalar, AVX2 and
//!   AVX-512 compilations of the same source produce bit-identical
//!   results (neither rustc nor LLVM contracts or reassociates IEEE float
//!   ops without an explicit `mul_add` or fast-math, which this crate
//!   never uses — also under `avx512f`, which brings FMA with it);
//! * [`dispatch!`] — a macro that compiles a kernel body three times:
//!   plainly, under `#[target_feature(enable = "avx2")]` and under
//!   `#[target_feature(enable = "avx512f")]`, and runs the widest copy
//!   the CPU reports;
//! * [`Backend`] / [`backend`] — the runtime choice behind the dispatch,
//!   ordered `Scalar < Avx2 < Avx512`: on x86-64 the vector copies are
//!   always compiled in, `is_x86_feature_detected!` picks the widest the
//!   CPU runs (AVX-512F, then AVX2, then scalar) once per process, the
//!   `DH_SIMD=scalar` environment variable (or `off`, `0`) selects the
//!   scalar copies per process, and the [`force_backend`] test hook
//!   narrows the choice further at runtime (tests and benches compare
//!   backends inside one process with it, through [`each_backend`]).
//!
//! The `avx512f` target feature is stable from Rust 1.89, this crate's
//! minimum toolchain.
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
//! every vector backend agree to the last bit.
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

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Lanes per source-level group: the width at which callers make
/// group-granular decisions (e.g. the saturated fast path) and pad their
/// columns. It is no longer the register width — the AVX-512 body holds
/// eight `f64`s per register — but a decision made per group of 4 is
/// the same decision under every backend, which is what keeps them
/// bit-identical. Callers must make any such decision at this width in
/// their scalar fallback too.
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

/// A compiled body of a [`dispatch!`] kernel, ordered by width: a CPU
/// that runs one backend runs every narrower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// The plain compilation; runs on every target.
    Scalar,
    /// The `#[target_feature(enable = "avx2")]` copy: four `f64` lanes per
    /// instruction.
    Avx2,
    /// The `#[target_feature(enable = "avx512f")]` copy: eight `f64` lanes
    /// per instruction.
    Avx512,
}

impl Backend {
    /// Every backend, narrowest first.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512];

    /// The name logs and bench metadata print: `scalar`, `avx2` or
    /// `avx512f`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512f",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The [`force_backend`] override: 0 for none, else `1 + ` its index in
/// [`Backend::ALL`]. It publishes no other data, so `Relaxed` suffices.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Narrows every later [`backend`] call in this process to at most
/// `backend` (`None` clears the override). The override can only narrow
/// the choice the CPU and `DH_SIMD` allow, never widen it, so forcing a
/// body the host cannot run selects the widest one it can. Test and
/// bench hook: [`each_backend`] drives it; production code never calls it.
pub fn force_backend(backend: Option<Backend>) {
    let code = backend.map_or(0, |b| 1 + b as u8);
    FORCED.store(code, Ordering::Relaxed);
}

fn forced() -> Option<Backend> {
    match FORCED.load(Ordering::Relaxed) {
        0 => None,
        code => Some(Backend::ALL[usize::from(code - 1)]),
    }
}

/// The backend [`dispatch!`]-generated call sites run: the widest the host
/// CPU reports, unless `DH_SIMD` is `scalar`/`off`/`0` (then scalar), and
/// at most what [`force_backend`] asks for.
pub fn backend() -> Backend {
    // The ceiling already holds DH_SIMD and the host, so only the
    // override is left to apply.
    resolve(None, ceiling(), forced())
}

/// The backend [`backend`] currently resolves to, by name, for logs and
/// bench metadata.
pub fn backend_name() -> &'static str {
    backend().name()
}

/// The widest backend this process may run: the host's best, or scalar
/// under `DH_SIMD=scalar|off|0`. Resolved once per process.
fn ceiling() -> Backend {
    static CEILING: OnceLock<Backend> = OnceLock::new();
    *CEILING.get_or_init(|| resolve(std::env::var("DH_SIMD").ok().as_deref(), host_best(), None))
}

/// The widest body the host CPU runs. To the compiler `avx512f` implies
/// `avx2`, `fma` and `f16c`, so its body may use any of them and all four
/// must be reported.
fn host_best() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") {
            return if has!("avx512f") && has!("fma") && has!("f16c") {
                Backend::Avx512
            } else {
                Backend::Avx2
            };
        }
    }
    Backend::Scalar
}

/// The backend for a `DH_SIMD` value, the host's best body and a
/// [`force_backend`] override. `scalar`, `off` and `0` select scalar; any
/// other value is ignored. The override is clamped to what the host and
/// `DH_SIMD` allow, which is what keeps every `unsafe` call in
/// [`dispatch!`] sound.
fn resolve(dh_simd: Option<&str>, host: Backend, forced: Option<Backend>) -> Backend {
    let allowed = match dh_simd {
        Some("scalar" | "off" | "0") => Backend::Scalar,
        _ => host,
    };
    forced.map_or(allowed, |b| b.min(allowed))
}

/// Runs `f` once under every backend, narrowest first, each forced with
/// [`force_backend`], and returns what each run returned. A backend
/// wider than this process may run (the host lacks it, or `DH_SIMD`
/// excludes it) is skipped with a line on stderr. Callers compare the
/// results: the [`dispatch!`] contract is that they are bit-identical.
///
/// Test and bench hook. Concurrent callers take turns, and the override
/// is cleared on return, also when `f` panics. A caller that does not go
/// through this function and flips the override at the same time can
/// only make a run take another backend, which the contract makes
/// invisible.
pub fn each_backend<T>(mut f: impl FnMut(Backend) -> T) -> Vec<(Backend, T)> {
    static TURN: Mutex<()> = Mutex::new(());
    /// Clears the override when dropped, so a panicking run does not
    /// leave it set for the rest of the process.
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            force_backend(None);
        }
    }
    // The lock guards no data, so a panic in another caller's `f` leaves
    // nothing to repair.
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let _clear = Clear;
    let ceiling = ceiling();
    let mut runs = Vec::with_capacity(Backend::ALL.len());
    for b in Backend::ALL {
        if b > ceiling {
            eprintln!("dh-simd: skipping the {b} body: this process runs at most {ceiling}");
            continue;
        }
        force_backend(Some(b));
        runs.push((b, f(b)));
    }
    runs
}

/// Compiles a kernel body three times — a plain copy, an
/// `#[target_feature(enable = "avx2")]` copy and an
/// `#[target_feature(enable = "avx512f")]` copy — and runs the one
/// [`backend`] names at each call. The body must be written so every copy
/// executes the same per-element IEEE operation sequence (no
/// data-dependent algorithm switches narrower than [`LANES`], no
/// `mul_add`); then the copies are bit-identical and the dispatch is
/// invisible to callers.
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

                #[target_feature(enable = "avx512f")]
                unsafe fn avx512_body($($arg: $ty),*) $(-> $ret)? $body

                match $crate::backend() {
                    // SAFETY: backend() is Avx512 only when this CPU
                    // reported avx2, avx512f, fma and f16c (every feature
                    // the body is compiled for); the override only narrows.
                    $crate::Backend::Avx512 => return unsafe { avx512_body($($arg),*) },
                    // SAFETY: backend() is Avx2 or wider only when this
                    // CPU reported avx2.
                    $crate::Backend::Avx2 => return unsafe { avx2_body($($arg),*) },
                    $crate::Backend::Scalar => {}
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
        eprintln!(
            "dh-simd: default backend {} (host best {})",
            backend_name(),
            host_best()
        );
        let inputs: Vec<f64> = (0..1_003).map(|i| i as f64 * 0.7).collect();
        let runs = each_backend(|b| {
            assert_eq!(
                backend(),
                b,
                "forcing a backend the process runs selects it"
            );
            let mut out = inputs.clone();
            exp_neg_column(&mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        });
        assert_eq!(runs[0].0, Backend::Scalar);
        for (b, bits) in &runs[1..] {
            assert!(*bits == runs[0].1, "{b} and scalar bodies diverge");
        }
        assert_eq!(backend(), ceiling(), "each_backend clears the override");
    }

    #[test]
    fn resolution_clamps_to_the_host_and_dh_simd() {
        use Backend::{Avx2, Avx512, Scalar};
        // No override: the host's best, unless DH_SIMD selects scalar.
        assert_eq!(resolve(None, Avx512, None), Avx512);
        assert_eq!(resolve(None, Avx2, None), Avx2);
        assert_eq!(resolve(None, Scalar, None), Scalar);
        for off in ["scalar", "off", "0"] {
            assert_eq!(resolve(Some(off), Avx512, None), Scalar, "DH_SIMD={off}");
            // An override cannot undo DH_SIMD.
            assert_eq!(resolve(Some(off), Avx512, Some(Avx512)), Scalar);
        }
        // Any other value is ignored; it adds no backend name.
        for other in ["", "avx2", "avx512f", "1", "SCALAR"] {
            assert_eq!(
                resolve(Some(other), Avx512, None),
                Avx512,
                "DH_SIMD={other:?}"
            );
        }
        // The override narrows the host's choice ...
        assert_eq!(resolve(None, Avx512, Some(Avx2)), Avx2);
        assert_eq!(resolve(None, Avx512, Some(Scalar)), Scalar);
        assert_eq!(resolve(None, Avx2, Some(Scalar)), Scalar);
        // ... and an override above the host is clamped to it.
        assert_eq!(resolve(None, Avx2, Some(Avx512)), Avx2);
        assert_eq!(resolve(None, Scalar, Some(Avx512)), Scalar);
        assert_eq!(resolve(None, Scalar, Some(Avx2)), Scalar);
        // Resolving DH_SIMD and the host once, then the override, is the
        // same as resolving all three at once (what `backend` relies on).
        for env in [None, Some("scalar"), Some("avx2")] {
            for host in Backend::ALL {
                for forced in [None, Some(Scalar), Some(Avx2), Some(Avx512)] {
                    assert_eq!(
                        resolve(None, resolve(env, host, None), forced),
                        resolve(env, host, forced)
                    );
                }
            }
        }
    }

    #[test]
    fn backends_are_ordered_and_named() {
        assert!(Backend::Scalar < Backend::Avx2 && Backend::Avx2 < Backend::Avx512);
        let names: Vec<_> = Backend::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["scalar", "avx2", "avx512f"]);
        assert_eq!(Backend::Avx512.to_string(), "avx512f");
    }
}
