//! Streaming one-pass statistics: the aggregate state a million-device
//! run keeps instead of a million samples.
//!
//! Two estimators, both O(1) memory and deterministic for a given input
//! order (which the fleet engine guarantees is canonical chip order):
//!
//! * [`StreamingMoments`] — Welford's single-pass count/mean/M2 update,
//!   numerically stable where the naive sum-of-squares cancels
//!   catastrophically.
//! * [`P2Quantile`] — the P² algorithm of Jain & Chlamtac (CACM 1985):
//!   five markers track a target quantile by piecewise-parabolic height
//!   adjustment. Exact up to 5 observations, an interpolation estimate
//!   after; accuracy is typically well under a percentile for unimodal
//!   distributions.
//!
//! Both serialize their full state bit-exactly for the checkpoint format
//! (`encode`/`decode`), so a resumed run continues the estimate as if it
//! had never stopped.

use crate::error::FleetError;
use dh_fault::wire::{put_f64, put_u64, take_f64, take_u64};

/// A rejected non-finite observation (carries the offending value).
///
/// NaN in particular is insidious here: `NaN.min(x)` propagates, a NaN
/// mean never recovers, and a NaN P² marker height silently corrupts
/// every later quantile estimate. The `try_push` guards turn that into
/// a structured rejection; the fleet layer counts it as a rejected
/// sample in the run's degraded report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFinite(pub f64);

impl core::fmt::Display for NonFinite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "non-finite sample {}", self.0)
    }
}

impl std::error::Error for NonFinite {}

/// Welford single-pass moments with min/max tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// [`StreamingMoments::push`] that rejects NaN/Inf instead of
    /// poisoning the running mean, M2, and extrema.
    pub fn try_push(&mut self, x: f64) -> Result<(), NonFinite> {
        if !x.is_finite() {
            return Err(NonFinite(x));
        }
        self.push(x);
        Ok(())
    }

    /// Observations folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 below two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Appends the full state to `buf` (checkpoint wire format).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.count);
        put_f64(buf, self.mean);
        put_f64(buf, self.m2);
        put_f64(buf, self.min);
        put_f64(buf, self.max);
    }

    /// Reads the state back from the front of `bytes`.
    pub fn decode(bytes: &mut &[u8]) -> Result<Self, FleetError> {
        Ok(Self {
            count: take_u64(bytes, "moments.count")?,
            mean: take_f64(bytes, "moments.mean")?,
            m2: take_f64(bytes, "moments.m2")?,
            min: take_f64(bytes, "moments.min")?,
            max: take_f64(bytes, "moments.max")?,
        })
    }
}

/// A P² (piecewise-parabolic) streaming estimator for one quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    count: u64,
    /// Marker heights q₁..q₅; doubles as the raw sample buffer for the
    /// first five observations.
    heights: [f64; 5],
    /// Actual marker positions n₁..n₅ (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions n′₁..n′₅.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    rates: [f64; 5],
}

impl P2Quantile {
    /// An estimator for quantile `q` (clamped to (0, 1)).
    pub fn new(q: f64) -> Self {
        let q = q.clamp(1e-6, 1.0 - 1e-6);
        Self {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            rates: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    /// The target quantile.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Observations folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;

        // Extend the extreme markers if needed, then move every marker
        // above x's cell up one rank: interior marker i exactly when
        // !(heights[i] <= x) (so a NaN takes the lowest cell), and the
        // top marker always. Three compares and adds, no search branches.
        if x < self.heights[0] {
            self.heights[0] = x;
        } else if x >= self.heights[4] {
            self.heights[4] = x;
        }
        for i in 1..4 {
            self.positions[i] += f64::from(u8::from(!(self.heights[i] <= x)));
        }
        self.positions[4] += 1.0;
        for (d, r) in self.desired.iter_mut().zip(self.rates) {
            *d += r;
        }

        // Adjust the three interior markers toward their desired ranks.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let room_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let room_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && room_up) || (d <= -1.0 && room_down) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                let h = if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    parabolic
                } else {
                    self.linear(i, d)
                };
                self.heights[i] = h;
                self.positions[i] += d;
            }
        }
    }

    /// [`P2Quantile::push`] that rejects NaN/Inf instead of corrupting
    /// the marker heights (a single NaN breaks the sorted-marker
    /// invariant and every later estimate).
    pub fn try_push(&mut self, x: f64) -> Result<(), NonFinite> {
        if !x.is_finite() {
            return Err(NonFinite(x));
        }
        self.push(x);
        Ok(())
    }

    /// The P² parabolic height prediction for marker `i` moved by `d`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.heights, &self.positions);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// The fallback linear height prediction.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.heights, &self.positions);
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// The current quantile estimate: **exact** up to five observations
    /// (linear interpolation between the sorted order statistics, the
    /// same type-7 rule `quantile()` in R and NumPy default to), the
    /// middle P² marker after; NaN when empty.
    ///
    /// The exact small-n path matters beyond the 5-sample warm-up
    /// window: a tiny run — a dh-serve smoke job, a fleet where only a
    /// couple of chips failed — reports its p50/p90/p99 from one to five
    /// real samples, and the previous nearest-rank rounding answered the
    /// median of `[1, 100]` with `100`.
    pub fn estimate(&self) -> f64 {
        match self.count {
            0 => f64::NAN,
            n @ 1..=5 => {
                let n = n as usize;
                let mut head = [0.0; 5];
                head[..n].copy_from_slice(&self.heights[..n]);
                head[..n].sort_by(f64::total_cmp);
                let rank = self.q * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let t = rank - lo as f64;
                head[lo] * (1.0 - t) + head[hi] * t
            }
            _ => self.heights[2],
        }
    }

    /// Appends the full state to `buf` (checkpoint wire format).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_f64(buf, self.q);
        put_u64(buf, self.count);
        for arr in [&self.heights, &self.positions, &self.desired, &self.rates] {
            for &v in arr {
                put_f64(buf, v);
            }
        }
    }

    /// Reads the state back from the front of `bytes`.
    pub fn decode(bytes: &mut &[u8]) -> Result<Self, FleetError> {
        let q = take_f64(bytes, "p2.q")?;
        let count = take_u64(bytes, "p2.count")?;
        let mut arrays = [[0.0; 5]; 4];
        for arr in &mut arrays {
            for v in arr.iter_mut() {
                *v = take_f64(bytes, "p2.markers")?;
            }
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(FleetError::Corrupt(format!("p2 quantile {q} out of range")));
        }
        Ok(Self {
            q,
            count,
            heights: arrays[0],
            positions: arrays[1],
            desired: arrays[2],
            rates: arrays[3],
        })
    }
}

/// The full one-pass summary the fleet keeps per distribution: moments
/// plus P² markers for the median, the 90th, and the 99th percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSummary {
    /// Count/mean/variance/min/max.
    pub moments: StreamingMoments,
    /// Median estimator.
    pub p50: P2Quantile,
    /// 90th-percentile estimator.
    pub p90: P2Quantile,
    /// 99th-percentile estimator.
    pub p99: P2Quantile,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            moments: StreamingMoments::new(),
            p50: P2Quantile::new(0.50),
            p90: P2Quantile::new(0.90),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Folds one observation into every estimator.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.p50.push(x);
        self.p90.push(x);
        self.p99.push(x);
    }

    /// [`StreamingSummary::push`] that rejects NaN/Inf before *any*
    /// estimator sees the sample, so a rejection leaves the whole
    /// summary untouched.
    pub fn try_push(&mut self, x: f64) -> Result<(), NonFinite> {
        if !x.is_finite() {
            return Err(NonFinite(x));
        }
        self.push(x);
        Ok(())
    }

    /// Observations folded so far.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Freezes the streaming state into plain numbers.
    pub fn finalize(&self) -> SummaryStats {
        SummaryStats {
            count: self.moments.count(),
            mean: self.moments.mean(),
            std_dev: self.moments.std_dev(),
            min: self.moments.min(),
            max: self.moments.max(),
            p50: self.p50.estimate(),
            p90: self.p90.estimate(),
            p99: self.p99.estimate(),
        }
    }

    /// Appends the full state to `buf` (checkpoint wire format).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        self.moments.encode(buf);
        self.p50.encode(buf);
        self.p90.encode(buf);
        self.p99.encode(buf);
    }

    /// Reads the state back from the front of `bytes`.
    pub fn decode(bytes: &mut &[u8]) -> Result<Self, FleetError> {
        Ok(Self {
            moments: StreamingMoments::decode(bytes)?,
            p50: P2Quantile::decode(bytes)?,
            p90: P2Quantile::decode(bytes)?,
            p99: P2Quantile::decode(bytes)?,
        })
    }
}

/// A finalized distribution summary, as carried by [`crate::FleetReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Observations summarized.
    pub count: u64,
    /// Mean (0 when empty).
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl SummaryStats {
    /// Folds every field's exact bit pattern into a running FNV-1a hash
    /// (the byte-identity handle reports are compared by).
    pub fn fingerprint(&self, hash: u64) -> u64 {
        use dh_fault::wire::{fnv1a_f64, fnv1a_u64};
        let mut h = fnv1a_u64(hash, self.count);
        for v in [
            self.mean,
            self.std_dev,
            self.min,
            self.max,
            self.p50,
            self.p90,
            self.p99,
        ] {
            h = fnv1a_f64(h, v);
        }
        h
    }

    /// One-line human rendering (`n/a` when empty).
    pub fn render(&self, unit: &str) -> String {
        if self.count == 0 {
            return "n/a (no observations)".to_string();
        }
        format!(
            "mean {:.4}{u} sd {:.4} min {:.4} p50 {:.4} p90 {:.4} p99 {:.4} max {:.4} (n={})",
            self.mean,
            self.std_dev,
            self.min,
            self.p50,
            self.p90,
            self.p99,
            self.max,
            self.count,
            u = unit,
        )
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// [`P2Quantile::push`] in its cell-search form, the reference the
    /// branchless update is checked against: extremes first, then the
    /// largest `k` with `heights[k] <= x`, and every marker above it moves.
    fn push_by_cell_search(p: &mut P2Quantile, x: f64) {
        if p.count < 5 {
            p.heights[p.count as usize] = x;
            p.count += 1;
            if p.count == 5 {
                p.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        p.count += 1;
        let k = if x < p.heights[0] {
            p.heights[0] = x;
            0
        } else if x >= p.heights[4] {
            p.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 1..4 {
                if p.heights[i] <= x {
                    k = i;
                }
            }
            k
        };
        for n in &mut p.positions[k + 1..] {
            *n += 1.0;
        }
        for (d, r) in p.desired.iter_mut().zip(p.rates) {
            *d += r;
        }
        for i in 1..4 {
            let d = p.desired[i] - p.positions[i];
            let room_up = p.positions[i + 1] - p.positions[i] > 1.0;
            let room_down = p.positions[i - 1] - p.positions[i] < -1.0;
            if (d >= 1.0 && room_up) || (d <= -1.0 && room_down) {
                let d = d.signum();
                let parabolic = p.parabolic(i, d);
                let h = if p.heights[i - 1] < parabolic && parabolic < p.heights[i + 1] {
                    parabolic
                } else {
                    p.linear(i, d)
                };
                p.heights[i] = h;
                p.positions[i] += d;
            }
        }
    }

    /// Every marker's bits: heights, positions, desired positions.
    fn marker_bits(p: &P2Quantile) -> Vec<u64> {
        [p.heights, p.positions, p.desired]
            .iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The branchless cell update moves the markers the cell search
        /// moved, bit for bit, over streams with ties, repeats, new
        /// extremes and NaN.
        #[test]
        fn branchless_push_matches_the_cell_search(
            q in 0.001f64..0.999,
            draws in collection::vec((0u8..10, -50.0f64..50.0), 0..300),
        ) {
            let (mut fast, mut slow) = (P2Quantile::new(q), P2Quantile::new(q));
            let (mut lo, mut hi, mut last) = (0.0f64, 0.0f64, 0.0f64);
            for (i, &(kind, v)) in draws.iter().enumerate() {
                let x = match kind {
                    0 => last,
                    1 => lo - v.abs() - 1.0,
                    2 => hi + v.abs() + 1.0,
                    3 => f64::NAN,
                    4 => lo,
                    5 => hi,
                    6 => v.round(),
                    _ => v,
                };
                if x.is_finite() {
                    (lo, hi, last) = (lo.min(x), hi.max(x), x);
                }
                fast.push(x);
                push_by_cell_search(&mut slow, x);
                prop_assert!(
                    marker_bits(&fast) == marker_bits(&slow),
                    "push {i} of {x}: {fast:?} against {slow:?}"
                );
            }
        }
    }

    /// Exact whole-population quantile by nearest-rank interpolation.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = q * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let t = rank - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }

    #[test]
    fn moments_match_exact_two_pass_statistics() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 37 + 11) % 997) as f64 * 0.1)
            .collect();
        let mut m = StreamingMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((m.mean() - mean).abs() / mean.abs() < 1e-12);
        assert!((m.variance() - var).abs() / var < 1e-10);
        assert_eq!(m.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(
            m.max(),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn p2_tracks_the_median_of_a_skewed_stream() {
        let mut p = P2Quantile::new(0.5);
        let mut xs = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let x = -(1.0 - u).ln(); // exponential(1)
            p.push(x);
            xs.push(x);
        }
        xs.sort_by(f64::total_cmp);
        let exact = exact_quantile(&xs, 0.5);
        assert!(
            (p.estimate() - exact).abs() < 0.05,
            "p2 {} vs exact {}",
            p.estimate(),
            exact
        );
    }

    #[test]
    fn p2_is_exact_for_tiny_streams() {
        let mut p = P2Quantile::new(0.5);
        for x in [5.0, 1.0, 3.0] {
            p.push(x);
        }
        assert_eq!(p.estimate(), 3.0);
        let mut empty = P2Quantile::new(0.9);
        assert!(empty.estimate().is_nan());
        empty.push(2.5);
        assert_eq!(empty.estimate(), 2.5);
    }

    #[test]
    fn small_n_estimates_interpolate_between_order_statistics() {
        // The median of two samples is their midpoint, not the larger
        // one — the regression nearest-rank rounding used to produce.
        let mut p = P2Quantile::new(0.5);
        p.push(1.0);
        p.push(100.0);
        assert_eq!(p.estimate(), 50.5);

        // Every n in 1..=5 and every fleet quantile matches the exact
        // whole-population interpolation bit for bit, regardless of
        // arrival order.
        let samples = [7.0, -2.0, 11.5, 3.25, 0.5];
        for n in 1..=samples.len() {
            let mut sorted = samples[..n].to_vec();
            sorted.sort_by(f64::total_cmp);
            for q in [0.5, 0.9, 0.99] {
                let mut p = P2Quantile::new(q);
                for &x in &samples[..n] {
                    p.push(x);
                }
                assert_eq!(
                    p.estimate(),
                    exact_quantile(&sorted, q),
                    "n={n} q={q} diverged from the exact order statistics"
                );
            }
        }
    }

    #[test]
    fn tiny_summary_quantiles_are_finite_and_ordered() {
        // The shape a tiny dh-serve smoke job reports: n < 5 must still
        // yield sane, ordered, in-range p50/p90/p99 — never NaN.
        let mut s = StreamingSummary::new();
        for x in [4.0, 1.0, 2.0] {
            s.push(x);
        }
        let stats = s.finalize();
        for v in [stats.p50, stats.p90, stats.p99] {
            assert!(v.is_finite());
            assert!(stats.min <= v && v <= stats.max);
        }
        assert!(stats.p50 <= stats.p90 && stats.p90 <= stats.p99);
        assert_eq!(stats.p50, 2.0);
    }

    #[test]
    fn summary_state_round_trips_bit_exactly_through_the_wire() {
        let mut s = StreamingSummary::new();
        for i in 0..137 {
            s.push((i as f64).sin() * 10.0);
        }
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut view = buf.as_slice();
        let back = StreamingSummary::decode(&mut view).unwrap();
        assert!(view.is_empty());
        assert_eq!(s, back);
        // Continuing both from the same state stays identical.
        let mut a = s;
        let mut b = back;
        for i in 0..50 {
            let x = (i as f64).cos();
            a.push(x);
            b.push(x);
        }
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn non_finite_samples_are_rejected_without_side_effects() {
        let mut s = StreamingSummary::new();
        for i in 0..64 {
            s.push(f64::from(i) * 0.5);
        }
        let before = s.clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // NaN defeats ==, so compare the carried value by bit pattern.
            assert!(matches!(
                s.try_push(bad),
                Err(NonFinite(v)) if v.to_bits() == bad.to_bits()
            ));
            assert_eq!(s, before, "rejected sample must leave no trace");
        }
        assert!(s.try_push(3.25).is_ok());
        assert_eq!(s.count(), 65);
        // The per-estimator guards behave the same way.
        let mut m = StreamingMoments::new();
        assert!(m.try_push(f64::NAN).is_err());
        assert_eq!(m.count(), 0);
        let mut p = P2Quantile::new(0.5);
        assert!(p.try_push(f64::INFINITY).is_err());
        assert_eq!(p.count(), 0);
    }

    #[test]
    fn truncated_state_is_rejected() {
        let mut s = StreamingSummary::new();
        s.push(1.0);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        buf.truncate(buf.len() - 3);
        let mut view = buf.as_slice();
        assert!(StreamingSummary::decode(&mut view).is_err());
    }
}
