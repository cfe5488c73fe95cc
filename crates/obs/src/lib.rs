//! Lightweight observability for the deep-healing workspace.
//!
//! The engine crates (`dh-exec`, `dh-bti`, `dh-em`, `dh-thermal`,
//! `dh-sched`, `dh-fleet`, `dh-scenario`, `dh-serve`) are instrumented
//! with **counters**, **histograms**, and **scoped span timers** registered
//! in a process-wide registry. The registry is always compiled in:
//! instrumentation sits at call, step, shard or epoch granularity, never
//! per chip, trap or element, so what a default build records costs a few
//! relaxed atomic adds per batch of work.
//!
//! # Metric naming convention
//!
//! Names are dotted lowercase paths, `crate.subsystem.metric`:
//!
//! * the first segment is the owning crate without the `dh-` prefix
//!   (`exec`, `bti`, `em`, `thermal`, `sched`);
//! * the leaf is snake_case and counts *events* for counters
//!   (`exec.memo.hits`) or carries a unit suffix for histograms
//!   (`bti.cet.step_seconds`, `thermal.settle.gs_iterations`);
//! * per-policy scheduler metrics interpose the policy name:
//!   `sched.periodic-deep.transitions_bti_ar`.
//!
//! # Example
//!
//! ```
//! // Counters and histograms are cheap handles into the global registry.
//! let hits = dh_obs::counter("doc.example.hits");
//! hits.incr();
//! dh_obs::histogram("doc.example.batch_size").record(42.0);
//! {
//!     let _timer = dh_obs::span("doc.example.work_seconds");
//!     // ... timed region ...
//! }
//! let snap = dh_obs::snapshot();
//! assert_eq!(snap.counter("doc.example.hits"), 1);
//! assert_eq!(snap.histogram("doc.example.batch_size").unwrap().count, 1);
//! ```
//!
//! Resolving a handle by name takes the registry lock, so hot paths hoist
//! handles out of their loops (they are `Copy`); [`counter!`] and
//! [`histogram!`] cache the lookup in a local `static` so repeated calls
//! are one atomic load.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets. Buckets are log₂-spaced: bucket `i` counts
/// values in `[2^(i - BUCKET_ZERO), 2^(i + 1 - BUCKET_ZERO))`, with the
/// first and last buckets absorbing underflow and overflow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The power of two at which bucket 0 ends: bucket 0 holds everything
/// below `2^-40` (≈ 9·10⁻¹³ — sub-picosecond timings, effectively zero),
/// bucket 63 everything from `2^23` (≈ 8.4·10⁶ — a hundred simulated
/// days in seconds) up.
const BUCKET_ZERO: i64 = 40;

/// The exclusive upper bound of histogram bucket `i`.
#[must_use]
pub fn bucket_upper_bound(i: usize) -> f64 {
    exp2_i64(i as i64 + 1 - BUCKET_ZERO)
}

/// `2^e` for integer `e` without `powf` (exact for the exponent range the
/// bucket table uses).
fn exp2_i64(e: i64) -> f64 {
    f64::from_bits((((e + 1023).clamp(1, 2046)) as u64) << 52)
}

/// The bucket index for a recorded value: floor(log₂ v) shifted by
/// [`BUCKET_ZERO`], clamped into the table. Non-positive and non-finite
/// values land in bucket 0 (they carry no magnitude information).
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(v > 0.0)` deliberately catches NaN
fn bucket_index(v: f64) -> usize {
    if !(v > 0.0) || !v.is_finite() {
        return 0;
    }
    // Exponent bits give floor(log2) for normal numbers; subnormals all
    // land in bucket 0 anyway.
    let exponent = ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    (exponent + BUCKET_ZERO).clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
}

/// One histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest recorded value (`f64::NEG_INFINITY` when empty).
    pub max: f64,
    /// Non-empty buckets as `(exclusive_upper_bound, count)`, ascending.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution `q`-quantile estimate: the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` value (0 when empty). Accurate
    /// to one log₂ bucket — enough to tell microseconds from milliseconds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        self.max
    }
}

/// A point-in-time copy of every registered metric.
///
/// `BTreeMap`-backed so iteration (and the JSON rendering) is sorted and
/// stable across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Free-form identity labels by name (who/what this process is
    /// currently measuring — e.g. the running scenario pack), set via
    /// [`label`]. Last write per name wins.
    pub labels: BTreeMap<String, String>,
}

impl Snapshot {
    /// The value of counter `name`, 0 if never registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if it recorded anything.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of every counter whose name starts with `prefix` — convenient
    /// for per-policy rollups (`sched.` totals).
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The label `name`, if set.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels.get(name).map(String::as_str)
    }

    /// Renders the snapshot as a deterministic JSON object:
    /// `{"counters": {...}, "histograms": {name: {count, sum, min, max,
    /// mean, p50, p99, buckets: [[upper, count], ...]}, ...},
    /// "labels": {...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {value}"));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max),
                json_f64(h.mean()),
                json_f64(h.quantile(0.5)),
                json_f64(h.quantile(0.99)),
            ));
            for (j, &(upper, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{}, {n}]", json_f64(upper)));
            }
            out.push_str("]}");
        }
        out.push_str("}, \"labels\": {");
        for (i, (name, value)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": \"{}\"", json_escape(value)));
        }
        out.push_str("}}");
        out
    }
}

/// Minimal JSON string escaping for label values (metric names follow
/// the dotted-lowercase convention and never need it).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite-f64-or-null JSON scalar (JSON has no Infinity/NaN).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[derive(Debug)]
struct CounterInner {
    value: AtomicU64,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// f64 bit patterns updated by compare-exchange loops.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// Lock-free f64 update via a compare-exchange loop on the bit pattern.
fn update_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, &'static CounterInner>,
    histograms: BTreeMap<String, &'static HistogramInner>,
    labels: BTreeMap<String, String>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    inner: &'static CounterInner,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    inner: &'static HistogramInner,
}

impl Histogram {
    /// Records one value.
    pub fn record(&self, v: f64) {
        let h = self.inner;
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            update_f64(&h.sum_bits, |s| s + v);
            update_f64(&h.min_bits, |m| m.min(v));
            update_f64(&h.max_bits, |m| m.max(v));
        }
    }

    /// Number of recorded values so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }
}

/// Resolves (registering on first use) the counter `name`. Prefer
/// [`counter!`] in hot paths — it caches the registry lookup.
pub fn counter(name: &str) -> Counter {
    let mut reg = lock();
    if let Some(&inner) = reg.counters.get(name) {
        return Counter { inner };
    }
    let inner: &'static CounterInner = Box::leak(Box::new(CounterInner {
        value: AtomicU64::new(0),
    }));
    reg.counters.insert(name.to_string(), inner);
    Counter { inner }
}

/// Resolves (registering on first use) the histogram `name`. Prefer
/// [`histogram!`] in hot paths.
pub fn histogram(name: &str) -> Histogram {
    let mut reg = lock();
    if let Some(&inner) = reg.histograms.get(name) {
        return Histogram { inner };
    }
    let inner: &'static HistogramInner = Box::leak(Box::new(HistogramInner::new()));
    reg.histograms.insert(name.to_string(), inner);
    Histogram { inner }
}

/// A scoped timer: records the elapsed seconds into its histogram on
/// drop.
pub struct Span {
    histogram: Histogram,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.record(self.start.elapsed().as_secs_f64());
    }
}

/// Starts a scoped span timer; the guard records elapsed seconds into the
/// histogram `name` when dropped. Name the metric with a `_seconds`
/// suffix.
pub fn span(name: &str) -> Span {
    Span {
        histogram: histogram(name),
        start: Instant::now(),
    }
}

/// Sets (or overwrites) the identity label `name` for subsequent
/// snapshots — e.g. `label("scenario", "sram-decoder")` for the pack a
/// daemon job integrates.
pub fn label(name: &str, value: &str) {
    lock().labels.insert(name.to_string(), value.to_string());
}

/// Copies every registered metric out of the registry.
#[must_use]
pub fn snapshot() -> Snapshot {
    let reg = lock();
    let counters = reg
        .counters
        .iter()
        .map(|(name, c)| (name.clone(), c.value.load(Ordering::Relaxed)))
        .collect();
    let histograms = reg
        .histograms
        .iter()
        .filter(|(_, h)| h.count.load(Ordering::Relaxed) > 0)
        .map(|(name, h)| {
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_upper_bound(i), n))
                })
                .collect();
            (
                name.clone(),
                HistogramSnapshot {
                    count: h.count.load(Ordering::Relaxed),
                    sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                    min: f64::from_bits(h.min_bits.load(Ordering::Relaxed)),
                    max: f64::from_bits(h.max_bits.load(Ordering::Relaxed)),
                    buckets,
                },
            )
        })
        .collect();
    Snapshot {
        counters,
        histograms,
        labels: reg.labels.clone(),
    }
}

/// A `static`-cachable counter handle for hot paths: the registry lookup
/// runs once, later calls are a single atomic pointer load. Used by
/// [`counter!`].
pub struct CounterCell {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl CounterCell {
    /// Creates the (unresolved) cell; usable in `static` items.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The cached counter handle.
    #[inline]
    pub fn get(&self) -> Counter {
        *self.cell.get_or_init(|| counter(self.name))
    }
}

/// A `static`-cachable histogram handle; see [`CounterCell`].
pub struct HistogramCell {
    name: &'static str,
    cell: OnceLock<Histogram>,
}

impl HistogramCell {
    /// Creates the (unresolved) cell; usable in `static` items.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The cached histogram handle.
    #[inline]
    pub fn get(&self) -> Histogram {
        *self.cell.get_or_init(|| histogram(self.name))
    }
}

/// The counter `$name`, resolved once per call site and cached in a local
/// `static`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static CELL: $crate::CounterCell = $crate::CounterCell::new($name);
        CELL.get()
    }};
}

/// The histogram `$name`, resolved once per call site and cached in a
/// local `static`.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static CELL: $crate::HistogramCell = $crate::HistogramCell::new($name);
        CELL.get()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone_powers_of_two() {
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
            assert_eq!(bucket_upper_bound(i), 2.0 * bucket_upper_bound(i - 1));
        }
        // A value is always strictly below its bucket's upper bound.
        for v in [1e-9, 0.001, 0.5, 1.0, 3.7, 1024.0, 8.3e6] {
            let i = bucket_index(v);
            assert!(v < bucket_upper_bound(i), "{v} vs bucket {i}");
            if i > 0 {
                assert!(v >= bucket_upper_bound(i - 1), "{v} vs bucket {i}");
            }
        }
    }

    #[test]
    fn degenerate_values_land_in_the_first_bucket() {
        for v in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(bucket_index(v), 0);
        }
        assert_eq!(
            bucket_index(f64::INFINITY),
            0,
            "non-finite carries no magnitude"
        );
        assert_eq!(bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn snapshot_json_is_valid_shape_when_empty() {
        let snap = Snapshot::default();
        assert_eq!(
            snap.to_json(),
            "{\"counters\": {}, \"histograms\": {}, \"labels\": {}}"
        );
    }

    #[test]
    fn label_json_is_escaped() {
        let mut snap = Snapshot::default();
        snap.labels
            .insert("scenario".into(), "a\"b\\c\nd".to_string());
        assert_eq!(
            snap.to_json(),
            "{\"counters\": {}, \"histograms\": {}, \
             \"labels\": {\"scenario\": \"a\\\"b\\\\c\\nd\"}}"
        );
        assert_eq!(snap.label("scenario"), Some("a\"b\\c\nd"));
        assert_eq!(snap.label("missing"), None);
    }

    #[test]
    fn quantile_and_mean_of_a_synthetic_snapshot() {
        let h = HistogramSnapshot {
            count: 4,
            sum: 10.0,
            min: 1.0,
            max: 4.0,
            buckets: vec![(2.0, 1), (4.0, 2), (8.0, 1)],
        };
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.quantile(0.0), 2.0);
        assert_eq!(h.quantile(0.5), 4.0);
        assert_eq!(h.quantile(1.0), 8.0);
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![],
        };
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("obs.test.counter");
        let before = c.get();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        assert!(snapshot().counter("obs.test.counter") >= 5);
        // Same name resolves to the same underlying cell.
        counter("obs.test.counter").incr();
        assert_eq!(c.get(), before + 6);
    }

    #[test]
    fn histogram_statistics_are_recorded() {
        let h = histogram("obs.test.hist");
        for v in [0.5, 1.5, 3.0, 1000.0] {
            h.record(v);
        }
        let snap = snapshot();
        let hs = snap.histogram("obs.test.hist").expect("recorded");
        assert!(hs.count >= 4);
        assert!(hs.sum >= 1004.9);
        assert!(hs.min <= 0.5);
        assert!(hs.max >= 1000.0);
        assert!(!hs.buckets.is_empty());
        assert!(hs.quantile(0.5) >= 1.0);
        let json = snap.to_json();
        assert!(json.contains("\"obs.test.hist\""));
        assert!(json.contains("\"p50\""));
    }

    #[test]
    fn span_records_elapsed_seconds() {
        {
            let _timer = span("obs.test.span_seconds");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = snapshot();
        let hs = snap
            .histogram("obs.test.span_seconds")
            .expect("span recorded");
        assert!(hs.max >= 0.002, "span max {}", hs.max);
    }

    #[test]
    fn macros_cache_the_handle() {
        let a = counter!("obs.test.macro_counter");
        a.incr();
        let b = counter!("obs.test.macro_counter");
        b.incr();
        assert!(counter("obs.test.macro_counter").get() >= 2);
        histogram!("obs.test.macro_hist").record(2.0);
        assert!(histogram("obs.test.macro_hist").count() >= 1);
    }

    #[test]
    fn labels_snapshot_with_last_write_winning() {
        label("obs.test.label", "one");
        label("obs.test.label", "two");
        let snap = snapshot();
        assert_eq!(snap.label("obs.test.label"), Some("two"));
        assert!(snap.to_json().contains("\"obs.test.label\": \"two\""));
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = counter("obs.test.concurrent");
        let before = c.get();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counter("obs.test.concurrent").incr();
                        histogram("obs.test.concurrent_h").record(1.0);
                    }
                });
            }
        });
        assert_eq!(c.get(), before + 8000);
    }
}
