//! Self-scheduling parallel maps on the process-wide worker pool.
//!
//! No external thread-pool dependency is available offline, so each call
//! runs on the calling thread plus parked helpers from [`crate::workers`],
//! all popping item indices from a shared atomic counter (self-scheduling:
//! the classic fix for skewed per-item cost). Results carry their item
//! index and are reassembled in index order, which — together with
//! per-item RNG streams — is what makes output independent of thread
//! count and scheduling. A panicking item aborts its call with the item's
//! own panic payload once every participant has stopped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use rand::rngs::StdRng;

use crate::workers;

/// Runtime thread-count override; 0 means "not set".
static MAX_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for subsequent parallel calls
/// (`Some(n)` pins it, `None` restores env/hardware detection).
///
/// Results never depend on the thread count — this knob exists for
/// benchmarking serial baselines and for tests that exercise both paths.
pub fn set_max_threads(n: Option<usize>) {
    MAX_THREADS_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

fn env_threads() -> Option<usize> {
    std::env::var("DH_NUM_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// The machine's available parallelism, detected once per process: on
/// Linux the detection reads cgroup files, which costs more than a short
/// parallel call.
fn hardware_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The worker count parallel calls will use: the [`set_max_threads`]
/// override, else `DH_NUM_THREADS`, else the machine's available
/// parallelism.
pub fn max_threads() -> usize {
    let overridden = MAX_THREADS_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden;
    }
    env_threads().unwrap_or_else(hardware_threads)
}

/// Threads (the caller included) that work on a call over `n_items`
/// items: never more than items.
fn worker_count(n_items: usize) -> usize {
    max_threads().min(n_items)
}

/// Records one worker's share of a self-scheduled run: the per-worker
/// item count, and — as the self-scheduling analogue of work stealing —
/// how many items it claimed beyond an even `⌈n/workers⌉` split (only
/// possible because another worker was slower and yielded its share).
fn observe_worker_share(label: &dh_obs::HistogramCell, taken: usize, fair_share: usize) {
    label.get().record(taken as f64);
    dh_obs::counter!("exec.pool.steals").add(taken.saturating_sub(fair_share) as u64);
}

static ITEMS_PER_WORKER: dh_obs::HistogramCell =
    dh_obs::HistogramCell::new("exec.pool.items_per_worker");
static CHUNKS_PER_WORKER: dh_obs::HistogramCell =
    dh_obs::HistogramCell::new("exec.pool.chunks_per_worker");

/// Runs `f` over `0..n` on `threads` participants that self-schedule from
/// one atomic counter, returning the `(index, value)` pairs in no
/// particular order.
fn self_scheduled<U, F>(
    n: usize,
    threads: usize,
    shares: &dh_obs::HistogramCell,
    f: F,
) -> Vec<(usize, U)>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let fair_share = n.div_ceil(threads);
    let next = AtomicUsize::new(0);
    let tagged = Mutex::new(Vec::with_capacity(n));
    let work = &|| {
        let mut local = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                break;
            }
            local.push((index, f(index)));
        }
        observe_worker_share(shares, local.len(), fair_share);
        tagged
            .lock()
            .expect("result list poisoned: a worker panicked while appending")
            .extend(local);
    };
    workers::call(threads, work, work);
    tagged
        .into_inner()
        .expect("result list poisoned: a worker panicked while appending")
}

/// Reassembles `(index, value)` pairs produced by the workers into a
/// dense index-ordered vector.
fn assemble<U>(n: usize, tagged: Vec<(usize, U)>) -> Vec<U> {
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (index, value) in tagged {
        debug_assert!(slots[index].is_none(), "item {index} produced twice");
        slots[index] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.unwrap_or_else(|| panic!("item {index} never produced")))
        .collect()
}

/// Maps `f` over `0..n` in parallel; `out[i] == f(i)` exactly as in the
/// serial loop, at any thread count.
pub(crate) fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = worker_count(n);
    dh_obs::counter!("exec.pool.par_maps").incr();
    if workers <= 1 {
        observe_worker_share(&ITEMS_PER_WORKER, n, n);
        return (0..n).map(f).collect();
    }
    assemble(n, self_scheduled(n, workers, &ITEMS_PER_WORKER, f))
}

/// Parallel map over a slice; `out[i] == f(&items[i])`.
///
/// Every item runs and the results come back in index order, so a
/// fallible map collects into a `Result` with the error of the
/// **lowest-index** failing item, the same in every run.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Parallel map with a per-item deterministic RNG stream: item `i`
/// receives `seeded_stream_rng(root, label, i)`, so output is
/// bit-identical to the serial loop at any thread count.
pub fn par_map_seeded<U, F>(root: u64, label: &str, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, StdRng) -> U + Sync,
{
    par_map_indexed(n, |i| {
        f(i, dh_units::rng::seeded_stream_rng(root, label, i as u64))
    })
}

/// The reorder window of [`par_map_fold`], shared by its participants.
struct Window<U> {
    state: Mutex<WindowState<U>>,
    /// The caller waits here for the item at the window's front.
    landed: Condvar,
    /// Workers wait here for the fold cursor to advance.
    advanced: Condvar,
}

struct WindowState<U> {
    /// `slots[k]` parks the value of item `base + k` until every earlier
    /// item has been taken for folding. Unlike a map keyed by index, the
    /// ring's backing buffer is reused for the whole run — zero
    /// allocations in steady state, one growth per high-water mark
    /// (bounded by the backpressure window, not by `n`).
    slots: VecDeque<Option<U>>,
    base: usize,
    /// Items folded so far, as last published by the caller.
    folded: usize,
    /// A participant panicked: everyone stops.
    stopped: bool,
}

impl<U> Window<U> {
    fn lock(&self) -> MutexGuard<'_, WindowState<U>> {
        // Every update below is a single field or slot write, so the state
        // is valid even after a participant died holding the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks `value` for `index` and wakes the caller if it completes the
    /// window's front.
    fn land(&self, index: usize, value: U) {
        let mut state = self.lock();
        let offset = index - state.base;
        if offset >= state.slots.len() {
            state.slots.resize_with(offset + 1, || None);
        }
        debug_assert!(state.slots[offset].is_none(), "item {index} produced twice");
        state.slots[offset] = Some(value);
        if offset == 0 {
            self.landed.notify_one();
        }
    }
}

/// Stops a fold's participants and wakes every waiter when dropped by a
/// panicking thread.
struct StopOnUnwind<'a, U>(&'a Window<U>);

impl<U> Drop for StopOnUnwind<'_, U> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().stopped = true;
            self.0.landed.notify_all();
            self.0.advanced.notify_all();
        }
    }
}

/// Parallel map over `0..n` whose results are folded **in index order**
/// on the calling thread: returns the accumulator after
/// `fold(fold(init, 0, f(0)), 1, f(1)) …` exactly as the serial loop
/// would produce it, at any thread count.
///
/// Unlike [`par_map`] the mapped values are never collected into
/// a `Vec`: the caller holds only the out-of-order window (typically a
/// few items, at worst the items produced while the slowest item blocks
/// the fold). This is the streaming-aggregation primitive the fleet
/// layer leans on: a million mapped shards fold into O(1) accumulator
/// state.
///
/// `fold` runs on the calling thread, so it may freely capture `&mut`
/// state (checkpoint writers, streaming accumulators) without `Sync`.
/// Between folds the caller maps items itself.
pub fn par_map_fold<U, A, F, G>(n: usize, f: F, init: A, mut fold: G) -> A
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    G: FnMut(A, usize, U) -> A,
{
    let workers = worker_count(n);
    dh_obs::counter!("exec.pool.par_map_folds").incr();
    if workers <= 1 {
        observe_worker_share(&ITEMS_PER_WORKER, n, n);
        return (0..n).fold(init, |acc, i| {
            let value = f(i);
            fold(acc, i, value)
        });
    }
    let fair_share = n.div_ceil(workers);
    let next = AtomicUsize::new(0);
    // Reorder-window backpressure: nobody may start an item more than
    // `ahead` indices past the fold cursor. Without this, one slow
    // low-index item lets the fast workers race through the entire
    // remaining range and park every result in the reorder window —
    // O(n) buffering on exactly the skewed workloads the
    // self-scheduling exists for. With it, the window holds O(workers)
    // values no matter how skewed the item costs are.
    let ahead = workers * 2;
    let window = Window {
        state: Mutex::new(WindowState {
            slots: VecDeque::new(),
            base: 0,
            folded: 0,
            stopped: false,
        }),
        landed: Condvar::new(),
        advanced: Condvar::new(),
    };
    let helper = || {
        let _stop = StopOnUnwind(&window);
        let mut taken = 0usize;
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                break;
            }
            if index >= ahead {
                let mut state = window.lock();
                while !state.stopped && index >= state.folded + ahead {
                    state = window
                        .advanced
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if state.stopped {
                    break;
                }
            }
            taken += 1;
            window.land(index, f(index));
        }
        observe_worker_share(&ITEMS_PER_WORKER, taken, fair_share);
    };
    let caller = || {
        let _stop = StopOnUnwind(&window);
        let mut acc = init;
        let mut folded = 0usize;
        let mut taken = 0usize;
        // An index the caller claimed but may not start yet.
        let mut claimed = None;
        let mut ready = Vec::new();
        while folded < n {
            {
                let mut state = window.lock();
                if state.folded != folded {
                    state.folded = folded;
                    window.advanced.notify_all();
                }
                loop {
                    while let Some(Some(_)) = state.slots.front() {
                        ready.push(state.slots.pop_front().flatten().expect("front checked"));
                    }
                    state.base += ready.len();
                    if !ready.is_empty() || state.stopped {
                        break;
                    }
                    if claimed.is_none() {
                        claimed = Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
                    }
                    match claimed {
                        Some(index) if index < folded + ahead => break,
                        _ => {
                            state = window
                                .landed
                                .wait(state)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                }
                if state.stopped {
                    // A worker panicked; the pool re-raises its panic.
                    break;
                }
            }
            if ready.is_empty() {
                let index = claimed.take().expect("the caller claimed an item");
                taken += 1;
                window.land(index, f(index));
            }
            for value in ready.drain(..) {
                acc = fold(acc, folded, value);
                folded += 1;
            }
        }
        observe_worker_share(&ITEMS_PER_WORKER, taken, fair_share);
        acc
    };
    workers::call(workers, &helper, caller)
}

/// Runs `f` over fixed-size chunks of `items` in parallel, returning the
/// per-chunk results **in chunk order**.
///
/// Chunk boundaries depend only on `chunk_size`, so a serial in-order
/// fold over the returned vector is bit-identical at any thread count.
/// Chunks are self-scheduled one at a time for load balance.
pub fn par_chunks_mut<T, U, F>(items: &mut [T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T]) -> U + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    let workers = worker_count(n_chunks);
    if workers <= 1 {
        observe_worker_share(&CHUNKS_PER_WORKER, n_chunks, n_chunks);
        return items
            .chunks_mut(chunk_size)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    let queue: Mutex<Vec<Option<&mut [T]>>> =
        Mutex::new(items.chunks_mut(chunk_size).map(Some).collect());
    let tagged = self_scheduled(n_chunks, workers, &CHUNKS_PER_WORKER, |index| {
        let chunk = take_chunk(&queue, index);
        f(index, chunk)
    });
    assemble(n_chunks, tagged)
}

/// Hands out chunk `index` of a chunk queue; each is taken exactly once.
fn take_chunk<C>(queue: &Mutex<Vec<Option<C>>>, index: usize) -> C {
    queue.lock().expect("chunk queue poisoned")[index]
        .take()
        .expect("chunk taken twice")
}

/// Runs `f` over paired fixed-size chunks of two equal-length columns in
/// parallel, returning the per-chunk results **in chunk order**.
///
/// This is the structure-of-arrays companion to [`par_chunks_mut`]: chunk
/// `i` of `a` and chunk `i` of `b` cover the same index range
/// `[i * chunk_size, …)`, so a kernel can update two columns of the same
/// logical records in one pass (read-only columns are best captured by
/// the closure and sliced with the same offset). Chunk boundaries depend
/// only on `chunk_size`, making results bit-identical at any thread
/// count; chunks are self-scheduled one at a time for load balance.
pub fn par_chunks_mut2<A, B, U, F>(a: &mut [A], b: &mut [B], chunk_size: usize, f: F) -> Vec<U>
where
    A: Send,
    B: Send,
    U: Send,
    F: Fn(usize, &mut [A], &mut [B]) -> U + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    assert_eq!(a.len(), b.len(), "paired columns must have equal length");
    let n_chunks = a.len().div_ceil(chunk_size);
    let workers = worker_count(n_chunks);
    if workers <= 1 {
        observe_worker_share(&CHUNKS_PER_WORKER, n_chunks, n_chunks);
        return a
            .chunks_mut(chunk_size)
            .zip(b.chunks_mut(chunk_size))
            .enumerate()
            .map(|(i, (ca, cb))| f(i, ca, cb))
            .collect();
    }
    type PairQueue<'a, A, B> = Mutex<Vec<Option<(&'a mut [A], &'a mut [B])>>>;
    let queue: PairQueue<A, B> = Mutex::new(
        a.chunks_mut(chunk_size)
            .zip(b.chunks_mut(chunk_size))
            .map(Some)
            .collect(),
    );
    let tagged = self_scheduled(n_chunks, workers, &CHUNKS_PER_WORKER, |index| {
        let (chunk_a, chunk_b) = take_chunk(&queue, index);
        f(index, chunk_a, chunk_b)
    });
    assemble(n_chunks, tagged)
}

/// Serializes tests that mutate the global thread-count override.
#[cfg(test)]
pub(crate) fn override_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn par_map_matches_serial() {
        let _guard = override_guard();
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 7] {
            set_max_threads(Some(threads));
            assert_eq!(par_map(&items, |x| x * x + 1), serial);
        }
        set_max_threads(None);
    }

    #[test]
    fn seeded_map_is_thread_count_invariant() {
        let _guard = override_guard();
        let run = |threads| {
            set_max_threads(Some(threads));
            par_map_seeded(42, "invariance", 64, |i, mut rng| {
                // Skewed cost: let some items draw far more than others.
                let draws = 1 + (i % 7) * 50;
                (0..draws).map(|_| rng.gen::<f64>()).sum::<f64>()
            })
        };
        let one = run(1);
        let four = run(4);
        let eight = run(8);
        set_max_threads(None);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn map_fold_folds_in_index_order_at_any_thread_count() {
        let _guard = override_guard();
        // An order-sensitive fold (sequence hash): any out-of-order or
        // dropped item changes the result.
        let serial: u64 =
            (0..311u64).fold(7, |acc, i| acc.wrapping_mul(31).wrapping_add(i * i + 1));
        for threads in [1, 3, 8] {
            set_max_threads(Some(threads));
            let folded = par_map_fold(
                311,
                |i| (i as u64) * (i as u64) + 1,
                7u64,
                |acc, i, v| {
                    assert_eq!(v, (i as u64) * (i as u64) + 1);
                    acc.wrapping_mul(31).wrapping_add(v)
                },
            );
            assert_eq!(folded, serial);
        }
        set_max_threads(None);
    }

    #[test]
    fn map_fold_window_stays_bounded_when_item_zero_is_slow() {
        let _guard = override_guard();
        let workers = 4;
        set_max_threads(Some(workers));
        // Worst case for the reorder window: item 0 stalls the fold while
        // every other item is instant. Count values that exist but have
        // not been folded (window occupancy); without the fold-cursor
        // backpressure the fast workers would race through all 63
        // remaining items and the peak would be ~n. The supervised fold
        // shares the window, so it must hold the same bound.
        let n = 64usize;
        for supervised in [false, true] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let map = |i: usize| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(40));
                }
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                i
            };
            let fold = |acc: usize, _: usize, v: usize| {
                live.fetch_sub(1, Ordering::SeqCst);
                acc + v
            };
            let sum = if supervised {
                let retry = crate::RetryPolicy::immediate(1);
                crate::par_map_fold_supervised(n, |i, _| map(i), 0, fold, &retry).acc
            } else {
                par_map_fold(n, map, 0, fold)
            };
            assert_eq!(sum, n * (n - 1) / 2);
            // Every unfolded value was started while its index was within
            // `ahead = workers * 2` of the fold cursor, so at most `ahead`
            // values can be live at once (+1 slop for the count/fold race).
            let bound = workers * 2 + 1;
            let seen = peak.load(Ordering::SeqCst);
            assert!(
                seen <= bound,
                "reorder window buffered {seen} values (bound {bound}, supervised {supervised})"
            );
        }
        set_max_threads(None);
    }

    #[test]
    fn map_fold_handles_empty_and_single_item_ranges() {
        let _guard = override_guard();
        assert_eq!(par_map_fold(0, |i| i, 99usize, |a, _, v| a + v), 99);
        assert_eq!(par_map_fold(1, |i| i + 5, 0usize, |a, _, v| a + v), 5);
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        let _guard = override_guard();
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            set_max_threads(Some(threads));
            let result: Result<Vec<usize>, usize> =
                par_map(&items, |&i| if i == 13 || i == 57 { Err(i) } else { Ok(i) })
                    .into_iter()
                    .collect();
            assert_eq!(result.unwrap_err(), 13);
            let ok: Result<Vec<usize>, usize> =
                par_map(&items, |&i| Ok(i * 2)).into_iter().collect();
            assert_eq!(ok.unwrap(), items.iter().map(|i| i * 2).collect::<Vec<_>>());
        }
        set_max_threads(None);
    }

    #[test]
    fn chunked_fold_is_thread_count_invariant() {
        let _guard = override_guard();
        let run = |threads| {
            set_max_threads(Some(threads));
            let mut data: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.25).collect();
            let partials = par_chunks_mut(&mut data, 64, |_, chunk| {
                let mut sum = 0.0;
                for x in chunk.iter_mut() {
                    *x = x.sqrt();
                    sum += *x;
                }
                sum
            });
            // In-order fold: deterministic float summation.
            (data, partials.into_iter().fold(0.0, |acc, p| acc + p))
        };
        let (data1, sum1) = run(1);
        let (data8, sum8) = run(8);
        set_max_threads(None);
        assert_eq!(data1, data8);
        assert_eq!(sum1.to_bits(), sum8.to_bits());
    }

    #[test]
    fn paired_chunks_share_boundaries_and_stay_invariant() {
        let _guard = override_guard();
        let run = |threads| {
            set_max_threads(Some(threads));
            let mut soft: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.001).collect();
            let mut hard: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.002).collect();
            let rates: Vec<f64> = (0..1000).map(|i| 1.0 + f64::from(i % 13)).collect();
            let spans = par_chunks_mut2(&mut soft, &mut hard, 64, |ci, cs, ch| {
                assert_eq!(cs.len(), ch.len());
                let offset = ci * 64;
                for (j, (s, h)) in cs.iter_mut().zip(ch.iter_mut()).enumerate() {
                    let rate = rates[offset + j];
                    let moved = *s / rate;
                    *s -= moved;
                    *h += moved;
                }
                (offset, offset + cs.len())
            });
            // Chunk index ranges must tile 0..n in order.
            let mut expect_start = 0;
            for (start, end) in &spans {
                assert_eq!(*start, expect_start);
                expect_start = *end;
            }
            assert_eq!(expect_start, 1000);
            (soft, hard)
        };
        let (s1, h1) = run(1);
        let (s8, h8) = run(8);
        set_max_threads(None);
        assert_eq!(s1, s8);
        assert_eq!(h1, h8);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn paired_chunks_reject_mismatched_columns() {
        let mut a = vec![0.0; 10];
        let mut b = vec![0.0; 9];
        par_chunks_mut2(&mut a, &mut b, 4, |_, _, _| ());
    }

    #[test]
    fn empty_and_single_inputs() {
        let _guard = override_guard();
        set_max_threads(Some(4));
        assert!(par_map_indexed(0, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, |i| i + 10), vec![10]);
        let mut nothing: Vec<u8> = Vec::new();
        assert!(par_chunks_mut(&mut nothing, 8, |_, c| c.len()).is_empty());
        set_max_threads(None);
    }

    /// Restores thread-count detection when dropped, also by a panicking
    /// test.
    struct RestoreThreads;

    impl Drop for RestoreThreads {
        fn drop(&mut self) {
            set_max_threads(None);
        }
    }

    /// An item body that panics with "exploded on a helper" on every
    /// thread but the one that built it. On that (calling) thread it
    /// waits until a helper has panicked, so a two-item call at two
    /// threads always raises its panic on a pool helper.
    fn exploding_item() -> impl Fn(usize) + Sync {
        let caller = std::thread::current().id();
        let (exploded, wait) = std::sync::mpsc::channel::<()>();
        let wait = Mutex::new(wait);
        move |_| {
            if std::thread::current().id() == caller {
                let wait = wait.lock().expect("the caller runs one item");
                let _ = wait.recv_timeout(std::time::Duration::from_secs(5));
            } else {
                let _ = exploded.send(());
                panic!("exploded on a helper");
            }
        }
    }

    /// The message of the panic `run` raises.
    fn panic_message(run: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the call must re-raise the item's panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    type PanickingCall = dyn Fn();

    #[test]
    #[should_panic(expected = "exploded on a helper")]
    fn item_panic_reaches_the_caller_with_its_own_payload() {
        let _guard = override_guard();
        let _restore = RestoreThreads;
        set_max_threads(Some(2));
        par_map_indexed(2, exploding_item());
    }

    #[test]
    fn item_panics_keep_their_payload_and_the_next_call_succeeds() {
        let _guard = override_guard();
        let _restore = RestoreThreads;
        set_max_threads(Some(2));
        let calls: [(&str, Box<PanickingCall>); 4] = [
            (
                "par_map_indexed",
                Box::new(|| drop(par_map_indexed(2, exploding_item()))),
            ),
            (
                "par_chunks_mut",
                Box::new(|| {
                    let item = exploding_item();
                    par_chunks_mut(&mut [0u8; 2], 1, |i, _| item(i));
                }),
            ),
            (
                "par_chunks_mut2",
                Box::new(|| {
                    let item = exploding_item();
                    par_chunks_mut2(&mut [0u8; 2], &mut [0u8; 2], 1, |i, _, _| item(i));
                }),
            ),
            (
                "par_map_fold",
                Box::new(|| par_map_fold(2, exploding_item(), (), |(), _, ()| ())),
            ),
        ];
        for (name, call) in calls {
            assert_eq!(panic_message(call), "exploded on a helper", "{name}");
            assert_eq!(
                par_map_indexed(100, |i| i * 3),
                (0..100).map(|i| i * 3).collect::<Vec<_>>(),
                "the call after a panicking {name}"
            );
        }
    }

    #[test]
    fn override_beats_env_detection() {
        let _guard = override_guard();
        set_max_threads(Some(3));
        assert_eq!(max_threads(), 3);
        set_max_threads(None);
        assert!(max_threads() >= 1);
    }
}
