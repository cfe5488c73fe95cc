//! The process-wide pool of parked helper threads behind every `par_*`
//! call.
//!
//! A parallel call posts its shared work closure here, wakes parked
//! helpers (starting new ones lazily, never more than the call's thread
//! count in total) to run it beside the calling thread, runs its own part,
//! then retracts the post and waits until every helper that joined has
//! left the closure. Helpers park on a condition variable between calls;
//! nothing spins.
//!
//! The caller always works on its own call, so a call never waits for a
//! free helper. Concurrent calls (daemon job threads) and nested calls (a
//! `par_map` inside a `par_chunks_mut` item) just get fewer helpers while
//! the pool is busy: a caller only ever waits for helpers running its own
//! items, so calls cannot deadlock on each other.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

type Payload = Box<dyn Any + Send>;

/// One posted call.
struct Post {
    id: u64,
    /// The caller's shared work, its lifetime erased by [`call`].
    work: &'static (dyn Fn() + Sync),
    /// Helpers that may still join.
    wanted: usize,
    /// Helpers currently inside `work`.
    inside: usize,
    /// The first panic a helper raised inside `work`.
    panic: Option<Payload>,
}

struct State {
    posts: Vec<Post>,
    next_id: u64,
    /// Helper threads started so far; they live as long as the process.
    helpers: usize,
    /// Helpers parked and not yet woken.
    parked: usize,
    /// Wake-ups handed out but not yet taken by a parked helper (a
    /// helper that wakes without one was woken spuriously and parks
    /// again).
    wakeups: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Parked helpers wait here for a post.
    posted: Condvar,
    /// Callers wait here for their helpers to leave.
    left: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        posts: Vec::new(),
        next_id: 0,
        helpers: 0,
        parked: 0,
        wakeups: 0,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

fn lock() -> MutexGuard<'static, State> {
    // No caller code runs under this lock and every update is a whole
    // counter or list edit, so the state is valid even if a thread died
    // holding it.
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `own` on the calling thread while up to `threads - 1` pool helpers
/// run `shared`, and returns `own`'s result once every helper has left
/// `shared` — also when `own` unwinds. A helper's panic is re-raised on
/// the caller after that, unless the caller is already unwinding.
pub(crate) fn call<R>(threads: usize, shared: &(dyn Fn() + Sync), own: impl FnOnce() -> R) -> R {
    // SAFETY: the erased reference is only used by helpers that join the
    // post, and `Retire` — which this function holds until it returns or
    // unwinds — first stops further joins and then waits until every
    // joined helper has left `work`, all under the pool lock. So no helper
    // touches `shared` after this call ends, and the borrow outlives every
    // use. Retiring cannot fail: the lock never stays poisoned and the
    // wait has no other exit.
    let work = unsafe {
        std::mem::transmute::<&(dyn Fn() + Sync + '_), &'static (dyn Fn() + Sync + 'static)>(shared)
    };
    let retire = Retire(post(threads, work));
    let result = own();
    if let Some(payload) = retire.finish() {
        panic::resume_unwind(payload);
    }
    result
}

/// Posts `work` for `threads - 1` helpers and returns the post's id.
fn post(threads: usize, work: &'static (dyn Fn() + Sync)) -> u64 {
    let wanted = threads.saturating_sub(1);
    let mut state = lock();
    let id = state.next_id;
    state.next_id += 1;
    state.posts.push(Post {
        id,
        work,
        wanted,
        inside: 0,
        panic: None,
    });
    let wake = wanted.min(state.parked);
    state.parked -= wake;
    state.wakeups += wake;
    let start = (wanted - wake).min(threads.saturating_sub(state.helpers));
    state.helpers += start;
    drop(state);
    for _ in 0..wake {
        POOL.posted.notify_one();
    }
    for _ in 0..start {
        let started = std::thread::Builder::new()
            .name("dh-exec".into())
            .spawn(helper);
        if started.is_err() {
            // Out of threads: the call still completes on fewer.
            lock().helpers -= 1;
        }
    }
    id
}

/// Retracts a post when dropped: no helper joins it any more, and the
/// drop returns once every helper that joined has left its work.
struct Retire(u64);

impl Retire {
    /// Retires the post and hands back the first helper panic, if any.
    fn finish(self) -> Option<Payload> {
        let payload = retire(self.0);
        std::mem::forget(self);
        payload
    }
}

impl Drop for Retire {
    fn drop(&mut self) {
        // The caller is unwinding with its own panic, which wins.
        drop(retire(self.0));
    }
}

fn retire(id: u64) -> Option<Payload> {
    let mut state = lock();
    loop {
        // Other calls retire while this one waits, so the post's slot moves.
        let slot = state
            .posts
            .iter()
            .position(|p| p.id == id)
            .expect("a post stays listed until it is retired");
        let post = &mut state.posts[slot];
        post.wanted = 0;
        if post.inside == 0 {
            return state.posts.swap_remove(slot).panic;
        }
        state = POOL
            .left
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// A helper thread: joins posts that still want helpers, parks between.
fn helper() {
    let mut state = lock();
    loop {
        let Some(post) = state.posts.iter_mut().find(|p| p.wanted > 0) else {
            state.parked += 1;
            loop {
                state = POOL
                    .posted
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                if state.wakeups > 0 {
                    state.wakeups -= 1;
                    break;
                }
            }
            continue;
        };
        post.wanted -= 1;
        post.inside += 1;
        let (id, work) = (post.id, post.work);
        drop(state);
        let result = panic::catch_unwind(AssertUnwindSafe(work));
        state = lock();
        let post = state
            .posts
            .iter_mut()
            .find(|p| p.id == id)
            .expect("a post outlives the helpers inside it");
        post.inside -= 1;
        if let Err(payload) = result {
            post.panic.get_or_insert(payload);
        }
        if post.inside == 0 && post.wanted == 0 {
            POOL.left.notify_all();
        }
    }
}

/// Helper threads started so far in this process.
#[cfg(test)]
pub(crate) fn helpers_started() -> usize {
    lock().helpers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::override_guard;
    use crate::{
        par_chunks_mut, par_chunks_mut2, par_map, par_map_fold, par_map_fold_supervised,
        par_map_indexed, par_try_map, set_max_threads, RetryPolicy,
    };
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    /// Runs `f` on a thread of its own and fails the test if it has not
    /// returned within `limit`, so a deadlock fails instead of hanging.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = mpsc::channel();
        std::thread::spawn(move || done.send(f()));
        match result.recv_timeout(limit) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("no result within {limit:?}: deadlock"),
            Err(RecvTimeoutError::Disconnected) => panic!("the checked call panicked"),
        }
    }

    const LIMIT: Duration = Duration::from_secs(60);

    fn order_hash(acc: u64, v: u64) -> u64 {
        acc.wrapping_mul(31).wrapping_add(v)
    }

    #[test]
    fn two_item_calls_start_at_most_two_helpers() {
        let _guard = override_guard();
        set_max_threads(Some(2));
        let before = helpers_started();
        within(LIMIT, || {
            for i in 0..10_000usize {
                assert_eq!(par_map_indexed(2, |j| i + j), [i, i + 1]);
            }
        });
        let started = helpers_started() - before;
        set_max_threads(None);
        assert!(started <= 2, "10,000 calls started {started} helpers");
    }

    #[test]
    fn nested_calls_complete_at_any_thread_count() {
        let _guard = override_guard();
        for threads in [1, 2, 8] {
            set_max_threads(Some(threads));
            let sums = within(LIMIT, || {
                let mut rows: Vec<u64> = (0..64).collect();
                par_chunks_mut(&mut rows, 4, |_, chunk| {
                    chunk
                        .iter()
                        .map(|&r| par_map(&[1u64, 2, 3, 4, 5], |&x| x * r).iter().sum::<u64>())
                        .sum::<u64>()
                })
            });
            let expected: Vec<u64> = (0..16u64)
                .map(|c| (4 * c..4 * c + 4).map(|r| 15 * r).sum())
                .collect();
            assert_eq!(sums, expected, "{threads} threads");
        }
        set_max_threads(None);
    }

    #[test]
    fn concurrent_callers_each_get_the_serial_fold() {
        let _guard = override_guard();
        set_max_threads(Some(3));
        let n = 500u64;
        let serial = (0..n).fold(7, |acc, i| order_hash(acc, i * i + 1));
        let results = within(LIMIT, move || {
            let start = Barrier::new(4);
            std::thread::scope(|scope| {
                let callers: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            par_map_fold(
                                n as usize,
                                |i| (i as u64) * (i as u64) + 1,
                                7u64,
                                |acc, _, v| order_hash(acc, v),
                            )
                        })
                    })
                    .collect();
                callers
                    .into_iter()
                    .map(|caller| caller.join().expect("caller panicked"))
                    .collect::<Vec<_>>()
            })
        });
        set_max_threads(None);
        assert_eq!(results, [serial; 4]);
    }

    #[test]
    fn a_blocked_call_does_not_hold_up_another_threads_call() {
        let _guard = override_guard();
        set_max_threads(Some(2));
        let (entered, is_blocked) = mpsc::channel::<()>();
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let blocked = std::thread::spawn(move || {
            par_map_indexed(2, |i| {
                if i == 0 {
                    let _ = entered.send(());
                    let released = released.lock().expect("item 0 runs once");
                    let _ = released.recv_timeout(Duration::from_secs(1));
                }
                i
            })
        });
        is_blocked
            .recv_timeout(LIMIT)
            .expect("the blocking item started");
        let started = Instant::now();
        let out = within(LIMIT, || par_map_indexed(1000, |i| i * 2));
        let elapsed = started.elapsed();
        let _ = release.send(());
        assert_eq!(blocked.join().expect("blocked call completed"), [0, 1]);
        set_max_threads(None);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
        assert!(
            elapsed < Duration::from_millis(500),
            "the 1,000-item call took {elapsed:?} beside a blocked call"
        );
    }

    #[test]
    fn one_thread_runs_every_item_on_the_caller() {
        let _guard = override_guard();
        set_max_threads(Some(1));
        let caller = std::thread::current().id();
        let here = || assert_eq!(std::thread::current().id(), caller);
        par_map_indexed(64, |_| here());
        let _ = par_try_map(&[0u8; 64], |_| {
            here();
            Ok::<_, ()>(())
        });
        par_chunks_mut(&mut [0u8; 64], 4, |_, _| here());
        par_chunks_mut2(&mut [0u8; 64], &mut [0u8; 64], 4, |_, _, _| here());
        par_map_fold(64, |_| here(), (), |(), _, ()| here());
        let retry = RetryPolicy::immediate(1);
        par_map_fold_supervised(64, |_, _| here(), (), |(), _, ()| here(), &retry);
        set_max_threads(None);
    }
}
