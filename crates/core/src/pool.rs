//! The fetch worker pool: where a query's *helper* tickets run.
//!
//! A [`Quepa`] instance owns a single bounded pool. A query runs its
//! wave's units on the thread that submitted it and, the first time a
//! cache probe leaves keys to fetch, submits its helper tickets here as
//! jobs; every ticket — the caller included — claims work units off the
//! wave's atomic cursor, and the wave's [`Latch`] counts *units*, so the
//! query waits for work in progress and never for a job that has not
//! started. 64 concurrent queries thus share the same few workers
//! instead of running 64 × `THREADS_SIZE` threads, and the pool's width
//! bounds how much overlap they get, not whether they finish. An
//! execution outside any instance submits its helpers to a one-shot pool
//! sized to their count — the augmenter has no other way to start a
//! thread.
//!
//! Sizing: fetch work is round-trip-shaped — a worker spends most of a
//! ticket parked in the polystore's simulated network sleep, not on the
//! CPU — so the default width oversubscribes the core count instead of
//! matching it (an IO pool, not a compute pool). Workers are spawned
//! lazily on demand, so an instance that only ever runs sequential
//! queries — or queries its cache answers — never starts a thread.
//!
//! [`Quepa`]: crate::system::Quepa

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared worker-pool sizing clamp: fetch work is round-trip-shaped,
/// so the width oversubscribes the core count (an IO pool, not a compute
/// pool). Every consumer of a default pool width — [`WorkerPool`] itself,
/// the `quepa-check --concurrent` harness, the `quepa-serve` front end —
/// must size through this one function so they agree.
pub fn pool_width() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    (cores * 4).clamp(16, 64)
}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Workers started so far (never exceeds `width` at spawn time).
    spawned: usize,
    /// Workers currently parked waiting for a job.
    idle: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    signal: Condvar,
    /// Max workers; runtime-adjustable (only gates *new* spawns).
    width: AtomicUsize,
}

fn lock_state(shared: &PoolShared) -> MutexGuard<'_, PoolState> {
    // Jobs run outside the lock and are unwind-caught, so a poisoned
    // state can only mean a panic inside this module's own bookkeeping;
    // the data is still consistent enough to shut down with.
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// A bounded pool of fetch workers shared by every query of one `Quepa`
/// instance. Dropping the pool shuts the workers down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// A pool running at most `width` workers (floored at 1).
    pub fn new(width: usize) -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState::default()),
                signal: Condvar::new(),
                width: AtomicUsize::new(width.max(1)),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The default width: fetch tickets park in simulated round trips,
    /// so the pool oversubscribes the machine rather than matching it.
    /// Delegates to the shared [`pool_width`] clamp.
    pub fn default_width() -> usize {
        pool_width()
    }

    /// The current width bound.
    pub fn width(&self) -> usize {
        self.shared.width.load(Ordering::Relaxed)
    }

    /// Adjusts the width bound. Growing takes effect on the next submit;
    /// shrinking only stops further spawns — live workers are not culled.
    pub fn set_width(&self, width: usize) {
        self.shared.width.store(width.max(1), Ordering::Relaxed);
    }

    /// Workers started so far (for tests and diagnostics).
    pub fn spawned(&self) -> usize {
        lock_state(&self.shared).spawned
    }

    /// Workers currently parked waiting for a job.
    #[cfg(test)]
    fn idle(&self) -> usize {
        lock_state(&self.shared).idle
    }

    /// Enqueues a job, lazily starting a worker when none is idle and the
    /// pool is below its width.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = lock_state(&self.shared);
        state.queue.push_back(Box::new(job));
        let width = self.shared.width.load(Ordering::Relaxed);
        if state.idle == 0 && state.spawned < width {
            state.spawned += 1;
            let name = format!("quepa-fetch-{}", state.spawned);
            drop(state);
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&shared))
                .expect("spawn fetch worker");
            self.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            return;
        }
        drop(state);
        self.shared.signal.notify_one();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = lock_state(shared);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state.idle += 1;
                state = shared.signal.wait(state).unwrap_or_else(|e| e.into_inner());
                state.idle -= 1;
            }
        };
        match job {
            // Tickets catch their units' panics and store them in the
            // wave's slots; this outer catch only keeps a worker alive if
            // a raw job (tests, future callers) panics anyway.
            Some(job) => drop(catch_unwind(AssertUnwindSafe(job))),
            None => return,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_state(&self.shared).shutdown = true;
        self.shared.signal.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width())
            .field("spawned", &self.spawned())
            .finish()
    }
}

/// A completion latch: the submitting query parks until every unit of
/// its wave counted down.
pub struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    /// A latch waiting for `count` completions.
    pub fn new(count: usize) -> Self {
        Latch { remaining: Mutex::new(count), done: Condvar::new() }
    }

    /// Marks one complete, waking waiters when the count hits 0.
    pub fn count_down(&self) {
        self.count_down_by(1);
    }

    /// Marks `n` complete at once, waking waiters when the count hits 0.
    pub fn count_down_by(&self, n: usize) {
        let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *remaining = remaining.saturating_sub(n);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Parks until the count hits 0.
    pub fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn default_width_is_the_shared_clamp() {
        assert_eq!(WorkerPool::default_width(), pool_width());
        let w = pool_width();
        assert!((16..=64).contains(&w), "pool_width {w} outside clamp");
    }

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(32));
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            let latch = Arc::clone(&latch);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        latch.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        assert!(pool.spawned() <= 4);
    }

    #[test]
    fn spawns_lazily_and_reuses_idle_workers() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.spawned(), 0, "no work yet, no threads");
        for _ in 0..3 {
            let latch = Arc::new(Latch::new(1));
            let l = Arc::clone(&latch);
            pool.submit(move || l.count_down());
            latch.wait();
            // The latch opens inside the job, before the worker is back
            // in the queue: let it park, or the next submit finds nobody
            // idle and (rightly) spawns.
            while pool.idle() == 0 {
                std::thread::yield_now();
            }
        }
        // Sequential jobs find the idle worker again: one thread serves
        // all three.
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn width_is_adjustable() {
        let pool = WorkerPool::new(1);
        pool.set_width(6);
        assert_eq!(pool.width(), 6);
        pool.set_width(0);
        assert_eq!(pool.width(), 1, "width floors at 1");
    }

    #[test]
    fn survives_a_panicking_job() {
        let pool = WorkerPool::new(1);
        let latch = Arc::new(Latch::new(1));
        pool.submit(|| panic!("boom"));
        let l = Arc::clone(&latch);
        pool.submit(move || l.count_down());
        latch.wait();
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        let latch = Arc::new(Latch::new(4));
        for _ in 0..4 {
            let l = Arc::clone(&latch);
            pool.submit(move || l.count_down());
        }
        latch.wait();
        drop(pool); // must not hang
    }
}
