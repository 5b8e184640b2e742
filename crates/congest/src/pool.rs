//! A persistent worker pool for the simulator's round loop.
//!
//! [`crate::run_parallel`] used to open a `std::thread::scope` every
//! round, paying a thread spawn + join per round per worker — on short
//! rounds that overhead dwarfed the round work and made the parallel
//! runner *slower* than the sequential one. The pool fixes the defect by
//! spawning its workers exactly once and driving rounds through an
//! **epoch barrier**: each [`WorkerPool::broadcast`] publishes one job
//! under a mutex, bumps the epoch counter, and wakes the workers on a
//! condvar; every worker runs the job once (the caller thread
//! participates as worker 0) and the call returns only after the last
//! worker checks back in. A round transition is therefore two condvar
//! hops instead of a spawn/join cycle, and a pool outlives any number of
//! runs — back-to-back runs on one pool spawn **zero** new threads
//! (pinned by [`WorkerPool::threads_spawned`] and the reuse proptests in
//! `tests/sim_differential.rs`).
//!
//! The pool itself carries no instrumentation — it must stay two condvar
//! hops, nothing more. When the runner's observability switch is on
//! ([`crate::RunOptions::obs`]), the *caller* measures the pool from the
//! outside: dispatch latency (broadcast to worker wake-up), per-worker
//! busy time, and the barrier-wait residue, recorded under the
//! `sim_pool_*` metrics of [`crate::obs`].
//!
//! # Why this module contains `unsafe`
//!
//! A job borrows the caller's per-run state (shard slots, work queue,
//! telemetry accumulators), but the pool's threads are `'static` — the
//! borrow cannot be expressed in the type system the way scoped threads
//! express it. `broadcast` therefore erases the closure's lifetime behind
//! a raw pointer and restores safety dynamically: the pointer is
//! published only for the duration of one epoch, and `broadcast` does not
//! return (not even by unwinding — see `EpochGuard`) until every worker
//! has reported the epoch done, so the closure strictly outlives every
//! use of the pointer. This is the same containment strategy scoped
//! thread pools like rayon use; it is the **only** module in the crate
//! allowed to use `unsafe` (the crate-level lint is `deny`, re-allowed
//! here alone).

#![allow(unsafe_code)]

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A lifetime-erased job: a pointer to the caller's closure plus a
/// monomorphized trampoline that knows its real type. Valid only while
/// the `broadcast` that published it is still on the caller's stack.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointer is only dereferenced through `call` during the
// epoch in which `broadcast` published it, and `broadcast` requires the
// closure to be `Sync` (shared access from many threads) while keeping it
// alive on the caller's stack until every worker is done.
unsafe impl Send for Job {}

/// Epoch state shared between the caller and the pool's workers.
struct Ctl {
    /// Bumped once per broadcast; workers run one job per bump.
    epoch: u64,
    /// The current epoch's job; `None` between epochs.
    job: Option<Job>,
    /// Spawned workers still running the current epoch's job.
    running: usize,
    /// Tells workers to exit (set once, by `Drop`).
    shutdown: bool,
    /// First panic payload caught from a worker this epoch, re-thrown on
    /// the caller thread so a panicking node program behaves exactly as
    /// it did under scoped spawning.
    panic: Option<Box<dyn Any + Send>>,
}

struct Shared {
    ctl: Mutex<Ctl>,
    /// Wakes workers at the start of an epoch (and for shutdown).
    start: Condvar,
    /// Wakes the caller when the last worker finishes an epoch.
    done: Condvar,
}

/// A persistent pool of simulator worker threads.
///
/// Construction spawns `threads - 1` OS threads (the caller thread is
/// the pool's worker 0); [`WorkerPool::broadcast`] runs a borrowed
/// closure once on every worker and blocks until all are done. Dropping
/// the pool joins its threads. The pool is inert between broadcasts —
/// workers sleep on a condvar — so holding one across runs costs nothing
/// but idle threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// OS threads this pool has spawned since construction. Steady state
    /// must never spawn: the reuse tests pin this counter flat across
    /// back-to-back runs.
    spawned: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// A pool with `threads` total workers (clamped to at least 1; one of
    /// them is the calling thread, so `threads - 1` OS threads are
    /// spawned). A 1-thread pool never spawns and `broadcast` degenerates
    /// to an inline call.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            ctl: Mutex::new(Ctl {
                epoch: 0,
                job: None,
                running: 0,
                shutdown: false,
                panic: None,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let spawned = Arc::new(AtomicUsize::new(0));
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let spawned = Arc::clone(&spawned);
                spawned.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("congest-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn simulator pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
            spawned,
        }
    }

    /// Total workers, including the calling thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// OS threads spawned by this pool since construction — always
    /// `threads() - 1`, however many runs the pool has executed. The
    /// spawn-count pin tests assert this stays flat across broadcasts.
    pub fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Runs `f(worker_index)` exactly once on every worker — indices
    /// `0..threads()`, the caller thread being worker 0 — and returns
    /// after all invocations finish. `f` may borrow freely from the
    /// caller's stack: the call is a barrier, so the borrows outlive
    /// every use. A panic in `f` (on any worker) is re-thrown on the
    /// calling thread after the epoch drains.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: F) {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        /// Recovers the concrete closure type behind the erased pointer.
        ///
        /// SAFETY (caller): `data` must point to a live `F` for the whole
        /// epoch; `&F` must be shareable across threads (`F: Sync`).
        unsafe fn trampoline<F: Fn(usize)>(data: *const (), w: usize) {
            // SAFETY: `broadcast` keeps `f` alive on its stack until the
            // epoch guard has seen every worker finish.
            unsafe { (*data.cast::<F>())(w) }
        }
        let job = Job {
            data: (&raw const f).cast(),
            call: trampoline::<F>,
        };
        {
            let mut ctl = self.shared.ctl.lock().expect("pool control poisoned");
            debug_assert!(ctl.job.is_none(), "nested broadcast on one pool");
            ctl.job = Some(job);
            ctl.epoch += 1;
            ctl.running = self.handles.len();
            self.shared.start.notify_all();
        }
        // The guard — not straight-line code — waits out the epoch, so
        // even if `f(0)` below unwinds, no worker can still be executing
        // `f` when its stack frame dies.
        let guard = EpochGuard {
            shared: &self.shared,
        };
        f(0);
        drop(guard);
        let panic = {
            let mut ctl = self.shared.ctl.lock().expect("pool control poisoned");
            ctl.panic.take()
        };
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Blocks until every spawned worker has finished the current epoch and
/// retires the job pointer. Runs on drop so the wait also happens when
/// the caller's own closure invocation panics.
struct EpochGuard<'a> {
    shared: &'a Shared,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        let mut ctl = self.shared.ctl.lock().expect("pool control poisoned");
        while ctl.running > 0 {
            ctl = self.shared.done.wait(ctl).expect("pool control poisoned");
        }
        ctl.job = None;
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut ctl = shared.ctl.lock().expect("pool control poisoned");
            loop {
                if ctl.shutdown {
                    return;
                }
                if ctl.epoch != seen {
                    seen = ctl.epoch;
                    break ctl.job.expect("an epoch bump publishes a job");
                }
                ctl = shared.start.wait(ctl).expect("pool control poisoned");
            }
        };
        // Catch panics so a panicking node program cannot strand the
        // epoch barrier; the payload is re-thrown on the caller thread.
        // SAFETY: `job` was published by a `broadcast` whose epoch guard
        // is still waiting on `running`, decremented only below — the
        // closure behind the pointer is alive for this whole call.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (job.call)(job.data, w)
        }));
        let mut ctl = shared.ctl.lock().expect("pool control poisoned");
        if let Err(payload) = result {
            ctl.panic.get_or_insert(payload);
        }
        ctl.running -= 1;
        if ctl.running == 0 {
            shared.done.notify_one();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut ctl = self.shared.ctl.lock().expect("pool control poisoned");
            ctl.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_runs_every_worker_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            pool.broadcast(|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn broadcasts_never_respawn() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads_spawned(), 2);
        for _ in 0..50 {
            pool.broadcast(|_| {});
        }
        assert_eq!(pool.threads_spawned(), 2, "steady state must not spawn");
    }

    #[test]
    fn single_thread_pool_runs_inline_and_spawns_nothing() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads_spawned(), 0);
        let ran = AtomicUsize::new(0);
        pool.broadcast(|w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn broadcast_is_a_barrier() {
        // Every worker's write must be visible after broadcast returns.
        let pool = WorkerPool::new(8);
        let cells: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(|w| {
            cells[w].store(w + 1, Ordering::Relaxed);
        });
        for (w, c) in cells.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), w + 1);
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(3);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(|w| {
                if w == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(err.is_err());
        // The pool must still be usable after a panicking epoch.
        let count = AtomicUsize::new(0);
        pool.broadcast(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }
}
