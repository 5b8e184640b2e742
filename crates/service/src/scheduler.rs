//! A std-only work-stealing job scheduler.
//!
//! The daemon's unit of work is one job closure (resolve graph → run the
//! algorithm's entry point → account quality). Jobs are
//! pushed round-robin onto per-worker deques; a worker drains its own
//! deque from the front and, when empty, *steals from the back* of the
//! busiest other deque. Back-stealing keeps each deque's front hot for
//! its owner while letting an idle worker relieve a loaded one — the
//! classic Arora–Blumofe–Plaxton shape, implemented with mutexed
//! `VecDeque`s (the workspace is std-only by design; contention is
//! per-push/pop, and the jobs themselves are orders of magnitude
//! heavier).
//!
//! Determinism note: the scheduler reorders *execution*, never results —
//! callers tag jobs with their batch index and reassemble in order, so
//! the response stream is byte-identical at any worker count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Pairs with `signal` so sleeping workers wake on new work.
    pending: Mutex<usize>,
    signal: Condvar,
    shutdown: AtomicBool,
    next: AtomicUsize,
}

/// A fixed pool of worker threads with per-worker deques and stealing.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `workers` threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        Self::with_spawn_counter(workers, &Arc::new(AtomicU64::new(0)))
    }

    /// Like [`Scheduler::new`], but ticks `spawned` once per thread the
    /// pool creates. The server threads its global spawn counter through
    /// here so the zero-per-connection-threads property is testable: the
    /// counter must stay flat however many connections arrive.
    pub fn with_spawn_counter(workers: usize, spawned: &Arc<AtomicU64>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: Mutex::new(0),
            signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                spawned.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("arbodomd-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.queues.len()
    }

    /// Enqueues one job. Round-robin placement; an idle worker will steal
    /// it regardless of which deque it lands on.
    ///
    /// `pending` is counted up *before* the job is published, so a worker
    /// can only pop — and count down — a job that is already counted: the
    /// count cannot underflow, it is back at 0 once every job has been
    /// taken, and idle workers then sleep.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        *self.shared.pending.lock().expect("pending poisoned") += 1;
        let slot = self.shared.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.queues[slot]
            .lock()
            .expect("scheduler queue poisoned")
            .push_back(Box::new(job));
        self.shared.signal.notify_all();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, id: usize) {
    let n = shared.queues.len();
    loop {
        // Own deque first (front), then steal (back) round-robin from the
        // others, starting just after our own slot to spread pressure.
        let mut job = shared.queues[id]
            .lock()
            .expect("scheduler queue poisoned")
            .pop_front();
        if job.is_none() {
            for offset in 1..n {
                let victim = (id + offset) % n;
                job = shared.queues[victim]
                    .lock()
                    .expect("scheduler queue poisoned")
                    .pop_back();
                if job.is_some() {
                    break;
                }
            }
        }
        match job {
            Some(job) => {
                *shared.pending.lock().expect("pending poisoned") -= 1;
                // A panicking job must not kill the worker: the pool is
                // fixed-size and never respawns, so an unwinding closure
                // would permanently shrink the daemon's capacity.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let pending = shared.pending.lock().expect("pending poisoned");
                if *pending == 0 {
                    // Timed wait so a missed notification can never hang a
                    // worker across a shutdown.
                    let _unused = shared
                        .signal
                        .wait_timeout(pending, Duration::from_millis(20))
                        .expect("pending poisoned");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn runs_every_job_exactly_once() {
        let scheduler = Scheduler::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for i in 0..200u64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            scheduler.spawn(move || {
                counter.fetch_add(i, Ordering::Relaxed);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..200 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), (0..200).sum::<u64>());
    }

    #[test]
    fn one_slow_job_does_not_strand_the_rest() {
        // With 2 workers and a long job enqueued first, the other worker
        // must steal through the backlog while the long job runs.
        let scheduler = Scheduler::new(2);
        let (tx, rx) = mpsc::channel();
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        {
            let gate = Arc::clone(&gate);
            let tx = tx.clone();
            scheduler.spawn(move || {
                let _wait = gate.lock().unwrap();
                tx.send("slow").unwrap();
            });
        }
        for _ in 0..20 {
            let tx = tx.clone();
            scheduler.spawn(move || tx.send("fast").unwrap());
        }
        for _ in 0..20 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), "fast");
        }
        drop(hold);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), "slow");
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let scheduler = Scheduler::new(1); // one worker: a dead worker hangs everything
        let (tx, rx) = mpsc::channel();
        scheduler.spawn(|| panic!("job exploded"));
        for _ in 0..5 {
            let tx = tx.clone();
            scheduler.spawn(move || tx.send(()).unwrap());
        }
        for _ in 0..5 {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("worker must survive the panicking job");
        }
    }

    /// Every job is counted up before any worker can pop it, so once all
    /// jobs have run the counter is back at zero and idle workers sleep
    /// instead of rescanning empty deques.
    #[test]
    fn pending_returns_to_zero_after_many_single_spawns() {
        let scheduler = Scheduler::new(2);
        let (tx, rx) = mpsc::channel();
        let jobs = 100_000;
        for _ in 0..jobs {
            let tx = tx.clone();
            scheduler.spawn(move || tx.send(()).unwrap());
        }
        for _ in 0..jobs {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let pending = *scheduler.shared.pending.lock().unwrap();
        assert_eq!(pending, 0, "pending drifted with every deque empty");
    }

    #[test]
    fn drop_joins_workers_without_pending_work() {
        let scheduler = Scheduler::new(3);
        assert_eq!(scheduler.worker_count(), 3);
        drop(scheduler); // must not hang
    }
}
