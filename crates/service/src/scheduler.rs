//! The daemon's job queue: a fixed pool of worker threads draining one
//! FIFO.
//!
//! The daemon's unit of work is one job closure (resolve graph → run the
//! algorithm's entry point → account quality, or one session
//! operation). Jobs take milliseconds, so one `Mutex<VecDeque>` and one
//! `Condvar` are all the coordination the pool needs: [`Scheduler::spawn`]
//! pushes to the back and wakes one worker, and a worker pops from the
//! front and sleeps, without a timeout, while the queue is empty. Jobs
//! therefore start in submission order.
//!
//! Determinism note: workers reorder *completion*, never results —
//! callers tag jobs with their batch index and reassemble in order, so
//! the response stream is byte-identical at any worker count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue and the shutdown flag share one lock, so a worker checks
/// both under the lock it sleeps on and cannot miss the wakeup for either.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

/// A fixed pool of worker threads draining one FIFO job queue.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `workers` threads (minimum 1) and ticks `spawned` once per
    /// thread. The server threads its global spawn counter through here
    /// so the zero-per-connection-threads property is testable: the
    /// counter must stay flat however many connections arrive.
    pub(crate) fn new(workers: usize, spawned: &AtomicU64) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|id| {
                let shared = Arc::clone(&shared);
                spawned.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("arbodomd-worker-{id}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { shared, workers }
    }

    /// Number of worker threads.
    pub(crate) fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one job at the back of the queue and wakes one worker.
    pub(crate) fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared
            .queue
            .lock()
            .expect("scheduler queue poisoned")
            .jobs
            .push_back(Box::new(job));
        self.shared.ready.notify_one();
    }
}

impl Drop for Scheduler {
    /// Runs every job still queued, then joins the workers.
    fn drop(&mut self) {
        // Every update under this lock leaves the queue valid, so a
        // poisoned guard is safe to use, and `drop` must not panic.
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("scheduler queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.ready.wait(queue).expect("scheduler queue poisoned");
            }
        };
        // A panicking job must not kill the worker: the pool is
        // fixed-size and never respawns, so an unwinding closure would
        // permanently shrink the daemon's capacity.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;
    use std::sync::mpsc;
    use std::time::Duration;

    fn pool(workers: usize) -> Scheduler {
        Scheduler::new(workers, &AtomicU64::new(0))
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let scheduler = pool(4);
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
        // must drain the backlog while the long job runs.
        let scheduler = pool(2);
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
        let scheduler = pool(1); // one worker: a dead worker hangs everything
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

    #[test]
    fn many_single_spawns_run_once_each_and_leave_the_queue_empty() {
        let scheduler = pool(2);
        let jobs = 100_000;
        let runs: Arc<Vec<AtomicU8>> = Arc::new((0..jobs).map(|_| AtomicU8::new(0)).collect());
        let (tx, rx) = mpsc::channel();
        for i in 0..jobs {
            let runs = Arc::clone(&runs);
            let tx = tx.clone();
            scheduler.spawn(move || {
                runs[i].fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..jobs {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert!(scheduler.shared.queue.lock().unwrap().jobs.is_empty());
        drop(scheduler); // joins the workers: no job can still be running
        assert!(rx.try_recv().is_err(), "a job reported twice");
        let counts: Vec<u8> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        assert!(counts.iter().all(|&c| c == 1), "a job ran other than once");
    }

    /// With both workers parked on gated jobs, one opened gate leaves one
    /// worker to take the whole backlog: it must start the jobs in the
    /// order they were queued.
    #[test]
    fn jobs_start_in_submission_order() {
        let scheduler = pool(2);
        let (parked_tx, parked_rx) = mpsc::channel();
        let mut gates = Vec::new();
        for _ in 0..2 {
            let (gate_tx, gate_rx) = mpsc::channel::<()>();
            let parked_tx = parked_tx.clone();
            scheduler.spawn(move || {
                parked_tx.send(()).unwrap();
                // Also returns when the sender drops, so a failing
                // assertion below cannot hang the scheduler's drop.
                let _ = gate_rx.recv();
            });
            gates.push(gate_tx);
        }
        for _ in 0..2 {
            parked_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let started = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done_rx) = mpsc::channel();
        for i in 0..20 {
            let started = Arc::clone(&started);
            let done_tx = done_tx.clone();
            scheduler.spawn(move || {
                started.lock().unwrap().push(i);
                done_tx.send(()).unwrap();
            });
        }
        gates[0].send(()).unwrap();
        for _ in 0..20 {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(*started.lock().unwrap(), (0..20).collect::<Vec<_>>());
        gates[1].send(()).unwrap();
    }

    /// The server's shutdown path relies on `Drop` finishing the queue:
    /// jobs still queued when the drop begins must all run before it
    /// returns.
    #[test]
    fn drop_runs_every_queued_job_before_returning() {
        let scheduler = pool(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        scheduler.spawn(move || {
            let _ = gate_rx.recv();
        });
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            scheduler.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Open the gate only once the drop has flagged shutdown, so the
        // ten jobs are still queued when it begins.
        let shared = Arc::clone(&scheduler.shared);
        let opener = std::thread::spawn(move || {
            while !shared.queue.lock().unwrap().shutdown {
                std::thread::sleep(Duration::from_millis(1));
            }
            gate_tx.send(()).unwrap();
        });
        drop(scheduler);
        assert_eq!(ran.load(Ordering::SeqCst), 10);
        opener.join().unwrap();
    }

    #[test]
    fn drop_joins_workers_without_pending_work() {
        let scheduler = pool(3);
        assert_eq!(scheduler.worker_count(), 3);
        drop(scheduler); // must not hang
    }
}
