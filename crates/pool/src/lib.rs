//! # netsmith-pool
//!
//! A persistent, workspace-shared worker pool.
//!
//! Every parallel site in the workspace — injection-rate sweeps
//! (`netsmith-sim`), multi-seed annealing (`netsmith-gen`) and
//! experiment-cell execution (`netsmith-exp`) — submits batches of
//! independent tasks here.  A quick suite run crosses those sites tens of
//! thousands of times, so spawning threads per call (and nested scopes
//! each spawning `available_parallelism` threads) would cost measurable
//! time and oversubscribe the machine.
//!
//! [`WorkerPool`] keeps one set of OS threads alive for the process
//! lifetime and coordinates work in *epochs*: every [`WorkerPool::run`]
//! call installs a batch of tasks under the pool mutex, bumps the epoch
//! counter and wakes the workers; the submitting thread then helps drain
//! the queue and finally blocks on the batch's completion barrier.
//! Because the submitter participates, nested submissions (a sweep inside
//! an experiment cell inside the suite runner) always make progress even
//! when every pool worker is busy.
//!
//! Tasks may borrow from the submitting stack frame: [`WorkerPool::run`]
//! does not return until every task of the batch has completed (panics
//! included), which is exactly the guarantee `std::thread::scope`
//! provides, so the lifetime erasure performed internally is sound.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// A type-erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Cumulative activity counters of a pool since its creation, read with
/// [`WorkerPool::stats`].  The pool keeps these itself (plain relaxed
/// atomics, no dependencies) so callers — the experiment CLI publishes
/// them as `pool.*` obs counters — can snapshot activity without wrapping
/// every submission site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Batches submitted through [`WorkerPool::run`].
    pub batches: u64,
    /// Tasks across all batches.
    pub tasks: u64,
    /// Total microseconds tasks spent queued before starting to run.
    pub queue_wait_us: u64,
}

#[derive(Default)]
struct StatCells {
    batches: AtomicU64,
    tasks: AtomicU64,
    queue_wait_us: AtomicU64,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when new work arrives (a new epoch) or on shutdown.
    work_ready: Condvar,
    stats: StatCells,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Monotonic batch counter; purely diagnostic, but it is the "epoch"
    /// the workers observe to distinguish spurious wakeups from real work.
    epoch: u64,
    shutdown: bool,
}

/// Completion barrier for one submitted batch.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload observed while running this batch's tasks.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(size: usize) -> Arc<Self> {
        Arc::new(Batch {
            remaining: Mutex::new(size),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    fn task_finished(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// A persistent pool of worker threads shared by sweeps, annealing and the
/// experiment runner.  See the crate docs for the coordination model.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Spawn a pool with `threads` persistent workers.  `threads == 0` is
    /// allowed: every batch then runs entirely on the submitting thread
    /// (useful for deterministic single-threaded debugging).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                epoch: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            stats: StatCells::default(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("netsmith-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
        }
    }

    /// The process-wide shared pool, sized to the machine (spawned on
    /// first use).  All workspace parallel sites submit here so the
    /// process never oversubscribes the CPU with nested thread scopes.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::new(threads)
        })
    }

    /// Number of persistent worker threads (the submitting thread adds one
    /// more unit of parallelism while a batch is in flight).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the pool's cumulative activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            batches: self.shared.stats.batches.load(Ordering::Relaxed),
            tasks: self.shared.stats.tasks.load(Ordering::Relaxed),
            queue_wait_us: self.shared.stats.queue_wait_us.load(Ordering::Relaxed),
        }
    }

    /// Run a batch of tasks to completion and return their results in
    /// submission order.  Blocks until every task has finished; if any
    /// task panicked, the first panic is resumed on the submitting thread
    /// (after the whole batch has still run to completion, so borrowed
    /// data is never observed by a still-running task after `run`
    /// returns).
    ///
    /// Tasks may borrow from the caller's stack frame (`'env`), exactly
    /// like `std::thread::scope` closures.
    pub fn run<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let size = tasks.len();
        if size == 0 {
            return Vec::new();
        }
        let mut results: Vec<Option<T>> = Vec::with_capacity(size);
        results.resize_with(size, || None);
        let batch = Batch::new(size);

        self.shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.shared
            .stats
            .tasks
            .fetch_add(size as u64, Ordering::Relaxed);
        let enqueued = Instant::now();
        {
            let mut queue = self.shared.queue.lock().unwrap();
            for (slot, task) in results.iter_mut().zip(tasks) {
                // Each job writes to a distinct, caller-owned slot.  The
                // raw pointer (and the task's borrows) stay valid because
                // this function does not return before the barrier below
                // observes `remaining == 0`.
                let slot = SendPtr(slot as *mut Option<T>);
                let batch = Arc::clone(&batch);
                let shared = Arc::clone(&self.shared);
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    shared.stats.queue_wait_us.fetch_add(
                        enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64,
                        Ordering::Relaxed,
                    );
                    let outcome = catch_unwind(AssertUnwindSafe(task));
                    match outcome {
                        // Written through the wrapper (not the raw field) so
                        // the closure captures the whole `SendPtr` and stays
                        // `Send` under 2021 disjoint field capture.
                        Ok(value) => unsafe { slot.write(Some(value)) },
                        Err(payload) => {
                            let mut first = batch.panic.lock().unwrap();
                            if first.is_none() {
                                *first = Some(payload);
                            }
                        }
                    }
                    batch.task_finished();
                });
                // SAFETY: the job only dereferences borrows from the
                // caller's frame ('env) and `run` blocks until the batch
                // barrier reports completion, so no job outlives 'env.
                let job: Job = unsafe { std::mem::transmute(job) };
                queue.jobs.push_back(job);
            }
            queue.epoch += 1;
            self.shared.work_ready.notify_all();
        }

        // Help drain the queue (our batch's jobs and, harmlessly, any
        // other in-flight batch's) until our barrier opens.  Helping is
        // what makes nested submissions deadlock-free.
        loop {
            let job = {
                let mut queue = self.shared.queue.lock().unwrap();
                queue.jobs.pop_front()
            };
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        let mut remaining = batch.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).unwrap();
        }
        drop(remaining);

        if let Some(payload) = batch.panic.lock().unwrap().take() {
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("batch task completed without a result"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared.work_ready.wait(queue).unwrap();
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// A raw pointer that may cross threads.  Soundness is argued at the one
/// construction site in [`WorkerPool::run`].
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// The pointee must be alive and not aliased by any concurrent access;
    /// `WorkerPool::run` guarantees both for its result slots.
    unsafe fn write(&self, value: T) {
        *self.0 = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<'env, T: Send + 'env>(
        fs: Vec<impl FnOnce() -> T + Send + 'env>,
    ) -> Vec<Box<dyn FnOnce() -> T + Send + 'env>> {
        fs.into_iter()
            .map(|f| Box::new(f) as Box<dyn FnOnce() -> T + Send + 'env>)
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks = (0..64).map(|i| move || i * i).collect::<Vec<_>>();
        let results = pool.run(boxed(tasks));
        assert_eq!(results, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_may_borrow_the_callers_stack() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(7).collect();
        let sums = pool.run(boxed(
            chunks
                .iter()
                .map(|chunk| move || chunk.iter().sum::<u64>())
                .collect::<Vec<_>>(),
        ));
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn zero_thread_pool_runs_on_the_submitter() {
        let pool = WorkerPool::new(0);
        let submitter = std::thread::current().id();
        let ids = pool.run(boxed(
            (0..8)
                .map(|_| move || std::thread::current().id())
                .collect::<Vec<_>>(),
        ));
        assert!(ids.iter().all(|&id| id == submitter));
    }

    #[test]
    fn nested_submissions_complete() {
        // A task submitted to the pool submits its own batch to the same
        // pool: the helping submitter guarantees progress even when the
        // batch count exceeds the worker count.
        let pool = Arc::new(WorkerPool::new(1));
        let outer: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..4)
            .map(|i: u64| {
                let pool = Arc::clone(&pool);
                Box::new(move || {
                    let inner = pool.run(boxed(
                        (0..4).map(|j: u64| move || i * 10 + j).collect::<Vec<_>>(),
                    ));
                    inner.iter().sum()
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        let sums = pool.run(outer);
        assert_eq!(sums.len(), 4);
        assert_eq!(sums[1], 10 + 11 + 12 + 13);
    }

    #[test]
    fn panics_propagate_after_the_batch_finishes() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i: usize| {
                    let completed = &completed;
                    Box::new(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "the task panic must resurface");
        // Every non-panicking task still ran: the barrier waits for the
        // whole batch before resuming the panic.
        assert_eq!(completed.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn stats_count_batches_and_tasks() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.run(boxed((0..5).map(|i| move || i).collect::<Vec<_>>()));
        pool.run(boxed((0..3).map(|i| move || i).collect::<Vec<_>>()));
        let stats = pool.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.tasks, 8);
        // Queue wait is wall-clock and may legitimately round to zero on
        // an idle pool; it only has to be finite and monotone.
        let again = pool.stats();
        assert!(again.queue_wait_us >= stats.queue_wait_us);
    }

    #[test]
    fn the_global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
        let results = a.run(boxed((0..3).map(|i| move || i + 1).collect::<Vec<_>>()));
        assert_eq!(results, vec![1, 2, 3]);
    }
}
