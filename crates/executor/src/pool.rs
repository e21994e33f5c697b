//! The work-stealing thread pool.

use crate::oneshot::oneshot;
use crate::task::{JoinHandle, Schedule, Task};
use crossbeam_deque::{Injector, Stealer, Worker};
use lamellar_metrics::{ExecutorMetrics, ExecutorStats};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

/// Pool construction parameters.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads ("threads per PE" in the paper's runs;
    /// the best Lamellar configuration used 4).
    pub workers: usize,
    /// Ablation switch: disable per-worker deques and run every task through
    /// the shared injector queue.
    pub single_queue: bool,
    /// Prefix for worker thread names (helpful in stack traces).
    pub thread_name: String,
    /// Record spawn/complete/steal counters and per-worker queue-depth
    /// high-water marks ([`ExecutorMetrics`]).
    pub metrics: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8),
            single_queue: false,
            thread_name: "lamellar-worker".to_string(),
            metrics: true,
        }
    }
}

impl PoolConfig {
    /// A pool with exactly `n` workers.
    pub fn with_workers(n: usize) -> Self {
        PoolConfig { workers: n.max(1), ..Default::default() }
    }
}

struct PoolInner {
    injector: Injector<Arc<Task>>,
    stealers: Vec<Stealer<Arc<Task>>>,
    /// Wakeup channel for parked workers.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    shutdown: AtomicBool,
    /// Tasks spawned but not yet finished — drives `wait_all` semantics.
    outstanding: AtomicUsize,
    single_queue: bool,
    /// Identity used by worker threads to recognize their own pool.
    id: usize,
    /// Executor-layer observability (spawn/complete/steal, queue HWMs).
    metrics: Arc<ExecutorMetrics>,
}

impl Schedule for PoolInner {
    fn schedule(&self, task: Arc<Task>) {
        // If called from one of this pool's workers, push to its local deque
        // (the work-stealing fast path); otherwise use the global injector.
        let pushed_local = !self.single_queue
            && CURRENT_WORKER.with(|cw| {
                if let Some(cur) = cw.borrow().as_ref() {
                    if cur.pool_id == self.id {
                        cur.worker.push(task.clone());
                        // Guard here, not just inside the recorder: len() on the
                        // shim deque takes a lock, which the disabled path must
                        // not pay.
                        if self.metrics.enabled() {
                            self.metrics.record_queue_depth(cur.index, cur.worker.len() as u64);
                        }
                        return true;
                    }
                }
                false
            });
        if !pushed_local {
            self.injector.push(task);
        }
        self.idle_cv.notify_one();
    }

    fn task_finished(&self) {
        self.metrics.record_complete();
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

struct CurrentWorker {
    pool_id: usize,
    index: usize,
    worker: Worker<Arc<Task>>,
}

thread_local! {
    static CURRENT_WORKER: RefCell<Option<CurrentWorker>> = const { RefCell::new(None) };
}

/// A per-PE work-stealing executor.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spin up the pool.
    pub fn new(cfg: PoolConfig) -> Self {
        let workers: Vec<Worker<Arc<Task>>> =
            (0..cfg.workers).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(|w| w.stealer()).collect();
        let inner = Arc::new(PoolInner {
            injector: Injector::new(),
            stealers,
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
            single_queue: cfg.single_queue,
            id: 0, // fixed up below once the Arc address is known
            metrics: Arc::new(ExecutorMetrics::new(cfg.metrics, cfg.workers)),
        });
        // The pool id is the Arc's address — unique for the pool's lifetime.
        let id = Arc::as_ptr(&inner) as usize;
        // SAFETY-free fixup: `id` is plain data written before any worker
        // thread starts; we use an atomic-free write via Arc::get_mut.
        let inner = {
            let mut inner = inner;
            // No other Arc clones exist yet.
            Arc::get_mut(&mut inner).expect("sole owner").id = id;
            inner
        };
        let threads = workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{}-{}", cfg.thread_name, i))
                    .spawn(move || worker_loop(inner, w, i))
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { inner, threads }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Spawn a future onto the pool, returning a handle to its result.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.inner.metrics.record_spawn();
        self.inner.outstanding.fetch_add(1, Ordering::AcqRel);
        let (tx, rx) = oneshot();
        let wrapped = async move {
            tx.send(fut.await);
        };
        let task = Task::new(
            Box::pin(wrapped),
            Arc::downgrade(&self.inner) as std::sync::Weak<dyn Schedule>,
        );
        if task.transition_to_queued() {
            self.inner.schedule(task);
        }
        JoinHandle { rx }
    }

    /// Tasks spawned but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Acquire)
    }

    /// The live executor-layer metrics registry (shared with the runtime's
    /// `RuntimeStats` assembly).
    pub fn metrics(&self) -> &Arc<ExecutorMetrics> {
        &self.inner.metrics
    }

    /// Typed snapshot of the executor-layer counters.
    pub fn stats(&self) -> ExecutorStats {
        self.inner.metrics.snapshot()
    }

    /// Drive `fut` to completion on the calling thread.
    ///
    /// While pending, the caller *helps* the pool by executing queued tasks,
    /// so a `block_on` inside a saturated runtime still makes progress
    /// (Listing 1: "block_on only blocks the calling PE").
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        let signal = Arc::new(BlockOnSignal::default());
        let waker = Waker::from(Arc::clone(&signal));
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                return v;
            }
            // Help: run pool work while we wait. Re-poll as soon as either
            // our waker fired or we ran something (which may have been the
            // task we are waiting on).
            loop {
                if signal.take() {
                    break;
                }
                if !self.try_run_one_external() {
                    signal.wait_timeout(Duration::from_micros(200));
                    break;
                }
            }
        }
    }

    /// Block until every spawned task (AM, communication task, user future)
    /// has completed — the engine behind the paper's `wait_all()`.
    pub fn wait_idle(&self) {
        let mut backoff = crate::Backoff::new();
        while self.outstanding() != 0 {
            if self.try_run_one_external() {
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
    }

    /// Try to execute one task from the shared queues (used by helpers that
    /// are not workers: `block_on`, `wait_idle`, progress threads).
    fn try_run_one_external(&self) -> bool {
        // Steal from the injector first, then from workers.
        loop {
            match self.inner.injector.steal() {
                crossbeam_deque::Steal::Success(task) => {
                    task.run();
                    return true;
                }
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
        for stealer in &self.inner.stealers {
            loop {
                match stealer.steal() {
                    crossbeam_deque::Steal::Success(task) => {
                        task.run();
                        return true;
                    }
                    crossbeam_deque::Steal::Retry => continue,
                    crossbeam_deque::Steal::Empty => break,
                }
            }
        }
        false
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.idle_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.threads.len())
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

fn worker_loop(inner: Arc<PoolInner>, worker: Worker<Arc<Task>>, index: usize) {
    // Register this thread as a worker so `schedule` can use the local deque.
    CURRENT_WORKER.with(|cw| {
        *cw.borrow_mut() = Some(CurrentWorker { pool_id: inner.id, index, worker });
    });
    let run_one = |inner: &PoolInner| -> bool {
        CURRENT_WORKER.with(|cw| {
            let borrow = cw.borrow();
            let cur = borrow.as_ref().expect("worker registered");
            if let Some((task, stolen)) = find_task(inner, &cur.worker, index) {
                // Drop the borrow before running: the task may spawn (and
                // thus re-borrow the thread-local to push local work).
                drop(borrow);
                if stolen {
                    inner.metrics.record_steal();
                }
                task.run();
                true
            } else {
                false
            }
        })
    };
    loop {
        if run_one(&inner) {
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Park with a timeout: the timeout closes the race between the
        // empty-queue check and a concurrent push+notify.
        let mut guard = inner.idle_lock.lock();
        inner.idle_cv.wait_for(&mut guard, Duration::from_millis(1));
    }
    CURRENT_WORKER.with(|cw| *cw.borrow_mut() = None);
}

/// Find the next task; the boolean reports whether it was stolen from a
/// sibling worker (vs the local deque or the shared injector).
fn find_task(
    inner: &PoolInner,
    local: &Worker<Arc<Task>>,
    index: usize,
) -> Option<(Arc<Task>, bool)> {
    if let Some(t) = local.pop() {
        return Some((t, false));
    }
    // Refill from the injector (batch steal amortizes contention).
    loop {
        match inner.injector.steal_batch_and_pop(local) {
            crossbeam_deque::Steal::Success(t) => return Some((t, false)),
            crossbeam_deque::Steal::Retry => continue,
            crossbeam_deque::Steal::Empty => break,
        }
    }
    // Steal from siblings, starting after ourselves to spread contention.
    let n = inner.stealers.len();
    for k in 1..n {
        let victim = (index + k) % n;
        loop {
            match inner.stealers[victim].steal_batch_and_pop(local) {
                crossbeam_deque::Steal::Success(t) => return Some((t, true)),
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
    }
    None
}

/// Waker for `block_on`: a flag plus a condvar to park the blocked thread.
#[derive(Default)]
struct BlockOnSignal {
    fired: Mutex<bool>,
    cv: Condvar,
}

impl BlockOnSignal {
    fn take(&self) -> bool {
        std::mem::take(&mut *self.fired.lock())
    }

    fn wait_timeout(&self, dur: Duration) {
        let mut fired = self.fired.lock();
        if !*fired {
            self.cv.wait_for(&mut fired, dur);
        }
        *fired = false;
    }
}

impl Wake for BlockOnSignal {
    fn wake(self: Arc<Self>) {
        *self.fired.lock() = true;
        self.cv.notify_one();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        *self.fired.lock() = true;
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::pin::Pin;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn spawn_and_block_on_result() {
        let pool = ThreadPool::new(PoolConfig::with_workers(2));
        let h = pool.spawn(async { 21 * 2 });
        assert_eq!(pool.block_on(h), 42);
    }

    #[test]
    fn block_on_plain_future() {
        let pool = ThreadPool::new(PoolConfig::with_workers(1));
        assert_eq!(pool.block_on(async { "done" }), "done");
    }

    #[test]
    fn many_tasks_all_complete() {
        let pool = ThreadPool::new(PoolConfig::with_workers(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..1000)
            .map(|i| {
                let c = Arc::clone(&counter);
                pool.spawn(async move {
                    c.fetch_add(1, Ordering::Relaxed);
                    i
                })
            })
            .collect();
        let mut sum = 0usize;
        for h in handles {
            sum += pool.block_on(h);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(sum, (0..1000).sum());
    }

    #[test]
    fn wait_idle_drains_detached_tasks() {
        let pool = ThreadPool::new(PoolConfig::with_workers(3));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let c = Arc::clone(&counter);
            drop(pool.spawn(async move {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        // Recursive spawning exercises the local-deque push path.
        let pool = Arc::new(ThreadPool::new(PoolConfig::with_workers(4)));
        let counter = Arc::new(AtomicUsize::new(0));

        fn fanout(pool: Arc<ThreadPool>, counter: Arc<AtomicUsize>, depth: usize) {
            counter.fetch_add(1, Ordering::Relaxed);
            if depth == 0 {
                return;
            }
            for _ in 0..2 {
                let p = Arc::clone(&pool);
                let c = Arc::clone(&counter);
                let p2 = Arc::clone(&pool);
                drop(p2.spawn(async move { fanout(p, c, depth - 1) }));
            }
        }
        fanout(Arc::clone(&pool), Arc::clone(&counter), 6);
        pool.wait_idle();
        // 2^7 - 1 nodes in the spawn tree.
        assert_eq!(counter.load(Ordering::Relaxed), 127);
    }

    #[test]
    fn single_queue_mode_works() {
        let mut cfg = PoolConfig::with_workers(3);
        cfg.single_queue = true;
        let pool = ThreadPool::new(cfg);
        let h = pool.spawn(async { vec![1, 2, 3] });
        assert_eq!(pool.block_on(h), vec![1, 2, 3]);
        pool.wait_idle();
    }

    #[test]
    fn block_on_helps_when_workers_are_busy() {
        // 1 worker, occupied by a long-running task that waits on a flag
        // only set by a second task. block_on must execute the second task
        // itself to avoid deadlock.
        let pool = ThreadPool::new(PoolConfig::with_workers(1));
        let flag = Arc::new(AtomicUsize::new(0));
        let f1 = Arc::clone(&flag);
        let busy = pool.spawn(async move {
            while f1.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
                // Yield to the executor too, so this doesn't monopolize
                // the single worker in a non-preemptive runtime.
                YieldOnce::default().await;
            }
        });
        let f2 = Arc::clone(&flag);
        let setter = pool.spawn(async move {
            f2.store(1, Ordering::Release);
        });
        pool.block_on(async move {
            setter.await;
            busy.await;
        });
    }

    /// A future that returns Pending once, waking itself immediately.
    #[derive(Default)]
    struct YieldOnce {
        yielded: bool,
    }

    impl Future for YieldOnce {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.yielded {
                Poll::Ready(())
            } else {
                self.yielded = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn wakers_requeue_pending_tasks() {
        let pool = ThreadPool::new(PoolConfig::with_workers(2));
        let h = pool.spawn(async {
            for _ in 0..10 {
                YieldOnce::default().await;
            }
            "survived"
        });
        assert_eq!(pool.block_on(h), "survived");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(PoolConfig::with_workers(2));
        let h = pool.spawn(async { 1 });
        assert_eq!(pool.block_on(h), 1);
        drop(pool); // must not hang
    }

    #[test]
    fn stats_account_for_every_task() {
        let pool = ThreadPool::new(PoolConfig::with_workers(2));
        for _ in 0..100 {
            drop(pool.spawn(async {}));
        }
        pool.wait_idle();
        let stats = pool.stats();
        assert_eq!(stats.spawned, 100);
        assert_eq!(stats.queue_depth_hwm.len(), 2);
        // Each task completes exactly once, whether a worker or a helping
        // thread (block_on/wait_idle) ran it.
        assert_eq!(stats.completed, 100);
        // Steals never exceed executions.
        assert!(stats.stolen <= stats.completed);
    }

    #[test]
    fn panicked_task_does_not_kill_pool() {
        let pool = ThreadPool::new(PoolConfig::with_workers(2));
        drop(pool.spawn(async {
            panic!("task panic");
        }));
        pool.wait_idle();
        // Pool still works afterwards.
        let h = pool.spawn(async { 7 });
        assert_eq!(pool.block_on(h), 7);
    }
}
