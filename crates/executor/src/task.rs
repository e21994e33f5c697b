//! Task representation and join handles.

use crate::oneshot::OneshotReceiver;
use crate::pool::PoolInner;
use parking_lot::Mutex;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

pub(crate) type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// A spawned unit of work: a boxed future plus its scheduling state.
pub(crate) struct Task {
    /// The future, present while the task is alive. The lock is held for the
    /// duration of a poll, so a concurrent wake that requeues the task will
    /// serialize behind the running poll.
    future: Mutex<Option<BoxFuture>>,
    /// True while the task sits in some queue; prevents duplicate enqueues.
    queued: AtomicBool,
    /// The pool the task requeues itself on when woken.
    pool: Weak<PoolInner>,
}

impl Task {
    pub(crate) fn new(future: BoxFuture, pool: Weak<PoolInner>) -> Arc<Self> {
        Arc::new(Task { future: Mutex::new(Some(future)), queued: AtomicBool::new(false), pool })
    }

    /// Try to mark the task queued; returns true if the caller should
    /// actually enqueue it.
    pub(crate) fn transition_to_queued(&self) -> bool {
        !self.queued.swap(true, Ordering::AcqRel)
    }

    /// Run the task once: poll its future. Completed tasks drop their future
    /// and notify the pool for `wait_all` accounting.
    pub(crate) fn run(self: Arc<Self>) {
        // Clear queued *before* polling so wakes arriving during the poll
        // requeue the task rather than being lost.
        self.queued.store(false, Ordering::Release);
        let mut slot = self.future.lock();
        let Some(fut) = slot.as_mut() else {
            return; // already completed (spurious wake)
        };
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        // Contain panics: a panicking AM/task must neither kill the worker
        // thread nor strand the `wait_all` accounting. The task is treated
        // as finished; its JoinHandle observes the dropped result sender.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        match result {
            Ok(Poll::Pending) => {}
            Ok(Poll::Ready(())) | Err(_) => {
                *slot = None;
                drop(slot);
                if let Some(pool) = self.pool.upgrade() {
                    pool.task_finished();
                }
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if self.transition_to_queued() {
            if let Some(pool) = self.pool.upgrade() {
                pool.schedule(self);
            }
        }
    }
}

/// Handle to a spawned task's result.
///
/// Awaiting it yields the task's output. Dropping it detaches the task (it
/// keeps running), matching the semantics of Lamellar AM handles — the
/// runtime tracks completion separately for `wait_all()`.
pub struct JoinHandle<T> {
    pub(crate) rx: OneshotReceiver<T>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Some(v)) => Poll::Ready(v),
            // The task panicked or its pool was torn down mid-flight; there
            // is no value to produce, and like `std::thread::join` on a
            // panicked thread this is a programming error at the await site.
            Poll::Ready(None) => panic!("task dropped without completing (panicked task?)"),
            Poll::Pending => Poll::Pending,
        }
    }
}

impl<T> JoinHandle<T> {
    /// Non-blocking probe for the result.
    pub fn try_take(&self) -> Option<T> {
        self.rx.try_recv()
    }
}
