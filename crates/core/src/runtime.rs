//! Per-PE runtime state: request tracking, dispatch, progress engine.
//!
//! One [`RuntimeInner`] exists per PE. It owns the PE's thread pool and
//! Lamellae, tracks in-flight requests for `wait_all`, and dispatches
//! incoming envelopes:
//!
//! * `Request`/`RequestUnit` → look up the AM in the registry, deserialize,
//!   execute its `exec` future (inline or on the thread pool), and report
//!   completion — a `Reply` carrying the encoded output for tracked AMs, a
//!   counted `AckCount` credit for unit AMs (paper Sec. III-C: "the
//!   communication task will create an asynchronous task to deserialize,
//!   execute and return results").
//! * `Reply` → complete the caller's pending-request entry, decoding the
//!   payload into the typed [`crate::am::AmHandle`].
//! * `LargeRequest`/`FreeHeap` → the big-payload staging handshake.
//!
//! A dedicated progress thread per PE drains the Lamellae and, when the PE
//! goes idle, seals partial aggregation buffers. Barriers and `wait_all`
//! also pump progress, so a PE blocked in a collective keeps executing AMs
//! sent to it.
//!
//! Every other waiting thread of a PE (idle workers, `block_on`,
//! `wait_all`, barriers) parks on the PE's one
//! [`Doorbell`](lamellar_executor::Doorbell), rung by whatever gives it
//! work; the progress thread polls the wire (DESIGN.md §4f).

use crate::am::{
    am_id, lookup_am, register_am, AmError, AmFuture, AmHandle, AmOpts, AmOutput, CancelToken,
    IdempotentAm, LamellarAm, MultiAmHandle, RetryPolicy,
};
use crate::config::WatchdogConfig;
use crate::lamellae::{CommError, Lamellae};
use crate::proto::{self, Envelope};
use crate::world::WorldShared;
use lamellar_codec::Codec;
use lamellar_executor::{oneshot, ExpBackoff, JoinHandle, Side, ThreadPool};
use lamellar_metrics::{AmMetrics, RuntimeStats};
use parking_lot::Mutex;
use std::any::type_name;
use std::cell::RefCell;
use std::collections::HashMap;
use std::future::Future;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Completion callback for one pending request: decodes the reply payload
/// (or carries the failure — remote panic or comm breakdown) and resolves
/// the typed handle. The payload is a slice borrowed from the transport's
/// receive buffer — the callback deserializes in place, the only copy on
/// the reply path being the typed decode itself.
type PendingReply = Box<dyn for<'a> FnOnce(Result<&'a [u8], AmError>) + Send>;

/// One in-flight remote request: its destination (so comm failures toward
/// that PE can fail it) and the completion callback.
struct Pending {
    dst: usize,
    reply: PendingReply,
}

/// Shard count for the pending-request table. Power of two so the modulo
/// compiles to a mask; 64 shards keep fetching batches (e.g. IndexGather's
/// thousands of in-flight sub-batches) from serializing insert/remove on a
/// single lock while the progress thread drains replies.
const PENDING_SHARDS: usize = 64;

/// The pending-request table, sharded by `req_id` (DESIGN.md §4d). Request
/// ids are allocated sequentially, so consecutive requests land on distinct
/// shards and the sender-side insert and the progress-side remove contend
/// only 1/64th of the time.
struct PendingTable {
    shards: [Mutex<HashMap<u64, Pending>>; PENDING_SHARDS],
}

impl PendingTable {
    fn new() -> Self {
        PendingTable { shards: std::array::from_fn(|_| Mutex::new(HashMap::new())) }
    }

    #[inline]
    fn shard(&self, req_id: u64) -> &Mutex<HashMap<u64, Pending>> {
        &self.shards[(req_id % PENDING_SHARDS as u64) as usize]
    }

    fn insert_reply(&self, req_id: u64, dst: usize, cb: PendingReply) {
        let prev = self.shard(req_id).lock().insert(req_id, Pending { dst, reply: cb });
        debug_assert!(prev.is_none(), "req_id collision");
    }

    fn remove(&self, req_id: u64) -> Option<Pending> {
        self.shard(req_id).lock().remove(&req_id)
    }

    fn contains(&self, req_id: u64) -> bool {
        self.shard(req_id).lock().contains_key(&req_id)
    }

    /// Requests in flight, counted shard by shard (not atomically across
    /// shards): a heuristic (watchdog arming), never a correctness gate.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Distinct destination PEs across every in-flight request (diagnostic).
    fn dsts(&self) -> Vec<usize> {
        let mut dsts: Vec<usize> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().values().map(|p| p.dst).collect::<Vec<_>>())
            .collect();
        dsts.sort_unstable();
        dsts.dedup();
        dsts
    }

    /// Remove every request addressed to a PE in `dead`.
    fn remove_to(&self, dead: &[usize]) -> Vec<Pending> {
        let mut victims = Vec::new();
        for shard in &self.shards {
            let mut map = shard.lock();
            let ids: Vec<u64> =
                map.iter().filter(|(_, p)| dead.contains(&p.dst)).map(|(&id, _)| id).collect();
            victims.extend(ids.iter().map(|id| map.remove(id).expect("just listed")));
        }
        victims
    }

    /// Remove every in-flight request (watchdog fail mode).
    fn drain_all(&self) -> Vec<Pending> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().drain().map(|(_, p)| p).collect::<Vec<_>>())
            .collect()
    }
}

/// Origin-side fire-and-forget accounting toward one destination PE. A
/// mutex (not two atomics) so the send-count, the cumulative-ack credit,
/// and the death-time reconciliation are mutually exclusive — otherwise a
/// `fail_pes` racing an in-flight ack could double-decrement `my_pending`.
#[derive(Default)]
struct UnitOrigin {
    /// Unit-AM requests successfully handed to the wire toward this PE.
    sent: u64,
    /// Highest cumulative completion count credited so far (from `AckCount`
    /// envelopes, or forced to `sent` when the peer is declared dead).
    acked: u64,
}

/// Inline-execution budget per progress tick: at most this many inbound AM
/// futures are polled on the progress path before the rest of the buffer
/// spills to the thread pool, bounding how long one tick can monopolize the
/// progress thread behind a large aggregation buffer.
const INLINE_BUDGET_PER_TICK: usize = 4096;

/// Largest AM payload the progress thread will execute inline. Inline
/// execution skips the pool spawn entirely (no task box, no scheduler
/// hand-off), which measurably wins for the aggregated kernels; the cap
/// keeps a near-`large_threshold` handler from monopolizing a progress
/// tick, and `INLINE_BUDGET_PER_TICK` bounds the count per tick.
const INLINE_MAX_PAYLOAD: usize = 65536;

/// Completions a serving PE accumulates per source before emitting a
/// cumulative `AckCount` mid-traffic (idle ticks flush unconditionally).
const UNIT_ACK_BATCH: u64 = 64;

/// The progress thread's sleep between idle ticks.
const WIRE_POLL: Duration = Duration::from_micros(20);

/// Deadline bookkeeping for one remote request (DESIGN.md §4c). Lives in
/// `RuntimeInner::deadlines`, checked on every progress tick. The first
/// window is the request's deadline; each re-issue (idempotent AMs only)
/// widens the window per the retry policy's exponential schedule.
struct DeadlineEntry {
    req_id: u64,
    dst: usize,
    expires: Instant,
    /// Send attempts so far (1 = the original send).
    attempts: u32,
    retries_left: u32,
    backoff: ExpBackoff,
    /// Re-encode-and-resend closure; `None` for non-idempotent AMs (a
    /// deadline miss then resolves straight to `Err(Timeout)`).
    reissue: Option<ReissueFn>,
}

/// Re-encode-and-resend closure stored per retryable deadline entry.
type ReissueFn = Box<dyn Fn(&Arc<RuntimeInner>) -> Result<(), CommError> + Send>;

/// How an inbound AM reports completion to its origin: tracked requests
/// answer with a `Reply`/`ReplyErr` for `req_id`; unit requests are
/// counted and credited in bulk by cumulative `AckCount` envelopes.
#[derive(Clone, Copy)]
enum Completion {
    Reply { req_id: u64 },
    Counted,
}

/// Adapter that converts a panicking future into `Err(panic message)`, so
/// a crashed AM produces an error reply instead of stranding its caller.
struct CatchPanic<F>(F);

impl<F: Future> Future for CatchPanic<F> {
    type Output = Result<F::Output, String>;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        // SAFETY: structural pinning of the sole field.
        let inner = unsafe { self.map_unchecked_mut(|s| &mut s.0) };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(std::task::Poll::Ready(v)) => std::task::Poll::Ready(Ok(v)),
            Ok(std::task::Poll::Pending) => std::task::Poll::Pending,
            Err(payload) => std::task::Poll::Ready(Err(panic_message(&*payload))),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-PE runtime state.
pub struct RuntimeInner {
    pe: usize,
    num_pes: usize,
    lamellae: Lamellae,
    pool: ThreadPool,
    shared: Arc<WorldShared>,
    pending: PendingTable,
    next_req: AtomicU64,
    /// AMs this PE has launched that have not yet completed (drives
    /// `wait_all`, which "blocks the calling PE until all of the AMs it
    /// launched have completed").
    my_pending: AtomicUsize,
    /// Signals the progress thread to exit.
    pub(crate) shutdown: AtomicBool,
    /// Payload size above which requests take the heap-staging path.
    large_threshold: usize,
    /// AM-layer observability: directional AM counts, replies, batch
    /// fan-out, Darc lifecycle events.
    am_metrics: Arc<AmMetrics>,
    /// World-default per-attempt response deadline for remote AMs
    /// (`WorldConfig::am_deadline`); per-call [`AmOpts`] overrides it.
    default_deadline: Option<Duration>,
    /// Armed deadlines, polled by [`RuntimeInner::check_deadlines`] on the
    /// progress path.
    deadlines: Mutex<Vec<DeadlineEntry>>,
    /// Bumped whenever the runtime makes observable progress (message
    /// handled, future resolved). The watchdog reads it to detect
    /// zero-progress intervals.
    progress_epoch: AtomicU64,
    /// Threads currently blocked in `wait_all`/`barrier` on this PE.
    waiting: AtomicUsize,
    /// Watchdog stall verdicts so far (lets `try_wait_all` detect that a
    /// stall fired during its wait).
    stall_events: AtomicU64,
    /// The most recent watchdog failure, for `try_wait_all` to report.
    last_stall: Mutex<Option<AmError>>,
    /// Serving side: cumulative count of unit-AM requests from each source
    /// PE that this PE has finished executing.
    unit_served: Vec<AtomicU64>,
    /// Serving side: the last cumulative count conveyed to each source via
    /// an `AckCount` envelope (CAS-guarded so concurrent tickers emit each
    /// credit exactly once).
    unit_ack_sent: Vec<AtomicU64>,
    /// Origin side: per-destination fire-and-forget accounting.
    unit_origin: Vec<Mutex<UnitOrigin>>,
    /// Remaining inline-execution budget for the current progress tick.
    inline_budget: AtomicUsize,
    /// Tick counter driving the periodic forced unit-ack flush.
    ack_tick: AtomicU64,
    /// Per destination: a request was appended since the last idle pass.
    issued: Vec<AtomicBool>,
    /// Heap ranges staged for `LargeRequest`s: offset → (destination,
    /// length). Only the destination's `FreeHeap` releases one.
    leases: Mutex<HashMap<u64, (usize, usize)>>,
}

thread_local! {
    static CURRENT_RT: RefCell<Vec<Arc<RuntimeInner>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with `rt` installed as the thread's current runtime — the decode
/// context Darcs and memory regions need to resolve their registry entries.
pub(crate) fn with_rt_context<R>(rt: &Arc<RuntimeInner>, f: impl FnOnce() -> R) -> R {
    CURRENT_RT.with(|c| c.borrow_mut().push(Arc::clone(rt)));
    // Pop even on panic so a panicking AM doesn't poison the stack.
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            CURRENT_RT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

/// The runtime a (de)serialization is currently executing under, if any.
pub(crate) fn current_rt() -> Option<Arc<RuntimeInner>> {
    CURRENT_RT.with(|c| c.borrow().last().cloned())
}

impl RuntimeInner {
    pub(crate) fn new(
        lamellae: Lamellae,
        pool: ThreadPool,
        shared: Arc<WorldShared>,
        large_threshold: usize,
        metrics: bool,
        default_deadline: Option<Duration>,
    ) -> Arc<Self> {
        let num_pes = lamellae.num_pes();
        Arc::new(RuntimeInner {
            pe: lamellae.my_pe(),
            num_pes,
            lamellae,
            pool,
            shared,
            pending: PendingTable::new(),
            next_req: AtomicU64::new(1),
            my_pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            large_threshold,
            am_metrics: Arc::new(AmMetrics::new(metrics)),
            default_deadline,
            deadlines: Mutex::new(Vec::new()),
            progress_epoch: AtomicU64::new(0),
            waiting: AtomicUsize::new(0),
            stall_events: AtomicU64::new(0),
            last_stall: Mutex::new(None),
            unit_served: (0..num_pes).map(|_| AtomicU64::new(0)).collect(),
            unit_ack_sent: (0..num_pes).map(|_| AtomicU64::new(0)).collect(),
            unit_origin: (0..num_pes).map(|_| Mutex::new(UnitOrigin::default())).collect(),
            inline_budget: AtomicUsize::new(0),
            ack_tick: AtomicU64::new(0),
            issued: (0..num_pes).map(|_| AtomicBool::new(false)).collect(),
            leases: Mutex::new(HashMap::new()),
        })
    }

    /// This PE's id.
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// World size.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// The Lamellae backing this PE.
    pub fn lamellae(&self) -> &Lamellae {
        &self.lamellae
    }

    /// The PE's thread pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Cross-PE shared world state.
    pub(crate) fn shared(&self) -> &Arc<WorldShared> {
        &self.shared
    }

    /// The live AM-layer metrics registry (the Darc and array layers record
    /// their lifecycle/fan-out events here).
    pub fn am_metrics(&self) -> &Arc<AmMetrics> {
        &self.am_metrics
    }

    /// Assemble a typed snapshot across every runtime layer this PE can
    /// observe. Fabric counters are fabric-global (shared across PEs);
    /// lamellae, executor, and AM counters are per-PE.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            fabric: self.lamellae.fabric_stats(),
            lamellae: self.lamellae.lamellae_stats(),
            executor: self.pool.stats(),
            am: self.am_metrics.snapshot(),
            fault: self.lamellae.fault_stats(),
        }
    }

    /// Launch `am` on `dst`, returning a typed handle to its output.
    /// Remote launches honor the world-default response deadline
    /// (`WorldConfig::am_deadline`) when one is configured.
    pub fn exec_am_pe<T: LamellarAm>(self: &Arc<Self>, dst: usize, am: T) -> AmHandle<T::Output> {
        self.exec_am_pe_inner(dst, am, None, RetryPolicy::none(), None)
    }

    /// [`RuntimeInner::exec_am_pe`] with per-call resilience options. The
    /// deadline (per-call, falling back to the world default) resolves the
    /// handle to `Err(AmError::Timeout)` if no reply arrives in time.
    /// `opts.retry` is **ignored** here: a timed-out AM may have executed
    /// remotely, so re-issuing requires the [`IdempotentAm`] assertion —
    /// use [`RuntimeInner::exec_idempotent_am_pe`].
    pub fn exec_am_pe_with<T: LamellarAm>(
        self: &Arc<Self>,
        dst: usize,
        am: T,
        opts: AmOpts,
    ) -> AmHandle<T::Output> {
        self.exec_am_pe_inner(dst, am, opts.deadline, RetryPolicy::none(), None)
    }

    /// Launch an [`IdempotentAm`] with deadline *and* retry: each deadline
    /// miss re-encodes and re-sends the AM (same request id, so a late
    /// first reply still wins and duplicates are dropped) with
    /// exponentially widening windows, until `opts.retry.max_retries` is
    /// exhausted — then `Err(AmError::Timeout)` carrying the attempt count.
    pub fn exec_idempotent_am_pe<T: IdempotentAm>(
        self: &Arc<Self>,
        dst: usize,
        am: T,
        opts: AmOpts,
    ) -> AmHandle<T::Output> {
        let copy = am.clone();
        self.exec_am_pe_inner(dst, am, opts.deadline, opts.retry, Some(copy))
    }

    /// Launch a unit-output AM fire-and-forget (DESIGN.md §4d): no oneshot,
    /// no pending-table slot, and no `Reply` envelope comes back. The launch
    /// still counts toward `my_pending`, so `wait_all`/quiet semantics are
    /// preserved — the serving PE's cumulative [`Envelope::AckCount`]
    /// credits retire it. Calls that need a deadline or retry must use the
    /// tracked [`RuntimeInner::exec_am_pe_with`] path instead.
    ///
    /// Falls back to the tracked path when the payload exceeds the
    /// heap-staging threshold.
    pub fn exec_unit_am_pe<T: LamellarAm<Output = ()>>(self: &Arc<Self>, dst: usize, am: T) {
        assert!(dst < self.num_pes, "PE {dst} out of range (world has {})", self.num_pes);
        register_am::<T>();
        if dst == self.pe {
            // No completion plumbing beyond the `my_pending` count.
            self.spawn_local(am, |_| {});
            return;
        }
        let payload_len = with_rt_context(self, || am.encoded_len());
        if payload_len > self.large_threshold {
            // Tracked fallback: the large-payload heap-staging handshake
            // needs a req_id. Dropping the handle is fine — `my_pending`
            // still tracks it.
            drop(self.exec_am_pe(dst, am));
            return;
        }
        self.am_metrics.record_unit_sent();
        self.my_pending.fetch_add(1, Ordering::AcqRel);
        // The send-count bump and the wire hand-off stay under one lock so
        // an `AckCount` (or a peer-death reconciliation) can never observe a
        // sent count that excludes a message already on the wire.
        let mut origin = self.unit_origin[dst].lock();
        if self.send_request(dst, Completion::Counted, payload_len, &am).is_ok() {
            origin.sent += 1;
        } else {
            drop(origin);
            // The request never left this PE (peer already declared dead):
            // fire-and-forget has no future to fail, so just stop counting
            // it — the tracked path's dropped handle would swallow the same
            // error unseen.
            self.retire(1);
        }
    }

    /// Total fire-and-forget launches not yet credited by an `AckCount`.
    fn unit_outstanding(&self) -> u64 {
        self.unit_origin
            .iter()
            .map(|o| {
                let o = o.lock();
                o.sent - o.acked
            })
            .sum()
    }

    /// Credit a cumulative completion count from serving PE `from`: retire
    /// `n - acked` launches from `my_pending`. Late or duplicate acks (after
    /// a peer-death reconciliation forced `acked = sent`) are no-ops.
    fn handle_ack(&self, from: usize, n: u64) {
        self.am_metrics.record_ack_received();
        let mut origin = self.unit_origin[from].lock();
        let n = n.min(origin.sent);
        if n > origin.acked {
            let delta = (n - origin.acked) as usize;
            origin.acked = n;
            drop(origin);
            self.retire(delta);
            self.note_progress();
        }
    }

    /// Serving side: piggyback a cumulative `AckCount` toward every source
    /// PE whose completed-unit count has advanced since the last one sent.
    /// Runs on every progress tick; the CAS ensures each credit is emitted
    /// exactly once even with wait_all/barrier tickers running concurrently
    /// with the progress thread. A send toward a dead peer is dropped — the
    /// origin reconciles through its own comm-failure path, mirroring how a
    /// tracked `Reply` toward a dead PE is lost.
    ///
    /// Emission is batched: while traffic is flowing (`!idle`) a credit is
    /// only sent once `UNIT_ACK_BATCH` completions have accumulated —
    /// otherwise the spinning progress thread would stream one tiny ack
    /// per handful of completions, contending the outbound queue lock with
    /// the main thread's sends. An idle tick flushes unconditionally, so
    /// an origin blocked in `wait_all` is credited within one progress
    /// iteration of the last completion.
    fn flush_unit_acks(&self, idle: bool) {
        for src in 0..self.num_pes {
            if src == self.pe {
                continue;
            }
            let served = self.unit_served[src].load(Ordering::Acquire);
            let sent = self.unit_ack_sent[src].load(Ordering::Acquire);
            if served > sent
                && (idle || served - sent >= UNIT_ACK_BATCH)
                && self.unit_ack_sent[src]
                    .compare_exchange(sent, served, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                let ack = Envelope::AckCount { n: served };
                let _ = self.lamellae.send_with(src, ack.framed_len(0), &mut |buf| ack.frame(buf));
            }
        }
    }

    fn exec_am_pe_inner<T: LamellarAm>(
        self: &Arc<Self>,
        dst: usize,
        am: T,
        deadline: Option<Duration>,
        retry: RetryPolicy,
        reissue_copy: Option<T>,
    ) -> AmHandle<T::Output> {
        assert!(dst < self.num_pes, "PE {dst} out of range (world has {})", self.num_pes);
        register_am::<T>();
        let (tx, rx) = oneshot::<Result<T::Output, AmError>>();
        if dst == self.pe {
            // Deadlines do not apply: the AM is already running here and no
            // reply can be lost.
            let pe = self.pe;
            self.spawn_local(am, move |out| {
                tx.send(out.map_err(|msg| AmError::RemotePanic { pe, msg }))
            });
            return AmHandle { rx, cancel: None };
        }
        self.my_pending.fetch_add(1, Ordering::AcqRel);
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let rt = Arc::clone(self);
        self.pending.insert_reply(
            req_id,
            dst,
            Box::new(move |result| {
                // An undecodable reply fails this future, not the ticker.
                let out = result.and_then(|bytes| {
                    with_rt_context(&rt, || T::Output::from_bytes(bytes)).map_err(|e| {
                        rt.am_metrics.record_decode_error();
                        let msg = format!("AM reply decode failed for {}: {e}", type_name::<T>());
                        AmError::RemotePanic { pe: dst, msg }
                    })
                });
                tx.send(out);
                rt.retire(1);
            }),
        );
        let payload_len = with_rt_context(self, || am.encoded_len());
        if let Err(e) = self.send_request(dst, Completion::Reply { req_id }, payload_len, &am) {
            self.fail_pending(req_id, AmError::Comm(e));
        } else if let Some(window) = deadline.or(self.default_deadline) {
            self.arm_deadline(req_id, dst, window, retry, reissue_copy);
        }
        AmHandle { rx, cancel: Some(CancelToken { rt: Arc::downgrade(self), req_id }) }
    }

    /// Local fast path shared by every launch toward this PE: no
    /// serialization (as in the paper — local AMs are placed directly into
    /// the thread pool). `done` receives the outcome (`Err` carries a caught
    /// panic's message) before the launch retires from `my_pending`.
    fn spawn_local<T: LamellarAm>(
        self: &Arc<Self>,
        am: T,
        done: impl FnOnce(Result<T::Output, String>) + Send + 'static,
    ) {
        self.am_metrics.record_local();
        self.my_pending.fetch_add(1, Ordering::AcqRel);
        let ctx = AmContext { rt: Arc::clone(self), src_pe: self.pe };
        let rt = Arc::clone(self);
        drop(self.pool.spawn(async move {
            let out = CatchPanic(am.exec(ctx)).await;
            if out.is_err() {
                rt.am_metrics.record_panic_caught();
            }
            done(out);
            rt.retire(1);
            rt.note_progress();
        }));
    }

    /// Encode `am` (`payload_len` bytes, from the side-effect-free
    /// `encoded_len`) and push it to the wire toward `dst`: a `RequestUnit`
    /// for counted completion, otherwise a `Request` under `req_id` — the
    /// heap-staging path for large payloads, the zero-copy encode-in-place
    /// path otherwise. Takes the AM by reference so deadline-driven
    /// re-issues can resend the same request (same id: duplicate replies
    /// are dropped by the `Reply` handler).
    fn send_request<T: LamellarAm>(
        self: &Arc<Self>,
        dst: usize,
        completion: Completion,
        payload_len: usize,
        am: &T,
    ) -> Result<(), CommError> {
        self.am_metrics.record_sent();
        self.issued[dst].store(true, Ordering::Relaxed);
        let am_id = am_id::<T>();
        let env = match completion {
            Completion::Counted => Envelope::RequestUnit { am_id, payload: &[] },
            Completion::Reply { req_id } if payload_len <= self.large_threshold => {
                Envelope::Request { am_id, req_id, payload: &[] }
            }
            Completion::Reply { req_id } => {
                // Stage the payload in the one-sided heap; the receiver
                // RDMA-gets it and sends FreeHeap back.
                let payload = with_rt_context(self, || am.to_bytes());
                debug_assert_eq!(payload.len(), payload_len, "encoded_len disagrees with encode");
                // On failure the request never leaves this PE: the caller
                // fails the future instead of hanging.
                let off = self.lamellae.alloc_heap(payload.len(), 8)?;
                // SAFETY: freshly allocated, private until the receiver is
                // told about it, freed only when its lease ends.
                unsafe { self.lamellae.put(self.pe, off, &payload) };
                let (heap_offset, len) = (off as u64, payload.len());
                self.leases.lock().insert(heap_offset, (dst, len));
                let env = Envelope::LargeRequest { am_id, req_id, heap_offset, len: len as u64 };
                let sent =
                    self.lamellae.send_with(dst, env.framed_len(0), &mut |buf| env.frame(buf));
                if sent.is_err() {
                    self.leases.lock().remove(&heap_offset);
                    // Freeing the allocation just made cannot fail.
                    let _ = self.lamellae.free_heap(self.pe, off);
                }
                return sent;
            }
        };
        // Zero-copy send: the AM encodes straight into the aggregation
        // buffer, no intermediate payload or frame Vec.
        let encode = |b: &mut Vec<u8>| with_rt_context(self, || am.encode(b));
        self.lamellae.send_with(dst, env.framed_len(payload_len), &mut |buf| {
            env.frame_with(buf, payload_len, encode)
        })
    }

    /// Register a deadline for an in-flight request. The first window is
    /// the request's deadline; re-issues (idempotent AMs only) use the
    /// retry policy's widening-window schedule.
    fn arm_deadline<T: LamellarAm>(
        self: &Arc<Self>,
        req_id: u64,
        dst: usize,
        window: Duration,
        retry: RetryPolicy,
        reissue_copy: Option<T>,
    ) {
        let reissue = reissue_copy.map(|am| {
            Box::new(move |rt: &Arc<RuntimeInner>| {
                let payload_len = with_rt_context(rt, || am.encoded_len());
                rt.send_request(dst, Completion::Reply { req_id }, payload_len, &am)
            }) as ReissueFn
        });
        let retries_left = if reissue.is_some() { retry.max_retries } else { 0 };
        self.deadlines.lock().push(DeadlineEntry {
            req_id,
            dst,
            expires: Instant::now() + window,
            attempts: 1,
            retries_left,
            backoff: retry.schedule(),
            reissue,
        });
    }

    /// Expire overdue deadlines: re-issue idempotent AMs with retries left,
    /// fail the rest with `Err(AmError::Timeout)`. Runs on the progress
    /// path; uses `try_lock` so concurrent tickers never serialize here.
    /// Returns true if any deadline fired.
    fn check_deadlines(self: &Arc<Self>) -> bool {
        let now = Instant::now();
        let expired: Vec<DeadlineEntry> = {
            let Some(mut deadlines) = self.deadlines.try_lock() else { return false };
            if deadlines.is_empty() {
                return false;
            }
            let mut expired = Vec::new();
            let mut i = 0;
            while i < deadlines.len() {
                if deadlines[i].expires <= now {
                    expired.push(deadlines.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            expired
        };
        let mut fired = false;
        for mut entry in expired {
            // Entry outlived its request (reply arrived, or the pair died):
            // just drop the bookkeeping.
            if !self.pending.contains(entry.req_id) {
                continue;
            }
            fired = true;
            if entry.retries_left > 0 {
                let reissue = entry.reissue.as_ref().expect("retries imply a reissue closure");
                match reissue(self) {
                    Ok(()) => {
                        self.am_metrics.record_retry();
                        entry.attempts += 1;
                        entry.retries_left -= 1;
                        entry.expires = Instant::now() + entry.backoff.next_delay();
                        self.deadlines.lock().push(entry);
                    }
                    Err(e) => {
                        // The wire itself refused (e.g. the reliable layer
                        // already declared the peer dead): no point backing
                        // off further.
                        self.fail_pending(entry.req_id, AmError::Comm(e));
                    }
                }
            } else {
                self.am_metrics.record_timeout();
                self.fail_pending(
                    entry.req_id,
                    AmError::Timeout { pe: entry.dst, attempts: entry.attempts },
                );
            }
        }
        fired
    }

    /// Cancel an in-flight request: resolve its future to
    /// `Err(AmError::Cancelled)` and release the pending-reply slot (so
    /// `wait_all` stops accounting for it). Returns false if the reply
    /// already arrived. A reply that limps home later is dropped like any
    /// duplicate.
    pub(crate) fn cancel_pending(self: &Arc<Self>, req_id: u64) -> bool {
        let Some(p) = self.pending.remove(req_id) else { return false };
        self.am_metrics.record_cancelled();
        (p.reply)(Err(AmError::Cancelled));
        self.note_progress();
        true
    }

    /// Resolve a pending request to `Err` (delivery failed before or after
    /// the wire). No-op if a reply beat the failure to it.
    fn fail_pending(&self, req_id: u64, err: AmError) {
        if let Some(p) = self.pending.remove(req_id) {
            (p.reply)(Err(err));
        }
    }

    /// Fail every pending request addressed to a PE in `dead` — called when
    /// the reliable-delivery layer reports exhausted retries. The futures
    /// resolve to [`CommError::PeerUnreachable`] instead of hanging.
    fn fail_pes(&self, dead: &[usize]) {
        // Staging buffers lent to the dead PEs will never be freed by them;
        // free them before any failed future can wake its waiter.
        self.leases.lock().retain(|&off, &mut (dst, _)| {
            let lent_to_dead = dead.contains(&dst);
            if lent_to_dead {
                let _ = self.lamellae.free_heap(self.pe, off as usize);
            }
            !lent_to_dead
        });
        let victims = self.pending.remove_to(dead);
        // Callbacks run outside the lock: they complete oneshots and may
        // wake arbitrary user code.
        for p in victims {
            (p.reply)(Err(AmError::Comm(CommError::PeerUnreachable { pe: p.dst })));
        }
        // Fire-and-forget launches toward the dead PEs will never be acked.
        let (reclaimed, _) = self.reclaim_unit_credits(dead.iter().copied());
        self.retire(reclaimed);
    }

    /// Retire `n` completed launches from `my_pending`, ringing the
    /// doorbell when that ends a `wait_all`.
    fn retire(&self, n: usize) {
        if self.my_pending.fetch_sub(n, Ordering::AcqRel) == n {
            self.lamellae.doorbell().ring(Side::Wire);
        }
    }

    /// Credit every unacked fire-and-forget launch toward `pes` now
    /// (forcing `acked = sent` also neutralizes any ack that limps home
    /// later). Returns the number reclaimed and the first PE that had
    /// unacked launches; the caller retires the count from `my_pending`.
    fn reclaim_unit_credits(&self, pes: impl Iterator<Item = usize>) -> (usize, Option<usize>) {
        let mut reclaimed = 0;
        let mut first = None;
        for pe in pes {
            let mut origin = self.unit_origin[pe].lock();
            if origin.sent > origin.acked {
                first.get_or_insert(pe);
                reclaimed += (origin.sent - origin.acked) as usize;
                origin.acked = origin.sent;
            }
        }
        (reclaimed, first)
    }

    /// Launch `am` on every PE in the world (including this one).
    pub fn exec_am_all<T: LamellarAm + Clone>(self: &Arc<Self>, am: T) -> MultiAmHandle<T::Output> {
        let handles =
            (0..self.num_pes).map(|dst| Some(self.exec_am_pe(dst, am.clone()))).collect::<Vec<_>>();
        let results = (0..self.num_pes).map(|_| None).collect();
        MultiAmHandle { handles, results }
    }

    /// Spawn a plain user future on the PE's thread pool; tracked by
    /// `wait_all` like an AM.
    pub fn spawn<F>(self: &Arc<Self>, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.my_pending.fetch_add(1, Ordering::AcqRel);
        let rt = Arc::clone(self);
        self.pool.spawn(async move {
            let out = fut.await;
            rt.retire(1);
            out
        })
    }

    /// Drive a future to completion on the calling thread, helping the
    /// thread pool while blocked. Only blocks this PE. Partial aggregation
    /// buffers are flushed first: what the future waits on may sit there.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        self.lamellae.flush();
        self.pool.block_on(fut)
    }

    /// Block until every AM and task launched by this PE has completed.
    pub fn wait_all(self: &Arc<Self>) {
        let _waiting = WaitGuard::new(self);
        self.lamellae.doorbell().wait_until(Side::Wire, || {
            self.lamellae.flush();
            if self.my_pending.load(Ordering::Acquire) == 0 {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(self.tick())
        })
    }

    /// [`RuntimeInner::wait_all`] that reports liveness-watchdog verdicts:
    /// if the watchdog's fail mode abandoned stalled work during this wait,
    /// returns `Err(AmError::Stalled { .. })` (the wait still terminates —
    /// the stalled futures were resolved to `Err`). Without a configured
    /// watchdog this is exactly `wait_all`.
    pub fn try_wait_all(self: &Arc<Self>) -> Result<(), AmError> {
        let before = self.stall_events.load(Ordering::Acquire);
        self.wait_all();
        if self.stall_events.load(Ordering::Acquire) != before {
            if let Some(stall) = self.last_stall.lock().take() {
                return Err(stall);
            }
        }
        Ok(())
    }

    /// Global synchronization across all PEs. Keeps servicing progress (and
    /// therefore incoming AMs) while waiting.
    pub fn barrier(self: &Arc<Self>) {
        let _waiting = WaitGuard::new(self);
        self.lamellae.flush();
        self.lamellae.barrier_with(&mut || self.tick());
    }

    /// One progress tick: drain incoming chunks, parsing each envelope in
    /// place out of the transport's pooled receive buffer. Also expires AM
    /// deadlines. Returns true if any message was handled or deadline
    /// fired.
    pub(crate) fn tick(self: &Arc<Self>) -> bool {
        self.inline_budget.store(INLINE_BUDGET_PER_TICK, Ordering::Relaxed);
        let rt = Arc::clone(self);
        let any = self.lamellae.progress(&mut |src, chunk| {
            for env in proto::deframe(chunk) {
                // A malformed frame loses the frame boundary: the rest of
                // the chunk is dropped with it.
                let Ok(env) = env else { return rt.am_metrics.record_decode_error() };
                rt.handle(src, env);
            }
        });
        // Piggyback counted-completion credits onto whatever flushes next
        // toward each unit-AM source (DESIGN.md §4d). A quiet tick flushes
        // partial credits so blocked origins never wait on the batch; the
        // periodic force bounds credit latency even if *unrelated* traffic
        // keeps every tick busy indefinitely.
        let force = !any || self.ack_tick.fetch_add(1, Ordering::Relaxed) % 256 == 255;
        self.flush_unit_acks(force);
        let timed = self.check_deadlines();
        // Surface reliable-delivery breakdowns: every future addressed to a
        // newly dead PE resolves to Err right here, on the progress path.
        let dead = self.lamellae.take_comm_failures();
        if !dead.is_empty() {
            self.fail_pes(&dead);
            self.note_progress();
            return true;
        }
        if any || timed {
            self.note_progress();
        }
        any || timed
    }

    /// Record observable runtime progress for the liveness watchdog.
    #[inline]
    fn note_progress(&self) {
        self.progress_epoch.fetch_add(1, Ordering::Release);
    }

    /// Dispatch one incoming envelope from `src`, the PE the transport
    /// received it from: a PE-local AM never serializes, so `src` is the
    /// origin of every request and where its completion goes. The envelope
    /// borrows from the receive buffer; data that must outlive this call
    /// (the AM future's state, the typed reply value) is produced by the
    /// typed decode, not by copying the raw bytes first.
    fn handle(self: &Arc<Self>, src: usize, env: Envelope<'_>) {
        match env {
            Envelope::Request { am_id, req_id, payload } => {
                self.dispatch(am_id, src, payload, Completion::Reply { req_id });
            }
            Envelope::RequestUnit { am_id, payload } => {
                self.dispatch(am_id, src, payload, Completion::Counted);
            }
            Envelope::AckCount { n } => self.handle_ack(src, n),
            Envelope::LargeRequest { am_id, req_id, heap_offset, len } => {
                let completion = Completion::Reply { req_id };
                match self.fetch_staged(src, heap_offset, len) {
                    Ok(payload) => {
                        // A dead origin cannot reclaim its staging buffer
                        // anyway.
                        let free = Envelope::FreeHeap { offset: heap_offset };
                        let _ = self
                            .lamellae
                            .send_with(src, free.framed_len(0), &mut |buf| free.frame(buf));
                        self.dispatch(am_id, src, &payload, completion);
                    }
                    Err(msg) => self.reject(src, completion, msg),
                }
            }
            Envelope::Reply { req_id, payload } => {
                // An absent entry is legal under faults: the request was
                // already failed as PeerUnreachable (one direction died) and
                // the reply limped home anyway. Drop it — the future has
                // resolved.
                let Some(p) = self.pending.remove(req_id) else { return };
                self.am_metrics.record_reply_received();
                (p.reply)(Ok(payload));
            }
            Envelope::ReplyErr { req_id, msg } => {
                let Some(p) = self.pending.remove(req_id) else { return };
                self.am_metrics.record_reply_received();
                (p.reply)(Err(AmError::RemotePanic { pe: p.dst, msg: msg.to_string() }));
            }
            Envelope::FreeHeap { offset } => {
                // Only the PE a range was lent to may end its lease.
                let mut leases = self.leases.lock();
                if leases.get(&offset).is_some_and(|&(dst, _)| dst == src) {
                    leases.remove(&offset);
                    let _ = self.lamellae.free_heap(self.pe, offset as usize);
                } else {
                    self.am_metrics.record_decode_error();
                }
            }
        }
    }

    /// Copy the payload `src` staged at `[offset, +len)` of its one-sided
    /// heap for a `LargeRequest`. A length no heap can hold, or a range
    /// outside `src`'s memory, is an error text, not an allocation or a
    /// panic.
    fn fetch_staged(&self, src: usize, offset: u64, len: u64) -> Result<Vec<u8>, String> {
        let heap_len = self.lamellae.heap_len();
        if len > heap_len as u64 {
            return Err(format!("staged payload of {len} bytes exceeds the {heap_len}-byte heap"));
        }
        let mut payload = vec![0u8; len as usize];
        // SAFETY: the sender staged the range for us and will not touch it
        // until our FreeHeap arrives.
        unsafe { self.lamellae.get(src, offset as usize, &mut payload) }
            .map_err(|e| format!("staged payload fetch failed: {e}"))?;
        Ok(payload)
    }

    /// Decode an inbound AM and return its (panic-guarded) erased future,
    /// or the text of the failure, naming the AM or its unregistered id.
    fn decode_am(
        self: &Arc<Self>,
        am_id: u64,
        src_pe: usize,
        payload: &[u8],
    ) -> Result<CatchPanic<AmFuture>, String> {
        self.am_metrics.record_received();
        let Some(vtable) = lookup_am(am_id) else {
            return Err(format!(
                "incoming AM with unregistered id {am_id:#x}: register_am on every PE"
            ));
        };
        let ctx = AmContext { rt: Arc::clone(self), src_pe };
        // Deserialization runs under this runtime's context so Darcs inside
        // the payload can resolve. This typed decode is the first (and only)
        // point the payload bytes leave the receive buffer.
        with_rt_context(self, || (vtable.exec)(payload, ctx))
            .map(CatchPanic)
            .map_err(|e| format!("AM payload decode failed for {}: {e}", vtable.name))
    }

    /// Claim one unit of this tick's inline-execution budget.
    #[inline]
    fn take_inline_budget(&self) -> bool {
        self.inline_budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }

    /// Is an AM with this payload size a candidate for inline execution?
    ///
    /// Payload size is the only work proxy available before decoding, and
    /// it is a good one for the aggregated kernels: a big payload means a
    /// big batch (thousands of table updates), and running those on the
    /// single progress thread would *serialize* work the pool executes in
    /// parallel — measurably losing throughput. Small payloads mean
    /// latency-bound handlers where skipping the spawn is pure win.
    #[inline]
    fn inline_eligible(&self, payload_len: usize) -> bool {
        payload_len <= INLINE_MAX_PAYLOAD && self.take_inline_budget()
    }

    /// Execute one inbound AM and report its completion to the origin.
    /// Synchronous handlers complete on the first poll, right here on the
    /// progress path (inline, within the tick's budget): no pool spawn, no
    /// task box churn, and a tracked reply is framed straight into the
    /// aggregation buffer. Anything else spills to the pool.
    ///
    /// A payload that fails to decode, or an AM id that is not registered,
    /// completes like a caught panic: a tracked request answers `ReplyErr`
    /// with the error, a unit request counts as served. It is counted in
    /// `am.decode_errors`.
    fn dispatch(
        self: &Arc<Self>,
        am_id: u64,
        src_pe: usize,
        payload: &[u8],
        completion: Completion,
    ) {
        let payload_len = payload.len();
        let mut fut = match self.decode_am(am_id, src_pe, payload) {
            Ok(fut) => fut,
            Err(msg) => return self.reject(src_pe, completion, msg),
        };
        if self.inline_eligible(payload_len) {
            if let std::task::Poll::Ready(out) = poll_once(std::pin::Pin::new(&mut fut)) {
                self.am_metrics.record_inline_exec();
                self.complete(src_pe, completion, out);
                return;
            }
        }
        self.am_metrics.record_spilled_exec();
        let rt = Arc::clone(self);
        drop(self.pool.spawn(async move {
            let out = fut.await;
            rt.complete(src_pe, completion, out);
            rt.note_progress();
            // A waiting `wait_all` or barrier sends the reply or unit-ack
            // credit now, before the progress thread's next poll.
            rt.lamellae.doorbell().ring(Side::Wire);
        }));
    }

    /// Answer a request that cannot run (undecodable or unregistered AM,
    /// unfetchable staged payload) with `msg`, counting it in
    /// `am.decode_errors`.
    fn reject(self: &Arc<Self>, src_pe: usize, completion: Completion, msg: String) {
        self.am_metrics.record_decode_error();
        self.report(src_pe, completion, Err(msg));
    }

    /// Report an executed inbound AM's outcome (`Err` carries a caught
    /// panic's message) to its origin `src_pe`, counting the panic.
    fn complete(
        self: &Arc<Self>,
        src_pe: usize,
        completion: Completion,
        out: Result<Box<dyn AmOutput>, String>,
    ) {
        if out.is_err() {
            self.am_metrics.record_panic_caught();
        }
        self.report(src_pe, completion, out);
    }

    /// Convey an inbound AM's outcome (`Err` carries a failure message) to
    /// its origin `src_pe`.
    ///
    /// * `Reply`: frame a `Reply` with the output, or a `ReplyErr` with the
    ///   failure message — the worker survives and the caller gets a typed
    ///   error instead of a stranded future. The output is sized first and
    ///   then encoded once, in place, into the aggregation buffer. An
    ///   output too large for one wire chunk is never encoded (so a Darc
    ///   inside it is never pinned); it is dropped and the caller gets a
    ///   `ReplyErr` carrying the [`CommError::MessageTooLarge`] text. A
    ///   reply toward a dead origin is dropped (its future was already
    ///   failed there).
    /// * `Counted`: bump the per-source served count;
    ///   [`RuntimeInner::flush_unit_acks`] conveys completion in bulk. A
    ///   failed unit AM still counts as served (the origin's `wait_all`
    ///   must terminate); the failure is recorded, not reported.
    fn report(
        self: &Arc<Self>,
        src_pe: usize,
        completion: Completion,
        out: Result<Box<dyn AmOutput>, String>,
    ) {
        let req_id = match completion {
            Completion::Counted => {
                self.unit_served[src_pe].fetch_add(1, Ordering::AcqRel);
                return;
            }
            Completion::Reply { req_id } => req_id,
        };
        self.am_metrics.record_reply_sent();
        let msg = match out {
            Ok(out) => {
                let len = out.encoded_len();
                let env = Envelope::Reply { req_id, payload: &[] };
                let sent = self.lamellae.send_with(src_pe, env.framed_len(len), &mut |buf| {
                    env.frame_with(buf, len, |b| with_rt_context(self, || out.encode(b)))
                });
                // Release the output (and any Darc it holds) before a
                // `ReplyErr` can reach the origin.
                drop(out);
                match sent {
                    Err(e @ CommError::MessageTooLarge { .. }) => e.to_string(),
                    _ => return,
                }
            }
            Err(msg) => msg,
        };
        let env = Envelope::ReplyErr { req_id, msg: &msg };
        let _ =
            self.lamellae.send_with(src_pe, env.framed_len(msg.len()), &mut |buf| env.frame(buf));
    }

    /// Payload size (bytes) above which AM payloads take the heap-staging
    /// path — also the runtime's aggregation threshold (the two coincide,
    /// as in the paper's Fig. 2 discussion).
    pub fn large_threshold(&self) -> usize {
        self.large_threshold
    }

    /// Number of AMs/tasks this PE has launched and not yet completed.
    pub fn pending_count(&self) -> usize {
        self.my_pending.load(Ordering::Acquire)
    }

    /// Number of outstanding *tracked* (reply-carrying) request slots on
    /// this PE. Unit AMs never allocate one — their completion is counted
    /// via cumulative acks — so a pure fire-and-forget workload reads 0.
    pub fn pending_handles(&self) -> usize {
        self.pending.len()
    }

    /// The progress engine: runs on a dedicated thread until shutdown,
    /// polling the wire every `WIRE_POLL` while ticks find nothing to do.
    /// Each idle tick is followed by an idle pass, so sub-threshold batches
    /// never stall. It polls rather than parks on the doorbell: woken per
    /// chunk, an idle round trip cost one wake-up per hop, whose latency
    /// follows where the scheduler puts the woken thread (DESIGN.md §4f).
    pub(crate) fn progress_loop(self: &Arc<Self>) {
        while !self.shutdown.load(Ordering::Acquire) {
            if !self.tick() {
                self.flush_idle();
                std::thread::sleep(WIRE_POLL);
            }
        }
    }

    /// The idle pass: seal each partial aggregation buffer but one a request
    /// was appended to since the previous pass. A thread still issuing keeps
    /// filling it, and one that stops flushes it when it blocks (`block_on`,
    /// `wait_all`, `barrier`); replies and acks go out now.
    fn flush_idle(&self) {
        for (dst, issued) in self.issued.iter().enumerate() {
            if !issued.swap(false, Ordering::Relaxed) {
                self.lamellae.flush_to(dst);
            }
        }
    }

    /// The liveness watchdog (DESIGN.md §4c): runs on a dedicated thread
    /// until shutdown, declaring a stall when this PE has been blocked in
    /// `wait_all`/`barrier` for `cfg.interval` with remote AMs in flight
    /// and zero runtime progress. On a verdict it emits a one-shot
    /// diagnostic dump; in fail mode it additionally resolves the stalled
    /// requests to `Err(AmError::Stalled)` so the wait terminates.
    ///
    /// Scope: the watchdog monitors *remote* liveness (its unit of blame is
    /// the in-flight request). A wait blocked only on local tasks, or a
    /// barrier with no requests outstanding, is never flagged.
    pub(crate) fn watchdog_loop(self: &Arc<Self>, cfg: WatchdogConfig) {
        let step = (cfg.interval / 4).max(Duration::from_millis(1));
        let mut last_epoch = self.progress_epoch.load(Ordering::Acquire);
        let mut stalled_since: Option<Instant> = None;
        let mut dumped = false;
        while !self.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(step);
            let epoch = self.progress_epoch.load(Ordering::Acquire);
            let blocked = self.waiting.load(Ordering::Acquire) > 0;
            let remote_inflight = self.pending.len() > 0 || self.unit_outstanding() > 0;
            if epoch != last_epoch || !blocked || !remote_inflight {
                last_epoch = epoch;
                stalled_since = None;
                dumped = false; // re-arm the one-shot dump once progress resumes
                continue;
            }
            let since = *stalled_since.get_or_insert_with(Instant::now);
            let waited = since.elapsed();
            if waited < cfg.interval {
                continue;
            }
            // Verdict: >= interval of zero progress while blocked with
            // remote work in flight. The event count is bumped *before*
            // pending entries are failed — the moment a failed future
            // unblocks `wait_all`, `try_wait_all` must already see both the
            // count and `last_stall`.
            self.am_metrics.record_stall();
            self.stall_events.fetch_add(1, Ordering::AcqRel);
            if !dumped {
                self.dump_stall_diagnostic(waited);
                dumped = true;
            }
            if cfg.fail {
                self.fail_all_pending_stalled(waited);
            }
            // Warn mode: re-verdict (without re-dumping) after another full
            // interval of continued silence.
            stalled_since = None;
        }
    }

    /// One-shot stall diagnostic: what this PE is waiting for and where the
    /// runtime's queues stand, printed to stderr (the watchdog's audience
    /// is a human staring at a hung job).
    fn dump_stall_diagnostic(&self, waited: Duration) {
        let count = self.pending.len();
        let dsts = self.pending.dsts();
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "[lamellar-watchdog] PE {}: zero progress for {waited:?} while blocked in wait/barrier",
            self.pe
        );
        let _ = writeln!(
            out,
            "  in-flight remote AMs: {count} (to PEs {dsts:?}); unacked unit AMs: {}; local tasks+AMs pending: {}",
            self.unit_outstanding(),
            self.my_pending.load(Ordering::Acquire)
        );
        for pair in self.lamellae.pair_liveness() {
            let _ = writeln!(out, "  pair {pair}");
        }
        let exec = self.pool.stats();
        let _ = writeln!(
            out,
            "  executor: spawned {} completed {} stolen {} queue-depth hwm {:?}",
            exec.spawned, exec.completed, exec.stolen, exec.queue_depth_hwm
        );
        eprint!("{out}");
    }

    /// Fail-mode watchdog action: resolve every pending remote request to
    /// `Err(AmError::Stalled)` and remember one representative error for
    /// `try_wait_all` to report.
    fn fail_all_pending_stalled(&self, waited: Duration) {
        let victims = self.pending.drain_all();
        // Abandon unacked fire-and-forget launches too, or a stalled
        // unit-only workload would leave `wait_all` spinning forever.
        let (reclaimed, stalled_unit_dst) = self.reclaim_unit_credits(0..self.num_pes);
        if let Some(pe) = victims.first().map(|p| p.dst).or(stalled_unit_dst) {
            *self.last_stall.lock() = Some(AmError::Stalled { pe, waited });
        }
        // Only after `last_stall` is stored: once `my_pending` drops,
        // `wait_all` may return and `try_wait_all` must see the error.
        self.retire(reclaimed);
        // Callbacks run outside the lock (they wake user code).
        for p in victims {
            (p.reply)(Err(AmError::Stalled { pe: p.dst, waited }));
        }
    }
}

/// RAII marker that this thread is blocked in `wait_all`/`barrier` — the
/// window in which the liveness watchdog is allowed to declare a stall.
/// Team barriers take one too.
pub(crate) struct WaitGuard<'a>(&'a RuntimeInner);

impl<'a> WaitGuard<'a> {
    pub(crate) fn new(rt: &'a RuntimeInner) -> Self {
        rt.waiting.fetch_add(1, Ordering::AcqRel);
        WaitGuard(rt)
    }
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.waiting.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A `Waker` that does nothing: the inline fast path polls each inbound AM
/// future exactly once on the progress path, so a wake has nowhere to go —
/// a future that returns `Pending` is handed to the thread pool, which
/// installs its own waker on the next poll (futures re-register their waker
/// every poll per the `Future` contract).
fn noop_waker() -> std::task::Waker {
    use std::task::{RawWaker, RawWakerVTable, Waker};
    fn clone(_: *const ()) -> RawWaker {
        RawWaker::new(std::ptr::null(), &VTABLE)
    }
    fn noop(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
    // SAFETY: every vtable entry is a no-op over a null data pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

/// Poll `fut` once with a no-op waker (the inline-execution probe).
fn poll_once<F: Future + Unpin>(fut: std::pin::Pin<&mut F>) -> std::task::Poll<F::Output> {
    let waker = noop_waker();
    let mut cx = std::task::Context::from_waker(&waker);
    F::poll(fut, &mut cx)
}

impl std::fmt::Debug for RuntimeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInner")
            .field("pe", &self.pe)
            .field("num_pes", &self.num_pes)
            .field("pending", &self.pending_count())
            .finish()
    }
}

/// Execution context handed to every AM's `exec` (the paper exposes the
/// same information through `lamellar::current_pe`, `lamellar::num_pes`,
/// `lamellar::world`, and `lamellar::team`).
#[derive(Clone)]
pub struct AmContext {
    pub(crate) rt: Arc<RuntimeInner>,
    pub(crate) src_pe: usize,
}

impl AmContext {
    /// The PE this AM is executing on (`lamellar::current_pe`).
    pub fn current_pe(&self) -> usize {
        self.rt.pe()
    }

    /// Total PEs in the world (`lamellar::num_pes`).
    pub fn num_pes(&self) -> usize {
        self.rt.num_pes()
    }

    /// The PE that launched this AM.
    pub fn src_pe(&self) -> usize {
        self.src_pe
    }

    /// A world handle for launching nested AMs (`lamellar::world`) — "both
    /// Lamellar::world and Lamellar::team can be used to launch new AMs
    /// from within a currently executing AM".
    pub fn world(&self) -> crate::world::LamellarWorld {
        crate::world::LamellarWorld::from_rt(Arc::clone(&self.rt))
    }
}

impl std::fmt::Debug for AmContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmContext")
            .field("current_pe", &self.current_pe())
            .field("src_pe", &self.src_pe)
            .finish()
    }
}
