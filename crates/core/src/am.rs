//! The Active Message layer (paper Sec. III-C).
//!
//! An AM "contains both data ... and metadata that indicates how to process
//! this data when it arrives at its destination". In Lamellar an AM is a
//! struct implementing [`LamellarAm`]: its fields are the data (serialized
//! by [`Codec`]), and `exec` is the computation, run asynchronously on the
//! destination PE's thread pool.
//!
//! The paper exposes AMs through the `#[AmData]` and `#[am]` procedural
//! macros; this reproduction's [`am!`](crate::am!) declarative macro plays the same
//! role (see [`lamellar_codec::impl_codec!`] for why no proc-macros). Like
//! the paper's macro, it "assigns each AM a unique identifier which is
//! registered in a runtime lookup table, enabling AMs to properly
//! deserialize and execute on remote PEs" — the identifier is the FNV-1a
//! hash of the type name, and registration happens transparently on first
//! launch (all simulated PEs share the process, hence the registry).

use crate::lamellae::CommError;
pub use crate::runtime::AmContext;
use crate::runtime::RuntimeInner;
use lamellar_codec::{typeid::type_hash_of, Codec, CodecError};
use lamellar_executor::{ExpBackoff, OneshotReceiver};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{OnceLock, Weak};
use std::task::{Context, Poll};
use std::time::Duration;

/// A user-defined Active Message.
///
/// Trait bounds mirror the paper's: "(de)serialization, safe referencing
/// from multiple threads (Sync), and safety to send from one thread to
/// another (Send)".
pub trait LamellarAm: Codec + Send + Sync + 'static {
    /// Data returned to the launching PE ("Lamellar supports returning both
    /// 'normal' data ... and AMs"; returning an AM is expressed by making
    /// `Output` an AM type and launching it from the caller).
    type Output: Codec + Send + Sync + 'static;

    /// The computation performed on the destination PE. Async: AMs are
    /// asynchronous tasks on the destination's thread pool.
    fn exec(self, ctx: AmContext) -> impl Future<Output = Self::Output> + Send;
}

/// Adapter that discards an AM's output, making any AM eligible for the
/// fire-and-forget unit path (DESIGN.md §4d): `UnitAm(am)` has
/// `Output = ()`, so `exec_unit_am_pe` can ship it with reply elision. The
/// wire payload is byte-identical to the inner AM's (the adapter adds
/// nothing), but the type registers under its own AM id so the serving PE
/// knows not to encode a result. The array batch layer uses this to route
/// non-fetching batches through counted completions.
pub struct UnitAm<A>(pub A);

impl<A: LamellarAm> Codec for UnitAm<A> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf)
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
    fn decode(r: &mut lamellar_codec::Reader<'_>) -> Result<Self, CodecError> {
        Ok(UnitAm(A::decode(r)?))
    }
}

impl<A: LamellarAm> LamellarAm for UnitAm<A> {
    type Output = ();
    async fn exec(self, ctx: AmContext) {
        let _ = self.0.exec(ctx).await;
    }
}

/// An AM's typed output, erased so the runtime can size it and encode it
/// later, straight into the reply frame.
///
/// Blanket-implemented for every `Codec + Send` type, so
/// `Box<dyn AmOutput>` carries any `LamellarAm::Output`. Boxing a
/// zero-sized output such as `()` does not allocate, so unit AMs pay
/// nothing for the erasure.
pub trait AmOutput: Send {
    /// Exact encoded size ([`Codec::encoded_len`]).
    fn encoded_len(&self) -> usize;
    /// Append the encoding ([`Codec::encode`]).
    fn encode(&self, buf: &mut Vec<u8>);
}

impl<T: Codec + Send> AmOutput for T {
    fn encoded_len(&self) -> usize {
        Codec::encoded_len(self)
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        Codec::encode(self, buf)
    }
}

/// The running form of an inbound AM: resolves to its output, still
/// unencoded.
pub type AmFuture = Pin<Box<dyn Future<Output = Box<dyn AmOutput>> + Send + 'static>>;

/// Type-erased executor stored in the registry: decode the payload into
/// the typed AM and start it. The future yields the output as a
/// `Box<dyn AmOutput>`; the runtime encodes a tracked AM's output only
/// once, in place, when it frames the reply (a unit AM's `()` is never
/// encoded), so an output too large for the wire is dropped unencoded.
pub type ErasedExec = fn(&[u8], AmContext) -> Result<AmFuture, CodecError>;

/// One registry entry.
#[derive(Clone, Copy)]
pub struct AmVTable {
    /// Fully-qualified type name (collision diagnostics).
    pub name: &'static str,
    /// The erased decode-and-start function (see [`ErasedExec`]).
    pub exec: ErasedExec,
}

fn registry() -> &'static RwLock<HashMap<u64, AmVTable>> {
    static REGISTRY: OnceLock<RwLock<HashMap<u64, AmVTable>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

fn exec_erased<T: LamellarAm>(payload: &[u8], ctx: AmContext) -> Result<AmFuture, CodecError> {
    let am = T::from_bytes(payload)?;
    Ok(Box::pin(async move { Box::new(am.exec(ctx).await) as Box<dyn AmOutput> }))
}

/// The stable identifier for an AM type (what the paper's `#[am]` macro
/// assigns at compile time).
pub fn am_id<T: LamellarAm>() -> u64 {
    type_hash_of::<T>()
}

/// Register `T` in the runtime lookup table. Idempotent; panics on a hash
/// collision between distinct types (never observed for FNV-1a over
/// fully-qualified names, but checked regardless).
pub fn register_am<T: LamellarAm>() -> u64 {
    let id = am_id::<T>();
    let name = std::any::type_name::<T>();
    {
        let reg = registry().read();
        if let Some(existing) = reg.get(&id) {
            assert_eq!(existing.name, name, "AM type-id collision: {} vs {name}", existing.name);
            return id;
        }
    }
    registry().write().entry(id).or_insert(AmVTable { name, exec: exec_erased::<T> });
    id
}

/// Look up a registered AM by id.
pub fn lookup_am(id: u64) -> Option<AmVTable> {
    registry().read().get(&id).copied()
}

/// Why an AM request failed to produce its output.
#[derive(Debug, Clone, PartialEq)]
pub enum AmError {
    /// The AM's `exec` panicked on its destination PE; the payload is the
    /// remote panic message.
    RemotePanic {
        /// The PE the AM executed (and panicked) on.
        pe: usize,
        /// The remote panic message.
        msg: String,
    },
    /// The runtime could not deliver the request — or gave up on the
    /// destination after the reliable layer exhausted its retries. Note the
    /// inherent ambiguity of [`CommError::PeerUnreachable`]: the request
    /// may or may not have executed remotely before the pair died; only
    /// the reply is known lost.
    Comm(CommError),
    /// No reply arrived within the request's deadline (per-call
    /// [`AmOpts::deadline`] or the world default `am_deadline`), after
    /// `attempts` send attempts. Same ambiguity as `Comm`: the AM may have
    /// executed remotely — only the reply is missing. Retries therefore
    /// require the [`IdempotentAm`] opt-in.
    Timeout {
        /// Destination PE that never answered in time.
        pe: usize,
        /// Total send attempts made (1 = no retries).
        attempts: u32,
    },
    /// The caller cancelled the request through [`AmHandle::cancel`] (or a
    /// [`CancelOnDrop`] guard). The AM may still execute remotely; only the
    /// local reply slot is released.
    Cancelled,
    /// The liveness watchdog (DESIGN.md §4c) declared this PE stalled —
    /// `waited` elapsed inside `wait_all`/`barrier` with in-flight work and
    /// zero runtime progress — and its fail mode resolved the request.
    Stalled {
        /// Destination PE of the in-flight request at stall time.
        pe: usize,
        /// How long the watchdog observed zero progress before failing.
        waited: Duration,
    },
}

impl std::fmt::Display for AmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmError::RemotePanic { pe, msg } => {
                write!(f, "AM panicked on destination PE {pe}: {msg}")
            }
            AmError::Comm(e) => write!(f, "AM delivery failed: {e}"),
            AmError::Timeout { pe, attempts } => {
                write!(f, "AM to PE {pe} timed out after {attempts} attempt(s)")
            }
            AmError::Cancelled => write!(f, "AM cancelled by caller"),
            AmError::Stalled { pe, waited } => {
                write!(f, "AM to PE {pe} abandoned by the liveness watchdog after {waited:?} of zero progress")
            }
        }
    }
}

impl std::error::Error for AmError {}

/// Marker opt-in for AMs that are safe to *re-issue* on a deadline miss.
///
/// A timed-out request is ambiguous: the AM may have executed remotely with
/// only its reply lost. Re-sending such a request executes it **at least
/// once more** — so the runtime only retries AMs whose effects are
/// idempotent (safe to apply twice), which the author asserts by
/// implementing this trait. `Clone` is required so the runtime can keep a
/// copy to re-encode on each attempt (AM structs from the [`am!`](crate::am!)
/// macro already derive it).
pub trait IdempotentAm: LamellarAm + Clone {}

/// Retry schedule for [`exec_idempotent_am_pe`](crate::world::LamellarWorld::exec_idempotent_am_pe):
/// exponential backoff expressed as successively *wider deadline windows*.
/// The first window is the request's deadline; each re-issue then waits
/// `base`, `base × factor`, ... (capped at `cap`) before being declared
/// dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-issues after the initial attempt (0 = fail on first miss).
    pub max_retries: u32,
    /// Deadline window for the first re-issue.
    pub base: Duration,
    /// Multiplier applied to the window after each re-issue.
    pub factor: u32,
    /// Upper bound on the window.
    pub cap: Duration,
}

impl RetryPolicy {
    /// No retries: a deadline miss is immediately `AmError::Timeout`.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, base: Duration::ZERO, factor: 1, cap: Duration::ZERO }
    }

    /// Classic exponential backoff: up to `max_retries` re-issues with
    /// windows `base`, `base × factor`, ... capped at `cap`.
    pub fn exponential(max_retries: u32, base: Duration, factor: u32, cap: Duration) -> Self {
        RetryPolicy { max_retries, base, factor, cap }
    }

    /// The widening-window schedule as an iterator-style helper.
    pub(crate) fn schedule(&self) -> ExpBackoff {
        ExpBackoff::new(self.base, self.factor, self.cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Per-call resilience options for
/// [`exec_am_pe_with`](crate::world::LamellarWorld::exec_am_pe_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AmOpts {
    /// Response deadline for this request. `None` falls back to the world
    /// default (`WorldConfig::am_deadline`); if that is also `None` the
    /// request waits indefinitely. Deadlines apply to *remote* AMs only —
    /// local execution cannot lose a reply.
    pub deadline: Option<Duration>,
    /// Retry schedule on deadline miss. Honored only by
    /// `exec_idempotent_am_pe` (re-issuing needs the [`IdempotentAm`]
    /// assertion); `exec_am_pe_with` ignores it and resolves the first
    /// miss to `AmError::Timeout`.
    pub retry: RetryPolicy,
}

impl AmOpts {
    /// Deadline only, no retries.
    pub fn deadline(d: Duration) -> Self {
        AmOpts { deadline: Some(d), retry: RetryPolicy::none() }
    }

    /// Set the retry policy (builder-style).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }
}

/// Capability to cancel one in-flight request (held inside [`AmHandle`]).
/// Weak: cancellation after world teardown is a silent no-op.
pub(crate) struct CancelToken {
    pub(crate) rt: Weak<RuntimeInner>,
    pub(crate) req_id: u64,
}

impl CancelToken {
    /// Resolve the pending slot to `Err(AmError::Cancelled)` if the reply
    /// has not already arrived. Returns whether this call cancelled it.
    fn fire(&self) -> bool {
        self.rt.upgrade().map(|rt| rt.cancel_pending(self.req_id)).unwrap_or(false)
    }
}

/// A typed handle to one in-flight AM request.
///
/// Awaiting it yields the AM's `Output` once the destination PE has executed
/// the AM and the reply has arrived (reply payloads are decoded by the
/// runtime in a context where Darcs can resolve). If the AM panicked on its
/// destination — or the runtime declared the destination unreachable —
/// awaiting panics *here* with the failure message; the caller is the right
/// place for the error to surface (a lost reply would otherwise hang
/// `block_on`). Callers that want to handle failure instead of crashing
/// convert with [`AmHandle::fallible`]. Dropping the handle detaches: the
/// AM still runs, and `wait_all()` still accounts for it.
pub struct AmHandle<T> {
    pub(crate) rx: OneshotReceiver<Result<T, AmError>>,
    /// Cancellation capability; `None` for local-path AMs (already running
    /// on this PE's pool — there is no pending reply slot to release).
    pub(crate) cancel: Option<CancelToken>,
}

impl<T> AmHandle<T> {
    /// Convert into a handle that resolves to `Result` instead of
    /// panicking: `Err(AmError::Comm(_))` when the destination became
    /// unreachable (fault-plane worlds), `Err(AmError::RemotePanic { .. })`
    /// when the AM crashed remotely, `Err(AmError::Timeout { .. })` on a
    /// deadline miss.
    pub fn fallible(self) -> FallibleAmHandle<T> {
        FallibleAmHandle { rx: self.rx, cancel: self.cancel }
    }

    /// Cancel the request: release its pending-reply slot so `wait_all`
    /// no longer accounts for it. Returns `true` if this call cancelled it,
    /// `false` if the reply had already arrived (or the AM was local —
    /// local AMs are already executing and cannot be recalled). The remote
    /// side may still execute the AM; cancellation is a *local* disclaimer
    /// of interest, not a remote abort.
    pub fn cancel(self) -> bool {
        self.cancel.as_ref().map(CancelToken::fire).unwrap_or(false)
    }

    /// Wrap into a guard that auto-cancels on drop: if the guard is dropped
    /// before the reply arrives, the pending slot is released exactly as by
    /// [`AmHandle::cancel`]. Awaiting the guard yields `Result` like
    /// [`FallibleAmHandle`]. Plain `AmHandle` drop intentionally stays
    /// detach (fire-and-forget callers rely on `wait_all` accounting).
    pub fn cancel_on_drop(self) -> CancelOnDrop<T> {
        CancelOnDrop { rx: self.rx, cancel: self.cancel, resolved: false }
    }
}

impl<T> Future for AmHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Some(Ok(v))) => Poll::Ready(v),
            Poll::Ready(Some(Err(e))) => panic!("{e}"),
            Poll::Ready(None) => panic!("AM completed without a reply"),
            Poll::Pending => Poll::Pending,
        }
    }
}

impl<T> std::fmt::Debug for AmHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AmHandle")
    }
}

/// The `Result`-returning counterpart of [`AmHandle`], for callers that
/// treat delivery failure as data rather than a crash (see
/// [`AmHandle::fallible`]). Every future resolves, even on a severed
/// PE pair — never hangs, never panics on comm failure.
pub struct FallibleAmHandle<T> {
    rx: OneshotReceiver<Result<T, AmError>>,
    cancel: Option<CancelToken>,
}

impl<T> FallibleAmHandle<T> {
    /// Cancel the request (see [`AmHandle::cancel`]).
    pub fn cancel(self) -> bool {
        self.cancel.as_ref().map(CancelToken::fire).unwrap_or(false)
    }
}

impl<T> Future for FallibleAmHandle<T> {
    type Output = Result<T, AmError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Some(out)) => Poll::Ready(out),
            // The runtime always sends Ok or Err before dropping the
            // sender; a dropped channel is a runtime bug, not a comm fault.
            Poll::Ready(None) => panic!("AM completed without a reply"),
            Poll::Pending => Poll::Pending,
        }
    }
}

impl<T> std::fmt::Debug for FallibleAmHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FallibleAmHandle")
    }
}

/// Drop-guard wrapper around an in-flight AM (see
/// [`AmHandle::cancel_on_drop`]): dropping it unresolved cancels the
/// request so abandoned handles cannot leak pending-reply slots into
/// `wait_all`. Awaiting it yields `Result` like [`FallibleAmHandle`].
pub struct CancelOnDrop<T> {
    rx: OneshotReceiver<Result<T, AmError>>,
    cancel: Option<CancelToken>,
    resolved: bool,
}

impl<T> Future for CancelOnDrop<T> {
    type Output = Result<T, AmError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        match Pin::new(&mut this.rx).poll(cx) {
            Poll::Ready(Some(out)) => {
                this.resolved = true;
                Poll::Ready(out)
            }
            Poll::Ready(None) => panic!("AM completed without a reply"),
            Poll::Pending => Poll::Pending,
        }
    }
}

impl<T> Drop for CancelOnDrop<T> {
    fn drop(&mut self) {
        if !self.resolved {
            if let Some(token) = &self.cancel {
                token.fire();
            }
        }
    }
}

impl<T> std::fmt::Debug for CancelOnDrop<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CancelOnDrop")
    }
}

/// Handle to an `exec_am_all` broadcast: resolves to one output per PE,
/// indexed by PE id.
pub struct MultiAmHandle<T> {
    pub(crate) handles: Vec<Option<AmHandle<T>>>,
    pub(crate) results: Vec<Option<T>>,
}

impl<T> MultiAmHandle<T> {
    /// Convert into the per-PE `Result` form: resolves to one
    /// `Result<T, AmError>` per PE, so a broadcast over a world with failed
    /// or panicking members reports each PE's outcome individually instead
    /// of panicking on the first casualty.
    pub fn fallible(self) -> FallibleMultiAmHandle<T> {
        FallibleMultiAmHandle {
            handles: self.handles.into_iter().map(|h| h.map(AmHandle::fallible)).collect(),
            results: self.results.into_iter().map(|r| r.map(Ok)).collect(),
        }
    }
}

impl<T> Unpin for MultiAmHandle<T> {}

impl<T> Future for MultiAmHandle<T> {
    type Output = Vec<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut all_done = true;
        for (i, slot) in this.handles.iter_mut().enumerate() {
            if let Some(handle) = slot {
                match Pin::new(handle).poll(cx) {
                    Poll::Ready(v) => {
                        this.results[i] = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(this.results.iter_mut().map(|r| r.take().expect("result")).collect())
        } else {
            Poll::Pending
        }
    }
}

impl<T> std::fmt::Debug for MultiAmHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MultiAmHandle({} PEs)", self.handles.len())
    }
}

/// The `Result`-per-PE counterpart of [`MultiAmHandle`] (see
/// [`MultiAmHandle::fallible`]): resolves to `Vec<Result<T, AmError>>`
/// indexed by PE id, never panicking on individual-PE failure.
pub struct FallibleMultiAmHandle<T> {
    handles: Vec<Option<FallibleAmHandle<T>>>,
    results: Vec<Option<Result<T, AmError>>>,
}

impl<T> Unpin for FallibleMultiAmHandle<T> {}

impl<T> Future for FallibleMultiAmHandle<T> {
    type Output = Vec<Result<T, AmError>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut all_done = true;
        for (i, slot) in this.handles.iter_mut().enumerate() {
            if let Some(handle) = slot {
                match Pin::new(handle).poll(cx) {
                    Poll::Ready(out) => {
                        this.results[i] = Some(out);
                        *slot = None;
                    }
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(this.results.iter_mut().map(|r| r.take().expect("result")).collect())
        } else {
            Poll::Pending
        }
    }
}

impl<T> std::fmt::Debug for FallibleMultiAmHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FallibleMultiAmHandle({} PEs)", self.handles.len())
    }
}

/// Define an Active Message: struct, serialization, and `exec` body in one
/// declaration — the `macro_rules!` equivalent of the paper's
/// `#[AmData]` + `#[am]` procedural macros.
///
/// ```
/// use lamellar_core::active_messaging::prelude::*;
///
/// lamellar_core::am! {
///     /// Adds `amount` to a remote accumulator (illustrative).
///     pub struct AddAm { pub amount: usize }
///     exec(am, ctx) -> usize {
///         // runs on the destination PE
///         am.amount * (ctx.current_pe() + 1)
///     }
/// }
///
/// let out = lamellar_core::world::launch(2, |world| {
///     let h = world.exec_am_pe(1, AddAm { amount: 10 });
///     world.block_on(h)
/// });
/// assert_eq!(out, vec![20, 20]);
/// ```
#[macro_export]
macro_rules! am {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $fvis:vis $fname:ident : $fty:ty ),* $(,)?
        }
        exec($am:ident, $ctx:ident) -> $out:ty $body:block
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug)]
        $vis struct $name {
            $( $fvis $fname : $fty, )*
        }

        $crate::impl_codec!($name { $($fname),* });

        impl $crate::am::LamellarAm for $name {
            type Output = $out;
            fn exec(
                self,
                ctx: $crate::runtime::AmContext,
            ) -> impl ::std::future::Future<Output = $out> + Send {
                let $am = self;
                let $ctx = ctx;
                async move { $body }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct PingAm {
        x: u64,
    }
    crate::impl_codec!(PingAm { x });

    impl LamellarAm for PingAm {
        type Output = u64;
        async fn exec(self, _ctx: AmContext) -> u64 {
            self.x + 1
        }
    }

    #[test]
    fn registration_is_idempotent() {
        let a = register_am::<PingAm>();
        let b = register_am::<PingAm>();
        assert_eq!(a, b);
        assert!(lookup_am(a).is_some());
        assert!(lookup_am(a).unwrap().name.contains("PingAm"));
    }

    #[test]
    fn unknown_id_lookup_fails() {
        assert!(lookup_am(0xdead_beef_0bad_f00d).is_none());
    }
}
