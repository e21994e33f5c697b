//! The Lamellae layer (paper Sec. III-A).
//!
//! "At the base of the stack is the abstraction for communicating with
//! network interfaces, called the Lamellae Trait. ... The Lamellae Trait is
//! the interface between the runtime and network interfaces via functions
//! for: (de)initialization; getting PE ids and the number of PEs in the
//! world; and (de)allocating Memory Regions. The Trait defines the functions
//! for performing remote put/get transfers, and synchronization primitives."
//!
//! Three implementors mirror the paper's:
//!
//! | paper            | here                                   |
//! |------------------|----------------------------------------|
//! | `ROFI_Lamellae`  | [`FabricLamellae`] with the cost model |
//! | `Shmem` Lamellae | [`FabricLamellae`] without the model   |
//! | `SMP` Lamellae   | [`SmpLamellae`] (1 PE, loopback)       |
//!
//! The Shmem lamellae deliberately "implements all the same internal data
//! structures as the ROFI Lamellae" — in this reproduction they literally
//! share the implementation, differing only in whether transfers are charged
//! network costs.

pub mod fabric_backend;
pub mod queue;
pub mod smp;

pub use fabric_backend::FabricLamellae;
pub use smp::SmpLamellae;

use crate::config::Backend;
use lamellar_metrics::{FabricStats, FaultStats, LamellaeStats};

/// A communication failure surfaced by a fallible lamellae operation
/// ([`Lamellae::send_with`], [`Lamellae::alloc_heap`],
/// [`Lamellae::alloc_symmetric`]), so the runtime can degrade gracefully —
/// resolve an AM future to `Err` instead of hanging, shed load instead of
/// aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A heap or symmetric allocation could not be satisfied (genuine
    /// exhaustion, or an armed fault plane failing it artificially).
    AllocFailed {
        /// Bytes the caller asked for.
        requested: usize,
        /// Bytes the allocator had free at the time.
        available: usize,
    },
    /// Retries toward `pe` were exhausted by the reliable-delivery layer;
    /// the pair is dead for the rest of the world's lifetime and queued
    /// traffic toward it has been discarded.
    PeerUnreachable {
        /// The unreachable destination PE.
        pe: usize,
    },
    /// A single framed message exceeded the wire-chunk capacity (large
    /// payloads must take the heap-staging path instead).
    MessageTooLarge {
        /// The framed message length.
        len: usize,
        /// The largest single message the wire can carry.
        max: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::AllocFailed { requested, available } => {
                write!(f, "allocation failed: requested {requested} bytes, {available} free")
            }
            CommError::PeerUnreachable { pe } => {
                write!(f, "PE {pe} unreachable: delivery retries exhausted")
            }
            CommError::MessageTooLarge { len, max } => {
                write!(f, "message of {len} bytes exceeds wire buffer capacity of {max}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Reliable-delivery window state for one destination PE — the per-pair
/// diagnostic the liveness watchdog dumps when a wait stalls. All fields
/// are a point-in-time sample; on the loss-free fast path (no fault plane)
/// the sequence fields stay at their construction values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairLiveness {
    /// Destination PE this entry describes.
    pub dst: usize,
    /// Chunks sealed (or aggregating) but not yet on the wire.
    pub queued: usize,
    /// Chunks transmitted but not covered by the destination's cumulative
    /// ack (the go-back-N in-flight window).
    pub unacked: usize,
    /// Sequence number of the oldest unacked chunk, if any — the chunk a
    /// stalled pair is stuck on.
    pub oldest_unacked_seq: Option<u64>,
    /// Next sequence number this PE will stamp toward `dst`.
    pub next_seq: u64,
    /// Consecutive ack-free retransmit rounds (fatal at the transport's
    /// retry-round limit).
    pub stalled_rounds: u32,
    /// The pair has been declared dead (retries exhausted).
    pub dead: bool,
}

impl std::fmt::Display for PairLiveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dst={} queued={} unacked={} oldest_seq={} next_seq={} stalled_rounds={}{}",
            self.dst,
            self.queued,
            self.unacked,
            self.oldest_unacked_seq.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
            self.next_seq,
            self.stalled_rounds,
            if self.dead { " DEAD" } else { "" }
        )
    }
}

/// The interface between the runtime and a network backend.
///
/// All message-queue operations deal in *framed envelope bytes* (see
/// [`crate::proto`]); the Lamellae neither parses nor interprets them —
/// "treating messages as a sequence of bytes, without interpreting their
/// content" (Sec. III-A.1).
pub trait Lamellae: Send + Sync + 'static {
    /// This PE's id.
    fn my_pe(&self) -> usize;

    /// Number of PEs in the world.
    fn num_pes(&self) -> usize;

    /// Which backend this is.
    fn backend(&self) -> Backend;

    /// Enqueue one framed message for `dst`, aggregating with other
    /// messages headed there until the aggregation threshold is reached.
    /// Zero-copy: `fill` encodes exactly `len` framed bytes straight into
    /// the destination's aggregation buffer.
    ///
    /// # Errors
    /// [`CommError::MessageTooLarge`] when `len` exceeds the wire-chunk
    /// capacity; [`CommError::PeerUnreachable`] when the reliable-delivery
    /// layer has declared `dst` dead. Either way nothing is queued.
    fn send_with(
        &self,
        dst: usize,
        len: usize,
        fill: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), CommError>;

    /// Push every partially-filled aggregation buffer to the wire.
    fn flush(&self);

    /// Drain incoming messages, handing each `(src, envelope bytes)` chunk
    /// to `sink` as a borrowed slice of a transport-owned (typically pooled)
    /// receive buffer — valid only for the duration of the call; the
    /// runtime parses envelopes in place and copies only what must outlive
    /// the tick. Returns true if any message was delivered. Reentrant calls
    /// are no-ops (one ticker at a time), so the progress thread, barrier
    /// waiters, and `block_on` helpers can all pump without coordination.
    fn progress(&self, sink: &mut dyn FnMut(usize, &[u8])) -> bool;

    /// Collective barrier over the world, servicing `progress` while
    /// waiting (a blocked PE must keep executing AMs sent to it).
    fn barrier_with(&self, progress: &mut dyn FnMut());

    /// Allocate `size` bytes in the symmetric region. The returned offset
    /// is valid on every PE. Callers coordinate collectively (root
    /// allocates, broadcasts via [`Lamellae::oob_put`]).
    ///
    /// # Errors
    /// [`CommError::AllocFailed`] when the symmetric region cannot satisfy
    /// the request. A *collective* symmetric allocation failing on one PE
    /// but not others has no consensus protocol — callers treating this as
    /// recoverable must coordinate the outcome themselves.
    fn alloc_symmetric(&self, size: usize, align: usize) -> Result<usize, CommError>;

    /// Release a symmetric allocation (exactly once per allocation,
    /// coordinated by the Darc destruction protocol).
    fn free_symmetric(&self, offset: usize);

    /// Allocate `size` bytes from this PE's one-sided dynamic heap.
    ///
    /// # Errors
    /// [`CommError::AllocFailed`] when the heap cannot satisfy the request
    /// (genuine exhaustion, or an armed fault plane failing it).
    fn alloc_heap(&self, size: usize, align: usize) -> Result<usize, CommError>;

    /// Release a one-sided heap allocation on `pe`.
    fn free_heap(&self, pe: usize, offset: usize);

    /// One-sided RDMA write of `src` into `pe`'s memory at `offset`.
    ///
    /// # Safety
    /// No PE may concurrently access the destination range; the range must
    /// be a live allocation.
    unsafe fn put(&self, pe: usize, offset: usize, src: &[u8]);

    /// One-sided RDMA read from `pe`'s memory at `offset`.
    ///
    /// # Safety
    /// No PE may concurrently write the source range; the range must be a
    /// live allocation.
    unsafe fn get(&self, pe: usize, offset: usize, dst: &mut [u8]);

    /// Base pointer of `pe`'s memory region (for constructing local slices
    /// in the array layer; only the local PE's pointer may be dereferenced
    /// safely by higher layers).
    fn base_ptr(&self, pe: usize) -> *mut u8;

    /// Out-of-band bootstrap exchange (collective-allocation broadcasts).
    fn oob_put(&self, tag: u64, val: u64);

    /// Blocking out-of-band read.
    fn oob_get(&self, tag: u64) -> u64;

    /// Remove an out-of-band value.
    fn oob_remove(&self, tag: u64);

    /// Failure injection (tests): stall every progress tick by `ns`
    /// nanoseconds. Default no-op for backends without the hook.
    fn inject_progress_delay(&self, _ns: u64) {}

    /// Bytes currently allocated in this PE's one-sided heap — zero once
    /// every LargeRequest/FreeHeap staging handshake has completed.
    /// Backends without heap accounting return 0.
    fn heap_in_use(&self) -> usize {
        0
    }

    /// Typed snapshot of the fabric-layer counters (puts/gets, bytes,
    /// inject vs. rendezvous split, barrier rounds). Fabric counters are
    /// fabric-global: they include every PE's transfers. Backends without a
    /// fabric (SMP loopback) return zeros.
    fn fabric_stats(&self) -> FabricStats {
        FabricStats::default()
    }

    /// Typed snapshot of this PE's lamellae-layer counters (messages,
    /// serialized bytes, aggregation-buffer flushes, wire park/retry
    /// counts). Backends without wire queues return zeros.
    fn lamellae_stats(&self) -> LamellaeStats {
        LamellaeStats::default()
    }

    /// Drain the list of destination PEs newly declared unreachable by the
    /// reliable-delivery layer (each PE is reported exactly once). The
    /// runtime polls this from its progress tick to fail pending AM
    /// futures. Backends without delivery tracking return an empty list.
    fn take_comm_failures(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Typed snapshot of the fault-injection counters (what the injector
    /// did to the traffic). All-zero when no fault plane is armed or the
    /// backend has none.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Per-destination delivery-window diagnostics (queued/unacked chunk
    /// counts, stuck sequence numbers, dead pairs) — consumed by the
    /// liveness watchdog's stall dump. Backends without per-pair queues
    /// (SMP loopback) return an empty list.
    fn pair_liveness(&self) -> Vec<PairLiveness> {
        Vec::new()
    }
}
