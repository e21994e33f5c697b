//! The Lamellae layer (paper Sec. III-A).
//!
//! "At the base of the stack is the abstraction for communicating with
//! network interfaces, called the Lamellae Trait. ... The Lamellae Trait is
//! the interface between the runtime and network interfaces via functions
//! for: (de)initialization; getting PE ids and the number of PEs in the
//! world; and (de)allocating Memory Regions. The Trait defines the functions
//! for performing remote put/get transfers, and synchronization primitives."
//!
//! The paper's trait has one concrete type here, [`Lamellae`], which
//! serves all three of the paper's backends:
//!
//! | paper            | here                                  |
//! |------------------|---------------------------------------|
//! | `ROFI_Lamellae`  | [`Lamellae`] with the cost model      |
//! | `Shmem` Lamellae | [`Lamellae`] without the model        |
//! | `SMP` Lamellae   | [`Lamellae`] over a 1-PE fabric       |
//!
//! The Shmem lamellae deliberately "implements all the same internal data
//! structures as the ROFI Lamellae" — in this reproduction they literally
//! share the implementation, differing only in whether transfers are charged
//! network costs, so "switching between the ROFI Lamellae and the Shared
//! Memory Lamellae should be transparent". The SMP lamellae needs "no
//! (de)serialization" because its one PE never messages another: the
//! runtime already runs PE-local AMs without serializing them, so its
//! queues sit idle.

pub mod queue;
pub(crate) mod reliable;

use crate::config::Backend;
use lamellar_executor::Doorbell;
use lamellar_metrics::{FabricStats, FaultStats, LamellaeStats};
use queue::QueueTransport;
use rofi_sim::{FabricError, FabricPe};
use std::sync::Arc;

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
    /// A zero-byte message: there is no frame to send.
    EmptyMessage,
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
            CommError::EmptyMessage => write!(f, "empty message: a chunk needs at least one byte"),
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
/// the sequence fields stay at a fresh reliable link's values.
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
    /// Consecutive ack-free retransmit rounds (fatal at the reliable
    /// link's `MAX_RETRY_ROUNDS`).
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

/// The interface between the runtime and the network: one concrete type
/// over a simulated-fabric endpoint and its message queues, whichever
/// [`Backend`] the world runs on.
///
/// All message-queue operations deal in *framed envelope bytes* (see
/// [`crate::proto`]); the Lamellae neither parses nor interprets them —
/// "treating messages as a sequence of bytes, without interpreting their
/// content" (Sec. III-A.1).
pub struct Lamellae {
    ep: FabricPe,
    queues: QueueTransport,
    backend: Backend,
}

impl Lamellae {
    /// Wrap a fabric endpoint. `queue_base` is the symmetric offset of the
    /// pre-allocated queue block (see [`queue::queue_footprint`]). The
    /// metrics switch and any fault plane come from the endpoint's fabric.
    pub fn new(
        ep: FabricPe,
        backend: Backend,
        queue_base: usize,
        buffer_size: usize,
        agg_threshold: usize,
    ) -> Self {
        let queues = QueueTransport::new(ep.clone(), queue_base, buffer_size, agg_threshold);
        Lamellae { ep, queues, backend }
    }

    /// This PE's id.
    pub fn my_pe(&self) -> usize {
        self.ep.pe()
    }

    /// Number of PEs in the world.
    pub fn num_pes(&self) -> usize {
        self.ep.num_pes()
    }

    /// Which backend this is.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Enqueue one framed message for `dst`, aggregating with other
    /// messages headed there until the aggregation threshold is reached.
    /// Zero-copy: `fill` encodes exactly `len` framed bytes straight into
    /// the destination's aggregation buffer.
    ///
    /// # Errors
    /// [`CommError::EmptyMessage`] when `len` is 0;
    /// [`CommError::MessageTooLarge`] when `len` exceeds the wire-chunk
    /// capacity; [`CommError::PeerUnreachable`] when the reliable-delivery
    /// layer has declared `dst` dead. In each case nothing is queued.
    pub fn send_with(
        &self,
        dst: usize,
        len: usize,
        fill: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), CommError> {
        self.queues.send_with(dst, len, fill)
    }

    /// Push every partially-filled aggregation buffer to the wire.
    pub fn flush(&self) {
        self.queues.flush();
    }

    /// [`Lamellae::flush`] for the one destination `dst`.
    pub fn flush_to(&self, dst: usize) {
        self.queues.flush_to(dst);
    }

    /// This PE's doorbell, which every waiting thread of the PE but the
    /// progress thread parks on.
    pub fn doorbell(&self) -> &Arc<Doorbell> {
        &self.ep.fabric().doorbells()[self.ep.pe()]
    }

    /// Drain incoming messages, handing each `(src, envelope bytes)` chunk
    /// to `sink` as a borrowed slice of a transport-owned (typically pooled)
    /// receive buffer — valid only for the duration of the call; the
    /// runtime parses envelopes in place and copies only what must outlive
    /// the tick. Returns true if any message was delivered. Reentrant calls
    /// are no-ops (one ticker at a time), so the progress thread, barrier
    /// waiters, and `block_on` helpers can all pump without coordination.
    pub fn progress(&self, sink: &mut dyn FnMut(usize, &[u8])) -> bool {
        self.ep.fabric().progress_delay(); // failure-injection hook
        self.queues.progress(sink)
    }

    /// Collective barrier over the world, servicing `progress` (which says
    /// whether it did work): a blocked PE must keep executing AMs sent to it.
    pub fn barrier_with(&self, progress: &mut dyn FnMut() -> bool) {
        self.ep.barrier_with_progress(progress);
    }

    /// Allocate `size` bytes in the symmetric region. The returned offset
    /// is valid on every PE. Callers coordinate collectively (the root
    /// allocates and shares the offset with its team).
    ///
    /// # Errors
    /// [`CommError::AllocFailed`] when the symmetric region cannot satisfy
    /// the request. A *collective* symmetric allocation failing on one PE
    /// but not others has no consensus protocol — callers treating this as
    /// recoverable must coordinate the outcome themselves.
    pub fn alloc_symmetric(&self, size: usize, align: usize) -> Result<usize, CommError> {
        self.ep.fabric().alloc_symmetric(size, align).map_err(map_alloc_err)
    }

    /// Release a symmetric allocation (exactly once per allocation,
    /// coordinated by the Darc destruction protocol).
    pub fn free_symmetric(&self, offset: usize) {
        self.ep.fabric().free_symmetric(offset).expect("invalid symmetric free");
    }

    /// Allocate `size` bytes from this PE's one-sided dynamic heap.
    ///
    /// # Errors
    /// [`CommError::AllocFailed`] when the heap cannot satisfy the request
    /// (genuine exhaustion, or an armed fault plane failing it).
    pub fn alloc_heap(&self, size: usize, align: usize) -> Result<usize, CommError> {
        self.ep.fabric().alloc_heap(self.ep.pe(), size, align).map_err(map_alloc_err)
    }

    /// Release a one-sided heap allocation on `pe`.
    ///
    /// # Errors
    /// [`FabricError::InvalidFree`] when `offset` is not live on that heap.
    pub fn free_heap(&self, pe: usize, offset: usize) -> Result<(), FabricError> {
        self.ep.fabric().free_heap(pe, offset)
    }

    /// Bytes in each PE's one-sided heap (the same on every PE): no staged
    /// payload can be larger.
    pub(crate) fn heap_len(&self) -> usize {
        let fabric = self.ep.fabric();
        fabric.arena(self.ep.pe()).map_or(0, |arena| arena.len() - fabric.sym_len())
    }

    /// One-sided RDMA write of `src` into `pe`'s memory at `offset`.
    ///
    /// # Safety
    /// No PE may concurrently access the destination range; the range must
    /// be a live allocation.
    pub unsafe fn put(&self, pe: usize, offset: usize, src: &[u8]) {
        // SAFETY: contract forwarded to the caller.
        unsafe { self.ep.put(pe, offset, src).expect("rdma put") }
    }

    /// One-sided RDMA read from `pe`'s memory at `offset`.
    ///
    /// # Safety
    /// No PE may concurrently write the source range.
    ///
    /// # Errors
    /// [`FabricError::OutOfBounds`] when the range exceeds `pe`'s memory.
    pub unsafe fn get(&self, pe: usize, offset: usize, dst: &mut [u8]) -> Result<(), FabricError> {
        // SAFETY: contract forwarded to the caller.
        unsafe { self.ep.get(pe, offset, dst) }
    }

    /// Base pointer of `pe`'s memory region (for constructing local slices
    /// in the array layer; only the local PE's pointer may be dereferenced
    /// safely by higher layers).
    pub fn base_ptr(&self, pe: usize) -> *mut u8 {
        self.ep.fabric().arena(pe).expect("valid pe").base_ptr()
    }

    /// Failure injection (tests): stall every progress tick by `ns`
    /// nanoseconds.
    pub fn inject_progress_delay(&self, ns: u64) {
        self.ep.fabric().set_progress_delay_ns(ns);
    }

    /// Bytes currently allocated in this PE's one-sided heap — zero once
    /// every LargeRequest/FreeHeap staging handshake has completed.
    pub fn heap_in_use(&self) -> usize {
        self.ep.fabric().heap_in_use(self.ep.pe()).unwrap_or(0)
    }

    /// Typed snapshot of the fabric-layer counters (puts/gets, bytes,
    /// inject vs. rendezvous split, barrier rounds). Fabric counters are
    /// fabric-global: they include every PE's transfers.
    pub fn fabric_stats(&self) -> FabricStats {
        self.ep.fabric().stats()
    }

    /// Typed snapshot of this PE's lamellae-layer counters (messages,
    /// serialized bytes, aggregation-buffer flushes, wire park/retry
    /// counts).
    pub fn lamellae_stats(&self) -> LamellaeStats {
        self.queues.stats()
    }

    /// Drain the list of destination PEs newly declared unreachable by the
    /// reliable-delivery layer (each PE is reported exactly once). The
    /// runtime polls this from its progress tick to fail pending AM
    /// futures.
    pub fn take_comm_failures(&self) -> Vec<usize> {
        self.queues.take_comm_failures()
    }

    /// Typed snapshot of the fault-injection counters (what the injector
    /// did to the traffic). All-zero when no fault plane is armed.
    pub fn fault_stats(&self) -> FaultStats {
        self.ep.fabric().fault_plane().map(|p| p.stats()).unwrap_or_default()
    }

    /// Per-destination delivery-window diagnostics (queued/unacked chunk
    /// counts, stuck sequence numbers, dead pairs) — consumed by the
    /// liveness watchdog's stall dump.
    pub fn pair_liveness(&self) -> Vec<PairLiveness> {
        self.queues.pair_liveness()
    }
}

/// Translate a fabric allocation failure into the lamellae-level taxonomy.
fn map_alloc_err(e: FabricError) -> CommError {
    match e {
        FabricError::OutOfMemory { requested, available } => {
            CommError::AllocFailed { requested, available }
        }
        // Allocation paths only fail with OutOfMemory; anything else is a
        // runtime bug worth surfacing loudly.
        other => panic!("unexpected fabric allocation error: {other:?}"),
    }
}

impl std::fmt::Debug for Lamellae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lamellae")
            .field("backend", &self.backend)
            .field("pe", &self.my_pe())
            .field("num_pes", &self.num_pes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lamellae::queue::queue_footprint;
    use rofi_sim::fabric::{Fabric, FabricConfig};
    use rofi_sim::NetConfig;

    #[test]
    fn smp_memory_ops_are_local() {
        let mut eps = Fabric::launch(FabricConfig {
            num_pes: 1,
            sym_len: 1 << 16,
            heap_len: 1 << 14,
            net: NetConfig::disabled(),
            metrics: true,
            fault: None,
        });
        let ep = eps.pop().unwrap();
        let base = ep.fabric().alloc_symmetric(queue_footprint(1, 4096), 64).unwrap();
        let lam = Lamellae::new(ep, Backend::Smp, base, 4096, 1024);
        let off = lam.alloc_heap(64, 8).unwrap();
        // SAFETY: single PE, single thread.
        unsafe {
            lam.put(0, off, &[9, 8, 7]);
            let mut out = [0u8; 3];
            lam.get(0, off, &mut out).unwrap();
            assert_eq!(out, [9, 8, 7]);
        }
        lam.free_heap(0, off).unwrap();
        assert!(lam.free_heap(0, off).is_err(), "a second free names a dead offset");
        let s = lam.alloc_symmetric(128, 8).unwrap();
        lam.free_symmetric(s);
        // Barrier is a no-op with one PE.
        lam.barrier_with(&mut || false);
        assert_eq!(lam.backend(), Backend::Smp);
    }
}
