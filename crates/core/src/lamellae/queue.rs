//! Flag-based, double-buffered message queues over the fabric.
//!
//! This is the transfer mechanism of Sec. III-A.1:
//!
//! > "the Lamellae implements a 'flag' based transfer mechanism. Each PE is
//! > able to signal every other PE to let them know when data is to be read.
//! > Upon receiving this signal the Remote PE is then responsible for
//! > getting the data, once local buffers become available. The remote PE
//! > then signals the original PE to let it know it is now free to release
//! > any resources associated with the transferred data. Lamellar employs a
//! > double buffering message queue..."
//!
//! ## Memory layout
//!
//! Each PE's symmetric region hosts, at the same base offset everywhere:
//!
//! ```text
//! recv_signals : num_pes × NBUF u64   — written by remote *senders*:
//!                nonzero = "my buffer #idx for you holds `len` bytes"
//! send_busy    : num_pes × NBUF u64   — owned by the local sender, cleared
//!                remotely by the consumer: 0 = buffer free, 1 = in flight
//! send_bufs    : num_pes × NBUF × buffer_size bytes — outgoing wire data
//! ```
//!
//! Sender protocol (PE `s` → PE `d`, buffer `i`):
//! 1. claim `send_busy[d][i]` on `s` (CAS 0→1);
//! 2. write the aggregated bytes into `send_bufs[d][i]` on `s` (local);
//! 3. release-store `len` into `recv_signals[s][i]` on `d` (the *flag*).
//!
//! Receiver protocol (PE `d` polling):
//! 1. acquire-load `recv_signals[s][i]`; if nonzero, RDMA-get `len` bytes
//!    from `send_bufs[d][i]` on `s`;
//! 2. clear the signal;
//! 3. release-store 0 into `send_busy[d][i]` on `s` ("free to release").
//!
//! The release/acquire pairing on the flag orders the plain-data buffer
//! writes before the reads — the classic message-passing pattern.
//!
//! ## Non-blocking sends
//!
//! **No call here ever blocks on the wire.** When both buffers toward a
//! destination are in flight, ready chunks park in a local queue and are
//! retried on the next `send_with`/`flush`/`progress` call. Blocking instead
//! would deadlock two peers whose progress engines are each stuck flushing
//! toward the other; with parking, every `progress` tick both drains
//! incoming traffic (freeing the peer's buffers) and retries parked chunks.
//!
//! ## Reliable delivery (fault-plane worlds)
//!
//! When the fabric carries a [`FaultPlane`], chunk deliveries can be
//! dropped, duplicated, delayed, truncated, or bit-flipped, so every peer
//! gets a go-back-N `ReliableLink` (DESIGN.md §4b). The link decides:
//! sequence numbers, the unacked window, cumulative acks, the retransmit
//! timer and pair death. This module does the I/O: a [`CHUNK_HDR_LEN`]-byte
//! header reserved in every chunk, pool buffers held until acked, the fault
//! plane's verdict applied at each wire push, and the cumulative-ack word per
//! peer in the symmetric block, written back into the *sender's* arena. A
//! dead pair surfaces through [`QueueTransport::take_comm_failures`] /
//! [`CommError::PeerUnreachable`]. Acks, like barriers, are control plane
//! and never faulted. Without a fault plane there
//! are no links: no header bytes and no ack writes.
//!
//! [`CHUNK_HDR_LEN`]: crate::proto::CHUNK_HDR_LEN

use crate::lamellae::reliable::{Chunk, Recv, ReliableLink, Timer};
use crate::lamellae::{CommError, PairLiveness};
use crate::proto::CHUNK_HDR_LEN;
use lamellar_executor::Side;
use lamellar_metrics::{LamellaeMetrics, LamellaeStats};
use parking_lot::Mutex;
use rofi_sim::{ChunkAction, FabricPe, FaultPlane};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Buffers per destination (double buffering, per the paper).
pub const NBUF: usize = 2;

/// Bytes of symmetric region consumed by the queue block for a world of
/// `num_pes` with the given per-buffer size.
pub fn queue_footprint(num_pes: usize, buffer_size: usize) -> usize {
    // Two tables of num_pes × NBUF u64s, one cumulative-ack word per peer,
    // plus the buffers, plus alignment.
    2 * num_pes * NBUF * 8 + num_pes * 8 + num_pes * NBUF * buffer_size + 64
}

/// A free-list of reusable byte buffers shared by the aggregation and
/// receive paths, so steady-state messaging performs no heap allocation:
/// every aggregation chunk and receive staging buffer is acquired here and
/// released back once its bytes hit the wire (or the sink returns).
///
/// The pool never shrinks; its size is bounded by the high-water mark of
/// simultaneously outstanding buffers (per destination: one open aggregation
/// buffer plus any parked sealed chunks; plus one receive buffer per
/// progress ticker), which [`LamellaeMetrics::record_pool_outstanding`]
/// tracks.
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    outstanding: AtomicU64,
    metrics: Arc<LamellaeMetrics>,
}

impl BufferPool {
    pub fn new(metrics: Arc<LamellaeMetrics>) -> Self {
        BufferPool { free: Mutex::new(Vec::new()), outstanding: AtomicU64::new(0), metrics }
    }

    /// Check out an empty buffer with at least `capacity` bytes reserved.
    pub fn acquire(&self, capacity: usize) -> Vec<u8> {
        let recycled = self.free.lock().pop();
        let out = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.record_pool_outstanding(out);
        match recycled {
            Some(mut buf) => {
                self.metrics.record_pool_acquire(true);
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => {
                self.metrics.record_pool_acquire(false);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Return a buffer for reuse (contents are discarded on next acquire).
    pub fn release(&self, buf: Vec<u8>) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.free.lock().push(buf);
    }

    /// Buffers currently checked out (0 when the system is quiescent).
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }
}

/// One sealed chunk waiting for a wire buffer.
struct Queued {
    chunk: Chunk,
    /// The injector's cached verdict for this attempt, so parked retries
    /// don't redraw (decisions are one-per-(chunk, attempt)).
    fault: Option<ChunkAction>,
    /// Earliest transmit time for a delay-faulted chunk.
    not_before: Option<Instant>,
}

impl Queued {
    fn new(chunk: Chunk) -> Self {
        Queued { chunk, fault: None, not_before: None }
    }
}

/// Everything kept about one peer: the open aggregation buffer that frames
/// encode directly into, sealed chunks waiting for a free wire buffer, and
/// (in fault-plane worlds) the reliable link. All buffers are pool-backed.
#[derive(Default)]
struct OutQueue {
    /// The chunk currently being filled (frames encode in place here).
    agg: Option<Vec<u8>>,
    /// Sealed chunks in FIFO order, each awaiting a wire buffer.
    sealed: VecDeque<Queued>,
    /// The front sealed chunk already failed a wire attempt (park/retry
    /// accounting).
    parked: bool,
    /// Go-back-N state toward and from this peer; `None` without a fault
    /// plane.
    link: Option<ReliableLink>,
}

/// One PE's endpoint of the world-wide queue fabric.
pub struct QueueTransport {
    ep: FabricPe,
    /// Base offset of the queue block (identical on every PE).
    base: usize,
    num_pes: usize,
    buffer_size: usize,
    /// Aggregation threshold: assemble a wire chunk once this many bytes
    /// are waiting for a destination.
    agg_threshold: usize,
    /// Bytes reserved at the front of every chunk for the reliable link's
    /// sequence/checksum header (0 without a fault plane).
    chunk_hdr: usize,
    /// Per-destination aggregation queues.
    out: Vec<Mutex<OutQueue>>,
    /// Recycled aggregation/receive buffers.
    pool: BufferPool,
    /// Serializes progress ticks (one ticker at a time).
    progress_lock: Mutex<()>,
    /// Transport observability. `msgs_sent` counts individual framed
    /// messages; `msgs_received` counts aggregated wire chunks — their
    /// ratio is the aggregation factor. `flushes` counts chunks handed to
    /// the wire; parks/retries expose backpressure.
    metrics: Arc<LamellaeMetrics>,
    /// The fabric's fault injector, when it has one.
    fault: Option<Arc<FaultPlane>>,
    /// Destinations newly declared dead, awaiting collection by the
    /// runtime via [`QueueTransport::take_comm_failures`].
    failed: Mutex<Vec<usize>>,
}

impl QueueTransport {
    /// Build the endpoint. `base` must point at a symmetric allocation of at
    /// least [`queue_footprint`] bytes, 8-aligned, zero-initialized
    /// (arenas start zeroed; `send_busy == 0` means free). Counters record
    /// when the fabric's metrics do; a fabric with a fault plane gets a
    /// `ReliableLink` per peer with the plane's retransmit timeout.
    pub fn new(ep: FabricPe, base: usize, buffer_size: usize, agg_threshold: usize) -> Self {
        assert_eq!(base % 8, 0, "queue base must be 8-aligned");
        assert!(agg_threshold <= buffer_size, "threshold must fit in a buffer");
        let fault = ep.fabric().fault_plane().cloned();
        let timeout = fault.as_ref().map(|plane| plane.config().retransmit_timeout);
        let chunk_hdr = if fault.is_some() { CHUNK_HDR_LEN } else { 0 };
        assert!(buffer_size > chunk_hdr, "wire buffers must fit the chunk header");
        let num_pes = ep.num_pes();
        let out = (0..num_pes)
            .map(|_| {
                Mutex::new(OutQueue { link: timeout.map(ReliableLink::new), ..Default::default() })
            })
            .collect();
        let metrics = Arc::new(LamellaeMetrics::new(ep.fabric().metrics().enabled()));
        QueueTransport {
            ep,
            base,
            num_pes,
            buffer_size,
            agg_threshold,
            chunk_hdr,
            out,
            pool: BufferPool::new(Arc::clone(&metrics)),
            progress_lock: Mutex::new(()),
            metrics,
            fault,
            failed: Mutex::new(Vec::new()),
        }
    }

    /// The transport's buffer pool (receive staging and aggregation chunks).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Typed snapshot of the transport counters.
    pub fn stats(&self) -> LamellaeStats {
        self.metrics.snapshot()
    }

    /// Largest single framed message the wire can carry (net of the
    /// reliable-delivery chunk header, when one is in use).
    pub fn max_message(&self) -> usize {
        self.buffer_size - self.chunk_hdr
    }

    fn recv_sig_off(&self, src: usize, idx: usize) -> usize {
        self.base + (src * NBUF + idx) * 8
    }

    fn send_busy_off(&self, dst: usize, idx: usize) -> usize {
        self.base + self.num_pes * NBUF * 8 + (dst * NBUF + idx) * 8
    }

    /// The cumulative-ack word for traffic *from* `peer` — lives on the
    /// receiver's side of the protocol in the *sender's* arena: PE `d`
    /// acknowledges PE `s`'s chunks by storing into `ack_off(d)` on `s`.
    fn ack_off(&self, peer: usize) -> usize {
        self.base + 2 * self.num_pes * NBUF * 8 + peer * 8
    }

    fn send_buf_off(&self, dst: usize, idx: usize) -> usize {
        self.base
            + 2 * self.num_pes * NBUF * 8
            + self.num_pes * 8
            + (dst * NBUF + idx) * self.buffer_size
    }

    /// Enqueue one framed message for `dst`, zero-copy: reserves `len`
    /// bytes of the destination's open aggregation buffer and lets `fill`
    /// encode the framed message straight into it — the only copy is the
    /// encode itself. `fill` must append exactly `len` bytes. Wire chunks
    /// are emitted once the aggregation threshold accumulates. Never blocks.
    ///
    /// # Errors
    /// [`CommError::EmptyMessage`] when `len` is 0;
    /// [`CommError::MessageTooLarge`] when the framed message cannot fit a
    /// wire chunk; [`CommError::PeerUnreachable`] when the reliable layer
    /// has exhausted its retries toward `dst`. In each case nothing is
    /// queued.
    pub fn send_with(
        &self,
        dst: usize,
        len: usize,
        fill: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), CommError> {
        let max = self.max_message();
        if len == 0 {
            return Err(CommError::EmptyMessage);
        }
        if len > max {
            return Err(CommError::MessageTooLarge { len, max });
        }
        let mut q = self.out[dst].lock();
        if q.link.as_ref().is_some_and(ReliableLink::is_dead) {
            return Err(CommError::PeerUnreachable { pe: dst });
        }
        self.metrics.record_send(len as u64);
        // Seal the open buffer first if this frame would overflow it —
        // frames never straddle chunk boundaries.
        if q.agg.as_ref().is_some_and(|agg| agg.len() + len > self.buffer_size) {
            self.seal(&mut q);
        }
        let agg = q.agg.get_or_insert_with(|| {
            let mut fresh = self.pool.acquire(self.buffer_size);
            // Room for the link's header, stamped at seal.
            fresh.resize(self.chunk_hdr, 0);
            fresh
        });
        let before = agg.len();
        fill(agg);
        debug_assert_eq!(agg.len() - before, len, "send_with: fill appended a different length");
        if agg.len() >= self.agg_threshold {
            self.seal(&mut q);
        }
        self.pump(dst, &mut q);
        Ok(())
    }

    /// Seal the open aggregation buffer into the outgoing FIFO; the link,
    /// if any, stamps its header.
    fn seal(&self, q: &mut OutQueue) {
        let Some(mut bytes) = q.agg.take() else { return };
        debug_assert!(bytes.len() > self.chunk_hdr, "open buffers always hold at least one frame");
        let seq = q.link.as_mut().map_or(0, |link| link.on_seal(&mut bytes));
        q.sealed.push_back(Queued::new(Chunk { bytes, seq, attempt: 0 }));
    }

    /// Push every waiting byte toward the wire (best effort — chunks that
    /// find no free buffer stay parked for the next call; with a link this
    /// also collects acks and runs the retransmit timer).
    pub fn flush(&self) {
        (0..self.num_pes).for_each(|dst| self.flush_to(dst));
    }

    /// [`QueueTransport::flush`] for the one destination `dst`.
    pub fn flush_to(&self, dst: usize) {
        let mut q = self.out[dst].lock();
        self.seal(&mut q);
        self.pump(dst, &mut q);
    }

    /// Drain the destinations newly declared unreachable since the last
    /// call (each reported exactly once, in death order).
    pub fn take_comm_failures(&self) -> Vec<usize> {
        std::mem::take(&mut *self.failed.lock())
    }

    /// Sample every destination's delivery-window state (see
    /// [`PairLiveness`]): what is queued, what is in flight unacked, and
    /// which sequence number a stalled pair is stuck on. Diagnostic only
    /// (the liveness watchdog's stall dump) — takes each out-queue lock
    /// briefly, off the fast path.
    pub fn pair_liveness(&self) -> Vec<PairLiveness> {
        let me = self.ep.pe();
        (0..self.num_pes)
            .filter(|&dst| dst != me)
            .map(|dst| {
                let q = self.out[dst].lock();
                let queued = q.sealed.len() + usize::from(q.agg.is_some());
                match &q.link {
                    Some(link) => link.liveness(dst, queued),
                    // No fault plane: a link's construction values.
                    None => ReliableLink::new(Duration::ZERO).liveness(dst, queued),
                }
            })
            .collect()
    }

    /// True when every frame and chunk for every destination has hit the
    /// wire — and, with a link, been acknowledged (dead pairs are
    /// vacuously done; their traffic is discarded).
    pub fn outgoing_empty(&self) -> bool {
        self.out.iter().all(|q| {
            let q = q.lock();
            let link = q.link.as_ref();
            link.is_some_and(ReliableLink::is_dead)
                || (q.agg.is_none()
                    && q.sealed.is_empty()
                    && link.is_none_or(ReliableLink::window_empty))
        })
    }

    /// Retry exhaustion: discard `dst`'s unacked `window` and queued
    /// traffic, and queue the failure for
    /// [`QueueTransport::take_comm_failures`].
    fn kill_pair(&self, dst: usize, q: &mut OutQueue, window: Vec<Chunk>) {
        q.parked = false;
        self.metrics.record_delivery_failure();
        let queued = q.sealed.drain(..).map(|queued| queued.chunk);
        for bytes in window.into_iter().chain(queued).map(|c| c.bytes).chain(q.agg.take()) {
            self.pool.release(bytes);
        }
        self.failed.lock().push(dst);
    }

    /// Emit sealed chunks for one destination in FIFO order. Without a link
    /// each buffer is recycled the moment its bytes are on the wire; with
    /// one it joins the link's unacked window, and the injector's verdict
    /// (drop/duplicate/delay/truncate/corrupt) is applied per attempt.
    /// Chunks that find no free wire buffer stay parked for the next call.
    fn pump(&self, dst: usize, q: &mut OutQueue) {
        let me = self.ep.pe();
        if let Some(link) = &mut q.link {
            if link.is_dead() {
                return;
            }
            let ack = self.ep.atomic_u64(me, self.ack_off(dst)).expect("ack word in bounds");
            for bytes in link.on_ack(ack.load(Ordering::Acquire)) {
                self.pool.release(bytes);
            }
            match link.on_timer(Instant::now()) {
                Timer::Wait => {}
                Timer::Resend(window) => {
                    // Go-back-N: everything outstanding goes out again, oldest
                    // first, each with a fresh fault verdict.
                    for chunk in window.into_iter().rev() {
                        self.metrics.record_retransmit();
                        q.sealed.push_front(Queued::new(chunk));
                    }
                }
                Timer::Dead(window) => return self.kill_pair(dst, q, window),
            }
        }
        loop {
            let Some(front) = q.sealed.front_mut() else { return };
            // Resolve this attempt's fault verdict exactly once; parked
            // retries reuse the cached decision. Loopback traffic and the
            // default path are never faulted.
            let chunk = &front.chunk;
            let action = *front.fault.get_or_insert_with(|| match &self.fault {
                Some(plane) if dst != me => {
                    plane.chunk_action(me, dst, chunk.seq, chunk.attempt, chunk.bytes.len())
                }
                _ => ChunkAction::Deliver,
            });
            if let ChunkAction::Delay { ns } = action {
                front.not_before = Some(Instant::now() + Duration::from_nanos(ns));
                // The delay is consumed; after the deadline, transmit.
                front.fault = Some(ChunkAction::Deliver);
            }
            if let Some(ready_at) = front.not_before {
                if Instant::now() < ready_at {
                    // FIFO order is part of the sequence contract: later
                    // chunks wait behind the delayed front.
                    return;
                }
                front.not_before = None;
            }
            if q.parked {
                self.metrics.record_retry();
            }
            let bytes = &front.chunk.bytes;
            let pushed = match front.fault.expect("resolved above") {
                // A dropped chunk vanishes without touching the wire; the
                // retransmit timer is what notices.
                ChunkAction::Drop => true,
                action @ (ChunkAction::Deliver | ChunkAction::Duplicate) => {
                    let ok = self.try_push_to_wire(dst, bytes);
                    if ok && action == ChunkAction::Duplicate {
                        // Best effort: a full wire just turns the duplicate
                        // back into a single delivery.
                        self.try_push_to_wire(dst, bytes);
                    }
                    ok
                }
                ChunkAction::Truncate { new_len } => {
                    self.try_push_to_wire(dst, &bytes[..new_len.min(bytes.len())])
                }
                ChunkAction::Corrupt { byte, bit } => {
                    // Damage a scratch copy: the retained original must stay
                    // pristine for the retransmit path.
                    let mut scratch = self.pool.acquire(bytes.len());
                    scratch.extend_from_slice(bytes);
                    if let Some(b) = scratch.get_mut(byte) {
                        *b ^= 1 << bit;
                    }
                    let ok = self.try_push_to_wire(dst, &scratch);
                    self.pool.release(scratch);
                    ok
                }
                ChunkAction::Delay { .. } => unreachable!("delays were converted to Deliver above"),
            };
            if !pushed {
                if !q.parked {
                    self.metrics.record_park();
                    q.parked = true;
                }
                return;
            }
            q.parked = false;
            self.metrics.record_flush();
            let done = q.sealed.pop_front().expect("front exists").chunk;
            match &mut q.link {
                Some(link) => link.on_sent(done, Instant::now()),
                None => self.pool.release(done.bytes),
            }
        }
    }

    /// One attempt to claim a free wire buffer for `dst` and transmit;
    /// false when both buffers are still in flight.
    ///
    /// This bypasses aggregation *and* the reliable link: no sequence
    /// header is stamped and no retransmit state is kept, so in a
    /// fault-plane world the bytes will be discarded by the receiver's
    /// header validation. Intended for raw-wire benchmarking on loss-free
    /// fabrics only.
    pub fn try_send_now(&self, dst: usize, bytes: &[u8]) -> bool {
        assert!(bytes.len() <= self.buffer_size, "message exceeds wire buffer");
        self.try_push_to_wire(dst, bytes)
    }

    fn try_push_to_wire(&self, dst: usize, bytes: &[u8]) -> bool {
        debug_assert!(!bytes.is_empty());
        let me = self.ep.pe();
        for idx in 0..NBUF {
            let busy =
                self.ep.atomic_u64(me, self.send_busy_off(dst, idx)).expect("send_busy in bounds");
            if busy.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                // SAFETY: we own this buffer (busy flag) until the
                // receiver clears it; offsets are within the queue block.
                unsafe {
                    self.ep.put(me, self.send_buf_off(dst, idx), bytes).expect("send buffer write");
                }
                // Model the tiny signalling RDMA write.
                if dst != me {
                    self.ep.fabric().model().charge(8);
                }
                self.ep
                    .atomic_u64(dst, self.recv_sig_off(me, idx))
                    .expect("recv_signal in bounds")
                    .store(bytes.len() as u64, Ordering::Release);
                self.ep.fabric().doorbells()[dst].ring(Side::Wire);
                return true;
            }
        }
        false
    }

    /// Drain incoming wire buffers; `sink` receives `(src, raw chunk)` as a
    /// borrowed slice of a pool-backed staging buffer (the caller deframes;
    /// bytes are only valid for the duration of the call). Returns true if
    /// anything arrived. One ticker runs at a time; concurrent callers
    /// return false immediately. Also retries parked outgoing chunks, so
    /// traffic keeps moving as long as anyone pumps progress.
    pub fn progress(&self, sink: &mut dyn FnMut(usize, &[u8])) -> bool {
        let Some(_guard) = self.progress_lock.try_lock() else {
            return false;
        };
        let me = self.ep.pe();
        let mut any = false;
        // One pooled staging buffer serves every wire chunk this tick.
        let mut data = self.pool.acquire(self.buffer_size);
        for src in 0..self.num_pes {
            for idx in 0..NBUF {
                let sig =
                    self.ep.atomic_u64(me, self.recv_sig_off(src, idx)).expect("sig in bounds");
                let len = sig.load(Ordering::Acquire) as usize;
                if len == 0 {
                    continue;
                }
                data.resize(len, 0);
                // SAFETY: the sender wrote the buffer before the release
                // store of the flag and will not touch it until we clear
                // send_busy below.
                unsafe {
                    self.ep
                        .get(src, self.send_buf_off(me, idx), &mut data)
                        .expect("wire buffer read");
                }
                sig.store(0, Ordering::Release);
                // "signals the original PE ... it is now free to release".
                let busy =
                    |i| self.ep.atomic_u64(src, self.send_busy_off(me, i)).expect("busy in bounds");
                busy(idx).store(0, Ordering::Release);
                // A sender parks chunks only while every buffer toward us is
                // in flight, so the first one freed after that rings it.
                if (0..NBUF).all(|i| i == idx || busy(i).load(Ordering::Acquire) != 0) {
                    self.ep.fabric().doorbells()[src].ring(Side::Wire);
                }
                if let Some(payload) = self.accept(src, &data) {
                    self.metrics.record_recv(len as u64);
                    sink(src, payload);
                    any = true;
                }
                data.clear();
            }
        }
        self.pool.release(data);
        // Freed buffers on our peers may unblock parked chunks of ours, and
        // the retransmit timer only runs when something pumps the queue.
        for dst in 0..self.num_pes {
            if let Some(mut q) = self.out[dst].try_lock() {
                if !q.sealed.is_empty() || q.link.as_ref().is_some_and(|l| !l.window_empty()) {
                    self.pump(dst, &mut q);
                }
            }
        }
        any
    }

    /// The payload of a chunk received from `src`: the chunk itself without
    /// a fault plane, otherwise whatever `src`'s link lets through (acking
    /// deliveries and duplicates, counting every drop).
    fn accept<'a>(&self, src: usize, raw: &'a [u8]) -> Option<&'a [u8]> {
        if self.fault.is_none() {
            return Some(raw);
        }
        let verdict = self.out[src].lock().link.as_mut().expect("a link per peer").on_recv(raw);
        match verdict {
            Recv::Deliver { seq, payload } => {
                self.ack(src, seq);
                return Some(payload);
            }
            Recv::Duplicate { ack } => {
                self.metrics.record_dup_chunk_dropped();
                self.ack(src, ack);
            }
            Recv::Gap => self.metrics.record_reordered_chunk_dropped(),
            Recv::Corrupt => self.metrics.record_corrupt_chunk_dropped(),
        }
        None
    }

    /// Cumulative-ack `src`'s traffic through `seq`: a release store into
    /// the *sender's* arena (control plane — never faulted).
    fn ack(&self, src: usize, seq: u64) {
        self.ep
            .atomic_u64(src, self.ack_off(self.ep.pe()))
            .expect("ack word in bounds")
            .store(seq, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rofi_sim::fabric::{Fabric, FabricConfig};
    use rofi_sim::NetConfig;
    use std::sync::Arc;

    /// Send a copy of `bytes`, panicking with the error's message on failure.
    fn send(q: &QueueTransport, dst: usize, bytes: &[u8]) {
        q.send_with(dst, bytes.len(), &mut |b| b.extend_from_slice(bytes))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn make_world(n: usize, buf: usize, thresh: usize) -> Vec<Arc<QueueTransport>> {
        let foot = queue_footprint(n, buf);
        let pes = Fabric::launch(FabricConfig {
            num_pes: n,
            sym_len: foot + 4096,
            heap_len: 4096,
            net: NetConfig::disabled(),
            metrics: true,
            fault: None,
        });
        let base = pes[0].fabric().alloc_symmetric(foot, 8).unwrap();
        pes.into_iter().map(|ep| Arc::new(QueueTransport::new(ep, base, buf, thresh))).collect()
    }

    /// A faulted world: reliable delivery on, injector armed with `cfg`.
    fn make_faulted_world(
        n: usize,
        buf: usize,
        thresh: usize,
        cfg: rofi_sim::FaultConfig,
    ) -> Vec<Arc<QueueTransport>> {
        let foot = queue_footprint(n, buf);
        let pes = Fabric::launch(FabricConfig {
            num_pes: n,
            sym_len: foot + 4096,
            heap_len: 4096,
            net: NetConfig::disabled(),
            metrics: true,
            fault: Some(cfg),
        });
        let base = pes[0].fabric().alloc_symmetric(foot, 8).unwrap();
        let plane = pes[0].fabric().fault_plane().cloned().expect("fault plane present");
        let qs: Vec<_> = pes
            .into_iter()
            .map(|ep| Arc::new(QueueTransport::new(ep, base, buf, thresh)))
            .collect();
        plane.arm();
        qs
    }

    /// The retransmit timeout `pe`'s link toward `dst` runs with.
    fn link_timeout(q: &QueueTransport, dst: usize) -> Duration {
        q.out[dst].lock().link.as_ref().expect("fault-plane worlds have links").timeout
    }

    #[test]
    fn retransmit_timeout_is_configurable() {
        let cfg = rofi_sim::FaultConfig::seeded(1).drop_prob(0.5);
        let qs = make_faulted_world(2, 4096, 100, cfg);
        assert_eq!(link_timeout(&qs[0], 1), rofi_sim::RETRANSMIT_TIMEOUT, "default applies");
        let foot = queue_footprint(2, 4096);
        let pes = Fabric::launch(FabricConfig {
            num_pes: 2,
            sym_len: foot + 4096,
            heap_len: 4096,
            net: NetConfig::disabled(),
            metrics: true,
            fault: Some(
                rofi_sim::FaultConfig::seeded(1)
                    .drop_prob(0.5)
                    .retransmit_timeout(Duration::from_millis(250)),
            ),
        });
        let base = pes[0].fabric().alloc_symmetric(foot, 8).unwrap();
        let slow = QueueTransport::new(pes.into_iter().next().unwrap(), base, 4096, 100);
        assert_eq!(link_timeout(&slow, 1), Duration::from_millis(250));
    }

    #[test]
    fn small_sends_aggregate_until_threshold() {
        let qs = make_world(2, 4096, 100);
        // 40 bytes: below the 100-byte threshold — nothing on the wire yet.
        send(&qs[0], 1, &[1u8; 40]);
        let mut got = Vec::new();
        assert!(!qs[1].progress(&mut |src, data| got.push((src, data.to_vec()))));
        // Crossing the threshold emits one aggregated chunk.
        send(&qs[0], 1, &[2u8; 70]);
        assert!(qs[1].progress(&mut |src, data| got.push((src, data.to_vec()))));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
        assert_eq!(got[0].1.len(), 110);
        assert_eq!(&got[0].1[..40], &[1u8; 40][..]);
        assert_eq!(&got[0].1[40..], &[2u8; 70][..]);
    }

    #[test]
    fn flush_pushes_partial_buffers() {
        let qs = make_world(2, 4096, 1000);
        send(&qs[0], 1, &[7u8; 10]);
        qs[0].flush();
        let mut got = Vec::new();
        assert!(qs[1].progress(&mut |_, data| got.push(data.to_vec())));
        assert_eq!(got, vec![vec![7u8; 10]]);
        assert!(qs[0].outgoing_empty());
    }

    #[test]
    fn backpressure_parks_and_later_flush_delivers() {
        let qs = make_world(2, 256, 64);
        // Three chunk-sized sends: two claim the wire buffers, the third
        // parks (send never blocks).
        send(&qs[0], 1, &[1u8; 64]);
        send(&qs[0], 1, &[2u8; 64]);
        send(&qs[0], 1, &[3u8; 64]);
        assert!(!qs[0].outgoing_empty(), "third chunk parks while wire is full");
        let mut got = Vec::new();
        while got.len() < 3 {
            qs[1].progress(&mut |_, data| got.push(data.to_vec()));
            qs[0].flush(); // retries the parked chunk
        }
        let mut firsts: Vec<u8> = got.iter().map(|d| d[0]).collect();
        firsts.sort_unstable();
        assert_eq!(firsts, vec![1, 2, 3]);
        assert!(qs[0].outgoing_empty());
    }

    #[test]
    fn bidirectional_traffic() {
        let qs = make_world(2, 4096, 1);
        for i in 0..20u8 {
            send(&qs[0], 1, &[i; 8]);
            send(&qs[1], 0, &[i + 100; 8]);
            let mut got1 = Vec::new();
            while !qs[1].progress(&mut |_, d| got1.push(d.to_vec())) {
                qs[0].flush();
            }
            let mut got0 = Vec::new();
            while !qs[0].progress(&mut |_, d| got0.push(d.to_vec())) {
                qs[1].flush();
            }
            assert_eq!(got1[0][0], i);
            assert_eq!(got0[0][0], i + 100);
        }
    }

    #[test]
    fn many_pes_all_to_all() {
        let n = 4;
        let qs = make_world(n, 4096, 1);
        for (src, q) in qs.iter().enumerate() {
            for dst in 0..n {
                if dst != src {
                    send(q, dst, &[src as u8 + 1; 16]);
                }
            }
        }
        for (me, q) in qs.iter().enumerate() {
            let mut seen = Vec::new();
            while seen.len() < n - 1 {
                q.progress(&mut |src, d| {
                    assert_eq!(d[0] as usize, src + 1);
                    seen.push(src);
                });
                for other in qs.iter() {
                    other.flush();
                }
            }
            seen.sort_unstable();
            let expect: Vec<usize> = (0..n).filter(|&p| p != me).collect();
            assert_eq!(seen, expect);
        }
    }

    #[test]
    fn chunks_split_at_frame_boundaries() {
        // Two 150-byte frames with a 256-byte wire buffer: they cannot ride
        // one chunk, so they arrive as two chunks with intact frames.
        let qs = make_world(2, 256, 200);
        send(&qs[0], 1, &[1u8; 150]);
        send(&qs[0], 1, &[2u8; 150]);
        qs[0].flush();
        let mut got = Vec::new();
        while got.len() < 2 {
            qs[1].progress(&mut |_, d| got.push(d.to_vec()));
            qs[0].flush();
        }
        assert_eq!(got[0], vec![1u8; 150]);
        assert_eq!(got[1], vec![2u8; 150]);
    }

    #[test]
    #[should_panic(expected = "exceeds wire buffer")]
    fn oversized_single_message_rejected() {
        let qs = make_world(2, 128, 64);
        send(&qs[0], 1, &[0u8; 256]);
    }

    /// Buffers cycle through the pool: after warm-up the transport performs
    /// no fresh allocations (high hit rate) and quiescence returns every
    /// buffer to the free list.
    #[test]
    fn buffer_pool_recycles_to_quiescence() {
        let qs = make_world(2, 4096, 1);
        for round in 0..50u8 {
            send(&qs[0], 1, &[round; 32]);
            let mut got = 0;
            while got == 0 {
                qs[1].progress(&mut |_, d| got += d.len() / 32);
                qs[0].flush();
            }
        }
        assert_eq!(qs[0].pool().outstanding(), 0, "sender buffers all returned");
        assert_eq!(qs[1].pool().outstanding(), 0, "receiver buffers all returned");
        let s = qs[0].stats();
        let total = s.pool_hits + s.pool_misses;
        assert!(total >= 50, "every send cycles a pool buffer (got {total})");
        // Steady state: one aggregation buffer recycled per round — only the
        // first acquire may miss.
        assert!(s.pool_misses <= 2, "pool misses stayed at warm-up level: {s:?}");
        assert!(s.pool_hwm >= 1);
    }

    /// The deadlock regression: both PEs saturate the wire toward each
    /// other and only ever pump progress (as the runtime's progress thread
    /// does). Everything must still arrive.
    #[test]
    fn mutual_saturation_never_deadlocks() {
        let qs = make_world(2, 128, 64);
        let a = Arc::clone(&qs[0]);
        let b = Arc::clone(&qs[1]);
        let run = |q: Arc<QueueTransport>, me: usize| {
            std::thread::spawn(move || {
                let peer = 1 - me;
                let mut received = 0usize;
                for i in 0..200u8 {
                    send(&q, peer, &[i; 64]);
                    q.progress(&mut |_, d| received += d.len() / 64);
                    q.flush();
                }
                while received < 200 || !q.outgoing_empty() {
                    let before = received;
                    q.progress(&mut |_, d| received += d.len() / 64);
                    q.flush();
                    if received == before {
                        std::thread::yield_now();
                    }
                }
                received
            })
        };
        let t0 = run(a, 0);
        let t1 = run(b, 1);
        assert_eq!(t0.join().unwrap(), 200);
        assert_eq!(t1.join().unwrap(), 200);
    }

    /// Drive sender + receiver until `want` payloads arrive at `qs[1]` (or
    /// a generous iteration budget runs out), returning what arrived.
    fn drain_reliable(qs: &[Arc<QueueTransport>], want: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        let mut spins = 0u32;
        while got.len() < want {
            qs[1].progress(&mut |_, d| got.push(d.to_vec()));
            qs[0].flush();
            qs[0].progress(&mut |_, _| {});
            spins += 1;
            if spins > 200_000 {
                panic!("reliable drain stalled at {}/{want} payloads", got.len());
            }
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
        got
    }

    #[test]
    fn reliable_mode_roundtrips_without_faults() {
        // Rates all zero: the reliable layer runs (headers, acks) but the
        // injector never fires — everything arrives first try.
        let qs = make_faulted_world(2, 4096, 1, rofi_sim::FaultConfig::seeded(1));
        for i in 0..10u8 {
            send(&qs[0], 1, &[i; 32]);
        }
        let got = drain_reliable(&qs, 10);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 32]);
        }
        // Acks eventually drain the unacked window to quiescence.
        let mut spins = 0;
        while !qs[0].outgoing_empty() {
            qs[0].flush();
            spins += 1;
            assert!(spins < 200_000, "acks never drained the window");
        }
        assert_eq!(qs[0].pool().outstanding(), 0, "all buffers returned after acks");
        assert_eq!(qs[0].stats().retransmits, 0, "no faults, no retransmits");
    }

    #[test]
    fn dropped_chunks_are_retransmitted_and_order_is_preserved() {
        let cfg = rofi_sim::FaultConfig::seeded(42).drop_prob(0.3);
        let qs = make_faulted_world(2, 4096, 1, cfg);
        for i in 0..50u8 {
            send(&qs[0], 1, &[i; 16]);
        }
        let got = drain_reliable(&qs, 50);
        // In-order, exactly-once delivery despite the drops.
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 16], "payload {i} intact and in order");
        }
        assert!(qs[0].stats().retransmits > 0, "a 30% drop rate must force retransmits");
    }

    #[test]
    fn corruption_is_detected_and_recovered() {
        let cfg = rofi_sim::FaultConfig::seeded(7).corrupt_prob(0.3).truncate_prob(0.1);
        let qs = make_faulted_world(2, 4096, 1, cfg);
        for i in 0..40u8 {
            send(&qs[0], 1, &[i ^ 0x5a; 24]);
        }
        let got = drain_reliable(&qs, 40);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d, &vec![i as u8 ^ 0x5a; 24], "payload {i} bit-exact");
        }
        let s = qs[1].stats();
        assert!(
            s.corrupt_chunks_dropped > 0,
            "30% corruption must trip the checksum at least once: {s:?}"
        );
    }

    #[test]
    fn duplicates_are_suppressed() {
        let cfg = rofi_sim::FaultConfig::seeded(3).dup_prob(0.5);
        let qs = make_faulted_world(2, 4096, 1, cfg);
        for i in 0..40u8 {
            send(&qs[0], 1, &[i; 8]);
        }
        let got = drain_reliable(&qs, 40);
        assert_eq!(got.len(), 40, "exactly-once: duplicates never reach the sink");
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d[0], i as u8);
        }
        assert!(qs[1].stats().dup_chunks_dropped > 0, "50% dup rate must suppress at least one");
    }

    #[test]
    fn severed_pair_dies_with_typed_failure() {
        // Probability-1 drops: no chunk ever arrives, retries exhaust, and
        // the failure surfaces as a dead pair — not a hang or a panic.
        let cfg = rofi_sim::FaultConfig::seeded(9).drop_prob(1.0);
        let qs = make_faulted_world(2, 4096, 1, cfg);
        send(&qs[0], 1, &[1u8; 16]);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            qs[0].flush();
            let dead: Vec<usize> =
                qs[0].pair_liveness().iter().filter(|p| p.dead).map(|p| p.dst).collect();
            if !dead.is_empty() {
                assert_eq!(dead, vec![1]);
                break;
            }
            assert!(Instant::now() < deadline, "pair never died");
            std::thread::yield_now();
        }
        assert_eq!(qs[0].take_comm_failures(), vec![1], "death reported exactly once");
        assert!(qs[0].take_comm_failures().is_empty());
        assert!(
            matches!(
                qs[0].send_with(1, 4, &mut |b| b.extend_from_slice(&[0; 4])),
                Err(CommError::PeerUnreachable { pe: 1 })
            ),
            "sends to a dead pair fail fast"
        );
        assert_eq!(qs[0].pool().outstanding(), 0, "dead pair's buffers all reclaimed");
        assert_eq!(qs[0].stats().delivery_failures, 1);
        assert!(qs[0].outgoing_empty(), "dead pairs are vacuously drained");
    }

    #[test]
    fn oversized_message_is_a_typed_error_in_reliable_mode() {
        let qs = make_faulted_world(2, 128, 64, rofi_sim::FaultConfig::seeded(1));
        let max = qs[0].max_message();
        assert_eq!(max, 128 - CHUNK_HDR_LEN, "header steals capacity from the wire buffer");
        let r = qs[0].send_with(1, max + 1, &mut |b| b.extend_from_slice(&[0; 128]));
        assert_eq!(r, Err(CommError::MessageTooLarge { len: max + 1, max }));
    }

    #[test]
    fn same_seed_same_fault_counters() {
        // Single-threaded lock-step traffic: the injected-fault counters are
        // a pure function of the seed.
        let run = |seed: u64| {
            let cfg = rofi_sim::FaultConfig::seeded(seed).drop_prob(0.2).corrupt_prob(0.1);
            let qs = make_faulted_world(2, 4096, 1, cfg);
            for i in 0..30u8 {
                send(&qs[0], 1, &[i; 16]);
            }
            drain_reliable(&qs, 30);
            let f = qs[0].ep.fabric().fault_plane().unwrap().stats();
            (f.drops_injected, f.corruptions_injected)
        };
        let a = run(1234);
        let b = run(1234);
        let c = run(4321);
        assert_eq!(a, b, "equal seeds reproduce identical injected-fault counts");
        assert!(a.0 > 0, "20% drops over ≥30 chunks must fire");
        assert_ne!(a, c, "different seeds should diverge (probabilistically certain here)");
    }
    /// A 1-PE world (the `Smp` backend) sends to itself through the same
    /// queues: frames arrive in order and every buffer comes back.
    #[test]
    fn single_pe_loopback_delivers_in_order() {
        use crate::proto::{deframe, Envelope};
        let qs = make_world(1, 4096, 1000);
        let sent =
            [Envelope::Reply { req_id: 7, payload: &[1, 2, 3] }, Envelope::FreeHeap { offset: 9 }];
        let mut got = 0;
        for round in 0..10 {
            for env in &sent {
                let mut buf = Vec::new();
                env.frame(&mut buf);
                send(&qs[0], 0, &buf);
            }
            qs[0].flush();
            assert!(qs[0].progress(&mut |src, chunk| {
                assert_eq!(src, 0);
                for env in deframe(chunk) {
                    assert_eq!(env, Ok(sent[got % 2]), "frame {got} out of order");
                    got += 1;
                }
            }));
            assert_eq!(got, 2 * (round + 1));
        }
        assert!(!qs[0].progress(&mut |_, _| panic!("no more messages")));
        assert!(qs[0].outgoing_empty());
        assert_eq!(qs[0].pool().outstanding(), 0);
    }

    /// `pair_liveness` reports a severed pair's window round by round, then
    /// its death.
    #[test]
    fn pair_liveness_tracks_a_severed_pair() {
        let qs = make_faulted_world(2, 4096, 1, rofi_sim::FaultConfig::seeded(9).drop_prob(1.0));
        send(&qs[0], 1, &[1u8; 16]);
        let deadline = Instant::now() + Duration::from_secs(30);
        let sample = || {
            qs[0].flush();
            let live = qs[0].pair_liveness();
            assert_eq!(live.len(), 1);
            assert!(Instant::now() < deadline, "pair never died: {}", live[0]);
            live[0].clone()
        };
        let mut live = sample();
        while live.stalled_rounds < 3 {
            live = sample();
        }
        assert_eq!(live.dst, 1);
        assert_eq!(live.queued + live.unacked, 1, "{live}");
        assert_eq!(live.oldest_unacked_seq, Some(1), "{live}");
        assert_eq!(live.next_seq, 2);
        assert!(live.stalled_rounds >= 1 && !live.dead, "{live}");
        while !live.dead {
            live = sample();
        }
        assert_eq!(live.unacked, 0, "{live}");
        assert_eq!(live.queued, 0, "{live}");
    }
}
