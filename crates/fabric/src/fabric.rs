//! The simulated fabric: arenas + transfers + collectives + allocation.
//!
//! One [`Fabric`] models the whole interconnect; each simulated PE holds a
//! [`FabricPe`] handle. Arenas are split into two regions, mirroring the
//! paper (Sec. III-A):
//!
//! * a **symmetric region** `[0, sym_len)` — allocations here return offsets
//!   valid on *every* PE's arena (the shared free list guarantees identical
//!   layout). The runtime uses it for its internal message queues and for
//!   collectively-allocated user structures (SharedMemoryRegions, arrays).
//! * a **dynamic heap** `[sym_len, sym_len + heap_len)` — per-PE one-sided
//!   allocations with PE-private offsets (OneSidedMemoryRegions, AM
//!   payload staging).

use crate::alloc::FreeList;
use crate::arena::Arena;
use crate::barrier::SenseBarrier;
use crate::fault::{FaultConfig, FaultPlane};
use crate::netmodel::{NetConfig, NetModel};
use crate::{FabricError, Result};
use lamellar_executor::Doorbell;
use lamellar_metrics::{FabricMetrics, FabricStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Construction parameters for a [`Fabric`].
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of simulated PEs.
    pub num_pes: usize,
    /// Bytes of symmetric region per PE.
    pub sym_len: usize,
    /// Bytes of one-sided dynamic heap per PE.
    pub heap_len: usize,
    /// Network cost model.
    pub net: NetConfig,
    /// Record transfer/barrier counters ([`FabricMetrics`]). Recording is a
    /// handful of relaxed atomics per transfer; disable for overhead-critical
    /// runs.
    pub metrics: bool,
    /// Deterministic fault injection ([`FaultPlane`]); `None` (the default)
    /// leaves the fabric loss-free and the transport on its fast path.
    pub fault: Option<FaultConfig>,
}

impl FabricConfig {
    /// A reasonable default: 64 MiB symmetric + 32 MiB heap per PE, model
    /// from the environment, metrics on.
    pub fn new(num_pes: usize) -> Self {
        FabricConfig {
            num_pes,
            sym_len: 64 << 20,
            heap_len: 32 << 20,
            net: NetConfig::from_env(),
            metrics: true,
            fault: None,
        }
    }

    /// Override the symmetric region size.
    pub fn sym_len(mut self, len: usize) -> Self {
        self.sym_len = len;
        self
    }

    /// Override the heap size.
    pub fn heap_len(mut self, len: usize) -> Self {
        self.heap_len = len;
        self
    }

    /// Override the network model.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Enable or disable fabric metrics recording.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Arm deterministic fault injection with the given knobs.
    pub fn fault(mut self, cfg: FaultConfig) -> Self {
        self.fault = Some(cfg);
        self
    }
}

/// The interconnect shared by all simulated PEs.
pub struct Fabric {
    arenas: Vec<Arena>,
    /// Each PE's doorbell, rung when a chunk lands in its receive queue (a
    /// libfabric completion wait object).
    bells: Vec<Arc<Doorbell>>,
    barrier: SenseBarrier,
    model: NetModel,
    sym_len: usize,
    /// Shared symmetric allocator: one free list drives identical layouts on
    /// every arena.
    sym_alloc: Mutex<FreeList>,
    /// Per-PE dynamic heap allocators.
    heap_allocs: Vec<Mutex<FreeList>>,
    /// Failure injection: extra nanoseconds added to each progress tick.
    progress_delay_ns: AtomicU64,
    /// Fabric-layer observability: puts/gets/bytes, inject vs. rendezvous
    /// splits, barrier rounds, put-size histogram. Shared by all PE handles.
    metrics: FabricMetrics,
    /// Deterministic fault injection; `None` keeps the fabric loss-free.
    fault: Option<Arc<FaultPlane>>,
}

impl Fabric {
    /// Build a fabric and return one handle per PE.
    pub fn launch(cfg: FabricConfig) -> Vec<FabricPe> {
        assert!(cfg.num_pes > 0, "need at least one PE");
        let arena_len = cfg.sym_len + cfg.heap_len;
        assert!(arena_len > 0, "arena must be non-empty");
        let arenas = (0..cfg.num_pes).map(|_| Arena::new(arena_len)).collect();
        let heap_allocs = (0..cfg.num_pes)
            .map(|_| Mutex::new(FreeList::new(cfg.sym_len, cfg.heap_len)))
            .collect();
        let fault = cfg.fault.map(|f| Arc::new(FaultPlane::new(f, cfg.num_pes)));
        let bells: Vec<Arc<Doorbell>> = (0..cfg.num_pes).map(|_| Arc::default()).collect();
        let fabric = Arc::new(Fabric {
            arenas,
            barrier: SenseBarrier::new(bells.clone()),
            bells,
            model: NetModel::new(cfg.net),
            sym_len: cfg.sym_len,
            sym_alloc: Mutex::new(FreeList::new(0, cfg.sym_len)),
            heap_allocs,
            progress_delay_ns: AtomicU64::new(0),
            metrics: FabricMetrics::new(cfg.metrics),
            fault,
        });
        (0..cfg.num_pes).map(|pe| FabricPe { fabric: Arc::clone(&fabric), pe }).collect()
    }

    /// Number of PEs on the fabric.
    pub fn num_pes(&self) -> usize {
        self.arenas.len()
    }

    /// Size of the symmetric region (same on every PE).
    pub fn sym_len(&self) -> usize {
        self.sym_len
    }

    /// Every PE's doorbell, by PE id.
    pub fn doorbells(&self) -> &[Arc<Doorbell>] {
        &self.bells
    }

    /// The network cost model.
    pub fn model(&self) -> &NetModel {
        &self.model
    }

    fn check_pe(&self, pe: usize) -> Result<()> {
        if pe < self.num_pes() {
            Ok(())
        } else {
            Err(FabricError::InvalidPe { pe, num_pes: self.num_pes() })
        }
    }

    /// Direct access to a PE's arena (runtime-internal).
    ///
    /// # Errors
    /// [`FabricError::InvalidPe`] for an out-of-range `pe`.
    pub fn arena(&self, pe: usize) -> Result<&Arena> {
        self.check_pe(pe)?;
        Ok(&self.arenas[pe])
    }

    /// Allocate from the symmetric region. The returned offset addresses the
    /// same-size block on **every** PE's arena.
    ///
    /// Callers must coordinate collectively (exactly one logical allocation
    /// per collective call) — the runtime's root allocates and shares the
    /// offset with its team, exactly like ROFI's `rofi_alloc`.
    ///
    /// # Errors
    /// [`FabricError::OutOfMemory`] when the region cannot satisfy the
    /// request — or when an armed [`FaultPlane`] fails it artificially.
    pub fn alloc_symmetric(&self, size: usize, align: usize) -> Result<usize> {
        if let Some(fault) = &self.fault {
            if fault.fail_symmetric_alloc() {
                return Err(FabricError::OutOfMemory {
                    requested: size,
                    available: self.sym_available(),
                });
            }
        }
        self.sym_alloc.lock().alloc(size, align)
    }

    /// Free a symmetric allocation. Must be called exactly once per
    /// allocation (the runtime's Darc destruction protocol guarantees this).
    ///
    /// The block is zeroed on every PE's arena before it returns to the
    /// allocator, so the next `alloc_symmetric` that reuses it starts from
    /// zero like the never-touched rest of the region.
    ///
    /// # Errors
    /// [`FabricError::InvalidFree`] when `offset` is not a live symmetric
    /// allocation.
    pub fn free_symmetric(&self, offset: usize) -> Result<()> {
        let mut sym = self.sym_alloc.lock();
        let len = sym.allocation_size(offset).ok_or(FabricError::InvalidFree { offset })?;
        for arena in &self.arenas {
            // SAFETY: the allocation is live until `free` below and its
            // owner has finished with it on every PE (the caller's contract);
            // holding the allocator lock keeps it from being handed out
            // again while it is cleared.
            unsafe { arena.slice_mut(offset, len)?.fill(0) };
        }
        sym.free(offset)
    }

    /// Allocate from `pe`'s one-sided dynamic heap.
    ///
    /// # Errors
    /// [`FabricError::InvalidPe`] for an out-of-range `pe`;
    /// [`FabricError::OutOfMemory`] when the heap cannot satisfy the
    /// request — or when an armed [`FaultPlane`] fails it artificially.
    pub fn alloc_heap(&self, pe: usize, size: usize, align: usize) -> Result<usize> {
        self.check_pe(pe)?;
        if let Some(fault) = &self.fault {
            if fault.fail_heap_alloc(pe) {
                return Err(FabricError::OutOfMemory {
                    requested: size,
                    available: self.heap_allocs[pe].lock().available(),
                });
            }
        }
        self.heap_allocs[pe].lock().alloc(size, align)
    }

    /// Free a one-sided heap allocation on `pe`.
    ///
    /// # Errors
    /// [`FabricError::InvalidPe`] for an out-of-range `pe`;
    /// [`FabricError::InvalidFree`] when `offset` is not live on that heap.
    pub fn free_heap(&self, pe: usize, offset: usize) -> Result<()> {
        self.check_pe(pe)?;
        self.heap_allocs[pe].lock().free(offset)
    }

    /// Bytes free in the symmetric region.
    pub fn sym_available(&self) -> usize {
        self.sym_alloc.lock().available()
    }

    /// Bytes currently allocated in `pe`'s heap (staging-leak detection).
    ///
    /// # Errors
    /// [`FabricError::InvalidPe`] for an out-of-range `pe`.
    pub fn heap_in_use(&self, pe: usize) -> Result<usize> {
        self.check_pe(pe)?;
        Ok(self.heap_allocs[pe].lock().in_use())
    }

    /// Failure injection: stall each progress tick by `ns` nanoseconds.
    pub fn set_progress_delay_ns(&self, ns: u64) {
        self.progress_delay_ns.store(ns, Ordering::Relaxed);
    }

    /// Apply the injected progress delay (called by the runtime's progress
    /// engine; no-op unless a test armed it).
    pub fn progress_delay(&self) {
        let ns = self.progress_delay_ns.load(Ordering::Relaxed);
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }

    /// The fault-injection plane, if this fabric was built with one.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.fault.as_ref()
    }

    /// The live fabric-layer metrics registry.
    pub fn metrics(&self) -> &FabricMetrics {
        &self.metrics
    }

    /// Typed snapshot of the fabric-layer counters.
    pub fn stats(&self) -> FabricStats {
        self.metrics.snapshot()
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("num_pes", &self.num_pes())
            .field("sym_len", &self.sym_len)
            .finish()
    }
}

/// One PE's handle onto the fabric. Cloneable; clones refer to the same PE.
#[derive(Clone)]
pub struct FabricPe {
    fabric: Arc<Fabric>,
    pe: usize,
}

impl FabricPe {
    /// This PE's id.
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// World size.
    pub fn num_pes(&self) -> usize {
        self.fabric.num_pes()
    }

    /// The shared fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// RDMA put: write `src` into `dst_pe`'s arena at `offset`.
    ///
    /// # Safety
    /// The caller must guarantee no PE concurrently reads or writes the
    /// destination range (the RDMA contract — see [`Arena::write`]).
    ///
    /// # Errors
    /// [`FabricError::InvalidPe`] for an out-of-range `dst_pe`;
    /// [`FabricError::OutOfBounds`] when the range exceeds the arena.
    pub unsafe fn put(&self, dst_pe: usize, offset: usize, src: &[u8]) -> Result<()> {
        let arena = self.fabric.arena(dst_pe)?;
        if dst_pe != self.pe {
            self.fabric.model.charge(src.len());
        }
        self.fabric.metrics.record_put(src.len() as u64, self.fabric.model.inject_path(src.len()));
        // SAFETY: forwarded contract.
        unsafe { arena.write(offset, src) }
    }

    /// RDMA get: read from `src_pe`'s arena at `offset` into `dst`.
    ///
    /// # Safety
    /// The caller must guarantee no PE concurrently writes the source range.
    ///
    /// # Errors
    /// [`FabricError::InvalidPe`] for an out-of-range `src_pe`;
    /// [`FabricError::OutOfBounds`] when the range exceeds the arena.
    pub unsafe fn get(&self, src_pe: usize, offset: usize, dst: &mut [u8]) -> Result<()> {
        let arena = self.fabric.arena(src_pe)?;
        if src_pe != self.pe {
            self.fabric.model.charge(dst.len());
        }
        self.fabric.metrics.record_get(dst.len() as u64);
        // SAFETY: forwarded contract.
        unsafe { arena.read(offset, dst) }
    }

    /// Atomic view of 8 bytes in any PE's arena (safe: atomics synchronize).
    ///
    /// # Errors
    /// [`FabricError::InvalidPe`], [`FabricError::OutOfBounds`], or
    /// [`FabricError::Misaligned`] — see [`Arena::atomic_u64`].
    pub fn atomic_u64(&self, pe: usize, offset: usize) -> Result<&AtomicU64> {
        self.fabric.arena(pe)?.atomic_u64(offset)
    }

    /// Atomic view of a word in any PE's arena.
    ///
    /// # Errors
    /// As for [`FabricPe::atomic_u64`].
    pub fn atomic_usize(&self, pe: usize, offset: usize) -> Result<&AtomicUsize> {
        self.fabric.arena(pe)?.atomic_usize(offset)
    }

    /// Atomic view of one byte in any PE's arena.
    ///
    /// # Errors
    /// [`FabricError::InvalidPe`] or [`FabricError::OutOfBounds`].
    pub fn atomic_u8(&self, pe: usize, offset: usize) -> Result<&AtomicU8> {
        self.fabric.arena(pe)?.atomic_u8(offset)
    }

    /// World barrier over all PEs.
    pub fn barrier(&self) {
        self.barrier_with_progress(|| false);
    }

    /// World barrier that runs `progress` (which says whether it did work)
    /// while waiting.
    pub fn barrier_with_progress(&self, progress: impl FnMut() -> bool) {
        self.fabric.metrics.record_barrier_round();
        self.fabric.barrier.wait(&self.fabric.bells[self.pe], progress);
    }
}

impl std::fmt::Debug for FabricPe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricPe").field("pe", &self.pe).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fabric(n: usize) -> Vec<FabricPe> {
        Fabric::launch(FabricConfig {
            num_pes: n,
            sym_len: 1 << 16,
            heap_len: 1 << 16,
            net: NetConfig::disabled(),
            metrics: true,
            fault: None,
        })
    }

    #[test]
    fn put_get_between_pes() {
        let pes = small_fabric(2);
        let data = vec![7u8; 128];
        unsafe { pes[0].put(1, 64, &data).unwrap() };
        let mut out = vec![0u8; 128];
        unsafe { pes[1].get(1, 64, &mut out).unwrap() };
        assert_eq!(out, data);
        // PE0 can also read it remotely.
        let mut out0 = vec![0u8; 128];
        unsafe { pes[0].get(1, 64, &mut out0).unwrap() };
        assert_eq!(out0, data);
    }

    #[test]
    fn invalid_pe_rejected() {
        let pes = small_fabric(2);
        let mut buf = [0u8; 4];
        assert!(matches!(
            unsafe { pes[0].get(5, 0, &mut buf) },
            Err(FabricError::InvalidPe { pe: 5, num_pes: 2 })
        ));
    }

    #[test]
    fn symmetric_alloc_offsets_valid_on_all_pes() {
        let pes = small_fabric(4);
        let off = pes[0].fabric().alloc_symmetric(256, 64).unwrap();
        for pe in 0..4 {
            unsafe { pes[0].put(pe, off, &[pe as u8; 256]).unwrap() };
        }
        for pe in 0..4 {
            let mut out = [0u8; 256];
            unsafe { pes[3].get(pe, off, &mut out).unwrap() };
            assert!(out.iter().all(|&b| b == pe as u8));
        }
        pes[0].fabric().free_symmetric(off).unwrap();
        // The freed block is reused by the next same-size allocation, and
        // comes back zeroed on every PE.
        assert_eq!(pes[0].fabric().alloc_symmetric(256, 64).unwrap(), off);
        for pe in 0..4 {
            let mut out = [1u8; 256];
            unsafe { pes[3].get(pe, off, &mut out).unwrap() };
            assert!(out.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn heap_allocs_are_per_pe() {
        let pes = small_fabric(2);
        let f = pes[0].fabric();
        let a0 = f.alloc_heap(0, 1024, 8).unwrap();
        let a1 = f.alloc_heap(1, 1024, 8).unwrap();
        // Independent allocators may hand out the same offset — that's the
        // point of one-sided heaps.
        assert!(a0 >= f.sym_len());
        assert!(a1 >= f.sym_len());
        f.free_heap(0, a0).unwrap();
        f.free_heap(1, a1).unwrap();
    }

    #[test]
    fn symmetric_and_heap_do_not_overlap() {
        let pes = small_fabric(1);
        let f = pes[0].fabric();
        let s = f.alloc_symmetric(1 << 16, 1).unwrap(); // whole symmetric region
        let h = f.alloc_heap(0, 1 << 16, 1).unwrap(); // whole heap
        assert!(s + (1 << 16) <= h || h + (1 << 16) <= s);
    }

    #[test]
    fn barrier_synchronizes_pes() {
        let pes = small_fabric(4);
        let flag = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for pe in pes {
            let flag = Arc::clone(&flag);
            handles.push(std::thread::spawn(move || {
                flag.fetch_add(1, Ordering::SeqCst);
                pe.barrier();
                assert_eq!(flag.load(Ordering::SeqCst), 4);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stats_count_transfers() {
        let pes = small_fabric(2);
        unsafe { pes[0].put(1, 0, &[1, 2, 3]).unwrap() };
        let mut buf = [0u8; 3];
        unsafe { pes[1].get(1, 0, &mut buf).unwrap() };
        let stats = pes[0].fabric().stats();
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.gets, 1);
        assert_eq!(stats.bytes_put + stats.bytes_get, 6);
        // 3 bytes is well under any inject threshold.
        assert_eq!(stats.inject_puts, 1);
        assert_eq!(stats.rendezvous_puts, 0);
        assert_eq!(stats.put_sizes.count(), 1);
    }

    #[test]
    fn disabled_metrics_stay_zero() {
        let pes = Fabric::launch(FabricConfig {
            num_pes: 2,
            sym_len: 1 << 16,
            heap_len: 1 << 16,
            net: NetConfig::disabled(),
            metrics: false,
            fault: None,
        });
        unsafe { pes[0].put(1, 0, &[1, 2, 3]).unwrap() };
        pes[0].fabric().set_progress_delay_ns(0);
        let stats = pes[0].fabric().stats();
        assert_eq!(stats.puts, 0);
        assert_eq!(stats.bytes_put, 0);
    }

    #[test]
    fn barrier_rounds_are_counted() {
        let pes = small_fabric(2);
        let before = pes[0].fabric().stats().barrier_rounds;
        let peer = pes[1].clone();
        let t = std::thread::spawn(move || peer.barrier());
        pes[0].barrier();
        t.join().unwrap();
        // Both PEs entered one barrier episode: two recorded rounds.
        assert_eq!(pes[0].fabric().stats().barrier_rounds - before, 2);
    }

    #[test]
    fn armed_fault_plane_fails_allocations() {
        use crate::fault::FaultConfig;
        let pes = Fabric::launch(
            FabricConfig::new(1)
                .sym_len(1 << 16)
                .heap_len(1 << 16)
                .net(NetConfig::disabled())
                .fault(FaultConfig::seeded(13).alloc_fail_prob(1.0)),
        );
        let f = pes[0].fabric();
        // Disarmed during bootstrap: allocations succeed.
        let off = f.alloc_heap(0, 64, 8).unwrap();
        f.free_heap(0, off).unwrap();
        f.fault_plane().unwrap().arm();
        assert!(matches!(f.alloc_heap(0, 64, 8), Err(FabricError::OutOfMemory { .. })));
        assert!(matches!(f.alloc_symmetric(64, 8), Err(FabricError::OutOfMemory { .. })));
        assert_eq!(f.fault_plane().unwrap().stats().alloc_failures_injected, 2);
    }

    #[test]
    fn concurrent_atomic_flags_synchronize_data() {
        // The flag-based transfer pattern the Lamellae relies on:
        // writer: write data, release-store flag.
        // reader: acquire-load flag, then read data.
        let pes = small_fabric(2);
        let writer = pes[0].clone();
        let reader = pes[1].clone();
        let h = std::thread::spawn(move || {
            unsafe { writer.put(1, 64, &[0xab; 32]).unwrap() };
            writer.atomic_u64(1, 0).unwrap().store(1, Ordering::Release);
        });
        while reader.atomic_u64(1, 0).unwrap().load(Ordering::Acquire) == 0 {
            std::hint::spin_loop();
        }
        let mut out = [0u8; 32];
        unsafe { reader.get(1, 64, &mut out).unwrap() };
        assert_eq!(out, [0xab; 32]);
        h.join().unwrap();
    }
}
