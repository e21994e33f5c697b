//! The fabric-backed Lamellae: `Rofi` (with network cost model), `Shmem`
//! (without) and `Smp` (one PE, without) share this implementation.
//!
//! The paper's Shmem lamellae "implements all the same internal data
//! structures as the ROFI Lamellae. The key difference is that instead of
//! creating RDMA Memory Regions (via libfabrics) it simply allocates shared
//! memory segments" — in our single-process simulation the two genuinely
//! coincide, differing only in whether transfers are charged modeled
//! network costs. "From a user perspective switching between the ROFI
//! Lamellae and the Shared Memory Lamellae should be transparent."

use crate::config::Backend;
use crate::lamellae::queue::QueueTransport;
use crate::lamellae::{CommError, Lamellae, PairLiveness};
use lamellar_metrics::{FabricStats, FaultStats, LamellaeStats};
use rofi_sim::{FabricError, FabricPe};

/// A Lamellae over the simulated fabric.
pub struct FabricLamellae {
    ep: FabricPe,
    queues: QueueTransport,
    backend: Backend,
}

impl FabricLamellae {
    /// Wrap a fabric endpoint. `queue_base` is the symmetric offset of the
    /// pre-allocated queue block (see
    /// [`queue_footprint`](crate::lamellae::queue::queue_footprint)). The
    /// metrics switch and any fault plane come from the endpoint's fabric.
    pub fn new(
        ep: FabricPe,
        backend: Backend,
        queue_base: usize,
        buffer_size: usize,
        agg_threshold: usize,
    ) -> Self {
        let queues = QueueTransport::new(ep.clone(), queue_base, buffer_size, agg_threshold);
        FabricLamellae { ep, queues, backend }
    }

    /// The underlying fabric endpoint (used by memregions for atomics).
    pub fn endpoint(&self) -> &FabricPe {
        &self.ep
    }
}

impl Lamellae for FabricLamellae {
    fn my_pe(&self) -> usize {
        self.ep.pe()
    }

    fn num_pes(&self) -> usize {
        self.ep.num_pes()
    }

    fn backend(&self) -> Backend {
        self.backend
    }

    fn send_with(
        &self,
        dst: usize,
        len: usize,
        fill: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), CommError> {
        self.queues.send_with(dst, len, fill)
    }

    fn flush(&self) {
        self.queues.flush();
    }

    fn progress(&self, sink: &mut dyn FnMut(usize, &[u8])) -> bool {
        self.ep.fabric().progress_delay(); // failure-injection hook
                                           // Chunks pass through untouched: the runtime deframes and parses
                                           // envelopes in place out of the pooled receive buffer.
        self.queues.progress(sink)
    }

    fn barrier_with(&self, progress: &mut dyn FnMut()) {
        self.ep.barrier_with_progress(progress);
    }

    fn alloc_symmetric(&self, size: usize, align: usize) -> Result<usize, CommError> {
        self.ep.fabric().alloc_symmetric(size, align).map_err(map_alloc_err)
    }

    fn free_symmetric(&self, offset: usize) {
        self.ep.fabric().free_symmetric(offset).expect("invalid symmetric free");
    }

    fn alloc_heap(&self, size: usize, align: usize) -> Result<usize, CommError> {
        self.ep.fabric().alloc_heap(self.ep.pe(), size, align).map_err(map_alloc_err)
    }

    fn free_heap(&self, pe: usize, offset: usize) {
        self.ep.fabric().free_heap(pe, offset).expect("invalid heap free");
    }

    unsafe fn put(&self, pe: usize, offset: usize, src: &[u8]) {
        // SAFETY: contract forwarded to the caller.
        unsafe { self.ep.put(pe, offset, src).expect("rdma put") }
    }

    unsafe fn get(&self, pe: usize, offset: usize, dst: &mut [u8]) {
        // SAFETY: contract forwarded to the caller.
        unsafe { self.ep.get(pe, offset, dst).expect("rdma get") }
    }

    fn base_ptr(&self, pe: usize) -> *mut u8 {
        self.ep.fabric().arena(pe).expect("valid pe").base_ptr()
    }

    fn oob_put(&self, tag: u64, val: u64) {
        self.ep.fabric().oob_put(tag, val);
    }

    fn oob_get(&self, tag: u64) -> u64 {
        self.ep.fabric().oob_get(tag)
    }

    fn oob_remove(&self, tag: u64) {
        self.ep.fabric().oob_remove(tag);
    }

    fn inject_progress_delay(&self, ns: u64) {
        self.ep.fabric().set_progress_delay_ns(ns);
    }

    fn heap_in_use(&self) -> usize {
        self.ep.fabric().heap_in_use(self.ep.pe()).unwrap_or(0)
    }

    fn fabric_stats(&self) -> FabricStats {
        self.ep.fabric().stats()
    }

    fn lamellae_stats(&self) -> LamellaeStats {
        self.queues.stats()
    }

    fn take_comm_failures(&self) -> Vec<usize> {
        self.queues.take_comm_failures()
    }

    fn fault_stats(&self) -> FaultStats {
        self.ep.fabric().fault_plane().map(|p| p.stats()).unwrap_or_default()
    }

    fn pair_liveness(&self) -> Vec<PairLiveness> {
        self.queues.pair_liveness()
    }
}

/// Translate a fabric allocation failure into the lamellae-level taxonomy.
pub(crate) fn map_alloc_err(e: FabricError) -> CommError {
    match e {
        FabricError::OutOfMemory { requested, available } => {
            CommError::AllocFailed { requested, available }
        }
        // Allocation paths only fail with OutOfMemory; anything else is a
        // runtime bug worth surfacing loudly.
        other => panic!("unexpected fabric allocation error: {other:?}"),
    }
}

impl std::fmt::Debug for FabricLamellae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricLamellae")
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
        let lam = FabricLamellae::new(ep, Backend::Smp, base, 4096, 1024);
        let off = lam.alloc_heap(64, 8).unwrap();
        // SAFETY: single PE, single thread.
        unsafe {
            lam.put(0, off, &[9, 8, 7]);
            let mut out = [0u8; 3];
            lam.get(0, off, &mut out);
            assert_eq!(out, [9, 8, 7]);
        }
        lam.free_heap(0, off);
        let s = lam.alloc_symmetric(128, 8).unwrap();
        lam.free_symmetric(s);
        // Barrier is a no-op with one PE.
        lam.barrier_with(&mut || {});
        assert_eq!(lam.backend(), Backend::Smp);
    }
}
