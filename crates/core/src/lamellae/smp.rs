//! The SMP Lamellae: single-process, single-PE (paper Sec. III-A.3).
//!
//! "The SMP Lamellae targets single-process multi-threaded applications
//! where there is only one PE. No data transfer needs to occur, so there is
//! no (de)serialization."
//!
//! The runtime already executes PE-local AMs without serialization (the
//! fast path in [`crate::runtime`]), so this Lamellae's queue machinery is
//! nearly idle; a plain local mailbox covers the rare envelope that does go
//! through `send_with` (e.g. tests forcing the wire path). One deviation from
//! the paper, noted here per DESIGN.md: allocations still come from a 1-PE
//! fabric arena rather than the global allocator, so that memory regions
//! and arrays behave identically across all three backends ("applications
//! first written using only the SMP Lamellae will execute successfully on
//! both the Shmem and ROFI Lamellaes").

use crate::config::Backend;
use crate::lamellae::fabric_backend::map_alloc_err;
use crate::lamellae::{CommError, Lamellae};
use parking_lot::Mutex;
use rofi_sim::FabricPe;
use std::collections::VecDeque;

/// Single-PE loopback Lamellae.
pub struct SmpLamellae {
    ep: FabricPe,
    mailbox: Mutex<VecDeque<Vec<u8>>>,
    /// Drained mailbox buffers waiting for reuse (the SMP analogue of the
    /// queue transport's `BufferPool`).
    spare: Mutex<Vec<Vec<u8>>>,
}

impl SmpLamellae {
    /// Wrap a 1-PE fabric endpoint.
    pub fn new(ep: FabricPe) -> Self {
        assert_eq!(ep.num_pes(), 1, "the SMP lamellae supports exactly one PE");
        SmpLamellae { ep, mailbox: Mutex::new(VecDeque::new()), spare: Mutex::new(Vec::new()) }
    }
}

impl Lamellae for SmpLamellae {
    fn my_pe(&self) -> usize {
        0
    }

    fn num_pes(&self) -> usize {
        1
    }

    fn backend(&self) -> Backend {
        Backend::Smp
    }

    fn send_with(
        &self,
        dst: usize,
        len: usize,
        fill: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), CommError> {
        assert_eq!(dst, 0, "SMP world has a single PE");
        // Loopback: deframe happens in progress, matching the other
        // backends' observable behavior. Buffers cycle through `spare`.
        let mut buf = self.spare.lock().pop().unwrap_or_default();
        buf.clear();
        buf.reserve(len);
        fill(&mut buf);
        self.mailbox.lock().push_back(buf);
        Ok(())
    }

    fn flush(&self) {}

    fn progress(&self, sink: &mut dyn FnMut(usize, &[u8])) -> bool {
        let mut any = false;
        loop {
            let Some(raw) = self.mailbox.lock().pop_front() else { break };
            sink(0, &raw);
            self.spare.lock().push(raw);
            any = true;
        }
        any
    }

    fn barrier_with(&self, _progress: &mut dyn FnMut()) {
        // One PE: a barrier is a no-op.
    }

    fn alloc_symmetric(&self, size: usize, align: usize) -> Result<usize, CommError> {
        self.ep.fabric().alloc_symmetric(size, align).map_err(map_alloc_err)
    }

    fn free_symmetric(&self, offset: usize) {
        self.ep.fabric().free_symmetric(offset).expect("invalid symmetric free");
    }

    fn alloc_heap(&self, size: usize, align: usize) -> Result<usize, CommError> {
        self.ep.fabric().alloc_heap(0, size, align).map_err(map_alloc_err)
    }

    fn free_heap(&self, pe: usize, offset: usize) {
        self.ep.fabric().free_heap(pe, offset).expect("invalid heap free");
    }

    unsafe fn put(&self, pe: usize, offset: usize, src: &[u8]) {
        // SAFETY: contract forwarded to the caller.
        unsafe { self.ep.put(pe, offset, src).expect("local put") }
    }

    unsafe fn get(&self, pe: usize, offset: usize, dst: &mut [u8]) {
        // SAFETY: contract forwarded to the caller.
        unsafe { self.ep.get(pe, offset, dst).expect("local get") }
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

    fn heap_in_use(&self) -> usize {
        self.ep.fabric().heap_in_use(0).unwrap_or(0)
    }
}

impl std::fmt::Debug for SmpLamellae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SmpLamellae")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lamellae::Lamellae;
    use crate::proto::{frame, Envelope};
    use rofi_sim::fabric::{Fabric, FabricConfig};
    use rofi_sim::NetConfig;

    fn smp() -> SmpLamellae {
        let mut eps = Fabric::launch(FabricConfig {
            num_pes: 1,
            sym_len: 1 << 16,
            heap_len: 1 << 14,
            net: NetConfig::disabled(),
            metrics: true,
            fault: None,
        });
        SmpLamellae::new(eps.pop().unwrap())
    }

    #[test]
    fn loopback_send_deframes_on_progress() {
        let lam = smp();
        let env = Envelope::Reply(7, vec![1, 2, 3]);
        let mut buf = Vec::new();
        frame(&env, &mut buf);
        frame(&Envelope::FreeHeap(9), &mut buf);
        lam.send_with(0, buf.len(), &mut |b| b.extend_from_slice(&buf)).unwrap();
        let mut got = Vec::new();
        assert!(lam.progress(&mut |src, chunk| {
            assert_eq!(src, 0);
            got.extend(crate::proto::deframe(chunk));
        }));
        assert_eq!(got, vec![env, Envelope::FreeHeap(9)]);
        // Drained: nothing more.
        assert!(!lam.progress(&mut |_, _| panic!("no more messages")));
    }

    #[test]
    fn loopback_recycles_mailbox_buffers() {
        let lam = smp();
        let mut buf = Vec::new();
        frame(&Envelope::FreeHeap(1), &mut buf);
        for _ in 0..10 {
            lam.send_with(0, buf.len(), &mut |b| b.extend_from_slice(&buf)).unwrap();
            assert!(lam.progress(&mut |_, _| {}));
        }
        // One buffer cycles send → mailbox → spare the whole time.
        assert_eq!(lam.spare.lock().len(), 1);
    }

    #[test]
    fn smp_memory_ops_are_local() {
        let lam = smp();
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

    #[test]
    #[should_panic(expected = "exactly one PE")]
    fn smp_rejects_multi_pe_fabric() {
        let mut eps = Fabric::launch(FabricConfig {
            num_pes: 2,
            sym_len: 1 << 12,
            heap_len: 1 << 12,
            net: NetConfig::disabled(),
            metrics: true,
            fault: None,
        });
        let _ = SmpLamellae::new(eps.pop().unwrap());
    }
}
