//! The shared core of every array type: region + layout + safety mode.
//!
//! `RawArray` is what actually travels inside the runtime's internal AMs
//! (serialized as a trackable-object reference, like the Darc it builds
//! on). The typed wrappers (`UnsafeArray`, `AtomicArray`, …) add the
//! user-facing API and the team handle.

use crate::distribution::{Distribution, Layout};
use crate::elem::ArrayElem;
use lamellar_codec::{Codec, CodecError, Reader};
use lamellar_core::darc::Darc;
use lamellar_core::memregion::SharedMemoryRegion;
use lamellar_core::team::LamellarTeam;
use lamellar_executor::Side;
use parking_lot::RwLock;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicU8;

/// The data-access safety mode of an array (paper Sec. III-F.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// No guarantees; direct RDMA; `unsafe` API.
    Unsafe,
    /// No writes permitted; direct RDMA gets are safe.
    ReadOnly,
    /// Element-wise atomicity (native atomics or 1-byte locks).
    Atomic,
    /// One RwLock over each PE's whole block.
    LocalLock,
}

lamellar_codec::impl_codec_enum!(Access { Unsafe, ReadOnly, Atomic, LocalLock });

/// The untyped-safety core shared by all array types.
pub struct RawArray<T: ArrayElem> {
    pub(crate) region: SharedMemoryRegion<T>,
    pub(crate) layout: Layout,
    pub(crate) access: Access,
    /// 1-byte element locks (GenericAtomicArray path); allocated when the
    /// element type lacks native atomics or generic mode is forced.
    pub(crate) locks: Option<SharedMemoryRegion<u8>>,
    /// Per-PE whole-block lock (LocalLockArray); each PE's Darc instance is
    /// its own lock, "a single locally constructed RwLock".
    pub(crate) local_lock: Option<Darc<RwLock<()>>>,
    /// Ablation switch: use the 1-byte-lock path even for native types.
    pub(crate) force_generic: bool,
    /// Sub-array view: start offset in parent-global coordinates…
    pub(crate) view_offset: usize,
    /// …and view length.
    pub(crate) view_len: usize,
}

impl<T: ArrayElem> Clone for RawArray<T> {
    fn clone(&self) -> Self {
        RawArray {
            region: self.region.clone(),
            layout: self.layout,
            access: self.access,
            locks: self.locks.clone(),
            local_lock: self.local_lock.clone(),
            force_generic: self.force_generic,
            view_offset: self.view_offset,
            view_len: self.view_len,
        }
    }
}

impl<T: ArrayElem> RawArray<T> {
    /// Collectively construct a zero-initialized array over `team`.
    pub(crate) fn new(
        team: &LamellarTeam,
        glen: usize,
        dist: Distribution,
        access: Access,
        force_generic: bool,
    ) -> Self {
        let layout = Layout::new(glen, team.num_pes(), dist);
        // Same-size block on every PE: the max local length.
        let region = team.alloc_shared_mem_region::<T>(layout.max_local_len());
        let needs_locks = access == Access::Atomic && (!T::NATIVE_ATOMIC || force_generic);
        let locks = needs_locks.then(|| team.alloc_shared_mem_region::<u8>(layout.max_local_len()));
        let local_lock = (access == Access::LocalLock).then(|| Darc::new(team, RwLock::new(())));
        team.barrier();
        RawArray {
            region,
            layout,
            access,
            locks,
            local_lock,
            force_generic,
            view_offset: 0,
            view_len: glen,
        }
    }

    /// Elements visible through this handle (the sub-array view length).
    pub fn len(&self) -> usize {
        self.view_len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.view_len == 0
    }

    /// Whether the atomic path uses native atomics.
    pub fn atomic_is_native(&self) -> bool {
        T::NATIVE_ATOMIC && !self.force_generic
    }

    /// Map a view-global index to `(team_rank, local_offset)`.
    pub(crate) fn locate(&self, i: usize) -> (usize, usize) {
        assert!(i < self.view_len, "index {i} out of bounds (len {})", self.view_len);
        self.layout.locate(i + self.view_offset)
    }

    /// Number of *view* elements on team rank `rank`, along with the local
    /// range they occupy. For Block views this is a contiguous local range;
    /// for Cyclic it is every local slot whose global index is in view.
    pub(crate) fn local_len_of(&self, rank: usize) -> usize {
        self.local_view_indices(rank).count()
    }

    /// Iterate `(local_offset, view_global_index)` pairs owned by `rank`
    /// within this view.
    pub(crate) fn local_view_indices(
        &self,
        rank: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let start = self.view_offset;
        let end = self.view_offset + self.view_len;
        (0..self.layout.local_len(rank)).filter_map(move |local| {
            let g = self.layout.global_of(rank, local);
            (g >= start && g < end).then(|| (local, g - start))
        })
    }

    /// Base pointer of the *local* block (this PE's rank).
    pub(crate) fn local_base(&self) -> *mut T {
        // SAFETY: we only materialize the pointer; dereferences happen in
        // the op-application code under the array's safety mode.
        unsafe { self.region.as_mut_slice().as_mut_ptr() }
    }

    /// The 1-byte lock guarding local slot `local` (generic-atomic path).
    pub(crate) fn lock_byte(&self, local: usize) -> &AtomicU8 {
        let locks = self.locks.as_ref().expect("generic atomic array has a lock region");
        // SAFETY: the locks block is live and `local` is bounds-checked by
        // callers against local_len; AtomicU8 tolerates full aliasing.
        unsafe {
            let base = locks.as_mut_slice().as_mut_ptr();
            &*(base.add(local) as *const AtomicU8)
        }
    }

    /// The team rank of the calling PE.
    pub(crate) fn my_rank(&self) -> usize {
        // The region's team PEs are the layout's ranks in order.
        let me = self.region.rt().pe();
        self.region
            .team_pes()
            .binary_search(&me)
            .expect("array op executing on a PE outside the array's team")
    }

    /// World PE id of team rank `rank`.
    pub(crate) fn pe_of_rank(&self, rank: usize) -> usize {
        self.region.team_pes()[rank]
    }

    /// Decompose the view-range `start..start+len` into maximal
    /// owner-contiguous runs `(rank, local_start, run_len)` — O(#runs)
    /// instead of O(len) (bulk transfers of megabytes must not pay
    /// per-element index math).
    pub(crate) fn runs(&self, start: usize, len: usize) -> Vec<(usize, usize, usize)> {
        assert!(start + len <= self.view_len, "range out of bounds");
        let mut out = Vec::new();
        let mut i = 0;
        while i < len {
            let (rank, local) = self.locate(start + i);
            let run = match self.layout.dist {
                // Consecutive globals stay consecutive locals within a
                // rank's block.
                Distribution::Block => (self.layout.local_len(rank) - local).min(len - i),
                // Consecutive globals hop ranks every element.
                Distribution::Cyclic => 1,
            };
            debug_assert!(run >= 1);
            out.push((rank, local, run));
            i += run;
        }
        out
    }

    /// Narrow the view to `start..end` (view coordinates).
    pub(crate) fn sub_view(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.view_len, "sub-array {start}..{end} out of bounds");
        let mut out = self.clone();
        out.view_offset = self.view_offset + start;
        out.view_len = end - start;
        out
    }

    /// Wait until this PE's handle is the only one anywhere (plus the other
    /// PEs' own single handles) — the paper's conversion precondition:
    /// "a blocking call that only succeeds when there is precisely one
    /// reference to the array on each PE". A dropped handle rings nothing:
    /// this re-checks at the doorbell's `PARK_CAP`.
    pub(crate) fn wait_unique(&self, team: &LamellarTeam) {
        let expected = team.num_pes();
        team.rt().lamellae().doorbell().wait_until(Side::Wire, || {
            if self.region.handle_count() > expected {
                ControlFlow::Continue(false)
            } else {
                ControlFlow::Break(())
            }
        })
    }
}

impl<T: ArrayElem> Codec for RawArray<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.region.encode(buf);
        self.layout.encode(buf);
        self.access.encode(buf);
        self.locks.encode(buf);
        self.local_lock.encode(buf);
        self.force_generic.encode(buf);
        self.view_offset.encode(buf);
        self.view_len.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        // `region` (and the lock Darcs) pin on encode — size without
        // encoding so the hot send path can pre-reserve its frame.
        self.region.encoded_len()
            + self.layout.encoded_len()
            + self.access.encoded_len()
            + self.locks.encoded_len()
            + self.local_lock.encoded_len()
            + self.force_generic.encoded_len()
            + self.view_offset.encoded_len()
            + self.view_len.encoded_len()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawArray {
            region: SharedMemoryRegion::decode(r)?,
            layout: Layout::decode(r)?,
            access: Access::decode(r)?,
            locks: Option::decode(r)?,
            local_lock: Option::decode(r)?,
            force_generic: bool::decode(r)?,
            view_offset: usize::decode(r)?,
            view_len: usize::decode(r)?,
        })
    }
}

impl<T: ArrayElem> std::fmt::Debug for RawArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawArray")
            .field("len", &self.view_len)
            .field("layout", &self.layout)
            .field("access", &self.access)
            .finish()
    }
}
