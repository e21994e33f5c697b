//! Low-level PGAS abstractions: memory regions (paper Sec. III-D).
//!
//! These are the *unsafe* tier of Lamellar's two-level PGAS design:
//! "Low-level abstractions are designed for internal use by the runtime
//! itself. They provide fewer safeguards, and their use by end users is
//! discouraged." The safe tier (LamellarArrays) is built on top of these in
//! the `lamellar-array` crate.
//!
//! * [`SharedMemoryRegion`] — collectively allocated, same-size block on
//!   every team PE; put/get address any member's block.
//! * [`OneSidedMemoryRegion`] — allocated by one PE from its dynamic heap;
//!   put/get always address the constructing PE.
//!
//! Both are "specialized types of distributed atomically reference counted
//! objects (Darcs)": they can be sent in AMs, and their RDMA memory is
//! released only when the last handle anywhere (or in flight) drops.

use crate::lamellae::CommError;
use crate::runtime::{current_rt, RuntimeInner};
use crate::team::LamellarTeam;
use crate::world::WorldShared;
use lamellar_codec::{Codec, CodecError, Reader};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::{Arc, Weak};

/// Element types that may live in RDMA memory and cross PEs as raw bytes.
///
/// # Safety
/// Implementors must be plain-old-data: every bit pattern the type's
/// `put`/`get` peers can produce must be a valid value, and the type must
/// contain no pointers/references/padding whose reinterpretation across PEs
/// would be unsound. The provided impls cover the primitive numeric types.
pub unsafe trait Dist: Copy + Send + Sync + 'static {}

macro_rules! impl_dist {
    ($($t:ty),*) => {
        $(
            // SAFETY: primitive numeric types are valid for every bit
            // pattern and contain no indirection.
            unsafe impl Dist for $t {}
        )*
    };
}

impl_dist!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

// SAFETY: arrays of POD are POD.
unsafe impl<T: Dist, const N: usize> Dist for [T; N] {}

/// Backing state for a shared region; dropping the last handle releases the
/// symmetric allocation on every PE.
struct SharedRegionState {
    id: u64,
    offset: usize,
    /// Block size per PE (kept for diagnostics/Debug).
    #[allow(dead_code)]
    bytes_per_pe: usize,
    shared: Weak<WorldShared>,
    /// Any member's runtime works for freeing symmetric memory (the
    /// allocator is shared); we keep rank 0's.
    rt: Arc<RuntimeInner>,
    team_pes: Vec<usize>,
}

impl Drop for SharedRegionState {
    fn drop(&mut self) {
        self.rt.lamellae().free_symmetric(self.offset);
        if let Some(shared) = self.shared.upgrade() {
            shared.unregister_trackable(self.id);
        }
    }
}

/// A same-size RDMA block on every PE of a team (paper Sec. III-D.1).
///
/// "Although creating a new SharedMemoryRegion is a collective blocking
/// call it only blocks the calling thread, allowing the thread pool to
/// execute other tasks."
pub struct SharedMemoryRegion<T: Dist> {
    state: Arc<SharedRegionState>,
    /// The holder's runtime (put/get issue from here, so transfer charging
    /// and local access use the right PE).
    rt: Arc<RuntimeInner>,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Dist> SharedMemoryRegion<T> {
    /// Collectively allocate `len` elements per PE over `team`.
    pub(crate) fn new(team: LamellarTeam, len: usize) -> Self {
        let rt = Arc::clone(team.rt());
        let bytes = (len * std::mem::size_of::<T>()).max(1);
        let align = std::mem::align_of::<T>().max(8);
        // Root allocates from the shared symmetric allocator ("the
        // allocation occurs directly from the underlying network fabric")
        // and publishes the state.
        let shared = Arc::clone(rt.shared());
        let root_rt = Arc::clone(&rt);
        let team_pes = team.pes().to_vec();
        let state = team.exchange_object(0, move || {
            // Collective construction cannot propagate a Result (every
            // member is already committed to the exchange), so exhaustion
            // panics — but through the typed error, not a bare expect.
            let offset = root_rt
                .lamellae()
                .alloc_symmetric(bytes, align)
                .unwrap_or_else(|e| panic!("shared region allocation: {e}"));
            let id = shared.new_trackable_id();
            SharedRegionState {
                id,
                offset,
                bytes_per_pe: bytes,
                shared: Arc::downgrade(&shared),
                rt: root_rt,
                team_pes,
            }
        });
        if team.my_rank() == 0 {
            rt.shared().register_trackable(
                state.id,
                Arc::downgrade(&state) as Weak<dyn Any + Send + Sync>,
            );
        }
        team.barrier();
        SharedMemoryRegion { state, rt, len, _marker: PhantomData }
    }

    /// Elements per PE.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// World PE ids of the owning team.
    pub fn team_pes(&self) -> &[usize] {
        &self.state.team_pes
    }

    /// Arena byte offset of element `index` (identical on every member PE).
    #[doc(hidden)]
    pub fn raw_offset(&self, index: usize) -> usize {
        assert!(index <= self.len, "index {index} out of bounds (len {})", self.len);
        self.state.offset + index * std::mem::size_of::<T>()
    }

    fn check_range(&self, index: usize, n: usize) {
        assert!(
            index + n <= self.len,
            "range [{index}, {}) out of bounds (len {})",
            index + n,
            self.len
        );
    }

    /// Write `src` into `dst_pe`'s block starting at element `index` —
    /// `fn put(dest_pe, index, src_buf)` from the paper.
    ///
    /// # Safety
    /// No PE may concurrently access the destination elements ("there are
    /// no protections against remote PEs writing to local data").
    pub unsafe fn put(&self, dst_pe: usize, index: usize, src: &[T]) {
        self.check_range(index, src.len());
        let bytes = unsafe {
            std::slice::from_raw_parts(src.as_ptr() as *const u8, std::mem::size_of_val(src))
        };
        // SAFETY: bounds checked against the allocation; data-race freedom
        // is the caller's contract.
        unsafe { self.rt.lamellae().put(dst_pe, self.raw_offset(index), bytes) };
    }

    /// Read from `src_pe`'s block starting at element `index` into `dst` —
    /// `fn get(src_pe, index, dst_buf)` from the paper.
    ///
    /// # Safety
    /// No PE may concurrently write the source elements.
    pub unsafe fn get(&self, src_pe: usize, index: usize, dst: &mut [T]) {
        self.check_range(index, dst.len());
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(dst.as_mut_ptr() as *mut u8, std::mem::size_of_val(dst))
        };
        // SAFETY: bounds checked; no-concurrent-writer is the caller's
        // contract.
        unsafe { self.rt.lamellae().get(src_pe, self.raw_offset(index), bytes) }.expect("rdma get");
    }

    /// Borrow the local PE's block.
    ///
    /// # Safety
    /// No PE may write the block for the returned lifetime.
    pub unsafe fn as_slice(&self) -> &[T] {
        let base = self.rt.lamellae().base_ptr(self.rt.pe());
        // SAFETY: the allocation is live (we hold the state) and in bounds.
        unsafe { std::slice::from_raw_parts(base.add(self.state.offset) as *const T, self.len) }
    }

    /// Mutably borrow the local PE's block.
    ///
    /// # Safety
    /// No PE may access the block for the returned lifetime.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice(&self) -> &mut [T] {
        let base = self.rt.lamellae().base_ptr(self.rt.pe());
        // SAFETY: as above, with exclusivity from the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(base.add(self.state.offset) as *mut T, self.len) }
    }

    /// The holder's runtime (array layer plumbing).
    #[doc(hidden)]
    pub fn rt(&self) -> &Arc<RuntimeInner> {
        &self.rt
    }

    /// Number of live handles (plus in-flight serialized references) across
    /// *all* PEs. The array layer's type conversions use this to implement
    /// the paper's rule that conversion "only succeeds when there is
    /// precisely one reference to the array on each PE".
    pub fn handle_count(&self) -> usize {
        // The registry holds only a Weak; every clone holds one strong ref.
        Arc::strong_count(&self.state)
    }
}

impl<T: Dist> Clone for SharedMemoryRegion<T> {
    fn clone(&self) -> Self {
        SharedMemoryRegion {
            state: Arc::clone(&self.state),
            rt: Arc::clone(&self.rt),
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: Dist> Codec for SharedMemoryRegion<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        if let Some(shared) = self.state.shared.upgrade() {
            shared.pin_trackable(
                self.state.id,
                Arc::clone(&self.state) as Arc<dyn Any + Send + Sync>,
            );
        }
        self.state.id.encode(buf);
        self.len.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        // Pure arithmetic: `encode` pins the region (side effect), so the
        // encode-and-measure default must not run for sizing. u64 id + len.
        8 + 8
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = u64::decode(r)?;
        let len = usize::decode(r)?;
        let rt = current_rt().expect("SharedMemoryRegion decoded outside a runtime context");
        let state = rt
            .shared()
            .lookup_trackable(id)
            .ok_or(CodecError::UnknownTypeHash(id))?
            .downcast::<SharedRegionState>()
            .map_err(|_| CodecError::UnknownTypeHash(id))?;
        rt.shared().unpin_trackable(id);
        Ok(SharedMemoryRegion { state, rt, len, _marker: PhantomData })
    }
}

impl<T: Dist> std::fmt::Debug for SharedMemoryRegion<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemoryRegion")
            .field("id", &self.state.id)
            .field("len", &self.len)
            .field("offset", &self.state.offset)
            .finish()
    }
}

/// Backing state for a one-sided region.
struct OneSidedState {
    id: u64,
    origin_pe: usize,
    offset: usize,
    shared: Weak<WorldShared>,
    rt: Arc<RuntimeInner>,
}

impl Drop for OneSidedState {
    fn drop(&mut self) {
        // A `Drop` must not panic; a free that fails finds nothing left to
        // release.
        let _ = self.rt.lamellae().free_heap(self.origin_pe, self.offset);
        if let Some(shared) = self.shared.upgrade() {
            shared.unregister_trackable(self.id);
        }
    }
}

/// An RDMA block allocated by (and addressing) a single PE (paper
/// Sec. III-D.2): "only the calling PE is involved in the allocation ...
/// The put/get will always refer to the original constructing PE."
pub struct OneSidedMemoryRegion<T: Dist> {
    state: Arc<OneSidedState>,
    rt: Arc<RuntimeInner>,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Dist> OneSidedMemoryRegion<T> {
    /// Allocate `len` elements on the calling PE's dynamic heap ("the
    /// runtime can often allocate the memory directly from its internal
    /// RDMA memory heap"). Panics with the typed allocation error on heap
    /// exhaustion; use [`OneSidedMemoryRegion::try_new`] to handle it.
    pub(crate) fn new(rt: Arc<RuntimeInner>, len: usize) -> Self {
        Self::try_new(rt, len).unwrap_or_else(|e| panic!("one-sided region allocation: {e}"))
    }

    /// Fallible [`OneSidedMemoryRegion::new`]: surfaces heap exhaustion
    /// (genuine, or injected by an armed fault plane) instead of panicking.
    ///
    /// # Errors
    /// [`CommError::AllocFailed`] when the PE's one-sided heap cannot fit
    /// `len` elements.
    pub(crate) fn try_new(rt: Arc<RuntimeInner>, len: usize) -> Result<Self, CommError> {
        let bytes = (len * std::mem::size_of::<T>()).max(1);
        let align = std::mem::align_of::<T>().max(8);
        let offset = rt.lamellae().alloc_heap(bytes, align)?;
        let shared = rt.shared();
        let id = shared.new_trackable_id();
        let state = Arc::new(OneSidedState {
            id,
            origin_pe: rt.pe(),
            offset,
            shared: Arc::downgrade(shared),
            rt: Arc::clone(&rt),
        });
        shared.register_trackable(id, Arc::downgrade(&state) as Weak<dyn Any + Send + Sync>);
        Ok(OneSidedMemoryRegion { state, rt, len, _marker: PhantomData })
    }

    /// Elements in the region.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The PE whose memory this region occupies.
    pub fn origin_pe(&self) -> usize {
        self.state.origin_pe
    }

    fn check_range(&self, index: usize, n: usize) {
        assert!(
            index + n <= self.len,
            "range [{index}, {}) out of bounds (len {})",
            index + n,
            self.len
        );
    }

    /// Write `src` at element `index` of the origin PE's block (no
    /// destination PE argument — one-sided).
    ///
    /// # Safety
    /// No PE may concurrently access the destination elements.
    pub unsafe fn put(&self, index: usize, src: &[T]) {
        self.check_range(index, src.len());
        let bytes = unsafe {
            std::slice::from_raw_parts(src.as_ptr() as *const u8, std::mem::size_of_val(src))
        };
        let off = self.state.offset + index * std::mem::size_of::<T>();
        // SAFETY: bounds checked; race freedom is the caller's contract.
        unsafe { self.rt.lamellae().put(self.state.origin_pe, off, bytes) };
    }

    /// Read from element `index` of the origin PE's block into `dst`.
    ///
    /// # Safety
    /// No PE may concurrently write the source elements.
    pub unsafe fn get(&self, index: usize, dst: &mut [T]) {
        self.check_range(index, dst.len());
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(dst.as_mut_ptr() as *mut u8, std::mem::size_of_val(dst))
        };
        let off = self.state.offset + index * std::mem::size_of::<T>();
        // SAFETY: bounds checked; no-concurrent-writer is the caller's
        // contract.
        unsafe { self.rt.lamellae().get(self.state.origin_pe, off, bytes) }.expect("rdma get");
    }

    /// Borrow the block directly (only on the origin PE).
    ///
    /// # Safety
    /// No PE may write the block for the returned lifetime.
    pub unsafe fn as_slice(&self) -> &[T] {
        assert_eq!(
            self.rt.pe(),
            self.state.origin_pe,
            "direct access only on the origin PE; use get() remotely"
        );
        let base = self.rt.lamellae().base_ptr(self.state.origin_pe);
        // SAFETY: live allocation, in bounds; immutability from the
        // caller's contract.
        unsafe { std::slice::from_raw_parts(base.add(self.state.offset) as *const T, self.len) }
    }

    /// Mutably borrow the block (only on the origin PE).
    ///
    /// # Safety
    /// No PE may access the block for the returned lifetime.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice(&self) -> &mut [T] {
        assert_eq!(
            self.rt.pe(),
            self.state.origin_pe,
            "direct access only on the origin PE; use put()/get() remotely"
        );
        let base = self.rt.lamellae().base_ptr(self.state.origin_pe);
        // SAFETY: as above with exclusivity from the caller.
        unsafe { std::slice::from_raw_parts_mut(base.add(self.state.offset) as *mut T, self.len) }
    }
}

impl<T: Dist> Clone for OneSidedMemoryRegion<T> {
    fn clone(&self) -> Self {
        OneSidedMemoryRegion {
            state: Arc::clone(&self.state),
            rt: Arc::clone(&self.rt),
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: Dist> Codec for OneSidedMemoryRegion<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        if let Some(shared) = self.state.shared.upgrade() {
            shared.pin_trackable(
                self.state.id,
                Arc::clone(&self.state) as Arc<dyn Any + Send + Sync>,
            );
        }
        self.state.id.encode(buf);
        self.len.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        // Pure arithmetic — see `SharedMemoryRegion::encoded_len`.
        8 + 8
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = u64::decode(r)?;
        let len = usize::decode(r)?;
        let rt = current_rt().expect("OneSidedMemoryRegion decoded outside a runtime context");
        let state = rt
            .shared()
            .lookup_trackable(id)
            .ok_or(CodecError::UnknownTypeHash(id))?
            .downcast::<OneSidedState>()
            .map_err(|_| CodecError::UnknownTypeHash(id))?;
        rt.shared().unpin_trackable(id);
        Ok(OneSidedMemoryRegion { state, rt, len, _marker: PhantomData })
    }
}

impl<T: Dist> std::fmt::Debug for OneSidedMemoryRegion<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneSidedMemoryRegion")
            .field("id", &self.state.id)
            .field("origin_pe", &self.state.origin_pe)
            .field("len", &self.len)
            .finish()
    }
}
