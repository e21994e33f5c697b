//! ReadOnlyArray: "No write access is permitted. PEs are free to read from
//! anywhere in the array with no access control." (paper Sec. III-F.1)
//!
//! Because the data cannot change, a *direct RDMA get* is safe — the one
//! safe array type where remote access bypasses the AM path ("Due to the
//! non-mutable access guarantee ... we are also able to provide a direct
//! RDMA get operation (put does not exist for ReadOnlyArrays)").

use crate::distribution::Distribution;
use crate::elem::ArrayElem;
use crate::inner::{Access, RawArray};
use crate::ops::batch::{self, BatchFetchHandle, FetchOpHandle};
use crate::ops::AccessOp;
use crate::unsafe_array::UnsafeArray;
use crate::IntoTeam;
use lamellar_core::team::LamellarTeam;

/// The immutable distributed array.
pub struct ReadOnlyArray<T: ArrayElem> {
    pub(crate) raw: RawArray<T>,
    pub(crate) team: LamellarTeam,
    pub(crate) batch_limit: usize,
}

crate::ops::impl_array_common!(ReadOnlyArray);

impl<T: ArrayElem> ReadOnlyArray<T> {
    /// Collectively construct a zero-initialized read-only array. (More
    /// commonly obtained by filling an [`UnsafeArray`] and converting.)
    ///
    /// Panics if one PE would hold more than 2^32 elements (4 Gi; batched
    /// ops carry `u32` local offsets), far beyond the default 64 MiB
    /// symmetric region.
    pub fn new(team: &impl IntoTeam, len: usize, dist: Distribution) -> Self {
        UnsafeArray::new(team, len, dist).into_read_only()
    }

    pub(crate) fn from_parts(raw: RawArray<T>, team: LamellarTeam, batch_limit: usize) -> Self {
        ReadOnlyArray { raw, team, batch_limit }
    }

    /// Borrow the calling PE's local block. Safe: no handle anywhere can
    /// write.
    pub fn local_as_slice(&self) -> &[T] {
        // SAFETY: ReadOnly arrays are created through a conversion that
        // guaranteed unique ownership, and no API writes afterwards.
        let full = unsafe { self.raw.region.as_slice() };
        &full[..self.raw.layout.local_len(self.raw.my_rank())]
    }

    /// Read the element at global `index` (AM-routed).
    pub fn load(&self, index: usize) -> FetchOpHandle<T> {
        batch::scalar(batch::batch_access(
            &self.raw,
            self.batch_limit,
            AccessOp::Load,
            vec![index],
            None,
            true,
        ))
    }

    /// Read many elements, aggregated by owning PE — the core call of the
    /// paper's IndexGather kernel: `table.batch_load(rnd_idxs)`.
    pub fn batch_load(&self, indices: Vec<usize>) -> BatchFetchHandle<T> {
        batch::batch_access(&self.raw, self.batch_limit, AccessOp::Load, indices, None, true)
    }

    /// Bulk contiguous read via **direct RDMA** (safe because the data is
    /// immutable). Completes synchronously.
    pub fn get_direct(&self, start: usize, out: &mut [T]) {
        assert!(start + out.len() <= self.raw.len(), "get_direct out of bounds");
        let mut i = 0;
        for (rank, local, run) in self.raw.runs(start, out.len()) {
            // SAFETY: no writer can exist for a ReadOnlyArray.
            unsafe {
                self.raw.region.get(self.raw.pe_of_rank(rank), local, &mut out[i..i + run]);
            }
            i += run;
        }
    }

    /// RDMA-like async `get` through the AM path (paper Sec. III-F.2).
    pub fn get(&self, start: usize, n: usize) -> BatchFetchHandle<T> {
        batch::range_get(&self.raw, start, n)
    }

    /// Collective conversion back to an [`UnsafeArray`].
    pub fn into_unsafe(self) -> UnsafeArray<T> {
        let ReadOnlyArray { mut raw, team, batch_limit } = self;
        team.barrier();
        raw.wait_unique(&team);
        raw.access = Access::Unsafe;
        team.barrier();
        UnsafeArray::from_parts(raw, team, batch_limit)
    }

    /// Collective conversion to an [`crate::atomic::AtomicArray`].
    pub fn into_atomic(self) -> crate::atomic::AtomicArray<T> {
        self.into_unsafe().into_atomic()
    }

    /// Collective conversion to a [`crate::local_lock::LocalLockArray`].
    pub fn into_local_lock(self) -> crate::local_lock::LocalLockArray<T> {
        self.into_unsafe().into_local_lock()
    }
}
