//! UnsafeArray: "No Safety guarantees; PEs are free to read/write anywhere
//! in the array with no access control. Similar to Memory Regions,
//! UnsafeArrays are intended for internal use, but are exposed to users and
//! marked *unsafe*." (paper Sec. III-F.1)
//!
//! Every data-touching method here is an `unsafe fn`: nothing stops another
//! PE from racing the access. The safe array types are obtained by
//! converting ([`UnsafeArray::into_read_only`], [`UnsafeArray::into_atomic`],
//! [`UnsafeArray::into_local_lock`]).

use crate::atomic::AtomicArray;
use crate::distribution::Distribution;
use crate::elem::{ArithElem, ArrayElem};
use crate::inner::{Access, RawArray};
use crate::local_lock::LocalLockArray;
use crate::ops::batch::{self, ArrayOpHandle, BatchCasHandle, BatchFetchHandle, FetchOpHandle};
use crate::ops::{AccessOp, ArithOp, BatchValues};
use crate::read_only::ReadOnlyArray;
use crate::IntoTeam;
use lamellar_core::team::LamellarTeam;

/// The no-guarantees array type.
pub struct UnsafeArray<T: ArrayElem> {
    pub(crate) raw: RawArray<T>,
    pub(crate) team: LamellarTeam,
    pub(crate) batch_limit: usize,
}

crate::ops::impl_array_common!(UnsafeArray);

impl<T: ArrayElem> UnsafeArray<T> {
    /// Collectively construct a zero-initialized array of `len` elements
    /// distributed over `team` ("constructing an array is a blocking and
    /// collective operation with all PEs on a team").
    ///
    /// Panics if one PE would hold more than 2^32 elements (4 Gi; batched
    /// ops carry `u32` local offsets), far beyond the default 64 MiB
    /// symmetric region.
    pub fn new(team: &impl IntoTeam, len: usize, dist: Distribution) -> Self {
        let team = team.to_team();
        let raw = RawArray::new(&team, len, dist, Access::Unsafe, false);
        UnsafeArray { raw, team, batch_limit: batch::DEFAULT_BATCH_LIMIT }
    }

    pub(crate) fn from_parts(raw: RawArray<T>, team: LamellarTeam, batch_limit: usize) -> Self {
        UnsafeArray { raw, team, batch_limit }
    }

    /// Borrow the calling PE's local block.
    ///
    /// # Safety
    /// No PE may write the block for the returned lifetime.
    pub unsafe fn local_as_slice(&self) -> &[T] {
        // SAFETY: forwarded contract; the slice covers this PE's block.
        let full = unsafe { self.raw.region.as_slice() };
        &full[..self.raw.layout.local_len(self.raw.my_rank())]
    }

    /// Mutably borrow the calling PE's local block.
    ///
    /// # Safety
    /// No PE may access the block for the returned lifetime.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn local_as_mut_slice(&self) -> &mut [T] {
        // SAFETY: forwarded contract.
        let full = unsafe { self.raw.region.as_mut_slice() };
        let n = self.raw.layout.local_len(self.raw.my_rank());
        &mut full[..n]
    }

    /// AM-routed element add (Sec. III-F.3), with no synchronization at the
    /// destination.
    ///
    /// # Safety
    /// The caller must guarantee no concurrent access to the element.
    pub unsafe fn add(&self, index: usize, val: T) -> ArrayOpHandle<T>
    where
        T: ArithElem,
    {
        batch::discard(batch::batch_arith(
            &self.raw,
            self.batch_limit,
            ArithOp::Add,
            vec![index],
            val.into(),
            false,
        ))
    }

    /// AM-routed batched add.
    ///
    /// # Safety
    /// As [`UnsafeArray::add`], for every touched element.
    pub unsafe fn batch_add(
        &self,
        indices: Vec<usize>,
        vals: impl Into<BatchValues<T>>,
    ) -> ArrayOpHandle<T>
    where
        T: ArithElem,
    {
        batch::discard(batch::batch_arith(
            &self.raw,
            self.batch_limit,
            ArithOp::Add,
            indices,
            vals.into(),
            false,
        ))
    }

    /// AM-routed element load.
    ///
    /// # Safety
    /// The caller must guarantee no concurrent writes to the element.
    pub unsafe fn load(&self, index: usize) -> FetchOpHandle<T> {
        batch::scalar(batch::batch_access(
            &self.raw,
            self.batch_limit,
            AccessOp::Load,
            vec![index],
            None,
            true,
        ))
    }

    /// AM-routed batched load.
    ///
    /// # Safety
    /// As [`UnsafeArray::load`].
    pub unsafe fn batch_load(&self, indices: Vec<usize>) -> BatchFetchHandle<T> {
        batch::batch_access(&self.raw, self.batch_limit, AccessOp::Load, indices, None, true)
    }

    /// AM-routed element store.
    ///
    /// # Safety
    /// The caller must guarantee no concurrent access to the element.
    pub unsafe fn store(&self, index: usize, val: T) -> ArrayOpHandle<T> {
        batch::discard(batch::batch_access(
            &self.raw,
            self.batch_limit,
            AccessOp::Store,
            vec![index],
            Some(val.into()),
            false,
        ))
    }

    /// AM-routed batched store.
    ///
    /// # Safety
    /// As [`UnsafeArray::store`].
    pub unsafe fn batch_store(
        &self,
        indices: Vec<usize>,
        vals: impl Into<BatchValues<T>>,
    ) -> ArrayOpHandle<T> {
        batch::discard(batch::batch_access(
            &self.raw,
            self.batch_limit,
            AccessOp::Store,
            indices,
            Some(vals.into()),
            false,
        ))
    }

    /// AM-routed batched compare-exchange.
    ///
    /// # Safety
    /// Unsynchronized at the destination — "no access control".
    pub unsafe fn batch_compare_exchange(
        &self,
        indices: Vec<usize>,
        current: impl Into<BatchValues<T>>,
        new: impl Into<BatchValues<T>>,
    ) -> BatchCasHandle<T> {
        batch::batch_cas(&self.raw, self.batch_limit, indices, current.into(), new.into())
    }

    /// RDMA-like `put` through the AM path (and, above the aggregation
    /// threshold, a direct RDMA transfer — the paper's "UnsafeArray uses
    /// the same aggregation threshold to switch transfer methods").
    ///
    /// # Safety
    /// No PE may concurrently access the destination range.
    pub unsafe fn put(&self, start: usize, vals: Vec<T>) -> ArrayOpHandle<T> {
        let bytes = std::mem::size_of::<T>() * vals.len();
        if bytes > self.raw.region.rt().large_threshold() {
            // Direct RDMA path for large transfers.
            // SAFETY: forwarded contract.
            unsafe { self.put_unchecked(start, &vals) };
            return batch::noop_handle();
        }
        batch::range_put(&self.raw, start, vals)
    }

    /// RDMA-like `get` through the AM path.
    ///
    /// # Safety
    /// No PE may concurrently write the source range.
    pub unsafe fn get(&self, start: usize, n: usize) -> BatchFetchHandle<T> {
        batch::range_get(&self.raw, start, n)
    }

    /// Direct RDMA put, bypassing the runtime entirely (the "unchecked"
    /// series of the paper's Fig. 2). Completes synchronously; the caller
    /// performs its own termination detection (e.g. pattern + barrier).
    ///
    /// # Safety
    /// No PE may concurrently access the destination range.
    pub unsafe fn put_unchecked(&self, start: usize, vals: &[T]) {
        assert!(start + vals.len() <= self.raw.len(), "put_unchecked out of bounds");
        let mut i = 0;
        for (rank, local, run) in self.raw.runs(start, vals.len()) {
            // SAFETY: forwarded contract; the run is within the owner's
            // block.
            unsafe {
                self.raw.region.put(self.raw.pe_of_rank(rank), local, &vals[i..i + run]);
            }
            i += run;
        }
    }

    /// Direct RDMA get, bypassing the runtime.
    ///
    /// # Safety
    /// No PE may concurrently write the source range.
    pub unsafe fn get_unchecked(&self, start: usize, out: &mut [T]) {
        assert!(start + out.len() <= self.raw.len(), "get_unchecked out of bounds");
        let mut i = 0;
        for (rank, local, run) in self.raw.runs(start, out.len()) {
            // SAFETY: forwarded contract.
            unsafe {
                self.raw.region.get(self.raw.pe_of_rank(rank), local, &mut out[i..i + run]);
            }
            i += run;
        }
    }

    /// Collective conversion to [`ReadOnlyArray`] — blocks until every PE
    /// holds exactly one reference, so the safety guarantees of each type
    /// are honored ("precisely one reference to the array on each PE").
    pub fn into_read_only(self) -> ReadOnlyArray<T> {
        let (raw, team, limit) = self.into_unique(Access::ReadOnly);
        ReadOnlyArray::from_parts(raw, team, limit)
    }

    /// Collective conversion to [`AtomicArray`].
    pub fn into_atomic(self) -> AtomicArray<T> {
        let (mut raw, team, limit) = self.into_unique(Access::Atomic);
        if !raw.atomic_is_native() && raw.locks.is_none() {
            raw.locks = Some(team.alloc_shared_mem_region::<u8>(raw.layout.max_local_len()));
            team.barrier();
        }
        AtomicArray::from_parts(raw, team, limit)
    }

    /// Collective conversion to [`LocalLockArray`].
    pub fn into_local_lock(self) -> LocalLockArray<T> {
        let (mut raw, team, limit) = self.into_unique(Access::LocalLock);
        if raw.local_lock.is_none() {
            raw.local_lock =
                Some(lamellar_core::darc::Darc::new(&team, parking_lot::RwLock::new(())));
            team.barrier();
        }
        LocalLockArray::from_parts(raw, team, limit)
    }

    pub(crate) fn into_unique(self, access: Access) -> (RawArray<T>, LamellarTeam, usize) {
        let UnsafeArray { mut raw, team, batch_limit } = self;
        team.barrier();
        raw.wait_unique(&team);
        raw.access = access;
        team.barrier();
        (raw, team, batch_limit)
    }
}
