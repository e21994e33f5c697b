//! LocalLockArray: "The entire data region on each PE is protected by a
//! single locally constructed RwLock." (paper Sec. III-F.1)
//!
//! Element-wise and batch operations acquire the destination PE's write
//! lock once per batch; the local-data guards below give safe direct
//! access to the calling PE's block under the same lock.

use crate::distribution::Distribution;
use crate::elem::ArrayElem;
use crate::inner::{Access, RawArray};
use crate::ops::batch;
use crate::unsafe_array::UnsafeArray;
use crate::IntoTeam;
use lamellar_core::team::LamellarTeam;
use parking_lot::{RwLockReadGuard, RwLockWriteGuard};

/// The whole-block-locked distributed array.
pub struct LocalLockArray<T: ArrayElem> {
    pub(crate) raw: RawArray<T>,
    pub(crate) team: LamellarTeam,
    pub(crate) batch_limit: usize,
}

crate::ops::impl_array_common!(LocalLockArray);
crate::ops::impl_element_ops!(LocalLockArray);

/// Shared (read) access to the calling PE's block.
pub struct LocalReadGuard<'a, T: ArrayElem> {
    _guard: RwLockReadGuard<'a, ()>,
    slice: &'a [T],
}

impl<T: ArrayElem> std::ops::Deref for LocalReadGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.slice
    }
}

/// Exclusive (write) access to the calling PE's block.
pub struct LocalWriteGuard<'a, T: ArrayElem> {
    _guard: RwLockWriteGuard<'a, ()>,
    slice: &'a mut [T],
}

impl<T: ArrayElem> std::ops::Deref for LocalWriteGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.slice
    }
}

impl<T: ArrayElem> std::ops::DerefMut for LocalWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.slice
    }
}

impl<T: ArrayElem> LocalLockArray<T> {
    /// Collectively construct a zero-initialized array of `len` elements
    /// over `team`.
    ///
    /// Panics if one PE would hold more than 2^32 elements (4 Gi; batched
    /// ops carry `u32` local offsets), far beyond the default 64 MiB
    /// symmetric region.
    pub fn new(team: &impl IntoTeam, len: usize, dist: Distribution) -> Self {
        let team = team.to_team();
        let raw = RawArray::new(&team, len, dist, Access::LocalLock, false);
        LocalLockArray { raw, team, batch_limit: batch::DEFAULT_BATCH_LIMIT }
    }

    pub(crate) fn from_parts(raw: RawArray<T>, team: LamellarTeam, batch_limit: usize) -> Self {
        LocalLockArray { raw, team, batch_limit }
    }

    /// Lock the calling PE's block for shared reading.
    pub fn read_local_data(&self) -> LocalReadGuard<'_, T> {
        let lock = self.raw.local_lock.as_ref().expect("local lock present");
        let guard = lock.read();
        // SAFETY: the read lock excludes every writer (ops acquire the
        // write lock before mutating this PE's block).
        let full = unsafe { self.raw.region.as_slice() };
        let n = self.raw.layout.local_len(self.raw.my_rank());
        LocalReadGuard { _guard: guard, slice: &full[..n] }
    }

    /// Lock the calling PE's block for exclusive writing.
    pub fn write_local_data(&self) -> LocalWriteGuard<'_, T> {
        let lock = self.raw.local_lock.as_ref().expect("local lock present");
        let guard = lock.write();
        // SAFETY: the write lock excludes every other accessor.
        let full = unsafe { self.raw.region.as_mut_slice() };
        let n = self.raw.layout.local_len(self.raw.my_rank());
        LocalWriteGuard { _guard: guard, slice: &mut full[..n] }
    }

    /// Collective conversion back to an [`UnsafeArray`].
    pub fn into_unsafe(self) -> UnsafeArray<T> {
        let LocalLockArray { mut raw, team, batch_limit } = self;
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

    /// Collective conversion to a [`crate::read_only::ReadOnlyArray`].
    pub fn into_read_only(self) -> crate::read_only::ReadOnlyArray<T> {
        self.into_unsafe().into_read_only()
    }
}
