//! AtomicArray: "Access to each element is an atomic (either intrinsically
//! or enforced via the runtime)" (paper Sec. III-F.1), with the two
//! sub-types realized as execution paths:
//!
//! * **NativeAtomicArray** — the element type has a matching
//!   `std::sync::atomic` type ([`crate::elem::ArrayElem::NATIVE_ATOMIC`]);
//!   every access is a real atomic instruction (CAS loop for arbitrary
//!   read-modify-write operators).
//! * **GenericAtomicArray** — "Elements are protected by a 1-byte Mutex": a
//!   parallel byte region holds one spinlock per element.
//!
//! [`AtomicArray::new`] picks the path from the element type;
//! [`AtomicArray::new_generic`] forces the 1-byte-lock path (used by the
//! `ablation_atomic_kind` bench to measure the difference).

use crate::distribution::Distribution;
use crate::elem::ArrayElem;
use crate::inner::{Access, RawArray};
use crate::ops::batch;
use crate::unsafe_array::UnsafeArray;
use crate::IntoTeam;
use lamellar_core::team::LamellarTeam;

/// The element-wise-atomic distributed array (Listing 2's
/// `AtomicArray::<usize>::new(&world, T_LEN, Distribution::Block)`).
pub struct AtomicArray<T: ArrayElem> {
    pub(crate) raw: RawArray<T>,
    pub(crate) team: LamellarTeam,
    pub(crate) batch_limit: usize,
}

crate::ops::impl_array_common!(AtomicArray);
crate::ops::impl_element_ops!(AtomicArray);

impl<T: ArrayElem> AtomicArray<T> {
    /// Collectively construct a zero-initialized atomic array of `len`
    /// elements over `team`.
    ///
    /// Panics if one PE would hold more than 2^32 elements (4 Gi; batched
    /// ops carry `u32` local offsets), far beyond the default 64 MiB
    /// symmetric region.
    pub fn new(team: &impl IntoTeam, len: usize, dist: Distribution) -> Self {
        let team = team.to_team();
        let raw = RawArray::new(&team, len, dist, Access::Atomic, false);
        AtomicArray { raw, team, batch_limit: batch::DEFAULT_BATCH_LIMIT }
    }

    /// Construct with the generic (1-byte-lock) path even for natively
    /// atomic element types — the GenericAtomicArray sub-type, exposed for
    /// ablation.
    pub fn new_generic(team: &impl IntoTeam, len: usize, dist: Distribution) -> Self {
        let team = team.to_team();
        let raw = RawArray::new(&team, len, dist, Access::Atomic, true);
        AtomicArray { raw, team, batch_limit: batch::DEFAULT_BATCH_LIMIT }
    }

    pub(crate) fn from_parts(raw: RawArray<T>, team: LamellarTeam, batch_limit: usize) -> Self {
        AtomicArray { raw, team, batch_limit }
    }

    /// Whether this instance runs on native atomics (NativeAtomicArray) or
    /// 1-byte locks (GenericAtomicArray).
    pub fn is_native(&self) -> bool {
        self.raw.atomic_is_native()
    }

    /// Snapshot the calling PE's local block (element-wise atomic loads).
    pub fn local_snapshot(&self) -> Vec<T> {
        let n = self.raw.layout.local_len(self.raw.my_rank());
        crate::ops::apply::apply_range_get(&self.raw, 0, n)
    }

    /// Collective conversion back to an [`UnsafeArray`].
    pub fn into_unsafe(self) -> UnsafeArray<T> {
        let AtomicArray { mut raw, team, batch_limit } = self;
        team.barrier();
        raw.wait_unique(&team);
        raw.access = Access::Unsafe;
        team.barrier();
        UnsafeArray::from_parts(raw, team, batch_limit)
    }

    /// Collective conversion to a [`crate::read_only::ReadOnlyArray`].
    pub fn into_read_only(self) -> crate::read_only::ReadOnlyArray<T> {
        self.into_unsafe().into_read_only()
    }

    /// Collective conversion to a [`crate::local_lock::LocalLockArray`].
    pub fn into_local_lock(self) -> crate::local_lock::LocalLockArray<T> {
        self.into_unsafe().into_local_lock()
    }
}
