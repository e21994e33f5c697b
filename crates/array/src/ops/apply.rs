//! Local application of batched operations, honoring each array type's
//! safety mode (paper Sec. III-F: "each array obeys the safety guarantee
//! corresponding to its type").
//!
//! These functions run on the PE that *owns* the data — either directly
//! (caller-local bin) or inside one of the internal AMs in
//! [`crate::ops::am`]. Indices here are *local* offsets into the PE's
//! block, as `u32` (the wire form; `Layout::new` caps a block at 2^32).

use crate::elem::ArrayElem;
use crate::inner::{Access, RawArray};
use crate::ops::BatchValues;
use std::sync::atomic::{AtomicU8, Ordering};

/// Spin-acquire a 1-byte element lock (the GenericAtomicArray mutex).
fn lock_byte(b: &AtomicU8) {
    while b.compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed).is_err() {
        std::hint::spin_loop();
    }
}

fn unlock_byte(b: &AtomicU8) {
    b.store(0, Ordering::Release);
}

/// Apply `f(current, value)` read-modify-write at each local index.
/// Returns the previous values when `fetch`.
pub(crate) fn apply_rmw<T: ArrayElem>(
    raw: &RawArray<T>,
    idxs: &[u32],
    vals: &BatchValues<T>,
    fetch: bool,
    f: impl Fn(T, T) -> T,
) -> Vec<T> {
    let base = raw.local_base();
    let mut out = Vec::with_capacity(if fetch { idxs.len() } else { 0 });
    let one = |local: usize, v: T| -> T {
        debug_assert!(local < raw.layout.max_local_len().max(1));
        // SAFETY (all arms): `local` indexes a live slot of this PE's
        // block; synchronization is provided per the array's access mode.
        unsafe {
            let p = base.add(local);
            match raw.access {
                Access::Unsafe | Access::ReadOnly => {
                    // Unsafe arrays: the caller vouched (unsafe API).
                    // ReadOnly never reaches rmw (no write ops exposed).
                    let cur = p.read();
                    p.write(f(cur, v));
                    cur
                }
                Access::Atomic => {
                    if raw.atomic_is_native() {
                        // NativeAtomicArray: CAS loop covers every operator
                        // with one mechanism.
                        loop {
                            let cur = T::atomic_load(p);
                            if T::atomic_cas_weak(p, cur, f(cur, v)).is_ok() {
                                break cur;
                            }
                        }
                    } else {
                        // GenericAtomicArray: 1-byte mutex per element.
                        let lock = raw.lock_byte(local);
                        lock_byte(lock);
                        let cur = p.read();
                        p.write(f(cur, v));
                        unlock_byte(lock);
                        cur
                    }
                }
                Access::LocalLock => {
                    // Guard acquired once for the whole batch below;
                    // here we are inside it.
                    let cur = p.read();
                    p.write(f(cur, v));
                    cur
                }
            }
        }
    };
    match raw.access {
        Access::LocalLock => {
            // "The entire data region on each PE is protected by a single
            // locally constructed RwLock": one write acquisition per batch.
            let guard = raw.local_lock.as_ref().expect("local lock present");
            let _g = guard.write();
            for (i, &local) in idxs.iter().enumerate() {
                let prev = one(local as usize, vals.value_at(i));
                if fetch {
                    out.push(prev);
                }
            }
        }
        _ => {
            for (i, &local) in idxs.iter().enumerate() {
                let prev = one(local as usize, vals.value_at(i));
                if fetch {
                    out.push(prev);
                }
            }
        }
    }
    out
}

/// Load each local index.
pub(crate) fn apply_load<T: ArrayElem>(raw: &RawArray<T>, idxs: &[u32]) -> Vec<T> {
    let base = raw.local_base();
    let read_one = |local: usize| -> T {
        // SAFETY: as in apply_rmw.
        unsafe {
            let p = base.add(local);
            match raw.access {
                Access::Unsafe | Access::ReadOnly | Access::LocalLock => p.read(),
                Access::Atomic => {
                    if raw.atomic_is_native() {
                        T::atomic_load(p)
                    } else {
                        let lock = raw.lock_byte(local);
                        lock_byte(lock);
                        let v = p.read();
                        unlock_byte(lock);
                        v
                    }
                }
            }
        }
    };
    match raw.access {
        Access::LocalLock => {
            let guard = raw.local_lock.as_ref().expect("local lock present");
            let _g = guard.read();
            idxs.iter().map(|&l| read_one(l as usize)).collect()
        }
        _ => idxs.iter().map(|&l| read_one(l as usize)).collect(),
    }
}

/// Compare-and-exchange at each local index; per element, `Ok(previous)`
/// if the slot equaled `cur`, else `Err(actual)`.
pub(crate) fn apply_cas<T: ArrayElem>(
    raw: &RawArray<T>,
    idxs: &[u32],
    pairs: &[(T, T)],
) -> Vec<Result<T, T>> {
    assert_eq!(idxs.len(), pairs.len());
    let base = raw.local_base();
    let cas_one = |local: usize, cur: T, new: T| -> Result<T, T> {
        // SAFETY: as in apply_rmw.
        unsafe {
            let p = base.add(local);
            match raw.access {
                Access::Unsafe | Access::ReadOnly | Access::LocalLock => {
                    let actual = p.read();
                    if actual == cur {
                        p.write(new);
                        Ok(actual)
                    } else {
                        Err(actual)
                    }
                }
                Access::Atomic => {
                    if raw.atomic_is_native() {
                        // Strong CAS from the weak primitive: retry only on
                        // spurious failures (actual == expected).
                        loop {
                            match T::atomic_cas_weak(p, cur, new) {
                                Ok(prev) => break Ok(prev),
                                Err(actual) if actual != cur => break Err(actual),
                                Err(_) => continue,
                            }
                        }
                    } else {
                        let lock = raw.lock_byte(local);
                        lock_byte(lock);
                        let actual = p.read();
                        let res = if actual == cur {
                            p.write(new);
                            Ok(actual)
                        } else {
                            Err(actual)
                        };
                        unlock_byte(lock);
                        res
                    }
                }
            }
        }
    };
    match raw.access {
        Access::LocalLock => {
            let guard = raw.local_lock.as_ref().expect("local lock present");
            let _g = guard.write();
            idxs.iter().zip(pairs).map(|(&l, (c, n))| cas_one(l as usize, *c, *n)).collect()
        }
        _ => idxs.iter().zip(pairs).map(|(&l, (c, n))| cas_one(l as usize, *c, *n)).collect(),
    }
}

/// Contiguous store of `vals` starting at local offset `start` (the AM
/// behind array-level RDMA-like `put`, Sec. III-F.2): "UnsafeArray does a
/// memcopy. LocalLockArray first grabs the local RwLock, and then performs
/// a memcopy. Finally, AtomicArray iterates through the elements ... and
/// performs an atomic store."
pub(crate) fn apply_range_put<T: ArrayElem>(raw: &RawArray<T>, start: usize, vals: &[T]) {
    let base = raw.local_base();
    // SAFETY (all arms): the range is within this PE's block; mode-specific
    // synchronization below.
    unsafe {
        match raw.access {
            Access::Unsafe | Access::ReadOnly => {
                std::ptr::copy_nonoverlapping(vals.as_ptr(), base.add(start), vals.len());
            }
            Access::LocalLock => {
                let guard = raw.local_lock.as_ref().expect("local lock present");
                let _g = guard.write();
                std::ptr::copy_nonoverlapping(vals.as_ptr(), base.add(start), vals.len());
            }
            Access::Atomic => {
                if raw.atomic_is_native() {
                    for (i, v) in vals.iter().enumerate() {
                        T::atomic_store(base.add(start + i), *v);
                    }
                } else {
                    for (i, v) in vals.iter().enumerate() {
                        let local = start + i;
                        let lock = raw.lock_byte(local);
                        lock_byte(lock);
                        base.add(local).write(*v);
                        unlock_byte(lock);
                    }
                }
            }
        }
    }
}

/// Contiguous load of `n` elements starting at local offset `start`.
pub(crate) fn apply_range_get<T: ArrayElem>(raw: &RawArray<T>, start: usize, n: usize) -> Vec<T> {
    let base = raw.local_base();
    let mut out = Vec::with_capacity(n);
    // SAFETY: as apply_range_put, reading.
    unsafe {
        match raw.access {
            Access::Unsafe | Access::ReadOnly => {
                out.extend((0..n).map(|i| base.add(start + i).read()));
            }
            Access::LocalLock => {
                let guard = raw.local_lock.as_ref().expect("local lock present");
                let _g = guard.read();
                out.extend((0..n).map(|i| base.add(start + i).read()));
            }
            Access::Atomic => {
                if raw.atomic_is_native() {
                    out.extend((0..n).map(|i| T::atomic_load(base.add(start + i))));
                } else {
                    for i in 0..n {
                        let local = start + i;
                        let lock = raw.lock_byte(local);
                        lock_byte(lock);
                        out.push(base.add(local).read());
                        unlock_byte(lock);
                    }
                }
            }
        }
    }
    out
}
