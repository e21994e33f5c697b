//! Batch planning, dispatch, and the op-handle futures.
//!
//! "The runtime calculates the correct PEs and offsets for each array
//! index, batching operations by destination PE within a single message.
//! ... the runtime automatically splits batch_add into sub-batches"
//! (Sec. III-F.3 / IV-B.1).

use crate::elem::{ArithElem, ArrayElem, BitElem};
use crate::inner::RawArray;
use crate::ops::am::{AccessBatchAm, ArithBatchAm, BitBatchAm, CasBatchAm, RangeGetAm, RangePutAm};
use crate::ops::{AccessOp, ArithOp, BatchValues, BitOp};
use lamellar_core::am::{AmHandle, LamellarAm, UnitAm};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Default sub-batch limit — the paper's evaluation "limited aggregations
/// to 10,000 operations per buffer".
pub const DEFAULT_BATCH_LIMIT: usize = 10_000;

type BoxFut<T> = Pin<Box<dyn Future<Output = T> + Send + 'static>>;

macro_rules! handle_type {
    ($(#[$meta:meta])* $name:ident, $out:ty) => {
        $(#[$meta])*
        pub struct $name<T: Send + 'static> {
            fut: BoxFut<$out>,
            _marker: std::marker::PhantomData<fn() -> T>,
        }

        impl<T: Send + 'static> $name<T> {
            fn wrap(fut: BoxFut<$out>) -> Self {
                $name { fut, _marker: std::marker::PhantomData }
            }
        }

        impl<T: Send + 'static> Future for $name<T> {
            type Output = $out;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                self.fut.as_mut().poll(cx)
            }
        }

        impl<T: Send + 'static> std::fmt::Debug for $name<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(stringify!($name))
            }
        }
    };
}

handle_type!(
    /// Future of a non-fetching element/batch op; resolves when every
    /// destination PE has applied it.
    ArrayOpHandle, ());
handle_type!(
    /// Future of a single fetching op (`fetch_add`, `load`, `swap`, …).
    FetchOpHandle, T);
handle_type!(
    /// Future of a fetching batch op; values in input order.
    BatchFetchHandle, Vec<T>);
handle_type!(
    /// Future of a single compare-exchange.
    CasHandle, Result<T, T>);
handle_type!(
    /// Future of a batch compare-exchange; results in input order.
    BatchCasHandle, Vec<Result<T, T>>);

/// Slice values for one sub-batch out of the full `BatchValues`.
fn chunk_values<T: ArrayElem>(values: &BatchValues<T>, pos: &[usize]) -> BatchValues<T> {
    match values {
        BatchValues::One(v) => BatchValues::One(*v),
        BatchValues::Many(vs) => BatchValues::Many(pos.iter().map(|&i| vs[i]).collect()),
    }
}

/// The single-pass binner behind every batch op (Chapel's
/// `CopyAggregator` pattern): one `u32` offset bin per destination rank,
/// filled in input order and handed to `emit(rank, offsets, positions)`
/// (moved, not copied) the moment it holds `limit` entries, so sends
/// overlap binning; partial bins are emitted at the end, in rank order.
/// `positions` are the bin's input positions when `keep_pos` (per-element
/// values), else empty. `ranks`, when given, receives each input's rank in
/// input order for result reassembly. Bounds are checked for the whole
/// batch before anything is emitted, so a bad index sends nothing.
fn bin_stream<T: ArrayElem>(
    raw: &RawArray<T>,
    indices: &[usize],
    limit: usize,
    keep_pos: bool,
    mut ranks: Option<&mut Vec<u32>>,
    mut emit: impl FnMut(usize, Vec<u32>, &[usize]),
) {
    if let Some(&max) = indices.iter().max() {
        assert!(max < raw.len(), "index {max} out of bounds (len {})", raw.len());
    }
    let limit = limit.max(1);
    let (layout, offset) = (raw.layout, raw.view_offset);
    let mut bins: Vec<Vec<u32>> = vec![Vec::new(); layout.num_ranks];
    let mut pos: Vec<Vec<usize>> = vec![Vec::new(); layout.num_ranks];
    let mut sub_batches = 0u64;
    for (i, &g) in indices.iter().enumerate() {
        let (rank, local) = layout.locate(g + offset);
        if let Some(ranks) = ranks.as_deref_mut() {
            ranks.push(rank as u32);
        }
        let bin = &mut bins[rank];
        if bin.capacity() == 0 {
            // A full bin's worth, or this rank's even share of what is left.
            bin.reserve_exact(limit.min((indices.len() - i).div_ceil(layout.num_ranks)));
        }
        bin.push(local as u32); // lossless: `Layout::new` caps a rank at 2^32
        if keep_pos {
            pos[rank].push(i);
        }
        if bin.len() == limit {
            emit(rank, std::mem::take(bin), &pos[rank]);
            pos[rank].clear();
            sub_batches += 1;
        }
    }
    for (rank, bin) in bins.into_iter().enumerate().filter(|(_, b)| !b.is_empty()) {
        emit(rank, bin, &pos[rank]);
        sub_batches += 1;
    }
    raw.region.rt().am_metrics().record_sub_batches(sub_batches);
}

/// Tracked fan-out: one AM per sub-batch through `exec_am_pe`, results
/// reassembled in input order when `fetch`.
fn launch<T, R, A>(
    raw: &RawArray<T>,
    indices: Vec<usize>,
    limit: usize,
    fetch: bool,
    keep_pos: bool,
    make: impl Fn(Vec<u32>, &[usize]) -> A,
) -> BoxFut<Vec<R>>
where
    T: ArrayElem,
    R: Send + 'static,
    A: LamellarAm<Output = Vec<R>>,
{
    let rt = raw.region.rt();
    // One handle list per rank, each holding that rank's sub-batches in
    // order so concatenation preserves per-rank positions.
    let mut handles: Vec<Vec<AmHandle<Vec<R>>>> =
        (0..raw.layout.num_ranks).map(|_| Vec::new()).collect();
    let mut ranks = Vec::with_capacity(if fetch { indices.len() } else { 0 });
    bin_stream(raw, &indices, limit, keep_pos, fetch.then_some(&mut ranks), |rank, idxs, pos| {
        handles[rank].push(rt.exec_am_pe(raw.pe_of_rank(rank), make(idxs, pos)));
    });
    Box::pin(async move {
        let mut per_rank: Vec<std::vec::IntoIter<R>> = Vec::with_capacity(handles.len());
        for rank_handles in handles {
            let mut results = Vec::new();
            for h in rank_handles {
                results.extend(h.await);
            }
            per_rank.push(results.into_iter());
        }
        // Results within a rank come back in submission order, so walking
        // the recorded ranks in input order drains each rank's stream in
        // order.
        ranks
            .into_iter()
            .map(|rank| per_rank[rank as usize].next().expect("result per input"))
            .collect()
    })
}

/// Fire-and-forget fan-out: like [`launch`] but for non-fetching batches
/// whose completion the caller awaits in bulk via `wait_all` — each
/// sub-batch ships through the unit-AM path (reply elision + counted acks,
/// DESIGN.md §4d), so there are no handles, no per-sub-batch `Reply`
/// envelopes, and nothing to reassemble.
fn launch_unit<T: ArrayElem, A: LamellarAm>(
    raw: &RawArray<T>,
    indices: Vec<usize>,
    limit: usize,
    keep_pos: bool,
    make: impl Fn(Vec<u32>, &[usize]) -> A,
) {
    let rt = raw.region.rt();
    bin_stream(raw, &indices, limit, keep_pos, None, |rank, idxs, pos| {
        rt.exec_unit_am_pe(raw.pe_of_rank(rank), UnitAm(make(idxs, pos)));
    });
}

/// Fire-and-forget batched arithmetic op (completion via `wait_all`).
pub(crate) fn batch_arith_unit<T: ArithElem>(
    raw: &RawArray<T>,
    limit: usize,
    op: ArithOp,
    indices: Vec<usize>,
    values: BatchValues<T>,
) {
    let (indices, values) = crate::ops::normalize_batch(indices, values);
    let many = values.explicit_len().is_some();
    let raw2 = raw.clone();
    launch_unit(raw, indices, limit, many, move |idxs, pos| ArithBatchAm {
        raw: raw2.clone(),
        op,
        idxs,
        vals: chunk_values(&values, pos),
        fetch: false,
    });
}

/// Fire-and-forget batched bit-wise op (completion via `wait_all`).
pub(crate) fn batch_bit_unit<T: BitElem>(
    raw: &RawArray<T>,
    limit: usize,
    op: BitOp,
    indices: Vec<usize>,
    values: BatchValues<T>,
) {
    let (indices, values) = crate::ops::normalize_batch(indices, values);
    let many = values.explicit_len().is_some();
    let raw2 = raw.clone();
    launch_unit(raw, indices, limit, many, move |idxs, pos| BitBatchAm {
        raw: raw2.clone(),
        op,
        idxs,
        vals: chunk_values(&values, pos),
        fetch: false,
    });
}

/// Fire-and-forget batched store (completion via `wait_all`).
pub(crate) fn batch_store_unit<T: ArrayElem>(
    raw: &RawArray<T>,
    limit: usize,
    indices: Vec<usize>,
    values: BatchValues<T>,
) {
    let (indices, values) = crate::ops::normalize_batch(indices, values);
    let many = values.explicit_len().is_some();
    let raw2 = raw.clone();
    launch_unit(raw, indices, limit, many, move |idxs, pos| AccessBatchAm {
        raw: raw2.clone(),
        op: AccessOp::Store,
        idxs,
        vals: Some(chunk_values(&values, pos)),
        fetch: false,
    });
}

/// Batched arithmetic op.
pub(crate) fn batch_arith<T: ArithElem>(
    raw: &RawArray<T>,
    limit: usize,
    op: ArithOp,
    indices: Vec<usize>,
    values: BatchValues<T>,
    fetch: bool,
) -> BatchFetchHandle<T> {
    let (indices, values) = crate::ops::normalize_batch(indices, values);
    let many = values.explicit_len().is_some();
    let raw2 = raw.clone();
    let fut = launch(raw, indices, limit, fetch, many, move |idxs, pos| ArithBatchAm {
        raw: raw2.clone(),
        op,
        idxs,
        vals: chunk_values(&values, pos),
        fetch,
    });
    BatchFetchHandle::wrap(fut)
}

/// Batched bit-wise op.
pub(crate) fn batch_bit<T: BitElem>(
    raw: &RawArray<T>,
    limit: usize,
    op: BitOp,
    indices: Vec<usize>,
    values: BatchValues<T>,
    fetch: bool,
) -> BatchFetchHandle<T> {
    let (indices, values) = crate::ops::normalize_batch(indices, values);
    let many = values.explicit_len().is_some();
    let raw2 = raw.clone();
    let fut = launch(raw, indices, limit, fetch, many, move |idxs, pos| BitBatchAm {
        raw: raw2.clone(),
        op,
        idxs,
        vals: chunk_values(&values, pos),
        fetch,
    });
    BatchFetchHandle::wrap(fut)
}

/// Batched load/store/swap.
pub(crate) fn batch_access<T: ArrayElem>(
    raw: &RawArray<T>,
    limit: usize,
    op: AccessOp,
    indices: Vec<usize>,
    values: Option<BatchValues<T>>,
    fetch: bool,
) -> BatchFetchHandle<T> {
    let (indices, values) = match values {
        Some(v) => {
            let (i, v) = crate::ops::normalize_batch(indices, v);
            (i, Some(v))
        }
        None => (indices, None),
    };
    let want_results = fetch || op == AccessOp::Load || op == AccessOp::Swap;
    let many = matches!(values, Some(BatchValues::Many(_)));
    let raw2 = raw.clone();
    let fut = launch(raw, indices, limit, want_results, many, move |idxs, pos| AccessBatchAm {
        raw: raw2.clone(),
        op,
        idxs,
        vals: values.as_ref().map(|v| chunk_values(v, pos)),
        fetch,
    });
    BatchFetchHandle::wrap(fut)
}

/// Batched compare-exchange.
pub(crate) fn batch_cas<T: ArrayElem>(
    raw: &RawArray<T>,
    limit: usize,
    indices: Vec<usize>,
    current: BatchValues<T>,
    new: BatchValues<T>,
) -> BatchCasHandle<T> {
    let (indices, new) = crate::ops::normalize_batch(indices, new);
    let raw2 = raw.clone();
    let fut = launch(raw, indices, limit, true, true, move |idxs, pos| {
        let pairs = pos.iter().map(|&i| (current.value_at(i), new.value_at(i))).collect::<Vec<_>>();
        CasBatchAm { raw: raw2.clone(), idxs, pairs }
    });
    BatchCasHandle::wrap(fut)
}

/// An already-completed `()` handle (used when a transfer completed
/// synchronously via direct RDMA).
pub(crate) fn noop_handle<T: ArrayElem>() -> ArrayOpHandle<T> {
    ArrayOpHandle::wrap(Box::pin(async {}))
}

/// Wrap a batch future into the non-fetching `()` handle.
pub(crate) fn discard<T: ArrayElem>(h: BatchFetchHandle<T>) -> ArrayOpHandle<T> {
    ArrayOpHandle::wrap(Box::pin(async move {
        h.await;
    }))
}

/// Wrap a 1-element fetch batch into a scalar handle.
pub(crate) fn scalar<T: ArrayElem>(h: BatchFetchHandle<T>) -> FetchOpHandle<T> {
    FetchOpHandle::wrap(Box::pin(async move {
        let mut v = h.await;
        debug_assert_eq!(v.len(), 1);
        v.pop().expect("single result")
    }))
}

/// Wrap a 1-element CAS batch into a scalar handle.
pub(crate) fn scalar_cas<T: ArrayElem>(h: BatchCasHandle<T>) -> CasHandle<T> {
    CasHandle::wrap(Box::pin(async move {
        let mut v = h.await;
        debug_assert_eq!(v.len(), 1);
        v.pop().expect("single result")
    }))
}

/// Array-level RDMA-like `put`: write `vals` at global indices
/// `start..start + vals.len()`, split by owning PE (Sec. III-F.2).
pub(crate) fn range_put<T: ArrayElem>(
    raw: &RawArray<T>,
    start: usize,
    vals: Vec<T>,
) -> ArrayOpHandle<T> {
    assert!(
        start + vals.len() <= raw.len(),
        "put range [{start}, {}) out of bounds (len {})",
        start + vals.len(),
        raw.len()
    );
    let rt = raw.region.rt().clone();
    let mut handles = Vec::new();
    // Split the global range into per-owner contiguous local runs.
    let mut i = 0;
    for (rank, local, run) in raw.runs(start, vals.len()) {
        let am = RangePutAm { raw: raw.clone(), start: local, vals: vals[i..i + run].to_vec() };
        handles.push(rt.exec_am_pe(raw.pe_of_rank(rank), am));
        i += run;
    }
    ArrayOpHandle::wrap(Box::pin(async move {
        for h in handles {
            h.await;
        }
    }))
}

/// Array-level RDMA-like `get`: read `n` elements starting at global index
/// `start`, in order.
pub(crate) fn range_get<T: ArrayElem>(
    raw: &RawArray<T>,
    start: usize,
    n: usize,
) -> BatchFetchHandle<T> {
    assert!(
        start + n <= raw.len(),
        "get range [{start}, {}) out of bounds (len {})",
        start + n,
        raw.len()
    );
    let rt = raw.region.rt().clone();
    let mut handles = Vec::new();
    for (rank, local, run) in raw.runs(start, n) {
        let am = RangeGetAm { raw: raw.clone(), start: local, n: run };
        handles.push(rt.exec_am_pe(raw.pe_of_rank(rank), am));
    }
    BatchFetchHandle::wrap(Box::pin(async move {
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.await);
        }
        out
    }))
}
