//! Array iteration (paper Sec. III-F.4): `DistributedIterator`,
//! `LocalIterator`, and `OneSidedIterator`.
//!
//! Design note: the adapter chain here is *index-driven* — each element is
//! evaluated independently as `(index, value) → Option<item>`, which is
//! what lets `for_each`/`collect` run the chain in parallel chunks on the
//! PE's thread pool (and is how the real runtime schedules distributed
//! iteration). Consequently `skip`, `step_by`, and `take` select by
//! *element position in the array*, not by position in the post-filter
//! stream.
//!
//! * [`DistIter`] — collective; every PE processes its own local block in
//!   parallel; `enumerate` yields **global** indices; `collect_array`
//!   gathers into a fresh distributed array (the Randperm "Collect" step).
//! * [`LocalIter`] — one-sided; the calling PE processes only its local
//!   block; `enumerate` yields **local** indices; supports `zip`.
//! * [`OneSidedIter`] — serial over the *whole* array on the calling PE;
//!   the runtime fetches remote blocks in buffered chunks (`chunks`
//!   controls the buffer).

use crate::distribution::Distribution;
use crate::elem::ArrayElem;
use crate::inner::RawArray;
use crate::ops::apply;
use crate::unsafe_array::UnsafeArray;
use lamellar_core::team::LamellarTeam;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

/// One stage of an iterator chain: evaluate element `(index, value)` to
/// `Some(item)` (kept) or `None` (filtered out).
pub trait ItemFn<In>: Clone + Send + Sync + 'static {
    /// The produced item type.
    type Out: Send + 'static;
    /// Evaluate one element.
    fn apply(&self, index: usize, v: In) -> Option<Self::Out>;
}

/// The identity stage at the base of every chain.
#[derive(Clone, Copy, Debug, Default)]
pub struct Identity;

impl<T: Send + 'static> ItemFn<T> for Identity {
    type Out = T;
    fn apply(&self, _index: usize, v: T) -> Option<T> {
        Some(v)
    }
}

macro_rules! adapter {
    ($name:ident<$($g:ident),*> { $($field:ident : $fty:ty),* $(,)? }) => {
        /// Iterator chain adapter (see module docs).
        pub struct $name<$($g),*> {
            $(pub(crate) $field: $fty,)*
        }

        impl<$($g: Clone),*> Clone for $name<$($g),*> {
            fn clone(&self) -> Self {
                $name { $($field: self.$field.clone(),)* }
            }
        }
    };
}

adapter!(MapFn<I, F> { inner: I, f: F });
adapter!(FilterFn<I, F> { inner: I, f: F });
adapter!(FilterMapFn<I, F> { inner: I, f: F });
adapter!(EnumerateFn<I> { inner: I });
adapter!(SkipFn<I> { inner: I, n: usize });
adapter!(StepByFn<I> { inner: I, step: usize });
adapter!(TakeFn<I> { inner: I, n: usize });

impl<In, I, F, U> ItemFn<In> for MapFn<I, F>
where
    I: ItemFn<In>,
    F: Fn(I::Out) -> U + Clone + Send + Sync + 'static,
    U: Send + 'static,
{
    type Out = U;
    fn apply(&self, index: usize, v: In) -> Option<U> {
        self.inner.apply(index, v).map(&self.f)
    }
}

impl<In, I, F> ItemFn<In> for FilterFn<I, F>
where
    I: ItemFn<In>,
    F: Fn(&I::Out) -> bool + Clone + Send + Sync + 'static,
{
    type Out = I::Out;
    fn apply(&self, index: usize, v: In) -> Option<I::Out> {
        self.inner.apply(index, v).filter(|x| (self.f)(x))
    }
}

impl<In, I, F, U> ItemFn<In> for FilterMapFn<I, F>
where
    I: ItemFn<In>,
    F: Fn(I::Out) -> Option<U> + Clone + Send + Sync + 'static,
    U: Send + 'static,
{
    type Out = U;
    fn apply(&self, index: usize, v: In) -> Option<U> {
        self.inner.apply(index, v).and_then(&self.f)
    }
}

impl<In, I: ItemFn<In>> ItemFn<In> for EnumerateFn<I> {
    type Out = (usize, I::Out);
    fn apply(&self, index: usize, v: In) -> Option<(usize, I::Out)> {
        self.inner.apply(index, v).map(|x| (index, x))
    }
}

impl<In, I: ItemFn<In>> ItemFn<In> for SkipFn<I> {
    type Out = I::Out;
    fn apply(&self, index: usize, v: In) -> Option<I::Out> {
        (index >= self.n).then(|| self.inner.apply(index, v)).flatten()
    }
}

impl<In, I: ItemFn<In>> ItemFn<In> for StepByFn<I> {
    type Out = I::Out;
    fn apply(&self, index: usize, v: In) -> Option<I::Out> {
        index.is_multiple_of(self.step).then(|| self.inner.apply(index, v)).flatten()
    }
}

impl<In, I: ItemFn<In>> ItemFn<In> for TakeFn<I> {
    type Out = I::Out;
    fn apply(&self, index: usize, v: In) -> Option<I::Out> {
        (index < self.n).then(|| self.inner.apply(index, v)).flatten()
    }
}

/// Zip with a second array of the same layout: evaluates the second
/// array's element at the same local index.
pub struct ZipFn<I, T2: ArrayElem> {
    pub(crate) inner: I,
    pub(crate) other: RawArray<T2>,
}

impl<I: Clone, T2: ArrayElem> Clone for ZipFn<I, T2> {
    fn clone(&self) -> Self {
        ZipFn { inner: self.inner.clone(), other: self.other.clone() }
    }
}

/// Shared adapter-constructor surface for [`DistIter`] and [`LocalIter`].
macro_rules! iter_adapters {
    ($iter:ident) => {
        impl<T: ArrayElem, F: ItemFn<T>> $iter<T, F> {
            /// Transform each item.
            pub fn map<U: Send + 'static>(
                self,
                f: impl Fn(F::Out) -> U + Clone + Send + Sync + 'static,
            ) -> $iter<T, MapFn<F, impl Fn(F::Out) -> U + Clone + Send + Sync + 'static>> {
                $iter { raw: self.raw, team: self.team, f: MapFn { inner: self.f, f } }
            }

            /// Keep items satisfying the predicate.
            pub fn filter(
                self,
                f: impl Fn(&F::Out) -> bool + Clone + Send + Sync + 'static,
            ) -> $iter<T, FilterFn<F, impl Fn(&F::Out) -> bool + Clone + Send + Sync + 'static>>
            {
                $iter { raw: self.raw, team: self.team, f: FilterFn { inner: self.f, f } }
            }

            /// Transform-and-filter in one step.
            pub fn filter_map<U: Send + 'static>(
                self,
                f: impl Fn(F::Out) -> Option<U> + Clone + Send + Sync + 'static,
            ) -> $iter<
                T,
                FilterMapFn<F, impl Fn(F::Out) -> Option<U> + Clone + Send + Sync + 'static>,
            > {
                $iter { raw: self.raw, team: self.team, f: FilterMapFn { inner: self.f, f } }
            }

            /// Pair each item with its element index (global for
            /// `DistIter`, local for `LocalIter`).
            pub fn enumerate(self) -> $iter<T, EnumerateFn<F>> {
                $iter { raw: self.raw, team: self.team, f: EnumerateFn { inner: self.f } }
            }

            /// Select element positions `>= n`.
            pub fn skip(self, n: usize) -> $iter<T, SkipFn<F>> {
                $iter { raw: self.raw, team: self.team, f: SkipFn { inner: self.f, n } }
            }

            /// Select every `step`-th element position.
            pub fn step_by(self, step: usize) -> $iter<T, StepByFn<F>> {
                assert!(step > 0, "step_by(0)");
                $iter { raw: self.raw, team: self.team, f: StepByFn { inner: self.f, step } }
            }

            /// Select element positions `< n`.
            pub fn take(self, n: usize) -> $iter<T, TakeFn<F>> {
                $iter { raw: self.raw, team: self.team, f: TakeFn { inner: self.f, n } }
            }
        }
    };
}

/// Collective parallel iteration over the whole array; each PE handles its
/// local block ("the runtime tries to have PEs only iterate over their own
/// data").
pub struct DistIter<T: ArrayElem, F: ItemFn<T>> {
    pub(crate) raw: RawArray<T>,
    pub(crate) team: LamellarTeam,
    pub(crate) f: F,
}

iter_adapters!(DistIter);

/// How many parallel chunks a PE splits its local block into.
fn chunk_count(team: &LamellarTeam) -> usize {
    (team.rt().pool().workers() * 4).max(1)
}

/// Evaluate the chain over a set of `(local, index)` pairs, in order.
fn eval_pairs<T: ArrayElem, F: ItemFn<T>>(
    raw: &RawArray<T>,
    f: &F,
    pairs: &[(usize, usize)],
) -> Vec<F::Out> {
    let locals: Vec<u32> = pairs.iter().map(|&(l, _)| l as u32).collect();
    // One access-mode-respecting batch read, then pure chain evaluation.
    let values = apply::apply_load(raw, &locals);
    pairs.iter().zip(values).filter_map(|(&(_, idx), v)| f.apply(idx, v)).collect()
}

fn spawn_chunks<T: ArrayElem, F: ItemFn<T>>(
    raw: &RawArray<T>,
    team: &LamellarTeam,
    f: &F,
    pairs: Vec<(usize, usize)>,
) -> Vec<lamellar_executor::JoinHandle<Vec<F::Out>>> {
    let n_chunks = chunk_count(team);
    let chunk_len = pairs.len().div_ceil(n_chunks).max(1);
    let rt = team.rt().clone();
    pairs
        .chunks(chunk_len)
        .map(|chunk| {
            let raw = raw.clone();
            let f = f.clone();
            let chunk = chunk.to_vec();
            rt.spawn(async move { eval_pairs(&raw, &f, &chunk) })
        })
        .collect()
}

impl<T: ArrayElem, F: ItemFn<T>> DistIter<T, F> {
    /// Local `(local, global)` pairs for the calling PE.
    fn my_pairs(&self) -> Vec<(usize, usize)> {
        self.raw.local_view_indices(self.raw.my_rank()).collect()
    }

    /// Run `action` on every produced item, in parallel on the calling
    /// PE's pool. Returns a future; await it to ensure completion
    /// ("users must await this future to ensure the iteration has
    /// completed").
    pub fn for_each(
        self,
        action: impl Fn(F::Out) + Clone + Send + Sync + 'static,
    ) -> Pin<Box<dyn Future<Output = ()> + Send + 'static>> {
        let handles = spawn_chunks(&self.raw, &self.team, &self.f, self.my_pairs());
        let action = Arc::new(action);
        Box::pin(async move {
            for h in handles {
                for item in h.await {
                    action(item);
                }
            }
        })
    }

    /// Collect this PE's produced items (ascending global index).
    pub fn collect_local(self) -> Pin<Box<dyn Future<Output = Vec<F::Out>> + Send + 'static>> {
        let handles = spawn_chunks(&self.raw, &self.team, &self.f, self.my_pairs());
        Box::pin(async move {
            let mut out = Vec::new();
            for h in handles {
                out.extend(h.await);
            }
            out
        })
    }

    /// Collective collect into a fresh distributed [`UnsafeArray`] in
    /// global-index order — the Randperm kernel's final gather ("the
    /// target array iterates to collect darts in the order they appear").
    pub fn collect_array(self, dist: Distribution) -> UnsafeArray<F::Out>
    where
        F::Out: ArrayElem,
    {
        let team = self.team.clone();
        let rt = team.rt().clone();
        let local: Vec<F::Out> = rt.block_on(self.collect_local());
        // Exchange counts to compute each PE's global write offset.
        let counts = team.deposit_all(local.len());
        let my_rank = team.my_rank();
        let start: usize = counts[..my_rank].iter().sum();
        let total: usize = counts.iter().sum();
        let out = UnsafeArray::<F::Out>::new(&team, total, dist);
        // SAFETY: disjoint ranges per PE (prefix offsets), barrier below
        // orders writes before any reads.
        unsafe { out.put_unchecked(start, &local) };
        team.barrier();
        out
    }

    /// Count produced items across *this PE's* portion.
    pub fn count_local(self) -> Pin<Box<dyn Future<Output = usize> + Send + 'static>> {
        let handles = spawn_chunks(&self.raw, &self.team, &self.f, self.my_pairs());
        Box::pin(async move {
            let mut n = 0;
            for h in handles {
                n += h.await.len();
            }
            n
        })
    }
}

/// One-sided parallel iteration over the calling PE's local block
/// ("completely unaware that it exists within a distributed context").
pub struct LocalIter<T: ArrayElem, F: ItemFn<T>> {
    pub(crate) raw: RawArray<T>,
    pub(crate) team: LamellarTeam,
    pub(crate) f: F,
}

iter_adapters!(LocalIter);

impl<T: ArrayElem, F: ItemFn<T>> LocalIter<T, F> {
    /// Local `(local, local)` pairs — indices are local for LocalIter.
    fn my_pairs(&self) -> Vec<(usize, usize)> {
        self.raw
            .local_view_indices(self.raw.my_rank())
            .map(|(local, _global)| (local, local))
            .collect()
    }

    /// Zip with another array's local block (same team and layout).
    pub fn zip<T2: ArrayElem>(self, other: &LocalIter<T2, Identity>) -> LocalIter<T, ZipFn<F, T2>> {
        assert_eq!(self.raw.layout, other.raw.layout, "zip requires identical layouts");
        LocalIter {
            raw: self.raw,
            team: self.team,
            f: ZipFn { inner: self.f, other: other.raw.clone() },
        }
    }

    /// Run `action` on every produced item, in parallel.
    pub fn for_each(
        self,
        action: impl Fn(F::Out) + Clone + Send + Sync + 'static,
    ) -> Pin<Box<dyn Future<Output = ()> + Send + 'static>> {
        let handles = spawn_chunks(&self.raw, &self.team, &self.f, self.my_pairs());
        let action = Arc::new(action);
        Box::pin(async move {
            for h in handles {
                for item in h.await {
                    action(item);
                }
            }
        })
    }

    /// Collect produced items into a `Vec` (ascending local index).
    pub fn collect(self) -> Pin<Box<dyn Future<Output = Vec<F::Out>> + Send + 'static>> {
        let handles = spawn_chunks(&self.raw, &self.team, &self.f, self.my_pairs());
        Box::pin(async move {
            let mut out = Vec::new();
            for h in handles {
                out.extend(h.await);
            }
            out
        })
    }

    /// Serial iteration over the local block in fixed-size chunks
    /// (snapshots).
    pub fn chunks(self, n: usize) -> impl Iterator<Item = Vec<F::Out>> {
        assert!(n > 0, "chunks(0)");
        let pairs = self.my_pairs();
        let raw = self.raw;
        let f = self.f;
        let mut start = 0;
        std::iter::from_fn(move || {
            if start >= pairs.len() {
                return None;
            }
            let end = (start + n).min(pairs.len());
            let out = eval_pairs(&raw, &f, &pairs[start..end]);
            start = end;
            Some(out)
        })
    }
}

impl<In: ArrayElem, I, T2: ArrayElem> ItemFn<In> for ZipFn<I, T2>
where
    I: ItemFn<In>,
{
    type Out = (I::Out, T2);
    fn apply(&self, index: usize, v: In) -> Option<(I::Out, T2)> {
        let a = self.inner.apply(index, v)?;
        let b = apply::apply_load(&self.other, &[index as u32])[0];
        Some((a, b))
    }
}

/// Serial iteration over the entire array on the calling PE, with
/// runtime-managed transfers in buffered chunks (paper: "OneSidedIterator
/// implements chunks, skip, step_by, zip to reduce data movement, but
/// otherwise can be used with any iterator methods supported by the Rust
/// standard library").
pub struct OneSidedIter<T: ArrayElem> {
    raw: RawArray<T>,
    team: LamellarTeam,
    buffer_elems: usize,
    buf: std::vec::IntoIter<T>,
    next_global: usize,
    /// Stride between fetched elements (`step_by`).
    stride: usize,
}

impl<T: ArrayElem> OneSidedIter<T> {
    pub(crate) fn new(raw: RawArray<T>, team: LamellarTeam, buffer_elems: usize) -> Self {
        OneSidedIter {
            raw,
            team,
            buffer_elems: buffer_elems.max(1),
            buf: Vec::new().into_iter(),
            next_global: 0,
            stride: 1,
        }
    }

    /// Set the transfer buffer size (elements per fetch).
    pub fn chunks(mut self, n: usize) -> Self {
        self.buffer_elems = n.max(1);
        self
    }

    /// Skip the first `n` elements *without transferring them* (paper:
    /// OneSidedIterator implements skip "to reduce data movement").
    pub fn skip(mut self, n: usize) -> Self {
        assert!(self.next_global == 0 && self.buf.len() == 0, "skip before iterating");
        self.next_global = n.min(self.raw.len());
        self
    }

    /// Yield every `step`-th element, fetching only those elements.
    pub fn step_by(mut self, step: usize) -> Self {
        assert!(step > 0, "step_by(0)");
        assert!(self.buf.len() == 0, "step_by before iterating");
        self.stride = step;
        self
    }

    /// Convert into a standard boxed iterator (`into_iter()` in the paper).
    /// The paper spells this as an inherent method, hence the trait-shadowing
    /// name; the type is also an [`Iterator`] itself.
    #[allow(clippy::should_implement_trait)]
    pub fn into_iter(self) -> impl Iterator<Item = T> {
        self
    }
}

impl<T: ArrayElem> Iterator for OneSidedIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if let Some(v) = self.buf.next() {
            return Some(v);
        }
        if self.next_global >= self.raw.len() {
            return None;
        }
        let rt = self.team.rt().clone();
        let fetched = if self.stride == 1 {
            let n = self.buffer_elems.min(self.raw.len() - self.next_global);
            let out = rt.block_on(crate::ops::batch::range_get(&self.raw, self.next_global, n));
            self.next_global += n;
            out
        } else {
            // Strided: fetch only the selected elements (buffered).
            let idxs: Vec<usize> = (0..self.buffer_elems)
                .map(|k| self.next_global + k * self.stride)
                .take_while(|&g| g < self.raw.len())
                .collect();
            self.next_global = idxs.last().map(|&g| g + self.stride).unwrap_or(self.raw.len());
            rt.block_on(crate::ops::batch::batch_access(
                &self.raw,
                idxs.len().max(1),
                crate::ops::AccessOp::Load,
                idxs,
                None,
                true,
            ))
        };
        self.buf = fetched.into_iter();
        self.buf.next()
    }
}

/// Constructor extension: `dist_iter`/`local_iter`/`onesided_iter` on the
/// safe array types.
pub trait DistIterExt<T: ArrayElem> {
    /// The distributed (collective, parallel) iterator.
    fn dist_iter(&self) -> DistIter<T, Identity>;
    /// The serial whole-array iterator.
    fn onesided_iter(&self) -> OneSidedIter<T>;
}

/// Constructor extension for the local (one-sided, parallel) iterator.
pub trait LocalIterExt<T: ArrayElem> {
    /// The local-block iterator.
    fn local_iter(&self) -> LocalIter<T, Identity>;
}

macro_rules! impl_iter_ext {
    ($arr:ident) => {
        impl<T: ArrayElem> DistIterExt<T> for crate::$arr<T> {
            fn dist_iter(&self) -> DistIter<T, Identity> {
                DistIter { raw: self.raw.clone(), team: self.team.clone(), f: Identity }
            }
            fn onesided_iter(&self) -> OneSidedIter<T> {
                OneSidedIter::new(self.raw.clone(), self.team.clone(), 1024)
            }
        }
        impl<T: ArrayElem> LocalIterExt<T> for crate::$arr<T> {
            fn local_iter(&self) -> LocalIter<T, Identity> {
                LocalIter { raw: self.raw.clone(), team: self.team.clone(), f: Identity }
            }
        }
    };
}

impl_iter_ext!(AtomicArray);
impl_iter_ext!(LocalLockArray);
impl_iter_ext!(ReadOnlyArray);
