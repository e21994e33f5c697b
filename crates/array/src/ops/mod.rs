//! Element-wise and batch operations (paper Sec. III-F.3).
//!
//! Safe array types route every remote element access through an internal
//! AM executed on the owning PE; the batch API "aggregates multiple
//! operations in to a single request", binned by destination PE and split
//! into sub-batches (10,000 ops per buffer in the paper's evaluation).

pub mod am;
pub mod apply;
pub mod batch;

pub use batch::{ArrayOpHandle, BatchCasHandle, BatchFetchHandle, CasHandle, FetchOpHandle};

use crate::elem::{ArithElem, ArrayElem, BitElem};
use lamellar_codec::{impl_codec_enum, Codec, CodecError, Reader};

/// Arithmetic read-modify-write operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `slot += v`
    Add,
    /// `slot -= v`
    Sub,
    /// `slot *= v`
    Mul,
    /// `slot /= v`
    Div,
    /// `slot %= v`
    Rem,
}

impl_codec_enum!(ArithOp { Add, Sub, Mul, Div, Rem });

impl ArithOp {
    /// The scalar combine function.
    pub fn apply<T: ArithElem>(self, cur: T, v: T) -> T {
        match self {
            ArithOp::Add => cur + v,
            ArithOp::Sub => cur - v,
            ArithOp::Mul => cur * v,
            ArithOp::Div => cur / v,
            ArithOp::Rem => cur % v,
        }
    }
}

/// Bit-wise and shift read-modify-write operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitOp {
    /// `slot &= v`
    And,
    /// `slot |= v`
    Or,
    /// `slot ^= v`
    Xor,
    /// `slot <<= v`
    Shl,
    /// `slot >>= v`
    Shr,
}

impl_codec_enum!(BitOp { And, Or, Xor, Shl, Shr });

impl BitOp {
    /// The scalar combine function.
    pub fn apply<T: BitElem>(self, cur: T, v: T) -> T {
        match self {
            BitOp::And => cur & v,
            BitOp::Or => cur | v,
            BitOp::Xor => cur ^ v,
            BitOp::Shl => cur << v,
            BitOp::Shr => cur >> v,
        }
    }
}

/// Plain access operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// Read the element.
    Load,
    /// Overwrite the element.
    Store,
    /// Overwrite and return the previous value.
    Swap,
}

impl_codec_enum!(AccessOp { Load, Store, Swap });

/// The value side of a batch call (paper: *Many Indices - One value*,
/// *One Index - Many values*, *Many Indices - Many values*).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchValues<T> {
    /// One value applied at every index.
    One(T),
    /// One value per index (equal lengths), or many values at a single
    /// index.
    Many(Vec<T>),
}

impl<T: Clone> BatchValues<T> {
    /// The value paired with input position `i`.
    pub fn value_at(&self, i: usize) -> T {
        match self {
            BatchValues::One(v) => v.clone(),
            BatchValues::Many(vs) => vs[i].clone(),
        }
    }

    /// Number of explicit values (`None` for the broadcast form).
    pub fn explicit_len(&self) -> Option<usize> {
        match self {
            BatchValues::One(_) => None,
            BatchValues::Many(vs) => Some(vs.len()),
        }
    }
}

impl<T> From<T> for BatchValues<T> {
    fn from(v: T) -> Self {
        BatchValues::One(v)
    }
}

impl<T> From<Vec<T>> for BatchValues<T> {
    fn from(vs: Vec<T>) -> Self {
        BatchValues::Many(vs)
    }
}

impl<T: Codec> Codec for BatchValues<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            BatchValues::One(v) => {
                buf.push(0);
                v.encode(buf);
            }
            BatchValues::Many(vs) => {
                buf.push(1);
                vs.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            BatchValues::One(v) => v.encoded_len(),
            BatchValues::Many(vs) => vs.encoded_len(),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(BatchValues::One(T::decode(r)?)),
            1 => Ok(BatchValues::Many(Vec::decode(r)?)),
            v => Err(CodecError::InvalidDiscriminant { type_name: "BatchValues", value: v as u64 }),
        }
    }
}

/// Normalize the three batch forms into `(indices, values)` with the
/// invariant `values is One` or `values.len() == indices.len()`:
/// a single index with many values expands to a repeated index.
pub(crate) fn normalize_batch<T: ArrayElem>(
    mut indices: Vec<usize>,
    values: BatchValues<T>,
) -> (Vec<usize>, BatchValues<T>) {
    if let Some(n) = values.explicit_len() {
        if indices.len() == 1 && n != 1 {
            // One Index - Many values: apply each value at the same
            // element (in order within each sub-batch).
            indices = vec![indices[0]; n];
        } else {
            assert_eq!(
                indices.len(),
                n,
                "many-many batch requires one value per index ({} indices, {n} values)",
                indices.len()
            );
        }
    }
    (indices, values)
}

// ---------------------------------------------------------------------------
// Method-surface macros: generate the full element-wise operator API on a
// typed array (paper Sec. III-F.3). The wrapper type must expose fields
// `raw: RawArray<T>` and `batch_limit: usize`.
// ---------------------------------------------------------------------------

macro_rules! rmw_method_group {
    ($batch_fn:path, $batch_unit_fn:path, $opty:ty, $(($name:ident, $fetch_name:ident, $batch_name:ident, $batch_fetch_name:ident, $batch_ff_name:ident, $op:expr, $doc:literal)),+ $(,)?) => {
        $(
            #[doc = concat!("Apply `", $doc, "` to the element at global `index` (one-sided; returns a future).")]
            pub fn $name(&self, index: usize, val: T) -> $crate::ops::ArrayOpHandle<T> {
                $crate::ops::batch::discard($batch_fn(&self.raw, self.batch_limit, $op, vec![index], val.into(), false))
            }

            #[doc = concat!("Apply `", $doc, "` at `index`, returning the previous value.")]
            pub fn $fetch_name(&self, index: usize, val: T) -> $crate::ops::FetchOpHandle<T> {
                $crate::ops::batch::scalar($batch_fn(&self.raw, self.batch_limit, $op, vec![index], val.into(), true))
            }

            #[doc = concat!("Batched `", $doc, "`: *many indices – one value*, *one index – many values*, or one-to-one (paper Sec. III-F.3). Sub-batched at `batch_limit` ops per AM.")]
            pub fn $batch_name(
                &self,
                indices: Vec<usize>,
                vals: impl Into<$crate::ops::BatchValues<T>>,
            ) -> $crate::ops::ArrayOpHandle<T> {
                $crate::ops::batch::discard($batch_fn(&self.raw, self.batch_limit, $op, indices, vals.into(), false))
            }

            #[doc = concat!("Batched fetching `", $doc, "`: previous values in input order.")]
            pub fn $batch_fetch_name(
                &self,
                indices: Vec<usize>,
                vals: impl Into<$crate::ops::BatchValues<T>>,
            ) -> $crate::ops::BatchFetchHandle<T> {
                $batch_fn(&self.raw, self.batch_limit, $op, indices, vals.into(), true)
            }

            #[doc = concat!("Fire-and-forget batched `", $doc, "`: no handle — each sub-batch ships through the unit-AM path (reply elision with counted completions), and `world.wait_all()` blocks until every destination PE has applied it.")]
            pub fn $batch_ff_name(
                &self,
                indices: Vec<usize>,
                vals: impl Into<$crate::ops::BatchValues<T>>,
            ) {
                $batch_unit_fn(&self.raw, self.batch_limit, $op, indices, vals.into())
            }
        )+
    };
}
pub(crate) use rmw_method_group;

/// Generate the complete safe operator surface on an array wrapper type.
macro_rules! impl_element_ops {
    ($arr:ident) => {
        impl<T: $crate::elem::ArithElem> $arr<T> {
            $crate::ops::rmw_method_group!(
                $crate::ops::batch::batch_arith,
                $crate::ops::batch::batch_arith_unit,
                $crate::ops::ArithOp,
                (
                    add,
                    fetch_add,
                    batch_add,
                    batch_fetch_add,
                    batch_add_ff,
                    $crate::ops::ArithOp::Add,
                    "+"
                ),
                (
                    sub,
                    fetch_sub,
                    batch_sub,
                    batch_fetch_sub,
                    batch_sub_ff,
                    $crate::ops::ArithOp::Sub,
                    "-"
                ),
                (
                    mul,
                    fetch_mul,
                    batch_mul,
                    batch_fetch_mul,
                    batch_mul_ff,
                    $crate::ops::ArithOp::Mul,
                    "*"
                ),
                (
                    div,
                    fetch_div,
                    batch_div,
                    batch_fetch_div,
                    batch_div_ff,
                    $crate::ops::ArithOp::Div,
                    "/"
                ),
                (
                    rem,
                    fetch_rem,
                    batch_rem,
                    batch_fetch_rem,
                    batch_rem_ff,
                    $crate::ops::ArithOp::Rem,
                    "%"
                ),
            );
        }

        impl<T: $crate::elem::BitElem> $arr<T> {
            $crate::ops::rmw_method_group!(
                $crate::ops::batch::batch_bit,
                $crate::ops::batch::batch_bit_unit,
                $crate::ops::BitOp,
                (
                    bit_and,
                    fetch_bit_and,
                    batch_bit_and,
                    batch_fetch_bit_and,
                    batch_bit_and_ff,
                    $crate::ops::BitOp::And,
                    "&"
                ),
                (
                    bit_or,
                    fetch_bit_or,
                    batch_bit_or,
                    batch_fetch_bit_or,
                    batch_bit_or_ff,
                    $crate::ops::BitOp::Or,
                    "|"
                ),
                (
                    bit_xor,
                    fetch_bit_xor,
                    batch_bit_xor,
                    batch_fetch_bit_xor,
                    batch_bit_xor_ff,
                    $crate::ops::BitOp::Xor,
                    "^"
                ),
                (
                    shl,
                    fetch_shl,
                    batch_shl,
                    batch_fetch_shl,
                    batch_shl_ff,
                    $crate::ops::BitOp::Shl,
                    "<<"
                ),
                (
                    shr,
                    fetch_shr,
                    batch_shr,
                    batch_fetch_shr,
                    batch_shr_ff,
                    $crate::ops::BitOp::Shr,
                    ">>"
                ),
            );
        }

        impl<T: $crate::elem::ArrayElem> $arr<T> {
            /// Read the element at global `index`.
            pub fn load(&self, index: usize) -> $crate::ops::FetchOpHandle<T> {
                $crate::ops::batch::scalar($crate::ops::batch::batch_access(
                    &self.raw,
                    self.batch_limit,
                    $crate::ops::AccessOp::Load,
                    vec![index],
                    None,
                    true,
                ))
            }

            /// Read many elements; results in input order (`batch_load` in
            /// the paper's IndexGather kernel).
            pub fn batch_load(&self, indices: Vec<usize>) -> $crate::ops::BatchFetchHandle<T> {
                $crate::ops::batch::batch_access(
                    &self.raw,
                    self.batch_limit,
                    $crate::ops::AccessOp::Load,
                    indices,
                    None,
                    true,
                )
            }

            /// Overwrite the element at global `index`.
            pub fn store(&self, index: usize, val: T) -> $crate::ops::ArrayOpHandle<T> {
                $crate::ops::batch::discard($crate::ops::batch::batch_access(
                    &self.raw,
                    self.batch_limit,
                    $crate::ops::AccessOp::Store,
                    vec![index],
                    Some(val.into()),
                    false,
                ))
            }

            /// Overwrite many elements (`array.batch_store([20, 2], 10)`).
            pub fn batch_store(
                &self,
                indices: Vec<usize>,
                vals: impl Into<$crate::ops::BatchValues<T>>,
            ) -> $crate::ops::ArrayOpHandle<T> {
                $crate::ops::batch::discard($crate::ops::batch::batch_access(
                    &self.raw,
                    self.batch_limit,
                    $crate::ops::AccessOp::Store,
                    indices,
                    Some(vals.into()),
                    false,
                ))
            }

            /// Fire-and-forget batched store: no handle — sub-batches ship
            /// through the unit-AM path (reply elision with counted
            /// completions); `world.wait_all()` blocks until every
            /// destination PE has applied them.
            pub fn batch_store_ff(
                &self,
                indices: Vec<usize>,
                vals: impl Into<$crate::ops::BatchValues<T>>,
            ) {
                $crate::ops::batch::batch_store_unit(
                    &self.raw,
                    self.batch_limit,
                    indices,
                    vals.into(),
                )
            }

            /// Overwrite and return the previous value.
            pub fn swap(&self, index: usize, val: T) -> $crate::ops::FetchOpHandle<T> {
                $crate::ops::batch::scalar($crate::ops::batch::batch_access(
                    &self.raw,
                    self.batch_limit,
                    $crate::ops::AccessOp::Swap,
                    vec![index],
                    Some(val.into()),
                    true,
                ))
            }

            /// Batched swap; previous values in input order.
            pub fn batch_swap(
                &self,
                indices: Vec<usize>,
                vals: impl Into<$crate::ops::BatchValues<T>>,
            ) -> $crate::ops::BatchFetchHandle<T> {
                $crate::ops::batch::batch_access(
                    &self.raw,
                    self.batch_limit,
                    $crate::ops::AccessOp::Swap,
                    indices,
                    Some(vals.into()),
                    true,
                )
            }

            /// Compare-and-exchange: if the element equals `current`, write
            /// `new`; resolves to `Ok(previous)`/`Err(actual)`.
            pub fn compare_exchange(
                &self,
                index: usize,
                current: T,
                new: T,
            ) -> $crate::ops::CasHandle<T> {
                $crate::ops::batch::scalar_cas($crate::ops::batch::batch_cas(
                    &self.raw,
                    self.batch_limit,
                    vec![index],
                    current.into(),
                    new.into(),
                ))
            }

            /// Batched compare-and-exchange (the Randperm "dart throw",
            /// Sec. IV-B.3); results in input order.
            pub fn batch_compare_exchange(
                &self,
                indices: Vec<usize>,
                current: impl Into<$crate::ops::BatchValues<T>>,
                new: impl Into<$crate::ops::BatchValues<T>>,
            ) -> $crate::ops::BatchCasHandle<T> {
                $crate::ops::batch::batch_cas(
                    &self.raw,
                    self.batch_limit,
                    indices,
                    current.into(),
                    new.into(),
                )
            }

            /// RDMA-like `put` (Sec. III-F.2): write `vals` at global
            /// indices `start..start+vals.len()`, routed through the owning
            /// PEs under this array type's safety guarantee.
            pub fn put(&self, start: usize, vals: Vec<T>) -> $crate::ops::ArrayOpHandle<T> {
                $crate::ops::batch::range_put(&self.raw, start, vals)
            }

            /// RDMA-like `get`: read `n` elements starting at `start`.
            pub fn get(&self, start: usize, n: usize) -> $crate::ops::BatchFetchHandle<T> {
                $crate::ops::batch::range_get(&self.raw, start, n)
            }
        }
    };
}
pub(crate) use impl_element_ops;

/// Shared structural accessors for every array wrapper.
macro_rules! impl_array_common {
    ($arr:ident) => {
        impl<T: $crate::elem::ArrayElem> $arr<T> {
            /// Global element count (of this view).
            pub fn len(&self) -> usize {
                self.raw.len()
            }

            /// True when the array holds no elements.
            pub fn is_empty(&self) -> bool {
                self.raw.is_empty()
            }

            /// The team this array is distributed over.
            pub fn team(&self) -> &lamellar_core::team::LamellarTeam {
                &self.team
            }

            /// Elements stored on the calling PE (within this view).
            pub fn num_elems_local(&self) -> usize {
                self.raw.local_len_of(self.raw.my_rank())
            }

            /// Global index of the first element owned by the calling PE in
            /// a Block layout (`None` if it owns none or layout is Cyclic).
            pub fn first_global_index_local(&self) -> Option<usize> {
                self.raw.local_view_indices(self.raw.my_rank()).map(|(_, g)| g).min()
            }

            /// Set the sub-batch limit for batched operations (paper
            /// default: 10,000 ops per buffer). Results always come back in
            /// input order, but the sub-batches one batch sends a PE may be
            /// applied concurrently: a repeated index split across them is
            /// updated in no fixed order.
            pub fn set_batch_limit(&mut self, limit: usize) {
                self.batch_limit = limit.max(1);
            }

            /// Current sub-batch limit.
            pub fn batch_limit(&self) -> usize {
                self.batch_limit
            }

            /// A sub-array view of `range` (global indices); shares storage
            /// with the parent ("the ability to create sub arrays").
            pub fn sub_array(&self, range: std::ops::Range<usize>) -> Self {
                let mut out = self.clone();
                out.raw = self.raw.sub_view(range.start, range.end);
                out
            }

            /// Collective barrier over the array's team.
            pub fn barrier(&self) {
                self.team.barrier();
            }
        }

        impl<T: $crate::elem::ArrayElem> Clone for $arr<T> {
            fn clone(&self) -> Self {
                $arr {
                    raw: self.raw.clone(),
                    team: self.team.clone(),
                    batch_limit: self.batch_limit,
                }
            }
        }

        impl<T: $crate::elem::ArrayElem> std::fmt::Debug for $arr<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($arr))
                    .field("len", &self.raw.len())
                    .field("layout", &self.raw.layout)
                    .finish()
            }
        }
    };
}
pub(crate) use impl_array_common;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arith_ops_apply() {
        assert_eq!(ArithOp::Add.apply(10u64, 3), 13);
        assert_eq!(ArithOp::Sub.apply(10u64, 3), 7);
        assert_eq!(ArithOp::Mul.apply(10u64, 3), 30);
        assert_eq!(ArithOp::Div.apply(10u64, 3), 3);
        assert_eq!(ArithOp::Rem.apply(10u64, 3), 1);
        assert_eq!(ArithOp::Add.apply(1.5f64, 0.25), 1.75);
    }

    #[test]
    fn bit_ops_apply() {
        assert_eq!(BitOp::And.apply(0b1100u32, 0b1010), 0b1000);
        assert_eq!(BitOp::Or.apply(0b1100u32, 0b1010), 0b1110);
        assert_eq!(BitOp::Xor.apply(0b1100u32, 0b1010), 0b0110);
        assert_eq!(BitOp::Shl.apply(1u32, 4), 16);
        assert_eq!(BitOp::Shr.apply(16u32, 2), 4);
    }

    #[test]
    fn batch_values_forms() {
        let one: BatchValues<u32> = 5.into();
        assert_eq!(one.value_at(0), 5);
        assert_eq!(one.value_at(99), 5);
        assert_eq!(one.explicit_len(), None);
        let many: BatchValues<u32> = vec![1, 2, 3].into();
        assert_eq!(many.value_at(1), 2);
        assert_eq!(many.explicit_len(), Some(3));
    }

    #[test]
    fn normalize_one_index_many_values() {
        let (idxs, vals) = normalize_batch::<u32>(vec![7], vec![1, 2, 3].into());
        assert_eq!(idxs, vec![7, 7, 7]);
        assert_eq!(vals, BatchValues::Many(vec![1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "one value per index")]
    fn normalize_rejects_mismatched_lengths() {
        let _ = normalize_batch::<u32>(vec![1, 2, 3], vec![1, 2].into());
    }

    #[test]
    fn op_enums_roundtrip() {
        for op in [ArithOp::Add, ArithOp::Rem] {
            assert_eq!(ArithOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        for op in [BitOp::And, BitOp::Shr] {
            assert_eq!(BitOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        for op in [AccessOp::Load, AccessOp::Swap] {
            assert_eq!(AccessOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        let bv: BatchValues<u64> = vec![9, 8].into();
        assert_eq!(BatchValues::from_bytes(&bv.to_bytes()).unwrap(), bv);
    }
}
