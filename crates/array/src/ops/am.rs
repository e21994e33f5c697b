//! The internal AMs that carry batched array operations to the owning PE.
//!
//! "the safe array types utilize AMs to emulate the behavior of direct
//! RDMA operations, so all access to a remote PE's data is actually managed
//! on that PE rather than by the PE initiating the access." (Sec. III-F.2)
//!
//! All AMs here are generic over the element type; each monomorphization
//! registers itself in the AM lookup table on first launch.

use crate::elem::{ArithElem, ArrayElem, BitElem};
use crate::inner::RawArray;
use crate::ops::{apply, AccessOp, ArithOp, BatchValues, BitOp};
use lamellar_codec::{Codec, CodecError, Reader};
use lamellar_core::am::LamellarAm;
use lamellar_core::runtime::AmContext;

macro_rules! impl_am_codec {
    ($name:ident<$g:ident> { $($field:ident),+ $(,)? }) => {
        impl<$g: ArrayElem> Codec for $name<$g> {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( self.$field.encode(buf); )+
            }
            fn encoded_len(&self) -> usize {
                // Field sum, no scratch encode: `raw` contains a Darc whose
                // encode pins — sizing must stay side-effect free.
                0 $( + self.$field.encoded_len() )+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($name { $( $field: Codec::decode(r)?, )+ })
            }
        }
    };
}

/// Batched arithmetic read-modify-write on the destination's local block.
pub(crate) struct ArithBatchAm<T: ArrayElem> {
    pub raw: RawArray<T>,
    pub op: ArithOp,
    /// Local offsets on the destination PE (`u32`: half the wire bytes of
    /// `usize`, which keeps a 10 000-op sub-batch under the inline cap).
    pub idxs: Vec<u32>,
    pub vals: BatchValues<T>,
    pub fetch: bool,
}

impl_am_codec!(ArithBatchAm<T> { raw, op, idxs, vals, fetch });

impl<T: ArithElem> LamellarAm for ArithBatchAm<T> {
    type Output = Vec<T>;
    async fn exec(self, _ctx: AmContext) -> Vec<T> {
        let op = self.op;
        apply::apply_rmw(&self.raw, &self.idxs, &self.vals, self.fetch, |c, v| op.apply(c, v))
    }
}

/// Batched bit-wise read-modify-write.
pub(crate) struct BitBatchAm<T: ArrayElem> {
    pub raw: RawArray<T>,
    pub op: BitOp,
    pub idxs: Vec<u32>,
    pub vals: BatchValues<T>,
    pub fetch: bool,
}

impl_am_codec!(BitBatchAm<T> { raw, op, idxs, vals, fetch });

impl<T: BitElem> LamellarAm for BitBatchAm<T> {
    type Output = Vec<T>;
    async fn exec(self, _ctx: AmContext) -> Vec<T> {
        let op = self.op;
        apply::apply_rmw(&self.raw, &self.idxs, &self.vals, self.fetch, |c, v| op.apply(c, v))
    }
}

/// Batched load/store/swap.
pub(crate) struct AccessBatchAm<T: ArrayElem> {
    pub raw: RawArray<T>,
    pub op: AccessOp,
    pub idxs: Vec<u32>,
    /// Absent for loads.
    pub vals: Option<BatchValues<T>>,
    pub fetch: bool,
}

impl_am_codec!(AccessBatchAm<T> { raw, op, idxs, vals, fetch });

impl<T: ArrayElem> LamellarAm for AccessBatchAm<T> {
    type Output = Vec<T>;
    async fn exec(self, _ctx: AmContext) -> Vec<T> {
        match self.op {
            AccessOp::Load => apply::apply_load(&self.raw, &self.idxs),
            AccessOp::Store | AccessOp::Swap => {
                let vals = self.vals.expect("store/swap carries values");
                // Swap ≡ fetch-store.
                let fetch = self.fetch || self.op == AccessOp::Swap;
                apply::apply_rmw(&self.raw, &self.idxs, &vals, fetch, |_c, v| v)
            }
        }
    }
}

/// Batched compare-and-exchange; element-wise `(current, new)` pairs.
pub(crate) struct CasBatchAm<T: ArrayElem> {
    pub raw: RawArray<T>,
    pub idxs: Vec<u32>,
    pub pairs: Vec<(T, T)>,
}

impl_am_codec!(CasBatchAm<T> { raw, idxs, pairs });

impl<T: ArrayElem> LamellarAm for CasBatchAm<T> {
    type Output = Vec<Result<T, T>>;
    async fn exec(self, _ctx: AmContext) -> Vec<Result<T, T>> {
        apply::apply_cas(&self.raw, &self.idxs, &self.pairs)
    }
}

/// Contiguous range store (array-level RDMA-like `put`).
pub(crate) struct RangePutAm<T: ArrayElem> {
    pub raw: RawArray<T>,
    /// Local start offset on the destination PE.
    pub start: usize,
    pub vals: Vec<T>,
}

impl_am_codec!(RangePutAm<T> { raw, start, vals });

impl<T: ArrayElem> LamellarAm for RangePutAm<T> {
    type Output = ();
    async fn exec(self, _ctx: AmContext) {
        apply::apply_range_put(&self.raw, self.start, &self.vals)
    }
}

/// Contiguous range load (array-level RDMA-like `get`).
pub(crate) struct RangeGetAm<T: ArrayElem> {
    pub raw: RawArray<T>,
    pub start: usize,
    pub n: usize,
}

impl_am_codec!(RangeGetAm<T> { raw, start, n });

impl<T: ArrayElem> LamellarAm for RangeGetAm<T> {
    type Output = Vec<T>;
    async fn exec(self, _ctx: AmContext) -> Vec<T> {
        apply::apply_range_get(&self.raw, self.start, self.n)
    }
}
