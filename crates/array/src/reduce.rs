//! Array reductions (paper Sec. III-F / Listing 2: `table.sum()`).
//!
//! Reductions are one-sided: the calling PE launches one AM per team rank;
//! each AM folds that rank's local block under the array's access mode and
//! returns the partial, which the caller combines.

use crate::elem::{ArithElem, ArrayElem};
use crate::inner::RawArray;
use crate::ops::apply;
use lamellar_codec::{impl_codec_enum, Codec, CodecError, Reader};
use lamellar_core::am::LamellarAm;
use lamellar_core::runtime::AmContext;
use std::future::Future;
use std::pin::Pin;

/// The built-in reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of all elements.
    Sum,
    /// Product of all elements.
    Prod,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
}

impl_codec_enum!(ReduceOp { Sum, Prod, Min, Max });

impl ReduceOp {
    /// Combine two partials.
    pub fn combine<T: ArithElem>(self, a: T, b: T) -> T {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => {
                if b < a {
                    b
                } else {
                    a
                }
            }
            ReduceOp::Max => {
                if b > a {
                    b
                } else {
                    a
                }
            }
        }
    }
}

/// The per-rank partial-reduction AM.
pub(crate) struct ReduceAm<T: ArrayElem> {
    pub raw: RawArray<T>,
    pub op: ReduceOp,
}

impl<T: ArrayElem> Codec for ReduceAm<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.raw.encode(buf);
        self.op.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.raw.encoded_len() + self.op.encoded_len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ReduceAm { raw: RawArray::decode(r)?, op: ReduceOp::decode(r)? })
    }
}

impl<T: ArithElem> LamellarAm for ReduceAm<T> {
    type Output = Option<T>;
    async fn exec(self, _ctx: AmContext) -> Option<T> {
        let rank = self.raw.my_rank();
        let locals: Vec<u32> = self.raw.local_view_indices(rank).map(|(l, _)| l as u32).collect();
        // Access-mode-respecting snapshot, then a pure fold.
        let vals = apply::apply_load(&self.raw, &locals);
        vals.into_iter().reduce(|a, b| self.op.combine(a, b))
    }
}

/// Boxed future type for reductions.
pub type ReduceHandle<T> = Pin<Box<dyn Future<Output = Option<T>> + Send + 'static>>;

pub(crate) fn launch_reduce<T: ArithElem>(raw: &RawArray<T>, op: ReduceOp) -> ReduceHandle<T> {
    let rt = raw.region.rt().clone();
    let handles: Vec<_> = (0..raw.layout.num_ranks)
        .map(|rank| rt.exec_am_pe(raw.pe_of_rank(rank), ReduceAm { raw: raw.clone(), op }))
        .collect();
    Box::pin(async move {
        let mut acc: Option<T> = None;
        for h in handles {
            if let Some(partial) = h.await {
                acc = Some(match acc {
                    None => partial,
                    Some(a) => op.combine(a, partial),
                });
            }
        }
        acc
    })
}

/// Generate the reduction surface on a safe array wrapper.
macro_rules! impl_reductions {
    ($arr:ident) => {
        impl<T: $crate::elem::ArithElem> $crate::$arr<T> {
            /// Reduce the whole array with `op`; `None` for empty arrays.
            pub fn reduce(&self, op: $crate::reduce::ReduceOp) -> $crate::reduce::ReduceHandle<T> {
                $crate::reduce::launch_reduce(&self.raw, op)
            }

            /// Sum every element (Listing 2's correctness check:
            /// `world.block_on(table.sum())`). Panics on an empty array.
            pub fn sum(&self) -> std::pin::Pin<Box<dyn std::future::Future<Output = T> + Send>> {
                let h = self.reduce($crate::reduce::ReduceOp::Sum);
                Box::pin(async move { h.await.expect("sum of empty array") })
            }

            /// Product of every element. Panics on an empty array.
            pub fn prod(&self) -> std::pin::Pin<Box<dyn std::future::Future<Output = T> + Send>> {
                let h = self.reduce($crate::reduce::ReduceOp::Prod);
                Box::pin(async move { h.await.expect("prod of empty array") })
            }

            /// Minimum element, `None` if empty.
            pub fn min(&self) -> $crate::reduce::ReduceHandle<T> {
                self.reduce($crate::reduce::ReduceOp::Min)
            }

            /// Maximum element, `None` if empty.
            pub fn max(&self) -> $crate::reduce::ReduceHandle<T> {
                self.reduce($crate::reduce::ReduceOp::Max)
            }
        }
    };
}

impl_reductions!(AtomicArray);
impl_reductions!(LocalLockArray);
impl_reductions!(ReadOnlyArray);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_semantics() {
        assert_eq!(ReduceOp::Sum.combine(2u64, 3), 5);
        assert_eq!(ReduceOp::Prod.combine(2u64, 3), 6);
        assert_eq!(ReduceOp::Min.combine(2u64, 3), 2);
        assert_eq!(ReduceOp::Max.combine(2u64, 3), 3);
        assert_eq!(ReduceOp::Min.combine(2.5f64, -1.0), -1.0);
    }
}
