//! # lamellar-codec
//!
//! A compact, self-contained binary serialization layer used for every byte
//! that crosses the simulated network fabric in this Lamellar reproduction.
//!
//! The paper's runtime (Sec. III-C) serializes Active Messages before handing
//! them to the Lamellae for transfer and deserializes them on the destination
//! PE. The real system uses `serde` + a binary format; to keep the whole wire
//! path in-repo (and independently testable) we implement the format from
//! scratch:
//!
//! * little-endian fixed-width primitives,
//! * LEB128 varints for lengths and discriminants,
//! * length-prefixed containers,
//! * a stable 64-bit FNV-1a type identifier used by the AM registry
//!   (Sec. III-C: "the macro assigns each AM a unique identifier which is
//!   registered in a runtime lookup table").
//!
//! The [`Codec`] trait plays the role the paper assigns to the
//! `#[AmData]`-generated serde impls; the [`impl_codec!`] macro is the
//! `macro_rules!` stand-in for the procedural macro (proc-macro crates would
//! require `syn`/`quote`, which are outside this reproduction's dependency
//! policy — see DESIGN.md §5).

pub mod containers;
pub mod error;
pub mod primitives;
pub mod reader;
pub mod typeid;
pub mod varint;
#[macro_use]
pub mod macros;

pub use error::{CodecError, Result};
pub use reader::Reader;
pub use typeid::{type_hash, TypeId64};

/// Binary (de)serialization of a value.
///
/// Implementations must be *round-trip exact*: `decode(encode(x)) == x` for
/// every representable value, and `decode` must consume exactly the bytes
/// `encode` produced (so values can be concatenated into message buffers).
///
/// `encode` must append exactly [`Codec::encoded_len`] bytes and must not
/// panic: the runtime encodes AM requests *and* replies straight into an
/// aggregation buffer while holding that destination's out-queue lock, so
/// a short write or a panic mid-encode would corrupt every frame queued
/// behind it.
///
/// Sequences (`Vec<T>`, `[T; N]`) go through [`Codec::encode_slice`] and
/// [`Codec::decode_vec`]. Their defaults loop over the elements; the
/// fixed-width primitives override both with a single pass over the whole
/// run (see [`primitives`]), which produces the same bytes.
pub trait Codec: Sized {
    /// Append the binary representation of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Append every element of `items`, back to back, with no length
    /// prefix. Must equal calling [`Codec::encode`] on each in turn.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decode exactly `len` elements that [`Codec::encode_slice`] wrote.
    ///
    /// `len` comes off the wire, so an implementation must not reserve
    /// more than the bytes left in `r` can justify: a corrupt length prefix
    /// has to fail with a typed error, not allocate. The default caps its
    /// reservation at `r.remaining()`.
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>> {
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }

    /// Decode a value from the front of `r`, consuming exactly the bytes
    /// that [`Codec::encode`] wrote.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Exact number of bytes [`Codec::encode`] will append for `self`.
    ///
    /// The message path uses this to reserve frame prefixes and pick the
    /// small-vs-staged send route *before* serializing, so implementations
    /// must agree with `encode` byte-for-byte and must be side-effect free
    /// (notably: no Darc/region pinning). The default encodes into a scratch
    /// buffer and measures — correct but allocating; every in-repo impl
    /// overrides it with an arithmetic computation.
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Serialize into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Deserialize from a complete buffer, requiring that every byte is
    /// consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_bytes_roundtrip() {
        let v: (u32, String, Vec<i16>) = (7, "hello".into(), vec![-1, 2, -3]);
        let bytes = v.to_bytes();
        let back = <(u32, String, Vec<i16>)>::from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = 5u8.to_bytes();
        bytes.push(0xff);
        assert!(u8::from_bytes(&bytes).is_err());
    }
}
