//! [`Codec`] implementations for primitive types.
//!
//! Fixed-width little-endian encodings are used for every numeric type.
//! Array element payloads dominate Lamellar's wire traffic, and fixed-width
//! lets the runtime compute exact buffer sizes up front (the Lamellae
//! pre-allocates RDMA message buffers, Sec. III-A).
//!
//! ## Bulk path
//!
//! The integers, the floats and `usize`/`isize` override
//! [`Codec::encode_slice`] and [`Codec::decode_vec`], so a `Vec<u32>` of
//! array offsets or a `Vec<f64>` of values is converted in one pass over
//! `chunks_exact(W)` instead of one bounds-checked push per element. The
//! bytes are identical to the per-element encoding, and the code is the
//! same on every target (no endianness-dependent `memcpy`). Decode first
//! takes all `len * W` bytes from the [`Reader`] (overflow-checked), so a
//! corrupt length prefix fails as [`CodecError::UnexpectedEof`] before
//! anything is allocated.
//!
//! `bool` and `char` keep the per-element default: not every byte pattern
//! is a valid value, so each element must be validated on its own.

use crate::error::{CodecError, Result};
use crate::reader::Reader;
use crate::Codec;

/// Take the `len * width` bytes of a fixed-width run, or fail without
/// consuming anything when the reader holds fewer (or the product
/// overflows).
fn take_run<'a>(r: &mut Reader<'a>, len: usize, width: usize) -> Result<&'a [u8]> {
    let bytes = len
        .checked_mul(width)
        .ok_or(CodecError::UnexpectedEof { needed: usize::MAX, available: r.remaining() })?;
    r.take(bytes)
}

/// `$t` travels as the fixed-width little-endian `$wire` (itself for every
/// type but `usize`/`isize`).
macro_rules! impl_codec_num {
    ($($t:ty => $wire:ty),*) => {
        $(
            impl Codec for $t {
                fn encode(&self, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&(*self as $wire).to_le_bytes());
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self> {
                    Ok(<$wire>::from_le_bytes(r.take_array()?) as $t)
                }
                fn encoded_len(&self) -> usize {
                    std::mem::size_of::<$wire>()
                }
                fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
                    const W: usize = std::mem::size_of::<$wire>();
                    let start = buf.len();
                    buf.resize(start + items.len() * W, 0);
                    for (dst, v) in buf[start..].chunks_exact_mut(W).zip(items) {
                        dst.copy_from_slice(&(*v as $wire).to_le_bytes());
                    }
                }
                fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>> {
                    const W: usize = std::mem::size_of::<$wire>();
                    let run = take_run(r, len, W)?;
                    Ok(run
                        .chunks_exact(W)
                        .map(|c| <$wire>::from_le_bytes(c.try_into().expect("W bytes")) as $t)
                        .collect())
                }
            }
        )*
    };
}

// usize/isize travel as u64/i64 so the wire format is architecture
// independent (PEs on different word sizes must interoperate).
impl_codec_num!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, u128 => u128,
    i8 => i8, i16 => i16, i32 => i32, i64 => i64, i128 => i128,
    f32 => f32, f64 => f64, usize => u64, isize => i64
);

impl Codec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::InvalidDiscriminant { type_name: "bool", value: v as u64 }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Codec for char {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u32).encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = u32::decode(r)?;
        char::from_u32(v).ok_or(CodecError::InvalidChar(v))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Codec for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Codec for std::time::Duration {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_secs().encode(buf);
        self.subsec_nanos().encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let secs = u64::decode(r)?;
        let nanos = u32::decode(r)?;
        Ok(std::time::Duration::new(secs, nanos))
    }
    fn encoded_len(&self) -> usize {
        12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn integers_roundtrip() {
        rt(0u8);
        rt(255u8);
        rt(u16::MAX);
        rt(u32::MAX);
        rt(u64::MAX);
        rt(u128::MAX);
        rt(i8::MIN);
        rt(i16::MIN);
        rt(i32::MIN);
        rt(i64::MIN);
        rt(i128::MIN);
        rt(usize::MAX);
        rt(isize::MIN);
    }

    #[test]
    fn floats_roundtrip() {
        rt(0.0f32);
        rt(-1.5f32);
        rt(f32::INFINITY);
        rt(std::f64::consts::PI);
        rt(f64::NEG_INFINITY);
        // NaN is not PartialEq to itself; check bit pattern instead.
        let bytes = f64::NAN.to_bytes();
        assert!(f64::from_bytes(&bytes).unwrap().is_nan());
    }

    #[test]
    fn bool_char_unit_roundtrip() {
        rt(true);
        rt(false);
        rt('λ');
        rt('\0');
        rt(());
    }

    #[test]
    fn bool_rejects_bad_byte() {
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(CodecError::InvalidDiscriminant { type_name: "bool", value: 2 })
        ));
    }

    #[test]
    fn char_rejects_surrogate() {
        let bytes = 0xD800u32.to_bytes();
        assert_eq!(char::from_bytes(&bytes), Err(CodecError::InvalidChar(0xD800)));
    }

    #[test]
    fn duration_roundtrips() {
        rt(std::time::Duration::new(12345, 678_910_111));
        rt(std::time::Duration::ZERO);
    }

    #[test]
    fn usize_is_word_size_independent() {
        // A usize always occupies 8 bytes on the wire.
        assert_eq!(42usize.to_bytes().len(), 8);
    }
}
