//! [`Codec`] implementations for containers and compound types.

use crate::error::{CodecError, Result};
use crate::reader::Reader;
use crate::varint;
use crate::Codec;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_len(buf, self.len());
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = varint::read_len(r, varint::DEFAULT_MAX_LEN)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.len()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_len(buf, self.len());
        T::encode_slice(self, buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = varint::read_len(r, varint::DEFAULT_MAX_LEN)?;
        T::decode_vec(r, len)
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.iter().map(Codec::encoded_len).sum::<usize>()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.take_byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            v => Err(CodecError::InvalidDiscriminant { type_name: "Option", value: v as u64 }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Codec::encoded_len)
    }
}

impl<T: Codec, E: Codec> Codec for std::result::Result<T, E> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                buf.push(0);
                v.encode(buf);
            }
            Err(e) => {
                buf.push(1);
                e.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.take_byte()? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            v => Err(CodecError::InvalidDiscriminant { type_name: "Result", value: v as u64 }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Ok(v) => v.encoded_len(),
            Err(e) => e.encoded_len(),
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Box::new(T::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        T::encode_slice(self, buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // Decode into a Vec first; N is typically tiny for AM payloads.
        T::decode_vec(r, N)?
            .try_into()
            .map_err(|_| CodecError::UnexpectedEof { needed: N, available: 0 })
    }
    fn encoded_len(&self) -> usize {
        self.iter().map(Codec::encoded_len).sum()
    }
}

impl<K: Codec + Eq + Hash, V: Codec> Codec for HashMap<K, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_len(buf, self.len());
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = varint::read_len(r, varint::DEFAULT_MAX_LEN)?;
        let mut out = HashMap::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64)
            + self.iter().map(|(k, v)| k.encoded_len() + v.encoded_len()).sum::<usize>()
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_len(buf, self.len());
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = varint::read_len(r, varint::DEFAULT_MAX_LEN)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64)
            + self.iter().map(|(k, v)| k.encoded_len() + v.encoded_len()).sum::<usize>()
    }
}

macro_rules! impl_codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($($name::decode(r)?,)+))
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
    };
}

impl_codec_tuple!(A: 0);
impl_codec_tuple!(A: 0, B: 1);
impl_codec_tuple!(A: 0, B: 1, C: 2);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn strings_roundtrip() {
        rt(String::new());
        rt("ascii".to_string());
        rt("ünïcødé λ ∀x".to_string());
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut buf = Vec::new();
        varint::write_len(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_bytes(&buf), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn vec_roundtrips() {
        rt(Vec::<u64>::new());
        rt(vec![1u8, 2, 3]);
        rt(vec!["a".to_string(), "b".to_string()]);
        rt(vec![vec![1i32, -2], vec![], vec![3]]);
    }

    #[test]
    fn vec_truncated_payload_errors_not_panics() {
        let mut buf = Vec::new();
        varint::write_len(&mut buf, 1000); // claims 1000 u64s, provides none
        assert!(matches!(Vec::<u64>::from_bytes(&buf), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn option_result_roundtrip() {
        rt(Option::<u32>::None);
        rt(Some(99u32));
        rt(std::result::Result::<u8, String>::Ok(7));
        rt(std::result::Result::<u8, String>::Err("bad".into()));
    }

    #[test]
    fn boxes_arrays_tuples_roundtrip() {
        rt(Box::new(42u64));
        rt([1u16, 2, 3, 4]);
        rt((1u8, "x".to_string(), vec![2.5f64]));
        rt((1u8, 2u16, 3u32, 4u64, 5i8, 6i16, 7i32, 8i64));
    }

    #[test]
    fn maps_roundtrip() {
        let mut hm = HashMap::new();
        hm.insert("k".to_string(), 1u32);
        hm.insert("j".to_string(), 2u32);
        rt(hm);
        let mut bt = BTreeMap::new();
        bt.insert(3u64, vec![1u8]);
        bt.insert(1u64, vec![]);
        rt(bt);
    }

    #[test]
    fn encoded_len_is_exact() {
        fn check<T: Codec>(v: T) {
            assert_eq!(v.encoded_len(), v.to_bytes().len());
        }
        check(String::new());
        check("ünïcødé λ".to_string());
        check(vec![1u8, 2, 3]);
        check(vec!["a".to_string(), "bb".to_string()]);
        check(Option::<u32>::None);
        check(Some(99u32));
        check(std::result::Result::<u8, String>::Err("bad".into()));
        check(Box::new(42u64));
        check([1u16, 2, 3, 4]);
        check((1u8, "x".to_string(), vec![2.5f64]));
        let mut hm = HashMap::new();
        hm.insert("k".to_string(), 1u32);
        check(hm);
        let mut bt = BTreeMap::new();
        bt.insert(3u64, vec![1u8]);
        check(bt);
        check(std::time::Duration::new(5, 7));
        check(());
        check(true);
        check('λ');
        check(usize::MAX);
        check(-3isize);
    }

    #[test]
    fn option_bad_discriminant() {
        assert!(matches!(
            Option::<u8>::from_bytes(&[7]),
            Err(CodecError::InvalidDiscriminant { type_name: "Option", .. })
        ));
    }
}
