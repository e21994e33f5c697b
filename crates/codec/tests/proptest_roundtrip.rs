//! Property-based tests: every Codec impl must round-trip exactly and
//! consume exactly the bytes it produced (so values can be packed
//! back-to-back in AM message buffers).

use lamellar_codec::{impl_codec, impl_codec_enum, Codec, Reader};
use proptest::prelude::*;

fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_bytes();
    let back = T::from_bytes(&bytes).expect("decode");
    assert_eq!(&back, v);
}

/// Values packed back-to-back must decode independently — this is exactly how
/// the Lamellae batches multiple AMs into one message buffer.
fn packs<T: Codec + PartialEq + std::fmt::Debug>(a: &T, b: &T) {
    let mut buf = Vec::new();
    a.encode(&mut buf);
    let first_len = buf.len();
    b.encode(&mut buf);
    let mut r = Reader::new(&buf);
    assert_eq!(&T::decode(&mut r).unwrap(), a);
    assert_eq!(r.position(), first_len);
    assert_eq!(&T::decode(&mut r).unwrap(), b);
    assert!(r.is_empty());
}

proptest! {
    #[test]
    fn u64_roundtrip(v: u64) { roundtrip(&v); }

    #[test]
    fn i64_roundtrip(v: i64) { roundtrip(&v); }

    #[test]
    fn f64_roundtrip(v in proptest::num::f64::NORMAL | proptest::num::f64::ZERO) {
        roundtrip(&v);
    }

    #[test]
    fn string_roundtrip(v in ".*") { roundtrip(&v.to_string()); }

    #[test]
    fn vec_u8_roundtrip(v: Vec<u8>) { roundtrip(&v); }

    #[test]
    fn vec_usize_roundtrip(v: Vec<usize>) { roundtrip(&v); }

    #[test]
    fn nested_roundtrip(v: Vec<(u32, String, Option<i16>)>) { roundtrip(&v); }

    #[test]
    fn packing_u64(a: u64, b: u64) { packs(&a, &b); }

    #[test]
    fn packing_strings(a in ".*", b in ".*") {
        packs(&a.to_string(), &b.to_string());
    }

    #[test]
    fn varint_roundtrip(v: u64) {
        let mut buf = Vec::new();
        lamellar_codec::varint::write_u64(&mut buf, v);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(lamellar_codec::varint::read_u64(&mut r).unwrap(), v);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn varint_is_monotone_in_width(v: u32) {
        // Wider values never encode shorter than narrower ones of the same
        // prefix; sanity for header-size reasoning in the lamellae.
        let mut small = Vec::new();
        let mut big = Vec::new();
        lamellar_codec::varint::write_u64(&mut small, v as u64);
        lamellar_codec::varint::write_u64(&mut big, (v as u64) << 8 | 0xff);
        prop_assert!(big.len() >= small.len());
    }

    /// Decoding arbitrary bytes must never panic — the fabric can hand the
    /// codec truncated or corrupt buffers under failure injection.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes: Vec<u8>) {
        let _ = String::from_bytes(&bytes);
        let _ = Vec::<u64>::from_bytes(&bytes);
        let _ = Option::<Vec<u32>>::from_bytes(&bytes);
        let _ = <(u8, String)>::from_bytes(&bytes);
    }
}

#[derive(Debug, PartialEq, Clone)]
struct AmLike {
    dest: usize,
    indices: Vec<usize>,
    payload: Vec<u64>,
    label: String,
}
impl_codec!(AmLike { dest, indices, payload, label });

#[derive(Debug, PartialEq, Clone)]
enum OpLike {
    Add(u64),
    Cas(u64, u64),
    Barrier,
}
impl_codec_enum!(OpLike { Add(a), Cas(a, b), Barrier });

proptest! {
    #[test]
    fn am_like_struct_roundtrip(
        dest in 0usize..4096,
        indices: Vec<usize>,
        payload: Vec<u64>,
        label in ".*",
    ) {
        let am = AmLike { dest, indices, payload, label: label.to_string() };
        roundtrip(&am);
    }

    #[test]
    fn op_enum_roundtrip(sel in 0u8..3, a: u64, b: u64) {
        let op = match sel {
            0 => OpLike::Add(a),
            1 => OpLike::Cas(a, b),
            _ => OpLike::Barrier,
        };
        roundtrip(&op);
    }
}

// ---------------------------------------------------------------------------
// Bulk path for primitive vectors: same bytes as one element at a time.
// ---------------------------------------------------------------------------

/// Checks the bulk `Vec<T>` encoding against a per-element reference built
/// here from `le` (each element's little-endian wire bytes), then decodes
/// it back. Elements are compared by their wire bytes, so NaN payloads and
/// signed zeros must survive bit for bit.
fn bulk_matches_reference<T: Codec + Clone, const W: usize>(v: &[T], le: impl Fn(&T) -> [u8; W]) {
    let mut reference = Vec::new();
    lamellar_codec::varint::write_len(&mut reference, v.len());
    for x in v {
        reference.extend_from_slice(&le(x));
    }
    let v = v.to_vec();
    assert_eq!(v.to_bytes(), reference, "bulk encoding differs from per-element");
    assert_eq!(v.encoded_len(), reference.len());
    let back = Vec::<T>::from_bytes(&reference).expect("bulk decode");
    assert_eq!(back.len(), v.len());
    assert!(back.iter().zip(&v).all(|(a, b)| le(a) == le(b)), "bulk round trip changed a value");
}

proptest! {
    #[test]
    fn bulk_u8(v: Vec<u8>) { bulk_matches_reference(&v, |x| x.to_le_bytes()); }

    #[test]
    fn bulk_u16(v: Vec<u16>) { bulk_matches_reference(&v, |x| x.to_le_bytes()); }

    #[test]
    fn bulk_u32(v: Vec<u32>) { bulk_matches_reference(&v, |x| x.to_le_bytes()); }

    #[test]
    fn bulk_u64(v: Vec<u64>) { bulk_matches_reference(&v, |x| x.to_le_bytes()); }

    #[test]
    fn bulk_u128(v: Vec<(u64, u64)>) {
        let v: Vec<u128> = v.iter().map(|&(hi, lo)| (hi as u128) << 64 | lo as u128).collect();
        bulk_matches_reference(&v, |x| x.to_le_bytes());
    }

    #[test]
    fn bulk_i8(v: Vec<i8>) { bulk_matches_reference(&v, |x| x.to_le_bytes()); }

    #[test]
    fn bulk_i16(v: Vec<i16>) { bulk_matches_reference(&v, |x| x.to_le_bytes()); }

    #[test]
    fn bulk_i32(v: Vec<i32>) { bulk_matches_reference(&v, |x| x.to_le_bytes()); }

    #[test]
    fn bulk_i64(v: Vec<i64>) { bulk_matches_reference(&v, |x| x.to_le_bytes()); }

    #[test]
    fn bulk_i128(v: Vec<(i64, u64)>) {
        let v: Vec<i128> = v.iter().map(|&(hi, lo)| (hi as i128) << 64 | lo as i128).collect();
        bulk_matches_reference(&v, |x| x.to_le_bytes());
    }

    #[test]
    fn bulk_f32(bits: Vec<u32>) {
        let v: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        bulk_matches_reference(&v, |x| x.to_bits().to_le_bytes());
    }

    #[test]
    fn bulk_f64(bits: Vec<u64>) {
        let v: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        bulk_matches_reference(&v, |x| x.to_bits().to_le_bytes());
    }

    #[test]
    fn bulk_usize(v: Vec<usize>) { bulk_matches_reference(&v, |x| (*x as u64).to_le_bytes()); }

    #[test]
    fn bulk_isize(v: Vec<isize>) { bulk_matches_reference(&v, |x| (*x as i64).to_le_bytes()); }

    /// Batch-sized runs, as the array layer ships them.
    #[test]
    fn bulk_long_u32(v in proptest::collection::vec(any::<u32>(), 0..4096)) {
        bulk_matches_reference(&v, |x| x.to_le_bytes());
    }

    /// Every proper prefix of a valid stream is an error, never a panic.
    #[test]
    fn every_truncation_is_an_error(
        idx: Vec<u32>,
        vals: Vec<u64>,
        words: Vec<usize>,
        bits: Vec<u32>,
        flags: Vec<bool>,
        label in ".*",
    ) {
        let floats: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        let v = (idx, vals, words, floats, flags, label.to_string());
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                <(Vec<u32>, Vec<u64>, Vec<usize>, Vec<f32>, Vec<bool>, String)>::from_bytes(
                    &bytes[..cut]
                )
                .is_err(),
                "prefix of {} / {} bytes decoded",
                cut,
                bytes.len()
            );
        }
    }
}

#[test]
fn vec_bool_and_char_still_validate_each_element() {
    let mut bytes = vec![true, false, true].to_bytes();
    bytes[2] = 2;
    assert!(matches!(
        Vec::<bool>::from_bytes(&bytes),
        Err(lamellar_codec::CodecError::InvalidDiscriminant { type_name: "bool", value: 2 })
    ));
    let mut bytes = vec!['a', 'λ'].to_bytes();
    bytes[5..9].copy_from_slice(&0xD800u32.to_le_bytes());
    assert_eq!(
        Vec::<char>::from_bytes(&bytes),
        Err(lamellar_codec::CodecError::InvalidChar(0xD800))
    );
}

/// Counts the bytes each thread asks the allocator for, so a test can show
/// that a decode allocated nothing large.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get() + layout.size()));
        std::alloc::System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bytes_allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(|c| c.get());
    let out = f();
    (out, ALLOCATED.with(|c| c.get()) - before)
}

#[test]
fn corrupt_length_prefix_is_eof_and_allocates_nothing_large() {
    fn check<T: Codec + std::fmt::Debug>() {
        for claimed in [4, 1000, 1 << 20, lamellar_codec::varint::DEFAULT_MAX_LEN as usize] {
            let mut bytes = Vec::new();
            lamellar_codec::varint::write_len(&mut bytes, claimed);
            bytes.extend_from_slice(&[1, 2, 3]);
            let (res, allocated) = bytes_allocated_by(|| Vec::<T>::from_bytes(&bytes));
            assert!(
                matches!(res, Err(lamellar_codec::CodecError::UnexpectedEof { .. })),
                "{}: claimed {claimed}, got {res:?}",
                std::any::type_name::<T>()
            );
            assert!(
                allocated < 4096,
                "{}: a {claimed}-element prefix over 3 bytes allocated {allocated} bytes",
                std::any::type_name::<T>()
            );
        }
    }
    check::<u16>();
    check::<u32>();
    check::<u64>();
    check::<u128>();
    check::<i32>();
    check::<f32>();
    check::<f64>();
    check::<usize>();
    check::<isize>();
    check::<char>();
    // Called directly, a length whose byte count overflows is still EOF.
    let (res, allocated) =
        bytes_allocated_by(|| u64::decode_vec(&mut Reader::new(&[1, 2, 3]), usize::MAX));
    assert!(matches!(res, Err(lamellar_codec::CodecError::UnexpectedEof { .. })), "{res:?}");
    assert!(allocated < 4096);
}
