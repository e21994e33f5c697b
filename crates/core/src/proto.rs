//! Wire protocol: the envelopes that travel between PEs.
//!
//! Every runtime message is one [`Envelope`], framed with a varint length so
//! that many envelopes can be packed back-to-back into an aggregation buffer
//! (paper Sec. III-A: "Lamellar employs a double buffering message queue to
//! ... allow for more efficient use of network resources by transferring
//! larger messages").
//!
//! Two representations exist for the same wire bytes:
//!
//! * [`Envelope`] — owned; used when a message must outlive the buffer it
//!   arrived in (large-request staging, tests).
//! * [`EnvelopeView`] — borrowed; payload bytes stay inside the receive
//!   buffer until the AM registry's typed decode. The hot receive path is
//!   view-only, so an aggregated buffer of N envelopes is parsed with zero
//!   payload copies.
//!
//! The hot *send* path never materializes an `Envelope` either: the
//! [`frame_request_with`]/[`frame_reply_with`] helpers write the frame prefix and
//! envelope header straight into the destination aggregation buffer and let
//! the caller encode the payload in place. [`Codec::encoded_len`] supplies
//! the exact sizes up front so the varint prefixes can be written first.

use lamellar_codec::{impl_codec_enum, varint, Codec, CodecError, Reader};

/// One runtime-level message.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// Execute a registered AM and send back its output.
    ///
    /// `am_id` keys the runtime lookup table (Sec. III-C); `req_id`
    /// correlates the eventual [`Envelope::Reply`] with the caller's
    /// pending-request table; `src_pe` is where the reply goes.
    Request(u64, u64, u64, Vec<u8>),
    /// The encoded `Output` of a completed AM.
    Reply(u64, Vec<u8>),
    /// A request whose payload was too large for the message queue and was
    /// parked in the sender's one-sided heap instead: fields are
    /// `(am_id, req_id, src_pe, heap_offset, len)`. The receiver RDMA-gets
    /// the payload, then sends [`Envelope::FreeHeap`] so the sender can
    /// release the staging buffer — the "flag ... lets it know it is now
    /// free to release any resources associated with the transferred data"
    /// handshake of Sec. III-A.
    LargeRequest(u64, u64, u64, u64, u64),
    /// Release a staged large-payload buffer at the given heap offset.
    FreeHeap(u64),
    /// The AM panicked on the destination PE; carries the panic message so
    /// the caller's await can re-panic with a useful diagnostic instead of
    /// hanging on a reply that will never come.
    ReplyErr(u64, String),
    /// Fire-and-forget request for a unit-output AM (DESIGN.md §4d): no
    /// `req_id`, no pending-table slot, and no [`Envelope::Reply`] comes
    /// back. Fields are `(am_id, src_pe, payload)`. Completion is conveyed
    /// in bulk by [`Envelope::AckCount`].
    RequestUnit(u64, u64, Vec<u8>),
    /// Cumulative count of unit-AM requests from the receiving PE that this
    /// sender has finished executing — the counted-completion half of reply
    /// elision. Piggybacked onto whatever aggregation buffer next flushes
    /// toward the origin; the origin decrements `my_pending` by the delta
    /// against the last count it saw.
    AckCount(u64),
}

impl_codec_enum!(Envelope {
    Request(am_id, req_id, src_pe, payload),
    Reply(req_id, payload),
    LargeRequest(am_id, req_id, src_pe, heap_offset, len),
    FreeHeap(offset),
    ReplyErr(req_id, msg),
    RequestUnit(am_id, src_pe, payload),
    AckCount(n),
});

// Wire discriminants as assigned by `impl_codec_enum!` (declaration order).
// `EnvelopeView` and the in-place framing helpers must stay in lockstep with
// the owned encode; the golden-bytes test pins the original five and the
// unit-path additions are append-only (discs 5 and 6) so a pre-elision peer
// still decodes everything it knew about.
const DISC_REQUEST: u64 = 0;
const DISC_REPLY: u64 = 1;
const DISC_LARGE_REQUEST: u64 = 2;
const DISC_FREE_HEAP: u64 = 3;
const DISC_REPLY_ERR: u64 = 4;
const DISC_REQUEST_UNIT: u64 = 5;
const DISC_ACK_COUNT: u64 = 6;

/// A borrowed decode of one envelope: payload bytes reference the receive
/// buffer instead of being copied out. Byte-compatible with [`Envelope`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnvelopeView<'a> {
    Request { am_id: u64, req_id: u64, src_pe: u64, payload: &'a [u8] },
    Reply { req_id: u64, payload: &'a [u8] },
    LargeRequest { am_id: u64, req_id: u64, src_pe: u64, heap_offset: u64, len: u64 },
    FreeHeap { offset: u64 },
    ReplyErr { req_id: u64, msg: &'a str },
    RequestUnit { am_id: u64, src_pe: u64, payload: &'a [u8] },
    AckCount { n: u64 },
}

impl<'a> EnvelopeView<'a> {
    /// Parse one envelope body (the bytes between frame prefixes) without
    /// copying the payload. Requires the body to be fully consumed, exactly
    /// like `Envelope::from_bytes`.
    pub fn parse(body: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(body);
        let view = Self::decode_view(&mut r)?;
        r.finish()?;
        Ok(view)
    }

    fn decode_view(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let disc = varint::read_u64(r)?;
        match disc {
            DISC_REQUEST => {
                let am_id = u64::decode(r)?;
                let req_id = u64::decode(r)?;
                let src_pe = u64::decode(r)?;
                let payload = take_bytes(r)?;
                Ok(EnvelopeView::Request { am_id, req_id, src_pe, payload })
            }
            DISC_REPLY => {
                let req_id = u64::decode(r)?;
                let payload = take_bytes(r)?;
                Ok(EnvelopeView::Reply { req_id, payload })
            }
            DISC_LARGE_REQUEST => {
                let am_id = u64::decode(r)?;
                let req_id = u64::decode(r)?;
                let src_pe = u64::decode(r)?;
                let heap_offset = u64::decode(r)?;
                let len = u64::decode(r)?;
                Ok(EnvelopeView::LargeRequest { am_id, req_id, src_pe, heap_offset, len })
            }
            DISC_FREE_HEAP => Ok(EnvelopeView::FreeHeap { offset: u64::decode(r)? }),
            DISC_REPLY_ERR => {
                let req_id = u64::decode(r)?;
                let bytes = take_bytes(r)?;
                let msg = std::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)?;
                Ok(EnvelopeView::ReplyErr { req_id, msg })
            }
            DISC_REQUEST_UNIT => {
                let am_id = u64::decode(r)?;
                let src_pe = u64::decode(r)?;
                let payload = take_bytes(r)?;
                Ok(EnvelopeView::RequestUnit { am_id, src_pe, payload })
            }
            DISC_ACK_COUNT => Ok(EnvelopeView::AckCount { n: u64::decode(r)? }),
            value => Err(CodecError::InvalidDiscriminant { type_name: "Envelope", value }),
        }
    }

    /// Copy into an owned [`Envelope`] (large-request staging, tests).
    pub fn to_owned(&self) -> Envelope {
        match *self {
            EnvelopeView::Request { am_id, req_id, src_pe, payload } => {
                Envelope::Request(am_id, req_id, src_pe, payload.to_vec())
            }
            EnvelopeView::Reply { req_id, payload } => Envelope::Reply(req_id, payload.to_vec()),
            EnvelopeView::LargeRequest { am_id, req_id, src_pe, heap_offset, len } => {
                Envelope::LargeRequest(am_id, req_id, src_pe, heap_offset, len)
            }
            EnvelopeView::FreeHeap { offset } => Envelope::FreeHeap(offset),
            EnvelopeView::ReplyErr { req_id, msg } => Envelope::ReplyErr(req_id, msg.to_string()),
            EnvelopeView::RequestUnit { am_id, src_pe, payload } => {
                Envelope::RequestUnit(am_id, src_pe, payload.to_vec())
            }
            EnvelopeView::AckCount { n } => Envelope::AckCount(n),
        }
    }
}

/// Borrow a length-prefixed byte run (the wire shape of `Vec<u8>`/`String`)
/// directly out of the reader.
fn take_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], CodecError> {
    let len = varint::read_len(r, varint::DEFAULT_MAX_LEN)?;
    r.take(len)
}

/// Append `envelope` to `buf` with a varint length prefix — a single encode
/// pass straight into the destination buffer (no intermediate `Vec`).
pub fn frame(envelope: &Envelope, buf: &mut Vec<u8>) {
    let body_len = envelope.encoded_len();
    buf.reserve(varint::len_u64(body_len as u64) + body_len);
    varint::write_len(buf, body_len);
    envelope.encode(buf);
}

/// Serialized size of a framed envelope (used against the aggregation
/// threshold before paying for the real encode). Pure arithmetic via
/// [`Codec::encoded_len`]; nothing is encoded.
pub fn framed_len(envelope: &Envelope) -> usize {
    let body_len = envelope.encoded_len();
    varint::len_u64(body_len as u64) + body_len
}

fn request_body_len(payload_len: usize) -> usize {
    varint::len_u64(DISC_REQUEST) + 24 + varint::len_u64(payload_len as u64) + payload_len
}

/// Framed size of an [`Envelope::Request`] carrying `payload_len` encoded
/// payload bytes — lets the sender pick small-vs-staged routing and check
/// aggregation thresholds before serializing the AM at all.
pub fn framed_request_len(payload_len: usize) -> usize {
    let body = request_body_len(payload_len);
    varint::len_u64(body as u64) + body
}

/// Frame an [`Envelope::Request`] directly into `buf`: prefix and header are
/// written first, then `fill` encodes exactly `payload_len` payload bytes in
/// place. Byte-identical to `frame(&Envelope::Request(..))` without ever
/// materializing the payload separately.
pub fn frame_request_with(
    buf: &mut Vec<u8>,
    am_id: u64,
    req_id: u64,
    src_pe: u64,
    payload_len: usize,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    let body_len = request_body_len(payload_len);
    buf.reserve(varint::len_u64(body_len as u64) + body_len);
    varint::write_len(buf, body_len);
    varint::write_u64(buf, DISC_REQUEST);
    am_id.encode(buf);
    req_id.encode(buf);
    src_pe.encode(buf);
    varint::write_len(buf, payload_len);
    let start = buf.len();
    fill(buf);
    debug_assert_eq!(
        buf.len() - start,
        payload_len,
        "frame_request_with: fill wrote a different length than encoded_len promised"
    );
}

fn request_unit_body_len(payload_len: usize) -> usize {
    varint::len_u64(DISC_REQUEST_UNIT) + 16 + varint::len_u64(payload_len as u64) + payload_len
}

/// Framed size of an [`Envelope::RequestUnit`] carrying `payload_len`
/// encoded payload bytes.
pub fn framed_request_unit_len(payload_len: usize) -> usize {
    let body = request_unit_body_len(payload_len);
    varint::len_u64(body as u64) + body
}

/// Frame an [`Envelope::RequestUnit`] directly into `buf` — the unit-AM
/// analogue of [`frame_request_with`]: two fixed header words (no `req_id`),
/// then `fill` encodes exactly `payload_len` payload bytes in place.
pub fn frame_request_unit_with(
    buf: &mut Vec<u8>,
    am_id: u64,
    src_pe: u64,
    payload_len: usize,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    let body_len = request_unit_body_len(payload_len);
    buf.reserve(varint::len_u64(body_len as u64) + body_len);
    varint::write_len(buf, body_len);
    varint::write_u64(buf, DISC_REQUEST_UNIT);
    am_id.encode(buf);
    src_pe.encode(buf);
    varint::write_len(buf, payload_len);
    let start = buf.len();
    fill(buf);
    debug_assert_eq!(
        buf.len() - start,
        payload_len,
        "frame_request_unit_with: fill wrote a different length than encoded_len promised"
    );
}

/// Framed size of an [`Envelope::AckCount`] carrying count `n`.
pub fn framed_ack_count_len(n: u64) -> usize {
    let body = varint::len_u64(DISC_ACK_COUNT) + n.encoded_len();
    varint::len_u64(body as u64) + body
}

/// Frame an [`Envelope::AckCount`] directly into `buf`.
pub fn frame_ack_count(buf: &mut Vec<u8>, n: u64) {
    let body_len = varint::len_u64(DISC_ACK_COUNT) + n.encoded_len();
    buf.reserve(varint::len_u64(body_len as u64) + body_len);
    varint::write_len(buf, body_len);
    varint::write_u64(buf, DISC_ACK_COUNT);
    n.encode(buf);
}

fn reply_body_len(payload_len: usize) -> usize {
    varint::len_u64(DISC_REPLY) + 8 + varint::len_u64(payload_len as u64) + payload_len
}

/// Framed size of an [`Envelope::Reply`] carrying `payload_len` bytes.
pub fn framed_reply_len(payload_len: usize) -> usize {
    let body = reply_body_len(payload_len);
    varint::len_u64(body as u64) + body
}

/// Frame an [`Envelope::Reply`] directly into `buf` — the reply analogue of
/// [`frame_request_with`]: `fill` encodes exactly `payload_len` bytes of
/// the AM's output in place, so the output is written once, straight into
/// the aggregation buffer.
pub fn frame_reply_with(
    buf: &mut Vec<u8>,
    req_id: u64,
    payload_len: usize,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    let body_len = reply_body_len(payload_len);
    buf.reserve(varint::len_u64(body_len as u64) + body_len);
    varint::write_len(buf, body_len);
    varint::write_u64(buf, DISC_REPLY);
    req_id.encode(buf);
    varint::write_len(buf, payload_len);
    let start = buf.len();
    fill(buf);
    debug_assert_eq!(
        buf.len() - start,
        payload_len,
        "frame_reply_with: fill wrote a different length than encoded_len promised"
    );
}

/// Iterate the envelope *bodies* packed into one wire buffer without
/// decoding them — the receive path hands these slices to
/// [`EnvelopeView::parse`] one at a time. Panics on a corrupt frame header
/// (in-process wire corruption is a runtime bug, not recoverable input).
pub fn deframe_raw(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> + '_ {
    std::iter::from_fn(move || {
        if bytes.is_empty() {
            return None;
        }
        let mut r = Reader::new(bytes);
        let len = varint::read_len(&mut r, varint::DEFAULT_MAX_LEN).expect("corrupt frame header");
        let start = r.position();
        let body = &bytes[start..start + len];
        bytes = &bytes[start + len..];
        Some(body)
    })
}

/// Iterate borrowed envelope views packed into one wire buffer.
pub fn deframe_views(bytes: &[u8]) -> impl Iterator<Item = EnvelopeView<'_>> + '_ {
    deframe_raw(bytes).map(|body| EnvelopeView::parse(body).expect("corrupt envelope"))
}

/// Iterate owned envelopes packed into one wire buffer (tests and staging
/// paths that must outlive the buffer).
pub fn deframe(bytes: &[u8]) -> impl Iterator<Item = Envelope> + '_ {
    deframe_raw(bytes).map(|body| Envelope::from_bytes(body).expect("corrupt envelope"))
}

/// Fallible deframe for robustness testing and defensive consumers: yields
/// `Err` (and then stops) instead of panicking on truncated or corrupt
/// input.
pub fn try_deframe_views(
    mut bytes: &[u8],
) -> impl Iterator<Item = Result<EnvelopeView<'_>, CodecError>> + '_ {
    let mut dead = false;
    std::iter::from_fn(move || {
        if dead || bytes.is_empty() {
            return None;
        }
        let step = (|| {
            let mut r = Reader::new(bytes);
            let len = varint::read_len(&mut r, varint::DEFAULT_MAX_LEN)?;
            let start = r.position();
            if bytes.len() - start < len {
                return Err(CodecError::UnexpectedEof {
                    needed: len,
                    available: bytes.len() - start,
                });
            }
            let body = &bytes[start..start + len];
            let view = EnvelopeView::parse(body)?;
            Ok((view, start + len))
        })();
        match step {
            Ok((view, consumed)) => {
                bytes = &bytes[consumed..];
                Some(Ok(view))
            }
            Err(e) => {
                dead = true;
                Some(Err(e))
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Reliable-delivery chunk header (see DESIGN.md §4b).
// ---------------------------------------------------------------------------

/// Bytes of chunk header the reliable-delivery layer prepends to every wire
/// chunk: sequence number (u64 LE) + FNV-1a checksum (u64 LE) over the
/// sequence number and the payload.
pub const CHUNK_HDR_LEN: usize = 16;

/// FNV-1a over the sequence number's LE bytes followed by the payload.
/// Covering the sequence number means a bit flip anywhere in the chunk —
/// header or payload — fails validation, so corruption is never misread as
/// a duplicate or a reordering.
fn chunk_checksum(seq: u64, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in seq.to_le_bytes().iter().chain(payload) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stamp sequence number `seq` and the matching checksum into the first
/// [`CHUNK_HDR_LEN`] bytes of `chunk` (which the sender reserved when it
/// opened the aggregation buffer). Everything after the header is payload.
///
/// # Panics
/// If `chunk` is shorter than the header.
pub fn write_chunk_header(chunk: &mut [u8], seq: u64) {
    assert!(chunk.len() >= CHUNK_HDR_LEN, "chunk too short for a header");
    let sum = chunk_checksum(seq, &chunk[CHUNK_HDR_LEN..]);
    chunk[..8].copy_from_slice(&seq.to_le_bytes());
    chunk[8..16].copy_from_slice(&sum.to_le_bytes());
}

/// Validate a received chunk's header; `Some((seq, payload))` when intact,
/// `None` when the chunk is too short for a header or its checksum does not
/// match (truncated or corrupted in flight — the receiver must discard it
/// without delivery and let the sender's retransmit timer recover).
pub fn read_chunk_header(chunk: &[u8]) -> Option<(u64, &[u8])> {
    if chunk.len() < CHUNK_HDR_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
    let sum = u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes"));
    let payload = &chunk[CHUNK_HDR_LEN..];
    (chunk_checksum(seq, payload) == sum).then_some((seq, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Envelope> {
        vec![
            Envelope::Request(1, 2, 3, vec![9, 9, 9]),
            Envelope::Reply(2, vec![]),
            Envelope::LargeRequest(4, 5, 6, 7, 8),
            Envelope::FreeHeap(1024),
            Envelope::ReplyErr(9, "remote AM panicked".to_string()),
            Envelope::RequestUnit(10, 11, vec![1, 2]),
            Envelope::AckCount(12),
        ]
    }

    #[test]
    fn envelope_roundtrip() {
        for e in &samples() {
            assert_eq!(Envelope::from_bytes(&e.to_bytes()).unwrap(), *e);
        }
    }

    #[test]
    fn frame_deframe_many() {
        let envs = vec![
            Envelope::Request(1, 1, 0, vec![1; 100]),
            Envelope::Reply(1, vec![2; 3]),
            Envelope::FreeHeap(0),
        ];
        let mut buf = Vec::new();
        for e in &envs {
            frame(e, &mut buf);
        }
        let out: Vec<_> = deframe(&buf).collect();
        assert_eq!(out, envs);
        let views: Vec<_> = deframe_views(&buf).map(|v| v.to_owned()).collect();
        assert_eq!(views, envs);
    }

    #[test]
    fn framed_len_is_exact() {
        for e in &samples() {
            let mut buf = Vec::new();
            frame(e, &mut buf);
            assert_eq!(buf.len(), framed_len(e), "framed_len mismatch for {e:?}");
        }
    }

    #[test]
    fn view_parse_matches_owned_decode() {
        for e in &samples() {
            let bytes = e.to_bytes();
            let view = EnvelopeView::parse(&bytes).unwrap();
            assert_eq!(view.to_owned(), *e);
        }
    }

    #[test]
    fn in_place_request_framing_is_byte_identical() {
        let payload = vec![7u8, 8, 9, 10];
        let mut owned = Vec::new();
        frame(&Envelope::Request(11, 22, 33, payload.clone()), &mut owned);
        let mut inplace = Vec::new();
        frame_request_with(&mut inplace, 11, 22, 33, payload.len(), |buf| {
            buf.extend_from_slice(&payload)
        });
        assert_eq!(owned, inplace);
        assert_eq!(owned.len(), framed_request_len(payload.len()));
    }

    #[test]
    fn in_place_reply_framing_is_byte_identical() {
        for payload in [vec![], vec![5u8; 300]] {
            let mut owned = Vec::new();
            frame(&Envelope::Reply(42, payload.clone()), &mut owned);
            let mut inplace = Vec::new();
            frame_reply_with(&mut inplace, 42, payload.len(), |buf| {
                buf.extend_from_slice(&payload)
            });
            assert_eq!(owned, inplace);
            assert_eq!(owned.len(), framed_reply_len(payload.len()));
        }
        // A typed output encoded in place frames the same bytes as its
        // encode-then-copy form.
        let out: Vec<u64> = (0..1000).collect();
        let mut owned = Vec::new();
        frame(&Envelope::Reply(7, out.to_bytes()), &mut owned);
        let mut inplace = Vec::new();
        frame_reply_with(&mut inplace, 7, out.encoded_len(), |buf| out.encode(buf));
        assert_eq!(owned, inplace);
    }

    /// Pins the wire format: these bytes must never change (they are what a
    /// pre-refactor peer would produce and expect).
    #[test]
    fn golden_framed_bytes() {
        let cases: Vec<(Envelope, Vec<u8>)> = vec![
            (
                Envelope::Request(1, 2, 3, vec![9, 9, 9]),
                vec![
                    29, // frame len
                    0,  // disc Request
                    1, 0, 0, 0, 0, 0, 0, 0, // am_id
                    2, 0, 0, 0, 0, 0, 0, 0, // req_id
                    3, 0, 0, 0, 0, 0, 0, 0, // src_pe
                    3, 9, 9, 9, // payload
                ],
            ),
            (Envelope::Reply(2, vec![0xAB]), vec![11, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0xAB]),
            (
                Envelope::LargeRequest(4, 5, 6, 7, 8),
                vec![
                    41, // frame len
                    2,  // disc LargeRequest
                    4, 0, 0, 0, 0, 0, 0, 0, // am_id
                    5, 0, 0, 0, 0, 0, 0, 0, // req_id
                    6, 0, 0, 0, 0, 0, 0, 0, // src_pe
                    7, 0, 0, 0, 0, 0, 0, 0, // heap_offset
                    8, 0, 0, 0, 0, 0, 0, 0, // len
                ],
            ),
            (Envelope::FreeHeap(1024), vec![9, 3, 0, 4, 0, 0, 0, 0, 0, 0]),
            (
                Envelope::ReplyErr(9, "hi".to_string()),
                vec![12, 4, 9, 0, 0, 0, 0, 0, 0, 0, 2, b'h', b'i'],
            ),
        ];
        for (env, golden) in &cases {
            let mut buf = Vec::new();
            frame(env, &mut buf);
            assert_eq!(&buf, golden, "wire bytes drifted for {env:?}");
        }
    }

    /// Pins the unit-path additions (discs 5 and 6) separately so the
    /// original golden test stays untouched — append-only evolution.
    #[test]
    fn golden_framed_bytes_unit_envelopes() {
        let cases: Vec<(Envelope, Vec<u8>)> = vec![
            (
                Envelope::RequestUnit(1, 3, vec![9, 9, 9]),
                vec![
                    21, // frame len
                    5,  // disc RequestUnit
                    1, 0, 0, 0, 0, 0, 0, 0, // am_id
                    3, 0, 0, 0, 0, 0, 0, 0, // src_pe
                    3, 9, 9, 9, // payload
                ],
            ),
            (Envelope::AckCount(7), vec![9, 6, 7, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for (env, golden) in &cases {
            let mut buf = Vec::new();
            frame(env, &mut buf);
            assert_eq!(&buf, golden, "wire bytes drifted for {env:?}");
        }
    }

    #[test]
    fn in_place_unit_framing_is_byte_identical() {
        let payload = vec![4u8, 5, 6];
        let mut owned = Vec::new();
        frame(&Envelope::RequestUnit(17, 2, payload.clone()), &mut owned);
        let mut inplace = Vec::new();
        frame_request_unit_with(&mut inplace, 17, 2, payload.len(), |buf| {
            buf.extend_from_slice(&payload)
        });
        assert_eq!(owned, inplace);
        assert_eq!(owned.len(), framed_request_unit_len(payload.len()));

        let mut owned_ack = Vec::new();
        frame(&Envelope::AckCount(900), &mut owned_ack);
        let mut inplace_ack = Vec::new();
        frame_ack_count(&mut inplace_ack, 900);
        assert_eq!(owned_ack, inplace_ack);
        assert_eq!(owned_ack.len(), framed_ack_count_len(900));
    }

    #[test]
    fn try_deframe_reports_truncation() {
        let mut buf = Vec::new();
        frame(&Envelope::FreeHeap(7), &mut buf);
        frame(&Envelope::Reply(1, vec![1, 2, 3]), &mut buf);
        // Cut into the middle of the second frame's body.
        let cut = &buf[..buf.len() - 2];
        let items: Vec<_> = try_deframe_views(cut).collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        assert!(items[1].is_err());
    }

    #[test]
    fn empty_buffer_deframes_to_nothing() {
        assert_eq!(deframe(&[]).count(), 0);
        assert_eq!(try_deframe_views(&[]).count(), 0);
    }
}

#[cfg(test)]
mod chunk_header_tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_seq_and_payload() {
        let mut chunk = vec![0u8; CHUNK_HDR_LEN];
        chunk.extend_from_slice(b"framed envelope bytes");
        write_chunk_header(&mut chunk, 42);
        let (seq, payload) = read_chunk_header(&chunk).expect("intact chunk validates");
        assert_eq!(seq, 42);
        assert_eq!(payload, b"framed envelope bytes");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut chunk = vec![0u8; CHUNK_HDR_LEN];
        write_chunk_header(&mut chunk, 7);
        assert_eq!(read_chunk_header(&chunk), Some((7, &[][..])));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut chunk = vec![0u8; CHUNK_HDR_LEN];
        chunk.extend_from_slice(&[0xa5; 24]);
        write_chunk_header(&mut chunk, 3);
        for byte in 0..chunk.len() {
            for bit in 0..8 {
                let mut damaged = chunk.clone();
                damaged[byte] ^= 1 << bit;
                assert_eq!(
                    read_chunk_header(&damaged),
                    None,
                    "flip of bit {bit} in byte {byte} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut chunk = vec![0u8; CHUNK_HDR_LEN];
        chunk.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        write_chunk_header(&mut chunk, 9);
        for new_len in 0..chunk.len() {
            assert_eq!(read_chunk_header(&chunk[..new_len]), None, "truncation to {new_len}");
        }
    }
}
