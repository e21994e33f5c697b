//! Wire protocol: the envelopes that travel between PEs.
//!
//! Every runtime message is one [`Envelope`], framed with a varint length so
//! that many envelopes can be packed back-to-back into an aggregation buffer
//! (paper Sec. III-A: "Lamellar employs a double buffering message queue to
//! ... allow for more efficient use of network resources by transferring
//! larger messages"). The Lamellae moves these bytes without interpreting
//! them; this module is the only code that gives them a meaning.
//!
//! There is one representation. An [`Envelope`] borrows its byte run (an
//! AM payload, a reply output, an error text) from the buffer it was parsed
//! out of, so a receive buffer of N envelopes parses with zero payload
//! copies. The layout is written down once and serves the one sizer
//! ([`Envelope::framed_len`]) and the one writer ([`Envelope::frame_with`]);
//! [`Envelope::parse`] is its inverse, and [`deframe`] walks a wire chunk,
//! yielding `Err` and stopping at the first malformed frame.
//!
//! The writer never needs a payload as a slice: `fill` encodes it straight
//! into the destination aggregation buffer behind the header, and
//! [`Codec::encoded_len`] supplies its size up front so the varint prefixes
//! can be written first.

use lamellar_codec::{varint, Codec, CodecError, Reader};

/// One runtime-level message. Header fields are fixed-width `u64`s; a
/// variant's byte run (`payload`/`msg`) is borrowed, length-prefixed, and
/// last on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Envelope<'a> {
    /// Execute a registered AM and send back its output.
    ///
    /// `am_id` keys the runtime lookup table (Sec. III-C); `req_id`
    /// correlates the eventual [`Envelope::Reply`] with the caller's
    /// pending-request table. The reply goes back to the PE the transport
    /// received the request from.
    Request { am_id: u64, req_id: u64, payload: &'a [u8] },
    /// The encoded `Output` of a completed AM.
    Reply { req_id: u64, payload: &'a [u8] },
    /// A request whose payload was too large for the message queue and was
    /// parked in the sender's one-sided heap at `[heap_offset, +len)`. The
    /// receiver RDMA-gets the payload, then sends [`Envelope::FreeHeap`] so
    /// the sender can release the staging buffer — the "flag ... lets it
    /// know it is now free to release any resources associated with the
    /// transferred data" handshake of Sec. III-A.
    LargeRequest { am_id: u64, req_id: u64, heap_offset: u64, len: u64 },
    /// Release a staged large-payload buffer at the given heap offset.
    FreeHeap { offset: u64 },
    /// The AM failed on the destination PE (a panic, or a request it could
    /// not decode); carries the message so the caller's await gets a useful
    /// diagnostic instead of hanging on a reply that will never come.
    ReplyErr { req_id: u64, msg: &'a str },
    /// Fire-and-forget request for a unit-output AM (DESIGN.md §4d): no
    /// `req_id`, no pending-table slot, and no [`Envelope::Reply`] comes
    /// back. Completion is conveyed in bulk by [`Envelope::AckCount`].
    RequestUnit { am_id: u64, payload: &'a [u8] },
    /// Cumulative count of unit-AM requests from the receiving PE that this
    /// sender has finished executing — the counted-completion half of reply
    /// elision. Piggybacked onto whatever aggregation buffer next flushes
    /// toward the origin; the origin decrements `my_pending` by the delta
    /// against the last count it saw.
    AckCount { n: u64 },
}

// Wire discriminants, in declaration order. The golden-bytes tests pin the
// original five; the unit-path additions are append-only (discs 5 and 6).
const DISC_REQUEST: u64 = 0;
const DISC_REPLY: u64 = 1;
const DISC_LARGE_REQUEST: u64 = 2;
const DISC_FREE_HEAP: u64 = 3;
const DISC_REPLY_ERR: u64 = 4;
const DISC_REQUEST_UNIT: u64 = 5;
const DISC_ACK_COUNT: u64 = 6;

/// Most fixed-width header words any variant carries.
const MAX_WORDS: usize = 4;

impl<'a> Envelope<'a> {
    /// The wire layout: discriminant, header words (the first `n` of the
    /// array), and the byte run for variants that end in one.
    fn layout(&self) -> (u64, [u64; MAX_WORDS], usize, Option<&'a [u8]>) {
        match *self {
            Envelope::Request { am_id, req_id, payload } => {
                (DISC_REQUEST, [am_id, req_id, 0, 0], 2, Some(payload))
            }
            Envelope::Reply { req_id, payload } => {
                (DISC_REPLY, [req_id, 0, 0, 0], 1, Some(payload))
            }
            Envelope::LargeRequest { am_id, req_id, heap_offset, len } => {
                (DISC_LARGE_REQUEST, [am_id, req_id, heap_offset, len], 4, None)
            }
            Envelope::FreeHeap { offset } => (DISC_FREE_HEAP, [offset, 0, 0, 0], 1, None),
            Envelope::ReplyErr { req_id, msg } => {
                (DISC_REPLY_ERR, [req_id, 0, 0, 0], 1, Some(msg.as_bytes()))
            }
            Envelope::RequestUnit { am_id, payload } => {
                (DISC_REQUEST_UNIT, [am_id, 0, 0, 0], 1, Some(payload))
            }
            Envelope::AckCount { n } => (DISC_ACK_COUNT, [n, 0, 0, 0], 1, None),
        }
    }

    /// Body size (everything after the frame's length prefix) when the byte
    /// run is `tail_len` bytes long.
    fn body_len(&self, tail_len: usize) -> usize {
        let (disc, _, n, tail) = self.layout();
        let tail = tail.map_or(0, |_| varint::len_u64(tail_len as u64) + tail_len);
        varint::len_u64(disc) + 8 * n + tail
    }

    /// Framed size of this envelope when its byte run is `tail_len` bytes
    /// (ignored by variants without one) — lets a sender pick small-vs-staged
    /// routing and check aggregation thresholds before encoding anything.
    pub fn framed_len(&self, tail_len: usize) -> usize {
        let body = self.body_len(tail_len);
        varint::len_u64(body as u64) + body
    }

    /// Append this envelope, framed, to `buf`: length prefix, discriminant
    /// and header words, then — for a variant with a byte run — its length
    /// and `fill`, which must append exactly `tail_len` bytes. The byte run
    /// held in `self` is not read, so an AM payload or a reply output
    /// encodes once, in place (pass an empty slice); [`Envelope::frame`]
    /// writes the held one.
    pub fn frame_with(&self, buf: &mut Vec<u8>, tail_len: usize, fill: impl FnOnce(&mut Vec<u8>)) {
        let (disc, words, n, tail) = self.layout();
        let body = self.body_len(tail_len);
        buf.reserve(varint::len_u64(body as u64) + body);
        varint::write_len(buf, body);
        varint::write_u64(buf, disc);
        for word in &words[..n] {
            word.encode(buf);
        }
        if tail.is_some() {
            varint::write_len(buf, tail_len);
            let start = buf.len();
            fill(buf);
            debug_assert_eq!(buf.len() - start, tail_len, "frame_with: fill broke its length");
        }
    }

    /// [`Envelope::frame_with`] writing the byte run held in `self`.
    pub fn frame(&self, buf: &mut Vec<u8>) {
        let tail = self.layout().3.unwrap_or_default();
        self.frame_with(buf, tail.len(), |b| b.extend_from_slice(tail));
    }

    /// Parse one envelope body (the bytes between frame prefixes) without
    /// copying its byte run. The body must be consumed exactly.
    pub fn parse(body: &'a [u8]) -> Result<Self, CodecError> {
        let r = &mut Reader::new(body);
        let env = match varint::read_u64(r)? {
            DISC_REQUEST => Envelope::Request {
                am_id: u64::decode(r)?,
                req_id: u64::decode(r)?,
                payload: take_bytes(r)?,
            },
            DISC_REPLY => Envelope::Reply { req_id: u64::decode(r)?, payload: take_bytes(r)? },
            DISC_LARGE_REQUEST => Envelope::LargeRequest {
                am_id: u64::decode(r)?,
                req_id: u64::decode(r)?,
                heap_offset: u64::decode(r)?,
                len: u64::decode(r)?,
            },
            DISC_FREE_HEAP => Envelope::FreeHeap { offset: u64::decode(r)? },
            DISC_REPLY_ERR => Envelope::ReplyErr {
                req_id: u64::decode(r)?,
                msg: std::str::from_utf8(take_bytes(r)?).map_err(|_| CodecError::InvalidUtf8)?,
            },
            DISC_REQUEST_UNIT => {
                Envelope::RequestUnit { am_id: u64::decode(r)?, payload: take_bytes(r)? }
            }
            DISC_ACK_COUNT => Envelope::AckCount { n: u64::decode(r)? },
            value => return Err(CodecError::InvalidDiscriminant { type_name: "Envelope", value }),
        };
        r.finish()?;
        Ok(env)
    }
}

/// Borrow a length-prefixed byte run (a frame body, or the wire shape of
/// `Vec<u8>`/`String`) directly out of the reader.
fn take_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], CodecError> {
    let len = varint::read_len(r, varint::DEFAULT_MAX_LEN)?;
    r.take(len)
}

/// Framed size of an [`Envelope::Request`] carrying `payload_len` encoded
/// payload bytes.
pub fn framed_request_len(payload_len: usize) -> usize {
    Envelope::Request { am_id: 0, req_id: 0, payload: &[] }.framed_len(payload_len)
}

/// Framed size of an [`Envelope::RequestUnit`] carrying `payload_len`
/// encoded payload bytes.
pub fn framed_request_unit_len(payload_len: usize) -> usize {
    Envelope::RequestUnit { am_id: 0, payload: &[] }.framed_len(payload_len)
}

/// Iterate the envelopes packed into one wire buffer, each parsed in place.
/// A malformed frame yields one `Err` and ends the walk: past it the frame
/// boundaries are lost.
pub fn deframe(mut bytes: &[u8]) -> impl Iterator<Item = Result<Envelope<'_>, CodecError>> + '_ {
    std::iter::from_fn(move || {
        if bytes.is_empty() {
            return None;
        }
        let mut r = Reader::new(bytes);
        let env = take_bytes(&mut r).and_then(Envelope::parse);
        bytes = if env.is_ok() { r.peek() } else { &[] };
        Some(env)
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

    fn samples() -> Vec<Envelope<'static>> {
        vec![
            Envelope::Request { am_id: 1, req_id: 2, payload: &[9, 9, 9] },
            Envelope::Reply { req_id: 2, payload: &[] },
            Envelope::LargeRequest { am_id: 4, req_id: 5, heap_offset: 7, len: 8 },
            Envelope::FreeHeap { offset: 1024 },
            Envelope::ReplyErr { req_id: 9, msg: "remote AM panicked" },
            Envelope::RequestUnit { am_id: 10, payload: &[1, 2] },
            Envelope::AckCount { n: 12 },
        ]
    }

    fn framed(env: &Envelope<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        env.frame(&mut buf);
        buf
    }

    #[test]
    fn envelope_roundtrip() {
        for e in &samples() {
            let buf = framed(e);
            let got: Vec<_> = deframe(&buf).collect();
            assert_eq!(got, vec![Ok(*e)]);
        }
    }

    #[test]
    fn frame_deframe_many() {
        let payload = [1u8; 100];
        let envs = [
            Envelope::Request { am_id: 1, req_id: 1, payload: &payload },
            Envelope::Reply { req_id: 1, payload: &[2; 3] },
            Envelope::FreeHeap { offset: 0 },
        ];
        let mut buf = Vec::new();
        for e in &envs {
            e.frame(&mut buf);
        }
        let out: Vec<_> = deframe(&buf).collect::<Result<_, _>>().unwrap();
        assert_eq!(out, envs);
    }

    #[test]
    fn framed_len_is_exact() {
        for e in &samples() {
            let tail_len = e.layout().3.map_or(0, <[u8]>::len);
            assert_eq!(framed(e).len(), e.framed_len(tail_len), "framed_len mismatch for {e:?}");
        }
    }

    #[test]
    fn in_place_request_framing_is_byte_identical() {
        let payload = [7u8, 8, 9, 10];
        let owned = framed(&Envelope::Request { am_id: 11, req_id: 22, payload: &payload });
        let mut inplace = Vec::new();
        Envelope::Request { am_id: 11, req_id: 22, payload: &[] }.frame_with(
            &mut inplace,
            payload.len(),
            |buf| buf.extend_from_slice(&payload),
        );
        assert_eq!(owned, inplace);
        assert_eq!(owned.len(), framed_request_len(payload.len()));
    }

    #[test]
    fn in_place_reply_framing_is_byte_identical() {
        for payload in [vec![], vec![5u8; 300]] {
            let owned = framed(&Envelope::Reply { req_id: 42, payload: &payload });
            let mut inplace = Vec::new();
            Envelope::Reply { req_id: 42, payload: &[] }.frame_with(
                &mut inplace,
                payload.len(),
                |buf| buf.extend_from_slice(&payload),
            );
            assert_eq!(owned, inplace);
            assert_eq!(
                owned.len(),
                Envelope::Reply { req_id: 42, payload: &[] }.framed_len(payload.len())
            );
        }
        // A typed output encoded in place frames the same bytes as its
        // encode-then-copy form.
        let out: Vec<u64> = (0..1000).collect();
        let owned = framed(&Envelope::Reply { req_id: 7, payload: &out.to_bytes() });
        let mut inplace = Vec::new();
        Envelope::Reply { req_id: 7, payload: &[] }.frame_with(
            &mut inplace,
            out.encoded_len(),
            |buf| out.encode(buf),
        );
        assert_eq!(owned, inplace);
    }

    /// Pins the wire format: a change to these bytes is a change to what
    /// every peer produces and expects. No envelope names its sender — the
    /// transport reports it — so requests carry no `src_pe` word.
    #[test]
    fn golden_framed_bytes() {
        let cases: Vec<(Envelope<'_>, Vec<u8>)> = vec![
            (
                Envelope::Request { am_id: 1, req_id: 2, payload: &[9, 9, 9] },
                vec![
                    21, // frame len
                    0,  // disc Request
                    1, 0, 0, 0, 0, 0, 0, 0, // am_id
                    2, 0, 0, 0, 0, 0, 0, 0, // req_id
                    3, 9, 9, 9, // payload
                ],
            ),
            (
                Envelope::Reply { req_id: 2, payload: &[0xAB] },
                vec![11, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0xAB],
            ),
            (
                Envelope::LargeRequest { am_id: 4, req_id: 5, heap_offset: 7, len: 8 },
                vec![
                    33, // frame len
                    2,  // disc LargeRequest
                    4, 0, 0, 0, 0, 0, 0, 0, // am_id
                    5, 0, 0, 0, 0, 0, 0, 0, // req_id
                    7, 0, 0, 0, 0, 0, 0, 0, // heap_offset
                    8, 0, 0, 0, 0, 0, 0, 0, // len
                ],
            ),
            (Envelope::FreeHeap { offset: 1024 }, vec![9, 3, 0, 4, 0, 0, 0, 0, 0, 0]),
            (
                Envelope::ReplyErr { req_id: 9, msg: "hi" },
                vec![12, 4, 9, 0, 0, 0, 0, 0, 0, 0, 2, b'h', b'i'],
            ),
        ];
        for (env, golden) in &cases {
            assert_eq!(&framed(env), golden, "wire bytes drifted for {env:?}");
        }
    }

    /// Pins the unit-path additions (discs 5 and 6), appended after the
    /// original five discriminants.
    #[test]
    fn golden_framed_bytes_unit_envelopes() {
        let cases: Vec<(Envelope<'_>, Vec<u8>)> = vec![
            (
                Envelope::RequestUnit { am_id: 1, payload: &[9, 9, 9] },
                vec![
                    13, // frame len
                    5,  // disc RequestUnit
                    1, 0, 0, 0, 0, 0, 0, 0, // am_id
                    3, 9, 9, 9, // payload
                ],
            ),
            (Envelope::AckCount { n: 7 }, vec![9, 6, 7, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for (env, golden) in &cases {
            assert_eq!(&framed(env), golden, "wire bytes drifted for {env:?}");
        }
    }

    #[test]
    fn in_place_unit_framing_is_byte_identical() {
        let payload = [4u8, 5, 6];
        let owned = framed(&Envelope::RequestUnit { am_id: 17, payload: &payload });
        let mut inplace = Vec::new();
        Envelope::RequestUnit { am_id: 17, payload: &[] }.frame_with(
            &mut inplace,
            payload.len(),
            |buf| buf.extend_from_slice(&payload),
        );
        assert_eq!(owned, inplace);
        assert_eq!(owned.len(), framed_request_unit_len(payload.len()));

        // A variant without a byte run ignores `tail_len` and never calls `fill`.
        let ack = Envelope::AckCount { n: 900 };
        let mut inplace_ack = Vec::new();
        ack.frame_with(&mut inplace_ack, 5, |_| unreachable!("AckCount has no byte run"));
        assert_eq!(framed(&ack), inplace_ack);
        assert_eq!(inplace_ack.len(), ack.framed_len(5));
    }

    #[test]
    fn deframe_reports_truncation_and_stops() {
        let mut buf = framed(&Envelope::FreeHeap { offset: 7 });
        Envelope::Reply { req_id: 1, payload: &[1, 2, 3] }.frame(&mut buf);
        buf.extend(framed(&Envelope::AckCount { n: 1 }));
        // Cut into the middle of the third frame's body.
        let cut = &buf[..buf.len() - 2];
        let items: Vec<_> = deframe(cut).collect();
        assert_eq!(items.len(), 3);
        assert!(items[0].is_ok() && items[1].is_ok());
        assert!(items[2].is_err());
        // A bad discriminant ends the walk even though the next frame is intact.
        let mut buf = vec![2, 9, 0];
        buf.extend(framed(&Envelope::AckCount { n: 1 }));
        let items: Vec<_> = deframe(&buf).collect();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], Err(CodecError::InvalidDiscriminant { value: 9, .. })));
    }

    #[test]
    fn empty_buffer_deframes_to_nothing() {
        assert_eq!(deframe(&[]).count(), 0);
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
