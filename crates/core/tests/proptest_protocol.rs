//! Property tests on the wire protocol and queue transport: every framed
//! message stream deframes exactly, and random traffic patterns through
//! the flag-based queues deliver every byte exactly once, in per-pair
//! order.

use lamellar_core::lamellae::queue::{queue_footprint, QueueTransport};
use lamellar_core::proto::{deframe, Envelope};
use proptest::prelude::*;
use rofi_sim::fabric::{Fabric, FabricConfig};
use rofi_sim::NetConfig;
use std::sync::Arc;

/// Owned storage for one generated envelope — a variant index, header
/// words and a byte run — which [`Spec::env`] borrows as an [`Envelope`].
#[derive(Clone, Debug)]
struct Spec {
    kind: u8,
    words: (u64, u64, u64, u64),
    bytes: Vec<u8>,
    text: String,
}

impl Spec {
    fn env(&self) -> Envelope<'_> {
        let (a, b, c, d) = self.words;
        match self.kind {
            0 => Envelope::Request { am_id: a, req_id: b, payload: &self.bytes },
            1 => Envelope::Reply { req_id: a, payload: &self.bytes },
            2 => Envelope::LargeRequest { am_id: a, req_id: b, heap_offset: c, len: d },
            3 => Envelope::FreeHeap { offset: a },
            4 => Envelope::ReplyErr { req_id: a, msg: &self.text },
            5 => Envelope::RequestUnit { am_id: a, payload: &self.bytes },
            _ => Envelope::AckCount { n: a },
        }
    }
}

fn arb_envelope() -> impl Strategy<Value = Spec> {
    (
        0u8..7,
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(any::<u8>(), 0..200),
        ".{0,80}",
    )
        .prop_map(|(kind, words, bytes, text)| Spec { kind, words, bytes, text })
}

/// Frame every envelope back-to-back, returning the stream and the offset
/// of each frame boundary (0 and the end included).
fn frame_all(specs: &[Spec]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut boundaries = vec![0];
    for spec in specs {
        spec.env().frame(&mut buf);
        boundaries.push(buf.len());
    }
    (buf, boundaries)
}

fn envs(specs: &[Spec]) -> Vec<Envelope<'_>> {
    specs.iter().map(Spec::env).collect()
}

proptest! {
    // World/fabric setup per case is expensive on one core; keep case
    // counts modest but inputs rich.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frame_stream_roundtrips(specs in prop::collection::vec(arb_envelope(), 0..20)) {
        let (buf, _) = frame_all(&specs);
        let out: Vec<Envelope<'_>> =
            deframe(&buf).map(|env| env.expect("valid stream")).collect();
        prop_assert_eq!(out, envs(&specs));
    }

    #[test]
    fn truncated_stream_errors_without_panicking(
        specs in prop::collection::vec(arb_envelope(), 1..8),
        cut_permille in 0usize..1000,
    ) {
        let (buf, boundaries) = frame_all(&specs);
        // Cut strictly inside the stream: whatever decodes before the cut
        // must match a prefix of the input, and the first failure must be a
        // clean `Err`, never a panic or an out-of-bounds read.
        let cut = (buf.len() * cut_permille / 1000).min(buf.len().saturating_sub(1));
        let mut ok_prefix = Vec::new();
        let mut saw_err = false;
        for item in deframe(&buf[..cut]) {
            match item {
                Ok(env) => ok_prefix.push(env),
                Err(_) => { saw_err = true; }
            }
        }
        let want = envs(&specs);
        prop_assert!(ok_prefix.len() <= want.len());
        prop_assert_eq!(&want[..ok_prefix.len()], &ok_prefix[..]);
        // A cut mid-frame (not on a frame boundary) must surface an error.
        prop_assert_eq!(saw_err, !boundaries.contains(&cut));
    }

    #[test]
    fn garbage_never_panics_or_overreads(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        // Arbitrary bytes: every yielded item is Ok or Err — the iterator
        // must terminate, must stop after its first `Err`, and must never
        // read past the slice (checked by running against an exact-length
        // allocation under normal Rust bounds checking).
        let items: Vec<_> = deframe(&bytes).collect();
        let before_last = items.len().saturating_sub(1);
        prop_assert!(items[..before_last].iter().all(Result::is_ok));
    }

    #[test]
    fn valid_stream_with_garbage_suffix_errors(
        specs in prop::collection::vec(arb_envelope(), 1..6),
        garbage in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let (mut buf, _) = frame_all(&specs);
        buf.extend_from_slice(&garbage);
        let mut decoded = Vec::new();
        let mut errored = false;
        for item in deframe(&buf) {
            match item {
                Ok(env) => decoded.push(env),
                Err(_) => { errored = true; }
            }
        }
        // Every genuine envelope may decode, but the suffix must not be
        // silently swallowed unless it happens to parse as valid frames.
        let want = envs(&specs);
        prop_assert!(decoded.len() >= want.len() || errored);
        let n = want.len().min(decoded.len());
        prop_assert_eq!(&decoded[..n], &want[..n]);
    }

    #[test]
    fn queue_delivers_everything_exactly_once_in_pair_order(
        // (dst, payload length) per message from PE0, plus interleaved
        // drain points.
        msgs in prop::collection::vec((0usize..3, 1usize..300), 1..60),
    ) {
        let n = 3;
        let buf_size = 4096;
        let endpoints = Fabric::launch(FabricConfig {
            num_pes: n,
            sym_len: queue_footprint(n, buf_size) + 4096,
            heap_len: 4096,
            net: NetConfig::disabled(),
            metrics: true,
            fault: None,
        });
        let base = endpoints[0].fabric().alloc_symmetric(queue_footprint(n, buf_size), 64).unwrap();
        let qs: Vec<Arc<QueueTransport>> = endpoints
            .into_iter()
            .map(|ep| Arc::new(QueueTransport::new(ep, base, buf_size, 512)))
            .collect();

        // Sender thread: PE0 pushes every message (tagged with a sequence
        // number per destination), then flushes.
        let msgs2 = msgs.clone();
        let q0 = Arc::clone(&qs[0]);
        let sender = std::thread::spawn(move || {
            let mut seq = [0u32; 3];
            for (dst, len) in msgs2 {
                let mut payload = vec![(seq[dst] & 0xff) as u8; len];
                // Header: 4-byte sequence number.
                payload[..4.min(len)].copy_from_slice(&seq[dst].to_le_bytes()[..4.min(len)]);
                q0.send_with(dst, payload.len(), &mut |b| b.extend_from_slice(&payload)).unwrap();
                seq[dst] += 1;
            }
            // Keep flushing until every parked chunk reaches the wire —
            // the role the runtime's progress thread plays.
            while !q0.outgoing_empty() {
                q0.flush();
                std::thread::yield_now();
            }
        });

        // Receivers: drain until each PE has all its expected bytes.
        let mut expected = [0usize; 3];
        for &(dst, len) in &msgs {
            expected[dst] += len;
        }
        for (pe, q) in qs.iter().enumerate() {
            let mut got = 0usize;
            let mut spins = 0u64;
            while got < expected[pe] {
                q.progress(&mut |src, data| {
                    assert_eq!(src, 0, "only PE0 sends in this test");
                    got += data.len();
                });
                spins += 1;
                assert!(spins < 5_000_000, "queue stalled");
                std::thread::yield_now();
            }
            prop_assert_eq!(got, expected[pe]);
        }
        sender.join().unwrap();
    }
}
