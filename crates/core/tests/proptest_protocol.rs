//! Property tests on the wire protocol and queue transport: every framed
//! message stream deframes exactly, and random traffic patterns through
//! the flag-based queues deliver every byte exactly once, in per-pair
//! order.

use lamellar_core::lamellae::queue::{queue_footprint, QueueTransport};
use lamellar_core::proto::{deframe, frame, try_deframe_views, Envelope};
use proptest::prelude::*;
use rofi_sim::fabric::{Fabric, FabricConfig};
use rofi_sim::NetConfig;
use std::sync::Arc;

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), 0u64..64, prop::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(a, r, s, p)| Envelope::Request(a, r, s, p)),
        (any::<u64>(), prop::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(r, p)| Envelope::Reply(r, p)),
        (any::<u64>(), any::<u64>(), 0u64..64, any::<u64>(), any::<u64>())
            .prop_map(|(a, r, s, o, l)| Envelope::LargeRequest(a, r, s, o, l)),
        any::<u64>().prop_map(Envelope::FreeHeap),
        (any::<u64>(), ".{0,80}").prop_map(|(r, m)| Envelope::ReplyErr(r, m)),
    ]
}

proptest! {
    // World/fabric setup per case is expensive on one core; keep case
    // counts modest but inputs rich.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frame_stream_roundtrips(envs in prop::collection::vec(arb_envelope(), 0..20)) {
        let mut buf = Vec::new();
        for e in &envs {
            frame(e, &mut buf);
        }
        let out: Vec<Envelope> = deframe(&buf).collect();
        prop_assert_eq!(out, envs);
    }

    #[test]
    fn view_stream_roundtrips(envs in prop::collection::vec(arb_envelope(), 0..20)) {
        let mut buf = Vec::new();
        for e in &envs {
            frame(e, &mut buf);
        }
        let out: Vec<Envelope> = try_deframe_views(&buf)
            .map(|v| v.expect("valid stream").to_owned())
            .collect();
        prop_assert_eq!(out, envs);
    }

    #[test]
    fn truncated_stream_errors_without_panicking(
        envs in prop::collection::vec(arb_envelope(), 1..8),
        cut_permille in 0usize..1000,
    ) {
        let mut buf = Vec::new();
        for e in &envs {
            frame(e, &mut buf);
        }
        // Cut strictly inside the stream: whatever decodes before the cut
        // must match a prefix of the input, and the first failure must be a
        // clean `Err`, never a panic or an out-of-bounds read.
        let cut = (buf.len() * cut_permille / 1000).min(buf.len().saturating_sub(1));
        let mut ok_prefix = Vec::new();
        let mut saw_err = false;
        for item in try_deframe_views(&buf[..cut]) {
            match item {
                Ok(v) => ok_prefix.push(v.to_owned()),
                Err(_) => { saw_err = true; }
            }
        }
        prop_assert!(ok_prefix.len() <= envs.len());
        prop_assert_eq!(&envs[..ok_prefix.len()], &ok_prefix[..]);
        // A cut mid-frame (not on a frame boundary) must surface an error.
        let boundary = {
            let mut offsets = vec![0usize];
            let mut b = Vec::new();
            for e in &envs {
                frame(e, &mut b);
                offsets.push(b.len());
            }
            offsets.contains(&cut)
        };
        prop_assert_eq!(saw_err, !boundary);
    }

    #[test]
    fn garbage_never_panics_or_overreads(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        // Arbitrary bytes: every yielded item is Ok or Err — the iterator
        // must terminate and must never read past the slice (checked by
        // running against an exact-length allocation under normal Rust
        // bounds checking).
        for item in try_deframe_views(&bytes) {
            let _ = item;
        }
    }

    #[test]
    fn valid_stream_with_garbage_suffix_errors(
        envs in prop::collection::vec(arb_envelope(), 1..6),
        garbage in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut buf = Vec::new();
        for e in &envs {
            frame(e, &mut buf);
        }
        buf.extend_from_slice(&garbage);
        let mut decoded = Vec::new();
        let mut errored = false;
        for item in try_deframe_views(&buf) {
            match item {
                Ok(v) => decoded.push(v.to_owned()),
                Err(_) => { errored = true; }
            }
        }
        // Every genuine envelope may decode, but the suffix must not be
        // silently swallowed unless it happens to parse as valid frames.
        prop_assert!(decoded.len() >= envs.len() || errored);
        prop_assert_eq!(&decoded[..envs.len().min(decoded.len())],
                        &envs[..envs.len().min(decoded.len())]);
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
