//! Seeded fuzz of the receive path: PE 1 pushes arbitrary bytes and
//! byte-mutated valid envelope streams straight into PE 0's receive queue
//! (`Lamellae::send_with`, below the runtime's framing). Whatever arrives,
//! no thread may panic, PE 0 must keep answering a tracked echo within its
//! deadline, and `wait_all` must return on both PEs.
//!
//! A panic hook counts every panic in the process — the progress tickers'
//! included, which a test assertion on the main thread would not see.

mod common;

use lamellar_core::am::AmOpts;
use lamellar_core::proto::Envelope;
use lamellar_repro::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

lamellar_core::am! {
    /// Returns its tag and the PE it ran on.
    pub struct EchoAm { pub tag: u64 }
    exec(am, ctx) -> (u64, u64) {
        (am.tag, ctx.current_pe() as u64)
    }
}

static PANICS: AtomicUsize = AtomicUsize::new(0);

const SEEDS: u64 = 128;
const INPUTS_PER_SEED: usize = 12;

/// splitmix64: a dependency-free, seedable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// A valid stream of one to four `Request`/`RequestUnit`/`Reply`/`ReplyErr`/
/// `AckCount` envelopes. Requests name the registered echo AM; request ids
/// sit near `u64::MAX` so that no byte mutation turns one into the id of
/// PE 1's own in-flight echo.
fn valid_stream(rng: &mut Rng, echo: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let req_id = u64::MAX - rng.below(1 << 16) as u64;
        let payload = EchoAm { tag: rng.next() }.to_bytes();
        let text = format!("remote failure {}", rng.next());
        let env = match rng.below(5) {
            0 => Envelope::Request { am_id: echo, req_id, payload: &payload },
            1 => Envelope::RequestUnit { am_id: echo, payload: &payload },
            2 => Envelope::Reply { req_id, payload: &payload },
            3 => Envelope::ReplyErr { req_id, msg: &text },
            _ => Envelope::AckCount { n: rng.next() },
        };
        env.frame(&mut buf);
    }
    buf
}

/// Damage `buf` in place: flip, overwrite, insert, or delete a few bytes,
/// or cut it short.
fn mutate(rng: &mut Rng, buf: &mut Vec<u8>) {
    for _ in 0..1 + rng.below(3) {
        if buf.is_empty() {
            buf.push(rng.next() as u8);
            continue;
        }
        let at = rng.below(buf.len());
        match rng.below(5) {
            0 => buf[at] ^= 1 << rng.below(8),
            1 => buf[at] = rng.next() as u8,
            2 => buf.insert(at, rng.next() as u8),
            3 => drop(buf.remove(at)),
            _ => buf.truncate(at),
        }
    }
}

#[test]
fn fuzzed_frames_never_panic_or_stall_the_receiver() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));
    let echo = lamellar_core::am::register_am::<EchoAm>();
    // A small heap bounds what a fuzzed `LargeRequest` may allocate.
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).heap_len(1 << 16);
    let decode_errors = lamellar_core::world::launch_with_config(cfg, move |world| {
        let before = common::stats_before_traffic(&world);
        for seed in 0..SEEDS {
            if world.my_pe() == 1 {
                let mut rng = Rng(seed);
                let lamellae = world.rt().lamellae();
                for _ in 0..INPUTS_PER_SEED {
                    let input = match rng.below(3) {
                        0 => {
                            let n = 1 + rng.below(64);
                            rng.bytes(n)
                        }
                        _ => {
                            let mut stream = valid_stream(&mut rng, echo);
                            mutate(&mut rng, &mut stream);
                            stream
                        }
                    };
                    if input.is_empty() {
                        continue; // an empty message is no chunk at all
                    }
                    // One chunk per input: a malformed frame drops the rest
                    // of its chunk, and must not take the echo with it.
                    lamellae
                        .send_with(0, input.len(), &mut |b| b.extend_from_slice(&input))
                        .unwrap();
                    lamellae.flush();
                }
                let opts = AmOpts::deadline(Duration::from_secs(2));
                let h = world.exec_am_pe_with(0, EchoAm { tag: seed }, opts).fallible();
                assert_eq!(world.block_on(h).ok(), Some((seed, 0)), "seed {seed}: no echo");
            }
            world.barrier();
        }
        world.wait_all();
        world.barrier();
        world.stats().delta(&before).am.decode_errors
    });
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a receive-path panic");
    assert!(decode_errors[0] > 0, "the fuzz reached the decoder's error paths");
}
