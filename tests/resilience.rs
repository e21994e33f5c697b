//! Task-level resilience suite (DESIGN.md §4c): panic isolation, AM
//! deadlines, cancellation, and the liveness watchdog.
//!
//! Every test runs a real multi-PE world and asserts the end-to-end
//! contract: a failing or silent remote never crashes the serving PE and
//! never hangs the caller — the failure surfaces as a typed `AmError`
//! within bounded time, and `wait_all` always terminates.

mod common;

use lamellar_codec::{CodecError, Reader};
use lamellar_core::am::{AmError, AmOpts, UnitAm};
use lamellar_core::config::WatchdogConfig;
use lamellar_core::proto::Envelope;
use lamellar_repro::prelude::*;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

lamellar_core::am! {
    /// Echo AM: returns its payload (the healthy-path control).
    pub struct EchoAm { pub tag: u64 }
    exec(am, ctx) -> (u64, u64) {
        (am.tag, ctx.current_pe() as u64)
    }
}

lamellar_core::am! {
    /// Panics on execution when `boom` is set.
    pub struct PanicAm { pub boom: bool }
    exec(am, _ctx) -> u64 {
        if am.boom {
            panic!("injected AM panic (tag 42)");
        }
        7
    }
}

lamellar_core::am! {
    /// Sleeps on the destination's worker thread before replying —
    /// synchronous on purpose, to model a genuinely slow handler.
    pub struct SlowAm { pub sleep_ms: u64 }
    exec(am, _ctx) -> u64 {
        std::thread::sleep(std::time::Duration::from_millis(am.sleep_ms));
        am.sleep_ms
    }
}

/// A panicking remote AM resolves the caller's fallible handle to
/// `Err(RemotePanic { pe, .. })`, the serving PE keeps executing subsequent
/// AMs on the same workers, and `wait_all` terminates.
#[test]
fn remote_panic_is_isolated_and_typed() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256);
    let stats = lamellar_core::world::launch_with_config(cfg, |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);
        if world.my_pe() == 0 {
            // Local panic: same typed error, pe = self.
            match world.block_on(world.exec_am_pe(0, PanicAm { boom: true }).fallible()) {
                Err(AmError::RemotePanic { pe: 0, msg }) => {
                    assert!(msg.contains("injected AM panic"), "local panic message: {msg}")
                }
                other => panic!("expected local RemotePanic, got {other:?}"),
            }
            // Remote panic: the error names the destination PE.
            match world.block_on(world.exec_am_pe(1, PanicAm { boom: true }).fallible()) {
                Err(AmError::RemotePanic { pe: 1, msg }) => {
                    assert!(msg.contains("injected AM panic"), "remote panic message: {msg}")
                }
                other => panic!("expected remote RemotePanic, got {other:?}"),
            }
            // The serving PE survived: its pool still executes AMs, and a
            // mixed batch after the crash behaves normally.
            for tag in 0..8 {
                let (t, served_by) = world.block_on(world.exec_am_pe(1, EchoAm { tag }));
                assert_eq!((t, served_by), (tag, 1));
            }
            assert_eq!(world.block_on(world.exec_am_pe(1, PanicAm { boom: false })), 7);
        }
        world.wait_all();
        world.barrier();
        world.stats().delta(&before)
    });
    // One panic caught locally on PE0, one on the serving PE1.
    assert_eq!(stats[0].am.panics_caught, 1, "PE0 local panic caught");
    assert_eq!(stats[1].am.panics_caught, 1, "PE1 remote panic caught");
}

/// With a severed pair and a retransmit timeout far above the deadline, a
/// per-call deadline resolves the future to `Err(Timeout)` quickly instead
/// of waiting for the reliable layer to declare the pair dead.
#[test]
fn deadline_beats_severed_pair_to_a_typed_timeout() {
    let mut sever = FaultRates::none();
    sever.drop = 1.0;
    // Pair death needs 20 empty retransmit rounds — 40 s at this
    // timeout. If the test finishes fast, the deadline won (not the
    // reliable layer giving up).
    let fault =
        FaultConfig::seeded(0x7e57).pair(0, 1, sever).retransmit_timeout(Duration::from_secs(2));
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256).faults(fault);
    let elapsed = lamellar_core::world::launch_with_config(cfg, |world| {
        if world.my_pe() != 0 {
            world.barrier();
            return Duration::ZERO;
        }
        let start = Instant::now();
        let h = world.exec_am_pe_with(
            1,
            EchoAm { tag: 1 },
            AmOpts::deadline(Duration::from_millis(200)),
        );
        match world.block_on(h.fallible()) {
            Err(AmError::Timeout { pe: 1, attempts: 1 }) => {}
            other => panic!("expected Timeout{{pe:1, attempts:1}}, got {other:?}"),
        }
        world.wait_all(); // terminates: the timed-out future is accounted for
        let elapsed = start.elapsed();
        world.barrier();
        elapsed
    });
    assert!(
        elapsed[0] >= Duration::from_millis(200) && elapsed[0] < Duration::from_millis(1500),
        "deadline should fire at ~200 ms, well before any transport give-up: {:?}",
        elapsed[0]
    );
}

/// Cancelling an in-flight AM releases its pending-reply slot: `wait_all`
/// returns without waiting for the slow remote handler, the cancel counter
/// records it, and a late reply is dropped harmlessly.
#[test]
fn cancellation_releases_pending_reply_slots() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256);
    let stats = lamellar_core::world::launch_with_config(cfg, |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);
        if world.my_pe() == 0 {
            // Explicit cancel of a slow AM: wait_all must not wait the
            // full handler duration.
            let h = world.exec_am_pe(1, SlowAm { sleep_ms: 800 });
            assert!(h.cancel(), "in-flight AM is cancellable");
            let start = Instant::now();
            world.wait_all();
            assert!(
                start.elapsed() < Duration::from_millis(500),
                "wait_all blocked on a cancelled AM for {:?}",
                start.elapsed()
            );

            // Drop-guard form: dropping an unresolved guard cancels too.
            let g = world.exec_am_pe(1, SlowAm { sleep_ms: 800 }).cancel_on_drop();
            drop(g);
            let start = Instant::now();
            world.wait_all();
            assert!(start.elapsed() < Duration::from_millis(500), "guard drop did not cancel");

            // Cancel after completion is a no-op returning false.
            let h = world.exec_am_pe(1, EchoAm { tag: 9 });
            world.wait_all(); // reply has arrived and resolved the slot
            assert!(!h.cancel(), "completed AM is not cancellable");

            // Local AMs are never cancellable (already executing here).
            let h = world.exec_am_pe(0, EchoAm { tag: 10 });
            assert!(!h.cancel(), "local AM is not cancellable");
            world.wait_all();
        }
        world.wait_all();
        world.barrier();
        // Let the cancelled handlers' late replies land (and be dropped)
        // before the final snapshot, so teardown sees a quiet wire.
        std::thread::sleep(Duration::from_millis(900));
        world.barrier();
        world.stats().delta(&before)
    });
    assert_eq!(stats[0].am.cancelled, 2, "one explicit cancel + one guard drop");
    // The remote handlers still ran to completion and sent (dropped)
    // replies — cancellation is a local disclaimer, not a remote abort.
    assert_eq!(stats[1].am.received, 3, "PE1 executed all three remote AMs");
}

/// With the fail-mode watchdog armed and a severed pair, a wait that would
/// otherwise hang terminates: the watchdog dumps diagnostics, resolves the
/// stalled request to `Err(Stalled)`, and `try_wait_all` reports it.
#[test]
fn watchdog_fails_stalled_wait_with_diagnostics() {
    let mut sever = FaultRates::none();
    sever.drop = 1.0;
    // Transport give-up pushed far out: the watchdog must be what
    // unblocks the wait.
    let fault =
        FaultConfig::seeded(0x57a1).pair(0, 1, sever).retransmit_timeout(Duration::from_secs(10));
    let cfg = WorldConfig::new(2)
        .backend(Backend::Rofi)
        .agg_threshold(256)
        .faults(fault)
        .watchdog(WatchdogConfig::fail(Duration::from_millis(200)));
    let outcomes = lamellar_core::world::launch_with_config(cfg, |world| {
        if world.my_pe() != 0 {
            world.barrier();
            return (None, world.stats());
        }
        let h = world.exec_am_pe(1, EchoAm { tag: 5 }).fallible();
        let start = Instant::now();
        let verdict = world.try_wait_all();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "watchdog should fire at ~200 ms zero-progress, took {elapsed:?}"
        );
        match &verdict {
            Err(AmError::Stalled { pe: 1, waited }) => {
                assert!(*waited >= Duration::from_millis(200), "waited {waited:?}")
            }
            other => panic!("expected Err(Stalled{{pe:1,..}}), got {other:?}"),
        }
        // The stalled future itself resolved to the same typed error.
        match world.block_on(h) {
            Err(AmError::Stalled { pe: 1, .. }) => {}
            other => panic!("expected handle to resolve Stalled, got {other:?}"),
        }
        world.barrier();
        (Some(verdict), world.stats())
    });
    let stats = &outcomes[0].1;
    assert!(stats.am.stalls >= 1, "watchdog verdict recorded: {}", stats.am.stalls);
}

/// A healthy world under the watchdog never trips it: normal traffic makes
/// progress, and `try_wait_all` returns `Ok`.
#[test]
fn watchdog_stays_quiet_on_a_healthy_world() {
    let cfg = WorldConfig::new(2)
        .backend(Backend::Rofi)
        .agg_threshold(256)
        .watchdog(WatchdogConfig::fail(Duration::from_millis(250)));
    let stats = lamellar_core::world::launch_with_config(cfg, |world| {
        let me = world.my_pe();
        let dst = (me + 1) % world.num_pes();
        for tag in 0..20 {
            let (t, served_by) = world.block_on(world.exec_am_pe(dst, EchoAm { tag }));
            assert_eq!((t, served_by), (tag, dst as u64));
        }
        drop(world.exec_am_pe(dst, SlowAm { sleep_ms: 100 }));
        world.try_wait_all().expect("healthy world must not stall");
        world.barrier();
        world.stats()
    });
    for (pe, s) in stats.iter().enumerate() {
        assert_eq!(s.am.stalls, 0, "PE{pe} spurious watchdog verdict");
    }
}

lamellar_core::am! {
    /// Returns `len` zero bytes: a reply too large for one wire chunk once
    /// `len` exceeds the buffer size.
    pub struct BigReplyAm { pub len: u64 }
    exec(am, _ctx) -> Vec<u8> {
        vec![0u8; am.len as usize]
    }
}

/// A reply that cannot fit a wire chunk resolves the caller's fallible
/// handle to `Err` naming the framed size, instead of panicking the serving
/// PE's progress thread (and hanging the caller). The serving PE keeps
/// answering afterwards.
#[test]
fn oversized_reply_is_a_typed_error_and_the_server_survives() {
    const LEN: usize = 400 * 1024;
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    lamellar_core::world::launch_with_config(cfg, |world| {
        if world.my_pe() == 0 {
            let h = world.exec_am_pe(1, BigReplyAm { len: LEN as u64 }).fallible();
            let msg = match world.block_on(h) {
                Err(e) => e.to_string(),
                Ok(v) => panic!("a {}-byte reply cannot fit one wire chunk", v.len()),
            };
            assert!(msg.contains("exceeds wire buffer capacity"), "error text: {msg}");
            let framed: usize = msg
                .split("message of ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("error should name the size: {msg}"));
            assert!(framed > LEN, "framed reply size {framed} below the {LEN}-byte payload");
            // The progress thread survived: a small follow-up still answers.
            assert_eq!(world.block_on(world.exec_am_pe(1, EchoAm { tag: 3 })), (3, 1));
        }
        world.wait_all();
        world.barrier();
    });
}

/// The largest `BigReplyAm` output whose framed reply fits one wire chunk
/// resolves `Ok`; one byte more answers the `MessageTooLarge` error, and
/// the server keeps serving.
#[test]
fn reply_at_the_chunk_limit_fits_and_one_byte_more_is_a_typed_error() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    // No fault plane, so no chunk header: one reply may fill the buffer.
    let max = cfg.clone().resolve().buffer_size;
    let reply = lamellar_core::proto::Envelope::Reply { req_id: 0, payload: &[] };
    let framed = |len: usize| reply.framed_len(vec![0u8; len].encoded_len());
    let fit = (0..max).rev().find(|&len| framed(len) <= max).expect("some reply fits");
    assert!(framed(fit + 1) > max);
    lamellar_core::world::launch_with_config(cfg, move |world| {
        if world.my_pe() == 0 {
            let ok = world.block_on(world.exec_am_pe(1, BigReplyAm { len: fit as u64 }).fallible());
            assert_eq!(ok.expect("an exact-fit reply is delivered").len(), fit);
            let too_big = world.exec_am_pe(1, BigReplyAm { len: fit as u64 + 1 }).fallible();
            let msg = world.block_on(too_big).expect_err("one byte over the chunk").to_string();
            assert!(msg.contains("exceeds wire buffer capacity"), "error text: {msg}");
            assert_eq!(world.block_on(world.exec_am_pe(1, EchoAm { tag: 4 })), (4, 1));
        }
        world.wait_all();
        world.barrier();
    });
}

/// Counts how many `Probe` instances have been dropped.
static PROBES_DROPPED: AtomicUsize = AtomicUsize::new(0);

/// A Darc payload whose drop is observable.
#[derive(Debug)]
pub struct Probe;

impl Drop for Probe {
    fn drop(&mut self) {
        PROBES_DROPPED.fetch_add(1, Ordering::SeqCst);
    }
}

lamellar_core::am! {
    /// Hands the Darc it carries back in a reply made too large for one
    /// wire chunk by `len` padding bytes.
    pub struct BigDarcReplyAm { pub darc: Darc<Probe>, pub len: u64 }
    exec(am, _ctx) -> (Darc<Probe>, Vec<u8>) {
        (am.darc, vec![0u8; am.len as usize])
    }
}

/// An oversized reply that carries a Darc must not pin it: once the caller
/// has its error and every PE has dropped its handles, the Darc's
/// instances are dropped.
#[test]
fn oversized_reply_carrying_a_darc_does_not_pin_it() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    lamellar_core::world::launch_with_config(cfg, |world| {
        let darc = Darc::new(&world.team(), Probe);
        if world.my_pe() == 0 {
            let am = BigDarcReplyAm { darc: darc.clone(), len: 400 * 1024 };
            let out = world.block_on(world.exec_am_pe(1, am).fallible());
            let msg = out.expect_err("a 400 KiB reply cannot fit one wire chunk").to_string();
            assert!(msg.contains("exceeds wire buffer capacity"), "error text: {msg}");
        }
        drop(darc);
        world.wait_all();
        world.barrier();
        assert_eq!(
            PROBES_DROPPED.load(Ordering::SeqCst),
            2,
            "PE{}: the Darc outlived every handle (pinned by the unsent reply)",
            world.my_pe()
        );
        world.barrier();
    });
}

/// Decodes like a one-field AM, but fails when `poison` is set: a payload
/// the serving PE cannot decode.
#[derive(Clone, Debug)]
pub struct PoisonAm {
    pub poison: bool,
}

impl Codec for PoisonAm {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.poison.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match bool::decode(r)? {
            true => Err(CodecError::InvalidDiscriminant { type_name: "PoisonAm", value: 1 }),
            false => Ok(PoisonAm { poison: false }),
        }
    }
}

impl LamellarAm for PoisonAm {
    type Output = u64;
    async fn exec(self, _ctx: AmContext) -> u64 {
        5
    }
}

/// A payload that fails to decode no longer panics the serving PE's
/// progress thread: a tracked request answers an error naming the AM and
/// the decode error, a unit request counts as served, and both are
/// counted in `decode_errors` (not `panics_caught`).
#[test]
fn undecodable_payload_is_an_error_reply_not_a_dead_progress_thread() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    let stats = lamellar_core::world::launch_with_config(cfg, |world| {
        let before = common::stats_before_traffic(&world);
        if world.my_pe() == 0 {
            let out = world.block_on(world.exec_am_pe(1, PoisonAm { poison: true }).fallible());
            match out {
                Err(AmError::RemotePanic { pe: 1, msg }) => {
                    assert!(msg.contains("PoisonAm"), "error should name the AM: {msg}");
                    assert!(msg.contains("invalid discriminant 1"), "error text: {msg}");
                }
                other => panic!("expected a decode error reply, got {other:?}"),
            }
            world.exec_unit_am_pe(1, UnitAm(PoisonAm { poison: true }));
            world.wait_all();
            assert_eq!(world.block_on(world.exec_am_pe(1, PoisonAm { poison: false })), 5);
            assert_eq!(world.block_on(world.exec_am_pe(1, EchoAm { tag: 9 })), (9, 1));
        }
        world.wait_all();
        world.barrier();
        world.stats().delta(&before)
    });
    assert_eq!(stats[1].am.decode_errors, 2, "PE1 counted both undecodable payloads");
    assert_eq!(stats[1].am.panics_caught, 0, "a decode error is not a handler panic");
    assert_eq!(stats[0].am.decode_errors, 0);
}

/// Encodes like a `bool` but refuses to decode `true`: an AM output the
/// calling PE cannot decode.
#[derive(Clone, Debug, PartialEq)]
pub struct PoisonReply(pub bool);

impl Codec for PoisonReply {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match bool::decode(r)? {
            true => Err(CodecError::InvalidDiscriminant { type_name: "PoisonReply", value: 1 }),
            false => Ok(PoisonReply(false)),
        }
    }
}

lamellar_core::am! {
    /// Replies with an output its caller cannot decode when `poison` is set.
    pub struct PoisonReplyAm { pub poison: bool }
    exec(am, _ctx) -> PoisonReply {
        PoisonReply(am.poison)
    }
}

/// A reply the caller cannot decode resolves that caller's future to
/// `Err(RemotePanic)` naming the AM and the decode error, counted in the
/// caller's `decode_errors`; the caller's progress thread survives.
#[test]
fn undecodable_reply_is_an_error_not_a_dead_progress_thread() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    let stats = lamellar_core::world::launch_with_config(cfg, |world| {
        let before = common::stats_before_traffic(&world);
        if world.my_pe() == 0 {
            let out =
                world.block_on(world.exec_am_pe(1, PoisonReplyAm { poison: true }).fallible());
            match out {
                Err(AmError::RemotePanic { pe: 1, msg }) => {
                    assert!(msg.contains("PoisonReplyAm"), "error should name the AM: {msg}");
                    assert!(msg.contains("invalid discriminant 1"), "error text: {msg}");
                }
                other => panic!("expected a reply decode error, got {other:?}"),
            }
            let healthy = world.exec_am_pe(1, PoisonReplyAm { poison: false });
            assert_eq!(world.block_on(healthy), PoisonReply(false));
            assert_eq!(world.block_on(world.exec_am_pe(1, EchoAm { tag: 4 })), (4, 1));
        }
        world.wait_all();
        world.barrier();
        world.stats().delta(&before)
    });
    assert_eq!(stats[0].am.decode_errors, 1, "PE0 counted the undecodable reply");
    assert_eq!(stats[1].am.decode_errors, 0, "PE1 encoded a valid reply");
    assert_eq!(stats[1].am.panics_caught, 0);
}

/// One envelope body as it goes on the wire: the discriminant, fixed-width
/// little-endian header words, and an optional length-prefixed byte run.
/// Built by hand, not by the protocol module under test.
fn raw_body(disc: u8, words: &[u64], tail: Option<&[u8]>) -> Vec<u8> {
    let mut body = vec![disc];
    for word in words {
        body.extend_from_slice(&word.to_le_bytes());
    }
    if let Some(tail) = tail {
        body.push(tail.len() as u8);
        body.extend_from_slice(tail);
    }
    body
}

/// `body` behind its (one-byte, for these short bodies) length prefix.
fn raw_frame(body: &[u8]) -> Vec<u8> {
    assert!(body.len() < 128, "one-byte varint prefix");
    let mut frame = vec![body.len() as u8];
    frame.extend_from_slice(body);
    frame
}

/// Malformed frames pushed straight into PE 0's receive queue are dropped
/// and counted in `decode_errors`; PE 0's progress thread survives each
/// one and keeps answering within a 2 s deadline. The two "naming PE 77"
/// frames carry a sender word in the header layout the wire once had
/// (the transport reports the sender now, so the word is malformed).
#[test]
fn malformed_frames_are_counted_and_the_ticker_survives() {
    let echo = lamellar_core::am::register_am::<EchoAm>();
    let payload = EchoAm { tag: 5 }.to_bytes();
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("bad discriminant", raw_frame(&[9, 0])),
        ("frame length past the chunk end", vec![0x7f, 0, 1, 2]),
        ("unregistered AM id", raw_frame(&raw_body(0, &[0xdead_beef, u64::MAX], Some(&payload)))),
        (
            "tracked request naming PE 77",
            raw_frame(&raw_body(0, &[echo, u64::MAX, 77], Some(&payload))),
        ),
        ("unit request naming PE 77", raw_frame(&raw_body(5, &[echo, 77], Some(&payload)))),
        ("wild LargeRequest length", raw_frame(&raw_body(2, &[echo, u64::MAX, 0, 1 << 62], None))),
    ];
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    lamellar_core::world::launch_with_config(cfg, move |world| {
        for (name, frame) in &cases {
            let before = common::stats_before_traffic(&world);
            if world.my_pe() == 1 {
                // Flushing around the frame gives it a chunk of its own.
                let lamellae = world.rt().lamellae();
                lamellae.flush();
                lamellae.send_with(0, frame.len(), &mut |b| b.extend_from_slice(frame)).unwrap();
                lamellae.flush();
                let opts = AmOpts::deadline(Duration::from_secs(2));
                let h = world.exec_am_pe_with(0, EchoAm { tag: 3 }, opts).fallible();
                assert_eq!(world.block_on(h).ok(), Some((3, 0)), "{name}: PE0 stopped answering");
            }
            world.barrier();
            let delta = world.stats().delta(&before);
            if world.my_pe() == 0 {
                assert_eq!(delta.am.decode_errors, 1, "{name}: PE0 counts the frame");
            }
            world.barrier();
        }
        world.wait_all();
    });
}

/// Returns `Pending` once (waking itself), then `Ready`: an AM awaiting it
/// cannot finish on the inline probe and spills to the pool.
struct YieldOnce(bool);

impl Future for YieldOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

lamellar_core::am! {
    /// Unit AM that panics, either at once (completes on the inline probe)
    /// or after one yield (spills to the pool first).
    pub struct UnitPanicAm { pub after_yield: bool }
    exec(am, _ctx) -> () {
        if am.after_yield {
            YieldOnce(false).await;
        }
        panic!("injected unit AM panic");
    }
}

/// Panicking unit AMs on the counted path still count as served, inline or
/// spilled: the origin's `wait_all` returns with nothing left in flight, and
/// the serving PE records both panics.
#[test]
fn panicking_unit_ams_are_counted_inline_and_spilled() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256);
    let deltas = lamellar_core::world::launch_with_config(cfg, |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);
        if world.my_pe() == 0 {
            world.exec_unit_am_pe(1, UnitPanicAm { after_yield: false });
            world.exec_unit_am_pe(1, UnitPanicAm { after_yield: true });
            world.wait_all();
            assert_eq!(world.rt().pending_count(), 0, "every unit launch retired");
            assert_eq!(world.pending_handles(), 0, "unit AMs hold no pending slots");
        }
        world.barrier();
        world.stats().delta(&before)
    });
    let served = &deltas[1].am;
    assert_eq!(served.panics_caught, 2, "PE1 caught both unit AM panics");
    assert!(served.spilled_execs >= 1, "the yielding AM spilled: {}", served.spilled_execs);
    assert_eq!(served.inline_execs + served.spilled_execs, 2, "both AMs executed");
}

lamellar_core::am! {
    /// Fire-and-forget no-op: completes through the counted (`AckCount`)
    /// path only.
    pub struct NoopUnitAm { pub tag: u64 }
    exec(am, _ctx) -> () {
        let _ = am.tag;
    }
}

/// Unit AMs toward a pair the reliable layer declares dead are credited back
/// on the spot: `wait_all` returns at pair death (default 1 ms retransmit
/// timeout), not when the 5 s fail-mode watchdog would turn the hang into
/// `Err(Stalled)`.
#[test]
fn unit_ams_toward_a_severed_pair_are_reclaimed() {
    let mut sever = FaultRates::none();
    sever.drop = 1.0;
    let fault = FaultConfig::seeded(0x5e7e).pair(0, 1, sever);
    let cfg = WorldConfig::new(2)
        .backend(Backend::Rofi)
        .agg_threshold(256)
        .faults(fault)
        .watchdog(WatchdogConfig::fail(Duration::from_secs(5)));
    let outcomes = lamellar_core::world::launch_with_config(cfg, |world| {
        if world.my_pe() != 0 {
            world.barrier();
            return None;
        }
        for tag in 0..100 {
            world.exec_unit_am_pe(1, NoopUnitAm { tag });
        }
        assert_eq!(world.try_wait_all(), Ok(()));
        assert_eq!(world.rt().pending_count(), 0, "every unit launch retired");
        world.barrier();
        Some(world.stats())
    });
    let stats = outcomes[0].as_ref().expect("PE0 stats");
    assert_eq!(stats.lamellae.delivery_failures, 1, "one pair declared dead");
    assert_eq!(stats.am.unit_sent, 100);
    assert_eq!(stats.am.stalls, 0, "pair death, not the watchdog, ended the wait");
}

/// A stall with only unit AMs in flight (no pending reply slot to fail)
/// still ends the wait: the fail-mode watchdog reclaims the unacked credits
/// and `try_wait_all` names the silent destination.
#[test]
fn watchdog_reclaims_a_unit_only_stall() {
    let mut sever = FaultRates::none();
    sever.drop = 1.0;
    // Transport give-up pushed far out: the watchdog must be what
    // unblocks the wait.
    let fault =
        FaultConfig::seeded(0x57a2).pair(0, 1, sever).retransmit_timeout(Duration::from_secs(10));
    let cfg = WorldConfig::new(2)
        .backend(Backend::Rofi)
        .agg_threshold(256)
        .faults(fault)
        .watchdog(WatchdogConfig::fail(Duration::from_millis(200)));
    lamellar_core::world::launch_with_config(cfg, |world| {
        if world.my_pe() == 0 {
            for tag in 0..10 {
                world.exec_unit_am_pe(1, NoopUnitAm { tag });
            }
            let start = Instant::now();
            let verdict = world.try_wait_all();
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(5),
                "watchdog should fire at ~200 ms zero-progress, took {elapsed:?}"
            );
            match verdict {
                Err(AmError::Stalled { pe: 1, waited }) => {
                    assert!(waited >= Duration::from_millis(200), "waited {waited:?}")
                }
                other => panic!("expected Err(Stalled{{pe:1,..}}), got {other:?}"),
            }
            assert_eq!(world.rt().pending_count(), 0, "every unit launch reclaimed");
        }
        world.barrier();
    });
}

lamellar_core::am! {
    /// Returns the length of its payload.
    pub struct BlobAm { pub data: Vec<u8> }
    exec(am, _ctx) -> usize {
        am.data.len()
    }
}

/// Heap exhaustion surfaces as a typed `CommError::AllocFailed`, both from
/// a one-sided region allocation and from a large AM whose payload cannot
/// be staged, and leaves nothing allocated or pending behind.
#[test]
fn heap_exhaustion_is_a_typed_alloc_failure() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).heap_len(4096).agg_threshold(1024);
    lamellar_core::world::launch_with_config(cfg, |world| {
        if world.my_pe() == 0 {
            match world.try_alloc_one_sided_mem_region::<u64>(1 << 20) {
                Err(CommError::AllocFailed { requested, available }) => {
                    assert_eq!(requested, 8 << 20);
                    assert!(available <= 4096, "available {available}");
                }
                Err(other) => panic!("expected AllocFailed, got {other:?}"),
                Ok(_) => panic!("an 8 MiB region cannot fit a 4 KiB heap"),
            }
            // 8 KiB is above the 1 KiB threshold: the payload must stage
            // through the heap, which cannot hold it.
            let h = world.exec_am_pe(1, BlobAm { data: vec![7; 8192] }).fallible();
            match world.block_on(h) {
                Err(AmError::Comm(CommError::AllocFailed { .. })) => {}
                other => panic!("expected Err(Comm(AllocFailed)), got {other:?}"),
            }
            world.wait_all();
            assert_eq!(world.rt().lamellae().heap_in_use(), 0, "nothing left allocated");
            assert_eq!(world.rt().pending_count(), 0, "nothing left pending");
        }
        world.barrier();
    });
}

/// A `FreeHeap` only ends a lease the sender holds: PE 1 forges one naming
/// PE 0's live one-sided region, which PE 0 counts as a decode error while
/// the region keeps its allocation (the next one does not alias it) and its
/// bytes.
#[test]
fn forged_free_heap_leaves_live_memory_alone() {
    const LEN: usize = 8192;
    let offset = Arc::new(AtomicUsize::new(0));
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    let outcomes = lamellar_core::world::launch_with_config(cfg, move |world| {
        let region = (world.my_pe() == 0).then(|| {
            let region = world.alloc_one_sided_mem_region::<u8>(LEN);
            // SAFETY: the region is private to this thread until the barrier.
            let bytes = unsafe { region.as_mut_slice() };
            bytes.fill(0xa5);
            let base = world.rt().lamellae().base_ptr(0) as usize;
            offset.store(bytes.as_ptr() as usize - base, Ordering::SeqCst);
            region
        });
        // The barrier also publishes the offset to PE 1.
        let before = common::stats_before_traffic(&world);
        if world.my_pe() == 1 {
            let free = Envelope::FreeHeap { offset: offset.load(Ordering::SeqCst) as u64 };
            let lamellae = world.rt().lamellae();
            lamellae.send_with(0, free.framed_len(0), &mut |b| free.frame(b)).unwrap();
            // PE 0 serves one sender's chunks in the order they were sent:
            // once the echo is back, the forged free has been served.
            let opts = AmOpts::deadline(Duration::from_secs(2));
            let h = world.exec_am_pe_with(0, EchoAm { tag: 8 }, opts).fallible();
            assert_eq!(world.block_on(h).ok(), Some((8, 0)), "PE0 stopped answering");
        }
        world.barrier();
        let outcome = region.map(|region| {
            let next = world.alloc_one_sided_mem_region::<u8>(LEN);
            // SAFETY: both regions are private to this thread.
            unsafe { next.as_mut_slice().fill(0x5a) };
            let intact = unsafe { region.as_slice() }.iter().all(|&b| b == 0xa5);
            (world.rt().lamellae().heap_in_use(), intact)
        });
        world.barrier();
        (outcome, world.stats().delta(&before).am.decode_errors)
    });
    let (heap_in_use, intact) = outcomes[0].0.expect("PE0 outcome");
    assert_eq!(heap_in_use, 2 * LEN, "the forged free released a live allocation");
    assert!(intact, "a later allocation overwrote the live region");
    assert_eq!(outcomes[0].1, 1, "PE0 counts the forged FreeHeap");
}

/// Staging buffers lent to a PE that dies are freed when the pair is
/// declared dead: large tracked AMs toward a severed pair fail with
/// `PeerUnreachable`, and the origin's heap ends empty.
#[test]
fn staging_buffers_lent_to_a_severed_pair_are_reclaimed() {
    let mut sever = FaultRates::none();
    sever.drop = 1.0;
    let fault = FaultConfig::seeded(0x1ea5).pair(0, 1, sever);
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(1024).faults(fault);
    let outcomes = lamellar_core::world::launch_with_config(cfg, |world| {
        if world.my_pe() != 0 {
            world.barrier();
            return None;
        }
        // 8 KiB is above the 1 KiB threshold: each payload is staged.
        let handles: Vec<_> = (0..4)
            .map(|_| world.exec_am_pe(1, BlobAm { data: vec![7; 8192] }).fallible())
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| world.block_on(h)).collect();
        world.wait_all();
        let heap_in_use = world.rt().lamellae().heap_in_use();
        world.barrier();
        Some((results, heap_in_use))
    });
    let (results, heap_in_use) = outcomes[0].clone().expect("PE0 outcome");
    for r in &results {
        assert!(
            matches!(r, Err(AmError::Comm(CommError::PeerUnreachable { pe: 1 }))),
            "expected PeerUnreachable, got {r:?}"
        );
    }
    assert_eq!(heap_in_use, 0, "staging buffers lent to the dead PE leaked");
}

/// A zero-length send is a typed error that touches no buffer: after three
/// of them PE 1's next tracked echo still answers within 2 s.
#[test]
fn empty_sends_are_rejected_and_the_pair_stays_healthy() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    let outcomes = lamellar_core::world::launch_with_config(cfg, |world| {
        let mut outcome = None;
        if world.my_pe() == 1 {
            let lamellae = world.rt().lamellae();
            // A panicking send must fail this test, not leave PE 0 waiting
            // at the barrier below.
            let sends = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let sends: Vec<_> = (0..3).map(|_| lamellae.send_with(0, 0, &mut |_| {})).collect();
                lamellae.flush();
                sends
            }));
            let opts = AmOpts::deadline(Duration::from_secs(2));
            let h = world.exec_am_pe_with(0, EchoAm { tag: 6 }, opts).fallible();
            outcome = Some((sends.map_err(|_| "a send panicked"), world.block_on(h).ok()));
        }
        world.barrier();
        outcome
    });
    let (sends, echo) = outcomes[1].clone().expect("PE1 outcome");
    assert_eq!(sends, Ok(vec![Err(CommError::EmptyMessage); 3]));
    assert_eq!(echo, Some((6, 0)), "PE0 stopped answering after the empty sends");
}
