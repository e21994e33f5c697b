//! Task-level resilience suite (DESIGN.md §4c): panic isolation, AM
//! deadlines, cancellation, and the liveness watchdog.
//!
//! Every test runs a real multi-PE world and asserts the end-to-end
//! contract: a failing or silent remote never crashes the serving PE and
//! never hangs the caller — the failure surfaces as a typed `AmError`
//! within bounded time, and `wait_all` always terminates.

use lamellar_core::am::{AmError, AmOpts};
use lamellar_core::config::WatchdogConfig;
use lamellar_repro::prelude::*;
use std::future::Future;
use std::pin::Pin;
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
        let before = world.stats();
        world.barrier();
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
        let before = world.stats();
        world.barrier();
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
        let before = world.stats();
        world.barrier();
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
