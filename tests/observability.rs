//! Integration coverage for the typed `world.stats()` observability API:
//! a 2-PE `exec_am_all` round trip must increment the fabric, lamellae,
//! and AM counters by exactly the amounts the wire protocol implies.
//!
//! Runs with the cost model off (the default), so the counts below are
//! deterministic:
//!
//! * Each PE's `exec_am_all` is one local AM (no serialization) plus one
//!   remote AM. With the aggregation threshold dropped below one frame,
//!   every frame leaves as its own wire chunk at `send` time (the default
//!   100 KiB threshold would let a reply ride the same flushed chunk as a
//!   still-parked request, making chunk counts timing-dependent). So each
//!   PE pushes exactly 2 chunks (2 fabric puts) and drains exactly 2
//!   incoming chunks (2 fabric gets). Fabric counters are fabric-global,
//!   so both PEs observe 4 puts and 4 gets.
//! * The snapshot window contains 2 barriers (the one separating the
//!   `before` snapshot from the phase, and the one before `after`), each
//!   entered by 2 PEs → 4 barrier rounds.

mod common;

use lamellar_core::am::{AmError, AmOpts, IdempotentAm, RetryPolicy};
use lamellar_repro::prelude::*;
use std::time::Duration;

lamellar_core::am! {
    /// Minimal AM: returns the executing PE's id.
    pub struct WhoAmI {}
    exec(_am, ctx) -> u64 {
        ctx.current_pe() as u64
    }
}

#[test]
fn two_pe_am_round_trip_increments_every_layer() {
    // 16 B is below any framed envelope, so chunks are emitted eagerly;
    // it is also above the test's AM payloads (empty request, u64 reply),
    // so nothing detours through the large-payload heap path.
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(16);
    let deltas = lamellar_core::world::launch_with_config(cfg, |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);

        let replies = world.block_on(world.exec_am_all(WhoAmI {}));
        assert_eq!(replies, vec![0, 1]);
        world.wait_all();

        // All traffic (requests, replies) has landed once both PEs pass
        // wait_all; the barrier makes that mutual.
        world.barrier();
        world.stats().delta(&before)
    });

    for (pe, d) in deltas.iter().enumerate() {
        // AM layer (per PE): one local, one sent, one received, one reply
        // each way.
        assert_eq!(d.am.local, 1, "PE{pe} local AMs");
        assert_eq!(d.am.sent, 1, "PE{pe} remote AMs sent");
        assert_eq!(d.am.received, 1, "PE{pe} AMs received");
        assert_eq!(d.am.replies_sent, 1, "PE{pe} replies sent");
        assert_eq!(d.am.replies_received, 1, "PE{pe} replies received");

        // Lamellae layer (per PE): the request frame and the reply frame
        // each leave as their own aggregated chunk; the peer's request and
        // reply arrive as two chunks.
        assert_eq!(d.lamellae.msgs_sent, 2, "PE{pe} framed messages sent");
        assert_eq!(d.lamellae.msgs_received, 2, "PE{pe} wire chunks received");
        assert_eq!(d.lamellae.flushes, 2, "PE{pe} chunks handed to the wire");
        assert!(d.lamellae.bytes_sent > 0 && d.lamellae.bytes_received > 0);
        // Two wire buffers per destination and at most two chunks in
        // flight: backpressure can never park a chunk here.
        assert_eq!(d.lamellae.wire_parks, 0, "PE{pe} parked chunks");

        // Fabric layer (fabric-global, identical on both PEs): one put per
        // outgoing chunk and one get per incoming chunk, world-wide.
        assert_eq!(d.fabric.puts, 4, "PE{pe} fabric puts");
        assert_eq!(d.fabric.gets, 4, "PE{pe} fabric gets");
        assert_eq!(
            d.fabric.inject_puts + d.fabric.rendezvous_puts,
            d.fabric.puts,
            "PE{pe} inject/rendezvous split covers all puts"
        );
        // Both PEs enter 2 barriers inside the window, but the *other* PE's
        // first entry can race this PE's `before` snapshot, and a faster
        // peer may already have entered the world-teardown barrier — the
        // global count lands between 3 and 5.
        assert!(
            (3..=5).contains(&d.fabric.barrier_rounds),
            "PE{pe} barrier rounds in window: {}",
            d.fabric.barrier_rounds
        );
        assert_eq!(d.fabric.put_sizes.count(), 4, "PE{pe} put-size histogram");

        // Executor layer (per PE): only the local AM spawns a pool task.
        // The incoming remote AM is synchronous, so the progress thread
        // completes it inline (one poll) and never touches the executor.
        assert_eq!(d.executor.spawned, 1, "PE{pe} tasks spawned");
        assert_eq!(d.am.inline_execs, 1, "PE{pe} remote AM executed inline");
        assert_eq!(d.am.spilled_execs, 0, "PE{pe} nothing spilled to the pool");
        assert!(d.executor.completed >= 1, "PE{pe} tasks completed");
    }

    // The Display form is the README's table; spot-check its shape.
    let rendered = format!("{}", deltas[0]);
    for needle in ["fabric", "lamellae", "executor", "am", "puts", "msgs_sent", "spawned"] {
        assert!(rendered.contains(needle), "stats table missing {needle:?}:\n{rendered}");
    }
}

lamellar_core::am! {
    /// Histogram-style update: bump a slot index (fire-and-forget shape).
    pub struct Bump { pub slot: u64 }
    exec(am, _ctx) -> () {
        let _ = am.slot;
    }
}

#[test]
fn buffer_pool_hit_rate_is_high_under_histo_traffic() {
    // Histogram-benchmark traffic shape: batches of small AMs fanned out
    // to the peer, `wait_all` pacing each batch (as the histo kernel
    // does). The pool grows to the first batch's backlog, then recycles:
    // steady-state hit rate ≥ 95% is the zero-copy path's acceptance bar.
    // A 1 KiB threshold makes chunks actually cycle (the default 100 KiB
    // would fit the whole run in a handful of chunks, leaving warm-up
    // misses dominant).
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(1024);
    let stats = lamellar_core::world::launch_with_config(cfg, |world| {
        let mut slot = 0u64;
        for _round in 0..50 {
            for _ in 0..200 {
                let dst = (world.my_pe() + 1) % world.num_pes();
                world.exec_unit_am_pe(dst, Bump { slot });
                slot += 1;
            }
            world.wait_all();
        }
        world.barrier();
        world.stats()
    });
    for (pe, s) in stats.iter().enumerate() {
        let rate = s.lamellae.pool_hit_rate().expect("pool was exercised");
        assert!(
            rate >= 0.95,
            "PE{pe} buffer-pool hit rate {:.3} below 0.95 ({} hits / {} misses, hwm {})",
            rate,
            s.lamellae.pool_hits,
            s.lamellae.pool_misses,
            s.lamellae.pool_hwm
        );
    }
}

/// A pure fire-and-forget workload must elide *every* reply: each launch
/// travels as a `RequestUnit` envelope, completion comes back as bulk
/// `AckCount` credits, and no per-request pending slot is ever allocated.
/// All counters below are exact except `acks_received` (the serving PE
/// coalesces credits per flush, so only a lower bound is deterministic).
#[test]
fn unit_am_workload_elides_every_reply() {
    const N: u64 = 100;
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256);
    let deltas = lamellar_core::world::launch_with_config(cfg, |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);

        let dst = (world.my_pe() + 1) % world.num_pes();
        for slot in 0..N {
            world.exec_unit_am_pe(dst, Bump { slot });
        }
        world.wait_all();
        // Reply elision means no tracked request slots, even transiently:
        // the pending table never saw these AMs at all.
        assert_eq!(world.pending_handles(), 0, "unit AMs must not allocate pending slots");

        world.barrier();
        world.stats().delta(&before)
    });
    for (pe, d) in deltas.iter().enumerate() {
        assert_eq!(d.am.sent, N, "PE{pe} remote AMs sent");
        assert_eq!(d.am.unit_sent, N, "PE{pe} unit (reply-elided) sends");
        assert_eq!(d.am.received, N, "PE{pe} AMs received");
        assert_eq!(d.am.replies_sent, 0, "PE{pe} must elide every reply");
        assert_eq!(d.am.replies_received, 0, "PE{pe} must receive no replies");
        assert!(d.am.acks_received >= 1, "PE{pe} saw at least one ack credit");
        assert_eq!(
            d.am.inline_execs + d.am.spilled_execs,
            N,
            "PE{pe} every received unit AM executed inline or spilled"
        );
    }
}

lamellar_core::am! {
    /// Panics on the destination (resilience-counter fixture).
    pub struct ObsPanicAm {}
    exec(_am, _ctx) -> u64 {
        panic!("observability panic fixture");
    }
}

lamellar_core::am! {
    /// Sleeps before replying (deadline/cancel fixture); idempotent — the
    /// reply is a pure function of the input.
    pub struct ObsSlowAm { pub sleep_ms: u64 }
    exec(am, _ctx) -> u64 {
        std::thread::sleep(std::time::Duration::from_millis(am.sleep_ms));
        am.sleep_ms
    }
}

impl IdempotentAm for ObsSlowAm {}

/// The resilience counters (panics caught, timeouts, retries, cancels) are
/// exact per-event deltas, assertable through the same snapshot/delta
/// pattern as the wire counters. Only the new counters are asserted —
/// re-issues legitimately perturb `sent`/`received` counts.
#[test]
fn resilience_counters_increment_exactly_per_event() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256);
    let deltas = lamellar_core::world::launch_with_config(cfg, |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);
        if world.my_pe() == 0 {
            // 1 panic, caught on the serving PE (PE1).
            match world.block_on(world.exec_am_pe(1, ObsPanicAm {}).fallible()) {
                Err(AmError::RemotePanic { pe: 1, .. }) => {}
                other => panic!("expected RemotePanic, got {other:?}"),
            }
            // 1 cancel.
            assert!(world.exec_am_pe(1, ObsSlowAm { sleep_ms: 150 }).cancel());
            // 1 timeout: non-idempotent path, 10 ms deadline vs a 150 ms
            // handler — no retry is attempted.
            let h = world.exec_am_pe_with(
                1,
                ObsSlowAm { sleep_ms: 150 },
                AmOpts::deadline(Duration::from_millis(10)),
            );
            match world.block_on(h.fallible()) {
                Err(AmError::Timeout { pe: 1, attempts: 1 }) => {}
                other => panic!("expected Timeout, got {other:?}"),
            }
            // 1 retry, then success: the first 10 ms window misses the
            // 40 ms handler, the 500 ms re-issue window comfortably covers
            // it.
            let h = world.exec_idempotent_am_pe(
                1,
                ObsSlowAm { sleep_ms: 40 },
                AmOpts::deadline(Duration::from_millis(10)).retry(RetryPolicy::exponential(
                    3,
                    Duration::from_millis(500),
                    2,
                    Duration::from_secs(1),
                )),
            );
            assert_eq!(world.block_on(h.fallible()), Ok(40));
            world.wait_all();
        }
        world.wait_all();
        world.barrier();
        // Let the abandoned handlers' late replies drain before snapshotting.
        std::thread::sleep(Duration::from_millis(400));
        world.barrier();
        world.stats().delta(&before)
    });
    let d0 = &deltas[0];
    assert_eq!(d0.am.cancelled, 1, "PE0 cancels");
    assert_eq!(d0.am.timeouts, 1, "PE0 timeouts");
    assert_eq!(d0.am.retries, 1, "PE0 re-issues");
    assert_eq!(d0.am.stalls, 0, "no watchdog configured");
    assert_eq!(deltas[1].am.panics_caught, 1, "PE1 panics caught");
    assert_eq!(deltas[1].am.stalls, 0, "no watchdog configured");
}

#[test]
fn disabled_metrics_read_zero_everywhere() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).metrics(false);
    let stats = lamellar_core::world::launch_with_config(cfg, |world| {
        let replies = world.block_on(world.exec_am_all(WhoAmI {}));
        assert_eq!(replies, vec![0, 1]);
        world.barrier();
        world.stats()
    });
    // Every counter of every layer reads zero, not just the busy ones; the
    // per-worker high-water marks keep one (zero) slot per worker.
    for (pe, s) in stats.iter().enumerate() {
        let workers = s.executor.queue_depth_hwm.len();
        assert!(workers > 0, "PE{pe} reports no workers");
        let zero = RuntimeStats {
            executor: ExecutorStats { queue_depth_hwm: vec![0; workers], ..Default::default() },
            ..Default::default()
        };
        assert_eq!(*s, zero, "PE{pe}:\n{s}");
    }
}
