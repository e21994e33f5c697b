//! Deterministic perf-smoke gate for the fire-and-forget fast path.
//!
//! This is CI's guard against silently losing the reply-elision win: a tiny
//! 4-PE histogram runs entirely on unit AMs, and the gate asserts the two
//! properties the speedup rests on using *counts*, not timings (timings are
//! hopeless on a shared single-core CI box):
//!
//! * **Zero reply envelopes.** Every update is a unit AM, so the serving
//!   side must emit no `Reply`/`ReplyErr` at all — completion is carried by
//!   coalesced `AckCount` credits.
//! * **Aggregation factor.** Many envelopes must ride each wire chunk. The
//!   envelope count is exact (192 unit requests per PE plus a handful of
//!   acks); the chunk count can wobble slightly when an idle progress tick
//!   seals a partial buffer, so the gate asserts a conservative floor well
//!   below the ideal (~16 envelopes/chunk here) but far above the
//!   one-envelope-per-chunk regime it exists to catch.
//!
//! Invoked explicitly (release) from `scripts/ci.sh`; also runs with the
//! normal workspace suite.

mod common;

use lamellar_core::darc::Darc;
use lamellar_repro::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const SLOTS: usize = 64;
const ROUNDS: usize = 64;
const IDXS_PER_AM: usize = 4;

lamellar_core::am! {
    /// Tiny histogram kernel: bump a handful of destination-local slots.
    pub struct SmokeHistoAm {
        pub table: Darc<Vec<AtomicUsize>>,
        pub idxs: Vec<u32>,
    }
    exec(am, _ctx) -> () {
        for &i in &am.idxs {
            am.table[i as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn perf_smoke_unit_am_histogram_gate() {
    // 4 KiB threshold: each peer stream accumulates ~64 small envelopes
    // (~3 KiB) before wait_all flushes it, so aggregation is structural,
    // not timing luck.
    let cfg = WorldConfig::new(4).backend(Backend::Rofi).agg_threshold(4096);
    let deltas = lamellar_core::world::launch_with_config(cfg, |world| {
        let me = world.my_pe();
        let npes = world.num_pes();
        let table = Darc::new(&world.team(), {
            let mut v = Vec::with_capacity(SLOTS);
            v.resize_with(SLOTS, || AtomicUsize::new(0));
            v
        });
        world.barrier();
        let before = common::stats_before_traffic(&world);

        for round in 0..ROUNDS {
            for dst in (0..npes).filter(|&p| p != me) {
                let idxs: Vec<u32> =
                    (0..IDXS_PER_AM).map(|k| ((round * IDXS_PER_AM + k) % SLOTS) as u32).collect();
                world.exec_unit_am_pe(dst, SmokeHistoAm { table: table.clone(), idxs });
            }
        }
        world.wait_all();
        assert_eq!(world.pending_handles(), 0, "unit AMs must not occupy the pending table");
        world.barrier();
        let d = world.stats().delta(&before);

        // Correctness backstop: every peer's 64 AMs × 4 increments landed
        // in this PE's shard (the Darc resolves to the local instance).
        let local: usize = table.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(local, (npes - 1) * ROUNDS * IDXS_PER_AM, "lost histogram updates");
        d
    });

    let sent_per_pe = (ROUNDS * 3) as u64;
    for (pe, d) in deltas.iter().enumerate() {
        // The whole workload is fire-and-forget: not one reply envelope.
        assert_eq!(d.am.replies_sent, 0, "PE{pe} sent reply envelopes for unit AMs");
        assert_eq!(d.am.replies_received, 0, "PE{pe} received reply envelopes");
        assert_eq!(d.am.unit_sent, sent_per_pe, "PE{pe} unit AMs sent");
        assert_eq!(d.am.sent, sent_per_pe, "PE{pe} remote AMs sent");
        assert_eq!(d.am.received, sent_per_pe, "PE{pe} AMs served");
        assert!(d.am.acks_received >= 1, "PE{pe} saw no counted-ack credit");

        // Aggregation gate: envelopes per flushed chunk. msgs_sent counts
        // the 192 requests plus coalesced acks; flushes is the chunk count.
        assert!(d.lamellae.flushes > 0, "PE{pe} recorded no flushes");
        let factor = d.lamellae.msgs_sent as f64 / d.lamellae.flushes as f64;
        assert!(
            factor >= 4.0,
            "PE{pe} aggregation factor collapsed: {:.2} envelopes/chunk \
             ({} msgs / {} flushes)",
            factor,
            d.lamellae.msgs_sent,
            d.lamellae.flushes
        );
    }
}
