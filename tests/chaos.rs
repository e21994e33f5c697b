//! Chaos suite for the fault-injection plane + reliable delivery layer
//! (DESIGN.md §4b).
//!
//! Every test runs a real multi-PE world with an armed [`FaultConfig`] and
//! asserts the end-to-end contract: **every AM future resolves** — to `Ok`
//! when the reliable layer can recover (drops, duplicates, delays,
//! corruption at survivable rates), to a typed `Err` when a pair is
//! genuinely severed. Nothing hangs, nothing panics, and payloads arrive
//! bit-exact or not at all.

mod common;

use lamellar_core::am::{AmError, AmOpts, IdempotentAm, RetryPolicy};
use lamellar_repro::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

lamellar_core::am! {
    /// Echo AM: hands the payload back to the caller, so any corruption the
    /// checksum failed to catch would surface as a mismatched reply.
    pub struct EchoAm { pub tag: u64, pub payload: Vec<u8> }
    exec(am, _ctx) -> (u64, Vec<u8>) {
        (am.tag, am.payload)
    }
}

/// Deterministic per-message payload (varied lengths, non-trivial bytes).
fn payload_for(pe: usize, i: usize) -> Vec<u8> {
    let len = 1 + (i * 7 + pe * 13) % 96;
    (0..len).map(|j| (j as u8) ^ (i as u8).wrapping_mul(31) ^ (pe as u8)).collect()
}

/// Run `msgs` echo AMs from every PE to every other PE under `fault`,
/// asserting each reply is bit-exact, and return the per-PE stats deltas.
fn run_chaos(num_pes: usize, msgs: usize, fault: FaultConfig) -> Vec<RuntimeStats> {
    let cfg = WorldConfig::new(num_pes)
        .backend(Backend::Rofi)
        // Small threshold: chunks cycle constantly, maximizing the
        // injector's exposure to real traffic.
        .agg_threshold(256)
        .faults(fault);
    lamellar_core::world::launch_with_config(cfg, move |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);
        let me = world.my_pe();
        let handles: Vec<_> = (0..msgs)
            .flat_map(|i| (0..world.num_pes()).filter(|&dst| dst != me).map(move |dst| (i, dst)))
            .map(|(i, dst)| {
                let p = payload_for(me, i);
                (i, p.clone(), world.exec_am_pe(dst, EchoAm { tag: i as u64, payload: p }))
            })
            .collect();
        for (i, sent, h) in handles {
            // `fallible()` is the resolution guarantee under test: the
            // future completes even under faults, and at these rates the
            // reliable layer must always recover to Ok.
            let (tag, echoed) = world
                .block_on(h.fallible())
                .unwrap_or_else(|e| panic!("PE{me} msg {i} failed: {e}"));
            assert_eq!(tag, i as u64, "PE{me} reply tag");
            assert_eq!(echoed, sent, "PE{me} msg {i} payload integrity");
        }
        world.wait_all();
        world.barrier();
        world.stats().delta(&before)
    })
}

#[test]
fn chaos_drop_only_all_futures_resolve() {
    let stats = run_chaos(2, 60, FaultConfig::seeded(0xd20f).drop_prob(0.10));
    let drops: u64 = stats[0].fault.drops_injected;
    let retransmits: u64 = stats.iter().map(|s| s.lamellae.retransmits).sum();
    assert!(drops > 0, "a 10% drop rate over 240+ chunks must fire");
    assert!(retransmits > 0, "dropped chunks must be retransmitted");
    assert_eq!(stats[0].lamellae.delivery_failures, 0, "no pair death at 10% drops");
}

#[test]
fn chaos_delay_only_all_futures_resolve() {
    let stats = run_chaos(2, 60, FaultConfig::seeded(0xde1a).delay_prob(0.15, 300_000));
    assert!(stats[0].fault.delays_injected > 0, "15% delay rate must fire");
    // Delays reorder nothing (FIFO holds the line) and lose nothing.
    assert_eq!(stats[0].lamellae.delivery_failures, 0);
}

#[test]
fn chaos_corrupt_only_all_futures_resolve() {
    let stats =
        run_chaos(2, 60, FaultConfig::seeded(0xc0de).corrupt_prob(0.08).truncate_prob(0.04));
    let corrupt_drops: u64 = stats.iter().map(|s| s.lamellae.corrupt_chunks_dropped).sum();
    assert!(
        stats[0].fault.corruptions_injected + stats[0].fault.truncations_injected > 0,
        "corruption faults must fire"
    );
    assert!(corrupt_drops > 0, "every bit flip/truncation must trip the receive checksum");
}

#[test]
fn chaos_combined_matrix_all_futures_resolve() {
    // The acceptance-criteria mix (5% drop + 1% corruption) plus dup and
    // delay, over 3 PEs: all-to-all traffic, every future Ok.
    let fault = FaultConfig::seeded(0x5eed_c4a0)
        .drop_prob(0.05)
        .corrupt_prob(0.01)
        .dup_prob(0.05)
        .delay_prob(0.05, 200_000);
    let stats = run_chaos(3, 40, fault);
    let f = &stats[0].fault;
    assert!(f.total() > 0, "combined schedule must inject something: {f:?}");
    assert_eq!(
        stats.iter().map(|s| s.lamellae.delivery_failures).sum::<u64>(),
        0,
        "no pair dies at these rates"
    );
}

#[test]
fn severed_pair_resolves_to_typed_error_not_a_hang() {
    // Drop probability 1.0 on the 0→1 direction only: PE0's requests can
    // never arrive, retries exhaust, and every future toward PE1 must
    // resolve to `Err(Comm(PeerUnreachable))`. PE1 stays quiet — its
    // reply direction would be severed too (the request never arrives, so
    // no reply is owed).
    let mut sever = FaultRates::none();
    sever.drop = 1.0;
    let fault = FaultConfig::seeded(0xdead).pair(0, 1, sever);
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256).faults(fault);
    let outcomes = lamellar_core::world::launch_with_config(cfg, move |world| {
        if world.my_pe() != 0 {
            // PE1 never hears from PE0; just meet at the (control-plane,
            // never-faulted) barrier below.
            world.barrier();
            return (0, world.stats());
        }
        let handles: Vec<_> = (0..4)
            .map(|i| world.exec_am_pe(1, EchoAm { tag: i, payload: vec![1, 2, 3] }).fallible())
            .collect();
        let mut unreachable = 0;
        for h in handles {
            match world.block_on(h) {
                Err(AmError::Comm(CommError::PeerUnreachable { pe: 1 })) => unreachable += 1,
                other => panic!("expected PeerUnreachable, got {other:?}"),
            }
        }
        // Later sends fail fast: the pair is dead for the world's lifetime.
        match world.block_on(world.exec_am_pe(1, EchoAm { tag: 99, payload: vec![] }).fallible()) {
            Err(AmError::Comm(CommError::PeerUnreachable { pe: 1 })) => unreachable += 1,
            other => panic!("expected fast-fail on dead pair, got {other:?}"),
        }
        world.wait_all(); // must terminate: failed futures are accounted for
        world.barrier();
        (unreachable, world.stats())
    });
    assert_eq!(outcomes[0].0, 5, "all five futures resolved to PeerUnreachable");
    assert_eq!(outcomes[0].1.lamellae.delivery_failures, 1, "one pair declared dead");
    assert!(outcomes[0].1.fault.drops_injected > 0);
}

/// Unit-AM effect table shared by all simulated PEs (they share the
/// process): key → execution count. Lets the fire-and-forget test prove
/// both completeness (every key present) and exactly-once delivery (every
/// count is 1) without any reply channel to observe.
fn unit_effects() -> &'static Mutex<HashMap<u64, u64>> {
    static EFFECTS: OnceLock<Mutex<HashMap<u64, u64>>> = OnceLock::new();
    EFFECTS.get_or_init(|| Mutex::new(HashMap::new()))
}

lamellar_core::am! {
    /// Fire-and-forget insert: the only evidence it ran is the side effect.
    pub struct UnitPutAm { pub key: u64 }
    exec(am, _ctx) -> () {
        *unit_effects().lock().unwrap().entry(am.key).or_insert(0) += 1;
    }
}

/// The reply-elided path under drop faults: requests travel as
/// `RequestUnit` envelopes with no per-op reply, completion is conveyed by
/// cumulative `AckCount` credits, and both ride the same reliable
/// (go-back-N) transport. Drops must therefore stall neither the updates
/// nor `wait_all` — and duplicate suppression keeps effects exactly-once.
#[test]
fn chaos_drops_unit_am_workload_completes_exactly_once() {
    const MSGS: u64 = 80;
    let fault = FaultConfig::seeded(0x0f1e_d00d).drop_prob(0.10);
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256).faults(fault);
    let stats = lamellar_core::world::launch_with_config(cfg, move |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);
        let me = world.my_pe() as u64;
        let dst = (world.my_pe() + 1) % world.num_pes();
        for i in 0..MSGS {
            world.exec_unit_am_pe(dst, UnitPutAm { key: (me << 32) | i });
        }
        world.wait_all(); // must terminate: ack credits are retransmitted too
        world.barrier();
        world.stats().delta(&before)
    });
    let table = unit_effects().lock().unwrap();
    for me in 0..2u64 {
        for i in 0..MSGS {
            let key = (me << 32) | i;
            assert_eq!(
                table.get(&key),
                Some(&1),
                "unit AM (pe {me}, msg {i}) must execute exactly once"
            );
        }
    }
    assert!(stats[0].fault.drops_injected > 0, "10% drops over this traffic must fire");
    assert!(
        stats.iter().map(|s| s.lamellae.retransmits).sum::<u64>() > 0,
        "dropped chunks must be replayed by go-back-N"
    );
    for (pe, d) in stats.iter().enumerate() {
        assert_eq!(d.am.unit_sent, MSGS, "PE{pe} unit sends");
        assert_eq!(d.am.replies_sent, 0, "PE{pe} replies stay elided under faults");
        assert_eq!(d.lamellae.delivery_failures, 0, "PE{pe}: no pair death at 10% drops");
    }
}

/// Idempotent effect table shared by all simulated PEs (they share the
/// process): key → value. Re-executing a `PutAm` re-inserts the same pair,
/// so the final table is identical to an exactly-once execution.
fn effects() -> &'static Mutex<HashMap<u64, u64>> {
    static EFFECTS: OnceLock<Mutex<HashMap<u64, u64>>> = OnceLock::new();
    EFFECTS.get_or_init(|| Mutex::new(HashMap::new()))
}

lamellar_core::am! {
    /// Idempotent insert: applying it twice leaves the same state as once.
    pub struct PutAm { pub key: u64, pub val: u64 }
    exec(am, _ctx) -> u64 {
        effects().lock().unwrap().insert(am.key, am.val);
        am.val
    }
}

impl IdempotentAm for PutAm {}

#[test]
fn chaos_delay_plus_retry_is_exactly_once_for_idempotent_ams() {
    // Half of all chunks are delayed 8 ms — far past the 3 ms AM deadline,
    // so deadline misses (and re-issues) are essentially guaranteed — while
    // the transport's retransmit timer sits at 20 ms, above the delay, so
    // recovery is driven by the AM-level retry under test rather than
    // go-back-N. Windows widen 3 → 6 → 12 → 24 → 48 ms: by the later
    // attempts a window comfortably covers the worst-case delayed round
    // trip, so every request converges to Ok.
    let fault = FaultConfig::seeded(0x1de0_b0ff)
        .delay_prob(0.5, 8_000_000)
        .retransmit_timeout(Duration::from_millis(20));
    let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(256).faults(fault);
    let opts = AmOpts::deadline(Duration::from_millis(3)).retry(RetryPolicy::exponential(
        5,
        Duration::from_millis(3),
        2,
        Duration::from_millis(48),
    ));
    let stats = lamellar_core::world::launch_with_config(cfg, move |world| {
        world.barrier();
        let before = common::stats_before_traffic(&world);
        if world.my_pe() == 0 {
            // Sequential: one AM in flight at a time, every reply checked.
            for i in 0..30u64 {
                let key = 0xe0_0000 + i;
                let h = world.exec_idempotent_am_pe(1, PutAm { key, val: i * 3 }, opts);
                let val = world
                    .block_on(h.fallible())
                    .unwrap_or_else(|e| panic!("idempotent AM {i} must converge, got {e}"));
                assert_eq!(val, i * 3, "reply integrity for key {key:#x}");
            }
        }
        world.wait_all();
        world.barrier();
        world.stats().delta(&before)
    });
    // Exactly-once *effects*: despite re-issues, the table reads as if each
    // AM ran once.
    let table = effects().lock().unwrap();
    for i in 0..30u64 {
        assert_eq!(table.get(&(0xe0_0000 + i)), Some(&(i * 3)), "effect for AM {i}");
    }
    assert!(stats[0].fault.delays_injected > 0, "the delay schedule must fire");
    assert!(
        stats[0].am.retries >= 1,
        "8 ms delays against a 3 ms deadline must force at least one re-issue"
    );
    assert_eq!(stats[0].am.timeouts, 0, "widening windows must converge before retries exhaust");
}

#[test]
fn same_seed_reproduces_same_fault_counters() {
    // Strictly sequential traffic (one AM in flight at a time) makes the
    // injected-fault counters a pure function of the seed: verdicts are
    // keyed by (seed, src, dst, seq, attempt), and sequential block_on
    // keeps the (seq, attempt) history identical across runs.
    //
    // Retransmit *counts* are deliberately NOT compared: retransmits fire
    // on a wall-clock timeout, so an OS scheduling stall can add a
    // (harmless, duplicate-suppressed) spurious retransmit. The injected
    // counters, however, must match exactly even so: the plane answers
    // attempts after a chunk's first delivering verdict with an uncounted
    // `Deliver`, which decouples the fault schedule from retransmit-timer
    // scheduling (DESIGN.md §4b). This deliberately runs at the default
    // 1 ms retransmit timeout — on a loaded machine spurious timer fires
    // DO happen here, and the counters must still reproduce.
    fn seeded_run(seed: u64) -> ((u64, u64), u64) {
        let fault = FaultConfig::seeded(seed).drop_prob(0.05).corrupt_prob(0.01);
        let cfg = WorldConfig::new(2).backend(Backend::Rofi).agg_threshold(16).faults(fault);
        let stats = lamellar_core::world::launch_with_config(cfg, move |world| {
            if world.my_pe() == 0 {
                for i in 0..60u64 {
                    let (tag, echoed) = world.block_on(
                        world.exec_am_pe(1, EchoAm { tag: i, payload: vec![i as u8; 24] }),
                    );
                    assert_eq!((tag, echoed), (i, vec![i as u8; 24]));
                }
            }
            world.barrier();
            let s = world.stats();
            world.barrier();
            s
        });
        let f = &stats[0].fault;
        let retransmits = stats.iter().map(|s| s.lamellae.retransmits).sum::<u64>();
        ((f.drops_injected, f.corruptions_injected), retransmits)
    }
    let (a, a_rtx) = seeded_run(0x5eed);
    let (b, _) = seeded_run(0x5eed);
    let (c, _) = seeded_run(0xfeed);
    assert_eq!(a, b, "same seed, same injected-fault counters");
    assert!(a.0 > 0, "5% drops over 120 chunks fire with this seed");
    assert!(a_rtx > 0, "nonzero retransmits under drops");
    assert_ne!(a, c, "different seed diverges (probabilistically certain here)");
}

proptest! {
    // Each case launches a full 2-PE world; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fault schedules preserve payload integrity: whatever the
    /// injector does at survivable rates, every echoed payload comes back
    /// bit-exact (the receive checksum rejects anything damaged, and
    /// go-back-N replays the original bytes).
    #[test]
    fn random_fault_schedules_preserve_payload_integrity(
        seed in any::<u64>(),
        // The shim's Strategy impls cover integer ranges only, so fault
        // probabilities are drawn in basis points (1 bp = 0.01%).
        drop_bp in 0u32..2_500,
        dup_bp in 0u32..2_500,
        corrupt_bp in 0u32..1_500,
        truncate_bp in 0u32..1_000,
    ) {
        let fault = FaultConfig::seeded(seed)
            .drop_prob(drop_bp as f64 / 10_000.0)
            .dup_prob(dup_bp as f64 / 10_000.0)
            .corrupt_prob(corrupt_bp as f64 / 10_000.0)
            .truncate_prob(truncate_bp as f64 / 10_000.0);
        run_chaos(2, 15, fault);
    }
}
