//! Deterministic perf-smoke gate for the array layer's fire-and-forget
//! batches, the companion of `perf_smoke.rs`: `batch_add_ff` ships
//! sub-batches of 10 000 `u32` local offsets (40 KB), which must run inline
//! on the serving PE's progress thread, never spilling to the pool, and
//! must send no replies. Counts, not timings.
//!
//! A separate test binary, so its world never shares a process (or the
//! cores) with the aggregation-factor gate in `perf_smoke.rs`. Invoked
//! explicitly (release) from `scripts/ci.sh`; also runs with the normal
//! workspace suite.

use lamellar_repro::prelude::*;

const LEN: usize = 2_000;
const LIMIT: usize = 10_000;
const UPDATES: usize = 40_000;

/// PE `pe`'s histogram update stream: a fixed xorshift index sequence.
fn updates(pe: usize) -> Vec<usize> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ pe as u64;
    (0..UPDATES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % LEN as u64) as usize
        })
        .collect()
}

#[test]
fn perf_smoke_array_batch_inline_gate() {
    let cfg = WorldConfig::new(2).backend(Backend::Rofi);
    let results = lamellar_core::world::launch_with_config(cfg, |world| {
        let mut arr = AtomicArray::<usize>::new(&world, LEN, Distribution::Block);
        arr.set_batch_limit(LIMIT);
        world.barrier();
        let before = world.stats();
        world.barrier();
        arr.batch_add_ff(updates(world.my_pe()), 1);
        world.wait_all();
        world.barrier();
        let d = world.stats().delta(&before);
        // Every PE holds its delta before the reads below send AMs.
        world.barrier();
        let hist = world.block_on(arr.get(0, LEN));
        world.barrier();
        (d, hist)
    });

    // Updates per (source, destination) pair, and the sequential histogram.
    let owner = |i: usize| i / (LEN / 2);
    let mut pair = [[0usize; 2]; 2];
    let mut oracle = vec![0usize; LEN];
    for (src, row) in pair.iter_mut().enumerate() {
        for i in updates(src) {
            row[owner(i)] += 1;
            oracle[i] += 1;
        }
    }
    let subs = |n: usize| n.div_ceil(LIMIT) as u64;
    for (pe, (d, hist)) in results.iter().enumerate() {
        let peer = 1 - pe;
        assert_eq!(hist, &oracle, "PE{pe} read a wrong histogram");
        assert_eq!(d.am.batch_sub_batches, subs(pair[pe][0]) + subs(pair[pe][1]), "PE{pe} plan");
        // Every sub-batch the peer sent here ran inline on the progress
        // thread: 40 KB of u32 offsets fit under the inline payload cap.
        let served = subs(pair[peer][pe]);
        assert!(served >= 2, "PE{pe} served only {served} sub-batches");
        assert_eq!(d.am.received, served, "PE{pe} AMs served");
        assert_eq!(d.am.inline_execs, served, "PE{pe} array sub-batches not run inline");
        assert_eq!(d.am.spilled_execs, 0, "PE{pe} array sub-batches spilled to the pool");
        assert_eq!(d.am.replies_sent, 0, "PE{pe} sent replies for fire-and-forget batches");
    }
}
