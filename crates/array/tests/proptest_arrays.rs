//! Property tests: batch operations agree with a sequential oracle, and
//! layouts/batches behave identically across distributions and array types.

use lamellar_array::prelude::*;
use lamellar_core::world::launch;
use proptest::prelude::*;

/// Apply a random op sequence through batch ops and through a plain Vec;
/// the final array contents must match.
fn run_oracle(dist: Distribution, len: usize, ops: Vec<(usize, u64)>, use_local_lock: bool) {
    let ops2 = ops.clone();
    let outcome = launch(2, move |world| {
        let idxs: Vec<usize> = ops2.iter().map(|&(i, _)| i % len).collect();
        let vals: Vec<u64> = ops2.iter().map(|&(_, v)| v % 1000).collect();

        if use_local_lock {
            let arr = LocalLockArray::<u64>::new(&world, len, dist);
            world.barrier();
            if world.my_pe() == 0 {
                world.block_on(arr.batch_add(idxs.clone(), vals.clone()));
            }
            world.wait_all();
            world.barrier();
            let out = world.block_on(arr.get(0, len));
            world.barrier();
            out
        } else {
            let arr = AtomicArray::<u64>::new(&world, len, dist);
            world.barrier();
            if world.my_pe() == 0 {
                world.block_on(arr.batch_add(idxs.clone(), vals.clone()));
            }
            world.wait_all();
            world.barrier();
            let out = world.block_on(arr.get(0, len));
            world.barrier();
            out
        }
    });
    // Sequential oracle.
    let mut oracle = vec![0u64; len];
    for &(i, v) in &ops {
        oracle[i % len] += v % 1000;
    }
    assert_eq!(outcome[0], oracle);
    assert_eq!(outcome[1], oracle);
}

proptest! {
    // World setup is expensive (threads per case); keep case counts low
    // but inputs rich.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batch_add_matches_oracle_block(
        len in 1usize..40,
        ops in prop::collection::vec((0usize..1000, 0u64..10_000), 1..100),
    ) {
        run_oracle(Distribution::Block, len, ops, false);
    }

    #[test]
    fn batch_add_matches_oracle_cyclic(
        len in 1usize..40,
        ops in prop::collection::vec((0usize..1000, 0u64..10_000), 1..100),
    ) {
        run_oracle(Distribution::Cyclic, len, ops, false);
    }

    #[test]
    fn batch_add_matches_oracle_local_lock(
        len in 1usize..40,
        ops in prop::collection::vec((0usize..1000, 0u64..10_000), 1..60),
    ) {
        run_oracle(Distribution::Block, len, ops, true);
    }

    #[test]
    fn batch_fetch_results_match_loads(
        len in 1usize..30,
        idxs in prop::collection::vec(0usize..1000, 1..50),
    ) {
        let outcome = launch(2, move |world| {
            let arr = AtomicArray::<u64>::new(&world, len, Distribution::Block);
            world.barrier();
            let mut ok = true;
            if world.my_pe() == 0 {
                let idxs: Vec<usize> = idxs.iter().map(|&i| i % len).collect();
                // fetch_add returns the running per-slot prefix counts.
                let prev = world.block_on(arr.batch_fetch_add(idxs.clone(), 1u64));
                let mut counts = vec![0u64; len];
                for (k, &i) in idxs.iter().enumerate() {
                    ok &= prev[k] == counts[i];
                    counts[i] += 1;
                }
                let finals = world.block_on(arr.batch_load((0..len).collect()));
                ok &= finals == counts;
            }
            world.wait_all();
            world.barrier();
            ok
        });
        prop_assert!(outcome.into_iter().all(|b| b));
    }
}

/// Check the values a fetching add returned against per-slot histories
/// starting from `start`, and return the final slot values. When
/// `in_order` (one sub-batch per PE), each fetch must see exactly the adds
/// before it in input order. Otherwise a PE's sub-batches may be applied
/// concurrently, so each slot's fetches need only chain into one serial
/// history: sorted, each fetched value plus its own add is the next.
fn check_fetches(
    start: &[u64],
    idxs: &[usize],
    vals: &[u64],
    prev: &[u64],
    in_order: bool,
) -> Vec<u64> {
    assert_eq!(prev.len(), idxs.len(), "one result per input");
    let mut slot = start.to_vec();
    if in_order {
        for (k, (&i, &v)) in idxs.iter().zip(vals).enumerate() {
            assert_eq!(prev[k], slot[i], "fetch {k} at slot {i} is not the input-order prefix");
            slot[i] += v;
        }
        return slot;
    }
    for (i, s) in slot.iter_mut().enumerate() {
        let mut hist: Vec<(u64, u64)> =
            (0..idxs.len()).filter(|&k| idxs[k] == i).map(|k| (prev[k], vals[k])).collect();
        hist.sort_unstable();
        for (fetched, v) in hist {
            assert_eq!(fetched, *s, "slot {i}: fetches do not form one serial history");
            *s += v;
        }
    }
    slot
}

/// Every path the batch binner reorders, on a sub-array view at `off`, for
/// each sub-batch limit in {1, 2, 7, n, n+1}: fire-and-forget adds from
/// every PE (per-element and broadcast values), then on PE 0 a fetching
/// add and a One-index / Many-values fetching add, each against a
/// sequential oracle.
fn run_binner_oracle(dist: Distribution, len: usize, off: usize, ops: Vec<(usize, u64)>) {
    const PES: usize = 3;
    let vlen = len - off;
    let idxs: Vec<usize> = ops.iter().map(|&(i, _)| i % vlen).collect();
    let vals: Vec<u64> = ops.iter().map(|&(_, v)| v % 1000).collect();
    let n = idxs.len();
    launch(PES, move |world| {
        for limit in [1, 2, 7, n, n + 1] {
            // Fire-and-forget from every PE.
            let mut ff = AtomicArray::<u64>::new(&world, len, dist).sub_array(off..len);
            ff.set_batch_limit(limit);
            world.barrier();
            ff.batch_add_ff(idxs.clone(), vals.clone());
            ff.batch_add_ff(idxs.clone(), 1u64);
            world.wait_all();
            world.barrier();
            let mut oracle = vec![0u64; vlen];
            for (&i, &v) in idxs.iter().zip(&vals) {
                oracle[i] += PES as u64 * (v + 1);
            }
            assert_eq!(world.block_on(ff.get(0, vlen)), oracle, "ff, limit {limit}");
            world.barrier();

            // Fetching adds from PE 0 alone, so every fetch is accounted for.
            let mut fetch = AtomicArray::<u64>::new(&world, len, dist).sub_array(off..len);
            fetch.set_batch_limit(limit);
            world.barrier();
            if world.my_pe() == 0 {
                let in_order = limit >= n;
                let prev = world.block_on(fetch.batch_fetch_add(idxs.clone(), vals.clone()));
                let slots = check_fetches(&vec![0; vlen], &idxs, &vals, &prev, in_order);
                // One index, many values, all bound for one PE.
                let j = vec![idxs[0]; n];
                let prev = world.block_on(fetch.batch_fetch_add(vec![idxs[0]], vals.clone()));
                let slots = check_fetches(&slots, &j, &vals, &prev, in_order);
                assert_eq!(world.block_on(fetch.batch_load((0..vlen).collect())), slots);
            }
            world.wait_all();
            world.barrier();
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batch_binner_matches_oracle_on_offset_views(
        len in 2usize..40,
        off_raw in 0usize..1000,
        ops in prop::collection::vec((0usize..1000, 0u64..10_000), 1..60),
    ) {
        let off = 1 + off_raw % (len - 1);
        for dist in [Distribution::Block, Distribution::Cyclic] {
            run_binner_oracle(dist, len, off, ops.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Small-batch sub-batching: any batch limit produces the same result.
    #[test]
    fn batch_limit_is_semantically_invisible(limit in 1usize..20) {
        let outcome = launch(2, move |world| {
            let mut arr = AtomicArray::<u64>::new(&world, 10, Distribution::Block);
            arr.set_batch_limit(limit);
            world.barrier();
            let idxs: Vec<usize> = (0..50).map(|i| i % 10).collect();
            world.block_on(arr.batch_add(idxs, 1u64));
            world.wait_all();
            world.barrier();
            let sum = world.block_on(arr.sum());
            world.barrier();
            sum
        });
        prop_assert_eq!(outcome, vec![100, 100]);
    }
}
