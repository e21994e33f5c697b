//! Edge cases across the array layer: tiny arrays, more PEs than
//! elements, sub-array extremes, empty batches, conversion uniqueness.

use lamellar_array::iter::DistIterExt;
use lamellar_array::prelude::*;
use lamellar_core::world::launch;

#[test]
fn array_smaller_than_world() {
    // 2 elements over 4 PEs: two ranks own data, two own nothing.
    launch(4, |world| {
        let arr = AtomicArray::<u64>::new(&world, 2, Distribution::Block);
        world.barrier();
        if world.my_pe() == 0 {
            world.block_on(arr.batch_store(vec![0, 1], vec![7u64, 8]));
            assert_eq!(world.block_on(arr.batch_load(vec![0, 1])), vec![7, 8]);
        }
        world.wait_all();
        world.barrier();
        assert_eq!(world.block_on(arr.sum()), 15);
        // Local iteration on the empty ranks yields nothing.
        let locally = arr.num_elems_local();
        if world.my_pe() >= 2 {
            assert_eq!(locally, 0);
        }
        world.barrier();
    });
}

#[test]
fn single_element_array() {
    launch(3, |world| {
        let arr = AtomicArray::<u64>::new(&world, 1, Distribution::Cyclic);
        world.barrier();
        world.block_on(arr.add(0, 1));
        world.wait_all();
        world.barrier();
        assert_eq!(world.block_on(arr.load(0)), 3);
        world.barrier();
    });
}

#[test]
fn empty_batch_is_a_noop() {
    launch(2, |world| {
        let arr = AtomicArray::<u64>::new(&world, 8, Distribution::Block);
        world.barrier();
        world.block_on(arr.batch_add(vec![], 1u64));
        let out = world.block_on(arr.batch_load(vec![]));
        assert!(out.is_empty());
        world.wait_all();
        world.barrier();
        assert_eq!(world.block_on(arr.sum()), 0);
        world.barrier();
    });
}

#[test]
fn sub_array_of_sub_array() {
    launch(2, |world| {
        let arr = AtomicArray::<u64>::new(&world, 20, Distribution::Block);
        world.barrier();
        let outer = arr.sub_array(4..16); // global 4..16
        let inner = outer.sub_array(2..8); // global 6..12
        assert_eq!(inner.len(), 6);
        if world.my_pe() == 0 {
            world.block_on(inner.store(0, 42)); // global 6
            assert_eq!(world.block_on(arr.load(6)), 42);
            world.block_on(inner.store(5, 43)); // global 11 (on PE1)
            assert_eq!(world.block_on(arr.load(11)), 43);
        }
        world.wait_all();
        world.barrier();
    });
}

#[test]
fn empty_and_full_sub_arrays() {
    launch(2, |world| {
        let arr = AtomicArray::<u64>::new(&world, 10, Distribution::Block);
        world.barrier();
        let empty = arr.sub_array(5..5);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        let full = arr.sub_array(0..10);
        assert_eq!(full.len(), 10);
        world.barrier();
    });
}

#[test]
#[should_panic(expected = "out of bounds")]
fn out_of_bounds_single_op_panics() {
    let world = lamellar_core::world::LamellarWorldBuilder::new().build();
    let arr = AtomicArray::<u64>::new(&world, 4, Distribution::Block);
    drop(arr.load(4)); // index == len; panics before a future exists
}

#[test]
fn out_of_bounds_batch_sends_nothing() {
    // With one op per sub-batch, the in-bounds indices ahead of the bad one
    // would each ship as their own AM if the bounds check ran per index.
    launch(1, |world| {
        let len = 4;
        let mut arr = AtomicArray::<u64>::new(&world, len, Distribution::Block);
        arr.set_batch_limit(1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arr.batch_add_ff(vec![0, 1, len], 1u64);
        }));
        let msg = res.expect_err("an out-of-bounds batch must panic");
        let msg = msg.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(msg.contains("out of bounds"), "unexpected panic message: {msg}");
        world.wait_all();
        assert_eq!(world.block_on(arr.get(0, len)), vec![0; len], "batch partly applied");
    });
}

#[test]
fn conversion_waits_for_extra_handles() {
    // A clone held elsewhere delays conversion until dropped — the paper's
    // "only succeeds when there is precisely one reference on each PE".
    launch(2, |world| {
        let arr = AtomicArray::<u64>::new(&world, 8, Distribution::Block);
        world.barrier();
        if world.my_pe() == 0 {
            let extra = arr.clone();
            // Drop the extra handle from another thread after a delay; the
            // conversion below must block until then.
            let t = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(100));
                drop(extra);
            });
            let started = std::time::Instant::now();
            let ro = arr.into_read_only();
            assert!(
                started.elapsed() >= std::time::Duration::from_millis(80),
                "conversion should have waited for the extra handle"
            );
            t.join().unwrap();
            drop(ro);
        } else {
            let _ro = arr.into_read_only();
        }
        world.barrier();
    });
}

#[test]
fn dist_iter_on_empty_view() {
    launch(2, |world| {
        let arr = AtomicArray::<u64>::new(&world, 10, Distribution::Block);
        world.barrier();
        let empty = arr.sub_array(3..3);
        let n = world.block_on(empty.dist_iter().count_local());
        assert_eq!(n, 0);
        world.barrier();
    });
}

#[test]
fn u8_and_i64_element_types() {
    launch(2, |world| {
        let bytes = AtomicArray::<u8>::new(&world, 6, Distribution::Cyclic);
        let ints = AtomicArray::<i64>::new(&world, 6, Distribution::Block);
        world.barrier();
        if world.my_pe() == 0 {
            world.block_on(bytes.batch_add((0..6).collect(), 20u8));
            world.block_on(bytes.batch_add((0..6).collect(), 24u8));
            assert_eq!(world.block_on(bytes.load(3)), 44);
            world.block_on(ints.store(0, -5));
            world.block_on(ints.sub(0, 10));
            assert_eq!(world.block_on(ints.load(0)), -15);
        }
        world.wait_all();
        world.barrier();
    });
}

#[test]
fn readonly_get_direct_spans_blocks() {
    launch(3, |world| {
        let arr = UnsafeArray::<u32>::new(&world, 30, Distribution::Block);
        world.barrier();
        if world.my_pe() == 0 {
            // SAFETY: sole writer before conversion.
            unsafe { arr.put_unchecked(0, &(0..30).collect::<Vec<u32>>()) };
        }
        world.barrier();
        let ro = arr.into_read_only();
        let mut out = vec![0u32; 17];
        ro.get_direct(7, &mut out);
        assert_eq!(out, (7..24).collect::<Vec<u32>>());
        world.barrier();
    });
}
