//! Workspace-level integration tests: cross-crate flows a downstream user
//! would exercise (runtime + arrays + kernels together).

use lamellar_array::prelude::*;
use lamellar_core::active_messaging::prelude::*;
use lamellar_core::config::{Backend, WorldConfig};
use lamellar_core::prelude::Darc;
use std::sync::atomic::{AtomicUsize, Ordering};

lamellar_core::am! {
    /// Counts arrivals on a shared Darc counter and reports the PE.
    pub struct VisitAm { pub counter: Darc<AtomicUsize> }
    exec(am, ctx) -> usize {
        am.counter.fetch_add(1, Ordering::Relaxed);
        ctx.current_pe()
    }
}

#[test]
fn ams_darcs_and_arrays_compose() {
    launch(3, |world| {
        let team = world.team();
        let counter = Darc::new(&team, AtomicUsize::new(0));
        world.barrier();
        // AM fan-out with a Darc payload…
        let pes = world.block_on(world.exec_am_all(VisitAm { counter: counter.clone() }));
        assert_eq!(pes, vec![0, 1, 2]);
        world.wait_all();
        world.barrier();
        assert_eq!(counter.load(Ordering::Relaxed), 3);
        // …then array ops over the same world.
        let arr = AtomicArray::<u64>::new(&world, 9, Distribution::Cyclic);
        world.barrier();
        world.block_on(arr.batch_add((0..9).collect(), 1));
        world.wait_all();
        world.barrier();
        assert_eq!(world.block_on(arr.sum()), 9 * world.num_pes() as u64);
        world.barrier();
    });
}

#[test]
fn histogram_kernel_small_end_to_end() {
    let cfg = bale_suite::common::TableConfig::test_small();
    let results =
        launch(2, move |world| bale_suite::histo::histo_lamellar_atomic_array(&world, &cfg));
    assert!(results.iter().all(|r| r.global_ops == cfg.updates_per_pe * 2));
}

#[test]
fn randperm_all_variants_agree_on_small_input() {
    let cfg =
        bale_suite::common::PermConfig { perm_per_pe: 64, target_per_pe: 128, batch: 16, seed: 99 };
    // Each variant verifies internally that it produced a permutation.
    launch(2, move |world| {
        bale_suite::randperm::randperm_array_darts(&world, &cfg);
        bale_suite::randperm::randperm_am_darts(&world, &cfg);
        bale_suite::randperm::randperm_am_darts_opt(&world, &cfg);
        bale_suite::randperm::randperm_am_push(&world, &cfg);
    });
}

#[test]
fn shmem_and_lamellar_histograms_conserve_identically() {
    // Same seed, same stream: both substrates must count the same totals.
    let cfg = bale_suite::common::TableConfig::test_small();
    let lamellar = launch(2, move |world| bale_suite::histo::histo_lamellar_am(&world, &cfg));
    let shmem = oshmem_sim::shmem_launch(2, 16, move |ctx| {
        bale_suite::histo::baselines::histo_exstack(&ctx, &cfg)
    });
    assert_eq!(lamellar[0].global_ops, shmem[0].global_ops);
}

#[test]
fn backends_are_interchangeable_for_user_code() {
    // Paper Sec. III-A: "switching between the ROFI Lamellae and the
    // Shared Memory Lamellae should be transparent."
    for backend in [Backend::Rofi, Backend::Shmem] {
        let cfg = WorldConfig::new(2).backend(backend);
        let sums = launch_with_config(cfg, |world| {
            let arr = AtomicArray::<u64>::new(&world, 10, Distribution::Block);
            world.barrier();
            world.block_on(arr.batch_add((0..10).collect(), 2));
            world.wait_all();
            world.barrier();
            let s = world.block_on(arr.sum());
            world.barrier();
            s
        });
        assert_eq!(sums, vec![40, 40], "backend {backend:?}");
    }
}

#[test]
fn failure_injection_progress_delay_does_not_break_delivery() {
    // Slow the progress engine to shake out termination-detection races.
    let results = launch(2, |world| {
        // Arm the fabric's progress-delay injector (applies to every
        // progress tick on every PE — the fabric hook is global).
        world.rt().lamellae().inject_progress_delay(50_000);
        let cfg = bale_suite::common::TableConfig {
            table_per_pe: 20,
            updates_per_pe: 500,
            batch: 32,
            seed: 3,
        };
        let r = bale_suite::histo::histo_lamellar_am(&world, &cfg);
        world.rt().lamellae().inject_progress_delay(0);
        r
    });
    assert_eq!(results.len(), 2);
}

#[test]
fn fresh_array_after_drop_starts_zeroed() {
    // A dropped array's symmetric block is reused by the next allocation of
    // the same size; the new array must still start zero-initialized.
    let sums = launch(2, |world| {
        let old = AtomicArray::<usize>::new(&world, 64, Distribution::Block);
        world.barrier();
        world.block_on(old.batch_add((0..64).collect(), 1));
        world.wait_all();
        world.barrier();
        drop(old);
        world.wait_all();
        world.barrier();
        let fresh = AtomicArray::<usize>::new(&world, 64, Distribution::Block);
        world.barrier();
        let s = world.block_on(fresh.sum());
        world.barrier();
        s
    });
    assert_eq!(sums, vec![0, 0]);
}
