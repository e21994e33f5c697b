//! Integration tests: worlds, Active Messages, wait_all/barrier semantics.

use lamellar_core::active_messaging::prelude::*;
use lamellar_core::config::{Backend, WorldConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

lamellar_core::am! {
    /// Returns the executing PE id — the canonical "hello world" AM.
    pub struct WhoAmI {}
    exec(_am, ctx) -> usize {
        ctx.current_pe()
    }
}

lamellar_core::am! {
    /// Echoes its payload with the executing PE mixed in.
    pub struct Echo { pub text: String }
    exec(am, ctx) -> String {
        format!("PE{}: hello {}!", ctx.current_pe(), am.text)
    }
}

lamellar_core::am! {
    /// Recursively hops around the ring `hops` times, accumulating PE ids.
    pub struct RingHop { pub hops: usize, pub trail: Vec<usize> }
    exec(am, ctx) -> Vec<usize> {
        let mut trail = am.trail;
        trail.push(ctx.current_pe());
        if am.hops == 0 {
            trail
        } else {
            let next = (ctx.current_pe() + 1) % ctx.num_pes();
            let world = ctx.world();
            world.exec_am_pe(next, RingHop { hops: am.hops - 1, trail }).await
        }
    }
}

#[test]
fn exec_am_pe_returns_typed_output() {
    let results = launch(4, |world| {
        let target = (world.my_pe() + 1) % world.num_pes();
        let out = world.block_on(world.exec_am_pe(target, WhoAmI {}));
        assert_eq!(out, target);
        out
    });
    assert_eq!(results, vec![1, 2, 3, 0]);
}

#[test]
fn exec_am_all_reaches_every_pe() {
    let results = launch(3, |world| {
        let outs = world.block_on(world.exec_am_all(WhoAmI {}));
        assert_eq!(outs, vec![0, 1, 2]);
        world.barrier();
        outs.len()
    });
    assert_eq!(results, vec![3, 3, 3]);
}

#[test]
fn hello_world_listing1_shape() {
    let outs = launch(2, |world| {
        let am = Echo { text: String::from("World") };
        let request = world.exec_am_all(am);
        let replies = world.block_on(request);
        world.barrier();
        if world.my_pe() != 0 {
            let am = Echo { text: String::from("World2") };
            let _detached = world.exec_am_pe(0, am);
            world.wait_all(); // only blocks the local PE
        }
        replies
    });
    assert_eq!(outs[0], vec!["PE0: hello World!", "PE1: hello World!"]);
    assert_eq!(outs[1], outs[0]);
}

#[test]
fn nested_ams_build_dependency_chains() {
    let results = launch(3, |world| {
        if world.my_pe() == 0 {
            let trail = world.block_on(world.exec_am_pe(1, RingHop { hops: 4, trail: vec![] }));
            assert_eq!(trail, vec![1, 2, 0, 1, 2]);
        }
        world.barrier();
        true
    });
    assert!(results.into_iter().all(|r| r));
}

#[test]
fn wait_all_blocks_until_detached_ams_complete() {
    // Each PE sends one AM per remote PE without keeping handles; wait_all
    // must cover them all.
    lamellar_core::am! {
        pub struct Bump {}
        exec(_am, ctx) -> usize { ctx.current_pe() }
    }
    let results = launch(4, |world| {
        for pe in 0..world.num_pes() {
            drop(world.exec_am_pe(pe, Bump {}));
        }
        world.wait_all();
        world.barrier();
        world.my_pe()
    });
    assert_eq!(results, vec![0, 1, 2, 3]);
}

#[test]
fn wait_all_blocks_until_unit_ams_complete() {
    // The fire-and-forget path has no handles at all: completion is
    // conveyed by counted acks, and the side effects must all be visible
    // once every PE passes wait_all + barrier. Self-sends exercise the
    // local pool-spawn branch.
    use lamellar_core::darc::Darc;
    lamellar_core::am! {
        pub struct UnitBump { pub counter: Darc<AtomicUsize> }
        exec(am, _ctx) -> () {
            am.counter.fetch_add(1, Ordering::Relaxed);
        }
    }
    let results = launch(4, |world| {
        let counter = Darc::new(&world.team(), AtomicUsize::new(0));
        world.barrier();
        for pe in 0..world.num_pes() {
            world.exec_unit_am_pe(pe, UnitBump { counter: counter.clone() });
        }
        world.wait_all();
        world.barrier();
        counter.load(Ordering::Relaxed)
    });
    assert_eq!(results, vec![4, 4, 4, 4]);
}

#[test]
fn spawned_futures_run_on_the_pool() {
    let results = launch(2, |world| {
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let c = Arc::clone(&counter);
                world.spawn(async move {
                    c.fetch_add(i, Ordering::Relaxed);
                    i
                })
            })
            .collect();
        let sum: usize = handles.into_iter().map(|h| world.block_on(h)).sum();
        assert_eq!(sum, (0..32).sum());
        assert_eq!(counter.load(Ordering::Relaxed), (0..32).sum());
        world.wait_all();
        true
    });
    assert_eq!(results.len(), 2);
}

#[test]
fn large_payload_takes_heap_path_and_roundtrips() {
    lamellar_core::am! {
        /// Carries a payload far above the aggregation threshold.
        pub struct BigBlob { pub data: Vec<u8> }
        exec(am, _ctx) -> u64 {
            am.data.iter().map(|&b| b as u64).sum()
        }
    }
    let cfg = WorldConfig::new(2).agg_threshold(4 * 1024);
    let results = launch_with_config(cfg, |world| {
        // 1 MiB payload: far above the 4 KiB threshold → LargeRequest path.
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let expect: u64 = data.iter().map(|&b| b as u64).sum();
        let dst = (world.my_pe() + 1) % world.num_pes();
        let got = world.block_on(world.exec_am_pe(dst, BigBlob { data }));
        assert_eq!(got, expect);
        world.barrier();
        true
    });
    assert_eq!(results.len(), 2);
}

#[test]
fn heap_staging_stress_returns_to_baseline() {
    // Hammer the LargeRequest/FreeHeap handshake from every PE to every
    // other PE over many rounds, then check that every staged payload was
    // freed: the one-sided heap must return to its pre-stress level, or the
    // staging path leaks under load.
    lamellar_core::am! {
        pub struct Chunky { pub data: Vec<u8> }
        exec(am, _ctx) -> usize {
            am.data.len()
        }
    }
    let cfg = WorldConfig::new(3).agg_threshold(1024);
    let results = launch_with_config(cfg, |world| {
        let lamellae = world.rt().lamellae();
        world.barrier();
        let baseline = lamellae.heap_in_use();
        // 8 KiB payloads: far above the 1 KiB threshold → every remote AM
        // stages through the heap.
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        assert!(payload.len() > world.rt().large_threshold());
        for _round in 0..25 {
            let handles: Vec<_> = (0..world.num_pes())
                .filter(|&pe| pe != world.my_pe())
                .map(|pe| world.exec_am_pe(pe, Chunky { data: payload.clone() }))
                .collect();
            for h in handles {
                assert_eq!(world.block_on(h), payload.len());
            }
        }
        world.wait_all();
        // Two barriers: the first guarantees every peer has finished
        // sending (so all FreeHeaps are at least enqueued), the second that
        // every PE has pumped progress past them.
        world.barrier();
        world.barrier();
        let after = lamellae.heap_in_use();
        assert_eq!(
            after,
            baseline,
            "heap staging leaked {} bytes under stress",
            after.saturating_sub(baseline)
        );
        true
    });
    assert_eq!(results.len(), 3);
}

#[test]
fn shmem_backend_behaves_identically() {
    let cfg = WorldConfig::new(3).backend(Backend::Shmem);
    let results = launch_with_config(cfg, |world| {
        assert_eq!(world.backend(), Backend::Shmem);
        world.block_on(world.exec_am_all(WhoAmI {}))
    });
    for r in results {
        assert_eq!(r, vec![0, 1, 2]);
    }
}

#[test]
fn smp_single_pe_world_via_builder() {
    let world = LamellarWorldBuilder::new().threads(2).build();
    assert_eq!(world.num_pes(), 1);
    assert_eq!(world.my_pe(), 0);
    let out = world.block_on(world.exec_am_pe(0, Echo { text: "smp".into() }));
    assert_eq!(out, "PE0: hello smp!");
    let all = world.block_on(world.exec_am_all(WhoAmI {}));
    assert_eq!(all, vec![0]);
    world.barrier();
    world.wait_all();
}

#[test]
fn many_small_ams_aggregate_correctly() {
    // Thousands of tiny AMs exercise the aggregation/flush machinery.
    lamellar_core::am! {
        pub struct TinyAdd { pub x: u32 }
        exec(am, _ctx) -> u32 { am.x + 1 }
    }
    let results = launch(2, |world| {
        let dst = 1 - world.my_pe();
        let handles: Vec<_> = (0..5000u32).map(|x| world.exec_am_pe(dst, TinyAdd { x })).collect();
        let mut ok = true;
        for (x, h) in handles.into_iter().enumerate() {
            ok &= world.block_on(h) == x as u32 + 1;
        }
        world.barrier();
        ok
    });
    assert!(results.into_iter().all(|r| r));
}

#[test]
fn pe0_can_exit_while_others_send_to_it() {
    // Paper: "PE0 exits its main function before every other PE, but
    // because it is still alive, its thread pool is still able to process
    // AMs sent to it by other PEs."
    let results = launch(3, |world| {
        if world.my_pe() == 0 {
            // Return immediately: the guard-drop teardown keeps PE0 alive
            // until everyone deinitializes.
            0
        } else {
            let mut total = 0;
            for _ in 0..100 {
                total += world.block_on(world.exec_am_pe(0, WhoAmI {}));
            }
            assert_eq!(total, 0);
            world.my_pe()
        }
    });
    assert_eq!(results, vec![0, 1, 2]);
}

lamellar_core::am! {
    /// Always panics on its destination.
    pub struct PanickyAm {}
    exec(_am, _ctx) -> () {
        panic!("intentional kaboom");
    }
}

#[test]
fn remote_am_panic_surfaces_at_the_caller() {
    // A panicking AM must fail the *awaiting* side with the remote message
    // — never strand it waiting for a reply.
    let results = launch(2, |world| {
        let mut caught = None;
        if world.my_pe() == 0 {
            let h = world.exec_am_pe(1, PanickyAm {});
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                world.block_on(h);
            }));
            let err = res.expect_err("await must re-panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("intentional kaboom"), "got: {msg}");
            caught = Some(msg);
        }
        world.wait_all();
        world.barrier();
        caught.is_some()
    });
    assert_eq!(results, vec![true, false]);
}

#[test]
fn local_am_panic_surfaces_at_the_caller() {
    launch(1, |world| {
        let h = world.exec_am_pe(0, PanickyAm {});
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            world.block_on(h);
        }));
        assert!(res.is_err());
        world.wait_all();
    });
}
