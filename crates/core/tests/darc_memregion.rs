//! Integration tests: Darcs, memory regions, teams.

use lamellar_core::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

lamellar_core::am! {
    /// Adds into the *destination PE's* instance of a shared counter Darc.
    pub struct DarcAdd { pub counter: Darc<AtomicUsize>, pub amount: usize }
    exec(am, _ctx) -> usize {
        am.counter.fetch_add(am.amount, Ordering::Relaxed) + am.amount
    }
}

#[test]
fn darc_deref_reads_local_instance() {
    let results = launch(3, |world| {
        let team = world.team();
        let d = Darc::new(&team, world.my_pe() * 100);
        // Each PE sees its own instance...
        assert_eq!(*d, world.my_pe() * 100);
        // ...and can inspect remote instances (in-process convenience).
        for rank in 0..3 {
            assert_eq!(*d.instance_at(rank), rank * 100);
        }
        world.barrier();
        *d
    });
    assert_eq!(results, vec![0, 100, 200]);
}

#[test]
fn darc_travels_in_ams_and_mutates_remote_instance() {
    let results =
        launch(4, |world| {
            let team = world.team();
            let counter = Darc::new(&team, AtomicUsize::new(0));
            world.barrier();
            // Every PE adds (pe+1) to every other PE's instance.
            let mut handles = Vec::new();
            for pe in 0..world.num_pes() {
                handles.push(world.exec_am_pe(
                    pe,
                    DarcAdd { counter: counter.clone(), amount: world.my_pe() + 1 },
                ));
            }
            for h in handles {
                world.block_on(h);
            }
            world.wait_all();
            world.barrier();
            // Each instance received 1+2+3+4 = 10.
            let local = counter.load(Ordering::Relaxed);
            world.barrier();
            local
        });
    assert_eq!(results, vec![10, 10, 10, 10]);
}

#[test]
fn darc_reference_counting_tracks_clones() {
    launch(2, |world| {
        let team = world.team();
        let d = Darc::new(&team, 7usize);
        let my_rank = team.my_rank();
        assert_eq!(d.local_count(my_rank), 1);
        let d2 = d.clone();
        assert_eq!(d.local_count(my_rank), 2);
        drop(d2);
        assert_eq!(d.local_count(my_rank), 1);
        world.barrier();
    });
}

#[test]
fn shared_region_put_get_roundtrip() {
    let results = launch(3, |world| {
        let region: SharedMemoryRegion<u64> = world.alloc_shared_mem_region(16);
        let me = world.my_pe() as u64;
        // Fill my own block directly.
        // SAFETY: each PE writes only its own block, between barriers.
        unsafe {
            for (i, slot) in region.as_mut_slice().iter_mut().enumerate() {
                *slot = me * 1000 + i as u64;
            }
        }
        world.barrier();
        // Read every PE's block remotely.
        let mut ok = true;
        for pe in 0..world.num_pes() {
            let mut buf = [0u64; 16];
            // SAFETY: all writers finished before the barrier.
            unsafe { region.get(pe, 0, &mut buf) };
            for (i, &v) in buf.iter().enumerate() {
                ok &= v == pe as u64 * 1000 + i as u64;
            }
        }
        world.barrier();
        ok
    });
    assert!(results.into_iter().all(|r| r));
}

#[test]
fn shared_region_remote_put_visible_after_barrier() {
    launch(2, |world| {
        let region: SharedMemoryRegion<u32> = world.alloc_shared_mem_region(8);
        if world.my_pe() == 0 {
            // SAFETY: PE1 does not touch its block until after the barrier.
            unsafe { region.put(1, 2, &[11, 22, 33]) };
        }
        world.barrier();
        if world.my_pe() == 1 {
            // SAFETY: no more writers after the barrier.
            let local = unsafe { region.as_slice() };
            assert_eq!(&local[2..5], &[11, 22, 33]);
            assert_eq!(local[0], 0); // untouched, arenas start zeroed
        }
        world.barrier();
    });
}

#[test]
fn one_sided_region_always_addresses_origin() {
    launch(2, |world| {
        let mine: OneSidedMemoryRegion<f64> = world.alloc_one_sided_mem_region(4);
        assert_eq!(mine.origin_pe(), world.my_pe());
        // SAFETY: only this PE accesses the region here.
        unsafe {
            mine.put(0, &[1.5, 2.5, 3.5, 4.5]);
            let mut buf = [0.0; 2];
            mine.get(1, &mut buf);
            assert_eq!(buf, [2.5, 3.5]);
            assert_eq!(mine.as_slice()[3], 4.5);
        }
        world.barrier();
    });
}

lamellar_core::am! {
    /// Reads from a OneSidedMemoryRegion that was sent to us in an AM —
    /// the region still addresses the *origin* PE's memory.
    pub struct ReadRegion { pub region: OneSidedMemoryRegion<u64>, pub index: usize }
    exec(am, _ctx) -> u64 {
        let mut buf = [0u64; 1];
        // SAFETY: the origin PE wrote before sending and does not write
        // concurrently.
        unsafe { am.region.get(am.index, &mut buf) };
        buf[0]
    }
}

#[test]
fn one_sided_region_usable_from_remote_pe_via_am() {
    launch(2, |world| {
        if world.my_pe() == 0 {
            let region: OneSidedMemoryRegion<u64> = world.alloc_one_sided_mem_region(8);
            // SAFETY: sole accessor until the AM reads it (happens-after).
            unsafe { region.put(0, &[10, 20, 30, 40, 50, 60, 70, 80]) };
            let v = world.block_on(world.exec_am_pe(1, ReadRegion { region, index: 5 }));
            assert_eq!(v, 60);
        }
        world.barrier();
    });
}

#[test]
fn subteam_collectives_are_scoped() {
    let results = launch(4, |world| {
        // Even PEs form a sub-team.
        let sub = world.create_subteam(&[0, 2]);
        match (world.my_pe() % 2, &sub) {
            (0, Some(team)) => {
                assert_eq!(team.num_pes(), 2);
                assert_eq!(team.pes(), &[0, 2]);
                assert_eq!(team.my_rank(), world.my_pe() / 2);
                // Team-scoped region: only 2 blocks exist logically.
                let region: SharedMemoryRegion<u32> = team.alloc_shared_mem_region(4);
                // SAFETY: each member writes its own block.
                unsafe { region.as_mut_slice()[0] = world.my_pe() as u32 + 1 };
                team.barrier();
                let mut buf = [0u32; 1];
                let other = if world.my_pe() == 0 { 2 } else { 0 };
                // SAFETY: writers done before team barrier.
                unsafe { region.get(other, 0, &mut buf) };
                assert_eq!(buf[0], other as u32 + 1);
                team.barrier();
                true
            }
            (1, None) => true,
            _ => false,
        }
    });
    assert!(results.into_iter().all(|r| r));
}

#[test]
fn darc_on_subteam_only_members_hold_instances() {
    let results = launch(4, |world| {
        let sub = world.create_subteam(&[1, 3]);
        let out = if let Some(team) = &sub {
            let d = Darc::new(team, world.my_pe() * 2);
            assert_eq!(*d, world.my_pe() * 2);
            assert_eq!(d.team_pes(), &[1, 3]);
            *d
        } else {
            usize::MAX
        };
        world.barrier();
        out
    });
    assert_eq!(results, vec![usize::MAX, 2, usize::MAX, 6]);
}

#[test]
fn region_memory_is_reclaimed_after_drop() {
    launch(2, |world| {
        let rt = world.rt().clone();
        let lam = rt.lamellae();
        // Probe the heap allocator's next first-fit offset.
        let probe = |lam: &lamellar_core::lamellae::Lamellae| {
            let off = lam.alloc_heap(64, 8).unwrap();
            lam.free_heap(rt.pe(), off).unwrap();
            off
        };
        let before = probe(lam);
        let r1: OneSidedMemoryRegion<u64> = world.alloc_one_sided_mem_region(1024);
        let during = probe(lam);
        assert_ne!(before, during, "region occupies heap space while alive");
        drop(r1);
        let after = probe(lam);
        assert_eq!(before, after, "dropping the region releases its heap block");
        world.barrier();
    });
}
