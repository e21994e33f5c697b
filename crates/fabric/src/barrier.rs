//! Collective synchronization primitives across simulated PEs.
//!
//! The paper's Lamellae trait requires a `barrier` (Sec. III-A). PEs here are
//! thread groups, so a sense-reversing centralized barrier is both correct
//! and representative: its cost grows with PE count like the small-message
//! latencies a real dissemination barrier would exhibit.
//!
//! Unlike `std::sync::Barrier`, this barrier supports *subsets* of PEs
//! (teams, Sec. III: "Team — a subset of PEs in the world") by constructing
//! one instance per team, and it spins with `yield_now` so executor worker
//! threads on the same cores can continue making progress.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A reusable sense-reversing barrier for `n` participants.
#[derive(Debug)]
pub struct SenseBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

impl SenseBarrier {
    /// Create a barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        SenseBarrier { n, count: AtomicUsize::new(0), sense: AtomicBool::new(false) }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Enter the barrier and wait until all `n` participants have entered.
    ///
    /// Returns `true` on exactly one participant per episode (the last
    /// arriver), mirroring `std::sync::Barrier`'s leader result.
    pub fn wait(&self) -> bool {
        let my_sense = !self.sense.load(Ordering::Relaxed);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            // Last arriver: reset the count and flip the sense, releasing
            // all waiters.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            false
        }
    }

    /// Like [`SenseBarrier::wait`] but calls `progress` while spinning.
    ///
    /// A blocked PE must keep servicing incoming AMs (paper Sec. III-C:
    /// "because it is still alive, its thread pool is still able to process
    /// AMs sent to it by other PEs"). The barrier itself is the canonical
    /// place a PE blocks, so it takes a progress callback.
    pub fn wait_with_progress(&self, mut progress: impl FnMut()) -> bool {
        let my_sense = !self.sense.load(Ordering::Relaxed);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            true
        } else {
            while self.sense.load(Ordering::Acquire) != my_sense {
                progress();
                std::thread::yield_now();
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn single_participant_is_leader_every_time() {
        let b = SenseBarrier::new(1);
        for _ in 0..5 {
            assert!(b.wait());
        }
    }

    #[test]
    fn all_threads_wait_for_each_other() {
        const N: usize = 8;
        const EPISODES: usize = 50;
        let barrier = Arc::new(SenseBarrier::new(N));
        let phase = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..N {
            let barrier = Arc::clone(&barrier);
            let phase = Arc::clone(&phase);
            handles.push(std::thread::spawn(move || {
                for ep in 0..EPISODES {
                    // Every thread must observe the shared phase equal to the
                    // episode number inside the episode — only possible if the
                    // barrier actually synchronizes.
                    assert_eq!(phase.load(Ordering::SeqCst), ep);
                    if barrier.wait() {
                        phase.store(ep + 1, Ordering::SeqCst);
                    }
                    barrier.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase.load(Ordering::SeqCst), EPISODES);
    }

    #[test]
    fn exactly_one_leader_per_episode() {
        const N: usize = 6;
        let barrier = Arc::new(SenseBarrier::new(N));
        let leaders = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..N {
            let barrier = Arc::clone(&barrier);
            let leaders = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    if barrier.wait() {
                        leaders.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn progress_callback_runs_for_waiters() {
        let barrier = Arc::new(SenseBarrier::new(2));
        let ticks = Arc::new(AtomicUsize::new(0));
        let b2 = Arc::clone(&barrier);
        let t2 = Arc::clone(&ticks);
        let waiter = std::thread::spawn(move || {
            b2.wait_with_progress(|| {
                t2.fetch_add(1, Ordering::Relaxed);
            });
        });
        // Give the waiter time to spin a few progress ticks.
        while ticks.load(Ordering::Relaxed) < 3 {
            std::hint::spin_loop();
        }
        barrier.wait();
        waiter.join().unwrap();
        assert!(ticks.load(Ordering::Relaxed) >= 3);
    }
}
