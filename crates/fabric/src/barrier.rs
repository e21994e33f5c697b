//! Collective synchronization primitives across simulated PEs.
//!
//! The paper's Lamellae trait requires a `barrier` (Sec. III-A). PEs here are
//! thread groups, so a sense-reversing centralized barrier is both correct
//! and representative: its cost grows with PE count like the small-message
//! latencies a real dissemination barrier would exhibit.
//!
//! Unlike `std::sync::Barrier`, this barrier supports *subsets* of PEs
//! (teams, Sec. III: "Team — a subset of PEs in the world") by constructing
//! one instance per team. A waiter parks on its PE's [`Doorbell`], which the
//! last arriver rings for every participant, so a PE blocked here still
//! wakes for the messages its progress callback serves.

use lamellar_executor::{Doorbell, Side};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A reusable sense-reversing barrier over a fixed set of participants.
#[derive(Debug)]
pub struct SenseBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    /// One doorbell per participant, rung by each episode's last arriver.
    bells: Vec<Arc<Doorbell>>,
}

impl SenseBarrier {
    /// A barrier for one participant per doorbell in `bells`.
    pub fn new(bells: Vec<Arc<Doorbell>>) -> Self {
        assert!(!bells.is_empty(), "barrier needs at least one participant");
        SenseBarrier { count: AtomicUsize::new(0), sense: AtomicBool::new(false), bells }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.bells.len()
    }

    /// Enter the barrier and wait, parked on `bell` (the caller's own), until
    /// every participant has entered. Meanwhile `progress` runs and says
    /// whether it did work: a blocked PE must keep servicing AMs (paper
    /// Sec. III-C: "its thread pool is still able to process AMs sent to it
    /// by other PEs").
    ///
    /// Returns `true` on exactly one participant per episode (the last
    /// arriver), mirroring `std::sync::Barrier`'s leader result.
    pub fn wait(&self, bell: &Doorbell, mut progress: impl FnMut() -> bool) -> bool {
        let my_sense = !self.sense.load(Ordering::Relaxed);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.participants() {
            // Last arriver: reset the count and flip the sense, releasing
            // all waiters.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::Release);
            self.bells.iter().for_each(|b| b.ring(Side::Wire));
            return true;
        }
        bell.wait_until(Side::Wire, || {
            if self.sense.load(Ordering::Acquire) == my_sense {
                ControlFlow::Break(false)
            } else {
                ControlFlow::Continue(progress())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A barrier over `n` fresh doorbells, and the doorbells.
    fn barrier(n: usize) -> (Arc<SenseBarrier>, Vec<Arc<Doorbell>>) {
        let bells: Vec<Arc<Doorbell>> = (0..n).map(|_| Arc::default()).collect();
        (Arc::new(SenseBarrier::new(bells.clone())), bells)
    }

    #[test]
    fn single_participant_is_leader_every_time() {
        let (b, bells) = barrier(1);
        for _ in 0..5 {
            assert!(b.wait(&bells[0], || false));
        }
    }

    #[test]
    fn all_threads_wait_for_each_other() {
        const N: usize = 8;
        const EPISODES: usize = 50;
        let (barrier, bells) = barrier(N);
        let phase = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for bell in bells {
            let barrier = Arc::clone(&barrier);
            let phase = Arc::clone(&phase);
            handles.push(std::thread::spawn(move || {
                for ep in 0..EPISODES {
                    // Every thread must observe the shared phase equal to the
                    // episode number inside the episode — only possible if the
                    // barrier actually synchronizes.
                    assert_eq!(phase.load(Ordering::SeqCst), ep);
                    if barrier.wait(&bell, || false) {
                        phase.store(ep + 1, Ordering::SeqCst);
                    }
                    barrier.wait(&bell, || false);
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
        let (barrier, bells) = barrier(N);
        let leaders = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for bell in bells {
            let barrier = Arc::clone(&barrier);
            let leaders = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    if barrier.wait(&bell, || false) {
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
        let (barrier, bells) = barrier(2);
        let ticks = Arc::new(AtomicUsize::new(0));
        let b2 = Arc::clone(&barrier);
        let t2 = Arc::clone(&ticks);
        let bell = Arc::clone(&bells[1]);
        let waiter = std::thread::spawn(move || {
            b2.wait(&bell, || {
                t2.fetch_add(1, Ordering::Relaxed);
                true
            });
        });
        // Give the waiter time to spin a few progress ticks.
        while ticks.load(Ordering::Relaxed) < 3 {
            std::hint::spin_loop();
        }
        barrier.wait(&bells[0], || false);
        waiter.join().unwrap();
        assert!(ticks.load(Ordering::Relaxed) >= 3);
    }
}
