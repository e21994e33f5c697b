//! The doorbell: the one way a PE's threads wait for work.
//!
//! An event count. A ringer publishes work, then rings: it bumps the epoch,
//! and notifies only if a waiter has armed. A waiter that finds no work
//! arms (reading the epoch), looks again, and sleeps until the epoch moves.
//! A ring after the arm moves the epoch; a ring before it published its
//! work before the second look: no wake-up is lost. While no waiter is
//! armed, a ring costs one atomic read-modify-write and one load.

use parking_lot::{Condvar, Mutex};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::task::Wake;
use std::time::{Duration, Instant};

/// Longest a waiter sleeps unrung: a backstop for work that no ringer
/// announces (AM deadlines, retransmits, handle drops), not for lost
/// wake-ups.
pub const PARK_CAP: Duration = Duration::from_millis(1);

/// Which sleepers a ring wakes.
#[derive(Debug, Clone, Copy)]
pub enum Side {
    /// `wait_all`, barriers and `wait_unique`: they wait on the wire.
    Wire,
    /// Workers, `block_on` and `wait_idle`: they wait on tasks and wakers.
    Tasks,
}

/// An event count that threads park on until another thread rings it.
#[derive(Debug, Default)]
pub struct Doorbell {
    epoch: AtomicU64,
    /// Waiters between arming and the end of their wait.
    armed: AtomicUsize,
    /// Threads asleep on each side's condvar.
    sleepers: Mutex<[usize; 2]>,
    cvs: [Condvar; 2],
}

impl Doorbell {
    /// Announce work, published before the call, to `side`.
    pub fn ring(&self, side: Side) {
        self.epoch.fetch_add(1, SeqCst);
        if self.armed.load(SeqCst) != 0 && self.sleepers.lock()[side as usize] != 0 {
            self.cvs[side as usize].notify_all();
        }
    }

    /// Run `step` until it breaks, parking on `side` after a round that
    /// finds no work. `step` returns `Continue(did_work)`.
    pub fn wait_until<T>(&self, side: Side, mut step: impl FnMut() -> ControlFlow<T, bool>) -> T {
        let mut armed: Option<Armed<'_>> = None;
        loop {
            match step() {
                ControlFlow::Break(v) => return v,
                ControlFlow::Continue(true) => armed = None,
                ControlFlow::Continue(false) => match armed.take() {
                    Some(armed) => _ = armed.wait(PARK_CAP),
                    None => armed = Some(self.arm(side)),
                },
            }
        }
    }

    fn arm(&self, side: Side) -> Armed<'_> {
        self.armed.fetch_add(1, SeqCst);
        Armed { bell: self, side, key: self.epoch.load(SeqCst) }
    }
}

/// An armed waiter; disarms on drop.
struct Armed<'a> {
    bell: &'a Doorbell,
    side: Side,
    key: u64,
}

impl Armed<'_> {
    /// Sleep until a ring after the arm, or for at most `cap`; true when
    /// rung. A ring for the other side ends the wait only before the sleep.
    fn wait(self, cap: Duration) -> bool {
        let (bell, side, deadline) = (self.bell, self.side as usize, Instant::now() + cap);
        let mut sleepers = bell.sleepers.lock();
        while bell.epoch.load(SeqCst) == self.key {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else { return false };
            sleepers[side] += 1;
            bell.cvs[side].wait_for(&mut sleepers, left);
            sleepers[side] -= 1;
        }
        true
    }
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        self.bell.armed.fetch_sub(1, SeqCst);
    }
}

/// A doorbell wakes `block_on`, which re-polls its future on every ring.
impl Wake for Doorbell {
    fn wake(self: Arc<Self>) {
        self.ring(Side::Tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Two threads hand a turn back and forth through ring/wait. The cap is
    /// far beyond any scheduling delay, so a wait that ends on it means a
    /// ring was lost.
    #[test]
    fn ten_thousand_handoffs_lose_no_ring() {
        const HANDOFFS: usize = 10_000;
        let bells = Arc::new([Doorbell::default(), Doorbell::default()]);
        let turn = Arc::new(AtomicUsize::new(0));
        let player = |me: usize| {
            let (bells, turn) = (Arc::clone(&bells), Arc::clone(&turn));
            std::thread::spawn(move || {
                for t in (me..HANDOFFS).step_by(2) {
                    loop {
                        let armed = bells[me].arm(Side::Wire);
                        if turn.load(SeqCst) == t {
                            break;
                        }
                        assert!(armed.wait(Duration::from_secs(10)), "turn {t}: ring lost");
                    }
                    turn.store(t + 1, SeqCst);
                    bells[1 - me].ring(Side::Wire);
                }
            })
        };
        let (a, b) = (player(0), player(1));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(turn.load(SeqCst), HANDOFFS);
    }

    #[test]
    fn unrung_wait_ends_at_the_cap() {
        let bell = Doorbell::default();
        assert!(!bell.arm(Side::Tasks).wait(Duration::from_millis(1)));
        let armed = bell.arm(Side::Tasks);
        bell.ring(Side::Wire);
        assert!(armed.wait(Duration::from_secs(10)), "a ring after prepare ends the wait");
    }
}
