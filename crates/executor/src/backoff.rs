//! Exponential backoff for retries.

use std::time::Duration;

/// Duration-level exponential backoff: paces *attempts* across retries —
/// each call to [`ExpBackoff::next_delay`] yields the next interval in the
/// geometric schedule `base, base·factor, base·factor², …`, saturating at
/// `cap`.
///
/// The AM-layer `RetryPolicy` builds its per-attempt deadline windows on
/// this schedule.
#[derive(Debug, Clone)]
pub struct ExpBackoff {
    next: Duration,
    factor: u32,
    cap: Duration,
}

impl ExpBackoff {
    /// A schedule starting at `base`, multiplying by `factor` each step,
    /// never exceeding `cap`. A `factor` of 0 or 1 yields a constant
    /// schedule of `min(base, cap)`.
    pub fn new(base: Duration, factor: u32, cap: Duration) -> Self {
        ExpBackoff { next: base.min(cap), factor: factor.max(1), cap }
    }

    /// The next interval in the schedule (advances the schedule).
    pub fn next_delay(&mut self) -> Duration {
        let d = self.next;
        self.next = d.saturating_mul(self.factor).min(self.cap);
        d
    }

    /// The interval the next [`ExpBackoff::next_delay`] call will return,
    /// without advancing.
    pub fn peek(&self) -> Duration {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_backoff_doubles_and_caps() {
        let mut e = ExpBackoff::new(Duration::from_millis(10), 2, Duration::from_millis(35));
        assert_eq!(e.next_delay(), Duration::from_millis(10));
        assert_eq!(e.next_delay(), Duration::from_millis(20));
        assert_eq!(e.peek(), Duration::from_millis(35));
        assert_eq!(e.next_delay(), Duration::from_millis(35)); // capped
        assert_eq!(e.next_delay(), Duration::from_millis(35)); // stays capped
    }

    #[test]
    fn exp_backoff_degenerate_factors_are_constant() {
        for factor in [0, 1] {
            let mut e = ExpBackoff::new(Duration::from_millis(5), factor, Duration::from_secs(1));
            assert_eq!(e.next_delay(), Duration::from_millis(5));
            assert_eq!(e.next_delay(), Duration::from_millis(5));
        }
        // base above cap clamps immediately.
        let mut e = ExpBackoff::new(Duration::from_secs(9), 2, Duration::from_secs(1));
        assert_eq!(e.next_delay(), Duration::from_secs(1));
    }
}
