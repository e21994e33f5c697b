//! Deterministic fault injection for the simulated fabric.
//!
//! Real NICs drop, delay, reorder, and corrupt traffic; allocators run out
//! of registered memory under pressure. The [`FaultPlane`] lets tests and
//! benches subject the runtime to those failures *reproducibly*: every
//! fault decision is a pure function of `(seed, src, dst, seq, attempt)`,
//! so the same seed produces the same fault schedule for the same traffic
//! pattern regardless of thread interleaving — and retransmit attempt `n`
//! of a chunk always sees the same verdict, which is what lets a test
//! assert "this chunk is dropped twice, then delivered". Attempts *after*
//! a chunk's first delivering verdict are answered `Deliver` without a
//! counted draw (they can only be spurious timer fires or go-back-N window
//! resends — the simulated wire is lossless absent injection), so the
//! injected-fault counters themselves are seed-reproducible no matter how
//! the retransmit timer happens to fire.
//!
//! The plane sits below the reliable-delivery layer in the `QueueTransport`
//! lamellae (see DESIGN.md §4b): the transport asks
//! [`FaultPlane::chunk_action`] before each wire push and applies the
//! returned [`ChunkAction`] itself (the plane only decides and counts).
//! Allocation-failure injection hooks [`Fabric::alloc_heap`] and
//! [`Fabric::alloc_symmetric`] directly.
//!
//! Only *data-plane chunk deliveries* and *allocations* are faulted. The
//! control plane — ack words, barriers and one-sided RDMA gets — stays
//! reliable, mirroring how RDMA transports layer unreliable datagram
//! traffic over a reliable verbs substrate.
//!
//! [`Fabric::alloc_heap`]: crate::fabric::Fabric::alloc_heap
//! [`Fabric::alloc_symmetric`]: crate::fabric::Fabric::alloc_symmetric

use lamellar_metrics::{FaultMetrics, FaultStats};
use rand::{Rng, SeedableRng, SmallRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Default for [`FaultConfig::retransmit_timeout`]: how long a transmitted
/// chunk may sit unacknowledged before the sender retransmits everything
/// outstanding toward that destination. Generous relative to the
/// microsecond-scale ack path, so spurious retransmits — which would perturb
/// seeded-counter reproducibility — essentially never happen.
pub const RETRANSMIT_TIMEOUT: Duration = Duration::from_millis(1);

/// Per-direction fault probabilities, each in `[0, 1]`.
///
/// Probabilities are evaluated in a fixed priority order — drop, duplicate,
/// truncate, corrupt, delay — with a single draw each; the first hit wins,
/// so at most one fault applies per `(chunk, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a chunk transmission is suppressed entirely.
    pub drop: f64,
    /// Probability a chunk is delivered twice (same bytes, same sequence
    /// number — exercises receive-side duplicate suppression).
    pub duplicate: f64,
    /// Probability a chunk is signalled with a shortened length (trailing
    /// bytes cut — exercises header/checksum validation).
    pub truncate: f64,
    /// Probability one bit of the chunk payload is flipped in flight.
    pub corrupt: f64,
    /// Probability a chunk is held back [`FaultConfig::delay_ns`] before
    /// delivery.
    pub delay: f64,
}

impl FaultRates {
    /// All-zero rates: no chunk faults for this direction.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if every probability is zero.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.truncate == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
    }
}

/// Construction knobs for a [`FaultPlane`], mirroring the
/// [`NetConfig`](crate::netmodel::NetConfig) builder style.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic fault schedule. Equal seeds reproduce
    /// equal schedules for equal traffic.
    pub seed: u64,
    /// Default chunk-fault rates for every src→dst direction.
    pub rates: FaultRates,
    /// Nanoseconds a delayed chunk is held back before transmission.
    pub delay_ns: u64,
    /// Probability a heap or symmetric allocation fails artificially.
    pub alloc_fail: f64,
    /// Per-direction rate overrides `(src, dst, rates)`; the first match
    /// wins over [`rates`](Self::rates).
    pub pair_rates: Vec<(usize, usize, FaultRates)>,
    /// How long the oldest unacked chunk may wait before the transport's
    /// reliable-delivery layer fires a go-back-N round (default
    /// [`RETRANSMIT_TIMEOUT`]). Raise it when seeded-counter
    /// reproducibility must survive OS scheduling stalls: a stall longer
    /// than the timeout fires a spurious retransmit, which bumps attempt
    /// numbers and thus re-rolls fault verdicts.
    pub retransmit_timeout: Duration,
}

impl FaultConfig {
    /// A plane with the given seed and no faults armed; layer probabilities
    /// on with the builder methods.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            rates: FaultRates::none(),
            delay_ns: 200_000,
            alloc_fail: 0.0,
            pair_rates: Vec::new(),
            retransmit_timeout: RETRANSMIT_TIMEOUT,
        }
    }

    /// Set the default drop probability.
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.rates.drop = p;
        self
    }

    /// Set the default duplication probability.
    pub fn dup_prob(mut self, p: f64) -> Self {
        self.rates.duplicate = p;
        self
    }

    /// Set the default truncation probability.
    pub fn truncate_prob(mut self, p: f64) -> Self {
        self.rates.truncate = p;
        self
    }

    /// Set the default bit-flip probability.
    pub fn corrupt_prob(mut self, p: f64) -> Self {
        self.rates.corrupt = p;
        self
    }

    /// Set the default delay probability and the hold-back duration.
    pub fn delay_prob(mut self, p: f64, delay_ns: u64) -> Self {
        self.rates.delay = p;
        self.delay_ns = delay_ns;
        self
    }

    /// Set the artificial allocation-failure probability.
    pub fn alloc_fail_prob(mut self, p: f64) -> Self {
        self.alloc_fail = p;
        self
    }

    /// Override the rates for one src→dst direction.
    pub fn pair(mut self, src: usize, dst: usize, rates: FaultRates) -> Self {
        self.pair_rates.push((src, dst, rates));
        self
    }

    /// Set the reliable-delivery retransmit timeout (see the field doc for
    /// the latency/determinism trade-off).
    pub fn retransmit_timeout(mut self, timeout: Duration) -> Self {
        self.retransmit_timeout = timeout;
        self
    }

    /// Rates in effect for the `src → dst` direction.
    pub fn rates_for(&self, src: usize, dst: usize) -> FaultRates {
        self.pair_rates
            .iter()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, r)| *r)
            .unwrap_or(self.rates)
    }
}

/// The fault the transport must apply to one `(chunk, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkAction {
    /// No fault: transmit normally.
    Deliver,
    /// Do not transmit; the chunk silently vanishes.
    Drop,
    /// Transmit twice (back to back, same sequence number).
    Duplicate,
    /// Signal `new_len` instead of the true length (trailing bytes cut).
    Truncate {
        /// The shortened length to signal, `1 <= new_len < len`.
        new_len: usize,
    },
    /// Flip bit `bit` of byte `byte` before transmission.
    Corrupt {
        /// Index of the payload byte to damage.
        byte: usize,
        /// Bit position within that byte, `0..8`.
        bit: u8,
    },
    /// Hold the chunk back `ns` nanoseconds before transmitting.
    Delay {
        /// Hold-back duration in nanoseconds.
        ns: u64,
    },
}

/// splitmix64 finalizer: the avalanche stage that turns structured keys
/// (small integers) into uniformly distributed seeds.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Fold `v` into hash state `h` (golden-ratio increment + avalanche).
fn combine(h: u64, v: u64) -> u64 {
    mix64(h.wrapping_add(0x9e3779b97f4a7c15).wrapping_add(v))
}

/// True when the action transmits the chunk's true bytes (possibly twice,
/// possibly late): after such a verdict the chunk has reached the wire and
/// any further attempt is a spurious or window retransmit.
fn delivers(action: ChunkAction) -> bool {
    matches!(action, ChunkAction::Deliver | ChunkAction::Duplicate | ChunkAction::Delay { .. })
}

/// The pure verdict draw for one `(src, dst, seq, attempt)` key — no
/// counters, no armed check. Fixed evaluation order with a single draw per
/// category; the first hit wins, so the per-category counters recorded by
/// [`FaultPlane::chunk_action`] partition the faulted chunks.
fn decide(
    cfg: &FaultConfig,
    rates: FaultRates,
    src: usize,
    dst: usize,
    seq: u64,
    attempt: u32,
    len: usize,
) -> ChunkAction {
    let mut key = combine(cfg.seed, src as u64);
    key = combine(key, dst as u64);
    key = combine(key, seq);
    key = combine(key, attempt as u64);
    let mut rng = SmallRng::seed_from_u64(key);
    if rng.gen_bool(rates.drop) {
        return ChunkAction::Drop;
    }
    if rng.gen_bool(rates.duplicate) {
        return ChunkAction::Duplicate;
    }
    if len > 1 && rng.gen_bool(rates.truncate) {
        return ChunkAction::Truncate { new_len: rng.gen_range(1..len) };
    }
    if len > 0 && rng.gen_bool(rates.corrupt) {
        return ChunkAction::Corrupt {
            byte: rng.gen_range(0..len),
            bit: (rng.next_u64() % 8) as u8,
        };
    }
    if rng.gen_bool(rates.delay) {
        return ChunkAction::Delay { ns: cfg.delay_ns };
    }
    ChunkAction::Deliver
}

/// Deterministic, seeded fault injector shared by every PE on a [`Fabric`].
///
/// The plane starts **disarmed** so world bootstrap (queue-block symmetric
/// allocation, barrier setup) cannot be faulted into a panic; the world
/// builder calls [`arm`](Self::arm) once construction completes. While
/// disarmed, every query answers "no fault".
///
/// [`Fabric`]: crate::fabric::Fabric
#[derive(Debug)]
pub struct FaultPlane {
    cfg: FaultConfig,
    armed: AtomicBool,
    /// Per-slot draw counters for allocation-failure decisions: one slot
    /// per PE heap plus a final slot for the shared symmetric allocator.
    /// Keying draws by (slot, count) keeps them deterministic per
    /// allocator as long as each allocator's call order is.
    alloc_draws: Vec<AtomicU64>,
    metrics: FaultMetrics,
}

impl FaultPlane {
    /// Build a plane for a fabric of `num_pes` PEs.
    pub fn new(cfg: FaultConfig, num_pes: usize) -> Self {
        FaultPlane {
            cfg,
            armed: AtomicBool::new(false),
            alloc_draws: (0..=num_pes).map(|_| AtomicU64::new(0)).collect(),
            metrics: FaultMetrics::new(),
        }
    }

    /// The configuration this plane was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Start injecting. Called by the world builder after bootstrap; until
    /// then every query reports "no fault".
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Stop injecting (teardown paths that must not be faulted).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Whether the plane is currently injecting.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Decide the fault for transmission `attempt` of the chunk with
    /// sequence number `seq` on the `src → dst` direction, where the chunk
    /// is `len` bytes long.
    ///
    /// Pure in `(seed, src, dst, seq, attempt)` — the caller must query at
    /// most once per `(chunk, attempt)` and apply the returned action,
    /// because the matching fault counter is recorded here.
    ///
    /// Attempts *after* the chunk's first delivering verdict (deliver,
    /// duplicate, or delay — anything that puts the true bytes on the
    /// wire) answer [`ChunkAction::Deliver`] without a fresh counted draw.
    /// The simulated wire is lossless absent injection, so such attempts
    /// are by construction either timer-spurious retransmits or go-back-N
    /// window resends; exempting them keeps the injected-fault counters a
    /// pure function of the seed and the traffic pattern, independent of
    /// retransmit-timer scheduling (DESIGN.md §4b).
    pub fn chunk_action(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        len: usize,
    ) -> ChunkAction {
        if !self.is_armed() {
            return ChunkAction::Deliver;
        }
        let rates = self.cfg.rates_for(src, dst);
        if rates.is_none() {
            return ChunkAction::Deliver;
        }
        // Verdicts are pure, so "has an earlier attempt already delivered?"
        // needs no state: replay the (cheap, bounded-by-retry-cap) prefix.
        if (0..attempt).any(|a| delivers(decide(&self.cfg, rates, src, dst, seq, a, len))) {
            return ChunkAction::Deliver;
        }
        let action = decide(&self.cfg, rates, src, dst, seq, attempt, len);
        match action {
            ChunkAction::Drop => self.metrics.record_drop(),
            ChunkAction::Duplicate => self.metrics.record_dup(),
            ChunkAction::Truncate { .. } => self.metrics.record_truncation(),
            ChunkAction::Corrupt { .. } => self.metrics.record_corruption(),
            ChunkAction::Delay { .. } => self.metrics.record_delay(),
            ChunkAction::Deliver => {}
        }
        action
    }

    fn fail_alloc(&self, slot: usize) -> bool {
        if !self.is_armed() || self.cfg.alloc_fail <= 0.0 {
            return false;
        }
        let count = self.alloc_draws[slot].fetch_add(1, Ordering::Relaxed);
        let key = combine(combine(combine(self.cfg.seed, 0xa110c), slot as u64), count);
        let fail = SmallRng::seed_from_u64(key).gen_bool(self.cfg.alloc_fail);
        if fail {
            self.metrics.record_alloc_failure();
        }
        fail
    }

    /// Decide whether the next heap allocation on `pe` fails artificially.
    /// Deterministic per `(seed, pe, allocation order)`.
    pub fn fail_heap_alloc(&self, pe: usize) -> bool {
        self.fail_alloc(pe)
    }

    /// Decide whether the next symmetric allocation fails artificially.
    /// Deterministic per `(seed, allocation order)`.
    pub fn fail_symmetric_alloc(&self) -> bool {
        self.fail_alloc(self.alloc_draws.len() - 1)
    }

    /// The live fault counters (what the injector did to the traffic).
    pub fn metrics(&self) -> &FaultMetrics {
        &self.metrics
    }

    /// Typed snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_plane(cfg: FaultConfig) -> FaultPlane {
        let plane = FaultPlane::new(cfg, 2);
        plane.arm();
        plane
    }

    #[test]
    fn decisions_are_pure_functions_of_the_key() {
        let cfg = FaultConfig::seeded(7).drop_prob(0.3).corrupt_prob(0.3).dup_prob(0.3);
        let a = armed_plane(cfg.clone());
        let b = armed_plane(cfg);
        for seq in 0..200 {
            for attempt in 0..3 {
                assert_eq!(
                    a.chunk_action(0, 1, seq, attempt, 64),
                    b.chunk_action(0, 1, seq, attempt, 64),
                    "seq {seq} attempt {attempt} diverged"
                );
            }
        }
    }

    #[test]
    fn attempts_get_independent_verdicts() {
        // A chunk dropped on attempt 0 must not be doomed forever: with
        // p=0.5 some retransmit succeeds well within 64 attempts.
        let plane = armed_plane(FaultConfig::seeded(3).drop_prob(0.5));
        let mut delivered = false;
        for attempt in 0..64 {
            if plane.chunk_action(0, 1, 9, attempt, 32) == ChunkAction::Deliver {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "no attempt of seq 9 ever delivered");
    }

    #[test]
    fn attempts_after_delivery_are_uncounted_deliveries() {
        // Spurious retransmits (timer fires although the chunk already made
        // it out) must neither fault the resend nor perturb the counters:
        // the schedule a seed produces is independent of retransmit timing.
        let plane = armed_plane(FaultConfig::seeded(3).drop_prob(0.5));
        for seq in 0..100u64 {
            // Query attempts in transport order until the first delivery...
            let mut attempt = 0;
            while plane.chunk_action(0, 1, seq, attempt, 32) != ChunkAction::Deliver {
                attempt += 1;
                assert!(attempt < 64, "seq {seq} never delivered");
            }
            let after_delivery = plane.stats();
            // ...then simulate spurious extra rounds: always Deliver, and
            // the counters must not move.
            for extra in 1..4 {
                assert_eq!(
                    plane.chunk_action(0, 1, seq, attempt + extra, 32),
                    ChunkAction::Deliver
                );
            }
            assert_eq!(plane.stats(), after_delivery, "spurious rounds moved counters");
        }
        // A run that suffered spurious rounds ends with the same counters
        // as a clean run of the same seed and traffic.
        let clean = armed_plane(FaultConfig::seeded(3).drop_prob(0.5));
        for seq in 0..100u64 {
            let mut attempt = 0;
            while clean.chunk_action(0, 1, seq, attempt, 32) != ChunkAction::Deliver {
                attempt += 1;
            }
        }
        assert_eq!(plane.stats(), clean.stats());
        assert!(plane.stats().drops_injected > 0);
    }

    #[test]
    fn rates_track_probabilities() {
        let plane = armed_plane(FaultConfig::seeded(11).drop_prob(0.2));
        let drops = (0..10_000)
            .filter(|&s| plane.chunk_action(0, 1, s, 0, 64) == ChunkAction::Drop)
            .count();
        assert!((1_500..2_500).contains(&drops), "p=0.2 drop count {drops}");
        assert_eq!(plane.stats().drops_injected, drops as u64);
    }

    #[test]
    fn pair_overrides_win_over_defaults() {
        let cfg = FaultConfig::seeded(5).drop_prob(1.0).pair(0, 1, FaultRates::none());
        let plane = armed_plane(cfg);
        assert_eq!(plane.chunk_action(0, 1, 0, 0, 16), ChunkAction::Deliver);
        assert_eq!(plane.chunk_action(1, 0, 0, 0, 16), ChunkAction::Drop);
    }

    #[test]
    fn disarmed_plane_never_faults() {
        let plane = FaultPlane::new(FaultConfig::seeded(1).drop_prob(1.0).alloc_fail_prob(1.0), 2);
        assert_eq!(plane.chunk_action(0, 1, 0, 0, 16), ChunkAction::Deliver);
        assert!(!plane.fail_heap_alloc(0));
        assert!(!plane.fail_symmetric_alloc());
        assert_eq!(plane.stats(), FaultStats::default());
        plane.arm();
        assert_eq!(plane.chunk_action(0, 1, 0, 0, 16), ChunkAction::Drop);
        plane.disarm();
        assert_eq!(plane.chunk_action(0, 1, 1, 0, 16), ChunkAction::Deliver);
    }

    #[test]
    fn corrupt_and_truncate_stay_in_bounds() {
        let plane = armed_plane(FaultConfig::seeded(9).truncate_prob(0.5).corrupt_prob(0.5));
        for seq in 0..1_000 {
            match plane.chunk_action(0, 1, seq, 0, 48) {
                ChunkAction::Truncate { new_len } => assert!((1..48).contains(&new_len)),
                ChunkAction::Corrupt { byte, bit } => {
                    assert!(byte < 48);
                    assert!(bit < 8);
                }
                ChunkAction::Deliver => {}
                other => panic!("unexpected action {other:?}"),
            }
        }
        // Tiny chunks cannot be truncated below one byte.
        let tiny = armed_plane(FaultConfig::seeded(9).truncate_prob(1.0));
        assert_eq!(tiny.chunk_action(0, 1, 0, 0, 1), ChunkAction::Deliver);
    }

    #[test]
    fn alloc_failures_are_deterministic_per_order() {
        let cfg = FaultConfig::seeded(21).alloc_fail_prob(0.3);
        let a = armed_plane(cfg.clone());
        let b = armed_plane(cfg);
        let draws_a: Vec<bool> = (0..100).map(|_| a.fail_heap_alloc(0)).collect();
        let draws_b: Vec<bool> = (0..100).map(|_| b.fail_heap_alloc(0)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&f| f), "p=0.3 over 100 draws never failed");
        assert!(!draws_a.iter().all(|&f| f));
        assert_eq!(
            a.stats().alloc_failures_injected,
            draws_a.iter().filter(|&&f| f).count() as u64
        );
    }
}
