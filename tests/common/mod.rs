//! Helpers shared by the integration tests.

use lamellar_repro::prelude::*;

/// This PE's `before` snapshot for a cross-PE stats delta: the snapshot,
/// then a barrier, and only then may any PE send the traffic the delta
/// measures. Without the barrier a peer's first message can be counted by
/// this PE's progress thread before this snapshot is taken, and the delta
/// misses it.
pub fn stats_before_traffic(world: &LamellarWorld) -> RuntimeStats {
    let before = world.stats();
    world.barrier();
    before
}
