//! Runtime configuration: backend selection and tunables.

use rofi_sim::FaultConfig;
use std::time::Duration;

/// Which Lamellae implementation backs a world (paper Sec. III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Distributed simulation: full (de)serialization, flag-based message
    /// queues, and the network cost model. The stand-in for ROFI/libfabric.
    Rofi,
    /// Same machinery over plain shared memory — no cost model. "The key
    /// difference is that instead of creating RDMA Memory Regions it simply
    /// allocates shared memory segments" (Sec. III-A.2).
    Shmem,
    /// Single-process, single-PE: no data transfer, no (de)serialization
    /// (Sec. III-A.3). Only valid for 1-PE worlds. Served by the same fabric
    /// Lamellae over a 1-PE fabric; the runtime runs every PE-local AM
    /// without serializing it.
    Smp,
}

/// Tunable parameters of a Lamellar world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of PEs ("controlled through the system's launcher" in the
    /// paper; here through [`crate::world::launch`]).
    pub num_pes: usize,
    /// Lamellae backend.
    pub backend: Backend,
    /// Worker threads per PE (the paper's best configuration used 4
    /// threads per PE).
    pub threads_per_pe: usize,
    /// Aggregation threshold in bytes: outgoing AMs destined to the same PE
    /// are batched until their combined size reaches this, then pushed to
    /// the wire. Paper: "the runtime performs aggregation for message sizes
    /// smaller than 100K (this threshold is configurable; 100KB is the
    /// default)".
    pub agg_threshold: usize,
    /// Size of each wire buffer in the double-buffered per-PE-pair message
    /// queues. Must be at least `agg_threshold` plus framing slack.
    pub buffer_size: usize,
    /// Symmetric region bytes per PE (runtime queues + collective user
    /// allocations such as arrays).
    pub sym_len: usize,
    /// One-sided dynamic heap bytes per PE.
    pub heap_len: usize,
    /// Enable the runtime-wide observability layer: lock-free counters and
    /// histograms in every layer (fabric, lamellae, executor, AM), read
    /// back through [`crate::world::LamellarWorld::stats`]. When false the
    /// registries still exist but every record is a single predictable
    /// branch — effectively free.
    pub metrics: bool,
    /// Fault-injection plane (DESIGN.md §4b): a seeded, deterministic
    /// injector that drops/duplicates/delays/truncates/bit-flips wire
    /// chunks and fails allocations. Its presence switches the transport
    /// into reliable-delivery mode (sequence numbers, acks, retransmits).
    /// `None` (the default) runs the loss-free fast path with zero
    /// overhead. The plane is armed only after world bootstrap, so runtime
    /// construction itself is never faulted. The reliable layer's
    /// retransmit timeout is set on the plane's config
    /// ([`FaultConfig::retransmit_timeout`]).
    pub fault: Option<FaultConfig>,
    /// Default per-attempt response deadline applied to every *remote* AM
    /// launched through `exec_am_pe` (per-call
    /// [`AmOpts`](crate::am::AmOpts) overrides it). `None` (the default)
    /// means requests wait indefinitely for their reply. Local AMs are
    /// never timed out: a deadline guards against lost replies and silent
    /// peers, not slow local code.
    pub am_deadline: Option<Duration>,
    /// Liveness watchdog (off by default): a per-PE thread that flags
    /// zero-progress intervals while this PE is blocked in
    /// `wait_all`/`barrier`, dumps a one-shot diagnostic (in-flight AM
    /// count, per-pair unacked sequence windows, executor queue depths),
    /// and — in [`WatchdogConfig::fail`] mode — resolves the stalled
    /// in-flight AMs to `Err(AmError::Stalled)` so the wait terminates.
    pub watchdog: Option<WatchdogConfig>,
}

/// Configuration of the per-PE liveness watchdog (DESIGN.md §4c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Zero-progress window: the watchdog declares a stall once this PE has
    /// been blocked in `wait_all`/`barrier` for `interval` with in-flight
    /// work and no runtime progress (no message handled, no task retired).
    pub interval: Duration,
    /// `true`: on a stall verdict, fail every pending remote AM with
    /// `AmError::Stalled` so the wait terminates (observable through
    /// fallible handles and `try_wait_all`). `false`: dump diagnostics and
    /// keep waiting (warn-only).
    pub fail: bool,
}

impl WatchdogConfig {
    /// Warn-only watchdog: dump diagnostics on stall, never fail the wait.
    pub fn warn(interval: Duration) -> Self {
        WatchdogConfig { interval, fail: false }
    }

    /// Failing watchdog: dump diagnostics, then resolve stalled in-flight
    /// AMs to `Err(AmError::Stalled)` so waits terminate.
    pub fn fail(interval: Duration) -> Self {
        WatchdogConfig { interval, fail: true }
    }
}

/// A [`WorldConfig`] rejected at build time (see [`WorldConfig::validate`]).
///
/// Duration knobs get typed validation instead of silent misbehavior: a
/// zero retransmit timeout would spin the go-back-N timer, a zero deadline
/// would fail every AM before its first reply could arrive, and an absurdly
/// large value means the mechanism effectively never fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A duration knob was set to zero.
    ZeroDuration {
        /// The offending `WorldConfig` field.
        field: &'static str,
    },
    /// A duration knob was short enough to busy-spin the mechanism it
    /// paces.
    TooShort {
        /// The offending `WorldConfig` field.
        field: &'static str,
        /// The rejected value.
        value: Duration,
        /// The smallest accepted value.
        min: Duration,
    },
    /// A duration knob was so large the mechanism would effectively never
    /// fire.
    TooLong {
        /// The offending `WorldConfig` field.
        field: &'static str,
        /// The rejected value.
        value: Duration,
        /// The largest accepted value.
        max: Duration,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDuration { field } => {
                write!(f, "WorldConfig::{field} must be positive (zero would never fire)")
            }
            ConfigError::TooShort { field, value, min } => {
                write!(
                    f,
                    "WorldConfig::{field} of {value:?} is below the {min:?} minimum \
                     (it would busy-spin)"
                )
            }
            ConfigError::TooLong { field, value, max } => {
                write!(
                    f,
                    "WorldConfig::{field} of {value:?} exceeds the {max:?} maximum \
                     (it would effectively never fire)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The paper's default aggregation threshold (100 KiB).
pub const DEFAULT_AGG_THRESHOLD: usize = 100 * 1024;

impl WorldConfig {
    /// Defaults for `num_pes` PEs with the Rofi backend (Shmem if you want
    /// no cost model — but the model is off by default anyway). Environment
    /// overrides, mirroring the real runtime's env-driven builder:
    /// `LAMELLAR_THREADS` (worker threads per PE),
    /// `LAMELLAR_OP_BATCH` / `LAMELLAR_AGG_THRESHOLD` (bytes), and
    /// `LAMELLAR_METRICS` (`0` disables the observability counters).
    pub fn new(num_pes: usize) -> Self {
        let env = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok());
        let threads = env("LAMELLAR_THREADS").unwrap_or(2);
        let agg = env("LAMELLAR_AGG_THRESHOLD").unwrap_or(DEFAULT_AGG_THRESHOLD);
        let metrics = std::env::var("LAMELLAR_METRICS").map(|v| v != "0").unwrap_or(true);
        WorldConfig {
            num_pes,
            backend: if num_pes == 1 { Backend::Smp } else { Backend::Rofi },
            threads_per_pe: threads,
            agg_threshold: agg,
            buffer_size: agg * 2,
            sym_len: 0, // resolved by `resolve`
            heap_len: 32 << 20,
            metrics,
            fault: None,
            am_deadline: None,
            watchdog: None,
        }
    }

    /// Check every duration knob against its sane range, returning a typed
    /// [`ConfigError`] instead of silently building a world whose timers
    /// spin or never fire. Called by [`WorldConfig::resolve`]; use
    /// [`WorldConfig::try_resolve`] to handle rejection gracefully.
    pub fn validate(&self) -> Result<(), ConfigError> {
        const RETRANSMIT_MAX: Duration = Duration::from_secs(60);
        const DEADLINE_MAX: Duration = Duration::from_secs(3600);
        const WATCHDOG_MIN: Duration = Duration::from_millis(1);
        const WATCHDOG_MAX: Duration = Duration::from_secs(600);

        let knobs = [
            self.fault.as_ref().map(|f| {
                ("fault.retransmit_timeout", f.retransmit_timeout, Duration::ZERO, RETRANSMIT_MAX)
            }),
            self.am_deadline.map(|d| ("am_deadline", d, Duration::ZERO, DEADLINE_MAX)),
            self.watchdog.map(|w| ("watchdog.interval", w.interval, WATCHDOG_MIN, WATCHDOG_MAX)),
        ];
        knobs.into_iter().flatten().try_for_each(|(field, value, min, max)| {
            if value.is_zero() {
                Err(ConfigError::ZeroDuration { field })
            } else if value < min {
                Err(ConfigError::TooShort { field, value, min })
            } else if value > max {
                Err(ConfigError::TooLong { field, value, max })
            } else {
                Ok(())
            }
        })
    }

    /// [`WorldConfig::resolve`] that reports invalid duration knobs as a
    /// typed [`ConfigError`] instead of panicking.
    pub fn try_resolve(self) -> Result<Self, ConfigError> {
        self.validate()?;
        Ok(self.resolve())
    }

    /// Fill in derived defaults (symmetric size depends on PE count and
    /// buffer size: the internal queue footprint "scales in size with the
    /// number of PEs", Sec. III-A).
    pub fn resolve(mut self) -> Self {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        assert!(self.num_pes > 0, "world needs at least one PE");
        if self.backend == Backend::Smp {
            assert_eq!(self.num_pes, 1, "the SMP lamellae supports exactly one PE");
        }
        self.threads_per_pe = self.threads_per_pe.max(1);
        self.buffer_size = self.buffer_size.max(self.agg_threshold + 4096).max(16 * 1024);
        if self.sym_len == 0 {
            let queues = crate::lamellae::queue::queue_footprint(self.num_pes, self.buffer_size);
            // Queue footprint plus generous room for user collectives.
            self.sym_len = queues + (64 << 20);
        }
        self
    }

    /// Builder-style setters.
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Set worker threads per PE.
    pub fn threads_per_pe(mut self, t: usize) -> Self {
        self.threads_per_pe = t;
        self
    }

    /// Set the aggregation threshold (bytes).
    pub fn agg_threshold(mut self, t: usize) -> Self {
        self.agg_threshold = t;
        self
    }

    /// Set the symmetric region size per PE (bytes).
    pub fn sym_len(mut self, s: usize) -> Self {
        self.sym_len = s;
        self
    }

    /// Set the one-sided heap size per PE (bytes).
    pub fn heap_len(mut self, s: usize) -> Self {
        self.heap_len = s;
        self
    }

    /// Enable or disable the observability counters
    /// ([`crate::world::LamellarWorld::stats`]).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Attach a fault-injection plane (and thereby enable reliable
    /// delivery). Only meaningful on multi-PE worlds — loopback traffic is
    /// never faulted.
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        self.fault = Some(cfg);
        self
    }

    /// Set the world-default per-attempt AM response deadline (see the
    /// field doc; per-call [`AmOpts`](crate::am::AmOpts) overrides it).
    pub fn am_deadline(mut self, d: Duration) -> Self {
        self.am_deadline = Some(d);
        self
    }

    /// Enable the liveness watchdog (DESIGN.md §4c).
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_fills_sym_len() {
        let cfg = WorldConfig::new(4).resolve();
        assert!(cfg.sym_len > 0);
        assert!(cfg.buffer_size >= cfg.agg_threshold);
    }

    #[test]
    fn single_pe_defaults_to_smp() {
        assert_eq!(WorldConfig::new(1).backend, Backend::Smp);
        assert_eq!(WorldConfig::new(2).backend, Backend::Rofi);
    }

    #[test]
    #[should_panic(expected = "exactly one PE")]
    fn smp_with_multiple_pes_rejected() {
        let _ = WorldConfig::new(2).backend(Backend::Smp).resolve();
    }

    #[test]
    fn zero_retransmit_timeout_rejected() {
        let err = WorldConfig::new(2)
            .faults(FaultConfig::seeded(1).retransmit_timeout(Duration::ZERO))
            .try_resolve()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroDuration { field: "fault.retransmit_timeout" });
    }

    #[test]
    fn absurd_retransmit_timeout_rejected() {
        let err = WorldConfig::new(2)
            .faults(FaultConfig::seeded(1).retransmit_timeout(Duration::from_secs(3600)))
            .try_resolve()
            .unwrap_err();
        assert!(matches!(err, ConfigError::TooLong { field: "fault.retransmit_timeout", .. }));
    }

    #[test]
    fn zero_am_deadline_rejected() {
        let err = WorldConfig::new(2).am_deadline(Duration::ZERO).try_resolve().unwrap_err();
        assert_eq!(err, ConfigError::ZeroDuration { field: "am_deadline" });
        assert!(err.to_string().contains("am_deadline"));
    }

    #[test]
    fn absurd_am_deadline_rejected() {
        let err =
            WorldConfig::new(2).am_deadline(Duration::from_secs(7200)).try_resolve().unwrap_err();
        assert!(matches!(err, ConfigError::TooLong { field: "am_deadline", .. }));
    }

    #[test]
    fn watchdog_interval_bounds_enforced() {
        let err = WorldConfig::new(2)
            .watchdog(WatchdogConfig::warn(Duration::from_micros(10)))
            .try_resolve()
            .unwrap_err();
        assert!(matches!(err, ConfigError::TooShort { field: "watchdog.interval", .. }));

        let err = WorldConfig::new(2)
            .watchdog(WatchdogConfig::fail(Duration::from_secs(1000)))
            .try_resolve()
            .unwrap_err();
        assert!(matches!(err, ConfigError::TooLong { field: "watchdog.interval", .. }));

        let err = WorldConfig::new(2)
            .watchdog(WatchdogConfig::warn(Duration::ZERO))
            .try_resolve()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroDuration { field: "watchdog.interval" });
    }

    #[test]
    #[should_panic(expected = "am_deadline")]
    fn resolve_panics_on_invalid_deadline() {
        let _ = WorldConfig::new(2).am_deadline(Duration::ZERO).resolve();
    }

    #[test]
    fn valid_resilience_config_passes() {
        let cfg = WorldConfig::new(2)
            .am_deadline(Duration::from_millis(250))
            .watchdog(WatchdogConfig::fail(Duration::from_millis(100)))
            .try_resolve()
            .unwrap();
        assert_eq!(cfg.am_deadline, Some(Duration::from_millis(250)));
        assert!(cfg.watchdog.unwrap().fail);
    }
}
