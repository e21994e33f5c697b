//! Runtime-wide observability for the Lamellar reproduction.
//!
//! The paper's evaluation (Figs. 2–5) is an exercise in attributing cycles
//! and bytes: inject-threshold dips, aggregation flushes, work stealing vs.
//! injection. This crate provides the typed counter/histogram layer that
//! every runtime tier threads through so those attributions come from the
//! runtime itself instead of hand instrumentation:
//!
//! * [`FabricMetrics`] — RDMA-level puts/gets, bytes, inject- vs.
//!   rendezvous-path splits, barrier rounds, and a put-size histogram;
//! * [`LamellaeMetrics`] — message counts, serialized bytes, aggregation
//!   buffer flushes, wire-queue park/retry pressure, buffer-pool reuse, and
//!   reliable-delivery recovery;
//! * [`ExecutorMetrics`] — tasks spawned/completed/stolen and per-worker
//!   run-queue high-water marks;
//! * [`AmMetrics`] — active messages by direction, batch-op sub-batches,
//!   darc lifecycle events, and task-resilience outcomes;
//! * [`FaultMetrics`] — what the fault-injection plane did to the traffic.
//!
//! Each layer is declared once, as a list of entries, by the `layer!`
//! macro below; the live registry, its snapshot struct, the single-field
//! recorders, `delta` and the `Display` rows all come from that list.
//!
//! Each live struct is a set of relaxed atomics guarded by an `enabled`
//! flag fixed at construction: when metrics are disabled every recording
//! call is a single predictable branch on an immutable bool, so the hot
//! paths stay effectively free. Snapshots ([`RuntimeStats`] and its layer
//! structs) are plain `Clone + PartialEq` data with saturating
//! [`RuntimeStats::delta`] and a `Display` table renderer for tests,
//! examples and the performance ledger.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two size buckets in a [`SizeHistogram`]:
/// `[0,1], (1,2], (2,4], ... (2^14, +inf)`.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A monotonically increasing, relaxed atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` events.
    #[inline]
    pub fn record(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing maximum gauge (e.g. queue-depth high-water).
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// Raise the gauge to `value` if it is higher.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket power-of-two histogram for sizes or latencies.
///
/// Bucket `i` counts values in `(2^(i-1), 2^i]` (bucket 0 is `[0,1]`); the
/// last bucket absorbs everything larger. Recording is one relaxed
/// `fetch_add` on a cache-resident array — no allocation, no locks.
#[derive(Debug, Default)]
pub struct SizeHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl SizeHistogram {
    /// Count one sample of `value`.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx =
            (64 - u64::leading_zeros(value.saturating_sub(1)) as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// Plain-data snapshot of a [`SizeHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Saturating per-bucket difference since `earlier`.
    pub fn delta(&self, earlier: &Self) -> Self {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for ((d, now), then) in buckets.iter_mut().zip(&self.buckets).zip(&earlier.buckets) {
            *d = now.saturating_sub(*then);
        }
        HistogramSnapshot { buckets }
    }

    /// Compact one-line rendering of the non-empty buckets, e.g.
    /// `≤64:12 ≤256:3 >16Ki:1`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            if i == HISTOGRAM_BUCKETS - 1 {
                out.push_str(&format!(">{}:{n}", fmt_pow2(1 << (i - 1))));
            } else {
                out.push_str(&format!("≤{}:{n}", fmt_pow2(1 << i)));
            }
        }
        if out.is_empty() {
            out.push('-');
        }
        out
    }
}

fn fmt_pow2(v: u64) -> String {
    if v >= 1 << 20 {
        format!("{}Mi", v >> 20)
    } else if v >= 1 << 10 {
        format!("{}Ki", v >> 10)
    } else {
        format!("{v}")
    }
}

/// Per-worker high-water gauges (one [`MaxGauge`] per pool worker).
type WorkerGauges = Vec<MaxGauge>;

/// Renders per-worker gauges as `9 4`, or `-` for a pool with no workers.
fn render_workers(values: &[u64]) -> String {
    let hwm: Vec<_> = values.iter().map(u64::to_string).collect();
    if hwm.is_empty() {
        "-".into()
    } else {
        hwm.join(" ")
    }
}

/// Declares one layer from a single list of entries:
///
/// ```text
/// /// docs
/// Live => Stats, new(params) => enabled_expr;
/// {
///     /// docs (shared by the live field, the snapshot field and the recorder)
///     field: Kind [= init_expr] [=> record_name([arg])],
/// }
/// ```
///
/// and emits the live struct (an `enabled` flag plus one cell per entry),
/// `new`, `enabled()`, `snapshot()`, one `#[inline]` recorder per named
/// entry (`record_x()` adds one, `record_x(arg)` records `arg`), and the
/// snapshot struct with `delta` and `rows`.
macro_rules! layer {
    (
        $(#[$meta:meta])*
        $live:ident => $stats:ident, new($($param:ident: $pty:ty),*) => $enabled:expr;
        {
            $(
                $(#[$doc:meta])*
                $field:ident: $kind:ident $(= $init:expr)? $(=> $rec:ident($($arg:ident)?))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        pub struct $live {
            enabled: bool,
            $($(#[$doc])* $field: $kind,)*
        }

        impl $live {
            /// Build the registry (all zero).
            pub fn new($($param: $pty),*) -> Self {
                $live { enabled: $enabled, $($field: layer!(@init $($init)?),)* }
            }

            /// Whether recording is on; fixed at construction.
            #[inline]
            pub fn enabled(&self) -> bool {
                self.enabled
            }

            $(layer!(@recorder [$(#[$doc])*] $field $($rec($($arg)?))?);)*

            /// Plain-data snapshot of every entry.
            pub fn snapshot(&self) -> $stats {
                $stats { $($field: layer!(@read $kind self.$field),)* }
            }
        }

        #[doc = concat!("Snapshot of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct $stats {
            $($(#[$doc])* pub $field: layer!(@value $kind),)*
        }

        impl $stats {
            /// Change since `earlier`: counters subtract (saturating),
            /// gauges carry the later value, histograms subtract per bucket.
            pub fn delta(&self, earlier: &Self) -> Self {
                $stats { $($field: layer!(@delta $kind self.$field, earlier.$field),)* }
            }

            /// `(field name, rendered value)` for every entry, in
            /// declaration order — the rows of the `Display` table.
            fn rows(&self) -> Vec<(&'static str, String)> {
                vec![$((stringify!($field), layer!(@render $kind self.$field)),)*]
            }
        }
    };
    (@init) => { Default::default() };
    (@init $init:expr) => { $init };
    (@value Counter) => { u64 };
    (@value MaxGauge) => { u64 };
    (@value SizeHistogram) => { HistogramSnapshot };
    (@value WorkerGauges) => { Vec<u64> };
    (@read SizeHistogram $cell:expr) => { $cell.snapshot() };
    (@read WorkerGauges $cell:expr) => { $cell.iter().map(MaxGauge::get).collect() };
    (@read $kind:ident $cell:expr) => { $cell.get() };
    (@delta Counter $now:expr, $then:expr) => { $now.saturating_sub($then) };
    (@delta SizeHistogram $now:expr, $then:expr) => { $now.delta(&$then) };
    // Gauges are not counters: a delta carries the later value through.
    (@delta MaxGauge $now:expr, $then:expr) => { $now };
    (@delta WorkerGauges $now:expr, $then:expr) => { $now.clone() };
    (@render SizeHistogram $value:expr) => { $value.render() };
    (@render WorkerGauges $value:expr) => { render_workers(&$value) };
    (@render $kind:ident $value:expr) => { $value.to_string() };
    (@recorder [$($doc:tt)*] $field:ident) => {};
    (@recorder [$($doc:tt)*] $field:ident $rec:ident()) => {
        $($doc)*
        #[inline]
        pub fn $rec(&self) {
            if self.enabled {
                self.$field.record(1);
            }
        }
    };
    (@recorder [$($doc:tt)*] $field:ident $rec:ident($arg:ident)) => {
        $($doc)*
        #[inline]
        pub fn $rec(&self, $arg: u64) {
            if self.enabled {
                self.$field.record($arg);
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Live per-layer metric registries (atomics, shared via Arc by the runtime)
// and their snapshot types.
// ---------------------------------------------------------------------------

layer! {
    /// Fabric-level (simulated RDMA) metrics; one instance per [fabric], shared
    /// by all endpoint handles.
    ///
    /// [fabric]: https://ofiwg.github.io/libfabric/
    FabricMetrics => FabricStats, new(enabled: bool) => enabled;
    {
        /// One-sided puts issued.
        puts: Counter,
        /// One-sided gets issued.
        gets: Counter,
        /// Bytes written by puts.
        bytes_put: Counter,
        /// Bytes read by gets.
        bytes_get: Counter,
        /// Puts that took the eager `fi_inject_write`-style path.
        inject_puts: Counter,
        /// Puts that took the rendezvous path.
        rendezvous_puts: Counter,
        /// Barrier entries (one per PE per world barrier).
        barrier_rounds: Counter => record_barrier_round(),
        /// Put sizes in power-of-two byte buckets.
        put_sizes: SizeHistogram,
    }
}

impl FabricMetrics {
    /// Record one put of `bytes`; `inject` tells whether it went down the
    /// eager `fi_inject_write`-style path or the rendezvous path.
    #[inline]
    pub fn record_put(&self, bytes: u64, inject: bool) {
        if !self.enabled {
            return;
        }
        self.puts.record(1);
        self.bytes_put.record(bytes);
        if inject {
            self.inject_puts.record(1);
        } else {
            self.rendezvous_puts.record(1);
        }
        self.put_sizes.record(bytes);
    }

    /// Record one get of `bytes`.
    #[inline]
    pub fn record_get(&self, bytes: u64) {
        if self.enabled {
            self.gets.record(1);
            self.bytes_get.record(bytes);
        }
    }
}

layer! {
    /// Lamellae-level (message transport) metrics; one instance per PE.
    LamellaeMetrics => LamellaeStats, new(enabled: bool) => enabled;
    {
        /// Framed messages handed to the transport.
        msgs_sent: Counter,
        /// Wire chunks delivered to the receive sink.
        msgs_received: Counter,
        /// Framed bytes handed to the transport.
        bytes_sent: Counter,
        /// Chunk bytes delivered to the receive sink.
        bytes_received: Counter,
        /// An aggregation buffer was sealed and handed to the wire.
        flushes: Counter => record_flush(),
        /// A sealed buffer could not go out (peer busy) and was parked.
        wire_parks: Counter => record_park(),
        /// A parked buffer was retried by the progress engine.
        wire_retries: Counter => record_retry(),
        /// Buffer-pool acquires served by a recycled buffer.
        pool_hits: Counter,
        /// Buffer-pool acquires that allocated fresh (pool empty).
        pool_misses: Counter,
        /// High-water mark of simultaneously checked-out pool buffers (gauge:
        /// `delta` carries the later value through unchanged; bounds the
        /// pool's steady-state footprint).
        pool_hwm: MaxGauge => record_pool_outstanding(outstanding),
        /// An unacknowledged wire chunk timed out and was sent again by the
        /// reliable-delivery layer.
        retransmits: Counter => record_retransmit(),
        /// An incoming chunk carried an already-delivered sequence number and
        /// was suppressed (duplicate delivery or spurious retransmit).
        dup_chunks_dropped: Counter => record_dup_chunk_dropped(),
        /// An incoming chunk arrived ahead of a gap (a predecessor was lost)
        /// and was discarded pending the go-back-N retransmit from the gap.
        reordered_chunks_dropped: Counter => record_reordered_chunk_dropped(),
        /// An incoming chunk failed header or checksum validation (corruption
        /// or truncation on the wire) and was discarded without delivery.
        corrupt_chunks_dropped: Counter => record_corrupt_chunk_dropped(),
        /// Retries toward a destination were exhausted; the pair was declared
        /// unreachable and its queued traffic discarded.
        delivery_failures: Counter => record_delivery_failure(),
    }
}

impl LamellaeMetrics {
    /// Record one framed message of `bytes` handed to the transport.
    #[inline]
    pub fn record_send(&self, bytes: u64) {
        if self.enabled {
            self.msgs_sent.record(1);
            self.bytes_sent.record(bytes);
        }
    }

    /// Record one wire chunk of `bytes` delivered to the receive sink.
    #[inline]
    pub fn record_recv(&self, bytes: u64) {
        if self.enabled {
            self.msgs_received.record(1);
            self.bytes_received.record(bytes);
        }
    }

    /// A buffer request was served from the pool (`hit`) or had to allocate
    /// fresh (`miss`). The hit ratio is the "zero allocations per envelope"
    /// acceptance signal for the aggregated message path.
    #[inline]
    pub fn record_pool_acquire(&self, hit: bool) {
        if self.enabled {
            if hit {
                self.pool_hits.record(1);
            } else {
                self.pool_misses.record(1);
            }
        }
    }
}

impl LamellaeStats {
    /// Fraction of pool acquires served without allocating, in `[0, 1]`;
    /// `None` before the first acquire.
    pub fn pool_hit_rate(&self) -> Option<f64> {
        let total = self.pool_hits + self.pool_misses;
        (total > 0).then(|| self.pool_hits as f64 / total as f64)
    }
}

layer! {
    /// Fault-injection metrics; one instance per fault plane (fabric-global).
    ///
    /// These count what the injector *did* to the traffic, while the matching
    /// [`LamellaeMetrics`] counters count how the reliable-delivery layer
    /// *recovered* — e.g. `drops_injected` on this side vs. `retransmits` on
    /// the transport side. They count whatever the metrics switch says: an
    /// armed plane always reports what it injected.
    FaultMetrics => FaultStats, new() => true;
    {
        /// A chunk transmission was suppressed entirely by the injector.
        drops_injected: Counter => record_drop(),
        /// A chunk was delivered twice by the injector.
        dups_injected: Counter => record_dup(),
        /// A chunk was held back before delivery by the injector.
        delays_injected: Counter => record_delay(),
        /// A chunk was delivered with bytes cut off the end.
        truncations_injected: Counter => record_truncation(),
        /// A chunk was delivered with a bit flipped.
        corruptions_injected: Counter => record_corruption(),
        /// A heap or symmetric allocation was failed artificially.
        alloc_failures_injected: Counter => record_alloc_failure(),
    }
}

impl Default for FaultMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultStats {
    /// Total faults injected across every category.
    pub fn total(&self) -> u64 {
        self.drops_injected
            + self.dups_injected
            + self.delays_injected
            + self.truncations_injected
            + self.corruptions_injected
            + self.alloc_failures_injected
    }
}

layer! {
    /// Executor-level metrics; one instance per PE's thread pool.
    ExecutorMetrics => ExecutorStats, new(enabled: bool, workers: usize) => enabled;
    {
        /// Tasks spawned onto the pool.
        spawned: Counter => record_spawn(),
        /// Tasks that ran to completion (on a worker or a helping thread).
        completed: Counter => record_complete(),
        /// Tasks a worker took from a sibling worker's deque.
        stolen: Counter => record_steal(),
        /// Per-worker run-queue depth high-water marks. Gauges, not counters:
        /// `delta` carries the later value through unchanged.
        queue_depth_hwm: WorkerGauges = (0..workers).map(|_| MaxGauge::default()).collect(),
    }
}

impl ExecutorMetrics {
    /// Record `depth` pending tasks observed on `worker`'s local queue.
    #[inline]
    pub fn record_queue_depth(&self, worker: usize, depth: u64) {
        if self.enabled {
            if let Some(g) = self.queue_depth_hwm.get(worker) {
                g.record(depth);
            }
        }
    }
}

layer! {
    /// AM/array-layer metrics; one instance per PE's runtime.
    AmMetrics => AmStats, new(enabled: bool) => enabled;
    {
        /// An AM was serialized and sent to a remote PE.
        sent: Counter => record_sent(),
        /// An inbound AM was dispatched for execution on this PE.
        received: Counter => record_received(),
        /// An AM targeted this PE and ran without serialization.
        local: Counter => record_local(),
        /// A reply envelope was sent back to an AM's origin.
        replies_sent: Counter => record_reply_sent(),
        /// A reply envelope arrived for one of this PE's pending AMs.
        replies_received: Counter => record_reply_received(),
        /// Per-PE sub-batches that batched array ops fanned out into.
        batch_sub_batches: Counter => record_sub_batches(n),
        /// Darcs constructed on this PE.
        darcs_created: Counter => record_darc_created(),
        /// Darcs whose last handle on this PE was dropped.
        darcs_dropped: Counter => record_darc_dropped(),
        /// An AM handler's `exec` panicked and was caught on this (serving)
        /// PE; the caller was sent an error reply instead.
        panics_caught: Counter => record_panic_caught(),
        /// A pending AM was resolved to `Err(Timeout)` after its deadline
        /// (and any retries) expired.
        timeouts: Counter => record_timeout(),
        /// An idempotent AM was re-issued after a deadline-window expiry.
        retries: Counter => record_retry(),
        /// A pending AM was cancelled by its caller before completion.
        cancelled: Counter => record_cancelled(),
        /// The liveness watchdog declared a zero-progress stall verdict.
        stalls: Counter => record_stall(),
        /// A unit-output AM took the fire-and-forget wire path (reply elided;
        /// completion via counted acks).
        unit_sent: Counter => record_unit_sent(),
        /// A cumulative `AckCount` envelope arrived from a serving PE.
        acks_received: Counter => record_ack_received(),
        /// An inbound AM completed inline on the progress path (one poll, no
        /// pool spawn).
        inline_execs: Counter => record_inline_exec(),
        /// An inbound AM returned `Pending` (or the inline budget was spent)
        /// and spilled to the thread pool.
        spilled_execs: Counter => record_spilled_exec(),
    }
}

/// The layered, typed stats snapshot returned by `LamellarWorld::stats()`.
///
/// All counters are cumulative since world construction. Use
/// [`delta`](Self::delta) to isolate a phase:
///
/// ```
/// use lamellar_metrics::RuntimeStats;
/// let before = RuntimeStats::default();
/// let after = RuntimeStats::default();
/// let phase = after.delta(&before);
/// println!("{phase}");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeStats {
    pub fabric: FabricStats,
    pub lamellae: LamellaeStats,
    pub executor: ExecutorStats,
    pub am: AmStats,
    /// Fault-injection activity; all-zero when the FaultPlane is disabled.
    pub fault: FaultStats,
}

impl RuntimeStats {
    /// Counters accumulated since `earlier` (fieldwise saturating
    /// subtraction; gauges carry the later value).
    pub fn delta(&self, earlier: &Self) -> Self {
        RuntimeStats {
            fabric: self.fabric.delta(&earlier.fabric),
            lamellae: self.lamellae.delta(&earlier.lamellae),
            executor: self.executor.delta(&earlier.executor),
            am: self.am.delta(&earlier.am),
            fault: self.fault.delta(&earlier.fault),
        }
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "layer     metric                   value")?;
        writeln!(f, "--------- ------------------------ ------------")?;
        let layers = [
            ("fabric", self.fabric.rows()),
            ("lamellae", self.lamellae.rows()),
            ("executor", self.executor.rows()),
            ("am", self.am.rows()),
            ("fault", self.fault.rows()),
        ];
        for (layer, rows) in layers {
            for (metric, value) in rows {
                writeln!(f, "{layer:<9} {metric:<24} {value}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_are_monotonic_under_concurrency() {
        let m = Arc::new(FabricMetrics::new(true));
        let mut last = 0;
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        m.record_put(i % 128, i % 3 == 0);
                    }
                })
            })
            .collect();
        // Concurrent reads must never observe a decrease.
        for _ in 0..100 {
            let now = m.snapshot().puts;
            assert!(now >= last, "counter went backwards: {now} < {last}");
            last = now;
        }
        for t in threads {
            t.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.puts, 4000);
        assert_eq!(s.inject_puts + s.rendezvous_puts, s.puts);
        assert_eq!(s.put_sizes.count(), 4000);
    }

    /// Every gated recorder of the four switchable registries, once each
    /// (`record_put` and `record_pool_acquire` once per branch).
    fn record_everything(
        f: &FabricMetrics,
        l: &LamellaeMetrics,
        e: &ExecutorMetrics,
        a: &AmMetrics,
    ) {
        f.record_put(100, true);
        f.record_put(1 << 12, false);
        f.record_get(100);
        f.record_barrier_round();

        l.record_send(64);
        l.record_recv(64);
        l.record_flush();
        l.record_park();
        l.record_retry();
        l.record_pool_acquire(true);
        l.record_pool_acquire(false);
        l.record_pool_outstanding(3);
        l.record_retransmit();
        l.record_dup_chunk_dropped();
        l.record_reordered_chunk_dropped();
        l.record_corrupt_chunk_dropped();
        l.record_delivery_failure();

        e.record_spawn();
        e.record_complete();
        e.record_steal();
        e.record_queue_depth(0, 9);
        e.record_queue_depth(1, 4);

        a.record_sent();
        a.record_received();
        a.record_local();
        a.record_reply_sent();
        a.record_reply_received();
        a.record_sub_batches(5);
        a.record_darc_created();
        a.record_darc_dropped();
        a.record_panic_caught();
        a.record_timeout();
        a.record_retry();
        a.record_cancelled();
        a.record_stall();
        a.record_unit_sent();
        a.record_ack_received();
        a.record_inline_exec();
        a.record_spilled_exec();
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let (f, l, e, a) = (
            FabricMetrics::new(false),
            LamellaeMetrics::new(false),
            ExecutorMetrics::new(false, 2),
            AmMetrics::new(false),
        );
        record_everything(&f, &l, &e, &a);
        assert_eq!(f.snapshot(), FabricStats::default());
        assert_eq!(l.snapshot(), LamellaeStats::default());
        assert_eq!(
            e.snapshot(),
            ExecutorStats { queue_depth_hwm: vec![0, 0], ..Default::default() }
        );
        assert_eq!(a.snapshot(), AmStats::default());
    }

    #[test]
    fn every_recorder_reaches_its_field_and_its_display_row() {
        let (f, l, e, a) = (
            FabricMetrics::new(true),
            LamellaeMetrics::new(true),
            ExecutorMetrics::new(true, 2),
            AmMetrics::new(true),
        );
        let fault = FaultMetrics::new();
        record_everything(&f, &l, &e, &a);
        fault.record_drop();
        fault.record_dup();
        fault.record_delay();
        fault.record_truncation();
        fault.record_corruption();
        fault.record_alloc_failure();
        let s = RuntimeStats {
            fabric: f.snapshot(),
            lamellae: l.snapshot(),
            executor: e.snapshot(),
            am: a.snapshot(),
            fault: fault.snapshot(),
        };
        assert_eq!(s.delta(&RuntimeStats::default()), s);

        // Field names come from exhaustive destructuring (a missing or
        // renamed field fails to compile), not from the generated rows.
        macro_rules! fields {
            ($ty:ident { $($f:ident),* $(,)? }) => {{
                let $ty { $($f: _),* } = $ty::default();
                [$(stringify!($f)),*]
            }};
        }
        let layers: [(&str, &[&str]); 5] = [
            (
                "fabric",
                &fields!(FabricStats {
                    puts,
                    gets,
                    bytes_put,
                    bytes_get,
                    inject_puts,
                    rendezvous_puts,
                    barrier_rounds,
                    put_sizes,
                }),
            ),
            (
                "lamellae",
                &fields!(LamellaeStats {
                    msgs_sent,
                    msgs_received,
                    bytes_sent,
                    bytes_received,
                    flushes,
                    wire_parks,
                    wire_retries,
                    pool_hits,
                    pool_misses,
                    pool_hwm,
                    retransmits,
                    dup_chunks_dropped,
                    reordered_chunks_dropped,
                    corrupt_chunks_dropped,
                    delivery_failures,
                }),
            ),
            ("executor", &fields!(ExecutorStats { spawned, completed, stolen, queue_depth_hwm })),
            (
                "am",
                &fields!(AmStats {
                    sent,
                    received,
                    local,
                    replies_sent,
                    replies_received,
                    batch_sub_batches,
                    darcs_created,
                    darcs_dropped,
                    panics_caught,
                    timeouts,
                    retries,
                    cancelled,
                    stalls,
                    unit_sent,
                    acks_received,
                    inline_execs,
                    spilled_execs,
                }),
            ),
            (
                "fault",
                &fields!(FaultStats {
                    drops_injected,
                    dups_injected,
                    delays_injected,
                    truncations_injected,
                    corruptions_injected,
                    alloc_failures_injected,
                }),
            ),
        ];
        let table = s.to_string();
        for (layer, names) in layers {
            for name in names {
                let row = table
                    .lines()
                    .find(|row| row.split_whitespace().take(2).eq([layer, name]))
                    .unwrap_or_else(|| panic!("no {layer} {name} row in:\n{table}"));
                // Each recorder landed somewhere: no row reads zero or empty.
                let value = row.split_whitespace().nth(2).unwrap();
                assert!(value != "0" && value != "-", "{layer} {name} not recorded: {row}");
            }
        }
        assert_eq!(table.lines().count(), 2 + 50, "one row per field:\n{table}");
    }

    #[test]
    fn delta_isolates_a_phase() {
        let fabric = FabricMetrics::new(true);
        let lamellae = LamellaeMetrics::new(true);
        let executor = ExecutorMetrics::new(true, 1);
        let am = AmMetrics::new(true);

        let fault = FaultMetrics::new();

        fabric.record_put(8, true);
        lamellae.record_send(100);
        fault.record_drop();
        let before = RuntimeStats {
            fabric: fabric.snapshot(),
            lamellae: lamellae.snapshot(),
            executor: executor.snapshot(),
            am: am.snapshot(),
            fault: fault.snapshot(),
        };

        fabric.record_put(1 << 12, false);
        fabric.record_get(32);
        lamellae.record_send(50);
        lamellae.record_flush();
        executor.record_spawn();
        executor.record_complete();
        executor.record_steal();
        executor.record_queue_depth(0, 7);
        am.record_sent();
        am.record_sub_batches(3);
        am.record_darc_created();
        am.record_panic_caught();
        am.record_timeout();
        am.record_retry();
        am.record_retry();
        am.record_cancelled();
        am.record_stall();
        am.record_unit_sent();
        am.record_unit_sent();
        am.record_ack_received();
        am.record_inline_exec();
        am.record_spilled_exec();
        fault.record_drop();
        fault.record_corruption();
        lamellae.record_retransmit();
        lamellae.record_corrupt_chunk_dropped();

        let after = RuntimeStats {
            fabric: fabric.snapshot(),
            lamellae: lamellae.snapshot(),
            executor: executor.snapshot(),
            am: am.snapshot(),
            fault: fault.snapshot(),
        };
        let d = after.delta(&before);
        assert_eq!(d.fabric.puts, 1);
        assert_eq!(d.fabric.rendezvous_puts, 1);
        assert_eq!(d.fabric.inject_puts, 0);
        assert_eq!(d.fabric.gets, 1);
        assert_eq!(d.fabric.bytes_put, 1 << 12);
        assert_eq!(d.fabric.put_sizes.count(), 1);
        assert_eq!(d.lamellae.msgs_sent, 1);
        assert_eq!(d.lamellae.bytes_sent, 50);
        assert_eq!(d.lamellae.flushes, 1);
        assert_eq!(d.executor.spawned, 1);
        assert_eq!(d.executor.completed, 1);
        assert_eq!(d.executor.stolen, 1);
        assert_eq!(d.executor.queue_depth_hwm, vec![7]);
        assert_eq!(d.am.sent, 1);
        assert_eq!(d.am.batch_sub_batches, 3);
        assert_eq!(d.am.darcs_created, 1);
        assert_eq!(d.am.panics_caught, 1);
        assert_eq!(d.am.timeouts, 1);
        assert_eq!(d.am.retries, 2);
        assert_eq!(d.am.cancelled, 1);
        assert_eq!(d.am.stalls, 1);
        assert_eq!(d.am.unit_sent, 2);
        assert_eq!(d.am.acks_received, 1);
        assert_eq!(d.am.inline_execs, 1);
        assert_eq!(d.am.spilled_execs, 1);
        assert_eq!(d.fault.drops_injected, 1);
        assert_eq!(d.fault.corruptions_injected, 1);
        assert_eq!(d.fault.total(), 2);
        assert_eq!(d.lamellae.retransmits, 1);
        assert_eq!(d.lamellae.corrupt_chunks_dropped, 1);
        // delta of equal snapshots is all-zero (except gauges).
        let same = after.delta(&after);
        assert_eq!(same.fabric, FabricStats::default());
        assert_eq!(same.am, AmStats::default());
        assert_eq!(same.fault, FaultStats::default());
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let h = SizeHistogram::default();
        h.record(0);
        h.record(1); // both land in bucket 0: [0,1]
        h.record(2); // bucket 1: (1,2]
        h.record(3); // bucket 2: (2,4]
        h.record(4); // bucket 2
        h.record(5); // bucket 3: (4,8]
        h.record(u64::MAX); // last bucket
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.count(), 7);
    }

    #[test]
    fn display_renders_every_layer() {
        let table = RuntimeStats::default().to_string();
        for layer in ["fabric", "lamellae", "executor", "am", "fault"] {
            assert!(table.contains(layer), "missing layer {layer} in:\n{table}");
        }
        assert!(table.contains("inject_puts"));
        assert!(table.contains("wire_parks"));
        assert!(table.contains("pool_hits"));
        assert!(table.contains("pool_hwm"));
        assert!(table.contains("queue_depth_hwm"));
        assert!(table.contains("batch_sub_batches"));
        assert!(table.contains("retransmits"));
        assert!(table.contains("drops_injected"));
        assert!(table.contains("unit_sent"));
        assert!(table.contains("acks_received"));
        assert!(table.contains("inline_execs"));
        assert!(table.contains("spilled_execs"));
    }

    #[test]
    fn pool_counters_and_hit_rate() {
        let l = LamellaeMetrics::new(true);
        assert_eq!(l.snapshot().pool_hit_rate(), None);
        l.record_pool_acquire(false);
        for _ in 0..19 {
            l.record_pool_acquire(true);
        }
        l.record_pool_outstanding(3);
        l.record_pool_outstanding(2);
        let s = l.snapshot();
        assert_eq!(s.pool_hits, 19);
        assert_eq!(s.pool_misses, 1);
        assert_eq!(s.pool_hwm, 3);
        assert!((s.pool_hit_rate().unwrap() - 0.95).abs() < 1e-9);
        // Gauge semantics: delta keeps the later high-water value.
        let d = s.delta(&s);
        assert_eq!(d.pool_hits, 0);
        assert_eq!(d.pool_hwm, 3);
    }

    #[test]
    fn max_gauge_keeps_maximum() {
        let g = MaxGauge::default();
        g.record(3);
        g.record(9);
        g.record(5);
        assert_eq!(g.get(), 9);
    }
}
