//! Merging the PEs' outputs into end-to-end and per-layer metrics.
//!
//! Count metrics whose unit starts with `exact-` repeat bit-for-bit across
//! runs of one seed; the others depend on idle-flush timing and drift.

use crate::trace::SpanTree;
use crate::workloads::{PeOutput, Variant, Workload};
use lamellar_metrics::RuntimeStats;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Human-readable provenance (sample count, denominator).
    pub note: String,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, note: String) -> Metric {
    Metric { name: name.into(), unit, value, note }
}

/// Counters summed over PEs; fabric counters are world-wide already, so
/// they are taken from PE 0 only.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    fabric_puts: u64,
    fabric_bytes: u64,
    envelopes: u64,
    wire_bytes: u64,
    chunks: u64,
    pool_hits: u64,
    pool_misses: u64,
    am_sent: u64,
    am_received: u64,
    unit_sent: u64,
    replies_sent: u64,
    acks_received: u64,
    sub_batches: u64,
    inline: u64,
    spilled: u64,
    spawned: u64,
}

impl Counts {
    fn add(&mut self, d: &RuntimeStats, with_fabric: bool) {
        if with_fabric {
            self.fabric_puts += d.fabric.puts;
            self.fabric_bytes += d.fabric.bytes_put;
        }
        self.envelopes += d.lamellae.msgs_sent;
        self.wire_bytes += d.lamellae.bytes_sent;
        self.chunks += d.lamellae.flushes;
        self.pool_hits += d.lamellae.pool_hits;
        self.pool_misses += d.lamellae.pool_misses;
        self.am_sent += d.am.sent;
        self.am_received += d.am.received;
        self.unit_sent += d.am.unit_sent;
        self.replies_sent += d.am.replies_sent;
        self.acks_received += d.am.acks_received;
        self.sub_batches += d.am.batch_sub_batches;
        self.inline += d.am.inline_execs;
        self.spilled += d.am.spilled_execs;
        self.spawned += d.executor.spawned;
    }

    fn sum<'a>(it: impl Iterator<Item = &'a Counts>) -> Counts {
        let mut total = Counts::default();
        for c in it {
            macro_rules! acc { ($($f:ident),*) => { $( total.$f += c.$f; )* } }
            acc!(
                fabric_puts,
                fabric_bytes,
                envelopes,
                wire_bytes,
                chunks,
                pool_hits,
                pool_misses,
                am_sent,
                am_received,
                unit_sent,
                replies_sent,
                acks_received,
                sub_batches,
                inline,
                spilled,
                spawned
            );
        }
        total
    }
}

/// One timed section, merged over PEs.
pub struct MergedRep {
    pub variant: Variant,
    pub traced: bool,
    /// Slowest PE's time.
    pub elapsed_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub errors: u64,
    counts: Counts,
    allocs: u64,
    latencies_us: Vec<f64>,
}

impl MergedRep {
    fn mups(&self) -> f64 {
        self.ops as f64 / self.elapsed_s / 1e6
    }
}

/// Merge rep `i` of every PE (all PEs run the same rep sequence).
pub fn merge(outs: &[PeOutput]) -> Vec<MergedRep> {
    let n = outs[0].reps.len();
    assert!(outs.iter().all(|o| o.reps.len() == n), "PEs ran different rep sequences");
    (0..n)
        .map(|i| {
            let mut m = MergedRep {
                variant: outs[0].reps[i].variant,
                traced: outs[0].reps[i].traced,
                elapsed_s: 0.0,
                ops: 0,
                failed: 0,
                errors: 0,
                counts: Counts::default(),
                allocs: 0,
                latencies_us: Vec::new(),
            };
            for (pe, o) in outs.iter().enumerate() {
                let r = &o.reps[i];
                m.elapsed_s = m.elapsed_s.max(r.elapsed.as_secs_f64());
                m.ops += r.ops;
                m.failed += r.failed;
                m.errors += r.errors;
                m.counts.add(&r.delta, pe == 0);
                m.allocs += r.allocs;
                m.latencies_us.extend_from_slice(&r.latencies_us);
            }
            m
        })
        .collect()
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`, or NaN when there is nothing to divide by; `per_layer`
/// reports a NaN as 0 and says so in the metric's note.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// The variant whose round-trip latencies give `rtt_p50_us`/`rtt_p99_us`.
fn latency_variant(w: Workload) -> Variant {
    if w == Workload::Rtt {
        Variant::Am
    } else {
        Variant::Probe
    }
}

/// End-to-end metrics; bulk throughput comes from untraced reps only.
pub fn end_to_end(w: Workload, reps: &[MergedRep], setups_s: &[f64]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, v) in [("am_mups", Variant::Am), ("array_mups", Variant::Array)] {
        let rates: Vec<f64> =
            reps.iter().filter(|r| r.variant == v && !r.traced).map(MergedRep::mups).collect();
        let what = if w == Workload::Rtt { "blocks" } else { "reps" };
        out.push(metric(name, "MUPS", median(&rates), format!("median of {} {what}", rates.len())));
    }
    let lat: Vec<f64> = reps
        .iter()
        .filter(|r| r.variant == latency_variant(w))
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let beyond = lat.len() / 100;
    out.push(metric(
        "rtt_p50_us",
        "us",
        percentile(&lat, 50.0),
        format!("{} round trips", lat.len()),
    ));
    out.push(metric(
        "rtt_p99_us",
        "us",
        percentile(&lat, 99.0),
        format!("{} round trips, {beyond} beyond p99", lat.len()),
    ));
    out.push(metric(
        "setup_s",
        "s",
        median(setups_s),
        format!("median of {} set-ups", setups_s.len()),
    ));
    out
}

/// Span totals of the traced reps, per variant tag.
#[derive(Default)]
struct SpanTotals {
    kernel_ns: f64,
    kernel_self_ns: f64,
    wait_all_ns: f64,
    block_on_ns: f64,
    issue_self_ns: f64,
    issues: f64,
    launch_self_ns: f64,
    kernels: usize,
}

/// Per-layer metrics of a traced run. `spans` holds each PE's recorder.
pub fn per_layer(
    reps: &[MergedRep],
    spans: &[(String, Vec<crate::trace::Span>)],
    micro: &[(&'static str, f64)],
) -> (Vec<Metric>, usize) {
    let mut out = Vec::new();
    let tags = [Variant::Am, Variant::Array];
    let mut totals: [SpanTotals; 2] = Default::default();
    let (mut block_on_us, mut barrier_us) = (Vec::new(), Vec::new());
    let mut misnested = 0;
    for (_, pe_spans) in spans {
        let tree = SpanTree::new(pe_spans);
        for (i, s) in pe_spans.iter().enumerate() {
            let slot = tags.iter().position(|v| v.tag() == s.tag);
            match s.name {
                "runtime.barrier" => barrier_us.push(s.dur_ns() as f64 / 1e3),
                "runtime.block_on" if s.tag == "am" || s.tag == "probe" => {
                    block_on_us.push(s.dur_ns() as f64 / 1e3)
                }
                _ => {}
            }
            let Some(slot) = slot else { continue };
            let t = &mut totals[slot];
            match s.name {
                "kernel" => {
                    t.kernels += 1;
                    t.kernel_ns += s.dur_ns() as f64;
                    t.kernel_self_ns += tree.self_ns(i) as f64;
                    misnested += tree.misnested_children(i);
                }
                "runtime.wait_all" => t.wait_all_ns += s.dur_ns() as f64,
                "runtime.block_on" => t.block_on_ns += s.dur_ns() as f64,
                "runtime.issue" => {
                    t.issue_self_ns += tree.self_ns(i) as f64;
                    t.issues += 1.0;
                }
                "array.launch" => t.launch_self_ns += tree.self_ns(i) as f64,
                _ => {}
            }
        }
    }

    // Per variant: summed counts, ops, and ops of the traced reps.
    let mut sums = Vec::new();
    for (slot, v) in tags.iter().enumerate() {
        let all: Vec<&MergedRep> = reps.iter().filter(|r| r.variant == *v).collect();
        let c = Counts::sum(all.iter().map(|r| &r.counts));
        let ops = all.iter().map(|r| r.ops).sum::<u64>() as f64;
        let kops = ops / 1e3;
        let traced_ops = all.iter().filter(|r| r.traced).map(|r| r.ops).sum::<u64>() as f64;
        let allocs = all.iter().filter(|r| r.traced).map(|r| r.allocs).sum::<u64>() as f64;
        let t = &totals[slot];
        let sfx = v.tag();
        let base = format!("{} reps, {ops} ops", all.len());
        let f = |x: u64| x as f64;
        out.extend([
            metric(
                format!("fabric.puts_per_kop.{sfx}"),
                "count/kop",
                ratio(f(c.fabric_puts), kops),
                base.clone(),
            ),
            metric(
                format!("fabric.bytes_per_op.{sfx}"),
                "B/op",
                ratio(f(c.fabric_bytes), ops),
                base.clone(),
            ),
            metric(
                format!("lamellae.envelopes_per_chunk.{sfx}"),
                "env/chunk",
                ratio(f(c.envelopes), f(c.chunks)),
                format!("{} envelopes / {} chunks", c.envelopes, c.chunks),
            ),
            metric(
                format!("lamellae.envelopes_per_kop.{sfx}"),
                "count/kop",
                ratio(f(c.envelopes), kops),
                base.clone(),
            ),
            metric(
                format!("lamellae.chunks_per_kop.{sfx}"),
                "count/kop",
                ratio(f(c.chunks), kops),
                base.clone(),
            ),
            metric(
                format!("lamellae.wire_bytes_per_op.{sfx}"),
                "B/op",
                ratio(f(c.wire_bytes), ops),
                base.clone(),
            ),
            metric(
                format!("lamellae.pool_hit_rate.{sfx}"),
                "frac",
                ratio(f(c.pool_hits), f(c.pool_hits + c.pool_misses)),
                format!("{} hits / {} misses", c.pool_hits, c.pool_misses),
            ),
            metric(
                format!("am.sent_per_kop.{sfx}"),
                "exact-count/kop",
                ratio(f(c.am_sent), kops),
                base.clone(),
            ),
            metric(
                format!("am.unit_sent_per_kop.{sfx}"),
                "exact-count/kop",
                ratio(f(c.unit_sent), kops),
                base.clone(),
            ),
            metric(
                format!("am.replies_sent_per_kop.{sfx}"),
                "exact-count/kop",
                ratio(f(c.replies_sent), kops),
                base.clone(),
            ),
            metric(
                format!("am.acks_received_per_kop.{sfx}"),
                "count/kop",
                ratio(f(c.acks_received), kops),
                base.clone(),
            ),
            metric(
                format!("runtime.inline_frac.{sfx}"),
                "exact-frac",
                ratio(f(c.inline), f(c.inline + c.spilled)),
                format!("{} inline / {} spilled", c.inline, c.spilled),
            ),
            metric(
                format!("runtime.replies_per_am.{sfx}"),
                "exact-ratio",
                ratio(f(c.replies_sent), f(c.am_sent)),
                format!("{} replies / {} AMs sent", c.replies_sent, c.am_sent),
            ),
            metric(
                format!("runtime.acks_per_am.{sfx}"),
                "ratio",
                ratio(f(c.acks_received), f(c.am_sent)),
                format!("{} acks / {} AMs sent", c.acks_received, c.am_sent),
            ),
            metric(
                format!("runtime.wait_all_frac.{sfx}"),
                "frac",
                ratio(t.wait_all_ns, t.kernel_ns),
                format!("{} traced kernels", t.kernels),
            ),
            metric(
                format!("executor.spawned_per_am.{sfx}"),
                "exact-ratio",
                ratio(f(c.spawned), f(c.am_received)),
                format!("{} spawned / {} AMs served", c.spawned, c.am_received),
            ),
            metric(
                format!("alloc.per_op.{sfx}"),
                "count/op",
                ratio(allocs, traced_ops),
                format!("{allocs} allocation events / {traced_ops} traced ops"),
            ),
            metric(
                format!("kernel.self_frac.{sfx}"),
                "frac",
                ratio(t.kernel_self_ns, t.kernel_ns),
                format!("{} traced kernels", t.kernels),
            ),
        ]);
        sums.push((c, ops, traced_ops));
    }

    let [am, arr] = &totals;
    let (arr_counts, arr_ops, arr_traced_ops) = sums[1];
    let arr_subs = arr_counts.sub_batches;
    let overhead = {
        let med = |v: Variant, traced: bool| {
            median(
                &reps
                    .iter()
                    .filter(|r| r.variant == v && r.traced == traced)
                    .map(|r| r.elapsed_s)
                    .collect::<Vec<_>>(),
            )
        };
        let traced = med(Variant::Am, true) + med(Variant::Array, true);
        let untraced = med(Variant::Am, false) + med(Variant::Array, false);
        traced / untraced - 1.0
    };
    out.extend([
        metric(
            "runtime.issue_ns_per_am",
            "ns",
            ratio(am.issue_self_ns, am.issues),
            format!("{} issue spans", am.issues),
        ),
        metric(
            "runtime.block_on_us",
            "us",
            median(&block_on_us),
            format!("p50 of {} spans", block_on_us.len()),
        ),
        metric(
            "runtime.barrier_us",
            "us",
            median(&barrier_us),
            format!("p50 of {} spans", barrier_us.len()),
        ),
        metric(
            "array.launch_ns_per_op",
            "ns",
            ratio(arr.launch_self_ns, arr_traced_ops),
            format!("{arr_traced_ops} traced ops"),
        ),
        metric(
            "array.await_ns_per_op",
            "ns",
            ratio(arr.block_on_ns + arr.wait_all_ns, arr_traced_ops),
            format!("{arr_traced_ops} traced ops"),
        ),
        metric(
            "array.sub_batches_per_kop",
            "exact-count/kop",
            ratio(arr_subs as f64, arr_ops / 1e3),
            format!("{arr_subs} sub-batches / {arr_ops} ops"),
        ),
        metric(
            "trace.overhead_frac",
            "frac",
            overhead,
            "median traced / untraced rep time - 1".to_string(),
        ),
    ]);
    for &(name, value) in micro {
        let unit = if name == "fabric.put_ns_per_kib" { "ns/KiB" } else { "ns" };
        out.push(metric(name, unit, value, "microbenchmark".to_string()));
    }
    // A 0/0 ratio or a median of no samples: the workload gives the metric
    // nothing to measure. The ledger needs a number, so it reads 0.
    for m in &mut out {
        if m.value.is_nan() {
            m.value = 0.0;
            m.note.push_str("; nothing to measure (0/0), reported as 0");
        }
    }
    (out, misnested)
}
