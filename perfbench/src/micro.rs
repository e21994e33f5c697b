//! Single-layer microbenchmarks of the traced run, each timed by spans
//! around calls into one layer's public functions.

use crate::trace::Tracer;
use crate::workloads::BATCH;
use bale_suite::common::SplitMix64;
use lamellar_codec::Codec;
use lamellar_core::config::DEFAULT_AGG_THRESHOLD;
use lamellar_core::lamellae::queue::{queue_footprint, QueueTransport};
use lamellar_executor::{PoolConfig, ThreadPool};
use rofi_sim::fabric::{Fabric, FabricConfig, FabricPe};
use rofi_sim::NetConfig;
use std::hint::black_box;

/// Bytes pushed through the transport per measurement.
const SEND_BYTES: usize = 256 << 20;
/// Encode/decode passes over one `BATCH`-element vector.
const CODEC_PASSES: usize = 200;
/// Empty tasks spawned and joined.
const SPAWNS: usize = 20_000;
/// Chunk-sized puts into a peer's arena.
const PUTS: usize = 2_000;

/// Total duration of the spans named `name` recorded since span `mark`.
fn span_total_ns(tr: &Tracer, name: &str, mark: usize) -> f64 {
    tr.spans()[mark..].iter().filter(|s| s.name == name).map(|s| s.dur_ns()).sum::<u64>() as f64
}

fn fabric_pair(sym_len: usize) -> (FabricPe, FabricPe) {
    let mut eps = Fabric::launch(FabricConfig {
        num_pes: 2,
        sym_len,
        heap_len: 4096,
        net: NetConfig::disabled(),
        metrics: true,
        fault: None,
    });
    let ep1 = eps.pop().expect("two endpoints");
    let ep0 = eps.pop().expect("two endpoints");
    (ep0, ep1)
}

/// `QueueTransport` pair at the runtime's buffer geometry: `send_with` of
/// `framed_len`-byte frames on one side, `progress` on the other. Returns
/// (ns per send, ns per received chunk).
fn lamellae(tr: &mut Tracer, framed_len: usize) -> (f64, f64) {
    let buffer = 2 * DEFAULT_AGG_THRESHOLD;
    let footprint = queue_footprint(2, buffer);
    let (ep0, ep1) = fabric_pair(footprint + 4096);
    let base = ep0.fabric().alloc_symmetric(footprint, 64).expect("queue block fits");
    let q0 = QueueTransport::new(ep0, base, buffer, DEFAULT_AGG_THRESHOLD);
    let q1 = QueueTransport::new(ep1, base, buffer, DEFAULT_AGG_THRESHOLD);
    let frame = vec![0xA5u8; framed_len];
    // One burst fills about one aggregation buffer, then the receiver drains.
    let burst = (DEFAULT_AGG_THRESHOLD / framed_len).max(1);
    let msgs = (SEND_BYTES / framed_len).clamp(2_000, 200_000);
    let mut chunks = 0u64;
    let run = |tr: &mut Tracer, msgs: usize, chunks: &mut u64| {
        let mut sent = 0;
        while sent < msgs {
            let n = burst.min(msgs - sent);
            tr.span("lamellae.send", || {
                for _ in 0..n {
                    q0.send_with(1, framed_len, &mut |b| b.extend_from_slice(&frame));
                }
            });
            sent += n;
            loop {
                q0.flush();
                let got = tr.span("lamellae.progress", || q1.progress(&mut |_, _| *chunks += 1));
                if !got && q0.outgoing_empty() {
                    break;
                }
            }
        }
    };
    // Warm-up fills the buffer pools; only the second pass is traced.
    let mut warm = Tracer::new(std::time::Instant::now());
    run(&mut warm, msgs / 4 + 1, &mut 0);
    let mark = tr.spans().len();
    run(tr, msgs, &mut chunks);
    (
        span_total_ns(tr, "lamellae.send", mark) / msgs as f64,
        span_total_ns(tr, "lamellae.progress", mark) / chunks.max(1) as f64,
    )
}

/// Encode and decode one `BATCH`-element vector; ns per element each way.
fn codec<T: Codec>(tr: &mut Tracer, tag: &'static str, v: Vec<T>) -> (f64, f64) {
    tr.set_tag(tag);
    let mut buf = Vec::with_capacity(v.encoded_len());
    let mark = tr.spans().len();
    tr.span("codec.encode", || {
        for _ in 0..CODEC_PASSES {
            buf.clear();
            black_box(&v).encode(&mut buf);
            black_box(&buf);
        }
    });
    tr.span("codec.decode", || {
        for _ in 0..CODEC_PASSES {
            black_box(Vec::<T>::from_bytes(black_box(&buf)).expect("round trip decodes"));
        }
    });
    let per = (CODEC_PASSES * v.len()) as f64;
    (span_total_ns(tr, "codec.encode", mark) / per, span_total_ns(tr, "codec.decode", mark) / per)
}

/// Empty task through `ThreadPool::spawn` + `block_on` on a one-worker
/// pool; ns per task.
fn executor(tr: &mut Tracer) -> f64 {
    let pool = ThreadPool::new(PoolConfig {
        workers: 1,
        single_queue: false,
        thread_name: "perfbench-spawn".to_string(),
        metrics: true,
    });
    for _ in 0..SPAWNS / 10 {
        pool.block_on(pool.spawn(async {}));
    }
    let mark = tr.spans().len();
    tr.span("executor.spawn_join", || {
        for _ in 0..SPAWNS {
            pool.block_on(pool.spawn(async {}));
        }
    });
    span_total_ns(tr, "executor.spawn_join", mark) / SPAWNS as f64
}

/// Aggregation-threshold-sized `FabricPe::put` into the peer's arena; ns
/// per KiB.
fn fabric(tr: &mut Tracer) -> f64 {
    let len = DEFAULT_AGG_THRESHOLD;
    let (ep0, _ep1) = fabric_pair(len + 4096);
    let off = ep0.fabric().alloc_symmetric(len, 64).expect("put target fits");
    let src = vec![0x5Au8; len];
    let put = || {
        // SAFETY: this thread is the only one touching either arena.
        unsafe { ep0.put(1, off, black_box(&src)).expect("put in bounds") }
    };
    for _ in 0..PUTS / 10 {
        put();
    }
    let mark = tr.spans().len();
    tr.span("fabric.put", || {
        for _ in 0..PUTS {
            put();
        }
    });
    span_total_ns(tr, "fabric.put", mark) / (PUTS * len / 1024) as f64
}

/// Run every microbenchmark; `(metric name, value)` pairs.
pub fn run(tr: &mut Tracer, seed: u64, framed_len: usize) -> Vec<(&'static str, f64)> {
    tr.set_on(true);
    tr.set_tag("micro");
    let (send_ns, progress_ns) = lamellae(tr, framed_len);
    let mut rng = SplitMix64::new(seed, 0);
    let mut draw = || rng.below(BATCH);
    let (e32, d32) = codec(tr, "vec_u32", (0..BATCH).map(|_| draw() as u32).collect::<Vec<u32>>());
    let (esz, dsz) = codec(tr, "vec_usize", (0..BATCH).map(|_| draw()).collect::<Vec<usize>>());
    let (e64, d64) = codec(tr, "vec_u64", (0..BATCH).map(|_| draw() as u64).collect::<Vec<u64>>());
    tr.set_tag("micro");
    let spawn_ns = executor(tr);
    let put_ns = fabric(tr);
    tr.set_on(false);
    vec![
        ("lamellae.send_ns", send_ns),
        ("lamellae.progress_ns_per_chunk", progress_ns),
        ("codec.encode_ns_per_idx.vec_u32", e32),
        ("codec.decode_ns_per_idx.vec_u32", d32),
        ("codec.encode_ns_per_idx.vec_usize", esz),
        ("codec.decode_ns_per_idx.vec_usize", dsz),
        ("codec.encode_ns_per_idx.vec_u64", e64),
        ("codec.decode_ns_per_idx.vec_u64", d64),
        ("executor.spawn_join_ns", spawn_ns),
        ("fabric.put_ns_per_kib", put_ns),
    ]
}
