//! Ablation — reliable delivery under injected loss (DESIGN.md §4b).
//!
//! Measures what the go-back-N layer costs as the fault plane's drop rate
//! rises: a sender pushes framed Request envelopes through a real
//! `QueueTransport` pair in reliable mode while the injector drops a
//! configured fraction of chunks, and we report **goodput** (delivered
//! messages per second, after retransmits recover the losses) plus the
//! retransmit count the recovery cost.
//!
//! The `no-plane` row runs the same traffic with the fault plane absent
//! entirely (default wire format, no sequence headers); against it, the 0%
//! row isolates the reliable layer's own overhead — sequence header + ack
//! tracking with no faults to recover.
//!
//! Usage: `... --bin ablation_faultplane [--msgs 50000] [--payload 64]`

use lamellar_bench::{arg_usize, ResultTable};
use lamellar_core::lamellae::queue::{queue_footprint, QueueTransport};
use lamellar_core::proto::{self, Envelope};
use rofi_sim::fabric::{Fabric, FabricConfig};
use rofi_sim::{FaultConfig, FaultPlane, NetConfig};
use std::sync::Arc;
use std::time::Instant;

struct Harness {
    q0: QueueTransport,
    q1: QueueTransport,
    /// `None` for the no-plane baseline row (unreliable fast path).
    plane: Option<Arc<FaultPlane>>,
}

/// Build a 2-PE transport pair. `Some(drop)` installs a fault plane with
/// that drop probability (reliable mode engages automatically); `None`
/// omits the plane entirely — the default loss-free wire format, the
/// overhead baseline the reliable rows are compared against.
fn harness(drop: Option<f64>) -> Harness {
    let buf_size = 64 << 10;
    let mut eps = Fabric::launch(FabricConfig {
        num_pes: 2,
        sym_len: queue_footprint(2, buf_size) + 4096,
        heap_len: 4096,
        net: NetConfig::disabled(),
        metrics: true,
        fault: drop.map(|d| FaultConfig::seeded(0xab1a_7e5f).drop_prob(d)),
    });
    let base = eps[0].fabric().alloc_symmetric(queue_footprint(2, buf_size), 64).unwrap();
    let plane = eps[0].fabric().fault_plane().cloned();
    let ep1 = eps.pop().unwrap();
    let ep0 = eps.pop().unwrap();
    if let Some(p) = &plane {
        p.arm();
    }
    Harness {
        q0: QueueTransport::new(ep0, base, buf_size, 16 << 10),
        q1: QueueTransport::new(ep1, base, buf_size, 16 << 10),
        plane,
    }
}

/// Push `msgs` messages through the pair, pumping both ends until every
/// payload has been delivered, and return (goodput in msgs/sec,
/// retransmits, drops injected).
fn run(h: &Harness, msgs: usize, payload: &[u8]) -> (f64, u64, u64) {
    let mut delivered = 0usize;
    let t0 = Instant::now();
    for seq in 0..msgs {
        let env = Envelope::Request { am_id: 1, req_id: seq as u64, payload };
        h.q0.send_with(1, env.framed_len(payload.len()), &mut |buf| env.frame(buf))
            .expect("payload fits a wire chunk");
        if seq % 32 == 31 {
            h.q0.flush();
            h.q1.progress(&mut |_, chunk| delivered += proto::deframe(chunk).count());
        }
    }
    // Drain: retransmit timers only fire while the sender pumps, so keep
    // flushing until the window is empty and everything has landed.
    while delivered < msgs {
        h.q0.flush();
        h.q1.progress(&mut |_, chunk| delivered += proto::deframe(chunk).count());
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = h.q0.stats();
    let drops = h.plane.as_ref().map(|p| p.stats().drops_injected).unwrap_or(0);
    (msgs as f64 / secs, stats.retransmits, drops)
}

fn main() {
    let msgs = arg_usize("--msgs", 50_000);
    let payload_len = arg_usize("--payload", 64);
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();

    println!("Ablation: goodput vs. drop rate, {msgs} AMs of {payload_len} B payload");
    let mut table = ResultTable::new(
        "Reliable delivery under loss",
        "drop-rate-%",
        "goodput / recovery",
        &["msgs-per-sec", "retransmits", "drops-injected"],
    );

    // Baseline: no fault plane at all — the default wire format with no
    // sequence headers or ack tracking.
    let h = harness(None);
    let (goodput, _, _) = run(&h, msgs, &payload);
    table.push_row("no-plane", vec![Some(goodput), None, None]);

    for drop_pct in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0] {
        let h = harness(Some(drop_pct / 100.0));
        let (goodput, retransmits, drops) = run(&h, msgs, &payload);
        table.push_row(
            format!("{drop_pct}"),
            vec![Some(goodput), Some(retransmits as f64), Some(drops as f64)],
        );
    }

    print!("{}", table.render());
    let _ = table.write_csv("ablation_faultplane");
}
