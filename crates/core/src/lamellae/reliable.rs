//! Go-back-N reliable delivery as a pure state machine (DESIGN.md §4b).
//!
//! A [`ReliableLink`] is one PE's delivery state for one peer: the sender
//! half (sequence stamping, the unacked window, retry rounds, pair death)
//! and the receiver half (the next expected sequence number). It does no
//! I/O — no atomics, no fabric handle, no clock reads: callers pass `now`
//! in and carry out the returned actions. [`QueueTransport`] keeps one per
//! peer when the fabric carries a fault plane.
//!
//! ```text
//! on_seal   stamp seq + checksum header    on_recv  bad header → Corrupt
//! on_sent   chunk joins the unacked window          seq == next → Deliver, ack seq
//! on_ack    release chunks ≤ cumulative ack         seq <  next → Duplicate, re-ack
//! on_timer  front waited ≥ timeout → Resend         seq >  next → Gap, no ack
//!           the window, or Dead after MAX_RETRY_ROUNDS ack-free rounds
//! ```
//!
//! [`QueueTransport`]: crate::lamellae::queue::QueueTransport

use crate::lamellae::PairLiveness;
use crate::proto::{read_chunk_header, write_chunk_header};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Consecutive retransmit-timeout rounds with zero forward progress (no
/// new ack collected) before a destination is declared unreachable. Each
/// healthy round delivers at least the front chunk, so at a 5% injected
/// drop rate the odds of 20 straight dead rounds are ~1e-26 — exhaustion
/// means the pair is genuinely severed (e.g. drop probability 1.0).
pub(crate) const MAX_RETRY_ROUNDS: u32 = 20;

/// One sealed wire chunk: its bytes (sequence/checksum header first) and
/// which transmission attempt of sequence number `seq` they are.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// Header + framed envelopes (pool-backed in the transport).
    pub(crate) bytes: Vec<u8>,
    /// Per-destination sequence number stamped at seal (0 without a link).
    pub(crate) seq: u64,
    /// Transmission attempts before this one (bumped by go-back-N resends).
    pub(crate) attempt: u32,
}

/// What the sender must do after [`ReliableLink::on_timer`].
#[derive(Debug)]
pub(crate) enum Timer {
    /// Nothing is due.
    Wait,
    /// Transmit these chunks again, oldest first and ahead of anything
    /// queued; their attempt numbers are already bumped.
    Resend(Vec<Chunk>),
    /// Retries are exhausted and the pair is dead: release these chunks'
    /// buffers and discard everything still queued toward the peer.
    Dead(Vec<Chunk>),
}

/// What the receiver must do with one raw chunk ([`ReliableLink::on_recv`]).
#[derive(Debug)]
pub(crate) enum Recv<'a> {
    /// The next chunk in order: ack through `seq`, then deliver `payload`
    /// (the bytes after the header).
    Deliver { seq: u64, payload: &'a [u8] },
    /// Already delivered (a retransmit raced the ack): drop it, but re-ack
    /// through `ack` so the sender's window advances.
    Duplicate { ack: u64 },
    /// An earlier chunk is missing: drop this one without acking, since
    /// go-back-N resends everything from the gap.
    Gap,
    /// Truncated or corrupted in flight: drop it.
    Corrupt,
}

/// Go-back-N state for one peer (see the module docs).
#[derive(Debug)]
pub(crate) struct ReliableLink {
    /// How long the oldest unacked chunk may wait before a timer round.
    pub(super) timeout: Duration,
    /// Next sequence number to stamp; starts at 1 because an ack word of 0
    /// means "nothing acked".
    next_seq: u64,
    /// Transmitted chunks not yet covered by the peer's cumulative ack, in
    /// sequence order, each with the time it hit the wire.
    window: VecDeque<(Chunk, Instant)>,
    /// Consecutive timer rounds without a new ack; fatal at
    /// [`MAX_RETRY_ROUNDS`].
    stalled_rounds: u32,
    dead: bool,
    /// Next sequence number expected from the peer.
    recv_next: u64,
}

impl ReliableLink {
    /// A fresh link whose oldest unacked chunk may wait `timeout` before a
    /// go-back-N round fires.
    pub(crate) fn new(timeout: Duration) -> Self {
        ReliableLink {
            timeout,
            next_seq: 1,
            window: VecDeque::new(),
            stalled_rounds: 0,
            dead: false,
            recv_next: 1,
        }
    }

    /// Retries toward the peer are exhausted; nothing more may be sealed.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// No transmitted chunk is waiting for an ack.
    pub(crate) fn window_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Stamp the next sequence number and the checksum into the header
    /// bytes reserved at the front of `chunk`; returns the sequence number.
    pub(crate) fn on_seal(&mut self, chunk: &mut [u8]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        write_chunk_header(chunk, seq);
        seq
    }

    /// `chunk` hit the wire (or was dropped on the way) at `now`; hold it
    /// until an ack covers it.
    pub(crate) fn on_sent(&mut self, chunk: Chunk, now: Instant) {
        self.window.push_back((chunk, now));
    }

    /// The peer's cumulative ack reads `acked`: yields the buffers of every
    /// chunk it covers, for release. Any such chunk resets the retry count.
    pub(crate) fn on_ack(&mut self, acked: u64) -> impl Iterator<Item = Vec<u8>> + '_ {
        let covered = self.window.iter().take_while(|(c, _)| c.seq <= acked).count();
        if covered > 0 {
            self.stalled_rounds = 0;
        }
        self.window.drain(..covered).map(|(c, _)| c.bytes)
    }

    /// Run the retransmit timer at `now`: once the oldest unacked chunk
    /// has waited the timeout, resend the whole window, or declare the pair
    /// dead after [`MAX_RETRY_ROUNDS`] consecutive ack-free rounds.
    pub(crate) fn on_timer(&mut self, now: Instant) -> Timer {
        let Some((_, sent_at)) = self.window.front() else { return Timer::Wait };
        if now.saturating_duration_since(*sent_at) < self.timeout {
            return Timer::Wait;
        }
        self.stalled_rounds += 1;
        let window = self.window.drain(..).map(|(c, _)| c);
        if self.stalled_rounds >= MAX_RETRY_ROUNDS {
            self.dead = true;
            return Timer::Dead(window.collect());
        }
        Timer::Resend(window.map(|c| Chunk { attempt: c.attempt + 1, ..c }).collect())
    }

    /// Judge one raw chunk from the peer. The header is validated before
    /// anything is trusted, so a bit flip in the sequence field reads as
    /// corruption, not as a bogus duplicate or gap.
    pub(crate) fn on_recv<'a>(&mut self, raw: &'a [u8]) -> Recv<'a> {
        let Some((seq, payload)) = read_chunk_header(raw) else { return Recv::Corrupt };
        match seq.cmp(&self.recv_next) {
            Ordering::Equal => {
                self.recv_next += 1;
                Recv::Deliver { seq, payload }
            }
            Ordering::Less => Recv::Duplicate { ack: self.recv_next - 1 },
            Ordering::Greater => Recv::Gap,
        }
    }

    /// The sender half's state toward `dst`, with `queued` chunks not yet
    /// on the wire.
    pub(crate) fn liveness(&self, dst: usize, queued: usize) -> PairLiveness {
        PairLiveness {
            dst,
            queued,
            unacked: self.window.len(),
            oldest_unacked_seq: self.window.front().map(|(c, _)| c.seq),
            next_seq: self.next_seq,
            stalled_rounds: self.stalled_rounds,
            dead: self.dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::CHUNK_HDR_LEN;

    const TIMEOUT: Duration = Duration::from_millis(1);

    /// What the simulated channel does to one transmission.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fate {
        Deliver,
        Drop,
        Duplicate,
        /// Arrive after the next transmission instead of before it.
        SwapWithNext,
        Corrupt,
    }

    const FATES: [Fate; 5] =
        [Fate::Deliver, Fate::Drop, Fate::Duplicate, Fate::SwapWithNext, Fate::Corrupt];

    /// A one-way channel from A to B whose first transmissions follow a
    /// fixed schedule of fates; later ones are delivered cleanly.
    struct Channel<'s> {
        schedule: &'s [Fate],
        sent: usize,
        held: Option<Vec<u8>>,
        wire: VecDeque<Vec<u8>>,
    }

    impl Channel<'_> {
        fn transmit(&mut self, bytes: &[u8]) {
            let fate = self.schedule.get(self.sent).copied().unwrap_or(Fate::Deliver);
            self.sent += 1;
            let held = self.held.take();
            match fate {
                Fate::Deliver => self.wire.push_back(bytes.to_vec()),
                Fate::Drop => {}
                Fate::Duplicate => self.wire.extend([bytes.to_vec(), bytes.to_vec()]),
                Fate::SwapWithNext => self.held = Some(bytes.to_vec()),
                Fate::Corrupt => {
                    let mut bad = bytes.to_vec();
                    let at = self.sent % bad.len();
                    bad[at] ^= 1;
                    self.wire.push_back(bad);
                }
            }
            self.wire.extend(held);
        }
    }

    struct Outcome {
        /// Payload tags B delivered, in delivery order.
        delivered: Vec<u8>,
        /// Times each chunk's buffer came back to A, indexed by tag.
        released: Vec<u32>,
        dead: bool,
        timer_rounds: u32,
        sender: PairLiveness,
    }

    /// A seals `n` one-byte-tagged chunks to B, then both run until A's
    /// window drains (or the pair dies): transmit, deliver whatever is on
    /// the wire, collect the cumulative ack, and, when chunks are still
    /// unacked, advance the fake clock one timeout and run A's timer.
    fn simulate(n: u8, schedule: &[Fate]) -> Outcome {
        let mut now = Instant::now();
        let (mut a, mut b) = (ReliableLink::new(TIMEOUT), ReliableLink::new(TIMEOUT));
        let mut ch = Channel { schedule, sent: 0, held: None, wire: VecDeque::new() };
        let mut out = Outcome {
            delivered: Vec::new(),
            released: vec![0; n as usize + 1],
            dead: false,
            timer_rounds: 0,
            sender: a.liveness(1, 0),
        };
        let release = |bytes: Vec<u8>, released: &mut Vec<u32>| {
            released[bytes[CHUNK_HDR_LEN] as usize] += 1;
        };
        let mut queue: Vec<Chunk> = (1..=n)
            .map(|tag| {
                let mut bytes = vec![0; CHUNK_HDR_LEN];
                bytes.push(tag);
                let seq = a.on_seal(&mut bytes);
                Chunk { bytes, seq, attempt: 0 }
            })
            .collect();
        let mut ack = 0;
        loop {
            for chunk in queue.drain(..) {
                ch.transmit(&chunk.bytes);
                a.on_sent(chunk, now);
            }
            while let Some(raw) = ch.wire.pop_front() {
                match b.on_recv(&raw) {
                    Recv::Deliver { seq, payload } => {
                        out.delivered.push(payload[0]);
                        ack = seq;
                    }
                    Recv::Duplicate { ack: again } => ack = again,
                    Recv::Gap | Recv::Corrupt => {}
                }
            }
            for bytes in a.on_ack(ack) {
                release(bytes, &mut out.released);
            }
            if a.window_empty() {
                break;
            }
            now += TIMEOUT;
            out.timer_rounds += 1;
            match a.on_timer(now) {
                Timer::Wait => unreachable!("a full timeout elapsed"),
                Timer::Resend(chunks) => queue = chunks,
                Timer::Dead(chunks) => {
                    out.dead = true;
                    chunks.into_iter().for_each(|c| release(c.bytes, &mut out.released));
                    break;
                }
            }
        }
        // A transmission still held back arrives late: it can only repeat a
        // chunk B already has.
        if let Some(raw) = ch.held.take() {
            assert!(matches!(b.on_recv(&raw), Recv::Duplicate { .. } | Recv::Corrupt));
        }
        out.sender = a.liveness(1, 0);
        out
    }

    /// Every assignment of the five fates to the first six transmissions,
    /// for one, two and three chunks: B delivers each chunk once and in
    /// order, A's window drains with every buffer returned once and the
    /// retry count reset, and the pair never dies.
    #[test]
    fn every_six_fault_schedule_delivers_in_order_exactly_once() {
        const DEPTH: u32 = 6;
        for n in 1..=3u8 {
            for code in 0..FATES.len().pow(DEPTH) {
                let schedule: Vec<Fate> =
                    (0..DEPTH).map(|i| FATES[code / FATES.len().pow(i) % FATES.len()]).collect();
                let out = simulate(n, &schedule);
                let want: Vec<u8> = (1..=n).collect();
                assert_eq!(out.delivered, want, "n={n} {schedule:?}");
                assert!(!out.dead, "n={n} {schedule:?}");
                assert_eq!(&out.released[1..], &vec![1; n as usize][..], "n={n} {schedule:?}");
                assert_eq!(out.sender.unacked, 0, "n={n} {schedule:?}");
                assert_eq!(out.sender.stalled_rounds, 0, "n={n} {schedule:?}");
                assert_eq!(out.sender.next_seq, u64::from(n) + 1);
            }
        }
    }

    /// A channel that drops everything kills the pair after exactly
    /// `MAX_RETRY_ROUNDS` timer rounds, returning every buffer.
    #[test]
    fn total_loss_dies_after_max_retry_rounds() {
        for n in 1..=3u8 {
            let out = simulate(n, &[Fate::Drop; 3 * MAX_RETRY_ROUNDS as usize]);
            assert!(out.dead && out.sender.dead);
            assert_eq!(out.timer_rounds, MAX_RETRY_ROUNDS);
            assert!(out.delivered.is_empty());
            assert_eq!(&out.released[1..], &vec![1; n as usize][..]);
            assert_eq!(out.sender.unacked, 0);
        }
    }

    /// Retry rounds count consecutive ack-free rounds, not rounds in total:
    /// losing each of many chunks once never kills the pair.
    #[test]
    fn acks_reset_the_retry_count() {
        let n = 2 * MAX_RETRY_ROUNDS as u8;
        let mut now = Instant::now();
        let (mut a, mut b) = (ReliableLink::new(TIMEOUT), ReliableLink::new(TIMEOUT));
        for tag in 1..=n {
            let mut bytes = vec![0; CHUNK_HDR_LEN];
            bytes.push(tag);
            let seq = a.on_seal(&mut bytes);
            a.on_sent(Chunk { bytes, seq, attempt: 0 }, now); // lost
            now += TIMEOUT;
            let Timer::Resend(mut again) = a.on_timer(now) else {
                panic!("chunk {tag}: no resend")
            };
            let chunk = again.pop().expect("one chunk in the window");
            let Recv::Deliver { seq, .. } = b.on_recv(&chunk.bytes) else { panic!("chunk {tag}") };
            a.on_sent(chunk, now);
            assert_eq!(a.on_ack(seq).count(), 1);
        }
        assert!(!a.is_dead());
        assert!(a.window_empty());
    }
}
