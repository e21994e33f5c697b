//! The three workloads, run SPMD: every PE's main thread executes
//! [`pe_main`] on its own world.
//!
//! PEs synchronize between reps through [`Shared::hb`], a parking barrier
//! that makes no runtime calls, so each `world.stats()` delta brackets one
//! kernel and nothing else. Inside a kernel only the program's own calls run
//! (`world.barrier` included).

use crate::trace::{self, Span, Tracer};
use bale_suite::common::SplitMix64;
use bale_suite::histo::HistoBufAm;
use bale_suite::index_gather::{table_value, IgBufAm};
use lamellar_array::prelude::*;
use lamellar_core::am::FallibleAmHandle;
use lamellar_core::prelude::*;
use lamellar_core::proto;
use lamellar_metrics::RuntimeStats;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Distributed-table elements per PE (the paper's 1,000 per core).
pub const TABLE_PER_PE: usize = 1_000;
/// Ops per aggregation buffer and per array sub-batch (the paper's 10,000).
pub const BATCH: usize = 10_000;
/// Updates (histo) or reads (gather) each PE issues per rep.
pub const OPS_PER_PE: usize = 2_000_000;
/// Round trips per timed `rtt` block.
const RTT_BLOCK: usize = 200;
/// Round trips per world of the idle-latency probe that closes `histo` and
/// `gather`; ten worlds leave 60 samples beyond p99, so one scheduling
/// hiccup does not set `rtt_p99_us`.
const PROBE_ROUND_TRIPS: usize = 600;
/// World barriers timed at the end of `rtt`, whose blocks contain none.
const CLOSING_BARRIERS: usize = 10;
/// Rounds run even when the world's budget is already spent (one traced,
/// one untraced in a traced run).
const MIN_ROUNDS: usize = 2;
/// Bulk histogram traffic run in each world before its timed sections.
const WARM_UP: Duration = Duration::from_millis(500);
/// Pre-generated inputs cycled through by the `rtt` client.
const RTT_INPUTS: usize = 4_096;

lamellar_core::am! {
    /// Closed-loop echo: the reply is the request plus one.
    pub struct EchoAm {
        pub x: u64,
    }
    exec(am, _ctx) -> u64 {
        am.x.wrapping_add(1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Histo,
    Gather,
    Rtt,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "histo" => Some(Workload::Histo),
            "gather" => Some(Workload::Gather),
            "rtt" => Some(Workload::Rtt),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Histo => "histo",
            Workload::Gather => "gather",
            Workload::Rtt => "rtt",
        }
    }
}

/// Which code path a rep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Hand-aggregated AMs (`rtt`: one tracked echo AM per round trip).
    Am,
    /// The array API (`rtt`: one single-index `batch_load` per round trip).
    Array,
    /// Idle round-trip probe after the bulk reps of `histo` and `gather`.
    Probe,
}

impl Variant {
    pub fn tag(self) -> &'static str {
        match self {
            Variant::Am => "am",
            Variant::Array => "array",
            Variant::Probe => "probe",
        }
    }
}

/// One timed section as one PE saw it.
pub struct Rep {
    pub variant: Variant,
    pub traced: bool,
    /// This PE's time in the section; zero on a PE that only serves.
    pub elapsed: Duration,
    /// Ops this PE issued.
    pub ops: u64,
    /// Ops that failed verification or resolved to `Err`.
    pub failed: u64,
    /// Of those, the ones that resolved to `Err`.
    pub errors: u64,
    /// This PE's counters over the section.
    pub delta: RuntimeStats,
    /// Process-wide allocation events during the section (PE 0 only).
    pub allocs: u64,
    /// Per round trip latency in µs (round-trip sections only).
    pub latencies_us: Vec<f64>,
}

/// What one PE hands back to the harness.
pub struct PeOutput {
    /// Launch → this PE ready to issue its first op.
    pub ready: Duration,
    pub reps: Vec<Rep>,
    pub spans: Vec<Span>,
    /// Framed size of the workload's request envelope (sizes the lamellae
    /// microbenchmark).
    pub framed_am_len: usize,
}

/// Cross-PE harness state; lives outside the runtime.
pub struct Shared {
    pub hb: Barrier,
    go: AtomicBool,
    /// `histo`: expected increments per global slot, summed over all PEs'
    /// index streams.
    expected: Vec<AtomicU64>,
}

impl Shared {
    pub fn new(num_pes: usize) -> Self {
        Shared {
            hb: Barrier::new(num_pes),
            go: AtomicBool::new(true),
            expected: (0..TABLE_PER_PE * num_pes).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// What to run and for how long.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub launched: Instant,
    pub epoch: Instant,
}

/// Run this PE's part of the workload.
pub fn pe_main(world: LamellarWorld, sh: &Shared, plan: &Plan) -> PeOutput {
    let mut tr = Tracer::new(plan.epoch);
    let (ready, reps, framed_am_len) = match plan.workload {
        Workload::Histo => histo(&world, sh, plan, &mut tr),
        Workload::Gather => gather(&world, sh, plan, &mut tr),
        Workload::Rtt => rtt(&world, sh, plan, &mut tr),
    };
    PeOutput { ready, reps, spans: tr.into_spans(), framed_am_len }
}

/// This PE's seeded stream of global table indices.
fn gen_indices(seed: u64, pe: usize, n: usize, global_len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, pe);
    (0..n).map(|_| rng.below(global_len)).collect()
}

/// Brackets one timed section: counters, allocation events and wall time.
struct Section {
    before: RuntimeStats,
    allocs: u64,
    start: Instant,
}

impl Section {
    /// Snapshot, then start every PE together.
    fn begin(world: &LamellarWorld, sh: &Shared) -> Self {
        let before = world.stats();
        let allocs = trace::alloc_events();
        sh.hb.wait();
        Section { before, allocs, start: Instant::now() }
    }

    fn end(self, world: &LamellarWorld, variant: Variant, ops: usize) -> Rep {
        let elapsed = self.start.elapsed();
        let allocs =
            if world.my_pe() == 0 { trace::alloc_events().saturating_sub(self.allocs) } else { 0 };
        Rep {
            variant,
            traced: false,
            elapsed,
            ops: ops as u64,
            failed: 0,
            errors: 0,
            delta: world.stats().delta(&self.before),
            allocs,
            latencies_us: Vec::new(),
        }
    }
}

/// Run `body(round)` on every PE for at least `min` rounds and until PE 0
/// has spent `budget`; PE 0's decision is shared through the harness.
fn repeat_for(
    world: &LamellarWorld,
    sh: &Shared,
    min: usize,
    budget: Duration,
    mut body: impl FnMut(usize),
) {
    let start = Instant::now();
    for round in 0.. {
        body(round);
        if world.my_pe() == 0 {
            let go = round + 1 < min || start.elapsed() < budget;
            sh.go.store(go, Ordering::SeqCst);
        }
        // PE 0 stores `go` again only after every PE has passed the next
        // round's start barrier, so no PE can read a stale decision.
        sh.hb.wait();
        if !sh.go.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Warm up once per variant, then run rounds (one rep per variant) until
/// the budget is spent. In a traced run every other round is traced, so
/// traced and untraced reps interleave.
fn rounds(
    world: &LamellarWorld,
    sh: &Shared,
    plan: &Plan,
    tr: &mut Tracer,
    variants: &[Variant],
    mut rep: impl FnMut(Variant, &mut Tracer) -> Rep,
) -> Vec<Rep> {
    let me = world.my_pe();
    tr.set_on(false);
    for &v in variants {
        rep(v, tr);
    }
    let mut reps = Vec::new();
    repeat_for(world, sh, MIN_ROUNDS, plan.budget, |round| {
        let traced = plan.trace && round % 2 == 0;
        if me == 0 {
            trace::count_allocations(traced);
        }
        tr.set_on(traced);
        for &v in variants {
            tr.set_tag(v.tag());
            let mut r = rep(v, tr);
            r.traced = traced;
            reps.push(r);
        }
    });
    if me == 0 {
        trace::count_allocations(false);
    }
    tr.set_on(false);
    reps
}

/// A block of closed-loop round trips from PE 0 to PE 1; every other PE
/// parks in the harness barrier, so only its progress thread serves.
struct RoundTrips<'a> {
    world: &'a LamellarWorld,
    sh: &'a Shared,
    peer: usize,
    /// Echo inputs.
    xs: Vec<u64>,
    /// Remote table indices for the array loop.
    gs: Vec<usize>,
    next: usize,
}

impl<'a> RoundTrips<'a> {
    fn new(world: &'a LamellarWorld, sh: &'a Shared, seed: u64) -> Self {
        let me = world.my_pe();
        let peer = (me + 1) % world.num_pes();
        let mut rng = SplitMix64::new(seed ^ 0x7277_7474, me);
        let xs = (0..RTT_INPUTS).map(|_| rng.next_u64()).collect();
        let gs = (0..RTT_INPUTS).map(|_| peer * TABLE_PER_PE + rng.below(TABLE_PER_PE)).collect();
        RoundTrips { world, sh, peer, xs, gs, next: 0 }
    }

    fn block(
        &mut self,
        tr: &mut Tracer,
        variant: Variant,
        n: usize,
        table: Option<&ReadOnlyArray<u64>>,
    ) -> Rep {
        let world = self.world;
        let sec = Section::begin(world, self.sh);
        let client = world.my_pe() == 0;
        let (mut failed, mut errors) = (0, 0);
        let mut latencies_us = Vec::new();
        if client {
            latencies_us.reserve(n);
            let k = tr.enter("kernel");
            for _ in 0..n {
                let i = self.next % RTT_INPUTS;
                self.next += 1;
                let t = Instant::now();
                let ok = match (variant, table) {
                    (Variant::Array, Some(table)) => {
                        let g = self.gs[i];
                        let h = tr.span("array.launch", || table.batch_load(vec![g]));
                        let v = tr.span("runtime.block_on", || world.block_on(h));
                        v == [table_value(g)]
                    }
                    _ => {
                        let x = self.xs[i];
                        let h: FallibleAmHandle<u64> = tr.span("runtime.issue", || {
                            world.exec_am_pe(self.peer, EchoAm { x }).fallible()
                        });
                        match tr.span("runtime.block_on", || world.block_on(h)) {
                            Ok(y) => y == x.wrapping_add(1),
                            Err(_) => {
                                errors += 1;
                                false
                            }
                        }
                    }
                };
                latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                failed += u64::from(!ok);
            }
            tr.exit(k);
        }
        // Servers park here until the client is done.
        self.sh.hb.wait();
        let mut rep = sec.end(world, variant, if client { n } else { 0 });
        if !client {
            rep.elapsed = Duration::ZERO;
        }
        rep.failed = failed;
        rep.errors = errors;
        rep.latencies_us = latencies_us;
        rep
    }

    /// The idle-latency probe: tracked echo AMs, traced with the run.
    fn probe(&mut self, plan: &Plan, tr: &mut Tracer) -> Vec<Rep> {
        tr.set_on(plan.trace);
        tr.set_tag(Variant::Probe.tag());
        let blocks = PROBE_ROUND_TRIPS / RTT_BLOCK;
        let reps = (0..blocks).map(|_| self.block(tr, Variant::Probe, RTT_BLOCK, None)).collect();
        tr.set_on(false);
        reps
    }
}

/// The hand-aggregated histogram kernel: bin global indices by destination
/// PE, ship each full bin as a fire-and-forget `HistoBufAm`, then
/// `wait_all` and barrier.
fn histo_am_kernel(
    world: &LamellarWorld,
    table: &Darc<Vec<AtomicUsize>>,
    idx: &[usize],
    tr: &mut Tracer,
) {
    let k = tr.enter("kernel");
    let mut bins: Vec<Vec<u32>> = (0..world.num_pes()).map(|_| Vec::with_capacity(BATCH)).collect();
    for &g in idx {
        let dst = g / TABLE_PER_PE;
        bins[dst].push((g % TABLE_PER_PE) as u32);
        if bins[dst].len() >= BATCH {
            let idxs = std::mem::replace(&mut bins[dst], Vec::with_capacity(BATCH));
            let am = HistoBufAm { table: table.clone(), idxs };
            tr.span("runtime.issue", || world.exec_unit_am_pe(dst, am));
        }
    }
    for (dst, idxs) in bins.into_iter().enumerate().filter(|(_, b)| !b.is_empty()) {
        let am = HistoBufAm { table: table.clone(), idxs };
        tr.span("runtime.issue", || world.exec_unit_am_pe(dst, am));
    }
    tr.span("runtime.wait_all", || world.wait_all());
    tr.span("runtime.barrier", || world.barrier());
    tr.exit(k);
}

/// Bulk histogram traffic for `WARM_UP`, untimed. On a virtualized host
/// the wake-up latency of idle threads is bistable and follows recent
/// activity (fast after bulk traffic, slow after seconds of idling); this
/// starts every world's timed sections from the same, recently busy state.
fn warm_up(world: &LamellarWorld, sh: &Shared, plan: &Plan, tr: &mut Tracer) {
    let table = counter_table(world);
    let glen = TABLE_PER_PE * world.num_pes();
    let idx = gen_indices(!plan.seed, world.my_pe(), OPS_PER_PE, glen);
    repeat_for(world, sh, 1, WARM_UP, |_| histo_am_kernel(world, &table, &idx, tr));
}

/// A table of `TABLE_PER_PE` zeroed counters on every PE.
fn counter_table(world: &LamellarWorld) -> Darc<Vec<AtomicUsize>> {
    Darc::new(&world.team(), (0..TABLE_PER_PE).map(|_| AtomicUsize::new(0)).collect())
}

/// Fig. 3 Histogram: `HistoBufAm` through `exec_unit_am_pe`, and
/// `AtomicArray::batch_add_ff`.
fn histo(
    world: &LamellarWorld,
    sh: &Shared,
    plan: &Plan,
    tr: &mut Tracer,
) -> (Duration, Vec<Rep>, usize) {
    let (me, npes) = (world.my_pe(), world.num_pes());
    let glen = TABLE_PER_PE * npes;
    let darc = counter_table(world);
    let mut arr = AtomicArray::<usize>::new(world, glen, Distribution::Block);
    arr.set_batch_limit(BATCH);
    let idx = gen_indices(plan.seed, me, OPS_PER_PE, glen);
    sh.hb.wait();
    let ready = plan.launched.elapsed();

    // Verification reference: the increments each local slot must receive
    // per rep, from every PE's stream. Checked by deltas, because a fresh
    // AtomicArray is not reliably zeroed (see NOTES.md).
    let mut hist = vec![0u64; glen];
    for &g in &idx {
        hist[g] += 1;
    }
    for (slot, n) in sh.expected.iter().zip(hist) {
        slot.fetch_add(n, Ordering::Relaxed);
    }
    sh.hb.wait();
    let expected: Vec<u64> = sh.expected[me * TABLE_PER_PE..(me + 1) * TABLE_PER_PE]
        .iter()
        .map(|e| e.load(Ordering::Relaxed))
        .collect();
    let lost = |before: &[usize], after: &[usize]| -> u64 {
        before
            .iter()
            .zip(after)
            .zip(&expected)
            .map(|((&b, &a), &e)| (a.wrapping_sub(b) as u64).abs_diff(e))
            .sum()
    };
    let shard = || darc.iter().map(|a| a.load(Ordering::Relaxed)).collect::<Vec<usize>>();
    let framed_am_len = proto::framed_request_unit_len(
        HistoBufAm { table: darc.clone(), idxs: vec![0; BATCH] }.encoded_len(),
    );
    warm_up(world, sh, plan, tr);

    let mut reps = rounds(world, sh, plan, tr, &[Variant::Am, Variant::Array], |v, tr| {
        if v == Variant::Am {
            let before = shard();
            let sec = Section::begin(world, sh);
            histo_am_kernel(world, &darc, &idx, tr);
            let mut rep = sec.end(world, v, idx.len());
            rep.failed = lost(&before, &shard());
            rep
        } else {
            let before = arr.local_snapshot();
            let input = idx.clone();
            let sec = Section::begin(world, sh);
            let k = tr.enter("kernel");
            tr.span("array.launch", || arr.batch_add_ff(input, 1));
            tr.span("runtime.wait_all", || world.wait_all());
            tr.span("runtime.barrier", || world.barrier());
            tr.exit(k);
            let mut rep = sec.end(world, v, idx.len());
            rep.failed = lost(&before, &arr.local_snapshot());
            rep
        }
    });
    reps.extend(RoundTrips::new(world, sh, plan.seed).probe(plan, tr));
    (ready, reps, framed_am_len)
}

/// A block-distributed read-only table holding `table_value(g)` at `g`.
fn read_only_table(world: &LamellarWorld, glen: usize) -> ReadOnlyArray<u64> {
    let arr = UnsafeArray::<u64>::new(world, glen, Distribution::Block);
    world.barrier();
    if world.my_pe() == 0 {
        let vals: Vec<u64> = (0..glen).map(table_value).collect();
        // SAFETY: PE 0 is the only writer, and nobody reads before the
        // barrier inside the conversion below.
        unsafe { arr.put_unchecked(0, &vals) };
    }
    world.barrier();
    let mut table = arr.into_read_only();
    table.set_batch_limit(BATCH);
    table
}

/// Fig. 4 IndexGather: `IgBufAm` through `exec_am_pe` + `block_on`, and
/// `ReadOnlyArray::batch_load`.
fn gather(
    world: &LamellarWorld,
    sh: &Shared,
    plan: &Plan,
    tr: &mut Tracer,
) -> (Duration, Vec<Rep>, usize) {
    let (me, npes) = (world.my_pe(), world.num_pes());
    let glen = TABLE_PER_PE * npes;
    let shard: Vec<u64> = (0..TABLE_PER_PE).map(|l| table_value(me * TABLE_PER_PE + l)).collect();
    let darc = Darc::new(&world.team(), shard);
    let table = read_only_table(world, glen);
    let idx = gen_indices(plan.seed, me, OPS_PER_PE, glen);
    sh.hb.wait();
    let ready = plan.launched.elapsed();

    // table_value is never 0 on this table, so a slot left at 0 by an
    // `Err` reply reads as a mismatch.
    let wrong = |got: &[u64]| -> u64 {
        let bad = idx.iter().zip(got).filter(|(&g, &v)| v != table_value(g)).count();
        (bad + idx.len().abs_diff(got.len())) as u64
    };
    let framed_am_len = proto::framed_request_len(
        IgBufAm { table: darc.clone(), idxs: vec![0; BATCH] }.encoded_len(),
    );
    let mut target = vec![0u64; idx.len()];
    warm_up(world, sh, plan, tr);

    let mut reps = rounds(world, sh, plan, tr, &[Variant::Am, Variant::Array], |v, tr| {
        if v == Variant::Am {
            target.fill(0);
            let mut errors = 0u64;
            let sec = Section::begin(world, sh);
            let k = tr.enter("kernel");
            let mut bins: Vec<Vec<u32>> = (0..npes).map(|_| Vec::with_capacity(BATCH)).collect();
            let mut slots: Vec<Vec<u32>> = (0..npes).map(|_| Vec::with_capacity(BATCH)).collect();
            let mut handles: Vec<(Vec<u32>, FallibleAmHandle<Vec<u64>>)> = Vec::new();
            let mut issue = |dst: usize,
                             bins: &mut [Vec<u32>],
                             slots: &mut [Vec<u32>],
                             tr: &mut Tracer| {
                let idxs = std::mem::replace(&mut bins[dst], Vec::with_capacity(BATCH));
                let s = std::mem::replace(&mut slots[dst], Vec::with_capacity(BATCH));
                let am = IgBufAm { table: darc.clone(), idxs };
                handles
                    .push((s, tr.span("runtime.issue", || world.exec_am_pe(dst, am).fallible())));
            };
            for (slot, &g) in idx.iter().enumerate() {
                let dst = g / TABLE_PER_PE;
                bins[dst].push((g % TABLE_PER_PE) as u32);
                slots[dst].push(slot as u32);
                if bins[dst].len() >= BATCH {
                    issue(dst, &mut bins, &mut slots, tr);
                }
            }
            for dst in 0..npes {
                if !bins[dst].is_empty() {
                    issue(dst, &mut bins, &mut slots, tr);
                }
            }
            for (s, h) in handles {
                match tr.span("runtime.block_on", || world.block_on(h)) {
                    Ok(vals) => {
                        for (slot, v) in s.into_iter().zip(vals) {
                            target[slot as usize] = v;
                        }
                    }
                    Err(_) => errors += s.len() as u64,
                }
            }
            tr.span("runtime.wait_all", || world.wait_all());
            tr.span("runtime.barrier", || world.barrier());
            tr.exit(k);
            let mut rep = sec.end(world, v, idx.len());
            rep.failed = wrong(&target);
            rep.errors = errors;
            rep
        } else {
            let input = idx.clone();
            let sec = Section::begin(world, sh);
            let k = tr.enter("kernel");
            let h = tr.span("array.launch", || table.batch_load(input));
            let got = tr.span("runtime.block_on", || world.block_on(h));
            tr.span("runtime.wait_all", || world.wait_all());
            tr.span("runtime.barrier", || world.barrier());
            tr.exit(k);
            let mut rep = sec.end(world, v, idx.len());
            rep.failed = wrong(&got);
            rep
        }
    });
    reps.extend(RoundTrips::new(world, sh, plan.seed).probe(plan, tr));
    (ready, reps, framed_am_len)
}

/// Closed loop, one client (PE 0) with one outstanding request to PE 1:
/// tracked 8-byte echo AMs, alternating with single-index array loads.
fn rtt(
    world: &LamellarWorld,
    sh: &Shared,
    plan: &Plan,
    tr: &mut Tracer,
) -> (Duration, Vec<Rep>, usize) {
    let glen = TABLE_PER_PE * world.num_pes();
    let table = read_only_table(world, glen);
    let mut rt = RoundTrips::new(world, sh, plan.seed);
    sh.hb.wait();
    let ready = plan.launched.elapsed();
    let framed_am_len = proto::framed_request_len(EchoAm { x: 0 }.encoded_len());
    warm_up(world, sh, plan, tr);
    let reps = rounds(world, sh, plan, tr, &[Variant::Am, Variant::Array], |v, tr| {
        rt.block(tr, v, RTT_BLOCK, Some(&table))
    });
    // The blocks hold no barrier; time some here for runtime.barrier_us.
    tr.set_on(plan.trace);
    tr.set_tag("barrier");
    sh.hb.wait();
    for _ in 0..CLOSING_BARRIERS {
        tr.span("runtime.barrier", || world.barrier());
    }
    tr.set_on(false);
    (ready, reps, framed_am_len)
}
