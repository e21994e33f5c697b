//! Worlds: SPMD launch, the `LamellarWorld` handle, and cross-PE shared
//! state.
//!
//! The paper launches one OS process per PE through SLURM; this
//! reproduction launches one *thread group* per PE through [`launch`]
//! (DESIGN.md §1). Each PE gets a [`LamellarWorld`] — the entry point for
//! Active Messages, collectives, memory regions, Darcs, and teams.
//!
//! World teardown follows the paper's Listing 1 semantics: there is no
//! explicit finalize; when the last handle on a PE drops, that PE waits for
//! its launched AMs (`wait_all`), then joins a global barrier — "Each PE
//! remains active until all other PEs are ready to deinitialize" — and only
//! then stops its progress engine.

use crate::am::{AmError, AmHandle, AmOpts, IdempotentAm, LamellarAm, MultiAmHandle};
use crate::config::{Backend, WorldConfig};
use crate::lamellae::{queue::queue_footprint, FabricLamellae, Lamellae};
use crate::runtime::RuntimeInner;
use crate::team::LamellarTeam;
use lamellar_executor::{JoinHandle, PoolConfig, ThreadPool};
use lamellar_metrics::RuntimeStats;
use parking_lot::Mutex;
use rofi_sim::fabric::{Fabric, FabricConfig};
use rofi_sim::{NetConfig, SenseBarrier};
use std::any::Any;
use std::collections::HashMap;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// One deposit slot per member of a collective all-deposit exchange.
type DepositSlots = Vec<Option<Box<dyn Any + Send>>>;

/// Process-wide state shared by all PEs of one world: the Darc/memregion
/// trackable registry, collective-construction exchanges, and team
/// barriers. In the real (multi-process) system the equivalents live in
/// symmetric RDMA memory; here a shared structure keeps the same semantics
/// observable (see DESIGN.md §1).
pub struct WorldShared {
    /// Unique id of this world (distinguishes OOB tags across worlds).
    pub(crate) world_id: u64,
    /// Next id for trackable distributed objects (Darcs, memory regions).
    next_trackable: AtomicU64,
    /// id → (weak state, in-flight serialization pins).
    trackables: Mutex<HashMap<u64, TrackableEntry>>,
    /// Collective object exchange: root deposits, members fetch.
    exchange: Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
    /// Collective all-deposit exchange (Darc construction: every PE
    /// contributes its instance).
    deposits: Mutex<HashMap<u64, DepositSlots>>,
    /// Team barriers keyed by team id.
    team_barriers: Mutex<HashMap<u64, Arc<SenseBarrier>>>,
    /// Next team id (roots draw from here and broadcast).
    next_team: AtomicU64,
    /// Collective-call kinds by tag: the runtime analysis of paper
    /// Sec. III-A.3 ("we perform some limited runtime analysis to warn
    /// users" about mismatched distributed synchronization calls). The
    /// first PE to reach a collective records its kind; any PE arriving at
    /// the same sequence point with a different kind has diverged from
    /// SPMD order, which is reported instead of deadlocking.
    collective_kinds: Mutex<HashMap<u64, &'static str>>,
    /// Set when a collective mismatch is detected; PEs blocked in team
    /// barriers observe it and panic too, so the error surfaces on every
    /// PE instead of deadlocking the world.
    poison: Mutex<Option<String>>,
}

struct TrackableEntry {
    state: Weak<dyn Any + Send + Sync>,
    /// Strong refs parked while a serialized reference is in flight — the
    /// object must stay alive between encode (source PE) and decode
    /// (destination PE).
    pins: Vec<Arc<dyn Any + Send + Sync>>,
}

static NEXT_WORLD_ID: AtomicU64 = AtomicU64::new(1);

impl WorldShared {
    fn new() -> Arc<Self> {
        Arc::new(WorldShared {
            world_id: NEXT_WORLD_ID.fetch_add(1, Ordering::Relaxed),
            next_trackable: AtomicU64::new(1),
            trackables: Mutex::new(HashMap::new()),
            exchange: Mutex::new(HashMap::new()),
            deposits: Mutex::new(HashMap::new()),
            team_barriers: Mutex::new(HashMap::new()),
            next_team: AtomicU64::new(1),
            collective_kinds: Mutex::new(HashMap::new()),
            poison: Mutex::new(None),
        })
    }

    /// Draw a fresh trackable-object id.
    pub(crate) fn new_trackable_id(&self) -> u64 {
        self.next_trackable.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a distributed object's state under `id`.
    pub(crate) fn register_trackable(&self, id: u64, state: Weak<dyn Any + Send + Sync>) {
        let prev = self.trackables.lock().insert(id, TrackableEntry { state, pins: Vec::new() });
        debug_assert!(prev.is_none(), "trackable id collision");
    }

    /// Remove a trackable entry (when its object is fully dropped).
    pub(crate) fn unregister_trackable(&self, id: u64) {
        self.trackables.lock().remove(&id);
    }

    /// Park a strong reference while a serialized handle is in flight.
    pub(crate) fn pin_trackable(&self, id: u64, strong: Arc<dyn Any + Send + Sync>) {
        self.trackables
            .lock()
            .get_mut(&id)
            .expect("pin of unregistered trackable")
            .pins
            .push(strong);
    }

    /// Release one in-flight pin (at decode).
    pub(crate) fn unpin_trackable(&self, id: u64) {
        self.trackables
            .lock()
            .get_mut(&id)
            .expect("unpin of unregistered trackable")
            .pins
            .pop()
            .expect("unpin without matching pin");
    }

    /// Resolve a trackable id to its state.
    pub(crate) fn lookup_trackable(&self, id: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        self.trackables.lock().get(&id).and_then(|e| e.state.upgrade())
    }

    /// Number of live in-flight pins for `id` (diagnostics/tests).
    #[allow(dead_code)]
    pub(crate) fn pin_count(&self, id: u64) -> usize {
        self.trackables.lock().get(&id).map(|e| e.pins.len()).unwrap_or(0)
    }

    pub(crate) fn exchange_put(&self, tag: u64, obj: Arc<dyn Any + Send + Sync>) {
        self.exchange.lock().insert(tag, obj);
    }

    pub(crate) fn exchange_get(&self, tag: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        self.exchange.lock().get(&tag).cloned()
    }

    pub(crate) fn exchange_remove(&self, tag: u64) {
        self.exchange.lock().remove(&tag);
    }

    /// Deposit `obj` as team-rank `rank` of `team_size` under `tag`;
    /// returns the complete deposit vector once all ranks have deposited
    /// (only for the caller that completes it — others get `None`).
    pub(crate) fn deposit(
        &self,
        tag: u64,
        rank: usize,
        team_size: usize,
        obj: Box<dyn Any + Send>,
    ) -> Option<DepositSlots> {
        let mut map = self.deposits.lock();
        let slots = map.entry(tag).or_insert_with(|| (0..team_size).map(|_| None).collect());
        debug_assert!(slots[rank].is_none(), "duplicate deposit for rank {rank}");
        slots[rank] = Some(obj);
        if slots.iter().all(|s| s.is_some()) {
            map.remove(&tag)
        } else {
            None
        }
    }

    /// Get or create the barrier for team `team_id` with `n` participants.
    pub(crate) fn team_barrier(&self, team_id: u64, n: usize) -> Arc<SenseBarrier> {
        let mut map = self.team_barriers.lock();
        let b = map.entry(team_id).or_insert_with(|| Arc::new(SenseBarrier::new(n)));
        assert_eq!(b.participants(), n, "team barrier size mismatch");
        Arc::clone(b)
    }

    /// Draw a fresh team id (roots broadcast it to members).
    pub(crate) fn new_team_id(&self) -> u64 {
        self.next_team.fetch_add(1, Ordering::Relaxed)
    }

    /// Record/verify the kind of the collective running under `tag`.
    /// Panics with a diagnostic (and poisons the world, so blocked PEs
    /// panic too) when two PEs reach the same team-collective sequence
    /// point with different operations — a mismatched-collective bug in
    /// the application.
    pub(crate) fn check_collective(&self, tag: u64, kind: &'static str) {
        let mut kinds = self.collective_kinds.lock();
        match kinds.get(&tag) {
            Some(&prev) if prev != kind => {
                let msg = format!(
                    "mismatched collectives: this PE issued `{kind}` where another PE issued \
                     `{prev}` at the same team sequence point — collective calls must run in \
                     the same order on every member PE"
                );
                drop(kinds);
                eprintln!("lamellar: {msg}");
                *self.poison.lock() = Some(msg.clone());
                panic!("{msg}");
            }
            Some(_) => {}
            None => {
                kinds.insert(tag, kind);
            }
        }
    }

    /// Panic if the world has been poisoned by a collective mismatch
    /// (checked by PEs spinning in team barriers).
    pub(crate) fn check_poison(&self) {
        if let Some(msg) = self.poison.lock().clone() {
            panic!("world poisoned by a collective mismatch on another PE: {msg}");
        }
    }

    /// Drop the record once a collective completes.
    pub(crate) fn finish_collective(&self, tag: u64) {
        self.collective_kinds.lock().remove(&tag);
    }
}

/// Teardown driver: the last world handle on a PE drops this, which runs
/// the deinitialization protocol.
pub(crate) struct WorldGuard {
    rt: Arc<RuntimeInner>,
    progress: Mutex<Option<std::thread::JoinHandle<()>>>,
    watchdog: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for WorldGuard {
    fn drop(&mut self) {
        // "the world variable is automatically dropped ... which in turn
        // executes the Lamellar deinitialization process."
        self.rt.wait_all();
        self.rt.barrier();
        self.rt.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.progress.lock().take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.lock().take() {
            let _ = h.join();
        }
    }
}

/// A PE's handle on the Lamellar runtime — the paper's `LamellarWorld`.
#[derive(Clone)]
pub struct LamellarWorld {
    rt: Arc<RuntimeInner>,
    /// Present on user-held handles; absent on handles materialized inside
    /// executing AMs (those borrow the ambient world's lifetime).
    guard: Option<Arc<WorldGuard>>,
}

impl LamellarWorld {
    pub(crate) fn from_rt(rt: Arc<RuntimeInner>) -> Self {
        LamellarWorld { rt, guard: None }
    }

    /// This PE's id (`world.my_pe()` in Listing 1).
    pub fn my_pe(&self) -> usize {
        self.rt.pe()
    }

    /// Number of PEs in the world.
    pub fn num_pes(&self) -> usize {
        self.rt.num_pes()
    }

    /// Which Lamellae backend this world runs on.
    pub fn backend(&self) -> Backend {
        self.rt.lamellae().backend()
    }

    /// Launch `am` on PE `dst`; returns a future for its output. Remote
    /// launches honor the world-default response deadline
    /// (`WorldConfig::am_deadline`) when one is configured.
    pub fn exec_am_pe<T: LamellarAm>(&self, dst: usize, am: T) -> AmHandle<T::Output> {
        self.rt.exec_am_pe(dst, am)
    }

    /// Launch a unit-output AM fire-and-forget (DESIGN.md §4d): no handle,
    /// no per-op `Reply` envelope — completion is conveyed in bulk by the
    /// serving PE's cumulative `AckCount` credits, and
    /// [`wait_all`](LamellarWorld::wait_all) still blocks until every
    /// launch has executed remotely. The natural idiom for one-way updates
    /// (histogram increments, pushes) that used to be written
    /// `drop(world.exec_am_pe(dst, am))`. Calls that need a deadline or
    /// retry must use the tracked
    /// [`exec_am_pe_with`](LamellarWorld::exec_am_pe_with) path.
    pub fn exec_unit_am_pe<T: LamellarAm<Output = ()>>(&self, dst: usize, am: T) {
        self.rt.exec_unit_am_pe(dst, am)
    }

    /// Number of outstanding *tracked* (reply-carrying) request slots on
    /// this PE. Unit AMs never allocate one, so a pure fire-and-forget
    /// workload reads 0 here even mid-flight.
    pub fn pending_handles(&self) -> usize {
        self.rt.pending_handles()
    }

    /// [`exec_am_pe`](LamellarWorld::exec_am_pe) with per-call resilience
    /// options (DESIGN.md §4c). A deadline miss resolves the handle to
    /// `Err(AmError::Timeout)` — observe it through
    /// [`AmHandle::fallible`](crate::am::AmHandle::fallible). `opts.retry`
    /// is ignored here: a timed-out AM may already have executed remotely,
    /// so automatic re-issue requires the
    /// [`IdempotentAm`] assertion — use
    /// [`exec_idempotent_am_pe`](LamellarWorld::exec_idempotent_am_pe).
    ///
    /// ```ignore
    /// let h = world.exec_am_pe_with(1, am, AmOpts::deadline(Duration::from_millis(250)));
    /// match world.block_on(h.fallible()) {
    ///     Ok(out) => println!("{out:?}"),
    ///     Err(AmError::Timeout { pe, attempts }) => eprintln!("PE {pe} silent after {attempts} attempt(s)"),
    ///     Err(e) => eprintln!("{e}"),
    /// }
    /// ```
    pub fn exec_am_pe_with<T: LamellarAm>(
        &self,
        dst: usize,
        am: T,
        opts: AmOpts,
    ) -> AmHandle<T::Output> {
        self.rt.exec_am_pe_with(dst, am, opts)
    }

    /// Launch an [`IdempotentAm`] with deadline
    /// and retry: each deadline miss re-issues the AM (same request id —
    /// duplicate replies are dropped) with exponentially widening windows
    /// per `opts.retry`, then `Err(AmError::Timeout)` once retries are
    /// exhausted. Retried AMs execute **at least once per delivered
    /// attempt**; that is exactly the contract `IdempotentAm` asserts is
    /// safe.
    pub fn exec_idempotent_am_pe<T: IdempotentAm>(
        &self,
        dst: usize,
        am: T,
        opts: AmOpts,
    ) -> AmHandle<T::Output> {
        self.rt.exec_idempotent_am_pe(dst, am, opts)
    }

    /// Launch `am` on every PE (including this one); resolves to one output
    /// per PE, indexed by PE id.
    pub fn exec_am_all<T: LamellarAm + Clone>(&self, am: T) -> MultiAmHandle<T::Output> {
        self.rt.exec_am_all(am)
    }

    /// Submit a user future to this PE's thread pool.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.rt.spawn(fut)
    }

    /// Drive a future to completion; "only blocks the local PE".
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        self.rt.block_on(fut)
    }

    /// Block until every AM/task launched by this PE has completed.
    pub fn wait_all(&self) {
        self.rt.wait_all();
    }

    /// [`wait_all`](LamellarWorld::wait_all) that reports liveness-watchdog
    /// verdicts: `Err(AmError::Stalled { .. })` when a configured
    /// fail-mode watchdog (`WorldConfig::watchdog`) abandoned stalled
    /// in-flight AMs during this wait. The wait itself always terminates in
    /// that case — the stalled futures were resolved to `Err`. Without a
    /// watchdog this is exactly `wait_all` followed by `Ok(())`.
    pub fn try_wait_all(&self) -> Result<(), AmError> {
        self.rt.try_wait_all()
    }

    /// Global synchronization point across all PEs.
    pub fn barrier(&self) {
        self.rt.barrier();
    }

    /// The team containing every PE in the world.
    pub fn team(&self) -> LamellarTeam {
        LamellarTeam::world_team(Arc::clone(&self.rt), self.guard.clone())
    }

    /// Collectively create a sub-team from a list of world PE ids. Every PE
    /// in the *world* must call this with the same list; members receive
    /// `Some(team)`, non-members `None` (paper Sec. III: "Team — a subset
    /// of PEs in the world; sub-teams are supported").
    pub fn create_subteam(&self, pes: &[usize]) -> Option<LamellarTeam> {
        self.team().create_subteam(pes)
    }

    /// Allocate a [`crate::memregion::SharedMemoryRegion`] of `len`
    /// elements per PE, collectively over the whole world.
    pub fn alloc_shared_mem_region<T: crate::memregion::Dist>(
        &self,
        len: usize,
    ) -> crate::memregion::SharedMemoryRegion<T> {
        self.team().alloc_shared_mem_region(len)
    }

    /// Allocate a [`crate::memregion::OneSidedMemoryRegion`] of `len`
    /// elements on this PE only. Panics with the typed allocation error on
    /// heap exhaustion; see
    /// [`try_alloc_one_sided_mem_region`](LamellarWorld::try_alloc_one_sided_mem_region).
    pub fn alloc_one_sided_mem_region<T: crate::memregion::Dist>(
        &self,
        len: usize,
    ) -> crate::memregion::OneSidedMemoryRegion<T> {
        crate::memregion::OneSidedMemoryRegion::new(Arc::clone(&self.rt), len)
    }

    /// Fallible [`alloc_one_sided_mem_region`](LamellarWorld::alloc_one_sided_mem_region):
    /// lets the caller handle heap exhaustion — genuine, or injected by an
    /// armed fault plane (`WorldConfig::faults` with `alloc_fail_prob`).
    ///
    /// # Errors
    /// [`CommError::AllocFailed`](crate::lamellae::CommError::AllocFailed)
    /// when this PE's one-sided heap cannot fit `len` elements.
    pub fn try_alloc_one_sided_mem_region<T: crate::memregion::Dist>(
        &self,
        len: usize,
    ) -> Result<crate::memregion::OneSidedMemoryRegion<T>, crate::lamellae::CommError> {
        crate::memregion::OneSidedMemoryRegion::try_new(Arc::clone(&self.rt), len)
    }

    /// Typed snapshot of the runtime's observability counters, one section
    /// per layer: fabric (puts/gets, bytes, inject vs. rendezvous split,
    /// barrier rounds), lamellae (messages, serialized bytes, aggregation
    /// flushes, wire backpressure), executor (tasks spawned / completed /
    /// stolen, per-worker queue depth high-water marks), and AM (directional
    /// counts, replies, batch fan-out, Darc lifecycle).
    ///
    /// Fabric counters are fabric-global — they include every PE's traffic —
    /// while the other sections are local to this PE. Snapshots are cheap
    /// (relaxed atomic loads); take one before and one after a phase and
    /// subtract with [`RuntimeStats::delta`] to isolate it:
    ///
    /// ```ignore
    /// let before = world.stats();
    /// run_phase(&world);
    /// println!("{}", world.stats().delta(&before));
    /// ```
    ///
    /// Counting is on by default; disable it with
    /// [`WorldConfig::metrics`]`(false)` or `LAMELLAR_METRICS=0`, in which
    /// case every section reads zero.
    pub fn stats(&self) -> RuntimeStats {
        self.rt.stats()
    }

    /// Runtime access for sibling crates (the array layer). Not part of the
    /// user-facing API.
    #[doc(hidden)]
    pub fn rt(&self) -> &Arc<RuntimeInner> {
        &self.rt
    }
}

impl std::fmt::Debug for LamellarWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LamellarWorld")
            .field("pe", &self.my_pe())
            .field("num_pes", &self.num_pes())
            .field("backend", &self.backend())
            .finish()
    }
}

/// Builder for single-PE worlds (the SMP path of Listing 1's
/// `LamellarWorldBuilder::new().build()`). Multi-PE worlds come from
/// [`launch`], which plays the role of the cluster launcher.
///
/// This builder — and [`WorldConfig`]'s builder-style setters for multi-PE
/// launches via [`launch_with_config`] — is the canonical construction
/// path: every knob (threads, backend, metrics, aggregation threshold,
/// region sizes) flows through one `WorldConfig`, and the convenience
/// entry point [`launch`] is just `launch_with_config(WorldConfig::new(n))`.
pub struct LamellarWorldBuilder {
    threads: usize,
    backend: Backend,
    metrics: bool,
}

impl Default for LamellarWorldBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl LamellarWorldBuilder {
    /// Start building a single-PE world.
    pub fn new() -> Self {
        LamellarWorldBuilder { threads: 2, backend: Backend::Smp, metrics: true }
    }

    /// Worker threads for the PE's pool.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Backend override (Smp and Shmem are valid for one PE; Rofi works too
    /// and simply runs the full serialization path against itself).
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Enable or disable the observability counters read through
    /// [`LamellarWorld::stats`] (on by default).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Initialize the runtime and return the world handle.
    pub fn build(self) -> LamellarWorld {
        let cfg = WorldConfig::new(1)
            .backend(self.backend)
            .threads_per_pe(self.threads)
            .metrics(self.metrics);
        build_worlds(cfg).pop().expect("one world")
    }
}

/// Construct all PE worlds for a config (resolved internally).
pub(crate) fn build_worlds(cfg: WorldConfig) -> Vec<LamellarWorld> {
    let cfg = cfg.resolve();
    let net = match cfg.backend {
        Backend::Rofi => NetConfig::from_env(),
        Backend::Shmem | Backend::Smp => NetConfig::disabled(),
    };
    let endpoints = Fabric::launch(FabricConfig {
        num_pes: cfg.num_pes,
        sym_len: cfg.sym_len,
        heap_len: cfg.heap_len,
        net,
        metrics: cfg.metrics,
        fault: cfg.fault.clone(),
    });
    // Reserve the queue block first: symmetric offset 64-aligned, identical
    // on every PE by construction. The fault plane (if any) is still
    // disarmed here — bootstrap allocations are never failed artificially.
    let queue_base = endpoints[0]
        .fabric()
        .alloc_symmetric(queue_footprint(cfg.num_pes, cfg.buffer_size), 64)
        .expect("symmetric region too small for message queues");
    let fault_plane = endpoints[0].fabric().fault_plane().cloned();
    let shared = WorldShared::new();
    let worlds: Vec<LamellarWorld> = endpoints
        .into_iter()
        .map(|ep| {
            let lamellae: Arc<dyn Lamellae> = Arc::new(FabricLamellae::new(
                ep,
                cfg.backend,
                queue_base,
                cfg.buffer_size,
                cfg.agg_threshold,
            ));
            let pe = lamellae.my_pe();
            let pool = ThreadPool::new(PoolConfig {
                workers: cfg.threads_per_pe,
                single_queue: false,
                thread_name: format!("lamellar-pe{pe}"),
                metrics: cfg.metrics,
            });
            let rt = RuntimeInner::new(
                lamellae,
                pool,
                Arc::clone(&shared),
                cfg.agg_threshold,
                cfg.metrics,
                cfg.am_deadline,
            );
            let progress = {
                let rt = Arc::clone(&rt);
                std::thread::Builder::new()
                    .name(format!("lamellar-progress-pe{pe}"))
                    .spawn(move || rt.progress_loop())
                    .expect("spawn progress thread")
            };
            let watchdog = cfg.watchdog.map(|wcfg| {
                let rt = Arc::clone(&rt);
                std::thread::Builder::new()
                    .name(format!("lamellar-watchdog-pe{pe}"))
                    .spawn(move || rt.watchdog_loop(wcfg))
                    .expect("spawn watchdog thread")
            });
            let guard = Arc::new(WorldGuard {
                rt: Arc::clone(&rt),
                progress: Mutex::new(Some(progress)),
                watchdog: Mutex::new(watchdog),
            });
            LamellarWorld { rt, guard: Some(guard) }
        })
        .collect();
    // Bootstrap is done — only now may the injector start failing
    // allocations and faulting wire chunks.
    if let Some(plane) = fault_plane {
        plane.arm();
    }
    worlds
}

/// Construct all PE worlds without spawning PE main threads — for
/// harnesses (e.g. the `perfbench` ledger) that need to place each PE's world
/// on a thread they manage themselves. Prefer [`launch`] for SPMD
/// programs.
pub fn spawn_worlds(cfg: WorldConfig) -> Vec<LamellarWorld> {
    build_worlds(cfg)
}

/// SPMD launch: run `f` once per PE (each on its own thread group), return
/// the per-PE results in PE order. This is the simulation's stand-in for
/// the cluster launcher ("The number of PEs is controlled through the
/// system's launcher (e.g. slurm)").
pub fn launch<R, F>(num_pes: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(LamellarWorld) -> R + Send + Sync + 'static,
{
    launch_with_config(WorldConfig::new(num_pes), f)
}

/// [`launch`] with explicit configuration.
pub fn launch_with_config<R, F>(cfg: WorldConfig, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(LamellarWorld) -> R + Send + Sync + 'static,
{
    let worlds = build_worlds(cfg);
    let f = Arc::new(f);
    let handles: Vec<_> = worlds
        .into_iter()
        .enumerate()
        .map(|(pe, world)| {
            let f = Arc::clone(&f);
            std::thread::Builder::new()
                .name(format!("lamellar-main-pe{pe}"))
                .spawn(move || f(world))
                .expect("spawn PE main thread")
        })
        .collect();
    handles
        .into_iter()
        .enumerate()
        .map(|(pe, h)| match h.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(
                Box::new(format!("PE {pe} main panicked: {e:?}")) as Box<dyn Any + Send>
            ),
        })
        .collect()
}
