//! Teams: subsets of the world's PEs (paper Sec. III: "Team — a subset of
//! PEs in the world; sub-teams are supported").
//!
//! Teams scope collectives (barriers, allocations, Darc construction) to
//! their members. Collective construction helpers here implement the
//! root-allocates-then-broadcasts pattern the runtime uses everywhere a
//! symmetric resource is created.

use crate::memregion::{Dist, SharedMemoryRegion};
use crate::runtime::{RuntimeInner, WaitGuard};
use crate::world::WorldGuard;
use rofi_sim::SenseBarrier;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Immutable description of a team, replicated per member PE.
pub(crate) struct TeamInfo {
    pub(crate) id: u64,
    /// World PE ids of the members, sorted ascending.
    pub(crate) pes: Vec<usize>,
    /// Per-PE collective sequence number; SPMD programs issue team
    /// collectives in the same order on every member, which makes
    /// `(team, seq)` a world-wide agreed tag for each collective.
    seq: AtomicU64,
}

/// A handle on a team, specific to the local PE.
#[derive(Clone)]
pub struct LamellarTeam {
    rt: Arc<RuntimeInner>,
    info: Arc<TeamInfo>,
    barrier: Arc<SenseBarrier>,
    /// Keeps world teardown ordered after team-held resources (present on
    /// user-held teams).
    _guard: Option<Arc<WorldGuard>>,
}

impl LamellarTeam {
    /// The whole-world team.
    pub(crate) fn world_team(rt: Arc<RuntimeInner>, guard: Option<Arc<WorldGuard>>) -> Self {
        let n = rt.num_pes();
        let shared = Arc::clone(rt.shared());
        let pes: Vec<usize> = (0..n).collect();
        // Team id 0 is reserved for the world team of each world.
        let barrier = shared.team_barrier(0, &pes);
        // All PEs construct an identical TeamInfo; each holds its own copy
        // (mirroring per-process team state in the real runtime).
        let info = Arc::new(TeamInfo { id: 0, pes, seq: AtomicU64::new(0) });
        LamellarTeam { rt, info, barrier, _guard: guard }
    }

    /// World PE id of the calling PE.
    pub fn my_pe(&self) -> usize {
        self.rt.pe()
    }

    /// This PE's rank within the team (`None` if not a member — cannot
    /// happen for handles obtained through the public API).
    pub fn my_rank(&self) -> usize {
        self.rank_of(self.rt.pe()).expect("calling PE is a team member")
    }

    /// Rank of a world PE within this team.
    pub fn rank_of(&self, pe: usize) -> Option<usize> {
        self.info.pes.binary_search(&pe).ok()
    }

    /// Number of member PEs.
    pub fn num_pes(&self) -> usize {
        self.info.pes.len()
    }

    /// The member world-PE ids, ascending.
    pub fn pes(&self) -> &[usize] {
        &self.info.pes
    }

    /// Team identifier (0 = the world team).
    pub fn id(&self) -> u64 {
        self.info.id
    }

    /// Barrier across the team's members, servicing runtime progress while
    /// waiting.
    pub fn barrier(&self) {
        let _waiting = WaitGuard::new(&self.rt);
        self.rt.lamellae().flush();
        self.barrier.wait(self.rt.lamellae().doorbell(), || {
            self.rt.shared().check_poison();
            self.rt.tick()
        });
    }

    /// Collectively create a sub-team of `pes` (world ids; deduplicated and
    /// sorted). Every member of *this* team must call with the same list;
    /// members of the new team get `Some`, others `None`.
    pub fn create_subteam(&self, pes: &[usize]) -> Option<LamellarTeam> {
        let mut members: Vec<usize> = pes.to_vec();
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "sub-team needs at least one PE");
        for &pe in &members {
            assert!(self.rank_of(pe).is_some(), "PE {pe} is not a member of the parent team");
        }
        // Root (parent rank 0) draws the id; everyone learns it through
        // the collective object exchange.
        let shared = Arc::clone(self.rt.shared());
        let team_id = *self.exchange_object(0, || shared.new_team_id());
        if !members.contains(&self.rt.pe()) {
            // Still participate in the parent-team synchronization above,
            // but hold no handle.
            return None;
        }
        let barrier = self.rt.shared().team_barrier(team_id, &members);
        let info = Arc::new(TeamInfo { id: team_id, pes: members, seq: AtomicU64::new(0) });
        Some(LamellarTeam { rt: Arc::clone(&self.rt), info, barrier, _guard: self._guard.clone() })
    }

    /// Collectively allocate a [`SharedMemoryRegion`] of `len` elements per
    /// member PE.
    pub fn alloc_shared_mem_region<T: Dist>(&self, len: usize) -> SharedMemoryRegion<T> {
        SharedMemoryRegion::new(self.clone(), len)
    }

    /// Next collective tag for this team (see [`TeamInfo::seq`]).
    pub(crate) fn next_tag(&self) -> u64 {
        let seq = self.info.seq.fetch_add(1, Ordering::Relaxed);
        // Combine (team, seq) into a tag for the world's collective maps.
        lamellar_codec::type_hash("team-collective") ^ self.info.id.rotate_left(20) ^ seq
    }

    /// Collective exchange of a shared object: `root` constructs it, every
    /// member receives a clone of the `Arc`. Synchronizes the team twice
    /// (deposit visible → all fetched).
    #[doc(hidden)]
    pub fn exchange_object<T: Send + Sync + 'static>(
        &self,
        root: usize,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        let tag = self.next_tag();
        let shared = Arc::clone(self.rt.shared());
        shared.check_collective(tag, "exchange_object");
        if self.my_rank() == root {
            shared.exchange_put(tag, Arc::new(make()));
        }
        self.barrier();
        let obj = shared
            .exchange_get(tag)
            .expect("exchange object present after barrier")
            .downcast::<T>()
            .expect("exchange object type");
        self.barrier();
        if self.my_rank() == root {
            shared.exchange_remove(tag);
            shared.finish_collective(tag);
        }
        obj
    }

    /// Collective all-deposit: every member contributes a value; returns
    /// the full vector (indexed by team rank) to every member.
    #[doc(hidden)]
    pub fn deposit_all<T: Send + Sync + 'static>(&self, mine: T) -> Arc<Vec<T>> {
        let tag = self.next_tag();
        let shared = Arc::clone(self.rt.shared());
        shared.check_collective(tag, "deposit_all");
        let rank = self.my_rank();
        let completed = shared.deposit(tag, rank, self.num_pes(), Box::new(mine));
        if let Some(slots) = completed {
            // Last depositor assembles the vector and republishes it.
            let vec: Vec<T> = slots
                .into_iter()
                .map(|s| *s.expect("all deposited").downcast::<T>().expect("deposit type"))
                .collect();
            shared.exchange_put(tag, Arc::new(vec) as Arc<dyn Any + Send + Sync>);
        }
        self.barrier();
        let obj = shared
            .exchange_get(tag)
            .expect("deposit vector present after barrier")
            .downcast::<Vec<T>>()
            .expect("deposit vector type");
        self.barrier();
        if rank == 0 {
            shared.exchange_remove(tag);
            shared.finish_collective(tag);
        }
        obj
    }

    /// Launch `am` on the team member with team rank `rank` (paper: both
    /// `lamellar::world` and `lamellar::team` can launch AMs).
    pub fn exec_am_rank<T: crate::am::LamellarAm>(
        &self,
        rank: usize,
        am: T,
    ) -> crate::am::AmHandle<T::Output> {
        let pe = *self.info.pes.get(rank).unwrap_or_else(|| {
            panic!("rank {rank} out of range (team has {} PEs)", self.num_pes())
        });
        self.rt.exec_am_pe(pe, am)
    }

    /// [`exec_am_rank`](LamellarTeam::exec_am_rank) with per-call
    /// resilience options (deadline; see
    /// [`LamellarWorld::exec_am_pe_with`](crate::world::LamellarWorld::exec_am_pe_with)).
    pub fn exec_am_rank_with<T: crate::am::LamellarAm>(
        &self,
        rank: usize,
        am: T,
        opts: crate::am::AmOpts,
    ) -> crate::am::AmHandle<T::Output> {
        let pe = *self.info.pes.get(rank).unwrap_or_else(|| {
            panic!("rank {rank} out of range (team has {} PEs)", self.num_pes())
        });
        self.rt.exec_am_pe_with(pe, am, opts)
    }

    /// Launch `am` on every member of this team; resolves to one output
    /// per member, in team-rank order.
    pub fn exec_am_team<T: crate::am::LamellarAm + Clone>(
        &self,
        am: T,
    ) -> crate::am::MultiAmHandle<T::Output> {
        let handles = self
            .info
            .pes
            .iter()
            .map(|&pe| Some(self.rt.exec_am_pe(pe, am.clone())))
            .collect::<Vec<_>>();
        let results = (0..self.info.pes.len()).map(|_| None).collect();
        crate::am::MultiAmHandle { handles, results }
    }

    /// Runtime access for sibling crates (the array layer).
    #[doc(hidden)]
    pub fn rt(&self) -> &Arc<RuntimeInner> {
        &self.rt
    }
}

impl std::fmt::Debug for LamellarTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LamellarTeam")
            .field("id", &self.info.id)
            .field("pes", &self.info.pes)
            .field("my_pe", &self.my_pe())
            .finish()
    }
}
