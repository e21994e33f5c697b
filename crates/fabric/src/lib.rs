//! # rofi-sim
//!
//! A simulated network fabric standing in for ROFI / libfabric / OFI
//! (paper Sec. III-A.1). See DESIGN.md §1 for the substitution rationale.
//!
//! The real Lamellar stack bottoms out in ROFI, a thin C shim over
//! libfabric exposing: registered RDMA memory regions, one-sided `put`/`get`
//! of raw bytes, a collective `barrier`, and (de)allocation of RDMA memory.
//! This crate provides exactly that surface for a set of *simulated* PEs that
//! live in one OS process:
//!
//! * [`arena::Arena`] — one registered memory region per PE, carved up by a
//!   first-fit free-list allocator ([`alloc::FreeList`]) into a *symmetric*
//!   region (collective allocations, identical offsets on every PE — used by
//!   the runtime's internal queues) and a *dynamic heap* (one-sided
//!   allocations, per-PE offsets — used for user data structures, Sec. III-A:
//!   "the remainder of the RDMA Memory Region is used as a one-sided dynamic
//!   heap").
//! * [`fabric::Fabric`] / [`fabric::FabricPe`] — the per-PE handle with
//!   `put`/`get`/atomic-flag operations and collectives.
//! * [`netmodel::NetModel`] — an optional cost model (per-message latency,
//!   per-byte bandwidth, an `fi_inject_write` small-message fast path) that
//!   reproduces the *shape* of the paper's Fig. 2 bandwidth curves. Disabled
//!   by default so tests run at memory speed over the identical code paths.
//! * [`rofi`] — an `unsafe` C-style API mirroring ROFI.h / the rofi-sys
//!   crate, measured directly by the Fig. 2 "Rofi(libfabric)" series.
//!
//! Everything above this crate (the Lamellae, AMs, arrays) sees only bytes
//! moving between PEs — the same contract the real hardware provides.

#![warn(missing_docs)]

pub mod alloc;
pub mod arena;
pub mod barrier;
pub mod fabric;
pub mod fault;
pub mod netmodel;
pub mod rofi;

pub use arena::Arena;
pub use barrier::SenseBarrier;
pub use fabric::{Fabric, FabricPe};
pub use fault::{ChunkAction, FaultConfig, FaultPlane, FaultRates, RETRANSMIT_TIMEOUT};
pub use netmodel::{NetConfig, NetModel};

/// Errors surfaced by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// An offset/length pair fell outside the target arena.
    OutOfBounds {
        /// Start offset of the attempted access.
        offset: usize,
        /// Length of the attempted access.
        len: usize,
        /// Total size of the arena the access targeted.
        arena_len: usize,
    },
    /// The arena could not satisfy an allocation request.
    OutOfMemory {
        /// Bytes the caller asked for.
        requested: usize,
        /// Bytes still free in the region (possibly fragmented).
        available: usize,
    },
    /// A PE id outside `0..num_pes`.
    InvalidPe {
        /// The offending PE id.
        pe: usize,
        /// World size the id was checked against.
        num_pes: usize,
    },
    /// `free` was called with an offset that is not a live allocation.
    InvalidFree {
        /// The offset passed to `free`.
        offset: usize,
    },
    /// An atomic accessor was given a misaligned offset.
    Misaligned {
        /// The offending offset.
        offset: usize,
        /// Alignment the accessor requires.
        align: usize,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::OutOfBounds { offset, len, arena_len } => write!(
                f,
                "access [{offset}, {offset}+{len}) out of bounds of arena of {arena_len} bytes"
            ),
            FabricError::OutOfMemory { requested, available } => {
                write!(f, "arena exhausted: requested {requested} bytes, {available} free")
            }
            FabricError::InvalidPe { pe, num_pes } => {
                write!(f, "invalid PE {pe} (world has {num_pes} PEs)")
            }
            FabricError::InvalidFree { offset } => {
                write!(f, "free of non-allocated offset {offset}")
            }
            FabricError::Misaligned { offset, align } => {
                write!(f, "offset {offset} not aligned to {align}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Result alias for fabric operations.
pub type Result<T> = std::result::Result<T, FabricError>;
