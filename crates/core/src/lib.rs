//! # lamellar-core
//!
//! The Lamellar runtime core (paper Secs. III-A through III-E):
//!
//! * **Lamellae layer** ([`lamellae`]) — the paper's trait abstracting
//!   network interfaces is one concrete type here, serving its three
//!   backends:
//!   `Rofi` (distributed simulation over [`rofi_sim`], with the network cost
//!   model and full (de)serialization), `Shmem` (identical machinery over
//!   plain shared memory), and `Smp` (the same Lamellae over one PE; local
//!   AMs already skip serialization in the runtime).
//! * **Thread pool layer** — provided by [`lamellar_executor`]; each PE owns
//!   a work-stealing executor.
//! * **Active Message layer** ([`mod@am`]) — the [`am::LamellarAm`] trait, the
//!   AM type registry, typed request handles, and the [`am!`] macro standing
//!   in for the paper's `#[AmData]`/`#[am]` procedural macros.
//! * **World / Teams** ([`world`], [`team`]) — SPMD launch
//!   ([`world::launch`]), `exec_am_pe` / `exec_am_all`, `barrier`,
//!   `wait_all`, `block_on`, and sub-team creation.
//! * **Darc layer** ([`darc`]) — distributed atomically reference counted
//!   pointers with per-PE instances and global lifetime tracking.
//! * **PGAS low level** ([`memregion`]) — `SharedMemoryRegion` and
//!   `OneSidedMemoryRegion` with `unsafe` RDMA put/get, the building blocks
//!   for the safe LamellarArray layer in the `lamellar-array` crate.
//!
//! ## Hello world (Listing 1 of the paper)
//!
//! ```
//! use lamellar_core::active_messaging::prelude::*;
//!
//! #[derive(Clone, Debug)]
//! struct HelloWorldAm { name: String }
//! lamellar_core::impl_codec!(HelloWorldAm { name });
//!
//! impl LamellarAm for HelloWorldAm {
//!     type Output = ();
//!     fn exec(self, ctx: AmContext) -> impl std::future::Future<Output = ()> + Send {
//!         async move {
//!             let _ = format!("PE{}: hello {}!", ctx.current_pe(), self.name);
//!         }
//!     }
//! }
//!
//! let results = lamellar_core::world::launch(2, |world| {
//!     let am = HelloWorldAm { name: String::from("World") };
//!     let request = world.exec_am_all(am); // all PEs
//!     world.block_on(request);             // only blocks the local PE
//!     world.barrier();                     // global sync
//!     world.my_pe()
//! });
//! assert_eq!(results, vec![0, 1]);
//! ```

pub mod am;
pub mod config;
pub mod darc;
pub mod lamellae;
pub mod memregion;
pub mod proto;
pub mod runtime;
pub mod team;
pub mod world;

pub use lamellar_codec::{impl_codec, impl_codec_enum, Codec};

/// Re-exports for AM-based applications, mirroring
/// `lamellar::active_messaging::prelude` from the paper's Listing 1.
pub mod active_messaging {
    pub mod prelude {
        pub use crate::am::{
            AmContext, AmError, AmHandle, AmOpts, CancelOnDrop, FallibleAmHandle,
            FallibleMultiAmHandle, IdempotentAm, LamellarAm, MultiAmHandle, RetryPolicy,
        };
        pub use crate::world::{launch, launch_with_config, LamellarWorld, LamellarWorldBuilder};
        pub use crate::{am, impl_codec, impl_codec_enum};
        pub use lamellar_codec::Codec;
    }
}

/// General prelude: worlds, teams, darcs, memory regions.
pub mod prelude {
    pub use crate::active_messaging::prelude::*;
    pub use crate::config::{Backend, ConfigError, WatchdogConfig, WorldConfig};
    pub use crate::darc::Darc;
    pub use crate::lamellae::CommError;
    pub use crate::memregion::{Dist, OneSidedMemoryRegion, SharedMemoryRegion};
    pub use crate::team::LamellarTeam;
    pub use rofi_sim::{FaultConfig, FaultRates};
}
