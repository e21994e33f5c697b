//! # lamellar-executor
//!
//! The Thread Pool layer of the Lamellar stack (paper Sec. III-B): a
//! work-stealing, multi-threaded executor for Rust futures.
//!
//! > "Lamellar fully supports Rust Futures and the async/await programming
//! > model; as such, Lamellar thread pools are considered Rust Executors.
//! > ... The Lamellar thread pool utilizes a work-stealing implementation
//! > with respect to individual PEs."
//!
//! Each simulated PE owns one [`ThreadPool`]. The pool runs:
//! * user-submitted futures ([`ThreadPool::spawn`] — "Lamellar enables users
//!   to submit their own Futures for execution on the thread pool"),
//! * Active Message execution tasks, and
//! * the communication tasks produced by the Lamellae.
//!
//! Design: a global injector queue ([`crossbeam_deque::Injector`]) feeds
//! per-worker LIFO deques; idle workers steal from siblings before parking.
//! [`ThreadPool::block_on`] *helps* — while the blocked future is pending,
//! the calling thread executes pool tasks, so "block_on only blocks the
//! calling PE" (Listing 1) and cannot starve the runtime even when every
//! worker is busy.
//!
//! Every wait parks on the PE's one [`Doorbell`], which spawns and
//! `block_on`'s waker ring; no wait spins, yields or sleeps on a timer of
//! its own (DESIGN.md §4f). The runtime's progress thread, which polls the
//! wire, is the one thread of a PE that does not park on it.
//!
//! An ablation (`single_queue` mode) replaces the per-worker deques with the
//! shared injector only, used by `bench/bin/ablation_executor` to measure
//! what work-stealing buys.

pub mod backoff;
pub mod doorbell;
pub mod oneshot;
pub mod pool;
pub mod task;

pub use backoff::ExpBackoff;
pub use doorbell::{Doorbell, Side, PARK_CAP};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender};
pub use pool::{PoolConfig, ThreadPool};
pub use task::JoinHandle;
