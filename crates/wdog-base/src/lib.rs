//! Shared substrate-free utilities for the `watchdogs` workspace.
//!
//! This crate hosts the small pieces every other crate needs but that carry no
//! watchdog- or simulation-specific policy of their own:
//!
//! - [`clock`]: a [`Clock`] abstraction with a real wall-clock
//!   implementation and a fully deterministic virtual clock for tests.
//! - [`ids`]: cheap, copyable identifiers used across crates.
//! - [`error`]: the workspace-wide error vocabulary.
//! - [`rng`]: deterministic, seedable random number helpers.

pub mod checksum;
pub mod clock;
pub mod error;
pub mod ids;
pub mod join;
pub mod lane;
pub mod queue;
pub mod rng;
pub mod sync;

pub use checksum::{crc32, verify as verify_crc32};
pub use clock::{
    spawn_on, ActorCtl, ActorGuard, ActorToken, Clock, CondvarWaiter, RealClock, SharedClock,
    VirtualClock, Waiter,
};
pub use error::{BaseError, BaseResult};
pub use ids::{CheckerId, ComponentId, NodeId, OpId};
pub use join::{join_all_timeout, join_timeout, Spawned};
pub use lane::{thread_lane, thread_stripe, LaneCounter};
pub use queue::ClockedQueue;
pub use sync::{ClockedMutex, ClockedMutexGuard};
