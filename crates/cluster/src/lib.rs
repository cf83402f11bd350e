//! Coordinator/worker repair over a sharded stripe archive: *plans
//! travel, data stays put*.
//!
//! The paper's PPM pipeline compiles a failure scenario into a two-phase
//! plan: phase A recovers sectors from independent sub-matrices using
//! only locally surviving sectors, and phase B (`H_rest`) combines
//! partial sums. In a distributed archive that structure maps directly
//! onto the network: a coordinator holds the
//! [`Planner`](ppm_core::Planner) half of
//! [`RepairService`](ppm_core::RepairService) and ships each failure
//! scenario's [`WirePlan`](ppm_core::WirePlan) — a few hundred bytes —
//! to the worker that owns the damaged stripe. The worker's
//! [`Executor`](ppm_core::Executor) runs phase A in place and, when
//! `H_rest` is splittable, sends back only the partial-sum `T` blocks
//! (`z_b` sector-sized blocks) instead of the `n − z` surviving sectors
//! a naive repair would move. The coordinator finishes `F⁻¹ · T` and
//! sends the `z_b` recovered sectors down.
//!
//! Per repaired stripe with `n` sectors, `z` erasures, `z_b` of them in
//! `H_rest`, and `s`-byte sectors, the payload bound is
//! `2·z_b·s` (up plus down) for partial-block repair versus
//! `(n − z + z)·s = n·s` for ship-everything — strictly fewer bytes
//! whenever `2·z_b < n`, which holds for every geometry the paper
//! studies (`z_b ≤ z ≤ fault tolerance ≪ n`).
//!
//! The crate layers, bottom up:
//!
//! - [`seal_v2`] / [`unseal`]: the CRC32- and sequence-protected
//!   envelope every message travels in; anything else is rejected with
//!   a typed [`FrameError`].
//! - [`Transport`]: how frames move — in-process channels
//!   ([`channel_pair`]), optionally through a fault-injecting
//!   [`ChaosTransport`].
//! - [`CoordinatorRequest`] / [`WorkerResponse`]: the hand-rolled wire
//!   protocol (no external serialization crates).
//! - [`Worker`]: owns a shard of stripes, caches the plans it compiles by
//!   [`PlanKey`](ppm_core::PlanKey) string, answers requests.
//! - [`run_sim`]: drives a full simulated archive — shard, damage,
//!   repair over N workers, and compare bit-for-bit against a
//!   single-node [`RepairService`](ppm_core::RepairService).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod chaos;
mod error;
mod frame;
mod message;
mod sim;
mod transport;
mod worker;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosTransport, InjectedFaults};
pub use error::ClusterError;
pub use frame::{
    crc32, seal_v2, unseal, FrameError, Unsealed, FRAME_V2_MAGIC, FRAME_VERSION, V2_HEADER,
};
pub use message::{CoordinatorRequest, WorkerResponse};
pub use sim::{run_sim, ChaosStats, RepairMode, RetryPolicy, SimConfig, SimReport, Traffic};
pub use transport::{channel_pair, ChannelTransport, Transport};
pub use worker::{Worker, WorkerFrameStats};

pub use ppm_faults::ChaosRates;
