#![warn(missing_docs)]
//! # amcca-serve — always-on ingestion for the streaming graph
//!
//! The paper's experiments run a fixed schedule of increments and exit; a
//! deployed decentralized graph system instead ingests forever. This crate
//! wraps [`sdgp_core::StreamingGraph`] in that serving shape:
//!
//! * [`proto`] — a framed loopback-TCP protocol (length-prefixed binary, no
//!   external dependencies) carrying typed [`GraphMutation`] batches,
//!   fixpoint queries, and control requests.
//! * [`bucket`] / [`admission`] — token-bucket admission control: per-client
//!   rate limits plus a global queue-depth watermark. Overload is answered
//!   with an explicit retry-after hint, never unbounded queueing.
//! * [`wal`] — the durability store: an atomically-replaced checkpoint file
//!   (the [`sdgp_core::GraphCheckpoint`] codec) plus a checksummed
//!   write-ahead log of the service rounds applied since, each as its
//!   admitted submissions in arrival order. A crash loses nothing that was
//!   acknowledged: recovery restores the checkpoint and re-stages only the
//!   WAL tail, which coalesces to the batches those rounds applied.
//! * [`server`] — the single-writer ingest loop ([`server::IngestCore`])
//!   and the threaded TCP front end ([`server::Server`]): each connection
//!   has a reader thread, which feeds one ingest thread through a channel,
//!   and a writer thread, which sends every response to it — replies and
//!   pushed deltas alike — from the connection's outbox. Admitted
//!   submissions are validated against and parked in the graph's own
//!   [`sdgp_core::MutationLog`] (there is no separate coalescing stage),
//!   and each service round applies the canonical batch they coalesce to as
//!   one increment, then appends them to the WAL. A checkpoint applies
//!   parked submissions first. Every `Submitted` acknowledgement is sent
//!   *after* the increment that contains the batch converged and its WAL
//!   record is durable.
//! * [`client`] — a small blocking client used by the workload drivers and
//!   the smoke tests.
//!
//! [`GraphMutation`]: sdgp_core::graph::GraphMutation

use std::fmt;
use std::io;

use amcca_sim::SimError;
use sdgp_core::checkpoint::CheckpointError;

pub mod admission;
pub mod bucket;
pub mod client;
pub mod proto;
pub mod server;
pub mod wal;

pub use admission::{Admission, AdmissionConfig, Decision};
pub use bucket::TokenBucket;
pub use client::{Client, SubEvent, Submission};
pub use proto::ServerStats;
pub use server::{BootReport, IngestCore, ServeConfig, Server, ServerReport};
pub use wal::{Store, WalRecord};

/// Why a serving-layer operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket failure.
    Io(io::Error),
    /// A checkpoint or WAL record failed to decode or verify.
    Checkpoint(CheckpointError),
    /// The simulator rejected an increment while applying a batch.
    Sim(SimError),
    /// A write-ahead-log batch no longer applies to the restored graph —
    /// the store directory is corrupt or from a different run.
    WalReplay(String),
    /// A standing-query registration was invalid (bad pattern or source).
    Query(sdgp_core::query::QueryError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            ServeError::Sim(e) => write!(f, "simulator error: {e:?}"),
            ServeError::WalReplay(what) => write!(f, "WAL replay failed: {what}"),
            ServeError::Query(e) => write!(f, "query registration failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}
