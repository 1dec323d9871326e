//! # amcca-obs — std-only wall-clock observability
//!
//! The paper's evaluation is simulated-time (cycles, energy); this crate
//! adds the *wall-clock* side the serving stack needs: where a submission
//! actually spends its time between the TCP read and the `Submitted` ack.
//! Four pieces, no external dependencies:
//!
//! * [`registry::Registry`] — named monotonic counters, gauges, and
//!   fixed-bucket log-scale latency histograms ([`hist`]), snapshotted into
//!   a mergeable, wire-codable [`registry::MetricsSnapshot`] with
//!   p50/p90/p99/p999 extraction.
//! * [`trace::Obs`] — the handle the stack threads around: span tracing of
//!   the batch lifecycle (submit → admission → validate → structural →
//!   repair → WAL append+fsync → ack) as JSON-lines events,
//!   behind a cheap enabled-check so the disabled path is a no-op.
//! * [`json`] — a tiny JSON reader/writer used by the trace checker and
//!   tests.
//! * [`bytes`] — the binary codec, a [`bytes::Writer`] and [`bytes::Reader`]
//!   pair that every byte format of the workspace is written and read
//!   through: the snapshot's wire form here, and the checkpoint, the
//!   write-ahead log and the client protocol in the crates above.
//!
//! Instrumentation is *pure observation*: it reads clocks and bumps
//! counters but never feeds back into control flow, so enabling it cannot
//! perturb simulation results (pinned by the `obs_equivalence` proptest in
//! the umbrella crate).

#![warn(missing_docs)]

pub mod bytes;
pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use hist::{bucket_bounds, bucket_index, HistSnapshot, Histogram};
pub use json::Json;
pub use registry::{MetricsSnapshot, Registry};
pub use trace::{Obs, Span};
